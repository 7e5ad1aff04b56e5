//! Warm- vs cold-solve differential tests across the full PolyBench
//! suite: a [`WarmStart`] floor may only remove provably-suboptimal
//! search work, and among tied optima every completed search returns the
//! lexicographically greatest, so warm solves must return the *same*
//! verdicts, optima and tiles as cold solves on every formulation —
//! including infeasible ones, tied ones, and hint sets polluted with
//! models from foreign benchmarks — and every sweep point the tiles a
//! `select` of its configuration returns.

use eatss::sweep::{PAPER_SPLITS, PAPER_WARP_FRACTIONS};
use eatss::{
    Ablation, Eatss, EatssConfig, EatssError, EatssSolution, ModelGenerator, SolutionProvenance,
    SweepOptions,
};
use eatss_gpusim::{DeviceProfile, GpuArch};
use eatss_kernels::{polybench, Dataset};
use eatss_smt::WarmStart;

/// A solve outcome reduced to what warm starting must preserve
/// (`solver_calls` and the work counters legitimately differ).
#[derive(Debug, PartialEq)]
enum Verdict {
    Solved {
        tiles: Vec<i64>,
        objective: i64,
        optimal: bool,
    },
    Infeasible(String),
}

fn verdict(result: Result<EatssSolution, EatssError>) -> Verdict {
    match result {
        Ok(s) => Verdict::Solved {
            tiles: s.tiles.sizes().to_vec(),
            objective: s.objective,
            optimal: s.provenance == SolutionProvenance::Solved,
        },
        Err(EatssError::Unsatisfiable { reason }) => Verdict::Infeasible(reason),
        Err(e) => panic!("unexpected solve error: {e}"),
    }
}

fn solve(
    arch: &GpuArch,
    program: &eatss_affine::Program,
    sizes: &eatss_affine::ProblemSizes,
    warm: Option<&mut WarmStart>,
) -> Verdict {
    let model = ModelGenerator::new(arch, EatssConfig::default())
        .build(program, Some(sizes))
        .expect("formulation builds");
    verdict(match warm {
        Some(warm) => model.solve_warm(warm),
        None => model.solve(),
    })
}

fn xavier() -> GpuArch {
    DeviceProfile::builtin("xavier")
        .expect("builtin")
        .into_arch()
}

/// Every PolyBench formulation solves to the same verdict warm and cold:
/// once seeded with its own optimum (the tightest possible floor), and
/// once through a hint set accumulated across *all* benchmarks — foreign
/// hints with matching `T{d}` names are either feasible (a valid cut) or
/// skipped, never able to change the result.
#[test]
fn warm_solves_match_cold_across_polybench() {
    let arch = GpuArch::ga100();
    let suite = polybench();
    assert_eq!(suite.len(), 17);

    let mut shared = WarmStart::new();
    let mut cold_verdicts = Vec::new();
    for b in &suite {
        let program = b.program().expect("benchmark parses");
        let sizes = b.sizes(Dataset::ExtraLarge);
        let cold = solve(&arch, &program, &sizes, None);

        // Self-seeded: first warm call observes the optimum, second call
        // starts with floor = optimum - 1 and must return it again.
        let mut own = WarmStart::new();
        let first = solve(&arch, &program, &sizes, Some(&mut own));
        assert_eq!(first, cold, "{}: empty-hint warm differs from cold", b.name);
        let seeded = solve(&arch, &program, &sizes, Some(&mut own));
        assert_eq!(
            seeded, cold,
            "{}: self-seeded warm differs from cold",
            b.name
        );

        // Feed the cross-benchmark hint pool for the second pass.
        let _ = solve(&arch, &program, &sizes, Some(&mut shared));
        cold_verdicts.push((b.name, program, sizes, cold));
    }

    // Second pass: every benchmark re-solved against hints from the whole
    // suite (bounded to the most recent observations by WarmStart's ring).
    for (name, program, sizes, cold) in &cold_verdicts {
        let mut polluted = shared.clone();
        let warm = solve(&arch, program, sizes, Some(&mut polluted));
        assert_eq!(
            &warm, cold,
            "{name}: cross-benchmark hints changed the verdict"
        );
    }
}

/// A tied formulation keeps its value warm, and its tiles too. With the
/// spatial term ablated mttkrp's objective is `Π T` alone and many tilings
/// attain its maximum; a cold solve and a solve seeded with that solve's
/// own optimum both return the lexicographically greatest of them.
#[test]
fn tied_optimum_keeps_its_value_warm_but_not_its_tiles() {
    let b = eatss_kernels::by_name("mttkrp").expect("registered");
    let program = b.program().expect("benchmark parses");
    let sizes = b.sizes(Dataset::ExtraLarge);
    let arch = GpuArch::ga100();
    let generator = ModelGenerator::new(
        &arch,
        EatssConfig {
            warp_fraction: 0.125,
            ..EatssConfig::default()
        },
    )
    .with_ablation(Ablation {
        no_spatial_term: true,
        ..Ablation::default()
    });
    let build = || {
        generator
            .build(&program, Some(&sizes))
            .expect("formulation builds")
    };

    let cold = build().solve().expect("feasible");
    assert_eq!(cold.provenance, SolutionProvenance::Solved);
    assert!(
        build().has_other_optimum(&cold).expect("unbudgeted"),
        "the case needs a tie: some other tiling must attain {}",
        cold.objective
    );
    assert_eq!(cold.tiles.sizes(), [256, 32, 4, 4]);

    let mut own = WarmStart::new();
    let first = build().solve_warm(&mut own).expect("feasible");
    assert_eq!(
        first.tiles.sizes(),
        cold.tiles.sizes(),
        "no hints yet: a cold solve"
    );
    let seeded = build().solve_warm(&mut own).expect("feasible");
    assert_eq!(seeded.objective, cold.objective);
    assert_eq!(seeded.provenance, SolutionProvenance::Solved);
    assert_eq!(seeded.stats.warm_seeds, 1);
    assert_eq!(verdict(Ok(seeded)), verdict(Ok(cold.clone())));

    // Every hint is re-validated against all of the formulation's
    // constraints before it may seed a floor, and a third solve accepts
    // each tiling it was handed.
    let handed = own.len() as u64;
    let third = build().solve_warm(&mut own).expect("feasible");
    assert_eq!(third.stats.warm_cut_hits, handed);
    assert_eq!(verdict(Ok(third)), verdict(Ok(cold)));
}

/// The same tie on a full-objective formulation, reached the way a sweep
/// reaches it: Xavier gemm at n = 128, warp fraction 0.5, the virtual cap,
/// solved along its warm chain (splits 0.67, 0.5, then 0). The split-0
/// point keeps the cold objective value and the cold tiles.
#[test]
fn sweep_chain_keeps_the_cold_value_at_a_tied_split_zero_point() {
    let b = eatss_kernels::by_name("gemm").expect("registered");
    let program = b.program().expect("benchmark parses");
    let sizes = b.sizes_uniform(128);
    let xavier = xavier();
    let build = |split_factor| {
        ModelGenerator::new(
            &xavier,
            EatssConfig {
                split_factor,
                ..EatssConfig::default()
            },
        )
        .build(&program, Some(&sizes))
        .expect("formulation builds")
    };

    let mut chain = WarmStart::new();
    for split in [0.67, 0.5] {
        build(split).solve_warm(&mut chain).expect("feasible");
    }
    let warm = build(0.0).solve_warm(&mut chain).expect("feasible");
    assert!(warm.stats.warm_seeds > 0, "the chain seeded split 0");
    let mut own = WarmStart::new();
    let cold = build(0.0).solve_warm(&mut own).expect("feasible");
    assert_eq!(warm.objective, cold.objective);
    assert_eq!(warm.provenance, SolutionProvenance::Solved);
    assert_eq!(cold.provenance, SolutionProvenance::Solved);
    assert!(build(0.0).has_other_optimum(&cold).expect("unbudgeted"));
    assert_eq!(cold.tiles.sizes(), [96, 112, 16]);
    assert_eq!(verdict(Ok(warm)), verdict(Ok(cold)));

    // Every model the chain holds, the warm tiling among them, and the
    // cold tiling re-validate against all of split 0's constraints.
    let handed = chain.len() as u64;
    assert_eq!(
        build(0.0)
            .solve_warm(&mut chain)
            .expect("feasible")
            .stats
            .warm_cut_hits,
        handed
    );
    assert_eq!(
        build(0.0)
            .solve_warm(&mut own)
            .expect("feasible")
            .stats
            .warm_cut_hits,
        1
    );
}

/// Every point of a sweep over the paper's grid has the tiles a `select`
/// of its configuration returns, and a point that fell back is one the
/// `select` refuses: for every registry kernel on one device, at the
/// device's paper dataset and at uniform n = 128.
fn sweep_points_are_selects(device: &str) {
    let arch = DeviceProfile::builtin(device).expect("builtin").into_arch();
    // The Fig 7 pairing: datacenter parts run EXTRALARGE, embedded ones
    // STANDARD.
    let dataset = if arch.sm_count >= 32 {
        Dataset::ExtraLarge
    } else {
        Dataset::Standard
    };
    let eatss = Eatss::new(arch);
    let suite = eatss_kernels::all();
    assert_eq!(suite.len(), 21);
    let mut solved = 0;
    for b in &suite {
        let program = b.program().expect("benchmark parses");
        for sizes in [b.sizes(dataset), b.sizes_uniform(128)] {
            let outcome = eatss
                .sweep_with(
                    &program,
                    &sizes,
                    &PAPER_SPLITS,
                    &PAPER_WARP_FRACTIONS,
                    &SweepOptions::default(),
                )
                .expect("sweeps");
            for point in &outcome.points {
                let select = eatss.select_tiles(&program, &sizes, &point.config);
                let at = format!("{device} {} {sizes:?} {:?}", b.name, point.config);
                match point.solution.provenance {
                    SolutionProvenance::Solved => {
                        let select = select.unwrap_or_else(|e| panic!("{at}: {e}"));
                        assert_eq!(point.solution.tiles.sizes(), select.tiles.sizes(), "{at}");
                        solved += 1;
                    }
                    _ => assert!(select.is_err(), "{at}: the sweep fell back"),
                }
            }
        }
    }
    assert!(solved > 0, "{device}: no point solved");
}

#[test]
fn sweep_points_are_selects_ga100() {
    sweep_points_are_selects("ga100");
}

#[test]
fn sweep_points_are_selects_h100() {
    sweep_points_are_selects("h100");
}

#[test]
fn sweep_points_are_selects_xavier() {
    sweep_points_are_selects("xavier");
}

#[test]
fn sweep_points_are_selects_orin() {
    sweep_points_are_selects("orin");
}

#[test]
fn sweep_points_are_selects_nano() {
    sweep_points_are_selects("nano");
}
