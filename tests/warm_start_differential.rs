//! Warm- vs cold-solve differential tests across the full PolyBench
//! suite: a [`WarmStart`] floor may only remove provably-suboptimal
//! search work, so warm solves must return the *same* verdicts and optima
//! as cold solves on every formulation — including infeasible ones, and
//! including hint sets polluted with models from foreign benchmarks — and
//! on these full-objective formulations the same tiles too. Tiles are
//! *not* promised in general: the last two tests are formulations whose
//! optimum is tied among the objective's own variables, where warm and
//! cold each return a different, equally optimal tiling.

use eatss::{Ablation, EatssConfig, EatssError, ModelGenerator};
use eatss_gpusim::GpuArch;
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

fn solve(
    arch: &GpuArch,
    program: &eatss_affine::Program,
    sizes: &eatss_affine::ProblemSizes,
    warm: Option<&mut WarmStart>,
) -> Verdict {
    let model = ModelGenerator::new(arch, EatssConfig::default())
        .build(program, Some(sizes))
        .expect("formulation builds");
    let result = match warm {
        Some(warm) => model.solve_warm(warm),
        None => model.solve(),
    };
    match result {
        Ok(s) => Verdict::Solved {
            tiles: s.tiles.sizes().to_vec(),
            objective: s.objective,
            optimal: s.optimal,
        },
        Err(EatssError::Unsatisfiable { reason }) => Verdict::Infeasible(reason),
        Err(e) => panic!("unexpected solve error: {e}"),
    }
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
        assert_eq!(seeded, cold, "{}: self-seeded warm differs from cold", b.name);

        // Feed the cross-benchmark hint pool for the second pass.
        let _ = solve(&arch, &program, &sizes, Some(&mut shared));
        cold_verdicts.push((b.name, program, sizes, cold));
    }

    // Second pass: every benchmark re-solved against hints from the whole
    // suite (bounded to the most recent observations by WarmStart's ring).
    for (name, program, sizes, cold) in &cold_verdicts {
        let mut polluted = shared.clone();
        let warm = solve(&arch, program, sizes, Some(&mut polluted));
        assert_eq!(&warm, cold, "{name}: cross-benchmark hints changed the verdict");
    }
}

/// What warm starting does *not* preserve. With the spatial term ablated
/// mttkrp's objective is `Π T` alone and many tilings attain its maximum;
/// a cold solve and a solve seeded with that solve's own optimum each
/// meet a different one first. Verdict, objective value and optimality
/// hold; the tiles need not, so they are not compared.
#[test]
fn tied_optimum_keeps_its_value_warm_but_not_its_tiles() {
    let b = eatss_kernels::by_name("mttkrp").expect("registered");
    let program = b.program().expect("benchmark parses");
    let sizes = b.sizes(Dataset::ExtraLarge);
    let generator = ModelGenerator::new(
        &GpuArch::ga100(),
        EatssConfig {
            warp_fraction: 0.125,
            ..EatssConfig::default()
        },
    )
    .with_ablation(Ablation {
        no_spatial_term: true,
        ..Ablation::default()
    });
    let build = || generator.build(&program, Some(&sizes)).expect("formulation builds");

    let cold = build().solve().expect("feasible");
    assert!(cold.optimal);
    assert!(
        build().has_other_optimum(&cold).expect("unbudgeted"),
        "the case needs a tie: some other tiling must attain {}",
        cold.objective
    );

    let mut own = WarmStart::new();
    let first = build().solve_warm(&mut own).expect("feasible");
    assert_eq!(first.tiles.sizes(), cold.tiles.sizes(), "no hints yet: a cold solve");
    let seeded = build().solve_warm(&mut own).expect("feasible");
    assert_eq!(seeded.objective, cold.objective);
    assert!(seeded.optimal);
    assert_eq!(seeded.stats.warm_seeds, 1);

    // Both tilings are feasible under the formulation: every hint is
    // re-validated against all of its constraints before it may seed a
    // floor, and a third solve accepts each tiling it was handed (one if
    // the seeded solve happened to return the cold tiles again).
    let handed = own.len() as u64;
    let third = build().solve_warm(&mut own).expect("feasible");
    assert_eq!(third.stats.warm_cut_hits, handed);
    assert_eq!(third.objective, cold.objective);
}

/// The same limit on a full-objective formulation, reached the way a
/// sweep reaches it: Xavier gemm at n = 128, warp fraction 0.5, the
/// virtual cap, solved along its warm chain (splits 0.67, 0.5, then 0).
/// The split-0 point keeps the cold objective value, and both tilings are
/// feasible; the tiles are not compared.
#[test]
fn sweep_chain_keeps_the_cold_value_at_a_tied_split_zero_point() {
    let b = eatss_kernels::by_name("gemm").expect("registered");
    let program = b.program().expect("benchmark parses");
    let sizes = b.sizes_uniform(128);
    let xavier = eatss_gpusim::DeviceProfile::builtin("xavier")
        .expect("builtin")
        .into_arch();
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
    let mut own = WarmStart::new();
    let cold = build(0.0).solve_warm(&mut own).expect("feasible");
    assert_eq!(warm.objective, cold.objective);
    assert!(warm.optimal && cold.optimal);

    // Every model the chain holds, the warm tiling among them, and the
    // cold tiling re-validate against all of split 0's constraints.
    let handed = chain.len() as u64;
    assert_eq!(build(0.0).solve_warm(&mut chain).unwrap().stats.warm_cut_hits, handed);
    assert_eq!(build(0.0).solve_warm(&mut own).unwrap().stats.warm_cut_hits, 1);
}
