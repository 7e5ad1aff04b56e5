//! Cross-validation of the EATSS model generator against brute force:
//! on problem sizes small enough to enumerate, the solver's selection
//! must attain the true optimum of the §IV objective subject to the
//! §IV constraints.

use eatss::{EatssConfig, ModelGenerator, Precision, ThreadBlockCap};
use eatss_affine::analysis::AccessAnalysis;
use eatss_affine::parser::parse_program;
use eatss_affine::ProblemSizes;
use eatss_gpusim::{DeviceProfile, GpuArch};

/// Brute-force optimum of the matmul formulation over aligned tiles.
fn matmul_bruteforce(
    arch: &GpuArch,
    config: &EatssConfig,
    upper: &[i64; 3],
) -> Option<(i64, [i64; 3])> {
    let waf = config.warp_alignment_factor(arch);
    let elem = config.precision.elem_bytes() as i64;
    let fp = config.precision.fp_factor();
    let l1sh = arch.l1_shared_bytes as i64 / elem;
    let split = config.split_factor;
    let cap_sh = ((l1sh as f64 * split) as i64)
        .min(arch.max_shared_per_block as i64 / elem);
    let cap_l1 = (l1sh as f64 * (1.0 - split)) as i64;
    let l2 = arch.l2_bytes as i64 / elem;
    let tpb = arch.max_threads_per_block as i64;
    let mut best: Option<(i64, [i64; 3])> = None;
    let candidates = |hi: i64| (1..=hi.min(tpb)).filter(move |t| t % waf == 0);
    for ti in candidates(upper[0]) {
        for tj in candidates(upper[1]) {
            for tk in candidates(upper[2]) {
                let bsize = ti * tj;
                if config.cap == ThreadBlockCap::Strict && bsize > tpb {
                    continue;
                }
                if bsize * 3 * fp > arch.regs_per_sm as i64 {
                    continue;
                }
                let (m_l1, m_sh) = if cap_sh <= 0 {
                    (ti * tj + tk * tj + ti * tk, 0)
                } else {
                    (ti * tj + tk * tj, ti * tk)
                };
                if cap_sh > 0 && m_sh > cap_sh {
                    continue;
                }
                if m_l1 > cap_l1 {
                    continue;
                }
                if m_l1 + m_sh > l2 {
                    continue;
                }
                let obj = bsize + 2 * waf * tj;
                if best.map(|(b, _)| obj > b).unwrap_or(true) {
                    best = Some((obj, [ti, tj, tk]));
                }
            }
        }
    }
    best
}

fn matmul_program() -> eatss_affine::Program {
    parse_program(
        "kernel matmul(M, N, P) {
           for (i: M) for (j: N) for (k: P)
             Out[i][j] += In[i][k] * Ker[k][j];
         }",
    )
    .expect("static source")
}

#[test]
fn solver_matches_bruteforce_across_configs() {
    let program = matmul_program();
    // Sanity: the brute force replicates the real H-weights.
    let analysis = AccessAnalysis::analyze(&program.kernels[0]);
    assert_eq!(analysis.h_weights(16), vec![0, 32, 0]);

    for device in DeviceProfile::builtin_names() {
        let arch = DeviceProfile::builtin(device).expect("builtin").into_arch();
        for split in [0.0, 0.5, 0.67, 1.0] {
            for frac in [0.25, 0.5] {
                for cap in [ThreadBlockCap::Virtual, ThreadBlockCap::Strict] {
                    for precision in [Precision::F32, Precision::F64] {
                        let config = EatssConfig {
                            split_factor: split,
                            warp_fraction: frac,
                            cap,
                            precision,
                        };
                        if split == 1.0 {
                            // §IV-H replaces the L1 bound with the per-SM L2
                            // share; the brute force above does not model
                            // that branch — skip it here (covered by unit
                            // tests in eatss::model).
                            continue;
                        }
                        let n = 480i64;
                        let sizes =
                            ProblemSizes::new([("M", n), ("N", n), ("P", n)]);
                        let solved = ModelGenerator::new(&arch, config.clone())
                            .build(&program, Some(&sizes))
                            .expect("build succeeds")
                            .solve();
                        let brute = matmul_bruteforce(&arch, &config, &[n, n, n]);
                        match (solved, brute) {
                            (Ok(solution), Some((best_obj, _))) => {
                                assert_eq!(
                                    solution.objective, best_obj,
                                    "{device} split {split} frac {frac} cap {cap:?} \
                                     {precision:?}: solver found {} (tiles {}), \
                                     brute force {best_obj}",
                                    solution.objective, solution.tiles
                                );
                            }
                            (Err(_), None) => {} // both infeasible: consistent
                            (Ok(s), None) => panic!(
                                "{device}: solver found {} but brute force says infeasible",
                                s.tiles
                            ),
                            (Err(e), Some((obj, t))) => panic!(
                                "{device}: solver infeasible ({e}) but brute force found \
                                 {obj} at {t:?}"
                            ),
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn solver_matches_bruteforce_with_tiny_extents() {
    // Clipped upper bounds (problem smaller than T_P_B) must agree too.
    let arch = GpuArch::xavier();
    let program = matmul_program();
    for n in [16i64, 48, 96] {
        let config = EatssConfig {
            warp_fraction: 0.25,
            ..EatssConfig::default()
        };
        let sizes = ProblemSizes::new([("M", n), ("N", n), ("P", n)]);
        let solved = ModelGenerator::new(&arch, config.clone())
            .build(&program, Some(&sizes))
            .expect("build succeeds")
            .solve()
            .expect("feasible at WAF=8");
        let brute =
            matmul_bruteforce(&arch, &config, &[n, n, n]).expect("brute feasible");
        assert_eq!(solved.objective, brute.0, "n = {n}");
    }
}

/// The 32-point sweep grid: 4 splits × the §V-D warp fractions × both
/// thread-block caps.
fn sweep_grid() -> Vec<EatssConfig> {
    eatss::sweep::grid(&[0.0, 0.5, 0.67, 1.0], &eatss::sweep::PAPER_WARP_FRACTIONS)
}

#[test]
fn syrk_long_solve_is_refuted_once_not_once_per_improvement() {
    // The sweep's tail-maker: 128 improvements, and before the search went
    // one-pass every one of them re-refuted the ~130 first-variable
    // values the earlier dives had already refuted — 16 603 nodes. Counts
    // repeat exactly, so the ceiling is deterministic.
    let (program, sizes) = eatss_integration::load("syrk", eatss_kernels::Dataset::ExtraLarge);
    let config = EatssConfig {
        split_factor: 0.67,
        warp_fraction: 0.125,
        ..EatssConfig::default()
    };
    let solution = ModelGenerator::new(&GpuArch::ga100(), config)
        .build(&program, Some(&sizes))
        .expect("build succeeds")
        .solve()
        .expect("feasible");
    assert!(solution.optimal);
    assert_eq!(solution.tiles.sizes(), &[8, 1012, 4]);
    assert_eq!(solution.objective, 12_144);
    assert!(
        solution.stats.nodes <= 2_000,
        "{} nodes for {} improvements",
        solution.stats.nodes,
        solution.solver_calls - 1
    );
}

#[test]
fn no_polybench_formulation_searches_more_than_its_domains_hold() {
    // A search that refutes each subtree once is linear in what it
    // branches over: across the whole sweep grid, on every builtin device
    // at the dataset the paper pairs it with, no formulation may take more
    // than `K × Σ|D_i|` nodes, `D_i` being tile variable i's declared
    // domain — `build` declares each variable over its warp-aligned
    // candidates, so the domain's length is the count. Measured maximum
    // over the 2 720 formulations: 0.496 (syr2k on xavier, split 0, warp
    // fraction 0.125, Virtual — 381 nodes against 768 candidates); the
    // re-diving search took 23 362 there, thirty times the domains. K
    // leaves half as much again.
    const K: f64 = 0.75;
    let mut worst = (0.0, String::new());
    for device in DeviceProfile::builtin_names() {
        let arch = DeviceProfile::builtin(device).expect("builtin").into_arch();
        let dataset = match device {
            "ga100" | "h100" => eatss_kernels::Dataset::ExtraLarge,
            _ => eatss_kernels::Dataset::Standard,
        };
        for bench in eatss_kernels::polybench() {
            let program = bench.program().expect("parses");
            let sizes = bench.sizes(dataset);
            for config in sweep_grid() {
                let generator = ModelGenerator::new(&arch, config.clone());
                let build = || generator.build(&program, Some(&sizes)).expect("build succeeds");
                let Ok(solution) = build().solve() else {
                    continue; // proved infeasible: nothing was climbed
                };
                let (solver, _) = build().into_parts();
                let mut vars = Vec::new();
                for c in solver.assertions() {
                    c.collect_vars(&mut vars);
                }
                let candidates: usize = vars
                    .iter()
                    .map(|&v| solver.domain_of(v).expect("own variable").len())
                    .sum();
                let ratio = solution.stats.nodes as f64 / candidates as f64;
                if ratio > worst.0 {
                    worst = (
                        ratio,
                        format!(
                            "{} on {device}, split {} warp fraction {} {:?}: {} nodes, Σ|D_i| = {candidates}",
                            bench.name, config.split_factor, config.warp_fraction, config.cap,
                            solution.stats.nodes
                        ),
                    );
                }
            }
        }
    }
    assert!(worst.0 <= K, "{} (ratio {:.3} > {K})", worst.1, worst.0);
}
