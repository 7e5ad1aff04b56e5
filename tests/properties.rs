//! Property-based integration tests (proptest) over the whole stack.

use eatss_affine::parser::parse_program;
use eatss_affine::tiling::{TileConfig, TiledNest};
use eatss_affine::ProblemSizes;
use eatss_gpusim::{occupancy, traffic, CacheSim, GpuArch, KernelExecSpec, RefAccess};
use eatss_ppcg::{CompileOptions, GpuMapping};
use eatss_smt::{Solver, SolverConfig};
use proptest::prelude::*;

proptest! {
    /// Tiling never loses or duplicates iteration points, for arbitrary
    /// sizes and tile shapes.
    #[test]
    fn tiling_preserves_iteration_space(
        m in 1i64..12, n in 1i64..12, p in 1i64..12,
        ti in 1i64..15, tj in 1i64..15, tk in 1i64..15,
    ) {
        let program = parse_program(
            "kernel mm(M, N, P) {
               for (i: M) for (j: N) for (k: P)
                 C[i][j] += A[i][k] * B[k][j];
             }",
        ).expect("static source");
        let sizes = ProblemSizes::new([("M", m), ("N", n), ("P", p)]);
        let nest = TiledNest::new(&program.kernels[0], &TileConfig::new(vec![ti, tj, tk]))
            .expect("positive tiles");
        let mut pts = nest.enumerate_points(&sizes).expect("bound sizes");
        prop_assert_eq!(pts.len() as i64, m * n * p);
        pts.sort();
        pts.dedup();
        prop_assert_eq!(pts.len() as i64, m * n * p);
    }

    /// The solver's maximize returns a model satisfying every asserted
    /// constraint, and no strictly better feasible value exists among a
    /// random sample of assignments.
    #[test]
    fn solver_models_satisfy_constraints(
        hi_x in 4i64..40, hi_y in 4i64..40,
        cap in 20i64..800, modulus in 2i64..6,
    ) {
        let mut s = Solver::new();
        let x = s.int_var("x", 1, hi_x);
        let y = s.int_var("y", 1, hi_y);
        s.assert((x.clone() * y.clone()).le(cap));
        s.assert(x.modulo(modulus).eq_expr(0));
        let obj = x.clone() * y.clone() + y.clone();
        let out = s.maximize(&obj).expect("no solver error");
        if let Some(model) = out.model {
            let xv = model.value_of_name("x").expect("x bound");
            let yv = model.value_of_name("y").expect("y bound");
            prop_assert!(xv * yv <= cap);
            prop_assert_eq!(xv % modulus, 0);
            let claimed = out.best.expect("sat implies value");
            prop_assert_eq!(claimed, xv * yv + yv);
            // Exhaustive cross-check (domains are small).
            let mut best = i64::MIN;
            for cx in 1..=hi_x {
                for cy in 1..=hi_y {
                    if cx * cy <= cap && cx % modulus == 0 {
                        best = best.max(cx * cy + cy);
                    }
                }
            }
            prop_assert_eq!(claimed, best);
        } else {
            // Unsat: verify no feasible assignment exists.
            for cx in 1..=hi_x {
                for cy in 1..=hi_y {
                    prop_assert!(!(cx * cy <= cap && cx % modulus == 0));
                }
            }
        }
    }

    /// Anytime soundness: under an arbitrary (often binding) node budget,
    /// any model `maximize` returns satisfies every asserted constraint,
    /// budget exhaustion is always reported (`complete == false` with a
    /// stop reason), and a *completed* search is still a true optimum.
    #[test]
    fn anytime_maximize_is_sound_under_tiny_budgets(
        node_limit in 1u64..300,
        hi_x in 8i64..48, hi_y in 8i64..48,
        cap in 30i64..600,
    ) {
        let mut s = Solver::with_config(SolverConfig {
            node_limit,
            ..SolverConfig::default()
        });
        let x = s.int_var("x", 1, hi_x);
        let y = s.int_var("y", 1, hi_y);
        s.assert((x.clone() * y.clone()).le(cap));
        s.assert(x.modulo(2).eq_expr(0));
        let obj = x.clone() * y.clone() + y.clone();
        let out = s.maximize(&obj).expect("no solver error");
        // A budget stop and `complete` are two views of the same fact.
        prop_assert_eq!(out.complete, out.stop.is_none());
        // Feasibility of whatever came back, complete or not.
        if let Some(model) = &out.model {
            let xv = model.value_of_name("x").expect("x bound");
            let yv = model.value_of_name("y").expect("y bound");
            prop_assert!((1..=hi_x).contains(&xv) && (1..=hi_y).contains(&yv));
            prop_assert!(xv * yv <= cap);
            prop_assert_eq!(xv % 2, 0);
            prop_assert_eq!(out.best.expect("model implies value"), xv * yv + yv);
        }
        // x=2, y=1 is always feasible here, so a one-node budget cannot
        // finish assigning two free variables: the budget must bind.
        if node_limit == 1 {
            prop_assert!(!out.complete);
            prop_assert!(out.stop.is_some());
        }
        // A completed search is exact: cross-check exhaustively.
        if out.complete {
            let mut best = None;
            for cx in 1..=hi_x {
                for cy in 1..=hi_y {
                    if cx * cy <= cap && cx % 2 == 0 {
                        best = best.max(Some(cx * cy + cy));
                    }
                }
            }
            prop_assert_eq!(out.best, best);
        }
    }

    /// Cache simulator invariants: counters are consistent and misses are
    /// bounded by compulsory-below, accesses-above.
    #[test]
    fn cache_sim_invariants(addrs in prop::collection::vec(0u64..4096, 1..300)) {
        let mut sim = CacheSim::new(1024, 64, 4);
        for &a in &addrs {
            sim.access(a);
        }
        let st = sim.stats();
        prop_assert_eq!(st.accesses, addrs.len() as u64);
        prop_assert_eq!(st.hits + st.misses, st.accesses);
        let mut lines: Vec<u64> = addrs.iter().map(|a| a / 64).collect();
        lines.sort_unstable();
        lines.dedup();
        prop_assert!(st.misses >= lines.len() as u64, "at least compulsory");
        prop_assert!(st.misses <= addrs.len() as u64);
        prop_assert!(sim.resident_lines() <= 16);
    }

    /// LRU stack property: a larger fully-associative LRU cache never
    /// misses more than a smaller one on the same trace.
    #[test]
    fn lru_inclusion_property(addrs in prop::collection::vec(0u64..8192, 1..300)) {
        let mut small = CacheSim::fully_associative(512, 64);
        let mut large = CacheSim::fully_associative(2048, 64);
        let mut small_misses = 0;
        let mut large_misses = 0;
        for &a in &addrs {
            if small.access(a) == eatss_gpusim::AccessOutcome::Miss {
                small_misses += 1;
            }
            if large.access(a) == eatss_gpusim::AccessOutcome::Miss {
                large_misses += 1;
            }
        }
        prop_assert!(large_misses <= small_misses);
    }

    /// Occupancy is always within hardware limits, and the launch either
    /// fits or is reported unexecutable — never silently oversubscribed.
    #[test]
    fn occupancy_within_limits(
        tpb in 1i64..2048,
        grid in 1i64..100_000,
        shared in 0u32..200_000,
        refs in 1u32..10,
    ) {
        let arch = GpuArch::ga100();
        let spec = KernelExecSpec {
            name: "prop".into(),
            grid_blocks: grid,
            grid_x_blocks: grid,
            threads_per_block: tpb,
            points_per_thread: 1,
            serial_steps_per_block: 1,
            flops_total: 1e6,
            elem_bytes: 8,
            shared_bytes_per_block: shared,
            l1_avail_bytes: 96 * 1024,
            num_refs: refs,
            refs: vec![RefAccess::streaming("a", 1_000_000, 1024, true)],
        };
        let occ = occupancy::occupancy(&arch, &spec);
        prop_assert!(occ.blocks_per_sm <= arch.max_blocks_per_sm);
        prop_assert!(occ.occupancy >= 0.0 && occ.occupancy <= 1.0);
        if occ.blocks_per_sm > 0 {
            prop_assert!(
                occ.blocks_per_sm as i64 * tpb <= arch.max_threads_per_sm as i64
            );
            prop_assert!(occ.tail_efficiency > 0.0 && occ.tail_efficiency <= 1.0);
            // Traffic and sector counts are finite and non-negative.
            let t = traffic::model(&arch, &spec, &occ);
            prop_assert!(t.l2_sectors_read.is_finite() && t.l2_sectors_read >= 0.0);
            prop_assert!(t.dram_bytes.is_finite() && t.dram_bytes >= 0.0);
        }
    }

    /// GPU mapping invariants for matmul under arbitrary tile shapes:
    /// threads within caps, grid covers the iteration space, per-block
    /// access counts at least cover the block's own points.
    #[test]
    fn mapping_invariants_matmul(
        ti in 1i64..600, tj in 1i64..600, tk in 1i64..600,
        n in 32i64..512,
    ) {
        let program = parse_program(
            "kernel mm(M, N, P) {
               for (i: M) for (j: N) for (k: P)
                 C[i][j] += A[i][k] * B[k][j];
             }",
        ).expect("static source");
        let arch = GpuArch::ga100();
        let sizes = ProblemSizes::new([("M", n), ("N", n), ("P", n)]);
        let mapping = GpuMapping::compute(
            &program.kernels[0],
            &TileConfig::new(vec![ti, tj, tk]),
            &arch,
            &sizes,
            &CompileOptions::default(),
        ).expect("mappable");
        let spec = mapping.to_exec_spec();
        prop_assert!(spec.threads_per_block >= 1);
        prop_assert!(spec.threads_per_block <= arch.max_threads_per_block as i64);
        // Grid × tile covers the parallel dims.
        for (pos, &d) in mapping.mapped_dims.iter().enumerate() {
            let tile = mapping.tiles.sizes()[d];
            prop_assert!(mapping.grid_extents[pos] * tile >= n);
            prop_assert!((mapping.grid_extents[pos] - 1) * tile < n);
        }
        // Threads × points ≥ tile points.
        let tile_points: i64 = mapping
            .mapped_dims
            .iter()
            .map(|&d| mapping.tiles.sizes()[d].min(n))
            .product();
        prop_assert!(spec.threads_per_block * spec.points_per_thread >= tile_points);
    }
}

// ---------------------------------------------------------------------------
// Randomized whole-pipeline fuzzing: generate structurally valid affine
// programs, then require that every stage either succeeds with sane
// output or fails with a clean error — never panics, never produces
// non-finite measurements.

/// Strategy: a random kernel of depth 1..=4 with 1..=3 read refs whose
/// subscripts use random iterator subsets with small offsets.
fn arb_kernel_source() -> impl Strategy<Value = String> {
    (
        2usize..=4,                                  // depth
        1usize..=3,                                  // number of reads
        prop::collection::vec(0usize..4, 12),        // dim picks
        prop::collection::vec(-1i64..=1, 12),        // offsets
        prop::bool::ANY,                             // accumulation
    )
        .prop_map(|(depth, nreads, dims, offsets, accum)| {
            let iters = ["i", "j", "k", "l"];
            let params = ["N0", "N1", "N2", "N3"];
            let mut src = String::from("kernel fuzz(");
            src.push_str(&params[..depth].join(", "));
            src.push_str(") {\n");
            for d in 0..depth {
                src.push_str(&format!("  for ({}: {})\n", iters[d], params[d]));
            }
            // Write ref: uses the first min(2, depth) iterators directly
            // (guaranteed mappable: zero-distance self-deps only).
            let wdims = depth.min(2);
            let mut write = String::from("W");
            for item in iters.iter().take(wdims) {
                write.push_str(&format!("[{item}]"));
            }
            let mut rhs: Vec<String> = Vec::new();
            for r in 0..nreads {
                let ndims = 1 + (dims[r] % depth.clamp(1, 2));
                let mut rf = format!("R{r}");
                for (pos, item) in iters.iter().enumerate().take(ndims.min(depth)) {
                    let off = offsets[(r * 4 + pos) % offsets.len()];
                    let off_txt = match off.cmp(&0) {
                        std::cmp::Ordering::Greater => format!("+{off}"),
                        std::cmp::Ordering::Less => off.to_string(),
                        std::cmp::Ordering::Equal => String::new(),
                    };
                    rf.push_str(&format!("[{}{off_txt}]", item));
                }
                rhs.push(rf);
            }
            let op = if accum { "+=" } else { "=" };
            src.push_str(&format!("    {write} {op} {};\n}}\n", rhs.join(" * ")));
            src
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The whole front end round-trips and never panics on generated
    /// programs.
    #[test]
    fn fuzz_frontend_roundtrip(src in arb_kernel_source()) {
        let program = parse_program(&src)
            .unwrap_or_else(|e| panic!("generated source must parse: {e}\n{src}"));
        let printed = eatss_affine::pretty::pretty_program(&program);
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|e| panic!("printed source must parse: {e}\n{printed}"));
        prop_assert_eq!(&reparsed, &program);
        // Analyses never panic and stay structurally consistent.
        for kernel in &program.kernels {
            let analysis = eatss_affine::analysis::AccessAnalysis::analyze(kernel);
            prop_assert_eq!(analysis.parallel.len(), kernel.depth());
            prop_assert!(analysis.distinct_line_refs() >= 1);
            let h = analysis.h_weights(16);
            prop_assert_eq!(h.len(), kernel.depth());
        }
    }

    /// The full pipeline on generated programs: either a clean error or a
    /// finite, positive measurement.
    #[test]
    fn fuzz_pipeline_is_total(src in arb_kernel_source(), n in 32i64..200) {
        let program = parse_program(&src).expect("generated source parses");
        let sizes = ProblemSizes::new(
            ["N0", "N1", "N2", "N3"].into_iter().map(|p| (p, n)),
        );
        let arch = GpuArch::ga100();
        let eatss = eatss::Eatss::new(arch);
        let config = eatss::EatssConfig {
            warp_fraction: 0.25,
            ..eatss::EatssConfig::default()
        };
        match eatss.select_tiles(&program, &sizes, &config) {
            Ok(solution) => {
                for &t in solution.tiles.sizes() {
                    prop_assert!((1..=1024).contains(&t));
                }
                let report = eatss
                    .evaluate(&program, &solution.tiles, &sizes, &config)
                    .expect("selected tiles compile");
                if report.valid {
                    prop_assert!(report.time_s.is_finite() && report.time_s > 0.0);
                    prop_assert!(report.avg_power_w.is_finite() && report.avg_power_w > 0.0);
                    prop_assert!(report.energy_j.is_finite() && report.energy_j > 0.0);
                }
            }
            Err(eatss::EatssError::Unsatisfiable { .. }) => {} // clean outcome
            Err(other) => return Err(TestCaseError::fail(format!("unexpected error: {other}"))),
        }
    }
}
