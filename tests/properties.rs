//! Property-based integration tests (proptest) over the whole stack.

use eatss::cache::encode_key;
use eatss::{EatssConfig, TileCache};
use eatss_affine::ir::Extent;
use eatss_affine::parser::parse_program;
use eatss_affine::tiling::TileConfig;
use eatss_affine::{ProblemSizes, Program};
use eatss_gpusim::{occupancy, traffic, GpuArch, KernelExecSpec, RefAccess};
use eatss_ppcg::{CompileOptions, GpuMapping};
use eatss_smt::{Solver, SolverConfig};
use proptest::prelude::*;

proptest! {
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

// ---------------------------------------------------------------------------
// Metamorphic properties of the structural cache key: what may not change
// a selection may not change the key, and what can change a selection
// must.

/// `program` and `sizes` with every array, iterator and parameter given a
/// fresh name whose length differs from the original's (and from its
/// neighbours').
fn renamed(program: &Program, sizes: &ProblemSizes) -> (Program, ProblemSizes) {
    fn fresh(table: &mut Vec<(String, String)>, prefix: &str, old: &str) -> String {
        if let Some((_, new)) = table.iter().find(|(o, _)| o == old) {
            return new.clone();
        }
        let new = format!(
            "{prefix}{}{}",
            "_".repeat(old.len() + table.len()),
            table.len()
        );
        table.push((old.to_owned(), new.clone()));
        new
    }
    let (mut arrays, mut params) = (Vec::new(), Vec::new());
    let mut program = program.clone();
    for kernel in &mut program.kernels {
        for (d, dim) in kernel.dims.iter_mut().enumerate() {
            dim.name = format!("it{}{d}", "x".repeat(d + dim.name.len()));
            if let Extent::Param(p) = &mut dim.extent {
                *p = fresh(&mut params, "P", p);
            }
        }
        for stmt in &mut kernel.stmts {
            for r in std::iter::once(&mut stmt.write).chain(&mut stmt.reads) {
                r.array = fresh(&mut arrays, "arr", &r.array);
            }
        }
    }
    let sizes = ProblemSizes::new(
        params
            .iter()
            .map(|(old, new)| (new.as_str(), sizes.get(old).expect("bound parameter"))),
    );
    (program, sizes)
}

#[test]
fn renaming_leaves_the_key_and_the_selection_unchanged() {
    let arch = GpuArch::ga100();
    let config = EatssConfig::default();
    let eatss = eatss::Eatss::new(arch.clone());
    for bench in eatss_kernels::polybench() {
        let program = bench.program().expect("registry parses");
        let sizes = bench.sizes(eatss_kernels::Dataset::Standard);
        let (program2, sizes2) = renamed(&program, &sizes);
        assert_ne!(program2, program, "{}: the renaming renames", bench.name);
        assert_eq!(
            encode_key(&arch, &program2, &sizes2, &config),
            encode_key(&arch, &program, &sizes, &config),
            "{}",
            bench.name
        );
        let tiles = |p, s| eatss.select_tiles(p, s, &config).ok().map(|s| s.tiles);
        assert_eq!(
            tiles(&program2, &sizes2),
            tiles(&program, &sizes),
            "{}",
            bench.name
        );
    }
}

/// Four 2-D kernels of identical shape and name lengths that differ only
/// in which reads share an array. Line sharing changes the reference
/// count, hence the register constraint, hence the optimum — so each
/// needs its own key — while renaming an array (`Out10`) changes nothing.
#[test]
fn array_identity_is_part_of_the_key() {
    let kernel = |out: &str, reads: [&str; 4]| {
        parse_program(&format!(
            "kernel k(N) {{ for (i: N) for (j: N)
               {out}[i][j] = {}[i][j] + {}[i][j+1] + {}[i][j+2] + {}[i][j+3]; }}",
            reads[0], reads[1], reads[2], reads[3]
        ))
        .expect("static source")
    };
    let variants = [
        (kernel("B", ["A", "A", "A", "A"]), [384, 16]),
        (kernel("B", ["A", "C", "D", "E"]), [144, 16]),
        (kernel("B", ["A", "C", "C", "E"]), [192, 16]),
        (kernel("B", ["A", "C", "D", "D"]), [192, 16]),
    ];
    let arch = GpuArch::ga100();
    let sizes = ProblemSizes::new([("N", 4000)]);
    let config = EatssConfig::default();
    let mut cache = TileCache::new(arch.clone());
    let mut keys = Vec::new();
    for (program, optimum) in &variants {
        let tiles = cache
            .select(program, &sizes, &config)
            .expect("satisfiable")
            .tiles
            .clone();
        assert_eq!(tiles.sizes(), optimum);
        keys.push(encode_key(&arch, program, &sizes, &config));
    }
    for (i, a) in keys.iter().enumerate() {
        for b in &keys[i + 1..] {
            assert_ne!(
                a, b,
                "variants that select differently must not share a key"
            );
        }
    }
    let renamed = kernel("Out10", ["A", "C", "D", "E"]);
    assert_eq!(encode_key(&arch, &renamed, &sizes, &config), keys[1]);
    let tiles = cache
        .select(&renamed, &sizes, &config)
        .expect("satisfiable")
        .tiles
        .clone();
    assert_eq!(tiles.sizes(), variants[1].1);
    let stats = cache.stats();
    assert_eq!(
        (stats.misses, stats.hits),
        (4, 1),
        "four misses, then the rename hits"
    );
}

#[test]
fn pretty_then_parse_leaves_the_key_unchanged() {
    let arch = GpuArch::ga100();
    let config = EatssConfig::default();
    for bench in eatss_kernels::all() {
        let program = bench.program().expect("registry parses");
        let sizes = bench.sizes(eatss_kernels::Dataset::Standard);
        let printed = eatss_affine::pretty::pretty_program(&program);
        let reparsed = parse_program(&printed).expect("printed source parses");
        assert_eq!(
            encode_key(&arch, &reparsed, &sizes, &config),
            encode_key(&arch, &program, &sizes, &config),
            "{}",
            bench.name
        );
    }
}
