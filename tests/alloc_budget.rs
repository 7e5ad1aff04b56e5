//! The heap allocations of one `select-cold` op, pinned stage by stage,
//! the search counts of the catalogue's selects, and the allocations of
//! one pass of the `verify-oracle` catalogue.
//!
//! The op is the paper's compile-time cost as the benchmark's
//! `select-cold` workload runs it: parse a registry kernel, select its
//! tiles (`Eatss::select_tiles`), then evaluate the selected tiles and
//! PPCG's `32^d`, with nothing cached between ops. The catalogue is the
//! workload's (restated here, since the benchmark crate is not a
//! dependency): every registry kernel × the five builtin device profiles
//! × the size menu `[1000, 2000, 4000]` on ga100 and h100, `[256, 512,
//! 1024]` on the others, at warp fraction 0.125 for fdtd-apml, b2mm,
//! conv-2d and heat-3d and 0.5 otherwise — 315 ops.
//!
//! A counting `#[global_allocator]` counts `alloc`, `alloc_zeroed` and
//! `realloc` calls into a thread-local, so the harness's other threads do
//! not count. Each stage is counted at a public seam of the op:
//!
//! * `parse` — `parse_named_program`;
//! * `analyse` — one `AnalysedProgram::new` (the op runs three: one in
//!   `select_tiles`, one per `evaluate`);
//! * `formulate` — `ModelGenerator::build` less one analysis;
//! * `maximize` — `select_tiles` less `build`: the model generator it
//!   makes, the solve and the solution's extraction;
//! * `map` — `Ppcg::map` of one of the two tilings;
//! * `simulate` — `evaluate` less one analysis and its `map`, plus the
//!   `32^d` tiling itself.
//!
//! The op's total is `parse + select_tiles + 2 · evaluate`, measured
//! directly and checked to be the sum of the stages. The counts are the
//! same in debug and release builds.
//!
//! Before the search's domains became windows into shared values and the
//! analysis and the mapping stopped copying reference groups, the same
//! count read, per op (catalogue totals over 315 ops): parse 69.4
//! (21 855), analyse 3 × 59.8 (3 × 18 825), formulate 81.2 (25 575),
//! maximize 141.5 (44 561), map 2 × 67.3 (42 375 for both) and simulate
//! 2 × 28.3 (17 805 for both): 662.4 in all (208 646). That change read
//! 321.8 (101 373), maximize 48.1 (15 153); since the warm-start hints
//! became value vectors and the model generator borrows its
//! architecture, maximize reads 44.3 (13 953); since a model holds its
//! values and no copy of the variable names, 40.5 (12 753); since
//! completed searches all return the lexicographically greatest optimum,
//! 39.8 (12 531), the op 313.5 (98 751). Since expressions, array names
//! and affine terms stopped allocating per use and the search its
//! buffers per node, per op: parse 45.0 (14 160), analyse 3 × 6.5
//! (2 055), formulate 51.2 (16 125), maximize 18.7 (5 897), map 2 × 15.2
//! (9 600 for both) and simulate 2 × 6.1 (3 855 for both): 177.1
//! (55 802), pinned below.
//!
//! A change that allocates more or less moves a pinned total; update the
//! pin with the table the failure prints, and say why in the change.
//!
//! The search counts — nodes, bound prunes, values pruned and
//! propagations, summed over the catalogue's 315 selects — repeat exactly
//! too, and are pinned beside the allocations: a change to the search
//! that should leave its tree alone must leave the first three as they
//! are. Since entailed rows sleep until backtrack, propagations read
//! 42 859 (61 014 before).

use eatss::{Eatss, EatssConfig, ModelGenerator};
use eatss_affine::analysis::AnalysedProgram;
use eatss_affine::parser::parse_named_program;
use eatss_affine::tiling::TileConfig;
use eatss_gpusim::DeviceProfile;
use eatss_integration::{oracle_catalogue, ORACLE_SEED};
use eatss_ppcg::{verify, OracleError, OracleOptions, Ppcg};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread may still allocate after its locals are gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged; counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes on this thread, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const STAGES: [&str; 6] = [
    "parse",
    "analyse",
    "formulate",
    "maximize",
    "map",
    "simulate",
];

/// How many times one op runs each stage's count: one analysis is
/// counted and three are run; `map` and `simulate` already count both
/// tilings.
const RUNS_PER_OP: [u64; 6] = [1, 3, 1, 1, 1, 1];

/// The pinned catalogue totals, stage by stage, in [`STAGES`] order (the
/// `analyse` total is one analysis per op; `map` and `simulate` sum both
/// tilings).
const PINNED: [u64; 6] = [14_160, 2_055, 16_125, 5_897, 9_600, 3_855];

/// Kernels the workload selects at an eighth of a warp.
const EIGHTH_WARP_KERNELS: [&str; 4] = ["fdtd-apml", "b2mm", "conv-2d", "heat-3d"];

fn size_menu(device: &str) -> [i64; 3] {
    match device {
        "ga100" | "h100" => [1000, 2000, 4000],
        _ => [256, 512, 1024],
    }
}

fn config_for(kernel: &str) -> EatssConfig {
    let warp_fraction = if EIGHTH_WARP_KERNELS.contains(&kernel) {
        0.125
    } else {
        0.5
    };
    EatssConfig {
        warp_fraction,
        ..EatssConfig::default()
    }
}

/// One op, counted stage by stage, plus its directly counted total.
fn one_op(eatss: &Eatss, bench: &eatss_kernels::Benchmark, n: i64) -> ([u64; 6], u64) {
    let sizes = bench.sizes_uniform(n);
    let config = config_for(bench.name);
    let arch = eatss.arch();
    let options = config.compile_options(arch);
    let mut stages = [0u64; 6];

    // The op itself, as the workload runs it.
    let (total, ()) = counted(|| {
        let program = parse_named_program(bench.name, bench.source).expect("parses");
        let solution = eatss
            .select_tiles(&program, &sizes, &config)
            .expect("selects");
        let default = TileConfig::ppcg_default(program.max_depth());
        for tiles in [&solution.tiles, &default] {
            let report = eatss
                .evaluate(&program, tiles, &sizes, &config)
                .expect("evaluates");
            assert!(
                report.valid,
                "{} n={n}: {tiles} is unexecutable",
                bench.name
            );
        }
    });

    // Its stages, at their seams.
    let (parse, program) =
        counted(|| parse_named_program(bench.name, bench.source).expect("parses"));
    let (analyse, analysed) = counted(|| AnalysedProgram::new(&program));
    let generator = ModelGenerator::new(arch, config.clone());
    let (build, model) = counted(|| generator.build(&program, Some(&sizes)).expect("builds"));
    drop(model);
    let (select, solution) = counted(|| {
        eatss
            .select_tiles(&program, &sizes, &config)
            .expect("selects")
    });
    stages[0] = parse;
    stages[1] = analyse;
    stages[2] = build - analyse;
    stages[3] = select - build;
    let (tiling, default) = counted(|| TileConfig::ppcg_default(program.max_depth()));
    stages[5] += tiling;
    for tiles in [&solution.tiles, &default] {
        let (map, mappings) =
            counted(|| Ppcg::map(arch, &analysed, tiles, &sizes, &options).expect("maps"));
        drop(mappings);
        let (evaluate, _) = counted(|| {
            eatss
                .evaluate(&program, tiles, &sizes, &config)
                .expect("evaluates")
        });
        stages[4] += map;
        stages[5] += evaluate - analyse - map;
    }
    (stages, total)
}

/// One engine per builtin device profile, by profile name.
fn engines() -> Vec<(&'static str, Eatss)> {
    DeviceProfile::builtin_names()
        .into_iter()
        .map(|name| {
            let profile = DeviceProfile::builtin(name).expect("builtin");
            (name, Eatss::new(profile.into_arch()))
        })
        .collect()
}

/// The search counts pinned for the catalogue's 315 selects, summed:
/// nodes, bound prunes, values pruned and propagations.
const PINNED_SEARCH: [u64; 4] = [4_122, 2_131, 258_886, 42_859];

#[test]
fn the_catalogue_searches_what_is_pinned() {
    let (engines, benches) = (engines(), eatss_kernels::all());
    let (mut counts, mut ops) = ([0u64; 4], 0u64);
    for bench in &benches {
        for (device, eatss) in &engines {
            for n in size_menu(device) {
                let program = parse_named_program(bench.name, bench.source).expect("parses");
                let sizes = bench.sizes_uniform(n);
                let stats = (eatss.select_tiles(&program, &sizes, &config_for(bench.name)))
                    .expect("selects")
                    .stats;
                let op = [
                    stats.nodes,
                    stats.bound_prunes,
                    stats.values_pruned,
                    stats.propagations,
                ];
                for (total, v) in counts.iter_mut().zip(op) {
                    *total += v;
                }
                ops += 1;
            }
        }
    }
    assert_eq!(ops, 315, "the catalogue");
    assert_eq!(
        counts, PINNED_SEARCH,
        "nodes, bound prunes, values pruned, propagations"
    );
}

#[test]
fn a_cold_select_allocates_what_is_pinned() {
    let (engines, benches) = (engines(), eatss_kernels::all());
    // One uncounted pass first: what a process allocates once (interned
    // histograms, lazy statics) is not an op's.
    for (device, eatss) in &engines {
        for bench in &benches {
            one_op(eatss, bench, size_menu(device)[0]);
        }
    }
    let mut per_kernel: BTreeMap<&str, [u64; 6]> = BTreeMap::new();
    let (mut totals, mut direct, mut ops) = ([0u64; 6], 0u64, 0u64);
    for bench in &benches {
        for (device, eatss) in &engines {
            for n in size_menu(device) {
                let (stages, total) = one_op(eatss, bench, n);
                let row = per_kernel.entry(bench.name).or_default();
                for s in 0..STAGES.len() {
                    row[s] += stages[s];
                    totals[s] += stages[s];
                }
                direct += total;
                ops += 1;
            }
        }
    }
    assert_eq!(ops, 315, "the catalogue");
    let summed: u64 = (totals.iter().zip(RUNS_PER_OP)).map(|(t, r)| t * r).sum();
    let mut table = format!("{:<12}", "kernel");
    for stage in STAGES {
        let _ = write!(table, "{stage:>10}");
    }
    table.push('\n');
    for (kernel, row) in &per_kernel {
        let _ = write!(table, "{kernel:<12}");
        for v in row {
            let _ = write!(table, "{v:>10}");
        }
        table.push('\n');
    }
    let _ = write!(table, "{:<12}", "total");
    for v in totals {
        let _ = write!(table, "{v:>10}");
    }
    let _ = write!(
        table,
        "\nper op: {:.1} ({direct} over {ops} ops)",
        direct as f64 / ops as f64
    );
    assert_eq!(summed, direct, "the stages sum to the op\n{table}");
    assert_eq!(totals, PINNED, "allocations per stage\n{table}");
}

/// The pinned allocations of one pass over the `verify-oracle` catalogue
/// (42 ops, six configurations each), every configuration verified alone:
/// 1 272.6 per op. While a staged box built its loop nest, index and
/// strides anew at every tile step, the same pass made 76 527 (1 822.1
/// per op).
const PINNED_VERIFY: u64 = 53_448;

/// The `verify` stage: the catalogue of the benchmark's `verify-oracle`
/// workload, each op's configurations verified one at a time. A batch of
/// several splits its configurations over the machine's cores, and a
/// thread-local count sees only the caller's share, so each configuration
/// is its own batch of one, which runs on the caller's thread on every
/// machine: map, seed and interpret the reference, seed the working
/// store, emulate and compare.
#[test]
fn a_verify_allocates_what_is_pinned() {
    let catalogue = oracle_catalogue();
    let options = OracleOptions::default();
    let op = |op: &eatss_integration::OracleOp| -> u64 {
        (op.configs.iter())
            .map(|tiles| {
                let (n, verdict) = counted(|| {
                    verify(
                        &op.program,
                        tiles,
                        &op.arch,
                        &op.sizes,
                        &options,
                        ORACLE_SEED,
                    )
                });
                assert!(
                    matches!(verdict, Ok(_) | Err(OracleError::Compile(_))),
                    "{}, tiles {tiles}: {verdict:?}",
                    op.what
                );
                n
            })
            .sum()
    };
    // One uncounted pass first, as for the select stages.
    for o in &catalogue {
        op(o);
    }
    let mut table = String::new();
    let mut total = 0;
    for o in &catalogue {
        let n = op(o);
        let _ = writeln!(table, "{:<22}{n:>8}", o.what);
        total += n;
    }
    let _ = write!(
        table,
        "total {total} over {} ops, {:.1} per op",
        catalogue.len(),
        total as f64 / catalogue.len() as f64
    );
    assert_eq!(catalogue.len(), 42, "the catalogue");
    assert_eq!(
        total, PINNED_VERIFY,
        "allocations of the verify stage\n{table}"
    );
}
