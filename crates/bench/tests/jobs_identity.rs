//! The parallel oracle sweep is deterministic: `--jobs N` must produce a
//! report byte-identical to the sequential run — same per-benchmark
//! seeds, same config/point/failure counts, same text. Random samples
//! come from per-benchmark seeded RNGs, so worker scheduling cannot
//! reorder or reseed anything observable.

use eatss_bench::oracle::{bench_seed, run_oracle_sweep, OracleSweepOptions};

#[test]
fn parallel_sweep_is_byte_identical_to_sequential() {
    let base = OracleSweepOptions {
        space_cap: 5,
        time_cap: 2,
        random: 1,
        jobs: 1,
        ..OracleSweepOptions::default()
    };
    let sequential = run_oracle_sweep(&base);
    assert_eq!(sequential.failures, 0, "sequential sweep must be clean");
    assert!(sequential.configs > 0 && sequential.points > 0);
    for jobs in [2, 4] {
        let parallel = run_oracle_sweep(&OracleSweepOptions {
            jobs,
            ..base.clone()
        });
        assert_eq!(
            sequential.report, parallel.report,
            "jobs={jobs}: report differs from the sequential run"
        );
        assert_eq!(sequential.configs, parallel.configs, "jobs={jobs}");
        assert_eq!(sequential.points, parallel.points, "jobs={jobs}");
        assert_eq!(sequential.failures, parallel.failures, "jobs={jobs}");
    }
}

#[test]
fn bench_seed_is_pinned_to_fnv1a() {
    // The per-benchmark sample seeds decide which random tilings the
    // sweep draws, and so the bytes of `results/oracle_sweep.txt`.
    assert_eq!(bench_seed(0xEA75_50AC, "gemm"), 0x0f59_64e5_ed3f_7f07);
}
