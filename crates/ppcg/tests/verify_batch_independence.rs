//! One `verify_batch` runs its configurations in turn on a working store
//! per core, seeded again between them: each verdict, report and trace
//! counter must be what `verify` of that configuration alone gives. Its own binary, because trace collection is
//! process-global. Also pins `seed_store`'s row-at-a-time fill to the
//! per-index hash it replaced.

use eatss_affine::interp::Array;
use eatss_affine::parser::parse_program;
use eatss_affine::tiling::TileConfig;
use eatss_affine::ProblemSizes;
use eatss_gpusim::GpuArch;
use eatss_ppcg::{
    seed_store, verify, verify_batch, BarrierFidelity, CompileOptions, ExecOptions, OracleError,
    OracleOptions,
};
use eatss_trace::{MetricsSnapshot, Provenance};

const SEED: u64 = 0xEA75_50AC;
const COUNTERS: [&str; 3] = ["oracle.points", "oracle.configs", "oracle.mismatches"];

/// The counters `run` leaves in a fresh trace session.
fn counted<T>(run: impl FnOnce() -> T) -> (T, MetricsSnapshot) {
    eatss_trace::start_collecting();
    let out = run();
    (out, eatss_trace::drain(Provenance::collect(None)).metrics)
}

/// Under a skipped load barrier a staged configuration computes from
/// stale shared memory and mismatches, and an unstaged one passes. With a
/// 256-byte staging budget, matmul at 9×10×7 stages under tiles of 4, 2
/// and (3, 5, 2) and not under 16, 8 and the whole domain. The batch
/// alternates them, so a configuration left to start from the last one's
/// wrong `C` would mismatch too, and repeats the first (a plan-cache hit).
#[test]
fn each_verdict_in_a_batch_is_the_verdict_alone() {
    let program = parse_program(
        "kernel mm(M, N, P) {
           for (i: M) for (j: N) for (k: P)
             C[i][j] += A[i][k] * B[k][j];
         }",
    )
    .unwrap();
    let sizes = ProblemSizes::new([("M", 9), ("N", 10), ("P", 7)]);
    let arch = GpuArch::ga100();
    let options = OracleOptions {
        compile: CompileOptions {
            shared_budget_bytes: 256,
            ..CompileOptions::default()
        },
        exec: ExecOptions {
            barrier_fidelity: BarrierFidelity::SkipLoadBarrier,
            ..ExecOptions::default()
        },
    };
    let tiles = [
        vec![4, 4, 4],
        vec![16, 16, 16],
        vec![2, 2, 2],
        vec![8, 8, 8],
        vec![3, 5, 2],
        vec![9, 10, 7],
        vec![4, 4, 4],
    ]
    .map(TileConfig::new);
    eatss_trace::set_log_level(eatss_trace::Level::Off);

    let (batch, after_batch) =
        counted(|| verify_batch(&program, &tiles, &arch, &sizes, &options, SEED));
    assert_eq!(batch.len(), tiles.len());
    let mut summed = [0u64; COUNTERS.len()];
    for (i, (config, verdict)) in tiles.iter().zip(&batch).enumerate() {
        let (alone, after_alone) =
            counted(|| verify(&program, config, &arch, &sizes, &options, SEED));
        // OracleReport has no PartialEq; its Debug form lists every field.
        assert_eq!(
            format!("{verdict:?}"),
            format!("{alone:?}"),
            "config {i} ({config})"
        );
        for (sum, counter) in summed.iter_mut().zip(COUNTERS) {
            *sum += after_alone.counter(counter);
        }
        let staged = i % 2 == 0;
        match verdict {
            Err(OracleError::Mismatch { .. }) if staged => {}
            Ok(report) if !staged => {
                assert_eq!(report.staged_elems, 0, "config {i} ({config})");
                assert_eq!(report.points, 9 * 10 * 7);
            }
            other => panic!("config {i} ({config}): {other:?}"),
        }
    }
    for (sum, counter) in summed.iter().zip(COUNTERS) {
        assert_eq!(after_batch.counter(counter), *sum, "{counter}");
    }
    assert_eq!(after_batch.counter("oracle.configs"), tiles.len() as u64);
}

/// The fill `seed_store` replaced: the name's hash, then one hash step
/// per subscript, outermost first, at every index.
fn per_index(name: &str, index: &[i64], seed: u64) -> f64 {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for b in name.bytes() {
        h = h.wrapping_mul(0x100_0000_01b3).wrapping_add(b as u64);
    }
    for &i in index {
        h = h.wrapping_mul(0x100_0000_01b3).wrapping_add(i as u64);
        h ^= h >> 29;
    }
    ((h % 7) as i64 - 3) as f64
}

/// Row by row, `seed_store` fills every array with the per-index values:
/// ranks 1 to 4, dimensions of extent 1 (a constant subscript, first and
/// last) and scalars.
#[test]
fn seeded_rows_equal_the_per_index_hash() {
    let program = parse_program(
        "kernel shapes(N, M) {
           for (i: N) for (j: M) for (k: N) for (l: N)
             W[i][j][k][l] = s + v[l] + m[i][0] + e[0][l] + t[i][k][l] + u[l][k][j][i];
         }",
    )
    .unwrap();
    let sizes = ProblemSizes::new([("N", 3), ("M", 1)]);
    for seed in [0, SEED, u64::MAX] {
        let store = seed_store(&program, &sizes, seed).unwrap();
        let mut ranks = Vec::new();
        for (name, array) in store.arrays() {
            let want = Array::from_fn(array.extents().to_vec(), |idx| per_index(name, idx, seed));
            assert_eq!(array, &want, "{name} at seed {seed:#x}");
            ranks.push(array.extents().len());
        }
        ranks.sort_unstable();
        ranks.dedup();
        assert_eq!(ranks, [1, 2, 3, 4]);
        assert_eq!(store.get("s").unwrap().extents(), [1]);
        assert_eq!(store.get("m").unwrap().extents(), [4, 1]);
        assert_eq!(store.get("e").unwrap().extents(), [1, 4]);
    }
}
