//! `verify` is `verify_batch` over one configuration: both entry points
//! must hand back the same verdict and move the same trace counters.
//! One test in its own binary, because trace collection is process-global.

use eatss_affine::parser::parse_program;
use eatss_affine::tiling::TileConfig;
use eatss_affine::ProblemSizes;
use eatss_gpusim::GpuArch;
use eatss_ppcg::{verify, verify_batch, BarrierFidelity, ExecOptions, OracleError, OracleOptions};
use eatss_trace::Provenance;

const SEED: u64 = 0xEA75_50AC;

#[test]
fn verify_of_one_equals_batch_of_one() {
    let program = parse_program(
        "kernel mm(M, N, P) {
           for (i: M) for (j: N) for (k: P)
             C[i][j] += A[i][k] * B[k][j];
         }",
    )
    .unwrap();
    let sizes = ProblemSizes::new([("M", 9), ("N", 10), ("P", 7)]);
    let arch = GpuArch::ga100();
    let tiles = TileConfig::new(vec![4, 4, 4]);
    let faithful = OracleOptions::default();
    // Skipping the load barrier is a wrong execution of a staged kernel.
    let skip = OracleOptions {
        exec: ExecOptions {
            barrier_fidelity: BarrierFidelity::SkipLoadBarrier,
            ..ExecOptions::default()
        },
        ..OracleOptions::default()
    };
    eatss_trace::set_log_level(eatss_trace::Level::Off);

    for options in [&faithful, &skip] {
        eatss_trace::start_collecting();
        let single = verify(&program, &tiles, &arch, &sizes, options, SEED);
        let after_single = eatss_trace::drain(Provenance::collect(None)).metrics;
        eatss_trace::start_collecting();
        let mut batch = verify_batch(
            &program,
            std::slice::from_ref(&tiles),
            &arch,
            &sizes,
            options,
            SEED,
        );
        let after_batch = eatss_trace::drain(Provenance::collect(None)).metrics;

        assert_eq!(batch.len(), 1);
        let batch = batch.pop().unwrap();
        // OracleReport has no PartialEq; its Debug form lists every field.
        assert_eq!(format!("{single:?}"), format!("{batch:?}"));
        for counter in ["oracle.points", "oracle.configs", "oracle.mismatches"] {
            assert_eq!(
                after_single.counter(counter),
                after_batch.counter(counter),
                "{counter}"
            );
        }
        assert_eq!(after_single.counter("oracle.configs"), 1);
        assert_eq!(after_single.counter("oracle.points"), 9 * 10 * 7);
    }

    let report = verify(&program, &tiles, &arch, &sizes, &faithful, SEED).unwrap();
    assert_eq!(report.points, 9 * 10 * 7);
    match verify(&program, &tiles, &arch, &sizes, &skip, SEED) {
        Err(OracleError::Mismatch {
            tiles: label,
            mismatches,
            total,
        }) => {
            assert_eq!(label, tiles.to_string());
            assert!(
                total > mismatches.len(),
                "the kept list is a prefix of {total}"
            );
            assert_eq!(mismatches.len(), 8);
        }
        other => panic!("a barrier-less execution must be flagged, got {other:?}"),
    }
}
