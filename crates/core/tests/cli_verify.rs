//! End-to-end tests of the `eatss --verify` CLI path: the oracle-backed
//! verification must run, report bitwise agreement, and fail loudly on a
//! bad configuration request.

use std::process::Command;

fn eatss() -> Command {
    Command::new(env!("CARGO_BIN_EXE_eatss"))
}

#[test]
fn verify_flag_checks_eatss_and_default_tiles() {
    let out = eatss()
        .args(["gemm", "--verify", "--log-level", "off"])
        .output()
        .expect("spawn eatss");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "--verify failed:\nstdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("verify EATSS"), "{stdout}");
    assert!(stdout.contains("verify 32^d"), "{stdout}");
    assert_eq!(stdout.matches("OK —").count(), 2, "{stdout}");
    assert!(stdout.contains("bitwise-equal"), "{stdout}");
}

#[test]
fn traced_verify_is_one_oracle_batch_of_two() {
    // EATSS tiles and the 32^d default go through the oracle as one
    // batch, so the reference interpretation runs once.
    let trace = std::env::temp_dir().join(format!("eatss-cli-verify-{}.json", std::process::id()));
    let out = eatss()
        .args(["gemm", "--verify", "--log-level", "off", "--trace"])
        .arg(&trace)
        .output()
        .expect("spawn eatss");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert_eq!(stdout.matches("OK —").count(), 2, "{stdout}");
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let _ = std::fs::remove_file(&trace);
    // The Chrome document holds one complete ("X") event per line.
    let spans: Vec<&str> = text
        .lines()
        .filter(|l| l.contains(r#""name":"verify","cat":"oracle","ph":"X""#))
        .collect();
    assert_eq!(spans.len(), 1, "{spans:?}");
    assert!(spans[0].contains(r#""configs":2"#), "{}", spans[0]);
}

#[test]
fn verify_seed_is_reported_for_reproducibility() {
    // Decimal, or hex the way the usage text prints the default.
    for (given, seed) in [("1234", 1234u64), ("0xEA7550AC", 0xEA75_50AC)] {
        let out = eatss()
            .args(["gemm", "--verify", "--verify-seed", given, "--log-level", "off"])
            .output()
            .expect("spawn eatss");
        assert!(out.status.success(), "{given}: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(&format!("seed {seed})")), "{given}: {stdout}");
    }
}

#[test]
fn verify_works_on_a_time_loop_benchmark() {
    // jacobi-2d has an explicit-serial time dim: the oracle must emulate
    // per-step launches and still agree with the interpreter.
    let out = eatss()
        .args(["jacobi-2d", "--verify", "--log-level", "off"])
        .output()
        .expect("spawn eatss");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(stdout.matches("OK —").count(), 2, "{stdout}");
}

/// `--emit-smt` prints the formulation that is solved: each tile variable
/// ranges over its warp-aligned candidates (hull plus congruence), and the
/// paper's §IV-B alignment constraint is still asserted beside them. The
/// CUDA text stays reachable through `--emit-cuda`.
#[test]
fn emit_smt_prints_the_aligned_domain_and_the_alignment_assertion() {
    let out = eatss()
        .args(["gemm", "--emit-smt", "--emit-cuda", "--log-level", "off"])
        .output()
        .expect("spawn eatss");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    for line in [
        "(assert (and (>= T0 16) (<= T0 1024)))",
        "(assert (= (mod (- T0 16) 16) 0))",
        "(assert (= (mod T0 16) 0))",
        "(maximize ",
        "__global__",
    ] {
        assert!(stdout.contains(line), "missing `{line}` in:\n{stdout}");
    }
}

#[test]
fn bad_verify_seed_is_rejected() {
    let out = eatss()
        .args(["gemm", "--verify-seed", "not-a-number"])
        .output()
        .expect("spawn eatss");
    assert!(!out.status.success());
}

#[test]
fn usage_errors_exit_2_and_failed_runs_exit_1() {
    // A bad flag is a usage error: the message, the usage text, exit 2.
    let out = eatss()
        .args(["gemm", "--no-such-flag"])
        .output()
        .expect("spawn eatss");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--no-such-flag") && stderr.contains("usage:"), "{stderr}");

    // So is a configuration no front end accepts (the daemon answers the
    // same values with `bad_field`): out-of-range or NaN knobs, sizes < 1.
    for (flag, value, expected) in [
        ("--split", "2.0", "--split: expected number in [0, 1]"),
        ("--split", "-1", "--split: expected number in [0, 1]"),
        ("--split", "nan", "--split: expected number in [0, 1]"),
        (
            "--warp-frac",
            "-1",
            "--warp-frac: expected number in (0, 1]",
        ),
        ("--warp-frac", "0", "--warp-frac: expected number in (0, 1]"),
        (
            "--warp-frac",
            "nan",
            "--warp-frac: expected number in (0, 1]",
        ),
        ("--size", "NI=0", "--size NI: expected a positive integer"),
        ("--size", "NI=-5", "--size NI: expected a positive integer"),
        // A name the kernel does not have is not silently dropped.
        ("--size", "Ni=64", "--size Ni: `gemm` has no such parameter (it has NI, NJ, NK)"),
    ] {
        let out = eatss()
            .args(["gemm", flag, value])
            .output()
            .expect("spawn eatss");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(
            stderr.contains(expected) && stderr.contains("usage:"),
            "{flag} {value}: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{flag} {value}: no answer is printed"
        );
    }
    // A sweep picks its own splits, warp fractions and caps in FP64 and
    // measures every point: a per-point flag it would ignore is refused,
    // not answered with the sweep of another request.
    for flag in [
        vec!["--fp32"],
        vec!["--split", "0.9"],
        vec!["--warp-frac", "0.25"],
        vec!["--strict-cap"],
        vec!["--verify"],
        vec!["--evaluate"],
        vec!["--emit-smt"],
        vec!["--emit-cuda"],
    ] {
        let out = eatss()
            .args(["gemm", "--sweep"])
            .args(&flag)
            .output()
            .expect("spawn eatss");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{} cannot be combined with --sweep", flag[0]))
                && stderr.contains("usage:"),
            "{flag:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag:?}: no sweep is printed");
    }
    // What a sweep does honour stays legal beside it.
    let out = eatss()
        .args(["gemm", "--sweep", "--dataset", "standard", "--arch", "xavier"])
        .args(["--jobs", "2", "--deadline-ms", "500", "--log-level", "off"])
        .output()
        .expect("spawn eatss");
    assert_eq!(out.status.code(), Some(0));
    // The ends of the ranges are in them.
    let out = eatss()
        .args([
            "gemm",
            "--split",
            "1",
            "--warp-frac",
            "1",
            "--log-level",
            "off",
        ])
        .output()
        .expect("spawn eatss");
    assert_eq!(out.status.code(), Some(0));

    // A well-formed request that fails — an unreadable kernel file, an
    // unsatisfiable formulation — prints its error alone and exits 1.
    let unreadable = vec!["/no/such/kernel.eatss"];
    let unsat = vec!["gemm", "--size", "NI=8", "--size", "NJ=8", "--size", "NK=8"];
    for (args, message) in [(unreadable, "cannot read"), (unsat, "unsatisfiable")] {
        let out = eatss().args(&args).output().expect("spawn eatss");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(message) && !stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}

/// The three selections the daemon is also asked for, live and replayed,
/// in `eatss-serve`'s `one_request_path.rs`: the `tiles     :` line the
/// CLI prints is the library's answer.
#[test]
fn cli_tiles_are_the_librarys() {
    use eatss::{Eatss, EatssConfig};
    use eatss_gpusim::GpuArch;
    use eatss_kernels::Dataset;

    for (kernel, (flag, dataset), split, warp_frac) in [
        ("gemm", ("standard", Dataset::Standard), "1.0", "0.5"),
        ("2mm", ("xl", Dataset::ExtraLarge), "0.0", "0.25"),
        ("mvt", ("standard", Dataset::Standard), "0.5", "0.125"),
    ] {
        let out = eatss()
            .args([kernel, "--dataset", flag, "--split", split, "--warp-frac", warp_frac])
            .output()
            .expect("spawn eatss");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{kernel}: {}", String::from_utf8_lossy(&out.stderr));
        let line = stdout
            .lines()
            .find(|l| l.starts_with("tiles     :"))
            .unwrap_or_else(|| panic!("{kernel}: no tiles line in:\n{stdout}"));

        let bench = eatss_kernels::by_name(kernel).expect("registered");
        let config = EatssConfig {
            split_factor: split.parse().unwrap(),
            warp_fraction: warp_frac.parse().unwrap(),
            ..EatssConfig::default()
        };
        let library = Eatss::new(GpuArch::ga100())
            .select_tiles(&bench.program().unwrap(), &bench.sizes(dataset), &config)
            .expect("feasible");
        let sizes: Vec<String> = library.tiles.sizes().iter().map(i64::to_string).collect();
        assert_eq!(line, format!("tiles     : ({})", sizes.join(", ")), "{kernel}");
    }
}
