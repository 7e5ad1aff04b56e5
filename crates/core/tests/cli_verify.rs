//! End-to-end tests of the `eatss` CLI: the oracle-backed `--verify`
//! path must run, report bitwise agreement, and fail loudly on a bad
//! configuration request; a `--trace` file must hold every stage the run
//! took; every committed device profile loads; `--kernel-dir` ingestion
//! prints the same at any job count.

use eatss_trace::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn eatss() -> Command {
    Command::new(env!("CARGO_BIN_EXE_eatss"))
}

/// The workspace root, where `examples/` and `crates/gpusim/profiles/` live.
fn workspace() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The `tiles     :` line of a selection's output.
fn tiles_line(stdout: &str) -> &str {
    stdout
        .lines()
        .find(|l| l.starts_with("tiles     :"))
        .unwrap_or_else(|| panic!("no tiles line in:\n{stdout}"))
}

/// One `eatss ARGS --trace FILE` run, read back the way a trace viewer
/// reads it.
struct Traced {
    stdout: String,
    /// Complete (`X`) spans in order, as `cat:name` with their args.
    spans: Vec<(String, Json)>,
    /// Registry samples (`C`: counters and histograms) by name, their args.
    samples: BTreeMap<String, Json>,
}

impl Traced {
    fn has_span(&self, name: &str) -> bool {
        self.spans.iter().any(|(n, _)| n == name)
    }

    fn sample(&self, name: &str, field: &str) -> Option<f64> {
        self.samples.get(name)?.get(field)?.as_f64()
    }
}

/// Runs `eatss` with `args` and `--trace`, and checks the document is
/// well formed: it carries the commit it was recorded at, its event array
/// is not empty, every event is named and of a phase the sink writes
/// (`X` span, `C` sample, `i` instant, `M` metadata), and every span has
/// its category, start and duration.
fn traced(args: &[&str]) -> Traced {
    let path = std::env::temp_dir().join(format!(
        "eatss-cli-trace-{}-{}.json",
        std::process::id(),
        args.join("_")
    ));
    let out = eatss()
        .args(args)
        .args(["--log-level", "off", "--trace"])
        .arg(&path)
        .output()
        .expect("spawn eatss");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{args:?}: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("trace written");
    let _ = std::fs::remove_file(&path);

    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{args:?}: trace is not JSON: {e}"));
    let provenance = doc.get("otherData").and_then(|d| d.get("provenance"));
    assert!(
        provenance
            .and_then(|p| p.get("git_sha"))
            .and_then(Json::as_str)
            .is_some(),
        "{args:?}: no otherData.provenance.git_sha"
    );
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents");
    assert!(!events.is_empty(), "{args:?}: no events");
    let mut traced = Traced {
        stdout,
        spans: Vec::new(),
        samples: BTreeMap::new(),
    };
    for event in events {
        let text = |key| event.get(key).and_then(Json::as_str);
        let name = text("name").unwrap_or_else(|| panic!("{args:?}: unnamed event {event:?}"));
        let args_of = || event.get("args").cloned().unwrap_or(Json::Null);
        match text("ph") {
            Some("X") => {
                let cat =
                    text("cat").unwrap_or_else(|| panic!("{args:?}: span {name} without cat"));
                for key in ["ts", "dur"] {
                    assert!(
                        event.get(key).and_then(Json::as_f64).is_some(),
                        "{args:?}: span {cat}:{name} without {key}"
                    );
                }
                traced.spans.push((format!("{cat}:{name}"), args_of()));
            }
            Some("C") => {
                traced.samples.insert(name.to_owned(), args_of());
            }
            Some("i" | "M") => {}
            ph => panic!("{args:?}: event {name} has phase {ph:?}"),
        }
    }
    traced
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
    let trace = traced(&["gemm", "--verify"]);
    assert_eq!(trace.stdout.matches("OK —").count(), 2, "{}", trace.stdout);
    let verifies: Vec<&Json> = trace
        .spans
        .iter()
        .filter(|(name, _)| name == "oracle:verify")
        .map(|(_, args)| args)
        .collect();
    assert_eq!(verifies.len(), 1, "{verifies:?}");
    assert_eq!(verifies[0].get("configs").and_then(Json::as_f64), Some(2.0));
}

/// Each trace holds the spans and registry samples of every stage its run
/// took, and none of a stage it did not: measurement and the oracle map
/// without emitting CUDA, so the text path's spans appear under
/// `--emit-cuda` alone.
#[test]
fn a_trace_holds_every_stage_its_run_took() {
    let text_path = ["ppcg:compile", "ppcg:codegen", "ppcg:hostgen"];

    let verify = traced(&["--kernel", "gemm", "--verify"]);
    for span in [
        "eatss:solve",
        "smt:maximize",
        "pipeline:map",
        "ppcg:map",
        "pipeline:simulate",
        "sim:launch",
        "pipeline:plan_compile",
        "oracle:verify",
    ] {
        assert!(
            verify.has_span(span),
            "--verify: no {span} in {:?}",
            verify.spans
        );
    }
    for span in text_path {
        assert!(!verify.has_span(span), "--verify emitted CUDA text: {span}");
    }
    for counter in [
        "oracle.points",
        "oracle.configs",
        "exec.plan_compiles",
        "exec.rows",
        "parse.bytes",
    ] {
        assert!(
            verify.sample(counter, "value") >= Some(1.0),
            "--verify: counter {counter}"
        );
    }
    // A histogram an operator can read: samples, and quantiles in order.
    let [count, p50, p99, max] = ["count", "p50", "p99", "max"]
        .map(|field| verify.sample("smt.maximize_us", field).expect(field));
    assert!(
        count >= 1.0 && p50 <= p99 && p99 <= max,
        "{count} {p50} {p99} {max}"
    );

    let cuda = traced(&["--kernel", "gemm", "--emit-cuda"]);
    for span in text_path {
        assert!(
            cuda.has_span(span),
            "--emit-cuda: no {span} in {:?}",
            cuda.spans
        );
    }

    // The only budget that binds: every point of gemm's 18-point sweep
    // exhausts its one rung and degrades to the measured 32^d fallback.
    let sweep = traced(&["gemm", "--sweep", "--deadline-ms", "0"]);
    for span in ["sweep:point", "sweep:solve_attempt"] {
        assert!(
            sweep.has_span(span),
            "--sweep: no {span} in {:?}",
            sweep.spans
        );
    }
    for counter in ["sweep.solve_attempts", "sweep.fallbacks"] {
        assert_eq!(
            sweep.sample(counter, "value"),
            Some(18.0),
            "--sweep: counter {counter}"
        );
    }
}

#[test]
fn verify_seed_is_reported_for_reproducibility() {
    // Decimal, or hex the way the usage text prints the default.
    for (given, seed) in [("1234", 1234u64), ("0xEA7550AC", 0xEA75_50AC)] {
        let out = eatss()
            .args([
                "gemm",
                "--verify",
                "--verify-seed",
                given,
                "--log-level",
                "off",
            ])
            .output()
            .expect("spawn eatss");
        assert!(
            out.status.success(),
            "{given}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(&format!("seed {seed})")),
            "{given}: {stdout}"
        );
    }
}

#[test]
fn verify_works_on_a_time_loop_benchmark() {
    // jacobi-2d and heat-3d have an explicit-serial time dim: the oracle
    // must emulate per-step launches and still agree with the
    // interpreter. heat-3d is the oracle's heaviest fused-row case, and
    // unsatisfiable at half-warp alignment, hence 1/8.
    for args in [vec!["jacobi-2d"], vec!["heat-3d", "--warp-frac", "0.125"]] {
        let out = eatss()
            .args(&args)
            .args(["--verify", "--log-level", "off"])
            .output()
            .expect("spawn eatss");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{args:?}: stdout: {stdout}\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(stdout.matches("OK —").count(), 2, "{args:?}: {stdout}");
    }
}

/// `--emit-smt` prints the formulation that is solved: each tile variable
/// ranges over its warp-aligned candidates (hull plus congruence) — the
/// paper's §IV-B alignment, stated once, as the domain. The CUDA text stays
/// reachable through `--emit-cuda`.
#[test]
fn emit_smt_prints_the_alignment_as_the_aligned_domain() {
    let out = eatss()
        .args(["gemm", "--emit-smt", "--emit-cuda", "--log-level", "off"])
        .output()
        .expect("spawn eatss");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for line in [
        "(assert (and (>= T0 16) (<= T0 1024)))",
        "(assert (= (mod (- T0 16) 16) 0))",
        "(maximize ",
        "__global__",
    ] {
        assert!(stdout.contains(line), "missing `{line}` in:\n{stdout}");
    }
    assert!(!stdout.contains("(mod T0 "), "alignment asserted twice");
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
    assert!(
        stderr.contains("--no-such-flag") && stderr.contains("usage:"),
        "{stderr}"
    );

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
        (
            "--size",
            "Ni=64",
            "--size Ni: `gemm` has no such parameter (it has NI, NJ, NK)",
        ),
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
    // A parameter bound twice is refused in either order, not settled by
    // which binding came last.
    for (first, second) in [("NI=8", "NI=4000"), ("NI=4000", "NI=8")] {
        let out = eatss()
            .args(["gemm", "--size", first, "--size", second])
            .output()
            .expect("spawn eatss");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{first} {second}: {stderr}");
        let refused = stderr.contains("--size NI: given twice") && stderr.contains("usage:");
        assert!(refused, "{stderr}");
        assert!(out.stdout.is_empty(), "{first} {second}: no answer");
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
        .args([
            "gemm",
            "--sweep",
            "--dataset",
            "standard",
            "--arch",
            "xavier",
        ])
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
        assert!(
            stderr.contains(message) && !stderr.contains("usage:"),
            "{args:?}: {stderr}"
        );
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
            .args([
                kernel,
                "--dataset",
                flag,
                "--split",
                split,
                "--warp-frac",
                warp_frac,
            ])
            .output()
            .expect("spawn eatss");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{kernel}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let line = tiles_line(&stdout);

        let bench = eatss_kernels::by_name(kernel).expect("registered");
        let config = EatssConfig {
            split_factor: split.parse().unwrap(),
            warp_fraction: warp_frac.parse().unwrap(),
            ..EatssConfig::default()
        };
        let library = Eatss::new(GpuArch::ga100())
            .select_tiles(&bench.program().unwrap(), &bench.sizes(dataset), &config)
            .expect("feasible");
        assert_eq!(line, format!("tiles     : {}", library.tiles), "{kernel}");
    }
}

/// Every committed device profile loads through `--arch PATH`, and the
/// CLI answers with the library's selection on that device.
#[test]
fn every_committed_profile_loads_through_the_cli() {
    use eatss::{Eatss, EatssConfig};
    use eatss_gpusim::DeviceProfile;
    use eatss_kernels::Dataset;

    let mut profiles: Vec<PathBuf> = std::fs::read_dir(workspace().join("crates/gpusim/profiles"))
        .expect("profiles directory")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    profiles.sort();
    assert!(profiles.len() >= 5, "{profiles:?}");
    let gemm = eatss_kernels::by_name("gemm").expect("registered");
    for path in &profiles {
        let out = eatss()
            .args(["gemm", "--log-level", "off", "--arch"])
            .arg(path)
            .output()
            .expect("spawn eatss");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{}: {stderr}", path.display());

        let arch = DeviceProfile::load(path)
            .expect("profile loads")
            .into_arch();
        let library = Eatss::new(arch)
            .select_tiles(
                &gemm.program().unwrap(),
                &gemm.sizes(Dataset::ExtraLarge),
                &EatssConfig::default(),
            )
            .expect("feasible");
        assert_eq!(
            tiles_line(&stdout),
            format!("tiles     : {}", library.tiles),
            "{}",
            path.display()
        );
    }
}

/// `--kernel-dir` parses a directory's sources on a thread pool and
/// reports them in input order: byte-identical output at any `--jobs`.
#[test]
fn kernel_dir_ingestion_is_the_same_at_any_job_count() {
    let dir = workspace().join("examples/kernels");
    let ingest = |jobs: &str| {
        let out = eatss()
            .arg("--kernel-dir")
            .arg(&dir)
            .args(["--jobs", jobs, "--log-level", "off"])
            .output()
            .expect("spawn eatss");
        assert!(
            out.status.success(),
            "--jobs {jobs}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("UTF-8 output")
    };
    let sequential = ingest("1");
    assert!(sequential.contains("parsed 3/3 file(s)"), "{sequential}");
    assert_eq!(ingest("4"), sequential);
}
