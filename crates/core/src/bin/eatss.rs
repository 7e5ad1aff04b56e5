//! `eatss` — command-line front end for the tile-size selector.
//!
//! ```text
//! eatss <kernel.eatss | benchmark-name> [options]
//!
//! options:
//!   --kernel NAME              alias for the positional input
//!   --kernel-dir DIR           parse every *.eatss file in DIR (in
//!                              parallel with --jobs) and report per-file
//!                              results instead of running the selector
//!   --arch NAME|PATH           target GPU: a builtin device profile
//!                              (ga100, xavier, h100, orin, nano) or a
//!                              JSON profile file (default: ga100)
//!   --split <F>                shared-memory split factor in [0, 1] (default: 0.5)
//!   --warp-frac <F>            warp fraction in (0, 1] (default: 0.5)
//!   --fp32                     single precision (default: FP64)
//!   --strict-cap               literal B_size <= T_P_B (default: virtual)
//!   --size NAME=VALUE          bind a problem-size parameter of the kernel
//!                              to a positive integer (repeatable)
//!   --dataset standard|xl      use a registered benchmark's dataset
//!   --sweep                    run the split x warp-fraction x cap sweep in
//!                              FP64 and measure every point; the per-point
//!                              flags (--split --warp-frac --fp32 --strict-cap
//!                              --emit-smt --emit-cuda --evaluate --verify)
//!                              cannot be combined with it
//!   --jobs <N>                 sweep worker threads (0 = all cores; default 1)
//!   --deadline-ms <N>          wall-clock solve budget per point (anytime)
//!   --emit-smt                 print the SMT-LIB formulation
//!   --emit-cuda                print the generated CUDA for the selection
//!   --evaluate                 measure the selection on the GPU model
//!   --verify                   check the selection with the execution oracle
//!   --verify-seed <N>          oracle input seed, decimal or 0x-prefixed hex
//!                              (default: 0xEA7550AC)
//!   --trace <out.json>         record a pipeline trace as Chrome
//!                              `trace_events` JSON (implies --evaluate)
//!   --log-level off|error|info|debug  stderr verbosity (default: info)
//! ```
//!
//! Exit status: 0 on success; 2 for a usage error (the message, then the
//! usage text); 1 for a well-formed run that fails (the message alone).

use eatss::{
    ConfigRangeError, Eatss, EatssConfig, ModelGenerator, Precision, SweepOptions, ThreadBlockCap,
};
use eatss_affine::parser::parse_program;
use eatss_affine::tiling::TileConfig;
use eatss_affine::{Kernel, ProblemSizes, Program};
use eatss_gpusim::GpuArch;
use eatss_ppcg::Ppcg;
use eatss_smt::SolverConfig;
use eatss_trace::{Level, Provenance};
use std::process::ExitCode;
use std::time::Duration;

struct Options {
    input: String,
    kernel_dir: Option<String>,
    arch: GpuArch,
    config: EatssConfig,
    sizes: Vec<(String, i64)>,
    dataset: Option<eatss_kernels::Dataset>,
    sweep: bool,
    jobs: usize,
    deadline: Option<Duration>,
    emit_smt: bool,
    emit_cuda: bool,
    evaluate: bool,
    verify: bool,
    verify_seed: u64,
    trace: Option<String>,
    log_level: Level,
}

fn usage() -> ExitCode {
    eatss_trace::error!(
        "usage: eatss <kernel.eatss | benchmark-name> [--kernel NAME] [--kernel-dir DIR] \
         [--arch NAME|PROFILE.json] [--split F] [--warp-frac F] [--fp32] [--strict-cap] \
         [--size NAME=VALUE]... [--dataset standard|xl] [--sweep] [--jobs N] \
         [--deadline-ms N] [--emit-smt] [--emit-cuda] [--evaluate] \
         [--verify] [--verify-seed N] \
         [--trace OUT.json] [--log-level off|error|info|debug]"
    );
    ExitCode::from(2)
}

/// Flags that configure or inspect one selection. A sweep chooses its own
/// splits, warp fractions and caps in FP64 and measures every point, so
/// it refuses them rather than answer for a request it did not run.
const NOT_WITH_SWEEP: [&str; 8] = [
    "--fp32",
    "--split",
    "--warp-frac",
    "--strict-cap",
    "--verify",
    "--evaluate",
    "--emit-smt",
    "--emit-cuda",
];

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut per_point_flag = None;
    let mut opts = Options {
        input: String::new(),
        kernel_dir: None,
        arch: GpuArch::ga100(),
        config: EatssConfig::default(),
        sizes: Vec::new(),
        dataset: None,
        sweep: false,
        jobs: 1,
        deadline: None,
        emit_smt: false,
        emit_cuda: false,
        evaluate: false,
        verify: false,
        verify_seed: eatss::VERIFY_SEED,
        trace: None,
        log_level: Level::Info,
    };
    let next_value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        if per_point_flag.is_none() && NOT_WITH_SWEEP.contains(&arg.as_str()) {
            per_point_flag = Some(arg.clone());
        }
        match arg.as_str() {
            "--arch" => {
                let spec = next_value(&mut args, "--arch")?;
                opts.arch = eatss_gpusim::DeviceProfile::resolve(&spec)
                    .map_err(|e| format!("--arch {spec}: {e}"))?
                    .into_arch();
            }
            "--split" => {
                opts.config.split_factor = next_value(&mut args, "--split")?
                    .parse()
                    .map_err(|e| format!("--split: {e}"))?;
            }
            "--warp-frac" => {
                opts.config.warp_fraction = next_value(&mut args, "--warp-frac")?
                    .parse()
                    .map_err(|e| format!("--warp-frac: {e}"))?;
            }
            "--fp32" => opts.config.precision = Precision::F32,
            "--strict-cap" => opts.config.cap = ThreadBlockCap::Strict,
            "--size" => {
                let kv = next_value(&mut args, "--size")?;
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("--size expects NAME=VALUE, got `{kv}`"))?;
                let v: i64 = v.parse().map_err(|e| format!("--size {k}: {e}"))?;
                if v < 1 {
                    return Err(format!("--size {k}: expected a positive integer, got {v}"));
                }
                opts.sizes.push((k.to_owned(), v));
            }
            "--dataset" => {
                opts.dataset = Some(match next_value(&mut args, "--dataset")?.as_str() {
                    "standard" => eatss_kernels::Dataset::Standard,
                    "xl" | "extralarge" => eatss_kernels::Dataset::ExtraLarge,
                    other => return Err(format!("unknown dataset `{other}`")),
                });
            }
            "--sweep" => opts.sweep = true,
            "--jobs" => {
                opts.jobs = next_value(&mut args, "--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
            }
            "--deadline-ms" => {
                let ms: u64 = next_value(&mut args, "--deadline-ms")?
                    .parse()
                    .map_err(|e| format!("--deadline-ms: {e}"))?;
                opts.deadline = Some(Duration::from_millis(ms));
            }
            "--emit-smt" => opts.emit_smt = true,
            "--emit-cuda" => opts.emit_cuda = true,
            "--evaluate" => opts.evaluate = true,
            "--verify" => opts.verify = true,
            "--verify-seed" => {
                let text = next_value(&mut args, "--verify-seed")?;
                opts.verify_seed = match text.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => text.parse(),
                }
                .map_err(|e| format!("--verify-seed: {e}"))?;
            }
            "--kernel" => {
                let name = next_value(&mut args, "--kernel")?;
                if !opts.input.is_empty() {
                    return Err("multiple inputs given".to_owned());
                }
                opts.input = name;
            }
            "--kernel-dir" => {
                opts.kernel_dir = Some(next_value(&mut args, "--kernel-dir")?);
            }
            "--trace" => opts.trace = Some(next_value(&mut args, "--trace")?),
            "--log-level" => {
                let text = next_value(&mut args, "--log-level")?;
                opts.log_level = Level::parse(&text)
                    .ok_or_else(|| format!("unknown log level `{text}`"))?;
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`"));
            }
            positional => {
                if !opts.input.is_empty() {
                    return Err("multiple inputs given".to_owned());
                }
                opts.input = positional.to_owned();
            }
        }
    }
    opts.config.validate().map_err(|e| {
        let flag = match e {
            ConfigRangeError::SplitFactor => "--split",
            ConfigRangeError::WarpFraction => "--warp-frac",
        };
        format!("{flag}: expected {}", e.expected())
    })?;
    if let (true, Some(flag)) = (opts.sweep, per_point_flag) {
        return Err(format!(
            "{flag} cannot be combined with --sweep (it selects in FP64 across \
             every split, warp fraction and cap, and measures every point)"
        ));
    }
    if opts.kernel_dir.is_some() {
        if !opts.input.is_empty() {
            return Err("--kernel-dir cannot be combined with an input kernel".to_owned());
        }
    } else if opts.input.is_empty() {
        return Err("no input kernel".to_owned());
    }
    // A trace should cover the whole solve -> codegen -> simulate
    // pipeline, so tracing a plain selection implies --evaluate.
    if opts.trace.is_some() && !opts.sweep {
        opts.evaluate = true;
    }
    Ok(opts)
}

/// Why a run ended early. A usage error prints the usage text and exits
/// 2; a well-formed run that fails prints its error alone and exits 1.
enum Failure {
    Usage(String),
    Run(String),
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Run(message)
    }
}

fn load_program(opts: &Options) -> Result<(Program, ProblemSizes), Failure> {
    // A registered benchmark name wins; otherwise treat the input as a
    // path to a kernel file.
    let (program, mut sizes) = match eatss_kernels::by_name(&opts.input) {
        Some(bench) => (
            bench.program().map_err(|e| e.to_string())?,
            bench.sizes(opts.dataset.unwrap_or(eatss_kernels::Dataset::ExtraLarge)),
        ),
        None => {
            let source = std::fs::read_to_string(&opts.input)
                .map_err(|e| format!("cannot read `{}`: {e}", opts.input))?;
            let program = parse_program(&source).map_err(|e| e.to_string())?;
            (program, ProblemSizes::default())
        }
    };
    let params = program.params();
    for (name, value) in &opts.sizes {
        if !params.contains(&name.as_str()) {
            return Err(Failure::Usage(format!(
                "--size {name}: `{}` has no such parameter (it has {})",
                program.name,
                params.join(", ")
            )));
        }
        sizes.set(name.clone(), *value);
    }
    Ok((program, sizes))
}

/// `--kernel-dir`: batch-parse every `*.eatss` file in a directory on
/// the scoped pool and print a deterministic per-file report to stdout.
///
/// Files are sorted by name and results merge in input order, so the
/// output is byte-identical for any `--jobs` value — CI pins this with
/// a literal `cmp` between `--jobs 1` and `--jobs 4` runs.
fn run_kernel_dir(dir: &str, opts: &Options) -> Result<(), String> {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read directory `{dir}`: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "eatss"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .eatss files in `{dir}`"));
    }
    let sources: Vec<(String, String)> = paths
        .iter()
        .map(|p| {
            let name = p
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            std::fs::read_to_string(p)
                .map(|src| (name, src))
                .map_err(|e| format!("cannot read `{}`: {e}", p.display()))
        })
        .collect::<Result<_, _>>()?;
    let results = eatss_affine::parser::parse_files(&sources, opts.jobs);
    let mut failed = 0usize;
    for ((name, src), result) in sources.iter().zip(&results) {
        match result {
            Ok(program) => {
                let stmts: usize = program.kernels.iter().map(|k| k.stmts.len()).sum();
                println!(
                    "{name}: ok ({} kernel(s), max depth {}, {stmts} stmt(s), {} byte(s))",
                    program.kernels.len(),
                    program.kernels.iter().map(Kernel::depth).max().unwrap_or(0),
                    src.len()
                );
            }
            Err(e) => {
                failed += 1;
                println!("{name}: FAILED");
                println!("{}", eatss_affine::parser::render_snippet(src, e));
            }
        }
    }
    println!("parsed {}/{} file(s)", results.len() - failed, results.len());
    if failed > 0 {
        return Err(format!("{failed} file(s) failed to parse"));
    }
    Ok(())
}

fn run(opts: &Options) -> Result<(), Failure> {
    if let Some(dir) = &opts.kernel_dir {
        return Ok(run_kernel_dir(dir, opts)?);
    }
    let (program, sizes) = load_program(opts)?;
    let eatss = Eatss::new(opts.arch.clone());
    eatss_trace::debug!(
        "input `{}`: {} kernel(s), arch {}",
        program.name,
        program.kernels.len(),
        opts.arch.name
    );

    if opts.sweep {
        let mut sweep_opts = SweepOptions {
            jobs: opts.jobs,
            ..SweepOptions::default()
        };
        if let Some(deadline) = opts.deadline {
            for attempt in &mut sweep_opts.attempts {
                attempt.deadline = Some(deadline);
            }
        }
        let sweep = eatss
            .sweep_with(
                &program,
                &sizes,
                &eatss::sweep::PAPER_SPLITS,
                &[0.5, 0.25, 0.125],
                &sweep_opts,
            )
            .map_err(|e| e.to_string())?;
        println!(
            "{:<8} {:<8} {:<9} {:<12} {:<18} {:>9} {:>8} {:>9}",
            "split", "wfrac", "cap", "provenance", "tiles", "GFLOP/s", "W", "PPW"
        );
        for p in &sweep.points {
            println!(
                "{:<8.2} {:<8.3} {:<9} {:<12} {:<18} {:>9.1} {:>8.1} {:>9.2}",
                p.config.split_factor,
                p.config.warp_fraction,
                format!("{:?}", p.config.cap),
                p.solution.provenance.to_string(),
                p.solution.tiles.to_string(),
                p.report.gflops,
                p.report.avg_power_w,
                p.report.ppw
            );
        }
        if !sweep.infeasible.is_empty() {
            println!(
                "\n{} configuration(s) degraded to default tiling:",
                sweep.infeasible.len()
            );
            for (config, reason) in &sweep.infeasible {
                println!(
                    "  split={:.2} wfrac={:.3} {:?}: {reason}",
                    config.split_factor, config.warp_fraction, config.cap
                );
            }
        }
        if !sweep.failures.is_empty() {
            println!("\n{} configuration(s) unmeasurable:", sweep.failures.len());
            for (config, error) in &sweep.failures {
                println!(
                    "  split={:.2} wfrac={:.3} {:?}: {error}",
                    config.split_factor, config.warp_fraction, config.cap
                );
            }
        }
        if let Some(best) = sweep.best_by_ppw() {
            println!("\nbest by PPW: {}", best.solution.tiles);
        }
        return Ok(());
    }

    if opts.emit_smt {
        let model = ModelGenerator::new(&opts.arch, opts.config.clone())
            .build(&program, Some(&sizes))
            .map_err(|e| e.to_string())?;
        println!("{}", model.to_smtlib());
    }

    let solution = ModelGenerator::new(&opts.arch, opts.config.clone())
        .with_solver_config(SolverConfig {
            deadline: opts.deadline,
            ..SolverConfig::default()
        })
        .build(&program, Some(&sizes))
        .and_then(|m| m.solve())
        .map_err(|e| e.to_string())?;
    println!("tiles     : {}", solution.tiles);
    println!("objective : {}", solution.objective);
    println!(
        "solver    : {} calls, {:.4} s, {}",
        solution.solver_calls,
        solution.solve_time.as_secs_f64(),
        if solution.optimal {
            "optimal".to_owned()
        } else {
            format!("anytime ({})", solution.provenance)
        }
    );
    println!(
        "overhead  : {} nodes, {} bound prunes, propagation {:.4} s, search {:.4} s",
        solution.stats.nodes,
        solution.stats.bound_prunes,
        solution.stats.propagation_time.as_secs_f64(),
        solution.stats.search_time.as_secs_f64()
    );

    if opts.emit_cuda {
        let compiled = Ppcg::new(opts.arch.clone())
            .compile(
                &program,
                &solution.tiles,
                &sizes,
                &opts.config.compile_options(&opts.arch),
            )
            .map_err(|e| e.to_string())?;
        println!("\n{}", compiled.cuda_source);
    }

    if opts.verify {
        // Differential oracle: emulate the compiled GPU execution on
        // shrunk sizes and compare element-wise against the interpreter,
        // for both the selected tiles and the PPCG default — one batch,
        // so the reference interpretation runs once for both.
        let labels = ["EATSS", "32^d"];
        let default = TileConfig::ppcg_default(program.max_depth());
        let configs = [(&opts.config, &solution.tiles), (&opts.config, &default)];
        let started = std::time::Instant::now();
        let verdicts = eatss.verify(&program, &sizes, &configs, opts.verify_seed);
        let wall = started.elapsed().as_secs_f64();
        let mut points = 0;
        for (label, verdict) in labels.iter().zip(verdicts) {
            let report = verdict.map_err(|e| format!("verify {label}: {e}"))?;
            points += report.points;
            println!(
                "verify {label:<6}: OK — {} point(s), {} block(s), \
                 {} staged elem(s), {} array(s) bitwise-equal (seed {})",
                report.points,
                report.blocks,
                report.staged_elems,
                report.arrays_compared,
                opts.verify_seed
            );
        }
        println!(
            "verify: {} config(s) in {:.1} ms, {:.0} points/s",
            configs.len(),
            wall * 1e3,
            points as f64 / wall.max(1e-9)
        );
    }

    if opts.evaluate {
        let ours = eatss
            .evaluate(&program, &solution.tiles, &sizes, &opts.config)
            .map_err(|e| e.to_string())?;
        let default = eatss
            .evaluate(
                &program,
                &TileConfig::ppcg_default(program.max_depth()),
                &sizes,
                &opts.config,
            )
            .map_err(|e| e.to_string())?;
        println!("\nEATSS   : {ours}");
        println!("default : {default}");
        if ours.valid && default.valid {
            println!(
                "speedup {:.3}x, PPW ratio {:.3}x, energy ratio {:.3}x",
                default.time_s / ours.time_s,
                ours.ppw / default.ppw,
                ours.energy_j / default.energy_j
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eatss_trace::error!("{e}");
            return usage();
        }
    };
    eatss_trace::set_log_level(opts.log_level);
    if opts.trace.is_some() {
        eatss_trace::start_collecting();
    }
    let result = run(&opts);
    // The trace is written even when the run failed: a trace of a failing
    // pipeline is exactly when you want one.
    if let Some(path) = &opts.trace {
        let trace = eatss_trace::drain(Provenance::collect(Some(opts.jobs)));
        match trace.write(std::path::Path::new(path)) {
            Ok(()) => {
                eatss_trace::info!("trace: {} event(s) written to {path}", trace.events.len())
            }
            Err(e) => eatss_trace::error!("cannot write trace `{path}`: {e}"),
        }
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(e)) => {
            eatss_trace::error!("{e}");
            usage()
        }
        // A failed run is not a usage error: the message alone, exit 1.
        Err(Failure::Run(e)) => {
            eatss_trace::error!("{e}");
            ExitCode::FAILURE
        }
    }
}
