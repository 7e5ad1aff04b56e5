//! The layer tour: one fixed piece of work per layer, measured from
//! outside, the same whichever workload's traced run it is part of.
//!
//! The tour is a small traced run of every op type over the `ga100`
//! slice of the seeded op lists, a fixed-count serve session, and a few
//! direct probes (cache, journal, protocol, CLI). Its work is fixed by
//! the seed, not by the clock, so its counts repeat exactly.

use crate::inputs::{self, Key};
use crate::metrics::{quantile, Values};
use crate::pipeline::Probe;
use crate::spans::{Recorder, Summary};
use crate::workloads::select_cold::SelectCold;
use crate::workloads::serve_mixed::{Class, Limit, ServeMixed};
use crate::workloads::sweep_front::SweepFront;
use crate::workloads::verify_oracle::VerifyOracle;
use crate::workloads::{traced_op, LibraryOps, Window, Workload};
use eatss::cache::encode_key;
use eatss::{EatssConfig, JournalConfig, PersistentTileCache, SyncPolicy, TileCache};
use eatss_affine::{ProblemSizes, Program};
use eatss_gpusim::{DeviceProfile, GpuArch};
use eatss_serve::parse_request;
use eatss_trace::json::Json;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// The device whose slice of every op list the tour runs.
const TOUR_DEVICE: &str = "ga100";
/// Requests per client in the tour's serve session.
const SERVE_OPS_PER_CLIENT: u64 = 1500;
/// Request lines timed through `parse_request`.
const PROTOCOL_LINES: usize = 1000;
/// Process spawns per CLI measurement.
const CLI_SPAWNS: usize = 50;
/// Passes over the keys for the in-memory cache probes.
const CACHE_REPS: usize = 20;

pub struct Tour {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// Every op of `w`, traced, into `rec`.
fn traced_pass<W: LibraryOps>(w: &mut W, rec: &mut Recorder, win: &mut Window) {
    for i in 0..w.len() {
        let outcome = traced_op(w, i, win.attempted, rec, &mut win.probe);
        win.attempted += 1;
        if let Err(reason) = outcome {
            win.fail(reason);
        }
    }
}

/// One pass of the three library op types. Returns the spans of the
/// select and oracle ops, and of the sweep ops.
fn library_pass(seed: u64, win: &mut Window) -> Result<(Recorder, Recorder), String> {
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch);
    let mut select = SelectCold::new(
        inputs::select_cold(seed)
            .into_iter()
            .filter(|k| k.device == TOUR_DEVICE)
            .collect(),
    );
    traced_pass(&mut select, &mut rec, win);
    let mut oracle = VerifyOracle::new(
        inputs::verify_oracle(seed)
            .into_iter()
            .filter(|op| op.device == TOUR_DEVICE)
            .collect(),
    )?;
    traced_pass(&mut oracle, &mut rec, win);
    // One sweep worker: `core.sweep.overhead_ratio` is then the sweep's
    // own bookkeeping, not the worker pool's speed-up.
    let mut sweep_rec = Recorder::new(epoch);
    let mut sweep = SweepFront::new(
        inputs::sweep_front(seed)
            .into_iter()
            .filter(|op| op.device == TOUR_DEVICE)
            .collect(),
        1,
    )?;
    traced_pass(&mut sweep, &mut sweep_rec, win);
    Ok((rec, sweep_rec))
}

fn mean_us(total_ns: u128, calls: usize) -> f64 {
    total_ns as f64 / calls.max(1) as f64 / 1e3
}

fn p50_us(samples_ns: &mut [u64]) -> f64 {
    if samples_ns.is_empty() {
        return 0.0;
    }
    samples_ns.sort_unstable();
    quantile(samples_ns, 0.5) as f64 / 1e3
}

/// Per-second rate of `count` things done in the spans named `name`.
fn per_second(count: u64, summary: &Summary, name: &str) -> f64 {
    let ns = summary.get(name).total_ns;
    if ns == 0 {
        0.0
    } else {
        count as f64 / (ns as f64 / 1e9)
    }
}

fn library_metrics(values: &mut Values, merged: &Summary, sweep: &Summary, probe: &Probe) {
    let c = &probe.counts;
    values.set(
        "affine.parser.parse_us",
        merged.mean_us("affine.parser.parse"),
    );
    values.set(
        "affine.parser.mb_per_s",
        per_second(c.parser_bytes, merged, "affine.parser.parse") / 1e6,
    );
    values.set("affine.parser.kernels", c.parser_kernels as f64);
    values.set("affine.interp.run_us", merged.mean_us("affine.interp.run"));
    values.set(
        "affine.interp.points_per_s",
        per_second(c.interp_points, merged, "affine.interp.run"),
    );
    values.set("core.model.build_us", merged.mean_us("core.model.build"));
    values.set("core.model.constraints", c.model_constraints as f64);
    values.set(
        "core.evaluate.evaluate_us",
        merged.mean_us("check.evaluate"),
    );
    values.set("core.sweep.sweep_us", sweep.mean_us("check.sweep"));
    values.set("core.sweep.points", c.sweep_points as f64);
    values.set("core.sweep.fallbacks", c.sweep_fallbacks as f64);
    values.set("core.sweep.infeasible", c.sweep_infeasible as f64);
    values.set("core.sweep.pareto_us", sweep.mean_us("core.sweep.pareto"));
    let singly: u64 = [
        "core.model.build",
        "smt.solve",
        "ppcg.compile",
        "gpusim.simulate",
        "core.evaluate.combine",
    ]
    .iter()
    .map(|name| sweep.get(name).total_ns)
    .sum();
    values.set(
        "core.sweep.overhead_ratio",
        sweep.get("check.sweep").total_ns as f64 / singly.max(1) as f64,
    );
    values.set("smt.solve_us", merged.mean_us("smt.solve"));
    let solves = probe.solver.solves.max(1) as f64;
    values.set(
        "smt.propagation_us",
        probe.solver.propagation_ns as f64 / solves / 1e3,
    );
    values.set(
        "smt.search_us",
        probe.solver.search_ns as f64 / solves / 1e3,
    );
    values.set("smt.nodes", c.smt_nodes as f64);
    values.set("smt.solver_calls", c.smt_solver_calls as f64);
    values.set("smt.bound_prunes", c.smt_bound_prunes as f64);
    values.set("smt.hull_rebuilds", c.smt_hull_rebuilds as f64);
    values.set("smt.warm_cut_hits", c.smt_warm_cut_hits as f64);
    values.set("ppcg.compile_us", merged.mean_us("ppcg.compile"));
    values.set("ppcg.cuda_bytes", c.cuda_bytes as f64);
    values.set("ppcg.invalid_variants", c.invalid_variants as f64);
    values.set("ppcg.exec.emulate_us", merged.mean_us("ppcg.exec.emulate"));
    values.set(
        "ppcg.exec.points_per_s",
        per_second(c.exec_points, merged, "ppcg.exec.emulate"),
    );
    values.set(
        "ppcg.oracle.verify_us",
        merged.mean_us("check.verify_batch"),
    );
    values.set("ppcg.oracle.points", c.oracle_points as f64);
    values.set(
        "ppcg.oracle.points_per_s",
        per_second(c.oracle_points, merged, "check.verify_batch"),
    );
    values.set("ppcg.oracle.mismatches", c.oracle_mismatches as f64);
    values.set("gpusim.simulate_us", merged.mean_us("gpusim.simulate"));
    values.set("gpusim.launches", c.gpusim_launches as f64);
}

fn histogram(metrics: &Json, name: &str, quantile: &str) -> f64 {
    metrics
        .get("histograms")
        .and_then(|h| h.get(name))
        .and_then(|h| h.get(quantile))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// The fixed-count serve session: client-side round trips, the daemon's
/// own `metrics` op, a restart, then the journal it left behind.
fn serve_metrics(
    values: &mut Values,
    win: &mut Window,
    seed: u64,
    clients: usize,
    out_dir: &Path,
) -> Result<(), String> {
    let keys: Vec<Key> = inputs::catalogue()
        .into_iter()
        .filter(|k| k.device == TOUR_DEVICE)
        .collect();
    let mut serve = ServeMixed::new(seed, keys, clients, SyncPolicy::default(), out_dir)?;
    let outcome = serve_session(values, win, &mut serve, seed);
    serve.teardown();
    outcome
}

fn serve_session(
    values: &mut Values,
    win: &mut Window,
    serve: &mut ServeMixed,
    seed: u64,
) -> Result<(), String> {
    let mut session = serve.run_clients(Limit::Ops(SERVE_OPS_PER_CLIENT), false);
    serve.settle(&mut session);
    values.set(
        "serve.roundtrip_hit_us_p50",
        session.p50_us(Some(Class::Hit)),
    );
    values.set(
        "serve.roundtrip_miss_us_p50",
        session.p50_us(Some(Class::Miss)),
    );
    values.set(
        "serve.roundtrip_inline_us_p50",
        session.p50_us(Some(Class::Inline)),
    );
    values.set("serve.hit_ratio", session.hit_ratio());
    let client_p50_us = session.p50_us(None);
    win.attempted += session.window.attempted;
    win.absorb_failures(session.window.failed, session.window.failures);

    let metrics = serve.daemon_metrics()?;
    for (name, hist, q) in [
        ("serve.request_us_p50", "serve.request_us", "p50"),
        ("serve.request_us_p99", "serve.request_us", "p99"),
        ("serve.queue_us_p99", "serve.queue_us", "p99"),
        ("serve.solve_us_p50", "serve.solve_us", "p50"),
        (
            "serve.journal_append_us_p50",
            "serve.journal_append_us",
            "p50",
        ),
        ("serve.parse_us_p50", "serve.parse_us", "p50"),
    ] {
        values.set(name, histogram(&metrics, hist, q));
    }
    values.set(
        "serve.transport_us",
        client_p50_us - histogram(&metrics, "serve.request_us", "p50"),
    );
    let parse_cache_hits = metrics
        .get("counters")
        .and_then(|c| c.get("parse.cache_hits"))
        .and_then(Json::as_f64);
    values.set("serve.parse_cache_hits", parse_cache_hits.unwrap_or(0.0));
    let stats = serve.server_stats();
    values.set("serve.coalesced", stats.coalesced as f64);
    values.set("serve.shed", stats.shed as f64);

    let lines = serve.request_lines(seed, PROTOCOL_LINES);
    let started = Instant::now();
    for line in &lines {
        if let Err(e) = std::hint::black_box(parse_request(line)) {
            win.fail(format!("parse_request rejected a client line: {e}"));
        }
    }
    values.set(
        "serve.protocol.parse_us",
        mean_us(started.elapsed().as_nanos(), lines.len()),
    );

    let (ready_ms, lost) = serve.restart()?;
    win.attempted += 1;
    if lost > 0 {
        win.fail(format!(
            "{lost} journaled entries were lost across a restart"
        ));
    }
    values.set("serve.restart_ready_ms", ready_ms);
    values.set("serve.restart_lost_entries", lost as f64);

    // The journal the session left, re-opened the way a cold start would.
    serve.stop();
    let arch = GpuArch::ga100();
    let started = Instant::now();
    let reopened = PersistentTileCache::open(serve.journal_dir(), arch, JournalConfig::default())
        .map_err(|e| format!("re-open the session's journal: {e}"))?;
    values.set(
        "core.persist.replay_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );
    values.set(
        "core.journal.bytes_per_record",
        reopened.journal_bytes() as f64 / reopened.replayed().max(1) as f64,
    );
    values.set("core.persist.garbage_ratio", reopened.garbage_ratio());
    Ok(())
}

/// `encode_key`, a `TileCache` hit, and a durable `insert_key`, timed
/// directly over the tour's keys.
fn cache_metrics(values: &mut Values, out_dir: &Path) -> Result<(), String> {
    let arch = DeviceProfile::builtin(TOUR_DEVICE)
        .expect("builtin")
        .into_arch();
    let requests: Vec<(Program, ProblemSizes, EatssConfig)> = inputs::catalogue()
        .into_iter()
        .filter(|k| k.device == TOUR_DEVICE)
        .map(|k| {
            Ok((
                k.bench.program().map_err(|e| e.to_string())?,
                k.bench.sizes_uniform(k.n),
                inputs::config_for(k.bench.name),
            ))
        })
        .collect::<Result<_, String>>()?;

    let started = Instant::now();
    for _ in 0..CACHE_REPS {
        for (program, sizes, config) in &requests {
            std::hint::black_box(encode_key(&arch, program, sizes, config));
        }
    }
    values.set(
        "core.cache.key_encode_us",
        mean_us(started.elapsed().as_nanos(), CACHE_REPS * requests.len()),
    );

    let mut cache = TileCache::new(arch.clone());
    let mut results = Vec::with_capacity(requests.len());
    for (program, sizes, config) in &requests {
        results.push(cache.select(program, sizes, config).cloned());
    }
    let started = Instant::now();
    for _ in 0..CACHE_REPS {
        for (program, sizes, config) in &requests {
            let _ = std::hint::black_box(cache.select(program, sizes, config));
        }
    }
    values.set(
        "core.cache.hit_us",
        mean_us(started.elapsed().as_nanos(), CACHE_REPS * requests.len()),
    );
    if cache.stats().misses != requests.len() as u64 {
        return Err("TileCache re-solved a present key".to_string());
    }

    let dir = out_dir.join(format!("append-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = (|| {
        let mut durable = PersistentTileCache::open(&dir, arch.clone(), JournalConfig::default())
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        let started = Instant::now();
        for ((program, sizes, config), result) in requests.iter().zip(results) {
            durable
                .insert_key(encode_key(&arch, program, sizes, config), result)
                .map_err(|e| format!("journal append: {e}"))?;
        }
        values.set(
            "core.persist.append_us",
            mean_us(started.elapsed().as_nanos(), requests.len()),
        );
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// Spawns the product CLI (built next to this binary) `CLI_SPAWNS` times
/// per measurement: a real selection with `--evaluate`, and a usage error
/// that exits before doing anything — the process-spawn floor.
fn cli_metrics(values: &mut Values, win: &mut Window) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let cli = exe.with_file_name("eatss");
    if !cli.exists() {
        return Err(format!(
            "{} is missing: build the whole benchmark package",
            cli.display()
        ));
    }
    let spawn = |args: &[String]| -> Result<(u64, Option<i32>), String> {
        let started = Instant::now();
        let status = Command::new(&cli)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map_err(|e| format!("spawn {}: {e}", cli.display()))?;
        Ok((started.elapsed().as_nanos() as u64, status.code()))
    };
    let kernels = eatss_kernels::all();
    let mut run_ns = Vec::with_capacity(CLI_SPAWNS);
    let mut floor_ns = Vec::with_capacity(CLI_SPAWNS);
    for i in 0..CLI_SPAWNS {
        let kernel = kernels[i % kernels.len()].name;
        let warp_frac = inputs::config_for(kernel).warp_fraction.to_string();
        let args = [
            kernel.to_string(),
            "--evaluate".to_string(),
            "--warp-frac".to_string(),
            warp_frac,
        ];
        let (ns, code) = spawn(&args)?;
        win.attempted += 1;
        if code == Some(0) {
            run_ns.push(ns);
        } else {
            win.fail(format!("`eatss {}` exited with {code:?}", args.join(" ")));
        }
        let (ns, code) = spawn(&["--no-such-flag".to_string()])?;
        if code == Some(2) {
            floor_ns.push(ns);
        } else {
            win.fail(format!(
                "`eatss --no-such-flag` exited with {code:?}, not the usage error"
            ));
        }
    }
    values.set("core.cli.run_ms_p50", p50_us(&mut run_ns) / 1e3);
    values.set("core.cli.spawn_floor_ms_p50", p50_us(&mut floor_ns) / 1e3);
    Ok(())
}

pub fn run(seed: u64, clients: usize, out_dir: &Path) -> Result<Tour, String> {
    let mut values = Values::default();
    let mut win = Window::new(None);

    let (mut rec, sweep_rec) = library_pass(seed, &mut win)?;
    let sweep_summary = sweep_rec.summary();
    rec.absorb(sweep_rec);
    library_metrics(&mut values, &rec.summary(), &sweep_summary, &win.probe);

    serve_metrics(&mut values, &mut win, seed, clients, out_dir)?;
    cache_metrics(&mut values, out_dir)?;
    cli_metrics(&mut values, &mut win)?;

    Ok(Tour {
        values,
        attempted: win.attempted,
        failed: win.failed,
        failures: win.failures,
    })
}
