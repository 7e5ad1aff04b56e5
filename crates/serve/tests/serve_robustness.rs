//! In-process robustness tests for the tuning daemon: protocol
//! hardening, coalescing, overload shedding, panic isolation, deadline
//! anytime behaviour, infeasible caching, unix sockets, graceful drain,
//! measurement faults, and all of it at once under seeded chaos.

mod common;

use common::{at, connect, error_kind, number, status, temp_dir, test_server, tiles};
use eatss_gpusim::FaultPlan;
use eatss_serve::client::{Client, SelectArgs};
use eatss_serve::server::{Endpoint, ServerConfig};
use eatss_trace::json::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Duration;

#[test]
fn select_solves_and_second_request_hits() {
    let handle = test_server(|_| {});
    let mut client = connect(&handle);
    let mut args = SelectArgs::kernel("gemm");
    args.n = Some(1024);
    let first = client.select(&args).unwrap();
    assert_eq!(status(&first), "ok");
    assert_eq!(first.get("provenance").and_then(Json::as_str), Some("solved"));
    assert_eq!(first.get("cache").and_then(Json::as_str), Some("miss"));
    let tiles = format!("{:?}", first.get("tiles").unwrap());

    let second = client.select(&args).unwrap();
    assert_eq!(status(&second), "ok");
    assert_eq!(second.get("cache").and_then(Json::as_str), Some("hit"));
    assert_eq!(format!("{:?}", second.get("tiles").unwrap()), tiles);

    let stats = handle.cache_stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
    handle.shutdown();
}

#[test]
fn infeasible_is_served_from_cache_not_resolved() {
    // Satellite: `Unsatisfiable` is a valid, cacheable answer. The
    // second request must be a cache hit counted against the entry
    // recorded in `TileCacheStats::infeasible`, not a re-solve.
    let handle = test_server(|_| {});
    let mut client = connect(&handle);
    let mut args = SelectArgs::kernel("gemm");
    args.n = Some(8); // WAF 16 > extents of 8 ⇒ proved unsatisfiable

    let first = client.select(&args).unwrap();
    assert_eq!(status(&first), "infeasible");
    assert_eq!(first.get("cache").and_then(Json::as_str), Some("miss"));

    let second = client.select(&args).unwrap();
    assert_eq!(status(&second), "infeasible");
    assert_eq!(second.get("cache").and_then(Json::as_str), Some("hit"));

    let stats = handle.cache_stats();
    assert_eq!(stats.infeasible, 1, "one infeasible entry, solved once");
    assert_eq!(stats.misses, 1, "second request must not re-solve");
    assert_eq!(stats.hits, 1);
    handle.shutdown();
}

#[test]
fn malformed_lines_get_typed_errors_and_connection_survives() {
    let handle = test_server(|_| {});
    let mut client = connect(&handle);

    let reply = client.request_line("this is not json").unwrap();
    assert_eq!(status(&reply), "error");
    assert_eq!(error_kind(&reply), Some("bad_json"));

    let reply = client.request_line("[1, 2, 3]").unwrap();
    assert_eq!(error_kind(&reply), Some("not_an_object"));

    let reply = client.request_line(r#"{"op": "select"}"#).unwrap();
    assert_eq!(error_kind(&reply), Some("missing_field"));

    let reply = client
        .request_line(r#"{"kernel": "not-a-kernel"}"#)
        .unwrap();
    assert_eq!(error_kind(&reply), Some("unknown_kernel"));

    // A `sizes` the daemon cannot use is an error, never a reason to
    // answer for the default dataset instead.
    let reply = client
        .request_line(r#"{"kernel":"gemm","sizes":[1,2]}"#)
        .unwrap();
    assert_eq!(error_kind(&reply), Some("bad_field"), "{reply:?}");

    // After five garbage lines the same connection still works.
    assert_eq!(status(&client.ping().unwrap()), "ok");
    handle.shutdown();
}

#[test]
fn oversized_frame_is_rejected_and_connection_closed() {
    let handle = test_server(|c| c.max_frame_bytes = 1024);
    let mut client = connect(&handle);
    client.write_raw(&vec![b'a'; 4096]).unwrap();
    let reply = client.read_response().unwrap();
    assert_eq!(status(&reply), "error");
    assert_eq!(error_kind(&reply), Some("frame_too_large"));
    // Framing is lost: the server closes. A fresh connection works.
    let mut fresh = connect(&handle);
    assert_eq!(status(&fresh.ping().unwrap()), "ok");
    handle.shutdown();
}

#[test]
fn slow_loris_is_cut_off_idle_keepalive_is_not() {
    let handle = test_server(|c| c.read_timeout = Duration::from_millis(300));

    // Idle (no partial frame): connection survives well past the stall
    // budget.
    let mut idle = connect(&handle);
    std::thread::sleep(Duration::from_millis(700));
    assert_eq!(status(&idle.ping().unwrap()), "ok");

    // Mid-frame stall: timeout error, then close.
    let mut loris = connect(&handle);
    loris.write_raw(b"{\"op\": \"sel").unwrap();
    std::thread::sleep(Duration::from_millis(700));
    let reply = loris.read_response().unwrap();
    assert_eq!(error_kind(&reply), Some("timeout"));
    // The cut-off is an `error` reply, and counted as one.
    assert_eq!(handle.stats().errors, 1);
    handle.shutdown();
}

#[test]
fn worker_panic_becomes_error_response_and_daemon_survives() {
    let handle = test_server(|c| c.allow_chaos = true);
    let mut client = connect(&handle);
    let mut args = SelectArgs::kernel("gemm");
    args.n = Some(700);
    args.chaos = Some("panic".to_string());
    let reply = client.select(&args).unwrap();
    assert_eq!(status(&reply), "error");
    assert_eq!(error_kind(&reply), Some("worker_panic"));
    assert_eq!(handle.stats().panics_caught, 1);

    // Same connection, same worker pool: a real solve still succeeds.
    args.chaos = None;
    let reply = client.select(&args).unwrap();
    assert_eq!(status(&reply), "ok");
    handle.shutdown();
}

#[test]
fn overload_sheds_with_retry_hint() {
    let handle = test_server(|c| {
        c.allow_chaos = true;
        c.workers = 1;
        c.queue_capacity = 2;
    });
    let addr = handle.tcp_addr().unwrap().to_string();
    // Saturate: 8 concurrent slow requests with distinct keys against a
    // queue of 2 and one worker.
    let mut threads = Vec::new();
    for i in 0..8 {
        let addr = addr.clone();
        threads.push(std::thread::spawn(move || {
            let mut client = Client::connect_tcp(&addr).unwrap();
            let mut args = SelectArgs::kernel("gemm");
            args.n = Some(3000 + i);
            args.chaos = Some("sleep:300".to_string());
            client.select(&args).unwrap()
        }));
    }
    let replies: Vec<Json> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    let shed: Vec<&Json> = replies.iter().filter(|r| status(r) == "overloaded").collect();
    assert!(!shed.is_empty(), "queue of 2 must shed some of 8 requests");
    for r in &shed {
        let hint = r.get("retry_after_ms").and_then(Json::as_f64);
        assert!(hint.is_some_and(|ms| ms >= 50.0), "hint in {r:?}");
    }
    let stats = handle.stats();
    assert_eq!(stats.shed, shed.len() as u64);
    // A shed is an `overloaded` reply, not an `error` one.
    assert_eq!(stats.errors, 0);
    handle.shutdown();
}

#[test]
fn identical_concurrent_requests_coalesce_to_one_solve() {
    let handle = test_server(|c| {
        c.allow_chaos = true;
        c.workers = 2;
    });
    let addr = handle.tcp_addr().unwrap().to_string();
    let mut threads = Vec::new();
    for _ in 0..6 {
        let addr = addr.clone();
        threads.push(std::thread::spawn(move || {
            let mut client = Client::connect_tcp(&addr).unwrap();
            let mut args = SelectArgs::kernel("atax");
            args.n = Some(4000);
            // The sleep keeps the first request in flight while the rest
            // arrive, making coalescing deterministic.
            args.chaos = Some("sleep:250".to_string());
            client.select(&args).unwrap()
        }));
        std::thread::sleep(Duration::from_millis(20));
    }
    let replies: Vec<Json> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    let tiles: Vec<String> = replies
        .iter()
        .map(|r| {
            assert_eq!(status(r), "ok", "{r:?}");
            format!("{:?}", r.get("tiles").unwrap())
        })
        .collect();
    assert!(tiles.windows(2).all(|w| w[0] == w[1]), "all waiters share one solution");
    let coalesced = replies
        .iter()
        .filter(|r| r.get("cache").and_then(Json::as_str) == Some("coalesced"))
        .count();
    assert!(coalesced >= 4, "expected most requests to coalesce, got {coalesced}");
    // One solve for the whole herd.
    assert_eq!(handle.cache_stats().misses, 1);
    handle.shutdown();
}

#[test]
fn tiny_deadline_still_answers_with_provenance() {
    let handle = test_server(|_| {});
    let mut client = connect(&handle);
    let mut args = SelectArgs::kernel("gemm");
    args.n = Some(2000);
    args.deadline_ms = Some(1);
    let reply = client.select(&args).unwrap();
    // Anytime contract: either a best-so-far solution (incomplete) or
    // the 32^d fallback — never a hang, never a bare failure.
    assert_eq!(status(&reply), "ok", "{reply:?}");
    let provenance = reply.get("provenance").and_then(Json::as_str).unwrap();
    assert!(
        ["solved", "incomplete", "fallback"].contains(&provenance),
        "unexpected provenance {provenance}"
    );
    handle.shutdown();
}

#[test]
fn evaluate_attaches_measurement() {
    let handle = test_server(|_| {});
    let mut client = connect(&handle);
    let mut args = SelectArgs::kernel("mvt");
    args.n = Some(4000);
    args.evaluate = true;
    let reply = client.select(&args).unwrap();
    assert_eq!(status(&reply), "ok");
    let eval = reply.get("eval").expect("eval section");
    assert!(eval.get("energy_j").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(eval.get("ppw").and_then(Json::as_f64).unwrap() > 0.0);
    handle.shutdown();
}

#[test]
fn verify_attaches_batched_oracle_verdict() {
    let handle = test_server(|_| {});
    let mut client = connect(&handle);
    let mut args = SelectArgs::kernel("gemm");
    args.n = Some(64);
    args.verify = true;
    let reply = client.select(&args).unwrap();
    assert_eq!(status(&reply), "ok");
    let verify = reply.get("verify").expect("verify section");
    // The selection plus the 32^d fallback config, each executed and
    // compared bitwise against the reference interpreter.
    assert!(verify.get("configs").and_then(Json::as_f64).unwrap() >= 1.0);
    assert!(verify.get("points").and_then(Json::as_f64).unwrap() > 0.0);
    handle.shutdown();
}

#[test]
fn inline_source_requests_work() {
    let handle = test_server(|_| {});
    let mut client = connect(&handle);
    let args = SelectArgs {
        source: Some(
            "kernel mm(M, N, P) {
               for (i: M) for (j: N) for (k: P)
                 C[i][j] += A[i][k] * B[k][j];
             }"
            .to_string(),
        ),
        n: Some(1500),
        ..SelectArgs::default()
    };
    let reply = client.select(&args).unwrap();
    assert_eq!(status(&reply), "ok", "{reply:?}");
    assert_eq!(
        reply.get("tiles").and_then(Json::as_array).map(<[Json]>::len),
        Some(3)
    );
    handle.shutdown();
}

#[cfg(unix)]
#[test]
fn unix_socket_endpoint_works() {
    let path = std::env::temp_dir().join(format!("eatss-serve-{}.sock", std::process::id()));
    let handle = test_server(|c| c.endpoint = Endpoint::Unix(path.clone()));
    let mut client = Client::connect_unix(&path).expect("unix connect");
    assert_eq!(status(&client.ping().unwrap()), "ok");
    let mut args = SelectArgs::kernel("bicg");
    args.n = Some(1024);
    assert_eq!(status(&client.select(&args).unwrap()), "ok");
    handle.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn graceful_drain_finishes_queued_work() {
    let dir = temp_dir("drain");
    let handle = test_server(|c| {
        c.allow_chaos = true;
        c.cache_dir = Some(dir.clone());
        c.workers = 1;
    });
    let addr = handle.tcp_addr().unwrap().to_string();
    // Put a slow job in flight, then shut down while it runs.
    let worker = std::thread::spawn(move || {
        let mut client = Client::connect_tcp(&addr).unwrap();
        let mut args = SelectArgs::kernel("gesummv");
        args.n = Some(1024);
        args.chaos = Some("sleep:300".to_string());
        client.select(&args).unwrap()
    });
    std::thread::sleep(Duration::from_millis(100));
    let stats = handle.shutdown(); // must drain, not abandon
    let reply = worker.join().unwrap();
    assert_eq!(status(&reply), "ok", "in-flight request completes during drain");
    assert_eq!(stats.ok, 1);

    // The drained result was committed before the response went out.
    let handle = test_server(|c| c.cache_dir = Some(dir.clone()));
    assert_eq!(handle.replayed(), 1, "drained solve is durable");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_start_after_clean_restart() {
    let dir = temp_dir("warm");
    let mut args = SelectArgs::kernel("gemm");
    args.n = Some(900);
    let tiles = {
        let handle = test_server(|c| c.cache_dir = Some(dir.clone()));
        let mut client = connect(&handle);
        let reply = client.select(&args).unwrap();
        assert_eq!(status(&reply), "ok");
        let tiles = format!("{:?}", reply.get("tiles").unwrap());
        handle.shutdown();
        tiles
    };
    let handle = test_server(|c| c.cache_dir = Some(dir.clone()));
    assert_eq!(handle.replayed(), 1);
    let mut client = connect(&handle);
    let reply = client.select(&args).unwrap();
    assert_eq!(reply.get("cache").and_then(Json::as_str), Some("hit"));
    assert_eq!(format!("{:?}", reply.get("tiles").unwrap()), tiles);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_op_reports_counters() {
    let handle = test_server(|_| {});
    let mut client = connect(&handle);
    let mut args = SelectArgs::kernel("gemm");
    args.n = Some(640);
    client.select(&args).unwrap();
    client.select(&args).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(status(&stats), "ok");
    assert_eq!(number(&stats, &["cache", "hits"]), Some(1.0));
    assert_eq!(number(&stats, &["cache", "misses"]), Some(1.0));
    assert!(number(&stats, &["server", "requests"]) >= Some(3.0));
    handle.shutdown();
}

#[test]
fn pareto_does_not_answer_later_selects() {
    let handle = test_server(|_| {});
    let mut client = connect(&handle);
    let mut args = SelectArgs::kernel("gemm");
    args.n = Some(128);
    args.warp_frac = Some(0.5);
    args.arch = Some("xavier".to_string());
    args.pareto = true;
    let reply = client.select(&args).unwrap();
    assert_eq!(status(&reply), "ok");
    assert_eq!(reply.get("device").and_then(Json::as_str), Some("Xavier"));
    let front: Vec<Json> = reply
        .get("front")
        .and_then(Json::as_array)
        .expect("front array")
        .to_vec();
    assert!(!front.is_empty(), "a measurable sweep has a front");
    let points = reply.get("points").and_then(Json::as_f64).unwrap();
    assert!(front.len() as f64 <= points);
    // Deterministic ordering: ascending energy, strictly increasing
    // throughput — which also proves no front point dominates another.
    let coords: Vec<(f64, f64)> = front
        .iter()
        .map(|e| {
            (
                e.get("energy_j").and_then(Json::as_f64).unwrap(),
                e.get("gflops").and_then(Json::as_f64).unwrap(),
            )
        })
        .collect();
    for pair in coords.windows(2) {
        assert!(pair[0].0 <= pair[1].0, "front not sorted by energy");
        assert!(pair[0].1 < pair[1].1, "front throughput not increasing");
    }

    // The sweep solved split 0 along a warm chain and met another of its
    // tied optima; a select of that configuration is solved on its own
    // and gets the library's answer.
    let gemm = eatss_kernels::by_name("gemm").expect("registered");
    let xavier = eatss_gpusim::DeviceProfile::builtin("xavier").expect("builtin").into_arch();
    let config = eatss::EatssConfig {
        split_factor: 0.0,
        ..eatss::EatssConfig::default()
    };
    let library = eatss::Eatss::new(xavier)
        .select_tiles(&gemm.program().unwrap(), &gemm.sizes_uniform(128), &config)
        .expect("feasible");
    assert_eq!(library.tiles.sizes(), [96, 112, 16]);
    args.pareto = false;
    args.split = Some(0.0);
    let select = client.select(&args).unwrap();
    assert_eq!(status(&select), "ok");
    assert_eq!(select.get("cache").and_then(Json::as_str), Some("miss"));
    assert_eq!(tiles(&select), library.tiles.sizes());
    handle.shutdown();
}

#[test]
fn pareto_verify_runs_batched_oracle_over_the_front() {
    let handle = test_server(|_| {});
    let mut client = connect(&handle);
    let mut args = SelectArgs::kernel("mvt");
    args.n = Some(700);
    args.pareto = true;
    args.verify = true;
    let reply = client.select(&args).unwrap();
    assert_eq!(status(&reply), "ok");
    let front_len = reply
        .get("front")
        .and_then(Json::as_array)
        .expect("front array")
        .len();
    let verify = reply.get("verify").expect("verify section in response");
    assert_eq!(
        verify.get("configs").and_then(Json::as_f64),
        Some(front_len as f64),
        "every front point goes through the oracle"
    );
    assert!(verify.get("points").and_then(Json::as_f64).unwrap() > 0.0);
    handle.shutdown();
}

#[test]
fn device_field_scopes_requests_and_rejects_unknown_names() {
    let handle = test_server(|_| {});
    let mut client = connect(&handle);
    // Every built-in profile answers.
    for device in ["ga100", "xavier", "h100", "orin", "nano"] {
        let mut args = SelectArgs::kernel("gemm");
        args.n = Some(512);
        args.arch = Some(device.to_string());
        let reply = client.select(&args).unwrap();
        assert!(
            status(&reply) == "ok" || status(&reply) == "infeasible",
            "device {device} failed: {reply:?}"
        );
    }
    // Different devices are different cache keys: ga100 and xavier
    // selections above were both misses, never cross-hits.
    let stats = handle.cache_stats();
    assert_eq!(stats.hits, 0);
    // An unknown device is a typed protocol error naming the field.
    let reply = client
        .request_line(r#"{"kernel": "gemm", "device": "tpu9"}"#)
        .unwrap();
    assert_eq!(status(&reply), "error");
    assert_eq!(error_kind(&reply), Some("bad_field"));
    let message = at(&reply, &["error", "message"]).and_then(Json::as_str);
    assert!(message.unwrap().contains("device"));
    handle.shutdown();
}

#[test]
fn select_without_kernel_or_source_is_typed_and_worker_survives() {
    // Regression: a select carrying neither `kernel` nor `source` used to
    // reach the resolver's `.expect("kernel or source required")`. The
    // protocol layer answers `missing_field` and the resolver itself now
    // degrades to a typed `bad_field` — either way, no worker panics and
    // the connection keeps serving.
    let handle = test_server(|_| {});
    let mut client = connect(&handle);

    let reply = client
        .request_line(r#"{"op": "select", "n": 64}"#)
        .unwrap();
    assert_eq!(status(&reply), "error");
    assert_eq!(error_kind(&reply), Some("missing_field"));

    assert_eq!(status(&client.ping().unwrap()), "ok");
    assert_eq!(handle.stats().panics_caught, 0, "no worker panic");
    handle.shutdown();
}

#[test]
fn inline_source_is_parsed_and_timed_per_request() {
    let handle = test_server(|_| {});
    let mut client = connect(&handle);

    let counter = |client: &mut Client, name: &str| -> f64 {
        let reply = client.metrics().unwrap();
        number(&reply, &["metrics", "counters", name]).unwrap_or(0.0)
    };
    // Counters are process-global, so assert monotone deltas rather than
    // absolute values.
    let bytes_before = counter(&mut client, "parse.bytes");

    let source = "kernel scaled_copy(N) { for (i: N) out_buf[i] = in_buf[i] * 0.5; }";
    let args = SelectArgs {
        source: Some(source.to_string()),
        n: Some(256),
        ..SelectArgs::default()
    };
    assert_eq!(status(&client.select(&args).unwrap()), "ok");
    assert_eq!(status(&client.select(&args).unwrap()), "ok");

    let bytes_after = counter(&mut client, "parse.bytes");
    assert!(
        bytes_after >= bytes_before + 2.0 * source.len() as f64,
        "each select must parse the source: {bytes_before} -> {bytes_after}"
    );

    // The front-end stage has its own latency histogram.
    let reply = client.metrics().unwrap();
    let parse_us = number(&reply, &["metrics", "histograms", "serve.parse_us", "count"]);
    let parse_us = parse_us.unwrap_or(0.0);
    assert!(parse_us >= 2.0, "both selects time the parse stage: {parse_us}");
    handle.shutdown();
}

#[test]
fn measurement_fault_is_an_eval_error_in_an_ok_reply() {
    // Every simulated launch fails: the selection stands, its
    // measurement is reported as the error it is.
    let handle =
        test_server(|c| c.fault_plan = Some(FaultPlan::new(1).with_rates(1.0, 0.0, 0.0)));
    let mut client = connect(&handle);
    let mut args = SelectArgs::kernel("gemm");
    args.n = Some(512);
    args.evaluate = true;
    let faulted = client.select(&args).unwrap();
    assert_eq!(status(&faulted), "ok", "{faulted:?}");
    assert!(faulted.get("eval").is_none(), "{faulted:?}");
    let eval_error = at(&faulted, &["eval_error", "kind"]).and_then(Json::as_str);
    assert_eq!(eval_error, Some("measure"), "{faulted:?}");

    // The same connection serves a clean select of the committed answer.
    args.evaluate = false;
    let clean = client.select(&args).unwrap();
    assert_eq!(status(&clean), "ok");
    assert_eq!(clean.get("cache").and_then(Json::as_str), Some("hit"));
    assert_eq!(tiles(&clean), tiles(&faulted));
    handle.shutdown();
}

fn pick<T: Copy>(rng: &mut StdRng, choices: &[T]) -> T {
    choices[rng.gen_range(0..choices.len())]
}

/// One chaos client: `requests` selects drawn from `seed`. About one
/// select in sixteen comes after each of a malformed line, an oversized
/// frame, a mid-frame stall and a mid-frame hang-up; as many ask for a
/// worker panic, a 1–3 ms deadline or a proved infeasibility; one in four
/// asks for a measurement. Returns every select with its reply.
fn chaos_client(
    addr: &str,
    seed: u64,
    requests: usize,
    stall: Duration,
) -> Vec<(SelectArgs, Json)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut client = Client::connect_tcp(addr).unwrap();
    let mut replies = Vec::with_capacity(requests);
    for _ in 0..requests {
        let kernel = pick(&mut rng, &["gemm", "atax", "bicg", "mvt", "gesummv"]);
        let mut args = SelectArgs::kernel(kernel);
        args.n = Some(pick(&mut rng, &[512, 1024, 2000]));
        args.split = Some(pick(&mut rng, &[0.0, 0.5, 0.67]));
        args.warp_frac = Some(pick(&mut rng, &[0.125, 0.25, 0.5, 1.0]));
        args.evaluate = rng.gen_range(0..4u32) == 0;
        match rng.gen_range(0..16u32) {
            0 => {
                let reply = client.request_line(r#"{"op": "select", not json"#).unwrap();
                assert_eq!(error_kind(&reply), Some("bad_json"));
            }
            // The daemon answers these two, then closes the connection.
            1 => {
                let _ = client.write_raw(&vec![b'x'; 80 << 10]);
                let _ = client.read_response();
                client = Client::connect_tcp(addr).unwrap();
            }
            2 => {
                let _ = client.write_raw(br#"{"op": "sel"#);
                std::thread::sleep(stall);
                let _ = client.read_response();
                client = Client::connect_tcp(addr).unwrap();
            }
            3 => {
                let _ = client.write_raw(br#"{"kernel": "ge"#);
                client = Client::connect_tcp(addr).unwrap();
            }
            4 => args.chaos = Some("panic".to_string()),
            5 => args.deadline_ms = Some(rng.gen_range(1..4u64)),
            // WAF 16 exceeds extents of 8.
            6 => args = SelectArgs { n: Some(8), ..SelectArgs::kernel("gemm") },
            _ => {}
        }
        let reply = client.select(&args).expect("every select is answered");
        replies.push((args, reply));
    }
    replies
}

#[test]
fn concurrent_chaos_mix_keeps_the_daemon_answering_and_its_commits_durable() {
    let dir = temp_dir("chaos");
    let read_timeout = Duration::from_millis(100);
    // Two workers and one queue slot: four concurrent misses shed one.
    let chaotic = |c: &mut ServerConfig| {
        c.cache_dir = Some(dir.clone());
        c.workers = 2;
        c.queue_capacity = 1;
        c.max_frame_bytes = 64 << 10;
        c.read_timeout = read_timeout;
        c.allow_chaos = true;
        c.fault_plan = Some(FaultPlan::new(7).with_rates(0.05, 0.05, 0.05));
    };
    let handle = test_server(chaotic);
    let addr = handle.tcp_addr().unwrap().to_string();
    let stall = read_timeout + Duration::from_millis(150);
    let clients: Vec<_> = (0..4u64)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || chaos_client(&addr, 42 + i, 25, stall))
        })
        .collect();
    let replies: Vec<(SelectArgs, Json)> =
        clients.into_iter().flat_map(|c| c.join().unwrap()).collect();
    assert_eq!(status(&connect(&handle).ping().unwrap()), "ok", "the daemon survived");

    // What the daemon committed: proved infeasibilities and solved
    // selections, keyed by the request without what the cache key ignores.
    let mut committed: BTreeMap<String, (SelectArgs, String, String)> = BTreeMap::new();
    for (args, reply) in &replies {
        let committed_answer = match status(reply) {
            "overloaded" => {
                let hint = reply.get("retry_after_ms").and_then(Json::as_f64);
                assert!(hint.is_some(), "shed without a retry hint: {reply:?}");
                false
            }
            "ok" => reply.get("provenance").and_then(Json::as_str) == Some("solved"),
            "infeasible" => true,
            _ => false,
        };
        if committed_answer {
            let plain = SelectArgs {
                chaos: None,
                deadline_ms: None,
                evaluate: false,
                ..args.clone()
            };
            let tiles = format!("{:?}", reply.get("tiles"));
            let st = status(reply).to_string();
            committed.entry(plain.to_line()).or_insert((plain, st, tiles));
        }
    }
    assert!(!committed.is_empty(), "the mix committed nothing");
    handle.shutdown();

    // After a restart every committed answer is a hit, and the same one.
    let handle = test_server(chaotic);
    let mut client = connect(&handle);
    for (args, st, tiles) in committed.values() {
        let reply = client.select(args).unwrap();
        assert_eq!(status(&reply), st, "{reply:?}");
        assert_eq!(reply.get("cache").and_then(Json::as_str), Some("hit"), "{reply:?}");
        assert_eq!(&format!("{:?}", reply.get("tiles")), tiles);
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
