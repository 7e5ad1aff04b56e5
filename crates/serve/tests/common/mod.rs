//! Helpers the serve integration tests share. Each test file compiles
//! this module on its own, so a helper one file does not call is not
//! dead code.
#![allow(dead_code)]

use eatss_serve::client::{Client, SelectArgs};
use eatss_serve::server::{start, ServerConfig, ServerHandle};
use eatss_trace::json::Json;
use std::path::PathBuf;
use std::time::Duration;

/// An in-process server on an ephemeral port, with a 400 ms mid-frame
/// stall budget and whatever else `mutate` sets.
pub fn test_server(mutate: impl FnOnce(&mut ServerConfig)) -> ServerHandle {
    let mut config = ServerConfig {
        read_timeout: Duration::from_millis(400),
        ..ServerConfig::default()
    };
    mutate(&mut config);
    start(config).expect("server starts")
}

/// A client connected to an in-process server over TCP.
pub fn connect(handle: &ServerHandle) -> Client {
    Client::connect_tcp(&handle.tcp_addr().unwrap().to_string()).expect("connect")
}

/// A reply's `status` field (`""` when absent).
pub fn status(reply: &Json) -> &str {
    reply.get("status").and_then(Json::as_str).unwrap_or("")
}

/// The value at `path` under `reply`: `at(r, &["metrics", "gauges"])`
/// is `r.metrics.gauges`.
pub fn at<'a>(reply: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(reply, |json, key| json.get(key))
}

/// The number at `path` under `reply`.
pub fn number(reply: &Json, path: &[&str]) -> Option<f64> {
    at(reply, path).and_then(Json::as_f64)
}

/// A reply's `error.kind` field.
pub fn error_kind(reply: &Json) -> Option<&str> {
    at(reply, &["error", "kind"]).and_then(Json::as_str)
}

/// A reply's `tiles`, as integers.
pub fn tiles(reply: &Json) -> Vec<i64> {
    let tiles = reply.get("tiles").and_then(Json::as_array).expect("tiles");
    tiles
        .iter()
        .filter_map(Json::as_f64)
        .map(|t| t as i64)
        .collect()
}

/// An inline-source select of one 2-D kernel shape whose four reads name
/// `reads`. Name lengths stay the same whichever arrays are named; which
/// reads share an array (and so its cache lines) changes the register
/// constraint and the optimum, so a cache key blind to array identity
/// would answer one such request with another's tiles.
pub fn array_identity_select(reads: [&str; 4]) -> SelectArgs {
    SelectArgs {
        source: Some(format!(
            "kernel k(N) {{ for (i: N) for (j: N) \
             B[i][j] = {}[i][j] + {}[i][j+1] + {}[i][j+2] + {}[i][j+3]; }}",
            reads[0], reads[1], reads[2], reads[3]
        )),
        n: Some(4000),
        ..SelectArgs::default()
    }
}

/// A fresh, absent directory under the system temp dir, unique to this
/// test process and `tag`.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eatss-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
