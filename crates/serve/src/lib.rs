//! **eatss-serve** — a crash-safe tile-selection daemon.
//!
//! Wraps the EATSS solve→compile→measure pipeline in a long-running
//! service speaking JSON-lines over TCP or a unix socket. A request
//! names a kernel (PolyBench benchmark or inline DSL source), problem
//! sizes, configuration knobs, and an optional deadline; the response
//! carries the selected tiles with provenance, served from a
//! [`TileCache`](eatss::TileCache) whose journal (when the daemon is
//! given a cache directory) warm-starts it across restarts — including
//! `kill -9`.
//!
//! See DESIGN.md §12 for the protocol grammar, the journal byte layout,
//! the crash-safety argument, and the overload semantics. The chaos,
//! `kill -9` and journal-corruption checks are this crate's integration
//! tests.
//!
//! # Examples
//!
//! ```
//! use eatss_serve::{start, Client, ServerConfig};
//!
//! let handle = start(ServerConfig::default())?;
//! let mut client = Client::connect_tcp(&handle.tcp_addr().unwrap().to_string())?;
//! let reply = client.request_line(r#"{"op": "ping"}"#)?;
//! assert_eq!(reply.get("status").and_then(|s| s.as_str()), Some("ok"));
//! handle.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod dispatch;
pub mod flight;
mod handlers;
pub mod protocol;
pub mod server;
mod transport;

pub use client::Client;
pub use flight::{FlightRecorder, RequestRecord, TraceWhich};
pub use protocol::{
    parse_request, FrameReader, Op, ProtocolError, Request, SelectRequest, SizeSpec, TraceQuery,
    PROTOCOL_VERSION,
};
pub use server::{start, Endpoint, ServerAddr, ServerConfig, ServerHandle, ServerStats};
