//! A small blocking client for the daemon — used by the tests (the chaos
//! and crash checks among them) and the end-to-end benchmark. One
//! request per call, parsed responses, explicit timeouts.

use crate::protocol::{object_line, str_field, FrameReader, ProtocolError};
use crate::transport::{Socket, Stream};
use eatss_trace::json::{number, Json};
use std::io::{self, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// A connected protocol client.
pub struct Client {
    stream: Stream,
    reader: FrameReader,
}

impl Client {
    /// Connects over TCP with a 30 s response timeout.
    ///
    /// # Errors
    ///
    /// Connection or socket-option failures.
    pub fn connect_tcp(addr: &str) -> io::Result<Client> {
        Client::connect_tcp_timeout(addr, Duration::from_secs(30))
    }

    /// Connects over TCP with an explicit response timeout.
    ///
    /// # Errors
    ///
    /// Connection or socket-option failures.
    pub fn connect_tcp_timeout(addr: &str, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Client::over(stream, timeout)
    }

    fn over(stream: impl Socket + 'static, timeout: Duration) -> io::Result<Client> {
        stream.set_timeouts(timeout, timeout)?;
        Ok(Client {
            stream: Box::new(stream),
            reader: FrameReader::new(1 << 20),
        })
    }

    /// Connects to a unix socket.
    ///
    /// # Errors
    ///
    /// Connection or socket-option failures.
    #[cfg(unix)]
    pub fn connect_unix(path: &Path) -> io::Result<Client> {
        Client::over(UnixStream::connect(path)?, Duration::from_secs(30))
    }

    /// Sends one raw line and reads one response line, parsed.
    ///
    /// # Errors
    ///
    /// Transport failures ([`ProtocolError::Io`]/`Timeout`/
    /// `ConnectionClosed`) or an unparseable response.
    pub fn request_line(&mut self, line: &str) -> Result<Json, ProtocolError> {
        // Frame in one write: a trailing 1-byte newline write would sit
        // in Nagle's buffer until the server ACKs the first packet.
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.stream
            .write_all(framed.as_bytes())
            .and_then(|()| self.stream.flush())
            .map_err(io_to_protocol)?;
        self.read_response()
    }

    /// Reads the next response line without sending anything — for
    /// pipelined or chaos-mode use.
    ///
    /// # Errors
    ///
    /// Same as [`Client::request_line`].
    pub fn read_response(&mut self) -> Result<Json, ProtocolError> {
        let line = self
            .reader
            .next_frame(&mut self.stream)?
            .ok_or(ProtocolError::ConnectionClosed)?;
        Json::parse(&line).map_err(ProtocolError::BadJson)
    }

    /// Writes raw bytes without framing — for chaos tests.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn write_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Convenience: a `select` request for a named benchmark.
    ///
    /// # Errors
    ///
    /// Same as [`Client::request_line`].
    pub fn select(&mut self, req: &SelectArgs) -> Result<Json, ProtocolError> {
        self.request_line(&req.to_line())
    }

    /// Convenience: the `stats` op.
    ///
    /// # Errors
    ///
    /// Same as [`Client::request_line`].
    pub fn stats(&mut self) -> Result<Json, ProtocolError> {
        self.request_line(r#"{"op": "stats"}"#)
    }

    /// Convenience: the `ping` op.
    ///
    /// # Errors
    ///
    /// Same as [`Client::request_line`].
    pub fn ping(&mut self) -> Result<Json, ProtocolError> {
        self.request_line(r#"{"op": "ping"}"#)
    }

    /// Convenience: the `metrics` op (full registry as JSON +
    /// Prometheus text).
    ///
    /// # Errors
    ///
    /// Same as [`Client::request_line`].
    pub fn metrics(&mut self) -> Result<Json, ProtocolError> {
        self.request_line(r#"{"op": "metrics"}"#)
    }

    /// Convenience: the `trace` op — exports flight-recorder records
    /// (`which` ∈ recent/slowest/errors) as a Chrome trace document
    /// under the response's `trace` key.
    ///
    /// # Errors
    ///
    /// Same as [`Client::request_line`].
    pub fn trace_export(&mut self, which: &str, limit: usize) -> Result<Json, ProtocolError> {
        let line = object_line(&[
            ("op", str_field("trace")),
            ("which", str_field(which)),
            ("limit", limit.to_string()),
        ]);
        self.request_line(&line)
    }

    /// Convenience: the in-band `shutdown` op.
    ///
    /// # Errors
    ///
    /// Same as [`Client::request_line`].
    pub fn shutdown(&mut self) -> Result<Json, ProtocolError> {
        self.request_line(r#"{"op": "shutdown"}"#)
    }
}

fn io_to_protocol(e: io::Error) -> ProtocolError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ProtocolError::Timeout,
        io::ErrorKind::ConnectionReset
        | io::ErrorKind::BrokenPipe
        | io::ErrorKind::UnexpectedEof => ProtocolError::ConnectionClosed,
        _ => ProtocolError::Io(e.to_string()),
    }
}

/// Builder for a `select` request line.
#[derive(Debug, Clone, Default)]
pub struct SelectArgs {
    /// Correlation id.
    pub id: Option<String>,
    /// Benchmark name (exclusive with `source`).
    pub kernel: Option<String>,
    /// Inline DSL source.
    pub source: Option<String>,
    /// Uniform problem size (`n`).
    pub n: Option<i64>,
    /// Named dataset (`"standard"` / `"xl"`).
    pub dataset: Option<String>,
    /// Split factor.
    pub split: Option<f64>,
    /// Warp fraction.
    pub warp_frac: Option<f64>,
    /// FP32 precision.
    pub fp32: bool,
    /// Strict thread-block cap.
    pub strict_cap: bool,
    /// Device profile name (rendered as the `device` wire field).
    pub arch: Option<String>,
    /// Ask for the configuration sweep's Pareto front
    /// (`{"op":"pareto"}`) instead of a single selection.
    pub pareto: bool,
    /// Per-request deadline.
    pub deadline_ms: Option<u64>,
    /// Also measure the selection.
    pub evaluate: bool,
    /// Also verify the selection against the reference interpreter.
    pub verify: bool,
    /// Chaos directive (server must allow chaos).
    pub chaos: Option<String>,
}

impl SelectArgs {
    /// A request for a named benchmark at standard sizes.
    pub fn kernel(name: &str) -> Self {
        SelectArgs {
            kernel: Some(name.to_string()),
            ..SelectArgs::default()
        }
    }

    /// Renders the request line.
    pub fn to_line(&self) -> String {
        let op = if self.pareto { "pareto" } else { "select" };
        let mut fields: Vec<(&str, String)> = vec![("op", str_field(op))];
        if let Some(id) = &self.id {
            fields.push(("id", str_field(id)));
        }
        if let Some(k) = &self.kernel {
            fields.push(("kernel", str_field(k)));
        }
        if let Some(s) = &self.source {
            fields.push(("source", str_field(s)));
        }
        if let Some(n) = self.n {
            fields.push(("n", n.to_string()));
        }
        if let Some(d) = &self.dataset {
            fields.push(("dataset", str_field(d)));
        }
        if let Some(s) = self.split {
            fields.push(("split", number(s)));
        }
        if let Some(w) = self.warp_frac {
            fields.push(("warp_frac", number(w)));
        }
        if self.fp32 {
            fields.push(("fp32", "true".to_string()));
        }
        if self.strict_cap {
            fields.push(("strict_cap", "true".to_string()));
        }
        if let Some(a) = &self.arch {
            fields.push(("device", str_field(a)));
        }
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms", ms.to_string()));
        }
        if self.evaluate {
            fields.push(("evaluate", "true".to_string()));
        }
        if self.verify {
            fields.push(("verify", "true".to_string()));
        }
        if let Some(c) = &self.chaos {
            fields.push(("chaos", str_field(c)));
        }
        object_line(&fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_request;

    #[test]
    fn select_args_render_parseable_requests() {
        let mut args = SelectArgs::kernel("gemm");
        args.id = Some("x".into());
        args.n = Some(512);
        args.split = Some(0.67);
        args.deadline_ms = Some(100);
        args.evaluate = true;
        args.verify = true;
        let parsed = parse_request(&args.to_line()).unwrap();
        assert_eq!(parsed.id.as_deref(), Some("x"));
        let crate::protocol::Op::Select(s) = parsed.op else {
            panic!("expected a select, got {:?}", parsed.op);
        };
        assert_eq!(s.kernel.as_deref(), Some("gemm"));
        assert_eq!(s.deadline_ms, Some(100));
        assert!(s.evaluate);
        assert!(s.verify);
    }
}
