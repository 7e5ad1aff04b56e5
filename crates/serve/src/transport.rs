//! Transport: listening sockets, the accept loop, and the per-connection
//! frame loop. Nothing here knows what a request means — lines go to
//! [`handle_line`], responses come back through [`send`].

use crate::handlers::handle_line;
use crate::protocol::{FrameReader, ProtocolError, Response};
use crate::server::{bump, Endpoint, ServerAddr, Shared};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::Arc;
use std::time::Duration;

/// Socket read tick: frame reads wake this often so an idle connection
/// notices shutdown and a mid-frame stall can be timed.
const READ_TICK: Duration = Duration::from_millis(100);

/// Per-write socket timeout.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// What the daemon (and the client) need of a connected socket beyond
/// reading and writing it.
pub(crate) trait Socket: Read + Write + Send {
    fn set_timeouts(&self, read: Duration, write: Duration) -> io::Result<()>;
    fn duplicate(&self) -> io::Result<Stream>;
    /// Closes the read half only (the shutdown path): a blocked reader
    /// wakes with EOF, but a response still in flight for a drained job
    /// reaches the client before the connection thread exits.
    fn close_read(&self);
}

/// A connected TCP or unix-domain socket.
pub(crate) type Stream = Box<dyn Socket>;

macro_rules! impl_socket {
    ($socket:ty) => {
        impl Socket for $socket {
            fn set_timeouts(&self, read: Duration, write: Duration) -> io::Result<()> {
                self.set_read_timeout(Some(read))?;
                self.set_write_timeout(Some(write))
            }

            fn duplicate(&self) -> io::Result<Stream> {
                Ok(Box::new(self.try_clone()?))
            }

            fn close_read(&self) {
                let _ = self.shutdown(Shutdown::Read);
            }
        }
    };
}

impl_socket!(TcpStream);
#[cfg(unix)]
impl_socket!(UnixStream);

/// Accepts the next connection (`WouldBlock` when nobody is connecting).
pub(crate) type Listener = Box<dyn Fn() -> io::Result<Stream> + Send>;

/// Binds a non-blocking listener and reports where it ended up (the
/// resolved ephemeral port for TCP).
pub(crate) fn listen(endpoint: &Endpoint) -> io::Result<(Listener, ServerAddr)> {
    match endpoint {
        Endpoint::Tcp(spec) => {
            let listener = TcpListener::bind(spec)?;
            listener.set_nonblocking(true)?;
            let addr = ServerAddr::Tcp(listener.local_addr()?);
            let accept = move || {
                let (socket, _) = listener.accept()?;
                // Responses are single small writes; Nagle would hold
                // them behind delayed ACKs (~40 ms each way).
                let _ = socket.set_nodelay(true);
                Ok(Box::new(socket) as Stream)
            };
            Ok((Box::new(accept), addr))
        }
        #[cfg(unix)]
        Endpoint::Unix(path) => {
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            let accept = move || Ok(Box::new(listener.accept()?.0) as Stream);
            Ok((Box::new(accept), ServerAddr::Unix(path.clone())))
        }
    }
}

pub(crate) fn acceptor_loop(shared: &Arc<Shared>, accept: Listener) {
    // Connection threads exit on EOF, fatal protocol error, or shutdown
    // (their socket is closed under them, then they are joined).
    while !shared.shutting_down() {
        // `WouldBlock` (nobody is connecting) and transient accept
        // failures are both answered by polling again shortly.
        let Ok(stream) = accept() else {
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        bump(&shared.counters.connections);
        if stream.set_timeouts(READ_TICK, WRITE_TIMEOUT).is_err() {
            continue;
        }
        let closer = stream.duplicate();
        let conn = Arc::clone(shared);
        let thread = std::thread::Builder::new()
            .name("eatss-conn".to_string())
            .spawn(move || connection_loop(&conn, stream));
        if let (Ok(closer), Ok(thread)) = (closer, thread) {
            shared.conns.lock().unwrap().push((closer, thread));
        }
    }
}

fn connection_loop(shared: &Arc<Shared>, mut stream: Stream) {
    let mut reader = FrameReader::new(shared.config.max_frame_bytes);
    let mut stalled = Duration::ZERO;
    while !shared.shutting_down() {
        let error = match reader.next_frame(&mut stream) {
            Ok(Some(line)) => {
                stalled = Duration::ZERO;
                if handle_line(shared, &mut stream, &line) {
                    continue;
                }
                return;
            }
            Ok(None) => return, // clean EOF
            Err(ProtocolError::Timeout) => {
                // Only a *mid-frame* stall counts against the read
                // timeout (slow-loris); idle keep-alive connections just
                // keep polling.
                if !reader.buffered() {
                    continue;
                }
                stalled += READ_TICK;
                if stalled < shared.config.read_timeout {
                    continue;
                }
                ProtocolError::Timeout
            }
            Err(e) => e,
        };
        // Framing is lost: best-effort notice, then close.
        bump(&shared.counters.protocol_errors);
        bump(&shared.counters.errors);
        let _ = send(&mut stream, None, &Response::from(&error));
        return;
    }
}

/// Writes one response frame.
pub(crate) fn send(stream: &mut Stream, id: Option<&str>, response: &Response) -> io::Result<()> {
    // One write per frame: a separate 1-byte newline write would be a
    // second small packet Nagle delays behind the peer's ACK.
    let mut framed = response.to_line(id);
    framed.push('\n');
    stream.write_all(framed.as_bytes())?;
    stream.flush()
}
