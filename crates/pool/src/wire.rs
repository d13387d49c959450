//! Socket-level plumbing: framed messages over `std::net::TcpStream` with
//! connect/read/write deadlines.
//!
//! Every blocking operation here is bounded. Connects use
//! [`TcpStream::connect_timeout`]; reads and writes inherit the stream's
//! OS-level timeouts; [`recv`] additionally enforces a whole-message
//! deadline so a peer trickling one byte per timeout period cannot hold a
//! thread forever.

use matchmaker::framing::{encode_framed_traced, frame_body, FrameDecoder};
use matchmaker::protocol::{Message, ProtocolError, Timestamp, TraceContext};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Wall-clock seconds since the Unix epoch — the live runtime's
/// [`Timestamp`] source (the simulator uses its virtual clock instead).
pub fn unix_now() -> Timestamp {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Wall-clock milliseconds since the Unix epoch — the deadline clock for
/// the flock peer table's backoff schedule.
pub fn unix_now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Connect/read/write deadlines applied to every socket operation.
#[derive(Debug, Clone)]
pub struct IoConfig {
    /// Bound on establishing a connection.
    pub connect_timeout: Duration,
    /// Bound on one blocking read — also the idle timeout after which a
    /// server closes a silent connection.
    pub read_timeout: Duration,
    /// Bound on one blocking write.
    pub write_timeout: Duration,
}

impl Default for IoConfig {
    fn default() -> Self {
        IoConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
        }
    }
}

/// Why a socket-level exchange failed.
#[derive(Debug)]
pub enum WireError {
    /// Transport failure (connect refused, reset, ...).
    Io(std::io::Error),
    /// The peer sent bytes that do not decode.
    Protocol(ProtocolError),
    /// The peer sent a structured [`Message::Error`] before closing.
    Remote(String),
    /// The deadline elapsed before a complete message arrived.
    TimedOut,
    /// The peer closed the stream mid-message.
    Closed,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::Protocol(e) => write!(f, "undecodable peer data: {e}"),
            WireError::Remote(d) => write!(f, "peer rejected the exchange: {d}"),
            WireError::TimedOut => f.write_str("deadline elapsed awaiting a complete message"),
            WireError::Closed => f.write_str("peer closed the stream"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => WireError::TimedOut,
            _ => WireError::Io(e),
        }
    }
}

/// Resolve `addr` (a `host:port` contact string) and connect within the
/// configured deadline, leaving read/write timeouts armed on the stream.
pub fn connect(addr: &str, io: &IoConfig) -> Result<TcpStream, WireError> {
    let target = addr
        .to_socket_addrs()
        .map_err(WireError::Io)?
        .next()
        .ok_or_else(|| WireError::Io(ErrorKind::AddrNotAvailable.into()))?;
    let stream = TcpStream::connect_timeout(&target, io.connect_timeout).map_err(WireError::Io)?;
    // Frames are small and often followed by a wait for the reply; Nagle
    // would hold each one back for the peer's delayed ACK.
    stream.set_nodelay(true).map_err(WireError::Io)?;
    stream
        .set_read_timeout(Some(io.read_timeout))
        .map_err(WireError::Io)?;
    stream
        .set_write_timeout(Some(io.write_timeout))
        .map_err(WireError::Io)?;
    Ok(stream)
}

/// Write one framed message. Returns the bytes written, length prefix
/// included, so callers can feed throughput counters.
pub fn send(stream: &mut TcpStream, msg: &Message) -> Result<usize, WireError> {
    send_traced(stream, msg, None)
}

/// Write one framed message with an optional trace-context trailer.
/// Returns the bytes written, length prefix included.
pub fn send_traced(
    stream: &mut TcpStream,
    msg: &Message,
    trace: Option<&TraceContext>,
) -> Result<usize, WireError> {
    let framed = encode_framed_traced(msg, trace);
    stream.write_all(&framed)?;
    Ok(framed.len())
}

/// Write an already-encoded message body with its length prefix.
/// Returns the bytes written, length prefix included.
pub fn send_body(stream: &mut TcpStream, body: &[u8]) -> Result<usize, WireError> {
    let framed = frame_body(body);
    stream.write_all(&framed)?;
    Ok(framed.len())
}

/// Read until `dec` yields one complete message or `deadline` passes.
/// `Err(Remote)` reports a peer that answered with [`Message::Error`].
pub fn recv(
    stream: &mut TcpStream,
    dec: &mut FrameDecoder,
    deadline: Instant,
) -> Result<Message, WireError> {
    recv_traced(stream, dec, deadline).map(|(msg, _, _)| msg)
}

/// Like [`recv`], also yielding the frame's optional trace context and
/// how many bytes were read off the socket while waiting (framing
/// included; `0` when the message was already buffered in `dec`).
pub fn recv_traced(
    stream: &mut TcpStream,
    dec: &mut FrameDecoder,
    deadline: Instant,
) -> Result<(Message, Option<TraceContext>, u64), WireError> {
    let mut buf = [0u8; 16 * 1024];
    let mut bytes_in = 0u64;
    loop {
        match dec.next_message_traced().map_err(WireError::Protocol)? {
            Some((Message::Error { detail }, _)) => return Err(WireError::Remote(detail)),
            Some((msg, trace)) => return Ok((msg, trace, bytes_in)),
            None => {}
        }
        if Instant::now() >= deadline {
            return Err(WireError::TimedOut);
        }
        match stream.read(&mut buf) {
            Ok(0) => return Err(WireError::Closed),
            Ok(n) => {
                bytes_in += n as u64;
                dec.push(&buf[..n]);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // One OS-level read timed out; the loop re-checks the
                // overall deadline before blocking again.
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
}

/// What a traced request/reply exchange produced: the reply, its trace
/// context, and the byte counts for throughput accounting.
#[derive(Debug)]
pub struct Exchange {
    /// The peer's reply.
    pub msg: Message,
    /// Trace context on the reply frame, if the peer attached one.
    pub trace: Option<TraceContext>,
    /// Bytes read off the socket (framing included).
    pub bytes_in: u64,
    /// Bytes written to the socket (framing included).
    pub bytes_out: u64,
}

/// Dial `addr`, send `msg`, and await a single reply within the read
/// deadline. The connection is dropped afterwards — every exchange in the
/// protocol is single-shot.
pub fn request_reply(addr: &str, msg: &Message, io: &IoConfig) -> Result<Message, WireError> {
    request_reply_traced(addr, msg, None, io).map(|x| x.msg)
}

/// Traced single-shot exchange: the request carries `trace`, and the
/// reply's context plus both directions' byte counts come back in the
/// [`Exchange`].
pub fn request_reply_traced(
    addr: &str,
    msg: &Message,
    trace: Option<&TraceContext>,
    io: &IoConfig,
) -> Result<Exchange, WireError> {
    let mut stream = connect(addr, io)?;
    let bytes_out = send_traced(&mut stream, msg, trace)? as u64;
    let mut dec = FrameDecoder::new();
    let (reply, reply_trace, bytes_in) =
        recv_traced(&mut stream, &mut dec, Instant::now() + io.read_timeout)?;
    Ok(Exchange {
        msg: reply,
        trace: reply_trace,
        bytes_in,
        bytes_out,
    })
}

/// Dial `addr`, send `msg`, and close — the fire-and-forget class of
/// traffic (advertisements, notifications). TCP's graceful close still
/// delivers the queued bytes. Returns the bytes written.
pub fn send_oneway(addr: &str, msg: &Message, io: &IoConfig) -> Result<usize, WireError> {
    send_oneway_traced(addr, msg, None, io)
}

/// [`send_oneway`] with an optional trace-context trailer on the frame.
pub fn send_oneway_traced(
    addr: &str,
    msg: &Message,
    trace: Option<&TraceContext>,
    io: &IoConfig,
) -> Result<usize, WireError> {
    send_body_oneway(addr, &msg.encode_traced(trace), io)
}

/// Dial `addr`, write one already-encoded message body with its length
/// prefix, and close. Returns the bytes written, length prefix included.
pub(crate) fn send_body_oneway(addr: &str, body: &[u8], io: &IoConfig) -> Result<usize, WireError> {
    let mut stream = connect(addr, io)?;
    send_body(&mut stream, body)
}

/// Sleep for `total`, waking every few tens of milliseconds to honor a
/// shutdown flag. Returns `true` if interrupted by shutdown.
pub(crate) fn interruptible_sleep(flag: &AtomicBool, total: Duration) -> bool {
    use std::sync::atomic::Ordering;
    let deadline = Instant::now() + total;
    loop {
        if flag.load(Ordering::Relaxed) {
            return true;
        }
        let now = Instant::now();
        if now >= deadline {
            return false;
        }
        std::thread::sleep((deadline - now).min(Duration::from_millis(20)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matchmaker::ticket::Ticket;
    use std::net::TcpListener;

    #[test]
    fn request_reply_roundtrips_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut dec = FrameDecoder::new();
            let msg = recv(&mut s, &mut dec, Instant::now() + Duration::from_secs(5)).unwrap();
            assert!(matches!(msg, Message::Release { .. }));
            send(&mut s, &Message::QueryReply { ads: vec![] }).unwrap();
        });
        let io = IoConfig::default();
        let reply = request_reply(
            &addr,
            &Message::Release {
                ticket: Ticket::from_raw(7),
            },
            &io,
        )
        .unwrap();
        assert_eq!(reply, Message::QueryReply { ads: vec![] });
        server.join().unwrap();
    }

    #[test]
    fn traced_exchange_carries_contexts_and_counts_bytes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let req_ctx = TraceContext {
            trace_id: 0xCAFE,
            parent_span_id: 0x01,
        };
        let reply_ctx = TraceContext {
            trace_id: 0xCAFE,
            parent_span_id: 0x02,
        };
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut dec = FrameDecoder::new();
            let (msg, trace, bytes_in) =
                recv_traced(&mut s, &mut dec, Instant::now() + Duration::from_secs(5)).unwrap();
            assert!(matches!(msg, Message::Claim { .. }));
            assert_eq!(trace, Some(req_ctx));
            assert!(bytes_in > 0);
            send_traced(
                &mut s,
                &Message::ClaimReply(matchmaker::protocol::ClaimResponse {
                    accepted: true,
                    rejection: None,
                    provider_ad: classad::parse_classad("[ Name = \"m\" ]").unwrap(),
                }),
                Some(&reply_ctx),
            )
            .unwrap();
        });
        let io = IoConfig::default();
        let claim = Message::Claim(matchmaker::protocol::ClaimRequest {
            ticket: Ticket::from_raw(9),
            customer_ad: classad::parse_classad("[ Name = \"j\"; Constraint = true ]").unwrap(),
            customer_contact: "ca:1".into(),
        });
        let exchange = request_reply_traced(&addr, &claim, Some(&req_ctx), &io).unwrap();
        assert!(matches!(exchange.msg, Message::ClaimReply(ref r) if r.accepted));
        assert_eq!(exchange.trace, Some(reply_ctx));
        assert!(exchange.bytes_in > 0 && exchange.bytes_out > 0);
        server.join().unwrap();
    }

    #[test]
    fn remote_error_reply_surfaces_as_remote() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            send(
                &mut s,
                &Message::Error {
                    detail: "nope".into(),
                },
            )
            .unwrap();
        });
        let io = IoConfig::default();
        let err = request_reply(
            &addr,
            &Message::Release {
                ticket: Ticket::from_raw(1),
            },
            &io,
        )
        .unwrap_err();
        assert!(
            matches!(err, WireError::Remote(ref d) if d == "nope"),
            "{err}"
        );
        server.join().unwrap();
    }

    #[test]
    fn recv_times_out_against_a_silent_peer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let io = IoConfig {
            read_timeout: Duration::from_millis(80),
            ..IoConfig::default()
        };
        let mut stream = connect(&addr, &io).unwrap();
        let mut dec = FrameDecoder::new();
        let started = Instant::now();
        let err = recv(
            &mut stream,
            &mut dec,
            Instant::now() + Duration::from_millis(120),
        );
        assert!(matches!(err, Err(WireError::TimedOut)), "{err:?}");
        assert!(started.elapsed() < Duration::from_secs(3));
        drop(listener);
    }

    #[test]
    fn connect_to_dead_port_fails_fast() {
        // Bind-then-drop guarantees the port is closed.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let io = IoConfig::default();
        let err = send_oneway(&addr, &Message::QueryReply { ads: vec![] }, &io).unwrap_err();
        assert!(
            matches!(err, WireError::Io(_) | WireError::TimedOut),
            "{err}"
        );
    }
}
