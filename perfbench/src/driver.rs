//! What every workload's load generator shares: the run clock and its
//! phases, per-thread logs of completed operations and spans, the
//! open-connection gauge behind the "two driver connections" limit, and
//! the process counters (`/proc/self`) for CPU and resident memory.

use condor_pool::wire::{self, IoConfig, WireError};
use matchmaker::framing::{encode_framed, FrameDecoder};
use matchmaker::protocol::{Message, TraceContext};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The generator limits of a 2-core host: the driver never runs more
/// threads or holds more connections open than this.
pub const MAX_DRIVER_THREADS: usize = 2;
/// See [`MAX_DRIVER_THREADS`].
pub const MAX_DRIVER_CONNECTIONS: usize = 2;

/// Share of the measured window run before it as warm-up.
const WARMUP_SHARE: f64 = 0.05;

/// Slices the measured window is cut into. Throughput, CPU per operation
/// and the 90th percentile are medians over the slices, so a stall of the
/// host inside one slice does not move them; a traced run keeps spans in
/// every other slice, so traced and untraced slices share any drift.
pub const SLICES: u64 = 16;

/// The phases of one run, fixed before load starts so both driver threads
/// agree on them without talking: warm-up, then the measured window.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    epoch: Instant,
    /// Start of the measured window (ns since the epoch).
    pub measure_ns: u64,
    /// Nominal end of the measured window.
    pub end_ns: u64,
    /// Whether this is a traced run.
    pub trace: bool,
}

impl Phases {
    /// Phases for a `window` starting now.
    pub fn start(window: Duration, trace: bool) -> Phases {
        let window_ns = window.as_nanos() as u64;
        let measure_ns = (window_ns as f64 * WARMUP_SHARE) as u64;
        Phases {
            epoch: Instant::now(),
            measure_ns,
            end_ns: measure_ns + window_ns,
            trace,
        }
    }

    /// Nanoseconds since the run began.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Block until `t_ns`; returns the time on waking.
    pub fn sleep_until(&self, t_ns: u64) -> u64 {
        let now = self.now();
        if now < t_ns {
            std::thread::sleep(Duration::from_nanos(t_ns - now));
            return self.now();
        }
        now
    }

    /// Start of slice `k` of the measured window (`k == SLICES` is its end).
    pub fn slice_start(&self, k: u64) -> u64 {
        self.measure_ns + (self.end_ns - self.measure_ns) * k / SLICES
    }

    /// Whether `t_ns` lies in a traced slice: the odd slices of a traced
    /// run's window.
    pub fn tracing(&self, t_ns: u64) -> bool {
        self.trace
            && (self.measure_ns..self.end_ns).contains(&t_ns)
            && (t_ns - self.measure_ns) * SLICES / (self.end_ns - self.measure_ns) % 2 == 1
    }
}

/// The driver calls into the system that the trace records, in causal
/// order within one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// Advertise a job: `send_oneway_traced` to the matchmaker.
    Submit,
    /// Job advertised → its `Notify` read off the driver's listener.
    QueueToNotify,
    /// Claim the matched machine (RA round trip, or the farm's handler).
    Claim,
    /// Release the claim (and, in the farm, re-advertise the machine).
    Release,
    /// One status query: connect → reply decoded.
    Query,
    /// One streamed batch of ads and its acknowledging query.
    IngestBatch,
    /// One ad on its own connection, until the daemon has handled it.
    IngestOneway,
}

impl SpanName {
    /// Name in the trace file.
    pub fn label(self) -> &'static str {
        match self {
            SpanName::Submit => "submit",
            SpanName::QueueToNotify => "queue_to_notify",
            SpanName::Claim => "claim",
            SpanName::Release => "release",
            SpanName::Query => "query",
            SpanName::IngestBatch => "ingest_batch",
            SpanName::IngestOneway => "ingest_oneway",
        }
    }

    /// The span of the same transaction that caused this one.
    pub fn parent(self) -> Option<SpanName> {
        match self {
            SpanName::QueueToNotify => Some(SpanName::Submit),
            SpanName::Claim => Some(SpanName::QueueToNotify),
            SpanName::Release => Some(SpanName::Claim),
            _ => None,
        }
    }
}

/// One driver call into the system.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Which call.
    pub name: SpanName,
    /// The transaction (job, query or batch number) it belongs to.
    pub txn: u64,
    /// Start, ns since the run began.
    pub start_ns: u64,
    /// End, ns since the run began.
    pub end_ns: u64,
}

/// One completed operation (or acknowledged batch of `weight` operations).
#[derive(Debug, Clone, Copy)]
pub struct Done {
    /// Completion time, ns since the run began.
    pub t_ns: u64,
    /// Operations this completion stands for.
    pub weight: u32,
    /// Latency the user saw; `None` for completions that only count
    /// toward throughput (streamed batches).
    pub latency_ns: Option<u64>,
}

/// What one driver thread recorded. Each thread owns its log; they are
/// merged after the threads are joined.
#[derive(Debug, Default)]
pub struct ThreadLog {
    /// Completed operations, in completion order.
    pub done: Vec<Done>,
    /// Spans kept while tracing.
    pub spans: Vec<Span>,
    /// Open-loop lateness samples: `(due, actual start − due)`, ns.
    pub late_ns: Vec<(u64, u64)>,
    /// Time inside the measured window this thread spent on work rather
    /// than waiting for its next due time or its next inbound connection.
    pub busy_ns: u64,
    /// Operations started whose outcome counts toward `attempted`.
    pub attempted: u64,
    /// Operations that failed (see the README's definition per workload).
    pub failed: u64,
    /// Jobs advertised again: the provider rejected the claim of a stale
    /// match, or the job was still unplaced a second after its last
    /// advertisement (a customer agent's periodic re-advertisement).
    pub readvertised: u64,
    /// Correctness violations, each a human-readable line.
    pub violations: Vec<String>,
}

impl ThreadLog {
    /// Keep a span if tracing is on at its start.
    pub fn span(&mut self, phases: &Phases, name: SpanName, txn: u64, start_ns: u64, end_ns: u64) {
        if phases.tracing(start_ns) {
            self.spans.push(Span {
                name,
                txn,
                start_ns,
                end_ns,
            });
        }
    }

    /// Add the part of `[start_ns, end_ns)` inside the measured window to
    /// this thread's busy time.
    pub fn busy(&mut self, phases: &Phases, start_ns: u64, end_ns: u64) {
        let (a, b) = (start_ns.max(phases.measure_ns), end_ns.min(phases.end_ns));
        self.busy_ns += b.saturating_sub(a);
    }

    /// Fold another thread's log into this one.
    pub fn merge(&mut self, other: ThreadLog) {
        self.done.extend(other.done);
        self.spans.extend(other.spans);
        self.late_ns.extend(other.late_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.readvertised += other.readvertised;
        self.violations.extend(other.violations);
    }
}

/// Counts the driver's open connections so a run that ever exceeds
/// [`MAX_DRIVER_CONNECTIONS`] can be declared invalid.
#[derive(Debug, Default)]
pub struct ConnGauge {
    open: AtomicUsize,
    peak: AtomicUsize,
}

/// One open driver connection; closes (for the gauge) on drop.
#[derive(Debug)]
pub struct ConnGuard<'a>(&'a ConnGauge);

impl ConnGauge {
    /// Count one more open connection until the guard drops.
    pub fn open(&self) -> ConnGuard<'_> {
        let now = self.open.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
        ConnGuard(self)
    }

    /// Most connections ever open at once.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.open.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The driver's side of the wire: every dial and accept goes through here
/// so the gauge sees it.
#[derive(Debug, Default)]
pub struct Net {
    /// Socket deadlines (the pool's defaults).
    pub io: IoConfig,
    /// Open-connection gauge.
    pub gauge: ConnGauge,
}

impl Net {
    /// `wire::send_oneway_traced` under the gauge.
    pub fn oneway(
        &self,
        addr: &str,
        msg: &Message,
        trace: Option<&TraceContext>,
    ) -> Result<usize, WireError> {
        let _open = self.gauge.open();
        wire::send_oneway_traced(addr, msg, trace, &self.io)
    }

    /// `wire::request_reply` under the gauge.
    pub fn request_reply(&self, addr: &str, msg: &Message) -> Result<Message, WireError> {
        let _open = self.gauge.open();
        wire::request_reply(addr, msg, &self.io)
    }

    /// Send `msg` on its own connection and wait until the daemon has
    /// handled it: half-close, then read to end-of-stream — the daemon
    /// drains a connection's frames before it sees the close and hangs up.
    pub fn oneway_handled(&self, addr: &str, msg: &Message) -> Result<(), WireError> {
        use std::io::Read;
        let _open = self.gauge.open();
        let mut stream = wire::connect(addr, &self.io)?;
        wire::send(&mut stream, msg)?;
        stream.shutdown(std::net::Shutdown::Write)?;
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest)?;
        if rest.is_empty() {
            Ok(())
        } else {
            // Anything written back is the daemon's structured rejection.
            let mut dec = FrameDecoder::new();
            dec.push(&rest);
            match dec.next_message() {
                Ok(Some(Message::Error { detail })) => Err(WireError::Remote(detail)),
                _ => Err(WireError::Closed),
            }
        }
    }

    /// Open a persistent connection; the guard lives as long as the stream.
    pub fn connect(&self, addr: &str) -> Result<(TcpStream, ConnGuard<'_>), WireError> {
        let guard = self.gauge.open();
        Ok((wire::connect(addr, &self.io)?, guard))
    }

    /// Stream `msgs` down an open connection, close the stream with
    /// [`sync_query`] and wait up to `limit` for its reply — the
    /// acknowledgement that the daemon has handled every message before
    /// it (it serves a connection's frames in order).
    ///
    /// Frames are written in large chunks and the query rides in the last
    /// one: written one small frame at a time, the tail of a stream waits
    /// out the peer's delayed-ACK timer (40 ms) before the kernel sends it.
    pub fn stream_and_sync(
        &self,
        stream: &mut TcpStream,
        msgs: impl Iterator<Item = Message>,
        limit: Duration,
    ) -> Result<(), WireError> {
        const CHUNK: usize = 64 * 1024;
        let mut buf: Vec<u8> = Vec::with_capacity(2 * CHUNK);
        for msg in msgs {
            buf.extend_from_slice(&encode_framed(&msg));
            if buf.len() >= CHUNK {
                stream.write_all(&buf)?;
                buf.clear();
            }
        }
        buf.extend_from_slice(&encode_framed(&sync_query()));
        stream.write_all(&buf)?;
        let mut dec = FrameDecoder::new();
        wire::recv(stream, &mut dec, Instant::now() + limit).map(drop)
    }

    /// Accept one inbound connection and read the single message the
    /// matchmaker's notifier sends on it. `None` when the peer sent
    /// nothing decodable (including the wake-up connection at shutdown).
    pub fn accept_message(&self, listener: &TcpListener) -> Option<Message> {
        let (mut stream, _) = listener.accept().ok()?;
        let _open = self.gauge.open();
        stream.set_read_timeout(Some(self.io.read_timeout)).ok()?;
        let mut dec = FrameDecoder::new();
        wire::recv(&mut stream, &mut dec, Instant::now() + self.io.read_timeout).ok()
    }
}

/// The cheapest request the daemon answers: a query over the (empty or
/// tiny) customer side that matches nothing. On a connection it follows a
/// stream of ads as their acknowledgement — the daemon serves a
/// connection's frames in order.
pub fn sync_query() -> Message {
    Message::Query {
        constraint: "false".into(),
        kind: Some(matchmaker::protocol::EntityKind::Customer),
        projection: Vec::new(),
    }
}

/// Process CPU time (user + system) in seconds, from `/proc/self/stat`.
/// `USER_HZ` is 100 on every Linux ABI.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the `)`.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let ticks: u64 = fields
        .by_ref()
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Peak resident set size in MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Poll `cond` every few milliseconds until it holds or `limit` passes;
/// returns whether it held.
pub fn wait_until(limit: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + limit;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The `q`-quantile (nearest rank) of `sorted`; 0 when empty.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    quantile(&samples, 0.5)
}

/// Median of nanosecond samples, in microseconds.
pub fn median_us(samples_ns: Vec<u64>) -> f64 {
    median(samples_ns) as f64 / 1e3
}

/// Median of nanosecond samples, in milliseconds.
pub fn median_ms(samples_ns: Vec<u64>) -> f64 {
    median(samples_ns) as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.9), 90);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[7], 0.5), 7);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn gauge_tracks_the_peak() {
        let g = ConnGauge::default();
        let a = g.open();
        {
            let _b = g.open();
        }
        let _c = g.open();
        drop(a);
        assert_eq!(g.peak(), 2);
    }

    #[test]
    fn process_counters_read_something() {
        assert!(peak_rss_mib() > 1.0);
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= before);
    }
}
