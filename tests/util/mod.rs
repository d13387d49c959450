//! Shared harness for the live-socket integration tests.
//!
//! Every daemon and agent here binds an ephemeral loopback port (bind
//! `127.0.0.1:0`, read the OS-assigned address back) — the tests never
//! pick port numbers themselves, so parallel test binaries cannot
//! collide. `live_pool`, `ha_failover`, and `flocking` all spawn through
//! these helpers instead of keeping three drifting copies.

#![allow(dead_code)] // each test binary uses its own subset

use classad::{parse_classad, ClassAd};
use condor_pool::wire::{self, WireError};
use condor_pool::{
    CustomerAgent, CustomerConfig, DaemonConfig, IoConfig, MatchmakerDaemon, ResourceAgent,
    ResourceConfig,
};
use matchmaker::framing::FrameDecoder;
use matchmaker::protocol::Message;
use matchmaker::query::Collection;
use std::time::{Duration, Instant};

/// Generous convergence bound: loopback pools settle in well under a
/// second, but CI machines stall.
pub const WAIT: Duration = Duration::from_secs(60);

/// A machine ad whose constraint checks both the peer's type and its own
/// `KeyboardIdle` — so tests can flip the machine "busy" by mutating one
/// attribute and watch claim-time re-verification reject stale matches.
pub fn machine_ad(mips: i64) -> ClassAd {
    parse_classad(&format!(
        r#"[ Type = "Machine"; Mips = {mips}; KeyboardIdle = 1000;
             Constraint = other.Type == "Job" && KeyboardIdle > 300;
             Rank = 0 ]"#
    ))
    .unwrap()
}

/// A job that prefers faster machines — `Rank = other.Mips` makes match
/// order deterministic when several machines are available.
pub fn job_ad() -> ClassAd {
    parse_classad(
        r#"[ Type = "Job"; ImageSize = 8;
             Constraint = other.Type == "Machine"; Rank = other.Mips ]"#,
    )
    .unwrap()
}

/// Poll `cond` until it holds or [`WAIT`] expires (then panic, naming
/// `what` never happened).
pub fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + WAIT;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Tight loopback deadlines for failure-heavy tests: dead sockets are
/// discovered in half a second instead of the production defaults.
pub fn fast_io() -> IoConfig {
    IoConfig {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_millis(500),
    }
}

/// A daemon config for tests: ephemeral loopback bind, fast cycles, fast
/// sockets. Callers layer journal/HA/flock knobs on top.
pub fn daemon_config(name: &str) -> DaemonConfig {
    DaemonConfig {
        name: name.into(),
        bind: "127.0.0.1:0".into(),
        cycle_interval: Duration::from_millis(150),
        io: fast_io(),
        ..DaemonConfig::default()
    }
}

/// Spawn a matchmaker on an ephemeral port and return it with the
/// address it actually bound.
pub fn spawn_daemon(cfg: DaemonConfig) -> (MatchmakerDaemon, String) {
    let daemon = MatchmakerDaemon::spawn(cfg).unwrap();
    let addr = daemon.addr().to_string();
    (daemon, addr)
}

/// Spawn a resource agent heartbeating `ad` into `matchmakers`
/// (preferred-first; one entry is the lone-matchmaker case).
/// `ticket_seed` must be distinct per agent in a pool.
pub fn spawn_resource(
    name: &str,
    matchmakers: &[String],
    ticket_seed: u64,
    ad: ClassAd,
) -> ResourceAgent {
    ResourceAgent::spawn(
        ResourceConfig {
            name: name.into(),
            matchmaker: matchmakers[0].clone(),
            matchmakers: if matchmakers.len() > 1 {
                matchmakers.to_vec()
            } else {
                Vec::new()
            },
            heartbeat: Duration::from_millis(100),
            ticket_seed,
            io: fast_io(),
            ..ResourceConfig::default()
        },
        ad,
    )
    .unwrap()
}

/// Spawn a customer agent submitting `jobs` through `matchmakers`.
pub fn spawn_customer(
    user: &str,
    matchmakers: &[String],
    jobs: Vec<(String, ClassAd)>,
) -> CustomerAgent {
    CustomerAgent::spawn(
        CustomerConfig {
            user: user.into(),
            matchmaker: matchmakers[0].clone(),
            matchmakers: if matchmakers.len() > 1 {
                matchmakers.to_vec()
            } else {
                Vec::new()
            },
            heartbeat: Duration::from_millis(100),
            io: fast_io(),
            ..CustomerConfig::default()
        },
        jobs,
    )
    .unwrap()
}

/// A `Query` of one of the matchmaker's collections: the `other.MyType`
/// pin `&&` each of `conjuncts`.
pub fn collection_query<S: AsRef<str>>(
    addr: &str,
    collection: Collection,
    conjuncts: &[S],
) -> Result<Message, WireError> {
    let q = Message::Query {
        constraint: collection.constraint(conjuncts),
        kind: None,
        projection: vec![],
    };
    wire::request_reply(addr, &q, &IoConfig::default())
}

/// The ads of a collection query that must succeed.
pub fn collection_ads<S: AsRef<str>>(
    addr: &str,
    collection: Collection,
    conjuncts: &[S],
) -> Vec<ClassAd> {
    match collection_query(addr, collection, conjuncts) {
        Ok(Message::QueryReply { ads }) => ads,
        other => panic!("unexpected reply: {other:?}"),
    }
}

/// Send one raw frame body (tag byte + payload) — a frame only an older
/// tool still produces — and await the single reply.
pub fn raw_request_reply(addr: &str, body: &[u8]) -> Result<Message, WireError> {
    let mut stream = wire::connect(addr, &fast_io())?;
    wire::send_body(&mut stream, body)?;
    wire::recv(&mut stream, &mut FrameDecoder::new(), Instant::now() + WAIT)
}

/// A body as the retired request tags carried it: the tag, then one
/// length-prefixed string (`Analyze`'s name, `HistoryQuery`'s and
/// `AlertQuery`'s constraint), then `extra` bytes.
pub fn retired_frame(tag: u8, text: &str, extra: &[u8]) -> Vec<u8> {
    let mut body = vec![tag];
    body.extend_from_slice(&(text.len() as u32).to_be_bytes());
    body.extend_from_slice(text.as_bytes());
    body.extend_from_slice(extra);
    body
}
