//! End-to-end tests of the live TCP pool (`condor-pool`): the paper's
//! Figure 3 flow — advertise → negotiate → notify → direct claim → ticket
//! verify — over real loopback sockets, plus the fault cases weak
//! consistency is designed to absorb (stale ads, agents dying mid-cycle).

mod util;

use condor_pool::wire::{self, IoConfig};
use condor_pool::{PoolBuilder, PoolHandle};
use matchmaker::framing::{frame_body, FrameDecoder};
use matchmaker::protocol::{EntityKind, Message};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use util::{job_ad, machine_ad, WAIT};

fn claimed_provider_names(pool: &PoolHandle) -> Vec<String> {
    let mut names = Vec::new();
    for ca in pool.customers() {
        for (_, status) in ca.jobs() {
            if let condor_pool::JobStatus::Claimed { provider_name, .. } = status {
                names.push(provider_name);
            }
        }
    }
    names.sort();
    names
}

/// Figure 3 over real sockets: four machines, two customers with two jobs
/// each. Every step of the protocol must complete — ads arrive over TCP,
/// the ticker matches them, notifications are dialed back, customers claim
/// the providers directly, and the providers verify tickets and constraints
/// before accepting.
#[test]
fn figure3_full_cycle_over_loopback() {
    let mut builder = PoolBuilder::new();
    for i in 0..4 {
        builder = builder.machine(format!("m{i}"), machine_ad(100 + i));
    }
    let pool = builder
        .user(
            "raman",
            vec![("raman-0".into(), job_ad()), ("raman-1".into(), job_ad())],
        )
        .user(
            "miron",
            vec![("miron-0".into(), job_ad()), ("miron-1".into(), job_ad())],
        )
        .spawn()
        .unwrap();

    assert!(
        pool.wait_for(WAIT, |p| p.all_claimed()),
        "pool never converged: {:?}",
        pool.customers()
            .iter()
            .map(|c| c.jobs())
            .collect::<Vec<_>>()
    );

    // Four jobs on four distinct machines.
    let names = claimed_provider_names(&pool);
    assert_eq!(names, vec!["m0", "m1", "m2", "m3"]);
    for ra in pool.resources() {
        assert!(ra.is_claimed(), "{} should be claimed", ra.name());
        assert_eq!(ra.stats().claims_accepted, 1);
        assert_eq!(ra.stats().claims_rejected, 0);
    }
    let d = pool.daemon().stats();
    assert!(d.cycles >= 1);
    // Each match notifies both parties.
    assert!(d.notifications_sent >= 8, "{d:?}");

    // Graceful teardown joins every thread; customers release their claims
    // on the way out.
    let released: Vec<_> = pool
        .resources()
        .iter()
        .map(|r| r.name().to_owned())
        .collect();
    assert_eq!(released.len(), 4);
    pool.shutdown();
}

/// Weak consistency, step 5: the matchmaker matches against a stale ad;
/// the provider's claim-time re-verification rejects it, and the customer
/// resubmits and lands on the (less preferred) machine whose ad is honest.
#[test]
fn stale_ad_rejected_at_claim_time_and_job_lands_elsewhere() {
    let mut builder = PoolBuilder::new()
        .machine("flashy", machine_ad(1000))
        .machine("honest", machine_ad(100));
    // One advertisement each, never refreshed: the staleness window is the
    // whole test.
    builder.resource_template.heartbeat = Duration::from_secs(3600);
    let mut pool = builder.spawn().unwrap();
    assert!(
        pool.wait_for(WAIT, |p| p.daemon().service().ad_count() >= 2),
        "machine ads never arrived"
    );

    // The owner comes back to the keyboard on `flashy` *after* it
    // advertised: the matchmaker's copy still says KeyboardIdle = 1000.
    pool.resource("flashy")
        .unwrap()
        .update_ad(|ad| ad.set_int("KeyboardIdle", 5));

    // The job ranks by Mips, so the first match is the stale `flashy`.
    pool.add_customer("alice", vec![("job-0".into(), job_ad())])
        .unwrap();
    assert!(
        pool.wait_for(WAIT, |p| p.all_claimed()),
        "job never placed: {:?}",
        pool.customer("alice").unwrap().jobs()
    );

    match &pool.customer("alice").unwrap().jobs()[0].1 {
        condor_pool::JobStatus::Claimed { provider_name, .. } => {
            assert_eq!(provider_name, "honest");
        }
        s => panic!("{s:?}"),
    }
    let flashy = pool.resource("flashy").unwrap().stats();
    assert_eq!(
        flashy.claims_rejected, 1,
        "stale machine must have rejected the claim"
    );
    assert_eq!(flashy.claims_accepted, 0);
    assert!(!pool.resource("flashy").unwrap().is_claimed());
    assert!(pool.resource("honest").unwrap().is_claimed());
    assert_eq!(pool.customer("alice").unwrap().stats().claims_rejected, 1);
    pool.shutdown();
}

/// Fault tolerance: the preferred machine's RA dies abruptly after
/// advertising. The claim dial fails, the customer backs off and
/// resubmits, and the job lands on the surviving machine.
#[test]
fn ra_death_mid_claim_survived_by_retry_and_backoff() {
    let mut builder = PoolBuilder::new()
        .machine("doomed", machine_ad(1000))
        .machine("survivor", machine_ad(100));
    builder.resource_template.heartbeat = Duration::from_secs(3600);
    let mut pool = builder.spawn().unwrap();
    assert!(
        pool.wait_for(WAIT, |p| p.daemon().service().ad_count() >= 2),
        "machine ads never arrived"
    );

    // Abrupt death: no withdraw, the stale ad lingers in the matchmaker.
    assert!(pool.kill_resource("doomed"));

    pool.add_customer("bob", vec![("job-0".into(), job_ad())])
        .unwrap();
    assert!(
        pool.wait_for(WAIT, |p| p.all_claimed()),
        "job never placed: {:?}",
        pool.customer("bob").unwrap().jobs()
    );

    match &pool.customer("bob").unwrap().jobs()[0].1 {
        condor_pool::JobStatus::Claimed { provider_name, .. } => {
            assert_eq!(provider_name, "survivor");
        }
        s => panic!("{s:?}"),
    }
    let ca = pool.customer("bob").unwrap().stats();
    assert!(ca.claim_dial_failures >= 1, "{ca:?}");
    assert!(
        ca.ads_sent >= 2,
        "the job must have been resubmitted: {ca:?}"
    );
    pool.shutdown();
}

/// Protocol violations over TCP get a structured `Error` reply before the
/// daemon closes the connection — both undecodable bytes and frames whose
/// announced length exceeds the daemon's limit.
#[test]
fn daemon_answers_garbage_with_structured_errors() {
    let pool = PoolBuilder::new().spawn().unwrap();
    let addr = pool.daemon().addr().to_string();
    let io = IoConfig::default();

    // Well-framed garbage: an unknown message tag.
    let mut stream = wire::connect(&addr, &io).unwrap();
    stream.write_all(&frame_body(&[0xEE, 1, 2, 3])).unwrap();
    let mut dec = FrameDecoder::new();
    let err = wire::recv(&mut stream, &mut dec, Instant::now() + io.read_timeout).unwrap_err();
    assert!(
        matches!(err, condor_pool::WireError::Remote(ref d) if d.contains("tag")),
        "{err}"
    );

    // A length prefix past the daemon's frame limit (default 4 MiB).
    let mut stream = TcpStream::connect(pool.daemon().addr()).unwrap();
    stream.set_read_timeout(Some(io.read_timeout)).unwrap();
    stream
        .write_all(&(16u32 * 1024 * 1024).to_be_bytes())
        .unwrap();
    stream.write_all(&[0u8; 64]).unwrap();
    let mut dec = FrameDecoder::new();
    let err = wire::recv(&mut stream, &mut dec, Instant::now() + io.read_timeout).unwrap_err();
    assert!(
        matches!(err, condor_pool::WireError::Remote(ref d) if d.contains("exceeds")),
        "{err}"
    );

    let stats = pool.daemon().stats();
    assert!(stats.error_replies >= 2, "{stats:?}");
    pool.shutdown();
}

/// Soft state heals a *matchmaker* restart too (weak consistency, the
/// other direction): kill the lone matchmaker and bring a new one up at
/// the same address over the same journal. The incarnation is journaled
/// as a second `AgentRestarted`, the store resumes from the last
/// checkpoint plus tail, the free machine's heartbeat re-advertisements
/// land in the new daemon, and a job submitted after the restart matches.
#[test]
fn lone_matchmaker_restart_recovers_and_rematches() {
    use condor_obs::journal::{replay, Event, JournalConfig};
    use condor_pool::{
        CustomerAgent, CustomerConfig, DaemonConfig, MatchmakerDaemon, ResourceAgent,
        ResourceConfig,
    };

    let dir = std::env::temp_dir().join(format!("condor-live-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = JournalConfig::new(dir.join("journal.jsonl"));
    let daemon_cfg = |bind: String| DaemonConfig {
        name: "lone".into(),
        bind,
        cycle_interval: Duration::from_millis(150),
        journal: Some(journal.clone()),
        checkpoint_every: 2,
        ..DaemonConfig::default()
    };

    let mut mm = MatchmakerDaemon::spawn(daemon_cfg("127.0.0.1:0".into())).unwrap();
    let addr = mm.addr().to_string();

    // `busy` is claimed before the restart; `idle` stays free and keeps
    // heartbeating its ad into whatever listens at the contact address.
    let busy = ResourceAgent::spawn(
        ResourceConfig {
            name: "busy".into(),
            matchmaker: addr.clone(),
            heartbeat: Duration::from_millis(100),
            ..ResourceConfig::default()
        },
        machine_ad(1000),
    )
    .unwrap();
    let idle = ResourceAgent::spawn(
        ResourceConfig {
            name: "idle".into(),
            matchmaker: addr.clone(),
            heartbeat: Duration::from_millis(100),
            ticket_seed: 2,
            ..ResourceConfig::default()
        },
        machine_ad(100),
    )
    .unwrap();
    let ca = CustomerAgent::spawn(
        CustomerConfig {
            user: "alice".into(),
            matchmaker: addr.clone(),
            heartbeat: Duration::from_millis(100),
            ..CustomerConfig::default()
        },
        vec![("j0".into(), job_ad())],
    )
    .unwrap();

    let deadline = Instant::now() + WAIT;
    while !ca.all_claimed() || mm.stats().checkpoints_written < 1 {
        assert!(
            Instant::now() < deadline,
            "pool never converged before the restart: {:?}",
            ca.jobs()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(busy.is_claimed());

    // Restart: same address, same journal, no agent cooperation asked.
    mm.shutdown();
    let restart_deadline = Instant::now() + WAIT;
    let mm = loop {
        // The freed port can linger in TIME_WAIT for a moment.
        match MatchmakerDaemon::spawn(daemon_cfg(addr.clone())) {
            Ok(d) => break d,
            Err(e) => {
                assert!(Instant::now() < restart_deadline, "rebind failed: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };

    // A post-restart job matches the surviving free machine — which
    // requires `idle`'s re-advertisement to have reached the new daemon.
    ca.add_job("j1", job_ad());
    let deadline = Instant::now() + WAIT;
    while !ca.all_claimed() {
        assert!(
            Instant::now() < deadline,
            "job never re-matched after the restart: {:?}",
            ca.jobs()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    match &ca.jobs()[1].1 {
        condor_pool::JobStatus::Claimed { provider_name, .. } => {
            assert_eq!(provider_name, "idle");
        }
        s => panic!("{s:?}"),
    }
    // The pre-restart claim was never disturbed.
    assert!(busy.is_claimed());
    assert_eq!(busy.stats().releases, 0);

    ca.shutdown();
    busy.shutdown();
    idle.shutdown();
    let mut mm = mm;
    mm.shutdown();

    // Both incarnations left their restart marker in the shared journal.
    let records = replay(&journal.path).unwrap();
    let restarts = records
        .iter()
        .filter(|r| {
            matches!(&r.event, Event::AgentRestarted { agent, .. } if agent == "MatchmakerDaemon")
        })
        .count();
    assert_eq!(restarts, 2, "one marker per incarnation");
    assert!(
        records
            .iter()
            .any(|r| matches!(&r.event, Event::Checkpoint { .. })),
        "the first incarnation checkpointed its store"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Status tools query the live daemon over TCP exactly like the in-memory
/// facade (paper §4's `condor_status` analogue; see
/// `examples/status_query.rs --connect`).
#[test]
fn live_query_over_tcp() {
    let pool = PoolBuilder::new()
        .machine("q0", machine_ad(100))
        .machine("q1", machine_ad(400))
        .spawn()
        .unwrap();
    // Wait for both machines, not for any two ads: the daemon's own
    // self-ad is in the store from the start.
    let machines = matchmaker::Query::from_constraint("other.Mips >= 100").unwrap();
    assert!(pool.wait_for(WAIT, |p| {
        p.daemon()
            .service()
            .query(&machines, wire::unix_now())
            .len()
            >= 2
    }));

    let reply = wire::request_reply(
        &pool.daemon().addr().to_string(),
        &Message::Query {
            constraint: "other.Mips >= 200".into(),
            kind: Some(EntityKind::Provider),
            projection: vec!["Name".into(), "Mips".into()],
        },
        &IoConfig::default(),
    )
    .unwrap();
    let Message::QueryReply { ads } = reply else {
        panic!("{reply:?}")
    };
    assert_eq!(ads.len(), 1);
    assert_eq!(ads[0].get_string("Name"), Some("q1"));
    assert_eq!(ads[0].get_int("Mips"), Some(400));
    assert_eq!(ads[0].len(), 2, "projection should strip other attributes");
    pool.shutdown();
}
