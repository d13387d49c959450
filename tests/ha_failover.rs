//! High-availability acceptance: kill the leader of a three-matchmaker
//! set mid-operation and watch the pool heal itself.
//!
//! The paper's weak-consistency stance makes this failover cheap: the
//! matchmaker is stateless with respect to *matches* (claims are direct
//! agent-to-agent leases), so losing it can never lose an allocation —
//! only delay new ones. The HA set turns that delay into roughly one
//! leader lease: a standby notices the silence, wins the election, and
//! the agents' probes chase the lease to the new leader.

mod util;

use condor_obs::schema;
use condor_pool::{
    wire, Backoff, CustomerAgent, CustomerConfig, DaemonConfig, HaConfig, IoConfig,
    MatchmakerDaemon, ResourceAgent, ResourceConfig,
};
use matchmaker::protocol::{EntityKind, Message};
use std::time::Duration;
use util::{job_ad, machine_ad, wait_until};

fn spawn_ha_member(name: &str) -> MatchmakerDaemon {
    MatchmakerDaemon::spawn(DaemonConfig {
        ha: Some(HaConfig {
            peers: Vec::new(), // filled in via set_ha_peers below
            lease: Duration::from_secs(2),
            recovery_path: None,
        }),
        ..util::daemon_config(name)
    })
    .unwrap()
}

fn leader_index(daemons: &[Option<MatchmakerDaemon>]) -> Option<usize> {
    let leaders: Vec<usize> = daemons
        .iter()
        .enumerate()
        .filter(|(_, d)| d.as_ref().is_some_and(|d| d.is_leader()))
        .map(|(i, _)| i)
        .collect();
    (leaders.len() == 1).then(|| leaders[0])
}

/// How many machine ads the current leader stores (0 while no single
/// leader answers).
fn machines_at_leader(daemons: &[Option<MatchmakerDaemon>], addrs: &[String]) -> usize {
    let Some(leader) = leader_index(daemons) else {
        return 0;
    };
    let query = Message::Query {
        constraint: r#"other.Type == "Machine""#.into(),
        kind: Some(EntityKind::Provider),
        projection: vec![],
    };
    match wire::request_reply(&addrs[leader], &query, &IoConfig::default()) {
        Ok(Message::QueryReply { ads }) => ads.len(),
        _ => 0,
    }
}

/// The headline scenario: one leader, two standbys, live claims. Kill the
/// leader. A standby must take over within the lease, established claims
/// must survive untouched, and an idle job submitted after the failover
/// must still match.
#[test]
fn killing_the_leader_fails_over_without_losing_claims() {
    let mut daemons: Vec<Option<MatchmakerDaemon>> = (0..3)
        .map(|i| Some(spawn_ha_member(&format!("mm{i}"))))
        .collect();
    let addrs: Vec<String> = daemons
        .iter()
        .map(|d| d.as_ref().unwrap().addr().to_string())
        .collect();
    for (i, d) in daemons.iter().enumerate() {
        let peers: Vec<String> = (0..3)
            .filter(|j| *j != i)
            .map(|j| addrs[j].clone())
            .collect();
        d.as_ref().unwrap().set_ha_peers(peers);
    }

    // Exactly one leader emerges from the first election.
    wait_until("a single leader", || leader_index(&daemons).is_some());
    let first = leader_index(&daemons).unwrap();
    let first_epoch = daemons[first].as_ref().unwrap().leader_epoch();
    assert!(first_epoch >= 1);

    // Agents know the whole HA set; decorrelated jitter keeps their
    // post-failover re-advertisements from stampeding in lockstep.
    let backoff = |seed: u64| Backoff {
        initial: Duration::from_millis(25),
        max_delay: Duration::from_millis(250),
        jitter: 0.5,
        jitter_seed: seed,
        ..Backoff::default()
    };
    let fast = ResourceAgent::spawn(
        ResourceConfig {
            name: "m-fast".into(),
            matchmakers: addrs.clone(),
            heartbeat: Duration::from_millis(100),
            backoff: backoff(1),
            ticket_seed: 11,
            ..ResourceConfig::default()
        },
        machine_ad(1000),
    )
    .unwrap();
    let slow = ResourceAgent::spawn(
        ResourceConfig {
            name: "m-slow".into(),
            matchmakers: addrs.clone(),
            heartbeat: Duration::from_millis(100),
            backoff: backoff(2),
            ticket_seed: 12,
            ..ResourceConfig::default()
        },
        machine_ad(100),
    )
    .unwrap();
    // The leader negotiates a job as soon as it arrives, so the faster
    // machine can win j0 only if its ad is stored first: without this
    // barrier a slow start of m-fast's agent puts j0 on m-slow for good.
    wait_until("both machines stored by the leader", || {
        machines_at_leader(&daemons, &addrs) == 2
    });
    let customer = CustomerAgent::spawn(
        CustomerConfig {
            user: "alice".into(),
            matchmakers: addrs.clone(),
            heartbeat: Duration::from_millis(100),
            backoff: backoff(3),
            ..CustomerConfig::default()
        },
        vec![("j0".into(), job_ad())],
    )
    .unwrap();

    // The first job lands on the faster machine (Rank = other.Mips).
    wait_until("j0 claimed", || {
        matches!(
            &customer.jobs()[0].1,
            condor_pool::JobStatus::Claimed { provider_name, .. } if provider_name == "m-fast"
        )
    });
    assert!(fast.is_claimed());

    // Kill the leader mid-operation.
    daemons[first].take().unwrap().shutdown();

    // A standby is elected within the lease (generously bounded by WAIT),
    // at a strictly higher epoch.
    wait_until("a new leader", || {
        leader_index(&daemons).is_some_and(|i| i != first)
    });
    let second = leader_index(&daemons).unwrap();
    let second_epoch = daemons[second].as_ref().unwrap().leader_epoch();
    assert!(
        second_epoch > first_epoch,
        "takeover must advance the epoch: {second_epoch} vs {first_epoch}"
    );

    // Zero claims lost: the direct claim never involved the matchmaker.
    assert!(fast.is_claimed(), "failover must not disturb a live claim");
    assert!(matches!(
        &customer.jobs()[0].1,
        condor_pool::JobStatus::Claimed { provider_name, .. } if provider_name == "m-fast"
    ));
    assert_eq!(fast.stats().releases, 0);

    // An idle job submitted after the failover still matches: the agents'
    // probes follow the redirect to the new leader, re-advertise, and the
    // new leader's cycles place it on the surviving free machine.
    customer.add_job("j1", job_ad());
    wait_until("j1 claimed through the new leader", || {
        customer.all_claimed()
    });
    assert!(matches!(
        &customer.jobs()[1].1,
        condor_pool::JobStatus::Claimed { provider_name, .. } if provider_name == "m-slow"
    ));
    assert!(
        customer.stats().failovers >= 1 || customer.matchmaker_contact() == addrs[second],
        "the customer should have chased the lease"
    );

    // Epoch and leadership are visible in the new leader's self-ad.
    let reply = wire::request_reply(
        &addrs[second],
        &Message::Query {
            constraint: condor_obs::self_ad_constraint(schema::MATCHMAKER_STATS),
            kind: None,
            projection: vec![],
        },
        &IoConfig::default(),
    )
    .unwrap();
    let Message::QueryReply { ads } = reply else {
        panic!("{reply:?}")
    };
    let ad = ads
        .iter()
        .find(|ad| ad.get_string("LeaderContact") == Some(addrs[second].as_str()))
        .unwrap_or_else(|| panic!("no self-ad names the leader: {ads:?}"));
    assert_eq!(ad.get("IsLeader").unwrap().to_string(), "true", "{ad}");
    assert_eq!(ad.get_int("LeaderEpoch"), Some(second_epoch as i64), "{ad}");

    // Standbys redirect, and the redirect names the leader.
    let standby = (0..3).find(|i| *i != first && *i != second).unwrap();
    let err = wire::request_reply(
        &addrs[standby],
        &Message::Query {
            constraint: "true".into(),
            kind: None,
            projection: vec![],
        },
        &IoConfig::default(),
    )
    .unwrap_err();
    match err {
        condor_pool::WireError::Remote(detail) => {
            assert_eq!(
                condor_pool::failover::parse_leader_redirect(&detail).as_deref(),
                Some(addrs[second].as_str()),
                "{detail}"
            );
        }
        other => panic!("expected a remote redirect, got {other}"),
    }

    customer.shutdown();
    fast.shutdown();
    slow.shutdown();
    for d in daemons.iter_mut().filter_map(Option::take) {
        let mut d = d;
        d.shutdown();
    }
}

/// Leadership telemetry before any failure: the elected leader advertises
/// `IsLeader`, its epoch, and how many standbys acked its last heartbeat
/// round; a lone (non-HA) daemon advertises leadership from birth at
/// epoch 0.
#[test]
fn leadership_is_visible_in_self_ads() {
    let mut lone = MatchmakerDaemon::spawn(DaemonConfig {
        cycle_interval: Duration::from_secs(3600),
        ..DaemonConfig::default()
    })
    .unwrap();
    assert!(lone.is_leader());
    assert_eq!(lone.leader_epoch(), 0);
    assert_eq!(
        lone.leader_contact().as_deref(),
        Some(&*lone.addr().to_string())
    );
    let reply = wire::request_reply(
        &lone.addr().to_string(),
        &Message::Query {
            constraint: condor_obs::self_ad_constraint(schema::MATCHMAKER_STATS),
            kind: None,
            projection: vec![],
        },
        &IoConfig::default(),
    )
    .unwrap();
    let Message::QueryReply { ads } = reply else {
        panic!("{reply:?}")
    };
    assert_eq!(ads[0].get("IsLeader").unwrap().to_string(), "true");
    assert_eq!(ads[0].get_int("LeaderEpoch"), Some(0));
    lone.shutdown();

    // A two-member HA set: the leader's standby count converges to 1.
    let mut daemons: Vec<Option<MatchmakerDaemon>> = (0..2)
        .map(|i| Some(spawn_ha_member(&format!("pair{i}"))))
        .collect();
    let addrs: Vec<String> = daemons
        .iter()
        .map(|d| d.as_ref().unwrap().addr().to_string())
        .collect();
    daemons[0]
        .as_ref()
        .unwrap()
        .set_ha_peers(vec![addrs[1].clone()]);
    daemons[1]
        .as_ref()
        .unwrap()
        .set_ha_peers(vec![addrs[0].clone()]);
    wait_until("a leader in the pair", || leader_index(&daemons).is_some());
    let leader = leader_index(&daemons).unwrap();
    wait_until("the standby acks a heartbeat", || {
        let reply = wire::request_reply(
            &addrs[leader],
            &Message::Query {
                constraint: condor_obs::self_ad_constraint(schema::MATCHMAKER_STATS),
                kind: None,
                projection: vec![],
            },
            &IoConfig::default(),
        );
        matches!(
            reply,
            Ok(Message::QueryReply { ads }) if ads
                .first()
                .and_then(|ad| ad.get_int("StandbyCount"))
                == Some(1)
        )
    });
    for d in daemons.iter_mut().filter_map(Option::take) {
        let mut d = d;
        d.shutdown();
    }
}
