//! `status_query`: the read use of the store and codec while writes
//! continue. No jobs; 4 096 machines. The main thread is a collector
//! renewing leases at 1 000 ads/s (open loop, one persistent
//! connection); the second thread is a status tool asking one query at a
//! time, each on a fresh connection, from a seeded mix of three shapes.
//!
//! The background stream is pure renewals, so the pool's content is fixed
//! and every reply can be checked against an in-process
//! `Query::run_projected` over the driver's mirror of the pool.

use super::{LiveRun, Metric, Sampler, RENEWALS_PER_S};
use crate::driver::{median_ms, Done, Net, Phases, SpanName, ThreadLog};
use crate::gen::{Inputs, QueryShape, QuerySpec};
use crate::pool::{provider_adv, LivePool, UNDIALED_CONTACT};
use classad::{ClassAd, EvalPolicy, MatchConventions};
use condor_pool::wire;
use matchmaker::protocol::{Advertisement, AdvertisingProtocol, EntityKind, Message};
use matchmaker::{AdStore, Query};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Queries generated per run; the stream wraps if a run outlasts it.
const QUERY_STREAM_LEN: usize = 4096;

/// The driver's mirror of the pool and the expected reply of every
/// distinct query asked so far.
struct Oracle {
    store: AdStore,
    expected: HashMap<String, Vec<ClassAd>>,
}

fn by_name(ads: &mut [ClassAd]) {
    ads.sort_by(|a, b| a.get_string("Name").cmp(&b.get_string("Name")));
}

impl Oracle {
    fn new(inputs: &Inputs) -> Oracle {
        let proto = AdvertisingProtocol::default();
        let mut store = AdStore::new();
        for ad in &inputs.machines {
            let adv = Advertisement {
                kind: EntityKind::Provider,
                ad: ad.clone(),
                contact: UNDIALED_CONTACT.into(),
                ticket: None,
                expires_at: u64::MAX,
            };
            store
                .advertise(adv, 0, &proto)
                .expect("generated ads are admissible");
        }
        Oracle {
            store,
            expected: HashMap::new(),
        }
    }

    /// Whether `reply` is the set of ads the mirror says `q` selects.
    fn agrees(&mut self, q: &QuerySpec, mut reply: Vec<ClassAd>) -> bool {
        let store = &self.store;
        let expected = self
            .expected
            .entry(q.constraint.clone())
            .or_insert_with(|| {
                let mut query = Query::from_constraint(&q.constraint)
                    .expect("generated constraints parse")
                    .of_kind(EntityKind::Provider);
                if !q.projection.is_empty() {
                    query.projection = Some(q.projection.clone());
                }
                let mut ads = query.run_projected(
                    store,
                    0,
                    &EvalPolicy::default(),
                    &MatchConventions::default(),
                );
                by_name(&mut ads);
                ads
            });
        by_name(&mut reply);
        *expected == reply
    }
}

/// Run the workload; see the module docs.
pub fn run(pool: &mut LivePool, phases: Phases, net: &Net) -> LiveRun {
    let (inputs, seed) = (&pool.inputs, pool.seed);
    let addr = pool.addr.as_str();
    let queries = inputs.queries(seed, QUERY_STREAM_LEN);
    let mut tool_log = ThreadLog::default();
    let mut renew_log = ThreadLog::default();
    let mut sampler = Sampler::new(&pool.daemon, phases);

    std::thread::scope(|scope| {
        let (log, queries) = (&mut tool_log, &queries);
        scope.spawn(move || {
            let mut oracle = Oracle::new(inputs);
            let mut n = 0usize;
            // One completion past the nominal end, for the window's edge.
            while log.done.last().is_none_or(|d| d.t_ns < phases.end_ns) {
                let q = &queries[n % queries.len()];
                let msg = Message::Query {
                    constraint: q.constraint.clone(),
                    kind: Some(EntityKind::Provider),
                    projection: q.projection.clone(),
                };
                let t0 = phases.now();
                log.attempted += 1;
                let reply = net.request_reply(addr, &msg);
                let t1 = phases.now();
                match reply {
                    Ok(Message::QueryReply { ads }) => {
                        if !oracle.agrees(q, ads) {
                            log.violations.push(format!(
                                "reply to `{}` differs from the oracle's",
                                q.constraint
                            ));
                        }
                    }
                    _ => log.failed += 1,
                }
                log.done.push(Done {
                    t_ns: t1,
                    weight: 1,
                    latency_ns: Some(t1 - t0),
                });
                log.span(&phases, SpanName::Query, n as u64, t0, t1);
                // Checking the reply is the tool's own work, as printing
                // it would be.
                log.busy(&phases, t0, phases.now());
                n += 1;
            }
        });

        let log = &mut renew_log;
        let Ok((mut stream, _open)) = net.connect(addr) else {
            log.failed += 1;
            sampler.sleep_through_window();
            return;
        };
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x52_454e_4557);
        let period_ns = 1_000_000_000 / RENEWALS_PER_S;
        let mut sent = 0u64;
        let mut due = 0u64;
        while due < phases.end_ns {
            let t0 = phases.sleep_until(due);
            sampler.poll(t0);
            if due >= phases.measure_ns {
                log.late_ns.push((due, t0 - due));
            }
            let machine = &inputs.machines[rng.gen_range(0..inputs.machines.len())];
            let renewal = provider_adv(machine.clone(), UNDIALED_CONTACT, None);
            if wire::send(&mut stream, &renewal).is_err() {
                log.failed += 1;
            }
            sent += 1;
            log.busy(&phases, t0, phases.now());
            due += period_ns;
        }
        sampler.sleep_through_window();
        // The stream's acknowledgement: every renewal was handled.
        if net
            .stream_and_sync(&mut stream, std::iter::empty(), net.io.read_timeout)
            .is_err()
        {
            log.failed += sent;
        }
    });

    // Renewals change nothing: machines plus the daemon's self-ad.
    let stored = pool.daemon.service().ad_count();
    if stored != inputs.machines.len() + 1 {
        tool_log.violations.push(format!(
            "{stored} ads stored after the run, the mirror holds {}",
            inputs.machines.len()
        ));
    }

    let mut extras: Vec<Metric> = Vec::new();
    for shape in QueryShape::ALL {
        let ns: Vec<u64> = tool_log
            .spans
            .iter()
            .filter(|s| queries[s.txn as usize % queries.len()].shape == shape)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        if !ns.is_empty() {
            extras.push((
                format!("pool.daemon.query_ms.{}", shape.label()),
                median_ms(ns),
                "ms",
            ));
        }
    }
    // The open-loop generator is the renewal stream; the tool is a closed
    // loop and busy by construction.
    let busy_ns = renew_log.busy_ns;
    let mut log = renew_log;
    log.merge(tool_log);
    LiveRun {
        log,
        busy_ns,
        samples: sampler.finish(),
        extras,
    }
}
