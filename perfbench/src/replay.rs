//! The layer replay of a traced run: single-threaded, after the live pool
//! is down, the workload's own seeded inputs are pushed through each
//! public function the live path crosses, one layer at a time. Each
//! metric is the median time of one call (or an exact count the call
//! reports), named `crate.module.what`.

use crate::driver::{median, median_ms as ms, median_us as us};
use crate::gen::{Inputs, QueryShape};
use crate::pool::{provider_adv, UNDIALED_CONTACT};
use crate::workloads::{Metric, OUTSTANDING_JOBS};
use classad::{json, parse_classad, symmetric_match, ClassAd, EvalPolicy, MatchConventions};
use condor_pool::DaemonConfig;
use matchmaker::autocluster::{cluster_requests, offer_external_refs};
use matchmaker::claim::ClaimHandler;
use matchmaker::framing::{encode_framed, FrameDecoder};
use matchmaker::negotiate::{CycleOutcome, Negotiator};
use matchmaker::protocol::{Advertisement, AdvertisingProtocol, ClaimRequest, EntityKind, Message};
use matchmaker::{AdStore, Matchmaker, Query, TicketIssuer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Ads sampled for the per-ad layers (parser, codec, framing, service).
const AD_SAMPLE: usize = 2048;

/// Job x machine pairs for the matching layer.
const MATCH_PAIRS: usize = 10_000;

/// Pairs timed per `symmetric_match` sample (one call is too short to
/// time alone).
const MATCH_BATCH: usize = 100;

/// Warm and idle cycles replayed; the median is reported.
const CYCLE_REPS: usize = 3;

/// Chunk size the connection handlers read off a socket.
const READ_CHUNK: usize = 16 * 1024;

/// Logical time of the replay; every lease outlives it.
const NOW: u64 = 1;
const EXPIRES: u64 = 1_000_000;

fn ns_each<T>(items: impl IntoIterator<Item = T>, mut f: impl FnMut(T)) -> Vec<u64> {
    items
        .into_iter()
        .map(|item| {
            let t0 = Instant::now();
            f(item);
            t0.elapsed().as_nanos() as u64
        })
        .collect()
}

fn adv(kind: EntityKind, ad: ClassAd, ticket: Option<matchmaker::Ticket>) -> Advertisement {
    Advertisement {
        kind,
        ad,
        contact: UNDIALED_CONTACT.into(),
        ticket,
        expires_at: EXPIRES,
    }
}

/// A store holding the pool, each machine under a ticket from `issuer`,
/// and — as in the live daemon — the matchmaker's self-ad: a provider-kind
/// telemetry ad that negotiation skips, but which counts toward the
/// store's shard auto-scaling (it is what tips 8 192 machines into 16
/// shards).
fn load_store(
    inputs: &Inputs,
    proto: &AdvertisingProtocol,
    issuer: &mut TicketIssuer,
) -> (AdStore, Vec<u64>) {
    let mut store = AdStore::new();
    let self_ad = parse_classad(
        r#"[ Name = "matchmaker#stats"; MyType = "MatchmakerStats"; DaemonAd = true;
             Constraint = false ]"#,
    )
    .expect("the stand-in self-ad parses");
    store
        .advertise(adv(EntityKind::Provider, self_ad, None), NOW, proto)
        .expect("the self-ad is admissible");
    let insert_ns = ns_each(&inputs.machines, |ad| {
        let a = adv(EntityKind::Provider, ad.clone(), Some(issuer.issue()));
        store
            .advertise(a, NOW, proto)
            .expect("generated ads are admissible");
    });
    (store, insert_ns)
}

fn submit_jobs(store: &mut AdStore, proto: &AdvertisingProtocol, inputs: &Inputs, from: usize) {
    for k in from..from + OUTSTANDING_JOBS {
        store
            .advertise(
                adv(EntityKind::Customer, inputs.job_ad(k), None),
                NOW,
                proto,
            )
            .expect("generated jobs are admissible");
    }
}

/// What the service layer does after a cycle, plus what the farm does
/// after the claims: matched ads leave the store, the machines come back
/// under fresh tickets.
fn recycle_matches(
    store: &mut AdStore,
    proto: &AdvertisingProtocol,
    outcome: &CycleOutcome,
    issuer: &mut TicketIssuer,
) {
    for m in &outcome.matches {
        store.withdraw(EntityKind::Customer, &m.request_name);
        store.withdraw(EntityKind::Provider, &m.offer_name);
        let back = adv(
            EntityKind::Provider,
            (*m.offer_ad).clone(),
            Some(issuer.issue()),
        );
        store
            .advertise(back, NOW, proto)
            .expect("a matched machine re-advertises");
    }
}

/// Replay every layer on `inputs`; see the module docs.
pub fn replay(inputs: &Inputs, seed: u64) -> Vec<Metric> {
    let mut out: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| out.push((name.into(), value, unit));
    let (policy, conv) = (EvalPolicy::default(), MatchConventions::default());
    let proto = AdvertisingProtocol::default();
    let sample = inputs.machines.len().min(AD_SAMPLE);
    let machines = &inputs.machines[..sample];

    // classad.parser / classad.json
    put(
        "classad.parser.parse_us",
        us(ns_each(&inputs.machine_texts[..sample], |t| {
            black_box(parse_classad(black_box(t)).expect("generated text parses"));
        })),
        "us",
    );
    let jsons: Vec<String> = machines.iter().map(json::to_json).collect();
    put(
        "classad.json.encode_us",
        us(ns_each(machines, |ad| {
            black_box(json::to_json(black_box(ad)));
        })),
        "us",
    );
    put(
        "classad.json.decode_us",
        us(ns_each(&jsons, |j| {
            black_box(json::from_json(black_box(j)).expect("own JSON parses"));
        })),
        "us",
    );

    // classad.matching
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x4d41_5443);
    let pairs: Vec<(usize, usize)> = (0..MATCH_PAIRS)
        .map(|_| {
            (
                rng.gen_range(0..inputs.shapes.len()),
                rng.gen_range(0..inputs.machines.len()),
            )
        })
        .collect();
    let mut matched = 0usize;
    let batch_ns = ns_each(pairs.chunks(MATCH_BATCH), |chunk| {
        for &(j, m) in chunk {
            let hit = symmetric_match(&inputs.shapes[j], &inputs.machines[m], &policy, &conv);
            matched += usize::from(black_box(hit));
        }
    });
    put(
        "classad.matching.symmetric_match_ns",
        median(batch_ns) as f64 / MATCH_BATCH as f64,
        "ns",
    );
    put(
        "classad.matching.match_frac",
        matched as f64 / MATCH_PAIRS as f64,
        "ratio",
    );

    // core.protocol / core.framing / core.service: the Advertise frame.
    let messages: Vec<Message> = machines
        .iter()
        .map(|ad| provider_adv(ad.clone(), UNDIALED_CONTACT, None))
        .collect();
    let bodies: Vec<_> = messages.iter().map(Message::encode).collect();
    put(
        "core.protocol.encode_us",
        us(ns_each(&messages, |m| {
            black_box(black_box(m).encode_traced(None));
        })),
        "us",
    );
    put(
        "core.protocol.decode_us",
        us(ns_each(&bodies, |b| {
            black_box(Message::decode_traced(b.clone()).expect("own frame decodes"));
        })),
        "us",
    );
    put(
        "core.protocol.ad_frame_bytes",
        median(bodies.iter().map(|b| b.len() as u64 + 4).collect()) as f64,
        "bytes",
    );
    let mut wire_bytes = Vec::new();
    for m in &messages {
        wire_bytes.extend_from_slice(&encode_framed(m));
    }
    let mut decoder = FrameDecoder::new();
    let t0 = Instant::now();
    let mut frames = 0usize;
    for chunk in wire_bytes.chunks(READ_CHUNK) {
        decoder.push(chunk);
        while let Some(frame) = decoder
            .next_message_traced()
            .expect("own stream stays in sync")
        {
            black_box(frame);
            frames += 1;
        }
    }
    put(
        "core.framing.decode_us",
        t0.elapsed().as_nanos() as f64 / 1e3 / frames.max(1) as f64,
        "us",
    );
    let service = Matchmaker::new(DaemonConfig::default().negotiator);
    put(
        "core.service.handle_frame_us",
        us(ns_each(&bodies, |b| {
            service
                .handle_frame(b.clone(), NOW)
                .expect("own frame is admitted");
        })),
        "us",
    );

    // core.admanager, at the workload's pool size.
    let mut issuer = TicketIssuer::new(seed);
    let (mut store, insert_ns) = load_store(inputs, &proto, &mut issuer);
    put("core.admanager.insert_new_us", us(insert_ns), "us");
    let stored: Vec<Advertisement> = store
        .iter()
        .filter(|s| s.kind == EntityKind::Provider)
        .take(sample)
        .map(|s| adv(EntityKind::Provider, (*s.ad).clone(), s.ticket))
        .collect();
    put(
        "core.admanager.renew_us",
        us(ns_each(stored.clone(), |a| {
            store
                .advertise(a, NOW, &proto)
                .expect("a renewal is admitted");
        })),
        "us",
    );
    put(
        "core.admanager.insert_changed_us",
        us(ns_each(stored, |mut a| {
            a.ad.set_real("LoadAvg", 0.123456);
            store
                .advertise(a, NOW, &proto)
                .expect("a changed ad is admitted");
        })),
        "us",
    );

    // core.query, on the same store.
    let queries = inputs.queries(seed, 256);
    for shape in QueryShape::ALL {
        let mut examined_per_result = Vec::new();
        let run_ns = ns_each(queries.iter().filter(|q| q.shape == shape).take(16), |q| {
            let mut query = Query::from_constraint(&q.constraint)
                .expect("generated constraints parse")
                .of_kind(EntityKind::Provider);
            if !q.projection.is_empty() {
                query.projection = Some(q.projection.clone());
            }
            let hits = query.run_projected(&store, NOW, &policy, &conv).len();
            examined_per_result.push(inputs.machines.len() as f64 / hits.max(1) as f64);
        });
        put(
            &format!("core.query.run_us.{}", shape.label()),
            us(run_ns),
            "us",
        );
        if shape == QueryShape::Selective {
            examined_per_result.sort_by(f64::total_cmp);
            put(
                "core.query.examined_per_result",
                examined_per_result[examined_per_result.len() / 2],
                "ratio",
            );
        }
    }

    // core.autocluster + core.negotiate: the daemon's negotiator on a
    // fresh store holding the pool and one round of outstanding jobs.
    let mut issuer = TicketIssuer::new(seed);
    let (mut store, _) = load_store(inputs, &proto, &mut issuer);
    submit_jobs(&mut store, &proto, inputs, 0);
    let offers: Vec<Arc<ClassAd>> = store
        .iter()
        .filter(|s| s.kind == EntityKind::Provider)
        .map(|s| s.ad.clone())
        .collect();
    let requests: Vec<Arc<ClassAd>> = store
        .iter()
        .filter(|s| s.kind == EntityKind::Customer)
        .map(|s| s.ad.clone())
        .collect();
    let external = offer_external_refs(&conv, &offers);
    let mut clusters = 0usize;
    put(
        "core.autocluster.cluster_us",
        us(ns_each(0..8, |_| {
            clusters = cluster_requests(&conv, requests.iter().map(|r| r.as_ref()), &external)
                .num_clusters;
        })),
        "us",
    );
    put("core.autocluster.clusters", clusters as f64, "count");
    drop((offers, requests));

    let mut negotiator = Negotiator::new(DaemonConfig::default().negotiator);
    let t0 = Instant::now();
    let cold = negotiator.negotiate(&store, NOW);
    let cold_ns = t0.elapsed().as_nanos() as u64;
    put("core.negotiate.cold_cycle_ms", cold_ns as f64 / 1e6, "ms");
    let pairs_scanned = (cold.stats.clusters_formed * cold.stats.offers_considered).max(1);
    put(
        "core.negotiate.ns_per_pair",
        cold_ns as f64 / pairs_scanned as f64,
        "ns",
    );

    // core.claim: the provider's re-verification of each cold-cycle match.
    put(
        "core.claim.reverify_us",
        us(ns_each(&cold.matches, |m| {
            let mut handler = ClaimHandler::new();
            let ticket = m.ticket.expect("replayed machines carry tickets");
            handler.set_ticket(ticket);
            let req = ClaimRequest {
                ticket,
                customer_ad: (*m.request_ad).clone(),
                customer_contact: UNDIALED_CONTACT.into(),
            };
            let (resp, _) = handler.handle_claim(&req, &m.offer_ad, NOW, |_| false);
            assert!(resp.accepted, "a fresh match re-verifies");
        })),
        "us",
    );

    let mut last = cold;
    let mut warm_ns = Vec::new();
    let mut warm_stats = last.stats;
    for rep in 0..CYCLE_REPS {
        recycle_matches(&mut store, &proto, &last, &mut issuer);
        submit_jobs(&mut store, &proto, inputs, (rep + 1) * OUTSTANDING_JOBS);
        let t0 = Instant::now();
        last = negotiator.negotiate(&store, NOW);
        warm_ns.push(t0.elapsed().as_nanos() as u64);
        warm_stats = last.stats;
    }
    put("core.negotiate.warm_cycle_ms", ms(warm_ns), "ms");
    put(
        "core.negotiate.shards_scanned",
        warm_stats.shards_scanned as f64,
        "count",
    );
    put(
        "core.negotiate.shards_skipped",
        warm_stats.shards_skipped as f64,
        "count",
    );
    put(
        "core.negotiate.matchlist_hits",
        warm_stats.matchlist_hits as f64,
        "count",
    );
    put(
        "core.negotiate.dirty_per_match",
        warm_stats.dirty_resources as f64 / warm_stats.matches.max(1) as f64,
        "ratio",
    );

    // The idle cycle: no requests, a round of machine updates since the
    // last cycle — what ingest and set-up wait behind.
    recycle_matches(&mut store, &proto, &last, &mut issuer);
    let unmatched: Vec<String> = store
        .iter()
        .filter(|s| s.kind == EntityKind::Customer)
        .map(|s| s.name.clone())
        .collect();
    for name in unmatched {
        store.withdraw(EntityKind::Customer, &name);
    }
    let mut idle_ns = Vec::new();
    for rep in 0..CYCLE_REPS {
        for i in 0..OUTSTANDING_JOBS.min(inputs.machines.len()) {
            let mut ad =
                inputs.machines[(rep * OUTSTANDING_JOBS + i) % inputs.machines.len()].clone();
            ad.set_real("LoadAvg", 0.01 * (rep + 1) as f64);
            store
                .advertise(adv(EntityKind::Provider, ad, None), NOW, &proto)
                .expect("a changed ad is admitted");
        }
        let t0 = Instant::now();
        black_box(negotiator.negotiate(&store, NOW));
        idle_ns.push(t0.elapsed().as_nanos() as u64);
    }
    put("core.negotiate.idle_cycle_ms", ms(idle_ns), "ms");

    out
}
