//! `ad_ingest`: the write use of codec, framing and store. No jobs; the
//! store holds 4 096 machines and two senders re-advertise them, 70 %
//! pure renewals and 30 % changed ads (`LoadAvg`, `KeyboardIdle` move).
//!
//! * The main thread is a collector: batches of ads streamed down one
//!   persistent connection, each batch closed by a cheap query as its
//!   acknowledgement (the daemon serves a connection's frames in order).
//! * The second thread is an agent: one ad per connection, until the
//!   daemon has handled it and hung up.
//!
//! Both are closed loops with one batch / one ad in flight; the machines
//! are split between them so each ad has one writer and a last written
//! generation the final check can compare against. Throughput counts
//! both senders' ads. The latency reported is the collector's batch: the
//! agent's single ad waits behind whole batches for the store's lock in
//! some runs and not in others (its 90th percentile is 0.45 ms or 1 ms),
//! so it is a per-layer diagnostic, not an end-to-end metric.

use super::{LiveRun, Metric, Sampler};
use crate::driver::{median_ms, wait_until, Done, Net, Phases, SpanName, ThreadLog};
use crate::gen::{apply_change, machine_index, AdUpdate, PLATFORMS};
use crate::pool::{provider_adv, LivePool, UNDIALED_CONTACT};
use classad::ClassAd;
use matchmaker::protocol::{EntityKind, Message};
use std::time::{Duration, Instant};

/// Ads per streamed batch.
pub const STREAM_BATCH: u32 = 64;

/// How long the traced run floods the daemon after its checks.
const FLOOD: Duration = Duration::from_secs(1);

/// One sender's half of the pool: its update stream and its mirror of
/// the ads it has written.
struct Lane<'a, U> {
    updates: U,
    mirror: &'a mut [ClassAd],
}

impl<U: Iterator<Item = AdUpdate>> Lane<'_, U> {
    /// The next re-advertisement, applied to the mirror first.
    fn next_adv(&mut self) -> Message {
        let u = self.updates.next().expect("the update stream is endless");
        let ad = &mut self.mirror[u.machine];
        if let Some(change) = u.change {
            apply_change(ad, change);
        }
        provider_adv(ad.clone(), UNDIALED_CONTACT, None)
    }
}

/// Run the workload; see the module docs.
pub fn run(pool: &mut LivePool, phases: Phases, net: &Net) -> LiveRun {
    // Each sender mutates only its own lane's machines; two full-size
    // mirrors keep indexing trivial and are merged by lane at the end.
    let mut stream_mirror = pool.inputs.machines.clone();
    let mut oneway_mirror = pool.inputs.machines.clone();
    let mut stream_log = ThreadLog::default();
    let mut oneway_log = ThreadLog::default();
    let mut sampler = Sampler::new(&pool.daemon, phases);
    let addr = pool.addr.as_str();
    let (inputs, seed) = (&pool.inputs, pool.seed);

    std::thread::scope(|scope| {
        let (log, mirror) = (&mut oneway_log, &mut oneway_mirror[..]);
        scope.spawn(move || {
            let mut lane = Lane {
                updates: inputs.updates(seed, 1, 2),
                mirror,
            };
            let mut n = 0u64;
            // One completion past the nominal end, for the window's edge.
            while log.done.last().is_none_or(|d| d.t_ns < phases.end_ns) {
                let msg = lane.next_adv();
                let t0 = phases.now();
                log.attempted += 1;
                if net.oneway_handled(addr, &msg).is_err() {
                    log.failed += 1;
                }
                let t1 = phases.now();
                log.done.push(Done {
                    t_ns: t1,
                    weight: 1,
                    latency_ns: None,
                });
                log.span(&phases, SpanName::IngestOneway, n, t0, t1);
                log.busy(&phases, t0, t1);
                n += 1;
            }
        });

        let log = &mut stream_log;
        let mut lane = Lane {
            updates: inputs.updates(seed, 0, 2),
            mirror: &mut stream_mirror[..],
        };
        let Ok((mut stream, _open)) = net.connect(addr) else {
            log.failed += 1;
            sampler.sleep_through_window();
            return;
        };
        let mut batch = 0u64;
        while log.done.last().is_none_or(|d| d.t_ns < phases.end_ns) {
            let t0 = phases.now();
            sampler.poll(t0);
            log.attempted += u64::from(STREAM_BATCH);
            let ads = (0..STREAM_BATCH).map(|_| lane.next_adv());
            if net
                .stream_and_sync(&mut stream, ads, net.io.read_timeout)
                .is_err()
            {
                log.failed += u64::from(STREAM_BATCH);
            }
            let t1 = phases.now();
            log.done.push(Done {
                t_ns: t1,
                weight: STREAM_BATCH,
                latency_ns: Some(t1 - t0),
            });
            log.span(&phases, SpanName::IngestBatch, batch, t0, t1);
            log.busy(&phases, t0, t1);
            batch += 1;
        }
        sampler.poll(phases.now());
    });

    // The last written generation of every ad, by its one writer.
    let mut mirror = stream_mirror;
    for (i, ad) in oneway_mirror.into_iter().enumerate() {
        if i % 2 == 1 {
            mirror[i] = ad;
        }
    }
    let mut log = ThreadLog::default();
    check_store(pool, net, &mirror, &mut log);

    let window_s = (phases.end_ns - phases.measure_ns) as f64 / 1e9;
    let in_window = |l: &ThreadLog| -> f64 {
        l.done
            .iter()
            .filter(|d| (phases.measure_ns..phases.end_ns).contains(&d.t_ns))
            .map(|d| f64::from(d.weight))
            .sum::<f64>()
            / window_s
    };
    let oneway_ns: Vec<u64> = oneway_log
        .spans
        .iter()
        .map(|s| s.end_ns - s.start_ns)
        .collect();
    let mut extras: Vec<Metric> = vec![
        (
            "pool.daemon.ingest_stream_ads_per_s".into(),
            in_window(&stream_log),
            "1/s",
        ),
        (
            "pool.daemon.ingest_oneway_ads_per_s".into(),
            in_window(&oneway_log),
            "1/s",
        ),
    ];
    if phases.trace {
        extras.push((
            "pool.daemon.ingest_oneway_ms".into(),
            median_ms(oneway_ns),
            "ms",
        ));
        extras.extend(flood(pool, net));
    }
    let busy_ns = stream_log.busy_ns.max(oneway_log.busy_ns);
    log.merge(stream_log);
    log.merge(oneway_log);
    LiveRun {
        log,
        busy_ns,
        samples: sampler.finish(),
        extras,
    }
}

/// The correctness gate: a final query per platform must find every ad at
/// its last written generation, and the store must hold exactly the
/// mirror plus the daemon's self-ad.
fn check_store(pool: &LivePool, net: &Net, mirror: &[ClassAd], log: &mut ThreadLog) {
    let mut seen = 0usize;
    for (arch, _) in PLATFORMS {
        let all = Message::Query {
            constraint: format!(r#"other.Arch == "{arch}""#),
            kind: Some(EntityKind::Provider),
            projection: Vec::new(),
        };
        let Ok(Message::QueryReply { ads }) = net.request_reply(&pool.addr, &all) else {
            log.violations
                .push(format!("the final {arch} query failed"));
            continue;
        };
        for ad in ads {
            seen += 1;
            let i = ad.get_string("Name").and_then(machine_index);
            if i.is_none_or(|i| mirror[i] != ad) {
                log.violations.push(format!(
                    "stored ad {:?} is not at its last written generation",
                    ad.get_string("Name")
                ));
            }
        }
    }
    let stored = pool.daemon.service().ad_count();
    if seen != mirror.len() || stored != mirror.len() + 1 {
        log.violations.push(format!(
            "the final queries found {seen} machines and the store holds {stored} ads; \
             the mirror holds {}",
            mirror.len()
        ));
    }
}

/// Finding-only probe, run after the checks because it loses ads: one
/// connection per ad, fire-and-forget, as fast as one thread can dial —
/// what a pool of agents does to the daemon without a throttle.
fn flood(pool: &LivePool, net: &Net) -> Vec<Metric> {
    let before = pool.daemon.stats();
    let msg = provider_adv(pool.inputs.machines[0].clone(), UNDIALED_CONTACT, None);
    let started = Instant::now();
    let mut sent = 0u64;
    while started.elapsed() < FLOOD {
        if net.oneway(&pool.addr, &msg, None).is_ok() {
            sent += 1;
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let handled = |pool: &LivePool| pool.daemon.stats().frames_handled - before.frames_handled;
    // Let the backlog drain so refused and handled add up.
    let mut last = handled(pool);
    wait_until(Duration::from_secs(5), || {
        std::thread::sleep(Duration::from_millis(50));
        let now = handled(pool);
        let settled = now == last;
        last = now;
        settled
    });
    let refused = pool.daemon.stats().connections_refused - before.connections_refused;
    vec![
        (
            "pool.daemon.flood_ads_per_s".into(),
            last as f64 / elapsed,
            "1/s",
        ),
        (
            "pool.daemon.flood_refused_frac".into(),
            refused as f64 / sent.max(1) as f64,
            "ratio",
        ),
    ]
}
