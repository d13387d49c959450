//! Deterministic tests of the incremental negotiation path's work bound:
//! a warm cycle derives and scores the ads that changed, nothing else.
//! (That its *matches* equal the full scan's is the proptests' job.)

use matchmaker::negotiate::{CycleOutcome, FullScan, MATCH_LIST_TTL_TICKS};
use matchmaker::prelude::*;

const LEASE: u64 = 1_000;

fn machine(store: &mut AdStore, i: usize, load: f64, now: u64) {
    let ad = classad::parse_classad(&format!(
        r#"[ Name = "m{i}"; Type = "Machine"; Mips = {}; Memory = {}; LoadAvg = {load};
             State = "Unclaimed";
             Constraint = other.Type == "Job" && other.Memory <= Memory;
             Rank = other.JobPrio ]"#,
        10 + (i * 37) % 190,
        [32, 64, 128][i % 3],
    ))
    .unwrap();
    let adv = Advertisement {
        kind: EntityKind::Provider,
        ad,
        contact: format!("m{i}:1"),
        ticket: Some(Ticket::from_raw(i as u128)),
        expires_at: now + LEASE,
    };
    store
        .advertise(adv, now, &AdvertisingProtocol::default())
        .unwrap();
}

/// Job `i` of shape `i % shapes` (distinct memory needs, so distinct
/// autoclusters).
fn job(store: &mut AdStore, i: usize, shapes: usize) {
    let ad = classad::parse_classad(&format!(
        r#"[ Name = "j{i}"; Type = "Job"; Owner = "user{}"; Memory = {}; JobPrio = 1;
             Constraint = other.Type == "Machine" && other.Memory >= self.Memory;
             Rank = other.Mips ]"#,
        i % 3,
        8 * (1 + i % shapes),
    ))
    .unwrap();
    let adv = Advertisement {
        kind: EntityKind::Customer,
        ad,
        contact: "ca:1".into(),
        ticket: None,
        expires_at: u64::MAX,
    };
    store
        .advertise(adv, 0, &AdvertisingProtocol::default())
        .unwrap();
}

fn pairs(out: &CycleOutcome) -> Vec<(String, String)> {
    out.matches
        .iter()
        .map(|m| (m.request_name.clone(), m.offer_name.clone()))
        .collect()
}

fn full_scan(store: &AdStore, now: u64) -> CycleOutcome {
    Negotiator::default().negotiate_full(store, now, FullScan::Clustered)
}

#[test]
fn a_warm_cycle_derives_and_scores_only_the_changed_ads() {
    const N: usize = 300;
    const SHAPES: usize = 5;
    let mut store = AdStore::new();
    for i in 0..N {
        machine(&mut store, i, 0.0, 0);
    }
    for i in 0..2 * SHAPES {
        job(&mut store, i, SHAPES);
    }
    // A bare negotiator withdraws nothing, so every cycle sees the same
    // jobs and the same clusters.
    let mut neg = Negotiator::default();
    let cold = neg.negotiate(&store, 0).stats;
    assert_eq!(cold.clusters_formed, SHAPES);
    assert_eq!(cold.dirty_resources, N, "a cold cycle derives every ad");
    assert_eq!(cold.pairs_evaluated, SHAPES * N);
    assert_eq!((cold.full_scans, cold.incremental_cycles), (SHAPES, 0));

    // Nothing changed: no feed entry read, nothing derived, nothing scored.
    let idle = neg.negotiate(&store, 1).stats;
    assert_eq!((idle.shards_scanned, idle.shards_skipped), (0, 1));
    assert_eq!((idle.dirty_resources, idle.pairs_evaluated), (0, 0));
    assert_eq!((idle.full_scans, idle.incremental_cycles), (0, 1));
    assert_eq!(idle.matches, cold.matches);

    for d in [1usize, 7, 40] {
        // d ads change, d others merely renew, two are withdrawn.
        for i in 0..d {
            machine(&mut store, i, d as f64, 2);
            machine(&mut store, 100 + i, 0.0, 2);
        }
        store.withdraw(EntityKind::Provider, &format!("m{}", 200 + d));
        store.withdraw(EntityKind::Provider, &format!("m{}", 250 + d));
        let out = neg.negotiate(&store, 2);
        assert_eq!(
            out.stats.dirty_resources, d,
            "renewals and withdrawals derive nothing"
        );
        assert!(out.stats.pairs_evaluated <= d * out.stats.clusters_formed);
        assert_eq!(out.stats.full_scans, 0);
        assert_eq!(pairs(&out), pairs(&full_scan(&store, 2)));
    }
}

#[test]
fn a_cluster_that_sat_out_cycles_catches_up_on_its_next_use() {
    let mut store = AdStore::new();
    for i in 0..50 {
        machine(&mut store, i, 0.0, 0);
    }
    job(&mut store, 0, 1);
    let mut neg = Negotiator::default();
    assert_eq!(neg.negotiate(&store, 0).stats.pairs_evaluated, 50);
    // The only job leaves; machines keep changing for three cycles, which
    // costs their derivation but no scoring — no list is in use.
    store.withdraw(EntityKind::Customer, "j0");
    for round in 1..=3u64 {
        for i in 0..4 {
            machine(&mut store, i, round as f64, round);
        }
        let stats = neg.negotiate(&store, round).stats;
        assert_eq!((stats.dirty_resources, stats.pairs_evaluated), (4, 0));
    }
    // The shape comes back: its list scores each changed machine once,
    // however many times it changed meanwhile.
    job(&mut store, 0, 1);
    let out = neg.negotiate(&store, 4);
    assert_eq!((out.stats.full_scans, out.stats.pairs_evaluated), (0, 4));
    assert_eq!(pairs(&out), pairs(&full_scan(&store, 4)));
}

#[test]
fn match_lists_outlive_a_burst_of_short_cycles() {
    const N: usize = 512;
    const SHAPES: usize = 64;
    let mut store = AdStore::new();
    for i in 0..N {
        machine(&mut store, i, 0.0, 0);
    }
    // A daemon cycling per arrival: one request per arrival cycle, the
    // shapes round robin (each back every 64 cycles), one machine
    // changing per cycle, and a tick every 16 cycles — 4 ticks between a
    // shape's visits, inside the list TTL. Were every cycle a tick, each
    // visit would find its list aged out: 320 pool scans.
    let mut neg = Negotiator::default();
    let mut full_scans = 0;
    for c in 0..5 * SHAPES {
        let now = c as u64;
        let shape = c % SHAPES;
        machine(&mut store, c % N, 1.0 + c as f64, now);
        job(&mut store, shape, SHAPES);
        let out = if c % 16 == 15 {
            neg.negotiate(&store, now)
        } else {
            neg.negotiate_arrivals(&store, now)
        };
        full_scans += out.stats.full_scans;
        if c + 1 == 5 * SHAPES {
            assert_eq!(pairs(&out), pairs(&full_scan(&store, now)));
        }
        store.withdraw(EntityKind::Customer, &format!("j{shape}"));
    }
    assert_eq!(full_scans, SHAPES, "one pool scan per shape, ever");
}

#[test]
fn a_list_two_log_entries_per_slot_behind_is_rebuilt() {
    const N: usize = 50;
    let mut store = AdStore::new();
    for i in 0..N {
        machine(&mut store, i, 0.0, 0);
    }
    job(&mut store, 0, 1);
    let mut neg = Negotiator::default();
    assert_eq!(neg.negotiate(&store, 0).stats.full_scans, 1);
    // The shape leaves while every machine changes, twice. A change logs
    // two entries (the old slot leaving, the new ad arriving), and the
    // first round grows the table to 2N slots (new ads are admitted
    // before old ones are evicted): the list is 4N = 2 × slots behind.
    store.withdraw(EntityKind::Customer, "j0");
    let change_all = |store: &mut AdStore, round: u64| {
        for i in 0..N {
            machine(store, i, round as f64, round);
        }
    };
    for round in 1..=2 {
        change_all(&mut store, round);
        neg.negotiate_arrivals(&store, round);
    }
    // At the bound the list is kept and patched: the N live slots scored.
    job(&mut store, 0, 1);
    let out = neg.negotiate_arrivals(&store, 3);
    assert_eq!((out.stats.full_scans, out.stats.pairs_evaluated), (0, N));
    // Past it the list is dropped, and rebuilt when the shape returns.
    store.withdraw(EntityKind::Customer, "j0");
    for round in 4..=5 {
        change_all(&mut store, round);
        neg.negotiate_arrivals(&store, round);
    }
    machine(&mut store, 0, 6.0, 6);
    neg.negotiate_arrivals(&store, 6);
    job(&mut store, 0, 1);
    let out = neg.negotiate_arrivals(&store, 7);
    assert_eq!((out.stats.full_scans, out.stats.pairs_evaluated), (1, N));
    assert_eq!(pairs(&out), pairs(&full_scan(&store, 7)));
}

#[test]
fn a_list_unused_past_its_ttl_in_ticks_is_rebuilt() {
    let mut store = AdStore::new();
    for i in 0..20 {
        machine(&mut store, i, 0.0, 0);
    }
    job(&mut store, 0, 1);
    let mut neg = Negotiator::default();
    assert_eq!(neg.negotiate(&store, 0).stats.full_scans, 1);
    // The shape leaves. Arrival cycles do not age its list, however many
    // run; TTL ticks do not drop it either.
    store.withdraw(EntityKind::Customer, "j0");
    for t in 1..=100 {
        neg.negotiate_arrivals(&store, t);
    }
    for t in 1..=MATCH_LIST_TTL_TICKS {
        neg.negotiate(&store, 100 + t);
    }
    job(&mut store, 0, 1);
    let out = neg.negotiate_arrivals(&store, 200);
    assert_eq!(out.stats.full_scans, 0);
    // Unused through one tick more, it is rebuilt.
    store.withdraw(EntityKind::Customer, "j0");
    for t in 0..=MATCH_LIST_TTL_TICKS {
        neg.negotiate(&store, 300 + t);
    }
    job(&mut store, 0, 1);
    let out = neg.negotiate_arrivals(&store, 400);
    assert_eq!(out.stats.full_scans, 1);
    assert_eq!(pairs(&out), pairs(&full_scan(&store, 400)));
}

#[test]
fn a_restored_store_or_a_trimmed_feed_rediffs_everything_and_rederives_nothing() {
    const N: usize = 200;
    let mut store = AdStore::new();
    for i in 0..N {
        machine(&mut store, i, 0.0, 0);
    }
    job(&mut store, 0, 1);
    let mut neg = Negotiator::default();
    assert_eq!(neg.negotiate(&store, 0).stats.dirty_resources, N);

    // A restored store is another store: the negotiator's cursor names
    // the old one, so the whole table is diffed. Every ad keeps its
    // identity; only the one new machine is derived and scored.
    store = AdStore::restore_state(&store.snapshot_state());
    machine(&mut store, N, 0.0, 0);
    let out = neg.negotiate(&store, 0);
    assert_eq!(out.stats.shards_scanned, 1);
    assert_eq!(out.stats.offers_considered, N + 1);
    assert_eq!(
        (out.stats.dirty_resources, out.stats.pairs_evaluated),
        (1, 1)
    );
    assert_eq!(pairs(&out), pairs(&full_scan(&store, 0)));

    // One machine changes more often than the feed keeps entries: the
    // reader falls off the feed and diffs the whole table instead.
    let cursor = store.feed_end();
    for round in 1..=2 * N {
        machine(&mut store, 0, round as f64, 0);
    }
    assert!(
        store.changes_since(cursor).is_none(),
        "the feed was trimmed"
    );
    let out = neg.negotiate(&store, 0);
    assert_eq!(out.stats.offers_considered, N + 1);
    assert_eq!(
        (out.stats.dirty_resources, out.stats.pairs_evaluated),
        (1, 1)
    );
    assert_eq!(pairs(&out), pairs(&full_scan(&store, 0)));
}

#[test]
fn lapsed_leases_leave_and_late_renewals_return_without_a_sweep() {
    let mut store = AdStore::new();
    machine(&mut store, 1, 0.0, 0); // the faster machine, lease to 1000
    machine(&mut store, 0, 0.0, 500); // lease to 1500
    job(&mut store, 0, 1);
    let mut neg = Negotiator::default();
    assert_eq!(
        pairs(&neg.negotiate(&store, 600)),
        [("j0".into(), "m1".into())]
    );
    // m1's lease lapses, unswept: the lease watermark makes the cycle
    // refresh its held leases (the feed is empty) and drop m1 unevaluated.
    let out = neg.negotiate(&store, 1_200);
    assert_eq!(pairs(&out), [("j0".into(), "m0".into())]);
    assert_eq!(
        (out.stats.shards_scanned, out.stats.dirty_resources),
        (1, 0)
    );
    // A late, identical re-advertisement brings it back under its old seq.
    machine(&mut store, 1, 0.0, 1_300);
    let out = neg.negotiate(&store, 1_300);
    assert_eq!(pairs(&out), pairs(&full_scan(&store, 1_300)));
    assert_eq!(pairs(&out), [("j0".into(), "m1".into())]);
    assert_eq!(out.stats.dirty_resources, 1);
}

#[test]
fn a_renewal_that_shortens_a_lease_is_read_from_the_feed() {
    let mut store = AdStore::new();
    machine(&mut store, 1, 0.0, 500); // the faster machine, lease to 1500
    machine(&mut store, 0, 0.0, 500);
    job(&mut store, 0, 1);
    let mut neg = Negotiator::default();
    assert_eq!(
        pairs(&neg.negotiate(&store, 510)),
        [("j0".into(), "m1".into())]
    );
    // An identical re-advertisement under a shorter lease (to 1020): no
    // new seq and nothing to derive, but the held lease must follow it.
    machine(&mut store, 1, 0.0, 20);
    let out = neg.negotiate(&store, 1_100);
    assert_eq!(pairs(&out), pairs(&full_scan(&store, 1_100)));
    assert_eq!(pairs(&out), [("j0".into(), "m0".into())]);
    assert_eq!(out.stats.dirty_resources, 0);
}
