//! Property-based tests for the matchmaking framework: negotiation
//! invariants, ad-store model checking, and wire-format robustness.

use classad::{symmetric_match, ClassAd, EvalPolicy, MatchConventions};
use matchmaker::framing::{encode_framed, FrameDecoder};
use matchmaker::negotiate::FullScan;
use matchmaker::prelude::*;
use matchmaker::protocol::Message;
use proptest::prelude::*;
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct MachineSpec {
    mips: i64,
    memory: i64,
    arch: bool, // true = INTEL, false = SPARC
    claimed: Option<f64>,
    /// The owner also reads the job's `Dept`: turns away department 2 and
    /// prefers the higher department number. Only these machines put
    /// `Dept` into the signature seed set, so it grows when the first one
    /// joins the pool and shrinks when the last one leaves.
    reads_dept: bool,
}

fn arb_machine() -> impl Strategy<Value = MachineSpec> {
    (
        10i64..200,
        prop_oneof![Just(32i64), Just(64), Just(128)],
        any::<bool>(),
        prop_oneof![
            3 => Just(None),
            1 => (0.0f64..5.0).prop_map(Some)
        ],
        prop_oneof![4 => Just(false), 1 => Just(true)],
    )
        .prop_map(|(mips, memory, arch, claimed, reads_dept)| MachineSpec {
            mips,
            memory,
            arch,
            claimed,
            reads_dept,
        })
}

#[derive(Debug, Clone)]
struct JobSpec {
    owner: u8,
    memory: i64,
    needs_intel: bool,
    prio: i64,
    /// Read by no job expression — only by `reads_dept` machines.
    dept: i64,
}

fn arb_job() -> impl Strategy<Value = JobSpec> {
    (
        0u8..4,
        prop_oneof![Just(16i64), Just(48), Just(96)],
        any::<bool>(),
        0i64..10,
        1i64..4,
    )
        .prop_map(|(owner, memory, needs_intel, prio, dept)| JobSpec {
            owner,
            memory,
            needs_intel,
            prio,
            dept,
        })
}

fn machine_ad(i: usize, m: &MachineSpec) -> ClassAd {
    let claimed_part = match m.claimed {
        Some(rank) => format!(r#"State = "Claimed"; RemoteOwner = "prev"; CurrentRank = {rank};"#),
        None => r#"State = "Unclaimed";"#.to_string(),
    };
    let (dept_clause, dept_rank) = if m.reads_dept {
        (" && other.Dept != 2", " + other.Dept")
    } else {
        ("", "")
    };
    classad::parse_classad(&format!(
        r#"[ Name = "m{i}"; Type = "Machine"; Mips = {mips}; Memory = {memory};
             Arch = "{arch}"; {claimed_part}
             Constraint = other.Type == "Job" && other.Memory <= Memory{dept_clause};
             Rank = other.JobPrio{dept_rank} ]"#,
        mips = m.mips,
        memory = m.memory,
        arch = if m.arch { "INTEL" } else { "SPARC" },
    ))
    .unwrap()
}

fn job_ad(i: usize, j: &JobSpec) -> ClassAd {
    let arch_clause = if j.needs_intel {
        r#" && other.Arch == "INTEL""#
    } else {
        ""
    };
    classad::parse_classad(&format!(
        r#"[ Name = "j{i}"; Type = "Job"; Owner = "user{}"; Memory = {};
             JobPrio = {}; Dept = {};
             Constraint = other.Type == "Machine" && other.Memory >= self.Memory{arch_clause};
             Rank = other.Mips ]"#,
        j.owner, j.memory, j.prio, j.dept,
    ))
    .unwrap()
}

fn build_store(machines: &[MachineSpec], jobs: &[JobSpec]) -> AdStore {
    let proto = AdvertisingProtocol::default();
    let mut store = AdStore::new();
    for (i, m) in machines.iter().enumerate() {
        store
            .advertise(
                Advertisement {
                    kind: EntityKind::Provider,
                    ad: machine_ad(i, m),
                    contact: format!("m{i}:1"),
                    ticket: Some(Ticket::from_raw(i as u128)),
                    expires_at: u64::MAX,
                },
                0,
                &proto,
            )
            .unwrap();
    }
    for (i, j) in jobs.iter().enumerate() {
        store
            .advertise(
                Advertisement {
                    kind: EntityKind::Customer,
                    ad: job_ad(i, j),
                    contact: format!("ca{}:1", j.owner),
                    ticket: None,
                    expires_at: u64::MAX,
                },
                0,
                &proto,
            )
            .unwrap();
    }
    store
}

// ---------------------------------------------------------------------------
// Negotiation invariants
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn negotiation_invariants(
        machines in proptest::collection::vec(arb_machine(), 0..24),
        jobs in proptest::collection::vec(arb_job(), 0..16),
        preemption in any::<bool>(),
    ) {
        let store = build_store(&machines, &jobs);
        let mut neg = Negotiator::new(NegotiatorConfig { preemption, ..Default::default() });
        let out = neg.negotiate(&store, 0);
        let policy = EvalPolicy::default();
        let conv = MatchConventions::default();

        // 1. No offer is granted twice.
        let mut offers_seen = std::collections::HashSet::new();
        for m in &out.matches {
            prop_assert!(offers_seen.insert(m.offer_name.clone()), "offer {} granted twice", m.offer_name);
        }
        // 2. No request is granted twice.
        let mut reqs_seen = std::collections::HashSet::new();
        for m in &out.matches {
            prop_assert!(reqs_seen.insert(m.request_name.clone()));
        }
        // 3. Every match satisfies both constraints.
        for m in &out.matches {
            prop_assert!(
                symmetric_match(&m.request_ad, &m.offer_ad, &policy, &conv),
                "granted pair does not match: {} x {}", m.request_name, m.offer_name
            );
        }
        // 4. Preemptions only with preemption enabled, and only of claimed
        //    offers the offer itself ranks lower.
        for m in &out.matches {
            if m.preempts.is_some() {
                prop_assert!(preemption);
                let state = m.offer_ad.eval_attr("State", &policy);
                prop_assert_eq!(state.as_str(), Some("Claimed"));
                let current = m.offer_ad.eval_attr("CurrentRank", &policy).as_f64().unwrap();
                prop_assert!(m.offer_rank > current);
            }
        }
        // 5. Bookkeeping adds up.
        prop_assert_eq!(out.stats.matches, out.matches.len());
        prop_assert_eq!(out.stats.matches + out.stats.unmatched_requests, jobs.len());
        prop_assert_eq!(out.stats.requests_considered, jobs.len());
        prop_assert_eq!(out.stats.offers_considered, machines.len());
    }

    #[test]
    fn negotiation_is_deterministic(
        machines in proptest::collection::vec(arb_machine(), 0..12),
        jobs in proptest::collection::vec(arb_job(), 0..8),
    ) {
        let store = build_store(&machines, &jobs);
        let pairs = |out: &matchmaker::negotiate::CycleOutcome| -> Vec<(String, String)> {
            out.matches.iter().map(|m| (m.request_name.clone(), m.offer_name.clone())).collect()
        };
        let a = Negotiator::default().negotiate(&store, 0);
        let b = Negotiator::default().negotiate(&store, 0);
        prop_assert_eq!(pairs(&a), pairs(&b));
    }

    #[test]
    fn autocluster_is_equivalent_to_full_scan(
        machines in proptest::collection::vec(arb_machine(), 0..24),
        jobs in proptest::collection::vec(arb_job(), 0..20),
        preemption in any::<bool>(),
        margin in prop_oneof![Just(0.0f64), Just(1.5)],
    ) {
        // The clustered cycles — the production one and the clustered
        // full-scan oracle — must reproduce the unclustered oracle's grant
        // sequence byte for byte — same requests, same offers, same ranks,
        // same preemption victims — across claimed machines (preemptible
        // and not) and eligibility filters (arch/memory constraints).
        let store = build_store(&machines, &jobs);
        let config = NegotiatorConfig {
            preemption,
            preemption_rank_margin: margin,
            ..Default::default()
        };
        let b = Negotiator::new(config.clone()).negotiate_full(&store, 0, FullScan::PerRequest);

        let records = |out: &matchmaker::negotiate::CycleOutcome| {
            out.matches
                .iter()
                .map(|m| (
                    m.request_name.clone(),
                    m.owner.clone(),
                    m.offer_name.clone(),
                    m.ticket,
                    m.request_rank.to_bits(),
                    m.offer_rank.to_bits(),
                    m.preempts.clone(),
                ))
                .collect::<Vec<_>>()
        };
        let production = Negotiator::new(config.clone()).negotiate(&store, 0);
        let clustered = Negotiator::new(config).negotiate_full(&store, 0, FullScan::Clustered);
        for a in [production, clustered] {
            prop_assert_eq!(records(&a), records(&b));
            // Everything but the cache counters agrees.
            prop_assert_eq!(a.stats.matches, b.stats.matches);
            prop_assert_eq!(a.stats.preemptions, b.stats.preemptions);
            prop_assert_eq!(a.stats.unmatched_requests, b.stats.unmatched_requests);
            prop_assert_eq!(a.stats.users_served, b.stats.users_served);
            prop_assert_eq!(a.stats.rounds, b.stats.rounds);
            // And the clustered cycle never scans more than the oracle: each
            // request is a build or a hit, while the oracle pays at least
            // one scan per request (plus preemption-exclusion rescans).
            prop_assert!(a.stats.full_scans <= b.stats.full_scans);
            prop_assert!(a.stats.full_scans + a.stats.matchlist_hits <= b.stats.full_scans);
        }
    }

    // -----------------------------------------------------------------------
    // Ad store model check
    // -----------------------------------------------------------------------

    #[test]
    fn ad_store_matches_model(ops in proptest::collection::vec(
        (0u8..3, 0usize..8, 1u64..100), 0..60
    )) {
        // Model: a map name -> expires_at. Ops: 0 = advertise, 1 = withdraw,
        // 2 = expire sweep at the op's timestamp.
        let proto = AdvertisingProtocol::default();
        let mut store = AdStore::new();
        let mut model: HashMap<String, u64> = HashMap::new();
        let mut clock = 0u64;
        for (op, idx, dt) in ops {
            match op {
                0 => {
                    let name = format!("e{idx}");
                    let expires = clock + dt;
                    let ad = classad::parse_classad(&format!(
                        r#"[ Name = "{name}"; Constraint = true ]"#
                    )).unwrap();
                    let r = store.advertise(Advertisement {
                        kind: EntityKind::Provider,
                        ad,
                        contact: "c:1".into(),
                        ticket: None,
                        expires_at: expires,
                    }, clock, &proto);
                    prop_assert!(r.is_ok());
                    model.insert(name, expires);
                }
                1 => {
                    let name = format!("e{idx}");
                    let was_in_model = model.remove(&name).is_some();
                    let was_in_store = store.withdraw(EntityKind::Provider, &name);
                    prop_assert_eq!(was_in_model, was_in_store);
                }
                _ => {
                    clock += dt;
                    store.expire(clock);
                    model.retain(|_, &mut exp| exp > clock);
                }
            }
            // Live sets agree after every op.
            let mut live_store: Vec<String> = store
                .snapshot(EntityKind::Provider, clock)
                .into_iter()
                .map(|s| s.name)
                .collect();
            live_store.sort();
            let mut live_model: Vec<String> = model
                .iter()
                .filter(|(_, &exp)| exp > clock)
                .map(|(n, _)| n.clone())
                .collect();
            live_model.sort();
            prop_assert_eq!(live_store, live_model);
        }
    }

    // -----------------------------------------------------------------------
    // Wire format
    // -----------------------------------------------------------------------

    #[test]
    fn messages_survive_arbitrary_fragmentation(
        machines in proptest::collection::vec(arb_machine(), 1..5),
        cuts in proptest::collection::vec(1usize..64, 0..20),
    ) {
        let msgs: Vec<Message> = machines
            .iter()
            .enumerate()
            .map(|(i, m)| Message::Advertise(Advertisement {
                kind: EntityKind::Provider,
                ad: machine_ad(i, m),
                contact: format!("m{i}:1"),
                ticket: Some(Ticket::from_raw(i as u128)),
                expires_at: 42,
            }))
            .collect();
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&encode_framed(m));
        }
        // Split the stream at pseudo-random cut widths.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        let mut pos = 0;
        let fallback = [7usize];
        let mut cut_iter =
            if cuts.is_empty() { fallback.iter().cycle() } else { cuts.iter().cycle() };
        while pos < wire.len() {
            let step = (*cut_iter.next().unwrap()).min(wire.len() - pos);
            dec.push(&wire[pos..pos + step]);
            pos += step;
            while let Some(m) = dec.next_message().unwrap() {
                got.push(m);
            }
        }
        prop_assert_eq!(got, msgs);
    }

    #[test]
    fn every_single_split_point_reassembles_identically(
        machines in proptest::collection::vec(arb_machine(), 1..4),
    ) {
        // Exhaustive over split positions: a TCP stream can hand the
        // decoder the bytes in two reads cut *anywhere* — including inside
        // the length prefix and at the exact frame boundary — and the
        // reassembled messages must be byte-for-byte identical every time.
        let msgs: Vec<Message> = machines
            .iter()
            .enumerate()
            .map(|(i, m)| Message::Advertise(Advertisement {
                kind: EntityKind::Provider,
                ad: machine_ad(i, m),
                contact: format!("m{i}:1"),
                ticket: Some(Ticket::from_raw(i as u128)),
                expires_at: 42,
            }))
            .collect();
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&encode_framed(m));
        }
        for cut in 0..=wire.len() {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for half in [&wire[..cut], &wire[cut..]] {
                dec.push(half);
                while let Some(m) = dec.next_message().unwrap() {
                    got.push(m);
                }
            }
            prop_assert_eq!(&got, &msgs, "stream split at byte {} diverged", cut);
            prop_assert_eq!(dec.buffered(), 0, "split at {} left residue", cut);
        }
    }

    #[test]
    fn decoder_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut dec = FrameDecoder::new();
        dec.push(&data);
        // Errors are fine; panics are not.
        while let Ok(Some(_)) = dec.next_message() {}
    }

    #[test]
    fn message_decode_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Message::decode(bytes::Bytes::from(data));
    }
}

// ---------------------------------------------------------------------------
// Incremental negotiation vs full-scan oracle, under delta sequences
// ---------------------------------------------------------------------------

/// A mutation applied to the ad store between negotiation cycles.
#[derive(Debug, Clone)]
enum Delta {
    /// A new machine joins the pool.
    AddMachine(MachineSpec),
    /// An existing machine re-advertises (possibly with changed attributes;
    /// when the spec happens to be identical this is a pure lease renewal).
    UpdateMachine(usize, MachineSpec),
    /// A machine is claimed and its offer withdrawn.
    ClaimMachine(usize),
    /// A new job is submitted.
    AddJob(JobSpec),
    /// Time passes; when `sweep` is set the store's expire pass runs, else
    /// lapsed leases are only filtered at negotiation time (exercising the
    /// negotiator's lease watermarks).
    AdvanceClock(u64, bool),
    /// An HA checkpoint: every store's full state is saved.
    Checkpoint,
    /// Every store is replaced by one rebuilt from the last checkpoint
    /// (or from its present state, if none was taken) while the negotiators
    /// live on: shard versions restart, and after an older checkpoint the
    /// sequence counter rewinds, so new ads reuse numbers the negotiators
    /// have seen on other ads.
    Restore,
}

fn arb_delta() -> impl Strategy<Value = Delta> {
    prop_oneof![
        3 => arb_machine().prop_map(Delta::AddMachine),
        2 => (any::<usize>(), arb_machine())
            .prop_map(|(i, m)| Delta::UpdateMachine(i, m)),
        1 => any::<usize>().prop_map(Delta::ClaimMachine),
        1 => arb_job().prop_map(Delta::AddJob),
        2 => (1u64..120, any::<bool>())
            .prop_map(|(dt, sweep)| Delta::AdvanceClock(dt, sweep)),
        1 => Just(Delta::Checkpoint),
        1 => Just(Delta::Restore),
    ]
}

const MACHINE_LEASE: u64 = 100;
const JOB_LEASE: u64 = 250;

fn advertise_machine_everywhere(
    stores: &mut [AdStore],
    proto: &AdvertisingProtocol,
    id: usize,
    m: &MachineSpec,
    clock: u64,
) {
    for store in stores.iter_mut() {
        store
            .advertise(
                Advertisement {
                    kind: EntityKind::Provider,
                    ad: machine_ad(id, m),
                    contact: format!("m{id}:1"),
                    ticket: Some(Ticket::from_raw(id as u128)),
                    expires_at: clock + MACHINE_LEASE,
                },
                clock,
                proto,
            )
            .unwrap();
    }
}

fn advertise_job_everywhere(
    stores: &mut [AdStore],
    proto: &AdvertisingProtocol,
    id: usize,
    j: &JobSpec,
    clock: u64,
) {
    for store in stores.iter_mut() {
        store
            .advertise(
                Advertisement {
                    kind: EntityKind::Customer,
                    ad: job_ad(id, j),
                    contact: format!("ca{}:1", j.owner),
                    ticket: None,
                    expires_at: clock + JOB_LEASE,
                },
                clock,
                proto,
            )
            .unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tentpole's correctness contract: a persistent incremental
    /// negotiator fed an arbitrary sequence of ad add / update / renew /
    /// expire / claim / checkpoint-restore deltas — including machines
    /// that widen and narrow the set of job attributes offers read —
    /// produces exactly the same grant sequence as a from-scratch full-scan
    /// negotiator at every cycle, and forms exactly the clusters a
    /// from-scratch clustered cycle forms, at shard counts 1, 2, 8 and
    /// auto-scaled.
    #[test]
    fn incremental_negotiation_matches_full_scan_oracle(
        initial in proptest::collection::vec(arb_machine(), 0..10),
        jobs in proptest::collection::vec(arb_job(), 0..8),
        batches in proptest::collection::vec(
            proptest::collection::vec(arb_delta(), 1..5), 1..6),
        preemption in any::<bool>(),
    ) {
        let proto = AdvertisingProtocol::default();
        let layouts = ["1", "2", "8", "auto"];
        let mut stores: Vec<AdStore> = vec![
            AdStore::with_shards(1),
            AdStore::with_shards(2),
            AdStore::with_shards(8),
            AdStore::new(),
        ];
        let mut incrementals: Vec<Negotiator> = layouts
            .iter()
            .map(|_| Negotiator::new(NegotiatorConfig {
                preemption,
                ..Default::default()
            }))
            .collect();
        let mut checkpoint: Option<Vec<matchmaker::StoreSnapshot>> = None;

        let mut clock = 0u64;
        let mut machine_ids: Vec<usize> = Vec::new();
        let mut next_machine = 0usize;
        let mut next_job = 0usize;

        for m in &initial {
            advertise_machine_everywhere(&mut stores, &proto, next_machine, m, clock);
            machine_ids.push(next_machine);
            next_machine += 1;
        }
        for j in &jobs {
            advertise_job_everywhere(&mut stores, &proto, next_job, j, clock);
            next_job += 1;
        }

        let records = |out: &matchmaker::negotiate::CycleOutcome| {
            out.matches
                .iter()
                .map(|m| (
                    m.request_name.clone(),
                    m.owner.clone(),
                    m.offer_name.clone(),
                    m.ticket,
                    m.request_rank.to_bits(),
                    m.offer_rank.to_bits(),
                    m.preempts.clone(),
                ))
                .collect::<Vec<_>>()
        };

        for batch in &batches {
            for delta in batch {
                match delta {
                    Delta::AddMachine(m) => {
                        advertise_machine_everywhere(
                            &mut stores, &proto, next_machine, m, clock);
                        machine_ids.push(next_machine);
                        next_machine += 1;
                    }
                    Delta::UpdateMachine(i, m) => {
                        if !machine_ids.is_empty() {
                            let id = machine_ids[i % machine_ids.len()];
                            advertise_machine_everywhere(
                                &mut stores, &proto, id, m, clock);
                        }
                    }
                    Delta::ClaimMachine(i) => {
                        if !machine_ids.is_empty() {
                            let id = machine_ids[i % machine_ids.len()];
                            let name = format!("m{id}");
                            for store in &mut stores {
                                store.withdraw(EntityKind::Provider, &name);
                            }
                        }
                    }
                    Delta::AddJob(j) => {
                        advertise_job_everywhere(
                            &mut stores, &proto, next_job, j, clock);
                        next_job += 1;
                    }
                    Delta::AdvanceClock(dt, sweep) => {
                        clock += dt;
                        if *sweep {
                            for store in &mut stores {
                                store.expire(clock);
                            }
                        }
                    }
                    Delta::Checkpoint => {
                        checkpoint = Some(stores.iter().map(AdStore::snapshot_state).collect());
                    }
                    Delta::Restore => {
                        for (k, store) in stores.iter_mut().enumerate() {
                            let present = store.snapshot_state();
                            let snap = checkpoint.as_ref().map_or(&present, |saved| &saved[k]);
                            *store = AdStore::restore_state(snap);
                        }
                    }
                }
            }

            // The oracle re-derives the cycle from scratch, scanning
            // everything, every time; the clustered from-scratch cycle says
            // how many clusters today's seed set forms.
            let oracle = || Negotiator::new(NegotiatorConfig {
                preemption,
                ..Default::default()
            });
            let want = records(&oracle().negotiate_full(&stores[0], clock, FullScan::PerRequest));
            let want_clusters = oracle()
                .negotiate_full(&stores[0], clock, FullScan::Clustered)
                .stats
                .clusters_formed;

            for (k, neg) in incrementals.iter_mut().enumerate() {
                let out = neg.negotiate(&stores[k], clock);
                prop_assert_eq!(
                    records(&out), want.clone(),
                    "shards={} diverged from full-scan oracle", layouts[k]
                );
                prop_assert_eq!(
                    out.stats.clusters_formed, want_clusters,
                    "shards={}: seed set differs from a rebuild's", layouts[k]
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Flocking: representative-ad selection
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The flocking hook's forwarding unit, checked against an external
    /// oracle. With `flocking` on, every autocluster a cycle leaves
    /// unmatched is reduced to one representative ad, and forwarding just
    /// that ad to a peer pool is sound only if
    ///
    /// 1. selection is deterministic — same store, same representatives,
    ///    across repeated runs and between the incremental cycle and the
    ///    clustered full-scan oracle;
    /// 2. the representative is the cluster's *first unmatched member in
    ///    request order*, and member counts cover the cycle's unmatched
    ///    total exactly (recomputed here from `request_signature`, the
    ///    same equivalence relation the negotiator clusters by);
    /// 3. the representative's constraint is implied by every member of
    ///    its cluster — each of its conjuncts appears among the member's
    ///    conjuncts, and every attribute in its constraint's dependency
    ///    closure has the same definition in the member — so a peer's
    ///    verdict on the representative holds for the whole cluster.
    #[test]
    fn flock_representative_selection_is_deterministic_and_sound(
        machines in proptest::collection::vec(arb_machine(), 0..12),
        jobs in proptest::collection::vec(arb_job(), 0..16),
    ) {
        use classad::analyze::conjuncts_of;
        use classad::deps::{dependency_closure, self_refs};
        use matchmaker::autocluster::{offer_external_refs, request_signature};
        use std::collections::{BTreeSet, HashMap as Map};

        let store = build_store(&machines, &jobs);
        let config = NegotiatorConfig { flocking: true, ..Default::default() };
        let out = Negotiator::new(config.clone()).negotiate(&store, 0);

        let reps = |o: &matchmaker::negotiate::CycleOutcome| -> Vec<(usize, String, usize)> {
            o.unmatched_clusters
                .iter()
                .map(|c| (c.cluster, c.rep_name.clone(), c.members))
                .collect()
        };

        // 1. Determinism, including across negotiation paths.
        let again = Negotiator::new(config.clone()).negotiate(&store, 0);
        prop_assert_eq!(reps(&out), reps(&again));
        let full_scan =
            Negotiator::new(config).negotiate_full(&store, 0, FullScan::Clustered);
        prop_assert_eq!(reps(&out), reps(&full_scan));

        // 2. Recompute the clustering externally and derive the expected
        //    representative set: group unmatched requests by signature in
        //    request (seq) order; each group's first member represents it.
        let conv = MatchConventions::default();
        let offers: Vec<std::sync::Arc<ClassAd>> = store
            .snapshot(EntityKind::Provider, 0)
            .into_iter()
            .map(|s| s.ad)
            .collect();
        let external = offer_external_refs(&conv, &offers);
        // Request order is seq order — the same sort the negotiator
        // applies before clustering (the snapshot itself is shard order).
        let mut requests = store.snapshot(EntityKind::Customer, 0);
        requests.sort_by_key(|r| r.seq);
        let matched: std::collections::HashSet<String> =
            out.matches.iter().map(|m| m.request_name.clone()).collect();
        let mut sig_ids: Map<String, usize> = Map::new();
        let mut expected: Vec<(usize, String, usize)> = Vec::new();
        let mut members_of: Map<usize, Vec<std::sync::Arc<ClassAd>>> = Map::new();
        for r in &requests {
            let sig = request_signature(&conv, &r.ad, &external);
            let next = sig_ids.len();
            let cid = *sig_ids.entry(sig).or_insert(next);
            if matched.contains(&r.name) {
                continue;
            }
            match expected.iter_mut().find(|(c, _, _)| *c == cid) {
                Some((_, _, count)) => *count += 1,
                None => expected.push((cid, r.name.clone(), 1)),
            }
            members_of.entry(cid).or_default().push(r.ad.clone());
        }
        expected.sort_by_key(|(cid, _, _)| *cid);
        prop_assert_eq!(reps(&out), expected);
        let total: usize = out.unmatched_clusters.iter().map(|c| c.members).sum();
        prop_assert_eq!(total, out.stats.unmatched_requests);

        // 3. Implication: forwarding the representative speaks for every
        //    member. Conjunct containment gives syntactic implication;
        //    identical dependency-closure definitions make the peer's
        //    evaluation of the representative transfer to each member.
        for cluster in &out.unmatched_clusters {
            let rep = &cluster.rep_ad;
            let rep_constraint = rep.get("Constraint").expect("generated jobs have constraints");
            let rep_conjuncts: BTreeSet<String> = conjuncts_of(rep_constraint)
                .iter()
                .map(|e| e.to_string())
                .collect();
            let mut seeds = BTreeSet::new();
            self_refs(rep_constraint, &mut seeds);
            let closure = dependency_closure(rep, seeds);
            for member in &members_of[&cluster.cluster] {
                let member_constraint = member.get("Constraint").unwrap();
                let member_conjuncts: BTreeSet<String> = conjuncts_of(member_constraint)
                    .iter()
                    .map(|e| e.to_string())
                    .collect();
                prop_assert!(
                    rep_conjuncts.is_subset(&member_conjuncts),
                    "member lacks a representative conjunct: {:?} vs {:?}",
                    rep_conjuncts,
                    member_conjuncts
                );
                for attr in &closure {
                    prop_assert_eq!(
                        rep.get(attr.as_ref()).map(|e| e.to_string()),
                        member.get(attr.as_ref()).map(|e| e.to_string()),
                        "closure attribute {} diverges within the cluster",
                        attr
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rank tie-breaking is shard-count-independent
// ---------------------------------------------------------------------------

/// With every rank equal, the match outcome is decided purely by the
/// tie-break rule: the oldest ad (lowest store sequence number) wins.
/// That ordering must not depend on how the pool happens to be sharded or
/// on which negotiation path runs.
#[test]
fn rank_ties_break_by_ad_age_regardless_of_shard_count() {
    let proto = AdvertisingProtocol::default();
    let mut baseline: Option<Vec<(String, String)>> = None;
    for shards in [1usize, 2, 8] {
        let mut store = AdStore::with_shards(shards);
        // Twelve indistinguishable machines: jobs rank them all equally
        // (same Mips) and each machine ranks every job equally.
        for i in 0..12 {
            let ad = classad::parse_classad(&format!(
                r#"[ Name = "m{i}"; Type = "Machine"; Mips = 100; Memory = 128;
                     State = "Unclaimed";
                     Constraint = other.Type == "Job" && other.Memory <= Memory;
                     Rank = 1 ]"#
            ))
            .unwrap();
            store
                .advertise(
                    Advertisement {
                        kind: EntityKind::Provider,
                        ad,
                        contact: format!("m{i}:1"),
                        ticket: Some(Ticket::from_raw(i as u128)),
                        expires_at: u64::MAX,
                    },
                    0,
                    &proto,
                )
                .unwrap();
        }
        for i in 0..4 {
            let ad = classad::parse_classad(&format!(
                r#"[ Name = "j{i}"; Type = "Job"; Owner = "alice"; Memory = 64;
                     JobPrio = 1;
                     Constraint = other.Type == "Machine" && other.Memory >= self.Memory;
                     Rank = other.Mips ]"#
            ))
            .unwrap();
            store
                .advertise(
                    Advertisement {
                        kind: EntityKind::Customer,
                        ad,
                        contact: "ca:1".into(),
                        ticket: None,
                        expires_at: u64::MAX,
                    },
                    0,
                    &proto,
                )
                .unwrap();
        }
        // `None` is the production cycle.
        for path in [Some(FullScan::PerRequest), Some(FullScan::Clustered), None] {
            let mut neg = Negotiator::default();
            let out = match path {
                Some(scan) => neg.negotiate_full(&store, 0, scan),
                None => neg.negotiate(&store, 0),
            };
            let pairs: Vec<(String, String)> = out
                .matches
                .iter()
                .map(|m| (m.request_name.clone(), m.offer_name.clone()))
                .collect();
            // Oldest ad wins every tie: j0 takes m0, j1 takes m1, ...
            let want: Vec<(String, String)> =
                (0..4).map(|i| (format!("j{i}"), format!("m{i}"))).collect();
            assert_eq!(pairs, want, "shards={shards} path={path:?}");
            match &baseline {
                None => baseline = Some(pairs),
                Some(b) => assert_eq!(&pairs, b, "tie-break order changed with shards={shards}"),
            }
        }
    }
}
