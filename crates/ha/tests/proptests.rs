//! Property test for the HA acceptance criterion: a live [`AdStore`],
//! checkpointed through the full pipeline — `snapshot_state` → text
//! encode → text decode → `restore_state` — is equivalent to the store
//! it checkpointed: same ads (name, kind, body, contact, ticket, lease,
//! sequence number), same sequence counter, same shard layout, and the
//! same renewal semantics afterwards.

use classad::ClassAd;
use condor_ha::PoolSnapshot;
use matchmaker::prelude::*;
use matchmaker::protocol::TraceContext;
use matchmaker::StoreSnapshot;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct AdSpec {
    provider: bool,
    mips: i64,
    lease: u64,
    ticket: Option<u128>,
    traced: bool,
}

fn arb_ad() -> impl Strategy<Value = AdSpec> {
    (
        any::<bool>(),
        10i64..500,
        1u64..1_000_000,
        prop_oneof![
            2 => Just(None),
            // The shim's Arbitrary stops at u64; widen to exercise the
            // full 128-bit ticket encoding anyway.
            1 => any::<u64>().prop_map(|v| Some(((v as u128) << 64) | (!v as u128)))
        ],
        any::<bool>(),
    )
        .prop_map(|(provider, mips, lease, ticket, traced)| AdSpec {
            provider,
            mips,
            lease,
            ticket,
            traced,
        })
}

fn build_ad(i: usize, spec: &AdSpec) -> ClassAd {
    if spec.provider {
        classad::parse_classad(&format!(
            r#"[ Name = "machine-{i}"; Type = "Machine"; Mips = {};
                 Constraint = other.Type == "Job"; Rank = 0 ]"#,
            spec.mips
        ))
        .unwrap()
    } else {
        classad::parse_classad(&format!(
            r#"[ Name = "job-{i}"; Type = "Job"; Owner = "user";
                 Constraint = other.Type == "Machine"; Rank = other.Mips ]"#,
        ))
        .unwrap()
    }
}

fn build_store(specs: &[AdSpec]) -> AdStore {
    let proto = AdvertisingProtocol::default();
    let mut store = AdStore::new();
    for (i, spec) in specs.iter().enumerate() {
        store
            .admit(
                Advertisement {
                    kind: if spec.provider {
                        EntityKind::Provider
                    } else {
                        EntityKind::Customer
                    },
                    ad: build_ad(i, spec),
                    contact: format!("127.0.0.1:{}", 1000 + i),
                    ticket: spec.ticket.map(Ticket::from_raw),
                    expires_at: spec.lease,
                },
                0,
                &proto,
                spec.traced.then(TraceContext::mint),
            )
            .unwrap();
    }
    store
}

fn assert_equivalent(before: &StoreSnapshot, after: &StoreSnapshot) {
    assert_eq!(before.shards, after.shards);
    assert_eq!(before.pinned, after.pinned);
    assert_eq!(before.next_seq, after.next_seq);
    assert_eq!(before.ads.len(), after.ads.len());
    let mut lhs: Vec<_> = before.ads.iter().collect();
    let mut rhs: Vec<_> = after.ads.iter().collect();
    lhs.sort_by_key(|a| a.seq);
    rhs.sort_by_key(|a| a.seq);
    for (a, b) in lhs.iter().zip(&rhs) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.contact, b.contact);
        assert_eq!(a.ticket, b.ticket);
        assert_eq!(a.expires_at, b.expires_at);
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.trace, b.trace);
        assert_eq!(
            classad::json::to_json(&a.ad),
            classad::json::to_json(&b.ad),
            "ad bodies diverged for {}",
            a.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn checkpoint_pipeline_is_lossless(specs in proptest::collection::vec(arb_ad(), 0..48)) {
        let store = build_store(&specs);
        let before = store.snapshot_state();
        let encoded = PoolSnapshot { store: before.clone(), matches: vec![] }.encode();
        let decoded = PoolSnapshot::decode(&encoded).unwrap();
        let restored = AdStore::restore_state(&decoded.store);
        assert_equivalent(&before, &restored.snapshot_state());
    }

    #[test]
    fn restored_stores_negotiate_like_the_originals(specs in proptest::collection::vec(arb_ad(), 0..24)) {
        let store = build_store(&specs);
        let encoded = PoolSnapshot { store: store.snapshot_state(), matches: vec![] }.encode();
        let restored = AdStore::restore_state(&PoolSnapshot::decode(&encoded).unwrap().store);
        let mut neg_a = Negotiator::default();
        let mut neg_b = Negotiator::default();
        let out_a = neg_a.negotiate(&store, 0);
        let out_b = neg_b.negotiate(&restored, 0);
        prop_assert_eq!(out_a.stats.matches, out_b.stats.matches);
        let names_a: Vec<_> = out_a.matches.iter().map(|m| (&m.request_name, &m.offer_name)).collect();
        let names_b: Vec<_> = out_b.matches.iter().map(|m| (&m.request_name, &m.offer_name)).collect();
        prop_assert_eq!(names_a, names_b, "identical pairings after failover");
    }
}
