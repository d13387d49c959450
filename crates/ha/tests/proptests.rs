//! Property test for the HA acceptance criterion: a live [`AdStore`],
//! checkpointed through the full pipeline — `snapshot_state` → text
//! encode → text decode → `restore_state` — is equivalent to the store
//! it checkpointed: same ads (name, kind, body, contact, ticket, lease,
//! sequence number), same sequence counter, and the same renewal
//! semantics afterwards.

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

/// One way a checkpoint payload goes bad on disk or on the way there.
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// Cut at a byte.
    Truncate,
    /// One byte XORed with a non-zero mask.
    Flip(u8),
    /// One line written twice.
    DuplicateLine,
}

fn arb_damage() -> impl Strategy<Value = (Damage, u64)> {
    (
        prop_oneof![
            Just(Damage::Truncate),
            (1u8..=255).prop_map(Damage::Flip),
            Just(Damage::DuplicateLine),
        ],
        any::<u64>(),
    )
}

/// `text` with `damage` applied at a position drawn from `at`.
fn damaged(text: &str, damage: Damage, at: u64) -> String {
    let mut bytes = text.as_bytes().to_vec();
    match damage {
        Damage::Truncate => bytes.truncate((at % (bytes.len() as u64 + 1)) as usize),
        Damage::Flip(mask) if !bytes.is_empty() => {
            let i = (at % bytes.len() as u64) as usize;
            bytes[i] ^= mask;
        }
        Damage::Flip(_) => {}
        Damage::DuplicateLine => {
            let lines: Vec<&str> = text.split_inclusive('\n').collect();
            if !lines.is_empty() {
                let i = (at % lines.len() as u64) as usize;
                let mut out = lines[..=i].concat();
                out.push_str(&lines[i..].concat());
                bytes = out.into_bytes();
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A damaged checkpoint payload either fails to decode or restores a
    /// store that still snapshots, negotiates and admits ads — it never
    /// panics the daemon that recovers from it.
    #[test]
    fn damaged_checkpoints_never_panic(
        specs in proptest::collection::vec(arb_ad(), 1..24),
        (damage, at) in arb_damage(),
    ) {
        let store = build_store(&specs);
        let text = PoolSnapshot { store: store.snapshot_state(), matches: vec![] }.encode();
        let text = damaged(&text, damage, at);
        if let Ok(snap) = PoolSnapshot::decode(&text) {
            let mut restored = AdStore::restore_state(&snap.store);
            let _ = restored.snapshot_state();
            let _ = Negotiator::default().negotiate(&restored, 0);
            let fresh = Advertisement {
                kind: EntityKind::Provider,
                ad: build_ad(specs.len(), &specs[0]),
                contact: "127.0.0.1:1".into(),
                ticket: None,
                expires_at: 1_000,
            };
            let _ = restored.advertise(fresh, 0, &AdvertisingProtocol::default());
        }
    }
}
