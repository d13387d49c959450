//! Property tests for the multi-resolution history store: every coarse
//! tier must stay consistent with recomputing from the fine tier. The
//! store feeds each observation to *all* tiers simultaneously, so a
//! coarse bucket is by construction a merge of the fine buckets it
//! covers — these tests pin the merge invariants (min/max/count/last
//! exact, sum within float tolerance, absent ORed) under arbitrary
//! gauge traces and arbitrary counter traces including resets.

use condor_view::{HistoryConfig, HistoryStore, TierSpec};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const POOL: &str = "prop";
const METRIC: &str = "m";
const SOURCE: &str = "s";

/// A two-tier store whose coarse interval is an exact multiple of the
/// fine one, so fine buckets nest cleanly inside coarse buckets. The
/// fine capacity is kept small to force ring eviction mid-test.
fn store(fine: u64, factor: u64) -> HistoryStore {
    HistoryStore::new(HistoryConfig {
        tiers: vec![
            TierSpec {
                interval_secs: fine,
                capacity: 16,
            },
            TierSpec {
                interval_secs: fine * factor,
                capacity: 64,
            },
        ],
    })
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Every coarse bucket that is still fully covered by surviving fine
/// buckets must equal the merge of those fine buckets. Eviction drops
/// the oldest fine buckets first, so "fully covered" means the coarse
/// bucket starts no earlier than the oldest surviving fine bucket.
fn check_merge(store: &HistoryStore, coarse_interval: u64) -> Result<(), TestCaseError> {
    let fine = store.buckets(POOL, METRIC, SOURCE, 0).unwrap_or_default();
    let coarse = store.buckets(POOL, METRIC, SOURCE, 1).unwrap_or_default();
    let Some(front) = fine.first() else {
        return Ok(());
    };
    for cb in &coarse {
        if cb.start < front.start {
            continue; // fine members already evicted
        }
        let members: Vec<_> = fine
            .iter()
            .filter(|b| b.start >= cb.start && b.start < cb.start + coarse_interval)
            .collect();
        prop_assert!(
            !members.is_empty(),
            "coarse bucket at {} has no surviving fine members",
            cb.start
        );
        let count: u64 = members.iter().map(|b| b.count).sum();
        let sum: f64 = members.iter().map(|b| b.sum).sum();
        let min = members.iter().map(|b| b.min).fold(f64::INFINITY, f64::min);
        let max = members
            .iter()
            .map(|b| b.max)
            .fold(f64::NEG_INFINITY, f64::max);
        let last = members.last().unwrap().last;
        let absent = members.iter().any(|b| b.absent);
        prop_assert_eq!(cb.count, count, "count at {}", cb.start);
        prop_assert!(
            close(cb.sum, sum),
            "sum at {}: {} vs {}",
            cb.start,
            cb.sum,
            sum
        );
        if count > 0 {
            prop_assert!(close(cb.min, min), "min at {}", cb.start);
            prop_assert!(close(cb.max, max), "max at {}", cb.start);
            prop_assert!(close(cb.last, last), "last at {}", cb.start);
            // The derived average (what a gauge series reports) follows
            // from sum and count, so it is consistent by construction —
            // asserted here anyway as the user-facing invariant.
            prop_assert!(close(cb.sum / cb.count as f64, sum / count as f64));
        }
        prop_assert_eq!(cb.absent, absent, "absent at {}", cb.start);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Gauges: arbitrary values at arbitrary (monotone) times.
    #[test]
    fn gauge_coarse_tier_matches_fine_recompute(
        fine in 1u64..5,
        factor in 2u64..6,
        trace in proptest::collection::vec((0u64..7, -1e3f64..1e3), 1..120),
    ) {
        let mut s = store(fine, factor);
        let mut t = 1_000_000u64;
        for (dt, v) in trace {
            t += dt;
            s.record_gauge(POOL, METRIC, SOURCE, t, v);
        }
        check_merge(&s, fine * factor)?;
    }

    /// Counters: arbitrary running totals, including backwards jumps
    /// (daemon restarts). The stored deltas must integrate identically
    /// at every resolution.
    #[test]
    fn counter_coarse_tier_matches_fine_recompute(
        fine in 1u64..5,
        factor in 2u64..6,
        trace in proptest::collection::vec((0u64..7, 0u64..10_000), 2..120),
    ) {
        let mut s = store(fine, factor);
        let mut t = 1_000_000u64;
        for (dt, total) in trace {
            t += dt;
            s.record_counter(POOL, METRIC, SOURCE, t, total as f64);
        }
        check_merge(&s, fine * factor)?;
    }

    /// Absent tombstones OR across the merge just like data merges.
    #[test]
    fn tombstones_survive_downsampling(
        fine in 1u64..5,
        factor in 2u64..6,
        trace in proptest::collection::vec((0u64..7, -1e3f64..1e3, 0u32..5), 1..80),
    ) {
        let mut s = store(fine, factor);
        let mut t = 1_000_000u64;
        for (dt, v, gone) in trace {
            t += dt;
            s.record_gauge(POOL, METRIC, SOURCE, t, v);
            if gone == 0 {
                s.record_absent(POOL, SOURCE, t);
            }
        }
        check_merge(&s, fine * factor)?;
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

    /// A damaged checkpoint payload either fails to decode or yields a
    /// store that still records and answers — the collector restoring
    /// from it never panics.
    #[test]
    fn damaged_checkpoints_never_panic(
        trace in proptest::collection::vec((0u64..7, -1e3f64..1e3, 0u32..3), 1..60),
        (damage, at) in arb_damage(),
    ) {
        let mut s = store(2, 3);
        let mut t = 1_000_000u64;
        for (dt, v, which) in trace {
            t += dt;
            match which {
                0 => s.record_gauge(POOL, METRIC, SOURCE, t, v),
                1 => s.record_counter(POOL, "c", SOURCE, t, v.abs()),
                _ => s.record_absent(POOL, &format!("gone-{}", v as i64 % 3), t),
            }
        }
        let text = damaged(&s.encode_state(), damage, at);
        if let Some(mut restored) = HistoryStore::decode_state(&text) {
            restored.record_gauge(POOL, METRIC, SOURCE, t + 1, 1.0);
            restored.record_counter(POOL, "c", SOURCE, t + 2, 5.0);
            for tier in 0..2 {
                let _ = restored.buckets(POOL, METRIC, SOURCE, tier);
            }
            let _ = restored.encode_state();
        }
    }
}
