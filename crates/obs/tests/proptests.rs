//! Property tests for the self-ad rendering pipeline: any metrics
//! snapshot must render to a classad that (a) survives a print/parse
//! round trip and (b) evaluates `other.MyType == "<type>"` correctly —
//! the exact path a remote `condor_status --stats` query takes. Also the
//! bucketed `WindowedHistogram` against an exact copy-and-sort oracle.

use condor_obs::{
    attr_name, self_ad, self_ad_constraint, HistogramSnapshot, MetricsSnapshot, WindowedHistogram,
};
use proptest::prelude::*;
use std::time::Duration;

/// The exact summary: copy, sort, nearest rank.
fn oracle(samples: &[f64]) -> HistogramSnapshot {
    let mut values = samples.to_vec();
    if values.is_empty() {
        return HistogramSnapshot::default();
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let count = values.len() as u64;
    let sum: f64 = values.iter().sum();
    let pct = |p: f64| {
        let idx = ((p * (values.len() - 1) as f64).round() as usize).min(values.len() - 1);
        values[idx]
    };
    HistogramSnapshot {
        count,
        min: values[0],
        max: *values.last().expect("non-empty"),
        mean: sum / count as f64,
        p50: pct(0.50),
        p90: pct(0.90),
        p99: pct(0.99),
    }
}

/// Finite samples across the whole range: zeros, subnormals, ordinary
/// latencies and magnitudes near 1e±300, either sign.
fn arb_sample() -> impl Strategy<Value = f64> {
    let magnitude = prop_oneof![
        Just(0.0),
        (1u64..1 << 52).prop_map(f64::from_bits),
        0.0f64..1e4,
        1.0f64..10.0,
        (1.0f64..10.0).prop_map(|m| m * 1e300),
        (1.0f64..10.0).prop_map(|m| m * 1e-300),
    ];
    (magnitude, any::<bool>()).prop_map(|(m, neg)| if neg { -m } else { m })
}

fn arb_metric_name() -> impl Strategy<Value = String> {
    // Registry names in the wild: snake_case segments, occasionally
    // digits, occasionally odd separators (attr_name must sanitize all).
    proptest::string::string_regex("[a-z][a-z0-9_]{0,20}(\\.[a-z0-9]{1,4})?").unwrap()
}

fn arb_snapshot() -> impl Strategy<Value = MetricsSnapshot> {
    let counters = proptest::collection::vec((arb_metric_name(), any::<u32>()), 0..8);
    let gauges = proptest::collection::vec((arb_metric_name(), -1000i64..1000), 0..8);
    let histos = proptest::collection::vec((arb_metric_name(), 0u64..50, 0.0f64..1e6), 0..4);
    (counters, gauges, histos).prop_map(|(cs, gs, hs)| {
        let mut snap = MetricsSnapshot::default();
        for (n, v) in cs {
            snap.counters.insert(n, v as u64);
        }
        for (n, v) in gs {
            snap.gauges.insert(n, v);
        }
        for (n, count, base) in hs {
            snap.histograms.insert(
                n,
                if count == 0 {
                    HistogramSnapshot::default()
                } else {
                    HistogramSnapshot {
                        count,
                        min: base,
                        max: base * 2.0 + 1.0,
                        mean: base * 1.5,
                        p50: base * 1.4,
                        p90: base * 1.9,
                        p99: base * 2.0,
                    }
                },
            );
        }
        snap
    })
}

fn arb_my_type() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("MatchmakerStats".to_string()),
        Just("ResourceAgentStats".to_string()),
        Just("CustomerAgentStats".to_string()),
        Just("SimulatorStats".to_string()),
        proptest::string::string_regex("[A-Z][A-Za-z0-9]{0,12}").unwrap(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_snapshot_renders_to_a_reparseable_ad(
        snap in arb_snapshot(),
        my_type in arb_my_type(),
    ) {
        let ad = self_ad("daemon#stats", &my_type, 42, &snap);
        let printed = ad.to_string();
        let back = classad::parse_classad(&printed)
            .unwrap_or_else(|e| panic!("self-ad failed to reparse: {e}\n{printed}"));
        prop_assert_eq!(&ad, &back, "print/parse changed the self-ad");
        // Every counter and gauge survives as a queryable int attribute.
        for (name, v) in &snap.counters {
            prop_assert_eq!(
                back.get_int(&attr_name(name)),
                Some(*v as i64),
                "counter {} lost",
                name
            );
        }
        for (name, v) in &snap.gauges {
            prop_assert_eq!(back.get_int(&attr_name(name)), Some(*v), "gauge {} lost", name);
        }
    }

    #[test]
    fn my_type_constraint_selects_exactly_the_right_ads(
        snap in arb_snapshot(),
        my_type in arb_my_type(),
        other_type in arb_my_type(),
    ) {
        let policy = classad::EvalPolicy::default();
        let conv = classad::MatchConventions::default();
        let ad = self_ad("daemon#stats", &my_type, 0, &snap);
        let query = |ty: &str| {
            classad::parse_classad(&format!("[ Constraint = {} ]", self_ad_constraint(ty)))
                .expect("constraint parses")
        };
        prop_assert!(
            classad::constraint_holds(&query(&my_type), &ad, &policy, &conv),
            "self-ad of type {} must satisfy its own type constraint",
            my_type
        );
        if other_type != my_type {
            prop_assert!(
                !classad::constraint_holds(&query(&other_type), &ad, &policy, &conv),
                "type {} must not satisfy a {} constraint",
                my_type,
                other_type
            );
        }
        // The self-ad's own Constraint = false: it never accepts a match.
        prop_assert!(!classad::constraint_holds(&ad, &query(&my_type), &policy, &conv));
    }

    #[test]
    fn bucketed_histogram_tracks_the_exact_summary(
        samples in proptest::collection::vec(arb_sample(), 0..300),
    ) {
        let h = WindowedHistogram::new(Duration::from_secs(3600));
        for &v in &samples {
            h.record(v);
        }
        let got = h.snapshot();
        let want = oracle(&samples);
        prop_assert_eq!(got.count, want.count);
        prop_assert_eq!(got.min, want.min);
        prop_assert_eq!(got.max, want.max);
        // Summation order differs, so the error is relative to the
        // samples' magnitude (the mean of a cancelling sum may be ~0).
        let scale = samples.iter().map(|v| v.abs()).sum::<f64>() / samples.len().max(1) as f64;
        prop_assert!(
            (got.mean - want.mean).abs() <= 1e-9 * scale,
            "mean {} vs {}", got.mean, want.mean
        );
        for (name, g, w) in [
            ("p50", got.p50, want.p50),
            ("p90", got.p90, want.p90),
            ("p99", got.p99, want.p99),
        ] {
            prop_assert!((g - w).abs() <= w.abs() / 32.0, "{}: {:e} vs exact {:e}", name, g, w);
        }
    }
}
