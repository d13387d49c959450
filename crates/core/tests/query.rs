//! The query planner against its oracle. On random stores and random
//! constraints, `Query::run` and `Query::run_projected` — by-name lookup,
//! literal-comparison prefilter and all — return exactly what evaluating
//! the constraint against every live ad of each kind returns
//! (`AdStore::snapshot` + `constraint_holds`), in content and order; a
//! reply written from the cached encodings is the reply encoding the
//! oracle's ads gives; and a query said to select nothing of a kind does.
//! Over ads that are not in a store — a collection's — `Query::select_from`
//! returns exactly what evaluating the query ad against every ad in input
//! order returns, projected like a stored ad.

use classad::{constraint_holds, parse_expr, ClassAd, EvalPolicy, Expr, MatchConventions};
use matchmaker::admanager::{AdStore, StoredAd};
use matchmaker::protocol::{
    encode_query_reply, Advertisement, AdvertisingProtocol, EntityKind, Message,
};
use matchmaker::query::{project, Query};
use proptest::prelude::*;
use std::sync::Arc;

/// Queries run at this time; ads expire at 50 (swept by `Op::Expire`), 80
/// (lapsed but unswept) or 150 (live).
const NOW: u64 = 100;
const SWEEP_AT: u64 = 60;
const EXPIRIES: [u64; 3] = [50, 80, 150];

const NAMES: [&str; 4] = ["alpha", "Beta", "GAMMA", "delta"];
const ATTRS: [&str; 4] = ["Arch", "Memory", "Load", "Busy"];
const STRS: [&str; 4] = ["intel", "INTEL", "Sparc", "x86"];
const REALS: [f64; 3] = [0.5, 2.0, 2.5];
const CMPS: [&str; 6] = ["==", "!=", "<", "<=", ">", ">="];
/// Computed attribute values: arithmetic on the ad's own `Base`, a string
/// built at evaluation time, a comparison, a reference to the query ad
/// and a reference to nothing.
const COMPUTED: [&str; 6] = [
    "Base * 2",
    "Base + 0.5",
    r#"strcat("in", "tel")"#,
    "Base > 1",
    "other.Name",
    "NoSuch",
];
/// A `Name` that evaluates to "beta" alone (at admission, so the ad is
/// stored under "beta") and to "gamma" against any ad with a `Name`, such
/// as a query.
const COMPUTED_NAME: &str = r#"(other.Name is undefined) ? "beta" : "gamma""#;

#[derive(Debug, Clone)]
enum Val {
    Missing,
    Str(usize),
    Int(i64),
    Real(usize),
    Bool(bool),
    Computed(usize),
}

fn arb_val() -> impl Strategy<Value = Val> {
    prop_oneof![
        1 => Just(Val::Missing),
        2 => (0..STRS.len()).prop_map(Val::Str),
        2 => (0i64..5).prop_map(Val::Int),
        1 => (0..REALS.len()).prop_map(Val::Real),
        1 => any::<bool>().prop_map(Val::Bool),
        2 => (0..COMPUTED.len()).prop_map(Val::Computed),
    ]
}

fn literal(v: &Val) -> Option<String> {
    match v {
        Val::Str(i) => Some(format!("{:?}", STRS[*i])),
        Val::Int(i) => Some(i.to_string()),
        Val::Real(i) => Some(format!("{:?}", REALS[*i])),
        Val::Bool(b) => Some(b.to_string()),
        Val::Missing | Val::Computed(_) => None,
    }
}

fn arb_literal() -> impl Strategy<Value = String> {
    arb_val()
        .prop_filter("a literal", |v| literal(v).is_some())
        .prop_map(|v| literal(&v).unwrap())
}

/// One of `items`.
fn pick<T: Copy + std::fmt::Debug + 'static>(items: &'static [T]) -> impl Strategy<Value = T> {
    (0..items.len()).prop_map(move |i| items[i])
}

/// A name from [`NAMES`] in lower, upper or its own case.
fn arb_name() -> impl Strategy<Value = String> {
    (0..NAMES.len(), 0..3u8).prop_map(|(i, case)| match case {
        0 => NAMES[i].to_ascii_lowercase(),
        1 => NAMES[i].to_ascii_uppercase(),
        _ => NAMES[i].to_string(),
    })
}

#[derive(Debug, Clone)]
struct AdSpec {
    provider: bool,
    name: String,
    computed_name: bool,
    base: i64,
    attrs: Vec<Val>,
    expires_at: u64,
}

fn arb_ad(computed_name: bool) -> impl Strategy<Value = AdSpec> {
    (
        any::<bool>(),
        arb_name(),
        Just(computed_name),
        0i64..4,
        proptest::collection::vec(arb_val(), ATTRS.len()),
        pick(&EXPIRIES),
    )
        .prop_map(
            |(provider, name, computed_name, base, attrs, expires_at)| AdSpec {
                provider,
                name,
                computed_name,
                base,
                attrs,
                expires_at,
            },
        )
}

impl AdSpec {
    fn kind(&self) -> EntityKind {
        if self.provider {
            EntityKind::Provider
        } else {
            EntityKind::Customer
        }
    }

    fn advertisement(&self) -> Advertisement {
        let mut ad = ClassAd::new();
        if self.computed_name {
            ad.set("Name", parse_expr(COMPUTED_NAME).unwrap());
        } else {
            ad.set_str("Name", &self.name);
        }
        ad.set_int("Base", self.base);
        for (attr, v) in ATTRS.iter().zip(&self.attrs) {
            match v {
                Val::Missing => {}
                Val::Str(i) => ad.set_str(*attr, STRS[*i]),
                Val::Int(i) => ad.set_int(*attr, *i),
                Val::Real(i) => ad.set_real(*attr, REALS[*i]),
                Val::Bool(b) => ad.set_bool(*attr, *b),
                Val::Computed(i) => ad.set(*attr, parse_expr(COMPUTED[*i]).unwrap()),
            }
        }
        ad.set("Constraint", Expr::bool(true));
        Advertisement {
            kind: self.kind(),
            ad,
            contact: "c:1".into(),
            ticket: None,
            expires_at: self.expires_at,
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Advertise(AdSpec),
    Withdraw(bool, String),
    Expire,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => arb_ad(false).prop_map(Op::Advertise),
        1 => (any::<bool>(), arb_name()).prop_map(|(p, n)| Op::Withdraw(p, n)),
        1 => Just(Op::Expire),
    ]
}

/// Store histories: random ads, withdrawals and sweeps, with one ad whose
/// `Name` is computed advertised somewhere among them.
fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    (
        proptest::collection::vec(arb_op(), 0..24),
        arb_ad(true),
        0usize..24,
    )
        .prop_map(|(mut ops, computed, at)| {
            ops.insert(at.min(ops.len()), Op::Advertise(computed));
            ops
        })
}

fn store_of(ops: &[Op]) -> AdStore {
    let proto = AdvertisingProtocol::default();
    let mut store = AdStore::new();
    for op in ops {
        match op {
            Op::Advertise(spec) => {
                store.advertise(spec.advertisement(), 0, &proto).unwrap();
            }
            Op::Withdraw(provider, name) => {
                let kind = if *provider {
                    EntityKind::Provider
                } else {
                    EntityKind::Customer
                };
                store.withdraw(kind, name);
            }
            Op::Expire => {
                store.expire(SWEEP_AT);
            }
        }
    }
    store
}

/// `other.Name == "<lit>"`, either orientation, in right and wrong case,
/// or naming what the computed `Name` shows a query.
fn arb_name_conjunct() -> impl Strategy<Value = String> {
    (
        prop_oneof![2 => arb_name(), 1 => Just("gamma".to_string())],
        any::<bool>(),
    )
        .prop_map(|(n, flip)| {
            if flip {
                format!("{n:?} == other.Name")
            } else {
                format!("other.Name == {n:?}")
            }
        })
}

fn arb_conjunct() -> impl Strategy<Value = String> {
    let attr = || pick(&ATTRS);
    let cmp = || pick(&CMPS);
    prop_oneof![
        // What the prefilter compiles: `other.A <cmp> lit`, both ways.
        6 => (attr(), cmp(), arb_literal(), any::<bool>()).prop_map(|(a, op, lit, flip)| {
            if flip {
                format!("{lit} {op} other.{a}")
            } else {
                format!("other.{a} {op} {lit}")
            }
        }),
        2 => arb_name_conjunct(),
        1 => (cmp(), arb_name()).prop_map(|(op, n)| format!("other.Name {op} {n:?}")),
        // What neither can use.
        1 => (attr(), cmp(), arb_literal(), attr(), arb_literal()).prop_map(
            |(a, op, x, b, y)| format!("(other.{a} {op} {x} || other.{b} == {y})")
        ),
        1 => attr().prop_map(|a| format!("other.{a} is undefined")),
        1 => pick(
            &[
                r#"self.Name == "query""#,
                r#"Name == "QUERY""#,
                "Base >= 1",
                "other.Memory + 1 > 2",
                "other.Base == self.NoSuch",
                "true",
                "false",
                "undefined",
                "3",
            ]
        )
        .prop_map(str::to_string),
    ]
}

fn arb_query() -> impl Strategy<Value = Query> {
    (
        prop_oneof![arb_name_conjunct(), arb_conjunct()],
        proptest::collection::vec(arb_conjunct(), 0..3),
        any::<bool>(),
        prop_oneof![
            Just(None),
            Just(Some(EntityKind::Provider)),
            Just(Some(EntityKind::Customer))
        ],
        any::<bool>(),
    )
        .prop_map(|(first, rest, nest, kind, projected)| {
            let conjuncts: Vec<String> = std::iter::once(first).chain(rest).collect();
            let mut src = conjuncts.join(" && ");
            if nest && conjuncts.len() > 1 {
                src = format!("({}) && {}", conjuncts[..2].join(" && "), {
                    let rest = conjuncts[2..].join(" && ");
                    if rest.is_empty() {
                        "true".to_string()
                    } else {
                        rest
                    }
                });
            }
            let mut q = Query::from_constraint(&src).unwrap();
            q.kind = kind;
            if projected {
                q = q.select(&["Name", "Memory", "NoSuch"]);
            }
            q
        })
}

/// The parent algorithm: every live ad of each searched kind, freshest
/// first, through the full evaluator.
fn reference(
    q: &Query,
    store: &AdStore,
    policy: &EvalPolicy,
    conv: &MatchConventions,
) -> Vec<StoredAd> {
    let kinds = match q.kind {
        Some(kind) => vec![kind],
        None => vec![EntityKind::Provider, EntityKind::Customer],
    };
    kinds
        .into_iter()
        .flat_map(|kind| store.snapshot(kind, NOW))
        .filter(|s| constraint_holds(q.ad(), &s.ad, policy, conv))
        .collect()
}

/// How the view and the alarm answered their own query messages: the
/// query ad against every ad, in input order, through the full evaluator;
/// projected the way a stored ad is.
fn reference_over(
    q: &Query,
    ads: &[ClassAd],
    policy: &EvalPolicy,
    conv: &MatchConventions,
) -> Vec<ClassAd> {
    ads.iter()
        .filter(|ad| constraint_holds(q.ad(), ad, policy, conv))
        .map(|ad| match &q.projection {
            None => ad.clone(),
            Some(attrs) => project(ad, attrs, policy),
        })
        .collect()
}

fn ids(ads: &[StoredAd]) -> Vec<(EntityKind, String, u64)> {
    ads.iter()
        .map(|s| (s.kind, s.name.clone(), s.seq))
        .collect()
}

proptest! {
    #[test]
    fn queries_select_what_a_full_scan_selects(
        ops in arb_ops(),
        q in arb_query(),
    ) {
        let (policy, conv) = (EvalPolicy::default(), MatchConventions::default());
        let store = store_of(&ops);
        prop_assert_eq!(
            store.computed_names(),
            store.iter().filter(|s| !s.name_is_literal()).count()
        );
        let want = reference(&q, &store, &policy, &conv);

        let got = q.run(&store, NOW, &policy, &conv);
        prop_assert_eq!(ids(&got), ids(&want));
        prop_assert!(got.iter().zip(&want).all(|(a, b)| Arc::ptr_eq(&a.ad, &b.ad)));

        let want_ads: Vec<ClassAd> = want
            .iter()
            .map(|s| match &q.projection {
                None => (*s.ad).clone(),
                Some(attrs) => project(&s.ad, attrs, &policy),
            })
            .collect();
        prop_assert_eq!(q.run_projected(&store, NOW, &policy, &conv), want_ads.clone());

        if q.projection.is_none() {
            let cached: Vec<Arc<str>> = q
                .select_in(&store, NOW, &policy, &conv)
                .iter()
                .map(|s| s.json().clone())
                .collect();
            prop_assert_eq!(
                encode_query_reply(&cached),
                Message::QueryReply { ads: want_ads }.encode()
            );
        }

        for kind in [EntityKind::Provider, EntityKind::Customer] {
            if !q.may_select(kind) {
                prop_assert!(want.iter().all(|s| s.kind != kind));
            }
        }
    }

    #[test]
    fn collection_ads_select_what_evaluating_every_ad_selects(
        ops in arb_ops(),
        q in arb_query(),
    ) {
        let (policy, conv) = (EvalPolicy::default(), MatchConventions::default());
        let ads: Vec<ClassAd> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Advertise(spec) => Some(spec.advertisement().ad),
                _ => None,
            })
            .collect();
        prop_assert_eq!(
            q.select_from(&ads, &policy, &conv),
            reference_over(&q, &ads, &policy, &conv)
        );
    }
}
