//! One-way query matching (paper §4): "One-way matching protocols are used
//! to find all objects matching a given pattern. For example, there are
//! tools to check on the status of job queues and browse existing
//! resources."
//!
//! A query is itself a classad (the data model folds the query language
//! in); only the *query's* constraint must hold — the target's constraint
//! is not consulted, since browsing a resource is not claiming it.

use crate::admanager::{AdStore, StoredAd};
use crate::protocol::{EntityKind, ProtocolError, Timestamp};
use classad::ast::{AttrName, BinOp, Expr, Literal, Scope};
use classad::eval::literal_value;
use classad::value::apply_strict_binary;
use classad::{
    conjuncts_of, constraint_holds, ClassAd, EvalPolicy, MatchConventions, ParseError, Value,
};
use std::cmp::Reverse;
use std::sync::Arc;

/// A one-way query over the ad store.
#[derive(Debug, Clone)]
pub struct Query {
    /// The query ad; its `Constraint` selects targets.
    pub ad: ClassAd,
    /// Restrict to one kind of ad, or search both.
    pub kind: Option<EntityKind>,
    /// Attributes to project in results (`None` = whole ads).
    pub projection: Option<Vec<String>>,
}

impl Query {
    /// Build a query from a bare constraint expression, e.g.
    /// `other.Memory >= 64 && other.Arch == "INTEL"`.
    pub fn from_constraint(src: &str) -> Result<Query, ParseError> {
        let expr = classad::parse_expr(src)?;
        let mut ad = ClassAd::new();
        ad.set("Name", Expr::str("query"));
        ad.set("Constraint", expr);
        Ok(Query {
            ad,
            kind: None,
            projection: None,
        })
    }

    /// Build a query from the fields of a wire `Query` message (an empty
    /// projection means whole ads). A constraint that does not parse is a
    /// protocol error.
    pub fn from_message(
        constraint: &str,
        kind: Option<EntityKind>,
        projection: Vec<String>,
    ) -> Result<Query, ProtocolError> {
        let mut q = Query::from_constraint(constraint)
            .map_err(|e| ProtocolError::BadFrame(format!("bad query constraint: {e}")))?;
        q.kind = kind;
        if !projection.is_empty() {
            q.projection = Some(projection);
        }
        Ok(q)
    }

    /// Restrict the query to providers or customers.
    pub fn of_kind(mut self, kind: EntityKind) -> Query {
        self.kind = Some(kind);
        self
    }

    /// Project only the named attributes into the results.
    pub fn select(mut self, attrs: &[&str]) -> Query {
        self.projection = Some(attrs.iter().map(|s| s.to_string()).collect());
        self
    }

    /// The kinds searched, in result order: providers first.
    fn kinds(&self) -> &'static [EntityKind] {
        match self.kind {
            Some(EntityKind::Provider) => &[EntityKind::Provider],
            Some(EntityKind::Customer) => &[EntityKind::Customer],
            None => &[EntityKind::Provider, EntityKind::Customer],
        }
    }

    /// Whether the query can select an ad of `kind` at all: it searches
    /// that kind, and no top-level conjunct of its constraint is a literal
    /// other than `true` (the `false` probes and acknowledgements select
    /// nothing).
    pub fn may_select(&self, kind: EntityKind, conv: &MatchConventions) -> bool {
        self.kinds().contains(&kind) && !Plan::of(self, conv).selects_nothing
    }

    /// The stored ads the query selects, by reference: each kind's live
    /// ads whose constraint holds, freshest first, providers before
    /// customers. The results and their order are those of evaluating the
    /// constraint against every live ad ([`AdStore::snapshot`] +
    /// [`constraint_holds`]); a by-name lookup and a literal-comparison
    /// prefilter only spare the evaluator ads that cannot match.
    pub fn select_in<'s>(
        &self,
        store: &'s AdStore,
        now: Timestamp,
        policy: &EvalPolicy,
        conv: &MatchConventions,
    ) -> Vec<&'s StoredAd> {
        let plan = Plan::of(self, conv);
        let mut out = Vec::new();
        if plan.selects_nothing {
            return out;
        }
        // A store key is the `Name` evaluated at admission; only while
        // every stored `Name` is a literal is it the `Name` a query sees.
        let by_name = plan.name.as_deref().filter(|_| store.computed_names() == 0);
        let selects =
            |s: &&StoredAd| !plan.rejects(&s.ad) && constraint_holds(&self.ad, &s.ad, policy, conv);
        for &kind in self.kinds() {
            let first = out.len();
            match by_name {
                Some(name) => out.extend(
                    store
                        .get(kind, name)
                        .filter(|s| s.expires_at > now)
                        .filter(&selects),
                ),
                None => out.extend(store.live(kind, now).filter(&selects)),
            }
            out[first..].sort_by_key(|s| Reverse(s.seq));
        }
        out
    }

    /// Run the query, returning matching stored ads (freshest first, as
    /// returned by the store snapshot).
    pub fn run(
        &self,
        store: &AdStore,
        now: Timestamp,
        policy: &EvalPolicy,
        conv: &MatchConventions,
    ) -> Vec<StoredAd> {
        self.select_in(store, now, policy, conv)
            .into_iter()
            .cloned()
            .collect()
    }

    /// Run the query and return (possibly projected) result ads.
    pub fn run_projected(
        &self,
        store: &AdStore,
        now: Timestamp,
        policy: &EvalPolicy,
        conv: &MatchConventions,
    ) -> Vec<ClassAd> {
        self.select_in(store, now, policy, conv)
            .into_iter()
            .map(|s| match &self.projection {
                None => (*s.ad).clone(),
                Some(attrs) => project(&s.ad, attrs, policy),
            })
            .collect()
    }
}

/// What a query's constraint settles before any ad is evaluated: its
/// top-level conjuncts ([`conjuncts_of`]) that are literals or compare
/// `other.A` with a literal. An `&&` chain is `true` only when every
/// conjunct is, so each of these can only *reject* an ad; whatever they
/// let through still goes to [`constraint_holds`].
#[derive(Default)]
struct Plan {
    /// A conjunct is a literal other than `true`: nothing can match.
    selects_nothing: bool,
    /// From `other.Name == "<lit>"`: the only name a match can have (string
    /// `==` is ASCII case-insensitive, like store keys).
    name: Option<Arc<str>>,
    /// The `other.A <cmp> <literal>` conjuncts.
    tests: Vec<LiteralTest>,
}

/// One `other.A <cmp> <literal>` conjunct, either orientation.
struct LiteralTest {
    attr: AttrName,
    op: BinOp,
    literal: Value,
    /// The literal is the left operand (`512 <= other.Memory`).
    literal_left: bool,
}

impl Plan {
    fn of(q: &Query, conv: &MatchConventions) -> Plan {
        let mut plan = Plan::default();
        let Some(constraint) = conv.constraint_attr_of(&q.ad).and_then(|a| q.ad.get(a)) else {
            return plan;
        };
        for conjunct in conjuncts_of(constraint) {
            let (op, attr, lit, literal_left) = match conjunct {
                Expr::Lit(Literal::Bool(true)) => continue,
                Expr::Lit(_) => {
                    plan.selects_nothing = true;
                    continue;
                }
                Expr::Binary(
                    op @ (BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge),
                    l,
                    r,
                ) => match (&**l, &**r) {
                    (Expr::ScopedAttr(Scope::Target, a), Expr::Lit(lit)) => (*op, a, lit, false),
                    (Expr::Lit(lit), Expr::ScopedAttr(Scope::Target, a)) => (*op, a, lit, true),
                    _ => continue,
                },
                _ => continue,
            };
            if let (BinOp::Eq, Literal::Str(s), None) = (op, lit, &plan.name) {
                if attr.canonical() == "name" {
                    plan.name = Some(s.clone());
                }
            }
            plan.tests.push(LiteralTest {
                attr: attr.clone(),
                op,
                literal: literal_value(lit),
                literal_left,
            });
        }
        plan
    }

    fn rejects(&self, ad: &ClassAd) -> bool {
        self.tests.iter().any(|t| t.rejects(ad))
    }
}

impl LiteralTest {
    /// Whether the conjunct is certainly not `true` for `ad`, computed
    /// with the evaluator's own operator: `A` is missing (`undefined`) or
    /// a literal the comparison fails on. A computed `A` is left to the
    /// evaluator.
    fn rejects(&self, ad: &ClassAd) -> bool {
        let value = match ad.get(self.attr.canonical()).map(|e| &**e) {
            None => Value::Undefined,
            Some(Expr::Lit(l)) => literal_value(l),
            Some(_) => return false,
        };
        let result = if self.literal_left {
            apply_strict_binary(self.op, &self.literal, &value)
        } else {
            apply_strict_binary(self.op, &value, &self.literal)
        };
        result.as_bool() != Some(true)
    }
}

/// Project the named attributes of an ad into a new ad, **evaluating** each
/// (status tools want values, not formulas). Missing attributes are
/// omitted.
pub fn project(ad: &Arc<ClassAd>, attrs: &[String], policy: &EvalPolicy) -> ClassAd {
    let mut out = ClassAd::with_capacity(attrs.len());
    for name in attrs {
        let v = ad.eval_attr(name, policy);
        if !v.is_undefined() {
            out.set(name.as_str(), classad::eval::value_to_expr(&v));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Advertisement, AdvertisingProtocol};
    use classad::parse_classad;

    fn store() -> AdStore {
        let proto = AdvertisingProtocol::default();
        let mut s = AdStore::new();
        let ads = [
            (
                EntityKind::Provider,
                r#"[ Name = "intel1"; Type = "Machine"; Arch = "INTEL"; Memory = 64;
                     Constraint = other.Type == "Job" ]"#,
            ),
            (
                EntityKind::Provider,
                r#"[ Name = "sparc1"; Type = "Machine"; Arch = "SPARC"; Memory = 128;
                     Constraint = false ]"#,
            ),
            (
                EntityKind::Customer,
                r#"[ Name = "job1"; Type = "Job"; Owner = "raman"; Memory = 31;
                     Constraint = other.Type == "Machine" ]"#,
            ),
        ];
        for (kind, src) in ads {
            s.advertise(
                Advertisement {
                    kind,
                    ad: parse_classad(src).unwrap(),
                    contact: "c:1".into(),
                    ticket: None,
                    expires_at: 1000,
                },
                0,
                &proto,
            )
            .unwrap();
        }
        s
    }

    fn run(q: &Query, s: &AdStore) -> Vec<String> {
        let mut names: Vec<String> = q
            .run(s, 0, &EvalPolicy::default(), &MatchConventions::default())
            .into_iter()
            .map(|r| r.name)
            .collect();
        names.sort();
        names
    }

    #[test]
    fn query_by_attribute_value() {
        let s = store();
        let q = Query::from_constraint(r#"other.Arch == "INTEL""#).unwrap();
        assert_eq!(run(&q, &s), vec!["intel1"]);
    }

    #[test]
    fn query_ignores_target_constraint() {
        // sparc1's own Constraint is false, but one-way browsing still
        // finds it.
        let s = store();
        let q = Query::from_constraint("other.Memory >= 64").unwrap();
        assert_eq!(run(&q, &s), vec!["intel1", "sparc1"]);
    }

    #[test]
    fn query_kind_restriction() {
        let s = store();
        let q = Query::from_constraint("other.Memory > 0").unwrap();
        assert_eq!(run(&q, &s), vec!["intel1", "job1", "sparc1"]);
        let q = q.of_kind(EntityKind::Customer);
        assert_eq!(run(&q, &s), vec!["job1"]);
    }

    #[test]
    fn query_with_undefined_is_no_match() {
        let s = store();
        let q = Query::from_constraint("other.NoSuchAttr > 5").unwrap();
        assert!(run(&q, &s).is_empty());
        // But `is undefined` finds everything lacking the attribute.
        let q = Query::from_constraint("other.NoSuchAttr is undefined").unwrap();
        assert_eq!(run(&q, &s).len(), 3);
    }

    #[test]
    fn projection_evaluates_and_omits_missing() {
        let s = store();
        let q = Query::from_constraint(r#"other.Arch == "INTEL""#)
            .unwrap()
            .select(&["Name", "Memory", "NoSuch"]);
        let results = q.run_projected(&s, 0, &EvalPolicy::default(), &MatchConventions::default());
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert_eq!(r.len(), 2, "{r}");
        assert_eq!(r.get_string("Name"), Some("intel1"));
        assert_eq!(r.get_int("Memory"), Some(64));
    }

    #[test]
    fn literal_false_conjuncts_select_nothing() {
        let s = store();
        let conv = MatchConventions::default();
        for src in [
            "false",
            "other.Memory > 0 && false",
            "(true && undefined) && true",
        ] {
            let q = Query::from_constraint(src).unwrap();
            assert!(run(&q, &s).is_empty(), "{src}");
            assert!(!q.may_select(EntityKind::Provider, &conv), "{src}");
        }
        let q = Query::from_constraint("true && other.Memory > 0").unwrap();
        assert!(q.may_select(EntityKind::Provider, &conv));
        let q = q.of_kind(EntityKind::Customer);
        assert!(!q.may_select(EntityKind::Provider, &conv));
        assert!(q.may_select(EntityKind::Customer, &conv));
    }

    #[test]
    fn prefilter_leaves_computed_attributes_to_the_evaluator() {
        let mut s = store();
        s.advertise(
            Advertisement {
                kind: EntityKind::Provider,
                ad: parse_classad(
                    r#"[ Name = "calc"; Base = 32; Memory = Base * 4; Arch = strcat("INT", "EL");
                         Constraint = true ]"#,
                )
                .unwrap(),
                contact: "c:1".into(),
                ticket: None,
                expires_at: 1000,
            },
            0,
            &AdvertisingProtocol::default(),
        )
        .unwrap();
        let q = Query::from_constraint(r#"128 <= other.Memory && other.Arch == "intel""#).unwrap();
        assert_eq!(run(&q, &s), vec!["calc"]);
    }

    #[test]
    fn lookup_by_name_is_case_insensitive_and_waits_out_computed_names() {
        let mut s = store();
        let q = Query::from_constraint(r#""INTEL1" == other.Name"#).unwrap();
        assert_eq!(run(&q, &s), vec!["intel1"]);
        // Stored under "solo" (no `other` at admission), but `Name` reads
        // "intel1" against a query: only a scan finds it.
        s.advertise(
            Advertisement {
                kind: EntityKind::Customer,
                ad: parse_classad(
                    r#"[ Name = other.Name is undefined ? "solo" : "intel1"; Constraint = true ]"#,
                )
                .unwrap(),
                contact: "c:1".into(),
                ticket: None,
                expires_at: 1000,
            },
            0,
            &AdvertisingProtocol::default(),
        )
        .unwrap();
        assert_eq!(s.computed_names(), 1);
        assert_eq!(run(&q, &s), vec!["intel1", "solo"]);
        assert!(s.withdraw(EntityKind::Customer, "solo"));
        assert_eq!(s.computed_names(), 0);
    }

    #[test]
    fn bad_constraint_is_parse_error() {
        assert!(Query::from_constraint("this is not ) valid").is_err());
    }
}
