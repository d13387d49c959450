//! Unsatisfiable-constraint diagnosis (paper §5).
//!
//! "The complexity of constraints imposed by resources and customers may
//! hinder the diagnostic capability of administrators and customers who
//! may wonder why certain requests are unable to find resources with
//! particular characteristics. To alleviate this problem, we are
//! researching methods for identifying constraints which can never be
//! satisfied by the pool."
//!
//! The analysis splits a request's constraint into its top-level
//! conjuncts, evaluates each conjunct separately against every offer, and
//! reports which conjuncts eliminate which fraction of the pool. For
//! conjuncts comparing an `other.X` attribute against a number, the pool's
//! observed range of `X` is profiled to produce an actionable suggestion
//! ("no machine has Memory >= 1024; pool maximum is 512"). The same pass
//! also attributes failures to the *offer side* (machines whose own
//! policies reject this customer), which the paper notes is the other half
//! of bilateral matching.

use classad::ast::{BinOp, Expr, Scope};
use classad::{
    traced_symmetric_match, ClassAd, EvalPolicy, Evaluator, MatchConventions, RejectReason,
    RejectSide, Side, Value,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Split an expression into its top-level `&&` conjuncts. Re-exported from
/// [`classad::analyze`]: diagnosis and the tracing evaluator share one
/// notion of "conjunct" so their clause attributions agree.
pub use classad::conjuncts_of;

/// One top-level conjunct of a constraint, with its elimination stats.
#[derive(Debug, Clone)]
pub struct ConjunctReport {
    /// The conjunct's source text.
    pub text: String,
    /// Offers for which the conjunct evaluated to `false`.
    pub false_count: usize,
    /// Offers for which it evaluated to `undefined` (missing attribute).
    pub undefined_count: usize,
    /// Offers for which it evaluated to `error`.
    pub error_count: usize,
    /// Offers that satisfied it.
    pub true_count: usize,
}

impl ConjunctReport {
    /// Offers eliminated by this conjunct.
    pub fn eliminated(&self) -> usize {
        self.false_count + self.undefined_count + self.error_count
    }

    /// Does this conjunct alone eliminate the whole pool?
    pub fn kills_pool(&self) -> bool {
        self.true_count == 0
    }
}

/// The diagnosis of a request against a pool.
#[derive(Debug, Clone)]
pub struct Diagnosis {
    /// Offers examined.
    pub pool_size: usize,
    /// Offers fully matching (both constraints).
    pub matches: usize,
    /// Per-conjunct elimination stats for the request's constraint.
    pub conjuncts: Vec<ConjunctReport>,
    /// Offers that satisfied the request's constraint but whose own
    /// constraint rejected the request (the provider's veto).
    pub rejected_by_offer: usize,
    /// Per-offer rejection reasons from the shared tracing evaluator
    /// ([`classad::traced_symmetric_match`]), ranked by frequency
    /// (descending, ties broken by reason order). Uses the same
    /// [`RejectReason`] taxonomy the negotiator's rejection tables and the
    /// `MatchAnalysis` query report, so a gangmatch diagnosis and a live
    /// `MatchAnalysis` ad name failures identically.
    pub reasons: Vec<(RejectReason, usize)>,
    /// Human-readable suggestions for never-satisfiable conjuncts.
    pub suggestions: Vec<String>,
}

impl Diagnosis {
    /// `true` when the request can match nothing in this pool.
    pub fn unsatisfiable(&self) -> bool {
        self.matches == 0
    }
}

impl fmt::Display for Diagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pool of {}: {} match(es); {} offer-side rejection(s)",
            self.pool_size, self.matches, self.rejected_by_offer
        )?;
        for c in &self.conjuncts {
            writeln!(
                f,
                "  [{}/{} eliminated] {}",
                c.eliminated(),
                self.pool_size,
                c.text
            )?;
        }
        for (reason, n) in &self.reasons {
            writeln!(f, "  reason: {} x{n}", reason.label())?;
        }
        for s in &self.suggestions {
            writeln!(f, "  hint: {s}")?;
        }
        Ok(())
    }
}

/// Diagnose why `request` does (not) match the pool.
pub fn diagnose(
    request: &ClassAd,
    offers: &[Arc<ClassAd>],
    policy: &EvalPolicy,
    conv: &MatchConventions,
) -> Diagnosis {
    let constraint_attr = conv.constraint_attr_of(request);
    let conj_exprs: Vec<Expr> = match constraint_attr.and_then(|a| request.get(a)) {
        Some(e) => conjuncts_of(e).into_iter().cloned().collect(),
        None => Vec::new(),
    };

    let mut conjuncts: Vec<ConjunctReport> = conj_exprs
        .iter()
        .map(|e| ConjunctReport {
            text: e.to_string(),
            false_count: 0,
            undefined_count: 0,
            error_count: 0,
            true_count: 0,
        })
        .collect();

    let mut matches = 0;
    let mut rejected_by_offer = 0;
    let mut reason_counts: BTreeMap<RejectReason, usize> = BTreeMap::new();
    for offer in offers {
        // Conjunct-level accounting.
        for (i, ce) in conj_exprs.iter().enumerate() {
            let mut ev = Evaluator::pair(request, offer, policy);
            match ev.eval(ce, Side::Left) {
                Value::Bool(true) => conjuncts[i].true_count += 1,
                Value::Bool(false) => conjuncts[i].false_count += 1,
                Value::Undefined => conjuncts[i].undefined_count += 1,
                _ => conjuncts[i].error_count += 1,
            }
        }
        // Whole-match accounting via the shared tracing evaluator: the
        // verdict equals `symmetric_match`, and a rejection carries the
        // same RejectReason the negotiator's tables would record.
        let trace = traced_symmetric_match(request, offer, policy, conv);
        if trace.verdict {
            matches += 1;
        } else {
            let reason = trace.reason.unwrap_or(RejectReason::EvalError {
                side: RejectSide::Request,
            });
            if reason_side(&reason) == Some(RejectSide::Offer) {
                rejected_by_offer += 1;
            }
            *reason_counts.entry(reason).or_insert(0) += 1;
        }
    }
    let mut reasons: Vec<(RejectReason, usize)> = reason_counts.into_iter().collect();
    reasons.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    let mut suggestions = Vec::new();
    for (i, rep) in conjuncts.iter().enumerate() {
        if rep.kills_pool() && !offers.is_empty() {
            if let Some(s) = suggest(&conj_exprs[i], offers, policy) {
                suggestions.push(s);
            } else {
                suggestions.push(format!("no offer in the pool satisfies `{}`", rep.text));
            }
        }
    }

    Diagnosis {
        pool_size: offers.len(),
        matches,
        conjuncts,
        rejected_by_offer,
        reasons,
        suggestions,
    }
}

/// Which side a constraint-level reason blames (`None` for the
/// scheduler-level `Busy`/`LostRank`, which diagnosis never produces).
fn reason_side(reason: &RejectReason) -> Option<RejectSide> {
    match reason {
        RejectReason::RequirementsFalse { side, .. }
        | RejectReason::UndefinedAttr { side, .. }
        | RejectReason::EvalError { side } => Some(*side),
        RejectReason::Busy | RejectReason::LostRank => None,
    }
}

/// Numeric/string profile of one attribute across the pool.
#[derive(Debug, Clone, Default)]
pub struct AttrProfile {
    /// Offers defining the attribute.
    pub defined: usize,
    /// Minimum numeric value observed.
    pub min: Option<f64>,
    /// Maximum numeric value observed.
    pub max: Option<f64>,
    /// Distinct string values observed (capped).
    pub strings: BTreeSet<String>,
}

/// Profile attribute `name` across the pool.
pub fn profile_attr(offers: &[Arc<ClassAd>], name: &str, policy: &EvalPolicy) -> AttrProfile {
    let mut p = AttrProfile::default();
    for offer in offers {
        let v = offer.eval_attr(name, policy);
        match v {
            Value::Undefined => continue,
            Value::Int(_) | Value::Real(_) => {
                let x = v.as_f64().unwrap();
                p.defined += 1;
                p.min = Some(p.min.map_or(x, |m| m.min(x)));
                p.max = Some(p.max.map_or(x, |m| m.max(x)));
            }
            Value::Str(s) => {
                p.defined += 1;
                if p.strings.len() < 16 {
                    p.strings.insert(s.to_string());
                }
            }
            _ => {
                p.defined += 1;
            }
        }
    }
    p
}

/// If the conjunct is a simple comparison against the other ad's
/// attribute, produce a pool-aware hint.
fn suggest(e: &Expr, offers: &[Arc<ClassAd>], policy: &EvalPolicy) -> Option<String> {
    let (attr, op, bound) = simple_comparison(e)?;
    let prof = profile_attr(offers, &attr, policy);
    if prof.defined == 0 {
        return Some(format!(
            "no offer defines `{attr}` at all (referenced by `{e}`)"
        ));
    }
    match bound {
        Bound::Num(b) => {
            let (min, max) = (prof.min?, prof.max?);
            let relation = match op {
                BinOp::Ge | BinOp::Gt => format!("pool maximum is {max}"),
                BinOp::Le | BinOp::Lt => format!("pool minimum is {min}"),
                BinOp::Eq => format!("pool range is [{min}, {max}]"),
                _ => return None,
            };
            Some(format!(
                "`{e}` is unsatisfiable: requires {attr} {} {b}, but {relation}",
                op.symbol()
            ))
        }
        Bound::Str(s) => {
            let observed: Vec<String> = prof.strings.iter().cloned().collect();
            Some(format!(
                "`{e}` is unsatisfiable: no offer has {attr} == \"{s}\"; observed values: {observed:?}"
            ))
        }
    }
}

enum Bound {
    Num(f64),
    Str(String),
}

/// Recognise `other.X <op> literal` / `X <op> literal` (either side).
fn simple_comparison(e: &Expr) -> Option<(String, BinOp, Bound)> {
    let Expr::Binary(op, l, r) = e else {
        return None;
    };
    if !matches!(
        op,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq
    ) {
        return None;
    }
    let attr_of = |x: &Expr| -> Option<String> {
        match x {
            Expr::ScopedAttr(Scope::Target, n) => Some(n.canonical().to_string()),
            Expr::Attr(n) => Some(n.canonical().to_string()),
            _ => None,
        }
    };
    let bound_of = |x: &Expr| -> Option<Bound> {
        match x {
            Expr::Lit(classad::Literal::Int(i)) => Some(Bound::Num(*i as f64)),
            Expr::Lit(classad::Literal::Real(rv)) => Some(Bound::Num(*rv)),
            Expr::Lit(classad::Literal::Str(s)) => Some(Bound::Str(s.to_string())),
            _ => None,
        }
    };
    if let (Some(a), Some(b)) = (attr_of(l), bound_of(r)) {
        return Some((a, *op, b));
    }
    if let (Some(b), Some(a)) = (bound_of(l), attr_of(r)) {
        // Flip the operator: `10 <= other.X` means `other.X >= 10`.
        let flipped = match op {
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            other => *other,
        };
        return Some((a, flipped, b));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use classad::parse_classad;

    fn pool() -> Vec<Arc<ClassAd>> {
        (0..8)
            .map(|i| {
                Arc::new(
                    parse_classad(&format!(
                        r#"[ Name = "m{i}"; Type = "Machine";
                             Arch = "{arch}"; Memory = {mem}; Mips = {mips};
                             Constraint = other.Owner != "banned" ]"#,
                        arch = if i % 2 == 0 { "INTEL" } else { "SPARC" },
                        mem = 32 << (i % 3),
                        mips = 50 + 10 * i,
                    ))
                    .unwrap(),
                )
            })
            .collect()
    }

    fn req(constraint: &str, owner: &str) -> ClassAd {
        parse_classad(&format!(
            r#"[ Name = "j"; Type = "Job"; Owner = "{owner}";
                 Constraint = {constraint} ]"#
        ))
        .unwrap()
    }

    fn run(constraint: &str) -> Diagnosis {
        diagnose(
            &req(constraint, "alice"),
            &pool(),
            &EvalPolicy::default(),
            &MatchConventions::default(),
        )
    }

    #[test]
    fn conjunct_splitting() {
        let e = classad::parse_expr("a && b && (c || d) && e > 1").unwrap();
        let cs = conjuncts_of(&e);
        assert_eq!(cs.len(), 4);
        assert_eq!(cs[2].to_string(), "c || d");
    }

    #[test]
    fn satisfiable_request_reports_matches() {
        let d = run(r#"other.Type == "Machine" && other.Memory >= 64"#);
        assert!(!d.unsatisfiable());
        assert!(d.matches > 0);
        assert!(d.suggestions.is_empty());
        assert_eq!(d.pool_size, 8);
    }

    #[test]
    fn numeric_bound_unsatisfiable_with_hint() {
        let d = run(r#"other.Type == "Machine" && other.Memory >= 1024"#);
        assert!(d.unsatisfiable());
        // The memory conjunct kills the pool; the type conjunct does not.
        let killer = d
            .conjuncts
            .iter()
            .find(|c| c.text.contains("Memory"))
            .unwrap();
        assert!(killer.kills_pool());
        assert_eq!(killer.false_count, 8);
        let typer = d
            .conjuncts
            .iter()
            .find(|c| c.text.contains("Type"))
            .unwrap();
        assert!(!typer.kills_pool());
        assert_eq!(d.suggestions.len(), 1);
        assert!(
            d.suggestions[0].contains("pool maximum is 128"),
            "{}",
            d.suggestions[0]
        );
    }

    #[test]
    fn string_equality_unsatisfiable_lists_observed() {
        let d = run(r#"other.Arch == "ALPHA""#);
        assert!(d.unsatisfiable());
        assert_eq!(d.suggestions.len(), 1);
        let s = &d.suggestions[0];
        assert!(s.contains("INTEL") && s.contains("SPARC"), "{s}");
    }

    #[test]
    fn missing_attribute_detected() {
        let d = run("other.GPUs >= 1");
        assert!(d.unsatisfiable());
        assert_eq!(d.conjuncts[0].undefined_count, 8);
        assert!(
            d.suggestions[0].contains("no offer defines `gpus`"),
            "{}",
            d.suggestions[0]
        );
    }

    #[test]
    fn offer_side_rejection_attributed() {
        let d = diagnose(
            &req(r#"other.Type == "Machine""#, "banned"),
            &pool(),
            &EvalPolicy::default(),
            &MatchConventions::default(),
        );
        assert!(d.unsatisfiable());
        assert_eq!(d.rejected_by_offer, 8, "machines veto the banned user");
        // Request-side conjuncts are all satisfied.
        assert!(d.conjuncts.iter().all(|c| !c.kills_pool()));
    }

    #[test]
    fn flipped_comparison_recognised() {
        let d = run(r#"1024 <= other.Memory"#);
        assert!(d.unsatisfiable());
        assert!(
            d.suggestions[0].contains("pool maximum is 128"),
            "{}",
            d.suggestions[0]
        );
    }

    #[test]
    fn profile_attr_ranges() {
        let p = profile_attr(&pool(), "Mips", &EvalPolicy::default());
        assert_eq!(p.defined, 8);
        assert_eq!(p.min, Some(50.0));
        assert_eq!(p.max, Some(120.0));
        let p = profile_attr(&pool(), "Arch", &EvalPolicy::default());
        assert_eq!(p.strings.len(), 2);
        let p = profile_attr(&pool(), "NoSuch", &EvalPolicy::default());
        assert_eq!(p.defined, 0);
    }

    #[test]
    fn reasons_use_the_shared_taxonomy() {
        let d = run(r#"other.Type == "Machine" && other.Memory >= 1024"#);
        assert!(d.unsatisfiable());
        // Every offer fails the memory clause: one ranked reason, counted 8
        // times, labelled exactly as the negotiator's tables would label it.
        assert_eq!(d.reasons.len(), 1);
        let (reason, n) = &d.reasons[0];
        assert_eq!(*n, 8);
        assert_eq!(reason.label(), "ReqFalse(request): other.Memory >= 1024");
        assert_eq!(reason.kind(), "RequirementsFalse");
    }

    #[test]
    fn offer_veto_reasons_blame_the_offer_side() {
        let d = diagnose(
            &req(r#"other.Type == "Machine""#, "banned"),
            &pool(),
            &EvalPolicy::default(),
            &MatchConventions::default(),
        );
        assert_eq!(d.rejected_by_offer, 8);
        assert_eq!(d.reasons.len(), 1);
        match &d.reasons[0].0 {
            RejectReason::RequirementsFalse { side, clause } => {
                assert_eq!(*side, RejectSide::Offer);
                assert!(clause.contains("banned"), "{clause}");
            }
            other => panic!("wrong reason: {other}"),
        }
    }

    #[test]
    fn display_renders_report() {
        let d = run(r#"other.Memory >= 1024"#);
        let text = d.to_string();
        assert!(text.contains("0 match(es)"), "{text}");
        assert!(text.contains("hint:"), "{text}");
    }

    #[test]
    fn empty_pool_no_spurious_suggestions() {
        let d = diagnose(
            &req("other.Memory >= 1024", "alice"),
            &[],
            &EvalPolicy::default(),
            &MatchConventions::default(),
        );
        assert_eq!(d.pool_size, 0);
        assert!(d.suggestions.is_empty());
    }

    #[test]
    fn constraintless_request() {
        let ad = parse_classad(r#"[ Name = "q" ]"#).unwrap();
        let d = diagnose(
            &ad,
            &pool(),
            &EvalPolicy::default(),
            &MatchConventions::default(),
        );
        assert!(d.conjuncts.is_empty());
        // A constraint-less query accepts anything, but the machines'
        // own constraints still apply bilaterally: this ad has no Owner,
        // so `other.Owner != "banned"` is undefined and every offer
        // vetoes it.
        assert_eq!(d.matches, 0);
        assert_eq!(d.rejected_by_offer, 8);
    }
}
