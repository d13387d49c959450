//! Bilateral matching semantics: symmetric constraint satisfaction and
//! rank evaluation (paper §3.2).
//!
//! "The classads ... assume a matchmaking algorithm that considers a pair of
//! ads to be incompatible unless their Constraint expressions both evaluate
//! to true. The Rank attributes is then used to choose among compatible
//! matches." Undefined constraints are treated as `false` (the match fails);
//! non-numeric ranks are treated as zero.

use crate::classad::ClassAd;
use crate::eval::{EvalPolicy, Evaluator, Side};
use crate::value::Value;

/// Names of the attributes the advertising protocol gives meaning to.
///
/// The paper uses `Constraint` and `Rank`; later Condor releases renamed
/// `Constraint` to `Requirements`. Both spellings are accepted by default:
/// the first present attribute from `constraint_attrs` is used.
#[derive(Debug, Clone)]
pub struct MatchConventions {
    /// Candidate names for the constraint attribute, in priority order.
    pub constraint_attrs: Vec<String>,
    /// Name of the rank attribute.
    pub rank_attr: String,
    /// What a *missing* constraint attribute means: `true` ("accept
    /// anything", useful for one-way queries) or `false` ("never match",
    /// the strict reading of the advertising protocol).
    pub missing_constraint_matches: bool,
}

impl Default for MatchConventions {
    fn default() -> Self {
        MatchConventions {
            constraint_attrs: vec!["Constraint".to_string(), "Requirements".to_string()],
            rank_attr: "Rank".to_string(),
            missing_constraint_matches: true,
        }
    }
}

impl MatchConventions {
    /// The name of the constraint attribute present in `ad`, if any.
    pub fn constraint_attr_of(&self, ad: &ClassAd) -> Option<&str> {
        self.constraint_attrs
            .iter()
            .map(|s| s.as_str())
            .find(|n| ad.contains(n))
    }
}

/// The outcome of evaluating a pair of ads against each other.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchResult {
    /// `left`'s constraint, evaluated with `right` as the candidate.
    pub left_constraint: bool,
    /// `right`'s constraint, evaluated with `left` as the candidate.
    pub right_constraint: bool,
    /// `left`'s rank of `right` (non-numeric ⇒ 0).
    pub left_rank: f64,
    /// `right`'s rank of `left` (non-numeric ⇒ 0).
    pub right_rank: f64,
}

impl MatchResult {
    /// Both constraints hold.
    pub fn matched(&self) -> bool {
        self.left_constraint && self.right_constraint
    }
}

/// Does `ad`'s constraint accept `candidate`? One-way check; `undefined`
/// and `error` count as rejection.
pub fn constraint_holds(
    ad: &ClassAd,
    candidate: &ClassAd,
    policy: &EvalPolicy,
    conv: &MatchConventions,
) -> bool {
    let Some(attr) = conv.constraint_attr_of(ad) else {
        return conv.missing_constraint_matches;
    };
    let mut ev = Evaluator::pair(ad, candidate, policy);
    ev.eval_attr(Side::Left, attr).as_bool() == Some(true)
}

/// `ad`'s rank of `candidate`. "Non-integer values are treated as zero":
/// any non-numeric rank (including `undefined`, `error`, and a missing
/// attribute) maps to `0.0`. Booleans count as 0/1 for consistency with
/// arithmetic promotion.
pub fn rank_of(
    ad: &ClassAd,
    candidate: &ClassAd,
    policy: &EvalPolicy,
    conv: &MatchConventions,
) -> f64 {
    let mut ev = Evaluator::pair(ad, candidate, policy);
    let v = ev.eval_attr(Side::Left, &conv.rank_attr);
    rank_value(&v)
}

/// Map an evaluated rank to its numeric goodness.
pub fn rank_value(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Real(r) if r.is_finite() => *r,
        Value::Bool(b) => *b as i64 as f64,
        _ => 0.0,
    }
}

/// Evaluate both constraints and both ranks for a pair of ads.
pub fn evaluate_match(
    left: &ClassAd,
    right: &ClassAd,
    policy: &EvalPolicy,
    conv: &MatchConventions,
) -> MatchResult {
    MatchResult {
        left_constraint: constraint_holds(left, right, policy, conv),
        right_constraint: constraint_holds(right, left, policy, conv),
        left_rank: rank_of(left, right, policy, conv),
        right_rank: rank_of(right, left, policy, conv),
    }
}

/// Do two ads match symmetrically (both constraints true)?
pub fn symmetric_match(
    left: &ClassAd,
    right: &ClassAd,
    policy: &EvalPolicy,
    conv: &MatchConventions,
) -> bool {
    constraint_holds(left, right, policy, conv) && constraint_holds(right, left, policy, conv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{FIGURE1_MACHINE, FIGURE2_JOB};
    use crate::parser::parse_classad;

    fn conv() -> MatchConventions {
        MatchConventions::default()
    }

    fn pol() -> EvalPolicy {
        EvalPolicy::default()
    }

    #[test]
    fn figure_ads_match_symmetrically() {
        let machine = parse_classad(FIGURE1_MACHINE).unwrap();
        let job = parse_classad(FIGURE2_JOB).unwrap();
        let r = evaluate_match(&job, &machine, &pol(), &conv());
        assert!(r.matched(), "{r:?}");
        assert!(r.left_constraint);
        assert!(r.right_constraint);
        assert!(
            (r.left_rank - 23.893).abs() < 1e-9,
            "job rank of machine: {}",
            r.left_rank
        );
        assert_eq!(r.right_rank, 10.0, "machine rank of research-group job");
    }

    #[test]
    fn wrong_arch_fails_job_constraint() {
        let mut machine = parse_classad(FIGURE1_MACHINE).unwrap();
        machine.set_str("Arch", "SPARC");
        let job = parse_classad(FIGURE2_JOB).unwrap();
        assert!(!constraint_holds(&job, &machine, &pol(), &conv()));
        assert!(!symmetric_match(&job, &machine, &pol(), &conv()));
        // The machine still accepts the job; failure is one-sided.
        assert!(constraint_holds(&machine, &job, &pol(), &conv()));
    }

    #[test]
    fn insufficient_memory_fails() {
        let machine = parse_classad(FIGURE1_MACHINE).unwrap();
        let mut job = parse_classad(FIGURE2_JOB).unwrap();
        job.set_int("Memory", 128); // machine only has 64
        assert!(!symmetric_match(&job, &machine, &pol(), &conv()));
    }

    #[test]
    fn undefined_constraint_fails_match() {
        // Paper: "the match fails if the Constraint evaluates to undefined".
        let a = parse_classad("[Constraint = other.NoSuchAttr > 10]").unwrap();
        let b = parse_classad("[Constraint = true]").unwrap();
        assert!(!constraint_holds(&a, &b, &pol(), &conv()));
        assert!(constraint_holds(&b, &a, &pol(), &conv()));
        assert!(!symmetric_match(&a, &b, &pol(), &conv()));
    }

    #[test]
    fn missing_constraint_policy() {
        let bare = parse_classad("[x = 1]").unwrap();
        let other = parse_classad("[Constraint = true]").unwrap();
        assert!(symmetric_match(&bare, &other, &pol(), &conv()));
        let strict = MatchConventions {
            missing_constraint_matches: false,
            ..conv()
        };
        assert!(!symmetric_match(&bare, &other, &pol(), &strict));
    }

    #[test]
    fn requirements_alias_accepted() {
        let a = parse_classad("[Requirements = other.Memory >= 32]").unwrap();
        let big = parse_classad("[Constraint = true; Memory = 64]").unwrap();
        let small = parse_classad("[Constraint = true; Memory = 16]").unwrap();
        assert!(symmetric_match(&a, &big, &pol(), &conv()));
        assert!(!symmetric_match(&a, &small, &pol(), &conv()));
    }

    #[test]
    fn constraint_attr_priority_order() {
        // When both spellings are present, `Constraint` (listed first) wins.
        let a = parse_classad("[Constraint = false; Requirements = true]").unwrap();
        let b = parse_classad("[Constraint = true]").unwrap();
        assert!(!symmetric_match(&a, &b, &pol(), &conv()));
    }

    #[test]
    fn rank_non_numeric_is_zero() {
        let cases = [
            ("[Rank = \"fast\"]", 0.0),
            ("[Rank = undefined]", 0.0),
            ("[Rank = 1/0]", 0.0),
            ("[x = 1]", 0.0),
            ("[Rank = true]", 1.0),
            ("[Rank = 7]", 7.0),
            ("[Rank = 2.5]", 2.5),
            ("[Rank = 1.0/0.0]", 0.0),
        ];
        let target = parse_classad("[]").unwrap();
        for (src, want) in cases {
            let ad = parse_classad(src).unwrap();
            assert_eq!(rank_of(&ad, &target, &pol(), &conv()), want, "{src}");
        }
    }

    #[test]
    fn rank_sees_other_ad() {
        let ad = parse_classad("[Rank = other.Mips]").unwrap();
        let fast = parse_classad("[Mips = 104]").unwrap();
        let slow = parse_classad("[Mips = 10]").unwrap();
        assert!(rank_of(&ad, &fast, &pol(), &conv()) > rank_of(&ad, &slow, &pol(), &conv()));
    }

    #[test]
    fn match_result_requires_both() {
        let a = parse_classad("[Constraint = true]").unwrap();
        let b = parse_classad("[Constraint = false]").unwrap();
        let r = evaluate_match(&a, &b, &pol(), &conv());
        assert!(r.left_constraint);
        assert!(!r.right_constraint);
        assert!(!r.matched());
    }
}
