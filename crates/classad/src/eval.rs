//! Expression evaluation: attribute resolution across two ads, three-valued
//! logic, cycle detection, and resource limits.
//!
//! Evaluation follows the paper (§3.2): the matchmaker "evaluates
//! expressions in an environment that allows each classad to access
//! attributes of the other". `self.X` refers to the ad containing the
//! reference, `other.X` to the candidate ad. An unqualified reference
//! resolves in the containing ad first; if the attribute is absent there it
//! falls back to the other ad (when one is present).
//!
//! The fallback deserves a note: the paper's prose says a bare name "assumes
//! the `self` prefix", but its own Figure 2 relies on `Arch == "INTEL"`
//! resolving against the *machine* ad (the job ad defines no `Arch`), as
//! Condor's implementation did. We therefore default to self-then-other
//! resolution; strict self-only resolution is available through
//! [`EvalPolicy::fallback_to_other`].
//!
//! A reference to an attribute that cannot be found anywhere evaluates to
//! `undefined`. Circular references and excessive recursion evaluate to
//! `error`. Evaluation never panics and never returns `Err` — failure is a
//! value.

use crate::ast::{AttrName, BinOp, Expr, Literal, Scope, UnOp};
use crate::builtins;
use crate::classad::ClassAd;
use crate::value::{
    apply_strict_binary, arith_neg, arith_pos, bit_not, combine_and, combine_or, logical_not, Value,
};
use std::sync::Arc;

/// Tunables for evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalPolicy {
    /// Resolve unqualified names in the other ad when the containing ad
    /// lacks them (required by the paper's Figure 2; default `true`).
    pub fallback_to_other: bool,
    /// Maximum recursion depth before evaluation yields `error`.
    pub max_depth: u32,
    /// The value returned by the `time()` builtin, when set (seconds).
    /// Simulations inject their virtual clock here; `None` makes `time()`
    /// evaluate to `error`, keeping evaluation deterministic by default.
    pub now: Option<i64>,
    /// Seed for the `random(n)` builtin's deterministic stream.
    pub random_seed: u64,
}

impl Default for EvalPolicy {
    fn default() -> Self {
        EvalPolicy {
            fallback_to_other: true,
            max_depth: 256,
            now: None,
            random_seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

/// Which of the two ads an expression is being evaluated on behalf of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The "left" ad (conventionally the one whose attribute we started in).
    Left,
    /// The "right" ad.
    Right,
}

impl Side {
    /// The opposite side.
    pub fn flip(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

/// The evaluation engine. Create one per evaluation (they are cheap); it
/// tracks in-progress attributes for cycle detection and a recursion-depth
/// budget.
pub struct Evaluator<'a> {
    left: &'a ClassAd,
    right: Option<&'a ClassAd>,
    policy: &'a EvalPolicy,
    in_progress: Vec<(usize, Arc<str>)>,
    depth: u32,
    rng_state: u64,
}

impl<'a> Evaluator<'a> {
    /// Evaluator over a single ad (no `other`).
    pub fn single(ad: &'a ClassAd, policy: &'a EvalPolicy) -> Self {
        Evaluator {
            left: ad,
            right: None,
            policy,
            in_progress: Vec::new(),
            depth: 0,
            rng_state: policy.random_seed,
        }
    }

    /// Evaluator over a pair of ads in a match context.
    pub fn pair(left: &'a ClassAd, right: &'a ClassAd, policy: &'a EvalPolicy) -> Self {
        Evaluator {
            left,
            right: Some(right),
            policy,
            in_progress: Vec::new(),
            depth: 0,
            rng_state: policy.random_seed,
        }
    }

    /// The policy in effect.
    pub fn policy(&self) -> &'a EvalPolicy {
        self.policy
    }

    fn ad_for(&self, side: Side) -> Option<&'a ClassAd> {
        match side {
            Side::Left => Some(self.left),
            Side::Right => self.right,
        }
    }

    /// Next value from the deterministic `random()` stream (splitmix64).
    pub(crate) fn next_random(&mut self) -> u64 {
        self.rng_state = self.rng_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Evaluate an attribute of the given side's root ad.
    pub fn eval_attr(&mut self, side: Side, name: &str) -> Value {
        let Some(ad) = self.ad_for(side) else {
            return Value::Undefined;
        };
        match ad.get_entry(name) {
            Some((attr, expr)) => {
                let expr = expr.clone();
                self.guarded_attr_eval(ad, attr, &expr, side)
            }
            None => Value::Undefined,
        }
    }

    fn guarded_attr_eval(
        &mut self,
        ad: &ClassAd,
        name: &AttrName,
        expr: &Expr,
        side: Side,
    ) -> Value {
        // `canonical_arc` shares the AttrName's cached fold — no allocation
        // per attribute evaluation on the match-scan hot path.
        let key = (ad as *const ClassAd as usize, name.canonical_arc());
        if self
            .in_progress
            .iter()
            .any(|(p, n)| *p == key.0 && **n == *key.1)
        {
            // Circular reference, e.g. `X = X + 1`.
            return Value::Error;
        }
        self.in_progress.push(key);
        let v = self.eval(expr, side);
        self.in_progress.pop();
        v
    }

    /// Evaluate an expression on behalf of `side`.
    pub fn eval(&mut self, expr: &Expr, side: Side) -> Value {
        if self.depth >= self.policy.max_depth {
            return Value::Error;
        }
        self.depth += 1;
        let v = self.eval_inner(expr, side);
        self.depth -= 1;
        v
    }

    fn eval_inner(&mut self, expr: &Expr, side: Side) -> Value {
        match expr {
            Expr::Lit(l) => literal_value(l),
            Expr::Attr(name) => self.resolve_bare(name, side),
            Expr::ScopedAttr(Scope::My, name) => self.resolve_scoped(side, name),
            Expr::ScopedAttr(Scope::Target, name) => self.resolve_scoped(side.flip(), name),
            Expr::Select(base, name) => {
                let b = self.eval(base, side);
                self.select(&b, name)
            }
            Expr::Index(base, idx) => {
                let b = self.eval(base, side);
                let i = self.eval(idx, side);
                self.index(&b, &i)
            }
            Expr::Unary(op, e) => {
                let v = self.eval(e, side);
                match op {
                    UnOp::Neg => arith_neg(&v),
                    UnOp::Pos => arith_pos(&v),
                    UnOp::Not => logical_not(&v),
                    UnOp::BitNot => bit_not(&v),
                }
            }
            Expr::Binary(BinOp::And, l, r) => {
                let lv = self.eval(l, side);
                // Short-circuit only on a definite false; `undefined && x`
                // must still inspect `x` (it may be false).
                if lv.as_bool() == Some(false) {
                    return Value::Bool(false);
                }
                let rv = self.eval(r, side);
                combine_and(&lv, &rv)
            }
            Expr::Binary(BinOp::Or, l, r) => {
                let lv = self.eval(l, side);
                if lv.as_bool() == Some(true) {
                    return Value::Bool(true);
                }
                let rv = self.eval(r, side);
                combine_or(&lv, &rv)
            }
            Expr::Binary(BinOp::Is, l, r) => {
                let lv = self.eval(l, side);
                let rv = self.eval(r, side);
                Value::Bool(lv.same_as(&rv))
            }
            Expr::Binary(BinOp::Isnt, l, r) => {
                let lv = self.eval(l, side);
                let rv = self.eval(r, side);
                Value::Bool(!lv.same_as(&rv))
            }
            Expr::Binary(op, l, r) => {
                let lv = self.eval(l, side);
                let rv = self.eval(r, side);
                apply_strict_binary(*op, &lv, &rv)
            }
            Expr::Cond(c, t, e) => {
                let cv = self.eval(c, side);
                match cv {
                    Value::Bool(true) => self.eval(t, side),
                    Value::Bool(false) => self.eval(e, side),
                    Value::Undefined => Value::Undefined,
                    _ => Value::Error,
                }
            }
            Expr::Call(name, args) => builtins::call(self, side, name.canonical(), args),
            Expr::List(items) => {
                let vs: Vec<Value> = items.iter().map(|e| self.eval(e, side)).collect();
                Value::list(vs)
            }
            Expr::Record(fields) => {
                // Record constructors evaluate eagerly in the enclosing
                // context; the resulting nested ad is fully constant. (A
                // deliberate simplification of lexical scoping — see
                // DESIGN.md. Gang matching pulls nested *expressions* from
                // the AST instead, so it is unaffected.)
                let mut ad = ClassAd::with_capacity(fields.len());
                for (n, fe) in fields {
                    let v = self.eval(fe, side);
                    ad.insert(n.clone(), Arc::new(value_to_expr(&v)));
                }
                Value::Ad(Arc::new(ad))
            }
        }
    }

    fn resolve_bare(&mut self, name: &AttrName, side: Side) -> Value {
        if let Some(ad) = self.ad_for(side) {
            if let Some((attr, expr)) = ad.get_entry(name.canonical()) {
                let expr = expr.clone();
                let attr = attr.clone();
                return self.guarded_attr_eval(ad, &attr, &expr, side);
            }
        }
        if self.policy.fallback_to_other {
            let other = side.flip();
            if let Some(ad) = self.ad_for(other) {
                if let Some((attr, expr)) = ad.get_entry(name.canonical()) {
                    let expr = expr.clone();
                    let attr = attr.clone();
                    // The other ad's expression evaluates in *its* context:
                    // its bare names see its own attributes first.
                    return self.guarded_attr_eval(ad, &attr, &expr, other);
                }
            }
        }
        Value::Undefined
    }

    fn resolve_scoped(&mut self, side: Side, name: &AttrName) -> Value {
        let Some(ad) = self.ad_for(side) else {
            return Value::Undefined;
        };
        match ad.get_entry(name.canonical()) {
            Some((attr, expr)) => {
                let expr = expr.clone();
                let attr = attr.clone();
                self.guarded_attr_eval(ad, &attr, &expr, side)
            }
            None => Value::Undefined,
        }
    }

    fn select(&mut self, base: &Value, name: &AttrName) -> Value {
        match base {
            Value::Ad(ad) => match ad.get(name.canonical()) {
                // Nested ad values are constant (see Record above), so a
                // plain single-ad evaluation suffices.
                Some(expr) => {
                    let expr = expr.clone();
                    let policy = self.policy;
                    let mut sub = Evaluator::single(ad, policy);
                    sub.eval(&expr, Side::Left)
                }
                None => Value::Undefined,
            },
            Value::Undefined => Value::Undefined,
            _ => Value::Error,
        }
    }

    fn index(&mut self, base: &Value, idx: &Value) -> Value {
        match (base, idx) {
            (Value::Error, _) | (_, Value::Error) => Value::Error,
            (Value::Undefined, _) | (_, Value::Undefined) => Value::Undefined,
            (Value::List(items), Value::Int(i)) => {
                if *i >= 0 && (*i as usize) < items.len() {
                    items[*i as usize].clone()
                } else {
                    Value::Error
                }
            }
            (Value::Ad(_), Value::Str(name)) => self.select(base, &AttrName::new(name)),
            _ => Value::Error,
        }
    }
}

/// The value a literal evaluates to — what the evaluator yields for
/// [`Expr::Lit`], for callers that read literal attributes without it.
pub fn literal_value(l: &Literal) -> Value {
    match l {
        Literal::Undefined => Value::Undefined,
        Literal::Error => Value::Error,
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Int(i) => Value::Int(*i),
        Literal::Real(r) => Value::Real(*r),
        Literal::Str(s) => Value::Str(s.clone()),
    }
}

/// Convert a runtime value back into a constant expression (used when
/// materializing record constructors).
pub fn value_to_expr(v: &Value) -> Expr {
    match v {
        Value::Undefined => Expr::Lit(Literal::Undefined),
        Value::Error => Expr::Lit(Literal::Error),
        Value::Bool(b) => Expr::bool(*b),
        Value::Int(i) => Expr::int(*i),
        Value::Real(r) => Expr::real(*r),
        Value::Str(s) => Expr::Lit(Literal::Str(s.clone())),
        Value::List(items) => Expr::List(items.iter().map(value_to_expr).collect()),
        Value::Ad(ad) => Expr::Record(
            ad.iter()
                .map(|(n, e)| (n.clone(), e.as_ref().clone()))
                .collect(),
        ),
    }
}

impl ClassAd {
    /// Evaluate one of this ad's attributes in a single-ad context.
    pub fn eval_attr(&self, name: &str, policy: &EvalPolicy) -> Value {
        Evaluator::single(self, policy).eval_attr(Side::Left, name)
    }

    /// Evaluate an arbitrary expression against this ad.
    pub fn eval_expr(&self, expr: &Expr, policy: &EvalPolicy) -> Value {
        Evaluator::single(self, policy).eval(expr, Side::Left)
    }

    /// Evaluate one of this ad's attributes with `other` as the candidate ad.
    pub fn eval_attr_against(&self, name: &str, other: &ClassAd, policy: &EvalPolicy) -> Value {
        Evaluator::pair(self, other, policy).eval_attr(Side::Left, name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_classad, parse_expr};

    fn pol() -> EvalPolicy {
        EvalPolicy::default()
    }

    fn eval1(ad_src: &str, expr: &str) -> Value {
        let ad = parse_classad(ad_src).unwrap();
        let e = parse_expr(expr).unwrap();
        ad.eval_expr(&e, &pol())
    }

    fn eval2(left: &str, right: &str, expr: &str) -> Value {
        let l = parse_classad(left).unwrap();
        let r = parse_classad(right).unwrap();
        let e = parse_expr(expr).unwrap();
        let p = pol();
        Evaluator::pair(&l, &r, &p).eval(&e, Side::Left)
    }

    #[test]
    fn literal_and_arithmetic() {
        assert_eq!(eval1("[]", "1 + 2 * 3"), Value::Int(7));
        assert_eq!(eval1("[]", "(1 + 2) * 3"), Value::Int(9));
        assert_eq!(eval1("[]", "10 / 4"), Value::Int(2));
        assert_eq!(eval1("[]", "10.0 / 4"), Value::Real(2.5));
    }

    #[test]
    fn attribute_reference() {
        assert_eq!(eval1("[Memory = 64]", "Memory * 2"), Value::Int(128));
        assert_eq!(eval1("[A = B + 1; B = 2]", "A"), Value::Int(3));
    }

    #[test]
    fn missing_attribute_is_undefined() {
        assert_eq!(eval1("[]", "Memory"), Value::Undefined);
        assert_eq!(eval1("[]", "Memory > 32"), Value::Undefined);
        assert_eq!(eval1("[]", "self.Memory"), Value::Undefined);
        assert_eq!(eval1("[]", "other.Memory"), Value::Undefined);
    }

    #[test]
    fn paper_strictness_examples() {
        // All four of the paper's examples are undefined when the target
        // has no Memory attribute.
        for e in [
            "other.Memory > 32",
            "other.Memory == 32",
            "other.Memory != 32",
            "!(other.Memory == 32)",
        ] {
            assert_eq!(eval2("[]", "[]", e), Value::Undefined, "{e}");
        }
    }

    #[test]
    fn paper_is_undefined_example() {
        // "other.Memory is undefined || other.Memory < 32"
        assert_eq!(
            eval2("[]", "[]", "other.Memory is undefined || other.Memory < 32"),
            Value::Bool(true)
        );
        assert_eq!(
            eval2(
                "[]",
                "[Memory = 64]",
                "other.Memory is undefined || other.Memory < 32"
            ),
            Value::Bool(false)
        );
    }

    #[test]
    fn self_and_other_resolution() {
        assert_eq!(
            eval2(
                "[Memory = 31]",
                "[Memory = 64]",
                "other.Memory >= self.Memory"
            ),
            Value::Bool(true)
        );
        assert_eq!(
            eval2("[Memory = 31]", "[Memory = 64]", "other.Memory >= Memory"),
            Value::Bool(true)
        );
        assert_eq!(
            eval2(
                "[Memory = 128]",
                "[Memory = 64]",
                "other.Memory >= self.Memory"
            ),
            Value::Bool(false)
        );
    }

    #[test]
    fn bare_name_falls_back_to_other() {
        // The job ad has no Arch; the reference must resolve in the machine
        // ad (paper Figure 2).
        assert_eq!(
            eval2("[]", r#"[Arch = "INTEL"]"#, r#"Arch == "INTEL""#),
            Value::Bool(true)
        );
    }

    #[test]
    fn fallback_can_be_disabled() {
        let l = parse_classad("[]").unwrap();
        let r = parse_classad(r#"[Arch = "INTEL"]"#).unwrap();
        let e = parse_expr(r#"Arch == "INTEL""#).unwrap();
        let p = EvalPolicy {
            fallback_to_other: false,
            ..pol()
        };
        assert_eq!(
            Evaluator::pair(&l, &r, &p).eval(&e, Side::Left),
            Value::Undefined
        );
    }

    #[test]
    fn other_attribute_evaluates_in_its_own_context() {
        // right.Score references right's own Base, not left's.
        assert_eq!(
            eval2(
                "[Base = 100]",
                "[Base = 1; Score = Base + 1]",
                "other.Score"
            ),
            Value::Int(2)
        );
    }

    #[test]
    fn other_attribute_can_reference_back() {
        // Machine's Rank references other.Owner — i.e. the *left* ad.
        assert_eq!(
            eval2(
                r#"[Owner = "raman"]"#,
                r#"[Rank = member(other.Owner, Trusted); Trusted = { "raman" }]"#,
                "other.Rank"
            ),
            Value::Bool(true)
        );
    }

    #[test]
    fn circular_reference_is_error() {
        assert_eq!(eval1("[X = X + 1]", "X"), Value::Error);
        assert_eq!(eval1("[A = B; B = A]", "A"), Value::Error);
    }

    #[test]
    fn mutual_recursion_across_ads_is_error() {
        assert_eq!(eval2("[A = other.B]", "[B = other.A]", "A"), Value::Error);
    }

    #[test]
    fn depth_limit_is_error() {
        // A chain a1000 -> a999 -> ... -> a0 exceeds the recursion budget
        // long before it exhausts the stack.
        let mut src = String::from("[ a0 = 1");
        for i in 1..=1000 {
            src.push_str(&format!("; a{i} = a{} + 1", i - 1));
        }
        src.push(']');
        let ad = parse_classad(&src).unwrap();
        assert_eq!(ad.eval_attr("a1000", &pol()), Value::Error);
        // A chain well inside the budget evaluates fine.
        assert_eq!(ad.eval_attr("a100", &pol()), Value::Int(101));
    }

    #[test]
    fn conditional_three_valued() {
        assert_eq!(eval1("[]", "true ? 1 : 2"), Value::Int(1));
        assert_eq!(eval1("[]", "false ? 1 : 2"), Value::Int(2));
        assert_eq!(eval1("[]", "Missing ? 1 : 2"), Value::Undefined);
        assert_eq!(eval1("[]", "3 ? 1 : 2"), Value::Error);
    }

    #[test]
    fn short_circuit_skips_error() {
        assert_eq!(eval1("[]", "false && (1/0 == 1)"), Value::Bool(false));
        assert_eq!(eval1("[]", "true || (1/0 == 1)"), Value::Bool(true));
        // But symmetric non-strictness still sees a right-side false.
        assert_eq!(eval1("[]", "Missing && false"), Value::Bool(false));
        assert_eq!(eval1("[]", "(1/0 == 1) && false"), Value::Bool(false));
    }

    #[test]
    fn list_and_index() {
        assert_eq!(eval1("[xs = {10, 20, 30}]", "xs[1]"), Value::Int(20));
        assert_eq!(eval1("[xs = {10}]", "xs[5]"), Value::Error);
        assert_eq!(eval1("[xs = {10}]", "xs[-1]"), Value::Error);
        assert_eq!(eval1("[]", "Missing[0]"), Value::Undefined);
        assert_eq!(eval1("[x = 1]", "x[0]"), Value::Error);
    }

    #[test]
    fn record_select() {
        assert_eq!(eval1("[r = [a = 1; b = a + 1]]", "r.a"), Value::Int(1));
        // Eager record evaluation: `a` inside the record resolves in the
        // enclosing context at construction time.
        assert_eq!(eval1("[a = 5; r = [x = a * 2]]", "r.x"), Value::Int(10));
        assert_eq!(eval1("[r = [a = 1]]", "r.missing"), Value::Undefined);
        assert_eq!(eval1("[r = [a = 1]]", "r[\"a\"]"), Value::Int(1));
        assert_eq!(eval1("[x = 3]", "x.a"), Value::Error);
    }

    #[test]
    fn eval_attr_convenience() {
        let ad = parse_classad("[Rank = 2 * 3]").unwrap();
        assert_eq!(ad.eval_attr("rank", &pol()), Value::Int(6));
        assert_eq!(ad.eval_attr("missing", &pol()), Value::Undefined);
    }

    #[test]
    fn figure1_figure2_constraints_hold() {
        let machine = parse_classad(crate::fixtures::FIGURE1_MACHINE).unwrap();
        let job = parse_classad(crate::fixtures::FIGURE2_JOB).unwrap();
        let p = pol();
        // Job's constraint against the machine.
        let v = job.eval_attr_against("Constraint", &machine, &p);
        assert_eq!(v, Value::Bool(true), "job constraint must accept machine");
        // Machine's constraint against the job: owner "raman" is in
        // ResearchGroup, so Rank = 10 and the constraint is true.
        let v = machine.eval_attr_against("Constraint", &job, &p);
        assert_eq!(v, Value::Bool(true), "machine constraint must accept job");
        // Machine's Rank for this job.
        let v = machine.eval_attr_against("Rank", &job, &p);
        assert_eq!(v, Value::Int(10));
        // Job's Rank for this machine: 21893/1e3 + 64/32 = 21.893 + 2.
        let v = job.eval_attr_against("Rank", &machine, &p);
        match v {
            Value::Real(r) => assert!((r - 23.893).abs() < 1e-9, "rank was {r}"),
            other => panic!("expected real rank, got {other:?}"),
        }
    }

    #[test]
    fn figure1_rejects_untrusted() {
        let machine = parse_classad(crate::fixtures::FIGURE1_MACHINE).unwrap();
        let mut job = parse_classad(crate::fixtures::FIGURE2_JOB).unwrap();
        job.set_str("Owner", "rival");
        let v = machine.eval_attr_against("Constraint", &job, &pol());
        assert_ne!(v, Value::Bool(true), "untrusted user must not match");
    }
}
