//! Property-based tests for the ClassAd language: round-trips, algebraic
//! laws of the three-valued logic, and evaluator robustness on arbitrary
//! expressions.

use classad::ast::{AttrName, BinOp, Expr, UnOp};
use classad::eval::{EvalPolicy, Evaluator, Side};
use classad::json::{from_json, to_json};
use classad::value::Value;
use classad::{parse_classad, parse_expr, ClassAd};
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

fn arb_attr_name() -> impl Strategy<Value = String> {
    // Avoid the reserved words (true/false/undefined/error/is/isnt) and the
    // scope pseudo-attrs by always appending a digit suffix.
    proptest::string::string_regex("[A-Za-z_][A-Za-z0-9_]{0,6}[0-9]").unwrap()
}

fn arb_string_lit() -> impl Strategy<Value = String> {
    // Printable-ish strings including escapes and non-ASCII.
    proptest::collection::vec(
        prop_oneof![
            proptest::char::range('a', 'z'),
            proptest::char::range('A', 'Z'),
            proptest::char::range('0', '9'),
            Just(' '),
            Just('"'),
            Just('\\'),
            Just('\n'),
            Just('\t'),
            Just('é'),
            Just('∀'),
        ],
        0..12,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

fn arb_leaf() -> impl Strategy<Value = Expr> {
    prop_oneof![
        any::<i64>().prop_map(Expr::int),
        // Finite reals only: NaN breaks structural comparison of ASTs.
        any::<f64>()
            .prop_filter("finite", |r| r.is_finite())
            .prop_map(Expr::real),
        arb_string_lit().prop_map(|s| Expr::str(&s)),
        any::<bool>().prop_map(Expr::bool),
        Just(Expr::Lit(classad::Literal::Undefined)),
        Just(Expr::Lit(classad::Literal::Error)),
        arb_attr_name().prop_map(|n| Expr::attr(&n)),
        arb_attr_name().prop_map(|n| Expr::self_(&n)),
        arb_attr_name().prop_map(|n| Expr::other(&n)),
    ]
}

fn arb_binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Mod),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Is),
        Just(BinOp::Isnt),
        Just(BinOp::And),
        Just(BinOp::Or),
        Just(BinOp::BitAnd),
        Just(BinOp::BitOr),
        Just(BinOp::BitXor),
        Just(BinOp::Shl),
        Just(BinOp::Shr),
        Just(BinOp::Ushr),
    ]
}

fn arb_unop() -> impl Strategy<Value = UnOp> {
    prop_oneof![
        Just(UnOp::Neg),
        Just(UnOp::Pos),
        Just(UnOp::Not),
        Just(UnOp::BitNot)
    ]
}

/// Build a unary expression the way the parser does: negation of a numeric
/// literal folds into the literal, so generated ASTs stay in the parser's
/// canonical form (required for round-trip comparison).
fn mk_unary(op: UnOp, e: Expr) -> Expr {
    if op == UnOp::Neg {
        if let Expr::Lit(classad::Literal::Int(i)) = &e {
            if let Some(n) = i.checked_neg() {
                return Expr::int(n);
            }
        }
        if let Expr::Lit(classad::Literal::Real(r)) = &e {
            return Expr::real(-r);
        }
    }
    Expr::Unary(op, Box::new(e))
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    arb_leaf().prop_recursive(4, 48, 4, |inner| {
        prop_oneof![
            (arb_binop(), inner.clone(), inner.clone()).prop_map(|(op, l, r)| Expr::bin(op, l, r)),
            (arb_unop(), inner.clone()).prop_map(|(op, e)| mk_unary(op, e)),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| Expr::Cond(
                Box::new(c),
                Box::new(t),
                Box::new(e)
            )),
            (
                arb_attr_name(),
                proptest::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(n, args)| Expr::Call(AttrName::new(&n), args)),
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Expr::List),
            proptest::collection::vec((arb_attr_name(), inner.clone()), 0..3).prop_map(|fields| {
                // Duplicate names collapse during parsing (an ad is a
                // map); keep only the first occurrence of each name so
                // the generated AST is parser-canonical.
                let mut seen = std::collections::HashSet::new();
                Expr::Record(
                    fields
                        .into_iter()
                        .filter(|(n, _)| seen.insert(n.to_ascii_lowercase()))
                        .map(|(n, e)| (AttrName::new(&n), e))
                        .collect(),
                )
            }),
            (inner.clone(), arb_attr_name())
                .prop_map(|(b, n)| Expr::Select(Box::new(b), AttrName::new(&n))),
            (inner.clone(), inner).prop_map(|(b, i)| Expr::Index(Box::new(b), Box::new(i))),
        ]
    })
}

fn arb_classad() -> impl Strategy<Value = ClassAd> {
    proptest::collection::vec((arb_attr_name(), arb_expr()), 0..8).prop_map(|fields| {
        let mut ad = ClassAd::new();
        for (n, e) in fields {
            ad.set(n.as_str(), e);
        }
        ad
    })
}

fn arb_bool3() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Bool(true)),
        Just(Value::Bool(false)),
        Just(Value::Undefined),
        Just(Value::Error),
    ]
}

// ---------------------------------------------------------------------------
// Round-trip properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn expr_pretty_print_roundtrips(e in arb_expr()) {
        let printed = e.to_string();
        let back = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("`{printed}` failed to reparse: {err}"));
        prop_assert_eq!(&e, &back, "print/parse changed AST; printed `{}`", printed);
    }

    #[test]
    fn classad_pretty_print_roundtrips(ad in arb_classad()) {
        let printed = ad.to_string();
        let back = parse_classad(&printed)
            .unwrap_or_else(|err| panic!("`{printed}` failed to reparse: {err}"));
        prop_assert_eq!(&ad, &back);
        let pretty = ad.pretty();
        let back = parse_classad(&pretty).unwrap();
        prop_assert_eq!(&ad, &back);
    }

    #[test]
    fn classad_json_roundtrips(ad in arb_classad()) {
        let js = to_json(&ad);
        let back = from_json(&js)
            .unwrap_or_else(|err| panic!("json `{js}` failed to reparse: {err}"));
        prop_assert_eq!(&ad, &back, "json was `{}`", js);
    }

    // -----------------------------------------------------------------------
    // Evaluation laws
    // -----------------------------------------------------------------------

    #[test]
    fn evaluation_never_panics(ad in arb_classad(), e in arb_expr()) {
        let policy = EvalPolicy::default();
        let _ = ad.eval_expr(&e, &policy);
    }

    #[test]
    fn evaluation_is_deterministic(ad in arb_classad(), e in arb_expr()) {
        let policy = EvalPolicy::default();
        let a = ad.eval_expr(&e, &policy);
        let b = ad.eval_expr(&e, &policy);
        prop_assert!(a.same_as(&b), "{a:?} vs {b:?}");
    }

    #[test]
    fn flatten_preserves_pair_evaluation(a in arb_classad(), b in arb_classad(), e in arb_expr()) {
        // Partial evaluation against the left ad must not change what any
        // pair evaluation computes. (Generated function names always end
        // in a digit, so the impure `random`/`time` builtins cannot occur
        // and full determinism holds.)
        let policy = EvalPolicy::default();
        let flat = classad::flatten::flatten(&e, &a, &policy);
        let v1 = Evaluator::pair(&a, &b, &policy).eval(&e, Side::Left);
        let v2 = Evaluator::pair(&a, &b, &policy).eval(&flat, Side::Left);
        // NaN results compare unequal to themselves; fall back to the
        // printed form for that case.
        prop_assert!(
            v1.same_as(&v2) || v1.to_string() == v2.to_string(),
            "{v1:?} vs {v2:?}; expr `{e}` flattened to `{flat}`"
        );
    }

    #[test]
    fn flatten_is_idempotent(a in arb_classad(), e in arb_expr()) {
        let policy = EvalPolicy::default();
        let once = classad::flatten::flatten(&e, &a, &policy);
        let twice = classad::flatten::flatten(&once, &a, &policy);
        prop_assert_eq!(&once, &twice, "flatten(flatten(e)) != flatten(e) for `{}`", e);
    }

    #[test]
    fn and_or_are_commutative(a in arb_bool3(), b in arb_bool3()) {
        use classad::value::{combine_and, combine_or};
        prop_assert!(combine_and(&a, &b).same_as(&combine_and(&b, &a)));
        prop_assert!(combine_or(&a, &b).same_as(&combine_or(&b, &a)));
    }

    #[test]
    fn de_morgan_holds_in_three_valued_logic(a in arb_bool3(), b in arb_bool3()) {
        use classad::value::{combine_and, combine_or, logical_not};
        // !(a && b) == !a || !b, and dually.
        let lhs = logical_not(&combine_and(&a, &b));
        let rhs = combine_or(&logical_not(&a), &logical_not(&b));
        prop_assert!(lhs.same_as(&rhs), "{lhs:?} vs {rhs:?}");
        let lhs = logical_not(&combine_or(&a, &b));
        let rhs = combine_and(&logical_not(&a), &logical_not(&b));
        prop_assert!(lhs.same_as(&rhs));
    }

    #[test]
    fn is_always_definite(ad in arb_classad(), l in arb_expr(), r in arb_expr()) {
        // `is`/`isnt` never yield undefined or error, whatever the operands.
        let policy = EvalPolicy::default();
        let is_e = Expr::bin(BinOp::Is, l.clone(), r.clone());
        let isnt_e = Expr::bin(BinOp::Isnt, l, r);
        let a = ad.eval_expr(&is_e, &policy);
        let b = ad.eval_expr(&isnt_e, &policy);
        prop_assert!(matches!(a, Value::Bool(_)), "{a:?}");
        prop_assert!(matches!(b, Value::Bool(_)), "{b:?}");
        // And they are complementary.
        prop_assert_eq!(a.as_bool().unwrap(), !b.as_bool().unwrap());
    }

    #[test]
    fn strict_comparison_on_missing_is_undefined(name in arb_attr_name(), v in any::<i64>()) {
        // For any attribute name not present in the empty ad, the paper's
        // strictness rules make every comparison undefined.
        let ad = ClassAd::new();
        let policy = EvalPolicy::default();
        for op in [BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge, BinOp::Eq, BinOp::Ne] {
            let e = Expr::bin(op, Expr::attr(&name), Expr::int(v));
            prop_assert!(ad.eval_expr(&e, &policy).is_undefined());
        }
    }

    #[test]
    fn symmetric_match_is_symmetric(a in arb_classad(), b in arb_classad()) {
        use classad::{symmetric_match, MatchConventions};
        let policy = EvalPolicy::default();
        let conv = MatchConventions::default();
        prop_assert_eq!(
            symmetric_match(&a, &b, &policy, &conv),
            symmetric_match(&b, &a, &policy, &conv)
        );
    }

    #[test]
    fn traced_match_agrees_with_plain_predicates(a in arb_classad(), b in arb_classad()) {
        // The tracing evaluator is advertised as a pure explanation layer:
        // for ANY pair of ads its verdict must equal the plain predicate's,
        // and a reason must be present exactly when the verdict is "no".
        use classad::{
            constraint_holds, symmetric_match, traced_constraint_holds,
            traced_symmetric_match, MatchConventions, RejectSide,
        };
        let policy = EvalPolicy::default();
        let conv = MatchConventions::default();
        let t = traced_symmetric_match(&a, &b, &policy, &conv);
        prop_assert_eq!(t.verdict, symmetric_match(&a, &b, &policy, &conv));
        prop_assert_eq!(t.reason.is_none(), t.verdict);
        let c = traced_constraint_holds(&a, &b, &policy, &conv, RejectSide::Request);
        prop_assert_eq!(c.verdict, constraint_holds(&a, &b, &policy, &conv));
        prop_assert_eq!(c.reason.is_none(), c.verdict);
    }

    #[test]
    fn rank_is_always_finite(a in arb_classad(), b in arb_classad()) {
        use classad::{rank_of, MatchConventions};
        let policy = EvalPolicy::default();
        let conv = MatchConventions::default();
        let r = rank_of(&a, &b, &policy, &conv);
        prop_assert!(r.is_finite());
    }

    #[test]
    fn case_insensitive_lookup(name in arb_attr_name(), v in any::<i64>()) {
        let mut ad = ClassAd::new();
        ad.set(name.as_str(), Expr::int(v));
        let upper = name.to_ascii_uppercase();
        let lower = name.to_ascii_lowercase();
        prop_assert_eq!(ad.get_int(&upper), Some(v));
        prop_assert_eq!(ad.get_int(&lower), Some(v));
        prop_assert_eq!(ad.len(), 1);
    }

    #[test]
    fn insert_then_remove_restores(mut ad in arb_classad(), name in arb_attr_name()) {
        let had = ad.contains(&name);
        prop_assume!(!had);
        let before = ad.clone();
        ad.set(name.as_str(), Expr::int(1));
        prop_assert!(ad.contains(&name));
        ad.remove(&name);
        prop_assert_eq!(ad, before);
    }
}

// ---------------------------------------------------------------------------
// Front-end robustness: arbitrary input must never panic
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn lexer_never_panics(src in "\\PC{0,200}") {
        let _ = classad::lexer::tokenize(&src);
    }

    #[test]
    fn parser_never_panics(src in "\\PC{0,200}") {
        let _ = parse_expr(&src);
        let _ = parse_classad(&src);
        let _ = classad::parse_classads(&src);
    }

    #[test]
    fn parser_never_panics_on_dense_punctuation(
        src in proptest::collection::vec(
            prop_oneof![
                Just("["), Just("]"), Just("{"), Just("}"), Just("("), Just(")"),
                Just(";"), Just(","), Just("="), Just("=="), Just("?"), Just(":"),
                Just("&&"), Just("||"), Just("."), Just("x"), Just("1"), Just("\""),
                Just("\\"), Just("self"), Just("other"), Just("undefined"),
            ],
            0..60,
        )
    ) {
        let joined = src.concat();
        let _ = parse_expr(&joined);
        let _ = parse_classad(&joined);
    }

    #[test]
    fn json_importer_never_panics(src in "\\PC{0,200}") {
        let _ = classad::json::from_json(&src);
    }

    #[test]
    fn regex_engine_never_panics(pat in "\\PC{0,40}", text in "\\PC{0,60}") {
        if let Ok(re) = classad::regex::Regex::new(&pat, classad::regex::RegexOptions::default()) {
            let _ = re.is_match(&text);
        }
    }

    #[test]
    fn whatever_parses_reprints_and_reparses(src in "\\PC{0,120}") {
        // Anything the parser accepts must round-trip through the printer.
        if let Ok(e) = parse_expr(&src) {
            let printed = e.to_string();
            let back = parse_expr(&printed)
                .unwrap_or_else(|err| panic!("accepted `{src}`, printed `{printed}`, reparse failed: {err}"));
            prop_assert_eq!(e, back);
        }
    }
}

// ---------------------------------------------------------------------------
// Evaluator scope/environment properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pair_evaluation_never_panics(a in arb_classad(), b in arb_classad(), e in arb_expr()) {
        let policy = EvalPolicy::default();
        let mut ev = Evaluator::pair(&a, &b, &policy);
        let _ = ev.eval(&e, Side::Left);
        let mut ev = Evaluator::pair(&a, &b, &policy);
        let _ = ev.eval(&e, Side::Right);
    }

    #[test]
    fn self_lookup_beats_other(name in arb_attr_name(), x in any::<i64>(), y in any::<i64>()) {
        prop_assume!(x != y);
        let mut a = ClassAd::new();
        a.set(name.as_str(), Expr::int(x));
        let mut b = ClassAd::new();
        b.set(name.as_str(), Expr::int(y));
        let policy = EvalPolicy::default();
        let mut ev = Evaluator::pair(&a, &b, &policy);
        let got = ev.eval(&Expr::attr(&name), Side::Left);
        prop_assert_eq!(got, Value::Int(x), "bare name must resolve in self first");
        let mut ev = Evaluator::pair(&a, &b, &policy);
        let got = ev.eval(&Expr::other(&name), Side::Left);
        prop_assert_eq!(got, Value::Int(y));
    }
}

// ---------------------------------------------------------------------------
// JSON decode paths: borrowed strings and compact `$expr` markers read in one
// pass must agree with the escaped and spaced forms that take the
// char-by-char path, and interned names must keep their spelling
// ---------------------------------------------------------------------------

/// Names drawn from a small pool so they repeat across ads and cases, in
/// several spellings of one canonical name, plus keys that need escaping.
fn arb_wire_name() -> impl Strategy<Value = String> {
    prop_oneof![
        3 => prop_oneof![
            Just("Memory"), Just("MEMORY"), Just("memory"), Just("MeMoRy"),
            Just("Arch"), Just("ARCH"), Just("Rank"), Just("rank"),
            Just("Requirements"), Just("Name"), Just("name"),
        ]
        .prop_map(str::to_owned),
        1 => prop_oneof![Just("Na\"me"), Just("back\\slash"), Just("tab\tkey"), Just("Ünï_Ω"), Just("ünï_Ω")]
            .prop_map(str::to_owned),
        2 => arb_attr_name(),
    ]
}

fn arb_wire_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            proptest::char::range('a', 'z'),
            proptest::char::range('A', 'Z'),
            Just('"'),
            Just('\\'),
            Just('/'),
            Just('\n'),
            Just('\r'),
            Just('\t'),
            Just('\u{1}'),
            Just('\u{1f}'),
            Just('\u{7f}'),
            Just('é'),
            Just('∀'),
            Just('😀'),
        ],
        0..10,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

fn arb_wire_ad() -> impl Strategy<Value = ClassAd> {
    let value = prop_oneof![
        arb_wire_string().prop_map(|s| Expr::str(&s)),
        proptest::collection::vec(arb_wire_string().prop_map(|s| Expr::str(&s)), 0..3)
            .prop_map(Expr::List),
        arb_expr(),
    ];
    proptest::collection::vec((arb_wire_name(), value), 0..8).prop_map(|fields| {
        let mut ad = ClassAd::new();
        for (n, e) in fields {
            ad.set(n.as_str(), e);
        }
        ad
    })
}

/// Where the JSON string body starting at `from` closes.
fn string_body_end(js: &str, from: usize) -> usize {
    let b = js.as_bytes();
    let mut i = from;
    while b[i] != b'"' {
        i += if b[i] == b'\\' { 2 } else { 1 };
    }
    i
}

/// `js` with the first character of every string, keys and `$expr`
/// sources included, written as a `\uXXXX` escape.
fn escape_first_chars(js: &str) -> String {
    let mut out = String::with_capacity(js.len() * 2);
    let mut i = 0;
    while let Some(open) = js[i..].find('"').map(|o| i + o) {
        out.push_str(&js[i..=open]);
        let end = string_body_end(js, open + 1);
        let body = &js[open + 1..end];
        let (first, rest) = match body.strip_prefix('\\') {
            None => match body.chars().next() {
                Some(c) => (Some(c), &body[c.len_utf8()..]),
                None => (None, body),
            },
            Some(esc) if esc.starts_with('u') => {
                let code = u32::from_str_radix(&esc[1..5], 16).unwrap();
                (char::from_u32(code), &esc[5..])
            }
            Some(esc) => {
                let c = match esc.as_bytes()[0] {
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    other => other as char,
                };
                (Some(c), &esc[1..])
            }
        };
        if let Some(c) = first {
            for unit in c.encode_utf16(&mut [0; 2]) {
                out.push_str(&format!("\\u{unit:04X}"));
            }
        }
        out.push_str(rest);
        out.push('"');
        i = end + 1;
    }
    out.push_str(&js[i..]);
    out
}

/// `js` with whitespace inside every `$expr` marker.
fn space_markers(js: &str) -> String {
    // Only a marker can hold `{"$expr":` outside a string, and no string
    // can hold it: its quotes would be escaped.
    const OPEN: &str = "{\"$expr\":\"";
    let mut out = String::new();
    let mut i = 0;
    while let Some(at) = js[i..].find(OPEN).map(|o| i + o) {
        let end = string_body_end(js, at + OPEN.len());
        assert_eq!(&js[end..end + 2], "\"}");
        out.push_str(&js[i..at]);
        out.push_str("{ \"$expr\" : \"");
        out.push_str(&js[at + OPEN.len()..=end]);
        out.push_str(" }");
        i = end + 2;
    }
    out.push_str(&js[i..]);
    out
}

fn spellings(ad: &ClassAd) -> Vec<String> {
    ad.names().map(|n| n.as_str().to_owned()).collect()
}

#[test]
fn json_rewriters_reach_the_slow_paths() {
    let js = r#"{"Ab":"\\x","R":{"$expr":"a + b"},"E":"","L":["😀"]}"#;
    assert_eq!(
        escape_first_chars(js),
        r#"{"\u0041b":"\u005Cx","\u0052":{"\u0024expr":"\u0061 + b"},"\u0045":"","\u004C":["\uD83D\uDE00"]}"#
    );
    assert_eq!(
        space_markers(js),
        r#"{"Ab":"\\x","R":{ "$expr" : "a + b" },"E":"","L":["😀"]}"#
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn json_decode_paths_agree(ads in proptest::collection::vec(arb_wire_ad(), 1..4)) {
        for ad in &ads {
            let js = to_json(ad);
            for form in [js.clone(), escape_first_chars(&js), space_markers(&js)] {
                let back = from_json(&form)
                    .unwrap_or_else(|err| panic!("json `{form}` failed to decode: {err}"));
                prop_assert_eq!(&back, ad, "json was `{}`", form);
                prop_assert_eq!(spellings(&back), spellings(ad), "json was `{}`", form);
                prop_assert_eq!(to_json(&back), js.clone(), "json was `{}`", form);
            }
        }
    }

    #[test]
    fn json_decoder_never_panics_on_damaged_ads(
        ad in arb_wire_ad(),
        at in any::<usize>(),
        splice in prop_oneof![Just("\\"), Just("\\ud800"), Just("\\udfff"), Just("\\ud83d\\u0041")],
    ) {
        let js = to_json(&ad);
        for (i, _) in js.char_indices() {
            let _ = from_json(&js[..i]);
        }
        // Char boundaries inside string bodies, where the fast path reads.
        let mut inside = Vec::new();
        let mut in_string = false;
        let mut escaped = false;
        for (i, c) in js.char_indices() {
            if in_string && !escaped {
                inside.push(i);
            }
            match c {
                '\\' if in_string => escaped = !escaped,
                '"' if !escaped => in_string = !in_string,
                _ => escaped = false,
            }
        }
        if !inside.is_empty() {
            let p = inside[at % inside.len()];
            let damaged = format!("{}{splice}{}", &js[..p], &js[p..]);
            let _ = from_json(&damaged);
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic regression corpus (found by earlier proptest runs or
// interesting by construction)
// ---------------------------------------------------------------------------

#[test]
fn regression_corpus_roundtrips() {
    let cases = [
        "-9223372036854775808",
        "0.0",
        "-0.0",
        "{ {}, { {} } }",
        "[ a1 = [ b1 = { undefined, error } ] ]",
        "x1 is undefined isnt error",
        "a1[b1[c1[0]]]",
        "(a1 ? b1 : c1) ? d1 : e1",
        "1 - -1",
        "- -1",
        "!-~+x1",
    ];
    for src in cases {
        let e = parse_expr(src).unwrap_or_else(|err| panic!("{src}: {err}"));
        let printed = e.to_string();
        let back = parse_expr(&printed).unwrap_or_else(|err| panic!("{printed}: {err}"));
        assert_eq!(e, back, "{src} -> {printed}");
    }
}

#[test]
fn shared_subexpressions_evaluate_consistently() {
    // Arc-shared expressions must be safe to evaluate from multiple ads.
    let shared: Arc<Expr> = Arc::new(parse_expr("Base * 2").unwrap());
    let mut a = ClassAd::new();
    a.insert(AttrName::new("Score"), shared.clone());
    a.set("Base", Expr::int(3));
    let mut b = ClassAd::new();
    b.insert(AttrName::new("Score"), shared);
    b.set("Base", Expr::int(5));
    let policy = EvalPolicy::default();
    assert_eq!(a.eval_attr("Score", &policy), Value::Int(6));
    assert_eq!(b.eval_attr("Score", &policy), Value::Int(10));
}
