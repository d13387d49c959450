//! The interner behind `from_json`: identical policy text decodes to one
//! shared tree and identical spellings to one shared name, errors are never
//! cached, and hostile input cannot grow either table past its cap.
//!
//! The interner is process-wide and the bound tests empty it, so every
//! test here holds `SERIAL`.

use classad::json::{
    from_json, interned_bytes, interned_name_bytes, to_json, INTERN_CAP_BYTES, NAME_CAP_BYTES,
};
use classad::{parse_expr, ClassAd, Expr};
use std::sync::{Arc, Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn constraint_of(json: &str) -> Arc<Expr> {
    let ad = from_json(json).unwrap_or_else(|e| panic!("{json}: {e}"));
    Arc::clone(ad.get("Constraint").expect("ad has a Constraint"))
}

/// An ad whose `Constraint` is `src` (`src` must need no JSON escaping).
fn ad_json(name: &str, src: &str) -> String {
    format!(r#"{{"Name":"{name}","Constraint":{{"$expr":"{src}"}}}}"#)
}

/// A distinct, quote-free expression of exactly `len` bytes.
fn source(i: usize, len: usize) -> String {
    let head = format!("other.A{i}_");
    let tail = " == 1";
    format!("{head}{}{tail}", "x".repeat(len - head.len() - tail.len()))
}

#[test]
fn identical_sources_share_one_tree() {
    let _g = serial();
    let a = constraint_of(&ad_json("m1", "other.Memory >= 32 && other.Arch == 1"));
    let b = constraint_of(&ad_json("m2", "other.Memory >= 32 && other.Arch == 1"));
    assert!(Arc::ptr_eq(&a, &b), "same text must decode to the same Arc");
    let c = constraint_of(&ad_json("m3", "other.Memory >= 64"));
    assert!(!Arc::ptr_eq(&a, &c));
    assert_eq!(*c, parse_expr("other.Memory >= 64").unwrap());
}

#[test]
fn malformed_source_fails_the_same_way_every_time() {
    let _g = serial();
    let src = "other.Memory >= && 1";
    let expected = parse_expr(src).unwrap_err();
    for _ in 0..2 {
        let err = from_json(&ad_json("m", src)).unwrap_err();
        assert_eq!(err, expected, "the error is the parser's, not a cached one");
    }
}

#[test]
fn interner_stays_under_its_cap_against_a_flood() {
    let _g = serial();
    // 10^4 distinct sources at the interning limit: ~40 MiB of text.
    for i in 0..10_000 {
        let src = source(i, 4096);
        from_json(&ad_json("m", &src)).unwrap();
        assert!(interned_bytes() <= INTERN_CAP_BYTES, "after source {i}");
    }
    let at_limit = source(10_000, 4096);
    let a = constraint_of(&ad_json("m", &at_limit));
    assert!(Arc::ptr_eq(&a, &constraint_of(&ad_json("m", &at_limit))));
    // 10 MiB of sources over the limit: parsed, never interned.
    let before = interned_bytes();
    for i in 0..(10 << 20) / 5120 {
        let src = source(i, 5120);
        let a = constraint_of(&ad_json("m", &src));
        assert!(!Arc::ptr_eq(&a, &constraint_of(&ad_json("m", &src))));
    }
    assert_eq!(interned_bytes(), before);
    assert!(interned_bytes() <= INTERN_CAP_BYTES);
}

#[test]
fn identical_spellings_share_one_name() {
    let _g = serial();
    let decode = |json: &str| from_json(json).unwrap_or_else(|e| panic!("{json}: {e}"));
    let a = decode(r#"{"Memory":64,"Arch":"INTEL"}"#);
    let b = decode(r#"{"Arch":"SPARC","Memory":128}"#);
    let ptr = |ad: &ClassAd, name: &str| {
        let n = ad.names().find(|n| n.as_str() == name).expect(name);
        n.as_str().as_ptr()
    };
    assert_eq!(ptr(&a, "Memory"), ptr(&b, "Memory"));
    assert_eq!(ptr(&a, "Arch"), ptr(&b, "Arch"));
    // Case folds for lookup, never for spelling.
    let upper = decode(r#"{"MEMORY":64}"#);
    let lower = decode(r#"{"memory":64}"#);
    let spelled = |ad: &ClassAd| ad.names().next().unwrap().as_str().to_owned();
    assert_eq!(spelled(&upper), "MEMORY");
    assert_eq!(spelled(&lower), "memory");
    assert_eq!(spelled(&decode(r#"{"Memory":64}"#)), "Memory");
    assert_eq!(upper.get_int("Memory"), Some(64));
    assert_eq!(to_json(&upper), r#"{"MEMORY":64}"#);
}

#[test]
fn name_table_stays_under_its_cap() {
    let _g = serial();
    for i in 0..100_000 {
        let json = format!(r#"{{"Attribute_{i:06}":{i}}}"#);
        let ad = from_json(&json).unwrap();
        assert_eq!(
            ad.names().next().unwrap().as_str(),
            format!("Attribute_{i:06}")
        );
        assert!(interned_name_bytes() <= NAME_CAP_BYTES, "after name {i}");
    }
    // A name over the length limit decodes but is never interned.
    let long = "L".repeat(4096);
    let before = interned_name_bytes();
    let ad = from_json(&format!(r#"{{"{long}":1}}"#)).unwrap();
    assert_eq!(ad.get_int(&long), Some(1));
    assert_eq!(interned_name_bytes(), before);
    // A name is charged for more than its spelling: the table's memory,
    // not just its text, stays under the cap.
    let short = "Fresh_name";
    from_json(&format!(r#"{{"{short}":1}}"#)).unwrap();
    let after = interned_name_bytes();
    assert!(after < before || after - before > 3 * short.len());
}
