//! The classad object: an insertion-ordered, case-insensitive mapping from
//! attribute names to expressions.
//!
//! "A classad is a mapping from attribute names to expressions" (paper
//! §3.1). Attribute names are case-insensitive; insertion order is preserved
//! so ads round-trip through the pretty-printer in their original shape.

use crate::ast::{AttrName, Expr, Literal};
use std::collections::HashMap;
use std::sync::Arc;

/// A classified advertisement: the unit of both data and query in the
/// matchmaking framework.
///
/// ```
/// use classad::{ClassAd, Expr};
///
/// let mut ad = ClassAd::new();
/// ad.set("Type", Expr::str("Machine"));
/// ad.set("Memory", Expr::int(64));
/// assert_eq!(ad.len(), 2);
/// assert!(ad.get("memory").is_some()); // names are case-insensitive
/// ```
#[derive(Debug, Clone, Default)]
pub struct ClassAd {
    entries: Vec<(AttrName, Arc<Expr>)>,
    index: HashMap<Arc<str>, usize>,
}

impl ClassAd {
    /// Create an empty ad.
    pub fn new() -> Self {
        ClassAd::default()
    }

    /// Create an empty ad with capacity for `n` attributes.
    pub fn with_capacity(n: usize) -> Self {
        ClassAd {
            entries: Vec::with_capacity(n),
            index: HashMap::with_capacity(n),
        }
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the ad has no attributes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insert or replace an attribute. Replacement keeps the attribute's
    /// original position (and the *new* spelling of its name).
    pub fn insert(&mut self, name: AttrName, expr: Arc<Expr>) {
        match self.index.get(name.canonical()) {
            Some(&i) => {
                self.entries[i] = (name, expr);
            }
            None => {
                let canon = name.canonical_arc();
                self.entries.push((name, expr));
                self.index.insert(canon, self.entries.len() - 1);
            }
        }
    }

    /// Convenience insert from any name-like and an owned expression.
    pub fn set(&mut self, name: impl Into<AttrName>, expr: Expr) {
        self.insert(name.into(), Arc::new(expr));
    }

    /// Convenience: set an attribute to a literal string.
    pub fn set_str(&mut self, name: impl Into<AttrName>, v: &str) {
        self.set(name, Expr::str(v));
    }

    /// Convenience: set an attribute to a literal integer.
    pub fn set_int(&mut self, name: impl Into<AttrName>, v: i64) {
        self.set(name, Expr::int(v));
    }

    /// Convenience: set an attribute to a literal real.
    pub fn set_real(&mut self, name: impl Into<AttrName>, v: f64) {
        self.set(name, Expr::real(v));
    }

    /// Convenience: set an attribute to a literal boolean.
    pub fn set_bool(&mut self, name: impl Into<AttrName>, v: bool) {
        self.set(name, Expr::bool(v));
    }

    /// Look up an attribute by name (case-insensitive).
    pub fn get(&self, name: &str) -> Option<&Arc<Expr>> {
        let i = self.lookup(name)?;
        Some(&self.entries[i].1)
    }

    /// Look up an attribute, returning its stored (case-preserving) name
    /// and expression.
    pub fn get_entry(&self, name: &str) -> Option<(&AttrName, &Arc<Expr>)> {
        let i = self.lookup(name)?;
        let (n, e) = &self.entries[i];
        Some((n, e))
    }

    /// `true` if the attribute exists (case-insensitive).
    pub fn contains(&self, name: &str) -> bool {
        self.lookup(name).is_some()
    }

    /// Remove an attribute, returning its expression if present.
    ///
    /// Removal is O(n): the tail shifts down so iteration order stays the
    /// insertion order, and the index is rebuilt for shifted entries.
    pub fn remove(&mut self, name: &str) -> Option<Arc<Expr>> {
        let i = self.lookup(name)?;
        let (n, e) = self.entries.remove(i);
        self.index.remove(n.canonical());
        for (j, (n, _)) in self.entries.iter().enumerate().skip(i) {
            if let Some(slot) = self.index.get_mut(n.canonical()) {
                *slot = j;
            }
        }
        Some(e)
    }

    fn lookup(&self, name: &str) -> Option<usize> {
        if !name.bytes().any(|b| b.is_ascii_uppercase()) {
            return self.index.get(name).copied();
        }
        // Mixed-case probe: fold into a stack buffer instead of allocating
        // a String per lookup (this is the match-scan hot path). ASCII
        // lowercasing only rewrites bytes < 0x80, so UTF-8 stays valid.
        let bytes = name.as_bytes();
        if bytes.len() <= 64 {
            let mut buf = [0u8; 64];
            for (dst, src) in buf.iter_mut().zip(bytes) {
                *dst = src.to_ascii_lowercase();
            }
            let lower = std::str::from_utf8(&buf[..bytes.len()])
                .expect("ASCII case folding preserves UTF-8");
            self.index.get(lower).copied()
        } else {
            let lower = name.to_ascii_lowercase();
            self.index.get(lower.as_str()).copied()
        }
    }

    /// Iterate attributes in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&AttrName, &Arc<Expr>)> {
        self.entries.iter().map(|(n, e)| (n, e))
    }

    /// Iterate attribute names in insertion order.
    pub fn names(&self) -> impl Iterator<Item = &AttrName> {
        self.entries.iter().map(|(n, _)| n)
    }

    /// If the attribute is bound to a plain string literal, return it.
    /// This does *not* evaluate; use [`crate::eval`] for computed attributes.
    pub fn get_string(&self, name: &str) -> Option<&str> {
        match self.get(name).map(|e| e.as_ref()) {
            Some(Expr::Lit(Literal::Str(s))) => Some(s),
            _ => None,
        }
    }

    /// If the attribute is bound to a plain integer literal, return it.
    pub fn get_int(&self, name: &str) -> Option<i64> {
        match self.get(name).map(|e| e.as_ref()) {
            Some(Expr::Lit(Literal::Int(i))) => Some(*i),
            _ => None,
        }
    }

    /// Merge `other`'s attributes into `self` (other wins on collision).
    pub fn update_from(&mut self, other: &ClassAd) {
        for (n, e) in other.iter() {
            self.insert(n.clone(), e.clone());
        }
    }

    /// Build an ad from an iterator of `(name, expr)` pairs.
    pub fn from_pairs<N: Into<AttrName>>(pairs: impl IntoIterator<Item = (N, Expr)>) -> Self {
        let mut ad = ClassAd::new();
        for (n, e) in pairs {
            ad.set(n, e);
        }
        ad
    }
}

impl PartialEq for ClassAd {
    /// Structural equality: same attribute set (case-insensitive) bound to
    /// structurally equal expressions. Order-insensitive.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self.iter().all(|(n, e)| match other.get(n.canonical()) {
                Some(oe) => **e == **oe,
                None => false,
            })
    }
}

impl<'a> IntoIterator for &'a ClassAd {
    type Item = (&'a AttrName, &'a Arc<Expr>);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (AttrName, Arc<Expr>)>,
        fn(&'a (AttrName, Arc<Expr>)) -> (&'a AttrName, &'a Arc<Expr>),
    >;

    fn into_iter(self) -> Self::IntoIter {
        fn split(p: &(AttrName, Arc<Expr>)) -> (&AttrName, &Arc<Expr>) {
            (&p.0, &p.1)
        }
        self.entries.iter().map(split)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_case_insensitive() {
        let mut ad = ClassAd::new();
        ad.set("Memory", Expr::int(64));
        assert!(ad.contains("memory"));
        assert!(ad.contains("MEMORY"));
        assert_eq!(ad.get_int("MeMoRy"), Some(64));
        assert_eq!(ad.len(), 1);
    }

    #[test]
    fn replace_keeps_position_updates_spelling() {
        let mut ad = ClassAd::new();
        ad.set("A", Expr::int(1));
        ad.set("B", Expr::int(2));
        ad.set("a", Expr::int(10));
        let names: Vec<&str> = ad.names().map(|n| n.as_str()).collect();
        assert_eq!(names, vec!["a", "B"]);
        assert_eq!(ad.get_int("A"), Some(10));
        assert_eq!(ad.len(), 2);
    }

    #[test]
    fn remove_shifts_and_preserves_order() {
        let mut ad = ClassAd::new();
        ad.set("A", Expr::int(1));
        ad.set("B", Expr::int(2));
        ad.set("C", Expr::int(3));
        let removed = ad.remove("b").unwrap();
        assert_eq!(*removed, Expr::int(2));
        assert_eq!(ad.len(), 2);
        let names: Vec<&str> = ad.names().map(|n| n.as_str()).collect();
        assert_eq!(names, vec!["A", "C"]);
        // Index still consistent after the shift.
        assert_eq!(ad.get_int("C"), Some(3));
        assert_eq!(ad.get_int("A"), Some(1));
        assert!(ad.remove("nope").is_none());
    }

    #[test]
    fn iteration_order_is_insertion_order() {
        let mut ad = ClassAd::new();
        for n in ["Z", "A", "M"] {
            ad.set(n, Expr::int(0));
        }
        let names: Vec<&str> = ad.names().map(|n| n.as_str()).collect();
        assert_eq!(names, vec!["Z", "A", "M"]);
    }

    #[test]
    fn literal_accessors() {
        let mut ad = ClassAd::new();
        ad.set_str("Arch", "INTEL");
        ad.set_int("Mips", 104);
        ad.set(
            "Computed",
            Expr::bin(crate::ast::BinOp::Add, Expr::int(1), Expr::int(2)),
        );
        assert_eq!(ad.get_string("arch"), Some("INTEL"));
        assert_eq!(ad.get_int("mips"), Some(104));
        assert_eq!(ad.get_string("mips"), None);
        assert_eq!(ad.get_int("computed"), None, "computed attrs need eval");
    }

    #[test]
    fn structural_equality_order_insensitive() {
        let mut a = ClassAd::new();
        a.set("X", Expr::int(1));
        a.set("Y", Expr::str("s"));
        let mut b = ClassAd::new();
        b.set("y", Expr::str("s"));
        b.set("x", Expr::int(1));
        assert_eq!(a, b);
        b.set("z", Expr::int(0));
        assert_ne!(a, b);
    }

    #[test]
    fn update_from_merges() {
        let mut a = ClassAd::new();
        a.set("X", Expr::int(1));
        a.set("Y", Expr::int(2));
        let mut b = ClassAd::new();
        b.set("Y", Expr::int(20));
        b.set("Z", Expr::int(30));
        a.update_from(&b);
        assert_eq!(a.get_int("X"), Some(1));
        assert_eq!(a.get_int("Y"), Some(20));
        assert_eq!(a.get_int("Z"), Some(30));
    }

    #[test]
    fn from_pairs_builder() {
        let ad = ClassAd::from_pairs([("Type", Expr::str("Job")), ("Memory", Expr::int(31))]);
        assert_eq!(ad.len(), 2);
        assert_eq!(ad.get_string("type"), Some("Job"));
    }

    #[test]
    fn into_iterator_for_ref() {
        let ad = ClassAd::from_pairs([("A", Expr::int(1)), ("B", Expr::int(2))]);
        let mut seen = Vec::new();
        for (n, _) in &ad {
            seen.push(n.as_str().to_string());
        }
        assert_eq!(seen, vec!["A", "B"]);
    }
}
