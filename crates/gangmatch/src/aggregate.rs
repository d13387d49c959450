//! Regularity detection and group matching (paper §5).
//!
//! "Lists of classads representing resources and customers exhibit a high
//! degree of regularity ... **structural regularity** [entities publish
//! attributes with the same names] and **value regularity** [groups of
//! entities publish attributes with similar values]. We are currently
//! investigating techniques for exploiting this regularity, and
//! automatically aggregating classads so that matches may be performed in
//! groups."
//!
//! This module implements that proposal: ads are clustered by structural
//! signature, then by value template (identical attribute bindings,
//! ignoring identity attributes like `Name`). A pool of `n` ads with `t`
//! distinct templates matches in `O(t)` constraint evaluations instead of
//! `O(n)` — the paper's hypothesized throughput boost (EXPERIMENTS.md E7
//! has the numbers).

use classad::{ClassAd, EvalPolicy, MatchConventions};
use matchmaker::matcher::{Candidate, MatchEngine};
use std::collections::HashMap;
use std::sync::Arc;

/// Attributes that identify an individual rather than describe it; they
/// are excluded from value templates (every machine has a unique `Name`,
/// which would otherwise defeat aggregation).
const IDENTITY_ATTRS: &[&str] = &["name", "currenttime", "daytime", "keyboardidle", "loadavg"];

/// A structural signature: the sorted canonical attribute names of an ad.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StructSig(Vec<String>);

impl StructSig {
    /// Compute the structural signature of an ad.
    pub fn of(ad: &ClassAd) -> StructSig {
        let mut names: Vec<String> = ad.names().map(|n| n.canonical().to_string()).collect();
        names.sort();
        StructSig(names)
    }

    /// Number of attributes in the signature.
    pub fn arity(&self) -> usize {
        self.0.len()
    }
}

/// A value template: a representative ad plus the indices of all ads that
/// are identical to it (up to identity attributes).
#[derive(Debug, Clone)]
pub struct Template {
    /// A representative ad (the first member encountered).
    pub representative: Arc<ClassAd>,
    /// Indices (into the original pool) of all member ads.
    pub members: Vec<usize>,
}

impl Template {
    /// How many concrete ads this template stands for.
    pub fn multiplicity(&self) -> usize {
        self.members.len()
    }
}

/// A pool aggregated into value templates.
#[derive(Debug)]
pub struct AggregatedPool {
    /// The templates, in first-seen order.
    pub templates: Vec<Template>,
    /// Total ads aggregated.
    pub total: usize,
    /// Remaining capacity per template (members not yet handed out).
    capacity: Vec<usize>,
}

/// The value key of an ad: its printed form with identity attributes
/// removed. Printing is canonical enough because attribute order is
/// preserved per template class and expressions print deterministically.
fn value_key(ad: &ClassAd) -> String {
    let mut parts: Vec<String> = ad
        .iter()
        .filter(|(n, _)| !IDENTITY_ATTRS.contains(&n.canonical()))
        .map(|(n, e)| format!("{}={}", n.canonical(), e))
        .collect();
    parts.sort();
    parts.join(";")
}

impl AggregatedPool {
    /// Aggregate a pool of ads into templates.
    pub fn build(ads: &[Arc<ClassAd>]) -> AggregatedPool {
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut templates: Vec<Template> = Vec::new();
        for (i, ad) in ads.iter().enumerate() {
            let key = value_key(ad);
            match index.get(&key) {
                Some(&t) => templates[t].members.push(i),
                None => {
                    index.insert(key, templates.len());
                    templates.push(Template {
                        representative: ad.clone(),
                        members: vec![i],
                    });
                }
            }
        }
        let capacity = templates.iter().map(|t| t.members.len()).collect();
        AggregatedPool {
            templates,
            total: ads.len(),
            capacity,
        }
    }

    /// The aggregation (deduplication) ratio: ads per template.
    pub fn dedup_ratio(&self) -> f64 {
        if self.templates.is_empty() {
            0.0
        } else {
            self.total as f64 / self.templates.len() as f64
        }
    }

    /// Remaining total capacity.
    pub fn remaining(&self) -> usize {
        self.capacity.iter().sum()
    }

    /// Find the best match for `request` by scanning **templates** instead
    /// of individual ads, and allocate one member from the winning
    /// template. Returns `(pool_index, candidate)`.
    ///
    /// Exactness: when members of a template are genuinely identical on
    /// every attribute the match evaluates, the representative's
    /// constraint/rank outcome holds for every member, so this returns a
    /// rank-optimal match exactly as the bilateral scan would.
    pub fn allocate_best(
        &mut self,
        request: &ClassAd,
        engine: &MatchEngine,
    ) -> Option<(usize, Candidate)> {
        let mut best: Option<(usize, Candidate)> = None;
        for (t, tmpl) in self.templates.iter().enumerate() {
            if self.capacity[t] == 0 {
                continue;
            }
            if let Some(c) = engine.score(request, &tmpl.representative, t) {
                let better = match &best {
                    None => true,
                    Some((_, b)) => (c.request_rank, c.offer_rank) > (b.request_rank, b.offer_rank),
                };
                if better {
                    best = Some((t, c));
                }
            }
        }
        let (t, c) = best?;
        // Hand out the next unused member of the winning template.
        let used = self.templates[t].members.len() - self.capacity[t];
        let member = self.templates[t].members[used];
        self.capacity[t] -= 1;
        Some((member, c))
    }
}

/// A report on a pool's regularity (the measurable phenomenon §5 builds
/// on).
#[derive(Debug, Clone, PartialEq)]
pub struct RegularityReport {
    /// Number of ads examined.
    pub total: usize,
    /// Distinct structural signatures.
    pub structural_classes: usize,
    /// Distinct value templates.
    pub value_templates: usize,
    /// total / value_templates.
    pub dedup_ratio: f64,
}

/// Measure structural and value regularity of a pool.
pub fn regularity(ads: &[Arc<ClassAd>]) -> RegularityReport {
    let mut sigs: HashMap<StructSig, usize> = HashMap::new();
    for ad in ads {
        *sigs.entry(StructSig::of(ad)).or_insert(0) += 1;
    }
    let pool = AggregatedPool::build(ads);
    RegularityReport {
        total: ads.len(),
        structural_classes: sigs.len(),
        value_templates: pool.templates.len(),
        dedup_ratio: pool.dedup_ratio(),
    }
}

/// Convenience: group-match a batch of requests against a pool, returning
/// `(request_index, pool_index)` pairs. Each pool member is granted once.
pub fn group_match_batch(
    requests: &[Arc<ClassAd>],
    offers: &[Arc<ClassAd>],
    policy: &EvalPolicy,
    conv: &MatchConventions,
) -> Vec<(usize, usize)> {
    let engine = MatchEngine {
        policy: policy.clone(),
        conventions: conv.clone(),
    };
    let mut pool = AggregatedPool::build(offers);
    let mut out = Vec::new();
    for (r, req) in requests.iter().enumerate() {
        if let Some((member, _)) = pool.allocate_best(req, &engine) {
            out.push((r, member));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use classad::parse_classad;

    fn machine(name: &str, mips: i64, mem: i64) -> Arc<ClassAd> {
        Arc::new(
            parse_classad(&format!(
                r#"[ Name = "{name}"; Type = "Machine"; Mips = {mips}; Memory = {mem};
                     Constraint = other.Type == "Job"; Rank = 0 ]"#
            ))
            .unwrap(),
        )
    }

    fn job(mem: i64) -> Arc<ClassAd> {
        Arc::new(
            parse_classad(&format!(
                r#"[ Name = "j"; Type = "Job"; Owner = "u"; Memory = {mem};
                     Constraint = other.Type == "Machine" && other.Memory >= self.Memory;
                     Rank = other.Mips ]"#
            ))
            .unwrap(),
        )
    }

    fn regular_pool(n: usize) -> Vec<Arc<ClassAd>> {
        // Two hardware classes, unique names.
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    machine(&format!("a{i}"), 100, 64)
                } else {
                    machine(&format!("b{i}"), 50, 128)
                }
            })
            .collect()
    }

    #[test]
    fn aggregation_collapses_identical_ads() {
        let pool = AggregatedPool::build(&regular_pool(100));
        assert_eq!(pool.templates.len(), 2);
        assert_eq!(pool.total, 100);
        assert!((pool.dedup_ratio() - 50.0).abs() < 1e-9);
        assert_eq!(pool.remaining(), 100);
    }

    #[test]
    fn regularity_report() {
        let r = regularity(&regular_pool(10));
        assert_eq!(r.total, 10);
        assert_eq!(r.structural_classes, 1, "same attribute sets");
        assert_eq!(r.value_templates, 2);
        assert!((r.dedup_ratio - 5.0).abs() < 1e-9);
    }

    #[test]
    fn irregular_pool_does_not_aggregate() {
        let ads: Vec<Arc<ClassAd>> = (0..10)
            .map(|i| machine(&format!("m{i}"), 50 + i, 64))
            .collect();
        let r = regularity(&ads);
        assert_eq!(r.value_templates, 10);
    }

    #[test]
    fn group_match_equals_bilateral_on_regular_pool() {
        let offers = regular_pool(20);
        let engine = MatchEngine::new();
        let req = job(31);
        // Bilateral scan best.
        let bilateral = engine.best_match(&req, &offers, |_| true).unwrap();
        // Group scan best.
        let mut pool = AggregatedPool::build(&offers);
        let (member, cand) = pool.allocate_best(&req, &engine).unwrap();
        assert_eq!(
            cand.request_rank, bilateral.request_rank,
            "same rank outcome"
        );
        // The member granted belongs to the winning (100-mips) class.
        let policy = EvalPolicy::default();
        assert_eq!(
            offers[member].eval_attr("Mips", &policy).as_int(),
            Some(100)
        );
    }

    #[test]
    fn allocation_consumes_capacity() {
        let offers = regular_pool(4); // 2 fast (mips 100), 2 slow
        let engine = MatchEngine::new();
        let mut pool = AggregatedPool::build(&offers);
        let req = job(31);
        let mut granted = Vec::new();
        while let Some((member, _)) = pool.allocate_best(&req, &engine) {
            granted.push(member);
        }
        assert_eq!(granted.len(), 4, "all members eventually granted");
        assert_eq!(pool.remaining(), 0);
        // No duplicates.
        let mut sorted = granted.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
        // Fast class exhausted before slow class is touched.
        let policy = EvalPolicy::default();
        let mips: Vec<i64> = granted
            .iter()
            .map(|&m| offers[m].eval_attr("Mips", &policy).as_int().unwrap())
            .collect();
        assert_eq!(mips, vec![100, 100, 50, 50]);
    }

    #[test]
    fn constraints_respected_per_template() {
        // Jobs needing 128 MB can only use the big-memory class.
        let offers = regular_pool(10);
        let engine = MatchEngine::new();
        let mut pool = AggregatedPool::build(&offers);
        let req = job(100);
        let policy = EvalPolicy::default();
        let (member, _) = pool.allocate_best(&req, &engine).unwrap();
        assert_eq!(
            offers[member].eval_attr("Memory", &policy).as_int(),
            Some(128)
        );
    }

    #[test]
    fn batch_matching_grants_each_member_once() {
        let offers = regular_pool(6);
        let requests: Vec<Arc<ClassAd>> = (0..10).map(|_| job(31)).collect();
        let pairs = group_match_batch(
            &requests,
            &offers,
            &EvalPolicy::default(),
            &MatchConventions::default(),
        );
        assert_eq!(pairs.len(), 6, "pool capacity bounds grants");
        let mut members: Vec<usize> = pairs.iter().map(|(_, m)| *m).collect();
        members.sort();
        members.dedup();
        assert_eq!(members.len(), 6);
    }

    #[test]
    fn empty_pool_and_no_match() {
        let engine = MatchEngine::new();
        let mut pool = AggregatedPool::build(&[]);
        assert!(pool.allocate_best(&job(31), &engine).is_none());
        let offers = regular_pool(2);
        let mut pool = AggregatedPool::build(&offers);
        let req = job(4096); // nothing has 4 GB
        assert!(pool.allocate_best(&req, &engine).is_none());
    }

    #[test]
    fn struct_sig_distinguishes_attribute_sets() {
        let a = parse_classad("[x = 1; y = 2]").unwrap();
        let b = parse_classad("[y = 5; X = 9]").unwrap(); // same set, case/order differ
        let c = parse_classad("[x = 1; z = 2]").unwrap();
        assert_eq!(StructSig::of(&a), StructSig::of(&b));
        assert_ne!(StructSig::of(&a), StructSig::of(&c));
        assert_eq!(StructSig::of(&a).arity(), 2);
    }
}
