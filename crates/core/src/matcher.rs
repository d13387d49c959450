//! The match engine: scan a pool of offer ads for the best match to a
//! request ad.
//!
//! The selection rule is the paper's (§3.2): among provider ads whose
//! constraints are mutually satisfied with the customer ad, choose the one
//! with the highest customer (`Rank`) value, "breaking ties according to
//! the provider's Rank value". Remaining ties go to the lowest **tie key**
//! — an intrinsic, caller-supplied identity for the offer. Store-driven
//! scans pass the ad's admission sequence number, which is a property of
//! the ad itself rather than of any particular scan order; that is what
//! makes full scans and *incrementally maintained* candidate lists (any
//! table order, any insertion order) return byte-identical results.
//! Standalone scans default the key to the offer's slice index, preserving
//! the classic lowest-index-wins behavior.

use classad::{constraint_holds, rank_of, ClassAd, EvalPolicy, MatchConventions};
use std::sync::Arc;

/// A scored candidate from a match scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Index into the offers slice.
    pub index: usize,
    /// Intrinsic tie-break key: lower wins on equal ranks. Store-driven
    /// scans use the ad's admission sequence number (so the winner is
    /// independent of scan and table order); standalone scans
    /// use the slice index.
    pub tie: u64,
    /// The request's rank of this offer.
    pub request_rank: f64,
    /// The offer's rank of the request.
    pub offer_rank: f64,
}

impl Candidate {
    /// The deterministic "better" relation: higher request rank, then
    /// higher offer rank, then lower tie key.
    ///
    /// This tuple comparison is a *total* order only because ranks are
    /// guaranteed finite (see [`normalize_rank`]) and tie keys are unique
    /// within a scan; a NaN would make every comparison false and the
    /// selection order-dependent.
    pub(crate) fn better_than(&self, other: &Candidate) -> bool {
        (
            self.request_rank,
            self.offer_rank,
            std::cmp::Reverse(self.tie),
        ) > (
            other.request_rank,
            other.offer_rank,
            std::cmp::Reverse(other.tie),
        )
    }

    /// [`Candidate::better_than`] as a sort comparator: best first.
    /// `Equal` only for entries with the same ranks *and* tie key, so sort
    /// stability is irrelevant to determinism.
    pub(crate) fn best_first(&self, other: &Candidate) -> std::cmp::Ordering {
        if self.better_than(other) {
            std::cmp::Ordering::Less
        } else if other.better_than(self) {
            std::cmp::Ordering::Greater
        } else {
            std::cmp::Ordering::Equal
        }
    }
}

/// Clamp a rank to the finite domain `better_than` requires. Rank
/// evaluation already maps non-numeric values to 0.0; this re-asserts the
/// invariant at the engine boundary so no future rank source can poison
/// candidate ordering with NaN or ±∞.
fn normalize_rank(r: f64) -> f64 {
    if r.is_finite() {
        r
    } else {
        0.0
    }
}

/// Configuration and entry points for match scans.
#[derive(Debug, Clone, Default)]
pub struct MatchEngine {
    /// Evaluation policy used for constraint/rank evaluation.
    pub policy: EvalPolicy,
    /// Attribute-name conventions (`Constraint`/`Requirements`, `Rank`).
    pub conventions: MatchConventions,
}

impl MatchEngine {
    /// Create an engine with default policy and conventions.
    pub fn new() -> Self {
        MatchEngine::default()
    }

    /// Score one request/offer pair, if they match symmetrically. The tie
    /// key defaults to the index (classic lowest-index-wins).
    pub fn score(&self, request: &ClassAd, offer: &ClassAd, index: usize) -> Option<Candidate> {
        self.score_keyed(request, offer, index, index as u64)
    }

    /// Score one request/offer pair with an explicit tie key (store-driven
    /// scans pass the ad's sequence number here).
    pub fn score_keyed(
        &self,
        request: &ClassAd,
        offer: &ClassAd,
        index: usize,
        tie: u64,
    ) -> Option<Candidate> {
        if !constraint_holds(request, offer, &self.policy, &self.conventions) {
            return None;
        }
        if !constraint_holds(offer, request, &self.policy, &self.conventions) {
            return None;
        }
        Some(Candidate {
            index,
            tie,
            request_rank: normalize_rank(rank_of(request, offer, &self.policy, &self.conventions)),
            offer_rank: normalize_rank(rank_of(offer, request, &self.policy, &self.conventions)),
        })
    }

    /// Serial scan: the best-ranked matching offer, or `None`.
    ///
    /// `eligible` filters offers before evaluation (e.g. "not already
    /// claimed this cycle"); pass `|_| true` to consider all.
    pub fn best_match(
        &self,
        request: &ClassAd,
        offers: &[Arc<ClassAd>],
        eligible: impl Fn(usize) -> bool,
    ) -> Option<Candidate> {
        let mut best: Option<Candidate> = None;
        for (i, offer) in offers.iter().enumerate() {
            if !eligible(i) {
                continue;
            }
            if let Some(c) = self.score(request, offer, i) {
                if best.as_ref().is_none_or(|b| c.better_than(b)) {
                    best = Some(c);
                }
            }
        }
        best
    }

    /// All matching offers, in index order (used by one-way queries and
    /// gang matching).
    pub fn all_matches(&self, request: &ClassAd, offers: &[Arc<ClassAd>]) -> Vec<Candidate> {
        offers
            .iter()
            .enumerate()
            .filter_map(|(i, o)| self.score(request, o, i))
            .collect()
    }

    /// Score *every* offer (no eligibility filter) and return the matching
    /// candidates sorted best-first by the same total order `best_match`
    /// selects with. This is the build step for a per-cluster match list
    /// (see [`crate::autocluster`]): eligibility, claims, and preemption
    /// checks happen at consumption time, so the scored list is valid for
    /// every request in an equivalence class for a whole cycle.
    pub fn scored_candidates(&self, request: &ClassAd, offers: &[Arc<ClassAd>]) -> Vec<Candidate> {
        let mut scored = self.all_matches(request, offers);
        scored.sort_by(Candidate::best_first);
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classad::parse_classad;

    fn mk(src: &str) -> Arc<ClassAd> {
        Arc::new(parse_classad(src).unwrap())
    }

    fn machines(mips: &[i64]) -> Vec<Arc<ClassAd>> {
        mips.iter()
            .enumerate()
            .map(|(i, m)| {
                mk(&format!(
                    r#"[ Name = "m{i}"; Type = "Machine"; Mips = {m};
                        Constraint = other.Type == "Job"; Rank = 0 ]"#
                ))
            })
            .collect()
    }

    fn job() -> Arc<ClassAd> {
        mk(r#"[ Name = "j"; Type = "Job";
                Constraint = other.Type == "Machine";
                Rank = other.Mips ]"#)
    }

    #[test]
    fn picks_highest_request_rank() {
        let engine = MatchEngine::new();
        let offers = machines(&[10, 104, 50]);
        let best = engine.best_match(&job(), &offers, |_| true).unwrap();
        assert_eq!(best.index, 1);
        assert_eq!(best.request_rank, 104.0);
    }

    #[test]
    fn offer_rank_breaks_ties() {
        let engine = MatchEngine::new();
        let offers = vec![
            mk(r#"[ Name = "a"; Type = "Machine"; Mips = 100;
                    Constraint = true; Rank = 1 ]"#),
            mk(r#"[ Name = "b"; Type = "Machine"; Mips = 100;
                    Constraint = true; Rank = 5 ]"#),
        ];
        let best = engine.best_match(&job(), &offers, |_| true).unwrap();
        assert_eq!(best.index, 1, "provider rank 5 beats 1");
        assert_eq!(best.offer_rank, 5.0);
    }

    #[test]
    fn remaining_ties_go_to_lowest_index() {
        let engine = MatchEngine::new();
        let offers = machines(&[100, 100, 100]);
        let best = engine.best_match(&job(), &offers, |_| true).unwrap();
        assert_eq!(best.index, 0);
    }

    #[test]
    fn explicit_tie_key_overrides_index_order() {
        // Equal ranks everywhere: the winner is the lowest tie key, not
        // the lowest index — the property store-driven scans rely on.
        let engine = MatchEngine::new();
        let offers = machines(&[100, 100, 100]);
        let j = job();
        let ties = [30u64, 10, 20];
        let mut scored: Vec<Candidate> = (0..3)
            .filter_map(|i| engine.score_keyed(&j, &offers[i], i, ties[i]))
            .collect();
        scored.sort_by(Candidate::best_first);
        let order: Vec<usize> = scored.iter().map(|c| c.index).collect();
        assert_eq!(order, vec![1, 2, 0]);
        assert_eq!(scored[0].tie, 10);
    }

    #[test]
    fn no_match_when_constraints_fail() {
        let engine = MatchEngine::new();
        let offers = vec![mk(
            r#"[ Name = "m"; Type = "Machine"; Constraint = false ]"#,
        )];
        assert!(engine.best_match(&job(), &offers, |_| true).is_none());
    }

    #[test]
    fn eligibility_filter_respected() {
        let engine = MatchEngine::new();
        let offers = machines(&[10, 104, 50]);
        let best = engine.best_match(&job(), &offers, |i| i != 1).unwrap();
        assert_eq!(best.index, 2, "104-mips machine excluded; 50 wins");
    }

    #[test]
    fn empty_pool_matches_nothing() {
        let engine = MatchEngine::new();
        assert!(engine.best_match(&job(), &[], |_| true).is_none());
    }

    #[test]
    fn all_matches_in_order() {
        let engine = MatchEngine::new();
        let mut offers = machines(&[10, 20]);
        offers.push(mk(
            r#"[ Name = "no"; Type = "Machine"; Constraint = false ]"#,
        ));
        let all = engine.all_matches(&job(), &offers);
        let idx: Vec<usize> = all.iter().map(|c| c.index).collect();
        assert_eq!(idx, vec![0, 1]);
    }

    #[test]
    fn bilateral_rejection_by_offer() {
        // The offer vetoes customers it doesn't like — the novel half of
        // the paper's matching model.
        let engine = MatchEngine::new();
        let offers = vec![mk(r#"[ Name = "m"; Type = "Machine"; Mips = 10;
            Constraint = other.Owner != "riffraff" ]"#)];
        let good = mk(r#"[ Name = "j"; Type = "Job"; Owner = "raman";
            Constraint = other.Type == "Machine" ]"#);
        let bad = mk(r#"[ Name = "j2"; Type = "Job"; Owner = "riffraff";
            Constraint = other.Type == "Machine" ]"#);
        assert!(engine.best_match(&good, &offers, |_| true).is_some());
        assert!(engine.best_match(&bad, &offers, |_| true).is_none());
    }
}
