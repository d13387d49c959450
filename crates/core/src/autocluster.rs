//! Request autoclustering and per-cycle match lists: the negotiation-cycle
//! fast path.
//!
//! A negotiation cycle is dominated by the match scan: every request is
//! scored against every offer, `O(requests × offers)` bilateral
//! evaluations. In high-throughput pools the request population is highly
//! redundant — a user submits hundreds of structurally identical jobs — so
//! most of those scans recompute answers the cycle already knows. This
//! module removes the redundancy in two steps:
//!
//! 1. **Autoclustering** ([`cluster_requests`]): requests are partitioned
//!    into equivalence classes by a *signature* capturing everything that
//!    can influence how they score against any offer: the text of their
//!    effective `Constraint`/`Rank` expressions, plus the bindings of every
//!    attribute in the dependency closure seeded by those expressions'
//!    self-references **and** by the union of request-side attributes any
//!    offer in the pool can read ([`offer_external_refs`]). Two requests
//!    with equal signatures produce identical `(request_rank, offer_rank,
//!    matches?)` verdicts against every offer.
//!
//! 2. **Match lists** ([`MatchList`]): the first request of a cluster
//!    scores all offers once and keeps the matching candidates sorted by
//!    the engine's total order (request rank desc, offer rank desc, tie
//!    key asc). Subsequent requests of the cluster consume the next
//!    eligible candidate with a cursor walk instead of rescanning the
//!    pool. The incremental negotiation path keeps each cluster's list
//!    across cycles and patches it with the pool's changes
//!    ([`MatchList::patch`]) instead of rebuilding it.
//!
//! ## Why cursor-only consumption reproduces the full scan
//!
//! The oracle (the unclustered path in [`crate::negotiate`]) picks the
//! best eligible candidate, and on finding a claimed offer it cannot
//! preempt, excludes it and rescans. The cursor walk is equivalent because
//! every entry it inspects is *permanently consumable* for the cluster:
//!
//! * **taken** — offers granted earlier in the cycle never become free
//!   again, so skipping is final (the skipped entry can simply be dropped,
//!   which the advancing cursor does);
//! * **claimed, not preemptible** — the verdict `offer_rank > CurrentRank
//!   + margin` depends only on cluster-invariant quantities (`offer_rank`
//!   is identical across the cluster by construction; `CurrentRank` and
//!   the margin are fixed for the cycle), so an entry that fails the test
//!   for one member fails it for all members and can be consumed forever —
//!   exactly what the oracle's `excluded` set does one rescan at a time;
//! * **otherwise** — the entry is granted and becomes `taken`.
//!
//! Eligibility therefore only ever *shrinks* along the list, and each
//! member's grant is the first eligible entry at its cursor position —
//! byte-identical to the oracle's choice.
//!
//! ## Signature soundness
//!
//! Expression text is compared *as written* (no case folding): lowercasing
//! would merge string literals that the `is` operator distinguishes.
//! Coarser-than-necessary signatures split clusters (harmless); merged
//! clusters would be unsound. Names missing from a request stay in the
//! signature as explicit "unbound" entries, because under the default
//! evaluation policy a bare name absent from one ad falls back to the
//! other — so "missing" must not collide with any binding.

use crate::matcher::{Candidate, MatchEngine};
use classad::deps::{dependency_closure, other_refs, self_refs};
use classad::{ClassAd, MatchConventions};
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::sync::Arc;

/// Per-offer facts the negotiator needs at grant time, evaluated once per
/// ad (per cycle on the full-scan path): claim state, the rank of the
/// current claimant, and who would be displaced by a preemption.
#[derive(Debug, Clone, Default)]
pub struct OfferMeta {
    /// `Some(CurrentRank)` if the offer advertises `State == "Claimed"`.
    pub claimed_rank: Option<f64>,
    /// The claimant (`RemoteOwner`) displaced if this offer is preempted.
    pub remote_owner: Option<String>,
}

/// Request-side attribute names this offer may read while its constraint
/// and rank are evaluated: `other.X` and bare references in the
/// constraint/rank expressions and in every offer attribute reachable from
/// them. (Bare names count on both sides: they resolve in the offer first
/// but fall back to the request when unbound.)
fn offer_request_refs(conv: &MatchConventions, offer: &ClassAd, out: &mut BTreeSet<Arc<str>>) {
    let mut self_seeds = BTreeSet::new();
    let roots = [
        conv.constraint_attr_of(offer).and_then(|a| offer.get(a)),
        offer.get(&conv.rank_attr),
    ];
    for expr in roots.into_iter().flatten() {
        self_refs(expr, &mut self_seeds);
        other_refs(expr, out);
    }
    for name in dependency_closure(offer, self_seeds) {
        if let Some(expr) = offer.get(&name) {
            other_refs(expr, out);
        }
    }
}

/// The union, over all offers in the pool, of request-side attributes any
/// offer can read ([`offer_request_refs`]). Computed once per cycle; this
/// is the offer-driven half of every request's signature seed set.
pub fn offer_external_refs(conv: &MatchConventions, offers: &[Arc<ClassAd>]) -> BTreeSet<Arc<str>> {
    let mut out = BTreeSet::new();
    for offer in offers {
        offer_request_refs(conv, offer, &mut out);
    }
    out
}

/// The equivalence-class signature of one request (see module docs).
///
/// `offer_external` is the pool-wide set from [`offer_external_refs`].
pub fn request_signature(
    conv: &MatchConventions,
    request: &ClassAd,
    offer_external: &BTreeSet<Arc<str>>,
) -> String {
    let constraint_attr = conv.constraint_attr_of(request);
    let constraint = constraint_attr.and_then(|a| request.get(a));
    let rank = request.get(&conv.rank_attr);

    let mut seeds = offer_external.clone();
    for expr in [constraint, rank].into_iter().flatten() {
        self_refs(expr, &mut seeds);
    }
    let closure = dependency_closure(request, seeds);

    let mut sig = String::new();
    // Which attribute served as the constraint matters (self-recursive
    // constraints hit the cycle guard under their own name), so it is part
    // of the signature alongside the expression text.
    match (constraint_attr, constraint) {
        (Some(a), Some(e)) => {
            let _ = write!(sig, "C@{a}:{e}");
        }
        _ => sig.push_str("C:!"),
    }
    match rank {
        Some(e) => {
            let _ = write!(sig, "\nR:{e}");
        }
        None => sig.push_str("\nR:!"),
    }
    // BTreeSet iteration is sorted, so binding order is canonical.
    for name in &closure {
        match request.get(name) {
            Some(e) => {
                let _ = write!(sig, "\n{name}={e}");
            }
            None => {
                let _ = write!(sig, "\n{name}!");
            }
        }
    }
    sig
}

/// The partition produced by [`cluster_requests`].
#[derive(Debug, Clone, Default)]
pub struct Clustering {
    /// Cluster id for each request, indexed like the input.
    pub cluster_of: Vec<usize>,
    /// Number of distinct clusters (ids are `0..num_clusters`).
    pub num_clusters: usize,
}

/// Partition `requests` into equivalence classes of identical signatures.
/// Cluster ids are assigned in order of first appearance.
pub fn cluster_requests<'a>(
    conv: &MatchConventions,
    requests: impl Iterator<Item = &'a ClassAd>,
    offer_external: &BTreeSet<Arc<str>>,
) -> Clustering {
    let mut ids: HashMap<String, usize> = HashMap::new();
    let mut cluster_of = Vec::new();
    for request in requests {
        let sig = request_signature(conv, request, offer_external);
        let next = ids.len();
        let id = *ids.entry(sig).or_insert(next);
        cluster_of.push(id);
    }
    Clustering {
        num_clusters: ids.len(),
        cluster_of,
    }
}

/// A cluster's sorted candidate list, consumed front to back within a
/// cycle. The full-scan path builds one per cluster per cycle
/// ([`MatchList::build`]); the incremental path keeps one per cluster
/// signature across cycles, [`MatchList::patch`]es it with the pool's
/// changes and [`MatchList::rewind`]s the cursor.
#[derive(Debug, Default)]
pub struct MatchList {
    sorted: Vec<Candidate>,
    cursor: usize,
}

impl MatchList {
    /// Drop every candidate whose offer index is `stale`, merge in `added`
    /// (sorted best-first), and rewind. The result is the list a fresh scan
    /// of the changed pool would build: the order is intrinsic to the
    /// candidates ([`Candidate::best_first`]), not to when they arrived.
    /// `scratch` is the merge buffer; it comes back holding the old list's
    /// allocation, so one buffer serves every list of a cycle.
    pub fn patch(
        &mut self,
        stale: impl Fn(usize) -> bool,
        added: &[Candidate],
        scratch: &mut Vec<Candidate>,
    ) {
        scratch.clear();
        scratch.reserve(self.sorted.len() + added.len());
        let mut added = added.iter().peekable();
        for c in self.sorted.iter().filter(|c| !stale(c.index)) {
            while let Some(a) = added.next_if(|a| a.better_than(c)) {
                scratch.push(*a);
            }
            scratch.push(*c);
        }
        scratch.extend(added);
        std::mem::swap(&mut self.sorted, scratch);
        self.cursor = 0;
    }

    /// Start consuming from the best candidate again (a new cycle).
    pub fn rewind(&mut self) {
        self.cursor = 0;
    }

    /// Score every offer against `request` (one full scan) and keep the
    /// matches sorted best-first. Eligibility is *not* applied here — it
    /// changes as the cycle grants offers, so it is checked at
    /// [`MatchList::pop_next`] time.
    pub fn build(engine: &MatchEngine, request: &ClassAd, offers: &[Arc<ClassAd>]) -> Self {
        MatchList {
            sorted: engine.scored_candidates(request, offers),
            cursor: 0,
        }
    }

    /// Candidates not yet consumed.
    pub fn remaining(&self) -> usize {
        self.sorted.len() - self.cursor
    }

    /// Grant the next eligible candidate to a member of this cluster, or
    /// `None` if the list is exhausted. Returns the candidate and, for a
    /// preempting grant, the displaced user.
    ///
    /// Every inspected entry is consumed permanently — see the module docs
    /// for why that reproduces the oracle's scan-with-exclusion loop.
    pub fn pop_next(
        &mut self,
        taken: &[bool],
        meta: &[OfferMeta],
        preemption: bool,
        margin: f64,
    ) -> Option<(Candidate, Option<String>)> {
        while self.cursor < self.sorted.len() {
            let c = self.sorted[self.cursor];
            self.cursor += 1;
            if taken[c.index] {
                continue;
            }
            match meta[c.index].claimed_rank {
                None => return Some((c, None)),
                Some(current) => {
                    if preemption && c.offer_rank > current + margin {
                        let displaced = meta[c.index].remote_owner.clone().unwrap_or_default();
                        return Some((c, Some(displaced)));
                    }
                    // Not preemptible by this cluster: the verdict is the
                    // same for every member, consume forever.
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classad::parse_classad;

    fn arc(src: &str) -> Arc<ClassAd> {
        Arc::new(parse_classad(src).unwrap())
    }

    fn conv() -> MatchConventions {
        MatchConventions::default()
    }

    #[test]
    fn identical_requests_cluster_despite_distinct_names() {
        let offers = vec![arc(r#"[ Type = "Machine"; Mips = 10;
            Constraint = other.Type == "Job"; Rank = 0 ]"#)];
        let ext = offer_external_refs(&conv(), &offers);
        let a = parse_classad(
            r#"[ Name = "j1"; Type = "Job"; Owner = "alice";
            Constraint = other.Type == "Machine"; Rank = other.Mips ]"#,
        )
        .unwrap();
        let b = parse_classad(
            r#"[ Name = "j2"; Type = "Job"; Owner = "bob";
            Constraint = other.Type == "Machine"; Rank = other.Mips ]"#,
        )
        .unwrap();
        // Name/Owner are read by nothing: not part of the signature.
        let cl = cluster_requests(&conv(), [&a, &b].into_iter(), &ext);
        assert_eq!(cl.num_clusters, 1);
        assert_eq!(cl.cluster_of, vec![0, 0]);
    }

    #[test]
    fn attribute_read_by_offers_splits_clusters() {
        // The offer ranks requests by JobPrio, so JobPrio is part of every
        // request's signature even though no request expression reads it.
        let offers = vec![arc(r#"[ Type = "Machine";
            Constraint = other.Type == "Job"; Rank = other.JobPrio ]"#)];
        let ext = offer_external_refs(&conv(), &offers);
        assert!(ext.contains("jobprio"));
        let lo = parse_classad(
            r#"[ Type = "Job"; JobPrio = 1;
            Constraint = other.Type == "Machine"; Rank = 0 ]"#,
        )
        .unwrap();
        let hi = parse_classad(
            r#"[ Type = "Job"; JobPrio = 9;
            Constraint = other.Type == "Machine"; Rank = 0 ]"#,
        )
        .unwrap();
        let hi2 = hi.clone();
        let cl = cluster_requests(&conv(), [&lo, &hi, &hi2].into_iter(), &ext);
        assert_eq!(cl.num_clusters, 2);
        assert_eq!(cl.cluster_of, vec![0, 1, 1]);
    }

    #[test]
    fn offer_indirection_is_followed() {
        // The offer reads other.JobPrio only through its own helper
        // attribute; the walk must still find it.
        let offers = vec![arc(r#"[ Type = "Machine";
            Constraint = other.Type == "Job";
            Rank = Helper; Helper = other.JobPrio * 2 ]"#)];
        let ext = offer_external_refs(&conv(), &offers);
        assert!(ext.contains("jobprio"));
    }

    #[test]
    fn request_side_chains_split_clusters() {
        let offers = vec![arc(r#"[ Type = "Machine"; Memory = 64;
            Constraint = other.Type == "Job"; Rank = 0 ]"#)];
        let ext = offer_external_refs(&conv(), &offers);
        // Constraint reads Need, Need reads Base, and Base differs.
        let small = parse_classad(
            r#"[ Type = "Job"; Need = Base * 2; Base = 8;
            Constraint = other.Memory >= Need; Rank = 0 ]"#,
        )
        .unwrap();
        let big = parse_classad(
            r#"[ Type = "Job"; Need = Base * 2; Base = 64;
            Constraint = other.Memory >= Need; Rank = 0 ]"#,
        )
        .unwrap();
        let cl = cluster_requests(&conv(), [&small, &big].into_iter(), &ext);
        assert_eq!(cl.num_clusters, 2);
    }

    #[test]
    fn missing_binding_distinguishes_from_bound() {
        let offers = vec![arc(r#"[ Type = "Machine";
            Constraint = other.Type == "Job"; Rank = other.Boost ]"#)];
        let ext = offer_external_refs(&conv(), &offers);
        let with = parse_classad(
            r#"[ Type = "Job"; Boost = 5;
            Constraint = true; Rank = 0 ]"#,
        )
        .unwrap();
        let without = parse_classad(
            r#"[ Type = "Job";
            Constraint = true; Rank = 0 ]"#,
        )
        .unwrap();
        let cl = cluster_requests(&conv(), [&with, &without].into_iter(), &ext);
        assert_eq!(cl.num_clusters, 2);
    }

    #[test]
    fn matchlist_pops_in_rank_order_and_skips_taken() {
        let engine = MatchEngine::new();
        let offers: Vec<Arc<ClassAd>> = [10, 104, 52]
            .iter()
            .map(|m| {
                arc(&format!(
                    r#"[ Type = "Machine"; Mips = {m};
                        Constraint = other.Type == "Job"; Rank = 0 ]"#
                ))
            })
            .collect();
        let request = parse_classad(
            r#"[ Type = "Job"; Constraint = other.Type == "Machine";
                Rank = other.Mips ]"#,
        )
        .unwrap();
        let meta = vec![OfferMeta::default(); offers.len()];
        let mut list = MatchList::build(&engine, &request, &offers);
        assert_eq!(list.remaining(), 3);

        let mut taken = vec![false; offers.len()];
        let (first, pre) = list.pop_next(&taken, &meta, true, 0.0).unwrap();
        assert_eq!((first.index, pre), (1, None)); // Mips 104
        taken[first.index] = true;
        taken[2] = true; // someone else grabbed Mips 52
        let (second, _) = list.pop_next(&taken, &meta, true, 0.0).unwrap();
        assert_eq!(second.index, 0); // falls through to Mips 10
        taken[second.index] = true;
        assert!(list.pop_next(&taken, &meta, true, 0.0).is_none());
    }

    #[test]
    fn patched_list_equals_a_fresh_build_of_the_changed_pool() {
        // Pool A = machines 0..40; pool B drops every third machine and
        // adds ten more. Patching A's list with the delta must give B's.
        let engine = MatchEngine::new();
        let machine = |i: usize| {
            arc(&format!(
                r#"[ Type = "Machine"; Mips = {};
                    Constraint = other.Type == "Job"; Rank = {} ]"#,
                (i * 13) % 7,
                i % 3
            ))
        };
        let request = parse_classad(
            r#"[ Type = "Job"; Constraint = other.Type == "Machine";
                Rank = other.Mips ]"#,
        )
        .unwrap();
        let offers: Vec<Arc<ClassAd>> = (0..50).map(machine).collect();
        let scan = |keep: &dyn Fn(usize) -> bool| {
            let mut v: Vec<Candidate> = (0..50)
                .filter(|&i| keep(i))
                .filter_map(|i| engine.score_keyed(&request, &offers[i], i, 1000 - i as u64))
                .collect();
            v.sort_by(Candidate::best_first);
            v
        };
        let mut list = MatchList {
            sorted: scan(&|i| i < 40),
            cursor: 7,
        };
        let dropped = |i: usize| i < 40 && i.is_multiple_of(3);
        let mut scratch = Vec::new();
        list.patch(dropped, &scan(&|i| i >= 40), &mut scratch);
        assert_eq!(list.sorted, scan(&|i| !dropped(i)));
        assert_eq!(list.remaining(), list.sorted.len(), "patch rewinds");
    }

    #[test]
    fn matchlist_consumes_unpreemptible_claims_forever() {
        let engine = MatchEngine::new();
        let offers = vec![
            arc(r#"[ Type = "Machine"; Mips = 104;
                Constraint = other.Type == "Job"; Rank = 1 ]"#),
            arc(r#"[ Type = "Machine"; Mips = 10;
                Constraint = other.Type == "Job"; Rank = 1 ]"#),
        ];
        let request = parse_classad(
            r#"[ Type = "Job"; Constraint = other.Type == "Machine";
                Rank = other.Mips ]"#,
        )
        .unwrap();
        // Best offer is claimed at CurrentRank 5; its rank of the request
        // is 1, so it is not preemptible and must be skipped permanently.
        let meta = vec![
            OfferMeta {
                claimed_rank: Some(5.0),
                remote_owner: Some("old".into()),
            },
            OfferMeta::default(),
        ];
        let taken = vec![false, false];
        let mut list = MatchList::build(&engine, &request, &offers);
        let (c, pre) = list.pop_next(&taken, &meta, true, 0.0).unwrap();
        assert_eq!((c.index, pre), (1, None));
        assert_eq!(
            list.remaining(),
            0,
            "claimed entry was consumed, not retained"
        );
    }

    #[test]
    fn matchlist_grants_preemption_with_displaced_owner() {
        let engine = MatchEngine::new();
        let offers = vec![arc(r#"[ Type = "Machine";
            Constraint = other.Type == "Job"; Rank = other.JobPrio ]"#)];
        let request = parse_classad(
            r#"[ Type = "Job"; JobPrio = 10;
                Constraint = other.Type == "Machine"; Rank = 0 ]"#,
        )
        .unwrap();
        let meta = vec![OfferMeta {
            claimed_rank: Some(5.0),
            remote_owner: Some("olduser".into()),
        }];
        let mut list = MatchList::build(&engine, &request, &offers);
        let (c, pre) = list.pop_next(&[false], &meta, true, 0.0).unwrap();
        assert_eq!(c.index, 0);
        assert_eq!(pre.as_deref(), Some("olduser"));
        // With preemption off the same entry is consumed without a grant.
        let mut list = MatchList::build(&engine, &request, &offers);
        assert!(list.pop_next(&[false], &meta, false, 0.0).is_none());
    }
}
