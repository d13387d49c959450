//! User priorities for fair matching.
//!
//! "The matchmaking algorithm also uses past resource usage information to
//! enforce a fair matching policy" (paper §4). This module implements the
//! Condor-style *effective user priority*: each user's accumulated resource
//! usage decays exponentially with a configurable half-life, and the
//! negotiation cycle serves users in increasing priority-value order (lower
//! value = better). An administrator-assigned *priority factor* scales a
//! user's value (e.g. factor 10 makes a user ten times "heavier" per unit
//! of usage).

use crate::protocol::Timestamp;
use std::collections::HashMap;

/// Tunables for the priority system.
#[derive(Debug, Clone)]
pub struct PriorityConfig {
    /// Half-life of accumulated usage, in seconds. Condor's classic default
    /// is one day.
    pub halflife: f64,
    /// Factor assigned to users with no explicit factor.
    pub default_factor: f64,
    /// Floor on the usage term, so brand-new users do not all tie at zero
    /// and factors still discriminate between them.
    pub min_usage: f64,
}

impl Default for PriorityConfig {
    fn default() -> Self {
        PriorityConfig {
            halflife: 86_400.0,
            default_factor: 1.0,
            min_usage: 0.5,
        }
    }
}

#[derive(Debug, Clone)]
struct UserRecord {
    /// Exponentially decayed resource-seconds, current as of `as_of`.
    usage: f64,
    as_of: Timestamp,
    factor: f64,
    /// Lifetime (undecayed) usage, for accounting displays.
    total: f64,
}

/// Tracks per-user usage and computes effective priorities.
#[derive(Debug, Default)]
pub struct PriorityTracker {
    users: HashMap<String, UserRecord>,
    config: PriorityConfig,
}

impl PriorityTracker {
    /// Create a tracker with the given configuration.
    pub fn new(config: PriorityConfig) -> Self {
        PriorityTracker {
            users: HashMap::new(),
            config,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &PriorityConfig {
        &self.config
    }

    fn decayed(&self, rec: &UserRecord, now: Timestamp) -> f64 {
        let dt = now.saturating_sub(rec.as_of) as f64;
        if self.config.halflife <= 0.0 {
            return rec.usage;
        }
        rec.usage * 0.5_f64.powf(dt / self.config.halflife)
    }

    /// Charge `seconds` of resource usage to `user` at time `now`.
    pub fn charge(&mut self, user: &str, seconds: f64, now: Timestamp) {
        let factor = self.config.default_factor;
        let rec = self.users.entry(user.to_string()).or_insert(UserRecord {
            usage: 0.0,
            as_of: now,
            factor,
            total: 0.0,
        });
        // Decay up to `now`, then add.
        let dt = now.saturating_sub(rec.as_of) as f64;
        if dt > 0.0 && self.config.halflife > 0.0 {
            rec.usage *= 0.5_f64.powf(dt / self.config.halflife);
        }
        rec.as_of = rec.as_of.max(now);
        rec.usage += seconds.max(0.0);
        rec.total += seconds.max(0.0);
    }

    /// Set a user's administrator-assigned priority factor (≥ 1 in Condor
    /// practice; any positive value accepted).
    pub fn set_factor(&mut self, user: &str, factor: f64) {
        let rec = self.users.entry(user.to_string()).or_insert(UserRecord {
            usage: 0.0,
            as_of: 0,
            factor: self.config.default_factor,
            total: 0.0,
        });
        rec.factor = factor.max(f64::MIN_POSITIVE);
    }

    /// A user's effective priority value at `now`. **Lower is better.**
    pub fn effective_priority(&self, user: &str, now: Timestamp) -> f64 {
        match self.users.get(user) {
            Some(rec) => rec.factor * self.decayed(rec, now).max(self.config.min_usage),
            None => self.config.default_factor * self.config.min_usage,
        }
    }

    /// A user's decayed usage (resource-seconds) at `now`.
    pub fn usage(&self, user: &str, now: Timestamp) -> f64 {
        self.users
            .get(user)
            .map(|r| self.decayed(r, now))
            .unwrap_or(0.0)
    }

    /// A user's lifetime (undecayed) usage.
    pub fn lifetime_usage(&self, user: &str) -> f64 {
        self.users.get(user).map(|r| r.total).unwrap_or(0.0)
    }

    /// Order users best-priority-first (ascending priority value, ties
    /// broken by name for determinism).
    pub fn order_users<'a>(
        &self,
        users: impl IntoIterator<Item = &'a str>,
        now: Timestamp,
    ) -> Vec<String> {
        let mut v: Vec<(f64, &str)> = users
            .into_iter()
            .map(|u| (self.effective_priority(u, now), u))
            .collect();
        v.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(b.1))
        });
        v.into_iter().map(|(_, u)| u.to_string()).collect()
    }

    /// Publish the accounting state as classads — Condor's accountant does
    /// exactly this, so administrative tools can browse priorities with
    /// the same one-way query machinery used for everything else. One ad
    /// per user, `Type = "Accounting"`, sorted by user name.
    pub fn to_ads(&self, now: Timestamp) -> Vec<classad::ClassAd> {
        let mut names: Vec<&String> = self.users.keys().collect();
        names.sort();
        names
            .into_iter()
            .map(|user| {
                let rec = &self.users[user];
                let mut ad = classad::ClassAd::new();
                ad.set_str("Name", &format!("Accounting.{user}"));
                ad.set_str("Type", "Accounting");
                ad.set_str("User", user);
                ad.set_real("EffectivePriority", self.effective_priority(user, now));
                ad.set_real("DecayedUsage", self.decayed(rec, now));
                ad.set_real("LifetimeUsage", rec.total);
                ad.set_real("PriorityFactor", rec.factor);
                ad.set_int("LastUpdate", rec.as_of as i64);
                ad.set("Constraint", classad::Expr::bool(true));
                ad
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> PriorityTracker {
        PriorityTracker::new(PriorityConfig::default())
    }

    #[test]
    fn unknown_user_has_floor_priority() {
        let t = tracker();
        assert_eq!(t.effective_priority("nobody", 0), 0.5);
        assert_eq!(t.usage("nobody", 0), 0.0);
    }

    #[test]
    fn charge_accumulates() {
        let mut t = tracker();
        t.charge("alice", 100.0, 0);
        t.charge("alice", 50.0, 0);
        assert_eq!(t.usage("alice", 0), 150.0);
        assert_eq!(t.lifetime_usage("alice"), 150.0);
    }

    #[test]
    fn usage_halves_after_halflife() {
        let mut t = tracker();
        t.charge("alice", 1000.0, 0);
        let one_halflife = t.config().halflife as Timestamp;
        let u = t.usage("alice", one_halflife);
        assert!((u - 500.0).abs() < 1e-6, "{u}");
        let u = t.usage("alice", 2 * one_halflife);
        assert!((u - 250.0).abs() < 1e-6, "{u}");
    }

    #[test]
    fn decay_applied_before_new_charge() {
        let mut t = tracker();
        let hl = t.config().halflife as Timestamp;
        t.charge("alice", 1000.0, 0);
        t.charge("alice", 100.0, hl);
        let u = t.usage("alice", hl);
        assert!((u - 600.0).abs() < 1e-6, "{u}");
        // Lifetime usage never decays.
        assert_eq!(t.lifetime_usage("alice"), 1100.0);
    }

    #[test]
    fn factor_scales_priority() {
        let mut t = tracker();
        t.charge("alice", 100.0, 0);
        t.charge("vip", 100.0, 0);
        t.set_factor("vip", 0.1);
        assert!(t.effective_priority("vip", 0) < t.effective_priority("alice", 0));
        t.set_factor("vip", 10.0);
        assert!(t.effective_priority("vip", 0) > t.effective_priority("alice", 0));
    }

    #[test]
    fn ordering_prefers_light_users() {
        let mut t = tracker();
        t.charge("heavy", 10_000.0, 0);
        t.charge("light", 10.0, 0);
        let order = t.order_users(["heavy", "light", "new"], 0);
        assert_eq!(order, vec!["new", "light", "heavy"]);
    }

    #[test]
    fn ordering_ties_broken_by_name() {
        let t = tracker();
        let order = t.order_users(["zeta", "alpha"], 0);
        assert_eq!(order, vec!["alpha", "zeta"]);
    }

    #[test]
    fn heavy_user_recovers_over_time() {
        let mut t = tracker();
        t.charge("heavy", 10_000.0, 0);
        t.charge("light", 10.0, 0);
        let far = 20 * t.config().halflife as Timestamp;
        // After many half-lives both decay to the floor and tie; order
        // falls back to names, but priority values converge.
        let ph = t.effective_priority("heavy", far);
        let pl = t.effective_priority("light", far);
        assert!((ph - pl).abs() < 1e-6, "{ph} vs {pl}");
    }

    #[test]
    fn negative_charges_ignored() {
        let mut t = tracker();
        t.charge("alice", -50.0, 0);
        assert_eq!(t.usage("alice", 0), 0.0);
    }

    #[test]
    fn accounting_ads_publish_state() {
        let mut t = tracker();
        t.charge("alice", 100.0, 0);
        t.charge("bob", 200.0, 0);
        t.set_factor("bob", 2.0);
        let ads = t.to_ads(0);
        assert_eq!(ads.len(), 2);
        let policy = classad::EvalPolicy::default();
        assert_eq!(ads[0].get_string("User"), Some("alice"));
        assert_eq!(
            ads[0].eval_attr("DecayedUsage", &policy).as_f64(),
            Some(100.0)
        );
        assert_eq!(
            ads[1].eval_attr("PriorityFactor", &policy).as_f64(),
            Some(2.0)
        );
        assert_eq!(
            ads[1].eval_attr("EffectivePriority", &policy).as_f64(),
            Some(400.0),
            "factor 2 x usage 200"
        );
        // The ads are queryable with the ordinary machinery.
        let conv = classad::MatchConventions::default();
        let probe = classad::parse_classad(
            r#"[ Name = "q"; Constraint = other.Type == "Accounting"
                 && other.EffectivePriority > 150 ]"#,
        )
        .unwrap();
        let hits: Vec<&str> = ads
            .iter()
            .filter(|ad| classad::constraint_holds(&probe, ad, &policy, &conv))
            .filter_map(|ad| ad.get_string("User"))
            .collect();
        assert_eq!(hits, vec!["bob"]);
    }

    #[test]
    fn zero_halflife_disables_decay() {
        let mut t = PriorityTracker::new(PriorityConfig {
            halflife: 0.0,
            ..Default::default()
        });
        t.charge("alice", 100.0, 0);
        assert_eq!(t.usage("alice", 1_000_000), 100.0);
    }
}
