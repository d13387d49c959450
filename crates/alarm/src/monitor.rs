//! The alert monitor: per-(rule, subject) hysteresis over repeated
//! bilateral matches of rule ads against telemetry ads.
//!
//! Each sweep ([`Monitor::evaluate`]) the monitor scopes every rule to
//! its subject ads (the `Subjects` selector), evaluates the rule's
//! `Constraint` against each subject, and advances a small state machine
//! per (rule, subject) key:
//!
//! * **hold-to-fire** — the condition must hold `ForIntervals`
//!   consecutive sweeps before the key raises;
//! * **hold-to-clear** — a firing key clears only after `ClearIntervals`
//!   consecutive quiet sweeps (distinct raise/clear thresholds are the
//!   hysteresis that keeps a noisy signal from chattering);
//! * **flap suppression** — a key that still manages more than
//!   `flap_limit` transitions inside `flap_window` sweeps has further
//!   transitions swallowed (and counted) until it settles.
//!
//! While a key is *not* firing, the evaluation runs through
//! `classad::analyze::traced_constraint_holds`, so the monitor always
//! knows which conjunct is currently holding the rule back. When the key
//! finally raises, that last blocking conjunct is the one that flipped —
//! the transition's `detail` names it, and the journal event carries it
//! as rule attribution.

use crate::rule::{severity_rank, Rule, ALERT_AD_TYPE};
use classad::{
    constraint_holds, traced_constraint_holds, ClassAd, EvalPolicy, Expr, MatchConventions,
    RejectReason, RejectSide,
};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Monitor-wide tuning knobs (per-rule knobs live in the rule ads).
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Sweeps a (rule, subject) key looks back when deciding whether it
    /// is flapping.
    pub flap_window: u64,
    /// Raise/clear transitions tolerated inside `flap_window` before
    /// suppression kicks in.
    pub flap_limit: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            flap_window: 10,
            flap_limit: 4,
        }
    }
}

/// One raise or clear decision from a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// The rule that transitioned.
    pub rule: String,
    /// The rule's severity.
    pub severity: String,
    /// The subject (telemetry ad) the rule transitioned against.
    pub subject: String,
    /// `true` = raised, `false` = cleared.
    pub raised: bool,
    /// On a raise: which conjunct tripped (the clause that was holding
    /// the rule back on the previous sweep). On a clear: empty.
    pub detail: String,
}

/// Per-(rule, subject) hysteresis state.
#[derive(Debug, Clone, Default)]
struct KeyState {
    firing: bool,
    /// Consecutive sweeps the condition has held (while not firing).
    hold: u32,
    /// Consecutive quiet sweeps (while firing).
    release: u32,
    /// Sweep ordinals of recent transitions (flap detection).
    transitions: VecDeque<u64>,
    /// Unix stamp of the last transition (0 = never).
    since: u64,
    /// Last sweep this key's subject appeared in telemetry.
    seen: u64,
    /// The conjunct currently holding the rule back (traced while quiet);
    /// becomes the raise attribution when the key fires.
    blocking: String,
    /// Attribution of the last raise.
    detail: String,
    /// Transitions swallowed by flap suppression.
    suppressed: u64,
}

#[derive(Debug, Default)]
struct MonitorState {
    sweep: u64,
    last_unix: u64,
    keys: BTreeMap<(String, String), KeyState>,
    raised_total: u64,
    cleared_total: u64,
    flaps_suppressed: u64,
}

/// The evaluation engine. Owns the rules and the hysteresis state; the
/// embedding daemon owns the clock, the telemetry, and the journal.
#[derive(Debug)]
pub struct Monitor {
    rules: Vec<Rule>,
    cfg: MonitorConfig,
    policy: EvalPolicy,
    conv: MatchConventions,
    state: Mutex<MonitorState>,
}

impl Monitor {
    /// Build a monitor from rule ads (see [`Rule::parse_all`]; non-rule
    /// ads in the slice are ignored, malformed rule ads are errors).
    pub fn new(rule_ads: &[ClassAd], cfg: MonitorConfig) -> Result<Monitor, String> {
        let rules = Rule::parse_all(rule_ads)?;
        Ok(Monitor {
            rules,
            cfg,
            policy: EvalPolicy::default(),
            conv: MatchConventions::default(),
            state: Mutex::new(MonitorState::default()),
        })
    }

    /// Build a monitor from the [`crate::default_pack`] plus `extra`
    /// rule ads.
    pub fn with_default_pack(extra: &[ClassAd], cfg: MonitorConfig) -> Result<Monitor, String> {
        let mut ads = crate::default_pack();
        ads.extend(extra.iter().cloned());
        Monitor::new(&ads, cfg)
    }

    /// How many rules the monitor evaluates.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Keys currently in the firing state.
    pub fn active(&self) -> u64 {
        let state = self.state.lock();
        state.keys.values().filter(|k| k.firing).count() as u64
    }

    /// Raise transitions over the monitor's lifetime.
    pub fn raised_total(&self) -> u64 {
        self.state.lock().raised_total
    }

    /// Clear transitions over the monitor's lifetime.
    pub fn cleared_total(&self) -> u64 {
        self.state.lock().cleared_total
    }

    /// Transitions swallowed by flap suppression.
    pub fn flaps_suppressed(&self) -> u64 {
        self.state.lock().flaps_suppressed
    }

    /// Sweeps completed.
    pub fn sweeps(&self) -> u64 {
        self.state.lock().sweep
    }

    /// Run one evaluation sweep over `telemetry`, stamped `unix`, and
    /// return the raise/clear transitions this sweep produced (already
    /// hysteresis- and flap-filtered — every returned transition is a
    /// real state change worth journaling).
    pub fn evaluate(&self, telemetry: &[ClassAd], unix: u64) -> Vec<Transition> {
        let mut state = self.state.lock();
        state.sweep += 1;
        state.last_unix = unix;
        let sweep = state.sweep;
        let mut out = Vec::new();
        for rule in &self.rules {
            for ad in telemetry {
                if let Some(sel) = &rule.selector_ad {
                    if !constraint_holds(sel, ad, &self.policy, &self.conv) {
                        continue;
                    }
                }
                let subject = subject_name(ad);
                let trace = traced_constraint_holds(
                    &rule.condition_ad,
                    ad,
                    &self.policy,
                    &self.conv,
                    RejectSide::Request,
                );
                let key = (rule.name.clone(), subject.clone());
                let ks = state.keys.entry(key).or_default();
                ks.seen = sweep;
                if trace.verdict {
                    ks.release = 0;
                    ks.hold += 1;
                    if !ks.firing && ks.hold >= rule.for_intervals {
                        let detail = if ks.blocking.is_empty() {
                            clip(&rule.constraint)
                        } else {
                            ks.blocking.clone()
                        };
                        if apply_transition(ks, sweep, unix, &self.cfg) {
                            ks.firing = true;
                            ks.detail = detail.clone();
                            state.raised_total += 1;
                            out.push(Transition {
                                rule: rule.name.clone(),
                                severity: rule.severity.clone(),
                                subject,
                                raised: true,
                                detail,
                            });
                        } else {
                            state.flaps_suppressed += 1;
                        }
                    }
                } else {
                    ks.hold = 0;
                    ks.blocking = blocking_clause(trace.reason.as_ref(), &rule.constraint);
                    if ks.firing {
                        ks.release += 1;
                        if ks.release >= rule.clear_intervals {
                            if apply_transition(ks, sweep, unix, &self.cfg) {
                                ks.firing = false;
                                state.cleared_total += 1;
                                out.push(Transition {
                                    rule: rule.name.clone(),
                                    severity: rule.severity.clone(),
                                    subject,
                                    raised: false,
                                    detail: String::new(),
                                });
                            } else {
                                state.flaps_suppressed += 1;
                            }
                        }
                    }
                }
            }
        }
        // A firing key whose subject vanished from telemetry counts the
        // sweep as quiet: when the subject itself is gone (an RA that
        // departed *and* aged out of history) the alert drains through
        // the normal clear path instead of firing forever. Quiet keys
        // whose subject vanished are garbage-collected outright.
        let MonitorState {
            keys,
            cleared_total,
            ..
        } = &mut *state;
        for ((rule_name, subject), ks) in keys.iter_mut() {
            if ks.seen == sweep || !ks.firing {
                continue;
            }
            let Some(rule) = self.rules.iter().find(|r| &r.name == rule_name) else {
                continue;
            };
            ks.hold = 0;
            ks.release += 1;
            if ks.release >= rule.clear_intervals && apply_transition(ks, sweep, unix, &self.cfg) {
                ks.firing = false;
                *cleared_total += 1;
                out.push(Transition {
                    rule: rule.name.clone(),
                    severity: rule.severity.clone(),
                    subject: subject.clone(),
                    raised: false,
                    detail: String::new(),
                });
            }
        }
        keys.retain(|_, ks| ks.firing || ks.seen == sweep);
        out
    }

    /// Render the full alert state as classads — one `AlertState` ad per
    /// tracked (rule, subject) key, firing or quiet.
    pub fn state_ads(&self) -> Vec<ClassAd> {
        let state = self.state.lock();
        let mut out = Vec::new();
        for ((rule_name, subject), ks) in &state.keys {
            let Some(rule) = self.rules.iter().find(|r| &r.name == rule_name) else {
                continue;
            };
            let mut ad = ClassAd::new();
            ad.set_str("MyType", ALERT_AD_TYPE);
            ad.set_str("Name", &format!("{rule_name}@{subject}"));
            ad.set_str("Rule", rule_name);
            ad.set_str("Severity", &rule.severity);
            ad.set_str("Subject", subject);
            ad.set_str("State", if ks.firing { "firing" } else { "ok" });
            ad.set_int("Since", ks.since as i64);
            ad.set_int("Hold", ks.hold as i64);
            ad.set_int("Release", ks.release as i64);
            ad.set_int("ForIntervals", rule.for_intervals as i64);
            ad.set_int("ClearIntervals", rule.clear_intervals as i64);
            ad.set_int("Transitions", ks.transitions.len() as i64);
            ad.set_int("Suppressed", ks.suppressed as i64);
            ad.set_str("Detail", if ks.firing { &ks.detail } else { &ks.blocking });
            ad.set_str("RuleConstraint", &rule.constraint);
            // Alert-state ads are leaves: they match nothing themselves.
            ad.set("Constraint", Expr::bool(false));
            ad.set_int("Rank", 0);
            out.push(ad);
        }
        // Severity-sorted, critical first; firing before quiet.
        out.sort_by_key(|ad| {
            let sev = severity_rank(ad.get_string("Severity").unwrap_or(""));
            let firing = ad.get_string("State") == Some("firing");
            (
                std::cmp::Reverse(u8::from(firing)),
                std::cmp::Reverse(sev),
                ad.get_string("Name").unwrap_or("").to_string(),
            )
        });
        out
    }

    /// A compact one-line summary of firing alerts, severity-sorted:
    /// `critical:MatchmakerDown@peer:1/pool warning:AgentAbsent@ra-1` —
    /// what the matchmaker self-ad publishes as `ActiveAlertSummary` and
    /// `pool_top` renders. Empty when nothing is firing.
    pub fn active_summary(&self) -> String {
        let state = self.state.lock();
        let mut firing: Vec<(&(String, String), &KeyState)> =
            state.keys.iter().filter(|(_, ks)| ks.firing).collect();
        let sev_of = |rule_name: &str| {
            self.rules
                .iter()
                .find(|r| r.name == rule_name)
                .map(|r| r.severity.clone())
                .unwrap_or_default()
        };
        firing.sort_by_key(|((rule, subject), _)| {
            (
                std::cmp::Reverse(severity_rank(&sev_of(rule))),
                rule.clone(),
                subject.clone(),
            )
        });
        firing
            .iter()
            .map(|((rule, subject), _)| format!("{}:{rule}@{subject}", sev_of(rule)))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Check the flap window and, if the transition is allowed, record it.
/// Returns whether the transition may proceed.
fn apply_transition(ks: &mut KeyState, sweep: u64, unix: u64, cfg: &MonitorConfig) -> bool {
    while let Some(&front) = ks.transitions.front() {
        if sweep.saturating_sub(front) > cfg.flap_window {
            ks.transitions.pop_front();
        } else {
            break;
        }
    }
    if ks.transitions.len() >= cfg.flap_limit {
        ks.suppressed += 1;
        return false;
    }
    ks.transitions.push_back(sweep);
    ks.since = unix;
    true
}

/// Extract the clause text from the traced rejection that was holding a
/// rule back — the raise attribution.
fn blocking_clause(reason: Option<&RejectReason>, fallback: &str) -> String {
    match reason {
        Some(RejectReason::RequirementsFalse { clause, .. }) => clause.clone(),
        Some(RejectReason::UndefinedAttr { attr, .. }) => format!("undefined {attr}"),
        Some(RejectReason::EvalError { .. }) => "eval error".to_string(),
        _ => clip(fallback),
    }
}

/// What a rule key calls one telemetry ad: its `Name`, or a
/// `pool/source` pair for ads without one.
fn subject_name(ad: &ClassAd) -> String {
    if let Some(name) = ad.get_string("Name") {
        return name.to_string();
    }
    match (ad.get_string("Pool"), ad.get_string("Source")) {
        (Some(p), Some(s)) => format!("{p}/{s}"),
        _ => "?".to_string(),
    }
}

/// Clip attribution text to the same budget `classad::analyze` uses for
/// rejection reasons (96 chars), so journal lines stay bounded.
fn clip(s: &str) -> String {
    const MAX: usize = 96;
    if s.len() <= MAX {
        return s.to_string();
    }
    let mut end = MAX;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &s[..end])
}

#[cfg(test)]
mod tests {
    use super::*;
    use classad::{parse_classad, parse_classads};

    fn presence(pool: &str, source: &str, tail: i64, count: i64) -> ClassAd {
        let mut ad = ClassAd::new();
        ad.set_str("MyType", "SourcePresence");
        ad.set_str("Name", &format!("{pool}/{source}"));
        ad.set_str("Pool", pool);
        ad.set_str("Source", source);
        ad.set_int("AbsentTail", tail);
        ad.set_int("AbsentCount", count);
        ad
    }

    fn deadman_rules() -> Vec<ClassAd> {
        parse_classads(
            r#"[ AlertRuleAd = true; Name = "AgentAbsent"; Severity = "warning";
                 ForIntervals = 2; ClearIntervals = 2;
                 Subjects = other.MyType == "SourcePresence" && other.Pool == "local";
                 Constraint = other.AbsentTail >= 1 ]"#,
        )
        .unwrap()
    }

    #[test]
    fn hold_to_fire_requires_consecutive_sweeps() {
        let m = Monitor::new(&deadman_rules(), MonitorConfig::default()).unwrap();
        // One absent sweep: held, not fired.
        let t = m.evaluate(&[presence("local", "ra-1", 1, 1)], 100);
        assert!(t.is_empty());
        assert_eq!(m.active(), 0);
        // A recovery resets the hold counter.
        let t = m.evaluate(&[presence("local", "ra-1", 0, 1)], 110);
        assert!(t.is_empty());
        let t = m.evaluate(&[presence("local", "ra-1", 1, 2)], 120);
        assert!(t.is_empty(), "hold restarted after the quiet sweep");
        // Two consecutive absent sweeps: raise, attributed to the
        // threshold conjunct that was blocking while quiet.
        let t = m.evaluate(&[presence("local", "ra-1", 2, 3)], 130);
        assert_eq!(t.len(), 1);
        assert!(t[0].raised);
        assert_eq!(t[0].rule, "AgentAbsent");
        assert_eq!(t[0].subject, "local/ra-1");
        assert!(
            t[0].detail.contains("AbsentTail"),
            "attribution names the tripping conjunct: {}",
            t[0].detail
        );
        assert_eq!(m.active(), 1);
        assert_eq!(m.raised_total(), 1);
    }

    #[test]
    fn hold_to_clear_and_state_ads() {
        let m = Monitor::new(&deadman_rules(), MonitorConfig::default()).unwrap();
        for unix in [100, 110] {
            m.evaluate(&[presence("local", "ra-1", 1, 1)], unix);
        }
        assert_eq!(m.active(), 1);
        // One quiet sweep is not enough to clear (ClearIntervals = 2).
        let t = m.evaluate(&[presence("local", "ra-1", 0, 1)], 120);
        assert!(t.is_empty());
        assert_eq!(m.active(), 1);
        let t = m.evaluate(&[presence("local", "ra-1", 0, 1)], 130);
        assert_eq!(t.len(), 1);
        assert!(!t[0].raised);
        assert_eq!(m.active(), 0);
        assert_eq!(m.cleared_total(), 1);
        let ads = m.state_ads();
        assert_eq!(ads.len(), 1);
        assert_eq!(ads[0].get_string("State"), Some("ok"));
        assert_eq!(ads[0].get_string("Rule"), Some("AgentAbsent"));
    }

    #[test]
    fn flap_suppression_swallows_chattering_transitions() {
        let m = Monitor::new(
            &deadman_rules(),
            MonitorConfig {
                flap_window: 100,
                flap_limit: 2,
            },
        )
        .unwrap();
        let mut transitions = 0;
        // Alternate dead/alive fast enough that every sweep pair would
        // transition without suppression.
        for i in 0..20u64 {
            let tail = if (i / 2) % 2 == 0 { 1 } else { 0 };
            transitions += m
                .evaluate(&[presence("local", "ra-1", tail, 1)], 100 + i * 10)
                .len();
        }
        assert!(
            transitions <= 2,
            "flap limit must bound transitions, saw {transitions}"
        );
        assert!(m.flaps_suppressed() > 0);
    }

    #[test]
    fn vanished_subject_drains_through_the_clear_path() {
        let m = Monitor::new(&deadman_rules(), MonitorConfig::default()).unwrap();
        for unix in [100, 110] {
            m.evaluate(&[presence("local", "ra-1", 1, 1)], unix);
        }
        assert_eq!(m.active(), 1);
        // The subject ad disappears entirely (history aged out).
        m.evaluate(&[], 120);
        let t = m.evaluate(&[], 130);
        assert_eq!(t.len(), 1);
        assert!(!t[0].raised);
        assert_eq!(m.active(), 0);
        // And the quiet key is garbage-collected.
        assert!(m.state_ads().is_empty());
    }

    /// The state ads whose constraint `src` holds: how a `Query` of the
    /// `AlertState` collection selects among them. A constraint that does
    /// not parse selects nothing and is an error.
    fn select(m: &Monitor, src: &str) -> Result<Vec<ClassAd>, classad::ParseError> {
        let mut query = ClassAd::new();
        query.set("Constraint", classad::parse_expr(src)?);
        let (policy, conv) = (EvalPolicy::default(), MatchConventions::default());
        Ok(m.state_ads()
            .into_iter()
            .filter(|ad| constraint_holds(&query, ad, &policy, &conv))
            .collect())
    }

    #[test]
    fn query_filters_state_ads_and_rejects_bad_constraints() {
        let m = Monitor::with_default_pack(&[], MonitorConfig::default()).unwrap();
        // A dead flock peer fires the critical MatchmakerDown rule.
        let t = m.evaluate(&[presence("peer:9", "pool", 1, 1)], 100);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].severity, "critical");
        let firing_src = r#"other.MyType == "AlertState" && other.State == "firing""#;
        let firing = select(&m, firing_src).unwrap();
        assert_eq!(firing.len(), 1);
        assert_eq!(firing[0].get_string("Rule"), Some("MatchmakerDown"));
        assert_eq!(firing[0].get_string("MyType"), Some(ALERT_AD_TYPE));
        let crit = select(&m, r#"other.Severity == "critical""#).unwrap();
        assert_eq!(crit.len(), 1);
        assert!(!select(&m, "true").unwrap().is_empty());
        assert!(select(&m, "((").is_err());
    }

    #[test]
    fn default_pack_stall_rule_fires_on_matchmaker_self_ad() {
        let m = Monitor::with_default_pack(&[], MonitorConfig::default()).unwrap();
        let stalled = parse_classad(
            r#"[ MyType = "MatchmakerStats"; Name = "mm#stats";
                 LastCycleUnmatched = 4; LastCycleMatches = 0 ]"#,
        )
        .unwrap();
        // MatchRateStall holds ForIntervals = 3.
        assert!(m.evaluate(std::slice::from_ref(&stalled), 100).is_empty());
        assert!(m.evaluate(std::slice::from_ref(&stalled), 110).is_empty());
        let t = m.evaluate(&[stalled], 120);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].rule, "MatchRateStall");
        assert!(t[0].detail.contains("LastCycle"), "{}", t[0].detail);
        let summary = m.active_summary();
        assert!(
            summary.contains("warning:MatchRateStall@mm#stats"),
            "{summary}"
        );
    }
}
