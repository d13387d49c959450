//! Daemon self-ads: a component's identity and metrics as one classad.
//!
//! A self-ad travels the normal advertising path and lands in the
//! matchmaker's ad store next to the machine and job ads, so operators
//! query it with the same constraint language (`other.MyType ==
//! "MatchmakerStats"`). Two attributes keep it out of matchmaking's way:
//! `Constraint = false` means it never accepts a counterpart, and
//! `DaemonAd = true` lets the negotiator skip it entirely so cycle
//! statistics describe only real requests and offers.

use crate::registry::MetricsSnapshot;
use classad::ClassAd;

/// Marker attribute (`true`) identifying a daemon self-ad.
pub const DAEMON_AD_ATTR: &str = "DaemonAd";
/// Attribute naming the ad's schema (`MatchmakerStats`, ...).
pub const MY_TYPE_ATTR: &str = "MyType";

/// Convert a `snake_case` metric name to the PascalCase classad attribute
/// it publishes as (`cycle_duration_ms` → `CycleDurationMs`). Characters
/// that cannot appear in an attribute name are treated as separators, and
/// a name that would start with a digit or be a keyword (`is` → `MIs`) is
/// prefixed with `M`, so any registry name yields a parseable attribute.
pub fn attr_name(metric: &str) -> String {
    let mut out = String::with_capacity(metric.len());
    let mut upper_next = true;
    for ch in metric.chars() {
        if ch.is_ascii_alphanumeric() {
            if upper_next {
                out.extend(ch.to_uppercase());
            } else {
                out.push(ch);
            }
            upper_next = ch.is_ascii_digit();
        } else {
            upper_next = true;
        }
    }
    if out.is_empty()
        || out.chars().next().is_some_and(|c| c.is_ascii_digit())
        || classad::lexer::is_keyword(&out)
    {
        out.insert(0, 'M');
    }
    out
}

/// Build a daemon self-ad: identity, the metrics snapshot, and the
/// non-matching markers. `name` becomes the `Name` attribute (the ad
/// store's key — give each daemon a distinct one), `my_type` the schema
/// tag, and `uptime_secs` the seconds since the daemon started.
pub fn self_ad(name: &str, my_type: &str, uptime_secs: u64, snapshot: &MetricsSnapshot) -> ClassAd {
    let mut ad = ClassAd::new();
    ad.set_str("Name", name);
    ad.set_str(MY_TYPE_ATTR, my_type);
    ad.set_bool(DAEMON_AD_ATTR, true);
    ad.set_bool("Constraint", false);
    ad.set_int("Rank", 0);
    ad.set_int("UptimeSecs", uptime_secs as i64);
    snapshot.set_attrs(&mut ad);
    ad
}

/// Is this ad a daemon self-ad? (The negotiator uses this to keep
/// self-ads out of requests and offers.)
pub fn is_daemon_ad(ad: &ClassAd) -> bool {
    matches!(
        ad.get(DAEMON_AD_ATTR).map(|e| e.as_ref()),
        Some(classad::Expr::Lit(classad::Literal::Bool(true)))
    )
}

/// The constraint string selecting self-ads of the given type, e.g.
/// `other.MyType == "MatchmakerStats"` — ready for
/// `Query::from_constraint` or a `--constraint` flag.
pub fn self_ad_constraint(my_type: &str) -> String {
    format!("other.{MY_TYPE_ATTR} == \"{my_type}\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::schema;

    #[test]
    fn attr_name_pascalizes() {
        assert_eq!(attr_name("cycles"), "Cycles");
        assert_eq!(attr_name("claims_accepted"), "ClaimsAccepted");
        assert_eq!(attr_name("cycle_duration_ms"), "CycleDurationMs");
        assert_eq!(attr_name("p99_latency"), "P99Latency");
        assert_eq!(attr_name("a-b.c"), "ABC");
        assert_eq!(attr_name("9lives"), "M9Lives");
        assert_eq!(attr_name(""), "M");
        assert_eq!(attr_name("is"), "MIs");
        assert_eq!(attr_name("error"), "MError");
    }

    #[test]
    fn self_ad_is_marked_and_parseable() {
        let reg = Registry::new();
        reg.counter(schema::CYCLES).add(4);
        let ad = self_ad(
            "mm@host:9618",
            schema::MATCHMAKER_STATS,
            17,
            &reg.snapshot(),
        );
        assert!(is_daemon_ad(&ad));
        assert_eq!(ad.get_string("Name"), Some("mm@host:9618"));
        assert_eq!(ad.get_int("UptimeSecs"), Some(17));
        assert_eq!(ad.get_int("Cycles"), Some(4));
        // Round-trips through the concrete syntax.
        let reparsed = classad::parse_classad(&ad.to_string()).expect("self-ad parses");
        assert_eq!(
            reparsed.get_string(MY_TYPE_ATTR),
            Some(schema::MATCHMAKER_STATS)
        );
    }

    #[test]
    fn constraint_selects_matching_type_only() {
        let policy = classad::EvalPolicy::default();
        let conv = classad::MatchConventions::default();
        let reg = Registry::new();
        let ad = self_ad("ra@h:1", schema::RESOURCE_AGENT_STATS, 0, &reg.snapshot());
        let want = classad::parse_classad(&format!(
            "[ Constraint = {} ]",
            self_ad_constraint(schema::RESOURCE_AGENT_STATS)
        ))
        .unwrap();
        let reject = classad::parse_classad(&format!(
            "[ Constraint = {} ]",
            self_ad_constraint(schema::MATCHMAKER_STATS)
        ))
        .unwrap();
        assert!(classad::constraint_holds(&want, &ad, &policy, &conv));
        assert!(!classad::constraint_holds(&reject, &ad, &policy, &conv));
        // And the self-ad itself never accepts anything.
        assert!(!classad::constraint_holds(&ad, &want, &policy, &conv));
    }
}
