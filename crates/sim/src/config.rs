//! Scenarios as classads: experiment configuration written in the same
//! language the system matches on.
//!
//! "All entities are represented with classads" (paper §4) — including,
//! here, experiment configurations. [`scenario_to_ad`] renders a
//! [`Scenario`] as a nested classad and [`scenario_from_ad`] parses one
//! back, so experiment files are plain `.classad` text:
//!
//! ```classad
//! [
//!     Seed = 42;
//!     Fleet = [ Count = 16; ... ];
//!     Users = { [ Name = "alice"; Jobs = 20; ... ] };
//!     DurationMs = 28800000;
//! ]
//! ```
//!
//! Missing attributes fall back to the [`Scenario`] defaults, so a config
//! only states what it changes.

use crate::network::NetworkModel;
use crate::scenario::{GangLoadSpec, NegotiatorSettings, PolicyConfig, Scenario};
use crate::workload::{FleetSpec, MachineTemplate, OwnerActivity, UserSpec};
use classad::ast::Expr;
use classad::{ClassAd, EvalPolicy, Value};
use std::fmt;

/// Errors converting a classad into a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Dotted path of the offending attribute.
    pub path: String,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config error at `{}`: {}", self.path, self.message)
    }
}

impl std::error::Error for ConfigError {}

fn err(path: &str, message: impl Into<String>) -> ConfigError {
    ConfigError {
        path: path.to_string(),
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// Reading helpers
// ---------------------------------------------------------------------------

struct Reader<'a> {
    ad: &'a ClassAd,
    path: String,
    policy: EvalPolicy,
}

impl<'a> Reader<'a> {
    fn new(ad: &'a ClassAd, path: &str) -> Self {
        Reader {
            ad,
            path: path.to_string(),
            policy: EvalPolicy::default(),
        }
    }

    fn at(&self, name: &str) -> String {
        if self.path.is_empty() {
            name.to_string()
        } else {
            format!("{}.{name}", self.path)
        }
    }

    fn value(&self, name: &str) -> Option<Value> {
        if self.ad.contains(name) {
            Some(self.ad.eval_attr(name, &self.policy))
        } else {
            None
        }
    }

    fn u64(&self, name: &str, default: u64) -> Result<u64, ConfigError> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .as_int()
                .filter(|i| *i >= 0)
                .map(|i| i as u64)
                .ok_or_else(|| {
                    err(
                        &self.at(name),
                        format!("expected a non-negative integer, got {v}"),
                    )
                }),
        }
    }

    fn usize(&self, name: &str, default: usize) -> Result<usize, ConfigError> {
        Ok(self.u64(name, default as u64)? as usize)
    }

    fn i64(&self, name: &str, default: i64) -> Result<i64, ConfigError> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .as_int()
                .ok_or_else(|| err(&self.at(name), format!("expected an integer, got {v}"))),
        }
    }

    fn f64(&self, name: &str, default: f64) -> Result<f64, ConfigError> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .as_f64()
                .ok_or_else(|| err(&self.at(name), format!("expected a number, got {v}"))),
        }
    }

    fn bool(&self, name: &str, default: bool) -> Result<bool, ConfigError> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .as_bool()
                .ok_or_else(|| err(&self.at(name), format!("expected a boolean, got {v}"))),
        }
    }

    fn string(&self, name: &str, default: &str) -> Result<String, ConfigError> {
        match self.value(name) {
            None => Ok(default.to_string()),
            Some(v) => match v.as_str() {
                Some(s) => Ok(s.to_string()),
                None => Err(err(&self.at(name), format!("expected a string, got {v}"))),
            },
        }
    }

    fn sub_ads(&self, name: &str) -> Result<Vec<ClassAd>, ConfigError> {
        match self.value(name) {
            None => Ok(Vec::new()),
            Some(Value::List(items)) => items
                .iter()
                .enumerate()
                .map(|(i, item)| match item {
                    Value::Ad(ad) => Ok((**ad).clone()),
                    other => Err(err(
                        &format!("{}[{i}]", self.at(name)),
                        format!("expected a classad, got {other}"),
                    )),
                })
                .collect(),
            Some(Value::Ad(ad)) => Ok(vec![(*ad).clone()]),
            Some(other) => Err(err(
                &self.at(name),
                format!("expected a list of classads, got {other}"),
            )),
        }
    }

    fn sub_ad(&self, name: &str) -> Result<Option<ClassAd>, ConfigError> {
        match self.value(name) {
            None => Ok(None),
            Some(Value::Ad(ad)) => Ok(Some((*ad).clone())),
            Some(other) => Err(err(
                &self.at(name),
                format!("expected a classad, got {other}"),
            )),
        }
    }

    fn string_list(&self, name: &str) -> Result<Vec<String>, ConfigError> {
        match self.value(name) {
            None => Ok(Vec::new()),
            Some(Value::List(items)) => items
                .iter()
                .enumerate()
                .map(|(i, item)| match item.as_str() {
                    Some(s) => Ok(s.to_string()),
                    None => Err(err(
                        &format!("{}[{i}]", self.at(name)),
                        format!("expected a string, got {item}"),
                    )),
                })
                .collect(),
            Some(other) => Err(err(
                &self.at(name),
                format!("expected a list of strings, got {other}"),
            )),
        }
    }

    fn i64_list(&self, name: &str, default: &[i64]) -> Result<Vec<i64>, ConfigError> {
        match self.value(name) {
            None => Ok(default.to_vec()),
            Some(Value::List(items)) => items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    item.as_int().ok_or_else(|| {
                        err(
                            &format!("{}[{i}]", self.at(name)),
                            format!("expected an integer, got {item}"),
                        )
                    })
                })
                .collect(),
            Some(other) => Err(err(
                &self.at(name),
                format!("expected a list of integers, got {other}"),
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// Scenario -> ClassAd
// ---------------------------------------------------------------------------

fn record(fields: Vec<(&str, Expr)>) -> Expr {
    Expr::Record(fields.into_iter().map(|(n, e)| (n.into(), e)).collect())
}

fn str_list(items: &[String]) -> Expr {
    Expr::List(items.iter().map(|s| Expr::str(s)).collect())
}

fn int_list(items: &[i64]) -> Expr {
    Expr::List(items.iter().map(|&i| Expr::int(i)).collect())
}

fn activity_record(a: &OwnerActivity) -> Expr {
    record(vec![
        ("MeanActiveMs", Expr::real(a.mean_active_ms)),
        ("MeanAwayMs", Expr::real(a.mean_away_ms)),
        ("InitiallyPresentProb", Expr::real(a.initially_present_prob)),
        ("DayLengthMs", Expr::int(a.day_length_ms as i64)),
        ("NightAwayFactor", Expr::real(a.night_away_factor)),
    ])
}

fn policy_record(p: &PolicyConfig) -> Expr {
    match p {
        PolicyConfig::Always => record(vec![("Kind", Expr::str("Always"))]),
        PolicyConfig::OwnerIdle {
            min_keyboard_idle_s,
        } => record(vec![
            ("Kind", Expr::str("OwnerIdle")),
            ("MinKeyboardIdleS", Expr::int(*min_keyboard_idle_s)),
        ]),
        PolicyConfig::Figure1 {
            research,
            friends,
            untrusted,
        } => record(vec![
            ("Kind", Expr::str("Figure1")),
            ("Research", str_list(research)),
            ("Friends", str_list(friends)),
            ("Untrusted", str_list(untrusted)),
        ]),
    }
}

/// Render a scenario as a classad.
pub fn scenario_to_ad(s: &Scenario) -> ClassAd {
    let mut ad = ClassAd::new();
    ad.set_int("Seed", s.seed as i64);
    ad.set(
        "Fleet",
        record(vec![
            ("Count", Expr::int(s.fleet.count as i64)),
            (
                "Templates",
                Expr::List(
                    s.fleet
                        .templates
                        .iter()
                        .map(|t| {
                            record(vec![
                                ("Arch", Expr::str(&t.arch)),
                                ("OpSys", Expr::str(&t.opsys)),
                                ("MipsMin", Expr::int(t.mips.0)),
                                ("MipsMax", Expr::int(t.mips.1)),
                                ("MemoryChoices", int_list(&t.memory_choices)),
                                ("DiskMin", Expr::int(t.disk.0)),
                                ("DiskMax", Expr::int(t.disk.1)),
                                ("Weight", Expr::real(t.weight)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("Activity", activity_record(&s.fleet.activity)),
        ]),
    );
    ad.set("Policy", policy_record(&s.policy));
    ad.set(
        "Users",
        Expr::List(
            s.users
                .iter()
                .map(|u| {
                    record(vec![
                        ("Name", Expr::str(&u.name)),
                        ("Jobs", Expr::int(u.job_count as i64)),
                        ("MeanInterarrivalMs", Expr::real(u.mean_interarrival_ms)),
                        ("MeanDurationMs", Expr::real(u.mean_duration_ms)),
                        ("MemoryChoices", int_list(&u.memory_choices)),
                        ("ArchConstraintProb", Expr::real(u.arch_constraint_prob)),
                        ("RequiredArch", Expr::str(&u.required_arch)),
                        ("CheckpointProb", Expr::real(u.checkpoint_prob)),
                        ("Rank", Expr::str(&u.rank)),
                    ])
                })
                .collect(),
        ),
    );
    ad.set(
        "GangUsers",
        Expr::List(
            s.gang_users
                .iter()
                .map(|g| {
                    record(vec![
                        ("User", Expr::str(&g.user)),
                        ("Count", Expr::int(g.count as i64)),
                        ("MeanInterarrivalMs", Expr::real(g.mean_interarrival_ms)),
                        ("MeanDurationMs", Expr::real(g.mean_duration_ms)),
                        ("Memory", Expr::int(g.memory)),
                    ])
                })
                .collect(),
        ),
    );
    ad.set_int("Licenses", s.licenses as i64);
    ad.set_str("LicenseProduct", &s.license_product);
    ad.set(
        "Network",
        record(vec![
            ("BaseLatencyMs", Expr::int(s.network.base_latency_ms as i64)),
            ("JitterMs", Expr::int(s.network.jitter_ms as i64)),
            ("DropProb", Expr::real(s.network.drop_prob)),
        ]),
    );
    ad.set_int("AdvertisePeriodMs", s.advertise_period_ms as i64);
    ad.set_int("NegotiationPeriodMs", s.negotiation_period_ms as i64);
    ad.set_bool("PushAdsOnChange", s.push_ads_on_change);
    let mut neg = vec![
        ("Preemption", Expr::bool(s.negotiator.preemption)),
        ("ChargePerMatch", Expr::real(s.negotiator.charge_per_match)),
    ];
    if let Some(h) = s.negotiator.priority_halflife_ms {
        neg.push(("PriorityHalflifeMs", Expr::real(h)));
    }
    ad.set("Negotiator", record(neg));
    ad.set_int("DurationMs", s.duration_ms as i64);
    ad
}

// ---------------------------------------------------------------------------
// ClassAd -> Scenario
// ---------------------------------------------------------------------------

/// Parse a scenario from a classad; missing attributes keep the defaults.
pub fn scenario_from_ad(ad: &ClassAd) -> Result<Scenario, ConfigError> {
    let defaults = Scenario::default();
    let r = Reader::new(ad, "");

    let fleet = match r.sub_ad("Fleet")? {
        None => defaults.fleet.clone(),
        Some(fad) => {
            let fr = Reader::new(&fad, "Fleet");
            let templates = {
                let tads = fr.sub_ads("Templates")?;
                if tads.is_empty() {
                    FleetSpec::default().templates
                } else {
                    tads.iter()
                        .enumerate()
                        .map(|(i, tad)| {
                            let tr = Reader::new(tad, &format!("Fleet.Templates[{i}]"));
                            let d = MachineTemplate::intel_solaris();
                            Ok(MachineTemplate {
                                arch: tr.string("Arch", &d.arch)?,
                                opsys: tr.string("OpSys", &d.opsys)?,
                                mips: (tr.i64("MipsMin", d.mips.0)?, tr.i64("MipsMax", d.mips.1)?),
                                memory_choices: tr.i64_list("MemoryChoices", &d.memory_choices)?,
                                disk: (tr.i64("DiskMin", d.disk.0)?, tr.i64("DiskMax", d.disk.1)?),
                                weight: tr.f64("Weight", d.weight)?,
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()?
                }
            };
            let activity = match fr.sub_ad("Activity")? {
                None => OwnerActivity::default(),
                Some(aad) => {
                    let ar = Reader::new(&aad, "Fleet.Activity");
                    let d = OwnerActivity::default();
                    OwnerActivity {
                        mean_active_ms: ar.f64("MeanActiveMs", d.mean_active_ms)?,
                        mean_away_ms: ar.f64("MeanAwayMs", d.mean_away_ms)?,
                        initially_present_prob: ar
                            .f64("InitiallyPresentProb", d.initially_present_prob)?,
                        day_length_ms: ar.u64("DayLengthMs", d.day_length_ms)?,
                        night_away_factor: ar.f64("NightAwayFactor", d.night_away_factor)?,
                    }
                }
            };
            FleetSpec {
                count: fr.usize("Count", defaults.fleet.count)?,
                templates,
                activity,
            }
        }
    };

    let policy = match r.sub_ad("Policy")? {
        None => defaults.policy.clone(),
        Some(pad) => {
            let pr = Reader::new(&pad, "Policy");
            match pr.string("Kind", "OwnerIdle")?.as_str() {
                "Always" => PolicyConfig::Always,
                "OwnerIdle" => PolicyConfig::OwnerIdle {
                    min_keyboard_idle_s: pr.i64("MinKeyboardIdleS", 300)?,
                },
                "Figure1" => PolicyConfig::Figure1 {
                    research: pr.string_list("Research")?,
                    friends: pr.string_list("Friends")?,
                    untrusted: pr.string_list("Untrusted")?,
                },
                other => return Err(err("Policy.Kind", format!("unknown policy `{other}`"))),
            }
        }
    };

    let users = r
        .sub_ads("Users")?
        .iter()
        .enumerate()
        .map(|(i, uad)| {
            let ur = Reader::new(uad, &format!("Users[{i}]"));
            let d = UserSpec::standard("user", 0);
            Ok(UserSpec {
                name: ur.string("Name", &format!("user{i}"))?,
                job_count: ur.usize("Jobs", 10)?,
                mean_interarrival_ms: ur.f64("MeanInterarrivalMs", d.mean_interarrival_ms)?,
                mean_duration_ms: ur.f64("MeanDurationMs", d.mean_duration_ms)?,
                memory_choices: ur.i64_list("MemoryChoices", &d.memory_choices)?,
                arch_constraint_prob: ur.f64("ArchConstraintProb", d.arch_constraint_prob)?,
                required_arch: ur.string("RequiredArch", &d.required_arch)?,
                checkpoint_prob: ur.f64("CheckpointProb", d.checkpoint_prob)?,
                rank: ur.string("Rank", &d.rank)?,
            })
        })
        .collect::<Result<Vec<_>, _>>()?;

    let gang_users = r
        .sub_ads("GangUsers")?
        .iter()
        .enumerate()
        .map(|(i, gad)| {
            let gr = Reader::new(gad, &format!("GangUsers[{i}]"));
            Ok(GangLoadSpec {
                user: gr.string("User", &format!("ganguser{i}"))?,
                count: gr.usize("Count", 1)?,
                mean_interarrival_ms: gr.f64("MeanInterarrivalMs", 0.0)?,
                mean_duration_ms: gr.f64("MeanDurationMs", 600_000.0)?,
                memory: gr.i64("Memory", 31)?,
            })
        })
        .collect::<Result<Vec<_>, _>>()?;

    let network = match r.sub_ad("Network")? {
        None => defaults.network.clone(),
        Some(nad) => {
            let nr = Reader::new(&nad, "Network");
            let d = NetworkModel::default();
            NetworkModel {
                base_latency_ms: nr.u64("BaseLatencyMs", d.base_latency_ms)?,
                jitter_ms: nr.u64("JitterMs", d.jitter_ms)?,
                drop_prob: nr.f64("DropProb", d.drop_prob)?,
            }
        }
    };

    let negotiator = match r.sub_ad("Negotiator")? {
        None => defaults.negotiator.clone(),
        Some(nad) => {
            let nr = Reader::new(&nad, "Negotiator");
            let d = NegotiatorSettings::default();
            NegotiatorSettings {
                preemption: nr.bool("Preemption", d.preemption)?,
                charge_per_match: nr.f64("ChargePerMatch", d.charge_per_match)?,
                priority_halflife_ms: if nad.contains("PriorityHalflifeMs") {
                    Some(nr.f64("PriorityHalflifeMs", 0.0)?)
                } else {
                    None
                },
            }
        }
    };

    Ok(Scenario {
        seed: r.i64("Seed", defaults.seed as i64)? as u64,
        fleet,
        policy,
        users: if users.is_empty() && !ad.contains("Users") {
            defaults.users
        } else {
            users
        },
        gang_users,
        licenses: r.usize("Licenses", defaults.licenses)?,
        license_product: r.string("LicenseProduct", &defaults.license_product)?,
        network,
        advertise_period_ms: r.u64("AdvertisePeriodMs", defaults.advertise_period_ms)?,
        negotiation_period_ms: r.u64("NegotiationPeriodMs", defaults.negotiation_period_ms)?,
        push_ads_on_change: r.bool("PushAdsOnChange", defaults.push_ads_on_change)?,
        negotiator,
        duration_ms: r.u64("DurationMs", defaults.duration_ms)?,
    })
}

/// Parse a scenario from classad source text.
pub fn scenario_from_str(src: &str) -> Result<Scenario, ConfigError> {
    let ad = classad::parse_classad(src)
        .map_err(|e| err("<input>", format!("classad parse error: {e}")))?;
    scenario_from_ad(&ad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Scenario {
        Scenario {
            seed: 99,
            fleet: FleetSpec {
                count: 7,
                templates: vec![
                    MachineTemplate::intel_solaris(),
                    MachineTemplate::sparc_solaris(),
                ],
                activity: OwnerActivity {
                    day_length_ms: 1000,
                    ..Default::default()
                },
            },
            policy: PolicyConfig::Figure1 {
                research: vec!["raman".into()],
                friends: vec!["tannenba".into(), "wright".into()],
                untrusted: vec!["riffraff".into()],
            },
            users: vec![UserSpec::standard("alice", 3)],
            gang_users: vec![GangLoadSpec {
                user: "bob".into(),
                count: 2,
                mean_interarrival_ms: 10.0,
                mean_duration_ms: 20.0,
                memory: 64,
            }],
            licenses: 2,
            license_product: "matlab".into(),
            network: NetworkModel {
                base_latency_ms: 9,
                jitter_ms: 1,
                drop_prob: 0.25,
            },
            advertise_period_ms: 111,
            negotiation_period_ms: 222,
            push_ads_on_change: false,
            negotiator: NegotiatorSettings {
                preemption: false,
                charge_per_match: 3.5,
                priority_halflife_ms: Some(4.5),
            },
            duration_ms: 333,
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let s = sample();
        let ad = scenario_to_ad(&s);
        let back = scenario_from_ad(&ad).unwrap();
        // Compare through the classad rendering (Scenario lacks PartialEq).
        assert_eq!(ad, scenario_to_ad(&back));
        assert_eq!(back.seed, 99);
        assert_eq!(back.fleet.count, 7);
        assert_eq!(back.fleet.templates.len(), 2);
        assert!(matches!(back.policy, PolicyConfig::Figure1 { .. }));
        assert_eq!(back.gang_users.len(), 1);
        assert_eq!(back.negotiator.priority_halflife_ms, Some(4.5));
        assert!(!back.push_ads_on_change);
    }

    #[test]
    fn roundtrip_survives_text_form() {
        let s = sample();
        let text = scenario_to_ad(&s).pretty();
        // A file written for an older build may still set the retired
        // negotiator keys; they are ignored like any unknown attribute.
        let retired = text.replacen(
            "Preemption = ",
            "Threads = 4; Autocluster = false; Preemption = ",
            1,
        );
        assert_ne!(retired, text);
        for src in [text, retired] {
            let back = scenario_from_str(&src).unwrap();
            assert_eq!(scenario_to_ad(&s), scenario_to_ad(&back));
        }
    }

    #[test]
    fn empty_ad_gives_defaults() {
        let back = scenario_from_str("[]").unwrap();
        let d = Scenario::default();
        assert_eq!(back.seed, d.seed);
        assert_eq!(back.fleet.count, d.fleet.count);
        assert_eq!(back.users.len(), d.users.len());
        assert_eq!(back.duration_ms, d.duration_ms);
    }

    #[test]
    fn partial_override() {
        let back = scenario_from_str(
            r#"[ Seed = 5; Fleet = [ Count = 3 ];
                 Users = { [ Name = "x"; Jobs = 1 ] };
                 DurationMs = 1000 ]"#,
        )
        .unwrap();
        assert_eq!(back.seed, 5);
        assert_eq!(back.fleet.count, 3);
        assert_eq!(back.users.len(), 1);
        assert_eq!(back.users[0].name, "x");
        assert_eq!(back.duration_ms, 1000);
        // Unspecified parts keep defaults.
        assert!(!back.fleet.templates.is_empty());
    }

    #[test]
    fn computed_attributes_work() {
        // Config values can be expressions: the classad evaluator runs.
        let back = scenario_from_str("[ DurationMs = 8 * 3600 * 1000; Seed = 40 + 2 ]").unwrap();
        assert_eq!(back.duration_ms, 8 * 3600 * 1000);
        assert_eq!(back.seed, 42);
    }

    #[test]
    fn type_errors_are_reported_with_paths() {
        let e = scenario_from_str(r#"[ Fleet = [ Count = "three" ] ]"#).unwrap_err();
        assert_eq!(e.path, "Fleet.Count");
        let e = scenario_from_str(r#"[ Policy = [ Kind = "Nonsense" ] ]"#).unwrap_err();
        assert!(e.to_string().contains("unknown policy"));
        let e = scenario_from_str(r#"[ Users = 5 ]"#).unwrap_err();
        assert_eq!(e.path, "Users");
    }

    #[test]
    fn loaded_scenario_actually_runs() {
        let back = scenario_from_str(
            r#"[ Seed = 7;
                 Fleet = [ Count = 4 ];
                 Policy = [ Kind = "Always" ];
                 Users = { [ Name = "alice"; Jobs = 2;
                             MeanDurationMs = 60000.0;
                             ArchConstraintProb = 0.0 ] };
                 DurationMs = 3600000 ]"#,
        )
        .unwrap();
        let (summary, _) = back.run();
        assert_eq!(summary.jobs_completed, 2);
    }
}
