//! Synthetic workload generation: machine fleets with owner-activity
//! dynamics, and per-user job streams.
//!
//! The paper's evaluation substrate was the live UW–Madison Condor pool —
//! hundreds of distributively owned workstations whose availability is
//! driven by their owners' keyboards. We substitute seeded stochastic
//! models: owner presence alternates between exponentially distributed
//! active/away periods (optionally modulated by a day/night cycle), and
//! each user submits a stream of jobs with exponential interarrival and
//! service times. All sampling is deterministic per seed.

use crate::engine::SimTime;
use rand::rngs::SmallRng;
use rand::Rng;

/// Sample an exponential duration with the given mean (ms), clamped to at
/// least 1 ms.
pub fn sample_exp(rng: &mut SmallRng, mean_ms: f64) -> SimTime {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    let d = -mean_ms * u.ln();
    d.clamp(1.0, 1e15) as SimTime
}

/// Owner keyboard/console activity model.
#[derive(Debug, Clone)]
pub struct OwnerActivity {
    /// Mean length of an owner-present period, ms.
    pub mean_active_ms: f64,
    /// Mean length of an owner-away period, ms.
    pub mean_away_ms: f64,
    /// Probability a machine starts with its owner present.
    pub initially_present_prob: f64,
    /// Day/night cycle length (0 disables diurnal modulation).
    pub day_length_ms: u64,
    /// During the second half of each day ("night"), away periods are
    /// multiplied by this factor (> 1 means owners stay away longer at
    /// night, the classic Condor harvest window).
    pub night_away_factor: f64,
}

impl Default for OwnerActivity {
    fn default() -> Self {
        OwnerActivity {
            mean_active_ms: 20.0 * 60.0 * 1000.0,
            mean_away_ms: 40.0 * 60.0 * 1000.0,
            initially_present_prob: 0.5,
            day_length_ms: 0,
            night_away_factor: 3.0,
        }
    }
}

impl OwnerActivity {
    /// `true` if `now` falls in the "night" half of the day cycle.
    pub fn is_night(&self, now: SimTime) -> bool {
        if self.day_length_ms == 0 {
            return false;
        }
        (now % self.day_length_ms) >= self.day_length_ms / 2
    }

    /// Sample how long the owner stays in the current state from `now`.
    pub fn sample_period(&self, rng: &mut SmallRng, present: bool, now: SimTime) -> SimTime {
        if present {
            sample_exp(rng, self.mean_active_ms)
        } else {
            let mean = if self.is_night(now) {
                self.mean_away_ms * self.night_away_factor.max(0.0)
            } else {
                self.mean_away_ms
            };
            sample_exp(rng, mean.max(1.0))
        }
    }
}

/// A class of machines in the fleet.
#[derive(Debug, Clone)]
pub struct MachineTemplate {
    /// Architecture string advertised (e.g. `"INTEL"`).
    pub arch: String,
    /// Operating system advertised (e.g. `"SOLARIS251"`).
    pub opsys: String,
    /// Inclusive MIPS range sampled uniformly.
    pub mips: (i64, i64),
    /// Memory sizes (MB) sampled uniformly from this list.
    pub memory_choices: Vec<i64>,
    /// Inclusive disk range (KB) sampled uniformly.
    pub disk: (i64, i64),
    /// Relative weight when mixing templates.
    pub weight: f64,
}

impl MachineTemplate {
    /// The paper's Figure 1 machine class.
    pub fn intel_solaris() -> Self {
        MachineTemplate {
            arch: "INTEL".into(),
            opsys: "SOLARIS251".into(),
            mips: (60, 140),
            memory_choices: vec![32, 64, 128],
            disk: (100_000, 500_000),
            weight: 1.0,
        }
    }

    /// A second class for heterogeneity experiments.
    pub fn sparc_solaris() -> Self {
        MachineTemplate {
            arch: "SPARC".into(),
            opsys: "SOLARIS251".into(),
            mips: (40, 100),
            memory_choices: vec![64, 128, 256],
            disk: (200_000, 800_000),
            weight: 1.0,
        }
    }
}

/// A concrete machine produced by the generator.
#[derive(Debug, Clone)]
pub struct MachineSpec {
    /// Machine (and ad) name.
    pub name: String,
    /// Architecture.
    pub arch: String,
    /// Operating system.
    pub opsys: String,
    /// Speed, in the paper's `Mips` convention; 100 is "reference speed".
    pub mips: i64,
    /// Memory, MB.
    pub memory: i64,
    /// Disk, KB.
    pub disk: i64,
    /// Owner activity model.
    pub activity: OwnerActivity,
}

/// Fleet-level generator configuration.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// How many machines to generate.
    pub count: usize,
    /// Machine classes, mixed by weight.
    pub templates: Vec<MachineTemplate>,
    /// Owner activity model applied to every machine.
    pub activity: OwnerActivity,
}

impl Default for FleetSpec {
    fn default() -> Self {
        FleetSpec {
            count: 16,
            templates: vec![MachineTemplate::intel_solaris()],
            activity: OwnerActivity::default(),
        }
    }
}

impl FleetSpec {
    /// Generate the fleet deterministically from `rng`.
    pub fn generate(&self, rng: &mut SmallRng) -> Vec<MachineSpec> {
        assert!(
            !self.templates.is_empty(),
            "fleet needs at least one template"
        );
        let total_weight: f64 = self.templates.iter().map(|t| t.weight.max(0.0)).sum();
        (0..self.count)
            .map(|i| {
                let mut pick = rng.gen_range(0.0..total_weight.max(f64::MIN_POSITIVE));
                let mut tmpl = &self.templates[0];
                for t in &self.templates {
                    if pick < t.weight.max(0.0) {
                        tmpl = t;
                        break;
                    }
                    pick -= t.weight.max(0.0);
                }
                MachineSpec {
                    name: format!("node{i:04}.pool.example"),
                    arch: tmpl.arch.clone(),
                    opsys: tmpl.opsys.clone(),
                    mips: rng.gen_range(tmpl.mips.0..=tmpl.mips.1.max(tmpl.mips.0)),
                    memory: tmpl.memory_choices[rng.gen_range(0..tmpl.memory_choices.len())],
                    disk: rng.gen_range(tmpl.disk.0..=tmpl.disk.1.max(tmpl.disk.0)),
                    activity: self.activity.clone(),
                }
            })
            .collect()
    }
}

/// One user's job-stream configuration.
#[derive(Debug, Clone)]
pub struct UserSpec {
    /// User name (the `Owner` attribute of their job ads).
    pub name: String,
    /// Number of jobs this user submits.
    pub job_count: usize,
    /// Mean interarrival time between submissions, ms (0 = all at t=0).
    pub mean_interarrival_ms: f64,
    /// Mean service demand, reference-speed ms.
    pub mean_duration_ms: f64,
    /// Memory requirement choices (MB).
    pub memory_choices: Vec<i64>,
    /// Probability a job constrains `Arch` to a specific value.
    pub arch_constraint_prob: f64,
    /// The architecture required when constrained.
    pub required_arch: String,
    /// Probability a job checkpoints.
    pub checkpoint_prob: f64,
    /// Rank expression for the user's jobs.
    pub rank: String,
}

impl UserSpec {
    /// A reasonable default stream for user `name`.
    pub fn standard(name: &str, job_count: usize) -> Self {
        UserSpec {
            name: name.to_string(),
            job_count,
            mean_interarrival_ms: 30_000.0,
            mean_duration_ms: 10.0 * 60_000.0,
            memory_choices: vec![16, 31, 64],
            arch_constraint_prob: 0.5,
            required_arch: "INTEL".into(),
            checkpoint_prob: 0.8,
            rank: "other.Mips".into(),
        }
    }
}

/// A generated job arrival (relative to the user's agent start).
#[derive(Debug, Clone)]
pub struct JobArrival {
    /// Arrival (submission) time.
    pub at: SimTime,
    /// Service demand at reference speed, ms.
    pub work_ms: u64,
    /// Memory requirement, MB.
    pub memory: i64,
    /// Extra constraint source (possibly empty).
    pub extra_constraint: String,
    /// Whether the job checkpoints.
    pub want_checkpoint: bool,
    /// Rank source.
    pub rank: String,
}

impl UserSpec {
    /// Generate this user's arrival sequence deterministically.
    pub fn generate(&self, rng: &mut SmallRng) -> Vec<JobArrival> {
        let mut at: SimTime = 0;
        (0..self.job_count)
            .map(|_| {
                if self.mean_interarrival_ms > 0.0 {
                    at = at.saturating_add(sample_exp(rng, self.mean_interarrival_ms));
                }
                let constrained = rng.gen_bool(self.arch_constraint_prob.clamp(0.0, 1.0));
                JobArrival {
                    at,
                    work_ms: sample_exp(rng, self.mean_duration_ms).max(1000),
                    memory: self.memory_choices[rng.gen_range(0..self.memory_choices.len())],
                    extra_constraint: if constrained {
                        format!("other.Arch == \"{}\"", self.required_arch)
                    } else {
                        String::new()
                    },
                    want_checkpoint: rng.gen_bool(self.checkpoint_prob.clamp(0.0, 1.0)),
                    rank: self.rank.clone(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn exp_sampling_mean_is_plausible() {
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 20_000;
        let mean = 5000.0;
        let sum: u64 = (0..n).map(|_| sample_exp(&mut rng, mean)).sum();
        let observed = sum as f64 / n as f64;
        assert!((observed - mean).abs() < mean * 0.05, "{observed}");
    }

    #[test]
    fn fleet_generation_deterministic() {
        let spec = FleetSpec {
            count: 10,
            ..Default::default()
        };
        let a = spec.generate(&mut SmallRng::seed_from_u64(42));
        let b = spec.generate(&mut SmallRng::seed_from_u64(42));
        assert_eq!(a.len(), 10);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.mips, y.mips);
            assert_eq!(x.memory, y.memory);
        }
    }

    #[test]
    fn fleet_respects_template_ranges() {
        let spec = FleetSpec {
            count: 50,
            ..Default::default()
        };
        let fleet = spec.generate(&mut SmallRng::seed_from_u64(7));
        for m in &fleet {
            assert!((60..=140).contains(&m.mips), "{}", m.mips);
            assert!([32, 64, 128].contains(&m.memory));
            assert_eq!(m.arch, "INTEL");
        }
    }

    #[test]
    fn mixed_templates_produce_both_kinds() {
        let spec = FleetSpec {
            count: 100,
            templates: vec![
                MachineTemplate::intel_solaris(),
                MachineTemplate::sparc_solaris(),
            ],
            activity: OwnerActivity::default(),
        };
        let fleet = spec.generate(&mut SmallRng::seed_from_u64(3));
        let intel = fleet.iter().filter(|m| m.arch == "INTEL").count();
        assert!((20..=80).contains(&intel), "{intel}");
    }

    #[test]
    fn job_arrivals_are_ordered_and_sized() {
        let spec = UserSpec::standard("alice", 20);
        let jobs = spec.generate(&mut SmallRng::seed_from_u64(5));
        assert_eq!(jobs.len(), 20);
        let mut prev = 0;
        for j in &jobs {
            assert!(j.at >= prev);
            prev = j.at;
            assert!(j.work_ms >= 1000);
            assert!([16, 31, 64].contains(&j.memory));
        }
    }

    #[test]
    fn zero_interarrival_means_batch_at_zero() {
        let spec = UserSpec {
            mean_interarrival_ms: 0.0,
            ..UserSpec::standard("u", 5)
        };
        let jobs = spec.generate(&mut SmallRng::seed_from_u64(5));
        assert!(jobs.iter().all(|j| j.at == 0));
    }

    #[test]
    fn diurnal_night_detection() {
        let act = OwnerActivity {
            day_length_ms: 1000,
            ..Default::default()
        };
        assert!(!act.is_night(0));
        assert!(!act.is_night(499));
        assert!(act.is_night(500));
        assert!(act.is_night(999));
        assert!(!act.is_night(1000));
        let no_diurnal = OwnerActivity {
            day_length_ms: 0,
            ..Default::default()
        };
        assert!(!no_diurnal.is_night(123456));
    }

    #[test]
    fn night_away_periods_longer_on_average() {
        let act = OwnerActivity {
            day_length_ms: 1_000_000,
            night_away_factor: 5.0,
            mean_away_ms: 1000.0,
            ..Default::default()
        };
        let mut rng = SmallRng::seed_from_u64(11);
        let day: u64 = (0..5000)
            .map(|_| act.sample_period(&mut rng, false, 0))
            .sum();
        let night: u64 = (0..5000)
            .map(|_| act.sample_period(&mut rng, false, 600_000))
            .sum();
        assert!(night > day * 3, "night={night} day={day}");
    }
}
