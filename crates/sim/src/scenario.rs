//! Scenario configuration: a serde-serializable description of a whole
//! experiment, and the factory that turns it into a running [`Simulation`].

use crate::customer::CustomerAgent;
use crate::engine::SimTime;
use crate::gangca::GangCustomerAgent;
use crate::license::LicenseAgent;
use crate::machine::{MachineAgent, MachinePolicy};
use crate::manager::ManagerNode;
use crate::metrics::Summary;
use crate::network::NetworkModel;
use crate::sim::Simulation;
use crate::workload::{FleetSpec, UserSpec};
use matchmaker::negotiate::{Negotiator, NegotiatorConfig};
use matchmaker::priority::{PriorityConfig, PriorityTracker};
use matchmaker::protocol::AdvertisingProtocol;
use matchmaker::service::Matchmaker;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Serializable machine-policy configuration (mirrors
/// [`MachinePolicy`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum PolicyConfig {
    /// Dedicated nodes: always willing.
    Always,
    /// Desktop harvesting: owner must be away this many seconds.
    OwnerIdle {
        /// Minimum keyboard idle, seconds.
        min_keyboard_idle_s: i64,
    },
    /// The paper's Figure 1 policy.
    Figure1 {
        /// Research-group members.
        research: Vec<String>,
        /// Friends.
        friends: Vec<String>,
        /// Banned users.
        untrusted: Vec<String>,
    },
}

impl PolicyConfig {
    /// Convert to the runtime policy.
    pub fn to_policy(&self) -> MachinePolicy {
        match self {
            PolicyConfig::Always => MachinePolicy::Always,
            PolicyConfig::OwnerIdle {
                min_keyboard_idle_s,
            } => MachinePolicy::OwnerIdle {
                min_keyboard_idle_s: *min_keyboard_idle_s,
            },
            PolicyConfig::Figure1 {
                research,
                friends,
                untrusted,
            } => MachinePolicy::Figure1 {
                research: research.clone(),
                friends: friends.clone(),
                untrusted: untrusted.clone(),
            },
        }
    }
}

/// Negotiator tunables in serializable form.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NegotiatorSettings {
    /// Allow priority preemption of claimed resources.
    pub preemption: bool,
    /// Advance usage charge per match (resource-seconds).
    pub charge_per_match: f64,
    /// Usage-decay half-life for fair-share priorities, in **ms** (the
    /// simulator clocks the tracker in milliseconds). `None` keeps the
    /// tracker default.
    pub priority_halflife_ms: Option<f64>,
}

impl Default for NegotiatorSettings {
    fn default() -> Self {
        NegotiatorSettings {
            preemption: true,
            charge_per_match: 0.0,
            priority_halflife_ms: None,
        }
    }
}

/// One user's stream of gang (co-allocation) requests: each gang needs a
/// compute node plus a license seat, atomically.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GangLoadSpec {
    /// The submitting user.
    pub user: String,
    /// Number of gangs.
    pub count: usize,
    /// Mean interarrival time, ms (0 = all at t=0).
    pub mean_interarrival_ms: f64,
    /// Mean service demand (reference-speed ms).
    pub mean_duration_ms: f64,
    /// Compute-port memory requirement, MB.
    pub memory: i64,
}

/// A complete experiment description.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Machine fleet.
    pub fleet: FleetSpec,
    /// Machine owner policy.
    pub policy: PolicyConfig,
    /// Job streams, one per user.
    pub users: Vec<UserSpec>,
    /// Gang (co-allocation) request streams.
    pub gang_users: Vec<GangLoadSpec>,
    /// Number of single-seat license providers in the pool.
    pub licenses: usize,
    /// Product string the licenses (and gang requests) use.
    pub license_product: String,
    /// Network model.
    pub network: NetworkModel,
    /// RA/CA advertisement refresh period, ms.
    pub advertise_period_ms: u64,
    /// Pool-manager tick period, ms. Arrival cycles run in between, as
    /// new or changed job ads arrive.
    pub negotiation_period_ms: u64,
    /// Machines push fresh ads immediately on state changes (default
    /// `true`); `false` leaves only periodic refresh, widening staleness.
    pub push_ads_on_change: bool,
    /// Negotiator settings.
    pub negotiator: NegotiatorSettings,
    /// Simulated duration budget, ms.
    pub duration_ms: u64,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            seed: 0xC011D0B,
            fleet: FleetSpec::default(),
            policy: PolicyConfig::OwnerIdle {
                min_keyboard_idle_s: 300,
            },
            users: vec![
                UserSpec::standard("alice", 20),
                UserSpec::standard("bob", 20),
            ],
            gang_users: Vec::new(),
            licenses: 0,
            license_product: "matlab".to_string(),
            network: NetworkModel::default(),
            advertise_period_ms: 60_000,
            negotiation_period_ms: 60_000,
            push_ads_on_change: true,
            negotiator: NegotiatorSettings::default(),
            duration_ms: 8 * 3_600 * 1000,
        }
    }
}

impl Scenario {
    /// Total jobs the scenario will submit (plain + gang).
    pub fn total_jobs(&self) -> u64 {
        self.users.iter().map(|u| u.job_count as u64).sum::<u64>()
            + self.gang_users.iter().map(|g| g.count as u64).sum::<u64>()
    }

    /// Build the simulation (deterministic in `self.seed`).
    pub fn build(&self) -> Simulation {
        let mut seed_rng = SmallRng::seed_from_u64(self.seed);
        let fleet = self.fleet.generate(&mut seed_rng);
        let policy = self.policy.to_policy();

        let mut negotiator = Negotiator::new(NegotiatorConfig {
            preemption: self.negotiator.preemption,
            charge_per_match: self.negotiator.charge_per_match,
            ..NegotiatorConfig::default()
        });
        if let Some(halflife) = self.negotiator.priority_halflife_ms {
            negotiator.priorities = PriorityTracker::new(PriorityConfig {
                halflife,
                ..Default::default()
            });
        }
        let manager = ManagerNode::new(
            0,
            Matchmaker::with_protocol(negotiator, AdvertisingProtocol::default()),
            self.negotiation_period_ms,
        );

        let mut machines = Vec::with_capacity(fleet.len());
        let mut initially_present = Vec::with_capacity(fleet.len());
        for (i, spec) in fleet.into_iter().enumerate() {
            initially_present
                .push(seed_rng.gen_bool(spec.activity.initially_present_prob.clamp(0.0, 1.0)));
            let mut agent = MachineAgent::new(
                1 + i,
                0,
                spec,
                policy.clone(),
                self.advertise_period_ms,
                seed_rng.gen(),
            );
            agent.push_on_change = self.push_ads_on_change;
            machines.push(agent);
        }

        let mut customers = Vec::with_capacity(self.users.len());
        let base_id = 1 + machines.len();
        for (i, user) in self.users.iter().enumerate() {
            let arrivals = user.generate(&mut seed_rng);
            customers.push(CustomerAgent::new(
                base_id + i,
                0,
                &user.name,
                arrivals,
                self.advertise_period_ms,
                (i as u64) << 32,
            ));
        }

        let mut licenses = Vec::with_capacity(self.licenses);
        let lic_base = base_id + customers.len();
        for i in 0..self.licenses {
            licenses.push(LicenseAgent::new(
                lic_base + i,
                0,
                &format!("{}-lic-{i}", self.license_product),
                &self.license_product,
                self.advertise_period_ms,
                seed_rng.gen(),
            ));
        }

        let mut gang_customers = Vec::with_capacity(self.gang_users.len());
        let gang_base = lic_base + licenses.len();
        for (i, spec) in self.gang_users.iter().enumerate() {
            let mut at: SimTime = 0;
            let arrivals: Vec<(SimTime, u64, i64)> = (0..spec.count)
                .map(|_| {
                    if spec.mean_interarrival_ms > 0.0 {
                        at = at.saturating_add(crate::workload::sample_exp(
                            &mut seed_rng,
                            spec.mean_interarrival_ms,
                        ));
                    }
                    let work =
                        crate::workload::sample_exp(&mut seed_rng, spec.mean_duration_ms).max(1000);
                    (at, work, spec.memory)
                })
                .collect();
            gang_customers.push(GangCustomerAgent::new(
                gang_base + i,
                0,
                &spec.user,
                &self.license_product,
                arrivals,
                self.advertise_period_ms,
                0x4000_0000_0000_0000u64 + ((i as u64) << 32),
            ));
        }

        Simulation::assemble_full(
            manager,
            machines,
            customers,
            licenses,
            gang_customers,
            self.network.clone(),
            SmallRng::seed_from_u64(self.seed ^ 0x5EED_F00D),
            self.total_jobs(),
            initially_present,
        )
    }

    /// Build, run to the duration budget (or drain), and summarize.
    pub fn run(&self) -> (Summary, Simulation) {
        let mut sim = self.build();
        sim.run_until(self.duration_ms);
        let elapsed: SimTime = self.duration_ms.min(sim.now().max(1));
        let summary = sim.metrics().summary(elapsed, self.fleet.count);
        (summary, sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_scenario() -> Scenario {
        Scenario {
            seed: 42,
            fleet: FleetSpec {
                count: 8,
                ..Default::default()
            },
            policy: PolicyConfig::Always,
            users: vec![UserSpec {
                mean_interarrival_ms: 10_000.0,
                mean_duration_ms: 120_000.0,
                arch_constraint_prob: 0.0,
                ..UserSpec::standard("alice", 10)
            }],
            network: NetworkModel::default(),
            advertise_period_ms: 30_000,
            negotiation_period_ms: 30_000,
            push_ads_on_change: true,
            negotiator: NegotiatorSettings::default(),
            duration_ms: 4 * 3_600 * 1000,
            ..Default::default()
        }
    }

    #[test]
    fn scenario_runs_and_completes_jobs() {
        let (summary, sim) = small_scenario().run();
        assert_eq!(summary.jobs_submitted, 10);
        assert_eq!(
            summary.jobs_completed, 10,
            "all jobs should finish: {summary:?}"
        );
        assert!(sim.drained());
        assert!(summary.mean_turnaround_ms > 0.0);
        assert!(sim.metrics().matches >= 10);
        assert!(sim.metrics().cycles > 0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let s = small_scenario();
        let (a, sim_a) = s.run();
        let (b, sim_b) = s.run();
        assert_eq!(a.jobs_completed, b.jobs_completed);
        assert_eq!(sim_a.metrics().matches, sim_b.metrics().matches);
        assert_eq!(sim_a.metrics().messages_sent, sim_b.metrics().messages_sent);
        assert_eq!(sim_a.events_processed(), sim_b.events_processed());
        assert!((a.mean_turnaround_ms - b.mean_turnaround_ms).abs() < 1e-9);
    }

    #[test]
    fn different_seeds_differ() {
        let s1 = small_scenario();
        let mut s2 = small_scenario();
        s2.seed = 43;
        let (_, sim1) = s1.run();
        let (_, sim2) = s2.run();
        assert_ne!(sim1.events_processed(), sim2.events_processed());
    }

    #[test]
    fn owner_idle_policy_slows_throughput() {
        // With owners frequently present and a 15-minute idle requirement,
        // fewer machine-hours are available than with dedicated nodes.
        let dedicated = small_scenario();
        let mut harvested = small_scenario();
        harvested.policy = PolicyConfig::OwnerIdle {
            min_keyboard_idle_s: 900,
        };
        harvested.fleet.activity.mean_active_ms = 30.0 * 60_000.0;
        harvested.fleet.activity.mean_away_ms = 30.0 * 60_000.0;
        let (a, _) = dedicated.run();
        let (b, _) = harvested.run();
        assert!(
            a.mean_turnaround_ms <= b.mean_turnaround_ms,
            "dedicated {} vs harvested {}",
            a.mean_turnaround_ms,
            b.mean_turnaround_ms
        );
    }

    #[test]
    fn scenario_serde_roundtrip() {
        // Scenarios are configuration files; they must survive
        // serialization.
        let s = small_scenario();
        let json = serde_json_like(&s);
        assert!(json.contains("fleet"));
    }

    /// Minimal smoke check that Serialize derives exist (serde_json is not
    /// an allowed dependency, so render through the Debug of the
    /// serde-ready struct).
    fn serde_json_like(s: &Scenario) -> String {
        format!("{s:?}")
    }

    #[test]
    fn lossy_network_still_drains() {
        let mut s = small_scenario();
        s.network = NetworkModel {
            base_latency_ms: 5,
            jitter_ms: 10,
            drop_prob: 0.05,
        };
        s.duration_ms = 8 * 3_600 * 1000;
        let (summary, sim) = s.run();
        assert!(sim.metrics().messages_dropped > 0, "drops should occur");
        assert_eq!(summary.jobs_completed, 10, "retries must recover losses");
    }
}
