//! A day in the life of a Condor-like pool: the paper's Figure 3 protocol
//! (advertise → match → notify → claim) running end to end in the
//! discrete-event simulator, with opportunistic desktop machines, three
//! competing users, preemption, and checkpointing.
//!
//! Run with: `cargo run --release --example condor_pool`

use condor_sim::scenario::{GangLoadSpec, NegotiatorSettings, PolicyConfig, Scenario};
use condor_sim::workload::{FleetSpec, MachineTemplate, OwnerActivity, UserSpec};
use condor_sim::NetworkModel;

fn main() {
    let scenario = Scenario {
        seed: 20260706,
        fleet: FleetSpec {
            count: 48,
            templates: vec![
                MachineTemplate::intel_solaris(),
                MachineTemplate::sparc_solaris(),
            ],
            activity: OwnerActivity {
                mean_active_ms: 25.0 * 60_000.0,
                mean_away_ms: 45.0 * 60_000.0,
                initially_present_prob: 0.5,
                day_length_ms: 24 * 3_600 * 1000,
                night_away_factor: 4.0,
            },
        },
        policy: PolicyConfig::OwnerIdle {
            min_keyboard_idle_s: 300,
        },
        users: vec![
            UserSpec {
                mean_interarrival_ms: 2.0 * 60_000.0,
                mean_duration_ms: 20.0 * 60_000.0,
                ..UserSpec::standard("raman", 40)
            },
            UserSpec {
                mean_interarrival_ms: 3.0 * 60_000.0,
                mean_duration_ms: 15.0 * 60_000.0,
                checkpoint_prob: 0.0, // no checkpointing: restarts waste work
                ..UserSpec::standard("miron", 30)
            },
            UserSpec {
                mean_interarrival_ms: 5.0 * 60_000.0,
                mean_duration_ms: 30.0 * 60_000.0,
                ..UserSpec::standard("solomon", 20)
            },
        ],
        network: NetworkModel {
            base_latency_ms: 2,
            jitter_ms: 5,
            drop_prob: 0.001,
        },
        advertise_period_ms: 60_000,
        negotiation_period_ms: 120_000,
        push_ads_on_change: true,
        negotiator: NegotiatorSettings {
            preemption: true,
            charge_per_match: 60.0,
            priority_halflife_ms: Some(3_600_000.0),
        },
        duration_ms: 24 * 3_600 * 1000, // one simulated day
        // Co-allocation load: gangs needing a machine AND a matlab seat.
        licenses: 3,
        gang_users: vec![GangLoadSpec {
            user: "jbasney".into(),
            count: 10,
            mean_interarrival_ms: 45.0 * 60_000.0,
            mean_duration_ms: 25.0 * 60_000.0,
            memory: 31,
        }],
        ..Default::default()
    };

    println!(
        "simulating {} machines, {} users, {} jobs, one virtual day...\n",
        scenario.fleet.count,
        scenario.users.len(),
        scenario.total_jobs()
    );

    let (summary, sim) = scenario.run();
    let m = sim.metrics();

    println!("==== pool activity ====");
    println!(
        "virtual time elapsed     : {:.1} h",
        sim.now() as f64 / 3_600_000.0
    );
    println!("events processed         : {}", sim.events_processed());
    println!("negotiation cycles       : {}", m.cycles);
    println!("matches handed out       : {}", m.matches);
    println!("claim attempts           : {}", m.claim_attempts);
    println!("claims accepted          : {}", m.claims_accepted);
    for (why, n) in &m.claims_rejected {
        println!("  rejected ({why}): {n}");
    }
    println!("vacated by owner return  : {}", m.vacated_by_owner);
    println!("preempted by rank        : {}", m.preempted_by_rank);
    println!(
        "gangs granted / aborted  : {} / {}",
        m.gangs_granted, m.gangs_aborted
    );
    println!(
        "messages sent / dropped  : {} / {}",
        m.messages_sent, m.messages_dropped
    );

    println!("\n==== throughput (the HTC view) ====");
    println!("jobs submitted           : {}", summary.jobs_submitted);
    println!("jobs completed           : {}", summary.jobs_completed);
    println!(
        "throughput               : {:.1} jobs/hour",
        summary.throughput_per_hour
    );
    println!(
        "mean wait                : {:.1} min",
        summary.mean_wait_ms / 60_000.0
    );
    println!(
        "mean turnaround          : {:.1} min",
        summary.mean_turnaround_ms / 60_000.0
    );
    println!(
        "machine utilization      : {:.1} %",
        summary.utilization * 100.0
    );
    println!(
        "goodput fraction         : {:.1} %",
        summary.goodput_fraction * 100.0
    );
    println!(
        "claim failure rate       : {:.1} %",
        summary.claim_failure_rate * 100.0
    );

    println!("\n==== per-user completed work (fair share) ====");
    let mut users: Vec<(&String, &u64)> = m.per_user_goodput.iter().collect();
    users.sort();
    for (user, work) in users {
        println!(
            "  {user:10} {:.1} reference-cpu-minutes",
            *work as f64 / 60_000.0
        );
    }
}
