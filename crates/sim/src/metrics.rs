//! Metrics collection: the quantities a high-throughput system is judged
//! by (paper §1: "trillions of instructions per year", not instantaneous
//! MIPS).

use crate::engine::SimTime;
use crate::trace::TraceLog;
use matchmaker::protocol::ClaimRejection;
use std::collections::HashMap;

/// Per-job completion record.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Job id.
    pub id: u64,
    /// Owning user.
    pub owner: String,
    /// Submission time.
    pub submitted_at: SimTime,
    /// First time the job started running, if it ever ran.
    pub first_start: Option<SimTime>,
    /// Completion time.
    pub completed_at: SimTime,
    /// Service demand (reference-speed ms).
    pub work_ms: u64,
    /// Times vacated before completing.
    pub vacations: u32,
    /// Work thrown away by non-checkpointed restarts (reference ms).
    pub wasted_ms: u64,
}

/// Counter set accumulated during a simulation run.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    /// Jobs submitted.
    pub jobs_submitted: u64,
    /// Jobs completed (with records in `completed`).
    pub jobs_completed: u64,
    /// Completion records.
    pub completed: Vec<JobRecord>,
    /// Matches handed out by the negotiator.
    pub matches: u64,
    /// Negotiation cycles run.
    pub cycles: u64,
    /// Total requests considered across cycles.
    pub requests_considered: u64,
    /// Requests that found no offer, across cycles.
    pub unmatched_requests: u64,
    /// Request equivalence classes formed by autoclustering, across cycles.
    pub clusters_formed: u64,
    /// Requests served from a cluster's cached match list, across cycles.
    pub matchlist_hits: u64,
    /// Full offer-pool scans performed by the negotiator, across cycles.
    pub full_scans: u64,
    /// Claim requests sent by customers.
    pub claim_attempts: u64,
    /// Claims accepted by providers.
    pub claims_accepted: u64,
    /// Claim rejections by cause.
    pub claims_rejected: HashMap<String, u64>,
    /// Jobs vacated because the workstation owner returned.
    pub vacated_by_owner: u64,
    /// Jobs vacated by a higher-ranked customer (priority preemption).
    pub preempted_by_rank: u64,
    /// Messages handed to the network.
    pub messages_sent: u64,
    /// Messages the network dropped.
    pub messages_dropped: u64,
    /// Total machine-claimed milliseconds (occupancy).
    pub busy_ms: u64,
    /// Completed useful work (reference-speed ms).
    pub goodput_ms: u64,
    /// Work wasted by restarts (reference-speed ms).
    pub badput_ms: u64,
    /// Per-user completed-work accounting (reference ms).
    pub per_user_goodput: HashMap<String, u64>,
    /// Gang (co-allocation) requests granted by the gang matcher.
    pub gangs_granted: u64,
    /// Gang negotiation attempts that found no complete assignment.
    pub gangs_unmatched: u64,
    /// Gangs aborted at claim time (some port's claim was rejected; the
    /// already-claimed ports were released — co-allocation is atomic).
    pub gangs_aborted: u64,
    /// Optional protocol-event trace (see [`crate::trace`]).
    pub trace: TraceLog,
}

impl Metrics {
    /// Record a claim rejection.
    pub fn claim_rejected(&mut self, why: ClaimRejection) {
        *self.claims_rejected.entry(why.to_string()).or_insert(0) += 1;
    }

    /// Total rejected claims.
    pub fn claims_rejected_total(&self) -> u64 {
        self.claims_rejected.values().sum()
    }

    /// Record a completed job.
    pub fn job_completed(&mut self, rec: JobRecord) {
        self.jobs_completed += 1;
        self.goodput_ms += rec.work_ms;
        self.badput_ms += rec.wasted_ms;
        *self.per_user_goodput.entry(rec.owner.clone()).or_insert(0) += rec.work_ms;
        self.completed.push(rec);
    }

    /// Export the counters as a `condor_obs` metrics snapshot under the
    /// shared schema ([`condor_obs::schema`]): the simulator reports the
    /// same metric names the live pool publishes, so analysis tooling
    /// reads both through one vocabulary. Sim-only quantities (goodput,
    /// vacations, gangs) keep their own `snake_case` names alongside.
    pub fn to_obs_snapshot(&self) -> condor_obs::MetricsSnapshot {
        use condor_obs::schema;
        let mut s = condor_obs::MetricsSnapshot::default();
        let mut c = |name: &str, v: u64| {
            s.counters.insert(name.to_string(), v);
        };
        c(schema::JOBS_SUBMITTED, self.jobs_submitted);
        c(schema::JOBS_COMPLETED, self.jobs_completed);
        c(schema::MATCHES, self.matches);
        c(schema::CYCLES, self.cycles);
        c(schema::REQUESTS_CONSIDERED, self.requests_considered);
        c(schema::UNMATCHED_REQUESTS, self.unmatched_requests);
        c(schema::CLUSTERS_FORMED, self.clusters_formed);
        c(schema::MATCHLIST_HITS, self.matchlist_hits);
        c(schema::FULL_SCANS, self.full_scans);
        c(schema::CLAIM_ATTEMPTS, self.claim_attempts);
        c(schema::CLAIMS_ACCEPTED, self.claims_accepted);
        c(schema::CLAIMS_REJECTED, self.claims_rejected_total());
        c("vacated_by_owner", self.vacated_by_owner);
        c("preempted_by_rank", self.preempted_by_rank);
        c("messages_sent", self.messages_sent);
        c("messages_dropped", self.messages_dropped);
        c("busy_ms", self.busy_ms);
        c("goodput_ms", self.goodput_ms);
        c("badput_ms", self.badput_ms);
        c("gangs_granted", self.gangs_granted);
        c("gangs_unmatched", self.gangs_unmatched);
        c("gangs_aborted", self.gangs_aborted);
        s
    }

    /// The run's stats classad (`MyType == "SimulatorStats"`,
    /// `DaemonAd = true`): the simulator's answer to the live daemons'
    /// self-ads, rendered from [`Metrics::to_obs_snapshot`]. `name` labels
    /// the run; `elapsed` is the simulated time covered.
    pub fn stats_ad(&self, name: &str, elapsed: SimTime) -> classad::ClassAd {
        let mut ad = condor_obs::self_ad(
            name,
            condor_obs::schema::SIMULATOR_STATS,
            elapsed / 1000,
            &self.to_obs_snapshot(),
        );
        ad.set_int("ElapsedMs", elapsed as i64);
        ad
    }

    /// Derive the headline summary for a run that covered `elapsed` ms on
    /// `machines` machines.
    pub fn summary(&self, elapsed: SimTime, machines: usize) -> Summary {
        let n = self.completed.len().max(1) as f64;
        let mean_wait = self
            .completed
            .iter()
            .map(|r| {
                r.first_start
                    .unwrap_or(r.completed_at)
                    .saturating_sub(r.submitted_at)
            })
            .sum::<u64>() as f64
            / n;
        let mean_turnaround = self
            .completed
            .iter()
            .map(|r| r.completed_at.saturating_sub(r.submitted_at))
            .sum::<u64>() as f64
            / n;
        let capacity_ms = (elapsed as u128 * machines as u128) as f64;
        Summary {
            jobs_submitted: self.jobs_submitted,
            jobs_completed: self.jobs_completed,
            throughput_per_hour: if elapsed > 0 {
                self.jobs_completed as f64 * 3_600_000.0 / elapsed as f64
            } else {
                0.0
            },
            mean_wait_ms: mean_wait,
            mean_turnaround_ms: mean_turnaround,
            utilization: if capacity_ms > 0.0 {
                self.busy_ms as f64 / capacity_ms
            } else {
                0.0
            },
            goodput_fraction: if self.goodput_ms + self.badput_ms > 0 {
                self.goodput_ms as f64 / (self.goodput_ms + self.badput_ms) as f64
            } else {
                1.0
            },
            claim_failure_rate: if self.claim_attempts > 0 {
                self.claims_rejected_total() as f64 / self.claim_attempts as f64
            } else {
                0.0
            },
            preemptions: self.vacated_by_owner + self.preempted_by_rank,
        }
    }
}

/// Headline numbers derived from [`Metrics`].
#[derive(Debug, Clone)]
pub struct Summary {
    /// Jobs submitted.
    pub jobs_submitted: u64,
    /// Jobs completed.
    pub jobs_completed: u64,
    /// Completed jobs per hour of simulated time.
    pub throughput_per_hour: f64,
    /// Mean queue wait (submission → first start), ms.
    pub mean_wait_ms: f64,
    /// Mean turnaround (submission → completion), ms.
    pub mean_turnaround_ms: f64,
    /// Fraction of machine-time claimed.
    pub utilization: f64,
    /// goodput / (goodput + badput).
    pub goodput_fraction: f64,
    /// Fraction of claim attempts rejected.
    pub claim_failure_rate: f64,
    /// Total vacate/preemption events.
    pub preemptions: u64,
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    fn rec(
        id: u64,
        owner: &str,
        sub: SimTime,
        start: SimTime,
        done: SimTime,
        work: u64,
    ) -> JobRecord {
        JobRecord {
            id,
            owner: owner.into(),
            submitted_at: sub,
            first_start: Some(start),
            completed_at: done,
            work_ms: work,
            vacations: 0,
            wasted_ms: 0,
        }
    }

    #[test]
    fn completion_updates_aggregates() {
        let mut m = Metrics::default();
        m.jobs_submitted = 2;
        m.job_completed(rec(1, "alice", 0, 100, 1100, 1000));
        m.job_completed(rec(2, "bob", 0, 300, 2300, 2000));
        assert_eq!(m.jobs_completed, 2);
        assert_eq!(m.goodput_ms, 3000);
        assert_eq!(m.per_user_goodput["alice"], 1000);
        let s = m.summary(10_000, 2);
        assert_eq!(s.jobs_completed, 2);
        assert!((s.mean_wait_ms - 200.0).abs() < 1e-9);
        assert!((s.mean_turnaround_ms - 1700.0).abs() < 1e-9);
    }

    #[test]
    fn goodput_fraction_accounts_waste() {
        let mut m = Metrics::default();
        let mut r = rec(1, "a", 0, 0, 100, 900);
        r.wasted_ms = 100;
        m.job_completed(r);
        let s = m.summary(1000, 1);
        assert!((s.goodput_fraction - 0.9).abs() < 1e-9);
    }

    #[test]
    fn claim_rejection_counters() {
        let mut m = Metrics::default();
        m.claim_attempts = 4;
        m.claim_rejected(ClaimRejection::BadTicket);
        m.claim_rejected(ClaimRejection::ConstraintFailed);
        m.claim_rejected(ClaimRejection::ConstraintFailed);
        assert_eq!(m.claims_rejected_total(), 3);
        let s = m.summary(1, 1);
        assert!((s.claim_failure_rate - 0.75).abs() < 1e-9);
    }

    #[test]
    fn utilization_and_throughput() {
        let mut m = Metrics::default();
        m.busy_ms = 5_000;
        for i in 0..6 {
            m.job_completed(rec(i, "a", 0, 0, 100, 10));
        }
        let s = m.summary(3_600_000, 10);
        assert!((s.throughput_per_hour - 6.0).abs() < 1e-9);
        assert!((s.utilization - 5_000.0 / 36_000_000.0).abs() < 1e-12);
    }

    #[test]
    fn obs_export_uses_the_shared_schema() {
        let mut m = Metrics::default();
        m.jobs_submitted = 5;
        m.cycles = 3;
        m.matches = 4;
        m.claim_attempts = 4;
        m.claims_accepted = 3;
        m.claim_rejected(ClaimRejection::BadTicket);
        let snap = m.to_obs_snapshot();
        assert_eq!(snap.counter(condor_obs::schema::CYCLES), 3);
        assert_eq!(snap.counter(condor_obs::schema::CLAIMS_ACCEPTED), 3);
        assert_eq!(snap.counter(condor_obs::schema::CLAIMS_REJECTED), 1);
        // The stats ad renders, is marked, and round-trips the schema tag.
        let ad = m.stats_ad("sim-run", 10_000);
        assert!(condor_obs::is_daemon_ad(&ad));
        assert_eq!(
            ad.get_string("MyType"),
            Some(condor_obs::schema::SIMULATOR_STATS)
        );
        assert_eq!(ad.get_int("Cycles"), Some(3));
        assert_eq!(ad.get_int("JobsSubmitted"), Some(5));
        assert_eq!(ad.get_int("ElapsedMs"), Some(10_000));
    }

    #[test]
    fn empty_metrics_summary_is_sane() {
        let m = Metrics::default();
        let s = m.summary(0, 0);
        assert_eq!(s.jobs_completed, 0);
        assert_eq!(s.throughput_per_hour, 0.0);
        assert_eq!(s.claim_failure_rate, 0.0);
        assert_eq!(s.goodput_fraction, 1.0);
    }
}
