//! The five workloads: what each runs, why it exists, and the common
//! shape of what a live run hands back.

pub mod ingest;
pub mod query;
pub mod txn;

use crate::driver::{cpu_seconds, Net, Phases, ThreadLog, SLICES};
use crate::pool::{LivePool, PoolSpec, Serving};
use condor_pool::{DaemonStatsSnapshot, MatchmakerDaemon};
use std::time::Duration;

/// One of the five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop, 100 jobs/s against 64 real resource agents.
    Fig3Paced,
    /// Closed loop, 32 jobs outstanding on a 64-machine farm.
    Fig3Saturated,
    /// Closed loop, 32 jobs outstanding on an 8 192-machine farm.
    BigPool,
    /// Closed loop of ad updates: one streaming sender, one
    /// connection-per-ad sender.
    AdIngest,
    /// Closed loop of status queries beside 1 000 renewals/s.
    StatusQuery,
}

/// Jobs a closed transaction loop keeps outstanding.
pub const OUTSTANDING_JOBS: usize = 32;

/// Job arrival rate of `fig3_paced`.
pub const PACED_JOBS_PER_S: u64 = 100;

/// Background renewal rate of `status_query`.
pub const RENEWALS_PER_S: u64 = 1000;

impl Workload {
    /// All workloads, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::Fig3Paced,
        Workload::Fig3Saturated,
        Workload::BigPool,
        Workload::AdIngest,
        Workload::StatusQuery,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig3Paced => "fig3_paced",
            Workload::Fig3Saturated => "fig3_saturated",
            Workload::BigPool => "big_pool",
            Workload::AdIngest => "ad_ingest",
            Workload::StatusQuery => "status_query",
        }
    }

    /// Parse a `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one *operation* is: the unit of `op_p50_ms`, `ops_per_s`,
    /// `cpu_ms_per_op`, `attempted` and `failed`.
    pub fn op(self) -> &'static str {
        match self {
            Workload::Fig3Paced | Workload::Fig3Saturated | Workload::BigPool => {
                "one job placed: advertise -> match -> notify -> accepted claim"
            }
            Workload::AdIngest => {
                "one machine ad re-advertised and handled (latency: one streamed 64-ad batch)"
            }
            Workload::StatusQuery => "one status query: connect -> full reply decoded",
        }
    }

    /// Whether the generator is open-loop (and so gated on lateness and
    /// occupancy).
    pub fn open_loop(self) -> bool {
        matches!(self, Workload::Fig3Paced | Workload::StatusQuery)
    }

    /// The pool this workload runs against. `machines` overrides the pool
    /// size (the smoke test shrinks `big_pool`).
    pub fn pool(self, machines: Option<usize>) -> PoolSpec {
        let (size, shapes, cycle_ms, serving) = match self {
            Workload::Fig3Paced => (64, 8, 5, Serving::Agents),
            Workload::Fig3Saturated => (64, 8, 1, Serving::Farm),
            Workload::BigPool => (8192, 64, 50, Serving::Farm),
            Workload::AdIngest | Workload::StatusQuery => (4096, 8, 1000, Serving::Static),
        };
        PoolSpec {
            machines: machines.unwrap_or(size),
            shapes,
            cycle_interval: Duration::from_millis(cycle_ms),
            serving,
        }
    }

    /// How many times a run brings its pool up; `setup_s` is the median.
    /// Most often where one set-up is a few milliseconds and the host's
    /// scheduling noise is as large as the thing measured.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::Fig3Saturated => 31,
            Workload::BigPool | Workload::AdIngest | Workload::StatusQuery => 7,
            Workload::Fig3Paced => 5,
        }
    }

    /// How long after the window a job may still be placed before it
    /// counts as failed.
    pub fn placement_deadline(self) -> Duration {
        match self {
            Workload::BigPool => Duration::from_secs(30),
            _ => Duration::from_secs(5),
        }
    }
}

/// Process CPU and daemon counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When, ns since the run began.
    pub t_ns: u64,
    /// Process CPU seconds so far.
    pub cpu_s: f64,
    /// The daemon's counters.
    pub daemon: DaemonStatsSnapshot,
}

/// Takes a [`Sample`] at every slice edge of the measured window. The
/// main driver thread polls it from its loop.
#[derive(Debug)]
pub struct Sampler<'a> {
    daemon: &'a MatchmakerDaemon,
    phases: Phases,
    samples: Vec<Sample>,
}

impl<'a> Sampler<'a> {
    /// A sampler for this run.
    pub fn new(daemon: &'a MatchmakerDaemon, phases: Phases) -> Self {
        Sampler {
            daemon,
            phases,
            samples: Vec::new(),
        }
    }

    /// The next slice edge not yet sampled, if any.
    fn next_edge(&self) -> Option<u64> {
        let k = self.samples.len() as u64;
        (k <= SLICES).then(|| self.phases.slice_start(k))
    }

    /// Sample if `now_ns` has crossed slice edges not yet sampled (one
    /// sample stands for all of them: a driver thread that was away for
    /// several slices leaves that many fewer, longer ones).
    pub fn poll(&mut self, now_ns: u64) {
        if self.next_edge().is_some_and(|edge| now_ns >= edge) {
            let sample = Sample {
                t_ns: now_ns,
                cpu_s: cpu_seconds(),
                daemon: self.daemon.stats(),
            };
            while self.next_edge().is_some_and(|edge| now_ns >= edge) {
                self.samples.push(sample);
            }
        }
    }

    /// Sleep from edge to edge through the whole window, sampling at each.
    pub fn sleep_through_window(&mut self) {
        while let Some(edge) = self.next_edge() {
            let now = self.phases.sleep_until(edge);
            self.poll(now);
        }
    }

    /// Sleep from edge to edge until `t_ns`, sampling at each edge passed.
    pub fn sleep_until(&mut self, t_ns: u64) {
        while let Some(edge) = self.next_edge().filter(|&e| e <= t_ns) {
            let now = self.phases.sleep_until(edge);
            self.poll(now);
        }
        self.phases.sleep_until(t_ns);
    }

    /// The samples, one per slice edge. Panics if the run ended before the
    /// window did — every runner polls past `end_ns` before it returns.
    pub fn finish(self) -> Vec<Sample> {
        assert_eq!(self.samples.len() as u64, SLICES + 1, "window end sampled");
        self.samples
    }
}

/// A named number with its unit.
pub type Metric = (String, f64, &'static str);

/// What a live run hands back for analysis.
#[derive(Debug)]
pub struct LiveRun {
    /// Both driver threads' logs, merged.
    pub log: ThreadLog,
    /// Busy time inside the window of the busier driver thread — of the
    /// open-loop generator's threads where there is one — in ns.
    pub busy_ns: u64,
    /// One sample per slice edge of the window.
    pub samples: Vec<Sample>,
    /// Workload-specific per-layer numbers measured live.
    pub extras: Vec<Metric>,
}

/// Run `workload` for the phases' window against a pool that is up.
pub fn run_live(workload: Workload, pool: &mut LivePool, phases: Phases, net: &Net) -> LiveRun {
    match workload {
        Workload::Fig3Paced => txn::run_paced(pool, phases, net),
        Workload::Fig3Saturated | Workload::BigPool => txn::run_closed(pool, phases, net, workload),
        Workload::AdIngest => ingest::run(pool, phases, net),
        Workload::StatusQuery => query::run(pool, phases, net),
    }
}
