//! The Fig. 3 transaction workloads: the driver is the customer.
//!
//! It advertises a job, its listener takes the matchmaker's `Notify`,
//! claims the matched machine — over the wire from a real resource agent
//! (`fig3_paced`) or in process from the farm (`fig3_saturated`,
//! `big_pool`) — and releases it. A job's latency runs from its due
//! instant (open loop) or its submission (closed loop) to the accepted
//! claim.

use super::{LiveRun, Metric, Sampler, Workload, OUTSTANDING_JOBS, PACED_JOBS_PER_S};
use crate::driver::{median_ms, median_us, wait_until, Done, Net, Phases, SpanName, ThreadLog};
use crate::gen::{job_index, machine_index, machine_name, Inputs};
use crate::pool::{customer_adv, Farm, LivePool, Providers};
use classad::{symmetric_match, EvalPolicy, MatchConventions};
use condor_pool::MatchmakerDaemon;
use matchmaker::protocol::{ClaimRequest, EntityKind, MatchNotification, Message, TraceContext};
use matchmaker::Ticket;
use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Upper bound on the jobs/s a closed loop is sized for; the per-job
/// tables are allocated up front from it.
const MAX_CLOSED_JOBS_PER_S: u64 = 20_000;

/// Most advertisements a closed loop leaves un-stored at the matchmaker
/// before it waits. The driver fires them one connection each, as agents
/// do, and the store is locked against writers while a cycle scans it:
/// without a bound the matchmaker's connection threads pile up behind the
/// lock to its connection limit, and it refuses — and loses — an ad.
const MAX_UNSTORED_ADS: u64 = 16;

/// How long the closed loop waits for its in-flight ads to settle before
/// it writes them off (far longer than any negotiation cycle).
const LOST_AD_LIMIT: Duration = Duration::from_secs(10);

/// How long a paced job may stay unplaced before it is advertised again.
const READVERTISE_NS: u64 = 1_000_000_000;

/// Period of the by-name probe query a traced `big_pool` run issues.
const PROBE_QUERY_PERIOD: Duration = Duration::from_millis(200);

/// State the two driver threads share: per-job instants, written by
/// whichever thread submits the job and read by the listener when the
/// job's `Notify` arrives. `Relaxed` suffices — each cell publishes only
/// its own value, and the `Notify` reaches the reader through the kernel
/// long after the write.
struct JobTable {
    /// When each job's latency clock started (due or submit instant).
    start_ns: Vec<AtomicU64>,
    /// When each job's advertisement had been sent.
    submitted_ns: Vec<AtomicU64>,
    /// Whether each job's claim has been accepted.
    placed: Vec<AtomicBool>,
}

impl JobTable {
    fn new(jobs: usize) -> JobTable {
        let cells = || (0..jobs).map(|_| AtomicU64::new(0)).collect();
        JobTable {
            start_ns: cells(),
            submitted_ns: cells(),
            placed: (0..jobs).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    fn len(&self) -> usize {
        self.start_ns.len()
    }
}

/// What the driver needs to submit jobs, from either thread.
#[derive(Clone, Copy)]
struct Submitter<'a> {
    /// Closed loops only: the matchmaker and its count of settled
    /// (admitted or rejected) ads when the loop began. Nobody else
    /// advertises there, so sent minus settled is what is still in flight.
    admitted: Option<(&'a MatchmakerDaemon, u64)>,
    net: &'a Net,
    phases: &'a Phases,
    inputs: &'a Inputs,
    daemon: &'a str,
    contact: &'a str,
    jobs: &'a JobTable,
}

impl Submitter<'_> {
    /// Send one advertisement to the matchmaker on its own connection,
    /// first waiting while too many earlier ones are not yet stored. `sent`
    /// counts this sender's advertisements.
    fn advertise(&self, msg: &Message, trace: Option<&TraceContext>, sent: &mut u64) -> bool {
        if let Some((daemon, base)) = self.admitted {
            let settled = || {
                let s = daemon.service().stats();
                s.ads_accepted + s.ads_rejected - base
            };
            let waiting = Instant::now();
            while sent.saturating_sub(settled()) >= MAX_UNSTORED_ADS {
                // An ad lost on the way never settles: stop counting it.
                if waiting.elapsed() > LOST_AD_LIMIT {
                    *sent = settled();
                    break;
                }
                std::thread::yield_now();
            }
        }
        *sent += 1;
        self.net.oneway(self.daemon, msg, trace).is_ok()
    }

    /// Advertise job `k`; its latency clock starts at `start_ns`.
    fn submit(&self, k: usize, start_ns: u64, log: &mut ThreadLog, sent: &mut u64) {
        let t0 = self.phases.now();
        self.jobs.start_ns[k].store(start_ns.min(t0), Ordering::Relaxed);
        let trace = TraceContext {
            trace_id: k as u64 + 1,
            parent_span_id: 0,
        };
        let job = customer_adv(self.inputs.job_ad(k), self.contact);
        if !self.advertise(&job, Some(&trace), sent) {
            log.failed += 1;
        }
        let t1 = self.phases.now();
        self.jobs.submitted_ns[k].store(t1, Ordering::Relaxed);
        log.span(self.phases, SpanName::Submit, k as u64, t0, t1);
    }
}

/// How the listener claims and releases a matched machine.
enum Claimer<'a> {
    /// Dial the machine's resource agent.
    Wire,
    /// Ask the farm in process, then re-advertise the machine as its
    /// agent would.
    Farm(&'a mut Farm),
}

/// The listener/claimer thread's state.
struct Customer<'a> {
    submitter: Submitter<'a>,
    claimer: Claimer<'a>,
    log: ThreadLog,
    /// `(job, machine)` of every accepted claim, re-checked after the run.
    pairs: Vec<(u32, u32)>,
    /// Closed loop only: the next job to submit, and whether the window
    /// has ended so no more are submitted.
    next_job: usize,
    draining: bool,
    /// Jobs whose claim has not been accepted yet.
    outstanding: usize,
    /// Advertisements this thread has sent the matchmaker.
    sent: u64,
    /// Claim and release durations while tracing, ns.
    claim_ns: Vec<u64>,
    release_ns: Vec<u64>,
}

impl<'a> Customer<'a> {
    fn new(submitter: Submitter<'a>, claimer: Claimer<'a>) -> Self {
        Customer {
            submitter,
            claimer,
            log: ThreadLog::default(),
            pairs: Vec::new(),
            next_job: 0,
            draining: false,
            outstanding: 0,
            sent: 0,
            claim_ns: Vec::new(),
            release_ns: Vec::new(),
        }
    }

    fn closed_loop(&self) -> bool {
        matches!(self.claimer, Claimer::Farm(_))
    }

    fn submit_next(&mut self) {
        if self.next_job >= self.submitter.jobs.len() {
            self.draining = true;
            return;
        }
        let k = self.next_job;
        self.next_job += 1;
        self.outstanding += 1;
        self.log.attempted += 1;
        let now = self.submitter.phases.now();
        self.submitter.submit(k, now, &mut self.log, &mut self.sent);
    }

    /// Claim the machine a `Notify` names; `Some(accepted)` unless the
    /// provider could not be reached.
    fn claim(&mut self, machine: usize, contact: &str, req: ClaimRequest) -> Option<bool> {
        match &mut self.claimer {
            Claimer::Wire => match self
                .submitter
                .net
                .request_reply(contact, &Message::Claim(req))
            {
                Ok(Message::ClaimReply(r)) => Some(r.accepted),
                _ => None,
            },
            Claimer::Farm(farm) => {
                let (resp, was_claimed) = farm.claim(machine, &req);
                if resp.accepted && was_claimed {
                    self.log
                        .violations
                        .push(format!("machine {machine} accepted a claim while claimed"));
                }
                Some(resp.accepted)
            }
        }
    }

    fn release(&mut self, machine: usize, contact: &str) {
        let released = match &mut self.claimer {
            Claimer::Wire => {
                let release = Message::Release {
                    ticket: Ticket::from_raw(0),
                };
                self.submitter.net.oneway(contact, &release, None).is_ok()
            }
            Claimer::Farm(farm) => {
                farm.release(machine);
                self.submitter
                    .advertise(&farm.advertise(machine), None, &mut self.sent)
            }
        };
        if !released {
            self.log.failed += 1;
        }
    }

    /// One customer-side `Notify`: claim, record, release, and — in a
    /// closed loop — submit the next job.
    fn on_notify(&mut self, note: MatchNotification, t_notify: u64) {
        let phases = self.submitter.phases;
        let ids = (
            note.own_ad.get_string("Name").and_then(job_index),
            note.peer_ad.get_string("Name").and_then(machine_index),
            note.ticket,
        );
        let (Some(k), Some(machine), Some(ticket)) = ids else {
            self.log
                .violations
                .push("a Notify named no job, machine or ticket".into());
            return;
        };
        let jobs = self.submitter.jobs;
        if k >= jobs.len() {
            self.log
                .violations
                .push(format!("Notify for unknown job {k}"));
            return;
        }
        // A re-advertised job can be matched twice; like a customer agent,
        // decline the second match (its machine re-advertises on its own).
        if jobs.placed[k].load(Ordering::Relaxed) {
            return;
        }
        let txn = k as u64;
        let submitted = jobs.submitted_ns[k].load(Ordering::Relaxed);
        self.log
            .span(phases, SpanName::QueueToNotify, txn, submitted, t_notify);
        let req = ClaimRequest {
            ticket,
            customer_ad: note.own_ad,
            customer_contact: self.submitter.contact.into(),
        };
        let accepted = self.claim(machine, &note.peer_contact, req);
        let t_claimed = phases.now();
        self.log
            .span(phases, SpanName::Claim, txn, t_notify, t_claimed);
        if phases.tracing(t_notify) {
            self.claim_ns.push(t_claimed - t_notify);
        }
        if accepted != Some(true) {
            // A stale match (the agent re-advertised between match and
            // claim) costs a rejected claim, never a wrong allocation:
            // the job goes back to the matchmaker and keeps its clock.
            match accepted {
                Some(_) => self.log.readvertised += 1,
                None => self.log.failed += 1,
            }
            let start = jobs.start_ns[k].load(Ordering::Relaxed);
            self.submitter
                .submit(k, start, &mut self.log, &mut self.sent);
            return;
        }
        jobs.placed[k].store(true, Ordering::Relaxed);
        self.outstanding -= 1;
        self.pairs.push((k as u32, machine as u32));
        self.log.done.push(Done {
            t_ns: t_claimed,
            weight: 1,
            latency_ns: Some(t_claimed - jobs.start_ns[k].load(Ordering::Relaxed)),
        });
        self.release(machine, &note.peer_contact);
        let t_released = phases.now();
        self.log
            .span(phases, SpanName::Release, txn, t_claimed, t_released);
        if phases.tracing(t_claimed) {
            self.release_ns.push(t_released - t_claimed);
        }
        if self.closed_loop() {
            // The window's far edge snaps to the first completion past
            // its nominal end; after that nothing new is submitted.
            if t_claimed >= phases.end_ns {
                self.draining = true;
            }
            if !self.draining {
                self.submit_next();
            }
        }
    }

    /// Serve the listener until `finished` says every job is placed or
    /// the main thread raises `stop` (and pokes the listener awake).
    fn serve(
        &mut self,
        listener: &TcpListener,
        stop: &AtomicBool,
        finished: impl Fn(&Customer) -> bool,
    ) {
        let phases = self.submitter.phases;
        while !finished(self) && !stop.load(Ordering::SeqCst) {
            let msg = self.submitter.net.accept_message(listener);
            let t = phases.now();
            // The provider-side copy of each notification is
            // informational, as it is for a real resource agent.
            if let Some(Message::Notify(note)) = msg {
                if note.own_ad.get_string("Type") == Some("Job") {
                    self.on_notify(note, t);
                }
            }
            self.log.busy(phases, t, phases.now());
        }
    }
}

/// After the run: every accepted claim's two ads must match both ways
/// (machine ads never change during a transaction run), and every job
/// the driver submitted must have been placed — exactly once, since the
/// listener claims for a job only while it is unplaced.
fn check_placements(customer: &mut Customer, submitted: usize) {
    let (policy, conv) = (EvalPolicy::default(), MatchConventions::default());
    let inputs = customer.submitter.inputs;
    for &(k, m) in &customer.pairs {
        let job = inputs.job_ad(k as usize);
        if !symmetric_match(&job, &inputs.machines[m as usize], &policy, &conv) {
            customer.log.violations.push(format!(
                "job {k} was placed on machine {m}, which it does not match"
            ));
        }
    }
    let unplaced = customer.submitter.jobs.placed[..submitted]
        .iter()
        .filter(|p| !p.load(Ordering::Relaxed))
        .count();
    customer.log.failed += unplaced as u64;
}

/// Raise `stop` once the listener has `finished` or `limit` has passed,
/// and wake it from `accept` so it sees the flag.
fn stop_listener(finished: &AtomicBool, stop: &AtomicBool, limit: Duration, contact: &str) {
    wait_until(limit, || finished.load(Ordering::SeqCst));
    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(contact);
}

/// `fig3_paced`: open loop, 100 jobs/s, each timed from its due instant,
/// against 64 real resource agents heart-beating every 250 ms.
pub fn run_paced(pool: &mut LivePool, phases: Phases, net: &Net) -> LiveRun {
    let period_ns = 1_000_000_000 / PACED_JOBS_PER_S;
    let total_jobs = (phases.end_ns / period_ns) as usize;
    let jobs = JobTable::new(total_jobs);
    let (stop, finished) = (AtomicBool::new(false), AtomicBool::new(false));
    let pacer = Submitter {
        admitted: None,
        net,
        phases: &phases,
        inputs: &pool.inputs,
        daemon: &pool.addr,
        contact: &pool.contact,
        jobs: &jobs,
    };
    let mut customer = Customer::new(pacer, Claimer::Wire);
    customer.outstanding = total_jobs;
    let (mut pacer_log, mut pacer_sent) = (ThreadLog::default(), 0u64);
    let mut sampler = Sampler::new(&pool.daemon, phases);
    std::thread::scope(|scope| {
        let listener = &pool.listener;
        let (customer, stop, finished) = (&mut customer, &stop, &finished);
        scope.spawn(move || {
            customer.serve(listener, stop, |c| c.outstanding == 0);
            finished.store(true, Ordering::SeqCst);
        });

        // Like a customer agent's heartbeat: a job still unplaced a second
        // after it was last advertised is advertised again, keeping its
        // clock. (A connection the daemon refuses loses the ad on it.)
        type Recheck = VecDeque<(u64, usize)>;
        let readvertise = |recheck: &mut Recheck, now: u64, log: &mut ThreadLog, sent: &mut u64| {
            while recheck.front().is_some_and(|&(at, _)| at <= now) {
                let (_, k) = recheck.pop_front().expect("front was checked");
                if !jobs.placed[k].load(Ordering::Relaxed) {
                    log.readvertised += 1;
                    let start = jobs.start_ns[k].load(Ordering::Relaxed);
                    pacer.submit(k, start, log, sent);
                    recheck.push_back((now + READVERTISE_NS, k));
                }
            }
        };
        let mut recheck = Recheck::new();
        for k in 0..total_jobs {
            let due = k as u64 * period_ns;
            let t0 = phases.sleep_until(due);
            sampler.poll(t0);
            if due >= phases.measure_ns {
                pacer_log.late_ns.push((due, t0 - due));
            }
            pacer_log.attempted += 1;
            pacer.submit(k, due, &mut pacer_log, &mut pacer_sent);
            recheck.push_back((due + READVERTISE_NS, k));
            readvertise(&mut recheck, t0, &mut pacer_log, &mut pacer_sent);
            pacer_log.busy(&phases, t0, phases.now());
        }
        sampler.sleep_through_window();
        wait_until(Workload::Fig3Paced.placement_deadline(), || {
            readvertise(&mut recheck, phases.now(), &mut pacer_log, &mut pacer_sent);
            finished.load(Ordering::SeqCst)
        });
        stop_listener(finished, stop, Duration::ZERO, &pool.contact);
    });

    let Providers::Agents(agents) = &pool.providers else {
        unreachable!("fig3_paced runs against real agents")
    };
    check_placements(&mut customer, total_jobs);
    // Releases are one-way: give the agents a moment to take the last.
    let unreleased = |a: &condor_pool::ResourceAgent| {
        let s = a.stats();
        s.claims_accepted != s.releases
    };
    wait_until(Duration::from_secs(2), || !agents.iter().any(unreleased));
    for a in agents.iter().filter(|a| unreleased(a)) {
        let s = a.stats();
        customer.log.violations.push(format!(
            "{} accepted {} claims but saw {} releases",
            a.name(),
            s.claims_accepted,
            s.releases
        ));
    }
    let ra_rejected: u64 = agents.iter().map(|a| a.stats().claims_rejected).sum();

    let extras: Vec<Metric> = vec![
        (
            "pool.resource.claim_rtt_us".into(),
            median_us(customer.claim_ns),
            "us",
        ),
        (
            "pool.resource.release_us".into(),
            median_us(customer.release_ns),
            "us",
        ),
        (
            "pool.resource.claims_rejected".into(),
            ra_rejected as f64,
            "count",
        ),
    ];
    let busy_ns = pacer_log.busy_ns.max(customer.log.busy_ns);
    let mut log = pacer_log;
    log.merge(customer.log);
    LiveRun {
        log,
        busy_ns,
        samples: sampler.finish(),
        extras,
    }
}

/// `fig3_saturated` and `big_pool`: closed loop, 32 jobs outstanding,
/// machines served by the farm. The listener thread does all the work;
/// the main thread samples the slice edges and, in a traced `big_pool`
/// run, issues the by-name probe query.
pub fn run_closed(pool: &mut LivePool, phases: Phases, net: &Net, workload: Workload) -> LiveRun {
    let capacity = (phases.end_ns as u128 * MAX_CLOSED_JOBS_PER_S as u128 / 1_000_000_000) as usize;
    let jobs = JobTable::new(capacity.max(OUTSTANDING_JOBS));
    let (stop, finished) = (AtomicBool::new(false), AtomicBool::new(false));
    let Providers::Farm(farm) = &mut pool.providers else {
        unreachable!("closed transaction loops run against the farm")
    };
    let submitter = Submitter {
        admitted: Some((&pool.daemon, {
            let s = pool.daemon.service().stats();
            s.ads_accepted + s.ads_rejected
        })),
        net,
        phases: &phases,
        inputs: &pool.inputs,
        daemon: &pool.addr,
        contact: &pool.contact,
        jobs: &jobs,
    };
    let mut customer = Customer::new(submitter, Claimer::Farm(farm));
    let mut sampler = Sampler::new(&pool.daemon, phases);
    let mut probe_ns: Vec<u64> = Vec::new();
    let mut main_log = ThreadLog::default();
    std::thread::scope(|scope| {
        let listener = &pool.listener;
        let (customer, stop, finished) = (&mut customer, &stop, &finished);
        scope.spawn(move || {
            for _ in 0..OUTSTANDING_JOBS {
                customer.submit_next();
            }
            customer.serve(listener, stop, |c| c.draining && c.outstanding == 0);
            finished.store(true, Ordering::SeqCst);
        });

        if workload == Workload::BigPool && phases.trace {
            // Finding-only probe: a status query during negotiation
            // waits for the negotiator's lock.
            let probe = Message::Query {
                constraint: format!(r#"other.Name == "{}""#, machine_name(0)),
                kind: Some(EntityKind::Provider),
                projection: vec!["Name".into()],
            };
            // Open loop, timed from the due instant: a probe that waits out
            // a cycle delays the ones due behind it, and they count.
            let mut due = phases.measure_ns;
            while due < phases.end_ns {
                sampler.sleep_until(due);
                match net.request_reply(&pool.addr, &probe) {
                    Ok(Message::QueryReply { .. }) => probe_ns.push(phases.now() - due),
                    _ => main_log.failed += 1,
                }
                due += PROBE_QUERY_PERIOD.as_nanos() as u64;
            }
        }
        sampler.sleep_through_window();
        stop_listener(finished, stop, workload.placement_deadline(), &pool.contact);
    });

    let submitted = customer.next_job;
    check_placements(&mut customer, submitted);
    // Every job was matched away and every machine re-advertised (one
    // way, so give the daemon a moment): the store is back to the
    // machines plus the daemon's self-ad.
    let expected = pool.inputs.machines.len() + 1;
    let service = pool.daemon.service();
    if customer.log.failed == 0
        && !wait_until(Duration::from_secs(2), || service.ad_count() == expected)
    {
        customer.log.violations.push(format!(
            "{} ads stored after the run, the driver's mirror holds {expected}",
            service.ad_count()
        ));
    }

    let mut extras: Vec<Metric> = Vec::new();
    if !probe_ns.is_empty() {
        extras.push((
            "pool.daemon.query_during_cycle_max_ms".into(),
            probe_ns.iter().copied().max().unwrap_or(0) as f64 / 1e6,
            "ms",
        ));
        extras.push((
            "pool.daemon.query_during_cycle_ms".into(),
            median_ms(probe_ns),
            "ms",
        ));
    }
    let busy_ns = customer.log.busy_ns;
    let mut log = main_log;
    log.merge(customer.log);
    LiveRun {
        log,
        busy_ns,
        samples: sampler.finish(),
        extras,
    }
}
