//! The pool-history collector: turns daemon self-ads and journal events
//! into [`HistoryStore`] series, and checkpoints the store into a journal
//! so a restart loses at most one sample interval.
//!
//! The collector owns no sockets and no clock: the embedding daemon (or a
//! test) polls self-ads through the ordinary `Query` path and hands each
//! batch to [`Collector::ingest`] together with the pool label they came
//! from — `"local"` for the home pool, the flock peer's name for a
//! federated one. Everything derived is conventional CondorView material:
//!
//! * **pool rollups** (`Source == "pool"`): `Utilization` (claimed
//!   resource agents over all resource agents), `MatchRate` /
//!   `FlockRate` / `LeaseExpiries` (from the matchmaker self-ad's
//!   cumulative counters), `LeaderEpoch`, and the `ResourceAgents` /
//!   `CustomerAgents` head-counts;
//! * **per-daemon series** (`Source` = the daemon's name): `Claimed` per
//!   resource agent, `JobsIdle` per customer agent.
//!
//! A source that was present in one ingest and missing from the next gets
//! an *absent tombstone* in every one of its series — the collector saw
//! the matchmaker expire or withdraw the ad, which is how history
//! distinguishes a departed machine from one that is merely quiet.
//!
//! [`Collector::tail_journal`] additionally follows a daemon's event
//! journal, folding `MatchMade` / `ClaimEstablished` / `LeaseExpired` /
//! flocking events into event-sourced counter series — an independent
//! view of the same activity the polled counters report.

use crate::store::{HistoryConfig, HistoryStore};
use classad::ClassAd;
use condor_obs::{recover, replay, schema, Event, Journal, JournalConfig};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// Pool label the embedding daemon uses for its own pool.
pub const LOCAL_POOL: &str = "local";
/// `Source` of the pool-level rollup series.
pub const POOL_SOURCE: &str = "pool";

/// Metric names the collector emits (series `Metric` attribute values).
pub mod metric {
    /// Claimed resource agents / all resource agents (gauge, 0..=1).
    pub const UTILIZATION: &str = "Utilization";
    /// Matches produced, from the matchmaker's cumulative counter.
    pub const MATCH_RATE: &str = "MatchRate";
    /// Jobs served by or granted to peer pools (flock activity).
    pub const FLOCK_RATE: &str = "FlockRate";
    /// Ads dropped by lease expiry.
    pub const LEASE_EXPIRIES: &str = "LeaseExpiries";
    /// The leadership epoch the serving matchmaker reports (gauge).
    pub const LEADER_EPOCH: &str = "LeaderEpoch";
    /// Resource agents advertising (gauge).
    pub const RESOURCE_AGENTS: &str = "ResourceAgents";
    /// Customer agents advertising (gauge).
    pub const CUSTOMER_AGENTS: &str = "CustomerAgents";
    /// Per resource agent: claimed right now (gauge, 0/1).
    pub const CLAIMED: &str = "Claimed";
    /// Per customer agent: jobs waiting for a match (gauge).
    pub const JOBS_IDLE: &str = "JobsIdle";
    /// Matches seen in the tailed event journal.
    pub const MATCH_EVENTS: &str = "MatchEvents";
    /// Claims established, from the tailed event journal.
    pub const CLAIM_EVENTS: &str = "ClaimEvents";
    /// Lease expiries, from the tailed event journal.
    pub const EXPIRY_EVENTS: &str = "ExpiryEvents";
    /// Flocked jobs and flock matches, from the tailed event journal.
    pub const FLOCK_EVENTS: &str = "FlockEvents";
}

/// How the [`Collector`] came back to life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resumption {
    /// No journal, or the journal held no decodable checkpoint.
    Fresh,
    /// The store was rebuilt from the newest journal checkpoint.
    Recovered,
}

/// Thread-safe history collector: a [`HistoryStore`] behind a mutex, an
/// optional checkpoint journal, and the bookkeeping that detects departed
/// sources between ingests.
#[derive(Debug)]
pub struct Collector {
    store: Mutex<HistoryStore>,
    journal: Option<Journal>,
    resumption: Resumption,
    /// Per pool: the sources seen by the previous ingest (tombstone
    /// candidates when they vanish).
    last_sources: Mutex<HashMap<String, BTreeSet<String>>>,
    /// Per (pool, metric): running totals for event-sourced counters.
    event_totals: Mutex<HashMap<(String, String), f64>>,
    /// Per tailed journal path: highest record seq already folded in.
    tail_seq: Mutex<HashMap<String, u64>>,
    collections: AtomicU64,
}

impl Collector {
    /// Build a collector. When `journal` is given, the newest checkpoint
    /// in it (rotated generations included) is decoded back into the
    /// store before the journal is reopened for appending, so a restarted
    /// view server resumes with everything up to its last checkpoint.
    pub fn new(cfg: HistoryConfig, journal: Option<JournalConfig>) -> std::io::Result<Collector> {
        let mut store = HistoryStore::new(cfg);
        let mut resumption = Resumption::Fresh;
        if let Some(jc) = &journal {
            if jc.path.exists() {
                if let Some(prev) = recover(&jc.path)?
                    .state
                    .as_deref()
                    .and_then(HistoryStore::decode_state)
                {
                    store = prev;
                    resumption = Resumption::Recovered;
                }
            }
        }
        let journal = journal.map(Journal::open).transpose()?;
        Ok(Collector {
            store: Mutex::new(store),
            journal,
            resumption,
            last_sources: Mutex::new(HashMap::new()),
            event_totals: Mutex::new(HashMap::new()),
            tail_seq: Mutex::new(HashMap::new()),
            collections: AtomicU64::new(0),
        })
    }

    /// A journal-less collector (unit tests, ad-hoc tooling).
    pub fn in_memory(cfg: HistoryConfig) -> Collector {
        Collector::new(cfg, None).expect("journal-less collector cannot fail")
    }

    /// Whether construction recovered state from a journal checkpoint.
    pub fn resumption(&self) -> Resumption {
        self.resumption
    }

    /// Ingest one batch of daemon self-ads polled from `pool`'s
    /// matchmaker at `unix`. Computes the pool rollups, the per-daemon
    /// series, and absent tombstones for sources that vanished since the
    /// previous ingest of the same pool.
    pub fn ingest(&self, pool: &str, ads: &[ClassAd], unix: u64) {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut ra_total = 0i64;
        let mut ra_claimed = 0i64;
        let mut ca_total = 0i64;
        {
            let mut store = self.store.lock();
            for ad in ads {
                let Some(my_type) = ad.get_string(condor_obs::selfad::MY_TYPE_ATTR) else {
                    continue;
                };
                let source = source_name(ad);
                match my_type {
                    schema::MATCHMAKER_STATS => {
                        // Counters a quiet matchmaker has not registered
                        // yet read as 0, so the pool rollup series exist
                        // from the very first pass.
                        for (metric, attr) in [
                            (metric::MATCH_RATE, "MatchesTotal"),
                            (metric::LEASE_EXPIRIES, "AdsExpiredTotal"),
                        ] {
                            let v = ad.get_int(attr).unwrap_or(0);
                            store.record_counter(pool, metric, POOL_SOURCE, unix, v as f64);
                        }
                        let flocked = ad.get_int("JobsFlocked").unwrap_or(0)
                            + ad.get_int("FlockMatches").unwrap_or(0)
                            + ad.get_int("FlockGrants").unwrap_or(0);
                        store.record_counter(
                            pool,
                            metric::FLOCK_RATE,
                            POOL_SOURCE,
                            unix,
                            flocked as f64,
                        );
                        if let Some(epoch) = ad.get_int("LeaderEpoch") {
                            store.record_gauge(
                                pool,
                                metric::LEADER_EPOCH,
                                POOL_SOURCE,
                                unix,
                                epoch as f64,
                            );
                        }
                    }
                    schema::RESOURCE_AGENT_STATS => {
                        ra_total += 1;
                        let claimed = ad.get_int("Claimed").unwrap_or(0).min(1);
                        ra_claimed += claimed;
                        store.record_gauge(pool, metric::CLAIMED, &source, unix, claimed as f64);
                        seen.insert(source);
                    }
                    schema::CUSTOMER_AGENT_STATS => {
                        ca_total += 1;
                        if let Some(idle) = ad.get_int("JobsIdle") {
                            store.record_gauge(pool, metric::JOBS_IDLE, &source, unix, idle as f64);
                        }
                        seen.insert(source);
                    }
                    _ => {}
                }
            }
            store.record_gauge(
                pool,
                metric::RESOURCE_AGENTS,
                POOL_SOURCE,
                unix,
                ra_total as f64,
            );
            store.record_gauge(
                pool,
                metric::CUSTOMER_AGENTS,
                POOL_SOURCE,
                unix,
                ca_total as f64,
            );
            // A pool with no resource agents reads utilization 0 — the
            // series must keep advancing when the last agent departs,
            // or it would freeze at its final value and read as
            // healthy-but-idle forever (the deadman problem, §7).
            let utilization = if ra_total > 0 {
                ra_claimed as f64 / ra_total as f64
            } else {
                0.0
            };
            store.record_gauge(pool, metric::UTILIZATION, POOL_SOURCE, unix, utilization);
            // Tombstone every agent that advertised last round but not
            // this one: its ad expired or was withdrawn at the
            // matchmaker, so the daemon departed (rather than going
            // quiet, which would leave its ad in place).
            let mut last = self.last_sources.lock();
            if let Some(prev) = last.get(pool) {
                for gone in prev.difference(&seen) {
                    store.record_absent(pool, gone, unix);
                }
            }
            last.insert(pool.to_string(), seen);
        }
        self.collections.fetch_add(1, Ordering::Relaxed);
    }

    /// Fold the daemon event journal at `path` into `pool`'s
    /// event-sourced counter series. Only records with a sequence number
    /// above the last call's high-water mark are consumed, so calling
    /// this every sample interval tails the journal incrementally. Errors
    /// reading the journal are returned (a missing journal is an error —
    /// gate on existence, as the daemon does).
    pub fn tail_journal(
        &self,
        pool: &str,
        path: &std::path::Path,
        unix: u64,
    ) -> std::io::Result<usize> {
        let records = replay(path)?;
        let key = path.display().to_string();
        let mut seqs = self.tail_seq.lock();
        let high = seqs.entry(key).or_insert(0);
        let mut folded = 0usize;
        let mut totals = self.event_totals.lock();
        let mut bump = |metric: &str, by: f64| {
            let t = totals
                .entry((pool.to_string(), metric.to_string()))
                .or_insert(0.0);
            *t += by;
            *t
        };
        let mut store = self.store.lock();
        for rec in records {
            if rec.seq <= *high {
                continue;
            }
            *high = rec.seq;
            let (metric, by) = match &rec.event {
                Event::MatchMade { .. } => (metric::MATCH_EVENTS, 1.0),
                Event::ClaimEstablished { .. } => (metric::CLAIM_EVENTS, 1.0),
                Event::LeaseExpired { expired } => (metric::EXPIRY_EVENTS, *expired as f64),
                Event::JobFlocked { .. } | Event::FlockMatchMade { .. } => {
                    (metric::FLOCK_EVENTS, 1.0)
                }
                _ => continue,
            };
            let total = bump(metric, by);
            store.record_counter(pool, metric, "journal", unix, total);
            folded += 1;
        }
        Ok(folded)
    }

    /// Checkpoint the whole store into the collector's journal under the
    /// daemon's current leadership `epoch`. A no-op without a journal.
    /// Returns whether a checkpoint was written.
    pub fn checkpoint(&self, epoch: u64) -> bool {
        let Some(journal) = &self.journal else {
            return false;
        };
        let (state, series) = {
            let store = self.store.lock();
            (store.encode_state(), store.series_count() as u64)
        };
        journal
            .append_traced(
                Event::Checkpoint {
                    epoch,
                    ads: series,
                    matches: 0,
                    state,
                },
                None,
            )
            .written
    }

    /// Record that an entire peer pool has stopped answering: drop an
    /// absent tombstone into every one of `pool`'s series. The federated
    /// sampler calls this when a flock peer is unreachable, so a dead
    /// peer's rollups read as *departed* instead of silently stale.
    pub fn record_pool_absent(&self, pool: &str, unix: u64) {
        self.store.lock().record_pool_absent(pool, unix);
    }

    /// Record one gauge observation directly, bypassing ad ingestion
    /// (embedding code and tests that synthesize series).
    pub fn record_gauge(&self, pool: &str, metric: &str, source: &str, unix: u64, value: f64) {
        self.store
            .lock()
            .record_gauge(pool, metric, source, unix, value);
    }

    /// Record one cumulative-counter observation directly (see
    /// [`HistoryStore::record_counter`]).
    pub fn record_counter(&self, pool: &str, metric: &str, source: &str, unix: u64, total: f64) {
        self.store
            .lock()
            .record_counter(pool, metric, source, unix, total);
    }

    /// Every retained (series, tier) as a `HistorySeries` ad (see
    /// [`HistoryStore::series_ads`]).
    pub fn series_ads(&self) -> Vec<ClassAd> {
        self.store.lock().series_ads()
    }

    /// Summarize the newest `window` finest-tier buckets of one series
    /// (see [`HistoryStore::recent_window`]) — the read path alerting
    /// history predicates are answered from.
    pub fn recent_window(
        &self,
        pool: &str,
        metric: &str,
        source: &str,
        window: usize,
    ) -> Option<crate::RecentWindow> {
        self.store
            .lock()
            .recent_window(pool, metric, source, window)
    }

    /// Every `(pool, metric, source)` series key currently retained.
    pub fn series_keys(&self) -> Vec<crate::store::SeriesKey> {
        self.store.lock().series_keys()
    }

    /// Run `f` against the store (tests, in-process renderers).
    pub fn with_store<R>(&self, f: impl FnOnce(&HistoryStore) -> R) -> R {
        f(&self.store.lock())
    }

    /// Ingest batches processed since construction.
    pub fn collections(&self) -> u64 {
        self.collections.load(Ordering::Relaxed)
    }

    /// Observations ever ingested into the store (survives recovery).
    pub fn observations(&self) -> u64 {
        self.store.lock().observations()
    }

    /// Series currently retained.
    pub fn series_count(&self) -> usize {
        self.store.lock().series_count()
    }
}

/// The series `Source` for a self-ad: its `Name` with the `#stats`
/// suffix (the self-ad naming convention) stripped.
fn source_name(ad: &ClassAd) -> String {
    let name = ad.get_string("Name").unwrap_or("unnamed");
    name.strip_suffix("#stats").unwrap_or(name).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use condor_obs::{self_ad, Registry};

    fn mm_ad(matches: i64, expired: i64, epoch: i64) -> ClassAd {
        let reg = Registry::new();
        let mut ad = self_ad("mm#stats", schema::MATCHMAKER_STATS, 1, &reg.snapshot());
        ad.set_int("MatchesTotal", matches);
        ad.set_int("AdsExpiredTotal", expired);
        ad.set_int("LeaderEpoch", epoch);
        ad
    }

    fn ra_ad(name: &str, claimed: i64) -> ClassAd {
        let reg = Registry::new();
        let mut ad = self_ad(
            &format!("{name}#stats"),
            schema::RESOURCE_AGENT_STATS,
            1,
            &reg.snapshot(),
        );
        ad.set_int("Claimed", claimed);
        ad
    }

    fn ca_ad(name: &str, idle: i64) -> ClassAd {
        let reg = Registry::new();
        let mut ad = self_ad(
            &format!("{name}#stats"),
            schema::CUSTOMER_AGENT_STATS,
            1,
            &reg.snapshot(),
        );
        ad.set_int("JobsIdle", idle);
        ad
    }

    #[test]
    fn ingest_rolls_up_utilization_and_match_rate() {
        let c = Collector::in_memory(HistoryConfig::single(10, 16));
        c.ingest(
            LOCAL_POOL,
            &[
                mm_ad(0, 0, 1),
                ra_ad("ra-1", 0),
                ra_ad("ra-2", 0),
                ca_ad("ca", 3),
            ],
            100,
        );
        c.ingest(
            LOCAL_POOL,
            &[
                mm_ad(5, 2, 1),
                ra_ad("ra-1", 1),
                ra_ad("ra-2", 0),
                ca_ad("ca", 1),
            ],
            110,
        );
        let util = c.with_store(|s| s.buckets(LOCAL_POOL, metric::UTILIZATION, POOL_SOURCE, 0));
        let util = util.unwrap();
        assert_eq!(util.last().unwrap().last, 0.5);
        let match_growth: f64 = c
            .with_store(|s| s.buckets(LOCAL_POOL, metric::MATCH_RATE, POOL_SOURCE, 0))
            .unwrap()
            .iter()
            .map(|b| b.sum)
            .sum();
        assert_eq!(match_growth, 5.0);
        let idle = c
            .with_store(|s| s.buckets(LOCAL_POOL, metric::JOBS_IDLE, "ca", 0))
            .unwrap();
        assert_eq!(idle.last().unwrap().last, 1.0);
        assert_eq!(c.collections(), 2);
    }

    #[test]
    fn vanished_sources_get_absent_tombstones() {
        let c = Collector::in_memory(HistoryConfig::single(10, 16));
        c.ingest(LOCAL_POOL, &[ra_ad("ra-1", 0), ra_ad("ra-2", 0)], 100);
        c.ingest(LOCAL_POOL, &[ra_ad("ra-2", 0)], 110);
        let gone = c
            .with_store(|s| s.buckets(LOCAL_POOL, metric::CLAIMED, "ra-1", 0))
            .unwrap();
        assert!(gone.iter().any(|b| b.absent), "departed agent tombstoned");
        let alive = c
            .with_store(|s| s.buckets(LOCAL_POOL, metric::CLAIMED, "ra-2", 0))
            .unwrap();
        assert!(alive.iter().all(|b| !b.absent));
    }

    #[test]
    fn checkpoint_and_recover_round_trip() {
        let dir = std::env::temp_dir().join(format!("view-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let jc = JournalConfig::new(dir.join("view.journal"));
        {
            let c = Collector::new(HistoryConfig::single(10, 16), Some(jc.clone())).unwrap();
            assert_eq!(c.resumption(), Resumption::Fresh);
            c.ingest(LOCAL_POOL, &[mm_ad(3, 0, 2), ra_ad("ra-1", 1)], 100);
            assert!(c.checkpoint(2));
        }
        let c = Collector::new(HistoryConfig::single(10, 16), Some(jc)).unwrap();
        assert_eq!(c.resumption(), Resumption::Recovered);
        let util = c
            .with_store(|s| s.buckets(LOCAL_POOL, metric::UTILIZATION, POOL_SOURCE, 0))
            .unwrap();
        assert_eq!(util.last().unwrap().last, 1.0);
        // The recovered store keeps ingesting where it left off.
        c.ingest(LOCAL_POOL, &[mm_ad(8, 0, 2), ra_ad("ra-1", 1)], 110);
        let growth: f64 = c
            .with_store(|s| s.buckets(LOCAL_POOL, metric::MATCH_RATE, POOL_SOURCE, 0))
            .unwrap()
            .iter()
            .map(|b| b.sum)
            .sum();
        // The pre-restart baseline (3) survived, so this ingest records
        // the delta 8 - 3 rather than re-baselining at 8.
        assert_eq!(growth, 5.0, "counter baseline survived the restart");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_tailing_is_incremental() {
        let dir = std::env::temp_dir().join(format!("view-tail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mm.journal");
        let journal = Journal::open(JournalConfig::new(path.clone())).unwrap();
        journal.append(Event::LeaseExpired { expired: 3 });
        let c = Collector::in_memory(HistoryConfig::single(10, 16));
        assert_eq!(c.tail_journal(LOCAL_POOL, &path, 100).unwrap(), 1);
        assert_eq!(c.tail_journal(LOCAL_POOL, &path, 110).unwrap(), 0);
        journal.append(Event::LeaseExpired { expired: 2 });
        assert_eq!(c.tail_journal(LOCAL_POOL, &path, 120).unwrap(), 1);
        let growth: f64 = c
            .with_store(|s| s.buckets(LOCAL_POOL, metric::EXPIRY_EVENTS, "journal", 0))
            .unwrap()
            .iter()
            .map(|b| b.sum)
            .sum();
        assert_eq!(growth, 2.0, "first tail set the baseline, second added 2");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
