//! Last-checkpoint-plus-tail restart for a matchmaker.
//!
//! A newly inaugurated leader (or a lone matchmaker restarting in place)
//! calls [`recover_pool`] on the journal it inherits. The journal reader
//! ([`condor_obs::recover`]) finds the latest `Checkpoint` record and
//! hands back its opaque payload plus every record written after it; this
//! module decodes the payload into a [`PoolSnapshot`] and *adjusts* it
//! with what the tail proves happened since:
//!
//! * Every `MatchMade` in the tail names a request/offer pair the dead
//!   leader matched (and withdrew) after the checkpoint. Restoring those
//!   ads verbatim would re-allocate a machine that is likely mid-claim,
//!   so [`Recovered::adjusted_store`] drops both sides of each
//!   tail match. The claiming protocol would catch the double-sell
//!   anyway — providers re-verify constraints — but not re-offering a
//!   spoken-for machine saves the wasted cycle.
//! * Ads that *arrived* after the checkpoint are gone — `AdReceived`
//!   records carry no ad body — and that is fine: soft state means the
//!   agents re-advertise within one heartbeat, and
//!   [`Recovered::tail_ads_lost`] reports how many the new leader is
//!   waiting on.

use crate::snapshot::{PoolSnapshot, SnapshotError};
use condor_obs::{Event, ReplayStats};
use matchmaker::StoreSnapshot;
use std::collections::HashSet;
use std::io;
use std::path::Path;

/// What a journal gave back at restart.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// The latest checkpoint's snapshot; `None` when the journal holds no
    /// checkpoint (recover by re-advertisement alone).
    pub snapshot: Option<PoolSnapshot>,
    /// The epoch recorded with that checkpoint (0 without one).
    pub epoch: u64,
    /// The journal sequence number of the checkpoint record (0 without
    /// one).
    pub checkpoint_seq: u64,
    /// Request/offer name pairs matched after the checkpoint, in tail
    /// order.
    pub tail_matches: Vec<(String, String)>,
    /// Ads received after the checkpoint whose bodies the journal cannot
    /// reconstruct — the count of agents expected to re-advertise.
    pub tail_ads_lost: u64,
    /// Reader statistics for the whole journal (torn lines, unknown
    /// kinds survive a version skew).
    pub stats: ReplayStats,
}

impl Recovered {
    /// The store state to restore, with both sides of every
    /// post-checkpoint match withdrawn. `None` when there was no
    /// checkpoint.
    pub fn adjusted_store(&self) -> Option<StoreSnapshot> {
        let snap = self.snapshot.as_ref()?;
        let matched: HashSet<String> = self
            .tail_matches
            .iter()
            .flat_map(|(req, off)| [req.to_ascii_lowercase(), off.to_ascii_lowercase()])
            .collect();
        let mut store = snap.store.clone();
        store
            .ads
            .retain(|ad| !matched.contains(&ad.name.to_ascii_lowercase()));
        Some(store)
    }
}

/// Replay the journal at `path` and assemble the recovery picture. A
/// checkpoint whose payload no longer decodes is reported as
/// `InvalidData` — a truncated *tail* merely shows up in
/// [`ReplayStats::torn`], but a corrupt checkpoint body means the
/// snapshot format and the journal disagree and silent fallback would
/// hide real state loss.
pub fn recover_pool(path: impl AsRef<Path>) -> io::Result<Recovered> {
    let rec = condor_obs::recover(path)?;
    let snapshot = match &rec.state {
        None => None,
        Some(state) => Some(
            PoolSnapshot::decode(state)
                .map_err(|e: SnapshotError| io::Error::new(io::ErrorKind::InvalidData, e))?,
        ),
    };
    let mut tail_matches = Vec::new();
    let mut tail_ads_lost = 0;
    for record in &rec.tail {
        match &record.event {
            Event::MatchMade { request, offer } => {
                tail_matches.push((request.clone(), offer.clone()));
            }
            Event::AdReceived { .. } => tail_ads_lost += 1,
            _ => {}
        }
    }
    Ok(Recovered {
        snapshot,
        epoch: rec.epoch,
        checkpoint_seq: rec.checkpoint_seq,
        tail_matches,
        tail_ads_lost,
        stats: rec.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use condor_obs::{Journal, JournalConfig};
    use matchmaker::protocol::EntityKind;
    use matchmaker::StoredAd;
    use std::sync::Arc;

    fn stored(name: &str, kind: EntityKind) -> StoredAd {
        StoredAd {
            name: name.into(),
            kind,
            ad: Arc::new(classad::parse_classad(&format!("[ Name = {name:?} ]")).unwrap()),
            contact: "127.0.0.1:1".into(),
            ticket: None,
            expires_at: u64::MAX,
            seq: 1,
            trace: None,
            encoded: std::sync::OnceLock::new(),
        }
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ha-rec-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.jsonl")
    }

    #[test]
    fn recovery_restores_the_checkpoint_minus_tail_matches() {
        let path = scratch("tail");
        let snap = PoolSnapshot {
            store: StoreSnapshot {
                shards: 2,
                pinned: true,
                next_seq: 10,
                ads: vec![
                    stored("m1", EntityKind::Provider),
                    stored("m2", EntityKind::Provider),
                    stored("J1", EntityKind::Customer),
                ],
            },
            matches: vec![],
        };
        let journal = Journal::open(JournalConfig::new(&path)).unwrap();
        journal.append(snap.checkpoint_event(4));
        // The tail: the dead leader matched J1 onto m1 (note the case
        // skew — journal names carry original spelling) and saw one new
        // ad it never checkpointed.
        journal.append(Event::MatchMade {
            request: "j1".into(),
            offer: "M1".into(),
        });
        journal.append(Event::AdReceived {
            kind: "Provider".into(),
            name: "m9".into(),
            contact: "127.0.0.1:9".into(),
        });
        drop(journal);

        let rec = recover_pool(&path).unwrap();
        assert_eq!(rec.epoch, 4);
        assert_eq!(rec.tail_matches, vec![("j1".into(), "M1".into())]);
        assert_eq!(rec.tail_ads_lost, 1);
        let store = rec.adjusted_store().unwrap();
        assert_eq!(store.next_seq, 10, "seq counter survives");
        let names: Vec<&str> = store.ads.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, vec!["m2"], "both sides of the tail match gone");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn journal_without_a_checkpoint_recovers_to_soft_state_only() {
        let path = scratch("nochk");
        let journal = Journal::open(JournalConfig::new(&path)).unwrap();
        journal.append(Event::AgentRestarted {
            agent: "MatchmakerDaemon".into(),
            name: "mm".into(),
        });
        drop(journal);
        let rec = recover_pool(&path).unwrap();
        assert!(rec.snapshot.is_none());
        assert!(rec.adjusted_store().is_none());
        assert_eq!(rec.epoch, 0);
        assert_eq!(rec.stats.records, 1);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn corrupt_checkpoint_payloads_are_loud() {
        let path = scratch("corrupt");
        let journal = Journal::open(JournalConfig::new(&path)).unwrap();
        journal.append(Event::Checkpoint {
            epoch: 1,
            ads: 0,
            matches: 0,
            state: "not a snapshot".into(),
        });
        drop(journal);
        let err = recover_pool(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn later_checkpoints_shadow_earlier_ones() {
        let path = scratch("latest");
        let old = PoolSnapshot {
            store: StoreSnapshot {
                shards: 1,
                pinned: false,
                next_seq: 5,
                ads: vec![stored("old", EntityKind::Provider)],
            },
            matches: vec![],
        };
        let new = PoolSnapshot {
            store: StoreSnapshot {
                shards: 1,
                pinned: false,
                next_seq: 6,
                ads: vec![stored("new", EntityKind::Provider)],
            },
            matches: vec![],
        };
        let journal = Journal::open(JournalConfig::new(&path)).unwrap();
        journal.append(old.checkpoint_event(1));
        journal.append(Event::MatchMade {
            request: "ignored".into(),
            offer: "pre-checkpoint".into(),
        });
        journal.append(new.checkpoint_event(2));
        drop(journal);
        let rec = recover_pool(&path).unwrap();
        assert_eq!(rec.epoch, 2);
        assert!(
            rec.tail_matches.is_empty(),
            "the tail starts after the LAST checkpoint"
        );
        let store = rec.adjusted_store().unwrap();
        assert_eq!(store.ads[0].name, "new");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
