//! Recovery time grows linearly with the checkpoint. A leader of a large
//! pool writes one `Checkpoint` line of megabytes, and inauguration
//! replays it on the election thread, which sends no lease heartbeats
//! meanwhile; a journal reader quadratic in the line length takes over a
//! minute on this journal and would cost the new leader its lease.
//!
//! The time bound holds in release builds (`cargo test --release -p
//! condor-ha --test linear_recovery`); an unoptimised build is only held
//! to a looser one.

use condor_ha::{recover_pool, PoolSnapshot};
use condor_obs::{Event, Journal, JournalConfig};
use matchmaker::protocol::EntityKind;
use matchmaker::{StoreSnapshot, StoredAd};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

const MACHINES: usize = 2048;

const BOUND: Duration = if cfg!(debug_assertions) {
    Duration::from_secs(10)
} else {
    Duration::from_secs(1)
};

/// A machine ad shaped like the benchmark's farm machines: the Fig. 1
/// attributes, owner lists and the `Rank`/`Constraint` policy.
fn machine(i: usize) -> StoredAd {
    let owners = ["raman", "miron", "solomon", "jbasney"];
    let platforms = [
        ("INTEL", "SOLARIS251"),
        ("SUN4u", "SOLARIS251"),
        ("INTEL", "LINUX"),
    ];
    let (arch, opsys) = platforms[i % 3];
    let name = format!("machine-{i:05}");
    let src = format!(
        r#"[
    Type         = "Machine";
    Activity     = "Idle";
    DayTime      = 36107;
    KeyboardIdle = {idle};
    Disk         = {disk};
    Memory       = {memory};
    State        = "Unclaimed";
    LoadAvg      = 0.{load:06};
    Mips         = {mips};
    Arch         = "{arch}";
    OpSys        = "{opsys}";
    KFlops       = {kflops};
    Name         = "{name}";
    ResearchGroup = {{ "{r0}", "{r1}" }};
    Friends       = {{ "{f0}" }};
    Untrusted     = {{ "rival", "riffraff" }};
    Rank = member(other.Owner, ResearchGroup) * 10 +
           member(other.Owner, Friends);
    Constraint = !member(other.Owner, Untrusted) && Rank >= 10 ? true :
                 Rank > 0 ? LoadAvg < 0.3 && KeyboardIdle > 15*60 :
                 DayTime < 8*60*60 || DayTime > 18*60*60;
]"#,
        idle = 1000 + 37 * i % 19_000,
        disk = 50_000 + 7_919 * i % 850_000,
        memory = [32, 64, 128, 256, 512][i % 5],
        load = 104_729 * i % 250_000,
        mips = 40 + i % 360,
        kflops = 10_000 + 31 * i % 20_000,
        r0 = owners[i % 4],
        r1 = owners[(i + 1) % 4],
        f0 = owners[(i + 2) % 4],
    );
    StoredAd {
        ad: Arc::new(classad::parse_classad(&src).unwrap()),
        name,
        kind: EntityKind::Provider,
        contact: format!("10.0.{}.{}:9618", i / 256, i % 256),
        ticket: None,
        expires_at: 1_700_000_900,
        seq: i as u64 + 1,
        trace: None,
        encoded: OnceLock::new(),
    }
}

#[test]
fn a_two_thousand_machine_checkpoint_recovers_in_linear_time() {
    let dir = std::env::temp_dir().join(format!("ha-linear-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("journal.jsonl");
    let snapshot = PoolSnapshot {
        store: StoreSnapshot {
            next_seq: MACHINES as u64 + 1,
            ads: (0..MACHINES).map(machine).collect(),
        },
        matches: Vec::new(),
    };
    let journal = Journal::open(JournalConfig::new(&path)).unwrap();
    let line = journal.append(snapshot.checkpoint_event(4)).encode();
    assert!(
        line.len() > 1_400_000,
        "checkpoint line is {} bytes",
        line.len()
    );
    journal.append(Event::MatchMade {
        request: "job-1".into(),
        offer: "machine-00007".into(),
    });
    drop(journal);

    let started = Instant::now();
    let recovered = recover_pool(&path).unwrap();
    let took = started.elapsed();

    assert_eq!(recovered.epoch, 4);
    assert_eq!(recovered.stats.torn, 0);
    assert_eq!(
        recovered.snapshot.as_ref().unwrap().encode(),
        snapshot.encode()
    );
    let store = recovered.adjusted_store().unwrap();
    assert_eq!(
        store.ads.len(),
        MACHINES - 1,
        "the tail's match is withdrawn"
    );
    assert!(
        took < BOUND,
        "recovering a {}-byte checkpoint line took {took:?} (bound {BOUND:?})",
        line.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
