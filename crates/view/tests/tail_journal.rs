//! Tailing a journal costs what was appended, not what is retained. The
//! view collector tails the daemon's journal every sample interval; a
//! matchmaker of a large pool writes checkpoint lines of megabytes, and a
//! tail that re-read every retained generation spent ≈27 ms a pass on
//! four of them to find nothing new.
//!
//! The time bound holds in release builds (`cargo test --release -p
//! condor-view --test tail_journal`); an unoptimised build is only held to
//! a looser one.

use condor_obs::{Event, Journal, JournalConfig};
use condor_view::{Collector, HistoryConfig, LOCAL_POOL};
use std::time::{Duration, Instant};

const MACHINES: usize = 2048;
const GENERATIONS: usize = 4;

const BOUND: Duration = if cfg!(debug_assertions) {
    Duration::from_millis(20)
} else {
    Duration::from_millis(2)
};

/// A checkpoint payload the size of a 2 048-machine pool's: each machine
/// ad as JSON, so the journal line is mostly escaped quotes.
fn checkpoint_state() -> String {
    let ads: Vec<String> = (0..MACHINES)
        .map(|i| {
            let ad = classad::parse_classad(&format!(
                r#"[ Type = "Machine"; Name = "machine-{i:05}"; Activity = "Idle";
                     State = "Unclaimed"; Arch = "INTEL"; OpSys = "LINUX";
                     Memory = {mem}; Disk = {disk}; Mips = {mips}; KFlops = {kflops};
                     KeyboardIdle = {idle}; LoadAvg = 0.{i:06}; DayTime = 36107;
                     ResearchGroup = {{ "raman", "miron" }}; Friends = {{ "solomon" }};
                     Untrusted = {{ "rival", "riffraff" }};
                     Rank = member(other.Owner, ResearchGroup) * 10 +
                            member(other.Owner, Friends);
                     Constraint = !member(other.Owner, Untrusted) && Rank >= 10 ? true :
                                  Rank > 0 ? LoadAvg < 0.3 && KeyboardIdle > 15*60 :
                                  DayTime < 8*60*60 || DayTime > 18*60*60 ]"#,
                mem = 32 << (i % 4),
                disk = 100_000 + i,
                mips = 50 + i % 200,
                kflops = 10_000 + i * 7,
                idle = i * 13,
            ))
            .unwrap();
            classad::json::to_json(&ad)
        })
        .collect();
    format!("[{}]", ads.join(","))
}

#[test]
fn a_pass_with_nothing_new_does_not_reread_the_journal() {
    let dir = std::env::temp_dir().join(format!("view-tail-cost-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mm.journal");
    // Each generation holds one checkpoint line and a match or two: the
    // current file and three rotated ones.
    let state = checkpoint_state();
    let journal = Journal::open(JournalConfig {
        rotate_bytes: 3 * state.len() as u64 / 2,
        keep_rotated: GENERATIONS - 1,
        ..JournalConfig::new(path.clone())
    })
    .unwrap();
    for epoch in 0..GENERATIONS as u64 {
        journal.append(Event::MatchMade {
            request: format!("job-{epoch}"),
            offer: "machine-00000".into(),
        });
        journal.append(Event::Checkpoint {
            epoch,
            ads: MACHINES as u64,
            matches: 0,
            state: state.clone(),
        });
    }
    let retained: u64 = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum();
    assert!(
        retained > (GENERATIONS * state.len()) as u64,
        "{retained} bytes retained"
    );

    let c = Collector::in_memory(HistoryConfig::single(10, 16));
    // The first pass reads everything retained; the matches of the three
    // rotated generations and the current file are all there.
    assert_eq!(c.tail_journal(LOCAL_POOL, &path, 100).unwrap(), GENERATIONS);

    let fastest = (0..5)
        .map(|i| {
            let started = Instant::now();
            assert_eq!(c.tail_journal(LOCAL_POOL, &path, 101 + i).unwrap(), 0);
            started.elapsed()
        })
        .min()
        .unwrap();
    assert!(
        fastest < BOUND,
        "a pass with nothing new took {fastest:?} over {retained} retained bytes (bound {BOUND:?})"
    );

    // And the next record appended is still seen.
    journal.append(Event::MatchMade {
        request: "job-late".into(),
        offer: "machine-00001".into(),
    });
    assert_eq!(c.tail_journal(LOCAL_POOL, &path, 200).unwrap(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
