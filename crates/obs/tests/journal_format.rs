//! The journal's line format, pinned: golden lines that `Record::encode`
//! must reproduce byte for byte and `Record::decode` must read back, plus
//! property tests that any string survives a line and that a line cut
//! short never decodes.

use condor_obs::journal::{Event, Record};
use condor_obs::trace::SpanContext;
use condor_obs::{replay_with_stats, ReplayStats};
use proptest::prelude::*;
use std::path::PathBuf;

/// One event of every kind, each string field holding characters the
/// escaper must handle: quotes, backslashes, `\n`, `\t`, `\r`, U+0001,
/// `é` and `/`.
fn golden_events() -> Vec<Event> {
    let odd = |tag: &str| format!("{tag} \"q\" \\b\\ n\nt\tr\r\u{1} é /");
    vec![
        Event::AdReceived {
            kind: "Provider".into(),
            name: odd("ra"),
            contact: "127.0.0.1:9618".into(),
        },
        Event::CycleCompleted {
            requests: 3,
            offers: 2,
            matches: 2,
            unmatched: 1,
            duration_ms: 12,
            incremental: true,
        },
        Event::MatchMade {
            request: odd("job"),
            offer: "ra-1".into(),
        },
        Event::MatchNotified {
            request: "job-1".into(),
            offer: odd("ra"),
            delivered: false,
        },
        Event::ClaimEstablished {
            provider: "ra-1".into(),
            customer: odd("alice"),
        },
        Event::ClaimRejected {
            provider: "ra-2".into(),
            customer: "bob".into(),
            reason: odd("stale ticket"),
        },
        Event::LeaseExpired {
            expired: i64::MAX as u64,
        },
        Event::FrameRejected {
            peer: "10.0.0.7:1234".into(),
            reason: odd("bad tag 99"),
        },
        Event::AgentRestarted {
            agent: "CustomerAgent".into(),
            name: odd("alice"),
        },
        Event::Checkpoint {
            epoch: 3,
            ads: 12,
            matches: 0,
            state: odd("snapshot v1\n"),
        },
        Event::JobFlocked {
            request: "job-1".into(),
            offer: odd("remote-ra"),
            peer: "10.0.0.9:9614".into(),
        },
        Event::FlockMatchMade {
            request: "job-9".into(),
            offer: "ra-3".into(),
            origin: odd("origin"),
        },
        Event::AlertRaised {
            rule: "MatchmakerDown".into(),
            severity: "critical".into(),
            detail: odd("ReqFalse(rule): other.SourceAbsent == true"),
        },
        Event::AlertCleared {
            rule: odd("MatchmakerDown"),
            severity: "warning".into(),
        },
        Event::CycleRejections {
            cycle: 7,
            clusters: 2,
            rejected: 5,
            breakdown: odd("c0[j1+j2]: Busy=3 | c1[j9]: ReqFalse(request): other.Mips >= 1000=2"),
        },
    ]
}

/// Every golden event twice: untraced, then under a span.
fn golden_records() -> Vec<Record> {
    golden_events()
        .into_iter()
        .enumerate()
        .flat_map(|(i, event)| {
            let i = i as u64;
            let untraced = Record {
                seq: 2 * i + 1,
                unix: 1_700_000_000 + i,
                unix_ms: 1_700_000_000_000 + 1_000 * i + 7,
                event: event.clone(),
                span: None,
            };
            let traced = Record {
                seq: 2 * i + 2,
                span: Some(SpanContext {
                    trace_id: 0xDEAD_BEEF_0000_0000 + i,
                    span_id: 0x42 + i,
                    parent_span_id: i,
                }),
                ..untraced.clone()
            };
            [untraced, traced]
        })
        .collect()
}

/// The lines `golden_records()` encodes to, in order. Journals on disk
/// hold these bytes, so a change here is a format change.
const GOLDEN: [&str; 30] = [
    r#"{"v":2,"seq":1,"unix":1700000000,"unix_ms":1700000000007,"event":"AdReceived","kind":"Provider","name":"ra \"q\" \\b\\ n\nt\tr\r\u0001 é /","contact":"127.0.0.1:9618"}"#,
    r#"{"v":2,"seq":2,"unix":1700000000,"unix_ms":1700000000007,"trace":"deadbeef00000000","span":"0000000000000042","parent":"0000000000000000","event":"AdReceived","kind":"Provider","name":"ra \"q\" \\b\\ n\nt\tr\r\u0001 é /","contact":"127.0.0.1:9618"}"#,
    r#"{"v":2,"seq":3,"unix":1700000001,"unix_ms":1700000001007,"event":"CycleCompleted","requests":3,"offers":2,"matches":2,"unmatched":1,"duration_ms":12,"incremental":true}"#,
    r#"{"v":2,"seq":4,"unix":1700000001,"unix_ms":1700000001007,"trace":"deadbeef00000001","span":"0000000000000043","parent":"0000000000000001","event":"CycleCompleted","requests":3,"offers":2,"matches":2,"unmatched":1,"duration_ms":12,"incremental":true}"#,
    r#"{"v":2,"seq":5,"unix":1700000002,"unix_ms":1700000002007,"event":"MatchMade","request":"job \"q\" \\b\\ n\nt\tr\r\u0001 é /","offer":"ra-1"}"#,
    r#"{"v":2,"seq":6,"unix":1700000002,"unix_ms":1700000002007,"trace":"deadbeef00000002","span":"0000000000000044","parent":"0000000000000002","event":"MatchMade","request":"job \"q\" \\b\\ n\nt\tr\r\u0001 é /","offer":"ra-1"}"#,
    r#"{"v":2,"seq":7,"unix":1700000003,"unix_ms":1700000003007,"event":"MatchNotified","request":"job-1","offer":"ra \"q\" \\b\\ n\nt\tr\r\u0001 é /","delivered":false}"#,
    r#"{"v":2,"seq":8,"unix":1700000003,"unix_ms":1700000003007,"trace":"deadbeef00000003","span":"0000000000000045","parent":"0000000000000003","event":"MatchNotified","request":"job-1","offer":"ra \"q\" \\b\\ n\nt\tr\r\u0001 é /","delivered":false}"#,
    r#"{"v":2,"seq":9,"unix":1700000004,"unix_ms":1700000004007,"event":"ClaimEstablished","provider":"ra-1","customer":"alice \"q\" \\b\\ n\nt\tr\r\u0001 é /"}"#,
    r#"{"v":2,"seq":10,"unix":1700000004,"unix_ms":1700000004007,"trace":"deadbeef00000004","span":"0000000000000046","parent":"0000000000000004","event":"ClaimEstablished","provider":"ra-1","customer":"alice \"q\" \\b\\ n\nt\tr\r\u0001 é /"}"#,
    r#"{"v":2,"seq":11,"unix":1700000005,"unix_ms":1700000005007,"event":"ClaimRejected","provider":"ra-2","customer":"bob","reason":"stale ticket \"q\" \\b\\ n\nt\tr\r\u0001 é /"}"#,
    r#"{"v":2,"seq":12,"unix":1700000005,"unix_ms":1700000005007,"trace":"deadbeef00000005","span":"0000000000000047","parent":"0000000000000005","event":"ClaimRejected","provider":"ra-2","customer":"bob","reason":"stale ticket \"q\" \\b\\ n\nt\tr\r\u0001 é /"}"#,
    r#"{"v":2,"seq":13,"unix":1700000006,"unix_ms":1700000006007,"event":"LeaseExpired","expired":9223372036854775807}"#,
    r#"{"v":2,"seq":14,"unix":1700000006,"unix_ms":1700000006007,"trace":"deadbeef00000006","span":"0000000000000048","parent":"0000000000000006","event":"LeaseExpired","expired":9223372036854775807}"#,
    r#"{"v":2,"seq":15,"unix":1700000007,"unix_ms":1700000007007,"event":"FrameRejected","peer":"10.0.0.7:1234","reason":"bad tag 99 \"q\" \\b\\ n\nt\tr\r\u0001 é /"}"#,
    r#"{"v":2,"seq":16,"unix":1700000007,"unix_ms":1700000007007,"trace":"deadbeef00000007","span":"0000000000000049","parent":"0000000000000007","event":"FrameRejected","peer":"10.0.0.7:1234","reason":"bad tag 99 \"q\" \\b\\ n\nt\tr\r\u0001 é /"}"#,
    r#"{"v":2,"seq":17,"unix":1700000008,"unix_ms":1700000008007,"event":"AgentRestarted","agent":"CustomerAgent","name":"alice \"q\" \\b\\ n\nt\tr\r\u0001 é /"}"#,
    r#"{"v":2,"seq":18,"unix":1700000008,"unix_ms":1700000008007,"trace":"deadbeef00000008","span":"000000000000004a","parent":"0000000000000008","event":"AgentRestarted","agent":"CustomerAgent","name":"alice \"q\" \\b\\ n\nt\tr\r\u0001 é /"}"#,
    r#"{"v":2,"seq":19,"unix":1700000009,"unix_ms":1700000009007,"event":"Checkpoint","epoch":3,"ads":12,"matches":0,"state":"snapshot v1\n \"q\" \\b\\ n\nt\tr\r\u0001 é /"}"#,
    r#"{"v":2,"seq":20,"unix":1700000009,"unix_ms":1700000009007,"trace":"deadbeef00000009","span":"000000000000004b","parent":"0000000000000009","event":"Checkpoint","epoch":3,"ads":12,"matches":0,"state":"snapshot v1\n \"q\" \\b\\ n\nt\tr\r\u0001 é /"}"#,
    r#"{"v":2,"seq":21,"unix":1700000010,"unix_ms":1700000010007,"event":"JobFlocked","request":"job-1","offer":"remote-ra \"q\" \\b\\ n\nt\tr\r\u0001 é /","peer":"10.0.0.9:9614"}"#,
    r#"{"v":2,"seq":22,"unix":1700000010,"unix_ms":1700000010007,"trace":"deadbeef0000000a","span":"000000000000004c","parent":"000000000000000a","event":"JobFlocked","request":"job-1","offer":"remote-ra \"q\" \\b\\ n\nt\tr\r\u0001 é /","peer":"10.0.0.9:9614"}"#,
    r#"{"v":2,"seq":23,"unix":1700000011,"unix_ms":1700000011007,"event":"FlockMatchMade","request":"job-9","offer":"ra-3","origin":"origin \"q\" \\b\\ n\nt\tr\r\u0001 é /"}"#,
    r#"{"v":2,"seq":24,"unix":1700000011,"unix_ms":1700000011007,"trace":"deadbeef0000000b","span":"000000000000004d","parent":"000000000000000b","event":"FlockMatchMade","request":"job-9","offer":"ra-3","origin":"origin \"q\" \\b\\ n\nt\tr\r\u0001 é /"}"#,
    r#"{"v":2,"seq":25,"unix":1700000012,"unix_ms":1700000012007,"event":"AlertRaised","rule":"MatchmakerDown","severity":"critical","detail":"ReqFalse(rule): other.SourceAbsent == true \"q\" \\b\\ n\nt\tr\r\u0001 é /"}"#,
    r#"{"v":2,"seq":26,"unix":1700000012,"unix_ms":1700000012007,"trace":"deadbeef0000000c","span":"000000000000004e","parent":"000000000000000c","event":"AlertRaised","rule":"MatchmakerDown","severity":"critical","detail":"ReqFalse(rule): other.SourceAbsent == true \"q\" \\b\\ n\nt\tr\r\u0001 é /"}"#,
    r#"{"v":2,"seq":27,"unix":1700000013,"unix_ms":1700000013007,"event":"AlertCleared","rule":"MatchmakerDown \"q\" \\b\\ n\nt\tr\r\u0001 é /","severity":"warning"}"#,
    r#"{"v":2,"seq":28,"unix":1700000013,"unix_ms":1700000013007,"trace":"deadbeef0000000d","span":"000000000000004f","parent":"000000000000000d","event":"AlertCleared","rule":"MatchmakerDown \"q\" \\b\\ n\nt\tr\r\u0001 é /","severity":"warning"}"#,
    r#"{"v":2,"seq":29,"unix":1700000014,"unix_ms":1700000014007,"event":"CycleRejections","cycle":7,"clusters":2,"rejected":5,"breakdown":"c0[j1+j2]: Busy=3 | c1[j9]: ReqFalse(request): other.Mips >= 1000=2 \"q\" \\b\\ n\nt\tr\r\u0001 é /"}"#,
    r#"{"v":2,"seq":30,"unix":1700000014,"unix_ms":1700000014007,"trace":"deadbeef0000000e","span":"0000000000000050","parent":"000000000000000e","event":"CycleRejections","cycle":7,"clusters":2,"rejected":5,"breakdown":"c0[j1+j2]: Busy=3 | c1[j9]: ReqFalse(request): other.Mips >= 1000=2 \"q\" \\b\\ n\nt\tr\r\u0001 é /"}"#,
];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "condor-obs-journal-format-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn encode_reproduces_the_golden_lines() {
    let records = golden_records();
    let mut kinds: Vec<_> = records
        .iter()
        .map(|r| (r.event.kind(), r.span.is_some()))
        .collect();
    kinds.sort();
    kinds.dedup();
    assert_eq!(kinds.len(), 2 * 15, "every kind, with and without a span");
    assert_eq!(records.len(), GOLDEN.len());
    for (rec, golden) in records.iter().zip(GOLDEN) {
        assert_eq!(rec.encode(), golden, "{:?}", rec.event.kind());
    }
}

#[test]
fn golden_lines_decode_to_their_records() {
    for (rec, golden) in golden_records().into_iter().zip(GOLDEN) {
        assert_eq!(Record::decode(golden), Some(rec), "{golden}");
    }
}

/// Any string, weighted towards what needs escaping: ASCII (control
/// characters included), quotes and backslashes, and the rest of Unicode.
fn arb_text() -> impl Strategy<Value = String> {
    let ch = prop_oneof![
        4 => proptest::char::range('\0', '\u{7f}'),
        1 => Just('"'),
        1 => Just('\\'),
        2 => proptest::char::range('\u{80}', char::MAX),
    ];
    proptest::collection::vec(ch, 0..24).prop_map(|cs| cs.into_iter().collect())
}

/// Every event whose fields are strings, each field set to `s`.
fn string_events(s: &str) -> Vec<Event> {
    let s = || s.to_string();
    vec![
        Event::AdReceived {
            kind: s(),
            name: s(),
            contact: s(),
        },
        Event::MatchMade {
            request: s(),
            offer: s(),
        },
        Event::MatchNotified {
            request: s(),
            offer: s(),
            delivered: true,
        },
        Event::ClaimEstablished {
            provider: s(),
            customer: s(),
        },
        Event::ClaimRejected {
            provider: s(),
            customer: s(),
            reason: s(),
        },
        Event::FrameRejected {
            peer: s(),
            reason: s(),
        },
        Event::AgentRestarted {
            agent: s(),
            name: s(),
        },
        Event::Checkpoint {
            epoch: 1,
            ads: 2,
            matches: 3,
            state: s(),
        },
        Event::JobFlocked {
            request: s(),
            offer: s(),
            peer: s(),
        },
        Event::FlockMatchMade {
            request: s(),
            offer: s(),
            origin: s(),
        },
        Event::AlertRaised {
            rule: s(),
            severity: s(),
            detail: s(),
        },
        Event::AlertCleared {
            rule: s(),
            severity: s(),
        },
        Event::CycleRejections {
            cycle: 1,
            clusters: 2,
            rejected: 3,
            breakdown: s(),
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_string_survives_a_line(s in arb_text(), traced in any::<bool>()) {
        for event in string_events(&s) {
            let rec = Record {
                seq: 1,
                unix: 2,
                unix_ms: 2_003,
                event,
                span: traced.then_some(SpanContext {
                    trace_id: 1,
                    span_id: 2,
                    parent_span_id: 3,
                }),
            };
            let line = rec.encode();
            prop_assert!(!line.contains('\n'), "one record is one line: {line}");
            prop_assert_eq!(Record::decode(&line), Some(rec));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Each strict prefix of a valid line, written as a line of its own,
    /// is counted torn by replay: never a record, never an unknown kind.
    #[test]
    fn every_strict_prefix_of_a_line_is_torn(
        s in arb_text(),
        pick in 0usize..30,
        use_golden in any::<bool>(),
    ) {
        let line = if use_golden {
            GOLDEN[pick].to_string()
        } else {
            let events = string_events(&s);
            Record {
                seq: 9,
                unix: 1,
                unix_ms: 1_000,
                event: events[pick % events.len()].clone(),
                span: None,
            }
            .encode()
        };
        let prefixes: Vec<&str> = (1..line.len())
            .filter(|&i| line.is_char_boundary(i))
            .map(|i| &line[..i])
            .filter(|p| !p.trim().is_empty())
            .collect();
        let dir = temp_dir("prefix");
        let path = dir.join("j.jsonl");
        std::fs::write(&path, prefixes.join("\n") + "\n").unwrap();
        let (records, stats) = replay_with_stats(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert!(records.is_empty(), "{:?}", records);
        prop_assert_eq!(
            stats,
            ReplayStats {
                records: 0,
                unknown_kind: 0,
                torn: prefixes.len() as u64,
            }
        );
    }
}
