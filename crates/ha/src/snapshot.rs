//! The checkpoint codec: a matchmaker's full soft state as one string.
//!
//! A checkpoint must travel as the `state` field of a journal
//! `Checkpoint` record — a single JSON string on a single JSONL line —
//! so the codec here is deliberately plain: one record per line, fields
//! separated by single spaces, every variable-length field
//! percent-escaped so it can never contain a space or a newline. No
//! serde, no nested JSON escaping problems; classads themselves ride as
//! their canonical JSON form (one escaped field each).
//!
//! Ranks are encoded as the hexadecimal IEEE-754 bit pattern, so the
//! decode returns *bit-identical* floats (the deterministic rank
//! tie-break keys survive a failover).
//!
//! The header is `poolsnap v1 <shards> <pinned> <next_seq>`. The two
//! middle fields once carried the store's shard layout; the store has
//! none now, so they are written as `8 0`, the layout a store of that
//! time started with, and only checked on read. Checkpoints therefore
//! stay interchangeable with daemons that still read a layout.

use classad::json::{from_json, to_json};
use matchmaker::negotiate::MatchRecord;
use matchmaker::protocol::{EntityKind, TraceContext};
use matchmaker::ticket::Ticket;
use matchmaker::{StoreSnapshot, StoredAd};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The largest shard count a checkpoint header may carry. Far above any
/// layout a store ever had (65 536 shards held about 67 M provider ads):
/// a larger count is corruption, and a daemon that still builds the
/// layout would allocate itself to death restoring it.
const MAX_SHARDS: u64 = 65_536;

/// The header's layout fields as written: the default layout.
const HEADER_LAYOUT: &str = "8 0";

/// Everything a standby needs to stand in for a dead leader: the ad
/// store's full state plus any matches made but possibly not yet
/// notified when the checkpoint was cut.
#[derive(Debug, Clone)]
pub struct PoolSnapshot {
    /// The ad store: sequence counter and every stored ad.
    pub store: StoreSnapshot,
    /// Matches in flight at checkpoint time (made this cycle, delivery
    /// not yet confirmed). Soft state: a lost notification only costs
    /// the parties one re-advertise.
    pub matches: Vec<MatchRecord>,
}

/// Why a checkpoint string failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The header line is missing or malformed.
    Header(String),
    /// A record line is malformed.
    Line {
        /// 1-based line number within the snapshot string.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Header(reason) => write!(f, "bad snapshot header: {reason}"),
            SnapshotError::Line { line, reason } => {
                write!(f, "bad snapshot line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Percent-escape so the result contains no spaces, newlines, or other
/// control bytes: `%`, space, and every byte below `0x21` become `%XX`.
/// Multi-byte UTF-8 passes through untouched (all its bytes are above
/// `0x7f`).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if c == '%' || c <= ' ' {
            let b = c as u32;
            out.push('%');
            out.push(char::from_digit(b >> 4, 16).unwrap());
            out.push(char::from_digit(b & 0xf, 16).unwrap());
        } else {
            out.push(c);
        }
    }
    out
}

/// Reverse [`esc`]. `None` on truncated or non-hex escapes or invalid
/// UTF-8 (possible only for corrupt input).
fn unesc(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hi = (*bytes.get(i + 1)? as char).to_digit(16)?;
            let lo = (*bytes.get(i + 2)? as char).to_digit(16)?;
            out.push(((hi << 4) | lo) as u8);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

fn encode_ticket(t: &Option<Ticket>) -> String {
    match t {
        None => "-".into(),
        Some(t) => format!("={:x}", t.raw()),
    }
}

fn decode_ticket(tok: &str) -> Result<Option<Ticket>, String> {
    match tok.strip_prefix('=') {
        None if tok == "-" => Ok(None),
        None => Err(format!("bad ticket token {tok:?}")),
        Some(hex) => u128::from_str_radix(hex, 16)
            .map(|raw| Some(Ticket::from_raw(raw)))
            .map_err(|e| format!("bad ticket {tok:?}: {e}")),
    }
}

fn encode_trace(t: &Option<TraceContext>) -> String {
    match t {
        None => "-".into(),
        Some(ctx) => format!("={:x}:{:x}", ctx.trace_id, ctx.parent_span_id),
    }
}

fn decode_trace(tok: &str) -> Result<Option<TraceContext>, String> {
    match tok.strip_prefix('=') {
        None if tok == "-" => Ok(None),
        None => Err(format!("bad trace token {tok:?}")),
        Some(body) => {
            let (tid, psid) = body
                .split_once(':')
                .ok_or_else(|| format!("bad trace {tok:?}"))?;
            let trace_id =
                u64::from_str_radix(tid, 16).map_err(|e| format!("bad trace id: {e}"))?;
            let parent_span_id =
                u64::from_str_radix(psid, 16).map_err(|e| format!("bad span id: {e}"))?;
            Ok(Some(TraceContext {
                trace_id,
                parent_span_id,
            }))
        }
    }
}

/// `-` for `None`, `=<escaped>` for `Some` — an escaped literal `"-"`
/// can never be confused with the absent marker.
fn encode_opt_str(s: &Option<String>) -> String {
    match s {
        None => "-".into(),
        Some(v) => format!("={}", esc(v)),
    }
}

fn decode_opt_str(tok: &str) -> Result<Option<String>, String> {
    match tok.strip_prefix('=') {
        None if tok == "-" => Ok(None),
        None => Err(format!("bad optional-string token {tok:?}")),
        Some(body) => unesc(body)
            .map(Some)
            .ok_or_else(|| format!("bad escape in {tok:?}")),
    }
}

fn decode_str(tok: &str) -> Result<String, String> {
    unesc(tok).ok_or_else(|| format!("bad escape in {tok:?}"))
}

fn decode_u64(tok: &str) -> Result<u64, String> {
    tok.parse().map_err(|e| format!("bad integer {tok:?}: {e}"))
}

fn decode_rank(tok: &str) -> Result<f64, String> {
    u64::from_str_radix(tok, 16)
        .map(f64::from_bits)
        .map_err(|e| format!("bad rank bits {tok:?}: {e}"))
}

fn decode_ad(tok: &str) -> Result<Arc<classad::ClassAd>, String> {
    let json = unesc(tok).ok_or_else(|| "bad escape in ad field".to_string())?;
    from_json(&json)
        .map(Arc::new)
        .map_err(|e| format!("bad classad json: {e}"))
}

impl PoolSnapshot {
    /// Encode the snapshot as the opaque `state` string of a journal
    /// `Checkpoint` record.
    pub fn encode(&self) -> String {
        let mut out = format!("poolsnap v1 {HEADER_LAYOUT} {}\n", self.store.next_seq);
        for ad in &self.store.ads {
            let kind = match ad.kind {
                EntityKind::Provider => 'p',
                EntityKind::Customer => 'c',
            };
            out.push_str(&format!(
                "ad {kind} {} {} {} {} {} {} {}\n",
                ad.seq,
                ad.expires_at,
                encode_ticket(&ad.ticket),
                encode_trace(&ad.trace),
                esc(&ad.name),
                esc(&ad.contact),
                esc(&to_json(&ad.ad)),
            ));
        }
        for m in &self.matches {
            out.push_str(&format!(
                "match {:x} {:x} {} {} {} {} {} {} {} {} {} {}\n",
                m.request_rank.to_bits(),
                m.offer_rank.to_bits(),
                encode_ticket(&m.ticket),
                encode_trace(&m.trace),
                esc(&m.request_name),
                esc(&m.owner),
                esc(&m.customer_contact),
                esc(&m.offer_name),
                esc(&m.provider_contact),
                encode_opt_str(&m.preempts),
                esc(&to_json(&m.request_ad)),
                esc(&to_json(&m.offer_ad)),
            ));
        }
        out
    }

    /// Decode a checkpoint string produced by [`encode`](Self::encode).
    pub fn decode(src: &str) -> Result<PoolSnapshot, SnapshotError> {
        let mut lines = src.lines().enumerate();
        let (_, header) = lines
            .next()
            .ok_or_else(|| SnapshotError::Header("empty snapshot".into()))?;
        let head: Vec<&str> = header.split(' ').collect();
        if head.len() != 5 || head[0] != "poolsnap" {
            return Err(SnapshotError::Header(format!("unrecognized: {header:?}")));
        }
        if head[1] != "v1" {
            return Err(SnapshotError::Header(format!(
                "unsupported version {:?}",
                head[1]
            )));
        }
        let fail = |line: usize, reason: String| SnapshotError::Line {
            line: line + 1,
            reason,
        };
        let shards = decode_u64(head[2]).map_err(SnapshotError::Header)?;
        if shards > MAX_SHARDS {
            return Err(SnapshotError::Header(format!(
                "shard count {shards} exceeds {MAX_SHARDS}"
            )));
        }
        if !matches!(head[3], "0" | "1") {
            return Err(SnapshotError::Header(format!(
                "bad pinned flag {:?}",
                head[3]
            )));
        }
        let next_seq = decode_u64(head[4]).map_err(SnapshotError::Header)?;

        let mut ads = Vec::new();
        let mut matches = Vec::new();
        for (idx, line) in lines {
            if line.is_empty() {
                continue;
            }
            let toks: Vec<&str> = line.split(' ').collect();
            match toks[0] {
                "ad" => {
                    if toks.len() != 9 {
                        return Err(fail(idx, format!("ad record has {} fields", toks.len())));
                    }
                    let kind = match toks[1] {
                        "p" => EntityKind::Provider,
                        "c" => EntityKind::Customer,
                        other => return Err(fail(idx, format!("bad ad kind {other:?}"))),
                    };
                    ads.push(StoredAd {
                        kind,
                        seq: decode_u64(toks[2]).map_err(|e| fail(idx, e))?,
                        expires_at: decode_u64(toks[3]).map_err(|e| fail(idx, e))?,
                        ticket: decode_ticket(toks[4]).map_err(|e| fail(idx, e))?,
                        trace: decode_trace(toks[5]).map_err(|e| fail(idx, e))?,
                        name: decode_str(toks[6]).map_err(|e| fail(idx, e))?,
                        contact: decode_str(toks[7]).map_err(|e| fail(idx, e))?,
                        ad: decode_ad(toks[8]).map_err(|e| fail(idx, e))?,
                        encoded: OnceLock::new(),
                    });
                }
                "match" => {
                    if toks.len() != 13 {
                        return Err(fail(idx, format!("match record has {} fields", toks.len())));
                    }
                    matches.push(MatchRecord {
                        request_rank: decode_rank(toks[1]).map_err(|e| fail(idx, e))?,
                        offer_rank: decode_rank(toks[2]).map_err(|e| fail(idx, e))?,
                        ticket: decode_ticket(toks[3]).map_err(|e| fail(idx, e))?,
                        trace: decode_trace(toks[4]).map_err(|e| fail(idx, e))?,
                        request_name: decode_str(toks[5]).map_err(|e| fail(idx, e))?,
                        owner: decode_str(toks[6]).map_err(|e| fail(idx, e))?,
                        customer_contact: decode_str(toks[7]).map_err(|e| fail(idx, e))?,
                        offer_name: decode_str(toks[8]).map_err(|e| fail(idx, e))?,
                        provider_contact: decode_str(toks[9]).map_err(|e| fail(idx, e))?,
                        preempts: decode_opt_str(toks[10]).map_err(|e| fail(idx, e))?,
                        request_ad: decode_ad(toks[11]).map_err(|e| fail(idx, e))?,
                        offer_ad: decode_ad(toks[12]).map_err(|e| fail(idx, e))?,
                    });
                }
                other => return Err(fail(idx, format!("unknown record kind {other:?}"))),
            }
        }
        Ok(PoolSnapshot {
            store: StoreSnapshot { next_seq, ads },
            matches,
        })
    }

    /// The journal record carrying this snapshot: counts up front so
    /// `status_query --journal` can gauge a checkpoint without decoding
    /// the payload.
    pub fn checkpoint_event(&self, epoch: u64) -> condor_obs::Event {
        condor_obs::Event::Checkpoint {
            epoch,
            ads: self.store.ads.len() as u64,
            matches: self.matches.len() as u64,
            state: self.encode(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ad(src: &str) -> Arc<classad::ClassAd> {
        Arc::new(classad::parse_classad(src).unwrap())
    }

    fn sample() -> PoolSnapshot {
        let mut weird = classad::ClassAd::new();
        weird.set_str("Name", "m 1%\n\ttab");
        weird.set_int("Mips", 104);
        PoolSnapshot {
            store: StoreSnapshot {
                next_seq: 99,
                ads: vec![
                    StoredAd {
                        name: "m 1%\n\ttab".into(),
                        kind: EntityKind::Provider,
                        ad: Arc::new(weird),
                        contact: "127.0.0.1:9614".into(),
                        ticket: Some(Ticket::from_raw(u128::MAX - 7)),
                        expires_at: 1234,
                        seq: 7,
                        trace: Some(TraceContext {
                            trace_id: 0xdead_beef,
                            parent_span_id: 0,
                        }),
                        encoded: OnceLock::new(),
                    },
                    StoredAd {
                        name: "j-üñí".into(),
                        kind: EntityKind::Customer,
                        ad: ad(r#"[ Name = "j"; Owner = "raman" ]"#),
                        contact: "".into(),
                        ticket: None,
                        expires_at: u64::MAX,
                        seq: 8,
                        trace: None,
                        encoded: OnceLock::new(),
                    },
                ],
            },
            matches: vec![MatchRecord {
                request_name: "j-üñí".into(),
                owner: "raman".into(),
                request_ad: ad(r#"[ Name = "j" ]"#),
                customer_contact: "ca:1".into(),
                offer_name: "m 1".into(),
                offer_ad: ad(r#"[ Name = "m 1" ]"#),
                provider_contact: "m:1".into(),
                ticket: Some(Ticket::from_raw(42)),
                request_rank: f64::NAN,
                offer_rank: -0.0,
                preempts: Some("-".into()),
                trace: None,
            }],
        }
    }

    #[test]
    fn snapshot_roundtrips_every_field_exactly() {
        let snap = sample();
        let encoded = snap.encode();
        assert!(encoded.starts_with("poolsnap v1 8 0 99\n"), "{encoded}");
        let back = PoolSnapshot::decode(&encoded).unwrap();
        assert_eq!(back.store.next_seq, 99);
        assert_eq!(back.store.ads.len(), 2);
        for (orig, got) in snap.store.ads.iter().zip(&back.store.ads) {
            assert_eq!(orig.name, got.name);
            assert_eq!(orig.kind, got.kind);
            assert_eq!(orig.contact, got.contact);
            assert_eq!(orig.ticket, got.ticket);
            assert_eq!(orig.expires_at, got.expires_at);
            assert_eq!(orig.seq, got.seq);
            assert_eq!(orig.trace, got.trace);
            assert_eq!(to_json(&orig.ad), to_json(&got.ad));
        }
        let (orig, got) = (&snap.matches[0], &back.matches[0]);
        assert_eq!(orig.request_name, got.request_name);
        assert_eq!(orig.owner, got.owner);
        assert_eq!(orig.preempts, got.preempts, "literal \"-\" survives");
        assert_eq!(
            orig.request_rank.to_bits(),
            got.request_rank.to_bits(),
            "NaN roundtrips bit-exactly"
        );
        assert_eq!(orig.offer_rank.to_bits(), got.offer_rank.to_bits());
        assert_eq!(orig.ticket, got.ticket);
    }

    #[test]
    fn the_encoding_is_journal_safe() {
        // The whole point: a snapshot full of spaces, newlines, and
        // percent signs must survive as ONE journal Checkpoint field.
        let event = sample().checkpoint_event(3);
        let condor_obs::Event::Checkpoint {
            epoch,
            ads,
            matches,
            ref state,
        } = event
        else {
            panic!("wrong event kind");
        };
        assert_eq!((epoch, ads, matches), (3, 2, 1));
        let back = PoolSnapshot::decode(state).unwrap();
        assert_eq!(back.store.ads[0].name, "m 1%\n\ttab");
    }

    #[test]
    fn corrupt_payloads_fail_with_located_errors() {
        assert!(matches!(
            PoolSnapshot::decode(""),
            Err(SnapshotError::Header(_))
        ));
        assert!(matches!(
            PoolSnapshot::decode("poolsnap v9 1 0 0\n"),
            Err(SnapshotError::Header(_))
        ));
        let err = PoolSnapshot::decode("poolsnap v1 1 0 0\nad p oops\n").unwrap_err();
        assert!(matches!(err, SnapshotError::Line { line: 2, .. }), "{err}");
        let err = PoolSnapshot::decode("poolsnap v1 1 0 0\nblob x\n").unwrap_err();
        assert!(err.to_string().contains("unknown record kind"), "{err}");
        // A hostile shard count is refused: a daemon that still builds
        // the layout would allocate that many shards.
        for count in [u64::MAX, MAX_SHARDS + 1] {
            let err = PoolSnapshot::decode(&format!("poolsnap v1 {count} 0 0\n")).unwrap_err();
            assert!(matches!(err, SnapshotError::Header(_)), "{err}");
        }
        let max = PoolSnapshot::decode(&format!("poolsnap v1 {MAX_SHARDS} 1 0\n")).unwrap();
        assert!(max.store.ads.is_empty());
        let err = PoolSnapshot::decode("poolsnap v1 x 0 0\n").unwrap_err();
        assert!(err.to_string().contains("bad integer"), "{err}");
        let err = PoolSnapshot::decode("poolsnap v1 8 2 0\n").unwrap_err();
        assert!(err.to_string().contains("bad pinned flag"), "{err}");
    }

    /// A checkpoint as a daemon wrote it while the store still had a
    /// shard layout: an auto-scaled store of 16 shards left with two
    /// providers and one customer.
    const LAYOUT_ERA_CHECKPOINT: &str = r#"poolsnap v1 16 0 8196
ad p 8194 7200 =123456789abcdef00fedcba987654321 =feedf00d:7 Leonardo 127.0.0.1:9008 {"Name":"Leonardo","Type":"Machine","Arch":"INTEL","OpSys":"SOLARIS251","Mips":104,"Memory":64,"Constraint":{"$expr":"other.Type%20==%20\"Job\"%20&&%20other.Owner%20!=%20\"riffraff\""},"Rank":{"$expr":"other.Department%20==%20\"CompSci\""}}
ad p 8195 7300 - - raphael 127.0.0.1:9007 {"Name":"raphael","Type":"Machine","Arch":"SPARC","Mips":75,"Memory":128,"Constraint":{"$expr":"other.Type%20==%20\"Job\""},"Rank":0}
ad c 8196 9000 - - job-1 127.0.0.1:9005 {"Name":"job-1","Type":"Job","Owner":"raman","Memory":31,"Constraint":{"$expr":"other.Type%20==%20\"Machine\"%20&&%20other.Memory%20>=%20self.Memory"},"Rank":{"$expr":"other.Mips"}}
"#;

    #[test]
    fn checkpoints_written_before_the_single_table_restore() {
        use matchmaker::AdStore;
        let snap = PoolSnapshot::decode(LAYOUT_ERA_CHECKPOINT).unwrap();
        let store = AdStore::restore_state(&snap.store);
        assert_eq!(store.len(), 3);
        let leo = store.get(EntityKind::Provider, "leonardo").unwrap();
        assert_eq!((leo.seq, leo.expires_at), (8194, 7200));
        assert_eq!(leo.contact, "127.0.0.1:9008");
        assert_eq!(
            leo.ticket,
            Some(Ticket::from_raw(0x1234_5678_9abc_def0_0fed_cba9_8765_4321))
        );
        assert_eq!(
            leo.trace,
            Some(TraceContext {
                trace_id: 0xfeed_f00d,
                parent_span_id: 7,
            })
        );
        let raphael = store.get(EntityKind::Provider, "raphael").unwrap();
        assert_eq!((raphael.seq, raphael.ticket), (8195, None));
        let job = store.get(EntityKind::Customer, "job-1").unwrap();
        assert_eq!((job.seq, job.expires_at), (8196, 9000));
        // Written again, the checkpoint differs only in its header's
        // layout fields: every ad and the sequence counter came through.
        let again = PoolSnapshot {
            store: store.snapshot_state(),
            matches: vec![],
        }
        .encode();
        assert_eq!(
            again,
            LAYOUT_ERA_CHECKPOINT.replacen("poolsnap v1 16 0 ", "poolsnap v1 8 0 ", 1)
        );
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let snap = PoolSnapshot {
            store: StoreSnapshot {
                next_seq: 1,
                ads: vec![],
            },
            matches: vec![],
        };
        let back = PoolSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(back.store.next_seq, 1);
        assert!(back.store.ads.is_empty());
        assert!(back.matches.is_empty());
    }
}
