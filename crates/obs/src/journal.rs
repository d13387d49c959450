//! The durable event journal: append-only JSONL with rotation and replay.
//!
//! Each line is one [`Record`] — a monotone sequence number, a unix
//! timestamp, and a typed lifecycle [`Event`] — encoded as a flat JSON
//! object whose values are strings, unsigned integers and booleans. Lines
//! are written field by field with `classad::json`'s string escaper and
//! read back with `classad::json::from_json`, the same reader that decodes
//! wire frames.
//!
//! Rotation is size-based: when the current file would exceed
//! `rotate_bytes`, `journal.jsonl` becomes `journal.jsonl.1`, `.1`
//! becomes `.2`, and so on up to `keep_rotated`; the oldest falls off.
//! After every rotation a retention sweep deletes any generation past
//! `max_rotated` (default: `keep_rotated`), so segments left behind by
//! an earlier run with a looser config are reclaimed instead of growing
//! without bound. [`replay`] walks the rotated files oldest-first, then
//! the current file, yielding records in sequence order.
//!
//! ## Schema versions
//!
//! * **v1** (PR 3): `seq`, `unix` (seconds), `event` + event fields.
//! * **v2** (this layer): adds `v:2`, `unix_ms` (millisecond stamp for
//!   phase timing), and — when the event happened under a trace — the
//!   span coordinates `trace`, `span`, `parent` as 16-hex-digit ids.
//!
//! The decoder is field-presence based, so v1 lines still replay (their
//! `unix_ms` is derived from `unix`, their span is `None`), and v1
//! readers that ignore unknown fields can still read v2 lines.

use crate::trace::{format_id, parse_id, SpanContext};
use classad::json::{from_json, write_json_string};
use classad::{ClassAd, Expr, Literal};
use parking_lot::Mutex;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

/// A typed pool lifecycle event.
///
/// Every variant carries only what is needed to reconstruct the pool's
/// story offline; high-volume detail stays in the metrics registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// An advertisement was accepted into the ad store.
    AdReceived {
        /// `"Provider"` or `"Customer"`.
        kind: String,
        /// The ad's `Name` attribute.
        name: String,
        /// The advertiser's contact address.
        contact: String,
    },
    /// A negotiation cycle finished.
    CycleCompleted {
        /// Requests considered.
        requests: u64,
        /// Offers considered.
        offers: u64,
        /// Matches produced.
        matches: u64,
        /// Requests left unmatched.
        unmatched: u64,
        /// Wall-clock cycle duration, milliseconds.
        duration_ms: u64,
        /// Whether the cycle reused offers cached by an earlier cycle
        /// (incremental path) rather than deriving the whole pool.
        incremental: bool,
    },
    /// The negotiator paired a request with an offer (before delivery of
    /// the notifications; see [`Event::MatchNotified`] for that).
    MatchMade {
        /// The matched request's `Name`.
        request: String,
        /// The matched offer's `Name`.
        offer: String,
    },
    /// The matchmaker sent (or failed to send) a match notification.
    MatchNotified {
        /// The matched request's `Name`.
        request: String,
        /// The matched offer's `Name`.
        offer: String,
        /// Whether the notification dial succeeded.
        delivered: bool,
    },
    /// A provider accepted a claim.
    ClaimEstablished {
        /// The provider's `Name`.
        provider: String,
        /// The claiming customer's `Name`.
        customer: String,
    },
    /// A provider rejected a claim.
    ClaimRejected {
        /// The provider's `Name`.
        provider: String,
        /// The rejected customer's `Name`.
        customer: String,
        /// The provider's stated reason.
        reason: String,
    },
    /// The ad store dropped ads whose leases expired.
    LeaseExpired {
        /// How many ads expired together.
        expired: u64,
    },
    /// A daemon refused an incoming frame.
    FrameRejected {
        /// The peer's socket address (or `"?"` if unknown).
        peer: String,
        /// Why the frame was refused.
        reason: String,
    },
    /// An agent (re)started and reset its soft state.
    AgentRestarted {
        /// `"ResourceAgent"`, `"CustomerAgent"`, or `"MatchmakerDaemon"`.
        agent: String,
        /// The agent's `Name`.
        name: String,
    },
    /// A full-state checkpoint frozen into the journal stream (HA
    /// recovery). The `state` payload is an opaque snapshot — encoded and
    /// decoded by `condor-ha`, not interpreted here — and the counts let
    /// an operator (or `status_query --journal`) gauge the checkpoint
    /// without decoding it. Recovery replays from the **last** checkpoint
    /// plus the records after it (see [`recover`]).
    Checkpoint {
        /// The leadership epoch this checkpoint was taken under (0 for a
        /// non-HA daemon).
        epoch: u64,
        /// How many ads the snapshot holds.
        ads: u64,
        /// How many outstanding match records the snapshot holds.
        matches: u64,
        /// The encoded snapshot payload (opaque to the journal).
        state: String,
    },
    /// A request left unmatched by the local cycle was served by a peer
    /// pool: the origin matchmaker relayed the peer's delegation grant to
    /// the job's customer as an ordinary notification, and the claim
    /// proceeds directly to the remote provider.
    JobFlocked {
        /// The flocked request's `Name` (the cluster representative).
        request: String,
        /// The granted remote provider's `Name`.
        offer: String,
        /// The granting peer pool's matchmaker contact.
        peer: String,
    },
    /// This matchmaker granted one of its free providers to a peer pool's
    /// flocked representative (the remote side of [`Event::JobFlocked`]).
    FlockMatchMade {
        /// The forwarded representative request's `Name`.
        request: String,
        /// The granted local provider's `Name`.
        offer: String,
        /// The originating pool's matchmaker contact.
        origin: String,
    },
    /// The alarm monitor's hysteresis admitted a rule into the firing
    /// state: its constraint held against live telemetry for the required
    /// consecutive intervals. `detail` carries the rule-attribution text —
    /// which conjunct of the rule's constraint tripped, in the same
    /// `label()` format the match analyzer uses — so replay reconstructs
    /// not just *that* an alert fired but *why*.
    AlertRaised {
        /// The firing rule's `Name`.
        rule: String,
        /// The rule's `Severity` (`"critical"`, `"warning"`, ...).
        severity: String,
        /// Attribution: the conjunct that tripped, clipped rule text.
        detail: String,
    },
    /// A firing rule's constraint stopped holding for the required
    /// consecutive intervals and the alarm monitor returned it to ok.
    AlertCleared {
        /// The cleared rule's `Name`.
        rule: String,
        /// The rule's `Severity`.
        severity: String,
    },
    /// A negotiation cycle left requests unmatched and the attribution
    /// pass classified why (one event per cycle, covering every cluster
    /// with unmatched requests).
    CycleRejections {
        /// The cycle's ordinal (matches the `Cycle` attribute of an
        /// `MatchAnalysis` ad taken after the same cycle).
        cycle: u64,
        /// Clusters left with unmatched requests.
        clusters: u64,
        /// Rejected (cluster, offer) pairings classified.
        rejected: u64,
        /// Per-cluster rejection tables, rendered as
        /// `c<id>[names]: reason=count; ...` segments joined by `" | "`
        /// (see `matchmaker::negotiate::ClusterRejections::encode`).
        breakdown: String,
    },
}

impl Event {
    /// The event's type tag as written to the journal.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::AdReceived { .. } => "AdReceived",
            Event::CycleCompleted { .. } => "CycleCompleted",
            Event::MatchMade { .. } => "MatchMade",
            Event::MatchNotified { .. } => "MatchNotified",
            Event::ClaimEstablished { .. } => "ClaimEstablished",
            Event::ClaimRejected { .. } => "ClaimRejected",
            Event::LeaseExpired { .. } => "LeaseExpired",
            Event::FrameRejected { .. } => "FrameRejected",
            Event::AgentRestarted { .. } => "AgentRestarted",
            Event::Checkpoint { .. } => "Checkpoint",
            Event::JobFlocked { .. } => "JobFlocked",
            Event::FlockMatchMade { .. } => "FlockMatchMade",
            Event::AlertRaised { .. } => "AlertRaised",
            Event::AlertCleared { .. } => "AlertCleared",
            Event::CycleRejections { .. } => "CycleRejections",
        }
    }

    /// Whether this reader knows the event kind. A well-formed line whose
    /// kind is unknown came from a newer writer: replay skips and counts
    /// it instead of treating it as a torn write.
    fn known_kind(kind: &str) -> bool {
        matches!(
            kind,
            "AdReceived"
                | "CycleCompleted"
                | "MatchMade"
                | "MatchNotified"
                | "ClaimEstablished"
                | "ClaimRejected"
                | "LeaseExpired"
                | "FrameRejected"
                | "AgentRestarted"
                | "Checkpoint"
                | "JobFlocked"
                | "FlockMatchMade"
                | "AlertRaised"
                | "AlertCleared"
                | "CycleRejections"
        )
    }

    fn fields(&self) -> Vec<(&'static str, FieldValue)> {
        use FieldValue::{Bool, Str, U64};
        match self {
            Event::AdReceived {
                kind,
                name,
                contact,
            } => vec![
                ("kind", Str(kind.clone())),
                ("name", Str(name.clone())),
                ("contact", Str(contact.clone())),
            ],
            Event::CycleCompleted {
                requests,
                offers,
                matches,
                unmatched,
                duration_ms,
                incremental,
            } => vec![
                ("requests", U64(*requests)),
                ("offers", U64(*offers)),
                ("matches", U64(*matches)),
                ("unmatched", U64(*unmatched)),
                ("duration_ms", U64(*duration_ms)),
                ("incremental", Bool(*incremental)),
            ],
            Event::MatchMade { request, offer } => vec![
                ("request", Str(request.clone())),
                ("offer", Str(offer.clone())),
            ],
            Event::MatchNotified {
                request,
                offer,
                delivered,
            } => vec![
                ("request", Str(request.clone())),
                ("offer", Str(offer.clone())),
                ("delivered", Bool(*delivered)),
            ],
            Event::ClaimEstablished { provider, customer } => vec![
                ("provider", Str(provider.clone())),
                ("customer", Str(customer.clone())),
            ],
            Event::ClaimRejected {
                provider,
                customer,
                reason,
            } => vec![
                ("provider", Str(provider.clone())),
                ("customer", Str(customer.clone())),
                ("reason", Str(reason.clone())),
            ],
            Event::LeaseExpired { expired } => vec![("expired", U64(*expired))],
            Event::FrameRejected { peer, reason } => {
                vec![("peer", Str(peer.clone())), ("reason", Str(reason.clone()))]
            }
            Event::AgentRestarted { agent, name } => {
                vec![("agent", Str(agent.clone())), ("name", Str(name.clone()))]
            }
            Event::Checkpoint {
                epoch,
                ads,
                matches,
                state,
            } => vec![
                ("epoch", U64(*epoch)),
                ("ads", U64(*ads)),
                ("matches", U64(*matches)),
                ("state", Str(state.clone())),
            ],
            Event::JobFlocked {
                request,
                offer,
                peer,
            } => vec![
                ("request", Str(request.clone())),
                ("offer", Str(offer.clone())),
                ("peer", Str(peer.clone())),
            ],
            Event::FlockMatchMade {
                request,
                offer,
                origin,
            } => vec![
                ("request", Str(request.clone())),
                ("offer", Str(offer.clone())),
                ("origin", Str(origin.clone())),
            ],
            Event::AlertRaised {
                rule,
                severity,
                detail,
            } => vec![
                ("rule", Str(rule.clone())),
                ("severity", Str(severity.clone())),
                ("detail", Str(detail.clone())),
            ],
            Event::AlertCleared { rule, severity } => vec![
                ("rule", Str(rule.clone())),
                ("severity", Str(severity.clone())),
            ],
            Event::CycleRejections {
                cycle,
                clusters,
                rejected,
                breakdown,
            } => vec![
                ("cycle", U64(*cycle)),
                ("clusters", U64(*clusters)),
                ("rejected", U64(*rejected)),
                ("breakdown", Str(breakdown.clone())),
            ],
        }
    }

    fn from_fields(kind: &str, obj: &ClassAd) -> Option<Event> {
        Some(match kind {
            "AdReceived" => Event::AdReceived {
                kind: obj.str("kind")?,
                name: obj.str("name")?,
                contact: obj.str("contact")?,
            },
            "CycleCompleted" => Event::CycleCompleted {
                requests: obj.u64("requests")?,
                offers: obj.u64("offers")?,
                matches: obj.u64("matches")?,
                unmatched: obj.u64("unmatched")?,
                duration_ms: obj.u64("duration_ms")?,
                // Journals written before incremental cycles lack the field.
                incremental: obj.bool("incremental").unwrap_or(false),
            },
            "MatchMade" => Event::MatchMade {
                request: obj.str("request")?,
                offer: obj.str("offer")?,
            },
            "MatchNotified" => Event::MatchNotified {
                request: obj.str("request")?,
                offer: obj.str("offer")?,
                delivered: obj.bool("delivered")?,
            },
            "ClaimEstablished" => Event::ClaimEstablished {
                provider: obj.str("provider")?,
                customer: obj.str("customer")?,
            },
            "ClaimRejected" => Event::ClaimRejected {
                provider: obj.str("provider")?,
                customer: obj.str("customer")?,
                reason: obj.str("reason")?,
            },
            "LeaseExpired" => Event::LeaseExpired {
                expired: obj.u64("expired")?,
            },
            "FrameRejected" => Event::FrameRejected {
                peer: obj.str("peer")?,
                reason: obj.str("reason")?,
            },
            "AgentRestarted" => Event::AgentRestarted {
                agent: obj.str("agent")?,
                name: obj.str("name")?,
            },
            "Checkpoint" => Event::Checkpoint {
                epoch: obj.u64("epoch")?,
                ads: obj.u64("ads")?,
                matches: obj.u64("matches")?,
                state: obj.str("state")?,
            },
            "JobFlocked" => Event::JobFlocked {
                request: obj.str("request")?,
                offer: obj.str("offer")?,
                peer: obj.str("peer")?,
            },
            "FlockMatchMade" => Event::FlockMatchMade {
                request: obj.str("request")?,
                offer: obj.str("offer")?,
                origin: obj.str("origin")?,
            },
            "AlertRaised" => Event::AlertRaised {
                rule: obj.str("rule")?,
                severity: obj.str("severity")?,
                detail: obj.str("detail")?,
            },
            "AlertCleared" => Event::AlertCleared {
                rule: obj.str("rule")?,
                severity: obj.str("severity")?,
            },
            "CycleRejections" => Event::CycleRejections {
                cycle: obj.u64("cycle")?,
                clusters: obj.u64("clusters")?,
                rejected: obj.u64("rejected")?,
                breakdown: obj.str("breakdown")?,
            },
            _ => return None,
        })
    }
}

/// One journal line: sequence number, wall-clock stamps, typed event,
/// and (for events that happened under a trace) span coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Monotone per-journal sequence number, starting at 1.
    pub seq: u64,
    /// Unix seconds when the event was appended.
    pub unix: u64,
    /// Unix milliseconds when the event was appended (schema v2; derived
    /// from `unix` when replaying v1 lines).
    pub unix_ms: u64,
    /// The event itself.
    pub event: Event,
    /// The span this event was recorded under, if it is part of a trace.
    pub span: Option<SpanContext>,
}

impl Record {
    /// Encode as one schema-v2 JSONL line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut line = String::with_capacity(128);
        line.push('{');
        push_field(&mut line, "v", &FieldValue::U64(2));
        line.push(',');
        push_field(&mut line, "seq", &FieldValue::U64(self.seq));
        line.push(',');
        push_field(&mut line, "unix", &FieldValue::U64(self.unix));
        line.push(',');
        push_field(&mut line, "unix_ms", &FieldValue::U64(self.unix_ms));
        if let Some(span) = &self.span {
            line.push(',');
            push_field(
                &mut line,
                "trace",
                &FieldValue::Str(format_id(span.trace_id)),
            );
            line.push(',');
            push_field(&mut line, "span", &FieldValue::Str(format_id(span.span_id)));
            line.push(',');
            push_field(
                &mut line,
                "parent",
                &FieldValue::Str(format_id(span.parent_span_id)),
            );
        }
        line.push(',');
        push_field(
            &mut line,
            "event",
            &FieldValue::Str(self.event.kind().to_string()),
        );
        for (k, v) in self.event.fields() {
            line.push(',');
            push_field(&mut line, k, &v);
        }
        line.push('}');
        line
    }

    /// Decode one line of either schema version; `None` on torn or
    /// foreign content *and* on well-formed lines of an unknown event
    /// kind (use [`decode_line`] to tell the two apart).
    pub fn decode(line: &str) -> Option<Record> {
        match decode_line(line) {
            DecodedLine::Record(rec) => Some(rec),
            _ => None,
        }
    }

    fn from_object(obj: &ClassAd) -> Option<Record> {
        let event = Event::from_fields(&obj.str("event")?, obj)?;
        let unix = obj.u64("unix")?;
        let unix_ms = obj.u64("unix_ms").unwrap_or(unix.saturating_mul(1000));
        let span = match (obj.str("trace"), obj.str("span")) {
            (Some(trace), Some(span)) => Some(SpanContext {
                trace_id: parse_id(&trace)?,
                span_id: parse_id(&span)?,
                parent_span_id: obj.str("parent").map(|p| parse_id(&p)).unwrap_or(Some(0))?,
            }),
            _ => None,
        };
        Some(Record {
            seq: obj.u64("seq")?,
            unix,
            unix_ms,
            event,
            span,
        })
    }
}

/// How one journal line classified during replay.
#[derive(Debug)]
enum DecodedLine {
    /// A well-formed record of a known event kind.
    Record(Record),
    /// Well-formed JSON with an `event` tag this reader does not know —
    /// a newer writer's event. The line's sequence number (when present)
    /// still advances the journal position so the writer never reuses it.
    UnknownKind {
        /// The skipped line's `seq` field, if it had one.
        seq: Option<u64>,
    },
    /// Torn write, foreign content, or a known kind with missing fields.
    Torn,
}

fn decode_line(line: &str) -> DecodedLine {
    let Ok(obj) = from_json(line) else {
        return DecodedLine::Torn;
    };
    // A journal line is flat: any other value marks foreign content.
    let flat = obj.iter().all(|(_, v)| match v.as_ref() {
        Expr::Lit(Literal::Str(_) | Literal::Bool(_)) => true,
        Expr::Lit(Literal::Int(n)) => *n >= 0,
        _ => false,
    });
    if !flat {
        return DecodedLine::Torn;
    }
    let Some(kind) = obj.str("event") else {
        return DecodedLine::Torn;
    };
    if !Event::known_kind(&kind) {
        return DecodedLine::UnknownKind {
            seq: obj.u64("seq"),
        };
    }
    match Record::from_object(&obj) {
        Some(rec) => DecodedLine::Record(rec),
        None => DecodedLine::Torn,
    }
}

/// What [`Journal::append_traced`] reports back: the record as stamped,
/// and whether the line actually reached the OS (`written == false`
/// means the event was dropped at the I/O layer and only the error
/// counter remembers it).
#[derive(Debug, Clone)]
pub struct Appended {
    /// The record as written (or as it would have been written).
    pub record: Record,
    /// `false` when the write failed and the event was dropped.
    pub written: bool,
}

/// Where the journal lives and when it rotates.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Path of the current journal file (e.g. `pool/journal.jsonl`).
    /// Rotated generations live next to it as `<path>.1`, `<path>.2`, ...
    pub path: PathBuf,
    /// Rotate before an append would push the current file past this size.
    pub rotate_bytes: u64,
    /// How many rotated generations to keep (0 = delete on rotation).
    pub keep_rotated: usize,
    /// Hard ceiling on rotated generations on disk. After every rotation
    /// the journal sweeps `<path>.n` for `n` beyond this cap — deleting
    /// even stale segments written by an earlier run with a larger
    /// `keep_rotated`. `None` (the default) caps at `keep_rotated`.
    pub max_rotated: Option<usize>,
    /// Durability knob: when `true`, every append is `fsync`ed to disk
    /// before returning, and a filling segment is synced once more before
    /// it is renamed away at rotation. Appends already reach the OS
    /// unbuffered (`write_all` + `flush`), which survives a daemon crash;
    /// the sync additionally survives power loss, at the cost of one
    /// `fsync` per event. Alerting daemons set this so a raise/clear
    /// sequence can always be reconstructed from replay. Default `false`.
    pub sync_on_rotate: bool,
}

impl JournalConfig {
    /// A journal at `path` with defaults good for tests and small pools:
    /// rotate at 1 MiB, keep 3 generations.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        JournalConfig {
            path: path.into(),
            rotate_bytes: 1 << 20,
            keep_rotated: 3,
            max_rotated: None,
            sync_on_rotate: false,
        }
    }
}

/// An append-only, size-rotated event journal. Cheap to share: appends
/// serialize on an internal mutex, and every append reaches the OS before
/// the call returns (`BufWriter`-free by design — events are rare and
/// durability is the point).
#[derive(Debug)]
pub struct Journal {
    cfg: JournalConfig,
    inner: Mutex<JournalInner>,
}

#[derive(Debug)]
struct JournalInner {
    file: File,
    bytes: u64,
    seq: u64,
    io_errors: u64,
    unknown_kind: u64,
}

impl Journal {
    /// Open (or create) the journal at `cfg.path`, resuming the sequence
    /// number after the last decodable record in the current file.
    pub fn open(cfg: JournalConfig) -> std::io::Result<Journal> {
        if let Some(dir) = cfg.path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut seq = 0;
        let mut unknown_kind = 0;
        if let Ok(file) = File::open(&cfg.path) {
            for line in BufReader::new(file).lines() {
                let Ok(line) = line else { break };
                match decode_line(&line) {
                    DecodedLine::Record(rec) => seq = seq.max(rec.seq),
                    // A newer writer's event: skip it, but honor its
                    // sequence number so this writer never reuses it.
                    DecodedLine::UnknownKind { seq: s } => {
                        unknown_kind += 1;
                        if let Some(s) = s {
                            seq = seq.max(s);
                        }
                    }
                    DecodedLine::Torn => {}
                }
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&cfg.path)?;
        let bytes = file.metadata()?.len();
        Ok(Journal {
            cfg,
            inner: Mutex::new(JournalInner {
                file,
                bytes,
                seq,
                io_errors: 0,
                unknown_kind,
            }),
        })
    }

    /// Append one untraced event. See [`Journal::append_traced`].
    pub fn append(&self, event: Event) -> Record {
        self.append_traced(event, None).record
    }

    /// Append one event under an optional span, stamping the next
    /// sequence number and the current unix time. I/O failures are
    /// counted (see [`Journal::io_errors`]) and reported via
    /// [`Appended::written`] but never panic or poison the journal:
    /// observability must not take the pool down.
    pub fn append_traced(&self, event: Event, span: Option<SpanContext>) -> Appended {
        let unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let mut inner = self.inner.lock();
        inner.seq += 1;
        let record = Record {
            seq: inner.seq,
            unix: unix_ms / 1000,
            unix_ms,
            event,
            span,
        };
        let mut line = record.encode();
        line.push('\n');
        if inner.bytes + line.len() as u64 > self.cfg.rotate_bytes && inner.bytes > 0 {
            if let Err(_e) = self.rotate(&mut inner) {
                inner.io_errors += 1;
            }
        }
        let synced = |file: &File| {
            if self.cfg.sync_on_rotate {
                file.sync_data()
            } else {
                Ok(())
            }
        };
        let written = match inner
            .file
            .write_all(line.as_bytes())
            .and_then(|()| inner.file.flush())
            .and_then(|()| synced(&inner.file))
        {
            Ok(()) => {
                inner.bytes += line.len() as u64;
                true
            }
            Err(_) => {
                inner.io_errors += 1;
                false
            }
        };
        Appended { record, written }
    }

    /// Shift `<path>.(n)` → `<path>.(n+1)` (dropping the oldest) and start
    /// a fresh current file.
    fn rotate(&self, inner: &mut JournalInner) -> std::io::Result<()> {
        // Make the outgoing segment durable before it is renamed away:
        // after this, its records can never be lost to a crash mid-shift.
        if self.cfg.sync_on_rotate {
            inner.file.sync_all()?;
        }
        if self.cfg.keep_rotated == 0 {
            inner.file = File::create(&self.cfg.path)?;
            inner.bytes = 0;
            self.sweep_rotated()?;
            return Ok(());
        }
        let gen_path = |n: usize| -> PathBuf {
            let mut s = self.cfg.path.as_os_str().to_os_string();
            s.push(format!(".{n}"));
            PathBuf::from(s)
        };
        let oldest = gen_path(self.cfg.keep_rotated);
        if oldest.exists() {
            std::fs::remove_file(&oldest)?;
        }
        for n in (1..self.cfg.keep_rotated).rev() {
            let from = gen_path(n);
            if from.exists() {
                std::fs::rename(&from, gen_path(n + 1))?;
            }
        }
        std::fs::rename(&self.cfg.path, gen_path(1))?;
        inner.file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.cfg.path)?;
        inner.bytes = 0;
        self.sweep_rotated()?;
        Ok(())
    }

    /// Delete rotated generations beyond the retention cap
    /// (`max_rotated`, defaulting to `keep_rotated`). The shift in
    /// [`Journal::rotate`] only touches generations it created, so
    /// without this sweep a journal reopened with a smaller
    /// `keep_rotated` would carry its old tail forever.
    fn sweep_rotated(&self) -> std::io::Result<()> {
        let cap = self.cfg.max_rotated.unwrap_or(self.cfg.keep_rotated);
        let dir = match self.cfg.path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => std::path::Path::new("."),
        };
        let Some(name) = self.cfg.path.file_name().and_then(|n| n.to_str()) else {
            return Ok(());
        };
        let prefix = format!("{name}.");
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let file_name = entry.file_name();
            let Some(file_name) = file_name.to_str() else {
                continue;
            };
            let stale = file_name
                .strip_prefix(&prefix)
                .and_then(|suffix| suffix.parse::<usize>().ok())
                .is_some_and(|n| n > cap);
            if stale {
                std::fs::remove_file(entry.path())?;
            }
        }
        Ok(())
    }

    /// The next append's sequence number minus one: how many records this
    /// journal has ever written (across rotations).
    pub fn position(&self) -> u64 {
        self.inner.lock().seq
    }

    /// How many appends or rotations failed at the I/O layer.
    pub fn io_errors(&self) -> u64 {
        self.inner.lock().io_errors
    }

    /// How many well-formed lines of an unknown event kind the current
    /// file held at open time — evidence a newer writer shares (or
    /// shared) this journal. Surfaced in daemon self-ads as
    /// `JournalUnknownKind`.
    pub fn unknown_kind(&self) -> u64 {
        self.inner.lock().unknown_kind
    }

    /// The journal's current file path.
    pub fn path(&self) -> &Path {
        &self.cfg.path
    }
}

/// What [`replay_with_stats`] saw while walking the journal files, beyond
/// the records it returned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Records decoded and returned.
    pub records: u64,
    /// Well-formed lines of an event kind this reader does not know,
    /// skipped and counted — a newer writer's events stay replayable by
    /// older readers without poisoning the rest of the file.
    pub unknown_kind: u64,
    /// Lines that failed to decode at all (torn writes, foreign content).
    pub torn: u64,
}

/// Read every decodable record for the journal at `path`: rotated
/// generations first (oldest to newest), then the current file. Lines
/// that fail to parse (torn writes, foreign content) are skipped —
/// replay is best-effort reconstruction, not validation. Equivalent to
/// [`replay_with_stats`] with the stats discarded.
pub fn replay(path: impl AsRef<Path>) -> std::io::Result<Vec<Record>> {
    replay_with_stats(path).map(|(records, _)| records)
}

/// Like [`replay`], also reporting how many lines were skipped and why —
/// distinguishing a newer writer's unknown event kinds (forward
/// compatibility, counted in [`ReplayStats::unknown_kind`]) from torn or
/// foreign content.
pub fn replay_with_stats(path: impl AsRef<Path>) -> std::io::Result<(Vec<Record>, ReplayStats)> {
    let path = path.as_ref();
    let mut generations: Vec<PathBuf> = Vec::new();
    for n in 1.. {
        let mut s = path.as_os_str().to_os_string();
        s.push(format!(".{n}"));
        let p = PathBuf::from(s);
        if p.exists() {
            generations.push(p);
        } else {
            break;
        }
    }
    generations.reverse(); // highest generation = oldest records
    generations.push(path.to_path_buf());
    let mut records = Vec::new();
    let mut stats = ReplayStats::default();
    for p in generations {
        let Ok(file) = File::open(&p) else { continue };
        for line in BufReader::new(file).lines() {
            let line = line?;
            match decode_line(&line) {
                DecodedLine::Record(rec) => {
                    stats.records += 1;
                    records.push(rec);
                }
                DecodedLine::UnknownKind { .. } => stats.unknown_kind += 1,
                DecodedLine::Torn => {
                    // A trailing empty line is an artifact of
                    // line-buffered writes, not a torn record.
                    if !line.trim().is_empty() {
                        stats.torn += 1;
                    }
                }
            }
        }
    }
    Ok((records, stats))
}

/// What a recovering daemon reconstructs from a journal: the last
/// checkpoint (if any) plus the records appended after it — the
/// "last-checkpoint-plus-tail" cursor an HA standby replays before
/// answering its first cycle as leader.
#[derive(Debug, Clone)]
pub struct Recovery {
    /// The payload of the newest [`Event::Checkpoint`], `None` when the
    /// journal holds no checkpoint (recovery then relies on agents'
    /// natural re-advertising alone).
    pub state: Option<String>,
    /// The sequence number of that checkpoint record (0 when none).
    pub checkpoint_seq: u64,
    /// The leadership epoch the checkpoint was taken under (0 when none).
    pub epoch: u64,
    /// Every record strictly after the checkpoint, in replay order (the
    /// whole journal when there is no checkpoint).
    pub tail: Vec<Record>,
    /// Replay health over the full walk.
    pub stats: ReplayStats,
}

/// Walk the journal at `path` (rotated generations included) and position
/// a recovery cursor at the **last** [`Event::Checkpoint`]: its payload
/// plus everything after it. This is the restart path of an HA leader —
/// restore the checkpoint, then apply the tail.
pub fn recover(path: impl AsRef<Path>) -> std::io::Result<Recovery> {
    let (records, stats) = replay_with_stats(path)?;
    let mut cut = 0usize;
    let mut state = None;
    let mut checkpoint_seq = 0;
    let mut epoch = 0;
    for (i, rec) in records.iter().enumerate() {
        if let Event::Checkpoint {
            epoch: e, state: s, ..
        } = &rec.event
        {
            cut = i + 1;
            state = Some(s.clone());
            checkpoint_seq = rec.seq;
            epoch = *e;
        }
    }
    Ok(Recovery {
        state,
        checkpoint_seq,
        epoch,
        tail: records[cut..].to_vec(),
        stats,
    })
}

// ---- line fields ----
//
// A line is written field by field rather than through a `ClassAd`, which
// would cost an ad per append; strings go through `classad::json`'s
// escaper, so the bytes are those `to_json` would write.

#[derive(Debug)]
enum FieldValue {
    Str(String),
    U64(u64),
    Bool(bool),
}

fn push_field(out: &mut String, key: &str, v: &FieldValue) {
    write_json_string(out, key);
    out.push(':');
    match v {
        FieldValue::Str(s) => write_json_string(out, s),
        FieldValue::U64(n) => {
            use fmt::Write as _;
            let _ = write!(out, "{n}");
        }
        FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

/// Typed reads of a decoded line's fields; a field of another type reads
/// as absent.
trait LineFields {
    fn str(&self, key: &str) -> Option<String>;
    fn u64(&self, key: &str) -> Option<u64>;
    fn bool(&self, key: &str) -> Option<bool>;
}

impl LineFields for ClassAd {
    fn str(&self, key: &str) -> Option<String> {
        self.get_string(key).map(str::to_owned)
    }

    fn u64(&self, key: &str) -> Option<u64> {
        u64::try_from(self.get_int(key)?).ok()
    }

    fn bool(&self, key: &str) -> Option<bool> {
        match self.get(key)?.as_ref() {
            Expr::Lit(Literal::Bool(b)) => Some(*b),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("condor-obs-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_events() -> Vec<Event> {
        vec![
            Event::AdReceived {
                kind: "Provider".into(),
                name: "ra-\"quoted\"\n".into(),
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
                request: "job-1".into(),
                offer: "ra-1".into(),
            },
            Event::MatchNotified {
                request: "job-1".into(),
                offer: "ra-1".into(),
                delivered: true,
            },
            Event::ClaimEstablished {
                provider: "ra-1".into(),
                customer: "alice".into(),
            },
            Event::ClaimRejected {
                provider: "ra-2".into(),
                customer: "bob".into(),
                reason: "stale ticket".into(),
            },
            Event::LeaseExpired { expired: 4 },
            Event::FrameRejected {
                peer: "10.0.0.7:1234".into(),
                reason: "bad tag 99".into(),
            },
            Event::AgentRestarted {
                agent: "CustomerAgent".into(),
                name: "alice".into(),
            },
            Event::Checkpoint {
                epoch: 3,
                ads: 12,
                matches: 1,
                state: "snapshot v1\nad \"with\\quotes\"\tand tabs".into(),
            },
            Event::JobFlocked {
                request: "job-1".into(),
                offer: "remote-ra".into(),
                peer: "10.0.0.9:9614".into(),
            },
            Event::FlockMatchMade {
                request: "job-9".into(),
                offer: "ra-3".into(),
                origin: "10.0.0.2:9614".into(),
            },
            Event::CycleRejections {
                cycle: 3,
                clusters: 2,
                rejected: 7,
                breakdown: "c0[j1+j2]: ReqFalse(request): other.Mips >= 1000=4 | c1[j9]: Busy=3"
                    .into(),
            },
            Event::AlertRaised {
                rule: "MatchmakerDown".into(),
                severity: "critical".into(),
                detail: "ReqFalse(rule): other.SourceAbsent == true".into(),
            },
            Event::AlertCleared {
                rule: "MatchmakerDown".into(),
                severity: "critical".into(),
            },
        ]
    }

    #[test]
    fn every_event_round_trips_through_a_line() {
        for (i, event) in sample_events().into_iter().enumerate() {
            let span = (i % 2 == 0).then_some(SpanContext {
                trace_id: 0xDEAD_BEEF + i as u64,
                span_id: 42 + i as u64,
                parent_span_id: i as u64, // 0 on the first: root spans encode too
            });
            let rec = Record {
                seq: i as u64 + 1,
                unix: 1_700_000_000,
                unix_ms: 1_700_000_000_123,
                event,
                span,
            };
            let line = rec.encode();
            let back = Record::decode(&line).unwrap_or_else(|| panic!("decode failed: {line}"));
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn v1_lines_still_decode() {
        let line = "{\"seq\":7,\"unix\":1700000000,\"event\":\"LeaseExpired\",\"expired\":3}";
        let rec = Record::decode(line).unwrap();
        assert_eq!(rec.seq, 7);
        assert_eq!(rec.unix, 1_700_000_000);
        assert_eq!(rec.unix_ms, 1_700_000_000_000, "derived from unix seconds");
        assert_eq!(rec.span, None);
        assert_eq!(rec.event, Event::LeaseExpired { expired: 3 });
    }

    #[test]
    fn append_traced_stamps_the_span_and_reports_written() {
        let dir = temp_dir("traced");
        let cfg = JournalConfig::new(dir.join("j.jsonl"));
        let j = Journal::open(cfg).unwrap();
        let span = SpanContext {
            trace_id: 0xAB,
            span_id: 0xCD,
            parent_span_id: 0,
        };
        let out = j.append_traced(Event::LeaseExpired { expired: 1 }, Some(span));
        assert!(out.written);
        assert!(out.record.unix_ms >= out.record.unix * 1000);
        let recs = replay(j.path()).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].span, Some(span));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn append_resumes_sequence_after_reopen() {
        let dir = temp_dir("resume");
        let cfg = JournalConfig::new(dir.join("j.jsonl"));
        {
            let j = Journal::open(cfg.clone()).unwrap();
            j.append(Event::LeaseExpired { expired: 1 });
            j.append(Event::LeaseExpired { expired: 2 });
            assert_eq!(j.position(), 2);
        }
        let j = Journal::open(cfg).unwrap();
        let rec = j.append(Event::LeaseExpired { expired: 3 });
        assert_eq!(rec.seq, 3);
        let recs = replay(j.path()).unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(
            recs.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn rotation_keeps_bounded_generations_and_replay_orders_them() {
        let dir = temp_dir("rotate");
        let path = dir.join("j.jsonl");
        let cfg = JournalConfig {
            path: path.clone(),
            rotate_bytes: 200,
            keep_rotated: 2,
            max_rotated: None,
            sync_on_rotate: false,
        };
        let j = Journal::open(cfg).unwrap();
        for i in 0..40 {
            j.append(Event::LeaseExpired { expired: i });
        }
        assert!(path.exists());
        let gen1 = PathBuf::from(format!("{}.1", path.display()));
        let gen2 = PathBuf::from(format!("{}.2", path.display()));
        let gen3 = PathBuf::from(format!("{}.3", path.display()));
        assert!(gen1.exists() && gen2.exists());
        assert!(
            !gen3.exists(),
            "keep_rotated = 2 must bound the generations"
        );
        let recs = replay(&path).unwrap();
        // Oldest generations fell off, but what remains is contiguous,
        // in order, and ends with the newest record.
        assert!(recs.len() < 40);
        assert!(recs.windows(2).all(|w| w[1].seq == w[0].seq + 1));
        assert_eq!(recs.last().unwrap().seq, 40);
        assert_eq!(j.io_errors(), 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn max_rotated_sweeps_stale_generations() {
        let dir = temp_dir("sweep");
        let path = dir.join("j.jsonl");
        let gen = |n: usize| PathBuf::from(format!("{}.{n}", path.display()));
        // A previous deployment ran with a looser keep_rotated and left
        // six generations behind; this run caps retention at three.
        for n in 1..=6 {
            std::fs::write(gen(n), b"stale\n").unwrap();
        }
        std::fs::write(dir.join("unrelated.txt"), b"keep me\n").unwrap();
        let j = Journal::open(JournalConfig {
            path: path.clone(),
            rotate_bytes: 200,
            keep_rotated: 2,
            max_rotated: Some(3),
            sync_on_rotate: false,
        })
        .unwrap();
        for i in 0..40 {
            j.append(Event::LeaseExpired { expired: i });
        }
        // The shift window still maintains .1/.2; the sweep reclaimed
        // every generation past the cap but spared unrelated siblings.
        assert!(gen(1).exists() && gen(2).exists());
        for n in 4..=6 {
            assert!(!gen(n).exists(), "generation {n} must be swept");
        }
        assert!(dir.join("unrelated.txt").exists());
        assert_eq!(j.io_errors(), 0);
        // Replay still works: stale lines in surviving old generations
        // are skipped as torn, and live records stay in order.
        let recs = replay(&path).unwrap();
        assert!(recs.windows(2).all(|w| w[1].seq == w[0].seq + 1));
        assert_eq!(recs.last().unwrap().seq, 40);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn sync_on_rotate_keeps_rotation_and_replay_intact() {
        // The durability knob must not perturb the journal's observable
        // behavior: every record survives (sync happens before the rename
        // window), generations stay bounded, and no I/O error is counted.
        let dir = temp_dir("sync");
        let path = dir.join("j.jsonl");
        let j = Journal::open(JournalConfig {
            path: path.clone(),
            rotate_bytes: 256,
            // Keep every generation: the assertion is that nothing is
            // lost, and a generation falling off the end would lose
            // records by design.
            keep_rotated: 64,
            max_rotated: None,
            sync_on_rotate: true,
        })
        .unwrap();
        for i in 0..30 {
            let out = j.append_traced(
                Event::AlertRaised {
                    rule: format!("rule-{i}"),
                    severity: "warning".into(),
                    detail: "detail".into(),
                },
                None,
            );
            assert!(out.written, "synced append {i} must report written");
        }
        assert_eq!(j.io_errors(), 0);
        let recs = replay(&path).unwrap();
        assert_eq!(recs.len(), 30);
        assert!(recs.windows(2).all(|w| w[1].seq == w[0].seq + 1));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn replay_skips_torn_and_foreign_lines() {
        let dir = temp_dir("torn");
        let path = dir.join("j.jsonl");
        let cfg = JournalConfig::new(path.clone());
        let j = Journal::open(cfg.clone()).unwrap();
        j.append(Event::LeaseExpired { expired: 1 });
        drop(j);
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        writeln!(f, "{{\"seq\":2,\"unix\":0,\"event\":\"LeaseExp").unwrap(); // torn
        writeln!(f, "not json at all").unwrap();
        drop(f);
        let j = Journal::open(cfg).unwrap();
        j.append(Event::LeaseExpired { expired: 9 });
        let recs = replay(&path).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].event, Event::LeaseExpired { expired: 9 });
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn only_flat_lines_of_strings_naturals_and_booleans_decode() {
        let line = |tail: &str| format!("{{\"seq\":5,\"unix\":1,\"event\":{tail}}}");
        for torn in [
            r#""LeaseExpired","expired":-1"#,
            r#""LeaseExpired","expired":1.0"#,
            r#""LeaseExpired","expired":9223372036854775808"#,
            r#""LeaseExpired","expired":1,"unix_ms":-1"#,
            r#""LeaseExpired","expired":1,"note":null"#,
            r#""LeaseExpired","expired":1,"note":[1]"#,
            r#""LeaseExpired","expired":1,"note":{"a":1}"#,
            r#""QuantumFlux","level":{"$expr":"1 + 2"}"#,
        ] {
            let line = line(torn);
            assert!(matches!(decode_line(&line), DecodedLine::Torn), "{line}");
        }
        let expired = |tail: &str| match decode_line(&line(tail)) {
            DecodedLine::Record(Record {
                event: Event::LeaseExpired { expired },
                ..
            }) => Some(expired),
            _ => None,
        };
        assert_eq!(expired(r#""LeaseExpired","EXPIRED":3"#), Some(3));
        assert_eq!(
            expired(r#""LeaseExpired","expired":3,"expired":4"#),
            Some(4)
        );
        let rec = Record::decode(&line(
            r#""AgentRestarted","agent":"a","name":"\ud83d\ude00""#,
        ));
        assert!(matches!(
            rec.map(|r| r.event),
            Some(Event::AgentRestarted { name, .. }) if name == "😀"
        ));
    }

    #[test]
    fn unknown_event_kinds_are_skipped_and_counted() {
        let dir = temp_dir("unknown");
        let path = dir.join("j.jsonl");
        let cfg = JournalConfig::new(path.clone());
        let j = Journal::open(cfg.clone()).unwrap();
        j.append(Event::LeaseExpired { expired: 1 });
        drop(j);
        // A future writer appends events this reader has never heard of,
        // advancing the sequence past what we know.
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        writeln!(
            f,
            "{{\"v\":2,\"seq\":2,\"unix\":0,\"unix_ms\":0,\"event\":\"QuantumFlux\",\"level\":9}}"
        )
        .unwrap();
        writeln!(
            f,
            "{{\"v\":2,\"seq\":3,\"unix\":0,\"unix_ms\":0,\"event\":\"QuantumFlux\",\"level\":10}}"
        )
        .unwrap();
        writeln!(f, "genuinely torn garba").unwrap();
        drop(f);
        // Replay keeps the known record and classifies the rest.
        let (recs, stats) = replay_with_stats(&path).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(
            stats,
            ReplayStats {
                records: 1,
                unknown_kind: 2,
                torn: 1,
            }
        );
        // Reopening honors the foreign sequence numbers (no reuse) and
        // remembers how many lines it could not interpret.
        let j = Journal::open(cfg).unwrap();
        assert_eq!(j.unknown_kind(), 2);
        let rec = j.append(Event::LeaseExpired { expired: 2 });
        assert_eq!(rec.seq, 4, "seq resumes after the unknown kinds");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn recover_positions_the_cursor_after_the_last_checkpoint() {
        let dir = temp_dir("recover");
        let cfg = JournalConfig::new(dir.join("j.jsonl"));
        let j = Journal::open(cfg).unwrap();
        j.append(Event::LeaseExpired { expired: 1 });
        j.append(Event::Checkpoint {
            epoch: 1,
            ads: 5,
            matches: 0,
            state: "first".into(),
        });
        j.append(Event::LeaseExpired { expired: 2 });
        j.append(Event::Checkpoint {
            epoch: 2,
            ads: 7,
            matches: 1,
            state: "second".into(),
        });
        j.append(Event::LeaseExpired { expired: 3 });
        j.append(Event::MatchMade {
            request: "j1".into(),
            offer: "m1".into(),
        });
        let rec = recover(j.path()).unwrap();
        assert_eq!(rec.state.as_deref(), Some("second"));
        assert_eq!(rec.checkpoint_seq, 4);
        assert_eq!(rec.epoch, 2);
        assert_eq!(rec.tail.len(), 2, "only records after the checkpoint");
        assert_eq!(rec.tail[0].event, Event::LeaseExpired { expired: 3 });
        assert_eq!(rec.stats.records, 6);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn recover_without_checkpoint_returns_the_whole_journal() {
        let dir = temp_dir("recover-nocp");
        let cfg = JournalConfig::new(dir.join("j.jsonl"));
        let j = Journal::open(cfg).unwrap();
        j.append(Event::LeaseExpired { expired: 1 });
        j.append(Event::LeaseExpired { expired: 2 });
        let rec = recover(j.path()).unwrap();
        assert_eq!(rec.state, None);
        assert_eq!(rec.checkpoint_seq, 0);
        assert_eq!(rec.tail.len(), 2);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn checkpoint_payload_with_newlines_survives_the_line_format() {
        let state = "line1\nline2\twith\"quotes\"\\and\\slashes\nline3".to_string();
        let rec = Record {
            seq: 1,
            unix: 1_700_000_000,
            unix_ms: 1_700_000_000_000,
            event: Event::Checkpoint {
                epoch: 9,
                ads: 2,
                matches: 0,
                state: state.clone(),
            },
            span: None,
        };
        let line = rec.encode();
        assert!(!line.contains('\n'), "one record stays one line");
        let back = Record::decode(&line).unwrap();
        let Event::Checkpoint { state: decoded, .. } = back.event else {
            panic!("wrong kind")
        };
        assert_eq!(decoded, state);
    }

    #[test]
    fn cycle_rejections_round_trip_breakdown_verbatim() {
        let breakdown =
            "c0[never]: ReqFalse(request): other.Mips >= 1000=2; Undef(offer): Gpus=1".to_string();
        let rec = Record {
            seq: 1,
            unix: 1_700_000_000,
            unix_ms: 1_700_000_000_500,
            event: Event::CycleRejections {
                cycle: 12,
                clusters: 1,
                rejected: 3,
                breakdown: breakdown.clone(),
            },
            span: None,
        };
        let back = Record::decode(&rec.encode()).unwrap();
        let Event::CycleRejections {
            breakdown: decoded, ..
        } = back.event
        else {
            panic!("wrong kind")
        };
        assert_eq!(decoded, breakdown);
    }
}
