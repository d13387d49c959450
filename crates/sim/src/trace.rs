//! Event tracing: an optional, bounded log of protocol-level events for
//! post-run analysis and debugging, exportable as JSON lines.
//!
//! Tracing is off by default (high-volume runs shouldn't pay for it);
//! enable it with [`TraceLog::enable`] before the simulation starts.

use crate::engine::SimTime;
use classad::json::write_json_string;
use std::fmt::{self, Write as _};

/// What happened.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// The negotiator matched a request to an offer.
    Match {
        /// Request ad name.
        request: String,
        /// Offer ad name.
        offer: String,
        /// Request's rank of the offer.
        rank: f64,
    },
    /// A provider accepted a claim.
    ClaimAccepted {
        /// Provider name.
        provider: String,
        /// Job id.
        job: u64,
    },
    /// A provider rejected a claim.
    ClaimRejected {
        /// Provider name.
        provider: String,
        /// Rejection cause (display form).
        why: String,
    },
    /// A job finished on a provider.
    JobFinished {
        /// Provider name.
        provider: String,
        /// Job id.
        job: u64,
    },
    /// A running job was vacated.
    Vacated {
        /// Provider name.
        provider: String,
        /// Job id.
        job: u64,
        /// Owner returned (vs preempted by rank).
        by_owner: bool,
    },
    /// A workstation owner arrived or departed.
    OwnerToggle {
        /// Machine name.
        machine: String,
        /// Present after the toggle?
        present: bool,
    },
}

/// A timestamped event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Virtual time (ms).
    pub at: SimTime,
    /// The event.
    pub event: TraceEvent,
}

/// A bounded event log.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    enabled: bool,
    capacity: usize,
    /// Events recorded (oldest first); stops growing at capacity.
    pub records: Vec<TraceRecord>,
    /// Events dropped after the log filled.
    pub dropped: u64,
}

impl TraceLog {
    /// Enable tracing with a record capacity.
    pub fn enable(&mut self, capacity: usize) {
        self.enabled = true;
        self.capacity = capacity;
        self.records.reserve(capacity.min(4096));
    }

    /// Is tracing on?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record an event (no-op when disabled; counts drops when full).
    pub fn record(&mut self, at: SimTime, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.records.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.records.push(TraceRecord { at, event });
    }

    /// Export as JSON lines (one record per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            push_record(&mut out, r);
            out.push('\n');
        }
        out
    }

    /// Events of a given predicate.
    pub fn filter<'a>(
        &'a self,
        pred: impl Fn(&TraceEvent) -> bool + 'a,
    ) -> impl Iterator<Item = &'a TraceRecord> {
        self.records.iter().filter(move |r| pred(&r.event))
    }
}

/// One record as a JSON object: `at`, `type`, the event's string fields,
/// then its scalars.
fn push_record(out: &mut String, r: &TraceRecord) {
    let (kind, strings, scalars): (&str, &[(&str, &str)], String) = match &r.event {
        TraceEvent::Match {
            request,
            offer,
            rank,
        } => (
            "match",
            &[("request", request), ("offer", offer)],
            format!(",\"rank\":{rank}"),
        ),
        TraceEvent::ClaimAccepted { provider, job } => (
            "claim_accepted",
            &[("provider", provider)],
            format!(",\"job\":{job}"),
        ),
        TraceEvent::ClaimRejected { provider, why } => (
            "claim_rejected",
            &[("provider", provider), ("why", why)],
            String::new(),
        ),
        TraceEvent::JobFinished { provider, job } => (
            "job_finished",
            &[("provider", provider)],
            format!(",\"job\":{job}"),
        ),
        TraceEvent::Vacated {
            provider,
            job,
            by_owner,
        } => (
            "vacated",
            &[("provider", provider)],
            format!(",\"job\":{job},\"by_owner\":{by_owner}"),
        ),
        TraceEvent::OwnerToggle { machine, present } => (
            "owner_toggle",
            &[("machine", machine)],
            format!(",\"present\":{present}"),
        ),
    };
    let _ = write!(out, "{{\"at\":{},\"type\":\"{kind}\"", r.at);
    for (key, value) in strings {
        let _ = write!(out, ",\"{key}\":");
        write_json_string(out, value);
    }
    out.push_str(&scalars);
    out.push('}');
}

impl fmt::Display for TraceLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} event(s), {} dropped",
            self.records.len(),
            self.dropped
        )?;
        for r in &self.records {
            writeln!(f, "  [{:>10} ms] {:?}", r.at, r.event)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TraceLog::default();
        log.record(
            1,
            TraceEvent::JobFinished {
                provider: "m".into(),
                job: 1,
            },
        );
        assert!(log.records.is_empty());
        assert_eq!(log.dropped, 0);
    }

    #[test]
    fn capacity_bounds_growth() {
        let mut log = TraceLog::default();
        log.enable(2);
        for i in 0..5 {
            log.record(
                i,
                TraceEvent::JobFinished {
                    provider: "m".into(),
                    job: i,
                },
            );
        }
        assert_eq!(log.records.len(), 2);
        assert_eq!(log.dropped, 3);
        assert_eq!(log.records[0].at, 0);
    }

    #[test]
    fn jsonl_export_shape() {
        let mut log = TraceLog::default();
        log.enable(10);
        log.record(
            5,
            TraceEvent::Match {
                request: "j\"1".into(),
                offer: "m1".into(),
                rank: 2.5,
            },
        );
        log.record(
            9,
            TraceEvent::ClaimRejected {
                provider: "m1".into(),
                why: "busy".into(),
            },
        );
        let out = log.to_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].starts_with("{\"at\":5,\"type\":\"match\""),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("\\\""), "escaped quote: {}", lines[0]);
        assert!(lines[1].contains("claim_rejected"));
        // Valid JSON: reuse the classad JSON parser as an oracle.
        for l in lines {
            classad::json::from_json(l).expect("trace lines are valid JSON objects");
        }
    }

    #[test]
    fn jsonl_export_bytes() {
        let mut log = TraceLog::default();
        log.enable(10);
        let events = [
            TraceEvent::Match {
                request: "j\"1\\\n\u{1}é/\t\r".into(),
                offer: "m1".into(),
                rank: 2.5,
            },
            TraceEvent::ClaimAccepted {
                provider: "m1".into(),
                job: 7,
            },
            TraceEvent::ClaimRejected {
                provider: "m1".into(),
                why: "busy".into(),
            },
            TraceEvent::JobFinished {
                provider: "m1".into(),
                job: 7,
            },
            TraceEvent::Vacated {
                provider: "m1".into(),
                job: 7,
                by_owner: true,
            },
            TraceEvent::OwnerToggle {
                machine: "m1".into(),
                present: false,
            },
        ];
        for (at, event) in (5..).zip(events) {
            log.record(at, event);
        }
        assert_eq!(
            log.to_jsonl(),
            concat!(
                r#"{"at":5,"type":"match","request":"j\"1\\\n\u0001é/\t\r","offer":"m1","rank":2.5}"#,
                "\n",
                r#"{"at":6,"type":"claim_accepted","provider":"m1","job":7}"#,
                "\n",
                r#"{"at":7,"type":"claim_rejected","provider":"m1","why":"busy"}"#,
                "\n",
                r#"{"at":8,"type":"job_finished","provider":"m1","job":7}"#,
                "\n",
                r#"{"at":9,"type":"vacated","provider":"m1","job":7,"by_owner":true}"#,
                "\n",
                r#"{"at":10,"type":"owner_toggle","machine":"m1","present":false}"#,
                "\n",
            )
        );
    }

    #[test]
    fn filter_selects_event_kinds() {
        let mut log = TraceLog::default();
        log.enable(10);
        log.record(
            1,
            TraceEvent::OwnerToggle {
                machine: "m".into(),
                present: true,
            },
        );
        log.record(
            2,
            TraceEvent::JobFinished {
                provider: "m".into(),
                job: 7,
            },
        );
        log.record(
            3,
            TraceEvent::OwnerToggle {
                machine: "m".into(),
                present: false,
            },
        );
        let toggles: Vec<_> = log
            .filter(|e| matches!(e, TraceEvent::OwnerToggle { .. }))
            .collect();
        assert_eq!(toggles.len(), 2);
    }

    #[test]
    fn display_renders() {
        let mut log = TraceLog::default();
        log.enable(10);
        log.record(
            1,
            TraceEvent::JobFinished {
                provider: "m".into(),
                job: 7,
            },
        );
        let s = log.to_string();
        assert!(s.contains("1 event(s)"));
        assert!(s.contains("JobFinished"));
    }
}
