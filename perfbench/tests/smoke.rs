//! Smoke test: every workload runs end to end for one second, untraced
//! and traced, prints every metric `BENCHMARK.json` declares with its
//! unit, fails no operation, passes its correctness gate, and leaves a
//! trace file that parses.
//!
//! One test function on purpose: the runs are timing-sensitive and must
//! not share the host's two cores with each other.

use classad::{json, ClassAd, Expr};
use perfbench::report::{Decl, END_TO_END, PER_LAYER};
use perfbench::workloads::Workload;
use std::process::Command;

/// Pool sizes for the smoke run: the large pools shrunk so ten runs fit
/// in a few seconds each. (`--machines` is an argument of the harness for
/// this test; the benchmark itself always runs the declared sizes.)
fn machines(w: Workload) -> Option<&'static str> {
    match w {
        Workload::BigPool => Some("2048"),
        Workload::AdIngest | Workload::StatusQuery => Some("512"),
        Workload::Fig3Paced | Workload::Fig3Saturated => None,
    }
}

fn run(w: Workload, trace: bool, trace_dir: &str) -> ClassAd {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pool_bench"));
    cmd.args(["--workload", w.name(), "--seed", "11", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--trace-dir", trace_dir]);
    if let Some(n) = machines(w) {
        cmd.args(["--machines", n]);
    }
    // In a one-second window a single stall of the host trips the
    // open-loop lateness gate; `pool_bench` measures such a run again
    // itself.
    let out = cmd.output().expect("pool_bench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{} trace={trace} exited {:?}\n{stdout}\n{}",
        w.name(),
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    json::from_json(last).unwrap_or_else(|e| panic!("{}: result line `{last}`: {e}", w.name()))
}

fn assert_declared(result: &ClassAd, declared: &[Decl], what: &str) {
    assert_eq!(
        result.get("correct").map(|e| e.to_string()),
        Some("true".into()),
        "{what}"
    );
    assert_eq!(result.get_int("failed"), Some(0), "{what}");
    assert!(result.get_int("attempted").unwrap() >= 1, "{what}");
    let Some(Expr::Record(metrics)) = result.get("metrics").map(|e| e.as_ref()) else {
        panic!("{what}: no metrics object");
    };
    assert_eq!(
        metrics.len(),
        declared.len(),
        "{what}: exactly the declared metrics"
    );
    for decl in declared {
        let entry = metrics
            .iter()
            .find(|(name, _)| name.as_str() == decl.name)
            .unwrap_or_else(|| panic!("{what}: metric {} missing", decl.name));
        let Expr::Record(fields) = &entry.1 else {
            panic!("{what}: {} is not an object", decl.name);
        };
        let field = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| k.as_str() == key)
                .map(|(_, v)| v)
        };
        assert_eq!(
            field("unit").map(|u| u.to_string()),
            Some(format!("\"{}\"", decl.unit)),
            "{what}: unit of {}",
            decl.name
        );
        assert!(
            field("value").is_some(),
            "{what}: {} has no value",
            decl.name
        );
    }
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-traces");
    let trace_dir = dir.to_str().expect("utf-8 target dir").to_string();
    for w in Workload::ALL {
        let e2e = run(w, false, &trace_dir);
        assert_declared(&e2e, &END_TO_END, &format!("{} end to end", w.name()));

        let layers = run(w, true, &trace_dir);
        assert_declared(&layers, &PER_LAYER, &format!("{} traced", w.name()));

        let trace = std::fs::read_to_string(dir.join(format!("trace-{}.jsonl", w.name())))
            .expect("the traced run wrote its trace file");
        assert!(!trace.is_empty(), "{}: empty trace", w.name());
        for line in trace.lines() {
            let span = json::from_json(line).expect("a trace line parses");
            let (start, end) = (
                span.get_int("start_ns").unwrap(),
                span.get_int("end_ns").unwrap(),
            );
            assert!(start <= end, "{line}");
            assert!(
                span.get_string("name").is_some() && span.get_int("txn").is_some(),
                "{line}"
            );
            assert!(span.contains("parent"), "{line}");
        }
    }
}
