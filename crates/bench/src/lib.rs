//! Provenance stamping for benchmark result files: the commit, the time
//! and the host's CPU count every `pool_bench --out` record starts with
//! (perfbench/, root `BENCHMARK.json`).

use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// The commit the benchmark binary was built from, or `"unknown"` when the
/// tree is not a git checkout (e.g. a source tarball).
pub fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Seconds since the Unix epoch, for the `recorded_unix` artifact field.
pub fn recorded_unix() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// CPUs available to the benchmark process. Any result that depends on
/// threads means little without it, so every record carries it.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The provenance fields every benchmark record starts with, as a
/// JSON fragment (`  "key": value,` lines) ready to splice after the
/// opening brace.
pub fn provenance_fields() -> String {
    format!(
        "  \"git_rev\": \"{}\",\n  \"recorded_unix\": {},\n  \"host_cpus\": {},\n",
        git_rev(),
        recorded_unix(),
        host_cpus()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_is_well_formed() {
        let rev = git_rev();
        assert!(
            rev == "unknown" || (rev.len() == 40 && rev.chars().all(|c| c.is_ascii_hexdigit())),
            "{rev}"
        );
        assert!(recorded_unix() > 1_500_000_000);
        let frag = provenance_fields();
        let json = format!("{{\n{}  \"ok\": true\n}}", frag);
        assert!(json.contains("\"git_rev\": \""));
        assert!(json.contains("\"recorded_unix\": "));
        assert!(json.contains("\"host_cpus\": "));
        assert!(host_cpus() >= 1);
    }
}
