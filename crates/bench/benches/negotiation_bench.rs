//! E3 — matchmaker scalability: negotiation-cycle cost vs pool size, the
//! sharded parallel-scan ablation, and the incremental small-delta series.
//!
//! The paper argues the stateless matchmaker "makes the system more
//! scalable"; the measurable claims here are (a) a from-scratch cycle is a
//! linear scan per request, embarrassingly parallel over the offers, and
//! (b) when only a small fraction of the pool changed between cycles, an
//! incremental cycle evaluates only the changed ads, so its latency tracks
//! the delta, not the pool.

use criterion::{criterion_group, BenchmarkId, Criterion};
use matchmaker::negotiate::NegotiatorConfig;
use matchmaker::prelude::*;

fn machine_adv(i: usize) -> Advertisement {
    let ad = classad::parse_classad(&format!(
        r#"[ Name = "m{i}"; Type = "Machine"; Mips = {mips}; Memory = {mem};
             Arch = "{arch}"; State = "Unclaimed";
             Constraint = other.Type == "Job" && other.Memory <= Memory;
             Rank = 0 ]"#,
        mips = 50 + (i * 13) % 100,
        mem = 32 << (i % 3),
        arch = if i.is_multiple_of(4) {
            "SPARC"
        } else {
            "INTEL"
        },
    ))
    .unwrap();
    Advertisement {
        kind: EntityKind::Provider,
        ad,
        contact: format!("m{i}:9614"),
        ticket: None,
        expires_at: u64::MAX,
    }
}

fn job_adv(i: usize) -> Advertisement {
    let ad = classad::parse_classad(&format!(
        r#"[ Name = "j{i}"; Type = "Job"; Owner = "user{owner}"; Memory = {mem};
             Constraint = other.Type == "Machine" && other.Arch == "INTEL"
                          && other.Memory >= self.Memory;
             Rank = other.Mips ]"#,
        owner = i % 8,
        mem = 16 << (i % 3),
    ))
    .unwrap();
    Advertisement {
        kind: EntityKind::Customer,
        ad,
        contact: format!("ca{}:1", i % 8),
        ticket: None,
        expires_at: u64::MAX,
    }
}

fn build_store_with(machines: usize, jobs: usize, shards: Option<usize>) -> AdStore {
    let proto = AdvertisingProtocol::default();
    let mut store = match shards {
        Some(n) => AdStore::with_shards(n),
        None => AdStore::new(),
    };
    for i in 0..machines {
        store.advertise(machine_adv(i), 0, &proto).unwrap();
    }
    for i in 0..jobs {
        store.advertise(job_adv(i), 0, &proto).unwrap();
    }
    store
}

fn build_store(machines: usize, jobs: usize) -> AdStore {
    build_store_with(machines, jobs, None)
}

fn bench_pool_size_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("negotiation_cycle_vs_pool");
    g.sample_size(10);
    for machines in [64_usize, 256, 1024, 4096] {
        let store = build_store(machines, 32);
        g.bench_with_input(
            BenchmarkId::new("machines", machines),
            &store,
            |b, store| {
                b.iter(|| {
                    let mut neg = Negotiator::default();
                    neg.negotiate(store, 0)
                })
            },
        );
    }
    g.finish();
}

fn bench_job_batch_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("negotiation_cycle_vs_jobs");
    g.sample_size(10);
    for jobs in [8_usize, 32, 128] {
        let store = build_store(512, jobs);
        g.bench_with_input(BenchmarkId::new("jobs", jobs), &store, |b, store| {
            b.iter(|| {
                let mut neg = Negotiator::default();
                neg.negotiate(store, 0)
            })
        });
    }
    g.finish();
}

/// The parallel-scan ablation: a from-scratch cycle over a 4096-machine
/// pool on the full-scan path, whose per-cluster match-list builds fan out
/// across `threads` workers. (The incremental path evaluates only a
/// cycle's delta and does not read `threads`.)
fn bench_parallel_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel_scan_ablation");
    g.sample_size(10);
    let store = build_store(4096, 16);
    for threads in [1_usize, 2, 4, 8] {
        g.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let mut neg = Negotiator::new(NegotiatorConfig {
                        threads,
                        incremental: false,
                        ..Default::default()
                    });
                    neg.negotiate(&store, 0)
                })
            },
        );
    }
    g.finish();
}

/// The same cold incremental cycle over the same pool, once with the store
/// pinned to a single shard and once with the auto-scaled layout. Shards
/// only bound how much of the store a warm cycle re-reads; a cold cycle
/// derives every ad either way, so the two should not differ.
fn bench_sharded_vs_unsharded(c: &mut Criterion) {
    let mut g = c.benchmark_group("sharded_vs_unsharded");
    g.sample_size(10);
    let unsharded = build_store_with(4096, 16, Some(1));
    let sharded = build_store(4096, 16);
    for (label, store) in [("unsharded", &unsharded), ("sharded", &sharded)] {
        g.bench_with_input(BenchmarkId::new(label, 4096), store, |b, store| {
            b.iter(|| {
                let mut neg = Negotiator::default();
                neg.negotiate(store, 0)
            })
        });
    }
    g.finish();
}

/// A machine re-advertisement whose attributes actually changed, so the
/// store admits it as a new ad instead of treating it as a lease renewal.
fn perturbed_machine_adv(i: usize, bump: u64) -> Advertisement {
    let mut adv = machine_adv(i);
    let ad = classad::parse_classad(&format!(
        r#"[ Name = "m{i}"; Type = "Machine"; Mips = {mips}; Memory = {mem};
             Arch = "{arch}"; State = "Unclaimed";
             Constraint = other.Type == "Job" && other.Memory <= Memory;
             Rank = 0 ]"#,
        mips = 50 + (i as u64 * 13 + bump) % 100,
        mem = 32 << (i % 3),
        arch = if i.is_multiple_of(4) {
            "SPARC"
        } else {
            "INTEL"
        },
    ))
    .unwrap();
    adv.ad = ad;
    adv
}

/// The incremental-cycle headline: a warm pool where only 8 machines
/// re-advertise with changed attributes between cycles. The incremental
/// negotiator re-reads the shards those 8 ads hash into and evaluates the
/// 8 ads; the full-scan configuration re-derives the whole cycle. For a fixed delta
/// the incremental series should stay roughly flat as the pool grows from
/// 4k to 100k machines, while full-scan cost grows linearly.
fn bench_incremental_small_delta(c: &mut Criterion) {
    let mut g = c.benchmark_group("incremental_small_delta");
    g.sample_size(10);
    let proto = AdvertisingProtocol::default();
    for machines in [4096_usize, 32_768, 100_000] {
        for incremental in [true, false] {
            let label = if incremental {
                "incremental"
            } else {
                "full_scan"
            };
            let mut store = build_store(machines, 32);
            let mut neg = Negotiator::new(NegotiatorConfig {
                incremental,
                ..Default::default()
            });
            // Warm the caches: the delta series measures steady state.
            neg.negotiate(&store, 0);
            let mut bump = 0u64;
            g.bench_function(BenchmarkId::new(label, machines), |b| {
                b.iter(|| {
                    bump += 1;
                    for k in 0..8_usize {
                        let i = k * (machines / 8) + (bump as usize % 97);
                        store
                            .advertise(perturbed_machine_adv(i, bump), 0, &proto)
                            .unwrap();
                    }
                    neg.negotiate(&store, 0)
                })
            });
        }
    }
    g.finish();
}

/// One member of an N-users × M-identical-jobs batch: every job carries
/// the same Constraint/Rank and the same attribute values those read, so
/// autoclustering folds the whole batch into one equivalence class.
fn clustered_job_adv(i: usize, users: usize) -> Advertisement {
    let ad = classad::parse_classad(&format!(
        r#"[ Name = "j{i}"; Type = "Job"; Owner = "user{owner}"; Memory = 16;
             Constraint = other.Type == "Machine" && other.Memory >= self.Memory;
             Rank = other.Mips ]"#,
        owner = i % users,
    ))
    .unwrap();
    Advertisement {
        kind: EntityKind::Customer,
        ad,
        contact: format!("ca{}:1", i % users),
        ticket: None,
        expires_at: u64::MAX,
    }
}

fn build_clustered_store(machines: usize, jobs: usize, users: usize) -> AdStore {
    let proto = AdvertisingProtocol::default();
    let mut store = AdStore::new();
    for i in 0..machines {
        store.advertise(machine_adv(i), 0, &proto).unwrap();
    }
    for i in 0..jobs {
        store
            .advertise(clustered_job_adv(i, users), 0, &proto)
            .unwrap();
    }
    store
}

/// The headline ablation for the autocluster + match-list fast path: a
/// redundant workload (8 users × identical jobs) negotiated with
/// clustering on vs off. The off path pays one full scan per request; the
/// on path pays one scan per *cluster*.
fn bench_clustered_workload(c: &mut Criterion) {
    let mut g = c.benchmark_group("clustered_workload");
    g.sample_size(10);
    for (machines, jobs) in [(256_usize, 256_usize), (1000, 1000)] {
        let store = build_clustered_store(machines, jobs, 8);
        for autocluster in [true, false] {
            let label = if autocluster {
                "autocluster_on"
            } else {
                "autocluster_off"
            };
            g.bench_with_input(
                BenchmarkId::new(label, format!("{machines}x{jobs}")),
                &store,
                |b, store| {
                    b.iter(|| {
                        let mut neg = Negotiator::new(NegotiatorConfig {
                            autocluster,
                            ..Default::default()
                        });
                        neg.negotiate(store, 0)
                    })
                },
            );
        }
    }
    g.finish();
}

/// A job that can never match: fodder for the attribution post-pass,
/// which only runs over unmatched clusters.
fn unmatchable_job_adv(i: usize) -> Advertisement {
    let ad = classad::parse_classad(&format!(
        r#"[ Name = "u{i}"; Type = "Job"; Owner = "user{owner}"; Memory = 16;
             Constraint = other.Type == "Machine" && other.Arch == "ALPHA"
                          && other.Mips >= 100000;
             Rank = other.Mips ]"#,
        owner = i % 8,
    ))
    .unwrap();
    Advertisement {
        kind: EntityKind::Customer,
        ad,
        contact: format!("ca{}:1", i % 8),
        ticket: None,
        expires_at: u64::MAX,
    }
}

/// Match-failure attribution on vs off over a workload where half the
/// jobs can never match. Attribution re-traces one representative per
/// unmatched autocluster after the cycle; the off configuration is the
/// pre-attribution negotiator, so its time must sit within noise of the
/// seed measurements.
fn bench_attribution_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("attribution_ablation");
    g.sample_size(10);
    let proto = AdvertisingProtocol::default();
    let mut store = AdStore::new();
    for i in 0..512 {
        store.advertise(machine_adv(i), 0, &proto).unwrap();
    }
    for i in 0..32 {
        store.advertise(job_adv(i), 0, &proto).unwrap();
        store.advertise(unmatchable_job_adv(i), 0, &proto).unwrap();
    }
    for attribution in [true, false] {
        let label = if attribution {
            "attribution_on"
        } else {
            "attribution_off"
        };
        g.bench_with_input(BenchmarkId::new(label, "512x64"), &store, |b, store| {
            b.iter(|| {
                let mut neg = Negotiator::new(NegotiatorConfig {
                    attribution,
                    ..Default::default()
                });
                neg.negotiate(store, 0)
            })
        });
    }
    g.finish();
}

/// Flocking's negotiator-side hook on vs off over the same half-
/// unmatchable workload. With `flocking: true` the cycle additionally
/// groups unmatched requests by autocluster and clones one representative
/// per cluster into `unmatched_clusters` (the forwarding itself lives in
/// the pool daemon, off the cycle path); with `flocking: false` — the
/// default — the hook must cost nothing, keeping non-federated pools at
/// seed speed.
fn bench_flocking_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("flocking_ablation");
    g.sample_size(10);
    let proto = AdvertisingProtocol::default();
    let mut store = AdStore::new();
    for i in 0..512 {
        store.advertise(machine_adv(i), 0, &proto).unwrap();
    }
    for i in 0..32 {
        store.advertise(job_adv(i), 0, &proto).unwrap();
        store.advertise(unmatchable_job_adv(i), 0, &proto).unwrap();
    }
    for flocking in [true, false] {
        let label = if flocking {
            "flocking_on"
        } else {
            "flocking_off"
        };
        g.bench_with_input(BenchmarkId::new(label, "512x64"), &store, |b, store| {
            b.iter(|| {
                let mut neg = Negotiator::new(NegotiatorConfig {
                    flocking,
                    ..Default::default()
                });
                neg.negotiate(store, 0)
            })
        });
    }
    g.finish();
}

/// Export every measurement (plus the derived clustered-workload speedup)
/// as machine-readable JSON next to the human-readable criterion lines.
fn write_bench_json(path: &str) {
    let results = criterion::take_results();
    let find = |id: &str| results.iter().find(|r| r.id == id).map(|r| r.mean_ns);
    let on = find("clustered_workload/autocluster_on/1000x1000");
    let off = find("clustered_workload/autocluster_off/1000x1000");
    let speedup = match (on, off) {
        (Some(on), Some(off)) if on > 0.0 => off / on,
        _ => 0.0,
    };
    let attr_on = find("attribution_ablation/attribution_on/512x64");
    let attr_off = find("attribution_ablation/attribution_off/512x64");
    let overhead = match (attr_on, attr_off) {
        (Some(on), Some(off)) if off > 0.0 => on / off,
        _ => 0.0,
    };
    let flock_on = find("flocking_ablation/flocking_on/512x64");
    let flock_off = find("flocking_ablation/flocking_off/512x64");
    let flock_overhead = match (flock_on, flock_off) {
        (Some(on), Some(off)) if off > 0.0 => on / off,
        _ => 0.0,
    };
    let ratio = |num: Option<f64>, den: Option<f64>| match (num, den) {
        (Some(n), Some(d)) if d > 0.0 => n / d,
        _ => 0.0,
    };
    let t1 = find("parallel_scan_ablation/threads/1");
    let t8 = find("parallel_scan_ablation/threads/8");
    let scan_speedup = ratio(t1, t8);
    let unsharded = find("sharded_vs_unsharded/unsharded/4096");
    let sharded = find("sharded_vs_unsharded/sharded/4096");
    let shard_speedup = ratio(unsharded, sharded);
    let full_100k = find("incremental_small_delta/full_scan/100000");
    let inc_100k = find("incremental_small_delta/incremental/100000");
    let inc_speedup = ratio(full_100k, inc_100k);
    let inc_4k = find("incremental_small_delta/incremental/4096");
    let inc_32k = find("incremental_small_delta/incremental/32768");

    let mut json = String::from("{\n");
    json.push_str(&bench::provenance_fields());
    json.push_str("  \"benchmark\": \"negotiation\",\n  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"id\": \"{}\", \"mean_ns\": {:.1}, \"iterations\": {}}}{}\n",
            r.id, r.mean_ns, r.iterations, comma
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"clustered_1000x1000\": {{\"autocluster_on_ns\": {}, \"autocluster_off_ns\": {}, \"speedup\": {:.2}}},\n",
        on.map_or("null".to_string(), |v| format!("{v:.1}")),
        off.map_or("null".to_string(), |v| format!("{v:.1}")),
        speedup
    ));
    json.push_str(&format!(
        "  \"attribution_512x64\": {{\"attribution_on_ns\": {}, \"attribution_off_ns\": {}, \"overhead\": {:.2}}},\n",
        attr_on.map_or("null".to_string(), |v| format!("{v:.1}")),
        attr_off.map_or("null".to_string(), |v| format!("{v:.1}")),
        overhead
    ));
    let fmt = |v: Option<f64>| v.map_or("null".to_string(), |v| format!("{v:.1}"));
    json.push_str(&format!(
        "  \"flocking_512x64\": {{\"flocking_on_ns\": {}, \"flocking_off_ns\": {}, \"overhead\": {:.2}}},\n",
        fmt(flock_on),
        fmt(flock_off),
        flock_overhead
    ));
    json.push_str(&format!(
        "  \"parallel_scan_4096\": {{\"threads1_ns\": {}, \"threads8_ns\": {}, \"speedup\": {:.2}}},\n",
        fmt(t1),
        fmt(t8),
        scan_speedup
    ));
    json.push_str(&format!(
        "  \"sharded_vs_unsharded_4096\": {{\"unsharded_ns\": {}, \"sharded_ns\": {}, \"speedup\": {:.2}}},\n",
        fmt(unsharded),
        fmt(sharded),
        shard_speedup
    ));
    json.push_str(&format!(
        "  \"incremental_small_delta\": {{\"full_scan_100k_ns\": {}, \"incremental_100k_ns\": {}, \"speedup\": {:.2}, \"incremental_4096_ns\": {}, \"incremental_32768_ns\": {}, \"incremental_100000_ns\": {}}}\n}}\n",
        fmt(full_100k),
        fmt(inc_100k),
        inc_speedup,
        fmt(inc_4k),
        fmt(inc_32k),
        fmt(inc_100k)
    ));
    match std::fs::write(path, &json) {
        Ok(()) => println!(
            "wrote {path} (clustered 1000x1000 speedup: {speedup:.2}x, attribution overhead: {overhead:.2}x, \
             parallel scan 1->8: {scan_speedup:.2}x, incremental small-delta at 100k: {inc_speedup:.2}x)"
        ),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn print_e3_table() {
    println!("== E3: cycle outcome sanity (512 machines, 128 jobs) ==");
    let store = build_store(512, 128);
    let mut neg = Negotiator::default();
    let out = neg.negotiate(&store, 0);
    println!(
        "  offers={} requests={} matches={} unmatched={} rounds={}",
        out.stats.offers_considered,
        out.stats.requests_considered,
        out.stats.matches,
        out.stats.unmatched_requests,
        out.stats.rounds,
    );
}

criterion_group!(
    name = benches;
    // Single-core CI-friendly windows; override with
    // `cargo bench -- --warm-up-time N --measurement-time M`.
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(800))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_pool_size_scaling, bench_job_batch_scaling, bench_parallel_ablation,
        bench_sharded_vs_unsharded, bench_incremental_small_delta,
        bench_clustered_workload, bench_attribution_ablation, bench_flocking_ablation
);

fn main() {
    print_e3_table();
    benches();
    Criterion::default().configure_from_args().final_summary();
    // Anchor at the workspace root regardless of cargo's bench CWD.
    write_bench_json(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_negotiation.json"
    ));
}
