//! Seeded input generation: every ad, job, query and update the benchmark
//! feeds the pool is a pure function of `--seed`.
//!
//! Ads are the paper's: a Fig. 1 workstation with its owner policy
//! (`ResearchGroup` always served, `Friends` only when idle, strangers
//! only outside office hours, `Untrusted` never) and a Fig. 2 job
//! (`Arch`/`OpSys`/`Disk`/`Memory` constraint, `KFlops`/`Memory` rank).
//!
//! Machine *strata* (architecture, which owners the workstation's owner
//! trusts, memory size, idleness) are assigned by index with pairwise
//! co-prime periods, so every combination appears in its expected share
//! in any pool of a few dozen machines or more and every job shape is
//! satisfiable by a known fraction of the pool whatever the seed. The seed
//! moves the stratum offset and every continuous attribute.

use classad::{parse_classad, ClassAd};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The four submitting users.
pub const OWNERS: [&str; 4] = ["raman", "miron", "solomon", "jbasney"];

/// `(Arch, OpSys)` platforms, one third of the pool each.
pub const PLATFORMS: [(&str, &str); 3] = [
    ("INTEL", "SOLARIS251"),
    ("SPARC", "SOLARIS251"),
    ("ALPHA", "OSF1"),
];

/// Machine memory sizes (MB), one fifth of the pool each.
const MEMORY_MB: [i64; 5] = [32, 64, 128, 256, 512];

/// Job memory needs by shape tier; the hardest (200 MB) is satisfiable by
/// two fifths of the machines of its platform.
const JOB_MEMORY_MB: [i64; 6] = [31, 48, 64, 96, 128, 200];

/// Most distinct job shapes [`Inputs::generate`] can produce.
pub const MAX_SHAPES: usize = OWNERS.len() * PLATFORMS.len() * JOB_MEMORY_MB.len();

/// The attributes the selective status query projects.
pub const SELECTIVE_PROJECTION: [&str; 3] = ["Name", "Memory", "KFlops"];

/// One status-tool query of the `status_query` mix.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Which of the three shapes this is.
    pub shape: QueryShape,
    /// Constraint source, as a status tool would type it.
    pub constraint: String,
    /// Attributes to project; empty = whole ads.
    pub projection: Vec<String>,
}

/// The three query shapes of the `status_query` mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryShape {
    /// ~1 % of the pool, three projected attributes.
    Selective,
    /// One platform (~1/3 of the pool), whole ads.
    Broad,
    /// One machine by name, whole ad.
    Name,
}

impl QueryShape {
    /// All shapes, in report order.
    pub const ALL: [QueryShape; 3] = [QueryShape::Selective, QueryShape::Broad, QueryShape::Name];

    /// Metric-name suffix.
    pub fn label(self) -> &'static str {
        match self {
            QueryShape::Selective => "selective",
            QueryShape::Broad => "broad",
            QueryShape::Name => "name",
        }
    }
}

/// One step of the `ad_ingest` update stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdUpdate {
    /// Index of the machine re-advertised.
    pub machine: usize,
    /// `Some((LoadAvg, KeyboardIdle))` for a changed ad, `None` for a
    /// pure lease renewal.
    pub change: Option<(f64, i64)>,
}

/// Everything one run feeds the pool, generated from the seed alone.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Classad source text of every machine, index-aligned with
    /// [`Inputs::machines`].
    pub machine_texts: Vec<String>,
    /// The parsed machine ads; machine `i` is named [`machine_name`]`(i)`.
    pub machines: Vec<ClassAd>,
    /// The parsed job shapes.
    pub shapes: Vec<ClassAd>,
    /// The job stream walks the shapes round-robin from this one, so any
    /// run of outstanding jobs covers the same number of shapes whatever
    /// the seed.
    pub first_shape: usize,
}

/// Name of machine `i`.
pub fn machine_name(i: usize) -> String {
    format!("m{i:05}.pool.example")
}

/// Index of the machine called `name`, the inverse of [`machine_name`].
pub fn machine_index(name: &str) -> Option<usize> {
    name.strip_prefix('m')?.get(..5)?.parse().ok()
}

/// Name of job `k`.
pub fn job_name(k: usize) -> String {
    format!("job-{k:07}")
}

/// Index of the job called `name`, the inverse of [`job_name`].
pub fn job_index(name: &str) -> Option<usize> {
    name.strip_prefix("job-")?.parse().ok()
}

fn machine_text(i: usize, stratum: usize, rng: &mut SmallRng) -> String {
    let (arch, opsys) = PLATFORMS[stratum % 3];
    let rot = stratum % 4;
    let memory = MEMORY_MB[stratum % 5];
    // Five machines in seven are idle; the rest have their owner at the
    // keyboard, so `Friends` are turned away there.
    let (load, keyboard_idle) = if stratum % 7 < 5 {
        (rng.gen_range(0.0..0.25), rng.gen_range(1000..20_000))
    } else {
        (rng.gen_range(0.5..2.5), rng.gen_range(0..600))
    };
    format!(
        r#"[
    Type         = "Machine";
    Activity     = "Idle";
    DayTime      = 36107;
    KeyboardIdle = {keyboard_idle};
    Disk         = {disk};
    Memory       = {memory};
    State        = "Unclaimed";
    LoadAvg      = {load:.6};
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
        disk = rng.gen_range(50_000..900_000),
        mips = rng.gen_range(40..400),
        kflops = rng.gen_range(10_000..30_000),
        name = machine_name(i),
        r0 = OWNERS[rot],
        r1 = OWNERS[(rot + 1) % 4],
        f0 = OWNERS[(rot + 2) % 4],
    )
}

fn shape_text(k: usize) -> String {
    let owner = OWNERS[k % 4];
    let (arch, opsys) = PLATFORMS[(k / 4) % 3];
    let memory = JOB_MEMORY_MB[k / 12];
    format!(
        r#"[
    Type               = "Job";
    QDate              = 886799469;
    CompletionDate     = 0;
    Owner              = "{owner}";
    Cmd                = "run_sim";
    WantRemoteSyscalls = 1;
    WantCheckpoint     = 1;
    Iwd                = "/usr/{owner}/sim2";
    Args               = "-Q 17 3200 10";
    Memory             = {memory};
    Rank       = other.KFlops/1E3 + other.Memory/32;
    Constraint = other.Type == "Machine" && Arch == "{arch}" &&
                 OpSys == "{opsys}" && Disk >= 10000 &&
                 other.Memory >= self.Memory;
]"#
    )
}

impl Inputs {
    /// Generate `machines` workstations and `shapes` job shapes from
    /// `seed`. Panics if `shapes` exceeds [`MAX_SHAPES`] — a bug in the
    /// caller, every workload's shape count is a constant.
    pub fn generate(seed: u64, machines: usize, shapes: usize) -> Inputs {
        assert!(
            (1..=MAX_SHAPES).contains(&shapes),
            "{shapes} shapes requested"
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let offset = rng.gen_range(0..420usize);
        let machine_texts: Vec<String> = (0..machines)
            .map(|i| machine_text(i, i + offset, &mut rng))
            .collect();
        let shape_texts: Vec<String> = (0..shapes).map(shape_text).collect();
        let parse_all = |texts: &[String]| -> Vec<ClassAd> {
            texts
                .iter()
                .map(|t| parse_classad(t).expect("generated ads are well-formed"))
                .collect()
        };
        Inputs {
            machines: parse_all(&machine_texts),
            shapes: parse_all(&shape_texts),
            machine_texts,
            first_shape: rng.gen_range(0..shapes),
        }
    }

    /// The ad of job `k`: its shape plus its name.
    pub fn job_ad(&self, k: usize) -> ClassAd {
        let mut ad = self.shapes[(self.first_shape + k) % self.shapes.len()].clone();
        ad.set_str("Name", &job_name(k));
        ad
    }

    /// The `status_query` stream: 40 % selective, 20 % broad, 40 % by
    /// name, so the median falls inside the narrow shapes and the 90th
    /// percentile inside the broad one. The shares are exact in every
    /// block of ten queries (the seed orders each block), so that every
    /// slice of a window, a few blocks long, asks the same mix.
    pub fn queries(&self, seed: u64, n: usize) -> Vec<QuerySpec> {
        use QueryShape::{Broad, Name, Selective};
        const BLOCK: [QueryShape; 10] = [
            Selective, Selective, Selective, Selective, Broad, Broad, Name, Name, Name, Name,
        ];
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5155_4552);
        let mut block = BLOCK;
        (0..n)
            .map(|i| {
                if i % BLOCK.len() == 0 {
                    // Fisher-Yates.
                    for j in (1..block.len()).rev() {
                        block.swap(j, rng.gen_range(0..=j));
                    }
                }
                match block[i % BLOCK.len()] {
                    Selective => QuerySpec {
                        shape: Selective,
                        constraint: format!(
                            r#"other.Arch == "{}" && other.Memory >= 512 && other.KFlops > 27000"#,
                            PLATFORMS[rng.gen_range(0..3usize)].0
                        ),
                        projection: SELECTIVE_PROJECTION.iter().map(|s| s.to_string()).collect(),
                    },
                    Broad => QuerySpec {
                        shape: Broad,
                        constraint: r#"other.Arch == "INTEL""#.into(),
                        projection: Vec::new(),
                    },
                    Name => QuerySpec {
                        shape: Name,
                        constraint: format!(
                            r#"other.Name == "{}""#,
                            machine_name(rng.gen_range(0..self.machines.len()))
                        ),
                        projection: Vec::new(),
                    },
                }
            })
            .collect()
    }

    /// The endless `ad_ingest` stream for one sender: updates over the
    /// machines `i` with `i % stride == lane`, 70 % pure renewals and
    /// 30 % changed ads.
    pub fn updates(&self, seed: u64, lane: usize, stride: usize) -> impl Iterator<Item = AdUpdate> {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5550_4400 ^ lane as u64);
        let machines = self.machines.len();
        let owned = machines.div_ceil(stride).max(1);
        std::iter::repeat_with(move || {
            let machine = (rng.gen_range(0..owned) * stride + lane) % machines;
            let change = (rng.gen_range(0..10) < 3)
                .then(|| (rng.gen_range(0.0..2.5), rng.gen_range(0..20_000)));
            AdUpdate { machine, change }
        })
    }
}

/// Apply a changed-ad update to a machine ad.
pub fn apply_change(ad: &mut ClassAd, (load, keyboard_idle): (f64, i64)) {
    ad.set_real("LoadAvg", load);
    ad.set_int("KeyboardIdle", keyboard_idle);
}

#[cfg(test)]
mod tests {
    use super::*;
    use classad::{symmetric_match, EvalPolicy, MatchConventions};
    use matchmaker::negotiate::{Negotiator, NegotiatorConfig};
    use matchmaker::protocol::{Advertisement, AdvertisingProtocol, EntityKind};
    use matchmaker::AdStore;

    fn render(inputs: &Inputs) -> String {
        let mut out = String::new();
        for ad in inputs.machines.iter().chain(&inputs.shapes) {
            out.push_str(&ad.to_string());
        }
        out.push_str(&inputs.job_ad(3).to_string());
        out.push_str(&format!("{:?}", inputs.queries(9, 50)));
        out.push_str(&format!(
            "{:?}",
            inputs.updates(9, 1, 2).take(50).collect::<Vec<_>>()
        ));
        out
    }

    #[test]
    fn same_seed_is_byte_identical_and_seeds_differ() {
        let a = render(&Inputs::generate(7, 256, 64));
        let b = render(&Inputs::generate(7, 256, 64));
        let c = render(&Inputs::generate(8, 256, 64));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn names_round_trip() {
        assert_eq!(machine_index(&machine_name(16_383)), Some(16_383));
        assert_eq!(job_index(&job_name(1_234_567)), Some(1_234_567));
        assert_eq!(machine_index("matchmaker#stats"), None);
    }

    #[test]
    fn every_shape_is_satisfiable_by_a_twentieth_of_the_pool() {
        let (policy, conv) = (EvalPolicy::default(), MatchConventions::default());
        for (machines, shapes) in [(64, 8), (2048, 64)] {
            for seed in [1, 2, 3] {
                let inputs = Inputs::generate(seed, machines, shapes);
                for (k, shape) in inputs.shapes.iter().enumerate() {
                    let ok = inputs
                        .machines
                        .iter()
                        .filter(|m| symmetric_match(shape, m, &policy, &conv))
                        .count();
                    assert!(
                        ok * 20 >= machines,
                        "seed {seed}: shape {k} matches {ok} of {machines} machines"
                    );
                }
            }
        }
    }

    #[test]
    fn shape_count_equals_clusters_formed_on_a_cold_cycle() {
        for (machines, shapes) in [(64, 8), (512, 64)] {
            let inputs = Inputs::generate(5, machines, shapes);
            let proto = AdvertisingProtocol::default();
            let mut store = AdStore::new();
            let mut advertise = |kind, ad: ClassAd| {
                let adv = Advertisement {
                    kind,
                    ad,
                    contact: "127.0.0.1:9".into(),
                    ticket: None,
                    expires_at: 1000,
                };
                store.advertise(adv, 0, &proto).unwrap();
            };
            for m in &inputs.machines {
                advertise(EntityKind::Provider, m.clone());
            }
            // Two jobs of every shape: clusters count shapes, not jobs.
            for (k, shape) in inputs.shapes.iter().cycle().take(2 * shapes).enumerate() {
                let mut job = shape.clone();
                job.set_str("Name", &job_name(k));
                advertise(EntityKind::Customer, job);
            }
            let outcome = Negotiator::new(NegotiatorConfig::default()).negotiate(&store, 0);
            assert_eq!(outcome.stats.clusters_formed, shapes);
        }
    }

    #[test]
    fn query_mix_and_update_mix_have_their_stated_shares() {
        let inputs = Inputs::generate(3, 4096, 8);
        let queries = inputs.queries(3, 2000);
        let share = |s: QueryShape| queries.iter().filter(|q| q.shape == s).count() as f64 / 2000.0;
        assert_eq!(share(QueryShape::Selective), 0.4);
        assert_eq!(share(QueryShape::Broad), 0.2);
        assert_eq!(share(QueryShape::Name), 0.4);
        // Exactly, in every block of ten.
        for block in queries.chunks(10) {
            let broad = block
                .iter()
                .filter(|q| q.shape == QueryShape::Broad)
                .count();
            assert_eq!(broad, 2);
        }
        let updates: Vec<AdUpdate> = inputs.updates(3, 1, 2).take(2000).collect();
        let changed = updates.iter().filter(|u| u.change.is_some()).count() as f64 / 2000.0;
        assert!((changed - 0.3).abs() < 0.05);
        assert!(updates.iter().all(|u| u.machine % 2 == 1));
    }
}
