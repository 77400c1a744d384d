//! Helpers shared by the integration tests (each uses a subset), and the
//! generator behind the same-answers corpus of `tests/answers.rs`: a seeded
//! draw over [`SystemConfig`], shrink-by-halving, and the split of a
//! snapshot image into the sections that locate a divergence.
#![allow(dead_code, reason = "each test crate uses a different subset")]

pub mod corpus;

use cloudmc::cpu::CoreConfig;
use cloudmc::memctrl::{
    AddressMapping, AtlasConfig, FaultConfig, McConfig, PagePolicyKind, ParBsConfig,
    PowerPolicyKind, QosPolicyKind, RlConfig, SchedulerKind, UncorrectablePolicy,
};
use cloudmc::sim::SystemConfig;
use cloudmc::snap::fnv1a;
use cloudmc::workloads::{MixSpec, TenantSpec, Workload};

/// SplitMix64: a seeded stream without a dependency.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

/// The paper's baseline for `workload` at 10k warm-up + 60k measured cycles.
pub fn small(workload: Workload, seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::baseline(workload);
    (cfg.warmup_cpu_cycles, cfg.measure_cpu_cycles, cfg.seed) = (10_000, 60_000, seed);
    cfg
}

/// Latency-critical Web Search on 8 cores + batch TPC-H Q6 on 8 cores.
pub fn lc_batch_mix() -> MixSpec {
    MixSpec::new(TenantSpec::latency_critical(Workload::WebSearch, 8))
        .and(TenantSpec::batch(Workload::TpchQ6, 8))
}

/// A fault model noisy enough that every path (correction, retry,
/// uncorrectable, poison, scrub, retirement) sees traffic in a short run.
pub fn noisy_fault(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        transient_rate_fp: FaultConfig::rate_per_million_reads(20_000),
        uncorrectable_permille: 100,
        scrub_interval: 300,
        stuck_rows_per_rank: 2,
        retire_threshold: 2,
        on_uncorrectable: UncorrectablePolicy::PoisonAndContinue,
        ..FaultConfig::baseline()
    }
}

/// One corpus row: a configuration and what the corpus does with it.
#[derive(Debug, Clone)]
pub struct Draw {
    pub label: String,
    pub cfg: SystemConfig,
    /// The field pushed past its bound; `Simulator::new` must refuse it.
    pub invalid: Option<&'static str>,
    /// Record the run and replay the recording.
    pub trace: bool,
}

impl Draw {
    /// A row of `cfg` at the corpus run length: 5k warm-up + 30k measured.
    fn new(label: String, mut cfg: SystemConfig) -> Self {
        (cfg.warmup_cpu_cycles, cfg.measure_cpu_cycles) = (5_000, 30_000);
        let (invalid, trace) = (None, false);
        Self {
            label,
            cfg,
            invalid,
            trace,
        }
    }
}

/// The four benchmark workloads (`ws_dense`, `q6_stream`, `ws_idle`,
/// `mix_full`) at the corpus run length: a copy of the configurations in
/// `benchmark/src/workloads.rs`, which must change with them.
pub fn benchmark_rows() -> [Draw; 4] {
    let mut idle = SystemConfig::baseline(Workload::WebSearch);
    idle.workload = idle.workload.with_intensity(0.02);
    let mut full = SystemConfig::mixed(lc_batch_mix());
    full.mc.scheduler = SchedulerKind::ParBs(ParBsConfig::default());
    full.mc.qos.policy = QosPolicyKind::StaticPartition;
    full.mc.power_policy = PowerPolicyKind::IdleTimer;
    full.mc.fault_model = Some(FaultConfig {
        seed: 1,
        transient_rate_fp: FaultConfig::rate_per_million_reads(100),
        scrub_interval: 20_000,
        stuck_rows_per_rank: 2,
        retire_threshold: 3,
        on_uncorrectable: UncorrectablePolicy::PoisonAndContinue,
        ..FaultConfig::baseline()
    });
    full.num_channels = 2;
    [
        ("ws_dense", SystemConfig::baseline(Workload::WebSearch)),
        ("q6_stream", SystemConfig::baseline(Workload::TpchQ6)),
        ("ws_idle", idle),
        ("mix_full", full),
    ]
    .map(|(name, cfg)| Draw::new(name.to_owned(), cfg))
}

/// A field, and how to push it just past the bound `SystemConfig::validate`
/// enforces.
type PastBound = (&'static str, fn(&mut SystemConfig));

const PAST_BOUNDS: [PastBound; 12] = [
    ("max_outstanding_misses", |c| {
        c.core.max_outstanding_misses = CoreConfig::MAX_OUTSTANDING_MISSES + 1;
    }),
    ("crossbar_latency", |c| c.l2.crossbar_latency = 0),
    ("banks", |c| c.l2.banks = 3),
    ("block_bytes", |c| c.core.l1d.block_bytes = 48),
    ("read_queue_capacity", |c| {
        c.mc.read_queue_capacity = McConfig::MAX_QUEUE_CAPACITY + 1;
    }),
    ("write_drain_low", |c| {
        c.mc.write_drain_low = c.mc.write_drain_high
    }),
    ("num_channels", |c| c.num_channels = 3),
    ("banks_per_rank", |c| c.mc.dram.banks_per_rank = 128),
    ("quantum", |c| {
        c.mc.scheduler = SchedulerKind::Atlas(AtlasConfig {
            quantum: 0,
            ..AtlasConfig::default()
        });
    }),
    ("table_size", |c| {
        c.mc.scheduler = SchedulerKind::Rl(RlConfig {
            table_size: RlConfig::MAX_TABLE_SIZE + 1,
            ..RlConfig::default()
        });
    }),
    ("uncorrectable_permille", |c| {
        c.mc.fault_model = Some(FaultConfig {
            uncorrectable_permille: 1001,
            ..noisy_fault(1)
        });
    }),
    ("measure_cpu_cycles", |c| c.measure_cpu_cycles = 0),
];

/// Corpus row `index`: a solo workload at an intensity of 0.02–2, or on one
/// row in four a 2–3-tenant mix under one of the QoS policies; any
/// scheduler (parameters inside the validated bounds), page policy, power
/// policy and mapping; 1, 2 or 4 channels; 2–16 MSHRs. L2 bank and crossbar
/// latencies up to 100 and 80 on one row in four, faults with scrub and
/// retries on one in three, telemetry on one in five, record → replay on
/// one in ten, and one field past its bound on one in eight.
pub fn draw(index: u64) -> Draw {
    let mut rng = SplitMix(index.wrapping_mul(0xA24B_AED4_963E_E407));
    let all = Workload::all();
    let (mut cfg, tenancy) = if rng.one_in(4) {
        let mut mix = MixSpec::new(TenantSpec::latency_critical(rng.pick(&all), 8));
        for &cores in &[8, 4][..1 + rng.below(2) as usize] {
            mix = mix.and(TenantSpec::batch(rng.pick(&all), cores));
        }
        let mut cfg = SystemConfig::mixed(mix);
        cfg.mc.qos.policy = rng.pick(&QosPolicyKind::all());
        let label = format!("{}/qos:{}", mix.label(), cfg.mc.qos.policy);
        (cfg, label)
    } else {
        let workload = rng.pick(&all);
        let intensity = rng.pick(&[0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 1.0, 1.5, 2.0]);
        let mut cfg = SystemConfig::baseline(workload);
        cfg.workload = cfg.workload.with_intensity(intensity);
        (cfg, format!("{}@{intensity}", workload.acronym()))
    };
    cfg.seed = rng.below(1 << 16);
    cfg.mc.scheduler = match rng.below(6) {
        0 => SchedulerKind::Fcfs,
        1 => SchedulerKind::FcfsBanks,
        2 => SchedulerKind::FrFcfs,
        3 => SchedulerKind::ParBs(ParBsConfig {
            batching_cap: 1 + rng.below(10) as usize,
        }),
        4 => SchedulerKind::Atlas(AtlasConfig {
            quantum: rng.pick(&[1, 500, 2_000, 10_000]),
            starvation_threshold: rng.pick(&[200, 5_000, 50_000]),
            ..AtlasConfig::default()
        }),
        _ => SchedulerKind::Rl(RlConfig {
            num_tables: rng.pick(&[1, 8, 32, 64]),
            table_size: rng.pick(&[1, 64, 256, RlConfig::MAX_TABLE_SIZE]),
            epsilon: rng.pick(&[0.0, 0.05, 0.5]),
            seed: rng.next_u64(),
            ..RlConfig::default()
        }),
    };
    cfg.mc.page_policy = rng.pick(&PagePolicyKind::all());
    cfg.mc.power_policy = rng.pick(&PowerPolicyKind::all());
    cfg.mc.mapping = rng.pick(&AddressMapping::all());
    cfg.num_channels = rng.pick(&[1, 2, 4]);
    cfg.core.max_outstanding_misses = 2 + rng.below(15) as usize;
    let (mc, channels, mshr) = (&cfg.mc, cfg.num_channels, cfg.core.max_outstanding_misses);
    let (sched, page) = (mc.scheduler.label(), mc.page_policy);
    let (power, map) = (mc.power_policy, mc.mapping);
    let mut label = format!("{tenancy}/{sched}/{page}/{power}/{map}/{channels}ch/mshr{mshr}");
    if rng.one_in(4) {
        (cfg.l2.bank_latency, cfg.l2.crossbar_latency) = (1 + rng.below(100), 1 + rng.below(80));
        label += &format!("/l2:{}+{}", cfg.l2.bank_latency, cfg.l2.crossbar_latency);
    }
    if rng.one_in(3) {
        cfg.mc.fault_model = Some(FaultConfig {
            transient_rate_fp: FaultConfig::rate_per_million_reads(rng.pick(&[100, 2_000, 20_000])),
            scrub_interval: rng.pick(&[300, 1_000, 20_000]),
            max_demand_retries: rng.below(4) as u32,
            retire_threshold: 1 + rng.below(4) as u32,
            ..noisy_fault(rng.below(1 << 16))
        });
        label += "/faults";
    }
    if rng.one_in(5) {
        cfg.telemetry.sample_interval = rng.pick(&[1_013, 7_000]);
        cfg.telemetry.span_sample_every = rng.pick(&[1, 16, 61]);
        label += "/telemetry";
    }
    let trace = rng.one_in(10);
    if trace {
        label += "/trace";
    }
    let mut row = Draw::new(label, cfg);
    row.trace = trace;
    if rng.one_in(8) {
        let (field, push) = rng.pick(&PAST_BOUNDS);
        push(&mut row.cfg);
        row.label = format!("invalid:{field}/{}", row.label);
        row.invalid = Some(field);
    }
    row
}

/// Halves the run length or the channel count of `cfg` while `fails` still
/// holds, and returns the smallest configuration it held on.
pub fn shrink(mut cfg: SystemConfig, fails: impl Fn(&SystemConfig) -> bool) -> SystemConfig {
    loop {
        let mut halved = [cfg.clone(), cfg.clone(), cfg.clone()];
        halved[0].measure_cpu_cycles = (cfg.measure_cpu_cycles / 2).max(1);
        halved[1].warmup_cpu_cycles /= 2;
        halved[2].num_channels = (cfg.num_channels / 2).max(1);
        match halved.into_iter().find(|c| *c != cfg && fails(c)) {
            Some(smaller) => cfg = smaller,
            None => return cfg,
        }
    }
}

/// The sections a divergence is located in, in image order; any other
/// section (`memctrl`, `dram-channel`, `fault-state`, …) counts as part of
/// the one before it.
const LOCATED: [&str; 8] = [
    "clock",
    "fill-queue",
    "frontend",
    "core",
    "workload-streams",
    "shared-l2",
    "backend",
    "channel",
];

/// A 16-bit digest of each located section of a snapshot image, numbered
/// (`core3`, `channel1`) where the section repeats. A section starts at its
/// marker: tag `0xA5`, a length byte, then the name.
pub fn section_tags(image: &[u8]) -> Vec<(String, u16)> {
    let mut starts: Vec<(String, usize)> = Vec::new();
    for at in marker_bytes(image) {
        let len = image.get(at + 1).map_or(0, |&n| usize::from(n));
        let marker = |name: &&&str| image.get(at + 2..at + 2 + len) == Some(name.as_bytes());
        let Some(&name) = LOCATED.iter().find(marker) else {
            continue;
        };
        let repeat = starts
            .iter()
            .filter(|(label, _)| label.starts_with(name))
            .count();
        let numbered = matches!(name, "core" | "channel");
        starts.push((
            if numbered {
                format!("{name}{repeat}")
            } else {
                name.to_owned()
            },
            at,
        ));
    }
    let ends: Vec<usize> = starts
        .iter()
        .skip(1)
        .map(|&(_, at)| at)
        .chain([image.len()])
        .collect();
    starts
        .into_iter()
        .zip(ends)
        .map(|((label, from), to)| (label, fnv1a(&image[from..to]) as u16))
        .collect()
}

/// The offsets of the bytes `0xA5` in `image`, tested eight at a time: a
/// byte-by-byte scan of a megabyte image is slow in an unoptimised build.
fn marker_bytes(image: &[u8]) -> Vec<usize> {
    const ONES: u64 = u64::from_ne_bytes([1; 8]);
    let mut found = Vec::new();
    for (i, chunk) in image.chunks(8).enumerate() {
        let mut word = [0; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        let x = u64::from_ne_bytes(word) ^ (0xA5 * ONES);
        if x.wrapping_sub(ONES) & !x & (0x80 * ONES) != 0 {
            let hits = (0..chunk.len()).filter(|&k| chunk[k] == 0xA5);
            found.extend(hits.map(|k| 8 * i + k));
        }
    }
    found
}
