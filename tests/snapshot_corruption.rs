//! Damaged snapshot images must always fail with a typed
//! [`SimError::Snapshot`] naming what went wrong — never a panic, never a
//! silent misparse into a subtly wrong system.
//!
//! The corpus is generated systematically from one valid image per
//! configuration:
//!
//! - every truncation length (strided for large images, exhaustive near the
//!   header and the tail, where the envelope checks live);
//! - single-bit flips at strided positions (the trailing checksum
//!   must catch every one of them);
//! - *checksum-consistent* single-bit flips — flip a body byte, then
//!   recompute the trailing checksum — which drive the per-field validation
//!   paths: these must either fail typed or restore into a system that can
//!   be *run* (a flipped counter bit is undetectable and harmless; a flipped
//!   index that the restore let through would panic a few cycles later).
//!
//! Two configurations supply images: the paper baseline, and a full-feature
//! system (two tenants, PAR-BS, static-partition QoS, idle-timer power,
//! faults + patrol scrub, two channels) whose image carries every optional
//! section — stateful scheduler, QoS arbiter, power timers, fault state,
//! retry buckets.

use std::sync::OnceLock;

use cloudmc::memctrl::{
    FaultConfig, ParBsConfig, PowerPolicyKind, QosPolicyKind, SchedulerKind, UncorrectablePolicy,
};
use cloudmc::sim::{SimError, Simulator, Snapshot, SystemConfig};
use cloudmc::snap::checksum;
use cloudmc::workloads::{MixSpec, TenantSpec, Workload};

/// CPU cycles every accepted image is run for after its restore.
const STEP_CYCLES: u64 = 3_000;

fn baseline() -> SystemConfig {
    let mut cfg = SystemConfig::baseline(Workload::WebSearch);
    cfg.warmup_cpu_cycles = 2_000;
    cfg.measure_cpu_cycles = 10_000;
    cfg
}

fn full_feature() -> SystemConfig {
    let mix = MixSpec::new(TenantSpec::latency_critical(Workload::WebFrontend, 8))
        .and(TenantSpec::batch(Workload::TpchQ6, 8));
    let mut cfg = SystemConfig::mixed(mix);
    cfg.mc.scheduler = SchedulerKind::ParBs(ParBsConfig::default());
    cfg.mc.qos.policy = QosPolicyKind::StaticPartition;
    cfg.mc.power_policy = PowerPolicyKind::IdleTimer;
    cfg.mc.fault_model = Some(FaultConfig {
        seed: 7,
        transient_rate_fp: FaultConfig::rate_per_million_reads(100),
        scrub_interval: 20_000,
        stuck_rows_per_rank: 2,
        retire_threshold: 3,
        on_uncorrectable: UncorrectablePolicy::PoisonAndContinue,
        ..FaultConfig::baseline()
    });
    cfg.num_channels = 2;
    cfg
}

/// One configuration, how long to warm it before taking the image, and how
/// densely the envelope-level corpora (truncations, plain bit flips) sample
/// it. Those two only ever reach the envelope checks, which do not depend on
/// the configuration, so the second corpus samples them sparsely and spends
/// its time on the checksum-consistent flips instead.
struct Corpus {
    name: &'static str,
    cfg: fn() -> SystemConfig,
    warm_cycles: u64,
    /// Truncation lengths tried exhaustively at the head and at the tail.
    edge: usize,
    /// Strided truncation lengths in between.
    truncations: usize,
    /// Strided positions and the bits flipped at each of them.
    flips: (usize, &'static [u8]),
    /// The valid image, built on first use and shared by the tests (the
    /// warm-up is the expensive part).
    image: OnceLock<Vec<u8>>,
}

static BASELINE: Corpus = Corpus {
    name: "baseline",
    cfg: baseline,
    warm_cycles: 2_000,
    edge: 64,
    truncations: 97,
    flips: (163, &[0, 7]),
    image: OnceLock::new(),
};

/// Warm enough that the controller queues, the in-flight lists, the PAR-BS
/// batch and the retry buckets all hold entries when the image is taken.
static FULL_FEATURE: Corpus = Corpus {
    name: "full-feature",
    cfg: full_feature,
    warm_cycles: 20_000,
    edge: 24,
    truncations: 31,
    flips: (41, &[5]),
    image: OnceLock::new(),
};

impl Corpus {
    /// One valid snapshot image of a warm system.
    fn valid_image(&self) -> &[u8] {
        self.image.get_or_init(|| {
            let mut sim = Simulator::new((self.cfg)()).expect("valid config");
            sim.system_mut().run_cycles(self.warm_cycles);
            sim.system()
                .snapshot()
                .expect("snapshot supported")
                .into_bytes()
        })
    }

    /// Restores `bytes` under the matching config, demanding a typed
    /// snapshot error (the `expect_failure` corpus) or tolerating success
    /// (the checksum-consistent corpus) — in which case the restored system
    /// must also survive being run. Panics and non-snapshot errors always
    /// fail.
    fn restore_outcome(&self, bytes: Vec<u8>, what: &str, expect_failure: bool) {
        let name = self.name;
        match Simulator::from_snapshot((self.cfg)(), &Snapshot::from_bytes(bytes)) {
            Ok(mut sim) => {
                assert!(
                    !expect_failure,
                    "{name}, {what}: corrupted image restored cleanly"
                );
                sim.system_mut().run_cycles(STEP_CYCLES);
            }
            Err(SimError::Snapshot(msg)) => {
                assert!(!msg.is_empty(), "{name}, {what}: empty error message");
            }
            Err(other) => panic!("{name}, {what}: expected SimError::Snapshot, got {other}"),
        }
    }

    /// `bytes` with the bits of `mask` flipped at `pos` and the trailing
    /// checksum recomputed, so only the per-field validation can object.
    fn consistent_flip(&self, image: &[u8], pos: usize, mask: u8) {
        let body_end = image.len() - 8;
        let mut bytes = image.to_vec();
        bytes[pos] ^= mask;
        let sum = checksum(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
        // Flips inside the envelope change magic/version/fingerprint and
        // must fail; body flips may parse (a counter changed) or fail typed
        // — either way, no panic, at restore or when stepped.
        self.restore_outcome(
            bytes,
            &format!("consistent flip, mask {mask:#04x} at byte {pos}"),
            pos < 20,
        );
    }
}

/// Every truncation of the image fails typed. Exhaustive over the first
/// lengths (magic, version, fingerprint, first sections) and the last ones
/// (checksum tail), strided through the middle.
#[test]
fn every_truncation_fails_typed() {
    for corpus in [&BASELINE, &FULL_FEATURE] {
        let image = corpus.valid_image();
        let (len, edge) = (image.len(), corpus.edge);
        let mut lengths: Vec<usize> = (0..edge).collect();
        lengths.extend(len - edge..len);
        lengths.extend((edge..len - edge).step_by(len / corpus.truncations));
        lengths.sort_unstable();
        lengths.dedup();
        for cut in lengths {
            corpus.restore_outcome(image[..cut].to_vec(), &format!("truncated to {cut}"), true);
        }
    }
}

/// Every strided single-bit flip fails typed: the header checks catch the
/// envelope bytes, the trailing checksum catches everything else.
#[test]
fn every_bit_flip_fails_typed() {
    for corpus in [&BASELINE, &FULL_FEATURE] {
        let image = corpus.valid_image();
        let (samples, bits) = corpus.flips;
        let stride = (image.len() / samples).max(1);
        // The envelope (magic, version, fingerprint) exhaustively, the body
        // strided, every byte of the trailing checksum.
        let mut positions: Vec<usize> = (0..20.min(image.len())).collect();
        positions.extend((20..image.len()).step_by(stride));
        positions.extend(image.len().saturating_sub(8)..image.len());
        positions.sort_unstable();
        positions.dedup();
        for pos in positions {
            for &bit in bits {
                let mut bytes = image.to_vec();
                bytes[pos] ^= 1 << bit;
                corpus.restore_outcome(bytes, &format!("bit {bit} of byte {pos} flipped"), true);
            }
        }
    }
}

/// Checksum-consistent flips — corruption the envelope *cannot* catch — must
/// drive the per-field validation to a typed error or an accepted parse that
/// can be stepped, never a panic. This is the corpus that exercises the
/// `Truncated`, `BadValue` and `SectionMismatch` paths inside the body.
#[test]
fn checksum_consistent_flips_never_panic() {
    let image = BASELINE.valid_image();
    let body_end = image.len() - 8;
    let stride = (body_end / 167).max(1);
    let mut positions: Vec<usize> = (0..24.min(body_end)).collect();
    positions.extend((24..body_end).step_by(stride));
    positions.sort_unstable();
    positions.dedup();
    for pos in positions {
        for bit in [0u8, 5] {
            BASELINE.consistent_flip(image, pos, 1 << bit);
        }
    }
}

/// The same on the full-feature image, concentrated where the structurally
/// rich state lives: from the `backend` section marker to the end of the
/// body sit the controller queues, in-flight records, PAR-BS marks, QoS and
/// power timers, bank state, fault tables and retry buckets — the records
/// whose coordinates and core indices the restore must bound, because the
/// device model and the per-core tables index by them.
#[test]
fn full_feature_backend_flips_never_panic() {
    let image = FULL_FEATURE.valid_image();
    let body_end = image.len() - 8;
    let backend = backend_marker(image);
    // A coarse pass over the frontend half, a fine one over the backend tail.
    let mut positions: Vec<(usize, u8)> = (20..backend)
        .step_by((backend / 23).max(1))
        .map(|pos| (pos, 0))
        .collect();
    let stride = ((body_end - backend) / 251).max(1);
    positions.extend(
        (backend..body_end)
            .step_by(stride)
            .enumerate()
            // Rotate through the bits so low (off-by-one) and high (wildly
            // out-of-range) corruptions of every field width are covered.
            .map(|(i, pos)| (pos, [0u8, 3, 5, 7][i % 4])),
    );
    for (pos, bit) in positions {
        FULL_FEATURE.consistent_flip(image, pos, 1 << bit);
    }
}

/// Offset of the `backend` section marker in `image`.
fn backend_marker(image: &[u8]) -> usize {
    let marker = [&[0xA5, 7][..], b"backend"].concat();
    image
        .windows(marker.len())
        .position(|w| w == marker)
        .expect("image has a backend section")
}

/// The top byte of each of the 16 little-endian words that end the
/// frontend section, flipped on both images. In format 7 these words were
/// the 16 cores' saved next-action cycles: a running core's cycle pushed
/// far into the future restored cleanly and then panicked on the core's
/// next fill. The cycle is now derived from the restored core, so whatever
/// the words hold must fail typed or run.
#[test]
fn frontend_tail_word_flips_never_panic() {
    for corpus in [&BASELINE, &FULL_FEATURE] {
        let image = corpus.valid_image();
        let backend = backend_marker(image);
        for word in 1..=16 {
            corpus.consistent_flip(image, backend - 8 * word + 7, 0xFF);
        }
    }
}

/// The degenerate images: empty, too short for the envelope, and foreign
/// bytes.
#[test]
fn degenerate_images_fail_typed() {
    BASELINE.restore_outcome(Vec::new(), "empty image", true);
    BASELINE.restore_outcome(vec![0u8; 27], "27 bytes (below envelope minimum)", true);
    BASELINE.restore_outcome(
        b"CMCSNAP1 but not really a snapshot".to_vec(),
        "prose",
        true,
    );
    BASELINE.restore_outcome(vec![0xFF; 4096], "4 KiB of 0xFF", true);
}
