//! Statistical per-core instruction/access stream generator.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cloudmc_cpu::{CoreOp, MemOp, OpKind};
use cloudmc_snap::{snap_fields, SnapError, SnapReader};

use crate::mix::{MixSpec, TenantId};
use crate::spec::{Workload, WorkloadSpec};

/// Block size assumed by the generators (matches the cache/DRAM column size).
pub const BLOCK_BYTES: u64 = 64;
/// DRAM row size assumed when generating row-burst base addresses.
pub const ROW_BYTES: u64 = 8 * 1024;

/// Physical-address layout used by the generators.
///
/// The regions are disjoint so that per-core private data, shared data and
/// code never alias by accident; everything fits comfortably inside the
/// 32 GiB baseline DRAM capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Layout {
    shared_base: u64,
    shared_size: u64,
    code_base: u64,
    code_stride: u64,
    private_base: u64,
    private_stride: u64,
    hot_stride: u64,
}

impl Layout {
    const DEFAULT: Self = Self {
        shared_base: 0x0400_0000,    // 64 MiB
        shared_size: 0x1000_0000,    // 256 MiB shared region
        code_base: 0x2000_0000,      // 512 MiB
        code_stride: 0x0040_0000,    // 4 MiB per core of code space
        private_base: 0x4000_0000,   // 1 GiB
        private_stride: 0x1000_0000, // 256 MiB per core
        hot_stride: 0x0000_4000,     // 16 KiB hot region per core
    };
}

/// Equal buckets of the uniform draw in an [`IntervalTable`].
const TABLE_BUCKETS: usize = 2048;

/// The interval [`Interval::draw`] gives for the uniform draw `u`: an
/// exponential variate of mean `mean`, rounded, at least one instruction.
fn exact_interval(mean: f64, u: f64) -> u64 {
    (-mean * u.ln()).round().max(1.0) as u64
}

/// [`exact_interval`] at one mean, precomputed per bucket of `u`.
///
/// With `N = TABLE_BUCKETS`, entry `i` covers every `u` in `[i/N, (i+1)/N)`.
/// The interval falls as `u` rises, and rounding and the clamp to 1 are
/// monotone. So a run of buckets holds one interval `v` when the top of its
/// lowest bucket, `mean·(−ln(i/N))`, widened by `2^-40` of itself plus
/// `1e-9`, still rounds to `v`, and the run stops where `-mean·ln u` comes
/// within the same margin of the rounding boundary `v - 0.5`. That margin
/// (some 4,000 ulps) is far beyond any libm error in the bounds or in a
/// draw. Every other entry — a bucket holding a boundary, or an interval
/// beyond `u16` — is 0, and the draw takes the exact path, which is always
/// correct. A table is deterministic config-derived data: it changes no
/// draw and no RNG state.
struct IntervalTable([u16; TABLE_BUCKETS]);

impl IntervalTable {
    /// Builds the table of `mean`, or `None` when fewer than three buckets
    /// in four would hold a value (a mean in the hundreds: most draws would
    /// take the exact path anyway, after paying for the lookup).
    ///
    /// Every snapshot restore builds its tables again, so the build costs
    /// one `ln` and one `exp` per run of equal entries, not an `ln` per
    /// bucket, and a gated-out mean stops early.
    fn build(mean: f64) -> Option<Self> {
        const MARGIN_PER_UNIT: f64 = 1.0 / (1u64 << 40) as f64;
        let most_missing = TABLE_BUCKETS / 4;
        let n = TABLE_BUCKETS as f64;
        let widen = |x: f64| x + x * MARGIN_PER_UNIT + 1e-9;
        // Bucket 0 reaches `u = 0`, where the interval is unbounded, and the
        // buckets below `1/(e^(1/mean) - 1)` span more than one interval, so
        // each holds a rounding boundary.
        let mut i = (1.0 / (1.0 / mean).exp_m1()).max(0.0) as usize + 1;
        let mut missing = i;
        if missing > most_missing {
            return None;
        }
        let mut entries = [0u16; TABLE_BUCKETS];
        while i < TABLE_BUCKETS {
            // No `u` from bucket `i` up draws more than `value` ...
            let value = widen(mean * -(i as f64 / n).ln()).round().max(1.0);
            // ... and none below bucket coordinate `end` draws less.
            let end = if value > 1.0 {
                (-widen(value - 0.5) / mean).exp() * n
            } else {
                n
            };
            let end = (end as usize).min(TABLE_BUCKETS);
            if end > i && value <= f64::from(u16::MAX) {
                entries[i..end].fill(value as u16);
                i = end;
            }
            // Bucket `i` holds the boundary (or ends on it): leave it empty.
            if i < TABLE_BUCKETS {
                missing += 1;
                if missing > most_missing {
                    return None;
                }
                i += 1;
            }
        }
        Some(Self(entries))
    }

    /// The interval every `u` of `u`'s bucket gives, if the table holds one.
    fn lookup(&self, u: f64) -> Option<u64> {
        let entry = *self.0.get((u * TABLE_BUCKETS as f64) as usize)?;
        (entry != 0).then_some(u64::from(entry))
    }
}

impl fmt::Debug for IntervalTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let held = self.0.iter().filter(|&&e| e != 0).count();
        write!(f, "IntervalTable({held} of {TABLE_BUCKETS} buckets held)")
    }
}

/// The mean of one exponential interval a stream draws, with the lookup
/// table of that mean when one was kept.
#[derive(Debug, Clone)]
struct Interval {
    mean: f64,
    table: Option<Arc<IntervalTable>>,
}

impl Interval {
    /// An interval drawn by the exact formula only.
    fn exact(mean: f64) -> Self {
        Self { mean, table: None }
    }

    /// An interval with its lookup table, if the table pays.
    fn tabled(mean: f64) -> Self {
        let table = if mean.is_finite() {
            IntervalTable::build(mean).map(Arc::new)
        } else {
            None
        };
        Self { mean, table }
    }

    /// Draws one interval (one uniform draw from `rng`), counting the draw
    /// and whether it took the exact path in `work`.
    fn draw(&self, rng: &mut StdRng, work: &mut GeneratorWork) -> u64 {
        if !self.mean.is_finite() {
            return u64::MAX / 4;
        }
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        work.interval_draws += 1;
        if let Some(interval) = self.table.as_ref().and_then(|t| t.lookup(u)) {
            debug_assert_eq!(interval, exact_interval(self.mean, u), "u = {u:e}");
            return interval;
        }
        work.exact_draws += 1;
        exact_interval(self.mean, u)
    }
}

/// Host-side work counts of the op generator, summed over streams. They
/// are in no snapshot and not part of any statistic: a restored stream
/// keeps counting from what it had.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GeneratorWork {
    /// Ops (compute gaps and memory accesses) generated.
    pub ops_generated: u64,
    /// Exponential intervals drawn (data, fetch and hot countdowns).
    pub interval_draws: u64,
    /// Interval draws that took the exact `ln` path rather than a table.
    pub exact_draws: u64,
}

impl std::ops::AddAssign for GeneratorWork {
    fn add_assign(&mut self, rhs: Self) {
        self.ops_generated += rhs.ops_generated;
        self.interval_draws += rhs.interval_draws;
        self.exact_draws += rhs.exact_draws;
    }
}

/// Generates the instruction stream of one core of one workload.
///
/// The stream is a statistical model of the workload's behaviour as
/// characterized by the paper: mostly compute instructions, L1-resident hot
/// accesses, instruction fetches over a code footprint, and off-chip data
/// accesses whose rate, row locality, write fraction and memory-level
/// parallelism come from the [`WorkloadSpec`].
///
/// # Examples
///
/// ```
/// use cloudmc_workloads::{CoreStream, Workload};
///
/// let mut stream = CoreStream::new(Workload::WebSearch.spec(), 0, 42);
/// let ops: Vec<_> = (0..100).map(|_| stream.next_op()).collect();
/// assert_eq!(ops.len(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct CoreStream {
    spec: WorkloadSpec,
    /// Core index *within the owning tenant* (drives the per-core intensity
    /// skew, which is a property of the workload, not of core placement).
    core: usize,
    /// Global core slot in the pod; drives all address-layout decisions so
    /// that the tenants of a mix never alias each other's memory.
    layout_core: usize,
    /// Byte offset of this core's code region inside the global code area
    /// (cores are packed back to back even across tenants with different
    /// code footprints).
    code_offset: u64,
    rng: StdRng,
    layout: Layout,
    /// Remaining block addresses of the current row burst.
    burst: VecDeque<u64>,
    /// Sequential instruction-fetch cursor (block offset within the code
    /// region); instruction fetch walks the code mostly sequentially with
    /// occasional jumps, like straight-line server code with calls/branches.
    ifetch_cursor: u64,
    /// Whether the stream is currently in a high-intensity phase.
    phase_hot: bool,
    /// `instructions_planned` at which the scheduled phase can next differ
    /// from `phase_hot` (the next hot/quiet boundary; `u64::MAX` for a spec
    /// without phases). Restores reset it to 0, which checks on the next op.
    next_phase_check: u64,
    /// Instructions between off-chip data events in the quiet and the hot
    /// phase, indexed by `phase_hot` (fixed by the spec and the core).
    data_interval: [Interval; 2],
    /// Instructions between instruction fetches (fixed by the spec).
    ifetch_interval: Interval,
    /// Instructions between hot accesses (fixed by the spec).
    hot_interval: Interval,
    /// Instructions until the next off-chip data event.
    until_data: u64,
    /// Instructions until the next instruction-fetch event.
    until_ifetch: u64,
    /// Instructions until the next hot (L1-resident) access.
    until_hot: u64,
    /// Counters for calibration tests.
    instructions_planned: u64,
    data_events: u64,
    data_accesses: u64,
    /// Host-side work counts.
    work: GeneratorWork,
}

impl CoreStream {
    /// Creates the stream for `core` of the given workload spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec does not validate or `core` is out of range.
    #[must_use]
    pub fn new(spec: WorkloadSpec, core: usize, seed: u64) -> Self {
        let code_offset = spec.code_footprint_bytes * core as u64;
        let shared = Self::shared_intervals(&spec);
        Self::placed(spec, core, core, code_offset, seed, shared)
    }

    /// The fetch and hot intervals of `spec`, with their tables: they do
    /// not depend on the core, so the streams of one tenant share them.
    fn shared_intervals(spec: &WorkloadSpec) -> [Interval; 2] {
        let ifetch = if spec.ifetch_mpki <= 0.0 {
            f64::INFINITY
        } else {
            1000.0 / spec.ifetch_mpki
        };
        let hot = if spec.hot_access_rate <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / spec.hot_access_rate
        };
        [Interval::tabled(ifetch), Interval::tabled(hot)]
    }

    /// Creates the stream for local `core` of one tenant of a mix, placed at
    /// global core slot `layout_core` with its code region at `code_offset`
    /// bytes into the code area, drawing from the tenant's
    /// [`CoreStream::shared_intervals`]. [`CoreStream::new`] is the
    /// single-tenant case where both indices coincide.
    ///
    /// # Panics
    ///
    /// Panics if the spec does not validate or `core` is out of range.
    fn placed(
        spec: WorkloadSpec,
        core: usize,
        layout_core: usize,
        code_offset: u64,
        seed: u64,
        [ifetch_interval, hot_interval]: [Interval; 2],
    ) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "documented constructor contract: spec must validate"
        )]
        spec.validate().expect("invalid workload spec");
        assert!(
            core < spec.cores,
            "core {core} out of range ({} cores)",
            spec.cores
        );
        let mut stream = Self {
            data_interval: [false, true]
                .map(|hot| Interval::exact(Self::mean_data_interval(&spec, core, hot))),
            ifetch_interval,
            hot_interval,
            spec,
            core,
            layout_core,
            code_offset,
            rng: StdRng::seed_from_u64(
                seed ^ (layout_core as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC10D,
            ),
            layout: Layout::DEFAULT,
            burst: VecDeque::new(),
            ifetch_cursor: 0,
            phase_hot: false,
            next_phase_check: 0,
            until_data: 1,
            until_ifetch: 1,
            until_hot: 1,
            instructions_planned: 0,
            data_events: 0,
            data_accesses: 0,
            work: GeneratorWork::default(),
        };
        stream.until_data = stream.draw_data_interval();
        stream.until_ifetch = stream
            .ifetch_interval
            .draw(&mut stream.rng, &mut stream.work);
        stream.until_hot = stream.hot_interval.draw(&mut stream.rng, &mut stream.work);
        stream
    }

    /// The workload this stream belongs to.
    #[must_use]
    pub fn workload(&self) -> Workload {
        self.spec.workload
    }

    /// The core index this stream drives.
    #[must_use]
    pub fn core(&self) -> usize {
        self.core
    }

    /// The code (instruction) region of this core as `(base, size_bytes)`.
    ///
    /// Exposed so the simulator can functionally pre-warm the caches with the
    /// instruction working set, mirroring the paper's long warm-up phase.
    #[must_use]
    pub fn code_region(&self) -> (u64, u64) {
        (
            self.layout.code_base + self.code_offset,
            self.spec.code_footprint_bytes,
        )
    }

    /// The hot (L1-resident) data region of this core as `(base, size_bytes)`.
    #[must_use]
    pub fn hot_region(&self) -> (u64, u64) {
        (
            self.layout.private_base
                + self.layout_core as u64 * self.layout.private_stride
                + self.layout.private_stride
                - self.layout.hot_stride,
            self.layout.hot_stride,
        )
    }

    /// Off-chip data accesses generated so far.
    #[must_use]
    pub fn data_accesses(&self) -> u64 {
        self.data_accesses
    }

    /// Instructions represented by the ops generated so far (compute bursts
    /// count their full width).
    #[must_use]
    pub fn instructions_planned(&self) -> u64 {
        self.instructions_planned
    }

    /// The generator's host-side work counts so far.
    #[must_use]
    pub fn work(&self) -> GeneratorWork {
        self.work
    }

    /// Length of a high-intensity phase in instructions.
    const HOT_PHASE_INSTR: u64 = 6_000;
    /// Length of one hot + quiet cycle of the phase schedule in instructions.
    const PHASE_PERIOD_INSTR: u64 = 24_000;
    /// Fraction of instructions spent in the high-intensity phase.
    const HOT_PHASE_FRACTION: f64 = Self::HOT_PHASE_INSTR as f64 / Self::PHASE_PERIOD_INSTR as f64;

    /// Intensity multiplier of the hot or the quiet phase. The time-weighted
    /// mean over hot and quiet phases is 1.0, so the long-run MPKI matches
    /// the spec.
    fn phase_multiplier(spec: &WorkloadSpec, hot_phase: bool) -> f64 {
        let b = spec.burstiness;
        if b <= 0.0 {
            return 1.0;
        }
        let hot = 1.0 + 3.0 * b;
        if hot_phase {
            hot
        } else {
            ((1.0 - Self::HOT_PHASE_FRACTION * hot) / (1.0 - Self::HOT_PHASE_FRACTION)).max(0.05)
        }
    }

    /// Mean instructions between off-chip data *events* (a burst counts as
    /// one event) of `core` in the hot or quiet phase.
    fn mean_data_interval(spec: &WorkloadSpec, core: usize, hot: bool) -> f64 {
        let accesses_per_event =
            spec.row_burst_prob * spec.row_burst_len + (1.0 - spec.row_burst_prob);
        let mpki =
            (spec.data_mpki * spec.intensity_factor(core) * Self::phase_multiplier(spec, hot))
                .max(1e-3);
        1000.0 * accesses_per_event / mpki
    }

    /// Draws the data-event interval of the current phase.
    fn draw_data_interval(&mut self) -> u64 {
        self.data_interval[usize::from(self.phase_hot)].draw(&mut self.rng, &mut self.work)
    }

    /// Accounts for executed instructions in the phase machine; on a phase
    /// transition the data-event countdown is re-drawn under the new
    /// intensity.
    ///
    /// The phase schedule is a deterministic function of progress (planned
    /// instructions), so the cores of one workload spike together — load
    /// spikes in server systems are driven by the offered request load and
    /// hit all cores at once. This is what creates the transient memory
    /// contention under which the scheduling algorithms differ. The
    /// schedule only changes at a hot/quiet boundary, so it is consulted
    /// once `instructions_planned` reaches the next one.
    fn consume_instructions(&mut self) {
        if self.instructions_planned < self.next_phase_check {
            return;
        }
        if self.spec.burstiness <= 0.0 {
            self.next_phase_check = u64::MAX;
            return;
        }
        let into_period = self.instructions_planned % Self::PHASE_PERIOD_INSTR;
        let scheduled = into_period < Self::HOT_PHASE_INSTR;
        let boundary = if scheduled {
            Self::HOT_PHASE_INSTR
        } else {
            Self::PHASE_PERIOD_INSTR
        };
        self.next_phase_check = (self.instructions_planned - into_period).saturating_add(boundary);
        if scheduled != self.phase_hot {
            self.phase_hot = scheduled;
            self.until_data = self.draw_data_interval();
        }
    }

    fn private_region(&self) -> (u64, u64) {
        let base = self.layout.private_base + self.layout_core as u64 * self.layout.private_stride;
        (
            base,
            self.spec.footprint_bytes.min(self.layout.private_stride),
        )
    }

    fn random_block_in(&mut self, base: u64, size: u64) -> u64 {
        let blocks = (size / BLOCK_BYTES).max(1);
        base + self.rng.gen_range(0..blocks) * BLOCK_BYTES
    }

    fn data_address_base(&mut self) -> (u64, u64) {
        if self.rng.gen_bool(self.spec.shared_fraction) {
            (self.layout.shared_base, self.layout.shared_size)
        } else {
            self.private_region()
        }
    }

    /// Starts an off-chip data event: either a single access or a sequential
    /// row burst. Returns the first access; the rest are queued.
    fn start_data_event(&mut self) -> MemOp {
        self.data_events += 1;
        let (base, size) = self.data_address_base();
        let first = if self.rng.gen_bool(self.spec.row_burst_prob) {
            // Geometric burst length with the configured mean, at least 2.
            let mean = (self.spec.row_burst_len - 1.0).max(1.0);
            let p = 1.0 / mean;
            let mut len = 2u64;
            while len < 64 && !self.rng.gen_bool(p) {
                len += 1;
            }
            // Base aligned to the start of a DRAM row so the burst stays
            // within one row under the single-channel mapping.
            let rows = (size / ROW_BYTES).max(1);
            let row_base = base + self.rng.gen_range(0..rows) * ROW_BYTES;
            let max_blocks = ROW_BYTES / BLOCK_BYTES;
            let len = len.min(max_blocks);
            for i in 1..len {
                self.burst.push_back(row_base + i * BLOCK_BYTES);
            }
            row_base
        } else {
            self.random_block_in(base, size)
        };
        self.data_op(first)
    }

    fn data_op(&mut self, addr: u64) -> MemOp {
        self.data_accesses += 1;
        let is_store = self.rng.gen_bool(self.spec.store_fraction);
        let overlappable = !is_store && self.rng.gen_bool(self.spec.mlp_fraction);
        MemOp {
            kind: if is_store {
                OpKind::Store
            } else {
                OpKind::Load
            },
            addr,
            overlappable,
        }
    }

    fn ifetch_op(&mut self) -> MemOp {
        // Code regions of the different cores are packed back to back so that
        // they spread over all L2 sets instead of aliasing onto the same ones
        // (the per-core stride would otherwise be a multiple of the set span).
        let base = self.layout.code_base + self.code_offset;
        let blocks = self.code_blocks();
        // Cyclic sequential walk through the code with very occasional jumps
        // (calls, branches): the instruction working set is touched within a
        // few thousand instructions and then lives in the shared L2, which is
        // exactly the behaviour the paper reports (long fetch stalls served
        // by the LLC, not by memory).
        if self.rng.gen_bool(1.0 / 512.0) {
            self.ifetch_cursor = self.rng.gen_range(0..blocks);
        } else {
            self.ifetch_cursor += 1;
            if self.ifetch_cursor == blocks {
                self.ifetch_cursor = 0;
            }
        }
        MemOp {
            kind: OpKind::Ifetch,
            addr: base + self.ifetch_cursor * BLOCK_BYTES,
            overlappable: false,
        }
    }

    fn hot_op(&mut self) -> MemOp {
        let base = self.layout.private_base
            + self.layout_core as u64 * self.layout.private_stride
            + self.layout.private_stride
            - self.layout.hot_stride;
        let addr = self.random_block_in(base, self.layout.hot_stride);
        let is_store = self.rng.gen_bool(0.3);
        MemOp {
            kind: if is_store {
                OpKind::Store
            } else {
                OpKind::Load
            },
            addr,
            overlappable: true,
        }
    }

    /// Blocks in this core's code region (the fetch walk's period).
    fn code_blocks(&self) -> u64 {
        (self.spec.code_footprint_bytes / BLOCK_BYTES).max(1)
    }

    /// A row burst never exceeds one DRAM row's worth of blocks, and the
    /// fetch cursor stays inside the code region. The phase check point is
    /// not in the image: the next op re-derives it.
    fn check_restored(&mut self, r: &SnapReader<'_>) -> Result<(), SnapError> {
        if self.burst.len() as u64 > ROW_BYTES / BLOCK_BYTES {
            return Err(r.bad_value(format!("burst length {} exceeds one row", self.burst.len())));
        }
        if self.ifetch_cursor >= self.code_blocks() {
            return Err(r.bad_value(format!(
                "fetch cursor {} outside the {}-block code region",
                self.ifetch_cursor,
                self.code_blocks()
            )));
        }
        self.next_phase_check = 0;
        Ok(())
    }

    /// Re-seeds the stream's RNG mid-run (per-replicate divergence when a
    /// sweep forks measured cells off a shared warm checkpoint). Placement,
    /// phase machine and counters are untouched — only future random draws
    /// change.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(
            seed ^ (self.layout_core as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC10D,
        );
    }

    /// Produces the next instruction-stream slot.
    pub fn next_op(&mut self) -> CoreOp {
        self.work.ops_generated += 1;
        // Burst continuation: back-to-back accesses within the open row.
        if let Some(addr) = self.burst.pop_front() {
            self.instructions_planned += 1;
            self.consume_instructions();
            let op = self.data_op(addr);
            return CoreOp::Mem(op);
        }
        let next_event = self.until_data.min(self.until_ifetch).min(self.until_hot);
        if next_event > 1 {
            // Emit the compute gap up to (but not including) the next event.
            let gap = (next_event - 1).min(u64::from(u32::MAX)) as u32;
            self.until_data -= u64::from(gap);
            self.until_ifetch = self.until_ifetch.saturating_sub(u64::from(gap));
            self.until_hot = self.until_hot.saturating_sub(u64::from(gap));
            self.instructions_planned += u64::from(gap);
            self.consume_instructions();
            return CoreOp::Compute(gap);
        }
        self.instructions_planned += 1;
        self.consume_instructions();
        if self.until_data <= 1 {
            self.until_data = self.draw_data_interval();
            self.until_ifetch = self.until_ifetch.saturating_sub(1).max(1);
            self.until_hot = self.until_hot.saturating_sub(1).max(1);
            let op = self.start_data_event();
            CoreOp::Mem(op)
        } else if self.until_ifetch <= 1 {
            self.until_ifetch = self.ifetch_interval.draw(&mut self.rng, &mut self.work);
            self.until_data = self.until_data.saturating_sub(1).max(1);
            self.until_hot = self.until_hot.saturating_sub(1).max(1);
            let op = self.ifetch_op();
            CoreOp::Mem(op)
        } else {
            self.until_hot = self.hot_interval.draw(&mut self.rng, &mut self.work);
            self.until_data = self.until_data.saturating_sub(1).max(1);
            self.until_ifetch = self.until_ifetch.saturating_sub(1).max(1);
            let op = self.hot_op();
            CoreOp::Mem(op)
        }
    }
}

/// The set of per-core streams making up one run — one stream per core over
/// all tenants of a [`MixSpec`] — plus the per-tenant DMA injection rates.
#[derive(Debug, Clone)]
pub struct WorkloadStreams {
    mix: MixSpec,
    streams: Vec<CoreStream>,
}

impl WorkloadStreams {
    /// Builds one stream per core of `workload`, deterministically seeded.
    #[must_use]
    pub fn new(workload: Workload, seed: u64) -> Self {
        Self::from_spec(workload.spec(), seed)
    }

    /// Builds streams from an explicit (possibly customized) single-tenant
    /// spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec does not validate.
    #[must_use]
    pub fn from_spec(spec: WorkloadSpec, seed: u64) -> Self {
        Self::from_mix(MixSpec::solo(spec), seed)
    }

    /// Builds the streams of every tenant of `mix`: tenants own contiguous
    /// global core slots, and each core's *private*, hot and code regions
    /// are placed by its global slot so tenants never alias each other's
    /// private memory. The shared region (OS structures, shared heaps) and
    /// the DMA buffer window are deliberately shared across tenants, as on a
    /// real consolidated node.
    ///
    /// # Panics
    ///
    /// Panics if the mix does not validate.
    #[must_use]
    pub fn from_mix(mix: MixSpec, seed: u64) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "documented constructor contract: mix must validate"
        )]
        mix.validate().expect("invalid workload mix");
        let mut streams = Vec::with_capacity(mix.total_cores());
        let mut layout_core = 0usize;
        let mut code_offset = 0u64;
        for tenant in mix.tenants() {
            let shared = CoreStream::shared_intervals(&tenant.workload);
            for core in 0..tenant.workload.cores {
                streams.push(CoreStream::placed(
                    tenant.workload,
                    core,
                    layout_core,
                    code_offset,
                    seed,
                    shared.clone(),
                ));
                layout_core += 1;
                code_offset += tenant.workload.code_footprint_bytes;
            }
        }
        Self { mix, streams }
    }

    /// The mix driving these streams.
    #[must_use]
    pub fn mix(&self) -> &MixSpec {
        &self.mix
    }

    /// The spec of the first tenant (the only tenant for single-tenant runs).
    #[must_use]
    pub fn spec(&self) -> &WorkloadSpec {
        &self.mix.tenant(0).workload
    }

    /// The tenant owning global core `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn tenant_of_core(&self, core: usize) -> TenantId {
        self.mix.tenant_of_core(core)
    }

    /// Number of cores (= number of streams).
    #[must_use]
    pub fn cores(&self) -> usize {
        self.streams.len()
    }

    /// Mutable access to the stream of `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn stream_mut(&mut self, core: usize) -> &mut CoreStream {
        &mut self.streams[core]
    }

    /// Shared access to the stream of `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn stream(&self, core: usize) -> &CoreStream {
        &self.streams[core]
    }

    /// The generator's host-side work counts, summed over every stream.
    #[must_use]
    pub fn work(&self) -> GeneratorWork {
        let mut sum = GeneratorWork::default();
        for stream in &self.streams {
            sum += stream.work();
        }
        sum
    }

    /// DMA/IO requests to inject per kilo CPU cycles, summed over tenants.
    #[must_use]
    pub fn dma_per_kcycle(&self) -> f64 {
        self.mix.tenants().map(|t| t.workload.dma_per_kcycle).sum()
    }

    /// Re-seeds every core stream's RNG mid-run (per-replicate divergence
    /// when a sweep forks measured cells off a shared warm checkpoint).
    pub fn reseed(&mut self, seed: u64) {
        for stream in &mut self.streams {
            stream.reseed(seed);
        }
    }
}

snap_fields! {
    CoreStream {
        saved: {
            rng: via(StdRng::state, StdRng::set_state),
            burst,
            ifetch_cursor,
            phase_hot,
            until_data,
            until_ifetch,
            until_hot,
            instructions_planned,
            data_events,
            data_accesses,
        },
        skipped: {
            spec: "config-derived",
            core: "config-derived",
            layout_core: "config-derived",
            code_offset: "config-derived",
            layout: "config-derived",
            next_phase_check: "derived from instructions_planned; reset by check_restored",
            data_interval: "config-derived",
            ifetch_interval: "config-derived",
            hot_interval: "config-derived",
            work: "host-side work counts, not simulated state",
        },
        after_load: Self::check_restored,
    }
}

snap_fields! {
    WorkloadStreams {
        section: "workload-streams",
        saved: { streams: fixed },
        skipped: { mix: "config-derived" },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Workload;

    fn drive(stream: &mut CoreStream, instructions: u64) -> (u64, u64, u64) {
        // Returns (instructions, data accesses, store accesses).
        let mut instr = 0u64;
        let mut data = 0u64;
        let mut stores = 0u64;
        while instr < instructions {
            match stream.next_op() {
                CoreOp::Compute(n) => instr += u64::from(n),
                CoreOp::Mem(op) => {
                    instr += 1;
                    let off_chip = op.addr >= 0x0400_0000 && op.kind != OpKind::Ifetch
                        // hot region sits at the top of the private stride
                        && (op.addr & 0x0FFF_FFFF) < 0x0FFF_C000;
                    if off_chip {
                        data += 1;
                        if op.kind == OpKind::Store {
                            stores += 1;
                        }
                    }
                }
            }
        }
        (instr, data, stores)
    }

    #[test]
    fn generated_mpki_tracks_spec() {
        for w in [Workload::WebSearch, Workload::DataServing, Workload::TpchQ6] {
            let spec = w.spec();
            let mut stream = CoreStream::new(spec, 0, 7);
            let (instr, data, _) = drive(&mut stream, 400_000);
            let mpki = data as f64 * 1000.0 / instr as f64;
            let target = spec.data_mpki * spec.intensity_factor(0);
            assert!(
                (mpki - target).abs() / target < 0.25,
                "{w}: generated MPKI {mpki:.2}, target {target:.2}"
            );
        }
    }

    #[test]
    fn store_fraction_roughly_matches_spec() {
        let spec = Workload::TpcC1.spec();
        let mut stream = CoreStream::new(spec, 0, 11);
        let (_, data, stores) = drive(&mut stream, 600_000);
        let frac = stores as f64 / data as f64;
        assert!(
            (frac - spec.store_fraction).abs() < 0.08,
            "store fraction {frac:.2} vs spec {}",
            spec.store_fraction
        );
    }

    #[test]
    fn same_seed_is_deterministic_and_cores_differ() {
        let spec = Workload::MediaStreaming.spec();
        let mut a = CoreStream::new(spec, 0, 99);
        let mut b = CoreStream::new(spec, 0, 99);
        let mut c = CoreStream::new(spec, 1, 99);
        let seq_a: Vec<_> = (0..200).map(|_| a.next_op()).collect();
        let seq_b: Vec<_> = (0..200).map(|_| b.next_op()).collect();
        let seq_c: Vec<_> = (0..200).map(|_| c.next_op()).collect();
        assert_eq!(seq_a, seq_b);
        assert_ne!(seq_a, seq_c);
    }

    #[test]
    fn bursts_produce_sequential_row_addresses() {
        let mut spec = Workload::MediaStreaming.spec();
        spec.row_burst_prob = 1.0; // force bursts
        let mut stream = CoreStream::new(spec, 0, 3);
        let mut last: Option<u64> = None;
        let mut sequential_pairs = 0;
        let mut mem_ops = 0;
        for _ in 0..25_000 {
            if let CoreOp::Mem(op) = stream.next_op() {
                // Only consider off-chip data accesses (skip ifetches and the
                // small L1-resident hot region at the top of the private
                // stride) — those are the accesses bursts are made of.
                let is_hot = op.addr >= 0x4FFF_C000 && op.addr < 0x5000_0000;
                if op.kind != OpKind::Ifetch && op.addr >= 0x0400_0000 && !is_hot {
                    mem_ops += 1;
                    if let Some(prev) = last {
                        if op.addr == prev + BLOCK_BYTES {
                            sequential_pairs += 1;
                        }
                    }
                    last = Some(op.addr);
                }
            } else {
                last = None;
            }
        }
        assert!(mem_ops > 100);
        assert!(
            sequential_pairs as f64 / mem_ops as f64 > 0.3,
            "expected many sequential pairs, got {sequential_pairs}/{mem_ops}"
        );
    }

    #[test]
    fn cores_use_disjoint_private_regions() {
        let spec = Workload::DataServing.spec();
        let mut s0 = CoreStream::new(spec, 0, 5);
        let mut s1 = CoreStream::new(spec, 1, 5);
        let collect = |s: &mut CoreStream| {
            let mut addrs = Vec::new();
            for _ in 0..3_000 {
                if let CoreOp::Mem(op) = s.next_op() {
                    if op.addr >= 0x4000_0000 {
                        addrs.push(op.addr);
                    }
                }
            }
            addrs
        };
        let a0 = collect(&mut s0);
        let a1 = collect(&mut s1);
        assert!(!a0.is_empty() && !a1.is_empty());
        let max0 = a0.iter().max().unwrap();
        let min1 = a1.iter().min().unwrap();
        assert!(
            max0 < min1,
            "core 0 addresses must stay below core 1's region"
        );
    }

    #[test]
    fn workload_streams_build_for_every_workload() {
        for w in Workload::all() {
            let mut streams = WorkloadStreams::new(w, 1);
            assert_eq!(streams.cores(), w.spec().cores);
            let op = streams.stream_mut(0).next_op();
            match op {
                CoreOp::Compute(n) => assert!(n >= 1),
                CoreOp::Mem(_) => {}
            }
            assert!((streams.dma_per_kcycle() - w.spec().dma_per_kcycle).abs() < 1e-12);
            assert_eq!(streams.spec().workload, w);
        }
    }

    #[test]
    fn mix_tenants_use_disjoint_address_regions() {
        use crate::mix::{MixSpec, TenantSpec};
        let mix = MixSpec::new(TenantSpec::latency_critical(Workload::WebSearch, 2))
            .and(TenantSpec::batch(Workload::TpchQ6, 2));
        let streams = WorkloadStreams::from_mix(mix, 9);
        assert_eq!(streams.cores(), 4);
        assert_eq!(streams.tenant_of_core(0), 0);
        assert_eq!(streams.tenant_of_core(3), 1);
        // Code regions are packed back to back across tenants.
        let mut next_code = None;
        for core in 0..4 {
            let (base, size) = streams.stream(core).code_region();
            if let Some(expected) = next_code {
                assert_eq!(base, expected, "core {core} code region must follow");
            }
            next_code = Some(base + size);
        }
        // Private regions are placed by global slot: strictly increasing and
        // disjoint across the tenant boundary.
        let hot_bases: Vec<u64> = (0..4).map(|c| streams.stream(c).hot_region().0).collect();
        for pair in hot_bases.windows(2) {
            assert!(pair[0] < pair[1], "hot regions must not alias: {pair:?}");
        }
        // Same workload in a mix at a different slot produces a different
        // stream than standalone core 0, but the same spec statistics.
        assert_eq!(streams.stream(2).workload(), Workload::TpchQ6);
        assert_eq!(streams.stream(2).core(), 0);
    }

    /// What [`record`] reads off a stream: the hash of its first ops, then
    /// `instructions_planned`, `data_events`, `data_accesses` and the
    /// longest compute gap emitted.
    type Recording = (u64, u64, u64, u64, u64);

    /// Drives core 3 of `spec` (seed 17) for `ops` ops and folds every op
    /// into an FNV-1a hash.
    fn record(spec: WorkloadSpec, ops: usize) -> Recording {
        let mut stream = CoreStream::new(spec, 3, 17);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut longest_gap = 0;
        for _ in 0..ops {
            let words = match stream.next_op() {
                CoreOp::Compute(n) => {
                    longest_gap = longest_gap.max(u64::from(n));
                    [0, u64::from(n)]
                }
                CoreOp::Mem(op) => {
                    let kind = match op.kind {
                        OpKind::Load => 1,
                        OpKind::Store => 2,
                        OpKind::Ifetch => 3,
                    };
                    [kind | u64::from(op.overlappable) << 2, op.addr]
                }
            };
            for word in words {
                hash = (hash ^ word).wrapping_mul(0x0100_0000_01b3);
            }
        }
        (
            hash,
            stream.instructions_planned,
            stream.data_events,
            stream.data_accesses,
            longest_gap,
        )
    }

    /// A spec whose off-chip events come more than a whole phase period
    /// apart, with no fetch or hot accesses in between: most compute gaps
    /// skip whole hot/quiet phases.
    fn sparse_bursty_spec() -> WorkloadSpec {
        let mut spec = Workload::WebSearch.spec();
        spec.data_mpki = 0.02;
        spec.ifetch_mpki = 0.0;
        spec.hot_access_rate = 0.0;
        spec.burstiness = 0.9;
        spec
    }

    /// The op streams recorded from the generator as it stood before its
    /// interval means were cached and its per-op phase check became a
    /// comparison: a bursty preset, a spec without phases, and one whose
    /// gaps skip whole phases must keep producing them.
    #[test]
    fn streams_match_recorded_sequences() {
        let mut flat = Workload::WebSearch.spec();
        flat.burstiness = 0.0;
        let cases = [
            (
                "bursty WebSearch preset",
                Workload::WebSearch.spec(),
                200_000,
            ),
            ("WebSearch without phases", flat, 200_000),
            (
                "gaps longer than a phase period",
                sparse_bursty_spec(),
                3_000,
            ),
        ];
        let expected: [Recording; 3] = [
            (0x9c28_3676_6e93_8449, 0xa_1cae, 0x25b, 0x3c2, 0x49),
            (0x2cf6_09c5_89a3_af1d, 0xa_1704, 0x291, 0x429, 0x44),
            (0x1f25_94fb_d849_5ec3, 0x2cee_7687, 0x389, 0x5f0, 0x52_cbee),
        ];
        for ((name, spec, ops), want) in cases.into_iter().zip(expected) {
            assert_eq!(record(spec, ops), want, "{name}");
        }
        let (_, planned, _, _, longest_gap) = expected[2];
        assert!(longest_gap > 4 * CoreStream::PHASE_PERIOD_INSTR && planned > 0);
    }

    /// A stream restored from an image taken in the middle of a hot phase
    /// continues op for op like the original, even when restored into a
    /// stream that had been driven elsewhere.
    #[test]
    fn restore_mid_phase_continues_op_identically() {
        use cloudmc_snap::{Snap, SnapWriter};
        let spec = Workload::WebSearch.spec();
        let mut original = CoreStream::new(spec, 2, 23);
        while original.instructions_planned < 2 * CoreStream::PHASE_PERIOD_INSTR
            || !(1_000..5_000)
                .contains(&(original.instructions_planned % CoreStream::PHASE_PERIOD_INSTR))
        {
            original.next_op();
        }
        assert!(original.phase_hot, "stopped inside a hot phase");
        let mut w = SnapWriter::new(0);
        original.save(&mut w);
        let image = w.finish();

        let mut restored = CoreStream::new(spec, 2, 23);
        for _ in 0..50_000 {
            restored.next_op();
        }
        let mut r = SnapReader::new(&image, 0).unwrap();
        restored.load(&mut r).unwrap();
        r.finish().unwrap();
        for i in 0..30_000 {
            assert_eq!(
                original.next_op(),
                restored.next_op(),
                "op {i} after restore"
            );
        }
        assert_eq!(original.instructions_planned, restored.instructions_planned);
        assert_eq!(original.data_events, restored.data_events);
    }

    /// The fetch and hot means of every workload at the intensities the
    /// sweeps and benchmarks use.
    fn shared_means() -> Vec<(String, f64)> {
        let mut means = Vec::new();
        for w in Workload::all() {
            for intensity in [0.02, 0.1, 0.25, 0.5, 1.0, 2.0] {
                let spec = w.spec().with_intensity(intensity);
                for (name, interval) in ["ifetch", "hot"]
                    .into_iter()
                    .zip(CoreStream::shared_intervals(&spec))
                {
                    means.push((format!("{w}@{intensity} {name}"), interval.mean));
                }
            }
        }
        means
    }

    /// Every table entry equals the exact formula at both edge doubles of
    /// its bucket and one ulp inside each, and 100,000 draws through the
    /// stream's own uniform range agree with the formula per mean.
    #[test]
    fn table_draws_equal_the_exact_formula() {
        let next_up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let next_down = |x: f64| f64::from_bits(x.to_bits() - 1);
        let mut tables = 0;
        for (name, mean) in shared_means() {
            let Some(table) = IntervalTable::build(mean) else {
                continue;
            };
            tables += 1;
            let n = TABLE_BUCKETS as f64;
            for i in 0..TABLE_BUCKETS {
                let first = (i as f64 / n).max(f64::EPSILON);
                let last = next_down((i + 1) as f64 / n);
                for u in [first, next_up(first), next_down(last), last] {
                    assert_eq!((u * n) as usize, i, "{name}: u = {u:e} leaves bucket {i}");
                    if let Some(interval) = table.lookup(u) {
                        assert_eq!(interval, exact_interval(mean, u), "{name}: u = {u:e}");
                    }
                }
            }
            let interval = Interval {
                mean,
                table: Some(Arc::new(table)),
            };
            let mut rng = StdRng::seed_from_u64(mean.to_bits());
            let mut work = GeneratorWork::default();
            for _ in 0..100_000 {
                let mut twin = rng.clone();
                let u: f64 = twin.gen_range(f64::EPSILON..1.0);
                assert_eq!(
                    interval.draw(&mut rng, &mut work),
                    exact_interval(mean, u),
                    "{name}: u = {u:e}"
                );
                assert_eq!(rng.state(), twin.state(), "{name}: one uniform per draw");
            }
            assert_eq!(work.interval_draws, 100_000);
            assert!(work.exact_draws < 25_000, "{name}: {work:?}");
        }
        assert!(tables >= 100, "only {tables} tables kept");
    }

    /// A table is kept only where three buckets in four hold a value: Web
    /// Search keeps both at full intensity and neither at 2%, where the
    /// means are in the hundreds. The streams of one tenant share them.
    #[test]
    fn tables_are_gated_and_shared_per_tenant() {
        let kept = |spec: &WorkloadSpec| {
            CoreStream::shared_intervals(spec).map(|interval| interval.table.is_some())
        };
        let spec = Workload::WebSearch.spec();
        assert_eq!(kept(&spec), [true, true]);
        assert_eq!(kept(&spec.with_intensity(0.02)), [false, false]);
        let streams = WorkloadStreams::new(Workload::WebSearch, 1);
        let table = |core: usize| streams.stream(core).ifetch_interval.table.clone().unwrap();
        assert!(Arc::ptr_eq(&table(0), &table(15)));
    }

    /// A restored fetch cursor must lie inside the code region: an image
    /// whose cursor was rewritten past the code footprint is rejected with
    /// a typed error instead of wrapping silently.
    #[test]
    fn restore_rejects_a_fetch_cursor_past_the_code_region() {
        use cloudmc_snap::{Snap, SnapWriter};
        let spec = Workload::WebSearch.spec();
        let image = |cursor: u64| {
            let mut stream = CoreStream::new(spec, 1, 5);
            stream.ifetch_cursor = cursor;
            let mut w = SnapWriter::new(0);
            stream.save(&mut w);
            w.finish()
        };
        let blocks = spec.code_footprint_bytes / BLOCK_BYTES;
        for (cursor, accepted) in [(blocks - 1, true), (blocks, false), (u64::MAX, false)] {
            let mut restored = CoreStream::new(spec, 1, 5);
            let bytes = image(cursor);
            let mut r = SnapReader::new(&bytes, 0).unwrap();
            let result = restored.load(&mut r);
            assert_eq!(result.is_ok(), accepted, "cursor {cursor}: {result:?}");
            if let Err(e) = result {
                assert!(e.to_string().contains("fetch cursor"), "{e}");
            }
        }
    }

    #[test]
    fn mlp_fraction_marks_loads_overlappable() {
        let mut spec = Workload::TpchQ6.spec();
        spec.mlp_fraction = 1.0;
        spec.store_fraction = 0.0;
        let mut stream = CoreStream::new(spec, 0, 13);
        let mut loads = 0;
        let mut overlappable = 0;
        for _ in 0..20_000 {
            if let CoreOp::Mem(op) = stream.next_op() {
                if op.kind == OpKind::Load && op.addr >= 0x4000_0000 {
                    loads += 1;
                    if op.overlappable {
                        overlappable += 1;
                    }
                }
            }
        }
        assert!(loads > 50);
        assert_eq!(loads, overlappable);
    }
}
