//! Set-associative cache model with LRU replacement and write-back,
//! write-allocate semantics.

use std::ops::Range;

use cloudmc_snap::{snap_fields, Snap, SnapError, SnapReader, SnapWriter};

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub associativity: usize,
    /// Cache block size in bytes.
    pub block_bytes: u64,
}

impl CacheConfig {
    /// Largest line count (`size_bytes / block_bytes`) that validates: the
    /// line array is allocated at construction, so it is bounded before
    /// anything is sized. At 64 B blocks this is a 64 MiB cache.
    pub const MAX_LINES: u64 = 1 << 20;

    /// 32 KB, 2-way, 64 B blocks: the paper's L1 configuration (Table 2).
    #[must_use]
    pub fn l1_baseline() -> Self {
        Self {
            size_bytes: 32 * 1024,
            associativity: 2,
            block_bytes: 64,
        }
    }

    /// One bank of the paper's shared 4 MB 16-way L2 (4 banks of 1 MB each).
    #[must_use]
    pub fn l2_bank_baseline() -> Self {
        Self {
            size_bytes: 1024 * 1024,
            associativity: 16,
            block_bytes: 64,
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.block_bytes * self.associativity as u64)
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a description naming the offending field and its value when
    /// a dimension is zero, the capacity is not divisible into whole sets,
    /// the set count is not a power of two, or the cache holds more than
    /// [`CacheConfig::MAX_LINES`] lines.
    pub fn validate(&self) -> Result<(), String> {
        if self.size_bytes == 0 || self.associativity == 0 || !self.block_bytes.is_power_of_two() {
            return Err(format!(
                "size_bytes ({}) and associativity ({}) must be non-zero and block_bytes ({}) a power of two",
                self.size_bytes, self.associativity, self.block_bytes
            ));
        }
        let set_bytes = self.block_bytes.checked_mul(self.associativity as u64);
        if !set_bytes.is_some_and(|bytes| self.size_bytes.is_multiple_of(bytes)) {
            return Err(format!(
                "size_bytes ({}) must divide evenly into sets of associativity ({}) x block_bytes ({})",
                self.size_bytes, self.associativity, self.block_bytes
            ));
        }
        if !self.sets().is_power_of_two() {
            return Err(format!("set count {} must be a power of two", self.sets()));
        }
        let lines = self.size_bytes / self.block_bytes;
        if lines > Self::MAX_LINES {
            return Err(format!(
                "size_bytes ({}) holds {lines} lines of block_bytes ({}), above {}",
                self.size_bytes,
                self.block_bytes,
                Self::MAX_LINES
            ));
        }
        Ok(())
    }
}

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the block was present.
    pub hit: bool,
    /// Block-aligned address of a dirty block evicted to make room, if any.
    pub writeback: Option<u64>,
}

/// Event counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty blocks written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Monotonic use stamp for LRU.
    last_use: u64,
}

/// The configuration plus the shift/mask form of its (power-of-two)
/// geometry, computed once so a lookup does no division.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    config: CacheConfig,
    /// `log2(block_bytes)`.
    block_shift: u32,
    /// `log2(sets)`.
    set_shift: u32,
    /// `sets - 1`.
    set_mask: u64,
}

impl Geometry {
    fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        Self {
            config,
            block_shift: config.block_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            set_mask: sets - 1,
        }
    }

    /// Where the ways of `addr`'s set sit in the flat line array, and the
    /// tag to look for there.
    fn locate(&self, addr: u64) -> (Range<usize>, u64) {
        let block = addr >> self.block_shift;
        let base = (block & self.set_mask) as usize * self.config.associativity;
        (
            base..base + self.config.associativity,
            block >> self.set_shift,
        )
    }

    /// Block-aligned address of the line with `tag` in the set at `ways`.
    fn block_addr(&self, ways: &Range<usize>, tag: u64) -> u64 {
        let set = (ways.start / self.config.associativity) as u64;
        ((tag << self.set_shift) | set) << self.block_shift
    }
}

/// A set-associative, write-back, write-allocate cache with LRU replacement.
///
/// # Examples
///
/// ```
/// use cloudmc_cpu::{Cache, CacheConfig};
///
/// let mut l1 = Cache::new(CacheConfig::l1_baseline());
/// assert!(!l1.access(0x1000, false).hit); // cold miss
/// assert!(l1.access(0x1000, false).hit);  // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    geometry: Geometry,
    /// Every line, set-major: set `s` owns `lines[s * ways..(s + 1) * ways]`.
    lines: Vec<Line>,
    stats: CacheStats,
    tick: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not validate.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "documented constructor contract: config must validate"
        )]
        config.validate().expect("invalid cache configuration");
        let empty = Line {
            tag: 0,
            valid: false,
            dirty: false,
            last_use: 0,
        };
        Self {
            geometry: Geometry::new(config),
            lines: vec![empty; config.sets() as usize * config.associativity],
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.geometry.config
    }

    /// Event counters.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Whether the block containing `addr` is resident (no state change).
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        let (ways, tag) = self.geometry.locate(addr);
        self.lines[ways].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Performs the load or store only if the block containing `addr` is
    /// resident, and reports whether it was. A miss changes nothing — not
    /// even the LRU clock — so the caller can replay it later through
    /// [`Cache::access`] with the exact effect it would have had here.
    pub fn access_if_resident(&mut self, addr: u64, is_write: bool) -> bool {
        let (ways, tag) = self.geometry.locate(addr);
        let Some(line) = self.lines[ways]
            .iter_mut()
            .find(|l| l.valid && l.tag == tag)
        else {
            return false;
        };
        self.tick += 1;
        line.last_use = self.tick;
        line.dirty |= is_write;
        self.stats.hits += 1;
        true
    }

    /// Performs a load (`is_write == false`) or store (`is_write == true`) to
    /// `addr`, allocating the block on a miss and returning any dirty block
    /// evicted in the process.
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheAccess {
        if self.access_if_resident(addr, is_write) {
            return CacheAccess {
                hit: true,
                writeback: None,
            };
        }
        self.tick += 1;
        self.stats.misses += 1;
        let (ways, tag) = self.geometry.locate(addr);
        let lines = &mut self.lines[ways.clone()];
        // Choose a victim: an invalid way if possible, else the LRU way.
        #[expect(
            clippy::expect_used,
            reason = "CacheConfig::validate rejects zero associativity"
        )]
        let victim_idx = lines.iter().position(|l| !l.valid).unwrap_or_else(|| {
            lines
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.last_use)
                .map(|(i, _)| i)
                .expect("associativity is non-zero")
        });
        let victim = std::mem::replace(
            &mut lines[victim_idx],
            Line {
                tag,
                valid: true,
                dirty: is_write,
                last_use: self.tick,
            },
        );
        let writeback = (victim.valid && victim.dirty).then(|| {
            self.stats.writebacks += 1;
            self.geometry.block_addr(&ways, victim.tag)
        });
        CacheAccess {
            hit: false,
            writeback,
        }
    }

    /// Invalidates the block containing `addr`, returning `true` if the block
    /// was present and dirty (i.e. a writeback is required).
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (ways, tag) = self.geometry.locate(addr);
        for line in &mut self.lines[ways] {
            if line.valid && line.tag == tag {
                line.valid = false;
                return std::mem::take(&mut line.dirty);
            }
        }
        false
    }
}

snap_fields! {
    CacheStats {
        saved: { hits, misses, writebacks },
        skipped: {},
    }
}

/// Bytes of one [`Line`] in the image: `tag` u64 LE, `valid` u8, `dirty`
/// u8, `last_use` u64 LE.
const LINE_BYTES: usize = 18;

fn encode_line(line: &Line) -> [u8; LINE_BYTES] {
    let mut record = [0; LINE_BYTES];
    record[..8].copy_from_slice(&line.tag.to_le_bytes());
    record[8] = u8::from(line.valid);
    record[9] = u8::from(line.dirty);
    record[10..].copy_from_slice(&line.last_use.to_le_bytes());
    record
}

/// The line array is the bulk of every image, so it travels as one run of
/// 18-byte records behind a length prefix that must equal the receiver's
/// line count; each flag byte is checked where it sits.
impl Snap for Cache {
    const MIN_BYTES: usize = 8 + CacheStats::MIN_BYTES + u64::MIN_BYTES;

    fn save(&self, w: &mut SnapWriter) {
        let Self {
            geometry: _, // config-derived
            lines,
            stats,
            tick,
        } = self;
        w.usize(lines.len());
        let (records, _) = w
            .bytes(lines.len() * LINE_BYTES)
            .as_chunks_mut::<LINE_BYTES>();
        for (record, line) in records.iter_mut().zip(lines) {
            *record = encode_line(line);
        }
        stats.save(w);
        tick.save(w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let Self {
            geometry: _,
            lines,
            stats,
            tick,
        } = self;
        let stored = r.usize()?;
        if stored != lines.len() {
            return Err(r.bad_value(format!(
                "{stored} lines stored, the configuration fixes {}",
                lines.len()
            )));
        }
        let start = r.offset();
        let (records, _) = r.bytes(lines.len() * LINE_BYTES)?.as_chunks::<LINE_BYTES>();
        for (k, (line, record)) in lines.iter_mut().zip(records).enumerate() {
            let (valid, dirty) = (record[8], record[9]);
            if (valid | dirty) > 1 {
                // Off the hot path: name the bad byte as `SnapReader::bool`
                // would have.
                let at = start + k * LINE_BYTES;
                r.decode_bool(valid, at + 8)?;
                r.decode_bool(dirty, at + 9)?;
            }
            let word = |from: usize| u64::from_le_bytes(std::array::from_fn(|i| record[from + i]));
            *line = Line {
                tag: word(0),
                valid: valid == 1,
                dirty: dirty == 1,
                last_use: word(10),
            };
        }
        stats.load(r)?;
        tick.load(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheConfig {
        // 4 sets x 2 ways x 64B = 512B
        CacheConfig {
            size_bytes: 512,
            associativity: 2,
            block_bytes: 64,
        }
    }

    #[test]
    fn baseline_configs_validate() {
        CacheConfig::l1_baseline().validate().unwrap();
        CacheConfig::l2_bank_baseline().validate().unwrap();
        assert_eq!(CacheConfig::l1_baseline().sets(), 256);
        assert_eq!(CacheConfig::l2_bank_baseline().sets(), 1024);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = tiny();
        c.block_bytes = 48;
        assert!(c.validate().is_err());
        c = tiny();
        c.size_bytes = 0;
        assert!(c.validate().is_err());
        c = tiny();
        c.size_bytes = 576; // 4.5 sets
        assert!(c.validate().is_err());
    }

    #[test]
    fn hit_after_miss() {
        let mut c = Cache::new(tiny());
        assert!(!c.access(0x40, false).hit);
        assert!(c.access(0x40, false).hit);
        assert!(c.access(0x7f, false).hit, "same block, different offset");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = Cache::new(tiny());
        // Three blocks mapping to the same set (set stride = 4 blocks = 256B).
        let a = 0x000;
        let b = 0x100;
        let d = 0x200;
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a is now MRU
        c.access(d, false); // evicts b
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = Cache::new(tiny());
        let a = 0x000;
        let b = 0x100;
        let d = 0x200;
        c.access(a, true); // dirty
        c.access(b, false);
        let evict = c.access(d, false); // evicts a (LRU), which is dirty
        assert_eq!(evict.writeback, Some(a));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = Cache::new(tiny());
        c.access(0x000, false);
        c.access(0x100, false);
        let evict = c.access(0x200, false);
        assert_eq!(evict.writeback, None);
    }

    #[test]
    fn store_hit_marks_block_dirty() {
        let mut c = Cache::new(tiny());
        c.access(0x000, false);
        c.access(0x000, true); // store hit dirties the block
        c.access(0x100, false);
        let evict = c.access(0x200, false);
        assert_eq!(evict.writeback, Some(0x000));
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = Cache::new(tiny());
        c.access(0x040, true);
        assert!(c.invalidate(0x040));
        assert!(!c.contains(0x040));
        assert!(!c.invalidate(0x040));
        c.access(0x080, false);
        assert!(!c.invalidate(0x080));
    }

    #[test]
    fn miss_ratio_reflects_stream() {
        let mut c = Cache::new(tiny());
        for i in 0..8u64 {
            c.access(i * 64, false);
        }
        for i in 0..8u64 {
            c.access(i * 64, false);
        }
        assert_eq!(c.stats().misses, 8);
        assert_eq!(c.stats().accesses(), 16);
    }

    /// What a fixed pseudo-random access stream does to a cache: the
    /// counters, a running hash over every access's (hit, write-back
    /// address) outcome, the first victim write-backs as (access index,
    /// address), and — read off afterwards by pushing fresh blocks through
    /// set 0 — the order in which that set's residents fall out of LRU.
    #[derive(Debug, PartialEq, Eq)]
    struct Recording {
        stats: (u64, u64, u64),
        outcome_hash: u64,
        first_writebacks: Vec<(usize, u64)>,
        set0_eviction_order: Vec<u64>,
    }

    /// Drives the fixed pseudo-random access stream through `cache`,
    /// returning the outcome hash and the first victim write-backs.
    fn stream(cache: &mut Cache, accesses: usize, span_blocks: u64) -> (u64, Vec<(usize, u64)>) {
        let block_bytes = cache.config().block_bytes;
        let mut lcg = 0x9E37_79B9_7F4A_7C15u64;
        let mut outcome_hash = 0xcbf2_9ce4_8422_2325u64;
        let mut first_writebacks = Vec::new();
        for i in 0..accesses {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let addr = ((lcg >> 33) % span_blocks) * block_bytes + (lcg >> 20) % 64;
            let outcome = cache.access(addr, (lcg >> 12) % 10 < 4);
            for word in [
                u64::from(outcome.hit),
                outcome.writeback.unwrap_or(u64::MAX),
            ] {
                outcome_hash = (outcome_hash ^ word).wrapping_mul(0x0100_0000_01b3);
            }
            if let Some(victim) = outcome.writeback {
                if first_writebacks.len() < 6 {
                    first_writebacks.push((i, victim));
                }
            }
        }
        (outcome_hash, first_writebacks)
    }

    fn record(config: CacheConfig, accesses: usize, span_blocks: u64) -> Recording {
        let mut cache = Cache::new(config);
        let (outcome_hash, first_writebacks) = stream(&mut cache, accesses, span_blocks);
        let stats = *cache.stats();
        // Blocks `k * sets` all map to set 0; the stream touched those below
        // `span_blocks`, the fresh ones start above it.
        let set_stride = config.sets() * config.block_bytes;
        let mut residents: Vec<u64> = (0..span_blocks * config.block_bytes / set_stride)
            .map(|k| k * set_stride)
            .filter(|&a| cache.contains(a))
            .collect();
        let mut set0_eviction_order = Vec::new();
        let mut fresh = span_blocks * config.block_bytes;
        while !residents.is_empty() {
            cache.access(fresh, false);
            fresh += set_stride;
            residents.retain(|&a| {
                let still = cache.contains(a);
                if !still {
                    set0_eviction_order.push(a);
                }
                still
            });
        }
        Recording {
            stats: (stats.hits, stats.misses, stats.writebacks),
            outcome_hash,
            first_writebacks,
            set0_eviction_order,
        }
    }

    /// The flat line array must replace victims, order LRU and rebuild
    /// write-back addresses exactly as the nested `Vec<Vec<Line>>` layout
    /// did: both recordings below were taken from that layout.
    #[test]
    fn flat_layout_matches_recorded_nested_layout_sequence() {
        assert_eq!(
            record(CacheConfig::l1_baseline(), 6_000, 2_048),
            Recording {
                stats: (0x54d, 0x1223, 0x775),
                outcome_hash: 0x1446_d217_c4b8_e751,
                first_writebacks: vec![
                    (0x41, 0x1c7c0),
                    (0x68, 0x1c400),
                    (0x86, 0xc7c0),
                    (0x8b, 0x87c0),
                    (0xaa, 0x7b00),
                    (0xba, 0xeb40),
                ],
                set0_eviction_order: vec![0x18000, 0x10000],
            },
            "2-way L1 geometry"
        );
        assert_eq!(
            record(CacheConfig::l2_bank_baseline(), 60_000, 40_960),
            Recording {
                stats: (0x4e60, 0x9c00, 0x2ca8),
                outcome_hash: 0x078e_6ad0_b7be_c355,
                first_writebacks: vec![
                    (0x24bf, 0x12ed00),
                    (0x274a, 0x1014c0),
                    (0x2804, 0xf0480),
                    (0x2c53, 0xa2400),
                    (0x2c68, 0x9ed00),
                    (0x2dcb, 0x193f40),
                ],
                set0_eviction_order: vec![
                    0x1f0000, 0x160000, 0xf0000, 0x1d0000, 0x190000, 0x50000, 0x150000, 0x120000,
                    0x70000, 0x40000, 0x180000, 0x30000, 0x1c0000, 0x230000, 0x140000, 0x260000,
                ],
            },
            "16-way L2 bank geometry"
        );
    }

    /// Both geometries after the recorded stream: an L1 with every line
    /// touched and an L2 bank with a mix of clean, dirty and empty lines.
    fn streamed_caches() -> [Cache; 2] {
        [
            (CacheConfig::l1_baseline(), 6_000, 2_048),
            (CacheConfig::l2_bank_baseline(), 60_000, 40_960),
        ]
        .map(|(config, accesses, span_blocks)| {
            let mut cache = Cache::new(config);
            stream(&mut cache, accesses, span_blocks);
            cache
        })
    }

    fn sealed(body: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
        let mut w = SnapWriter::new(0);
        body(&mut w);
        w.finish()
    }

    fn reseal(image: &mut [u8]) {
        let body_end = image.len() - 8;
        let sum = cloudmc_snap::checksum(&image[..body_end]);
        image[body_end..].copy_from_slice(&sum.to_le_bytes());
    }

    fn load_into(config: CacheConfig, image: &[u8]) -> Result<Cache, SnapError> {
        let mut cache = Cache::new(config);
        let mut r = SnapReader::new(image, 0)?;
        cache.load(&mut r)?;
        r.finish()?;
        Ok(cache)
    }

    /// Image offset of line `k`'s record: envelope, then the length prefix.
    fn record_at(k: usize) -> usize {
        20 + 8 + k * LINE_BYTES
    }

    /// The bulk run is byte for byte the field-by-field encoding, and it
    /// loads back into a cache that continues identically.
    #[test]
    fn bulk_lines_equal_the_field_by_field_encoding() {
        for cache in streamed_caches() {
            let fields = sealed(|w| {
                w.usize(cache.lines.len());
                for line in &cache.lines {
                    w.u64(line.tag);
                    w.bool(line.valid);
                    w.bool(line.dirty);
                    w.u64(line.last_use);
                }
                cache.stats.save(w);
                w.u64(cache.tick);
            });
            assert_eq!(sealed(|w| cache.save(w)), fields);
            let mut restored = load_into(cache.geometry.config, &fields).unwrap();
            assert_eq!(restored.lines, cache.lines);
            assert_eq!((restored.stats, restored.tick), (cache.stats, cache.tick));
            let mut original = cache;
            for addr in (0..4_096u64).map(|i| i * 4_160) {
                assert_eq!(
                    restored.access(addr, addr % 3 == 0),
                    original.access(addr, addr % 3 == 0)
                );
            }
        }
    }

    #[test]
    fn bulk_flag_byte_out_of_range_names_its_offset() {
        for cache in streamed_caches() {
            let config = cache.geometry.config;
            let image = sealed(|w| cache.save(w));
            let last = cache.lines.len() - 1;
            for k in [0, last / 2, last] {
                for (flag, name) in [(8, "valid"), (9, "dirty")] {
                    let offset = record_at(k) + flag;
                    let mut bad = image.clone();
                    bad[offset] = 2;
                    reseal(&mut bad);
                    match load_into(config, &bad) {
                        Err(SnapError::BadValue { offset: at, .. }) => {
                            assert_eq!(at, offset, "{name} of line {k}");
                        }
                        other => panic!("{name} of line {k}: expected BadValue, got {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn bulk_line_count_must_equal_the_receivers() {
        for cache in streamed_caches() {
            let config = cache.geometry.config;
            let image = sealed(|w| cache.save(w));
            let lines = cache.lines.len() as u64;
            for stored in [0, lines - 1, lines + 1, u64::MAX] {
                let mut bad = image.clone();
                bad[20..28].copy_from_slice(&stored.to_le_bytes());
                reseal(&mut bad);
                assert!(
                    matches!(
                        load_into(config, &bad),
                        Err(SnapError::BadValue { offset: 28, .. })
                    ),
                    "{stored} lines stored"
                );
            }
        }
    }

    #[test]
    fn bulk_lines_cut_mid_run_are_truncated() {
        for cache in streamed_caches() {
            let config = cache.geometry.config;
            let run: Vec<u8> = cache.lines.iter().flat_map(encode_line).collect();
            for cut in [run.len() / 2, run.len() / 2 + 9, run.len() - 1] {
                let image = sealed(|w| {
                    w.usize(cache.lines.len());
                    w.bytes(cut).copy_from_slice(&run[..cut]);
                });
                assert!(
                    matches!(
                        load_into(config, &image),
                        Err(SnapError::Truncated { offset: 28, .. })
                    ),
                    "run cut to {cut} bytes"
                );
            }
        }
    }
}
