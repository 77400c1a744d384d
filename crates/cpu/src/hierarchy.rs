//! Shared last-level cache and interconnect model.
//!
//! The paper's baseline chip has a modestly sized 4 MB, 16-way, 4-bank shared
//! L2 connected to the 16 cores by a 16x4 crossbar. The model here provides
//! the banked cache plus fixed crossbar/bank latencies; the full-system
//! simulator routes L2 misses and dirty evictions to the memory controller.

use crate::cache::{Cache, CacheConfig, CacheStats};

/// Configuration of the shared L2 and the crossbar reaching it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Config {
    /// Geometry of one bank.
    pub bank: CacheConfig,
    /// Number of independently addressed banks.
    pub banks: usize,
    /// Access latency of a bank in CPU cycles.
    pub bank_latency: u64,
    /// One-way crossbar traversal latency in CPU cycles.
    pub crossbar_latency: u64,
}

impl L2Config {
    /// Largest bank count that validates: one [`Cache`] per bank is built at
    /// construction, so the count is bounded before anything is sized.
    pub const MAX_BANKS: usize = 64;

    /// The paper's 4 MB, 16-way, 4-bank shared L2 behind a 16x4 crossbar.
    #[must_use]
    pub fn baseline() -> Self {
        Self {
            bank: CacheConfig::l2_bank_baseline(),
            banks: 4,
            bank_latency: 8,
            crossbar_latency: 4,
        }
    }

    /// Total capacity across banks in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.bank.size_bytes * self.banks as u64
    }

    /// Round-trip latency of an L2 hit in CPU cycles.
    #[must_use]
    pub fn hit_latency(&self) -> u64 {
        2 * self.crossbar_latency + self.bank_latency
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem for a zero crossbar latency, a
    /// bank count that is not a power of two in `1..=MAX_BANKS`, or an
    /// invalid bank geometry.
    pub fn validate(&self) -> Result<(), String> {
        // The kernel delivers a cycle's fills before the phase that posts
        // them, so a fill must be posted at least one cycle ahead.
        if self.crossbar_latency == 0 {
            return Err("crossbar_latency (0) must be at least 1".to_owned());
        }
        if !self.banks.is_power_of_two() || self.banks > Self::MAX_BANKS {
            return Err(format!(
                "banks ({}) must be a power of two in 1..={}",
                self.banks,
                Self::MAX_BANKS
            ));
        }
        self.bank.validate().map_err(|e| format!("bank: {e}"))
    }
}

impl Default for L2Config {
    fn default() -> Self {
        Self::baseline()
    }
}

/// Outcome of an L2 access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Outcome {
    /// Whether the block was present.
    pub hit: bool,
    /// Dirty block evicted by the allocation, to be written back to memory.
    pub writeback: Option<u64>,
    /// Latency in CPU cycles charged to this access (crossbar + bank).
    pub latency: u64,
}

/// The shared, banked last-level cache.
///
/// # Examples
///
/// ```
/// use cloudmc_cpu::{L2Config, SharedL2};
///
/// let mut l2 = SharedL2::new(L2Config::baseline());
/// let first = l2.access(0xdead_c0, false);
/// assert!(!first.hit);
/// assert!(l2.access(0xdead_c0, false).hit);
/// ```
#[derive(Debug, Clone)]
pub struct SharedL2 {
    config: L2Config,
    banks: Vec<Cache>,
    /// log2 of the block size: validation makes it a power of two.
    block_shift: u32,
    /// log2 of the bank count: validation makes it a power of two.
    bank_shift: u32,
}

impl SharedL2 {
    /// Creates an empty shared L2.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not validate.
    #[must_use]
    pub fn new(config: L2Config) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "documented constructor contract: config must validate"
        )]
        config.validate().expect("invalid L2 configuration");
        Self {
            config,
            banks: (0..config.banks).map(|_| Cache::new(config.bank)).collect(),
            block_shift: config.bank.block_bytes.trailing_zeros(),
            bank_shift: config.banks.trailing_zeros(),
        }
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &L2Config {
        &self.config
    }

    /// Which bank serves `addr` (block-address interleaving).
    #[must_use]
    pub fn bank_for(&self, addr: u64) -> usize {
        ((addr >> self.block_shift) & (self.config.banks as u64 - 1)) as usize
    }

    /// Address as seen inside one bank: the bank-selection bits are removed so
    /// that every set of the bank is usable regardless of the interleaving.
    fn bank_local_addr(&self, addr: u64) -> u64 {
        let offset = addr & (self.config.bank.block_bytes - 1);
        (addr >> (self.block_shift + self.bank_shift) << self.block_shift) | offset
    }

    /// Converts a bank-local block address back to the global address space.
    fn global_addr(&self, bank: usize, local_addr: u64) -> u64 {
        let local_block = local_addr >> self.block_shift;
        ((local_block << self.bank_shift) | bank as u64) << self.block_shift
    }

    /// Performs an access on behalf of a core refill (`is_write == false`) or
    /// an L1 write-back (`is_write == true`).
    pub fn access(&mut self, addr: u64, is_write: bool) -> L2Outcome {
        let bank = self.bank_for(addr);
        let local = self.bank_local_addr(addr);
        let result = self.banks[bank].access(local, is_write);
        L2Outcome {
            hit: result.hit,
            writeback: result.writeback.map(|w| self.global_addr(bank, w)),
            latency: self.config.hit_latency(),
        }
    }

    /// Whether the block containing `addr` is resident.
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        let local = self.bank_local_addr(addr);
        self.banks[self.bank_for(addr)].contains(local)
    }

    /// Aggregated counters across banks.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for bank in &self.banks {
            total.hits += bank.stats().hits;
            total.misses += bank.stats().misses;
            total.writebacks += bank.stats().writebacks;
        }
        total
    }

    /// Counters of one bank.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[must_use]
    pub fn bank_stats(&self, bank: usize) -> &CacheStats {
        self.banks[bank].stats()
    }
}

cloudmc_snap::snap_fields! {
    SharedL2 {
        section: "shared-l2",
        saved: { banks: fixed },
        skipped: {
            config: "config-derived",
            block_shift: "config-derived",
            bank_shift: "config-derived",
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_l2() -> SharedL2 {
        SharedL2::new(L2Config {
            bank: CacheConfig {
                size_bytes: 4096,
                associativity: 4,
                block_bytes: 64,
            },
            banks: 2,
            bank_latency: 8,
            crossbar_latency: 4,
        })
    }

    #[test]
    fn baseline_is_4mb_16way_4banks() {
        let cfg = L2Config::baseline();
        cfg.validate().unwrap();
        assert_eq!(cfg.capacity_bytes(), 4 * 1024 * 1024);
        assert_eq!(cfg.banks, 4);
        assert_eq!(cfg.bank.associativity, 16);
        assert_eq!(cfg.hit_latency(), 16);
    }

    #[test]
    fn shift_mask_addressing_matches_division() {
        for (banks, block_bytes) in [(1usize, 64u64), (2, 64), (4, 64), (8, 128), (16, 32)] {
            let l2 = SharedL2::new(L2Config {
                bank: CacheConfig {
                    size_bytes: 8192,
                    associativity: 4,
                    block_bytes,
                },
                banks,
                bank_latency: 8,
                crossbar_latency: 4,
            });
            let n = banks as u64;
            for addr in (0..1u64 << 16)
                .step_by(7)
                .chain([u64::MAX / 4, 0x00de_adbe_efc0])
            {
                let block = addr / block_bytes;
                let bank = (block % n) as usize;
                let local = (block / n) * block_bytes + addr % block_bytes;
                assert_eq!(l2.bank_for(addr), bank, "{banks}x{block_bytes} {addr:#x}");
                assert_eq!(
                    l2.bank_local_addr(addr),
                    local,
                    "{banks}x{block_bytes} {addr:#x}"
                );
                assert_eq!(l2.global_addr(bank, local), addr - addr % block_bytes);
            }
        }
    }

    #[test]
    fn blocks_interleave_across_banks() {
        let l2 = small_l2();
        assert_eq!(l2.bank_for(0x000), 0);
        assert_eq!(l2.bank_for(0x040), 1);
        assert_eq!(l2.bank_for(0x080), 0);
    }

    #[test]
    fn miss_then_hit_and_stats_aggregate() {
        let mut l2 = small_l2();
        assert!(!l2.access(0x000, false).hit);
        assert!(!l2.access(0x040, false).hit);
        assert!(l2.access(0x000, false).hit);
        assert!(l2.contains(0x040));
        let s = l2.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(l2.bank_stats(0).misses, 1);
        assert_eq!(l2.bank_stats(1).misses, 1);
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut l2 = small_l2();
        // Bank 0, one set has 4 ways; 4096/64/4 = 16 sets per bank.
        // Blocks in bank 0 mapping to set 0: block index multiples of 32.
        let addrs: Vec<u64> = (0..5).map(|i| i * 32 * 64).collect();
        l2.access(addrs[0], true); // dirty
        for &a in &addrs[1..4] {
            l2.access(a, false);
        }
        let out = l2.access(addrs[4], false); // evicts addrs[0]
        assert_eq!(out.writeback, Some(addrs[0]));
    }

    #[test]
    fn invalid_bank_count_rejected() {
        let mut cfg = L2Config::baseline();
        cfg.banks = 3;
        assert!(cfg.validate().is_err());
    }
}
