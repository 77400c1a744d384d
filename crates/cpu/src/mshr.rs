//! Miss Status Holding Registers: track outstanding cache misses and merge
//! secondary misses to the same block.

use cloudmc_snap::{snap_fields, SnapError, SnapReader};

/// Result of registering a miss with the MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated: the miss must be sent down the hierarchy.
    Allocated,
    /// An entry for the same block already exists: the miss is merged and no
    /// new downstream request is needed.
    Merged,
    /// The MSHR file is full: the requester must stall and retry.
    Full,
}

/// A fixed-capacity MSHR file keyed by block address.
///
/// # Examples
///
/// ```
/// use cloudmc_cpu::{Mshr, MshrOutcome};
///
/// let mut mshr = Mshr::new(2, 64);
/// assert_eq!(mshr.allocate(0x1000), MshrOutcome::Allocated);
/// assert_eq!(mshr.allocate(0x1010), MshrOutcome::Merged); // same block
/// assert_eq!(mshr.allocate(0x2000), MshrOutcome::Allocated);
/// assert_eq!(mshr.allocate(0x3000), MshrOutcome::Full);
/// assert_eq!(mshr.complete(0x1000), 2); // two merged requesters woken
/// ```
#[derive(Debug, Clone)]
pub struct Mshr {
    capacity: usize,
    block_bytes: u64,
    /// (block address, merged requester count)
    entries: Vec<(u64, u32)>,
}

impl Mshr {
    /// Creates an MSHR file with `capacity` entries tracking blocks of
    /// `block_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `block_bytes` is not a power of two.
    #[must_use]
    pub fn new(capacity: usize, block_bytes: u64) -> Self {
        assert!(capacity > 0, "MSHR capacity must be non-zero");
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        Self {
            capacity,
            block_bytes,
            entries: Vec::with_capacity(capacity),
        }
    }

    fn block(&self, addr: u64) -> u64 {
        addr & !(self.block_bytes - 1)
    }

    /// Whether no misses are outstanding.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the file has no free entry.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Whether a miss for the block containing `addr` is outstanding.
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        let block = self.block(addr);
        self.entries.iter().any(|&(b, _)| b == block)
    }

    /// Registers a miss for `addr`.
    pub fn allocate(&mut self, addr: u64) -> MshrOutcome {
        let block = self.block(addr);
        if let Some(entry) = self.entries.iter_mut().find(|(b, _)| *b == block) {
            entry.1 += 1;
            return MshrOutcome::Merged;
        }
        if self.is_full() {
            return MshrOutcome::Full;
        }
        self.entries.push((block, 1));
        MshrOutcome::Allocated
    }

    /// Restored entries must fit the configured capacity.
    fn check_restored(&mut self, r: &SnapReader<'_>) -> Result<(), SnapError> {
        if self.entries.len() > self.capacity {
            return Err(r.bad_value(format!(
                "{} MSHR entries exceed capacity {}",
                self.entries.len(),
                self.capacity
            )));
        }
        Ok(())
    }

    /// Completes the outstanding miss for the block containing `addr`,
    /// returning how many merged requesters were waiting on it (0 if the
    /// block was not outstanding). The remaining entries keep their
    /// allocation order, so the file's state (and its image) does not
    /// depend on the order in which misses complete.
    pub fn complete(&mut self, addr: u64) -> u32 {
        let block = self.block(addr);
        if let Some(pos) = self.entries.iter().position(|&(b, _)| b == block) {
            self.entries.remove(pos).1
        } else {
            0
        }
    }
}

snap_fields! {
    Mshr {
        saved: { entries },
        skipped: {
            capacity: "config-derived",
            block_bytes: "config-derived",
        },
        after_load: Self::check_restored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_merge_and_complete() {
        let mut m = Mshr::new(2, 64);
        assert!(m.is_empty());
        assert_eq!(m.allocate(0x100), MshrOutcome::Allocated);
        assert_eq!(m.allocate(0x120), MshrOutcome::Merged);
        assert!(!m.is_full(), "a merged miss takes no second entry");
        assert_eq!(m.allocate(0x140), MshrOutcome::Allocated);
        assert!(m.is_full());
        assert!(m.contains(0x13f) && m.contains(0x140));
        assert_eq!(m.complete(0x100), 2);
        assert!(!m.contains(0x100) && m.contains(0x140));
        assert!(!m.is_full() && !m.is_empty());
        assert_eq!(m.complete(0x100), 0, "already completed");
        assert_eq!(m.complete(0x140), 1);
        assert!(m.is_empty());
    }

    #[test]
    fn full_file_rejects_new_blocks_but_merges_existing() {
        let mut m = Mshr::new(2, 64);
        m.allocate(0x000);
        m.allocate(0x040);
        assert!(m.is_full());
        assert_eq!(m.allocate(0x080), MshrOutcome::Full);
        assert_eq!(m.allocate(0x000), MshrOutcome::Merged);
    }

    fn image(mshr: &Mshr) -> Vec<u8> {
        let mut w = cloudmc_snap::SnapWriter::new(0);
        cloudmc_snap::Snap::save(mshr, &mut w);
        w.finish()
    }

    /// Completing the same set of blocks in any order leaves the same
    /// entries, in allocation order, with the same image bytes.
    #[test]
    fn completion_order_does_not_change_the_entries() {
        let blocks = [0x000u64, 0x040, 0x080, 0x0c0, 0x100];
        let done = [0x040u64, 0x0c0, 0x000];
        let mut images = Vec::new();
        for order in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let mut m = Mshr::new(8, 64);
            for &b in &blocks {
                m.allocate(b);
            }
            for i in order {
                assert_eq!(m.complete(done[i]), 1);
            }
            assert_eq!(m.entries, [(0x080, 1), (0x100, 1)], "order {order:?}");
            images.push(image(&m));
        }
        assert!(images.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_panics() {
        let _ = Mshr::new(0, 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_block_panics() {
        let _ = Mshr::new(4, 48);
    }
}
