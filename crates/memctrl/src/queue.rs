//! Pending-request queues of the memory controller.

use cloudmc_dram::{DramCycles, Location};
use cloudmc_snap::{snap_fields, SnapError, SnapReader};

use crate::request::{MemoryRequest, RequestId, TenantId, MAX_TENANTS};

/// A request waiting in the controller together with its decoded coordinates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueEntry {
    /// The pending request.
    pub request: MemoryRequest,
    /// Decoded DRAM coordinates within the owning channel.
    pub location: Location,
    /// Cycle at which the request entered this queue.
    pub enqueued_at: DramCycles,
}

impl QueueEntry {
    /// Age of the entry at `now` in DRAM cycles.
    #[must_use]
    pub fn age(&self, now: DramCycles) -> DramCycles {
        now.saturating_sub(self.enqueued_at)
    }
}

/// Bit position of the bank field in a packed [`bank_row_key`].
const KEY_BANK_SHIFT: u32 = 48;
/// Bit position of the rank field in a packed [`bank_row_key`].
const KEY_RANK_SHIFT: u32 = 56;
/// Row bits of a packed key.
const KEY_ROW_MASK: u64 = (1 << KEY_BANK_SHIFT) - 1;

/// Packs DRAM coordinates into one word: `rank` in the top byte, `bank`
/// below it, `row` in the low 48 bits. Row-hit and row-conflict tests over a
/// whole queue become single-word compares against a flat `u64` column (see
/// [`RequestQueue::keys`]), instead of three field compares per pointer-wide
/// `QueueEntry`.
#[must_use]
#[inline]
pub fn bank_row_key(rank: usize, bank: usize, row: u64) -> u64 {
    debug_assert!(rank < (1 << 8) && bank < (1 << 8) && row <= KEY_ROW_MASK);
    ((rank as u64) << KEY_RANK_SHIFT) | ((bank as u64) << KEY_BANK_SHIFT) | row
}

/// The rank field of a packed [`bank_row_key`].
#[must_use]
#[inline]
pub fn key_rank(key: u64) -> usize {
    (key >> KEY_RANK_SHIFT) as usize
}

/// The bank field of a packed [`bank_row_key`].
#[must_use]
#[inline]
pub fn key_bank(key: u64) -> usize {
    ((key >> KEY_BANK_SHIFT) & 0xFF) as usize
}

/// The row field of a packed [`bank_row_key`].
#[must_use]
#[inline]
pub fn key_row(key: u64) -> u64 {
    key & KEY_ROW_MASK
}

/// A bounded FIFO-ordered pool of pending requests.
///
/// Entries preserve arrival order (index 0 is the oldest), which the
/// first-come-first-served family of schedulers relies on; other schedulers
/// are free to pick any entry.
///
/// Storage is struct-of-arrays for the hot fields: alongside the full
/// [`QueueEntry`] records lives a parallel column of packed
/// [`bank_row_key`] words, kept index-aligned on every push and remove, so
/// the scans that remain on hot paths (the FR-FCFS winner search, the bank
/// table's recount on an activate) touch a dense `u64` slice instead of
/// striding over 64-byte entries.
#[derive(Debug, Clone)]
pub struct RequestQueue {
    entries: Vec<QueueEntry>,
    /// Packed (rank, bank, row) of each entry; `keys[i]` describes
    /// `entries[i]`.
    keys: Vec<u64>,
    capacity: usize,
    /// Pending entries per tenant, maintained incrementally so per-tenant
    /// occupancy sampling is O(tenants), not O(queue).
    tenant_len: [usize; MAX_TENANTS],
}

impl RequestQueue {
    /// Creates a queue holding at most `capacity` requests.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be non-zero");
        Self {
            entries: Vec::with_capacity(capacity),
            keys: Vec::with_capacity(capacity),
            capacity,
            tenant_len: [0; MAX_TENANTS],
        }
    }

    /// Maximum number of simultaneously pending requests.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of pending requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue holds no requests.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the queue cannot accept another request.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Appends a request.
    ///
    /// # Errors
    ///
    /// Returns the request back if the queue is full.
    pub fn push(
        &mut self,
        request: MemoryRequest,
        location: Location,
        now: DramCycles,
    ) -> Result<(), MemoryRequest> {
        if self.is_full() {
            return Err(request);
        }
        // Out-of-range ids land in the last slot, matching the clamp every
        // other per-tenant counter applies.
        self.tenant_len[request.tenant.min(MAX_TENANTS - 1)] += 1;
        self.keys
            .push(bank_row_key(location.rank, location.bank, location.row));
        self.entries.push(QueueEntry {
            request,
            location,
            enqueued_at: now,
        });
        Ok(())
    }

    /// Rebuilds the packed key column and the per-tenant occupancy counters
    /// from restored entries, rejecting more entries than the configured
    /// capacity and coordinates the key packing cannot hold.
    fn reindex(&mut self, r: &SnapReader<'_>) -> Result<(), SnapError> {
        if self.entries.len() > self.capacity {
            return Err(r.bad_value(format!(
                "{} queued entries exceed capacity {}",
                self.entries.len(),
                self.capacity
            )));
        }
        self.keys.clear();
        self.tenant_len = [0; MAX_TENANTS];
        for entry in &self.entries {
            let loc = entry.location;
            if loc.rank >= 1 << 8 || loc.bank >= 1 << 8 || loc.row > KEY_ROW_MASK {
                return Err(r.bad_value(format!(
                    "request {} at {loc:?} does not fit a packed bank/row key",
                    entry.request.id
                )));
            }
            self.keys.push(bank_row_key(loc.rank, loc.bank, loc.row));
            self.tenant_len[entry.request.tenant.min(MAX_TENANTS - 1)] += 1;
        }
        Ok(())
    }

    /// Removes and returns the entry with id `id`, preserving order of the rest.
    pub fn remove(&mut self, id: RequestId) -> Option<QueueEntry> {
        let idx = self.entries.iter().position(|e| e.request.id == id)?;
        let entry = self.entries.remove(idx);
        self.keys.remove(idx);
        self.tenant_len[entry.request.tenant.min(MAX_TENANTS - 1)] -= 1;
        Some(entry)
    }

    /// The oldest entry, if any.
    #[must_use]
    pub fn oldest(&self) -> Option<&QueueEntry> {
        self.entries.first()
    }

    /// Iterates over entries in arrival order (oldest first).
    pub fn iter(&self) -> impl Iterator<Item = &QueueEntry> {
        self.entries.iter()
    }

    /// The packed [`bank_row_key`] column, index-aligned with the entries:
    /// the flat `u64` lane for single-pass demand scans.
    #[must_use]
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Whether any pending entry targets the given open row of (`rank`, `bank`).
    /// A scan of the keys: the test oracle of `BankTable`'s hit masks.
    #[cfg(test)]
    #[must_use]
    pub fn any_hit(&self, rank: usize, bank: usize, row: u64) -> bool {
        let key = bank_row_key(rank, bank, row);
        self.keys.contains(&key)
    }

    /// Whether any pending entry targets (`rank`, `bank`) but a different row.
    /// The test oracle of `BankTable`'s conflict masks.
    #[cfg(test)]
    #[must_use]
    pub fn any_other_row(&self, rank: usize, bank: usize, row: u64) -> bool {
        let key = bank_row_key(rank, bank, row);
        // Rank and bank bits: everything above the row.
        let bank_bits = key & !KEY_ROW_MASK;
        self.keys
            .iter()
            .any(|&k| (k & !KEY_ROW_MASK) == bank_bits && k != key)
    }

    /// Whether any pending entry targets rank `rank` (any bank or row). The
    /// test oracle of `BankTable`'s pending masks.
    #[cfg(test)]
    #[must_use]
    pub fn any_for_rank(&self, rank: usize) -> bool {
        let rank = rank as u64;
        self.keys.iter().any(|&k| (k >> KEY_RANK_SHIFT) == rank)
    }

    /// Number of pending entries attributed to `tenant` (O(1)).
    #[must_use]
    pub fn len_for_tenant(&self, tenant: TenantId) -> usize {
        self.tenant_len.get(tenant).copied().unwrap_or(0)
    }

    /// Pending entries per tenant (index = tenant id).
    #[must_use]
    pub fn tenant_lens(&self) -> [usize; MAX_TENANTS] {
        self.tenant_len
    }

    /// Iterates over the entries of one tenant in arrival order.
    pub fn iter_for_tenant(&self, tenant: TenantId) -> impl Iterator<Item = &QueueEntry> {
        self.entries
            .iter()
            .filter(move |e| e.request.tenant == tenant)
    }
}

impl<'a> IntoIterator for &'a RequestQueue {
    type Item = &'a QueueEntry;
    type IntoIter = std::slice::Iter<'a, QueueEntry>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

snap_fields! {
    QueueEntry {
        saved: { request, location, enqueued_at },
        skipped: {},
    }
}

snap_fields! {
    RequestQueue {
        saved: { entries },
        skipped: {
            keys: "derived from the entries; rebuilt by reindex",
            capacity: "config-derived",
            tenant_len: "derived from the entries; rebuilt by reindex",
        },
        after_load: Self::reindex,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::AccessKind;

    fn req(id: RequestId, core: usize) -> MemoryRequest {
        MemoryRequest::new(id, AccessKind::Read, id * 64, core, id)
    }

    fn loc(rank: usize, bank: usize, row: u64) -> Location {
        Location::new(rank, bank, row, 0)
    }

    #[test]
    fn push_and_remove_preserve_fifo_order() {
        let mut q = RequestQueue::new(4);
        for i in 0..3 {
            q.push(req(i, 0), loc(0, 0, i), i).unwrap();
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.oldest().unwrap().request.id, 0);
        let removed = q.remove(1).unwrap();
        assert_eq!(removed.request.id, 1);
        let ids: Vec<_> = q.iter().map(|e| e.request.id).collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn push_fails_when_full() {
        let mut q = RequestQueue::new(2);
        q.push(req(0, 0), loc(0, 0, 0), 0).unwrap();
        q.push(req(1, 0), loc(0, 0, 0), 0).unwrap();
        assert!(q.is_full());
        let rejected = q.push(req(2, 0), loc(0, 0, 0), 0).unwrap_err();
        assert_eq!(rejected.id, 2);
    }

    #[test]
    fn row_queries_distinguish_hit_and_conflict() {
        let mut q = RequestQueue::new(8);
        q.push(req(0, 0), loc(0, 3, 100), 0).unwrap();
        q.push(req(1, 1), loc(0, 3, 200), 0).unwrap();
        assert!(q.any_hit(0, 3, 100));
        assert!(q.any_hit(0, 3, 200));
        assert!(!q.any_hit(0, 3, 300));
        assert!(q.any_other_row(0, 3, 100));
        assert!(!q.any_other_row(0, 4, 100));
    }

    #[test]
    fn per_tenant_occupancy_tracks_push_and_remove() {
        let mut q = RequestQueue::new(8);
        q.push(req(0, 0).with_tenant(0), loc(0, 0, 1), 0).unwrap();
        q.push(req(1, 1).with_tenant(1), loc(0, 0, 2), 0).unwrap();
        q.push(req(2, 2).with_tenant(1), loc(0, 1, 3), 0).unwrap();
        assert_eq!(q.len_for_tenant(0), 1);
        assert_eq!(q.len_for_tenant(1), 2);
        assert_eq!(q.len_for_tenant(3), 0);
        assert_eq!(q.tenant_lens()[..2], [1, 2]);
        let ids: Vec<_> = q.iter_for_tenant(1).map(|e| e.request.id).collect();
        assert_eq!(ids, vec![1, 2]);
        q.remove(1).unwrap();
        assert_eq!(q.len_for_tenant(1), 1);
        // Out-of-range tenants are ignored rather than panicking.
        assert_eq!(q.len_for_tenant(99), 0);
    }

    #[test]
    fn age_uses_enqueue_cycle() {
        let mut q = RequestQueue::new(2);
        q.push(req(0, 0), loc(0, 0, 0), 10).unwrap();
        assert_eq!(q.oldest().unwrap().age(25), 15);
        assert_eq!(q.oldest().unwrap().age(5), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_panics() {
        let _ = RequestQueue::new(0);
    }
}
