//! DRAM organization (geometry) configuration.

use crate::timing::TimingParams;

/// Physical organization of the off-chip DRAM attached to one controller.
///
/// The paper's baseline (Table 2) uses one channel with 2 ranks of 8 banks
/// each, an 8 KB row buffer and 64 B cache blocks, DDR3-1600 timings.
///
/// # Examples
///
/// ```
/// use cloudmc_dram::DramConfig;
///
/// let cfg = DramConfig::baseline();
/// assert_eq!(cfg.channels, 1);
/// assert_eq!(cfg.banks_per_rank, 8);
/// assert_eq!(cfg.row_bytes, 8 * 1024);
/// assert!(cfg.capacity_bytes() >= 32 * (1u64 << 30));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramConfig {
    /// Number of independent memory channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks_per_channel: usize,
    /// Banks per rank.
    pub banks_per_rank: usize,
    /// Rows per bank.
    pub rows_per_bank: u64,
    /// Row-buffer (page) size in bytes.
    pub row_bytes: u64,
    /// Size of one column access in bytes (one cache block transferred per
    /// READ/WRITE burst).
    pub column_bytes: u64,
    /// Timing parameters of the devices.
    pub timing: TimingParams,
    /// Whether periodic refresh is modeled.
    pub refresh_enabled: bool,
}

impl DramConfig {
    /// Largest channel count that validates. One controller state is built
    /// per channel, so the count must be bounded before anything is sized
    /// from it.
    pub const MAX_CHANNELS: usize = 64;

    /// Largest `ranks_per_channel × banks_per_rank` that validates: the
    /// width of the controller's per-bank demand bitmasks, which also keeps
    /// every rank and bank index inside its 8-bit field of a queue key.
    pub const MAX_BANKS_PER_CHANNEL: usize = 64;

    /// The paper's baseline single-channel configuration (Table 2).
    #[must_use]
    pub fn baseline() -> Self {
        Self {
            channels: 1,
            ranks_per_channel: 2,
            banks_per_rank: 8,
            // 2 ranks x 8 banks x 262144 rows x 8KB row = 32 GiB per channel.
            rows_per_bank: 256 * 1024,
            row_bytes: 8 * 1024,
            column_bytes: 64,
            timing: TimingParams::ddr3_1600(),
            refresh_enabled: true,
        }
    }

    /// Baseline organization with a different number of channels
    /// (the multi-channel study of Section 4.3).
    #[must_use]
    pub fn with_channels(channels: usize) -> Self {
        Self {
            channels,
            ..Self::baseline()
        }
    }

    /// Number of column (cache-block) slots per row buffer.
    #[must_use]
    pub fn columns_per_row(&self) -> u64 {
        self.row_bytes / self.column_bytes
    }

    /// Total banks per channel.
    #[must_use]
    pub fn banks_per_channel(&self) -> usize {
        self.ranks_per_channel * self.banks_per_rank
    }

    /// Total addressable capacity across all channels in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.channels as u64
            * self.ranks_per_channel as u64
            * self.banks_per_rank as u64
            * self.rows_per_bank
            * self.row_bytes
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem if any dimension is zero, any
    /// dimension is not a power of two (required by the bit-sliced address
    /// mapping), there are more than [`DramConfig::MAX_CHANNELS`] channels or
    /// [`DramConfig::MAX_BANKS_PER_CHANNEL`] banks per channel, refresh is
    /// enabled with a zero `t_refi`, or the timing parameters are
    /// inconsistent.
    pub fn validate(&self) -> Result<(), String> {
        fn pow2(name: &str, v: u64) -> Result<(), String> {
            if v == 0 {
                return Err(format!("{name} must be non-zero"));
            }
            if !v.is_power_of_two() {
                return Err(format!("{name} ({v}) must be a power of two"));
            }
            Ok(())
        }
        pow2("channels", self.channels as u64)?;
        if self.channels > Self::MAX_CHANNELS {
            return Err(format!(
                "channels ({}) is unreasonably large (max {})",
                self.channels,
                Self::MAX_CHANNELS
            ));
        }
        pow2("ranks_per_channel", self.ranks_per_channel as u64)?;
        pow2("banks_per_rank", self.banks_per_rank as u64)?;
        if self
            .ranks_per_channel
            .checked_mul(self.banks_per_rank)
            .is_none_or(|banks| banks > Self::MAX_BANKS_PER_CHANNEL)
        {
            return Err(format!(
                "ranks_per_channel ({}) x banks_per_rank ({}) exceeds {} banks per channel",
                self.ranks_per_channel,
                self.banks_per_rank,
                Self::MAX_BANKS_PER_CHANNEL
            ));
        }
        pow2("rows_per_bank", self.rows_per_bank)?;
        pow2("row_bytes", self.row_bytes)?;
        pow2("column_bytes", self.column_bytes)?;
        if self.column_bytes > self.row_bytes {
            return Err(format!(
                "column_bytes ({}) must not exceed row_bytes ({})",
                self.column_bytes, self.row_bytes
            ));
        }
        if self.refresh_enabled && self.timing.t_refi == 0 {
            return Err("t_refi must be non-zero while refresh_enabled is set".to_owned());
        }
        self.timing.validate()
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

/// Physical location of a column access within one channel.
///
/// The channel index itself is resolved by the memory controller's address
/// mapping before the request reaches the device model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Location {
    /// Rank index within the channel.
    pub rank: usize,
    /// Bank index within the rank.
    pub bank: usize,
    /// Row index within the bank.
    pub row: u64,
    /// Column (cache-block) index within the row.
    pub column: u64,
}

impl Location {
    /// Creates a new location.
    #[must_use]
    pub fn new(rank: usize, bank: usize, row: u64, column: u64) -> Self {
        Self {
            rank,
            bank,
            row,
            column,
        }
    }

    /// Flat bank index within the channel (`rank * banks_per_rank + bank`).
    #[must_use]
    pub fn flat_bank(&self, banks_per_rank: usize) -> usize {
        self.rank * banks_per_rank + self.bank
    }
}

// A bare location does not know the channel geometry: whoever owns a restored
// one bounds it with `DramChannel::contains`.
cloudmc_snap::snap_fields! {
    Location {
        saved: { rank, bank, row, column },
        skipped: {},
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table2() {
        let cfg = DramConfig::baseline();
        assert_eq!(cfg.channels, 1);
        assert_eq!(cfg.ranks_per_channel, 2);
        assert_eq!(cfg.banks_per_rank, 8);
        assert_eq!(cfg.row_bytes, 8192);
        // 32-64 GB range from Table 2.
        let gib = cfg.capacity_bytes() / (1 << 30);
        assert!((32..=64).contains(&gib), "capacity {gib} GiB");
        cfg.validate().unwrap();
    }

    #[test]
    fn with_channels_scales_capacity() {
        let one = DramConfig::with_channels(1);
        let four = DramConfig::with_channels(4);
        assert_eq!(four.capacity_bytes(), 4 * one.capacity_bytes());
        four.validate().unwrap();
    }

    #[test]
    fn columns_per_row_is_128_for_baseline() {
        assert_eq!(DramConfig::baseline().columns_per_row(), 128);
    }

    #[test]
    fn validate_rejects_non_power_of_two() {
        let mut cfg = DramConfig::baseline();
        cfg.banks_per_rank = 6;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_bounds_the_channel_count() {
        for channels in [0usize, 3, 65, 128, 1 << 40] {
            let err = DramConfig::with_channels(channels).validate().unwrap_err();
            assert!(err.contains("channels"), "{channels}: {err}");
        }
        DramConfig::with_channels(DramConfig::MAX_CHANNELS)
            .validate()
            .unwrap();
    }

    #[test]
    fn validate_rejects_column_larger_than_row() {
        let mut cfg = DramConfig::baseline();
        cfg.column_bytes = cfg.row_bytes * 2;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn flat_bank_combines_rank_and_bank() {
        let loc = Location::new(1, 3, 7, 9);
        assert_eq!(loc.flat_bank(8), 11);
    }
}
