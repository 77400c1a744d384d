//! Physical-address-to-DRAM-coordinate mapping schemes.
//!
//! The paper studies four bit-sliced interleaving schemes that differ in
//! which address bits select the channel: `RoRaBaCoCh` (baseline, channel in
//! the lowest bits above the block offset — consecutive cache blocks
//! alternate between channels), `RoRaBaChCo`, `RoRaChBaCo` and `RoChRaBaCo`
//! (channel in progressively higher bits, keeping more spatial locality
//! within one channel). Fields are listed most-significant first in the
//! scheme name: e.g. `RoRaBaCoCh` = Row | Rank | Bank | Column | Channel.

use cloudmc_dram::{DramConfig, Location};

/// A DRAM coordinate produced by decoding a physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecodedAddress {
    /// Memory channel index.
    pub channel: usize,
    /// Location within the channel.
    pub location: Location,
}

/// The individual fields of a mapping scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Field {
    Channel,
    Rank,
    Bank,
    Row,
    Column,
}

/// Address interleaving schemes studied in Section 4.3 of the paper.
///
/// # Examples
///
/// ```
/// use cloudmc_dram::DramConfig;
/// use cloudmc_memctrl::AddressMapping;
///
/// let cfg = DramConfig::with_channels(4);
/// let m = AddressMapping::RoRaBaCoCh;
/// // Consecutive cache blocks land on different channels under the baseline.
/// let a = m.decode(0x0000, &cfg);
/// let b = m.decode(0x0040, &cfg);
/// assert_ne!(a.channel, b.channel);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddressMapping {
    /// Row | Rank | Bank | Column | Channel — the paper's baseline. Channel
    /// bits are the lowest, so sequential blocks alternate channels.
    RoRaBaCoCh,
    /// Row | Rank | Bank | Channel | Column — a whole row's worth of
    /// consecutive blocks stays on one channel.
    RoRaBaChCo,
    /// Row | Rank | Channel | Bank | Column.
    RoRaChBaCo,
    /// Row | Channel | Rank | Bank | Column.
    RoChRaBaCo,
}

impl AddressMapping {
    /// All schemes studied in the paper, in presentation order.
    #[must_use]
    pub fn all() -> [Self; 4] {
        [
            Self::RoRaBaCoCh,
            Self::RoRaBaChCo,
            Self::RoRaChBaCo,
            Self::RoChRaBaCo,
        ]
    }

    /// Field order from most-significant to least-significant.
    fn fields(self) -> [Field; 5] {
        use Field::{Bank, Channel, Column, Rank, Row};
        match self {
            Self::RoRaBaCoCh => [Row, Rank, Bank, Column, Channel],
            Self::RoRaBaChCo => [Row, Rank, Bank, Channel, Column],
            Self::RoRaChBaCo => [Row, Rank, Channel, Bank, Column],
            Self::RoChRaBaCo => [Row, Channel, Rank, Bank, Column],
        }
    }

    fn field_bits(field: Field, cfg: &DramConfig) -> u32 {
        match field {
            Field::Channel => (cfg.channels as u64).trailing_zeros(),
            Field::Rank => (cfg.ranks_per_channel as u64).trailing_zeros(),
            Field::Bank => (cfg.banks_per_rank as u64).trailing_zeros(),
            Field::Row => cfg.rows_per_bank.trailing_zeros(),
            Field::Column => cfg.columns_per_row().trailing_zeros(),
        }
    }

    /// Decodes physical byte address `addr` into DRAM coordinates.
    ///
    /// Address bits above the mapped capacity wrap around (they are simply
    /// ignored), which matches how a real controller masks the address.
    #[must_use]
    pub fn decode(self, addr: u64, cfg: &DramConfig) -> DecodedAddress {
        let block_bits = cfg.column_bytes.trailing_zeros();
        let mut remaining = addr >> block_bits;
        let mut channel = 0u64;
        let mut rank = 0u64;
        let mut bank = 0u64;
        let mut row = 0u64;
        let mut column = 0u64;
        // Walk fields from least-significant to most-significant.
        for field in self.fields().iter().rev() {
            let bits = Self::field_bits(*field, cfg);
            let mask = (1u64 << bits) - 1;
            let value = remaining & mask;
            remaining >>= bits;
            match field {
                Field::Channel => channel = value,
                Field::Rank => rank = value,
                Field::Bank => bank = value,
                Field::Row => row = value,
                Field::Column => column = value,
            }
        }
        DecodedAddress {
            channel: channel as usize,
            location: Location::new(rank as usize, bank as usize, row, column),
        }
    }

    /// Re-encodes DRAM coordinates into the canonical physical address.
    ///
    /// `decode(encode(x)) == x` for coordinates within the configured
    /// geometry; used by tests and the trace tooling.
    #[must_use]
    pub fn encode(self, decoded: &DecodedAddress, cfg: &DramConfig) -> u64 {
        let block_bits = cfg.column_bytes.trailing_zeros();
        let mut addr = 0u64;
        for field in self.fields() {
            let bits = Self::field_bits(field, cfg);
            let value = match field {
                Field::Channel => decoded.channel as u64,
                Field::Rank => decoded.location.rank as u64,
                Field::Bank => decoded.location.bank as u64,
                Field::Row => decoded.location.row,
                Field::Column => decoded.location.column,
            };
            addr = (addr << bits) | (value & ((1u64 << bits) - 1));
        }
        addr << block_bits
    }
}

impl std::fmt::Display for AddressMapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Self::RoRaBaCoCh => "RoRaBaCoCh",
            Self::RoRaBaChCo => "RoRaBaChCo",
            Self::RoRaChBaCo => "RoRaChBaCo",
            Self::RoChRaBaCo => "RoChRaBaCo",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for AddressMapping {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "RoRaBaCoCh" => Ok(Self::RoRaBaCoCh),
            "RoRaBaChCo" => Ok(Self::RoRaBaChCo),
            "RoRaChBaCo" => Ok(Self::RoRaChBaCo),
            "RoChRaBaCo" => Ok(Self::RoChRaBaCo),
            other => Err(format!("unknown address mapping scheme `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg4() -> DramConfig {
        DramConfig::with_channels(4)
    }

    #[test]
    fn baseline_interleaves_blocks_across_channels() {
        let cfg = cfg4();
        let m = AddressMapping::RoRaBaCoCh;
        let chans: Vec<usize> = (0..4).map(|i| m.decode(i * 64, &cfg).channel).collect();
        assert_eq!(chans, vec![0, 1, 2, 3]);
        // Same row for all four: only the channel bits changed.
        let rows: Vec<u64> = (0..4)
            .map(|i| m.decode(i * 64, &cfg).location.row)
            .collect();
        assert!(rows.iter().all(|&r| r == rows[0]));
    }

    #[test]
    fn rorabachco_keeps_sequential_blocks_on_one_channel() {
        let cfg = cfg4();
        let m = AddressMapping::RoRaBaChCo;
        // 128 columns per row -> the first 128 blocks share a channel and row.
        let first = m.decode(0, &cfg);
        for i in 0..cfg.columns_per_row() {
            let d = m.decode(i * 64, &cfg);
            assert_eq!(d.channel, first.channel);
            assert_eq!(d.location.row, first.location.row);
            assert_eq!(d.location.column, i);
        }
        let next = m.decode(cfg.columns_per_row() * 64, &cfg);
        assert_ne!(next.channel, first.channel);
    }

    #[test]
    fn single_channel_schemes_agree_on_row_and_column() {
        // With one channel the channel field is zero bits wide, so all four
        // schemes with the same relative order of Ro/Ra/Ba/Co must agree.
        let cfg = DramConfig::baseline();
        let addr = 0x1234_5678_0000 % cfg.capacity_bytes();
        let base = AddressMapping::RoRaBaChCo.decode(addr, &cfg);
        for m in [AddressMapping::RoRaChBaCo, AddressMapping::RoChRaBaCo] {
            assert_eq!(m.decode(addr, &cfg), base);
        }
    }

    #[test]
    fn decode_encode_round_trip() {
        let cfg = cfg4();
        for m in AddressMapping::all() {
            for addr in [
                0u64,
                64,
                4096,
                0x00de_adbe_efc0 & !63,
                cfg.capacity_bytes() - 64,
            ] {
                let d = m.decode(addr, &cfg);
                assert_eq!(
                    m.encode(&d, &cfg),
                    addr % cfg.capacity_bytes(),
                    "scheme {m}"
                );
            }
        }
    }

    /// The address bits every field of `m` consumes (the block offset
    /// excluded) address the whole capacity.
    #[test]
    fn mapped_bits_cover_capacity() {
        let cfg = cfg4();
        for m in AddressMapping::all() {
            let mapped: u32 = m
                .fields()
                .iter()
                .map(|&f| AddressMapping::field_bits(f, &cfg))
                .sum();
            let total_bits = mapped + cfg.column_bytes.trailing_zeros();
            assert_eq!(1u64 << total_bits, cfg.capacity_bytes());
        }
    }

    #[test]
    fn display_and_parse_round_trip() {
        for m in AddressMapping::all() {
            let parsed: AddressMapping = m.to_string().parse().unwrap();
            assert_eq!(parsed, m);
        }
        assert!("RoXxYyZz".parse::<AddressMapping>().is_err());
    }

    #[test]
    fn decoded_coordinates_stay_in_range() {
        let cfg = cfg4();
        for m in AddressMapping::all() {
            for i in 0..1000u64 {
                let d = m.decode(i * 64 * 131, &cfg);
                assert!(d.channel < cfg.channels);
                assert!(d.location.rank < cfg.ranks_per_channel);
                assert!(d.location.bank < cfg.banks_per_rank);
                assert!(d.location.row < cfg.rows_per_bank);
                assert!(d.location.column < cfg.columns_per_row());
            }
        }
    }
}
