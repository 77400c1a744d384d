//! DRAM timing parameters.
//!
//! All parameters are expressed in DRAM clock cycles (memory-bus command
//! clock, i.e. half the data rate for DDR devices). The baseline preset
//! matches Table 2 of the paper: DDR3-1600 (800 MHz command clock),
//! `tCAS-tRCD-tRP-tRAS = 11-11-11-28`, `tRC-tWR-tWTR-tRTP = 39-12-6-6`,
//! `tRRD = 5`, `tFAW = 24`.

/// A number of DRAM clock cycles.
pub type DramCycles = u64;

/// Complete set of DRAM timing constraints used by the device model.
///
/// The model is a conservative DDR3-style timing model: it enforces the
/// bank-level (`tRCD`, `tRAS`, `tRP`, `tRC`, `tRTP`, `tWR`), rank-level
/// (`tRRD`, `tFAW`, `tWTR`), and channel-level (`tCCD`, burst occupancy,
/// read/write turnaround, `tRTRS`) constraints that dominate main-memory
/// latency and bandwidth for the workloads studied in the paper.
///
/// # Examples
///
/// ```
/// use cloudmc_dram::TimingParams;
///
/// let t = TimingParams::ddr3_1600();
/// assert_eq!(t.cl, 11);
/// assert_eq!(t.t_faw, 24);
/// // Row-cycle time is at least tRAS + tRP.
/// assert!(t.t_rc >= t.t_ras + t.t_rp);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimingParams {
    /// Command-clock period in picoseconds (1.25 ns for DDR3-1600).
    pub t_ck_ps: u64,
    /// CAS latency: READ command to first data beat.
    pub cl: DramCycles,
    /// CAS write latency: WRITE command to first data beat.
    pub cwl: DramCycles,
    /// ACTIVATE to internal READ/WRITE delay.
    pub t_rcd: DramCycles,
    /// PRECHARGE to ACTIVATE delay (row-precharge time).
    pub t_rp: DramCycles,
    /// ACTIVATE to PRECHARGE delay (row-active time).
    pub t_ras: DramCycles,
    /// ACTIVATE to ACTIVATE delay, same bank (row-cycle time).
    pub t_rc: DramCycles,
    /// Write recovery time: end of write burst to PRECHARGE.
    pub t_wr: DramCycles,
    /// Write-to-read turnaround, same rank: end of write burst to READ.
    pub t_wtr: DramCycles,
    /// READ to PRECHARGE delay.
    pub t_rtp: DramCycles,
    /// ACTIVATE to ACTIVATE delay, different banks of the same rank.
    pub t_rrd: DramCycles,
    /// Four-activate window: at most four ACTIVATEs to a rank per window.
    pub t_faw: DramCycles,
    /// Column-to-column delay (minimum spacing of column commands).
    pub t_ccd: DramCycles,
    /// Data-bus occupancy of one burst (BL/2 for DDR).
    pub t_burst: DramCycles,
    /// Rank-to-rank data-bus switch penalty.
    pub t_rtrs: DramCycles,
    /// Average refresh interval (REF-to-REF).
    pub t_refi: DramCycles,
    /// Refresh cycle time (REF command duration).
    pub t_rfc: DramCycles,
    /// Minimum CKE pulse width: once clock-enable toggles (power-down entry
    /// or exit), it must hold its level for this many cycles.
    pub t_cke: DramCycles,
    /// Fast-exit power-down exit latency: CKE high to the next valid command.
    pub t_xp: DramCycles,
    /// Slow-exit (DLL-off) power-down exit latency to a command that needs
    /// the DLL (any column access; applied to all commands by this model).
    pub t_xpdll: DramCycles,
    /// Self-refresh exit latency: CKE high to the next valid command
    /// (dominated by one internal refresh cycle, roughly `tRFC + 10 ns`).
    pub t_xs: DramCycles,
}

impl TimingParams {
    /// DDR3-1600 timings used by the paper's baseline (Table 2).
    #[must_use]
    pub fn ddr3_1600() -> Self {
        Self {
            t_ck_ps: 1250,
            cl: 11,
            cwl: 8,
            t_rcd: 11,
            t_rp: 11,
            t_ras: 28,
            t_rc: 39,
            t_wr: 12,
            t_wtr: 6,
            t_rtp: 6,
            t_rrd: 5,
            t_faw: 24,
            t_ccd: 4,
            t_burst: 4,
            t_rtrs: 2,
            t_refi: 6240,
            t_rfc: 208,
            t_cke: 4,
            t_xp: 6,
            t_xpdll: 20,
            t_xs: 216,
        }
    }

    /// DDR4-2400 timings (1200 MHz command clock, CL17 speed grade, 8 Gb
    /// devices), a faster generation for the power/energy sensitivity study.
    #[must_use]
    pub fn ddr4_2400() -> Self {
        Self {
            t_ck_ps: 833,
            cl: 17,
            cwl: 12,
            t_rcd: 17,
            t_rp: 17,
            t_ras: 39,
            t_rc: 56,
            t_wr: 18,
            t_wtr: 9,
            t_rtp: 9,
            t_rrd: 6,
            t_faw: 26,
            t_ccd: 5,
            t_burst: 4,
            t_rtrs: 2,
            t_refi: 9360,
            t_rfc: 420,
            t_cke: 6,
            t_xp: 8,
            t_xpdll: 29,
            t_xs: 432,
        }
    }

    /// DDR3-1066 timings, a slower grade useful for sensitivity studies.
    #[must_use]
    pub fn ddr3_1066() -> Self {
        Self {
            t_ck_ps: 1875,
            cl: 8,
            cwl: 6,
            t_rcd: 8,
            t_rp: 8,
            t_ras: 20,
            t_rc: 28,
            t_wr: 8,
            t_wtr: 4,
            t_rtp: 4,
            t_rrd: 4,
            t_faw: 20,
            t_ccd: 4,
            t_burst: 4,
            t_rtrs: 2,
            t_refi: 4160,
            t_rfc: 139,
            t_cke: 3,
            t_xp: 4,
            t_xpdll: 13,
            t_xs: 145,
        }
    }

    /// Write-to-read turnaround within the same rank.
    #[must_use]
    pub fn write_to_read_same_rank(&self) -> DramCycles {
        self.cwl + self.t_burst + self.t_wtr
    }

    /// Write-to-precharge delay within the same bank.
    #[must_use]
    pub fn write_to_precharge(&self) -> DramCycles {
        self.cwl + self.t_burst + self.t_wr
    }

    /// Duration in nanoseconds of `cycles` DRAM cycles.
    #[must_use]
    pub fn cycles_to_ns(&self, cycles: DramCycles) -> f64 {
        cycles as f64 * self.t_ck_ps as f64 / 1000.0
    }

    /// Peak data-bus bandwidth in bytes per second for a 64-bit channel.
    #[must_use]
    pub fn peak_bandwidth_bytes_per_sec(&self) -> f64 {
        // 8 bytes per beat, 2 beats per command-clock cycle (DDR).
        let cycles_per_sec = 1.0e12 / self.t_ck_ps as f64;
        cycles_per_sec * 2.0 * 8.0
    }

    /// Validates internal consistency of the parameters.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// relationship (e.g. `tRC < tRAS + tRP`).
    pub fn validate(&self) -> Result<(), String> {
        if self.t_ck_ps == 0 {
            return Err("tCK must be non-zero".to_owned());
        }
        if self.t_rc < self.t_ras + self.t_rp {
            return Err(format!(
                "tRC ({}) must be >= tRAS ({}) + tRP ({})",
                self.t_rc, self.t_ras, self.t_rp
            ));
        }
        if self.t_faw < self.t_rrd {
            return Err(format!(
                "tFAW ({}) must be >= tRRD ({})",
                self.t_faw, self.t_rrd
            ));
        }
        if self.t_burst == 0 || self.t_ccd == 0 {
            return Err("burst length and tCCD must be non-zero".to_owned());
        }
        if self.t_refi > 0 && self.t_rfc >= self.t_refi {
            return Err(format!(
                "tRFC ({}) must be < tREFI ({})",
                self.t_rfc, self.t_refi
            ));
        }
        if self.t_cke == 0 || self.t_xp == 0 {
            return Err("tCKE and tXP must be non-zero".to_owned());
        }
        if self.t_xpdll < self.t_xp {
            return Err(format!(
                "tXPDLL ({}) must be >= tXP ({})",
                self.t_xpdll, self.t_xp
            ));
        }
        if self.t_xs < self.t_rfc {
            return Err(format!(
                "tXS ({}) must be >= tRFC ({}): self-refresh exit covers one \
                 internal refresh cycle",
                self.t_xs, self.t_rfc
            ));
        }
        Ok(())
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        Self::ddr3_1600()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr3_1600_matches_paper_table2() {
        let t = TimingParams::ddr3_1600();
        assert_eq!(
            (t.cl, t.t_rcd, t.t_rp, t.t_ras),
            (11, 11, 11, 28),
            "tCAS-tRCD-tRP-tRAS must be 11-11-11-28"
        );
        assert_eq!((t.t_rc, t.t_wr, t.t_wtr, t.t_rtp), (39, 12, 6, 6));
        assert_eq!((t.t_rrd, t.t_faw), (5, 24));
    }

    #[test]
    fn presets_are_valid() {
        TimingParams::ddr3_1600().validate().unwrap();
        TimingParams::ddr3_1066().validate().unwrap();
        TimingParams::ddr4_2400().validate().unwrap();
    }

    #[test]
    fn ddr3_1600_power_mode_fences_are_pinned() {
        let t = TimingParams::ddr3_1600();
        assert_eq!((t.t_cke, t.t_xp, t.t_xpdll, t.t_xs), (4, 6, 20, 216));
        assert!(t.t_xs >= t.t_rfc);
    }

    #[test]
    fn ddr4_2400_preset_is_pinned() {
        let t = TimingParams::ddr4_2400();
        assert_eq!(t.t_ck_ps, 833);
        assert_eq!((t.cl, t.t_rcd, t.t_rp, t.t_ras), (17, 17, 17, 39));
        assert_eq!((t.t_rc, t.t_wr, t.t_wtr, t.t_rtp), (56, 18, 9, 9));
        assert_eq!((t.t_rrd, t.t_faw, t.t_ccd), (6, 26, 5));
        assert_eq!((t.t_refi, t.t_rfc), (9360, 420));
        assert_eq!((t.t_cke, t.t_xp, t.t_xpdll, t.t_xs), (6, 8, 29, 432));
        // Faster clock than DDR3-1600, higher peak bandwidth.
        let gb = t.peak_bandwidth_bytes_per_sec() / 1.0e9;
        assert!((gb - 19.2).abs() < 0.05, "got {gb}");
    }

    #[test]
    fn validate_rejects_bad_power_fences() {
        let mut t = TimingParams::ddr3_1600();
        t.t_xp = 0;
        assert!(t.validate().is_err());
        t = TimingParams::ddr3_1600();
        t.t_xpdll = t.t_xp - 1;
        assert!(t.validate().is_err());
        t = TimingParams::ddr3_1600();
        t.t_xs = t.t_rfc - 1;
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_inconsistent_trc() {
        let mut t = TimingParams::ddr3_1600();
        t.t_rc = 10;
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_tck() {
        let mut t = TimingParams::ddr3_1600();
        t.t_ck_ps = 0;
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_faw_smaller_than_rrd() {
        let mut t = TimingParams::ddr3_1600();
        t.t_faw = 2;
        assert!(t.validate().is_err());
    }

    #[test]
    fn peak_bandwidth_is_12_point_8_gb_per_sec() {
        let t = TimingParams::ddr3_1600();
        let gb = t.peak_bandwidth_bytes_per_sec() / 1.0e9;
        assert!((gb - 12.8).abs() < 0.01, "got {gb}");
    }

    #[test]
    fn cycles_to_ns_uses_tck() {
        let t = TimingParams::ddr3_1600();
        assert!((t.cycles_to_ns(8) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn turnaround_helpers_are_consistent() {
        let t = TimingParams::ddr3_1600();
        assert_eq!(t.write_to_read_same_rank(), 8 + 4 + 6);
        assert_eq!(t.write_to_precharge(), 8 + 4 + 12);
    }
}
