//! An independent DRAM protocol checker: every bound is computed from
//! `TimingParams` fields alone and checked on an issued command stream, so a
//! fence that `DramChannel` forgets or mis-states shows up here rather than
//! being reproduced by the model's own legality rule.
//!
//! Dev-only and shared by path: `crates/dram/tests/timing_properties.rs`
//! checks the stream of its own naive driver with it, and the root
//! `tests/controller_protocol.rs` checks the memory controller's own stream,
//! recorded by `DramChannel::record_commands`. Each check returns the number
//! of times it bound (so a caller can assert it was exercised) or the first
//! violation.

use cloudmc_dram::{Command, CommandKind, LogEvent, PowerDownMode, TimingParams};

/// `(cycle, command)` in issue order.
pub type History = Vec<(u64, Command)>;

/// A CKE transition of one rank, recorded next to the command history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cke {
    /// CKE dropped (or the rank deepened) into this mode.
    Enter(PowerDownMode),
    /// CKE raised: the rank begins its exit.
    Wake,
}

/// `(cycle, rank, transition)` in issue order.
pub type CkeLog = Vec<(u64, usize, Cke)>;

/// Splits a channel's recorded log into its command history and CKE log.
pub fn split(log: &[(u64, LogEvent)]) -> (History, CkeLog) {
    let mut history = Vec::new();
    let mut cke = Vec::new();
    for &(at, event) in log {
        match event {
            LogEvent::Command(cmd) => history.push((at, cmd)),
            LogEvent::PowerDown { rank, mode } => cke.push((at, rank, Cke::Enter(mode))),
            LogEvent::Wake { rank } => cke.push((at, rank, Cke::Wake)),
        }
    }
    (history, cke)
}

pub fn same_bank(a: &Command, b: &Command) -> bool {
    a.loc.rank == b.loc.rank && a.loc.bank == b.loc.bank
}

pub fn same_rank(a: &Command, b: &Command) -> bool {
    a.loc.rank == b.loc.rank
}

pub fn is_act(c: &Command) -> bool {
    c.kind == CommandKind::Activate
}

pub fn is_pre(c: &Command) -> bool {
    c.kind == CommandKind::Precharge
}

pub fn is_ref(c: &Command) -> bool {
    c.kind == CommandKind::Refresh
}

pub fn is_column(c: &Command) -> bool {
    c.kind.is_column()
}

pub fn is_read(c: &Command) -> bool {
    c.kind.is_read()
}

pub fn is_write(c: &Command) -> bool {
    c.kind.is_write()
}

pub fn any(_: &Command) -> bool {
    true
}

/// Checks that every command matching `later` issues at least `gap` cycles
/// after the most recent earlier command matching `earlier` in the same
/// `scope`. Returns how many such pairs were checked.
pub fn min_gap(
    history: &[(u64, Command)],
    name: &str,
    gap: u64,
    earlier: impl Fn(&Command) -> bool,
    later: impl Fn(&Command) -> bool,
    scope: impl Fn(&Command, &Command) -> bool,
) -> Result<usize, String> {
    let mut checked = 0;
    for (j, (t1, c1)) in history.iter().enumerate() {
        if !later(c1) {
            continue;
        }
        let prior = history[..j]
            .iter()
            .rev()
            .find(|(_, c0)| earlier(c0) && scope(c0, c1));
        if let Some((t0, c0)) = prior {
            if t1.saturating_sub(*t0) < gap {
                return Err(format!(
                    "{name} violated: {} at {t0} then {} at {t1} (need {gap})",
                    c0.kind, c1.kind
                ));
            }
            checked += 1;
        }
    }
    Ok(checked)
}

/// The four-activate window: any five consecutive activates to one rank
/// span at least tFAW cycles. Returns the windows checked.
pub fn tfaw(t: &TimingParams, history: &[(u64, Command)], ranks: usize) -> Result<usize, String> {
    let mut checked = 0;
    for rank in 0..ranks {
        let acts: Vec<u64> = history
            .iter()
            .filter(|(_, c)| is_act(c) && c.loc.rank == rank)
            .map(|(time, _)| *time)
            .collect();
        for window in acts.windows(5) {
            if window[4] - window[0] < t.t_faw {
                return Err(format!("five activates within tFAW: {window:?}"));
            }
            checked += 1;
        }
    }
    Ok(checked)
}

/// Activate spacing: tRRD between activates of one rank, tRC within a bank.
pub fn activate_spacing(t: &TimingParams, h: &[(u64, Command)]) -> Result<[usize; 2], String> {
    Ok([
        min_gap(h, "tRRD", t.t_rrd, is_act, is_act, same_rank)?,
        min_gap(h, "tRC", t.t_rc, is_act, is_act, same_bank)?,
    ])
}

/// The bank fences: ACT → column (tRCD), ACT → PRE (tRAS), PRE → ACT (tRP),
/// RD → PRE (tRTP) and WR → PRE (write recovery, counted from the command:
/// CWL + burst + tWR).
pub fn bank_fences(t: &TimingParams, h: &[(u64, Command)]) -> Result<[usize; 5], String> {
    let write_recovery = t.cwl + t.t_burst + t.t_wr;
    Ok([
        min_gap(h, "tRCD", t.t_rcd, is_act, is_column, same_bank)?,
        min_gap(h, "tRAS", t.t_ras, is_act, is_pre, same_bank)?,
        min_gap(h, "tRP", t.t_rp, is_pre, is_act, same_bank)?,
        min_gap(h, "tRTP", t.t_rtp, is_read, is_pre, same_bank)?,
        min_gap(h, "tWR", write_recovery, is_write, is_pre, same_bank)?,
    ])
}

/// The rank fences: column → column (tCCD), WR → RD (CWL + burst + tWTR),
/// and REF → any command to the rank (tRFC).
pub fn rank_fences(t: &TimingParams, h: &[(u64, Command)]) -> Result<[usize; 3], String> {
    let write_to_read = t.cwl + t.t_burst + t.t_wtr;
    Ok([
        min_gap(h, "tCCD", t.t_ccd, is_column, is_column, same_rank)?,
        min_gap(h, "tWTR", write_to_read, is_write, is_read, same_rank)?,
        min_gap(h, "tRFC", t.t_rfc, is_ref, any, same_rank)?,
    ])
}

/// A column access with auto-precharge closes its bank at the later of its
/// own recovery (tRTP after a READ, CWL + burst + tWR after a WRITE) and
/// tRAS after the bank's activate; the bank's next activate waits tRP
/// beyond that. Returns the auto-precharges followed by an activate.
pub fn auto_precharge(t: &TimingParams, h: &[(u64, Command)]) -> Result<usize, String> {
    let mut checked = 0;
    for (j, (at, c)) in h.iter().enumerate() {
        let recovery = match c.kind {
            CommandKind::Read {
                auto_precharge: true,
            } => t.t_rtp,
            CommandKind::Write {
                auto_precharge: true,
            } => t.cwl + t.t_burst + t.t_wr,
            _ => continue,
        };
        let opened = h[..j]
            .iter()
            .rev()
            .find(|(_, c0)| is_act(c0) && same_bank(c0, c))
            .map_or(0, |(t0, _)| t0 + t.t_ras);
        let closed = (at + recovery).max(opened);
        if let Some((next, _)) = h[j + 1..]
            .iter()
            .find(|(_, c1)| is_act(c1) && same_bank(c1, c))
        {
            if *next < closed + t.t_rp {
                return Err(format!(
                    "auto-precharge tRP violated: {} at {at} closes at {closed}, \
                     activate at {next} (need {})",
                    c.kind,
                    closed + t.t_rp
                ));
            }
            checked += 1;
        }
    }
    Ok(checked)
}

/// Data bursts never overlap on the shared data bus, and consecutive bursts
/// from different ranks leave at least tRTRS between them. Returns the
/// rank-to-rank switches checked.
pub fn data_bus(t: &TimingParams, history: &[(u64, Command)]) -> Result<usize, String> {
    let mut rank_switches = 0;
    let mut bursts: Vec<(u64, u64, usize)> = history
        .iter()
        .filter_map(|(time, c)| {
            let start = match c.kind {
                CommandKind::Read { .. } => time + t.cl,
                CommandKind::Write { .. } => time + t.cwl,
                _ => return None,
            };
            Some((start, start + t.t_burst, c.loc.rank))
        })
        .collect();
    bursts.sort_unstable();
    for pair in bursts.windows(2) {
        let ((_, end, rank0), (start, _, rank1)) = (pair[0], pair[1]);
        let gap = if rank0 == rank1 {
            0
        } else {
            rank_switches += 1;
            t.t_rtrs
        };
        if start < end + gap {
            return Err(format!(
                "data bursts too close: {:?} then {:?} (need {gap} idle)",
                pair[0], pair[1]
            ));
        }
    }
    Ok(rank_switches)
}

/// At most one command is issued per DRAM cycle (command-bus constraint).
pub fn one_command_per_cycle(history: &[(u64, Command)]) -> Result<(), String> {
    for pair in history.windows(2) {
        if pair[1].0 <= pair[0].0 {
            return Err(format!("two commands in cycle {}", pair[0].0));
        }
    }
    Ok(())
}

/// Checks the power-down fences of one rank's run from `TimingParams`
/// alone, adding to `checked` how often each was exercised:
///
/// * `[0]` no command reaches the rank from its CKE-low entry through its
///   wake;
/// * `[1..=3]` after a wake at `w`, the first command to the rank issues at
///   or after `max(w, entry + tCKE) + exit`, with `exit` tXP, tXPDLL or tXS
///   by the deepest mode entered (one counter each) and `entry` the last
///   CKE-low transition;
/// * `[4]` wakes where the `entry + tCKE` term is the binding one;
/// * `[5]` consecutive CKE transitions (entry, deepening, or entry after
///   the CKE rise of a wake) are at least tCKE apart.
///
/// A rank still powered down at the end of the log must have received no
/// command since its entry.
pub fn power_fences(
    t: &TimingParams,
    history: &[(u64, Command)],
    cke: &[(u64, usize, Cke)],
    rank: usize,
    checked: &mut [usize; 6],
) -> Result<(), String> {
    let commands: Vec<u64> = history
        .iter()
        .filter(|(_, c)| c.loc.rank == rank)
        .map(|&(at, _)| at)
        .collect();
    let events: Vec<(u64, Cke)> = cke
        .iter()
        .filter(|&&(_, r, _)| r == rank)
        .map(|&(at, _, event)| (at, event))
        .collect();
    // (first entry, last transition, mode) while CKE is low.
    let mut low: Option<(u64, u64, PowerDownMode)> = None;
    let mut last_rise: Option<u64> = None;
    for (i, &(at, event)) in events.iter().enumerate() {
        match event {
            Cke::Enter(mode) => {
                if let Some(prev) = low.map(|(_, last, _)| last).or(last_rise) {
                    if at < prev + t.t_cke {
                        return Err(format!(
                            "rank {rank}: CKE transition at {at} within tCKE of {prev}"
                        ));
                    }
                    checked[5] += 1;
                }
                low = Some((low.map_or(at, |(first, _, _)| first), at, mode));
            }
            Cke::Wake => {
                let (entry, last, mode) = low
                    .take()
                    .ok_or_else(|| format!("rank {rank}: wake at {at} of an awake rank"))?;
                if let Some(during) = commands.iter().find(|&&c| c >= entry && c <= at) {
                    return Err(format!(
                        "rank {rank}: command at {during} while CKE low ({entry}..={at})"
                    ));
                }
                checked[0] += 1;
                let rise = at.max(last + t.t_cke);
                let (exit, kind) = match mode {
                    PowerDownMode::Fast => (t.t_xp, 1),
                    PowerDownMode::Slow => (t.t_xpdll, 2),
                    PowerDownMode::SelfRefresh => (t.t_xs, 3),
                };
                let next_entry = events[i + 1..]
                    .iter()
                    .find(|(_, e)| matches!(e, Cke::Enter(_)))
                    .map_or(u64::MAX, |&(next, _)| next);
                if let Some(&first) = commands.iter().find(|&&c| c > at && c < next_entry) {
                    if first < rise + exit {
                        return Err(format!(
                            "rank {rank}: {mode:?} woken at {at} (last entry {last}) \
                             took a command at {first}, before {}",
                            rise + exit
                        ));
                    }
                    checked[kind] += 1;
                    if rise > at {
                        checked[4] += 1;
                    }
                }
                last_rise = Some(rise);
            }
        }
    }
    if let Some((entry, _, _)) = low {
        if let Some(during) = commands.iter().find(|&&c| c >= entry) {
            return Err(format!(
                "rank {rank}: command at {during} while CKE low (from {entry})"
            ));
        }
    }
    Ok(())
}

/// How often each check of [`check_log`] bound, summed over logs.
#[derive(Debug, Default, Clone, Copy)]
pub struct Coverage {
    /// tFAW windows.
    pub tfaw: usize,
    /// tRRD, tRC.
    pub activate: [usize; 2],
    /// tRCD, tRAS, tRP, tRTP, tWR.
    pub bank: [usize; 5],
    /// tCCD, tWTR, tRFC.
    pub rank: [usize; 3],
    /// Auto-precharges followed by an activate.
    pub auto_precharge: usize,
    /// Rank-to-rank data-bus switches.
    pub rank_switches: usize,
    /// The counters of [`power_fences`].
    pub power: [usize; 6],
}

impl Coverage {
    /// The checks that never bound, by name.
    pub fn unexercised(&self) -> Vec<&'static str> {
        let [rrd, rc] = self.activate;
        let [rcd, ras, rp, rtp, wr] = self.bank;
        let [ccd, wtr, rfc] = self.rank;
        let [cke_low, xp, xpdll, xs, cke_exit, cke] = self.power;
        [
            ("tFAW", self.tfaw),
            ("tRRD", rrd),
            ("tRC", rc),
            ("tRCD", rcd),
            ("tRAS", ras),
            ("tRP", rp),
            ("tRTP", rtp),
            ("tWR", wr),
            ("tCCD", ccd),
            ("tWTR", wtr),
            ("tRFC", rfc),
            ("auto-precharge tRP", self.auto_precharge),
            ("tRTRS", self.rank_switches),
            ("CKE low", cke_low),
            ("tXP", xp),
            ("tXPDLL", xpdll),
            ("tXS", xs),
            ("tCKE before exit", cke_exit),
            ("tCKE", cke),
        ]
        .into_iter()
        .filter(|&(_, n)| n == 0)
        .map(|(name, _)| name)
        .collect()
    }
}

/// Runs every check over one channel's recorded log, adding to `coverage`.
pub fn check_log(
    t: &TimingParams,
    ranks: usize,
    log: &[(u64, LogEvent)],
    coverage: &mut Coverage,
) -> Result<(), String> {
    let (history, cke) = split(log);
    one_command_per_cycle(&history)?;
    coverage.tfaw += tfaw(t, &history, ranks)?;
    for (sum, n) in coverage
        .activate
        .iter_mut()
        .zip(activate_spacing(t, &history)?)
    {
        *sum += n;
    }
    for (sum, n) in coverage.bank.iter_mut().zip(bank_fences(t, &history)?) {
        *sum += n;
    }
    for (sum, n) in coverage.rank.iter_mut().zip(rank_fences(t, &history)?) {
        *sum += n;
    }
    coverage.auto_precharge += auto_precharge(t, &history)?;
    coverage.rank_switches += data_bus(t, &history)?;
    for rank in 0..ranks {
        power_fences(t, &history, &cke, rank, &mut coverage.power)?;
    }
    Ok(())
}
