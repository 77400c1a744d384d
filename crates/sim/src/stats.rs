//! Measurement results of one simulation run.

/// Metrics collected over the measurement window of one run.
///
/// These are exactly the quantities the paper's figures report: user IPC,
/// average memory access latency, row-buffer hit rate, L2 MPKI, queue
/// occupancies, bandwidth utilization and the single-access activation
/// fraction.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// Workload acronym.
    pub workload: String,
    /// Scheduler label (e.g. "FR-FCFS").
    pub scheduler: String,
    /// Page policy name (e.g. "open-adaptive").
    pub page_policy: String,
    /// Power policy name (e.g. "idle-timer").
    pub power_policy: String,
    /// Address mapping scheme name.
    pub mapping: String,
    /// Number of memory channels.
    pub channels: usize,
    /// Number of cores simulated.
    pub cores: usize,
    /// CPU cycles in the measurement window.
    pub cpu_cycles: u64,
    /// DRAM cycles in the measurement window.
    pub dram_cycles: u64,
    /// Committed user instructions over all cores.
    pub user_instructions: u64,
    /// Committed user instructions per core.
    pub instructions_per_core: Vec<u64>,
    /// Memory read requests sent off-chip (demand L2 misses).
    pub memory_reads_sent: u64,
    /// Memory write requests sent off-chip (L2 write-backs plus DMA writes).
    pub memory_writes_sent: u64,
    /// Reads completed by the memory controller.
    pub reads_completed: u64,
    /// Writes completed by the memory controller.
    pub writes_completed: u64,
    /// Average read latency in DRAM cycles (arrival at MC to data return).
    pub avg_read_latency_dram: f64,
    /// Average read latency in nanoseconds.
    pub avg_read_latency_ns: f64,
    /// Row-buffer hit rate (0.0–1.0).
    pub row_buffer_hit_rate: f64,
    /// Fraction of row activations with exactly one access (0.0–1.0).
    pub single_access_activation_fraction: f64,
    /// Average read-queue occupancy.
    pub avg_read_queue_len: f64,
    /// Average write-queue occupancy.
    pub avg_write_queue_len: f64,
    /// Data-bus utilization across channels (0.0–1.0).
    pub bandwidth_utilization: f64,
    /// L2 misses per kilo user instructions.
    pub l2_mpki: f64,
    /// DRAM activations per kilo user instructions.
    pub activations_per_kilo_instr: f64,
    /// Total DRAM energy in millijoules over the measurement window,
    /// computed by the event + state-residency model (the paper defers power
    /// analysis to future work; this is the extension that tests its
    /// conjecture).
    pub dram_energy_mj: f64,
    /// Background (standby + power-down + self-refresh) portion of
    /// `dram_energy_mj`.
    pub dram_background_energy_mj: f64,
    /// Average DRAM power over the window in milliwatts.
    pub avg_dram_power_mw: f64,
    /// DRAM energy per completed request in nanojoules.
    pub energy_per_request_nj: f64,
    /// Fraction of rank-cycles spent in any CKE-low state (0.0–1.0).
    pub power_down_fraction: f64,
    /// Fraction of rank-cycles spent in self-refresh (0.0–1.0).
    pub self_refresh_fraction: f64,
    /// Power-down entries (fast/slow) during the window.
    pub power_down_entries: u64,
    /// Rank wakes (demand- or refresh-triggered) during the window.
    pub power_wakes: u64,
    /// QoS policy name (e.g. "priority-boost"); "none" when QoS is off.
    pub qos_policy: String,
    /// Number of tenants in the workload mix (1 for single-tenant runs; all
    /// `*_per_tenant` vectors have this length).
    pub tenants: usize,
    /// Workload acronym per tenant.
    pub tenant_workloads: Vec<String>,
    /// Cores allocated per tenant.
    pub tenant_cores: Vec<usize>,
    /// Latency-criticality flag per tenant.
    pub tenant_latency_critical: Vec<bool>,
    /// Committed user instructions per tenant.
    pub instructions_per_tenant: Vec<u64>,
    /// Reads completed by the memory controller per tenant.
    pub reads_completed_per_tenant: Vec<u64>,
    /// Average read latency per tenant in DRAM cycles.
    pub avg_read_latency_per_tenant: Vec<f64>,
    /// Each tenant's share of the delivered data bandwidth (0.0–1.0).
    pub bandwidth_share_per_tenant: Vec<f64>,
    /// Row-buffer hit rate per tenant (0.0–1.0).
    pub row_hit_rate_per_tenant: Vec<f64>,
    /// Time-averaged read-queue occupancy attributable to each tenant.
    pub avg_read_queue_len_per_tenant: Vec<f64>,
    /// ECC single-bit corrections on demand reads during the window.
    pub ecc_corrected: u64,
    /// Detected-uncorrectable ECC events on demand reads during the window.
    pub ecc_detected_uncorrectable: u64,
    /// ECC miscorrections (multi-bit errors aliased to a valid codeword)
    /// during the window. These are silent data corruptions: no retry, no
    /// poison, no retirement evidence.
    pub ecc_miscorrects: u64,
    /// Demand reads re-issued by the bounded retry path during the window.
    pub demand_retries: u64,
    /// Patrol-scrub reads injected into the controller queues during the
    /// window.
    pub scrub_reads_issued: u64,
    /// Patrol-scrub reads serviced by the devices during the window.
    pub scrub_reads_completed: u64,
    /// Correctable errors found by the patrol scrubber during the window.
    pub scrub_corrected: u64,
    /// Detected-uncorrectable errors found by the patrol scrubber during the
    /// window.
    pub scrub_uncorrectable: u64,
    /// Rows retired (remapped out of service) during the window.
    pub rows_retired: u64,
    /// Cache lines newly poisoned under the poison-and-continue policy
    /// during the window.
    pub lines_poisoned: u64,
    /// Demand reads that hit an already-poisoned line during the window.
    pub poisoned_reads: u64,
    /// Whole-run fault-ledger total: fault events injected (not a window
    /// delta — the conservation invariant `injected == corrected +
    /// uncorrectable + latent` holds over the full run).
    pub faults_injected: u64,
    /// Whole-run fault-ledger total: faults resolved as corrected.
    pub faults_corrected: u64,
    /// Whole-run fault-ledger total: faults resolved as uncorrectable
    /// (detected or miscorrected).
    pub faults_uncorrectable: u64,
    /// Whole-run fault-ledger total: planted faults not yet discovered.
    pub faults_latent: u64,
    /// Retired-row counts per rank at the end of the run, channel-major
    /// (channel 0 rank 0, channel 0 rank 1, ..., channel 1 rank 0, ...). All
    /// zeros when no fault model is configured.
    pub rows_retired_per_rank: Vec<u64>,
    /// Memory capacity lost to row retirement by the end of the run, in
    /// bytes (retired rows × row size).
    pub retired_capacity_bytes: u64,
    /// Median read latency over the measurement window in DRAM cycles, from
    /// the controller's log2-bucket latency histogram (linearly interpolated
    /// within a bucket; 0.0 when no reads completed).
    pub read_latency_p50_dram: f64,
    /// 95th-percentile read latency in DRAM cycles (same histogram
    /// estimate; 0.0 when no reads completed).
    pub read_latency_p95_dram: f64,
    /// 99th-percentile read latency in DRAM cycles (same histogram
    /// estimate; 0.0 when no reads completed).
    pub read_latency_p99_dram: f64,
    /// Largest read latency observed in the window, in DRAM cycles. Window
    /// deltas bound this at bucket resolution (the upper edge of the highest
    /// bucket the window touched); 0 when no reads completed.
    pub read_latency_max_dram: u64,
}

impl SimStats {
    /// Aggregate user IPC: committed user instructions per CPU cycle summed
    /// over all cores (the paper's throughput metric).
    #[must_use]
    pub fn user_ipc(&self) -> f64 {
        if self.cpu_cycles == 0 {
            0.0
        } else {
            self.user_instructions as f64 / self.cpu_cycles as f64
        }
    }

    /// Per-core IPC values.
    #[must_use]
    pub fn per_core_ipc(&self) -> Vec<f64> {
        self.instructions_per_core
            .iter()
            .map(|&n| {
                if self.cpu_cycles == 0 {
                    0.0
                } else {
                    n as f64 / self.cpu_cycles as f64
                }
            })
            .collect()
    }

    /// Ratio of the slowest core's IPC to the fastest core's IPC (1.0 means
    /// perfectly balanced; small values indicate unfair scheduling).
    #[must_use]
    pub fn ipc_fairness(&self) -> f64 {
        let ipcs = self.per_core_ipc();
        let max = ipcs.iter().copied().fold(f64::NAN, f64::max);
        let min = ipcs.iter().copied().fold(f64::NAN, f64::min);
        if !max.is_finite() || max <= 0.0 {
            0.0
        } else {
            min / max
        }
    }

    /// Aggregate IPC of one tenant's core group (committed instructions of
    /// that tenant per CPU cycle). Slowdown and weighted-speedup metrics are
    /// ratios of this against an alone-run baseline.
    #[must_use]
    pub fn tenant_ipc(&self, tenant: usize) -> f64 {
        match self.instructions_per_tenant.get(tenant) {
            Some(&n) if self.cpu_cycles > 0 => n as f64 / self.cpu_cycles as f64,
            _ => 0.0,
        }
    }

    /// This run's user IPC normalized to a baseline run.
    #[must_use]
    pub fn normalized_ipc(&self, baseline: &Self) -> f64 {
        let b = baseline.user_ipc();
        if b == 0.0 {
            0.0
        } else {
            self.user_ipc() / b
        }
    }
}

/// Generates [`SimStats::to_json`] and [`SimStats::from_json`] from one
/// field list. `Self` is destructured (to write) and built (to read) from
/// the same list without a rest pattern, so a new field does not compile
/// until it is listed here.
macro_rules! json_members {
    ($($field:ident,)*) => {
        impl SimStats {
            /// Renders the statistics as one JSON object (hand-written: the
            /// build environment has no registry access, so no serde).
            ///
            /// The list in `stats.rs` is the one place a key is named: the
            /// key is the field name. `stats_schema.txt` (checked by a unit
            /// test) is the external statement of the same list. Keys are
            /// emitted in the order they were introduced — new ones are
            /// appended, so existing consumers of the `BENCH_*.json` files
            /// keep parsing unchanged. Numbers render through `Display`,
            /// whose float output is the shortest that parses back exactly,
            /// so [`SimStats::from_json`] restores every field bit for bit.
            #[must_use]
            pub fn to_json(&self) -> String {
                let Self { $($field,)* } = self;
                let members = [$(format!("\"{}\":{}", stringify!($field), $field.render()),)*];
                format!("{{{}}}", members.join(","))
            }

            /// Parses an object written by [`SimStats::to_json`]. Returns
            /// `None` if the text is not such an object, any key is missing
            /// or malformed, or a string needed escaping, so a truncated or
            /// garbled file is never mistaken for statistics; unknown keys
            /// are ignored.
            #[must_use]
            pub fn from_json(json: &str) -> Option<Self> {
                let members = object_members(json)?;
                let value = |key: &str| members.iter().find(|(k, _)| *k == key).map(|&(_, v)| v);
                Some(Self { $($field: JsonValue::parse(value(stringify!($field))?)?,)* })
            }
        }
    };
}

json_members! {
    workload,
    scheduler,
    page_policy,
    mapping,
    channels,
    cores,
    cpu_cycles,
    dram_cycles,
    user_instructions,
    instructions_per_core,
    memory_reads_sent,
    memory_writes_sent,
    reads_completed,
    writes_completed,
    avg_read_latency_dram,
    avg_read_latency_ns,
    row_buffer_hit_rate,
    single_access_activation_fraction,
    avg_read_queue_len,
    avg_write_queue_len,
    bandwidth_utilization,
    l2_mpki,
    activations_per_kilo_instr,
    dram_energy_mj,
    // Energy/power keys.
    power_policy,
    dram_background_energy_mj,
    avg_dram_power_mw,
    energy_per_request_nj,
    power_down_fraction,
    self_refresh_fraction,
    power_down_entries,
    power_wakes,
    // Tenancy/QoS keys.
    qos_policy,
    tenants,
    tenant_workloads,
    tenant_cores,
    tenant_latency_critical,
    instructions_per_tenant,
    reads_completed_per_tenant,
    avg_read_latency_per_tenant,
    bandwidth_share_per_tenant,
    row_hit_rate_per_tenant,
    avg_read_queue_len_per_tenant,
    // Reliability keys.
    ecc_corrected,
    ecc_detected_uncorrectable,
    ecc_miscorrects,
    demand_retries,
    scrub_reads_issued,
    scrub_reads_completed,
    scrub_corrected,
    scrub_uncorrectable,
    rows_retired,
    lines_poisoned,
    poisoned_reads,
    faults_injected,
    faults_corrected,
    faults_uncorrectable,
    faults_latent,
    rows_retired_per_rank,
    retired_capacity_bytes,
    // Latency-percentile keys.
    read_latency_p50_dram,
    read_latency_p95_dram,
    read_latency_p99_dram,
    read_latency_max_dram,
}

/// A [`SimStats`] field type as its JSON value: how `to_json` writes it and
/// how `from_json` reads it back.
trait JsonValue: Sized {
    fn render(&self) -> String;
    fn parse(raw: &str) -> Option<Self>;
}

/// Numbers and booleans: `Display` out, `FromStr` back.
macro_rules! display_json_value {
    ($($ty:ty),*) => {$(
        impl JsonValue for $ty {
            fn render(&self) -> String {
                self.to_string()
            }
            fn parse(raw: &str) -> Option<Self> {
                raw.parse().ok()
            }
        }
    )*};
}

display_json_value!(u64, usize, f64, bool);

/// Strings read back only when they needed no escaping — every label the
/// simulator writes; anything else is `None`, never a guess.
impl JsonValue for String {
    fn render(&self) -> String {
        format!("\"{}\"", json_escape(self))
    }
    fn parse(raw: &str) -> Option<Self> {
        let text = raw.strip_prefix('"')?.strip_suffix('"')?;
        (!text.contains(['"', '\\'])).then(|| text.to_owned())
    }
}

impl<T: JsonValue> JsonValue for Vec<T> {
    fn render(&self) -> String {
        let items: Vec<String> = self.iter().map(T::render).collect();
        format!("[{}]", items.join(","))
    }
    fn parse(raw: &str) -> Option<Self> {
        let inner = raw.strip_prefix('[')?.strip_suffix(']')?;
        if inner.trim().is_empty() {
            return Some(Vec::new());
        }
        split_top_level(inner)?.into_iter().map(T::parse).collect()
    }
}

/// The `(key, raw value)` pairs of a flat JSON object.
fn object_members(json: &str) -> Option<Vec<(&str, &str)>> {
    let body = json.trim().strip_prefix('{')?.strip_suffix('}')?;
    split_top_level(body)?
        .into_iter()
        .map(|member| {
            let (key, value) = member.split_once(':')?;
            Some((
                key.trim().strip_prefix('"')?.strip_suffix('"')?,
                value.trim(),
            ))
        })
        .collect()
}

/// Splits `s` at the commas outside any string, array or object; `None` if
/// a bracket or string is left open. (A string holding an escaped quote
/// splits wrongly, but such a string never parses, so nothing does.)
fn split_top_level(s: &str) -> Option<Vec<&str>> {
    let (mut parts, mut start, mut depth, mut in_string) = (Vec::new(), 0, 0usize, false);
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_string = !in_string,
            _ if in_string => {}
            '[' | '{' => depth += 1,
            ']' | '}' => depth = depth.checked_sub(1)?,
            ',' if depth == 0 => {
                parts.push(s[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    if depth != 0 || in_string {
        return None;
    }
    parts.push(s[start..].trim());
    Some(parts)
}

/// Escapes `s` for the inside of a JSON string literal: `"`, `\` and the
/// control characters below U+0020 — everything JSON forbids raw there.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Arithmetic mean of an iterator of values (0 when empty). Used when
/// averaging a metric over the workloads of one category, as the paper does
/// for the `Avg_SCO` / `Avg_TRS` / `Avg_DSP` bars.
#[must_use]
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(instr: u64, cycles: u64) -> SimStats {
        SimStats {
            workload: "DS".to_owned(),
            scheduler: "FR-FCFS".to_owned(),
            page_policy: "open-adaptive".to_owned(),
            power_policy: "none".to_owned(),
            mapping: "RoRaBaCoCh".to_owned(),
            channels: 1,
            cores: 4,
            cpu_cycles: cycles,
            dram_cycles: cycles * 2 / 5,
            user_instructions: instr,
            instructions_per_core: vec![instr / 4; 4],
            memory_reads_sent: 100,
            memory_writes_sent: 40,
            reads_completed: 100,
            writes_completed: 40,
            avg_read_latency_dram: 80.0,
            avg_read_latency_ns: 100.0,
            row_buffer_hit_rate: 0.4,
            single_access_activation_fraction: 0.85,
            avg_read_queue_len: 2.0,
            avg_write_queue_len: 5.0,
            bandwidth_utilization: 0.3,
            l2_mpki: 5.0,
            activations_per_kilo_instr: 3.0,
            dram_energy_mj: 1.0,
            dram_background_energy_mj: 0.6,
            avg_dram_power_mw: 900.0,
            energy_per_request_nj: 7.0,
            power_down_fraction: 0.0,
            self_refresh_fraction: 0.0,
            power_down_entries: 0,
            power_wakes: 0,
            qos_policy: "none".to_owned(),
            tenants: 2,
            tenant_workloads: vec!["DS".to_owned(), "TPCH-Q6".to_owned()],
            tenant_cores: vec![2, 2],
            tenant_latency_critical: vec![true, false],
            instructions_per_tenant: vec![instr / 2, instr / 2],
            reads_completed_per_tenant: vec![60, 40],
            avg_read_latency_per_tenant: vec![70.0, 95.0],
            bandwidth_share_per_tenant: vec![0.6, 0.4],
            row_hit_rate_per_tenant: vec![0.5, 0.3],
            avg_read_queue_len_per_tenant: vec![1.0, 1.0],
            ecc_corrected: 3,
            ecc_detected_uncorrectable: 1,
            ecc_miscorrects: 0,
            demand_retries: 2,
            scrub_reads_issued: 50,
            scrub_reads_completed: 48,
            scrub_corrected: 4,
            scrub_uncorrectable: 0,
            rows_retired: 1,
            lines_poisoned: 1,
            poisoned_reads: 0,
            faults_injected: 9,
            faults_corrected: 7,
            faults_uncorrectable: 2,
            faults_latent: 0,
            rows_retired_per_rank: vec![1, 0],
            retired_capacity_bytes: 8192,
            read_latency_p50_dram: 72.0,
            read_latency_p95_dram: 180.0,
            read_latency_p99_dram: 240.0,
            read_latency_max_dram: 255,
        }
    }

    #[test]
    fn ipc_and_normalization() {
        let base = stats(4000, 1000);
        let other = stats(2000, 1000);
        assert!((base.user_ipc() - 4.0).abs() < 1e-9);
        assert!((other.normalized_ipc(&base) - 0.5).abs() < 1e-9);
        assert_eq!(other.avg_read_latency_dram, base.avg_read_latency_dram);
        assert_eq!(other.row_buffer_hit_rate, base.row_buffer_hit_rate);
    }

    #[test]
    fn fairness_detects_imbalance() {
        let mut s = stats(4000, 1000);
        assert!((s.ipc_fairness() - 1.0).abs() < 1e-9);
        s.instructions_per_core = vec![100, 1000, 1000, 1900];
        assert!(s.ipc_fairness() < 0.2);
    }

    #[test]
    fn zero_cycles_do_not_divide_by_zero() {
        let s = stats(0, 0);
        assert_eq!(s.user_ipc(), 0.0);
        assert_eq!(s.per_core_ipc(), vec![0.0; 4]);
    }

    #[test]
    fn mean_handles_empty_and_values() {
        assert_eq!(mean([]), 0.0);
        assert!((mean([1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    /// The fixture's full output, byte for byte: pins key order, separators
    /// and number rendering, which downstream `BENCH_*.json` parsers see.
    #[test]
    fn stats_serialize_to_json() {
        let golden = concat!(
            "{\"workload\":\"DS\",\"scheduler\":\"FR-FCFS\",\"page_policy\":\"open-adaptive\",",
            "\"mapping\":\"RoRaBaCoCh\",\"channels\":1,\"cores\":4,\"cpu_cycles\":10,",
            "\"dram_cycles\":4,\"user_instructions\":100,",
            "\"instructions_per_core\":[25,25,25,25],\"memory_reads_sent\":100,",
            "\"memory_writes_sent\":40,\"reads_completed\":100,\"writes_completed\":40,",
            "\"avg_read_latency_dram\":80,\"avg_read_latency_ns\":100,",
            "\"row_buffer_hit_rate\":0.4,\"single_access_activation_fraction\":0.85,",
            "\"avg_read_queue_len\":2,\"avg_write_queue_len\":5,",
            "\"bandwidth_utilization\":0.3,\"l2_mpki\":5,\"activations_per_kilo_instr\":3,",
            "\"dram_energy_mj\":1,\"power_policy\":\"none\",",
            "\"dram_background_energy_mj\":0.6,\"avg_dram_power_mw\":900,",
            "\"energy_per_request_nj\":7,\"power_down_fraction\":0,",
            "\"self_refresh_fraction\":0,\"power_down_entries\":0,\"power_wakes\":0,",
            "\"qos_policy\":\"none\",\"tenants\":2,\"tenant_workloads\":[\"DS\",\"TPCH-Q6\"],",
            "\"tenant_cores\":[2,2],\"tenant_latency_critical\":[true,false],",
            "\"instructions_per_tenant\":[50,50],\"reads_completed_per_tenant\":[60,40],",
            "\"avg_read_latency_per_tenant\":[70,95],",
            "\"bandwidth_share_per_tenant\":[0.6,0.4],",
            "\"row_hit_rate_per_tenant\":[0.5,0.3],",
            "\"avg_read_queue_len_per_tenant\":[1,1],\"ecc_corrected\":3,",
            "\"ecc_detected_uncorrectable\":1,\"ecc_miscorrects\":0,\"demand_retries\":2,",
            "\"scrub_reads_issued\":50,\"scrub_reads_completed\":48,\"scrub_corrected\":4,",
            "\"scrub_uncorrectable\":0,\"rows_retired\":1,\"lines_poisoned\":1,",
            "\"poisoned_reads\":0,\"faults_injected\":9,\"faults_corrected\":7,",
            "\"faults_uncorrectable\":2,\"faults_latent\":0,",
            "\"rows_retired_per_rank\":[1,0],\"retired_capacity_bytes\":8192,",
            "\"read_latency_p50_dram\":72,\"read_latency_p95_dram\":180,",
            "\"read_latency_p99_dram\":240,\"read_latency_max_dram\":255}",
        );
        assert_eq!(stats(100, 10).to_json(), golden);
    }

    /// `from_json` inverts `to_json` exactly, on the fixture (with an empty
    /// list) and on a real run's full-precision floats; anything else is
    /// `None`.
    #[test]
    fn from_json_inverts_to_json() {
        let mut s = stats(4000, 1000);
        s.rows_retired_per_rank.clear();
        assert_eq!(SimStats::from_json(&s.to_json()), Some(s.clone()));
        s.workload = "W\"S".to_owned();
        assert_eq!(SimStats::from_json(&s.to_json()), None);

        let mut cfg = crate::SystemConfig::baseline(cloudmc_workloads::Workload::TpchQ6);
        cfg.warmup_cpu_cycles = 2_000;
        cfg.measure_cpu_cycles = 10_000;
        let run = crate::Simulator::new(cfg).unwrap().try_run().unwrap();
        assert_eq!(SimStats::from_json(&run.to_json()).as_ref(), Some(&run));

        let json = run.to_json();
        let cores = format!("\"cores\":{}", run.cores);
        for bad in [
            "",
            "not json",
            &json[..json.len() - 1],
            &json[..json.len() / 2],
            &json.replacen("\"cores\":", "\"kernels\":", 1),
            &json.replacen(&cores, &format!("{cores}.5"), 1),
        ] {
            assert_eq!(SimStats::from_json(bad), None, "accepted {bad:?}");
        }
    }

    #[test]
    fn json_escape_leaves_no_raw_control_byte() {
        let escaped = json_escape("a\"b\\c\n\t\u{1}");
        assert_eq!(escaped, "a\\\"b\\\\c\\n\\t\\u0001");
        assert!(escaped.bytes().all(|b| b >= 0x20));
        assert_eq!(json_escape("TPCH-Q6 é"), "TPCH-Q6 é");
    }

    /// Top-level keys of a JSON object, in emission order: a string at
    /// nesting depth 1 that is followed by `:`.
    fn top_level_keys(json: &str) -> Vec<&str> {
        let bytes = json.as_bytes();
        let (mut keys, mut depth, mut i) = (Vec::new(), 0usize, 0usize);
        while i < bytes.len() {
            match bytes[i] {
                b'{' | b'[' => depth += 1,
                b'}' | b']' => depth -= 1,
                b'"' => {
                    let start = i + 1;
                    i = start;
                    while bytes[i] != b'"' {
                        i += if bytes[i] == b'\\' { 2 } else { 1 };
                    }
                    if depth == 1 && bytes.get(i + 1) == Some(&b':') {
                        keys.push(&json[start..i]);
                    }
                }
                _ => {}
            }
            i += 1;
        }
        keys
    }

    /// `stats_schema.txt` is the additive-only contract on the JSON keys
    /// downstream `BENCH_*.json` consumers parse; it must list exactly the
    /// keys `to_json` emits.
    #[test]
    fn json_keys_match_stats_schema_txt() {
        let json = stats(100, 10).to_json();
        let mut emitted = top_level_keys(&json);
        emitted.sort_unstable();
        let mut listed: Vec<&str> = include_str!("../../../stats_schema.txt")
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        listed.sort_unstable();
        let missing: Vec<_> = listed.iter().filter(|k| !emitted.contains(k)).collect();
        let unlisted: Vec<_> = emitted.iter().filter(|k| !listed.contains(k)).collect();
        assert!(
            emitted == listed,
            "SimStats::to_json and stats_schema.txt disagree.\n\
             listed but no longer emitted (a breaking removal/rename): {missing:?}\n\
             emitted but not listed (add them to stats_schema.txt): {unlisted:?}\n\
             the emitted keys, sorted, to paste below the header comment:\n{}",
            emitted.join("\n")
        );
    }

    #[test]
    fn tenant_ipc_partitions_the_aggregate() {
        let s = stats(4000, 1000);
        assert!((s.tenant_ipc(0) - 2.0).abs() < 1e-9);
        assert!((s.tenant_ipc(1) - 2.0).abs() < 1e-9);
        assert_eq!(s.tenant_ipc(7), 0.0);
        let sum: f64 = (0..s.tenants).map(|t| s.tenant_ipc(t)).sum();
        assert!((sum - s.user_ipc()).abs() < 1e-9);
    }
}
