//! Configuration of a complete memory controller.

use cloudmc_dram::{DramConfig, FaultConfig};

use crate::mapping::AddressMapping;
use crate::page::PagePolicyKind;
use crate::power::PowerPolicyKind;
use crate::qos::QosConfig;
use crate::sched::SchedulerKind;

/// Configuration of a complete memory controller (all channels).
///
/// Defaults reproduce the paper's baseline (Table 2): FR-FCFS scheduling,
/// open-adaptive page policy, no power management, one channel, `RoRaBaCoCh`
/// address mapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McConfig {
    /// DRAM organization and timing.
    pub dram: DramConfig,
    /// Address interleaving scheme.
    pub mapping: AddressMapping,
    /// Memory scheduling algorithm.
    pub scheduler: SchedulerKind,
    /// Page-management policy.
    pub page_policy: PagePolicyKind,
    /// Rank power-management policy.
    pub power_policy: PowerPolicyKind,
    /// Multi-tenant QoS policy and tenant metadata (tenancy disabled by
    /// default; the full-system simulator overwrites the tenant metadata
    /// from the workload mix, see [`QosConfig`]).
    pub qos: QosConfig,
    /// Number of cores sharing the controller. Matters only for a standalone
    /// controller: the full-system simulator overwrites it with the mix's
    /// core count.
    pub num_cores: usize,
    /// Per-channel read queue capacity.
    pub read_queue_capacity: usize,
    /// Per-channel write queue capacity.
    pub write_queue_capacity: usize,
    /// Write-queue occupancy at which the controller switches to write drain.
    pub write_drain_high: usize,
    /// Write-queue occupancy at which the controller resumes serving reads.
    pub write_drain_low: usize,
    /// Optional DRAM reliability model: seeded fault injection, SEC-DED ECC
    /// accounting, demand retries, patrol scrub and row retirement. `None`
    /// (the default) leaves the controller's behavior and statistics
    /// bit-identical to a controller built without the subsystem.
    pub fault_model: Option<FaultConfig>,
}

impl McConfig {
    /// Largest read or write queue capacity that validates. Each queue is
    /// allocated at its capacity when the controller is built, so the
    /// capacity must be bounded before anything is sized from it.
    pub const MAX_QUEUE_CAPACITY: usize = 4096;

    /// The paper's baseline configuration.
    #[must_use]
    pub fn baseline() -> Self {
        Self {
            dram: DramConfig::baseline(),
            mapping: AddressMapping::RoRaBaCoCh,
            scheduler: SchedulerKind::FrFcfs,
            page_policy: PagePolicyKind::OpenAdaptive,
            power_policy: PowerPolicyKind::None,
            qos: QosConfig::none(),
            num_cores: 16,
            read_queue_capacity: 64,
            write_queue_capacity: 64,
            write_drain_high: 32,
            write_drain_low: 8,
            fault_model: None,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        self.dram.validate()?;
        self.qos.validate()?;
        self.scheduler.validate()?;
        if self.num_cores == 0 {
            return Err("num_cores must be non-zero".to_owned());
        }
        if self.read_queue_capacity == 0 || self.write_queue_capacity == 0 {
            return Err("queue capacities must be non-zero".to_owned());
        }
        for (name, capacity) in [
            ("read_queue_capacity", self.read_queue_capacity),
            ("write_queue_capacity", self.write_queue_capacity),
        ] {
            if capacity > Self::MAX_QUEUE_CAPACITY {
                return Err(format!(
                    "{name} ({capacity}) exceeds {}",
                    Self::MAX_QUEUE_CAPACITY
                ));
            }
        }
        if self.write_drain_low >= self.write_drain_high {
            return Err(format!(
                "write_drain_low ({}) must be below write_drain_high ({})",
                self.write_drain_low, self.write_drain_high
            ));
        }
        if self.write_drain_high > self.write_queue_capacity {
            return Err(format!(
                "write_drain_high ({}) must not exceed write_queue_capacity ({})",
                self.write_drain_high, self.write_queue_capacity
            ));
        }
        if let Some(fault) = &self.fault_model {
            fault.validate(self.dram.banks_per_rank, self.dram.rows_per_bank)?;
        }
        Ok(())
    }
}

impl Default for McConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryController;

    #[test]
    fn config_validation_catches_bad_watermarks() {
        let mut cfg = McConfig::baseline();
        cfg.write_drain_low = cfg.write_drain_high;
        assert!(cfg.validate().is_err());
        cfg = McConfig::baseline();
        cfg.write_drain_high = cfg.write_queue_capacity + 1;
        assert!(cfg.validate().is_err());
        cfg = McConfig::baseline();
        cfg.num_cores = 0;
        assert!(MemoryController::new(cfg).is_err());
    }
}
