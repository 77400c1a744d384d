//! Sampled request-lifecycle spans.

use crate::jsonl;

/// Direction of a traced request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanAccess {
    /// A demand or DMA read.
    Read,
    /// A write-back or DMA write.
    Write,
}

impl SpanAccess {
    /// Stable lowercase name used in the JSON encoding.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Read => "read",
            Self::Write => "write",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        match s {
            "read" => Some(Self::Read),
            "write" => Some(Self::Write),
            _ => None,
        }
    }
}

/// Row-buffer outcome of the service that completed a traced request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanOutcome {
    /// The target row was already open.
    Hit,
    /// The bank was idle; only an ACTIVATE was needed.
    Miss,
    /// A different row was open; PRECHARGE then ACTIVATE were needed.
    Conflict,
}

impl SpanOutcome {
    /// Stable lowercase name used in the JSON encoding.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Hit => "hit",
            Self::Miss => "miss",
            Self::Conflict => "conflict",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        match s {
            "hit" => Some(Self::Hit),
            "miss" => Some(Self::Miss),
            "conflict" => Some(Self::Conflict),
            _ => None,
        }
    }
}

/// One sampled request lifecycle: enqueue → first issue of the completing
/// service → row outcome → completion, with tenant/channel/retry tags.
///
/// All cycle fields are DRAM cycles. `issue` is the cycle the column command
/// of the *completing* service issued; for a request that needed ECC retries
/// it belongs to the final (successful) attempt, with the attempt count in
/// [`retries`](Self::retries).
///
/// Serialized as one compact JSON object per line via
/// [`to_jsonl`](Self::to_jsonl).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Simulation-unique request id (ids are minted in arrival order).
    pub id: u64,
    /// Read or write.
    pub access: SpanAccess,
    /// Requesting core (or DMA pseudo-core).
    pub core: usize,
    /// Tenant the request is attributed to.
    pub tenant: usize,
    /// Memory channel that served the request (the controller's channel
    /// index under the configured address mapping).
    pub channel: usize,
    /// Cycle the request entered the controller queues.
    pub enqueue: u64,
    /// Cycle the completing service's column command issued.
    pub issue: u64,
    /// Cycle the data transfer finished.
    pub completion: u64,
    /// Row-buffer outcome of the completing service.
    pub outcome: SpanOutcome,
    /// ECC retry attempts before the completing service (0 for clean reads
    /// and all writes).
    pub retries: u32,
}

impl SpanRecord {
    /// End-to-end latency in DRAM cycles (enqueue to completion).
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.completion.saturating_sub(self.enqueue)
    }

    /// Cycles spent queued before the completing service issued.
    #[must_use]
    pub fn queue_delay(&self) -> u64 {
        self.issue.saturating_sub(self.enqueue)
    }

    /// Encodes the span as one compact JSON line (no trailing newline).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        format!(
            concat!(
                "{{\"id\":{},\"kind\":\"{}\",\"core\":{},\"tenant\":{},",
                "\"channel\":{},\"enqueue\":{},\"issue\":{},\"completion\":{},",
                "\"outcome\":\"{}\",\"retries\":{}}}"
            ),
            self.id,
            self.access.as_str(),
            self.core,
            self.tenant,
            self.channel,
            self.enqueue,
            self.issue,
            self.completion,
            self.outcome.as_str(),
            self.retries,
        )
    }

    /// Parses a line produced by [`to_jsonl`](Self::to_jsonl); `None` when
    /// any field is missing or malformed.
    #[must_use]
    pub fn from_jsonl(line: &str) -> Option<Self> {
        Some(Self {
            id: jsonl::field_u64(line, "id")?,
            access: SpanAccess::from_str(jsonl::field_str(line, "kind")?)?,
            core: jsonl::field_u64(line, "core")? as usize,
            tenant: jsonl::field_u64(line, "tenant")? as usize,
            channel: jsonl::field_u64(line, "channel")? as usize,
            enqueue: jsonl::field_u64(line, "enqueue")?,
            issue: jsonl::field_u64(line, "issue")?,
            completion: jsonl::field_u64(line, "completion")?,
            outcome: SpanOutcome::from_str(jsonl::field_str(line, "outcome")?)?,
            retries: jsonl::field_u64(line, "retries")? as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span() -> SpanRecord {
        SpanRecord {
            id: 4096,
            access: SpanAccess::Read,
            core: 3,
            tenant: 1,
            channel: 5,
            enqueue: 1000,
            issue: 1022,
            completion: 1037,
            outcome: SpanOutcome::Conflict,
            retries: 2,
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let s = span();
        assert_eq!(SpanRecord::from_jsonl(&s.to_jsonl()), Some(s));
    }

    #[test]
    fn derived_delays() {
        let s = span();
        assert_eq!(s.latency(), 37);
        assert_eq!(s.queue_delay(), 22);
    }

    #[test]
    fn bad_outcome_or_kind_is_none() {
        let line = span().to_jsonl().replace("conflict", "explosion");
        assert_eq!(SpanRecord::from_jsonl(&line), None);
        let line = span().to_jsonl().replace("\"read\"", "\"scan\"");
        assert_eq!(SpanRecord::from_jsonl(&line), None);
    }
}
