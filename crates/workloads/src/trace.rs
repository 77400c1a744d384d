//! Recording and replaying instruction streams.
//!
//! Traces make experiments exactly reproducible across machines and make it
//! possible to feed externally captured access streams (e.g. from a real
//! profiler) into the simulator. The subsystem is wired end to end:
//!
//! * **Capture** — `SystemConfig::trace_record` (in `cloudmc-sim`) taps every
//!   op a core consumes at the frontend and streams it through a
//!   [`TraceWriter`], so any synthetic or mixed-tenant run can be recorded.
//! * **Replay** — [`WorkloadSource::Trace`] swaps the synthetic generators
//!   for a [`TraceStream`], which feeds the recorded (or externally captured)
//!   per-core op streams back into the same cores, with full tenancy and
//!   event-horizon fast-forward support. Replaying a recorded run reproduces
//!   the original statistics bit for bit (enforced by
//!   `tests/trace_replay_equivalence.rs`).
//!
//! The format is a simple line-oriented text format, one record per line:
//!
//! ```text
//! <core> C <count>               # compute burst of <count> instructions
//! <core> L|S|I <addr> [<0|1>]    # load/store/ifetch, overlappable flag
//! ```
//!
//! Addresses are hexadecimal, with or without a `0x`/`0X` prefix. Blank
//! lines and lines starting with `#` are ignored; CRLF line endings are
//! accepted. Parse errors name the 1-based line number of the offending
//! line.

use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

use cloudmc_cpu::{CoreOp, MemOp, OpKind};

/// Where a run's per-core instruction streams come from.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum WorkloadSource {
    /// The synthetic statistical generators calibrated to the paper (the
    /// default).
    #[default]
    Synthetic,
    /// Replay of a trace file previously captured with
    /// `SystemConfig::trace_record` (or produced by an external tool in the
    /// same format). The run's tenancy/core layout still comes from the
    /// workload mix, which must match the recorded one for the replay to be
    /// meaningful.
    Trace(PathBuf),
}

/// One trace record: which core executed which instruction-stream slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Core index.
    pub core: usize,
    /// The instruction-stream slot.
    pub op: CoreOp,
}

/// Writes trace records to any [`Write`] sink.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    records: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer over `sink`.
    pub fn new(sink: W) -> Self {
        Self { sink, records: 0 }
    }

    /// Number of records written so far.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying sink.
    pub fn write(&mut self, record: &TraceRecord) -> io::Result<()> {
        match record.op {
            CoreOp::Compute(n) => writeln!(self.sink, "{} C {}", record.core, n)?,
            CoreOp::Mem(op) => {
                let kind = match op.kind {
                    OpKind::Load => 'L',
                    OpKind::Store => 'S',
                    OpKind::Ifetch => 'I',
                };
                writeln!(
                    self.sink,
                    "{} {} {:x} {}",
                    record.core,
                    kind,
                    op.addr,
                    u8::from(op.overlappable)
                )?;
            }
        }
        self.records += 1;
        Ok(())
    }

    /// Finishes writing: flushes the sink, then returns it.
    ///
    /// Dropping the writer without calling `finish` leaves tail records in
    /// any buffered sink (e.g. a [`std::io::BufWriter`]) to be flushed by
    /// `Drop`, which silently swallows write errors — always `finish` a
    /// trace you intend to keep.
    ///
    /// # Errors
    ///
    /// Propagates flush errors.
    pub fn finish(mut self) -> io::Result<W> {
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Reads trace records from any [`BufRead`] source.
#[derive(Debug)]
pub struct TraceReader<R: BufRead> {
    source: R,
    line: u64,
}

impl<R: BufRead> TraceReader<R> {
    /// Creates a reader over `source`.
    pub fn new(source: R) -> Self {
        Self { source, line: 0 }
    }

    /// 1-based line number of the last line consumed (0 before any read).
    #[must_use]
    pub fn line(&self) -> u64 {
        self.line
    }

    /// Reads the next record, or `None` at end of input.
    ///
    /// # Errors
    ///
    /// Returns an error for I/O failures or malformed lines (the error
    /// message includes the 1-based line number).
    pub fn read(&mut self) -> io::Result<Option<TraceRecord>> {
        let mut buf = String::new();
        loop {
            buf.clear();
            if self.source.read_line(&mut buf)? == 0 {
                return Ok(None);
            }
            self.line += 1;
            let trimmed = buf.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            return self.parse(trimmed).map(Some);
        }
    }

    fn parse(&self, line: &str) -> io::Result<TraceRecord> {
        let err = |msg: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("trace line {}: {msg}: `{line}`", self.line),
            )
        };
        let mut parts = line.split_whitespace();
        let core: usize = parts
            .next()
            .ok_or_else(|| err("missing core"))?
            .parse()
            .map_err(|_| err("bad core index"))?;
        let kind = parts.next().ok_or_else(|| err("missing kind"))?;
        let op = match kind {
            "C" => {
                let n: u32 = parts
                    .next()
                    .ok_or_else(|| err("missing compute count"))?
                    .parse()
                    .map_err(|_| err("bad compute count"))?;
                CoreOp::Compute(n)
            }
            "L" | "S" | "I" => {
                let digits = parts.next().ok_or_else(|| err("missing address"))?;
                // Externally captured traces commonly carry a 0x prefix.
                let digits = digits
                    .strip_prefix("0x")
                    .or_else(|| digits.strip_prefix("0X"))
                    .unwrap_or(digits);
                let addr = u64::from_str_radix(digits, 16).map_err(|_| err("bad address"))?;
                // The writer always emits the flag, so a memory record that
                // ends before it is a trace cut off mid-record (e.g. a
                // capture killed before `finish`) — report it instead of
                // silently replaying a guessed value.
                let overlappable = match parts.next() {
                    Some("1") => true,
                    Some("0") => false,
                    Some(_) => return Err(err("bad overlappable flag")),
                    None => return Err(err("truncated record: missing overlappable flag")),
                };
                let kind = match kind {
                    "L" => OpKind::Load,
                    "S" => OpKind::Store,
                    _ => OpKind::Ifetch,
                };
                CoreOp::Mem(MemOp {
                    kind,
                    addr,
                    overlappable,
                })
            }
            _ => return Err(err("unknown record kind")),
        };
        if parts.next().is_some() {
            return Err(err("trailing fields"));
        }
        Ok(TraceRecord { core, op })
    }

    /// Collects all remaining records.
    ///
    /// Convenient for tests and small traces; replay uses the streaming
    /// [`TraceStream`] instead, which holds only undelivered records in
    /// memory.
    ///
    /// # Errors
    ///
    /// Propagates the first read error.
    pub fn read_all(&mut self) -> io::Result<Vec<TraceRecord>> {
        let mut out = Vec::new();
        while let Some(record) = self.read()? {
            out.push(record);
        }
        Ok(out)
    }
}

/// A streaming per-core op supply over a trace — the replay-side counterpart
/// of [`crate::CoreStream`].
///
/// The stream is bound to a core count at attach time: every record's core
/// index is validated against that bound as it is read, so a trace captured
/// on (or hand-written for) a different topology fails with a clear error
/// instead of an out-of-bounds panic deep in the frontend.
///
/// Records are read from the source strictly in file order and buffered per
/// core only until the owning core consumes them, so memory stays bounded by
/// the consumption skew between cores (zero for traces captured by the
/// simulator itself, whose record order *is* the consumption order) — the
/// whole trace is never resident.
///
/// Once the trace is exhausted, every further request is answered with
/// [`TraceStream::EXHAUSTED_FILLER`], an effectively infinite compute burst
/// that parks the core without ever touching memory; replays that run longer
/// than the recording simply idle.
pub struct TraceStream {
    reader: Option<TraceReader<Box<dyn BufRead + Send>>>,
    /// Records read but not yet consumed, per core.
    pending: Vec<VecDeque<CoreOp>>,
    records_read: u64,
}

impl TraceStream {
    /// The op supplied for every request past the end of the trace: a
    /// compute burst long enough to out-last any realistic run, so a drained
    /// core idles (and fast-forwards) instead of starving the frontend.
    pub const EXHAUSTED_FILLER: CoreOp = CoreOp::Compute(u32::MAX);

    /// Attaches a trace `source` to a topology of `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    #[must_use]
    pub fn new<R: BufRead + Send + 'static>(source: R, cores: usize) -> Self {
        assert!(cores > 0, "a trace stream needs at least one core");
        Self {
            reader: Some(TraceReader::new(Box::new(source) as Box<dyn BufRead + Send>)),
            pending: (0..cores).map(|_| VecDeque::new()).collect(),
            records_read: 0,
        }
    }

    /// Opens the trace file at `path` for a topology of `cores` cores.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error, with the path named in the message.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn open(path: &Path, cores: usize) -> io::Result<Self> {
        #[expect(
            clippy::disallowed_methods,
            reason = "trace replay opens a caller-named file by design"
        )]
        let file = File::open(path).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("cannot open trace `{}`: {e}", path.display()),
            )
        })?;
        Ok(Self::new(BufReader::new(file), cores))
    }

    /// Number of cores the stream is bound to.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.pending.len()
    }

    /// Records read off the trace so far.
    #[must_use]
    pub fn records_read(&self) -> u64 {
        self.records_read
    }

    /// Whether the underlying trace has been read to its end.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.reader.is_none()
    }

    /// Supplies the next op of `core`, reading ahead through the trace (and
    /// buffering other cores' records) as needed. Returns
    /// [`TraceStream::EXHAUSTED_FILLER`] once `core`'s records are used up
    /// and the trace has ended.
    ///
    /// # Errors
    ///
    /// Returns I/O or parse errors from the trace, and an
    /// [`io::ErrorKind::InvalidData`] error naming the offending line if a
    /// record's core index is outside the bound core count. Any error
    /// poisons the stream: buffered records are discarded and every
    /// subsequent request (from any core) gets the exhaustion filler, so a
    /// broken trace can never be half-consumed.
    ///
    /// # Panics
    ///
    /// Panics if `core` itself is outside the bound core count (a caller
    /// bug, not a trace defect).
    pub fn next_op(&mut self, core: usize) -> io::Result<CoreOp> {
        assert!(
            core < self.pending.len(),
            "core {core} outside the stream's {} bound cores",
            self.pending.len()
        );
        if let Some(op) = self.pending[core].pop_front() {
            return Ok(op);
        }
        loop {
            let Some(reader) = self.reader.as_mut() else {
                return Ok(Self::EXHAUSTED_FILLER);
            };
            match reader.read() {
                Err(e) => {
                    self.poison();
                    return Err(e);
                }
                Ok(None) => {
                    self.reader = None;
                    return Ok(Self::EXHAUSTED_FILLER);
                }
                Ok(Some(record)) => {
                    if record.core >= self.pending.len() {
                        let line = reader.line();
                        let cores = self.pending.len();
                        self.poison();
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "trace line {line}: core {} out of range ({cores} cores bound)",
                                record.core,
                            ),
                        ));
                    }
                    self.records_read += 1;
                    if record.core == core {
                        return Ok(record.op);
                    }
                    self.pending[record.core].push_back(record.op);
                }
            }
        }
    }

    /// Drops the reader and all buffered records: every further request is
    /// answered with the exhaustion filler.
    fn poison(&mut self) {
        self.reader = None;
        for queue in &mut self.pending {
            queue.clear();
        }
    }
}

impl fmt::Debug for TraceStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceStream")
            .field("cores", &self.pending.len())
            .field("records_read", &self.records_read)
            .field("exhausted", &self.is_exhausted())
            .field(
                "pending",
                &self.pending.iter().map(VecDeque::len).collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{CoreStream, WorkloadStreams};
    use crate::mix::{MixSpec, TenantSpec};
    use crate::spec::Workload;

    #[test]
    fn round_trip_preserves_records() {
        let mut stream = CoreStream::new(Workload::TpcC1.spec(), 0, 17);
        let records: Vec<TraceRecord> = (0..500)
            .map(|_| TraceRecord {
                core: 0,
                op: stream.next_op(),
            })
            .collect();
        let mut writer = TraceWriter::new(Vec::new());
        for r in &records {
            writer.write(r).unwrap();
        }
        assert_eq!(writer.records(), 500);
        let bytes = writer.finish().unwrap();
        let mut reader = TraceReader::new(bytes.as_slice());
        let back = reader.read_all().unwrap();
        assert_eq!(back, records);
    }

    /// Every workload's generated stream survives the text round trip
    /// losslessly, as does a 4-tenant mix interleaving all of its cores.
    #[test]
    fn round_trip_property_across_workloads_and_mixes() {
        for w in Workload::all() {
            let mut stream = CoreStream::new(w.spec(), 0, 23);
            let records: Vec<TraceRecord> = (0..400)
                .map(|_| TraceRecord {
                    core: 0,
                    op: stream.next_op(),
                })
                .collect();
            let mut writer = TraceWriter::new(Vec::new());
            for r in &records {
                writer.write(r).unwrap();
            }
            let bytes = writer.finish().unwrap();
            let back = TraceReader::new(bytes.as_slice()).read_all().unwrap();
            assert_eq!(back, records, "{w}: trace round trip must be lossless");
        }
        // A 4-tenant mix: interleave ops from every core round-robin, the
        // way the frontend consumes them.
        let mix = MixSpec::new(TenantSpec::latency_critical(Workload::WebSearch, 2))
            .and(TenantSpec::batch(Workload::TpchQ6, 2))
            .and(TenantSpec::batch(Workload::TpcC1, 2))
            .and(TenantSpec::batch(Workload::MapReduce, 2));
        let mut streams = WorkloadStreams::from_mix(mix, 31);
        let cores = streams.cores();
        let mut records = Vec::new();
        for round in 0..200 {
            for core in 0..cores {
                let _ = round;
                records.push(TraceRecord {
                    core,
                    op: streams.stream_mut(core).next_op(),
                });
            }
        }
        let mut writer = TraceWriter::new(Vec::new());
        for r in &records {
            writer.write(r).unwrap();
        }
        let bytes = writer.finish().unwrap();
        let back = TraceReader::new(bytes.as_slice()).read_all().unwrap();
        assert_eq!(back, records, "4-tenant mix trace must round trip");
        // And the streaming replay path hands every core its own sequence
        // in order.
        let mut replay = TraceStream::new(std::io::Cursor::new(bytes), cores);
        for round in 0..200 {
            for core in 0..cores {
                let expected = records[round * cores + core].op;
                assert_eq!(replay.next_op(core).unwrap(), expected);
            }
        }
        assert_eq!(replay.records_read(), records.len() as u64);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# a comment\n\n0 C 10\n1 L 4f00 1\n";
        let mut reader = TraceReader::new(text.as_bytes());
        let records = reader.read_all().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].op, CoreOp::Compute(10));
        assert_eq!(
            records[1].op,
            CoreOp::Mem(MemOp {
                kind: OpKind::Load,
                addr: 0x4f00,
                overlappable: true
            })
        );
        assert_eq!(records[1].core, 1);
        assert_eq!(reader.line(), 4);
    }

    #[test]
    fn crlf_lines_and_prefixed_addresses_parse() {
        let text = "# captured externally\r\n0 L 0x4f00 1\r\n1 S 0XABC0 0\r\n\r\n2 C 7\r\n";
        let records = TraceReader::new(text.as_bytes()).read_all().unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(
            records[0].op,
            CoreOp::Mem(MemOp {
                kind: OpKind::Load,
                addr: 0x4f00,
                overlappable: true
            })
        );
        assert_eq!(
            records[1].op,
            CoreOp::Mem(MemOp {
                kind: OpKind::Store,
                addr: 0xabc0,
                overlappable: false
            })
        );
        assert_eq!(records[2].op, CoreOp::Compute(7));
    }

    #[test]
    fn malformed_lines_report_line_numbers() {
        let cases = [
            "0 X 1234 0",     // bad kind
            "0 L zz 0",       // bad address
            "0 L 0x 0",       // prefix with no digits
            "0 C",            // missing compute count
            "0 C ten",        // bad compute count
            "notanumber C 5", // bad core index
            "0 L 10 2",       // bad overlappable flag
            "0 L 10",         // truncated mid-record: flag missing
            "0 S abc0",       // truncated store, same
            "0 L 10 1 extra", // trailing fields
            "0",              // missing kind
        ];
        for case in cases {
            let mut reader = TraceReader::new(case.as_bytes());
            let e = reader.read().unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "case `{case}`");
            assert!(e.to_string().contains("line 1"), "case `{case}`: {e}");
        }
    }

    /// Errors after skipped blank/comment/CRLF lines still name the actual
    /// 1-based file line of the offending record.
    #[test]
    fn line_numbers_count_skipped_lines() {
        let text = "# header\n\n0 C 5\r\n# more\n0 L zz 0\n";
        let mut reader = TraceReader::new(text.as_bytes());
        assert!(reader.read().unwrap().is_some()); // line 3
        let e = reader.read().unwrap_err();
        assert!(e.to_string().contains("line 5"), "{e}");
    }

    #[test]
    fn store_and_ifetch_kinds_round_trip() {
        let records = vec![
            TraceRecord {
                core: 3,
                op: CoreOp::Mem(MemOp {
                    kind: OpKind::Store,
                    addr: 0xabc0,
                    overlappable: false,
                }),
            },
            TraceRecord {
                core: 4,
                op: CoreOp::Mem(MemOp {
                    kind: OpKind::Ifetch,
                    addr: 0x2000_0040,
                    overlappable: false,
                }),
            },
        ];
        let mut w = TraceWriter::new(Vec::new());
        for r in &records {
            w.write(r).unwrap();
        }
        let bytes = w.finish().unwrap();
        let back = TraceReader::new(bytes.as_slice()).read_all().unwrap();
        assert_eq!(back, records);
    }

    /// Regression: `finish` must flush buffered sinks so tail records are
    /// never left to `Drop` (which swallows errors).
    #[test]
    fn finish_flushes_buffered_sinks() {
        use std::io::BufWriter;
        // A sink that counts the bytes actually delivered to it.
        #[derive(Debug, Default)]
        struct Counting(Vec<u8>);
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        // A buffer far larger than the records, so nothing reaches the
        // underlying sink until a flush happens.
        let mut writer = TraceWriter::new(BufWriter::with_capacity(1 << 20, Counting::default()));
        for i in 0..100u64 {
            writer
                .write(&TraceRecord {
                    core: 0,
                    op: CoreOp::Compute(i as u32 + 1),
                })
                .unwrap();
        }
        let sink = writer.finish().unwrap();
        let inner = sink.into_inner().unwrap().0;
        let text = String::from_utf8(inner).unwrap();
        assert_eq!(
            text.lines().count(),
            100,
            "all tail records must be flushed"
        );
    }

    /// Regression: flush errors surface through `finish` instead of being
    /// swallowed.
    #[test]
    fn finish_propagates_flush_errors() {
        #[derive(Debug)]
        struct FailingFlush;
        impl Write for FailingFlush {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Err(io::Error::other("disk full"))
            }
        }
        let mut writer = TraceWriter::new(FailingFlush);
        writer
            .write(&TraceRecord {
                core: 0,
                op: CoreOp::Compute(1),
            })
            .unwrap();
        let e = writer.finish().unwrap_err();
        assert!(e.to_string().contains("disk full"));
    }

    #[test]
    fn trace_stream_validates_core_bound_and_reports_line() {
        let text = "0 C 5\n7 L 4f00 1\n";
        let mut stream = TraceStream::new(text.as_bytes(), 4);
        assert_eq!(stream.next_op(0).unwrap(), CoreOp::Compute(5));
        let e = stream.next_op(0).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        let msg = e.to_string();
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("core 7"), "{msg}");
        assert!(msg.contains("4 cores"), "{msg}");
    }

    /// An error poisons the stream: buffered records are discarded and every
    /// later request — any core — gets the exhaustion filler, never `Err`
    /// again and never a half-consumed record.
    #[test]
    fn trace_stream_errors_poison_the_stream() {
        let text = "1 C 2\n0 L zz 0\n1 C 3\n";
        let mut stream = TraceStream::new(text.as_bytes(), 2);
        // Core 0's first request buffers core 1's record, then hits the
        // malformed line.
        assert!(stream.next_op(0).is_err());
        assert!(stream.is_exhausted());
        assert_eq!(stream.next_op(0).unwrap(), TraceStream::EXHAUSTED_FILLER);
        assert_eq!(
            stream.next_op(1).unwrap(),
            TraceStream::EXHAUSTED_FILLER,
            "buffered records must not survive a poisoning error"
        );
    }

    #[test]
    fn trace_stream_buffers_out_of_order_cores_and_fills_after_eof() {
        let text = "1 C 2\n1 C 3\n0 C 4\n";
        let mut stream = TraceStream::new(text.as_bytes(), 2);
        // Core 0 asks first: core 1's records are buffered while scanning.
        assert_eq!(stream.next_op(0).unwrap(), CoreOp::Compute(4));
        assert_eq!(stream.next_op(1).unwrap(), CoreOp::Compute(2));
        assert_eq!(stream.next_op(1).unwrap(), CoreOp::Compute(3));
        assert_eq!(stream.records_read(), 3);
        // Trace drained: both cores idle on the filler burst.
        assert_eq!(stream.next_op(1).unwrap(), TraceStream::EXHAUSTED_FILLER);
        assert!(stream.is_exhausted());
        assert_eq!(stream.next_op(0).unwrap(), TraceStream::EXHAUSTED_FILLER);
    }

    #[test]
    fn workload_source_defaults_to_synthetic() {
        assert_eq!(WorkloadSource::default(), WorkloadSource::Synthetic);
        let trace = WorkloadSource::Trace(PathBuf::from("/tmp/x.trace"));
        assert_ne!(trace, WorkloadSource::Synthetic);
    }
}
