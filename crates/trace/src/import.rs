//! Importing `blkparse` text output as a [`Trace`].
//!
//! `blktrace` is the Linux block-layer tracer; `blkparse` renders its
//! binary event stream one event per line:
//!
//! ```text
//! 8,0    1      203     0.013088281  1234  Q  WS 7864447 + 8 [postgres]
//! ```
//!
//! columns: device `major,minor`, CPU, sequence, timestamp (seconds),
//! PID, action, RWBS flags, start sector, `+`, length in sectors, and
//! optionally the process name. [`import_blkparse`] turns that text
//! into a trace:
//!
//! - only lines whose action matches [`ImportOptions::action`] are kept
//!   (default `Q`, the *queued* event — the offered load, which is what
//!   open-loop replay wants);
//! - the `major,minor` pair is densely renumbered (first appearance →
//!   device 0, next distinct pair → 1, …) so the trace addresses the
//!   stack-level device space;
//! - the **CPU column becomes the stream tag**, offset by one (CPU *k*
//!   → stream *k + 1*) because stream 0 is reserved for "source did not
//!   distinguish streams" — a single-CPU trace still names one real
//!   stream; a CPU number with no stream left to map to is a line error;
//! - RWBS flags classify direction (`W` → write, else `R`/`A` → read);
//!   flag-only events (flush/barrier) are skipped;
//! - the result is normalized: sorted by `(arrival, stream)` and
//!   rebased so the first kept event arrives at time zero.
//!
//! Non-event lines (the per-CPU and total summary blocks `blkparse`
//! appends, blank lines) are skipped by shape: an event line starts
//! with a `major,minor` token. A line that starts like an event but
//! cannot be parsed is an error naming the line, not a silent skip.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::io::BufRead;

use trail_sim::{FastMap, FastSet, SimTime};
use trail_telemetry::StreamId;

use crate::codec::RecordSink;
use crate::format::{ChunkEncoding, Trace, TraceMeta, TraceOp, TraceRecord};

/// Default bounded-reorder window (records held back to re-sort nearly
/// sorted input) for [`import_blkparse_into`] when the caller passes 0.
pub const DEFAULT_REORDER_WINDOW: usize = 1 << 16;

/// How to interpret `blkparse` text.
#[derive(Clone, Copy, Debug)]
pub struct ImportOptions {
    /// Which trace action to keep (`'Q'` queued, `'D'` dispatched,
    /// `'C'` completed, …). One event per request: pick the lifecycle
    /// point you want to replay.
    pub action: char,
}

impl Default for ImportOptions {
    /// Keep `Q` (queue-insertion) events — the offered load.
    fn default() -> Self {
        ImportOptions { action: 'Q' }
    }
}

/// Why an import failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ImportError {
    /// An event-shaped line could not be parsed.
    Line {
        /// One-based line number in the input.
        number: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// No event matched the options (wrong action letter, or not
    /// `blkparse` output at all).
    NoRecords,
    /// The input's timestamp disorder exceeded the bounded reorder
    /// window, so a streaming import could not reproduce the fully
    /// sorted trace.
    OutOfOrder {
        /// The window that was in effect.
        window: usize,
    },
    /// Reading the input or writing the trace failed.
    Io(String),
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::Line { number, reason } => {
                write!(f, "blkparse line {number}: {reason}")
            }
            ImportError::NoRecords => write!(f, "no matching events in blkparse input"),
            ImportError::OutOfOrder { window } => write!(
                f,
                "input disorder exceeds the reorder window of {window} records; \
                 raise the window"
            ),
            ImportError::Io(why) => write!(f, "blkparse import io error: {why}"),
        }
    }
}

impl std::error::Error for ImportError {}

/// `true` when `token` has the `major,minor` shape that opens an event
/// line.
fn is_dev_token(token: &str) -> bool {
    match token.split_once(',') {
        Some((maj, min)) => {
            !maj.is_empty()
                && !min.is_empty()
                && maj.bytes().all(|b| b.is_ascii_digit())
                && min.bytes().all(|b| b.is_ascii_digit())
        }
        None => false,
    }
}

/// One kept `blkparse` event, before device renumbering and rebasing.
struct Event {
    dev_key: (u32, u32),
    stream: StreamId,
    at_ns: u64,
    op: TraceOp,
    lba: u64,
    sectors: u32,
}

/// Parses one `blkparse` line. `Ok(None)` means the line was skipped
/// (summary/blank, another lifecycle action, or a data-less event);
/// both import passes share this so they classify identically.
fn parse_event(number: usize, line: &str, action: char) -> Result<Option<Event>, ImportError> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    match fields.first() {
        Some(first) if is_dev_token(first) => {}
        _ => return Ok(None), // summary block, header, or blank line
    }
    let bad = |reason: String| ImportError::Line { number, reason };
    if fields.len() < 9 {
        return Err(bad(format!(
            "expected at least 9 columns, found {}",
            fields.len()
        )));
    }
    let (maj, min) = fields[0].split_once(',').expect("dev token shape");
    let maj: u32 = maj.parse().map_err(|_| bad("bad major number".into()))?;
    let min: u32 = min.parse().map_err(|_| bad("bad minor number".into()))?;
    let stream = fields[1]
        .parse::<u32>()
        .ok()
        .and_then(|cpu| cpu.checked_add(1))
        .map(StreamId)
        .ok_or_else(|| bad(format!("bad CPU column {:?}", fields[1])))?;
    let seconds: f64 = fields[3]
        .parse()
        .map_err(|_| bad(format!("bad timestamp {:?}", fields[3])))?;
    if !seconds.is_finite() || seconds < 0.0 {
        return Err(bad(format!("bad timestamp {seconds}")));
    }
    let event_action = fields[5];
    // Multi-character actions (e.g. "UT") and non-matching single
    // ones are other lifecycle events of the same request; skip.
    if event_action.len() != 1 || !event_action.starts_with(action) {
        return Ok(None);
    }
    let rwbs = fields[6];
    let op = if rwbs.contains('W') {
        TraceOp::Write
    } else if rwbs.contains('R') || rwbs.contains('A') {
        TraceOp::Read
    } else {
        return Ok(None); // flush/barrier/discard-only event
    };
    let lba: u64 = fields[7]
        .parse()
        .map_err(|_| bad(format!("bad sector {:?}", fields[7])))?;
    if fields[8] != "+" {
        return Err(bad(format!("expected '+', found {:?}", fields[8])));
    }
    let sectors: u32 = fields
        .get(9)
        .ok_or_else(|| bad("missing sector count".into()))?
        .parse()
        .map_err(|_| bad(format!("bad sector count {:?}", fields[9])))?;
    if sectors == 0 {
        return Ok(None); // zero-length marker event
    }
    Ok(Some(Event {
        dev_key: (maj, min),
        stream,
        at_ns: (seconds * 1e9).round() as u64,
        op,
        lba,
        sectors,
    }))
}

/// Parses `blkparse` one-line-per-event text into a trace; see the
/// module docs for the column mapping.
///
/// # Errors
///
/// [`ImportError::Line`] for a malformed event line,
/// [`ImportError::NoRecords`] when nothing matched.
pub fn import_blkparse(text: &str, opts: &ImportOptions) -> Result<Trace, ImportError> {
    let mut dev_index: FastMap<(u32, u32), u16> = FastMap::default();
    let mut records = Vec::new();
    for (number, line) in text.lines().enumerate() {
        let Some(ev) = parse_event(number + 1, line, opts.action)? else {
            continue;
        };
        let dev = match dev_index.get(&ev.dev_key) {
            Some(&dev) => dev,
            None => {
                let dev = next_device(dev_index.len(), number + 1)?;
                dev_index.insert(ev.dev_key, dev);
                dev
            }
        };
        records.push(TraceRecord {
            at: SimTime::from_nanos(ev.at_ns),
            op: ev.op,
            dev,
            lba: ev.lba,
            sectors: ev.sectors,
            stream: ev.stream,
        });
    }
    if records.is_empty() {
        return Err(ImportError::NoRecords);
    }
    let devices = dev_index.len() as u16;
    let mut trace = Trace {
        meta: import_meta(devices, opts.action, 0),
        records,
    };
    trace.normalize();
    Ok(trace)
}

/// The dense index for the next distinct device after `seen` of them, or
/// a line error once the trace header's `u16` device count is exhausted.
fn next_device(seen: usize, number: usize) -> Result<u16, ImportError> {
    u16::try_from(seen)
        .ok()
        .filter(|&index| index < u16::MAX)
        .ok_or_else(|| ImportError::Line {
            number,
            reason: format!("more than {} distinct devices", u16::MAX),
        })
}

fn import_meta(devices: u16, action: char, chunk_records: u32) -> TraceMeta {
    TraceMeta {
        source: "import:blkparse".to_string(),
        seed: 0,
        devices,
        note: format!("action '{action}'"),
        chunk_records,
        encoding: ChunkEncoding::Raw,
    }
}

/// What a first streaming pass over `blkparse` input learned: the
/// record count, the epoch (earliest kept arrival, which rebases to
/// time zero), and the distinct `major,minor` devices in first-input
/// appearance order (which fixes the dense renumbering). Feed it to
/// [`import_blkparse_into`] for the second, writing pass.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BlkparseScan {
    /// Kept events.
    pub records: u64,
    /// Earliest kept arrival, in nanoseconds.
    pub epoch_ns: u64,
    /// Distinct `(major, minor)` pairs, first appearance first; the
    /// position is the stack-level device index.
    pub devices: Vec<(u32, u32)>,
}

/// First pass of a streaming import: scans `blkparse` lines from any
/// [`BufRead`] and collects the [`BlkparseScan`] the writing pass
/// needs, holding no records.
///
/// # Errors
///
/// [`ImportError::Line`] for a malformed event line,
/// [`ImportError::NoRecords`] when nothing matched,
/// [`ImportError::Io`] when the reader fails.
pub fn scan_blkparse<R: BufRead>(
    input: R,
    opts: &ImportOptions,
) -> Result<BlkparseScan, ImportError> {
    let mut scan = BlkparseScan {
        records: 0,
        epoch_ns: u64::MAX,
        devices: Vec::new(),
    };
    let mut seen = FastSet::default();
    for (number, line) in input.lines().enumerate() {
        let line = line.map_err(|e| ImportError::Io(e.to_string()))?;
        let Some(ev) = parse_event(number + 1, &line, opts.action)? else {
            continue;
        };
        scan.records += 1;
        scan.epoch_ns = scan.epoch_ns.min(ev.at_ns);
        if seen.insert(ev.dev_key) {
            next_device(scan.devices.len(), number + 1)?;
            scan.devices.push(ev.dev_key);
        }
    }
    if scan.records == 0 {
        return Err(ImportError::NoRecords);
    }
    Ok(scan)
}

/// A record waiting in the bounded reorder heap, ordered by
/// `(arrival, stream, input sequence)` — exactly the key the in-memory
/// path's stable `(arrival, stream)` sort realizes.
struct PendingRecord {
    key: (SimTime, StreamId, u64),
    record: TraceRecord,
}

impl PartialEq for PendingRecord {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for PendingRecord {}
impl PartialOrd for PendingRecord {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingRecord {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest out.
        other.key.cmp(&self.key)
    }
}

impl BlkparseScan {
    /// The imported trace's metadata — what a sink for
    /// [`import_blkparse_into`] is created with.
    ///
    /// # Errors
    ///
    /// [`ImportError::Line`] when the scan names more devices than the
    /// header can count (a scan from [`scan_blkparse`] never does; one
    /// built by hand may).
    pub fn meta(&self, opts: &ImportOptions) -> Result<TraceMeta, ImportError> {
        Ok(import_meta(self.device_count()?, opts.action, 0))
    }

    fn device_count(&self) -> Result<u16, ImportError> {
        u16::try_from(self.devices.len()).map_err(|_| ImportError::Line {
            number: 0,
            reason: format!("the scan names more than {} devices", u16::MAX),
        })
    }
}

/// Second pass of a streaming import: re-reads the `blkparse` input and
/// writes the normalized trace's records into `sink` (created with
/// [`BlkparseScan::meta`]; finishing it is the caller's), re-sorting
/// nearly sorted input through a bounded reorder heap of
/// `reorder_window` records (0 = [`DEFAULT_REORDER_WINDOW`]). Memory is
/// O(window) regardless of input size, and the records are exactly
/// [`import_blkparse`]'s whenever the input's timestamp disorder fits
/// the window.
///
/// # Errors
///
/// Everything [`scan_blkparse`] can return, plus
/// [`ImportError::OutOfOrder`] when the input is more disordered than
/// the window and [`ImportError::Io`] for reader/sink failures.
pub fn import_blkparse_into<R: BufRead, S: RecordSink + ?Sized>(
    input: R,
    opts: &ImportOptions,
    scan: &BlkparseScan,
    reorder_window: usize,
    sink: &mut S,
) -> Result<(), ImportError> {
    let window = if reorder_window == 0 {
        DEFAULT_REORDER_WINDOW
    } else {
        reorder_window
    };
    let dev_index: FastMap<(u32, u32), u16> = scan
        .devices
        .iter()
        .copied()
        .zip(0..scan.device_count()?)
        .collect();
    let mut heap: BinaryHeap<PendingRecord> = BinaryHeap::with_capacity(window + 1);
    let mut last_key: Option<(SimTime, StreamId, u64)> = None;
    let mut seq: u64 = 0;
    let mut emit = |p: PendingRecord, sink: &mut S| -> Result<(), ImportError> {
        if last_key.is_some_and(|last| p.key < last) {
            return Err(ImportError::OutOfOrder { window });
        }
        last_key = Some(p.key);
        sink.write_record(&p.record)
            .map_err(|e| ImportError::Io(e.to_string()))
    };
    for (number, line) in input.lines().enumerate() {
        let line = line.map_err(|e| ImportError::Io(e.to_string()))?;
        let Some(ev) = parse_event(number + 1, &line, opts.action)? else {
            continue;
        };
        let dev = *dev_index
            .get(&ev.dev_key)
            .ok_or_else(|| ImportError::Line {
                number: number + 1,
                reason: "device not seen by the scan pass".to_string(),
            })?;
        let record = TraceRecord {
            at: SimTime::from_nanos(ev.at_ns.saturating_sub(scan.epoch_ns)),
            op: ev.op,
            dev,
            lba: ev.lba,
            sectors: ev.sectors,
            stream: ev.stream,
        };
        heap.push(PendingRecord {
            key: (record.at, record.stream, seq),
            record,
        });
        seq += 1;
        if heap.len() > window {
            let p = heap.pop().expect("heap is non-empty");
            emit(p, &mut *sink)?;
        }
    }
    while let Some(p) = heap.pop() {
        emit(p, &mut *sink)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::TraceWriter;
    use trail_sim::SimDuration;

    /// The streaming import of `text` as binary trace bytes.
    fn import_bytes(
        text: &str,
        opts: &ImportOptions,
        scan: &BlkparseScan,
        reorder_window: usize,
    ) -> Result<Vec<u8>, ImportError> {
        let mut w = TraceWriter::new(Vec::new(), &scan.meta(opts)?).expect("Vec writes");
        import_blkparse_into(text.as_bytes(), opts, scan, reorder_window, &mut w)?;
        Ok(w.finish().expect("Vec writes"))
    }

    const SAMPLE: &str = "\
8,0    0        1     0.000000000  4162  Q  WS 7864447 + 8 [fio]
8,0    0        2     0.000001000  4162  G  WS 7864447 + 8 [fio]
8,0    1        3     0.000501000  4163  Q   R 1048576 + 32 [fio]
8,16   0        4     0.001000000  4162  Q   W 2048 + 16 [fio]
8,0    1        5     0.001200000  4163  C   R 1048576 + 32 [0]
CPU0 (sda):
 Reads Queued:           0,        0KiB\t Writes Queued:           2,        8KiB
Total (sda):
 Reads Queued:           1,       16KiB\t Writes Queued:           2,       12KiB
";

    #[test]
    fn import_keeps_q_events_and_maps_columns() {
        let t = import_blkparse(SAMPLE, &ImportOptions::default()).expect("import");
        assert_eq!(t.len(), 3, "only the three Q events");
        assert_eq!(t.meta.source, "import:blkparse");
        assert_eq!(t.meta.devices, 2, "8,0 and 8,16 densely renumbered");
        assert!(t.validate().is_ok(), "normalized on import");
        // First kept event rebased to zero.
        assert_eq!(t.records[0].at, SimTime::ZERO);
        assert_eq!(t.records[0].op, TraceOp::Write);
        assert_eq!(t.records[0].dev, 0);
        assert_eq!(t.records[0].lba, 7_864_447);
        assert_eq!(t.records[0].sectors, 8);
        // CPU k -> stream k+1.
        assert_eq!(t.records[0].stream, StreamId(1));
        assert_eq!(t.records[1].stream, StreamId(2));
        assert_eq!(t.records[1].op, TraceOp::Read);
        // 0.000501s after the first event.
        assert_eq!(
            t.records[1].at,
            SimTime::ZERO + SimDuration::from_nanos(501_000)
        );
        // The second device appears as index 1.
        assert_eq!(t.records[2].dev, 1);
        assert_eq!(t.records[2].lba, 2048);
    }

    #[test]
    fn action_filter_selects_other_lifecycle_points() {
        let t = import_blkparse(SAMPLE, &ImportOptions { action: 'C' }).expect("import");
        assert_eq!(t.len(), 1);
        assert_eq!(t.records[0].op, TraceOp::Read);
        assert_eq!(t.records[0].sectors, 32);
    }

    #[test]
    fn malformed_event_line_is_an_error_with_its_line_number() {
        let text = "8,0 0 1 0.0 99 Q W not-a-sector + 8 [x]\n";
        match import_blkparse(text, &ImportOptions::default()) {
            Err(ImportError::Line { number: 1, reason }) => {
                assert!(reason.contains("sector"), "{reason}");
            }
            other => panic!("expected a line error, got {other:?}"),
        }
    }

    #[test]
    fn a_cpu_with_no_stream_to_map_to_is_a_line_error() {
        // CPU k becomes stream k + 1; u32::MAX has no successor.
        let text = "8,0 4294967295 1 0.000000000 1 Q W 0 + 8 [x]\n";
        let opts = ImportOptions::default();
        for got in [
            import_blkparse(text, &opts).err(),
            scan_blkparse(text.as_bytes(), &opts).err(),
        ] {
            match got {
                Some(ImportError::Line { number: 1, reason }) => {
                    assert!(reason.contains("CPU"), "{reason}");
                }
                other => panic!("expected a line error, got {other:?}"),
            }
        }
        // The largest mappable CPU still imports.
        let text = "8,0 4294967294 1 0.000000000 1 Q W 0 + 8 [x]\n";
        let t = import_blkparse(text, &opts).expect("import");
        assert_eq!(t.records[0].stream, StreamId(u32::MAX));
    }

    #[test]
    fn more_devices_than_the_header_can_count_is_a_line_error() {
        let line = |minor: u32| format!("8,{minor} 0 1 0.000000000 1 Q W 0 + 8 [x]\n");
        let opts = ImportOptions::default();
        // 65 535 distinct devices is the most `TraceMeta::devices` holds.
        let mut text: String = (0..u32::from(u16::MAX)).map(line).collect();
        let t = import_blkparse(&text, &opts).expect("import");
        assert_eq!(t.meta.devices, u16::MAX);
        assert_eq!(
            scan_blkparse(text.as_bytes(), &opts).unwrap().devices.len(),
            65_535
        );
        // One more wraps the count to zero unless it is refused.
        text.push_str(&line(u32::from(u16::MAX)));
        for got in [
            import_blkparse(&text, &opts).err(),
            scan_blkparse(text.as_bytes(), &opts).err(),
        ] {
            match got {
                Some(ImportError::Line {
                    number: 65_536,
                    reason,
                }) => {
                    assert!(reason.contains("devices"), "{reason}");
                }
                other => panic!("expected a line error, got {other:?}"),
            }
        }
        // A hand-built scan gets the same answer from the writing pass.
        let scan = BlkparseScan {
            records: 1,
            epoch_ns: 0,
            devices: (0..=u32::from(u16::MAX)).map(|minor| (8, minor)).collect(),
        };
        assert!(matches!(
            import_bytes(&line(0), &opts, &scan, 0),
            Err(ImportError::Line { .. })
        ));
    }

    #[test]
    fn streaming_import_matches_the_in_memory_bytes() {
        let opts = ImportOptions::default();
        let in_memory = import_blkparse(SAMPLE, &opts).expect("import");
        let scan = scan_blkparse(SAMPLE.as_bytes(), &opts).expect("scan");
        assert_eq!(scan.records, 3);
        assert_eq!(scan.devices, vec![(8, 0), (8, 16)]);
        assert_eq!(scan.epoch_ns, 0);
        let bytes = import_bytes(SAMPLE, &opts, &scan, 0).expect("streaming import");
        assert_eq!(bytes, crate::codec::to_binary(&in_memory));
    }

    #[test]
    fn reorder_window_absorbs_bounded_disorder_and_rejects_more() {
        // Three events in strictly decreasing time order: disorder of
        // span 3, which a window of 1 cannot re-sort.
        let text = "\
8,0 0 1 0.000300000 1 Q W 100 + 8 [x]
8,0 0 2 0.000200000 1 Q W 200 + 8 [x]
8,0 0 3 0.000100000 1 Q W 300 + 8 [x]
";
        let opts = ImportOptions::default();
        let scan = scan_blkparse(text.as_bytes(), &opts).expect("scan");
        assert_eq!(scan.epoch_ns, 100_000);
        // A big enough window reproduces the in-memory sort exactly.
        let ok = import_bytes(text, &opts, &scan, 0).expect("wide window");
        let in_memory = import_blkparse(text, &opts).expect("import");
        assert_eq!(ok, crate::codec::to_binary(&in_memory));
        // A window of one record cannot, and says so instead of writing
        // a silently misordered trace.
        assert_eq!(
            import_bytes(text, &opts, &scan, 1).err(),
            Some(ImportError::OutOfOrder { window: 1 })
        );
    }

    #[test]
    fn non_event_text_is_no_records_not_an_error() {
        assert_eq!(
            import_blkparse("hello\nworld\n", &ImportOptions::default()),
            Err(ImportError::NoRecords)
        );
    }
}
