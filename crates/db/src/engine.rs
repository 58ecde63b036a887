//! The transaction engine: op-list transactions over a page cache, a WAL,
//! and a pluggable storage stack.
//!
//! Transactions are *op lists* (reads, then writes/deletes), the standard
//! simulation idiom: the TPC-C generator picks keys up front, and the
//! engine executes the ops asynchronously, suspending at every cache miss.
//! Commit follows the paper's logging discipline: log records accumulate
//! in the log buffer and are forced according to the [`FlushPolicy`]
//! (every commit, or group commit by buffer size). The transaction's
//! response time is measured to *durability* — under group commit that
//! includes waiting for the buffer to fill, which is exactly why the
//! paper's `EXT2+GC` shows a 0.90 s response time at 663 tpmC (Table 2).

use std::cell::RefCell;
use std::rc::Rc;

use trail_blockio::{IoDone, IoRequest};
use trail_core::{BlockStack, TrailError};
use trail_disk::{Lba, PayloadBuf, SECTOR_SIZE};
use trail_sim::{Completion, Delivered, FastMap, IoError, SimDuration, SimTime, Simulator};
use trail_telemetry::{null_recorder, Event, EventKind, Layer, RecorderHandle};

use crate::cache::{BufferPool, CacheStats};
use crate::page::{Page, PageId, Rid, PAGE_SIZE, SECTORS_PER_PAGE};
use crate::wal::{FlushJob, FlushPolicy, PendingCommit, Released, Wal, WalRecord, WalStats};

/// Identifies a table.
pub type TableId = u8;

/// One transaction operation.
#[derive(Clone, Debug)]
pub enum Op {
    /// Read the row at `(table, key)` (a missing key is counted and
    /// skipped).
    Read(TableId, u64),
    /// Insert or update the row at `(table, key)`.
    Write(TableId, u64, Vec<u8>),
    /// Delete the row at `(table, key)` (missing keys are skipped).
    Delete(TableId, u64),
}

/// A transaction to execute: CPU time plus an op list.
#[derive(Clone, Debug, Default)]
pub struct TxnSpec {
    /// CPU time charged before any I/O.
    pub cpu: SimDuration,
    /// Operations, executed in order.
    pub ops: Vec<Op>,
}

/// The completion record of a durable transaction.
#[derive(Clone, Copy, Debug)]
pub struct TxnResult {
    /// Transaction id.
    pub txn: u32,
    /// When the transaction started.
    pub started: SimTime,
    /// When its commit record became durable.
    pub durable_at: SimTime,
}

impl TxnResult {
    /// Response time: start to durability.
    pub fn response(&self) -> SimDuration {
        self.durable_at.duration_since(self.started)
    }
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct DbConfig {
    /// Buffer-pool capacity in pages.
    pub cache_pages: usize,
    /// Log-force policy.
    pub flush_policy: FlushPolicy,
    /// Device index carrying the log file.
    pub log_dev: usize,
    /// First sector of the log file's data region.
    pub log_region_start: Lba,
    /// Size of the log region in sectors.
    pub log_region_sectors: u64,
    /// Each log force is issued as synchronous writes of at most this many
    /// bytes (Berkeley DB's flush loop writes the buffer in pieces; on a
    /// mechanical disk each subsequent sequential piece pays nearly a full
    /// rotation — the paper's "I/O clustering" effect).
    pub flush_write_bytes: usize,
    /// Devices carrying table pages (must not include `log_dev`).
    pub table_devices: Vec<usize>,
    /// Background page flushing starts above this many dirty pages.
    pub dirty_high_watermark: usize,
    /// Pages flushed per background batch.
    pub flush_batch: usize,
    /// Log the before-image of updated rows as well (undo + redo, as
    /// Berkeley DB does); roughly doubles the log volume of updates,
    /// which is what makes the paper's Table 3 group-commit counts line
    /// up (~4.4 KB of log per TPC-C transaction).
    pub log_before_images: bool,
    /// Model CPU as a single serially-shared resource (the paper's
    /// testbed has one 300-MHz Pentium II): concurrent transactions'
    /// CPU bursts queue instead of overlapping. `false` lets CPU time
    /// overlap freely (an idealized SMP).
    pub single_cpu: bool,
}

impl DbConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on an empty table-device list, a table device equal to the
    /// log device, or a zero cache.
    pub fn validate(&self) {
        assert!(self.cache_pages > 0, "cache must hold at least one page");
        assert!(
            !self.table_devices.is_empty(),
            "need at least one table device"
        );
        assert!(
            !self.table_devices.contains(&self.log_dev),
            "the log device is dedicated (paper: one disk for logging)"
        );
        assert!(self.flush_batch > 0, "flush batch must be positive");
        assert!(
            self.flush_write_bytes >= SECTOR_SIZE,
            "flush write granularity must be at least one sector"
        );
    }
}

/// Engine counters. Response times are not kept here: each
/// transaction's [`TxnResult`] carries its own. The four `*_wait` and
/// `cpu` sums split every committed transaction's response exactly:
/// their total is the sum of the responses, to the nanosecond.
#[derive(Clone, Debug, Default)]
pub struct DbStats {
    /// Transactions made durable.
    pub committed: u64,
    /// Reads of keys that do not exist.
    pub missing_reads: u64,
    /// Background page write-backs issued.
    pub page_flushes: u64,
    /// Data-page reads issued to the stack (cache misses), a read issued
    /// again after a page write overtook it included.
    pub page_reads: u64,
    /// Committed transactions' time queued for the single CPU (zero
    /// unless [`DbConfig::single_cpu`]).
    pub cpu_queue_wait: SimDuration,
    /// Committed transactions' CPU bursts.
    pub cpu: SimDuration,
    /// Committed transactions' time suspended on page reads.
    pub page_read_wait: SimDuration,
    /// Committed transactions' time from the commit record being
    /// buffered to its force being durable.
    pub commit_wait: SimDuration,
}

/// Where a transaction's time went before its commit was buffered.
#[derive(Clone, Copy, Default)]
struct Spent {
    cpu_queue: SimDuration,
    cpu: SimDuration,
    page_reads: SimDuration,
}

struct TxnCtx {
    txn: u32,
    started: SimTime,
    spent: Spent,
    ops: Vec<Op>,
    pos: usize,
    on_durable: Completion<TxnResult>,
}

/// Reads of one page in flight, and how many writes of the page were
/// submitted while any was.
#[derive(Default)]
struct Reading {
    reads: u32,
    writes: u32,
}

struct DbInner {
    stack: Rc<dyn BlockStack>,
    config: DbConfig,
    wal: Wal,
    cache: BufferPool,
    index: FastMap<(TableId, u64), Rid>,
    open_page: FastMap<TableId, PageId>,
    next_page: FastMap<usize, u64>,
    /// Pages with an in-flight write-back, each holding the newest
    /// write's bytes; reads are served from these copies so a racing disk
    /// read cannot observe stale bytes.
    flushing: FastMap<PageId, PayloadBuf>,
    /// Pages with a read in flight; see [`DbInner::end_read`].
    reading: FastMap<PageId, Reading>,
    flusher_active: bool,
    next_txn: u32,
    active_txns: usize,
    /// When the (single) CPU frees up; only consulted under `single_cpu`.
    cpu_free_at: SimTime,
    stats: DbStats,
    recorder: RecorderHandle,
}

/// A WAL force on its way to the log device: one buffer, written as a
/// chain of `piece_sectors`-sized synchronous writes, each issued when the
/// one before it is durable. Other forces' chains run beside it.
struct FlushChain {
    seq: u64,
    lba: Lba,
    data: PayloadBuf,
    piece_sectors: usize,
    next_sector: usize,
    issued: SimTime,
}

enum StepOutcome {
    /// Suspend: fetch this page, then resume the transaction.
    NeedPage(PageId),
    /// All ops applied and the commit record is buffered.
    Committed,
}

/// The database engine. Clones share the engine.
///
/// # Examples
///
/// See the `database_logging` example and the crate tests; the engine
/// needs a simulated storage stack, which makes an inline doc example
/// unhelpfully long.
#[derive(Clone)]
pub struct Database {
    inner: Rc<RefCell<DbInner>>,
}

impl Database {
    /// Creates an engine over `stack`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    pub fn new(stack: Rc<dyn BlockStack>, config: DbConfig) -> Self {
        config.validate();
        let wal = Wal::new(
            config.log_dev,
            config.log_region_start,
            config.log_region_sectors,
            config.flush_policy,
        );
        let cache = BufferPool::new(config.cache_pages);
        let next_page = config.table_devices.iter().map(|&d| (d, 0u64)).collect();
        Database {
            inner: Rc::new(RefCell::new(DbInner {
                stack,
                config,
                wal,
                cache,
                index: FastMap::default(),
                open_page: FastMap::default(),
                next_page,
                flushing: FastMap::default(),
                reading: FastMap::default(),
                flusher_active: false,
                next_txn: 0,
                active_txns: 0,
                cpu_free_at: SimTime::ZERO,
                stats: DbStats::default(),
                recorder: null_recorder(),
            })),
        }
    }

    /// Engine counters.
    pub fn with_stats<R>(&self, f: impl FnOnce(&DbStats) -> R) -> R {
        f(&self.inner.borrow().stats)
    }

    /// Attaches a telemetry recorder, cascading to the storage stack
    /// below (and through it, every driver and disk).
    pub fn set_recorder(&self, recorder: RecorderHandle) {
        let mut d = self.inner.borrow_mut();
        d.stack.set_recorder(Rc::clone(&recorder));
        d.recorder = recorder;
    }

    /// Records a db-layer event.
    fn emit(&self, at: SimTime, dur: SimDuration, kind: EventKind) {
        let recorder = {
            let d = self.inner.borrow();
            if !d.recorder.enabled() {
                return;
            }
            Rc::clone(&d.recorder)
        };
        recorder.record(Event {
            at,
            dur,
            layer: Layer::Db,
            source: "wal".to_string(),
            req: None,
            kind,
        });
    }

    /// WAL counters (group commits, logging I/O time).
    pub fn wal_stats(&self) -> WalStats {
        self.inner.borrow().wal.stats()
    }

    /// Cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.borrow().cache.stats()
    }

    /// Rows currently indexed.
    pub fn row_count(&self) -> usize {
        self.inner.borrow().index.len()
    }

    /// Transactions in flight (executing or awaiting durability).
    pub fn active_txns(&self) -> usize {
        self.inner.borrow().active_txns
    }

    /// Bulk-loads rows without timing (the "restore from backup" path used
    /// to populate benchmarks). Returns the page images the caller must
    /// place onto the devices (e.g. via [`trail_disk::Disk::poke_sector`]).
    /// A row is any byte slice, borrowed or owned, and is copied into its
    /// page; the index is reserved for the rows' size hint up front.
    ///
    /// # Panics
    ///
    /// Panics if a row is too large for a page.
    pub fn load<R: AsRef<[u8]>>(
        &self,
        table: TableId,
        rows: impl IntoIterator<Item = (u64, R)>,
    ) -> Vec<(PageId, Vec<u8>)> {
        let rows = rows.into_iter();
        let mut d = self.inner.borrow_mut();
        d.index.reserve(rows.size_hint().0);
        let dev = d.table_device(table);
        let mut images: Vec<(PageId, Page)> = Vec::new();
        let mut current: Option<(PageId, Page)> = None;
        for (key, value) in rows {
            loop {
                if current.is_none() {
                    let page_no = d.next_page.get_mut(&dev).expect("device registered");
                    let pid = PageId {
                        dev: dev as u8,
                        page_no: *page_no,
                    };
                    *page_no += 1;
                    current = Some((pid, Page::new()));
                }
                let (pid, page) = current.as_mut().expect("just ensured");
                if let Some(slot) = page.insert(value.as_ref()) {
                    d.index.insert((table, key), Rid { page: *pid, slot });
                    break;
                }
                images.push(current.take().expect("full page"));
            }
        }
        if let Some(last) = current.take() {
            d.open_page.insert(table, last.0);
            images.push(last);
        }
        images
            .into_iter()
            .map(|(pid, p)| (pid, p.into_bytes()))
            .collect()
    }

    /// Pre-warms the cache with a loaded page image. Silently does nothing
    /// once the cache is full (warming never evicts).
    pub fn warm(&self, pid: PageId, bytes: &[u8]) {
        let mut d = self.inner.borrow_mut();
        if d.cache.resident() >= d.cache.capacity() || d.cache.contains(pid) {
            return;
        }
        d.cache.insert(pid, Page::from_bytes(bytes));
    }

    /// Executes a transaction. `on_control` is delivered when the engine
    /// has finished processing it (commit record buffered — the moment a
    /// closed-loop client may submit its next transaction under group
    /// commit); `on_durable` is delivered when the commit is forced to
    /// disk. Both tokens are cancelled if the run tears down first.
    ///
    /// # Errors
    ///
    /// This call itself never fails; the `Result` is reserved for parity
    /// with the storage API and future admission control.
    pub fn execute(
        &self,
        sim: &mut Simulator,
        spec: TxnSpec,
        on_control: Completion<()>,
        on_durable: Completion<TxnResult>,
    ) -> Result<u32, TrailError> {
        let (txn, cpu_start) = {
            let mut d = self.inner.borrow_mut();
            let txn = d.next_txn;
            d.next_txn += 1;
            d.active_txns += 1;
            let start = if d.config.single_cpu {
                // One CPU: this transaction's burst queues behind whatever
                // is already scheduled on it.
                let start = d.cpu_free_at.max(sim.now());
                d.cpu_free_at = start + spec.cpu;
                start
            } else {
                sim.now()
            };
            (txn, start)
        };
        let cpu_done_at = cpu_start + spec.cpu;
        let ctx = TxnCtx {
            txn,
            started: sim.now(),
            spent: Spent {
                cpu_queue: cpu_start.duration_since(sim.now()),
                cpu: spec.cpu,
                page_reads: SimDuration::ZERO,
            },
            ops: spec.ops,
            pos: 0,
            on_durable,
        };
        let db = self.clone();
        let mut on_control = Some(on_control);
        sim.schedule_at(cpu_done_at, move |sim| {
            db.advance(sim, ctx, on_control.take().expect("fires once"));
        });
        Ok(txn)
    }

    /// Drives a transaction forward until it suspends on a page read or
    /// commits.
    fn advance(&self, sim: &mut Simulator, mut ctx: TxnCtx, on_control: Completion<()>) {
        let mut evict_writes: Vec<(PageId, Vec<u8>)> = Vec::new();
        let outcome = {
            let mut d = self.inner.borrow_mut();
            d.step_ops(&mut ctx, &mut evict_writes)
        };
        for (pid, bytes) in evict_writes {
            self.write_page(sim, pid, bytes);
        }
        match outcome {
            StepOutcome::NeedPage(pid) => {
                // Serve from an in-flight write-back copy if present.
                let mut evictions = Vec::new();
                let from_flushing = {
                    let d = &mut *self.inner.borrow_mut();
                    let copy = d.flushing.get(&pid);
                    if let Some(bytes) = copy {
                        admit(&mut d.cache, pid, Page::from_payload(bytes), &mut evictions);
                    }
                    copy.is_some()
                };
                if from_flushing {
                    self.resume(sim, evictions, ctx, on_control);
                    return;
                }
                self.read_page(sim, pid, ctx, on_control);
            }
            StepOutcome::Committed => {
                let deferred_control = {
                    let mut d = self.inner.borrow_mut();
                    let db = self.clone();
                    let user_done = ctx.on_durable;
                    let txn = ctx.txn;
                    let started = ctx.started;
                    let spent = ctx.spent;
                    let committed_at = sim.now();
                    let on_durable = sim.completion(move |sim, del: Delivered<SimTime>| {
                        let durable_at = match del {
                            Ok(at) => at,
                            Err(e) => {
                                db.inner.borrow_mut().active_txns -= 1;
                                return user_done.fail(sim, e);
                            }
                        };
                        let result = TxnResult {
                            txn,
                            started,
                            durable_at,
                        };
                        {
                            let mut d = db.inner.borrow_mut();
                            let stats = &mut d.stats;
                            stats.committed += 1;
                            stats.cpu_queue_wait += spent.cpu_queue;
                            stats.cpu += spent.cpu;
                            stats.page_read_wait += spent.page_reads;
                            stats.commit_wait += durable_at.duration_since(committed_at);
                            d.active_txns -= 1;
                        }
                        user_done.complete(sim, result);
                    });
                    // A commit that triggers a force runs it synchronously
                    // (as Berkeley DB's log_write does), so its caller
                    // blocks: the WAL keeps its control token until the
                    // force is durable.
                    d.wal.register_commit(
                        PendingCommit {
                            txn,
                            started,
                            on_durable,
                        },
                        on_control,
                    )
                };
                if let Some(token) = deferred_control {
                    token.complete(sim, ());
                }
                self.maybe_flush_wal(sim);
                self.maybe_flush_pages(sim);
            }
        }
    }

    /// Reads `pid` from the stack for a suspended transaction, then
    /// resumes it. The fetched bytes are installed only if they can be
    /// the page's newest (see [`DbInner::settle_read`]); a read that a
    /// page write overtook is issued again.
    fn read_page(
        &self,
        sim: &mut Simulator,
        pid: PageId,
        mut ctx: TxnCtx,
        on_control: Completion<()>,
    ) {
        let db = self.clone();
        let issued = sim.now();
        let (stack, writes_seen) = {
            let d = &mut *self.inner.borrow_mut();
            d.stats.page_reads += 1;
            let reading = d.reading.entry(pid).or_default();
            reading.reads += 1;
            (Rc::clone(&d.stack), reading.writes)
        };
        let done = sim.completion(move |sim, d: Delivered<IoDone>| {
            ctx.spent.page_reads += sim.now().duration_since(issued);
            let overtaken = db.inner.borrow_mut().end_read(pid, writes_seen);
            let done = match d {
                Ok(done) => done,
                Err(e) => {
                    db.inner.borrow_mut().active_txns -= 1;
                    ctx.on_durable.fail(sim, e);
                    return on_control.fail(sim, e);
                }
            };
            let bytes = done.data.expect("page read returns data");
            let mut evictions = Vec::new();
            let settled = db
                .inner
                .borrow_mut()
                .settle_read(pid, &bytes, overtaken, &mut evictions);
            if settled {
                db.resume(sim, evictions, ctx, on_control);
            } else {
                db.read_page(sim, pid, ctx, on_control);
            }
        });
        stack
            .read(
                sim,
                pid.dev as usize,
                pid.first_lba(),
                SECTORS_PER_PAGE,
                done,
            )
            .expect("page read within device bounds");
    }

    /// Writes back the dirty pages a fetch evicted, then carries on with
    /// the transaction that needed the fetch.
    fn resume(
        &self,
        sim: &mut Simulator,
        evictions: Vec<(PageId, Vec<u8>)>,
        ctx: TxnCtx,
        on_control: Completion<()>,
    ) {
        for (vid, vbytes) in evictions {
            self.write_page(sim, vid, vbytes);
        }
        self.advance(sim, ctx, on_control);
    }

    /// Submits the write-back of `pid`, keeping `bytes` readable in
    /// `flushing` until the write completes, then calls `then` with
    /// whether it succeeded. The map and the write hold two handles to
    /// one buffer; the completion removes the entry only while it is
    /// still that buffer, since a later eviction of the page may have
    /// replaced it with newer bytes.
    fn submit_page_write(
        &self,
        sim: &mut Simulator,
        pid: PageId,
        bytes: Vec<u8>,
        then: impl FnOnce(&mut Simulator, bool) + 'static,
    ) {
        let mut bytes = PayloadBuf::from(bytes);
        let in_flight = bytes.share();
        let mine = bytes.share();
        let db = self.clone();
        let done = sim.completion(move |sim, d: Delivered<IoDone>| {
            {
                let mut inner = db.inner.borrow_mut();
                if inner.flushing.get(&pid).is_some_and(|b| b.ptr_eq(&mine)) {
                    inner.flushing.remove(&pid);
                }
            }
            then(sim, d.is_ok());
        });
        let stack = {
            let mut d = self.inner.borrow_mut();
            d.flushing.insert(pid, bytes);
            if let Some(reading) = d.reading.get_mut(&pid) {
                reading.writes += 1;
            }
            d.stats.page_flushes += 1;
            Rc::clone(&d.stack)
        };
        let write = IoRequest::write(pid.first_lba(), in_flight);
        stack
            .submit(sim, pid.dev as usize, write, done)
            .expect("page write within device bounds");
    }

    /// Issues a page write-back, tracking it for read consistency.
    fn write_page(&self, sim: &mut Simulator, pid: PageId, bytes: Vec<u8>) {
        let db = self.clone();
        self.submit_page_write(sim, pid, bytes, move |sim, ok| {
            if ok {
                db.maybe_flush_pages(sim);
            }
        });
    }

    /// Forces the WAL while the policy calls for it, beside any forces
    /// already in flight.
    fn maybe_flush_wal(&self, sim: &mut Simulator) {
        loop {
            let job = {
                let mut d = self.inner.borrow_mut();
                if !d.wal.wants_flush() {
                    return;
                }
                d.wal.begin_flush(sim.now(), false)
            };
            let Some(job) = job else { return };
            self.submit_flush(sim, job);
        }
    }

    /// Forces whatever is buffered regardless of policy (used to drain at
    /// the end of a run so the last group's commits become durable).
    pub fn force_log(&self, sim: &mut Simulator) {
        let job = {
            let mut d = self.inner.borrow_mut();
            d.wal.begin_flush(sim.now(), true)
        };
        if let Some(job) = job {
            self.submit_flush(sim, job);
        }
    }

    /// Writes a flush job as a chain of `flush_write_bytes`-sized
    /// synchronous writes (Berkeley DB's flush loop). On the baseline
    /// stack each subsequent sequential O_SYNC write has just missed its
    /// rotational window and pays nearly a full revolution; on Trail each
    /// piece costs only transfer + command overhead.
    fn submit_flush(&self, sim: &mut Simulator, job: FlushJob) {
        let failed = self.inner.borrow().wal.failed();
        if let Some(e) = failed {
            return self.fail_flush(sim, job.seq, e);
        }
        let piece_sectors = self.inner.borrow().config.flush_write_bytes / SECTOR_SIZE;
        let chain = FlushChain {
            seq: job.seq,
            lba: job.lba,
            data: job.data.into(),
            piece_sectors,
            next_sector: 0,
            issued: job.issued,
        };
        self.write_flush_pieces(sim, chain);
    }

    fn write_flush_pieces(&self, sim: &mut Simulator, mut chain: FlushChain) {
        let total_sectors = chain.data.len() / SECTOR_SIZE;
        if chain.next_sector >= total_sectors {
            let durable_at = sim.now();
            let released = self
                .inner
                .borrow_mut()
                .wal
                .finish_flush(durable_at, chain.seq);
            self.emit(
                chain.issued,
                durable_at.duration_since(chain.issued),
                EventKind::WalForce {
                    bytes: chain.data.len() as u64,
                },
            );
            self.emit(
                durable_at,
                SimDuration::ZERO,
                EventKind::GroupCommit {
                    group: released.commits.len() as u32,
                },
            );
            for c in released.commits {
                self.emit(
                    durable_at,
                    SimDuration::ZERO,
                    EventKind::TxnCommit {
                        txn: u64::from(c.txn),
                    },
                );
                c.on_durable.complete(sim, durable_at);
            }
            // Callers blocked on a force that is now durable resume.
            for w in released.controls {
                w.complete(sim, ());
            }
            // More commits may have buffered meanwhile.
            self.maybe_flush_wal(sim);
            return;
        }
        let (stack, dev) = {
            let d = self.inner.borrow();
            (Rc::clone(&d.stack), d.wal.dev())
        };
        // The next piece is a view of the job's one buffer.
        let first = chain.next_sector;
        let count = chain.piece_sectors.min(total_sectors - first);
        let piece = chain.data.sectors(first, count);
        let lba = chain.lba + first as u64;
        chain.next_sector += count;
        let db = self.clone();
        let done = sim.completion(move |sim, d: Delivered<IoDone>| match d {
            Ok(_) => db.write_flush_pieces(sim, chain),
            // The same piece again: skipping it would leave a hole.
            Err(IoError::Transient) => {
                chain.next_sector = first;
                db.write_flush_pieces(sim, chain);
            }
            Err(e) => db.fail_flush(sim, chain.seq, e),
        });
        stack
            .submit(sim, dev, IoRequest::write(lba, piece), done)
            .expect("log chunk write within device bounds");
    }

    /// Fails force `seq` with `e`: every commit and control token that
    /// needs a log byte from it on hears `e`, and so does every later
    /// force (see [`Wal::fail_flush`]).
    ///
    /// [`Wal::fail_flush`]: crate::Wal::fail_flush
    fn fail_flush(&self, sim: &mut Simulator, seq: u64, e: IoError) {
        let Released { commits, controls } =
            self.inner.borrow_mut().wal.fail_flush(sim.now(), seq, e);
        for c in commits {
            c.on_durable.fail(sim, e);
        }
        for w in controls {
            w.fail(sim, e);
        }
        self.maybe_flush_wal(sim);
    }

    /// Starts a background dirty-page flush batch when above the
    /// high-watermark.
    fn maybe_flush_pages(&self, sim: &mut Simulator) {
        let batch = {
            let mut d = self.inner.borrow_mut();
            if d.flusher_active || d.cache.dirty_pages() <= d.config.dirty_high_watermark {
                return;
            }
            d.flusher_active = true;
            let n = d.config.flush_batch;
            d.cache.take_dirty_batch(n)
        };
        if batch.is_empty() {
            self.inner.borrow_mut().flusher_active = false;
            return;
        }
        // Track batch completion to re-check the watermark.
        let remaining = Rc::new(std::cell::Cell::new(batch.len()));
        for (pid, bytes) in batch {
            let db = self.clone();
            let remaining = Rc::clone(&remaining);
            self.submit_page_write(sim, pid, bytes, move |sim, ok| {
                remaining.set(remaining.get() - 1);
                if remaining.get() == 0 {
                    db.inner.borrow_mut().flusher_active = false;
                    if ok {
                        db.maybe_flush_pages(sim);
                    }
                }
            });
        }
    }

    /// WAL forces begun and neither landed nor failed yet.
    pub fn forces_in_flight(&self) -> usize {
        self.inner.borrow().wal.forces_in_flight()
    }

    /// Work outstanding anywhere in the engine or the stack below it.
    pub fn pending_work(&self) -> usize {
        let d = self.inner.borrow();
        d.active_txns + d.wal.forces_in_flight() + d.flushing.len() + d.stack.pending_work()
    }

    /// Runs the simulation until all transactions are durable and all
    /// write-backs have drained, forcing the final partial log group.
    ///
    /// # Panics
    ///
    /// Panics if the event queue drains while work remains (an engine
    /// bug).
    pub fn run_until_quiescent(&self, sim: &mut Simulator) {
        loop {
            if self.pending_work() == 0 {
                let buffered = self.inner.borrow().wal.buffered_bytes();
                if buffered > 0 {
                    self.force_log(sim);
                    continue;
                }
                // Completion delivery is deferred: queued handlers may
                // still fire (and may submit new transactions).
                if sim.step() {
                    continue;
                }
                break;
            }
            if !sim.step() {
                // No events but commits may be parked in a partial group.
                let buffered = self.inner.borrow().wal.buffered_bytes();
                assert!(buffered > 0, "event queue empty with work pending");
                self.force_log(sim);
            }
        }
    }

    /// Reads a row's current value directly from engine state (index +
    /// cache + in-flight copies), bypassing timing — for test assertions.
    pub fn peek_row(&self, table: TableId, key: u64) -> Option<Vec<u8>> {
        let mut d = self.inner.borrow_mut();
        let rid = *d.index.get(&(table, key))?;
        if let Some(page) = d.cache.get_mut(rid.page) {
            return page.get(rid.slot).map(<[u8]>::to_vec);
        }
        if let Some(bytes) = d.flushing.get(&rid.page) {
            return Page::from_payload(bytes).get(rid.slot).map(<[u8]>::to_vec);
        }
        None
    }
}

/// Makes `pid` resident as `page` unless it already is, queueing the dirty
/// victim it evicts (if any) on `evictions` for the caller to write back.
fn admit(cache: &mut BufferPool, pid: PageId, page: Page, evictions: &mut Vec<(PageId, Vec<u8>)>) {
    if cache.contains(pid) {
        return;
    }
    if let Some((vid, vbytes, true)) = cache.insert(pid, page) {
        evictions.push((vid, vbytes));
    }
}

impl DbInner {
    fn table_device(&self, table: TableId) -> usize {
        self.config.table_devices[table as usize % self.config.table_devices.len()]
    }

    /// Counts a read of `pid` finished and tells whether a write of the
    /// page was submitted since it was issued (when `writes_seen` writes
    /// had been): its bytes may then predate that write.
    fn end_read(&mut self, pid: PageId, writes_seen: u32) -> bool {
        let reading = self
            .reading
            .get_mut(&pid)
            .expect("a read in flight is counted");
        let overtaken = reading.writes != writes_seen;
        reading.reads -= 1;
        if reading.reads == 0 {
            self.reading.remove(&pid);
        }
        overtaken
    }

    /// Makes `pid` resident after a read of it fetched `bytes`, unless it
    /// already is. An in-flight write-back copy is newer than anything on
    /// the stack and is preferred; failing that, a read that a page write
    /// overtook (`overtaken`) may have fetched stale bytes, and `false`
    /// asks for the page to be read again.
    fn settle_read(
        &mut self,
        pid: PageId,
        bytes: &PayloadBuf,
        overtaken: bool,
        evictions: &mut Vec<(PageId, Vec<u8>)>,
    ) -> bool {
        if self.resident(pid, evictions) {
            return true;
        }
        if overtaken {
            return false;
        }
        admit(&mut self.cache, pid, Page::from_payload(bytes), evictions);
        true
    }

    /// Whether `pid` is resident once an in-flight write-back copy, if
    /// there is one, has been re-admitted; `false` means it must be read.
    fn resident(&mut self, pid: PageId, evictions: &mut Vec<(PageId, Vec<u8>)>) -> bool {
        if self.cache.contains(pid) {
            return true;
        }
        match self.flushing.get(&pid) {
            Some(bytes) => {
                admit(&mut self.cache, pid, Page::from_payload(bytes), evictions);
                true
            }
            None => false,
        }
    }

    /// Processes ops until a page miss or completion. Dirty evictions are
    /// pushed to `evict_writes` for the caller to submit.
    fn step_ops(
        &mut self,
        ctx: &mut TxnCtx,
        evict_writes: &mut Vec<(PageId, Vec<u8>)>,
    ) -> StepOutcome {
        while ctx.pos < ctx.ops.len() {
            match ctx.ops[ctx.pos] {
                Op::Read(table, key) => {
                    match self.index.get(&(table, key)).copied() {
                        None => {
                            self.stats.missing_reads += 1;
                        }
                        Some(rid) => {
                            // `get_mut` counts the lookup; on a miss the
                            // in-flight copy is re-admitted so repeated
                            // reads stay hits.
                            if self.cache.get_mut(rid.page).is_none()
                                && !self.resident(rid.page, evict_writes)
                            {
                                return StepOutcome::NeedPage(rid.page);
                            }
                        }
                    }
                    ctx.pos += 1;
                }
                Op::Write(table, key, ref mut value) => {
                    match self.index.get(&(table, key)).copied() {
                        Some(rid) => {
                            if !self.resident(rid.page, evict_writes) {
                                return StepOutcome::NeedPage(rid.page);
                            }
                            if self.config.log_before_images {
                                let before = self
                                    .cache
                                    .get_mut(rid.page)
                                    .expect("just ensured resident")
                                    .get(rid.slot)
                                    .map(<[u8]>::to_vec)
                                    .unwrap_or_default();
                                if !before.is_empty() {
                                    self.wal.append(WalRecord::Put {
                                        txn: ctx.txn,
                                        table,
                                        key,
                                        value: before,
                                    });
                                }
                            }
                            let updated = self
                                .cache
                                .get_mut(rid.page)
                                .expect("just ensured resident")
                                .update(rid.slot, value);
                            if updated {
                                self.cache.mark_dirty(rid.page);
                            } else {
                                // Grew past its slot: delete + reinsert.
                                self.cache
                                    .get_mut(rid.page)
                                    .expect("resident")
                                    .delete(rid.slot);
                                self.cache.mark_dirty(rid.page);
                                self.insert_new(table, key, value, evict_writes);
                            }
                        }
                        None => {
                            self.insert_new(table, key, value, evict_writes);
                        }
                    }
                    // The op is done, so its row moves into the log record
                    // (an op that suspended above runs again from the top).
                    self.wal.append(WalRecord::Put {
                        txn: ctx.txn,
                        table,
                        key,
                        value: std::mem::take(value),
                    });
                    ctx.pos += 1;
                }
                Op::Delete(table, key) => {
                    if let Some(rid) = self.index.get(&(table, key)).copied() {
                        if !self.resident(rid.page, evict_writes) {
                            return StepOutcome::NeedPage(rid.page);
                        }
                        self.cache
                            .get_mut(rid.page)
                            .expect("resident")
                            .delete(rid.slot);
                        self.cache.mark_dirty(rid.page);
                        self.index.remove(&(table, key));
                        self.wal.append(WalRecord::Delete {
                            txn: ctx.txn,
                            table,
                            key,
                        });
                    }
                    ctx.pos += 1;
                }
            }
        }
        self.wal.append(WalRecord::Commit { txn: ctx.txn });
        StepOutcome::Committed
    }

    /// Inserts a fresh row into the table's open page, allocating pages as
    /// needed (fresh pages never require a disk read).
    fn insert_new(
        &mut self,
        table: TableId,
        key: u64,
        value: &[u8],
        evict_writes: &mut Vec<(PageId, Vec<u8>)>,
    ) {
        assert!(
            value.len() <= PAGE_SIZE - 8,
            "row of {} bytes exceeds a page",
            value.len()
        );
        loop {
            let open = self.open_page.get(&table).copied();
            if let Some(pid) = open {
                if self.cache.contains(pid) {
                    let slot = self
                        .cache
                        .get_mut(pid)
                        .expect("checked resident")
                        .insert(value);
                    if let Some(slot) = slot {
                        self.cache.mark_dirty(pid);
                        self.index.insert((table, key), Rid { page: pid, slot });
                        return;
                    }
                    // Page full: fall through to allocate a fresh one.
                }
            }
            let dev = self.table_device(table);
            let page_no = self.next_page.get_mut(&dev).expect("device registered");
            let pid = PageId {
                dev: dev as u8,
                page_no: *page_no,
            };
            *page_no += 1;
            if let Some((vid, vbytes, dirty)) = self.cache.insert(pid, Page::new()) {
                if dirty {
                    evict_writes.push((vid, vbytes));
                }
            }
            self.open_page.insert(table, pid);
        }
    }
}
