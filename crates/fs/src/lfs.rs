//! A log-structured file system (Rosenblum & Ousterhout), scoped to what
//! the paper's §2 comparison needs:
//!
//! - asynchronous writes accumulate in an in-memory **segment buffer** and
//!   reach the disk as large sequential segment writes — LFS's strength;
//! - a synchronous write cannot batch: it forces the partial segment out
//!   immediately and still pays rotational latency at the segment's disk
//!   position — "LFS cannot support synchronous writes well";
//! - overwritten and deleted blocks leave dead space in old segments; the
//!   [`clean`](Lfs::clean) pass reads the live blocks back and re-appends
//!   them — "LFS needs a disk read and a disk write to clean a disk
//!   segment", the GC cost Trail's FIFO track reclamation avoids.

use std::cell::RefCell;
use std::rc::Rc;

use trail_blockio::IoDone;
use trail_core::BlockStack;
use trail_sim::{Completion, Delivered, FastMap, Simulator};

use crate::vfs::{FileHandle, FileSystem, FsError, FsStats, FS_BLOCK_SIZE};

const SECTORS_PER_BLOCK: u64 = (FS_BLOCK_SIZE / 512) as u64;

/// LFS tuning.
#[derive(Clone, Copy, Debug)]
pub struct LfsConfig {
    /// Segment size in file-system blocks (Sprite LFS used 256 KB–1 MB
    /// segments; 64 × 4 KiB = 256 KB).
    pub segment_blocks: u32,
    /// Number of segments on the device.
    pub segments: u32,
}

impl Default for LfsConfig {
    fn default() -> Self {
        LfsConfig {
            segment_blocks: 64,
            segments: 256,
        }
    }
}

/// LFS-specific counters (the cleaner costs the paper talks about).
#[derive(Clone, Copy, Debug, Default)]
pub struct LfsStats {
    /// Full segments written.
    pub segments_written: u64,
    /// Partial-segment forces caused by synchronous writes.
    pub sync_partial_flushes: u64,
    /// Bytes the cleaner read back from the disk.
    pub cleaner_read_bytes: u64,
    /// Bytes the cleaner re-appended to the log.
    pub cleaner_rewritten_bytes: u64,
    /// Segments reclaimed by the cleaner.
    pub segments_cleaned: u64,
}

/// Where a file block currently lives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BlockAddr {
    Hole,
    /// In the in-memory segment buffer at this block offset.
    Buffered(u32),
    /// On disk: segment and block offset within it.
    OnDisk {
        seg: u32,
        off: u32,
    },
}

#[derive(Clone, Default)]
struct File {
    size: u64,
    map: Vec<BlockAddr>,
}

struct Segment {
    /// Live file blocks: (file, block index) per occupied slot, `None`
    /// when dead.
    slots: Vec<Option<(u32, usize)>>,
}

struct Inner {
    stack: Rc<dyn BlockStack>,
    dev: usize,
    config: LfsConfig,
    dir: FastMap<String, u32>,
    files: Vec<Option<File>>,
    /// The in-memory segment buffer: (file, block index, data) per block.
    buffer: Vec<(u32, usize, Vec<u8>)>,
    /// The segment the buffer will be written to.
    current_seg: u32,
    /// Per-segment liveness (None = free).
    segments: Vec<Option<Segment>>,
    flush_in_flight: bool,
    pending: usize,
    stats: FsStats,
    lfs_stats: LfsStats,
}

/// The log-structured file system. Clones share the mount.
///
/// Metadata (directory, block maps) is kept in memory; this module exists
/// to measure LFS's I/O pattern against Trail's, not to re-derive Sprite
/// LFS's checkpointing (see `DESIGN.md`).
#[derive(Clone)]
pub struct Lfs {
    inner: Rc<RefCell<Inner>>,
}

impl Lfs {
    /// Creates an empty LFS over device `dev`.
    ///
    /// # Panics
    ///
    /// Panics if the configured segments exceed the device.
    pub fn new(stack: Rc<dyn BlockStack>, dev: usize, config: LfsConfig) -> Lfs {
        let segments = (0..config.segments).map(|_| None).collect();
        Lfs {
            inner: Rc::new(RefCell::new(Inner {
                stack,
                dev,
                config,
                dir: FastMap::default(),
                files: Vec::new(),
                buffer: Vec::new(),
                current_seg: 0,
                segments,
                flush_in_flight: false,
                pending: 0,
                stats: FsStats::default(),
                lfs_stats: LfsStats::default(),
            })),
        }
    }

    /// LFS counters.
    pub fn lfs_stats(&self) -> LfsStats {
        self.inner.borrow().lfs_stats
    }

    /// Fraction of segments that hold any data (free-space pressure).
    pub fn segment_occupancy(&self) -> f64 {
        let d = self.inner.borrow();
        d.segments.iter().filter(|s| s.is_some()).count() as f64 / d.segments.len() as f64
    }

    fn first_free_segment(d: &Inner) -> Option<u32> {
        d.segments
            .iter()
            .enumerate()
            .find(|(i, s)| s.is_none() && *i as u32 != d.current_seg)
            .map(|(i, _)| i as u32)
    }

    /// Makes `current_seg` a segment the next flush may write. It already
    /// is one unless the log filled up (a flush found no free segment to
    /// advance to); then segments whose slots are all dead are reclaimed —
    /// nothing live to copy, so no I/O — and the first one is taken.
    /// `false` when every segment still holds live data.
    fn ensure_free_segment(d: &mut Inner) -> bool {
        let written = |d: &Inner| d.segments[d.current_seg as usize].is_some();
        if written(d) && Self::first_free_segment(d).is_none() {
            for s in &mut d.segments {
                if s.as_ref()
                    .is_some_and(|seg| seg.slots.iter().all(Option::is_none))
                {
                    *s = None;
                    d.lfs_stats.segments_cleaned += 1;
                }
            }
        }
        if written(d) {
            let Some(next) = Self::first_free_segment(d) else {
                return false;
            };
            d.current_seg = next;
        }
        true
    }

    /// Flushes the segment buffer to `current_seg` as one sequential
    /// write; `on_done` is delivered at completion (or cancelled if the
    /// device dies mid-flush). A written segment is never overwritten:
    /// with the log full of live data `on_done` gets [`FsError::NoSpace`]
    /// and the blocks stay buffered.
    fn flush_segment(
        &self,
        sim: &mut Simulator,
        partial: bool,
        on_done: Completion<Result<(), FsError>>,
    ) {
        let (stack, dev, lba, bytes, seg, entries) = {
            let mut d = self.inner.borrow_mut();
            if d.buffer.is_empty() || d.flush_in_flight {
                // Nothing to write (or a flush is already running; callers
                // serialize forces behind pending_work instead).
                drop(d);
                on_done.complete(sim, Ok(()));
                return;
            }
            if !Self::ensure_free_segment(&mut d) {
                drop(d);
                on_done.complete(sim, Err(FsError::NoSpace));
                return;
            }
            d.flush_in_flight = true;
            let seg = d.current_seg;
            let entries: Vec<(u32, usize)> = d.buffer.iter().map(|(f, b, _)| (*f, *b)).collect();
            let mut bytes = Vec::with_capacity(d.buffer.len() * FS_BLOCK_SIZE);
            for (_, _, data) in &d.buffer {
                bytes.extend_from_slice(data);
            }
            let lba = u64::from(seg) * u64::from(d.config.segment_blocks) * SECTORS_PER_BLOCK;
            if partial {
                d.lfs_stats.sync_partial_flushes += 1;
            } else {
                d.lfs_stats.segments_written += 1;
            }
            d.pending += 1;
            (Rc::clone(&d.stack), d.dev, lba, bytes, seg, entries)
        };
        let fs = self.clone();
        let io_done = sim.completion(move |sim: &mut Simulator, del: Delivered<IoDone>| {
            if let Err(e) = del {
                // The device failed the flush: release the flush slot and
                // fail the host's token instead of leaking it. The
                // buffered blocks stay buffered (they were never durable).
                {
                    let mut d = fs.inner.borrow_mut();
                    d.flush_in_flight = false;
                    d.pending -= 1;
                }
                on_done.fail(sim, e);
                return;
            }
            {
                let mut d = fs.inner.borrow_mut();
                // Record slot liveness and repoint the block maps.
                let mut slots = Vec::with_capacity(entries.len());
                for (off, &(file, block)) in entries.iter().enumerate() {
                    let live = d.files[file as usize]
                        .as_ref()
                        .map(|f| f.map.get(block) == Some(&BlockAddr::Buffered(off as u32)))
                        .unwrap_or(false);
                    if live {
                        d.files[file as usize].as_mut().expect("checked live").map[block] =
                            BlockAddr::OnDisk {
                                seg,
                                off: off as u32,
                            };
                        slots.push(Some((file, block)));
                    } else {
                        slots.push(None);
                    }
                }
                d.segments[seg as usize] = Some(Segment { slots });
                d.buffer.drain(..entries.len());
                // Re-point any blocks still buffered (written while the
                // flush was in flight).
                let remap: Vec<(u32, usize, u32)> = d
                    .buffer
                    .iter()
                    .enumerate()
                    .map(|(i, (f, b, _))| (*f, *b, i as u32))
                    .collect();
                for (f, b, i) in remap {
                    if let Some(file) = d.files[f as usize].as_mut() {
                        if matches!(file.map.get(b), Some(BlockAddr::Buffered(_))) {
                            file.map[b] = BlockAddr::Buffered(i);
                        }
                    }
                }
                // Advance to a free segment.
                if let Some(next) = Self::first_free_segment(&d) {
                    d.current_seg = next;
                }
                d.flush_in_flight = false;
                d.pending -= 1;
            }
            on_done.complete(sim, Ok(()));
        });
        // A rejected submission (power loss) cancels `io_done`; the
        // handler above then releases the flush slot and cancels the
        // host's token — no leak either way.
        let _ = stack.write(sim, dev, lba, bytes, io_done);
    }

    /// Cleans up to `max_segments` of the deadest segments: reads their
    /// live blocks, re-appends them to the log, and frees the segments.
    /// `done` is delivered when the pass (including the forced re-append
    /// flush) completes, or cancelled on device teardown.
    pub fn clean(
        &self,
        sim: &mut Simulator,
        max_segments: u32,
        done: Completion<Result<(), FsError>>,
    ) {
        // Pick victims by live ratio.
        let victims: Vec<u32> = {
            let d = self.inner.borrow();
            let mut scored: Vec<(usize, usize)> = d
                .segments
                .iter()
                .enumerate()
                .filter_map(|(i, s)| {
                    if i as u32 == d.current_seg {
                        return None;
                    }
                    s.as_ref()
                        .map(|seg| (i, seg.slots.iter().filter(|x| x.is_some()).count()))
                })
                .collect();
            scored.sort_by_key(|&(_, live)| live);
            scored
                .into_iter()
                .take(max_segments as usize)
                .map(|(i, _)| i as u32)
                .collect()
        };
        self.clean_next(sim, victims, 0, done);
    }

    fn clean_next(
        &self,
        sim: &mut Simulator,
        victims: Vec<u32>,
        next: usize,
        done: Completion<Result<(), FsError>>,
    ) {
        if next >= victims.len() {
            // Force the re-appended blocks out so the pass's I/O is fully
            // accounted.
            self.flush_segment(sim, true, done);
            return;
        }
        let seg = victims[next];
        let (stack, dev, lba, nblocks, live) = {
            let mut d = self.inner.borrow_mut();
            let Some(segment) = d.segments[seg as usize].take() else {
                drop(d);
                self.clean_next(sim, victims, next + 1, done);
                return;
            };
            let live: Vec<(u32, (u32, usize))> = segment
                .slots
                .iter()
                .enumerate()
                .filter_map(|(off, s)| s.map(|fb| (off as u32, fb)))
                .collect();
            if live.is_empty() {
                // Nothing live: the segment is free without any I/O.
                d.lfs_stats.segments_cleaned += 1;
                drop(d);
                self.clean_next(sim, victims, next + 1, done);
                return;
            }
            let nblocks = segment.slots.len() as u32;
            let lba = u64::from(seg) * u64::from(d.config.segment_blocks) * SECTORS_PER_BLOCK;
            d.lfs_stats.segments_cleaned += 1;
            d.lfs_stats.cleaner_read_bytes += u64::from(nblocks) * FS_BLOCK_SIZE as u64;
            d.pending += 1;
            (Rc::clone(&d.stack), d.dev, lba, nblocks, live)
        };
        let fs = self.clone();
        let io_done = sim.completion(move |sim: &mut Simulator, del: Delivered<IoDone>| {
            let res = match del {
                Ok(res) => res,
                Err(e) => {
                    // The device failed mid-clean: release the pending
                    // slot and fail the pass's token.
                    fs.inner.borrow_mut().pending -= 1;
                    return done.fail(sim, e);
                }
            };
            let mut data = res.data.expect("segment read");
            {
                let mut d = fs.inner.borrow_mut();
                for &(off, (file, block)) in &live {
                    // Only re-append if the block still points here
                    // (it may have been overwritten meanwhile).
                    let still = d.files[file as usize]
                        .as_ref()
                        .map(|f| f.map.get(block) == Some(&BlockAddr::OnDisk { seg, off }))
                        .unwrap_or(false);
                    if !still {
                        continue;
                    }
                    let per_block = SECTORS_PER_BLOCK as usize;
                    let bytes = data.sectors(off as usize * per_block, per_block).to_vec();
                    let idx = d.buffer.len() as u32;
                    d.buffer.push((file, block, bytes));
                    d.files[file as usize].as_mut().expect("checked live").map[block] =
                        BlockAddr::Buffered(idx);
                    d.lfs_stats.cleaner_rewritten_bytes += FS_BLOCK_SIZE as u64;
                }
                d.pending -= 1;
            }
            fs.clean_next(sim, victims, next + 1, done);
        });
        let _ = stack.read(sim, dev, lba, nblocks * SECTORS_PER_BLOCK as u32, io_done);
    }
}

impl FileSystem for Lfs {
    fn create(&self, name: &str) -> Result<FileHandle, FsError> {
        let mut d = self.inner.borrow_mut();
        if name.is_empty() || name.len() > 64 {
            return Err(FsError::InvalidArgument);
        }
        if d.dir.contains_key(name) {
            return Err(FsError::FileExists);
        }
        let ino = match d.files.iter().position(Option::is_none) {
            Some(i) => {
                d.files[i] = Some(File::default());
                i as u32
            }
            None => {
                d.files.push(Some(File::default()));
                (d.files.len() - 1) as u32
            }
        };
        d.dir.insert(name.to_string(), ino);
        Ok(FileHandle(ino))
    }

    fn open(&self, name: &str) -> Result<FileHandle, FsError> {
        let d = self.inner.borrow();
        d.dir
            .get(name)
            .map(|&i| FileHandle(i))
            .ok_or(FsError::NoSuchFile)
    }

    fn delete(&self, name: &str) -> Result<(), FsError> {
        let mut d = self.inner.borrow_mut();
        let ino = *d.dir.get(name).ok_or(FsError::NoSuchFile)?;
        d.dir.remove(name);
        let file = d.files[ino as usize].take().ok_or(FsError::BadHandle)?;
        // Kill the segment slots the file occupied.
        for addr in &file.map {
            if let BlockAddr::OnDisk { seg, off } = addr {
                if let Some(s) = d.segments[*seg as usize].as_mut() {
                    s.slots[*off as usize] = None;
                }
            }
        }
        Ok(())
    }

    fn file_size(&self, file: FileHandle) -> Result<u64, FsError> {
        let d = self.inner.borrow();
        d.files
            .get(file.0 as usize)
            .and_then(Option::as_ref)
            .map(|f| f.size)
            .ok_or(FsError::BadHandle)
    }

    fn write(
        &self,
        sim: &mut Simulator,
        file: FileHandle,
        offset: u64,
        data: Vec<u8>,
        sync: bool,
        done: Completion<Result<(), FsError>>,
    ) -> Result<(), FsError> {
        let buffer_full = {
            let mut d = self.inner.borrow_mut();
            if data.is_empty() || !offset.is_multiple_of(FS_BLOCK_SIZE as u64) {
                return Err(FsError::InvalidArgument);
            }
            if d.files
                .get(file.0 as usize)
                .and_then(Option::as_ref)
                .is_none()
            {
                return Err(FsError::BadHandle);
            }
            // Reject before touching any state: buffering would kill the
            // blocks' previous locations for a write that cannot land.
            if !Self::ensure_free_segment(&mut d) {
                return Err(FsError::NoSpace);
            }
            let first = (offset / FS_BLOCK_SIZE as u64) as usize;
            let nblocks = data.len().div_ceil(FS_BLOCK_SIZE);
            for i in 0..nblocks {
                let from = i * FS_BLOCK_SIZE;
                let to = ((i + 1) * FS_BLOCK_SIZE).min(data.len());
                let mut bytes = data[from..to].to_vec();
                bytes.resize(FS_BLOCK_SIZE, 0);
                // Kill the previous location.
                let prev = {
                    let f = d.files[file.0 as usize].as_mut().expect("checked");
                    while f.map.len() <= first + i {
                        f.map.push(BlockAddr::Hole);
                    }
                    f.map[first + i]
                };
                if let BlockAddr::OnDisk { seg, off } = prev {
                    if let Some(s) = d.segments[seg as usize].as_mut() {
                        s.slots[off as usize] = None;
                    }
                }
                let idx = d.buffer.len() as u32;
                d.buffer.push((file.0, first + i, bytes));
                d.files[file.0 as usize].as_mut().expect("checked").map[first + i] =
                    BlockAddr::Buffered(idx);
            }
            let end = offset + data.len() as u64;
            let f = d.files[file.0 as usize].as_mut().expect("checked");
            if end > f.size {
                f.size = end;
            }
            if sync {
                d.stats.sync_writes += 1;
            } else {
                d.stats.async_writes += 1;
            }
            d.stats.bytes_written += data.len() as u64;
            d.buffer.len() as u32 >= d.config.segment_blocks
        };
        if sync {
            // A synchronous write cannot batch: force the partial segment.
            self.flush_segment(sim, true, done);
        } else if buffer_full {
            let flush_done = sim.completion(|_, _: Delivered<Result<(), FsError>>| {});
            self.flush_segment(sim, false, flush_done);
            done.complete(sim, Ok(()));
        } else {
            done.complete(sim, Ok(()));
        }
        Ok(())
    }

    fn read(
        &self,
        sim: &mut Simulator,
        file: FileHandle,
        offset: u64,
        len: usize,
        done: Completion<Result<Vec<u8>, FsError>>,
    ) -> Result<(), FsError> {
        let (plan, take) = {
            let mut d = self.inner.borrow_mut();
            if !offset.is_multiple_of(FS_BLOCK_SIZE as u64) || len == 0 {
                return Err(FsError::InvalidArgument);
            }
            let size = d
                .files
                .get(file.0 as usize)
                .and_then(Option::as_ref)
                .map(|f| f.size)
                .ok_or(FsError::BadHandle)?;
            if offset >= size {
                return Err(FsError::InvalidArgument);
            }
            let take = len.min((size - offset) as usize);
            let first = (offset / FS_BLOCK_SIZE as u64) as usize;
            let nblocks = take.div_ceil(FS_BLOCK_SIZE);
            let f = d.files[file.0 as usize].as_ref().expect("checked");
            let plan: Vec<BlockAddr> = (first..first + nblocks)
                .map(|i| f.map.get(i).copied().unwrap_or(BlockAddr::Hole))
                .collect();
            d.stats.reads += 1;
            d.pending += 1;
            (plan, take)
        };
        self.gather(sim, plan, Vec::new(), take, done);
        Ok(())
    }

    fn pending_work(&self) -> usize {
        let d = self.inner.borrow();
        d.pending + d.stack.pending_work()
    }

    fn stats(&self) -> FsStats {
        self.inner.borrow().stats
    }
}

impl Lfs {
    fn gather(
        &self,
        sim: &mut Simulator,
        plan: Vec<BlockAddr>,
        mut acc: Vec<u8>,
        take: usize,
        done: Completion<Result<Vec<u8>, FsError>>,
    ) {
        if acc.len() >= take || acc.len() / FS_BLOCK_SIZE >= plan.len() {
            acc.truncate(take);
            self.inner.borrow_mut().pending -= 1;
            done.complete(sim, Ok(acc));
            return;
        }
        let addr = plan[acc.len() / FS_BLOCK_SIZE];
        match addr {
            BlockAddr::Hole => {
                acc.extend_from_slice(&[0u8; FS_BLOCK_SIZE]);
                self.gather(sim, plan, acc, take, done);
            }
            BlockAddr::Buffered(idx) => {
                let bytes = self.inner.borrow().buffer[idx as usize].2.clone();
                acc.extend_from_slice(&bytes);
                self.gather(sim, plan, acc, take, done);
            }
            BlockAddr::OnDisk { seg, off } => {
                let (stack, dev, lba) = {
                    let d = self.inner.borrow();
                    let lba = (u64::from(seg) * u64::from(d.config.segment_blocks)
                        + u64::from(off))
                        * SECTORS_PER_BLOCK;
                    (Rc::clone(&d.stack), d.dev, lba)
                };
                let fs = self.clone();
                let io_done = sim.completion(move |sim: &mut Simulator, del: Delivered<IoDone>| {
                    let res = match del {
                        Ok(res) => res,
                        Err(e) => {
                            fs.inner.borrow_mut().pending -= 1;
                            return done.fail(sim, e);
                        }
                    };
                    let data = res.data.expect("read data");
                    let mut acc = acc;
                    let at = acc.len();
                    acc.resize(at + data.len(), 0);
                    data.copy_to(&mut acc[at..]);
                    fs.gather(sim, plan, acc, take, done);
                });
                let _ = stack.read(sim, dev, lba, SECTORS_PER_BLOCK as u32, io_done);
            }
        }
    }
}
