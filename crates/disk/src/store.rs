//! The recording medium: a sparse, sector-atomic, content-addressed byte
//! store.
//!
//! Sectors are the atomic persistence unit: a power failure either persists
//! a sector completely or not at all (torn *multi*-sector writes are the
//! interesting failure mode; torn intra-sector writes are prevented by drive
//! ECC on the hardware the paper targets).
//!
//! Every byte written reads back exactly, but each *distinct* sector image
//! is kept once: a paged index maps an LBA to a slot in a pool of images, a
//! 64-bit content hash finds an existing identical image, and slots are
//! reference-counted. The layout is sized for what Trail writes — short
//! runs scattered over the platter, each led by a unique, mostly-zero
//! header sector: an index page is one cache line, and an image whose
//! second half is zero occupies half a slot. Workloads whose payloads
//! repeat (trace replays carry synthetic fills, logs carry padding) cost
//! about six index bytes per densely written LBA instead of 512; workloads
//! whose payloads are unique cost what a plain `LBA → bytes` map would.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::mem::size_of;
use std::ops::Range;

use crate::geometry::{Lba, SECTOR_SIZE};

/// One sector's payload.
pub type SectorBuf = [u8; SECTOR_SIZE];

/// Images per pool chunk (8 KB of whole sectors, 4 KB of short ones). A
/// class of the pool grows one chunk at a time and a chunk never moves, so
/// a stored image is written once and growth never copies the medium.
/// Small enough that the first write to a fresh disk (every crash point
/// boots several) asks for no more memory than its index page, one chunk
/// of each class and a few table entries: about 16 KB.
const CHUNK_SLOTS: usize = 16;

/// Bytes kept for an image whose remaining bytes are all zero. Trail's
/// record headers, the most numerous unique images a log disk holds, end
/// well before it.
const SHORT_BYTES: usize = SECTOR_SIZE / 2;

/// LBAs per index page: 16 entries of four bytes, one cache line. A page
/// exists once any of its LBAs is written, so a densely written region
/// costs four index bytes per sector plus its share of a table entry, and
/// an isolated write under a hundred.
const PAGE_LBAS: u64 = 16;

/// Index pages per slab chunk (4 KB). Like the pool, the slab grows a
/// chunk at a time and never moves a page.
const SLAB_PAGES: usize = 64;

/// The index entry of an LBA that was never written. Zero, so fresh slab
/// chunks come zeroed from the allocator and a page of memory is first
/// touched when an LBA on it is first written.
const UNWRITTEN: u32 = 0;

type IndexPage = [u32; PAGE_LBAS as usize];

/// The two slot classes of the pool (see [`Image`]), as the low bit of an
/// index entry.
const FULL: usize = 0;
const SHORT: usize = 1;

/// Slot numbers a class can hand out: an entry is a `u32` that spends one
/// bit on the class and the value zero on [`UNWRITTEN`].
const MAX_SLOTS: usize = (u32::MAX >> 1) as usize;

/// The index entry naming slot `number` of `class`.
fn entry_of(class: usize, number: usize) -> u32 {
    ((number as u32 + 1) << 1) | class as u32
}

/// The `(class, number)` a written entry names.
fn slot_of(entry: u32) -> (usize, usize) {
    debug_assert_ne!(entry >> 1, 0, "entry names no slot");
    ((entry & 1) as usize, (entry >> 1) as usize - 1)
}

/// The hasher of both maps below: one multiplication. Their keys are an
/// index-page number and a content hash that is already mixed, neither of
/// them chosen by anyone outside the process, so SipHash's keyed rounds
/// buy nothing here; the odd multiplier keeps consecutive page numbers in
/// consecutive buckets and spreads them over the table's tag bits, which
/// it reads from the top of the hash.
#[derive(Clone, Copy, Default)]
struct MulHasher(u64);

impl Hasher for MulHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the medium's maps are keyed by u64");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type MediumMap<K, V> = HashMap<K, V, BuildHasherDefault<MulHasher>>;

/// Bytes a `HashMap<K, V>` of this capacity keeps allocated: one `(K, V)`
/// bucket plus one control byte per slot at 7/8 load. An estimate of the
/// standard library's layout, good to a few percent.
fn map_bytes<K, V>(map: &MediumMap<K, V>) -> usize {
    map.capacity() * 8 / 7 * (size_of::<(K, V)>() + 1)
}

/// The default content hash: four interleaved multiply-rotate lanes over
/// the sector's 64 little-endian words, folded at the end. Quality only
/// affects how often identical images are found; see [`Pool::acquire`].
fn content_hash(data: &SectorBuf) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut lanes = [K, K.rotate_left(16), K.rotate_left(32), K.rotate_left(48)];
    for block in data.chunks_exact(32) {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().expect("chunk is exactly 8 bytes"));
            *lane = (*lane ^ word).wrapping_mul(K).rotate_left(29);
        }
    }
    lanes.iter().fold(0, |h, lane| {
        let h = (h ^ lane).wrapping_mul(K);
        h ^ (h >> 32)
    })
}

/// An index-page number in two halves, so that a table bucket is twelve
/// bytes instead of the sixteen a `u64` key would align it to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PageNo {
    high: u32,
    low: u32,
}

impl PageNo {
    fn of(lba: Lba) -> Self {
        let number = lba / PAGE_LBAS;
        PageNo {
            high: (number >> 32) as u32,
            low: number as u32,
        }
    }

    fn number(self) -> u64 {
        (u64::from(self.high) << 32) | u64::from(self.low)
    }
}

impl Hash for PageNo {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.number());
    }
}

/// The LBA index: one page of entries per [`PAGE_LBAS`] LBAs of which any
/// was written, kept in a slab and found through a table of positions.
#[derive(Clone, Debug, Default)]
struct Index {
    // Page number → the page's position in `slab`. Pages are handed out
    // in order and never returned, so the positions are `0..at.len()`.
    at: MediumMap<PageNo, u32>,
    slab: Vec<Box<[IndexPage]>>,
}

impl Index {
    fn page(&self, lba: Lba) -> Option<&IndexPage> {
        let at = *self.at.get(&PageNo::of(lba))? as usize;
        Some(&self.slab[at / SLAB_PAGES][at % SLAB_PAGES])
    }

    /// The page of `lba`, created with every entry [`UNWRITTEN`] if no LBA
    /// on it was written before.
    fn page_mut(&mut self, lba: Lba) -> &mut IndexPage {
        let next = self.at.len();
        let at = *self
            .at
            .entry(PageNo::of(lba))
            .or_insert_with(|| u32::try_from(next).expect("index is out of page positions"))
            as usize;
        if at == self.slab.len() * SLAB_PAGES {
            self.slab
                .push(vec![[UNWRITTEN; PAGE_LBAS as usize]; SLAB_PAGES].into_boxed_slice());
        }
        &mut self.slab[at / SLAB_PAGES][at % SLAB_PAGES]
    }

    fn bytes(&self) -> usize {
        self.slab.len() * SLAB_PAGES * size_of::<IndexPage>()
            + self.slab.capacity() * size_of::<Box<[IndexPage]>>()
            + map_bytes(&self.at)
    }
}

/// Splits `count` sectors starting at `lba` into one run per index page
/// they cross: the first LBA of the run and the entries it covers within
/// its page.
fn page_runs(lba: Lba, count: u64) -> impl Iterator<Item = (Lba, Range<usize>)> {
    let (mut at, mut left) = (lba, count);
    std::iter::from_fn(move || {
        if left == 0 {
            return None;
        }
        let first = at % PAGE_LBAS;
        let run = (PAGE_LBAS - first).min(left);
        let item = (at, first as usize..(first + run) as usize);
        at += run;
        left -= run;
        Some(item)
    })
}

/// One slot class of the pool: images of `N` bytes. A slot is live while
/// `refs[slot]` LBAs point at it and is recycled through `free` afterwards.
#[derive(Clone, Debug, Default)]
struct Slots<const N: usize> {
    // `CHUNK_SLOTS` images each, as bytes so that a chunk comes zeroed
    // from the allocator and is first touched when an image lands on it.
    chunks: Vec<Box<[u8]>>,
    // Per allocated slot: how many LBAs hold it, and its image's hash (so
    // a release can drop the `by_hash` entry without rehashing the image).
    refs: Vec<u32>,
    hashes: Vec<u64>,
    free: Vec<u32>,
}

impl<const N: usize> Slots<N> {
    fn image(&self, slot: usize) -> &[u8; N] {
        &self.chunks[slot / CHUNK_SLOTS].as_chunks().0[slot % CHUNK_SLOTS]
    }

    /// Whether `slot` already holds exactly `image`.
    fn holds(&self, slot: usize, hash: u64, image: &[u8; N]) -> bool {
        self.hashes[slot] == hash && self.image(slot) == image
    }

    /// A slot holding `image` under one reference: a recycled one if any
    /// is free, else the next of the newest chunk.
    fn take(&mut self, hash: u64, image: &[u8; N]) -> usize {
        let slot = match self.free.pop() {
            Some(slot) => slot as usize,
            None => {
                let slot = self.refs.len();
                assert!(slot < MAX_SLOTS, "pool is out of slot numbers");
                if slot == self.chunks.len() * CHUNK_SLOTS {
                    self.chunks
                        .push(vec![0u8; CHUNK_SLOTS * N].into_boxed_slice());
                }
                self.refs.push(0);
                self.hashes.push(0);
                slot
            }
        };
        self.chunks[slot / CHUNK_SLOTS].as_chunks_mut().0[slot % CHUNK_SLOTS] = *image;
        self.refs[slot] = 1;
        self.hashes[slot] = hash;
        slot
    }

    /// Drops one reference to `slot`; the last one frees it and returns
    /// the hash its image was kept under.
    fn release(&mut self, slot: usize) -> Option<u64> {
        self.refs[slot] -= 1;
        (self.refs[slot] == 0).then(|| {
            self.free.push(slot as u32);
            self.hashes[slot]
        })
    }

    fn live(&self) -> usize {
        self.refs.len() - self.free.len()
    }

    fn bytes(&self) -> usize {
        self.chunks.len() * CHUNK_SLOTS * N
            + self.chunks.capacity() * size_of::<Box<[u8]>>()
            + self.refs.capacity() * size_of::<u32>()
            + self.hashes.capacity() * size_of::<u64>()
            + self.free.capacity() * size_of::<u32>()
    }
}

/// A sector image as the pool keeps it: whole, or its first half when the
/// second half is zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Image<'a> {
    Full(&'a SectorBuf),
    Short(&'a [u8; SHORT_BYTES]),
}

impl<'a> Image<'a> {
    fn of(data: &'a SectorBuf) -> Self {
        match data.split_first_chunk() {
            Some((head, tail)) if tail == [0u8; SECTOR_SIZE - SHORT_BYTES] => Image::Short(head),
            _ => Image::Full(data),
        }
    }

    /// The sector this is the image of. (Reads of one sector return it by
    /// value; writing through [`copy_to`](Self::copy_to) into a zeroed
    /// local first is measurably slower there.)
    fn sector(self) -> SectorBuf {
        match self {
            Image::Full(bytes) => *bytes,
            Image::Short(bytes) => {
                let mut padded = [0u8; SECTOR_SIZE];
                padded[..SHORT_BYTES].copy_from_slice(bytes);
                padded
            }
        }
    }

    /// Writes the sector this is the image of into a caller's buffer.
    fn copy_to(self, out: &mut SectorBuf) {
        match self {
            Image::Full(bytes) => *out = *bytes,
            Image::Short(bytes) => {
                let (head, tail) = out.split_at_mut(SHORT_BYTES);
                head.copy_from_slice(bytes);
                tail.fill(0);
            }
        }
    }
}

/// The pool of distinct sector images, one class of slots per kind of
/// [`Image`]. The class of an image follows from its bytes, so equal
/// images always meet in one class.
#[derive(Clone, Debug)]
struct Pool {
    full: Slots<SECTOR_SIZE>,
    short: Slots<SHORT_BYTES>,
    // Content hash → the index entry of the one slot registered under it.
    // Only ever names a live slot whose image has that hash.
    by_hash: MediumMap<u64, u32>,
    hash: fn(&SectorBuf) -> u64,
}

impl Pool {
    fn new(hash: fn(&SectorBuf) -> u64) -> Self {
        Pool {
            full: Slots::default(),
            short: Slots::default(),
            by_hash: MediumMap::default(),
            hash,
        }
    }

    /// The image `entry` names; none if its LBA was never written.
    fn image(&self, entry: u32) -> Option<Image<'_>> {
        (entry != UNWRITTEN).then(|| match slot_of(entry) {
            (FULL, slot) => Image::Full(self.full.image(slot)),
            (_, slot) => Image::Short(self.short.image(slot)),
        })
    }

    /// Whether `entry`'s slot already holds exactly `image`.
    fn holds(&self, entry: u32, hash: u64, image: Image) -> bool {
        match (slot_of(entry), image) {
            ((FULL, slot), Image::Full(bytes)) => self.full.holds(slot, hash, bytes),
            ((SHORT, slot), Image::Short(bytes)) => self.short.holds(slot, hash, bytes),
            _ => false,
        }
    }

    /// Makes `entry` name a slot holding `data`; returns whether the LBA
    /// it belongs to was unwritten before.
    fn write(&mut self, entry: &mut u32, data: &SectorBuf) -> bool {
        let hash = (self.hash)(data);
        let image = Image::of(data);
        let fresh = *entry == UNWRITTEN;
        if !fresh {
            if self.holds(*entry, hash, image) {
                return false;
            }
            // Release first: a sole owner's slot is recycled for the new
            // image (if it is of the same class) instead of growing the
            // pool.
            self.release(*entry);
        }
        *entry = self.acquire(hash, image);
        fresh
    }

    /// Returns the entry of a slot holding `image`, with one more
    /// reference on it: the slot registered under `hash` if it is of the
    /// same class and its stored bytes compare equal, else a fresh one.
    /// Two different images with one hash therefore never share a slot;
    /// the second merely stays unregistered, so a later copy of it misses
    /// the share — a collision costs memory, never a wrong byte.
    fn acquire(&mut self, hash: u64, image: Image) -> u32 {
        let registered = self.by_hash.get(&hash).copied();
        if let Some(entry) = registered {
            if self.holds(entry, hash, image) {
                match slot_of(entry) {
                    (FULL, slot) => self.full.refs[slot] += 1,
                    (_, slot) => self.short.refs[slot] += 1,
                }
                return entry;
            }
        }
        let entry = match image {
            Image::Full(bytes) => entry_of(FULL, self.full.take(hash, bytes)),
            Image::Short(bytes) => entry_of(SHORT, self.short.take(hash, bytes)),
        };
        if registered.is_none() {
            self.by_hash.insert(hash, entry);
        }
        entry
    }

    /// Drops one reference; the last one frees the slot and its `by_hash`
    /// entry, so a recycled slot can never be found under its old hash.
    fn release(&mut self, entry: u32) {
        let freed = match slot_of(entry) {
            (FULL, slot) => self.full.release(slot),
            (_, slot) => self.short.release(slot),
        };
        let Some(hash) = freed else { return };
        // An unregistered (collided) slot leaves the entry to its owner.
        if let Entry::Occupied(e) = self.by_hash.entry(hash) {
            if *e.get() == entry {
                e.remove();
            }
        }
    }
}

/// A sparse map from LBA to sector contents. Unwritten sectors read as
/// zeros, matching a freshly formatted drive.
///
/// # Examples
///
/// ```
/// use trail_disk::{SectorStore, SECTOR_SIZE};
///
/// let mut s = SectorStore::new(100);
/// assert_eq!(s.read_sector(5), [0u8; SECTOR_SIZE]);
/// s.write_sector(5, &[7u8; SECTOR_SIZE]);
/// s.write_sector(6, &[7u8; SECTOR_SIZE]);
/// assert_eq!(s.read_sector(5)[0], 7);
/// // Two written sectors, one stored image.
/// assert_eq!((s.written_sectors(), s.distinct_sectors()), (2, 1));
/// ```
#[derive(Clone, Debug)]
pub struct SectorStore {
    index: Index,
    written: usize,
    pool: Pool,
    capacity: u64,
}

impl Default for SectorStore {
    fn default() -> Self {
        SectorStore::new(0)
    }
}

impl SectorStore {
    /// Creates an all-zero store of `capacity` sectors.
    pub fn new(capacity: u64) -> Self {
        Self::with_hash(capacity, content_hash)
    }

    /// A store that finds identical images with `hash` instead of the
    /// default content hash; tests pass a degenerate one to force every
    /// image to collide.
    fn with_hash(capacity: u64, hash: fn(&SectorBuf) -> u64) -> Self {
        SectorStore {
            index: Index::default(),
            written: 0,
            pool: Pool::new(hash),
            capacity,
        }
    }

    /// The store's capacity in sectors.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The number of sectors that have ever been written.
    pub fn written_sectors(&self) -> usize {
        self.written
    }

    /// The number of sector images the pool holds for them: the distinct
    /// contents among the written sectors (a hash collision, which keeps
    /// two equal images apart, can only make it larger).
    pub fn distinct_sectors(&self) -> usize {
        self.pool.full.live() + self.pool.short.live()
    }

    /// How many of the [`distinct_sectors`](Self::distinct_sectors) are
    /// kept in half a slot because their second half is zero.
    pub fn short_images(&self) -> usize {
        self.pool.short.live()
    }

    /// Host memory the LBA index keeps allocated, in bytes: the slab of
    /// pages and the table that finds them (estimated from its capacity).
    pub fn index_bytes(&self) -> usize {
        self.index.bytes()
    }

    /// Host memory the image pool keeps allocated, in bytes: chunks of
    /// both classes, reference counts, hashes, free lists and the content
    /// hash table (estimated from its capacity).
    pub fn pool_bytes(&self) -> usize {
        self.pool.full.bytes() + self.pool.short.bytes() + map_bytes(&self.pool.by_hash)
    }

    /// Host memory the medium keeps allocated, in bytes:
    /// [`index_bytes`](Self::index_bytes) plus
    /// [`pool_bytes`](Self::pool_bytes).
    pub fn resident_bytes(&self) -> usize {
        self.index_bytes() + self.pool_bytes()
    }

    /// Checks that a buffer of `bytes` bytes read or written at `lba` is
    /// whole sectors within capacity.
    fn check_range(&self, what: &str, lba: Lba, bytes: usize) {
        assert!(
            bytes.is_multiple_of(SECTOR_SIZE),
            "{what} buffer must be sector-aligned, got {bytes} bytes"
        );
        let count = (bytes / SECTOR_SIZE) as u64;
        assert!(
            lba.checked_add(count)
                .is_some_and(|end| end <= self.capacity),
            "{what} beyond capacity: lba {lba} count {count}"
        );
    }

    /// Reads one sector (zeros if never written).
    ///
    /// # Panics
    ///
    /// Panics if `lba` is beyond the capacity.
    pub fn read_sector(&self, lba: Lba) -> SectorBuf {
        self.check_range("read", lba, SECTOR_SIZE);
        let page = self.index.page(lba);
        let image = page.and_then(|page| self.pool.image(page[(lba % PAGE_LBAS) as usize]));
        image.map_or([0u8; SECTOR_SIZE], Image::sector)
    }

    /// Overwrites one sector.
    ///
    /// # Panics
    ///
    /// Panics if `lba` is beyond the capacity.
    pub fn write_sector(&mut self, lba: Lba, data: &SectorBuf) {
        self.write_range(lba, data);
    }

    /// Reads consecutive sectors directly into `out` (one whole number of
    /// sectors), without intermediate per-sector copies. Unwritten sectors
    /// read as zeros. The index is probed once per page the range crosses.
    ///
    /// This is the borrowed-read primitive the data path is built on:
    /// callers that already own a destination buffer (device DMA targets,
    /// file-system block caches) fill it in place instead of paying
    /// [`read_range`](Self::read_range)'s allocation.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not a whole number of sectors or the range
    /// exceeds the capacity.
    pub fn read_into(&self, lba: Lba, out: &mut [u8]) {
        self.check_range("read", lba, out.len());
        let mut sectors = out.as_chunks_mut::<SECTOR_SIZE>().0;
        for (at, within) in page_runs(lba, sectors.len() as u64) {
            let (run, rest) = sectors.split_at_mut(within.len());
            sectors = rest;
            match self.index.page(at) {
                Some(page) => {
                    for (entry, sector) in page[within].iter().zip(run) {
                        match self.pool.image(*entry) {
                            Some(image) => image.copy_to(sector),
                            None => sector.fill(0),
                        }
                    }
                }
                None => run.as_flattened_mut().fill(0),
            }
        }
    }

    /// Reads `count` consecutive sectors into one contiguous buffer.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the capacity.
    pub fn read_range(&self, lba: Lba, count: u32) -> Vec<u8> {
        let mut out = vec![0u8; count as usize * SECTOR_SIZE];
        self.read_into(lba, &mut out);
        out
    }

    /// Writes a contiguous buffer as consecutive sectors, probing the
    /// index once per page the range crosses.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a whole number of sectors or the range
    /// exceeds the capacity; nothing is written then.
    pub fn write_range(&mut self, lba: Lba, data: &[u8]) {
        self.check_range("write", lba, data.len());
        let mut sectors = data.as_chunks::<SECTOR_SIZE>().0;
        for (at, within) in page_runs(lba, sectors.len() as u64) {
            let (run, rest) = sectors.split_at(within.len());
            sectors = rest;
            let page = self.index.page_mut(at);
            for (entry, sector) in page[within].iter_mut().zip(run) {
                self.written += usize::from(self.pool.write(entry, sector));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The index entry of `lba` (`UNWRITTEN` if it was never written).
    fn entry_at(s: &SectorStore, lba: Lba) -> u32 {
        s.index
            .page(lba)
            .map_or(UNWRITTEN, |page| page[(lba % PAGE_LBAS) as usize])
    }

    /// The refcounts of both classes, `[FULL, SHORT]`.
    fn refs(s: &SectorStore) -> [Vec<u32>; 2] {
        [s.pool.full.refs.clone(), s.pool.short.refs.clone()]
    }

    /// What one slot class relies on; `pointed[slot]` is how many LBAs
    /// the index has pointing at `slot`. Returns their total.
    fn check_class<const N: usize>(slots: &Slots<N>, pointed: &[u32]) -> u64 {
        assert_eq!(slots.refs.len(), slots.hashes.len());
        assert!(slots.refs.len() <= slots.chunks.len() * CHUNK_SLOTS);
        assert!(slots.chunks.iter().all(|c| c.len() == CHUNK_SLOTS * N));
        assert_eq!(pointed, slots.refs, "refcount = LBAs pointing at the slot");
        let mut free = slots.free.clone();
        free.sort_unstable();
        free.dedup();
        assert_eq!(free.len(), slots.free.len(), "no slot is free twice");
        let dead: Vec<u32> = (0..slots.refs.len() as u32)
            .filter(|&slot| slots.refs[slot as usize] == 0)
            .collect();
        assert_eq!(free, dead, "exactly the unreferenced slots are free");
        assert_eq!(slots.live(), slots.refs.len() - dead.len());
        slots.refs.iter().map(|&r| u64::from(r)).sum()
    }

    /// Every structural condition the index and the pool rely on.
    fn check_invariants(s: &SectorStore) {
        // The slab: map values are exactly the positions handed out so
        // far, and nothing beyond them was touched.
        let ix = &s.index;
        let mut positions: Vec<u32> = ix.at.values().copied().collect();
        positions.sort_unstable();
        let handed_out: Vec<u32> = (0..ix.at.len() as u32).collect();
        assert_eq!(positions, handed_out, "map values are distinct slab pages");
        assert!(ix.at.len() <= ix.slab.len() * SLAB_PAGES);
        assert!(ix.slab.iter().all(|chunk| chunk.len() == SLAB_PAGES));
        let unused = ix.slab.iter().flatten().skip(ix.at.len());
        assert!(unused.flatten().all(|&e| e == UNWRITTEN));

        // Every written LBA names a slot of the class its bytes belong
        // in, and reads back as that slot's image, zero-padded.
        let p = &s.pool;
        let mut pointed = refs(s).map(|refs| vec![0u32; refs.len()]);
        for (page_no, &at) in &ix.at {
            let page = &ix.slab[at as usize / SLAB_PAGES][at as usize % SLAB_PAGES];
            for (i, &entry) in page.iter().enumerate() {
                if entry == UNWRITTEN {
                    continue;
                }
                let (class, slot) = slot_of(entry);
                pointed[class][slot] += 1;
                let read = s.read_sector(page_no.number() * PAGE_LBAS + i as u64);
                let kept = p.image(entry).expect("written");
                assert_eq!(Image::of(&read), kept, "a read is the kept image, padded");
                assert_eq!(matches!(kept, Image::Short(_)), class == SHORT);
            }
        }
        let written = check_class(&p.full, &pointed[FULL]) + check_class(&p.short, &pointed[SHORT]);
        assert_eq!(written, s.written_sectors() as u64, "refcounts sum to LBAs");

        for (&hash, &entry) in &p.by_hash {
            let (live, kept_under) = match slot_of(entry) {
                (FULL, slot) => (p.full.refs[slot], p.full.hashes[slot]),
                (_, slot) => (p.short.refs[slot], p.short.hashes[slot]),
            };
            assert!(live > 0, "hash entry names a live slot");
            assert_eq!(kept_under, hash);
            let kept = p.image(entry).expect("registered");
            assert_eq!((p.hash)(&kept.sector()), hash);
        }
        assert_eq!(s.distinct_sectors(), p.full.live() + p.short.live());
        assert_eq!(s.short_images(), p.short.live());
        assert_eq!(s.resident_bytes(), s.index_bytes() + s.pool_bytes());
    }

    fn image(fill: u8) -> SectorBuf {
        [fill; SECTOR_SIZE]
    }

    /// `fill` up to `len`, zeros after: short once `len <= SHORT_BYTES`.
    fn image_of_len(fill: u8, len: usize) -> SectorBuf {
        let mut img = [0u8; SECTOR_SIZE];
        img[..len].fill(fill);
        img
    }

    #[test]
    fn unwritten_sectors_read_zero() {
        let s = SectorStore::new(10);
        assert_eq!(s.read_sector(9), [0u8; SECTOR_SIZE]);
        assert_eq!(s.written_sectors(), 0);
        assert_eq!(s.distinct_sectors(), 0);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut s = SectorStore::new(10);
        let mut buf = [0u8; SECTOR_SIZE];
        buf[0] = 0xAB;
        buf[511] = 0xCD;
        s.write_sector(3, &buf);
        assert_eq!(s.read_sector(3), buf);
        assert_eq!(s.written_sectors(), 1);
        // Overwrite in place.
        buf[0] = 0xEF;
        s.write_sector(3, &buf);
        assert_eq!(s.read_sector(3)[0], 0xEF);
        assert_eq!(s.written_sectors(), 1);
        check_invariants(&s);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn read_past_capacity_panics() {
        SectorStore::new(10).read_sector(10);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn write_past_capacity_panics() {
        SectorStore::new(10).write_sector(10, &[0u8; SECTOR_SIZE]);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn range_read_past_capacity_panics() {
        SectorStore::new(10).read_range(9, 2);
    }

    #[test]
    fn range_io_round_trips() {
        let mut s = SectorStore::new(10);
        let data: Vec<u8> = (0..3 * SECTOR_SIZE).map(|i| (i % 251) as u8).collect();
        s.write_range(2, &data);
        assert_eq!(s.read_range(2, 3), data);
        // Partially overlapping read sees zeros before the write.
        let r = s.read_range(1, 2);
        assert_eq!(&r[..SECTOR_SIZE], &[0u8; SECTOR_SIZE]);
        assert_eq!(&r[SECTOR_SIZE..], &data[..SECTOR_SIZE]);
    }

    #[test]
    #[should_panic(expected = "sector-aligned")]
    fn unaligned_range_write_panics() {
        SectorStore::new(10).write_range(0, &[1, 2, 3]);
    }

    #[test]
    fn the_last_sector_of_the_largest_store_is_addressable() {
        let mut s = SectorStore::new(u64::MAX);
        s.write_sector(u64::MAX - 1, &image(3));
        assert_eq!(s.read_range(u64::MAX - 2, 2)[SECTOR_SIZE..], image(3));
        check_invariants(&s);
    }

    #[test]
    fn range_io_across_three_pages_equals_the_per_sector_loop() {
        // Starts and ends mid-page and covers the whole page in between.
        let (lba, count) = (PAGE_LBAS - 5, 5 + PAGE_LBAS + 7);
        let data: Vec<u8> = (0..count)
            .flat_map(|i| model_image(i as u8, lba + i))
            .collect();
        let mut ranged = SectorStore::new(100);
        let mut looped = SectorStore::new(100);
        // Something underneath, so the range overwrites, shares and adds.
        for s in [&mut ranged, &mut looped] {
            s.write_range(lba + 3, &data[..4 * SECTOR_SIZE]);
        }
        ranged.write_range(lba, &data);
        for (i, sector) in data.chunks_exact(SECTOR_SIZE).enumerate() {
            looped.write_sector(lba + i as u64, sector.try_into().unwrap());
        }
        assert_eq!(ranged.index.at.len(), 3);
        assert_eq!(ranged.written_sectors(), count as usize);
        assert_eq!(looped.written_sectors(), count as usize);
        assert_eq!(ranged.distinct_sectors(), looped.distinct_sectors());
        let mut into = vec![0xEEu8; data.len()];
        ranged.read_into(lba, &mut into);
        assert_eq!(into, data);
        let per_sector: Vec<u8> = (0..count)
            .flat_map(|i| looped.read_sector(lba + i))
            .collect();
        assert_eq!(per_sector, data);
        // One sector either side of the range is still unwritten.
        assert_eq!(ranged.read_sector(lba - 1), image(0));
        assert_eq!(ranged.read_sector(lba + count), image(0));
        check_invariants(&ranged);
        check_invariants(&looped);
    }

    #[test]
    fn identical_images_share_one_slot() {
        let mut s = SectorStore::new(1000);
        for lba in 0..1000 {
            s.write_sector(lba, &image((lba % 4) as u8));
        }
        assert_eq!(s.written_sectors(), 1000);
        assert_eq!(s.distinct_sectors(), 4);
        // Three whole-sector images and the all-zero one, which is short.
        assert_eq!(s.short_images(), 1);
        assert_eq!(s.pool.full.chunks.len(), 1);
        assert_eq!(s.pool.short.chunks.len(), 1);
        assert_eq!(s.index.at.len(), 1000usize.div_ceil(PAGE_LBAS as usize));
        // An explicitly written zero sector is a written sector like any
        // other, not an unwritten one.
        assert_eq!(s.read_sector(4), image(0));
        assert_ne!(entry_at(&s, 4), UNWRITTEN);
        check_invariants(&s);
    }

    #[test]
    fn overwriting_everything_with_one_image_frees_the_rest() {
        let mut s = SectorStore::new(300);
        for lba in 0..300u64 {
            let mut unique = image(1);
            unique[..8].copy_from_slice(&lba.to_le_bytes());
            s.write_sector(lba, &unique);
        }
        assert_eq!(s.distinct_sectors(), 300);
        let chunks = s.pool.full.chunks.len();
        assert_eq!(chunks, 300usize.div_ceil(CHUNK_SLOTS));
        for lba in 0..300 {
            s.write_sector(lba, &image(9));
        }
        assert_eq!(s.written_sectors(), 300);
        assert_eq!(s.distinct_sectors(), 1);
        assert_eq!(s.pool.full.free.len(), 299);
        assert_eq!(s.pool.by_hash.len(), 1);
        check_invariants(&s);
        // Fresh unique images reuse the freed slots: the pool does not grow.
        for lba in 0..299u64 {
            let mut unique = image(2);
            unique[..8].copy_from_slice(&lba.to_le_bytes());
            s.write_sector(lba, &unique);
        }
        assert_eq!(s.pool.full.chunks.len(), chunks);
        assert!(s.pool.full.free.is_empty());
        assert!(s.pool.short.chunks.is_empty());
        check_invariants(&s);
    }

    #[test]
    fn recycled_slot_is_not_found_under_its_old_hash() {
        let mut s = SectorStore::new(10);
        s.write_sector(0, &image(1));
        let entry = entry_at(&s, 0);
        // The sole owner is overwritten: the slot is recycled for image 2.
        s.write_sector(0, &image(2));
        assert_eq!(entry_at(&s, 0), entry);
        assert!(!s.pool.by_hash.contains_key(&content_hash(&image(1))));
        // Image 1 again must get a slot of its own, not alias the recycled one.
        s.write_sector(1, &image(1));
        assert_ne!(entry_at(&s, 1), entry);
        assert_eq!(s.read_sector(0), image(2));
        assert_eq!(s.read_sector(1), image(1));
        check_invariants(&s);
    }

    #[test]
    fn the_class_boundary_is_the_last_non_zero_byte() {
        let mut s = SectorStore::new(10);
        // Last non-zero byte at offset 255: short. At offset 256: full,
        // though the two agree on their first 256 bytes.
        let (short, full) = (
            image_of_len(7, SHORT_BYTES),
            image_of_len(7, SHORT_BYTES + 1),
        );
        s.write_sector(0, &short);
        s.write_sector(1, &full);
        s.write_sector(2, &short);
        assert_eq!(slot_of(entry_at(&s, 0)).0, SHORT);
        assert_eq!(slot_of(entry_at(&s, 1)).0, FULL);
        assert_eq!(entry_at(&s, 2), entry_at(&s, 0));
        assert_eq!((s.distinct_sectors(), s.short_images()), (2, 1));
        assert_eq!(s.read_sector(0), short);
        assert_eq!(s.read_sector(1), full);
        check_invariants(&s);
        // The same pair under one hash: the prefix compare alone would
        // call them equal, the class keeps them apart.
        let mut c = SectorStore::with_hash(10, |_| 0);
        c.write_sector(0, &full);
        c.write_sector(1, &short);
        assert_eq!(c.read_sector(0), full);
        assert_eq!(c.read_sector(1), short);
        assert_eq!(c.distinct_sectors(), 2);
        check_invariants(&c);
    }

    #[test]
    fn class_changing_overwrite_of_a_sole_owner_frees_its_slot() {
        let mut s = SectorStore::new(10);
        let (short, full) = (image_of_len(1, 150), image(2));
        s.write_sector(0, &short);
        s.write_sector(0, &full);
        assert_eq!(s.read_sector(0), full);
        assert_eq!((s.distinct_sectors(), s.short_images()), (1, 0));
        assert_eq!(s.pool.short.free, [0]);
        assert!(!s.pool.by_hash.contains_key(&content_hash(&short)));
        check_invariants(&s);
        // And back: the freed short slot is the one reused.
        s.write_sector(0, &image_of_len(3, 10));
        assert_eq!(s.read_sector(0), image_of_len(3, 10));
        assert_eq!((s.distinct_sectors(), s.short_images()), (1, 1));
        assert!(s.pool.short.free.is_empty());
        assert_eq!(s.pool.full.free, [0]);
        assert_eq!(s.written_sectors(), 1);
        check_invariants(&s);
    }

    #[test]
    fn rewriting_the_same_bytes_changes_nothing() {
        let mut s = SectorStore::new(10);
        s.write_sector(0, &image(5));
        s.write_sector(1, &image(5));
        let state = |s: &SectorStore| (entry_at(s, 0), entry_at(s, 1), refs(s));
        let before = state(&s);
        s.write_sector(0, &image(5));
        assert_eq!(state(&s), before);
        check_invariants(&s);
    }

    #[test]
    fn colliding_images_stay_byte_exact() {
        // Every image hashes alike: only the first can be registered, the
        // rest must be kept apart by the byte compare.
        let mut s = SectorStore::with_hash(64, |_| 0);
        for lba in 0..64 {
            s.write_sector(lba, &image((lba % 8) as u8));
        }
        for lba in 0..64 {
            assert_eq!(s.read_sector(lba), image((lba % 8) as u8));
        }
        // Image 0 is registered and shared; the other seven are not.
        let (class, slot) = slot_of(entry_at(&s, 0));
        assert_eq!(refs(&s)[class][slot], 8);
        assert_eq!(s.distinct_sectors(), 1 + 7 * 8);
        check_invariants(&s);
        // Freeing the registered slot unregisters the hash; the next image
        // written takes the registration and shares from then on.
        for lba in (0..64).step_by(8) {
            s.write_sector(lba, &image(1));
        }
        for lba in 0..64u64 {
            let fill = if lba % 8 == 0 { 1 } else { (lba % 8) as u8 };
            assert_eq!(s.read_sector(lba), image(fill));
        }
        check_invariants(&s);
    }

    #[test]
    fn clone_is_independent_of_the_original() {
        let mut a = SectorStore::new(300);
        for lba in 0..200 {
            a.write_sector(lba, &image((lba % 3) as u8));
        }
        let mut b = a.clone();
        b.write_sector(0, &image(77));
        b.write_sector(250, &image(78));
        a.write_sector(1, &image(79));
        assert_eq!(a.read_sector(0), image(0));
        assert_eq!(a.read_sector(250), image(0));
        assert_eq!(a.read_sector(1), image(79));
        assert_eq!(b.read_sector(0), image(77));
        assert_eq!(b.read_sector(1), image(1));
        assert_eq!(b.read_sector(250), image(78));
        assert_eq!((a.written_sectors(), b.written_sectors()), (200, 201));
        check_invariants(&a);
        check_invariants(&b);
    }

    #[test]
    fn counters_track_the_pool() {
        let mut s = SectorStore::new(100_000);
        assert_eq!(s.resident_bytes(), 0);
        for lba in 0..10_000 {
            s.write_sector(lba, &image(1 + (lba % 16) as u8));
        }
        assert_eq!(s.distinct_sectors(), 16);
        let shared = s.resident_bytes();
        // One chunk of images; the rest is the index, well under the 512
        // bytes per sector a plain map would hold.
        assert!(s.pool_bytes() >= CHUNK_SLOTS * SECTOR_SIZE);
        assert!(shared < 10_000 * 16, "resident {shared} B");
        for lba in 0..10_000u64 {
            let mut unique = image(1);
            unique[..8].copy_from_slice(&lba.to_le_bytes());
            s.write_sector(lba, &unique);
        }
        assert_eq!(s.distinct_sectors(), 10_000);
        assert!(s.pool_bytes() >= 10_000 * SECTOR_SIZE);
    }

    #[test]
    fn isolated_runs_cost_a_cache_line_and_a_table_entry() {
        // What a replay's data disk sees: 4 KB writes scattered so that no
        // two share an index page.
        let mut s = SectorStore::new(u64::MAX);
        let block = [0x5Au8; 8 * SECTOR_SIZE];
        for i in 0..10_000u64 {
            s.write_range(i * 64, &block);
        }
        let per_sector = s.resident_bytes() as f64 / s.written_sectors() as f64;
        assert!(per_sector <= 16.0, "{per_sector:.1} B per written sector");
    }

    #[test]
    fn dense_writes_cost_about_six_index_bytes_per_lba() {
        // Just past a doubling of the page table, where it is emptiest.
        let lbas = (7 * 1024 + 1) * PAGE_LBAS;
        let mut s = SectorStore::new(lbas);
        for lba in 0..lbas {
            s.write_sector(lba, &image(1));
        }
        let per_lba = s.index_bytes() as f64 / lbas as f64;
        assert!(per_lba <= 6.5, "{per_lba:.2} index bytes per LBA");
    }

    #[test]
    fn header_like_images_cost_half_a_sector() {
        // Unique images that are non-zero only below byte 192, as Trail's
        // record headers are.
        let mut s = SectorStore::new(10_000);
        for lba in 0..10_000u64 {
            let mut header = image_of_len(0xA5, 192);
            header[..8].copy_from_slice(&lba.to_le_bytes());
            s.write_sector(lba, &header);
        }
        assert_eq!(s.short_images(), 10_000);
        let share = s.resident_bytes() as f64 / (10_000 * SECTOR_SIZE) as f64;
        assert!(share <= 0.65, "{:.1} % of whole sectors", share * 100.0);
    }

    const MODEL_CAPACITY: u64 = 48;

    /// `(op, lba, sectors, content)`; `content` picks among a few images so
    /// sharing, overwrites with equal bytes and slot recycling all occur.
    type Step = (u8, u64, u64, u8);

    /// One of five fills over one of four lengths: a whole sector, a
    /// header's worth, and the two either side of the class boundary (last
    /// non-zero byte at offset 255 and at 256), so both classes occur, an
    /// overwrite may change class, and a short and a full image may agree
    /// on their first half. Fill 0 is the all-zero image at every length.
    fn model_image(content: u8, i: u64) -> SectorBuf {
        let len = [SECTOR_SIZE, 192, SHORT_BYTES, SHORT_BYTES + 1][usize::from(content / 5 % 4)];
        let mut img = image_of_len(content % 5, len);
        // Every third content value is unique per position.
        if content.is_multiple_of(3) {
            img[100] = i as u8;
            img[101] = content;
        }
        img
    }

    /// Drives `store` and a plain map with the same steps and demands equal
    /// bytes, equal `written_sectors()` and intact invariants after each.
    fn run_model(mut store: SectorStore, steps: &[Step]) {
        let mut model: HashMap<Lba, SectorBuf> = HashMap::new();
        let expect = |model: &HashMap<Lba, SectorBuf>, lba: Lba, count: u64| -> Vec<u8> {
            (lba..lba + count)
                .flat_map(|l| model.get(&l).copied().unwrap_or([0u8; SECTOR_SIZE]))
                .collect()
        };
        for &(op, lba, sectors, content) in steps {
            let count = sectors.min(MODEL_CAPACITY - lba);
            match op % 5 {
                0 => {
                    let img = model_image(content, lba);
                    store.write_sector(lba, &img);
                    model.insert(lba, img);
                }
                1 => {
                    let data: Vec<u8> = (0..count)
                        .flat_map(|i| model_image(content, lba + i))
                        .collect();
                    store.write_range(lba, &data);
                    for i in 0..count {
                        model.insert(lba + i, model_image(content, lba + i));
                    }
                }
                2 => assert_eq!(store.read_sector(lba).to_vec(), expect(&model, lba, 1)),
                3 => {
                    let mut out = vec![0xEEu8; count as usize * SECTOR_SIZE];
                    store.read_into(lba, &mut out);
                    assert_eq!(out, expect(&model, lba, count));
                }
                _ => assert_eq!(
                    store.read_range(lba, count as u32),
                    expect(&model, lba, count)
                ),
            }
            assert_eq!(store.written_sectors(), model.len());
            check_invariants(&store);
        }
        assert_eq!(
            store.read_range(0, MODEL_CAPACITY as u32),
            expect(&model, 0, MODEL_CAPACITY)
        );
    }

    fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
        proptest::collection::vec(
            (any::<u8>(), 0..MODEL_CAPACITY, 1u64..20, any::<u8>()),
            1..120,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn store_matches_a_plain_map(steps in arb_steps()) {
            run_model(SectorStore::new(MODEL_CAPACITY), &steps);
        }

        #[test]
        fn store_matches_a_plain_map_when_every_image_collides(steps in arb_steps()) {
            run_model(SectorStore::with_hash(MODEL_CAPACITY, |_| 0), &steps);
        }
    }
}
