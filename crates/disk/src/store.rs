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
//! reference-counted. Workloads whose payloads repeat (trace replays carry
//! synthetic fills, logs carry padding) therefore cost under five index
//! bytes per written LBA instead of 512; workloads whose payloads are
//! unique cost what a plain `LBA → bytes` map would.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::mem::size_of;

use crate::geometry::{Lba, SECTOR_SIZE};

/// One sector's payload.
pub type SectorBuf = [u8; SECTOR_SIZE];

/// Images per pool chunk (16 KB). The pool grows one chunk at a time and a
/// chunk never moves, so a stored image is written once and growth never
/// copies the medium. Small enough that the first write to a fresh disk
/// (every crash point boots several) stays a few microseconds.
const CHUNK_SECTORS: usize = 32;

/// LBAs per index page (256 B of slot numbers). A page exists once any of
/// its LBAs is written, so the index costs under five bytes per sector of
/// capacity however long the run, and ~300 B for an isolated write.
const PAGE_LBAS: u64 = 64;

/// The index entry of an LBA that was never written.
const UNWRITTEN: u32 = u32::MAX;

type IndexPage = [u32; PAGE_LBAS as usize];

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

/// The pool of distinct sector images. A slot is live while `refs[slot]`
/// LBAs point at it and is recycled through `free` afterwards.
#[derive(Clone, Debug)]
struct Pool {
    chunks: Vec<Box<[SectorBuf]>>,
    // Per allocated slot: how many LBAs hold it, and its image's hash (so
    // a release can drop the `by_hash` entry without rehashing 512 bytes).
    refs: Vec<u32>,
    hashes: Vec<u64>,
    // Content hash → the one slot registered under it. Only ever names a
    // live slot whose image has that hash.
    by_hash: MediumMap<u64, u32>,
    free: Vec<u32>,
    hash: fn(&SectorBuf) -> u64,
}

impl Pool {
    fn new(hash: fn(&SectorBuf) -> u64) -> Self {
        Pool {
            chunks: Vec::new(),
            refs: Vec::new(),
            hashes: Vec::new(),
            by_hash: MediumMap::default(),
            free: Vec::new(),
            hash,
        }
    }

    fn image(&self, slot: u32) -> &SectorBuf {
        let slot = slot as usize;
        &self.chunks[slot / CHUNK_SECTORS][slot % CHUNK_SECTORS]
    }

    /// Whether `slot` already holds exactly `data`.
    fn holds(&self, slot: u32, hash: u64, data: &SectorBuf) -> bool {
        self.hashes[slot as usize] == hash && self.image(slot) == data
    }

    /// Returns a slot holding `data`, with one more reference on it: the
    /// slot registered under `hash` if its 512 bytes compare equal, else a
    /// fresh one. Two different images with one hash therefore never share
    /// a slot; the second merely stays unregistered, so a later copy of it
    /// misses the share — a collision costs memory, never a wrong byte.
    fn acquire(&mut self, hash: u64, data: &SectorBuf) -> u32 {
        let registered = self.by_hash.get(&hash).copied();
        if let Some(slot) = registered {
            if self.image(slot) == data {
                self.refs[slot as usize] += 1;
                return slot;
            }
        }
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = self.refs.len();
                if slot == self.chunks.len() * CHUNK_SECTORS {
                    self.chunks
                        .push(vec![[0u8; SECTOR_SIZE]; CHUNK_SECTORS].into_boxed_slice());
                }
                assert!(slot < UNWRITTEN as usize, "pool is out of slot numbers");
                self.refs.push(0);
                self.hashes.push(0);
                slot as u32
            }
        };
        let at = slot as usize;
        self.chunks[at / CHUNK_SECTORS][at % CHUNK_SECTORS] = *data;
        self.refs[at] = 1;
        self.hashes[at] = hash;
        if registered.is_none() {
            self.by_hash.insert(hash, slot);
        }
        slot
    }

    /// Drops one reference; the last one frees the slot and its `by_hash`
    /// entry, so a recycled slot can never be found under its old hash.
    fn release(&mut self, slot: u32) {
        let at = slot as usize;
        self.refs[at] -= 1;
        if self.refs[at] == 0 {
            // An unregistered (collided) slot leaves the entry to its owner.
            if let Entry::Occupied(e) = self.by_hash.entry(self.hashes[at]) {
                if *e.get() == slot {
                    e.remove();
                }
            }
            self.free.push(slot);
        }
    }
}

/// Bytes a `HashMap<K, V>` of this capacity keeps allocated: one `(K, V)`
/// bucket plus one control byte per slot at 7/8 load. An estimate of the
/// standard library's layout, good to a few percent.
fn map_bytes<K, V>(map: &MediumMap<K, V>) -> usize {
    map.capacity() * 8 / 7 * (size_of::<(K, V)>() + 1)
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
    // `pages[lba / PAGE_LBAS][lba % PAGE_LBAS]` is the LBA's pool slot, or
    // `UNWRITTEN`.
    pages: MediumMap<u64, Box<IndexPage>>,
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
            pages: MediumMap::default(),
            written: 0,
            pool: Pool::new(hash),
            capacity,
        }
    }

    /// The pool slot `lba` points at, if it was ever written.
    fn slot_of(&self, lba: Lba) -> Option<u32> {
        let page = self.pages.get(&(lba / PAGE_LBAS))?;
        Some(page[(lba % PAGE_LBAS) as usize]).filter(|&slot| slot != UNWRITTEN)
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
        self.pool.refs.len() - self.pool.free.len()
    }

    /// Host memory the medium keeps allocated, in bytes: pool chunks, the
    /// LBA index, the hash table, reference counts and the free list. The
    /// two hash maps are estimated from their capacity.
    pub fn resident_bytes(&self) -> usize {
        let p = &self.pool;
        p.chunks.len() * CHUNK_SECTORS * SECTOR_SIZE
            + p.chunks.capacity() * size_of::<Box<[SectorBuf]>>()
            + self.pages.len() * size_of::<IndexPage>()
            + map_bytes(&self.pages)
            + map_bytes(&p.by_hash)
            + p.refs.capacity() * size_of::<u32>()
            + p.hashes.capacity() * size_of::<u64>()
            + p.free.capacity() * size_of::<u32>()
    }

    /// Reads one sector (zeros if never written).
    ///
    /// # Panics
    ///
    /// Panics if `lba` is beyond the capacity.
    pub fn read_sector(&self, lba: Lba) -> SectorBuf {
        assert!(lba < self.capacity, "read beyond capacity: lba {lba}");
        match self.slot_of(lba) {
            Some(slot) => *self.pool.image(slot),
            None => [0u8; SECTOR_SIZE],
        }
    }

    /// Overwrites one sector.
    ///
    /// # Panics
    ///
    /// Panics if `lba` is beyond the capacity.
    pub fn write_sector(&mut self, lba: Lba, data: &SectorBuf) {
        assert!(lba < self.capacity, "write beyond capacity: lba {lba}");
        let hash = (self.pool.hash)(data);
        let page = self.pages.entry(lba / PAGE_LBAS);
        let entry = &mut page.or_insert_with(|| Box::new([UNWRITTEN; PAGE_LBAS as usize]))
            [(lba % PAGE_LBAS) as usize];
        if *entry == UNWRITTEN {
            self.written += 1;
        } else if self.pool.holds(*entry, hash, data) {
            return;
        } else {
            // Release first: a sole owner's slot is recycled for the new
            // image instead of growing the pool.
            self.pool.release(*entry);
        }
        *entry = self.pool.acquire(hash, data);
    }

    /// Reads consecutive sectors directly into `out` (one whole number of
    /// sectors), without intermediate per-sector copies. Unwritten sectors
    /// read as zeros.
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
        assert!(
            out.len().is_multiple_of(SECTOR_SIZE),
            "buffer must be sector-aligned, got {} bytes",
            out.len()
        );
        let count = (out.len() / SECTOR_SIZE) as u64;
        assert!(
            lba + count <= self.capacity,
            "read beyond capacity: lba {lba} count {count}"
        );
        for (i, chunk) in out.chunks_exact_mut(SECTOR_SIZE).enumerate() {
            match self.slot_of(lba + i as u64) {
                Some(slot) => chunk.copy_from_slice(self.pool.image(slot)),
                None => chunk.fill(0),
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

    /// Writes a contiguous buffer as consecutive sectors.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a whole number of sectors or the range
    /// exceeds the capacity.
    pub fn write_range(&mut self, lba: Lba, data: &[u8]) {
        assert!(
            data.len().is_multiple_of(SECTOR_SIZE),
            "data must be sector-aligned, got {} bytes",
            data.len()
        );
        for (i, chunk) in data.chunks_exact(SECTOR_SIZE).enumerate() {
            let buf: &SectorBuf = chunk.try_into().expect("chunk is exactly one sector");
            self.write_sector(lba + i as u64, buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every structural condition the pool relies on.
    fn check_invariants(s: &SectorStore) {
        let p = &s.pool;
        assert_eq!(p.refs.len(), p.hashes.len());
        assert!(p.refs.len() <= p.chunks.len() * CHUNK_SECTORS);
        let total: u64 = p.refs.iter().map(|&r| u64::from(r)).sum();
        assert_eq!(total, s.written_sectors() as u64, "refcounts sum to LBAs");
        let mut pointed = vec![0u32; p.refs.len()];
        let entries = s.pages.values().flat_map(|page| page.iter());
        for &slot in entries.filter(|&&slot| slot != UNWRITTEN) {
            pointed[slot as usize] += 1;
        }
        assert_eq!(pointed, p.refs, "refcount = LBAs pointing at the slot");
        let mut free = p.free.clone();
        free.sort_unstable();
        free.dedup();
        assert_eq!(free.len(), p.free.len(), "no slot is free twice");
        let dead: Vec<u32> = (0..p.refs.len() as u32)
            .filter(|&slot| p.refs[slot as usize] == 0)
            .collect();
        assert_eq!(free, dead, "exactly the unreferenced slots are free");
        for (&hash, &slot) in &p.by_hash {
            assert!(p.refs[slot as usize] > 0, "hash entry names a live slot");
            assert_eq!(p.hashes[slot as usize], hash);
            assert_eq!((p.hash)(p.image(slot)), hash);
        }
        assert_eq!(s.distinct_sectors(), p.refs.len() - dead.len());
    }

    fn image(fill: u8) -> SectorBuf {
        [fill; SECTOR_SIZE]
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
    fn identical_images_share_one_slot() {
        let mut s = SectorStore::new(1000);
        for lba in 0..1000 {
            s.write_sector(lba, &image((lba % 4) as u8));
        }
        assert_eq!(s.written_sectors(), 1000);
        assert_eq!(s.distinct_sectors(), 4);
        assert_eq!(s.pool.chunks.len(), 1, "four images fit one chunk");
        assert_eq!(s.pages.len(), 1000usize.div_ceil(PAGE_LBAS as usize));
        // An explicitly written zero sector is a written sector like any
        // other, not an unwritten one.
        assert_eq!(s.read_sector(4), image(0));
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
        let chunks = s.pool.chunks.len();
        assert_eq!(chunks, 300usize.div_ceil(CHUNK_SECTORS));
        for lba in 0..300 {
            s.write_sector(lba, &image(9));
        }
        assert_eq!(s.written_sectors(), 300);
        assert_eq!(s.distinct_sectors(), 1);
        assert_eq!(s.pool.free.len(), 299);
        assert_eq!(s.pool.by_hash.len(), 1);
        check_invariants(&s);
        // Fresh unique images reuse the freed slots: the pool does not grow.
        for lba in 0..299u64 {
            let mut unique = image(2);
            unique[..8].copy_from_slice(&lba.to_le_bytes());
            s.write_sector(lba, &unique);
        }
        assert_eq!(s.pool.chunks.len(), chunks);
        assert!(s.pool.free.is_empty());
        check_invariants(&s);
    }

    #[test]
    fn recycled_slot_is_not_found_under_its_old_hash() {
        let mut s = SectorStore::new(10);
        s.write_sector(0, &image(1));
        let slot = s.slot_of(0).unwrap();
        // The sole owner is overwritten: the slot is recycled for image 2.
        s.write_sector(0, &image(2));
        assert_eq!(s.slot_of(0), Some(slot));
        assert!(!s.pool.by_hash.contains_key(&content_hash(&image(1))));
        // Image 1 again must get a slot of its own, not alias the recycled one.
        s.write_sector(1, &image(1));
        assert_ne!(s.slot_of(1), Some(slot));
        assert_eq!(s.read_sector(0), image(2));
        assert_eq!(s.read_sector(1), image(1));
        check_invariants(&s);
    }

    #[test]
    fn rewriting_the_same_bytes_changes_nothing() {
        let mut s = SectorStore::new(10);
        s.write_sector(0, &image(5));
        s.write_sector(1, &image(5));
        let before = (s.pages.clone(), s.pool.refs.clone());
        s.write_sector(0, &image(5));
        assert_eq!((s.pages.clone(), s.pool.refs.clone()), before);
        check_invariants(&s);
    }

    #[test]
    fn colliding_images_stay_byte_exact() {
        // Every image hashes alike: only the first can be registered, the
        // rest must be kept apart by the 512-byte compare.
        let mut s = SectorStore::with_hash(64, |_| 0);
        for lba in 0..64 {
            s.write_sector(lba, &image((lba % 8) as u8));
        }
        for lba in 0..64 {
            assert_eq!(s.read_sector(lba), image((lba % 8) as u8));
        }
        // Image 0 is registered and shared; the other seven are not.
        assert_eq!(s.pool.refs[s.slot_of(0).unwrap() as usize], 8);
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
            s.write_sector(lba, &image((lba % 16) as u8));
        }
        assert_eq!(s.distinct_sectors(), 16);
        let shared = s.resident_bytes();
        // One chunk of images; the rest is the index, well under the 512
        // bytes per sector a plain map would hold.
        assert!(shared >= CHUNK_SECTORS * SECTOR_SIZE);
        assert!(shared < 10_000 * 64, "resident {shared} B");
        for lba in 0..10_000u64 {
            let mut unique = image(0);
            unique[..8].copy_from_slice(&lba.to_le_bytes());
            s.write_sector(lba, &unique);
        }
        assert_eq!(s.distinct_sectors(), 10_000);
        assert!(s.resident_bytes() >= 10_000 * SECTOR_SIZE);
    }

    const MODEL_CAPACITY: u64 = 48;

    /// `(op, lba, sectors, content)`; `content` picks among a few images so
    /// sharing, overwrites with equal bytes and slot recycling all occur.
    type Step = (u8, u64, u64, u8);

    fn model_image(content: u8, i: u64) -> SectorBuf {
        let mut img = image(content % 5);
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
            (any::<u8>(), 0..MODEL_CAPACITY, 1u64..12, any::<u8>()),
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
