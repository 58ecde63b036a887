//! The recording medium: a sparse, sector-atomic, content-addressed byte
//! store.
//!
//! Sectors are the atomic persistence unit: a power failure either persists
//! a sector completely or not at all (torn *multi*-sector writes are the
//! interesting failure mode; torn intra-sector writes are prevented by drive
//! ECC on the hardware the paper targets).
//!
//! Every byte written reads back exactly, but each *distinct* sector image
//! is kept once: a paged index per store maps an LBA to a slot in an
//! [`ImagePool`], a 64-bit hash finds an existing identical image, and
//! slots are reference-counted. The disks of one stack share one pool, so
//! the log copy of a sector and its write-back meet in it: a whole image is
//! found by the hash of its bytes 1..512, and one whose bytes 1..512 equal
//! a stored image's but whose byte 0 differs is kept as a five-byte alias
//! of that body plus its own byte 0 — exactly the byte the log's
//! self-describing format replaces. A write's payload can be interned
//! into the pool as well ([`PoolRun`]), each sector holding a reference
//! as an LBA does and hashed at most once, there; a store on that pool
//! then writes it by reference, and writes its log copy — each sector
//! under another byte 0 — as an alias of it, with no hash, compare or
//! copy. A read takes the same form ([`SectorStore::read_run`]): a
//! reference per sector on the slots its LBAs name, which keeps those
//! images however the LBAs are overwritten, and a reader walks a whole
//! image where the pool keeps it, copying only a short or alias one.
//!
//! Wherever a buffer's sectors are resolved to slots — a store write, an
//! interned payload, a log copy — a sector equal to the one before it in
//! the same buffer takes that one's slot for one compare of the two, with
//! no hash, table probe, compare against pool memory or alias lookup
//! (`Pool::resolve`, the one place the rule lives). A 4 KB write of one
//! fill is hashed once, not eight times, and the pool ends exactly as it
//! would had every sector been hashed.
//! The layout is sized for what Trail writes — short runs scattered over
//! the platter, each led by a unique, mostly-zero header sector: an index
//! page is one cache line, and an image whose second half is zero occupies
//! half a slot. Workloads whose payloads repeat (trace replays carry
//! synthetic fills, logs carry padding) cost about six index bytes per
//! densely written LBA instead of 512; workloads whose payloads are unique
//! cost what a plain `LBA → bytes` map would, once per stack rather than
//! once per disk.

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};
use std::mem::size_of;
use std::ops::Range;
use std::rc::Rc;

use trail_sim::FastMap;

use crate::geometry::{Lba, SECTOR_SIZE};

/// One sector's payload.
pub type SectorBuf = [u8; SECTOR_SIZE];

/// Images per pool chunk (8 KB of whole sectors, 4 KB of short ones). A
/// class of the pool grows one chunk at a time and a chunk never moves, so
/// a stored image is written once and growth never copies the medium.
/// Small enough that the first write to a fresh disk (every crash point
/// boots several) asks for no more memory than its index page, one chunk
/// of each class, the pool itself and a few table entries: about 14 KB.
const CHUNK_SLOTS: usize = 16;

/// Bytes kept for an image whose remaining bytes are all zero. Trail's
/// record headers, the most numerous unique images a log disk holds, end
/// well before it.
const SHORT_BYTES: usize = SECTOR_SIZE / 2;

/// Bytes of an alias slot: the index entry of its base, a full or short
/// slot (`u32`, little endian), and the alias's own byte 0.
const ALIAS_BYTES: usize = 5;

/// LBAs per index page: 16 entries of four bytes, one cache line. A page
/// exists once any of its LBAs is written, so a densely written region
/// costs four index bytes per sector plus its share of a table entry, and
/// an isolated write under a hundred.
const PAGE_LBAS: u64 = 16;

/// Index pages per slab chunk (4 KB). Like the pool, the slab grows a
/// chunk at a time and never moves a page once it has a second chunk.
const SLAB_PAGES: usize = 64;

/// Index pages of the slab's first chunk (1 KB). A store written in a few
/// places only (every crash point boots several) stops there; the first
/// page beyond it regrows the chunk to [`SLAB_PAGES`], copying 1 KB once.
const FIRST_SLAB_PAGES: usize = 16;

/// The index entry of an LBA that was never written. Zero, so fresh slab
/// chunks come zeroed from the allocator and a page of memory is first
/// touched when an LBA on it is first written.
const UNWRITTEN: u32 = 0;

type IndexPage = [u32; PAGE_LBAS as usize];

/// The three slot classes of the pool (see [`Image`]), as the low two bits
/// of an index entry.
const FULL: usize = 0;
const SHORT: usize = 1;
const ALIAS: usize = 2;
const CLASS_BITS: u32 = 2;

/// Slot numbers a class can hand out: an entry is a `u32` that spends two
/// bits on the class and the value zero on [`UNWRITTEN`].
const MAX_SLOTS: usize = (u32::MAX >> CLASS_BITS) as usize;

/// The index entry naming slot `number` of `class`.
fn entry_of(class: usize, number: usize) -> u32 {
    ((number as u32 + 1) << CLASS_BITS) | class as u32
}

/// The `(class, number)` a written entry names.
fn slot_of(entry: u32) -> (usize, usize) {
    debug_assert_ne!(entry >> CLASS_BITS, 0, "entry names no slot");
    (
        (entry & ((1 << CLASS_BITS) - 1)) as usize,
        (entry >> CLASS_BITS) as usize - 1,
    )
}

/// Bytes a `HashMap<K, V>` of this capacity keeps allocated, exactly as
/// the standard library's table lays them out: a power-of-two number of
/// `(K, V)` buckets, padded to the control group's alignment, then one
/// control byte per bucket and one group of trailing control bytes.
fn map_bytes<K, V>(map: &FastMap<K, V>) -> usize {
    const GROUP: usize = if cfg!(all(target_arch = "x86_64", target_feature = "sse2")) {
        16
    } else {
        8
    };
    let capacity = map.capacity();
    if capacity == 0 {
        return 0;
    }
    // The inverse of the table's `bucket_mask_to_capacity`.
    let buckets = if capacity < 8 {
        capacity + 1
    } else {
        capacity / 7 * 8
    };
    let align = GROUP.max(align_of::<(K, V)>());
    (buckets * size_of::<(K, V)>()).next_multiple_of(align) + buckets + GROUP
}

/// A sector's two hashes, from one pass over its bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Hashes {
    /// Of all 512 bytes: finds an identical short image.
    content: u64,
    /// Of bytes 1..512 (byte 0 masked): finds a whole image that is
    /// identical or differs in byte 0 only.
    body: u64,
}

/// The default hashes: four interleaved multiply-rotate lanes over the
/// sector's 64 little-endian words with byte 0 masked give the body hash,
/// and folding byte 0 into it gives the content hash, so images with one
/// body and different first bytes always hash apart. Quality only affects
/// how often sharing is found; see [`Pool::acquire`].
fn sector_hashes(data: &SectorBuf) -> Hashes {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    // Byte 0 is the low byte of word 0, so starting lane 0 xored with it
    // masks it out of the first step — one pass, no copy.
    let byte0 = u64::from(data[0]);
    let mut lanes = [
        K ^ byte0,
        K.rotate_left(16),
        K.rotate_left(32),
        K.rotate_left(48),
    ];
    for block in data.chunks_exact(32) {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let word = u64::from_le_bytes(word.try_into().expect("chunk is exactly 8 bytes"));
            *lane = (*lane ^ word).wrapping_mul(K).rotate_left(29);
        }
    }
    let fold = |h: u64, x: u64| {
        let h = (h ^ x).wrapping_mul(K);
        h ^ (h >> 32)
    };
    let body = lanes.into_iter().fold(0, fold);
    Hashes {
        content: fold(body, byte0),
        body,
    }
}

/// A table key — an index-page number or an image's hash — in two
/// halves, so that a bucket with a `u32` value is twelve bytes instead of
/// the sixteen a `u64` key would align it to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Key {
    high: u32,
    low: u32,
}

impl Key {
    /// The key of `lba`'s index page.
    fn page_of(lba: Lba) -> Self {
        Key::from(lba / PAGE_LBAS)
    }

    fn get(self) -> u64 {
        (u64::from(self.high) << 32) | u64::from(self.low)
    }
}

impl From<u64> for Key {
    fn from(key: u64) -> Self {
        Key {
            high: (key >> 32) as u32,
            low: key as u32,
        }
    }
}

/// One `u64` word, so [`FastMap`]'s hasher multiplies it once by an odd
/// constant, which permutes the low bits the table indexes by: a run of
/// consecutive page numbers lands in distinct buckets.
impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.get());
    }
}

/// The LBA index: one page of entries per [`PAGE_LBAS`] LBAs of which any
/// was written, kept in a slab and found through a table of positions.
#[derive(Debug, Default)]
struct Index {
    // Page number → the page's position in `slab`. Pages are handed out
    // in order and never returned, so the positions are `0..at.len()`.
    at: FastMap<Key, u32>,
    slab: Vec<Box<[IndexPage]>>,
}

impl Index {
    fn page(&self, lba: Lba) -> Option<&IndexPage> {
        let at = *self.at.get(&Key::page_of(lba))? as usize;
        Some(&self.slab[at / SLAB_PAGES][at % SLAB_PAGES])
    }

    /// The page of `lba`, created with every entry [`UNWRITTEN`] if no LBA
    /// on it was written before.
    fn page_mut(&mut self, lba: Lba) -> &mut IndexPage {
        let next = self.at.len();
        let at = *self
            .at
            .entry(Key::page_of(lba))
            .or_insert_with(|| u32::try_from(next).expect("index is out of page positions"))
            as usize;
        if at == self.pages_held() {
            let zeroed = |pages| vec![[UNWRITTEN; PAGE_LBAS as usize]; pages].into_boxed_slice();
            match self.slab.as_mut_slice() {
                [] => self.slab.push(zeroed(FIRST_SLAB_PAGES)),
                [first] if first.len() < SLAB_PAGES => {
                    let mut whole = zeroed(SLAB_PAGES);
                    whole[..first.len()].copy_from_slice(first);
                    *first = whole;
                }
                _ => self.slab.push(zeroed(SLAB_PAGES)),
            }
        }
        &mut self.slab[at / SLAB_PAGES][at % SLAB_PAGES]
    }

    /// Pages the slab has room for: only its first chunk can be short, and
    /// only while it is the only one.
    fn pages_held(&self) -> usize {
        match self.slab.as_slice() {
            [first] => first.len(),
            chunks => chunks.len() * SLAB_PAGES,
        }
    }

    /// Every entry of every page handed out, written or not.
    fn entries(&self) -> impl Iterator<Item = u32> + '_ {
        self.slab
            .iter()
            .flatten()
            .take(self.at.len())
            .flatten()
            .copied()
    }

    fn bytes(&self) -> usize {
        self.pages_held() * size_of::<IndexPage>()
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
/// `refs[slot]` holders point at it and is recycled through `free`
/// afterwards.
#[derive(Debug, Default)]
struct Slots<const N: usize> {
    // `CHUNK_SLOTS` images each, as bytes so that a chunk comes zeroed
    // from the allocator and is first touched when an image lands on it.
    chunks: Vec<Box<[u8]>>,
    // Per allocated slot: how many LBAs and payload entries (and, for a
    // full slot, aliases) hold it. The hash an image is registered under is not kept: the
    // release that frees a slot rehashes its image instead, which is
    // cheaper than eight more bytes on every slot.
    refs: Vec<u32>,
    free: Vec<u32>,
}

impl<const N: usize> Slots<N> {
    fn image(&self, slot: usize) -> &[u8; N] {
        &self.chunks[slot / CHUNK_SLOTS].as_chunks().0[slot % CHUNK_SLOTS]
    }

    /// A slot holding `image` under one reference: a recycled one if any
    /// is free, else the next of the newest chunk.
    fn take(&mut self, image: &[u8; N]) -> usize {
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
                slot
            }
        };
        self.chunks[slot / CHUNK_SLOTS].as_chunks_mut().0[slot % CHUNK_SLOTS] = *image;
        self.refs[slot] = 1;
        slot
    }

    /// Drops one reference to `slot`; returns whether it was the last,
    /// which frees the slot.
    fn release(&mut self, slot: usize) -> bool {
        self.refs[slot] -= 1;
        let freed = self.refs[slot] == 0;
        if freed {
            self.free.push(slot as u32);
        }
        freed
    }

    fn live(&self) -> usize {
        self.refs.len() - self.free.len()
    }

    fn bytes(&self) -> usize {
        self.chunks.len() * CHUNK_SLOTS * N
            + self.chunks.capacity() * size_of::<Box<[u8]>>()
            + self.refs.capacity() * size_of::<u32>()
            + self.free.capacity() * size_of::<u32>()
    }
}

/// A sector image as the pool keeps it: whole, its first half when the
/// second half is zero, or a stored whole or short image (its bytes as
/// kept) under a byte 0 of its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Image<'a> {
    Full(&'a SectorBuf),
    Short(&'a [u8; SHORT_BYTES]),
    Alias(&'a [u8], u8),
}

impl<'a> Image<'a> {
    /// The image `data` is written as: whole or short, by its bytes.
    /// Whether a whole one is kept as an alias is the pool's to find.
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
            Image::Alias(base, byte0) => {
                let mut patched = [0u8; SECTOR_SIZE];
                patched[..base.len()].copy_from_slice(base);
                patched[0] = byte0;
                patched
            }
        }
    }

    /// The sector's byte 0.
    fn first_byte(self) -> u8 {
        match self {
            Image::Full(bytes) => bytes[0],
            Image::Short(bytes) => bytes[0],
            Image::Alias(_, byte0) => byte0,
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
            Image::Alias(base, byte0) => {
                let (head, tail) = out.split_at_mut(base.len());
                head.copy_from_slice(base);
                tail.fill(0);
                out[0] = byte0;
            }
        }
    }
}

/// The bytes of an alias slot naming the full or short slot whose entry is
/// `base` under `byte0`.
fn alias_bytes(base: u32, byte0: u8) -> [u8; ALIAS_BYTES] {
    let [a, b, c, d] = base.to_le_bytes();
    [a, b, c, d, byte0]
}

/// The `(base entry, byte0)` an alias slot's bytes name.
fn alias_parts(bytes: &[u8; ALIAS_BYTES]) -> (u32, u8) {
    let (base, byte0) = bytes.split_first_chunk::<4>().expect("alias is five bytes");
    (u32::from_le_bytes(*base), byte0[0])
}

/// The last sector a buffer resolved in a pool and the entry it resolved
/// to, kept while the pool would resolve that sector to that entry again
/// (see [`Pool::resolve`]). A sector is known by its bytes, or for a log
/// copy by the entry it copies and its new byte 0.
type Last<K> = Option<(K, u32)>;

/// The distinct sector images behind one or more stores, in three classes
/// of slot. Whether an image is short follows from its bytes, so equal
/// images written as bytes always meet in one class; an alias is a full
/// or short image whose bytes from 1 on a slot already holds under
/// another byte 0.
#[derive(Debug)]
struct Pool {
    full: Slots<SECTOR_SIZE>,
    short: Slots<SHORT_BYTES>,
    alias: Slots<ALIAS_BYTES>,
    // Per full slot: the entry of the one alias found through it, or
    // `UNWRITTEN`. Only ever names a live alias of that slot. (An alias of
    // a short slot is found through none.)
    aliased: Vec<u32>,
    // Body hash of a full image, or content hash of a short one → the
    // entry of the one slot registered under it. Only ever names a live
    // full or short slot kept under that key.
    by_hash: FastMap<Key, u32>,
    hash: fn(&SectorBuf) -> Hashes,
    // Sectors hashed to find their image, ever.
    hashed: u64,
}

impl Pool {
    fn new(hash: fn(&SectorBuf) -> Hashes) -> Self {
        Pool {
            full: Slots::default(),
            short: Slots::default(),
            alias: Slots::default(),
            aliased: Vec::new(),
            by_hash: FastMap::default(),
            hash,
            hashed: 0,
        }
    }

    /// The image `entry` names; none if its LBA was never written.
    fn image(&self, entry: u32) -> Option<Image<'_>> {
        (entry != UNWRITTEN).then(|| match slot_of(entry) {
            (FULL, slot) => Image::Full(self.full.image(slot)),
            (SHORT, slot) => Image::Short(self.short.image(slot)),
            (_, slot) => {
                let (base, byte0) = alias_parts(self.alias.image(slot));
                let bytes: &[u8] = match slot_of(base) {
                    (FULL, base) => self.full.image(base),
                    (_, base) => self.short.image(base),
                };
                Image::Alias(bytes, byte0)
            }
        })
    }

    /// Whether `entry`'s slot already holds exactly `image`, an image of
    /// [`Image::of`].
    fn holds(&self, entry: u32, image: Image) -> bool {
        let bytes: &[u8] = match image {
            Image::Full(bytes) => bytes,
            Image::Short(bytes) => bytes,
            Image::Alias(..) => unreachable!("Image::of makes no alias"),
        };
        match self.image(entry).expect("a written entry") {
            Image::Full(held) => held[..] == *bytes,
            Image::Short(held) => held[..] == *bytes,
            Image::Alias(base, byte0) => {
                base.len() == bytes.len() && byte0 == bytes[0] && base[1..] == bytes[1..]
            }
        }
    }

    /// The table key of `image`, whose sector has `hashes`: a short image
    /// is found by content, a whole one by body, so that an image differing
    /// from it in byte 0 only finds it too.
    fn key(image: Image, hashes: Hashes) -> Key {
        Key::from(match image {
            Image::Short(_) => hashes.content,
            _ => hashes.body,
        })
    }

    /// Makes `entry` name a slot holding `data`, a sector of a buffer
    /// whose last resolved sector is `last` (see
    /// [`resolve`](Self::resolve)); returns whether the LBA it belongs to
    /// was unwritten before.
    fn write<'a>(
        &mut self,
        entry: &mut u32,
        data: &'a SectorBuf,
        last: &mut Last<&'a SectorBuf>,
    ) -> bool {
        let fresh = *entry == UNWRITTEN;
        if !fresh {
            if self.holds(*entry, Image::of(data)) {
                return false;
            }
            // Release first: a sole owner's slot is recycled for the new
            // image (if it is of the same class) instead of growing the
            // pool.
            self.release(*entry);
        }
        *entry = self.resolve(last, data, Self::intern);
        fresh
    }

    /// Makes `entry` name the slot `held` names, which its holder keeps a
    /// reference on; returns whether the LBA it belongs to was unwritten
    /// before. No byte is hashed, compared or copied.
    fn write_held(&mut self, entry: &mut u32, held: u32) -> bool {
        let fresh = *entry == UNWRITTEN;
        if *entry != held {
            self.retain(held);
            if !fresh {
                self.release(*entry);
            }
            *entry = held;
        }
        fresh
    }

    /// The entry of a slot holding `data`, with one more reference on it:
    /// what a store write of `data` would make its LBA name. Also says
    /// whether `data` interned again would find that slot (see
    /// [`resolve`](Self::resolve)).
    fn intern(&mut self, data: &SectorBuf) -> (u32, bool) {
        let image = Image::of(data);
        self.hashed += 1;
        self.acquire(Self::key(image, (self.hash)(data)), image)
    }

    /// The entry `sector` resolves to, with one more reference on it. A
    /// sector equal to `last`'s — the last one its buffer resolved — takes
    /// `last`'s slot for the one compare of the two: no hash, table probe,
    /// compare against pool memory or alias lookup. Any other is resolved
    /// by `find`, which also says whether the pool would find the same
    /// slot for the same sector again; `last` keeps the sector and its
    /// slot only then. The pool would not after a hash collision, nor for
    /// an alias no base links to, so a buffer ends the pool in exactly the
    /// state that resolving each of its sectors on its own would.
    fn resolve<K: Copy + PartialEq>(
        &mut self,
        last: &mut Last<K>,
        sector: K,
        find: impl FnOnce(&mut Self, K) -> (u32, bool),
    ) -> u32 {
        if let Some((before, entry)) = *last {
            if before == sector {
                self.retain(entry);
                return entry;
            }
        }
        let (entry, again) = find(self, sector);
        *last = again.then_some((sector, entry));
        entry
    }

    /// One more reference on the live slot `entry` names.
    fn retain(&mut self, entry: u32) {
        let (class, slot) = slot_of(entry);
        let refs = match class {
            FULL => &mut self.full.refs,
            SHORT => &mut self.short.refs,
            _ => &mut self.alias.refs,
        };
        debug_assert!(refs[slot] > 0, "only a live slot is retained");
        refs[slot] += 1;
    }

    /// Returns the entry of a slot holding `image` (an image of
    /// [`Image::of`], whose table key is `key`), with one more reference
    /// on it: shared through the slot registered under `key` if there is
    /// one (see [`share`](Self::share)), else a fresh one. Two different
    /// images with one key therefore never share a slot; the second merely
    /// stays unregistered, so a later copy of it misses the share — a
    /// collision costs memory, never a wrong byte. Also says whether
    /// `image` would find the same slot again: an unregistered one it
    /// would not.
    fn acquire(&mut self, key: Key, image: Image) -> (u32, bool) {
        let registered = self.by_hash.get(&key).copied();
        if let Some(shared) = registered.and_then(|entry| self.share(entry, image)) {
            return shared;
        }
        let entry = match image {
            Image::Short(bytes) => entry_of(SHORT, self.short.take(bytes)),
            Image::Full(bytes) => {
                let slot = self.full.take(bytes);
                if slot == self.aliased.len() {
                    self.aliased.push(UNWRITTEN);
                }
                entry_of(FULL, slot)
            }
            Image::Alias(..) => unreachable!("Image::of makes no alias"),
        };
        if registered.is_none() {
            self.by_hash.insert(key, entry);
        }
        (entry, registered.is_none())
    }

    /// A slot holding `image`, found through the registered `entry`, with
    /// one more reference on it: `entry`'s own slot if it holds the same
    /// bytes, or for a whole image that differs from it in byte 0 only,
    /// its alias under that byte (see
    /// [`with_first_byte`](Self::with_first_byte)), and whether it would be
    /// found again. None if `entry` holds another image under the same
    /// key.
    fn share(&mut self, entry: u32, image: Image) -> Option<(u32, bool)> {
        match (slot_of(entry), image) {
            ((SHORT, slot), Image::Short(bytes)) if self.short.image(slot) == bytes => {
                self.short.refs[slot] += 1;
                Some((entry, true))
            }
            ((FULL, base), Image::Full(bytes)) if self.full.image(base)[1..] == bytes[1..] => {
                Some(self.with_first_byte(entry, bytes[0]))
            }
            _ => None,
        }
    }

    /// The entry of a slot holding the image `entry` names with its byte 0
    /// replaced by `byte0`, with one more reference on it: `entry` itself
    /// or its base if one of them has that byte 0, else an alias of the
    /// base — the one found through a full base if it has that byte 0,
    /// else a new one (found through the base from now on if none is). No
    /// byte is hashed, compared or copied — bar for an unwritten `entry`,
    /// a zero sector, which has no slot to alias: under a byte 0 of zero it
    /// stays unwritten, under another it is interned. Also says whether
    /// the same request would find the same slot again: an alias its base
    /// does not link to would not.
    fn with_first_byte(&mut self, entry: u32, byte0: u8) -> (u32, bool) {
        if entry == UNWRITTEN {
            if byte0 == 0 {
                return (UNWRITTEN, false);
            }
            let mut zero = [0u8; SECTOR_SIZE];
            zero[0] = byte0;
            return self.intern(&zero);
        }
        let first_byte = |pool: &Self, entry| pool.image(entry).expect("a live slot").first_byte();
        let base = match slot_of(entry) {
            (ALIAS, slot) => alias_parts(self.alias.image(slot)).0,
            _ => entry,
        };
        let linked = match slot_of(base) {
            (FULL, slot) => self.aliased[slot],
            _ => UNWRITTEN,
        };
        let same = [entry, base, linked]
            .into_iter()
            .find(|&e| e != UNWRITTEN && first_byte(self, e) == byte0);
        if let Some(same) = same {
            self.retain(same);
            return (same, true);
        }
        self.retain(base);
        let alias = entry_of(ALIAS, self.alias.take(&alias_bytes(base, byte0)));
        let links = match slot_of(base) {
            (FULL, slot) if linked == UNWRITTEN => {
                self.aliased[slot] = alias;
                true
            }
            _ => false,
        };
        (alias, links)
    }

    /// Drops one reference; the last one frees the slot and its table
    /// entry (rehashing its image for the key), so a recycled slot can
    /// never be found under its old key, and a freed alias drops its
    /// reference on its base.
    fn release(&mut self, entry: u32) {
        let (class, slot) = slot_of(entry);
        if class == ALIAS {
            if self.alias.release(slot) {
                let (base, _) = alias_parts(self.alias.image(slot));
                if let (FULL, full) = slot_of(base) {
                    if self.aliased[full] == entry {
                        self.aliased[full] = UNWRITTEN;
                    }
                }
                self.release(base);
            }
            return;
        }
        let freed = match class {
            FULL => self.full.release(slot),
            _ => self.short.release(slot),
        };
        if !freed {
            return;
        }
        let image = self.image(entry).expect("a written entry");
        let key = Self::key(image, (self.hash)(&image.sector()));
        // An unregistered (collided) slot leaves the entry to its owner.
        if let Entry::Occupied(e) = self.by_hash.entry(key) {
            if *e.get() == entry {
                e.remove();
            }
        }
    }

    fn stats(&self) -> PoolStats {
        // The pool's own allocation: `Rc`'s two counts and the `RefCell`.
        let itself = 2 * size_of::<usize>() + size_of::<RefCell<Pool>>();
        PoolStats {
            distinct_sectors: (self.full.live() + self.short.live() + self.alias.live()) as u64,
            short_images: self.short.live() as u64,
            alias_images: self.alias.live() as u64,
            hashed_sectors: self.hashed,
            pool_bytes: (itself
                + self.full.bytes()
                + self.short.bytes()
                + self.alias.bytes()
                + self.aliased.capacity() * size_of::<u32>()
                + map_bytes(&self.by_hash)) as u64,
        }
    }
}

/// Host-side counters of an [`ImagePool`]: what the images behind one or
/// more stores cost the simulating process. A pool is shared by every
/// disk of a stack, so a sum over disks counts each pool once.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Images the pool keeps, of all three classes: the distinct contents
    /// among the sectors its stores hold (a hash collision, which keeps
    /// two equal images apart, can only make it larger; a body kept only
    /// for its aliases counts too).
    pub distinct_sectors: u64,
    /// How many of them are kept in half a slot because their second half
    /// is zero.
    pub short_images: u64,
    /// How many of them are aliases: an image kept as another's bytes
    /// under its own byte 0.
    pub alias_images: u64,
    /// Sectors the pool has hashed to find their image, ever: at most one
    /// per sector a store writes as bytes or a payload is interned from.
    /// A sector equal to the one before it in the same buffer takes that
    /// one's slot unhashed (see the [module docs](self)), and a sector
    /// written by reference — a pooled payload, or its log copy under
    /// another byte 0 — is not hashed. (The rehash that unregisters a
    /// freed image is not counted.)
    pub hashed_sectors: u64,
    /// Host bytes the pool keeps allocated: itself, the chunks of every
    /// class, reference counts, free lists, the alias links and the hash
    /// table.
    pub pool_bytes: u64,
}

impl std::ops::AddAssign for PoolStats {
    /// Sums two pools, field by field.
    fn add_assign(&mut self, other: Self) {
        self.distinct_sectors += other.distinct_sectors;
        self.short_images += other.short_images;
        self.alias_images += other.alias_images;
        self.hashed_sectors += other.hashed_sectors;
        self.pool_bytes += other.pool_bytes;
    }
}

/// A reference-counted pool of sector images that several
/// [`SectorStore`]s share; clones are handles to the same pool. The disks
/// of one stack keep their images in one pool, so a sector logged on one
/// disk and written back to another is kept once. The pool is freed with
/// its last handle, and a store that is dropped first hands its references
/// back.
#[derive(Clone, Debug)]
pub struct ImagePool(Rc<RefCell<Pool>>);

impl Default for ImagePool {
    fn default() -> Self {
        ImagePool::new()
    }
}

impl ImagePool {
    /// An empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::with_hash(sector_hashes)
    }

    /// A pool that finds equal images and bodies with `hash` instead of
    /// the default hashes; tests pass a degenerate one to force every
    /// image to collide.
    fn with_hash(hash: fn(&SectorBuf) -> Hashes) -> Self {
        ImagePool(Rc::new(RefCell::new(Pool::new(hash))))
    }

    /// Whether `a` and `b` are handles to the same pool.
    #[must_use]
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Rc::ptr_eq(&a.0, &b.0)
    }

    /// The pool's counters.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        self.0.borrow().stats()
    }
}

/// Whole sectors kept in an [`ImagePool`] instead of in bytes of their
/// own: one entry per sector, each holding one reference on the slot it
/// names, handed back when the last clone of the run is dropped, or
/// [`UNWRITTEN`] for a zero sector a read found unwritten. What a pooled
/// [`PayloadBuf`](crate::PayloadBuf) reads from: an interned write, or a
/// read of a store ([`SectorStore::read_run`]). The entries are one
/// allocation, which clones share. An entry costs four bytes where the
/// sector would cost 512; a sector whose body the pool already holds under
/// another byte 0 adds a five-byte alias at most, and so does each sector
/// of a run's log copy ([`with_first_bytes`](Self::with_first_bytes)).
#[derive(Clone)]
pub(crate) struct PoolRun {
    pool: ImagePool,
    entries: Rc<[u32]>,
}

impl PoolRun {
    /// Interns `bytes`, whole sectors, into `pool` as a store write would:
    /// a sector equal to the one before it takes that one's slot, and any
    /// other is hashed and shares the slot of an equal image or of an
    /// equal body (see [`Pool::resolve`]).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a whole number of sectors.
    pub(crate) fn intern(pool: &ImagePool, bytes: &[u8]) -> Self {
        let (sectors, ragged) = bytes.as_chunks::<SECTOR_SIZE>();
        assert!(
            ragged.is_empty(),
            "an interned payload is whole sectors, got {} bytes",
            bytes.len()
        );
        let mut p = pool.0.borrow_mut();
        let mut last = None;
        PoolRun {
            pool: pool.clone(),
            entries: (sectors.iter())
                .map(|sector| p.resolve(&mut last, sector, Pool::intern))
                .collect(),
        }
    }

    /// The pool the run's sectors are kept in.
    pub(crate) fn pool(&self) -> &ImagePool {
        &self.pool
    }

    /// Whether `a` and `b` are clones of one run.
    pub(crate) fn ptr_eq(a: &Self, b: &Self) -> bool {
        Rc::ptr_eq(&a.entries, &b.entries)
    }

    /// Sectors in the run.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Sectors `sectors` of the run, sector `i` of them with its byte 0
    /// replaced by `byte0(i)`, as a run of their own: each entry the same
    /// slot, its base, or an alias of that base — no byte is hashed,
    /// compared or copied, and a sector that repeats the one before it
    /// under the same byte 0 takes that one's entry (see
    /// [`Pool::resolve`]). (A zero sector under a byte 0 other than zero
    /// is the one exception: it has no slot to alias, so it is interned.)
    pub(crate) fn with_first_bytes(
        &self,
        sectors: Range<usize>,
        mut byte0: impl FnMut(usize) -> u8,
    ) -> Self {
        let mut p = self.pool.0.borrow_mut();
        let mut last = None;
        let find = |p: &mut Pool, (entry, b)| p.with_first_byte(entry, b);
        PoolRun {
            pool: self.pool.clone(),
            entries: (self.entries[sectors].iter().enumerate())
                .map(|(i, &entry)| p.resolve(&mut last, (entry, byte0(i)), find))
                .collect(),
        }
    }

    /// Calls `f` with each of sectors `sectors` of the run, in order: a
    /// whole image where the pool keeps it, and only a short, alias or
    /// unwritten one as a sector of its own.
    pub(crate) fn for_each_sector(&self, sectors: Range<usize>, mut f: impl FnMut(&SectorBuf)) {
        let pool = self.pool.0.borrow();
        for &entry in &self.entries[sectors] {
            match pool.image(entry) {
                Some(Image::Full(bytes)) => f(bytes),
                image => f(&image.map_or([0u8; SECTOR_SIZE], Image::sector)),
            }
        }
    }

    /// Writes sectors `sectors` of the run, one after another, into `out`.
    pub(crate) fn copy_to(&self, sectors: Range<usize>, out: &mut [u8]) {
        let pool = self.pool.0.borrow();
        let out = out.as_chunks_mut::<SECTOR_SIZE>().0;
        debug_assert_eq!(out.len(), sectors.len());
        for (&entry, sector) in self.entries[sectors].iter().zip(out) {
            match pool.image(entry) {
                Some(image) => image.copy_to(sector),
                None => sector.fill(0),
            }
        }
    }
}

impl Drop for PoolRun {
    /// The last clone hands every reference back, unless the pool goes
    /// with it (or a panic is unwinding, which may have left the pool
    /// half-updated).
    fn drop(&mut self) {
        if Rc::strong_count(&self.entries) > 1
            || Rc::strong_count(&self.pool.0) == 1
            || std::thread::panicking()
        {
            return;
        }
        let mut pool = self.pool.0.borrow_mut();
        for &entry in self.entries.iter().filter(|&&e| e != UNWRITTEN) {
            pool.release(entry);
        }
    }
}

/// A sparse map from LBA to sector contents. Unwritten sectors read as
/// zeros, matching a freshly formatted drive.
///
/// # Examples
///
/// ```
/// use trail_disk::{ImagePool, SectorStore, SECTOR_SIZE};
///
/// let mut s = SectorStore::new(100);
/// assert_eq!(s.read_sector(5), [0u8; SECTOR_SIZE]);
/// s.write_sector(5, &[7u8; SECTOR_SIZE]);
/// s.write_sector(6, &[7u8; SECTOR_SIZE]);
/// assert_eq!(s.read_sector(5)[0], 7);
/// // Two written sectors, one stored image.
/// assert_eq!((s.written_sectors(), s.distinct_sectors()), (2, 1));
///
/// // Two stores on one pool: a log copy whose byte 0 was replaced and its
/// // write-back share one body.
/// let pool = ImagePool::new();
/// let (mut log, mut data) = (SectorStore::in_pool(100, &pool), SectorStore::in_pool(100, &pool));
/// let mut sector = [9u8; SECTOR_SIZE];
/// sector[0] = 0;
/// log.write_sector(1, &sector);
/// sector[0] = 9;
/// data.write_sector(50, &sector);
/// assert_eq!((data.read_sector(50), pool.stats().alias_images), (sector, 1));
/// ```
#[derive(Debug)]
pub struct SectorStore {
    index: Index,
    written: usize,
    // Made at the first write unless the store was given one, so that an
    // unwritten store costs nothing.
    pool: Option<ImagePool>,
    capacity: u64,
}

impl Drop for SectorStore {
    /// Hands every written LBA's reference back to the pool, unless the
    /// pool goes with this store (or a panic is unwinding, which may have
    /// left the pool half-updated).
    fn drop(&mut self) {
        let Some(pool) = &self.pool else { return };
        if Rc::strong_count(&pool.0) == 1 || std::thread::panicking() {
            return;
        }
        let mut pool = pool.0.borrow_mut();
        for entry in self.index.entries().filter(|&e| e != UNWRITTEN) {
            pool.release(entry);
        }
    }
}

impl SectorStore {
    /// Creates an all-zero store of `capacity` sectors with a pool of its
    /// own.
    pub fn new(capacity: u64) -> Self {
        SectorStore {
            index: Index::default(),
            written: 0,
            pool: None,
            capacity,
        }
    }

    /// Creates an all-zero store of `capacity` sectors that keeps its
    /// images in `pool`.
    pub fn in_pool(capacity: u64, pool: &ImagePool) -> Self {
        let mut store = SectorStore::new(capacity);
        store.pool = Some(pool.clone());
        store
    }

    /// The pool the store keeps its images in (made now if the store has
    /// its own and was never written).
    pub fn pool(&mut self) -> &ImagePool {
        self.pool.get_or_insert_with(ImagePool::new)
    }

    /// The store's capacity in sectors.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The number of sectors that have ever been written.
    pub fn written_sectors(&self) -> usize {
        self.written
    }

    /// The counters of the store's pool, which other stores may share.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.as_ref().map(ImagePool::stats).unwrap_or_default()
    }

    /// [`PoolStats::distinct_sectors`] of the store's pool.
    pub fn distinct_sectors(&self) -> usize {
        self.pool_stats().distinct_sectors as usize
    }

    /// [`PoolStats::short_images`] of the store's pool.
    pub fn short_images(&self) -> usize {
        self.pool_stats().short_images as usize
    }

    /// Host memory the LBA index keeps allocated, in bytes: the slab of
    /// pages and the table that finds them.
    pub fn index_bytes(&self) -> usize {
        self.index.bytes()
    }

    /// [`PoolStats::pool_bytes`] of the store's pool.
    pub fn pool_bytes(&self) -> usize {
        self.pool_stats().pool_bytes as usize
    }

    /// Host memory the store and its pool keep allocated, in bytes:
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
        let (Some(page), Some(pool)) = (self.index.page(lba), &self.pool) else {
            return [0u8; SECTOR_SIZE];
        };
        let pool = pool.0.borrow();
        let image = pool.image(page[(lba % PAGE_LBAS) as usize]);
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
        let Some(pool) = &self.pool else {
            out.fill(0);
            return;
        };
        let pool = pool.0.borrow();
        let mut sectors = out.as_chunks_mut::<SECTOR_SIZE>().0;
        for (at, within) in page_runs(lba, sectors.len() as u64) {
            let (run, rest) = sectors.split_at_mut(within.len());
            sectors = rest;
            match self.index.page(at) {
                Some(page) => {
                    for (entry, sector) in page[within].iter().zip(run) {
                        match pool.image(*entry) {
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

    /// Reads `count` consecutive sectors as a run on the store's pool:
    /// each written LBA's slot gains a reference, an unwritten one reads
    /// as zeros, and no byte is copied. The run keeps the images it was
    /// read with whatever is written to those LBAs later. (A store that
    /// was never written reads into a pool of its own, which it does not
    /// keep.)
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the capacity.
    pub(crate) fn read_run(&self, lba: Lba, count: u32) -> PoolRun {
        self.check_range("read", lba, count as usize * SECTOR_SIZE);
        let pool = self.pool.clone().unwrap_or_default();
        let mut entries: Rc<[u32]> = std::iter::repeat_n(UNWRITTEN, count as usize).collect();
        {
            let mut p = pool.0.borrow_mut();
            let mut out = &mut Rc::get_mut(&mut entries).expect("a fresh run")[..];
            for (at, within) in page_runs(lba, u64::from(count)) {
                let (run, rest) = out.split_at_mut(within.len());
                out = rest;
                let Some(page) = self.index.page(at) else {
                    continue;
                };
                for (slot, &entry) in run.iter_mut().zip(&page[within]) {
                    if entry != UNWRITTEN {
                        p.retain(entry);
                    }
                    *slot = entry;
                }
            }
        }
        PoolRun { pool, entries }
    }

    /// Writes sectors `sectors` of `run` as consecutive sectors from
    /// `lba`. On the store's own pool the LBAs take references on the
    /// run's slots: no byte is hashed, compared or copied (a zero sector
    /// the run read unwritten is written as zeros). On another pool each
    /// sector is copied through a stack buffer and written as bytes.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the capacity.
    pub(crate) fn write_run(&mut self, lba: Lba, run: &PoolRun, sectors: Range<usize>) {
        let same_pool = self
            .pool
            .as_ref()
            .is_some_and(|pool| ImagePool::ptr_eq(pool, run.pool()));
        if !same_pool {
            let mut sector = [0u8; SECTOR_SIZE];
            for (at, i) in (lba..).zip(sectors) {
                run.copy_to(i..i + 1, &mut sector);
                self.write_range(at, &sector);
            }
            return;
        }
        self.check_range("write", lba, sectors.len() * SECTOR_SIZE);
        let mut pool = run.pool().0.borrow_mut();
        let mut held = &run.entries[sectors];
        let mut last = None;
        for (at, within) in page_runs(lba, held.len() as u64) {
            let (part, rest) = held.split_at(within.len());
            held = rest;
            let page = self.index.page_mut(at);
            for (entry, &slot) in page[within].iter_mut().zip(part) {
                self.written += usize::from(if slot == UNWRITTEN {
                    pool.write(entry, &[0u8; SECTOR_SIZE], &mut last)
                } else {
                    pool.write_held(entry, slot)
                });
            }
        }
    }

    /// Writes a contiguous buffer as consecutive sectors, probing the
    /// index once per page the range crosses. A sector equal to the one
    /// before it takes that one's slot without a hash (see the
    /// [module docs](self)).
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a whole number of sectors or the range
    /// exceeds the capacity; nothing is written then.
    pub fn write_range(&mut self, lba: Lba, data: &[u8]) {
        self.check_range("write", lba, data.len());
        let mut pool = self.pool.get_or_insert_with(ImagePool::new).0.borrow_mut();
        let mut sectors = data.as_chunks::<SECTOR_SIZE>().0;
        let mut last = None;
        for (at, within) in page_runs(lba, sectors.len() as u64) {
            let (run, rest) = sectors.split_at(within.len());
            sectors = rest;
            let page = self.index.page_mut(at);
            for (entry, sector) in page[within].iter_mut().zip(run) {
                self.written += usize::from(pool.write(entry, sector, &mut last));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Ref;
    use std::collections::HashMap;

    /// The pool a written store keeps its images in.
    fn pool(s: &SectorStore) -> Ref<'_, Pool> {
        s.pool
            .as_ref()
            .expect("a written store has a pool")
            .0
            .borrow()
    }

    /// A store on a pool whose every image and body hash alike.
    fn colliding(capacity: u64) -> SectorStore {
        let pool = ImagePool::with_hash(|_| Hashes {
            content: 0,
            body: 0,
        });
        SectorStore::in_pool(capacity, &pool)
    }

    /// The index entry of `lba` (`UNWRITTEN` if it was never written).
    fn entry_at(s: &SectorStore, lba: Lba) -> u32 {
        s.index
            .page(lba)
            .map_or(UNWRITTEN, |page| page[(lba % PAGE_LBAS) as usize])
    }

    /// The refcounts of the three classes, `[FULL, SHORT, ALIAS]`.
    fn refs(s: &SectorStore) -> [Vec<u32>; 3] {
        let p = pool(s);
        [
            p.full.refs.clone(),
            p.short.refs.clone(),
            p.alias.refs.clone(),
        ]
    }

    /// What one slot class relies on; `holders[slot]` is how many index
    /// entries and aliases point at `slot`.
    fn check_class<const N: usize>(slots: &Slots<N>, holders: &[u32]) {
        assert!(slots.refs.len() <= slots.chunks.len() * CHUNK_SLOTS);
        assert!(slots.chunks.iter().all(|c| c.len() == CHUNK_SLOTS * N));
        assert_eq!(
            holders, slots.refs,
            "refcount = LBAs and aliases pointing at the slot"
        );
        let mut free = slots.free.clone();
        free.sort_unstable();
        free.dedup();
        assert_eq!(free.len(), slots.free.len(), "no slot is free twice");
        let dead: Vec<u32> = (0..slots.refs.len() as u32)
            .filter(|&slot| slots.refs[slot as usize] == 0)
            .collect();
        assert_eq!(free, dead, "exactly the unreferenced slots are free");
        assert_eq!(slots.live(), slots.refs.len() - dead.len());
    }

    /// One store's index: map values are exactly the positions handed out
    /// so far, only a sole first chunk is short, and nothing beyond the
    /// handed-out pages was touched.
    fn check_index(ix: &Index) {
        let mut positions: Vec<u32> = ix.at.values().copied().collect();
        positions.sort_unstable();
        let handed_out: Vec<u32> = (0..ix.at.len() as u32).collect();
        assert_eq!(positions, handed_out, "map values are distinct slab pages");
        assert!(ix.at.len() <= ix.pages_held());
        let sizes: Vec<usize> = ix.slab.iter().map(|chunk| chunk.len()).collect();
        assert!(
            sizes == [FIRST_SLAB_PAGES] || sizes.iter().all(|&len| len == SLAB_PAGES),
            "slab chunks {sizes:?}"
        );
        let unused = ix.slab.iter().flatten().skip(ix.at.len());
        assert!(unused.flatten().all(|&e| e == UNWRITTEN));
    }

    /// Every structural condition the indexes and their one pool rely on;
    /// `stores` are all the stores holding references in the pool.
    fn check_invariants(stores: &[&SectorStore]) {
        check_pool(stores, &[]);
    }

    /// [`check_invariants`] of `stores` and `runs`, which together hold
    /// every reference in the pool: a slot's refcount is the LBAs, the
    /// aliases and the payload entries that name it.
    fn check_pool(stores: &[&SectorStore], runs: &[&PoolRun]) {
        for s in stores {
            check_index(&s.index);
        }
        let Some(handle) = stores[0].pool.as_ref() else {
            assert!(stores.iter().all(|s| s.written_sectors() == 0));
            return;
        };
        assert!(stores.iter().all(|s| s
            .pool
            .as_ref()
            .is_some_and(|p| ImagePool::ptr_eq(p, handle))));
        let p = handle.0.borrow();

        // Every written LBA names a slot of the class its bytes belong in
        // (an alias is a whole image), and reads back as that slot's image.
        let mut holders = [&p.full.refs, &p.short.refs, &p.alias.refs].map(|r| vec![0u32; r.len()]);
        let mut written = 0;
        for s in stores {
            for (page_no, &at) in &s.index.at {
                let page = &s.index.slab[at as usize / SLAB_PAGES][at as usize % SLAB_PAGES];
                for (i, &entry) in page.iter().enumerate() {
                    if entry == UNWRITTEN {
                        continue;
                    }
                    let (class, slot) = slot_of(entry);
                    holders[class][slot] += 1;
                    written += 1;
                    let read = s.read_sector(page_no.get() * PAGE_LBAS + i as u64);
                    let kept = p.image(entry).expect("written");
                    assert_eq!(
                        kept.sector(),
                        read,
                        "a read is the kept image, patched or padded"
                    );
                    // An alias reads short exactly when its base is short.
                    let kept_as = match (class, slot) {
                        (ALIAS, slot) => slot_of(alias_parts(p.alias.image(slot)).0).0,
                        (class, _) => class,
                    };
                    assert_eq!(
                        matches!(Image::of(&read), Image::Short(_)),
                        kept_as == SHORT
                    );
                }
            }
        }
        assert_eq!(
            written,
            stores.iter().map(|s| s.written_sectors()).sum::<usize>()
        );
        for run in runs {
            assert!(ImagePool::ptr_eq(run.pool(), handle));
            for &entry in run.entries.iter().filter(|&&e| e != UNWRITTEN) {
                let (class, slot) = slot_of(entry);
                holders[class][slot] += 1;
            }
        }

        // A live alias holds one reference on its base, a live full or
        // short slot, whose byte 0 differs from the alias's; a full base
        // finds at most one live alias of its own.
        for slot in (0..p.alias.refs.len()).filter(|&slot| p.alias.refs[slot] > 0) {
            let (base, byte0) = alias_parts(p.alias.image(slot));
            let (class, at) = slot_of(base);
            assert_ne!(class, ALIAS, "an alias's base is a full or short slot");
            assert!(
                [&p.full.refs, &p.short.refs][class][at] > 0,
                "an alias's base is live"
            );
            assert_ne!(
                p.image(base).expect("live").first_byte(),
                byte0,
                "an alias differs from its base"
            );
            holders[class][at] += 1;
        }
        check_class(&p.full, &holders[FULL]);
        check_class(&p.short, &holders[SHORT]);
        check_class(&p.alias, &holders[ALIAS]);
        assert_eq!(p.aliased.len(), p.full.refs.len());
        for (base, &alias) in p.aliased.iter().enumerate() {
            if alias != UNWRITTEN {
                let (class, slot) = slot_of(alias);
                assert_eq!(class, ALIAS);
                assert!(p.alias.refs[slot] > 0, "a base finds a live alias");
                assert_eq!(alias_parts(p.alias.image(slot)).0, entry_of(FULL, base));
            }
        }

        // Every table entry names a live full or short slot whose image has
        // the entry's key: the body hash of a full image, the content hash
        // of a short one.
        for (&key, &entry) in &p.by_hash {
            let image = p.image(entry).expect("registered");
            let (class, slot) = slot_of(entry);
            let live = match class {
                FULL => p.full.refs[slot],
                SHORT => p.short.refs[slot],
                _ => panic!("an alias is found through its base, not the table"),
            };
            assert!(live > 0, "table entry names a live slot");
            assert_eq!(Pool::key(image, (p.hash)(&image.sector())), key);
        }
        let stats = p.stats();
        let live = p.full.live() + p.short.live() + p.alias.live();
        assert_eq!(stats.distinct_sectors, live as u64);
        assert_eq!(stats.short_images, p.short.live() as u64);
        assert_eq!(stats.alias_images, p.alias.live() as u64);
        for s in stores {
            assert_eq!(s.resident_bytes(), s.index_bytes() + s.pool_bytes());
        }
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

    /// A whole image of `fill` whose body is unique per `n`.
    fn unique(fill: u8, n: u64) -> SectorBuf {
        let mut img = image(fill);
        img[8..16].copy_from_slice(&n.to_le_bytes());
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
        check_invariants(&[&s]);
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
        check_invariants(&[&s]);
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
        check_invariants(&[&ranged]);
        check_invariants(&[&looped]);
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
        assert_eq!(pool(&s).full.chunks.len(), 1);
        assert_eq!(pool(&s).short.chunks.len(), 1);
        assert_eq!(s.index.at.len(), 1000usize.div_ceil(PAGE_LBAS as usize));
        // An explicitly written zero sector is a written sector like any
        // other, not an unwritten one.
        assert_eq!(s.read_sector(4), image(0));
        assert_ne!(entry_at(&s, 4), UNWRITTEN);
        check_invariants(&[&s]);
    }

    #[test]
    fn overwriting_everything_with_one_image_frees_the_rest() {
        let mut s = SectorStore::new(300);
        for lba in 0..300u64 {
            s.write_sector(lba, &unique(1, lba));
        }
        assert_eq!(s.distinct_sectors(), 300);
        let chunks = pool(&s).full.chunks.len();
        assert_eq!(chunks, 300usize.div_ceil(CHUNK_SLOTS));
        for lba in 0..300 {
            s.write_sector(lba, &image(9));
        }
        assert_eq!(s.written_sectors(), 300);
        assert_eq!(s.distinct_sectors(), 1);
        assert_eq!(pool(&s).full.free.len(), 299);
        assert_eq!(pool(&s).by_hash.len(), 1);
        check_invariants(&[&s]);
        // Fresh unique images reuse the freed slots: the pool does not grow.
        for lba in 0..299u64 {
            s.write_sector(lba, &unique(2, lba));
        }
        assert_eq!(pool(&s).full.chunks.len(), chunks);
        assert!(pool(&s).full.free.is_empty());
        assert!(pool(&s).short.chunks.is_empty());
        check_invariants(&[&s]);
    }

    #[test]
    fn recycled_slot_is_not_found_under_its_old_hash() {
        let mut s = SectorStore::new(10);
        s.write_sector(0, &image(1));
        let entry = entry_at(&s, 0);
        // The sole owner is overwritten: the slot is recycled for image 2.
        s.write_sector(0, &image(2));
        assert_eq!(entry_at(&s, 0), entry);
        assert!(!pool(&s)
            .by_hash
            .contains_key(&Key::from(sector_hashes(&image(1)).body)));
        // Image 1 again must get a slot of its own, not alias the recycled one.
        s.write_sector(1, &image(1));
        assert_ne!(entry_at(&s, 1), entry);
        assert_eq!(s.read_sector(0), image(2));
        assert_eq!(s.read_sector(1), image(1));
        check_invariants(&[&s]);
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
        check_invariants(&[&s]);
        // The same pair under one hash: the prefix compare alone would
        // call them equal, the class keeps them apart.
        let mut c = colliding(10);
        c.write_sector(0, &full);
        c.write_sector(1, &short);
        assert_eq!(c.read_sector(0), full);
        assert_eq!(c.read_sector(1), short);
        assert_eq!(c.distinct_sectors(), 2);
        check_invariants(&[&c]);
    }

    #[test]
    fn class_changing_overwrite_of_a_sole_owner_frees_its_slot() {
        let mut s = SectorStore::new(10);
        let (short, full) = (image_of_len(1, 150), image(2));
        s.write_sector(0, &short);
        s.write_sector(0, &full);
        assert_eq!(s.read_sector(0), full);
        assert_eq!((s.distinct_sectors(), s.short_images()), (1, 0));
        assert_eq!(pool(&s).short.free, [0]);
        assert!(!pool(&s)
            .by_hash
            .contains_key(&Key::from(sector_hashes(&short).content)));
        check_invariants(&[&s]);
        // And back: the freed short slot is the one reused.
        s.write_sector(0, &image_of_len(3, 10));
        assert_eq!(s.read_sector(0), image_of_len(3, 10));
        assert_eq!((s.distinct_sectors(), s.short_images()), (1, 1));
        assert!(pool(&s).short.free.is_empty());
        assert_eq!(pool(&s).full.free, [0]);
        assert_eq!(s.written_sectors(), 1);
        check_invariants(&[&s]);
    }

    #[test]
    fn rewriting_the_same_bytes_changes_nothing() {
        let mut s = SectorStore::new(10);
        s.write_sector(0, &image(5));
        s.write_sector(1, &image(5));
        let mut twin = image(5);
        twin[0] = 0;
        s.write_sector(2, &twin);
        let state = |s: &SectorStore| (entry_at(s, 0), entry_at(s, 1), entry_at(s, 2), refs(s));
        let before = state(&s);
        s.write_sector(0, &image(5));
        s.write_sector(2, &twin);
        assert_eq!(state(&s), before);
        check_invariants(&[&s]);
    }

    #[test]
    fn colliding_images_stay_byte_exact() {
        // Every image hashes alike: only the first can be registered, the
        // rest must be kept apart by the byte compare.
        let mut s = colliding(64);
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
        check_invariants(&[&s]);
        // Freeing the registered slot unregisters the hash; the next image
        // written takes the registration and shares from then on.
        for lba in (0..64).step_by(8) {
            s.write_sector(lba, &image(1));
        }
        for lba in 0..64u64 {
            let fill = if lba % 8 == 0 { 1 } else { (lba % 8) as u8 };
            assert_eq!(s.read_sector(lba), image(fill));
        }
        check_invariants(&[&s]);

        // Body twins under one body hash: only the registered body can be
        // aliased, and only by an image whose bytes 1..512 really match.
        let mut t = colliding(64);
        for lba in 0..64u64 {
            let mut twin = image(1 + (lba % 4) as u8);
            twin[0] = lba as u8;
            t.write_sector(lba, &twin);
        }
        for lba in 0..64u64 {
            let mut twin = image(1 + (lba % 4) as u8);
            twin[0] = lba as u8;
            assert_eq!(t.read_sector(lba), twin, "lba {lba}");
        }
        assert!(pool(&t).alias.live() > 0);
        check_invariants(&[&t]);
    }

    #[test]
    fn a_logged_copy_and_its_write_back_share_one_body() {
        // The log copy of a sector has byte 0 replaced by zero; its
        // write-back to a data disk of the same stack carries the real one.
        let shared = ImagePool::new();
        let (mut log, mut data) = (
            SectorStore::in_pool(1000, &shared),
            SectorStore::in_pool(1000, &shared),
        );
        let payload = |n: u64| {
            let mut sector = unique(0x5A, n);
            sector[0] = 1 + n as u8 % 200;
            sector
        };
        for n in 0..100u64 {
            let mut logged = payload(n);
            logged[0] = 0;
            log.write_sector(n, &logged);
            data.write_sector(500 + n, &payload(n));
        }
        let stats = shared.stats();
        assert_eq!((stats.distinct_sectors, stats.alias_images), (200, 100));
        assert_eq!(pool(&log).full.live(), 100);
        check_invariants(&[&log, &data]);
        // The log wraps: its copies go, the bodies stay for the aliases.
        for n in 0..100u64 {
            log.write_sector(n, &image(3));
        }
        assert_eq!(pool(&log).full.live(), 101);
        for n in 0..100u64 {
            assert_eq!(data.read_sector(500 + n), payload(n));
        }
        check_invariants(&[&log, &data]);
        // Rewriting the data frees aliases and bodies together.
        for n in 0..100u64 {
            data.write_sector(500 + n, &image(3));
        }
        assert_eq!(shared.stats().distinct_sectors, 1);
        check_invariants(&[&log, &data]);
    }

    #[test]
    fn stores_sharing_a_pool_are_independent() {
        let shared = ImagePool::new();
        let mut a = SectorStore::in_pool(300, &shared);
        for lba in 0..200 {
            a.write_sector(lba, &image((lba % 3) as u8));
        }
        let mut b = SectorStore::in_pool(300, &shared);
        b.write_range(0, &a.read_range(0, 200));
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
        assert_eq!(a.distinct_sectors(), 6);
        check_invariants(&[&a, &b]);
        // Dropping one hands its references back; the other reads on.
        drop(a);
        assert_eq!(shared.stats().distinct_sectors, 5);
        assert_eq!(b.read_sector(1), image(1));
        check_invariants(&[&b]);
        drop(b);
        assert_eq!(shared.stats().distinct_sectors, 0);
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
            s.write_sector(lba, &unique(1, lba));
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
    fn a_4k_fill_is_hashed_once_and_holds_eight_references_on_one_slot() {
        let pool = ImagePool::new();
        let fill = [0x5Au8; 8 * SECTOR_SIZE];
        let run = PoolRun::intern(&pool, &fill);
        let stats = pool.stats();
        assert_eq!((stats.hashed_sectors, stats.distinct_sectors), (1, 1));
        let entry = run.entries[0];
        assert!(run.entries.iter().all(|&e| e == entry));
        assert_eq!(slot_of(entry).0, FULL);
        assert_eq!(pool.0.borrow().full.refs[slot_of(entry).1], 8);
        // Written as bytes across an index page, the fill is hashed once
        // more, for its first sector, which finds the same slot.
        let mut s = SectorStore::in_pool(64, &pool);
        s.write_range(PAGE_LBAS - 3, &fill);
        assert_eq!(pool.stats().hashed_sectors, 2);
        assert_eq!(pool.0.borrow().full.refs[slot_of(entry).1], 16);
        // Its log copy resolves the marker once: one alias, eight holders.
        let copy = run.with_first_bytes(0..8, |_| 0);
        assert!(copy.entries.iter().all(|&e| e == copy.entries[0]));
        assert_eq!(pool.stats().alias_images, 1);
        check_pool(&[&s], &[&run, &copy]);
        assert_eq!(pool.stats().hashed_sectors, 2);
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
    /// sharing, aliasing, overwrites with equal bytes and slot recycling
    /// all occur.
    type Step = (u8, u64, u64, u8);

    /// One of five fills over one of four lengths: a whole sector, a
    /// header's worth, and the two either side of the class boundary (last
    /// non-zero byte at offset 255 and at 256), so both classes occur, an
    /// overwrite may change class, and a short and a full image may agree
    /// on their first half. Fill 0 is the all-zero image at every length.
    /// The top bit of `content` zeroes byte 0, as the log copy of a sector
    /// has it, so body twins occur too.
    fn model_image(content: u8, i: u64) -> SectorBuf {
        let (logged, content) = (content & 0x80 != 0, content & 0x7F);
        let len = [SECTOR_SIZE, 192, SHORT_BYTES, SHORT_BYTES + 1][usize::from(content / 5 % 4)];
        let mut img = image_of_len(content % 5, len);
        // Every third content value is unique per position.
        if content.is_multiple_of(3) {
            img[100] = i as u8;
            img[101] = content;
        }
        if logged {
            img[0] = 0;
        }
        img
    }

    /// The sectors of one buffer of `count` from `lba`, each a
    /// [`model_image`] by `pattern`: all of `content` (at each position,
    /// so whole fills and zero runs repeat and unique ones do not), `A B A`
    /// alternations of `content` and the next content, or a run of
    /// `content` then a run of another.
    fn model_buffer(pattern: u8, content: u8, lba: u64, count: u64) -> Vec<SectorBuf> {
        (0..count)
            .map(|i| {
                let content = match pattern % 3 {
                    0 => content,
                    1 => content.wrapping_add((i % 2) as u8),
                    _ if i < count / 2 => content,
                    _ => content.wrapping_add(7),
                };
                model_image(content, lba + i)
            })
            .collect()
    }

    /// What `store` must read: the model's bytes, zeros where unwritten.
    fn expect(model: &HashMap<Lba, SectorBuf>, lba: Lba, count: u64) -> Vec<u8> {
        (lba..lba + count)
            .flat_map(|l| model.get(&l).copied().unwrap_or([0u8; SECTOR_SIZE]))
            .collect()
    }

    /// Applies one step to `store` and its model, checking every read. A
    /// range write is one buffer, or with `per_sector` one buffer a
    /// sector: the reference no sector of which has a predecessor.
    fn step(
        store: &mut SectorStore,
        model: &mut HashMap<Lba, SectorBuf>,
        step: Step,
        per_sector: bool,
    ) {
        let (op, lba, sectors, content) = step;
        let count = sectors.min(MODEL_CAPACITY - lba);
        match op % 5 {
            0 => {
                let img = model_image(content, lba);
                store.write_sector(lba, &img);
                model.insert(lba, img);
            }
            1 => {
                let data = model_buffer(op / 5, content, lba, count);
                if per_sector {
                    for (at, sector) in (lba..).zip(&data) {
                        store.write_range(at, sector);
                    }
                } else {
                    store.write_range(lba, data.as_flattened());
                }
                model.extend((lba..).zip(data));
            }
            2 => assert_eq!(store.read_sector(lba).to_vec(), expect(model, lba, 1)),
            3 => {
                let mut out = vec![0xEEu8; count as usize * SECTOR_SIZE];
                store.read_into(lba, &mut out);
                assert_eq!(out, expect(model, lba, count));
            }
            _ => assert_eq!(
                store.read_range(lba, count as u32),
                expect(model, lba, count)
            ),
        }
        assert_eq!(store.written_sectors(), model.len());
    }

    /// Drives `store` and a plain map with the same steps and demands equal
    /// bytes, equal `written_sectors()` and intact invariants after each.
    fn run_model(mut store: SectorStore, steps: &[Step]) {
        let mut model: HashMap<Lba, SectorBuf> = HashMap::new();
        for &s in steps {
            step(&mut store, &mut model, s, false);
            check_invariants(&[&store]);
        }
        assert_eq!(
            store.read_range(0, MODEL_CAPACITY as u32),
            expect(&model, 0, MODEL_CAPACITY)
        );
    }

    /// Drives two stores on `shared` and a plain map for each — a step's
    /// `which` picks the store by its low bit, and a `which` of 3 mod 4
    /// drops that store and starts a fresh one on the same pool — then
    /// drops both and demands an empty pool.
    fn run_shared_model(shared: &ImagePool, steps: &[(u8, Step)]) {
        let mut stores = [0, 1].map(|_| SectorStore::in_pool(MODEL_CAPACITY, shared));
        let mut models: [HashMap<Lba, SectorBuf>; 2] = Default::default();
        for &(which, s) in steps {
            let k = usize::from(which & 1);
            if which % 4 == 3 {
                stores[k] = SectorStore::in_pool(MODEL_CAPACITY, shared);
                models[k].clear();
            } else {
                step(&mut stores[k], &mut models[k], s, false);
            }
            check_invariants(&[&stores[0], &stores[1]]);
        }
        for (store, model) in stores.iter().zip(&models) {
            assert_eq!(
                store.read_range(0, MODEL_CAPACITY as u32),
                expect(model, 0, MODEL_CAPACITY)
            );
        }
        drop(stores);
        let p = shared.0.borrow();
        assert_eq!(
            shared.stats().distinct_sectors,
            0,
            "dropping both empties the pool"
        );
        assert!(p.by_hash.is_empty());
        assert!(p.aliased.iter().all(|&alias| alias == UNWRITTEN));
    }

    /// `(op, which, lba, sectors, content)` of the payload model.
    type RunStep = (u8, u8, u64, u64, u8);

    /// What a model leaves in a pool: its distinct, short and alias
    /// counts, and every slot's reference count, class by class.
    type PoolState = ([u64; 3], [Vec<u32>; 3]);

    fn pool_state(pool: &ImagePool) -> PoolState {
        let p = pool.0.borrow();
        let stats = p.stats();
        (
            [
                stats.distinct_sectors,
                stats.short_images,
                stats.alias_images,
            ],
            [
                p.full.refs.clone(),
                p.short.refs.clone(),
                p.alias.refs.clone(),
            ],
        )
    }

    /// `images` interned into `pool` one sector at a time, none of them
    /// after a predecessor: the reference [`PoolRun::intern`] must match.
    fn intern_each(pool: &ImagePool, images: &[SectorBuf]) -> PoolRun {
        let mut p = pool.0.borrow_mut();
        PoolRun {
            pool: pool.clone(),
            entries: images.iter().map(|image| p.intern(image).0).collect(),
        }
    }

    /// Sectors `sectors` of `run` under the first bytes `byte0` gives, one
    /// sector at a time: the reference [`PoolRun::with_first_bytes`] must
    /// match.
    fn with_first_bytes_each(
        run: &PoolRun,
        sectors: Range<usize>,
        byte0: impl Fn(usize) -> u8,
    ) -> PoolRun {
        let mut p = run.pool.0.borrow_mut();
        let entries = run.entries[sectors].iter().enumerate();
        PoolRun {
            pool: run.pool.clone(),
            entries: entries
                .map(|(i, &entry)| p.with_first_byte(entry, byte0(i)).0)
                .collect(),
        }
    }

    /// Drives three stores and a plain map for each — two on `shared`,
    /// whose payloads they take by reference, and one on a pool of its
    /// own, which copies them — through byte writes and reads, through
    /// payloads interned into `shared`, log copies of them with each
    /// sector under another byte 0, written by reference and dropped in
    /// any order, and through reads kept as views, which must go on
    /// reading what the model held when they were taken however their
    /// LBAs are overwritten. Buffers hold runs of equal sectors and
    /// alternations ([`model_buffer`]); with `per_sector` every write,
    /// intern and log copy goes a sector at a time instead. After every
    /// step each slot's refcount is the LBAs, aliases and payload entries
    /// naming it; dropping everything empties `shared`. Returns the state
    /// of both pools after each step and the sectors `shared` hashed.
    fn run_payload_model(
        shared: &ImagePool,
        steps: &[RunStep],
        per_sector: bool,
    ) -> (Vec<[PoolState; 2]>, u64) {
        let own_pool = ImagePool::new();
        let mut stores = [
            SectorStore::in_pool(MODEL_CAPACITY, shared),
            SectorStore::in_pool(MODEL_CAPACITY, shared),
            SectorStore::in_pool(MODEL_CAPACITY, &own_pool),
        ];
        let mut models: [HashMap<Lba, SectorBuf>; 3] = Default::default();
        // Each live payload with the sectors it must read: on `shared`,
        // and views of the third store, on its own pool.
        let mut runs: Vec<(PoolRun, Vec<SectorBuf>)> = Vec::new();
        let mut own: Vec<(PoolRun, Vec<SectorBuf>)> = Vec::new();
        let mut states = Vec::new();
        for &(op, which, lba, sectors, content) in steps {
            let k = usize::from(which % 3);
            let count = sectors.min(MODEL_CAPACITY - lba);
            match op % 7 {
                // Byte writes and reads, as the other models make them.
                0 => step(
                    &mut stores[k],
                    &mut models[k],
                    (which, lba, sectors, content),
                    per_sector,
                ),
                1 => {
                    let images = model_buffer(op / 7, content, lba, count);
                    let run = match per_sector {
                        true => intern_each(shared, &images),
                        false => PoolRun::intern(shared, images.as_flattened()),
                    };
                    runs.push((run, images));
                }
                2 if !runs.is_empty() => {
                    let (run, images) = &runs[usize::from(content) % runs.len()];
                    let first = (lba as usize) % images.len();
                    let n = (count as usize).min(images.len() - first);
                    stores[k].write_run(lba, run, first..first + n);
                    for (i, image) in images[first..first + n].iter().enumerate() {
                        models[k].insert(lba + i as u64, *image);
                    }
                }
                3 if !runs.is_empty() => {
                    drop(runs.swap_remove(usize::from(content) % runs.len()));
                }
                // A copy of part of a run with each sector under one of
                // three first bytes: 0 (the log's marker, which the
                // model's logged images carry too), 0xFF or its own — or,
                // as the log has it, every sector under the marker.
                4 if !runs.is_empty() => {
                    let (run, images) = &runs[usize::from(content) % runs.len()];
                    let first = (lba as usize) % images.len();
                    let n = (count as usize).min(images.len() - first);
                    let byte0 = |i: usize| match which % 4 {
                        3 => 0,
                        _ => [0, 0xFF, images[first + i][0]][(usize::from(which) + i) % 3],
                    };
                    let copy = match per_sector {
                        true => with_first_bytes_each(run, first..first + n, byte0),
                        false => run.with_first_bytes(first..first + n, byte0),
                    };
                    let mut logged = images[first..first + n].to_vec();
                    let mut marked = Vec::new();
                    copy.for_each_sector(0..n, |sector| marked.push(*sector));
                    for (i, image) in logged.iter_mut().enumerate() {
                        image[0] = byte0(i);
                    }
                    assert_eq!(marked, logged, "a log copy reads its own bytes");
                    runs.push((copy, logged));
                }
                // A read kept as a view: what the model holds now, zeros
                // where nothing was written.
                5 => {
                    let view = stores[k].read_run(lba, count as u32);
                    let now = expect(&models[k], lba, count).as_chunks().0.to_vec();
                    if k == 2 {
                        own.push((view, now));
                    } else {
                        runs.push((view, now));
                    }
                }
                6 if !own.is_empty() => {
                    drop(own.swap_remove(usize::from(content) % own.len()));
                }
                _ => {}
            }
            assert_eq!(stores[k].written_sectors(), models[k].len());
            for (run, images) in runs.iter().chain(&own) {
                let mut out = vec![0u8; images.len() * SECTOR_SIZE];
                run.copy_to(0..images.len(), &mut out);
                assert_eq!(out, images.as_flattened(), "a payload reads its own bytes");
            }
            let held: Vec<&PoolRun> = runs.iter().map(|(run, _)| run).collect();
            check_pool(&[&stores[0], &stores[1]], &held);
            let held: Vec<&PoolRun> = own.iter().map(|(run, _)| run).collect();
            check_pool(&[&stores[2]], &held);
            states.push([pool_state(shared), pool_state(&own_pool)]);
        }
        for (store, model) in stores.iter().zip(&models) {
            assert_eq!(
                store.read_range(0, MODEL_CAPACITY as u32),
                expect(model, 0, MODEL_CAPACITY)
            );
        }
        drop(stores);
        drop((runs, own));
        let p = shared.0.borrow();
        assert_eq!(
            p.stats().distinct_sectors,
            0,
            "dropping everything empties the pool"
        );
        assert!(p.by_hash.is_empty());
        assert!(p.aliased.iter().all(|&alias| alias == UNWRITTEN));
        (states, p.hashed)
    }

    fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
        proptest::collection::vec(
            (any::<u8>(), 0..MODEL_CAPACITY, 1u64..20, any::<u8>()),
            1..120,
        )
    }

    fn arb_shared_steps() -> impl Strategy<Value = Vec<(u8, Step)>> {
        proptest::collection::vec(
            (
                any::<u8>(),
                (any::<u8>(), 0..MODEL_CAPACITY, 1u64..20, any::<u8>()),
            ),
            1..120,
        )
    }

    fn arb_run_steps() -> impl Strategy<Value = Vec<RunStep>> {
        proptest::collection::vec(
            (
                any::<u8>(),
                any::<u8>(),
                0..MODEL_CAPACITY,
                1u64..20,
                any::<u8>(),
            ),
            1..120,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn payloads_interned_written_by_reference_and_dropped_keep_every_refcount(
            steps in arb_run_steps()
        ) {
            let hashes: [fn(&SectorBuf) -> Hashes; 2] =
                [sector_hashes, |_| Hashes { content: 0, body: 0 }];
            for hash in hashes {
                // A buffer's repeated sectors take their predecessor's
                // slot unhashed, and leave every pool exactly as
                // resolving each sector on its own does.
                let (states, hashed) =
                    run_payload_model(&ImagePool::with_hash(hash), &steps, false);
                let (reference, hashed_each) =
                    run_payload_model(&ImagePool::with_hash(hash), &steps, true);
                prop_assert_eq!(states, reference);
                prop_assert!(hashed <= hashed_each);
            }
        }

        #[test]
        fn store_matches_a_plain_map(steps in arb_steps()) {
            run_model(SectorStore::new(MODEL_CAPACITY), &steps);
        }

        #[test]
        fn store_matches_a_plain_map_when_every_image_collides(steps in arb_steps()) {
            run_model(colliding(MODEL_CAPACITY), &steps);
        }

        #[test]
        fn two_stores_on_one_pool_match_their_maps_and_leave_it_empty(
            steps in arb_shared_steps()
        ) {
            run_shared_model(&ImagePool::new(), &steps);
            run_shared_model(
                &ImagePool::with_hash(|_| Hashes { content: 0, body: 0 }),
                &steps,
            );
        }
    }
}
