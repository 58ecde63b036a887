//! The write payload: one immutable buffer from the layer that accepts a
//! write down to the medium.
//!
//! A write's bytes are needed in several places at once — Trail pins a
//! block while its write-back sits in a data disk's queue, a mirror sends
//! one buffer to every member, a database keeps an evicted page readable
//! until its write lands — and none of those places changes them. A
//! [`PayloadBuf`] lets them all hold the *same* allocation: it starts as
//! exactly the `Vec<u8>` the submitter built (no copy, no allocation) and
//! moves behind a reference count only when a second holder asks for it
//! ([`share`](PayloadBuf::share), [`sectors`](PayloadBuf::sectors)). A
//! payload that only ever has one owner — a log-record image, any write on
//! the standard stack — therefore costs what a plain `Vec<u8>` costs.
//!
//! A payload can also live in an [`ImagePool`] instead
//! ([`intern`](PayloadBuf::intern)): one pool reference per sector, four
//! bytes where the sector took 512, and each sector hashed at most once,
//! there (one equal to the sector before it takes that one's slot
//! unhashed).
//! Trail interns every write when it is submitted, into the pool its log
//! disk keeps records in, and the caller's `Vec` goes at once: the queued
//! write, the record's log copy ([`with_first_byte`](PayloadBuf::with_first_byte),
//! each sector an alias of the same body under the log's byte 0), the
//! pinned range and its queued write-back all share one body. The
//! write-back is still made "from memory" in virtual time, and on the host
//! that memory is the pool. A disk whose medium shares the pool stores a
//! pooled payload by taking references, copying nothing.
//!
//! A disk read comes back the same way, as a view of the medium: one
//! pool reference per sector read, taken when the read completes (an
//! unwritten sector reads as zeros), so a read copies nothing and keeps
//! the bytes it saw however the sectors are overwritten later. A layer
//! that needs the bytes copies them itself, once.
//!
//! The byte-backed forms stay for every producer with no pool to intern
//! into before its write reaches a disk — the standard stack, a RAID-5
//! member's parity, a database page image, a read a layer above the disk
//! assembled — where the disk's one hash of each sector, when it lands,
//! is the only one.
//!
//! There is no way to change the bytes behind a handle, and no way to
//! borrow them in place: [`copy_to`](PayloadBuf::copy_to) reads every form
//! alike. Overwriting a block means replacing its handle; whoever still
//! holds the old one keeps reading the old bytes.

use std::fmt;
use std::ops::Range;
use std::rc::Rc;

use crate::geometry::{Lba, SECTOR_SIZE};
use crate::store::{ImagePool, PoolRun, SectorBuf, SectorStore};

/// An immutable write payload; see the [module docs](self).
///
/// Deliberately not `Clone`: a `&self` clone of a sole owner would have to
/// copy the bytes. [`share`](Self::share) is the clone — it takes
/// `&mut self` because the first call moves the buffer behind its
/// reference count — and [`to_vec`](Self::to_vec) is the copy, spelled
/// out.
///
/// # Examples
///
/// ```
/// use trail_disk::{ImagePool, PayloadBuf, SECTOR_SIZE};
///
/// let mut block = PayloadBuf::from(vec![7u8; 4 * SECTOR_SIZE]);
/// let queued = block.share();
/// assert!(queued.ptr_eq(&block));
/// let tail = block.sectors(1, 3);
/// assert!(tail.ptr_eq(&block));
/// assert_eq!(tail.len(), 3 * SECTOR_SIZE);
///
/// // Interned, the handle reads the same bytes out of the pool.
/// let pool = ImagePool::new();
/// block.intern(&pool);
/// assert_eq!(pool.stats().distinct_sectors, 1);
/// assert_eq!(block.sectors(2, 1).to_vec(), vec![7u8; SECTOR_SIZE]);
/// ```
#[derive(Default)]
pub struct PayloadBuf {
    repr: Repr,
}

enum Repr {
    /// Sole owner: the `Vec` the payload arrived as.
    Owned(Vec<u8>),
    /// `bytes[start..start + len]` of an allocation other handles share.
    Shared {
        bytes: Rc<Vec<u8>>,
        start: usize,
        len: usize,
    },
    /// Sectors `first..first + count` of a run in an image pool, which
    /// other handles may share. (`u32`s keep a handle eight bytes larger
    /// than the other forms, not sixteen: a run is one write or read, far
    /// below 2³² sectors.)
    Pooled {
        run: PoolRun,
        first: u32,
        count: u32,
    },
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Owned(Vec::new())
    }
}

impl PayloadBuf {
    /// Moves a sole owner's buffer behind a reference count (the one
    /// allocation sharing ever costs).
    fn promote(&mut self) {
        if let Repr::Owned(vec) = &mut self.repr {
            let len = vec.len();
            self.repr = Repr::Shared {
                bytes: Rc::new(std::mem::take(vec)),
                start: 0,
                len,
            };
        }
    }

    /// A second handle to the same bytes. No byte is copied.
    #[must_use]
    pub fn share(&mut self) -> PayloadBuf {
        let len = self.len();
        self.view(0, len)
    }

    /// A handle to `count` sectors of this payload starting at its sector
    /// `first`, sharing the allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range reaches past the payload.
    #[must_use]
    pub fn sectors(&mut self, first: usize, count: usize) -> PayloadBuf {
        let (offset, view_len) = (first * SECTOR_SIZE, count * SECTOR_SIZE);
        assert!(
            offset + view_len <= self.len(),
            "sectors {first}..{} of a {}-byte payload",
            first + count,
            self.len()
        );
        self.view(offset, view_len)
    }

    /// A handle to bytes `offset..offset + len`, sector-aligned unless
    /// the view is the whole payload.
    fn view(&mut self, offset: usize, view_len: usize) -> PayloadBuf {
        self.promote();
        let repr = match &self.repr {
            Repr::Shared { bytes, start, .. } => Repr::Shared {
                bytes: Rc::clone(bytes),
                start: start + offset,
                len: view_len,
            },
            Repr::Pooled { run, first, .. } => Repr::Pooled {
                run: run.clone(),
                first: first + (offset / SECTOR_SIZE) as u32,
                count: (view_len / SECTOR_SIZE) as u32,
            },
            Repr::Owned(_) => unreachable!("promoted above"),
        };
        PayloadBuf { repr }
    }

    /// Whether both handles read from one allocation or one pooled run
    /// (whatever range of it each covers). A payload nobody shares is one
    /// with nothing.
    #[must_use]
    pub fn ptr_eq(&self, other: &PayloadBuf) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Shared { bytes: a, .. }, Repr::Shared { bytes: b, .. }) => Rc::ptr_eq(a, b),
            (Repr::Pooled { run: a, .. }, Repr::Pooled { run: b, .. }) => PoolRun::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Owned(vec) => vec.len(),
            Repr::Shared { len, .. } => *len,
            Repr::Pooled { count, .. } => *count as usize * SECTOR_SIZE,
        }
    }

    /// Whether the payload holds no byte.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Where the payload's bytes are.
    fn form(&self) -> Form<'_> {
        match &self.repr {
            Repr::Owned(vec) => Form::Bytes(vec),
            Repr::Shared { bytes, start, len } => Form::Bytes(&bytes[*start..*start + *len]),
            Repr::Pooled { run, first, count } => {
                Form::Pooled(run, *first as usize..(first + count) as usize)
            }
        }
    }

    /// The bytes, while the payload holds them itself; `None` once it is
    /// [interned](Self::intern). Readers that must take every form call
    /// [`copy_to`](Self::copy_to).
    #[must_use]
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self.form() {
            Form::Bytes(bytes) => Some(bytes),
            Form::Pooled(..) => None,
        }
    }

    /// Copies the payload into `out`, whatever form it is kept in.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not exactly as long as the payload.
    pub fn copy_to(&self, out: &mut [u8]) {
        assert_eq!(out.len(), self.len(), "copy_to a buffer of another length");
        match self.form() {
            Form::Bytes(bytes) => out.copy_from_slice(bytes),
            Form::Pooled(run, sectors) => run.copy_to(sectors, out),
        }
    }

    /// A copy of the payload's bytes.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len()];
        self.copy_to(&mut out);
        out
    }

    /// The payload with each sector's byte 0 replaced by `byte0`: what a
    /// log keeps of it. See [`with_first_bytes`](Self::with_first_bytes).
    #[must_use]
    pub fn with_first_byte(&self, byte0: u8) -> PayloadBuf {
        self.with_first_bytes(|_| byte0)
    }

    /// The payload with the byte 0 of its sector `i` replaced by
    /// `byte0(i)`: a log copy, or a logged sector restored to what was
    /// written. A pooled payload gives one in the same pool whose every
    /// sector is its own slot, its base or an alias of that base — no byte
    /// hashed, compared or copied; a byte-backed one is copied.
    #[must_use]
    pub fn with_first_bytes(&self, mut byte0: impl FnMut(usize) -> u8) -> PayloadBuf {
        match self.form() {
            Form::Pooled(run, sectors) => Self::pooled(run.with_first_bytes(sectors, byte0)),
            Form::Bytes(bytes) => {
                let mut marked = bytes.to_vec();
                for (i, sector) in marked.chunks_exact_mut(SECTOR_SIZE).enumerate() {
                    sector[0] = byte0(i);
                }
                marked.into()
            }
        }
    }

    /// A copy of the payload's sector `i`.
    ///
    /// # Panics
    ///
    /// Panics if the payload has no sector `i`.
    #[must_use]
    pub fn sector(&self, i: usize) -> SectorBuf {
        let mut out = [0u8; SECTOR_SIZE];
        match self.form() {
            Form::Bytes(bytes) => out.copy_from_slice(&bytes[i * SECTOR_SIZE..][..SECTOR_SIZE]),
            Form::Pooled(run, sectors) => {
                assert!(i < sectors.len(), "sector {i} of {}", sectors.len());
                run.copy_to(sectors.start + i..sectors.start + i + 1, &mut out);
            }
        }
        out
    }

    /// Calls `f` with each whole sector of the payload, in order, whatever
    /// form it is kept in.
    pub fn for_each_sector(&self, f: impl FnMut(&SectorBuf)) {
        match self.form() {
            Form::Bytes(bytes) => bytes.as_chunks().0.iter().for_each(f),
            Form::Pooled(run, sectors) => run.for_each_sector(sectors, f),
        }
    }

    /// A read of `count` sectors of `store` from `lba`: a view of the
    /// medium that copies no byte and keeps what it read whatever is
    /// written there later (see [`SectorStore::read_run`]).
    pub(crate) fn read(store: &SectorStore, lba: Lba, count: u32) -> Self {
        Self::pooled(store.read_run(lba, count))
    }

    /// A handle to the whole of `run`.
    fn pooled(run: PoolRun) -> Self {
        PayloadBuf {
            repr: Repr::Pooled {
                count: u32::try_from(run.len()).expect("a run is under 2³² sectors"),
                run,
                first: 0,
            },
        }
    }

    /// Keeps this handle's sectors in `pool` from now on: it holds one
    /// reference per sector on the pool's images instead of the bytes,
    /// which go with the last handle still reading them. Each sector is
    /// resolved as a store write would resolve it — one equal to the
    /// sector before it takes that one's slot, any other is hashed — so
    /// one whose body the pool holds already under another byte 0 costs a
    /// five-byte alias at most.
    /// A payload already in `pool` is left as it is.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not a whole number of sectors.
    pub fn intern(&mut self, pool: &ImagePool) {
        let run = match self.form() {
            Form::Pooled(run, _) if ImagePool::ptr_eq(run.pool(), pool) => return,
            Form::Bytes(bytes) => PoolRun::intern(pool, bytes),
            Form::Pooled(..) => PoolRun::intern(pool, &self.to_vec()),
        };
        *self = Self::pooled(run);
    }

    /// Writes the payload's first `sectors` sectors to `store` from `lba`:
    /// a pooled payload on the store's own pool by reference, any other
    /// by its bytes.
    pub(crate) fn write_prefix(&self, store: &mut SectorStore, lba: Lba, sectors: usize) {
        match self.form() {
            Form::Bytes(bytes) => store.write_range(lba, &bytes[..sectors * SECTOR_SIZE]),
            Form::Pooled(run, within) => {
                store.write_run(lba, run, within.start..within.start + sectors);
            }
        }
    }
}

/// A payload's bytes as [`PayloadBuf::form`] finds them: held, or sectors
/// of a pooled run.
enum Form<'a> {
    Bytes(&'a [u8]),
    Pooled(&'a PoolRun, Range<usize>),
}

impl From<Vec<u8>> for PayloadBuf {
    fn from(bytes: Vec<u8>) -> Self {
        PayloadBuf {
            repr: Repr::Owned(bytes),
        }
    }
}

/// A write command's payload: [`PayloadBuf`] parts laid end to end on the
/// medium. A block queue that merges adjacent queued writes into one disk
/// command hands the disk each member's handle as it is, so no byte is
/// copied to build the command; a write of one part (every write nothing
/// merged into) allocates nothing beyond that part.
///
/// # Examples
///
/// ```
/// use trail_disk::{PayloadChain, SECTOR_SIZE};
///
/// let mut chain = PayloadChain::from(vec![1u8; 2 * SECTOR_SIZE]);
/// chain.push(vec![2u8; SECTOR_SIZE].into());
/// assert_eq!(chain.len(), 3 * SECTOR_SIZE);
/// assert_eq!(chain.parts().count(), 2);
/// ```
#[derive(Debug, Default)]
pub struct PayloadChain {
    first: PayloadBuf,
    rest: Vec<PayloadBuf>,
}

impl PayloadChain {
    /// Appends `part`, to land right after the parts before it.
    pub fn push(&mut self, part: PayloadBuf) {
        self.rest.push(part);
    }

    /// The parts, in medium order.
    pub fn parts(&self) -> impl Iterator<Item = &PayloadBuf> {
        std::iter::once(&self.first).chain(&self.rest)
    }

    /// Total length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parts().map(|p| p.len()).sum()
    }

    /// Whether the chain holds no byte.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl From<PayloadBuf> for PayloadChain {
    fn from(first: PayloadBuf) -> Self {
        PayloadChain {
            first,
            rest: Vec::new(),
        }
    }
}

impl From<Vec<u8>> for PayloadChain {
    fn from(bytes: Vec<u8>) -> Self {
        PayloadBuf::from(bytes).into()
    }
}

// The bytes themselves would drown every `{:?}` of a command or request.
impl fmt::Debug for PayloadBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PayloadBuf")
            .field("len", &self.len())
            .field("shared", &!matches!(self.repr, Repr::Owned(_)))
            .field("pooled", &self.as_bytes().is_none())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn a_sole_owner_keeps_the_vec_it_was_given() {
        let vec = vec![3u8; 2 * SECTOR_SIZE];
        let at = vec.as_ptr();
        let mut p = PayloadBuf::from(vec);
        let at_of = |p: &PayloadBuf| p.as_bytes().expect("byte-backed").as_ptr();
        assert_eq!(at_of(&p), at, "From<Vec<u8>> copies nothing");
        assert!(matches!(p.repr, Repr::Owned(_)));
        assert!(!p.ptr_eq(&p), "an unshared payload is one with nothing");
        let q = p.share();
        assert_eq!((at_of(&p), at_of(&q)), (at, at), "nor does share");
        assert!(p.ptr_eq(&q) && q.ptr_eq(&p));
    }

    #[test]
    fn distinct_allocations_with_equal_bytes_are_not_ptr_eq() {
        let mut a = PayloadBuf::from(vec![1u8; SECTOR_SIZE]);
        let mut b = PayloadBuf::from(vec![1u8; SECTOR_SIZE]);
        let (a2, b2) = (a.share(), b.share());
        assert_eq!(a2.to_vec(), b2.to_vec());
        assert!(!a2.ptr_eq(&b2));
    }

    #[test]
    fn an_interned_payload_reads_its_bytes_from_the_pool_and_hands_them_back() {
        let plain: Vec<u8> = (0..4 * SECTOR_SIZE).map(|i| (i % 251) as u8).collect();
        let pool = ImagePool::new();
        let mut p = PayloadBuf::from(plain.clone());
        let kept = p.share();
        p.intern(&pool);
        assert!(p.as_bytes().is_none(), "interned");
        assert_eq!((p.len(), p.to_vec()), (plain.len(), plain.clone()));
        assert_eq!(pool.stats().distinct_sectors, 4);
        // The handle that was not interned still reads its own bytes.
        assert_eq!(kept.as_bytes(), Some(&plain[..]));
        assert!(!kept.ptr_eq(&p));
        // Views of a pooled payload share its run; interning into the pool
        // it is in already changes nothing.
        let mut tail = p.sectors(1, 3);
        tail.intern(&pool);
        assert!(tail.ptr_eq(&p));
        let mut out = vec![0u8; 2 * SECTOR_SIZE];
        tail.sectors(1, 2).copy_to(&mut out);
        assert_eq!(out, plain[2 * SECTOR_SIZE..]);
        // Into another pool: a copy of its own there.
        let other = ImagePool::new();
        let mut moved = tail.share();
        moved.intern(&other);
        assert!(!moved.ptr_eq(&tail));
        assert_eq!(moved.to_vec(), plain[SECTOR_SIZE..]);
        assert_eq!(other.stats().distinct_sectors, 3);
        drop(moved);
        assert_eq!(other.stats().distinct_sectors, 0);
        // The run goes with its last handle.
        drop(p);
        assert_eq!(pool.stats().distinct_sectors, 4);
        drop(tail);
        assert_eq!(pool.stats().distinct_sectors, 0);
    }

    #[test]
    fn a_log_copy_of_a_pooled_payload_is_aliases_of_its_sectors() {
        // Whole, short and zero sectors, first bytes marker and not.
        let mut plain = vec![0u8; 4 * SECTOR_SIZE];
        plain[..SECTOR_SIZE].fill(9);
        plain[SECTOR_SIZE..SECTOR_SIZE + 100].fill(7);
        plain[3 * SECTOR_SIZE..].fill(5);
        plain[3 * SECTOR_SIZE] = 0;
        let logged = |mut bytes: Vec<u8>| {
            for sector in bytes.chunks_exact_mut(SECTOR_SIZE) {
                sector[0] = 0;
            }
            bytes
        };
        let pool = ImagePool::new();
        let mut p = PayloadBuf::from(plain.clone());
        p.intern(&pool);
        let before = pool.stats();
        assert_eq!(before.hashed_sectors, 4);
        let copy = p.with_first_byte(0);
        assert_eq!(copy.to_vec(), logged(plain.clone()));
        let mut sectors = Vec::new();
        copy.for_each_sector(|s| sectors.extend_from_slice(s));
        assert_eq!(sectors, logged(plain.clone()));
        // The whole and the short sector gain an alias each; the zero
        // sector and the one whose byte 0 is the marker are their own log
        // copies. Nothing was hashed.
        let after = pool.stats();
        assert_eq!(after.hashed_sectors, before.hashed_sectors);
        assert_eq!(after.alias_images - before.alias_images, 2);
        assert_eq!(after.distinct_sectors - before.distinct_sectors, 2);
        // A second copy under the same byte shares the whole sector's
        // alias; a short base's alias is not found again.
        let again = p.sectors(0, 2).with_first_byte(0);
        assert_eq!(pool.stats().alias_images - after.alias_images, 1);
        drop((p, copy, again));
        assert_eq!(pool.stats().distinct_sectors, 0);
        // A byte-backed payload is copied.
        let bytes = PayloadBuf::from(plain.clone());
        assert_eq!(bytes.with_first_byte(0).to_vec(), logged(plain));
    }

    #[test]
    #[should_panic(expected = "whole sectors")]
    fn interning_a_ragged_payload_panics() {
        PayloadBuf::from(vec![0u8; SECTOR_SIZE + 1]).intern(&ImagePool::new());
    }

    #[test]
    #[should_panic(expected = "of a 1024-byte payload")]
    fn a_view_past_the_end_panics() {
        let _ = PayloadBuf::from(vec![0u8; 2 * SECTOR_SIZE]).sectors(1, 2);
    }

    proptest! {
        /// Any chain of sub-range views reads what the same slicing of a
        /// plain `Vec` reads and shares the root's allocation; dropping
        /// the handles in any order leaves the survivors intact, and the
        /// allocation goes with the last handle, not before.
        #[test]
        fn view_chains_equal_vec_slicing_and_drop_in_any_order(
            total in 1usize..24,
            cuts in proptest::collection::vec((0usize..64, 0usize..64), 1..8),
            order in proptest::collection::vec(any::<u16>(), 8),
        ) {
            let plain: Vec<u8> = (0..total * SECTOR_SIZE)
                .map(|i| (i / SECTOR_SIZE * 31 + i % 253) as u8)
                .collect();
            // Each handle with the window of `plain` it should read; every
            // view is cut from the one before it.
            let mut handles = vec![(PayloadBuf::from(plain.clone()), 0usize, total)];
            for (a, b) in cuts {
                let (parent, base, have) = handles.last_mut().expect("root");
                let first = a % (*have + 1);
                let count = b % (*have - first + 1);
                let view = (parent.sectors(first, count), *base + first, count);
                handles.push(view);
            }
            let Repr::Shared { bytes, .. } = &handles[0].0.repr else {
                panic!("cutting a view shares the root");
            };
            let allocation = Rc::downgrade(bytes);
            for pick in order {
                prop_assert_eq!(allocation.strong_count(), handles.len());
                for (h, base, count) in &handles {
                    prop_assert!(h.ptr_eq(&handles[0].0));
                    prop_assert_eq!(
                        h.to_vec(),
                        &plain[base * SECTOR_SIZE..(base + count) * SECTOR_SIZE]
                    );
                }
                if handles.is_empty() {
                    break;
                }
                drop(handles.swap_remove(pick as usize % handles.len()));
            }
            drop(handles);
            prop_assert!(allocation.upgrade().is_none(), "freed with the last handle");
        }
    }
}
