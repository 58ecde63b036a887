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
//! There is no way to change the bytes behind a handle. Overwriting a
//! block means replacing its handle; whoever still holds the old one keeps
//! reading the old bytes.

use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

use crate::geometry::SECTOR_SIZE;

/// An immutable write payload; see the [module docs](self).
///
/// Deliberately not `Clone`: a `&self` clone of a sole owner would have to
/// copy the bytes. [`share`](Self::share) is the clone — it takes
/// `&mut self` because the first call moves the buffer behind its
/// reference count — and `to_vec()` is the copy, spelled out.
///
/// # Examples
///
/// ```
/// use trail_disk::{PayloadBuf, SECTOR_SIZE};
///
/// let mut block = PayloadBuf::from(vec![7u8; 4 * SECTOR_SIZE]);
/// let queued = block.share();
/// assert!(queued.ptr_eq(&block));
/// let tail = block.sectors(1, 3);
/// assert!(tail.ptr_eq(&block));
/// assert_eq!(tail.len(), 3 * SECTOR_SIZE);
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
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Owned(Vec::new())
    }
}

impl PayloadBuf {
    /// Moves a sole owner's buffer behind a reference count (the one
    /// allocation sharing ever costs) and returns the shared parts.
    fn shared_parts(&mut self) -> (&Rc<Vec<u8>>, usize, usize) {
        if let Repr::Owned(vec) = &mut self.repr {
            let len = vec.len();
            self.repr = Repr::Shared {
                bytes: Rc::new(std::mem::take(vec)),
                start: 0,
                len,
            };
        }
        match &self.repr {
            Repr::Shared { bytes, start, len } => (bytes, *start, *len),
            Repr::Owned(_) => unreachable!("promoted above"),
        }
    }

    /// A second handle to the same bytes. No byte is copied.
    #[must_use]
    pub fn share(&mut self) -> PayloadBuf {
        let (bytes, start, len) = self.shared_parts();
        PayloadBuf {
            repr: Repr::Shared {
                bytes: Rc::clone(bytes),
                start,
                len,
            },
        }
    }

    /// A handle to `count` sectors of this payload starting at its sector
    /// `first`, sharing the allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range reaches past the payload.
    #[must_use]
    pub fn sectors(&mut self, first: usize, count: usize) -> PayloadBuf {
        let (bytes, start, len) = self.shared_parts();
        let (offset, view_len) = (first * SECTOR_SIZE, count * SECTOR_SIZE);
        assert!(
            offset + view_len <= len,
            "sectors {first}..{} of a {len}-byte payload",
            first + count
        );
        PayloadBuf {
            repr: Repr::Shared {
                bytes: Rc::clone(bytes),
                start: start + offset,
                len: view_len,
            },
        }
    }

    /// Whether both handles read from one allocation (whatever range of it
    /// each covers). A payload nobody shares is one with nothing.
    #[must_use]
    pub fn ptr_eq(&self, other: &PayloadBuf) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Shared { bytes: a, .. }, Repr::Shared { bytes: b, .. }) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl From<Vec<u8>> for PayloadBuf {
    fn from(bytes: Vec<u8>) -> Self {
        PayloadBuf {
            repr: Repr::Owned(bytes),
        }
    }
}

impl Deref for PayloadBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.repr {
            Repr::Owned(vec) => vec,
            Repr::Shared { bytes, start, len } => &bytes[*start..*start + *len],
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
            .field("shared", &matches!(self.repr, Repr::Shared { .. }))
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
        assert_eq!(p.as_ptr(), at, "From<Vec<u8>> copies nothing");
        assert!(matches!(p.repr, Repr::Owned(_)));
        assert!(!p.ptr_eq(&p), "an unshared payload is one with nothing");
        let q = p.share();
        assert_eq!((p.as_ptr(), q.as_ptr()), (at, at), "nor does share");
        assert!(p.ptr_eq(&q) && q.ptr_eq(&p));
    }

    #[test]
    fn distinct_allocations_with_equal_bytes_are_not_ptr_eq() {
        let mut a = PayloadBuf::from(vec![1u8; SECTOR_SIZE]);
        let mut b = PayloadBuf::from(vec![1u8; SECTOR_SIZE]);
        let (a2, b2) = (a.share(), b.share());
        assert_eq!(&*a2, &*b2);
        assert!(!a2.ptr_eq(&b2));
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
                        &**h,
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
