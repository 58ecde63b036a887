//! Pinned buffer memory (paper §4.2).
//!
//! Blocks that have reached the log disk but not yet the data disks stay
//! pinned in the driver's buffer memory — write-back happens **from
//! memory**, never from the log disk, which is why Trail's garbage
//! collection is free. The table also implements the paper's overwrite
//! rules: a new write to a pinned block replaces its contents immediately
//! (the page is unlocked as soon as the log write finishes) — by swapping
//! in the new payload handle, never by touching bytes a queued write-back
//! may still be holding — at most one write-back per block is ever queued,
//! and a write-back that raced with a newer overwrite is *cancelled* — its
//! log tracks stay live until a write-back of the current contents
//! succeeds, at which point every log record that ever logged this block
//! is released at once.

use std::collections::HashMap;

use trail_disk::PayloadBuf;

/// Identifies a pinned block: which data disk and which starting sector.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct BlockKey {
    /// Data-disk index.
    pub dev: u8,
    /// First sector of the block on the data disk.
    pub lba: u64,
}

/// One pinned block.
#[derive(Debug)]
struct BufferEntry {
    data: PayloadBuf,
    version: u64,
    writeback_queued: bool,
    /// Sequence ids of every log record that logged (any version of) this
    /// block and has not yet been released.
    log_refs: Vec<u64>,
}

/// Outcome of a completed data-disk write-back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WritebackOutcome {
    /// The block's current contents are on the data disk; the block is
    /// unpinned and these log-record sequence ids are released.
    Committed(Vec<u64>),
    /// The block was overwritten while the write-back was in flight
    /// (the paper's cancellation case). The block stays pinned; the caller
    /// must queue a fresh write-back for the returned version.
    Superseded {
        /// The version that must now be written back.
        current_version: u64,
    },
}

/// The driver's pinned-buffer table.
///
/// # Examples
///
/// ```
/// use trail_core::{BlockKey, BufferTable, WritebackOutcome};
///
/// let mut t = BufferTable::new();
/// let key = BlockKey { dev: 0, lba: 64 };
/// let (v1, queued) = t.insert_write(key, vec![1; 512], 10);
/// assert!(!queued, "first write must queue a write-back");
/// assert_eq!(
///     t.complete_writeback(key, v1),
///     WritebackOutcome::Committed(vec![10])
/// );
/// assert!(t.lookup(key).is_none());
/// ```
#[derive(Debug, Default)]
pub struct BufferTable {
    entries: HashMap<BlockKey, BufferEntry>,
    next_version: u64,
    peak_pinned: usize,
    peak_pinned_bytes: usize,
    pinned_bytes: usize,
}

impl BufferTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pinned blocks.
    pub fn pinned_blocks(&self) -> usize {
        self.entries.len()
    }

    /// Bytes currently pinned.
    pub fn pinned_bytes(&self) -> usize {
        self.pinned_bytes
    }

    /// Largest number of simultaneously pinned blocks observed.
    pub fn peak_pinned_blocks(&self) -> usize {
        self.peak_pinned
    }

    /// Largest number of simultaneously pinned bytes observed.
    pub fn peak_pinned_bytes(&self) -> usize {
        self.peak_pinned_bytes
    }

    /// Records a block that just reached the log disk under record
    /// `log_seq`: pins (or replaces) its contents and attaches the record
    /// reference.
    ///
    /// Returns the block's new version and whether a write-back is already
    /// queued (in which case the caller must *not* queue another — "only
    /// one request for the buffer is kept in the queue").
    pub fn insert_write(
        &mut self,
        key: BlockKey,
        data: impl Into<PayloadBuf>,
        log_seq: u64,
    ) -> (u64, bool) {
        let data = data.into();
        self.next_version += 1;
        let version = self.next_version;
        let len = data.len();
        let entry = self.entries.entry(key);
        let (already_queued, old_len) = match entry {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                let e = o.get_mut();
                let old_len = e.data.len();
                e.data = data;
                e.version = version;
                // One batch can log the same block twice; the record still
                // holds a single pending reference to this block.
                if e.log_refs.last() != Some(&log_seq) {
                    e.log_refs.push(log_seq);
                }
                let q = e.writeback_queued;
                e.writeback_queued = true;
                (q, old_len)
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(BufferEntry {
                    data,
                    version,
                    writeback_queued: true,
                    log_refs: vec![log_seq],
                });
                (false, 0)
            }
        };
        self.pinned_bytes = self.pinned_bytes - old_len + len;
        self.peak_pinned = self.peak_pinned.max(self.entries.len());
        self.peak_pinned_bytes = self.peak_pinned_bytes.max(self.pinned_bytes);
        (version, already_queued)
    }

    /// The data to ship in a write-back of `key` right now, with the
    /// version it represents: a second handle to the pinned bytes, not a
    /// copy of them. A later overwrite replaces the table's handle and
    /// leaves this one reading the version it was taken at.
    ///
    /// # Panics
    ///
    /// Panics if the block is not pinned (a write-back must have been
    /// queued by [`insert_write`](Self::insert_write)).
    pub fn snapshot(&mut self, key: BlockKey) -> (PayloadBuf, u64) {
        let e = self
            .entries
            .get_mut(&key)
            .expect("snapshot of unpinned block");
        (e.data.share(), e.version)
    }

    /// Resolves a completed write-back of `key` that shipped `version`.
    ///
    /// # Panics
    ///
    /// Panics if the block is not pinned.
    pub fn complete_writeback(&mut self, key: BlockKey, version: u64) -> WritebackOutcome {
        let e = self
            .entries
            .get_mut(&key)
            .expect("write-back completion for unpinned block");
        if e.version == version {
            let removed = self.entries.remove(&key).expect("entry just accessed");
            self.pinned_bytes -= removed.data.len();
            WritebackOutcome::Committed(removed.log_refs)
        } else {
            debug_assert!(e.version > version, "versions are monotone");
            WritebackOutcome::Superseded {
                current_version: e.version,
            }
        }
    }

    /// Returns the pinned contents of `key`, if present (the read-path
    /// fast hit).
    pub fn lookup(&self, key: BlockKey) -> Option<&PayloadBuf> {
        self.entries.get(&key).map(|e| &e.data)
    }

    /// Iterates over the pinned block keys (diagnostics, shutdown flush).
    pub fn keys(&self) -> impl Iterator<Item = BlockKey> + '_ {
        self.entries.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const K: BlockKey = BlockKey { dev: 1, lba: 100 };

    #[test]
    fn first_write_pins_and_queues() {
        let mut t = BufferTable::new();
        let (_, queued) = t.insert_write(K, vec![1, 2, 3], 5);
        assert!(!queued);
        assert_eq!(t.pinned_blocks(), 1);
        assert_eq!(t.pinned_bytes(), 3);
        assert_eq!(t.lookup(K).map(|d| &**d), Some(&[1u8, 2, 3][..]));
    }

    #[test]
    fn overwrite_replaces_data_without_requeue() {
        let mut t = BufferTable::new();
        t.insert_write(K, vec![1; 512], 5);
        let (v2, queued) = t.insert_write(K, vec![2; 512], 6);
        assert!(queued, "second write must not queue another write-back");
        assert_eq!(t.lookup(K).map(|d| &**d), Some(&vec![2u8; 512][..]));
        assert_eq!(t.pinned_blocks(), 1);
        let (snap, v) = t.snapshot(K);
        assert_eq!(v, v2);
        assert_eq!(snap[0], 2);
    }

    #[test]
    fn a_snapshot_shares_the_pinned_bytes_and_outlives_an_overwrite() {
        let mut t = BufferTable::new();
        t.insert_write(K, vec![1; 512], 5);
        let (snap, v1) = t.snapshot(K);
        assert!(snap.ptr_eq(t.lookup(K).unwrap()), "a handle, not a copy");
        assert_eq!(t.pinned_bytes(), 512, "one buffer, counted once");
        // The overwrite swaps the table's handle; the snapshot still reads
        // the version it was taken at.
        let (v2, _) = t.insert_write(K, vec![2; 512], 6);
        assert_eq!(&snap[..], &[1u8; 512][..]);
        assert!(!snap.ptr_eq(t.lookup(K).unwrap()));
        assert_eq!(
            t.complete_writeback(K, v1),
            WritebackOutcome::Superseded {
                current_version: v2
            }
        );
        let (retry, v) = t.snapshot(K);
        assert_eq!((v, &retry[..]), (v2, &[2u8; 512][..]));
        assert_eq!(t.peak_pinned_bytes(), 512);
    }

    #[test]
    fn committed_writeback_releases_all_refs() {
        let mut t = BufferTable::new();
        t.insert_write(K, vec![1; 4], 5);
        let (v, _) = t.insert_write(K, vec![2; 4], 6);
        match t.complete_writeback(K, v) {
            WritebackOutcome::Committed(refs) => assert_eq!(refs, vec![5, 6]),
            other => panic!("expected Committed, got {other:?}"),
        }
        assert_eq!(t.pinned_blocks(), 0);
        assert_eq!(t.pinned_bytes(), 0);
    }

    #[test]
    fn stale_writeback_is_superseded_and_refs_survive() {
        let mut t = BufferTable::new();
        let (v1, _) = t.insert_write(K, vec![1; 4], 5);
        let (v2, _) = t.insert_write(K, vec![2; 4], 6);
        // The in-flight write-back shipped v1; by completion the block is
        // at v2: cancelled, block stays pinned.
        assert_eq!(
            t.complete_writeback(K, v1),
            WritebackOutcome::Superseded {
                current_version: v2
            }
        );
        assert_eq!(t.pinned_blocks(), 1);
        // The retry at v2 releases both records' refs.
        assert_eq!(
            t.complete_writeback(K, v2),
            WritebackOutcome::Committed(vec![5, 6])
        );
    }

    #[test]
    fn peak_tracking() {
        let mut t = BufferTable::new();
        t.insert_write(BlockKey { dev: 0, lba: 0 }, vec![0; 10], 1);
        t.insert_write(BlockKey { dev: 0, lba: 1 }, vec![0; 10], 2);
        let (v, _) = t.insert_write(BlockKey { dev: 0, lba: 2 }, vec![0; 10], 3);
        t.complete_writeback(BlockKey { dev: 0, lba: 2 }, v);
        assert_eq!(t.pinned_blocks(), 2);
        assert_eq!(t.peak_pinned_blocks(), 3);
        assert_eq!(t.peak_pinned_bytes(), 30);
    }

    #[test]
    #[should_panic(expected = "unpinned block")]
    fn completion_for_unknown_block_panics() {
        BufferTable::new().complete_writeback(K, 1);
    }

    #[test]
    fn distinct_keys_are_independent() {
        let mut t = BufferTable::new();
        let k2 = BlockKey { dev: 1, lba: 200 };
        t.insert_write(K, vec![1; 4], 1);
        let (_, queued) = t.insert_write(k2, vec![2; 4], 2);
        assert!(!queued, "different block must queue its own write-back");
        assert_eq!(t.keys().count(), 2);
    }
}
