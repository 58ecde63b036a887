//! The buffer pool: a clock-eviction page cache.
//!
//! The paper's testbed gives Berkeley DB a 300-MByte cache over a ~1-GByte
//! database; the reproduction keeps the same cache:database *ratio* at a
//! reduced scale (see `EXPERIMENTS.md`). Misses and dirty write-backs are
//! what generate the data-disk traffic whose scheduling Trail improves.

use trail_sim::FastMap;

use crate::page::{Page, PageId};

/// Cache counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Lookups that found the page resident.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
    /// Evicted pages that were dirty (had to be written out).
    pub dirty_evictions: u64,
}

struct Frame {
    id: PageId,
    page: Page,
    dirty: bool,
    referenced: bool,
}

/// A fixed-capacity page cache with clock (second-chance) eviction.
///
/// # Examples
///
/// ```
/// use trail_db::{BufferPool, Page, PageId};
///
/// let mut pool = BufferPool::new(2);
/// let a = PageId { dev: 0, page_no: 1 };
/// pool.insert(a, Page::new());
/// assert!(pool.get_mut(a).is_some());
/// ```
pub struct BufferPool {
    capacity: usize,
    frames: Vec<Frame>,
    map: FastMap<PageId, usize>,
    hand: usize,
    dirty: usize,
    stats: CacheStats,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("resident", &self.frames.len())
            .field("capacity", &self.capacity)
            .field("dirty", &self.dirty)
            .finish()
    }
}

impl BufferPool {
    /// Creates a pool holding at most `capacity` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        BufferPool {
            capacity,
            frames: Vec::with_capacity(capacity.min(1 << 20)),
            map: FastMap::default(),
            hand: 0,
            dirty: 0,
            stats: CacheStats::default(),
        }
    }

    /// Maximum resident pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently resident pages.
    pub fn resident(&self) -> usize {
        self.frames.len()
    }

    /// Currently dirty pages.
    pub fn dirty_pages(&self) -> usize {
        self.dirty
    }

    /// A copy of the counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Whether `id` is resident (does not count as a lookup).
    pub fn contains(&self, id: PageId) -> bool {
        self.map.contains_key(&id)
    }

    /// Looks up `id`, marking it recently used and counting hit/miss.
    pub fn get_mut(&mut self, id: PageId) -> Option<&mut Page> {
        match self.map.get(&id) {
            Some(&i) => {
                self.stats.hits += 1;
                let f = &mut self.frames[i];
                f.referenced = true;
                Some(&mut f.page)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Marks a resident page dirty.
    ///
    /// # Panics
    ///
    /// Panics if the page is not resident.
    pub fn mark_dirty(&mut self, id: PageId) {
        let &i = self.map.get(&id).expect("mark_dirty on non-resident page");
        let f = &mut self.frames[i];
        if !f.dirty {
            f.dirty = true;
            self.dirty += 1;
        }
    }

    /// Inserts a page, evicting a victim if the pool is full.
    ///
    /// Returns the evicted `(id, page_bytes, was_dirty)` if any — the
    /// bytes are the victim's own allocation, moved out, and a dirty
    /// victim must be written to disk by the caller.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already resident.
    pub fn insert(&mut self, id: PageId, page: Page) -> Option<(PageId, Vec<u8>, bool)> {
        assert!(
            !self.map.contains_key(&id),
            "page {id:?} is already resident"
        );
        let evicted = if self.frames.len() >= self.capacity {
            Some(self.evict())
        } else {
            None
        };
        let idx = self.frames.len();
        self.frames.push(Frame {
            id,
            page,
            dirty: false,
            referenced: true,
        });
        self.map.insert(id, idx);
        evicted
    }

    fn evict(&mut self) -> (PageId, Vec<u8>, bool) {
        // Clock: skip referenced frames once, take the first unreferenced.
        loop {
            if self.hand >= self.frames.len() {
                self.hand = 0;
            }
            if self.frames[self.hand].referenced {
                self.frames[self.hand].referenced = false;
                self.hand += 1;
                continue;
            }
            let victim = self.frames.swap_remove(self.hand);
            self.map.remove(&victim.id);
            // The frame swapped into this position changed index.
            if self.hand < self.frames.len() {
                let moved = self.frames[self.hand].id;
                self.map.insert(moved, self.hand);
            }
            self.stats.evictions += 1;
            if victim.dirty {
                self.dirty -= 1;
                self.stats.dirty_evictions += 1;
            }
            return (victim.id, victim.page.into_bytes(), victim.dirty);
        }
    }

    /// Snapshots up to `n` dirty pages (oldest-indexed first) and marks
    /// them clean; the caller writes the snapshots to disk. A page
    /// re-dirtied after the snapshot will simply be flushed again later.
    pub fn take_dirty_batch(&mut self, n: usize) -> Vec<(PageId, Vec<u8>)> {
        let mut out = Vec::with_capacity(n.min(self.dirty));
        for f in self.frames.iter_mut() {
            if out.len() >= n {
                break;
            }
            if f.dirty {
                f.dirty = false;
                self.dirty -= 1;
                out.push((f.id, f.page.as_bytes().to_vec()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u64) -> PageId {
        PageId { dev: 0, page_no: n }
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut pool = BufferPool::new(4);
        pool.insert(pid(1), Page::new());
        assert!(pool.get_mut(pid(1)).is_some());
        assert!(pool.get_mut(pid(2)).is_none());
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn eviction_respects_capacity_and_reference_bits() {
        let mut pool = BufferPool::new(2);
        pool.insert(pid(1), Page::new());
        pool.insert(pid(2), Page::new());
        // Touch page 1 so its reference bit protects it for one pass.
        pool.get_mut(pid(1));
        // Clear reference bits via one clock pass, then insert.
        let evicted = pool.insert(pid(3), Page::new()).expect("pool was full");
        assert_eq!(pool.resident(), 2);
        assert!(pool.contains(pid(3)));
        assert!(!evicted.2, "clean page eviction carries dirty=false");
    }

    #[test]
    fn dirty_eviction_returns_bytes() {
        let mut pool = BufferPool::new(1);
        let mut page = Page::new();
        page.insert(b"payload").unwrap();
        pool.insert(pid(1), page);
        pool.mark_dirty(pid(1));
        assert_eq!(pool.dirty_pages(), 1);
        let (id, bytes, dirty) = pool.insert(pid(2), Page::new()).expect("evicts");
        assert_eq!(id, pid(1));
        assert!(dirty);
        let back = Page::from_bytes(&bytes);
        assert_eq!(back.get(0), Some(&b"payload"[..]));
        assert_eq!(pool.dirty_pages(), 0);
        assert_eq!(pool.stats().dirty_evictions, 1);
    }

    #[test]
    fn take_dirty_batch_cleans() {
        let mut pool = BufferPool::new(8);
        for i in 0..5 {
            pool.insert(pid(i), Page::new());
            pool.mark_dirty(pid(i));
        }
        let batch = pool.take_dirty_batch(3);
        assert_eq!(batch.len(), 3);
        assert_eq!(pool.dirty_pages(), 2);
        let rest = pool.take_dirty_batch(10);
        assert_eq!(rest.len(), 2);
        assert_eq!(pool.dirty_pages(), 0);
    }

    #[test]
    fn mark_dirty_is_idempotent() {
        let mut pool = BufferPool::new(2);
        pool.insert(pid(1), Page::new());
        pool.mark_dirty(pid(1));
        pool.mark_dirty(pid(1));
        assert_eq!(pool.dirty_pages(), 1);
    }

    #[test]
    fn map_stays_consistent_across_many_evictions() {
        let mut pool = BufferPool::new(8);
        for i in 0..200u64 {
            if !pool.contains(pid(i)) {
                pool.insert(pid(i), Page::new());
            }
            // Interleave hits on a working set.
            pool.get_mut(pid(i.saturating_sub(3)));
        }
        assert_eq!(pool.resident(), 8);
        // Every mapped entry must point at a frame with the same id.
        for i in 0..200u64 {
            if pool.contains(pid(i)) {
                assert!(pool.get_mut(pid(i)).is_some());
            }
        }
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn double_insert_panics() {
        let mut pool = BufferPool::new(2);
        pool.insert(pid(1), Page::new());
        pool.insert(pid(1), Page::new());
    }
}
