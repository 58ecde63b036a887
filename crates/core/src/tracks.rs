//! FIFO track allocation over the log disk (paper §4.1, §4.4).
//!
//! "Essentially the entire log disk serves as a circular logging buffer,
//! with tracks as basic logging units." Tracks are handed out in ring
//! order; a track returns to the free pool only after every write record
//! it holds has been committed to the data disks **and** every older track
//! has been freed first — allocation and de-allocation are both FIFO,
//! which is what lets a single `log_head` pointer bound recovery's
//! back-scan.

use trail_sim::FastMap;

/// Circular FIFO allocator over a contiguous range of log-disk tracks.
///
/// # Examples
///
/// ```
/// let mut pool = trail_core::TrackPool::new(1, 4);
/// let a = pool.allocate_next().unwrap();
/// assert_eq!(a, 1);
/// pool.add_record(a);
/// pool.commit_record(a);
/// // The track being filled is never reclaimed out from under the head.
/// assert_eq!(pool.active_tracks(), 1);
/// assert_eq!(pool.records_on(a), Some(0));
/// ```
#[derive(Clone, Debug)]
pub struct TrackPool {
    first: u64,
    last: u64,
    /// Oldest allocated track still holding uncommitted records.
    head: u64,
    /// Next track to hand out.
    tail: u64,
    /// Uncommitted record count per allocated track.
    records: FastMap<u64, u32>,
    /// Number of tracks currently allocated (ring occupancy).
    allocated: u64,
}

impl TrackPool {
    /// Creates a pool over tracks `first..=last`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or smaller than two tracks (the ring
    /// needs one free track to distinguish full from empty).
    pub fn new(first: u64, last: u64) -> Self {
        assert!(
            last > first,
            "track pool needs at least two tracks, got {first}..={last}"
        );
        TrackPool {
            first,
            last,
            head: first,
            tail: first,
            records: FastMap::default(),
            allocated: 0,
        }
    }

    fn ring_next(&self, t: u64) -> u64 {
        if t == self.last {
            self.first
        } else {
            t + 1
        }
    }

    /// Total tracks managed.
    pub fn capacity(&self) -> u64 {
        self.last - self.first + 1
    }

    /// Tracks currently allocated (between head and tail).
    pub fn active_tracks(&self) -> u64 {
        self.allocated
    }

    /// Tracks available for allocation.
    pub fn free_tracks(&self) -> u64 {
        self.capacity() - self.allocated
    }

    /// `true` when no track can be allocated.
    pub fn is_full(&self) -> bool {
        self.allocated >= self.capacity()
    }

    /// The oldest allocated track (only meaningful when not empty).
    pub fn head_track(&self) -> u64 {
        self.head
    }

    /// Allocates the next track in ring order, or `None` when the log disk
    /// is out of free tracks (the event the paper calls rare — §4.4).
    pub fn allocate_next(&mut self) -> Option<u64> {
        if self.is_full() {
            return None;
        }
        let t = self.tail;
        self.tail = self.ring_next(t);
        self.allocated += 1;
        self.records.insert(t, 0);
        Some(t)
    }

    /// Notes one more uncommitted write record on `track`.
    ///
    /// # Panics
    ///
    /// Panics if `track` is not currently allocated.
    pub fn add_record(&mut self, track: u64) {
        *self
            .records
            .get_mut(&track)
            .expect("add_record on unallocated track") += 1;
    }

    /// Notes that one write record on `track` has been committed to the
    /// data disks, then reclaims any now-empty tracks *in FIFO order* from
    /// the head.
    ///
    /// Returns the number of tracks freed by this commit.
    ///
    /// # Panics
    ///
    /// Panics if `track` is not allocated or has no outstanding records.
    pub fn commit_record(&mut self, track: u64) -> u64 {
        let n = self
            .records
            .get_mut(&track)
            .expect("commit_record on unallocated track");
        assert!(*n > 0, "commit_record with no outstanding records");
        *n -= 1;
        let mut freed = 0;
        while self.allocated > 0 {
            match self.records.get(&self.head) {
                Some(0) => {
                    // The head track may still be the one being filled; it
                    // is only reclaimable once a younger track exists.
                    if self.allocated == 1 {
                        break;
                    }
                    self.records.remove(&self.head);
                    self.head = self.ring_next(self.head);
                    self.allocated -= 1;
                    freed += 1;
                }
                _ => break,
            }
        }
        freed
    }

    /// Uncommitted record count on `track`, or `None` if not allocated.
    pub fn records_on(&self, track: u64) -> Option<u32> {
        self.records.get(&track).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_in_ring_order() {
        let mut p = TrackPool::new(10, 13);
        assert_eq!(p.capacity(), 4);
        assert_eq!(p.allocate_next(), Some(10));
        assert_eq!(p.allocate_next(), Some(11));
        assert_eq!(p.allocate_next(), Some(12));
        assert_eq!(p.allocate_next(), Some(13));
        assert!(p.is_full());
        assert_eq!(p.allocate_next(), None);
    }

    #[test]
    fn fifo_reclamation_only_from_head() {
        let mut p = TrackPool::new(0, 3);
        let a = p.allocate_next().unwrap();
        let b = p.allocate_next().unwrap();
        p.add_record(a);
        p.add_record(b);
        // Committing the *younger* track frees nothing: FIFO order.
        assert_eq!(p.commit_record(b), 0);
        assert_eq!(p.active_tracks(), 2);
        // Committing the older one frees both (b is already empty).
        // b remains as the current tail track (allocated == 1 floor).
        assert_eq!(p.commit_record(a), 1);
        assert_eq!(p.active_tracks(), 1);
        assert_eq!(p.head_track(), b);
    }

    #[test]
    fn current_track_is_never_reclaimed() {
        let mut p = TrackPool::new(0, 3);
        let a = p.allocate_next().unwrap();
        p.add_record(a);
        assert_eq!(p.commit_record(a), 0, "sole track must stay allocated");
        assert_eq!(p.active_tracks(), 1);
        assert_eq!(p.records_on(a), Some(0));
    }

    #[test]
    fn wraps_around_after_reclamation() {
        let mut p = TrackPool::new(0, 2);
        let a = p.allocate_next().unwrap();
        let b = p.allocate_next().unwrap();
        let c = p.allocate_next().unwrap();
        assert_eq!((a, b, c), (0, 1, 2));
        assert!(p.is_full());
        p.add_record(a);
        p.add_record(b);
        p.add_record(c);
        p.commit_record(a);
        assert_eq!(p.free_tracks(), 1);
        // Wraps to track 0.
        assert_eq!(p.allocate_next(), Some(0));
        assert!(p.is_full());
    }

    #[test]
    fn out_of_order_commits_batch_reclaim() {
        let mut p = TrackPool::new(0, 9);
        let tracks: Vec<u64> = (0..5).map(|_| p.allocate_next().unwrap()).collect();
        for &t in &tracks {
            p.add_record(t);
        }
        // Commit tracks 1..4 first: nothing freed (0 still active).
        for &t in &tracks[1..] {
            assert_eq!(p.commit_record(t), 0);
        }
        // Committing track 0 releases 0,1,2,3 at once; 4 stays (current).
        assert_eq!(p.commit_record(tracks[0]), 4);
        assert_eq!(p.active_tracks(), 1);
        assert_eq!(p.head_track(), tracks[4]);
    }

    #[test]
    #[should_panic(expected = "unallocated track")]
    fn add_record_requires_allocation() {
        TrackPool::new(0, 3).add_record(0);
    }

    #[test]
    #[should_panic(expected = "no outstanding records")]
    fn over_commit_panics() {
        let mut p = TrackPool::new(0, 3);
        let a = p.allocate_next().unwrap();
        p.commit_record(a);
    }

    #[test]
    #[should_panic(expected = "at least two tracks")]
    fn single_track_pool_rejected() {
        TrackPool::new(5, 5);
    }
}
