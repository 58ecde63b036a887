//! Request-queue scheduling policies.
//!
//! The baseline "standard disk subsystem" (the paper's comparison point)
//! uses a one-way elevator (C-LOOK) and merges a dispatched write with the
//! queued writes that continue it into one disk command, which is what
//! Linux's block layer of the era effectively provided; FIFO is available
//! for experiments that need strict arrival order. A separate [`Priority`]
//! policy lets Trail's data-disk scheduling give reads precedence over
//! write-backs (paper §4.3). The merge itself is the driver's
//! ([`StandardDriver`](crate::StandardDriver)); a scheduler only lets a
//! merged request go with [`Scheduler::remove`].
//!
//! # Incremental dispatch
//!
//! A [`Scheduler`] is an *index over the queue*, not a function over it:
//! the driver calls [`Scheduler::insert`] once per arrival and
//! [`Scheduler::pop`] once per dispatch. Both built-in policies keep their
//! requests in sorted sets ([`std::collections::BTreeSet`]), so a dispatch
//! costs `O(log n)` instead of the linear scan the original formulation
//! paid — under a deep open-loop backlog the old scan made dispatch
//! quadratic in queue depth (the ROADMAP's C-LOOK note). The dispatch
//! *order* is unchanged: a property test drives both policies against a
//! reference linear-scan implementation and asserts seq-for-seq equality.

use std::collections::BTreeSet;

use trail_disk::{DiskGeometry, HeadPosition, Lba};

/// A scheduler's read-only view of one queued request.
#[derive(Clone, Copy, Debug)]
pub struct QueuedIo {
    /// First sector addressed.
    pub lba: Lba,
    /// Whether the request is a read.
    pub is_read: bool,
    /// Arrival order (lower arrived earlier).
    pub seq: u64,
}

/// Chooses which queued request a driver dispatches next.
///
/// The driver mirrors its queue into the scheduler: every queued request
/// is [`insert`]ed exactly once and leaves via exactly one [`pop`], or one
/// [`remove`] when the driver merges it into another request's command
/// (or a [`clear`] when the device fails). Implementations may keep any
/// internal index they like; both built-ins use sorted sets for
/// `O(log n)` picks and removals.
///
/// [`insert`]: Scheduler::insert
/// [`pop`]: Scheduler::pop
/// [`remove`]: Scheduler::remove
/// [`clear`]: Scheduler::clear
pub trait Scheduler: std::fmt::Debug {
    /// Indexes a newly queued request. `geometry` maps its LBA onto disk
    /// coordinates for position-aware policies.
    fn insert(&mut self, q: QueuedIo, geometry: &DiskGeometry);

    /// Removes and returns the request to dispatch next. When
    /// `reads_only` is set, only reads are candidates (the caller
    /// guarantees at least one read is queued).
    ///
    /// # Panics
    ///
    /// Implementations may panic when invoked with nothing queued (or
    /// with `reads_only` and no read queued).
    fn pop(&mut self, head: HeadPosition, reads_only: bool) -> QueuedIo;

    /// Drops the indexed request `q` (the one [`insert`](Self::insert)ed
    /// with the same fields) without dispatching it: the driver merged it
    /// into the command of the request [`pop`](Self::pop) returned. The
    /// dispatch order of the rest is unchanged.
    fn remove(&mut self, q: QueuedIo, geometry: &DiskGeometry);

    /// Number of indexed reads.
    fn queued_reads(&self) -> usize;

    /// Total indexed requests.
    fn len(&self) -> usize;

    /// Whether nothing is indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every indexed request (device failure drains the queue).
    fn clear(&mut self);
}

/// Picks the smaller of two optional candidates.
fn min_opt<T: Ord + Copy>(a: Option<T>, b: Option<T>) -> Option<T> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, None) => a,
        (None, b) => b,
    }
}

/// First-in, first-out dispatch. Requests are indexed by `(seq, lba)`.
#[derive(Clone, Debug, Default)]
pub struct Fifo {
    reads: BTreeSet<(u64, Lba)>,
    writes: BTreeSet<(u64, Lba)>,
}

impl Fifo {
    fn set(&mut self, is_read: bool) -> &mut BTreeSet<(u64, Lba)> {
        if is_read {
            &mut self.reads
        } else {
            &mut self.writes
        }
    }
}

impl Scheduler for Fifo {
    fn insert(&mut self, q: QueuedIo, _geometry: &DiskGeometry) {
        self.set(q.is_read).insert((q.seq, q.lba));
    }

    fn pop(&mut self, _head: HeadPosition, reads_only: bool) -> QueuedIo {
        let r = self.reads.first().copied();
        let w = (!reads_only)
            .then(|| self.writes.first().copied())
            .flatten();
        let (seq, lba) = min_opt(r, w).expect("scheduler invoked with empty queue");
        let is_read = r == Some((seq, lba));
        self.set(is_read).remove(&(seq, lba));
        QueuedIo { lba, is_read, seq }
    }

    fn remove(&mut self, q: QueuedIo, _geometry: &DiskGeometry) {
        self.set(q.is_read).remove(&(q.seq, q.lba));
    }

    fn queued_reads(&self) -> usize {
        self.reads.len()
    }

    fn len(&self) -> usize {
        self.reads.len() + self.writes.len()
    }

    fn clear(&mut self) {
        self.reads.clear();
        self.writes.clear();
    }
}

/// Circular one-way elevator (C-LOOK): service the nearest request at or
/// beyond the sweep position; when none remain ahead, wrap back to the
/// lowest-cylinder request.
///
/// The sweep position advances *strictly past* each serviced cylinder.
/// Filtering on the head's cylinder alone would let a sustained stream of
/// arrivals to one hot cylinder capture the arm indefinitely — every new
/// arrival is "at or beyond" a head that never leaves — starving requests
/// farther out. Advancing the boundary guarantees each pending cylinder is
/// visited at most one full sweep after its request arrives.
///
/// Requests are indexed by `(cylinder, seq, lba)` in sorted sets, so each
/// pick is two range lookups (`O(log n)`), not a scan of the queue.
#[derive(Clone, Debug, Default)]
pub struct Clook {
    /// Lowest cylinder the current sweep may still visit.
    sweep_from: u32,
    reads: BTreeSet<(u32, u64, Lba)>,
    writes: BTreeSet<(u32, u64, Lba)>,
}

impl Clook {
    /// The cylinder a request at `lba` is indexed under.
    fn cylinder(lba: Lba, geometry: &DiskGeometry) -> u32 {
        geometry
            .lba_to_chs(lba)
            .map(|chs| chs.cylinder)
            .unwrap_or(u32::MAX)
    }

    fn set(&mut self, is_read: bool) -> &mut BTreeSet<(u32, u64, Lba)> {
        if is_read {
            &mut self.reads
        } else {
            &mut self.writes
        }
    }

    /// The first request at or beyond cylinder `bound`, and whether it is
    /// a read.
    fn first_at_or_beyond(&self, bound: u32, reads_only: bool) -> Option<((u32, u64, Lba), bool)> {
        let r = self.reads.range((bound, 0, 0)..).next().copied();
        let w = (!reads_only)
            .then(|| self.writes.range((bound, 0, 0)..).next().copied())
            .flatten();
        min_opt(r, w).map(|key| (key, r == Some(key)))
    }
}

impl Scheduler for Clook {
    fn insert(&mut self, q: QueuedIo, geometry: &DiskGeometry) {
        let cyl = Self::cylinder(q.lba, geometry);
        self.set(q.is_read).insert((cyl, q.seq, q.lba));
    }

    fn pop(&mut self, head: HeadPosition, reads_only: bool) -> QueuedIo {
        // The arm may have been moved under us (e.g. by another dispatch
        // path), so the sweep never lags behind the physical head.
        let from = self.sweep_from.max(head.cylinder);
        let ((cyl, seq, lba), is_read) = self
            .first_at_or_beyond(from, reads_only)
            .or_else(|| self.first_at_or_beyond(0, reads_only))
            .expect("scheduler invoked with empty queue");
        self.sweep_from = cyl.saturating_add(1);
        self.set(is_read).remove(&(cyl, seq, lba));
        QueuedIo { lba, is_read, seq }
    }

    fn remove(&mut self, q: QueuedIo, geometry: &DiskGeometry) {
        let cyl = Self::cylinder(q.lba, geometry);
        self.set(q.is_read).remove(&(cyl, q.seq, q.lba));
    }

    fn queued_reads(&self) -> usize {
        self.reads.len()
    }

    fn len(&self) -> usize {
        self.reads.len() + self.writes.len()
    }

    fn clear(&mut self) {
        self.reads.clear();
        self.writes.clear();
    }
}

/// Whether reads preempt queued writes at dispatch time.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Priority {
    /// Reads and writes compete equally.
    #[default]
    None,
    /// If any read is queued, only reads are candidates (paper §4.3: "data
    /// disk reads are given higher priority than data disk writes").
    ReadsFirst,
}

/// Applies a priority policy, returning the indices (into `queue`) of the
/// candidate requests, ordered by arrival. No queue entries are copied;
/// callers index back into their own slice.
///
/// The driver's hot path now filters inside [`Scheduler::pop`]; this
/// survives as the reference formulation the equivalence property test
/// (and any linear-scan scheduler) builds on.
pub fn apply_priority(queue: &[QueuedIo], priority: Priority) -> Vec<usize> {
    let mut candidates: Vec<usize> = match priority {
        Priority::None => (0..queue.len()).collect(),
        Priority::ReadsFirst => {
            let reads: Vec<usize> = queue
                .iter()
                .enumerate()
                .filter(|(_, q)| q.is_read)
                .map(|(i, _)| i)
                .collect();
            if reads.is_empty() {
                (0..queue.len()).collect()
            } else {
                reads
            }
        }
    };
    candidates.sort_by_key(|&i| queue[i].seq);
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use trail_disk::profiles;

    fn q(lba: Lba, is_read: bool, seq: u64) -> QueuedIo {
        QueuedIo { lba, is_read, seq }
    }

    fn load(s: &mut dyn Scheduler, g: &DiskGeometry, queue: &[QueuedIo]) {
        for &item in queue {
            s.insert(item, g);
        }
    }

    #[test]
    fn fifo_picks_earliest_arrival() {
        let g = profiles::tiny_test_disk().geometry;
        let queue = vec![q(500, false, 2), q(10, true, 0), q(90, false, 1)];
        let mut s = Fifo::default();
        load(&mut s, &g, &queue);
        assert_eq!(s.pop(HeadPosition::default(), false).seq, 0);
        assert_eq!(s.pop(HeadPosition::default(), false).seq, 1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn clook_services_ahead_of_head_first() {
        let g = profiles::tiny_test_disk().geometry;
        // Tiny disk zone 0: 40 spt, 2 heads => 80 sectors/cylinder.
        // Head at cylinder 4; requests at cylinders 1, 5, 10.
        let queue = vec![q(80, false, 0), q(400, false, 1), q(800, false, 2)];
        let head = HeadPosition {
            cylinder: 4,
            head: 0,
        };
        let mut s = Clook::default();
        load(&mut s, &g, &queue);
        assert_eq!(s.pop(head, false).seq, 1, "cylinder 5 is nearest ahead");
        // Head beyond all requests: wrap to the lowest cylinder.
        let head = HeadPosition {
            cylinder: 20,
            head: 0,
        };
        assert_eq!(s.pop(head, false).seq, 0);
    }

    #[test]
    fn clook_breaks_ties_by_arrival() {
        let g = profiles::tiny_test_disk().geometry;
        let mut s = Clook::default();
        load(&mut s, &g, &[q(81, false, 5), q(80, false, 3)]);
        // Same cylinder (1): earlier arrival wins.
        assert_eq!(s.pop(HeadPosition::default(), false).seq, 3);
    }

    #[test]
    fn reads_only_pop_skips_writes() {
        let g = profiles::tiny_test_disk().geometry;
        let mut s = Clook::default();
        load(&mut s, &g, &[q(1, false, 0), q(2000, true, 1)]);
        assert_eq!(s.queued_reads(), 1);
        assert_eq!(s.pop(HeadPosition::default(), true).seq, 1);
        assert_eq!(s.queued_reads(), 0);
        assert_eq!(s.pop(HeadPosition::default(), false).seq, 0);
        assert!(s.is_empty());
    }

    #[test]
    fn remove_drops_one_request_and_keeps_the_order_of_the_rest() {
        let g = profiles::tiny_test_disk().geometry;
        let queue = [q(80, false, 0), q(400, false, 1), q(800, true, 2)];
        let mut clook = Clook::default();
        let mut fifo = Fifo::default();
        for s in [&mut clook as &mut dyn Scheduler, &mut fifo] {
            load(s, &g, &queue);
            s.remove(queue[1], &g);
            assert_eq!(s.len(), 2);
            assert_eq!(s.pop(HeadPosition::default(), false).seq, 0);
            assert_eq!(s.pop(HeadPosition::default(), false).seq, 2);
            assert!(s.is_empty());
        }
    }

    #[test]
    fn clear_empties_the_index() {
        let g = profiles::tiny_test_disk().geometry;
        let mut s = Fifo::default();
        load(&mut s, &g, &[q(1, false, 0), q(2, true, 1)]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.queued_reads(), 0);
    }

    #[test]
    fn priority_restricts_to_reads_when_present() {
        let queue = vec![q(1, false, 0), q(2, true, 1), q(3, true, 2)];
        let cands = apply_priority(&queue, Priority::ReadsFirst);
        assert_eq!(cands, vec![1, 2]);
        assert!(cands.iter().all(|&i| queue[i].is_read));
        // With no reads queued, writes flow through.
        let wqueue = vec![q(1, false, 0), q(2, false, 1)];
        assert_eq!(apply_priority(&wqueue, Priority::ReadsFirst).len(), 2);
        // Priority::None keeps everything.
        assert_eq!(apply_priority(&queue, Priority::None).len(), 3);
    }
}
