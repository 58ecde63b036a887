//! The request queue's elevator and read priority.
//!
//! The baseline "standard disk subsystem" (the paper's comparison point)
//! uses a one-way elevator (C-LOOK) and merges a dispatched write with the
//! queued writes that continue it into one disk command, which is what
//! Linux's block layer of the era effectively provided. [`Priority`] lets
//! Trail's data-disk scheduling give reads precedence over write-backs
//! (paper §4.3). The merge itself is the driver's
//! ([`StandardDriver`](crate::StandardDriver)); the elevator only lets a
//! merged request go with [`Clook::remove`].
//!
//! # Incremental dispatch
//!
//! [`Clook`] is an *index over the queue*, not a function over it: the
//! driver calls [`Clook::insert`] once per arrival and [`Clook::pop`] once
//! per dispatch. Requests sit in sorted sets ([`std::collections::BTreeSet`]),
//! so a dispatch costs `O(log n)` instead of the linear scan the original
//! formulation paid — under a deep open-loop backlog the old scan made
//! dispatch quadratic in queue depth. The dispatch *order* is unchanged: a
//! property test drives the index against a reference linear-scan
//! implementation and asserts seq-for-seq equality.

use std::collections::BTreeSet;

use trail_disk::{DiskGeometry, HeadPosition, Lba};

/// The elevator's read-only view of one queued request.
#[derive(Clone, Copy, Debug)]
pub struct QueuedIo {
    /// First sector addressed.
    pub lba: Lba,
    /// Whether the request is a read.
    pub is_read: bool,
    /// Arrival order (lower arrived earlier).
    pub seq: u64,
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
/// The driver mirrors its queue into the elevator: every queued request
/// is [`insert`](Self::insert)ed exactly once and leaves via exactly one
/// [`pop`](Self::pop), or one [`remove`](Self::remove) when the driver
/// merges it into another request's command (or a [`clear`](Self::clear)
/// when the device fails). Requests are indexed by `(cylinder, seq, lba)`
/// in sorted sets, so each pick is two range lookups (`O(log n)`), not a
/// scan of the queue.
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
            .expect("the driver range-checks a request before indexing it")
            .cylinder
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
        r.into_iter()
            .chain(w)
            .min()
            .map(|key| (key, r == Some(key)))
    }

    /// Indexes a newly queued request; `geometry` maps its LBA onto its
    /// cylinder.
    pub fn insert(&mut self, q: QueuedIo, geometry: &DiskGeometry) {
        let cyl = Self::cylinder(q.lba, geometry);
        self.set(q.is_read).insert((cyl, q.seq, q.lba));
    }

    /// Removes and returns the request to dispatch next. When `reads_only`
    /// is set, only reads are candidates.
    ///
    /// # Panics
    ///
    /// If nothing is indexed (or, with `reads_only`, no read is).
    pub fn pop(&mut self, head: HeadPosition, reads_only: bool) -> QueuedIo {
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

    /// Drops the indexed request `q` (the one inserted with the same
    /// fields) without dispatching it: the driver merged it into the
    /// command of the request [`pop`](Self::pop) returned. The dispatch
    /// order of the rest is unchanged.
    pub fn remove(&mut self, q: QueuedIo, geometry: &DiskGeometry) {
        let cyl = Self::cylinder(q.lba, geometry);
        self.set(q.is_read).remove(&(cyl, q.seq, q.lba));
    }

    /// Number of indexed reads.
    pub fn queued_reads(&self) -> usize {
        self.reads.len()
    }

    /// Total indexed requests.
    pub fn len(&self) -> usize {
        self.reads.len() + self.writes.len()
    }

    /// Whether nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every indexed request (device failure drains the queue).
    pub fn clear(&mut self) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use trail_disk::profiles;

    fn q(lba: Lba, is_read: bool, seq: u64) -> QueuedIo {
        QueuedIo { lba, is_read, seq }
    }

    fn load(s: &mut Clook, g: &DiskGeometry, queue: &[QueuedIo]) {
        for &item in queue {
            s.insert(item, g);
        }
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
        let mut s = Clook::default();
        load(&mut s, &g, &queue);
        s.remove(queue[1], &g);
        assert_eq!(s.len(), 2);
        assert_eq!(s.pop(HeadPosition::default(), false).seq, 0);
        assert_eq!(s.pop(HeadPosition::default(), false).seq, 2);
        assert!(s.is_empty());
    }

    #[test]
    fn clear_empties_the_index() {
        let g = profiles::tiny_test_disk().geometry;
        let mut s = Clook::default();
        load(&mut s, &g, &[q(1, false, 0), q(2, true, 1)]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.queued_reads(), 0);
    }
}
