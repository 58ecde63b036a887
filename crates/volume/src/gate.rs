//! A keyed serialization gate for stripe-atomic operations.
//!
//! RAID-5 parity updates and degraded-read reconstructions must not
//! interleave on the same stripe: two concurrent reconstruct-writes that
//! both read the old rows before either writes would each compute a
//! parity that misses the other's data. The [`Gate`] serializes operations that share any key
//! (stripe ids for RAID-5, mirror regions for RAID-1) while letting
//! disjoint operations proceed concurrently.
//!
//! An operation acquires **all** its keys atomically — there is no
//! incremental lock ordering, so multi-stripe writes cannot deadlock —
//! and grants go out in arrival order for any contested key.

use std::collections::{BTreeSet, VecDeque};

use trail_sim::{Completion, Simulator};

/// Serializes operations that share keys. Grants are delivered through
/// [`Completion`] tokens, so a grant is always a fresh simulator event —
/// never a synchronous callback into the acquirer.
#[derive(Debug, Default)]
pub struct Gate {
    active: BTreeSet<u64>,
    waiting: VecDeque<(Vec<u64>, Completion<()>)>,
}

impl Gate {
    /// Creates an empty gate.
    #[must_use]
    pub fn new() -> Self {
        Gate::default()
    }

    /// Requests `keys`; `granted` completes when all of them are held.
    ///
    /// An operation whose keys are free *and* uncontested by earlier
    /// waiters is granted immediately (still delivered as its own event);
    /// otherwise it queues in arrival order.
    pub fn acquire(&mut self, sim: &mut Simulator, keys: Vec<u64>, granted: Completion<()>) {
        let conflict = keys.iter().any(|k| self.active.contains(k))
            || self
                .waiting
                .iter()
                .any(|(wk, _)| wk.iter().any(|k| keys.contains(k)));
        if conflict {
            self.waiting.push_back((keys, granted));
        } else {
            self.active.extend(keys.iter().copied());
            granted.complete(sim, ());
        }
    }

    /// Releases `keys` and grants queued waiters, front first, stopping at
    /// the first waiter whose keys are still partly held.
    pub fn release(&mut self, sim: &mut Simulator, keys: &[u64]) {
        for k in keys {
            self.active.remove(k);
        }
        while let Some((wk, _)) = self.waiting.front() {
            if wk.iter().any(|k| self.active.contains(k)) {
                break;
            }
            let (wk, granted) = self.waiting.pop_front().expect("front just observed");
            self.active.extend(wk.iter().copied());
            granted.complete(sim, ());
        }
    }

    /// Keys currently held.
    #[must_use]
    pub fn active_len(&self) -> usize {
        self.active.len()
    }

    /// Operations queued for contested keys.
    #[must_use]
    pub fn waiting_len(&self) -> usize {
        self.waiting.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn probe(sim: &mut Simulator, log: &Rc<RefCell<Vec<u32>>>, tag: u32) -> Completion<()> {
        let log = Rc::clone(log);
        sim.completion(move |_, d| {
            d.expect("grant delivered");
            log.borrow_mut().push(tag);
        })
    }

    #[test]
    fn disjoint_keys_run_concurrently() {
        let mut sim = Simulator::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut gate = Gate::new();
        let a = probe(&mut sim, &log, 1);
        let b = probe(&mut sim, &log, 2);
        gate.acquire(&mut sim, vec![10], a);
        gate.acquire(&mut sim, vec![20], b);
        sim.run();
        assert_eq!(&*log.borrow(), &[1, 2]);
        assert_eq!(gate.active_len(), 2);
        assert_eq!(gate.waiting_len(), 0);
    }

    #[test]
    fn shared_key_serializes_in_arrival_order() {
        let mut sim = Simulator::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut gate = Gate::new();
        let a = probe(&mut sim, &log, 1);
        let b = probe(&mut sim, &log, 2);
        let c = probe(&mut sim, &log, 3);
        gate.acquire(&mut sim, vec![10, 11], a);
        gate.acquire(&mut sim, vec![11], b);
        // c shares a key with the *waiting* b, so it must queue behind it
        // even though key 12 is free.
        gate.acquire(&mut sim, vec![11, 12], c);
        sim.run();
        assert_eq!(&*log.borrow(), &[1]);
        gate.release(&mut sim, &[10, 11]);
        sim.run();
        assert_eq!(&*log.borrow(), &[1, 2]);
        gate.release(&mut sim, &[11]);
        sim.run();
        assert_eq!(&*log.borrow(), &[1, 2, 3]);
        gate.release(&mut sim, &[11, 12]);
        assert_eq!(gate.active_len(), 0);
    }

    #[test]
    fn multi_key_acquire_is_atomic() {
        let mut sim = Simulator::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut gate = Gate::new();
        let a = probe(&mut sim, &log, 1);
        let b = probe(&mut sim, &log, 2);
        gate.acquire(&mut sim, vec![1], a);
        // b wants {1, 2}; it must not hold 2 while waiting on 1.
        gate.acquire(&mut sim, vec![1, 2], b);
        let c = probe(&mut sim, &log, 3);
        gate.acquire(&mut sim, vec![3], c);
        sim.run();
        assert_eq!(&*log.borrow(), &[1, 3]);
        gate.release(&mut sim, &[1]);
        sim.run();
        assert_eq!(&*log.borrow(), &[1, 3, 2]);
    }

    #[test]
    fn dropped_waiter_cancels_without_granting() {
        let mut sim = Simulator::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut gate = Gate::new();
        let a = probe(&mut sim, &log, 1);
        gate.acquire(&mut sim, vec![5], a);
        let cancelled = Rc::new(RefCell::new(false));
        let saw = Rc::clone(&cancelled);
        let b = sim.completion(move |_, d: trail_sim::Delivered<()>| {
            *saw.borrow_mut() = d.is_err();
        });
        gate.acquire(&mut sim, vec![5], b);
        // Drop the waiting entry wholesale (e.g. the op was aborted).
        gate.waiting.clear();
        sim.run();
        assert!(*cancelled.borrow());
    }
}
