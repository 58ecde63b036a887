//! The storage-service adapter: the engine's block stack exposed as the
//! verb set a network front-end serves (`get` / `put` / `commit`).
//!
//! A serving layer (see `trail-serve`) wants three things a raw
//! [`BlockStack`](crate::BlockStack) does not provide directly:
//!
//! - **Admissible addressing** — client-supplied LBAs are folded into the
//!   device's capacity (the same `lba % (capacity - sectors + 1)` rule the
//!   trace-replay engine uses), so a request can never be rejected for
//!   pointing past the end of the disk.
//! - **Stream-tagged routing** — every verb carries the session's
//!   [`StreamId`], so a Trail array underneath can pin a session's log
//!   writes to one log disk (`LogRouting::StreamAffinity`).
//! - **Durability barriers** — `commit(stream)` completes when every write
//!   the stream issued *before* the commit is durable, the same
//!   "volume-durable up to this point" contract a write-ahead service
//!   advertises. Writes already durable → the commit completes
//!   immediately; otherwise it parks until the stream's outstanding
//!   write count drains to zero.
//!
//! The adapter is deliberately thin: it owns no queueing and no policy
//! (that is the server's job) — just addressing, per-stream durability
//! state, and the completion plumbing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use trail_blockio::IoDone;
use trail_core::TrailError;
use trail_sim::{Completion, Delivered, IoError, Simulator};
use trail_telemetry::StreamId;

use crate::stack::SharedStack;

struct ServiceInner {
    stack: SharedStack,
    /// Per-device capacity in sectors, in device order.
    capacity: Vec<u64>,
    /// Writes in flight per stream (commit-barrier state).
    outstanding: BTreeMap<StreamId, u32>,
    /// Commits parked until their stream's outstanding count drains.
    barriers: BTreeMap<StreamId, Vec<Completion<()>>>,
    /// The first error a stream's write failed with since its last
    /// commit: the next commit fails with it.
    failures: BTreeMap<StreamId, IoError>,
}

/// A cloneable handle to the storage service; see the module docs.
#[derive(Clone)]
pub struct StorageService {
    inner: Rc<RefCell<ServiceInner>>,
}

impl StorageService {
    /// Wraps `stack`; `capacity[dev]` is device `dev`'s total sectors
    /// (what [`StorageService::clamp`] folds addresses into).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` does not list every stack device, or any
    /// device has zero capacity.
    #[must_use]
    pub fn new(stack: SharedStack, capacity: Vec<u64>) -> Self {
        assert_eq!(
            capacity.len(),
            stack.devices(),
            "one capacity per stack device"
        );
        assert!(capacity.iter().all(|&c| c > 0), "zero-capacity device");
        StorageService {
            inner: Rc::new(RefCell::new(ServiceInner {
                stack,
                capacity,
                outstanding: BTreeMap::new(),
                barriers: BTreeMap::new(),
                failures: BTreeMap::new(),
            })),
        }
    }

    /// Number of devices behind the service.
    #[must_use]
    pub fn devices(&self) -> usize {
        self.inner.borrow().stack.devices()
    }

    /// The smallest device capacity, in sectors — a safe address space
    /// for workload generators that do not pick a device first.
    #[must_use]
    pub fn min_capacity(&self) -> u64 {
        self.inner
            .borrow()
            .capacity
            .iter()
            .copied()
            .min()
            .unwrap_or(0)
    }

    /// Folds `(dev, lba)` into an admissible `(dev, lba)` for a
    /// `sectors`-long request: the device index wraps modulo the device
    /// count and the LBA modulo `capacity - sectors + 1`.
    #[must_use]
    pub fn clamp(&self, dev: u16, lba: u64, sectors: u32) -> (usize, u64) {
        let inner = self.inner.borrow();
        let dev = usize::from(dev) % inner.capacity.len();
        let cap = inner.capacity[dev];
        let span = cap.saturating_sub(u64::from(sectors)).saturating_add(1);
        (dev, lba % span.max(1))
    }

    /// Writes the stream's outstanding count, for barrier inspection.
    #[must_use]
    pub fn outstanding(&self, stream: StreamId) -> u32 {
        self.inner
            .borrow()
            .outstanding
            .get(&stream)
            .copied()
            .unwrap_or(0)
    }

    /// Submits a stream-tagged read of `sectors` at the clamped address.
    ///
    /// # Errors
    ///
    /// Propagates the stack's rejection (the token is cancelled by the
    /// stack in that case).
    pub fn get(
        &self,
        sim: &mut Simulator,
        stream: StreamId,
        dev: u16,
        lba: u64,
        sectors: u32,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        let (dev, lba) = self.clamp(dev, lba, sectors);
        let stack = Rc::clone(&self.inner.borrow().stack);
        stack.read_tagged(sim, dev, lba, sectors, stream, done)
    }

    /// Submits a stream-tagged durable write at the clamped address,
    /// tracking it in the stream's commit barrier until the stack
    /// acknowledges durability (or fails it, which fails the commit).
    ///
    /// # Errors
    ///
    /// Propagates the stack's rejection; a rejected write never enters
    /// the barrier.
    pub fn put(
        &self,
        sim: &mut Simulator,
        stream: StreamId,
        dev: u16,
        lba: u64,
        data: Vec<u8>,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        let sectors = (data.len() / trail_disk::SECTOR_SIZE).max(1) as u32;
        let (dev, lba) = self.clamp(dev, lba, sectors);
        let stack = Rc::clone(&self.inner.borrow().stack);
        let barrier = Rc::clone(&self.inner);
        let tracked = sim.completion(move |sim, delivered: Delivered<IoDone>| {
            let (released, failure) = {
                let mut inner = barrier.borrow_mut();
                if let Err(e) = &delivered {
                    inner.failures.entry(stream).or_insert(*e);
                }
                let count = inner.outstanding.entry(stream).or_insert(0);
                *count = count.saturating_sub(1);
                let released = if *count == 0 {
                    inner.barriers.remove(&stream).unwrap_or_default()
                } else {
                    Vec::new()
                };
                let failure = if released.is_empty() {
                    None
                } else {
                    inner.failures.remove(&stream)
                };
                (released, failure)
            };
            for commit in released {
                resolve(sim, commit, failure);
            }
            match delivered {
                Ok(io) => done.complete(sim, io),
                Err(e) => done.fail(sim, e),
            }
        });
        // Count before submitting: a synchronous rejection cancels
        // `tracked`, whose handler then decrements and releases.
        *self
            .inner
            .borrow_mut()
            .outstanding
            .entry(stream)
            .or_insert(0) += 1;
        stack.write_tagged(sim, dev, lba, data.into(), stream, tracked)
    }

    /// Completes `done` when every `put` the stream issued before this
    /// call is durable — immediately if none is outstanding — or fails it
    /// with the error one of them failed with.
    pub fn commit(&self, sim: &mut Simulator, stream: StreamId, done: Completion<()>) {
        let mut inner = self.inner.borrow_mut();
        if inner.outstanding.get(&stream).copied().unwrap_or(0) == 0 {
            let failure = inner.failures.remove(&stream);
            drop(inner);
            resolve(sim, done, failure);
        } else {
            inner.barriers.entry(stream).or_default().push(done);
        }
    }

    /// Outstanding work inside the underlying stack.
    #[must_use]
    pub fn pending_work(&self) -> usize {
        self.inner.borrow().stack.pending_work()
    }
}

/// Answers a commit barrier: done, or the error a write before it hit.
fn resolve(sim: &mut Simulator, commit: Completion<()>, failure: Option<IoError>) {
    match failure {
        None => commit.complete(sim, ()),
        Some(e) => commit.fail(sim, e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::StandardStack;
    use std::cell::Cell;
    use trail_disk::{profiles, Disk, SECTOR_SIZE};

    fn service(sim_devices: usize) -> (Simulator, StorageService) {
        let sim = Simulator::new();
        let disks: Vec<Disk> = (0..sim_devices)
            .map(|i| Disk::new(format!("d{i}"), profiles::tiny_test_disk()))
            .collect();
        let capacity = disks.iter().map(|d| d.geometry().total_sectors()).collect();
        let stack: SharedStack = Rc::new(StandardStack::new(disks));
        (sim, StorageService::new(stack, capacity))
    }

    #[test]
    fn clamp_folds_wild_addresses_into_capacity() {
        let (_, svc) = service(2);
        let cap = svc.min_capacity();
        assert!(cap > 0);
        let (dev, lba) = svc.clamp(7, u64::MAX - 3, 8);
        assert!(dev < 2);
        assert!(lba + 8 <= cap);
    }

    #[test]
    fn put_round_trips_through_get() {
        let (mut sim, svc) = service(1);
        let done = sim.completion(|_, d: trail_sim::Delivered<IoDone>| {
            d.expect("durable");
        });
        svc.put(&mut sim, StreamId(1), 0, 5, vec![0xA5; SECTOR_SIZE], done)
            .unwrap();
        sim.run();
        assert_eq!(svc.outstanding(StreamId(1)), 0);
        let seen = Rc::new(Cell::new(false));
        let s = Rc::clone(&seen);
        let done = sim.completion(move |_, d: trail_sim::Delivered<IoDone>| {
            assert_eq!(d.expect("read").data.unwrap()[0], 0xA5);
            s.set(true);
        });
        svc.get(&mut sim, StreamId(1), 0, 5, 1, done).unwrap();
        sim.run();
        assert!(seen.get());
    }

    #[test]
    fn commit_waits_for_outstanding_writes() {
        let (mut sim, svc) = service(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        let o = Rc::clone(&order);
        let wrote = sim.completion(move |_, _: trail_sim::Delivered<IoDone>| {
            o.borrow_mut().push("write");
        });
        svc.put(&mut sim, StreamId(2), 0, 0, vec![1; SECTOR_SIZE], wrote)
            .unwrap();
        assert_eq!(svc.outstanding(StreamId(2)), 1);
        let o = Rc::clone(&order);
        let committed = sim.completion(move |_, d: trail_sim::Delivered<()>| {
            d.expect("committed");
            o.borrow_mut().push("commit");
        });
        svc.commit(&mut sim, StreamId(2), committed);
        assert!(order.borrow().is_empty(), "commit must not fire inline");
        sim.run();
        assert_eq!(*order.borrow(), vec!["commit", "write"]);
    }

    #[test]
    fn commit_with_nothing_outstanding_fires_immediately() {
        let (mut sim, svc) = service(1);
        let seen = Rc::new(Cell::new(false));
        let s = Rc::clone(&seen);
        let done = sim.completion(move |_, d: trail_sim::Delivered<()>| {
            d.expect("committed");
            s.set(true);
        });
        svc.commit(&mut sim, StreamId(3), done);
        sim.run();
        assert!(seen.get());
    }

    #[test]
    fn commits_are_per_stream() {
        let (mut sim, svc) = service(1);
        let wrote = sim.completion(|_, _: trail_sim::Delivered<IoDone>| {});
        svc.put(&mut sim, StreamId(1), 0, 0, vec![1; SECTOR_SIZE], wrote)
            .unwrap();
        // Stream 9 has nothing outstanding: its commit is immediate even
        // though stream 1's write is still in flight.
        let seen = Rc::new(Cell::new(false));
        let s = Rc::clone(&seen);
        let done = sim.completion(move |_, _: trail_sim::Delivered<()>| s.set(true));
        svc.commit(&mut sim, StreamId(9), done);
        assert!(sim.step());
        assert!(seen.get());
        sim.run();
    }
}
