//! The standard disk-subsystem driver — the paper's baseline.
//!
//! [`StandardDriver`] models the conventional kernel block layer the paper
//! compares Trail against: requests queue in the driver, a C-LOOK elevator
//! picks the next one whenever the disk goes idle, and a synchronous write
//! is durable exactly when its completion callback fires — after paying
//! full seek + rotational latency at the *target* address. It is also the building block Trail itself uses for
//! its data disks (with [`Priority::ReadsFirst`]).
//!
//! # Merging adjacent writes
//!
//! Like the Linux elevator the paper measured against, the driver sends a
//! write together with the queued writes that continue it, as **one** disk
//! command: when it dispatches a write it takes the queued write that
//! starts exactly at the command's current end, then the one at the new
//! end, and so on, up to `MERGE_CAP_SECTORS`. A write is taken only if
//! it overlaps no other queued request, read or write: it then commutes
//! with every request it overtakes, so merging never changes what a read
//! returns or what the medium ends up holding. The merge happens at
//! dispatch, not at submission, because that is where ranges meet: a
//! submitter that issues each range as soon as it can (Trail's
//! write-backs) never sees two adjacent ones, but they wait side by side
//! in a busy disk's queue. Each member keeps its own [`IoDone`], its own
//! exact `Complete` breakdown (its queue wait is its latency less the
//! command's service) and its own failure: an error on the command fails
//! every member.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use trail_disk::{
    Disk, DiskCommand, DiskError, DiskGeometry, DiskResult, Lba, PayloadChain, SECTOR_SIZE,
};
use trail_sim::{Completion, Delivered, IoError, SimTime, Simulator};
use trail_telemetry::{Layer, LifecycleEmitter, RecorderHandle, RequestBreakdown};

use crate::request::{IoDone, IoKind, IoRequest, RequestId};
use crate::sched::{Clook, Priority, QueuedIo};

/// The longest disk command a merge may build, in sectors. A write that
/// is longer on its own is sent alone.
const MERGE_CAP_SECTORS: u64 = 256;

/// How many queued requests starting below a merge candidate the overlap
/// guard looks at before it gives up and leaves the candidate queued.
const OVERLAP_LOOKBACK: usize = 16;

/// Aggregate driver measurements. Per-request latency is not kept here:
/// each request's `Complete` event carries it, and a volume's
/// `MemberStats` own it for array members.
#[derive(Clone, Debug, Default)]
pub struct DriverStats {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests completed.
    pub completed: u64,
    /// Disk commands issued: `completed / commands` is the merge ratio.
    pub commands: u64,
    /// Largest queue depth observed at submission time.
    pub max_queue_depth: usize,
}

struct Queued {
    id: RequestId,
    issued: SimTime,
    req: IoRequest,
    done: Completion<IoDone>,
}

/// What one request of a dispatched command needs back at its completion.
struct Member {
    id: RequestId,
    lba: Lba,
    issued: SimTime,
    done: Completion<IoDone>,
}

impl Member {
    fn of(q: Queued) -> Member {
        Member {
            id: q.id,
            lba: q.req.lba,
            issued: q.issued,
            done: q.done,
        }
    }
}

struct Inner {
    disk: Disk,
    // The disk's geometry, copied once: `Disk::geometry` clones three
    // zone tables, which is not for the submit path.
    geometry: DiskGeometry,
    scheduler: Clook,
    priority: Priority,
    // Queued requests keyed by address, `(first sector, arrival seq)`;
    // the scheduler indexes the same keys, so a dispatch is one O(log n)
    // pop + one O(log n) removal here, and a merge finds the write that
    // continues a command, and checks it for overlap, with range queries
    // — no linear scans at any depth.
    queue: BTreeMap<(Lba, u64), Queued>,
    // The longest request queued since the queue was last empty: nothing
    // starting this far below a sector can cover it.
    max_sectors: u64,
    in_flight: bool,
    next_id: u64,
    next_seq: u64,
    stats: DriverStats,
    // The driver's name for trace purposes is its disk's name.
    lifecycle: LifecycleEmitter,
}

/// A queueing block driver over one [`Disk`]. Clones share the driver.
///
/// # Examples
///
/// ```
/// use trail_sim::Simulator;
/// use trail_disk::{profiles, Disk, SECTOR_SIZE};
/// use trail_blockio::{IoRequest, StandardDriver};
///
/// let mut sim = Simulator::new();
/// let disk = Disk::new("data", profiles::wd_caviar_10gb());
/// let drv = StandardDriver::new(disk);
/// let done = sim.completion(|_, d: trail_sim::Delivered<trail_blockio::IoDone>| {
///     let done = d.expect("delivered");
///     assert!(done.latency().as_millis_f64() > 0.0);
/// });
/// drv.submit(&mut sim, IoRequest::write(0, vec![9; SECTOR_SIZE]), done)?;
/// sim.run();
/// # Ok::<(), trail_disk::DiskError>(())
/// ```
#[derive(Clone)]
pub struct StandardDriver {
    inner: Rc<RefCell<Inner>>,
}

impl StandardDriver {
    /// Creates a driver with no read priority.
    pub fn new(disk: Disk) -> Self {
        Self::with_priority(disk, Priority::None)
    }

    /// Creates a driver whose elevator applies `priority`.
    pub fn with_priority(disk: Disk, priority: Priority) -> Self {
        let lifecycle = LifecycleEmitter::new(Layer::BlockIo, disk.name());
        StandardDriver {
            inner: Rc::new(RefCell::new(Inner {
                geometry: disk.geometry(),
                disk,
                scheduler: Clook::default(),
                priority,
                queue: BTreeMap::new(),
                max_sectors: 0,
                in_flight: false,
                next_id: 0,
                next_seq: 0,
                stats: DriverStats::default(),
                lifecycle,
            })),
        }
    }

    /// Attaches a telemetry recorder to this driver *and* its disk, so
    /// one call wires the whole request path: `Enqueue`/`Dispatch`/
    /// `Complete` here, mechanical phase events below.
    pub fn set_recorder(&self, recorder: RecorderHandle) {
        let mut d = self.inner.borrow_mut();
        d.disk.set_recorder(Rc::clone(&recorder));
        d.lifecycle.set_recorder(recorder);
    }

    /// The underlying disk.
    pub fn disk(&self) -> Disk {
        self.inner.borrow().disk.clone()
    }

    /// Current queue depth (excluding the in-flight request).
    pub fn queue_depth(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// Whether a request is being serviced by the disk right now.
    pub fn is_busy(&self) -> bool {
        self.inner.borrow().in_flight
    }

    /// Runs `f` against the accumulated statistics.
    pub fn with_stats<R>(&self, f: impl FnOnce(&DriverStats) -> R) -> R {
        f(&self.inner.borrow().stats)
    }

    /// Submits a request; `done` is delivered when it is durable (writes)
    /// or the data is available (reads). The handler runs as its own
    /// simulator event, so it may submit new I/O into this driver freely.
    ///
    /// A request the disk fails is delivered the disk's [`IoError`]: a
    /// `Transient` error fails that request alone, while `PoweredOff` or
    /// `MediaFailed` fails it and every request queued behind it.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::OutOfRange`] or [`DiskError::BadDataLength`]
    /// without queueing anything if the request is malformed; `done` is
    /// then delivered `Err(IoError::Cancelled)` on the next step.
    pub fn submit(
        &self,
        sim: &mut Simulator,
        req: IoRequest,
        done: Completion<IoDone>,
    ) -> Result<RequestId, DiskError> {
        let id = {
            let mut d = self.inner.borrow_mut();
            let total = d.geometry.total_sectors();
            let sectors = req.kind.sectors();
            match &req.kind {
                IoKind::Read { count } if *count == 0 => return Err(DiskError::OutOfRange),
                IoKind::Write { data } if data.is_empty() || data.len() % SECTOR_SIZE != 0 => {
                    return Err(DiskError::BadDataLength)
                }
                _ => {}
            }
            if req.lba + u64::from(sectors) > total {
                return Err(DiskError::OutOfRange);
            }
            let id = RequestId(d.next_id);
            d.next_id += 1;
            let seq = d.next_seq;
            d.next_seq += 1;
            d.max_sectors = d.max_sectors.max(u64::from(sectors));
            let Inner {
                scheduler,
                geometry,
                ..
            } = &mut *d;
            scheduler.insert(
                QueuedIo {
                    lba: req.lba,
                    is_read: req.kind.is_read(),
                    seq,
                },
                geometry,
            );
            d.queue.insert(
                (req.lba, seq),
                Queued {
                    id,
                    issued: sim.now(),
                    req,
                    done,
                },
            );
            d.stats.submitted += 1;
            let depth = d.queue.len();
            if depth > d.stats.max_queue_depth {
                d.stats.max_queue_depth = depth;
            }
            d.lifecycle.enqueue(sim.now(), id.0, depth as u32);
            id
        };
        self.dispatch(sim);
        Ok(id)
    }

    /// If the disk is idle and requests are queued, dispatches the next one
    /// according to the priority policy and the elevator — a write together
    /// with the queued writes that continue it (see the module docs).
    fn dispatch(&self, sim: &mut Simulator) {
        let (disk, cmd, head, merged) = {
            let mut d = self.inner.borrow_mut();
            if d.in_flight || d.queue.is_empty() {
                return;
            }
            let reads_only = d.priority == Priority::ReadsFirst && d.scheduler.queued_reads() > 0;
            let at = d.disk.head_position();
            let next = d.scheduler.pop(at, reads_only);
            let mut queued = d.take(sim.now(), (next.lba, next.seq));
            // Move the payload handles into the command: nothing reads
            // them from the queue entries after dispatch (a failure only
            // needs the completions), and moving keeps a payload with one
            // owner at one owner — no reference count allocated.
            let mut merged = Vec::new();
            let cmd = match &mut queued.req.kind {
                IoKind::Read { count } => DiskCommand::Read {
                    lba: queued.req.lba,
                    count: *count,
                },
                IoKind::Write { data } => {
                    let mut chain = PayloadChain::from(std::mem::take(data));
                    let mut end = queued.req.lba + (chain.len() / SECTOR_SIZE) as u64;
                    let cap = queued.req.lba + MERGE_CAP_SECTORS;
                    while let Some(seq) = d.next_in_chain(end, cap) {
                        let mut next = d.take_merged(sim.now(), end, seq);
                        let IoKind::Write { data } = &mut next.req.kind else {
                            unreachable!("a chain takes writes only");
                        };
                        end += (data.len() / SECTOR_SIZE) as u64;
                        chain.push(std::mem::take(data));
                        merged.push(Member::of(next));
                    }
                    DiskCommand::Write {
                        lba: queued.req.lba,
                        data: chain,
                    }
                }
            };
            if d.queue.is_empty() {
                d.max_sectors = 0;
            }
            d.in_flight = true;
            d.stats.commands += 1;
            (d.disk.clone(), cmd, Member::of(queued), merged)
        };
        let driver = self.clone();
        let disk_done = sim.completion(move |sim: &mut Simulator, res: Delivered<DiskResult>| {
            let mut res = match res {
                Ok(res) => res,
                Err(e) => return driver.on_failure(sim, head, merged, e),
            };
            driver.inner.borrow_mut().in_flight = false;
            for m in std::iter::once(head).chain(merged) {
                let done = IoDone {
                    id: m.id,
                    lba: m.lba,
                    kind: res.kind,
                    data: res.data.take(),
                    issued: m.issued,
                    completed: res.completed,
                    breakdown: res.breakdown,
                };
                let mut d = driver.inner.borrow_mut();
                d.stats.completed += 1;
                let lat = done.latency();
                // The queue wait is the end-to-end latency minus the
                // command's mechanical service time; both are
                // integer-nanosecond differences of the same virtual clock,
                // so the five components sum *exactly* to the end-to-end
                // latency of every member.
                d.lifecycle.complete(
                    done.issued,
                    done.id.0,
                    RequestBreakdown {
                        queue: lat - done.breakdown.total,
                        overhead: done.breakdown.overhead,
                        seek: done.breakdown.seek,
                        rotation: done.breakdown.rotation,
                        transfer: done.breakdown.transfer,
                        total: lat,
                    },
                );
                drop(d);
                m.done.complete(sim, done);
            }
            driver.dispatch(sim);
        });
        if let Err(e) = disk.submit(sim, cmd, disk_done) {
            panic!("validated request rejected by idle disk: {e}");
        }
    }

    /// The disk failed the in-flight command with `e`, which fails each of
    /// its requests. A transient error fails those alone and the queue
    /// moves on; a power cut or a failed medium fails them and every
    /// queued request with the same error — holding them would hang their
    /// submitters and, because Trail's write-back completions hold the
    /// driver that owns this one, keep a dead stack alive in an `Rc` cycle.
    fn on_failure(&self, sim: &mut Simulator, head: Member, merged: Vec<Member>, e: IoError) {
        let queued = {
            let mut d = self.inner.borrow_mut();
            d.in_flight = false;
            if e == IoError::Transient {
                BTreeMap::new()
            } else {
                d.scheduler.clear();
                d.max_sectors = 0;
                std::mem::take(&mut d.queue)
            }
        };
        for q in queued.into_values() {
            q.done.fail(sim, e);
        }
        for m in std::iter::once(head).chain(merged) {
            m.done.fail(sim, e);
        }
        if e == IoError::Transient {
            self.dispatch(sim);
        }
    }
}

impl Inner {
    /// Takes the request queued under `key` out of the queue, for
    /// dispatch, and records its `Dispatch` (with the depth before).
    fn take(&mut self, now: SimTime, key: (Lba, u64)) -> Queued {
        let depth = self.queue.len() as u32;
        let q = self
            .queue
            .remove(&key)
            .expect("the scheduler and the queue hold the same requests");
        self.lifecycle.dispatch(now, q.id.0, depth);
        q
    }

    /// Takes the write queued at `lba` under `seq` into the command being
    /// dispatched: out of the scheduler's index too, since no pop
    /// returned it.
    fn take_merged(&mut self, now: SimTime, lba: Lba, seq: u64) -> Queued {
        let q = QueuedIo {
            lba,
            is_read: false,
            seq,
        };
        self.scheduler.remove(q, &self.geometry);
        self.take(now, (lba, seq))
    }

    /// The seq of the queued write a command ending at `end` can take
    /// next without growing past `cap`: the one request starting at `end`,
    /// if it is a write that overlaps no other queued request. Both looks
    /// are range queries on the queue, and the one below `end` stops after
    /// [`OVERLAP_LOOKBACK`] requests.
    fn next_in_chain(&self, end: Lba, cap: Lba) -> Option<u64> {
        let reach = |start: Lba, q: &Queued| start + u64::from(q.req.kind.sectors());
        let mut from_end = self.queue.range((end, 0)..);
        let (&(start, seq), q) = from_end.next()?;
        let stop = reach(start, q);
        if start != end || stop > cap || q.req.kind.is_read() {
            return None;
        }
        // Nothing else may start inside the candidate...
        if from_end.next().is_some_and(|(&(next, _), _)| next < stop) {
            return None;
        }
        // ...nor start below it and reach into it.
        let mut below = self.queue.range(..(end, 0)).rev();
        for _ in 0..OVERLAP_LOOKBACK {
            match below.next() {
                None => return Some(seq),
                Some((&(start, _), _)) if start + self.max_sectors <= end => return Some(seq),
                Some((&(start, _), q)) if reach(start, q) > end => return None,
                Some(_) => {}
            }
        }
        None
    }
}

impl fmt::Debug for StandardDriver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.inner.borrow();
        f.debug_struct("StandardDriver")
            .field("disk", &d.disk.name())
            .field("queued", &d.queue.len())
            .field("in_flight", &d.in_flight)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell as StdRefCell;
    use std::rc::Rc as StdRc;
    use trail_disk::profiles;
    use trail_sim::SimDuration;

    fn setup() -> (Simulator, StandardDriver) {
        let disk = Disk::new("t", profiles::tiny_test_disk());
        (Simulator::new(), StandardDriver::new(disk))
    }

    #[test]
    fn write_then_read_round_trip() {
        let (mut sim, drv) = setup();
        let seen = StdRc::new(StdRefCell::new(None));
        let drv2 = drv.clone();
        let seen2 = StdRc::clone(&seen);
        let write_done = sim.completion(move |sim, d| {
            d.expect("write delivered");
            // Re-entrant submit from a completion handler: safe, because
            // delivery is a fresh simulator event.
            let read_done = sim.completion(move |_, d: trail_sim::Delivered<IoDone>| {
                *seen2.borrow_mut() = d.expect("read delivered").data
            });
            drv2.submit(sim, IoRequest::read(11, 1), read_done).unwrap();
        });
        drv.submit(
            &mut sim,
            IoRequest::write(11, vec![0xC3; SECTOR_SIZE]),
            write_done,
        )
        .unwrap();
        sim.run();
        assert_eq!(seen.borrow().as_ref().unwrap().sector(0)[0], 0xC3);
    }

    #[test]
    fn queued_requests_all_complete() {
        let (mut sim, drv) = setup();
        let done = StdRc::new(StdRefCell::new(0u32));
        for i in 0..20u64 {
            let done = StdRc::clone(&done);
            let c = sim.completion(move |_, d| {
                d.expect("delivered");
                *done.borrow_mut() += 1;
            });
            drv.submit(
                &mut sim,
                IoRequest::write(i * 97 % 1000, vec![i as u8; SECTOR_SIZE]),
                c,
            )
            .unwrap();
        }
        assert!(
            drv.queue_depth() > 0,
            "requests should queue behind the first"
        );
        sim.run();
        assert_eq!(*done.borrow(), 20);
        assert_eq!(drv.queue_depth(), 0);
        assert!(!drv.is_busy());
        drv.with_stats(|s| {
            assert_eq!(s.submitted, 20);
            assert_eq!(s.completed, 20);
            assert!(s.max_queue_depth >= 19);
        });
    }

    #[test]
    fn queueing_inflates_latency() {
        let (mut sim, drv) = setup();
        let lats = StdRc::new(StdRefCell::new(Vec::new()));
        for i in 0..5u64 {
            let lats = StdRc::clone(&lats);
            let c = sim.completion(move |_, d: trail_sim::Delivered<IoDone>| {
                lats.borrow_mut().push(d.expect("done").latency())
            });
            drv.submit(&mut sim, IoRequest::write(i * 500, vec![0; SECTOR_SIZE]), c)
                .unwrap();
        }
        sim.run();
        let lats = lats.borrow();
        assert_eq!(lats.len(), 5);
        let max = lats.iter().copied().max().unwrap();
        let min = lats.iter().copied().min().unwrap();
        assert!(
            max > min + SimDuration::from_millis(1),
            "later requests should see queueing delay: min {min}, max {max}"
        );
    }

    #[test]
    fn reads_first_priority_overtakes_writes() {
        let disk = Disk::new("t", profiles::tiny_test_disk());
        let drv = StandardDriver::with_priority(disk, Priority::ReadsFirst);
        let mut sim = Simulator::new();
        let order = StdRc::new(StdRefCell::new(Vec::new()));
        // First write occupies the disk; then queue 2 writes and 1 read.
        for i in 0..3u64 {
            let order = StdRc::clone(&order);
            let c = sim.completion(move |_, d| {
                d.expect("delivered");
                order.borrow_mut().push(format!("w{i}"));
            });
            drv.submit(&mut sim, IoRequest::write(100 + i, vec![0; SECTOR_SIZE]), c)
                .unwrap();
        }
        let order2 = StdRc::clone(&order);
        let c = sim.completion(move |_, d| {
            d.expect("delivered");
            order2.borrow_mut().push("r".into());
        });
        drv.submit(&mut sim, IoRequest::read(2000, 1), c).unwrap();
        sim.run();
        // The read arrived last but must complete right after the in-flight
        // write (w0), ahead of the two queued writes.
        assert_eq!(order.borrow()[0], "w0");
        assert_eq!(order.borrow()[1], "r");
    }

    #[test]
    fn rejects_malformed_requests() {
        let (mut sim, drv) = setup();
        let total = drv.disk().geometry().total_sectors();
        let cancelled = StdRc::new(StdRefCell::new(0u32));
        let mint = |sim: &Simulator| {
            let cancelled = StdRc::clone(&cancelled);
            sim.completion(move |_, d| {
                assert!(d.is_err(), "rejected request must cancel its completion");
                *cancelled.borrow_mut() += 1;
            })
        };
        let c = mint(&sim);
        assert!(matches!(
            drv.submit(&mut sim, IoRequest::read(total, 1), c),
            Err(DiskError::OutOfRange)
        ));
        let c = mint(&sim);
        assert!(matches!(
            drv.submit(&mut sim, IoRequest::read(0, 0), c),
            Err(DiskError::OutOfRange)
        ));
        let c = mint(&sim);
        assert!(matches!(
            drv.submit(&mut sim, IoRequest::write(0, vec![1]), c),
            Err(DiskError::BadDataLength)
        ));
        sim.run();
        assert_eq!(*cancelled.borrow(), 3);
    }

    #[test]
    fn member_failure_cancels_queued_requests() {
        let (mut sim, drv) = setup();
        let outcomes = StdRc::new(StdRefCell::new(Vec::new()));
        for i in 0..6u64 {
            let outcomes = StdRc::clone(&outcomes);
            let c = sim.completion(move |_, d: trail_sim::Delivered<IoDone>| {
                outcomes.borrow_mut().push(d.map(|_| ()));
            });
            drv.submit(&mut sim, IoRequest::write(i * 300, vec![0; SECTOR_SIZE]), c)
                .unwrap();
        }
        // Fail the member while the first request is in flight: everything
        // queued behind it must fail instead of hanging the simulation.
        let clock = trail_sim::FaultClock::new();
        clock.register(drv.disk().fault_sink(trail_disk::DiskRole::Data(0)));
        clock.arm(
            &mut sim,
            &trail_sim::FaultPlan::new().with(trail_sim::Fault {
                at: SimDuration::from_nanos(50),
                target: trail_sim::FaultTarget::Data(0),
                kind: trail_sim::FaultKind::Fail,
            }),
        );
        sim.run();
        assert_eq!(
            *outcomes.borrow(),
            vec![Err(IoError::MediaFailed); 6],
            "every completion delivered the failure"
        );
        assert_eq!(drv.queue_depth(), 0);
        assert!(!drv.is_busy());
        // A new submission is accepted and delivered the same failure.
        let got = sim.block_on(|sim, c| drv.submit(sim, IoRequest::read(0, 1), c));
        assert_eq!(got.unwrap().unwrap_err(), IoError::MediaFailed);
    }

    #[test]
    fn power_cut_cancels_queued_requests() {
        let (mut sim, drv) = setup();
        let outcomes = StdRc::new(StdRefCell::new(Vec::new()));
        let submit = |sim: &mut Simulator, lba: u64| {
            let outcomes = StdRc::clone(&outcomes);
            let c = sim.completion(move |_, d: trail_sim::Delivered<IoDone>| {
                outcomes.borrow_mut().push(d.map(|_| ()));
            });
            drv.submit(sim, IoRequest::write(lba, vec![0; SECTOR_SIZE]), c)
        };
        for i in 0..6u64 {
            submit(&mut sim, i * 300).unwrap();
        }
        assert_eq!(drv.queue_depth(), 5);
        // Lights out with one request in flight and five queued: all six
        // submitters must hear `PoweredOff`, none may stay queued.
        drv.disk().power_cut(sim.now());
        sim.run();
        assert_eq!(*outcomes.borrow(), vec![Err(IoError::PoweredOff); 6]);
        assert_eq!(drv.queue_depth(), 0);
        assert!(!drv.is_busy());
        // A request offered to the dark disk is accepted, then failed.
        submit(&mut sim, 0).unwrap();
        sim.run();
        assert_eq!(outcomes.borrow().last(), Some(&Err(IoError::PoweredOff)));
        assert_eq!(drv.queue_depth(), 0);
        // The driver serves again once power returns.
        drv.disk().power_on();
        submit(&mut sim, 0).unwrap();
        sim.run();
        assert_eq!(outcomes.borrow().last(), Some(&Ok(())));
    }

    #[test]
    fn transient_error_cancels_one_request_and_queue_drains() {
        let (mut sim, drv) = setup();
        // Two charges: the first two dispatches are consumed, the rest of
        // the queue must still drain to completion.
        drv.disk().inject_transient_errors(2);
        let outcomes = StdRc::new(StdRefCell::new(Vec::new()));
        for i in 0..6u64 {
            let outcomes = StdRc::clone(&outcomes);
            let c = sim.completion(move |_, d: trail_sim::Delivered<IoDone>| {
                outcomes.borrow_mut().push(d.map(|_| ()));
            });
            drv.submit(&mut sim, IoRequest::write(i * 300, vec![7; SECTOR_SIZE]), c)
                .unwrap();
        }
        sim.run();
        let outcomes = outcomes.borrow();
        assert_eq!(outcomes.len(), 6, "every completion delivered");
        assert_eq!(
            outcomes.iter().filter(|o| o.is_err()).collect::<Vec<_>>(),
            [&Err(IoError::Transient); 2]
        );
        assert_eq!(drv.queue_depth(), 0);
        assert!(!drv.is_busy());
        drv.with_stats(|s| assert_eq!(s.completed, 4));
    }

    #[test]
    fn telemetry_breakdown_sums_exactly_to_latency() {
        use trail_telemetry::{EventKind, MemoryRecorder};

        let (mut sim, drv) = setup();
        let rec = MemoryRecorder::shared();
        drv.set_recorder(rec.clone());
        // Queue several writes so later ones see real queueing delay.
        for i in 0..6u64 {
            let c = sim.completion(|_, _| {});
            drv.submit(&mut sim, IoRequest::write(i * 700, vec![0; SECTOR_SIZE]), c)
                .unwrap();
        }
        sim.run();
        assert_eq!(rec.count_kind("Enqueue"), 6);
        assert_eq!(rec.count_kind("Dispatch"), 6);
        assert_eq!(rec.count_kind("Complete"), 6);
        // Disk-layer phases rode along via the shared recorder.
        assert!(rec.count_kind("RotWait") >= 6);
        let mut saw_queueing = false;
        for e in rec.snapshot() {
            if let EventKind::Complete { breakdown } = e.kind {
                assert!(
                    breakdown.is_exact(),
                    "residual {} ns at req {:?}",
                    breakdown.residual_nanos(),
                    e.req
                );
                saw_queueing |= !breakdown.queue.is_zero();
            }
        }
        assert!(saw_queueing, "some request must have waited in queue");
    }

    /// Each completed write's LBA and outcome, in completion order.
    type Log = StdRc<StdRefCell<Vec<(u64, Result<(), IoError>)>>>;

    /// Submits a write of `sectors` sectors of `byte` at `lba`, recording
    /// `(lba, outcome)` at its completion.
    fn submit_logged(
        sim: &mut Simulator,
        drv: &StandardDriver,
        log: &Log,
        lba: u64,
        sectors: usize,
        byte: u8,
    ) {
        let log = StdRc::clone(log);
        let c = sim.completion(move |_, d: trail_sim::Delivered<IoDone>| {
            log.borrow_mut().push((lba, d.map(|_| ())));
        });
        drv.submit(
            sim,
            IoRequest::write(lba, vec![byte; sectors * SECTOR_SIZE]),
            c,
        )
        .unwrap();
    }

    #[test]
    fn adjacent_queued_writes_go_as_one_command() {
        use trail_telemetry::{EventKind, MemoryRecorder};

        let (mut sim, drv) = setup();
        let rec = MemoryRecorder::shared();
        drv.set_recorder(rec.clone());
        let log = StdRc::new(StdRefCell::new(Vec::new()));
        // A far write keeps the disk busy while eight adjacent ones queue:
        // the lowest first, the rest in scrambled order.
        submit_logged(&mut sim, &drv, &log, 3000, 1, 0xEE);
        let lbas = [100u64, 114, 102, 110, 106, 112, 104, 108];
        for (i, &lba) in lbas.iter().enumerate() {
            submit_logged(&mut sim, &drv, &log, lba, 2, i as u8 + 1);
        }
        sim.run();
        drv.with_stats(|s| assert_eq!((s.completed, s.commands), (9, 2)));
        drv.disk()
            .with_stats(|s| assert_eq!((s.writes, s.sectors_written), (2, 17)));
        // Every member completes once, in medium order, not submit order.
        let got: Vec<u64> = log.borrow().iter().map(|&(lba, _)| lba).collect();
        assert_eq!(got, [3000, 100, 102, 104, 106, 108, 110, 112, 114]);
        assert!(log.borrow().iter().all(|(_, o)| o.is_ok()));
        for (i, &lba) in lbas.iter().enumerate() {
            for s in 0..2 {
                assert_eq!(drv.disk().peek_sector(lba + s)[0], i as u8 + 1);
            }
        }
        assert_eq!(rec.count_kind("Dispatch"), 9);
        let mut completes = 0;
        for e in rec.snapshot() {
            if let EventKind::Complete { breakdown } = e.kind {
                assert!(breakdown.is_exact(), "req {:?}", e.req);
                completes += 1;
            }
        }
        assert_eq!(completes, 9);
    }

    #[test]
    fn a_write_overlapping_another_queued_request_is_not_merged() {
        for overlap_read in [false, true] {
            let (mut sim, drv) = setup();
            let log = StdRc::new(StdRefCell::new(Vec::new()));
            submit_logged(&mut sim, &drv, &log, 3000, 1, 0xEE);
            submit_logged(&mut sim, &drv, &log, 100, 4, 1);
            // Starts where the first ends, but an earlier-queued request
            // covers its second sector: it must wait its turn.
            if overlap_read {
                let c = sim.completion(|_, d: trail_sim::Delivered<IoDone>| {
                    assert_eq!(d.expect("read").data.expect("bytes").sector(0)[0], 0);
                });
                drv.submit(&mut sim, IoRequest::read(105, 1), c).unwrap();
            } else {
                submit_logged(&mut sim, &drv, &log, 102, 4, 2);
            }
            submit_logged(&mut sim, &drv, &log, 104, 2, 3);
            sim.run();
            drv.with_stats(|s| assert_eq!(s.commands, 4, "no merge"));
            assert_eq!(drv.disk().peek_sector(105)[0], 3, "arrival order");
        }
    }

    #[test]
    fn a_merge_stops_at_the_cap() {
        let (mut sim, drv) = setup();
        let log = StdRc::new(StdRefCell::new(Vec::new()));
        submit_logged(&mut sim, &drv, &log, 3000, 1, 0xEE);
        // 40 writes of 8 sectors, 320 in all: the first command takes the
        // cap's worth, the second the rest.
        assert_eq!(MERGE_CAP_SECTORS, 256);
        for i in 0..40 {
            submit_logged(&mut sim, &drv, &log, 8 * i, 8, 1);
        }
        sim.run();
        drv.with_stats(|s| assert_eq!((s.completed, s.commands), (41, 3)));
        drv.disk()
            .with_stats(|s| assert_eq!(s.sectors_written, 1 + 320));
    }

    #[test]
    fn a_failed_merged_command_fails_every_member_once() {
        for cut in [false, true] {
            let (mut sim, drv) = setup();
            let log = StdRc::new(StdRefCell::new(Vec::new()));
            submit_logged(&mut sim, &drv, &log, 3000, 1, 0xEE);
            for i in 0..4 {
                submit_logged(&mut sim, &drv, &log, 100 + 2 * i, 2, 1);
            }
            let want = if cut {
                // Cut power once the merged command is on its way.
                let disk = drv.disk();
                sim.run_until(SimTime::ZERO + SimDuration::from_millis(1));
                while drv.queue_depth() > 0 {
                    assert!(sim.step());
                }
                disk.power_cut(sim.now());
                IoError::PoweredOff
            } else {
                // The far write is in flight: the next command fails.
                drv.disk().inject_transient_errors(1);
                IoError::Transient
            };
            sim.run();
            let log = log.borrow();
            assert_eq!(log.len(), 5, "every completion delivered once");
            assert_eq!(log[0], (3000, Ok(())));
            for (k, &(lba, o)) in log[1..].iter().enumerate() {
                assert_eq!((lba, o), (100 + 2 * k as u64, Err(want)));
            }
            drv.with_stats(|s| assert_eq!((s.completed, s.commands), (1, 2)));
        }
    }

    #[test]
    fn clook_reduces_total_seek_versus_fifo() {
        // The same interleaved reads, queued at once for C-LOOK, and in
        // arrival order (FIFO) when each goes in only after the one before
        // completes: the elevator must seek less in total.
        let run = |queued: bool| -> f64 {
            let disk = Disk::new("t", profiles::tiny_test_disk());
            let drv = StandardDriver::new(disk.clone());
            let mut sim = Simulator::new();
            let lbas = [0u64, 4000, 100, 4100, 200, 4200, 300, 4300];
            for &lba in &lbas {
                if queued {
                    let c = sim.completion(|_, _| {});
                    drv.submit(&mut sim, IoRequest::read(lba, 1), c).unwrap();
                } else {
                    let done = sim.block_on(|sim, c| drv.submit(sim, IoRequest::read(lba, 1), c));
                    done.unwrap().expect("delivered");
                }
            }
            sim.run();
            disk.with_stats(|s| s.total_seek.as_millis_f64())
        };
        let fifo = run(false);
        let clook = run(true);
        assert!(
            clook < fifo,
            "C-LOOK total seek {clook} ms should beat FIFO {fifo} ms"
        );
    }
}
