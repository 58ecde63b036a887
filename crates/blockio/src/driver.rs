//! The standard disk-subsystem driver — the paper's baseline.
//!
//! [`StandardDriver`] models the conventional kernel block layer the paper
//! compares Trail against: requests queue in the driver, a scheduling
//! policy (C-LOOK by default) picks the next one whenever the disk goes
//! idle, and a synchronous write is durable exactly when its completion
//! callback fires — after paying full seek + rotational latency at the
//! *target* address. It is also the building block Trail itself uses for
//! its data disks (with [`Priority::ReadsFirst`]).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use trail_disk::{Disk, DiskCommand, DiskError, DiskGeometry, DiskResult, SECTOR_SIZE};
use trail_sim::{Completion, Delivered, IoError, SimTime, Simulator};
use trail_telemetry::{Layer, LifecycleEmitter, RecorderHandle, RequestBreakdown};

use crate::request::{IoDone, IoKind, IoRequest, RequestId};
use crate::sched::{Clook, Priority, QueuedIo, Scheduler};

/// Aggregate driver measurements. Per-request latency is not kept here:
/// each request's `Complete` event carries it, and a volume's
/// `MemberStats` own it for array members.
#[derive(Clone, Debug, Default)]
pub struct DriverStats {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests completed.
    pub completed: u64,
    /// Largest queue depth observed at submission time.
    pub max_queue_depth: usize,
}

struct Queued {
    id: RequestId,
    issued: SimTime,
    req: IoRequest,
    done: Completion<IoDone>,
}

struct Inner {
    disk: Disk,
    // The disk's geometry, copied once: `Disk::geometry` clones three
    // zone tables, which is not for the submit path.
    geometry: DiskGeometry,
    scheduler: Box<dyn Scheduler>,
    priority: Priority,
    // Queued requests keyed by arrival seq; the scheduler indexes the
    // same seqs, so a dispatch is one O(log n) pop + one O(log n)
    // removal here — no linear scans at any depth.
    queue: BTreeMap<u64, Queued>,
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
    /// Creates a driver with the default C-LOOK scheduler and no read
    /// priority.
    pub fn new(disk: Disk) -> Self {
        Self::with_policy(disk, Box::new(Clook::default()), Priority::None)
    }

    /// Creates a driver with an explicit scheduler and priority policy.
    pub fn with_policy(disk: Disk, scheduler: Box<dyn Scheduler>, priority: Priority) -> Self {
        let lifecycle = LifecycleEmitter::new(Layer::BlockIo, disk.name());
        StandardDriver {
            inner: Rc::new(RefCell::new(Inner {
                geometry: disk.geometry(),
                disk,
                scheduler,
                priority,
                queue: BTreeMap::new(),
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
                seq,
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
    /// according to the priority policy and scheduler.
    fn dispatch(&self, sim: &mut Simulator) {
        let (disk, cmd, queued) = {
            let mut d = self.inner.borrow_mut();
            if d.in_flight || d.queue.is_empty() {
                return;
            }
            let depth = d.queue.len() as u32;
            let reads_only = d.priority == Priority::ReadsFirst && d.scheduler.queued_reads() > 0;
            let head = d.disk.head_position();
            let seq = d.scheduler.pop(head, reads_only);
            let mut queued = d
                .queue
                .remove(&seq)
                .expect("scheduler popped a seq the queue does not hold");
            // Move the payload handle into the command: nothing reads it
            // from the queue entry after dispatch (a failure only needs
            // `queued.done`), and moving keeps a payload with one owner at
            // one owner — no reference count allocated.
            let cmd = match &mut queued.req.kind {
                IoKind::Read { count } => DiskCommand::Read {
                    lba: queued.req.lba,
                    count: *count,
                },
                IoKind::Write { data } => DiskCommand::Write {
                    lba: queued.req.lba,
                    data: std::mem::take(data),
                },
            };
            d.in_flight = true;
            d.lifecycle.dispatch(sim.now(), queued.id.0, depth);
            (d.disk.clone(), cmd, queued)
        };
        let driver = self.clone();
        let disk_done = sim.completion(move |sim: &mut Simulator, res: Delivered<DiskResult>| {
            let res = match res {
                Ok(res) => res,
                Err(e) => return driver.on_failure(sim, queued.done, e),
            };
            let done = IoDone {
                id: queued.id,
                lba: res.lba,
                kind: res.kind,
                data: res.data,
                issued: queued.issued,
                completed: res.completed,
                breakdown: res.breakdown,
            };
            {
                let mut d = driver.inner.borrow_mut();
                d.in_flight = false;
                d.stats.completed += 1;
                let lat = done.latency();
                // The queue wait is the end-to-end latency minus the
                // mechanical service time; both are integer-nanosecond
                // differences of the same virtual clock, so the five
                // components sum *exactly* to the end-to-end latency.
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
            }
            queued.done.complete(sim, done);
            driver.dispatch(sim);
        });
        if let Err(e) = disk.submit(sim, cmd, disk_done) {
            panic!("validated request rejected by idle disk: {e}");
        }
    }

    /// The disk failed the in-flight request with `e`. A transient error
    /// fails that request alone and the queue moves on; a power cut or a
    /// failed medium fails it and every queued request with the same
    /// error — holding them would hang their submitters and, because
    /// Trail's write-back completions hold the driver that owns this one,
    /// keep a dead stack alive in an `Rc` cycle.
    fn on_failure(&self, sim: &mut Simulator, in_flight: Completion<IoDone>, e: IoError) {
        let queued = {
            let mut d = self.inner.borrow_mut();
            d.in_flight = false;
            if e == IoError::Transient {
                BTreeMap::new()
            } else {
                d.scheduler.clear();
                std::mem::take(&mut d.queue)
            }
        };
        for q in queued.into_values() {
            q.done.fail(sim, e);
        }
        in_flight.fail(sim, e);
        if e == IoError::Transient {
            self.dispatch(sim);
        }
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
        assert_eq!(seen.borrow().as_deref().unwrap()[0], 0xC3);
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
        let drv =
            StandardDriver::with_policy(disk, Box::new(Clook::default()), Priority::ReadsFirst);
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

    #[test]
    fn clook_reduces_total_seek_versus_fifo() {
        // Same interleaved workload under FIFO and C-LOOK; the elevator
        // must finish sooner in total.
        let run = |sched: Box<dyn Scheduler>| -> f64 {
            let disk = Disk::new("t", profiles::tiny_test_disk());
            let drv = StandardDriver::with_policy(disk.clone(), sched, Priority::None);
            let mut sim = Simulator::new();
            let lbas = [0u64, 4000, 100, 4100, 200, 4200, 300, 4300];
            for &lba in &lbas {
                let c = sim.completion(|_, _| {});
                drv.submit(&mut sim, IoRequest::read(lba, 1), c).unwrap();
            }
            sim.run();
            disk.with_stats(|s| s.total_seek.as_millis_f64())
        };
        let fifo = run(Box::<crate::sched::Fifo>::default());
        let clook = run(Box::<Clook>::default());
        assert!(
            clook < fifo,
            "C-LOOK total seek {clook} ms should beat FIFO {fifo} ms"
        );
    }
}
