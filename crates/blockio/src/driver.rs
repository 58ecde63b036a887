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
use trail_sim::{Completion, Delivered, LatencySummary, SimTime, Simulator};
use trail_telemetry::{Layer, LifecycleEmitter, RecorderHandle, RequestBreakdown};

use crate::request::{IoDone, IoKind, IoRequest, RequestId};
use crate::sched::{Clook, Priority, QueuedIo, Scheduler};
use crate::tap::TapHandle;

/// Aggregate driver measurements.
#[derive(Clone, Debug, Default)]
pub struct DriverStats {
    /// End-to-end read latencies (queueing + service).
    pub read_latency: LatencySummary,
    /// End-to-end write latencies (queueing + service).
    pub write_latency: LatencySummary,
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
    // Dropped tokens of transient-rejected commands whose Err(Cancelled)
    // delivery is still in flight. The dispatch slot those commands held
    // was freed (and likely re-used) at rejection time, so their late
    // cancellations must NOT clear `in_flight` for whatever command now
    // owns the disk.
    transient_cancels_pending: u32,
    next_id: u64,
    next_seq: u64,
    stats: DriverStats,
    // The driver's name for trace purposes is its disk's name.
    lifecycle: LifecycleEmitter,
    // Workload-capture tap plus the stack-level device index it reports.
    tap: Option<(TapHandle, u32)>,
}

impl Inner {
    /// Frees the dispatch slot and drops every queued request, delivering
    /// `Err(Cancelled)` to each submitter on the next simulator step.
    fn cancel_all(&mut self) {
        self.in_flight = false;
        self.queue.clear();
        self.scheduler.clear();
    }
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
                transient_cancels_pending: 0,
                next_id: 0,
                next_seq: 0,
                stats: DriverStats::default(),
                lifecycle,
                tap: None,
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

    /// Installs a workload-capture tap reporting this driver's requests
    /// under stack-level device index `dev`. See [`crate::SubmitTap`].
    pub fn set_tap(&self, tap: TapHandle, dev: u32) {
        self.inner.borrow_mut().tap = Some((tap, dev));
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
    /// # Errors
    ///
    /// Returns [`DiskError::OutOfRange`] or [`DiskError::BadDataLength`]
    /// without queueing anything if the request is malformed; `done` is
    /// then cancelled (delivered `Err(Cancelled)` on the next step).
    pub fn submit(
        &self,
        sim: &mut Simulator,
        req: IoRequest,
        done: Completion<IoDone>,
    ) -> Result<RequestId, DiskError> {
        let id = {
            let mut d = self.inner.borrow_mut();
            if d.disk.is_failed() {
                return Err(DiskError::Failed);
            }
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
            if let Some((tap, dev)) = &d.tap {
                tap.on_submit(
                    sim.now(),
                    *dev,
                    req.lba,
                    sectors,
                    req.kind.is_read(),
                    req.stream,
                );
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
            // from the queue entry after dispatch (a power-cut cancellation
            // only needs `queued.done`'s drop), and moving keeps a payload
            // with one owner at one owner — no reference count allocated.
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
                // The disk lost power or failed with this command in
                // flight. Drop `queued`, which cascades the cancellation
                // to the request's own `Completion`, and drain the queue:
                // nothing behind this command will be serviced either.
                Err(_) => {
                    let mut d = driver.inner.borrow_mut();
                    if d.transient_cancels_pending > 0 {
                        // The dropped token of a transient-rejected
                        // command: its slot was freed and re-dispatched
                        // at rejection time, and `in_flight` now
                        // describes a *different* command — leave it.
                        d.transient_cancels_pending -= 1;
                        return;
                    }
                    d.cancel_all();
                    return;
                }
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
                if done.kind == trail_disk::CommandKind::Read {
                    d.stats.read_latency.record(lat);
                } else {
                    d.stats.write_latency.record(lat);
                }
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
        let submit_result = disk.submit(sim, cmd, disk_done);
        // The request was validated at submission and the disk was idle, so
        // the only legitimate rejection is a power loss that raced the
        // dispatch. The disk consumed our token, whose handler drops the
        // request's `Completion` — the submitter hears `Err(Cancelled)` on
        // the next step instead of waiting forever.
        match submit_result {
            Ok(()) => {}
            Err(DiskError::PoweredOff | DiskError::Failed) => {
                // Power was lost or the member failed between queueing and
                // dispatch. Every queued request is undeliverable; drop
                // them all so their completions cancel-cascade instead of
                // hanging (and instead of keeping their submitters alive:
                // Trail's write-back completions hold the driver that
                // owns this one).
                self.inner.borrow_mut().cancel_all();
            }
            Err(DiskError::Transient) => {
                // An injected transient error consumed only this command
                // (its completion cancel-cascades); everything still
                // queued remains serviceable, so free the slot and keep
                // dispatching. Record the pending cancellation so its
                // later delivery doesn't clear `in_flight` out from
                // under the command dispatched next.
                {
                    let mut d = self.inner.borrow_mut();
                    d.in_flight = false;
                    d.transient_cancels_pending += 1;
                }
                self.dispatch(sim);
            }
            Err(e) => panic!("validated request rejected by idle disk: {e}"),
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
            assert_eq!(s.write_latency.count(), 20);
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
                outcomes.borrow_mut().push(d.is_ok());
            });
            drv.submit(&mut sim, IoRequest::write(i * 300, vec![0; SECTOR_SIZE]), c)
                .unwrap();
        }
        // Fail the member while the first request is in flight: everything
        // queued behind it must cancel instead of hanging the simulation.
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
        assert_eq!(outcomes.borrow().len(), 6, "every completion delivered");
        assert!(outcomes.borrow().iter().all(|ok| !ok), "all cancelled");
        assert_eq!(drv.queue_depth(), 0);
        assert!(!drv.is_busy());
        // New submissions are rejected synchronously.
        let c = sim.completion(|_, d: trail_sim::Delivered<IoDone>| assert!(d.is_err()));
        assert!(matches!(
            drv.submit(&mut sim, IoRequest::read(0, 1), c),
            Err(DiskError::Failed)
        ));
        sim.run();
    }

    #[test]
    fn power_cut_cancels_queued_requests() {
        let (mut sim, drv) = setup();
        let outcomes = StdRc::new(StdRefCell::new(Vec::new()));
        let submit = |sim: &mut Simulator, lba: u64| {
            let outcomes = StdRc::clone(&outcomes);
            let c = sim.completion(move |_, d: trail_sim::Delivered<IoDone>| {
                outcomes.borrow_mut().push(d.is_ok());
            });
            drv.submit(sim, IoRequest::write(lba, vec![0; SECTOR_SIZE]), c)
        };
        for i in 0..6u64 {
            submit(&mut sim, i * 300).unwrap();
        }
        assert_eq!(drv.queue_depth(), 5);
        // Lights out with one request in flight and five queued: all six
        // submitters must hear `Err(Cancelled)`, none may stay queued.
        drv.disk().power_cut(sim.now());
        sim.run();
        assert_eq!(outcomes.borrow().len(), 6, "every completion delivered");
        assert!(outcomes.borrow().iter().all(|ok| !ok), "all cancelled");
        assert_eq!(drv.queue_depth(), 0);
        assert!(!drv.is_busy());
        // A request offered to the dark disk is accepted, then cancelled.
        submit(&mut sim, 0).unwrap();
        sim.run();
        assert_eq!(outcomes.borrow().len(), 7);
        assert_eq!(drv.queue_depth(), 0);
        // The driver serves again once power returns.
        drv.disk().power_on();
        submit(&mut sim, 0).unwrap();
        sim.run();
        assert_eq!(outcomes.borrow().last(), Some(&true));
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
                outcomes.borrow_mut().push(d.is_ok());
            });
            drv.submit(&mut sim, IoRequest::write(i * 300, vec![7; SECTOR_SIZE]), c)
                .unwrap();
        }
        sim.run();
        let outcomes = outcomes.borrow();
        assert_eq!(outcomes.len(), 6, "every completion delivered");
        assert_eq!(outcomes.iter().filter(|ok| !**ok).count(), 2);
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
