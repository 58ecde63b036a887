//! The write driver: [`BuiltStack::drive`] issues each writer's write
//! list on a built stack under one arrival discipline ([`Pace`]) and
//! measures what every §5.1 experiment measures — synchronous-write
//! latency, the instant of the last acknowledgement and the failed
//! deliveries (DESIGN.md §4, "Scenario registry & runner").

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use trail_blockio::IoDone;
use trail_core::BlockStack;
use trail_sim::{Delivered, DurationHistogram, SimDuration, SimTime, Simulator};

use crate::scenario::BuiltStack;

/// One write: `data` at `lba` of device `dev`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Write {
    /// Device, in stack order.
    pub dev: usize,
    /// First sector.
    pub lba: u64,
    /// The payload, a whole number of sectors.
    pub data: Vec<u8>,
}

/// How each writer issues its writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pace {
    /// Closed loop: every writer submits its first `group` writes at the
    /// start, writer after writer, and its next `group` once the whole
    /// group is acknowledged — from inside the last ack when `gap` is
    /// zero, `gap` after it otherwise.
    Acked {
        /// Writes submitted at once.
        group: usize,
        /// Idle time between a group's last ack and the next group.
        gap: SimDuration,
    },
    /// One write at a time, writer after writer: submit, run until the
    /// write is delivered and the stack's `pending_work()` is 0, then idle
    /// `gap` (not at all when zero).
    Drained {
        /// Idle time between a drain and the next write.
        gap: SimDuration,
    },
}

/// What one [`BuiltStack::drive`] measured.
#[derive(Clone, Debug, Default)]
pub struct Driven {
    /// Submission-to-ack latency of every acknowledged write
    /// ([`IoDone::latency`]).
    pub latency: DurationHistogram,
    /// The instant of the last ack (the drive's start when none).
    pub last_ack: SimTime,
    /// Failed deliveries; each ends its writer.
    pub failed: u64,
}

impl Driven {
    /// Notes one delivery at `now`; `false` when it failed.
    fn note(&mut self, now: SimTime, delivered: Delivered<IoDone>) -> bool {
        match delivered {
            Ok(done) => {
                self.latency.record(done.latency());
                self.last_ack = now;
                true
            }
            Err(_) => {
                self.failed += 1;
                false
            }
        }
    }
}

/// One writer under [`Pace::Acked`]: the writes it has not submitted.
struct Writer {
    stack: Rc<dyn BlockStack>,
    writes: RefCell<std::vec::IntoIter<Write>>,
    group: usize,
    gap: SimDuration,
    driven: Rc<RefCell<Driven>>,
}

impl Writer {
    /// Submits the next group; its last ack submits the one after.
    fn submit_group(self: Rc<Self>, sim: &mut Simulator) {
        let group: Vec<Write> = self.writes.borrow_mut().by_ref().take(self.group).collect();
        let left = Rc::new(Cell::new(group.len()));
        for w in group {
            let (me, left) = (Rc::clone(&self), Rc::clone(&left));
            let done = sim.completion(move |sim: &mut Simulator, d: Delivered<IoDone>| {
                if !me.driven.borrow_mut().note(sim.now(), d) {
                    *me.writes.borrow_mut() = Vec::new().into_iter();
                }
                left.set(left.get() - 1);
                if left.get() > 0 || me.writes.borrow().len() == 0 {
                    return;
                }
                if me.gap == SimDuration::ZERO {
                    me.submit_group(sim);
                } else {
                    sim.schedule_in(me.gap, move |sim| me.submit_group(sim));
                }
            });
            self.stack
                .write(sim, w.dev, w.lba, w.data, done)
                .expect("write accepted");
        }
    }
}

impl BuiltStack {
    /// Issues `writers`' write lists under `pace` and runs the simulation
    /// until every writer is done: under [`Pace::Acked`] until the event
    /// queue drains, under [`Pace::Drained`] until the last drain (and its
    /// gap). A failed delivery ends its writer; the others go on.
    ///
    /// # Panics
    ///
    /// Panics if the stack refuses a write synchronously, if a group is
    /// empty, or if the event queue drains while a [`Pace::Drained`]
    /// write is outstanding.
    pub fn drive(&mut self, writers: Vec<Vec<Write>>, pace: Pace) -> Driven {
        let driven = Rc::new(RefCell::new(Driven {
            last_ack: self.sim.now(),
            ..Driven::default()
        }));
        match pace {
            Pace::Acked { group, gap } => {
                assert!(group > 0, "an acked group holds at least one write");
                for writes in writers {
                    let writer = Writer {
                        stack: Rc::clone(&self.stack),
                        writes: RefCell::new(writes.into_iter()),
                        group,
                        gap,
                        driven: Rc::clone(&driven),
                    };
                    Rc::new(writer).submit_group(&mut self.sim);
                }
                self.sim.run();
            }
            Pace::Drained { gap } => {
                for writes in writers {
                    for w in writes {
                        let outcome = Rc::new(Cell::new(None));
                        let (d2, o2) = (Rc::clone(&driven), Rc::clone(&outcome));
                        let done = self.sim.completion(move |sim, d: Delivered<IoDone>| {
                            o2.set(Some(d2.borrow_mut().note(sim.now(), d)));
                        });
                        self.stack
                            .write(&mut self.sim, w.dev, w.lba, w.data, done)
                            .expect("write accepted");
                        while outcome.get().is_none() || self.stack.pending_work() > 0 {
                            assert!(self.sim.step(), "event queue empty with work pending");
                        }
                        if outcome.get() == Some(false) {
                            break;
                        }
                        if gap > SimDuration::ZERO {
                            self.sim.run_for(gap);
                        }
                    }
                }
            }
        }
        driven.take()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use trail_blockio::{StreamId, SubmitTap};
    use trail_disk::{profiles, SECTOR_SIZE};
    use trail_sim::FaultPlan;
    use trail_telemetry::{EventKind, Layer, MemoryRecorder, RecorderHandle};

    use super::*;
    use crate::StackBuilder;

    /// Every submission the stack accepts: instant, device, first sector.
    #[derive(Default)]
    struct Submits(RefCell<Vec<(SimTime, u32, u64)>>);

    impl SubmitTap for Submits {
        fn on_submit(&self, at: SimTime, dev: u32, lba: u64, _: u32, _: bool, _: StreamId) {
            self.0.borrow_mut().push((at, dev, lba));
        }
    }

    /// A stack of `data` tiny data disks under `plan`, with a submission
    /// tap and a recorder attached.
    fn tiny(
        front: fn(StackBuilder) -> StackBuilder,
        data: usize,
        plan: FaultPlan,
    ) -> (BuiltStack, Rc<Submits>, Rc<MemoryRecorder>) {
        let builder = StackBuilder::new()
            .data_disks(data)
            .data_profile(profiles::tiny_test_disk())
            .log_profile(profiles::tiny_test_disk())
            .faults(plan);
        let built = front(builder).build().expect("build");
        let submits = Rc::new(Submits::default());
        built.set_tap(Rc::clone(&submits) as _);
        let rec = MemoryRecorder::shared();
        built.stack.set_recorder(Rc::clone(&rec) as RecorderHandle);
        (built, submits, rec)
    }

    /// `n` one-sector writes to `dev`, 8 sectors apart from `first`.
    fn writes(dev: usize, first: u64, n: u64) -> Vec<Write> {
        (0..n)
            .map(|i| Write {
                dev,
                lba: first + 8 * i,
                data: vec![i as u8 + 1; SECTOR_SIZE],
            })
            .collect()
    }

    /// `(start, end)` of every completion span `layer` recorded.
    fn spans(rec: &MemoryRecorder, layer: Layer) -> Vec<(SimTime, SimTime)> {
        rec.snapshot()
            .into_iter()
            .filter(|e| e.layer == layer && matches!(e.kind, EventKind::Complete { .. }))
            .map(|e| (e.at, e.at + e.dur))
            .collect()
    }

    #[test]
    fn acked_groups_go_at_their_last_ack_or_a_gap_after() {
        for gap in [SimDuration::ZERO, SimDuration::from_millis(2)] {
            let (mut built, _, rec) = tiny(StackBuilder::trail_default, 1, FaultPlan::new());
            let start = built.sim.now();
            let driven = built.drive(vec![writes(0, 0, 10)], Pace::Acked { group: 3, gap });
            assert_eq!((driven.latency.count(), driven.failed), (10, 0));
            // Trail's acks: (submission, ack) of every write.
            let acks = spans(&rec, Layer::Core);
            assert_eq!(acks.len(), 10);
            assert_eq!(Some(driven.last_ack), acks.iter().map(|a| a.1).max());
            for &(t, _) in &acks {
                let in_flight = acks.iter().filter(|&&(s, a)| s <= t && t < a).count();
                assert!(in_flight <= 3, "{in_flight} writes in flight at {t}");
            }
            let mut groups: BTreeMap<SimTime, Vec<SimTime>> = BTreeMap::new();
            for &(s, a) in &acks {
                groups.entry(s).or_default().push(a);
            }
            let sizes: Vec<usize> = groups.values().map(Vec::len).collect();
            assert_eq!(sizes, [3, 3, 3, 1], "gap {gap}");
            assert_eq!(groups.keys().next(), Some(&start));
            let bounds: Vec<(SimTime, SimTime)> = groups
                .iter()
                .map(|(s, a)| (*s, *a.iter().max().expect("a group")))
                .collect();
            for pair in bounds.windows(2) {
                assert_eq!(pair[1].0, pair[0].1 + gap, "gap {gap}");
            }
        }
    }

    #[test]
    fn writers_start_together_in_writer_order() {
        let (mut built, submits, _) = tiny(StackBuilder::trail_default, 1, FaultPlan::new());
        let start = built.sim.now();
        let writers = (0..3).map(|w| writes(0, 1000 * w, 4)).collect();
        let pace = Pace::Acked {
            group: 2,
            gap: SimDuration::ZERO,
        };
        assert_eq!(built.drive(writers, pace).latency.count(), 12);
        // The array's tap reports each request once.
        assert_eq!(submits.0.borrow().len(), 12);
        let first: Vec<u64> = (submits.0.borrow().iter())
            .filter(|s| s.0 == start)
            .map(|s| s.2)
            .collect();
        assert_eq!(first, [0, 8, 1000, 1008, 2000, 2008]);
    }

    #[test]
    fn drained_writes_meet_an_idle_stack() {
        // No ack and no write-back — the stack's pending work — spans a
        // submission under `Drained`; under `Acked` write-backs do.
        let straddled = |pace: Pace| {
            let (mut built, submits, rec) = tiny(StackBuilder::trail_default, 1, FaultPlan::new());
            let driven = built.drive(vec![writes(0, 0, 12)], pace);
            assert_eq!(driven.latency.count(), 12);
            let work = [spans(&rec, Layer::Core), spans(&rec, Layer::BlockIo)].concat();
            let submits = submits.0.borrow();
            (submits.iter())
                .filter(|&&(t, _, _)| work.iter().any(|&(s, e)| s < t && t < e))
                .count()
        };
        for gap in [SimDuration::ZERO, SimDuration::from_millis(1)] {
            assert_eq!(straddled(Pace::Drained { gap }), 0, "gap {gap}");
        }
        let clustered = Pace::Acked {
            group: 1,
            gap: SimDuration::ZERO,
        };
        assert!(straddled(clustered) > 0);
    }

    #[test]
    fn a_failed_delivery_ends_its_writer_only() {
        let paces = [
            Pace::Acked {
                group: 1,
                gap: SimDuration::ZERO,
            },
            Pace::Drained {
                gap: SimDuration::ZERO,
            },
        ];
        for pace in paces {
            let plan: FaultPlan = "@1 data0 fail".parse().expect("plan");
            let (mut built, submits, _) = tiny(StackBuilder::standard, 2, plan);
            let driven = built.drive(vec![writes(0, 0, 4), writes(1, 0, 4)], pace);
            assert_eq!((driven.failed, driven.latency.count()), (1, 4), "{pace:?}");
            let on_dev0 = submits.0.borrow().iter().filter(|s| s.1 == 0).count();
            assert_eq!(on_dev0, 1, "{pace:?}");
        }
    }
}
