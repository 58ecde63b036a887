//! Property tests of the block layer: under arbitrary workloads, every
//! request completes exactly once, reads return the last write, and the
//! elevator never loses to arrival-order service on total seek distance by
//! more than noise.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use proptest::prelude::*;
use trail_blockio::{
    Clook, IoDone, IoKind, IoRequest, Priority, QueuedIo, StandardDriver, StreamId,
};
use trail_disk::{profiles, Disk, DiskGeometry, HeadPosition, SECTOR_SIZE};
use trail_sim::{SimDuration, Simulator};

/// One generated request: arrival offset, target, read/write, tag.
#[derive(Clone, Debug)]
struct GenReq {
    at_us: u64,
    lba: u64,
    is_read: bool,
    tag: u8,
}

fn arb_workload() -> impl Strategy<Value = Vec<GenReq>> {
    proptest::collection::vec((0u64..60_000, 0u64..4_000, any::<bool>(), 1u8..255), 1..60).prop_map(
        |v| {
            v.into_iter()
                .map(|(at_us, lba, is_read, tag)| GenReq {
                    at_us,
                    lba,
                    is_read,
                    tag,
                })
                .collect()
        },
    )
}

fn run_workload(reqs: &[GenReq], priority: Priority) -> (u64, HashMap<u64, u8>, f64) {
    let mut sim = Simulator::new();
    let disk = Disk::new("t", profiles::tiny_test_disk());
    let driver = StandardDriver::with_priority(disk.clone(), priority);
    let completions = Rc::new(RefCell::new(0u64));
    // Model of the medium: last write to each lba, in *completion* order.
    let final_writes: Rc<RefCell<HashMap<u64, u8>>> = Rc::new(RefCell::new(HashMap::new()));
    for r in reqs {
        let r = r.clone();
        let driver = driver.clone();
        let completions = Rc::clone(&completions);
        let final_writes = Rc::clone(&final_writes);
        sim.schedule_in(SimDuration::from_micros(r.at_us), move |sim| {
            let kind = if r.is_read {
                IoKind::Read { count: 1 }
            } else {
                IoKind::Write {
                    data: vec![r.tag; SECTOR_SIZE].into(),
                }
            };
            let c2 = Rc::clone(&completions);
            let fw = Rc::clone(&final_writes);
            let lba = r.lba;
            let tag = r.tag;
            let is_read = r.is_read;
            let done = sim.completion(move |_, d| {
                let done: IoDone = d.expect("delivered");
                *c2.borrow_mut() += 1;
                if is_read {
                    // A read must observe the tag of the last
                    // *completed* write to this lba (or zero).
                    let expect = fw.borrow().get(&lba).copied().unwrap_or(0);
                    assert_eq!(
                        done.data.expect("read data").sector(0)[0],
                        expect,
                        "read at lba {lba} saw stale data"
                    );
                } else {
                    fw.borrow_mut().insert(lba, tag);
                }
            });
            driver
                .submit(
                    sim,
                    IoRequest {
                        lba,
                        kind,
                        stream: StreamId::UNTAGGED,
                    },
                    done,
                )
                .expect("valid request");
        });
    }
    sim.run();
    let total_seek = disk.with_stats(|s| s.total_seek.as_millis_f64());
    let done = *completions.borrow();
    let writes = final_writes.borrow().clone();
    (done, writes, total_seek)
}

/// Total seek time (ms) when the requests are served in arrival
/// order: each goes in only after the one before it completes (queue
/// depth 1), so the elevator never has a choice.
fn arrival_order_seek(reqs: &[GenReq]) -> f64 {
    let mut sim = Simulator::new();
    let disk = Disk::new("t", profiles::tiny_test_disk());
    let driver = StandardDriver::new(disk.clone());
    let mut arrivals: Vec<&GenReq> = reqs.iter().collect();
    // Stable, as the simulator breaks ties between equal instants.
    arrivals.sort_by_key(|r| r.at_us);
    for r in arrivals {
        let req = if r.is_read {
            IoRequest::read(r.lba, 1)
        } else {
            IoRequest::write(r.lba, vec![r.tag; SECTOR_SIZE])
        };
        sim.block_on(|sim, done| driver.submit(sim, req, done))
            .expect("valid request")
            .expect("delivered");
    }
    disk.with_stats(|s| s.total_seek.as_millis_f64())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every request completes exactly once; reads are consistent with
    /// completed writes; the medium ends at the last completed write.
    #[test]
    fn all_requests_complete_and_reads_are_fresh(reqs in arb_workload()) {
        for prio in [Priority::None, Priority::ReadsFirst] {
            let (done, _, _) = run_workload(&reqs, prio);
            prop_assert_eq!(done, reqs.len() as u64);
        }
    }

    /// C-LOOK's total arm movement never exceeds arrival-order (FIFO)
    /// service's by more than a modest factor (it exists to reduce it).
    /// The slack absorbs adversarial arrival orders — a stream that
    /// happens to arrive nearly sorted makes FIFO close to optimal while
    /// C-LOOK pays one extra wrap per sweep — without letting a
    /// pathological scheduler regression (multiples of FIFO's movement)
    /// slip through.
    #[test]
    fn clook_does_not_explode_seek_distance(reqs in arb_workload()) {
        let fifo_seek = arrival_order_seek(&reqs);
        let (_, _, clook_seek) = run_workload(&reqs, Priority::None);
        prop_assert!(
            clook_seek <= fifo_seek * 1.5 + 5.0,
            "C-LOOK seek {clook_seek} ms vs FIFO {fifo_seek} ms"
        );
    }

    /// C-LOOK must not starve a far-edge request under a sustained
    /// hot-cylinder write stream — the classic elevator-starvation
    /// scenario. Once the far request is queued, the ascending sweep
    /// leaves the hot band and services it within (roughly) one sweep,
    /// so the number of hot completions between its submission and its
    /// completion is bounded by the backlog at submission plus one
    /// sweep's worth of new arrivals — never the whole remaining stream.
    #[test]
    fn clook_far_edge_request_is_not_starved(
        hot_count in 150usize..300,
        gap_us in 150u64..400,
        far_after in 20usize..60,
    ) {
        let mut sim = Simulator::new();
        let disk = Disk::new("t", profiles::tiny_test_disk());
        let driver = StandardDriver::new(disk.clone());
        let hot_done = Rc::new(RefCell::new(0usize));
        let far_done_after: Rc<RefCell<Option<usize>>> = Rc::new(RefCell::new(None));
        for i in 0..hot_count {
            // The hot cylinder: a 32-LBA band at the low edge of the disk.
            let lba = (i % 32) as u64;
            let driver = driver.clone();
            let hot_done = Rc::clone(&hot_done);
            sim.schedule_in(
                SimDuration::from_micros(i as u64 * gap_us),
                move |sim| {
                    let hot_done = Rc::clone(&hot_done);
                    let done = sim.completion(move |_, d| {
                        d.expect("delivered");
                        *hot_done.borrow_mut() += 1;
                    });
                    driver
                        .submit(sim, IoRequest::write(lba, vec![1; SECTOR_SIZE]), done)
                        .expect("valid hot write");
                },
            );
        }
        {
            // One write at the far edge, submitted mid-stream.
            let driver = driver.clone();
            let hot_done = Rc::clone(&hot_done);
            let far_done_after = Rc::clone(&far_done_after);
            sim.schedule_in(
                SimDuration::from_micros(far_after as u64 * gap_us + 1),
                move |sim| {
                    let hot_done = Rc::clone(&hot_done);
                    let far_done_after = Rc::clone(&far_done_after);
                    let done = sim.completion(move |_, d| {
                        d.expect("delivered");
                        *far_done_after.borrow_mut() = Some(*hot_done.borrow());
                    });
                    driver
                        .submit(sim, IoRequest::write(3_999, vec![2; SECTOR_SIZE]), done)
                        .expect("valid far write");
                },
            );
        }
        sim.run();
        prop_assert_eq!(*hot_done.borrow(), hot_count);
        let done_after = far_done_after.borrow().expect("far request completed");
        prop_assert!(
            done_after <= far_after + 64,
            "far-edge request starved: {done_after} hot completions before it \
             (submitted after {far_after} arrivals, {hot_count} total)"
        );
    }
}

/// The pre-index linear-scan C-LOOK and priority filter, kept verbatim as
/// the reference the sorted-set elevator is proved order-equivalent
/// against.
mod reference {
    use super::*;

    /// Applies a priority policy, returning the indices (into `queue`) of
    /// the candidate requests, ordered by arrival.
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

    pub fn clook_pick(
        queue: &[QueuedIo],
        sweep_from: &mut u32,
        head: HeadPosition,
        g: &DiskGeometry,
    ) -> usize {
        let key = |q: &QueuedIo| {
            g.lba_to_chs(q.lba)
                .map(|chs| chs.cylinder)
                .unwrap_or(u32::MAX)
        };
        let from = (*sweep_from).max(head.cylinder);
        let nearest_from = |bound: u32| {
            queue
                .iter()
                .enumerate()
                .filter(|(_, q)| key(q) >= bound)
                .min_by_key(|(_, q)| (key(q), q.seq))
        };
        let (i, q) = nearest_from(from)
            .or_else(|| nearest_from(0))
            .expect("pick on empty queue");
        *sweep_from = key(q).saturating_add(1);
        i
    }
}

/// One step of the equivalence model: enqueue a request or dispatch one.
#[derive(Clone, Debug)]
enum SchedOp {
    Insert { lba: u64, is_read: bool },
    Pop { head_cyl: u32 },
}

fn arb_sched_ops() -> impl Strategy<Value = Vec<SchedOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..4_000, any::<bool>())
                .prop_map(|(lba, is_read)| SchedOp::Insert { lba, is_read }),
            (0u32..60).prop_map(|head_cyl| SchedOp::Pop { head_cyl }),
        ],
        1..120,
    )
}

/// Drives the sorted-set elevator and its linear-scan reference through
/// the same insert/pop interleaving (shallow depth, ≤ ~60 queued) and
/// asserts they dispatch the exact same request every time.
fn assert_order_equivalent(ops: &[SchedOp], priority: Priority) -> Result<(), TestCaseError> {
    let g = profiles::tiny_test_disk().geometry;
    let mut indexed = Clook::default();
    let mut sweep_from = 0u32;
    let mut model: Vec<QueuedIo> = Vec::new();
    let mut next_seq = 0u64;
    for op in ops {
        match *op {
            SchedOp::Insert { lba, is_read } => {
                let q = QueuedIo {
                    lba,
                    is_read,
                    seq: next_seq,
                };
                next_seq += 1;
                model.push(q);
                indexed.insert(q, &g);
            }
            SchedOp::Pop { head_cyl } => {
                if model.is_empty() {
                    continue;
                }
                let head = HeadPosition {
                    cylinder: head_cyl,
                    head: 0,
                };
                // Reference formulation: priority filter, then scan.
                let candidates = reference::apply_priority(&model, priority);
                let cand_views: Vec<QueuedIo> = candidates.iter().map(|&i| model[i]).collect();
                let pick = reference::clook_pick(&cand_views, &mut sweep_from, head, &g);
                let expected = cand_views[pick].seq;
                // Indexed formulation: filtered range queries.
                let reads_only = priority == Priority::ReadsFirst && indexed.queued_reads() > 0;
                let got = indexed.pop(head, reads_only).seq;
                prop_assert_eq!(got, expected);
                model.retain(|q| q.seq != expected);
            }
        }
    }
    prop_assert_eq!(indexed.len(), model.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sorted-set C-LOOK dispatches seq-for-seq identically to the
    /// original linear-scan C-LOOK, under both priority policies.
    #[test]
    fn indexed_clook_matches_linear_reference(ops in arb_sched_ops()) {
        for priority in [Priority::None, Priority::ReadsFirst] {
            assert_order_equivalent(&ops, priority)?;
        }
    }
}

#[test]
fn priority_restricts_to_reads_when_present() {
    let q = |lba, is_read, seq| QueuedIo { lba, is_read, seq };
    let queue = vec![q(1, false, 0), q(2, true, 1), q(3, true, 2)];
    let cands = reference::apply_priority(&queue, Priority::ReadsFirst);
    assert_eq!(cands, vec![1, 2]);
    assert!(cands.iter().all(|&i| queue[i].is_read));
    // With no reads queued, writes flow through.
    let wqueue = vec![q(1, false, 0), q(2, false, 1)];
    assert_eq!(
        reference::apply_priority(&wqueue, Priority::ReadsFirst).len(),
        2
    );
    // Priority::None keeps everything.
    assert_eq!(reference::apply_priority(&queue, Priority::None).len(), 3);
}
