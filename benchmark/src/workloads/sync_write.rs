//! `sync_write` — the paper's §5.1 case, where `core` does most of the work.
//!
//! The paper's testbed (one log disk, three data disks); four closed-loop
//! writers issue synchronous writes of 1/2/4/8 KB at uniform random
//! addresses through `TrailDriver::write`, thinking an exponential 2 ms
//! between a write's acknowledgement and the next submission. The head of
//! the same stream then runs on the standard stack for the speed-up.
//! `db`, `serve`, `trace` and `volume` do nothing here.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use rand::rngs::SmallRng;
use rand::Rng;
use trail::blockio::IoDone;
use trail::StackBuilder;
use trail_core::TrailError;
use trail_disk::{Disk, SECTOR_SIZE};
use trail_sim::{Completion, Delivered, SimDuration, SimTime, Simulator};

use crate::layers;
use crate::report::{measure, put, Ctx, Outcome};
use crate::stats::{sub_seed, Samples};

const WRITERS: usize = 4;
const DATA_DISKS: usize = 3;
/// Total writes at scale 1.0, and how many of them the standard stack
/// repeats.
const WRITES: usize = 100_000;
const STANDARD_WRITES: usize = 16_000;
const THINK_MEAN_NS: f64 = 2_000_000.0;
/// Every Nth write is read back from the data disks after the run.
const VERIFY_EVERY: u64 = 16;

/// One write of the stream, as drawn from a writer's generator.
#[derive(Clone, Copy)]
struct WriteOp {
    dev: usize,
    lba: u64,
    sectors: usize,
    fill: u8,
    think: SimDuration,
}

struct Writer {
    rng: SmallRng,
    remaining: usize,
    drawn: usize,
}

impl Writer {
    /// Draws the next write. The draw order is fixed, so a writer's stream
    /// is the same on whichever stack it runs.
    fn next(&mut self, capacity: u64) -> WriteOp {
        let dev = self.rng.gen_range(0..DATA_DISKS);
        let sectors = 2usize << self.rng.gen_range(0..4u32); // 1, 2, 4, 8 KB
        let lba = self.rng.gen_range(0..capacity - sectors as u64);
        let fill = self.rng.gen::<u8>() | 1; // never the unwritten-sector zero
        let u: f64 = self.rng.gen();
        let think = SimDuration::from_nanos((THINK_MEAN_NS * -(1.0 - u).ln()) as u64);
        self.drawn += 1;
        WriteOp {
            dev,
            lba,
            sectors,
            fill,
            think,
        }
    }
}

type Submit =
    dyn Fn(&mut Simulator, usize, u64, Vec<u8>, Completion<IoDone>) -> Result<(), TrailError>;

struct Run {
    submit: Box<Submit>,
    capacity: u64,
    writers: Vec<Writer>,
    latencies: Samples,
    /// Latency sum and count over each writer's first `head` writes — the
    /// part of the stream the standard stack repeats.
    head: usize,
    head_ns: u128,
    head_n: u64,
    errors: u64,
    last_ack: SimTime,
    /// `(dev, lba, sectors, fill)` of every accepted write, in issue order.
    log: Vec<(usize, u64, usize, u8)>,
}

fn issue(sim: &mut Simulator, run: &Rc<RefCell<Run>>, w: usize) {
    let op = {
        let mut r = run.borrow_mut();
        if r.writers[w].remaining == 0 {
            return;
        }
        r.writers[w].remaining -= 1;
        let capacity = r.capacity;
        let op = r.writers[w].next(capacity);
        r.log.push((op.dev, op.lba, op.sectors, op.fill));
        (op, r.writers[w].drawn <= r.head)
    };
    let (op, in_head) = op;
    let again = Rc::clone(run);
    let done = sim.completion(move |sim: &mut Simulator, d: Delivered<IoDone>| {
        match d {
            Ok(io) => {
                let mut r = again.borrow_mut();
                let ns = io.latency().as_nanos();
                r.latencies.push(ns);
                if in_head {
                    r.head_ns += u128::from(ns);
                    r.head_n += 1;
                }
                r.last_ack = sim.now();
            }
            Err(_) => again.borrow_mut().errors += 1,
        }
        sim.schedule_in(op.think, move |sim| issue(sim, &again, w));
    });
    let data = vec![op.fill; op.sectors * SECTOR_SIZE];
    let accepted = (run.borrow().submit)(sim, op.dev, op.lba, data, done);
    if accepted.is_err() {
        // The stack cancels the token itself; the handler counts it.
        run.borrow_mut().log.pop();
    }
}

fn start(
    seed: u64,
    writes: usize,
    head: usize,
    capacity: u64,
    submit: Box<Submit>,
) -> Rc<RefCell<Run>> {
    let writers = (0..WRITERS)
        .map(|w| Writer {
            rng: trail_sim::rng(sub_seed(seed, w as u64)),
            remaining: writes / WRITERS,
            drawn: 0,
        })
        .collect();
    Rc::new(RefCell::new(Run {
        submit,
        capacity,
        writers,
        latencies: Samples::with_capacity(writes),
        head: head / WRITERS,
        head_ns: 0,
        head_n: 0,
        errors: 0,
        last_ack: SimTime::ZERO,
        log: Vec::with_capacity(writes),
    }))
}

/// Reads every [`VERIFY_EVERY`]th write back from the data disks. A sector
/// must hold a fill some write of the stream put there (concurrent writers
/// may overlap, and either order is a legal outcome). Returns the number
/// of sampled writes with a wrong sector.
fn verify(log: &[(usize, u64, usize, u8)], disks: &[Disk]) -> u64 {
    let mut legal: HashMap<(usize, u64), Vec<u8>> = HashMap::new();
    for (i, &(dev, lba, sectors, _)) in log.iter().enumerate() {
        if (i as u64).is_multiple_of(VERIFY_EVERY) {
            for s in 0..sectors as u64 {
                legal.entry((dev, lba + s)).or_default();
            }
        }
    }
    for &(dev, lba, sectors, fill) in log {
        for s in 0..sectors as u64 {
            if let Some(fills) = legal.get_mut(&(dev, lba + s)) {
                fills.push(fill);
            }
        }
    }
    let mut wrong = 0;
    for (i, &(dev, lba, sectors, _)) in log.iter().enumerate() {
        if !(i as u64).is_multiple_of(VERIFY_EVERY) {
            continue;
        }
        let bad = (0..sectors as u64).any(|s| {
            let sector = disks[dev].peek_sector(lba + s);
            let fills = &legal[&(dev, lba + s)];
            !fills.iter().any(|&f| sector.iter().all(|&b| b == f))
        });
        wrong += u64::from(bad);
    }
    wrong
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let writes = ctx.sized(WRITES, 4 * WRITERS) / WRITERS * WRITERS;
    let standard_writes = ctx.sized(STANDARD_WRITES, 4 * WRITERS).min(writes) / WRITERS * WRITERS;
    let seed = ctx.seed;
    let recorder = ctx.recorder_handle();
    let mut out = Outcome::default();

    let (built, build_s) = ctx.spans.timed("stack.build", |_| {
        StackBuilder::new()
            .seed(seed)
            .data_disks(DATA_DISKS)
            .trail_default()
            .build()
            .expect("Trail testbed boots")
    });
    layers::stack(&mut out.layers, build_s, built.sim.now());
    let mut sim = built.sim;
    let trail = built.trail.expect("Trail scenario has a driver");
    if let Some(r) = recorder {
        trail.set_recorder(r);
    }
    let capacity = built.data_disks[0].geometry().total_sectors();
    let driver = trail.clone();
    let run = start(
        seed,
        writes,
        standard_writes,
        capacity,
        Box::new(move |sim, dev, lba, data, done| driver.write(sim, dev, lba, data, done)),
    );

    let started = sim.now();
    out.setup_s = ctx.setup_s();
    let ((), phase) = measure(&mut ctx.spans, "core.sync_writes", |_| {
        for w in 0..WRITERS {
            issue(&mut sim, &run, w);
        }
        sim.run();
        trail.run_until_quiescent(&mut sim);
    });
    out.run = phase;
    let drained = sim.now();

    let r = run.borrow();
    let delivered = r.latencies.len() as u64;
    out.attempted = writes as u64;
    out.ops = out.attempted;
    let wrong = ctx
        .spans
        .scope("check.read_back", |_| verify(&r.log, &built.data_disks));
    out.failed = (out.attempted - delivered) + wrong;
    if delivered != out.attempted {
        out.violations.push(format!(
            "sync_write: {} of {} writes were not acknowledged ({} cancelled)",
            out.attempted - delivered,
            out.attempted,
            r.errors
        ));
    }
    if wrong != 0 {
        out.violations.push(format!(
            "sync_write: {wrong} sampled writes did not read back from the data disks"
        ));
    }
    out.sim_fingerprint = r.latencies.fingerprint();
    out.put_latency(&r.latencies, "writes");
    put(
        &mut out.sim,
        "sim_ops_per_s",
        delivered as f64 / (r.last_ack - started).as_secs_f64(),
    );
    layers::disk(
        &mut out.layers,
        &built.log_disks,
        &built.data_disks,
        drained - started,
    );
    layers::core(&mut out.layers, &trail);
    put(
        &mut out.layers,
        "sim.completions_cancelled",
        sim.completions().cancelled_count() as f64,
    );
    drop(r);

    // The head of the same stream on the standard stack.
    let standard = ctx.spans.scope("core.standard_baseline", |spans| {
        let built = spans.scope("stack.build", |_| {
            StackBuilder::new()
                .seed(seed)
                .data_disks(DATA_DISKS)
                .standard()
                .build()
                .expect("standard testbed boots")
        });
        let mut sim = built.sim;
        let stack = Rc::clone(&built.stack);
        let run = start(
            seed,
            standard_writes,
            standard_writes,
            capacity,
            Box::new(move |sim, dev, lba, data, done| stack.write(sim, dev, lba, data, done)),
        );
        for w in 0..WRITERS {
            issue(&mut sim, &run, w);
        }
        sim.run();
        let r = run.borrow();
        (
            r.latencies.mean_us(),
            r.latencies.len(),
            r.latencies.fingerprint(),
        )
    });
    if standard.1 != standard_writes {
        out.violations.push(format!(
            "sync_write: standard baseline acknowledged {} of {standard_writes} writes",
            standard.1
        ));
    }
    // Same writes on both stacks: the Trail mean is taken over the head too.
    let r = run.borrow();
    let head_mean_us = r.head_ns as f64 / r.head_n.max(1) as f64 / 1e3;
    put(
        &mut out.sim,
        "sim_speedup_vs_standard",
        standard.0 / head_mean_us,
    );
    out.sim_fingerprint ^= standard.2.rotate_left(1);
    drop(r);
    out
}
