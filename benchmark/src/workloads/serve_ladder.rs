//! `serve_ladder` — the full vertical, and the only workload that reaches
//! `serve` and `volume`: 64 sessions → `Server` (8 worker slots, a bounded
//! admission queue of 64) → `StorageService` → Trail → two RAID-5×3 volumes.
//!
//! The client is the benchmark's own and open-loop: requests fall due as
//! one Poisson process at the offered rate, each on a session drawn at
//! random, and are submitted on schedule whether or not earlier ones were
//! answered. Four fixed offered rates run one after the other, each on a
//! fresh stack.
//! Latency is timed from the instant a request falls due. The generator
//! lives on the simulator's clock, so it is never late: due and submission
//! instants coincide, and the lateness a wall-clock generator would have to
//! report is zero by construction.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::Rng;
use trail::{BuiltStack, StackBuilder};
use trail_db::StorageService;
use trail_disk::SECTOR_SIZE;
use trail_serve::{
    AdmissionPolicy, Request, Response, Server, ServerConfig, SessionHandle, Status,
};
use trail_sim::{Delivered, SimDuration, SimTime, Simulator};
use trail_telemetry::{MemoryRecorder, RecorderHandle, StreamId};
use trail_volume::VolumeLayout;

use crate::layers;
use crate::report::{measure, put, ratio, Ctx, Metrics, Outcome};
use crate::stats::{fingerprint, sub_seed, Samples, Tail};

const SESSIONS: usize = 64;
const WORKER_SLOTS: usize = 8;
const MAX_QUEUE: usize = 64;
const DEVICES: usize = 2;
const RAID_MEMBERS: usize = 3;
const RAID_CHUNK_SECTORS: u32 = 8;
/// The fixed offered rates r1…r4, in requests per virtual second.
const RATES: [f64; 4] = [60.0, 120.0, 240.0, 480.0];
/// The rung whose latency is the workload's `sim_lat_*`.
const REPORT_RUNG: usize = 1;
/// Requests per rung at scale 1.0.
const REQUESTS_PER_RATE: usize = 40_000;
const READ_SHARE: f64 = 0.3;
const PAYLOAD_SECTORS: u32 = 2;
const COMMIT_EVERY: u64 = 16;
/// Zipf-like addressing: block `⌊u² · BLOCKS⌋` of the session's device — a
/// hot head that is overwritten and re-read while its write-back is pending.
const ZIPF_SKEW: f64 = 2.0;
const BLOCKS: u64 = 4_096;
/// The latency limit of `sim_max_rate_ok`, frozen by rule: twice the tail
/// measured at r1 on seed 1 (p99.9 = 34 556.604 µs at 40 000 requests),
/// rounded up to 10 ms. (`BENCHMARK.json` has no key to hold it.)
const LIMIT_US: f64 = 70_000.0;
/// A rung passes only if at most this share was refused, shed or cancelled.
const MAX_REFUSED_SHARE: f64 = 0.01;
/// … and if, over the last tenth of its arrivals, the admission queue held
/// at most this many requests on average: the backlog has drained.
const MAX_LATE_BACKLOG: f64 = 1.0;

/// Host nanoseconds spent inside the client's own codec calls.
#[derive(Default)]
struct WireProbe {
    encode_ns: u64,
    encodes: u64,
    decode_ns: u64,
    decodes: u64,
}

struct RungRun {
    server: Server,
    rng: SmallRng,
    remaining: usize,
    /// Puts served so far, per session (the Commit cadence).
    served_puts: Vec<u64>,
    mean_gap_ns: f64,
    lat: Samples,
    issued: u64,
    served: u64,
    rejected: u64,
    shed: u64,
    cancelled: u64,
    wrong_bytes: u64,
    other: u64,
    wire_bytes: u64,
    first_due: Option<SimTime>,
    last_reply: SimTime,
    /// Admission-queue depth seen by each arrival, in arrival order.
    backlog: Vec<u32>,
    probe: WireProbe,
}

/// What one rung of the ladder measured.
struct Rung {
    rate: f64,
    issued: u64,
    refused: u64,
    wrong_bytes: u64,
    tail: Tail,
    late_backlog: f64,
    goodput: f64,
    rejected: u64,
    lat: Samples,
}

impl Rung {
    /// The three conditions of `sim_max_rate_ok`.
    fn passes(&self, limit_us: f64) -> bool {
        self.tail.ns as f64 / 1e3 <= limit_us
            && ratio(self.refused as f64, self.issued as f64) <= MAX_REFUSED_SHARE
            && self.late_backlog <= MAX_LATE_BACKLOG
    }
}

/// The highest offered rate whose rung passes, or 0 if none does.
fn max_rate_ok(rungs: &[Rung], limit_us: f64) -> f64 {
    rungs
        .iter()
        .filter(|r| r.passes(limit_us))
        .map(|r| r.rate)
        .fold(0.0, f64::max)
}

/// A sector of a Put: its own `(dev, lba)` in the first ten bytes, then a
/// fill that is never zero.
fn tagged_payload(dev: u16, lba: u64, fill: u8) -> Vec<u8> {
    let mut data = vec![fill | 1; PAYLOAD_SECTORS as usize * SECTOR_SIZE];
    for (i, sector) in data.chunks_exact_mut(SECTOR_SIZE).enumerate() {
        sector[..2].copy_from_slice(&dev.to_le_bytes());
        sector[2..10].copy_from_slice(&(lba + i as u64).to_le_bytes());
    }
    data
}

/// A Get's payload is right if every sector is either untouched (all
/// zeros) or carries its own `(dev, lba)` tag.
fn payload_ok(dev: u16, lba: u64, payload: &[u8]) -> bool {
    payload.len() == PAYLOAD_SECTORS as usize * SECTOR_SIZE
        && payload
            .chunks_exact(SECTOR_SIZE)
            .enumerate()
            .all(|(i, sector)| {
                sector.iter().all(|&b| b == 0)
                    || (sector[..2] == dev.to_le_bytes()
                        && sector[2..10] == (lba + i as u64).to_le_bytes())
            })
}

fn exp_gap(rng: &mut SmallRng, mean_ns: f64) -> SimDuration {
    let u: f64 = rng.gen();
    SimDuration::from_nanos((mean_ns * -(1.0 - u).ln()) as u64)
}

fn encode(run: &Rc<RefCell<RungRun>>, req: &Request) -> Vec<u8> {
    let mut r = run.borrow_mut();
    let t = Instant::now();
    let frame = req.encode();
    r.probe.encode_ns += t.elapsed().as_nanos() as u64;
    r.probe.encodes += 1;
    r.wire_bytes += frame.len() as u64;
    frame
}

fn decode(run: &Rc<RefCell<RungRun>>, bytes: &[u8]) -> Option<Response> {
    let mut r = run.borrow_mut();
    r.wire_bytes += bytes.len() as u64;
    let t = Instant::now();
    let resp = Response::decode(bytes);
    r.probe.decode_ns += t.elapsed().as_nanos() as u64;
    r.probe.decodes += 1;
    resp.ok().map(|(resp, _)| resp)
}

/// The next request falls due now: submit it on a random session and
/// schedule the one after, whatever becomes of this one.
fn arrive(sim: &mut Simulator, run: &Rc<RefCell<RungRun>>, handles: &Rc<Vec<SessionHandle>>) {
    let due = sim.now();
    let (req, s, dev, lba, is_get, gap, more) = {
        let mut r = run.borrow_mut();
        let depth = r.server.queue_depth() as u32;
        r.backlog.push(depth);
        r.issued += 1;
        r.first_due.get_or_insert(due);
        let seq = r.issued;
        let mean_gap_ns = r.mean_gap_ns;
        r.remaining -= 1;
        let s = r.rng.gen_range(0..SESSIONS);
        let u: f64 = r.rng.gen();
        let block = ((u.powf(ZIPF_SKEW) * BLOCKS as f64) as u64).min(BLOCKS - 1);
        let lba = block * u64::from(PAYLOAD_SECTORS);
        let is_get = r.rng.gen::<f64>() < READ_SHARE;
        let dev = (s % DEVICES) as u16;
        let req = if is_get {
            Request::Get {
                dev,
                lba,
                sectors: PAYLOAD_SECTORS,
            }
        } else {
            Request::Put {
                dev,
                lba,
                data: tagged_payload(dev, lba, seq as u8),
            }
        };
        let gap = exp_gap(&mut r.rng, mean_gap_ns);
        (req, s, dev, lba, is_get, gap, r.remaining > 0)
    };
    let frame = encode(run, &req);
    let on_reply = Rc::clone(run);
    let reply_handles = Rc::clone(handles);
    let reply = sim.completion(move |sim: &mut Simulator, d: Delivered<Vec<u8>>| {
        let now = sim.now();
        let resp = match &d {
            Ok(bytes) => decode(&on_reply, bytes),
            Err(_) => None,
        };
        let mut r = on_reply.borrow_mut();
        r.last_reply = r.last_reply.max(now);
        let commit_due = match (d.is_ok(), resp) {
            (false, _) => {
                r.cancelled += 1;
                false
            }
            (true, Some(resp)) => match resp.status() {
                Status::Ok => {
                    let right = match &resp {
                        Response::Data { payload, .. } => payload_ok(dev, lba, payload),
                        _ => !is_get,
                    };
                    if right {
                        r.served += 1;
                        r.lat.push((now - due).as_nanos());
                    } else {
                        r.wrong_bytes += 1;
                    }
                    if is_get {
                        false
                    } else {
                        r.served_puts[s] += 1;
                        r.served_puts[s].is_multiple_of(COMMIT_EVERY)
                    }
                }
                Status::Rejected => {
                    r.rejected += 1;
                    false
                }
                Status::Shed => {
                    r.shed += 1;
                    false
                }
                _ => {
                    r.other += 1;
                    false
                }
            },
            (true, None) => {
                r.other += 1;
                false
            }
        };
        drop(r);
        if commit_due {
            let frame = encode(&on_reply, &Request::Commit);
            let on_commit = Rc::clone(&on_reply);
            let reply = sim.completion(move |sim: &mut Simulator, d: Delivered<Vec<u8>>| {
                // Fire and forget: the reply is decoded and byte-counted
                // like any other, its status is not awaited.
                if let Ok(bytes) = d {
                    decode(&on_commit, &bytes);
                }
                let mut r = on_commit.borrow_mut();
                r.last_reply = r.last_reply.max(sim.now());
            });
            reply_handles[s].submit(sim, &frame, reply);
        }
    });
    handles[s].submit(sim, &frame, reply);
    if more {
        let run = Rc::clone(run);
        let handles = Rc::clone(handles);
        sim.schedule_in(gap, move |sim| arrive(sim, &run, &handles));
    }
}

/// One freshly booted serving stack.
struct Rig {
    built: BuiltStack,
    server: Server,
}

fn build_rig(seed: u64) -> Rig {
    let built = StackBuilder::new()
        .seed(seed)
        .data_disks(DEVICES)
        .trail_default()
        .volumes(
            VolumeLayout::Raid5 {
                chunk_sectors: RAID_CHUNK_SECTORS,
            },
            RAID_MEMBERS,
        )
        .build()
        .expect("serving stack boots");
    let capacity = built
        .volumes
        .iter()
        .map(trail_volume::RaidVolume::capacity_sectors)
        .collect();
    let service = StorageService::new(Rc::clone(&built.stack), capacity);
    let server = Server::new(
        service,
        ServerConfig {
            worker_slots: WORKER_SLOTS,
            admission: AdmissionPolicy::BoundedQueue {
                max_queue: MAX_QUEUE,
            },
        },
    );
    Rig { built, server }
}

/// Offers `requests` at `rate` to `rig` and runs it dry.
fn run_rung(rig: &mut Rig, seed: u64, rung: usize, rate: f64, requests: usize) -> RungRun {
    let sim = &mut rig.built.sim;
    let handles: Rc<Vec<SessionHandle>> = Rc::new(
        (0..SESSIONS)
            .map(|s| rig.server.open(StreamId(s as u32 + 1)).0)
            .collect(),
    );
    let run = Rc::new(RefCell::new(RungRun {
        server: rig.server.clone(),
        rng: trail_sim::rng(sub_seed(seed, rung as u64)),
        remaining: requests,
        served_puts: vec![0; SESSIONS],
        mean_gap_ns: 1e9 / rate,
        lat: Samples::with_capacity(requests),
        issued: 0,
        served: 0,
        rejected: 0,
        shed: 0,
        cancelled: 0,
        wrong_bytes: 0,
        other: 0,
        wire_bytes: 0,
        first_due: None,
        last_reply: SimTime::ZERO,
        backlog: Vec::with_capacity(requests),
        probe: WireProbe::default(),
    }));
    {
        let run = Rc::clone(&run);
        let handles = Rc::clone(&handles);
        sim.schedule_now(move |sim| arrive(sim, &run, &handles));
    }
    sim.run();
    // Every closure holding the run has fired by now; the handles go last,
    // so no request is cancelled by a dropped session.
    drop(handles);
    Rc::try_unwrap(run)
        .unwrap_or_else(|_| panic!("a request is still outstanding after the run"))
        .into_inner()
}

fn summarize(rate: f64, run: RungRun) -> Rung {
    let tail = run.lat.sorted().tail();
    let late = &run.backlog[run.backlog.len() - run.backlog.len() / 10..];
    let span = run.last_reply - run.first_due.unwrap_or(SimTime::ZERO);
    Rung {
        rate,
        issued: run.issued,
        refused: run.rejected + run.shed + run.cancelled + run.other,
        wrong_bytes: run.wrong_bytes,
        tail,
        late_backlog: ratio(late.iter().map(|&d| f64::from(d)).sum(), late.len() as f64),
        goodput: ratio(run.served as f64, span.as_secs_f64()),
        rejected: run.rejected,
        lat: run.lat,
    }
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let requests = ctx.sized(REQUESTS_PER_RATE, SESSIONS);
    let seed = ctx.seed;
    let mut out = Outcome::default();

    // Every rung boots a fresh stack, so no rung inherits another's backlog
    // or pinned blocks. The first boot is set-up; the later ones are part
    // of the ladder, and each stack is dropped when its rung is done.
    let (first, build_s) = ctx.spans.timed("stack.build", |_| build_rig(seed));
    layers::stack(&mut out.layers, build_s, first.built.sim.now());
    let main_recorder = ctx.recorder_handle();

    out.setup_s = ctx.setup_s();
    let mut first = Some(first);
    let mut probe = WireProbe::default();
    let mut server_stats = Vec::new();
    let mut wire_bytes = 0u64;
    let mut cancelled = 0u64;
    let mut below = Metrics::new();
    let (rungs, phase) = measure(&mut ctx.spans, "serve.ladder", |spans| {
        let mut rungs = Vec::new();
        for (i, &rate) in RATES.iter().enumerate() {
            let mut rig = match first.take() {
                Some(rig) => rig,
                None => spans.scope("stack.build", |_| build_rig(seed)),
            };
            if let Some(main) = &main_recorder {
                // The report rung feeds the trace; the others record into
                // a throwaway, so the traced pass pays the recorder on
                // every request without holding every event.
                let recorder: RecorderHandle = if i == REPORT_RUNG {
                    Rc::clone(main)
                } else {
                    MemoryRecorder::shared()
                };
                rig.built.stack.set_recorder(recorder);
            }
            let run = spans.scope(&format!("serve.rate.r{}", i + 1), |_| {
                run_rung(&mut rig, seed, i, rate, requests)
            });
            probe.encode_ns += run.probe.encode_ns;
            probe.encodes += run.probe.encodes;
            probe.decode_ns += run.probe.decode_ns;
            probe.decodes += run.probe.decodes;
            wire_bytes += run.wire_bytes;
            cancelled += rig.built.sim.completions().cancelled_count();
            server_stats.push(rig.server.stats());
            if i == REPORT_RUNG {
                // Everything below the server is reported for this rung.
                let built = &rig.built;
                volume(&mut below, built);
                let elapsed = built.sim.now() - SimTime::ZERO;
                layers::disk(&mut below, &built.log_disks, &built.data_disks, elapsed);
                if let Some(trail) = &built.trail {
                    layers::core(&mut below, trail);
                }
            }
            rungs.push(summarize(rate, run));
        }
        rungs
    });
    out.run = phase;

    // Failures count on the rungs the stack is meant to carry; refusals
    // above the knee are the admission policy working, and are reported
    // per layer instead.
    out.ops = rungs.iter().map(|r| r.issued).sum();
    out.traced_ops = rungs[REPORT_RUNG].issued;
    for r in &rungs[..=REPORT_RUNG] {
        out.attempted += r.issued;
        out.failed += r.refused + r.wrong_bytes;
    }
    for (i, r) in rungs.iter().enumerate() {
        if r.wrong_bytes != 0 {
            out.violations.push(format!(
                "serve_ladder: {} Gets at r{} returned sectors without their own (dev, lba) tag",
                r.wrong_bytes,
                i + 1
            ));
        }
        if r.issued != requests as u64 {
            out.violations.push(format!(
                "serve_ladder: r{} issued {} of {requests} requests",
                i + 1,
                r.issued
            ));
        }
    }
    let report = &rungs[REPORT_RUNG];
    out.put_latency(
        &report.lat,
        &format!("requests at r{} ({} req/s)", REPORT_RUNG + 1, report.rate),
    );
    put(&mut out.sim, "sim_ops_per_s", report.goodput);
    put(
        &mut out.sim,
        "sim_max_rate_ok",
        max_rate_ok(&rungs, LIMIT_US),
    );
    out.notes.push((
        "sim_max_rate_ok".to_string(),
        format!(
            "limit {LIMIT_US} us on the tail, <= {MAX_REFUSED_SHARE} refused, late backlog <= {MAX_LATE_BACKLOG}; \
             late backlog per rung {:?}",
            rungs.iter().map(|r| r.late_backlog).collect::<Vec<_>>()
        ),
    ));
    out.sim_fingerprint = fingerprint(rungs.iter().map(|r| r.lat.fingerprint()));

    let l = &mut out.layers;
    for (i, r) in rungs.iter().enumerate() {
        put(
            l,
            &format!("serve.tail_us.r{}", i + 1),
            r.tail.ns as f64 / 1e3,
        );
        put(l, &format!("serve.goodput.r{}", i + 1), r.goodput);
    }
    for i in [2, 3] {
        put(
            l,
            &format!("serve.rejected_share.r{}", i + 1),
            ratio(rungs[i].rejected as f64, rungs[i].issued as f64),
        );
    }
    put(
        l,
        "serve.max_queue_depth",
        server_stats
            .iter()
            .map(|s| s.max_queue_depth)
            .max()
            .unwrap_or(0) as f64,
    );
    put(
        l,
        "serve.bad_frames",
        server_stats.iter().map(|s| s.bad_frames).sum::<u64>() as f64,
    );
    put(
        l,
        "serve.wire_bytes_per_req",
        ratio(wire_bytes as f64, out.ops as f64),
    );
    put(
        l,
        "serve.probe.encode_ns_per_frame",
        ratio(probe.encode_ns as f64, probe.encodes as f64),
    );
    put(
        l,
        "serve.probe.decode_ns_per_frame",
        ratio(probe.decode_ns as f64, probe.decodes as f64),
    );
    l.extend(below);
    put(l, "sim.completions_cancelled", cancelled as f64);
    out
}

/// The `volume.*` metrics, summed over the stack's volumes.
fn volume(out: &mut Metrics, built: &BuiltStack) {
    let (mut member_ios, mut reads, mut writes) = (0.0, 0.0, 0.0);
    let (mut rmw, mut full, mut retried) = (0.0, 0.0, 0.0);
    let (mut write_ns, mut write_n, mut read_ns, mut read_n) = (0.0, 0.0, 0.0, 0.0);
    for v in &built.volumes {
        v.with_stats(|s| {
            for m in &s.members {
                member_ios += (m.read_latency.count() + m.write_latency.count()) as f64;
            }
            reads += s.logical_reads as f64;
            writes += s.logical_writes as f64;
            rmw += s.rmw_cycles as f64;
            full += s.full_stripe_writes as f64;
            retried += s.retried_ops as f64;
            write_ns += s.write_latency.total().as_nanos() as f64;
            write_n += s.write_latency.count() as f64;
            read_ns += s.read_latency.total().as_nanos() as f64;
            read_n += s.read_latency.count() as f64;
        });
    }
    // A healthy logical read of one block is one member read here (blocks
    // never straddle a chunk), so the rest of the member I/O is the writes'.
    put(
        out,
        "volume.member_ios_per_logical_write",
        ratio(member_ios - reads, writes),
    );
    put(out, "volume.rmw_share", ratio(rmw, writes));
    put(out, "volume.full_stripe_share", ratio(full, writes));
    put(out, "volume.write_mean_ms", ratio(write_ns, write_n) / 1e6);
    put(out, "volume.read_mean_ms", ratio(read_ns, read_n) / 1e6);
    put(out, "volume.retried_ops", retried);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(rate: f64, tail_us: f64, refused: u64, late_backlog: f64) -> Rung {
        Rung {
            rate,
            issued: 1_000,
            refused,
            wrong_bytes: 0,
            tail: Tail {
                per_10k: 9_900,
                ns: (tail_us * 1e3) as u64,
                beyond: 10,
            },
            late_backlog,
            goodput: rate,
            rejected: refused,
            lat: Samples::default(),
        }
    }

    #[test]
    fn ladder_rule_needs_all_three_conditions() {
        let limit = 100_000.0;
        let ladder = [
            rung(60.0, 40_000.0, 0, 0.0),
            rung(120.0, 90_000.0, 10, 0.9), // 1 % refused: still passes
            rung(240.0, 90_000.0, 11, 0.0), // 1.1 % refused
            rung(480.0, 100_001.0, 0, 0.0), // tail over the limit
        ];
        assert_eq!(max_rate_ok(&ladder, limit), 120.0);
        // A backlog that has not drained fails a rung by itself.
        let ladder = [rung(60.0, 1.0, 0, 0.0), rung(120.0, 1.0, 0, 1.5)];
        assert_eq!(max_rate_ok(&ladder, limit), 60.0);
        // The limit is inclusive; no passing rung reads 0.
        assert_eq!(max_rate_ok(&[rung(60.0, 100_000.0, 0, 0.0)], limit), 60.0);
        assert_eq!(max_rate_ok(&[rung(60.0, 100_000.5, 0, 0.0)], limit), 0.0);
    }

    #[test]
    fn sectors_carry_their_own_address() {
        let data = tagged_payload(1, 4_094, 0);
        assert!(payload_ok(1, 4_094, &data));
        assert!(!payload_ok(0, 4_094, &data), "wrong device");
        assert!(!payload_ok(1, 4_095, &data), "wrong address");
        assert!(
            payload_ok(1, 7, &vec![0; data.len()]),
            "unwritten reads zero"
        );
        assert!(!payload_ok(1, 4_094, &data[..SECTOR_SIZE]), "short payload");
        let mut torn = data.clone();
        torn[SECTOR_SIZE + 2] ^= 1; // second sector claims another lba
        assert!(!payload_ok(1, 4_094, &torn));
    }
}
