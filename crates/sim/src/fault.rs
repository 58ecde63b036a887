//! The fault plane: declarative fault schedules and the clock that arms
//! them.
//!
//! Crash experiments used to reach for layer-specific hooks (cut this
//! disk's power here, fail that RAID member there). The fault plane
//! replaces those with one schedule type, [`FaultPlan`]: a deterministic,
//! serializable list of [`Fault`]s, each naming an instant (relative to
//! arming), a [`FaultTarget`] and a [`FaultKind`]. Layers that own
//! faultable hardware register a [`FaultSink`] on the stack's
//! [`FaultClock`]; arming the clock schedules one simulator event per
//! fault, and when the event fires every registered sink is offered the
//! fault in registration order.
//!
//! The plan is pure data — it can be built in code, round-tripped through
//! the compact text form ([`FaultPlan::encode`] / `FromStr`), stored in a
//! scenario config, or swept by a campaign driver. Determinism follows
//! from the simulator: the same plan armed at the same instant against the
//! same stack replays bit-for-bit.
//!
//! # Examples
//!
//! ```
//! use trail_sim::{Fault, FaultKind, FaultPlan, FaultTarget, SimDuration};
//!
//! let mut plan = FaultPlan::power_cut_at(SimDuration::from_millis(120));
//! plan.push(Fault {
//!     at: SimDuration::from_millis(40),
//!     target: FaultTarget::Member { volume: 0, member: 1 },
//!     kind: FaultKind::Fail,
//! });
//! let text = plan.encode();
//! assert_eq!(text, "@120000000 system cut; @40000000 vol0.m1 fail");
//! assert_eq!(text.parse::<FaultPlan>().unwrap(), plan);
//! ```

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::str::FromStr;

use crate::event::Simulator;
use crate::time::SimDuration;

/// What a fault is aimed at.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultTarget {
    /// Every device in the stack (whole-system faults, e.g. a machine
    /// power cut).
    System,
    /// Data disk `i`, in stack device order. In volume-backed stacks this
    /// addresses the flattened member-disk list.
    Data(usize),
    /// Log disk `i`, in instance order (`0` for single-log stacks).
    Log(usize),
    /// One member of one RAID volume — the layout-aware address, which
    /// also marks the volume degraded.
    Member {
        /// Volume index in stack order.
        volume: usize,
        /// Member index within the volume.
        member: usize,
    },
}

impl fmt::Display for FaultTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultTarget::System => write!(f, "system"),
            FaultTarget::Data(i) => write!(f, "data{i}"),
            FaultTarget::Log(i) => write!(f, "log{i}"),
            FaultTarget::Member { volume, member } => write!(f, "vol{volume}.m{member}"),
        }
    }
}

/// What happens when a fault fires.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Power loss: sectors whose media transfer already finished persist,
    /// the rest of any in-flight command is lost, and the device rejects
    /// commands until powered back on.
    PowerCut,
    /// Permanent whole-device failure: nothing of an in-flight command
    /// persists and the device never comes back.
    Fail,
    /// The next `count` commands submitted to the target are rejected
    /// with a transient I/O error (no mechanical side effects).
    TransientError {
        /// Number of commands to reject.
        count: u32,
    },
    /// The next `count` commands complete `extra` late — injected
    /// controller overhead at the front of each command.
    LatencySpike {
        /// Extra service time per affected command.
        extra: SimDuration,
        /// Number of commands to slow down.
        count: u32,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::PowerCut => write!(f, "cut"),
            FaultKind::Fail => write!(f, "fail"),
            FaultKind::TransientError { count } => write!(f, "err*{count}"),
            FaultKind::LatencySpike { extra, count } => {
                write!(f, "slow+{}*{count}", extra.as_nanos())
            }
        }
    }
}

/// One scheduled fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fault {
    /// When the fault fires, relative to [`FaultClock::arm`].
    pub at: SimDuration,
    /// What it is aimed at.
    pub target: FaultTarget,
    /// What happens.
    pub kind: FaultKind,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{} {} {}", self.at.as_nanos(), self.target, self.kind)
    }
}

/// The largest offset or latency-spike `extra` the text form accepts:
/// 2⁶² ns, about 146 years. Anything larger could not be armed without
/// overflowing virtual time, so [`FaultPlan`]'s `FromStr` rejects it.
pub const MAX_FAULT_NANOS: u64 = 1 << 62;

/// A deterministic, serializable schedule of faults.
///
/// The text form is `;`-separated faults, each
/// `@<offset_ns> <target> <kind>` with targets `system`, `data<i>`,
/// `log<i>`, `vol<v>.m<m>` and kinds `cut`, `fail`, `err*<count>`,
/// `slow+<extra_ns>*<count>`; offsets and `extra` are at most
/// [`MAX_FAULT_NANOS`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled faults. Faults armed for the same instant fire in
    /// this order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Appends a fault to the schedule.
    pub fn push(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    /// Builder-style [`push`](FaultPlan::push).
    pub fn with(mut self, fault: Fault) -> FaultPlan {
        self.push(fault);
        self
    }

    /// A whole-system power cut `after` the plan is armed.
    pub fn power_cut_at(after: SimDuration) -> FaultPlan {
        FaultPlan::new().with(Fault {
            at: after,
            target: FaultTarget::System,
            kind: FaultKind::PowerCut,
        })
    }

    /// A permanent failure of `member` of `volume`, `after` the plan is
    /// armed.
    pub fn member_fail(volume: usize, member: usize, after: SimDuration) -> FaultPlan {
        FaultPlan::new().with(Fault {
            at: after,
            target: FaultTarget::Member { volume, member },
            kind: FaultKind::Fail,
        })
    }

    /// Renders the plan in its compact text form (see the type docs for
    /// the grammar). `encode` and `FromStr` round-trip exactly.
    pub fn encode(&self) -> String {
        self.faults
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

/// Error parsing a [`FaultPlan`] from its text form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlanParseError(String);

impl fmt::Display for FaultPlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault plan: {}", self.0)
    }
}

impl std::error::Error for FaultPlanParseError {}

fn parse_target(s: &str) -> Result<FaultTarget, FaultPlanParseError> {
    let bad = || FaultPlanParseError(format!("bad target `{s}`"));
    if s == "system" {
        Ok(FaultTarget::System)
    } else if let Some(i) = s.strip_prefix("data") {
        Ok(FaultTarget::Data(i.parse().map_err(|_| bad())?))
    } else if let Some(i) = s.strip_prefix("log") {
        Ok(FaultTarget::Log(i.parse().map_err(|_| bad())?))
    } else if let Some(rest) = s.strip_prefix("vol") {
        let (v, m) = rest.split_once(".m").ok_or_else(bad)?;
        Ok(FaultTarget::Member {
            volume: v.parse().map_err(|_| bad())?,
            member: m.parse().map_err(|_| bad())?,
        })
    } else {
        Err(bad())
    }
}

/// Parses a nanosecond count of at most [`MAX_FAULT_NANOS`].
fn parse_nanos(s: &str) -> Option<SimDuration> {
    let ns = s.parse::<u64>().ok()?;
    (ns <= MAX_FAULT_NANOS).then(|| SimDuration::from_nanos(ns))
}

fn parse_kind(s: &str) -> Result<FaultKind, FaultPlanParseError> {
    let bad = || FaultPlanParseError(format!("bad kind `{s}`"));
    if s == "cut" {
        Ok(FaultKind::PowerCut)
    } else if s == "fail" {
        Ok(FaultKind::Fail)
    } else if let Some(count) = s.strip_prefix("err*") {
        Ok(FaultKind::TransientError {
            count: count.parse().map_err(|_| bad())?,
        })
    } else if let Some(rest) = s.strip_prefix("slow+") {
        let (extra, count) = rest.split_once('*').ok_or_else(bad)?;
        Ok(FaultKind::LatencySpike {
            extra: parse_nanos(extra).ok_or_else(bad)?,
            count: count.parse().map_err(|_| bad())?,
        })
    } else {
        Err(bad())
    }
}

impl FromStr for FaultPlan {
    type Err = FaultPlanParseError;

    fn from_str(s: &str) -> Result<FaultPlan, FaultPlanParseError> {
        let mut plan = FaultPlan::new();
        for item in s.split(';') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let mut parts = item.split_whitespace();
            let at = parts
                .next()
                .and_then(|p| p.strip_prefix('@'))
                .and_then(parse_nanos)
                .ok_or_else(|| FaultPlanParseError(format!("bad offset in `{item}`")))?;
            let target = parse_target(
                parts
                    .next()
                    .ok_or_else(|| FaultPlanParseError(format!("missing target in `{item}`")))?,
            )?;
            let kind = parse_kind(
                parts
                    .next()
                    .ok_or_else(|| FaultPlanParseError(format!("missing kind in `{item}`")))?,
            )?;
            if parts.next().is_some() {
                return Err(FaultPlanParseError(format!("trailing tokens in `{item}`")));
            }
            plan.push(Fault { at, target, kind });
        }
        Ok(plan)
    }
}

/// A layer that owns faultable hardware.
///
/// `apply` is called at the fault's instant with the simulator positioned
/// at `sim.now()`; the sink returns `true` if the fault addressed
/// something it owns (whole-system faults are typically handled by many
/// sinks at once).
pub trait FaultSink {
    /// Applies `fault` if it addresses this sink; returns whether it did.
    fn apply(&self, sim: &mut Simulator, fault: &Fault) -> bool;
}

#[derive(Default)]
struct ClockInner {
    sinks: Vec<Rc<dyn FaultSink>>,
    armed: u64,
    fired: u64,
    unhandled: u64,
}

/// Arms a [`FaultPlan`] on a simulator and dispatches each fault to the
/// registered [`FaultSink`]s when its instant arrives.
///
/// Sinks registered *after* arming still receive faults that have not yet
/// fired — the sink list is read at fire time — which lets a harness
/// observe a stack's plan (e.g. flip a "crashed" flag on power cut)
/// without owning the arming site.
///
/// A fault no sink claims is counted (see [`FaultClock::unhandled`]) but
/// is not an error: plans are written against stack *shapes*, and a plan
/// naming a RAID member is legal to arm on a stack without volumes.
#[derive(Clone, Default)]
pub struct FaultClock {
    inner: Rc<RefCell<ClockInner>>,
}

impl FaultClock {
    /// A clock with no sinks and nothing armed.
    pub fn new() -> FaultClock {
        FaultClock::default()
    }

    /// Registers a sink. Every subsequently fired fault is offered to it.
    pub fn register(&self, sink: Rc<dyn FaultSink>) {
        self.inner.borrow_mut().sinks.push(sink);
    }

    /// Schedules one simulator event per fault in `plan`, each at
    /// `sim.now() + fault.at`. May be called more than once; plans
    /// accumulate.
    pub fn arm(&self, sim: &mut Simulator, plan: &FaultPlan) {
        for fault in &plan.faults {
            let clock = self.clone();
            let fault = *fault;
            self.inner.borrow_mut().armed += 1;
            sim.schedule_in(fault.at, move |sim| clock.fire(sim, fault));
        }
    }

    fn fire(&self, sim: &mut Simulator, fault: Fault) {
        let sinks: Vec<Rc<dyn FaultSink>> = self.inner.borrow().sinks.clone();
        let mut handled = false;
        for sink in &sinks {
            handled |= sink.apply(sim, &fault);
        }
        let mut inner = self.inner.borrow_mut();
        inner.fired += 1;
        if !handled {
            inner.unhandled += 1;
        }
    }

    /// Faults scheduled so far (across all [`arm`](FaultClock::arm) calls).
    pub fn armed(&self) -> u64 {
        self.inner.borrow().armed
    }

    /// Faults whose instants have arrived.
    pub fn fired(&self) -> u64 {
        self.inner.borrow().fired
    }

    /// Fired faults that no sink claimed.
    pub fn unhandled(&self) -> u64 {
        self.inner.borrow().unhandled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Recorder {
        seen: RefCell<Vec<Fault>>,
        claim: bool,
    }

    impl FaultSink for Recorder {
        fn apply(&self, _sim: &mut Simulator, fault: &Fault) -> bool {
            self.seen.borrow_mut().push(*fault);
            self.claim
        }
    }

    fn sample_plan() -> FaultPlan {
        FaultPlan::power_cut_at(SimDuration::from_millis(5))
            .with(Fault {
                at: SimDuration::from_millis(1),
                target: FaultTarget::Member {
                    volume: 2,
                    member: 1,
                },
                kind: FaultKind::Fail,
            })
            .with(Fault {
                at: SimDuration::from_micros(7),
                target: FaultTarget::Data(3),
                kind: FaultKind::TransientError { count: 4 },
            })
            .with(Fault {
                at: SimDuration::ZERO,
                target: FaultTarget::Log(0),
                kind: FaultKind::LatencySpike {
                    extra: SimDuration::from_micros(250),
                    count: 2,
                },
            })
    }

    #[test]
    fn encode_parse_round_trip() {
        let plan = sample_plan();
        let text = plan.encode();
        assert_eq!(text.parse::<FaultPlan>().unwrap(), plan);
        // And the canonical form is stable.
        assert_eq!(text.parse::<FaultPlan>().unwrap().encode(), text);
    }

    #[test]
    fn parse_accepts_whitespace_and_empty_items() {
        let plan: FaultPlan = " @1000 system cut ;; @2000 vol0.m1 fail ".parse().unwrap();
        assert_eq!(plan.len(), 2);
        assert_eq!(
            plan.faults[1].target,
            FaultTarget::Member {
                volume: 0,
                member: 1
            }
        );
        assert_eq!("".parse::<FaultPlan>().unwrap(), FaultPlan::new());
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "@x system cut",
            "@10 nowhere cut",
            "@10 system melt",
            "@10 system cut extra",
            "@10 vol0 fail",
            "@10 data cut",
            "@10 system slow+abc*2",
            // Past MAX_FAULT_NANOS: arming one would overflow virtual time.
            "@18446744073709551615 system cut",
            "@0 data0 slow+18446744073709551615*1",
        ] {
            assert!(bad.parse::<FaultPlan>().is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn clock_fires_at_offsets_and_counts_unhandled() {
        let mut sim = Simulator::new();
        sim.schedule_in(SimDuration::from_millis(10), |_| {});
        let clock = FaultClock::new();
        let sink = Rc::new(Recorder {
            claim: true,
            ..Recorder::default()
        });
        clock.register(Rc::clone(&sink) as Rc<dyn FaultSink>);
        let deaf = Rc::new(Recorder::default());
        clock.register(Rc::clone(&deaf) as Rc<dyn FaultSink>);
        clock.arm(&mut sim, &sample_plan());
        assert_eq!(clock.armed(), 4);
        sim.run();
        assert_eq!(clock.fired(), 4);
        // Every fault reached both sinks; the claiming sink makes them all
        // handled.
        assert_eq!(sink.seen.borrow().len(), 4);
        assert_eq!(deaf.seen.borrow().len(), 4);
        assert_eq!(clock.unhandled(), 0);
    }

    #[test]
    fn unclaimed_faults_are_tolerated() {
        let mut sim = Simulator::new();
        let clock = FaultClock::new();
        clock.register(Rc::new(Recorder::default()));
        clock.arm(&mut sim, &FaultPlan::member_fail(9, 9, SimDuration::ZERO));
        sim.run();
        assert_eq!(clock.fired(), 1);
        assert_eq!(clock.unhandled(), 1);
    }

    #[test]
    fn late_registration_sees_unfired_faults() {
        let mut sim = Simulator::new();
        let clock = FaultClock::new();
        clock.arm(
            &mut sim,
            &FaultPlan::power_cut_at(SimDuration::from_millis(1)),
        );
        // Registered after arming, before the instant arrives.
        let sink = Rc::new(Recorder {
            claim: true,
            ..Recorder::default()
        });
        clock.register(Rc::clone(&sink) as Rc<dyn FaultSink>);
        sim.run();
        assert_eq!(sink.seen.borrow().len(), 1);
        assert_eq!(clock.unhandled(), 0);
    }
}
