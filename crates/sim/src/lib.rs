//! # trail-sim: deterministic discrete-event simulation kernel
//!
//! This crate is the bottom layer of the Trail reproduction (Chiueh & Huang,
//! *Track-Based Disk Logging*, DSN 2002). Every latency the paper reports is
//! a time measurement on mechanical disk hardware; the reproduction replaces
//! wall-clock time with a **virtual clock** so that the same measurements are
//! exact, deterministic, and crash-injectable.
//!
//! The crate provides:
//!
//! - [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time.
//! - [`Simulator`] — a single-threaded event executor; components share
//!   state through `Rc<RefCell<_>>` and communicate by scheduling closures.
//! - [`DurationHistogram`], [`BusyMeter`] — the measurement collectors
//!   used by every layer and harness: one log-linear latency histogram
//!   (exact count, sum, mean, min and max; percentiles within 1/32) and
//!   busy-time accounting. Counts are plain integer fields.
//! - [`rng`] — seeded small RNG for reproducible workloads.
//!
//! # Examples
//!
//! A "device" that completes requests after a fixed service time:
//!
//! ```
//! use std::cell::RefCell;
//! use std::rc::Rc;
//! use trail_sim::{DurationHistogram, SimDuration, Simulator};
//!
//! let mut sim = Simulator::new();
//! let lat = Rc::new(RefCell::new(DurationHistogram::new()));
//!
//! for i in 0..10u64 {
//!     let lat = Rc::clone(&lat);
//!     sim.schedule_in(SimDuration::from_millis(i), move |sim| {
//!         let issued = sim.now();
//!         let lat = Rc::clone(&lat);
//!         sim.schedule_in(SimDuration::from_micros(1400), move |sim| {
//!             lat.borrow_mut().record(sim.now() - issued);
//!         });
//!     });
//! }
//! sim.run();
//! assert_eq!(lat.borrow().count(), 10);
//! // The mean is exact; percentiles are bucketed, but never past the max.
//! assert_eq!(lat.borrow().mean().as_millis_f64(), 1.4);
//! assert_eq!(lat.borrow().percentile(99.0), SimDuration::from_micros(1400));
//! ```

// Unsafe code is denied crate-wide with one audited exception: the
// `payload` module's inline closure storage (see its module docs for the
// invariants). Everything else must stay safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod completion;
mod event;
mod fault;
mod parallel;
#[allow(unsafe_code)]
mod payload;
mod queue;
mod stats;
mod time;

pub use completion::{Completion, CompletionId, CompletionSink, Delivered, IoError};
pub use event::{thread_events_executed, EventFn, EventId, Simulator};
pub use fault::{
    Fault, FaultClock, FaultKind, FaultPlan, FaultPlanParseError, FaultSink, FaultTarget,
};
pub use parallel::parallel_map;
pub use payload::INLINE_EVENT_BYTES;
pub use stats::{BusyMeter, DurationHistogram};
pub use time::{SimDuration, SimTime};

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Creates a small, fast, seeded RNG for reproducible workload generation.
///
/// All workload generators in the reproduction take explicit seeds so that
/// every experiment is replayable bit-for-bit.
///
/// # Examples
///
/// ```
/// use rand::Rng;
///
/// let mut a = trail_sim::rng(42);
/// let mut b = trail_sim::rng(42);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    #[test]
    fn rng_is_deterministic_across_calls() {
        use rand::Rng;
        let xs: Vec<u32> = (0..4).map(|_| super::rng(7).gen()).collect();
        assert!(xs.windows(2).all(|w| w[0] == w[1]));
    }
}
