//! Submission taps: observation hooks on the request submission path.
//!
//! A [`SubmitTap`] sees every request the moment a stack accepts it —
//! arrival instant, device, address, length, direction — which is exactly
//! the information a workload trace needs. The tap sits on the *submission*
//! side (not completion), so what it records is the offered load, not the
//! serviced load: replaying a captured stream open-loop reproduces the
//! original arrival process even on a slower stack.
//!
//! Like telemetry recorders, taps default to absent and cost nothing when
//! uninstalled. Unlike recorders, a tap carries the full request address
//! vocabulary, so it is defined here in `trail-blockio` where that
//! vocabulary is. It is installed only at a stack's front end (`trail-db`'s
//! `BlockStack::set_tap`: the Trail array, of one log or several, and the
//! standard stack), never on a Trail instance or the block targets
//! beneath, so each logical request is reported once with the stack-level
//! device index it addressed.

use std::rc::Rc;

use trail_disk::Lba;
use trail_sim::SimTime;
use trail_telemetry::StreamId;

/// Observes accepted request submissions.
///
/// Implementors must not submit I/O from inside the hook: it is called
/// with the front end's internals borrowed. Recording into owned state (a
/// `RefCell<Vec<_>>`) is the intended use.
pub trait SubmitTap {
    /// Called once per accepted request, at submission time.
    ///
    /// `dev` is the stack-level device index the submitter addressed,
    /// `sectors` the request length, `is_read` the direction, and
    /// `stream` the submitter's stream tag
    /// ([`StreamId::UNTAGGED`] when the submitter does not distinguish
    /// streams).
    fn on_submit(
        &self,
        at: SimTime,
        dev: u32,
        lba: Lba,
        sectors: u32,
        is_read: bool,
        stream: StreamId,
    );
}

/// Shared handle to a tap, as stored by the stack front ends.
pub type TapHandle = Rc<dyn SubmitTap>;
