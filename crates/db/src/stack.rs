//! The storage-stack abstraction: the same database engine runs on Trail
//! or on the standard disk subsystem, which is exactly the comparison
//! Table 2 makes (`EXT2+Trail` vs. `EXT2` vs. `EXT2+GC`).

use std::rc::Rc;

use trail_blockio::{IoDone, IoRequest, SharedBlockDevice, StandardDriver, TapHandle};
use trail_core::{MultiTrail, TrailDriver, TrailError};
use trail_disk::{Disk, Lba, PayloadBuf};
use trail_sim::{Completion, Simulator};
use trail_telemetry::{RecorderHandle, StreamId};

/// A stack of block devices the database reads and writes through.
///
/// `dev` indexes are stable across the stack's lifetime; writes are
/// synchronous in the database's sense — the completion is delivered when
/// the stack guarantees durability (for Trail, that is the *log-disk*
/// write). A rejected or abandoned submission cancels its token.
///
/// The stream-tagged pair is what a stack implements; the untagged pair
/// is provided on top of it. Three stacks exist: [`TrailDriver`],
/// [`MultiTrail`] (whose router reads the tag under
/// [`trail_core::LogRouting::StreamAffinity`]) and [`StandardStack`].
pub trait BlockStack {
    /// Submits a durable write of `data` at `lba` on device `dev`, tagged
    /// with the stream it belongs to. The tag reaches the stack's taps and
    /// routing decisions; it never changes durability semantics. `data` is
    /// the handle every layer below passes on: a caller that keeps a
    /// [`share`](PayloadBuf::share) of it holds the very bytes in flight.
    ///
    /// # Errors
    ///
    /// Rejects malformed requests without side effects.
    fn write_tagged(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        data: PayloadBuf,
        stream: StreamId,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError>;

    /// Submits a read of `count` sectors at `lba` on device `dev`, tagged
    /// with the stream it belongs to.
    ///
    /// # Errors
    ///
    /// Rejects malformed requests without side effects.
    fn read_tagged(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        count: u32,
        stream: StreamId,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError>;

    /// [`write_tagged`](BlockStack::write_tagged) as
    /// [`StreamId::UNTAGGED`].
    ///
    /// # Errors
    ///
    /// As [`write_tagged`](BlockStack::write_tagged).
    fn write(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        data: Vec<u8>,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        self.write_tagged(sim, dev, lba, data.into(), StreamId::UNTAGGED, done)
    }

    /// [`read_tagged`](BlockStack::read_tagged) as [`StreamId::UNTAGGED`].
    ///
    /// # Errors
    ///
    /// As [`read_tagged`](BlockStack::read_tagged).
    fn read(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        count: u32,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        self.read_tagged(sim, dev, lba, count, StreamId::UNTAGGED, done)
    }

    /// Outstanding work inside the stack (used to drain at shutdown).
    fn pending_work(&self) -> usize;

    /// Number of devices.
    fn devices(&self) -> usize;

    /// Attaches a telemetry recorder to every layer below this stack.
    fn set_recorder(&self, recorder: RecorderHandle);

    /// Installs a workload-capture tap ([`trail_blockio::SubmitTap`]) that
    /// observes every request submitted through this stack, tagged with
    /// the stack-level device index.
    fn set_tap(&self, tap: TapHandle);
}

// The Trail stack: every device sits behind the driver. Each method
// resolves to the inherent one of the same name, not to this impl.
impl BlockStack for TrailDriver {
    fn write_tagged(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        data: PayloadBuf,
        stream: StreamId,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        TrailDriver::write_tagged(self, sim, dev, lba, data, stream, done)
    }

    fn read_tagged(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        count: u32,
        stream: StreamId,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        TrailDriver::read_tagged(self, sim, dev, lba, count, stream, done)
    }

    fn pending_work(&self) -> usize {
        TrailDriver::pending_work(self)
    }

    fn devices(&self) -> usize {
        TrailDriver::devices(self)
    }

    fn set_recorder(&self, recorder: RecorderHandle) {
        TrailDriver::set_recorder(self, recorder);
    }

    fn set_tap(&self, tap: TapHandle) {
        TrailDriver::set_tap(self, tap);
    }
}

// The Trail-array stack: stream tags reach the array's router, so
// `LogRouting::StreamAffinity` can pin each stream to one log disk.
impl BlockStack for MultiTrail {
    fn write_tagged(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        data: PayloadBuf,
        stream: StreamId,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        MultiTrail::write_tagged(self, sim, dev, lba, data, stream, done)
    }

    fn read_tagged(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        count: u32,
        stream: StreamId,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        MultiTrail::read_tagged(self, sim, dev, lba, count, stream, done)
    }

    fn pending_work(&self) -> usize {
        MultiTrail::pending_work(self)
    }

    fn devices(&self) -> usize {
        MultiTrail::devices(self)
    }

    fn set_recorder(&self, recorder: RecorderHandle) {
        MultiTrail::set_recorder(self, recorder);
    }

    fn set_tap(&self, tap: TapHandle) {
        MultiTrail::set_tap(self, tap);
    }
}

/// The baseline stack: device `dev` is one block target — a plain
/// queueing driver over a disk, or a `trail-volume` array — and every
/// write pays the target's full cost synchronously (seek + rotational
/// latency at the target address; for RAID-5, the read-modify-write parity
/// cycle).
#[derive(Clone)]
pub struct StandardStack {
    targets: Vec<SharedBlockDevice>,
}

impl StandardStack {
    /// Builds a baseline stack over raw `disks` with C-LOOK scheduling and
    /// no read priority (Linux-of-the-era behavior).
    pub fn new(disks: Vec<Disk>) -> Self {
        Self::over(
            disks
                .into_iter()
                .map(|d| Rc::new(StandardDriver::new(d)) as SharedBlockDevice)
                .collect(),
        )
    }

    /// Builds a stack where device `dev` is `targets[dev]`.
    pub fn over(targets: Vec<SharedBlockDevice>) -> Self {
        StandardStack { targets }
    }

    fn submit(
        &self,
        sim: &mut Simulator,
        dev: usize,
        req: IoRequest,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        let tgt = self.targets.get(dev).ok_or(TrailError::BadDevice)?;
        tgt.submit(sim, req, done)
            .map(|_| ())
            .map_err(TrailError::Disk)
    }
}

impl BlockStack for StandardStack {
    fn write_tagged(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        data: PayloadBuf,
        stream: StreamId,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        self.submit(sim, dev, IoRequest::write(lba, data).tagged(stream), done)
    }

    fn read_tagged(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        count: u32,
        stream: StreamId,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        self.submit(sim, dev, IoRequest::read(lba, count).tagged(stream), done)
    }

    fn pending_work(&self) -> usize {
        self.targets.iter().map(|t| t.pending()).sum()
    }

    fn devices(&self) -> usize {
        self.targets.len()
    }

    fn set_recorder(&self, recorder: RecorderHandle) {
        for t in &self.targets {
            t.set_recorder(Rc::clone(&recorder));
        }
    }

    fn set_tap(&self, tap: TapHandle) {
        for (dev, t) in self.targets.iter().enumerate() {
            t.set_tap(Rc::clone(&tap), dev as u32);
        }
    }
}

/// Convenience alias used throughout the engine.
pub type SharedStack = Rc<dyn BlockStack>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use trail_disk::{profiles, SECTOR_SIZE};

    #[test]
    fn standard_stack_round_trips() {
        let mut sim = Simulator::new();
        let stack = StandardStack::new(vec![
            Disk::new("a", profiles::tiny_test_disk()),
            Disk::new("b", profiles::tiny_test_disk()),
        ]);
        assert_eq!(stack.devices(), 2);
        let hit = Rc::new(Cell::new(false));
        let h = Rc::clone(&hit);
        let done = sim.completion(|_, _| {});
        stack
            .write(&mut sim, 1, 9, vec![0x3C; SECTOR_SIZE], done)
            .unwrap();
        sim.run();
        let done = sim.completion(move |_, d: trail_sim::Delivered<IoDone>| {
            assert_eq!(d.expect("read delivered").data.unwrap()[0], 0x3C);
            h.set(true);
        });
        stack.read(&mut sim, 1, 9, 1, done).unwrap();
        sim.run();
        assert!(hit.get());
        assert_eq!(stack.pending_work(), 0);
    }

    #[test]
    fn standard_stack_rejects_bad_device() {
        let mut sim = Simulator::new();
        let stack = StandardStack::new(vec![Disk::new("a", profiles::tiny_test_disk())]);
        let done = sim.completion(|_, _| {});
        assert!(matches!(
            stack.write(&mut sim, 7, 0, vec![0; SECTOR_SIZE], done),
            Err(TrailError::BadDevice)
        ));
        let done = sim.completion(|_, _| {});
        assert!(matches!(
            stack.read(&mut sim, 7, 0, 1, done),
            Err(TrailError::BadDevice)
        ));
    }

    #[test]
    fn trail_stack_round_trips() {
        use trail_core::{format_log_disk, FormatOptions, TrailConfig};
        let mut sim = Simulator::new();
        let log = Disk::new("log", profiles::tiny_test_disk());
        let data = Disk::new("d", profiles::tiny_test_disk());
        format_log_disk(&mut sim, &log, FormatOptions::default()).unwrap();
        let (drv, _) =
            TrailDriver::start(&mut sim, log, vec![data], TrailConfig::default()).unwrap();
        let stack: SharedStack = Rc::new(drv.clone());
        assert_eq!(stack.devices(), 1);
        let done = sim.completion(|_, d: trail_sim::Delivered<IoDone>| {
            assert!(d.expect("durable").latency().as_millis_f64() < 5.0);
        });
        stack
            .write(&mut sim, 0, 3, vec![0x7E; SECTOR_SIZE], done)
            .unwrap();
        drv.run_until_quiescent(&mut sim);
        assert_eq!(stack.pending_work(), 0);
        let got = Rc::new(Cell::new(0u8));
        let g = Rc::clone(&got);
        let done = sim.completion(move |_, d: trail_sim::Delivered<IoDone>| {
            g.set(d.expect("read delivered").data.unwrap()[0]);
        });
        stack.read(&mut sim, 0, 3, 1, done).unwrap();
        sim.run();
        assert_eq!(got.get(), 0x7E);
    }
}
