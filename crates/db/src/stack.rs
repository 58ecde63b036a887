//! The storage-stack abstraction: the same database engine runs on Trail
//! or on the standard disk subsystem, which is exactly the comparison
//! Table 2 makes (`EXT2+Trail` vs. `EXT2` vs. `EXT2+GC`).

use std::cell::RefCell;
use std::rc::Rc;

use trail_blockio::{IoDone, IoRequest, SharedBlockDevice, StandardDriver, TapHandle};
use trail_core::{MultiTrail, TrailError};
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
/// is provided on top of it. Two stacks exist: [`MultiTrail`], Trail over
/// one log disk or several, and [`StandardStack`].
pub trait BlockStack {
    /// Submits a durable write of `data` at `lba` on device `dev`, tagged
    /// with the stream it belongs to. The tag reaches the stack's taps and
    /// the requests it forwards; it never changes durability semantics or
    /// placement. `data` is the handle every layer below passes on: a
    /// caller that keeps a [`share`](PayloadBuf::share) of it holds the
    /// very bytes in flight.
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
    /// observes every request this stack accepts, tagged with the
    /// stack-level device index. The stack front end is the one place a
    /// request is reported; the block targets beneath never see the tap.
    fn set_tap(&self, tap: TapHandle);
}

// The Trail stack, of one log or several: each sector goes to the one log
// that owns it.
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
/// latency at the target address; for RAID-5, the small-write parity
/// update).
pub struct StandardStack {
    targets: Vec<SharedBlockDevice>,
    tap: RefCell<Option<TapHandle>>,
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
        StandardStack {
            targets,
            tap: RefCell::new(None),
        }
    }

    fn submit(
        &self,
        sim: &mut Simulator,
        dev: usize,
        req: IoRequest,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        let tgt = self.targets.get(dev).ok_or(TrailError::BadDevice)?;
        let (lba, sectors, is_read, stream) =
            (req.lba, req.kind.sectors(), req.kind.is_read(), req.stream);
        tgt.submit(sim, req, done).map_err(TrailError::Disk)?;
        if let Some(tap) = &*self.tap.borrow() {
            tap.on_submit(sim.now(), dev as u32, lba, sectors, is_read, stream);
        }
        Ok(())
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
        *self.tap.borrow_mut() = Some(tap);
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

    /// `(dev, lba, sectors, is_read, stream)` of one reported submission.
    type Seen = (u32, Lba, u32, bool, StreamId);

    #[derive(Default)]
    struct CountingTap {
        seen: RefCell<Vec<Seen>>,
    }

    impl trail_blockio::SubmitTap for CountingTap {
        fn on_submit(
            &self,
            _at: trail_sim::SimTime,
            dev: u32,
            lba: Lba,
            sectors: u32,
            is_read: bool,
            stream: StreamId,
        ) {
            self.seen
                .borrow_mut()
                .push((dev, lba, sectors, is_read, stream));
        }
    }

    #[test]
    fn standard_stack_reports_accepted_submissions_only() {
        use trail_volume::{RaidVolume, VolumeLayout};
        let mut sim = Simulator::new();
        let members = (0..3)
            .map(|i| StandardDriver::new(Disk::new(format!("m{i}"), profiles::tiny_test_disk())))
            .collect();
        let raid5 = RaidVolume::new("r5", VolumeLayout::Raid5 { chunk_sectors: 8 }, members);
        let stack = StandardStack::over(vec![
            Rc::new(StandardDriver::new(Disk::new(
                "raw",
                profiles::tiny_test_disk(),
            ))),
            Rc::new(raid5),
        ]);
        let tap = Rc::new(CountingTap::default());
        stack.set_tap(Rc::clone(&tap) as TapHandle);
        for dev in 0..2 {
            let done = sim.completion(|_, d| assert!(d.is_ok()));
            let data = vec![1; 2 * SECTOR_SIZE].into();
            stack
                .write_tagged(&mut sim, dev, 5, data, StreamId(7), done)
                .unwrap();
            let done = sim.completion(|_, d| assert!(d.is_ok()));
            stack
                .read_tagged(&mut sim, dev, 9, 1, StreamId(2), done)
                .unwrap();
            // Rejected requests must not reach the tap.
            let done = sim.completion(|_, d| assert!(d.is_err()));
            assert!(stack.read(&mut sim, dev, 0, 0, done).is_err());
        }
        let done = sim.completion(|_, d| assert!(d.is_err()));
        assert!(stack.read(&mut sim, 2, 0, 1, done).is_err());
        sim.run();
        assert_eq!(
            &*tap.seen.borrow(),
            &[
                (0, 5, 2, false, StreamId(7)),
                (0, 9, 1, true, StreamId(2)),
                (1, 5, 2, false, StreamId(7)),
                (1, 9, 1, true, StreamId(2)),
            ]
        );
    }

    #[test]
    fn trail_stack_round_trips() {
        use trail_core::{format_log_disk, FormatOptions, TrailConfig};
        let mut sim = Simulator::new();
        let log = Disk::new("log", profiles::tiny_test_disk());
        let data = Disk::new("d", profiles::tiny_test_disk());
        format_log_disk(&mut sim, &log, FormatOptions::default()).unwrap();
        let (drv, _) =
            MultiTrail::start(&mut sim, vec![log], vec![data], TrailConfig::default()).unwrap();
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
