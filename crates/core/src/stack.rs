//! The storage-stack abstraction: a file system or database above it runs
//! unchanged on Trail or on the standard disk subsystem, which is exactly
//! the comparison Table 2 makes (`EXT2+Trail` vs. `EXT2` vs. `EXT2+GC`).

use std::cell::RefCell;
use std::rc::Rc;

use trail_blockio::{IoDone, IoRequest, SharedBlockDevice, StandardDriver, TapHandle};
use trail_disk::{Disk, DiskError, Lba};
use trail_sim::{Completion, Simulator};
use trail_telemetry::RecorderHandle;

use crate::error::TrailError;

/// A stack of block devices a file system or database reads and writes
/// through.
///
/// `dev` indexes are stable across the stack's lifetime; writes are
/// synchronous in the database's sense — the completion is delivered when
/// the stack guarantees durability (for Trail, that is the *log-disk*
/// write). A rejected or abandoned submission cancels its token.
///
/// [`submit`](BlockStack::submit) is the one I/O method a stack
/// implements; `write` and `read` are untagged requests on top of it. Two
/// stacks exist: [`MultiTrail`](crate::MultiTrail), Trail over one log
/// disk or several, and [`StandardStack`].
pub trait BlockStack {
    /// Submits `req` to device `dev`. A write's payload is the handle
    /// every layer below passes on: a caller that keeps a
    /// [`share`](trail_disk::PayloadBuf::share) of it holds the very bytes
    /// in flight. The request's stream tag reaches the stack's tap and the
    /// requests it forwards; it never changes durability semantics or
    /// placement.
    ///
    /// # Errors
    ///
    /// Rejects a malformed request without side effects, the same way on
    /// every stack: [`TrailError::BadDevice`] for a device past
    /// [`devices`](BlockStack::devices), [`TrailError::BadDataLength`] for
    /// an empty or ragged write and [`TrailError::OutOfRange`] for a range
    /// past the device or a read of no sector. `done` is then delivered
    /// `Err(Cancelled)` and the tap sees nothing.
    fn submit(
        &self,
        sim: &mut Simulator,
        dev: usize,
        req: IoRequest,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError>;

    /// Submits an untagged durable write of `data` at `lba` on device
    /// `dev`.
    ///
    /// # Errors
    ///
    /// As [`submit`](BlockStack::submit).
    fn write(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        data: Vec<u8>,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        self.submit(sim, dev, IoRequest::write(lba, data), done)
    }

    /// Submits an untagged read of `count` sectors at `lba` on device
    /// `dev`.
    ///
    /// # Errors
    ///
    /// As [`submit`](BlockStack::submit).
    fn read(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        count: u32,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        self.submit(sim, dev, IoRequest::read(lba, count), done)
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

/// Convenience alias used throughout the engines above a stack.
pub type SharedStack = Rc<dyn BlockStack>;

/// Reads `count` sectors through the stack, blocking, and lets everything
/// the read set in motion settle (boot, recovery and mount own the
/// simulation while they wait).
///
/// # Errors
///
/// Propagates the stack's rejection; a read the stack failed is
/// [`TrailError::Io`] with the delivered error (`PoweredOff` on a dark
/// disk).
pub fn read_blocking(
    sim: &mut Simulator,
    stack: &dyn BlockStack,
    dev: usize,
    lba: Lba,
    count: u32,
) -> Result<Vec<u8>, TrailError> {
    let res = sim.block_on(|sim, done| stack.read(sim, dev, lba, count, done))?;
    sim.run();
    Ok(res?.data.expect("a read returns data").to_vec())
}

/// Writes `data` through the stack, blocking, and lets everything the
/// write set in motion settle.
///
/// # Errors
///
/// As [`read_blocking`].
pub fn write_blocking(
    sim: &mut Simulator,
    stack: &dyn BlockStack,
    dev: usize,
    lba: Lba,
    data: Vec<u8>,
) -> Result<(), TrailError> {
    let res = sim.block_on(|sim, done| stack.write(sim, dev, lba, data, done))?;
    sim.run();
    res?;
    Ok(())
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
}

impl BlockStack for StandardStack {
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
        // A target refuses a malformed request as the stack-level error a
        // Trail stack gives for it.
        tgt.submit(sim, req, done).map_err(|e| match e {
            DiskError::OutOfRange => TrailError::OutOfRange,
            DiskError::BadDataLength => TrailError::BadDataLength,
            e => TrailError::Disk(e),
        })?;
        if let Some(tap) = &*self.tap.borrow() {
            tap.on_submit(sim.now(), dev as u32, lba, sectors, is_read, stream);
        }
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use trail_disk::{profiles, SECTOR_SIZE};
    use trail_sim::{Delivered, IoError};
    use trail_telemetry::StreamId;
    use trail_volume::{RaidVolume, VolumeLayout};

    use crate::formatter::{format_log_disk, FormatOptions};
    use crate::{MultiTrail, TrailConfig};

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
        let done = sim.completion(move |_, d: Delivered<IoDone>| {
            assert_eq!(d.expect("read delivered").data.unwrap().sector(0)[0], 0x3C);
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

    /// Device 0 a raw disk, device 1 a three-member RAID-5 volume.
    fn raw_and_raid5() -> Vec<SharedBlockDevice> {
        let members = (0..3)
            .map(|i| StandardDriver::new(Disk::new(format!("m{i}"), profiles::tiny_test_disk())))
            .collect();
        let raid5 = RaidVolume::new("r5", VolumeLayout::Raid5 { chunk_sectors: 8 }, members);
        let raw = StandardDriver::new(Disk::new("raw", profiles::tiny_test_disk()));
        vec![Rc::new(raw), Rc::new(raid5)]
    }

    /// A Trail array of `logs` tiny log disks over one tiny data disk.
    fn trail(sim: &mut Simulator, logs: usize) -> MultiTrail {
        let logs: Vec<Disk> = (0..logs)
            .map(|i| Disk::new(format!("log{i}"), profiles::tiny_test_disk()))
            .collect();
        for log in &logs {
            format_log_disk(sim, log, FormatOptions::default()).unwrap();
        }
        let data = Disk::new("d", profiles::tiny_test_disk());
        MultiTrail::start(sim, logs, vec![data], TrailConfig::default())
            .unwrap()
            .0
    }

    #[test]
    fn standard_stack_reports_accepted_submissions_only() {
        let mut sim = Simulator::new();
        let stack = StandardStack::over(raw_and_raid5());
        let tap = Rc::new(CountingTap::default());
        stack.set_tap(Rc::clone(&tap) as TapHandle);
        for dev in 0..2 {
            let done = sim.completion(|_, d| assert!(d.is_ok()));
            let write = IoRequest::write(5, vec![1; 2 * SECTOR_SIZE]).tagged(StreamId(7));
            stack.submit(&mut sim, dev, write, done).unwrap();
            let done = sim.completion(|_, d| assert!(d.is_ok()));
            let read = IoRequest::read(9, 1).tagged(StreamId(2));
            stack.submit(&mut sim, dev, read, done).unwrap();
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
        let mut sim = Simulator::new();
        let drv = trail(&mut sim, 1);
        let stack: SharedStack = Rc::new(drv.clone());
        assert_eq!(stack.devices(), 1);
        let done = sim.completion(|_, d: Delivered<IoDone>| {
            assert!(d.expect("durable").latency().as_millis_f64() < 5.0);
        });
        stack
            .write(&mut sim, 0, 3, vec![0x7E; SECTOR_SIZE], done)
            .unwrap();
        drv.run_until_quiescent(&mut sim);
        assert_eq!(stack.pending_work(), 0);
        let got = Rc::new(Cell::new(0u8));
        let g = Rc::clone(&got);
        let done = sim.completion(move |_, d: Delivered<IoDone>| {
            g.set(d.expect("read delivered").data.unwrap().sector(0)[0]);
        });
        stack.read(&mut sim, 0, 3, 1, done).unwrap();
        sim.run();
        assert_eq!(got.get(), 0x7E);
    }

    #[test]
    fn every_stack_refuses_a_malformed_request_alike() {
        let mut sim = Simulator::new();
        let targets = raw_and_raid5();
        let data_disk = profiles::tiny_test_disk().geometry.total_sectors();
        let stacks: [(&str, SharedStack, Vec<u64>); 3] = [
            (
                "standard, raw and RAID-5",
                Rc::new(StandardStack::over(targets.clone())),
                targets.iter().map(|t| t.capacity_sectors()).collect(),
            ),
            (
                "one-log Trail",
                Rc::new(trail(&mut sim, 1)),
                vec![data_disk],
            ),
            (
                "two-log Trail",
                Rc::new(trail(&mut sim, 2)),
                vec![data_disk],
            ),
        ];
        for (name, stack, capacity) in stacks {
            let tap = Rc::new(CountingTap::default());
            stack.set_tap(Rc::clone(&tap) as TapHandle);
            let devices = stack.devices();
            assert_eq!(devices, capacity.len());
            for (dev, cap) in capacity.into_iter().enumerate() {
                let refused = [
                    (devices, IoRequest::read(0, 1), TrailError::BadDevice),
                    (dev, IoRequest::read(cap, 1), TrailError::OutOfRange),
                    (dev, IoRequest::read(0, 0), TrailError::OutOfRange),
                    (dev, IoRequest::write(0, vec![]), TrailError::BadDataLength),
                    (
                        dev,
                        IoRequest::write(0, vec![1; SECTOR_SIZE + 1]),
                        TrailError::BadDataLength,
                    ),
                ];
                for (i, (at, req, want)) in refused.into_iter().enumerate() {
                    let heard = Rc::new(Cell::new(None));
                    let h = Rc::clone(&heard);
                    let done = sim.completion(move |_, d: Delivered<IoDone>| h.set(d.err()));
                    let got = stack.submit(&mut sim, at, req.tagged(StreamId(3)), done);
                    sim.run();
                    let what = format!("{name}, device {dev}, request {i}");
                    assert_eq!(got, Err(want), "{what}");
                    assert_eq!(heard.get(), Some(IoError::Cancelled), "{what}");
                }
            }
            assert!(tap.seen.borrow().is_empty(), "{name} reported a refusal");
        }
    }
}
