//! Multiple log disks (paper §5.1's "final optimization" and §6):
//! "it is possible to employ multiple log disks to completely hide the
//! disk re-positioning overhead from user applications."
//!
//! [`MultiTrail`] runs one independent Trail instance per log disk, all
//! sharing the same data disks (each physical data disk keeps exactly one
//! queueing driver). Writes are routed by a **deterministic hash of the
//! target block**, which is what makes the composition correct without
//! any cross-log coordination:
//!
//! - all versions of a block live in one log, so its write records replay
//!   in order under that log's own sequence numbers;
//! - reads route the same way, so the pinned-buffer fast path still sees
//!   the newest version;
//! - crash recovery simply recovers each log disk independently.
//!
//! While one log disk repositions after a write, requests hashing to the
//! other disks proceed immediately — with k disks, roughly (k−1)/k of the
//! repositioning penalty is hidden from a clustered stream (the
//! availability-routed "completely hide" variant would need a global
//! write order across logs, which the paper leaves open).

use std::cell::Cell;
use std::rc::Rc;

use trail_blockio::IoDone;
use trail_disk::{Disk, Lba, PayloadBuf};
use trail_sim::{Completion, Simulator};
use trail_telemetry::StreamId;

use crate::config::TrailConfig;
use crate::driver::{raw_targets, BootReport, TrailDriver, TrailStats};
use crate::error::TrailError;

/// A Trail array: one driver per log disk over shared data disks.
///
/// # Examples
///
/// ```
/// use trail_sim::Simulator;
/// use trail_disk::{profiles, Disk, SECTOR_SIZE};
/// use trail_core::{format_log_disk, FormatOptions, MultiTrail, TrailConfig};
///
/// let mut sim = Simulator::new();
/// let logs: Vec<Disk> = (0..2)
///     .map(|i| Disk::new(format!("log{i}"), profiles::seagate_st41601n()))
///     .collect();
/// for log in &logs {
///     format_log_disk(&mut sim, log, FormatOptions::default())?;
/// }
/// let data = Disk::new("data0", profiles::wd_caviar_10gb());
/// let (multi, boots) =
///     MultiTrail::start(&mut sim, logs, vec![data], TrailConfig::default())?;
/// assert_eq!(boots.len(), 2);
/// let done = sim.completion(|_, _| {});
/// multi.write(&mut sim, 0, 64, vec![1u8; SECTOR_SIZE], done)?;
/// multi.run_until_quiescent(&mut sim);
/// # Ok::<(), trail_core::TrailError>(())
/// ```
#[derive(Clone)]
pub struct MultiTrail {
    drivers: Vec<TrailDriver>,
    routing: Rc<Cell<LogRouting>>,
}

/// How [`MultiTrail`] assigns requests to log disks.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LogRouting {
    /// Route by a deterministic hash of the target block address (the
    /// default). Safe for any workload: all versions of a block live in
    /// one log regardless of who wrote them.
    #[default]
    BlockHash,
    /// Route tagged requests by a hash of their [`StreamId`], so each
    /// stream's writes land on one log disk and never wait behind another
    /// stream's repositioning. Untagged requests fall back to the block
    /// hash.
    ///
    /// **Correctness invariant:** under stream affinity a block is pinned
    /// in the buffer of the instance its *stream* hashes to, so every
    /// read of that block must carry the same tag as its writes (or the
    /// streams must write disjoint block sets). A read routed elsewhere
    /// would miss the pinned copy and could fetch a stale version from
    /// the data disk while the write-back is still pending.
    StreamAffinity,
}

impl MultiTrail {
    /// Boots one Trail instance per formatted log disk over shared raw
    /// data disks: [`start_with_targets`](Self::start_with_targets) with
    /// every instance holding clones of the *same* targets, so each
    /// physical data disk keeps exactly one queueing driver.
    ///
    /// # Errors
    ///
    /// As [`start_with_targets`](Self::start_with_targets).
    pub fn start(
        sim: &mut Simulator,
        log_disks: Vec<Disk>,
        data_disks: Vec<Disk>,
        config: TrailConfig,
    ) -> Result<(MultiTrail, Vec<BootReport>), TrailError> {
        let shared = vec![raw_targets(&data_disks); log_disks.len()];
        Self::start_with_targets(sim, log_disks, shared, config)
    }

    /// Boots one Trail instance per formatted log disk, each over its
    /// **own** list of block targets (single-disk drivers or
    /// `trail-volume` arrays): instance `i` gets `targets[i]`.
    ///
    /// This is the per-stream-devices composition: under
    /// [`LogRouting::StreamAffinity`] each stream's writes land on one
    /// instance, so giving every instance its own target set places each
    /// stream's data on its own array. The placement is coherent only if
    /// each stream addresses blocks backed by its own instance's targets
    /// (or every instance receives clones of one shared target list, as
    /// [`start`](Self::start) arranges) — otherwise a block written via
    /// instance 0 and read via instance 1 would touch two different
    /// devices.
    ///
    /// # Errors
    ///
    /// Returns [`TrailError::BadDevice`] for an empty log-disk list or a
    /// `targets` list whose length differs, and propagates each
    /// instance's boot errors (including per-log recovery).
    pub fn start_with_targets(
        sim: &mut Simulator,
        log_disks: Vec<Disk>,
        targets: Vec<Vec<trail_blockio::SharedBlockDevice>>,
        config: TrailConfig,
    ) -> Result<(MultiTrail, Vec<BootReport>), TrailError> {
        if log_disks.is_empty() || targets.len() != log_disks.len() {
            return Err(TrailError::BadDevice);
        }
        let mut drivers = Vec::with_capacity(log_disks.len());
        let mut boots = Vec::with_capacity(log_disks.len());
        for (log, tgts) in log_disks.into_iter().zip(targets) {
            let (drv, boot) = TrailDriver::start_with_targets(sim, log, tgts, config)?;
            drivers.push(drv);
            boots.push(boot);
        }
        Ok((
            MultiTrail {
                drivers,
                routing: Rc::new(Cell::new(LogRouting::BlockHash)),
            },
            boots,
        ))
    }

    /// Number of log disks.
    pub fn log_disks(&self) -> usize {
        self.drivers.len()
    }

    /// Number of data devices each instance serves.
    pub fn devices(&self) -> usize {
        self.drivers[0].devices()
    }

    /// The Trail instance serving block `(dev, lba)` for an untagged
    /// request.
    pub fn driver_for(&self, dev: usize, lba: Lba) -> &TrailDriver {
        &self.drivers[self.route_for(dev, lba, StreamId::UNTAGGED)]
    }

    /// The routing policy currently in effect.
    pub fn routing(&self) -> LogRouting {
        self.routing.get()
    }

    /// Switches the routing policy. Shared by all clones of this array.
    ///
    /// Switch only at a quiescent point ([`run_until_quiescent`]
    /// (MultiTrail::run_until_quiescent)): requests routed under the old
    /// policy must have drained their write-backs before blocks are
    /// re-routed, for the reasons documented on
    /// [`LogRouting::StreamAffinity`].
    pub fn set_routing(&self, routing: LogRouting) {
        self.routing.set(routing);
    }

    /// All Trail instances (for statistics).
    pub fn drivers(&self) -> &[TrailDriver] {
        &self.drivers
    }

    /// Attaches a telemetry recorder to every Trail instance (and, through
    /// them, the log disks, the shared data-disk drivers, and the data
    /// disks themselves).
    pub fn set_recorder(&self, recorder: trail_telemetry::RecorderHandle) {
        for d in &self.drivers {
            d.set_recorder(std::rc::Rc::clone(&recorder));
        }
    }

    /// Installs a workload-capture tap on every Trail instance. Each
    /// logical request routes to exactly one instance, so the tap sees the
    /// merged stream once, in submission order.
    pub fn set_tap(&self, tap: trail_blockio::TapHandle) {
        for d in &self.drivers {
            d.set_tap(std::rc::Rc::clone(&tap));
        }
    }

    /// Deterministic request-to-log routing: FNV-1a over the block
    /// address, or over the stream id when
    /// [`LogRouting::StreamAffinity`] is selected and the request is
    /// tagged.
    fn route_for(&self, dev: usize, lba: Lba, stream: StreamId) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        match self.routing.get() {
            LogRouting::StreamAffinity if !stream.is_untagged() => {
                mix(&stream.0.to_le_bytes());
            }
            _ => {
                mix(&(dev as u64).to_le_bytes());
                mix(&lba.to_le_bytes());
            }
        }
        (h % self.drivers.len() as u64) as usize
    }

    /// Submits a synchronous write; semantics as
    /// [`TrailDriver::write`].
    ///
    /// # Errors
    ///
    /// As [`TrailDriver::write`].
    pub fn write(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        data: impl Into<PayloadBuf>,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        self.write_tagged(sim, dev, lba, data, StreamId::UNTAGGED, done)
    }

    /// [`write`](MultiTrail::write) with an explicit stream tag. Under
    /// [`LogRouting::StreamAffinity`] the tag selects the log disk.
    ///
    /// # Errors
    ///
    /// As [`TrailDriver::write`].
    pub fn write_tagged(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        data: impl Into<PayloadBuf>,
        stream: StreamId,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        self.drivers[self.route_for(dev, lba, stream)]
            .write_tagged(sim, dev, lba, data, stream, done)
    }

    /// Submits a read; semantics as [`TrailDriver::read`].
    ///
    /// # Errors
    ///
    /// As [`TrailDriver::read`].
    pub fn read(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        count: u32,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        self.read_tagged(sim, dev, lba, count, StreamId::UNTAGGED, done)
    }

    /// [`read`](MultiTrail::read) with an explicit stream tag. Must carry
    /// the same tag as the block's writes under
    /// [`LogRouting::StreamAffinity`] (see its invariant).
    ///
    /// # Errors
    ///
    /// As [`TrailDriver::read`].
    pub fn read_tagged(
        &self,
        sim: &mut Simulator,
        dev: usize,
        lba: Lba,
        count: u32,
        stream: StreamId,
        done: Completion<IoDone>,
    ) -> Result<(), TrailError> {
        self.drivers[self.route_for(dev, lba, stream)]
            .read_tagged(sim, dev, lba, count, stream, done)
    }

    /// Outstanding work across all instances.
    pub fn pending_work(&self) -> usize {
        self.drivers.iter().map(TrailDriver::pending_work).sum()
    }

    /// Runs the simulation until every instance is quiescent.
    ///
    /// # Panics
    ///
    /// Panics if the event queue drains while work remains.
    pub fn run_until_quiescent(&self, sim: &mut Simulator) {
        while self.pending_work() > 0 {
            assert!(sim.step(), "event queue empty with driver work pending");
        }
    }

    /// Cleanly shuts down every instance.
    ///
    /// # Errors
    ///
    /// Propagates the first instance failure.
    pub fn shutdown(&self, sim: &mut Simulator) -> Result<(), TrailError> {
        for d in &self.drivers {
            d.shutdown(sim)?;
        }
        Ok(())
    }

    /// Folds `f` over every instance's statistics.
    pub fn fold_stats<A>(&self, init: A, mut f: impl FnMut(A, &TrailStats) -> A) -> A {
        let mut acc = Some(init);
        for d in &self.drivers {
            let a = acc.take().expect("accumulator threaded through the fold");
            acc = Some(d.with_stats(|s| f(a, s)));
        }
        acc.expect("accumulator threaded through the fold")
    }
}

impl std::fmt::Debug for MultiTrail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiTrail")
            .field("log_disks", &self.drivers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formatter::{format_log_disk, FormatOptions};
    use trail_disk::profiles;

    fn boot(sim: &mut Simulator, n_logs: usize) -> MultiTrail {
        let logs: Vec<Disk> = (0..n_logs)
            .map(|i| Disk::new(format!("log{i}"), profiles::tiny_test_disk()))
            .collect();
        for log in &logs {
            format_log_disk(sim, log, FormatOptions::default()).unwrap();
        }
        let data = Disk::new("data0", profiles::tiny_test_disk());
        let (multi, _) = MultiTrail::start(sim, logs, vec![data], TrailConfig::default()).unwrap();
        multi
    }

    #[test]
    fn block_hash_routing_ignores_the_stream_tag() {
        let mut sim = Simulator::new();
        let multi = boot(&mut sim, 3);
        assert_eq!(multi.routing(), LogRouting::BlockHash);
        for lba in [0u64, 7, 64, 513] {
            let by_block = multi.route_for(0, lba, StreamId::UNTAGGED);
            assert_eq!(multi.route_for(0, lba, StreamId(1)), by_block);
            assert_eq!(multi.route_for(0, lba, StreamId(9)), by_block);
        }
    }

    #[test]
    fn stream_affinity_pins_each_tagged_stream_to_one_log() {
        let mut sim = Simulator::new();
        let multi = boot(&mut sim, 3);
        multi.set_routing(LogRouting::StreamAffinity);
        for stream in 1u32..=8 {
            let home = multi.route_for(0, 0, StreamId(stream));
            for lba in [1u64, 100, 999] {
                assert_eq!(multi.route_for(0, lba, StreamId(stream)), home);
            }
        }
        // Untagged requests still route by block address, and the policy
        // is shared across clones of the array.
        let clone = multi.clone();
        assert_eq!(clone.routing(), LogRouting::StreamAffinity);
        for lba in [0u64, 7, 64, 513] {
            assert_eq!(
                clone.route_for(0, lba, StreamId::UNTAGGED),
                {
                    clone.set_routing(LogRouting::BlockHash);
                    let r = multi.route_for(0, lba, StreamId::UNTAGGED);
                    clone.set_routing(LogRouting::StreamAffinity);
                    r
                },
                "untagged requests fall back to the block hash"
            );
        }
    }

    #[test]
    fn streams_spread_across_logs_under_affinity() {
        let mut sim = Simulator::new();
        let multi = boot(&mut sim, 2);
        multi.set_routing(LogRouting::StreamAffinity);
        let homes: std::collections::BTreeSet<usize> = (1u32..=16)
            .map(|s| multi.route_for(0, 0, StreamId(s)))
            .collect();
        assert_eq!(homes.len(), 2, "16 streams should cover both logs");
    }
}
