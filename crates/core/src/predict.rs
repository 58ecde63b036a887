//! Disk-head position prediction (paper §3.1).
//!
//! Commodity disks accept only addressed commands, so "write where the head
//! is" must be *synthesized*: the driver remembers a reference point
//! `(T₀, LBA₀)` — the instant a command finished and the sector the head
//! had just passed — and extrapolates forward using the probed rotation
//! period. The paper's formula for the sector under the head at `T₁`:
//!
//! ```text
//! S₁ = ( ⌊((T₁ − T₀) mod R) / R · SPT⌋ + S₀ + δ ) mod SPT
//! ```
//!
//! where δ compensates for command-processing overhead (calibrated by
//! [`trail_probe::calibrate_delta`]). The predictor here implements that
//! formula plus its cross-track generalization (needed when repositioning
//! to "the sector on the next track that is physically the closest"),
//! which converts the reference to an absolute platter angle using the
//! geometry's skew table.
//!
//! The predictor uses **only** information available to real driver
//! software: the reference point, the probed geometry, and δ. It never
//! reads the simulator's spindle phase.

use trail_disk::{DiskGeometry, Lba};
use trail_sim::{SimDuration, SimTime};

/// A prediction reference point: at `t0`, the head had just passed the far
/// edge of `lba`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reference {
    /// When the reference command completed.
    pub t0: SimTime,
    /// The last sector that passed under the head.
    pub lba: Lba,
}

/// Software-only disk-head position predictor.
///
/// # Examples
///
/// ```
/// use trail_disk::profiles;
/// use trail_sim::{SimDuration, SimTime};
/// use trail_core::HeadPredictor;
///
/// let p = profiles::seagate_st41601n();
/// let mut predictor = HeadPredictor::new(p.geometry, p.mech.rotation_period, 12);
/// predictor.set_reference(SimTime::ZERO, 0);
/// // Immediately after the reference, the prediction is δ sectors ahead.
/// let lba = predictor.predict_same_track(SimTime::ZERO).unwrap();
/// assert_eq!(lba, 12);
/// ```
#[derive(Clone, Debug)]
pub struct HeadPredictor {
    geometry: DiskGeometry,
    rotation_period: SimDuration,
    delta: u32,
    reference: Option<Reference>,
}

impl HeadPredictor {
    /// Creates a predictor with no reference point.
    ///
    /// # Panics
    ///
    /// Panics if `rotation_period` is zero.
    pub fn new(geometry: DiskGeometry, rotation_period: SimDuration, delta: u32) -> Self {
        assert!(
            !rotation_period.is_zero(),
            "rotation period must be positive"
        );
        HeadPredictor {
            geometry,
            rotation_period,
            delta,
            reference: None,
        }
    }

    /// The calibrated δ in sectors.
    pub fn delta(&self) -> u32 {
        self.delta
    }

    /// The current reference point, if any.
    pub fn reference(&self) -> Option<Reference> {
        self.reference
    }

    /// Installs a new reference point: at `t0` the head had just passed
    /// `lba` (i.e. a command whose final sector was `lba` completed at
    /// `t0`).
    ///
    /// # Panics
    ///
    /// Panics if `lba` is outside the disk.
    pub fn set_reference(&mut self, t0: SimTime, lba: Lba) {
        assert!(
            self.geometry.lba_to_chs(lba).is_some(),
            "reference lba {lba} outside the disk"
        );
        self.reference = Some(Reference { t0, lba });
    }

    /// Discards the reference point (predictions become unavailable until
    /// the next repositioning establishes a new one).
    pub fn clear_reference(&mut self) {
        self.reference = None;
    }

    /// The paper's same-track formula: predicts the target LBA for a write
    /// issued at `t1` on the *reference's own track* — the sector δ ahead
    /// of the head's extrapolated position.
    ///
    /// Returns `None` if no reference point is installed.
    pub fn predict_same_track(&self, t1: SimTime) -> Option<Lba> {
        let r = self.reference?;
        let chs = self
            .geometry
            .lba_to_chs(r.lba)
            .expect("reference validated at installation");
        let track = self.geometry.track_index(chs);
        let spt = u64::from(self.geometry.spt_of_track(track));
        let period = self.rotation_period.as_nanos();
        let elapsed = t1.saturating_duration_since(r.t0).as_nanos() % period;
        // ⌊ elapsed / R · SPT ⌋ without intermediate overflow.
        let advanced = (u128::from(elapsed) * u128::from(spt) / u128::from(period)) as u64;
        let s1 = (u64::from(chs.sector) + advanced + u64::from(self.delta)) % spt;
        Some(self.geometry.track_first_lba(track) + s1)
    }

    /// The head's angular position (fraction of a revolution) extrapolated
    /// to `t1`, or `None` without a reference.
    ///
    /// The reference angle is the *trailing* edge of the reference sector,
    /// since the reference command had just finished reading/writing it.
    pub fn head_angle(&self, t1: SimTime) -> Option<f64> {
        let r = self.reference?;
        let chs = self
            .geometry
            .lba_to_chs(r.lba)
            .expect("reference validated at installation");
        let track = self.geometry.track_index(chs);
        let spt = self.geometry.spt_of_track(track);
        let edge = self.geometry.sector_angle(track, chs.sector) + 1.0 / f64::from(spt);
        let period = self.rotation_period.as_nanos();
        let elapsed = t1.saturating_duration_since(r.t0).as_nanos() % period;
        let frac = elapsed as f64 / period as f64;
        Some((edge + frac).rem_euclid(1.0))
    }

    /// Cross-track prediction: the sector of `track` that the head can
    /// reach first when a command is issued at `t1`, compensated by δ plus
    /// `extra_lead` sectors (of the target track). Used to pick "the
    /// sector on the next track that is physically the closest" when
    /// repositioning.
    ///
    /// Returns the (sector, LBA) pair, or `None` without a reference.
    ///
    /// # Panics
    ///
    /// Panics if `track` is outside the disk.
    pub fn predict_on_track(&self, track: u64, t1: SimTime, extra_lead: u32) -> Option<(u32, Lba)> {
        let angle = self.head_angle(t1)?;
        let spt = self.geometry.spt_of_track(track);
        let lead = f64::from(self.delta + extra_lead) / f64::from(spt);
        let sector = self
            .geometry
            .next_sector_from_angle(track, (angle + lead).rem_euclid(1.0));
        Some((
            sector,
            self.geometry.track_first_lba(track) + u64::from(sector),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trail_disk::profiles;

    fn predictor(delta: u32) -> HeadPredictor {
        let p = profiles::seagate_st41601n();
        HeadPredictor::new(p.geometry, p.mech.rotation_period, delta)
    }

    #[test]
    fn no_reference_means_no_prediction() {
        let p = predictor(10);
        assert_eq!(p.predict_same_track(SimTime::ZERO), None);
        assert_eq!(p.head_angle(SimTime::ZERO), None);
        assert_eq!(p.predict_on_track(1, SimTime::ZERO, 0), None);
    }

    #[test]
    fn prediction_advances_with_time() {
        let mut p = predictor(0);
        p.set_reference(SimTime::ZERO, 0);
        let period = profiles::seagate_st41601n().mech.rotation_period;
        let spt = 90u64;
        // Just past k sector times, the prediction advances k sectors (the
        // paper's formula floors, and period/spt truncates to nanoseconds,
        // so probe a nanosecond past the boundary).
        for k in [1u64, 5, 44, 89] {
            let t = SimTime::ZERO + period * k / spt + trail_sim::SimDuration::from_nanos(2);
            let lba = p.predict_same_track(t).unwrap();
            assert_eq!(lba, k % spt, "k={k}");
        }
        // A whole revolution wraps back.
        let t = SimTime::ZERO + period;
        assert_eq!(p.predict_same_track(t).unwrap(), 0);
    }

    #[test]
    fn delta_shifts_prediction() {
        let mut p = predictor(12);
        p.set_reference(SimTime::ZERO, 5);
        assert_eq!(p.predict_same_track(SimTime::ZERO).unwrap(), 17);
        // Near the end of the track the prediction wraps modulo SPT.
        let mut p = predictor(12);
        p.set_reference(SimTime::ZERO, 85);
        assert_eq!(p.predict_same_track(SimTime::ZERO).unwrap(), (85 + 12) % 90);
    }

    #[test]
    fn prediction_matches_simulated_head() {
        // End-to-end honesty check: a write issued to the predicted sector
        // experiences (almost) no rotational latency on the real model.
        use trail_disk::{Disk, DiskCommand, SECTOR_SIZE};
        use trail_sim::Simulator;

        let profile = profiles::seagate_st41601n();
        let mech = profile.mech.clone();
        let mut sim = Simulator::new();
        let disk = Disk::new("log", profile.clone());
        // Reference: read sector 0 (blocking).
        let res =
            trail_probe::run_blocking(&mut sim, &disk, DiskCommand::Read { lba: 0, count: 1 })
                .unwrap();
        // δ must cover command overhead (~9.7 sectors) plus one sector of
        // reference-edge offset plus one sector of formula floor loss —
        // exactly what the probe's recommended value (minimal + margin)
        // provides. Sweep several issue delays to hit varied phases.
        let mut p = HeadPredictor::new(profile.geometry.clone(), mech.rotation_period, 13);
        p.set_reference(res.completed, 0);
        let mut worst = trail_sim::SimDuration::ZERO;
        let mut at = res.completed;
        for delay_us in [0u64, 777, 3_456, 5_000, 9_999] {
            at = at.max(sim.now());
            sim.run_until(at + trail_sim::SimDuration::from_micros(delay_us));
            let target = p.predict_same_track(sim.now()).unwrap();
            let wres = trail_probe::run_blocking(
                &mut sim,
                &disk,
                DiskCommand::Write {
                    lba: target,
                    data: vec![0u8; SECTOR_SIZE].into(),
                },
            )
            .unwrap();
            worst = worst.max(wres.breakdown.rotation);
            // Each completed write refreshes the reference, as the driver
            // does.
            p.set_reference(wres.completed, target);
            at = wres.completed;
        }
        // Residual rotational latency stays below the paper's 0.5 ms claim
        // (§5.1), an order of magnitude under the 5.5 ms average.
        assert!(
            worst.as_millis_f64() < 0.5,
            "residual rotation {} too large",
            worst
        );
    }

    #[test]
    fn cross_track_prediction_respects_skew() {
        let profile = profiles::seagate_st41601n();
        let g = profile.geometry.clone();
        let mut p = predictor(0);
        p.set_reference(SimTime::ZERO, 0);
        // At t0, head angle = trailing edge of sector 0 of track 0.
        let angle = p.head_angle(SimTime::ZERO).unwrap();
        assert!((angle - 1.0 / 90.0).abs() < 1e-9);
        let (sector, lba) = p.predict_on_track(1, SimTime::ZERO, 0).unwrap();
        // The chosen sector's start on track 1 must not precede the head.
        let target_angle = g.sector_angle(1, sector);
        let forward = (target_angle - angle).rem_euclid(1.0);
        assert!(
            forward < 1.5 / 90.0,
            "picked sector {sector} is {forward} of a revolution ahead"
        );
        assert_eq!(lba, g.track_first_lba(1) + u64::from(sector));
    }

    #[test]
    #[should_panic(expected = "outside the disk")]
    fn reference_outside_disk_panics() {
        let mut p = predictor(0);
        p.set_reference(SimTime::ZERO, u64::MAX);
    }

    #[test]
    fn clear_reference_disables_prediction() {
        let mut p = predictor(0);
        p.set_reference(SimTime::ZERO, 0);
        assert!(p.predict_same_track(SimTime::ZERO).is_some());
        p.clear_reference();
        assert!(p.predict_same_track(SimTime::ZERO).is_none());
        assert_eq!(p.reference(), None);
    }
}
