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
//! geometry's skew table and aims ahead of it by a calibrated lead: the
//! head-switch lead within a cylinder, the cylinder-crossing lead across
//! one ([`trail_probe::calibrate_track_leads`]).
//!
//! The predictor uses **only** information available to real driver
//! software: the reference point, the probed geometry, δ and the two
//! leads. It never reads the simulator's spindle phase.

use trail_disk::{DiskGeometry, Lba};
use trail_probe::TrackLeads;
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
/// use trail_core::{HeadPredictor, TrackLeads};
///
/// let p = profiles::seagate_st41601n();
/// let leads = TrackLeads {
///     switch: SimDuration::from_micros(1_605),
///     crossing: SimDuration::from_micros(2_346),
/// };
/// let mut predictor = HeadPredictor::new(p.geometry, p.mech.rotation_period, 12, leads);
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
    leads: TrackLeads,
    reference: Option<Reference>,
}

impl HeadPredictor {
    /// Creates a predictor with no reference point.
    ///
    /// # Panics
    ///
    /// Panics if `rotation_period` is zero.
    pub fn new(
        geometry: DiskGeometry,
        rotation_period: SimDuration,
        delta: u32,
        leads: TrackLeads,
    ) -> Self {
        assert!(
            !rotation_period.is_zero(),
            "rotation period must be positive"
        );
        HeadPredictor {
            geometry,
            rotation_period,
            delta,
            leads,
            reference: None,
        }
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

    /// Cross-track prediction: the sector of `track` whose start the head
    /// reaches first when a one-sector read is issued at `t1` — "the
    /// sector on the next track that is physically the closest", where a
    /// repositioning read lands. The head aims ahead of its extrapolated
    /// angle by the head-switch lead when `track` shares the reference's
    /// cylinder and by the cylinder-crossing lead when it does not (δ on
    /// the reference's own track).
    ///
    /// Returns the (sector, LBA) pair, or `None` without a reference.
    ///
    /// # Panics
    ///
    /// Panics if `track` is outside the disk.
    pub fn predict_on_track(&self, track: u64, t1: SimTime) -> Option<(u32, Lba)> {
        let r = self.reference?;
        let angle = self.head_angle(t1)?;
        let from = self
            .geometry
            .track_of_lba(r.lba)
            .expect("reference validated at installation");
        let cylinder = |t| self.geometry.track_to_cyl_head(t).0;
        let period = self.rotation_period.as_nanos() as f64;
        let lead = if track == from {
            f64::from(self.delta) / f64::from(self.geometry.spt_of_track(track))
        } else if cylinder(track) == cylinder(from) {
            self.leads.switch.as_nanos() as f64 / period
        } else {
            self.leads.crossing.as_nanos() as f64 / period
        };
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

    /// The ST41601N's calibrated leads: 13 and 19 sectors at spt 90.
    fn leads() -> TrackLeads {
        let period = profiles::seagate_st41601n().mech.rotation_period;
        TrackLeads {
            switch: period * 13 / 90,
            crossing: period * 19 / 90,
        }
    }

    fn predictor(delta: u32) -> HeadPredictor {
        let p = profiles::seagate_st41601n();
        HeadPredictor::new(p.geometry, p.mech.rotation_period, delta, leads())
    }

    #[test]
    fn no_reference_means_no_prediction() {
        let p = predictor(10);
        assert_eq!(p.predict_same_track(SimTime::ZERO), None);
        assert_eq!(p.head_angle(SimTime::ZERO), None);
        assert_eq!(p.predict_on_track(1, SimTime::ZERO), None);
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
        let mut p = HeadPredictor::new(profile.geometry.clone(), mech.rotation_period, 13, leads());
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
    fn reposition_reads_keep_their_revolution_across_switches_and_crossings() {
        // The cross-track twin of the honesty check above: a read aimed by
        // `predict_on_track` at the next track waits well under a sector
        // or two, whether the move is a head switch or a cylinder crossing
        // — with the leads the probe measures, not the model's constants.
        use trail_disk::{Disk, DiskCommand};
        use trail_sim::Simulator;

        let profile = profiles::seagate_st41601n();
        let g = profile.geometry.clone();
        let mut sim = Simulator::new();
        let disk = Disk::new("log", profile.clone());
        let leads =
            trail_probe::calibrate_track_leads(&mut sim, &disk, profile.mech.rotation_period)
                .unwrap();
        let mut p = HeadPredictor::new(g.clone(), profile.mech.rotation_period, 14, leads);
        let last_surface = u64::from(g.heads()) - 1;
        for (from, crossing) in [(last_surface, true), (3, false)] {
            let mut worst = SimDuration::ZERO;
            for (i, delay_us) in [0u64, 333, 1_717, 4_200, 8_765, 10_999]
                .into_iter()
                .enumerate()
            {
                let reference = g.track_first_lba(from) + 13 * i as u64;
                let read = |sim: &mut Simulator, lba| {
                    trail_probe::run_blocking(sim, &disk, DiskCommand::Read { lba, count: 1 })
                        .unwrap()
                };
                let res = read(&mut sim, reference);
                p.set_reference(res.completed, reference);
                sim.run_until(res.completed + SimDuration::from_micros(delay_us));
                let (_, target) = p.predict_on_track(from + 1, sim.now()).unwrap();
                let moved = read(&mut sim, target);
                let expected_move = if crossing {
                    profile.mech.seek.track_to_track()
                } else {
                    profile.mech.head_switch
                };
                assert_eq!(moved.breakdown.seek, expected_move);
                worst = worst.max(moved.breakdown.rotation);
            }
            assert!(
                worst.as_millis_f64() < 0.5,
                "crossing {crossing}: residual rotation {worst} after a reposition"
            );
        }
    }

    #[test]
    fn cross_track_prediction_respects_skew() {
        let profile = profiles::seagate_st41601n();
        let g = profile.geometry.clone();
        let period = profile.mech.rotation_period.as_nanos() as f64;
        let mut p = predictor(0);
        p.set_reference(SimTime::ZERO, 0);
        // At t0, head angle = trailing edge of sector 0 of track 0.
        let angle = p.head_angle(SimTime::ZERO).unwrap();
        assert!((angle - 1.0 / 90.0).abs() < 1e-9);
        // Track 1 shares cylinder 0 (a head switch); track 17 is cylinder 1.
        for (track, lead) in [(1u64, leads().switch), (17, leads().crossing)] {
            let (sector, lba) = p.predict_on_track(track, SimTime::ZERO).unwrap();
            // The chosen sector starts at the lead, or within a sector past
            // it — never before.
            let target_angle = g.sector_angle(track, sector);
            let forward = (target_angle - angle).rem_euclid(1.0);
            let lead = lead.as_nanos() as f64 / period;
            assert!(
                forward + 1e-6 >= lead && forward < lead + 1.0 / 90.0,
                "track {track}: picked sector {sector} is {forward} of a revolution ahead"
            );
            assert_eq!(lba, g.track_first_lba(track) + u64::from(sector));
        }
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
