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
//! where δ compensates for command-processing overhead. The predictor
//! here keeps the formula's idea but not its floor or its sector count: it
//! converts the reference to an exact platter angle (using the geometry's
//! skew table, so the target may be another track — "the sector on the
//! next track that is physically the closest") and picks the first sector
//! of the target track that starts a calibrated *lead* past it. The lead
//! is a duration, so it means the same in every zone, and it depends on
//! the move and on the command that set the reference
//! ([`trail_probe::calibrate_track_leads`]): on the reference's own track,
//! a write after a read or after a write (which pays the drive's
//! write-after-write delay); on the next track, a head switch within a
//! cylinder or a crossing to the next one.
//!
//! The predictor uses **only** information available to real driver
//! software: the reference point, the probed geometry and the four leads.
//! It never reads the simulator's spindle phase.

use trail_disk::{CommandKind, DiskGeometry, Lba};
use trail_probe::TrackLeads;
use trail_sim::{SimDuration, SimTime};

/// A prediction reference point: at `t0`, the head had just passed the far
/// edge of `lba`, finishing a command of `kind`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reference {
    /// When the reference command completed.
    pub t0: SimTime,
    /// The last sector that passed under the head.
    pub lba: Lba,
    /// What the reference command was: a write after a write pays the
    /// drive's write-after-write delay.
    pub kind: CommandKind,
}

/// Software-only disk-head position predictor.
///
/// # Examples
///
/// ```
/// use trail_disk::{profiles, CommandKind};
/// use trail_sim::SimTime;
/// use trail_core::{HeadPredictor, TrackLeads};
///
/// let p = profiles::seagate_st41601n();
/// let period = p.mech.rotation_period;
/// let leads = TrackLeads {
///     after_read: period * 11 / 90,
///     after_write: period * 12 / 90,
///     switch: period * 13 / 90,
///     crossing: period * 19 / 90,
/// };
/// let mut predictor = HeadPredictor::new(p.geometry, period, leads);
/// predictor.set_reference(SimTime::ZERO, 0, CommandKind::Write);
/// // Immediately after a write of sector 0, the next write on its track
/// // aims the after-write lead past sector 0's trailing edge.
/// assert_eq!(predictor.predict_on_track(0, SimTime::ZERO), Some((13, 13)));
/// ```
#[derive(Clone, Debug)]
pub struct HeadPredictor {
    geometry: DiskGeometry,
    rotation_period: SimDuration,
    leads: TrackLeads,
    reference: Option<Reference>,
}

impl HeadPredictor {
    /// Creates a predictor with no reference point.
    ///
    /// # Panics
    ///
    /// Panics if `rotation_period` is zero.
    pub fn new(geometry: DiskGeometry, rotation_period: SimDuration, leads: TrackLeads) -> Self {
        assert!(
            !rotation_period.is_zero(),
            "rotation period must be positive"
        );
        HeadPredictor {
            geometry,
            rotation_period,
            leads,
            reference: None,
        }
    }

    /// The current reference point, if any.
    pub fn reference(&self) -> Option<Reference> {
        self.reference
    }

    /// Installs a new reference point: at `t0` the head had just passed
    /// `lba` (i.e. a command of `kind` whose final sector was `lba`
    /// completed at `t0`).
    ///
    /// # Panics
    ///
    /// Panics if `lba` is outside the disk.
    pub fn set_reference(&mut self, t0: SimTime, lba: Lba, kind: CommandKind) {
        assert!(
            self.geometry.lba_to_chs(lba).is_some(),
            "reference lba {lba} outside the disk"
        );
        self.reference = Some(Reference { t0, lba, kind });
    }

    /// Discards the reference point (predictions become unavailable until
    /// the next repositioning establishes a new one).
    pub fn clear_reference(&mut self) {
        self.reference = None;
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

    /// The sector of `track` whose start the head reaches first a lead
    /// after `t1`, when a command is issued then: on the reference's own
    /// track, where the next record write lands (the lead after a read or
    /// after a write, by the reference's kind); on another, "the sector on
    /// the next track that is physically the closest", where a
    /// repositioning read lands (the head-switch lead within the
    /// reference's cylinder, the cylinder-crossing lead across one).
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
        let lead = if track == from && r.kind == CommandKind::Write {
            self.leads.after_write
        } else if track == from {
            self.leads.after_read
        } else if cylinder(track) == cylinder(from) {
            self.leads.switch
        } else {
            self.leads.crossing
        };
        let lead = lead.as_nanos() as f64 / self.rotation_period.as_nanos() as f64;
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

    /// The ST41601N's calibrated leads: 11, 12, 13 and 19 sectors at spt 90.
    fn leads() -> TrackLeads {
        let period = profiles::seagate_st41601n().mech.rotation_period;
        TrackLeads {
            after_read: period * 11 / 90,
            after_write: period * 12 / 90,
            switch: period * 13 / 90,
            crossing: period * 19 / 90,
        }
    }

    fn predictor() -> HeadPredictor {
        let p = profiles::seagate_st41601n();
        HeadPredictor::new(p.geometry, p.mech.rotation_period, leads())
    }

    #[test]
    fn no_reference_means_no_prediction() {
        let p = predictor();
        assert_eq!(p.head_angle(SimTime::ZERO), None);
        assert_eq!(p.predict_on_track(0, SimTime::ZERO), None);
        assert_eq!(p.predict_on_track(1, SimTime::ZERO), None);
    }

    #[test]
    fn prediction_advances_with_time() {
        let mut p = predictor();
        p.set_reference(SimTime::ZERO, 0, CommandKind::Read);
        let period = profiles::seagate_st41601n().mech.rotation_period;
        let spt = 90u64;
        // The head starts at the trailing edge of sector 0 and aims 11
        // sectors on, just short of sector 12's start. Half a sector past
        // k sector times, the prediction has advanced k + 1 sectors (the
        // exact angle is not floored, so probe clear of the boundaries).
        for k in [1u64, 5, 44, 89] {
            let t = SimTime::ZERO + period * (2 * k + 1) / (2 * spt);
            let (sector, lba) = p.predict_on_track(0, t).unwrap();
            assert_eq!(u64::from(sector), (12 + k + 1) % spt, "k={k}");
            assert_eq!(lba, u64::from(sector), "k={k}");
        }
        // A whole revolution wraps back.
        let t = SimTime::ZERO + period;
        assert_eq!(p.predict_on_track(0, t), Some((12, 12)));
    }

    #[test]
    fn delta_shifts_prediction() {
        // The paper's δ is the same-track lead: with the head at the
        // trailing edge of sector 5, a write after a read aims 11 sectors
        // on and one after a write 12.
        let mut p = predictor();
        p.set_reference(SimTime::ZERO, 5, CommandKind::Read);
        assert_eq!(p.predict_on_track(0, SimTime::ZERO), Some((17, 17)));
        p.set_reference(SimTime::ZERO, 5, CommandKind::Write);
        assert_eq!(p.predict_on_track(0, SimTime::ZERO), Some((18, 18)));
        // Near the end of the track the prediction wraps modulo SPT.
        p.set_reference(SimTime::ZERO, 85, CommandKind::Write);
        assert_eq!(
            p.predict_on_track(0, SimTime::ZERO),
            Some(((85 + 1 + 12) % 90, (85 + 1 + 12) % 90))
        );
    }

    #[test]
    fn prediction_matches_simulated_head() {
        // End-to-end honesty check: a write issued to the predicted sector
        // experiences (almost) no rotational latency on the real model,
        // with the leads the probe measures.
        use trail_disk::{Disk, DiskCommand, SECTOR_SIZE};
        use trail_sim::Simulator;

        let profile = profiles::seagate_st41601n();
        let period = profile.mech.rotation_period;
        let mut sim = Simulator::new();
        let disk = Disk::new("log", profile.clone());
        let leads = trail_probe::calibrate_track_leads(&mut sim, &disk, 1, period).unwrap();
        // Reference: read sector 0 (blocking).
        let res =
            trail_probe::run_blocking(&mut sim, &disk, DiskCommand::Read { lba: 0, count: 1 })
                .unwrap();
        let mut p = HeadPredictor::new(profile.geometry.clone(), period, leads);
        p.set_reference(res.completed, 0, CommandKind::Read);
        let mut worst = SimDuration::ZERO;
        let mut at = res.completed;
        // Sweep several issue delays to hit varied phases.
        for delay_us in [0u64, 777, 3_456, 5_000, 9_999] {
            sim.run_until(at + SimDuration::from_micros(delay_us));
            let (_, target) = p.predict_on_track(0, sim.now()).unwrap();
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
            p.set_reference(wres.completed, target, CommandKind::Write);
            at = wres.completed;
        }
        // Residual rotational latency stays within the lead's two sectors
        // over the overhead (the sweep's rounding and the slack) plus the
        // sector boundary, far below the paper's 0.5 ms claim (§5.1).
        assert!(
            worst < period * 3 / 90,
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
            trail_probe::calibrate_track_leads(&mut sim, &disk, 1, profile.mech.rotation_period)
                .unwrap();
        let mut p = HeadPredictor::new(g.clone(), profile.mech.rotation_period, leads);
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
                p.set_reference(res.completed, reference, CommandKind::Read);
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
        let mut p = predictor();
        p.set_reference(SimTime::ZERO, 0, CommandKind::Write);
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
        let mut p = predictor();
        p.set_reference(SimTime::ZERO, u64::MAX, CommandKind::Read);
    }

    #[test]
    fn clear_reference_disables_prediction() {
        let mut p = predictor();
        p.set_reference(SimTime::ZERO, 0, CommandKind::Read);
        assert!(p.predict_on_track(0, SimTime::ZERO).is_some());
        p.clear_reference();
        assert!(p.predict_on_track(0, SimTime::ZERO).is_none());
        assert_eq!(p.reference(), None);
    }
}
