//! # trail-probe: disk timing calibration
//!
//! Trail's head-position prediction (paper §3.1) needs three quantities the
//! drive's mode pages do not report: the **rotation period**, the **track
//! skew** actually in effect, and **δ** — the command-processing overhead
//! expressed in sectors, "an empirically derived value to compensate for
//! the command processing overhead and other inherent overhead".
//!
//! This crate reproduces the paper's calibration methodology as *timed
//! experiments against the device interface only*: no function here peeks
//! at the simulator's internal spindle phase. The formatting tool runs
//! these probes once and stores the results in the log-disk header.
//!
//! - [`measure_rotation_period`] — back-to-back reads of one sector are
//!   spaced exactly one revolution apart;
//! - [`measure_track_skew`] — the phase difference between sector 0 of two
//!   adjacent tracks, recovered from completion timestamps;
//! - [`calibrate_delta`] — the paper's experiment: single-sector writes at
//!   increasing offsets δ from a reference point; the smallest δ that does
//!   not pay a full rotation is the calibration result;
//! - [`calibrate_track_leads`] — the same experiment across a track
//!   boundary: how far ahead on the *next* track a read must aim to
//!   survive a head switch, and a cylinder crossing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use trail_disk::{Disk, DiskCommand, DiskError, DiskResult, SECTOR_SIZE};
use trail_sim::{SimDuration, Simulator};

/// Runs one disk command to completion, returning its result.
///
/// This is the offline-calibration idiom: the probe owns the simulation, so
/// draining the event queue is exactly "wait for the interrupt". Do not use
/// it while other actors have events scheduled — they would run too.
///
/// # Errors
///
/// Propagates submission errors from [`Disk::submit`]. A command the disk
/// dropped before completing is [`DiskError::PoweredOff`] when power was
/// cut under it, [`DiskError::Failed`] otherwise.
pub fn run_blocking(
    sim: &mut Simulator,
    disk: &Disk,
    cmd: DiskCommand,
) -> Result<DiskResult, DiskError> {
    let res = sim.block_on(|sim, done| disk.submit(sim, cmd, done))?;
    sim.run();
    res.map_err(|_| {
        if disk.is_powered() {
            DiskError::Failed
        } else {
            DiskError::PoweredOff
        }
    })
}

/// Measures the spindle rotation period by timing `samples` back-to-back
/// reads of the same sector.
///
/// After a read of sector *s* completes, the head has just passed *s*; the
/// next read of *s* must wait out the rest of the revolution, so
/// consecutive completions are spaced exactly one period apart (as long as
/// the command overhead is below one revolution).
///
/// # Errors
///
/// Propagates submission errors.
///
/// # Panics
///
/// Panics if `samples` is zero.
///
/// # Examples
///
/// ```
/// use trail_sim::Simulator;
/// use trail_disk::{profiles, Disk};
///
/// let mut sim = Simulator::new();
/// let disk = Disk::new("log", profiles::seagate_st41601n());
/// let period = trail_probe::measure_rotation_period(&mut sim, &disk, 5)?;
/// assert!((period.as_millis_f64() - 11.111).abs() < 0.01);
/// # Ok::<(), trail_disk::DiskError>(())
/// ```
pub fn measure_rotation_period(
    sim: &mut Simulator,
    disk: &Disk,
    samples: usize,
) -> Result<SimDuration, DiskError> {
    assert!(samples > 0, "need at least one sample");
    let lba = 0;
    let mut last = run_blocking(sim, disk, DiskCommand::Read { lba, count: 1 })?.completed;
    let mut periods = Vec::with_capacity(samples);
    for _ in 0..samples {
        let done = run_blocking(sim, disk, DiskCommand::Read { lba, count: 1 })?.completed;
        periods.push(done.duration_since(last));
        last = done;
    }
    periods.sort_unstable();
    Ok(periods[periods.len() / 2])
}

/// Measures the rotational skew (in sectors) between `track` and
/// `track + 1`, using only completion timestamps.
///
/// Reads sector 0 of each track back to back; the fractional-revolution
/// part of the completion spacing, corrected for the known rotation
/// period, is the angular offset between the two tracks' sector 0.
///
/// # Errors
///
/// Propagates submission errors; also returns [`DiskError::OutOfRange`] if
/// `track + 1` does not exist.
pub fn measure_track_skew(
    sim: &mut Simulator,
    disk: &Disk,
    track: u64,
    rotation_period: SimDuration,
) -> Result<u32, DiskError> {
    let geometry = disk.geometry();
    if track + 1 >= geometry.total_tracks() {
        return Err(DiskError::OutOfRange);
    }
    let spt = geometry.spt_of_track(track + 1);
    let a = run_blocking(
        sim,
        disk,
        DiskCommand::Read {
            lba: geometry.track_first_lba(track),
            count: 1,
        },
    )?;
    let b = run_blocking(
        sim,
        disk,
        DiskCommand::Read {
            lba: geometry.track_first_lba(track + 1),
            count: 1,
        },
    )?;
    let spacing = b.completed.duration_since(a.completed).as_nanos();
    let period = rotation_period.as_nanos();
    let frac = (spacing % period) as f64 / period as f64;
    Ok(((frac * f64::from(spt)).round() as u32) % spt)
}

/// One data point of the δ-calibration experiment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeltaSample {
    /// The sector offset tried.
    pub delta: u32,
    /// The measured single-sector write latency at that offset.
    pub latency: SimDuration,
}

/// The result of the paper's δ-calibration experiment.
#[derive(Clone, Debug)]
pub struct DeltaCalibration {
    /// Latency measured for every offset tried, in increasing δ order.
    pub samples: Vec<DeltaSample>,
    /// The smallest δ whose write did not pay a full rotation.
    pub minimal: u32,
    /// `minimal` plus a safety margin covering write-after-write delay and
    /// spindle-speed deviation — the value the Trail driver should use.
    pub recommended: u32,
}

/// Safety margin added on top of the minimal measured δ: one sector for
/// the prediction formula's floor, one for the write-after-write command
/// delay, and one so that the write-after-write case keeps a full sector
/// of slack against floating-point phase rounding.
pub const DELTA_SAFETY_MARGIN: u32 = 3;

/// Runs the paper's δ-calibration experiment on `track`.
///
/// For each candidate δ, the probe takes a reference point by reading
/// sector 0 of `track` (so the head has just passed it), immediately issues
/// a single-sector write to sector δ of the same track, and measures the
/// latency. If δ under-compensates for the command overhead, the target
/// sector has already passed and the write pays a full revolution; the
/// smallest δ that avoids this is the calibration result (paper §3.1: "the
/// smallest δ value that does not incur a full rotation delay").
///
/// The probe writes zeros into the calibration track; run it before the
/// log disk is put into service (the formatter does).
///
/// # Errors
///
/// Propagates submission errors.
///
/// # Examples
///
/// ```
/// use trail_sim::Simulator;
/// use trail_disk::{profiles, Disk};
///
/// let mut sim = Simulator::new();
/// let disk = Disk::new("log", profiles::seagate_st41601n());
/// let cal = trail_probe::calibrate_delta(&mut sim, &disk, 0)?;
/// // The ST41601N-class profile has ~1.2 ms of write overhead ≈ 10 sectors;
/// // the paper reports δ < 15 for this drive.
/// assert!(cal.minimal < 15, "delta {} too large", cal.minimal);
/// # Ok::<(), trail_disk::DiskError>(())
/// ```
pub fn calibrate_delta(
    sim: &mut Simulator,
    disk: &Disk,
    track: u64,
) -> Result<DeltaCalibration, DiskError> {
    let geometry = disk.geometry();
    let spt = geometry.spt_of_track(track);
    let base = geometry.track_first_lba(track);
    let mut samples = Vec::new();
    let mut minimal = None;
    // A write that avoids the full-rotation penalty completes well under
    // one revolution; use three quarters as the discriminator.
    let period = measure_rotation_period(sim, disk, 3)?;
    let threshold = period.mul_f64(0.75);
    for delta in 0..spt {
        // Reference point: head has just passed sector 0 of the track.
        run_blocking(
            sim,
            disk,
            DiskCommand::Read {
                lba: base,
                count: 1,
            },
        )?;
        let target = base + u64::from(delta % spt);
        let res = run_blocking(
            sim,
            disk,
            DiskCommand::Write {
                lba: target,
                data: vec![0u8; SECTOR_SIZE].into(),
            },
        )?;
        let latency = res.completed.duration_since(res.issued);
        samples.push(DeltaSample { delta, latency });
        if minimal.is_none() && latency < threshold {
            minimal = Some(delta);
        }
    }
    let minimal = minimal.unwrap_or(0);
    Ok(DeltaCalibration {
        samples,
        minimal,
        recommended: (minimal + DELTA_SAFETY_MARGIN).min(spt.saturating_sub(1)),
    })
}

/// Slack added on top of the minimal clearing cross-track lead: one sector
/// of the probed track, against the phase rounding of landing on a sector
/// boundary.
pub const TRACK_LEAD_SLACK: u32 = 1;

/// How long a one-sector read, issued the instant the previous command
/// finished, needs before it can transfer on the next track: the angular
/// lead the driver aims ahead of the head when it repositions (paper §3.1,
/// "the sector on the next track that is physically the closest").
///
/// Durations, not sectors: the log ring crosses zones, and the same time
/// is a different number of sectors in each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrackLeads {
    /// To the next surface of the same cylinder (a head switch).
    pub switch: SimDuration,
    /// To the first surface of the next cylinder (a track-to-track seek).
    pub crossing: SimDuration,
}

/// Calibrates both [`TrackLeads`] with the δ technique, reading only: a
/// reference read on a track in the middle of cylinder 0 (last track of
/// cylinder 0 for the crossing), then a read of the next track aimed
/// further and further ahead of where the reference left the head. The
/// first lead that does not pay a full revolution, plus
/// [`TRACK_LEAD_SLACK`], is the result; the sweep stops there. Leads are
/// converted to time with the probed `rotation_period`.
///
/// On a one-surface disk every next track is on the next cylinder, so the
/// switch lead is the crossing lead.
///
/// # Errors
///
/// Propagates submission errors; [`DiskError::OutOfRange`] if the disk has
/// a single cylinder.
///
/// # Examples
///
/// ```
/// use trail_sim::Simulator;
/// use trail_disk::{profiles, Disk};
///
/// let mut sim = Simulator::new();
/// let disk = Disk::new("log", profiles::seagate_st41601n());
/// let period = trail_probe::measure_rotation_period(&mut sim, &disk, 3)?;
/// let leads = trail_probe::calibrate_track_leads(&mut sim, &disk, period)?;
/// // 0.4 ms read overhead + 1.0 ms head switch, 1.7 ms track-to-track seek.
/// assert!(leads.switch.as_millis_f64() > 1.4 && leads.crossing.as_millis_f64() > 2.1);
/// assert!(leads.switch < leads.crossing);
/// # Ok::<(), trail_disk::DiskError>(())
/// ```
pub fn calibrate_track_leads(
    sim: &mut Simulator,
    disk: &Disk,
    rotation_period: SimDuration,
) -> Result<TrackLeads, DiskError> {
    let heads = u64::from(disk.geometry().heads());
    let crossing = track_lead(sim, disk, heads - 1, rotation_period)?;
    let switch = if heads > 1 {
        track_lead(sim, disk, heads - 2, rotation_period)?
    } else {
        crossing
    };
    Ok(TrackLeads { switch, crossing })
}

/// The cross-track lead from `track` to `track + 1` (see
/// [`calibrate_track_leads`]).
fn track_lead(
    sim: &mut Simulator,
    disk: &Disk,
    track: u64,
    period: SimDuration,
) -> Result<SimDuration, DiskError> {
    let geometry = disk.geometry();
    let next = track + 1;
    if next >= geometry.total_tracks() {
        return Err(DiskError::OutOfRange);
    }
    let spt = geometry.spt_of_track(next);
    let reference = geometry.track_first_lba(track);
    // The reference read leaves the head at the trailing edge of its sector.
    let edge = geometry.sector_angle(track, 0) + 1.0 / f64::from(geometry.spt_of_track(track));
    let threshold = period.mul_f64(0.75);
    let mut minimal = spt - 1;
    for lead in 0..spt {
        run_blocking(
            sim,
            disk,
            DiskCommand::Read {
                lba: reference,
                count: 1,
            },
        )?;
        let sector = geometry.next_sector_from_angle(next, edge + f64::from(lead) / f64::from(spt));
        let res = run_blocking(
            sim,
            disk,
            DiskCommand::Read {
                lba: geometry.track_first_lba(next) + u64::from(sector),
                count: 1,
            },
        )?;
        if res.completed.duration_since(res.issued) < threshold {
            minimal = lead;
            break;
        }
    }
    let sectors = (minimal + TRACK_LEAD_SLACK).min(spt);
    Ok(period * u64::from(sectors) / u64::from(spt))
}

/// Estimates the fixed per-write command overhead as the best observed
/// single-sector write latency minus the transfer time, sweeping `samples`
/// target offsets on `track` from a fixed reference point (the same
/// technique as [`calibrate_delta`], so one offset is guaranteed to land
/// within a sector of the overhead).
///
/// # Errors
///
/// Propagates submission errors.
///
/// # Panics
///
/// Panics if `samples` is zero.
pub fn estimate_write_overhead(
    sim: &mut Simulator,
    disk: &Disk,
    track: u64,
    samples: u32,
) -> Result<SimDuration, DiskError> {
    assert!(samples > 0, "need at least one sample");
    let geometry = disk.geometry();
    let spt = geometry.spt_of_track(track);
    let base = geometry.track_first_lba(track);
    let mut best = SimDuration::MAX;
    for i in 0..samples {
        // Reference point: head just passed sector 0 of the track.
        run_blocking(
            sim,
            disk,
            DiskCommand::Read {
                lba: base,
                count: 1,
            },
        )?;
        let lba = base + u64::from(i % spt);
        let res = run_blocking(
            sim,
            disk,
            DiskCommand::Write {
                lba,
                data: vec![0u8; SECTOR_SIZE].into(),
            },
        )?;
        best = best.min(res.completed.duration_since(res.issued));
    }
    let transfer = disk.mechanics().sector_time(spt);
    Ok(best.saturating_sub(transfer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use trail_disk::profiles;

    fn setup() -> (Simulator, Disk) {
        (
            Simulator::new(),
            Disk::new("log", profiles::seagate_st41601n()),
        )
    }

    #[test]
    fn rotation_period_matches_spindle() {
        let (mut sim, disk) = setup();
        let measured = measure_rotation_period(&mut sim, &disk, 7).unwrap();
        let truth = disk.mechanics().rotation_period;
        let err = measured.as_nanos().abs_diff(truth.as_nanos());
        assert!(err <= 2, "rotation estimate off by {err} ns");
    }

    #[test]
    fn rotation_period_on_tiny_disk() {
        let mut sim = Simulator::new();
        let disk = Disk::new("t", profiles::tiny_test_disk());
        let measured = measure_rotation_period(&mut sim, &disk, 5).unwrap();
        assert_eq!(measured, disk.mechanics().rotation_period);
    }

    #[test]
    fn track_skew_recovers_geometry_value() {
        let (mut sim, disk) = setup();
        let period = disk.mechanics().rotation_period;
        let geometry = disk.geometry();
        // Tracks 0 -> 1: same cylinder, pure track skew.
        let skew = measure_track_skew(&mut sim, &disk, 0, period).unwrap();
        assert_eq!(skew, geometry.track_skew());
        // Crossing a cylinder boundary (track heads-1 -> heads): track
        // skew + cylinder skew.
        let hb = u64::from(geometry.heads()) - 1;
        let skew_cyl = measure_track_skew(&mut sim, &disk, hb, period).unwrap();
        assert_eq!(skew_cyl, geometry.track_skew() + geometry.cyl_skew());
    }

    #[test]
    fn track_skew_rejects_last_track() {
        let (mut sim, disk) = setup();
        let period = disk.mechanics().rotation_period;
        let last = disk.geometry().total_tracks() - 1;
        assert_eq!(
            measure_track_skew(&mut sim, &disk, last, period),
            Err(DiskError::OutOfRange)
        );
    }

    #[test]
    fn delta_calibration_finds_overhead_in_sectors() {
        let (mut sim, disk) = setup();
        let cal = calibrate_delta(&mut sim, &disk, 0).unwrap();
        let mech = disk.mechanics();
        let spt = disk.geometry().spt_of_track(0);
        // Expected: ceil(write_overhead / sector_time) plus head-just-past-
        // sector-0 geometry; must be in the ballpark of 10-12 and below the
        // paper's bound of 15 for this drive class.
        let overhead_sectors = (mech.write_overhead.as_nanos() as f64
            / mech.sector_time(spt).as_nanos() as f64)
            .ceil() as u32;
        assert!(
            cal.minimal >= overhead_sectors.saturating_sub(1)
                && cal.minimal <= overhead_sectors + 2,
            "minimal delta {} vs overhead {} sectors",
            cal.minimal,
            overhead_sectors
        );
        assert!(cal.minimal < 15, "paper: delta < 15 on the ST41601N");
        assert_eq!(cal.recommended, cal.minimal + DELTA_SAFETY_MARGIN);
        // Under-compensated deltas pay (almost) a full rotation.
        let under = &cal.samples[(cal.minimal.saturating_sub(2)) as usize];
        let over = &cal.samples[cal.minimal as usize];
        assert!(
            under.latency > over.latency + mech.rotation_period.mul_f64(0.5),
            "under-compensated delta must cost ~a rotation: under {} over {}",
            under.latency,
            over.latency
        );
        // All deltas were tried.
        assert_eq!(cal.samples.len() as u32, spt);
    }

    #[test]
    fn well_compensated_write_latency_matches_paper_anchor() {
        // With a calibrated delta, a single-sector write should land near
        // 1.4 ms on the log-disk profile (paper §5.1).
        let (mut sim, disk) = setup();
        let cal = calibrate_delta(&mut sim, &disk, 0).unwrap();
        let best = cal
            .samples
            .iter()
            .map(|s| s.latency)
            .min()
            .expect("samples nonempty");
        let ms = best.as_millis_f64();
        assert!(
            (1.2..1.6).contains(&ms),
            "calibrated single-sector write took {ms} ms, expected ~1.4"
        );
    }

    #[test]
    fn track_leads_cover_the_modelled_switch_and_crossing() {
        for profile in [profiles::seagate_st41601n(), profiles::tiny_test_disk()] {
            let mut sim = Simulator::new();
            let disk = Disk::new("log", profile);
            let mech = disk.mechanics();
            let leads = calibrate_track_leads(&mut sim, &disk, mech.rotation_period).unwrap();
            let sector = mech.sector_time(disk.geometry().spt_of_track(0));
            let switch = mech.read_overhead + mech.head_switch;
            let crossing = mech.read_overhead + mech.seek.track_to_track().max(mech.head_switch);
            // Each lead clears its move, by at most the slack plus the one
            // sector the discrete sweep can overshoot by.
            for (lead, cost) in [(leads.switch, switch), (leads.crossing, crossing)] {
                assert!(lead >= cost, "lead {lead} below its move {cost}");
                assert!(lead <= cost + sector * 2, "lead {lead} far above {cost}");
            }
        }
        // At spt 90: 1.4 ms is 11.3 sectors and 2.1 ms is 17.0, so the
        // first clearing leads are 12 and 18 sectors.
        let (mut sim, disk) = setup();
        let period = disk.mechanics().rotation_period;
        let leads = calibrate_track_leads(&mut sim, &disk, period).unwrap();
        assert_eq!(
            leads.switch,
            period * (12 + u64::from(TRACK_LEAD_SLACK)) / 90
        );
        assert_eq!(
            leads.crossing,
            period * (18 + u64::from(TRACK_LEAD_SLACK)) / 90
        );
    }

    #[test]
    fn track_leads_need_a_second_cylinder() {
        let mut sim = Simulator::new();
        let mut profile = profiles::tiny_test_disk();
        profile.geometry = trail_disk::DiskGeometry::new(
            2,
            vec![trail_disk::Zone {
                cylinders: 1,
                spt: 40,
            }],
            4,
            3,
        );
        let disk = Disk::new("one-cylinder", profile);
        let period = disk.mechanics().rotation_period;
        assert_eq!(
            calibrate_track_leads(&mut sim, &disk, period),
            Err(DiskError::OutOfRange)
        );
    }

    #[test]
    fn write_overhead_estimate_close_to_model() {
        let (mut sim, disk) = setup();
        let est = estimate_write_overhead(&mut sim, &disk, 5, 40).unwrap();
        let truth = disk.mechanics().write_overhead;
        // The estimate includes residual rotation of the luckiest write, so
        // it upper-bounds the true overhead within a couple sector times.
        assert!(est >= truth, "estimate {est} below true overhead {truth}");
        assert!(
            est <= truth
                + disk.mechanics().sector_time(90) * 3
                + disk.mechanics().write_after_write,
            "estimate {est} too far above {truth}"
        );
    }
}
