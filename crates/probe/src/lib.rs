//! # trail-probe: disk timing calibration
//!
//! Trail's head-position prediction (paper §3.1) needs three quantities the
//! drive's mode pages do not report: the **rotation period**, the **track
//! skew** actually in effect, and **δ** — how far ahead of the head a
//! command must aim, "an empirically derived value to compensate for the
//! command processing overhead and other inherent overhead".
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
//! - [`calibrate_track_leads`] — the same experiment as the durations the
//!   driver aims by: a write on the reference's own track after a read
//!   and after a write, and a read of the next track across a head switch
//!   and across a cylinder crossing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use trail_disk::{CommandKind, Disk, DiskCommand, DiskError, DiskResult, SECTOR_SIZE};
use trail_sim::{IoError, SimDuration, Simulator};

/// Why a command run to completion produced no result.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProbeError {
    /// The disk refused the command as malformed ([`Disk::submit`]'s
    /// synchronous error).
    Disk(DiskError),
    /// The disk accepted the command and delivered this failure.
    Io(IoError),
}

impl fmt::Display for ProbeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbeError::Disk(e) => write!(f, "disk error: {e}"),
            ProbeError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for ProbeError {}

impl From<DiskError> for ProbeError {
    fn from(e: DiskError) -> Self {
        ProbeError::Disk(e)
    }
}

impl From<IoError> for ProbeError {
    fn from(e: IoError) -> Self {
        ProbeError::Io(e)
    }
}

/// Runs one disk command to completion, returning its result.
///
/// This is the offline-calibration idiom: the probe owns the simulation, so
/// draining the event queue is exactly "wait for the interrupt". Do not use
/// it while other actors have events scheduled — they would run too.
///
/// # Errors
///
/// [`ProbeError::Disk`] for a command [`Disk::submit`] refuses;
/// [`ProbeError::Io`] with the delivered error for one the disk failed
/// (`PoweredOff` on a dark disk, `MediaFailed` on a failed one).
pub fn run_blocking(
    sim: &mut Simulator,
    disk: &Disk,
    cmd: DiskCommand,
) -> Result<DiskResult, ProbeError> {
    let res = sim.block_on(|sim, done| disk.submit(sim, cmd, done))?;
    sim.run();
    Ok(res?)
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
/// # Ok::<(), trail_probe::ProbeError>(())
/// ```
pub fn measure_rotation_period(
    sim: &mut Simulator,
    disk: &Disk,
    samples: usize,
) -> Result<SimDuration, ProbeError> {
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
) -> Result<u32, ProbeError> {
    let geometry = disk.geometry();
    if track + 1 >= geometry.total_tracks() {
        return Err(DiskError::OutOfRange.into());
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
}

/// Runs the paper's δ-calibration experiment on `track`.
///
/// For each candidate δ, the probe takes a reference point by reading
/// sector 0 of `track` (so the head has just passed it), immediately issues
/// a single-sector write to sector δ of the same track, and measures the
/// latency. If δ under-compensates for the command overhead, the target
/// sector has already passed and the write pays a full revolution; the
/// smallest δ that avoids this is the calibration result (paper §3.1: "the
/// smallest δ value that does not incur a full rotation delay"). δ counts
/// from the reference sector, so it runs from 1 (the sector the head is
/// at) to the track's length (the reference sector a turn later).
///
/// The probe writes zeros into the calibration track; run it before the
/// log disk is put into service.
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
/// let period = trail_probe::measure_rotation_period(&mut sim, &disk, 3)?;
/// let cal = trail_probe::calibrate_delta(&mut sim, &disk, 0, period)?;
/// // The ST41601N-class profile has ~1.2 ms of write overhead ≈ 10 sectors;
/// // the paper reports δ < 15 for this drive.
/// assert!(cal.minimal < 15, "delta {} too large", cal.minimal);
/// # Ok::<(), trail_probe::ProbeError>(())
/// ```
pub fn calibrate_delta(
    sim: &mut Simulator,
    disk: &Disk,
    track: u64,
    rotation_period: SimDuration,
) -> Result<DeltaCalibration, ProbeError> {
    let (latencies, minimal) = sweep(
        sim,
        disk,
        (CommandKind::Read, track),
        track,
        CommandKind::Write,
        rotation_period,
        true,
    )?;
    Ok(DeltaCalibration {
        samples: (1..)
            .zip(latencies)
            .map(|(delta, latency)| DeltaSample { delta, latency })
            .collect(),
        minimal: minimal.map_or(0, |lead| lead + 1),
    })
}

/// Slack added on top of every minimal clearing lead: one sector of the
/// probed track, against the phase rounding of landing on a sector
/// boundary.
pub const TRACK_LEAD_SLACK: u32 = 1;

/// How long a one-sector command, issued the instant the previous command
/// finished, needs before it can transfer on a given track: the angular
/// lead the driver aims ahead of the head (paper §3.1's δ on the
/// reference's own track; "the sector on the next track that is
/// physically the closest" when it repositions).
///
/// Durations, not sectors: the log ring crosses zones, and the same time
/// is a different number of sectors in each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrackLeads {
    /// A write on the reference's own track after a read.
    pub after_read: SimDuration,
    /// A write on the reference's own track after a write, which also
    /// pays the drive's write-after-write delay.
    pub after_write: SimDuration,
    /// A read on the next surface of the same cylinder (a head switch).
    pub switch: SimDuration,
    /// A read on the first surface of the next cylinder (a track-to-track
    /// seek).
    pub crossing: SimDuration,
}

/// Calibrates all four [`TrackLeads`] with the δ technique: a one-sector
/// write on `track` after a read of it and after a write to it, and a
/// one-sector read of the next track after a read on a track in the middle
/// of cylinder 0 (last track of cylinder 0 for the crossing). Each lead is
/// the first that does not pay a full revolution, plus
/// [`TRACK_LEAD_SLACK`], converted to time with the probed
/// `rotation_period`; each sweep stops there. The same-track sweeps write
/// zeros into `track`.
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
/// let leads = trail_probe::calibrate_track_leads(&mut sim, &disk, 1, period)?;
/// // 1.2 ms write overhead, plus 0.15 ms after a write; 0.4 ms read
/// // overhead + 1.0 ms head switch, 1.7 ms track-to-track seek.
/// assert!(leads.after_read.as_millis_f64() > 1.2 && leads.after_write.as_millis_f64() > 1.35);
/// assert!(leads.switch.as_millis_f64() > 1.4 && leads.crossing.as_millis_f64() > 2.1);
/// assert!(leads.after_read < leads.after_write && leads.switch < leads.crossing);
/// # Ok::<(), trail_probe::ProbeError>(())
/// ```
pub fn calibrate_track_leads(
    sim: &mut Simulator,
    disk: &Disk,
    track: u64,
    rotation_period: SimDuration,
) -> Result<TrackLeads, ProbeError> {
    let mut lead = |reference, to, probe| {
        let (_, minimal) = sweep(sim, disk, reference, to, probe, rotation_period, false)?;
        let spt = disk.geometry().spt_of_track(to);
        let sectors = (minimal.unwrap_or(spt - 1) + TRACK_LEAD_SLACK).min(spt);
        Ok::<_, ProbeError>(rotation_period * u64::from(sectors) / u64::from(spt))
    };
    let heads = u64::from(disk.geometry().heads());
    let crossing = lead((CommandKind::Read, heads - 1), heads, CommandKind::Read)?;
    Ok(TrackLeads {
        after_read: lead((CommandKind::Read, track), track, CommandKind::Write)?,
        after_write: lead((CommandKind::Write, track), track, CommandKind::Write)?,
        switch: if heads > 1 {
            lead((CommandKind::Read, heads - 2), heads - 1, CommandKind::Read)?
        } else {
            crossing
        },
        crossing,
    })
}

/// The δ technique, behind both [`calibrate_delta`] and
/// [`calibrate_track_leads`]: for a lead of 0, 1, 2, … sectors of track
/// `to`, a one-sector `reference` command — its kind, and its track, whose
/// sector 0 it reads or writes — leaves the head at that sector's trailing
/// edge; then a one-sector `probe` command goes to the first sector of `to`
/// that starts at least the lead further on. A probe that pays a full
/// revolution (three quarters of `period` discriminates) came too soon.
///
/// Returns every probe's latency in lead order, and the first lead that
/// cleared (`None` if none did); the sweep stops at that lead unless
/// `whole`.
///
/// # Errors
///
/// Propagates submission errors; [`DiskError::OutOfRange`] if either track
/// is outside the disk.
fn sweep(
    sim: &mut Simulator,
    disk: &Disk,
    (reference, from): (CommandKind, u64),
    to: u64,
    probe: CommandKind,
    period: SimDuration,
    whole: bool,
) -> Result<(Vec<SimDuration>, Option<u32>), ProbeError> {
    let geometry = disk.geometry();
    if from.max(to) >= geometry.total_tracks() {
        return Err(DiskError::OutOfRange.into());
    }
    let one_sector = |kind, lba| match kind {
        CommandKind::Write => DiskCommand::Write {
            lba,
            data: vec![0u8; SECTOR_SIZE].into(),
        },
        _ => DiskCommand::Read { lba, count: 1 },
    };
    let spt = geometry.spt_of_track(to);
    let edge = geometry.sector_angle(from, 0) + 1.0 / f64::from(geometry.spt_of_track(from));
    let threshold = period.mul_f64(0.75);
    let mut latencies = Vec::new();
    let mut minimal = None;
    for lead in 0..spt {
        run_blocking(
            sim,
            disk,
            one_sector(reference, geometry.track_first_lba(from)),
        )?;
        let sector = geometry.next_sector_from_angle(to, edge + f64::from(lead) / f64::from(spt));
        let lba = geometry.track_first_lba(to) + u64::from(sector);
        let res = run_blocking(sim, disk, one_sector(probe, lba))?;
        let latency = res.completed.duration_since(res.issued);
        latencies.push(latency);
        if minimal.is_none() && latency < threshold {
            minimal = Some(lead);
            if !whole {
                break;
            }
        }
    }
    Ok((latencies, minimal))
}

/// Estimates the fixed per-write command overhead as the best observed
/// single-sector write latency minus the transfer time, over the whole δ
/// sweep of `track` (as [`calibrate_delta`] runs it, so one offset is
/// guaranteed to land within a sector of the overhead).
///
/// # Errors
///
/// Propagates submission errors.
pub fn estimate_write_overhead(
    sim: &mut Simulator,
    disk: &Disk,
    track: u64,
    rotation_period: SimDuration,
) -> Result<SimDuration, ProbeError> {
    let cal = calibrate_delta(sim, disk, track, rotation_period)?;
    let best = cal.samples.iter().map(|s| s.latency).min();
    let transfer = disk
        .mechanics()
        .sector_time(disk.geometry().spt_of_track(track));
    Ok(best.expect("a track has sectors").saturating_sub(transfer))
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
            Err(ProbeError::Disk(DiskError::OutOfRange))
        );
    }

    #[test]
    fn delta_calibration_finds_overhead_in_sectors() {
        let (mut sim, disk) = setup();
        let period = disk.mechanics().rotation_period;
        let cal = calibrate_delta(&mut sim, &disk, 0, period).unwrap();
        let mech = disk.mechanics();
        let spt = disk.geometry().spt_of_track(0);
        // Expected: ceil(write_overhead / sector_time) plus head-just-past-
        // sector-0 geometry; must be in the ballpark of 10-12 and below the
        // paper's bound of 15 for this drive.
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
        // Under-compensated deltas pay (almost) a full rotation.
        let at = |delta: u32| cal.samples.iter().find(|s| s.delta == delta).unwrap();
        let (under, over) = (at(cal.minimal - 2), at(cal.minimal));
        assert!(
            under.latency > over.latency + mech.rotation_period.mul_f64(0.5),
            "under-compensated delta must cost ~a rotation: under {} over {}",
            under.latency,
            over.latency
        );
        // Every sector of the track was tried, the reference sector last.
        let deltas: Vec<u32> = cal.samples.iter().map(|s| s.delta).collect();
        assert_eq!(deltas, (1..=spt).collect::<Vec<_>>());
    }

    #[test]
    fn well_compensated_write_latency_matches_paper_anchor() {
        // With a calibrated delta, a single-sector write should land near
        // 1.4 ms on the log-disk profile (paper §5.1).
        let (mut sim, disk) = setup();
        let period = disk.mechanics().rotation_period;
        let cal = calibrate_delta(&mut sim, &disk, 0, period).unwrap();
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
            let leads = calibrate_track_leads(&mut sim, &disk, 1, mech.rotation_period).unwrap();
            let sector = mech.sector_time(disk.geometry().spt_of_track(0));
            let after_write = mech.write_overhead + mech.write_after_write;
            let switch = mech.read_overhead + mech.head_switch;
            let crossing = mech.read_overhead + mech.seek.track_to_track().max(mech.head_switch);
            // Each lead clears its command, by at most the slack plus the
            // one sector the discrete sweep can overshoot by.
            for (lead, cost) in [
                (leads.after_read, mech.write_overhead),
                (leads.after_write, after_write),
                (leads.switch, switch),
                (leads.crossing, crossing),
            ] {
                assert!(lead >= cost, "lead {lead} below its command {cost}");
                assert!(lead <= cost + sector * 2, "lead {lead} far above {cost}");
            }
        }
        // At spt 90: 1.2 ms is 9.7 sectors, 1.35 ms 10.9, 1.4 ms 11.3 and
        // 2.1 ms 17.0, so the first clearing leads are 10, 11, 12 and 18
        // sectors.
        let (mut sim, disk) = setup();
        let period = disk.mechanics().rotation_period;
        let leads = calibrate_track_leads(&mut sim, &disk, 1, period).unwrap();
        let sectors = |n: u64| period * (n + u64::from(TRACK_LEAD_SLACK)) / 90;
        assert_eq!(
            [
                leads.after_read,
                leads.after_write,
                leads.switch,
                leads.crossing
            ],
            [sectors(10), sectors(11), sectors(12), sectors(18)]
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
            calibrate_track_leads(&mut sim, &disk, 1, period),
            Err(ProbeError::Disk(DiskError::OutOfRange))
        );
    }

    #[test]
    fn write_overhead_estimate_close_to_model() {
        let (mut sim, disk) = setup();
        let period = disk.mechanics().rotation_period;
        let est = estimate_write_overhead(&mut sim, &disk, 5, period).unwrap();
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
