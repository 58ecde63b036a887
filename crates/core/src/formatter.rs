//! The Trail formatting tool (paper §4.1).
//!
//! "The formatting tool writes the log disk's physical geometry data as
//! well as the signature and crash variable to the dedicated tracks on the
//! log disk." The formatter also runs the timing probes whose results the
//! driver's prediction consumes: the rotation period and the four leads it
//! aims ahead of the head by (the paper's δ after a read and after a
//! write, a head switch and a cylinder crossing). It does **not** zero the
//! medium: bumping the epoch at every driver initialization is what
//! retires stale records.

use trail_disk::{Disk, DiskCommand, DiskGeometry, Lba};
use trail_probe::{calibrate_track_leads, measure_rotation_period, run_blocking};
use trail_sim::{SimDuration, Simulator};

use crate::error::TrailError;
use crate::format::LogDiskHeader;

/// The track sacrificed to the same-track lead calibration (overwritten
/// with zeros during formatting, before any records exist).
pub const CALIBRATION_TRACK: u64 = 1;

/// Options for [`format_log_disk`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FormatOptions {
    /// Use this many sectors of [`CALIBRATION_TRACK`] for both same-track
    /// leads (the paper's δ) instead of the calibrated ones. Must be
    /// positive and at most the track's length.
    pub delta_override: Option<u32>,
}

/// What the formatter measured and wrote.
#[derive(Clone, Debug)]
pub struct FormatReport {
    /// The header now on the disk (epoch 0, clean).
    pub header: LogDiskHeader,
    /// Probed rotation period.
    pub rotation_period: SimDuration,
}

/// The sector range `[first, last]` of log-disk tracks available for write
/// records: track 0 holds the primary header, the last track its replica.
pub fn data_track_range(geometry: &DiskGeometry) -> (u64, u64) {
    (1, geometry.total_tracks() - 2)
}

/// LBA of the header replica (first sector of the last track).
pub fn replica_lba(geometry: &DiskGeometry) -> Lba {
    geometry.track_first_lba(geometry.total_tracks() - 1)
}

/// Formats `disk` as a Trail log disk: probes its timing, then writes the
/// header to sector 0 and the replica location.
///
/// Runs as an offline tool: it drains the simulation's event queue, so no
/// other actors should have events pending.
///
/// # Errors
///
/// Propagates probe and device errors.
///
/// # Panics
///
/// Panics if a `delta_override` is zero or longer than the calibration
/// track.
///
/// # Examples
///
/// ```
/// use trail_sim::Simulator;
/// use trail_disk::{profiles, Disk};
/// use trail_core::{format_log_disk, FormatOptions};
///
/// let mut sim = Simulator::new();
/// let disk = Disk::new("log", profiles::seagate_st41601n());
/// let report = format_log_disk(&mut sim, &disk, FormatOptions::default())?;
/// assert_eq!(report.header.epoch, 0);
/// assert!(report.header.clean);
/// # Ok::<(), trail_core::TrailError>(())
/// ```
pub fn format_log_disk(
    sim: &mut Simulator,
    disk: &Disk,
    options: FormatOptions,
) -> Result<FormatReport, TrailError> {
    let geometry = disk.geometry();
    let rotation_period = measure_rotation_period(sim, disk, 5)?;
    let mut leads = calibrate_track_leads(sim, disk, CALIBRATION_TRACK, rotation_period)?;
    if let Some(sectors) = options.delta_override {
        let spt = geometry.spt_of_track(CALIBRATION_TRACK);
        assert!(
            (1..=spt).contains(&sectors),
            "delta override {sectors} outside 1..={spt} sectors"
        );
        leads.after_read = rotation_period * u64::from(sectors) / u64::from(spt);
        leads.after_write = leads.after_read;
    }
    let header = LogDiskHeader {
        epoch: 0,
        clean: true,
        rotation_period,
        leads,
        geometry: geometry.clone(),
    };
    write_header(sim, disk, &header)?;
    Ok(FormatReport {
        header,
        rotation_period,
    })
}

/// Writes `header` to the primary and replica locations (timed writes).
///
/// # Errors
///
/// Propagates encoding and device errors.
pub fn write_header(
    sim: &mut Simulator,
    disk: &Disk,
    header: &LogDiskHeader,
) -> Result<(), TrailError> {
    let sector = header.encode()?;
    run_blocking(
        sim,
        disk,
        DiskCommand::Write {
            lba: 0,
            data: sector.to_vec().into(),
        },
    )?;
    run_blocking(
        sim,
        disk,
        DiskCommand::Write {
            lba: replica_lba(&header.geometry),
            data: sector.to_vec().into(),
        },
    )?;
    Ok(())
}

/// Reads and decodes the log-disk header, falling back to the replica if
/// the primary does not parse.
///
/// # Errors
///
/// Returns [`TrailError::NotFormatted`] if neither copy carries a Trail
/// signature.
pub fn read_header(sim: &mut Simulator, disk: &Disk) -> Result<LogDiskHeader, TrailError> {
    for lba in [0, replica_lba(&disk.geometry())] {
        let res = run_blocking(sim, disk, DiskCommand::Read { lba, count: 1 })?;
        let sector = res.data.expect("read returns data").sector(0);
        match LogDiskHeader::decode(&sector) {
            Ok(h) => return Ok(h),
            Err(_) => continue,
        }
    }
    Err(TrailError::NotFormatted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trail_disk::profiles;

    #[test]
    fn format_then_read_round_trips() {
        let mut sim = Simulator::new();
        let disk = Disk::new("log", profiles::tiny_test_disk());
        let report = format_log_disk(&mut sim, &disk, FormatOptions::default()).unwrap();
        let header = read_header(&mut sim, &disk).unwrap();
        assert_eq!(header, report.header);
        assert_eq!(header.epoch, 0);
        assert!(header.clean);
        assert_eq!(header.rotation_period, disk.mechanics().rotation_period);
    }

    #[test]
    fn delta_override_skips_calibration() {
        let mut sim = Simulator::new();
        let disk = Disk::new("log", profiles::tiny_test_disk());
        let report = format_log_disk(
            &mut sim,
            &disk,
            FormatOptions {
                delta_override: Some(9),
            },
        )
        .unwrap();
        let nine = disk.mechanics().rotation_period * 9 / 40;
        assert_eq!(report.header.leads.after_read, nine);
        assert_eq!(report.header.leads.after_write, nine);
        // The cross-track leads stay calibrated.
        let calibrated = format_log_disk(&mut sim, &disk, FormatOptions::default()).unwrap();
        assert_eq!(report.header.leads.switch, calibrated.header.leads.switch);
        assert_eq!(
            report.header.leads.crossing,
            calibrated.header.leads.crossing
        );
        assert_ne!(calibrated.header.leads.after_read, nine);
    }

    #[test]
    fn replica_survives_primary_corruption() {
        let mut sim = Simulator::new();
        let disk = Disk::new("log", profiles::tiny_test_disk());
        format_log_disk(&mut sim, &disk, FormatOptions::default()).unwrap();
        // Clobber the primary header.
        disk.poke_sector(0, &[0u8; trail_disk::SECTOR_SIZE]);
        let header = read_header(&mut sim, &disk).unwrap();
        assert_eq!(header.epoch, 0);
    }

    #[test]
    fn unformatted_disk_is_rejected() {
        let mut sim = Simulator::new();
        let disk = Disk::new("log", profiles::tiny_test_disk());
        assert_eq!(
            read_header(&mut sim, &disk).unwrap_err(),
            TrailError::NotFormatted
        );
    }

    #[test]
    fn data_track_range_excludes_header_tracks() {
        let g = profiles::tiny_test_disk().geometry;
        let (first, last) = data_track_range(&g);
        assert_eq!(first, 1);
        assert_eq!(last, g.total_tracks() - 2);
        assert!(replica_lba(&g) > g.track_first_lba(last));
    }
}
