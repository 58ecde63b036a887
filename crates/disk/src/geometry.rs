//! Physical disk geometry: zones, address translation, and angular layout.
//!
//! The Trail driver's head-position prediction (paper §3.1) consumes exactly
//! three geometric quantities: the number of sectors in the current track
//! (*SPT*), the rotation cycle time, and the logical-to-physical address
//! mapping. This module models a zoned multi-surface disk:
//!
//! - cylinders are grouped into **zones**; every track in a zone has the
//!   same number of sectors (outer zones hold more sectors);
//! - LBAs are assigned cylinder-major: all sectors of cylinder 0 (head 0,
//!   then head 1, …), then cylinder 1, …;
//! - consecutive tracks are rotationally offset by a **track skew** (plus a
//!   **cylinder skew** at cylinder boundaries) so that sequential transfers
//!   survive a head switch without losing a revolution.

use std::fmt;

/// Size of one disk sector in bytes. All devices in the reproduction use
/// 512-byte sectors, matching the paper's drives.
pub const SECTOR_SIZE: usize = 512;

/// A logical block address: the index of a 512-byte sector on one disk.
pub type Lba = u64;

/// A physical (cylinder, head, sector) address.
///
/// # Examples
///
/// ```
/// use trail_disk::Chs;
///
/// let a = Chs { cylinder: 3, head: 1, sector: 40 };
/// assert_eq!(a.to_string(), "(cyl 3, head 1, sec 40)");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Chs {
    /// Cylinder number, `0..cylinders()`.
    pub cylinder: u32,
    /// Surface number within the cylinder, `0..heads`.
    pub head: u32,
    /// Sector number within the track, `0..spt(cylinder)`.
    pub sector: u32,
}

impl fmt::Display for Chs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(cyl {}, head {}, sec {})",
            self.cylinder, self.head, self.sector
        )
    }
}

/// A recording zone: a run of cylinders sharing one sectors-per-track value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Zone {
    /// Number of consecutive cylinders in this zone.
    pub cylinders: u32,
    /// Sectors per track throughout the zone.
    pub spt: u32,
}

/// Immutable description of a disk's physical layout.
///
/// # Examples
///
/// ```
/// use trail_disk::{DiskGeometry, Zone};
///
/// let g = DiskGeometry::new(
///     2,
///     vec![Zone { cylinders: 10, spt: 100 }, Zone { cylinders: 10, spt: 80 }],
///     10,
///     5,
/// );
/// assert_eq!(g.total_tracks(), 40);
/// assert_eq!(g.total_sectors(), 2 * (10 * 100 + 10 * 80) as u64);
/// let chs = g.lba_to_chs(105).unwrap();
/// assert_eq!(g.chs_to_lba(chs).unwrap(), 105);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DiskGeometry {
    heads: u32,
    zones: Vec<Zone>,
    track_skew: u32,
    cyl_skew: u32,
    /// First cylinder of each zone (same length as `zones`).
    zone_start_cyl: Vec<u32>,
    /// First LBA of each zone (same length as `zones`).
    zone_start_lba: Vec<u64>,
    total_cylinders: u32,
    total_sectors: u64,
}

impl DiskGeometry {
    /// Builds a geometry from surface count, zone table and skews.
    ///
    /// `track_skew` and `cyl_skew` are expressed in sectors (of the local
    /// zone). The cylinder skew is applied *in addition to* the track skew
    /// when crossing a cylinder boundary.
    ///
    /// # Panics
    ///
    /// Panics if `heads` is zero, `zones` is empty, or any zone has zero
    /// cylinders or zero sectors per track.
    pub fn new(heads: u32, zones: Vec<Zone>, track_skew: u32, cyl_skew: u32) -> Self {
        assert!(heads > 0, "disk must have at least one head");
        assert!(!zones.is_empty(), "disk must have at least one zone");
        let mut zone_start_cyl = Vec::with_capacity(zones.len());
        let mut zone_start_lba = Vec::with_capacity(zones.len());
        let mut cyl = 0u32;
        let mut lba = 0u64;
        for z in &zones {
            assert!(z.cylinders > 0, "zone must span at least one cylinder");
            assert!(z.spt > 0, "zone must have at least one sector per track");
            zone_start_cyl.push(cyl);
            zone_start_lba.push(lba);
            cyl += z.cylinders;
            lba += u64::from(z.cylinders) * u64::from(heads) * u64::from(z.spt);
        }
        DiskGeometry {
            heads,
            zones,
            track_skew,
            cyl_skew,
            zone_start_cyl,
            zone_start_lba,
            total_cylinders: cyl,
            total_sectors: lba,
        }
    }

    /// Number of surfaces (tracks per cylinder).
    pub fn heads(&self) -> u32 {
        self.heads
    }

    /// The zone table.
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }

    /// Rotational offset between consecutive tracks, in sectors.
    pub fn track_skew(&self) -> u32 {
        self.track_skew
    }

    /// Additional rotational offset at cylinder boundaries, in sectors.
    pub fn cyl_skew(&self) -> u32 {
        self.cyl_skew
    }

    /// Total number of cylinders.
    pub fn cylinders(&self) -> u32 {
        self.total_cylinders
    }

    /// Total number of tracks (cylinders × heads).
    pub fn total_tracks(&self) -> u64 {
        u64::from(self.total_cylinders) * u64::from(self.heads)
    }

    /// Total number of sectors (the disk capacity in sectors).
    pub fn total_sectors(&self) -> u64 {
        self.total_sectors
    }

    /// Disk capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_sectors * SECTOR_SIZE as u64
    }

    /// Index of the zone containing `cylinder`.
    ///
    /// # Panics
    ///
    /// Panics if `cylinder` is out of range.
    pub fn zone_of_cylinder(&self, cylinder: u32) -> usize {
        assert!(
            cylinder < self.total_cylinders,
            "cylinder {cylinder} out of range (disk has {})",
            self.total_cylinders
        );
        match self.zone_start_cyl.binary_search(&cylinder) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    /// Sectors per track for tracks in `cylinder`.
    ///
    /// # Panics
    ///
    /// Panics if `cylinder` is out of range.
    pub fn spt_of_cylinder(&self, cylinder: u32) -> u32 {
        self.zones[self.zone_of_cylinder(cylinder)].spt
    }

    /// The global track index of a physical address: `cylinder × heads +
    /// head`. Track indexes order tracks in LBA order.
    pub fn track_index(&self, chs: Chs) -> u64 {
        u64::from(chs.cylinder) * u64::from(self.heads) + u64::from(chs.head)
    }

    /// The (cylinder, head) pair for a global track index.
    ///
    /// # Panics
    ///
    /// Panics if `track` is out of range.
    pub fn track_to_cyl_head(&self, track: u64) -> (u32, u32) {
        assert!(
            track < self.total_tracks(),
            "track {track} out of range (disk has {})",
            self.total_tracks()
        );
        (
            (track / u64::from(self.heads)) as u32,
            (track % u64::from(self.heads)) as u32,
        )
    }

    /// The track index containing `lba`, or `None` if out of range.
    pub fn track_of_lba(&self, lba: Lba) -> Option<u64> {
        Some(self.track_index(self.lba_to_chs(lba)?))
    }

    /// The first LBA of a track.
    ///
    /// # Panics
    ///
    /// Panics if `track` is out of range.
    pub fn track_first_lba(&self, track: u64) -> Lba {
        let (cyl, head) = self.track_to_cyl_head(track);
        let z = self.zone_of_cylinder(cyl);
        let zone = &self.zones[z];
        let cyl_in_zone = u64::from(cyl - self.zone_start_cyl[z]);
        self.zone_start_lba[z]
            + (cyl_in_zone * u64::from(self.heads) + u64::from(head)) * u64::from(zone.spt)
    }

    /// Sectors per track of a track index.
    ///
    /// # Panics
    ///
    /// Panics if `track` is out of range.
    pub fn spt_of_track(&self, track: u64) -> u32 {
        let (cyl, _) = self.track_to_cyl_head(track);
        self.spt_of_cylinder(cyl)
    }

    /// Translates an LBA to its physical address, or `None` if out of range.
    pub fn lba_to_chs(&self, lba: Lba) -> Option<Chs> {
        if lba >= self.total_sectors {
            return None;
        }
        let z = match self.zone_start_lba.binary_search(&lba) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let zone = &self.zones[z];
        let rel = lba - self.zone_start_lba[z];
        let per_cyl = u64::from(self.heads) * u64::from(zone.spt);
        let cylinder = self.zone_start_cyl[z] + (rel / per_cyl) as u32;
        let in_cyl = rel % per_cyl;
        let head = (in_cyl / u64::from(zone.spt)) as u32;
        let sector = (in_cyl % u64::from(zone.spt)) as u32;
        Some(Chs {
            cylinder,
            head,
            sector,
        })
    }

    /// Translates a physical address to its LBA, or `None` if out of range.
    pub fn chs_to_lba(&self, chs: Chs) -> Option<Lba> {
        if chs.cylinder >= self.total_cylinders || chs.head >= self.heads {
            return None;
        }
        let z = self.zone_of_cylinder(chs.cylinder);
        let zone = &self.zones[z];
        if chs.sector >= zone.spt {
            return None;
        }
        let cyl_in_zone = u64::from(chs.cylinder - self.zone_start_cyl[z]);
        Some(
            self.zone_start_lba[z]
                + (cyl_in_zone * u64::from(self.heads) + u64::from(chs.head)) * u64::from(zone.spt)
                + u64::from(chs.sector),
        )
    }

    /// The skew offset (in sectors) of a track: how far logical sector 0 of
    /// the track is rotated from the disk's angular origin.
    ///
    /// Skew accumulates `track_skew` per track and an extra `cyl_skew` per
    /// cylinder boundary, all modulo the local sectors-per-track.
    pub fn skew_offset(&self, track: u64) -> u32 {
        let (cyl, _) = self.track_to_cyl_head(track);
        let spt = u64::from(self.spt_of_cylinder(cyl));
        ((track * u64::from(self.track_skew) + u64::from(cyl) * u64::from(self.cyl_skew)) % spt)
            as u32
    }

    /// The angular position (fraction of a revolution, `0.0..1.0`) at which
    /// logical `sector` of `track` *begins*.
    ///
    /// # Panics
    ///
    /// Panics if `track` is out of range or `sector >= spt`.
    pub fn sector_angle(&self, track: u64, sector: u32) -> f64 {
        let spt = self.spt_of_track(track);
        assert!(sector < spt, "sector {sector} out of range (spt {spt})");
        let rotated = (sector + self.skew_offset(track)) % spt;
        f64::from(rotated) / f64::from(spt)
    }

    /// The logical sector of `track` whose angular span contains angle
    /// `frac` (fraction of a revolution in `0.0..1.0`).
    pub fn sector_at_angle(&self, track: u64, frac: f64) -> u32 {
        let spt = self.spt_of_track(track);
        debug_assert!((0.0..1.0).contains(&frac) || frac == 0.0);
        let physical = (frac * f64::from(spt)).floor() as u32 % spt;
        // Invert the skew rotation: logical = physical - skew (mod spt).
        (physical + spt - self.skew_offset(track) % spt) % spt
    }

    /// The logical sector of `track` whose *start* is the next to pass
    /// under the head at or after angle `frac` (fraction of a revolution).
    ///
    /// Angles within one part in 10⁶ of a sector boundary count as that
    /// boundary, absorbing floating-point dust from time arithmetic.
    pub fn next_sector_from_angle(&self, track: u64, frac: f64) -> u32 {
        let spt = self.spt_of_track(track);
        let frac = frac.rem_euclid(1.0);
        let physical = frac * f64::from(spt);
        let k = (physical - 1e-6).ceil().max(0.0) as u32 % spt;
        (k + spt - self.skew_offset(track) % spt) % spt
    }

    /// Iterates over the maximal single-track runs covering `count` sectors
    /// starting at `lba`: each item is `(track, first_sector, run_len)`.
    ///
    /// Returns `None` if the range exceeds the disk capacity.
    pub fn track_runs(&self, lba: Lba, count: u32) -> Option<Vec<TrackRun>> {
        if count == 0 || lba + u64::from(count) > self.total_sectors {
            return None;
        }
        let mut runs = Vec::new();
        let mut cur = lba;
        let mut left = count;
        while left > 0 {
            let chs = self.lba_to_chs(cur).expect("range checked above");
            let spt = self.spt_of_cylinder(chs.cylinder);
            let in_track = spt - chs.sector;
            let take = in_track.min(left);
            runs.push(TrackRun {
                track: self.track_index(chs),
                first_sector: chs.sector,
                len: take,
            });
            cur += u64::from(take);
            left -= take;
        }
        Some(runs)
    }
}

/// A run of consecutive sectors on a single track (see
/// [`DiskGeometry::track_runs`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TrackRun {
    /// Global track index.
    pub track: u64,
    /// First sector of the run within the track.
    pub first_sector: u32,
    /// Number of sectors in the run.
    pub len: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DiskGeometry {
        DiskGeometry::new(
            2,
            vec![
                Zone {
                    cylinders: 4,
                    spt: 10,
                },
                Zone {
                    cylinders: 4,
                    spt: 8,
                },
            ],
            3,
            2,
        )
    }

    #[test]
    fn totals() {
        let g = small();
        assert_eq!(g.cylinders(), 8);
        assert_eq!(g.total_tracks(), 16);
        assert_eq!(g.total_sectors(), (4 * 2 * 10 + 4 * 2 * 8) as u64);
        assert_eq!(g.capacity_bytes(), g.total_sectors() * 512);
    }

    #[test]
    fn zone_lookup() {
        let g = small();
        assert_eq!(g.zone_of_cylinder(0), 0);
        assert_eq!(g.zone_of_cylinder(3), 0);
        assert_eq!(g.zone_of_cylinder(4), 1);
        assert_eq!(g.zone_of_cylinder(7), 1);
        assert_eq!(g.spt_of_cylinder(0), 10);
        assert_eq!(g.spt_of_cylinder(7), 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zone_lookup_out_of_range_panics() {
        small().zone_of_cylinder(8);
    }

    #[test]
    fn lba_chs_round_trip_exhaustive() {
        let g = small();
        for lba in 0..g.total_sectors() {
            let chs = g.lba_to_chs(lba).expect("lba in range");
            assert_eq!(g.chs_to_lba(chs), Some(lba), "round trip at {lba}");
        }
        assert_eq!(g.lba_to_chs(g.total_sectors()), None);
    }

    #[test]
    fn chs_to_lba_rejects_bad_addresses() {
        let g = small();
        assert_eq!(
            g.chs_to_lba(Chs {
                cylinder: 8,
                head: 0,
                sector: 0
            }),
            None
        );
        assert_eq!(
            g.chs_to_lba(Chs {
                cylinder: 0,
                head: 2,
                sector: 0
            }),
            None
        );
        assert_eq!(
            g.chs_to_lba(Chs {
                cylinder: 0,
                head: 0,
                sector: 10
            }),
            None
        );
        // Sector 9 valid in zone 0 (spt 10) but not zone 1 (spt 8).
        assert!(g
            .chs_to_lba(Chs {
                cylinder: 4,
                head: 0,
                sector: 9
            })
            .is_none());
    }

    #[test]
    fn lba_order_is_cylinder_major() {
        let g = small();
        // LBA 0..10 = cyl 0 head 0; 10..20 = cyl 0 head 1; 20.. = cyl 1.
        assert_eq!(
            g.lba_to_chs(0).unwrap(),
            Chs {
                cylinder: 0,
                head: 0,
                sector: 0
            }
        );
        assert_eq!(
            g.lba_to_chs(10).unwrap(),
            Chs {
                cylinder: 0,
                head: 1,
                sector: 0
            }
        );
        assert_eq!(
            g.lba_to_chs(20).unwrap(),
            Chs {
                cylinder: 1,
                head: 0,
                sector: 0
            }
        );
    }

    #[test]
    fn track_indexing() {
        let g = small();
        let chs = Chs {
            cylinder: 2,
            head: 1,
            sector: 5,
        };
        let t = g.track_index(chs);
        assert_eq!(t, 5);
        assert_eq!(g.track_to_cyl_head(t), (2, 1));
        assert_eq!(
            g.track_first_lba(t),
            g.chs_to_lba(Chs { sector: 0, ..chs }).unwrap()
        );
        assert_eq!(g.spt_of_track(t), 10);
        assert_eq!(g.spt_of_track(15), 8);
    }

    #[test]
    fn skew_accumulates() {
        let g = small();
        assert_eq!(g.skew_offset(0), 0);
        assert_eq!(g.skew_offset(1), 3);
        // Track 2 = cylinder 1: 2 tracks of skew + 1 cylinder skew = 8 mod 10.
        assert_eq!(g.skew_offset(2), 8);
    }

    #[test]
    fn sector_angle_and_inverse_agree() {
        let g = small();
        for track in 0..g.total_tracks() {
            let spt = g.spt_of_track(track);
            for s in 0..spt {
                let a = g.sector_angle(track, s);
                assert!((0.0..1.0).contains(&a));
                // Probe just inside the sector's angular span.
                assert_eq!(
                    g.sector_at_angle(track, a + 1e-9),
                    s,
                    "track {track} sector {s}"
                );
            }
        }
    }

    #[test]
    fn next_sector_from_angle_is_forward_rounding() {
        let g = small();
        for track in 0..4 {
            let spt = g.spt_of_track(track);
            for s in 0..spt {
                let start = g.sector_angle(track, s);
                // Exactly at the boundary: that sector itself.
                assert_eq!(g.next_sector_from_angle(track, start), s);
                // Just past the boundary: the following sector.
                assert_eq!(
                    g.next_sector_from_angle(track, start + 0.6 / f64::from(spt)),
                    (s + 1) % spt,
                    "track {track} sector {s}"
                );
            }
        }
    }

    #[test]
    fn track_runs_split_at_boundaries() {
        let g = small();
        // 10 sectors per track in zone 0; a 25-sector range from LBA 5
        // covers track 0 (5), track 1 (10), track 2 (10).
        let runs = g.track_runs(5, 25).unwrap();
        assert_eq!(
            runs,
            vec![
                TrackRun {
                    track: 0,
                    first_sector: 5,
                    len: 5
                },
                TrackRun {
                    track: 1,
                    first_sector: 0,
                    len: 10
                },
                TrackRun {
                    track: 2,
                    first_sector: 0,
                    len: 10
                },
            ]
        );
        assert!(g.track_runs(g.total_sectors() - 1, 2).is_none());
        assert!(g.track_runs(0, 0).is_none());
    }
}
