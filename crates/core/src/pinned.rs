//! Pinned memory (paper §4.2): the newest acknowledged image of every
//! sector that has reached the log disk but not yet its data disk.
//!
//! Write-back happens **from memory**, never from the log disk, which is
//! why Trail's garbage collection is free. [`PinnedMap`] keeps, per data
//! device, **disjoint** sector ranges; each is a zero-copy view of the
//! buffer a write arrived in, the sequence number of the record that logged
//! it (its version), and the records waiting on it. The paper's overwrite
//! rules, on ranges:
//!
//! - a newly logged extent trims or splits whatever it overlaps — by
//!   cutting views, never by touching bytes a queued write-back may still
//!   hold — and the covered part's waiting records move onto it: a
//!   superseded record stays live until the contents that replaced it
//!   reach the disk;
//! - at most one write-back is in flight per sector, and a range that
//!   overlaps one waits for it, so overlapping writes land in
//!   acknowledgement order. An in-flight write-back is a flag on the range
//!   whose sectors it ships, until a write with another span cuts into
//!   that range; from then on it is an *orphan* extent of its own;
//! - when a write-back lands, the pieces still carrying its version commit
//!   and release their waiting records, and the newer pieces it overlapped
//!   are issued.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};

use trail_disk::{PayloadBuf, SECTOR_SIZE};

/// Sectors `lba..end` of data device `dev`, as `(dev, lba, end)`.
pub(crate) type Extent = (u8, u64, u64);

/// One pinned range, keyed in its device's map by its first sector.
#[derive(Default)]
struct Range {
    /// One past its last sector.
    end: u64,
    data: PayloadBuf,
    /// The record that logged these bytes.
    seq: u64,
    /// Records that stay live until these bytes reach the data disk.
    waiting: Vec<u64>,
    /// A write-back of exactly these sectors is in flight, of this version
    /// or of one this range replaced in place.
    flying: bool,
}

/// One data device's pinned ranges and orphaned write-backs, both keyed
/// by first sector and each disjoint.
#[derive(Default)]
struct Device {
    ranges: BTreeMap<u64, Range>,
    /// In-flight write-backs whose range a write with another span has cut
    /// into: first sector → one past the last.
    orphans: BTreeMap<u64, u64>,
}

impl Device {
    /// The highest-starting range that overlaps `[lba, end)`.
    fn last_overlap(&self, lba: u64, end: u64) -> Option<(u64, &Range)> {
        self.ranges
            .range(..end)
            .next_back()
            .filter(|(_, r)| r.end > lba)
            .map(|(&start, r)| (start, r))
    }
}

/// Whether an extent in `orphans` overlaps `[lba, end)`.
fn orphan_overlaps(orphans: &BTreeMap<u64, u64>, lba: u64, end: u64) -> bool {
    orphans
        .range(..end)
        .next_back()
        .is_some_and(|(_, &e)| e > lba)
}

/// Per live record, how many ranges wait on it.
#[derive(Default)]
struct Waits(HashMap<u64, usize>);

impl Waits {
    fn hold(&mut self, records: &[u64]) {
        for &r in records {
            *self.0.entry(r).or_default() += 1;
        }
    }

    /// One range fewer waits on `r`; whether it was the last.
    fn unhold(&mut self, r: u64) -> bool {
        let n = self.0.get_mut(&r).expect("a waiting record is counted");
        *n -= 1;
        let last = *n == 0;
        if last {
            self.0.remove(&r);
        }
        last
    }
}

/// What a read finds pinned.
pub(crate) enum Pinned {
    /// No sector of the extent.
    Nothing,
    /// Every sector: the stitched image.
    All(Vec<u8>),
    /// Some sectors: views to patch over the data disk's image, each with
    /// the LBA of its first sector.
    Part(Vec<(u64, PayloadBuf)>),
}

/// What a landed write-back changed.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Landed {
    /// Records no range waits on any more, in release order.
    pub(crate) released: Vec<u64>,
    /// Whether a newer write overlapped the write-back while it was in
    /// flight: what it pinned can go now, unless another write-back
    /// overlaps it.
    pub(crate) superseded: bool,
}

/// The driver's pinned memory; see the [module docs](self).
pub(crate) struct PinnedMap {
    devices: Vec<Device>,
    waits: Waits,
}

impl PinnedMap {
    /// Empty pinned memory over `devices` data devices.
    pub(crate) fn new(devices: usize) -> Self {
        PinnedMap {
            devices: (0..devices).map(|_| Device::default()).collect(),
            waits: Waits::default(),
        }
    }

    /// Number of pinned ranges.
    pub(crate) fn len(&self) -> usize {
        self.devices.iter().map(|d| d.ranges.len()).sum()
    }

    /// Pins `data`, just logged by record `seq`, at `lba` of `dev`, and
    /// pushes onto `issue` every range it leaves that no in-flight
    /// write-back overlaps. Returns whether the extent overlapped a pinned
    /// range with a different span.
    pub(crate) fn log(
        &mut self,
        dev: u8,
        lba: u64,
        data: PayloadBuf,
        seq: u64,
        issue: &mut Vec<Extent>,
    ) -> bool {
        let d = &mut self.devices[dev as usize];
        let end = lba + (data.len() / SECTOR_SIZE) as u64;
        let mut waiting = Vec::new();
        let (mut flying, mut other_span) = (false, false);
        let mut below = end;
        while let Some((start, _)) = d.last_overlap(lba, below) {
            let mut old = if start == lba {
                // The new range takes this slot in place below.
                std::mem::take(d.ranges.get_mut(&lba).expect("found above"))
            } else {
                d.ranges.remove(&start).expect("found above")
            };
            if (start, old.end) == (lba, end) {
                flying = old.flying;
            } else {
                other_span = true;
                if old.flying {
                    d.orphans.insert(start, old.end);
                }
            }
            // Each remnant is one more range waiting on the old records.
            for (first, last) in [(end, old.end), (start, lba)] {
                if first < last {
                    let piece = Range {
                        end: last,
                        data: old
                            .data
                            .sectors((first - start) as usize, (last - first) as usize),
                        seq: old.seq,
                        waiting: old.waiting.clone(),
                        flying: false,
                    };
                    self.waits.hold(&piece.waiting);
                    d.ranges.insert(first, piece);
                    if !orphan_overlaps(&d.orphans, first, last) {
                        issue.push((dev, first, last));
                    }
                }
            }
            // The covered part's records move onto the new range, once each.
            if waiting.is_empty() {
                waiting = old.waiting;
            } else {
                for r in old.waiting {
                    if waiting.contains(&r) {
                        self.waits.unhold(r);
                    } else {
                        waiting.push(r);
                    }
                }
            }
            // Ranges are disjoint: none that starts lower reaches `lba`.
            if start <= lba {
                break;
            }
            below = start;
        }
        if !waiting.contains(&seq) {
            waiting.push(seq);
            self.waits.hold(&[seq]);
        }
        let range = Range {
            end,
            data,
            seq,
            waiting,
            flying,
        };
        d.ranges.insert(lba, range);
        if !flying && !orphan_overlaps(&d.orphans, lba, end) {
            issue.push((dev, lba, end));
        }
        other_span
    }

    /// Starts the write-back of the highest-starting pinned range
    /// overlapping `extent` that no in-flight write-back overlaps: its
    /// extent, its version, and a second handle to its bytes, not a copy of
    /// them.
    pub(crate) fn start_writeback(
        &mut self,
        (dev, lba, end): Extent,
    ) -> Option<(Extent, u64, PayloadBuf)> {
        let Device { ranges, orphans } = &mut self.devices[dev as usize];
        let mut below = end;
        loop {
            let (&start, range) = ranges
                .range_mut(..below)
                .next_back()
                .filter(|(_, r)| r.end > lba)?;
            if !range.flying && !orphan_overlaps(orphans, start, range.end) {
                range.flying = true;
                return Some(((dev, start, range.end), range.seq, range.data.share()));
            }
            if start <= lba {
                return None;
            }
            below = start;
        }
    }

    /// Resolves the landed write-back of `extent` that shipped version
    /// `seq`: the pieces of it still at that version are on the data disk.
    ///
    /// # Panics
    ///
    /// Panics if no write-back of `extent` is in flight.
    pub(crate) fn land(&mut self, (dev, lba, end): Extent, seq: u64) -> Landed {
        let d = &mut self.devices[dev as usize];
        let mut landed = Landed::default();
        if let Entry::Occupied(mut exact) = d.ranges.entry(lba) {
            let range = exact.get_mut();
            if range.flying && range.end == end {
                if range.seq == seq {
                    landed.released = exact.remove().waiting;
                    landed.released.retain(|&r| self.waits.unhold(r));
                } else {
                    range.flying = false;
                    landed.superseded = true;
                }
                return landed;
            }
        }
        assert_eq!(
            d.orphans.remove(&lba),
            Some(end),
            "write-back completion for an extent not in flight"
        );
        let mut below = end;
        while let Some((first, range)) = d.last_overlap(lba, below) {
            if range.seq != seq {
                landed.superseded = true;
            } else {
                let mut waiting = d.ranges.remove(&first).expect("found above").waiting;
                waiting.retain(|&r| self.waits.unhold(r));
                if landed.released.is_empty() {
                    landed.released = waiting;
                } else {
                    landed.released.append(&mut waiting);
                }
            }
            if first <= lba {
                break;
            }
            below = first;
        }
        landed
    }

    /// Resolves the failed write-back of `extent`, the counterpart of
    /// [`land`](Self::land): nothing of it is known to be on the data disk,
    /// so every sector stays pinned, and it no longer holds back the ranges
    /// it overlaps.
    ///
    /// # Panics
    ///
    /// Panics if no write-back of `extent` is in flight.
    pub(crate) fn fail_writeback(&mut self, (dev, lba, end): Extent) {
        let d = &mut self.devices[dev as usize];
        if let Some(range) = d.ranges.get_mut(&lba) {
            if range.flying && range.end == end {
                range.flying = false;
                return;
            }
        }
        assert_eq!(
            d.orphans.remove(&lba),
            Some(end),
            "write-back failure for an extent not in flight"
        );
    }

    /// The newest acknowledged bytes of `count` sectors at `lba` of `dev`,
    /// as far as they are pinned.
    pub(crate) fn read(&mut self, dev: u8, lba: u64, count: u32) -> Pinned {
        let end = lba + u64::from(count);
        let views: Vec<(u64, PayloadBuf)> = self.devices[dev as usize]
            .ranges
            .range_mut(..end)
            .rev()
            .take_while(|(_, r)| r.end > lba)
            .map(|(&start, r)| {
                let first = start.max(lba);
                let view = r
                    .data
                    .sectors((first - start) as usize, (r.end.min(end) - first) as usize);
                (first, view)
            })
            .collect();
        let pinned: usize = views.iter().map(|(_, v)| v.len()).sum();
        if pinned == 0 {
            Pinned::Nothing
        } else if pinned < count as usize * SECTOR_SIZE {
            Pinned::Part(views)
        } else {
            let mut image = vec![0; pinned];
            patch(&mut image, lba, &views);
            Pinned::All(image)
        }
    }

    #[cfg(test)]
    pub(crate) fn data_at(&self, dev: u8, lba: u64) -> Option<&PayloadBuf> {
        self.devices[dev as usize].ranges.get(&lba).map(|r| &r.data)
    }
}

/// Copies each view over `image`, which holds the sectors from `lba` on.
pub(crate) fn patch(image: &mut [u8], lba: u64, views: &[(u64, PayloadBuf)]) {
    for (first, view) in views {
        let at = (first - lba) as usize * SECTOR_SIZE;
        image[at..at + view.len()].copy_from_slice(view);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const K: Extent = (1, 100, 101);

    fn sectors(fill: u8, n: usize) -> PayloadBuf {
        vec![fill; n * SECTOR_SIZE].into()
    }

    /// The fill byte of each sector of `extent`, 0 where nothing is pinned.
    fn fills(t: &mut PinnedMap, (dev, lba, end): Extent) -> Vec<u8> {
        let count = (end - lba) as u32;
        let mut image = vec![0; count as usize * SECTOR_SIZE];
        match t.read(dev, lba, count) {
            Pinned::Nothing => {}
            Pinned::All(all) => image = all,
            Pinned::Part(views) => patch(&mut image, lba, &views),
        }
        image.iter().step_by(SECTOR_SIZE).copied().collect()
    }

    /// Logs `fill` over `extent` under record `seq`; what it would issue.
    fn log(t: &mut PinnedMap, (dev, lba, end): Extent, fill: u8, seq: u64) -> Vec<Extent> {
        let mut issue = Vec::new();
        t.log(
            dev,
            lba,
            sectors(fill, (end - lba) as usize),
            seq,
            &mut issue,
        );
        issue
    }

    /// Starts a write-back within `extent` and lands it: what landing did.
    fn write_back(t: &mut PinnedMap, extent: Extent) -> Landed {
        let (started, seq, _) = t.start_writeback(extent).expect("a write-back to start");
        t.land(started, seq)
    }

    #[test]
    fn first_write_pins_and_queues() {
        let mut t = PinnedMap::new(2);
        assert_eq!(log(&mut t, K, 1, 5), [K]);
        assert_eq!(t.len(), 1);
        assert_eq!(fills(&mut t, K), [1]);
        assert_eq!(
            t.start_writeback(K).map(|(e, seq, _)| (e, seq)),
            Some((K, 5))
        );
    }

    #[test]
    fn overwrite_replaces_data_without_requeue() {
        let mut t = PinnedMap::new(2);
        log(&mut t, K, 1, 5);
        assert!(t.start_writeback(K).is_some());
        assert_eq!(
            log(&mut t, K, 2, 6),
            [],
            "the in-flight write-back blocks it"
        );
        assert!(
            t.start_writeback(K).is_none(),
            "second write must not queue another write-back"
        );
        assert_eq!(fills(&mut t, K), [2]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn a_write_back_shares_the_pinned_bytes_and_outlives_an_overwrite() {
        let mut t = PinnedMap::new(2);
        log(&mut t, K, 1, 5);
        let (_, v1, shipped) = t.start_writeback(K).expect("issued");
        assert!(
            shipped.ptr_eq(t.data_at(1, 100).unwrap()),
            "a handle, not a copy"
        );
        // The overwrite swaps the map's handle; the write-back still reads
        // the version it was taken at.
        log(&mut t, K, 2, 6);
        assert_eq!(&shipped[..], &[1u8; SECTOR_SIZE][..]);
        assert!(!shipped.ptr_eq(t.data_at(1, 100).unwrap()));
        assert_eq!(
            t.land(K, v1),
            Landed {
                released: vec![],
                superseded: true
            }
        );
        let (_, v, retry) = t.start_writeback(K).expect("the newer version");
        assert_eq!((v, &retry[..]), (6, &[2u8; SECTOR_SIZE][..]));
    }

    #[test]
    fn committed_writeback_releases_all_refs() {
        let mut t = PinnedMap::new(2);
        log(&mut t, K, 1, 5);
        log(&mut t, K, 2, 6);
        assert_eq!(write_back(&mut t, K).released, [5, 6]);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn stale_writeback_is_superseded_and_refs_survive() {
        let mut t = PinnedMap::new(2);
        log(&mut t, K, 1, 5);
        let (_, v1, _) = t.start_writeback(K).expect("issued");
        log(&mut t, K, 2, 6);
        // The in-flight write-back shipped record 5's bytes; the block now
        // holds record 6's: cancelled, the block stays pinned.
        let landed = t.land(K, v1);
        assert!(landed.superseded && landed.released.is_empty());
        assert_eq!(t.len(), 1);
        // The retry releases both records.
        assert_eq!(write_back(&mut t, K).released, [5, 6]);
    }

    #[test]
    #[should_panic(expected = "not in flight")]
    fn completion_for_unknown_block_panics() {
        PinnedMap::new(2).land(K, 1);
    }

    #[test]
    fn distinct_keys_are_independent() {
        let mut t = PinnedMap::new(2);
        for (seq, extent) in [K, (1, 200, 204), (0, 100, 104)].into_iter().enumerate() {
            log(&mut t, extent, 1, seq as u64);
        }
        for extent in [K, (1, 200, 204), (0, 100, 104)] {
            assert!(
                t.start_writeback(extent).is_some(),
                "{extent:?} queues its own"
            );
        }
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn an_overlapping_extent_splits_and_the_newest_bytes_read_back() {
        let mut t = PinnedMap::new(2);
        log(&mut t, (0, 100, 108), 0xAA, 1);
        assert_eq!(
            log(&mut t, (0, 102, 104), 0xDD, 2),
            [(0, 104, 108), (0, 100, 102), (0, 102, 104)],
            "both remnants, then the new range"
        );
        assert_eq!(t.len(), 3);
        assert_eq!(
            fills(&mut t, (0, 100, 108)),
            [0xAA, 0xAA, 0xDD, 0xDD, 0xAA, 0xAA, 0xAA, 0xAA]
        );
        // Partly pinned reads see the pinned part only.
        assert_eq!(fills(&mut t, (0, 98, 102)), [0, 0, 0xAA, 0xAA]);
        assert!(matches!(t.read(0, 90, 10), Pinned::Nothing));
        assert!(
            matches!(t.read(1, 100, 8), Pinned::Nothing),
            "another device"
        );
        // Every piece waits on record 1, the middle one on record 2 too:
        // record 1 is released only with the last piece that holds it.
        let released: Vec<u64> = [(0, 100, 102), (0, 102, 104), (0, 104, 108)]
            .into_iter()
            .flat_map(|extent| write_back(&mut t, extent).released)
            .collect();
        assert_eq!(released, [2, 1]);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn a_range_that_overlaps_an_in_flight_write_back_waits_for_it() {
        let mut t = PinnedMap::new(2);
        log(&mut t, (0, 100, 104), 1, 1);
        let (flying, v1, _) = t.start_writeback((0, 100, 104)).expect("issued");
        // Overlaps the tail of the in-flight extent: the new range waits,
        // and the remnant is part of what is already in flight.
        assert_eq!(log(&mut t, (0, 102, 106), 2, 2), []);
        assert!(t.start_writeback((0, 100, 106)).is_none());
        // A range clear of the in-flight extent goes at once.
        assert_eq!(log(&mut t, (0, 106, 108), 3, 3), [(0, 106, 108)]);
        let landed = t.land(flying, v1);
        assert!(landed.superseded);
        assert!(
            landed.released.is_empty(),
            "record 1 waits on the newer range too"
        );
        let (extent, v2, data) = t.start_writeback(flying).expect("no longer blocked");
        assert_eq!(
            (extent, v2, data.len()),
            ((0, 102, 106), 2, 4 * SECTOR_SIZE)
        );
        assert_eq!(t.land(extent, v2).released, [1, 2]);
    }

    #[test]
    fn a_covering_extent_absorbs_every_range_it_covers() {
        let mut t = PinnedMap::new(2);
        log(&mut t, (0, 10, 12), 1, 1);
        log(&mut t, (0, 14, 16), 2, 2);
        log(&mut t, (0, 12, 13), 3, 2);
        assert_eq!(t.len(), 3);
        log(&mut t, (0, 8, 20), 4, 3);
        assert_eq!(t.len(), 1);
        assert_eq!(fills(&mut t, (0, 8, 20)), [4; 12]);
        let mut released = write_back(&mut t, (0, 8, 20)).released;
        released.sort_unstable();
        assert_eq!(released, [1, 2, 3], "each record released exactly once");
        assert!(t.waits.0.is_empty());
    }
}
