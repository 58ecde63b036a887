//! The crash oracle. A test records each write in an [`AckLedger`], whose
//! payload is [`sector_image`]s that [`tag_of`] reads back, so a stale or
//! misplaced sector cannot pass for the right one. After a cut and
//! recovery each sector must hold its newest acknowledged write or a later
//! one; a read, the newest acknowledged at its horizon or since. [`cut_instants`]
//! enumerates the cuts from a probe run's
//! [`Disk::log_landings`](crate::Disk::log_landings) and acks: between two
//! consecutive instants neither the media nor the acknowledged set
//! changes, so cutting at each reaches every crash state of the run.

use std::collections::BTreeMap;

use trail_sim::{SimDuration, SimTime};

use crate::geometry::{Lba, SECTOR_SIZE};
use crate::store::SectorBuf;

/// What write `tag` puts in sector `lba`: the tag, the sector's address,
/// and a fill derived from both.
#[must_use]
pub fn sector_image(tag: u32, lba: Lba) -> Vec<u8> {
    let mut sector = vec![tag as u8 ^ lba as u8; SECTOR_SIZE];
    sector[..4].copy_from_slice(&tag.to_le_bytes());
    sector[4..12].copy_from_slice(&lba.to_le_bytes());
    sector
}

/// The write a sector holds, 0 for one never written; `None` if the bytes
/// are not exactly what that write put there.
#[must_use]
pub fn tag_of(sector: &[u8], lba: Lba) -> Option<u32> {
    let tag = u32::from_le_bytes(sector[..4].try_into().expect("4 bytes"));
    let expect = if tag == 0 {
        vec![0; SECTOR_SIZE]
    } else {
        sector_image(tag, lba)
    };
    (sector == &expect[..]).then_some(tag)
}

/// Every cut instant of a run: each sector landing, and one nanosecond
/// before and after each acknowledgement, sorted and deduplicated.
#[must_use]
pub fn cut_instants(landings: &[SimTime], acks: &[SimTime]) -> Vec<SimTime> {
    let ns = SimDuration::from_nanos(1);
    let mut cuts: Vec<SimTime> = acks
        .iter()
        .flat_map(|&at| [at - ns, at + ns])
        .chain(landings.iter().copied())
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

/// A workload's writes per device and sector, and which were acknowledged.
///
/// Tags count submissions from 1. Each sector keeps its tags in submission
/// order after tag 0 (never written), and the position of the write
/// acknowledged there last: the end of its acknowledged prefix, the
/// sector's durability horizon.
#[derive(Default)]
pub struct AckLedger {
    /// `(dev, lba, sectors)` of each write, indexed by tag − 1.
    writes: Vec<(usize, Lba, u64)>,
    acks: usize,
    sectors: BTreeMap<(usize, Lba), (Vec<u32>, usize)>,
}

impl AckLedger {
    /// Records a write of `sectors` sectors at `lba` on `dev`, submitted
    /// now. Returns its tag and the payload to submit.
    pub fn submit(&mut self, dev: usize, lba: Lba, sectors: u64) -> (u32, Vec<u8>) {
        self.writes.push((dev, lba, sectors));
        let tag = self.writes.len() as u32;
        let payload = (lba..lba + sectors).flat_map(|s| {
            let (tags, _) = self.sectors.entry((dev, s)).or_insert((vec![0], 0));
            tags.push(tag);
            sector_image(tag, s)
        });
        (tag, payload.collect())
    }

    /// Records that write `tag` was acknowledged.
    ///
    /// # Panics
    ///
    /// Panics if `tag` was never submitted.
    pub fn ack(&mut self, tag: u32) {
        let (dev, lba, sectors) = self.writes[tag as usize - 1];
        self.acks += 1;
        for s in lba..lba + sectors {
            let (tags, acked) = self.sectors.get_mut(&(dev, s)).expect("submitted");
            *acked = tags.iter().position(|&t| t == tag).expect("submitted");
        }
    }

    /// Acknowledgements recorded so far.
    #[must_use]
    pub fn acked(&self) -> usize {
        self.acks
    }

    /// Each sector's horizon for a read being submitted now; hand it to
    /// [`check_read`](Self::check_read) when the read completes.
    #[must_use]
    pub fn horizon(&self, dev: usize, lba: Lba, sectors: u64) -> Vec<usize> {
        (lba..lba + sectors)
            .map(|s| self.history(dev, s).1)
            .collect()
    }

    /// Checks a completed read: each sector holds the newest write
    /// acknowledged at its [`horizon`](Self::horizon) or one acknowledged
    /// since. Returns one line per sector that does not.
    #[must_use]
    pub fn check_read(&self, dev: usize, lba: Lba, data: &[u8], horizon: &[usize]) -> Vec<String> {
        let sectors = data.chunks_exact(SECTOR_SIZE).zip(lba..).zip(horizon);
        sectors
            .filter_map(|((got, s), &from)| {
                let (tags, acked) = self.history(dev, s);
                verdict(dev, s, got, &tags[from..=acked.max(from)])
            })
            .collect()
    }

    /// Checks the media after a cut and recovery, reading each sector a
    /// write reached with `read(dev, lba)`: it holds its newest
    /// acknowledged write or one submitted after it.
    pub fn check_crashed(&self, mut read: impl FnMut(usize, Lba) -> SectorBuf) -> Vec<String> {
        let sectors = self.sectors.iter();
        sectors
            .filter_map(|(&(dev, lba), (tags, acked))| {
                verdict(dev, lba, &read(dev, lba), &tags[*acked..])
            })
            .collect()
    }

    fn history(&self, dev: usize, lba: Lba) -> (&[u32], usize) {
        self.sectors
            .get(&(dev, lba))
            .map_or((&[0], 0), |(tags, acked)| (tags, *acked))
    }
}

/// `None` if `got` is the image of one of the `legal` tags, else a line
/// saying what it holds.
fn verdict(dev: usize, lba: Lba, got: &[u8], legal: &[u32]) -> Option<String> {
    let tag = tag_of(got, lba);
    (!tag.is_some_and(|t| legal.contains(&t)))
        .then(|| format!("dev {dev} lba {lba}: holds {tag:?}, legal {legal:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(tag: u32, lba: Lba) -> SectorBuf {
        sector_image(tag, lba).try_into().expect("one sector")
    }

    #[test]
    fn tags_round_trip_and_reject_a_misplaced_or_torn_sector() {
        assert_eq!(tag_of(&image(7, 40), 40), Some(7));
        assert_eq!(tag_of(&[0; SECTOR_SIZE], 40), Some(0));
        assert_eq!(tag_of(&image(7, 41), 40), None, "misplaced");
        let mut torn = image(7, 40);
        torn[SECTOR_SIZE - 1] ^= 1;
        assert_eq!(tag_of(&torn, 40), None, "torn");
    }

    #[test]
    fn a_crashed_sector_may_hold_the_newest_ack_or_a_later_write_only() {
        let mut ledger = AckLedger::default();
        let (a, _) = ledger.submit(0, 10, 2);
        let (b, _) = ledger.submit(0, 11, 1);
        let (c, _) = ledger.submit(0, 11, 1);
        ledger.ack(a);
        ledger.ack(b);
        assert_eq!(ledger.acked(), 2);
        let holds =
            |t11: u32| move |_: usize, lba: Lba| image(if lba == 10 { a } else { t11 }, lba);
        assert!(ledger.check_crashed(holds(b)).is_empty());
        assert!(ledger.check_crashed(holds(c)).is_empty(), "submitted after");
        assert_eq!(
            ledger.check_crashed(holds(a)).len(),
            1,
            "older than the ack"
        );
    }

    #[test]
    fn a_read_sees_the_horizon_at_submission_or_an_ack_during_flight() {
        let mut ledger = AckLedger::default();
        let (a, _) = ledger.submit(1, 5, 1);
        ledger.ack(a);
        let horizon = ledger.horizon(1, 5, 1);
        let (b, _) = ledger.submit(1, 5, 1);
        assert!(ledger.check_read(1, 5, &image(a, 5), &horizon).is_empty());
        assert_eq!(ledger.check_read(1, 5, &image(b, 5), &horizon).len(), 1);
        ledger.ack(b);
        assert!(ledger.check_read(1, 5, &image(b, 5), &horizon).is_empty());
        assert_eq!(
            ledger.check_read(1, 5, &[0; SECTOR_SIZE], &horizon).len(),
            1
        );
    }

    #[test]
    fn cuts_are_every_landing_and_each_ack_either_side() {
        let t = |ns| SimTime::ZERO + SimDuration::from_nanos(ns);
        assert_eq!(
            cut_instants(&[t(10), t(30), t(30)], &[t(30), t(50)]),
            [t(10), t(29), t(30), t(31), t(49), t(51)]
        );
    }
}
