//! Property-based tests over the core data structures and the end-to-end
//! durability invariant.

use proptest::prelude::*;

use trail::core::format::{build_record, payload_checksum, RecordHeader, RecordWrite};
use trail::core::{HeadPredictor, TrackLeads, TrackPool};
use trail::db::Page;
use trail::disk::{
    CommandKind, DiskGeometry, ImagePool, PayloadBuf, PayloadChain, SectorBuf, Zone, SECTOR_SIZE,
};
use trail::sim::{SimDuration, SimTime};

/// A record's bytes as its write command lays them on the log disk.
fn bytes_of(record: &PayloadChain) -> Vec<u8> {
    record.parts().flat_map(PayloadBuf::to_vec).collect()
}

fn arb_geometry() -> impl Strategy<Value = DiskGeometry> {
    (
        1u32..8,
        proptest::collection::vec((1u32..40, 4u32..120), 1..4),
        0u32..16,
        0u32..16,
    )
        .prop_map(|(heads, zones, track_skew, cyl_skew)| {
            DiskGeometry::new(
                heads,
                zones
                    .into_iter()
                    .map(|(cylinders, spt)| Zone { cylinders, spt })
                    .collect(),
                track_skew,
                cyl_skew,
            )
        })
}

/// One payload sector: mostly random, but often enough all zeros, all
/// ones, or random behind a first byte that already is a marker value.
fn arb_sector() -> impl Strategy<Value = Vec<u8>> {
    let random = || proptest::collection::vec(any::<u8>(), SECTOR_SIZE);
    let starting_with = move |first: u8| {
        random().prop_map(move |mut s| {
            s[0] = first;
            s
        })
    };
    prop_oneof![
        random(),
        random(),
        starting_with(0x00),
        starting_with(0xFF),
        Just(vec![0x00; SECTOR_SIZE]),
        Just(vec![0xFF; SECTOR_SIZE]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// LBA -> CHS -> LBA is the identity everywhere on the disk.
    #[test]
    fn geometry_round_trips(geometry in arb_geometry(), frac in 0.0f64..1.0) {
        let lba = ((geometry.total_sectors() - 1) as f64 * frac) as u64;
        let chs = geometry.lba_to_chs(lba).expect("in range");
        prop_assert_eq!(geometry.chs_to_lba(chs), Some(lba));
        // Track accessors agree with the address mapping.
        let track = geometry.track_index(chs);
        prop_assert!(geometry.track_first_lba(track) <= lba);
        prop_assert!(
            lba < geometry.track_first_lba(track) + u64::from(geometry.spt_of_track(track))
        );
    }

    /// Sector angles are a bijection per track (skew is a rotation).
    #[test]
    fn sector_angles_are_distinct(geometry in arb_geometry(), tfrac in 0.0f64..1.0) {
        let track = ((geometry.total_tracks() - 1) as f64 * tfrac) as u64;
        let spt = geometry.spt_of_track(track);
        let mut seen = std::collections::HashSet::new();
        for s in 0..spt {
            let a = geometry.sector_angle(track, s);
            prop_assert!((0.0..1.0).contains(&a));
            // Quantized to a sector index, each angle is unique.
            prop_assert!(seen.insert((a * f64::from(spt)).round() as u32 % spt));
        }
    }

    /// Write records survive encode -> raw sectors -> decode -> restore,
    /// for writes of different lengths borrowed from separate buffers and
    /// for sectors that already start with a marker byte; a record built
    /// from the same writes interned in an image pool is the same bytes.
    #[test]
    fn record_format_round_trips(
        sectors in proptest::collection::vec(arb_sector(), 1..=32),
        cuts in proptest::collection::vec(1usize..=8, 32),
        epoch in any::<u64>(),
        seq in any::<u64>(),
        header_lba in 0u32..1_000_000,
    ) {
        // Group the sectors into writes of 1..=8 sectors, each its own Vec.
        let mut buffers: Vec<PayloadBuf> = Vec::new();
        let mut rest = &sectors[..];
        for &cut in &cuts {
            if rest.is_empty() {
                break;
            }
            let (now, later) = rest.split_at(cut.min(rest.len()));
            buffers.push(now.concat().into());
            rest = later;
        }
        let writes_of = |buffers: &[PayloadBuf]| -> Vec<(u8, u32)> {
            (0..buffers.len()).map(|i| ((i % 3) as u8, i as u32 * 8)).collect()
        };
        let build = |buffers: &[PayloadBuf]| {
            let writes: Vec<RecordWrite<'_>> = buffers
                .iter()
                .zip(writes_of(buffers))
                .map(|(data, (data_major, data_lba))| RecordWrite {
                    data_major,
                    data_minor: 0,
                    data_lba,
                    data,
                })
                .collect();
            let (header, record) =
                build_record(epoch, seq, Some(7), 3, 1, header_lba, &writes).expect("builds");
            (header, bytes_of(&record))
        };
        let (header, raw) = build(&buffers);
        let pool = ImagePool::new();
        let mut pooled: Vec<PayloadBuf> = buffers.iter().map(|b| b.to_vec().into()).collect();
        for data in &mut pooled {
            data.intern(&pool);
        }
        prop_assert_eq!(build(&pooled), (header.clone(), raw.clone()));
        let hsec: SectorBuf = raw[..SECTOR_SIZE].try_into().expect("sector");
        let parsed = RecordHeader::decode(&hsec).expect("valid").expect("is header");
        prop_assert_eq!(&parsed, &header);
        prop_assert_eq!(parsed.entries.len(), sectors.len());
        prop_assert_eq!(raw.len(), (sectors.len() + 1) * SECTOR_SIZE);
        let mut targets = buffers.iter().zip(writes_of(&buffers)).flat_map(|(data, (major, lba))| {
            (0..data.len() / SECTOR_SIZE).map(move |i| (major, lba + i as u32))
        });
        for (i, entry) in parsed.entries.iter().enumerate() {
            prop_assert_eq!(Some((entry.data_major, entry.data_lba)), targets.next());
            prop_assert_eq!(entry.log_lba, header_lba + 1 + i as u32);
            let mut sector: SectorBuf = raw
                [(i + 1) * SECTOR_SIZE..(i + 2) * SECTOR_SIZE]
                .try_into()
                .expect("sector");
            prop_assert_eq!(sector[0], 0x00);
            sector[0] = entry.first_data_byte;
            prop_assert_eq!(&sector[..], &sectors[i][..]);
        }
        // The checksum covers the on-disk payload: flipping any bit of it,
        // swapping two unequal sectors, or losing or gaining a sector must
        // be detected.
        let payload = &raw[SECTOR_SIZE..];
        prop_assert_eq!(payload_checksum(payload), header.payload_checksum);
        let bit = seq as usize % (payload.len() * 8);
        let mut torn = payload.to_vec();
        torn[bit / 8] ^= 1 << (bit % 8);
        prop_assert_ne!(payload_checksum(&torn), header.payload_checksum);
        let (a, b) = (epoch as usize % sectors.len(), seq as usize % sectors.len());
        let (ra, rb) = (a * SECTOR_SIZE..(a + 1) * SECTOR_SIZE, b * SECTOR_SIZE..(b + 1) * SECTOR_SIZE);
        if payload[ra.clone()] != payload[rb.clone()] {
            let mut swapped = payload.to_vec();
            swapped[ra.clone()].copy_from_slice(&payload[rb.clone()]);
            swapped[rb].copy_from_slice(&payload[ra]);
            prop_assert_ne!(payload_checksum(&swapped), header.payload_checksum);
        }
        prop_assert_ne!(
            payload_checksum(&payload[..payload.len() - SECTOR_SIZE]),
            header.payload_checksum
        );
        let longer = [payload, &payload[payload.len() - SECTOR_SIZE..]].concat();
        prop_assert_ne!(payload_checksum(&longer), header.payload_checksum);
    }

    /// A record torn at any sector boundary — its first `k` payload
    /// sectors new, the rest still holding whatever the track held before —
    /// fails its checksum, whatever the stale bytes are: random, a
    /// never-written track's zeros, or the previous record's payload. The
    /// one exception is no tear at all: a stale suffix equal to the new one.
    #[test]
    fn torn_records_are_detected_at_every_sector_boundary(
        new in proptest::collection::vec(arb_sector(), 1..=32),
        previous in proptest::collection::vec(arb_sector(), 32),
        random in proptest::collection::vec(any::<u8>(), 32 * SECTOR_SIZE),
    ) {
        let record = |sectors: &[Vec<u8>], seq: u64| {
            let data = sectors.concat().into();
            let write = RecordWrite { data_major: 0, data_minor: 0, data_lba: 64, data: &data };
            let (header, record) = build_record(1, seq, None, 0, 0, 100, &[write]).expect("builds");
            (header, bytes_of(&record))
        };
        let (header, raw) = record(&new, 1);
        let payload = &raw[SECTOR_SIZE..];
        let (_, previous) = record(&previous, 0);
        let zeros = vec![0u8; payload.len()];
        for stale in [&random[..], &zeros[..], &previous[SECTOR_SIZE..]] {
            for k in 0..new.len() {
                let cut = k * SECTOR_SIZE;
                let stale_suffix = &stale[cut..payload.len()];
                let torn = [&payload[..cut], stale_suffix].concat();
                prop_assert!(
                    (payload_checksum(&torn) == header.payload_checksum)
                        == (stale_suffix == &payload[cut..]),
                    "tear after {} of {} sectors",
                    k,
                    new.len()
                );
            }
        }
    }

    /// The predictor's output is always a sector on the track asked for —
    /// the reference's own or the next — regardless of elapsed time, the
    /// reference's kind or the leads.
    #[test]
    fn predictor_stays_on_track(
        ref_lba in 0u64..3_000_000,
        elapsed_ns in 0u64..1_000_000_000,
        after_write in any::<bool>(),
        lead_ns in (
            1u64..=11_111_111,
            1u64..=11_111_111,
            1u64..=11_111_111,
            1u64..=11_111_111,
        ),
    ) {
        let p = trail::disk::profiles::seagate_st41601n();
        let total = p.geometry.total_sectors();
        let ref_lba = ref_lba % total;
        let leads = TrackLeads {
            after_read: SimDuration::from_nanos(lead_ns.0),
            after_write: SimDuration::from_nanos(lead_ns.1),
            switch: SimDuration::from_nanos(lead_ns.2),
            crossing: SimDuration::from_nanos(lead_ns.3),
        };
        let mut predictor = HeadPredictor::new(p.geometry.clone(), p.mech.rotation_period, leads);
        let kind = if after_write { CommandKind::Write } else { CommandKind::Read };
        predictor.set_reference(SimTime::ZERO, ref_lba, kind);
        let t1 = SimTime::ZERO + SimDuration::from_nanos(elapsed_ns);
        let track = p.geometry.track_of_lba(ref_lba).expect("in range");
        let next = (track + 1) % p.geometry.total_tracks();
        for target in [track, next] {
            let (sector, lba) = predictor.predict_on_track(target, t1).expect("has reference");
            prop_assert!(sector < p.geometry.spt_of_track(target));
            prop_assert_eq!(p.geometry.track_of_lba(lba), Some(target));
        }
    }

    /// The predictor against the disk it predicts, in every zone of the
    /// ST41601N (spt 90, 84, 78): after a one-sector read or write on a
    /// track and an idle gap, a one-sector write to the predicted sector
    /// of that track waits out less than one of its sectors plus the
    /// lead's margin over the write's overhead — the calibration sweep's
    /// rounding and the slack, one sector each of the calibration track —
    /// and never a revolution.
    #[test]
    fn predicted_write_waits_under_a_sector_past_its_lead(
        zone in 0usize..3,
        cylinder in 0u32..700,
        head in 0u32..17,
        ref_sector in 0u32..78,
        write_reference in any::<bool>(),
        gap_us in 0u64..50_000,
    ) {
        use trail::disk::{Disk, DiskCommand};
        use trail::probe::{calibrate_track_leads, run_blocking, TRACK_LEAD_SLACK};
        use trail::sim::Simulator;

        let profile = trail::disk::profiles::seagate_st41601n();
        let g = profile.geometry.clone();
        let period = profile.mech.rotation_period;
        let mut sim = Simulator::new();
        let disk = Disk::new("log", profile.clone());
        let leads = calibrate_track_leads(&mut sim, &disk, 1, period).expect("calibration");
        let track = (zone as u64 * 700 + u64::from(cylinder)) * 17 + u64::from(head);
        let spt = g.spt_of_track(track);
        prop_assert_eq!(spt, [90, 84, 78][zone]);
        let one_sector = |kind, lba| match kind {
            CommandKind::Write => DiskCommand::Write { lba, data: vec![7u8; SECTOR_SIZE].into() },
            _ => DiskCommand::Read { lba, count: 1 },
        };
        let kind = if write_reference { CommandKind::Write } else { CommandKind::Read };
        let reference = g.track_first_lba(track) + u64::from(ref_sector);
        let res = run_blocking(&mut sim, &disk, one_sector(kind, reference)).expect("reference");
        let mut predictor = HeadPredictor::new(g.clone(), period, leads);
        predictor.set_reference(res.completed, reference, kind);
        sim.run_until(res.completed + SimDuration::from_micros(gap_us));
        let (_, target) = predictor.predict_on_track(track, sim.now()).expect("has reference");
        let write = run_blocking(&mut sim, &disk, one_sector(CommandKind::Write, target))
            .expect("predicted write");
        let calibration_sector = period / u64::from(g.spt_of_track(1));
        let bound = period / u64::from(spt) + calibration_sector * u64::from(1 + TRACK_LEAD_SLACK);
        prop_assert_eq!(write.breakdown.seek, SimDuration::ZERO);
        prop_assert!(
            write.breakdown.rotation < bound,
            "spt {} after a {:?}: waited {} (bound {})",
            spt,
            kind,
            write.breakdown.rotation,
            bound
        );
    }

    /// TrackPool against a reference model: FIFO reclamation, exact free
    /// counts, no lost tracks.
    #[test]
    fn track_pool_matches_model(ops in proptest::collection::vec(0u8..3, 1..200)) {
        let first = 2u64;
        let last = 17u64;
        let mut pool = TrackPool::new(first, last);
        // Model: queue of (track, outstanding) in allocation order.
        let mut model: std::collections::VecDeque<(u64, u32)> = Default::default();
        for op in ops {
            match op {
                0 => {
                    let expected_full = model.len() as u64 > last - first;
                    match pool.allocate_next() {
                        Some(t) => {
                            prop_assert!(!expected_full);
                            model.push_back((t, 0));
                        }
                        None => prop_assert!(expected_full),
                    }
                }
                1 => {
                    if let Some(entry) = model.back_mut() {
                        pool.add_record(entry.0);
                        entry.1 += 1;
                    }
                }
                _ => {
                    // Commit a record on the oldest track that has one.
                    if let Some(pos) = model.iter().position(|&(_, n)| n > 0) {
                        let track = model[pos].0;
                        pool.commit_record(track);
                        model[pos].1 -= 1;
                        // FIFO reclaim in the model (keep the newest track).
                        while model.len() > 1 && model.front().is_some_and(|&(_, n)| n == 0) {
                            model.pop_front();
                        }
                    }
                }
            }
            prop_assert_eq!(pool.active_tracks(), model.len() as u64);
        }
    }

    /// Slotted pages against a HashMap model.
    #[test]
    fn page_matches_model(
        ops in proptest::collection::vec((0u8..3, 1usize..200), 1..60)
    ) {
        let mut page = Page::new();
        let mut model: std::collections::HashMap<u16, Vec<u8>> = Default::default();
        let mut slots: Vec<u16> = Vec::new();
        for (i, (op, len)) in ops.into_iter().enumerate() {
            let value = vec![(i % 251) as u8; len];
            match op {
                0 => {
                    if let Some(slot) = page.insert(&value) {
                        model.insert(slot, value);
                        slots.push(slot);
                    }
                }
                1 => {
                    if let Some(&slot) = slots.get(i % slots.len().max(1)) {
                        let updated = page.update(slot, &value);
                        if updated {
                            model.insert(slot, value);
                        }
                    }
                }
                _ => {
                    if let Some(&slot) = slots.get(i % slots.len().max(1)) {
                        if page.delete(slot) {
                            model.remove(&slot);
                        }
                    }
                }
            }
            for (&slot, expect) in &model {
                prop_assert_eq!(page.get(slot), Some(&expect[..]));
            }
        }
        prop_assert_eq!(page.live_records(), model.len());
    }
}
