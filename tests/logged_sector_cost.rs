//! What logging a sector costs the host, on the two Trail shapes: a
//! payload sector is hashed once on its way from submission to the data
//! disk, and the bytes that reach the media are the same as when each
//! sector was hashed twice (a record image built from a copy of the
//! payload, hashed on the log disk, and the payload hashed again when its
//! record landed).

use trail::core::TrailStats;
use trail::disk::{profiles, Disk, SECTOR_SIZE};
use trail::drive::{Pace, Write};
use trail::sim::SimDuration;
use trail::{BuiltStack, StackBuilder};

/// A fixed workload of 96 writes of 1–12 sectors on two devices, around
/// the region boundaries at sectors 256 and 512 (so `trail_multi2` splits
/// some of them), with overwrites, and with every kind of sector image a
/// pool keeps apart: whole fills, unique bodies, short images whose byte 0
/// is not the log's marker, zero sectors and sectors whose byte 0 already
/// is the marker.
fn workload() -> Vec<Vec<Write>> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    (0..2)
        .map(|_| {
            (0..48)
                .map(|_| {
                    let sectors = 1 + next(12);
                    let lba = 200 + next(380);
                    let data = (0..sectors)
                        .flat_map(|_| {
                            let mut sector = [0u8; SECTOR_SIZE];
                            let fill = 1 + next(250) as u8;
                            match next(5) {
                                0 => sector.fill(fill),
                                1 => {
                                    sector.fill(fill);
                                    sector[8..16].copy_from_slice(&next(u64::MAX).to_le_bytes());
                                }
                                2 => sector[..100].fill(fill),
                                3 => {}
                                _ => {
                                    sector.fill(fill);
                                    sector[0] = 0;
                                }
                            }
                            sector
                        })
                        .collect();
                    Write {
                        dev: next(2) as usize,
                        lba,
                        data,
                    }
                })
                .collect()
        })
        .collect()
}

/// `kind` on tiny disks, booted.
fn boot(kind: &str) -> BuiltStack {
    StackBuilder::new()
        .seed(7)
        .data_disks(2)
        .data_profile(profiles::tiny_test_disk())
        .log_profile(profiles::tiny_test_disk())
        .build_target(kind.parse().expect("a Trail shape"))
        .expect("boots")
}

/// Drives `stack` through [`workload`] until everything is written back.
fn drive(stack: &mut BuiltStack) {
    let pace = Pace::Acked {
        group: 4,
        gap: SimDuration::from_micros(300),
    };
    assert_eq!(stack.drive(workload(), pace).failed, 0);
    let multi = stack.multi.clone().expect("a Trail stack");
    multi.run_until_quiescent(&mut stack.sim);
}

/// Every Trail instance's statistics.
fn trail_stats(stack: &BuiltStack) -> Vec<TrailStats> {
    let multi = stack.multi.as_ref().expect("a Trail stack");
    (multi.drivers().iter())
        .map(|d| d.with_stats(Clone::clone))
        .collect()
}

#[test]
fn a_logged_payload_sector_is_hashed_once_on_trail_and_trail_multi2() {
    for kind in ["trail", "trail_multi2"] {
        let mut stack = boot(kind);
        let pool = stack.log_disks[0].pool();
        let before = pool.stats().hashed_sectors;
        drive(&mut stack);
        let hashed = pool.stats().hashed_sectors - before;
        let stats = trail_stats(&stack);
        let records: u64 = stats.iter().map(|s| s.log_records).sum();
        let payload: u64 = (stats.iter())
            .flat_map(|s| &s.batch_sizes)
            .map(|&n| u64::from(n))
            .sum();
        let submitted: u64 = (workload().iter().flatten())
            .map(|w| (w.data.len() / SECTOR_SIZE) as u64)
            .sum();
        assert_eq!(payload, submitted, "{kind}: every sector logged once");
        assert!(
            stats.iter().all(|s| s.writebacks > 0),
            "{kind}: every log wrote back"
        );
        // One hash per record header, which is new bytes, and one per
        // payload sector, at submission: the log copy and the write-back
        // take the pooled sector by reference.
        assert_eq!(
            hashed - records,
            payload,
            "{kind}: {hashed} sectors hashed for {records} records of {payload} payload sectors"
        );
    }
}

/// A digest of every sector of `disks`, in order.
fn digest(disks: &[Disk]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for disk in disks {
        for lba in 0..disk.geometry().total_sectors() {
            for word in disk.peek_sector(lba).chunks_exact(8) {
                let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
                h = (h ^ word)
                    .wrapping_mul(0x0000_0100_0000_01B3)
                    .rotate_left(23);
            }
        }
    }
    h
}

#[test]
fn every_sector_of_every_log_and_data_disk_is_what_it_was() {
    // Taken from the code that built each record from a copy of its
    // payload and interned the payload when the record landed.
    for (kind, expected) in [
        ("trail", 0xdc7b_d940_8821_196fu64),
        ("trail_multi2", 0x6fa3_cf42_d641_4e32),
    ] {
        let mut stack = boot(kind);
        drive(&mut stack);
        let disks = [&stack.log_disks[..], &stack.data_disks[..]].concat();
        assert_eq!(digest(&disks), expected, "{kind}: {:#018x}", digest(&disks));
    }
}
