//! Parity algebra, property-tested: the invariants the RAID layouts are
//! built on, checked against the raw member disks after arbitrary
//! workloads rather than against the volume's own read path.

use proptest::prelude::*;
use rand::Rng;
use trail_blockio::{IoRequest, StandardDriver};
use trail_disk::{profiles, Disk, SECTOR_SIZE};
use trail_sim::Simulator;
use trail_volume::{RaidVolume, VolumeLayout};

fn volume(layout: VolumeLayout, members: usize) -> RaidVolume {
    let drivers: Vec<StandardDriver> = (0..members)
        .map(|i| StandardDriver::new(Disk::new(format!("m{i}"), profiles::tiny_test_disk())))
        .collect();
    RaidVolume::new("vol", layout, drivers)
}

fn write_ok(sim: &mut Simulator, vol: &RaidVolume, lba: u64, data: Vec<u8>) {
    sim.block_on(|sim, done| vol.submit(sim, IoRequest::write(lba, data), done))
        .expect("write accepted")
        .expect("write completes");
    sim.run();
}

fn read_back(sim: &mut Simulator, vol: &RaidVolume, lba: u64, count: u32) -> Vec<u8> {
    let done = sim
        .block_on(|sim, done| vol.submit(sim, IoRequest::read(lba, count), done))
        .expect("read accepted")
        .expect("read completes");
    sim.run();
    done.data.expect("read returns data").to_vec()
}

/// Writes a random workload into the low LBAs of `vol`, maintaining a
/// byte-exact shadow of the logical address space.
fn random_workload(
    sim: &mut Simulator,
    vol: &RaidVolume,
    seed: u64,
    writes: usize,
    span_sectors: u64,
) -> Vec<u8> {
    let mut shadow = vec![0u8; (span_sectors as usize) * SECTOR_SIZE];
    let mut rng = trail_sim::rng(seed);
    for _ in 0..writes {
        let len = rng.gen_range(1..=12u64).min(span_sectors);
        let lba = rng.gen_range(0..=(span_sectors - len));
        let fill: u8 = rng.gen();
        let data: Vec<u8> = (0..(len as usize) * SECTOR_SIZE)
            .map(|i| fill.wrapping_add(i as u8).wrapping_mul(13))
            .collect();
        shadow[(lba as usize) * SECTOR_SIZE..((lba + len) as usize) * SECTOR_SIZE]
            .copy_from_slice(&data);
        write_ok(sim, vol, lba, data);
    }
    shadow
}

/// RAID-5 invariant: after any sequence of writes (single-chunk
/// reconstruct-writes, full stripes, anything in between), the XOR of every physical row across
/// all members is zero — unwritten sectors read back as zeros, so the
/// identity holds over the whole array, not just touched stripes.
fn raid5_parity_holds(seed: u64, writes: usize, members: usize, chunk: u32) -> Result<(), String> {
    let mut sim = Simulator::new();
    let vol = volume(
        VolumeLayout::Raid5 {
            chunk_sectors: chunk,
        },
        members,
    );
    let span = 6 * u64::from(chunk) * (members as u64 - 1);
    random_workload(&mut sim, &vol, seed, writes, span);
    let disks = vol.member_disks();
    let rows = vol.capacity_sectors() / (members as u64 - 1);
    for row in 0..rows {
        let mut acc = [0u8; SECTOR_SIZE];
        for d in &disks {
            let sector = d.peek_sector(row);
            for (a, b) in acc.iter_mut().zip(sector.iter()) {
                *a ^= b;
            }
        }
        if acc.iter().any(|&b| b != 0) {
            return Err(format!("row {row}: XOR across members is non-zero"));
        }
    }
    Ok(())
}

/// RAID-5 degraded reads: fail one member after an arbitrary workload
/// and every logical byte must still read back exactly — the missing
/// member's contribution reconstructed from data XOR parity.
fn raid5_degraded_reads_reconstruct(
    seed: u64,
    writes: usize,
    members: usize,
    chunk: u32,
    victim: usize,
) -> Result<(), String> {
    let mut sim = Simulator::new();
    let vol = volume(
        VolumeLayout::Raid5 {
            chunk_sectors: chunk,
        },
        members,
    );
    let span = 6 * u64::from(chunk) * (members as u64 - 1);
    let shadow = random_workload(&mut sim, &vol, seed, writes, span);
    vol.fail_member(sim.now(), victim % members);
    let step = 16u64;
    let mut lba = 0;
    while lba < span {
        let count = step.min(span - lba) as u32;
        let got = read_back(&mut sim, &vol, lba, count);
        let want = &shadow[(lba as usize) * SECTOR_SIZE..][..(count as usize) * SECTOR_SIZE];
        if got != want {
            return Err(format!(
                "degraded read at lba {lba}+{count} diverged from the written bytes"
            ));
        }
        lba += u64::from(count);
    }
    let degraded = vol.with_stats(|s| s.degraded_reads);
    if degraded == 0 {
        return Err("degraded sweep never exercised reconstruction".into());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn raid5_rows_always_xor_to_zero(
        seed in any::<u64>(),
        writes in 1usize..40,
        members in 3usize..=5,
        chunk_idx in 0usize..4,
    ) {
        let chunk = [1u32, 2, 4, 8][chunk_idx];
        raid5_parity_holds(seed, writes, members, chunk)
            .map_err(TestCaseError::fail)?;
    }

    #[test]
    fn raid5_degraded_reads_return_written_bytes(
        seed in any::<u64>(),
        writes in 1usize..40,
        members in 3usize..=5,
        chunk_idx in 0usize..4,
        victim in 0usize..5,
    ) {
        let chunk = [1u32, 2, 4, 8][chunk_idx];
        raid5_degraded_reads_reconstruct(seed, writes, members, chunk, victim)
            .map_err(TestCaseError::fail)?;
    }
}
