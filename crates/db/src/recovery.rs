//! Redo recovery from the write-ahead log.
//!
//! After a crash, the committed database image is reconstructed by
//! scanning the log file's chunks in order and replaying, in LSN order,
//! every `Put`/`Delete` belonging to a transaction whose `Commit` record
//! made it to disk. Combined with Trail underneath, this exercises the
//! full layered story: Trail's recovery first restores the *block*
//! device's durability guarantee, then WAL redo restores *transaction*
//! atomicity on top of it.

use std::collections::{HashMap, HashSet};

use trail_core::TrailError;
use trail_disk::Lba;
use trail_sim::Simulator;

use crate::engine::TableId;
use crate::stack::BlockStack;
use crate::wal::{Wal, WalRecord};

/// Structured timing/volume breakdown of one WAL redo pass — the
/// database-layer counterpart of `trail_core::RecoveryReport`, so a
/// layered crash experiment can report both halves of the recovery story
/// (block durability below, transaction atomicity above) in one place.
#[derive(Clone, Debug, Default)]
pub struct WalRecoveryReport {
    /// Log chunks parsed before the tail was reached.
    pub chunks_scanned: u64,
    /// WAL records recovered, across all scanned chunks.
    pub records: usize,
    /// Distinct transactions whose `Commit` record made it to disk.
    pub committed_txns: usize,
    /// Rows applied to the committed image (puts + deletes).
    pub rows_applied: usize,
    /// Virtual time spent scanning the log region.
    pub scan_time: trail_sim::SimDuration,
}

impl WalRecoveryReport {
    /// Serializes the report (times in virtual milliseconds).
    pub fn to_json(&self) -> trail_telemetry::JsonValue {
        use trail_telemetry::JsonValue as J;
        J::obj(vec![
            ("chunks_scanned", J::Num(self.chunks_scanned as f64)),
            ("records", J::Num(self.records as f64)),
            ("committed_txns", J::Num(self.committed_txns as f64)),
            ("rows_applied", J::Num(self.rows_applied as f64)),
            ("scan_ms", J::Num(self.scan_time.as_millis_f64())),
        ])
    }
}

/// Reads `count` sectors through the stack, blocking (drains the event
/// queue — recovery owns the simulation).
///
/// # Errors
///
/// Propagates stack errors; a read the stack failed is [`TrailError::Io`]
/// with the delivered error (`PoweredOff` on a dark disk).
pub fn read_blocking(
    sim: &mut Simulator,
    stack: &dyn BlockStack,
    dev: usize,
    lba: Lba,
    count: u32,
) -> Result<Vec<u8>, TrailError> {
    let res = sim.block_on(|sim, done| stack.read(sim, dev, lba, count, done))?;
    sim.run();
    Ok(res?.data.expect("a read returns data"))
}

/// Scans the log region, returning every record of every chunk in LSN
/// order. Stops at the first invalid or out-of-sequence chunk (the tail of
/// the log).
///
/// # Errors
///
/// Propagates stack errors.
pub fn scan_wal(
    sim: &mut Simulator,
    stack: &dyn BlockStack,
    dev: usize,
    region_start: Lba,
    region_sectors: u64,
) -> Result<Vec<(u64, WalRecord)>, TrailError> {
    Ok(scan_wal_inner(sim, stack, dev, region_start, region_sectors)?.0)
}

/// The scan worker: returns the records plus the number of chunks parsed.
fn scan_wal_inner(
    sim: &mut Simulator,
    stack: &dyn BlockStack,
    dev: usize,
    region_start: Lba,
    region_sectors: u64,
) -> Result<(Vec<(u64, WalRecord)>, u64), TrailError> {
    let mut records = Vec::new();
    let mut pos = 0u64;
    let mut seq = 0u64;
    while pos < region_sectors {
        // Read the chunk's first sector to learn its length.
        let head = read_blocking(sim, stack, dev, region_start + pos, 1)?;
        let len_guess = if head.len() >= 16 {
            u32::from_le_bytes(head[12..16].try_into().expect("len")) as usize
        } else {
            break;
        };
        let sectors = Wal::chunk_sectors(len_guess);
        if sectors == 0 || pos + sectors > region_sectors {
            break;
        }
        let mut chunk = head;
        if sectors > 1 {
            let rest = read_blocking(
                sim,
                stack,
                dev,
                region_start + pos + 1,
                (sectors - 1) as u32,
            )?;
            chunk.extend_from_slice(&rest);
        }
        match Wal::parse_chunk(&chunk, seq) {
            Some((recs, used)) => {
                records.extend(recs);
                pos += used;
                seq += 1;
            }
            None => break,
        }
    }
    // Chunks are flushed in order, so LSNs are already sorted; assert the
    // invariant rather than trusting it silently.
    debug_assert!(records.windows(2).all(|w| w[0].0 < w[1].0));
    Ok((records, seq))
}

/// One-call redo recovery with a structured report: scans the log region
/// (timed in virtual time) and replays committed transactions into the
/// row image.
///
/// # Errors
///
/// Propagates stack errors from the scan.
pub fn recover_committed(
    sim: &mut Simulator,
    stack: &dyn BlockStack,
    dev: usize,
    region_start: Lba,
    region_sectors: u64,
) -> Result<(RecoveredImage, WalRecoveryReport), TrailError> {
    let t0 = sim.now();
    let (records, chunks) = scan_wal_inner(sim, stack, dev, region_start, region_sectors)?;
    let scan_time = sim.now().duration_since(t0);
    let image = replay_committed(&records);
    let report = WalRecoveryReport {
        chunks_scanned: chunks,
        records: records.len(),
        committed_txns: committed_set(&records).len(),
        rows_applied: image.len(),
        scan_time,
    };
    Ok((image, report))
}

fn committed_set(records: &[(u64, WalRecord)]) -> HashSet<u32> {
    records
        .iter()
        .filter_map(|(_, r)| match r {
            WalRecord::Commit { txn } => Some(*txn),
            _ => None,
        })
        .collect()
}

/// The committed row image recovery rebuilds: the value (`Some`) or
/// tombstone (`None`) of every row touched by a committed transaction.
pub type RecoveredImage = HashMap<(TableId, u64), Option<Vec<u8>>>;

/// Replays scanned records into the committed row image: the value (or
/// absence) of every row touched by a *committed* transaction.
pub fn replay_committed(records: &[(u64, WalRecord)]) -> RecoveredImage {
    let committed: HashSet<u32> = committed_set(records);
    let mut image: RecoveredImage = HashMap::new();
    for (_, rec) in records {
        match rec {
            WalRecord::Put {
                txn,
                table,
                key,
                value,
            } if committed.contains(txn) => {
                image.insert((*table, *key), Some(value.clone()));
            }
            WalRecord::Delete { txn, table, key } if committed.contains(txn) => {
                image.insert((*table, *key), None);
            }
            _ => {}
        }
    }
    image
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_applies_only_committed_transactions() {
        let records = vec![
            (
                0,
                WalRecord::Put {
                    txn: 1,
                    table: 0,
                    key: 5,
                    value: vec![1],
                },
            ),
            (
                1,
                WalRecord::Put {
                    txn: 2,
                    table: 0,
                    key: 6,
                    value: vec![2],
                },
            ),
            (2, WalRecord::Commit { txn: 1 }),
            // txn 2 never commits.
            (
                3,
                WalRecord::Put {
                    txn: 3,
                    table: 0,
                    key: 5,
                    value: vec![9],
                },
            ),
            (4, WalRecord::Commit { txn: 3 }),
            (
                5,
                WalRecord::Delete {
                    txn: 4,
                    table: 0,
                    key: 7,
                },
            ),
            (6, WalRecord::Commit { txn: 4 }),
        ];
        let image = replay_committed(&records);
        assert_eq!(image.get(&(0, 5)), Some(&Some(vec![9])), "later txn wins");
        assert_eq!(image.get(&(0, 6)), None, "uncommitted txn invisible");
        assert_eq!(image.get(&(0, 7)), Some(&None), "committed delete");
    }
}
