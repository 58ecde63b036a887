//! The headline invariant, property-tested across random workloads and
//! crash instants: **every acknowledged synchronous write survives a power
//! failure**, end to end through the full stack. Each case is one
//! [`explore::run`]: overlapping extents on raw Trail, a system cut, and
//! sometimes `log0 err*k`, whose charges a cut leaves unspent fail the
//! reboot until they are. A log-like run of adjacent writes, whose
//! write-backs the data disk's queue merges, is cut at every instant.

use proptest::prelude::*;
use rand::Rng;
use trail::explore::{self, Level, TimedWrite};
use trail::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn acked_writes_always_survive(
        seed in any::<u64>(),
        crash_ms in 1u64..200,
        n_writes in 20usize..250,
        (errors_ms, errors) in (0u64..200, 0u32..4),
    ) {
        // Extents of 1-8 sectors at any LBA overlap each other partially,
        // so recovery's oldest-first replay of overlapping records is what
        // the ledger check exercises.
        let mut rng = trail_sim::rng(seed);
        let writes: Vec<TimedWrite> = (0..n_writes)
            .map(|_| {
                let dev = rng.gen_range(0..2usize);
                let sectors = rng.gen_range(1..=8u64);
                let lba = rng.gen_range(0..=48 - sectors);
                let at = SimDuration::from_micros(rng.gen_range(0..n_writes as u64 * 400));
                TimedWrite { at, dev, lba, sectors }
            })
            .collect();
        let mut plan = format!("@{} system cut", crash_ms * 1_000_000);
        if errors > 0 {
            plan += &format!("; @{} log0 err*{errors}", errors_ms * 1_000_000);
        }
        let stack = StackBuilder::new()
            .data_disks(2)
            .data_profile(profiles::tiny_test_disk())
            .log_profile(profiles::tiny_test_disk())
            .trail_default();
        let o = explore::run(&stack, &Level::Block, &writes, &plan.parse().expect("plan parses"));
        prop_assert!(o.violations.is_empty(), "{plan}: {:#?}", o.violations);
        prop_assert!(o.recovered.is_some(), "{plan}: the dirty log is recovered");
    }
}

/// A write-ahead log on raw Trail: 1–4-sector records laid end to end on
/// one data disk, one every 150 µs, so write-backs queue behind each other
/// and go out merged. A system cut at every instant [`explore::run`]
/// enumerates, those inside a merged write-back included, loses no
/// acknowledged write.
#[test]
fn every_cut_through_merged_write_backs_keeps_the_acknowledged_writes() {
    let mut lba = 2040;
    let writes: Vec<TimedWrite> = (0..24u64)
        .map(|i| {
            let sectors = 1 + i % 4;
            lba += sectors;
            let at = SimDuration::from_micros(150 * i);
            TimedWrite {
                at,
                dev: 0,
                lba: lba - sectors,
                sectors,
            }
        })
        .collect();
    let stack = StackBuilder::new()
        .data_disks(1)
        .data_profile(profiles::tiny_test_disk())
        .log_profile(profiles::tiny_test_disk())
        .trail_default();
    let probe = explore::run(&stack, &Level::Block, &writes, &FaultPlan::new());
    assert!(probe.violations.is_empty(), "{:#?}", probe.violations);
    assert!(probe.commands < probe.requests, "the write-backs merge");
    // A command longer than any one write carries several.
    let merged: Vec<&Vec<SimDuration>> =
        (probe.data_writes.iter()).filter(|w| w.len() > 4).collect();
    let mut inside_merged = 0;
    for &at in &probe.cuts {
        let (target, kind) = (FaultTarget::System, FaultKind::PowerCut);
        let o = explore::run(
            &stack,
            &Level::Block,
            &writes,
            &FaultPlan::new().with(Fault { at, target, kind }),
        );
        assert!(o.violations.is_empty(), "cut at {at}: {:#?}", o.violations);
        inside_merged += usize::from(merged.iter().any(|w| w[0] <= at && at < w[w.len() - 1]));
    }
    assert!(
        inside_merged > 0,
        "no cut of {} fell inside a merged write-back",
        probe.cuts.len()
    );
}
