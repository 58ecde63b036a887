//! The headline invariant, property-tested across random workloads and
//! crash instants: **every acknowledged synchronous write survives a power
//! failure**, end to end through the full stack. Each case is one
//! [`explore::run`]: overlapping extents on raw Trail, a system cut, and
//! sometimes `log0 err*k`, whose charges a cut leaves unspent fail the
//! reboot until they are.

use proptest::prelude::*;
use rand::Rng;
use trail::explore::{self, TimedWrite};
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
        let o = explore::run(&stack, &writes, &plan.parse().expect("plan parses"));
        prop_assert!(o.violations.is_empty(), "{plan}: {:#?}", o.violations);
        prop_assert!(o.recovered.is_some(), "{plan}: the dirty log is recovered");
    }
}
