//! RAID-1 under Trail, property-tested across random workloads and crash
//! instants: after a power cut and log-replay recovery the two mirrors are
//! **byte-identical** over the whole volume and each holds every
//! acknowledged write on its own — recovery replays the log tail through
//! the volume, so a write-back that reached one mirror before the cut
//! converges. Each case is one [`explore::run`].

use proptest::prelude::*;
use rand::Rng;
use trail::explore::{self, Level, TimedWrite};
use trail::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn raid1_mirrors_identical_after_crash_recovery(
        seed in any::<u64>(),
        crash_ms in 1u64..200,
        n_writes in 20usize..180,
    ) {
        let mut rng = trail_sim::rng(seed);
        let writes: Vec<TimedWrite> = (0..n_writes)
            .map(|_| TimedWrite {
                lba: rng.gen_range(0..48u64),
                at: SimDuration::from_micros(rng.gen_range(0..n_writes as u64 * 400)),
                dev: 0,
                sectors: 1,
            })
            .collect();
        let stack = StackBuilder::new()
            .data_disks(1)
            .data_profile(profiles::tiny_test_disk())
            .log_profile(profiles::tiny_test_disk())
            .volumes(
                VolumeLayout::Raid1 {
                    read_policy: ReadPolicy::RoundRobin,
                },
                2,
            )
            .trail_default();
        let plan = FaultPlan::power_cut_at(SimDuration::from_millis(crash_ms));
        let o = explore::run(&stack, &Level::Block, &writes, &plan);
        prop_assert!(o.violations.is_empty(), "cut at {crash_ms} ms: {:#?}", o.violations);
        prop_assert!(o.recovered.is_some(), "the dirty log is recovered");
    }
}
