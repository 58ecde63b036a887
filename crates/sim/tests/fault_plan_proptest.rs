//! Property tests for the [`FaultPlan`] text form.
//!
//! A plan string comes from outside the program (a scenario config, a
//! campaign driver's command line), so parsing must be total, and the
//! text form is the plan's serialization, so it must be lossless:
//!
//! - **Round trip**: every plan — any offset and spike up to
//!   [`MAX_FAULT_NANOS`], any target index, any count — parses back from
//!   its `Display` form to an equal plan, and re-encodes to the same text.
//! - **Byte soup / token soup**: arbitrary bytes (read lossily as UTF-8)
//!   and arbitrary sequences of the grammar's own tokens parse to a plan
//!   or a [`trail_sim::FaultPlanParseError`] that formats — never a
//!   panic; whatever is accepted re-encodes canonically.

use proptest::prelude::*;

use trail_sim::{Fault, FaultKind, FaultPlan, FaultTarget, SimDuration, MAX_FAULT_NANOS};

fn arb_target() -> BoxedStrategy<FaultTarget> {
    prop_oneof![
        Just(FaultTarget::System),
        any::<usize>().prop_map(FaultTarget::Data),
        any::<usize>().prop_map(FaultTarget::Log),
        (any::<usize>(), any::<usize>())
            .prop_map(|(volume, member)| FaultTarget::Member { volume, member }),
        // The extremes a uniform draw never lands on.
        Just(FaultTarget::Data(usize::MAX)),
        Just(FaultTarget::Member {
            volume: 0,
            member: usize::MAX
        }),
    ]
    .boxed()
}

fn arb_kind() -> BoxedStrategy<FaultKind> {
    prop_oneof![
        Just(FaultKind::PowerCut),
        Just(FaultKind::Fail),
        any::<u32>().prop_map(|count| FaultKind::TransientError { count }),
        (0..=MAX_FAULT_NANOS, any::<u32>()).prop_map(|(extra, count)| FaultKind::LatencySpike {
            extra: SimDuration::from_nanos(extra),
            count
        }),
        Just(FaultKind::LatencySpike {
            extra: SimDuration::from_nanos(MAX_FAULT_NANOS),
            count: u32::MAX
        }),
    ]
    .boxed()
}

fn arb_plan() -> BoxedStrategy<FaultPlan> {
    let at = prop_oneof![0..=MAX_FAULT_NANOS, Just(0u64), Just(MAX_FAULT_NANOS)];
    proptest::collection::vec((at, arb_target(), arb_kind()), 0..6)
        .prop_map(|faults| FaultPlan {
            faults: faults
                .into_iter()
                .map(|(at, target, kind)| Fault {
                    at: SimDuration::from_nanos(at),
                    target,
                    kind,
                })
                .collect(),
        })
        .boxed()
}

/// The grammar's own pieces, plus the spellings just outside it.
const TOKENS: &[&str] = &[
    "@0",
    "@1000",
    "@18446744073709551615",
    "@18446744073709551616",
    "@-1",
    "@",
    "@x",
    "system",
    "data0",
    "data",
    "data18446744073709551616",
    "log1",
    "log-1",
    "vol0.m1",
    "vol0",
    "vol.m",
    "vol1.m2.m3",
    "cut",
    "fail",
    "err*3",
    "err*",
    "err*4294967296",
    "slow+250*2",
    "slow+*",
    "slow+1",
    "slow+18446744073709551616*1",
    "melt",
    ";",
    ";;",
    " ",
    "\t",
    "\n",
];

/// Parsing `text` must not panic; an accepted plan re-encodes to text
/// that parses to the same plan, and a rejection formats.
fn assert_parse_is_total_and_canonical(text: &str) -> Result<(), TestCaseError> {
    match text.parse::<FaultPlan>() {
        Ok(plan) => {
            prop_assert_eq!(plan.to_string().parse::<FaultPlan>(), Ok(plan.clone()));
        }
        Err(e) => prop_assert!(
            e.to_string().starts_with("invalid fault plan: "),
            "error must format: {e}"
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_plan_round_trips_through_its_text_form(plan in arb_plan()) {
        let text = plan.to_string();
        let back: FaultPlan = text.parse().expect("own encoding parses");
        prop_assert_eq!(&back, &plan);
        prop_assert_eq!(back.to_string(), text);
    }

    #[test]
    fn byte_soup_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
        assert_parse_is_total_and_canonical(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn token_soup_never_panics(
        picks in proptest::collection::vec(0..TOKENS.len(), 0..16),
        glue in any::<bool>(),
    ) {
        let sep = if glue { "" } else { " " };
        let text = picks.iter().map(|&i| TOKENS[i]).collect::<Vec<_>>().join(sep);
        assert_parse_is_total_and_canonical(&text)?;
    }
}
