//! Property tests for the `blkparse` importer.
//!
//! `blkparse` text comes from outside the program, so the importer's
//! contract is totality: arbitrary input is a trace or a structured
//! [`ImportError`] — never a panic, never a wrapped number.
//!
//! - **Byte soup**: arbitrary bytes (read lossily as UTF-8) never panic
//!   [`import_blkparse`] or [`scan_blkparse`], and every error formats.
//! - **Token soup**: lines assembled from the tokens an event line is
//!   made of — device pairs, the extreme CPU / sector / timestamp
//!   spellings, action and RWBS letters, `+` — reach every parse branch
//!   far more often than bytes do. The two passes must classify each
//!   input identically, and when they accept it the streaming import
//!   must reproduce the in-memory trace byte for byte.

use proptest::prelude::*;

use trail_trace::{
    import_blkparse, import_blkparse_into, scan_blkparse, to_binary, ImportOptions, StreamId,
    TraceWriter,
};

/// What an event line can be made of, extremes included.
const TOKENS: &[&str] = &[
    "8,0",
    "8,16",
    "259,4294967295",
    "4294967296,0",
    "8,",
    ",",
    "0",
    "1",
    "7",
    "4294967294",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "0.000000000",
    "0.013088281",
    "1e300",
    "-0.5",
    "nan",
    "inf",
    "Q",
    "C",
    "D",
    "UT",
    "W",
    "WS",
    "R",
    "RA",
    "N",
    "FN",
    "+",
    "8",
    "32",
    "[fio]",
    "CPU0",
    "(sda):",
];

/// A well-formed `Q` write on `dev` from `cpu`, for mixing into soup.
fn event(dev: &str, cpu: &str) -> String {
    format!("{dev} {cpu} 1 0.000001000 42 Q W 2048 + 8 [x]")
}

fn arb_line() -> BoxedStrategy<String> {
    let token = (0..TOKENS.len()).prop_map(|i| TOKENS[i]);
    prop_oneof![
        // Free soup.
        proptest::collection::vec(token, 0..14).prop_map(|t| t.join(" ")),
        // An event line with one column replaced by a soup token.
        (0usize..11, (0..TOKENS.len())).prop_map(|(col, i)| {
            let mut cols: Vec<&str> = "8,0 1 1 0.000001000 42 Q W 2048 + 8 [x]"
                .split(' ')
                .collect();
            cols[col] = TOKENS[i];
            cols.join(" ")
        }),
        // Well-formed events, so some inputs are accepted.
        ((0..3usize), (0..4usize)).prop_map(|(d, c)| event(
            ["8,0", "8,16", "259,4294967295"][d],
            ["0", "1", "4294967294", "4294967295"][c],
        )),
    ]
    .boxed()
}

/// Both passes must return without panicking, agree on accept/reject,
/// and — when they accept — describe the same trace.
fn assert_import_is_total_and_consistent(text: &str) -> Result<(), TestCaseError> {
    for action in ['Q', 'C'] {
        let opts = ImportOptions { action };
        let imported = import_blkparse(text, &opts);
        let scanned = scan_blkparse(text.as_bytes(), &opts);
        match (&imported, &scanned) {
            (Ok(trace), Ok(scan)) => {
                prop_assert_eq!(trace.len() as u64, scan.records);
                prop_assert_eq!(usize::from(trace.meta.devices), scan.devices.len());
                prop_assert!(trace.validate().is_ok(), "import must normalize");
                for r in &trace.records {
                    prop_assert!(usize::from(r.dev) < scan.devices.len());
                    // CPU k is stream k + 1, never the reserved 0.
                    prop_assert_ne!(r.stream, StreamId::UNTAGGED);
                }
                let meta = scan
                    .meta(&opts)
                    .expect("a scanned device table fits the header");
                let mut w = TraceWriter::new(Vec::new(), &meta).expect("Vec writes");
                import_blkparse_into(text.as_bytes(), &opts, scan, 0, &mut w)
                    .expect("the writing pass accepts what the scan accepted");
                let bytes = w.finish().expect("Vec writes");
                prop_assert_eq!(bytes, to_binary(trace));
            }
            (Err(a), Err(b)) => {
                // Both passes name the same defect.
                prop_assert_eq!(a, b);
                prop_assert!(!a.to_string().is_empty(), "error must format");
            }
            _ => prop_assert!(
                false,
                "passes disagree on {:?}: import {:?}, scan {:?}",
                text,
                imported.as_ref().map(|t| t.len()),
                scanned
            ),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn byte_soup_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        assert_import_is_total_and_consistent(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn token_soup_never_panics_and_the_passes_agree(
        lines in proptest::collection::vec(arb_line(), 0..8)
    ) {
        assert_import_is_total_and_consistent(&lines.join("\n"))?;
    }
}
