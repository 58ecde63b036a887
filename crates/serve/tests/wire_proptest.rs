//! Property tests for the serving wire protocol.
//!
//! The codec's contract, exercised over arbitrary frames:
//!
//! - **Round trip**: `encode → decode` returns the original frame and
//!   consumes exactly the encoded bytes; re-encoding is byte-identical.
//! - **Truncation**: every strict prefix of a valid frame decodes to a
//!   structured [`WireError`] — never a panic, never a bogus frame.
//! - **Corruption**: flipping any byte never panics; when the flipped
//!   buffer still decodes, the decoded frame re-encodes to exactly the
//!   bytes consumed (the codec has one canonical encoding, so it cannot
//!   "repair" corrupt input into something it would not itself emit).
//! - **Garbage**: arbitrary byte soup decodes to a structured error or
//!   a canonically re-encodable frame, and every error formats.

use proptest::prelude::*;

use trail_serve::wire::HEADER_LEN;
use trail_serve::{Request, Response, Status, WireError};

fn arb_request() -> BoxedStrategy<Request> {
    prop_oneof![
        any::<u32>().prop_map(|stream| Request::Open { stream }),
        (any::<u16>(), any::<u64>(), 1u32..1024).prop_map(|(dev, lba, sectors)| Request::Get {
            dev,
            lba,
            sectors
        }),
        (
            any::<u16>(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..2048)
        )
            .prop_map(|(dev, lba, data)| Request::Put { dev, lba, data }),
        Just(Request::Commit),
        Just(Request::Close),
    ]
    .boxed()
}

fn arb_status() -> BoxedStrategy<Status> {
    prop_oneof![
        Just(Status::Ok),
        Just(Status::Rejected),
        Just(Status::Shed),
        Just(Status::Cancelled),
        Just(Status::BadRequest),
        Just(Status::NotOpen),
        Just(Status::Transient),
        Just(Status::MediaFailed),
        Just(Status::PoweredOff),
    ]
    .boxed()
}

fn arb_response() -> BoxedStrategy<Response> {
    prop_oneof![
        any::<u64>().prop_map(|session| Response::Opened { session }),
        (
            arb_status(),
            proptest::collection::vec(any::<u8>(), 0..2048)
        )
            .prop_map(|(status, payload)| Response::Data { status, payload }),
        arb_status().prop_map(|status| Response::Done { status }),
        (any::<u64>(), any::<u64>()).prop_map(|(completed, cancelled)| Response::Closed {
            completed,
            cancelled
        }),
    ]
    .boxed()
}

/// Decoding `bytes` as both frame kinds must never panic; any success
/// must re-encode to exactly the bytes consumed.
fn assert_decode_is_total_and_canonical(bytes: &[u8]) -> Result<(), TestCaseError> {
    match Request::decode(bytes) {
        Ok((req, consumed)) => {
            prop_assert!(consumed <= bytes.len());
            prop_assert_eq!(req.encode(), &bytes[..consumed]);
        }
        Err(e) => prop_assert!(!e.to_string().is_empty(), "error must format"),
    }
    match Response::decode(bytes) {
        Ok((resp, consumed)) => {
            prop_assert!(consumed <= bytes.len());
            prop_assert_eq!(resp.encode(), &bytes[..consumed]);
        }
        Err(e) => prop_assert!(!e.to_string().is_empty(), "error must format"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_round_trip_byte_identically(req in arb_request()) {
        let bytes = req.encode();
        let (back, consumed) = Request::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&back, &req);
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn responses_round_trip_byte_identically(resp in arb_response()) {
        let bytes = resp.encode();
        let (back, consumed) = Response::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&back, &resp);
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn truncated_requests_error_structurally(req in arb_request(), frac in 0.0f64..1.0) {
        let bytes = req.encode();
        // Every header-region prefix, plus an arbitrary body cut.
        let mut cuts: Vec<usize> = (0..bytes.len().min(HEADER_LEN)).collect();
        cuts.push((bytes.len() - 1).min((bytes.len() as f64 * frac) as usize));
        for cut in cuts {
            let err = Request::decode(&bytes[..cut]).expect_err("prefix cannot decode");
            prop_assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut at {} gave {:?}", cut, err
            );
        }
    }

    #[test]
    fn truncated_responses_error_structurally(resp in arb_response(), frac in 0.0f64..1.0) {
        let bytes = resp.encode();
        let mut cuts: Vec<usize> = (0..bytes.len().min(HEADER_LEN)).collect();
        cuts.push((bytes.len() - 1).min((bytes.len() as f64 * frac) as usize));
        for cut in cuts {
            let err = Response::decode(&bytes[..cut]).expect_err("prefix cannot decode");
            prop_assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut at {} gave {:?}", cut, err
            );
        }
    }

    #[test]
    fn corrupted_frames_never_panic(
        req in arb_request(),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut bytes = req.encode();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        assert_decode_is_total_and_canonical(&bytes)?;
    }

    #[test]
    fn corrupted_responses_never_panic(
        resp in arb_response(),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut bytes = resp.encode();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        assert_decode_is_total_and_canonical(&bytes)?;
    }

    #[test]
    fn garbage_decodes_to_structured_errors(
        bytes in proptest::collection::vec(any::<u8>(), 0..64)
    ) {
        assert_decode_is_total_and_canonical(&bytes)?;
    }

    #[test]
    fn cross_kind_decoding_is_rejected(req in arb_request(), resp in arb_response()) {
        // A response frame fed to the request decoder (and vice versa)
        // must fail with UnknownTag, not misparse.
        let rbytes = resp.encode();
        prop_assert!(matches!(
            Request::decode(&rbytes),
            Err(WireError::UnknownTag { .. })
        ));
        let qbytes = req.encode();
        prop_assert!(matches!(
            Response::decode(&qbytes),
            Err(WireError::UnknownTag { .. })
        ));
    }

    #[test]
    fn status_codes_are_total(code in any::<u8>()) {
        match Status::from_code(code) {
            Ok(status) => prop_assert_eq!(status.code(), code),
            Err(e) => prop_assert!(matches!(e, WireError::BadStatus { code: c } if c == code)),
        }
    }
}
