//! Property tests: the frame and payload decoders are *total*.
//!
//! A network peer controls every byte a server reads, so the decoding
//! pipeline must map **any** byte string to either a value or a typed
//! [`WireError`] — never a panic, never an out-of-bounds read, never an
//! attacker-sized allocation. These properties feed arbitrary bytes (and
//! adversarially mutated valid frames, which get past the header checks
//! and stress the payload decoders) through every decoding entry point.

use napmon_core::wirefmt;
use napmon_wire::{
    Frame, Opcode, Request, Response, TenantRoute, WireError, DEFAULT_MAX_PAYLOAD, HEADER_LEN,
    LEGACY_WIRE_PROTOCOL_VERSION, WIRE_PROTOCOL_VERSION,
};
use proptest::prelude::*;

/// A tight payload cap so forged-length checks are reachable from small
/// generated inputs.
const SMALL_MAX_PAYLOAD: u32 = 1 << 16;

/// Every opcode, for building valid-header frames around arbitrary
/// payloads.
const OPCODES: [Opcode; 24] = [
    Opcode::Query,
    Opcode::QueryBatch,
    Opcode::Absorb,
    Opcode::Stats,
    Opcode::Shutdown,
    Opcode::Mount,
    Opcode::Unmount,
    Opcode::Promote,
    Opcode::ListTenants,
    Opcode::ShadowStats,
    Opcode::Metrics,
    Opcode::Verdict,
    Opcode::Verdicts,
    Opcode::Absorbed,
    Opcode::StatsReport,
    Opcode::ShuttingDown,
    Opcode::Mounted,
    Opcode::Unmounted,
    Opcode::Promoted,
    Opcode::TenantList,
    Opcode::ShadowReport,
    Opcode::MetricsReport,
    Opcode::Busy,
    Opcode::Error,
];

/// A valid tenant id derived deterministically from integer draws: first
/// byte alphanumeric, the rest from the id charset, 1..=64 bytes.
fn tenant_id_from(seed: u64, len: usize) -> String {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-";
    let mut state = seed;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut id = String::new();
    id.push(FIRST[next() % FIRST.len()] as char);
    for _ in 1..len.clamp(1, 64) {
        id.push(REST[next() % REST.len()] as char);
    }
    id
}

/// Decoding must not read past the end, allocate per forged counts, or
/// panic; on success it must consume within bounds.
fn check_frame_decode(bytes: &[u8], max_payload: u32) {
    match Frame::decode(bytes, max_payload) {
        Ok((frame, consumed)) => {
            assert!(consumed <= bytes.len());
            let trace_len = if frame.trace_id.is_some() { 8 } else { 0 };
            let route_len = frame.route.as_ref().map_or(0, TenantRoute::encoded_len);
            assert_eq!(
                consumed,
                HEADER_LEN + trace_len + route_len + frame.payload.len()
            );
            // A decoded frame re-encodes to exactly the bytes consumed.
            assert_eq!(frame.encode().unwrap(), bytes[..consumed]);
            // The payload decoders are total too, whatever the opcode.
            let _ = Request::decode(&frame);
            let _ = Response::decode(&frame);
        }
        Err(e) => drop(e), // typed failure is the other legal outcome
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary byte strings: most fail the magic check, some get deeper.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in collection::vec(0u8..=255, 0..96)) {
        check_frame_decode(&bytes, DEFAULT_MAX_PAYLOAD);
        check_frame_decode(&bytes, SMALL_MAX_PAYLOAD);
    }

    /// Byte strings opening with the protocol magic: these exercise the
    /// version/opcode/reserved/length checks rather than dying at byte 0.
    #[test]
    fn magic_prefixed_bytes_never_panic(tail in collection::vec(0u8..=255, 0..96)) {
        let mut bytes = napmon_wire::MAGIC.to_vec();
        bytes.extend_from_slice(&tail);
        check_frame_decode(&bytes, SMALL_MAX_PAYLOAD);
    }

    /// Structurally valid frames around arbitrary payload bytes: the
    /// header decodes clean, so the payload decoders see every input.
    #[test]
    fn valid_frames_with_arbitrary_payloads_never_panic(
        opcode_index in 0usize..24,
        request_id in 0u64..u64::MAX,
        trace_id in proptest::option::of(0u64..u64::MAX),
        payload in collection::vec(0u8..=255, 0..80),
    ) {
        let frame = Frame {
            opcode: OPCODES[opcode_index],
            request_id,
            trace_id,
            route: None,
            payload,
        };
        let bytes = frame.encode().unwrap();
        let (decoded, consumed) = Frame::decode(&bytes, DEFAULT_MAX_PAYLOAD)
            .expect("a well-formed frame must decode");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(&decoded, &frame);
        let _ = Request::decode(&decoded);
        let _ = Response::decode(&decoded);
        // Every strict prefix is a typed Truncated, nothing else.
        for cut in [0, 1, HEADER_LEN.min(bytes.len() - 1), bytes.len() - 1] {
            prop_assert!(matches!(
                Frame::decode(&bytes[..cut], DEFAULT_MAX_PAYLOAD),
                Err(WireError::Truncated)
            ));
        }
    }

    /// Mutating one byte of a valid frame yields a frame or a typed
    /// error — and the verdict payload decoder in particular stays total
    /// under corruption of a real verdict encoding.
    #[test]
    fn mutated_verdict_payloads_never_panic(
        flip_at in 0usize..1000,
        flip_to in 0u8..=255,
    ) {
        use napmon_core::{Verdict, Violation};
        let mut payload = Vec::new();
        wirefmt::put_verdicts(&mut payload, &[
            Verdict::ok(),
            Verdict::warn(vec![
                Violation::BelowMin { neuron: 2, value: -0.5, bound: 0.0 },
                Violation::UnknownPattern { word: (0..19).map(|i| i % 2 == 0).collect() },
            ]),
        ]);
        let mut frame = Frame {
            opcode: Opcode::Verdicts,
            request_id: 1,
            trace_id: None,
            route: None,
            payload,
        };
        let index = flip_at % frame.payload.len();
        frame.payload[index] = flip_to;
        let _ = Response::decode(&frame); // value or typed error, no panic
    }

    /// v2 tenant-routed frames round-trip — route preserved, payload
    /// untouched, re-encode byte-identical — and both payload decoders
    /// stay total over arbitrary payload bytes behind a route.
    #[test]
    fn routed_frames_round_trip_and_decoders_stay_total(
        opcode_index in 0usize..24,
        request_id in 0u64..u64::MAX,
        trace_id in proptest::option::of(0u64..u64::MAX),
        id_seed in 0u64..u64::MAX,
        id_len in 1usize..65,
        version in 0u32..u32::MAX,
        payload in collection::vec(0u8..=255, 0..80),
    ) {
        let route = TenantRoute {
            model_id: tenant_id_from(id_seed, id_len),
            version,
        };
        let frame = Frame {
            opcode: OPCODES[opcode_index],
            request_id,
            trace_id,
            route: Some(route.clone()),
            payload,
        };
        let bytes = frame.encode().unwrap();
        let (decoded, consumed) = Frame::decode(&bytes, DEFAULT_MAX_PAYLOAD)
            .expect("a well-formed routed frame must decode");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(&decoded, &frame);
        prop_assert_eq!(decoded.route.as_ref(), Some(&route));
        let _ = Request::decode(&decoded);
        let _ = Response::decode(&decoded);
        // Every strict prefix is a typed Truncated, nothing else.
        for cut in [0, HEADER_LEN.min(bytes.len() - 1), bytes.len() - 1] {
            prop_assert!(matches!(
                Frame::decode(&bytes[..cut], DEFAULT_MAX_PAYLOAD),
                Err(WireError::Truncated)
            ));
        }
    }

    /// Mutating any one byte of a valid routed frame — header, flags,
    /// route block, or payload — yields a frame or a typed error through
    /// every decoding entry point. This is the adversarial leg for the
    /// v2 route machinery specifically.
    #[test]
    fn mutated_routed_frames_never_panic(
        id_seed in 0u64..u64::MAX,
        id_len in 1usize..65,
        version in 0u32..u32::MAX,
        flip_at in 0usize..10_000,
        flip_to in 0u8..=255,
    ) {
        let frame = Frame {
            opcode: Opcode::Query,
            request_id: 7,
            trace_id: Some(0x5EED_7ACE_5EED_7ACE),
            route: Some(TenantRoute {
                model_id: tenant_id_from(id_seed, id_len),
                version,
            }),
            payload: {
                let mut p = Vec::new();
                wirefmt::put_features(&mut p, &[0.25, -1.5, 3.0]);
                p
            },
        };
        let mut bytes = frame.encode().unwrap();
        let index = flip_at % bytes.len();
        bytes[index] = flip_to;
        check_frame_decode(&bytes, DEFAULT_MAX_PAYLOAD);
    }

    /// Cross-version peers fail typed in both directions: any frame whose
    /// header names a version other than [`WIRE_PROTOCOL_VERSION`] — the
    /// v1 legacy version included — is refused with
    /// [`WireError::UnsupportedVersion`] naming both versions, so each
    /// side of a v1↔v2 pairing can report exactly what the other speaks.
    #[test]
    fn cross_version_frames_fail_typed(
        opcode_index in 0usize..24,
        request_id in 0u64..u64::MAX,
        version in 0u16..u16::MAX,
        payload in collection::vec(0u8..=255, 0..32),
    ) {
        let frame = Frame {
            opcode: OPCODES[opcode_index],
            request_id,
            trace_id: None,
            route: None,
            payload,
        };
        let mut bytes = frame.encode().unwrap();
        // A v1 peer's frame: same layout, version field rewritten. (The
        // layouts genuinely agree through the header: v1 frames carry a
        // zero flags byte, which v2 reads as "unrouted".)
        bytes[4..6].copy_from_slice(&LEGACY_WIRE_PROTOCOL_VERSION.to_le_bytes());
        match Frame::decode(&bytes, DEFAULT_MAX_PAYLOAD) {
            Err(WireError::UnsupportedVersion { found, supported }) => {
                prop_assert_eq!(found, LEGACY_WIRE_PROTOCOL_VERSION);
                prop_assert_eq!(supported, WIRE_PROTOCOL_VERSION);
            }
            other => prop_assert!(false, "v1 frame must fail typed, got {other:?}"),
        }
        // And any foreign version at all — what a v1 server sees from a
        // v2 client is the mirror image of this check.
        if version != WIRE_PROTOCOL_VERSION {
            bytes[4..6].copy_from_slice(&version.to_le_bytes());
            match Frame::decode(&bytes, DEFAULT_MAX_PAYLOAD) {
                Err(WireError::UnsupportedVersion { found, supported }) => {
                    prop_assert_eq!(found, version);
                    prop_assert_eq!(supported, WIRE_PROTOCOL_VERSION);
                }
                other => prop_assert!(false, "foreign version must fail typed, got {other:?}"),
            }
        }
    }

    /// Feature vectors fail closed: every finite payload — subnormals,
    /// signed zeros and extreme exponents included — round-trips
    /// bit-exactly, and a payload with any NaN or infinite element
    /// decodes to `Malformed`, at the value decoder and through the
    /// `Query`, `QueryBatch` and `Absorb` request decoders alike.
    #[test]
    fn features_round_trip_finite_and_reject_non_finite(
        raw in collection::vec(0u64..=u64::MAX, 1..24),
        poison_at in 0usize..1000,
        poison_payload in 0u64..=u64::MAX,
        poison_kind in 0u8..3,
    ) {
        const EXPONENT: u64 = 0x7FF0_0000_0000_0000;
        // An all-ones exponent is the only non-finite encoding; clearing
        // its lowest bit keeps every other bit of the draw.
        let finite: Vec<f64> = raw
            .iter()
            .map(|&bits| {
                let bits = if bits & EXPONENT == EXPONENT { bits & !(1 << 52) } else { bits };
                f64::from_bits(bits)
            })
            .collect();
        let mut payload = Vec::new();
        wirefmt::put_features(&mut payload, &finite);
        let mut cursor = payload.as_slice();
        let decoded = wirefmt::get_features(&mut cursor).expect("finite payload decodes");
        prop_assert!(cursor.is_empty());
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        prop_assert_eq!(bits(&decoded), bits(&finite));

        let mut poisoned = finite.clone();
        poisoned[poison_at % finite.len()] = match poison_kind {
            0 => f64::from_bits(EXPONENT | (poison_payload & ((1 << 52) - 1)).max(1)),
            1 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        };
        let mut payload = Vec::new();
        wirefmt::put_features(&mut payload, &poisoned);
        prop_assert!(matches!(
            wirefmt::get_features(&mut payload.as_slice()),
            Err(wirefmt::WireDecodeError::Malformed(_))
        ));
        for request in [
            Request::Query(poisoned.clone()),
            Request::QueryBatch(vec![finite.clone(), poisoned.clone()]),
            Request::Absorb(vec![poisoned.clone()]),
        ] {
            let frame = request.into_frame(7).expect("encodes");
            prop_assert!(
                matches!(Request::decode(&frame), Err(WireError::Malformed(_))),
                "{:?} with a non-finite element must decode to Malformed",
                frame.opcode
            );
        }
    }

    /// The low-level value decoders never read past their buffer: after a
    /// successful decode the remaining slice is a suffix of the input.
    #[test]
    fn value_decoders_respect_bounds(bytes in collection::vec(0u8..=255, 0..64)) {
        let mut cursor = bytes.as_slice();
        if let Ok(features) = wirefmt::get_features(&mut cursor) {
            prop_assert!(cursor.len() <= bytes.len());
            prop_assert_eq!(
                bytes.len() - cursor.len(),
                4 + 8 * features.len()
            );
        }
        let mut cursor = bytes.as_slice();
        if wirefmt::get_verdict(&mut cursor).is_ok() {
            prop_assert!(cursor.len() <= bytes.len());
        }
        let mut cursor = bytes.as_slice();
        if wirefmt::get_verdicts(&mut cursor).is_ok() {
            prop_assert!(cursor.len() <= bytes.len());
        }
    }
}
