//! Property and adversarial tests for the `ttserve` wire protocol:
//! frames and requests round-trip byte-exactly, and every malformed
//! input — truncations at any byte, hostile length claims, garbage,
//! non-UTF-8 — decodes to a typed error without panicking or
//! allocating beyond the frame cap. An instance the core refuses is
//! answered with a typed error before any solve starts.

use proptest::prelude::*;
use std::time::Duration;
use tt_serve::client::Client;
use tt_serve::proto::{
    read_frame, write_frame, ErrorKind, FrameError, Request, Response, SolveParams, Source,
    MAX_FRAME,
};
use tt_serve::server::{start, ServerOptions};

/// A printable-ish string strategy: ASCII plus the JSON-special
/// characters that exercise the escaper.
fn wire_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            8 => (32u8..127).prop_map(char::from),
            1 => Just('"'),
            1 => Just('\\'),
            1 => Just('\n'),
            1 => Just('é'),
            1 => Just('😀'),
        ],
        0usize..40,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// write_frame → read_frame is the identity, including payloads
    /// with embedded NULs, quotes, and multi-byte characters.
    #[test]
    fn frames_roundtrip_any_payload(payload in wire_string()) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut r = &buf[..];
        prop_assert_eq!(read_frame(&mut r).unwrap(), payload);
        prop_assert_eq!(read_frame(&mut r), Err(FrameError::Closed));
    }

    /// Cutting a valid frame at ANY byte boundary yields a typed
    /// truncation error (never Ok, never a panic): `ShortHeader`
    /// inside the header, `Truncated` inside the payload.
    #[test]
    fn every_truncation_point_is_typed(payload in wire_string(), cut_frac in 0u8..100) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let cut = (usize::from(cut_frac) * buf.len()) / 100;
        if cut == buf.len() {
            return; // not a truncation
        }
        let mut r = &buf[..cut];
        let got = read_frame(&mut r);
        let want = if cut == 0 {
            FrameError::Closed
        } else if cut < 4 {
            FrameError::ShortHeader
        } else {
            FrameError::Truncated
        };
        prop_assert_eq!(got, Err(want), "cut at byte {} of {}", cut, buf.len());
    }

    /// Arbitrary byte soup never panics the frame reader; it yields
    /// some typed error or — when the first 4 bytes happen to claim a
    /// small length that is present and UTF-8 — a payload no longer
    /// than the input.
    #[test]
    fn garbage_bytes_never_panic_the_reader(bytes in proptest::collection::vec(any::<u8>(), 0usize..64)) {
        let mut r = &bytes[..];
        if let Ok(payload) = read_frame(&mut r) {
            prop_assert!(payload.len() + 4 <= bytes.len());
        }
    }

    /// Any length claim above the cap is rejected as `Oversized`
    /// before the payload is touched — the reader sees 4 bytes and
    /// stops, so a hostile claim cannot make it allocate.
    #[test]
    fn oversized_claims_are_rejected_from_the_header_alone(extra in 1u64..=u64::from(u32::MAX - MAX_FRAME as u32)) {
        let claim = u32::try_from(MAX_FRAME as u64 + extra).unwrap();
        let mut r = &claim.to_be_bytes()[..];
        prop_assert_eq!(
            read_frame(&mut r),
            Err(FrameError::Oversized { len: u64::from(claim) })
        );
    }

    /// Request encode → decode is the identity over the whole
    /// parameter space, including ids and instance text full of
    /// JSON-special characters.
    #[test]
    fn requests_roundtrip(
        id in wire_string(),
        has_id in any::<bool>(),
        body in wire_string(),
        demo in any::<bool>(),
        solver_pick in 0u8..4,
        timeout in 0u64..1_000_000,
        has_timeout in any::<bool>(),
        key in wire_string(),
        has_key in any::<bool>(),
    ) {
        let solver = match solver_pick {
            0 => None,
            1 => Some("auto".to_string()),
            2 => Some("seq".to_string()),
            _ => Some("bnb".to_string()),
        };
        let req = Request::Solve(SolveParams {
            id: has_id.then(|| id.clone()),
            source: if demo {
                Source::Demo(format!("random:8:{timeout}"))
            } else {
                Source::Instance(body.clone())
            },
            solver,
            timeout_ms: has_timeout.then_some(timeout),
            key: has_key.then(|| key.clone()),
        });
        prop_assert_eq!(Request::decode(&req.encode()), Ok(req));
    }

    /// Response decode never panics on arbitrary (framed) text, and
    /// decode(encode(r)) is the identity for solve results.
    #[test]
    fn response_decode_is_total_and_solved_roundtrips(
        junk in wire_string(),
        engine in wire_string(),
        complete in any::<bool>(),
        cost in 0u64..9_000_000_000_000_000,
        has_cost in any::<bool>(),
    ) {
        // Totality: junk in, typed error or value out, no panic.
        let _ = Response::decode(&junk);
        let resp = Response::Solved(tt_serve::proto::SolveResult {
            id: None,
            engine,
            complete,
            cost: has_cost.then_some(cost),
            upper: (!complete && has_cost).then_some(cost),
            lower: (!complete).then_some(cost / 2),
            reason: (!complete).then(|| "deadline exceeded".to_string()),
            failovers: cost % 5,
            retries: cost % 3,
            wall_us: cost % 1_000_000,
            recovered: complete && cost % 2 == 0,
            cached: complete && cost % 3 == 0,
        });
        prop_assert_eq!(Response::decode(&resp.encode()), Ok(resp));
    }

    /// The JSON reader is total: arbitrary strings produce a value or
    /// a typed error, never a panic, even at pathological nesting.
    #[test]
    fn json_reader_is_total(s in wire_string(), depth in 0usize..64) {
        let _ = tt_serve::json::parse(&s);
        let nested = "[".repeat(depth) + &s + &"]".repeat(depth);
        let _ = tt_serve::json::parse(&nested);
    }
}

#[test]
fn writing_an_oversized_payload_is_refused_locally() {
    let big = "x".repeat(MAX_FRAME + 1);
    let mut buf = Vec::new();
    let err = write_frame(&mut buf, &big).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(buf.is_empty(), "nothing may hit the wire");
}

/// Sends `text` to a fresh one-worker server as a `seq` solve, expects
/// a typed bad-request error, and checks that no engine ran (no solve
/// completes, no panic is contained, the request counts as faulted).
/// Returns the error message.
fn refusal_of(text: &str) -> String {
    let handle = start(
        "127.0.0.1:0",
        ServerOptions {
            workers: 1,
            ..ServerOptions::default()
        },
    )
    .expect("bind an ephemeral port");
    let resp = Client::connect(handle.addr(), Duration::from_secs(10))
        .and_then(|mut c| {
            c.request(&Request::Solve(SolveParams {
                id: None,
                source: Source::Instance(text.to_string()),
                solver: Some("seq".to_string()),
                timeout_ms: Some(5_000),
                key: None,
            }))
        })
        .expect("transport");
    let message = match resp {
        Response::Error { kind, message } => {
            assert_eq!(kind, ErrorKind::BadRequest);
            message
        }
        other => panic!("unexpected response: {other:?}"),
    };
    handle.drain();
    let outcome = handle.wait();
    assert!(outcome.clean);
    let s = outcome.stats;
    assert_eq!((s.completed, s.panics, s.faulted), (0, 0, 1), "{s:?}");
    assert!(s.balanced(), "{s:?}");
    message
}

/// An action cost of `u64::MAX` is the core's INF sentinel: the server
/// answers a typed bad-request error naming it, and no engine runs.
#[test]
fn an_infinite_action_cost_is_a_typed_refusal_not_a_solve() {
    let message = refusal_of("tt 1\nobjects 2\ntest 0 | 18446744073709551615\ntreat 0 1 | 1\n");
    assert!(message.contains("INF sentinel"), "{message}");
}

/// An instance whose cost bound is not below `2^63` — weights `2^62`,
/// whose optimum overflows `u64`, or `2^63`, whose `p(U)` does — is a
/// typed refusal too, never an answer at the clamp.
#[test]
fn an_instance_past_the_cost_bound_is_a_typed_refusal_not_a_solve() {
    for w in [1u64 << 62, 1 << 63] {
        let text =
            format!("tt 1\nobjects 2\nweights {w} {w}\ntest 0 | 3\ntreat 0 | 3\ntreat 1 | 3\n");
        let message = refusal_of(&text);
        assert!(message.contains("not below 2^63"), "{w}: {message}");
    }
}
