//! Hostile input through the connection handler's framing and request
//! parser: arbitrary bytes, in arbitrary chunks, and arbitrarily deep
//! `[`/`{` nesting must come back as a request or a typed [`ServeError`]
//! — never a panic, and never a stack overflow, which would abort the
//! whole server. The drive loop mirrors the server's: a connection-closing
//! error ends the stream, any other error consumes its frame and reading
//! goes on.

use proptest::prelude::*;
use uniq_obs::json::MAX_DEPTH;
use uniq_serve::protocol::{parse_request, FrameBuffer, MAX_LINE_BYTES};
use uniq_serve::ServeError;

/// What one stream came to.
#[derive(Debug, Default)]
struct Outcome {
    /// Lines that parsed as requests.
    requests: usize,
    /// Typed errors, in stream order.
    errors: Vec<ServeError>,
    /// Whether a connection-closing error ended the stream.
    closed: bool,
}

/// Feeds `bytes` through a [`FrameBuffer`] `chunk` bytes at a time and
/// parses every complete line, as the connection handler does.
fn drive(bytes: &[u8], chunk: usize) -> Outcome {
    let mut frames = FrameBuffer::new(MAX_LINE_BYTES);
    let mut out = Outcome::default();
    for piece in bytes.chunks(chunk.max(1)) {
        frames.push(piece);
        loop {
            match frames.next_line() {
                Ok(Some(line)) => match parse_request(&line) {
                    Ok(_) => out.requests += 1,
                    Err(e) => out.errors.push(e),
                },
                Ok(None) => break,
                Err(e) => {
                    let closes = e.closes_connection();
                    out.errors.push(e);
                    if closes {
                        out.closed = true;
                        return out;
                    }
                }
            }
        }
    }
    if let Err(e) = frames.finish() {
        out.errors.push(e);
    }
    out
}

/// One line nesting `depth` containers around a `1`: level `l` is an
/// object `{"k":` when bit `l % 64` of `shape` is set, else an array `[`.
/// The innermost `closed` levels are closed; the rest are left open.
fn nested_line(depth: usize, shape: u64, closed: usize) -> Vec<u8> {
    let object = |level: usize| (shape >> (level % 64)) & 1 == 1;
    let mut line = Vec::with_capacity(depth * 5 + 2);
    for level in 0..depth {
        line.extend_from_slice(if object(level) { b"{\"k\":" } else { b"[" });
    }
    line.push(b'1');
    for level in (depth - closed.min(depth)..depth).rev() {
        line.push(if object(level) { b'}' } else { b']' });
    }
    line.push(b'\n');
    line
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_bytes_get_requests_or_typed_errors(
        bytes in prop::collection::vec(0u32..256, 0..2048),
        newline_every in 0usize..96,
        chunk in 1usize..600,
    ) {
        // Newlines every few bytes, so most streams hold many frames.
        let bytes: Vec<u8> = bytes
            .iter()
            .enumerate()
            .map(|(k, &b)| {
                if newline_every > 0 && k % newline_every == 0 {
                    b'\n'
                } else {
                    b as u8
                }
            })
            .collect();
        let out = drive(&bytes, chunk);
        // Under the line limit nothing closes the stream, and every
        // complete line is answered: a request or one typed error.
        let lines = bytes.iter().filter(|&&b| b == b'\n').count();
        let pending = usize::from(bytes.last().is_some_and(|&b| b != b'\n'));
        prop_assert!(!out.closed);
        prop_assert_eq!(out.requests + out.errors.len(), lines + pending);
    }

    #[test]
    fn arbitrary_nesting_gets_a_typed_error_past_the_depth_cap(
        depth in 1usize..14_000,
        shape in 0u64..u64::MAX,
        closed_frac in 0.0..1.0f64,
        chunk in 1usize..5000,
    ) {
        let closed = (closed_frac * depth as f64) as usize;
        let line = nested_line(depth, shape, closed);
        let out = drive(&line, chunk);
        if line.len() > MAX_LINE_BYTES + 1 {
            prop_assert!(out.closed, "an over-long line closes the connection");
            prop_assert!(
                matches!(out.errors[..], [ServeError::LineTooLong { .. }]),
                "errors: {:?}",
                out.errors
            );
        } else {
            // No nesting is a request; the one frame gets one error.
            prop_assert_eq!(out.requests, 0);
            prop_assert_eq!(out.errors.len(), 1);
            prop_assert!(!out.closed);
            if depth > MAX_DEPTH {
                prop_assert!(
                    matches!(out.errors[0], ServeError::BadJson { .. }),
                    "depth {}: {:?}",
                    depth,
                    out.errors[0]
                );
            }
        }
    }
}

#[test]
fn nesting_around_the_cap_gets_one_typed_error_per_frame() {
    for depth in [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, 1_000, 10_000] {
        for shape in [0, u64::MAX, 0x5555_5555_5555_5555] {
            for closed in [0, depth / 2, depth] {
                let out = drive(&nested_line(depth, shape, closed), 4096);
                assert_eq!(out.requests, 0, "depth {depth}");
                assert_eq!(out.errors.len(), 1, "depth {depth}: {:?}", out.errors);
                assert!(!out.closed, "depth {depth}");
            }
        }
    }
}
