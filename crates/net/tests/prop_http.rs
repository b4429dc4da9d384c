//! Property tests for the HTTP/1.1 request parser, which reads bytes from
//! unauthenticated peers: `read_request` never panics on arbitrary input, a
//! rendered valid request parses back to itself, and every strict prefix of
//! a valid request reads as "need more" (`Ok(None)` or `UnexpectedEof`) —
//! the contract `Conn::next_http_request` relies on to wait for the rest of
//! a request instead of answering a half-read one.

use cqc_net::http::{read_request, HttpError, Request};
use proptest::prelude::*;

/// Parse `bytes` as one request; also returns the unconsumed tail.
fn parse(bytes: &[u8]) -> (Result<Option<Request>, HttpError>, &[u8]) {
    let mut reader = bytes;
    let mut interim = Vec::new();
    let result = read_request(&mut reader, &mut interim);
    (result, reader)
}

/// Arbitrary bytes, biased towards the framing the parser dispatches on:
/// line ends, colons, spaces and whole request or header lines.
fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            4 => any::<u8>().prop_map(|b| vec![b]),
            2 => prop_oneof![
                Just(b"\r\n".to_vec()),
                Just(b"\n".to_vec()),
                Just(b":".to_vec()),
                Just(b" ".to_vec()),
            ],
            1 => prop_oneof![
                Just(b"POST /count HTTP/1.1\r\n".to_vec()),
                Just(b"GET / HTTP/1.0\r\n".to_vec()),
                Just(b"Content-Length: 3\r\n".to_vec()),
                Just(b"Content-Length: 99999999999\r\n".to_vec()),
                Just(b"Expect: 100-continue\r\n".to_vec()),
                Just(b"Transfer-Encoding: chunked\r\n".to_vec()),
            ],
        ],
        0..64,
    )
    .prop_map(|chunks| chunks.concat())
}

/// A valid request in the form the parser returns it: lowercase header
/// names, trimmed values, none of the headers the parser acts on except a
/// `content-length` announcing a non-empty body.
fn arb_request() -> impl Strategy<Value = Request> {
    (
        "[A-Z]{1,7}",
        "/[a-z0-9/?=&._-]{0,24}",
        prop_oneof![Just("HTTP/1.1"), Just("HTTP/1.0")],
        proptest::collection::vec(
            (
                "x-[a-z0-9-]{1,12}",
                proptest::collection::vec("[!-~]{1,6}", 0..3),
            ),
            0..6,
        ),
        proptest::collection::vec(any::<u8>(), 0..48),
    )
        .prop_map(|(method, target, version, headers, body)| {
            let mut headers: Vec<(String, String)> = headers
                .into_iter()
                .map(|(name, words)| (name, words.join(" ")))
                .collect();
            if !body.is_empty() {
                headers.push(("content-length".into(), body.len().to_string()));
            }
            Request {
                method,
                target,
                version: version.to_string(),
                headers,
                body,
            }
        })
}

fn render(request: &Request) -> Vec<u8> {
    let mut out = format!(
        "{} {} {}\r\n",
        request.method, request.target, request.version
    )
    .into_bytes();
    for (name, value) in &request.headers {
        out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(&request.body);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn read_request_never_panics(bytes in arb_bytes()) {
        let (result, rest) = parse(&bytes);
        if let Ok(Some(_)) = result {
            prop_assert!(rest.len() < bytes.len());
        }
    }

    #[test]
    fn rendered_request_parses_back_to_itself(request in arb_request()) {
        let mut bytes = render(&request);
        // a pipelined follower must be left unread
        bytes.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
        let (result, rest) = parse(&bytes);
        let parsed = result.expect("valid request").expect("not EOF");
        prop_assert_eq!(&parsed.method, &request.method);
        prop_assert_eq!(&parsed.target, &request.target);
        prop_assert_eq!(&parsed.version, &request.version);
        prop_assert_eq!(&parsed.headers, &request.headers);
        prop_assert_eq!(&parsed.body, &request.body);
        prop_assert_eq!(rest, b"GET /healthz HTTP/1.1\r\n\r\n".as_slice());
    }

    #[test]
    fn every_strict_prefix_needs_more(request in arb_request()) {
        let bytes = render(&request);
        for cut in 0..bytes.len() {
            match parse(&bytes[..cut]).0 {
                Ok(None) => prop_assert_eq!(cut, 0),
                Err(HttpError::UnexpectedEof) => prop_assert!(cut > 0),
                other => panic!("prefix of {cut} bytes gave {other:?}"),
            }
        }
    }
}
