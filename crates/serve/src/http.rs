//! Minimal HTTP/1.1 request parsing and response writing over blocking
//! `std::io` streams.
//!
//! This is deliberately not a general HTTP implementation: it covers
//! exactly what the serving tier needs — `GET`/`POST`, `Content-Length`
//! framed bodies (no chunked transfer), persistent connections with
//! `Connection: close` opt-out, and `Expect: 100-continue` (curl sends it
//! for bodies over 1 KiB). Everything else is rejected with a clean 4xx/5xx
//! instead of being half-understood.

use std::io::{BufRead, Write};

/// Request methods the router distinguishes. Anything else parses fine but
/// routes to 405.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    Get,
    Post,
    Other,
}

/// One parsed request: method, request target (path + optional query
/// string, exactly as sent) and the framed body.
#[derive(Debug)]
pub struct Request {
    pub method: Method,
    pub path: String,
    pub body: Vec<u8>,
    /// The client asked for the connection to close after this exchange
    /// (`Connection: close`, or an HTTP/1.0 request without keep-alive).
    pub close: bool,
}

/// Why a request could not be parsed: the status to answer with and a
/// human-readable message for the body.
#[derive(Debug)]
pub struct HttpError {
    pub status: u16,
    pub message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        HttpError {
            status,
            message: message.into(),
        }
    }
}

/// Outcome of reading one request off a connection.
#[derive(Debug)]
pub enum Parsed {
    /// A complete request.
    Ok(Request),
    /// The peer closed (or timed out) before sending a request line — the
    /// normal end of a keep-alive connection, not an error.
    Closed,
    /// A malformed or over-limit request; answer with the error and close.
    Bad(HttpError),
}

/// Size limits applied while parsing.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// The whole request head, in bytes: the request line, every header
    /// line, each line's terminator (`\r\n` or a bare `\n`) and the empty
    /// line that ends the head. One budget for all of it — a head of exactly
    /// this many bytes parses, one byte more answers 431.
    pub max_head_bytes: usize,
    /// Body (`Content-Length`), in bytes.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 64 * 1024 * 1024,
        }
    }
}

/// Reads one request. `writer` is only used to send the interim
/// `100 Continue` line when the client asked for it.
pub fn read_request(reader: &mut impl BufRead, writer: &mut impl Write, limits: Limits) -> Parsed {
    // --- request line -------------------------------------------------
    let mut head_budget = limits.max_head_bytes;
    let line = match read_head_line(reader, &mut head_budget) {
        Ok(Some(line)) => line,
        Ok(None) => return Parsed::Closed,
        Err(e) => return Parsed::Bad(e),
    };
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let (method_raw, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m, t, v),
        _ => {
            return Parsed::Bad(HttpError::new(
                400,
                format!("malformed request line `{line}`"),
            ))
        }
    };
    let method = match method_raw {
        "GET" => Method::Get,
        "POST" => Method::Post,
        _ => Method::Other,
    };
    let http10 = version == "HTTP/1.0";
    if !http10 && version != "HTTP/1.1" {
        return Parsed::Bad(HttpError::new(
            505,
            format!("unsupported version `{version}`"),
        ));
    }
    let path = target.to_owned();

    // --- headers ------------------------------------------------------
    let mut content_length = 0usize;
    let mut close = http10;
    let mut expect_continue = false;
    loop {
        let header = match read_head_line(reader, &mut head_budget) {
            Ok(Some(h)) => h,
            Ok(None) => return Parsed::Closed,
            Err(e) => return Parsed::Bad(e),
        };
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Parsed::Bad(HttpError::new(400, format!("malformed header `{header}`")));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            match value.parse::<usize>() {
                Ok(n) => content_length = n,
                Err(_) => {
                    return Parsed::Bad(HttpError::new(400, "unparsable content-length"));
                }
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Chunked framing is out of scope; refusing it keeps body
            // handling unambiguous.
            return Parsed::Bad(HttpError::new(501, "transfer-encoding is not supported"));
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                close = true;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                close = false;
            }
        } else if name.eq_ignore_ascii_case("expect") && value.eq_ignore_ascii_case("100-continue")
        {
            expect_continue = true;
        }
    }

    // --- body ---------------------------------------------------------
    if content_length > limits.max_body_bytes {
        return Parsed::Bad(HttpError::new(
            413,
            format!(
                "body of {content_length} bytes exceeds the {} byte limit",
                limits.max_body_bytes
            ),
        ));
    }
    if expect_continue && content_length > 0 {
        let _ = writer.write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
        let _ = writer.flush();
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        if let Err(e) = read_exact_body(reader, &mut body) {
            return Parsed::Bad(HttpError::new(400, format!("truncated body: {e}")));
        }
    }
    Parsed::Ok(Request {
        method,
        path,
        body,
        close,
    })
}

/// Reads one CRLF- (or LF-) terminated head line, taking every byte it
/// reads — the terminator included — out of what is left of the head's
/// budget. `Ok(None)` means the stream ended cleanly before any byte of the
/// line.
fn read_head_line(
    reader: &mut impl BufRead,
    budget: &mut usize,
) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                return if line.is_empty() {
                    Ok(None)
                } else {
                    Err(HttpError::new(400, "connection closed mid-header"))
                };
            }
            Ok(_) => {
                if *budget == 0 {
                    return Err(HttpError::new(431, "request head too large"));
                }
                *budget -= 1;
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map(Some)
                        .map_err(|_| HttpError::new(400, "non-UTF-8 header"));
                }
                line.push(byte[0]);
            }
            Err(e) => {
                return if line.is_empty() {
                    // Idle keep-alive timeout: a clean end of connection.
                    Ok(None)
                } else {
                    Err(HttpError::new(408, format!("read timed out: {e}")))
                };
            }
        }
    }
}

fn read_exact_body(reader: &mut impl BufRead, buf: &mut [u8]) -> std::io::Result<()> {
    reader.read_exact(buf)
}

/// An HTTP response: status, content type and body. Construction helpers
/// cover the two payload kinds the serving tier emits.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response (the `application/json` content type).
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
        }
    }

    /// Serializes the response; `close` controls the `Connection` header.
    pub fn write_to(&self, writer: &mut impl Write, close: bool) -> std::io::Result<()> {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if close { "close" } else { "keep-alive" },
        );
        writer.write_all(head.as_bytes())?;
        writer.write_all(&self.body)?;
        writer.flush()
    }
}

/// Reason phrases for the statuses the tier actually sends.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(input: &[u8]) -> Parsed {
        let mut reader = std::io::BufReader::new(input);
        let mut sink = Vec::new();
        read_request(&mut reader, &mut sink, Limits::default())
    }

    #[test]
    fn parses_get_without_body() {
        let Parsed::Ok(req) = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n") else {
            panic!("expected a request");
        };
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
        assert!(!req.close);
    }

    #[test]
    fn parses_post_with_content_length_and_close() {
        let Parsed::Ok(req) = parse(
            b"POST /query HTTP/1.1\r\nContent-Length: 9\r\nConnection: close\r\n\r\n?- p(a).\n",
        ) else {
            panic!("expected a request");
        };
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.body, b"?- p(a).\n");
        assert!(req.close);
    }

    #[test]
    fn empty_stream_is_a_clean_close() {
        assert!(matches!(parse(b""), Parsed::Closed));
    }

    #[test]
    fn oversized_body_is_rejected_with_413() {
        let mut reader =
            std::io::BufReader::new(&b"POST /ingest HTTP/1.1\r\nContent-Length: 100\r\n\r\n"[..]);
        let mut sink = Vec::new();
        let limits = Limits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 10,
        };
        let Parsed::Bad(e) = read_request(&mut reader, &mut sink, limits) else {
            panic!("expected a limit rejection");
        };
        assert_eq!(e.status, 413);
    }

    #[test]
    fn chunked_transfer_is_refused_not_misread() {
        let Parsed::Bad(e) =
            parse(b"POST /ingest HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n")
        else {
            panic!("expected a rejection");
        };
        assert_eq!(e.status, 501);
    }

    #[test]
    fn expect_100_continue_gets_the_interim_line() {
        let mut reader = std::io::BufReader::new(
            &b"POST /ingest HTTP/1.1\r\nContent-Length: 4\r\nExpect: 100-continue\r\n\r\nm,a\n"[..],
        );
        let mut interim = Vec::new();
        let Parsed::Ok(req) = read_request(&mut reader, &mut interim, Limits::default()) else {
            panic!("expected a request");
        };
        assert_eq!(req.body, b"m,a\n");
        assert_eq!(interim, b"HTTP/1.1 100 Continue\r\n\r\n");
    }

    /// `GET /` with one `X-Pad` header, padded so the whole head is `len`
    /// bytes.
    fn head_of(len: usize) -> Vec<u8> {
        let bare = b"GET / HTTP/1.1\r\nX-Pad: \r\n\r\n".len();
        let pad = "p".repeat(len - bare);
        format!("GET / HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n").into_bytes()
    }

    #[test]
    fn the_head_limit_counts_the_request_line_and_every_terminator() {
        let limit = Limits::default().max_head_bytes;
        assert!(matches!(parse(&head_of(limit)), Parsed::Ok(_)));
        let Parsed::Bad(e) = parse(&head_of(limit + 1)) else {
            panic!("a head one byte over the limit parsed");
        };
        assert_eq!(e.status, 431);
        // A 12 KiB request line and an 8 KiB header: each under the limit,
        // together over it.
        let target = "/".to_owned() + &"t".repeat(12 * 1024);
        let header = "h".repeat(8 * 1024);
        let head = format!("GET {target} HTTP/1.1\r\nX-Pad: {header}\r\n\r\n");
        let Parsed::Bad(e) = parse(head.as_bytes()) else {
            panic!("a 20 KiB head parsed");
        };
        assert_eq!(e.status, 431);
    }

    /// The limits the properties run under: small enough that the inputs
    /// they draw cross them.
    const SMALL: Limits = Limits {
        max_head_bytes: 64,
        max_body_bytes: 32,
    };

    /// How many bytes of `input` its head takes — everything through the
    /// first empty line after the request line — if an empty line ends it.
    fn head_len(input: &[u8]) -> Option<usize> {
        let mut lines = input.split_inclusive(|&b| b == b'\n');
        let mut len = lines.next()?.len();
        for line in lines {
            len += line.len();
            if line == b"\n" || line == b"\r\n" {
                return Some(len);
            }
        }
        None
    }

    /// The `Content-Length` the head declares: its last such header, or
    /// none.
    fn declared_length(head: &[u8]) -> usize {
        let head = std::str::from_utf8(head).expect("a parsed head is UTF-8");
        let lengths = head.lines().skip(1).filter_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim())
        });
        lengths
            .last()
            .map_or(0, |n| n.parse().expect("a parsed length"))
    }

    /// What every input must satisfy: parsing it does not panic (the
    /// property runner reports a panic as a failure), and a request it
    /// yields has a head within the limit and the body its head declares,
    /// within the limit.
    fn check(input: &[u8]) -> Result<(), proptest::test_runner::TestCaseError> {
        use proptest::prelude::*;
        let mut reader = std::io::BufReader::new(input);
        let Parsed::Ok(req) = read_request(&mut reader, &mut Vec::new(), SMALL) else {
            return Ok(());
        };
        let head = head_len(input);
        prop_assert!(
            head.is_some_and(|n| n <= SMALL.max_head_bytes),
            "head {head:?}"
        );
        let head = &input[..head.unwrap_or(0)];
        prop_assert_eq!(req.body.len(), declared_length(head));
        prop_assert!(req.body.len() <= SMALL.max_body_bytes);
        prop_assert_eq!(
            &req.body[..],
            &input[head.len()..head.len() + req.body.len()]
        );
        Ok(())
    }

    /// Lines of requests, well-formed and not, each ended by some
    /// terminator or none, strung together.
    fn request_soup() -> impl proptest::strategy::Strategy<Value = Vec<u8>> {
        use proptest::prelude::*;
        let piece = |s: &'static str| Just(s.as_bytes().to_vec());
        let line = prop_oneof![
            piece(""),
            piece(""),
            piece("GET / HTTP/1.1"),
            piece("POST /query HTTP/1.1"),
            piece("PUT /x HTTP/1.0"),
            piece("GET / HTTP/2"),
            piece("Host: x"),
            piece("Content-Length: 5"),
            piece("Content-Length: 32"),
            piece("Content-Length: 33"),
            piece("Content-Length: 0"),
            piece("Content-Length: -1"),
            piece("Content-Length: 99999999999999999999999"),
            piece("content-length:7"),
            piece("Transfer-Encoding: chunked"),
            piece("Expect: 100-continue"),
            piece("Connection: close"),
            piece("hello world"),
            piece("GET /next HTTP/1.1\r\n\r\n"),
            piece("POST /q HTTP/1.1\r\nContent-Length: 5"),
            proptest::collection::vec(0x80u8..=0xff, 1..4),
            proptest::collection::vec(0u8..=255, 1..40),
        ];
        let end = prop_oneof![
            piece("\r\n"),
            piece("\r\n"),
            piece("\r\n"),
            piece("\n"),
            piece("\r"),
            piece(""),
        ];
        let lines = proptest::collection::vec((line, end), 0..12);
        lines.prop_map(|lines| {
            lines
                .into_iter()
                .flat_map(|(l, e)| [l, e])
                .flatten()
                .collect()
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2048))]

        #[test]
        fn arbitrary_bytes_never_break_the_parser(
            input in proptest::collection::vec(0u8..=255, 0..160),
        ) {
            check(&input)?;
        }

        #[test]
        fn request_soup_never_breaks_the_parser(input in request_soup()) {
            check(&input)?;
        }
    }
}
