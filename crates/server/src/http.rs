//! A hand-rolled, std-only HTTP/1.1 subset: exactly what the grading
//! daemon needs and nothing more.
//!
//! The offline vendor policy rules out hyper/axum, and the protocol
//! surface here is tiny — JSON request bodies framed by
//! `Content-Length`, JSON responses, keep-alive connections. Malformed
//! input never tears the connection down silently: framing-level
//! problems produce a `400` response before the connection closes, so
//! clients always see *why*.
//!
//! Supported: request line + headers + `Content-Length` bodies,
//! keep-alive (HTTP/1.1 default) and `Connection: close`,
//! `Expect: 100-continue` (curl sends it for bodies over 1 KiB).
//! Deliberately unsupported: chunked transfer encoding, trailers,
//! pipelining beyond serial keep-alive — all answered with a clear
//! `400`/`413` rather than undefined behavior.

use std::io::{self, BufRead, Write};

/// Hard cap on the request line + headers, defensive against a client
/// streaming garbage forever.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Cap on request bodies (a whole classroom batch of SQL fits in well
/// under a megabyte; 8 MiB leaves room for pathological corpora without
/// letting one request exhaust the process).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path as sent (no query-string splitting — the API uses none).
    pub path: String,
    /// Header names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl Request {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn body_str(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::Malformed("request body is not valid UTF-8".into()))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Clean end-of-stream before the first byte of a request: the
    /// keep-alive peer hung up, which is not an error.
    Closed,
    /// Protocol violation — answer 400 and close.
    Malformed(String),
    /// Head or body over the configured limit — answer 413 and close.
    TooLarge(String),
    /// Underlying socket error (timeout, reset); close silently.
    Io(io::Error),
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

/// Read one line (LF-terminated), bounded by what remains of
/// `head_budget`. Returns the line without its CRLF.
fn read_line(r: &mut impl BufRead, head_budget: &mut usize) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte)? {
            0 => {
                if line.is_empty() {
                    return Err(HttpError::Closed);
                }
                return Err(HttpError::Malformed("connection closed mid-line".into()));
            }
            _ => {
                if *head_budget == 0 {
                    return Err(HttpError::TooLarge(format!(
                        "request head exceeds {MAX_HEAD_BYTES} bytes"
                    )));
                }
                *head_budget -= 1;
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map_err(|_| HttpError::Malformed("non-UTF-8 header line".into()));
                }
                line.push(byte[0]);
            }
        }
    }
}

/// The body length declared by a message's `Content-Length` values, one
/// per header line (`None` if there are none). RFC 9112 §6.3: each value
/// must be 1*DIGIT (`usize::from_str` alone takes a leading `+`), and
/// repeated lines must agree — framing by the first or the last of two
/// lengths would leave the rest of the body in the stream as the start
/// of the next keep-alive message. Both [`read_request`] and the
/// [`crate::client::Client`] frame by this rule.
pub fn content_length<'a>(
    values: impl IntoIterator<Item = &'a str>,
) -> Result<Option<usize>, String> {
    let mut length = None;
    for v in values {
        let n = match v.parse::<usize>() {
            Ok(n) if v.bytes().all(|b| b.is_ascii_digit()) => n,
            _ => return Err(format!("bad Content-Length `{v}`")),
        };
        if length.is_some_and(|m| m != n) {
            return Err("conflicting Content-Length values".into());
        }
        length = Some(n);
    }
    Ok(length)
}

/// Read one request from `reader`. `writer` is needed for the
/// `Expect: 100-continue` interim response, which must be sent between
/// the head and the body.
pub fn read_request(
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    max_body_bytes: usize,
) -> Result<Request, HttpError> {
    let mut head_budget = MAX_HEAD_BYTES;
    let request_line = read_line(reader, &mut head_budget)?;
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m.to_string(), p.to_string(), v.to_string()),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line: `{request_line}`"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Malformed(format!("unsupported version `{version}`")));
    }
    if !path.starts_with('/') {
        return Err(HttpError::Malformed(format!("bad request path `{path}`")));
    }

    let mut headers = Vec::new();
    loop {
        let line = match read_line(reader, &mut head_budget) {
            Ok(line) => line,
            // EOF inside the head is a framing error, not a clean close.
            Err(HttpError::Closed) => {
                return Err(HttpError::Malformed("connection closed mid-head".into()))
            }
            Err(e) => return Err(e),
        };
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header line: `{line}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let find = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };
    if find("transfer-encoding").is_some_and(|v| !v.eq_ignore_ascii_case("identity")) {
        return Err(HttpError::Malformed(
            "chunked transfer encoding is not supported; send Content-Length".into(),
        ));
    }
    let lengths = headers.iter().filter(|(n, _)| n == "content-length");
    let content_length = content_length(lengths.map(|(_, v)| v.as_str()))
        .map_err(HttpError::Malformed)?
        .unwrap_or(0);
    if content_length > max_body_bytes {
        return Err(HttpError::TooLarge(format!(
            "request body of {content_length} bytes exceeds the {max_body_bytes}-byte limit"
        )));
    }

    // Default connection semantics per version, overridable by header.
    let keep_alive = match find("connection").map(str::to_ascii_lowercase) {
        Some(v) if v.contains("close") => false,
        Some(v) if v.contains("keep-alive") => true,
        _ => version == "HTTP/1.1",
    };

    if find("expect").is_some_and(|v| v.eq_ignore_ascii_case("100-continue")) {
        writer.write_all(b"HTTP/1.1 100 Continue\r\n\r\n")?;
        writer.flush()?;
    }

    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            HttpError::Malformed("connection closed mid-body".into())
        } else {
            HttpError::Io(e)
        }
    })?;

    Ok(Request { method, path, headers, body, keep_alive })
}

/// One response ready for the wire. Bodies default to JSON; the
/// `/metrics` exposition overrides the content type.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: String,
    pub content_type: &'static str,
    /// `Retry-After` header in whole seconds — set on `429` overload
    /// sheds so well-behaved clients back off instead of hammering.
    pub retry_after: Option<u32>,
}

impl Response {
    pub fn new(status: u16, body: String) -> Response {
        Response { status, body, content_type: "application/json", retry_after: None }
    }

    /// A response with an explicit content type (e.g. the Prometheus
    /// text exposition, `text/plain; version=0.0.4`).
    pub fn with_content_type(
        status: u16,
        body: String,
        content_type: &'static str,
    ) -> Response {
        Response { status, body, content_type, retry_after: None }
    }

    /// Attach a `Retry-After` hint (the backpressure contract: every
    /// `429` carries one).
    pub fn with_retry_after(mut self, seconds: u32) -> Response {
        self.retry_after = Some(seconds);
        self
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serialize a response to the wire. `keep_alive` controls the
/// `Connection` header; the caller owns actually closing the stream.
pub fn write_response(
    w: &mut impl Write,
    resp: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    // One buffer, one write: head and body split across two small TCP
    // segments triggers the Nagle/delayed-ACK interaction (~40 ms
    // stalls per request on loopback keep-alive connections).
    let mut wire = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    if let Some(seconds) = resp.retry_after {
        use std::fmt::Write as _;
        let _ = write!(wire, "Retry-After: {seconds}\r\n");
    }
    wire.push_str("\r\n");
    wire.push_str(&resp.body);
    w.write_all(wire.as_bytes())?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        let mut sink = Vec::new();
        read_request(&mut Cursor::new(raw.as_bytes()), &mut sink, MAX_BODY_BYTES)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(
            "POST /targets HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/targets");
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_close_is_honored() {
        let req = parse("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn http10_defaults_to_close() {
        let req = parse("GET /healthz HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn garbage_request_line_is_malformed_not_a_panic() {
        assert!(matches!(parse("NOT AN HTTP LINE\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(parse("GET\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(
            parse("GET /x HTTP/9.9\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn eof_before_any_bytes_is_a_clean_close() {
        assert!(matches!(parse(""), Err(HttpError::Closed)));
    }

    #[test]
    fn truncated_body_is_malformed() {
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn conflicting_or_signed_content_length_is_malformed() {
        // Taking the first of two lengths would read `he` as the body
        // and leave `llo` as the start of the next keep-alive request.
        assert!(matches!(
            parse("POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhello"),
            Err(HttpError::Malformed(_))
        ));
        for bad in ["+2", "-2", "2 2", ""] {
            assert!(
                matches!(
                    parse(&format!("POST /x HTTP/1.1\r\nContent-Length: {bad}\r\n\r\nhi")),
                    Err(HttpError::Malformed(_))
                ),
                "Content-Length `{bad}` must be rejected"
            );
        }
        let req =
            parse("POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi").unwrap();
        assert_eq!(req.body, b"hi", "identical repeats carry one length");
    }

    #[test]
    fn oversized_body_is_rejected_up_front() {
        let mut sink = Vec::new();
        let raw = "POST /x HTTP/1.1\r\nContent-Length: 999\r\n\r\n";
        let err = read_request(&mut Cursor::new(raw.as_bytes()), &mut sink, 100);
        assert!(matches!(err, Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn expect_100_continue_gets_the_interim_response() {
        let mut sink = Vec::new();
        let raw = "POST /x HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nhi";
        let req =
            read_request(&mut Cursor::new(raw.as_bytes()), &mut sink, MAX_BODY_BYTES)
                .unwrap();
        assert_eq!(req.body, b"hi");
        assert_eq!(sink, b"HTTP/1.1 100 Continue\r\n\r\n");
    }

    #[test]
    fn shed_response_carries_retry_after() {
        let mut out = Vec::new();
        let resp = Response::new(429, "{\"kind\":\"overloaded\"}".into()).with_retry_after(1);
        write_response(&mut out, &resp, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"kind\":\"overloaded\"}"), "{text}");
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::new(200, "{}".into()), true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
