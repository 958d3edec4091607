//! The byte layer: reading requests off a TCP stream under limits and
//! timeouts, and writing responses.
//!
//! Reading is sliced: the stream runs with a short read timeout
//! (`READ_SLICE`) and the loop re-checks the wall-clock budget and the
//! server's shutdown flag between slices. That one mechanism gives us
//! the slowloris defense (a dribbling client exhausts the header budget
//! and gets `408`), responsive drain (an idle keep-alive connection
//! notices shutdown within one slice), and bounded memory (the carry
//! buffer is capped by the header/body limits).
//!
//! Pipelining falls out of the carry buffer: bytes read past the current
//! request's end stay in `Conn::carry` and seed the next
//! `read_request` call without touching the socket.

use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use cryptext_common::jsonfmt;

use crate::HttpConfig;

/// Read-timeout slice; shutdown and budget checks happen between slices.
pub(crate) const READ_SLICE: Duration = Duration::from_millis(20);

/// One connection's read state: the stream plus the carry buffer holding
/// bytes read past the last parsed request (pipelined requests queue
/// here).
pub(crate) struct Conn {
    pub stream: TcpStream,
    carry: Vec<u8>,
}

/// A request the wire layer refuses before routing; `status` is written
/// and the connection closes.
#[derive(Debug)]
pub(crate) struct Reject {
    pub status: u16,
    pub message: String,
}

impl Reject {
    fn new(status: u16, message: impl Into<String>) -> Self {
        Reject {
            status,
            message: message.into(),
        }
    }
}

/// What one [`read_request`] call produced.
pub(crate) enum ReadOutcome {
    /// A complete request (headers + body) within limits.
    Request(HttpRequest),
    /// Close the connection silently: clean EOF at a request boundary,
    /// EOF mid-request (a torn request line has no answerable sender),
    /// an idle keep-alive timeout, or shutdown observed while idle.
    Closed,
    /// Refuse with a status, then close.
    Reject(Reject),
}

/// A parsed request. Header names are lowercased at parse time; query
/// pairs are percent-decoded.
#[derive(Debug)]
pub struct HttpRequest {
    pub method: String,
    /// Path before `?`, percent-decoded.
    pub path: String,
    pub query: Vec<(String, String)>,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// HTTP/1.1 defaults on (off with `Connection: close`); HTTP/1.0
    /// defaults off (on with `Connection: keep-alive`).
    pub keep_alive: bool,
}

impl HttpRequest {
    /// First header value under `name` (lowercase).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First query parameter under `name`.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            carry: Vec::new(),
        }
    }
}

enum ReadSome {
    Data,
    Eof,
    Idle,
}

fn read_some(conn: &mut Conn) -> ReadSome {
    let mut buf = [0u8; 4096];
    match conn.stream.read(&mut buf) {
        Ok(0) => ReadSome::Eof,
        Ok(n) => {
            conn.carry.extend_from_slice(&buf[..n]);
            ReadSome::Data
        }
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            ReadSome::Idle
        }
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => ReadSome::Idle,
        Err(_) => ReadSome::Eof,
    }
}

fn find_terminator(haystack: &[u8]) -> Option<usize> {
    haystack.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Read one complete request off the connection, honoring the carry
/// buffer, the size limits, the read-budget, and the shutdown flag.
pub(crate) fn read_request(
    conn: &mut Conn,
    config: &HttpConfig,
    shutdown: &AtomicBool,
) -> ReadOutcome {
    let started = Instant::now();
    let budget = Duration::from_millis(config.header_timeout_ms);

    // Header block.
    let header_end = loop {
        if let Some(pos) = find_terminator(&conn.carry) {
            // The limit applies to the block itself, not to however many
            // pipelined bytes happen to share the read.
            if pos + 4 > config.max_header_bytes {
                return ReadOutcome::Reject(Reject::new(
                    431,
                    "header block exceeds the size limit",
                ));
            }
            break pos;
        }
        if conn.carry.len() > config.max_header_bytes {
            return ReadOutcome::Reject(Reject::new(431, "header block exceeds the size limit"));
        }
        match read_some(conn) {
            ReadSome::Data => continue,
            ReadSome::Eof => return ReadOutcome::Closed,
            ReadSome::Idle => {
                if conn.carry.is_empty() && shutdown.load(Ordering::Acquire) {
                    return ReadOutcome::Closed;
                }
                if started.elapsed() >= budget {
                    return if conn.carry.is_empty() {
                        // Idle keep-alive connection: no request in
                        // progress, nothing to answer.
                        ReadOutcome::Closed
                    } else {
                        ReadOutcome::Reject(Reject::new(408, "timed out reading request headers"))
                    };
                }
            }
        }
    };
    let head: Vec<u8> = conn
        .carry
        .drain(..header_end + 4)
        .take(header_end)
        .collect();
    let head = match std::str::from_utf8(&head) {
        Ok(s) => s,
        Err(_) => return ReadOutcome::Reject(Reject::new(400, "header block is not UTF-8")),
    };

    // Request line.
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return ReadOutcome::Reject(Reject::new(
                400,
                "malformed request line (want METHOD SP TARGET SP VERSION)",
            ))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return ReadOutcome::Reject(Reject::new(400, "unsupported protocol version"));
    }
    if !target.starts_with('/') {
        return ReadOutcome::Reject(Reject::new(400, "request target must be origin-form"));
    }
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };

    // Headers. A field name is a token with nothing between it and the
    // colon (RFC 9112 §5.1): a lenient parser that trimmed
    // `Content-Length : 3` would frame the body differently from a strict
    // one upstream of it.
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return ReadOutcome::Reject(Reject::new(400, "malformed header line"));
        };
        if name.is_empty() || !name.bytes().all(is_tchar) {
            return ReadOutcome::Reject(Reject::new(400, "invalid header field name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    // Body framing: Content-Length only. Any Transfer-Encoding field is
    // refused rather than misparsed: RFC 9112 dropped `identity`, so there
    // is no coding left to accept, and a proxy that honours a later
    // `chunked` would frame the body differently from this reader.
    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return ReadOutcome::Reject(Reject::new(501, "transfer codings are not supported"));
    }
    let content_length = match content_length(&headers) {
        Ok(n) => n,
        Err(reject) => return ReadOutcome::Reject(reject),
    };
    if content_length > config.max_body_bytes {
        return ReadOutcome::Reject(Reject::new(413, "body exceeds the size limit"));
    }
    let body_started = Instant::now();
    while conn.carry.len() < content_length {
        match read_some(conn) {
            ReadSome::Data => continue,
            ReadSome::Eof => return ReadOutcome::Closed,
            ReadSome::Idle => {
                if body_started.elapsed() >= budget {
                    return ReadOutcome::Reject(Reject::new(408, "timed out reading request body"));
                }
            }
        }
    }
    let body: Vec<u8> = conn.carry.drain(..content_length).collect();

    let connection = headers
        .iter()
        .find(|(n, _)| n == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let keep_alive = match version {
        "HTTP/1.0" => connection.as_deref() == Some("keep-alive"),
        _ => connection.as_deref() != Some("close"),
    };

    ReadOutcome::Request(HttpRequest {
        method: method.to_string(),
        path: percent_decode(raw_path),
        query: parse_query(raw_query),
        headers,
        body,
        keep_alive,
    })
}

/// A `tchar` of RFC 9110 §5.6.2: the bytes a header field name may hold.
fn is_tchar(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

/// The declared body length: 0 without a `Content-Length` field. Every
/// such field must be `1*DIGIT` and, when repeated, carry the same value
/// (RFC 9112 §6.3). Otherwise the framing is invalid: a reader that took
/// one of two differing values, or parsed `+3` as 3, would leave bytes of
/// the body in the carry buffer to be answered as a smuggled request.
fn content_length(headers: &[(String, String)]) -> Result<usize, Reject> {
    let mut length = None;
    for (_, value) in headers.iter().filter(|(n, _)| n == "content-length") {
        let n: usize = match value.parse() {
            // `usize::from_str` alone would accept a leading `+`.
            Ok(n) if value.bytes().all(|b| b.is_ascii_digit()) => n,
            _ => return Err(Reject::new(400, "invalid Content-Length")),
        };
        if length.is_some_and(|l| l != n) {
            return Err(Reject::new(400, "conflicting Content-Length values"));
        }
        length = Some(n);
    }
    Ok(length.unwrap_or(0))
}

/// Percent-decode, with `+` as space (query convention; harmless in
/// paths). Invalid escapes pass through literally.
pub(crate) fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    let h = std::str::from_utf8(h).ok()?;
                    u8::from_str_radix(h, 16).ok()
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

pub(crate) fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// Canonical reason phrase for every status the wire layer emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Content Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// One response, ready to serialize. `close` appends `Connection: close`
/// (and the connection loop then hangs up).
pub(crate) struct WireResponse {
    pub status: u16,
    pub content_type: &'static str,
    /// Extra header lines, already rendered as `Name: value\r\n`.
    headers: String,
    pub body: Vec<u8>,
    pub close: bool,
}

impl WireResponse {
    pub(crate) fn json(status: u16, body: String) -> Self {
        WireResponse {
            status,
            content_type: "application/json",
            headers: String::new(),
            body: body.into_bytes(),
            close: false,
        }
    }

    pub(crate) fn text(status: u16, body: &str) -> Self {
        WireResponse {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: String::new(),
            body: body.as_bytes().to_vec(),
            close: false,
        }
    }

    /// Add the header line `name: value`.
    pub(crate) fn header(&mut self, name: &str, value: &str) {
        self.push_header_line(name, value, None);
    }

    /// Add the header line `name: {prefix}{n}`, rendering `n` without
    /// allocating.
    pub(crate) fn header_uint(&mut self, name: &str, prefix: &str, n: u64) {
        self.push_header_line(name, prefix, Some(n));
    }

    fn push_header_line(&mut self, name: &str, prefix: &str, n: Option<u64>) {
        let h = &mut self.headers;
        h.push_str(name);
        h.push_str(": ");
        h.push_str(prefix);
        if let Some(n) = n {
            jsonfmt::push_uint(h, n);
        }
        h.push_str("\r\n");
    }

    /// The value of the first header line named `name` (tests).
    #[cfg(test)]
    pub(crate) fn header_value(&self, name: &str) -> Option<&str> {
        self.headers
            .split("\r\n")
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(": "))
    }

    /// The standard error body: `{"error":<label>,"message":<detail>}`.
    pub(crate) fn error(status: u16, label: &str, message: &str) -> Self {
        let mut body = String::with_capacity(48 + message.len());
        body.push_str("{\"error\":");
        jsonfmt::push_str_escaped(&mut body, label);
        body.push_str(",\"message\":");
        jsonfmt::push_str_escaped(&mut body, message);
        body.push('}');
        let mut resp = WireResponse::json(status, body);
        resp.header("Cache-Control", "no-store");
        resp
    }

    /// The status line and headers, through the blank line that ends
    /// them.
    fn head(&self) -> String {
        let mut head = String::with_capacity(128 + self.headers.len());
        head.push_str("HTTP/1.1 ");
        jsonfmt::push_uint(&mut head, u64::from(self.status));
        head.push(' ');
        head.push_str(reason(self.status));
        head.push_str("\r\nContent-Type: ");
        head.push_str(self.content_type);
        head.push_str("\r\nContent-Length: ");
        jsonfmt::push_uint(&mut head, self.body.len() as u64);
        head.push_str("\r\n");
        head.push_str(&self.headers);
        if self.close {
            head.push_str("Connection: close\r\n");
        }
        head.push_str("\r\n");
        head
    }

    /// Write the whole response: the head and the body go out together in
    /// vectored writes, so the body is never copied behind the head.
    pub(crate) fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        self.write_prefix(w, usize::MAX)
    }

    /// Write only the first `limit` bytes of head plus body (a torn write
    /// when `limit` is short of the whole response).
    pub(crate) fn write_prefix(&self, w: &mut impl Write, limit: usize) -> io::Result<()> {
        let head = self.head();
        let head = &head.as_bytes()[..head.len().min(limit)];
        let body = &self.body[..self.body.len().min(limit - head.len())];
        write_all_vectored(w, &mut [IoSlice::new(head), IoSlice::new(body)])
    }
}

/// `Write::write_all` over several buffers: `write_vectored` until every
/// byte is out.
fn write_all_vectored(w: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> io::Result<()> {
    // Drop leading empty buffers: a zero-byte torn write writes nothing.
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write the whole response",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding_handles_escapes_plus_and_junk() {
        assert_eq!(percent_decode("plain"), "plain");
        assert_eq!(percent_decode("a%20b"), "a b");
        assert_eq!(percent_decode("a+b"), "a b");
        assert_eq!(percent_decode("%2Fpath"), "/path");
        assert_eq!(percent_decode("100%"), "100%", "trailing % passes through");
        assert_eq!(percent_decode("%zz"), "%zz", "bad hex passes through");
    }

    #[test]
    fn query_parsing_splits_pairs() {
        let q = parse_query("q=vacc1ne&k=1&flag&empty=");
        assert_eq!(
            q,
            vec![
                ("q".to_string(), "vacc1ne".to_string()),
                ("k".to_string(), "1".to_string()),
                ("flag".to_string(), String::new()),
                ("empty".to_string(), String::new()),
            ]
        );
    }

    /// Everything `resp.write_prefix(.., limit)` writes.
    fn written(resp: &WireResponse, limit: usize) -> Vec<u8> {
        let mut out = Vec::new();
        resp.write_prefix(&mut out, limit).unwrap();
        out
    }

    /// A writer that takes at most `chunk` bytes per call, across buffer
    /// boundaries, so one response needs many vectored writes.
    struct Trickle {
        out: Vec<u8>,
        chunk: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut n = 0;
            for buf in bufs {
                let take = buf.len().min(self.chunk - n);
                self.out.extend_from_slice(&buf[..take]);
                n += take;
            }
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn lookup_like_response() -> WireResponse {
        let mut resp = WireResponse::json(200, r#"{"hits":[{"token":"demokRATs"}]}"#.into());
        resp.header("X-Cache", "HIT");
        resp
    }

    #[test]
    fn response_serialization_is_well_formed() {
        let mut resp = WireResponse::json(200, "{}".to_string());
        resp.header("X-Test", "1");
        resp.header_uint("X-Gen", "g=", 42);
        resp.close = true;
        let bytes = written(&resp, usize::MAX);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("X-Test: 1\r\nX-Gen: g=42\r\n"));
        assert_eq!(resp.header_value("X-Gen"), Some("g=42"));
        assert_eq!(resp.header_value("X-Test"), Some("1"));
        assert_eq!(resp.header_value("X"), None);
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn vectored_writes_send_the_head_then_the_body() {
        let resp = lookup_like_response();
        let whole = written(&resp, usize::MAX);
        let head = resp.head();
        assert_eq!(whole, [head.as_bytes(), &resp.body].concat());
        for chunk in [1, 3, 7, head.len() + 1, 1 << 16] {
            let mut w = Trickle {
                out: Vec::new(),
                chunk,
            };
            resp.write_to(&mut w).unwrap();
            assert_eq!(w.out, whole, "{chunk}-byte writes");
        }
        let empty = WireResponse::text(200, "");
        assert_eq!(written(&empty, usize::MAX), empty.head().into_bytes());
    }

    #[test]
    fn a_torn_write_inside_the_head_sends_only_its_first_bytes() {
        let resp = lookup_like_response();
        let whole = written(&resp, usize::MAX);
        let head_len = resp.head().len();
        for k in [0, 1, 8, head_len - 1] {
            assert_eq!(written(&resp, k), whole[..k], "torn at {k}");
            let mut w = Trickle {
                out: Vec::new(),
                chunk: 3,
            };
            resp.write_prefix(&mut w, k).unwrap();
            assert_eq!(w.out, whole[..k], "torn at {k}, 3-byte writes");
        }
    }

    #[test]
    fn a_torn_write_inside_the_body_sends_the_head_and_a_body_prefix() {
        let resp = lookup_like_response();
        let whole = written(&resp, usize::MAX);
        let head_len = resp.head().len();
        for k in [head_len, head_len + 1, whole.len() - 1, whole.len()] {
            assert_eq!(written(&resp, k), whole[..k], "torn at {k}");
            let mut w = Trickle {
                out: Vec::new(),
                chunk: 5,
            };
            resp.write_prefix(&mut w, k).unwrap();
            assert_eq!(w.out, whole[..k], "torn at {k}, 5-byte writes");
        }
        assert_eq!(written(&resp, whole.len() + 10), whole, "past the end");
    }

    #[test]
    fn error_bodies_escape_their_messages() {
        let resp = WireResponse::error(400, "bad_request", "a \"quoted\" detail");
        let body = String::from_utf8(resp.body).unwrap();
        assert_eq!(
            body,
            r#"{"error":"bad_request","message":"a \"quoted\" detail"}"#
        );
    }

    #[test]
    fn every_emitted_status_has_a_reason() {
        for status in [
            200, 400, 401, 403, 404, 405, 408, 409, 413, 429, 431, 500, 501, 503, 504,
        ] {
            assert_ne!(reason(status), "Unknown", "status {status}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Query-ish text: the bytes the decoders treat specially (`%`, `+`,
    /// `&`, `=`), hex digits to complete or half-complete escapes, and
    /// arbitrary characters — multi-byte ones included, so an escape can
    /// run into the middle of a UTF-8 sequence.
    fn query_text() -> impl Strategy<Value = String> {
        let c = prop_oneof![
            Just('%'),
            Just('+'),
            Just('&'),
            Just('='),
            proptest::char::range('0', '9'),
            proptest::char::range('a', 'f'),
            proptest::char::range('A', 'F'),
            proptest::char::range('\0', '\u{7F}'),
            proptest::char::range('\u{80}', char::MAX),
        ];
        proptest::collection::vec(c, 0..40).prop_map(|cs| cs.into_iter().collect())
    }

    proptest! {
        #[test]
        fn percent_decode_never_panics(s in query_text()) {
            let decoded = percent_decode(&s);
            prop_assert!(decoded.len() <= 3 * s.len(), "lossy growth is bounded");
            if !s.contains(['%', '+']) {
                prop_assert_eq!(decoded, s, "nothing to decode");
            }
        }

        #[test]
        fn percent_encoding_every_byte_round_trips(s in query_text()) {
            let encoded: String = s.bytes().map(|b| format!("%{b:02X}")).collect();
            prop_assert_eq!(percent_decode(&encoded), s);
        }

        #[test]
        fn parse_query_never_panics(s in query_text()) {
            let pairs = parse_query(&s);
            let parts = s.split('&').filter(|p| !p.is_empty()).count();
            prop_assert_eq!(pairs.len(), parts, "one pair per non-empty part");
        }
    }
}
