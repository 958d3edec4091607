//! The byte layer: reading requests off a TCP stream under limits and
//! timeouts, parsing them in place, and writing responses.
//!
//! Reading is sliced: the stream runs with a short read timeout
//! (`READ_SLICE`) and the loop re-checks the wall-clock budget and the
//! server's shutdown flag between slices. That one mechanism gives us
//! the slowloris defense (a dribbling client exhausts the header budget
//! and gets `408`), responsive drain (an idle keep-alive connection
//! notices shutdown within one slice), and bounded memory (the carry
//! buffer is capped by the header/body limits).
//!
//! Parsing is pure and in place: `Framer::parse` frames the request at
//! the head of the carry buffer without copying a byte, and
//! `read_request` is the socket loop around it. Each search for the
//! blank line that ends the header block resumes three bytes before
//! where the last one stopped, so a header block dribbled one byte per
//! read is scanned once, not once per read. A whole request becomes an
//! [`HttpRequest`]: the carry buffer itself, cut at the request's end,
//! plus the byte ranges of its method, path, query, header block and
//! body. Nothing is decoded up front. [`HttpRequest::header`] matches a
//! name case-insensitively when asked, and [`HttpRequest::path`] and
//! [`HttpRequest::query_param`] percent-decode when asked, borrowing from
//! the buffer when there is nothing to decode.
//!
//! Pipelining falls out of the carry buffer: bytes read past the current
//! request's end stay in `Conn::carry` and seed the next
//! `read_request` call without touching the socket.
//!
//! Buffers are recycled per connection. The bytes past a request's end
//! move into the connection's spare buffer, which becomes the new carry,
//! and once the response is written the connection takes the request's
//! buffer back as its next spare. The response head is rendered into one
//! reused buffer, and a response's extra header lines are static text or
//! a static prefix and an integer, held in a fixed array. A keep-alive
//! connection in steady state therefore allocates nothing in this layer.

use std::borrow::Cow;
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::str::Utf8Error;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use cryptext_common::jsonfmt;
use cryptext_gateway::Body;

use crate::HttpConfig;

/// Read-timeout slice; shutdown and budget checks happen between slices.
pub(crate) const READ_SLICE: Duration = Duration::from_millis(20);

/// One connection's read and write state: the stream, the carry buffer
/// holding bytes read past the last parsed request (pipelined requests
/// queue here), and the buffers it recycles from request to request.
pub(crate) struct Conn {
    pub stream: TcpStream,
    carry: Vec<u8>,
    /// Empty: the last served request's buffer, which the bytes past the
    /// next request's end move into.
    spare: Vec<u8>,
    /// How far framing the request at the head of `carry` has got.
    framer: Framer,
    /// The response head, rendered here for every response.
    head: String,
}

/// A request the wire layer refuses before routing; `status` is written
/// and the connection closes.
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// Where a framed request's parts lie in its bytes. Every range but
/// `body` lies in the head, which the parse checked is UTF-8, and each
/// starts and ends next to an ASCII delimiter (or at the head's ends),
/// so each is UTF-8 on its own.
#[derive(Debug, Clone)]
struct Frame {
    method: Range<usize>,
    /// The raw path, before `?`.
    path: Range<usize>,
    /// The raw query, after the first `?`; empty without one.
    query: Range<usize>,
    /// The header lines after the request line, without the blank line.
    headers: Range<usize>,
    body: Range<usize>,
    keep_alive: bool,
}

/// A parsed request: the bytes it arrived as, plus where its parts lie.
/// Header names keep the case they were sent in; the accessors match
/// and decode on demand.
#[derive(Debug)]
pub struct HttpRequest {
    buf: Vec<u8>,
    frame: Frame,
}

impl HttpRequest {
    fn text(&self, range: &Range<usize>) -> &str {
        // Cannot fail (see `Frame`); an empty string is the harmless
        // answer if it ever did.
        std::str::from_utf8(&self.buf[range.clone()]).unwrap_or_default()
    }

    /// The request method, as sent.
    pub fn method(&self) -> &str {
        self.text(&self.frame.method)
    }

    /// The path before `?`, percent-decoded; bytes that decode to no
    /// UTF-8 become U+FFFD. Borrowed when there is nothing to decode.
    pub fn path(&self) -> Cow<'_, str> {
        match percent_decode(self.text(&self.frame.path)) {
            Cow::Borrowed(bytes) => String::from_utf8_lossy(bytes),
            Cow::Owned(bytes) => Cow::Owned(
                String::from_utf8(bytes)
                    .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()),
            ),
        }
    }

    /// The value of the first query parameter whose percent-decoded key
    /// is `name`, percent-decoded and borrowed when there is nothing to
    /// decode; `Some(Err(_))` when its decoded bytes are not UTF-8.
    pub fn query_param(&self, name: &str) -> Option<Result<Cow<'_, str>, Utf8Error>> {
        let (_, value) = query_pairs(self.text(&self.frame.query))
            .find(|(key, _)| decoded(key).eq(name.bytes()))?;
        Some(match percent_decode(value) {
            Cow::Borrowed(bytes) => std::str::from_utf8(bytes).map(Cow::Borrowed),
            Cow::Owned(bytes) => String::from_utf8(bytes)
                .map(Cow::Owned)
                .map_err(|e| e.utf8_error()),
        })
    }

    /// The first header value under `name`, matched case-insensitively,
    /// with surrounding whitespace trimmed.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, value)| value)
    }

    /// Every header line as `(name, value)`: names as sent, values
    /// trimmed, in order.
    pub fn headers(&self) -> impl Iterator<Item = (&str, &str)> {
        // The parse validated the block: every non-empty line holds a
        // colon.
        self.text(&self.frame.headers)
            .split("\r\n")
            .filter_map(|line| line.split_once(':'))
            .map(|(name, value)| (name, value.trim()))
    }

    /// The body: exactly `Content-Length` bytes.
    pub fn body(&self) -> &[u8] {
        &self.buf[self.frame.body.clone()]
    }

    /// HTTP/1.1 defaults on (off with `Connection: close`); HTTP/1.0
    /// defaults off (on with `Connection: keep-alive`).
    pub fn keep_alive(&self) -> bool {
        self.frame.keep_alive
    }
}

/// The raw `(key, value)` pairs of a query: `&`-separated, empty parts
/// skipped, a part without `=` a key with an empty value.
fn query_pairs(raw: &str) -> impl Iterator<Item = (&str, &str)> {
    raw.split('&')
        .filter(|part| !part.is_empty())
        .map(|part| part.split_once('=').unwrap_or((part, "")))
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            carry: Vec::new(),
            spare: Vec::new(),
            framer: Framer::default(),
            head: String::new(),
        }
    }

    /// Hand out the request framed at the head of the carry buffer: the
    /// buffer itself, cut at the request's end. The bytes past it move
    /// into the spare buffer, which becomes the carry.
    fn take_request(&mut self, frame: Frame) -> HttpRequest {
        let end = frame.body.end;
        let mut rest = std::mem::take(&mut self.spare);
        rest.extend_from_slice(&self.carry[end..]);
        let mut buf = std::mem::replace(&mut self.carry, rest);
        buf.truncate(end);
        HttpRequest { buf, frame }
    }

    /// Take a served request's buffer back as the next spare.
    pub(crate) fn recycle(&mut self, request: HttpRequest) {
        let mut buf = request.buf;
        buf.clear();
        self.spare = buf;
    }

    /// Write the first `limit` bytes of `resp` (all of it with
    /// `usize::MAX`), its head rendered into the connection's buffer.
    pub(crate) fn write(&mut self, resp: &WireResponse, limit: usize) -> io::Result<()> {
        resp.render_head(&mut self.head);
        write_prefix(&mut self.stream, &self.head, resp.body.as_bytes(), limit)?;
        self.stream.flush()
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

/// What [`Framer::parse`] made of the buffer so far.
#[derive(Debug)]
enum Parsed {
    /// The header block has not ended yet.
    NeedHead,
    /// The head is parsed; the body has not all arrived.
    NeedBody,
    /// A whole request heads the buffer, `frame.body.end` bytes long.
    Complete(Frame),
    /// Refuse with a status, then close.
    Reject(Reject),
}

/// Framing state for the request at the head of a growing buffer. Call
/// [`Framer::parse`] again after bytes are appended; after `Complete`
/// it starts afresh on whatever buffer follows the request.
#[derive(Debug, Default)]
struct Framer {
    /// Bytes already searched for the header terminator without finding
    /// it; the next search resumes 3 bytes before this, since a
    /// terminator may straddle the old end.
    scanned: usize,
    /// The parsed head of a request whose body is still arriving.
    frame: Option<Frame>,
}

impl Framer {
    /// Frame the request at the head of `buf`, which must extend the
    /// buffer of the previous call (if that call did not complete).
    fn parse(&mut self, buf: &[u8], config: &HttpConfig) -> Parsed {
        let frame = match self.frame.take() {
            Some(frame) => frame,
            None => {
                let from = self.scanned.saturating_sub(3).min(buf.len());
                let Some(head_len) = find_terminator(&buf[from..]).map(|pos| from + pos) else {
                    self.scanned = buf.len();
                    return if buf.len() > config.max_header_bytes {
                        Parsed::Reject(headers_too_large())
                    } else {
                        Parsed::NeedHead
                    };
                };
                // The limit applies to the block itself, not to however
                // many pipelined bytes happen to share the read.
                if head_len + 4 > config.max_header_bytes {
                    return Parsed::Reject(headers_too_large());
                }
                match parse_head(buf, head_len, config) {
                    Ok(frame) => frame,
                    Err(reject) => return Parsed::Reject(reject),
                }
            }
        };
        if buf.len() < frame.body.end {
            self.frame = Some(frame);
            return Parsed::NeedBody;
        }
        self.scanned = 0;
        Parsed::Complete(frame)
    }
}

fn headers_too_large() -> Reject {
    Reject::new(431, "header block exceeds the size limit")
}

/// Parse the head `buf[..head_len]` (the bytes before the blank line)
/// into a frame whose body follows the blank line.
fn parse_head(buf: &[u8], head_len: usize, config: &HttpConfig) -> Result<Frame, Reject> {
    let head = std::str::from_utf8(&buf[..head_len])
        .map_err(|_| Reject::new(400, "header block is not UTF-8"))?;

    // Request line: exactly three space-separated parts, the first two
    // non-empty.
    let line_end = head.find("\r\n").unwrap_or(head.len());
    let line = &head[..line_end];
    let malformed = || {
        Reject::new(
            400,
            "malformed request line (want METHOD SP TARGET SP VERSION)",
        )
    };
    let sp1 = line.find(' ').ok_or_else(malformed)?;
    let sp2 = line[sp1 + 1..]
        .find(' ')
        .map(|pos| sp1 + 1 + pos)
        .ok_or_else(malformed)?;
    if sp1 == 0 || sp2 == sp1 + 1 || line[sp2 + 1..].contains(' ') {
        return Err(malformed());
    }
    let version = &line[sp2 + 1..];
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(Reject::new(400, "unsupported protocol version"));
    }
    let target = &line[sp1 + 1..sp2];
    if !target.starts_with('/') {
        return Err(Reject::new(400, "request target must be origin-form"));
    }
    let (path, query) = match target.find('?') {
        Some(pos) => (sp1 + 1..sp1 + 1 + pos, sp1 + 2 + pos..sp2),
        None => (sp1 + 1..sp2, sp2..sp2),
    };

    // Headers, in one pass. A field name is a token with nothing between
    // it and the colon (RFC 9112 §5.1): a lenient parser that trimmed
    // `Content-Length : 3` would frame the body differently from a strict
    // one upstream of it. A malformed line is refused before any framing
    // field is judged, wherever it stands.
    let headers = (line_end + 2).min(head.len())..head.len();
    let mut transfer_coding = false;
    let mut content_length = Ok(None);
    let mut connection = None;
    for line in head[headers.clone()].split("\r\n") {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(Reject::new(400, "malformed header line"));
        };
        if name.is_empty() || !name.bytes().all(is_tchar) {
            return Err(Reject::new(400, "invalid header field name"));
        }
        if name.eq_ignore_ascii_case("transfer-encoding") {
            transfer_coding = true;
        } else if name.eq_ignore_ascii_case("content-length") {
            content_length =
                content_length.and_then(|length| declared_length(length, value.trim()));
        } else if connection.is_none() && name.eq_ignore_ascii_case("connection") {
            connection = Some(value.trim());
        }
    }

    // Body framing: Content-Length only. Any Transfer-Encoding field is
    // refused rather than misparsed: RFC 9112 dropped `identity`, so there
    // is no coding left to accept, and a proxy that honours a later
    // `chunked` would frame the body differently from this reader.
    if transfer_coding {
        return Err(Reject::new(501, "transfer codings are not supported"));
    }
    let content_length = content_length?.unwrap_or(0);
    let body_start = head_len + 4;
    let body = match body_start.checked_add(content_length) {
        Some(body_end) if content_length <= config.max_body_bytes => body_start..body_end,
        _ => return Err(Reject::new(413, "body exceeds the size limit")),
    };

    let keep_alive = match version {
        "HTTP/1.0" => connection.is_some_and(|v| v.eq_ignore_ascii_case("keep-alive")),
        _ => !connection.is_some_and(|v| v.eq_ignore_ascii_case("close")),
    };
    Ok(Frame {
        method: 0..sp1,
        path,
        query,
        headers,
        body,
        keep_alive,
    })
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
    // Set once the head is parsed: the body gets a budget of its own.
    let mut body_started = None;
    loop {
        match conn.framer.parse(&conn.carry, config) {
            Parsed::Complete(frame) => return ReadOutcome::Request(conn.take_request(frame)),
            Parsed::Reject(reject) => return ReadOutcome::Reject(reject),
            Parsed::NeedHead => {}
            Parsed::NeedBody => {
                body_started.get_or_insert_with(Instant::now);
            }
        }
        match read_some(conn) {
            ReadSome::Data => {}
            ReadSome::Eof => return ReadOutcome::Closed,
            ReadSome::Idle => match body_started {
                Some(body_started) => {
                    if body_started.elapsed() >= budget {
                        return ReadOutcome::Reject(Reject::new(
                            408,
                            "timed out reading request body",
                        ));
                    }
                }
                None => {
                    if conn.carry.is_empty() && shutdown.load(Ordering::Acquire) {
                        return ReadOutcome::Closed;
                    }
                    if started.elapsed() >= budget {
                        return if conn.carry.is_empty() {
                            // Idle keep-alive connection: no request in
                            // progress, nothing to answer.
                            ReadOutcome::Closed
                        } else {
                            ReadOutcome::Reject(Reject::new(
                                408,
                                "timed out reading request headers",
                            ))
                        };
                    }
                }
            },
        }
    }
}

/// A `tchar` of RFC 9110 §5.6.2: the bytes a header field name may hold.
fn is_tchar(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

/// Fold one `Content-Length` value into the length declared so far
/// (`None` before the first). Every such field must be `1*DIGIT` and,
/// when repeated, carry the same value (RFC 9112 §6.3). Otherwise the
/// framing is invalid: a reader that took one of two differing values, or
/// parsed `+3` as 3, would leave bytes of the body in the carry buffer to
/// be answered as a smuggled request.
fn declared_length(so_far: Option<usize>, value: &str) -> Result<Option<usize>, Reject> {
    let n: usize = match value.parse() {
        // `usize::from_str` alone would accept a leading `+`.
        Ok(n) if value.bytes().all(|b| b.is_ascii_digit()) => n,
        _ => return Err(Reject::new(400, "invalid Content-Length")),
    };
    if so_far.is_some_and(|l| l != n) {
        return Err(Reject::new(400, "conflicting Content-Length values"));
    }
    Ok(Some(n))
}

/// Percent-decode, with `+` as space (query convention; harmless in
/// paths). An escape is `%` and two hex digits (RFC 3986); any other `%`
/// passes through literally, and what follows it decodes on its own, so
/// `%+5` is `%`, a space and `5`. Borrowed when `s` holds neither `%` nor
/// `+`.
fn percent_decode(s: &str) -> Cow<'_, [u8]> {
    if s.contains(['%', '+']) {
        Cow::Owned(decoded(s).collect())
    } else {
        Cow::Borrowed(s.as_bytes())
    }
}

/// The bytes [`percent_decode`] yields for `s`, one at a time.
fn decoded(s: &str) -> impl Iterator<Item = u8> + '_ {
    let bytes = s.as_bytes();
    let mut i = 0;
    std::iter::from_fn(move || {
        let b = *bytes.get(i)?;
        i += 1;
        Some(match b {
            b'+' => b' ',
            b'%' => {
                let hex = match bytes.get(i..i + 2) {
                    Some(&[hi, lo]) => hex_digit(hi).zip(hex_digit(lo)),
                    _ => None,
                };
                match hex.map(|(hi, lo)| (hi << 4) | lo) {
                    Some(b) => {
                        i += 2;
                        b
                    }
                    None => b'%',
                }
            }
            b => b,
        })
    })
}

/// The value of one hex digit (`HEXDIG`, either case), else `None`.
fn hex_digit(b: u8) -> Option<u8> {
    char::from(b).to_digit(16).map(|d| d as u8)
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

/// One extra header line, `name: {prefix}{n}`: static text, or a static
/// prefix and an integer rendered when the head is written.
#[derive(Debug, Clone, Copy)]
struct HeaderLine {
    name: &'static str,
    prefix: &'static str,
    n: Option<u64>,
}

/// The most extra header lines one response carries: a served API
/// response's generation, cache disposition, `Cache-Control` and `Age`.
const MAX_HEADER_LINES: usize = 4;

/// One response, ready to serialize. `close` appends `Connection: close`
/// (and the connection loop then hangs up).
pub(crate) struct WireResponse {
    pub status: u16,
    pub content_type: &'static str,
    /// Extra header lines; the first `header_count` are set.
    headers: [HeaderLine; MAX_HEADER_LINES],
    header_count: usize,
    /// Rendered for this response, or the body a tier-1 Look Up entry
    /// keeps; written from where it lives, never copied.
    pub body: Body,
    pub close: bool,
}

impl WireResponse {
    pub(crate) fn json(status: u16, body: impl Into<Body>) -> Self {
        WireResponse {
            status,
            content_type: "application/json",
            headers: [HeaderLine {
                name: "",
                prefix: "",
                n: None,
            }; MAX_HEADER_LINES],
            header_count: 0,
            body: body.into(),
            close: false,
        }
    }

    pub(crate) fn text(status: u16, body: &str) -> Self {
        WireResponse {
            content_type: "text/plain; charset=utf-8",
            ..WireResponse::json(status, body.to_string())
        }
    }

    /// Add the header line `name: value`.
    pub(crate) fn header(&mut self, name: &'static str, value: &'static str) {
        self.push_header_line(name, value, None);
    }

    /// Add the header line `name: {prefix}{n}`.
    pub(crate) fn header_uint(&mut self, name: &'static str, prefix: &'static str, n: u64) {
        self.push_header_line(name, prefix, Some(n));
    }

    fn push_header_line(&mut self, name: &'static str, prefix: &'static str, n: Option<u64>) {
        assert!(
            self.header_count < MAX_HEADER_LINES,
            "a response carries at most {MAX_HEADER_LINES} extra header lines"
        );
        self.headers[self.header_count] = HeaderLine { name, prefix, n };
        self.header_count += 1;
    }

    /// The value of the first header line named `name` (tests).
    #[cfg(test)]
    pub(crate) fn header_value(&self, name: &str) -> Option<String> {
        self.headers[..self.header_count]
            .iter()
            .find(|line| line.name == name)
            .map(|line| match line.n {
                Some(n) => format!("{}{n}", line.prefix),
                None => line.prefix.to_string(),
            })
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

    /// Render the status line and headers, through the blank line that
    /// ends them, into `head` (cleared first).
    fn render_head(&self, head: &mut String) {
        head.clear();
        head.push_str("HTTP/1.1 ");
        jsonfmt::push_uint(head, u64::from(self.status));
        head.push(' ');
        head.push_str(reason(self.status));
        head.push_str("\r\nContent-Type: ");
        head.push_str(self.content_type);
        head.push_str("\r\nContent-Length: ");
        jsonfmt::push_uint(head, self.body.as_bytes().len() as u64);
        head.push_str("\r\n");
        for line in &self.headers[..self.header_count] {
            head.push_str(line.name);
            head.push_str(": ");
            head.push_str(line.prefix);
            if let Some(n) = line.n {
                jsonfmt::push_uint(head, n);
            }
            head.push_str("\r\n");
        }
        if self.close {
            head.push_str("Connection: close\r\n");
        }
        head.push_str("\r\n");
    }
}

/// Write only the first `limit` bytes of head plus body (a torn write
/// when `limit` is short of the whole response). The head and the body
/// go out together in vectored writes, so the body is never copied
/// behind the head.
fn write_prefix(w: &mut impl Write, head: &str, body: &[u8], limit: usize) -> io::Result<()> {
    let head = &head.as_bytes()[..head.len().min(limit)];
    let body = &body[..body.len().min(limit - head.len())];
    write_all_vectored(w, &mut [IoSlice::new(head), IoSlice::new(body)])
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
impl HttpRequest {
    /// The whole request at the head of `bytes`, under the default limits
    /// (tests).
    pub(crate) fn parse(bytes: &[u8]) -> HttpRequest {
        match Framer::default().parse(bytes, &HttpConfig::default()) {
            Parsed::Complete(frame) => HttpRequest {
                buf: bytes[..frame.body.end].to_vec(),
                frame,
            },
            other => panic!("not a whole request: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding_handles_escapes_plus_and_junk() {
        assert_eq!(*percent_decode("plain"), *b"plain");
        assert!(
            matches!(percent_decode("plain"), Cow::Borrowed(_)),
            "nothing to decode borrows"
        );
        assert_eq!(*percent_decode("a%20b"), *b"a b");
        assert_eq!(*percent_decode("a+b"), *b"a b");
        assert_eq!(*percent_decode("%2Fpath"), *b"/path");
        assert_eq!(
            *percent_decode("100%"),
            *b"100%",
            "trailing % passes through"
        );
        assert_eq!(*percent_decode("%zz"), *b"%zz", "bad hex passes through");
        assert_eq!(*percent_decode("%FF"), [0xFF], "escapes decode to bytes");
        assert_eq!(
            *percent_decode("%2b%2B"),
            *b"++",
            "hex digits of either case"
        );
        assert_eq!(*percent_decode("a%+5"), *b"a% 5", "a sign is no hex digit");
        assert_eq!(*percent_decode("%-5"), *b"%-5");
    }

    #[test]
    fn query_parsing_splits_pairs() {
        let q: Vec<_> = query_pairs("q=vacc1ne&k=1&flag&empty=&&x=a=b").collect();
        assert_eq!(
            q,
            [
                ("q", "vacc1ne"),
                ("k", "1"),
                ("flag", ""),
                ("empty", ""),
                ("x", "a=b"),
            ]
        );
    }

    #[test]
    fn accessors_match_names_and_decode_on_demand() {
        let req = HttpRequest::parse(
            b"GET /a%20b/c?q=d%C3%A9mo+crats&k=3&Q=x&%6B=shadowed&bad=%FF HTTP/1.1\r\n\
              HOST: example\r\nAuthorization:  Bearer t-1 \r\nContent-Length: 2\r\n\r\nhi",
        );
        assert_eq!(req.method(), "GET");
        assert_eq!(req.path(), "/a b/c");
        assert_eq!(req.query_param("q").unwrap().unwrap(), "démo crats");
        assert!(
            matches!(req.query_param("k"), Some(Ok(Cow::Borrowed("3")))),
            "the first `k` wins, borrowed"
        );
        assert_eq!(
            req.query_param("Q").unwrap().unwrap(),
            "x",
            "keys are case-sensitive"
        );
        assert!(
            req.query_param("bad").unwrap().is_err(),
            "decoded bytes that are not UTF-8"
        );
        assert!(req.query_param("missing").is_none());
        assert_eq!(req.header("host"), Some("example"));
        assert_eq!(req.header("AUTHORIZATION"), Some("Bearer t-1"));
        assert_eq!(req.header("accept"), None);
        assert_eq!(
            req.headers().collect::<Vec<_>>(),
            [
                ("HOST", "example"),
                ("Authorization", "Bearer t-1"),
                ("Content-Length", "2"),
            ]
        );
        assert_eq!(req.body(), b"hi");
        assert!(req.keep_alive());

        let req = HttpRequest::parse(b"GET /%FF?%6B=7 HTTP/1.0\r\nconnection: Keep-Alive\r\n\r\n");
        assert_eq!(req.path(), "/\u{FFFD}", "a path decodes lossily");
        assert_eq!(
            req.query_param("k").unwrap().unwrap(),
            "7",
            "keys match once decoded"
        );
        assert!(req.keep_alive());
        assert_eq!(req.body(), b"");
    }

    #[test]
    fn a_terminator_split_across_two_reads_is_found_at_the_same_index() {
        let config = HttpConfig::default();
        for raw in [
            &b"GET /lookup?q=x HTTP/1.1\r\nHost: a\r\n\r\n"[..],
            b"GET / HTTP/1.1\r\n\r\n",
            b"POST /normalize HTTP/1.1\r\nX: \r\r\nContent-Length: 3\r\n\r\nabcGET / HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\r\nX: a\r\n\rb\r\n\r\n",
        ] {
            let whole = format!("{:?}", Framer::default().parse(raw, &config));
            assert!(!whole.starts_with("Need"), "{whole}");
            for split in 0..=raw.len() {
                let mut framer = Framer::default();
                let got = match framer.parse(&raw[..split], &config) {
                    Parsed::NeedHead | Parsed::NeedBody => framer.parse(raw, &config),
                    done => done,
                };
                assert_eq!(format!("{got:?}"), whole, "split at {split}");
            }
        }
    }

    #[test]
    fn a_length_past_the_address_space_is_refused_under_any_limit() {
        let config = HttpConfig {
            max_body_bytes: usize::MAX,
            ..HttpConfig::default()
        };
        let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        match Framer::default().parse(raw.as_bytes(), &config) {
            Parsed::Reject(reject) => assert_eq!(reject.status, 413),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_dribbled_header_block_is_scanned_once() {
        let config = HttpConfig::default();
        let raw = b"GET / HTTP/1.1\r\nX-Long: aaaaaaaaaaaaaaaaaaaaaaaa\r\n\r\n";
        let mut framer = Framer::default();
        for end in 1..raw.len() {
            assert!(matches!(
                framer.parse(&raw[..end], &config),
                Parsed::NeedHead
            ));
            assert_eq!(framer.scanned, end, "the search resumes, not restarts");
        }
        assert!(matches!(framer.parse(raw, &config), Parsed::Complete(_)));
        assert_eq!(framer.scanned, 0, "a complete request resets the scan");
    }

    /// The next request off `conn`, which must hold one.
    fn next_request(conn: &mut Conn) -> HttpRequest {
        match read_request(conn, &HttpConfig::default(), &AtomicBool::new(false)) {
            ReadOutcome::Request(req) => req,
            _ => panic!("expected a request"),
        }
    }

    #[test]
    fn pipelined_requests_leave_in_turn_and_buffers_are_recycled() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_read_timeout(Some(READ_SLICE)).unwrap();
        let mut conn = Conn::new(server);
        client
            .write_all(b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 1\r\n\r\nx")
            .unwrap();
        let first = next_request(&mut conn);
        assert_eq!((first.method(), &*first.path()), ("GET", "/a"));
        let first_buf = first.buf.as_ptr();
        conn.recycle(first);
        let second = next_request(&mut conn);
        assert_eq!((second.method(), second.body()), ("POST", &b"x"[..]));
        assert_eq!(
            conn.carry.as_ptr(),
            first_buf,
            "the first request's buffer carries what follows the second"
        );
    }

    /// A response's head, rendered.
    fn head(resp: &WireResponse) -> String {
        let mut head = String::new();
        resp.render_head(&mut head);
        head
    }

    /// Everything `resp` writes when cut at `limit` bytes.
    fn written(resp: &WireResponse, limit: usize) -> Vec<u8> {
        let mut out = Vec::new();
        write_prefix(&mut out, &head(resp), resp.body.as_bytes(), limit).unwrap();
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
        let mut resp = WireResponse::json(200, r#"{"hits":[{"token":"demokRATs"}]}"#.to_string());
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
        assert_eq!(resp.header_value("X-Gen").as_deref(), Some("g=42"));
        assert_eq!(resp.header_value("X-Test").as_deref(), Some("1"));
        assert_eq!(resp.header_value("X"), None);
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        // One head buffer serves every response: each render starts clean.
        let mut reused = head(&resp);
        let other = lookup_like_response();
        other.render_head(&mut reused);
        assert_eq!(reused, head(&other));
    }

    #[test]
    fn a_response_holds_four_header_lines() {
        let mut resp = WireResponse::json(200, String::new());
        for _ in 0..MAX_HEADER_LINES {
            resp.header_uint("X-N", "", 7);
        }
        assert_eq!(head(&resp).matches("X-N: 7\r\n").count(), MAX_HEADER_LINES);
        let fifth = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            resp.header("X-N", "8");
        }));
        assert!(fifth.is_err(), "a fifth line is a programming error");
    }

    #[test]
    fn vectored_writes_send_the_head_then_the_body() {
        let resp = lookup_like_response();
        let whole = written(&resp, usize::MAX);
        let head = head(&resp);
        assert_eq!(whole, [head.as_bytes(), resp.body.as_bytes()].concat());
        for chunk in [1, 3, 7, head.len() + 1, 1 << 16] {
            let mut w = Trickle {
                out: Vec::new(),
                chunk,
            };
            write_prefix(&mut w, &head, resp.body.as_bytes(), usize::MAX).unwrap();
            assert_eq!(w.out, whole, "{chunk}-byte writes");
        }
        let empty = WireResponse::text(200, "");
        assert_eq!(
            written(&empty, usize::MAX),
            super::tests::head(&empty).into_bytes()
        );
    }

    #[test]
    fn a_torn_write_inside_the_head_sends_only_its_first_bytes() {
        let resp = lookup_like_response();
        let whole = written(&resp, usize::MAX);
        let head = head(&resp);
        for k in [0, 1, 8, head.len() - 1] {
            assert_eq!(written(&resp, k), whole[..k], "torn at {k}");
            let mut w = Trickle {
                out: Vec::new(),
                chunk: 3,
            };
            write_prefix(&mut w, &head, resp.body.as_bytes(), k).unwrap();
            assert_eq!(w.out, whole[..k], "torn at {k}, 3-byte writes");
        }
    }

    #[test]
    fn a_torn_write_inside_the_body_sends_the_head_and_a_body_prefix() {
        let resp = lookup_like_response();
        let whole = written(&resp, usize::MAX);
        let head = head(&resp);
        for k in [head.len(), head.len() + 1, whole.len() - 1, whole.len()] {
            assert_eq!(written(&resp, k), whole[..k], "torn at {k}");
            let mut w = Trickle {
                out: Vec::new(),
                chunk: 5,
            };
            write_prefix(&mut w, &head, resp.body.as_bytes(), k).unwrap();
            assert_eq!(w.out, whole[..k], "torn at {k}, 5-byte writes");
        }
        assert_eq!(written(&resp, whole.len() + 10), whole, "past the end");
    }

    #[test]
    fn error_bodies_escape_their_messages() {
        let resp = WireResponse::error(400, "bad_request", "a \"quoted\" detail");
        assert_eq!(
            resp.body.as_str(),
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

/// The owned request parser this module used before parsing moved in
/// place, kept as the reference the in-place parse is checked against.
/// It copies the head, lowercases header names, and decodes the path and
/// every query pair (lossily) up front. Its socket loop is replaced by a
/// buffer holding every byte read so far.
#[cfg(test)]
mod reference {
    use super::{is_tchar, Reject};
    use crate::HttpConfig;

    #[derive(Debug, PartialEq)]
    pub(super) struct OwnedRequest {
        pub method: String,
        pub path: String,
        pub query: Vec<(String, String)>,
        pub headers: Vec<(String, String)>,
        pub body: Vec<u8>,
        pub keep_alive: bool,
    }

    #[derive(Debug, PartialEq)]
    pub(super) enum Outcome {
        /// More bytes are needed.
        Incomplete,
        /// A request heads the buffer; the `usize` is its length.
        Request(OwnedRequest, usize),
        Reject(Reject),
    }

    fn reject(status: u16, message: &str) -> Outcome {
        Outcome::Reject(Reject::new(status, message))
    }

    pub(super) fn parse(carry: &[u8], config: &HttpConfig) -> Outcome {
        // Header block.
        let header_end = match carry.windows(4).position(|w| w == b"\r\n\r\n") {
            // The limit applies to the block itself, not to however many
            // pipelined bytes happen to share the read.
            Some(pos) if pos + 4 > config.max_header_bytes => {
                return reject(431, "header block exceeds the size limit")
            }
            Some(pos) => pos,
            None if carry.len() > config.max_header_bytes => {
                return reject(431, "header block exceeds the size limit")
            }
            None => return Outcome::Incomplete,
        };
        let head = match std::str::from_utf8(&carry[..header_end]) {
            Ok(s) => s,
            Err(_) => return reject(400, "header block is not UTF-8"),
        };

        // Request line.
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split(' ');
        let (method, target, version) =
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
                _ => {
                    return reject(
                        400,
                        "malformed request line (want METHOD SP TARGET SP VERSION)",
                    )
                }
            };
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return reject(400, "unsupported protocol version");
        }
        if !target.starts_with('/') {
            return reject(400, "request target must be origin-form");
        }
        let (raw_path, raw_query) = match target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (target, ""),
        };

        // Headers.
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let Some((name, value)) = line.split_once(':') else {
                return reject(400, "malformed header line");
            };
            if name.is_empty() || !name.bytes().all(is_tchar) {
                return reject(400, "invalid header field name");
            }
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }

        // Body framing.
        if headers.iter().any(|(n, _)| n == "transfer-encoding") {
            return reject(501, "transfer codings are not supported");
        }
        let content_length = match content_length(&headers) {
            Ok(n) => n,
            Err(reject) => return Outcome::Reject(reject),
        };
        if content_length > config.max_body_bytes {
            return reject(413, "body exceeds the size limit");
        }
        let body_start = header_end + 4;
        if carry.len() - body_start < content_length {
            return Outcome::Incomplete;
        }
        let body = carry[body_start..body_start + content_length].to_vec();

        let connection = headers
            .iter()
            .find(|(n, _)| n == "connection")
            .map(|(_, v)| v.to_ascii_lowercase());
        let keep_alive = match version {
            "HTTP/1.0" => connection.as_deref() == Some("keep-alive"),
            _ => connection.as_deref() != Some("close"),
        };

        Outcome::Request(
            OwnedRequest {
                method: method.to_string(),
                path: percent_decode(raw_path),
                query: parse_query(raw_query),
                headers,
                body,
                keep_alive,
            },
            body_start + content_length,
        )
    }

    fn content_length(headers: &[(String, String)]) -> Result<usize, Reject> {
        let mut length = None;
        for (_, value) in headers.iter().filter(|(n, _)| n == "content-length") {
            let n: usize = match value.parse() {
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

    /// Percent-decode, with `+` as space, then replace what is not UTF-8.
    pub(super) fn percent_decode(s: &str) -> String {
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
                    // Strict: `from_str_radix` alone would also take a sign.
                    let hex = bytes
                        .get(i + 1..i + 3)
                        .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                        .and_then(|h| {
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

    pub(super) fn parse_query(raw: &str) -> Vec<(String, String)> {
        raw.split('&')
            .filter(|p| !p.is_empty())
            .map(|pair| match pair.split_once('=') {
                Some((k, v)) => (percent_decode(k), percent_decode(v)),
                None => (percent_decode(pair), String::new()),
            })
            .collect()
    }
}

#[cfg(test)]
mod proptests {
    use super::reference::{self, Outcome, OwnedRequest};
    use super::*;
    use proptest::prelude::*;

    fn lossy(bytes: Cow<'_, [u8]>) -> String {
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// `req` as the reference parser would have built it.
    fn owned(req: &HttpRequest) -> OwnedRequest {
        OwnedRequest {
            method: req.method().to_string(),
            path: req.path().into_owned(),
            query: query_pairs(req.text(&req.frame.query))
                .map(|(k, v)| (lossy(percent_decode(k)), lossy(percent_decode(v))))
                .collect(),
            headers: req
                .headers()
                .map(|(n, v)| (n.to_ascii_lowercase(), v.to_string()))
                .collect(),
            body: req.body().to_vec(),
            keep_alive: req.keep_alive(),
        }
    }

    /// What `framer` makes of `buf`, in the reference's terms.
    fn outcome(framer: &mut Framer, buf: &[u8], config: &HttpConfig) -> Outcome {
        match framer.parse(buf, config) {
            Parsed::NeedHead | Parsed::NeedBody => Outcome::Incomplete,
            Parsed::Reject(reject) => Outcome::Reject(reject),
            Parsed::Complete(frame) => {
                let len = frame.body.end;
                let req = HttpRequest {
                    buf: buf[..len].to_vec(),
                    frame,
                };
                Outcome::Request(owned(&req), len)
            }
        }
    }

    /// The default limits, or limits small enough for generated requests
    /// to cross them.
    fn config() -> impl Strategy<Value = HttpConfig> {
        prop_oneof![
            Just(HttpConfig::default()),
            (16usize..400, 0usize..32).prop_map(|(header, body)| HttpConfig {
                max_header_bytes: header,
                max_body_bytes: body,
                ..HttpConfig::default()
            }),
        ]
    }

    fn method() -> impl Strategy<Value = String> {
        prop_oneof![
            Just("GET".to_string()),
            Just("POST".to_string()),
            Just("DELETE".to_string()),
            "[A-Z]{1,7}",
        ]
    }

    /// A piece of a request target: plain characters, valid, invalid and
    /// half escapes, `+`, and multi-byte characters raw and escaped.
    fn target_piece() -> impl Strategy<Value = String> {
        prop_oneof![
            "[a-zA-Z0-9._~!$'()*,;:@/-]{1,4}",
            Just("%20".to_string()),
            Just("%2F".to_string()),
            Just("%C3%A9".to_string()),
            Just("%FF".to_string()),
            Just("%zz".to_string()),
            Just("%".to_string()),
            Just("%4".to_string()),
            Just("%+5".to_string()),
            Just("+".to_string()),
            Just("é".to_string()),
            Just("🙂".to_string()),
            Just("%71".to_string()),
            Just("q".to_string()),
            Just("k".to_string()),
        ]
    }

    fn pieces(n: std::ops::Range<usize>) -> impl Strategy<Value = String> {
        proptest::collection::vec(target_piece(), n).prop_map(|p| p.concat())
    }

    /// An origin-form target: a path, then maybe a query of `key[=value]`
    /// parts, empty ones included.
    fn target() -> impl Strategy<Value = String> {
        let part =
            (pieces(0..3), proptest::option::of(pieces(0..3))).prop_map(
                |(key, value)| match value {
                    Some(value) => format!("{key}={value}"),
                    None => key,
                },
            );
        (
            pieces(0..4),
            proptest::option::of(proptest::collection::vec(part, 0..5)),
        )
            .prop_map(|(path, query)| match query {
                Some(parts) => format!("/{path}?{}", parts.join("&")),
                None => format!("/{path}"),
            })
    }

    const NAMES: [&str; 7] = [
        "Host",
        "Authorization",
        "Connection",
        "Accept",
        "X-Trace-Id",
        "x_tok!#$%&'*+.^`|~",
        "If-None-Match",
    ];

    const CONNECTION: [&str; 5] = ["close", "keep-alive", "Keep-Alive", "CLOSE", "upgrade"];

    /// `name` with the case of each letter drawn from `upper`.
    fn mixed_case(name: &str, upper: &[bool]) -> String {
        name.chars()
            .zip(upper.iter().cycle())
            .map(|(c, &up)| {
                if up {
                    c.to_ascii_uppercase()
                } else {
                    c.to_ascii_lowercase()
                }
            })
            .collect()
    }

    /// One header line's name (mixed case) and value (padded with
    /// spaces, which the parse trims).
    fn header() -> impl Strategy<Value = (String, String)> {
        (
            0..NAMES.len(),
            proptest::collection::vec(any::<bool>(), 1..8),
            0..CONNECTION.len(),
            "[ -~]{0,12}",
            prop_oneof![Just(String::new()), Just(" é".to_string())],
        )
            .prop_map(|(name, upper, connection, value, extra)| {
                let value = if NAMES[name] == "Connection" {
                    format!(" {} ", CONNECTION[connection])
                } else {
                    value + &extra
                };
                (mixed_case(NAMES[name], &upper), value)
            })
    }

    /// A valid request's bytes: a method, an origin-form target with
    /// escapes, 0–8 headers in mixed case, and a `Content-Length` body at
    /// any position among them.
    fn valid_request() -> impl Strategy<Value = Vec<u8>> {
        (
            method(),
            target(),
            proptest::collection::vec(header(), 0..9),
            (
                proptest::collection::vec(any::<u8>(), 0..24),
                any::<bool>(),
                any::<prop::sample::Index>(),
                proptest::collection::vec(any::<bool>(), 1..8),
            ),
            any::<bool>(),
        )
            .prop_map(
                |(method, target, mut headers, (body, declare, at, upper), http10)| {
                    if declare || !body.is_empty() {
                        let at = at.index(headers.len() + 1);
                        let name = mixed_case("Content-Length", &upper);
                        headers.insert(at, (name, body.len().to_string()));
                    }
                    let version = if http10 { "HTTP/1.0" } else { "HTTP/1.1" };
                    let mut out = format!("{method} {target} {version}\r\n");
                    for (name, value) in &headers {
                        out.push_str(&format!("{name}:{value}\r\n"));
                    }
                    out.push_str("\r\n");
                    [out.into_bytes(), body].concat()
                },
            )
    }

    /// A fragment dense in what the parse looks for: request-line and
    /// header pieces, framing headers (repeated, signed, chunked), CR and
    /// LF runs, escapes, hex digits, multi-byte and invalid UTF-8, or one
    /// arbitrary byte.
    fn fragment() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            any::<u8>().prop_map(|b| vec![b]),
            Just(b"GET ".to_vec()),
            Just(b"POST /normalize".to_vec()),
            Just(b"/lookup?q=".to_vec()),
            Just(b" HTTP/1.1".to_vec()),
            Just(b" HTTP/1.0".to_vec()),
            Just(b"\r\n".to_vec()),
            Just(b"\r\n\r\n".to_vec()),
            Just(b"\r".to_vec()),
            Just(b"Content-Length: 1\r\n".to_vec()),
            Just(b"content-length:+2\r\n".to_vec()),
            Just(b"Content-Length : 3\r\n".to_vec()),
            Just(b"Transfer-Encoding: chunked\r\n".to_vec()),
            Just(b"Connection: close\r\n".to_vec()),
            Just(b": ".to_vec()),
            Just(b" ".to_vec()),
            Just(b"%".to_vec()),
            Just(b"&=+?".to_vec()),
            "[0-9a-fA-F]{1,3}".prop_map(String::into_bytes),
            Just("é".as_bytes().to_vec()),
            Just(vec![0xFF, 0xC3]),
        ]
    }

    fn request_like_bytes() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(fragment(), 0..40).prop_map(|parts| parts.concat())
    }

    /// A valid request, then up to three edits: a fragment inserted
    /// anywhere or at the start of a line, or a byte replaced.
    fn mutated_request() -> impl Strategy<Value = Vec<u8>> {
        let edit = (any::<prop::sample::Index>(), fragment(), 0u8..3);
        (valid_request(), proptest::collection::vec(edit, 0..4)).prop_map(|(mut bytes, edits)| {
            for (at, fragment, op) in edits {
                let line_starts: Vec<usize> = (2..=bytes.len())
                    .filter(|&i| &bytes[i - 2..i] == b"\r\n")
                    .collect();
                match op {
                    0 => {
                        let at = at.index(bytes.len() + 1);
                        bytes.splice(at..at, fragment);
                    }
                    1 if !line_starts.is_empty() => {
                        let at = line_starts[at.index(line_starts.len())];
                        bytes.splice(at..at, fragment);
                    }
                    _ if !bytes.is_empty() => {
                        let at = at.index(bytes.len());
                        bytes.splice(at..at + 1, fragment.into_iter().take(1));
                    }
                    _ => {}
                }
            }
            bytes
        })
    }

    fn any_bytes() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            request_like_bytes(),
            mutated_request(),
            (valid_request(), valid_request()).prop_map(|(a, b)| [a, b].concat()),
        ]
    }

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
        /// Arbitrary bytes never panic the parse or its accessors, and the
        /// parse reaches the reference's outcome: the same request, the
        /// same refusal, or the same wait for more bytes.
        #[test]
        fn the_parse_never_panics_and_matches_the_reference(
            bytes in any_bytes(),
            config in config(),
        ) {
            let got = outcome(&mut Framer::default(), &bytes, &config);
            prop_assert_eq!(got, reference::parse(&bytes, &config));
        }

        /// A valid request and a second one pipelined behind it parse to
        /// the reference's method, path, query, headers, body and
        /// keep-alive, and the on-demand lookups agree with its up-front
        /// decoding.
        #[test]
        fn valid_requests_parse_like_the_reference(
            first in valid_request(),
            second in valid_request(),
        ) {
            let config = HttpConfig::default();
            let bytes = [first, second].concat();
            let mut framer = Framer::default();
            let mut rest = &bytes[..];
            for _ in 0..2 {
                let Parsed::Complete(frame) = framer.parse(rest, &config) else {
                    panic!("{:?} is not a whole request", String::from_utf8_lossy(rest));
                };
                let len = frame.body.end;
                let req = HttpRequest { buf: rest[..len].to_vec(), frame };
                let Outcome::Request(want, want_len) = reference::parse(rest, &config) else {
                    panic!("the reference refused {:?}", String::from_utf8_lossy(rest));
                };
                prop_assert_eq!(len, want_len);
                prop_assert_eq!(&owned(&req), &want);
                for (key, _) in want.query.iter().filter(|(k, _)| !k.contains('\u{FFFD}')) {
                    let first = &want.query.iter().find(|(k, _)| k == key).unwrap().1;
                    match req.query_param(key) {
                        Some(Ok(value)) => prop_assert_eq!(&*value, first.as_str()),
                        Some(Err(_)) => prop_assert!(first.contains('\u{FFFD}'), "{first:?}"),
                        None => panic!("no query parameter {key:?}"),
                    }
                }
                for (name, _) in &want.headers {
                    let first = want.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str());
                    prop_assert_eq!(req.header(name), first);
                    prop_assert_eq!(req.header(&name.to_ascii_uppercase()), first);
                }
                rest = &rest[len..];
            }
            prop_assert!(rest.is_empty());
        }

        /// Delivering the same bytes in two reads, split at any offset,
        /// ends where one read does.
        #[test]
        fn two_reads_reach_the_outcome_of_one(bytes in any_bytes(), config in config()) {
            let whole = outcome(&mut Framer::default(), &bytes, &config);
            for split in 0..=bytes.len() {
                let mut framer = Framer::default();
                let got = match outcome(&mut framer, &bytes[..split], &config) {
                    Outcome::Incomplete => outcome(&mut framer, &bytes, &config),
                    done => done,
                };
                prop_assert_eq!(&got, &whole, "split at {}", split);
            }
        }

        #[test]
        fn percent_decode_never_panics(s in query_text()) {
            let decoded = percent_decode(&s);
            prop_assert!(decoded.len() <= s.len(), "decoding never grows");
            if !s.contains(['%', '+']) {
                prop_assert!(matches!(decoded, Cow::Borrowed(_)), "nothing to decode");
                prop_assert_eq!(&*decoded, s.as_bytes());
            }
            prop_assert_eq!(lossy(decoded), reference::percent_decode(&s));
        }

        #[test]
        fn percent_encoding_every_byte_round_trips(s in query_text()) {
            let encoded: String = s.bytes().map(|b| format!("%{b:02X}")).collect();
            prop_assert_eq!(&*percent_decode(&encoded), s.as_bytes());
        }

        #[test]
        fn parse_query_never_panics(s in query_text()) {
            let pairs = query_pairs(&s).count();
            let parts = s.split('&').filter(|p| !p.is_empty()).count();
            prop_assert_eq!(pairs, parts, "one pair per non-empty part");
            let decoded: Vec<_> = query_pairs(&s)
                .map(|(k, v)| (lossy(percent_decode(k)), lossy(percent_decode(v))))
                .collect();
            prop_assert_eq!(decoded, reference::parse_query(&s));
        }
    }
}
