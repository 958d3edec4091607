//! Integration: the HTTP/1.1 wire layer over a real loopback socket —
//! the `service_api` semantics re-run end to end over TCP, plus the
//! wire-only contracts no in-process test can see: keep-alive
//! pipelining, a new connection served however many keep-alive clients
//! hold theirs open, torn/partial requests, size limits, the slowloris
//! timeout, the error→status mapping, cache-metadata headers, and the
//! SIGTERM-style drain (zero dropped in-flight responses, flush hook
//! run before the listener closes).
//!
//! Every test runs once per layout in `common::LAYOUTS`, like
//! `service_api`: the token database with tier-1 caches only, and reading
//! through to the process-global shared tier-2. CI
//! also runs the filtered `torn_write` test under
//! `CRYPTEXT_FAILPOINTS=http.write=torn@1:8` — that test detects which
//! mode it's in from the first response's bytes, so one test body proves
//! both the clean path and the torn-write arm.

mod common;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use common::{corpus, each_layout, service, Layout};
use cryptext::cache::{CacheConfig, SharedCacheStore};
use cryptext::common::SimClock;
use cryptext::core::perturb::{PerturbParams, Perturber};
use cryptext::core::service::CryptextService;
use cryptext::core::{look_up_naive, LookupParams, TokenDatabase};
use cryptext::gateway::{Gateway, GatewayConfig, RouteOutput};
use cryptext::http::{HttpConfig, HttpServer, ServeReport, ShutdownHandle};

// ---------------------------------------------------------------- fixture

struct Server {
    addr: SocketAddr,
    token: String,
    clock: SimClock,
    gateway: Arc<Gateway<TokenDatabase>>,
    handle: ShutdownHandle,
    join: Option<JoinHandle<ServeReport>>,
    flush_ran: Arc<AtomicBool>,
}

/// `svc` behind a gateway and a bound-and-serving HTTP server on an
/// ephemeral loopback port.
fn serve(svc: CryptextService<TokenDatabase>, clock: SimClock, http: HttpConfig) -> Server {
    let svc = Arc::new(svc);
    let token = svc.issue_token("wire").as_str().to_string();
    let gateway = Arc::new(Gateway::new(svc, GatewayConfig::default()));
    let server = HttpServer::bind(Arc::clone(&gateway), http, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let flush_ran = Arc::new(AtomicBool::new(false));
    let flush_flag = Arc::clone(&flush_ran);
    let join = std::thread::spawn(move || {
        server.serve_with_flush(move || {
            flush_flag.store(true, Ordering::SeqCst);
            Ok(())
        })
    });
    Server {
        addr,
        token,
        clock,
        gateway,
        handle,
        join: Some(join),
        flush_ran,
    }
}

fn server_with(layout: Layout, limit: u32, http: HttpConfig) -> Server {
    let (svc, clock) = service(layout, limit);
    serve(svc, clock, http)
}

fn server(layout: Layout) -> Server {
    server_with(layout, 100_000, HttpConfig::default())
}

impl Server {
    /// Graceful stop: shutdown, join the serve thread, hand back the
    /// report.
    fn finish(mut self) -> ServeReport {
        self.handle.shutdown();
        self.join
            .take()
            .expect("still serving")
            .join()
            .expect("serve thread")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

// ----------------------------------------------------------- tiny client

struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

#[derive(Debug)]
struct Resp {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Resp {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .expect("set client read timeout");
        Client {
            stream,
            buf: Vec::new(),
        }
    }

    fn send(&mut self, raw: &str) {
        self.stream.write_all(raw.as_bytes()).expect("client send");
    }

    /// Pull more bytes; `true` on data, `false` on EOF. Panics if the
    /// wall-clock deadline passes first (a hung test, not a failure
    /// mode under test).
    fn fill(&mut self, deadline: Instant) -> bool {
        let mut chunk = [0u8; 4096];
        loop {
            assert!(Instant::now() < deadline, "client read timed out");
            match self.stream.read(&mut chunk) {
                Ok(0) => return false,
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return true;
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    continue
                }
                Err(e) => panic!("client read: {e}"),
            }
        }
    }

    /// One full response off the stream (headers + `Content-Length`
    /// body); `None` if the peer closed before completing one.
    fn try_read_response(&mut self) -> Option<Resp> {
        self.try_read_response_by(Instant::now() + Duration::from_secs(20))
    }

    /// [`Self::try_read_response`], panicking once `deadline` passes.
    fn try_read_response_by(&mut self, deadline: Instant) -> Option<Resp> {
        let header_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            if !self.fill(deadline) {
                return None;
            }
        };
        let head = String::from_utf8(self.buf[..header_end].to_vec()).expect("UTF-8 headers");
        let mut lines = head.split("\r\n");
        let status_line = lines.next().expect("status line");
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
        let headers: Vec<(String, String)> = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(n, v)| (n.trim().to_string(), v.trim().to_string()))
            .collect();
        let content_length: usize = headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.parse().ok())
            .expect("Content-Length on every response");
        self.buf.drain(..header_end + 4);
        while self.buf.len() < content_length {
            if !self.fill(deadline) {
                return None;
            }
        }
        let body_bytes: Vec<u8> = self.buf.drain(..content_length).collect();
        Some(Resp {
            status,
            headers,
            body: String::from_utf8_lossy(&body_bytes).into_owned(),
        })
    }

    fn read_response(&mut self) -> Resp {
        self.try_read_response()
            .expect("connection closed before a full response")
    }

    /// Everything until EOF (for torn-write inspection).
    fn read_to_eof(&mut self) -> Vec<u8> {
        let deadline = Instant::now() + Duration::from_secs(20);
        while self.fill(deadline) {}
        std::mem::take(&mut self.buf)
    }
}

fn get_req(path: &str, token: Option<&str>) -> String {
    let auth = match token {
        Some(t) => format!("Authorization: Bearer {t}\r\n"),
        None => String::new(),
    };
    format!("GET {path} HTTP/1.1\r\nHost: loopback\r\n{auth}\r\n")
}

fn post_req(path: &str, token: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: loopback\r\nAuthorization: Bearer {token}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

// ---------------------------------------------------------------- tests

/// The `service_api` happy path, over the wire: Look Up finds hits,
/// Normalization repairs the paper's example, Perturbation answers.
#[test]
fn api_surface_over_the_wire() {
    each_layout(|layout| {
        let srv = server(layout);
        let mut c = Client::connect(srv.addr);

        c.send(&get_req("/lookup?q=vaccine", Some(&srv.token)));
        let resp = c.read_response();
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.starts_with("{\"hits\":["));
        assert!(resp.body.contains("\"token\":"), "no hits in {}", resp.body);

        c.send(&post_req("/normalize", &srv.token, "the vacc1ne mandate"));
        let resp = c.read_response();
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(
            resp.body.contains("\"text\":\"the vaccine mandate\""),
            "normalization over the wire: {}",
            resp.body
        );

        c.send(&post_req(
            "/perturb?seed=42",
            &srv.token,
            "the vaccine mandate",
        ));
        let resp = c.read_response();
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("\"replacements\":"));

        let report = srv.finish();
        assert_eq!(report.requests_served, 3);
        assert!(report.drain.quiesced);
    });
}

/// A client may send any `d`. At `usize::MAX` the bounded Levenshtein's
/// band edge overflowed on non-ASCII pairs (a panic in debug builds, a
/// wrong distance in release ones); both routes now answer with exactly
/// what the naive references return.
#[test]
fn a_maximal_edit_bound_answers_like_the_references() {
    let d = usize::MAX;
    let text = "the vãccine mandate and the democrats";
    let perturb = PerturbParams {
        d,
        ..PerturbParams::with_ratio(1.0).seeded(3)
    };
    let db = corpus();
    let lookup_json = look_up_naive(&db, "vãccine", LookupParams::new(1, d))
        .map(RouteOutput::Lookup)
        .unwrap()
        .to_json();
    let perturb_json = Perturber::new(&db)
        .perturb(text, perturb)
        .map(RouteOutput::Perturb)
        .unwrap()
        .to_json();
    each_layout(|layout| {
        let srv = server(layout);
        let mut c = Client::connect(srv.addr);
        c.send(&get_req(
            &format!("/lookup?q=v%C3%A3ccine&d={d}"),
            Some(&srv.token),
        ));
        let resp = c.read_response();
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(resp.body, lookup_json);

        c.send(&post_req(
            &format!("/perturb?seed=3&d={d}"),
            &srv.token,
            text,
        ));
        let resp = c.read_response();
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(resp.body, perturb_json);
        srv.finish();
    });
}

/// A repeated Look Up writes the body kept with its tier-1 entry. One
/// query is served cold, then twice as a hit, then once per varied
/// parameter (each its own entry, so cold again); every body is the
/// naive reference's exact bytes, under a `Content-Length` that matches.
#[test]
fn a_repeated_lookup_writes_its_kept_body() {
    let db = corpus();
    let base = LookupParams::paper_default();
    let served = [
        ("", base, "cold"),
        ("", base, "hit"),
        ("", base, "hit"),
        ("&k=0", LookupParams::new(0, 3), "cold"),
        ("&d=1", LookupParams::new(1, 1), "cold"),
        ("&exclude_identity=true", base.perturbations_only(), "cold"),
        ("&observed_only=true", base.observed(), "cold"),
    ];
    let want: Vec<String> = served
        .iter()
        .map(|(_, params, _)| {
            let hits = look_up_naive(&db, "democrats", *params).unwrap();
            assert!(!hits.is_empty(), "{params:?}");
            RouteOutput::Lookup(hits).to_json()
        })
        .collect();
    each_layout(|layout| {
        let srv = server(layout);
        let mut c = Client::connect(srv.addr);
        for ((query, params, cache), want) in served.iter().zip(&want) {
            c.send(&get_req(
                &format!("/lookup?q=democrats{query}"),
                Some(&srv.token),
            ));
            let resp = c.read_response();
            assert_eq!(resp.status, 200, "{}", resp.body);
            assert_eq!(resp.header("X-Cryptext-Cache"), Some(*cache), "{params:?}");
            assert_eq!(
                resp.header("Content-Length"),
                Some(resp.body.len().to_string().as_str())
            );
            assert_eq!(&resp.body, want, "{params:?}");
        }
        srv.finish();
    });
}

/// Three pipelined requests in one burst answer in order on one
/// connection, and the connection survives for a fourth.
#[test]
fn pipelined_keep_alive_requests_answer_in_order() {
    each_layout(|layout| {
        let srv = server(layout);
        let mut c = Client::connect(srv.addr);

        let burst = format!(
            "{}{}{}",
            get_req("/healthz", None),
            get_req("/lookup?q=vaccine", Some(&srv.token)),
            get_req("/stats", None)
        );
        c.send(&burst);

        let first = c.read_response();
        assert_eq!((first.status, first.body.as_str()), (200, "ok\n"));
        let second = c.read_response();
        assert_eq!(second.status, 200);
        assert!(second.body.starts_with("{\"hits\":["));
        let third = c.read_response();
        assert_eq!(third.status, 200);
        assert!(third.body.contains("\"draining\":false"), "{}", third.body);

        // Still keep-alive: a fourth request on the same connection works.
        c.send(&get_req("/healthz", None));
        assert_eq!(c.read_response().status, 200);
    });
}

/// Malformed request lines are `400` and close; a torn request (client
/// hangs up mid-line) is dropped silently; the listener serves the next
/// connection either way.
/// Each connection has a server thread of its own, so keep-alive clients
/// holding theirs open never keep a new one waiting. Twenty holders is
/// more than the 16 pool workers that used to carry every connection
/// (sized by the gateway's lane budgets, 8+4+2+2): there the 17th active
/// connection was never served.
#[test]
fn a_new_connection_is_served_past_twenty_keep_alive_holders() {
    const HOLDERS: usize = 20;
    let healthz = get_req("/healthz", None);
    each_layout(|layout| {
        let srv = server(layout);
        let stop = Arc::new(AtomicBool::new(false));
        let mut holders = Vec::new();
        for i in 0..HOLDERS {
            let (answered, first_answer) = std::sync::mpsc::channel();
            let (addr, stop, healthz) = (srv.addr, Arc::clone(&stop), healthz.clone());
            holders.push(std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                while !stop.load(Ordering::Acquire) {
                    c.send(&healthz);
                    let resp = c
                        .try_read_response_by(Instant::now() + Duration::from_secs(3))
                        .expect("holder connection closed");
                    assert_eq!(resp.status, 200);
                    let _ = answered.send(());
                    std::thread::sleep(Duration::from_millis(100));
                }
            }));
            first_answer
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("keep-alive holder {i} was never answered"));
        }

        let started = Instant::now();
        let mut extra = Client::connect(srv.addr);
        extra.send(&healthz);
        let resp = extra
            .try_read_response_by(started + Duration::from_secs(3))
            .expect("extra connection closed");
        let waited = started.elapsed();
        assert_eq!(resp.status, 200);
        assert!(
            waited < Duration::from_secs(1),
            "the extra connection waited {waited:?} behind {HOLDERS} holders"
        );

        stop.store(true, Ordering::Release);
        for holder in holders {
            holder.join().expect("holder thread");
        }
    });
}

#[test]
fn torn_and_malformed_request_lines() {
    each_layout(|layout| {
        let srv = server(layout);

        let mut bad = Client::connect(srv.addr);
        bad.send("NONSENSE\r\n\r\n");
        let resp = bad.read_response();
        assert_eq!(resp.status, 400);
        assert!(bad.read_to_eof().is_empty(), "400 closes the connection");

        let mut version = Client::connect(srv.addr);
        version.send("GET /healthz HTTP/9.9\r\n\r\n");
        assert_eq!(version.read_response().status, 400);

        // A client that dies mid-request-line: nothing to answer.
        let mut torn = Client::connect(srv.addr);
        torn.send("GET /look");
        drop(torn);

        let mut next = Client::connect(srv.addr);
        next.send(&get_req("/healthz", None));
        assert_eq!(next.read_response().status, 200);
    });
}

/// Request-smuggling framings are refused and close (RFC 9112 §6.1,
/// §6.3 and §5.1): differing duplicate `Content-Length` values, a value
/// that is not `1*DIGIT` and whitespace between a field name and its colon
/// are `400`; any `Transfer-Encoding` field is `501`, whatever else the
/// request declares. Each request below hides a second one after a 3-byte
/// body. A parser that framed it as 3 bytes would answer the hidden
/// `/healthz` on the same connection; here it gets exactly one refusal,
/// then EOF.
#[test]
fn smuggling_framings_are_refused_and_close() {
    let smuggled = get_req("/healthz", None);
    let total = 3 + smuggled.len();
    let framings = [
        (
            format!("Content-Length: 3\r\nContent-Length: {total}\r\n"),
            400,
            "bad_request",
        ),
        (
            format!("Content-Length: {total}\r\nContent-Length: 3\r\n"),
            400,
            "bad_request",
        ),
        ("Content-Length: +3\r\n".to_string(), 400, "bad_request"),
        ("Content-Length : 3\r\n".to_string(), 400, "bad_request"),
        (
            "Transfer-Encoding: identity\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n"
                .to_string(),
            501,
            "not_implemented",
        ),
        (
            "Transfer-Encoding: identity\r\nContent-Length: 3\r\n".to_string(),
            501,
            "not_implemented",
        ),
    ];
    each_layout(|layout| {
        let srv = server(layout);
        for (framing, status, label) in &framings {
            let mut c = Client::connect(srv.addr);
            c.send(&format!(
                "POST /normalize HTTP/1.1\r\nHost: loopback\r\nAuthorization: Bearer {}\r\n{framing}\r\nabc{smuggled}",
                srv.token
            ));
            let resp = c.read_response();
            assert_eq!(resp.status, *status, "{framing:?}: {}", resp.body);
            assert!(resp.body.contains(label), "{framing:?}: {}", resp.body);
            assert_eq!(resp.header("Connection"), Some("close"));
            let rest = c.read_to_eof();
            assert!(
                rest.is_empty(),
                "{framing:?}: the hidden request was answered: {}",
                String::from_utf8_lossy(&rest)
            );
        }

        let mut fresh = Client::connect(srv.addr);
        fresh.send(&post_req("/normalize", &srv.token, "the vacc1ne mandate"));
        let resp = fresh.read_response();
        assert_eq!(resp.status, 200, "{}", resp.body);
        srv.finish();
    });
}

/// Declared oversized bodies are refused with `413` (before the body is
/// read), oversized header blocks with `431`.
#[test]
fn size_limits_return_413_and_431() {
    each_layout(|layout| {
        let srv = server(layout);

        let mut big_body = Client::connect(srv.addr);
        big_body.send(&format!(
        "POST /normalize HTTP/1.1\r\nHost: loopback\r\nAuthorization: Bearer {}\r\nContent-Length: 300000\r\n\r\n",
        srv.token
    ));
        let resp = big_body.read_response();
        assert_eq!(resp.status, 413);
        assert!(resp.body.contains("body_too_large"));

        let mut big_head = Client::connect(srv.addr);
        big_head.send(&format!(
            "GET /healthz HTTP/1.1\r\nHost: loopback\r\nX-Padding: {}\r\n\r\n",
            "p".repeat(20_000)
        ));
        assert_eq!(big_head.read_response().status, 431);
    });
}

/// A client dribbling a request slower than the header budget gets
/// `408` and a close; an *idle* keep-alive connection just gets closed,
/// no status.
#[test]
fn slowloris_times_out_with_408() {
    each_layout(|layout| {
        let srv = server_with(
            layout,
            100_000,
            HttpConfig {
                header_timeout_ms: 150,
                ..HttpConfig::default()
            },
        );

        let mut slow = Client::connect(srv.addr);
        slow.send("GET /healthz HTT"); // …and never finishes the line.
        let resp = slow.read_response();
        assert_eq!(resp.status, 408);
        assert!(slow.read_to_eof().is_empty(), "408 closes the connection");

        let mut idle = Client::connect(srv.addr);
        idle.send(&get_req("/healthz", None));
        assert_eq!(idle.read_response().status, 200);
        // Now idle past the budget: silent close, no 408 frame.
        assert!(idle.read_to_eof().is_empty());
    });
}

/// The error→status mapping, end to end: 401/403/404/405/400/504.
#[test]
fn error_statuses_map_the_service_vocabulary() {
    each_layout(|layout| {
        let srv = server(layout);

        let case = |raw: &str| {
            let mut c = Client::connect(srv.addr);
            c.send(raw);
            c.read_response()
        };

        let missing = case(&get_req("/lookup?q=x", None));
        assert_eq!(missing.status, 401);
        assert!(missing.header("WWW-Authenticate").is_some());
        assert!(missing.body.contains("\"error\":\"unauthorized\""));

        let revoked = case(&get_req("/lookup?q=x", Some("cx_bogus_token")));
        assert_eq!(revoked.status, 403, "{}", revoked.body);

        assert_eq!(case(&get_req("/no/such/route", None)).status, 404);

        let wrong_method = case(&get_req("/normalize", Some(&srv.token)));
        assert_eq!(wrong_method.status, 405);
        assert_eq!(wrong_method.header("Allow"), Some("POST"));

        // Service-level validation (k = 9 is out of range) surfaces as 400,
        // same as `service_api`'s InvalidArgument assertion.
        let invalid = case(&get_req("/lookup?q=x&k=9", Some(&srv.token)));
        assert_eq!(invalid.status, 400, "{}", invalid.body);
        assert!(invalid.body.contains("invalid_argument"));

        // A born-expired deadline is deterministic 504 under the frozen
        // simulated clock.
        let expired = case(&get_req(
            "/lookup?q=vaccine&deadline_ms=0",
            Some(&srv.token),
        ));
        assert_eq!(expired.status, 504, "{}", expired.body);
        assert!(expired.body.contains("deadline_exceeded"));
    });
}

/// A query value is decoded to bytes, and bytes that are not UTF-8 are
/// refused with `400` naming the parameter rather than looked up as
/// U+FFFD. A non-UTF-8 body was already refused the same way; an
/// escaped UTF-8 value answers exactly like the same value sent raw, and
/// a parameter no route reads is never decoded.
#[test]
fn a_query_value_that_is_not_utf8_is_refused_naming_its_parameter() {
    each_layout(|layout| {
        let srv = server(layout);
        let mut c = Client::connect(srv.addr);
        for (request, param) in [
            (get_req("/lookup?q=%FF", Some(&srv.token)), "q"),
            (get_req("/lookup?q=x&k=%C3", Some(&srv.token)), "k"),
            (post_req("/perturb?seed=%FF%FE", &srv.token, "hi"), "seed"),
            (
                post_req("/normalize?max_retries=%E9", &srv.token, "hi"),
                "max_retries",
            ),
        ] {
            c.send(&request);
            let resp = c.read_response();
            assert_eq!(resp.status, 400, "{request:?}: {}", resp.body);
            assert!(resp.body.contains("\"error\":\"invalid_argument\""));
            let named = format!(r#"query parameter \"{param}\" is not UTF-8"#);
            assert!(resp.body.contains(&named), "{}", resp.body);
        }

        c.send(&get_req("/lookup?q=d%C3%A9mocrats", Some(&srv.token)));
        let escaped = c.read_response();
        c.send(&get_req("/lookup?q=démocrats", Some(&srv.token)));
        let raw = c.read_response();
        assert_eq!(escaped.status, 200, "{}", escaped.body);
        assert_eq!(escaped.body, raw.body);

        c.send(&get_req("/lookup?q=vaccine&unread=%FF", Some(&srv.token)));
        assert_eq!(c.read_response().status, 200);
    });
}

/// Rate limiting over the wire mirrors `service_api`: a limit of 5
/// admits exactly 5 of 8, refusals carry `Retry-After`, and the budget
/// refills when the window rolls over.
#[test]
fn rate_limit_maps_to_429_with_retry_after() {
    each_layout(|layout| {
        let srv = server_with(layout, 5, HttpConfig::default());

        let shoot = |n: usize| {
            let mut ok = 0;
            let mut limited = 0;
            for _ in 0..n {
                let mut c = Client::connect(srv.addr);
                c.send(&get_req("/lookup?q=vaccine", Some(&srv.token)));
                let resp = c.read_response();
                match resp.status {
                    200 => ok += 1,
                    429 => {
                        let after: u64 = resp
                            .header("Retry-After")
                            .expect("429 carries Retry-After")
                            .parse()
                            .expect("integer seconds");
                        assert!(after >= 1);
                        assert!(resp.body.contains("rate_limited"), "{}", resp.body);
                        limited += 1;
                    }
                    other => panic!("unexpected status {other}"),
                }
            }
            (ok, limited)
        };

        assert_eq!(shoot(8), (5, 3));
        srv.clock.advance(60_001);
        assert_eq!(shoot(2), (2, 0));
    });
}

/// Cache metadata rides the response headers: cold fills carry
/// `Age: 0`, repeats are `hit`, Perturb bypasses with `no-store`, and
/// the generation is pinned on every success.
#[test]
fn cache_metadata_headers() {
    each_layout(|layout| {
        let srv = server(layout);
        let mut c = Client::connect(srv.addr);

        // Each cacheable route: a cold request, then the same one again.
        let requests = [
            get_req("/lookup?q=democrats", Some(&srv.token)),
            post_req("/normalize", &srv.token, "the vacc1ne mandates"),
        ];
        for request in &requests {
            c.send(request);
            let cold = c.read_response();
            assert_eq!(cold.status, 200);
            assert_eq!(cold.header("X-Cryptext-Cache"), Some("cold"));
            assert_eq!(cold.header("Age"), Some("0"));
            assert_eq!(cold.header("Cache-Control"), Some("public, max-age=300"));
            let generation = cold
                .header("X-Cryptext-Generation")
                .expect("generation")
                .to_string();

            c.send(request);
            let hit = c.read_response();
            assert_eq!(hit.status, 200);
            assert_eq!(hit.header("X-Cryptext-Cache"), Some("hit"));
            assert_eq!(hit.header("Age"), None, "hits have unknowable age");
            assert_eq!(
                hit.header("X-Cryptext-Generation"),
                Some(generation.as_str())
            );
            assert_eq!(hit.body, cold.body, "hit serves the leader's exact bytes");
        }

        c.send(&post_req("/perturb?seed=1", &srv.token, "the vaccine"));
        let bypass = c.read_response();
        assert_eq!(bypass.header("X-Cryptext-Cache"), Some("bypass"));
        assert_eq!(bypass.header("Cache-Control"), Some("no-store"));

        let errors = {
            let mut c2 = Client::connect(srv.addr);
            c2.send(&get_req("/lookup?q=x", None));
            c2.read_response()
        };
        assert_eq!(errors.header("Cache-Control"), Some("no-store"));
        assert_eq!(errors.header("X-Cryptext-Cache"), None);
    });
}

/// The SIGTERM-style drain: requests admitted to the gateway when
/// shutdown fires all complete over the wire (zero dropped in-flight
/// responses), the flush hook runs, and the report says quiesced.
#[test]
fn graceful_drain_completes_in_flight_requests() {
    each_layout(|layout| {
        let srv = server(layout);
        let admitted = || {
            let stats = srv.gateway.stats();
            stats.counter_total("cryptext_gateway_admitted_total")
        };
        let base = admitted();
        const CLIENTS: usize = 8;

        let mut workers = Vec::new();
        for i in 0..CLIENTS {
            let addr = srv.addr;
            let token = srv.token.clone();
            workers.push(std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                // Distinct texts: no single-flight coalescing, eight real
                // executions in flight.
                c.send(&post_req(
                    "/normalize",
                    &token,
                    &format!("the vacc1ne mandate number {i}"),
                ));
                c.read_response()
            }));
        }

        // All eight admitted (some may already be executing) — now pull the
        // plug mid-traffic.
        let started = Instant::now();
        while admitted() < base + CLIENTS as u64 {
            assert!(
                started.elapsed() < Duration::from_secs(20),
                "requests never reached the gateway"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let flush_ran = Arc::clone(&srv.flush_ran);
        let report = srv.finish();

        for worker in workers {
            let resp = worker.join().expect("client thread");
            assert_eq!(resp.status, 200, "in-flight request dropped: {}", resp.body);
            assert!(resp.body.contains("\"text\":\"the vaccine mandate number"));
        }
        assert!(report.drain.quiesced, "drain did not quiesce: {report:?}");
        assert!(report.drain.flush_error.is_none());
        assert!(flush_ran.load(Ordering::SeqCst), "flush hook never ran");
        assert!(report.requests_served >= CLIENTS as u64);
    });
}

/// Clean mode: an API response is whole. Armed mode (CI re-runs this
/// exact test under `CRYPTEXT_FAILPOINTS=http.write=torn@1:8`): the
/// response is torn at 8 bytes and the connection dies — but the tear
/// is confined to that connection. Either way the listener keeps
/// serving: health, stats, and fresh connections all answer afterwards.
#[test]
fn torn_write_cannot_poison_the_listener() {
    each_layout(|layout| {
        let srv = server(layout);

        let mut first = Client::connect(srv.addr);
        first.send(&format!(
        "GET /lookup?q=vaccine HTTP/1.1\r\nHost: loopback\r\nAuthorization: Bearer {}\r\nConnection: close\r\n\r\n",
        srv.token
    ));
        let bytes = first.read_to_eof();
        let armed = !String::from_utf8_lossy(&bytes).contains("\r\n\r\n");
        if armed {
            // torn@1:8 — exactly the torn prefix came through, then EOF.
            assert_eq!(bytes.len(), 8, "torn at 8 bytes: {bytes:?}");
            assert!(b"HTTP/1.1 200 OK".starts_with(&bytes[..]));
        } else {
            let text = String::from_utf8_lossy(&bytes);
            assert!(
                text.starts_with("HTTP/1.1 200 OK\r\n"),
                "clean mode: {text}"
            );
            assert!(text.contains("\"hits\":["));
        }

        // The listener is fine: non-API routes never trip the failpoint …
        let mut probe = Client::connect(srv.addr);
        probe.send(&get_req("/healthz", None));
        assert_eq!(probe.read_response().status, 200);
        probe.send(&get_req("/stats", None));
        assert_eq!(probe.read_response().status, 200);

        // … and a second API request on a fresh connection tears again
        // (armed) or succeeds (clean) — its connection's problem alone.
        let mut second = Client::connect(srv.addr);
        second.send(&format!(
        "GET /lookup?q=vaccine HTTP/1.1\r\nHost: loopback\r\nAuthorization: Bearer {}\r\nConnection: close\r\n\r\n",
        srv.token
    ));
        let bytes = second.read_to_eof();
        if armed {
            assert_eq!(bytes.len(), 8);
        } else {
            assert!(String::from_utf8_lossy(&bytes).contains("\"hits\":["));
        }

        let mut after = Client::connect(srv.addr);
        after.send(&get_req("/healthz", None));
        assert_eq!(after.read_response().status, 200, "listener poisoned");
    });
}

/// A minimal Prometheus text-exposition (version 0.0.4) parser: every
/// line must be a comment (`# HELP` / `# TYPE`) or a
/// `name{labels} value` sample; returns the samples keyed by
/// `name{labels}` exactly as rendered.
fn parse_prometheus(body: &str) -> std::collections::HashMap<String, f64> {
    let mut samples = std::collections::HashMap::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            assert!(
                comment.starts_with("HELP ") || comment.starts_with("TYPE "),
                "unexpected comment line: {line:?}"
            );
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample line has no value: {line:?}"));
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable sample value: {line:?}"));
        assert!(
            !series.contains(' '),
            "series name has embedded spaces: {line:?}"
        );
        if let Some((_, labels)) = series.split_once('{') {
            assert!(labels.ends_with('}'), "unbalanced labels: {line:?}");
        }
        let prior = samples.insert(series.to_string(), value);
        assert!(prior.is_none(), "duplicate series {series:?}");
    }
    samples
}

/// `GET /metrics` over a real loopback socket: Prometheus text that a
/// strict line parser accepts, served with `no-store`, and counters
/// that equal the exact request mix this test just drove — the same
/// registry every layer records into, scraped over the wire.
#[test]
fn metrics_endpoint_scrapes_the_live_registry() {
    each_layout(|layout| {
        let srv = server(layout);
        let mut c = Client::connect(srv.addr);

        // A known mix: two OK lookups on one key (cold fill + tier-1 hit)
        // and one unauthorized request that never reaches the gateway.
        c.send(&get_req("/lookup?q=vaccine", Some(&srv.token)));
        assert_eq!(c.read_response().status, 200);
        c.send(&get_req("/lookup?q=vaccine", Some(&srv.token)));
        assert_eq!(c.read_response().status, 200);
        c.send(&get_req("/lookup?q=x", None));
        let denied = c.read_response();
        assert_eq!(denied.status, 401);

        c.send(&get_req("/metrics", None));
        let scrape = c.read_response();
        assert_eq!(scrape.status, 200);
        assert_eq!(scrape.header("Cache-Control"), Some("no-store"));
        assert_eq!(
            scrape.header("Content-Type"),
            Some("text/plain; version=0.0.4")
        );

        let samples = parse_prometheus(&scrape.body);

        // Wire layer: per-status counts match the responses asserted above
        // (the scrape renders before counting itself, so /metrics' own 200
        // is not in its body).
        assert_eq!(
            samples["cryptext_http_responses_total{status=\"200\"}"],
            2.0
        );
        assert_eq!(
            samples["cryptext_http_responses_total{status=\"401\"}"],
            1.0
        );
        assert_eq!(samples["cryptext_http_request_us_count"], 3.0);

        // Gateway layer: only the two authorized lookups were admitted, on
        // free slots (no queue waits on any route).
        assert_eq!(samples["cryptext_gateway_admitted_total"], 2.0);
        assert_eq!(samples["cryptext_gateway_completed_ok_total"], 2.0);
        for route in ["lookup", "normalize", "perturb"] {
            assert_eq!(
                samples[&format!("cryptext_gateway_queue_wait_us_count{{route=\"{route}\"}}")],
                0.0
            );
        }
        assert_eq!(samples["cryptext_gateway_active_now"], 0.0);

        // Cache + engine layers: one cold fill, one tier-1 hit, and the
        // cold execution left stage timings behind.
        assert_eq!(samples["cryptext_cache_misses_total{tier=\"lookup\"}"], 1.0);
        assert_eq!(samples["cryptext_cache_hits_total{tier=\"lookup\"}"], 1.0);
        assert_eq!(samples["cryptext_lookup_encode_us_count"], 1.0);
        assert_eq!(samples["cryptext_lookup_walk_us_count"], 1.0);

        // The wire numbers agree with the in-process registry view (which
        // by now also counted the scrape's own 200).
        let snap = srv.gateway.metrics().snapshot();
        assert_eq!(
            snap.counter_labeled("cryptext_http_responses_total", "status", "200"),
            3
        );
        assert_eq!(snap.counter_total("cryptext_gateway_admitted_total"), 2);
    });
}

/// Flatten a JSON document of nested objects with scalar values into
/// (`dotted.key.path`, raw value) pairs, in document order.
fn flatten_json(body: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut path: Vec<&str> = Vec::new();
    let mut key = None;
    let mut i = 0;
    while i < body.len() {
        match body.as_bytes()[i] {
            b'{' => {
                path.extend(key.take());
                i += 1;
            }
            b'}' => {
                path.pop();
                i += 1;
            }
            b',' => i += 1,
            b'"' => {
                let end = i + 1 + body[i + 1..].find('"').expect("closed key");
                key = Some(&body[i + 1..end]);
                i = end + 2; // past the closing quote and the colon
            }
            _ => {
                let end = i + body[i..].find([',', '}']).expect("value ends");
                let mut dotted = path.clone();
                dotted.push(key.take().expect("value follows a key"));
                out.push((dotted.join("."), body[i..end].to_string()));
                i = end;
            }
        }
    }
    out
}

/// The two operator surfaces agree: every number in `GET /stats` equals
/// its series in a `GET /metrics` scrape taken right after it, with no
/// API traffic in between — the gateway counters and gauges,
/// `queue_waits` as the per-route queue-wait counts summed, and all four
/// cache tiers. The tier-2 store is private to this test, so no other
/// test's traffic can move its counters between the two reads.
#[test]
fn stats_and_metrics_agree_on_every_number() {
    let layout = Layout {
        shared_tier2: false,
    };
    let (mut svc, clock) = service(layout, 100_000);
    let store = SharedCacheStore::new(CacheConfig::default(), Arc::new(clock.clone()));
    svc.attach_tier2(Arc::new(store));
    let srv = serve(svc, clock, HttpConfig::default());
    let mut c = Client::connect(srv.addr);

    // Cold and warm lookups; cold normalizes miss tier-2 and write
    // their candidates behind; the bump flushes the namespace, and the
    // repeat misses and refills.
    let lookup = get_req("/lookup?q=vaccine", Some(&srv.token));
    send_ok(&mut c, &lookup);
    send_ok(&mut c, &lookup);
    for text in ["the vacc1ne mandate", "the demokRATs argue"] {
        send_ok(&mut c, &post_req("/normalize", &srv.token, text));
    }
    srv.gateway.bump_generation();
    send_ok(
        &mut c,
        &post_req("/normalize", &srv.token, "the vacc1ne mandate"),
    );

    let stats = flatten_json(&stats_body(&mut c));
    c.send(&get_req("/metrics", None));
    let samples = parse_prometheus(&c.read_response().body);
    let series = |key: &str| -> f64 {
        match key.split('.').collect::<Vec<_>>()[..] {
            ["gateway", "queue_waits"] => ["lookup", "normalize", "perturb"]
                .iter()
                .map(|r| samples[&format!("cryptext_gateway_queue_wait_us_count{{route=\"{r}\"}}")])
                .sum(),
            ["gateway", gauge @ ("active_now" | "queued_now")] => {
                samples[&format!("cryptext_gateway_{gauge}")]
            }
            ["gateway", counter] => samples[&format!("cryptext_gateway_{counter}_total")],
            ["cache", "generation"] => samples["cryptext_service_generation"],
            ["cache", counter] => samples[&format!("cryptext_cache_{counter}_total")],
            ["cache", tier, event] => {
                samples[&format!("cryptext_cache_{event}_total{{tier=\"{tier}\"}}")]
            }
            _ => panic!("no series for /stats key {key:?}"),
        }
    };
    let mut numbers = 0;
    for (key, value) in &stats {
        match value.as_str() {
            "true" | "false" => continue,
            number => assert_eq!(series(key), number.parse::<f64>().unwrap(), "{key}"),
        }
        numbers += 1;
    }
    assert_eq!(numbers, 40, "every number of the document was compared");
    let flag = |key: &str| {
        stats
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    };
    assert_eq!(flag("cache.tier2_attached"), Some("true"));
    assert_eq!(flag("draining"), Some("false"));
    assert!(samples["cryptext_cache_invalidated_total{tier=\"tier2\"}"] > 0.0);
}

/// HTTP/1.0 defaults to close; `GET /stats` is a complete operator
/// report (gateway + cache tiers + draining) without auth.
#[test]
fn http10_close_default_and_stats_surface() {
    each_layout(|layout| {
        let srv = server(layout);

        let mut old = Client::connect(srv.addr);
        old.send("GET /healthz HTTP/1.0\r\n\r\n");
        let resp = old.read_response();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("Connection"), Some("close"));
        assert!(old.read_to_eof().is_empty(), "1.0 connection closed");

        let mut c = Client::connect(srv.addr);
        c.send(&get_req("/lookup?q=vaccine", Some(&srv.token)));
        assert_eq!(c.read_response().status, 200);
        c.send(&get_req("/stats", None));
        let stats = c.read_response();
        assert_eq!(stats.status, 200);
        for field in [
            "\"gateway\":",
            "\"admitted\":",
            "\"cache\":",
            "\"lookup\":",
            "\"generation\":",
            "\"draining\":false",
        ] {
            assert!(
                stats.body.contains(field),
                "missing {field} in {}",
                stats.body
            );
        }
    });
}

/// One `GET /stats` read on `c`.
fn stats_body(c: &mut Client) -> String {
    c.send(&get_req("/stats", None));
    let resp = c.read_response();
    assert_eq!(resp.status, 200);
    resp.body
}

/// Send one API request on `c` and expect `200`.
fn send_ok(c: &mut Client, raw: &str) {
    c.send(raw);
    let resp = c.read_response();
    assert_eq!(resp.status, 200, "{}", resp.body);
}

/// `GET /stats` byte for byte after each step of a scripted session:
/// cold and warm lookups and normalizes, a negative hit, a tier-2 fill,
/// a generation bump, and a drain that sheds one request. The tier-2
/// store is private to the test, so no other test's traffic moves its
/// counters.
#[test]
fn stats_body_is_pinned_across_a_scripted_session() {
    const FRESH: &str = concat!(
        r#"{"gateway":{"admitted":0,"queue_waits":0,"shed_queue_full":0,"shed_draining":0,"queue_deadline_expired":0,"#,
        r#""executions":0,"retries":0,"completed_ok":0,"failed":0,"deadline_exceeded":0,"#,
        r#""coalesced_followers":0,"promoted_followers":0,"active_now":0,"queued_now":0},"#,
        r#""cache":{"lookup":{"hits":0,"misses":0,"evictions":0,"expirations":0,"inserts":0},"#,
        r#""normalize":{"hits":0,"misses":0,"evictions":0,"expirations":0,"inserts":0},"#,
        r#""normalize_results":{"hits":0,"misses":0,"evictions":0,"expirations":0,"inserts":0},"#,
        r#""negative_hits":0,"generation":0,"invalidation_bumps":0,"invalidated_entries":0,"tier2_attached":true,"#,
        r#""tier2":{"hits":0,"misses":0,"inserts":0,"evictions":0,"expirations":0,"invalidated":0,"put_errors":0}},"#,
        r#""draining":false}"#,
    );
    const COLD_LOOKUP: &str = concat!(
        r#"{"gateway":{"admitted":1,"queue_waits":0,"shed_queue_full":0,"shed_draining":0,"queue_deadline_expired":0,"#,
        r#""executions":1,"retries":0,"completed_ok":1,"failed":0,"deadline_exceeded":0,"#,
        r#""coalesced_followers":0,"promoted_followers":0,"active_now":0,"queued_now":0},"#,
        r#""cache":{"lookup":{"hits":0,"misses":1,"evictions":0,"expirations":0,"inserts":1},"#,
        r#""normalize":{"hits":0,"misses":0,"evictions":0,"expirations":0,"inserts":0},"#,
        r#""normalize_results":{"hits":0,"misses":0,"evictions":0,"expirations":0,"inserts":0},"#,
        r#""negative_hits":0,"generation":0,"invalidation_bumps":0,"invalidated_entries":0,"tier2_attached":true,"#,
        r#""tier2":{"hits":0,"misses":0,"inserts":0,"evictions":0,"expirations":0,"invalidated":0,"put_errors":0}},"#,
        r#""draining":false}"#,
    );
    const WARM_LOOKUP: &str = concat!(
        r#"{"gateway":{"admitted":2,"queue_waits":0,"shed_queue_full":0,"shed_draining":0,"queue_deadline_expired":0,"#,
        r#""executions":2,"retries":0,"completed_ok":2,"failed":0,"deadline_exceeded":0,"#,
        r#""coalesced_followers":0,"promoted_followers":0,"active_now":0,"queued_now":0},"#,
        r#""cache":{"lookup":{"hits":1,"misses":1,"evictions":0,"expirations":0,"inserts":1},"#,
        r#""normalize":{"hits":0,"misses":0,"evictions":0,"expirations":0,"inserts":0},"#,
        r#""normalize_results":{"hits":0,"misses":0,"evictions":0,"expirations":0,"inserts":0},"#,
        r#""negative_hits":0,"generation":0,"invalidation_bumps":0,"invalidated_entries":0,"tier2_attached":true,"#,
        r#""tier2":{"hits":0,"misses":0,"inserts":0,"evictions":0,"expirations":0,"invalidated":0,"put_errors":0}},"#,
        r#""draining":false}"#,
    );
    const COLD_NORMALIZE: &str = concat!(
        r#"{"gateway":{"admitted":3,"queue_waits":0,"shed_queue_full":0,"shed_draining":0,"queue_deadline_expired":0,"#,
        r#""executions":3,"retries":0,"completed_ok":3,"failed":0,"deadline_exceeded":0,"#,
        r#""coalesced_followers":0,"promoted_followers":0,"active_now":0,"queued_now":0},"#,
        r#""cache":{"lookup":{"hits":1,"misses":1,"evictions":0,"expirations":0,"inserts":1},"#,
        r#""normalize":{"hits":0,"misses":1,"evictions":0,"expirations":0,"inserts":1},"#,
        r#""normalize_results":{"hits":0,"misses":1,"evictions":0,"expirations":0,"inserts":1},"#,
        r#""negative_hits":0,"generation":0,"invalidation_bumps":0,"invalidated_entries":0,"tier2_attached":true,"#,
        r#""tier2":{"hits":0,"misses":1,"inserts":1,"evictions":0,"expirations":0,"invalidated":0,"put_errors":0}},"#,
        r#""draining":false}"#,
    );
    const WARM_NORMALIZE: &str = concat!(
        r#"{"gateway":{"admitted":4,"queue_waits":0,"shed_queue_full":0,"shed_draining":0,"queue_deadline_expired":0,"#,
        r#""executions":4,"retries":0,"completed_ok":4,"failed":0,"deadline_exceeded":0,"#,
        r#""coalesced_followers":0,"promoted_followers":0,"active_now":0,"queued_now":0},"#,
        r#""cache":{"lookup":{"hits":1,"misses":1,"evictions":0,"expirations":0,"inserts":1},"#,
        r#""normalize":{"hits":0,"misses":1,"evictions":0,"expirations":0,"inserts":1},"#,
        r#""normalize_results":{"hits":1,"misses":1,"evictions":0,"expirations":0,"inserts":1},"#,
        r#""negative_hits":0,"generation":0,"invalidation_bumps":0,"invalidated_entries":0,"tier2_attached":true,"#,
        r#""tier2":{"hits":0,"misses":1,"inserts":1,"evictions":0,"expirations":0,"invalidated":0,"put_errors":0}},"#,
        r#""draining":false}"#,
    );
    const NEGATIVE_HIT: &str = concat!(
        r#"{"gateway":{"admitted":6,"queue_waits":0,"shed_queue_full":0,"shed_draining":0,"queue_deadline_expired":0,"#,
        r#""executions":6,"retries":0,"completed_ok":6,"failed":0,"deadline_exceeded":0,"#,
        r#""coalesced_followers":0,"promoted_followers":0,"active_now":0,"queued_now":0},"#,
        r#""cache":{"lookup":{"hits":1,"misses":1,"evictions":0,"expirations":0,"inserts":1},"#,
        r#""normalize":{"hits":1,"misses":3,"evictions":0,"expirations":0,"inserts":3},"#,
        r#""normalize_results":{"hits":1,"misses":3,"evictions":0,"expirations":0,"inserts":3},"#,
        r#""negative_hits":1,"generation":0,"invalidation_bumps":0,"invalidated_entries":0,"tier2_attached":true,"#,
        r#""tier2":{"hits":0,"misses":3,"inserts":3,"evictions":0,"expirations":0,"invalidated":0,"put_errors":0}},"#,
        r#""draining":false}"#,
    );
    const BUMPED: &str = concat!(
        r#"{"gateway":{"admitted":6,"queue_waits":0,"shed_queue_full":0,"shed_draining":0,"queue_deadline_expired":0,"#,
        r#""executions":6,"retries":0,"completed_ok":6,"failed":0,"deadline_exceeded":0,"#,
        r#""coalesced_followers":0,"promoted_followers":0,"active_now":0,"queued_now":0},"#,
        r#""cache":{"lookup":{"hits":1,"misses":1,"evictions":0,"expirations":0,"inserts":1},"#,
        r#""normalize":{"hits":1,"misses":3,"evictions":0,"expirations":0,"inserts":3},"#,
        r#""normalize_results":{"hits":1,"misses":3,"evictions":0,"expirations":0,"inserts":3},"#,
        r#""negative_hits":1,"generation":1,"invalidation_bumps":1,"invalidated_entries":10,"tier2_attached":true,"#,
        r#""tier2":{"hits":0,"misses":3,"inserts":3,"evictions":0,"expirations":0,"invalidated":3,"put_errors":0}},"#,
        r#""draining":false}"#,
    );
    const DRAINING: &str = concat!(
        r#"{"gateway":{"admitted":6,"queue_waits":0,"shed_queue_full":0,"shed_draining":1,"queue_deadline_expired":0,"#,
        r#""executions":6,"retries":0,"completed_ok":6,"failed":0,"deadline_exceeded":0,"#,
        r#""coalesced_followers":0,"promoted_followers":0,"active_now":0,"queued_now":0},"#,
        r#""cache":{"lookup":{"hits":1,"misses":1,"evictions":0,"expirations":0,"inserts":1},"#,
        r#""normalize":{"hits":1,"misses":3,"evictions":0,"expirations":0,"inserts":3},"#,
        r#""normalize_results":{"hits":1,"misses":3,"evictions":0,"expirations":0,"inserts":3},"#,
        r#""negative_hits":1,"generation":1,"invalidation_bumps":1,"invalidated_entries":10,"tier2_attached":true,"#,
        r#""tier2":{"hits":0,"misses":3,"inserts":3,"evictions":0,"expirations":0,"invalidated":3,"put_errors":0}},"#,
        r#""draining":true}"#,
    );

    let layout = Layout {
        shared_tier2: false,
    };
    let (mut svc, clock) = service(layout, 100_000);
    let store = SharedCacheStore::new(CacheConfig::default(), Arc::new(clock.clone()));
    svc.attach_tier2(Arc::new(store));
    let srv = serve(svc, clock, HttpConfig::default());
    let mut c = Client::connect(srv.addr);
    assert_eq!(stats_body(&mut c), FRESH);

    let lookup = get_req("/lookup?q=vaccine", Some(&srv.token));
    send_ok(&mut c, &lookup);
    assert_eq!(stats_body(&mut c), COLD_LOOKUP);
    send_ok(&mut c, &lookup);
    assert_eq!(stats_body(&mut c), WARM_LOOKUP);

    // Only the out-of-dictionary `vacc1ne` consults the candidate
    // memo: it misses tier-1 and tier-2, and its candidates are
    // written behind to tier-2. The repeat hits the result cache.
    let normalize = post_req("/normalize", &srv.token, "the vacc1ne mandate");
    send_ok(&mut c, &normalize);
    assert_eq!(stats_body(&mut c), COLD_NORMALIZE);
    send_ok(&mut c, &normalize);
    assert_eq!(stats_body(&mut c), WARM_NORMALIZE);

    // `qzxblorp` has no candidates; the second text finds the
    // cached negative entry.
    send_ok(&mut c, &post_req("/normalize", &srv.token, "qzxblorp said"));
    send_ok(
        &mut c,
        &post_req("/normalize", &srv.token, "then qzxblorp left"),
    );
    assert_eq!(stats_body(&mut c), NEGATIVE_HIT);

    // The bump flushes 7 tier-1 entries (1 lookup, 3 memo, 3 result)
    // and the 3 tier-2 entries of the old namespace.
    srv.gateway.bump_generation();
    assert_eq!(stats_body(&mut c), BUMPED);

    srv.gateway.begin_drain();
    c.send(&lookup);
    assert_eq!(c.read_response().status, 429, "a draining gateway sheds");
    assert_eq!(stats_body(&mut c), DRAINING);
}
