//! Integration: heap allocations per served request, counted by a
//! counting global allocator over a real loopback connection.
//!
//! A served request should allocate only what it keeps. The wire layer
//! parses in place into buffers the connection recycles, renders each
//! response head into a reused buffer, and an unarmed failpoint counts
//! its hit without building keys. What stays per request is what the
//! typed gateway request owns (its input text and the `ApiToken`), the
//! single-flight entry that coalesces duplicates, and, for Perturbation,
//! the outcome and its rendered body. The ceilings below pin that.
//!
//! The client loop allocates nothing: its request bytes are built before
//! counting starts and its responses are read into one reused buffer, so
//! every counted allocation is the server's. This file holds one test,
//! so no other test thread allocates while it counts. Like the other
//! suites that build a service, it runs once per layout in
//! `common::LAYOUTS`.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use common::{each_layout, service};
use cryptext::gateway::{Gateway, GatewayConfig};
use cryptext::http::{HttpConfig, HttpServer};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter is a
// relaxed atomic add, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Requests served before counting starts: the first fills tier-1, and
/// the rest let every recycled buffer reach its working size.
const WARM_UP: u64 = 20;

/// Requests counted per route.
const COUNTED: u64 = 200;

/// Send `request` and read one whole response into `buf`, without
/// allocating; panics unless its status is 200. Returns the response.
fn round_trip<'b>(stream: &mut TcpStream, request: &[u8], buf: &'b mut [u8]) -> &'b [u8] {
    stream.write_all(request).expect("send");
    let mut len = 0;
    let mut total = None;
    loop {
        let n = stream.read(&mut buf[len..]).expect("receive");
        assert!(n > 0, "the server closed the connection");
        len += n;
        if total.is_none() {
            if let Some(head_end) = buf[..len].windows(4).position(|w| w == b"\r\n\r\n") {
                total = Some(head_end + 4 + content_length(&buf[..head_end]));
            }
        }
        if total.is_some_and(|total| len >= total) {
            break;
        }
    }
    assert!(buf.starts_with(b"HTTP/1.1 200 OK\r\n"));
    &buf[..len]
}

/// The `Content-Length` value in a response head.
fn content_length(head: &[u8]) -> usize {
    const NAME: &[u8] = b"\r\nContent-Length: ";
    let at = head
        .windows(NAME.len())
        .position(|w| w == NAME)
        .expect("Content-Length")
        + NAME.len();
    head[at..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .fold(0, |n, b| n * 10 + usize::from(b - b'0'))
}

/// Heap allocations per request while `request` is served `COUNTED`
/// times over `stream`, after `WARM_UP` uncounted ones. Every counted
/// response must hold `expect`.
fn allocations_per_request(stream: &mut TcpStream, request: &[u8], expect: &[u8]) -> f64 {
    let mut buf = vec![0u8; 1 << 20];
    for _ in 0..WARM_UP {
        round_trip(stream, request, &mut buf);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..COUNTED {
        let response = round_trip(stream, request, &mut buf);
        assert!(response.windows(expect.len()).any(|w| w == expect));
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    (after - before) as f64 / COUNTED as f64
}

#[test]
fn a_served_request_allocates_only_what_it_keeps() {
    each_layout(|layout| {
        let (svc, _clock) = service(layout, 1_000_000);
        let svc = Arc::new(svc);
        let token = svc.issue_token("allocations").as_str().to_string();
        let gateway = Arc::new(Gateway::new(svc, GatewayConfig::default()));
        let server = HttpServer::bind(gateway, HttpConfig::default(), "127.0.0.1:0").expect("bind");
        let addr = server.local_addr().expect("local addr");
        let handle = server.handle();
        let serving = std::thread::spawn(move || server.serve());

        let post = |path: &str, body: &str| {
            format!(
                "POST {path} HTTP/1.1\r\nHost: test\r\nAuthorization: Bearer {token}\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        };
        let lookup = format!(
            "GET /lookup?q=vacc1ne HTTP/1.1\r\nHost: test\r\n\
             Authorization: Bearer {token}\r\n\r\n"
        )
        .into_bytes();
        let normalize = post("/normalize", "teh vacc1ne is safe for democrats");
        let perturb = post(
            "/perturb?ratio=0.25&seed=7",
            "the vaccine is safe for democrats",
        );

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        // What stays: the gateway request's input and `ApiToken` and the
        // single-flight entry; Perturbation also builds its outcome and
        // renders its body. Before the wire layer parsed in place these
        // read 26, 25 and 40.
        for (route, request, expect, ceiling) in [
            ("lookup", &lookup, &b"X-Cryptext-Cache: hit"[..], 4.0),
            ("normalize", &normalize, &b"X-Cryptext-Cache: hit"[..], 5.0),
            ("perturb", &perturb, &b"X-Cryptext-Cache: bypass"[..], 12.0),
        ] {
            let per_request = allocations_per_request(&mut stream, request, expect);
            eprintln!("{route}: {per_request:.2} allocations per served request");
            assert!(
                per_request <= ceiling,
                "{route}: {per_request:.2} allocations per served request, ceiling {ceiling}"
            );
        }

        drop(stream);
        handle.shutdown();
        serving.join().expect("serve thread");
    });
}
