//! `BENCH_http.json`: the HTTP wire dimension — the gateway Look Up mix
//! over a real loopback socket (one keep-alive connection through
//! `cryptext-http`) vs the same gateway call made directly, inline on the
//! calling thread as the HTTP handler makes it, so the difference is the
//! wire tax alone: parse, route, serialize and two kernel crossings.
//! Result shapes (wire hits == direct hits) and the served-request count
//! are deterministic; the latencies are not.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use cryptext_gateway::GatewayConfig;
use cryptext_http::{HttpConfig, HttpServer};

use crate::doc::{Doc, Obj};
use crate::service::{fixture, gateway_hits, GATE_QUERIES};
use crate::{measure, WARMUP_ROUNDS};

/// Rounds of the six-query mix per path.
const HTTP_ROUNDS: usize = 200;

pub fn run() -> Result<Doc, String> {
    let (svc, gw) = fixture(GatewayConfig::default());
    let auth = svc.issue_token("bench-http");

    let server =
        HttpServer::bind(Arc::clone(&gw), HttpConfig::default(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let serve = std::thread::spawn(move || server.serve());
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut conn = BufReader::new(stream);
    let mut wire = |q: &str| http_lookup(&mut conn, auth.as_str(), q);
    measure(&GATE_QUERIES, WARMUP_ROUNDS, &mut wire);
    let wire = measure(&GATE_QUERIES, HTTP_ROUNDS, wire);

    // The direct baseline, timed before the shutdown below drains the
    // gateway.
    let mut direct = |q: &str| gateway_hits(&gw, &auth, q);
    measure(&GATE_QUERIES, WARMUP_ROUNDS, &mut direct);
    let direct = measure(&GATE_QUERIES, HTTP_ROUNDS, direct);
    drop(conn);
    handle.shutdown();
    let requests_served = serve.join().expect("serve thread").requests_served;
    assert_eq!(
        wire.total_hits, direct.total_hits,
        "the wire layer adds transport, not different results"
    );

    // The registry is what a `GET /metrics` scrape renders: its wire-layer
    // totals must equal the served-request count.
    let snap = svc.metrics().snapshot();
    let responses = snap.counter_total("cryptext_http_responses_total");
    let timings = snap.histogram_count("cryptext_http_request_us");
    if (responses, timings) != (requests_served, requests_served) {
        return Err(format!(
            "the registry counts {responses} responses and {timings} request timings, \
             expected the served-request count {requests_served} for both"
        ));
    }

    Ok(Doc::new(
        "http",
        Obj::block()
            .obj(
                "workload",
                Obj::inline()
                    .info("queries", GATE_QUERIES.len())
                    .pin("rounds", HTTP_ROUNDS),
            )
            .obj(
                "paths",
                Obj::block()
                    .obj("wire", wire.block("total_hits"))
                    .obj("direct_gateway", direct.block("total_hits")),
            )
            .obj(
                "wire_overhead",
                Obj::inline()
                    .float("p50_us", wire.p50_us - direct.p50_us, 2)
                    .float("p99_us", wire.p99_us - direct.p99_us, 2),
            )
            .pin("requests_served", requests_served),
    ))
}

/// One Look Up over an open keep-alive connection; returns the hit count
/// parsed out of the JSON body (so the wire path's result shape can be
/// pinned against the direct path's).
fn http_lookup(conn: &mut BufReader<TcpStream>, token: &str, query: &str) -> usize {
    let request = format!(
        "GET /lookup?q={query} HTTP/1.1\r\nHost: bench\r\nAuthorization: Bearer {token}\r\n\r\n"
    );
    conn.get_mut()
        .write_all(request.as_bytes())
        .expect("wire send");
    let mut head = String::new();
    while !head.ends_with("\r\n\r\n") {
        let n = conn.read_line(&mut head).expect("wire read");
        assert!(n > 0, "server closed mid-headers");
    }
    assert!(
        head.starts_with("HTTP/1.1 200"),
        "wire lookup for {query:?} answered {head:?}"
    );
    let content_length = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse().ok())
        .expect("Content-Length");
    let mut body = vec![0; content_length];
    conn.read_exact(&mut body).expect("wire read");
    String::from_utf8(body)
        .expect("UTF-8 body")
        .matches("\"token\":")
        .count()
}
