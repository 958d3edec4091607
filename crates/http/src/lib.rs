//! Dependency-free HTTP/1.1 wire layer over the gateway.
//!
//! The paper ships CrypText as an *interactive* toolkit: Look Up,
//! Normalize, and Perturb served to real users over the web. PRs 6 and 8
//! built the traffic-shaping interior — admission control, single-flight
//! coalescing, deadlines, the tiered result cache, graceful drain — and
//! this crate puts the socket in front of it: a thread-per-connection
//! HTTP/1.1 server core on [`std::net::TcpListener`], no async runtime
//! (the gateway runs each request on the thread that calls it, here the
//! connection's own), no external crates.
//!
//! ## Shape
//!
//! * [`wire`] — the byte layer: bounded, timeout-sliced request reading
//!   (keep-alive + pipelining via a carry buffer), request-line/header
//!   parsing, percent-decoding, response serialization.
//! * [`router`] — the route table: an [`wire::HttpRequest`] becomes a
//!   typed [`cryptext_gateway::Request`] (or a stats/health route), with
//!   query-parameter parsing for every knob the paper's GUI exposes.
//! * [`server`] — the lifecycle: nonblocking accept loop, one thread per
//!   accepted connection, and the SIGTERM-style drain path —
//!   [`server::ShutdownHandle::shutdown`] stops accepts, lets in-flight
//!   requests settle, runs [`Gateway::drain_with`] (the durable flush
//!   hook), and only then closes the listener.
//!
//! The request/response vocabulary is the gateway's typed envelope
//! ([`cryptext_gateway::Request`] / [`cryptext_gateway::Response`]) and
//! the error vocabulary is `cryptext_common::Error`'s canonical wire
//! mapping (`status_code()` / `retry_after()`), so the wire layer adds
//! *transport*, never new semantics. The server calls
//! [`Gateway::handle_json`], which returns the body rendered from the
//! tier-1 entry the request was served from, or, for a Look Up tier-1
//! hit, the body kept with that entry: a repeated Look Up is rendered
//! once and its bytes are written from the entry, never copied. See
//! `README.md` for the wire grammar, limits, the full status table, and
//! the drain lifecycle.
//!
//! [`Gateway::drain_with`]: cryptext_gateway::Gateway::drain_with
//! [`Gateway::handle_json`]: cryptext_gateway::Gateway::handle_json

pub mod router;
pub mod server;
pub mod wire;

pub use server::{HttpServer, ServeReport, ShutdownHandle};

/// Wire-level limits and timeouts; `Default` matches the README's
/// documented limits table.
#[derive(Debug, Clone, Copy)]
pub struct HttpConfig {
    /// Bound on the request line + header block, bytes; past it the
    /// request is rejected with `431 Request Header Fields Too Large`.
    pub max_header_bytes: usize,
    /// Bound on `Content-Length`; past it the request is rejected with
    /// `413 Content Too Large` (slowloris can't buy an unbounded body).
    pub max_body_bytes: usize,
    /// Budget for reading one request's header block (and, separately,
    /// its body). A connection that dribbles bytes slower than this gets
    /// `408 Request Timeout` and a close — the slowloris defense.
    pub header_timeout_ms: u64,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            max_header_bytes: 16 * 1024,
            max_body_bytes: 256 * 1024,
            header_timeout_ms: 2_000,
        }
    }
}
