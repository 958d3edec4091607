//! A minimal HTTP/1.1 keep-alive client: one connection, one request in
//! flight (closed loop), `Content-Length` framing only — the subset the
//! server speaks.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::gen::{Route, PERTURB_RATIO};

pub struct Client {
    stream: TcpStream,
    token: String,
    request: Vec<u8>,
    buf: Vec<u8>,
    /// Bytes of `buf` that belong to the last response.
    consumed: usize,
}

/// One parsed response: status and the body, borrowed from the client.
pub struct Reply<'a> {
    pub status: u16,
    pub body: &'a [u8],
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Percent-encode everything outside the URL-safe unreserved set (`+`
/// included, which the server would read as a space).
fn push_query_value(out: &mut Vec<u8>, value: &str) {
    for &b in value.as_bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~') {
            out.push(b);
        } else {
            out.extend_from_slice(format!("%{b:02X}").as_bytes());
        }
    }
}

impl Client {
    pub fn connect(addr: SocketAddr, token: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A wedged server fails the run instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client {
            stream,
            token: token.to_string(),
            request: Vec::with_capacity(1024),
            buf: Vec::with_capacity(64 * 1024),
            consumed: 0,
        })
    }

    fn encode(&mut self, route: Route, input: &str, seed: u64) {
        let r = &mut self.request;
        r.clear();
        match route {
            Route::Lookup => {
                r.extend_from_slice(b"GET /lookup?q=");
                push_query_value(r, input);
                r.extend_from_slice(b" HTTP/1.1\r\n");
            }
            Route::Normalize => r.extend_from_slice(b"POST /normalize HTTP/1.1\r\n"),
            Route::Perturb => r.extend_from_slice(
                format!("POST /perturb?ratio={PERTURB_RATIO}&seed={seed} HTTP/1.1\r\n").as_bytes(),
            ),
        }
        r.extend_from_slice(b"Host: bench\r\nAuthorization: Bearer ");
        r.extend_from_slice(self.token.as_bytes());
        r.extend_from_slice(b"\r\n");
        if route != Route::Lookup {
            r.extend_from_slice(format!("Content-Length: {}\r\n\r\n", input.len()).as_bytes());
            r.extend_from_slice(input.as_bytes());
        } else {
            r.extend_from_slice(b"\r\n");
        }
    }

    /// Send one request and read its whole response.
    pub fn call(&mut self, route: Route, input: &str, seed: u64) -> io::Result<Reply<'_>> {
        self.encode(route, input, seed);
        self.stream.write_all(&self.request)?;
        self.buf.drain(..self.consumed);
        self.consumed = 0;
        let (status, body_start, body_len) = loop {
            if let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&self.buf[..head_end])
                    .map_err(|_| invalid("non-UTF-8 response head"))?;
                let status = head
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| invalid("bad status line"))?;
                let len = head
                    .split("\r\n")
                    .find_map(|line| {
                        let (name, value) = line.split_once(':')?;
                        name.eq_ignore_ascii_case("content-length")
                            .then(|| value.trim().parse::<usize>().ok())?
                    })
                    .ok_or_else(|| invalid("missing Content-Length"))?;
                break (status, head_end + 4, len);
            }
            self.fill()?;
        };
        while self.buf.len() < body_start + body_len {
            self.fill()?;
        }
        self.consumed = body_start + body_len;
        Ok(Reply {
            status,
            body: &self.buf[body_start..self.consumed],
        })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_values_escape_reserved_and_non_ascii_bytes() {
        let mut out = Vec::new();
        push_query_value(&mut out, "a+b s*é");
        assert_eq!(out, b"a%2Bb%20s%2A%C3%A9");
    }
}
