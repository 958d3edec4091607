//! Host speed probe: a fixed piece of work, owned by the benchmark and
//! independent of the program under test, run between measured
//! operations on the same CPU.
//!
//! The 2-vCPU host this benchmark was tuned on runs in phases: the same
//! loop ran at anything from 0.5× to 1× its best pace, in stretches
//! lasting seconds, with no steal charged, and one run's medians moved by
//! up to 50% against another's. Every timing the benchmark gates is
//! therefore scaled by [`factor`] of the probes taken next to it: it
//! reads as the time the operation would have taken on a host running
//! the probe in [`REFERENCE_NS`]. A change to the program moves the
//! scaled figures exactly as it moves the raw ones, since the probe runs
//! none of its code.
//!
//! The program's times swing more than the probe's: across slices and
//! runs, log time rose 1.25–1.5× as fast as log probe time for every
//! serving and ingest figure (its working set is far larger than the
//! probe's), so the factor carries the exponent [`SENSITIVITY`]. With it,
//! the run-to-run spread of the scaled medians fell from up to 20% (plain
//! ratio) to under 10%.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::thread::JoinHandle;
use std::time::Instant;

use crate::report::median;

/// Probe time on the reference host (2 vCPUs at their usual pace).
pub const REFERENCE_NS: f64 = 200_000.0;
/// How much faster the program's log times move than the probe's.
pub const SENSITIVITY: f64 = 1.4;

/// Words in the compute part's working set (32 KiB, cache-resident).
const WORDS: usize = 4096;
/// Dependent steps of the compute part.
const STEPS: usize = 20_000;
/// Round trips of the hand-off part.
const ROUND_TRIPS: usize = 8;
/// Bytes per hand-off message, about a small request.
const MESSAGE: usize = 256;

/// One probe run.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// µs after the probe's origin when it ran.
    pub at_us: u32,
    pub ns: u64,
}

/// The scale factor for timings taken next to `readings`: the reference
/// probe time over their median, raised to [`SENSITIVITY`], so raw ×
/// factor reads at reference speed (and a rate divides by it).
pub fn factor(readings: &[Reading]) -> f64 {
    let ns: Vec<f64> = readings.iter().map(|r| r.ns as f64).collect();
    let m = median(&ns);
    if m > 0.0 {
        (REFERENCE_NS / m).powf(SENSITIVITY)
    } else {
        1.0
    }
}

pub struct Probe {
    words: Vec<u64>,
    text: String,
    peer: UnixStream,
    echo: Option<JoinHandle<()>>,
    message: [u8; MESSAGE],
    origin: Instant,
    pub readings: Vec<Reading>,
}

impl Probe {
    /// A probe whose echo thread starts now. It inherits the calling
    /// thread's CPU affinity, so a round trip pays the same thread
    /// hand-offs a loopback request does.
    pub fn start() -> std::io::Result<Self> {
        let (peer, mut far) = UnixStream::pair()?;
        let echo = std::thread::spawn(move || {
            let mut buf = [0u8; MESSAGE];
            while far.read_exact(&mut buf).is_ok() {
                if far.write_all(&buf).is_err() {
                    break;
                }
            }
        });
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let words = (0..WORDS)
            .map(|_| {
                state = splitmix(state);
                state
            })
            .collect();
        Ok(Probe {
            words,
            text: String::with_capacity(8 * 1024),
            peer,
            echo: Some(echo),
            message: [7; MESSAGE],
            origin: Instant::now(),
            readings: Vec::new(),
        })
    }

    /// Drop the readings; later ones count from `origin`.
    pub fn reset(&mut self, origin: Instant) {
        self.origin = origin;
        self.readings.clear();
    }

    /// Run `op` between two probes; return its result and its time in
    /// seconds, scaled to reference speed.
    pub fn timed<T>(&mut self, op: impl FnOnce() -> T) -> (T, f64) {
        self.reset(Instant::now());
        self.run();
        let t0 = Instant::now();
        let out = op();
        let secs = t0.elapsed().as_secs_f64();
        self.run();
        (out, secs * factor(&self.readings))
    }

    /// Run the fixed work once and record its time.
    pub fn run(&mut self) {
        let t0 = Instant::now();
        // Dependent hashing over a cache-resident table, formatting
        // numbers into a string as a JSON encoder would.
        let mut x = self.words[0];
        self.text.clear();
        for step in 0..STEPS {
            let i = (x as usize) % WORDS;
            x = splitmix(x ^ self.words[i]);
            self.words[i] = x;
            if step % 64 == 0 {
                use std::fmt::Write as _;
                let _ = write!(self.text, "{},", x >> 40);
            }
        }
        std::hint::black_box((&self.text, x));
        // Thread hand-offs over a socket, as a request's are.
        for _ in 0..ROUND_TRIPS {
            let ok = self.peer.write_all(&self.message).is_ok()
                && self.peer.read_exact(&mut self.message).is_ok();
            assert!(ok, "speed probe echo thread is gone");
        }
        let ns = t0.elapsed().as_nanos() as u64;
        self.readings.push(Reading {
            at_us: t0.saturating_duration_since(self.origin).as_micros() as u32,
            ns,
        });
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        let _ = self.peer.shutdown(std::net::Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
