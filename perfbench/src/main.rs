//! CrypText end-to-end benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//!
//! * `serve_hot` / `serve_cold` — one client thread, one keep-alive
//!   connection, closed loop, against service → gateway → `HttpServer` on
//!   loopback. Hot repeats a small Zipf pool; cold never repeats an input.
//! * `ingest_durable` — crawler-style batches into a `DurableTokenStore`
//!   holding a base DB, periodic compaction, repeated reopens.
//!
//! Every workload reports every end-to-end metric: its primary phase gets
//! 60% of `--seconds`, and a secondary phase (ingest after serving;
//! serving the recovered store after ingest) supplies the rest. The
//! phases never share a timed window.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` replays the
//! streams layer by layer and prints the per-layer metrics, writing every
//! span to `.bench_out/`. The last stdout line is the result object; the
//! line before it carries the run context (host cores, steal, run-queue
//! wait, client CPU).

mod client;
mod gen;
mod ingest;
mod procstat;
mod report;
mod serve;
mod speed;

use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use cryptext::core::database::TokenDatabase;
use cryptext::core::durable::{DurableOptions, DurableTokenStore};
use cryptext::core::CrypText;
use cryptext::lm::NgramLm;

use crate::gen::{cold_stream, hot_stream, Stream};
use crate::ingest::{
    build_base, ingest_figures, matches_reference, reference_db, run_ingest, trace_ingest,
    IngestRun, Workdir,
};
use crate::report::{median, result_line, Context, Metrics, Tally};
use crate::serve::{
    cold_guard, fixture_system, hot_guard, serve_figures, trace_serve, Span, Stack,
};
use crate::speed::Probe;

/// Where spans and scratch stores go, relative to the working directory.
pub const OUT_DIR: &str = ".bench_out";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Share of `--seconds` given to the workload's primary phase.
const PRIMARY_SHARE: f64 = 0.6;
/// Measured requests generated per serve stream (the window ends first).
const HOT_REQUESTS: usize = 600_000;
const COLD_WARMUP: usize = 40_000;
const COLD_REQUESTS: usize = 300_000;
/// Measured requests replayed per layer in a traced run.
const TRACE_HOT: usize = 40_000;
const TRACE_COLD: usize = 15_000;
const TRACE_SECONDARY: usize = 10_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeHot,
    ServeCold,
    IngestDurable,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "serve_hot" => Workload::ServeHot,
                    "serve_cold" => Workload::ServeCold,
                    "ingest_durable" => Workload::IngestDurable,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Median of `SETUP_REPS` set-ups, each scaled by speed probes run
/// around it, keeping the last one.
fn timed_setup<T>(mut setup: impl FnMut() -> std::io::Result<T>) -> std::io::Result<(f64, T)> {
    let mut probe = Probe::start()?;
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (built, s) = probe.timed(&mut setup);
        last = Some(built?);
        secs.push(s);
    }
    Ok((median(&secs), last.expect("at least one set-up")))
}

fn io_err(e: cryptext::common::Error) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

fn serve_stream(workload: Workload, seed: u64) -> Stream {
    match workload {
        Workload::ServeCold => cold_stream(seed, COLD_WARMUP, COLD_REQUESTS),
        _ => hot_stream(serve::FIXTURE_FEED_SEED, seed, HOT_REQUESTS),
    }
}

/// The serving stack over the store an ingest run recovered, with the LM
/// trained on the reference's clean sentences (snapshots do not keep
/// them).
fn recovered_system(
    dir: &Path,
    sentences: &[String],
) -> CrypText<DurableTokenStore<TokenDatabase>> {
    let store =
        DurableTokenStore::open(dir, DurableOptions::default()).expect("reopen the ingested store");
    CrypText::with_lm(store, NgramLm::train(sentences.iter().map(String::as_str)))
}

/// Serve `stream` over HTTP on `stack` for `window`, check every answer,
/// and return the window's figures.
fn serve_phase<S: serve::Reference>(
    stack: &Stack<S>,
    stream: &Stream,
    window: Duration,
    guard: fn(&serve::HttpRun) -> bool,
    ctx: &mut Context,
    tally: &mut Tally,
) -> serve::ServeFigures {
    let run = serve::run_http(stack, stream, &stream.reqs, Some(window), None);
    serve::check_run(stack, &run, stream, tally);
    tally.wrong += u64::from(!guard(&run));
    serve_figures(&run, ctx)
}

/// Stream an ingest phase into a copy of a fresh base store and check the
/// last cycle's reopened store against the in-memory reference.
fn ingest_phase(seed: u64, budget: Duration, tally: &mut Tally) -> std::io::Result<IngestRun> {
    let (base, work) = (Workdir::new("base"), Workdir::new("work"));
    build_base(&base.0).map_err(io_err)?;
    let ing = run_ingest(&base.0, &work.0, seed, budget);
    let reference = reference_db(&ing);
    tally.add(ing.tally);
    tally.wrong += u64::from(!matches_reference(&ing, &reference));
    Ok(ing)
}

/// End-to-end figures of one run, in `BENCHMARK.json` order.
struct Figures {
    setup_s: f64,
    serve: serve::ServeFigures,
    ingest: ingest::IngestFigures,
}

fn end_to_end(args: &Args, ctx: &mut Context, tally: &mut Tally) -> std::io::Result<Figures> {
    let primary = Duration::from_secs_f64(args.seconds * PRIMARY_SHARE);
    let secondary = Duration::from_secs_f64(args.seconds * (1.0 - PRIMARY_SHARE));
    match args.workload {
        Workload::ServeHot | Workload::ServeCold => {
            // Scoped so the stack, stream and samples are freed before
            // ingest starts.
            let (setup_s, serve) = {
                let (setup_s, stack) = timed_setup(|| Stack::up(fixture_system(), true))?;
                let stream = serve_stream(args.workload, args.seed);
                let guard = if args.workload == Workload::ServeCold {
                    cold_guard
                } else {
                    hot_guard
                };
                let serve = serve_phase(&stack, &stream, primary, guard, ctx, tally);
                drop(stack);
                (setup_s, serve)
            };
            let ing = ingest_phase(args.seed, secondary, tally)?;
            Ok(Figures {
                setup_s,
                serve,
                ingest: ingest_figures(&ing, ctx),
            })
        }
        Workload::IngestDurable => {
            let (base, work) = (Workdir::new("base"), Workdir::new("work"));
            let (setup_s, _) = timed_setup(|| build_base(&base.0).map_err(io_err))?;
            let mut ing = run_ingest(&base.0, &work.0, args.seed, primary);
            let reference = reference_db(&ing);
            tally.add(ing.tally);
            tally.wrong += u64::from(!matches_reference(&ing, &reference));
            let ingest = ingest_figures(&ing, ctx);

            let store = ing
                .store
                .take()
                .ok_or_else(|| std::io::Error::other("no reopened store"))?;
            let lm = NgramLm::train(reference.clean_sentences().iter().map(String::as_str));
            let stack = Stack::up(CrypText::with_lm(store, lm), true)?;
            let stream = hot_stream(ingest::BASE_FEED_SEED, args.seed, HOT_REQUESTS);
            let serve = serve_phase(&stack, &stream, secondary, hot_guard, ctx, tally);
            drop(stack);
            Ok(Figures {
                setup_s,
                serve,
                ingest,
            })
        }
    }
}

fn traced(
    args: &Args,
    spans: &mut Vec<Span>,
    m: &mut Metrics,
    tally: &mut Tally,
) -> std::io::Result<()> {
    let primary = Duration::from_secs_f64(args.seconds * PRIMARY_SHARE);
    let secondary = Duration::from_secs_f64(args.seconds * (1.0 - PRIMARY_SHARE));
    let budget = if args.workload == Workload::IngestDurable {
        primary
    } else {
        let stream = Arc::new(serve_stream(args.workload, args.seed));
        let seg = if args.workload == Workload::ServeCold {
            TRACE_COLD
        } else {
            TRACE_HOT
        };
        trace_serve(&fixture_system, &stream, seg, spans, m, tally)?;
        secondary
    };
    let (base, work, scratch) = (
        Workdir::new("base"),
        Workdir::new("work"),
        Workdir::new("persist"),
    );
    let base_epoch = build_base(&base.0).map_err(io_err)?;
    let mut ing = run_ingest(&base.0, &work.0, args.seed, budget);
    let reference = reference_db(&ing);
    tally.add(ing.tally);
    tally.wrong += u64::from(!matches_reference(&ing, &reference));
    ing.store = None;
    trace_ingest(&ing, &base.0, base_epoch, &work.0, &scratch.0, m).map_err(io_err)?;
    if args.workload == Workload::IngestDurable {
        let sentences = reference.clean_sentences().to_vec();
        let stream = Arc::new(hot_stream(
            ingest::BASE_FEED_SEED,
            args.seed,
            TRACE_SECONDARY,
        ));
        trace_serve(
            &|| recovered_system(&work.0, &sentences),
            &stream,
            TRACE_SECONDARY,
            spans,
            m,
            tally,
        )?;
    }
    Ok(())
}

fn write_spans(args: &Args, spans: &[Span]) -> std::io::Result<()> {
    let path = Path::new(OUT_DIR).join(format!("spans-{:?}-{}.csv", args.workload, args.seed));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "request,layer,route,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{}",
            s.request,
            s.layer.name(),
            s.route.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload serve_hot|serve_cold|ingest_durable --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        std::process::exit(1);
    }
    let mut ctx = Context::default();
    ctx.put("seed", args.seed as f64);
    ctx.put("seconds", args.seconds);
    ctx.put("nproc", procstat::nproc() as f64);
    // One CPU for the whole run: the closed loop keeps only one of client
    // and server runnable at a time, and split across two vCPUs every
    // request pays two cross-CPU wake-ups whose cost moved run medians by
    // ~40% depending on where the scheduler put the threads.
    match procstat::pin_to_first_cpu() {
        Ok(cpu) => ctx.put("pinned_cpu", cpu as f64),
        Err(e) => {
            eprintln!("perfbench: cannot pin to one CPU: {e}");
            std::process::exit(1);
        }
    }
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let outcome = if args.trace {
        let mut spans = Vec::new();
        traced(&args, &mut spans, &mut m, &mut tally).and_then(|()| {
            ctx.put("spans", spans.len() as f64);
            write_spans(&args, &spans)
        })
    } else {
        end_to_end(&args, &mut ctx, &mut tally).map(|f| {
            m.put("setup_s", f.setup_s, "s");
            m.put("peak_rss_mb", procstat::peak_rss_mb(), "MB");
            m.put("lookup_p50_us", f.serve.p50_us[0], "us");
            m.put("normalize_p50_us", f.serve.p50_us[1], "us");
            m.put("perturb_p50_us", f.serve.p50_us[2], "us");
            m.put("p99_us", f.serve.p99_us, "us");
            m.put("requests_per_s", f.serve.requests_per_s, "1/s");
            m.put("ingest_posts_per_s", f.ingest.posts_per_s, "1/s");
            m.put("ingest_batch_p50_us", f.ingest.batch_p50_us, "us");
            m.put("compact_ms", f.ingest.compact_ms, "ms");
            m.put("recovery_ms", f.ingest.recovery_ms, "ms");
        })
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    println!("{}", ctx.to_json(&format!("{:?}", args.workload)));
    println!("{}", result_line(tally, &m));
    if !tally.correct() {
        std::process::exit(1);
    }
}
