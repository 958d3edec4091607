//! Minimal data-parallel helpers over a persistent worker pool.
//!
//! The database parallelizes the prepare step of a batch ingest; a
//! work-stealing runtime (rayon) is not available in this environment, so
//! this module provides the primitives that path needs. Outputs are
//! returned **in input order**, so parallel callers observe exactly the
//! sequential results.
//!
//! # The pool
//!
//! Workers are **persistent**: a process-wide pool starts lazily on the
//! first parallel call, grows on demand up to the current [`max_threads`]
//! reading (so `CRYPTEXT_THREADS` works even when it changes between
//! calls), and parks idle workers on a shared job channel. Without the
//! variable, the reading is the host's parallelism, taken once at first
//! use (a later affinity or CPU-quota change is not observed). A dispatch
//! is one channel send, not a thread spawn, so batches as small as two
//! items can fan out profitably.
//!
//! The calling thread always participates as the last worker, and work is
//! handed out from a shared atomic cursor, so a call makes progress even
//! when every pool worker is busy with someone else's batch. Calls made
//! *from inside* a pool worker (nested parallelism) run sequentially rather
//! than risk waiting on their own queue slot.
//!
//! # Safety model
//!
//! Helper jobs reach into the caller's stack (the input slice, the mapping
//! closure, the result buffers) through a raw task pointer, guarded by a
//! revocable `Gate`: a helper may only dereference the pointer between a
//! successful `enter()` and the matching `exit()`, and [`par_map`] closes
//! the gate — waiting for any helper currently inside — before its frame
//! dies, panic or not (the worker loop never unwinds; panics are parked in
//! the task and re-raised by the caller). A helper that is still queued
//! behind some other batch when the gate closes becomes a no-op, so a
//! small call's latency is bounded by its own work, never by unrelated
//! batches ahead of it in the job queue.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Upper bound on worker threads, respecting `CRYPTEXT_THREADS` when set.
///
/// The variable is read on every call, so a change between calls takes
/// effect. The host's reading (`available_parallelism`, which on Linux
/// reads the cgroup CPU quota and costs tens of microseconds) is taken
/// once, at first use: a later affinity or quota change is not observed.
pub fn max_threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    if let Ok(v) = std::env::var("CRYPTEXT_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// Below this batch size even a pool dispatch (a channel send plus a latch
/// wait, single-digit microseconds) is not worth it. With persistent
/// workers this is only a guard against degenerate 0/1-item inputs, not
/// the old 16-item spawn-cost threshold.
const MIN_PARALLEL_ITEMS: usize = 2;

/// Hard cap on pool threads, guarding against absurd `CRYPTEXT_THREADS`
/// values. The pool never shrinks; workers park on the job channel.
const MAX_POOL_WORKERS: usize = 256;

/// A type-erased unit of work shipped to a pool worker.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The process-wide worker pool: a shared MPMC-by-mutex job channel plus
/// two worker counters. `reserved` bounds growth (a slot is taken before
/// attempting a spawn); `live` counts only workers whose OS thread was
/// actually created, and is what callers size their dispatches by — so a
/// failed spawn can never make a caller submit a job no worker will take.
struct Pool {
    sender: Mutex<Sender<Job>>,
    receiver: Arc<Mutex<Receiver<Job>>>,
    reserved: AtomicUsize,
    live: AtomicUsize,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let (sender, receiver) = channel::<Job>();
        Pool {
            sender: Mutex::new(sender),
            receiver: Arc::new(Mutex::new(receiver)),
            reserved: AtomicUsize::new(0),
            live: AtomicUsize::new(0),
        }
    })
}

thread_local! {
    /// True on pool worker threads. A nested [`par_map`] from inside a
    /// worker runs sequentially: dispatching to the pool from the pool can
    /// deadlock when every worker is already occupied by the ancestors of
    /// the nested call.
    static IS_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

impl Pool {
    /// Grow the pool to at least `want` workers (capped); returns how many
    /// workers exist afterwards — counting only workers whose thread was
    /// actually created. If the OS refuses a thread (resource exhaustion),
    /// the reservation is released and callers proceed with the live
    /// workers; a concurrent caller observing the transient reservation
    /// still sizes its dispatch by `live`, so no job is ever submitted
    /// that no worker will take.
    fn ensure_workers(&'static self, want: usize) -> usize {
        let want = want.min(MAX_POOL_WORKERS);
        loop {
            let have = self.reserved.load(Ordering::Acquire);
            if have >= want {
                return self.live.load(Ordering::Acquire);
            }
            if self
                .reserved
                .compare_exchange(have, have + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue;
            }
            let receiver = Arc::clone(&self.receiver);
            let spawned = std::thread::Builder::new()
                .name(format!("cryptext-pool-{have}"))
                .spawn(move || {
                    IS_POOL_WORKER.with(|f| f.set(true));
                    loop {
                        // Take the job out before running it so the channel
                        // lock is never held across user code.
                        let job = match receiver.lock() {
                            Ok(guard) => guard.recv(),
                            Err(_) => break,
                        };
                        match job {
                            Ok(job) => job(),
                            Err(_) => break, // channel closed: process exit
                        }
                    }
                });
            match spawned {
                Ok(_) => {
                    self.live.fetch_add(1, Ordering::AcqRel);
                }
                Err(_) => {
                    // Release the reservation and serve with what we have.
                    self.reserved.fetch_sub(1, Ordering::AcqRel);
                    return self.live.load(Ordering::Acquire);
                }
            }
        }
    }

    fn submit(&self, job: Job) {
        self.sender
            .lock()
            .expect("pool sender lock")
            .send(job)
            .expect("pool job channel open");
    }
}

/// The revocable handshake between one [`par_map`] call and its queued
/// helper jobs. Helpers `enter()` before touching the caller's task and
/// `exit()` after; the caller `close_and_wait()`s when its items are done,
/// which flips the gate shut and waits **only for helpers currently
/// inside** — a helper still queued behind some other batch finds the gate
/// closed when it finally runs and returns without ever dereferencing the
/// (by then dead) task pointer. Small calls therefore never wait for
/// unrelated long batches ahead of them in the job queue.
#[derive(Default)]
struct Gate {
    state: Mutex<GateState>,
    idle: Condvar,
}

#[derive(Default)]
struct GateState {
    closed: bool,
    active: usize,
}

impl Gate {
    /// Try to start working on the gated task; `false` once closed.
    fn enter(&self) -> bool {
        let mut s = self.state.lock().expect("gate lock");
        if s.closed {
            return false;
        }
        s.active += 1;
        true
    }

    fn exit(&self) {
        let mut s = self.state.lock().expect("gate lock");
        s.active -= 1;
        if s.active == 0 {
            self.idle.notify_all();
        }
    }

    /// Shut the gate and wait for every helper currently inside to leave.
    fn close_and_wait(&self) {
        let mut s = self.state.lock().expect("gate lock");
        s.closed = true;
        while s.active > 0 {
            s = self.idle.wait(s).expect("gate wait");
        }
    }
}

/// Shared state of one in-flight parallel map: the input slice, the
/// mapping closure, the claim cursor, and the merged tagged results.
struct MapTask<'a, T, R, F> {
    items: &'a [T],
    f: &'a F,
    batch: usize,
    cursor: AtomicUsize,
    results: Mutex<Vec<(usize, R)>>,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl<T, R, F> MapTask<'_, T, R, F>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    /// Claim batches off the cursor until the input is exhausted. Panics in
    /// the closure are captured (first one wins) rather than unwinding
    /// through the pool, and re-raised by the caller.
    fn run_worker(&self) {
        let n = self.items.len();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut local: Vec<(usize, R)> = Vec::new();
            loop {
                let start = self.cursor.fetch_add(self.batch, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + self.batch).min(n);
                for (i, item) in self.items[start..end].iter().enumerate() {
                    local.push((start + i, (self.f)(item)));
                }
            }
            local
        }));
        match outcome {
            Ok(local) => self.results.lock().expect("results lock").extend(local),
            Err(payload) => {
                let mut slot = self.panic.lock().expect("panic lock");
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
        }
    }
}

/// Map `f` over `items` in parallel, preserving input order in the output.
///
/// Work is handed out in small batches from a shared atomic cursor, so
/// skewed per-item costs (one giant bucket among thousands of small ones)
/// still balance across workers. Falls back to a sequential map for
/// singleton inputs, single-core hosts (`CRYPTEXT_THREADS=1` included),
/// and nested calls from inside a pool worker. Panics in `f` propagate to
/// the caller with their original payload.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    // The size check comes first: `max_threads` reads the environment,
    // which costs more than mapping one item.
    if items.len() < MIN_PARALLEL_ITEMS || IS_POOL_WORKER.with(|flag| flag.get()) {
        return items.iter().map(f).collect();
    }
    let workers = max_threads().min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    par_map_pooled(items, workers, f)
}

/// The pool-dispatch branch of [`par_map`], with an explicit worker count
/// so tests exercise it even on single-core hosts. `workers` counts the
/// calling thread; `workers - 1` helper jobs are dispatched to the pool.
fn par_map_pooled<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    debug_assert!(workers >= 1 && n > 0);
    // Batched dynamic scheduling: each worker claims `batch` consecutive
    // indices at a time and records (index, result) pairs locally.
    let batch = (n / (workers * 8)).clamp(1, 256);
    let task = MapTask {
        items,
        f: &f,
        batch,
        cursor: AtomicUsize::new(0),
        results: Mutex::new(Vec::with_capacity(n)),
        panic: Mutex::new(None),
    };

    let pool = pool();
    let helpers = (workers - 1).min(pool.ensure_workers(workers - 1));
    let gate: Arc<Gate> = Arc::new(Gate::default());
    // Closing twice is a no-op, so the guard makes the gate shut on every
    // exit path — including an unwind out of the dispatch loop — while the
    // explicit close below still runs before results are read.
    struct CloseGate<'g>(&'g Gate);
    impl Drop for CloseGate<'_> {
        fn drop(&mut self) {
            self.0.close_and_wait();
        }
    }
    let close_guard = CloseGate(&gate);
    // Jobs are fully 'static: an Arc'd gate, the task address, and a
    // monomorphized runner. The pointer is only dereferenced between a
    // successful `enter()` and the matching `exit()`, and `close_and_wait`
    // below keeps the task alive for exactly that window.
    let task_addr = &task as *const MapTask<'_, T, R, F> as usize;
    unsafe fn run_task_at<T, R, F>(addr: usize)
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        unsafe { (*(addr as *const MapTask<'_, T, R, F>)).run_worker() }
    }
    let runner: unsafe fn(usize) = run_task_at::<T, R, F>;
    // run_worker parks user panics, but its own result-merge could in
    // principle unwind (poisoned lock); exiting through a guard means even
    // that cannot strand the caller in close_and_wait.
    struct ExitGate(Arc<Gate>);
    impl Drop for ExitGate {
        fn drop(&mut self) {
            self.0.exit();
        }
    }
    for _ in 0..helpers {
        let gate = Arc::clone(&gate);
        pool.submit(Box::new(move || {
            if gate.enter() {
                let _exit = ExitGate(Arc::clone(&gate));
                // SAFETY: the gate is open, so the task outlives this call.
                unsafe { runner(task_addr) };
            }
        }));
    }
    // The calling thread is the final worker; run_worker never unwinds
    // (panics are parked in the task), so the gate is always closed before
    // the task leaves scope.
    task.run_worker();
    drop(close_guard);

    if let Some(payload) = task.panic.into_inner().expect("panic slot") {
        // Re-raise with the original payload so assertion messages and
        // locations survive the pool boundary.
        std::panic::resume_unwind(payload);
    }
    let mut tagged = task.results.into_inner().expect("results");
    tagged.sort_unstable_by_key(|(i, _)| *i);
    // Hard assert: if a helper died without merging (only reachable through
    // the exotic poisoned-merge path above), fail loudly rather than return
    // a silently truncated output.
    assert_eq!(tagged.len(), n, "parallel map lost results");
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Dispatch one fire-and-forget job to the shared worker pool. `Ok(())`
/// means the pool took the job; `Err(job)` hands it back untouched when
/// the caller must run it inline instead: either no worker could be
/// created, or the caller *is* a pool worker (a worker blocking on work it
/// queued behind itself is the classic self-deadlock).
///
/// A dispatched job is wrapped in `catch_unwind`, so a panicking job can
/// never kill a pool worker; callers that need the panic surfaced should
/// convert it to a result inside the job.
pub fn spawn<F: FnOnce() + Send + 'static>(job: F) -> std::result::Result<(), F> {
    if IS_POOL_WORKER.with(|flag| flag.get()) {
        return Err(job);
    }
    let pool = pool();
    if pool.ensure_workers(1) == 0 {
        return Err(job);
    }
    pool.submit(Box::new(move || {
        let _ = std::panic::catch_unwind(AssertUnwindSafe(job));
    }));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(par_map(&none, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
        assert_eq!(par_map(&[1u32, 2, 3], |&x| x), vec![1, 2, 3]);
    }

    #[test]
    fn matches_sequential_map_on_skewed_work() {
        let items: Vec<usize> = (0..333).collect();
        let seq: Vec<usize> = items.iter().map(|&x| (0..x % 50).sum::<usize>()).collect();
        let par = par_map(&items, |&x| (0..x % 50).sum::<usize>());
        assert_eq!(seq, par);
    }

    #[test]
    fn pooled_branch_preserves_order_and_results() {
        // par_map falls back to sequential on single-core hosts, so drive
        // the pool-dispatch branch directly with a fixed worker count.
        let items: Vec<usize> = (0..500).collect();
        for workers in [2, 3, 8] {
            let out = par_map_pooled(&items, workers, |&x| x * x);
            assert_eq!(out.len(), 500, "{workers} workers");
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i * i, "{workers} workers, index {i}");
            }
        }
    }

    #[test]
    fn pool_workers_persist_across_calls() {
        let items: Vec<usize> = (0..64).collect();
        let _ = par_map_pooled(&items, 3, |&x| x);
        let before = pool().live.load(Ordering::Acquire);
        assert!(before >= 2, "first call spawned helpers");
        for _ in 0..10 {
            let _ = par_map_pooled(&items, 3, |&x| x + 1);
        }
        // The pool is process-wide and sibling tests may grow it
        // concurrently, so only monotone bounds are asserted: same-width
        // calls never shrink it and nothing exceeds the cap.
        let after = pool().live.load(Ordering::Acquire);
        assert!(
            (before..=MAX_POOL_WORKERS).contains(&after),
            "{before} -> {after}"
        );
    }

    #[test]
    fn pool_grows_on_demand_but_never_beyond_cap() {
        let items: Vec<usize> = (0..64).collect();
        let _ = par_map_pooled(&items, 2, |&x| x);
        let _ = par_map_pooled(&items, 6, |&x| x);
        let spawned = pool().live.load(Ordering::Acquire);
        assert!(spawned >= 5, "pool grew to the widest request: {spawned}");
        assert!(spawned <= MAX_POOL_WORKERS);
    }

    #[test]
    fn tiny_batches_fan_out_through_the_pool() {
        // The old spawn-per-call design kept batches < 16 sequential; the
        // persistent pool handles a 2-item batch.
        let out = par_map_pooled(&[10usize, 20], 2, |&x| x * 3);
        assert_eq!(out, vec![30, 60]);
    }

    #[test]
    fn pooled_branch_panic_payload_propagates() {
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map_pooled(&items, 4, |&x| {
                assert!(x != 20, "pooled boom at {x}");
                x
            })
        }));
        let payload = result.expect_err("must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("pooled boom at 20"), "{msg:?}");
    }

    #[test]
    fn pool_survives_a_panicked_batch() {
        // A panic must not kill pool workers: later calls still complete.
        let items: Vec<usize> = (0..64).collect();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map_pooled(&items, 4, |&x| {
                assert!(x != 1, "first batch dies");
                x
            })
        }));
        let out = par_map_pooled(&items, 4, |&x| x + 1);
        assert_eq!(out.len(), 64);
        assert_eq!(out[5], 6);
    }

    #[test]
    fn worker_panic_payload_propagates() {
        let items: Vec<usize> = (0..100).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(&items, |&x| {
                assert!(x != 50, "boom at {x}");
                x
            })
        }));
        // On single-core hosts par_map is sequential and the panic
        // propagates directly; on multi-core it crosses the pool. Either
        // way the original message must survive.
        let payload = result.expect_err("must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("boom at 50"), "original message kept: {msg:?}");
    }

    #[test]
    fn nested_calls_from_pool_workers_complete() {
        // f itself calls par_map: the inner call must detect it is on a
        // pool worker and run sequentially instead of deadlocking on a
        // fully-occupied pool.
        let items: Vec<usize> = (0..40).collect();
        let out = par_map_pooled(&items, 2, |&x| {
            let inner: Vec<usize> = (0..x % 7).collect();
            par_map(&inner, |&y| y * 2).into_iter().sum::<usize>() + x
        });
        let expect: Vec<usize> = items
            .iter()
            .map(|&x| (0..x % 7).map(|y| y * 2).sum::<usize>() + x)
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn concurrent_par_maps_from_many_threads() {
        // Several user threads sharing the pool at once: every call gets
        // complete, ordered results.
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let items: Vec<usize> = (0..200).collect();
                    let out = par_map_pooled(&items, 3, |&x| x * t);
                    out.iter().enumerate().all(|(i, &v)| v == i * t)
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap(), "a concurrent call saw wrong results");
        }
    }

    #[test]
    fn spawn_runs_the_job_to_completion() {
        let (tx, rx) = channel::<u32>();
        assert!(spawn(move || {
            tx.send(41 + 1).unwrap();
        })
        .is_ok());
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap(),
            42
        );
    }

    #[test]
    fn spawn_survives_a_panicking_job() {
        let (tx, rx) = channel::<&'static str>();
        assert!(spawn(|| panic!("job dies, worker must not")).is_ok());
        assert!(spawn(move || {
            tx.send("alive").unwrap();
        })
        .is_ok());
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap(),
            "alive"
        );
    }

    #[test]
    fn spawn_refuses_dispatch_from_a_pool_worker() {
        // A nested spawn from inside a pool worker must tell the caller to
        // run inline rather than queue behind itself.
        let (tx, rx) = channel::<bool>();
        assert!(spawn(move || {
            tx.send(spawn(|| {}).is_ok()).unwrap();
        })
        .is_ok());
        assert!(
            !rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap(),
            "nested spawn must be refused"
        );
    }

    #[test]
    fn thread_cap_env_is_respected() {
        // max_threads is >= 1 even with garbage in the env var.
        assert!(max_threads() >= 1);
    }
}
