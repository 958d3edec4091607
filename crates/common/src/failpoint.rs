//! Deterministic fault injection for durability tests.
//!
//! A *failpoint* is a named crash boundary compiled into a write path
//! (WAL append, snapshot rename, log truncation, ...). In normal operation
//! a failpoint only bumps a hit counter — no branch is taken, no I/O is
//! touched, and after a name's first hit nothing is allocated (the empty
//! config maps are skipped, and a counter's key is copied only when it
//! is first inserted). Under test, a failpoint can be armed to simulate
//! a crash:
//!
//! * [`FailAction::Kill`] — the call site returns an injected I/O error
//!   *before* performing its write, as if the process died at that
//!   boundary.
//! * [`FailAction::Torn`]`(k)` — the call site writes only the first `k`
//!   bytes of its payload and then errors, simulating a torn write (a
//!   crash mid-`write(2)`).
//! * [`FailAction::Delay`]`(ms)` — the call site stalls `ms` milliseconds
//!   and then proceeds normally, simulating a slow disk or a stalled
//!   downstream (armed as `delay@N:MS`; the gateway's overload tests use
//!   it to manufacture deadline misses deterministically).
//!
//! Arming is deterministic and hit-indexed: a spec like `kill@3` fires on
//! the third hit *and every hit after it* — once a process is "dead" it
//! must not come back and write more bytes. That monotonic behaviour is
//! what makes kill-at-every-boundary sweeps sound: run once clean to count
//! boundaries, then re-run arming `kill@i` for each `i`, and each run
//! observes exactly the prefix of writes a real crash at boundary `i`
//! would have left behind.
//!
//! Two configuration planes exist:
//!
//! * **Thread-local** (tests): [`arm`] returns a guard; the config and hit
//!   counters are per-thread, so parallel `cargo test` threads never
//!   interfere.
//! * **Process-wide** (CI): the `CRYPTEXT_FAILPOINTS` environment variable
//!   holds `name=spec` pairs separated by `;`, e.g.
//!   `CRYPTEXT_FAILPOINTS="wal.append=torn@2:5;snapshot.rename=kill@1"`.
//!   Hit counters for env-armed points are process-global.
//!
//! The special name `*` matches every failpoint and is the lever for
//! exhaustive sweeps: `arm("*", "kill@7")` kills at the seventh write
//! boundary of any kind. Lookup order is thread-local exact name,
//! thread-local `*`, env exact name, env `*`.
//!
//! No external crates are involved; this is a few hash maps and a parser.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use crate::error::Error;

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Simulate a crash strictly before the write at this boundary.
    Kill,
    /// Write only the first `k` bytes of the payload, then crash.
    Torn(usize),
    /// Stall the call site for the given number of milliseconds before it
    /// proceeds normally — latency injection for overload/deadline tests.
    /// Unlike `Kill`, a delayed boundary is *not* dead: it completes.
    Delay(u64),
}

#[derive(Debug, Clone, Copy)]
struct FailConfig {
    action: FailAction,
    /// 1-based hit index at which the point starts firing (and keeps
    /// firing — a dead process stays dead).
    at_hit: u64,
}

/// Parse a spec string: `kill`, `kill@N`, `torn@N:K`.
fn parse_spec(spec: &str) -> Option<FailConfig> {
    let spec = spec.trim();
    if let Some(rest) = spec.strip_prefix("kill") {
        let at_hit = match rest.strip_prefix('@') {
            Some(n) => n.parse().ok()?,
            None if rest.is_empty() => 1,
            None => return None,
        };
        return Some(FailConfig {
            action: FailAction::Kill,
            at_hit,
        });
    }
    if let Some(rest) = spec.strip_prefix("torn@") {
        let (n, k) = rest.split_once(':')?;
        return Some(FailConfig {
            action: FailAction::Torn(k.trim().parse().ok()?),
            at_hit: n.trim().parse().ok()?,
        });
    }
    if let Some(rest) = spec.strip_prefix("delay@") {
        let (n, ms) = rest.split_once(':')?;
        return Some(FailConfig {
            action: FailAction::Delay(ms.trim().parse().ok()?),
            at_hit: n.trim().parse().ok()?,
        });
    }
    None
}

fn parse_env(value: &str) -> HashMap<String, FailConfig> {
    let mut out = HashMap::new();
    for pair in value.split([';', ',']) {
        let pair = pair.trim();
        if pair.is_empty() {
            continue;
        }
        if let Some((name, spec)) = pair.split_once('=') {
            if let Some(cfg) = parse_spec(spec) {
                out.insert(name.trim().to_string(), cfg);
            }
        }
    }
    out
}

/// The environment variable consulted for process-wide failpoint specs.
pub const ENV_VAR: &str = "CRYPTEXT_FAILPOINTS";

fn env_configs() -> &'static HashMap<String, FailConfig> {
    static CONFIGS: OnceLock<HashMap<String, FailConfig>> = OnceLock::new();
    CONFIGS.get_or_init(|| match std::env::var(ENV_VAR) {
        Ok(v) => parse_env(&v),
        Err(_) => HashMap::new(),
    })
}

fn env_counters() -> &'static Mutex<HashMap<String, u64>> {
    static COUNTERS: OnceLock<Mutex<HashMap<String, u64>>> = OnceLock::new();
    COUNTERS.get_or_init(|| Mutex::new(HashMap::new()))
}

thread_local! {
    static TL_CONFIGS: RefCell<HashMap<String, FailConfig>> = RefCell::new(HashMap::new());
    static TL_COUNTERS: RefCell<HashMap<String, u64>> = RefCell::new(HashMap::new());
}

/// Guard returned by [`arm`]; disarms the thread-local failpoint on drop.
#[derive(Debug)]
pub struct FailGuard {
    name: String,
}

impl Drop for FailGuard {
    fn drop(&mut self) {
        TL_CONFIGS.with(|c| c.borrow_mut().remove(&self.name));
    }
}

/// Arm a failpoint on the current thread. `spec` is `kill`, `kill@N`,
/// `torn@N:K` (fire at the N-th hit, writing K bytes first for torn), or
/// `delay@N:MS` (stall MS milliseconds at the N-th hit and after).
///
/// # Panics
/// Panics on a malformed spec — an armed-but-ignored failpoint would make
/// a crash test silently vacuous.
pub fn arm(name: &str, spec: &str) -> FailGuard {
    let cfg = parse_spec(spec).unwrap_or_else(|| panic!("bad failpoint spec {spec:?}"));
    TL_CONFIGS.with(|c| c.borrow_mut().insert(name.to_string(), cfg));
    FailGuard {
        name: name.to_string(),
    }
}

/// Reset this thread's hit counters (start of a fresh sweep iteration).
pub fn reset_hits() {
    TL_COUNTERS.with(|c| c.borrow_mut().clear());
}

/// Hits recorded on this thread for `name` (use `"*"` for the total
/// across all boundaries) since the last [`reset_hits`].
pub fn hits(name: &str) -> u64 {
    TL_COUNTERS.with(|c| c.borrow().get(name).copied().unwrap_or(0))
}

/// Add one hit to `key`'s counter and return the new count. The key is
/// copied into the map only on its first hit, so counting an unarmed
/// point allocates nothing after that.
fn bump(counters: &mut HashMap<String, u64>, key: &str) -> u64 {
    if let Some(count) = counters.get_mut(key) {
        *count += 1;
        return *count;
    }
    counters.insert(key.to_string(), 1);
    1
}

fn tl_config(name: &str) -> Option<(FailConfig, u64)> {
    TL_CONFIGS.with(|c| {
        let configs = c.borrow();
        if configs.is_empty() {
            return None;
        }
        for key in [name, "*"] {
            if let Some(cfg) = configs.get(key) {
                let count = TL_COUNTERS.with(|h| h.borrow().get(key).copied().unwrap_or(0));
                return Some((*cfg, count));
            }
        }
        None
    })
}

fn env_config(name: &str) -> Option<(FailConfig, u64)> {
    let configs = env_configs();
    if configs.is_empty() {
        return None;
    }
    for key in [name, "*"] {
        if let Some(cfg) = configs.get(key) {
            let mut counters = env_counters().lock().expect("failpoint counter lock");
            return Some((*cfg, bump(&mut counters, key)));
        }
    }
    None
}

/// Record a hit at failpoint `name` and return the action to take, if the
/// point is armed and its hit threshold is reached. Call sites must honor
/// the returned action by erroring out (after a partial write for
/// [`FailAction::Torn`]).
pub fn trigger(name: &str) -> Option<FailAction> {
    // Always count thread-locally so clean runs can measure boundary
    // counts for sweeps, both per-name and under the wildcard.
    let counts = TL_COUNTERS.with(|c| {
        let mut counters = c.borrow_mut();
        (bump(&mut counters, name), bump(&mut counters, "*"))
    });
    if let Some((cfg, _)) = tl_config(name) {
        // Re-resolve which counter applies: exact name uses the name
        // counter, wildcard uses the total counter.
        let hit = if TL_CONFIGS.with(|c| c.borrow().contains_key(name)) {
            counts.0
        } else {
            counts.1
        };
        if hit >= cfg.at_hit {
            return Some(cfg.action);
        }
        return None;
    }
    if let Some((cfg, hit)) = env_config(name) {
        if hit >= cfg.at_hit {
            return Some(cfg.action);
        }
    }
    None
}

/// The error a call site returns when a failpoint fires: an injected I/O
/// error whose message names the point, so tests can assert on it.
pub fn injected(name: &str) -> Error {
    Error::Io(std::io::Error::other(format!(
        "failpoint: injected crash at {name}"
    )))
}

/// True when `err` is an injected failpoint crash (vs a real I/O error).
pub fn is_injected(err: &Error) -> bool {
    matches!(err, Error::Io(e) if e.to_string().starts_with("failpoint:"))
}

/// Drive a *non-write* boundary (a service layer, a dispatch point): record
/// a hit at `name` and honor the armed action in place. `Delay` sleeps the
/// configured milliseconds and then lets the call proceed; `Kill` and
/// `Torn` (which has no byte budget to spend at a non-write site) return
/// the [`injected`] crash error. Unarmed points only count, as always.
pub fn check(name: &str) -> crate::Result<()> {
    match trigger(name) {
        None => Ok(()),
        Some(FailAction::Delay(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(())
        }
        Some(FailAction::Kill) | Some(FailAction::Torn(_)) => Err(injected(name)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_failpoint_only_counts() {
        reset_hits();
        assert_eq!(trigger("t.unarmed"), None);
        assert_eq!(trigger("t.unarmed"), None);
        assert_eq!(hits("t.unarmed"), 2);
        assert!(hits("*") >= 2);
    }

    #[test]
    fn kill_fires_at_and_after_threshold() {
        reset_hits();
        let _g = arm("t.kill", "kill@2");
        assert_eq!(trigger("t.kill"), None);
        assert_eq!(trigger("t.kill"), Some(FailAction::Kill));
        assert_eq!(trigger("t.kill"), Some(FailAction::Kill), "stays dead");
    }

    #[test]
    fn torn_carries_byte_budget() {
        reset_hits();
        let _g = arm("t.torn", "torn@1:5");
        assert_eq!(trigger("t.torn"), Some(FailAction::Torn(5)));
    }

    #[test]
    fn wildcard_matches_any_name() {
        reset_hits();
        let _g = arm("*", "kill@3");
        assert_eq!(trigger("t.a"), None);
        assert_eq!(trigger("t.b"), None);
        assert_eq!(trigger("t.c"), Some(FailAction::Kill));
    }

    #[test]
    fn guard_disarms_on_drop() {
        reset_hits();
        {
            let _g = arm("t.guarded", "kill@1");
            assert_eq!(trigger("t.guarded"), Some(FailAction::Kill));
        }
        assert_eq!(trigger("t.guarded"), None);
    }

    #[test]
    fn spec_parsing() {
        assert_eq!(parse_spec("kill").unwrap().at_hit, 1);
        assert_eq!(parse_spec("kill@7").unwrap().at_hit, 7);
        let torn = parse_spec("torn@2:9").unwrap();
        assert_eq!(torn.at_hit, 2);
        assert_eq!(torn.action, FailAction::Torn(9));
        let delay = parse_spec("delay@3:25").unwrap();
        assert_eq!(delay.at_hit, 3);
        assert_eq!(delay.action, FailAction::Delay(25));
        assert!(parse_spec("explode@1").is_none());
        assert!(parse_spec("torn@x:y").is_none());
        assert!(parse_spec("delay@1").is_none());
        assert!(parse_spec("delay@a:b").is_none());
    }

    #[test]
    fn delay_fires_at_and_after_threshold_and_completes() {
        reset_hits();
        let _g = arm("t.delay", "delay@2:10");
        assert_eq!(trigger("t.delay"), None);
        let start = std::time::Instant::now();
        assert_eq!(trigger("t.delay"), Some(FailAction::Delay(10)));
        assert_eq!(trigger("t.delay"), Some(FailAction::Delay(10)));
        // trigger itself never sleeps; `check` does.
        assert!(start.elapsed().as_millis() < 10);
    }

    #[test]
    fn check_sleeps_on_delay_and_errors_on_kill() {
        reset_hits();
        {
            let _g = arm("t.check.delay", "delay@1:15");
            let start = std::time::Instant::now();
            assert!(check("t.check.delay").is_ok());
            assert!(start.elapsed().as_millis() >= 15);
        }
        {
            let _g = arm("t.check.kill", "kill@1");
            let err = check("t.check.kill").unwrap_err();
            assert!(is_injected(&err));
        }
        assert!(check("t.check.unarmed").is_ok());
        assert_eq!(hits("t.check.unarmed"), 1);
    }

    #[test]
    fn env_string_parsing() {
        let map = parse_env("a.b=kill@2; c.d=torn@1:3,, e=kill");
        assert_eq!(map.len(), 3);
        assert_eq!(map["a.b"].at_hit, 2);
        assert_eq!(map["c.d"].action, FailAction::Torn(3));
        assert_eq!(map["e"].at_hit, 1);
    }

    #[test]
    fn injected_errors_are_recognizable() {
        let err = injected("x.y");
        assert!(is_injected(&err));
        assert!(!is_injected(&Error::Io(std::io::Error::other(
            "disk on fire"
        ))));
    }
}
