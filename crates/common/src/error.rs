//! Workspace-wide error type.
//!
//! Every fallible public API in the CrypText workspace returns
//! [`Result<T>`]. The error enum is intentionally flat: the system spans a
//! document store, a cache, ML models and a service facade, and a single
//! error vocabulary keeps cross-crate plumbing trivial.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// The unified CrypText error type.
#[derive(Debug)]
pub enum Error {
    /// Underlying I/O failure (WAL, snapshot, corpus files).
    Io(std::io::Error),
    /// Persistent state failed validation during decode/recovery.
    Corrupt(String),
    /// A named entity (collection, document, model, token) does not exist.
    NotFound(String),
    /// Caller passed an argument outside the supported domain.
    InvalidArgument(String),
    /// A uniqueness or schema constraint was violated.
    Conflict(String),
    /// Authentication failed (missing/unknown/revoked API token).
    Unauthorized(String),
    /// The caller exceeded its per-token rate limit; the budget refills
    /// when the current fixed window rolls over.
    RateLimited {
        /// Milliseconds until the current rate window resets.
        retry_after_ms: u64,
    },
    /// The service shed this request under overload (admission queue
    /// full or draining); retry after backing off.
    Overloaded {
        /// Suggested backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The request's deadline budget expired before a result was ready.
    DeadlineExceeded {
        /// The total budget that was granted, in milliseconds.
        budget_ms: u64,
    },
    /// An internal invariant was broken; indicates a bug, not user error.
    Internal(String),
}

impl Error {
    /// Build a [`Error::NotFound`] from anything printable.
    pub fn not_found(what: impl fmt::Display) -> Self {
        Error::NotFound(what.to_string())
    }

    /// Build a [`Error::InvalidArgument`] from anything printable.
    pub fn invalid(what: impl fmt::Display) -> Self {
        Error::InvalidArgument(what.to_string())
    }

    /// Build a [`Error::Corrupt`] from anything printable.
    pub fn corrupt(what: impl fmt::Display) -> Self {
        Error::Corrupt(what.to_string())
    }

    /// True when retrying the same call later could succeed
    /// (rate limits, shed load, and transient I/O), false for logic
    /// errors. A blown deadline is *not* retryable: the caller's budget is
    /// gone, and only the caller knows whether granting a fresh one makes
    /// sense.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            Error::RateLimited { .. } | Error::Overloaded { .. } | Error::Io(_)
        )
    }

    /// The backoff hint carried by throttling errors
    /// ([`Error::RateLimited`] / [`Error::Overloaded`]), `None` otherwise.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            Error::RateLimited { retry_after_ms } | Error::Overloaded { retry_after_ms } => {
                Some(*retry_after_ms)
            }
            _ => None,
        }
    }

    /// The canonical HTTP status code for this error — the one wire
    /// mapping every layer (gateway envelope, HTTP server, tests) speaks:
    ///
    /// | variant | status |
    /// |---|---|
    /// | `InvalidArgument` | 400 |
    /// | `Unauthorized` | 403 (credentials presented and refused; a *missing* credential is the wire layer's 401) |
    /// | `NotFound` | 404 |
    /// | `Conflict` | 409 |
    /// | `RateLimited` / `Overloaded` | 429 (+ `Retry-After` from [`Self::retry_after`]) |
    /// | `DeadlineExceeded` | 504 |
    /// | `Io` / `Corrupt` / `Internal` | 500 |
    pub fn status_code(&self) -> u16 {
        match self {
            Error::InvalidArgument(_) => 400,
            Error::Unauthorized(_) => 403,
            Error::NotFound(_) => 404,
            Error::Conflict(_) => 409,
            Error::RateLimited { .. } | Error::Overloaded { .. } => 429,
            Error::DeadlineExceeded { .. } => 504,
            Error::Io(_) | Error::Corrupt(_) | Error::Internal(_) => 500,
        }
    }

    /// The `Retry-After` header value (whole seconds, rounded **up** so a
    /// client honoring it never retries inside the throttled window) for
    /// throttling errors, `None` otherwise. The millisecond-precision hint
    /// remains available via [`Self::retry_after_ms`].
    pub fn retry_after(&self) -> Option<u64> {
        self.retry_after_ms().map(|ms| ms.div_ceil(1000).max(1))
    }

    /// Stable snake_case label for the error category (wire bodies, logs,
    /// metrics). One label per variant, no payload.
    pub fn kind_label(&self) -> &'static str {
        match self {
            Error::Io(_) => "io",
            Error::Corrupt(_) => "corrupt",
            Error::NotFound(_) => "not_found",
            Error::InvalidArgument(_) => "invalid_argument",
            Error::Conflict(_) => "conflict",
            Error::Unauthorized(_) => "unauthorized",
            Error::RateLimited { .. } => "rate_limited",
            Error::Overloaded { .. } => "overloaded",
            Error::DeadlineExceeded { .. } => "deadline_exceeded",
            Error::Internal(_) => "internal",
        }
    }

    /// A structural copy of this error, for broadcasting one failure to
    /// several coalesced waiters. `std::io::Error` is not `Clone`, so the
    /// I/O arm is rebuilt from its kind and message; every other arm
    /// clones exactly.
    pub fn duplicate(&self) -> Self {
        match self {
            Error::Io(e) => Error::Io(std::io::Error::new(e.kind(), e.to_string())),
            Error::Corrupt(m) => Error::Corrupt(m.clone()),
            Error::NotFound(m) => Error::NotFound(m.clone()),
            Error::InvalidArgument(m) => Error::InvalidArgument(m.clone()),
            Error::Conflict(m) => Error::Conflict(m.clone()),
            Error::Unauthorized(m) => Error::Unauthorized(m.clone()),
            Error::RateLimited { retry_after_ms } => Error::RateLimited {
                retry_after_ms: *retry_after_ms,
            },
            Error::Overloaded { retry_after_ms } => Error::Overloaded {
                retry_after_ms: *retry_after_ms,
            },
            Error::DeadlineExceeded { budget_ms } => Error::DeadlineExceeded {
                budget_ms: *budget_ms,
            },
            Error::Internal(m) => Error::Internal(m.clone()),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "io error: {e}"),
            Error::Corrupt(m) => write!(f, "corrupt state: {m}"),
            Error::NotFound(m) => write!(f, "not found: {m}"),
            Error::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            Error::Conflict(m) => write!(f, "conflict: {m}"),
            Error::Unauthorized(m) => write!(f, "unauthorized: {m}"),
            Error::RateLimited { retry_after_ms } => {
                write!(f, "rate limited: retry after {retry_after_ms}ms")
            }
            Error::Overloaded { retry_after_ms } => {
                write!(f, "overloaded: retry after {retry_after_ms}ms")
            }
            Error::DeadlineExceeded { budget_ms } => {
                write!(f, "deadline exceeded: {budget_ms}ms budget spent")
            }
            Error::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_category_and_message() {
        let e = Error::NotFound("collection tokens".into());
        assert_eq!(e.to_string(), "not found: collection tokens");
        let e = Error::RateLimited {
            retry_after_ms: 1500,
        };
        assert_eq!(e.to_string(), "rate limited: retry after 1500ms");
        let e = Error::Overloaded { retry_after_ms: 25 };
        assert_eq!(e.to_string(), "overloaded: retry after 25ms");
        let e = Error::DeadlineExceeded { budget_ms: 40 };
        assert_eq!(e.to_string(), "deadline exceeded: 40ms budget spent");
    }

    #[test]
    fn io_errors_are_wrapped_and_sourced() {
        let io = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        let e: Error = io.into();
        assert!(matches!(e, Error::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn retryability_classification() {
        assert!(Error::RateLimited { retry_after_ms: 1 }.is_retryable());
        assert!(Error::Overloaded { retry_after_ms: 1 }.is_retryable());
        assert!(Error::Io(std::io::Error::other("net")).is_retryable());
        assert!(!Error::DeadlineExceeded { budget_ms: 5 }.is_retryable());
        assert!(!Error::invalid("bad k").is_retryable());
        assert!(!Error::corrupt("bad magic").is_retryable());
    }

    #[test]
    fn retry_after_hint_only_on_throttling_errors() {
        assert_eq!(
            Error::RateLimited {
                retry_after_ms: 700
            }
            .retry_after_ms(),
            Some(700)
        );
        assert_eq!(
            Error::Overloaded { retry_after_ms: 9 }.retry_after_ms(),
            Some(9)
        );
        assert_eq!(
            Error::DeadlineExceeded { budget_ms: 9 }.retry_after_ms(),
            None
        );
        assert_eq!(Error::invalid("x").retry_after_ms(), None);
    }

    #[test]
    fn duplicate_preserves_category_and_message() {
        let io = Error::Io(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            "slow shard",
        ));
        match io.duplicate() {
            Error::Io(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::TimedOut);
                assert_eq!(e.to_string(), "slow shard");
            }
            other => panic!("wrong arm: {other:?}"),
        }
        for e in [
            Error::Unauthorized("tok".into()),
            Error::RateLimited { retry_after_ms: 3 },
            Error::Overloaded { retry_after_ms: 4 },
            Error::DeadlineExceeded { budget_ms: 5 },
            Error::Internal("bug".into()),
        ] {
            assert_eq!(e.duplicate().to_string(), e.to_string());
        }
    }

    #[test]
    fn every_variant_has_a_canonical_status() {
        let cases: Vec<(Error, u16, &str)> = vec![
            (Error::Io(std::io::Error::other("net")), 500, "io"),
            (Error::Corrupt("magic".into()), 500, "corrupt"),
            (Error::NotFound("doc".into()), 404, "not_found"),
            (Error::InvalidArgument("k".into()), 400, "invalid_argument"),
            (Error::Conflict("dup".into()), 409, "conflict"),
            (Error::Unauthorized("tok".into()), 403, "unauthorized"),
            (
                Error::RateLimited { retry_after_ms: 1 },
                429,
                "rate_limited",
            ),
            (Error::Overloaded { retry_after_ms: 1 }, 429, "overloaded"),
            (
                Error::DeadlineExceeded { budget_ms: 5 },
                504,
                "deadline_exceeded",
            ),
            (Error::Internal("bug".into()), 500, "internal"),
        ];
        for (e, status, label) in cases {
            assert_eq!(e.status_code(), status, "{e}");
            assert_eq!(e.kind_label(), label, "{e}");
        }
    }

    #[test]
    fn retry_after_rounds_up_to_whole_seconds() {
        let hint = |ms| Error::RateLimited { retry_after_ms: ms }.retry_after();
        assert_eq!(hint(60_000), Some(60));
        assert_eq!(hint(1_001), Some(2), "partial seconds round up");
        assert_eq!(hint(25), Some(1), "sub-second hints never collapse to 0");
        assert_eq!(hint(0), Some(1));
        assert_eq!(
            Error::Overloaded { retry_after_ms: 25 }.retry_after(),
            Some(1)
        );
        assert_eq!(Error::DeadlineExceeded { budget_ms: 9 }.retry_after(), None);
        assert_eq!(Error::invalid("x").retry_after(), None);
    }

    #[test]
    fn constructors_accept_display_types() {
        assert!(matches!(Error::not_found(42), Error::NotFound(s) if s == "42"));
        assert!(matches!(Error::invalid("k>2"), Error::InvalidArgument(s) if s == "k>2"));
    }
}
