//! Workspace-wide error type.

use crate::clock::SimDuration;
use std::fmt;

/// Convenient result alias used across the workspace.
pub type Result<T, E = HermesError> = std::result::Result<T, E>;

/// Errors surfaced by the mediator and its substrates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HermesError {
    /// Rule / query / invariant text failed to parse.
    Parse {
        /// 1-based line of the offending token.
        line: usize,
        /// 1-based column of the offending token.
        col: usize,
        /// Human-readable description.
        msg: String,
    },
    /// A rule or query referenced a domain not in the registry.
    UnknownDomain(String),
    /// A domain call named a function the domain does not export.
    UnknownFunction {
        /// The domain that was called.
        domain: String,
        /// The missing function.
        function: String,
    },
    /// A call supplied the wrong number of arguments.
    BadArity {
        /// The domain that was called.
        domain: String,
        /// The function that was called.
        function: String,
        /// Arity the function declares.
        expected: usize,
        /// Arity the call supplied.
        got: usize,
    },
    /// A call's binding pattern is not permitted by the function signature
    /// (e.g. calling `p_bf` with its first argument free).
    BadBinding {
        /// The domain that was called.
        domain: String,
        /// The function that was called.
        function: String,
        /// Description of the violation.
        msg: String,
    },
    /// A value had the wrong type for an operation.
    Type(String),
    /// A remote site refused or dropped the call (temporary unavailability,
    /// one of the paper's motivations for result caching).
    Unavailable {
        /// The unreachable site.
        site: String,
        /// Why it was unreachable.
        reason: String,
    },
    /// A query exceeded its virtual-clock deadline. The executor surfaces
    /// whatever answers it had produced alongside per-subgoal completeness
    /// provenance; this error is the strict-mode signal.
    DeadlineExceeded {
        /// The configured deadline.
        deadline: SimDuration,
        /// Virtual time actually elapsed when the deadline check fired.
        elapsed: SimDuration,
    },
    /// Query compilation failed (unsafe rule, no executable ordering, ...).
    Plan(String),
    /// Static analysis rejected a program at registration time. Each entry
    /// is one rendered diagnostic (`error[HAxxx] locus: message`).
    Analysis {
        /// Rendered error-severity diagnostics.
        diagnostics: Vec<String>,
    },
    /// The server refused the query outright: its admission gate, or a
    /// serving queue in front of it, was full. Deterministic and immediate
    /// — a shed query never queues and never hangs. The reason is a stable
    /// machine-readable code such as `gate-full`, `pipeline-full` or
    /// `worker-queue-full`.
    Shed {
        /// Stable reason code for the shed decision.
        reason: String,
    },
    /// Runtime evaluation failure.
    Eval(String),
    /// Underlying I/O failure (flat-file domain, persistence).
    Io(String),
}

impl fmt::Display for HermesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HermesError::Parse { line, col, msg } => {
                write!(f, "parse error at {line}:{col}: {msg}")
            }
            HermesError::UnknownDomain(d) => write!(f, "unknown domain `{d}`"),
            HermesError::UnknownFunction { domain, function } => {
                write!(f, "domain `{domain}` has no function `{function}`")
            }
            HermesError::BadArity {
                domain,
                function,
                expected,
                got,
            } => write!(
                f,
                "`{domain}:{function}` expects {expected} argument(s), got {got}"
            ),
            HermesError::BadBinding {
                domain,
                function,
                msg,
            } => write!(f, "binding violation on `{domain}:{function}`: {msg}"),
            HermesError::Type(msg) => write!(f, "type error: {msg}"),
            HermesError::Unavailable { site, reason } => {
                write!(f, "site `{site}` unavailable: {reason}")
            }
            HermesError::DeadlineExceeded { deadline, elapsed } => write!(
                f,
                "deadline exceeded: {elapsed} elapsed against a {deadline} deadline"
            ),
            HermesError::Plan(msg) => write!(f, "planning error: {msg}"),
            HermesError::Analysis { diagnostics } => {
                write!(
                    f,
                    "program rejected by static analysis ({} finding(s))",
                    diagnostics.len()
                )?;
                for d in diagnostics {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            HermesError::Shed { reason } => {
                write!(f, "query shed by admission control ({reason})")
            }
            HermesError::Eval(msg) => write!(f, "evaluation error: {msg}"),
            HermesError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl std::error::Error for HermesError {}

impl From<std::io::Error> for HermesError {
    fn from(e: std::io::Error) -> Self {
        HermesError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = HermesError::BadArity {
            domain: "video".into(),
            function: "video_size".into(),
            expected: 1,
            got: 2,
        };
        assert_eq!(
            e.to_string(),
            "`video:video_size` expects 1 argument(s), got 2"
        );
        let e = HermesError::Parse {
            line: 3,
            col: 14,
            msg: "expected `)`".into(),
        };
        assert_eq!(e.to_string(), "parse error at 3:14: expected `)`");
    }

    #[test]
    fn deadline_exceeded_displays_both_times() {
        let e = HermesError::DeadlineExceeded {
            deadline: SimDuration::from_millis(1_500),
            elapsed: SimDuration::from_millis(2_250),
        };
        assert_eq!(
            e.to_string(),
            "deadline exceeded: 2250.000ms elapsed against a 1500.000ms deadline"
        );
    }

    #[test]
    fn shed_display_carries_the_reason_code() {
        let e = HermesError::Shed {
            reason: "gate-full".into(),
        };
        assert_eq!(e.to_string(), "query shed by admission control (gate-full)");
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: HermesError = io.into();
        assert!(matches!(e, HermesError::Io(_)));
    }
}
