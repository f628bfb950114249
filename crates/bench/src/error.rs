//! The bench driver's crate-level error type.
//!
//! Everything the `run` binary and the sweep/perf machinery can fail
//! with, as one enum implementing [`std::error::Error`] with `From`
//! conversions — replacing the previous mix of `io::Result` misuse and
//! ad-hoc `String` errors. Unknown-name variants carry a
//! nearest-match suggestion computed by [`ms_tasksel::closest`].

use std::error::Error;
use std::fmt;
use std::io;

/// Any failure the bench driver can report.
#[derive(Debug)]
#[non_exhaustive]
pub enum BenchError {
    /// A filesystem failure reading or writing an artifact.
    Io(io::Error),
    /// An unknown sweep name, with the closest registered sweep if any
    /// name is plausibly near.
    UnknownSweep {
        /// The name that failed to resolve.
        name: String,
        /// The nearest registered sweep name, if close enough to suggest.
        suggestion: Option<&'static str>,
    },
    /// An unknown benchmark (workload) name, with a suggestion.
    UnknownBenchmark {
        /// The name that failed to resolve.
        name: String,
        /// The nearest suite workload name, if close enough to suggest.
        suggestion: Option<&'static str>,
    },
    /// A malformed command line (unknown flag, missing or bad value).
    Usage(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Io(e) => write!(f, "i/o error: {e}"),
            BenchError::UnknownSweep { name, suggestion } => {
                write!(f, "unknown sweep `{name}`")?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean `{s}`?)")?;
                }
                Ok(())
            }
            BenchError::UnknownBenchmark { name, suggestion } => {
                write!(f, "unknown benchmark `{name}`")?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean `{s}`?)")?;
                }
                Ok(())
            }
            BenchError::Usage(msg) => write!(f, "{msg}"),
        }
    }
}

impl Error for BenchError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BenchError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for BenchError {
    fn from(e: io::Error) -> Self {
        BenchError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_suggestions() {
        let e = BenchError::UnknownSweep { name: "figur5".into(), suggestion: Some("figure5") };
        let s = e.to_string();
        assert!(s.contains("figur5") && s.contains("did you mean") && s.contains("figure5"));
        let e = BenchError::UnknownSweep { name: "x".into(), suggestion: None };
        assert!(!e.to_string().contains("did you mean"));
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let e: BenchError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(e.to_string().contains("gone"));
        assert!(e.source().is_some());
    }
}
