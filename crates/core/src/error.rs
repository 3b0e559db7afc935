//! Errors an [`Experiment`](crate::Experiment) run can hit.

use hwprof_instrument::LinkError;
use hwprof_tagfile::TagFileError;

/// Everything that can go wrong between configuring an experiment and
/// getting a capture back.
///
/// Non-exhaustive: new capture modes grow new failure classes (the
/// supervised transport variants arrived after the first release of
/// this enum), so downstream matches must carry a wildcard arm.  Use
/// [`Error::is_retryable`] to decide whether re-running the same
/// experiment could succeed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// [`Experiment::scenario`](crate::Experiment::scenario) was never
    /// called.
    MissingScenario,
    /// The scenario spawned no processes, so the simulation would have
    /// nothing to schedule.
    EmptyScenario,
    /// The modified compiler pass rejected the tag assignment.
    Compile(TagFileError),
    /// The two-stage link could not resolve `_ProfileBase`.
    Link(LinkError),
    /// A streaming capture overflowed: a full bank found no empty RAM
    /// (the analysis pipeline refused it) and the board stopped storing.
    BoardOverflow {
        /// Banks successfully handed to the pipeline before the stop.
        banks: u64,
        /// Trigger reads lost after the board stopped.
        missed: u64,
    },
    /// The capture's anomaly rate crossed the caller's threshold: the
    /// upload is too corrupt for its numbers to be trusted.
    CorruptUpload {
        /// Classified anomalies the recovery pipeline counted.
        anomalies: u64,
        /// Hardware events in the capture.
        tags: u64,
        /// The caller's threshold, in anomalies per million tags.
        limit_ppm: u32,
    },
    /// Analyzing a streamed bank panicked; the worker survived, but
    /// the capture's profile was discarded.
    AnalysisPanicked {
        /// Index of the first bank whose analysis panicked.
        bank: u64,
    },
    /// A supervised capture delivered nothing: the upload transport
    /// stayed down and every captured bank was lost.
    TransportFailed {
        /// Captured banks lost (spill shelf exhausted, retries spent).
        banks_lost: u64,
        /// Individual upload attempts that failed.
        failures: u64,
    },
    /// A capture backend could not observe the run: nothing to arm, no
    /// samples taken, software trace buffer overflowed, or the native
    /// data failed to decode.  The configuration is at fault (wrong
    /// backend for the build, buffer sized too small), so this is not
    /// retryable.
    BackendFailed {
        /// Which backend failed
        /// ([`CaptureBackend::name`](crate::CaptureBackend::name)).
        backend: &'static str,
        /// What went wrong, in the backend's own words.
        reason: String,
    },
    /// A fleet aggregator received a shard whose payload failed its
    /// checksum or did not parse as a record stream.  The corruption
    /// is in the delivered bytes, not the link: the machine's
    /// transport already succeeded (contrast
    /// [`Error::TransportFailed`], where retrying the upload can
    /// help), so resubmitting the same shard reproduces the same
    /// garbage and this is not retryable.
    ShardCorrupt {
        /// The fleet machine whose shard was rejected.
        machine: u32,
        /// The shard's bank index within that machine's capture.
        shard: u64,
        /// What the decoder rejected, in its own words.
        reason: String,
    },
    /// A supervised capture finished below the policy's minimum
    /// timeline coverage.
    CoverageTooLow {
        /// Covered fraction achieved, in parts per million.
        achieved_ppm: u32,
        /// The policy's floor
        /// ([`SupervisorPolicy::min_coverage_ppm`](hwprof_profiler::SupervisorPolicy)).
        required_ppm: u32,
    },
}

impl Error {
    /// True when re-running the same experiment could plausibly
    /// succeed: the failure came from the run's environment (a flaky
    /// upload transport, a capture race against the analysis pipeline,
    /// coverage lost to seeded outages), not from the configuration.
    ///
    /// Configuration and build errors ([`Error::MissingScenario`],
    /// [`Error::EmptyScenario`], [`Error::Compile`], [`Error::Link`]),
    /// a panicked analysis worker ([`Error::AnalysisPanicked`] — the
    /// same banks reach the same code), deterministic data
    /// corruption ([`Error::CorruptUpload`] — the fault schedule is
    /// seeded, so a re-run reproduces it) and backend misconfiguration
    /// ([`Error::BackendFailed`] — the same backend observes the same
    /// deterministic run identically) and corrupt fleet shards
    /// ([`Error::ShardCorrupt`] — the bytes are already wrong at rest;
    /// only a transport outage, surfaced as
    /// [`Error::TransportFailed`], is worth retrying) are not
    /// retryable.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            Error::BoardOverflow { .. }
                | Error::TransportFailed { .. }
                | Error::CoverageTooLow { .. }
        )
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::MissingScenario => write!(f, "experiment has no scenario"),
            Error::EmptyScenario => write!(f, "scenario spawned no processes"),
            Error::Compile(e) => write!(f, "instrumented compile failed: {e}"),
            Error::Link(e) => write!(f, "two-stage link failed: {e}"),
            Error::BoardOverflow { banks, missed } => write!(
                f,
                "board overflowed mid-stream after {banks} banks ({missed} trigger reads lost)"
            ),
            Error::CorruptUpload {
                anomalies,
                tags,
                limit_ppm,
            } => write!(
                f,
                "upload too corrupt to trust: {anomalies} anomalies in {tags} tags \
                 (limit {limit_ppm} per million)"
            ),
            Error::AnalysisPanicked { bank } => {
                write!(f, "analysis panicked on bank {bank}; profile discarded")
            }
            Error::TransportFailed {
                banks_lost,
                failures,
            } => write!(
                f,
                "upload transport never recovered: {banks_lost} banks lost across {failures} failed attempts"
            ),
            Error::BackendFailed { backend, reason } => {
                write!(f, "{backend} backend failed: {reason}")
            }
            Error::ShardCorrupt {
                machine,
                shard,
                reason,
            } => write!(
                f,
                "machine {machine} shard {shard} corrupt on arrival: {reason}"
            ),
            Error::CoverageTooLow {
                achieved_ppm,
                required_ppm,
            } => write!(
                f,
                "supervised capture covered only {:.2}% of the timeline (policy floor {:.2}%)",
                *achieved_ppm as f64 / 10_000.0,
                *required_ppm as f64 / 10_000.0
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Compile(e) => Some(e),
            Error::Link(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TagFileError> for Error {
    fn from(e: TagFileError) -> Self {
        Error::Compile(e)
    }
}

impl From<LinkError> for Error {
    fn from(e: LinkError) -> Self {
        Error::Link(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_text_is_pinned() {
        let corrupt = Error::CorruptUpload {
            anomalies: 7,
            tags: 1000,
            limit_ppm: 500,
        };
        assert_eq!(
            corrupt.to_string(),
            "upload too corrupt to trust: 7 anomalies in 1000 tags (limit 500 per million)"
        );
        let panicked = Error::AnalysisPanicked { bank: 3 };
        assert_eq!(
            panicked.to_string(),
            "analysis panicked on bank 3; profile discarded"
        );
        assert!(!panicked.is_retryable());
    }
}
