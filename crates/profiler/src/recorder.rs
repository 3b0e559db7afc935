//! Capture-side half of the always-on flight recorder.
//!
//! The supervisor stays the single source of truth for what was
//! captured and when; continuous consumers subscribe to it through the
//! [`SessionSink`] observer installed with
//! [`CaptureSupervisor::set_session_sink`](crate::CaptureSupervisor::set_session_sink).
//! The sink sees every delivered session and every dark-window gap at
//! the same two single sites that feed the Coverage ledger, the
//! telemetry Registry and the SpanLog, so a live consumer can never
//! observe a capture history that disagrees with the post-run
//! [`SupervisedRun`](crate::SupervisedRun).
//!
//! The analysis crate's `SupervisedFold` implements [`SessionSink`] and
//! feeds its `FlightRecorder`; this module only defines the
//! subscription contract plus the [`RecorderConfig`] the recorder is
//! built from, so the profiler crate stays free of any dependency on
//! reconstruction machinery.

use crate::supervisor::{Gap, SupervisedSession};

/// A live subscriber to the supervised capture stream.
///
/// Callbacks run under the supervisor lock on the capture path: they
/// must not block and must not call back into the supervisor.  Sessions
/// arrive in *delivery* order, which the spill shelf can permute from
/// index order; consumers that need index order must sort or key by
/// [`SupervisedSession::index`].
pub trait SessionSink: Send {
    /// One bank session was delivered (upload succeeded or the run
    /// finished with the bank still local).
    fn session(&mut self, session: &SupervisedSession);

    /// One dark window was recorded.
    fn gap(&mut self, gap: &Gap);
}

/// Configuration for the analysis-side `FlightRecorder`: the fixed
/// window width and the retention budget of the window ring.
///
/// Built with [`RecorderConfig::builder`]; the builder validates on
/// [`build`](RecorderConfigBuilder::build) and returns a
/// [`RecorderConfigError`] instead of clamping silently.  The fields
/// are private, so no config skips that check:
///
/// ```compile_fail,E0451
/// use hwprof_profiler::RecorderConfig;
/// let cfg = RecorderConfig { window_us: 0, retain: 64 };
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderConfig {
    window_us: u64,
    retain: usize,
}

impl RecorderConfig {
    /// Fixed rollup window width in µs.  Windows tile absolute machine
    /// time from 0: window `w` covers `[w·window_us, (w+1)·window_us)`.
    pub fn window_us(&self) -> u64 {
        self.window_us
    }

    /// Memory budget of the ring, in retained windows.  When a new
    /// window would exceed it, the oldest retained window is evicted
    /// and its clipped span charged to the eviction ledger.
    pub fn retain(&self) -> usize {
        self.retain
    }

    /// Starts a builder with the defaults: 1 ms windows, 64 retained.
    pub fn builder() -> RecorderConfigBuilder {
        RecorderConfigBuilder {
            window_us: 1_000,
            retain: 64,
        }
    }
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig::builder().build().expect("defaults valid")
    }
}

/// Builder for [`RecorderConfig`].
#[must_use = "builders do nothing until .build() is called"]
#[derive(Debug, Clone, Copy)]
pub struct RecorderConfigBuilder {
    window_us: u64,
    retain: usize,
}

impl RecorderConfigBuilder {
    /// Sets the rollup window width in µs.
    pub fn window_us(mut self, us: u64) -> Self {
        self.window_us = us;
        self
    }

    /// Sets the ring's retention budget in windows.
    pub fn retain(mut self, windows: usize) -> Self {
        self.retain = windows;
        self
    }

    /// Validates and builds the config.
    pub fn build(self) -> Result<RecorderConfig, RecorderConfigError> {
        if self.window_us == 0 {
            return Err(RecorderConfigError::ZeroWindow);
        }
        if self.retain == 0 {
            return Err(RecorderConfigError::NoRetention);
        }
        Ok(RecorderConfig {
            window_us: self.window_us,
            retain: self.retain,
        })
    }
}

/// Why a [`RecorderConfigBuilder`] refused to build.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecorderConfigError {
    /// `window_us` was 0 — windows must have positive width.
    ZeroWindow,
    /// `retain` was 0 — the ring must hold at least one window.
    NoRetention,
}

impl std::fmt::Display for RecorderConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecorderConfigError::ZeroWindow => write!(f, "recorder window width must be > 0 us"),
            RecorderConfigError::NoRetention => {
                write!(f, "recorder must retain at least one window")
            }
        }
    }
}

impl std::error::Error for RecorderConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_build() {
        let cfg = RecorderConfig::default();
        assert_eq!(cfg.window_us(), 1_000);
        assert_eq!(cfg.retain(), 64);
    }

    #[test]
    fn builder_rejects_degenerate_configs() {
        assert_eq!(
            RecorderConfig::builder().window_us(0).build(),
            Err(RecorderConfigError::ZeroWindow)
        );
        assert_eq!(
            RecorderConfig::builder().retain(0).build(),
            Err(RecorderConfigError::NoRetention)
        );
        let cfg = RecorderConfig::builder()
            .window_us(250)
            .retain(8)
            .build()
            .expect("valid");
        assert_eq!(cfg.window_us(), 250);
        assert_eq!(cfg.retain(), 8);
    }
}
