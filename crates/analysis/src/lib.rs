//! The analysis software: "the raw data is then uploaded to a UNIX host.
//! The data is processed by matching the event data (with the microsecond
//! time values) with the function names as listed in the name file."
//!
//! Two reports are produced, exactly as in the paper:
//!
//! * a per-function **summary** "sorted by highest to lowest net CPU
//!   usage, headed by an overall summary of the profiling data"
//!   (Figure 3), and
//! * a **code path trace** showing nested calls in real time with
//!   accumulated and net times, context switches flagged (Figure 4).
//!
//! The analyzer must cope with everything the hardware throws at it:
//! 24-bit timestamp wraps (interval arithmetic only), captures that start
//! mid-call (orphan exits), and the control-flow discontinuities at
//! `swtch` — "it appears a different subroutine is being exited than was
//! called" — which it resolves by keeping one reconstructed stack per
//! thread of control and matching the resumed stack by its next
//! unmatched exit.

pub mod analyzer;
pub mod anomaly;
pub mod columnar;
pub mod events;
pub mod export;
pub mod graph;
pub mod groups;
pub mod hist;
pub mod profile;
#[cfg(test)]
mod proptests;
pub mod recon;
pub mod recorder;
pub mod report;
pub mod sentinel;
pub mod stitch;
pub mod stream;
pub mod trace;
pub mod whatif;

pub use analyzer::{Analyzer, AnalyzerError};
pub use anomaly::Anomalies;
pub use columnar::{ColumnarDecoder, DenseTagTable};
pub use events::{
    decode, decode_recovering, decode_recovering_scalar, decode_scalar, EvKind, Event,
    SessionDecoder, SymId, Symbols, TagMap, TimeUnwrapper, TIME_JUMP_THRESHOLD,
};
pub use export::{validate_json, JsonValue};
pub use profile::Profile;
pub use recon::{BankFold, BankRecon, FnAgg, Reconstruction, SessionRecon};
pub use recorder::{DiffRow, FlightRecorder, RecorderLedger, WindowDiff, WindowRollup};
pub use report::{fmt_us, summary_report};
pub use sentinel::{
    AlertEntry, AlertJournal, AlertTransition, Baseline, Detector, FleetAlert, FleetSentinel,
    Sentinel, SentinelConfig, SentinelConfigBuilder, SentinelConfigError,
};
pub use stitch::{
    scale_factor, scaled_calls, visibility, visible_us, MaskVisibility, SupervisedFold,
};
pub use stream::{BankFeed, BankJob, StreamAnalyzer, StreamOutcome};
pub use trace::{trace_report, TraceStyle};
