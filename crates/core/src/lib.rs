//! # hwprof — Hardware Profiling of Kernels, reproduced
//!
//! A full working reproduction of Andrew McRae's 1993 system for
//! profiling a running kernel with a cheap EPROM-socket event-capture
//! board: the board, the modified compiler, the simulated 386BSD-style
//! kernel it profiles, the analysis software, and the paper's rejected
//! baselines.
//!
//! ## Quickstart
//!
//! ```
//! use hwprof::{Experiment, scenarios};
//! use hwprof::analysis::summary_report;
//!
//! // Profile the network modules while a remote host streams TCP at
//! // the machine (the paper's Figure 3 setup, shortened).
//! let capture = Experiment::new()
//!     .profile_modules(&["net", "locore", "kern"])
//!     .scenario(scenarios::network_receive(32 * 1024, false))
//!     .try_run()
//!     .expect("experiment builds and links");
//! let profile = capture.analyze();
//! println!("{}", summary_report(&profile, Some(10)));
//! assert!(profile.agg("bcopy").unwrap().calls > 0);
//! ```
//!
//! For captures longer than the board's RAM, stream instead: the board
//! drains full half-RAM banks into analysis workers while the workload
//! runs, and the merged profile is bit-identical to the batch answer.
//!
//! ```
//! use hwprof::{Experiment, scenarios};
//!
//! let stream = Experiment::new()
//!     .scenario(scenarios::network_receive(64 * 1024, false))
//!     .try_run_streaming(4)
//!     .expect("pipeline keeps up");
//! assert!(stream.banks >= 1);
//! ```

pub mod backend;
pub mod comparison;
pub mod error;
pub mod experiment;
pub mod scenarios;

pub use backend::{
    BackendCost, BoardBackend, CaptureBackend, CountersBackend, KtraceBackend, NativeCapture,
    SamplingBackend,
};
pub use comparison::{BackendComparison, BackendRow};
pub use error::Error;
pub use experiment::{
    build_tagfile, BackendCapture, Capture, Experiment, Scenario, ScenarioBuilder, SentinelHandle,
    StreamCapture, SupervisedCapture,
};
pub use hwprof_analysis::{
    validate_json, AlertEntry, AlertJournal, AlertTransition, Analyzer, AnalyzerError, Anomalies,
    Baseline, Detector, FleetAlert, FleetSentinel, FlightRecorder, JsonValue, Profile,
    RecorderLedger, Sentinel, SentinelConfig, WindowDiff, WindowRollup,
};
pub use hwprof_baseline::{CounterModel, SampleProfile};
pub use hwprof_profiler::{
    Coverage, FaultInjector, FaultSpec, FlakyTransport, HealthReport, InjectedFaults,
    MemoryTransport, RecorderConfig, RecorderConfigError, SupervisorPolicy, TagMaskLevel,
    Transport,
};
pub use hwprof_telemetry::{Registry, SpanEvent, SpanLog, SpanName, SpanPhase, SpanTrack};

// Re-export the component crates under one roof.
pub use hwprof_analysis as analysis;
pub use hwprof_baseline as baseline;
pub use hwprof_instrument as instrument;
pub use hwprof_kernel386 as kernel386;
pub use hwprof_machine as machine;
pub use hwprof_profiler as profiler;
pub use hwprof_snmpmib as snmpmib;
pub use hwprof_tagfile as tagfile;
pub use hwprof_telemetry as telemetry;
