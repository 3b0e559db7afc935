//! One capture API over every measurement technique the paper weighs.
//!
//! The paper's board is one of four ways this repo can observe the same
//! kernel: the EPROM-tap board (the paper's contribution), clock-driven
//! PC sampling (the `kgmon`/`gprof` status quo), always-on event
//! counters (the `vmstat`/`netstat` status quo), and ktrace-style
//! software tracing (log every trigger in kernel memory, no hardware).
//! [`CaptureBackend`] puts them behind one arm/drain/finish lifecycle
//! so a scenario written once runs unmodified under any of them:
//!
//! ```
//! use hwprof::{Experiment, SamplingBackend, scenarios};
//!
//! let cap = Experiment::new()
//!     .backend(SamplingBackend::statclock(5000))
//!     .scenario(scenarios::network_receive(16 * 1024, false))
//!     .try_capture()
//!     .expect("experiment builds and links");
//! assert_eq!(cap.backend, "sampling");
//! assert!(cap.profile.total_elapsed > 0);
//! ```
//!
//! Every backend must also *declare* its cost model up front
//! ([`BackendCost`]): what one observed event costs the kernel, how far
//! its attribution may drift from truth, and how late its timestamps
//! land.  The declarations are honest claims, not vibes — the
//! `repro_backends` gate measures each backend against the board and
//! the ground-truth oracle and fails CI if a backend exceeds its own
//! declaration.

use hwprof_analysis::{Analyzer, Reconstruction};
use hwprof_baseline::{CounterModel, SampleProfile};
use hwprof_instrument::ModuleSelect;
use hwprof_kernel386::kernel::{KernStats, Kernel, KernelConfig};
use hwprof_profiler::{Profiler, RawRecord, TIME_MASK};
use hwprof_tagfile::TagFile;

use crate::error::Error;

/// A backend's declared cost model: what observing costs, and how far
/// the answer may drift.  Declarations are checked, not decorative —
/// the cross-backend comparison ([`crate::BackendComparison`]) measures
/// each backend against ground truth and flags any row that exceeds
/// its own `bias_l1_bound`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendCost {
    /// CPU cycles the kernel pays per observed event (the perturbation
    /// axis of the paper's Heisenberg trade-off).
    pub per_event_cycles: u64,
    /// Declared upper bound on attribution bias: the L1 distance
    /// between this backend's per-function time shares and the ground
    /// truth shares (0 = exact, 2 = disjoint).
    pub bias_l1_bound: f64,
    /// How far (µs) an attributed timestamp may land from the event it
    /// claims to describe — counter skid, sampling quantization.
    pub skid_us: u64,
    /// Whether the backend observes call *counts* (entry/exit pairs)
    /// or only time-in-function.
    pub counts_calls: bool,
}

/// What a backend pulled off the machine, before normalization: the
/// union of every backend's native output shape.
#[derive(Debug, Clone)]
pub enum NativeCapture {
    /// Tag/timestamp record banks (board and ktrace backends) — the
    /// paper's RAM images, decoded by the tag file.
    Banks(Vec<Vec<RawRecord>>),
    /// A clock-sampled program-counter histogram.
    Samples(SampleProfile),
    /// The always-on event counters.
    Counters(KernStats),
}

impl NativeCapture {
    /// Total native events in the capture (records, samples, or counted
    /// events — whatever the backend's unit is).
    pub fn events(&self) -> u64 {
        match self {
            NativeCapture::Banks(banks) => banks.iter().map(|b| b.len() as u64).sum(),
            NativeCapture::Samples(p) => p.total,
            NativeCapture::Counters(s) => {
                s.intrs
                    + s.ticks
                    + s.cswitches
                    + s.syscalls
                    + s.packets_in
                    + s.packets_out
                    + s.disk_xfers
                    + s.page_faults
            }
        }
    }
}

/// One way of observing the running kernel, behind the shared
/// arm/drain/finish lifecycle [`crate::Experiment::try_capture`]
/// drives:
///
/// 1. **plan** — before the build, the backend adjusts the module
///    selection and kernel configuration to what it needs (sampling
///    wants a production build plus a statclock; the board keeps
///    whatever the caller selected).
/// 2. **arm** — after the build, before the run: flip whatever switch
///    starts this backend observing.
/// 3. **drain** — after the run: pull the backend's native data off
///    the machine.
/// 4. **finish** — normalize the native capture into the analysis
///    pipeline's [`Reconstruction`] monoid, so every backend's output
///    flows through the same reports, exports, and comparisons.
pub trait CaptureBackend {
    /// Short stable identifier (`"board"`, `"sampling"`, ...).
    fn name(&self) -> &'static str;

    /// The backend's declared cost model.
    fn cost_model(&self) -> BackendCost;

    /// Pre-build hook: adjust module selection / kernel config.  The
    /// default keeps the caller's build untouched.
    fn plan(&self, _select: &mut ModuleSelect, _config: &mut KernelConfig) {}

    /// Post-build, pre-run hook: start observing.
    ///
    /// # Errors
    ///
    /// [`Error::BackendFailed`] when the backend cannot start on this
    /// build (e.g. nothing it could observe).
    fn arm(&mut self, board: &Profiler, kernel: &mut Kernel) -> Result<(), Error>;

    /// Post-run hook: stop observing and pull the native data.
    ///
    /// # Errors
    ///
    /// [`Error::BackendFailed`] when the run produced nothing usable
    /// (no samples taken, trace buffer overflowed, ...).
    fn drain(&mut self, board: &Profiler, kernel: &mut Kernel) -> Result<NativeCapture, Error>;

    /// Normalizes the native capture into the [`Reconstruction`]
    /// monoid.
    ///
    /// # Errors
    ///
    /// [`Error::BackendFailed`] when the native data does not decode.
    fn finish(
        &self,
        native: &NativeCapture,
        tagfile: &TagFile,
        kernel: &Kernel,
    ) -> Result<Reconstruction, Error>;
}

fn fail(backend: &'static str, reason: impl Into<String>) -> Error {
    Error::BackendFailed {
        backend,
        reason: reason.into(),
    }
}

/// The shape every record-bank backend shares in `finish`: decode the
/// banks as sessions through the strict [`Analyzer`] — bit-identical to
/// [`crate::Capture::analyze`] over the concatenated upload.
fn finish_banks(
    backend: &'static str,
    native: &NativeCapture,
    tagfile: &TagFile,
) -> Result<Reconstruction, Error> {
    let NativeCapture::Banks(banks) = native else {
        return Err(fail(backend, "native capture is not record banks"));
    };
    Analyzer::for_tagfile(tagfile)
        .record_sessions(banks.iter().map(Vec::as_slice))
        .map_err(|e| fail(backend, e.to_string()))
}

/// The reference backend: the paper's EPROM-tap board, as a zero-cost
/// adapter over the [`Profiler`] the harness already plugs into the
/// socket.  `arm` flips the front-panel switch, `drain` carries the RAM
/// image to the host, `finish` is the batch analysis — bit-identical to
/// [`crate::Experiment::try_run`] + [`crate::Capture::analyze`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BoardBackend;

impl CaptureBackend for BoardBackend {
    fn name(&self) -> &'static str {
        "board"
    }

    fn cost_model(&self) -> BackendCost {
        BackendCost {
            // One EPROM-read trigger instruction per event (the paper's
            // "two memory cycles").
            per_event_cycles: 2,
            // The board measures time directly; residual bias is the
            // trigger perturbation itself.
            bias_l1_bound: 0.10,
            // Timestamps latch in hardware at the trigger.
            skid_us: 0,
            counts_calls: true,
        }
    }

    fn arm(&mut self, board: &Profiler, _kernel: &mut Kernel) -> Result<(), Error> {
        board.set_switch(true);
        Ok(())
    }

    fn drain(&mut self, board: &Profiler, _kernel: &mut Kernel) -> Result<NativeCapture, Error> {
        board.set_switch(false);
        Ok(NativeCapture::Banks(vec![board.records()]))
    }

    fn finish(
        &self,
        native: &NativeCapture,
        tagfile: &TagFile,
        _kernel: &Kernel,
    ) -> Result<Reconstruction, Error> {
        finish_banks(self.name(), native, tagfile)
    }
}

/// The status-quo profiler the paper argues against: clock-driven PC
/// sampling.  Plans a *production* build (no triggers — samplers don't
/// need instrumentation) and optionally a dedicated statclock; each
/// sample then costs the kernel the sampler's interrupt path.
#[derive(Debug, Clone, Copy, Default)]
pub struct SamplingBackend {
    /// Dedicated statclock rate; `None` samples from `hardclock`.
    pub statclock_hz: Option<u64>,
    /// Pseudo-random statclock phase (defeats synchronized workloads).
    pub skewed: bool,
}

impl SamplingBackend {
    /// Sample from the existing `hardclock` tick (the classic
    /// `gatherstats` arrangement — zero extra interrupts).
    #[must_use]
    pub fn hardclock() -> Self {
        SamplingBackend::default()
    }

    /// Sample from a dedicated statclock at `hz`.
    #[must_use]
    pub fn statclock(hz: u64) -> Self {
        SamplingBackend {
            statclock_hz: Some(hz),
            skewed: false,
        }
    }

    /// Sample from a phase-skewed statclock at `hz`.
    #[must_use]
    pub fn skewed(hz: u64) -> Self {
        SamplingBackend {
            statclock_hz: Some(hz),
            skewed: true,
        }
    }

    fn rate_hz(&self, config: &KernelConfig) -> u64 {
        self.statclock_hz.unwrap_or(config.clock_hz)
    }
}

impl CaptureBackend for SamplingBackend {
    fn name(&self) -> &'static str {
        "sampling"
    }

    fn cost_model(&self) -> BackendCost {
        BackendCost {
            // The sampler's interrupt path (take_sample), per sample.
            per_event_cycles: 120,
            // A histogram of interrupted PCs: shares drift with rate,
            // and the clock path itself is invisible to it.
            bias_l1_bound: 1.0,
            // A sample attributes one whole period to wherever the
            // clock landed.
            skid_us: 10_000,
            counts_calls: false,
        }
    }

    fn plan(&self, select: &mut ModuleSelect, config: &mut KernelConfig) {
        // Samplers run against production builds: no triggers.
        *select = ModuleSelect::None;
        if let Some(hz) = self.statclock_hz {
            config.statclock_hz = Some(hz);
            config.statclock_skewed = self.skewed;
        }
    }

    fn arm(&mut self, _board: &Profiler, kernel: &mut Kernel) -> Result<(), Error> {
        kernel.sampling.enabled = true;
        Ok(())
    }

    fn drain(&mut self, _board: &Profiler, kernel: &mut Kernel) -> Result<NativeCapture, Error> {
        kernel.sampling.enabled = false;
        let profile = SampleProfile::from_kernel(kernel);
        if profile.total == 0 {
            return Err(fail(
                self.name(),
                format!(
                    "no samples taken at {} Hz (run shorter than one period?)",
                    self.rate_hz(&kernel.config)
                ),
            ));
        }
        Ok(NativeCapture::Samples(profile))
    }

    fn finish(
        &self,
        native: &NativeCapture,
        _tagfile: &TagFile,
        _kernel: &Kernel,
    ) -> Result<Reconstruction, Error> {
        let NativeCapture::Samples(p) = native else {
            return Err(fail(self.name(), "native capture is not samples"));
        };
        Ok(p.normalize())
    }
}

/// The other status quo: always-on event counters, read after the run
/// and pushed through the anchored [`CounterModel`].  Zero runtime
/// cost, production build — and the widest declared bias of any
/// backend, because a counter can only *guess* where time went.
#[derive(Debug, Clone, Default)]
pub struct CountersBackend {
    /// The anchor table; [`CounterModel::default`] unless overridden.
    pub model: CounterModel,
}

impl CaptureBackend for CountersBackend {
    fn name(&self) -> &'static str {
        "counters"
    }

    fn cost_model(&self) -> BackendCost {
        BackendCost {
            // The kernel maintains these counters anyway.
            per_event_cycles: 0,
            // Attribution is a static per-event cost guess; declared at
            // the theoretical maximum because nothing bounds it.
            bias_l1_bound: 2.0,
            // A counter dump has one timestamp: "after the run".
            skid_us: 1_000_000,
            counts_calls: true,
        }
    }

    fn plan(&self, select: &mut ModuleSelect, _config: &mut KernelConfig) {
        // Counters need no instrumentation at all.
        *select = ModuleSelect::None;
    }

    fn arm(&mut self, _board: &Profiler, _kernel: &mut Kernel) -> Result<(), Error> {
        // Always on; nothing to arm.
        Ok(())
    }

    fn drain(&mut self, _board: &Profiler, kernel: &mut Kernel) -> Result<NativeCapture, Error> {
        Ok(NativeCapture::Counters(kernel.stats.clone()))
    }

    fn finish(
        &self,
        native: &NativeCapture,
        _tagfile: &TagFile,
        _kernel: &Kernel,
    ) -> Result<Reconstruction, Error> {
        let NativeCapture::Counters(stats) = native else {
            return Err(fail(self.name(), "native capture is not counters"));
        };
        Ok(self.model.normalize(stats))
    }
}

/// Ktrace-style software tracing: the same compiled-in triggers the
/// board reads, logged to a kernel-memory ring instead of hardware —
/// what you do when you can't solder.  Every event costs a store into
/// the trace buffer (~20× the board's trigger), which is exactly the
/// perturbation the paper built hardware to avoid; the records decode
/// through the very same tag file and analyzer as the board's.
#[derive(Debug, Clone, Copy)]
pub struct KtraceBackend {
    /// Trace buffer capacity in events; the run fails on overflow
    /// (`drop-oldest` would silently bias the profile).
    pub capacity: usize,
}

impl Default for KtraceBackend {
    fn default() -> Self {
        KtraceBackend { capacity: 1 << 20 }
    }
}

impl CaptureBackend for KtraceBackend {
    fn name(&self) -> &'static str {
        "ktrace"
    }

    fn cost_model(&self) -> BackendCost {
        BackendCost {
            // One traced store per event: buffer write, index update.
            per_event_cycles: 40,
            // Sees every trigger, but its own per-event cost dilates
            // the times it reports.
            bias_l1_bound: 0.30,
            // Software timestamps land after the trace-store cost.
            skid_us: 1,
            counts_calls: true,
        }
    }

    fn arm(&mut self, _board: &Profiler, kernel: &mut Kernel) -> Result<(), Error> {
        kernel.swtrace.capacity = self.capacity;
        kernel.swtrace.enabled = true;
        Ok(())
    }

    fn drain(&mut self, _board: &Profiler, kernel: &mut Kernel) -> Result<NativeCapture, Error> {
        kernel.swtrace.enabled = false;
        if kernel.swtrace.dropped > 0 {
            return Err(fail(
                self.name(),
                format!(
                    "trace buffer overflowed: {} events dropped after {}",
                    kernel.swtrace.dropped,
                    kernel.swtrace.events.len()
                ),
            ));
        }
        // The software trace logs (tag, µs); the analyzer's record path
        // expects the board's 24-bit wrapped timestamps, and its
        // unwrapper reconstructs the full timeline.
        let records: Vec<RawRecord> = kernel
            .swtrace
            .events
            .iter()
            .map(|&(tag, t_us)| RawRecord {
                tag,
                time: (t_us & u64::from(TIME_MASK)) as u32,
            })
            .collect();
        if records.is_empty() {
            return Err(fail(self.name(), "trace buffer is empty (no triggers?)"));
        }
        Ok(NativeCapture::Banks(vec![records]))
    }

    fn finish(
        &self,
        native: &NativeCapture,
        tagfile: &TagFile,
        _kernel: &Kernel,
    ) -> Result<Reconstruction, Error> {
        finish_banks(self.name(), native, tagfile)
    }
}
