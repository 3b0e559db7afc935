//! The experiment harness: build an instrumented kernel, plug in the
//! board, run a scenario, pull the data.
//!
//! This mirrors the paper's workflow end to end: compile the chosen
//! modules with profiling (selective macro-/micro-profiling), resolve
//! `_ProfileBase` with the two-stage link, flip the board's switch, run
//! the workload, carry the RAMs to the "UNIX host" (the analysis crate).
//!
//! Four capture modes:
//!
//! * [`Experiment::try_run`] — the paper's one-shot capture: the RAM
//!   fills once, the whole image is uploaded afterwards.
//! * [`Experiment::try_run_streaming`] — drain-while-armed: the board's
//!   RAM runs as a double buffer and every full bank streams into an
//!   analysis worker pool *while the workload is still running*, so a
//!   capture is no longer bounded by the 16384-event RAM.
//! * [`Experiment::try_capture`] — the backend-agnostic capture: any
//!   [`CaptureBackend`] (the board, clock sampling, event counters,
//!   ktrace-style software tracing) observes the same run through the
//!   shared arm/drain/finish lifecycle and normalizes into the same
//!   [`Reconstruction`].
//! * [`Experiment::supervised`] (and `record`, `watch`) — a
//!   [`CaptureSupervisor`] keeps the capture alive across overflow and
//!   transport loss, each delivered bank decoded once as it arrives.

use hwprof_analysis::{
    Analyzer, Anomalies, FlightRecorder, Profile, Reconstruction, RecorderLedger, Sentinel,
    SentinelConfig, StreamAnalyzer, SupervisedFold, Symbols,
};
use hwprof_instrument::{
    two_stage_link, Compiler, InstrumentedImage, KernelImage, LinkResult, ModuleSelect,
};
use hwprof_kernel386::funcs::{KFn, FUNCS, INLINES};
use hwprof_kernel386::kernel::{Kernel, KernelConfig};
use hwprof_kernel386::sim::{Sim, SimBuilder};
use hwprof_machine::machine::DEFAULT_EPROM_PHYS;
use hwprof_machine::wire::RemoteHost;
use hwprof_machine::EpromTap;
use hwprof_profiler::{
    parse_raw_lossy, serialize_raw, BoardConfig, CaptureSupervisor, Coverage, FaultInjector,
    FaultSpec, FlakyTransport, HealthReport, InjectedFaults, MemoryTransport, Profiler, RawRecord,
    RecorderConfig, SupervisedRun, SupervisorPolicy, TagMask, Transport,
};
use hwprof_tagfile::{TagFile, TagKind};
use hwprof_telemetry::{Registry, Snapshot, SpanLog};

use crate::backend::{BackendCost, BoardBackend, CaptureBackend, NativeCapture};
use crate::error::Error;

/// Text+data bytes of the uninstrumented kernel image (a 386BSD 0.1
/// GENERIC-ish size; only the Figure 2 address arithmetic consumes it).
pub const BASE_KERNEL_SIZE: u32 = 560 * 1024;

/// A workload: devices it needs plus the processes it spawns.
///
/// Built with [`Scenario::builder`]:
///
/// ```no_run
/// use hwprof::Scenario;
///
/// let s = Scenario::builder()
///     .disk()
///     .spawn(|sim| {
///         sim.spawn("worker", Box::new(|_ctx| { /* ... */ }));
///     })
///     .build();
/// ```
pub struct Scenario {
    host: Option<Box<dyn RemoteHost>>,
    disk: bool,
    spawn: SpawnHook,
}

/// The one-shot process-spawning hook a scenario runs at boot.
type SpawnHook = Box<dyn FnOnce(&Sim)>;

impl Scenario {
    /// Starts building a scenario: no remote host, no disk, nothing
    /// spawned.
    #[must_use]
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// This scenario with `f` run just before its own spawn hook —
    /// decorates a canned workload with bootstrap processes (e.g. a
    /// process that switches the clock sampler on).
    #[must_use = "returns the decorated scenario; the original is consumed"]
    pub fn with_spawn_prelude(self, f: impl FnOnce(&Sim) + 'static) -> Scenario {
        let inner = self.spawn;
        Scenario {
            host: self.host,
            disk: self.disk,
            spawn: Box::new(move |sim| {
                f(sim);
                inner(sim);
            }),
        }
    }
}

/// Builder for [`Scenario`].
#[derive(Default)]
pub struct ScenarioBuilder {
    host: Option<Box<dyn RemoteHost>>,
    disk: bool,
    spawn: Option<SpawnHook>,
}

impl ScenarioBuilder {
    /// The remote Ethernet host on the other end of the wire.
    #[must_use = "builder methods return the updated builder"]
    pub fn host(mut self, host: impl RemoteHost + 'static) -> Self {
        self.host = Some(Box::new(host));
        self
    }

    /// The scenario needs the IDE disk.
    #[must_use = "builder methods return the updated builder"]
    pub fn disk(mut self) -> Self {
        self.disk = true;
        self
    }

    /// Spawns the scenario's processes (runs once, just before the
    /// simulation starts).
    #[must_use = "builder methods return the updated builder"]
    pub fn spawn(mut self, f: impl FnOnce(&Sim) + 'static) -> Self {
        self.spawn = Some(Box::new(f));
        self
    }

    /// Finishes the scenario.  A scenario that never called
    /// [`spawn`](ScenarioBuilder::spawn) spawns nothing and the run
    /// reports [`Error::EmptyScenario`].
    #[must_use = "the built scenario must be handed to Experiment::scenario"]
    pub fn build(self) -> Scenario {
        Scenario {
            host: self.host,
            disk: self.disk,
            spawn: self.spawn.unwrap_or_else(|| Box::new(|_| {})),
        }
    }
}

/// A configured profiling experiment.
#[must_use = "an Experiment does nothing until a run method consumes it"]
pub struct Experiment {
    select: ModuleSelect,
    config: KernelConfig,
    board: BoardConfig,
    scenario: Option<Scenario>,
    armed: bool,
    faults: Option<(FaultSpec, u64)>,
    anomaly_limit_ppm: Option<u32>,
    /// Inert unless [`Experiment::telemetry`] set a live registry.
    telemetry: Registry,
    /// Inert unless [`Experiment::journal`] set a live journal.
    journal: SpanLog,
    backend: Option<Box<dyn CaptureBackend>>,
}

impl Default for Experiment {
    fn default() -> Self {
        Self::new()
    }
}

impl Experiment {
    /// Defaults: profile everything, stock board, 40 MHz PC, armed.
    pub fn new() -> Self {
        Experiment {
            select: ModuleSelect::All,
            config: KernelConfig::default(),
            board: BoardConfig::default(),
            scenario: None,
            armed: true,
            faults: None,
            anomaly_limit_ppm: None,
            telemetry: Registry::default(),
            journal: SpanLog::default(),
            backend: None,
        }
    }

    /// Selective profiling: compile only these modules with triggers
    /// (`swtch` stays tagged regardless — the analyzer needs it).
    #[must_use = "builder methods return the updated experiment"]
    pub fn profile_modules(mut self, modules: &[&'static str]) -> Self {
        self.select = ModuleSelect::only(modules);
        self
    }

    /// Profile every module (the macro view).
    #[must_use = "builder methods return the updated experiment"]
    pub fn profile_all(mut self) -> Self {
        self.select = ModuleSelect::All;
        self
    }

    /// Production build: no triggers at all (overhead comparisons).
    #[must_use = "builder methods return the updated experiment"]
    pub fn profile_none(mut self) -> Self {
        self.select = ModuleSelect::None;
        self
    }

    /// Kernel configuration (clock rate, checksum variant, ...).
    #[must_use = "builder methods return the updated experiment"]
    pub fn config(mut self, config: KernelConfig) -> Self {
        self.config = config;
        self
    }

    /// Board variant (stock 16384x24-bit, or the wide future-work one).
    #[must_use = "builder methods return the updated experiment"]
    pub fn board(mut self, board: BoardConfig) -> Self {
        self.board = board;
        self
    }

    /// The workload.
    #[must_use = "builder methods return the updated experiment"]
    pub fn scenario(mut self, s: Scenario) -> Self {
        self.scenario = Some(s);
        self
    }

    /// Leave the switch off (the board records nothing).
    #[must_use = "builder methods return the updated experiment"]
    pub fn unarmed(mut self) -> Self {
        self.armed = false;
        self
    }

    /// The measurement technique [`Experiment::try_capture`] drives:
    /// the board ([`BoardBackend`], the default), clock sampling,
    /// event counters, or ktrace-style software tracing — any
    /// [`CaptureBackend`].  Ignored by the other run methods, which
    /// are board-only by construction.
    #[must_use = "builder methods return the updated experiment"]
    pub fn backend(self, b: impl CaptureBackend + 'static) -> Self {
        self.backend_boxed(Box::new(b))
    }

    /// [`Experiment::backend`] for an already-boxed backend (e.g. from
    /// a `Vec<Box<dyn CaptureBackend>>` sweep).
    #[must_use = "builder methods return the updated experiment"]
    pub fn backend_boxed(mut self, b: Box<dyn CaptureBackend>) -> Self {
        self.backend = Some(b);
        self
    }

    /// Injects seeded faults into the capture/upload path
    /// ([`hwprof_profiler::FaultSpec`]): the one-shot upload is
    /// corrupted in transit, and streaming banks are corrupted (or
    /// refused) on their way to the workers.  Analysis automatically
    /// runs in recovery mode so every fault is classified in
    /// [`Anomalies`] rather than corrupting the numbers silently.
    #[must_use = "builder methods return the updated experiment"]
    pub fn faults(mut self, spec: FaultSpec, seed: u64) -> Self {
        self.faults = Some((spec, seed));
        self
    }

    /// Refuse the capture ([`Error::CorruptUpload`]) if classified
    /// anomalies exceed `ppm` per million tags (streaming runs check at
    /// [`Experiment::try_run_streaming`]; one-shot captures at
    /// [`Capture::try_analyze`]).
    #[must_use = "builder methods return the updated experiment"]
    pub fn anomaly_limit_ppm(mut self, ppm: u32) -> Self {
        self.anomaly_limit_ppm = Some(ppm);
        self
    }

    /// Publishes live run telemetry into `reg`: the board's counters
    /// (`board.*`), the supervisor's coverage/mask/transport ledger
    /// (`sup.*`, `transport.*`) on supervised runs, and the analysis
    /// pipeline's `stream.*` metrics on streaming runs.  Off by
    /// default: every producer then holds inert handles, so no metric
    /// atomic is touched anywhere on the capture path, and
    /// [`SupervisedCapture::metrics`] / [`SupervisedCapture::health`]
    /// return `None`.  Serve the registry over SNMP with
    /// [`hwprof_snmpmib::MibExporter`], or join it with the coverage
    /// ledger via [`SupervisedCapture::health`].
    #[must_use = "builder methods return the updated experiment"]
    pub fn telemetry(mut self, reg: &Registry) -> Self {
        self.telemetry = reg.clone();
        self
    }

    /// Records the capture pipeline's span journal into `log`: board
    /// bank swaps and overflows, the supervisor's armed-bank spans,
    /// dark windows, mask shifts and upload rounds, and the streaming
    /// pipeline's per-bank analyze spans, all with simulated
    /// timestamps.  Off by default: the producers then hold an inert
    /// journal that records nothing.  The simulated machine is
    /// bit-identical with or without it.  Render the journal alongside
    /// the kernel timeline through [`SupervisedCapture::as_profile`] /
    /// [`StreamCapture::as_profile`].
    #[must_use = "builder methods return the updated experiment"]
    pub fn journal(mut self, log: &SpanLog) -> Self {
        self.journal = log.clone();
        self
    }

    /// Compiles, links, plugs the board in and spawns the scenario's
    /// processes; shared by every capture mode.
    fn prepare(self) -> Result<PreparedRun, Error> {
        self.prepare_with_tap(|board, _| (Box::new(board.clone()), ()))
            .map(|(p, ())| p)
    }

    /// [`prepare`](Experiment::prepare) with a custom EPROM-socket tap:
    /// `make_tap` receives the freshly built board and the build's tag
    /// file and returns whatever sits on the socket (the bare board for
    /// plain captures, a [`CaptureSupervisor`] for supervised ones),
    /// plus whatever the caller needs back from the build.
    fn prepare_with_tap<T>(
        self,
        make_tap: impl FnOnce(&Profiler, &TagFile) -> (Box<dyn EpromTap>, T),
    ) -> Result<(PreparedRun, T), Error> {
        let telemetry = self.telemetry;
        let journal = self.journal;
        let scenario = self.scenario.ok_or(Error::MissingScenario)?;
        let image = compile_instrumented(&self.select)?;
        let tagfile = image.tagfile.clone();
        // The two-stage link resolves _ProfileBase for this build.
        let link = two_stage_link(
            KernelImage::new(BASE_KERNEL_SIZE, &image.stats),
            DEFAULT_EPROM_PHYS,
        )?;
        // The board on the EPROM socket.
        let board = Profiler::new(self.board);
        board.set_telemetry(&telemetry);
        board.set_span_log(&journal);
        if self.armed {
            board.set_switch(true);
        }
        let (tap, made) = make_tap(&board, &tagfile);
        let mut builder = SimBuilder::new()
            .config(self.config)
            .image(image)
            .profiler(tap);
        if let Some(host) = scenario.host {
            builder = builder.ether(host);
        }
        if scenario.disk {
            builder = builder.disk();
        }
        let sim = builder.build();
        (scenario.spawn)(&sim);
        if sim.process_count() == 0 {
            return Err(Error::EmptyScenario);
        }
        let p = PreparedRun {
            board,
            sim,
            tagfile,
            link,
            telemetry,
            journal,
        };
        Ok((p, made))
    }

    /// Builds, links, runs and uploads.
    ///
    /// # Errors
    ///
    /// See [`Error`]; a full RAM is *not* an error here — the capture
    /// simply stopped early, exactly like the hardware, and
    /// [`Capture::overflowed`] says so.
    pub fn try_run(self) -> Result<Capture, Error> {
        let faults = self.faults;
        let anomaly_limit_ppm = self.anomaly_limit_ppm;
        let p = self.prepare()?;
        let kernel = p.sim.run();
        let mut records = p.board.records();
        let mut injected = None;
        let mut trailing_bytes = 0u64;
        if let Some((spec, seed)) = faults {
            // The upload leg: records corrupt in the carried RAM, then
            // the byte stream itself can lose its tail.
            let inj = FaultInjector::new(spec, seed);
            let bytes = inj.corrupt_upload(serialize_raw(&inj.corrupt_records(&records)));
            let (parsed, trailing) = parse_raw_lossy(&bytes);
            records = parsed;
            trailing_bytes = trailing as u64;
            injected = Some(inj.counts());
        }
        Ok(Capture {
            records,
            overflowed: p.board.leds().overflow,
            missed: p.board.missed(),
            tagfile: p.tagfile,
            link: p.link,
            kernel,
            injected,
            trailing_bytes,
            anomaly_limit_ppm,
        })
    }

    /// Backend-agnostic capture: builds and links as usual, then drives
    /// the configured [`CaptureBackend`] (default: the board) through
    /// its lifecycle — `plan` before the build, `arm` before the run,
    /// `drain` after it, `finish` to normalize into a
    /// [`Reconstruction`].  The same scenario runs unmodified under
    /// every backend; only the observation technique changes.
    ///
    /// # Errors
    ///
    /// Everything [`Experiment::try_run`] reports, plus
    /// [`Error::BackendFailed`] when the backend could not observe the
    /// run (no samples taken, trace buffer overflowed, ...).
    pub fn try_capture(mut self) -> Result<BackendCapture, Error> {
        let mut backend = self
            .backend
            .take()
            .unwrap_or_else(|| Box::new(BoardBackend));
        // The backend owns the arm switch; prepare leaves the board off.
        self.armed = false;
        backend.plan(&mut self.select, &mut self.config);
        let p = self.prepare()?;
        p.sim.with_kernel(|k| backend.arm(&p.board, k))?;
        let mut kernel = p.sim.run();
        let native = backend.drain(&p.board, &mut kernel)?;
        let profile = backend.finish(&native, &p.tagfile, &kernel)?;
        Ok(BackendCapture {
            backend: backend.name(),
            cost: backend.cost_model(),
            native,
            profile,
            tagfile: p.tagfile,
            link: p.link,
            kernel,
            journal: p.journal,
        })
    }

    /// Drain-while-armed capture: the board streams full half-RAM banks
    /// into a pool of `workers` analysis threads while the scenario is
    /// still running, and the per-bank reconstructions are merged — the
    /// result is bit-identical to uploading all the banks and running
    /// the batch analysis, but the capture length is bounded by the
    /// workload, not the RAM.
    ///
    /// # Errors
    ///
    /// Everything [`Experiment::try_run`] reports, plus
    /// [`Error::BoardOverflow`] if the pipeline ever refused a bank and
    /// the board stopped storing, and [`Error::AnalysisPanicked`] if
    /// analyzing a bank panicked (the worker survives, but the pool
    /// discards the capture's profile).
    pub fn try_run_streaming(self, workers: usize) -> Result<StreamCapture, Error> {
        let faults = self.faults;
        let anomaly_limit_ppm = self.anomaly_limit_ppm;
        let p = self.prepare()?;
        let injector = faults.map(|(spec, seed)| FaultInjector::new(spec, seed));
        // Injected faults are analyzed in recovery mode.
        let recover = injector.is_some();
        let analyzer =
            StreamAnalyzer::spawn(&p.tagfile, workers, recover, &p.telemetry, &p.journal);
        let feed: Box<dyn hwprof_profiler::BankSink> = match &injector {
            // Banks corrupt (or are refused) in transit to the workers.
            Some(inj) => Box::new(inj.sink(Box::new(analyzer.feed()))),
            None => Box::new(analyzer.feed()),
        };
        p.board.set_drain(feed);
        let kernel = p.sim.run();
        p.board.set_switch(false);
        // The operator pulls the last, partial RAM...
        let overflowed = p.board.leds().overflow;
        if !overflowed {
            p.board.flush_drain();
        }
        // ...and unplugs the sink so the worker pool can drain out.
        drop(p.board.clear_drain());
        let banks = p.board.banks_drained();
        let missed = p.board.missed();
        // The board's banks are stream 0, absent if none was drained.
        let stream = analyzer.finish().remove(&0);
        if let Some(bank) = stream.as_ref().and_then(|s| s.panicked) {
            return Err(Error::AnalysisPanicked { bank });
        }
        let empty = || Reconstruction::empty(Symbols::from_tagfile(&p.tagfile));
        let profile = stream.map_or_else(empty, |s| s.profile);
        if overflowed {
            return Err(Error::BoardOverflow { banks, missed });
        }
        if let Some(limit) = anomaly_limit_ppm {
            check_anomaly_limit(&profile.anomalies, profile.tags as u64, limit)?;
        }
        Ok(StreamCapture {
            profile,
            banks,
            missed,
            tagfile: p.tagfile,
            link: p.link,
            kernel,
            injected: injector.map(|inj| inj.counts()),
            journal: p.journal,
        })
    }

    /// Supervised capture: a [`CaptureSupervisor`] wraps the board and
    /// drives the run to completion instead of dying on the first
    /// overflow — full banks are pulled, uploaded (with retry, backoff
    /// and a circuit breaker over the policy's seeded transport) and the
    /// board re-armed, each swap leaving an explicit coverage gap; under
    /// sustained overload the EE-PAL tag mask steps down its ladder and
    /// back up when pressure subsides.  A [`SupervisedFold`] decodes
    /// each bank once as it is delivered and stitches the sessions into
    /// one timeline reconstruction — bit-identical to
    /// [`Analyzer::run`](hwprof_analysis::Analyzer::run) over the
    /// finished run — whose report carries a "Coverage" block.
    ///
    /// # Errors
    ///
    /// Everything [`Experiment::try_run`] reports, plus
    /// [`Error::TransportFailed`] when every captured bank was lost and
    /// [`Error::CoverageTooLow`] when the covered fraction ends below
    /// [`SupervisorPolicy::min_coverage_ppm`].
    pub fn supervised(self, policy: SupervisorPolicy) -> Result<SupervisedCapture, Error> {
        let transport = default_transport(&policy);
        self.supervised_with(policy, transport)
    }

    /// [`Experiment::supervised`] with a caller-supplied [`Transport`]
    /// (e.g. a channel into a live pipeline, or a transport with a
    /// scripted outage).
    pub fn supervised_with(
        self,
        policy: SupervisorPolicy,
        transport: Box<dyn Transport>,
    ) -> Result<SupervisedCapture, Error> {
        self.supervise(policy, transport, |_| FlightRecorder::default())
    }

    /// The one supervised body behind every supervised entry point:
    /// mask setup, the run with its live [`SupervisedFold`] feeding the
    /// [`FlightRecorder`] that `recorder` builds (inert for a plain
    /// supervised run), the delivery and coverage checks.
    fn supervise(
        mut self,
        policy: SupervisorPolicy,
        transport: Box<dyn Transport>,
        recorder: impl FnOnce(&TagFile) -> FlightRecorder,
    ) -> Result<SupervisedCapture, Error> {
        // The supervisor owns the arm switch; the board starts off.
        self.armed = false;
        let pol = policy.clone();
        let telem = self.telemetry.clone();
        let jour = self.journal.clone();
        let (p, (sup, fold, rec)) = self.prepare_with_tap(move |board, tagfile| {
            // The EE-PAL decode for this build: context-switch tags
            // always pass.
            let cswitch = tagfile
                .entries()
                .iter()
                .filter(|e| e.kind == TagKind::ContextSwitch)
                .map(|e| e.tag);
            let mask = TagMask::new(cswitch);
            let sup = CaptureSupervisor::new(board.clone(), mask, pol, transport);
            sup.set_telemetry(&telem);
            sup.set_span_log(&jour);
            let rec = recorder(tagfile);
            rec.set_telemetry(&telem);
            rec.set_span_log(&jour);
            let fold = SupervisedFold::new(tagfile, rec.clone());
            sup.set_session_sink(Box::new(fold.clone()));
            (Box::new(sup.clone()), (sup, fold, rec))
        })?;
        let kernel = p.sim.run();
        let run = sup.finish();
        let profile = fold.finish(&run);
        let cov = run.coverage;
        if run.sessions.is_empty() && cov.banks_lost > 0 {
            return Err(Error::TransportFailed {
                banks_lost: cov.banks_lost,
                failures: cov.transport_failures,
            });
        }
        let achieved_ppm = cov.covered_ppm();
        if achieved_ppm < policy.min_coverage_ppm {
            return Err(Error::CoverageTooLow {
                achieved_ppm,
                required_ppm: policy.min_coverage_ppm,
            });
        }
        Ok(SupervisedCapture {
            run,
            profile,
            tagfile: p.tagfile,
            link: p.link,
            kernel,
            recorder: rec,
            telemetry: p.telemetry,
            journal: p.journal,
        })
    }

    /// Continuous profiling: a supervised run with an always-on
    /// [`FlightRecorder`] subscribed to the capture stream, folding
    /// every delivered bank into fixed-width window rollups as the
    /// workload runs.  The returned capture's
    /// [`recorder`](SupervisedCapture::recorder) carries the live query
    /// surface (`window` / `range` / `diff` / `ledger`) alongside the
    /// usual full-run reconstruction, which is bit-identical to what
    /// [`Experiment::supervised`] with the same policy produces.
    ///
    /// # Errors
    ///
    /// Everything [`Experiment::supervised`] reports.
    pub fn record(
        self,
        policy: SupervisorPolicy,
        cfg: RecorderConfig,
    ) -> Result<SupervisedCapture, Error> {
        let transport = default_transport(&policy);
        self.supervise(policy, transport, |tf| FlightRecorder::new(tf, cfg))
    }

    /// Continuous profiling with regression watching: an
    /// [`Experiment::record`] run whose sealed window stream is then
    /// evaluated by a deterministic [`Sentinel`] — baseline warm-up,
    /// the fixed detector set, hysteresis, and an append-only
    /// [`AlertJournal`](hwprof_analysis::AlertJournal).  Returns a
    /// [`SentinelHandle`] pairing the sentinel with the recorded
    /// [`SupervisedCapture`].
    ///
    /// The sentinel is a pure read over the recorder: the capture is
    /// bit-identical to what `record` with the same policy and config
    /// produces.
    ///
    /// # Errors
    ///
    /// Everything [`Experiment::record`] reports.
    pub fn watch(
        self,
        policy: SupervisorPolicy,
        cfg: RecorderConfig,
        sentinel: SentinelConfig,
    ) -> Result<SentinelHandle, Error> {
        let transport = default_transport(&policy);
        self.watch_with(policy, transport, cfg, sentinel)
    }

    /// [`Experiment::watch`] with a caller-supplied [`Transport`].
    pub fn watch_with(
        self,
        policy: SupervisorPolicy,
        transport: Box<dyn Transport>,
        cfg: RecorderConfig,
        sentinel: SentinelConfig,
    ) -> Result<SentinelHandle, Error> {
        let capture = self.supervise(policy, transport, |tf| FlightRecorder::new(tf, cfg))?;
        let mut sent = Sentinel::new(sentinel);
        sent.set_telemetry(&capture.telemetry);
        sent.scan(&capture.recorder);
        Ok(SentinelHandle {
            sentinel: sent,
            capture,
        })
    }
}

/// The policy's own seeded flaky wire: what `supervised`, `record` and
/// `watch` upload through when the caller supplies no transport.
fn default_transport(policy: &SupervisorPolicy) -> Box<dyn Transport> {
    Box::new(FlakyTransport::new(
        MemoryTransport::new(),
        policy.transport_fail_ppm,
        policy.seed,
    ))
}

/// The trust gate shared by both capture modes: anomalies per million
/// tags against the caller's limit.
fn check_anomaly_limit(anomalies: &Anomalies, tags: u64, limit_ppm: u32) -> Result<(), Error> {
    if anomalies.exceeds(tags, limit_ppm) {
        return Err(Error::CorruptUpload {
            anomalies: anomalies.total(),
            tags,
            limit_ppm,
        });
    }
    Ok(())
}

/// Everything `prepare` sets up before a run.
struct PreparedRun {
    board: Profiler,
    sim: Sim,
    tagfile: TagFile,
    link: LinkResult,
    telemetry: Registry,
    journal: SpanLog,
}

/// The upload: everything the run produced.
pub struct Capture {
    /// The board's RAM contents.
    pub records: Vec<RawRecord>,
    /// The overflow LED: the RAM filled and capture stopped early.
    pub overflowed: bool,
    /// Trigger reads the board saw while not storing.
    pub missed: u64,
    /// The name/tag file of this build.
    pub tagfile: TagFile,
    /// The resolved two-stage link.
    pub link: LinkResult,
    /// Final kernel state (ground truth, statistics).
    pub kernel: Kernel,
    /// Fault totals, when the run injected faults
    /// ([`Experiment::faults`]).
    pub injected: Option<InjectedFaults>,
    /// Upload bytes that never completed a 5-byte record (nonzero only
    /// when fault injection truncated the stream).
    pub trailing_bytes: u64,
    /// Threshold carried from [`Experiment::anomaly_limit_ppm`].
    anomaly_limit_ppm: Option<u32>,
}

impl Capture {
    /// Runs the analysis software over this capture (strict mode); the
    /// configured front door for other flavours is
    /// [`Analyzer::for_tagfile`]`(&capture.tagfile)`.
    pub fn analyze(&self) -> Reconstruction {
        Analyzer::for_tagfile(&self.tagfile)
            .records(&self.records)
            .expect("strict analysis configures no anomaly budget")
    }

    /// Recovery-mode analysis with a trust gate: the upload-level
    /// truncation (bytes that never completed a record) joins the
    /// decode/reconstruction classes in the anomaly ledger, and the
    /// call errors with [`Error::CorruptUpload`] if classified
    /// anomalies exceed the experiment's
    /// [`Experiment::anomaly_limit_ppm`] per million tags (unset never
    /// refuses).
    pub fn try_analyze(&self) -> Result<Reconstruction, Error> {
        let mut r = Analyzer::for_tagfile(&self.tagfile)
            .recovering(true)
            .records(&self.records)
            .expect("recovery analysis configures no anomaly budget");
        if self.trailing_bytes > 0 {
            r.note(&Anomalies {
                truncations: 1,
                ..Anomalies::default()
            });
        }
        let limit = self.anomaly_limit_ppm.unwrap_or(1_000_000);
        check_anomaly_limit(&r.anomalies, r.tags as u64, limit)?;
        Ok(r)
    }
}

/// What a backend-agnostic [`Experiment::try_capture`] run produced:
/// the backend's native data, its normalized reconstruction, and the
/// declared cost model it ran under.
pub struct BackendCapture {
    /// Which backend observed the run ([`CaptureBackend::name`]).
    pub backend: &'static str,
    /// The backend's declared cost model.
    pub cost: BackendCost,
    /// The backend's native output (banks, samples, or counters).
    pub native: NativeCapture,
    /// The normalized reconstruction — the same monoid every capture
    /// mode produces, so reports and exports work unchanged.
    pub profile: Reconstruction,
    /// The name/tag file of this build.
    pub tagfile: TagFile,
    /// The resolved two-stage link.
    pub link: LinkResult,
    /// Final kernel state (ground truth, statistics).
    pub kernel: Kernel,
    /// The span journal the run recorded into; inert unless
    /// [`Experiment::journal`] was configured.
    journal: SpanLog,
}

impl BackendCapture {
    /// The unified [`Profile`] view over the normalized reconstruction,
    /// carrying the run's span journal when [`Experiment::journal`] was
    /// configured — the one render/export surface every capture path
    /// shares.
    pub fn as_profile(&self) -> Profile<'_> {
        Profile::new(&self.profile)
            .name(self.backend)
            .spans(&self.journal)
    }
}

/// What a drain-while-armed run produced: the capture was analyzed as
/// it streamed, so the profile arrives already reconstructed.
pub struct StreamCapture {
    /// The merged reconstruction over every drained bank.
    pub profile: Reconstruction,
    /// Banks the board handed to the pipeline (including the final
    /// partial one).
    pub banks: u64,
    /// Trigger reads the board saw while not storing (switch off before
    /// arming; zero in a clean streaming run).
    pub missed: u64,
    /// The name/tag file of this build.
    pub tagfile: TagFile,
    /// The resolved two-stage link.
    pub link: LinkResult,
    /// Final kernel state (ground truth, statistics).
    pub kernel: Kernel,
    /// Fault totals, when the run injected faults
    /// ([`Experiment::faults`]).
    pub injected: Option<InjectedFaults>,
    /// The span journal the run recorded into; inert unless
    /// [`Experiment::journal`] was configured.
    journal: SpanLog,
}

impl StreamCapture {
    /// The unified [`Profile`] view over the streamed reconstruction,
    /// carrying the run's span journal when [`Experiment::journal`]
    /// was configured: `.chrome_trace()` / `.speedscope()` /
    /// `.folded()` / `.html()` render it for Perfetto, speedscope,
    /// flamegraph and standalone-report tooling.
    pub fn as_profile(&self) -> Profile<'_> {
        Profile::new(&self.profile).spans(&self.journal)
    }
}

/// What a supervised run ([`Experiment::supervised`],
/// [`Experiment::record`]) produced: the delivered per-bank sessions
/// with their gap/downgrade bookkeeping, the stitched reconstruction,
/// and the flight recorder that watched the run (inert unless it
/// recorded).
pub struct SupervisedCapture {
    /// The supervised run itself: delivered sessions, explicit gaps,
    /// final ladder level and the full [`Coverage`] ledger.
    pub run: SupervisedRun,
    /// The gap-aware stitched reconstruction (coverage folded in, so
    /// [`hwprof_analysis::summary_report`] prints the Coverage block).
    pub profile: Reconstruction,
    /// The name/tag file of this build.
    pub tagfile: TagFile,
    /// The resolved two-stage link.
    pub link: LinkResult,
    /// Final kernel state (ground truth, statistics).
    pub kernel: Kernel,
    /// The sealed flight recorder; inert unless the run came from
    /// [`Experiment::record`] or [`Experiment::watch`].
    recorder: FlightRecorder,
    /// The registry the run published into; inert unless
    /// [`Experiment::telemetry`] was configured.
    telemetry: Registry,
    /// The span journal the run recorded into; inert unless
    /// [`Experiment::journal`] was configured.
    journal: SpanLog,
}

impl SupervisedCapture {
    /// The sealed flight recorder (cloneable; queries are live): the
    /// window ring of an [`Experiment::record`] or
    /// [`Experiment::watch`] run, the inert recorder otherwise.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The recorder's exact `covered + dark + evicted == elapsed`
    /// ledger (all zero when the run recorded nothing).
    pub fn ledger(&self) -> RecorderLedger {
        self.recorder.ledger()
    }

    /// The run's coverage ledger.
    pub fn coverage(&self) -> &Coverage {
        &self.run.coverage
    }

    /// The unified [`Profile`] view over the stitched reconstruction,
    /// placed on the supervised timeline (per-bank lanes, gap slices,
    /// mask-change markers) and carrying the run's span journal when
    /// [`Experiment::journal`] was configured: `.chrome_trace()` /
    /// `.speedscope()` / `.folded()` / `.html()` render the whole
    /// capture — kernel activity and pipeline — as one trace.
    pub fn as_profile(&self) -> Profile<'_> {
        Profile::new(&self.profile)
            .run(&self.run)
            .spans(&self.journal)
    }

    /// A point-in-time snapshot of the run's telemetry registry, when
    /// [`Experiment::telemetry`] was configured.
    pub fn metrics(&self) -> Option<Snapshot> {
        self.telemetry.is_on().then(|| self.telemetry.snapshot())
    }

    /// Joins the live metrics with the [`Coverage`] ledger: every
    /// metric↔ledger pairing the two bookkeeping paths maintain
    /// independently, checked for exact agreement
    /// ([`HealthReport::is_consistent`]).  `None` when the run had no
    /// [`Experiment::telemetry`] registry.
    pub fn health(&self) -> Option<HealthReport> {
        self.metrics()
            .map(|snap| HealthReport::new(snap, self.run.coverage))
    }
}

/// What [`Experiment::watch`] produced: the sealed [`Sentinel`] —
/// baseline, alert journal, firing set — paired with the recorded
/// [`SupervisedCapture`] it evaluated.
pub struct SentinelHandle {
    sentinel: Sentinel,
    capture: SupervisedCapture,
}

impl SentinelHandle {
    /// The sentinel itself: baseline, config, alert journal, firing
    /// set, evaluation counters.
    pub fn sentinel(&self) -> &Sentinel {
        &self.sentinel
    }

    /// The recorded capture (bit-identical to what
    /// [`Experiment::record`] with the same inputs produces).
    pub fn handle(&self) -> &SupervisedCapture {
        &self.capture
    }

    /// The unified [`Profile`] view over the full-run reconstruction
    /// with the alert journal attached: HTML grows an Alerts section,
    /// the Chrome trace grows alert instant markers.
    pub fn as_profile(&self) -> Profile<'_> {
        self.capture
            .as_profile()
            .alerts(self.sentinel.journal().entries())
    }

    /// A deterministic text digest of the sentinel state and journal.
    pub fn describe(&self) -> String {
        self.sentinel.describe()
    }

    /// Splits into the sentinel and the recorded capture.
    pub fn into_parts(self) -> (Sentinel, SupervisedCapture) {
        (self.sentinel, self.capture)
    }
}

/// Compiles the instrumented kernel's tag file without running
/// anything: the same modified compiler pass every [`Experiment`] run
/// uses (`swtch` always tagged), on its own.
///
/// The compile is deterministic, so every machine in a fleet built
/// with the same `select` shares one tag file — which is what lets a
/// fleet aggregator build its decoder and symbol table up front and
/// merge per-machine [`Reconstruction`]s through the monoid.
pub fn build_tagfile(select: &ModuleSelect) -> Result<TagFile, Error> {
    Ok(compile_instrumented(select)?.tagfile)
}

/// The modified compiler pass over `select`, with `swtch` always
/// tagged.
fn compile_instrumented(select: &ModuleSelect) -> Result<InstrumentedImage, Error> {
    let mut compiler = Compiler::new(500);
    Ok(compiler.compile_forced(&FUNCS, &INLINES, select, &[KFn::Swtch.idx()])?)
}
