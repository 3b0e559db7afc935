//! The kernel state block.

use hwprof_instrument::{Compiler, InstrumentedImage, ModuleSelect};
use hwprof_machine::{CostModel, Cycles, Machine};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::bio::FsState;
use crate::clock::Callouts;
use crate::funcs::{FUNCS, INLINES};
use crate::kern_descrip::FileTable;
use crate::ktrace::Ktrace;
use crate::malloc::KmemState;
use crate::proc::ProcTable;
use crate::sched::Sched;
use crate::socket::NetState;
use crate::spl::SplState;
use crate::vm::VmState;

/// Build-time and policy knobs, including the ablation variants the
/// paper's what-if analyses call for.
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// hardclock frequency.
    pub clock_hz: u64,
    /// Use the recoded assembler `in_cksum` instead of the stock C one.
    pub cksum_asm: bool,
    /// External mbufs: leave received packets in controller memory and
    /// let the stack read them over the ISA bus (the paper's what-if).
    pub external_mbufs: bool,
    /// 68020-study ablation: the recoded driver copies with wide bursts.
    pub driver_word_copy: bool,
    /// Compute UDP checksums (off by default, as NFS deployments ran).
    pub udp_cksum: bool,
    /// Run a separate statistics clock at this average rate; samples are
    /// taken there instead of at hardclock (decoupling the profiling
    /// clock from the scheduling clock).
    pub statclock_hz: Option<u64>,
    /// Give the statistics clock a pseudo-random period (the paper's
    /// skewed-clock improvement: clock-synchronised activity is no
    /// longer invisible to the sampler).
    pub statclock_skewed: bool,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            clock_hz: 100,
            cksum_asm: false,
            external_mbufs: false,
            driver_word_copy: false,
            udp_cksum: false,
            statclock_hz: None,
            statclock_skewed: false,
            seed: 0x1993,
        }
    }
}

/// CPU cycles one clock sample burns (buffer update + cache effects):
/// 3 µs on the 40 MHz 386.
pub const SAMPLE_COST: Cycles = 120;

/// CPU cycles one software-trace event burns (store + index + cache
/// effects): 1 µs, ~20x the board's trigger read.
pub const SWTRACE_EVENT_COST: Cycles = 40;

/// Statistical clock-sampling profiler state (the traditional technique
/// the paper rejects: "the finer the granularity, the more time is spent
/// running the profiling clock and not actually running the kernel").
///
/// Samples are taken in `gatherstats` at every clock interrupt and
/// record the function that was executing when the interrupt arrived.
/// Raising `clock_hz` gives finer granularity *and* more perturbation —
/// the trade-off quantified in the baseline experiment.
#[derive(Debug, Clone)]
pub struct Sampling {
    /// Master switch.
    pub enabled: bool,
    /// Samples per kernel function (indexed by `KFn as usize`).
    pub counts: Vec<u64>,
    /// Samples that landed in the idle loop.
    pub idle_samples: u64,
    /// Samples that landed in user mode (no kernel frame open).
    pub user_samples: u64,
    /// Total samples.
    pub total: u64,
}

impl Default for Sampling {
    fn default() -> Self {
        Sampling {
            enabled: false,
            counts: vec![0; crate::funcs::NFUNCS],
            idle_samples: 0,
            user_samples: 0,
            total: 0,
        }
    }
}

/// Software tracing state (the ktrace-style alternative to the board):
/// the same entry/exit trigger points the hardware observes, but logged
/// by kernel code into a kernel buffer.  Each logged event costs real
/// CPU cycles — a buffer store, an index update and the cache traffic
/// they drag in — which is the intrusiveness trade-off the paper's
/// board avoids ("the overhead of the system is very low, only one
/// extra memory read cycle per event").
#[derive(Debug, Clone)]
pub struct SwTrace {
    /// Master switch.  When off, the hooks are a single branch and the
    /// simulated machine is bit-identical to an untraced kernel.
    pub enabled: bool,
    /// Ring capacity; events beyond it are dropped (and counted), like
    /// a real ktrace buffer under load.
    pub capacity: usize,
    /// Logged events: the hardware tag that would have been presented
    /// to the board, with the absolute microsecond time *after* the
    /// logging cost was charged (software tracing observes its own
    /// dilated timeline).
    pub events: Vec<(u16, u64)>,
    /// Events dropped once the buffer filled.
    pub dropped: u64,
}

impl Default for SwTrace {
    fn default() -> Self {
        SwTrace {
            enabled: false,
            capacity: 1 << 20,
            events: Vec::new(),
            dropped: 0,
        }
    }
}

/// The event-statistics counters every kernel keeps (the coarse
/// measurement tool the paper contrasts the Profiler against).
#[derive(Debug, Default, Clone)]
pub struct KernStats {
    /// Hardware interrupts taken.
    pub intrs: u64,
    /// Clock ticks.
    pub ticks: u64,
    /// Context switches performed by `swtch`.
    pub cswitches: u64,
    /// System calls.
    pub syscalls: u64,
    /// Network packets in.
    pub packets_in: u64,
    /// Network packets out.
    pub packets_out: u64,
    /// Packets dropped for bad checksums.
    pub cksum_drops: u64,
    /// Disk sector transfers.
    pub disk_xfers: u64,
    /// Page faults serviced.
    pub page_faults: u64,
}

/// The whole kernel: machine, image and every subsystem's state.
pub struct Kernel {
    /// The hardware underneath.
    pub machine: Machine,
    /// The instrumented build: which functions carry triggers.
    pub image: InstrumentedImage,
    /// Scheduler state.
    pub sched: Sched,
    /// Process table.
    pub procs: ProcTable,
    /// Interrupt priority (spl) state.
    pub spl: SplState,
    /// Callout (timeout) table.
    pub callouts: Callouts,
    /// Open-file table.
    pub files: FileTable,
    /// Networking state.
    pub net: NetState,
    /// Virtual memory state.
    pub vm: VmState,
    /// Filesystem and block I/O state.
    pub fs: FsState,
    /// Kernel memory allocator state.
    pub kmem: KmemState,
    /// The ground-truth oracle.
    pub trace: Ktrace,
    /// Event-statistics counters.
    pub stats: KernStats,
    /// Configuration.
    pub config: KernelConfig,
    /// Seeded workload randomness.
    pub rng: StdRng,
    /// Live (non-zombie) processes.
    pub live_procs: u32,
    /// Clock-sampling profiler state.
    pub sampling: Sampling,
    /// Software tracing state (ktrace-style trigger logging).
    pub swtrace: SwTrace,
    /// Function executing when the current interrupt arrived (what the
    /// sampling profiler's program-counter snapshot resolves to).
    pub intr_interrupted: Option<crate::funcs::KFn>,
}

impl Kernel {
    /// Builds a kernel on `machine` running `image`.
    pub fn new(machine: Machine, image: InstrumentedImage, config: KernelConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        Kernel {
            machine,
            image,
            sched: Sched::new(),
            procs: ProcTable::new(),
            spl: SplState::new(),
            callouts: Callouts::new(),
            files: FileTable::new(),
            net: NetState::new(),
            vm: VmState::new(),
            fs: FsState::new(),
            kmem: KmemState::new(),
            trace: Ktrace::new(),
            stats: KernStats::default(),
            config,
            rng,
            live_procs: 0,
            sampling: Sampling::default(),
            swtrace: SwTrace::default(),
            intr_interrupted: None,
        }
    }

    /// Logs one trigger event into the software trace, charging its
    /// per-event cost first so the logged timestamp (and everything
    /// after it, ground truth included) sits on the dilated timeline —
    /// the same ordering the hardware trigger uses in `Ctx::fn_enter`.
    /// A no-op when tracing is off.
    #[inline]
    pub fn swtrace_record(&mut self, tag: u16) {
        if !self.swtrace.enabled {
            return;
        }
        self.machine.now += SWTRACE_EVENT_COST;
        if self.swtrace.events.len() < self.swtrace.capacity {
            let t = self.machine.now_us();
            self.swtrace.events.push((tag, t));
        } else {
            self.swtrace.dropped += 1;
        }
    }

    /// An uninstrumented ("production") image for this kernel's function
    /// table.
    pub fn plain_image() -> InstrumentedImage {
        Compiler::new(500)
            .compile(&FUNCS, &INLINES, &ModuleSelect::None)
            .expect("empty selection cannot collide")
    }

    /// A fully instrumented image (every module profiled).
    pub fn full_image() -> InstrumentedImage {
        Compiler::new(500)
            .compile(&FUNCS, &INLINES, &ModuleSelect::All)
            .expect("fresh tag file cannot collide")
    }

    /// Cost model shorthand.
    #[inline]
    pub fn cost(&self) -> &CostModel {
        &self.machine.cost
    }

    /// Current time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.machine.now_us()
    }
}
