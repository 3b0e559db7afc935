//! The simulation controller: builds the machine + kernel, spawns
//! process threads, runs to completion.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use hwprof_instrument::InstrumentedImage;
use hwprof_machine::ide::{DiskGeometry, IdeController};
use hwprof_machine::wire::{RemoteHost, Wire};
use hwprof_machine::{CostModel, EpromTap, Machine, WdCard};

use crate::ctx::{Ctx, SimShared};
use crate::funcs::KFn;
use crate::kernel::{Kernel, KernelConfig};
use crate::proc::{Pid, ProcState};
use crate::user::UserProgram;

/// Builder for a simulation.
pub struct SimBuilder {
    cost: CostModel,
    config: KernelConfig,
    image: InstrumentedImage,
    ether_host: Option<Box<dyn RemoteHost>>,
    disk: bool,
    profiler: Option<Box<dyn EpromTap>>,
}

impl Default for SimBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SimBuilder {
    /// Defaults: 40 MHz PC cost model, 100 Hz clock, uninstrumented
    /// kernel, no devices.
    pub fn new() -> Self {
        SimBuilder {
            cost: CostModel::pc386(),
            config: KernelConfig::default(),
            image: Kernel::plain_image(),
            ether_host: None,
            disk: false,
            profiler: None,
        }
    }

    /// Use a specific cost model (e.g. the 68020 board).
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Use a specific kernel configuration.
    pub fn config(mut self, config: KernelConfig) -> Self {
        self.config = config;
        self
    }

    /// Run a specific instrumented build.
    pub fn image(mut self, image: InstrumentedImage) -> Self {
        self.image = image;
        self
    }

    /// Install the Ethernet card wired to `host`.
    pub fn ether(mut self, host: Box<dyn RemoteHost>) -> Self {
        self.ether_host = Some(host);
        self
    }

    /// Install the IDE disk.
    pub fn disk(mut self) -> Self {
        self.disk = true;
        self
    }

    /// Plug a Profiler (or any tap) into the EPROM socket.
    pub fn profiler(mut self, tap: Box<dyn EpromTap>) -> Self {
        self.profiler = Some(tap);
        self
    }

    /// Builds the simulation.
    pub fn build(self) -> Sim {
        let mut machine = Machine::new(self.cost);
        machine.start_clock(self.config.clock_hz);
        if let Some(hz) = self.config.statclock_hz {
            machine.start_statclock(hz, self.config.statclock_skewed);
        }
        if let Some(host) = self.ether_host {
            machine.wd = Some(WdCard::new());
            machine.attach_wire(Wire::new(host));
        }
        if self.disk {
            machine.ide = Some(IdeController::new(DiskGeometry::st3144()));
        }
        machine.eprom_tap = self.profiler;
        let kernel = Kernel::new(machine, self.image, self.config);
        Sim {
            shared: Arc::new(SimShared::new(kernel)),
        }
    }
}

/// A built simulation, ready to spawn processes and run.
pub struct Sim {
    shared: Arc<SimShared>,
}

impl Sim {
    /// Wraps an already-built kernel.
    pub fn from_kernel(kernel: Kernel) -> Self {
        Sim {
            shared: Arc::new(SimShared::new(kernel)),
        }
    }

    /// Creates a process that will run `prog`; call before [`Sim::run`].
    pub fn spawn(&self, name: &str, prog: UserProgram) -> Pid {
        let mut k = self.shared.kernel.lock();
        let pid = k.procs.alloc(0, name);
        k.live_procs += 1;
        k.procs.get_mut(pid).state = ProcState::Run;
        k.sched.enqueue(pid);
        drop(k);
        spawn_proc_thread(self.shared.clone(), pid, prog);
        pid
    }

    /// Runs `f` against the kernel while the simulation is stopped
    /// (before [`Sim::run`], or from the controlling thread between
    /// spawns).  This is how a harness pokes run-time kernel state the
    /// builder cannot reach — switching the clock sampler or the
    /// software trace on — without racing the process threads.
    pub fn with_kernel<R>(&self, f: impl FnOnce(&mut Kernel) -> R) -> R {
        let mut k = self.shared.kernel.lock();
        f(&mut k)
    }

    /// Processes alive right now; before [`Sim::run`] this is the number
    /// spawned, letting a harness reject an empty scenario without
    /// tripping the scheduler's panic.
    pub fn process_count(&self) -> usize {
        self.shared.kernel.lock().live_procs as usize
    }

    /// Runs the simulation until every process has exited; returns the
    /// final kernel for inspection.
    ///
    /// # Panics
    ///
    /// Propagates any panic from a process thread (watchdog, kernel
    /// assertion).
    pub fn run(self) -> Kernel {
        {
            let mut k = self.shared.kernel.lock();
            let first = k.sched.pop().expect("no processes spawned");
            k.sched.current = first;
        }
        self.shared.cv.notify_all();
        let mut first_panic = None;
        loop {
            let handle = { self.shared.handles.lock().pop() };
            match handle {
                Some(h) => {
                    if let Err(e) = h.join() {
                        first_panic.get_or_insert(e);
                    }
                }
                None => break,
            }
        }
        if let Some(e) = first_panic {
            std::panic::resume_unwind(e);
        }
        let shared = Arc::try_unwrap(self.shared)
            .ok()
            .expect("all threads joined");
        shared.kernel.into_inner()
    }
}

/// Starts the OS thread hosting process `pid`.  Used by `Sim::spawn` and
/// by `fork1` for children created at run time.
pub(crate) fn spawn_proc_thread(shared: Arc<SimShared>, pid: Pid, prog: UserProgram) {
    let shared2 = Arc::clone(&shared);
    let handle = std::thread::Builder::new()
        .name(format!("pid{pid}"))
        .stack_size(16 * 1024 * 1024)
        .spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let guard = shared2.kernel.lock();
                let mut ctx = Ctx {
                    k: guard,
                    shared: &shared2,
                    me: pid,
                    intr_depth: 0,
                };
                ctx.wait_until_scheduled();
                // A new process is born returning from a manufactured
                // swtch context: fire only the exit trigger, the
                // discontinuity the analysis software must tolerate.
                ctx.fn_exit(KFn::Swtch);
                prog(&mut ctx);
                crate::syscall::sys_exit(&mut ctx, 0);
            }));
            if let Err(e) = result {
                // Don't leave other threads parked forever.
                shared2.done.store(true, Ordering::SeqCst);
                shared2.cv.notify_all();
                std::panic::resume_unwind(e);
            }
        })
        .expect("thread spawn failed");
    shared.handles.lock().push(handle);
}
