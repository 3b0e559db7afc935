//! The run queue and `swtch`.
//!
//! `swtch` is the paper's canonical context-switch function: "upon entry
//! to swtch the current process context is saved, and the run queue is
//! checked for the next process to run.  If none are ready, then an idle
//! loop is entered."  Its name/tag file entry carries the `!` modifier so
//! the analysis software treats the entry-to-exit interval as idle time
//! (less device interrupts) and splits code paths per process.

use std::collections::VecDeque;

use hwprof_machine::Cycles;

use crate::ctx::{kfn, Ctx};
use crate::funcs::KFn;
use crate::proc::{Pid, ProcState};

/// Panic if the system idles this long with no runnable process
/// (virtual cycles); catches lost wakeups.
const WATCHDOG_IDLE: Cycles = 120 * hwprof_machine::CPU_HZ;

/// Scheduler state.
#[derive(Debug, Default)]
pub struct Sched {
    runq: VecDeque<Pid>,
    /// The process currently holding the CPU.
    pub current: Pid,
    /// Set by the clock to force a reschedule at the next boundary.
    pub need_resched: bool,
    /// Cycles spent with no runnable process (the idle loop).
    pub idle_cycles: Cycles,
    /// Contiguous idle cycles since the last time something ran; the
    /// watchdog that catches lost wakeups.
    idle_streak: Cycles,
}

impl Sched {
    /// Empty scheduler; `current` is 0 (nobody) until the controller
    /// starts the first process.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `pid` to the run queue (round robin).
    pub fn enqueue(&mut self, pid: Pid) {
        debug_assert!(!self.runq.contains(&pid), "pid {pid} double-queued");
        self.runq.push_back(pid);
    }

    /// Removes `pid` from the run queue if present.
    pub fn dequeue(&mut self, pid: Pid) {
        self.runq.retain(|&p| p != pid);
    }

    /// Pops the next runnable pid.
    pub fn pop(&mut self) -> Option<Pid> {
        self.runq.pop_front()
    }

    /// Number of runnable processes queued.
    pub fn runnable(&self) -> usize {
        self.runq.len()
    }
}

/// `setrunqueue`: make `pid` runnable.
pub fn setrunqueue(ctx: &mut Ctx, pid: Pid) {
    kfn(ctx, KFn::Setrunqueue, |ctx| {
        ctx.t_us(2);
        ctx.k.procs.get_mut(pid).state = ProcState::Run;
        ctx.k.sched.enqueue(pid);
    });
}

/// `remrq`: remove `pid` from the run queue.
pub fn remrq(ctx: &mut Ctx, pid: Pid) {
    kfn(ctx, KFn::Remrq, |ctx| {
        ctx.t_us(2);
        ctx.k.sched.dequeue(pid);
    });
}

/// One pass of the idle loop: skip the CPU forward to the next device
/// event and service it.
///
/// # Panics
///
/// Panics if no device event is scheduled (nothing can ever wake a
/// sleeper) or if the idle watchdog expires.
fn idle_once(ctx: &mut Ctx) {
    let before = ctx.k.machine.now;
    if !ctx.k.machine.idle_to_next_event() {
        let sleepers = ctx.k.procs.sleepers();
        panic!("idle with empty event queue; sleepers: {sleepers:?}");
    }
    let delta = ctx.k.machine.now - before;
    ctx.k.sched.idle_cycles += delta;
    ctx.k.sched.idle_streak += delta;
    if ctx.k.sched.idle_streak > WATCHDOG_IDLE {
        let sleepers = ctx.k.procs.sleepers();
        panic!(
            "idle watchdog: no runnable process for {} cycles; sleepers: {sleepers:?}",
            ctx.k.sched.idle_streak
        );
    }
    // The idle loop runs with interrupts fully enabled.
    let saved = ctx.k.spl.raw_set(crate::spl::SPL_NONE);
    ctx.dispatch_interrupts();
    crate::ip::run_netisr(ctx);
    ctx.k.spl.raw_set(saved);
}

/// `swtch`: give up the CPU.  Picks the next runnable process (idling
/// until one appears), transfers the run token, and parks this thread
/// until it is chosen again.  The caller's stack stays suspended
/// mid-call, exactly like the real kernel.
pub fn swtch(ctx: &mut Ctx) {
    kfn(ctx, KFn::Swtch, |ctx| {
        // Save context, scan the run queue.
        ctx.charge(500);
        let next = loop {
            if let Some(p) = ctx.k.sched.pop() {
                break p;
            }
            idle_once(ctx);
        };
        ctx.k.sched.idle_streak = 0;
        ctx.k.sched.need_resched = false;
        // Restore the chosen context.
        ctx.charge(400);
        let prev = ctx.k.sched.current;
        ctx.k.sched.current = next;
        if next != prev {
            ctx.k.stats.cswitches += 1;
        }
        if next != ctx.me {
            ctx.shared.cv.notify_all();
            ctx.wait_until_scheduled();
        }
    });
}

/// Terminal variant of `swtch` used by `exit`: hands the CPU away and
/// never schedules the caller again.  Fires only the `swtch` *entry*
/// trigger — the exit will be fired by whichever process resumes, which
/// is exactly the discontinuity the analysis software must handle.
pub fn swtch_exit(ctx: &mut Ctx) {
    ctx.fn_enter(KFn::Swtch);
    ctx.charge(500);
    loop {
        if let Some(p) = ctx.k.sched.pop() {
            ctx.k.sched.idle_streak = 0;
            ctx.k.sched.current = p;
            ctx.k.stats.cswitches += 1;
            ctx.shared.cv.notify_all();
            return;
        }
        if ctx.k.live_procs == 0 {
            // Last process gone: the simulation is over.
            ctx.shared
                .done
                .store(true, std::sync::atomic::Ordering::SeqCst);
            ctx.shared.cv.notify_all();
            return;
        }
        idle_once(ctx);
    }
}
