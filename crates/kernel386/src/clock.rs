//! hardclock, softclock and the callout table.
//!
//! The paper: "the regular clock tick interrupt took on average 94
//! microseconds to execute; unfortunately the hardware architecture does
//! not provide for Asynchronous System Traps (commonly known as software
//! interrupts), so the interrupt code has to work extra hard to emulate
//! this facility.  The interrupt code overhead to do this is around 24
//! microseconds per interrupt."  The 24 µs AST emulation is charged in
//! `trap::isa_intr`; this module is the clock work proper.

use crate::ctx::{kfn, Ctx};
use crate::funcs::KFn;
use crate::kernel::SAMPLE_COST;
use crate::proc::Pid;
use crate::sched::setrunqueue;
use crate::synch;

/// What a callout does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalloutAction {
    /// Wake a timed `tsleep`, marking it timed out.
    WakeProcTimeout(Pid),
    /// Plain `wakeup` on a channel.
    WakeChan(u64),
}

/// One pending callout.
#[derive(Debug, Clone, Copy)]
pub struct Callout {
    /// Ticks until it fires.
    pub ticks: u32,
    /// The action.
    pub action: CalloutAction,
}

/// The callout table.
#[derive(Debug, Default)]
pub struct Callouts {
    entries: Vec<Callout>,
    due: Vec<CalloutAction>,
}

impl Callouts {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending callouts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// `timeout`: arrange `action` to fire after `ticks` clock ticks.
pub fn timeout(ctx: &mut Ctx, action: CalloutAction, ticks: u32) {
    kfn(ctx, KFn::Timeout, |ctx| {
        ctx.t_us(4);
        ctx.k.callouts.entries.push(Callout {
            ticks: ticks.max(1),
            action,
        });
    });
}

/// `untimeout`: cancel a pending timed wake for `pid`.
pub fn untimeout_wake(ctx: &mut Ctx, pid: Pid) {
    kfn(ctx, KFn::Untimeout, |ctx| {
        ctx.t_us(4);
        ctx.k
            .callouts
            .entries
            .retain(|c| c.action != CalloutAction::WakeProcTimeout(pid));
    });
}

/// `gatherstats`: the statistics-clock sampling hook.
///
/// With sampling enabled, records which function the tick interrupted —
/// the traditional clock-profiling technique the paper contrasts the
/// hardware Profiler against — and pays the per-sample cost (this *is*
/// the perturbation: "the more time is spent running the profiling clock
/// and not actually running the kernel").
pub fn gatherstats(ctx: &mut Ctx) {
    kfn(ctx, KFn::Gatherstats, |ctx| {
        ctx.t_us(6);
        // When a dedicated statclock runs, sampling happens there.
        if ctx.k.sampling.enabled && ctx.k.config.statclock_hz.is_none() {
            take_sample(ctx);
        }
    });
}

/// Records one profiling sample: the function the interrupt caught.
fn take_sample(ctx: &mut Ctx) {
    ctx.k.machine.advance(SAMPLE_COST);
    ctx.k.sampling.total += 1;
    match ctx.k.intr_interrupted {
        Some(KFn::Swtch) => ctx.k.sampling.idle_samples += 1,
        Some(f) => ctx.k.sampling.counts[f.idx()] += 1,
        None => ctx.k.sampling.user_samples += 1,
    }
}

/// `statclock`: the dedicated (optionally pseudo-random) statistics
/// clock interrupt body — "If a psuedo-random or skewed clock is
/// available, then it is possible to improve the clock profiling so
/// that other clock-related activity is not missed."
pub fn statclock(ctx: &mut Ctx) {
    kfn(ctx, KFn::Gatherstats, |ctx| {
        ctx.t_us(4);
        if ctx.k.sampling.enabled {
            take_sample(ctx);
        }
    });
}

/// `softclock`: fire callouts that hardclock found due.
pub fn softclock(ctx: &mut Ctx) {
    kfn(ctx, KFn::Softclock, |ctx| {
        ctx.t_us(3);
        while let Some(action) = ctx.k.callouts.due.pop() {
            ctx.t_us(3);
            match action {
                CalloutAction::WakeProcTimeout(pid) => {
                    let sleeping = {
                        let p = ctx.k.procs.get_mut(pid);
                        if p.state == crate::proc::ProcState::Sleep {
                            p.timed_out = true;
                            p.wchan = 0;
                            true
                        } else {
                            false
                        }
                    };
                    if sleeping {
                        setrunqueue(ctx, pid);
                    }
                }
                CalloutAction::WakeChan(chan) => synch::wakeup(ctx, chan),
            }
        }
    });
}

/// `hardclock`: the 100 Hz timer interrupt body.
pub fn hardclock(ctx: &mut Ctx) {
    kfn(ctx, KFn::Hardclock, |ctx| {
        ctx.k.stats.ticks += 1;
        // Time-of-day and per-process accounting.
        ctx.t_us(14);
        gatherstats(ctx);
        // Walk the callout list.
        let n = ctx.k.callouts.entries.len() as u64;
        ctx.charge(n * 40 + 80);
        let mut fired = Vec::new();
        ctx.k.callouts.entries.retain_mut(|c| {
            c.ticks -= 1;
            if c.ticks == 0 {
                fired.push(c.action);
                false
            } else {
                true
            }
        });
        if !fired.is_empty() {
            ctx.k.callouts.due.extend(fired);
            softclock(ctx);
        }
        // Round-robin quantum: every 10 ticks (100 ms).
        if ctx.k.stats.ticks % 10 == 0 {
            ctx.k.sched.need_resched = true;
        }
    });
}
