//! The ground-truth time oracle.
//!
//! The simulator can observe function entry/exit with perfect cycle
//! accuracy and zero perturbation — something no real profiler can.  This
//! oracle is used (a) to validate the Profiler analysis pipeline (its
//! reconstructed times must agree with the truth to within the 1 µs
//! hardware quantization) and (b) as the reference the clock-sampling
//! baseline is scored against in the Heisenberg experiment.
//!
//! Stacks are kept per process, mirroring the control flow the analysis
//! software must reconstruct: a context switch suspends one process's
//! stack mid-call and resumes another's.  Pids are dense from 1
//! (`ProcTable::alloc`), so the stacks live in a `Vec` indexed by pid.

use hwprof_machine::Cycles;

use crate::funcs::{KFn, NFUNCS};
use crate::proc::Pid;

#[derive(Debug, Clone, Copy)]
struct Frame {
    f: KFn,
    entered: Cycles,
    child: Cycles,
}

/// Accumulated truth for one function.
#[derive(Debug, Clone, Copy, Default)]
pub struct FnTruth {
    /// Completed calls.
    pub calls: u64,
    /// Gross (inclusive) cycles.
    pub gross: Cycles,
    /// Net (exclusive) cycles.
    pub net: Cycles,
    /// Largest single-call net cycles.
    pub max_net: Cycles,
    /// Smallest single-call net cycles.
    pub min_net: Cycles,
}

/// The oracle.
#[derive(Debug)]
pub struct Ktrace {
    /// Open frames per pid, indexed by pid; grown on first use.
    stacks: Vec<Vec<Frame>>,
    totals: Vec<FnTruth>,
    /// Exits observed with no matching entry (process births resuming
    /// from a manufactured `swtch` context).
    pub orphan_exits: u64,
}

impl Default for Ktrace {
    fn default() -> Self {
        Self::new()
    }
}

impl Ktrace {
    /// An empty oracle.
    pub fn new() -> Self {
        Ktrace {
            stacks: Vec::new(),
            totals: vec![FnTruth::default(); NFUNCS],
            orphan_exits: 0,
        }
    }

    /// Records entry into `f` on `pid`'s stack at time `now`.
    pub fn enter(&mut self, pid: Pid, f: KFn, now: Cycles) {
        self.stack_mut(pid).push(Frame {
            f,
            entered: now,
            child: 0,
        });
    }

    /// Records exit from `f` on `pid`'s stack at time `now`.
    ///
    /// An exit that does not match the top of the stack is counted as an
    /// orphan and otherwise ignored — this happens exactly once per
    /// process birth (the first return from `swtch` has no recorded
    /// entry), so anything beyond that indicates a structure bug; debug
    /// builds assert.
    pub fn exit(&mut self, pid: Pid, f: KFn, now: Cycles) {
        let stack = self.stack_mut(pid);
        match stack.last() {
            Some(top) if top.f == f => {
                let fr = stack.pop().expect("just observed");
                let gross = now - fr.entered;
                let net = gross.saturating_sub(fr.child);
                if let Some(parent) = stack.last_mut() {
                    parent.child += gross;
                }
                let t = &mut self.totals[f.idx()];
                t.calls += 1;
                t.gross += gross;
                t.net += net;
                t.max_net = t.max_net.max(net);
                t.min_net = if t.calls == 1 {
                    net
                } else {
                    t.min_net.min(net)
                };
            }
            _ => {
                debug_assert_eq!(f, KFn::Swtch, "orphan exit from {} on pid {pid}", f.name());
                self.orphan_exits += 1;
            }
        }
    }

    /// `pid`'s stack, growing the table up to it on first use.
    fn stack_mut(&mut self, pid: Pid) -> &mut Vec<Frame> {
        let i = pid as usize;
        if i >= self.stacks.len() {
            self.stacks.resize_with(i + 1, Vec::new);
        }
        &mut self.stacks[i]
    }

    fn stack(&self, pid: Pid) -> &[Frame] {
        self.stacks.get(pid as usize).map_or(&[], Vec::as_slice)
    }

    /// Truth record for `f`.
    pub fn truth(&self, f: KFn) -> FnTruth {
        self.totals[f.idx()]
    }

    /// All truth records, indexed by function.
    pub fn totals(&self) -> &[FnTruth] {
        &self.totals
    }

    /// The function currently executing on `pid`'s stack (innermost open
    /// frame); what a sampling profiler's program-counter snapshot sees.
    pub fn current_fn(&self, pid: Pid) -> Option<KFn> {
        self.stack(pid).last().map(|f| f.f)
    }

    /// Depth of `pid`'s open stack.
    pub fn depth(&self, pid: Pid) -> usize {
        self.stack(pid).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_attributes_net_and_gross() {
        let mut t = Ktrace::new();
        // pid 1: outer [0..100], inner [20..50].
        t.enter(1, KFn::Soreceive, 0);
        t.enter(1, KFn::Bcopy, 20);
        t.exit(1, KFn::Bcopy, 50);
        t.exit(1, KFn::Soreceive, 100);
        let outer = t.truth(KFn::Soreceive);
        assert_eq!(outer.gross, 100);
        assert_eq!(outer.net, 70);
        let inner = t.truth(KFn::Bcopy);
        assert_eq!(inner.gross, 30);
        assert_eq!(inner.net, 30);
    }

    #[test]
    fn per_pid_stacks_are_independent() {
        let mut t = Ktrace::new();
        t.enter(1, KFn::Soreceive, 0);
        t.enter(2, KFn::VmFault, 10);
        t.exit(2, KFn::VmFault, 40);
        t.exit(1, KFn::Soreceive, 100);
        assert_eq!(t.truth(KFn::VmFault).gross, 30);
        assert_eq!(t.truth(KFn::Soreceive).gross, 100);
    }

    #[test]
    fn min_max_track_per_call_net() {
        let mut t = Ktrace::new();
        for (a, b) in [(0u64, 10u64), (20, 25), (30, 47)] {
            t.enter(1, KFn::Bcopy, a);
            t.exit(1, KFn::Bcopy, b);
        }
        let x = t.truth(KFn::Bcopy);
        assert_eq!(x.calls, 3);
        assert_eq!(x.min_net, 5);
        assert_eq!(x.max_net, 17);
        assert_eq!(x.gross, 32);
    }

    #[test]
    fn orphan_swtch_exit_is_tolerated() {
        let mut t = Ktrace::new();
        t.exit(7, KFn::Swtch, 100);
        assert_eq!(t.orphan_exits, 1);
        assert_eq!(t.truth(KFn::Swtch).calls, 0);
    }

    #[test]
    fn current_fn_sees_innermost() {
        let mut t = Ktrace::new();
        assert_eq!(t.current_fn(1), None);
        t.enter(1, KFn::Ipintr, 0);
        t.enter(1, KFn::InCksum, 5);
        assert_eq!(t.current_fn(1), Some(KFn::InCksum));
        t.exit(1, KFn::InCksum, 9);
        assert_eq!(t.current_fn(1), Some(KFn::Ipintr));
    }
}
