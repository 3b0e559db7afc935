//! The machine: clock, event queue, PIC and devices wired together.

use crate::cost::CostModel;
use crate::eprom::EpromTap;
use crate::event::{EventKind, EventQueue};
use crate::ide::{IdeCommand, IdeController};
use crate::pic::{Pic, IRQ_CLOCK, IRQ_STAT, IRQ_WD, IRQ_WE};
use crate::time::{cycles_to_us, Cycles};
use crate::wd::WdCard;
use crate::wire::{frame_time, HostAction, Wire};

/// Physical ISA-bus address of the spare EPROM socket on the WD8003E card
/// where the paper plugged the Profiler (somewhere in hex A0000..100000).
pub const DEFAULT_EPROM_PHYS: u32 = 0x000C_C000;

/// The virtual PC.
///
/// Owns the cycle clock, device models, interrupt controller and the
/// (optional) Profiler tap on the EPROM socket.  The kernel crate drives
/// it: `advance` to burn cycles, `poll` to let device time pass, `take_irq`
/// to receive interrupts subject to the current spl mask.
pub struct Machine {
    /// Current time in cycles since power-on.
    pub now: Cycles,
    /// The calibrated cost model.
    pub cost: CostModel,
    /// Interrupt controller.
    pub pic: Pic,
    /// Device event queue.
    pub events: EventQueue,
    /// Ethernet card, if installed.
    pub wd: Option<WdCard>,
    /// IDE controller, if installed.
    pub ide: Option<IdeController>,
    /// Ethernet wire and remote host, if connected.
    pub wire: Option<Wire>,
    /// Profiler board on the EPROM socket, if plugged in.
    pub eprom_tap: Option<Box<dyn EpromTap>>,
    /// Physical ISA address where the EPROM window is decoded.
    pub eprom_phys_base: u32,
    clock_period: Option<Cycles>,
    /// (base period, skewed) of the statistics clock, if started.
    stat_clock: Option<(Cycles, bool)>,
    stat_lcg: u64,
    /// Frames handed to the wire host by the card.
    pub tx_frames: u64,
}

impl Default for Machine {
    fn default() -> Self {
        Self::new(CostModel::pc386())
    }
}

impl Machine {
    /// A machine with no devices installed.
    pub fn new(cost: CostModel) -> Self {
        Machine {
            now: 0,
            cost,
            pic: Pic::new(),
            events: EventQueue::new(),
            wd: None,
            ide: None,
            wire: None,
            eprom_tap: None,
            eprom_phys_base: DEFAULT_EPROM_PHYS,
            clock_period: None,
            stat_clock: None,
            stat_lcg: 0x1993_0717,
            tx_frames: 0,
        }
    }

    /// Starts the 8254 timer at `hz` interrupts per second.
    pub fn start_clock(&mut self, hz: u64) {
        let period = crate::time::CPU_HZ / hz;
        self.clock_period = Some(period);
        self.events.schedule(self.now + period, EventKind::PitTick);
    }

    /// Starts the statistics clock at `hz` average interrupts per
    /// second.  With `skewed = true` each period is pseudo-random in
    /// [0.5p, 1.5p) — the paper's "psuedo-random or skewed clock" that
    /// keeps profiling samples from aliasing with clock-synchronised
    /// activity.
    pub fn start_statclock(&mut self, hz: u64, skewed: bool) {
        let period = crate::time::CPU_HZ / hz;
        self.stat_clock = Some((period, skewed));
        let first = self.next_stat_period();
        self.events.schedule(self.now + first, EventKind::StatTick);
    }

    fn next_stat_period(&mut self) -> Cycles {
        let (period, skewed) = self.stat_clock.expect("statclock started");
        if !skewed {
            return period;
        }
        self.stat_lcg = self
            .stat_lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        period / 2 + (self.stat_lcg >> 33) % period.max(1)
    }

    /// Connects `wire` and lets the remote host seed its traffic.
    pub fn attach_wire(&mut self, mut wire: Wire) {
        let actions = wire.host.start(self.now);
        self.wire = Some(wire);
        self.apply_host_actions(actions);
    }

    fn apply_host_actions(&mut self, actions: Vec<HostAction>) {
        for a in actions {
            match a {
                HostAction::SendFrame { at, bytes } => {
                    let at = at.max(self.now);
                    self.events.schedule(at, EventKind::WireFrame(bytes));
                }
                HostAction::Timer { at, token } => {
                    let at = at.max(self.now);
                    self.events.schedule(at, EventKind::HostTimer(token));
                }
            }
        }
    }

    /// Burns `c` CPU cycles and processes any device activity that
    /// completes in that window.
    pub fn advance(&mut self, c: Cycles) {
        self.now += c;
        self.poll();
    }

    /// Processes all device events due at or before `now`.
    pub fn poll(&mut self) {
        while let Some(ev) = self.events.pop_due(self.now) {
            match ev.kind {
                EventKind::PitTick => {
                    self.pic.raise(IRQ_CLOCK);
                    if let Some(p) = self.clock_period {
                        self.events.schedule(ev.at + p, EventKind::PitTick);
                    }
                }
                EventKind::StatTick => {
                    self.pic.raise(IRQ_STAT);
                    if self.stat_clock.is_some() {
                        let p = self.next_stat_period();
                        self.events.schedule(ev.at + p, EventKind::StatTick);
                    }
                }
                EventKind::WireFrame(bytes) => {
                    if let Some(wire) = &mut self.wire {
                        wire.frames_to_pc += 1;
                        wire.bytes_to_pc += bytes.len() as u64;
                    }
                    if let Some(wd) = &mut self.wd {
                        wd.receive(&bytes);
                        // The card interrupts for both accepted frames
                        // (PRX) and overwrites (OVW).
                        self.pic.raise(IRQ_WE);
                    }
                }
                EventKind::HostTimer(token) => {
                    if let Some(wire) = &mut self.wire {
                        let actions = wire.host.on_timer(token, ev.at);
                        self.apply_host_actions(actions);
                    }
                }
                EventKind::WdTxDone => {
                    let frame = match &mut self.wd {
                        Some(wd) => {
                            wd.tx_busy = false;
                            wd.isr |= crate::wd::isr::PTX;
                            wd.tx_frame()
                        }
                        None => Vec::new(),
                    };
                    self.pic.raise(IRQ_WE);
                    self.tx_frames += 1;
                    if let Some(wire) = &mut self.wire {
                        wire.frames_from_pc += 1;
                        wire.bytes_from_pc += frame.len() as u64;
                        let actions = wire.host.on_tx(&frame, ev.at);
                        self.apply_host_actions(actions);
                    }
                }
                EventKind::IdeOpDone => {
                    if let Some(ide) = &mut self.ide {
                        ide.complete(ev.at);
                    }
                    self.pic.raise(IRQ_WD);
                }
            }
        }
    }

    /// Takes the highest-priority deliverable interrupt under `mask`.
    pub fn take_irq(&mut self, mask: u16) -> Option<u8> {
        self.pic.take(mask)
    }

    /// Idles the CPU forward to the next device event and processes it.
    ///
    /// Returns `false` if nothing is scheduled (the system would sleep
    /// forever).
    pub fn idle_to_next_event(&mut self) -> bool {
        match self.events.next_at() {
            Some(t) => {
                if t > self.now {
                    self.now = t;
                }
                self.poll();
                true
            }
            None => false,
        }
    }

    /// The Profiler trigger: an 8-bit read of the EPROM window at
    /// `offset`.  The board latches the offset (event tag) together with
    /// its 1 MHz counter.  The *caller* charges the trigger instruction
    /// cost; hardware latching is free.
    pub fn eprom_read(&mut self, offset: u16) {
        let us = cycles_to_us(self.now);
        if let Some(tap) = &mut self.eprom_tap {
            tap.on_read(offset, us);
        }
    }

    /// The card begins serializing the loaded transmit buffer onto the
    /// wire; completion raises the Ethernet IRQ.  The driver claims the
    /// transmitter (`tx_busy`) before loading; this call tolerates
    /// either order.
    ///
    /// # Panics
    ///
    /// Panics if no card is installed.
    pub fn wd_start_tx(&mut self) {
        let wd = self.wd.as_mut().expect("no Ethernet card");
        wd.tx_busy = true;
        let t = frame_time(wd.tx_len);
        self.events.schedule(self.now + t, EventKind::WdTxDone);
    }

    /// Issues an IDE command; completion raises the disk IRQ.
    ///
    /// # Panics
    ///
    /// Panics if no controller is installed.
    pub fn ide_issue(&mut self, cmd: IdeCommand) {
        let now = self.now;
        let ide = self.ide.as_mut().expect("no IDE controller");
        let done = ide.issue(cmd, now);
        self.events
            .schedule(done.max(now + 1), EventKind::IdeOpDone);
    }

    /// Microseconds since power-on (truncating, as the Profiler's 1 MHz
    /// counter sees time).
    pub fn now_us(&self) -> u64 {
        cycles_to_us(self.now)
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("now", &self.now)
            .field("pending_events", &self.events.len())
            .field("tx_frames", &self.tx_frames)
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)] // device installation reads naturally
mod tests {
    use super::*;
    use crate::eprom::CountingTap;
    use crate::ide::DiskGeometry;
    use crate::time::us_to_cycles;
    use crate::wire::RemoteHost;

    #[test]
    fn clock_ticks_at_100hz() {
        let mut m = Machine::default();
        m.start_clock(100);
        let mut ticks = 0;
        for _ in 0..100 {
            // Idle 10 ms at a time.
            m.advance(us_to_cycles(10_000));
            while m.take_irq(0) == Some(IRQ_CLOCK) {
                ticks += 1;
            }
        }
        assert_eq!(ticks, 100);
    }

    #[test]
    fn eprom_reads_reach_the_tap() {
        let mut m = Machine::default();
        m.eprom_tap = Some(Box::new(CountingTap::default()));
        m.advance(us_to_cycles(123));
        m.eprom_read(502);
        m.advance(us_to_cycles(7));
        m.eprom_read(503);
        let tap = m.eprom_tap.as_ref().unwrap();
        assert_eq!(tap.stored(), 2);
    }

    struct OneShot;
    impl RemoteHost for OneShot {
        fn start(&mut self, now: Cycles) -> Vec<HostAction> {
            vec![HostAction::SendFrame {
                at: now + us_to_cycles(100),
                bytes: vec![0xee; 100],
            }]
        }
        fn on_tx(&mut self, frame: &[u8], now: Cycles) -> Vec<HostAction> {
            // Echo the frame back.
            vec![HostAction::SendFrame {
                at: now + us_to_cycles(50),
                bytes: frame.to_vec(),
            }]
        }
        fn on_timer(&mut self, _t: u64, _n: Cycles) -> Vec<HostAction> {
            Vec::new()
        }
    }

    #[test]
    fn wire_frame_lands_in_card_and_interrupts() {
        let mut m = Machine::default();
        m.wd = Some(WdCard::new());
        m.attach_wire(Wire::new(Box::new(OneShot)));
        m.advance(us_to_cycles(200));
        assert_eq!(m.take_irq(0), Some(IRQ_WE));
        let wd = m.wd.as_ref().unwrap();
        assert!(wd.has_frame());
        assert_eq!(wd.accepted, 1);
    }

    #[test]
    fn tx_reaches_host_and_gets_echoed() {
        let mut m = Machine::default();
        m.wd = Some(WdCard::new());
        m.attach_wire(Wire::new(Box::new(OneShot)));
        m.advance(us_to_cycles(200));
        m.take_irq(0);
        // Transmit a frame.
        m.wd.as_mut().unwrap().load_tx(&[0x11; 80]);
        m.wd_start_tx();
        // Wait for serialization + echo.
        m.advance(us_to_cycles(1000));
        let wd = m.wd.as_ref().unwrap();
        assert_eq!(m.tx_frames, 1);
        assert_eq!(wd.accepted, 2, "echo frame arrived");
        let wire = m.wire.as_ref().unwrap();
        assert_eq!(wire.frames_from_pc, 1);
        assert_eq!(wire.frames_to_pc, 2);
    }

    #[test]
    fn ide_completion_interrupts() {
        let mut m = Machine::default();
        m.ide = Some(IdeController::new(DiskGeometry::st3144()));
        m.ide_issue(IdeCommand::ReadSector(1234));
        assert_eq!(m.take_irq(0), None, "not done yet");
        // A read takes at most ~60 ms.
        m.advance(us_to_cycles(80_000));
        assert_eq!(m.take_irq(0), Some(IRQ_WD));
        assert_eq!(m.ide.as_ref().unwrap().reads, 1);
    }

    #[test]
    fn idle_skips_to_next_event() {
        let mut m = Machine::default();
        m.start_clock(100);
        assert!(m.idle_to_next_event());
        assert_eq!(m.now_us(), 10_000);
        assert!(m.pic.is_pending(IRQ_CLOCK));
        let mut n = Machine::default();
        assert!(!n.idle_to_next_event(), "no events scheduled");
    }
}
