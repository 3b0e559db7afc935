//! An 8259-style programmable interrupt controller.
//!
//! The paper's spl* analysis hinges on the 386/ISA interrupt architecture:
//! there is no processor priority level, so every `splnet`/`splbio`/... must
//! reprogram PIC mask registers with slow I/O port writes, and software
//! interrupts must be emulated.  The [`Pic`] here keeps a pending set and a
//! software mask; the kernel maps its spl levels onto mask bits.

/// An interrupt request line, 0..16 (two cascaded 8259s).
pub type Irq = u8;

/// IRQ line of the 8254 timer (hardclock).
pub const IRQ_CLOCK: Irq = 0;
/// IRQ line of the RTC-style statistics clock (statclock).
pub const IRQ_STAT: Irq = 8;
/// IRQ line of the WD8003E Ethernet card.
pub const IRQ_WE: Irq = 9;
/// IRQ line of the IDE disk controller.
pub const IRQ_WD: Irq = 14;

/// Pending/mask state of the cascaded interrupt controllers.
#[derive(Debug, Default, Clone)]
pub struct Pic {
    pending: u16,
    /// Counts of interrupts raised per line, for event statistics.
    pub raised: [u64; 16],
    /// Counts of interrupts lost because the line was already pending
    /// (edge-triggered ISA lines merge).
    pub merged: [u64; 16],
}

impl Pic {
    /// Creates a controller with nothing pending.
    pub fn new() -> Self {
        Self::default()
    }

    /// Asserts an interrupt line.
    ///
    /// ISA lines are edge-triggered: raising an already-pending line is
    /// recorded as a merge and otherwise lost, exactly the behaviour that
    /// forces drivers to drain their devices fully per interrupt.
    pub fn raise(&mut self, irq: Irq) {
        let bit = 1u16 << irq;
        self.raised[irq as usize] += 1;
        if self.pending & bit != 0 {
            self.merged[irq as usize] += 1;
        }
        self.pending |= bit;
    }

    /// Returns true if `irq` is pending.
    pub fn is_pending(&self, irq: Irq) -> bool {
        self.pending & (1 << irq) != 0
    }

    /// Takes the highest-priority pending line not blocked by `mask`
    /// (bit i set in `mask` blocks IRQ i), clearing its pending bit.
    ///
    /// 8259 priority is lowest line number first.
    pub fn take(&mut self, mask: u16) -> Option<Irq> {
        let ready = self.pending & !mask;
        if ready == 0 {
            return None;
        }
        let irq = ready.trailing_zeros() as Irq;
        self.pending &= !(1 << irq);
        Some(irq)
    }

    /// True if any unmasked interrupt is deliverable.
    pub fn has_unmasked(&self, mask: u16) -> bool {
        self.pending & !mask != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_honours_priority_and_mask() {
        let mut pic = Pic::new();
        pic.raise(IRQ_WD);
        pic.raise(IRQ_CLOCK);
        pic.raise(IRQ_WE);
        // Clock (IRQ0) wins.
        assert_eq!(pic.take(0), Some(IRQ_CLOCK));
        // Mask the Ethernet line; disk is delivered instead.
        assert_eq!(pic.take(1 << IRQ_WE), Some(IRQ_WD));
        // Only the masked line remains.
        assert_eq!(pic.take(1 << IRQ_WE), None);
        assert_eq!(pic.take(0), Some(IRQ_WE));
        assert_eq!(pic.take(0), None);
    }

    #[test]
    fn edge_triggered_lines_merge() {
        let mut pic = Pic::new();
        pic.raise(IRQ_WE);
        pic.raise(IRQ_WE);
        assert_eq!(pic.merged[IRQ_WE as usize], 1);
        assert_eq!(pic.take(0), Some(IRQ_WE));
        assert_eq!(pic.take(0), None, "two raises deliver once");
    }

    #[test]
    fn has_unmasked_tracks_mask() {
        let mut pic = Pic::new();
        assert!(!pic.has_unmasked(0));
        pic.raise(IRQ_WE);
        assert!(pic.has_unmasked(0));
        assert!(!pic.has_unmasked(1 << IRQ_WE));
    }
}
