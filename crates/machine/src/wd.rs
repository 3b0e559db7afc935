//! The Western Digital WD8003E Ethernet card.
//!
//! This is the 8-bit shared-memory ISA card the paper profiled: received
//! frames land in an 8 KiB on-board RAM organized as a ring of 256-byte
//! pages (8390-style, each frame prefixed by a 4-byte receive header), and
//! the driver must `bcopy` every byte out over the 8-bit ISA bus — the
//! single largest cost in the paper's network experiments (~1045 µs per
//! full frame).
//!
//! The card model is hardware only: it stores frames, keeps ring pointers
//! and counters, and raises its interrupt line.  The `we` *driver* (werint,
//! weget, weread, westart) lives in the kernel crate and charges the ISA
//! bus costs when it touches [`WdCard::shmem`].

/// Size of one ring page.
pub const PAGE: usize = 256;
/// Total on-board shared memory: 8 KiB.
pub const SHMEM: usize = 8192;
/// Pages reserved at the bottom for the transmit buffer (1536 bytes).
pub const TX_PAGES: u8 = 6;
/// Total number of pages.
pub const NPAGES: u8 = (SHMEM / PAGE) as u8;
/// First byte of the receive ring, right after the transmit buffer.
const RING_START: usize = TX_PAGES as usize * PAGE;

/// Interrupt status bits (8390-style).
pub mod isr {
    /// Packet received.
    pub const PRX: u8 = 0x01;
    /// Packet transmitted.
    pub const PTX: u8 = 0x02;
    /// Receive ring overwrite warning (frames dropped).
    pub const OVW: u8 = 0x10;
}

/// The 4-byte receive header preceding each frame in the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvHeader {
    /// Receive status (bit 0 = intact).
    pub status: u8,
    /// Ring page of the next frame.
    pub next_page: u8,
    /// Frame length including this header, little-endian.
    pub len: u16,
}

/// The card: shared RAM, ring pointers, interrupt status.
#[derive(Debug, Clone)]
pub struct WdCard {
    shmem: Vec<u8>,
    /// Next page the receive hardware will fill (NIC "current" register).
    pub curr: u8,
    /// Last page the driver has freed (the boundary register); the
    /// hardware may fill up to but not including this page.
    pub boundary: u8,
    /// Interrupt status register.
    pub isr: u8,
    /// Frames dropped because the ring was full.
    pub missed: u64,
    /// Frames accepted into the ring.
    pub accepted: u64,
    /// Length of the frame currently in the transmit buffer.
    pub tx_len: usize,
    /// True while a transmit is serializing onto the wire.
    pub tx_busy: bool,
}

impl Default for WdCard {
    fn default() -> Self {
        Self::new()
    }
}

impl WdCard {
    /// A freshly initialized card with an empty ring.
    pub fn new() -> Self {
        WdCard {
            shmem: vec![0; SHMEM],
            curr: TX_PAGES,
            boundary: TX_PAGES,
            isr: 0,
            missed: 0,
            accepted: 0,
            tx_len: 0,
            tx_busy: false,
        }
    }

    /// The shared memory window, as the driver sees it over the ISA bus.
    pub fn shmem(&self) -> &[u8] {
        &self.shmem
    }

    fn ring_next(page: u8) -> u8 {
        if page + 1 >= NPAGES {
            TX_PAGES
        } else {
            page + 1
        }
    }

    /// Pages currently free for the receive hardware.
    pub fn free_pages(&self) -> u8 {
        let ring = NPAGES - TX_PAGES;
        let used = if self.curr >= self.boundary {
            self.curr - self.boundary
        } else {
            ring - (self.boundary - self.curr)
        };
        // One page is always kept unused so curr == boundary means empty.
        ring - used - 1
    }

    /// True if the driver has unread frames.
    pub fn has_frame(&self) -> bool {
        self.curr != self.boundary
    }

    /// The receive hardware stores `frame`; returns true if the card
    /// raises its interrupt line (false when merged into an already
    /// pending status is up to the PIC; the card always sets ISR bits).
    ///
    /// Frames that do not fit are dropped and counted in `missed`, and the
    /// overwrite-warning bit is set, matching the saturated-receiver
    /// behaviour the paper observed (the PC could not keep up with the
    /// wire).
    pub fn receive(&mut self, frame: &[u8]) -> bool {
        let total = frame.len() + 4;
        let pages_needed = total.div_ceil(PAGE) as u8;
        if pages_needed > self.free_pages() {
            self.missed += 1;
            self.isr |= isr::OVW;
            return false;
        }
        // Compute the page after this frame.
        let mut next = self.curr;
        for _ in 0..pages_needed {
            next = Self::ring_next(next);
        }
        // Write the receive header.
        let base = self.curr as usize * PAGE;
        self.shmem[base] = 0x01; // intact
        self.shmem[base + 1] = next;
        let len = total as u16;
        self.shmem[base + 2] = (len & 0xff) as u8;
        self.shmem[base + 3] = (len >> 8) as u8;
        // The frame data follows the header contiguously; the ring
        // region wraps at most once, from the top of shared memory back
        // to the first receive page.
        let mut pos = base + 4;
        let mut rest = frame;
        while !rest.is_empty() {
            let n = rest.len().min(SHMEM - pos);
            self.shmem[pos..pos + n].copy_from_slice(&rest[..n]);
            rest = &rest[n..];
            pos = RING_START;
        }
        self.curr = next;
        self.accepted += 1;
        self.isr |= isr::PRX;
        true
    }

    /// Reads the receive header at ring page `page`.
    pub fn recv_header(&self, page: u8) -> RecvHeader {
        let base = page as usize * PAGE;
        RecvHeader {
            status: self.shmem[base],
            next_page: self.shmem[base + 1],
            len: u16::from_le_bytes([self.shmem[base + 2], self.shmem[base + 3]]),
        }
    }

    /// Copies the frame starting at `page` (skipping the 4-byte header)
    /// into `out`; `len` is the header length field (includes the header).
    ///
    /// This is the *data path the driver pays for*: the caller must charge
    /// `len - 4` bytes of 8-bit ISA reads.  A corrupt length shorter than
    /// the header itself yields an empty frame.
    pub fn copy_frame(&self, page: u8, len: u16, out: &mut Vec<u8>) {
        let mut remaining = usize::from(len).saturating_sub(4);
        out.clear();
        out.reserve(remaining);
        // One slice per pass over the ring region: at most two for any
        // frame the ring can hold.
        let mut pos = page as usize * PAGE + 4;
        while remaining > 0 {
            let n = remaining.min(SHMEM - pos);
            out.extend_from_slice(&self.shmem[pos..pos + n]);
            remaining -= n;
            pos = RING_START;
        }
    }

    /// Driver advances the boundary to `page`, freeing ring space.
    pub fn set_boundary(&mut self, page: u8) {
        self.boundary = page;
    }

    /// Driver loads `frame` into the transmit buffer.
    ///
    /// The caller must charge `frame.len()` bytes of 8-bit ISA writes.
    pub fn load_tx(&mut self, frame: &[u8]) {
        assert!(frame.len() <= TX_PAGES as usize * PAGE, "tx frame too big");
        self.shmem[..frame.len()].copy_from_slice(frame);
        self.tx_len = frame.len();
    }

    /// Returns the frame currently in the transmit buffer.
    pub fn tx_frame(&self) -> Vec<u8> {
        self.shmem[..self.tx_len].to_vec()
    }

    /// Reads and clears the interrupt status register.
    pub fn ack_isr(&mut self) -> u8 {
        std::mem::take(&mut self.isr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn receive_and_read_back_roundtrip() {
        let mut card = WdCard::new();
        let frame: Vec<u8> = (0..1500u16).map(|i| (i % 251) as u8).collect();
        assert!(card.receive(&frame));
        assert!(card.has_frame());
        let hdr = card.recv_header(card.boundary);
        assert_eq!(hdr.status & 1, 1);
        assert_eq!(hdr.len as usize, frame.len() + 4);
        let mut out = Vec::new();
        card.copy_frame(card.boundary, hdr.len, &mut out);
        assert_eq!(out, frame);
        card.set_boundary(hdr.next_page);
        assert!(!card.has_frame());
    }

    #[test]
    fn ring_wraps_and_stays_consistent() {
        let mut card = WdCard::new();
        let frame = vec![0xabu8; 700];
        let mut buf = Vec::new();
        // Many more frames than the ring holds at once, drained as we go.
        for _ in 0..100 {
            assert!(card.receive(&frame));
            let hdr = card.recv_header(card.boundary);
            card.copy_frame(card.boundary, hdr.len, &mut buf);
            assert_eq!(buf, frame);
            card.set_boundary(hdr.next_page);
        }
        assert_eq!(card.accepted, 100);
        assert_eq!(card.missed, 0);
    }

    #[test]
    fn full_ring_drops_and_warns() {
        let mut card = WdCard::new();
        let frame = vec![1u8; 1500];
        let mut stored = 0;
        while card.receive(&frame) {
            stored += 1;
            assert!(stored < 100, "ring never filled");
        }
        // 26 ring pages, 6 pages per 1504-byte frame, one page slack.
        assert_eq!(stored, 4);
        assert_eq!(card.missed, 1);
        assert!(card.isr & isr::OVW != 0);
        // Draining one frame makes room again.
        let hdr = card.recv_header(card.boundary);
        card.set_boundary(hdr.next_page);
        assert!(card.receive(&frame));
    }

    #[test]
    fn tx_buffer_roundtrip() {
        let mut card = WdCard::new();
        let frame = vec![7u8; 64];
        card.load_tx(&frame);
        assert_eq!(card.tx_frame(), frame);
    }

    #[test]
    fn isr_ack_clears() {
        let mut card = WdCard::new();
        card.receive(&[0u8; 64]);
        assert_eq!(card.ack_isr() & isr::PRX, isr::PRX);
        assert_eq!(card.ack_isr(), 0);
    }

    #[test]
    fn corrupt_short_length_copies_an_empty_frame() {
        let mut card = WdCard::new();
        assert!(card.receive(&[9u8; 64]));
        let mut out = vec![1, 2, 3];
        for len in 0..4u16 {
            card.copy_frame(card.boundary, len, &mut out);
            assert!(out.is_empty(), "header length {len}");
        }
        card.copy_frame(card.boundary, 5, &mut out);
        assert_eq!(out, [9]);
    }

    /// The per-byte ring the card used to be: page by page, one byte at
    /// a time, wrapping through `ring_next`.  The oracle for the
    /// slice-copy ring.
    struct ByteRing {
        shmem: Vec<u8>,
        curr: u8,
        boundary: u8,
        accepted: u64,
        missed: u64,
    }

    impl ByteRing {
        fn new() -> Self {
            ByteRing {
                shmem: vec![0; SHMEM],
                curr: TX_PAGES,
                boundary: TX_PAGES,
                accepted: 0,
                missed: 0,
            }
        }

        fn free_pages(&self) -> u8 {
            let ring = NPAGES - TX_PAGES;
            let used = if self.curr >= self.boundary {
                self.curr - self.boundary
            } else {
                ring - (self.boundary - self.curr)
            };
            ring - used - 1
        }

        fn receive(&mut self, frame: &[u8]) -> bool {
            let total = frame.len() + 4;
            let pages_needed = total.div_ceil(PAGE) as u8;
            if pages_needed > self.free_pages() {
                self.missed += 1;
                return false;
            }
            let mut next = self.curr;
            for _ in 0..pages_needed {
                next = WdCard::ring_next(next);
            }
            let base = self.curr as usize * PAGE;
            self.shmem[base] = 0x01;
            self.shmem[base + 1] = next;
            self.shmem[base + 2] = (total & 0xff) as u8;
            self.shmem[base + 3] = (total >> 8) as u8;
            let (mut page, mut off) = (self.curr, 4usize);
            for &b in frame {
                if off == PAGE {
                    page = WdCard::ring_next(page);
                    off = 0;
                }
                self.shmem[page as usize * PAGE + off] = b;
                off += 1;
            }
            self.curr = next;
            self.accepted += 1;
            true
        }

        fn copy_frame(&self, page: u8, len: u16) -> Vec<u8> {
            let mut out = Vec::new();
            let (mut p, mut off) = (page, 4usize);
            for _ in 0..len as usize - 4 {
                if off == PAGE {
                    p = WdCard::ring_next(p);
                    off = 0;
                }
                out.push(self.shmem[p as usize * PAGE + off]);
                off += 1;
            }
            out
        }

        fn drain_one(&mut self) -> Vec<u8> {
            let page = self.boundary;
            let len = u16::from_le_bytes([
                self.shmem[page as usize * PAGE + 2],
                self.shmem[page as usize * PAGE + 3],
            ]);
            let frame = self.copy_frame(page, len);
            self.boundary = self.shmem[page as usize * PAGE + 1];
            frame
        }
    }

    #[test]
    fn slice_ring_matches_the_per_byte_ring() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // A frame of 252 bytes plus its header fills one page exactly;
        // so does 508 for two pages.
        let page_exact = [PAGE - 4, 2 * PAGE - 4, 6 * PAGE - 4];
        let (mut page_ends, mut top_wraps) = (0u32, 0u32);
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut card = WdCard::new();
            let mut oracle = ByteRing::new();
            let mut out = Vec::new();
            for step in 0..400u32 {
                if card.has_frame() && rng.gen_range(0u32..3) == 0 {
                    // Drain one to three frames, as werint does.
                    for _ in 0..rng.gen_range(1u32..4) {
                        if !card.has_frame() {
                            break;
                        }
                        let hdr = card.recv_header(card.boundary);
                        card.copy_frame(card.boundary, hdr.len, &mut out);
                        assert_eq!(out, oracle.drain_one(), "seed {seed} step {step}");
                        card.set_boundary(hdr.next_page);
                    }
                } else {
                    let len = if rng.gen_range(0u32..4) == 0 {
                        page_exact[rng.gen_range(0usize..page_exact.len())]
                    } else {
                        rng.gen_range(60usize..1515)
                    };
                    let frame: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..255)).collect();
                    let start = card.curr as usize * PAGE + 4;
                    let stored = card.receive(&frame);
                    assert_eq!(stored, oracle.receive(&frame), "seed {seed} step {step}");
                    if stored {
                        page_ends += u32::from((start + len).is_multiple_of(PAGE));
                        top_wraps += u32::from(start + len > SHMEM);
                    }
                }
                assert_eq!(card.shmem(), &oracle.shmem[..], "seed {seed} step {step}");
                assert_eq!(
                    (card.curr, card.boundary, card.accepted, card.missed),
                    (oracle.curr, oracle.boundary, oracle.accepted, oracle.missed),
                    "seed {seed} step {step}"
                );
            }
        }
        assert!(page_ends > 0, "no frame ended on a page boundary");
        assert!(top_wraps > 0, "no frame wrapped at SHMEM");
    }
}
