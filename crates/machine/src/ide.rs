//! The IDE controller and the Seagate ST3144 drive.
//!
//! The paper's filesystem study ran on "an IDE controller on a Seagate
//! ST3144 disc" and found: reads vary from 18 to 26 ms; each write
//! interrupt takes ~200 µs of which ~149 µs is programmed-I/O transfer;
//! write-completion interrupts arrive close together (< 100 µs) most of
//! the time because the drive buffers sectors; and the CPU is only ~28 %
//! busy under heavy writes because seeks dominate.
//!
//! The model reproduces those shapes mechanically: a head-position seek
//! model, true rotational position derived from the cycle clock, and a
//! small on-drive write buffer that accepts sectors quickly until it must
//! drain to the platters.

use crate::time::{Cycles, CYCLES_PER_US};

/// Bytes per sector.
pub const SECTOR: usize = 512;

/// Sectors per backing-store slab (64 KiB).
const SLAB_SECTORS: usize = 128;

/// LBAs per page of the store's index (4 KiB of slots).
const INDEX_PAGE: usize = 1024;

/// The drive's backing store: written sectors packed into fixed 64 KiB
/// slabs that are allocated once and never move, found through a
/// two-level LBA → slot index whose pages exist only where sectors were
/// written.  Unwritten sectors read as zeros.
#[derive(Default)]
struct SectorStore {
    /// Slot + 1 for every written LBA, 0 for never written, in pages of
    /// `INDEX_PAGE` LBAs.
    index: Vec<Option<Box<[u32; INDEX_PAGE]>>>,
    /// Slot `s` is sector `s % SLAB_SECTORS` of slab `s / SLAB_SECTORS`.
    slabs: Vec<Box<[[u8; SECTOR]]>>,
    /// Slots handed out so far.
    used: usize,
}

impl SectorStore {
    fn get(&self, lba: u64) -> Option<&[u8]> {
        let lba = lba as usize;
        let page = self.index.get(lba / INDEX_PAGE)?.as_ref()?;
        let slot = (page[lba % INDEX_PAGE] as usize).checked_sub(1)?;
        Some(&self.slabs[slot / SLAB_SECTORS][slot % SLAB_SECTORS])
    }

    /// Stores `data` as sector `lba`, replacing what was there.
    fn put(&mut self, lba: u64, data: &[u8]) {
        let lba = lba as usize;
        if lba / INDEX_PAGE >= self.index.len() {
            self.index.resize_with(lba / INDEX_PAGE + 1, || None);
        }
        let page = self.index[lba / INDEX_PAGE].get_or_insert_with(|| Box::new([0; INDEX_PAGE]));
        let entry = &mut page[lba % INDEX_PAGE];
        if *entry == 0 {
            if self.used.is_multiple_of(SLAB_SECTORS) {
                self.slabs
                    .push(vec![[0; SECTOR]; SLAB_SECTORS].into_boxed_slice());
            }
            self.used += 1;
            *entry = self.used as u32;
        }
        let slot = *entry as usize - 1;
        self.slabs[slot / SLAB_SECTORS][slot % SLAB_SECTORS].copy_from_slice(data);
    }
}

impl std::fmt::Debug for SectorStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SectorStore")
            .field("sectors", &self.used)
            .field("slabs", &self.slabs.len())
            .finish()
    }
}

/// Drive geometry and mechanics.
#[derive(Debug, Clone, Copy)]
pub struct DiskGeometry {
    /// Number of cylinders.
    pub cylinders: u32,
    /// Heads (surfaces).
    pub heads: u32,
    /// Sectors per track.
    pub spt: u32,
    /// Rotation time for one revolution, in cycles.
    pub rotation: Cycles,
    /// Fixed seek settle overhead, in cycles.
    pub seek_base: Cycles,
    /// Per-cylinder seek cost, in cycles.
    pub seek_per_cyl: Cycles,
}

impl DiskGeometry {
    /// The Seagate ST3144: ~130 MB, 3600 RPM class mechanics with an
    /// average seek around 15 ms (base 2.5 ms + 25 µs/cylinder, so a
    /// typical half-stroke lands near the paper's 18-26 ms read band once
    /// rotational latency is added).
    pub fn st3144() -> Self {
        DiskGeometry {
            cylinders: 1001,
            heads: 15,
            spt: 17,
            rotation: 16_667 * CYCLES_PER_US, // 3600 RPM
            seek_base: 2_500 * CYCLES_PER_US,
            seek_per_cyl: 25 * CYCLES_PER_US,
        }
    }

    /// Total addressable sectors.
    pub fn sectors(&self) -> u64 {
        self.cylinders as u64 * self.heads as u64 * self.spt as u64
    }

    /// Cylinder containing logical block `lba`.
    pub fn cylinder_of(&self, lba: u64) -> u32 {
        (lba / (self.heads as u64 * self.spt as u64)) as u32
    }

    /// Sector index within its track.
    pub fn sector_in_track(&self, lba: u64) -> u32 {
        (lba % self.spt as u64) as u32
    }

    /// Seek time from cylinder `from` to `to`.
    pub fn seek_time(&self, from: u32, to: u32) -> Cycles {
        let d = from.abs_diff(to) as u64;
        if d == 0 {
            0
        } else {
            self.seek_base + d * self.seek_per_cyl
        }
    }

    /// Rotational delay at absolute time `now` until sector `lba` passes
    /// under the head, plus the time to read/write the sector itself.
    pub fn rotational_delay(&self, now: Cycles, lba: u64) -> Cycles {
        let sector_time = self.rotation / self.spt as u64;
        let target_angle = self.sector_in_track(lba) as u64 * sector_time;
        let current_angle = now % self.rotation;
        let wait = if target_angle >= current_angle {
            target_angle - current_angle
        } else {
            self.rotation - current_angle + target_angle
        };
        wait + sector_time
    }
}

/// Commands the driver can issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdeCommand {
    /// Read one sector at the given LBA into the controller buffer.
    ReadSector(u64),
    /// Write the controller buffer to the given LBA.
    WriteSector(u64),
}

/// Why the controller raised its interrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdeStatus {
    /// Controller idle, no data pending.
    Idle,
    /// Read data ready in the sector buffer (DRQ).
    ReadReady(u64),
    /// Write accepted; controller ready for the next command.
    WriteDone(u64),
}

/// One buffered write scheduled onto the platter.
#[derive(Debug, Clone, Copy)]
struct PlatterWrite {
    finish: Cycles,
}

/// The controller plus drive mechanics.
#[derive(Debug)]
pub struct IdeController {
    /// Geometry and mechanics of the attached drive.
    pub geom: DiskGeometry,
    /// Current head (cylinder) position.
    pub head_cyl: u32,
    /// Sector buffer the driver PIOs against.
    pub buffer: Vec<u8>,
    /// Status to report at the next interrupt.
    pub status: IdeStatus,
    /// On-drive write buffer: platter finish times of accepted writes.
    write_buf: std::collections::VecDeque<PlatterWrite>,
    /// Write-buffer capacity in sectors.
    pub write_buf_cap: usize,
    /// Absolute cycle at which the mechanism finishes draining the write
    /// buffer (the drive is busy until then).
    pub mech_busy_until: Cycles,
    /// Backing store: the actual sector contents, indexed by LBA.
    store: SectorStore,
    /// Track (lba / spt) whose sectors sit in the drive's read buffer;
    /// sequential reads within it skip the mechanics (1:1 interleave
    /// with a track buffer, as the ST3144 generation shipped).
    track_cache: Option<u64>,
    /// Completed reads.
    pub reads: u64,
    /// Completed writes.
    pub writes: u64,
    /// Command in flight, if any.
    pub inflight: Option<IdeCommand>,
}

impl IdeController {
    /// A controller with an ST3144 attached, heads at cylinder 0.
    pub fn new(geom: DiskGeometry) -> Self {
        IdeController {
            geom,
            head_cyl: 0,
            buffer: vec![0; SECTOR],
            status: IdeStatus::Idle,
            write_buf: std::collections::VecDeque::new(),
            write_buf_cap: 8,
            mech_busy_until: 0,
            store: SectorStore::default(),
            track_cache: None,
            reads: 0,
            writes: 0,
            inflight: None,
        }
    }

    /// Issues `cmd` at time `now`; returns the absolute cycle at which the
    /// controller will raise its completion interrupt.
    ///
    /// For reads the delay is a real seek + rotational positioning.  For
    /// writes the drive accepts the sector into its write buffer and
    /// completes quickly if there is room (the paper's "< 100 µs between
    /// interrupts most of the time"); when the buffer is full the
    /// completion waits for the mechanism to drain a slot.
    ///
    /// # Panics
    ///
    /// Panics if a command is already in flight or the LBA is out of
    /// range.
    pub fn issue(&mut self, cmd: IdeCommand, now: Cycles) -> Cycles {
        assert!(self.inflight.is_none(), "IDE command overlap");
        let done_at = match cmd {
            IdeCommand::ReadSector(lba) => {
                assert!(lba < self.geom.sectors(), "LBA out of range");
                if self.track_cache == Some(lba / u64::from(self.geom.spt)) {
                    // Track-buffer hit: no mechanics.
                    now + 150 * CYCLES_PER_US
                } else {
                    // A read forces the buffered writes out first.
                    let start = now.max(self.mech_busy_until);
                    let drain = self.drain_writes(start);
                    let cyl = self.geom.cylinder_of(lba);
                    let seek = self.geom.seek_time(self.head_cyl, cyl);
                    let rot = self.geom.rotational_delay(drain + seek, lba);
                    self.head_cyl = cyl;
                    // Reading the sector fills the track buffer with the
                    // rest of the track as the platter spins on.
                    drain + seek + rot
                }
            }
            IdeCommand::WriteSector(lba) => {
                assert!(lba < self.geom.sectors(), "LBA out of range");
                self.prune_platter(now);
                if self.write_buf.len() < self.write_buf_cap {
                    // Controller overhead only: ~60 us to accept.
                    now + 60 * CYCLES_PER_US
                } else {
                    // Wait for the oldest buffered write's slot to free.
                    let freed = self.write_buf.front().expect("full buffer").finish;
                    freed + 60 * CYCLES_PER_US
                }
            }
        };
        self.inflight = Some(cmd);
        done_at
    }

    /// Forgets buffered writes whose platter operation has finished.
    fn prune_platter(&mut self, now: Cycles) {
        while self.write_buf.front().is_some_and(|w| w.finish <= now) {
            self.write_buf.pop_front();
        }
    }

    /// Time the mechanism finishes everything currently buffered.
    fn drain_writes(&mut self, start: Cycles) -> Cycles {
        self.write_buf.clear();
        self.mech_busy_until.max(start)
    }

    /// Buffered writes not yet on the platter at `now` (tests).
    pub fn buffered(&mut self, now: Cycles) -> usize {
        self.prune_platter(now);
        self.write_buf.len()
    }

    /// Called by the machine when the scheduled completion time arrives;
    /// finishes the in-flight command and sets the interrupt status.
    pub fn complete(&mut self, now: Cycles) {
        match self
            .inflight
            .take()
            .expect("IDE completion with no command")
        {
            IdeCommand::ReadSector(lba) => {
                match self.store.get(lba) {
                    Some(data) => self.buffer.copy_from_slice(data),
                    None => self.buffer.fill(0),
                }
                self.track_cache = Some(lba / u64::from(self.geom.spt));
                self.status = IdeStatus::ReadReady(lba);
                self.reads += 1;
            }
            IdeCommand::WriteSector(lba) => {
                self.store.put(lba, &self.buffer);
                // The drive schedules the platter write immediately and
                // drains autonomously: consecutive sectors chain at
                // rotation speed instead of missing revolutions.
                let start = now.max(self.mech_busy_until);
                let cyl = self.geom.cylinder_of(lba);
                let seek = self.geom.seek_time(self.head_cyl, cyl);
                let rot = self.geom.rotational_delay(start + seek, lba);
                self.head_cyl = cyl;
                self.mech_busy_until = start + seek + rot;
                self.write_buf.push_back(PlatterWrite {
                    finish: self.mech_busy_until,
                });
                // Writes through a track invalidate the read buffer.
                self.track_cache = None;
                self.status = IdeStatus::WriteDone(lba);
                self.writes += 1;
            }
        }
    }

    /// Reads a sector's stored contents directly (test/oracle use; no
    /// timing).
    pub fn peek(&self, lba: u64) -> Option<&[u8]> {
        self.store.get(lba)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::cycles_to_us;

    fn ctl() -> IdeController {
        IdeController::new(DiskGeometry::st3144())
    }

    #[test]
    fn scattered_reads_take_18_to_26ms() {
        let mut c = ctl();
        let mut now = 0;
        // Random-ish scattered blocks, like file system reads with seeks.
        let lbas = [120_000u64, 4_000, 200_000, 90_000, 180_000, 30_000];
        for &lba in &lbas {
            let done = c.issue(IdeCommand::ReadSector(lba), now);
            let ms = cycles_to_us(done - now) / 1000;
            assert!(
                (4..=45).contains(&ms),
                "read latency {ms} ms plausible bounds"
            );
            c.complete(done);
            now = done + 1000;
        }
        // Average should land in the paper's 18-26 ms band.
        let mut total = 0;
        let mut n = 0;
        let mut now = 0;
        for &lba in lbas.iter().cycle().take(30) {
            let done = c.issue(IdeCommand::ReadSector(lba), now);
            total += done - now;
            n += 1;
            c.complete(done);
            now = done + 1000;
        }
        let avg_ms = cycles_to_us(total / n) / 1000;
        assert!((14..=28).contains(&avg_ms), "avg read {avg_ms} ms");
    }

    #[test]
    fn buffered_writes_complete_fast_until_buffer_fills() {
        let mut c = ctl();
        let mut now = 0;
        let mut fast = 0;
        let mut slow = 0;
        for i in 0..64u64 {
            let done = c.issue(IdeCommand::WriteSector(10_000 + i), now);
            let us = cycles_to_us(done - now);
            if us <= 100 {
                fast += 1;
            } else {
                slow += 1;
            }
            c.complete(done);
            now = done + 2000; // driver turnaround
        }
        assert!(fast > 0, "some writes must be buffer-fast");
        assert!(slow > 0, "some writes must wait on the mechanism");
    }

    #[test]
    fn read_returns_written_data() {
        let mut c = ctl();
        c.buffer = (0..SECTOR).map(|i| (i % 256) as u8).collect();
        let done = c.issue(IdeCommand::WriteSector(42), 0);
        c.complete(done);
        // Force drain then read back.
        let done2 = c.issue(IdeCommand::ReadSector(42), done + 1);
        c.complete(done2);
        assert_eq!(c.status, IdeStatus::ReadReady(42));
        assert_eq!(c.buffer[5], 5);
    }

    /// Writes `fill` to `lba` through the controller; returns the
    /// completion time.
    fn write_sector(c: &mut IdeController, lba: u64, fill: u8, now: Cycles) -> Cycles {
        c.buffer.fill(fill);
        let done = c.issue(IdeCommand::WriteSector(lba), now);
        c.complete(done);
        done
    }

    fn read_sector(c: &mut IdeController, lba: u64, now: Cycles) -> Cycles {
        let done = c.issue(IdeCommand::ReadSector(lba), now);
        c.complete(done);
        assert_eq!(c.status, IdeStatus::ReadReady(lba));
        done
    }

    #[test]
    fn overwriting_an_lba_replaces_its_contents() {
        let mut c = ctl();
        let t = write_sector(&mut c, 77, 0x11, 0);
        let t = write_sector(&mut c, 78, 0x22, t);
        let t = write_sector(&mut c, 77, 0x33, t);
        assert_eq!(c.peek(77), Some(&[0x33u8; SECTOR][..]));
        assert_eq!(c.peek(78), Some(&[0x22u8; SECTOR][..]));
        read_sector(&mut c, 77, t + 1);
        assert!(c.buffer.iter().all(|&b| b == 0x33));
        assert_eq!(c.writes, 3);
    }

    #[test]
    fn unwritten_lba_reads_as_zeros() {
        let mut c = ctl();
        let t = write_sector(&mut c, 5, 0xEE, 0);
        assert_eq!(c.peek(6), None);
        // The controller buffer still holds the written pattern; a read
        // of a never-written sector must clear it.
        read_sector(&mut c, 6, t + 1);
        assert!(c.buffer.iter().all(|&b| b == 0));
        let last = c.geom.sectors() - 1;
        read_sector(&mut c, last, t + 2);
        assert!(c.buffer.iter().all(|&b| b == 0));
        assert_eq!(c.peek(last), None);
    }

    #[test]
    fn peek_agrees_with_reads() {
        let mut c = ctl();
        // More sectors than one slab, scattered and out of order, so
        // slots and LBAs disagree.
        let lbas: Vec<u64> = (0..300u64).map(|i| (i * 7919) % 200_000).collect();
        let mut now = 0;
        for (i, &lba) in lbas.iter().enumerate() {
            c.buffer = (0..SECTOR).map(|j| (i + j) as u8).collect();
            let done = c.issue(IdeCommand::WriteSector(lba), now);
            c.complete(done);
            now = done + 1;
        }
        for &lba in lbas.iter().rev() {
            let stored = c.peek(lba).expect("written").to_vec();
            now = read_sector(&mut c, lba, now) + 1;
            assert_eq!(c.buffer, stored, "lba {lba}");
        }
    }

    #[test]
    fn sequential_same_track_reads_are_rotation_bound() {
        let mut c = ctl();
        // Two sectors on the same track: second read needs no seek.
        let d1 = c.issue(IdeCommand::ReadSector(100), 0);
        c.complete(d1);
        let d2 = c.issue(IdeCommand::ReadSector(101), d1);
        c.complete(d2);
        let us = cycles_to_us(d2 - d1);
        assert!(us < 20_000, "same-track read {us} us");
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_commands_panic() {
        let mut c = ctl();
        c.issue(IdeCommand::ReadSector(1), 0);
        c.issue(IdeCommand::ReadSector(2), 0);
    }
}
