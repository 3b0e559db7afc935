//! The `wd` IDE disk driver (distinct from the `we` Ethernet driver).
//!
//! The paper: "Each write interrupt took about 200 microseconds in total,
//! with about 149 microseconds of that being actual transfer time of the
//! data to the controller.  Interrupts seemed to be close together most
//! of the time (< 100 microseconds)".  The 149 µs is the programmed-I/O
//! move of one 512-byte sector through the 16-bit data port, which this
//! driver performs inside `wdstart`/`wdintr` exactly as described.

use hwprof_machine::ide::{IdeCommand, IdeStatus, SECTOR};

use crate::bio::{biodone, Io, SECTORS_PER_BLOCK};
use crate::ctx::{kfn, Ctx};
use crate::funcs::KFn;
use crate::spl::{splbio, splx};

fn lba_of(ctx: &Ctx, io: &Io) -> u64 {
    ctx.k.fs.bufs[io.buf].blkno * SECTORS_PER_BLOCK + io.next_sect
}

/// Charges one sector's programmed I/O through the 16-bit data port.
fn pio_sector(ctx: &mut Ctx) {
    let c = ctx.k.machine.cost.isa16_word * (SECTOR as u64 / 2);
    ctx.charge(c);
}

/// Copies one sector between the cache buffer and the controller's
/// sector buffer (direction per `write`).
fn move_sector(ctx: &mut Ctx, io: &Io, write: bool) {
    let off = io.next_sect as usize * SECTOR;
    let k = &mut *ctx.k;
    let ide = k.machine.ide.as_mut().expect("no disk");
    let cached = &mut k.fs.bufs[io.buf].data[off..off + SECTOR];
    if write {
        ide.buffer.copy_from_slice(cached);
    } else {
        cached.copy_from_slice(&ide.buffer);
    }
}

/// `wdstrategy`: queue a block transfer and start the controller.
pub fn wdstrategy(ctx: &mut Ctx, io: Io) {
    kfn(ctx, KFn::WdStrategy, |ctx| {
        ctx.t_us(9);
        let s = splbio(ctx);
        ctx.k.fs.wd_queue.push_back(io);
        splx(ctx, s);
        wdstart(ctx);
    });
}

/// `wdstart`: if the controller is idle, issue the next queued transfer.
pub fn wdstart(ctx: &mut Ctx) {
    kfn(ctx, KFn::WdStart, |ctx| {
        ctx.t_us(4);
        if ctx.k.fs.wd_active.is_some() {
            return;
        }
        let Some(io) = ctx.k.fs.wd_queue.pop_front() else {
            return;
        };
        let lba = lba_of(ctx, &io);
        if io.write {
            // Load the first sector into the controller, then command.
            move_sector(ctx, &io, true);
            pio_sector(ctx);
            ctx.k.machine.ide_issue(IdeCommand::WriteSector(lba));
        } else {
            ctx.k.machine.ide_issue(IdeCommand::ReadSector(lba));
        }
        ctx.k.fs.wd_active = Some(io);
        ctx.k.stats.disk_xfers += 1;
    });
}

/// `wdintr`: per-sector completion interrupt.
pub fn wdintr(ctx: &mut Ctx) {
    kfn(ctx, KFn::WdIntr, |ctx| {
        // Read and acknowledge the controller status.
        ctx.t_us(6);
        let Some(mut io) = ctx.k.fs.wd_active.take() else {
            return; // spurious
        };
        let status = ctx.k.machine.ide.as_ref().expect("no disk").status;
        match status {
            IdeStatus::ReadReady(_) => {
                // Pull the sector out of the controller buffer.
                move_sector(ctx, &io, false);
                pio_sector(ctx);
                io.next_sect += 1;
                if io.next_sect < SECTORS_PER_BLOCK {
                    let lba = lba_of(ctx, &io);
                    ctx.k.machine.ide_issue(IdeCommand::ReadSector(lba));
                    ctx.k.fs.wd_active = Some(io);
                    ctx.k.stats.disk_xfers += 1;
                } else {
                    biodone(ctx, io.buf);
                    wdstart(ctx);
                }
            }
            IdeStatus::WriteDone(_) => {
                io.next_sect += 1;
                if io.next_sect < SECTORS_PER_BLOCK {
                    // Push the next sector (the 149 us inside the
                    // interrupt handler the paper measured).
                    move_sector(ctx, &io, true);
                    pio_sector(ctx);
                    let lba = lba_of(ctx, &io);
                    ctx.k.machine.ide_issue(IdeCommand::WriteSector(lba));
                    ctx.k.fs.wd_active = Some(io);
                    ctx.k.stats.disk_xfers += 1;
                } else {
                    biodone(ctx, io.buf);
                    wdstart(ctx);
                }
            }
            IdeStatus::Idle => {}
        }
    });
}
