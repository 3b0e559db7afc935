//! `execve`: overlay the process with a new image.
//!
//! The paper measured ~28 ms per `execve` (image already cached, no disk
//! activity), again dominated by pmap traffic: tearing down the old
//! space and setting protections on the new one walk every page through
//! `pmap_pte`.

use crate::ctx::{kfn, Ctx};
use crate::ffs::namei;
use crate::funcs::KFn;
use crate::kern_fork::vfork_chan;
use crate::pmap::{pmap_protect, PAGE_SIZE};
use crate::subr::copyinstr;
use crate::synch::wakeup;
use crate::vm::{vm_fault, vmspace_free, Backing, MapEntry};

/// Base virtual address of the text segment.
pub const TEXT_BASE: u32 = 0x0000_1000;
/// Top of the user stack.
pub const STACK_TOP: u32 = 0x0800_0000;

/// A program image to exec.
#[derive(Debug, Clone)]
pub struct ExecImage {
    /// Path, for `namei`.
    pub path: String,
    /// Text pages.
    pub text_pages: u32,
    /// Initialized data pages.
    pub data_pages: u32,
    /// Initial stack reservation in pages.
    pub stack_pages: u32,
    /// Bytes of argv/envp strings to copy in.
    pub argv_bytes: usize,
}

impl ExecImage {
    /// The shell-sized image of the paper's fork/exec study: ~2 MB
    /// mapped, so the per-page pmap walks land near the measured counts.
    pub fn shell() -> Self {
        ExecImage {
            path: "/bin/sh".to_string(),
            text_pages: 256,
            data_pages: 200,
            stack_pages: 64,
            argv_bytes: 900,
        }
    }

    /// A small helper-utility image.
    pub fn small_util() -> Self {
        ExecImage {
            path: "/bin/echo".to_string(),
            text_pages: 24,
            data_pages: 12,
            stack_pages: 16,
            argv_bytes: 200,
        }
    }
}

/// `execve`: replace the current image with `image`.
pub fn execve(ctx: &mut Ctx, image: &ExecImage) {
    kfn(ctx, KFn::Execve, |ctx| {
        // Copy in the path and argument strings.
        copyinstr(ctx, image.path.len() + 1);
        copyinstr(ctx, image.argv_bytes);
        // Resolve the image vnode (cached).
        namei(ctx, &image.path);
        // Read the exec header from the (cached) vnode.
        ctx.t_us(70);
        let me = ctx.me;
        // Release the old (possibly vfork-shared) address space; if this
        // was the last reference the teardown storms through
        // pmap_remove.
        let old_vs = ctx.k.procs.get(me).vmspace;
        if old_vs != u32::MAX {
            vmspace_free(ctx, old_vs);
        }
        // The vfork parent gets its space back now.
        wakeup(ctx, vfork_chan(me));
        // Build the fresh space.
        let vs = ctx.k.vm.alloc_space();
        ctx.k.procs.get_mut(me).vmspace = vs;
        let text_start = TEXT_BASE;
        let text_end = text_start + image.text_pages * PAGE_SIZE;
        let data_end = text_end + image.data_pages * PAGE_SIZE;
        let stack_start = STACK_TOP - image.stack_pages * PAGE_SIZE;
        let entries = [
            MapEntry {
                start: text_start,
                end: text_end,
                backing: Backing::CachedObject,
                writable: false,
                cow: false,
            },
            MapEntry {
                start: text_end,
                end: data_end,
                backing: Backing::CachedObject,
                writable: true,
                cow: true, // data is COW from the cached image
            },
            MapEntry {
                start: stack_start,
                end: STACK_TOP,
                backing: Backing::ZeroFill,
                writable: true,
                cow: false,
            },
        ];
        for e in entries {
            ctx.t_us(32); // vm_map entry + object allocation
                          // Associating the cached image's pages with the new object
                          // chain costs per-page work (the thick side of the Mach
                          // glue; with ~500 pages this is most of the 28 ms exec).
            if e.backing == Backing::CachedObject {
                ctx.charge(e.pages() as u64 * 800);
            }
            ctx.k.vm.space_mut(vs).map.push(e);
        }
        // Set text read-only and mark the data COW: both passes walk
        // the new space page by page (no tables yet — the walk itself is
        // the cost, as in the original pmap).
        pmap_protect(ctx, vs, text_start, text_end);
        pmap_protect(ctx, vs, text_end, data_end);
        // Fault in the entry point and the initial stack page.
        vm_fault(ctx, vs, text_start, false);
        vm_fault(ctx, vs, STACK_TOP - PAGE_SIZE, true);
        // Set up signal state, close-on-exec, registers.
        ctx.t_us(60);
    });
}
