//! Trigger insertion: the compiler pass over the kernel's function table.

use std::collections::BTreeSet;

use hwprof_tagfile::{TagFile, TagFileError, TagKind};

/// Static metadata for one kernel function, as the compiler sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuncMeta {
    /// Symbol name (what goes in the name/tag file).
    pub name: &'static str,
    /// Source module ("net", "vm", "fs", "kern", "locore", ...); the unit
    /// of selective profiling.
    pub module: &'static str,
    /// True if this function causes a context switch (`!` in the file).
    pub context_switch: bool,
}

/// Static metadata for one inline trigger point (`=` in the file),
/// inserted via the compiler `asm` macro or the assembler include file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InlineMeta {
    /// Trigger-point name (e.g. `MGET`).
    pub name: &'static str,
    /// Module whose compilation controls it.
    pub module: &'static str,
}

/// Which modules get compiled with profiling enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModuleSelect {
    /// Nothing instrumented: the unprofiled production kernel.
    None,
    /// Everything instrumented.
    All,
    /// Only the named modules (micro-profiling a subsystem).
    Only(BTreeSet<&'static str>),
    /// Everything except the named modules.
    Except(BTreeSet<&'static str>),
}

impl ModuleSelect {
    /// Convenience constructor from a slice of module names.
    pub fn only(modules: &[&'static str]) -> Self {
        ModuleSelect::Only(modules.iter().copied().collect())
    }

    /// True if `module` compiles with profiling.
    pub fn selects(&self, module: &str) -> bool {
        match self {
            ModuleSelect::None => false,
            ModuleSelect::All => true,
            ModuleSelect::Only(set) => set.contains(module),
            ModuleSelect::Except(set) => !set.contains(module),
        }
    }
}

/// Sizes the compiler reports about the instrumented build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompileStats {
    /// Functions compiled with entry/exit triggers.
    pub instrumented_functions: usize,
    /// Functions compiled without.
    pub plain_functions: usize,
    /// Inline trigger points enabled.
    pub inline_points: usize,
    /// Total trigger instructions added (2 per function + 1 per inline).
    pub trigger_instructions: usize,
    /// Bytes of text added (each trigger is a 6-byte `movb abs32,%al`).
    pub text_growth: u32,
}

/// Bytes of one trigger instruction on the 386 (`movb _ProfileBase+tag,%al`).
pub const TRIGGER_INSTR_BYTES: u32 = 6;

/// The build product: which tag (if any) each function and inline point
/// received.
#[derive(Debug, Clone)]
pub struct InstrumentedImage {
    entry_tags: Vec<Option<u16>>,
    inline_tags: Vec<Option<u16>>,
    /// The (possibly extended) name/tag file used by this build.
    pub tagfile: TagFile,
    /// Compiler size report.
    pub stats: CompileStats,
}

impl InstrumentedImage {
    /// Entry tag of function index `i`, if its module was instrumented.
    #[inline]
    pub fn entry_tag(&self, i: usize) -> Option<u16> {
        self.entry_tags[i]
    }

    /// Exit tag of function index `i` (entry + 1).
    #[inline]
    pub fn exit_tag(&self, i: usize) -> Option<u16> {
        self.entry_tags[i].map(|t| t + 1)
    }

    /// Tag of inline point index `i`, if enabled.
    #[inline]
    pub fn inline_tag(&self, i: usize) -> Option<u16> {
        self.inline_tags[i]
    }

    /// Number of functions carrying triggers.
    pub fn instrumented_len(&self) -> usize {
        self.entry_tags.iter().flatten().count()
    }
}

/// The modified compiler: owns the name/tag file across builds so tags
/// stay stable over recompilation.
#[derive(Debug, Clone)]
pub struct Compiler {
    tagfile: TagFile,
}

impl Compiler {
    /// A compiler with a fresh name/tag file starting above `base`.
    pub fn new(base: u16) -> Self {
        Compiler {
            tagfile: TagFile::new(base),
        }
    }

    /// The current name/tag file contents.
    pub fn tagfile(&self) -> &TagFile {
        &self.tagfile
    }

    /// Compiles the kernel: assigns tags to every function and inline
    /// point whose module `select` chooses, extending the name/tag file.
    ///
    /// Functions in unselected modules get no triggers (and no tag unless
    /// they already had one from an earlier build — the file keeps them,
    /// matching the paper's stable-tag behaviour).
    pub fn compile(
        &mut self,
        funcs: &[FuncMeta],
        inlines: &[InlineMeta],
        select: &ModuleSelect,
    ) -> Result<InstrumentedImage, TagFileError> {
        self.compile_forced(funcs, inlines, select, &[])
    }

    /// Like [`Compiler::compile`], but the functions at the given
    /// indices are instrumented regardless of module selection.  Used to
    /// keep the context-switch function tagged under micro-profiling:
    /// without `swtch` events the analysis software cannot split per-
    /// process code paths.
    pub fn compile_forced(
        &mut self,
        funcs: &[FuncMeta],
        inlines: &[InlineMeta],
        select: &ModuleSelect,
        forced: &[usize],
    ) -> Result<InstrumentedImage, TagFileError> {
        let mut entry_tags = Vec::with_capacity(funcs.len());
        let mut stats = CompileStats::default();
        for (i, f) in funcs.iter().enumerate() {
            if select.selects(f.module) || forced.contains(&i) {
                let kind = if f.context_switch {
                    TagKind::ContextSwitch
                } else {
                    TagKind::Function
                };
                let tag = self.tagfile.assign(f.name, kind)?;
                entry_tags.push(Some(tag));
                stats.instrumented_functions += 1;
                stats.trigger_instructions += 2;
            } else {
                entry_tags.push(None);
                stats.plain_functions += 1;
            }
        }
        let mut inline_tags = Vec::with_capacity(inlines.len());
        for p in inlines {
            if select.selects(p.module) {
                let tag = self.tagfile.assign(p.name, TagKind::Inline)?;
                inline_tags.push(Some(tag));
                stats.inline_points += 1;
                stats.trigger_instructions += 1;
            } else {
                inline_tags.push(None);
            }
        }
        stats.text_growth = stats.trigger_instructions as u32 * TRIGGER_INSTR_BYTES;
        Ok(InstrumentedImage {
            entry_tags,
            inline_tags,
            tagfile: self.tagfile.clone(),
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FUNCS: &[FuncMeta] = &[
        FuncMeta {
            name: "bcopy",
            module: "kern",
            context_switch: false,
        },
        FuncMeta {
            name: "ipintr",
            module: "net",
            context_switch: false,
        },
        FuncMeta {
            name: "swtch",
            module: "kern",
            context_switch: true,
        },
        FuncMeta {
            name: "vm_fault",
            module: "vm",
            context_switch: false,
        },
    ];

    const INLINES: &[InlineMeta] = &[InlineMeta {
        name: "MGET",
        module: "net",
    }];

    #[test]
    fn all_instruments_everything() {
        let mut c = Compiler::new(500);
        let img = c.compile(FUNCS, INLINES, &ModuleSelect::All).unwrap();
        assert_eq!(img.stats.instrumented_functions, 4);
        assert_eq!(img.stats.inline_points, 1);
        assert_eq!(img.stats.trigger_instructions, 9);
        assert_eq!(img.stats.text_growth, 54);
        for i in 0..4 {
            assert!(img.entry_tag(i).is_some());
            assert_eq!(img.exit_tag(i), img.entry_tag(i).map(|t| t + 1));
        }
        // swtch carries the context-switch modifier into the file.
        let e = img.tagfile.entry_of("swtch").unwrap();
        assert_eq!(e.kind, hwprof_tagfile::TagKind::ContextSwitch);
    }

    #[test]
    fn selective_profiling_only_tags_chosen_modules() {
        let mut c = Compiler::new(500);
        let img = c
            .compile(FUNCS, INLINES, &ModuleSelect::only(&["net"]))
            .unwrap();
        assert_eq!(img.entry_tag(0), None, "kern/bcopy untouched");
        assert!(img.entry_tag(1).is_some(), "net/ipintr tagged");
        assert_eq!(img.entry_tag(2), None);
        assert!(img.inline_tag(0).is_some(), "net inline tagged");
        assert_eq!(img.stats.plain_functions, 3);
    }

    #[test]
    fn tags_are_stable_across_rebuilds_with_different_selection() {
        let mut c = Compiler::new(500);
        let micro = c
            .compile(FUNCS, INLINES, &ModuleSelect::only(&["net"]))
            .unwrap();
        let ip_tag = micro.entry_tag(1).unwrap();
        // A later full build must give ipintr the same tag.
        let full = c.compile(FUNCS, INLINES, &ModuleSelect::All).unwrap();
        assert_eq!(full.entry_tag(1), Some(ip_tag));
        // And new functions allocate above everything previously used.
        let bcopy = full.entry_tag(0).unwrap();
        assert!(bcopy > ip_tag);
    }

    #[test]
    fn none_produces_the_production_kernel() {
        let mut c = Compiler::new(500);
        let img = c.compile(FUNCS, INLINES, &ModuleSelect::None).unwrap();
        assert_eq!(img.instrumented_len(), 0);
        assert_eq!(img.stats.trigger_instructions, 0);
        assert_eq!(img.stats.text_growth, 0);
    }

    #[test]
    fn except_inverts_selection() {
        let sel = ModuleSelect::Except(["vm"].into_iter().collect());
        assert!(sel.selects("net"));
        assert!(!sel.selects("vm"));
    }
}
