//! Mbufs: the BSD network buffer.
//!
//! `MGET` and `MCLGET` are macros in the real kernel, so they appear in
//! the paper's name/tag file as *inline* tags (`MGET/1002=`); allocating
//! one fires an inline trigger rather than an entry/exit pair.

use crate::ctx::{kfn, Ctx};
use crate::funcs::{KFn, KInline};

/// Data bytes in a small mbuf.
pub const MLEN: usize = 112;
/// Bytes in a cluster.
pub const MCLBYTES: usize = 1024;

/// Where an mbuf's data physically lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataLoc {
    /// Ordinary main-memory mbuf or cluster.
    Main,
    /// External mbuf pointing into 8-bit ISA controller memory (the
    /// paper's what-if); every later touch pays ISA rates.
    IsaShared,
}

/// One mbuf (or cluster mbuf): real bytes plus location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mbuf {
    /// The data.
    pub data: Vec<u8>,
    /// Physical location for cost purposes.
    pub loc: DataLoc,
}

/// An mbuf chain.
pub type Chain = Vec<Mbuf>;

/// Total bytes in a chain.
pub fn chain_len(ch: &Chain) -> usize {
    ch.iter().map(|m| m.data.len()).sum()
}

/// Flattens a chain (test/verification helper; no cost).
pub fn chain_bytes(ch: &Chain) -> Vec<u8> {
    let mut out = Vec::with_capacity(chain_len(ch));
    for m in ch {
        out.extend_from_slice(&m.data);
    }
    out
}

/// `MGET`: allocate a small mbuf from the pool (inline trigger).  The
/// free-list pop is protected by `splimp`, one more of the per-packet
/// spl acquisitions behind the paper's "it all adds up to a significant
/// amount".
pub fn m_get(ctx: &mut Ctx, loc: DataLoc) -> Mbuf {
    ctx.inline_trigger(KInline::Mget);
    let s = crate::spl::splimp(ctx);
    ctx.t_us(5);
    ctx.k.net.mbuf_allocs += 1;
    crate::spl::splx(ctx, s);
    Mbuf {
        data: Vec::new(),
        loc,
    }
}

/// `MCLGET`: attach a cluster to an mbuf (inline trigger).
pub fn m_clget(ctx: &mut Ctx, m: &mut Mbuf) {
    ctx.inline_trigger(KInline::Mclget);
    ctx.t_us(8);
    ctx.k.net.cluster_allocs += 1;
    m.data.reserve(MCLBYTES);
}

/// `m_free`: release one mbuf (free-list push under `splimp`).
pub fn m_free(ctx: &mut Ctx, m: Mbuf) {
    kfn(ctx, KFn::MFree, |ctx| {
        let s = crate::spl::splimp(ctx);
        ctx.t_us(4);
        ctx.k.net.mbuf_frees += 1;
        splx_drop(ctx, s, m);
    });
}

fn splx_drop(ctx: &mut Ctx, s: crate::spl::Level, m: Mbuf) {
    crate::spl::splx(ctx, s);
    drop(m);
}

/// `m_freem`: release a whole chain.
pub fn m_freem(ctx: &mut Ctx, ch: Chain) {
    kfn(ctx, KFn::MFreem, |ctx| {
        ctx.t_us(2);
        for m in ch {
            m_free(ctx, m);
        }
    });
}
