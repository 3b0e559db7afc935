//! The measurement techniques the paper *rejected*, built so the
//! motivation section can be reproduced quantitatively:
//!
//! * **Event statistics** — "a rough idea of the overall performance
//!   [...] The main drawback [...] is the poor granularity and lack of
//!   detail concerning where the kernel time is spent."
//! * **Clock sampling** — "these measurements are useful but suffer from
//!   a trade-off in granularity and accuracy; the finer the granularity,
//!   the more time is spent running the profiling clock and not actually
//!   running the kernel" (the paper's Heisenberg analogy).
//!
//! The simulated kernel exposes both (its `KernStats` counters and the
//! `Sampling` hook in `gatherstats`); this crate scores their output
//! against the zero-perturbation ground-truth oracle.
//!
//! Since the capture-backend redesign, both techniques also *normalize*
//! into the analysis pipeline's `Reconstruction` monoid — see
//! [`SampleProfile::normalize`](sampling::SampleProfile::normalize) and
//! [`CounterModel::normalize`](counters::CounterModel::normalize) — so
//! the same reports, exports, and comparisons run over all of them.

pub mod counters;
pub mod sampling;

pub use counters::{counters_report, CounterAnchor, CounterModel, CrossCheck};
pub use sampling::{
    kernel_symbols, sampler_blind, sampling_accuracy, SampleProfile, SamplingScore,
};
