//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section 5, Figure 11(a)–(f), Table 4).
//!
//! The [`experiments`] module exposes one runner per figure; the
//! `figures` binary drives them and prints the same rows/series the paper
//! reports, and the std-only timing benches in `benches/` (see
//! [`timing`]) measure the same code paths. The engine benches check
//! their answers against the logical [`oracle`] before timing.
//!
//! Absolute numbers will not match a 2009 Core 2 Duo; the *shapes* are
//! what this harness reproduces: which algorithm wins at which scale, the
//! speedup from the pruning heuristics, and the cost gap between the
//! greedy variants and the exact optimum.

pub mod experiments;
pub mod oracle;
pub mod report;
pub mod timing;

pub use experiments::{run_fig11a, run_fig11be, run_fig11cf, Fig11aRow, Fig11beRow, Fig11cfRow};
