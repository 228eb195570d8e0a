//! End-to-end PCQE benchmark.
//!
//! * [`gen`] makes a workload's inputs from a seed.
//! * [`drive`] runs them through `pcqe_engine::Database` in a
//!   single-client closed loop and times every op (the end-to-end run).
//! * [`replay`] replays one epoch of the same ops stage by stage through
//!   the layer crates inside benchmark-owned [`spans`] (the traced run);
//!   its outcomes are the reference every engine op is [`check`]ed
//!   against.
//! * [`report`] turns both into the named metrics; [`stats`] holds the
//!   percentile and output helpers; [`cores`] spreads a run's epochs over
//!   the host's cores.

pub mod check;
pub mod cores;
pub mod drive;
pub mod gen;
pub mod replay;
pub mod report;
pub mod spans;
pub mod stats;
