//! # kb-bench
//!
//! The paper's experiment suite: one function per table/figure T1–T12
//! and F1–F7 of DESIGN.md, printed by the `harness` binary. Speed is
//! measured elsewhere, by `kbbench` (`src/bin/kbbench/`, a package of
//! its own).
//!
//! Every experiment is deterministic: same seed, same numbers — except
//! the throughput columns of F2, F4 and T6, which read a clock and are
//! printed, never asserted.

pub mod exp_analytics;
pub mod exp_facts;
pub mod exp_kb;
pub mod exp_link;
pub mod exp_misc;
pub mod exp_ned;
pub mod exp_openie;
pub mod exp_rules;
pub mod exp_scale;
pub mod exp_taxonomy;
pub mod setup;
pub mod table;

/// The seed every harness experiment uses.
pub const HARNESS_SEED: u64 = 2014;
