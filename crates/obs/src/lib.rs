//! # kb-obs
//!
//! The workspace's observability substrate: lock-free [`Counter`] /
//! [`Gauge`] atomics, a fixed-bucket [`Histogram`] with p50/p95/p99
//! readout, a scoped [`SpanTimer`] driven by an injectable [`Clock`],
//! and a [`Registry`] that catalogs metrics by name and renders them as
//! an aligned text table or a stable JSON object. Beside them
//! [`outln!`], the `println!` of a report whose reader may stop reading.
//!
//! Deliberately dependency-free (not even the vendored crates): the
//! write path is a handful of relaxed atomics, the read path is a
//! `Mutex`-guarded `BTreeMap` walk, and determinism comes from the
//! [`Clock`] trait — production uses [`WallClock`], tests use
//! [`ManualClock`] and never touch wall-clock time. See DESIGN.md
//! "Observability" for the metric naming scheme and the rationale for
//! not pulling in an external metrics crate.
//!
//! ```
//! use kb_obs::{ManualClock, Registry};
//! use std::sync::Arc;
//!
//! let clock = ManualClock::shared(0);
//! let reg = Registry::with_clock(clock.clone());
//! reg.counter("demo.events").inc();
//! {
//!     let _span = reg.span("demo.step_us");
//!     clock.advance(250);
//! } // records 250 µs on drop
//! assert!(reg.render_text().contains("demo.events"));
//! assert!(reg.render_json().contains("\"demo.events\":1"));
//! ```

mod clock;
mod metrics;
mod registry;
mod report;

pub use clock::{Clock, ManualClock, WallClock};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, SpanTimer, LATENCY_BUCKETS_US};
pub use registry::{global, Registry};
pub use report::print_line;
