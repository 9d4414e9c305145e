//! `kb-query`: a SPARQL-style declarative query engine over the KB
//! store, replacing ad-hoc pattern-matching call sites with parsed,
//! planned, cached query execution — the workload class the paper's
//! "querying and analytics" discussion assumes a big-data KB must
//! serve.
//!
//! Four layers:
//!
//! 1. **Language + algebra** ([`SelectQuery`], [`parse()`]) — a SPARQL-like
//!    surface (`SELECT`/`DISTINCT`, conjunctive basic graph patterns,
//!    `FILTER`, `OPTIONAL`, `UNION`, `GROUP BY`/`COUNT`,
//!    `ORDER BY`/`LIMIT`/`OFFSET`, and `@point` temporal restriction)
//!    parsed KB-independently into a typed algebra whose
//!    [`Display`](std::fmt::Display) form is canonical: `parse ∘
//!    display` is the identity, and the canonical text keys the plan
//!    cache.
//! 2. **Cost-based planner** ([`StatsCatalog`], [`plan()`]) — per-predicate
//!    cardinality and distinct counts harvested from the snapshot's
//!    index buckets feed a Selinger-style join-order optimizer (exact
//!    subset DP for small BGPs, greedy beyond), emitting physical
//!    plans whose one join is the index-nested-loop scan step — which
//!    the executor may answer from a probe table of its predicate's
//!    run — over any [`KbRead`], with no per-row allocation.
//! 3. **Serving layer** — an `Arc<KbSnapshot>`-backed
//!    [`QueryService`] with a bounded LRU plan cache keyed on
//!    normalized query text and a result cache invalidated per
//!    predicate by delta installs; callers bring their own threads
//!    (`query` takes `&self`). The caching policy itself — LRU order,
//!    the epoch freshness rule, single-flight dedup of concurrent
//!    misses — is one private type in `cache.rs`, shared by every cache
//!    of the service.
//! 4. **Standing views** — a [`ViewRegistry`] of
//!    materialized continuous queries patched incrementally from each
//!    delta install via signed delta joins, run through the executor's
//!    own scan steps, falling back to
//!    re-execution only for plan shapes outside the maintainable
//!    fragment.
//!
//! Every module is private: the crate's whole API is the `pub use` list
//! at the end of this file — the query algebra ([`SelectQuery`] and the
//! [`Pattern`], [`Term`], [`Group`], [`Condition`], [`CmpOp`],
//! [`ProjItem`] and [`OrderKey`] it is built from), [`parse()`] /
//! [`normalize`], [`plan()`] / [`Plan`] / [`routing_decision`],
//! [`execute`] / [`execute_traced`] and the [`QueryOutput`] they return
//! (its [`Rows`] of [`Cell`]s),
//! [`QueryService`], [`ViewRegistry`] and its [`ViewUpdate`]s, and
//! [`QueryError`]. A name joins the list when a crate, test, example or
//! benchmark outside kb-query needs it (or a public signature returns
//! it), and `unreachable_pub` flags a `pub` item that is on neither path.
//!
//! ```
//! use kb_store::KbBuilder;
//!
//! let mut b = KbBuilder::new();
//! b.assert_str("Steve_Jobs", "bornIn", "San_Francisco");
//! b.assert_str("San_Francisco", "locatedIn", "California");
//! let snap = b.freeze();
//!
//! let out = kb_query::query(&snap, "?p bornIn ?c . ?c locatedIn California").unwrap();
//! assert_eq!(out.rows.len(), 1);
//! ```

#![warn(unreachable_pub)]

mod ast;
mod cache;
mod error;
mod exec;
mod lock;
mod parse;
mod plan;
mod service;
mod stats;
mod view;

pub use ast::{CmpOp, Condition, Group, OrderKey, Pattern, ProjItem, SelectQuery, Term};
pub use error::QueryError;
pub use exec::{
    cell_str, execute, execute_traced, Cell, CellValue, ExecTrace, ProbeBuild, QueryOutput, Rows,
};
pub use parse::{normalize, parse};
pub use plan::{plan, routing_decision, Footprint, Plan, RoutingDecision};
pub use service::{CacheStats, QueryService, DEFAULT_CACHE_CAPACITY};
pub use stats::{PredStat, StatsCatalog};
pub use view::{
    canonical_output, maintainability, Maintainability, ViewId, ViewRegistry, ViewUpdate,
};

use kb_store::KbRead;

/// One-shot convenience: parse, plan and execute `text` against `kb`.
///
/// Builds a fresh [`StatsCatalog`] per call — fine for scripts and
/// tests; long-lived callers should hold a [`QueryService`] (snapshot
/// sharing, plan/result caches) or at least reuse a catalog with
/// [`plan()`] + [`execute`].
pub fn query<K: KbRead + ?Sized>(kb: &K, text: &str) -> Result<QueryOutput, QueryError> {
    let parsed = parse(text)?;
    let stats = StatsCatalog::build(kb);
    let compiled = plan(&parsed, kb, &stats)?;
    Ok(execute(&compiled, kb))
}
