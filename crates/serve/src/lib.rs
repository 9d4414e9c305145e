//! # kb-serve
//!
//! Scale-out serving for the knowledge base: subject-partitioned
//! [`QueryService`](kb_query::QueryService) replicas behind a
//! planner-aware [`KbRouter`], with admission control in front — the
//! paper's map-reduce-era scaling story applied to the *serving* side
//! ("same scaling shape on one machine", DESIGN.md).
//!
//! ## Partitioning invariant
//!
//! The KB is hash-partitioned by the subject *string*
//! ([`kb_store::subject_partition`]): every fact lives in exactly one
//! partition, colocated with its subject, while the term dictionary,
//! source table and ontology stores are replicated into every replica
//! so all partitions speak the global `TermId` language. Each replica
//! also receives the *global* planner statistics, so any replica plans
//! exactly like a monolithic service over the whole KB.
//!
//! ## Routing
//!
//! The router parses each query and asks the planner for a
//! [`RoutingDecision`](kb_query::RoutingDecision):
//!
//! * **Subject-bound** queries (every pattern has the same constant
//!   subject) route to the one partition that owns the subject — the
//!   replica's answer is byte-identical to the monolith's because it
//!   holds every fact the query can touch, the same ids, and the same
//!   statistics.
//! * Everything else **scatter-gathers**: the gather is pushed below
//!   the join to the *scan* level — the query executes once at the
//!   router over a [`PartitionedView`](kb_store::PartitionedView) that
//!   k-way merges per-partition index cursors into exactly the
//!   monolithic scan order. DISTINCT / ORDER BY / LIMIT / aggregates
//!   are therefore computed at the merger over complete inputs, never
//!   trusted from per-partition partials.
//!
//! ## Consistency
//!
//! Delta installs fan out under an epoch barrier:
//! [`KbRouter::apply_delta`] splits the frozen delta by subject hash,
//! installs every slice (empty slices included, keeping the replicas'
//! term/source spaces aligned) and swaps the merged scatter view while
//! holding the router's write lock — a query either sees all
//! partitions pre-delta or all partitions post-delta, never a torn
//! mix.
//!
//! ## Admission control
//!
//! In front of routing sits an [`AdmissionConfig`]-driven gate:
//! per-tenant token buckets and bounded per-partition in-flight
//! queues. Rejections are typed ([`Overloaded`]) and counted
//! (`serve.shed`), never panics — load past the knee degrades into
//! fast, explicit rejections while admitted traffic keeps its latency.

mod admission;
mod lock;
mod metrics;
mod router;
mod subscribe;

pub use admission::{AdmissionConfig, Overloaded};
pub use router::{KbRouter, ServeError, DEFAULT_TENANT};
pub use subscribe::{Subscription, ViewLag};
