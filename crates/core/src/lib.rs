//! # kb-harvest
//!
//! The core contribution: automatic knowledge-base construction from
//! text — the method families surveyed in Suchanek & Weikum,
//! *Knowledge Bases in the Age of Big Data Analytics* (VLDB 2014),
//! Sections 2–3:
//!
//! * **Entities & classes** ([`taxonomy`]): category-string analysis
//!   (WikiTaxonomy-style head-noun parsing), Hearst patterns
//!   ("X such as Y"), set expansion over enumeration contexts, and
//!   subsumption-based subclass induction.
//! * **Relational facts** ([`facts`]): surface-pattern extraction with
//!   distant supervision (seed facts → patterns → new facts), plus
//!   statistical confidence aggregation.
//! * **Consistency reasoning** ([`reasoning`]): a weighted MaxSat solver
//!   enforcing functionality, inverse-functionality and type constraints
//!   over candidate facts (SOFIE-style).
//! * **Statistical inference** ([`factorgraph`]): boolean factor graphs
//!   with Gibbs-sampling marginals (DeepDive-style), an alternative
//!   joint-inference backend.
//! * **Open IE** ([`openie`]): ReVerb-style verb-phrase relation
//!   extraction with lexical-frequency constraints.
//! * **Temporal knowledge** ([`temporal`]): temporal-expression tagging
//!   and fact timespan inference (YAGO2-style).
//! * **Commonsense** ([`commonsense`]): property and part-whole mining
//!   over generic sentences.
//! * **Multilingual** ([`multilingual`]): cross-lingual label harvesting
//!   with transliteration-consistency filtering.
//! * **Rule mining** ([`rules`]): AMIE-style Horn-rule mining with
//!   PCA confidence, plus rule-based KB completion.
//! * **The pipeline** ([`pipeline`]): a multi-threaded end-to-end run
//!   over a document collection producing a populated
//!   [`kb_store::KbBuilder`].
//! * **Resilience** ([`resilience`]): poison-document quarantine with a
//!   dead-letter queue, and typed errors for a panic in a stage —
//!   web-scale noise must not kill the harvest.

pub mod commonsense;
pub mod factorgraph;
pub mod facts;
pub mod multilingual;
pub mod openie;
pub mod pipeline;
pub mod reasoning;
pub mod resilience;
pub mod rules;
pub mod taxonomy;
pub mod temporal;

pub use facts::extract::CandidateFact;
pub use pipeline::{HarvestConfig, HarvestOutput};
pub use resilience::{PipelineError, QuarantineReason, Quarantined};
