//! # kb-store
//!
//! An in-memory RDF-style knowledge-base store in the spirit of the
//! SPO-triple model used by YAGO, DBpedia and Freebase, as surveyed in
//! Suchanek & Weikum, *Knowledge Bases in the Age of Big Data Analytics*
//! (VLDB 2014), Section 2.
//!
//! The storage engine is split into a write side and a read side,
//! mirroring the batch-curation vs read-serving architecture of the
//! industrial KBs the paper surveys:
//!
//! * **Write side** — [`KbBuilder`], the one mutable KB, accepts
//!   ingest in one stream of writes, so the same writes in the same
//!   order give the same builder. Code that interleaves reads and writes
//!   queries the builder itself: its indexes are frozen lazily and
//!   cached between structural writes.
//! * **Read side** — [`KbBuilder::freeze`] produces an immutable,
//!   `Arc`-shareable [`KbSnapshot`] whose SPO/POS/OSP permutation
//!   indexes are frozen sorted arrays answered by binary-search range
//!   scans.
//! * **Read trait** — every consumer queries through [`KbRead`]
//!   (streaming [`matching_iter`](KbRead::matching_iter),
//!   [`triples_iter`](KbRead::triples_iter), time-travel and path-join
//!   iterators), never against a concrete index layout. A view only
//!   names the sorted runs it is made of ([`Groups`]); the trait owns
//!   how they merge.
//!
//! The store provides:
//!
//! * a string [`Dictionary`] interning every term
//!   (entity, class, relation, literal) to a dense [`TermId`];
//! * per-fact metadata: extraction [confidence](Fact::confidence),
//!   [provenance source](SourceId) and an optional
//!   temporal scope ([`TimeSpan`]);
//! * a class [`Taxonomy`] (subclass-of DAG with
//!   transitive subsumption and cycle rejection);
//! * `owl:sameAs` management via a union-find ([`SameAsStore`])
//!   with canonical representatives;
//! * a multilingual [`LabelStore`] with a reverse
//!   surface-form index (the `means` relation used by NED);
//! * a line-oriented [N-Triples-style text format](ntriples) for
//!   persistence.
//!
//! ## The public surface
//!
//! Every module is private except two formats named by path:
//! [`ntriples`] (the text dump) and [`segment_io`] (the segment image).
//! Everything else is the `pub use` list at the end of this file, named
//! from the crate root:
//!
//! * **terms and facts** — [`Dictionary`], [`TermId`], [`FactId`],
//!   [`SourceId`], [`Fact`], [`Triple`], [`TimePoint`], [`TimeSpan`],
//!   [`TriplePattern`] (with the [`IndexChoice`] it plans);
//! * **the mutable KB** — [`KbBuilder`], with the [`Taxonomy`],
//!   [`SameAsStore`] and [`LabelStore`] it owns;
//! * **frozen views** — [`KbSnapshot`], [`SegmentedSnapshot`] over
//!   [`DeltaSegment`]s ([`FactKind`]), [`PartitionedView`]
//!   ([`partition_snapshot`], [`partition_delta`],
//!   [`subject_partition`]), all read through [`KbRead`] /
//!   [`KbReadBatch`] and the iterators, batches and statistics those
//!   return;
//! * **durability** — [`SegmentStore`] ([`StoreOptions`],
//!   [`MemoryBudget`], [`RecoveryReport`], [`Compactor`]), its
//!   [`Manifest`] and [`Wal`] ([`WalReplay`], [`DurabilityCost`],
//!   [`WAL_HEADER_LEN`]), and [`StoreError`] / [`SegmentRegion`];
//! * **shared mechanics** — the compressed column [`ColFrames`]
//!   ([`FRAME_ROWS`]) and the [`FxHasher`] kb-query's key tables use.
//!
//! A name joins the list when a crate, test, example or benchmark outside
//! kb-store needs it (or a public signature returns it), and
//! `unreachable_pub` flags a `pub` item that is on neither path.
//!
//! ```
//! use kb_store::{KbBuilder, KbRead, TriplePattern};
//!
//! let mut kb = KbBuilder::new();
//! let jobs = kb.intern("Steve_Jobs");
//! let apple = kb.intern("Apple_Inc");
//! let founded = kb.intern("founded");
//! kb.add_triple(jobs, founded, apple);
//!
//! let hits = kb.matching(&TriplePattern::with_s(jobs));
//! assert_eq!(hits.len(), 1);
//! assert_eq!(kb.resolve(hits[0].triple.o), Some("Apple_Inc"));
//!
//! // Freeze an immutable snapshot for read-heavy sharing.
//! let snap = kb.freeze().into_shared();
//! assert_eq!(snap.count_matching(&TriplePattern::any()), 1);
//! ```

#![warn(unreachable_pub)]

mod builder;
mod dict;
mod error;
mod fact;
mod frames;
mod fuse;
mod fx;
mod ids;
mod idtable;
mod labels;
mod manifest;
pub mod ntriples;
mod partition;
mod pattern;
mod read;
mod sameas;
mod segmap;
mod segment;
pub mod segment_io;
mod segment_store;
mod snapshot;
mod stats;
mod taxonomy;
mod time;
mod wal;

pub use builder::KbBuilder;
pub use dict::Dictionary;
pub use error::{SegmentRegion, StoreError};
pub use fact::{Fact, Triple};
pub use frames::{ColFrames, FRAME_ROWS};
pub use fx::FxHasher;
pub use ids::{FactId, SourceId, TermId};
pub use labels::LabelStore;
pub use manifest::Manifest;
pub use partition::{partition_delta, partition_snapshot, subject_partition, PartitionedView};
pub use pattern::{IndexChoice, TriplePattern};
pub use read::{Groups, KbRead, KbReadBatch};
pub use sameas::SameAsStore;
pub use segmap::MemoryBudget;
pub use segment::{Compactor, DeltaSegment, FactKind, SegmentedSnapshot};
pub use segment_store::{RecoveryReport, SegmentStore, StoreOptions};
pub use snapshot::{
    IndexStats, KbSnapshot, LiveFactsIter, MatchBatches, MatchIter, MatchingAtIter, TripleBatch,
    TriplesIter, BATCH_ROWS,
};
pub use stats::KbStats;
pub use taxonomy::Taxonomy;
pub use time::{TimePoint, TimeSpan};
pub use wal::{DurabilityCost, Wal, WalReplay, WAL_HEADER_LEN};
