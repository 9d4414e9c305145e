//! Incremental harvest: bootstrap a base snapshot from part of the
//! corpus, then install the rest as delta segments on a live
//! `QueryService` — queries keep serving throughout, and results whose
//! predicates a delta never touches stay cached across installs.
//!
//! ```text
//! cargo run --release --example incremental_harvest
//! ```

use std::sync::Arc;
use std::time::Instant;

use kbkit::kb_corpus::{Corpus, CorpusConfig};
use kbkit::kb_harvest::pipeline::{HarvestConfig, IncrementalHarvester, Method};
use kbkit::kb_query::QueryService;
use kbkit::kb_store::KbRead;

fn main() {
    // 1. Generate a corpus and hold ~30% of the articles back — they
    //    play the role of documents that arrive after the first build.
    let corpus = Corpus::generate(&CorpusConfig::tiny());
    let (boot, held_out) = corpus.bootstrap_split();

    // 2. Bootstrap: full harvest over the initial documents, keeping
    //    the trained pattern model + type index for later batches.
    let cfg = HarvestConfig { method: Method::Statistical, ..Default::default() };
    let (harvester, out) = IncrementalHarvester::bootstrap(&boot, &cfg).expect("bootstrap");
    let base = out.kb.snapshot().into_shared();
    println!("base snapshot: {} facts from {} articles", base.len(), boot.articles.len());

    // 3. Serve queries against the base, warming the result cache.
    //    `instanceOf` facts come from the bootstrap taxonomy only, so
    //    that entry's footprint is untouched by every later delta.
    let service = QueryService::new(base);
    let warm = "SELECT DISTINCT ?c WHERE { ?p bornIn ?c }";
    let stable = "SELECT DISTINCT ?c WHERE { ?x instanceOf ?c }";
    let before = service.query(warm).expect("warm query");
    service.query(stable).expect("stable query");
    println!("warm query: {} distinct birthplaces", before.rows.len());

    // 4. Late-arriving documents land as delta segments: each batch is
    //    extracted with the frozen model, frozen against the current
    //    view, and installed without rebuilding the base.
    for (i, chunk) in held_out.chunks(4).enumerate() {
        let refs: Vec<_> = chunk.iter().collect();
        let view = service.snapshot();
        let outcome = harvester.harvest_batch(&corpus.world, &refs, &view).expect("harvest batch");
        let t = Instant::now();
        service.apply_delta(Arc::new(outcome.delta));
        println!(
            "delta {i}: {} docs → {} facts, installed in {:.2?}",
            chunk.len(),
            outcome.accepted,
            t.elapsed()
        );
    }

    // 5. The cache kept entries whose predicate footprint no delta
    //    touched; invalidation was scoped, not wholesale.
    let stats = service.cache_stats();
    println!(
        "cache across {} delta installs: {} results retained, {} invalidated",
        stats.delta_installs, stats.result_retained, stats.result_invalidated
    );

    // 6. New facts are queryable immediately; compaction folds the
    //    stack back into one monolithic snapshot when the ratio says so.
    let after = service.query(warm).expect("post-delta query");
    let view = service.snapshot();
    println!(
        "after deltas: {} distinct birthplaces, {} live facts across {} segment(s)",
        after.rows.len(),
        view.len(),
        1 + view.delta_count()
    );
    let compacted = view.compact();
    println!("compacted: {} facts in one segment", compacted.len());
}
