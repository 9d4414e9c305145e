//! Streaming stress: the live-stream replay of the rival-product case
//! study, end to end — incremental harvest batches become delta
//! installs, delta installs patch standing views, and the analytics
//! layer aggregates the synthesized long-horizon stream over sliding
//! windows. CI-scaled (tens of thousands of posts); patch latency is
//! kbbench's `view.patch_us_p50`/`p95`.

use std::sync::Arc;

use kbkit::kb_analytics::stream::from_corpus;
use kbkit::kb_analytics::{
    sliding_windows, synthesize_stream, window_mention_counts, StreamPost, Tracker,
};
use kbkit::kb_corpus::{Corpus, CorpusConfig};
use kbkit::kb_harvest::pipeline::{HarvestConfig, IncrementalHarvester};
use kbkit::kb_ned::Ned;
use kbkit::kb_query::{canonical_output, execute, QueryService};
use kbkit::kb_store::KbRead;

const VIEWS: [&str; 2] = [
    "SELECT ?c COUNT(?p) AS ?n WHERE { ?p bornIn ?c } GROUP BY ?c",
    "?p bornIn ?c . ?c locatedIn ?n",
];

/// Harvest batches stream into a live service with standing views
/// registered; after every install each view's patched answer must be
/// byte-identical to re-executing its query on the new snapshot.
#[test]
fn harvest_stream_keeps_standing_views_identical_to_reexecution() {
    let corpus = Corpus::generate(&CorpusConfig::tiny());
    let (boot, held_out) = corpus.bootstrap_split();
    let (inc, out) =
        IncrementalHarvester::bootstrap(&boot, &HarvestConfig::default()).expect("bootstrap");
    let service = QueryService::new(out.kb.snapshot().into_shared());
    let ids: Vec<_> =
        VIEWS.iter().map(|q| service.register_view(q).expect("view registers")).collect();

    let mut installs = 0u32;
    let mut patched_updates = 0u32;
    for chunk in held_out.chunks(2) {
        let refs: Vec<_> = chunk.iter().collect();
        let view = service.snapshot();
        let outcome = inc.harvest_batch(&corpus.world, &refs, &view).expect("batch harvests");
        let updates = service.apply_delta(Arc::new(outcome.delta));
        installs += 1;
        patched_updates += updates.iter().filter(|u| u.patched).count() as u32;

        let after = service.snapshot();
        for (id, q) in ids.iter().zip(VIEWS) {
            let plan = service.plan_for(q).expect("view query plans");
            let want = canonical_output(&plan, &execute(&plan, after.as_ref()), after.as_ref());
            let got = service.view_result(*id).expect("view stays registered");
            assert_eq!(
                got.render(after.as_ref()),
                want.render(after.as_ref()),
                "standing view {q:?} diverged after install {installs}"
            );
        }
    }
    assert!(installs >= 3, "the held-out stream must produce several installs, got {installs}");
    assert!(
        patched_updates > 0,
        "both views are conjunctive SELECT/COUNT shapes; at least one install must delta-patch"
    );
}

/// The synthesized long stream is exactly periodic per horizon-sized
/// window: every cycle of the replay produces the same tracked-entity
/// counts as the planted corpus cycle, no matter how far the timeline
/// extends — which is what makes replay results checkable at scale.
#[test]
fn synthesized_stream_windows_are_periodic_at_scale() {
    let corpus = Corpus::generate(&CorpusConfig::tiny());
    let out =
        kbkit::kb_harvest::pipeline::harvest(&corpus, &HarvestConfig::default()).expect("harvest");
    let (pa, pb) = corpus.world.rival_products;
    let ta = out.kb.term(&corpus.world.entity(pa).canonical).expect("product A");
    let tb = out.kb.term(&corpus.world.entity(pb).canonical).expect("product B");
    let mut ned = Ned::new(&out.kb);
    for doc in corpus.all_docs() {
        for m in &doc.mentions {
            if let Some(t) = out.kb.term(&corpus.world.entity(m.entity).canonical) {
                ned.add_anchor(&m.surface, t);
            }
        }
    }
    ned.finalize();
    let tracker = Tracker::new(&ned, vec![ta, tb]);

    let base: Vec<StreamPost> = corpus.posts.iter().map(from_corpus).collect();
    let horizon = kbkit::kb_analytics::live::horizon_days(&base);
    let cycles = (20_000 / base.len()).max(2) as u32;
    let stream = synthesize_stream(&base, base.len() * cycles as usize);
    assert!(stream.len() >= 20_000.min(base.len() * 2), "stream must actually scale up");

    // One horizon-aligned window per replay cycle.
    let windows = sliding_windows(horizon * cycles, horizon, horizon);
    assert_eq!(windows.len(), cycles as usize);
    let counts = window_mention_counts(&tracker, &out.kb, &stream, &windows);
    let first = &counts[0];
    assert!(
        first.get(&ta).copied().unwrap_or(0) + first.get(&tb).copied().unwrap_or(0) > 0,
        "the planted rival products must be mentioned in the base cycle"
    );
    for (k, window) in counts.iter().enumerate().skip(1) {
        assert_eq!(
            window, first,
            "cycle {k} diverged from the planted shape — the replay is not periodic"
        );
    }

    // Overlapping windows (stride < width) see each interior day twice.
    let overlapping = sliding_windows(horizon * 2, horizon, horizon.div_ceil(2));
    assert!(overlapping.len() > 2);
}
