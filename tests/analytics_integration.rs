//! Integration: the full analytics path — harvested KB + NED + stream
//! aggregation recovers the corpus' planted volume/sentiment shapes.

use kbkit::kb_analytics::exec::aggregate_parallel;
use kbkit::kb_analytics::stream::from_corpus;
use kbkit::kb_analytics::{ComparisonReport, StreamPost, Tracker};
use kbkit::kb_corpus::{Corpus, CorpusConfig};
use kbkit::kb_harvest::pipeline::{harvest, HarvestConfig};
use kbkit::kb_ned::Ned;
use kbkit::kb_store::{KbBuilder, KbRead};

struct Fixture {
    corpus: Corpus,
    out: kbkit::kb_harvest::pipeline::HarvestOutput,
}

fn fixture() -> Fixture {
    let corpus = Corpus::generate(&CorpusConfig::tiny());
    let out = harvest(&corpus, &HarvestConfig::default()).expect("harvest");
    Fixture { corpus, out }
}

fn tracked_terms(f: &Fixture) -> (kbkit::kb_store::TermId, kbkit::kb_store::TermId) {
    let (pa, pb) = f.corpus.world.rival_products;
    (
        f.out.kb.term(&f.corpus.world.entity(pa).canonical).expect("A"),
        f.out.kb.term(&f.corpus.world.entity(pb).canonical).expect("B"),
    )
}

fn build_ned<'kb>(f: &'kb Fixture) -> Ned<'kb, KbBuilder> {
    let mut ned = Ned::new(&f.out.kb);
    for doc in f.corpus.all_docs() {
        for m in &doc.mentions {
            if let Some(t) = f.out.kb.term(&f.corpus.world.entity(m.entity).canonical) {
                ned.add_anchor(&m.surface, t);
            }
        }
    }
    ned.finalize();
    ned
}

#[test]
fn planted_trend_and_crossover_are_recovered() {
    let f = fixture();
    let (ta, tb) = tracked_terms(&f);
    let ned = build_ned(&f);
    let tracker = Tracker::new(&ned, vec![ta, tb]);
    let posts: Vec<StreamPost> = f.corpus.posts.iter().map(from_corpus).collect();
    let series = tracker.aggregate(&f.out.kb, &posts);
    let sa = &series[&ta];
    let sb = &series[&tb];
    assert!(sa.total_mentions() > 0 && sb.total_mentions() > 0);
    // B's volume ramps faster than A's (the planted shape).
    assert!(sb.trend_slope() > sa.trend_slope());
    let report = ComparisonReport::new("A", sa.clone(), "B", sb.clone());
    // The rendered report contains every observed week.
    let rendered = report.to_string();
    for week in sa.buckets.keys() {
        assert!(rendered.contains(&format!("{week}")), "week {week} missing");
    }
}

#[test]
fn parallel_aggregation_matches_serial_on_the_real_stream() {
    let f = fixture();
    let (ta, tb) = tracked_terms(&f);
    let ned = build_ned(&f);
    let tracker = Tracker::new(&ned, vec![ta, tb]);
    let posts: Vec<StreamPost> = f.corpus.posts.iter().map(from_corpus).collect();
    let serial = tracker.aggregate(&f.out.kb, &posts);
    for workers in [2, 3, 8] {
        let parallel = aggregate_parallel(&tracker, &f.out.kb, &posts, workers);
        assert_eq!(serial, parallel, "divergence at {workers} workers");
    }
}

#[test]
fn sentiment_series_tracks_gold_polarity() {
    let f = fixture();
    let (ta, tb) = tracked_terms(&f);
    let ned = build_ned(&f);
    let tracker = Tracker::new(&ned, vec![ta, tb]);
    // Measured net sentiment should correlate with the gold labels on
    // the same posts: compute both and require agreement in sign over
    // the aggregate.
    let mut gold_net = 0i64;
    for p in &f.corpus.posts {
        gold_net += i64::from(p.gold_sentiment);
    }
    let posts: Vec<StreamPost> = f.corpus.posts.iter().map(from_corpus).collect();
    let series = tracker.aggregate(&f.out.kb, &posts);
    let measured_net: f64 = series
        .values()
        .flat_map(|s| s.buckets.values())
        .map(|b| b.positive as f64 - b.negative as f64)
        .sum();
    assert_eq!(
        measured_net.signum() as i64,
        gold_net.signum(),
        "aggregate sentiment sign mismatch: measured {measured_net}, gold {gold_net}"
    );
}
