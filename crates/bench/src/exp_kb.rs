//! T1 (KB statistics after construction) and F4 (triple-store query
//! performance vs KB size).

use std::time::Instant;

use kb_corpus::Corpus;
use kb_harvest::pipeline::Method;
use kb_store::{KbBuilder, KbRead, TriplePattern};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::setup::harvest_with;
use crate::table::{f3, Table};

/// T1: builds the KB and reports its statistics plus pipeline counters.
pub fn t1(corpus: &Corpus) -> String {
    let out = harvest_with(corpus, Method::Reasoning, 4);
    let stats = out.kb.stats();
    let mut t = Table::new(&["metric", "value"]);
    t.row(vec!["documents processed".into(), out.stats.docs.to_string()]);
    t.row(vec!["pattern occurrences".into(), out.stats.occurrences.to_string()]);
    t.row(vec!["patterns learned".into(), out.stats.patterns_learned.to_string()]);
    t.row(vec!["fact candidates".into(), out.stats.candidates.to_string()]);
    t.row(vec!["facts accepted".into(), out.stats.accepted.to_string()]);
    t.row(vec!["docs quarantined".into(), out.stats.quarantined_count().to_string()]);
    t.row(vec!["instance assertions".into(), out.stats.instances.to_string()]);
    t.row(vec!["KB terms".into(), stats.terms.to_string()]);
    t.row(vec!["KB facts".into(), stats.facts.to_string()]);
    t.row(vec!["KB predicates".into(), stats.predicates.to_string()]);
    t.row(vec!["KB classes".into(), stats.classes.to_string()]);
    t.row(vec!["subclass edges".into(), stats.subclass_edges.to_string()]);
    t.row(vec!["labels (surface forms)".into(), stats.labels.to_string()]);
    t.row(vec!["temporal facts".into(), stats.temporal_facts.to_string()]);
    t.row(vec!["mean confidence".into(), f3(stats.mean_confidence)]);
    let mut hist = Table::new(&["predicate", "facts"]);
    for (p, n) in out.kb.predicate_histogram().into_iter().take(12) {
        hist.row(vec![p, n.to_string()]);
    }
    format!(
        "T1 — knowledge base construction summary\n{}\nper-predicate fact counts\n{}",
        t.render(),
        hist.render()
    )
}

/// Builds a synthetic KB with `n` random triples for scaling runs.
pub fn synthetic_kb(n: usize, seed: u64) -> KbBuilder {
    let mut kb = KbBuilder::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let n_entities = (n / 4).max(16);
    let n_rels = 32.min(n_entities);
    let entities: Vec<_> = (0..n_entities).map(|i| kb.intern(&format!("entity_{i}"))).collect();
    let rels: Vec<_> = (0..n_rels).map(|i| kb.intern(&format!("rel_{i}"))).collect();
    for _ in 0..n {
        let s = entities[rng.gen_range(0..entities.len())];
        let p = rels[rng.gen_range(0..rels.len())];
        let o = entities[rng.gen_range(0..entities.len())];
        kb.add_triple(s, p, o);
    }
    kb
}

/// One F4 measurement row.
#[derive(Debug, Clone, Copy)]
pub struct StoreProfile {
    /// Live triples in the store.
    pub size: usize,
    /// Point lookups (fully bound pattern) per second.
    pub point_lookups_per_sec: f64,
    /// Subject scans per second.
    pub scans_per_sec: f64,
    /// Path joins per second.
    pub joins_per_sec: f64,
}

/// Measures store query throughput at one size.
pub fn profile_store<K: KbRead>(kb: &K, seed: u64) -> StoreProfile {
    let mut rng = StdRng::seed_from_u64(seed);
    let all: Vec<_> = kb.matching_triples(&TriplePattern::any());
    let size = all.len();
    // Point lookups.
    let iters = 20_000;
    let t0 = Instant::now();
    let mut hits = 0usize;
    for _ in 0..iters {
        let t = all[rng.gen_range(0..all.len())];
        if kb.contains(&t) {
            hits += 1;
        }
    }
    assert_eq!(hits, iters);
    let point = iters as f64 / t0.elapsed().as_secs_f64();
    // Subject scans.
    let scan_iters = 5_000;
    let t1 = Instant::now();
    let mut total = 0usize;
    for _ in 0..scan_iters {
        let t = all[rng.gen_range(0..all.len())];
        total += kb.matching_triples(&TriplePattern::with_s(t.s)).len();
    }
    assert!(total > 0);
    let scans = scan_iters as f64 / t1.elapsed().as_secs_f64();
    // The two-hop path join, planned and executed by kb-query.
    let join = two_hop_join(kb);
    let join_iters = 20;
    let t2 = Instant::now();
    for _ in 0..join_iters {
        std::hint::black_box(kb_query::execute(&join, kb).rows.len());
    }
    let joins = join_iters as f64 / t2.elapsed().as_secs_f64();
    StoreProfile { size, point_lookups_per_sec: point, scans_per_sec: scans, joins_per_sec: joins }
}

/// F4's two-hop path join `rel_0 ⋈ rel_1`, planned by kb-query against
/// `kb`'s statistics.
fn two_hop_join<K: KbRead>(kb: &K) -> kb_query::Plan {
    let query = kb_query::parse("?x rel_0 ?m . ?m rel_1 ?y").expect("join query parses");
    kb_query::plan(&query, kb, &kb_query::StatsCatalog::build(kb)).expect("join plans")
}

/// F4: store throughput across sizes.
pub fn f4() -> String {
    let mut t = Table::new(&["triples", "point lookups/s", "subject scans/s", "path joins/s"]);
    for n in [10_000usize, 20_000, 40_000, 80_000, 160_000] {
        let kb = synthetic_kb(n, 7);
        let p = profile_store(&kb, 11);
        t.row(vec![
            p.size.to_string(),
            format!("{:.0}", p.point_lookups_per_sec),
            format!("{:.0}", p.scans_per_sec),
            format!("{:.1}", p.joins_per_sec),
        ]);
    }
    format!("F4 — triple-store query throughput vs KB size\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::small_corpus;

    #[test]
    fn t1_renders_on_small_corpus() {
        let corpus = small_corpus(42);
        let s = t1(&corpus);
        assert!(s.contains("KB facts"));
        assert!(s.contains("mean confidence"));
        assert!(s.contains("docs quarantined"));
    }

    #[test]
    fn synthetic_kb_reaches_requested_scale() {
        let kb = synthetic_kb(5_000, 3);
        // Random collisions shrink it slightly, but not by much.
        assert!(kb.len() > 4_000);
    }

    #[test]
    fn profile_runs_on_small_store() {
        let kb = synthetic_kb(2_000, 3);
        let p = profile_store(&kb, 5);
        assert!(p.point_lookups_per_sec > 0.0);
        assert!(p.scans_per_sec > 0.0);
        assert!(p.joins_per_sec > 0.0);
    }
}
