//! F8 (planned execution time on skewed multi-joins), T13 (query
//! serving layer: plan-cache behaviour and batch throughput vs worker
//! count), and T14 (single-flight dedup of cold-query bursts).

use std::sync::Barrier;
use std::time::Instant;

use kb_query::{execute, parse, plan, QueryService, StatsCatalog};
use kb_store::KbBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::table::Table;

/// Builds a synthetic KB with *skewed* predicate cardinalities — the
/// regime where join order matters. Roughly 80% of facts use
/// `rel_big`, ~12% `rel_mid`, ~8% `rel_mid2`, plus a tiny `rel_rare`
/// (about `n / 2000` facts, at least 8).
pub fn synthetic_kb_skewed(n: usize, seed: u64) -> KbBuilder {
    let mut kb = KbBuilder::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let n_entities = (n / 4).max(32);
    let entities: Vec<_> = (0..n_entities).map(|i| kb.intern(&format!("entity_{i}"))).collect();
    let big = kb.intern("rel_big");
    let mid = kb.intern("rel_mid");
    let mid2 = kb.intern("rel_mid2");
    let rare = kb.intern("rel_rare");
    let n_rare = (n / 2000).max(8);
    for _ in 0..(n * 8 / 10) {
        let s = entities[rng.gen_range(0..entities.len())];
        let o = entities[rng.gen_range(0..entities.len())];
        kb.add_triple(s, big, o);
    }
    for _ in 0..(n * 12 / 100) {
        let s = entities[rng.gen_range(0..entities.len())];
        let o = entities[rng.gen_range(0..entities.len())];
        kb.add_triple(s, mid, o);
    }
    for _ in 0..(n * 8 / 100) {
        let s = entities[rng.gen_range(0..entities.len())];
        let o = entities[rng.gen_range(0..entities.len())];
        kb.add_triple(s, mid2, o);
    }
    for _ in 0..n_rare {
        let s = entities[rng.gen_range(0..entities.len())];
        let o = entities[rng.gen_range(0..entities.len())];
        kb.add_triple(s, rare, o);
    }
    kb
}

/// The F8 benchmark queries. Pattern text order is *adversarial*: an
/// engine that joins in text order, or greedily by bound components,
/// opens with a full scan of the dominant relation. The cost-based
/// planner ignores text order.
pub fn f8_queries() -> Vec<(&'static str, &'static str)> {
    vec![
        ("chain rare→big", "?y rel_rare ?z . ?x rel_big ?y"),
        ("chain mid→big", "?y rel_mid ?z . ?x rel_big ?y"),
        ("star on ?x", "?x rel_big ?a . ?x rel_mid ?b . ?x rel_rare ?c"),
        ("shared object (merge-range)", "?a rel_mid ?c . ?b rel_mid2 ?c"),
    ]
}

/// A mixed serving workload of `k` distinct queries over the skewed
/// KB: cheap constant-bound probes, mid-sized merge-range joins, and
/// aggregate queries. Distinct `LIMIT`s keep the normalized texts (and
/// so the cache keys) distinct.
pub fn serving_workload(k: usize) -> Vec<String> {
    (0..k)
        .map(|i| match i % 3 {
            0 => format!("SELECT ?x ?y WHERE {{ ?x rel_big entity_{i} . ?x rel_mid ?y }}"),
            1 => {
                format!("SELECT ?a ?b WHERE {{ ?a rel_mid ?c . ?b rel_mid2 ?c }} LIMIT {}", i + 1)
            }
            _ => format!(
                "SELECT ?c COUNT(?a) AS ?n WHERE {{ ?a rel_mid ?c }} \
                 GROUP BY ?c ORDER BY DESC(?n) ?c LIMIT {}",
                i + 1
            ),
        })
        .collect()
}

fn time_ms(mut f: impl FnMut() -> usize, min_iters: usize) -> (f64, usize) {
    // One warmup, then measure.
    let rows = f();
    let t0 = Instant::now();
    let mut iters = 0usize;
    while iters < min_iters || t0.elapsed().as_millis() < 200 {
        let r = f();
        assert_eq!(r, rows, "non-deterministic result while timing");
        iters += 1;
    }
    (t0.elapsed().as_secs_f64() * 1e3 / iters as f64, rows)
}

/// F8: planned execution time on skewed multi-joins, in absolute
/// terms. Parsing and planning happen outside the timed region, so the
/// time is join order and operator choice alone. (The greedy engine
/// this table once compared against was deleted in PR 13; the rows are
/// checked against the reference model at smoke scale, in this
/// module's tests.)
pub fn f8() -> String {
    let mut t = Table::new(&["facts", "query", "planned ms", "rows"]);
    for &n in &[10_000usize, 100_000] {
        let kb = synthetic_kb_skewed(n, 7);
        let snap = kb.snapshot();
        let stats = StatsCatalog::build(&snap);
        for (label, text) in f8_queries() {
            let parsed = parse(text).expect("parse");
            let compiled = plan(&parsed, &snap, &stats).expect("plan");
            let (planned_ms, rows) = time_ms(|| execute(&compiled, &snap).rows.len(), 3);
            t.row(vec![
                n.to_string(),
                label.to_string(),
                format!("{planned_ms:.3}"),
                rows.to_string(),
            ]);
        }
    }
    format!(
        "F8 — planned execution on skewed multi-joins (adversarial pattern order)\n{}",
        t.render()
    )
}

/// T13: the serving layer. Reports (a) cold parse+plan vs plan-cache
/// hit vs result-cache hit per-query latency, and (b) batch throughput
/// vs worker count with a cache sized below the distinct-query count,
/// so workers keep doing real execution work.
pub fn t13() -> String {
    let kb = synthetic_kb_skewed(40_000, 7);
    let snap = kb.freeze().into_shared();

    // (a) cache-path latencies for one multi-join query.
    let text = "?y rel_rare ?z . ?x rel_big ?y";
    let stats = StatsCatalog::build(snap.as_ref());
    let (cold_ms, _) = time_ms(
        || {
            let parsed = parse(text).expect("parse");
            let compiled = plan(&parsed, snap.as_ref(), &stats).expect("plan");
            compiled.columns().len()
        },
        50,
    );
    let service = QueryService::new(snap.clone());
    service.query(text).expect("warm the caches");
    let (hit_plan_ms, _) = time_ms(|| service.plan_for(text).expect("hit").columns().len(), 50);
    let (hit_result_ms, _) = time_ms(|| service.query(text).expect("hit").rows.len(), 50);
    let mut paths = Table::new(&["path", "ms/query"]);
    paths.row(vec!["cold: parse + plan".into(), format!("{cold_ms:.4}")]);
    paths.row(vec!["plan-cache hit (skips parse+plan)".into(), format!("{hit_plan_ms:.4}")]);
    paths.row(vec!["result-cache hit (skips execute too)".into(), format!("{hit_result_ms:.4}")]);

    // (b) throughput vs workers over 256 distinct queries with a
    // 32-entry cache: execution dominates, caches stay honest.
    let queries = serving_workload(256);
    let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
    let mut tput = Table::new(&["workers", "batch ms", "queries/s"]);
    let mut baseline = 0.0f64;
    for &workers in &[1usize, 2, 4, 8] {
        let svc = QueryService::with_instrumentation(snap.clone(), 32, kb_obs::global());
        let t0 = Instant::now();
        let out = svc.serve_batch(&refs, workers);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(out.iter().all(Result::is_ok));
        if workers == 1 {
            baseline = ms;
        }
        tput.row(vec![
            workers.to_string(),
            format!("{ms:.1}"),
            format!("{:.0} ({:.2}x)", refs.len() as f64 / (ms / 1e3), baseline / ms),
        ]);
    }
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    format!(
        "T13 — query serving layer: cache paths and batch throughput\n{}\nbatch of {} distinct queries, cache capacity 32, host parallelism {}\n{}",
        paths.render(),
        refs.len(),
        cores,
        tput.render()
    )
}

/// One cold-query burst: `threads` workers hit the same never-seen
/// query through one barrier. Returns the service's cache stats and
/// the burst wall time in milliseconds.
fn cold_burst(
    snap: &std::sync::Arc<kb_store::KbSnapshot>,
    text: &str,
    threads: usize,
) -> (kb_query::CacheStats, f64) {
    let svc = QueryService::with_instrumentation(snap.clone(), 32, &kb_obs::Registry::new());
    let barrier = Barrier::new(threads);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                barrier.wait();
                svc.query(text).expect("burst query");
            });
        }
    });
    (svc.cache_stats(), t0.elapsed().as_secs_f64() * 1e3)
}

/// T14: the thundering-herd fix, as an absolute bar. A burst of
/// workers all miss on the same cold query; exactly one leader
/// compiles and exactly one executes while the rest either wait on its
/// flight (`result_dedup`) or arrive after it and hit — never a second
/// execution, at any thread count.
pub fn t14() -> String {
    const BURSTS: usize = 16;
    // The merge-range join over the two mid-sized relations is the
    // most expensive cold path in the workload (several ms at this
    // scale) — long enough for every burst thread to probe-miss before
    // the first finisher populates the cache.
    let kb = synthetic_kb_skewed(150_000, 7);
    let snap = kb.freeze().into_shared();
    let text = "?a rel_mid ?c . ?b rel_mid2 ?c";
    let mut t = Table::new(&[
        "threads",
        "cold executions/burst",
        "compilations/burst",
        "deduped/burst",
        "hits/burst",
        "burst ms",
    ]);
    for &threads in &[2usize, 4, 8] {
        let (mut misses, mut compiles, mut dedup, mut hits, mut ms) = (0u64, 0u64, 0u64, 0u64, 0.0);
        for _ in 0..BURSTS {
            let (stats, burst_ms) = cold_burst(&snap, text, threads);
            assert_eq!(stats.result_misses, 1, "exactly one execution per burst: {stats:?}");
            assert_eq!(stats.plan_misses, 1, "exactly one compilation per burst: {stats:?}");
            assert_eq!(
                stats.result_hits + stats.result_dedup,
                threads as u64 - 1,
                "everyone else reuses the leader's work: {stats:?}"
            );
            misses += stats.result_misses;
            compiles += stats.plan_misses;
            dedup += stats.result_dedup;
            hits += stats.result_hits;
            ms += burst_ms;
        }
        let per = |v: u64| format!("{:.2}", v as f64 / BURSTS as f64);
        t.row(vec![
            threads.to_string(),
            per(misses),
            per(compiles),
            per(dedup),
            per(hits),
            format!("{:.2}", ms / BURSTS as f64),
        ]);
    }
    format!(
        "T14 — single-flight dedup of cold-query bursts ({BURSTS} bursts/row, fresh cache per burst)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use kb_store::KbRead;

    #[test]
    fn skewed_kb_has_the_advertised_shape() {
        let kb = synthetic_kb_skewed(10_000, 7);
        let big = kb.count_matching(&kb_store::TriplePattern::with_p(kb.term("rel_big").unwrap()));
        let rare =
            kb.count_matching(&kb_store::TriplePattern::with_p(kb.term("rel_rare").unwrap()));
        assert!(big > 6_000, "rel_big should dominate: {big}");
        assert!(rare <= 8, "rel_rare should be tiny: {rare}");
    }

    #[test]
    fn f8_queries_conform_to_reference_on_small_kb() {
        let kb = synthetic_kb_skewed(1_000, 7);
        let snap = kb.snapshot();
        let mut reference = kb_testkit::RefKb::default();
        for f in snap.facts() {
            let [s, p, o] = [f.triple.s, f.triple.p, f.triple.o].map(|t| snap.resolve(t).unwrap());
            reference.assert(s, p, o, f.span);
        }
        for (_, text) in f8_queries() {
            let out = kb_query::query(&snap, text).expect("planned");
            kb_testkit::assert_conforms(&parse(text).unwrap(), &out, &snap, &reference);
        }
    }

    #[test]
    fn t14_single_flight_burst_is_deduped() {
        // Smoke-scale: one 4-thread burst on a small KB.
        let kb = synthetic_kb_skewed(2_000, 3);
        let snap = kb.freeze().into_shared();
        let text = "?a rel_mid ?c . ?b rel_mid2 ?c";
        let (stats, _) = cold_burst(&snap, text, 4);
        assert_eq!((stats.result_misses, stats.plan_misses), (1, 1));
        assert_eq!(stats.result_hits + stats.result_dedup, 3);
    }

    #[test]
    fn t13_renders() {
        // Smoke-scale version of the serving table.
        let kb = synthetic_kb_skewed(2_000, 3);
        let snap = kb.freeze().into_shared();
        let svc = QueryService::new(snap);
        let queries: Vec<String> = (0..8).map(|i| format!("?x rel_big entity_{i}")).collect();
        let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
        let out = svc.serve_batch(&refs, 4);
        assert!(out.iter().all(Result::is_ok));
    }
}
