//! Criterion benches for the `kb-query` engine (experiment F8/T13's
//! precise timing counterpart): cost-based planned execution on skewed
//! multi-joins, plan-cache hit vs cold parse+plan, and batch serving
//! throughput vs worker count.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use kb_bench::exp_query::{f8_queries, serving_workload, synthetic_kb_skewed};
use kb_query::{execute, parse, plan, QueryService, StatsCatalog};

/// Planned execution at two sizes. Parsing and planning happen outside
/// the timed loop, so the time is pure execution (join order +
/// operator choice).
fn bench_join_order(c: &mut Criterion) {
    let mut group = c.benchmark_group("query");
    for &n in &[10_000usize, 100_000] {
        let kb = synthetic_kb_skewed(n, 7);
        let snap = kb.snapshot();
        let stats = StatsCatalog::build(&snap);
        for (label, text) in f8_queries() {
            let compiled = plan(&parse(text).expect("parse"), &snap, &stats).expect("plan");
            let id = label.replace(' ', "_");
            group.bench_with_input(
                BenchmarkId::new(format!("{id}/planned").as_str(), n),
                &n,
                |b, _| b.iter(|| black_box(execute(&compiled, &snap).rows.len())),
            );
        }
    }
    group.finish();
}

/// Plan-cache hit vs cold parse+plan for the same query text.
fn bench_plan_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_cache");
    let kb = synthetic_kb_skewed(40_000, 7);
    let snap = kb.freeze().into_shared();
    let stats = Arc::new(StatsCatalog::build(snap.as_ref()));
    let text = "SELECT ?x ?y WHERE { ?y rel_rare ?z . ?x rel_big ?y } LIMIT 10";
    group.bench_function("cold_parse_plan", |b| {
        b.iter(|| {
            let q = parse(text).expect("parse");
            black_box(plan(&q, snap.as_ref(), &stats).expect("plan").columns().len())
        })
    });
    let service = QueryService::new(snap);
    service.query(text).expect("warm");
    group.bench_function("cache_hit", |b| {
        b.iter(|| black_box(service.plan_for(text).expect("hit").columns().len()))
    });
    group.finish();
}

/// Batch serving throughput vs worker count: 256 distinct queries
/// against a cache sized well below that, so execution dominates.
fn bench_serving(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving");
    let kb = synthetic_kb_skewed(40_000, 7);
    let snap = kb.freeze().into_shared();
    let queries = serving_workload(256);
    let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
    for &workers in &[1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("batch_256", workers), &workers, |b, &w| {
            b.iter(|| {
                let svc = QueryService::with_instrumentation(snap.clone(), 32, kb_obs::global());
                black_box(svc.serve_batch(&refs, w).len())
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_join_order, bench_plan_cache, bench_serving
}
criterion_main!(benches);
