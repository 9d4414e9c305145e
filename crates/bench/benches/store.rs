//! Criterion benches for the triple store (experiment F4's precise
//! timing counterpart): insertion, point lookup, pattern scan, path
//! join, and serialization at two KB sizes — plus the frozen snapshot
//! engine's read primitives, and sharded-builder ingest against a
//! single builder.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use kb_bench::exp_kb::synthetic_kb;
use kb_store::{KbBuilder, KbRead, KbShard, TriplePattern};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    for &n in &[10_000usize, 80_000] {
        let kb = synthetic_kb(n, 7);
        let triples = kb.matching_triples(&TriplePattern::any());
        let mut rng = StdRng::seed_from_u64(3);

        group.bench_with_input(BenchmarkId::new("point_lookup", n), &n, |b, _| {
            b.iter(|| {
                let t = triples[rng.gen_range(0..triples.len())];
                black_box(kb.contains(&t))
            })
        });
        group.bench_with_input(BenchmarkId::new("subject_scan", n), &n, |b, _| {
            b.iter(|| {
                let t = triples[rng.gen_range(0..triples.len())];
                black_box(kb.matching_triples(&TriplePattern::with_s(t.s)).len())
            })
        });
        group.bench_with_input(BenchmarkId::new("path_join", n), &n, |b, _| {
            let r0 = kb.term("rel_0").unwrap();
            let r1 = kb.term("rel_1").unwrap();
            b.iter(|| black_box(kb.path_join(r0, r1).len()))
        });
        group.bench_with_input(BenchmarkId::new("serialize", n), &n, |b, _| {
            b.iter(|| black_box(kb_store::ntriples::to_string(&kb).unwrap().len()))
        });
    }
    group.bench_function("insert_10k", |b| b.iter(|| black_box(synthetic_kb(10_000, 7).len())));
    group.finish();
}

/// The snapshot engine's read primitives: range scans, counts, degree,
/// neighbors, path joins.
fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    for &n in &[10_000usize, 100_000] {
        let kb = synthetic_kb(n, 7);
        let snapshot = kb.snapshot();
        let triples = kb.matching_triples(&TriplePattern::any());
        let subjects: Vec<_> = {
            let mut rng = StdRng::seed_from_u64(11);
            (0..512).map(|_| triples[rng.gen_range(0..triples.len())].s).collect()
        };

        // Range scan: all facts of one subject (s??).
        group.bench_with_input(BenchmarkId::new("range_scan/snapshot", n), &n, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % subjects.len();
                black_box(snapshot.matching_iter(&TriplePattern::with_s(subjects[i])).count())
            })
        });

        // Count: exact cardinality of a range (O(1) on the snapshot).
        group.bench_with_input(BenchmarkId::new("count/snapshot", n), &n, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % subjects.len();
                black_box(snapshot.count_matching(&TriplePattern::with_s(subjects[i])))
            })
        });

        // Degree and neighborhood of a node.
        group.bench_with_input(BenchmarkId::new("degree/snapshot", n), &n, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % subjects.len();
                black_box(snapshot.degree(subjects[i]))
            })
        });
        group.bench_with_input(BenchmarkId::new("neighbors/snapshot", n), &n, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % subjects.len();
                black_box(snapshot.neighbors(subjects[i]).len())
            })
        });

        // Two-hop path join.
        let r0 = kb.term("rel_0").unwrap();
        let r1 = kb.term("rel_1").unwrap();
        group.bench_with_input(BenchmarkId::new("path_join/snapshot", n), &n, |b, _| {
            b.iter(|| black_box(snapshot.path_join_iter(r0, r1).count()))
        });
    }
    group.finish();
}

/// Ingest cost: builder alone vs builder-freeze vs sharded builders
/// merged at a barrier.
fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest");
    let n = 10_000usize;
    let rows: Vec<(String, String, String)> = {
        let mut rng = StdRng::seed_from_u64(7);
        let n_entities = (n / 4).max(16);
        (0..n)
            .map(|_| {
                (
                    format!("entity_{}", rng.gen_range(0..n_entities)),
                    format!("rel_{}", rng.gen_range(0..32)),
                    format!("entity_{}", rng.gen_range(0..n_entities)),
                )
            })
            .collect()
    };
    group.bench_function("builder_10k", |b| {
        b.iter(|| {
            let mut kb = KbBuilder::new();
            for (s, p, o) in &rows {
                kb.assert_str(s, p, o);
            }
            black_box(kb.len())
        })
    });
    group.bench_function("builder_freeze_10k", |b| {
        b.iter(|| {
            let mut builder = KbBuilder::new();
            for (s, p, o) in &rows {
                builder.assert_str(s, p, o);
            }
            black_box(builder.freeze().len())
        })
    });
    group.bench_function("shard_merge_10k", |b| {
        b.iter(|| {
            let src = kb_store::SourceId(0);
            let shards: Vec<KbShard> = rows
                .chunks(rows.len().div_ceil(4))
                .map(|chunk| {
                    let mut shard = KbShard::new();
                    for (s, p, o) in chunk {
                        shard.add(s, p, o, 1.0, src, None);
                    }
                    shard
                })
                .collect();
            let mut builder = KbBuilder::new();
            builder.register_source("bench");
            builder.merge_shards(shards);
            black_box(builder.len())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_store, bench_engines, bench_ingest
}
criterion_main!(benches);
