//! Concurrent serving stress test: many client threads hammering one
//! `QueryService` must see byte-identical results to a serial run —
//! and, with single-flight dedup, *exact* (not merely plausible) cache
//! counters.

use std::sync::{Arc, Barrier};
use std::thread;

use kb_obs::Registry;
use kb_query::QueryService;
use kb_store::{KbBuilder, KbSnapshot};

/// A service with isolated metrics, so counter assertions cannot be
/// perturbed by other tests running in the same process.
fn isolated_service(snap: Arc<KbSnapshot>) -> QueryService {
    QueryService::with_instrumentation(snap, kb_query::DEFAULT_CACHE_CAPACITY, &Registry::new())
}

/// A deterministic synthetic KB with skewed relation sizes, shared
/// entities and a temporal column rendered as year literals.
fn build_kb() -> KbSnapshot {
    let mut b = KbBuilder::new();
    for i in 0..2000u32 {
        b.assert_str(&format!("p{}", i % 400), "bornIn", &format!("c{}", i % 40));
    }
    for i in 0..40u32 {
        b.assert_str(&format!("c{i}"), "locatedIn", &format!("s{}", i % 5));
    }
    for i in 0..300u32 {
        b.assert_str(&format!("p{}", i % 400), "worksAt", &format!("co{}", i % 20));
    }
    for i in 0..20u32 {
        b.assert_str(&format!("co{i}"), "headquarteredIn", &format!("c{}", i % 40));
    }
    for i in 0..100u32 {
        b.assert_str(&format!("p{i}"), "bornOn", &format!("{}", 1900 + (i % 100)));
    }
    b.freeze()
}

/// A workload of distinct query shapes: joins, filters, optionals,
/// unions, aggregates, modifiers.
fn workload() -> Vec<String> {
    let mut qs = vec![
        "?p bornIn ?c . ?c locatedIn s0".to_string(),
        "SELECT DISTINCT ?c WHERE { ?p bornIn ?c . ?p worksAt ?co }".to_string(),
        "SELECT ?p ?co WHERE { ?p bornIn c1 OPTIONAL { ?p worksAt ?co } } ORDER BY ?p LIMIT 25"
            .to_string(),
        "SELECT ?x WHERE { { ?x locatedIn s1 } UNION { ?x headquarteredIn c1 } }".to_string(),
        "SELECT ?c COUNT(?p) AS ?n WHERE { ?p bornIn ?c } GROUP BY ?c ORDER BY DESC(?n) ?c LIMIT 10"
            .to_string(),
        "SELECT ?p ?y WHERE { ?p bornOn ?y . FILTER(?y < 1930) } ORDER BY ?y ?p".to_string(),
        "?a bornIn ?c . ?b bornIn ?c . FILTER(?a != ?b)".to_string(),
        "?p worksAt ?co . ?co headquarteredIn ?c . ?c locatedIn ?s".to_string(),
    ];
    for i in 0..12 {
        qs.push(format!("SELECT ?p WHERE {{ ?p bornIn c{i} }} ORDER BY ?p"));
    }
    qs
}

/// Renders every query result (or error) as one deterministic string.
fn run_serial(svc: &QueryService, queries: &[String]) -> Vec<String> {
    let snap = svc.snapshot();
    queries
        .iter()
        .map(|q| match svc.query(q) {
            Ok(out) => out.render(snap.as_ref()),
            Err(e) => format!("error: {e}"),
        })
        .collect()
}

#[test]
fn client_threads_match_serial_byte_for_byte() {
    let snap = build_kb().into_shared();
    let queries: Vec<String> = {
        // Repeat the workload so cache hits and misses interleave.
        let base = workload();
        (0..6).flat_map(|_| base.clone()).collect()
    };

    let serial_svc = isolated_service(snap.clone());
    let expected = run_serial(&serial_svc, &queries);
    let serial_stats = serial_svc.cache_stats();
    // Serial ground truth: each distinct normalized query misses
    // exactly once; everything else hits.
    assert_eq!(
        serial_stats.result_hits + serial_stats.result_misses,
        queries.len() as u64,
        "serial conservation: {serial_stats:?}"
    );

    for clients in [2usize, 4, 8] {
        let svc = Arc::new(isolated_service(snap.clone()));
        let mut slots: Vec<Option<String>> = vec![None; queries.len()];
        let answers: Vec<(usize, String)> = thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let svc = Arc::clone(&svc);
                    let queries = &queries;
                    let snap = snap.clone();
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        // Strided assignment: every client touches every
                        // query shape eventually.
                        for i in (c..queries.len()).step_by(clients) {
                            let rendered = match svc.query(&queries[i]) {
                                Ok(out) => out.render(snap.as_ref()),
                                Err(e) => format!("error: {e}"),
                            };
                            mine.push((i, rendered));
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("client panicked")).collect()
        });
        for (i, rendered) in answers {
            slots[i] = Some(rendered);
        }
        for (i, slot) in slots.iter().enumerate() {
            assert_eq!(
                slot.as_deref(),
                Some(expected[i].as_str()),
                "{clients} clients diverged from serial on query #{i}: {}",
                queries[i]
            );
        }
        // Counters are exact under concurrency, not merely racy
        // approximations: every query() increments exactly one of
        // hits/misses/dedup, and single-flight guarantees each distinct
        // query executes exactly once — the same miss counts as the
        // serial run.
        let stats = svc.cache_stats();
        assert_eq!(
            stats.result_hits + stats.result_misses + stats.result_dedup,
            queries.len() as u64,
            "{clients} clients: result-counter conservation violated: {stats:?}"
        );
        assert_eq!(
            stats.result_misses, serial_stats.result_misses,
            "{clients} clients: each distinct query must execute exactly once: {stats:?}"
        );
        assert_eq!(
            stats.plan_misses, serial_stats.plan_misses,
            "{clients} clients: each distinct query must be planned exactly once: {stats:?}"
        );
        assert!(stats.result_hits > 0, "repeated workload should hit the result cache: {stats:?}");
    }
}

/// The thundering-herd regression at integration scale: for every query
/// shape in the workload, 8 threads hitting the same *cold* query
/// through one barrier must produce exactly one execution.
#[test]
fn cold_query_bursts_execute_exactly_once() {
    const THREADS: usize = 8;
    let snap = build_kb().into_shared();
    let svc = Arc::new(isolated_service(snap.clone()));
    for (i, q) in workload().iter().enumerate() {
        let misses_before = svc.cache_stats().result_misses;
        let barrier = Arc::new(Barrier::new(THREADS));
        thread::scope(|scope| {
            for _ in 0..THREADS {
                let svc = Arc::clone(&svc);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    svc.query(q).expect("workload query must parse");
                });
            }
        });
        let stats = svc.cache_stats();
        assert_eq!(
            stats.result_misses,
            misses_before + 1,
            "burst #{i} ({q}) must execute exactly once: {stats:?}"
        );
    }
    let stats = svc.cache_stats();
    let issued = (workload().len() * THREADS) as u64;
    assert_eq!(
        stats.result_hits + stats.result_misses + stats.result_dedup,
        issued,
        "conservation across all bursts: {stats:?}"
    );
}

/// Delta installs racing live queries: answers stay well-formed and —
/// the point of segmenting — warm results whose predicates the deltas
/// never touch keep serving (the retention counter must move).
#[test]
fn delta_installs_under_load_retain_untouched_results() {
    const DELTAS: u64 = 8;
    let snap = build_kb().into_shared();
    let svc = Arc::new(isolated_service(snap));
    // Queries whose footprints the deltas never touch...
    let untouched = ["?c locatedIn ?s", "?co headquarteredIn ?c"];
    // ...and one footprint every delta hits.
    let touched = "SELECT ?p ?y WHERE { ?p bornOn ?y } ORDER BY ?y ?p LIMIT 5";
    for q in untouched {
        svc.query(q).unwrap();
    }
    svc.query(touched).unwrap();

    thread::scope(|scope| {
        for c in 0..4usize {
            let svc = Arc::clone(&svc);
            scope.spawn(move || {
                for i in 0..150 {
                    let q = if (c + i) % 3 == 0 { touched } else { untouched[(c + i) % 2] };
                    svc.query(q).expect("query must stay well-formed under delta installs");
                }
            });
        }
        // One installer thread owns the delta stack, so the
        // sequential-stacking contract holds by construction.
        let svc = Arc::clone(&svc);
        scope.spawn(move || {
            for d in 0..DELTAS {
                let view = svc.snapshot();
                let mut b = KbBuilder::new();
                b.assert_str(&format!("px{d}"), "bornOn", &format!("{}", 1850 + d));
                svc.apply_delta(Arc::new(b.freeze_delta(&view)));
                thread::yield_now();
            }
        });
    });

    let stats = svc.cache_stats();
    assert_eq!(stats.delta_installs, DELTAS);
    assert!(
        stats.result_retained > 0,
        "untouched-footprint entries must survive delta installs: {stats:?}"
    );
    assert_eq!(svc.epoch(), DELTAS);
    // Every delta's fact is visible in the final view.
    let out =
        svc.query("SELECT ?p ?y WHERE { ?p bornOn ?y . FILTER(?y < 1900) } ORDER BY ?y").unwrap();
    assert_eq!(out.rows.len(), DELTAS as usize);
}
