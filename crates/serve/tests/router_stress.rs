//! Partitioned serving stress tests: the scatter-gather router under
//! concurrent clients must answer byte-for-byte like one monolithic
//! `QueryService` — at every partition count, and while delta installs
//! race the queries mid-flight.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use kb_obs::{ManualClock, Registry};
use kb_query::QueryService;
use kb_serve::{AdmissionConfig, KbRouter, Overloaded, ServeError};
use kb_store::{subject_partition, KbBuilder, KbSnapshot, SegmentedSnapshot};

/// The same deterministic synthetic KB the single-service stress suite
/// uses: skewed relation sizes, shared entities, a temporal column.
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

/// Scatter-heavy shapes from the single-service suite plus
/// subject-bound probes, so both routing paths stay hot.
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
    // Subject-bound: single-pattern, multi-pattern, modifier-bearing.
    for i in 0..12 {
        qs.push(format!("p{i} bornIn ?c"));
        qs.push(format!("SELECT ?c ?co WHERE {{ p{i} bornIn ?c OPTIONAL {{ p{i} worksAt ?co }} }} ORDER BY ?c ?co"));
    }
    qs
}

/// 8 clients × {1, 2, 4} partitions: every answer must match the
/// monolithic oracle byte for byte, and the routing counters must
/// account for every request exactly.
#[test]
fn partitioned_clients_match_the_monolith_byte_for_byte() {
    const CLIENTS: usize = 8;
    let snap = build_kb().into_shared();
    let queries: Vec<String> = {
        let base = workload();
        (0..4).flat_map(|_| base.clone()).collect()
    };

    let oracle = QueryService::with_instrumentation(
        snap.clone(),
        kb_query::DEFAULT_CACHE_CAPACITY,
        &Registry::new(),
    );
    let oview = oracle.snapshot();
    let expected: Vec<String> = queries
        .iter()
        .map(|q| oracle.query(q).expect("oracle query").render(oview.as_ref()))
        .collect();
    let routed_expected = queries
        .iter()
        .filter(|q| {
            matches!(
                kb_query::routing_decision(&kb_query::parse(q).unwrap()),
                kb_query::RoutingDecision::SubjectBound { .. }
            )
        })
        .count() as u64;

    for partitions in [1usize, 2, 4] {
        let registry = Registry::new();
        let router = Arc::new(KbRouter::with_config(
            snap.clone(),
            partitions,
            AdmissionConfig::default(),
            &registry,
        ));
        let rview = router.view();
        let mut slots: Vec<Option<String>> = vec![None; queries.len()];
        let answers: Vec<(usize, String)> = thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let router = Arc::clone(&router);
                    let rview = Arc::clone(&rview);
                    let queries = &queries;
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        for i in (c..queries.len()).step_by(CLIENTS) {
                            let out = router.query(&queries[i]).expect("router query");
                            mine.push((i, out.render(rview.as_ref())));
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
                "{partitions} partitions diverged from the monolith on query #{i}: {}",
                queries[i]
            );
        }
        // Exact counter accounting: every request routed one way or the
        // other, nothing shed, nothing lost.
        let routed = registry.counter("serve.routed_single").get();
        let scattered = registry.counter("serve.scattered").get();
        assert_eq!(routed, routed_expected, "{partitions} partitions: routed_single");
        assert_eq!(
            routed + scattered,
            queries.len() as u64,
            "{partitions} partitions: request conservation"
        );
        assert_eq!(registry.counter("serve.shed").get(), 0);
        assert_eq!(registry.gauge("serve.queue_depth").get(), 0, "permits must all be released");
    }
}

/// Delta installs racing 8 clients mid-flight: every answer stays
/// well-formed, and after the dust settles the router matches a
/// monolithic oracle built over the same final delta chain.
#[test]
fn installs_racing_queries_converge_to_the_oracle() {
    const DELTAS: u64 = 6;
    for partitions in [2usize, 4] {
        let snap = build_kb().into_shared();
        let registry = Registry::new();
        let router = Arc::new(KbRouter::with_config(
            snap.clone(),
            partitions,
            AdmissionConfig::default(),
            &registry,
        ));
        let queries = workload();
        let final_view = thread::scope(|scope| {
            for c in 0..8usize {
                let router = Arc::clone(&router);
                let queries = &queries;
                scope.spawn(move || {
                    for i in 0..60 {
                        let q = &queries[(c + i) % queries.len()];
                        // Results vary across epochs; the invariant is a
                        // well-formed answer, never a panic or a torn read.
                        router.query(q).expect("query must stay well-formed during installs");
                    }
                });
            }
            // One installer owns the delta chain. Deltas freeze against a
            // monolithic shadow view whose dictionary is id-identical to
            // the router's replicated one, so the same frozen segment is
            // valid for both sides.
            let router = Arc::clone(&router);
            scope
                .spawn(move || {
                    let mut shadow = SegmentedSnapshot::from_base(snap);
                    for d in 0..DELTAS {
                        let mut b = KbBuilder::new();
                        b.assert_str(&format!("px{d}"), "bornOn", &format!("{}", 1850 + d));
                        b.assert_str(&format!("px{d}"), "worksAt", &format!("co{}", d % 20));
                        b.retract_str(&format!("p{d}"), "bornOn", &format!("{}", 1900 + d));
                        let delta = Arc::new(b.freeze_delta(&shadow));
                        shadow = shadow.with_delta(Arc::clone(&delta));
                        router.apply_delta(delta);
                        thread::yield_now();
                    }
                    shadow
                })
                .join()
                .expect("installer panicked")
        });
        assert_eq!(router.epoch(), DELTAS);

        let oracle = QueryService::from_view(&final_view);
        let oview = oracle.snapshot();
        let rview = router.view();
        for q in &queries {
            let got = router.query(q).expect("router query").render(rview.as_ref());
            let want = oracle.query(q).expect("oracle query").render(oview.as_ref());
            assert_eq!(got, want, "{partitions} partitions diverged post-install on {q}");
        }
        assert_eq!(registry.counter("serve.installs").get(), DELTAS);
    }
}

/// The torn-read probe: every delta adds exactly one `memberOf` fact
/// per partition, so an epoch-consistent scatter always sees a multiple
/// of `partitions` members. A reader that caught a half-installed
/// fan-out would see a remainder.
#[test]
fn scatter_never_observes_a_torn_install() {
    const DELTAS: u64 = 12;
    for partitions in [2usize, 3, 4] {
        let snap = build_kb().into_shared();
        let router = Arc::new(KbRouter::with_config(
            snap.clone(),
            partitions,
            AdmissionConfig::default(),
            &Registry::new(),
        ));
        let done = AtomicBool::new(false);
        thread::scope(|scope| {
            for _ in 0..4usize {
                let router = Arc::clone(&router);
                let done = &done;
                scope.spawn(move || {
                    while !done.load(Ordering::Acquire) {
                        // Scatter path: planned and executed fresh over the
                        // epoch-consistent merged view on every call.
                        let out = router.query("?m memberOf ?g").expect("probe query");
                        assert_eq!(
                            out.rows.len() % partitions,
                            0,
                            "torn install: saw {} members across {partitions} partitions",
                            out.rows.len()
                        );
                    }
                });
            }
            let router = Arc::clone(&router);
            let done = &done;
            scope.spawn(move || {
                let mut shadow = SegmentedSnapshot::from_base(snap);
                for d in 0..DELTAS {
                    let mut b = KbBuilder::new();
                    // One new member per partition, chosen by hash probing.
                    for p in 0..partitions {
                        let subject = (0u32..)
                            .map(|j| format!("mk{d}_{j}"))
                            .find(|s| subject_partition(s, partitions) == p)
                            .unwrap();
                        b.assert_str(&subject, "memberOf", "club");
                    }
                    let delta = Arc::new(b.freeze_delta(&shadow));
                    shadow = shadow.with_delta(Arc::clone(&delta));
                    router.apply_delta(delta);
                }
                done.store(true, Ordering::Release);
            });
        });
        let out = router.query("?m memberOf ?g").unwrap();
        assert_eq!(out.rows.len(), DELTAS as usize * partitions);
    }
}

/// Overload sheds with typed rejections driven by a manual clock: the
/// exact requests past the bucket are refused, everything else serves,
/// and the shed counter matches.
///
/// The second half is the only place the served/shed counts are
/// compared across 1, 2 and 4 partitions: admission is per tenant and
/// runs before routing, so the partition count must not move them.
#[test]
fn rate_overload_sheds_exactly_past_the_bucket() {
    let snap = build_kb().into_shared();
    let clock = ManualClock::shared(0);
    let registry = Registry::with_clock(clock.clone());
    let config = AdmissionConfig {
        rate_per_sec: Some(10.0),
        burst: 4.0,
        queue_depth: 64,
        ..Default::default()
    };
    let router = KbRouter::with_config(snap.clone(), 2, config, &registry);

    // Burst drains after 4 requests; the next two shed.
    for i in 0..4 {
        assert!(router.query("p1 bornIn ?c").is_ok(), "burst request {i}");
    }
    for _ in 0..2 {
        match router.query_as("default", "?p bornIn ?c") {
            Err(ServeError::Overloaded(Overloaded::RateLimited { tenant })) => {
                assert_eq!(tenant, "default");
            }
            other => panic!("expected RateLimited, got {other:?}"),
        }
    }
    // Other tenants have their own bucket.
    assert!(router.query_as("vip", "p1 bornIn ?c").is_ok());
    // 300ms at 10 rps refills three tokens.
    clock.advance(300_000);
    for i in 0..3 {
        assert!(router.query("p1 bornIn ?c").is_ok(), "refilled request {i}");
    }
    assert!(matches!(
        router.query("p1 bornIn ?c"),
        Err(ServeError::Overloaded(Overloaded::RateLimited { .. }))
    ));
    assert_eq!(registry.counter("serve.shed").get(), 3);
    assert_eq!(registry.counter("serve.admitted").get(), 8);

    // The saturation schedule: evenly spaced arrivals for five simulated
    // seconds at each offered rate, seven subject-bound probes to one
    // scatter query, against a 400 rps bucket with a burst of 32.
    const RATE: u64 = 400;
    const SIM_SECS: u64 = 5;
    let mut served_past_the_rate = Vec::new();
    for partitions in [1usize, 2, 4] {
        for offered in [100u64, 200, 400, 800, 1600] {
            let clock = ManualClock::shared(0);
            let registry = Registry::with_clock(clock.clone());
            let config = AdmissionConfig {
                rate_per_sec: Some(RATE as f64),
                burst: 32.0,
                queue_depth: 64,
                ..Default::default()
            };
            let router = KbRouter::with_config(snap.clone(), partitions, config, &registry);
            let total = offered * SIM_SECS;
            let (mut served, mut shed) = (0u64, 0u64);
            for i in 0..total {
                clock.advance(1_000_000 / offered);
                let q = if i % 8 == 7 {
                    "?co headquarteredIn ?c".to_string()
                } else {
                    format!("p{} bornIn ?c", i % 64)
                };
                match router.query(&q) {
                    Ok(_) => served += 1,
                    Err(ServeError::Overloaded(Overloaded::RateLimited { .. })) => shed += 1,
                    Err(e) => panic!("{offered} rps, {partitions} partitions: {e}"),
                }
            }
            let at = format!("{offered} rps, {partitions} partitions");
            assert_eq!(served + shed, total, "{at}: every request is answered or refused");
            assert_eq!(registry.counter("serve.shed").get(), shed, "{at}");
            assert_eq!(registry.counter("serve.admitted").get(), served, "{at}");
            if offered <= RATE {
                assert_eq!(shed, 0, "{at}: at or below the rate nothing sheds");
            } else {
                served_past_the_rate.push(served);
            }
        }
    }
    // Past the rate the bucket alone decides: 32 burst tokens plus
    // 400/s × 5 s, less the part of the first arrival's refill that
    // overflows the still-full bucket — at 800 and 1600 rps alike, at
    // every partition count.
    assert_eq!(served_past_the_rate, [2031; 6]);
}
