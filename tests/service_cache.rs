//! `QueryService` against its own uncached pipeline: one fixed-seed
//! sequence of queries, delta installs and standing-view registrations
//! on a service whose caches are small enough to evict.
//! Every answer must equal `kb_query::query` over the snapshot the
//! service serves at that moment — whatever the plan, result and alias
//! caches did to produce it.

use std::collections::BTreeSet;
use std::sync::Arc;

use kbkit::kb_obs::Registry;
use kbkit::kb_query::{self, canonical_output, execute, parse, plan, QueryService, StatsCatalog};
use kbkit::kb_store::{KbBuilder, KbSnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Triple = (String, String, String);

/// Query texts over predicates `p0..p3` and entities `e0..e11`; the
/// flag says the text fixes its row order. Between them: formatting
/// variants of one query (alias vs normalized key), joins, aggregates,
/// OPTIONAL/UNION, wildcard footprints (variable predicate, never-seen
/// constant) and a parse error.
const QUERIES: [(&str, bool); 12] = [
    ("?x p0 ?y", false),
    ("SELECT ?x WHERE { ?x p1 e3 }", false),
    ("select  ?x  where { ?x p1 e3 . }", false),
    ("?x p0 ?y . ?y p1 ?z", false),
    ("SELECT ?y COUNT(?x) AS ?n WHERE { ?x p2 ?y } GROUP BY ?y ORDER BY DESC(?n) ?y", true),
    ("SELECT DISTINCT ?y WHERE { ?x p3 ?y } ORDER BY ?y LIMIT 5", true),
    ("?x ?p e1", false),
    ("SELECT ?x WHERE { ?x p0 never_seen }", false),
    ("SELECT ?x ?z WHERE { ?x p0 ?y OPTIONAL { ?x p2 ?z } }", false),
    ("SELECT ?x WHERE { { ?x p1 e2 } UNION { ?x p3 e2 } }", false),
    ("SELECT ?x WHERE { ?x p2 e5 } ORDER BY ?x", true),
    ("SELECT WHERE {", false),
];

const VIEWS: [&str; 2] =
    ["SELECT ?y COUNT(?x) AS ?n WHERE { ?x p2 ?y } GROUP BY ?y", "?x p0 ?y . ?y p1 ?z"];

fn random_triple(rng: &mut StdRng) -> Triple {
    let e = |rng: &mut StdRng| format!("e{}", rng.gen_range(0..12u32));
    (e(rng), format!("p{}", rng.gen_range(0..4u32)), e(rng))
}

fn base_of(model: &BTreeSet<Triple>) -> Arc<KbSnapshot> {
    let mut b = KbBuilder::new();
    for (s, p, o) in model {
        b.assert_str(s, p, o);
    }
    b.freeze().into_shared()
}

/// Rendered rows, sorted unless the query orders them itself.
fn rows(
    out: &kb_query::QueryOutput,
    kb: &impl kbkit::kb_store::KbRead,
    ordered: bool,
) -> Vec<String> {
    let mut lines: Vec<String> = out.render(kb).lines().map(String::from).collect();
    if !ordered {
        lines.sort();
    }
    lines
}

#[test]
fn cached_answers_equal_uncached_answers_through_installs_and_evictions() {
    let mut rng = StdRng::seed_from_u64(12);
    let mut model: BTreeSet<Triple> = (0..120).map(|_| random_triple(&mut rng)).collect();
    // Four entries per cache against twelve texts: constant eviction.
    let service = QueryService::with_instrumentation(base_of(&model), 4, &Registry::new());
    let mut views = Vec::new();
    let mut answered = 0u64;

    for step in 0..500u32 {
        match rng.gen_range(0..100u32) {
            0..=17 => {
                let mut b = KbBuilder::new();
                for _ in 0..rng.gen_range(1..4u32) {
                    let victim = model.iter().nth(rng.gen_range(0..model.len())).cloned();
                    match victim {
                        Some((s, p, o)) if rng.gen_bool(0.4) => {
                            b.retract_str(&s, &p, &o);
                            model.remove(&(s, p, o));
                        }
                        _ => {
                            let (s, p, o) = random_triple(&mut rng);
                            b.assert_str(&s, &p, &o);
                            model.insert((s, p, o));
                        }
                    }
                }
                service.apply_delta(Arc::new(b.freeze_delta(&service.snapshot())));
            }
            18..=20 if views.len() < VIEWS.len() => {
                let text = VIEWS[views.len()];
                views.push((service.register_view(text).expect("view registers"), text));
            }
            _ => {
                let (text, ordered) = QUERIES[rng.gen_range(0..QUERIES.len())];
                let snapshot = service.snapshot();
                let got = service.query(text);
                // A text that fails to parse never reaches a cache.
                answered += u64::from(got.is_ok());
                match kb_query::query(snapshot.as_ref(), text) {
                    Err(want) => assert_eq!(got.unwrap_err(), want, "step {step}: {text}"),
                    Ok(want) => assert_eq!(
                        rows(&got.expect("uncached run succeeds"), snapshot.as_ref(), ordered),
                        rows(&want, snapshot.as_ref(), ordered),
                        "step {step}: {text}"
                    ),
                }
            }
        }
        // Every standing view equals a from-scratch execution.
        let snapshot = service.snapshot();
        for (id, text) in &views {
            let compiled = plan(
                &parse(text).expect("view parses"),
                snapshot.as_ref(),
                &StatsCatalog::build(snapshot.as_ref()),
            )
            .expect("view plans");
            let fresh = execute(&compiled, snapshot.as_ref());
            let want = canonical_output(&compiled, &fresh, snapshot.as_ref());
            let got = service.view_result(*id).expect("view stays registered");
            assert_eq!(
                got.render(snapshot.as_ref()),
                want.render(snapshot.as_ref()),
                "step {step}: view {text}"
            );
        }
    }

    let stats = service.cache_stats();
    assert_eq!(
        stats.result_hits + stats.result_misses + stats.result_dedup,
        answered,
        "one result counter per answered query: {stats:?}"
    );
    // The sequence must actually have exercised what it is here for.
    assert!(stats.delta_installs >= 30, "{stats:?}");
    assert!(stats.result_hits > 0 && stats.result_evictions > 0, "{stats:?}");
    assert!(stats.plan_hits > 0 && stats.plan_evictions > 0, "{stats:?}");
    assert!(stats.result_retained > 0 && stats.result_invalidated > 0, "{stats:?}");
}
