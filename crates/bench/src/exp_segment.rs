//! T15 (segmented snapshots): the cost of making new facts queryable.
//! A non-segmented store must re-freeze the whole snapshot — re-sort
//! all three permutations, rebuild the stats catalog, swap the
//! generation — even when the new facts are a fraction of a percent of
//! the base. The segmented path freezes just the delta against the
//! live view and pushes it onto the stack, with predicate-scoped cache
//! invalidation instead of a wholesale flush.

use std::sync::Arc;
use std::time::Instant;

use kb_obs::Registry;
use kb_query::{QueryService, StatsCatalog};
use kb_store::KbBuilder;

use crate::exp_query::synthetic_kb_skewed;
use crate::table::Table;

/// Times `f` over `iters` runs and returns the mean milliseconds.
fn mean_ms(iters: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e3 / iters as f64
}

/// Full-rebuild cost for a KB of this fact set: re-freeze every
/// permutation, rebuild the stats catalog, install the new generation.
/// Fact re-accumulation into a builder is *excluded*, which favors the
/// rebuild side — the reported speedup is a lower bound.
fn full_rebuild_ms(kb_full: &KbBuilder, iters: usize) -> f64 {
    let svc = QueryService::with_instrumentation(
        kb_full.snapshot().into_shared(),
        kb_query::DEFAULT_CACHE_CAPACITY,
        &Registry::new(),
    );
    mean_ms(iters, || {
        let snap = kb_full.snapshot();
        let _stats = StatsCatalog::build(&snap);
        svc.install(snap.into_shared());
    })
}

/// Delta-install cost: freeze `delta_facts` fresh triples against the
/// live view and push the segment (stats merged incrementally, caches
/// swept by predicate footprint).
fn delta_install_ms(svc: &QueryService, delta_facts: usize, iters: usize) -> f64 {
    let mut round = 0usize;
    mean_ms(iters, || {
        let view = svc.snapshot();
        let mut b = KbBuilder::new();
        for j in 0..delta_facts {
            b.assert_str(&format!("dx_{round}_{j}"), "rel_rare", &format!("dy_{round}_{j}"));
        }
        svc.apply_delta(Arc::new(b.freeze_delta(&view)));
        round += 1;
    })
}

/// T15 core comparison at one scale, shared by the harness table and
/// the smoke test. Returns `(full_ms, delta_ms)` for each delta size.
pub fn t15_measure(n: usize, delta_sizes: &[usize], iters: usize) -> Vec<(usize, f64, f64)> {
    let base = synthetic_kb_skewed(n, 7);
    let base_snap = base.snapshot().into_shared();
    delta_sizes
        .iter()
        .map(|&d| {
            // The union KB a monolithic store would have to re-freeze.
            let mut kb_full = synthetic_kb_skewed(n, 7);
            let rare = kb_full.intern("rel_rare");
            for j in 0..d {
                let s = kb_full.intern(&format!("dx_{j}"));
                let o = kb_full.intern(&format!("dy_{j}"));
                kb_full.add_triple(s, rare, o);
            }
            let full_ms = full_rebuild_ms(&kb_full, iters);

            let svc = QueryService::with_instrumentation(
                base_snap.clone(),
                kb_query::DEFAULT_CACHE_CAPACITY,
                &Registry::new(),
            );
            let delta_ms = delta_install_ms(&svc, d, iters);
            (d, full_ms, delta_ms)
        })
        .collect()
}

/// T15: delta install vs full rebuild, plus the cache-retention payoff
/// of predicate-scoped invalidation.
pub fn t15() -> String {
    const N: usize = 100_000;
    let mut t = Table::new(&[
        "base facts",
        "delta facts",
        "full rebuild ms",
        "delta install ms",
        "speedup",
    ]);
    for (d, full_ms, delta_ms) in t15_measure(N, &[100, 1_000], 5) {
        assert!(
            full_ms >= 10.0 * delta_ms,
            "delta install must be ≥10× cheaper than a full rebuild \
             (full {full_ms:.3}ms, delta {delta_ms:.3}ms at {d} facts)"
        );
        t.row(vec![
            N.to_string(),
            d.to_string(),
            format!("{full_ms:.3}"),
            format!("{delta_ms:.3}"),
            format!("{:.0}x", full_ms / delta_ms),
        ]);
    }

    // The serving payoff: warm results whose predicates a delta never
    // touches keep serving; a monolithic install would flush them all.
    let base = synthetic_kb_skewed(N, 7);
    let svc = QueryService::with_instrumentation(
        base.snapshot().into_shared(),
        kb_query::DEFAULT_CACHE_CAPACITY,
        &Registry::new(),
    );
    let warm = [
        "SELECT DISTINCT ?c WHERE { ?a rel_mid ?c } LIMIT 20",
        "SELECT ?x ?y WHERE { ?x rel_mid2 ?y } LIMIT 20",
        "SELECT ?x WHERE { ?x rel_rare ?y } ORDER BY ?x",
    ];
    for q in warm {
        svc.query(q).expect("warm query");
    }
    let view = svc.snapshot();
    let mut b = KbBuilder::new();
    b.assert_str("dx_demo", "rel_rare", "dy_demo");
    svc.apply_delta(Arc::new(b.freeze_delta(&view)));
    let stats = svc.cache_stats();
    let mut ret = Table::new(&["warm entries", "delta touches", "retained", "invalidated"]);
    ret.row(vec![
        warm.len().to_string(),
        "rel_rare".to_string(),
        stats.result_retained.to_string(),
        stats.result_invalidated.to_string(),
    ]);
    format!(
        "T15 — segmented snapshots: delta install vs full rebuild (mean of 5 installs)\n{}\n\
         predicate-scoped invalidation on one rel_rare delta\n{}",
        t.render(),
        ret.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_install_beats_full_rebuild_at_smoke_scale() {
        // Smoke-scale sanity: even at 20k facts the delta path wins by
        // a wide margin (the harness asserts ≥10× at 100k).
        let rows = t15_measure(20_000, &[100], 3);
        let (_, full_ms, delta_ms) = rows[0];
        assert!(
            full_ms > delta_ms,
            "delta install should be cheaper than rebuild: full {full_ms:.3}ms vs delta {delta_ms:.3}ms"
        );
    }

    #[test]
    fn t15_retention_counters_move() {
        let base = synthetic_kb_skewed(2_000, 3);
        let svc = QueryService::with_instrumentation(
            base.snapshot().into_shared(),
            kb_query::DEFAULT_CACHE_CAPACITY,
            &Registry::new(),
        );
        svc.query("SELECT DISTINCT ?c WHERE { ?a rel_mid ?c } LIMIT 5").unwrap();
        svc.query("SELECT ?x WHERE { ?x rel_rare ?y } ORDER BY ?x").unwrap();
        let view = svc.snapshot();
        let mut b = KbBuilder::new();
        b.assert_str("dx", "rel_rare", "dy");
        svc.apply_delta(Arc::new(b.freeze_delta(&view)));
        let stats = svc.cache_stats();
        assert_eq!(stats.delta_installs, 1);
        assert!(stats.result_retained >= 1, "untouched rel_mid entry must survive: {stats:?}");
        assert!(stats.result_invalidated >= 1, "touched rel_rare entry must die: {stats:?}");
    }
}
