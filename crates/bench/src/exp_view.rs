//! T20 (standing-query maintenance): patching a materialized view with
//! a signed delta join vs re-executing the query from scratch on every
//! install. The workload replays the §4 rival-product case study as a
//! stream: a 100k-fact KB of posts mentioning two product families,
//! then a long run of small delta installs (new posts plus retractions
//! of old ones) against standing COUNT…GROUP BY and filtered-join
//! views. The claim under test: at 0.1% delta sizes, incremental
//! maintenance is ≥10× cheaper at p99 than full re-execution, while
//! producing byte-identical answers.

use std::sync::Arc;
use std::time::Instant;

use kb_query::{canonical_output, execute, QueryService};
use kb_store::KbBuilder;

use crate::table::Table;

/// The two standing views: mention totals per product (the case
/// study's headline chart), and the filtered join feeding the
/// per-window drill-down on one product.
pub const VIEW_QUERIES: [&str; 2] = [
    "SELECT ?prod COUNT(?post) AS ?n WHERE { ?post mentions ?prod } GROUP BY ?prod",
    "SELECT ?post ?d WHERE { ?post mentions Strato_1 . ?post postedOn ?d . \
     FILTER(?d != day_3) }",
];

/// The two `(subject, predicate, object)` triples planted per post —
/// its `mentions` and `postedOn` facts — kept so the streaming phase
/// can retract old posts.
pub type PlantedPost = [(String, String, String); 2];

/// Builds the rival-product KB: `posts` post entities, each mentioning
/// one of ten products (two five-product families) and stamped with a
/// day in a 90-day horizon — two facts per post, so `2 * posts + 10`
/// facts total. Returns the KB alongside the per-post triples so the
/// streaming phase can retract old posts.
pub fn rival_kb(posts: usize) -> (KbBuilder, Vec<PlantedPost>) {
    let mut kb = KbBuilder::new();
    let products: Vec<String> = (0..5)
        .map(|k| format!("Strato_{k}"))
        .chain((0..5).map(|k| format!("Nimbus_{k}")))
        .collect();
    for prod in &products {
        let brand = if prod.starts_with("Strato") { "Strato" } else { "Nimbus" };
        let (p, m, b) = (kb.intern(prod), kb.intern("madeBy"), kb.intern(brand));
        kb.add_triple(p, m, b);
    }
    let mut planted = Vec::with_capacity(posts);
    for i in 0..posts {
        let s = format!("post_{i}");
        let prod = products[i % products.len()].clone();
        let day = format!("day_{}", i % 90);
        let (si, pi) = (kb.intern(&s), kb.intern("mentions"));
        let oi = kb.intern(&prod);
        kb.add_triple(si, pi, oi);
        let (di, vi) = (kb.intern("postedOn"), kb.intern(&day));
        kb.add_triple(si, di, vi);
        planted.push([(s.clone(), "mentions".to_string(), prod), (s, "postedOn".to_string(), day)]);
    }
    (kb, planted)
}

/// One measured install: per-view patch latency (reported by the view
/// registry) vs full re-execution of the same query on the post-install
/// snapshot, plus the identity check between the two answers.
pub struct InstallSample {
    /// Summed standing-view patch latency reported by the registry.
    pub patch_us: u64,
    /// Wall-clock cost of re-executing both view queries from scratch.
    pub reexec_us: u64,
}

/// Streams `installs` deltas of `new_posts` fresh posts + `retracts`
/// retractions each into a service with both standing views registered,
/// measuring each install and asserting answer identity throughout.
/// Returns per-install samples summed over the views.
pub fn t20_measure(
    base_posts: usize,
    installs: usize,
    new_posts: usize,
    retracts: usize,
) -> Vec<InstallSample> {
    let (kb, planted) = rival_kb(base_posts);
    let service = QueryService::new(kb.snapshot().into_shared());
    let ids: Vec<_> = VIEW_QUERIES
        .iter()
        .map(|q| service.register_view(q).expect("standing view registers"))
        .collect();
    let plans: Vec<_> =
        VIEW_QUERIES.iter().map(|q| service.plan_for(q).expect("view query plans")).collect();

    let mut samples = Vec::with_capacity(installs);
    for r in 0..installs {
        let view = service.snapshot();
        let mut b = KbBuilder::new();
        for j in 0..new_posts {
            let s = format!("live_{r}_{j}");
            b.assert_str(&s, "mentions", &format!("Strato_{}", (r + j) % 5));
            b.assert_str(&s, "postedOn", &format!("day_{}", (r * new_posts + j) % 90));
        }
        // Retract the oldest still-live base posts' mention facts —
        // the case study's sliding window dropping expired posts.
        for j in 0..retracts {
            let idx = r * retracts + j;
            if let Some([(s, p, o), _]) = planted.get(idx) {
                b.retract_str(s, p, o);
            }
        }
        let delta = Arc::new(b.freeze_delta(&view));
        let updates = service.apply_delta(delta);
        let patch_us: u64 = updates.iter().map(|u| u.patch_us).sum();

        // Baseline: execute each view query from scratch over the new
        // snapshot. Parsing and planning are excluded (the plans are
        // reused), so the reported re-execution cost — and therefore
        // the speedup — is a lower bound.
        let after = service.snapshot();
        let t0 = Instant::now();
        let full: Vec<_> = plans
            .iter()
            .map(|p| canonical_output(p, &execute(p, after.as_ref()), after.as_ref()))
            .collect();
        let reexec_us = t0.elapsed().as_micros() as u64;

        for ((id, plan), want) in ids.iter().zip(&plans).zip(&full) {
            let got = service.view_result(*id).expect("view is registered");
            assert_eq!(
                got.render(after.as_ref()),
                want.render(after.as_ref()),
                "standing view diverged from re-execution at install {r} ({})",
                plan.explain().join("; "),
            );
        }
        samples.push(InstallSample { patch_us, reexec_us });
    }
    samples
}

fn p99(mut xs: Vec<u64>) -> u64 {
    assert!(!xs.is_empty());
    xs.sort_unstable();
    let idx = ((xs.len() as f64) * 0.99).ceil() as usize;
    xs[idx.saturating_sub(1).min(xs.len() - 1)]
}

/// T20: standing-view maintenance vs full re-execution on the
/// million-scale rival-product stream — 0.1% deltas against a
/// 100k-fact base, p99 over 40 installs, identity asserted on every
/// install.
pub fn t20() -> String {
    const BASE_POSTS: usize = 49_995; // 2 facts each + 10 brand facts ≈ 100k
    const INSTALLS: usize = 40;
    let samples = t20_measure(BASE_POSTS, INSTALLS, 40, 20);
    let patch_p99 = p99(samples.iter().map(|s| s.patch_us).collect());
    let reexec_p99 = p99(samples.iter().map(|s| s.reexec_us).collect());
    let patch_mean: f64 =
        samples.iter().map(|s| s.patch_us as f64).sum::<f64>() / samples.len() as f64;
    let reexec_mean: f64 =
        samples.iter().map(|s| s.reexec_us as f64).sum::<f64>() / samples.len() as f64;
    assert!(
        reexec_p99 >= 10 * patch_p99,
        "standing-view maintenance must be ≥10× cheaper than re-execution at p99 \
         (patch {patch_p99}µs, reexec {reexec_p99}µs)"
    );

    let mut t = Table::new(&[
        "base facts",
        "installs",
        "delta entries",
        "patch p99 µs",
        "reexec p99 µs",
        "p99 speedup",
        "mean speedup",
    ]);
    t.row(vec![
        (2 * BASE_POSTS + 10).to_string(),
        INSTALLS.to_string(),
        "100".to_string(),
        patch_p99.to_string(),
        reexec_p99.to_string(),
        format!("{:.0}x", reexec_p99 as f64 / patch_p99.max(1) as f64),
        format!("{:.0}x", reexec_mean / patch_mean.max(1.0)),
    ]);
    format!(
        "T20 — standing-query maintenance: delta patch vs full re-execution\n\
         (views: mention totals per product, filtered Strato_1 drill-down; \
         answers byte-identical on every install)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke-scale T20: identity holds on every install and the patch
    /// path wins on average even at 10k facts (the harness asserts the
    /// ≥10× p99 bound at 100k).
    #[test]
    fn standing_views_track_reexecution_through_a_stream() {
        let samples = t20_measure(5_000, 6, 20, 10);
        assert_eq!(samples.len(), 6);
        let patch: u64 = samples.iter().map(|s| s.patch_us).sum();
        let reexec: u64 = samples.iter().map(|s| s.reexec_us).sum();
        assert!(
            patch < reexec,
            "patching should beat re-execution even at smoke scale ({patch}µs vs {reexec}µs)"
        );
    }

    #[test]
    fn p99_picks_the_tail() {
        assert_eq!(p99((1..=100).collect()), 99);
        assert_eq!(p99(vec![5]), 5);
        assert_eq!(p99(vec![3, 1, 2]), 3);
    }
}
