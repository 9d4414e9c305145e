//! `serve_mixed`: a query client on the cached serving path while
//! installs keep landing. A KB behind `KbRouter` (4 partitions,
//! admission on with a rate far above anything reached, so a shed
//! request is a failure), two standing views registered.
//!
//! One thread does both, in **rounds of identical work**. A round
//! starts from a fresh router over the base KB, warms its caches up,
//! and then runs `installs_per_round` times: one install, then
//! `reads_per_install` reads.
//!
//! * Reads: seven subject-bound probes (Zipf over the probe subjects)
//!   to one scatter query (Zipf over 64 texts), each answer rendered.
//! * Installs: each delta (80 asserts, 20 retracts) is frozen against
//!   a monolithic shadow view before it is timed. Nine of ten touch
//!   only the predicates of the standing views, the tenth touches the
//!   probed predicate.
//!
//! Why rounds, and why one thread: deltas stack without compaction
//! behind the router, and reads slow down with the depth of the stack
//! (five-fold over 250 installs). In one long run no two stretches do
//! the same work, and what a run reports is where in the drift it
//! happened to look. Every round replays the same reads and the same
//! deltas on the same state, so rounds can be compared, and the better
//! quartile of their medians is what the program does when the host
//! leaves it alone. A reader and a writer thread on this box's two
//! cores did not repeat within 25% (`records/NOISE.md`, section 6).
//!
//! Same layers as `query_exec`, used differently: reads are served
//! mostly from the alias, plan and result caches between writes that
//! invalidate them and patch views. A cache change that helps reads
//! and costs installs, or the reverse, shows here and nowhere else.
//! What one thread cannot show is readers waiting at the epoch barrier.

use std::sync::Arc;
use std::time::{Duration, Instant};

use kb_obs::{ManualClock, Registry};
use kb_query::{canonical_output, execute, QueryService, ViewId};
use kb_serve::{AdmissionConfig, KbRouter, ServeError, Subscription};
use kb_store::{partition_delta, subject_partition, KbBuilder, KbSnapshot, SegmentedSnapshot};

use crate::gen::{
    entity_name, generate, predicate_name, Workload, WorkloadConfig, PROBE_PREDICATE,
};
use crate::json::Json;
use crate::refclock::RefClock;
use crate::scenario::{build_snapshot, fact_strings, micros, Budget, Measured, Scale};
use crate::trace::Tracer;

const PARTITIONS: usize = 4;
/// Reads issued before a round is timed, so the caches are as full as
/// the mix ever keeps them.
const WARM_UP_READS: usize = 5_000;

pub struct Setup {
    w: Workload,
    base: Arc<KbSnapshot>,
    registry: Registry,
    /// Owning partition of each probe text.
    probe_partition: Vec<usize>,
    reads_per_install: usize,
    /// The last round's state, which [`verify`] and [`probes`] look at.
    /// Never empty between calls.
    round: Option<Round>,
}

/// What a round starts afresh.
struct Round {
    router: KbRouter,
    views: [ViewId; 2],
    subscriptions: [Subscription; 2],
    /// Monolithic twin of the router's state; deltas freeze against it.
    shadow: SegmentedSnapshot,
}

pub fn setup(seed: u64, scale: &Scale) -> Result<Setup, String> {
    let config = WorkloadConfig {
        deltas: scale.serve_installs_per_round,
        ..WorkloadConfig::new(seed, scale.serve_facts)
    };
    let w = generate(&config);
    let base = Arc::new(build_snapshot(&w));
    let registry = Registry::new();
    let probes = w.reads.len() - crate::gen::SCATTER_TEXTS;
    let probe_partition: Vec<usize> =
        (0..probes).map(|i| subject_partition(probe_subject(&w.reads[i]), PARTITIONS)).collect();
    let round = Some(fresh_round(&w, &base, &registry, &probe_partition)?);
    let reads_per_install = scale.serve_reads_per_install;
    Ok(Setup { w, base, registry, probe_partition, reads_per_install, round })
}

/// A router over the base KB with both views registered and its caches
/// warm.
fn fresh_round(
    w: &Workload,
    base: &Arc<KbSnapshot>,
    registry: &Registry,
    probe_partition: &[usize],
) -> Result<Round, String> {
    let config =
        AdmissionConfig { rate_per_sec: Some(1e6), burst: 1e6, ..AdmissionConfig::default() };
    let router = KbRouter::with_config(Arc::clone(base), PARTITIONS, config, registry);
    let mut views = Vec::new();
    for text in &w.views {
        views.push(router.register_view(text).map_err(|e| format!("view {text}: {e}"))?);
    }
    let views = [views[0], views[1]];
    let subscriptions = views.map(|id| router.subscribe(id));
    for at in 0..WARM_UP_READS {
        let (text, _) = read_at(w, probe_partition, at);
        router.query(text).map_err(|e| format!("warm-up read {text}: {e}"))?;
    }
    Ok(Round {
        router,
        views,
        subscriptions,
        shadow: SegmentedSnapshot::from_base(Arc::clone(base)),
    })
}

impl Setup {
    fn last_round(&self) -> &Round {
        self.round.as_ref().expect("a round is kept between calls")
    }
}

fn probe_subject(text: &str) -> &str {
    text.split_whitespace().next().unwrap_or_default()
}

/// The read at position `at` of the pre-drawn sequence and, for a
/// probe, the partition that owns its subject.
fn read_at<'a>(w: &'a Workload, probe_partition: &[usize], at: usize) -> (&'a str, Option<usize>) {
    let i = w.read_order[at % w.read_order.len()] as usize;
    (&w.reads[i], probe_partition.get(i).copied())
}

/// Runs whole rounds until `budget` is used up, and at least one.
pub fn run(
    setup: &mut Setup,
    budget: Duration,
    tracer: &mut Tracer,
    clock: &mut RefClock,
) -> Measured {
    let mut m = Measured::default();
    let tr = tracer;
    let Setup { w, base, registry, probe_partition, reads_per_install, round } = setup;
    let (w, reads_per_install) = (&*w, *reads_per_install);
    let (mut reads, mut scatter_reads) = (Measured::default(), 0u64);
    let mut installs = Measured::default();
    let (mut view_updates, mut view_patched) = (0u64, 0u64);
    let mut cache = [0u64; 6];

    let mut budget = Budget::new(budget);
    while budget.more() {
        // The last round goes before the next is built, so that memory
        // holds one router at a time.
        drop(round.take());
        let fresh = fresh_round(w, base, registry, probe_partition)
            .expect("a round starts as the one in set-up did");
        let Round { router, subscriptions, shadow, .. } = round.insert(fresh);
        let router = &*router;
        let before = cache_totals(router);
        let mut next_read = WARM_UP_READS;
        for gen_delta in &w.deltas {
            clock.tick();
            tr.next_op();
            let mut b = KbBuilder::new();
            for f in &gen_delta.asserts {
                let (s, p, o) = fact_strings(w, f);
                b.assert_str(&s, &p, &o);
            }
            for f in &gen_delta.retracts {
                let (s, p, o) = fact_strings(w, f);
                b.retract_str(&s, &p, &o);
            }
            let span = tr.enter("builder.freeze_delta");
            let delta = Arc::new(b.freeze_delta(shadow));
            tr.exit(span);

            installs.attempted += 1;
            let issued = Instant::now();
            let span = tr.enter("router.apply_delta");
            router.apply_delta(Arc::clone(&delta));
            tr.exit(span);
            installs.op("install", issued, micros(issued));

            for sub in subscriptions.iter() {
                while let Ok(Some(update)) = sub.try_recv() {
                    view_updates += 1;
                    view_patched += u64::from(update.patched);
                    tr.reported(span, "view.patch", 0.0, update.patch_us as f64);
                }
            }
            *shadow = shadow.with_delta(Arc::clone(&delta));
            if tr.is_on() {
                let view = router.view();
                let span = tr.enter("partition.split");
                std::hint::black_box(partition_delta(&delta, view.as_ref(), PARTITIONS));
                tr.exit(span);
            }

            for _ in 0..reads_per_install {
                clock.tick();
                let (text, partition) = read_at(w, probe_partition, next_read);
                next_read += 1;
                tr.next_op();
                reads.attempted += 1;
                let issued = Instant::now();
                let op = tr.enter("serve.read");
                let span =
                    tr.enter(if partition.is_some() { "router.single" } else { "router.scatter" });
                let answer = router.query(text);
                tr.exit(span);
                match answer {
                    Ok(out) => {
                        // A probe's answer renders against the replica
                        // that produced it; only scatter answers need
                        // the merged view. Rendering has no span of its
                        // own (it is `serve.read`'s self time): a third
                        // span on a 3 µs read is what the tracing
                        // overhead of this scenario then mostly is.
                        let rendered = match partition {
                            Some(p) => out.render(router.service(p).snapshot().as_ref()),
                            None => out.render(router.view().as_ref()),
                        };
                        std::hint::black_box(rendered);
                        reads.op("read", issued, micros(issued));
                    }
                    Err(e) => {
                        if !matches!(e, ServeError::Overloaded(_)) {
                            eprintln!("kbbench: read {text:?} failed: {e}");
                        }
                        reads.failed += 1;
                    }
                }
                tr.exit(op);
                scatter_reads += u64::from(partition.is_none());
            }
        }
        let after = cache_totals(router);
        for (total, (a, b)) in cache.iter_mut().zip(after.iter().zip(before)) {
            *total += a - b;
        }
    }

    // With no read failed, every round holds this many samples: the
    // rounds are the stretches the end-to-end metrics are taken over.
    m.round_len = Some(w.deltas.len() * reads_per_install).filter(|_| reads.failed == 0);
    m.counts.insert("facts", w.config.facts as f64);
    m.counts.insert("reads", reads.attempted as f64);
    m.counts.insert("installs", installs.attempted as f64);
    m.counts.insert("scatter_share", scatter_reads as f64 / reads.attempted.max(1) as f64);
    m.counts.insert("view_patched_ratio", view_patched as f64 / view_updates.max(1) as f64);
    let d = |i: usize| cache[i] as f64;
    m.counts.insert("result_hit_ratio", d(0) / (d(0) + d(1)).max(1.0));
    m.counts.insert("plan_hit_ratio", d(2) / (d(2) + d(3)).max(1.0));
    m.counts.insert("invalidated_per_install", d(4) / installs.attempted.max(1) as f64);
    m.counts.insert("evictions", d(5));
    reads.calibrate(clock);
    installs.calibrate(clock);
    m.absorb(reads);
    m.absorb(installs);
    m
}

/// Result hits, result misses, plan hits, plan misses, invalidated
/// results and evictions, summed over the partition replicas.
fn cache_totals(router: &KbRouter) -> [u64; 6] {
    let mut t = [0; 6];
    for p in 0..router.partitions() {
        let s = router.service(p).cache_stats();
        let parts = [
            s.result_hits,
            s.result_misses,
            s.plan_hits,
            s.plan_misses,
            s.result_invalidated,
            s.result_evictions + s.plan_evictions,
        ];
        for (total, part) in t.iter_mut().zip(parts) {
            *total += part;
        }
    }
    t
}

/// After the last round: a sample of router answers and both standing
/// views must be byte-equal to a monolithic `QueryService` over the
/// shadow view.
pub fn verify(setup: &Setup, m: &mut Measured) {
    let round = setup.last_round();
    let oracle = QueryService::from_view(&round.shadow);
    let oracle_view = oracle.snapshot();
    let router_view = round.router.view();
    let probes = setup.probe_partition.len();
    let sample = (0..probes.min(64)).chain(probes..setup.w.reads.len());
    let (mut compared, mut differing) = (0, Vec::new());
    for i in sample {
        let text = &setup.w.reads[i];
        let got = round.router.query(text).map(|o| o.render(router_view.as_ref()));
        let want = oracle.query(text).map(|o| o.render(oracle_view.as_ref()));
        compared += 1;
        if got.ok() != want.ok() {
            differing.push(text.clone());
        }
    }
    let ops = m.attempted;
    m.check(
        "serve_mixed.answers_equal_monolithic",
        differing.is_empty(),
        format!("{compared} texts compared, differing: {differing:?}"),
        ops,
    );
    for (id, text) in round.views.iter().zip(&setup.w.views) {
        let got = round.router.view_result(*id).map(|o| o.render(router_view.as_ref()));
        let want = oracle.plan_for(text).ok().map(|plan| {
            let out = execute(&plan, oracle_view.as_ref());
            canonical_output(&plan, &out, oracle_view.as_ref()).render(oracle_view.as_ref())
        });
        let rows = got.as_deref().map_or(0, |r| r.lines().count());
        m.check(
            "serve_mixed.view_equal_monolithic",
            got.is_some() && got == want,
            format!("{text}: {rows} rows"),
            ops,
        );
    }
    m.counts.insert("shed", obs_counter(&setup.registry, "serve.shed").unwrap_or(0.0));
}

/// A kb-obs counter read by name from the registry's JSON rendering:
/// `None` when the name is gone, rather than a zero made up by
/// get-or-create.
pub fn obs_counter(registry: &Registry, name: &str) -> Option<f64> {
    Json::parse(&registry.render_json()).ok()?.get("counters")?.get(name)?.as_f64()
}

/// The obs counters the record keeps beside the typed counts.
pub fn obs_counters(setup: &Setup) -> Vec<(&'static str, Option<f64>)> {
    ["serve.routed_single", "serve.scattered", "serve.shed", "query.cache.result_invalidated"]
        .map(|name| (name, obs_counter(&setup.registry, name)))
        .to_vec()
}

/// Traced runs only, after the mix: what the router adds to a cached
/// probe (the same text through `KbRouter::query` and straight through
/// the owning replica), and whether admission still sheds.
pub fn probes(setup: &Setup, tracer: &mut Tracer, m: &mut Measured) {
    let router = &setup.last_round().router;
    for (i, &partition) in setup.probe_partition.iter().enumerate().take(512) {
        let text = &setup.w.reads[i];
        if router.query(text).is_err() {
            continue;
        }
        tracer.next_op();
        let span = tracer.enter("router.single_hit");
        std::hint::black_box(router.query(text).is_ok());
        tracer.exit(span);
        let span = tracer.enter("service.hit");
        std::hint::black_box(router.service(partition).query(text).is_ok());
        tracer.exit(span);
    }
    m.counts.insert("shed_ratio", admission_shed_ratio(&setup.base));
}

/// Offers twice the admitted rate on a manual clock, so the share shed
/// is an exact count: 800 requests a second for five simulated seconds
/// against a 400-a-second bucket with a burst of 32.
fn admission_shed_ratio(base: &Arc<KbSnapshot>) -> f64 {
    const RATE: f64 = 400.0;
    const OFFERED: u64 = 800;
    const SECONDS: u64 = 5;
    let clock = ManualClock::shared(0);
    let registry = Registry::with_clock(clock.clone());
    let config =
        AdmissionConfig { rate_per_sec: Some(RATE), burst: 32.0, ..AdmissionConfig::default() };
    let router = KbRouter::with_config(Arc::clone(base), PARTITIONS, config, &registry);
    let probe = predicate_name(PROBE_PREDICATE);
    let total = OFFERED * SECONDS;
    let mut shed = 0u64;
    for i in 0..total {
        clock.advance(1_000_000 / OFFERED);
        let text = format!("{} {probe} ?o", entity_name((i % 64) as u32));
        if matches!(router.query(&text), Err(ServeError::Overloaded(_))) {
            shed += 1;
        }
    }
    shed as f64 / total as f64
}
