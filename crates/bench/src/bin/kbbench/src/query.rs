//! `query_exec`: a query client on the uncached path. One resident
//! `KbSnapshot`, one `QueryService`, one client; each class draws
//! cyclically from a pool of distinct texts four times the size of the
//! service's LRU, so no read is ever a cache hit and every operation
//! pays parse → plan → frame decode → join/aggregate → sort → render.
//! Router, admission, WAL and paging are absent.
//!
//! The classes are the ones Hogan et al., *Knowledge Graphs*, treat as
//! the core of KB querying: a bound-subject point lookup, a basic graph
//! pattern star join, and COUNT…GROUP BY.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kb_query::{execute_traced, QueryService, StatsCatalog};
use kb_store::{
    ColFrames, KbRead, KbReadBatch, KbSnapshot, SegmentedSnapshot, TermId, TripleBatch,
    TriplePattern,
};

use crate::gen::{generate, predicate_name, Workload, WorkloadConfig, GROUPBY_PREDICATE};
use crate::refclock::RefClock;
use crate::scenario::{build_snapshot, micros, Budget, Measured, Scale, Terms};
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Point,
    Join,
    GroupBy,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Point, Class::Join, Class::GroupBy];

    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::Join => "join",
            Class::GroupBy => "groupby",
        }
    }

    /// Span names of this class's layer probes: parse, plan, exec.
    fn probes(self) -> [&'static str; 3] {
        match self {
            Class::Point => ["parse.point", "plan.point", "exec.point"],
            Class::Join => ["parse.join", "plan.join", "exec.join"],
            Class::GroupBy => ["parse.groupby", "plan.groupby", "exec.groupby"],
        }
    }

    /// Span names of the operation itself: whole, service call, render.
    fn op_spans(self) -> [&'static str; 3] {
        match self {
            Class::Point => ["query.point", "service.query.point", "render.point"],
            Class::Join => ["query.join", "service.query.join", "render.join"],
            Class::GroupBy => ["query.groupby", "service.query.groupby", "render.groupby"],
        }
    }
}

pub struct Setup {
    w: Workload,
    snap: Arc<KbSnapshot>,
    service: QueryService,
    /// Where each class stands in its pool. Passes carry on from where
    /// the last one stopped: starting over could meet a text the cache
    /// still holds.
    cursor: [Cell<usize>; 3],
}

pub fn setup(seed: u64, scale: &Scale) -> Setup {
    let w = generate(&WorkloadConfig::new(seed, scale.query_facts));
    let snap = Arc::new(build_snapshot(&w));
    let service = QueryService::new(Arc::clone(&snap));
    Setup { w, snap, service, cursor: Default::default() }
}

impl Setup {
    fn pool(&self, class: Class) -> &[String] {
        match class {
            Class::Point => &self.w.point,
            Class::Join => &self.w.join,
            Class::GroupBy => &self.w.groupby,
        }
    }
}

/// Share of a class's time a traced pass spends on the operations
/// themselves; the rest goes to the layer probes.
const TRACED_OPS_SHARE: f64 = 0.6;

/// Runs the classes one after another, each for an equal share of the
/// budget. A traced pass splits that share between the operations (with
/// spans around the service call and the render) and the layer probes,
/// and `op_cap` bounds the operations of a class either way.
pub fn run(
    setup: &Setup,
    budget: Duration,
    classes: &[Class],
    op_cap: Option<usize>,
    tracer: &mut Tracer,
    clock: &mut RefClock,
) -> Measured {
    let op_cap = op_cap.unwrap_or(usize::MAX);
    let mut m = Measured::default();
    let view = setup.service.snapshot();
    let on = tracer.is_on();
    let stats = on.then(|| StatsCatalog::build(view.as_ref()));
    let (mut examined, mut returned, mut rendered_rows) = (0u64, 0u64, 0u64);
    let class_budget = budget / classes.len() as u32;
    for &class in classes {
        let pool = setup.pool(class);
        let [op_span, service_span, render_span] = class.op_spans();
        let cursor = &setup.cursor[class as usize];
        let hits_before = setup.service.cache_stats().result_hits;
        let mut row_counts: Vec<Option<usize>> = vec![None; pool.len()];
        let mut repeats_agree = true;
        let mut done = 0usize;
        let mut budget =
            Budget::new(if on { class_budget.mul_f64(TRACED_OPS_SHARE) } else { class_budget });
        while budget.more() && done < op_cap {
            clock.tick();
            let at = cursor.get() % pool.len();
            cursor.set(at + 1);
            tracer.next_op();
            m.attempted += 1;
            done += 1;
            let issued = Instant::now();
            let op = tracer.enter(op_span);
            let span = tracer.enter(service_span);
            let answer = setup.service.query(&pool[at]);
            tracer.exit(span);
            if let Ok(out) = &answer {
                let span = tracer.enter(render_span);
                std::hint::black_box(out.render(view.as_ref()));
                tracer.exit(span);
            }
            tracer.exit(op);
            match answer {
                Ok(out) => {
                    m.op(class.name(), issued, micros(issued));
                    rendered_rows += out.rows.len() as u64;
                    repeats_agree &=
                        *row_counts[at].get_or_insert(out.rows.len()) == out.rows.len();
                }
                Err(_) => m.failed += 1,
            }
        }
        m.check(
            &format!("query_exec.{}.repeats_agree", class.name()),
            repeats_agree,
            format!("{done} operations over {} texts", pool.len()),
            done as u64,
        );
        let hits = setup.service.cache_stats().result_hits - hits_before;
        m.check(
            &format!("query_exec.{}.cache_bypassed", class.name()),
            hits == 0,
            format!("{hits} result-cache hits in {done} operations"),
            done as u64,
        );
        // Half a pool from the cursor: not in the cache now, and out of
        // it again long before the cursor comes round.
        let text = &pool[(cursor.get() + pool.len() / 2) % pool.len()];
        let (ok, detail) = naive_check(class, text, view.as_ref(), &setup.service);
        m.check(&format!("query_exec.{}.matches_naive", class.name()), ok, detail, done as u64);

        // The layers of the same texts, one public call each, in passes
        // of their own, layer by layer. Interleaved with the operations
        // they would evict the service's working set between one
        // operation and the next; text by text, the allocator would
        // bill the release of one text's result rows to the parse of
        // the next.
        if let Some(stats) = &stats {
            let [parse_span, plan_span, exec_span] = class.probes();
            let mut budget = Budget::new(class_budget.mul_f64(1.0 - TRACED_OPS_SHARE));
            let mut parsed = Vec::with_capacity(pool.len());
            for text in pool {
                let span = tracer.enter(parse_span);
                parsed.extend(kb_query::parse(text));
                tracer.exit(span);
            }
            let mut plans = Vec::with_capacity(pool.len());
            for query in &parsed {
                let span = tracer.enter(plan_span);
                plans.extend(kb_query::plan(query, view.as_ref(), stats));
                tracer.exit(span);
            }
            for plan in plans.iter().take(op_cap) {
                if !budget.more() {
                    break;
                }
                let span = tracer.enter(exec_span);
                let (out, trace) = execute_traced(plan, view.as_ref());
                tracer.exit(span);
                examined += trace.op_rows.iter().sum::<u64>();
                returned += out.rows.len() as u64;
            }
        }
    }
    m.calibrate(clock);
    m.counts.insert("facts", setup.w.config.facts as f64);
    if on {
        m.counts.insert("rows_examined_per_result", examined as f64 / returned.max(1) as f64);
        m.counts.insert("rendered_rows", rendered_rows as f64);
    }
    m
}

/// Canonical form of rendered rows: the `?col=value` cells of each row
/// sorted, then the rows sorted — column and row order are the
/// engine's business.
fn canonical(rendered: &str) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = rendered
        .lines()
        .map(|line| {
            let mut cells: Vec<String> = line.split("  ").map(str::to_string).collect();
            cells.sort();
            cells
        })
        .collect();
    rows.sort();
    rows
}

/// Checks one text of the class against an evaluator written here: a
/// full scan through `matching_iter`, nested loops for the join, a
/// `HashMap` for the counts.
fn naive_check(
    class: Class,
    text: &str,
    view: &SegmentedSnapshot,
    service: &QueryService,
) -> (bool, String) {
    let got = match service.query(text) {
        Ok(out) => canonical(&out.render(view)),
        Err(e) => return (false, format!("{text}: {e}")),
    };
    let words: Vec<&str> = text.split_whitespace().collect();
    let name = |id: TermId| view.resolve(id).unwrap_or("?").to_string();
    let term = |s: &str| view.term(s);
    let all = || view.matching_iter(&TriplePattern::any()).map(|f| f.triple);
    let mut want: Vec<Vec<String>> = Vec::new();
    match class {
        Class::Point => {
            // "<s> <p> ?o"
            let (Some(s), Some(p)) = (term(words[0]), term(words[1])) else {
                return (false, format!("{text}: unknown term"));
            };
            for t in all().filter(|t| t.s == s && t.p == p) {
                want.push(vec![format!("?o={}", name(t.o))]);
            }
        }
        Class::Join => {
            // "?x A ?a . ?x B ?b . ?x C ?c"
            let (Some(a), Some(b), Some(c)) = (term(words[1]), term(words[5]), term(words[9]))
            else {
                return (false, format!("{text}: unknown predicate"));
            };
            let mut by_subject: [HashMap<TermId, Vec<TermId>>; 3] = Default::default();
            for t in all() {
                for (k, p) in [a, b, c].into_iter().enumerate() {
                    if t.p == p {
                        by_subject[k].entry(t.s).or_default().push(t.o);
                    }
                }
            }
            let none = Vec::new();
            for (x, arm_a) in &by_subject[0] {
                for oa in arm_a {
                    for ob in by_subject[1].get(x).unwrap_or(&none) {
                        for oc in by_subject[2].get(x).unwrap_or(&none) {
                            let mut row = vec![
                                format!("?x={}", name(*x)),
                                format!("?a={}", name(*oa)),
                                format!("?b={}", name(*ob)),
                                format!("?c={}", name(*oc)),
                            ];
                            row.sort();
                            want.push(row);
                        }
                    }
                }
            }
        }
        Class::GroupBy => {
            // "SELECT ?o0 COUNT(?s) AS ?n WHERE { ?s P ?o0 } GROUP BY ?o0"
            let Some(p) = term(&predicate_name(GROUPBY_PREDICATE)) else {
                return (false, format!("{text}: unknown predicate"));
            };
            let key = words[1];
            let mut counts: HashMap<TermId, u64> = HashMap::new();
            for t in all().filter(|t| t.p == p) {
                *counts.entry(t.o).or_default() += 1;
            }
            for (o, n) in counts {
                let mut row = vec![format!("{key}={}", name(o)), format!("?n={n}")];
                row.sort();
                want.push(row);
            }
        }
    }
    want.sort();
    let detail = format!("{text}: {} rows, naive {} rows", got.len(), want.len());
    (got == want, detail)
}

/// Storage-layer probes on the resident KB, once per traced run: frame
/// decode speed over columns rebuilt from the SPO permutation, batch
/// scan speed (the whole KB, then predicate by predicate), and what
/// compression saves.
pub fn storage_probes(setup: &Setup, tracer: &mut Tracer, m: &mut Measured) {
    let snap = setup.snap.as_ref();
    let mut columns: [Vec<u32>; 3] = Default::default();
    for f in snap.matching_iter(&TriplePattern::any()) {
        for (col, id) in columns.iter_mut().zip([f.triple.s, f.triple.p, f.triple.o]) {
            col.push(id.0);
        }
    }
    let frames: Vec<ColFrames> = columns.iter().map(|c| ColFrames::from_values(c)).collect();
    let mut decoded = 0usize;
    let mut out = Vec::new();
    for _ in 0..5 {
        for col in &frames {
            out.clear();
            let span = tracer.enter("frames.decode");
            col.decode_range(0, col.len(), &mut out);
            tracer.exit(span);
            decoded += std::hint::black_box(&out).len();
        }
    }
    m.counts.insert("frames_decoded_values", decoded as f64);
    m.counts.insert("frames_saved_ratio", snap.index_stats().saved_ratio());

    let terms = Terms::of(&setup.w);
    let mut patterns = vec![TriplePattern::any()];
    patterns
        .extend((0..setup.w.config.predicates).map(|p| TriplePattern::with_p(terms.predicate(p))));
    let mut batch = TripleBatch::new();
    let mut rows = 0usize;
    for pattern in &patterns {
        let span = tracer.enter("snapshot.scan");
        let mut batches = snap.matching_batches(pattern);
        while batches.next_batch(&mut batch) {
            rows += batch.len();
        }
        tracer.exit(span);
    }
    m.counts.insert("scanned_rows", rows as f64);
}
