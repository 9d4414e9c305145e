//! The one generator every conformance suite draws from: KBs as op
//! lists (each assertion with its own confidence, span and source),
//! built monolithically, as a segment chain and into the reference
//! model; query texts over every construct of the language; and whole
//! workloads — writes, installs, seals, compactions, crashes, reopens,
//! standing views and queries — for the stack-wide state machine.
//!
//! The vendored `proptest` draws from one [`TestRng`] and does not
//! shrink, so a workload is a plain [`Strategy`] whose value, a list of
//! [`Step`]s, prints (`{:?}`) as Rust source a regression test can
//! replay.

use std::ops::Range;
use std::sync::Arc;

use kb_store::{
    DeltaSegment, Fact, KbBuilder, KbSnapshot, SegmentedSnapshot, TimePoint, TimeSpan, Triple,
};
use proptest::prelude::*;
use proptest::TestRng;

use crate::{RefFact, RefKb};

/// What one op does to its triple.
#[derive(Debug, Clone, Copy)]
pub enum Write {
    /// Retracts the triple (a tombstone when it crosses a segment
    /// boundary).
    Retract,
    /// Asserts it with this confidence and span, from source
    /// `src{source}`.
    Assert { confidence: f64, span: Option<TimeSpan>, source: u32 },
}

/// An assertion at confidence 1, without a span, from `src0`.
pub const CERTAIN: Write = Write::Assert { confidence: 1.0, span: None, source: 0 };

/// One write to `e{s} r{p} e{o}`.
pub type Op = (Write, u32, u32, u32);

/// `len` ops over `entities` entities and `relations` relations. One in
/// five retracts. Each assertion draws its own confidence, span and
/// source: a confidence of 0 (a retraction) one time in eight, else ½
/// or 1 — dyadic, so that noisy-or is exact in any grouping and every
/// configuration agrees bit for bit; no span, a year or an interval;
/// one of as many sources as there are entities.
pub fn ops(entities: u32, relations: u32, len: Range<usize>) -> impl Strategy<Value = Vec<Op>> {
    let write = (0u8..5, 0u8..8, 0u8..3, 0u32..30, 0u32..20, 0..entities).prop_map(
        |(kind, confidence, span, year, years, source)| {
            let at = |offset: u32| TimePoint::year(1985 + (year + offset) as i32);
            let span = match span {
                0 => None,
                1 => Some(TimeSpan::at(at(0))),
                _ => Some(TimeSpan { begin: Some(at(0)), end: Some(at(years)) }),
            };
            let confidence = [0.0, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0][confidence as usize];
            match kind {
                0 => Write::Retract,
                _ => Write::Assert { confidence, span, source },
            }
        },
    );
    prop::collection::vec((write, 0..entities, 0..relations, 0..entities), len)
}

/// Applies one op to a builder.
pub fn apply(b: &mut KbBuilder, (write, s, p, o): Op) {
    let (es, rp, eo) = (format!("e{s}"), format!("r{p}"), format!("e{o}"));
    match write {
        Write::Retract => {
            b.retract_str(&es, &rp, &eo);
        }
        Write::Assert { confidence, span, source } => {
            let triple = Triple::new(b.intern(&es), b.intern(&rp), b.intern(&eo));
            let source = b.register_source(&format!("src{source}"));
            b.add_fact(Fact { triple, confidence, source, span });
        }
    }
}

/// `ops` applied to a fresh builder.
pub fn builder_of(ops: &[Op]) -> KbBuilder {
    let mut b = KbBuilder::new();
    for &op in ops {
        apply(&mut b, op);
    }
    b
}

/// Applies one op to the reference model.
pub fn record(reference: &mut RefKb, (write, s, p, o): Op) {
    let (es, rp, eo) = (format!("e{s}"), format!("r{p}"), format!("e{o}"));
    match write {
        Write::Retract => {
            reference.retract(&es, &rp, &eo);
        }
        Write::Assert { confidence, span, source } => {
            let source = format!("src{source}");
            reference.add(&es, &rp, &eo, RefFact { confidence, span, source });
        }
    }
}

/// `ops` replayed into the reference model.
pub fn reference_of(ops: &[Op]) -> RefKb {
    let mut reference = RefKb::default();
    for &op in ops {
        record(&mut reference, op);
    }
    reference
}

/// `ops` as a segment chain cut at the positions `cuts`: the ops before
/// the first cut frozen as the base, each later stretch frozen as a
/// delta against the growing view. Returns the base, the deltas and
/// the view over all of them.
pub fn segment_chain(
    ops: &[Op],
    cuts: &[usize],
) -> (Arc<KbSnapshot>, Vec<Arc<DeltaSegment>>, SegmentedSnapshot) {
    let mut bounds = [cuts, &[0, ops.len()]].concat();
    bounds.sort_unstable();
    bounds.dedup();
    let mut chunks = bounds.windows(2).map(|w| &ops[w[0]..w[1]]);
    let base = builder_of(chunks.next().unwrap_or(&[])).freeze().into_shared();
    let mut view = SegmentedSnapshot::from_base(Arc::clone(&base));
    let mut deltas = Vec::new();
    for chunk in chunks {
        let delta = Arc::new(builder_of(chunk).freeze_delta(&view));
        view = view.with_delta(Arc::clone(&delta));
        deltas.push(delta);
    }
    (base, deltas, view)
}

/// Random cut positions for [`segment_chain`] over `ops`.
pub fn cut_positions(ops: &[Op], cuts: &[prop::sample::Index]) -> Vec<usize> {
    cuts.iter().map(|c| c.index(ops.len() + 1)).collect()
}

pub const VARS: [&str; 4] = ["x", "y", "z", "w"];

/// One pattern text. A subject or object is a variable four times in
/// five, else an entity of `e0..e3`; one entity in ten and one relation
/// in twenty is outside the dictionary (`e6`, `e7`, `r3`); one relation
/// in three is `?r`; a pattern in four carries `@year`.
pub fn pattern() -> impl Strategy<Value = String> {
    let entity = |(kind, idx): (u8, u32)| match (kind, idx) {
        (0..=7, _) => format!("?{}", VARS[kind as usize % 4]),
        (_, 18..) => format!("e{}", idx - 12),
        _ => format!("e{}", idx % 4),
    };
    ((0u8..10, 0u32..20), (0u8..3, 0u32..20), (0u8..10, 0u32..20), 0i32..100).prop_map(
        move |(s, (relation_kind, relation), mut o, at)| {
            // `?x r ?x` seldom matches anything: make the object the
            // next variable instead.
            if s.0 < 8 && o.0 < 8 && s.0 % 4 == o.0 % 4 {
                o.0 = (o.0 + 1) % 4;
            }
            let relation = match (relation_kind, relation) {
                (0, _) => "?r".to_string(),
                (_, 19) => "r3".to_string(),
                _ => format!("r{}", relation % 3),
            };
            let at = if at < 25 { format!(" @{}", 1985 + at) } else { String::new() };
            format!("{} {relation} {}{at}", entity(s), entity(o))
        },
    )
}

/// A `FILTER` operand: one of the `bound` variables mostly (a filter
/// over an unbound one drops every row) else any variable, an entity
/// inside or outside the dictionary, a number no fact mentions, or a
/// word none does.
pub fn operand_text((kind, idx): (u8, u32), bound: &[&str]) -> String {
    match kind {
        0..=2 if !bound.is_empty() => bound[idx as usize % bound.len()].to_string(),
        0..=3 => format!("?{}", VARS[kind as usize]),
        4 | 5 => format!("e{idx}"),
        6 => (idx * 5).to_string(),
        _ => "zzz".to_string(),
    }
}

/// Valid query texts over every construct of the language: 1–3
/// patterns (some `@year`, some naming terms outside the dictionary),
/// UNION, OPTIONAL, a FILTER between any two operands (constant against
/// constant included); the bare form, `SELECT *`, named columns, or
/// COUNT with and without GROUP BY; DISTINCT, ORDER BY over a column,
/// LIMIT and OFFSET. Three texts in eight are COUNT…GROUP BY, in six
/// shapes: one key ordered by its count; two keys; a key that is not
/// projected; `COUNT(?v)` beside `COUNT(*)` over a `?v` only an
/// OPTIONAL binds; that `?v` as the key (an unbound group); one key
/// unordered. All but the first carry no ORDER BY, so under LIMIT and
/// OFFSET they show the order groups leave the executor in — which
/// `tests/stack_conformance.rs` holds equal, byte for byte, between the
/// routers and the service.
pub fn query_texts() -> impl Strategy<Value = String> {
    texts(false)
}

/// The texts of [`query_texts`] without UNION, OPTIONAL, LIMIT or
/// OFFSET: those a standing view can maintain by patching its answer,
/// unless a constant it names is not interned yet.
pub fn monotone_texts() -> impl Strategy<Value = String> {
    texts(true)
}

fn texts(monotone: bool) -> impl Strategy<Value = String> {
    (
        prop::collection::vec(pattern(), 1..4),
        any::<bool>(),
        prop::option::of(pattern()),
        prop::option::of((0u8..3, (0u8..8, 0u32..8), 0usize..6, (0u8..8, 0u32..8))),
        (0u8..8, 0u8..6),
        any::<bool>(),
        prop::option::of((any::<prop::sample::Index>(), any::<bool>())),
        prop::option::of(0usize..20),
        prop::option::of(1usize..6),
    )
        .prop_map(
            move |(patterns, union, optional, filter, select, distinct, order, limit, offset)| {
                let (select, group_shape) = match select {
                    (0 | 6 | 7, 3 | 4) if monotone => (0, 5),
                    (0 | 6 | 7, shape) => (0, shape),
                    (select, _) => (select, 0),
                };
                let (union, optional) = (union && !monotone, optional.filter(|_| !monotone));
                let (limit, offset) = if monotone { (None, None) } else { (limit, offset) };
                let mut body = patterns;
                if union {
                    body.push("{ ?x r0 ?y } UNION { ?x r1 ?y }".to_string());
                }
                if let Some(optional) = optional {
                    body.push(format!("OPTIONAL {{ {optional} }}"));
                }
                if select == 0 && matches!(group_shape, 3 | 4) {
                    body.push("OPTIONAL { ?x r1 ?v }".to_string());
                }
                // Only what a pattern binds is a column `SELECT *` projects
                // and ORDER BY may name; a filter binds nothing. Named
                // back to front, so that the column order asked for is
                // not the sorted one `*` gives.
                let bound = body.join(" ");
                let used: Vec<&str> = ["?w", "?z", "?y", "?x", "?r"]
                    .into_iter()
                    .filter(|v| bound.contains(v))
                    .collect();
                if let Some((kind, lhs, op, rhs)) = filter {
                    // A third between any two operands, a third between
                    // two constants, a third a constant against itself.
                    let constant = |(kind, idx): (u8, u32)| (4 + kind % 4, idx);
                    let (lhs, rhs) = match kind {
                        0 => (lhs, rhs),
                        1 => (constant(lhs), constant(rhs)),
                        _ => (constant(lhs), constant(lhs)),
                    };
                    let sym = ["=", "!=", "<", "<=", ">", ">="][op];
                    let (lhs, rhs) = (operand_text(lhs, &used), operand_text(rhs, &used));
                    body.push(format!("FILTER({lhs} {sym} {rhs})"));
                }
                let body = body.join(" . ");
                let distinct = if distinct { "DISTINCT " } else { "" };
                let mut text = match select {
                    0 => {
                        let (cols, keys) = match group_shape {
                            0 => ("?x COUNT(?y) AS ?n", "?x ORDER BY DESC(?n) ?x"),
                            1 => ("?x ?y COUNT(*) AS ?n", "?x ?y"),
                            2 => ("?y COUNT(?x) AS ?n", "?x ?y"),
                            3 => ("?x COUNT(?v) AS ?n COUNT(*) AS ?m", "?x"),
                            4 => ("?v COUNT(*) AS ?n", "?v"),
                            _ => ("?x COUNT(?y) AS ?n", "?x"),
                        };
                        format!("SELECT {distinct}{cols} WHERE {{ {body} }} GROUP BY {keys}")
                    }
                    1 => format!("SELECT {distinct}COUNT(*) AS ?n WHERE {{ {body} }}"),
                    2 => return body,
                    _ => {
                        let cols = if select == 3 && !used.is_empty() {
                            used.join(" ")
                        } else {
                            "*".into()
                        };
                        let mut text = format!("SELECT {distinct}{cols} WHERE {{ {body} }}");
                        if let (Some((pick, desc)), false) = (order, used.is_empty()) {
                            let var = used[pick.index(used.len())];
                            text.push_str(&if desc {
                                format!(" ORDER BY DESC({var})")
                            } else {
                                format!(" ORDER BY {var}")
                            });
                        }
                        text
                    }
                };
                if let Some(n) = limit {
                    text.push_str(&format!(" LIMIT {n}"));
                }
                if let Some(n) = offset {
                    text.push_str(&format!(" OFFSET {n}"));
                }
                text
            },
        )
}

/// The memory budget a store reopens under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Lazy columns, resident once touched.
    Lazy,
    /// Half the bytes of the base segment's frames region, so that
    /// columns page in and spill while answering.
    HalfBaseFrames,
}

/// One step of a workload against a KB stack: a write to the pending
/// batch, a lifecycle event of the store, or a read. Its `{:?}` form is
/// the Rust expression that builds it, but for a text, which prints as a
/// `&str` literal.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Asserts `e{s} r{p} e{o}` from source `src{source}`.
    Assert { s: u32, p: u32, o: u32, confidence: f64, span: Option<TimeSpan>, source: u32 },
    /// Retracts `e{s} r{p} e{o}`.
    Retract { s: u32, p: u32, o: u32 },
    /// Freezes the pending writes as one delta and installs it.
    Install,
    /// Seals the store's WAL into delta files.
    Seal,
    /// Compacts the store into a new base.
    Compact,
    /// Kills the store and cuts its WAL to `wal_byte` bytes past the
    /// header (clamped to its length).
    Crash { wal_byte: usize },
    /// Closes the store cleanly and opens it again.
    Reopen { budget: Budget },
    /// Registers a standing view.
    Register(String),
    /// Unregisters the standing view at this index (modulo their
    /// number) among those registered.
    Unregister(usize),
    /// Answers a query.
    Query(String),
}

/// One op as a workload step.
pub fn step((write, s, p, o): Op) -> Step {
    match write {
        Write::Retract => Step::Retract { s, p, o },
        Write::Assert { confidence, span, source } => {
            Step::Assert { s, p, o, confidence, span, source }
        }
    }
}

/// `ops` cut into `installs` (at least one) stretches of about equal
/// length, each followed by an `Install` — the later ones empty if there
/// are fewer ops than installs, an empty delta being a legal stack level.
pub fn installed(ops: &[Op], installs: usize) -> Vec<Step> {
    let installs = installs.max(1);
    let mut stretches = ops.chunks(ops.len().div_ceil(installs).max(1));
    (0..installs)
        .flat_map(|_| {
            let writes = stretches.next().unwrap_or(&[]).iter().map(|&op| step(op));
            writes.chain([Step::Install]).collect::<Vec<_>>()
        })
        .collect()
}

/// Whole workloads over four entities and three relations, drawn in
/// three passes, each inserting its steps at drawn positions: 30–80
/// writes (the [`ops`] draw); 4–13 installs, up to two seals, one
/// compaction, two crashes and two reopens; then views and queries over
/// a pool of one or two [`query_texts`] and one or two
/// [`monotone_texts`], so that a repeated text meets the result cache of
/// an earlier install — one to three registrations, up to one
/// unregistration, three to nine queries.
pub fn workload() -> impl Strategy<Value = Vec<Step>> {
    Workload
}

struct Workload;

impl Strategy for Workload {
    type Value = Vec<Step>;

    fn generate(&self, rng: &mut TestRng) -> Vec<Step> {
        let mut steps: Vec<Step> = ops(4, 3, 30..80).generate(rng).into_iter().map(step).collect();
        scatter(&mut steps, rng, 4..14, |_| Step::Install);
        scatter(&mut steps, rng, 0..3, |_| Step::Seal);
        scatter(&mut steps, rng, 0..2, |_| Step::Compact);
        scatter(&mut steps, rng, 0..3, |rng| Step::Crash { wal_byte: rng.below(3_000) as usize });
        scatter(&mut steps, rng, 0..3, |rng| Step::Reopen {
            budget: if rng.chance(0.5) { Budget::Lazy } else { Budget::HalfBaseFrames },
        });
        let mut pool = prop::collection::vec(query_texts(), 1..3).generate(rng);
        pool.extend(prop::collection::vec(monotone_texts(), 1..3).generate(rng));
        let text = |rng: &mut TestRng| pool[rng.below(pool.len() as u64) as usize].clone();
        scatter(&mut steps, rng, 1..4, |rng| Step::Register(text(rng)));
        scatter(&mut steps, rng, 0..2, |rng| Step::Unregister(rng.below(4) as usize));
        scatter(&mut steps, rng, 3..10, |rng| Step::Query(text(rng)));
        steps
    }
}

/// Inserts `count` steps made by `make` at drawn positions of `steps`.
fn scatter(
    steps: &mut Vec<Step>,
    rng: &mut TestRng,
    count: Range<u64>,
    make: impl Fn(&mut TestRng) -> Step,
) {
    for _ in 0..count.generate(rng) {
        let step = make(rng);
        let at = rng.below(steps.len() as u64 + 1) as usize;
        steps.insert(at, step);
    }
}
