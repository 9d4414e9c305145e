//! The write contract, one table for every configuration. A fixed list
//! of writes — one subject per case, spread over a base and two deltas —
//! is replayed into
//!
//! * one monolithic `KbBuilder`, read live,
//! * its frozen snapshot,
//! * a `SegmentedSnapshot` of the base and the two deltas,
//! * that view compacted into one snapshot,
//! * a `SegmentStore` holding the base, the first delta sealed and the
//!   second in the WAL, reopened from disk,
//!
//! and each case's fact — confidence bits, span and source name, or its
//! absence — must be the one the rules give, in all five alike:
//!
//! * evidence for a live triple merges: noisy-or confidence, the first
//!   known span, the earliest source;
//! * a retraction forgets: a retracted or tombstoned triple asserted
//!   again starts fresh with the new confidence, span and source;
//! * a zero-confidence fact is a retraction.

use std::sync::Arc;

use kb_store::{
    Fact, KbBuilder, KbRead, SegmentStore, SegmentedSnapshot, StoreOptions, TimePoint, TimeSpan,
    Triple,
};

/// One write to the triple `<case> r x`.
#[derive(Debug, Clone, Copy)]
enum Write {
    /// Confidence, span year, source name.
    Assert(f64, Option<i32>, &'static str),
    Retract,
}
use Write::{Assert, Retract};

/// The writes of each segment — base, delta 1, delta 2 — as (case, write).
const SEGMENTS: [&[(&str, Write)]; 3] = [
    &[
        ("merge", Assert(0.5, None, "a")),
        ("a", Assert(0.5, Some(1990), "a")),
        ("a", Retract),
        ("b", Retract),
        ("c", Assert(0.5, Some(1990), "a")),
        ("d", Assert(0.5, Some(1990), "a")),
        ("tombstone-first", Assert(0.5, Some(1990), "a")),
    ],
    &[
        ("merge", Assert(0.5, Some(1992), "b")),
        ("a", Assert(0.5, Some(1992), "c")),
        ("b", Assert(0.5, Some(1992), "c")),
        ("c", Assert(0.0, Some(1992), "c")),
    ],
    &[
        ("d", Assert(0.5, Some(1991), "b")),
        ("d", Retract),
        ("d", Assert(0.5, Some(1992), "c")),
        ("tombstone-first", Retract),
        ("tombstone-first", Assert(0.5, Some(1992), "c")),
    ],
];

/// A live fact: confidence, span year, source name.
type Held = (f64, Option<i32>, &'static str);

/// What each case's triple holds once every segment is written.
const EXPECTED: [(&str, Option<Held>); 6] = [
    // Control: both writes are evidence for a live triple.
    ("merge", Some((0.75, Some(1992), "a"))),
    // Retracted in the base, asserted again in a delta.
    ("a", Some((0.5, Some(1992), "c"))),
    // A tombstone for a triple the base never held, then an assertion.
    ("b", Some((0.5, Some(1992), "c"))),
    // A zero-confidence assertion over a live triple.
    ("c", None),
    // Asserted, retracted and asserted again inside one delta.
    ("d", Some((0.5, Some(1992), "c"))),
    // A delta retracts a live triple first, then asserts it.
    ("tombstone-first", Some((0.5, Some(1992), "c"))),
];

fn year(y: i32) -> TimeSpan {
    TimeSpan::at(TimePoint::year(y))
}

fn write(b: &mut KbBuilder, case: &str, w: Write) {
    match w {
        Assert(confidence, span, source) => {
            let triple = Triple::new(b.intern(case), b.intern("r"), b.intern("x"));
            let source = b.register_source(source);
            b.add_fact(Fact { triple, confidence, source, span: span.map(year) });
        }
        Retract => {
            b.retract_str(case, "r", "x");
        }
    }
}

fn builder_of<'a>(writes: impl IntoIterator<Item = &'a (&'a str, Write)>) -> KbBuilder {
    let mut b = KbBuilder::new();
    for &(case, w) in writes {
        write(&mut b, case, w);
    }
    b
}

/// A live fact as compared: confidence bits, span, source name.
type Observed = (u64, Option<TimeSpan>, String);

/// A case's fact in `view`.
fn observed(view: &dyn KbRead, case: &str) -> Option<Observed> {
    let t = Triple::new(view.term(case)?, view.term("r")?, view.term("x")?);
    let f = view.fact_for(&t)?;
    Some((f.confidence.to_bits(), f.span, view.source_name(f.source)?.to_string()))
}

fn show(fact: &Option<Observed>) -> String {
    match fact {
        Some((bits, span, source)) => {
            let span = span.map_or("-".to_string(), |s| s.to_string());
            format!("{} {span} {source}", f64::from_bits(*bits))
        }
        None => "absent".to_string(),
    }
}

#[test]
fn every_configuration_gives_the_write_contract_answer() {
    let monolith = builder_of(SEGMENTS.iter().flat_map(|s| s.iter()));
    let frozen = monolith.clone().freeze();

    let base = builder_of(SEGMENTS[0]).freeze().into_shared();
    let mut segmented = SegmentedSnapshot::from_base(Arc::clone(&base));
    let mut deltas = Vec::new();
    for writes in &SEGMENTS[1..] {
        let delta = Arc::new(builder_of(*writes).freeze_delta(&segmented));
        segmented = segmented.with_delta(Arc::clone(&delta));
        deltas.push(delta);
    }
    let compacted = segmented.compact();

    let dir = std::env::temp_dir().join(format!("kbkit-write-contract-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let options = StoreOptions { fsync: false, seal_every: 0, memory_budget: None };
    let mut store = SegmentStore::create(&dir, base, options).unwrap();
    store.install_delta(Arc::clone(&deltas[0])).unwrap();
    store.seal().unwrap();
    store.install_delta(Arc::clone(&deltas[1])).unwrap();
    assert_eq!(store.unsealed_count(), 1, "the second delta stays in the WAL");
    drop(store);
    let reopened = SegmentStore::open_with(&dir, options).unwrap().view();

    let configurations: [(&str, &dyn KbRead); 5] = [
        ("monolithic builder", &monolith),
        ("frozen snapshot", &frozen),
        ("segmented", &segmented),
        ("compacted", &compacted),
        ("reopened store", &reopened),
    ];
    let mut wrong = Vec::new();
    for (case, expected) in EXPECTED {
        let want = expected.map(|(c, y, source)| (c.to_bits(), y.map(year), source.to_string()));
        for (name, view) in configurations {
            let got = observed(view, case);
            if got != want {
                wrong.push(format!(
                    "case {case} on the {name}: {}, expected {}",
                    show(&got),
                    show(&want)
                ));
            }
        }
    }
    let live = EXPECTED.iter().filter(|(_, e)| e.is_some()).count();
    for (name, view) in configurations {
        if view.len() != live {
            wrong.push(format!("the {name} holds {} live facts, expected {live}", view.len()));
        }
    }
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
