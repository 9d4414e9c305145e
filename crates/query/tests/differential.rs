//! Differential tests: the engine against the naive reference model of
//! the dev-only `kb-testkit` crate, plus parser round-trip and totality
//! properties.
//!
//! The reference evaluates a query straight from its syntax tree over
//! one ordered set of string triples — no plan, no statistics, no term
//! ids — so a divergence is a bug in the parser's reading, the planner,
//! the executor or the storage view, never one the two sides share.

use proptest::prelude::*;

use kb_query::{cell_str, QueryOutput};
use kb_store::{Fact, KbBuilder, KbRead, TimeSpan, Triple, TriplePattern};
use kb_testkit::gen::{
    builder_of, cut_positions, ops, pattern, query_texts, reference_of, segment_chain,
};
use kb_testkit::{assert_conforms, assert_facts_conform, RefKb};

/// Resolves the engine's rows to sorted, deduplicated string rows.
fn new_rows<K: KbRead + ?Sized>(out: &QueryOutput, kb: &K) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> =
        out.rows.iter().map(|r| r.iter().map(|c| cell_str(c, kb).into_owned()).collect()).collect();
    rows.sort();
    rows.dedup();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random conjunctive queries over random small KBs, through the
    /// one-shot `kb_query::query` over the mutable builder: the answer
    /// conforms to the reference's — same columns, same bag of rows —
    /// also where a pattern names a term the dictionary never saw.
    #[test]
    fn conjunctive_queries_conform_to_reference(
        triples in prop::collection::vec((0u32..6, 0u32..3, 0u32..6), 1..30),
        patterns in prop::collection::vec(pattern(), 1..4),
    ) {
        let mut kb = KbBuilder::new();
        let mut reference = RefKb::default();
        for &(s, p, o) in &triples {
            kb.assert_str(&format!("e{s}"), &format!("r{p}"), &format!("e{o}"));
            reference.assert(&format!("e{s}"), &format!("r{p}"), &format!("e{o}"), None);
        }
        let text = patterns.join(" . ");
        let out = kb_query::query(&kb, &text).unwrap();
        assert_conforms(&kb_query::parse(&text).unwrap(), &out, &kb, &reference);
    }

    /// The engine answers alike over a frozen snapshot and over the
    /// live builder (same query, same KB content, different view).
    #[test]
    fn snapshot_and_live_builder_agree(
        triples in prop::collection::vec((0u32..5, 0u32..2, 0u32..5), 1..20),
        p1 in 0u32..2, p2 in 0u32..2,
    ) {
        let mut kb = KbBuilder::new();
        for &(s, p, o) in &triples {
            kb.assert_str(&format!("e{s}"), &format!("r{p}"), &format!("e{o}"));
        }
        let snap = kb.snapshot();
        let text = format!("?x r{p1} ?y . ?y r{p2} ?z");
        let a = kb_query::query(&kb, &text).unwrap();
        let b = kb_query::query(&snap, &text).unwrap();
        prop_assert_eq!(new_rows(&a, &kb), new_rows(&b, &snap));
    }

    /// Segmented vs monolithic read path, at the engine level: the
    /// same op sequence — asserts and retractions — split into a base
    /// plus 1–3 random deltas must hold the reference's facts and
    /// produce identical SELECT binding sets to the single-shot
    /// monolithic snapshot, for random conjunctive queries.
    #[test]
    fn select_results_identical_across_segment_splits(
        ops in ops(6, 3, 1..40),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..3),
        patterns in prop::collection::vec(pattern(), 1..4),
    ) {
        let (mono, reference) = (builder_of(&ops).freeze(), reference_of(&ops));
        let (_, _, view) = segment_chain(&ops, &cut_positions(&ops, &cuts));
        assert_facts_conform(&mono, &reference);
        assert_facts_conform(&view, &reference);

        let text = patterns.join(" . ");
        let a = kb_query::query(&mono, &text).unwrap();
        let b = kb_query::query(&view, &text).unwrap();
        prop_assert_eq!(
            new_rows(&a, &mono), new_rows(&b, &view),
            "segment split diverged on: {}", text
        );
    }

    /// The parser is total: any printable text is a query or a typed
    /// error, never a panic.
    #[test]
    fn parse_is_total_on_arbitrary_text(text in "\\PC{0,300}") {
        let _ = kb_query::parse(&text);
    }

    /// Nor does a valid query one character away from itself — one
    /// deleted, one doubled, one inserted — panic the parser; and
    /// whatever still parses has a canonical text that parses back to
    /// it (standing views re-plan from that text).
    #[test]
    fn parse_is_total_one_edit_away_from_a_valid_query(
        text in query_texts(),
        at in any::<prop::sample::Index>(),
        edit in 0u8..3,
        inserted in "[{}().@?<>=!* a-zA-Z0-9\\-]",
    ) {
        let mut chars: Vec<char> = text.chars().collect();
        let i = at.index(chars.len());
        match edit {
            0 => drop(chars.remove(i)),
            1 => chars.insert(i, chars[i]),
            _ => chars.insert(i, inserted.chars().next().unwrap()),
        }
        let edited: String = chars.into_iter().collect();
        if let Ok(query) = kb_query::parse(&edited) {
            prop_assert_eq!(kb_query::parse(&query.to_string()), Ok(query), "{}", edited);
        }
    }

    /// Parser round-trip: `parse ∘ display` is the identity on the
    /// algebra, and the canonical display form is a fixpoint.
    #[test]
    fn display_then_parse_is_identity(text in query_texts()) {
        let q1 = kb_query::parse(&text)
            .unwrap_or_else(|e| panic!("generated query failed to parse: {text:?}: {e}"));
        let canonical = q1.to_string();
        let q2 = kb_query::parse(&canonical)
            .unwrap_or_else(|e| panic!("canonical form failed to re-parse: {canonical:?}: {e}"));
        prop_assert_eq!(&q1, &q2, "display → parse changed the algebra for {:?}", text);
        prop_assert_eq!(q2.to_string(), canonical, "canonical display is not a fixpoint");
    }

    /// Normalization maps formatting variants of the same query to one
    /// canonical string.
    #[test]
    fn normalize_merges_formatting_variants(
        p in 0u32..3,
        spaces in 1usize..4,
        upper in any::<bool>(),
    ) {
        let pad = " ".repeat(spaces);
        let kw = if upper { "SELECT" } else { "select" };
        let variant = format!("{kw}{pad}?x{pad}WHERE {{ ?x r{p} ?y .{pad}}}");
        let reference = format!("SELECT ?x WHERE {{ ?x r{p} ?y }}");
        prop_assert_eq!(
            kb_query::normalize(&variant).unwrap(),
            kb_query::normalize(&reference).unwrap()
        );
    }
}

proptest! {
    // The one suite that meets every construct; cases are cheap.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every construct of the language, over both storage shapes: on
    /// random KBs (asserts and retractions, spanned and unspanned
    /// facts, which both shapes hold as the reference does, confidence
    /// and source included) and random queries from [`query_texts`], the planned,
    /// batch-executed answer over the monolithic snapshot and over a
    /// segmented delta stack conforms to the reference evaluation —
    /// the rule, windows and ORDER BY included, is
    /// `kb_testkit::assert_conforms`. The trace stays aligned with the
    /// plan's operator list.
    #[test]
    fn planned_execution_conforms_to_reference_on_both_storage_shapes(
        // Four entities, so that most patterns match something.
        ops in ops(4, 3, 4..40),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..3),
        text in query_texts(),
    ) {
        let (mono, reference) = (builder_of(&ops).freeze(), reference_of(&ops));
        let (_, _, seg) = segment_chain(&ops, &cut_positions(&ops, &cuts));
        let parsed = kb_query::parse(&text)
            .unwrap_or_else(|e| panic!("generated query failed to parse: {text:?}: {e}"));
        for view in [&mono as &dyn KbRead, &seg as &dyn KbRead] {
            assert_facts_conform(view, &reference);
            let stats = kb_query::StatsCatalog::build(view);
            let plan = kb_query::plan(&parsed, view, &stats)
                .unwrap_or_else(|e| panic!("generated query failed to plan: {text:?}: {e}"));
            let (out, trace) = kb_query::execute_traced(&plan, view);
            assert_conforms(&parsed, &out, view, &reference);
            prop_assert_eq!(plan.describe(view).len(), trace.op_rows.len());
            prop_assert_eq!(plan.est_rows().len(), trace.op_rows.len());
        }
    }
}

/// Regression (PR 3 review finding, promoted from a scratch test): an
/// OPTIONAL block after a UNION must correlate its shared-object join
/// with the bindings produced by the union branches — it must not
/// cross-join uncorrelated `bornIn`/`diedIn` rows onto every union
/// binding.
#[test]
fn optional_after_union_keeps_its_shared_object_join_correlated() {
    use kb_store::KbBuilder;

    let mut b = KbBuilder::new();
    // Union binds ?a.
    b.assert_str("alice", "knows", "bob");
    b.assert_str("carol", "likes", "bob");
    // A shared-object pair inside the OPTIONAL: ?a bornIn ?c . ?d diedIn ?c
    b.assert_str("alice", "bornIn", "town1");
    b.assert_str("carol", "bornIn", "town2");
    b.assert_str("dave", "diedIn", "town1");
    b.assert_str("erin", "diedIn", "town2");
    let snap = b.freeze();

    let q = "SELECT ?a ?c ?d WHERE { { ?a knows bob } UNION { ?a likes bob } \
             OPTIONAL { ?a bornIn ?c . ?d diedIn ?c } }";
    let parsed = kb_query::parse(q).unwrap();
    let stats = kb_query::StatsCatalog::build(&snap);
    let plan = kb_query::plan(&parsed, &snap, &stats).unwrap();
    let out = kb_query::execute(&plan, &snap);

    // Each union branch correlates with its own bornIn town and that
    // town's diedIn counterpart — never a cross-joined mix. (The engine
    // uses bag semantics and may emit duplicate rows; the correlation
    // invariant is about the distinct bindings.)
    let distinct = new_rows(&out, &snap);
    assert_eq!(
        distinct,
        vec![
            vec!["alice".to_string(), "town1".to_string(), "dave".to_string()],
            vec!["carol".to_string(), "town2".to_string(), "erin".to_string()],
        ],
        "rows: {:?}",
        out.rows
    );
}

/// The queries `exec.rs`'s unit tests answer with hand-counted rows,
/// each also checked in full against the reference (a lib's own unit
/// tests cannot link a dev-dependency that depends on the lib).
#[test]
fn executor_unit_test_shapes_conform_to_reference() {
    type Facts<'a> = &'a [(&'a str, &'a str, &'a str, Option<&'a str>)];
    fn check(facts: Facts, queries: &[&str]) {
        let mut b = KbBuilder::new();
        let mut reference = RefKb::default();
        for &(s, p, o, span) in facts {
            let span = span.map(|text| TimeSpan::parse(text).unwrap());
            let triple = Triple::new(b.intern(s), b.intern(p), b.intern(o));
            b.add_fact(Fact { span, ..Fact::asserted(triple) });
            reference.assert(s, p, o, span);
        }
        let snap = b.freeze();
        for text in queries {
            let out = kb_query::query(&snap, text).unwrap();
            assert_conforms(&kb_query::parse(text).unwrap(), &out, &snap, &reference);
        }
    }
    check(
        &[
            ("Steve_Jobs", "bornIn", "San_Francisco", None),
            ("Steve_Wozniak", "bornIn", "San_Jose", None),
            ("San_Francisco", "locatedIn", "California", None),
            ("San_Jose", "locatedIn", "California", None),
            ("Steve_Jobs", "founded", "Apple_Inc", None),
            ("Steve_Jobs", "worksAt", "Apple_Inc", Some("[1976,1985]")),
        ],
        &[
            "?p bornIn ?c . ?c locatedIn California",
            "SELECT ?p ?co WHERE { ?p bornIn ?c OPTIONAL { ?p founded ?co } }",
            "SELECT ?x WHERE { { ?x bornIn San_Francisco } UNION { ?x bornIn San_Jose } }",
            "?a bornIn ?c . ?b bornIn ?c . FILTER(?a != ?b)",
            "?p worksAt ?e @1980",
            "?p worksAt ?e @1999",
            "SELECT ?c COUNT(?p) AS ?n WHERE { ?p bornIn ?c } GROUP BY ?c ORDER BY DESC(?n) ?c",
            "SELECT DISTINCT ?c WHERE { ?p bornIn ?c . ?c locatedIn ?st }",
            "SELECT DISTINCT ?c WHERE { ?p bornIn ?c . ?c locatedIn ?st } \
             ORDER BY ?c LIMIT 1 OFFSET 1",
            "?p bornIn ?c . ?c locatedIn ?st . FILTER(?st = California)",
            // Constant against constant: the same term, whether or not
            // the dictionary has it (PR 13: `zzz = zzz` used to fail).
            "?p bornIn ?c . FILTER(zzz = zzz)",
            "?p bornIn ?c . FILTER(zzz != zzz)",
            "?p bornIn ?c . FILTER(zzz != California)",
            "?p bornIn ?c . FILTER(California = California)",
            "?p bornIn ?c . FILTER(10 <= 10)",
        ],
    );
    check(
        &[
            ("e1", "happenedIn", "1969", None),
            ("e2", "happenedIn", "1991", None),
            ("e3", "happenedIn", "2004", None),
        ],
        &["SELECT ?e WHERE { ?e happenedIn ?y . FILTER(?y < 2000) } ORDER BY ?e"],
    );
    check(
        &[("a", "knows", "a", None), ("a", "knows", "b", None), ("b", "knows", "b", None)],
        &["SELECT ?x WHERE { ?x knows ?x } ORDER BY ?x"],
    );
}

/// F8's adversarial text order against the reference: a 1 000-fact KB
/// whose predicates are skewed a hundredfold (80 % `rel_big`, 12 %
/// `rel_mid`, 8 % `rel_mid2`, eight `rel_rare` facts), so that the
/// cost-based planner joins in another order than the text gives. It is
/// the only reference-model check on such a KB, and it checks rows, over
/// the builder and the frozen snapshot; that the plan opens with the
/// selective pattern is `plan::tests::planner_starts_with_the_selective_pattern`.
#[test]
fn f8_queries_conform_to_reference_on_small_kb() {
    use rand::{rngs::StdRng, Rng, SeedableRng};

    let mut kb = KbBuilder::new();
    let mut reference = RefKb::default();
    let mut rng = StdRng::seed_from_u64(7);
    for (predicate, facts) in
        [("rel_big", 800), ("rel_mid", 120), ("rel_mid2", 80), ("rel_rare", 8)]
    {
        for _ in 0..facts {
            let [s, o] = [(); 2].map(|()| format!("entity_{}", rng.gen_range(0..250)));
            kb.assert_str(&s, predicate, &o);
            reference.assert(&s, predicate, &o, None);
        }
    }
    let count = |p: &str| kb.count_matching(&TriplePattern::with_p(kb.term(p).unwrap()));
    assert!(count("rel_big") > 700, "rel_big should dominate: {}", count("rel_big"));
    assert!((1..=8).contains(&count("rel_rare")), "rel_rare should be tiny");

    let snap = kb.snapshot();
    for text in [
        "?y rel_rare ?z . ?x rel_big ?y",
        "?y rel_mid ?z . ?x rel_big ?y",
        "?x rel_big ?a . ?x rel_mid ?b . ?x rel_rare ?c",
        "?a rel_mid ?c . ?b rel_mid2 ?c",
    ] {
        let parsed = kb_query::parse(text).unwrap();
        for view in [&kb as &dyn KbRead, &snap as &dyn KbRead] {
            let out = kb_query::query(view, text).unwrap();
            assert_conforms(&parsed, &out, view, &reference);
        }
    }
}

/// Two patterns sharing an object variable plan as two scan steps,
/// the long run first. The second step is handed a thousand rows
/// against a run of fifty, so it answers them from one probe table
/// keyed by the object the first binds — built at its first row — and
/// the answer is the reference's.
#[test]
fn shared_object_pair_plans_as_two_scan_steps() {
    let mut kb = KbBuilder::new();
    let mut reference = RefKb::default();
    let facts = (0..1_000).map(|i| (format!("p{i}"), "bornIn", format!("c{}", i % 10)));
    let facts = facts.chain((0..50).map(|j| (format!("d{j}"), "diedIn", format!("c{j}"))));
    for (s, p, o) in facts {
        kb.assert_str(&s, p, &o);
        reference.assert(&s, p, &o, None);
    }
    let snap = kb.snapshot();
    let text = "?a bornIn ?c . ?b diedIn ?c";
    let parsed = kb_query::parse(text).unwrap();
    let plan = kb_query::plan(&parsed, &snap, &kb_query::StatsCatalog::build(&snap)).unwrap();
    assert_eq!(plan.describe(&snap), ["scan `?a bornIn ?c`", "scan `?b diedIn ?c`"]);

    let (out, trace) = kb_query::execute_traced(&plan, &snap);
    assert_eq!(trace.probe_tables, [kb_query::ProbeBuild { op: 1, rows: 50, lookups: 0 }]);
    assert_eq!(out.rows.len(), 1_000);
    assert_conforms(&parsed, &out, &snap, &reference);
}
