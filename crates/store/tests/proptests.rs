//! Property-based tests for kb-store invariants.

use proptest::prelude::*;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use kb_store::{
    Fact, IndexChoice, KbBuilder, KbRead, SameAsStore, SegmentedSnapshot, SourceId, TermId,
    TimePoint, TimeSpan, Triple, TriplePattern,
};
use kb_testkit::{assert_facts_conform, RefFact, RefKb, StrTriple};

fn term_strategy() -> impl Strategy<Value = String> {
    // Mix of plain identifiers and nasty strings with escapes/unicode.
    prop_oneof![
        "[A-Za-z_][A-Za-z0-9_]{0,12}",
        "[ -~]{0,8}",
        Just("tab\there".to_string()),
        Just("nl\nhere".to_string()),
        Just("Zürich".to_string()),
    ]
}

/// Term `n` of a pool of 160: runs of one letter that are prefixes of
/// each other (the empty string first), non-ASCII text, and numbered
/// terms enough to grow the id table several times.
fn pool_term(n: u32) -> String {
    match n {
        0..=5 => "a".repeat(n as usize),
        6 => "Zürich".to_string(),
        7 => "Zür".to_string(),
        8 => "東京".to_string(),
        _ => format!("t{n}"),
    }
}

proptest! {
    /// Interning any sequence of strings round-trips exactly, and equal
    /// strings always get equal ids.
    #[test]
    fn dictionary_round_trip(words in prop::collection::vec(term_strategy(), 0..40)) {
        let mut d = kb_store::Dictionary::new();
        let ids: Vec<_> = words.iter().map(|w| d.intern(w)).collect();
        for (w, id) in words.iter().zip(&ids) {
            prop_assert_eq!(d.resolve(*id), Some(w.as_str()));
            prop_assert_eq!(d.get(w), Some(*id));
        }
        for (i, a) in words.iter().enumerate() {
            for (j, b) in words.iter().enumerate() {
                prop_assert_eq!(a == b, ids[i] == ids[j]);
            }
        }
    }

    /// The flat dictionary behaves like a `HashMap` model under any
    /// interleaving of `intern`, `get` and `resolve`, across several
    /// growths of its id table: terms that are prefixes of each other
    /// (neighbours in the arena), the empty string and non-ASCII text
    /// included. A clone taken midway keeps answering for the terms it
    /// had, whatever the original interns afterwards.
    #[test]
    fn dictionary_matches_a_map_model(
        ops in prop::collection::vec((0u8..3, 0u32..160), 0..400),
        clone_at in 0usize..400,
    ) {
        let mut d = kb_store::Dictionary::new();
        let mut ids: std::collections::HashMap<String, kb_store::TermId> = Default::default();
        let mut terms: Vec<String> = Vec::new();
        let mut cloned = None;
        for (i, &(op, n)) in ops.iter().enumerate() {
            let term = &pool_term(n);
            if i == clone_at {
                cloned = Some((d.clone(), terms.clone()));
            }
            match op {
                0 => {
                    let id = d.intern(term);
                    let want = *ids.entry(term.clone()).or_insert_with(|| {
                        terms.push(term.clone());
                        kb_store::TermId(terms.len() as u32 - 1)
                    });
                    prop_assert_eq!(id, want);
                }
                1 => prop_assert_eq!(d.get(term), ids.get(term).copied()),
                _ => {
                    let id = kb_store::TermId(n);
                    prop_assert_eq!(d.resolve(id), terms.get(id.index()).map(String::as_str));
                }
            }
            prop_assert_eq!(d.len(), terms.len());
        }
        prop_assert!(d.iter().map(|(_, t)| t).eq(terms.iter().map(String::as_str)));
        if let Some((c, had)) = cloned {
            prop_assert_eq!(c.len(), had.len());
            for (i, t) in had.iter().enumerate() {
                prop_assert_eq!(c.get(t), Some(kb_store::TermId(i as u32)));
                prop_assert_eq!(c.resolve(kb_store::TermId(i as u32)), Some(t.as_str()));
            }
            for t in &terms[had.len()..] {
                prop_assert_eq!(c.get(t), None);
            }
        }
    }

    /// All three permutation indexes agree: any pattern query returns
    /// exactly the set a brute-force filter over all triples returns.
    #[test]
    fn index_consistency(
        triples in prop::collection::vec((0u32..12, 0u32..4, 0u32..12), 0..80),
        qs in 0u32..12, qp in 0u32..4, qo in 0u32..12,
        mask in 0u8..8,
    ) {
        let mut kb = KbBuilder::new();
        let mut all: Vec<Triple> = Vec::new();
        for (s, p, o) in &triples {
            // Intern enough terms to cover the id space deterministically.
            let t = Triple::new(
                kb.intern(&format!("e{s}")),
                kb.intern(&format!("r{p}")),
                kb.intern(&format!("e{o}")),
            );
            kb.add_triple(t.s, t.p, t.o);
            if !all.contains(&t) {
                all.push(t);
            }
        }
        let pattern = TriplePattern {
            s: (mask & 1 != 0).then(|| kb.intern(&format!("e{qs}"))),
            p: (mask & 2 != 0).then(|| kb.intern(&format!("r{qp}"))),
            o: (mask & 4 != 0).then(|| kb.intern(&format!("e{qo}"))),
        };
        let mut got = kb.matching_triples(&pattern);
        got.sort();
        let mut expect: Vec<Triple> = all.iter().copied().filter(|t| pattern.matches(t)).collect();
        expect.sort();
        prop_assert_eq!(&got, &expect);
        prop_assert_eq!(kb.count_matching(&pattern), expect.len());
    }

    /// Retraction removes exactly the retracted triple from every index.
    #[test]
    fn retraction_is_precise(
        triples in prop::collection::vec((0u32..8, 0u32..3, 0u32..8), 1..40),
        kill in any::<prop::sample::Index>(),
    ) {
        let mut kb = KbBuilder::new();
        for (s, p, o) in &triples {
            kb.assert_str(&format!("e{s}"), &format!("r{p}"), &format!("e{o}"));
        }
        let all = kb.matching_triples(&TriplePattern::any());
        let victim = all[kill.index(all.len())];
        let before = kb.len();
        kb.retract(victim);
        prop_assert_eq!(kb.len(), before - 1);
        prop_assert!(!kb.contains(&victim));
        for t in &all {
            if *t != victim {
                prop_assert!(kb.contains(t));
            }
        }
    }

    /// Union-find: same/canon agree, canon is idempotent and minimal.
    #[test]
    fn sameas_invariants(pairs in prop::collection::vec((0u32..30, 0u32..30), 0..60)) {
        let mut s = SameAsStore::new();
        for &(a, b) in &pairs {
            s.declare(TermId(a), TermId(b));
        }
        for i in 0..30u32 {
            let c = s.canon(TermId(i));
            // canon is a fixpoint and a member of the same class
            prop_assert_eq!(s.canon(c), c);
            prop_assert!(s.same(TermId(i), c));
            // canon is minimal within the class
            for j in 0..30u32 {
                if s.same(TermId(i), TermId(j)) {
                    prop_assert!(c <= TermId(j));
                    prop_assert_eq!(s.canon(TermId(j)), c);
                }
            }
        }
        // same is an equivalence relation (spot-check transitivity)
        for i in 0..10u32 {
            for j in 0..10u32 {
                for k in 0..10u32 {
                    if s.same(TermId(i), TermId(j)) && s.same(TermId(j), TermId(k)) {
                        prop_assert!(s.same(TermId(i), TermId(k)));
                    }
                }
            }
        }
    }

    /// Taxonomy stays acyclic no matter what edges we try to add, and
    /// subsumption is transitive.
    #[test]
    fn taxonomy_acyclic_and_transitive(
        edges in prop::collection::vec((0u32..12, 0u32..12), 0..60)
    ) {
        let mut t = kb_store::Taxonomy::new();
        for &(a, b) in &edges {
            // Errors (cycle rejections) are fine; panics are not.
            let _ = t.add_subclass(TermId(a), TermId(b));
        }
        // No class may be a strict subclass of itself via any path.
        for i in 0..12u32 {
            let anc = t.ancestors(TermId(i));
            prop_assert!(!anc.contains(&TermId(i)), "cycle through t{i}");
        }
        // Transitivity.
        for i in 0..12u32 {
            for &a in &t.ancestors(TermId(i)) {
                for &aa in &t.ancestors(a) {
                    prop_assert!(t.is_subclass_of(TermId(i), aa));
                }
            }
        }
    }

    /// Serialization round-trips arbitrary stores: facts, confidences,
    /// spans, labels survive.
    #[test]
    fn ntriples_round_trip(
        facts in prop::collection::vec(
            (term_strategy(), term_strategy(), term_strategy(), 0.01f64..=1.0, prop::option::of(1900i32..2030)),
            0..30
        ),
        labels in prop::collection::vec((term_strategy(), term_strategy()), 0..10),
    ) {
        let mut kb = KbBuilder::new();
        for (s, p, o, conf, year) in &facts {
            let t = Triple::new(kb.intern(s), kb.intern(p), kb.intern(o));
            kb.add_fact(Fact {
                triple: t,
                confidence: *conf,
                source: SourceId::DEFAULT,
                span: year.map(|y| TimeSpan::at(TimePoint::year(y))),
            });
        }
        let en = kb.labels.lang("en");
        for (term, form) in &labels {
            let t = kb.intern(term);
            kb.labels.add(t, en, form);
        }
        let text = kb_store::ntriples::to_string(&kb).unwrap();
        let kb2 = kb_store::ntriples::from_str(&text).unwrap();
        prop_assert_eq!(kb2.len(), kb.len());
        prop_assert_eq!(kb2.labels.label_count(), kb.labels.label_count());
        for f in kb.iter() {
            let s = kb.resolve(f.triple.s).unwrap();
            let p = kb.resolve(f.triple.p).unwrap();
            let o = kb.resolve(f.triple.o).unwrap();
            let t2 = Triple::new(
                kb2.term(s).unwrap(),
                kb2.term(p).unwrap(),
                kb2.term(o).unwrap(),
            );
            let f2 = kb2.fact_for(&t2).expect("fact survived");
            prop_assert!((f2.confidence - f.confidence).abs() < 1e-9);
            prop_assert_eq!(f2.span, f.span);
        }
    }

    /// TimeSpan overlap is symmetric; contains implies overlap with the
    /// instant span.
    #[test]
    fn timespan_axioms(
        b1 in 1900i32..2030, len1 in 0i32..40,
        b2 in 1900i32..2030, len2 in 0i32..40,
        probe in 1900i32..2070,
    ) {
        let s1 = TimeSpan::between(TimePoint::year(b1), TimePoint::year(b1 + len1)).unwrap();
        let s2 = TimeSpan::between(TimePoint::year(b2), TimePoint::year(b2 + len2)).unwrap();
        prop_assert_eq!(s1.overlaps(&s2), s2.overlaps(&s1));
        prop_assert!(s1.overlaps(&s1));
        let p = TimePoint::year(probe);
        if s1.contains(&p) {
            prop_assert!(s1.overlaps(&TimeSpan::at(p)));
        }
    }
}

proptest! {
    /// The N-Triples parser never panics on arbitrary input: every
    /// outcome is Ok or a structured parse error.
    #[test]
    fn ntriples_parser_is_total(input in "\\PC{0,300}") {
        let _ = kb_store::ntriples::from_str(&input);
    }

    /// Parser totality on inputs that look almost like records.
    #[test]
    fn ntriples_parser_survives_recordish_lines(
        kind in "[TCSL#X]",
        fields in prop::collection::vec("[a-z0-9.\\-\\\\]{0,10}", 0..8),
    ) {
        let line = format!("{kind}\t{}", fields.join("\t"));
        let _ = kb_store::ntriples::from_str(&line);
    }

    /// Differential test against the reference model
    /// (`kb_testkit::RefKb`, which filters one ordered set of string
    /// triples): after an arbitrary interleaving of adds (with
    /// confidence — zero included —, span and source) and retracts, the
    /// snapshot engine holds the facts the reference holds, confidence
    /// bits, span and source included, and answers every pattern shape,
    /// count, time-travel query, degree and neighborhood as it does.
    /// Two builders replay the ops: `kb` is scanned after every one, so
    /// its lazily frozen indexes are built, kept across evidence merges
    /// and dropped by structural writes all along, and ends as
    /// `clone().freeze()` (which reuses a warm cache); `builder` is
    /// never read before its `freeze()`. What the reference cannot say,
    /// the test states directly: results come in the order of the
    /// permutation index the pattern chooses.
    #[test]
    fn snapshot_engine_matches_reference_model(
        ops in prop::collection::vec(
            (
                // Few enough triples that ops collide: evidence merges,
                // retractions of live facts and resurrections all occur.
                0u32..5,
                0u32..3,
                0u32..5,
                (0.0f64..=1.0).prop_map(|c| if c < 0.08 { 0.0 } else { c }),
                prop::option::of(1950i32..2030),
                0u8..7,
            ),
            1..60
        ),
        qs in 0u32..10, qp in 0u32..4, qo in 0u32..10,
        probe_year in 1950i32..2030,
    ) {
        let mut reference = RefKb::default();
        let mut kb = KbBuilder::new();
        let mut builder = KbBuilder::new();
        for &(s, p, o, conf, year, kind) in &ops {
            let (ss, ps, os) = (format!("e{s}"), format!("r{p}"), format!("e{o}"));
            let tf = Triple::new(kb.intern(&ss), kb.intern(&ps), kb.intern(&os));
            let tb = Triple::new(builder.intern(&ss), builder.intern(&ps), builder.intern(&os));
            prop_assert_eq!(tf, tb);
            match kind {
                6 => {
                    let was_live = reference.retract(&ss, &ps, &os);
                    prop_assert_eq!(was_live, kb.retract(tf));
                    prop_assert_eq!(was_live, builder.retract(tb));
                }
                _ => {
                    let span = year.map(|y| TimeSpan::at(TimePoint::year(y)));
                    let source = format!("src{}", kind % 3);
                    let (sf, sb) = (kb.register_source(&source), builder.register_source(&source));
                    prop_assert_eq!(sf, sb);
                    let f = |t| Fact { triple: t, confidence: conf, source: sf, span };
                    reference.add(&ss, &ps, &os, RefFact { confidence: conf, span, source });
                    kb.add_fact(f(tf));
                    builder.add_fact(f(tb));
                }
            }
            // Interleave real scans, so the mutable builder's cached
            // indexes get exercised across every kind of write.
            prop_assert_eq!(reference.facts().count(), kb.len());
            prop_assert_eq!(reference.facts().count(), kb.count_matching(&TriplePattern::any()));
            let mut by_predicate: Vec<StrTriple> = kb
                .matching_triples(&TriplePattern::with_p(tf.p))
                .iter()
                .map(|t| [t.s, t.p, t.o].map(|id| kb.resolve(id).unwrap().to_string()).into())
                .collect();
            by_predicate.sort();
            let want: Vec<StrTriple> =
                reference.matching([None, Some(&*ps), None]).into_iter().cloned().collect();
            prop_assert_eq!(by_predicate, want, "scan of {} after {:?}", ps, (s, p, o, conf, kind));
        }
        // The probe terms, by name; interned so a pattern can name a
        // term no fact uses.
        let names = [format!("e{qs}"), format!("r{qp}"), format!("e{qo}"), "r0".into(), "r1".into()];
        let ids: Vec<TermId> = names.iter().map(|n| builder.intern(n)).collect();
        prop_assert_eq!(&ids, &names.iter().map(|n| kb.intern(n)).collect::<Vec<_>>());
        let warm = kb.clone().freeze();
        let snapshot = builder.freeze();
        let name = |id: TermId| snapshot.resolve(id).unwrap().to_string();
        let named = |t: &Triple| (name(t.s), name(t.p), name(t.o));
        prop_assert_eq!(reference.facts().count(), warm.len());
        prop_assert_eq!(reference.facts().count(), snapshot.len());

        // Full scans: the two snapshots agree fact for fact, in SPO
        // order, and the facts are the reference's, confidence bits,
        // spans and sources included.
        let dump = |facts: Vec<&Fact>| -> Vec<(Triple, u64, Option<TimeSpan>, SourceId)> {
            facts.into_iter().map(|f| (f.triple, f.confidence.to_bits(), f.span, f.source)).collect()
        };
        let all = dump(snapshot.iter().collect());
        prop_assert_eq!(&all, &dump(warm.iter().collect()));
        prop_assert!(all.windows(2).all(|w| w[0].0.spo_key() < w[1].0.spo_key()));
        assert_facts_conform(&snapshot, &reference);

        // Every binding shape: the reference's triples, in the order of
        // the permutation index the pattern chooses.
        let (s, p, o) = (ids[0], ids[1], ids[2]);
        let index_key = |pat: &TriplePattern, t: &Triple| match pat.choose_index() {
            IndexChoice::Spo => t.spo_key(),
            IndexChoice::Pos => t.pos_key(),
            IndexChoice::Osp => t.osp_key(),
        };
        let in_index_order = |pat: &TriplePattern, triples: &[Triple]| {
            triples.windows(2).all(|w| index_key(pat, &w[0]) < index_key(pat, &w[1]))
        };
        let sorted_names = |triples: &[Triple]| {
            let mut rows: Vec<StrTriple> = triples.iter().map(named).collect();
            rows.sort();
            rows
        };
        let point = TimePoint::year(probe_year);
        for mask in 0u8..8 {
            let pick = |bit: u8, id: TermId| (mask & bit != 0).then_some(id);
            let pat = TriplePattern { s: pick(1, s), p: pick(2, p), o: pick(4, o) };
            let rpat =
                [pat.s.map(|_| &*names[0]), pat.p.map(|_| &*names[1]), pat.o.map(|_| &*names[2])];

            let triples = snapshot.matching_triples(&pat);
            prop_assert_eq!(&triples, &warm.matching_triples(&pat));
            prop_assert!(in_index_order(&pat, &triples), "order under {:?}", pat);
            let want: Vec<StrTriple> = reference.matching(rpat).into_iter().cloned().collect();
            prop_assert_eq!(sorted_names(&triples), want.clone(), "pattern {:?}", pat);
            prop_assert_eq!(want.len(), warm.count_matching(&pat));
            prop_assert_eq!(want.len(), snapshot.count_matching(&pat));

            // Time travel returns facts of the full scan (so their
            // spans and confidences are checked above), the ones the
            // reference admits, in the same index order.
            let at = dump(snapshot.matching_at(&pat, &point));
            prop_assert_eq!(&at, &dump(warm.matching_at(&pat, &point)));
            prop_assert!(at.iter().all(|fact| all.contains(fact)));
            let at: Vec<Triple> = at.into_iter().map(|(t, ..)| t).collect();
            prop_assert!(in_index_order(&pat, &at), "time-travel order under {:?}", pat);
            let want: Vec<StrTriple> =
                reference.matching_at(rpat, &point).into_iter().cloned().collect();
            prop_assert_eq!(sorted_names(&at), want, "pattern {:?} at {}", pat, probe_year);
        }

        for (t, text) in [(s, &names[0]), (o, &names[2])] {
            prop_assert_eq!(reference.degree(text), snapshot.degree(t));
            let neighbors = snapshot.neighbors(t);
            prop_assert!(neighbors.windows(2).all(|w| w[0] < w[1]), "sorted, deduplicated");
            let got: BTreeSet<String> = neighbors.into_iter().map(name).collect();
            prop_assert_eq!(got, reference.neighbors(text));
        }
    }

    /// One stream of writes, read or not: ingesting the rows the way the
    /// harvest does (intern subject, predicate, object, then add) in
    /// consecutive chunks with a scan after each — so the builder's
    /// cached indexes freeze and drop between writes — gives the
    /// dictionary, dump and confidence bits of one uninterrupted
    /// ingest, and the facts are the reference's.
    #[test]
    fn shard_merge_is_bit_identical_to_serial(
        rows in prop::collection::vec(
            (0u32..8, 0u32..3, 0u32..8, 0.1f64..=1.0),
            1..40
        ),
        workers in 1usize..5,
    ) {
        let add = |kb: &mut KbBuilder, &(s, p, o, conf): &(u32, u32, u32, f64)| {
            let source = kb.register_source("harvest");
            let t = Triple::new(
                kb.intern(&format!("e{s}")),
                kb.intern(&format!("r{p}")),
                kb.intern(&format!("e{o}")),
            );
            kb.add_fact(Fact { triple: t, confidence: conf, source, span: None });
        };
        let mut reference = RefKb::default();
        let mut serial = KbBuilder::new();
        for row in &rows {
            add(&mut serial, row);
            let &(s, p, o, confidence) = row;
            let fact = RefFact { confidence, span: None, source: "harvest".into() };
            reference.add(&format!("e{s}"), &format!("r{p}"), &format!("e{o}"), fact);
        }
        let mut chunked = KbBuilder::new();
        for chunk in rows.chunks(rows.len().div_ceil(workers)) {
            chunk.iter().for_each(|row| add(&mut chunked, row));
            prop_assert_eq!(chunked.count_matching(&TriplePattern::any()), chunked.len());
        }
        // Same dictionary ids in the same order…
        prop_assert!(serial.dictionary().iter().eq(chunked.dictionary().iter()));
        // …and the same facts with bit-identical merged confidences.
        let dump = |kb: &KbBuilder| -> Vec<(Triple, u64)> {
            kb.iter().map(|f| (f.triple, f.confidence.to_bits())).collect()
        };
        prop_assert_eq!(dump(&serial), dump(&chunked));
        let a = kb_store::ntriples::to_string(&serial).unwrap();
        let b = kb_store::ntriples::to_string(&chunked).unwrap();
        prop_assert_eq!(a, b);
        assert_facts_conform(&serial, &reference);
    }

    /// merge_from + canonicalize preserve the fact *content* modulo
    /// sameAs classes: every original statement is still derivable.
    #[test]
    fn fusion_preserves_content(
        triples in prop::collection::vec((0u32..6, 0u32..2, 0u32..6), 1..20),
        aliases in prop::collection::vec((0u32..6, 0u32..6), 0..4),
    ) {
        let mut a = KbBuilder::new();
        for &(s, p, o) in &triples {
            a.assert_str(&format!("e{s}"), &format!("r{p}"), &format!("e{o}"));
        }
        let mut b = KbBuilder::new();
        let merged_new = b.merge_from(&a);
        prop_assert_eq!(merged_new, a.len());
        prop_assert_eq!(b.len(), a.len());
        for &(x, y) in &aliases {
            let tx = b.intern(&format!("e{x}"));
            let ty = b.intern(&format!("e{y}"));
            b.sameas.declare(tx, ty);
        }
        b.canonicalize();
        // Every original triple still holds under canonicalization.
        for &(s, p, o) in &triples {
            let ts = b.sameas.canon(b.term(&format!("e{s}")).unwrap());
            let tp = b.term(&format!("r{p}")).unwrap();
            let to = b.sameas.canon(b.term(&format!("e{o}")).unwrap());
            prop_assert!(
                b.contains(&Triple::new(ts, tp, to)),
                "lost fact e{s} r{p} e{o} after canonicalization"
            );
        }
    }
}

/// What a view's ids stand for: every term and source name filed by
/// its id, and every term by its text.
#[derive(Clone, Default)]
struct IdModel {
    terms: Vec<String>,
    ids: BTreeMap<String, TermId>,
    sources: Vec<String>,
}

impl IdModel {
    /// Files the builder's terms and sources that the model lacks, in
    /// the builder's id order: the ids a delta frozen from it allocates.
    fn extend(&mut self, b: &KbBuilder) {
        for (_, term) in b.dictionary().iter() {
            if !self.ids.contains_key(term) {
                self.ids.insert(term.to_string(), TermId(self.terms.len() as u32));
                self.terms.push(term.to_string());
            }
        }
        for (_, name) in b.sources() {
            if !self.sources.iter().any(|s| s == name) {
                self.sources.push(name.to_string());
            }
        }
    }
}

/// Checks a view's id space against its model: `term` of every pool
/// text (base, delta and absent ones), `resolve` and `source_name` of
/// every id up to two past the end, and the two counts.
fn check_ids(view: &SegmentedSnapshot, model: &IdModel) -> Result<(), TestCaseError> {
    prop_assert_eq!(view.term_count(), model.terms.len());
    for n in 0..160 {
        let text = pool_term(n);
        prop_assert_eq!(view.term(&text), model.ids.get(&text).copied(), "term {:?}", text);
    }
    for id in 0..model.terms.len() as u32 + 2 {
        let want = model.terms.get(id as usize).map(String::as_str);
        prop_assert_eq!(view.resolve(TermId(id)), want, "term id {}", id);
    }
    // The first id past the sources resolves to nothing, so this pins
    // the source count too.
    for id in 0..model.sources.len() as u32 + 2 {
        let want = model.sources.get(id as usize).map(String::as_str);
        prop_assert_eq!(view.source_name(SourceId(id)), want, "source id {}", id);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A delta stack's id space behaves like a map model at any depth
    /// up to 64: each delta files the pool terms and sources its view
    /// lacks after the view's ids, and `term`, `resolve`, `source_name`
    /// and `term_count` answer from the base and then the stack's one
    /// term table. Some deltas add no term, some add sources, and some
    /// stack on the newest view's parent, so that two deltas share one
    /// parent; the parent keeps answering as it did.
    #[test]
    fn the_stack_term_table_matches_a_map_model(
        deltas in prop::collection::vec(
            (0u8..6, prop::collection::vec(0u32..160, 0..6), prop::collection::vec(0u32..6, 0..3)),
            1..=64,
        ),
    ) {
        let mut b = KbBuilder::new();
        b.assert_str(&pool_term(0), &pool_term(9), &pool_term(10));
        b.register_source("src0");
        let mut model = IdModel::default();
        model.extend(&b);
        // Every view with its model and the index of its parent.
        let mut views = vec![(SegmentedSnapshot::from_base(Arc::new(b.freeze())), model, 0)];
        for (branch, terms, sources) in &deltas {
            let newest = views.len() - 1;
            let parent = if *branch == 0 { views[newest].2 } else { newest };
            let (view, model, _) = &views[parent];
            let mut b = KbBuilder::new();
            let ids: Vec<TermId> = terms.iter().map(|&n| b.intern(&pool_term(n))).collect();
            let source = sources.iter().fold(SourceId::DEFAULT, |_, k| {
                b.register_source(&format!("src{k}"))
            });
            if let [s, p, o, ..] = ids[..] {
                let triple = Triple::new(s, p, o);
                b.add_fact(Fact { triple, confidence: 0.5, source, span: None });
            }
            let mut model = model.clone();
            model.extend(&b);
            let stacked = view.with_delta(Arc::new(b.freeze_delta(view)));
            check_ids(&stacked, &model)?;
            views.push((stacked, model, parent));
        }
        for (view, model, _) in &views {
            check_ids(view, model)?;
        }
    }
}
