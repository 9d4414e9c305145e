//! End-to-end integration: corpus → harvest → knowledge base, checking
//! cross-crate invariants the unit tests cannot see.

use kbkit::kb_corpus::{gold, Corpus, CorpusConfig};
use kbkit::kb_harvest::pipeline::{evaluate_discovered, harvest, HarvestConfig, Method};
use kbkit::kb_store::{ntriples, KbRead, TriplePattern};

fn corpus() -> Corpus {
    Corpus::generate(&CorpusConfig::tiny())
}

#[test]
fn harvested_kb_is_internally_consistent() {
    let corpus = corpus();
    let out = harvest(&corpus, &HarvestConfig::default()).expect("harvest");
    let kb = &out.kb;

    // Every accepted candidate materialized as a live fact whose terms
    // resolve back to the candidate strings.
    for c in &out.accepted {
        let s = kb.term(&c.subject).expect("subject interned");
        let p = kb.term(&c.relation).expect("relation interned");
        let o = kb.term(&c.object).expect("object interned");
        let t = kbkit::kb_store::Triple::new(s, p, o);
        let fact = kb.fact_for(&t).expect("accepted fact is live");
        assert!(fact.confidence > 0.0 && fact.confidence <= 1.0);
    }

    // Every taxonomy class mentioned by an instanceOf fact is a
    // registered class.
    let instance_of = kb.term("instanceOf").expect("instanceOf predicate");
    for fact in kb.matching(&TriplePattern::with_p(instance_of)) {
        assert!(
            kb.taxonomy.contains(fact.triple.o),
            "class {:?} not registered",
            kb.resolve(fact.triple.o)
        );
    }

    // Confidence is a probability everywhere.
    for fact in kb.iter() {
        assert!((0.0..=1.0).contains(&fact.confidence));
    }
}

/// Fails at the parent commit: `reason_candidates` emitted its hard
/// clauses in `HashMap` iteration order, so the seeded solver walked a
/// different problem on every call and equal-confidence functional
/// conflicts (which the tiny corpus above does not contain) resolved
/// differently — same fact count, different facts. There, one pair of
/// standard-corpus runs agrees about every second time, hence the
/// doubled world (more such conflicts) and more than two runs.
#[test]
fn same_seed_standard_harvests_are_byte_identical() {
    let mut cfg = CorpusConfig::standard(42);
    let w = &mut cfg.world;
    for n in [&mut w.people, &mut w.companies, &mut w.cities, &mut w.universities, &mut w.products]
    {
        *n *= 2;
    }
    let corpus = Corpus::generate(&cfg);
    let run = || {
        let out = harvest(&corpus, &HarvestConfig::default()).expect("harvest");
        (out.accepted, ntriples::to_string(&out.kb).expect("serialize"))
    };
    let first = run();
    for rerun in 1..=4 {
        let again = run();
        let fact = first.0.iter().zip(&again.0).find(|(a, b)| a != b);
        assert!(fact.is_none(), "rerun {rerun} accepted other facts, first: {fact:?}");
        assert!(first == again, "rerun {rerun} wrote another N-Triples dump");
    }
}

#[test]
fn harvested_kb_survives_serialization() {
    let corpus = corpus();
    let out = harvest(&corpus, &HarvestConfig::default()).expect("harvest");
    let text = ntriples::to_string(&out.kb).expect("serialize");
    let reloaded = ntriples::from_str(&text).expect("reload");
    assert_eq!(reloaded.len(), out.kb.len());
    assert_eq!(reloaded.labels.label_count(), out.kb.labels.label_count());
    assert_eq!(reloaded.taxonomy.edge_count(), out.kb.taxonomy.edge_count());
    // Double round-trip is byte-stable.
    let text2 = ntriples::to_string(&reloaded).expect("serialize again");
    assert_eq!(text, text2);
}

/// The worker count reaches collection only, whatever the method: the
/// KB is the same, byte for byte, at one worker and at four.
#[test]
fn sharded_harvest_matches_serial_harvest_byte_for_byte() {
    let corpus = corpus();
    for method in [Method::Statistical, Method::FactorGraph] {
        let dump = |workers: usize| {
            let out = harvest(&corpus, &HarvestConfig { method, workers, ..Default::default() })
                .expect("harvest");
            ntriples::to_string(&out.kb).expect("serialize")
        };
        assert_eq!(dump(1), dump(4), "{method:?}: worker count must not change the KB");
    }
}

#[test]
fn snapshot_of_harvested_kb_serves_parallel_readers() {
    let corpus = corpus();
    let out = harvest(&corpus, &HarvestConfig::default()).expect("harvest");
    let live_dump = ntriples::to_string(&out.kb).expect("serialize live");
    let snap = out.kb.snapshot().into_shared();
    // The frozen snapshot serializes identically to the live store...
    assert_eq!(live_dump, ntriples::to_string(snap.as_ref()).expect("serialize snapshot"));
    // ...and concurrent readers over the same Arc agree on every
    // pattern shape without any locking.
    let instance_of = snap.term("instanceOf").expect("instanceOf predicate");
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let snap = std::sync::Arc::clone(&snap);
            scope.spawn(move || {
                let by_p = snap.count_matching(&TriplePattern::with_p(instance_of));
                assert!(by_p > 0, "instanceOf facts visible from snapshot");
                assert_eq!(snap.matching(&TriplePattern::any()).len(), snap.len());
            });
        }
    });
}

#[test]
fn every_method_clears_a_quality_floor() {
    let corpus = corpus();
    let gold_facts = gold::gold_fact_strings(&corpus.world);
    for method in
        [Method::PatternsOnly, Method::Statistical, Method::Reasoning, Method::FactorGraph]
    {
        let out =
            harvest(&corpus, &HarvestConfig { method, ..Default::default() }).expect("harvest");
        let m = evaluate_discovered(&out.accepted, &gold_facts, &out.seeds);
        assert!(m.precision > 0.5, "{method:?} precision {}", m.precision);
        assert!(!out.accepted.is_empty(), "{method:?} accepted nothing");
    }
}

#[test]
fn noise_free_corpus_yields_higher_precision_than_noisy() {
    let clean = Corpus::generate(&CorpusConfig::clean());
    let mut noisy_cfg = CorpusConfig::clean();
    noisy_cfg.noise_rate = 0.35;
    let noisy = Corpus::generate(&noisy_cfg);
    let gold_clean = gold::gold_fact_strings(&clean.world);
    let gold_noisy = gold::gold_fact_strings(&noisy.world);
    let cfg = HarvestConfig { method: Method::PatternsOnly, ..Default::default() };
    let out_clean = harvest(&clean, &cfg).expect("harvest");
    let out_noisy = harvest(&noisy, &cfg).expect("harvest");
    let m_clean = evaluate_discovered(&out_clean.accepted, &gold_clean, &out_clean.seeds);
    let m_noisy = evaluate_discovered(&out_noisy.accepted, &gold_noisy, &out_noisy.seeds);
    assert!(
        m_clean.precision >= m_noisy.precision,
        "clean {} < noisy {}",
        m_clean.precision,
        m_noisy.precision
    );
}

#[test]
fn seed_fraction_trades_recall() {
    let corpus = corpus();
    let gold_facts = gold::gold_fact_strings(&corpus.world);
    let run = |fraction: f64| {
        let out =
            harvest(&corpus, &HarvestConfig { seed_fraction: fraction, ..Default::default() })
                .expect("harvest");
        evaluate_discovered(&out.accepted, &gold_facts, &out.seeds)
    };
    let low = run(0.1);
    let high = run(0.5);
    // More seeds → more patterns learned → at least as much recall
    // (allowing small fluctuations from the shrunken gold remainder).
    assert!(
        high.recall >= low.recall - 0.05,
        "high-seed recall {} vs low-seed {}",
        high.recall,
        low.recall
    );
}
