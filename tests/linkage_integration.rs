//! Integration: the full linkage path — dumps → blocking → matching →
//! constrained clustering → sameAs classes in a KB.

use kbkit::kb_corpus::gold::{linkage_dump, pr_f1};
use kbkit::kb_corpus::{CorpusConfig, World};
use kbkit::kb_link::blocking::{blocking_quality, candidate_pairs, Blocking};
use kbkit::kb_link::cluster::cluster_with_constraints;
use kbkit::kb_link::logreg::{LogRegMatcher, TrainConfig};
use kbkit::kb_link::record::from_corpus;
use kbkit::kb_link::rules::{rule_match, RuleConfig};
use kbkit::kb_link::Record;
use kbkit::kb_store::KbBuilder;
use std::collections::{HashMap, HashSet};

fn fixture() -> (Vec<Record>, HashSet<(u32, u32)>) {
    let world = World::generate(&CorpusConfig::tiny().world);
    let dump = linkage_dump(&world, 7);
    (dump.records.iter().map(from_corpus).collect(), dump.gold_pairs)
}

#[test]
fn full_path_reaches_high_f1() {
    let (records, gold) = fixture();
    let pairs = candidate_pairs(&records, Blocking::Token);
    assert!(blocking_quality(&pairs, &gold).pair_recall > 0.9);

    let by_id: HashMap<u32, &Record> = records.iter().map(|r| (r.id, r)).collect();
    let rule_cfg = RuleConfig::default();
    let matched: HashSet<(u32, u32)> = pairs
        .iter()
        .copied()
        .filter(|&(a, b)| rule_match(by_id[&a], by_id[&b], &rule_cfg))
        .collect();
    let m = pr_f1(&matched, &gold);
    assert!(m.f1 > 0.7, "rule F1 {}", m.f1);
}

#[test]
fn learned_matcher_generalizes_across_dumps() {
    // Train on one dump, evaluate on a freshly perturbed one.
    let world = World::generate(&CorpusConfig::tiny().world);
    let train_dump = linkage_dump(&world, 7);
    let test_dump = linkage_dump(&world, 8);
    let train_records: Vec<Record> = train_dump.records.iter().map(from_corpus).collect();
    let test_records: Vec<Record> = test_dump.records.iter().map(from_corpus).collect();

    let train_pairs = candidate_pairs(&train_records, Blocking::Token);
    let by_id: HashMap<u32, &Record> = train_records.iter().map(|r| (r.id, r)).collect();
    let labeled: Vec<(&Record, &Record, bool)> = train_pairs
        .iter()
        .map(|&(a, b)| (by_id[&a], by_id[&b], train_dump.gold_pairs.contains(&(a, b))))
        .collect();
    let model = LogRegMatcher::train(&labeled, &TrainConfig::default());

    let test_pairs = candidate_pairs(&test_records, Blocking::Token);
    let by_id_test: HashMap<u32, &Record> = test_records.iter().map(|r| (r.id, r)).collect();
    let predicted: HashSet<(u32, u32)> = test_pairs
        .iter()
        .copied()
        .filter(|&(a, b)| model.matches(by_id_test[&a], by_id_test[&b]))
        .collect();
    let m = pr_f1(&predicted, &test_dump.gold_pairs);
    assert!(m.f1 > 0.7, "cross-dump F1 {}", m.f1);
}

#[test]
fn constraints_only_remove_wrong_merges() {
    let (records, gold) = fixture();
    let pairs = candidate_pairs(&records, Blocking::Token);
    let by_id: HashMap<u32, &Record> = records.iter().map(|r| (r.id, r)).collect();
    let rule_cfg = RuleConfig::default();
    let matched: Vec<(u32, u32)> =
        pairs.into_iter().filter(|&(a, b)| rule_match(by_id[&a], by_id[&b], &rule_cfg)).collect();
    let eval = |constrained: bool| {
        let clusters = cluster_with_constraints(&records, &matched, constrained);
        let implied: HashSet<(u32, u32)> = clusters
            .implied_pairs()
            .into_iter()
            .filter(|&(a, b)| by_id[&a].source != by_id[&b].source)
            .map(|(a, b)| if by_id[&a].source == 0 { (a, b) } else { (b, a) })
            .collect();
        pr_f1(&implied, &gold)
    };
    let lax = eval(false);
    let strict = eval(true);
    assert!(strict.precision >= lax.precision, "constraints lowered precision");
}

#[test]
fn clusters_materialize_as_sameas_in_the_store() {
    let (records, _) = fixture();
    let pairs = candidate_pairs(&records, Blocking::Token);
    let by_id: HashMap<u32, &Record> = records.iter().map(|r| (r.id, r)).collect();
    let rule_cfg = RuleConfig::default();
    let matched: Vec<(u32, u32)> =
        pairs.into_iter().filter(|&(a, b)| rule_match(by_id[&a], by_id[&b], &rule_cfg)).collect();
    let clusters = cluster_with_constraints(&records, &matched, true);

    let mut kb = KbBuilder::new();
    let terms: HashMap<u32, _> =
        records.iter().map(|r| (r.id, kb.intern(&format!("src{}:{}", r.source, r.id)))).collect();
    for &(a, b) in &matched {
        if clusters.same(a, b) {
            kb.sameas.declare(terms[&a], terms[&b]);
        }
    }
    // Store-side equivalence mirrors cluster-side equivalence for all
    // matched pairs.
    for &(a, b) in &matched {
        assert_eq!(kb.sameas.same(terms[&a], terms[&b]), clusters.same(a, b));
    }
}
