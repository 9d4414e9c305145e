//! Entity linkage demo: deduplicate two record dumps of the same world,
//! then materialize the resulting `owl:sameAs` classes in a KB.
//!
//! ```text
//! cargo run --release --example kb_linkage
//! ```

use kbkit::kb_corpus::gold::linkage_dump;
use kbkit::kb_corpus::{CorpusConfig, World};
use kbkit::kb_link::blocking::{blocking_quality, candidate_pairs, Blocking};
use kbkit::kb_link::cluster::cluster_with_constraints;
use kbkit::kb_link::logreg::{LogRegMatcher, TrainConfig};
use kbkit::kb_link::record::from_corpus;
use kbkit::kb_store::{KbBuilder, KbRead};

fn main() {
    let world = World::generate(&CorpusConfig::tiny().world);
    let dump = linkage_dump(&world, 99);
    let records: Vec<_> = dump.records.iter().map(from_corpus).collect();
    println!(
        "two dumps: {} records total, {} gold duplicate pairs",
        records.len(),
        dump.gold_pairs.len()
    );

    // 1. Blocking.
    let pairs = candidate_pairs(&records, Blocking::Token);
    let q = blocking_quality(&pairs, &dump.gold_pairs);
    println!(
        "token blocking: {} candidate pairs (full cross product would be {}), pair recall {:.3}",
        q.pairs,
        records.iter().filter(|r| r.source == 0).count()
            * records.iter().filter(|r| r.source == 1).count(),
        q.pair_recall
    );

    // 2. Train a matcher on half the candidates, apply to the rest.
    let by_id: std::collections::HashMap<u32, _> = records.iter().map(|r| (r.id, r)).collect();
    let labeled: Vec<_> = pairs
        .iter()
        .step_by(2)
        .map(|&(a, b)| (by_id[&a], by_id[&b], dump.gold_pairs.contains(&(a, b))))
        .collect();
    let model = LogRegMatcher::train(&labeled, &TrainConfig::default());
    let matched: Vec<(u32, u32)> =
        pairs.iter().copied().filter(|&(a, b)| model.matches(by_id[&a], by_id[&b])).collect();
    println!("learned matcher accepted {} pairs", matched.len());

    // 3. Constrained transitive closure.
    let clusters = cluster_with_constraints(&records, &matched, true);
    println!("clustering refused {} constraint-violating merges", clusters.refused_merges);

    // 4. Materialize sameAs in a KB.
    let mut kb = KbBuilder::new();
    let terms: Vec<_> =
        records.iter().map(|r| kb.intern(&format!("src{}:{}", r.source, r.name))).collect();
    for (i, a) in records.iter().enumerate() {
        for (j, b) in records.iter().enumerate().skip(i + 1) {
            if clusters.same(a.id, b.id) {
                kb.sameas.declare(terms[i], terms[j]);
            }
        }
    }
    println!("\nfirst sameAs classes:");
    for class in kb.sameas.classes().iter().take(5) {
        let names: Vec<&str> = class.iter().filter_map(|&t| kb.resolve(t)).collect();
        println!("  {}", names.join("  ≡  "));
    }
}
