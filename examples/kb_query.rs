//! SPARQL-style queries over a harvested knowledge base — the
//! "semantic search over entities and relations" the tutorial
//! motivates, served by the `kb-query` engine (parser → cost-based
//! planner → concurrent service).
//!
//! ```text
//! cargo run --release --example kb_query
//! ```

use kbkit::kb_corpus::{Corpus, CorpusConfig};
use kbkit::kb_harvest::pipeline::{harvest, HarvestConfig};
use kbkit::kb_query::QueryService;
use kbkit::kb_store::KbRead;

fn main() {
    let corpus = Corpus::generate(&CorpusConfig::tiny());
    let out = harvest(&corpus, &HarvestConfig::default()).expect("harvest");
    println!("harvested KB: {} facts\n", out.kb.len());

    let snap = out.kb.freeze().into_shared();
    let service = QueryService::new(snap.clone());

    // Generic joins with no constants always parse and run, whatever
    // the tiny corpus happened to harvest — no fragile dictionary
    // lookups needed up front.
    let mut queries = vec![
        "SELECT ?p ?city ?country WHERE { ?p bornIn ?city . ?city locatedIn ?country } LIMIT 20"
            .to_string(),
        "SELECT ?founder ?co ?city WHERE { ?founder founded ?co . ?co headquarteredIn ?city }"
            .to_string(),
        "SELECT DISTINCT ?a ?b WHERE { ?a marriedTo ?b . ?a studiedAt ?u . ?b studiedAt ?u }"
            .to_string(),
        "SELECT ?country COUNT(?p) AS ?n WHERE { ?p bornIn ?city . ?city locatedIn ?country } \
         GROUP BY ?country ORDER BY DESC(?n) ?country"
            .to_string(),
    ];

    // Derive a constant-bound query from actual results: take the first
    // country the generic join produced, so this query is populated by
    // construction.
    if let Ok(seed) = service.query("SELECT ?country WHERE { ?c locatedIn ?country } LIMIT 1") {
        if let Some(row) = seed.rows.iter().next() {
            let country = kbkit::kb_query::cell_str(&row[0], snap.as_ref()).into_owned();
            queries.push(format!(
                "SELECT ?p ?city WHERE {{ ?p bornIn ?city . ?city locatedIn {country} \
                 OPTIONAL {{ ?p worksAt ?e }} }} ORDER BY ?p LIMIT 10"
            ));
        }
    }

    for q in &queries {
        println!("query: {q}");
        match service.plan_for(q) {
            Ok(plan) => {
                println!("  plan (estimated cost {:.1}):", plan.estimated_cost());
                for label in plan.describe(snap.as_ref()) {
                    println!("    {label}");
                }
            }
            Err(e) => {
                println!("  plan error: {e}\n");
                continue;
            }
        }
        match service.query(q) {
            Ok(out) => {
                println!("  {} solutions", out.rows.len());
                for row in out.rows.iter().take(4) {
                    println!("    {}", out.render_row(row, snap.as_ref()));
                }
            }
            Err(e) => println!("  error: {e}"),
        }
        println!();
    }

    // The second run of each query is a pure cache hit.
    for q in &queries {
        let _ = service.query(q);
    }
    let stats = service.cache_stats();
    println!(
        "cache: {} result hits, {} misses; {} plan hits, {} misses",
        stats.result_hits, stats.result_misses, stats.plan_hits, stats.plan_misses
    );
}
