//! The experiment harness: regenerates the paper's tables and figures
//! (T1–T12, F1–F7 of DESIGN.md).
//!
//! Usage:
//!
//! ```text
//! harness            # run everything on the standard corpus
//! harness t3 f1      # run selected experiments (an unknown id is an error)
//! harness --small    # use the tiny corpus (fast smoke run)
//! ```
//!
//! A reader that closes the pipe early (`harness | head -1`) ends the
//! run quietly: tables are written with `kb_obs::outln!`.

use std::env;
use std::process::ExitCode;
use std::time::Instant;

use kb_bench::{
    exp_analytics, exp_facts, exp_kb, exp_link, exp_misc, exp_ned, exp_openie, exp_rules,
    exp_scale, exp_taxonomy, setup, HARNESS_SEED,
};
use kb_corpus::Corpus;

type Experiment = (&'static str, fn(&Corpus) -> String);

/// Every experiment, in print order.
const EXPERIMENTS: [Experiment; 19] = [
    ("t1", exp_kb::t1),
    ("t2", exp_taxonomy::t2),
    ("t3", exp_facts::t3),
    ("f1", exp_facts::f1),
    ("t4", exp_openie::t4),
    ("f2", exp_scale::f2),
    ("t5", exp_ned::t5),
    ("f3", exp_ned::f3),
    ("f7", exp_ned::f7),
    ("t6", exp_link::t6),
    ("f5", exp_link::f5),
    ("t7", exp_facts::t7),
    ("t8", exp_misc::t8),
    ("t9", exp_misc::t9),
    ("f4", |_| exp_kb::f4()),
    ("t11", exp_rules::t11),
    ("t12", exp_facts::t12),
    ("f6", exp_facts::f6),
    ("t10", exp_analytics::t10),
];

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let small = args.iter().any(|a| a == "--small");
    let selected: Vec<&str> =
        args.iter().filter(|a| !a.starts_with("--")).map(String::as_str).collect();
    // A mistyped or retired id must not pass as a run that checked
    // something.
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    let unknown: Vec<&str> = selected.iter().copied().filter(|id| !ids.contains(id)).collect();
    if !unknown.is_empty() {
        eprintln!(
            "harness: unknown experiment {}; known ids: {}",
            unknown.join(" "),
            ids.join(" ")
        );
        return ExitCode::FAILURE;
    }
    let corpus = if small {
        setup::small_corpus(HARNESS_SEED)
    } else {
        setup::standard_corpus(HARNESS_SEED)
    };
    kb_obs::outln!(
        "kbkit experiment harness — corpus: {} entities, {} gold facts, {} docs, {} posts (seed {})\n",
        corpus.world.entities.len(),
        corpus.world.facts.len(),
        corpus.all_docs().len(),
        corpus.posts.len(),
        HARNESS_SEED
    );
    for (id, run) in EXPERIMENTS {
        if !selected.is_empty() && !selected.contains(&id) {
            continue;
        }
        // Each experiment gets a clean global registry, so the blob
        // below holds exactly the metrics that experiment produced.
        kb_obs::global().reset();
        let t0 = Instant::now();
        let output = run(&corpus);
        kb_obs::outln!("{output}");
        kb_obs::outln!("[{id} metrics] {}", kb_obs::global().render_json());
        kb_obs::outln!("[{id} took {:.1}s]\n", t0.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}
