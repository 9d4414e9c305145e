//! The `kbkit` command-line tool: harvest a knowledge base from a
//! synthetic corpus, inspect it, query it, mine rules from it, and
//! disambiguate text against it.
//!
//! ```text
//! kbkit harvest --scale tiny --seed 42 --out kb.tsv
//! kbkit stats kb.tsv
//! kbkit query kb.tsv '?p bornIn ?c . ?c locatedIn ?n'
//! kbkit rules kb.tsv
//! kbkit ned kb.tsv 'Some text mentioning Known Entities.'
//! ```

use std::fs;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use kbkit::kb_corpus::{Corpus, CorpusConfig};
use kbkit::kb_harvest::pipeline::{harvest, HarvestConfig, IncrementalHarvester, Method};
use kbkit::kb_harvest::rules::{mine_rules, RuleConfig};
use kbkit::kb_ned::{detect_mentions, Ned, Strategy};
use kbkit::kb_obs;
use kbkit::kb_query::{
    execute_traced, maintainability, parse, routing_decision, ExecTrace, Plan, QueryService,
};
use kbkit::kb_serve::{AdmissionConfig, KbRouter};
use kbkit::kb_store::{
    ntriples, Compactor, IndexStats, KbBuilder, KbRead, SegmentStore, StoreOptions, TriplePattern,
};

const USAGE: &str = "\
kbkit — knowledge-base construction and analytics toolkit

USAGE:
  kbkit harvest [--scale tiny|standard] [--seed N] [--method M] [--out FILE]
               [--incremental] [--data-dir DIR] [--no-fsync]
      Build a KB from a generated corpus and write it as TSV.
      Methods: patterns | statistical | reasoning (default) | factorgraph
      --incremental bootstraps from ~70% of the corpus, then installs
      the rest as delta segments, printing per-delta install latency.
      --data-dir DIR (with --incremental) makes every install durable:
      the base segment and a delta WAL live in DIR, each install is
      fsynced, and the per-delta line also reports the durability cost
      (WAL write + fsync time). A kill -9 at any point loses at most
      the delta being written. --no-fsync skips the fsync barrier
      (faster, but a crash may lose recent installs).
  kbkit stats <kb.tsv>
      Print knowledge-base statistics.
  kbkit query <kb.tsv> <query> [--explain]
  kbkit query --data-dir DIR <query> [--explain] [--memory-budget BYTES]
      Run a SPARQL-style query, e.g. '?p bornIn ?c . ?c locatedIn ?n'
      or 'SELECT ?c COUNT(?p) AS ?n WHERE { ?p bornIn ?c } GROUP BY ?c'.
      --explain also prints the chosen physical plan. With --data-dir,
      cold-starts from a durable segment store (validating checksums
      and replaying the WAL) instead of parsing a TSV dump.
      --memory-budget caps resident index bytes: frame columns page in
      on first touch and spill (clock eviction) when over budget, so a
      KB larger than RAM still serves. Accepts k/m/g suffixes (64m).
  kbkit rules <kb.tsv> [--min-support N]
      Mine AMIE-style Horn rules from the KB.
  kbkit ned <kb.tsv> <text>
      Detect and disambiguate entity mentions in the text.
  kbkit watch [--seed N] [--query Q] [--batch N]
      Continuous-query demo: bootstrap a KB from ~70% of a generated
      corpus, register Q as a materialized standing view (default: a
      COUNT ... GROUP BY over bornIn), then stream the held-out
      articles in as delta installs. Each install prints the view's
      incremental update — rows added/removed, whether the answer was
      delta-patched or re-executed, and the maintenance latency —
      followed by the final answer. --batch sets docs per delta.
  kbkit metrics [--json] [--seed N]
      Harvest the quickstart (tiny) corpus, freeze a snapshot and serve
      a few queries, then print the collected metrics as an aligned
      text table plus a JSON blob (--json: JSON only, for piping).

Any subcommand also accepts --metrics to dump the metrics table to
stderr after it finishes.
";

/// Flags that take no value (everything else is `--flag VALUE`).
const BOOL_FLAGS: &[&str] = &["--explain", "--metrics", "--json", "--incremental", "--no-fsync"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("harvest") => cmd_harvest(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("rules") => cmd_rules(&args[1..]),
        Some("ned") => cmd_ned(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("--help") | Some("-h") | None => {
            kb_obs::outln!("{}", USAGE.trim_end());
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    };
    if result.is_ok()
        && args.first().map(String::as_str) != Some("metrics")
        && args.iter().any(|a| a == "--metrics")
    {
        eprint!("{}", kb_obs::global().render_text());
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Reads `--flag value` style options from an argument list.
fn opt<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// Parses `--memory-budget BYTES` (with optional k/m/g suffix) into
/// store options for a budgeted cold start.
fn budgeted_options(args: &[String]) -> Result<StoreOptions, String> {
    let memory_budget = match opt(args, "--memory-budget") {
        None => None,
        Some(raw) => {
            let (digits, mult) = match raw.as_bytes().last() {
                Some(b'k') | Some(b'K') => (&raw[..raw.len() - 1], 1usize << 10),
                Some(b'm') | Some(b'M') => (&raw[..raw.len() - 1], 1usize << 20),
                Some(b'g') | Some(b'G') => (&raw[..raw.len() - 1], 1usize << 30),
                _ => (raw, 1usize),
            };
            let n: usize = digits.parse().map_err(|_| format!("bad --memory-budget {raw:?}"))?;
            Some(n.checked_mul(mult).ok_or(format!("bad --memory-budget {raw:?}"))?)
        }
    };
    Ok(StoreOptions { memory_budget, ..StoreOptions::default() })
}

/// First argument that is not a flag or a flag value.
fn positional(args: &[String]) -> Option<&str> {
    let mut skip_next = false;
    for a in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a.starts_with("--") {
            skip_next = !BOOL_FLAGS.contains(&a.as_str());
            continue;
        }
        return Some(a);
    }
    None
}

fn load_kb(path: &str) -> Result<KbBuilder, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    ntriples::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn cmd_harvest(args: &[String]) -> Result<(), String> {
    let seed: u64 = opt(args, "--seed").unwrap_or("42").parse().map_err(|_| "bad --seed")?;
    let scale = opt(args, "--scale").unwrap_or("tiny");
    let mut cfg = match scale {
        "tiny" => CorpusConfig::tiny(),
        "standard" => CorpusConfig::standard(seed),
        other => return Err(format!("unknown --scale {other:?} (tiny|standard)")),
    };
    cfg.world.seed = seed;
    let method = match opt(args, "--method").unwrap_or("reasoning") {
        "patterns" => Method::PatternsOnly,
        "statistical" => Method::Statistical,
        "reasoning" => Method::Reasoning,
        "factorgraph" => Method::FactorGraph,
        other => return Err(format!("unknown --method {other:?}")),
    };
    let out_path = opt(args, "--out").unwrap_or("kb.tsv");

    eprintln!("generating {scale} corpus (seed {seed})...");
    let corpus = Corpus::generate(&cfg);
    eprintln!(
        "  {} entities, {} documents, {} posts",
        corpus.world.entities.len(),
        corpus.all_docs().len(),
        corpus.posts.len()
    );
    if args.iter().any(|a| a == "--incremental") {
        let durability = opt(args, "--data-dir").map(|dir| {
            (
                dir,
                StoreOptions {
                    fsync: !args.iter().any(|a| a == "--no-fsync"),
                    seal_every: 8,
                    ..StoreOptions::default()
                },
            )
        });
        return harvest_incremental(&corpus, method, out_path, durability);
    }
    if opt(args, "--data-dir").is_some() {
        return Err("--data-dir requires --incremental".into());
    }
    eprintln!("harvesting ({method:?})...");
    let output = harvest(&corpus, &HarvestConfig { method, ..Default::default() })
        .map_err(|e| format!("harvest failed: {e}"))?;
    eprintln!(
        "  {} occurrences → {} candidates → {} accepted facts",
        output.stats.occurrences, output.stats.candidates, output.stats.accepted
    );
    let quarantined = output.stats.quarantined_count();
    if quarantined > 0 {
        eprintln!("  quarantined: {quarantined} documents");
    }
    let dump = ntriples::to_string(&output.kb).map_err(|e| e.to_string())?;
    fs::write(out_path, &dump).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    eprintln!("wrote {} bytes to {out_path}", dump.len());
    kb_obs::outln!("{}", output.kb.stats());
    Ok(())
}

/// Incremental harvest: bootstrap a base snapshot from ~70% of the
/// articles, then harvest the held-out articles in small batches and
/// install each as a delta segment on a live `QueryService`, printing
/// per-delta install latency. The final KB written to `--out` is the
/// compacted view, so downstream commands see one monolithic snapshot.
///
/// With `durability` set, every install is also logged to a durable
/// [`SegmentStore`] WAL in the given directory (behind an fsync barrier
/// unless disabled), and the per-delta line reports what durability
/// cost on top of the in-memory install.
fn harvest_incremental(
    corpus: &Corpus,
    method: Method,
    out_path: &str,
    durability: Option<(&str, StoreOptions)>,
) -> Result<(), String> {
    let (boot, held_out) = corpus.bootstrap_split();
    let cfg = HarvestConfig { method, ..Default::default() };
    let (first, all) = (boot.articles.len(), corpus.articles.len());
    eprintln!("bootstrap harvest on {first}/{all} articles ({method:?})...");
    let (inc, out) = IncrementalHarvester::bootstrap(&boot, &cfg)
        .map_err(|e| format!("bootstrap failed: {e}"))?;
    let base = out.kb.snapshot().into_shared();
    eprintln!("  base snapshot: {} facts", base.len());
    let mut store = match durability {
        Some((dir, options)) => {
            let s = SegmentStore::create(dir, Arc::clone(&base), options)
                .map_err(|e| format!("cannot create segment store in {dir}: {e}"))?;
            eprintln!(
                "  durable store at {dir} (fsync {})",
                if options.fsync { "on" } else { "off" }
            );
            Some(s)
        }
        None => None,
    };
    let service = QueryService::new(base);

    for (i, chunk) in held_out.chunks(4).enumerate() {
        let refs: Vec<_> = chunk.iter().collect();
        let view = service.snapshot();
        let outcome = inc
            .harvest_batch(&corpus.world, &refs, &view)
            .map_err(|e| format!("batch {i} failed: {e}"))?;
        let accepted = outcome.accepted;
        let delta = Arc::new(outcome.delta);
        let t = Instant::now();
        let cost = match store.as_mut() {
            Some(s) => Some(
                s.install_delta(Arc::clone(&delta))
                    .map_err(|e| format!("durable install of delta {i} failed: {e}"))?,
            ),
            None => None,
        };
        service.apply_delta(delta);
        let durability_note = match cost {
            Some(c) => format!(
                ", durable: {} B logged, write {} µs + fsync {} µs",
                c.bytes, c.write_micros, c.fsync_micros
            ),
            None => String::new(),
        };
        eprintln!(
            "  delta {i}: {} docs, {} candidates → {accepted} facts, installed in {:.2?}{durability_note}",
            chunk.len(),
            outcome.candidates,
            t.elapsed()
        );
    }

    if let Some(s) = store.as_mut() {
        let cost = s.seal().map_err(|e| format!("sealing the WAL failed: {e}"))?;
        let compacted = s
            .compact(&Compactor::default(), false)
            .map_err(|e| format!("compaction failed: {e}"))?;
        eprintln!(
            "  sealed {} B into delta segments (generation {}{})",
            cost.bytes,
            s.generation(),
            if compacted { ", compacted" } else { "" }
        );
    }

    let view = service.snapshot();
    let stats = service.cache_stats();
    eprintln!(
        "  {} deltas installed, {} live facts; compacting...",
        stats.delta_installs,
        view.len()
    );
    let compacted = view.compact().map_err(|e| format!("compaction failed: {e}"))?;
    let dump = ntriples::to_string(&compacted).map_err(|e| e.to_string())?;
    fs::write(out_path, &dump).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    eprintln!("wrote {} bytes to {out_path}", dump.len());
    kb_obs::outln!(
        "{} facts after {} incremental installs (base + deltas compacted)",
        compacted.len(),
        stats.delta_installs
    );
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let path = positional(args).ok_or("stats needs a KB file")?;
    let kb = load_kb(path)?.freeze();
    kb_obs::outln!("{}", kb.stats());
    // Freezing set the `store.bytes.*` gauges: where the KB's resident
    // bytes sit.
    let obs = kb_obs::global();
    let bytes = |part: &str| obs.gauge(&format!("store.bytes.{part}")).get();
    kb_obs::outln!(
        "resident bytes:   facts {} · by_triple {} · dict {} · frames {}",
        bytes("facts"),
        bytes("by_triple"),
        bytes("dict"),
        bytes("frames")
    );
    Ok(())
}

/// Prints the `--explain` report: estimated cost, predicate footprint
/// and view-maintenance verdict, the operator tree with estimated vs
/// actual rows per operator, the probe tables scan steps built, what
/// the aggregate made of the rows, batch counts and the
/// compressed-index footprint.
fn print_explain<K: KbRead + ?Sized>(plan: &Plan, trace: &ExecTrace, stats: &IndexStats, kb: &K) {
    eprintln!("plan: estimated cost {:.1} index probes", plan.estimated_cost());
    let fp = plan.footprint();
    if fp.is_wildcard() {
        eprintln!("footprint: wildcard (every delta install can change this answer)");
    } else {
        let preds: Vec<&str> =
            fp.preds().iter().map(|&p| kb.resolve(p).unwrap_or("<unresolved>")).collect();
        eprintln!(
            "footprint: {} (only installs touching these predicates re-drive the plan)",
            preds.join(", ")
        );
    }
    eprintln!("maintenance: {}", maintainability(plan).describe());
    eprintln!("operators (estimated vs actual rows):");
    let labels = plan.describe(kb);
    if labels.is_empty() {
        eprintln!("  none: a constant of the query is not in the dictionary");
    }
    for ((label, est), actual) in labels.iter().zip(plan.est_rows()).zip(&trace.op_rows) {
        eprintln!("  est {est:>12.1}  actual {actual:>10}  {label}");
    }
    for table in &trace.probe_tables {
        let label = labels[table.op].trim_start();
        eprintln!("probe table: {label} — {} rows after {} lookups", table.rows, table.lookups);
    }
    if plan.is_aggregate() {
        eprintln!("aggregate: {} rows → {} groups", trace.rows, trace.groups);
        if trace.group_index {
            eprintln!("group index: built at the first key below the group before it");
        } else {
            eprintln!("group index: none, every new key arrived above the group before it");
        }
    }
    eprintln!(
        "execution: {} rows emitted in {} batches; index: {} entries in {} frames, {} B compressed / {} B raw ({:.0}% saved)",
        trace.rows,
        trace.batches,
        stats.entries,
        stats.frames,
        stats.compressed_bytes,
        stats.raw_bytes,
        stats.saved_ratio() * 100.0,
    );
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let explain = args.iter().any(|a| a == "--explain");

    // Durable path: cold-start straight from a segment store directory
    // (checksum validation + WAL replay), no TSV parse, no re-indexing.
    if let Some(dir) = opt(args, "--data-dir") {
        let q = positional(args).ok_or("query needs a query string")?;
        let options = budgeted_options(args)?;
        let t = Instant::now();
        let store = SegmentStore::open_with(dir, options)
            .map_err(|e| format!("cannot open store at {dir}: {e}"))?;
        let open_us = t.elapsed();
        let view = store.view();
        // Fault every region now, so that a cold-region corruption is a
        // typed error here instead of a panic in the middle of the query.
        view.prefault().map_err(|e| format!("cannot serve store at {dir}: {e}"))?;
        let service = QueryService::from_view(&view);
        let report = store.recovery_report();
        eprintln!(
            "cold start from {dir}: {} facts in {:.2?} (open {:.2?}, gen {}, {} sealed deltas, {} WAL records replayed)",
            view.len(),
            t.elapsed(),
            open_us,
            store.generation(),
            report.sealed_deltas,
            report.wal_replayed,
        );
        if let Some(limit) = store.memory_budget().limit() {
            let budget = store.memory_budget();
            eprintln!(
                "memory budget: {limit} B (resident {} B, {} page faults reading {} B, {} spills)",
                budget.resident_bytes(),
                budget.page_faults(),
                budget.fault_bytes(),
                budget.spills(),
            );
        }
        if report.degraded() {
            eprintln!(
                "warning: recovery quarantined {} corrupt file(s): {}",
                report.quarantined.len(),
                report.quarantined.join(", ")
            );
        }
        return answer_query(&service, &view, q, explain.then(|| view.index_stats()));
    }

    let path = positional(args).ok_or("query needs a KB file and a query")?;
    let q =
        args.iter().filter(|a| !a.starts_with("--")).nth(1).ok_or("query needs a query string")?;
    let snap = load_kb(path)?.freeze().into_shared();
    let service = QueryService::new(snap.clone());
    answer_query(&service, snap.as_ref(), q, explain.then(|| snap.index_stats()))
}

/// The tail both `query` doors share: answers `q` over `view` and prints
/// the first 50 rows. With `explain` (the view's index footprint, taken
/// only under `--explain`) the traced execution doubles as the serve —
/// no second run — and the plan report and routing verdict go to stderr.
fn answer_query<K: KbRead + ?Sized>(
    service: &QueryService,
    view: &K,
    q: &str,
    explain: Option<IndexStats>,
) -> Result<(), String> {
    let out = match explain {
        Some(index_stats) => {
            let plan = service.plan_for(q).map_err(|e| e.to_string())?;
            let (out, trace) = execute_traced(&plan, view);
            print_explain(&plan, &trace, &index_stats, view);
            eprintln!(
                "routing: {}",
                routing_decision(&parse(q).map_err(|e| e.to_string())?).describe()
            );
            Arc::new(out)
        }
        None => service.query(q).map_err(|e| e.to_string())?,
    };
    kb_obs::outln!("{} solutions", out.rows.len());
    for row in out.rows.iter().take(50) {
        kb_obs::outln!("  {}", out.render_row(row, view));
    }
    Ok(())
}

fn cmd_rules(args: &[String]) -> Result<(), String> {
    let path = positional(args).ok_or("rules needs a KB file")?;
    let min_support: usize =
        opt(args, "--min-support").unwrap_or("5").parse().map_err(|_| "bad --min-support")?;
    let kb = load_kb(path)?;
    let cfg = RuleConfig { min_support, ..Default::default() };
    let rules = mine_rules(&kb, &cfg);
    kb_obs::outln!("{} rules", rules.len());
    for r in &rules {
        kb_obs::outln!("  {r}");
    }
    Ok(())
}

/// Collects a query workload from the live facts of a view: one
/// subject-bound probe per sampled fact plus one scatter query per
/// distinct predicate. Skips terms whose surface form would not survive
/// the query grammar (spaces, quotes, ...).
fn serve_workload<K: KbRead + ?Sized>(view: &K) -> (Vec<String>, Vec<String>) {
    fn token_safe(s: &str) -> bool {
        !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || "_-:.".contains(c))
    }
    let mut bound = Vec::new();
    let mut preds = Vec::new();
    for fact in view.facts() {
        let (Some(s), Some(p)) = (view.resolve(fact.triple.s), view.resolve(fact.triple.p)) else {
            continue;
        };
        if !token_safe(s) || !token_safe(p) {
            continue;
        }
        if bound.len() < 256 {
            bound.push(format!("{s} {p} ?o"));
        }
        if !preds.contains(&p) {
            preds.push(p);
        }
        if bound.len() >= 256 && preds.len() >= 16 {
            break;
        }
    }
    let scatter = preds.iter().take(16).map(|p| format!("?x {p} ?o")).collect();
    (bound, scatter)
}

/// `kbkit watch`: the end-to-end continuous-query loop on one screen.
/// Bootstrap a base KB from most of a generated corpus, register a
/// standing view, then harvest the held-out articles in batches — each
/// batch becomes a delta install whose view update (added/removed rows,
/// patched-vs-reexecuted, latency) is printed as it happens.
fn cmd_watch(args: &[String]) -> Result<(), String> {
    let seed: u64 = opt(args, "--seed").unwrap_or("42").parse().map_err(|_| "bad --seed")?;
    let batch: usize = opt(args, "--batch").unwrap_or("4").parse().map_err(|_| "bad --batch")?;
    if batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    let q = opt(args, "--query")
        .unwrap_or("SELECT ?c COUNT(?p) AS ?n WHERE { ?p bornIn ?c } GROUP BY ?c");

    let mut cfg = CorpusConfig::tiny();
    cfg.world.seed = seed;
    let corpus = Corpus::generate(&cfg);
    let (boot, held_out) = corpus.bootstrap_split();
    eprintln!("bootstrap harvest on {}/{} articles...", boot.articles.len(), corpus.articles.len());
    let (inc, out) = IncrementalHarvester::bootstrap(&boot, &HarvestConfig::default())
        .map_err(|e| format!("bootstrap failed: {e}"))?;
    let service = QueryService::new(out.kb.snapshot().into_shared());

    let id = service.register_view(q).map_err(|e| format!("cannot register view: {e}"))?;
    let plan = service.plan_for(q).map_err(|e| e.to_string())?;
    let initial = service.view_result(id).expect("freshly registered view has a result");
    kb_obs::outln!("standing view {id}: {q}");
    kb_obs::outln!("  maintenance: {}", maintainability(&plan).describe());
    kb_obs::outln!(
        "  initial answer: {} rows over {} facts",
        initial.rows.len(),
        service.snapshot().len()
    );

    for (i, chunk) in held_out.chunks(batch).enumerate() {
        let refs: Vec<_> = chunk.iter().collect();
        let view = service.snapshot();
        let outcome = inc
            .harvest_batch(&corpus.world, &refs, &view)
            .map_err(|e| format!("batch {i} failed: {e}"))?;
        let accepted = outcome.accepted;
        let updates = service.apply_delta(Arc::new(outcome.delta));
        let latest = service.snapshot();
        match updates.iter().find(|u| u.id == id) {
            Some(u) => {
                kb_obs::outln!(
                    "install {i}: {} docs, {accepted} facts → view {} (+{} −{} rows, {} in {} µs)",
                    chunk.len(),
                    if u.changed() { "changed" } else { "unchanged" },
                    u.added.len(),
                    u.removed.len(),
                    if u.patched { "patched" } else { "re-executed" },
                    u.patch_us,
                );
                for row in u.added.iter().take(5) {
                    kb_obs::outln!("    + {}", u.output.render_row(row, latest.as_ref()));
                }
                for row in u.removed.iter().take(5) {
                    kb_obs::outln!("    - {}", u.output.render_row(row, latest.as_ref()));
                }
            }
            None => kb_obs::outln!(
                "install {i}: {} docs, {accepted} facts → outside the view's footprint, skipped",
                chunk.len()
            ),
        }
    }

    let last = service.view_result(id).expect("view survived the stream");
    let view = service.snapshot();
    kb_obs::outln!("final answer ({} rows):", last.rows.len());
    for row in last.rows.iter().take(20) {
        kb_obs::outln!("  {}", last.render_row(row, view.as_ref()));
    }
    Ok(())
}

/// Exercises every instrumented layer once — harvest the quickstart
/// (tiny) corpus, freeze a snapshot, serve a handful of queries — and
/// prints the collected metrics. This is the schema the CI step
/// validates, so all three layers' families are always present.
fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let json_only = args.iter().any(|a| a == "--json");
    let seed: u64 = opt(args, "--seed").unwrap_or("42").parse().map_err(|_| "bad --seed")?;

    let mut cfg = CorpusConfig::tiny();
    cfg.world.seed = seed;
    let corpus = Corpus::generate(&cfg);
    // Pipeline layer: per-phase spans + fact/quarantine counters.
    let output =
        harvest(&corpus, &HarvestConfig::default()).map_err(|e| format!("harvest failed: {e}"))?;
    // Storage layer: snapshot freeze span + index/fact gauges.
    let snap = output.kb.freeze().into_shared();
    // Query layer: cache counters + parse/plan/exec histograms.
    let service = QueryService::new(snap);
    let queries = [
        "?p bornIn ?c",
        "?p bornIn ?c . ?c locatedIn ?n",
        "SELECT DISTINCT ?c WHERE { ?p bornIn ?c }",
    ];
    for q in queries {
        let _ = service.query(q).map_err(|e| format!("metrics query {q:?} failed: {e}"))?;
    }
    // Once more for result-cache hits.
    for q in queries {
        let _ = service.query(q).map_err(|e| e.to_string())?;
    }

    // Serving layer: a 2-partition router answering one subject-bound
    // and one scatter query, so the serve.* families are present. The
    // one-slot subscriber buffer makes the stream below overflow.
    let router = KbRouter::with_config(
        service.snapshot().base().clone(),
        2,
        AdmissionConfig { subscriber_buffer: 1, ..Default::default() },
        kb_obs::global(),
    );
    let rview = router.view();
    let (bound, scatter) = serve_workload(rview.as_ref());
    for q in bound.iter().take(1).chain(scatter.iter().take(1)) {
        let _ = router.query(q).map_err(|e| format!("metrics serve query {q:?} failed: {e}"))?;
    }

    // Standing-view layer: one delta-patchable view, one fallback view
    // (LIMIT defeats incremental maintenance), a subscriber that never
    // drains, and three installs inside the footprint — together they
    // exercise every view.* family (registered, delta_patched,
    // reexecuted, patch_us, pushed, lagged).
    let patchable = router
        .register_view("SELECT ?c COUNT(?p) AS ?n WHERE { ?p bornIn ?c } GROUP BY ?c")
        .map_err(|e| format!("metrics view registration failed: {e}"))?;
    router
        .register_view("SELECT ?p ?c WHERE { ?p bornIn ?c } ORDER BY ?p LIMIT 3")
        .map_err(|e| format!("metrics view registration failed: {e}"))?;
    let stalled = router.subscribe(patchable);
    let mut shadow = service.snapshot();
    for i in 0..3 {
        let mut b = KbBuilder::new();
        b.assert_str(&format!("metrics_probe_{i}"), "bornIn", "metrics_city");
        let delta = Arc::new(b.freeze_delta(&shadow));
        shadow = Arc::new(shadow.with_delta(Arc::clone(&delta)));
        router.apply_delta(delta);
    }
    drop(stalled);

    // Durable-store layer: one create → install → reopen round trip in
    // a scratch directory, so the WAL/recovery families are present.
    let scratch = std::env::temp_dir().join(format!("kbkit-metrics-{}-{seed}", std::process::id()));
    let _ = fs::remove_dir_all(&scratch);
    let durable = (|| -> Result<(), kbkit::kb_store::StoreError> {
        let base = service.snapshot().base().clone();
        let options = StoreOptions { fsync: false, seal_every: 0, memory_budget: None };
        let mut store = SegmentStore::create(&scratch, Arc::clone(&base), options)?;
        let mut b = KbBuilder::new();
        b.assert_str("metrics_probe", "type", "probe");
        store.install_delta(Arc::new(b.freeze_delta(&store.view())))?;
        drop(store);
        // Reopen under a deliberately tiny memory budget and scan, so
        // the paging families (store.resident_bytes, store.page_faults,
        // store.fault_bytes, store.spills) are exercised and present in
        // the output schema.
        let budgeted = StoreOptions { memory_budget: Some(1), ..options };
        let store = SegmentStore::open_with(&scratch, budgeted)?;
        let view = store.view();
        view.prefault()?;
        let _ = view.count_matching(&TriplePattern::any());
        Ok(())
    })();
    let _ = fs::remove_dir_all(&scratch);
    durable.map_err(|e| format!("metrics store round-trip failed: {e}"))?;

    let registry = kb_obs::global();
    if !json_only {
        kb_obs::outln!("{}", registry.render_text());
    }
    kb_obs::outln!("{}", registry.render_json());
    Ok(())
}

fn cmd_ned(args: &[String]) -> Result<(), String> {
    let path = positional(args).ok_or("ned needs a KB file and text")?;
    let text =
        args.iter().filter(|a| !a.starts_with("--")).nth(1).ok_or("ned needs a text argument")?;
    let kb = load_kb(path)?;
    let mut ned = Ned::new(&kb);
    ned.finalize();
    let mentions = detect_mentions(&kb, text);
    if mentions.is_empty() {
        kb_obs::outln!("no known mentions detected");
        return Ok(());
    }
    let spans: Vec<(usize, usize)> = mentions.iter().map(|m| (m.start, m.end)).collect();
    let resolved = ned.disambiguate(text, &spans, Strategy::Coherence);
    for (m, r) in mentions.iter().zip(resolved) {
        match r {
            Some(t) => {
                // A resolved term may live only in the label store (no
                // dictionary string of its own) — fall back through any
                // of its labels before giving up.
                let name = kb
                    .resolve(t)
                    .or_else(|| {
                        kb.labels.iter().find(|(term, _, _)| *term == t).map(|(_, _, form)| form)
                    })
                    .unwrap_or("?");
                kb_obs::outln!("  {:>20}  →  {}", m.surface, name);
            }
            None => kb_obs::outln!("  {:>20}  →  NIL", m.surface),
        }
    }
    Ok(())
}
