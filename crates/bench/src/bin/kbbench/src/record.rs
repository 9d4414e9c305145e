//! `kbbench all` — every workload in a fresh child process each (clean
//! peak memory), untraced `--runs` times and then traced once, written
//! as one record — and `kbbench check`, which holds two records
//! against the bounds of `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use crate::gen::WorkloadConfig;
use crate::json::Json;
use crate::layers::LAYER_METRICS;
use crate::scenario::Scale;
use crate::stats::{median, spread};
use crate::{benchmark, metric_def, Flags, END_TO_END, WORKLOADS};

/// Per-layer metrics that are exact counts: equal inputs give equal
/// values, so two records of one program must agree on them.
const EXACT_COUNTS: [&str; 7] = [
    "segmap.faults_per_cycle",
    "segmap.spills_per_cycle",
    "admission.shed_ratio",
    "wal.flushes",
    // Every round of `serve_mixed` replays the same reads and deltas.
    "service.result_hit_ratio",
    "service.plan_hit_ratio",
    "service.invalidated_per_install",
];

/// One child run: its result line and its details file, parsed.
struct Child {
    result: Json,
    details: Json,
}

fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    flags: &Flags,
    spans: &Path,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    // Beside the span dump, not in the work dir: the child removes that.
    let details_path = spans.with_extension("details");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .arg("--work-dir")
        .arg(flags.work_dir())
        .arg("--details")
        .arg(&details_path);
    if flags.switch("--smoke") {
        cmd.arg("--smoke");
    }
    if trace {
        cmd.arg("--spans").arg(spans);
    }
    let out = cmd
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let details = std::fs::read_to_string(&details_path);
    let _ = std::fs::remove_file(&details_path);
    if !out.status.success() {
        return Err(format!("the {workload} run ended with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or_else(|| format!("{workload}: no result line"))?;
    Ok(Child {
        result: Json::parse(line).map_err(|e| format!("{workload}: result line: {e}"))?,
        details: Json::parse(&details.map_err(|e| format!("{workload}: details: {e}"))?)?,
    })
}

fn metric_value(result: &Json, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

fn command_line(program: &str, args: &[&str]) -> Json {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or(Json::Null, |o| Json::str(String::from_utf8_lossy(&o.stdout).trim()))
}

/// File system type of the mount that holds `dir`, from `/proc/mounts`.
/// Fsync cost depends on it. Called before the first child starts: a
/// child removes the work dir when it ends, and a path that does not
/// exist resolves to no mount.
fn filesystem_of(dir: &Path) -> Result<Json, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let dir = std::fs::canonicalize(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let kind = mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, kind) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(mount).then_some((mount.len(), kind))
        })
        .max_by_key(|(len, _)| *len)
        .map_or(Json::Null, |(_, kind)| Json::str(kind));
    Ok(kind)
}

fn machine_facts(work_dir_filesystem: Json) -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(cores as f64)),
        (
            "parallelism_note",
            Json::str(format!(
                "{cores} cores and a load of one thread on every workload: no parallel \
                 speed-up can be shown here and none is claimed"
            )),
        ),
        ("rustc", command_line("rustc", &["--version"])),
        ("commit", command_line("git", &["rev-parse", "HEAD"])),
        ("os", command_line("uname", &["-sr"])),
        ("work_dir_filesystem", work_dir_filesystem),
        ("fsync", Json::str("on (StoreOptions::default)")),
        ("page_cache", Json::str("warm: every store is read moments after it was written")),
    ])
}

fn generator_facts(seed: u64, scale: &Scale) -> Json {
    let describe_with = |facts: usize, deltas: usize| {
        let config = WorkloadConfig { deltas, ..WorkloadConfig::new(seed, facts) };
        Json::obj(config.describe().into_iter().map(|(k, v)| (k, Json::str(v))))
    };
    let describe = |facts: usize| describe_with(facts, 0);
    Json::obj([
        ("restart_paged", describe(scale.restart_facts)),
        ("query_exec", describe(scale.query_facts)),
        // The delta stream of one round, replayed in each.
        ("serve_mixed", describe_with(scale.serve_facts, scale.serve_installs_per_round)),
        (
            "construct",
            Json::str(format!(
                "kb_corpus::CorpusConfig::standard(seed) with every entity count ×{}",
                scale.corpus_factor
            )),
        ),
    ])
}

pub fn all(flags: &Flags) -> Result<ExitCode, String> {
    let out = PathBuf::from(flags.value("--out").ok_or("all needs --out <file>")?);
    let seed: u64 = flags.parsed("--seed")?.unwrap_or(11);
    let runs: usize = flags.parsed("--runs")?.unwrap_or(1).max(1);
    let smoke = flags.switch("--smoke");
    let contract = benchmark();
    let default_seconds = if smoke {
        0.3
    } else {
        contract.get("run_seconds").and_then(Json::as_f64).unwrap_or(10.0)
    };
    let seconds: f64 = flags.parsed("--seconds")?.unwrap_or(default_seconds);
    let work_dir_filesystem = filesystem_of(&flags.work_dir())?;
    let spans_out = PathBuf::from(format!("{}.spans.jsonl", out.display()));
    let spans_part = PathBuf::from(format!("{}.part", spans_out.display()));
    std::fs::write(&spans_out, "")
        .map_err(|e| format!("cannot write {}: {e}", spans_out.display()))?;

    let mut workloads = Vec::new();
    let mut layer_values: Vec<(&str, Json)> = Vec::new();
    let mut all_correct = true;
    for def in &WORKLOADS {
        let why = contract
            .get("workloads")
            .and_then(Json::as_arr)
            .and_then(|ws| {
                ws.iter().find(|w| w.get("name").and_then(Json::as_str) == Some(def.name))
            })
            .and_then(|w| w.get("why"))
            .cloned()
            .unwrap_or(Json::Null);
        let mut untraced = Vec::new();
        for _ in 0..runs {
            untraced.push(child(def.name, seed, seconds, false, flags, &spans_part)?);
        }
        let traced = child(def.name, seed, seconds, true, flags, &spans_part)?;
        let part = std::fs::read(&spans_part).map_err(|e| e.to_string())?;
        std::fs::OpenOptions::new()
            .append(true)
            .open(&spans_out)
            .and_then(|mut f| std::io::Write::write_all(&mut f, &part))
            .map_err(|e| format!("cannot write {}: {e}", spans_out.display()))?;
        let _ = std::fs::remove_file(&spans_part);

        let every_run = || untraced.iter().chain([&traced]);
        let correct = every_run().all(|c| c.result.get("correct") == Some(&Json::Bool(true)));
        let total = |k: &str| -> f64 {
            every_run().filter_map(|c| c.result.get(k).and_then(Json::as_f64)).sum()
        };
        let (attempted, failed) = (total("attempted"), total("failed"));
        all_correct &= correct && failed == 0.0 && attempted > 0.0;
        let op_samples = untraced[0].details.get("samples").and_then(|s| s.get(def.op)).cloned();
        let end_to_end = END_TO_END.map(|metric| {
            let values: Vec<f64> =
                untraced.iter().filter_map(|c| metric_value(&c.result, metric)).collect();
            let def_json = metric_def(metric).unwrap_or(&Json::Null);
            let from = |k: &str| def_json.get(k).cloned().unwrap_or(Json::Null);
            println!(
                "{:<14} {metric:<36} {:>16.4} {}",
                def.name,
                median(&values),
                from("unit").as_str().unwrap_or("")
            );
            let entry = Json::obj([
                ("median", Json::num(median(&values))),
                ("unit", from("unit")),
                ("better", from("better")),
                ("bound", from("bound")),
                ("runs", Json::Arr(values.iter().map(|&v| Json::num(v)).collect())),
                ("spread", spread(&values).map_or(Json::Null, Json::num)),
            ]);
            (metric, entry)
        });
        let per_layer = LAYER_METRICS.iter().filter_map(|&(metric, owner, _)| {
            let value = metric_value(&traced.result, metric)?;
            let entry = Json::obj([
                ("value", Json::num(value)),
                ("unit", Json::str(crate::unit_of(metric))),
            ]);
            // The record's own per-layer table takes each metric from
            // the first workload whose scenario owns it, where it was
            // measured at full size.
            let owned = owner == def.scenario || metric == "trace_overhead_ratio";
            if owned
                && metric != "trace_overhead_ratio"
                && !layer_values.iter().any(|(m, _)| *m == metric)
            {
                println!(
                    "{:<14} {metric:<36} {value:>16.4} {}",
                    owner.name(),
                    crate::unit_of(metric)
                );
                layer_values.push((metric, entry.clone()));
            }
            owned.then_some((metric, entry))
        });
        workloads.push((
            def.name,
            Json::obj([
                ("why", why),
                ("scenario", Json::str(def.scenario.name())),
                ("operation", Json::str(def.op)),
                ("operation_samples_per_run", op_samples.unwrap_or(Json::Null)),
                ("throughput_counts", Json::str(def.counts)),
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("end_to_end", Json::obj(end_to_end)),
                ("per_layer", Json::obj(per_layer.collect::<Vec<_>>())),
                ("untraced", untraced[0].details.clone()),
                ("traced", traced.details.clone()),
            ]),
        ));
    }

    let record = Json::obj([
        ("benchmark", Json::str("kbbench")),
        ("machine", machine_facts(work_dir_filesystem)),
        ("seed", Json::Num(seed as f64)),
        ("seconds_per_run", Json::num(seconds)),
        ("untraced_runs_per_workload", Json::Num(runs as f64)),
        ("smoke", Json::Bool(smoke)),
        ("generator", generator_facts(seed, &flags.scale())),
        ("workloads", Json::obj(workloads)),
        ("per_layer", Json::obj(layer_values)),
        (
            "span_dump",
            Json::str(
                spans_out
                    .file_name()
                    .map_or_else(String::new, |n| n.to_string_lossy().into_owned()),
            ),
        ),
    ]);
    std::fs::write(&out, record.pretty())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    eprintln!("kbbench: wrote {} and {}", out.display(), spans_out.display());
    Ok(if all_correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn read_record(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Judges one metric of one workload: `ok`, `regressed` (the second
/// median is worse than the first by more than the bound) or
/// `unresolved` (a record's own runs spread wider than the bound, so
/// the medians cannot be told apart — unless every run of the second
/// beats every run of the first).
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (&'static str, f64) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if lower_is_better { (mb - ma) / ma } else { (ma - mb) / ma };
    let wide = [a, b].iter().any(|runs| spread(runs).is_some_and(|s| s > bound));
    let clean_win =
        a.iter().all(|&x| b.iter().all(|&y| if lower_is_better { y < x } else { y > x }));
    let status = if wide && !clean_win {
        "unresolved"
    } else if worse_by > bound {
        "regressed"
    } else {
        "ok"
    };
    (status, worse_by)
}

/// Why a record's workload cannot be trusted, if it cannot: a run that
/// failed an operation or a correctness check, or attempted nothing,
/// has no timings worth comparing.
fn unsound(record: &Json, workload: &str) -> Option<String> {
    let Some(w) = record.get("workloads").and_then(|w| w.get(workload)) else {
        return Some("missing".to_string());
    };
    let count = |k: &str| w.get(k).and_then(Json::as_f64);
    match (w.get("correct"), count("attempted"), count("failed")) {
        (Some(Json::Bool(true)), Some(attempted), Some(0.0)) if attempted >= 1.0 => None,
        (correct, attempted, failed) => Some(format!(
            "correct {}, attempted {}, failed {}",
            correct.map_or("?".to_string(), Json::compact),
            attempted.map_or("?".to_string(), |n| n.to_string()),
            failed.map_or("?".to_string(), |n| n.to_string()),
        )),
    }
}

/// Exit code 1 when a bounded metric regressed, when either record
/// holds a failed operation or correctness check, or when an exact
/// count differs between the two.
pub fn check(a_path: &Path, b_path: &Path) -> Result<ExitCode, String> {
    let (a, b) = (read_record(a_path)?, read_record(b_path)?);
    let runs = |record: &Json, workload: &str, metric: &str| -> Vec<f64> {
        record
            .get("workloads")
            .and_then(|w| {
                w.get(workload)?
                    .get("end_to_end")?
                    .get(metric)?
                    .get("runs")?
                    .as_arr()
                    .map(<[Json]>::to_vec)
            })
            .unwrap_or_default()
            .iter()
            .filter_map(Json::as_f64)
            .collect()
    };
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>7}  status",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    let mut regressed = 0;
    for def in &WORKLOADS {
        for (which, record) in [("first", &a), ("second", &b)] {
            if let Some(why) = unsound(record, def.name) {
                println!("{:<14} {which} record: {why}  failed", def.name);
                regressed += 1;
            }
        }
        for metric in END_TO_END {
            let (ra, rb) = (runs(&a, def.name, metric), runs(&b, def.name, metric));
            if ra.is_empty() || rb.is_empty() {
                println!("{:<14} {metric:<18} missing from a record", def.name);
                regressed += 1;
                continue;
            }
            let m =
                metric_def(metric).ok_or_else(|| format!("{metric} is not in BENCHMARK.json"))?;
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let (status, worse_by) = verdict(&ra, &rb, lower, bound);
            regressed += usize::from(status == "regressed");
            println!(
                "{:<14} {metric:<18} {:>14.4} {:>14.4} {:>+8.1}% {:>6.0}%  {status}",
                def.name,
                median(&ra),
                median(&rb),
                worse_by * 100.0,
                bound * 100.0
            );
        }
    }
    let layer =
        |record: &Json, metric: &str| record.get("per_layer")?.get(metric)?.get("value")?.as_f64();
    for metric in EXACT_COUNTS {
        let (va, vb) = (layer(&a, metric), layer(&b, metric));
        let same = va.is_some() && va == vb;
        regressed += usize::from(!same);
        let status = if same { "same" } else { "differs" };
        println!("{:<14} {metric:<33} {va:?} {vb:?}  {status}", "exact count");
    }
    Ok(if regressed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::{unsound, verdict};
    use crate::json::Json;

    #[test]
    fn a_workload_that_failed_or_attempted_nothing_is_unsound() {
        let record = |correct: bool, attempted: u64, failed: u64| {
            let text = format!(
                r#"{{"workloads":{{"w":{{"correct":{correct},"attempted":{attempted},"failed":{failed}}}}}}}"#
            );
            Json::parse(&text).expect("valid JSON")
        };
        assert_eq!(unsound(&record(true, 10, 0), "w"), None);
        assert!(unsound(&record(false, 10, 0), "w").is_some());
        assert!(unsound(&record(true, 10, 3), "w").is_some());
        assert!(unsound(&record(true, 0, 0), "w").is_some());
        assert!(unsound(&record(true, 10, 0), "another").is_some());
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(verdict(&steady, &[104.0, 105.0, 103.0, 104.5], true, 0.10).0, "ok");
        assert_eq!(verdict(&steady, &[120.0, 121.0, 119.0, 120.5], true, 0.10).0, "regressed");
        assert_eq!(verdict(&steady, &[80.0, 81.0, 79.0, 80.5], false, 0.10).0, "regressed");
        // A wide record cannot be judged …
        let wide = [100.0, 140.0, 70.0, 120.0];
        assert_eq!(verdict(&wide, &[100.0, 101.0, 99.0, 100.5], true, 0.10).0, "unresolved");
        // … unless every run of the second beats every run of the first.
        assert_eq!(verdict(&wide, &[50.0, 51.0, 49.0, 50.5], true, 0.10).0, "ok");
        // One run a side has no spread: the medians decide.
        assert_eq!(verdict(&[100.0], &[105.0], true, 0.10).0, "ok");
    }
}
