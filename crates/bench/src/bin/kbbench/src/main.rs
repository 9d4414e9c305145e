//! `kbbench`: end-to-end and per-layer numbers for the path a user of
//! this repository takes — harvest → freeze → segment write → cold open
//! → parse → plan → frame decode → join → render → cache → route →
//! admit. See `README.md` beside this package and `BENCHMARK.json` at
//! the root of the repository.
//!
//! ```text
//! kbbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, as the driver starts it
//! kbbench all --seed <n> --out <file> [--runs <n>] [--smoke]         every workload, a record
//! kbbench check <a.json> <b.json>                                    two records against the bounds
//! ```
//!
//! It owns its generator and calls only the public functions of the
//! kb-* crates; it does not use `kb_bench`.

mod construct;
mod gen;
mod json;
mod layers;
mod query;
mod record;
mod refclock;
mod restart;
mod run;
mod scenario;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::OnceLock;

use json::Json;
use layers::Scenario;
use query::Class;
use scenario::Scale;

/// The contract with the driver, read at build time so that units,
/// bounds and reasons have one home.
const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

/// The end-to-end metrics every workload reports, each with its own
/// meaning of "operation" (see [`WORKLOADS`]).
pub const END_TO_END: [&str; 4] = ["setup_s", "peak_rss_mb", "op_p50_us", "throughput_per_s"];

/// One workload: a scenario, and which of its operation classes the
/// end-to-end metrics describe.
pub struct WorkloadDef {
    pub name: &'static str,
    pub scenario: Scenario,
    /// Operation class behind `op_p50_us`.
    pub op: &'static str,
    /// Sample class whose work per second is `throughput_per_s`.
    pub rate: &'static str,
    /// What `throughput_per_s` counts.
    pub counts: &'static str,
    /// Query classes an untraced run executes (`query_exec` only).
    pub classes: &'static [Class],
}

pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "construct",
        scenario: Scenario::Construct,
        op: "install",
        rate: "repetition",
        counts: "facts in the compacted durable store per second of bootstrap→compact, the device's share left out",
        classes: &[],
    },
    WorkloadDef {
        name: "restart_paged",
        scenario: Scenario::RestartPaged,
        op: "first_answer",
        rate: "scan",
        counts: "rows scanned under the memory budget per second of the scan mix",
        classes: &[],
    },
    WorkloadDef {
        name: "query_point",
        scenario: Scenario::QueryExec,
        op: "point",
        rate: "point",
        counts: "queries answered and rendered per second",
        classes: &[Class::Point],
    },
    WorkloadDef {
        name: "query_join",
        scenario: Scenario::QueryExec,
        op: "join",
        rate: "join",
        counts: "queries answered and rendered per second",
        classes: &[Class::Join],
    },
    WorkloadDef {
        name: "query_groupby",
        scenario: Scenario::QueryExec,
        op: "groupby",
        rate: "groupby",
        counts: "queries answered and rendered per second",
        classes: &[Class::GroupBy],
    },
    WorkloadDef {
        name: "serve_read",
        scenario: Scenario::ServeMixed,
        op: "read",
        rate: "read",
        counts: "reads completed per second of read time, an install after every 1200 reads",
        classes: &[],
    },
];

/// `BENCHMARK.json`, parsed once.
pub fn benchmark() -> &'static Json {
    static PARSED: OnceLock<Json> = OnceLock::new();
    PARSED.get_or_init(|| Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON"))
}

/// The entry of `BENCHMARK.json` that defines `metric`.
pub fn metric_def(metric: &str) -> Option<&'static Json> {
    ["end_to_end", "per_layer"]
        .iter()
        .filter_map(|list| benchmark().get(list)?.as_arr())
        .flatten()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))
}

pub fn unit_of(metric: &str) -> String {
    metric_def(metric)
        .and_then(|m| Some(m.get("unit")?.as_str()?.to_string()))
        .unwrap_or_else(|| panic!("{metric} is not listed in BENCHMARK.json"))
}

/// Command-line flags: `--name value` pairs and bare switches.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, name: &str) -> Option<&str> {
        self.0.iter().position(|a| a == name).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse::<T>().map_err(|_| format!("{name} {v}: not a valid value")))
            .transpose()
    }

    fn switch(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn work_dir(&self) -> PathBuf {
        PathBuf::from(self.value("--work-dir").unwrap_or(".kbbench_work"))
    }

    fn scale(&self) -> Scale {
        if self.switch("--smoke") {
            Scale::SMOKE
        } else {
            Scale::FULL
        }
    }
}

const USAGE: &str = "usage:
  kbbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--work-dir <dir>]
          [--spans <file>] [--details <file>]
  kbbench all --seed <n> --out <file> [--runs <n>] [--seconds <s>] [--smoke] [--work-dir <dir>]
  kbbench check <a.json> <b.json>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("all") => record::all(&Flags(args[1..].to_vec())),
        Some("check") => match &args[1..] {
            [a, b] => record::check(a.as_ref(), b.as_ref()),
            _ => Err(USAGE.to_string()),
        },
        Some(_) => one_run(&Flags(args)),
        None => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("kbbench: {message}");
            ExitCode::from(2)
        }
    }
}

fn one_run(flags: &Flags) -> Result<ExitCode, String> {
    let name = flags.value("--workload").ok_or(USAGE)?;
    let workload = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; the workloads are {names:?}")
    })?;
    let trace = match flags.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let seconds: f64 = flags.parsed("--seconds")?.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 170.0) {
        return Err(format!("--seconds {seconds}: expected more than 0 and at most 170"));
    }
    let args = run::RunArgs {
        workload,
        seed: flags.parsed("--seed")?.unwrap_or(11),
        seconds,
        trace,
        scale: flags.scale(),
        work_dir: flags.work_dir(),
        spans: flags.value("--spans").map(PathBuf::from),
    };
    let outcome = run::run(&args)?;
    if let Some(path) = flags.value("--details") {
        std::fs::write(path, outcome.details.pretty())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    for (name, value, unit) in &outcome.metrics {
        eprintln!("{:<14} {name:<36} {value:>16.4} {unit}", workload.name);
    }
    println!("{}", outcome.result_line());
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn names(list: &str) -> Vec<String> {
        benchmark()
            .get(list)
            .and_then(Json::as_arr)
            .expect("list is present")
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).expect("entry has a name").to_string())
            .collect()
    }

    #[test]
    fn emitted_names_are_exactly_those_of_benchmark_json() {
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names("workloads"), workloads);
        assert_eq!(names("end_to_end"), END_TO_END);
        let layers: Vec<&str> = layers::LAYER_METRICS.iter().map(|m| m.0).collect();
        assert_eq!(names("per_layer"), layers);
    }

    #[test]
    fn names_and_counts_stay_inside_the_contract() {
        let all: Vec<String> =
            ["workloads", "end_to_end", "per_layer"].iter().flat_map(|l| names(l)).collect();
        for name in &all {
            assert!(name.len() <= 64, "{name} is too long");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()), "{name}");
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), all.len(), "a name is used twice");
        assert!((2..=8).contains(&names("workloads").len()));
        assert!((1..=16).contains(&names("end_to_end").len()));
        assert!((1..=128).contains(&names("per_layer").len()));
        assert!(names("end_to_end").contains(&"setup_s".to_string()));
        for m in benchmark().get("end_to_end").and_then(Json::as_arr).expect("present") {
            let name = m.get("name").and_then(Json::as_str).expect("name");
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            // The contract's ceiling. What did not repeat within it
            // was demoted to a per-layer metric (README).
            assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
        }
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }

    /// Every workload at smoke size, untraced and traced: each run must
    /// pass its correctness checks and emit exactly the metrics
    /// `BENCHMARK.json` lists for its mode.
    #[test]
    fn smoke_runs_are_correct_and_emit_the_listed_metrics() {
        let work_dir = std::env::temp_dir().join(format!("kbbench-smoke-{}", std::process::id()));
        for workload in &WORKLOADS {
            for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
                // One traced run covers all four scenarios; one is enough.
                if trace && workload.name != "restart_paged" {
                    continue;
                }
                let args = run::RunArgs {
                    workload,
                    seed: 5,
                    seconds: 0.2,
                    trace,
                    scale: Scale::SMOKE,
                    work_dir: work_dir.clone(),
                    spans: None,
                };
                let outcome = run::run(&args).expect("the run completes");
                assert!(
                    outcome.correct,
                    "{} trace {trace}: {}",
                    workload.name,
                    outcome.details.pretty()
                );
                assert_eq!(outcome.failed, 0);
                assert!(outcome.attempted >= 1);
                let emitted: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
                assert_eq!(emitted, names(list), "{} trace {trace}", workload.name);
                assert!(outcome.metrics.iter().all(|m| m.1.is_finite()));
                let line = Json::parse(&outcome.result_line()).expect("the result line is JSON");
                let keys: Vec<&str> = line.entries().iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            }
        }
        assert!(!work_dir.exists(), "the work dir is removed after the last run");
    }
}
