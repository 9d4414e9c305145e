//! One benchmark run, as the driver starts it:
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Untraced, a run sets its scenario up several times (the median is
//! `setup_s`), measures for `--seconds` with no span recording at all
//! and reports the end-to-end metrics, every time in them on the
//! reference clock (see `refclock.rs`). Traced, it reports the
//! per-layer metrics: the workload's own scenario runs at full size,
//! in untraced and traced passes by turns (the ratio of their medians
//! is `trace_overhead_ratio`), and the other three
//! scenarios run traced at smoke size, so that every layer's metric is
//! measured in every traced run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::layers::{self, Scenario};
use crate::query::Class;
use crate::refclock::RefClock;
use crate::scenario::{Measured, Sample, Scale};
use crate::stats::{
    by_group, highest_supported_percentile, median, percentile, quiet_quartile, sorted, GROUPS,
};
use crate::trace::{read_spans, self_times, Tracer};
use crate::{construct, query, restart, serve, WorkloadDef, END_TO_END};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Share of a traced run's seconds its own scenario warms up for.
const WARM_UP_SHARE: f64 = 0.1;
/// Which of the passes that follow the warm-up are traced.
const PASS_ORDER: [bool; 4] = [false, true, true, false];
/// How long each foreign scenario runs in a traced run.
const FOREIGN_SLICE: Duration = Duration::from_millis(250);

pub struct RunArgs<'a> {
    pub workload: &'a WorkloadDef,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub work_dir: PathBuf,
    /// Where a traced run leaves its span dump; inside the work dir,
    /// and removed again, when not given.
    pub spans: Option<PathBuf>,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Name, value, unit.
    pub metrics: Vec<(&'static str, f64, String)>,
    /// What the record keeps beyond the result line.
    pub details: Json,
}

impl Outcome {
    /// The result line the driver reads.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|(name, value, unit)| {
            (*name, Json::obj([("value", Json::num(*value)), ("unit", Json::str(unit.clone()))]))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .compact()
    }
}

/// What [`run_scenario`] hands back.
struct ScenarioRun {
    /// Seconds each set-up took: on the wall clock, on the reference clock.
    setup_times: Vec<(f64, f64)>,
    /// One result per pass.
    passes: Vec<Measured>,
    /// What runs once after the last pass: probes that belong to no
    /// pass (recorded if the tracer is on) and checks of the final state.
    after: Measured,
}

/// How [`run_scenario`] drives a scenario.
struct Plan<'a> {
    scale: &'a Scale,
    /// Query classes to run (`query_exec` only).
    classes: &'a [Class],
    /// Set-ups to time; the passes run on the last.
    setups: usize,
    /// Each pass's duration, and whether the tracer records it.
    passes: &'a [(Duration, bool)],
}

/// Sets a scenario up and drives it through the plan's passes. The
/// scenarios put their samples on the reference clock themselves.
fn run_scenario(
    scenario: Scenario,
    args: &RunArgs,
    plan: &Plan,
    tracer: &mut Tracer,
    clock: &mut RefClock,
) -> Result<ScenarioRun, String> {
    let Plan { scale, classes, setups, passes } = *plan;
    let mut setup_times = Vec::new();
    let mut after = Measured::default();
    let mut off = Tracer::new(false);
    // Earlier set-ups are dropped before the next one starts, so that
    // memory holds one at a time.
    macro_rules! set_up {
        ($make:expr) => {{
            let mut last = None;
            for _ in 0..setups.max(1) {
                drop(last.take());
                clock.read();
                let start = Instant::now();
                last = Some($make);
                let wall_s = start.elapsed().as_secs_f64();
                clock.read();
                setup_times.push((wall_s, wall_s * clock.scale(start, Instant::now())));
            }
            last.expect("at least one set-up ran")
        }};
    }
    let mut out = Vec::new();
    match scenario {
        Scenario::Construct => {
            let setup = set_up!(construct::setup(args.seed, scale));
            for &(budget, traced) in passes {
                let tracer = if traced { &mut *tracer } else { &mut off };
                out.push(construct::run(&setup, budget, &args.work_dir, tracer, clock));
            }
        }
        Scenario::RestartPaged => {
            let setup = set_up!(restart::setup(args.seed, scale, &args.work_dir)?);
            for &(budget, traced) in passes {
                let tracer = if traced { &mut *tracer } else { &mut off };
                out.push(restart::run(&setup, budget, tracer, clock));
            }
        }
        Scenario::QueryExec => {
            let setup = set_up!(query::setup(args.seed, scale));
            // In a traced run the untraced passes stop at the same
            // operation count as the traced ones, so both kinds are
            // equally far from their cold start.
            let cap = passes.iter().any(|p| p.1).then_some(scale.traced_ops);
            for &(budget, traced) in passes {
                let tracer = if traced { &mut *tracer } else { &mut off };
                out.push(query::run(&setup, budget, classes, cap, tracer, clock));
            }
            if tracer.is_on() {
                query::storage_probes(&setup, tracer, &mut after);
            }
        }
        Scenario::ServeMixed => {
            let mut setup = set_up!(serve::setup(args.seed, scale)?);
            for &(budget, traced) in passes {
                let tracer = if traced { &mut *tracer } else { &mut off };
                out.push(serve::run(&mut setup, budget, tracer, clock));
            }
            if tracer.is_on() {
                serve::probes(&setup, tracer, &mut after);
            }
            serve::verify(&setup, &mut after);
            after.obs = serve::obs_counters(&setup);
        }
    }
    Ok(ScenarioRun { setup_times, passes: out, after })
}

/// Work per second of a stretch of samples, by the chosen clock.
fn rate(samples: &[Sample], micros: fn(&Sample) -> f32) -> f64 {
    let sum = |of: fn(&Sample) -> f32| samples.iter().map(|s| f64::from(of(s))).sum::<f64>();
    sum(|s| s.work) * 1e6 / sum(micros)
}

/// Peak resident set of this process in MB (`VmHWM`), set-up included.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn checks_json(m: &Measured) -> Json {
    Json::Arr(
        m.checks
            .iter()
            .map(|(name, ok, detail)| {
                Json::obj([
                    ("check", Json::str(name.clone())),
                    ("ok", Json::Bool(*ok)),
                    ("seen", Json::str(detail.clone())),
                ])
            })
            .collect(),
    )
}

fn counts_json(counts: &BTreeMap<&'static str, f64>) -> Json {
    Json::obj(counts.iter().map(|(k, v)| (*k, Json::num(*v))))
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.work_dir.display()))?;
    let outcome = if args.trace { traced(args) } else { untraced(args) };
    // Ours only if nothing else is in it.
    let _ = std::fs::remove_dir(&args.work_dir);
    outcome
}

fn untraced(args: &RunArgs) -> Result<Outcome, String> {
    let def = args.workload;
    let setups = if args.scale.smoke { 1 } else { SETUPS };
    let budget = Duration::from_secs_f64(args.seconds);
    let mut clock = RefClock::new();
    let plan =
        Plan { scale: &args.scale, classes: def.classes, setups, passes: &[(budget, false)] };
    let ScenarioRun { setup_times, passes, after } =
        run_scenario(def.scenario, args, &plan, &mut Tracer::new(false), &mut clock)?;
    let mut m = Measured::default();
    passes.into_iter().chain([after]).for_each(|pass| m.absorb(pass));
    let of = |class: &str| m.ops.get(class).map_or(&[][..], Vec::as_slice);
    let (ops, work) = (of(def.op), of(def.rate));
    // The tail is a per-layer metric (see the README); the details
    // keep the highest one this run's sample count supports.
    let supported = highest_supported_percentile(ops.len());
    let tail = |sorted: &[f64]| supported.map_or(Json::Null, |p| Json::num(percentile(sorted, p)));
    // The reported values, and the same on the wall clock over the
    // whole run for the details.
    let all =
        |micros: fn(&Sample) -> f32| sorted(ops.iter().map(|s| f64::from(micros(s))).collect());
    let (reference, wall) = (all(|s| s.us), all(|s| s.wall_us));
    // The stretches: a scenario's own rounds, or ten equal cuts.
    let stretches = |xs: &[Sample], f: &dyn Fn(&[Sample]) -> f64| match m.round_len {
        Some(len) => xs.chunks_exact(len).map(f).collect(),
        None => by_group(xs, GROUPS, f),
    };
    let stretch_medians =
        stretches(ops, &|g| median(&g.iter().map(|s| f64::from(s.us)).collect::<Vec<_>>()));
    let stretch_rates = stretches(work, &|g| rate(g, |s| s.us));
    let value = |name: &str| match name {
        "setup_s" => median(&setup_times.iter().map(|t| t.1).collect::<Vec<_>>()),
        "peak_rss_mb" => peak_rss_mb(),
        "op_p50_us" => quiet_quartile(stretch_medians.clone(), true),
        "throughput_per_s" => quiet_quartile(stretch_rates.clone(), false),
        other => unreachable!("end-to-end metric {other} has no definition"),
    };
    let metrics =
        END_TO_END.iter().map(|&name| (name, value(name), crate::unit_of(name))).collect();
    let readings = sorted(clock.readings().collect());
    let details = Json::obj([
        (
            "wall_clock",
            Json::obj([
                ("setup_s_each", Json::Arr(setup_times.iter().map(|t| Json::num(t.0)).collect())),
                ("op_p50_us", Json::num(percentile(&wall, 0.5))),
                ("op_tail_us", tail(&wall)),
                ("throughput_per_s", Json::num(rate(work, |s| s.wall_us))),
            ]),
        ),
        (
            "reference_clock",
            Json::obj([
                ("readings", Json::Num(readings.len() as f64)),
                ("ns_per_step_min", Json::num(readings.first().copied().unwrap_or(0.0))),
                ("ns_per_step_p50", Json::num(percentile(&readings, 0.5))),
                ("ns_per_step_max", Json::num(readings.last().copied().unwrap_or(0.0))),
                ("op_p50_us_whole_run", Json::num(percentile(&reference, 0.5))),
                ("op_tail_us_whole_run", tail(&reference)),
                (
                    "op_p50_us_by_stretch",
                    Json::Arr(stretch_medians.iter().map(|v| Json::num(*v)).collect()),
                ),
                (
                    "throughput_per_s_by_stretch",
                    Json::Arr(stretch_rates.iter().map(|v| Json::num(*v)).collect()),
                ),
            ]),
        ),
        ("samples", Json::obj(m.ops.iter().map(|(k, v)| (*k, Json::Num(v.len() as f64))))),
        ("tail_percentile", supported.map_or(Json::Null, |p| Json::Num(p * 100.0))),
        ("checks", checks_json(&m)),
        ("counts", counts_json(&m.counts)),
    ]);
    Ok(Outcome { correct: m.correct(), attempted: m.attempted, failed: m.failed, metrics, details })
}

fn traced(args: &RunArgs) -> Result<Outcome, String> {
    let def = args.workload;
    let keep = args.spans.is_some();
    let spans_path = args
        .spans
        .clone()
        .unwrap_or_else(|| args.work_dir.join(format!("spans-{}.jsonl", std::process::id())));
    remove_if_present(&spans_path)?;

    let mut counts = BTreeMap::new();
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut checks = Vec::new();
    let mut obs = Vec::new();
    let mut samples = Vec::new();
    let mut trace_overhead = 0.0;
    let mut written = 0;
    let mut clock = RefClock::new();
    for scenario in Scenario::ALL {
        let own = scenario == def.scenario;
        let mut on = Tracer::new(true);
        let measured = if own {
            // A short pass to warm up, then untraced, traced, traced,
            // untraced: whatever drifts steadily over the run — caches
            // filling, installs stacking — falls on both kinds alike.
            let seconds = Duration::from_secs_f64(args.seconds);
            let pass = seconds.mul_f64((1.0 - WARM_UP_SHARE) / PASS_ORDER.len() as f64);
            let mut passes = vec![(seconds.mul_f64(WARM_UP_SHARE), false)];
            passes.extend(PASS_ORDER.map(|traced| (pass, traced)));
            let plan =
                Plan { scale: &args.scale, classes: &Class::ALL, setups: 1, passes: &passes };
            let run = run_scenario(scenario, args, &plan, &mut on, &mut clock)?;
            let (mut plain, mut with_spans) = (Measured::default(), run.after);
            // Mean of the passes' medians, not the median of their
            // pooled samples: two passes far apart in a drifting run
            // pool into two humps, whose median is anywhere between.
            let (mut plain_p50, mut traced_p50) = (Vec::new(), Vec::new());
            for (m, (_, traced)) in run.passes.into_iter().zip(&passes).skip(1) {
                let op = m.ops.get(def.op).map_or(&[][..], Vec::as_slice);
                let p50 = median(&op.iter().map(|s| f64::from(s.us)).collect::<Vec<_>>());
                if *traced {
                    traced_p50.push(p50);
                    with_spans.absorb(m);
                } else {
                    plain_p50.push(p50);
                    plain.absorb(m);
                }
            }
            let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
            trace_overhead = mean(&traced_p50) / mean(&plain_p50);
            [plain, with_spans]
        } else {
            let slice = FOREIGN_SLICE.min(Duration::from_secs_f64(args.seconds));
            let passes = [(slice, true)];
            let plan =
                Plan { scale: &Scale::SMOKE, classes: &Class::ALL, setups: 1, passes: &passes };
            let run = run_scenario(scenario, args, &plan, &mut on, &mut clock)?;
            let mut with_spans = run.after;
            run.passes.into_iter().for_each(|m| with_spans.absorb(m));
            [Measured::default(), with_spans]
        };
        written += on
            .write(&spans_path, scenario.name(), written)
            .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
        let [plain, last] = measured;
        attempted += plain.attempted + last.attempted;
        failed += plain.failed + last.failed;
        correct &= plain.checks_hold() && last.correct();
        if own {
            samples = last.ops.iter().map(|(k, v)| (*k, Json::Num(v.len() as f64))).collect();
        }
        checks.push((scenario.name(), checks_json(&last)));
        obs.extend(last.obs);
        counts.insert(scenario, last.counts);
    }

    // The per-layer numbers come from the file, not from memory.
    let spans = read_spans(&spans_path)?;
    if !keep {
        remove_if_present(&spans_path)?;
    }
    let values = layers::evaluate(&spans, &counts, trace_overhead);
    let metrics = values.into_iter().map(|(name, v)| (name, v, crate::unit_of(name))).collect();
    let shares = self_times(&spans).into_iter().map(|(scenario, own)| {
        let total: f64 = own.values().sum();
        (scenario, Json::obj(own.into_iter().map(|(name, us)| (name, Json::num(us / total)))))
    });
    let details = Json::obj([
        ("samples", Json::obj(samples)),
        ("spans", Json::Num(spans.len() as f64)),
        ("checks", Json::obj(checks)),
        ("counts", Json::obj(counts.iter().map(|(s, c)| (s.name(), counts_json(c))))),
        ("self_time_share", Json::obj(shares)),
        (
            "obs_counters",
            Json::obj(obs.into_iter().map(|(k, v)| (k, v.map_or(Json::Null, Json::num)))),
        ),
    ]);
    Ok(Outcome { correct, attempted, failed, metrics, details })
}

fn remove_if_present(path: &Path) -> Result<(), String> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("cannot remove {}: {e}", path.display()))
        }
        _ => Ok(()),
    }
}
