//! The per-layer metrics: which scenario owns each, and how its value
//! comes out of the span dump and the counts the scenarios read from
//! the program's return values. Units and directions live in
//! `BENCHMARK.json`; a unit test holds the two lists together.

use std::collections::BTreeMap;

use crate::stats::{percentile, sorted};
use crate::trace::{durations_by_name, Span};

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scenario {
    Construct,
    RestartPaged,
    QueryExec,
    ServeMixed,
}

impl Scenario {
    pub const ALL: [Scenario; 4] =
        [Scenario::Construct, Scenario::RestartPaged, Scenario::QueryExec, Scenario::ServeMixed];

    pub fn name(self) -> &'static str {
        match self {
            Scenario::Construct => "construct",
            Scenario::RestartPaged => "restart_paged",
            Scenario::QueryExec => "query_exec",
            Scenario::ServeMixed => "serve_mixed",
        }
    }
}

/// How a per-layer value is obtained.
#[derive(Debug, Clone, Copy)]
pub enum How {
    /// A percentile of a span's durations, times a factor that turns
    /// microseconds into the metric's unit.
    Span(&'static str, f64, f64),
    /// A count or ratio the scenario read from public return values.
    Count(&'static str),
    /// A count divided by the summed microseconds of a span.
    PerMicro(&'static str, &'static str),
    /// Summed nanoseconds of the spans with this prefix, per count.
    NanosPer(&'static str, &'static str),
    /// Median of the first span minus the medians of the others, µs.
    Minus(&'static str, &'static [&'static str]),
    /// Sum of the medians of the parts over the median of the whole.
    Accounted(&'static str, &'static [&'static str]),
    /// Computed by the traced run itself.
    TraceOverhead,
}

use How::*;
use Scenario::*;

const US: f64 = 1.0;
const MS: f64 = 1e-3;
const S: f64 = 1e-6;

/// Every per-layer metric, by owning scenario.
pub const LAYER_METRICS: &[(&str, Scenario, How)] = &[
    ("harvest.bootstrap_s", Construct, Span("harvest.bootstrap", 0.5, S)),
    ("harvest.collect_s", Construct, Span("harvest.collect", 0.5, S)),
    ("harvest.infer_s", Construct, Span("harvest.infer", 0.5, S)),
    ("harvest.batch_ms_p50", Construct, Span("harvest.batch", 0.5, MS)),
    ("harvest.docs_per_s", Construct, Count("docs_per_s")),
    ("harvest.accept_ratio", Construct, Count("accept_ratio")),
    ("harvest.fact_count_spread", Construct, Count("fact_count_spread")),
    ("builder.freeze_ms", Construct, Span("builder.freeze", 0.5, MS)),
    ("builder.freeze_delta_us_p50", ServeMixed, Span("builder.freeze_delta", 0.5, US)),
    ("segment_io.write_ms", Construct, Span("segment_store.create", 0.5, MS)),
    ("segment_io.open_us_p50", RestartPaged, Span("segment_store.open", 0.5, US)),
    ("segment_store.install_us_p50", Construct, Span("segment_store.install", 0.5, US)),
    ("segment_store.install_us_p95", Construct, Span("segment_store.install", 0.95, US)),
    ("segment_store.device_wait_share", Construct, Count("device_wait_share")),
    ("segment_store.seal_ms_p50", Construct, Span("segment_store.seal", 0.5, MS)),
    ("segment_store.compact_ms", Construct, Span("segment_store.compact", 0.5, MS)),
    ("segment_store.write_amp", Construct, Count("write_amp")),
    ("segment_store.disk_bytes_per_fact", Construct, Count("disk_bytes_per_fact")),
    ("wal.append_us_p50", Construct, Span("wal.append", 0.5, US)),
    ("wal.fsync_us_p50", Construct, Span("wal.fsync", 0.5, US)),
    ("wal.bytes_per_install", Construct, Count("wal_bytes_per_install")),
    ("wal.flushes", Construct, Count("wal_flushes")),
    ("segmap.base_fault_ms", RestartPaged, Span("segmap.base_fault", 0.5, MS)),
    ("segmap.faults_per_cycle", RestartPaged, Count("faults_per_cycle")),
    ("segmap.spills_per_cycle", RestartPaged, Count("spills_per_cycle")),
    ("segmap.peak_resident_ratio", RestartPaged, Count("peak_resident_ratio")),
    ("segmap.scan_slowdown", RestartPaged, Count("scan_slowdown")),
    ("frames.decode_mvals_per_s", QueryExec, PerMicro("frames_decoded_values", "frames.decode")),
    ("frames.saved_ratio", QueryExec, Count("frames_saved_ratio")),
    ("snapshot.scan_mrows_per_s", QueryExec, PerMicro("scanned_rows", "snapshot.scan")),
    ("stats.build_ms", RestartPaged, Span("stats.build", 0.5, MS)),
    ("parse.point_us_p50", QueryExec, Span("parse.point", 0.5, US)),
    ("parse.join_us_p50", QueryExec, Span("parse.join", 0.5, US)),
    ("parse.groupby_us_p50", QueryExec, Span("parse.groupby", 0.5, US)),
    ("plan.point_us_p50", QueryExec, Span("plan.point", 0.5, US)),
    ("plan.join_us_p50", QueryExec, Span("plan.join", 0.5, US)),
    ("plan.groupby_us_p50", QueryExec, Span("plan.groupby", 0.5, US)),
    ("exec.point_us_p50", QueryExec, Span("exec.point", 0.5, US)),
    ("exec.join_ms_p50", QueryExec, Span("exec.join", 0.5, MS)),
    ("exec.groupby_ms_p50", QueryExec, Span("exec.groupby", 0.5, MS)),
    ("exec.rows_examined_per_result", QueryExec, Count("rows_examined_per_result")),
    ("render.ns_per_row", QueryExec, NanosPer("render.", "rendered_rows")),
    ("service.boot_ms", RestartPaged, Span("service.from_view", 0.5, MS)),
    ("service.apply_delta_us_p50", Construct, Span("service.apply_delta", 0.5, US)),
    ("service.query_point_us_p99", QueryExec, Span("query.point", 0.99, US)),
    ("service.query_join_us_p95", QueryExec, Span("query.join", 0.95, US)),
    ("service.hit_us_p50", ServeMixed, Span("service.hit", 0.5, US)),
    (
        "service.miss_overhead_us",
        QueryExec,
        Minus("service.query.point", &["parse.point", "plan.point", "exec.point"]),
    ),
    ("service.result_hit_ratio", ServeMixed, Count("result_hit_ratio")),
    ("service.plan_hit_ratio", ServeMixed, Count("plan_hit_ratio")),
    ("service.invalidated_per_install", ServeMixed, Count("invalidated_per_install")),
    ("service.evictions", ServeMixed, Count("evictions")),
    ("view.patch_us_p50", ServeMixed, Span("view.patch", 0.5, US)),
    ("view.patch_us_p95", ServeMixed, Span("view.patch", 0.95, US)),
    ("view.patched_ratio", ServeMixed, Count("view_patched_ratio")),
    ("partition.split_us_p50", ServeMixed, Span("partition.split", 0.5, US)),
    ("router.single_us_p50", ServeMixed, Span("router.single", 0.5, US)),
    ("router.scatter_us_p50", ServeMixed, Span("router.scatter", 0.5, US)),
    ("router.read_us_p99", ServeMixed, Span("serve.read", 0.99, US)),
    ("router.overhead_us", ServeMixed, Minus("router.single_hit", &["service.hit"])),
    ("router.scatter_share", ServeMixed, Count("scatter_share")),
    ("router.install_ms_p50", ServeMixed, Span("router.apply_delta", 0.5, MS)),
    ("router.install_ms_p95", ServeMixed, Span("router.apply_delta", 0.95, MS)),
    ("admission.shed_ratio", ServeMixed, Count("shed_ratio")),
    (
        "breakdown.first_answer_accounted",
        RestartPaged,
        Accounted(
            "restart.first_answer",
            &[
                "segment_store.open",
                "segmap.base_fault",
                "service.from_view",
                "restart.first_query",
            ],
        ),
    ),
    (
        "breakdown.point_accounted",
        QueryExec,
        Accounted("query.point", &["parse.point", "plan.point", "exec.point", "render.point"]),
    ),
    (
        "breakdown.join_accounted",
        QueryExec,
        Accounted("query.join", &["parse.join", "plan.join", "exec.join", "render.join"]),
    ),
    (
        "breakdown.groupby_accounted",
        QueryExec,
        Accounted(
            "query.groupby",
            &["parse.groupby", "plan.groupby", "exec.groupby", "render.groupby"],
        ),
    ),
    ("trace_overhead_ratio", Construct, TraceOverhead),
];

/// Evaluates every per-layer metric. A metric whose spans or counts are
/// missing reads 0 and is named on stderr.
pub fn evaluate(
    spans: &[Span],
    counts: &BTreeMap<Scenario, BTreeMap<&'static str, f64>>,
    trace_overhead: f64,
) -> Vec<(&'static str, f64)> {
    let durations: BTreeMap<&str, Vec<f64>> =
        durations_by_name(spans).into_iter().map(|(k, v)| (k, sorted(v))).collect();
    let mut missing = Vec::new();
    let values = LAYER_METRICS
        .iter()
        .map(|&(name, scenario, how)| {
            let pct = |span: &str, p: f64| durations.get(span).map(|d| percentile(d, p));
            let sum = |prefix: &str| -> Option<f64> {
                let matching: Vec<f64> = durations
                    .iter()
                    .filter(|(k, _)| k.starts_with(prefix))
                    .map(|(_, d)| d.iter().sum::<f64>())
                    .collect();
                (!matching.is_empty()).then(|| matching.iter().sum())
            };
            let count = |key: &str| counts.get(&scenario).and_then(|c| c.get(key)).copied();
            let medians = |parts: &[&str]| parts.iter().map(|s| pct(s, 0.5)).sum::<Option<f64>>();
            let value = match how {
                Span(span, p, factor) => pct(span, p).map(|us| us * factor),
                Count(key) => count(key),
                PerMicro(key, span) => count(key).zip(sum(span)).map(|(n, us)| n / us),
                NanosPer(prefix, key) => {
                    sum(prefix).zip(count(key)).map(|(us, n)| us * 1e3 / n.max(1.0))
                }
                Minus(whole, parts) => pct(whole, 0.5).zip(medians(parts)).map(|(w, p)| w - p),
                Accounted(whole, parts) => medians(parts).zip(pct(whole, 0.5)).map(|(p, w)| p / w),
                TraceOverhead => Some(trace_overhead),
            };
            if value.is_none() {
                missing.push(name);
            }
            (name, value.filter(|v| v.is_finite()).unwrap_or(0.0))
        })
        .collect();
    if !missing.is_empty() {
        eprintln!("kbbench: no spans or counts for {missing:?}; reported as 0");
    }
    values
}
