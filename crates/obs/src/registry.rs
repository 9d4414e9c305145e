//! The metric registry: a named catalog of counters, gauges and
//! histograms that renders as an aligned text table (for humans) and a
//! stable JSON object (for machines — the CI schema check and the bench
//! harness blobs parse this form).
//!
//! ## Naming scheme
//!
//! Metric names are `layer.component.metric`, lowercase with
//! underscores inside a segment: `harvest.facts.accepted`,
//! `store.snapshot.freeze_us`, `query.cache.result_hits`. Histograms of
//! durations carry a `_us` suffix (all spans record microseconds).
//!
//! ## Two registration styles
//!
//! * **Get-or-create** ([`counter`](Registry::counter) /
//!   [`gauge`](Registry::gauge) / [`histogram`](Registry::histogram)):
//!   free functions deep in a pipeline share one handle per name. Used
//!   by the harvest and storage layers.
//! * **Register-replace** ([`register_counter`](Registry::register_counter)
//!   and friends): a component that *owns* its metric instances (so its
//!   own readouts stay exact even when several instances coexist, as in
//!   parallel tests) publishes them under a name, displacing whatever
//!   was there. Used by `QueryService`.
//!
//! The process-global registry is [`global()`]; deterministic tests
//! build a private `Registry` (usually via [`Registry::with_clock`] and
//! a [`ManualClock`](crate::ManualClock)) instead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};

use crate::clock::{Clock, WallClock};
use crate::metrics::{Counter, Gauge, Histogram, SpanTimer};

/// One registered metric.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named catalog of metrics plus the clock every
/// [`span`](Registry::span) reads. See the module docs for the naming
/// scheme and the two registration styles.
#[derive(Debug)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
    clock: Arc<dyn Clock>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry on the real ([`WallClock`]) clock.
    pub fn new() -> Self {
        Self::with_clock(Arc::new(WallClock))
    }

    /// An empty registry on an injected clock (tests pass a
    /// [`ManualClock`](crate::ManualClock) so span durations are exact).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Registry { metrics: Mutex::new(BTreeMap::new()), clock }
    }

    /// The clock spans started from this registry read.
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut map = self.metrics.lock().expect("registry poisoned");
        let m = map.entry(name.to_string()).or_insert_with(make);
        m.clone()
    }

    /// The counter registered under `name`, created at zero on first
    /// use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_insert(name, || Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// The gauge registered under `name`, created at zero on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// The histogram registered under `name`, created with the default
    /// microsecond latency buckets on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.get_or_insert(name, || Metric::Histogram(Arc::new(Histogram::latency()))) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    /// Publishes a caller-owned counter under `name`, replacing any
    /// previous registration of that name.
    pub fn register_counter(&self, name: &str, counter: Arc<Counter>) {
        self.metrics
            .lock()
            .expect("registry poisoned")
            .insert(name.to_string(), Metric::Counter(counter));
    }

    /// Publishes a caller-owned gauge under `name`, replacing any
    /// previous registration of that name.
    pub fn register_gauge(&self, name: &str, gauge: Arc<Gauge>) {
        self.metrics
            .lock()
            .expect("registry poisoned")
            .insert(name.to_string(), Metric::Gauge(gauge));
    }

    /// Publishes a caller-owned histogram under `name`, replacing any
    /// previous registration of that name.
    pub fn register_histogram(&self, name: &str, histogram: Arc<Histogram>) {
        self.metrics
            .lock()
            .expect("registry poisoned")
            .insert(name.to_string(), Metric::Histogram(histogram));
    }

    /// Starts a [`SpanTimer`] on the histogram registered under `name`
    /// (get-or-create), reading this registry's clock. Dropping the
    /// returned timer records the elapsed microseconds.
    pub fn span(&self, name: &str) -> SpanTimer {
        SpanTimer::start(self.clock(), self.histogram(name))
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.lock().expect("registry poisoned").len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Zeroes every registered metric (the handles stay valid).
    pub fn reset(&self) {
        for (_, m) in self.metrics.lock().expect("registry poisoned").iter() {
            match m {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }

    /// Renders every metric as an aligned text table, sorted by name.
    pub fn render_text(&self) -> String {
        let map = self.metrics.lock().expect("registry poisoned");
        let mut rows: Vec<(String, &'static str, String)> = Vec::with_capacity(map.len());
        for (name, m) in map.iter() {
            let value = match m {
                Metric::Counter(c) => c.get().to_string(),
                Metric::Gauge(g) => g.get().to_string(),
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    format!(
                        "count={} sum={} p50={} p95={} p99={}",
                        s.count, s.sum, s.p50, s.p95, s.p99
                    )
                }
            };
            rows.push((name.clone(), m.kind(), value));
        }
        drop(map);
        let name_w = rows.iter().map(|(n, _, _)| n.len()).max().unwrap_or(6).max("metric".len());
        let kind_w = "histogram".len();
        let mut out = String::new();
        let _ = writeln!(out, "{:<name_w$}  {:<kind_w$}  value", "metric", "type");
        let _ = writeln!(out, "{}", "-".repeat(name_w + kind_w + 9));
        for (name, kind, value) in rows {
            let _ = writeln!(out, "{name:<name_w$}  {kind:<kind_w$}  {value}");
        }
        out
    }

    /// Renders every metric as one compact JSON object with a stable
    /// shape and stable (sorted) key order:
    ///
    /// ```json
    /// {"counters":{"a.b":1},
    ///  "gauges":{"c.d":-2},
    ///  "histograms":{"e.f_us":{"count":1,"sum":9,"p50":10,"p95":10,"p99":10}}}
    /// ```
    pub fn render_json(&self) -> String {
        let map = self.metrics.lock().expect("registry poisoned");
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut histograms = String::new();
        for (name, m) in map.iter() {
            match m {
                Metric::Counter(c) => {
                    append_entry(&mut counters, name, &c.get().to_string());
                }
                Metric::Gauge(g) => {
                    append_entry(&mut gauges, name, &g.get().to_string());
                }
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    let obj = format!(
                        "{{\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                        s.count, s.sum, s.p50, s.p95, s.p99
                    );
                    append_entry(&mut histograms, name, &obj);
                }
            }
        }
        format!(
            "{{\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\"histograms\":{{{histograms}}}}}"
        )
    }
}

/// Appends `"name":value` to a JSON object body, comma-separating from
/// any previous entry and escaping the name.
fn append_entry(body: &mut String, name: &str, value: &str) {
    if !body.is_empty() {
        body.push(',');
    }
    body.push('"');
    for ch in name.chars() {
        match ch {
            '"' => body.push_str("\\\""),
            '\\' => body.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(body, "\\u{:04x}", c as u32);
            }
            c => body.push(c),
        }
    }
    body.push_str("\":");
    body.push_str(value);
}

/// The process-global registry: what `kbkit metrics` renders and what
/// the instrumented layers write to by default.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn get_or_create_shares_one_handle_per_name() {
        let r = Registry::new();
        let a = r.counter("layer.component.events");
        let b = r.counter("layer.component.events");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_clash_panics() {
        let r = Registry::new();
        let _ = r.counter("x.y.z");
        let _ = r.gauge("x.y.z");
    }

    #[test]
    fn register_replace_displaces_previous_instance() {
        let r = Registry::new();
        let old = Arc::new(Counter::new());
        old.add(10);
        r.register_counter("q.c.hits", old);
        let new = Arc::new(Counter::new());
        new.add(3);
        r.register_counter("q.c.hits", new);
        assert!(r.render_json().contains("\"q.c.hits\":3"));
    }

    #[test]
    fn span_records_into_named_histogram_with_injected_clock() {
        let clock = ManualClock::shared(0);
        let r = Registry::with_clock(clock.clone());
        {
            let _span = r.span("q.parse_us");
            clock.advance(120);
        }
        let h = r.histogram("q.parse_us");
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 120);
        assert_eq!(h.quantile(0.5), 200); // (100, 200] bucket
    }

    #[test]
    fn text_render_is_aligned_and_sorted() {
        let r = Registry::new();
        r.counter("b.long.counter_name").add(7);
        r.gauge("a.gauge").set(-4);
        r.histogram("c.lat_us").observe(3);
        let text = r.render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("metric"));
        // Sorted: a.gauge before b.long.counter_name before c.lat_us.
        assert!(lines[2].starts_with("a.gauge"));
        assert!(lines[3].starts_with("b.long.counter_name"));
        assert!(lines[4].starts_with("c.lat_us"));
        assert!(lines[3].contains(" counter "));
        assert!(lines[4].contains("count=1"));
    }

    #[test]
    fn json_render_is_stable_and_escaped() {
        let clock = ManualClock::shared(0);
        let r = Registry::with_clock(clock.clone());
        r.counter("q.hits").add(2);
        r.gauge("s.depth").set(-1);
        {
            let _span = r.span("q.lat_us");
            clock.advance(9);
        }
        let json = r.render_json();
        assert_eq!(
            json,
            "{\"counters\":{\"q.hits\":2},\"gauges\":{\"s.depth\":-1},\
             \"histograms\":{\"q.lat_us\":{\"count\":1,\"sum\":9,\"p50\":10,\"p95\":10,\"p99\":10}}}"
        );
        // Re-render: byte-identical (stable ordering).
        assert_eq!(json, r.render_json());
    }

    #[test]
    fn reset_zeroes_everything_but_keeps_handles() {
        let r = Registry::new();
        let c = r.counter("a.b");
        c.add(5);
        r.histogram("a.h").observe(1);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(r.histogram("a.h").count(), 0);
        c.inc();
        assert!(r.render_json().contains("\"a.b\":1"));
    }

    #[test]
    fn empty_registry_renders_valid_forms() {
        let r = Registry::new();
        assert!(r.is_empty());
        assert_eq!(r.render_json(), "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
        assert!(r.render_text().starts_with("metric"));
    }
}
