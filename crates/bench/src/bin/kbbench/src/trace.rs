//! The benchmark's own spans: recorded in memory around calls into each
//! layer's public functions, written as JSON lines when a scenario
//! ends, and read back from that file to compute the per-layer
//! numbers — so a later change that records spans inside the program
//! can keep this reader and this file format.
//!
//! A span is `{scenario, id, name, start_ns, end_ns, parent, op}`:
//! `parent` is the id of the span that was open when this one started
//! (or `null`), `op` numbers the benchmark operation it belongs to. A
//! layer's self time is its span minus the part its children cover.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub scenario: String,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u32,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Handle of an open span; [`Tracer::exit`] closes it.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

const OFF: SpanId = SpanId(u32::MAX);

/// Records spans when on; when off every call returns at once without
/// reading the clock, so an untraced run records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<RawSpan>,
    open: Vec<u32>,
    op: u32,
}

#[derive(Debug)]
struct RawSpan {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    op: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self { on, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Starts the next benchmark operation; spans entered from now on
    /// carry its number.
    pub fn next_op(&mut self) {
        if self.on {
            self.op += 1;
        }
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return OFF;
        }
        let id = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(RawSpan {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        SpanId(id)
    }

    pub fn exit(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans[id.0 as usize].end_ns = now;
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(id.0), "spans must close innermost first");
    }

    /// Adds a child span of `parent` from a duration the program itself
    /// reported (a `DurabilityCost`, a `ViewUpdate`, `PipelineStats`):
    /// it starts `offset_us` into the parent and lasts `micros`.
    pub fn reported(&mut self, parent: SpanId, name: &'static str, offset_us: f64, micros: f64) {
        if !self.on {
            return;
        }
        let p = &self.spans[parent.0 as usize];
        let start_ns = p.start_ns + (offset_us * 1e3) as u64;
        let (parent, op) = (Some(parent.0), p.op);
        self.spans.push(RawSpan {
            name,
            start_ns,
            end_ns: start_ns + (micros * 1e3) as u64,
            parent,
            op,
        });
    }

    /// Appends the recorded spans to `path` as JSON lines and forgets
    /// them.
    pub fn write(&mut self, path: &Path, scenario: &str, id_base: u32) -> std::io::Result<u32> {
        let file = File::options().create(true).append(true).open(path)?;
        let mut out = BufWriter::new(file);
        for (i, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("scenario", Json::str(scenario)),
                ("id", Json::Num((id_base + i as u32) as f64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("parent", s.parent.map_or(Json::Null, |p| Json::Num((id_base + p) as f64))),
                ("op", Json::Num(s.op as f64)),
            ]);
            writeln!(out, "{}", line.compact())?;
        }
        out.flush()?;
        let written = self.spans.len() as u32;
        self.spans.clear();
        Ok(written)
    }
}

/// Reads a span dump back; ids are positions in the returned vector.
pub fn read_spans(path: &Path) -> Result<Vec<Span>, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let mut spans = Vec::new();
    for (n, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        let v = Json::parse(&line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        let num = |k: &str| v.get(k).and_then(Json::as_f64);
        let text = |k: &str| v.get(k).and_then(Json::as_str);
        let (Some(scenario), Some(name), Some(start), Some(end), Some(op)) =
            (text("scenario"), text("name"), num("start_ns"), num("end_ns"), num("op"))
        else {
            return Err(format!("{}:{}: not a span", path.display(), n + 1));
        };
        spans.push(Span {
            scenario: scenario.to_string(),
            name: name.to_string(),
            start_ns: start as u64,
            end_ns: end as u64,
            parent: num("parent").map(|p| p as u32),
            op: op as u32,
        });
    }
    Ok(spans)
}

/// Durations in microseconds of every span, by name.
pub fn durations_by_name(spans: &[Span]) -> BTreeMap<&str, Vec<f64>> {
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        by_name.entry(&s.name).or_default().push(s.micros());
    }
    by_name
}

/// Total self time in microseconds by scenario and span name: each
/// span's duration minus the durations of its direct children.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, BTreeMap<String, f64>> {
    let mut own: Vec<f64> = spans.iter().map(Span::micros).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= s.micros();
        }
    }
    let mut by_name: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(own) {
        *by_name.entry(s.scenario.clone()).or_default().entry(s.name.clone()).or_default() +=
            t.max(0.0);
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_untraced_run_records_nothing() {
        let mut t = Tracer::new(false);
        t.next_op();
        let a = t.enter("a");
        t.reported(a, "b", 0.0, 5.0);
        t.exit(a);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn spans_survive_the_file_and_self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.next_op();
        let outer = t.enter("outer");
        let inner = t.enter("inner");
        t.exit(inner);
        t.reported(outer, "reported", 1.0, 2.0);
        t.exit(outer);
        // Make the arithmetic exact.
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 10_000;
        t.spans[1].start_ns = 1_000;
        t.spans[1].end_ns = 4_000;
        t.spans[2].start_ns = 5_000;
        t.spans[2].end_ns = 7_000;

        t.next_op();
        let second = t.enter("outer");
        t.exit(second);
        t.spans[3].start_ns = 0;
        t.spans[3].end_ns = 1_000;

        let dir = std::env::temp_dir().join(format!("kbbench-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.jsonl");
        std::fs::remove_file(&path).ok();
        assert_eq!(t.write(&path, "test", 0).unwrap(), 4);
        let spans = read_spans(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!((spans[0].op, spans[3].op), (1, 2));
        let own = &self_times(&spans)["test"];
        assert_eq!(own["outer"], 10.0 - 3.0 - 2.0 + 1.0);
        assert_eq!(own["inner"], 3.0);
        assert_eq!(durations_by_name(&spans)["outer"], vec![10.0, 1.0]);
    }
}
