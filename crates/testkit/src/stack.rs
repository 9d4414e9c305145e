//! The stack-wide state machine: a workload of writes, lifecycle events
//! and reads ([`gen::workload`], or a list of [`Step`]s written out)
//! replayed step by step into the reference model [`RefKb`] and into
//! every production configuration, each held to the reference after
//! every step. The live `KbBuilder` and its freeze take every write;
//! the `SegmentedSnapshot` chain, a durable `SegmentStore` (sealed,
//! compacted, crashed at a WAL byte, reopened lazily or under half its
//! base's frames), a `QueryService` and `KbRouter`s at 1 and 4
//! partitions see installs only, the last three with standing views and
//! the routers with a subscription each. `Install` freezes the pending
//! writes once, against the store's view, and stacks that delta
//! everywhere, as `kbkit harvest --incremental` does. `Crash` cuts the
//! WAL and the reference rolls back to its last complete record; a
//! crash or a reopen restarts the writer, the chain and the serving
//! tier from the surviving deltas.
//!
//! **Which configurations are compared with each other.** Each is
//! judged by the reference through term strings, as its term ids are
//! its own. Only the service and the routers are also compared byte for
//! byte: they start from one base and stack the same delta `Arc`s, so
//! they share term ids and statistics and plan alike, and under
//! `LIMIT`/`OFFSET` without `ORDER BY`, where the engine picks among
//! tied rows, they must pick alike. The builder interns in its own
//! order and a compacted chain or store enumerates in another, so their
//! picks may differ, as the reference allows.
//!
//! [`replay`] is the one entry point, for drawn cases ([`replay_drawn`])
//! and written-out ones alike. A divergence panics with its step and
//! the steps up to it as a `#[test]`, to be kept with the others in
//! `tests/stack_conformance.rs`'s `mod regressions`.

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use kb_obs::Registry;
use kb_query::{
    execute_traced, parse, plan, QueryOutput, QueryService, Rows, SelectQuery, StatsCatalog,
    ViewId, ViewUpdate, DEFAULT_CACHE_CAPACITY,
};
use kb_serve::{AdmissionConfig, KbRouter, Subscription};
use kb_store::{
    ntriples, segment_io, Compactor, DeltaSegment, IndexChoice, KbBuilder, KbRead, KbReadBatch,
    KbSnapshot, Manifest, SegmentRegion, SegmentStore, SegmentedSnapshot, StoreOptions, Triple,
    TripleBatch, TriplePattern, Wal, BATCH_ROWS, WAL_HEADER_LEN,
};
use proptest::{test_seed, Strategy, TestRng};

use crate::gen::{self, Budget, Op, Step, Write};
use crate::{assert_conforms, assert_facts_conform, RefKb};

/// How often each path was reached, by name: a step kind (`Install`),
/// a counter of the serving tier (`service view.delta_patched`,
/// `router view.reexecuted`, `router serve.routed_single`), `crash
/// inside a record`, `crash on a record boundary`, `stack 8 deep`,
/// `budgeted page faults`, `budgeted spills`, `a Query with rows`.
pub type Coverage = BTreeMap<String, u64>;

/// Adds `times` to `path`.
pub fn reach(coverage: &mut Coverage, path: &str, times: u64) {
    *coverage.entry(path.to_string()).or_default() += times;
}

const NO_FSYNC: StoreOptions = StoreOptions { fsync: false, seal_every: 0, memory_budget: None };

/// One install, as the runner keeps it to restart from: the delta every
/// configuration stacked, and the writer and the reference after it.
struct Installed {
    delta: Arc<DeltaSegment>,
    live: KbBuilder,
    written: RefKb,
}

/// The configurations with standing views: a service and routers at 1
/// and at 4 partitions, over one base and the installed deltas, each
/// counting into a registry of its own.
struct Serving {
    service: QueryService,
    routers: [KbRouter; 2],
    registries: [Registry; 3],
}

impl Serving {
    fn new(base: &Arc<KbSnapshot>, installs: &[Installed]) -> Self {
        let registries = [Registry::new(), Registry::new(), Registry::new()];
        let [r0, r1, r4] = &registries;
        let service =
            QueryService::with_instrumentation(Arc::clone(base), DEFAULT_CACHE_CAPACITY, r0);
        let config = AdmissionConfig::default();
        let router = |k, r| KbRouter::with_config(Arc::clone(base), k, config.clone(), r);
        let routers = [router(1, r1), router(4, r4)];
        for Installed { delta, .. } in installs {
            service.apply_delta(Arc::clone(delta));
            routers.iter().for_each(|r| r.apply_delta(Arc::clone(delta)));
        }
        Serving { service, routers, registries }
    }

    /// The three views, the service's first.
    fn views(&self) -> [Arc<dyn KbRead + Send + Sync>; 3] {
        let [one, four] = &self.routers;
        [self.service.snapshot(), one.view(), four.view()]
    }

    fn results(&self, ids: &[ViewId; 3]) -> [Arc<QueryOutput>; 3] {
        let [one, four] = &self.routers;
        let service = self.service.view_result(ids[0]);
        [service, one.view_result(ids[1]), four.view_result(ids[2])].map(Option::unwrap)
    }
}

/// A standing view, registered on the service and on both routers.
struct Standing {
    query: SelectQuery,
    /// Its ids there.
    ids: [ViewId; 3],
    /// A subscription on each router.
    subs: [Subscription; 2],
    /// The answer each of the three reported last, at registration or
    /// in an update.
    last: [Arc<QueryOutput>; 3],
}

impl Standing {
    fn register(text: &str, serving: &Serving) -> Self {
        let [one, four] = &serving.routers;
        let ids = [
            serving.service.register_view(text).unwrap(),
            one.register_view(text).unwrap(),
            four.register_view(text).unwrap(),
        ];
        let subs = [one.subscribe(ids[1]), four.subscribe(ids[2])];
        Standing { query: parse(text).unwrap(), last: serving.results(&ids), ids, subs }
    }
}

static STORES: AtomicUsize = AtomicUsize::new(0);

/// The configurations, the reference, and what the runner keeps to
/// restart them.
struct Stack {
    dir: PathBuf,
    /// The empty base every configuration starts from.
    base: Arc<KbSnapshot>,
    live: KbBuilder,
    written: RefKb,
    /// The writes since the last install.
    pending: KbBuilder,
    installs: Vec<Installed>,
    /// Installs sealed into delta files or compacted into the base; the
    /// WAL holds the rest.
    durable: usize,
    chain: SegmentedSnapshot,
    store: Option<SegmentStore>,
    serving: Serving,
    views: Vec<Standing>,
    /// The triple the last write named, scanned under every mask.
    probe: [u32; 3],
    /// What is being checked, for a failure's message.
    at: &'static str,
    coverage: Coverage,
}

impl Stack {
    fn new() -> Self {
        let n = STORES.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("kbkit-stack-{}-{n}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let base = KbBuilder::new().freeze().into_shared();
        let store = SegmentStore::create(&dir, Arc::clone(&base), NO_FSYNC).unwrap();
        Stack {
            dir,
            live: KbBuilder::new(),
            written: RefKb::default(),
            pending: KbBuilder::new(),
            installs: Vec::new(),
            durable: 0,
            chain: SegmentedSnapshot::from_base(Arc::clone(&base)),
            store: Some(store),
            serving: Serving::new(&base, &[]),
            base,
            views: Vec::new(),
            probe: [0; 3],
            at: "the runner",
            coverage: Coverage::new(),
        }
    }

    fn store(&self) -> &SegmentStore {
        self.store.as_ref().expect("the store is open")
    }

    /// The reference of the installed writes.
    fn installed(&self) -> RefKb {
        self.installs.last().map_or_else(RefKb::default, |i| i.written.clone())
    }

    fn apply(&mut self, step: &Step) {
        let kind = format!("{step:?}");
        reach(&mut self.coverage, kind.split([' ', '(']).next().unwrap(), 1);
        match *step {
            Step::Assert { s, p, o, confidence, span, source } => {
                self.write((Write::Assert { confidence, span, source }, s, p, o))
            }
            Step::Retract { s, p, o } => self.write((Write::Retract, s, p, o)),
            Step::Install => self.install(),
            Step::Seal => {
                self.store.as_mut().unwrap().seal().unwrap();
                self.durable = self.installs.len();
            }
            Step::Compact => {
                self.store.as_mut().unwrap().compact(&Compactor::default(), true).unwrap();
                self.durable = self.installs.len();
                self.chain = SegmentedSnapshot::from_base(Arc::new(self.chain.compact()));
            }
            Step::Crash { wal_byte } => {
                let budget = self.store().memory_budget().limit();
                self.restart(budget, Some(wal_byte));
            }
            Step::Reopen { budget: Budget::Lazy } => self.restart(None, None),
            Step::Reopen { budget: Budget::HalfBaseFrames } => {
                let dir = self.store().dir();
                let image = std::fs::read(dir.join(Manifest::load(dir).unwrap().base)).unwrap();
                let regions = segment_io::region_map(&image).unwrap();
                let frames = regions.into_iter().find(|(r, _)| *r == SegmentRegion::Frames);
                self.restart(Some(frames.unwrap().1.len() / 2), None);
            }
            Step::Register(ref text) => self.views.push(Standing::register(text, &self.serving)),
            Step::Unregister(i) if !self.views.is_empty() => {
                let view = self.views.remove(i % self.views.len());
                let [one, four] = &self.serving.routers;
                assert!(self.serving.service.unregister_view(view.ids[0]));
                assert!(one.unregister_view(view.ids[1]) && four.unregister_view(view.ids[2]));
            }
            Step::Unregister(_) | Step::Query(_) => {}
        }
        if self.store().view().delta_count() >= 8 {
            reach(&mut self.coverage, "stack 8 deep", 1);
        }
    }

    fn write(&mut self, op: Op) {
        gen::apply(&mut self.live, op);
        gen::apply(&mut self.pending, op);
        gen::record(&mut self.written, op);
        self.probe = [op.1, op.2, op.3];
    }

    /// Freezes the pending writes once against the store's view, stacks
    /// the delta on every configuration, and checks each view update the
    /// service returns and the routers push.
    fn install(&mut self) {
        let delta = std::mem::take(&mut self.pending).freeze_delta(&self.store().view());
        let delta = Arc::new(delta);
        self.store.as_mut().unwrap().install_delta(Arc::clone(&delta)).unwrap();
        self.chain = self.chain.with_delta(Arc::clone(&delta));
        let (live, written) = (self.live.clone(), self.written.clone());
        self.installs.push(Installed { delta: Arc::clone(&delta), live, written });

        self.at = "the view updates";
        let service = self.serving.service.apply_delta(Arc::clone(&delta));
        let mut updates: Vec<_> = service.into_iter().map(|u| (0, Arc::new(u))).collect();
        for (k, router) in self.serving.routers.iter().enumerate() {
            router.apply_delta(Arc::clone(&delta));
            for view in &self.views {
                while let Some(update) = view.subs[k].try_recv().unwrap() {
                    updates.push((k + 1, update));
                }
            }
        }
        let served = self.serving.views();
        for (k, update) in updates {
            let view = self.views.iter_mut().find(|v| v.ids[k] == update.id).unwrap();
            check_update(&update, &view.last[k], served[k].as_ref());
            view.last[k] = Arc::clone(&update.output);
        }
    }

    /// Adds the view counters of the serving tier, and the paging
    /// counters of the store if it ran under a budget: before either is
    /// replaced, and at the end.
    fn tally(&mut self) {
        for (registry, who) in self.serving.registries.iter().zip(["service", "router", "router"]) {
            for counter in ["view.delta_patched", "view.reexecuted", "serve.routed_single"] {
                let path = format!("{who} {counter}");
                reach(&mut self.coverage, &path, registry.counter(counter).get());
            }
        }
        let meter = self.store().memory_budget();
        if meter.limit().is_some() {
            let (faults, spills) = (meter.page_faults() as u64, meter.spills() as u64);
            reach(&mut self.coverage, "budgeted page faults", faults);
            reach(&mut self.coverage, "budgeted spills", spills);
        }
    }

    /// Closes the store — cutting its WAL to `wal_byte` bytes past the
    /// header, if given — and opens it again under `budget`; then
    /// restarts the writer, the chain and the serving tier from the
    /// installs that survived, and registers the views again.
    fn restart(&mut self, budget: Option<usize>, wal_byte: Option<usize>) {
        self.tally();
        self.store = None;
        if let Some(wal_byte) = wal_byte {
            let wal = self.dir.join(Manifest::load(&self.dir).unwrap().wal);
            let bytes = std::fs::read(&wal).unwrap();
            let mut end = WAL_HEADER_LEN as usize;
            let mut boundaries = vec![end];
            for (_, payload) in Wal::replay(&wal).unwrap().records {
                end += 16 + payload.len();
                boundaries.push(end);
            }
            assert_eq!(boundaries.len() - 1, self.installs.len() - self.durable, "WAL records");
            let cut = (WAL_HEADER_LEN as usize + wal_byte).min(bytes.len());
            std::fs::write(&wal, &bytes[..cut]).unwrap();
            let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            self.installs.truncate(self.durable + complete);
            let on_a_boundary = usize::from(boundaries.contains(&cut));
            let path = ["crash inside a record", "crash on a record boundary"][on_a_boundary];
            reach(&mut self.coverage, path, 1);
        }
        self.at = "the reopened store";
        let options = StoreOptions { memory_budget: budget, ..NO_FSYNC };
        let store = SegmentStore::open_with(&self.dir, options).unwrap();
        let report = store.recovery_report();
        assert!(!report.degraded(), "{report:?}");
        assert_eq!(report.wal_replayed, self.installs.len() - self.durable, "{report:?}");
        self.store = Some(store);

        self.written = self.installed();
        self.live = self.installs.last().map_or_else(KbBuilder::new, |i| i.live.clone());
        self.pending = KbBuilder::new();
        let base = SegmentedSnapshot::from_base(Arc::clone(&self.base));
        self.chain = self.installs.iter().fold(base, |c, i| c.with_delta(Arc::clone(&i.delta)));
        self.serving = Serving::new(&self.base, &self.installs);
        for view in &mut self.views {
            *view = Standing::register(&view.query.to_string(), &self.serving);
        }
    }

    /// Holds the seven configurations to their references — facts, scans
    /// and dump; under a `Query` step its answer too — and the standing
    /// views to theirs.
    fn check(&mut self, step: &Step) {
        let frozen = self.live.snapshot();
        let store = self.store().view();
        let served = self.serving.views();
        let installed = self.installed();
        let [s, p, o] = self.probe;
        let probe = [format!("e{s}"), format!("r{p}"), format!("e{o}")];
        // Each with its reference and the sorted runs a scan of it yields.
        let configurations: [(&'static str, &dyn KbRead, &RefKb, usize); 7] = [
            ("the builder", &self.live, &self.written, 1),
            ("the frozen builder", &frozen, &self.written, 1),
            ("the chain", &self.chain, &installed, 1),
            ("the store", &store, &installed, 1),
            ("the service", served[0].as_ref(), &installed, 1),
            ("the router at 1 partition", served[1].as_ref(), &installed, 1),
            ("the router at 4 partitions", served[2].as_ref(), &installed, 4),
        ];
        let query = if let Step::Query(text) = step { Some(parse(text).unwrap()) } else { None };
        for (name, view, reference, runs) in configurations {
            self.at = name;
            assert_facts_conform(view, reference);
            assert_eq!(view.len(), reference.facts().count(), "len");
            check_scans(view, reference, &probe, runs);
            let dump = ntriples::to_string(view).unwrap();
            assert_facts_conform(&ntriples::from_str(&dump).unwrap(), reference);
            if let Some(query) = &query {
                let compiled = plan(query, view, &StatsCatalog::build(view)).unwrap();
                let (out, trace) = execute_traced(&compiled, view);
                assert_eq!(compiled.describe(view).len(), trace.op_rows.len(), "operators traced");
                assert_eq!(compiled.est_rows().len(), trace.op_rows.len(), "operators estimated");
                assert_conforms(query, &out, view, reference);
            }
        }

        // The views and the served answer conform, and the service and
        // the routers render them alike.
        self.at = "the standing views and the served answers";
        let results = |view: &Standing| self.serving.results(&view.ids);
        let mut answers: Vec<_> = self.views.iter().map(|v| (&v.query, results(v))).collect();
        if let (Some(query), Step::Query(text)) = (&query, step) {
            let [one, four] = &self.serving.routers;
            let service = self.serving.service.query(text).unwrap();
            reach(&mut self.coverage, "a Query with rows", u64::from(!service.rows.is_empty()));
            answers.push((query, [service, one.query(text).unwrap(), four.query(text).unwrap()]));
        }
        for (query, outs) in answers {
            let rendered: Vec<String> = (outs.iter().zip(&served))
                .map(|(out, kb)| {
                    assert_conforms(query, out, kb.as_ref(), &installed);
                    out.render(kb.as_ref())
                })
                .collect();
            assert!(rendered.iter().all(|r| *r == rendered[0]), "{query}: {rendered:?}");
        }
        // And each view's last update carried the very answer it has now.
        for view in &self.views {
            let told =
                view.last.iter().zip(results(view)).all(|(last, now)| Arc::ptr_eq(last, &now));
            assert!(told, "{}: the answer changed after its last update", view.query);
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        self.store = None;
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Holds a view update to the two rules of a diff: no row both added
/// and removed, and previous + added = new + removed as multisets.
fn check_update(update: &ViewUpdate, previous: &QueryOutput, kb: &dyn KbRead) {
    let rows =
        |rows: &Rows| -> Vec<String> { rows.iter().map(|r| previous.render_row(r, kb)).collect() };
    let (added, removed) = (rows(&update.added), rows(&update.removed));
    assert!(!added.iter().any(|r| removed.contains(r)), "{}: adds and removes a row", update.query);
    let mut patched = [rows(&previous.rows), added].concat();
    let mut unpatched = [rows(&update.output.rows), removed].concat();
    patched.sort();
    unpatched.sort();
    assert_eq!(patched, unpatched, "{}: previous + added ≠ new + removed", update.query);
}

/// Scans `view` under every mask of the probe triple: `matching_iter`
/// yields the reference's facts in at most `runs` runs sorted by the
/// pattern's index, `count_matching` counts them, and the batches of
/// `matching_batches`, none over `BATCH_ROWS`, hold the same rows.
fn check_scans(view: &dyn KbRead, reference: &RefKb, probe: &[String; 3], runs: usize) {
    for mask in 0..8 {
        let names: [Option<&str>; 3] =
            std::array::from_fn(|i| (mask >> i & 1 == 1).then_some(probe[i].as_str()));
        // (terms, confidence bits, span, source), borrowed on both sides.
        let agrees = |t: [&str; 3]| t.into_iter().zip(names).all(|(t, n)| n.is_none_or(|n| n == t));
        let want: Vec<_> = (reference.facts())
            .map(|((s, p, o), f)| ([&**s, p, o], f.confidence.to_bits(), f.span, &*f.source))
            .filter(|row| agrees(row.0))
            .collect();
        let ids = names.map(|name| name.map(|name| view.term(name)));
        if ids.iter().any(|id| matches!(id, Some(None))) {
            assert_eq!(want, Vec::new(), "mask {mask}: a term the view never saw");
            continue;
        }
        let [s, p, o] = ids.map(Option::flatten);
        let pattern = TriplePattern { s, p, o };
        let facts: Vec<_> = view.matching_iter(&pattern).collect();
        let rows: Vec<Triple> = facts.iter().map(|f| f.triple).collect();
        let key = |t: &Triple| match pattern.choose_index() {
            IndexChoice::Spo => t.spo_key(),
            IndexChoice::Pos => t.pos_key(),
            IndexChoice::Osp => t.osp_key(),
        };
        let descents = rows.windows(2).filter(|w| key(&w[0]) > key(&w[1])).count();
        assert!(descents < runs, "mask {mask}: {descents} descents in index order");
        let name = |id| view.resolve(id).unwrap();
        let mut got: Vec<_> = (facts.iter())
            .map(|f| {
                let t = f.triple;
                let source = view.source_name(f.source).unwrap();
                ([name(t.s), name(t.p), name(t.o)], f.confidence.to_bits(), f.span, source)
            })
            .collect();
        got.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(got, want, "mask {mask}: matching_iter");
        assert_eq!(view.count_matching(&pattern), want.len(), "mask {mask}: count_matching");
        let (mut batches, mut batch, mut batched) =
            (view.matching_batches(&pattern), TripleBatch::new(), Vec::new());
        while batches.next_batch(&mut batch) {
            assert!(batch.len() <= BATCH_ROWS, "mask {mask}: a batch of {}", batch.len());
            batched.extend((0..batch.len()).map(|i| batch.row(i)));
        }
        assert_eq!(batched, rows, "mask {mask}: matching_batches");
    }
}

fn message(payload: &(dyn Any + Send)) -> String {
    let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
    payload.downcast_ref::<String>().cloned().or(text).unwrap_or_default()
}

/// Replays `steps` into the reference and every configuration, checking
/// them after each step; returns the paths it reached. A divergence
/// panics with the step, what was being checked and the steps up to it
/// as a `#[test]` for `mod regressions` (a text prints as a `&str`
/// literal, so it gains `.into()`).
pub fn replay(steps: &[Step]) -> Coverage {
    let mut stack = Stack::new();
    for (i, step) in steps.iter().enumerate() {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            stack.apply(step);
            stack.check(step);
        }));
        if let Err(payload) = outcome {
            let source: String = steps[..=i]
                .iter()
                .map(|s| format!("        {s:?},\n").replace("\"),\n", "\".into()),\n"))
                .collect();
            panic!(
                "step {i} ({step:?}) diverged at {}: {}\n\nreplay it in `tests/stack_conformance.rs`'s \
                 `mod regressions` with:\n\n\
                 #[test]\nfn regression() {{\n    replay(&[\n{source}    ]);\n}}\n",
                stack.at,
                message(payload.as_ref()),
            );
        }
    }
    stack.tally();
    std::mem::take(&mut stack.coverage)
}

/// Replays `cases` workloads drawn from [`gen::workload`] under the seed
/// of `name`, and adds up the paths they reached. A divergence panics
/// with its case number besides what [`replay`] reports.
pub fn replay_drawn(name: &str, cases: u64) -> Coverage {
    let seed = test_seed(name);
    let mut coverage = Coverage::new();
    for case in 0..cases {
        let steps = gen::workload().generate(&mut TestRng::for_case(seed, case));
        match panic::catch_unwind(|| replay(&steps)) {
            Ok(reached) => reached.into_iter().for_each(|(path, n)| reach(&mut coverage, &path, n)),
            Err(payload) => panic!("{name}: case {case} of {cases}: {}", message(payload.as_ref())),
        }
    }
    coverage
}
