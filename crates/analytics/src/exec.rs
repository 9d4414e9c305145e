//! Parallel stream aggregation: `std` scoped threads over contiguous
//! post chunks with commutative merge — the map-reduce shape of
//! big-data analytics on a single machine. Tracked-entity sets are
//! selected declaratively with `kb-query` (see [`tracked_by_query`])
//! instead of hand-rolled pattern scans.

use std::collections::HashMap;

use kb_ned::Ned;
use kb_query::{CellValue, QueryError};
use kb_store::{KbRead, TermId};

use crate::aggregate::TimeSeries;
use crate::stream::StreamPost;
use crate::track::Tracker;

/// Aggregates a stream with `workers` threads. Results are identical to
/// the serial [`Tracker::aggregate`] because per-entity series merge
/// commutatively. Works over any `Sync` KB view — in particular an
/// `Arc`-shared `KbSnapshot`, which the workers read without locking.
pub fn aggregate_parallel<K: KbRead + Sync + ?Sized>(
    tracker: &Tracker<'_, '_, K>,
    kb: &K,
    posts: &[StreamPost],
    workers: usize,
) -> HashMap<TermId, TimeSeries> {
    let workers = workers.max(1);
    if workers == 1 || posts.len() < 2 {
        return tracker.aggregate(kb, posts);
    }
    let chunk_size = posts.len().div_ceil(workers);
    let partials: Vec<HashMap<TermId, TimeSeries>> = std::thread::scope(|scope| {
        let handles: Vec<_> = posts
            .chunks(chunk_size)
            .map(|chunk| scope.spawn(move || tracker.aggregate(kb, chunk)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("analytics worker panicked")).collect()
    });
    let mut merged: HashMap<TermId, TimeSeries> =
        tracker.tracked.iter().map(|&e| (e, TimeSeries::new())).collect();
    for partial in partials {
        for (entity, series) in partial {
            merged.entry(entity).or_default().merge(&series);
        }
    }
    merged
}

/// Builds a [`Tracker`] whose tracked set is selected by a `kb-query`
/// query instead of a hand-assembled entity list — e.g. track everyone
/// a query like `SELECT ?p WHERE { ?p worksAt Nimbus_Systems }` binds.
///
/// The query must project exactly one column, and every row must bind
/// it to a term (aggregate columns are rejected). The tracked set is
/// deduplicated and sorted for deterministic downstream iteration.
pub fn tracked_by_query<'a, 'kb, K: KbRead + ?Sized>(
    ned: &'a Ned<'kb, K>,
    kb: &K,
    query_text: &str,
) -> Result<Tracker<'a, 'kb, K>, QueryError> {
    let out = kb_query::query(kb, query_text)?;
    if out.cols.len() != 1 {
        return Err(QueryError::Plan(format!(
            "tracking query must project exactly one column, got {}: {:?}",
            out.cols.len(),
            out.cols
        )));
    }
    let mut tracked: Vec<TermId> = out
        .rows
        .iter()
        .filter_map(|row| match row[0].value() {
            CellValue::Term(id) => Some(id),
            CellValue::Count(_) | CellValue::Unbound => None,
        })
        .collect();
    tracked.sort_unstable();
    tracked.dedup();
    Ok(Tracker::new(ned, tracked))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kb_ned::Ned;
    use kb_store::KbBuilder;

    #[test]
    fn parallel_equals_serial() {
        let mut kb = KbBuilder::new();
        let strato = kb.intern("Strato_3");
        let en = kb.labels.lang("en");
        kb.labels.add(strato, en, "Strato 3");
        let mut ned = Ned::new(&kb);
        ned.add_anchor("Strato 3", strato);
        ned.finalize();
        let tracker = Tracker::new(&ned, vec![strato]);
        let posts: Vec<StreamPost> = (0..40)
            .map(|i| {
                StreamPost::new(
                    i % 14,
                    if i % 3 == 0 { "the Strato 3 is great" } else { "the Strato 3 is terrible" },
                )
            })
            .collect();
        let serial = tracker.aggregate(&kb, &posts);
        for w in [2, 4, 7] {
            let parallel = aggregate_parallel(&tracker, &kb, &posts, w);
            assert_eq!(serial, parallel, "workers = {w}");
        }
    }

    #[test]
    fn tracked_by_query_selects_entities() {
        let mut kb = KbBuilder::new();
        kb.assert_str("Alan", "worksAt", "Acme");
        kb.assert_str("Bea", "worksAt", "Acme");
        kb.assert_str("Cyr", "worksAt", "Globex");
        let mut ned = Ned::new(&kb);
        ned.finalize();
        let tracker = tracked_by_query(&ned, &kb, "SELECT ?p WHERE { ?p worksAt Acme }").unwrap();
        let names: Vec<&str> = tracker.tracked.iter().map(|&t| kb.resolve(t).unwrap()).collect();
        assert_eq!(names, vec!["Alan", "Bea"]);

        // A two-column projection is rejected.
        assert!(tracked_by_query(&ned, &kb, "?p worksAt ?co").is_err());
    }

    #[test]
    fn single_worker_short_circuits() {
        let kb = KbBuilder::new();
        let mut ned = Ned::new(&kb);
        ned.finalize();
        let tracker = Tracker::new(&ned, vec![]);
        let out = aggregate_parallel(&tracker, &kb, &[], 8);
        assert!(out.is_empty());
    }
}
