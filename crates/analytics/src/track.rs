//! Entity tracking: resolving each post's mentions against the KB and
//! aggregating those of the tracked entities.

use std::collections::HashMap;

use kb_ned::{detect_mentions, Ned, Strategy};
use kb_store::{KbRead, TermId};

use crate::aggregate::TimeSeries;
use crate::sentiment::polarity;
use crate::stream::StreamPost;

/// Tracks a fixed set of entities through a stream.
///
/// Generic over the KB view (`K`): the live [`KbBuilder`](kb_store::KbBuilder)
/// or an immutable snapshot — anything implementing [`KbRead`].
pub struct Tracker<'a, 'kb, K: ?Sized> {
    /// The NED engine used for mention resolution.
    pub ned: &'a Ned<'kb, K>,
    /// The entities being tracked.
    pub tracked: Vec<TermId>,
    /// Disambiguation strategy (Context by default).
    pub strategy: Strategy,
}

impl<'a, 'kb, K: KbRead + ?Sized> Tracker<'a, 'kb, K> {
    /// Creates a tracker.
    pub fn new(ned: &'a Ned<'kb, K>, tracked: Vec<TermId>) -> Self {
        Self { ned, tracked, strategy: Strategy::Context }
    }

    /// Processes one post: returns `(entity, sentiment)` for each
    /// resolved mention of a tracked entity.
    pub fn process(&self, kb: &K, post: &StreamPost) -> Vec<(TermId, i8)> {
        let mentions = detect_mentions(kb, &post.text);
        if mentions.is_empty() {
            return vec![];
        }
        let spans: Vec<(usize, usize)> = mentions.iter().map(|m| (m.start, m.end)).collect();
        let resolved = self.ned.disambiguate(&post.text, &spans, self.strategy);
        let sentiment = polarity(&post.text);
        resolved
            .into_iter()
            .flatten()
            .filter(|e| self.tracked.contains(e))
            .map(|e| (e, sentiment))
            .collect()
    }

    /// Aggregates a whole stream into per-entity weekly time series.
    pub fn aggregate(&self, kb: &K, posts: &[StreamPost]) -> HashMap<TermId, TimeSeries> {
        let mut series: HashMap<TermId, TimeSeries> =
            self.tracked.iter().map(|&e| (e, TimeSeries::new())).collect();
        for post in posts {
            for (entity, sentiment) in self.process(kb, post) {
                series.entry(entity).or_default().record(post.week(), sentiment);
            }
        }
        series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kb_store::KbBuilder;

    fn setup() -> (KbBuilder, TermId, TermId) {
        let mut kb = KbBuilder::new();
        let strato = kb.intern("Strato_3");
        let nova = kb.intern("Nova_2");
        let acme = kb.intern("AcmeCo");
        let created = kb.intern("created");
        kb.add_triple(acme, created, strato);
        let en = kb.labels.lang("en");
        kb.labels.add(strato, en, "Strato 3");
        kb.labels.add(nova, en, "Nova 2");
        (kb, strato, nova)
    }

    #[test]
    fn tracked_mentions_are_aggregated_with_sentiment() {
        let (kb, strato, nova) = setup();
        let mut ned = Ned::new(&kb);
        ned.add_anchor("Strato 3", strato);
        ned.add_anchor("Nova 2", nova);
        ned.finalize();
        let tracker = Tracker::new(&ned, vec![strato, nova]);
        let posts = vec![
            StreamPost::new(0, "got the Strato 3. the camera is great!"),
            StreamPost::new(1, "the Strato 3 battery is terrible."),
            StreamPost::new(8, "thoughts on the Nova 2. love it"),
            StreamPost::new(9, "unrelated chatter about nothing"),
        ];
        let series = tracker.aggregate(&kb, &posts);
        let s = &series[&strato];
        assert_eq!(s.total_mentions(), 2);
        assert_eq!(s.buckets[&0].positive, 1);
        assert_eq!(s.buckets[&0].negative, 1);
        let n = &series[&nova];
        assert_eq!(n.total_mentions(), 1);
        assert_eq!(n.buckets[&1].positive, 1);
    }

    #[test]
    fn untracked_entities_are_ignored() {
        let (kb, strato, nova) = setup();
        let mut ned = Ned::new(&kb);
        ned.add_anchor("Strato 3", strato);
        ned.add_anchor("Nova 2", nova);
        ned.finalize();
        let tracker = Tracker::new(&ned, vec![strato]);
        let posts = vec![StreamPost::new(0, "comparing the Nova 2 today")];
        let series = tracker.aggregate(&kb, &posts);
        assert_eq!(series[&strato].total_mentions(), 0);
        assert!(!series.contains_key(&nova));
    }

    #[test]
    fn empty_stream_produces_empty_series() {
        let (kb, strato, _) = setup();
        let mut ned = Ned::new(&kb);
        ned.finalize();
        let tracker = Tracker::new(&ned, vec![strato]);
        let series = tracker.aggregate(&kb, &[]);
        assert_eq!(series[&strato].total_mentions(), 0);
    }
}
