//! Live-stream replay: scaling the §4 rival-product case study from a
//! fixed corpus to a continuous, arbitrarily long synthetic stream.
//!
//! The corpus generator plants a finite stream (thousands of posts
//! over a few weeks). A live deployment sees the same *shape* at a
//! thousand times the volume: posts keep arriving, the timeline keeps
//! extending, and analytics ask about *recent sliding windows* rather
//! than all of history. This module bridges the two:
//!
//! * [`synthesize_stream`] tiles the corpus stream end to end — each
//!   cycle re-emits every post with its day shifted by one horizon, so
//!   a 5k-post corpus becomes a million-post stream with the same
//!   per-week statistics. Bodies are `Arc<str>` clones: the million
//!   posts share the corpus posts' text allocations.
//! * [`window_mention_counts`] aggregates tracked-entity mentions over
//!   half-open sliding [`Window`]s, resolving each post exactly once
//!   no matter how many windows overlap it.
//!
//! The harvest side of the loop (turning stream batches into
//! [`DeltaSegment`](kb_store::DeltaSegment) installs and patching
//! standing views) lives in `kb_harvest::pipeline::IncrementalHarvester`
//! and `kb_query::ViewRegistry`; the end-to-end replay is exercised by
//! `tests/streaming_stress.rs` (its clock is kbbench's `view.patch_us_*`;
//! harness table T20 left in PR 16).

use std::collections::HashMap;

use kb_store::{KbRead, TermId};

use crate::stream::{StreamPost, Window};
use crate::track::Tracker;

/// The number of days the stream spans: one past the last post's day
/// (days are half-open like everything else, so a stream whose last
/// post is day 20 occupies `[0, 21)`).
pub fn horizon_days(posts: &[StreamPost]) -> u32 {
    posts.iter().map(|p| p.day + 1).max().unwrap_or(0)
}

/// Tiles `base` into a stream of at least `target` posts by cycling
/// it with a one-horizon day shift per cycle: cycle `k` re-emits every
/// base post at `day + k * horizon`. Per-window statistics are
/// therefore periodic with the corpus's planted shape, which is what
/// makes replay results checkable at any scale. Post bodies are
/// refcount clones, so a million-post stream costs a million small
/// structs, not a million string copies.
pub fn synthesize_stream(base: &[StreamPost], target: usize) -> Vec<StreamPost> {
    if base.is_empty() || target == 0 {
        return Vec::new();
    }
    let horizon = horizon_days(base);
    let mut out = Vec::with_capacity(target);
    let mut cycle = 0u32;
    while out.len() < target {
        let shift = cycle * horizon;
        for post in base {
            if out.len() == target {
                break;
            }
            out.push(StreamPost { day: post.day + shift, text: std::sync::Arc::clone(&post.text) });
        }
        cycle += 1;
    }
    out
}

/// Per-window mention counts for each tracked entity, over half-open
/// sliding windows.
///
/// Every post is resolved through the tracker exactly once; the
/// resolved `(day, entity)` pairs are then distributed into all
/// windows containing the day. With overlapping windows this is the
/// difference between O(posts) and O(posts × overlap) NED work — the
/// resolution step dominates.
pub fn window_mention_counts<K: KbRead + ?Sized>(
    tracker: &Tracker<'_, '_, K>,
    kb: &K,
    posts: &[StreamPost],
    windows: &[Window],
) -> Vec<HashMap<TermId, usize>> {
    let mut resolved: Vec<(u32, TermId)> = Vec::new();
    for post in posts {
        for (entity, _sentiment) in tracker.process(kb, post) {
            resolved.push((post.day, entity));
        }
    }
    windows
        .iter()
        .map(|w| {
            let mut counts: HashMap<TermId, usize> = HashMap::new();
            for &(day, entity) in &resolved {
                if w.contains(day) {
                    *counts.entry(entity).or_insert(0) += 1;
                }
            }
            counts
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::sliding_windows;
    use kb_ned::Ned;
    use kb_store::KbBuilder;
    use std::sync::Arc;

    #[test]
    fn synthesized_stream_tiles_the_horizon() {
        let base = vec![StreamPost::new(0, "a"), StreamPost::new(3, "b"), StreamPost::new(6, "c")];
        let stream = synthesize_stream(&base, 8);
        assert_eq!(stream.len(), 8);
        assert_eq!(horizon_days(&base), 7);
        // Cycle 1 re-emits shifted by one horizon; bodies are shared.
        assert_eq!(stream[3].day, 7);
        assert_eq!(stream[5].day, 13);
        assert_eq!(stream[6].day, 14, "cycle 2 starts two horizons in");
        assert!(Arc::ptr_eq(&stream[3].text, &base[0].text));
        assert!(synthesize_stream(&[], 10).is_empty());
        assert!(synthesize_stream(&base, 0).is_empty());
    }

    #[test]
    fn window_counts_follow_the_half_open_convention() {
        let mut kb = KbBuilder::new();
        let strato = kb.intern("Strato_3");
        let en = kb.labels.lang("en");
        kb.labels.add(strato, en, "Strato 3");
        let mut ned = Ned::new(&kb);
        ned.add_anchor("Strato 3", strato);
        ned.finalize();
        let tracker = Tracker::new(&ned, vec![strato]);
        // Mentions exactly at window boundaries: days 6 and 7.
        let posts = vec![
            StreamPost::new(6, "the Strato 3 on day six"),
            StreamPost::new(7, "the Strato 3 on day seven"),
        ];
        let windows = sliding_windows(14, 7, 7);
        let counts = window_mention_counts(&tracker, &kb, &posts, &windows);
        assert_eq!(counts[0].get(&strato), Some(&1), "day 6 belongs to [0,7)");
        assert_eq!(counts[1].get(&strato), Some(&1), "day 7 belongs to [7,14)");
        // An overlapping window sees both.
        let wide = [Window::new(4, 10)];
        let both = window_mention_counts(&tracker, &kb, &posts, &wide);
        assert_eq!(both[0].get(&strato), Some(&2));
    }
}
