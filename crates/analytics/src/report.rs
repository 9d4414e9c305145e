//! Side-by-side comparison reports for two tracked entities —
//! experiment T10's output format.

use std::fmt;

use crate::aggregate::TimeSeries;

/// A rendered comparison of two entities' stream presence.
#[derive(Debug, Clone)]
pub struct ComparisonReport {
    /// Display name of entity A.
    pub name_a: String,
    /// Display name of entity B.
    pub name_b: String,
    /// A's weekly series.
    pub series_a: TimeSeries,
    /// B's weekly series.
    pub series_b: TimeSeries,
}

impl ComparisonReport {
    /// Builds a report.
    pub fn new(name_a: &str, series_a: TimeSeries, name_b: &str, series_b: TimeSeries) -> Self {
        Self { name_a: name_a.to_string(), name_b: name_b.to_string(), series_a, series_b }
    }

    /// The first week where B's mentions overtake A's, if any.
    pub(crate) fn crossover_week(&self) -> Option<u32> {
        let weeks: std::collections::BTreeSet<u32> =
            self.series_a.buckets.keys().chain(self.series_b.buckets.keys()).copied().collect();
        for w in weeks {
            let a = self.series_a.buckets.get(&w).map_or(0, |b| b.mentions);
            let b = self.series_b.buckets.get(&w).map_or(0, |b| b.mentions);
            if b > a {
                return Some(w);
            }
        }
        None
    }

    /// Summary rows: `(week, mentions_a, net_a, mentions_b, net_b)`.
    pub fn rows(&self) -> Vec<(u32, usize, f64, usize, f64)> {
        let weeks: std::collections::BTreeSet<u32> =
            self.series_a.buckets.keys().chain(self.series_b.buckets.keys()).copied().collect();
        weeks
            .into_iter()
            .map(|w| {
                let a = self.series_a.buckets.get(&w).copied().unwrap_or_default();
                let b = self.series_b.buckets.get(&w).copied().unwrap_or_default();
                (w, a.mentions, a.net_sentiment(), b.mentions, b.net_sentiment())
            })
            .collect()
    }
}

impl fmt::Display for ComparisonReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:>4}  {:>12} {:>6}  {:>12} {:>6}",
            "week", self.name_a, "sent", self.name_b, "sent"
        )?;
        for (w, ma, sa, mb, sb) in self.rows() {
            writeln!(f, "{w:>4}  {ma:>12} {sa:>+6.2}  {mb:>12} {sb:>+6.2}")?;
        }
        write!(
            f,
            "totals: {} = {}, {} = {}; trend slopes {:+.2} vs {:+.2}",
            self.name_a,
            self.series_a.total_mentions(),
            self.name_b,
            self.series_b.total_mentions(),
            self.series_a.trend_slope(),
            self.series_b.trend_slope(),
        )?;
        if let Some(w) = self.crossover_week() {
            write!(f, "; {} overtakes in week {w}", self.name_b)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(counts: &[(u32, usize)]) -> TimeSeries {
        let mut ts = TimeSeries::new();
        for &(week, n) in counts {
            for _ in 0..n {
                ts.record(week, 1);
            }
        }
        ts
    }

    #[test]
    fn crossover_detection() {
        let a = series(&[(0, 10), (1, 10), (2, 10)]);
        let b = series(&[(0, 2), (1, 8), (2, 15)]);
        let r = ComparisonReport::new("A", a, "B", b);
        assert_eq!(r.crossover_week(), Some(2));
    }

    #[test]
    fn no_crossover_when_a_dominates() {
        let a = series(&[(0, 10), (1, 10)]);
        let b = series(&[(0, 2), (1, 3)]);
        let r = ComparisonReport::new("A", a, "B", b);
        assert_eq!(r.crossover_week(), None);
    }

    #[test]
    fn rows_cover_union_of_weeks() {
        let a = series(&[(0, 1)]);
        let b = series(&[(2, 1)]);
        let r = ComparisonReport::new("A", a, "B", b);
        let rows = r.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, 0);
        assert_eq!(rows[1].0, 2);
        assert_eq!(rows[1].1, 0, "A missing in week 2");
    }

    #[test]
    fn display_renders_names_and_totals() {
        let r = ComparisonReport::new("Strato", series(&[(0, 3)]), "Nova", series(&[(0, 1)]));
        let text = r.to_string();
        assert!(text.contains("Strato"));
        assert!(text.contains("Nova"));
        assert!(text.contains("totals"));
    }
}
