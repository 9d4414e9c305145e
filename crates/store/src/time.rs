//! Temporal scopes for facts.
//!
//! The tutorial's Section 3 ("Temporal and Multilingual Knowledge")
//! motivates attaching *timepoints* to events and *timespans* to facts
//! that hold over an interval (YAGO2-style). We model both with
//! [`TimePoint`] (calendar date at year, year-month or year-month-day
//! granularity) and [`TimeSpan`] (half-open interval with optionally
//! unknown endpoints).

use std::cmp::Ordering;
use std::fmt;

use crate::StoreError;

/// A calendar date at year, month or day granularity.
///
/// `month == 0` means "unknown month" (year granularity); `day == 0`
/// means "unknown day". Ordering treats unknown components as earliest,
/// which gives the conventional sort `1976 < 1976-04 < 1976-04-01`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimePoint {
    /// Calendar year (may be negative for BCE, though the corpus never
    /// generates such dates).
    pub year: i32,
    /// Month 1–12, or 0 when unknown.
    pub month: u8,
    /// Day 1–31, or 0 when unknown.
    pub day: u8,
}

impl TimePoint {
    /// A point at year granularity.
    pub fn year(year: i32) -> Self {
        Self { year, month: 0, day: 0 }
    }

    /// A point at month granularity.
    pub(crate) fn year_month(year: i32, month: u8) -> Self {
        debug_assert!((1..=12).contains(&month));
        Self { year, month, day: 0 }
    }

    /// A full date.
    pub fn date(year: i32, month: u8, day: u8) -> Self {
        debug_assert!((1..=12).contains(&month));
        debug_assert!((1..=31).contains(&day));
        Self { year, month, day }
    }

    /// Granularity as a number of specified components (1 = year only,
    /// 2 = year+month, 3 = full date).
    pub fn granularity(&self) -> u8 {
        1 + u8::from(self.month != 0) + u8::from(self.day != 0)
    }

    /// Whether `self` and `other` denote the same date up to the coarser
    /// of their two granularities (so `1976` matches `1976-04-01`).
    pub fn compatible(&self, other: &TimePoint) -> bool {
        if self.year != other.year {
            return false;
        }
        if self.month != 0 && other.month != 0 && self.month != other.month {
            return false;
        }
        if self.day != 0 && other.day != 0 && self.day != other.day {
            return false;
        }
        true
    }

    /// Parses `YYYY`, `YYYY-MM` or `YYYY-MM-DD`.
    pub fn parse(s: &str) -> Option<TimePoint> {
        let mut parts = s.splitn(3, '-');
        let year: i32 = parts.next()?.parse().ok()?;
        let month: u8 = match parts.next() {
            Some(m) => m.parse().ok()?,
            None => return Some(TimePoint::year(year)),
        };
        if !(1..=12).contains(&month) {
            return None;
        }
        let day: u8 = match parts.next() {
            Some(d) => d.parse().ok()?,
            None => return Some(TimePoint::year_month(year, month)),
        };
        if !(1..=31).contains(&day) {
            return None;
        }
        Some(TimePoint::date(year, month, day))
    }
}

impl fmt::Display for TimePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.month, self.day) {
            (0, _) => write!(f, "{}", self.year),
            (m, 0) => write!(f, "{}-{:02}", self.year, m),
            (m, d) => write!(f, "{}-{:02}-{:02}", self.year, m, d),
        }
    }
}

/// A (possibly half-open) validity interval for a fact.
///
/// `begin == None` means "held since an unknown time in the past";
/// `end == None` means "still holds / end unknown".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TimeSpan {
    /// First point at which the fact holds, if known.
    pub begin: Option<TimePoint>,
    /// Last point at which the fact holds, if known.
    pub end: Option<TimePoint>,
}

impl TimeSpan {
    /// A fully-known interval. Fails if `end < begin`.
    pub fn between(begin: TimePoint, end: TimePoint) -> Result<Self, StoreError> {
        if end < begin {
            return Err(StoreError::InvalidTimeSpan);
        }
        Ok(Self { begin: Some(begin), end: Some(end) })
    }

    /// An interval starting at `begin` with unknown end.
    pub fn since(begin: TimePoint) -> Self {
        Self { begin: Some(begin), end: None }
    }

    /// An interval ending at `end` with unknown begin.
    pub fn until(end: TimePoint) -> Self {
        Self { begin: None, end: Some(end) }
    }

    /// A single instant (event-style fact).
    pub fn at(point: TimePoint) -> Self {
        Self { begin: Some(point), end: Some(point) }
    }

    /// The completely unknown span.
    pub fn unknown() -> Self {
        Self::default()
    }

    /// Whether the two spans can overlap given what is known.
    /// Unknown endpoints are treated as unbounded (optimistic overlap).
    pub fn overlaps(&self, other: &TimeSpan) -> bool {
        let self_starts_after_other_ends = match (self.begin, other.end) {
            (Some(b), Some(e)) => cmp_coarse(&b, &e) == Ordering::Greater,
            _ => false,
        };
        let other_starts_after_self_ends = match (other.begin, self.end) {
            (Some(b), Some(e)) => cmp_coarse(&b, &e) == Ordering::Greater,
            _ => false,
        };
        !(self_starts_after_other_ends || other_starts_after_self_ends)
    }

    /// Whether `point` falls inside the span (unknown endpoints are
    /// unbounded).
    pub fn contains(&self, point: &TimePoint) -> bool {
        if let Some(b) = self.begin {
            if cmp_coarse(point, &b) == Ordering::Less {
                return false;
            }
        }
        if let Some(e) = self.end {
            if cmp_coarse(point, &e) == Ordering::Greater {
                return false;
            }
        }
        true
    }

    /// Parses the serialized form produced by `Display`:
    /// `[begin,end]` where either side may be `?`.
    pub fn parse(s: &str) -> Option<TimeSpan> {
        let inner = s.strip_prefix('[')?.strip_suffix(']')?;
        let (b, e) = inner.split_once(',')?;
        let begin = if b == "?" { None } else { Some(TimePoint::parse(b)?) };
        let end = if e == "?" { None } else { Some(TimePoint::parse(e)?) };
        if let (Some(b), Some(e)) = (begin, end) {
            if e < b {
                return None;
            }
        }
        Some(TimeSpan { begin, end })
    }
}

/// Compares two points at the coarser of their granularities, so that
/// `1976` is neither before nor after `1976-04-01`.
fn cmp_coarse(a: &TimePoint, b: &TimePoint) -> Ordering {
    if a.compatible(b) {
        return Ordering::Equal;
    }
    a.cmp(b)
}

impl fmt::Display for TimeSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.begin {
            Some(b) => write!(f, "[{b},")?,
            None => write!(f, "[?,")?,
        }
        match self.end {
            Some(e) => write!(f, "{e}]"),
            None => write!(f, "?]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_ordering_by_granularity() {
        assert!(TimePoint::year(1976) < TimePoint::year_month(1976, 4));
        assert!(TimePoint::year_month(1976, 4) < TimePoint::date(1976, 4, 1));
        assert!(TimePoint::year(1975) < TimePoint::year(1976));
    }

    #[test]
    fn compatibility_ignores_unknown_components() {
        let y = TimePoint::year(1976);
        let d = TimePoint::date(1976, 4, 1);
        assert!(y.compatible(&d));
        assert!(!y.compatible(&TimePoint::year(1977)));
        assert!(!TimePoint::year_month(1976, 3).compatible(&d));
    }

    #[test]
    fn parse_round_trips_all_granularities() {
        for s in ["1976", "1976-04", "1976-04-01"] {
            let p = TimePoint::parse(s).unwrap();
            assert_eq!(p.to_string(), s);
        }
        assert!(TimePoint::parse("1976-13").is_none());
        assert!(TimePoint::parse("1976-00-01").is_none());
        assert!(TimePoint::parse("abcd").is_none());
    }

    #[test]
    fn span_between_rejects_inverted() {
        let a = TimePoint::year(1980);
        let b = TimePoint::year(1970);
        assert_eq!(TimeSpan::between(a, b), Err(StoreError::InvalidTimeSpan));
        assert!(TimeSpan::between(b, a).is_ok());
    }

    #[test]
    fn overlap_semantics() {
        let s70s = TimeSpan::between(TimePoint::year(1970), TimePoint::year(1979)).unwrap();
        let s80s = TimeSpan::between(TimePoint::year(1980), TimePoint::year(1989)).unwrap();
        let s75_85 = TimeSpan::between(TimePoint::year(1975), TimePoint::year(1985)).unwrap();
        assert!(!s70s.overlaps(&s80s));
        assert!(s70s.overlaps(&s75_85));
        assert!(s80s.overlaps(&s75_85));
        // Unknown endpoints are optimistic.
        assert!(TimeSpan::unknown().overlaps(&s70s));
        assert!(TimeSpan::since(TimePoint::year(1985)).overlaps(&s80s));
        assert!(!TimeSpan::since(TimePoint::year(1990)).overlaps(&s80s));
    }

    #[test]
    fn contains_respects_granularity() {
        let span = TimeSpan::between(TimePoint::year(1976), TimePoint::year(1980)).unwrap();
        assert!(span.contains(&TimePoint::date(1976, 1, 1)));
        assert!(span.contains(&TimePoint::year(1980)));
        assert!(!span.contains(&TimePoint::year(1981)));
        // A point inside the begin year matches even though 1976 < 1976-06.
        assert!(span.contains(&TimePoint::year_month(1976, 6)));
    }

    #[test]
    fn span_parse_round_trips() {
        for s in ["[1976,1980]", "[?,1980]", "[1976-04-01,?]", "[?,?]"] {
            let sp = TimeSpan::parse(s).unwrap();
            assert_eq!(sp.to_string(), s);
        }
        assert!(TimeSpan::parse("[1980,1976]").is_none());
        assert!(TimeSpan::parse("1976,1980").is_none());
    }
}
