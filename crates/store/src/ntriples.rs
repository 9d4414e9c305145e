//! Line-oriented text serialization of a [`KbBuilder`].
//!
//! The format is an N-Triples-flavoured TSV designed to be human-diffable
//! and trivially streamable. One record per line, fields tab-separated,
//! with tabs/newlines/backslashes escaped inside terms:
//!
//! ```text
//! # comment
//! T <s> <p> <o> <confidence> <span|-> <source-name>   facts
//! C <sub> <sup>                                       subclass edges
//! S <a> <b>                                           sameAs declarations
//! L <term> <lang> <form>                              labels
//! ```
//!
//! Round-tripping preserves facts (with confidence, span, provenance),
//! taxonomy edges, sameAs classes and labels. Term *ids* are not
//! preserved — terms are re-interned on load — but all structure is.

use std::io::{BufRead, Write};

use crate::builder::KbBuilder;
use crate::fact::{Fact, Triple};
use crate::read::KbRead;
use crate::time::TimeSpan;
use crate::StoreError;

/// Escapes a term for single-line TSV embedding.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Reverses [`escape`]. Unknown escapes are an error.
fn unescape(s: &str, line: usize) -> Result<String, StoreError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            other => {
                return Err(StoreError::Parse {
                    line,
                    message: format!(
                        "bad escape sequence \\{}",
                        other.map(String::from).unwrap_or_default()
                    ),
                })
            }
        }
    }
    Ok(out)
}

/// Writes the full KB (any [`KbRead`] view — live store or frozen
/// snapshot) to `w` in the TSV format described in the module docs.
pub(crate) fn write_kb<K: KbRead + ?Sized, W: Write>(kb: &K, w: &mut W) -> Result<(), StoreError> {
    writeln!(w, "# kbkit knowledge base dump")?;
    // All sections are emitted in lexicographic *string* order so that a
    // dump is byte-stable across round trips (term ids are reassigned on
    // load, so id order would not be).
    let mut fact_lines: Vec<String> = Vec::new();
    for fact in kb.iter() {
        let s = kb.resolve(fact.triple.s).ok_or(StoreError::UnknownTerm(fact.triple.s))?;
        let p = kb.resolve(fact.triple.p).ok_or(StoreError::UnknownTerm(fact.triple.p))?;
        let o = kb.resolve(fact.triple.o).ok_or(StoreError::UnknownTerm(fact.triple.o))?;
        let span = fact.span.map_or_else(|| "-".to_string(), |sp| sp.to_string());
        let source = kb.source_name(fact.source).unwrap_or("asserted");
        fact_lines.push(format!(
            "T\t{}\t{}\t{}\t{}\t{}\t{}",
            escape(s),
            escape(p),
            escape(o),
            fact.confidence,
            span,
            escape(source)
        ));
    }
    fact_lines.sort_unstable();
    let mut edge_lines: Vec<String> = Vec::new();
    for (sub, sup) in kb.taxonomy().edges() {
        let s = kb.resolve(sub).ok_or(StoreError::UnknownTerm(sub))?;
        let p = kb.resolve(sup).ok_or(StoreError::UnknownTerm(sup))?;
        edge_lines.push(format!("C\t{}\t{}", escape(s), escape(p)));
    }
    edge_lines.sort_unstable();
    let mut same_lines: Vec<String> = Vec::new();
    for class in kb.sameas().classes() {
        // Anchor each class on its lexicographically smallest member so
        // the emitted pairs do not depend on term-id assignment order.
        let mut names: Vec<&str> = Vec::with_capacity(class.len());
        for &member in &class {
            names.push(kb.resolve(member).ok_or(StoreError::UnknownTerm(member))?);
        }
        names.sort_unstable();
        for m in &names[1..] {
            same_lines.push(format!("S\t{}\t{}", escape(names[0]), escape(m)));
        }
    }
    same_lines.sort_unstable();
    let mut label_lines: Vec<String> = Vec::new();
    for (term, lang, form) in kb.labels().iter() {
        let t = kb.resolve(term).ok_or(StoreError::UnknownTerm(term))?;
        let tag = kb.labels().lang_tag(lang).unwrap_or("und");
        label_lines.push(format!("L\t{}\t{}\t{}", escape(t), tag, escape(form)));
    }
    label_lines.sort_unstable();
    for line in fact_lines.iter().chain(&edge_lines).chain(&same_lines).chain(&label_lines) {
        writeln!(w, "{line}")?;
    }
    Ok(())
}

/// Parses one non-comment, non-blank line into `kb`. A failed line
/// leaves `kb` with at most interned terms (no partial facts, edges or
/// labels are added).
fn apply_line(kb: &mut KbBuilder, line: &str, lineno: usize) -> Result<(), StoreError> {
    let fields: Vec<&str> = line.split('\t').collect();
    match fields[0] {
        "T" => {
            if fields.len() != 7 {
                return Err(StoreError::Parse {
                    line: lineno,
                    message: format!("fact record needs 7 fields, got {}", fields.len()),
                });
            }
            let confidence: f64 = fields[4].parse().map_err(|_| StoreError::Parse {
                line: lineno,
                message: format!("bad confidence {:?}", fields[4]),
            })?;
            if !(0.0..=1.0).contains(&confidence) {
                return Err(StoreError::Parse {
                    line: lineno,
                    message: format!("confidence {confidence} out of [0,1]"),
                });
            }
            let span = if fields[5] == "-" {
                None
            } else {
                Some(TimeSpan::parse(fields[5]).ok_or_else(|| StoreError::Parse {
                    line: lineno,
                    message: format!("bad time span {:?}", fields[5]),
                })?)
            };
            let s = kb.intern(&unescape(fields[1], lineno)?);
            let p = kb.intern(&unescape(fields[2], lineno)?);
            let o = kb.intern(&unescape(fields[3], lineno)?);
            let source = kb.register_source(&unescape(fields[6], lineno)?);
            kb.add_fact(Fact { triple: Triple::new(s, p, o), confidence, source, span });
        }
        "C" => {
            if fields.len() != 3 {
                return Err(StoreError::Parse {
                    line: lineno,
                    message: "subclass record needs 3 fields".into(),
                });
            }
            let sub = kb.intern(&unescape(fields[1], lineno)?);
            let sup = kb.intern(&unescape(fields[2], lineno)?);
            kb.taxonomy
                .add_subclass(sub, sup)
                .map_err(|e| StoreError::Parse { line: lineno, message: e.to_string() })?;
        }
        "S" => {
            if fields.len() != 3 {
                return Err(StoreError::Parse {
                    line: lineno,
                    message: "sameAs record needs 3 fields".into(),
                });
            }
            let a = kb.intern(&unescape(fields[1], lineno)?);
            let b = kb.intern(&unescape(fields[2], lineno)?);
            kb.sameas.declare(a, b);
        }
        "L" => {
            if fields.len() != 4 {
                return Err(StoreError::Parse {
                    line: lineno,
                    message: "label record needs 4 fields".into(),
                });
            }
            let term = kb.intern(&unescape(fields[1], lineno)?);
            let form = unescape(fields[3], lineno)?;
            let lang = kb.labels.lang(fields[2]);
            kb.labels.add(term, lang, &form);
        }
        other => {
            return Err(StoreError::Parse {
                line: lineno,
                message: format!("unknown record kind {other:?}"),
            })
        }
    }
    Ok(())
}

/// Reads a KB previously written by [`write_kb`]. Unknown record kinds
/// and malformed lines produce a [`StoreError::Parse`] naming the line.
pub(crate) fn read_kb<R: BufRead>(r: R) -> Result<KbBuilder, StoreError> {
    let mut kb = KbBuilder::new();
    for (i, line) in r.lines().enumerate() {
        let line = line?;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        apply_line(&mut kb, &line, i + 1)?;
    }
    Ok(kb)
}

/// Serializes the KB (any [`KbRead`] view) to an in-memory string.
pub fn to_string<K: KbRead + ?Sized>(kb: &K) -> Result<String, StoreError> {
    let mut buf = Vec::new();
    write_kb(kb, &mut buf)?;
    String::from_utf8(buf).map_err(|e| StoreError::Io(e.to_string()))
}

/// Parses a KB from a string.
pub fn from_str(s: &str) -> Result<KbBuilder, StoreError> {
    read_kb(s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::TriplePattern;
    use crate::time::TimePoint;
    use crate::SourceId;

    fn populated() -> KbBuilder {
        let mut kb = KbBuilder::new();
        let src = kb.register_source("wiki");
        let jobs = kb.intern("Steve_Jobs");
        let apple = kb.intern("Apple_Inc");
        let founded = kb.intern("founded");
        kb.add_fact(Fact {
            triple: Triple::new(jobs, founded, apple),
            confidence: 0.9,
            source: src,
            span: Some(TimeSpan::at(TimePoint::date(1976, 4, 1))),
        });
        let person = kb.intern("person");
        let entity = kb.intern("entity");
        kb.taxonomy.add_subclass(person, entity).unwrap();
        let jobs2 = kb.intern("dbp:Steve_Jobs");
        kb.sameas.declare(jobs, jobs2);
        let en = kb.labels.lang("en");
        kb.labels.add(jobs, en, "Steve Jobs");
        kb.labels.add(jobs, en, "Jobs");
        kb
    }

    #[test]
    fn round_trip_preserves_structure() {
        let kb = populated();
        let text = to_string(&kb).unwrap();
        let kb2 = from_str(&text).unwrap();

        assert_eq!(kb2.len(), 1);
        let jobs = kb2.term("Steve_Jobs").unwrap();
        let founded = kb2.term("founded").unwrap();
        let f = &kb2.matching(&TriplePattern::with_sp(jobs, founded))[0];
        assert!((f.confidence - 0.9).abs() < 1e-9);
        assert_eq!(f.span.unwrap().to_string(), "[1976-04-01,1976-04-01]");
        assert_eq!(kb2.source_name(f.source), Some("wiki"));

        let person = kb2.term("person").unwrap();
        let entity = kb2.term("entity").unwrap();
        assert!(kb2.taxonomy.is_subclass_of(person, entity));

        let jobs2 = kb2.term("dbp:Steve_Jobs").unwrap();
        assert!(kb2.sameas.same(jobs, jobs2));

        assert_eq!(kb2.labels.candidate_entities("jobs"), vec![jobs]);
    }

    #[test]
    fn double_round_trip_is_stable() {
        let kb = populated();
        let a = to_string(&kb).unwrap();
        let b = to_string(&from_str(&a).unwrap()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn terms_with_tabs_and_newlines_survive() {
        let mut kb = KbBuilder::new();
        kb.assert_str("weird\tterm", "has\nnewline", "back\\slash");
        let kb2 = from_str(&to_string(&kb).unwrap()).unwrap();
        assert!(kb2.term("weird\tterm").is_some());
        assert!(kb2.term("has\nnewline").is_some());
        assert!(kb2.term("back\\slash").is_some());
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let kb = from_str("# hello\n\nT\ta\tb\tc\t1\t-\tasserted\n").unwrap();
        assert_eq!(kb.len(), 1);
    }

    #[test]
    fn zero_confidence_line_loads_as_a_tombstone() {
        let kb = from_str("T\ta\tb\tc\t0\t-\tasserted\n").unwrap();
        assert_eq!((kb.len(), kb.iter().count(), kb.stats().facts), (0, 0, 0));
        assert!(kb.term("a").is_some(), "the line was applied, not skipped");
        // A dump never contains such a line, so the round trip is empty.
        assert_eq!(from_str(&to_string(&kb).unwrap()).unwrap().len(), 0);
    }

    #[test]
    fn parse_errors_name_the_line() {
        let err = from_str("T\ta\tb\n").unwrap_err();
        match err {
            StoreError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected {other:?}"),
        }
        let err = from_str("# ok\nX\ta\tb\n").unwrap_err();
        match err {
            StoreError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("unknown record kind"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bad_confidence_and_span_rejected() {
        assert!(from_str("T\ta\tb\tc\t1.5\t-\tsrc\n").is_err());
        assert!(from_str("T\ta\tb\tc\tNaNx\t-\tsrc\n").is_err());
        assert!(from_str("T\ta\tb\tc\t0.5\t[bad]\tsrc\n").is_err());
    }

    #[test]
    fn default_source_maps_back_to_default_id() {
        let kb = from_str("T\ta\tb\tc\t1\t-\tasserted\n").unwrap();
        let f = kb.iter().next().unwrap();
        assert_eq!(f.source, SourceId::DEFAULT);
    }
}
