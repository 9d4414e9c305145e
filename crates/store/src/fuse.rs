//! Knowledge-base fusion: merging stores and canonicalizing through
//! `owl:sameAs` — the Web-of-Linked-Data operation (tutorial §1/§4)
//! that turns entity-linkage output into one coherent KB.

use crate::builder::KbBuilder;
use crate::fact::{Fact, Triple};
use crate::read::KbRead;

impl KbBuilder {
    /// Merges everything from `other` (any [`KbRead`] view — a live
    /// store or a frozen snapshot) into `self`: facts (re-interned,
    /// evidence-combined on duplicates), provenance sources, taxonomy
    /// edges (cycle-rejected edges skipped), sameAs declarations and
    /// labels. Returns the number of *new* facts added (not merged into
    /// existing ones).
    pub fn merge_from<K: KbRead + ?Sized>(&mut self, other: &K) -> usize {
        let mut new_facts = 0usize;
        // Facts.
        for fact in other.iter() {
            let s = other.resolve(fact.triple.s).expect("term resolves in source");
            let p = other.resolve(fact.triple.p).expect("term resolves in source");
            let o = other.resolve(fact.triple.o).expect("term resolves in source");
            let (s, p, o) = (s.to_string(), p.to_string(), o.to_string());
            let source_name = other.source_name(fact.source).unwrap_or("asserted").to_string();
            let triple = Triple::new(self.intern(&s), self.intern(&p), self.intern(&o));
            let existed = self.contains(&triple);
            let source = self.register_source(&source_name);
            self.add_fact(Fact { triple, confidence: fact.confidence, source, span: fact.span });
            if !existed {
                new_facts += 1;
            }
        }
        // Taxonomy edges.
        let edges: Vec<(String, String)> = other
            .taxonomy()
            .edges()
            .map(|(sub, sup)| {
                (
                    other.resolve(sub).expect("class resolves").to_string(),
                    other.resolve(sup).expect("class resolves").to_string(),
                )
            })
            .collect();
        for (sub, sup) in edges {
            let sub = self.intern(&sub);
            let sup = self.intern(&sup);
            let _ = self.taxonomy.add_subclass(sub, sup); // skip cycles
        }
        // sameAs classes.
        for class in other.sameas().classes() {
            let names: Vec<String> =
                class.iter().filter_map(|&t| other.resolve(t).map(str::to_string)).collect();
            for pair in names.windows(2) {
                let a = self.intern(&pair[0]);
                let b = self.intern(&pair[1]);
                self.sameas.declare(a, b);
            }
        }
        // Labels.
        let labels: Vec<(String, String, String)> = other
            .labels()
            .iter()
            .map(|(t, l, form)| {
                (
                    other.resolve(t).expect("term resolves").to_string(),
                    other.labels().lang_tag(l).unwrap_or("und").to_string(),
                    form.to_string(),
                )
            })
            .collect();
        for (term, lang, form) in labels {
            let t = self.intern(&term);
            let l = self.labels.lang(&lang);
            self.labels.add(t, l, &form);
        }
        new_facts
    }

    /// Rewrites every live fact through the sameAs canonicalization:
    /// each subject/object is replaced by its class' canonical term, and
    /// facts that collapse onto existing ones merge their evidence.
    /// Labels of non-canonical terms are copied to the canon. Returns
    /// the number of facts rewritten.
    pub fn canonicalize(&mut self) -> usize {
        let rewrites: Vec<(Triple, Triple, f64, crate::SourceId, Option<crate::TimeSpan>)> = self
            .iter()
            .filter_map(|f| {
                let s = self.sameas.canon(f.triple.s);
                let o = self.sameas.canon(f.triple.o);
                if s == f.triple.s && o == f.triple.o {
                    return None;
                }
                let new = Triple::new(s, f.triple.p, o);
                Some((f.triple, new, f.confidence, f.source, f.span))
            })
            .collect();
        let count = rewrites.len();
        for (old, new, confidence, source, span) in rewrites {
            self.retract(old);
            self.add_fact(Fact { triple: new, confidence, source, span });
        }
        // Move labels onto canonical terms.
        let label_moves: Vec<(crate::TermId, String, String)> = self
            .labels
            .iter()
            .filter_map(|(t, l, form)| {
                let canon = self.sameas.canon(t);
                if canon == t {
                    return None;
                }
                let lang = self.labels.lang_tag(l).unwrap_or("und").to_string();
                Some((canon, lang, form.to_string()))
            })
            .collect();
        for (canon, lang, form) in label_moves {
            let l = self.labels.lang(&lang);
            self.labels.add(canon, l, &form);
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::TriplePattern;

    fn kb_a() -> KbBuilder {
        let mut kb = KbBuilder::new();
        kb.assert_str("Alan_Varen", "bornIn", "Lundholm");
        let person = kb.intern("person");
        let entity = kb.intern("entity");
        kb.taxonomy.add_subclass(person, entity).unwrap();
        let alan = kb.term("Alan_Varen").unwrap();
        let en = kb.labels.lang("en");
        kb.labels.add(alan, en, "Alan Varen");
        kb
    }

    fn kb_b() -> KbBuilder {
        let mut kb = KbBuilder::new();
        let src = kb.register_source("dump-b");
        let a = kb.intern("A._Varen");
        let works = kb.intern("worksAt");
        let acme = kb.intern("AcmeCo");
        kb.add_fact(Fact {
            triple: Triple::new(a, works, acme),
            confidence: 0.8,
            source: src,
            span: None,
        });
        let en = kb.labels.lang("en");
        kb.labels.add(a, en, "A. Varen");
        kb
    }

    #[test]
    fn merge_brings_facts_sources_taxonomy_and_labels() {
        let mut kb = kb_a();
        let added = kb.merge_from(&kb_b());
        assert_eq!(added, 1);
        assert_eq!(kb.len(), 2);
        let a = kb.term("A._Varen").expect("merged term");
        let works = kb.term("worksAt").unwrap();
        let f = &kb.matching(&TriplePattern::with_sp(a, works))[0];
        assert!((f.confidence - 0.8).abs() < 1e-9);
        assert_eq!(kb.source_name(f.source), Some("dump-b"));
        assert_eq!(kb.labels.candidate_entities("a. varen"), vec![a]);
    }

    #[test]
    fn merge_combines_duplicate_evidence() {
        let mut kb = kb_a();
        let mut dup = KbBuilder::new();
        dup.assert_str("Alan_Varen", "bornIn", "Lundholm");
        let added = kb.merge_from(&dup);
        assert_eq!(added, 0, "no new facts — only evidence merged");
        assert_eq!(kb.len(), 1);
    }

    #[test]
    fn canonicalize_rewrites_facts_through_sameas() {
        let mut kb = kb_a();
        kb.merge_from(&kb_b());
        // Linkage discovered Alan_Varen ≡ A._Varen.
        let alan = kb.term("Alan_Varen").unwrap();
        let a = kb.term("A._Varen").unwrap();
        kb.sameas.declare(alan, a);
        let canon = kb.sameas.canon(alan);
        let rewritten = kb.canonicalize();
        assert_eq!(rewritten, 1, "the worksAt fact moves to the canon");
        let works = kb.term("worksAt").unwrap();
        let facts = kb.matching(&TriplePattern::with_p(works));
        assert_eq!(facts.len(), 1);
        assert_eq!(facts[0].triple.s, canon);
        // Labels of both aliases now reach the canonical term.
        let meanings = kb.labels.candidate_entities("A. Varen");
        assert!(meanings.contains(&canon));
    }

    #[test]
    fn canonicalize_is_idempotent() {
        let mut kb = kb_a();
        kb.merge_from(&kb_b());
        let alan = kb.term("Alan_Varen").unwrap();
        let a = kb.term("A._Varen").unwrap();
        kb.sameas.declare(alan, a);
        kb.canonicalize();
        assert_eq!(kb.canonicalize(), 0, "second pass must be a no-op");
    }

    #[test]
    fn canonicalize_merges_colliding_facts() {
        let mut kb = KbBuilder::new();
        let a = kb.intern("A");
        let b = kb.intern("B");
        let r = kb.intern("r");
        let x = kb.intern("X");
        kb.add_fact(Fact {
            triple: Triple::new(a, r, x),
            confidence: 0.5,
            source: crate::SourceId::DEFAULT,
            span: None,
        });
        kb.add_fact(Fact {
            triple: Triple::new(b, r, x),
            confidence: 0.5,
            source: crate::SourceId::DEFAULT,
            span: None,
        });
        kb.sameas.declare(a, b);
        kb.canonicalize();
        assert_eq!(kb.len(), 1, "the two facts collapse");
        let canon = kb.sameas.canon(a);
        let f = kb.fact_for(&Triple::new(canon, r, x)).unwrap();
        assert!((f.confidence - 0.75).abs() < 1e-9, "noisy-or merged: {}", f.confidence);
    }

    #[test]
    fn merge_skips_cycle_inducing_taxonomy_edges() {
        let mut kb = kb_a(); // person ⊂ entity
        let mut other = KbBuilder::new();
        let entity = other.intern("entity");
        let person = other.intern("person");
        other.taxonomy.add_subclass(entity, person).unwrap(); // reversed!
        kb.merge_from(&other);
        let person = kb.term("person").unwrap();
        let entity = kb.term("entity").unwrap();
        assert!(kb.taxonomy.is_subclass_of(person, entity));
        assert!(!kb.taxonomy.is_subclass_of(entity, person), "cycle edge skipped");
    }
}
