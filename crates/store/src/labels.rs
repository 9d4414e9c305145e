//! Multilingual labels and the reverse surface-form index.
//!
//! A label is a `(term, language, surface form)` triple: `Steve_Jobs`
//! is labelled `"Steve Jobs"@en`, `"スティーブ・ジョブズ"@ja`, and also by
//! ambiguous short forms such as `"Jobs"@en`. The *reverse* index — which
//! entities a surface form can mean (`means` in YAGO terminology) — is
//! the backbone of NED candidate generation (tutorial §4).

use std::collections::HashMap;

use crate::TermId;

/// A language tag. Kept as a small interned code (e.g. `"en"`, `"de"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lang(pub u16);

/// Multilingual label store with reverse surface-form lookup.
#[derive(Debug, Default, Clone)]
pub struct LabelStore {
    langs: Vec<String>,
    lang_lookup: HashMap<String, Lang>,
    /// (term, lang) -> surface forms
    forward: HashMap<(TermId, Lang), Vec<String>>,
    /// lowercased surface form -> (term, lang) pairs
    reverse: HashMap<String, Vec<(TermId, Lang)>>,
    count: usize,
}

impl LabelStore {
    /// Creates an empty label store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a language tag.
    pub fn lang(&mut self, tag: &str) -> Lang {
        if let Some(&l) = self.lang_lookup.get(tag) {
            return l;
        }
        let l = Lang(self.langs.len() as u16);
        self.langs.push(tag.to_string());
        self.lang_lookup.insert(tag.to_string(), l);
        l
    }

    /// Resolves a language id back to its tag.
    pub fn lang_tag(&self, lang: Lang) -> Option<&str> {
        self.langs.get(lang.0 as usize).map(|s| s.as_str())
    }

    /// Adds a label for `term` in `lang`. Duplicate labels (same term,
    /// lang and form) are ignored. Returns whether the label was new.
    pub fn add(&mut self, term: TermId, lang: Lang, form: &str) -> bool {
        let forms = self.forward.entry((term, lang)).or_default();
        if forms.iter().any(|f| f == form) {
            return false;
        }
        forms.push(form.to_string());
        self.reverse.entry(form.to_lowercase()).or_default().push((term, lang));
        self.count += 1;
        true
    }

    /// All labels of `term` in `lang`.
    pub fn labels(&self, term: TermId, lang: Lang) -> &[String] {
        self.forward.get(&(term, lang)).map_or(&[], |v| v.as_slice())
    }

    /// All `(term, lang)` pairs a surface form can mean, case-insensitive.
    pub(crate) fn meanings(&self, form: &str) -> &[(TermId, Lang)] {
        self.reverse.get(&form.to_lowercase()).map_or(&[], |v| v.as_slice())
    }

    /// Distinct terms the surface form can mean (any language), sorted.
    pub fn candidate_entities(&self, form: &str) -> Vec<TermId> {
        let mut out: Vec<TermId> = self.meanings(form).iter().map(|&(t, _)| t).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Ambiguity of a surface form: number of distinct candidate terms.
    pub fn ambiguity(&self, form: &str) -> usize {
        self.candidate_entities(form).len()
    }

    /// Total number of stored labels.
    pub fn label_count(&self) -> usize {
        self.count
    }

    /// Iterates over all `(term, lang, form)` labels in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, Lang, &str)> {
        self.forward
            .iter()
            .flat_map(|(&(t, l), forms)| forms.iter().map(move |f| (t, l, f.as_str())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    #[test]
    fn add_and_lookup_forward() {
        let mut ls = LabelStore::new();
        let en = ls.lang("en");
        ls.add(t(1), en, "Steve Jobs");
        ls.add(t(1), en, "Jobs");
        assert_eq!(ls.labels(t(1), en), &["Steve Jobs", "Jobs"]);
        assert_eq!(ls.label_count(), 2);
    }

    #[test]
    fn duplicates_are_ignored() {
        let mut ls = LabelStore::new();
        let en = ls.lang("en");
        assert!(ls.add(t(1), en, "Jobs"));
        assert!(!ls.add(t(1), en, "Jobs"));
        assert_eq!(ls.label_count(), 1);
    }

    #[test]
    fn reverse_lookup_is_case_insensitive() {
        let mut ls = LabelStore::new();
        let en = ls.lang("en");
        ls.add(t(1), en, "Steve Jobs");
        assert_eq!(ls.candidate_entities("steve jobs"), vec![t(1)]);
        assert_eq!(ls.candidate_entities("STEVE JOBS"), vec![t(1)]);
        assert!(ls.candidate_entities("Steve Wozniak").is_empty());
    }

    #[test]
    fn ambiguous_forms_list_all_meanings() {
        let mut ls = LabelStore::new();
        let en = ls.lang("en");
        ls.add(t(1), en, "Jobs"); // the person
        ls.add(t(2), en, "Jobs"); // the film
        assert_eq!(ls.ambiguity("jobs"), 2);
        assert_eq!(ls.candidate_entities("Jobs"), vec![t(1), t(2)]);
    }

    #[test]
    fn languages_are_interned_and_kept_separate() {
        let mut ls = LabelStore::new();
        let en = ls.lang("en");
        let de = ls.lang("de");
        assert_eq!(ls.lang("en"), en);
        assert_eq!(ls.lang_tag(de), Some("de"));
        ls.add(t(1), en, "Germany");
        ls.add(t(1), de, "Deutschland");
        assert_eq!(ls.labels(t(1), en), &["Germany"]);
        assert_eq!(ls.labels(t(1), de), &["Deutschland"]);
        // Reverse lookup spans languages but reports each.
        assert_eq!(ls.meanings("germany"), &[(t(1), en)]);
    }
}
