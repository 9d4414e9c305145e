//! # kb-corpus
//!
//! A deterministic synthetic world and corpus generator: the stand-in
//! for Wikipedia, web pages and social-media streams that the tutorial's
//! methods harvest (see DESIGN.md, "Substitutions").
//!
//! The generator produces, from a single seed:
//!
//! * a [`World`]: entities (people, companies, cities,
//!   countries, universities, products) with canonical ids, ambiguous
//!   aliases, multilingual labels, a gold class taxonomy, and gold
//!   facts with temporal scopes;
//! * [`Doc`]uments rendered from the world:
//!   Wikipedia-style [articles](article) with infoboxes, categories and
//!   gold mention annotations; noisy [web pages](web); Hearst-pattern
//!   [overview pages](article::render_overviews); commonsense
//!   [essays](commonsense); and a timestamped [social stream](social);
//! * [`gold`] evaluation structures: the fact set keyed by canonical
//!   names, mention-level NED gold, record-linkage dumps with known
//!   duplicates.
//!
//! Noise is injected under explicit knobs (see
//! [`CorpusConfig`]): false fact sentences
//! (including type- and functionality-violating ones, which the
//! consistency-reasoning experiment prunes), distractor sentences and
//! ambiguous aliasing.
//!
//! Everything is reproducible: the same config yields byte-identical
//! corpora.

pub mod article;
pub mod commonsense;
pub mod config;
pub mod doc;
pub mod fault;
pub mod gold;
pub mod lexicon;
pub mod names;
pub mod social;
pub mod web;
pub mod world;

pub use config::{CorpusConfig, WorldConfig};
pub use doc::{Doc, DocDefect, DocKind, Mention};
pub use fault::{inject_faults, FaultConfig, FaultKind, FaultReport, InjectedFault};
pub use world::{Entity, EntityId, EntityKind, GoldFact, Rel, World};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Generates the complete corpus bundle for a config: the world plus all
/// document collections. This is the one-call entry point used by
/// examples, tests and benchmarks.
#[derive(Debug)]
pub struct Corpus {
    /// The underlying ground-truth world.
    pub world: World,
    /// Wikipedia-style entity articles.
    pub articles: Vec<Doc>,
    /// Hearst-pattern / enumeration overview pages.
    pub overviews: Vec<Doc>,
    /// Noisy web pages.
    pub web_pages: Vec<Doc>,
    /// Commonsense essays about concepts.
    pub essays: Vec<Doc>,
    /// Timestamped social-media posts.
    pub posts: Vec<social::Post>,
}

impl Corpus {
    /// Generates the full corpus from a config. Deterministic in
    /// `cfg.world.seed`.
    pub fn generate(cfg: &CorpusConfig) -> Corpus {
        let world = World::generate(&cfg.world);
        let mut rng = StdRng::seed_from_u64(cfg.world.seed ^ 0x5eed_c0de);
        let articles = article::render_articles(&world, cfg, &mut rng);
        let overviews = article::render_overviews(&world, cfg, &mut rng);
        let web_pages = web::render_web_pages(&world, cfg, &mut rng);
        let essays = commonsense::render_essays(&world, cfg, &mut rng);
        let posts = social::render_posts(&world, cfg, &mut rng);
        Corpus { world, articles, overviews, web_pages, essays, posts }
    }

    /// All prose documents (articles, overviews, web pages, essays) in
    /// one slice-friendly vector — the harvesting pipeline's input.
    pub fn all_docs(&self) -> Vec<&Doc> {
        self.articles
            .iter()
            .chain(self.overviews.iter())
            .chain(self.web_pages.iter())
            .chain(self.essays.iter())
            .collect()
    }

    /// The incremental-harvest split: a bootstrap corpus holding the
    /// first 70% of the articles (at least one) plus every overview,
    /// web page and essay, and the held-out articles that arrive later
    /// as batches. The bootstrap corpus carries no posts — harvesting
    /// never reads them.
    pub fn bootstrap_split(&self) -> (Corpus, &[Doc]) {
        let n = self.articles.len();
        let (first, held_out) = self.articles.split_at((n * 7 / 10).max(1).min(n));
        let boot = Corpus {
            world: self.world.clone(),
            articles: first.to_vec(),
            overviews: self.overviews.clone(),
            web_pages: self.web_pages.clone(),
            essays: self.essays.clone(),
            posts: Vec::new(),
        };
        (boot, held_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = CorpusConfig::tiny();
        let a = Corpus::generate(&cfg);
        let b = Corpus::generate(&cfg);
        assert_eq!(a.world.entities.len(), b.world.entities.len());
        assert_eq!(a.world.facts.len(), b.world.facts.len());
        assert_eq!(a.articles.len(), b.articles.len());
        for (x, y) in a.articles.iter().zip(&b.articles) {
            assert_eq!(x.text, y.text);
        }
        for (x, y) in a.posts.iter().zip(&b.posts) {
            assert_eq!(x.text, y.text);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg2 = CorpusConfig::tiny();
        cfg2.world.seed += 1;
        let a = Corpus::generate(&CorpusConfig::tiny());
        let b = Corpus::generate(&cfg2);
        let same = a.articles.iter().zip(&b.articles).filter(|(x, y)| x.text == y.text).count();
        assert!(same < a.articles.len(), "seeds produced identical corpora");
    }

    #[test]
    fn bootstrap_split_partitions_the_articles_and_keeps_the_rest() {
        let c = Corpus::generate(&CorpusConfig::tiny());
        let (boot, held_out) = c.bootstrap_split();
        assert_eq!(boot.articles.len(), c.articles.len() * 7 / 10);
        assert!(!held_out.is_empty());
        let ids = |docs: &[Doc]| docs.iter().map(|d| d.id).collect::<Vec<_>>();
        assert_eq!([ids(&boot.articles), ids(held_out)].concat(), ids(&c.articles));
        assert_eq!(boot.all_docs().len() + held_out.len(), c.all_docs().len());
        assert_eq!(boot.world.entities.len(), c.world.entities.len());
        assert!(boot.posts.is_empty());
    }

    #[test]
    fn all_docs_aggregates_every_collection() {
        let c = Corpus::generate(&CorpusConfig::tiny());
        assert_eq!(
            c.all_docs().len(),
            c.articles.len() + c.overviews.len() + c.web_pages.len() + c.essays.len()
        );
    }
}
