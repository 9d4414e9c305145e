//! # kb-ned
//!
//! Named entity disambiguation (NED) — tutorial §4: mapping ambiguous
//! entity mentions ("Jobs", "the Apple founder") to canonical KB
//! entities. State-of-the-art NED combines
//!
//! * a **popularity prior** per surface form (anchor-text statistics),
//! * **context similarity** between the mention's surroundings and each
//!   candidate's KB-derived keyphrase profile, and
//! * **coherence** among the entities chosen for co-occurring mentions
//!   (Milne-Witten relatedness over the KB graph),
//!
//! exactly the three signal families of AIDA and successors. The
//! [`Strategy`] enum exposes each ablation level —
//! prior-only, +context, +coherence — which experiment T5 compares.
//!
//! ```
//! use kb_store::KbBuilder;
//! use kb_ned::{Ned, Strategy};
//!
//! let mut kb = KbBuilder::new();
//! let jobs = kb.intern("Steve_Jobs");
//! let apple = kb.intern("Apple_Inc");
//! let founded = kb.intern("founded");
//! kb.add_triple(jobs, founded, apple);
//! let en = kb.labels.lang("en");
//! kb.labels.add(jobs, en, "Jobs");
//!
//! let mut ned = Ned::new(&kb);
//! ned.add_anchor("Jobs", jobs);
//! ned.finalize();
//! let out = ned.disambiguate("Jobs founded a company.", &[(0, 4)], Strategy::Prior);
//! assert_eq!(out[0], Some(jobs));
//! ```

pub mod coherence;
pub mod context;
pub mod eval;
pub mod mention;
pub mod system;

pub use eval::{evaluate, NedAccuracy};
pub use mention::detect_mentions;
pub use system::{Ned, Strategy};
