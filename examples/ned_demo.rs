//! Named entity disambiguation demo: how prior, context and coherence
//! signals resolve an ambiguous surname differently.
//!
//! ```text
//! cargo run --release --example ned_demo
//! ```

use kbkit::kb_ned::{Ned, Strategy};
use kbkit::kb_store::{KbBuilder, KbRead};

fn main() {
    // A miniature KB with two people called "Varen":
    //  * Alan Varen, entrepreneur, founded AcmeCo, lives in Lundholm;
    //  * Bea Varen, musician, plays with the Torberg Philharmonic.
    let mut kb = KbBuilder::new();
    let alan = kb.intern("Alan_Varen");
    let bea = kb.intern("Bea_Varen");
    let acme = kb.intern("AcmeCo");
    let phil = kb.intern("Torberg_Philharmonic");
    let lund = kb.intern("Lundholm");
    let founded = kb.intern("founded");
    let plays = kb.intern("playsWith");
    let lives = kb.intern("livesIn");
    kb.add_triple(alan, founded, acme);
    kb.add_triple(alan, lives, lund);
    kb.add_triple(bea, plays, phil);
    let en = kb.labels.lang("en");
    kb.labels.add(alan, en, "Varen");
    kb.labels.add(alan, en, "Alan Varen");
    kb.labels.add(bea, en, "Varen");
    kb.labels.add(bea, en, "Bea Varen");
    kb.labels.add(acme, en, "AcmeCo");
    kb.labels.add(lund, en, "Lundholm");

    let mut ned = Ned::new(&kb);
    // Anchor statistics: the musician is mentioned more often overall,
    // so the popularity prior favors her.
    ned.add_anchor("Varen", bea);
    ned.add_anchor("Varen", bea);
    ned.add_anchor("Varen", bea);
    ned.add_anchor("Varen", alan);
    ned.add_anchor("AcmeCo", acme);
    ned.add_anchor("Lundholm", lund);
    ned.finalize();

    let text = "Varen spoke about AcmeCo and life in Lundholm.";
    println!("text: {text:?}\n");
    let mention = (0usize, 5usize); // "Varen"
    let all_mentions = [(0usize, 5usize), (18, 24), (37, 45)];

    for (label, strategy, mentions) in [
        ("prior only        ", Strategy::Prior, &all_mentions[..1]),
        ("prior + context   ", Strategy::Context, &all_mentions[..1]),
        ("joint + coherence ", Strategy::Coherence, &all_mentions[..]),
    ] {
        let out = ned.disambiguate(text, mentions, strategy);
        let resolved = out[0].and_then(|t| kb.resolve(t)).unwrap_or("<none>");
        println!("{label} -> \"Varen\" resolves to {resolved}");
    }
    let _ = mention;

    println!("\nThe prior picks the popular musician; context words (AcmeCo,");
    println!("Lundholm) and coherence with the co-occurring mentions flip the");
    println!("decision to the entrepreneur — the tutorial's NED recipe.");
}
