//! T18 (partitioned serving under overload): the saturation curve of
//! the scatter-gather router with admission control — throughput and
//! shed rate vs offered load at 1/2/4 partitions.
//!
//! The offered-load schedule is driven by a [`ManualClock`], so the
//! token-bucket arithmetic — and therefore the shed column — is exactly
//! reproducible: below the admission rate nothing sheds; past the knee
//! the bucket drains and the excess is refused with typed rejections,
//! never queued and never panicking. Wall-clock throughput is reported
//! for color but not asserted.

use std::time::Instant;

use kb_obs::{ManualClock, Registry};
use kb_serve::{AdmissionConfig, KbRouter, ServeError};

use crate::exp_query::synthetic_kb_skewed;
use crate::table::Table;

/// The per-tenant admission rate (requests/second of simulated time).
const RATE: f64 = 400.0;
/// Token-bucket burst capacity.
const BURST: f64 = 32.0;
/// Simulated wall time per load level.
const SIM_SECS: u64 = 5;

pub fn t18() -> String {
    let snap = synthetic_kb_skewed(100_000, 7).freeze().into_shared();
    let mut t = Table::new(&[
        "partitions",
        "offered rps",
        "requests",
        "served",
        "shed",
        "shed %",
        "routed single",
        "scattered",
        "wall req/s",
    ]);
    for &partitions in &[1usize, 2, 4] {
        for &offered in &[100u64, 200, 400, 800, 1600] {
            let clock = ManualClock::shared(0);
            let registry = Registry::with_clock(clock.clone());
            let config = AdmissionConfig {
                rate_per_sec: Some(RATE),
                burst: BURST,
                queue_depth: 64,
                ..Default::default()
            };
            let router = KbRouter::with_config(snap.clone(), partitions, config, &registry);
            let total = offered * SIM_SECS;
            // Arrivals are evenly spaced: each request advances the
            // simulated clock by its inter-arrival gap, refilling the
            // bucket by RATE/offered tokens.
            let gap_micros = 1_000_000 / offered;
            let (mut served, mut shed) = (0u64, 0u64);
            let t0 = Instant::now();
            for i in 0..total {
                clock.advance(gap_micros);
                // 7:1 cheap subject-bound probes (cached per replica) to
                // scatter queries over the rare relation (planned fresh
                // over the merged view each time).
                let q = if i % 8 == 7 {
                    "?x rel_rare ?y".to_string()
                } else {
                    format!("entity_{} rel_big ?o", i % 64)
                };
                match router.query(&q) {
                    Ok(_) => served += 1,
                    Err(ServeError::Overloaded(_)) => shed += 1,
                    Err(e) => panic!("T18 query failed outright: {e}"),
                }
            }
            let wall = t0.elapsed().as_secs_f64();
            // The knee is the admission rate: below it the bucket
            // refills at least one token per arrival and nothing sheds;
            // at 2x and beyond the deficit is structural.
            if (offered as f64) <= RATE {
                assert_eq!(shed, 0, "{offered} rps is below the {RATE} rps knee");
            }
            if (offered as f64) >= 2.0 * RATE {
                assert!(shed > 0, "{offered} rps must shed past the {RATE} rps knee");
            }
            assert_eq!(served + shed, total, "every request is answered or refused");
            t.row(vec![
                partitions.to_string(),
                offered.to_string(),
                total.to_string(),
                served.to_string(),
                shed.to_string(),
                format!("{:.1}", 100.0 * shed as f64 / total as f64),
                registry.counter("serve.routed_single").get().to_string(),
                registry.counter("serve.scattered").get().to_string(),
                format!("{:.0}", total as f64 / wall),
            ]);
        }
    }
    format!(
        "T18 — partitioned serving saturation (admission {RATE} rps, burst {BURST}, \
         {SIM_SECS}s simulated per level, deterministic manual clock)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t18_sheds_exactly_at_the_knee() {
        let out = t18();
        assert!(out.contains("T18"), "table header present");
    }
}
