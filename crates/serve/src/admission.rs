//! Admission control: per-tenant token buckets in front of bounded
//! per-partition in-flight queues.
//!
//! Both gates shed load by *typed rejection* ([`Overloaded`]) rather
//! than queueing unboundedly: past the knee, a saturated service must
//! answer "no" in microseconds so admitted requests keep their latency
//! — the classic load-shedding posture of production serving stacks.
//!
//! Time comes from the registry clock, so tests (`router_stress`'s
//! saturation curve, once harness table T18) drive the buckets with a
//! [`ManualClock`](kb_obs::ManualClock) and get exactly reproducible
//! shed curves.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use kb_obs::{Clock, Gauge};

use crate::lock::lock;

/// Admission-control policy for a [`KbRouter`](crate::KbRouter).
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Per-tenant steady-state admission rate, requests per second.
    /// `None` disables rate limiting.
    pub rate_per_sec: Option<f64>,
    /// Token-bucket burst capacity: how far above the steady rate a
    /// tenant may briefly spike. Buckets start full.
    pub burst: f64,
    /// Bound on concurrently admitted requests per partition; a scatter
    /// query occupies one slot in *every* partition. Zero rejects
    /// everything — useful only in tests.
    pub queue_depth: usize,
    /// Bound on each standing-view subscriber's update queue. When a
    /// slow subscriber falls this many updates behind, the oldest
    /// updates drop (`view.lagged`) and the subscriber's next receive
    /// reports [`ViewLag`](crate::ViewLag) — installs never block on a
    /// stalled consumer.
    pub subscriber_buffer: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self { rate_per_sec: None, burst: 32.0, queue_depth: 64, subscriber_buffer: 64 }
    }
}

/// Why a request was shed. Returned inside
/// [`ServeError::Overloaded`](crate::ServeError::Overloaded); always a
/// fast, typed rejection — the router never queues unboundedly and
/// never panics under load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Overloaded {
    /// The tenant's token bucket is empty: offered load exceeds the
    /// configured per-tenant rate.
    RateLimited {
        /// The tenant that exceeded its rate.
        tenant: String,
    },
    /// A partition's in-flight queue is at its bound.
    QueueFull {
        /// The partition whose queue rejected the request.
        partition: usize,
    },
}

impl fmt::Display for Overloaded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Overloaded::RateLimited { tenant } => {
                write!(f, "tenant {tenant:?} exceeded its admission rate")
            }
            Overloaded::QueueFull { partition } => {
                write!(f, "partition {partition} queue is full")
            }
        }
    }
}

impl std::error::Error for Overloaded {}

/// One tenant's token bucket. Tokens refill continuously at the
/// configured rate and cap at the burst size.
#[derive(Debug)]
struct Bucket {
    tokens: f64,
    last_micros: u64,
}

/// The bucket map plus its sweep bookkeeping, behind one lock.
struct TenantBuckets {
    map: HashMap<String, Bucket>,
    /// When the last idle-bucket sweep ran (µs on the injected clock).
    last_sweep_micros: u64,
}

/// The router's admission gate: token buckets keyed by tenant plus one
/// in-flight counter per partition.
pub(crate) struct Admission {
    config: AdmissionConfig,
    clock: Arc<dyn Clock>,
    buckets: Mutex<TenantBuckets>,
    inflight: Vec<AtomicUsize>,
    queue_depth: Arc<Gauge>,
    tenants: Arc<Gauge>,
}

impl Admission {
    pub(crate) fn new(
        config: AdmissionConfig,
        clock: Arc<dyn Clock>,
        partitions: usize,
        queue_depth: Arc<Gauge>,
        tenants: Arc<Gauge>,
    ) -> Self {
        Self {
            config,
            clock,
            buckets: Mutex::new(TenantBuckets { map: HashMap::new(), last_sweep_micros: 0 }),
            inflight: (0..partitions).map(|_| AtomicUsize::new(0)).collect(),
            queue_depth,
            tenants,
        }
    }

    /// Microseconds of idleness after which a bucket has refilled to
    /// its burst cap and is therefore indistinguishable from the fresh
    /// bucket `admit` would mint for an unknown tenant — the point at
    /// which evicting it is observationally invisible.
    fn full_refill_micros(&self, rate: f64) -> u64 {
        ((self.config.burst / rate) * 1e6).ceil() as u64
    }

    /// Number of resident tenant buckets (for tests and stats).
    #[cfg(test)]
    pub(crate) fn tenant_count(&self) -> usize {
        lock(&self.buckets).map.len()
    }

    /// Takes one token from `tenant`'s bucket, refilling it first from
    /// the elapsed clock time. A tenant's first request finds a full
    /// bucket.
    ///
    /// The bucket map is kept bounded here as well: at most once per
    /// full-refill period, buckets idle for at least a full refill are
    /// dropped. Such a bucket has already refilled to the burst cap, so
    /// the eviction can never change an admission decision — an
    /// adversarial stream of unique tenant ids costs one refill period
    /// of memory, not unbounded growth.
    pub(crate) fn admit(&self, tenant: &str) -> Result<(), Overloaded> {
        let Some(rate) = self.config.rate_per_sec else {
            return Ok(());
        };
        let now = self.clock.now_micros();
        let idle_cutoff = self.full_refill_micros(rate);
        let mut buckets = lock(&self.buckets);
        if now.saturating_sub(buckets.last_sweep_micros) >= idle_cutoff {
            buckets.last_sweep_micros = now;
            buckets.map.retain(|_, b| now.saturating_sub(b.last_micros) < idle_cutoff);
        }
        let bucket = buckets
            .map
            .entry(tenant.to_string())
            .or_insert(Bucket { tokens: self.config.burst, last_micros: now });
        let elapsed = now.saturating_sub(bucket.last_micros);
        bucket.last_micros = now;
        // Multiply before dividing: for round trip counts this stays
        // exact in f64 (100ms at 10 rps is exactly one token).
        bucket.tokens = (bucket.tokens + elapsed as f64 * rate / 1e6).min(self.config.burst);
        let admitted = if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        };
        self.tenants.set(buckets.map.len() as i64);
        if admitted {
            Ok(())
        } else {
            Err(Overloaded::RateLimited { tenant: tenant.to_string() })
        }
    }

    /// Occupies one in-flight slot in each of `parts` (ascending order,
    /// rolled back wholesale on failure, so concurrent scatters cannot
    /// deadlock or leak slots). Released when the returned permit
    /// drops.
    pub(crate) fn acquire(&self, parts: &[usize]) -> Result<Permit<'_>, Overloaded> {
        let depth = self.config.queue_depth;
        for (i, &p) in parts.iter().enumerate() {
            let admitted = self.inflight[p]
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| (v < depth).then_some(v + 1))
                .is_ok();
            if !admitted {
                for &q in &parts[..i] {
                    self.inflight[q].fetch_sub(1, Ordering::AcqRel);
                }
                return Err(Overloaded::QueueFull { partition: p });
            }
        }
        self.queue_depth.add(parts.len() as i64);
        Ok(Permit { admission: self, parts: parts.to_vec() })
    }
}

/// RAII in-flight slots: dropping releases every acquired partition.
pub(crate) struct Permit<'a> {
    admission: &'a Admission,
    parts: Vec<usize>,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        for &p in &self.parts {
            self.admission.inflight[p].fetch_sub(1, Ordering::AcqRel);
        }
        self.admission.queue_depth.add(-(self.parts.len() as i64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kb_obs::ManualClock;

    fn gate(config: AdmissionConfig, partitions: usize) -> (Admission, Arc<ManualClock>) {
        let clock = ManualClock::shared(0);
        let queue_depth = Arc::new(Gauge::new());
        let tenants = Arc::new(Gauge::new());
        (Admission::new(config, clock.clone(), partitions, queue_depth, tenants), clock)
    }

    #[test]
    fn token_bucket_sheds_past_the_rate_and_refills() {
        let cfg = AdmissionConfig {
            rate_per_sec: Some(10.0),
            burst: 2.0,
            queue_depth: 4,
            ..Default::default()
        };
        let (gate, clock) = gate(cfg, 1);
        // Burst of 2 admitted, third shed.
        assert!(gate.admit("t").is_ok());
        assert!(gate.admit("t").is_ok());
        assert_eq!(gate.admit("t"), Err(Overloaded::RateLimited { tenant: "t".into() }));
        // 100ms at 10 rps refills exactly one token.
        clock.advance(100_000);
        assert!(gate.admit("t").is_ok());
        assert!(gate.admit("t").is_err());
        // Tenants are isolated.
        assert!(gate.admit("other").is_ok());
    }

    #[test]
    fn idle_tenant_buckets_are_evicted_after_a_full_refill() {
        // burst 2 at 10 rps: a bucket refills completely in 200ms, so
        // the idle cutoff (and minimum sweep spacing) is 200_000µs.
        let cfg = AdmissionConfig {
            rate_per_sec: Some(10.0),
            burst: 2.0,
            queue_depth: 4,
            ..Default::default()
        };
        let (gate, clock) = gate(cfg, 1);
        // Drain "t" to zero tokens, then park 50 one-shot tenants.
        assert!(gate.admit("t").is_ok());
        assert!(gate.admit("t").is_ok());
        for i in 0..50 {
            assert!(gate.admit(&format!("drive-by-{i}")).is_ok());
        }
        assert_eq!(gate.tenant_count(), 51);
        // 100ms later everyone is under the cutoff: no sweep, and "t"
        // has refilled exactly one token.
        clock.advance(100_000);
        assert!(gate.admit("t").is_ok());
        assert_eq!(gate.tenant_count(), 51);
        // 250ms after their last touch, the drive-by tenants have fully
        // refilled; the next admit sweeps them out. "t" (touched 150ms
        // ago) survives with its partial bucket intact: the 1.5 tokens
        // it holds admit one request and shed the next, which a fresh
        // full bucket would not.
        clock.advance(150_000);
        assert!(gate.admit("t").is_ok());
        assert_eq!(gate.tenant_count(), 1);
        assert_eq!(gate.admit("t"), Err(Overloaded::RateLimited { tenant: "t".into() }));
        // An evicted tenant that returns gets the same full bucket a
        // brand-new tenant would — eviction is observationally
        // invisible.
        assert!(gate.admit("drive-by-0").is_ok());
        assert!(gate.admit("drive-by-0").is_ok());
        assert!(gate.admit("drive-by-0").is_err());
    }

    #[test]
    fn queue_bound_rejects_and_rolls_back() {
        let cfg = AdmissionConfig {
            rate_per_sec: None,
            burst: 1.0,
            queue_depth: 1,
            ..Default::default()
        };
        let (gate, _clock) = gate(cfg, 2);
        let held = gate.acquire(&[1]).unwrap();
        // A scatter needing both partitions fails on partition 1 and
        // must roll back its partition-0 slot.
        match gate.acquire(&[0, 1]) {
            Err(e) => assert_eq!(e, Overloaded::QueueFull { partition: 1 }),
            Ok(_) => panic!("scatter must be rejected while partition 1 is full"),
        }
        let p0 = gate.acquire(&[0]).unwrap();
        drop(p0);
        drop(held);
        // Slots released: the scatter now fits.
        let all = gate.acquire(&[0, 1]).unwrap();
        drop(all);
    }
}
