//! The reference clock: what makes two runs on this kind of machine
//! comparable.
//!
//! The virtual machine the baseline was recorded on switches between
//! two clock speeds, a quarter apart, every five to fifteen seconds: a
//! fixed arithmetic loop takes 1.47 ns a step in one phase and 1.88 ns
//! in the other, whatever else runs. A ten-second run lands in one
//! phase, the other, or a mix, so wall-clock medians of the same code
//! differ by up to 25% from run to run, however many operations a run
//! measures (records/NOISE.md has the measurements).
//!
//! So the benchmark keeps time the way one does when the clock rate is
//! not constant: in cycles, not seconds. Performance counters are not
//! available in the sandbox; the stand-in is a reference loop — a
//! dependent xorshift chain, which no compiler or cache can speed up —
//! timed every [`EVERY`] beside the measured operations. A duration is
//! multiplied by [`REFERENCE_NS_PER_STEP`] over the loop's ns per step
//! around the time it was taken. The result is still in seconds: the
//! seconds the work takes on a machine whose reference loop runs at
//! 1.5 ns a step, which is this one in its fast phase. On a machine
//! with a steady clock the factor is a constant and changes nothing
//! between two commits. Wall-clock values are kept in each run's
//! details.
//!
//! Waiting for the device is the other thing that does not repeat
//! here, and no clock helps with it. `construct` keeps the product's
//! defaults, fsync on, and more than half of one of its repetitions is
//! the virtual disk's fsync, whose latency drifts by tens of percent
//! over minutes (the median install read 250 µs, then 330–400 µs a
//! quarter of an hour later; a seal 4 ms or 9 ms). ISSUE 11 foresaw it
//! and said what to do: a metric that does not repeat is demoted to a
//! per-layer one. So `construct` tells each sample how much of it the
//! device decided (`Measured::work`), the end-to-end metrics count the
//! rest — what the program itself needs — and the device's part is
//! reported per layer and, exactly, as `wal.flushes`.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The instant this process first asked for the time: samples keep
/// their start as microseconds after it, in four bytes.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Steps of one timing of the reference loop; a reading is the faster
/// of two, so that one interrupt does not count.
const STEPS: u32 = 500_000;
/// Least time between two readings taken by [`RefClock::tick`]: under
/// 2% of the run goes to the reference loop.
const EVERY: Duration = Duration::from_millis(100);
/// The reference loop's speed on the reference machine.
pub const REFERENCE_NS_PER_STEP: f64 = 1.5;

/// Readings of the reference loop over a run, oldest first.
pub struct RefClock {
    readings: Vec<(Instant, f64)>,
}

fn ns_per_step() -> f64 {
    let once = || {
        let start = Instant::now();
        let mut x = 88_172_645_463_325_252_u64;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        start.elapsed().as_nanos() as f64 / f64::from(STEPS)
    };
    once().min(once())
}

impl RefClock {
    /// A clock with its first reading taken.
    pub fn new() -> Self {
        epoch();
        let mut clock = Self { readings: Vec::new() };
        clock.read();
        clock
    }

    /// Takes a reading now.
    pub fn read(&mut self) {
        let ns = ns_per_step();
        self.readings.push((Instant::now(), ns));
    }

    /// Takes a reading if the last one is [`EVERY`] old. Cheap enough
    /// to call between any two operations.
    pub fn tick(&mut self) {
        if self.readings.last().is_none_or(|(at, _)| at.elapsed() >= EVERY) {
            self.read();
        }
    }

    /// What a duration measured between `from` and `to` is multiplied
    /// by: the reference speed over the mean of the readings taken in
    /// between and of the one on either side.
    pub fn scale(&self, from: Instant, to: Instant) -> f64 {
        let first = self.readings.partition_point(|(at, _)| *at < from).saturating_sub(1);
        let last = self.readings.partition_point(|(at, _)| *at <= to);
        let around = &self.readings[first..(last + 1).min(self.readings.len())];
        let mean = around.iter().map(|(_, ns)| ns).sum::<f64>() / around.len() as f64;
        REFERENCE_NS_PER_STEP / mean
    }

    /// Every reading in ns per step, for the record.
    pub fn readings(&self) -> impl Iterator<Item = f64> + '_ {
        self.readings.iter().map(|(_, ns)| *ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_duration_is_scaled_by_the_readings_around_it() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let clock = RefClock { readings: vec![(at(0), 1.5), (at(100), 3.0), (at(200), 3.0)] };
        // Between the first two readings: their mean.
        assert_eq!(clock.scale(at(10), at(20)), 1.5 / 2.25);
        // Spanning all three, and after the last: what is there.
        assert_eq!(clock.scale(at(50), at(250)), 1.5 / 2.5);
        assert_eq!(clock.scale(at(300), at(310)), 1.5 / 3.0);
        // At the first: itself and the one after.
        assert_eq!(clock.scale(t0, t0), 1.5 / 2.25);
    }

    #[test]
    fn a_reading_is_a_plausible_speed() {
        let clock = RefClock::new();
        let ns = clock.readings().next().expect("the first reading is taken");
        assert!(ns > 0.05 && ns < 100.0, "{ns} ns a step");
    }
}
