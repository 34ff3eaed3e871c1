//! Machine speed, measured by a fixed reference kernel timed between the
//! benchmark's runs, so that wall times can be scaled to one reference
//! speed.
//!
//! On a shared host the speed available to one thread swings by up to 2x
//! for seconds to minutes at a time, as other tenants come and go on the
//! same core and caches. No estimator over the runs alone can tell such a
//! stretch from a slower program. The reference kernel is the benchmark's
//! own code, independent of the library, with the same mix of work the
//! simulator does (a binary-heap event queue and hash-set bookkeeping), so
//! it slows in step with the runs around it while the library's speed does
//! not move it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::time::Instant;

use crate::report::median;

/// The kernel time every scaled time is reported at: about the kernel's
/// wall ms on an uncontended 2-vCPU Intel Xeon (family 6, model 143)
/// guest, whose quietest 10 s stretch measured gave a median of 30.5 ms.
/// A time scaled on that machine while it is quiet reads as its wall time.
pub const REFERENCE_MS: f64 = 30.0;

/// Kernel time spent per unit of timed run time.
const SHARE: f64 = 0.2;

/// Nodes of the reference kernel's echo flood.
const KERNEL_NODES: u32 = 43;

/// The reference kernel: an all-to-all echo flood among `KERNEL_NODES`
/// nodes over a binary-heap event queue with random delays, each node
/// keeping hash sets of what it has seen and echoed. Returns the number
/// of deliveries, which is fixed.
pub fn kernel() -> u64 {
    let n = KERNEL_NODES;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut delay = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        1 + state % 10
    };
    let mut queue = BinaryHeap::new();
    let mut seen: Vec<HashSet<(u32, u32)>> = (0..n).map(|_| HashSet::new()).collect();
    let mut echoed: Vec<HashSet<u32>> = (0..n).map(|_| HashSet::new()).collect();
    for from in 0..n {
        for to in 0..n {
            queue.push(Reverse((delay(), to, from, from)));
        }
    }
    let mut delivered = 0;
    while let Some(Reverse((at, to, from, origin))) = queue.pop() {
        delivered += 1;
        let me = to as usize;
        if seen[me].insert((from, origin)) && echoed[me].insert(origin) {
            for dest in 0..n {
                queue.push(Reverse((at + delay(), dest, to, origin)));
            }
        }
    }
    delivered
}

/// Kernel timings taken between timed runs, each after the run it
/// follows, as soon as the kernel's time falls behind its share of the
/// run time.
#[derive(Debug)]
pub struct Gauge {
    /// `(runs closed before it, wall ms)` of every kernel timing.
    samples: Vec<(usize, f64)>,
    runs: usize,
    run_ms: f64,
    kernel_ms: f64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    /// A gauge whose first kernel timing is taken now.
    pub fn new() -> Self {
        let mut gauge = Gauge {
            samples: Vec::new(),
            runs: 0,
            run_ms: 0.0,
            kernel_ms: 0.0,
        };
        gauge.sample();
        gauge
    }

    /// Closes a timed run of `ms` wall ms, then times the kernel while its
    /// time is behind its share.
    pub fn after(&mut self, ms: f64) {
        self.runs += 1;
        self.run_ms += ms;
        while self.kernel_ms < SHARE * self.run_ms {
            self.sample();
        }
    }

    /// Times the kernel once more unless the last timing follows the last
    /// run, so that every run has a timing on either side.
    pub fn finish(&mut self) {
        if self.samples.last().is_some_and(|&(at, _)| at < self.runs) {
            self.sample();
        }
    }

    fn sample(&mut self) {
        let t = Instant::now();
        std::hint::black_box(kernel());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.kernel_ms += ms;
        self.samples.push((self.runs, ms));
    }

    /// The factor that scales run `j`'s wall time (`j` counting from 0)
    /// to the reference speed: [`REFERENCE_MS`] over the mean of the
    /// medians of the nearest kernel timings before and after the run.
    ///
    /// # Panics
    ///
    /// Panics unless run `j` was closed and [`Gauge::finish`] called.
    pub fn scale(&self, j: usize) -> f64 {
        // Timings after run `j` carry `at > j`; the nearest before it, `at <= j`.
        let next = self.samples.partition_point(|&(at, _)| at <= j);
        let nearest = |at: usize| -> Vec<f64> {
            self.samples
                .iter()
                .filter(|s| s.0 == at)
                .map(|s| s.1)
                .collect()
        };
        let before = median(&nearest(self.samples[next - 1].0));
        let after = median(&nearest(self.samples[next].0));
        2.0 * REFERENCE_MS / (before + after)
    }

    /// Median kernel wall ms over every timing.
    pub fn kernel_median_ms(&self) -> f64 {
        median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
        assert!(kernel() > u64::from(KERNEL_NODES).pow(2));
    }

    #[test]
    fn each_run_is_scaled_by_the_timings_around_it() {
        let mut g = Gauge::new();
        g.after(0.0);
        g.after(0.0);
        g.finish();
        assert_eq!(g.samples.len(), 2);
        let r = REFERENCE_MS;
        // Timings after 0 runs, 2 runs (two of them) and 3 runs.
        g.samples = vec![(0, 2.0 * r), (2, r), (2, 3.0 * r), (3, r)];
        // Runs 0 and 1 sit between the timings after 0 and 2 runs.
        assert_eq!(g.scale(0), 0.5);
        assert_eq!(g.scale(1), 0.5);
        assert!((g.scale(2) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_time_keeps_its_share_of_run_time() {
        let mut g = Gauge::new();
        let ms = g.kernel_ms;
        g.after(20.0 * ms);
        assert!(g.kernel_ms >= SHARE * g.run_ms);
        assert!(g.samples.len() >= 4);
        g.finish();
        assert_eq!(g.samples.last().unwrap().0, 1);
    }
}
