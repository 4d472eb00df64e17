//! A minimal, dependency-free micro-benchmark harness.
//!
//! Replaces criterion (a registry dependency a cold offline checkout
//! cannot fetch) for the `benches/` targets. The methodology is the
//! usual one: warm up, pick an iteration count that makes one sample
//! take ~`SAMPLE_TARGET`, collect `SAMPLES` samples, report the median
//! per-iteration time. Good enough to compare engines against each
//! other and to track the perf trajectory across PRs; not a substitute
//! for criterion's statistics when the registry is reachable.

use std::time::{Duration, Instant};

/// Samples collected per benchmark.
const SAMPLES: usize = 15;
/// Wall-clock target for one sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(20);

/// One benchmark measurement.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// Minimum nanoseconds per iteration across samples.
    pub min_ns: f64,
    /// Iterations per sample the calibration chose.
    pub iters_per_sample: u64,
}

/// Times `f`, batching iterations so timer overhead is negligible.
pub fn time<F: FnMut()>(mut f: F) -> Measurement {
    let iters = calibrate(&mut f);
    summarize((0..SAMPLES).map(|_| sample(&mut f, iters)).collect(), iters)
}

/// Times `a` and `b` with their samples interleaved. Each body is
/// calibrated on its own; then every sample round times one batch of
/// each, alternating which goes first. A shift in host speed during the
/// run then moves both medians alike instead of skewing their ratio.
pub fn time_pair<A: FnMut(), B: FnMut()>(mut a: A, mut b: B) -> (Measurement, Measurement) {
    let (iters_a, iters_b) = (calibrate(&mut a), calibrate(&mut b));
    let (mut samples_a, mut samples_b) = (Vec::new(), Vec::new());
    for round in 0..SAMPLES {
        if round % 2 == 0 {
            samples_a.push(sample(&mut a, iters_a));
            samples_b.push(sample(&mut b, iters_b));
        } else {
            samples_b.push(sample(&mut b, iters_b));
            samples_a.push(sample(&mut a, iters_a));
        }
    }
    (summarize(samples_a, iters_a), summarize(samples_b, iters_b))
}

/// Warm-up + calibration: grows the batch until one batch costs
/// ~SAMPLE_TARGET (or the batch is clearly long enough to time), and
/// returns its iteration count.
fn calibrate<F: FnMut()>(f: &mut F) -> u64 {
    let mut iters: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let dt = t0.elapsed();
        if dt >= SAMPLE_TARGET || iters >= 1 << 24 {
            return iters;
        }
        // Aim straight for the target from the observed rate.
        let per_iter = dt.as_nanos().max(1) as u64 / iters.max(1);
        iters = (SAMPLE_TARGET.as_nanos() as u64 / per_iter.max(1)).clamp(iters * 2, 1 << 24);
    }
}

/// Nanoseconds per iteration over one batch of `iters` calls.
fn sample<F: FnMut()>(f: &mut F, iters: u64) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// The median and minimum of one benchmark's samples.
fn summarize(mut per_iter_ns: Vec<f64>, iters_per_sample: u64) -> Measurement {
    per_iter_ns.sort_by(|a, b| a.total_cmp(b));
    Measurement {
        median_ns: per_iter_ns[per_iter_ns.len() / 2],
        min_ns: per_iter_ns[0],
        iters_per_sample,
    }
}

/// Times `f` where each iteration needs a fresh input from `setup`
/// (setup cost excluded by timing each run individually — slightly
/// noisier than batching, so it is reserved for bodies that are long
/// relative to timer resolution).
pub fn time_with_setup<S, F, T>(mut setup: S, mut f: F) -> Measurement
where
    S: FnMut() -> T,
    F: FnMut(T),
{
    let mut samples: Vec<f64> = Vec::with_capacity(SAMPLES);
    // Inner repetitions per sample keep each timed span well above
    // timer granularity.
    const INNER: usize = 8;
    for _ in 0..SAMPLES {
        let inputs: Vec<T> = (0..INNER).map(|_| setup()).collect();
        let t0 = Instant::now();
        for input in inputs {
            f(input);
        }
        samples.push(t0.elapsed().as_nanos() as f64 / INNER as f64);
    }
    summarize(samples, INNER as u64)
}

/// Runs and prints one benchmark line.
pub fn bench<F: FnMut()>(name: &str, f: F) -> Measurement {
    let m = time(f);
    println!(
        "{name:<40} {:>12.1} ns/iter (min {:>10.1})",
        m.median_ns, m.min_ns
    );
    m
}

/// Runs and prints one setup-per-iteration benchmark line.
pub fn bench_with_setup<S, F, T>(name: &str, setup: S, f: F) -> Measurement
where
    S: FnMut() -> T,
    F: FnMut(T),
{
    let m = time_with_setup(setup, f);
    println!(
        "{name:<40} {:>12.1} ns/iter (min {:>10.1})",
        m.median_ns, m.min_ns
    );
    m
}

#[cfg(test)]
mod tests {
    #[test]
    fn time_reports_sane_numbers() {
        let m = super::time(|| {
            std::hint::black_box(1u64 + 1);
        });
        assert!(m.median_ns >= 0.0);
        assert!(m.iters_per_sample >= 1);
    }

    #[test]
    fn time_pair_runs_both_bodies_every_round() {
        let (mut calls_a, mut calls_b) = (0u64, 0u64);
        let (a, b) = super::time_pair(|| calls_a += 1, || calls_b += 1);
        // Calibration plus SAMPLES batches each.
        assert!(calls_a >= a.iters_per_sample * super::SAMPLES as u64);
        assert!(calls_b >= b.iters_per_sample * super::SAMPLES as u64);
        assert!(a.min_ns <= a.median_ns && b.min_ns <= b.median_ns);
    }
}
