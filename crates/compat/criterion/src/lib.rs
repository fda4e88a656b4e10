//! Offline stand-in for the `criterion` crate.
//!
//! The build container has no network access to crates.io, so the workspace
//! vendors the benchmarking API surface its benches use: [`Criterion`],
//! [`BenchmarkGroup`] (`sample_size`, `bench_function`, `finish`),
//! [`Bencher`] (`iter`, `iter_batched`), [`BatchSize`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! The statistics are deliberately simple: each `bench_function` is warmed
//! up, then timed over `sample_size` samples whose per-iteration times are
//! reported as min / median / mean on stdout. No HTML reports, no history,
//! no outlier analysis — this harness exists to (a) keep the bench targets
//! compiling and runnable offline and (b) give honest relative wall-clock
//! numbers for the comparisons the benches encode (DP vs exhaustive, serial
//! vs parallel, ablations).
//!
//! A positional CLI argument acts as a substring filter on
//! `"group/function"` ids, so `cargo bench --bench parallel_sweep -- alu`
//! runs only the matching benchmarks, like upstream.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How `iter_batched` amortises setup cost. Only the API shape matters for
/// this stand-in: every batch size measures the routine per call, with setup
/// excluded from the timings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup per measured call.
    PerIteration,
}

/// Top-level benchmark driver (one per bench binary).
pub struct Criterion {
    filter: Option<String>,
    default_sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        // Positional args (from `cargo bench -- <filter>`) filter benchmark
        // ids; flag-style args the real criterion accepts are ignored.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Criterion {
            filter,
            default_sample_size: 10,
        }
    }
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: None,
        }
    }
}

/// A named group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'c> {
    criterion: &'c Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 2, "sample size must be at least 2");
        self.sample_size = Some(n);
        self
    }

    /// Defines and immediately runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = format!("{}/{}", self.name, id.into());
        if let Some(filter) = &self.criterion.filter {
            if !id.contains(filter.as_str()) {
                return self;
            }
        }
        let samples = self
            .sample_size
            .unwrap_or(self.criterion.default_sample_size);
        let mut bencher = Bencher {
            samples,
            per_iter: Vec::new(),
        };
        f(&mut bencher);
        report(&id, &mut bencher.per_iter);
        self
    }

    /// Ends the group (kept for API compatibility; nothing is deferred).
    pub fn finish(self) {}
}

/// Times the routine handed to it by a benchmark definition.
pub struct Bencher {
    samples: usize,
    per_iter: Vec<Duration>,
}

impl Bencher {
    /// Times `routine`, adaptively batching calls so each sample measures a
    /// meaningful duration even for sub-microsecond routines.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up and calibration: find how many calls fill ~5 ms.
        let mut calls_per_sample = 1u64;
        loop {
            let t = Instant::now();
            for _ in 0..calls_per_sample {
                black_box(routine());
            }
            let elapsed = t.elapsed();
            if elapsed >= Duration::from_millis(5) || calls_per_sample >= 1 << 20 {
                break;
            }
            calls_per_sample *= 4;
        }
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..calls_per_sample {
                black_box(routine());
            }
            self.per_iter.push(t.elapsed() / calls_per_sample as u32);
        }
    }

    /// Times `routine` over inputs produced by `setup`; setup time is
    /// excluded from the measurements.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..self.samples {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            self.per_iter.push(t.elapsed());
        }
    }
}

fn report(id: &str, per_iter: &mut [Duration]) {
    if per_iter.is_empty() {
        println!("{id:<56} (no samples)");
        return;
    }
    per_iter.sort();
    let min = per_iter[0];
    let median = per_iter[per_iter.len() / 2];
    let mean = per_iter.iter().sum::<Duration>() / per_iter.len() as u32;
    println!(
        "{id:<56} min {:>12}  median {:>12}  mean {:>12}  ({} samples)",
        fmt(min),
        fmt(median),
        fmt(mean),
        per_iter.len()
    );
}

fn fmt(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", ns as f64 / 1_000_000_000.0)
    }
}

/// Declares a group function running the listed benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion {
            filter: None,
            default_sample_size: 3,
        };
        let mut group = c.benchmark_group("g");
        let mut runs = 0u32;
        group.sample_size(2).bench_function("f", |b| {
            b.iter(|| {
                runs += 1;
                std::thread::sleep(Duration::from_millis(2));
            })
        });
        group.finish();
        assert!(runs >= 2);
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut c = Criterion {
            filter: Some("nomatch".into()),
            default_sample_size: 2,
        };
        let mut group = c.benchmark_group("g");
        let mut runs = 0u32;
        group.bench_function("f", |b| b.iter(|| runs += 1));
        group.finish();
        assert_eq!(runs, 0);
    }

    #[test]
    fn iter_batched_excludes_setup() {
        let mut c = Criterion {
            filter: None,
            default_sample_size: 2,
        };
        let mut group = c.benchmark_group("g");
        group.bench_function("b", |b| {
            b.iter_batched(|| vec![1u8; 64], |v| v.len(), BatchSize::SmallInput)
        });
        group.finish();
    }
}
