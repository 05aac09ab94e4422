//! Statistics over one run and the result line the benchmark prints.
// lint:allow-file(no-wall-clock) -- a benchmark outside the program: measuring wall time is its job, as in crates/bench

use std::time::{Duration, Instant};

use topk_core::CostModel;
use topk_lists::AccessCounters;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Runs `f` and returns its result with the wall time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median of the values (mean of the middle two for an even count);
/// 0 for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=1) of already sorted values.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Records `value` for slot `at` of `best`, keeping the lowest value per
/// slot. Slots are first recorded in order.
pub fn keep_best(best: &mut Vec<f64>, at: usize, value: f64) {
    match best.get_mut(at) {
        Some(b) => *b = b.min(value),
        None => {
            assert_eq!(at, best.len(), "slots are first recorded in order");
            best.push(value);
        }
    }
}

/// Latencies of one closed-loop phase, one per op of a pass.
///
/// Every pass replays the same ops, doing the same work, so an op's best
/// time over the passes is its latency when the host did not slow it. On
/// a shared host that speeds up and slows down by tens of percent over
/// seconds, the best of passes spread over the run repeats from run to
/// run; a single pass's time does not.
#[derive(Debug, Default)]
pub struct OpLog {
    latencies_ms: Vec<f64>,
}

impl OpLog {
    pub fn push(&mut self, latency: Duration) {
        self.latencies_ms.push(ms(latency));
    }

    /// Records op `at` of a pass, keeping its best time over the passes.
    pub fn keep_best(&mut self, at: usize, latency: Duration) {
        keep_best(&mut self.latencies_ms, at, ms(latency));
    }

    pub fn len(&self) -> usize {
        self.latencies_ms.len()
    }

    pub fn latencies_ms(&self) -> &[f64] {
        &self.latencies_ms
    }

    pub fn total_ms(&self) -> f64 {
        self.latencies_ms.iter().sum()
    }

    /// Median and 95th percentile latency, in ms.
    pub fn p50_p95(&self) -> (f64, f64) {
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        (percentile(&sorted, 0.50), percentile(&sorted, 0.95))
    }

    /// Ops per second of the closed loop: the ops over the time they
    /// took.
    pub fn ops_per_s(&self) -> f64 {
        self.len() as f64 * 1e3 / self.total_ms()
    }
}

/// Accesses and paper cost over the first pass of a run. The pass is
/// fixed by the seed, so these repeat exactly however long the run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub ops: u64,
    pub accesses: AccessCounters,
    pub cost: f64,
}

impl Counts {
    pub fn add(&mut self, accesses: &AccessCounters, model: &CostModel) {
        self.ops += 1;
        self.accesses = self.accesses.combined(accesses);
        self.cost += model.execution_cost(accesses);
    }

    pub fn per_op(&self, value: u64) -> f64 {
        value as f64 / self.ops as f64
    }
}

/// Failure accounting of one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The end-to-end metrics of one workload run.
pub fn end_to_end(
    log: &OpLog,
    setup_s: &[f64],
    counts: &Counts,
    tally: Tally,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let (p50, p95) = log.p50_p95();
    vec![
        metric("op_p50_ms", p50, "ms"),
        metric("op_p95_ms", p95, "ms"),
        metric("ops_per_s", log.ops_per_s(), "1/s"),
        metric("setup_s", median(setup_s), "s"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
        metric(
            "ok_op_frac",
            (tally.attempted - tally.failed) as f64 / tally.attempted as f64,
            "ratio",
        ),
        metric(
            "accesses_per_op",
            counts.per_op(counts.accesses.total()),
            "count",
        ),
        metric("exec_cost_per_op", counts.cost / counts.ops as f64, "cost"),
    ]
}

/// The result line: one JSON object with exactly the keys the benchmark
/// contract names.
pub fn result_json(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut log = OpLog::default();
        for i in 1..=100 {
            log.push(Duration::from_millis(i));
        }
        assert_eq!(log.p50_p95(), (50.0, 95.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn each_op_keeps_its_best_pass() {
        let mut log = OpLog::default();
        for pass in [[10, 40], [5, 60], [20, 50]] {
            for (at, ms) in pass.into_iter().enumerate() {
                log.keep_best(at, Duration::from_millis(ms));
            }
        }
        assert_eq!(log.latencies_ms(), &[5.0, 40.0]);
        // Two ops in 45 ms.
        assert!((log.ops_per_s() - 2e3 / 45.0).abs() < 1e-9);
    }
}
