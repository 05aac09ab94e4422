//! The query stream of the three query workloads and its answer oracle.
//!
//! A run replays one pass of queries over and over. Queries run TA → BPA →
//! TA → BPA2 round-robin, and every query of a pass draws fresh
//! `WeightedSum` weights. Pass `p` multiplies every weight by `2^p` (modulo
//! 32): that scales every combined score exactly, so each query does the
//! same work in every pass, yet no two queries of a run are equal and no
//! answer cache can stand in for execution. Each query's latency is its
//! best over the passes (see `OpLog::keep_best`).
// lint:allow-file(no-wall-clock) -- a benchmark outside the program: measuring wall time is its job, as in crates/bench

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use topk_core::{
    AlgorithmKind, CostModel, NaiveScan, TopKAlgorithm, TopKError, TopKQuery, TopKResult,
    WeightedSum,
};
use topk_lists::Database;

use crate::report::{Counts, OpLog, Tally};

/// The algorithm mix, in round-robin order: TA runs twice per cycle. BPA2
/// is the fastest and BPA the slowest, so TA's queries fill the middle half
/// of the latency distribution. The median then lies inside TA's mode and
/// the 95th percentile inside BPA's, never on a boundary between two
/// algorithms' modes, where a percentile swings with small shifts of
/// either.
pub const MIX: [AlgorithmKind; 4] = [
    AlgorithmKind::Ta,
    AlgorithmKind::Bpa,
    AlgorithmKind::Ta,
    AlgorithmKind::Bpa2,
];

/// Queries in one pass: enough that ten lie beyond the 95th percentile,
/// and whole cycles of the mix.
pub const PASS_OPS: usize = 50 * MIX.len();

/// What pass `pass` multiplies every weight and every score by. A power
/// of two, so the scaling is exact.
pub fn pass_scale(pass: usize) -> f64 {
    2f64.powi((pass % 32) as i32)
}

/// One query of the stream.
pub struct Op {
    pub algorithm: Box<dyn TopKAlgorithm>,
    pub query: TopKQuery,
}

/// One query of a pass before its pass scales it.
pub struct PassOp {
    kind: AlgorithmKind,
    weights: Vec<f64>,
}

impl PassOp {
    pub fn at(&self, k: usize, scale: f64) -> Op {
        Op {
            algorithm: self.kind.create(),
            query: TopKQuery::new(
                k,
                WeightedSum::new(self.weights.iter().map(|w| w * scale).collect()),
            ),
        }
    }
}

/// The deterministic queries of one pass for a seed.
pub fn pass_ops(seed: u64, lists: usize, count: usize) -> Vec<PassOp> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    (0..count)
        .map(|i| PassOp {
            kind: MIX[i % MIX.len()],
            weights: (0..lists).map(|_| 0.5 + rng.random::<f64>()).collect(),
        })
        .collect()
}

/// An answer as the oracle compares it: item ids and exact score bits.
pub type Answer = Vec<(u64, u64)>;

pub fn answer_of(result: &TopKResult) -> Answer {
    result
        .items()
        .iter()
        .map(|r| (r.item.0, r.score.value().to_bits()))
        .collect()
}

/// Everything a run reports except its wall time: the answer and every
/// counter. Two runs of one query that differ here did different work.
pub fn observable(result: &TopKResult) -> impl PartialEq + std::fmt::Debug {
    let stats = result.stats();
    (
        answer_of(result),
        stats.accesses,
        stats.per_list.clone(),
        stats.stop_position,
        stats.rounds,
        stats.items_scored,
    )
}

/// The reference answer: a full scan of the database.
pub fn reference(database: &Database, query: &TopKQuery) -> Answer {
    answer_of(
        &NaiveScan
            .run(database, query)
            .expect("the full scan answers every valid query"),
    )
}

/// An answer with every score multiplied by `scale`, a power of two.
fn scaled(answer: &Answer, scale: f64) -> Answer {
    answer
        .iter()
        .map(|&(id, bits)| (id, (f64::from_bits(bits) * scale).to_bits()))
        .collect()
}

/// What one closed-loop phase over the query stream measured.
pub struct QueryPhase {
    pub log: OpLog,
    pub counts: Counts,
    pub tally: Tally,
}

/// Set-ups before every pass. The `j`-th set-up before a pass is set-up
/// slot `j`, which keeps its best time over the passes as an op does, and
/// `setup_s` is the median over the slots. Single set-ups on a shared host
/// read either a fast or a slow level, depending on the moment, so the
/// median of single set-ups would sit on the boundary between the two.
pub const SET_UPS_PER_PASS: usize = 5;

/// How long a closed-loop phase runs.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    /// Ops in one pass; every pass replays the same ops.
    pub pass_ops: usize,
    /// Passes repeat until this much time has passed...
    pub budget: Duration,
    /// ...and at least this many have run.
    pub min_passes: usize,
}

impl Plan {
    /// Whether another pass is due after `passes` passes since `started`.
    pub fn another_pass(&self, passes: usize, started: Instant) -> bool {
        passes < self.min_passes || started.elapsed() < self.budget
    }
}

/// Runs the closed loop: one query at a time, pass after pass, until the
/// plan is met. `exec` runs one query and returns its result with the time
/// of the timed section; `set_up(slot)` repeats the workload's set-up,
/// untimed, once per slot before every pass. The reference answers
/// come from a full scan before the loop, and every answer is checked
/// outside the timed sections. Access counts cover the first pass.
pub fn run_phase(
    plan: Plan,
    database: &Database,
    k: usize,
    mut exec: impl FnMut(&Op) -> (Result<TopKResult, TopKError>, Duration),
    mut set_up: impl FnMut(usize),
) -> QueryPhase {
    let ops = pass_ops(plan.seed, database.num_lists(), plan.pass_ops);
    let expected: Vec<Answer> = ops
        .iter()
        .map(|op| reference(database, &op.at(k, 1.0).query))
        .collect();
    let model = CostModel::paper_default(database.num_items());
    let mut phase = QueryPhase {
        log: OpLog::default(),
        counts: Counts::default(),
        tally: Tally::default(),
    };
    let started = Instant::now();
    let mut passes = 0;
    loop {
        (0..SET_UPS_PER_PASS).for_each(&mut set_up);
        let scale = pass_scale(passes);
        for (at, pass_op) in ops.iter().enumerate() {
            let op = pass_op.at(k, scale);
            let (outcome, took) = exec(&op);
            phase.log.keep_best(at, took);
            phase.tally.attempted += 1;
            match outcome {
                Ok(result) => {
                    if passes == 0 {
                        phase.counts.add(&result.stats().accesses, &model);
                    }
                    if answer_of(&result) != scaled(&expected[at], scale) {
                        eprintln!("pass {passes} query {at} differs from the full scan");
                        phase.tally.failed += 1;
                    }
                }
                Err(e) => {
                    eprintln!("pass {passes} query {at} failed: {e}");
                    phase.tally.failed += 1;
                }
            }
        }
        passes += 1;
        if !plan.another_pass(passes, started) {
            return phase;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_datagen::{DatabaseKind, DatabaseSpec};

    /// A scaled pass does exactly the first pass's work, and its answer is
    /// the first pass's with every score scaled.
    #[test]
    fn passes_repeat_the_same_work() {
        let db = DatabaseSpec::new(DatabaseKind::Uniform, 4, 2_000).generate(3);
        for op in pass_ops(7, db.num_lists(), 2 * MIX.len()) {
            let first = op.at(10, 1.0);
            let first = first.algorithm.run(&db, &first.query).unwrap();
            for pass in [1, 17, 31, 32] {
                let later = op.at(10, pass_scale(pass));
                let later = later.algorithm.run(&db, &later.query).unwrap();
                assert_eq!(first.stats().accesses, later.stats().accesses);
                assert_eq!(first.stats().stop_position, later.stats().stop_position);
                assert_eq!(
                    scaled(&answer_of(&first), pass_scale(pass)),
                    answer_of(&later)
                );
            }
        }
    }
}
