//! `standing-stream`: writes beside reads. Each op is one mutation of an
//! updatable database, then `StandingQuery::ingest`, then a serve. It is
//! the only workload that mutates lists or runs the standing-query and
//! planner layers.
//!
//! The mutation mix repeats every [`CYCLE`] ops and keeps the database
//! statistically stationary, so a longer run does not drift:
//! * slot 0 spikes one item so far above the score range that it enters
//!   the answer, forcing a refresh;
//! * slot 8 cools that item back to an ordinary score, and since it is in
//!   the answer this refreshes too;
//! * on every other cycle, slot 4 inserts a fresh item and slot 12 deletes
//!   a random one, so the item count stays put;
//! * every other op re-scores a random item by a small step, which the
//!   standing query almost always absorbs.
//!
//! Refreshes are therefore about 2 ops in 16, so the 95th percentile sits
//! well inside the refresh mode and the median inside the absorbed mode,
//! never on the boundary between them.
//!
//! Each op ingests its own mutation's event right after applying it, so
//! events reach the standing query in epoch order, with no gaps.
//!
//! Every pass starts from a fresh set-up and replays the same mutations,
//! so each op does the same work in every pass and its latency is its best
//! over the passes, as in the query workloads. Set-up runs in
//! [`SET_UPS_PER_PASS`] slots before every pass; the last one leaves the
//! state the pass starts from.
// lint:allow-file(no-wall-clock) -- a benchmark outside the program: measuring wall time is its job, as in crates/bench

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use topk_core::{CostModel, DatabaseStats, StandingQuery, TopKQuery, UpdateEvent};
use topk_datagen::DatabaseKind;
use topk_lists::source::{SourceSet, Sources};
use topk_lists::{AccessCounters, Database, ItemId, ListError, Score};

use crate::queries::{answer_of, reference, Answer, Plan, SET_UPS_PER_PASS};
use crate::query_workloads::{build, raw_lists, Shape};
use crate::report::{keep_best, median, metric, ms, timed, us, Counts, Metric, OpLog, Tally};

pub const SHAPE: Shape = Shape {
    kind: DatabaseKind::Uniform,
    lists: 4,
    items: 5_000,
    k: 20,
};

/// Length of the repeating mutation mix.
pub const CYCLE: usize = 16;

/// Ops in one pass: whole pairs of cycles, so inserts and deletes balance.
pub const PASS_OPS: usize = 40 * CYCLE;

/// Ops of the traced run.
pub const TRACE_OPS: usize = 100 * CYCLE;

/// Every this many ops of a pass, and after its last, the served answer is
/// checked against a full scan of the mutated database.
const CHECK_EVERY: usize = 97;

/// One mutation, drawn outside the timed section.
#[derive(Debug, Clone)]
enum Mutation {
    Score {
        list: usize,
        item: ItemId,
        score: f64,
    },
    Insert {
        item: ItemId,
        scores: Vec<f64>,
    },
    Delete {
        item: ItemId,
    },
}

/// The deterministic mutation sequence of one seed.
struct MutationStream {
    rng: StdRng,
    live: Vec<ItemId>,
    next_id: u64,
    spiked: Option<(usize, ItemId)>,
    issued: usize,
}

impl MutationStream {
    fn new(seed: u64, db: &Database) -> Self {
        let mut live: Vec<ItemId> = db.items().collect();
        live.sort_unstable();
        MutationStream {
            rng: StdRng::seed_from_u64(seed ^ 0x0057_a4d1),
            next_id: live.last().map_or(0, |i| i.0 + 1),
            live,
            spiked: None,
            issued: 0,
        }
    }

    fn next(&mut self, db: &Database) -> Mutation {
        let step = self.issued;
        self.issued += 1;
        let (slot, odd_cycle) = (step % CYCLE, (step / CYCLE) % 2 == 1);
        let lists = db.num_lists();
        match slot {
            0 => {
                let list = self.rng.random_range(0..lists);
                let item = self.live[self.rng.random_range(0..self.live.len())];
                self.spiked = Some((list, item));
                Mutation::Score {
                    list,
                    item,
                    score: 10.0 + self.rng.random::<f64>(),
                }
            }
            8 => {
                let (list, item) = self.spiked.take().expect("slot 0 spiked an item");
                Mutation::Score {
                    list,
                    item,
                    score: self.rng.random::<f64>(),
                }
            }
            4 if odd_cycle => {
                let item = ItemId(self.next_id);
                self.next_id += 1;
                self.live.push(item);
                Mutation::Insert {
                    item,
                    scores: (0..lists).map(|_| self.rng.random::<f64>()).collect(),
                }
            }
            12 if odd_cycle => {
                let at = self.rng.random_range(0..self.live.len());
                Mutation::Delete {
                    item: self.live.swap_remove(at),
                }
            }
            _ => {
                let list = self.rng.random_range(0..lists);
                let item = self.live[self.rng.random_range(0..self.live.len())];
                let old = db
                    .list(list)
                    .ok()
                    .and_then(|l| l.score_of(item))
                    .expect("live items are in every list")
                    .value();
                Mutation::Score {
                    list,
                    item,
                    score: (old + 0.02 * (self.rng.random::<f64>() - 0.5)).max(0.0),
                }
            }
        }
    }
}

fn apply(db: &mut Database, mutation: Mutation) -> Result<UpdateEvent, ListError> {
    Ok(match mutation {
        Mutation::Score { list, item, score } => UpdateEvent::Score {
            list,
            update: db.update_score(list, item, score)?,
        },
        Mutation::Insert { item, scores } => {
            db.insert_item(item, &scores)?;
            UpdateEvent::Insert {
                item,
                scores: scores.into_iter().map(Score::from_f64).collect(),
                epochs: db.epochs(),
            }
        }
        Mutation::Delete { item } => {
            db.delete_item(item)?;
            UpdateEvent::Delete {
                item,
                epochs: db.epochs(),
            }
        }
    })
}

/// Where one op spent its time, for the traced run.
#[derive(Debug, Default)]
struct StepTimes {
    mutation: [Vec<f64>; 3],
    ingest_us: Vec<f64>,
    stats_ms: Vec<f64>,
    hit_serve_us: Vec<f64>,
    refresh_ms: Vec<f64>,
    ingested: u64,
    absorbed: u64,
}

/// An op's served answer and the accesses the serve made, or why it failed.
type Outcome = Result<(Answer, AccessCounters), String>;

/// What one closed-loop phase measured.
#[derive(Default)]
pub struct StreamPhase {
    pub log: OpLog,
    pub counts: Counts,
    pub tally: Tally,
    steps: StepTimes,
}

pub struct StandingStream {
    raw: Vec<Vec<(u64, f64)>>,
    db: Database,
    standing: StandingQuery,
    stats: DatabaseStats,
    /// Best time of each set-up slot, in seconds.
    pub setup_s: Vec<f64>,
}

impl StandingStream {
    /// Builds the database, collects planner statistics and serves the
    /// standing query once.
    fn set_up(raw: &[Vec<(u64, f64)>]) -> (Database, StandingQuery, DatabaseStats, Duration) {
        let (db, built) = build(raw);
        let ((standing, stats), served) = timed(|| {
            let stats = DatabaseStats::collect(&db);
            let mut standing = StandingQuery::new(TopKQuery::top(SHAPE.k));
            standing
                .serve(&mut Sources::in_memory(&db), &stats)
                .expect("the initial serve runs the planned query");
            (standing, stats)
        });
        (db, standing, stats, built + served)
    }

    pub fn setup(seed: u64) -> StandingStream {
        let raw = raw_lists(SHAPE, seed);
        let (db, standing, stats, _) = Self::set_up(&raw);
        StandingStream {
            raw,
            db,
            standing,
            stats,
            setup_s: Vec::new(),
        }
    }

    /// Runs the closed loop until the plan is met.
    pub fn run(&mut self, plan: Plan) -> StreamPhase {
        self.drive(plan, None).0
    }

    /// The traced run: `twin`, set up from the same seed, replays every op
    /// right after this stream runs it plainly, timing each step. Returns
    /// the plain and the traced phase.
    pub fn traced(&mut self, twin: &mut StandingStream, plan: Plan) -> (StreamPhase, StreamPhase) {
        let (plain, traced) = self.drive(plan, Some(twin));
        (plain, traced.expect("a twin was given"))
    }

    fn drive(
        &mut self,
        plan: Plan,
        mut twin: Option<&mut StandingStream>,
    ) -> (StreamPhase, Option<StreamPhase>) {
        let model = CostModel::paper_default(SHAPE.items);
        let mut plain = StreamPhase::default();
        let mut traced = twin.as_ref().map(|_| StreamPhase::default());
        let started = Instant::now();
        let mut passes = 0;
        loop {
            for slot in 0..SET_UPS_PER_PASS {
                self.reset(slot);
                if let Some(twin) = twin.as_deref_mut() {
                    twin.reset(slot);
                }
            }
            let counted = passes == 0;
            let mut stream = MutationStream::new(plan.seed, &self.db);
            for at in 0..plan.pass_ops {
                let step = at + 1;
                let mutation = stream.next(&self.db);
                let replay = twin.is_some().then(|| mutation.clone());
                let (outcome, took) = timed(|| self.op(mutation));
                if let (Some(twin), Some(traced), Some(mutation)) =
                    (twin.as_deref_mut(), traced.as_mut(), replay)
                {
                    let (replayed, took) = twin.traced_op(mutation, &mut traced.steps);
                    let same = matches!((&outcome, &replayed), (Ok(a), Ok(b)) if a == b);
                    traced.record(at, replayed, took, counted.then_some(&model));
                    if !same {
                        eprintln!("op {step}: the traced replay diverged from the plain run");
                        traced.tally.failed += 1;
                    }
                }
                let answer = outcome.as_ref().ok().map(|(answer, _)| answer.clone());
                plain.record(at, outcome, took, counted.then_some(&model));
                if let Some(answer) = answer {
                    if (step.is_multiple_of(CHECK_EVERY) || step == plan.pass_ops)
                        && answer != reference(&self.db, self.standing.query())
                    {
                        eprintln!(
                            "pass {passes} op {step} served an answer differing from the full scan"
                        );
                        plain.tally.failed += 1;
                    }
                }
            }
            passes += 1;
            if !plan.another_pass(passes, started) {
                return (plain, traced);
            }
        }
    }

    /// Sets up anew from the raw lists, recording the time in `slot`.
    fn reset(&mut self, slot: usize) {
        let (db, standing, stats, took) = Self::set_up(&self.raw);
        (self.db, self.standing, self.stats) = (db, standing, stats);
        keep_best(&mut self.setup_s, slot, took.as_secs_f64());
    }

    /// One op, as a user runs it: mutate, ingest, serve (re-collecting
    /// statistics first only when the serve will re-execute).
    fn op(&mut self, mutation: Mutation) -> Outcome {
        let event = apply(&mut self.db, mutation).map_err(|e| e.to_string())?;
        self.standing.ingest(&event);
        let mut sources = Sources::in_memory(&self.db);
        if self.standing.needs_refresh(&sources.epochs()) {
            self.stats.ensure_fresh(&self.db);
        }
        let served = self
            .standing
            .serve(&mut sources, &self.stats)
            .map_err(|e| e.to_string())?;
        Ok((answer_of(served), sources.total_counters()))
    }

    /// As [`StandingStream::op`], timing each step.
    fn traced_op(&mut self, mutation: Mutation, steps: &mut StepTimes) -> (Outcome, Duration) {
        let kind = match &mutation {
            Mutation::Score { .. } => 0,
            Mutation::Insert { .. } => 1,
            Mutation::Delete { .. } => 2,
        };
        let (event, mutate) = timed(|| apply(&mut self.db, mutation));
        steps.mutation[kind].push(us(mutate));
        let event = match event {
            Ok(event) => event,
            Err(e) => return (Err(e.to_string()), mutate),
        };
        let (outcome, ingest) = timed(|| self.standing.ingest(&event));
        steps.ingest_us.push(us(ingest));
        steps.ingested += 1;
        steps.absorbed += u64::from(outcome.is_absorbed());
        let mut sources = Sources::in_memory(&self.db);
        let refresh = self.standing.needs_refresh(&sources.epochs());
        let mut took = mutate + ingest;
        if refresh {
            let (_, collect) = timed(|| self.stats.ensure_fresh(&self.db));
            steps.stats_ms.push(ms(collect));
            took += collect;
        }
        let (served, serve) = timed(|| {
            self.standing
                .serve(&mut sources, &self.stats)
                .map(answer_of)
                .map_err(|e| e.to_string())
        });
        if refresh {
            steps.refresh_ms.push(ms(serve));
        } else {
            steps.hit_serve_us.push(us(serve));
        }
        (served.map(|a| (a, sources.total_counters())), took + serve)
    }
}

impl StreamPhase {
    /// Accounts op `at` of a pass; `model` prices the accesses of a
    /// counted op.
    fn record(&mut self, at: usize, outcome: Outcome, took: Duration, model: Option<&CostModel>) {
        self.log.keep_best(at, took);
        self.tally.attempted += 1;
        match outcome {
            Ok((_, accesses)) => {
                if let Some(model) = model {
                    self.counts.add(&accesses, model);
                }
            }
            Err(e) => {
                eprintln!("op {} failed: {e}", at + 1);
                self.tally.failed += 1;
            }
        }
    }

    /// Per-layer metrics of the list write path and the standing-query
    /// and planner layers, from a traced phase.
    pub fn layers(&self) -> Vec<Metric> {
        let s = &self.steps;
        vec![
            metric("lists.update_us", median(&s.mutation[0]), "us"),
            metric("lists.insert_us", median(&s.mutation[1]), "us"),
            metric("lists.delete_us", median(&s.mutation[2]), "us"),
            metric("standing.ingest_us", median(&s.ingest_us), "us"),
            metric("standing.hit_serve_us", median(&s.hit_serve_us), "us"),
            metric("standing.refresh_ms", median(&s.refresh_ms), "ms"),
            metric(
                "standing.absorbed_ratio",
                s.absorbed as f64 / s.ingested as f64,
                "ratio",
            ),
            metric(
                "standing.refresh_ratio",
                s.refresh_ms.len() as f64 / self.log.len() as f64,
                "ratio",
            ),
            metric("planner.stats_collect_ms", median(&s.stats_ms), "ms"),
        ]
    }
}
