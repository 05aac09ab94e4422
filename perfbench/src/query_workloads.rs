//! The three query workloads: `mem-deep`, `paged-evict` and
//! `cluster-session`. Each runs the same query stream (see `queries`)
//! against a different backend.
//!
//! Set-up is repeated before every pass, outside the timed ops, in
//! `queries::SET_UPS_PER_PASS` slots that each keep their best time; `setup_s` is
//! the median over the slots (see `queries`).
// lint:allow-file(no-wall-clock) -- a benchmark outside the program: measuring wall time is its job, as in crates/bench

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use topk_core::{AlgorithmKind, TopKError, TopKResult};
use topk_datagen::{DatabaseKind, DatabaseSpec};
use topk_distributed::ClusterRuntime;
use topk_lists::source::{InMemorySource, SourceSet, Sources};
use topk_lists::{Database, TrackerKind};
use topk_storage::{CacheCapacity, PageLayout, PagedDatabase, PagedSource};

use crate::queries::{observable, run_phase, Plan, QueryPhase, MIX};
use crate::report::{keep_best, median, metric, ms, timed, us, Metric, OpLog};
use crate::timed::{ClockCost, LayerTimes, TimedSource};

/// A generated database family and size.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub kind: DatabaseKind,
    pub lists: usize,
    pub items: usize,
    pub k: usize,
}

/// The generator's lists as raw `(item, score)` pairs in a seeded random
/// order: the input a user hands to `Database::from_unsorted_lists`.
pub fn raw_lists(shape: Shape, seed: u64) -> Vec<Vec<(u64, f64)>> {
    let db = DatabaseSpec::new(shape.kind, shape.lists, shape.items).generate(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_5eed);
    db.lists()
        .map(|list| {
            let mut pairs: Vec<(u64, f64)> =
                list.iter().map(|e| (e.item.0, e.score.value())).collect();
            for i in (1..pairs.len()).rev() {
                pairs.swap(i, rng.random_range(0..=i));
            }
            pairs
        })
        .collect()
}

/// Builds the database from raw lists, timed.
pub fn build(raw: &[Vec<(u64, f64)>]) -> (Database, Duration) {
    let input = raw.to_vec();
    timed(|| Database::from_unsorted_lists(input).expect("generated lists are valid"))
}

/// `mem-deep`: the in-memory backend, where algorithm bookkeeping, random
/// access through the item index and the trackers do almost all the work.
pub struct MemDeep {
    raw: Vec<Vec<(u64, f64)>>,
    db: Database,
    /// Best time of each set-up slot (a database build), in seconds.
    pub setup_s: Vec<f64>,
}

impl MemDeep {
    pub const SHAPE: Shape = Shape {
        kind: DatabaseKind::Uniform,
        lists: 8,
        items: 5_000,
        k: 20,
    };
    /// Queries of the traced run.
    pub const TRACE_OPS: usize = 24 * MIX.len();

    pub fn setup(seed: u64) -> MemDeep {
        let raw = raw_lists(Self::SHAPE, seed);
        let db = build(&raw).0;
        MemDeep {
            raw,
            db,
            setup_s: Vec::new(),
        }
    }

    pub fn run(&mut self, plan: Plan) -> QueryPhase {
        let (db, raw, setup_s) = (&self.db, &self.raw, &mut self.setup_s);
        run_phase(
            plan,
            db,
            Self::SHAPE.k,
            |op| timed(|| op.algorithm.run(db, &op.query)),
            |slot| keep_best(setup_s, slot, build(raw).1.as_secs_f64()),
        )
    }

    /// The traced run: each query runs plainly, then with every source
    /// wrapped in a [`TimedSource`].
    pub fn traced(&mut self, plan: Plan, clock: &ClockCost) -> Paired {
        let times = Rc::new(RefCell::new(LayerTimes::default()));
        let mut plain = OpLog::default();
        let mut identical = true;
        let mut open_us = Vec::new();
        let mut query_time = Duration::ZERO;
        let mut accesses = 0u64;
        let (db, raw, setup_s) = (&self.db, &self.raw, &mut self.setup_s);
        let phase = run_phase(
            plan,
            db,
            Self::SHAPE.k,
            |op| {
                let (untraced, untraced_took) = timed(|| op.algorithm.run(db, &op.query));
                plain.push(untraced_took);
                let kind = op.algorithm.preferred_tracker();
                let (mut sources, open) = timed(|| {
                    Sources::new(
                        db.lists()
                            .map(|l| {
                                TimedSource::wrap(InMemorySource::with_tracker(l, kind), &times)
                            })
                            .collect(),
                    )
                });
                let (result, took) = timed(|| op.algorithm.run_on(&mut sources, &op.query));
                identical &= same(&untraced, &result);
                open_us.push(us(open));
                query_time += took;
                if let Ok(r) = &result {
                    accesses += r.stats().accesses.total();
                }
                (result, open + took)
            },
            |slot| keep_best(setup_s, slot, build(raw).1.as_secs_f64()),
        );
        let t = *times.borrow();
        let self_time = query_time
            .saturating_sub(clock.backend(&t))
            .saturating_sub(clock.overhead(&t));
        let [ta, bpa, bpa2] = per_algorithm_ms(&plain);
        let c = &phase.counts;
        let layers = vec![
            metric(
                "algorithms.self_ms_per_query",
                ms(self_time) / phase.log.len() as f64,
                "ms",
            ),
            metric(
                "algorithms.ns_per_access",
                self_time.as_nanos() as f64 / accesses as f64,
                "ns",
            ),
            metric("lists.sorted_ns", clock.ns_per_call(&t.sorted), "ns"),
            metric("lists.random_ns", clock.ns_per_call(&t.random), "ns"),
            metric("lists.direct_ns", clock.ns_per_call(&t.direct), "ns"),
            metric("lists.sources_open_us", median(&open_us), "us"),
            metric("algorithms.ta_ms", ta, "ms"),
            metric("algorithms.bpa_ms", bpa, "ms"),
            metric("algorithms.bpa2_ms", bpa2, "ms"),
            metric(
                "lists.sorted_per_query",
                c.per_op(c.accesses.sorted),
                "count",
            ),
            metric(
                "lists.random_per_query",
                c.per_op(c.accesses.random),
                "count",
            ),
            metric(
                "lists.direct_per_query",
                c.per_op(c.accesses.direct),
                "count",
            ),
            metric("lists.build_s", median(&self.setup_s), "s"),
        ];
        Paired::new(phase, plain, identical, layers)
    }
}

/// A traced run: every op ran plainly and then traced, so the two
/// timings share the host's conditions.
pub struct Paired {
    pub traced: QueryPhase,
    /// Traced ops per second over plain ops per second.
    pub ops_ratio: f64,
    /// Whether the traced run did exactly the plain run's work.
    pub identical: bool,
    pub layers: Vec<Metric>,
}

impl Paired {
    fn new(traced: QueryPhase, plain: OpLog, identical: bool, layers: Vec<Metric>) -> Paired {
        Paired {
            ops_ratio: plain.total_ms() / traced.log.total_ms(),
            traced,
            identical,
            layers,
        }
    }
}

/// Whether two runs of one query returned the same answer and counters.
fn same(a: &Result<TopKResult, TopKError>, b: &Result<TopKResult, TopKError>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => observable(a) == observable(b),
        _ => false,
    }
}

/// Median latency of TA, BPA and BPA2 in a log of the query stream.
fn per_algorithm_ms(log: &OpLog) -> [f64; 3] {
    [AlgorithmKind::Ta, AlgorithmKind::Bpa, AlgorithmKind::Bpa2].map(|kind| {
        let of_kind: Vec<f64> = log
            .latencies_ms()
            .iter()
            .enumerate()
            .filter(|(i, _)| MIX[i % MIX.len()] == kind)
            .map(|(_, &ms)| ms)
            .collect();
        median(&of_kind)
    })
}

/// `paged-evict`: the query stream on disk-backed lists whose per-query
/// working set exceeds the page cache, so page-cache lookups, eviction,
/// reads and page decoding dominate.
pub struct PagedEvict {
    raw: Vec<Vec<(u64, f64)>>,
    /// Where set-up repetitions write their throwaway copy.
    scratch: PathBuf,
    db: Database,
    paged: PagedDatabase,
    /// Best time of each set-up slot (build, write, open), in seconds.
    pub setup_s: Vec<f64>,
    pub create_s: Vec<f64>,
    pub open_s: Vec<f64>,
}

impl PagedEvict {
    pub const SHAPE: Shape = Shape {
        kind: DatabaseKind::Uniform,
        lists: 4,
        items: 5_000,
        k: 20,
    };
    pub const PAGE_SIZE: usize = 4096;
    pub const CACHE: CacheCapacity = CacheCapacity::Pages(10);
    /// Queries of the traced run.
    pub const TRACE_OPS: usize = 24 * MIX.len();

    /// Builds the database, writes it as paged files and opens them.
    fn set_up(raw: &[Vec<(u64, f64)>], dir: &Path) -> (Database, PagedDatabase, [Duration; 3]) {
        let (db, built) = build(raw);
        let (paged, created) = timed(|| {
            PagedDatabase::create(dir, &db, PageLayout::with_page_size(Self::PAGE_SIZE))
                .expect("writing the paged lists")
        });
        let (sources, opened) =
            timed(|| paged.sources(Self::CACHE).expect("opening the paged lists"));
        drop(sources);
        (db, paged, [built, created, opened])
    }

    pub fn setup(seed: u64, work: &Path) -> PagedEvict {
        let raw = raw_lists(Self::SHAPE, seed);
        let (db, paged, _) = Self::set_up(&raw, &work.join("lists"));
        PagedEvict {
            raw,
            scratch: work.join("setup"),
            db,
            paged,
            setup_s: Vec::new(),
            create_s: Vec::new(),
            open_s: Vec::new(),
        }
    }

    fn record(&mut self, slot: usize, [built, created, opened]: [Duration; 3]) {
        let total = (built + created + opened).as_secs_f64();
        keep_best(&mut self.setup_s, slot, total);
        keep_best(&mut self.create_s, slot, created.as_secs_f64());
        keep_best(&mut self.open_s, slot, opened.as_secs_f64());
    }

    pub fn run(&mut self, plan: Plan) -> QueryPhase {
        let mut sources = self
            .paged
            .sources(Self::CACHE)
            .expect("opening the paged lists");
        let mut setups = Vec::new();
        let phase = run_phase(
            plan,
            &self.db,
            Self::SHAPE.k,
            |op| {
                // A cold cache before every query.
                sources.reset();
                timed(|| op.algorithm.run_on(&mut sources, &op.query))
            },
            |slot| setups.push((slot, Self::set_up(&self.raw, &self.scratch).2)),
        );
        setups
            .into_iter()
            .for_each(|(slot, t)| self.record(slot, t));
        phase
    }

    /// The traced run: each query runs plainly, then with every paged
    /// source wrapped in a [`TimedSource`], then on the in-memory backend
    /// so the storage layer's added time can be attributed by difference.
    pub fn traced(&mut self, plan: Plan, clock: &ClockCost) -> Paired {
        let times = Rc::new(RefCell::new(LayerTimes::default()));
        let mut bare = self
            .paged
            .sources(Self::CACHE)
            .expect("opening the paged lists");
        let mut sources = Sources::new(
            self.paged
                .list_paths()
                .iter()
                .map(|p| {
                    let source =
                        PagedSource::open_with_tracker(p, Self::CACHE, TrackerKind::BitArray)
                            .expect("opening a paged list");
                    TimedSource::wrap(source, &times)
                })
                .collect(),
        );
        let mut plain = OpLog::default();
        let mut identical = true;
        let (mut paged_time, mut memory_time) = (Duration::ZERO, Duration::ZERO);
        let (mut hits, mut misses) = (0u64, 0u64);
        let mut setups = Vec::new();
        let phase = run_phase(
            plan,
            &self.db,
            Self::SHAPE.k,
            |op| {
                bare.reset();
                let (untraced, untraced_took) = timed(|| op.algorithm.run_on(&mut bare, &op.query));
                plain.push(untraced_took);
                sources.reset();
                let (result, took) = timed(|| op.algorithm.run_on(&mut sources, &op.query));
                identical &= same(&untraced, &result)
                    && bare.per_list_cache_counters() == sources.per_list_cache_counters();
                let mut twin =
                    Sources::in_memory_with_tracker(&self.db, op.algorithm.preferred_tracker());
                let (_, twin_took) = timed(|| op.algorithm.run_on(&mut twin, &op.query));
                paged_time += took;
                memory_time += twin_took;
                let cache = sources.total_cache_counters();
                hits += cache.hits;
                misses += cache.misses;
                (result, took)
            },
            |slot| setups.push((slot, Self::set_up(&self.raw, &self.scratch).2)),
        );
        setups
            .into_iter()
            .for_each(|(slot, t)| self.record(slot, t));
        let t = *times.borrow();
        let per_query = |v: u64| v as f64 / phase.log.len() as f64;
        let added = paged_time
            .saturating_sub(memory_time)
            .saturating_sub(clock.overhead(&t));
        let layers = vec![
            metric("storage.sorted_ns", clock.ns_per_call(&t.sorted), "ns"),
            metric("storage.random_ns", clock.ns_per_call(&t.random), "ns"),
            metric("storage.direct_ns", clock.ns_per_call(&t.direct), "ns"),
            metric("storage.hits_per_query", per_query(hits), "count"),
            metric("storage.misses_per_query", per_query(misses), "count"),
            metric(
                "storage.hit_ratio",
                hits as f64 / (hits + misses) as f64,
                "ratio",
            ),
            metric(
                "storage.bytes_read_per_query",
                per_query(misses) * Self::PAGE_SIZE as f64,
                "B",
            ),
            metric(
                "storage.ns_per_miss",
                added.as_nanos() as f64 / misses as f64,
                "ns",
            ),
            metric("storage.create_s", median(&self.create_s), "s"),
            metric("storage.open_s", median(&self.open_s), "s"),
        ];
        Paired::new(phase, plain, identical, layers)
    }
}

/// `cluster-session`: the query stream on the threaded cluster runtime,
/// one fresh session per query, where channel round-trips and session
/// bookkeeping dominate.
pub struct ClusterSession {
    raw: Vec<Vec<(u64, f64)>>,
    db: Database,
    runtime: ClusterRuntime,
    /// Best time of each set-up slot (build, spawn), in seconds.
    pub setup_s: Vec<f64>,
    pub spawn_s: Vec<f64>,
}

impl ClusterSession {
    pub const SHAPE: Shape = Shape {
        kind: DatabaseKind::Uniform,
        lists: 4,
        items: 1_000,
        k: 20,
    };
    /// Queries of the traced run.
    pub const TRACE_OPS: usize = 24 * MIX.len();

    /// Builds the database and spawns one owner thread per list.
    fn set_up(raw: &[Vec<(u64, f64)>]) -> (Database, ClusterRuntime, [Duration; 2]) {
        let (db, built) = build(raw);
        let (runtime, spawned) = timed(|| ClusterRuntime::spawn(&db));
        (db, runtime, [built, spawned])
    }

    pub fn setup(seed: u64) -> ClusterSession {
        let raw = raw_lists(Self::SHAPE, seed);
        let (db, runtime, _) = Self::set_up(&raw);
        ClusterSession {
            raw,
            db,
            runtime,
            setup_s: Vec::new(),
            spawn_s: Vec::new(),
        }
    }

    fn record(&mut self, slot: usize, [built, spawned]: [Duration; 2]) {
        keep_best(&mut self.setup_s, slot, (built + spawned).as_secs_f64());
        keep_best(&mut self.spawn_s, slot, spawned.as_secs_f64());
    }

    pub fn run(&mut self, plan: Plan) -> QueryPhase {
        let mut setups = Vec::new();
        let phase = run_phase(
            plan,
            &self.db,
            Self::SHAPE.k,
            |op| {
                timed(|| {
                    let mut session = self.runtime.connect();
                    op.algorithm.run_on(&mut session, &op.query)
                })
            },
            // Dropping the throwaway runtime joins its owner threads.
            |slot| setups.push((slot, Self::set_up(&self.raw).2)),
        );
        setups
            .into_iter()
            .for_each(|(slot, t)| self.record(slot, t));
        phase
    }

    /// The traced run: each query runs plainly, then with each step
    /// timed, then on the in-memory backend. Cluster sources cannot be
    /// wrapped per list from outside, so the time of the exchanges is
    /// attributed by difference against the in-memory run, whose access
    /// sequence is identical. A retry or failover counts as a difference.
    pub fn traced(&mut self, plan: Plan) -> Paired {
        let mut plain = OpLog::default();
        let mut identical = true;
        let mut connect_us = Vec::new();
        let (mut cluster_time, mut memory_time) = (Duration::ZERO, Duration::ZERO);
        let (mut requests, mut messages, mut payload, mut rounds) = (0u64, 0u64, 0u64, 0u64);
        let (mut retries, mut failovers) = (0u64, 0u64);
        let mut setups = Vec::new();
        let phase = run_phase(
            plan,
            &self.db,
            Self::SHAPE.k,
            |op| {
                let (untraced, untraced_took) = timed(|| {
                    let mut session = self.runtime.connect();
                    op.algorithm.run_on(&mut session, &op.query)
                });
                plain.push(untraced_took);
                let started = Instant::now();
                let (mut session, connect) = timed(|| self.runtime.connect());
                let (result, took) = timed(|| op.algorithm.run_on(&mut session, &op.query));
                let network = session.network();
                let faults = session.fault_stats();
                drop(session);
                let whole = started.elapsed();
                let mut twin =
                    Sources::in_memory_with_tracker(&self.db, op.algorithm.preferred_tracker());
                let (twin_result, twin_took) = timed(|| op.algorithm.run_on(&mut twin, &op.query));
                identical &= same(&untraced, &result)
                    && same(&result, &twin_result)
                    && faults.retries == 0
                    && faults.failovers == 0;
                connect_us.push(us(connect));
                cluster_time += took;
                memory_time += twin_took;
                requests += network.requests;
                messages += network.messages;
                payload += network.payload_units;
                rounds += network.rounds() as u64;
                retries += faults.retries;
                failovers += faults.failovers;
                (result, whole)
            },
            |slot| setups.push((slot, Self::set_up(&self.raw).2)),
        );
        setups
            .into_iter()
            .for_each(|(slot, t)| self.record(slot, t));
        let per_query = |v: u64| v as f64 / phase.log.len() as f64;
        let added = cluster_time.saturating_sub(memory_time);
        let layers = vec![
            metric("distributed.connect_us", median(&connect_us), "us"),
            metric("distributed.exchange_us", us(added) / requests as f64, "us"),
            metric(
                "distributed.messages_per_query",
                per_query(messages),
                "count",
            ),
            metric("distributed.payload_per_query", per_query(payload), "units"),
            metric("distributed.rounds_per_query", per_query(rounds), "count"),
            metric("distributed.retries", retries as f64, "count"),
            metric("distributed.failovers", failovers as f64, "count"),
            metric("distributed.spawn_s", median(&self.spawn_s), "s"),
        ];
        Paired::new(phase, plain, identical, layers)
    }
}
