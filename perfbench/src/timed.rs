//! The layer-timing decorator of the traced run.
//!
//! [`TimedSource`] wraps one backend source and times a deterministic
//! sample of the calls into it, per access mode. A clock pair costs about
//! half an in-memory access, so timing every call would distort what it
//! measures; timing one call in [`SAMPLE_EVERY`] keeps the added cost to
//! about a tenth of the query time (the traced run reports it). Backend time is extrapolated from the sample, and the
//! algorithm's self time is the query time minus backend time minus the
//! timing's own cost. The decorator only observes: every call, counter
//! and reply passes through unchanged (see the test below).
// lint:allow-file(no-wall-clock) -- a benchmark outside the program: measuring wall time is its job, as in crates/bench

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use topk_lists::source::{CacheCounters, ListSource, SourceEntry, SourceScore};
use topk_lists::{AccessCounters, ItemId, Position, Score};

/// One call in this many, per access mode, is timed.
pub const SAMPLE_EVERY: u64 = 16;

/// Calls into one access mode.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModeTimes {
    pub calls: u64,
    pub sampled: u64,
    pub sampled_ns: u64,
}

impl ModeTimes {
    fn observe<T>(&mut self, call: impl FnOnce() -> T) -> T {
        self.calls += 1;
        if self.calls % SAMPLE_EVERY != 1 {
            return call();
        }
        let started = Instant::now();
        let out = call();
        self.sampled_ns += started.elapsed().as_nanos() as u64;
        self.sampled += 1;
        out
    }
}

/// Calls into the wrapped sources, by access mode.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    pub sorted: ModeTimes,
    pub random: ModeTimes,
    pub direct: ModeTimes,
}

/// What one clock read costs, measured once per traced run.
#[derive(Debug, Clone, Copy)]
pub struct ClockCost {
    /// What an empty interval reads: subtracted from every timed call.
    pub empty_ns: f64,
    /// What a clock pair adds to the caller's time.
    pub pair_ns: f64,
}

impl ClockCost {
    /// Medians over many short samples, so a slow spell of the host
    /// does not set the calibration.
    pub fn calibrate() -> ClockCost {
        let median_of = |mut samples: Vec<f64>| {
            samples.sort_by(f64::total_cmp);
            samples[samples.len() / 2]
        };
        let empty_ns = median_of(
            (0..10_001)
                .map(|_| {
                    let a = Instant::now();
                    Instant::now().duration_since(a).as_nanos() as f64
                })
                .collect(),
        );
        const PAIRS: u32 = 1_000;
        let pair_ns = median_of(
            (0..101)
                .map(|_| {
                    let started = Instant::now();
                    for _ in 0..PAIRS {
                        black_box(Instant::now());
                        black_box(Instant::now());
                    }
                    started.elapsed().as_nanos() as f64 / f64::from(PAIRS)
                })
                .collect(),
        );
        ClockCost { empty_ns, pair_ns }
    }

    /// Mean time inside one call of the mode, net of the clock.
    pub fn ns_per_call(&self, mode: &ModeTimes) -> f64 {
        if mode.sampled == 0 {
            return 0.0;
        }
        (mode.sampled_ns as f64 / mode.sampled as f64 - self.empty_ns).max(0.0)
    }

    /// Estimated time inside every call of `times`, net of the clock.
    pub fn backend(&self, times: &LayerTimes) -> Duration {
        let ns: f64 = [times.sorted, times.random, times.direct]
            .iter()
            .map(|m| self.ns_per_call(m) * m.calls as f64)
            .sum();
        Duration::from_nanos(ns as u64)
    }

    /// What the timing itself added to the caller.
    pub fn overhead(&self, times: &LayerTimes) -> Duration {
        let sampled = times.sorted.sampled + times.random.sampled + times.direct.sampled;
        Duration::from_nanos((sampled as f64 * self.pair_ns) as u64)
    }
}

/// Times the calls into one source; every source of a set shares `times`.
#[derive(Debug)]
pub struct TimedSource<'a> {
    inner: Box<dyn ListSource + 'a>,
    times: Rc<RefCell<LayerTimes>>,
}

impl<'a> TimedSource<'a> {
    pub fn wrap(
        inner: impl ListSource + 'a,
        times: &Rc<RefCell<LayerTimes>>,
    ) -> Box<dyn ListSource + 'a> {
        Box::new(TimedSource {
            inner: Box::new(inner),
            times: Rc::clone(times),
        })
    }
}

impl ListSource for TimedSource<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn sorted_access(&mut self, position: Position, track: bool) -> Option<SourceEntry> {
        let inner = &mut self.inner;
        self.times
            .borrow_mut()
            .sorted
            .observe(|| inner.sorted_access(position, track))
    }

    fn random_access(
        &mut self,
        item: ItemId,
        with_position: bool,
        track: bool,
    ) -> Option<SourceScore> {
        let inner = &mut self.inner;
        self.times
            .borrow_mut()
            .random
            .observe(|| inner.random_access(item, with_position, track))
    }

    fn direct_access_next(&mut self) -> Option<SourceEntry> {
        let inner = &mut self.inner;
        self.times
            .borrow_mut()
            .direct
            .observe(|| inner.direct_access_next())
    }

    fn sorted_block(&mut self, start: Position, len: usize, track: bool) -> Vec<SourceEntry> {
        let inner = &mut self.inner;
        self.times
            .borrow_mut()
            .sorted
            .observe(|| inner.sorted_block(start, len, track))
    }

    fn begin_round(&mut self) {
        self.inner.begin_round();
    }

    fn best_position(&self) -> Option<Position> {
        self.inner.best_position()
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn tail_score(&self) -> Score {
        self.inner.tail_score()
    }

    fn counters(&self) -> AccessCounters {
        self.inner.counters()
    }

    fn cache_counters(&self) -> CacheCounters {
        self.inner.cache_counters()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_core::{NaiveScan, TopKAlgorithm};
    use topk_datagen::{DatabaseKind, DatabaseSpec};
    use topk_lists::source::{InMemorySource, SourceSet, Sources};
    use topk_storage::{CacheCapacity, PageLayout, PagedDatabase, PagedSource, ScratchDir};

    use crate::queries::{answer_of, observable, pass_ops};

    /// Answers, every counter and the cache statistics are bit-identical
    /// with and without the decorator, on both wrapped backends.
    #[test]
    fn timing_is_observation_only() {
        let db = DatabaseSpec::new(DatabaseKind::Gaussian, 4, 3_000).generate(11);
        let dir = ScratchDir::new("perfbench-timed");
        let paged = PagedDatabase::create(dir.path(), &db, PageLayout::with_page_size(512))
            .expect("paged copy of the test database");
        let times = Rc::new(RefCell::new(LayerTimes::default()));
        for op in pass_ops(5, db.num_lists(), 9)
            .iter()
            .map(|op| op.at(10, 1.0))
        {
            let kind = op.algorithm.preferred_tracker();
            let plain = op.algorithm.run(&db, &op.query).unwrap();
            let mut timed = Sources::new(
                db.lists()
                    .map(|l| TimedSource::wrap(InMemorySource::with_tracker(l, kind), &times))
                    .collect(),
            );
            let wrapped = op.algorithm.run_on(&mut timed, &op.query).unwrap();
            assert_eq!(observable(&plain), observable(&wrapped));
            assert_eq!(
                answer_of(&plain),
                answer_of(&NaiveScan.run(&db, &op.query).unwrap())
            );

            let open = |timed: bool| {
                let sources = paged.list_paths().iter().map(|p| {
                    let source = PagedSource::open_with_tracker(p, CacheCapacity::Pages(3), kind)
                        .expect("open a paged list");
                    if timed {
                        TimedSource::wrap(source, &times)
                    } else {
                        Box::new(source) as Box<dyn ListSource>
                    }
                });
                Sources::new(sources.collect())
            };
            let (mut bare, mut timed) = (open(false), open(true));
            let bare_result = op.algorithm.run_on(&mut bare, &op.query).unwrap();
            let timed_result = op.algorithm.run_on(&mut timed, &op.query).unwrap();
            assert_eq!(observable(&bare_result), observable(&timed_result));
            assert_eq!(observable(&plain), observable(&bare_result));
            assert_eq!(
                bare.per_list_cache_counters(),
                timed.per_list_cache_counters()
            );
        }
        let t = times.borrow();
        assert!(t.sorted.calls > 0 && t.random.calls > 0 && t.direct.calls > 0);
        assert!(t.sorted.sampled > 0 && t.sorted.sampled <= t.sorted.calls / SAMPLE_EVERY + 1);
    }
}
