//! The repository benchmark: four closed-loop workloads over the BPA/BPA2
//! reproduction, one client thread, the whole process confined to one
//! CPU. `perfbench/run.py` builds this binary, confines it and runs it:
//!
//! ```sh
//! python3 perfbench/run.py --workload mem-deep --seed 1 --seconds 45 --trace 0
//! ```
//!
//! With `--trace 0` one workload runs for `--seconds` and its end-to-end
//! metrics are printed. With `--trace 1` every layer is measured from
//! outside, each on the workload that exercises it, so the traced run
//! always covers all four workloads; the named workload picks whose
//! tracing overhead is reported. The last line of standard output is the result object. Every
//! answer is checked; any failed or wrong op makes the run exit non-zero.

mod host;
mod queries;
mod query_workloads;
mod report;
mod standing;
mod timed;

use std::fs;
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

use host::{peak_rss_mb, Host};
use queries::Plan;
use query_workloads::{ClusterSession, MemDeep, PagedEvict};
use report::{end_to_end, metric, result_json, Metric, Tally};
use standing::StandingStream;
use timed::ClockCost;

const WORKLOADS: [&str; 4] = [
    "mem-deep",
    "paged-evict",
    "cluster-session",
    "standing-stream",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let value = |flag: &str| -> Result<&String, String> {
            let at = argv
                .iter()
                .position(|a| a == flag)
                .ok_or(format!("missing {flag}"))?;
            argv.get(at + 1).ok_or(format!("{flag} needs a value"))
        };
        let number = |flag: &str| -> Result<f64, String> {
            value(flag)?
                .parse::<f64>()
                .map_err(|e| format!("{flag}: {e}"))
        };
        let workload = value("--workload")?.clone();
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
        let seconds = number("--seconds")?;
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload,
            seed: value("--seed")?
                .parse()
                .map_err(|e| format!("--seed: {e}"))?,
            seconds,
            trace: value("--trace")? == "1",
            work_dir: PathBuf::from(value("--work-dir")?),
        })
    }
}

/// A directory for the paged list files, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(parent: &std::path::Path) -> WorkDir {
        let dir = parent.join(format!("paged-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("the work directory is creatable");
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args = Args::parse().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(2)
    });
    let host = Host::confined().unwrap_or_else(|e| {
        eprintln!("perfbench: refusing to measure: {e}");
        exit(2)
    });
    println!("host {}", host.to_json());
    let work = WorkDir::create(&args.work_dir);
    let (tally, metrics, healthy) = if args.trace {
        traced(&args, &work)
    } else {
        let (tally, metrics) = untraced(&args, &work);
        (tally, metrics, true)
    };
    drop(work);
    let correct = tally.failed == 0 && healthy;
    println!("{}", result_json(correct, tally, &metrics));
    if !correct {
        exit(1);
    }
}

/// A run replays at least this many passes, however short `--seconds`.
const MIN_PASSES: usize = 3;

/// One workload, end-to-end metrics, pass after pass for `--seconds`.
fn untraced(args: &Args, work: &WorkDir) -> (Tally, Vec<Metric>) {
    let plan = |pass_ops: usize| Plan {
        seed: args.seed,
        pass_ops,
        budget: Duration::from_secs_f64(args.seconds),
        min_passes: MIN_PASSES,
    };
    let (log, setup_s, counts, tally) = match args.workload.as_str() {
        "mem-deep" => {
            let mut w = MemDeep::setup(args.seed);
            let p = w.run(plan(queries::PASS_OPS));
            (p.log, w.setup_s, p.counts, p.tally)
        }
        "paged-evict" => {
            let mut w = PagedEvict::setup(args.seed, &work.0);
            let p = w.run(plan(queries::PASS_OPS));
            (p.log, w.setup_s, p.counts, p.tally)
        }
        "cluster-session" => {
            let mut w = ClusterSession::setup(args.seed);
            let p = w.run(plan(queries::PASS_OPS));
            (p.log, w.setup_s, p.counts, p.tally)
        }
        _ => {
            let mut w = StandingStream::setup(args.seed);
            let p = w.run(plan(standing::PASS_OPS));
            (p.log, w.setup_s, p.counts, p.tally)
        }
    };
    let metrics = end_to_end(&log, &setup_s, &counts, tally, peak_rss_mb());
    (tally, metrics)
}

/// Every layer, each on its own workload. Each op runs plainly and then
/// traced, so the tracing overhead is measured under the same host
/// conditions, and the traced run must do exactly the plain run's work.
/// Each workload runs one pass of a fixed length, so per-op counts repeat
/// exactly; the run takes about half a minute whatever `--seconds` says.
fn traced(args: &Args, work: &WorkDir) -> (Tally, Vec<Metric>, bool) {
    let plan = |pass_ops| Plan {
        seed: args.seed,
        pass_ops,
        budget: Duration::ZERO,
        min_passes: 1,
    };
    let clock = ClockCost::calibrate();
    println!(
        "clock: empty interval {} ns, pair {:.1} ns; one call in {} timed",
        clock.empty_ns,
        clock.pair_ns,
        timed::SAMPLE_EVERY
    );
    let runs = [
        MemDeep::setup(args.seed).traced(plan(MemDeep::TRACE_OPS), &clock),
        PagedEvict::setup(args.seed, &work.0).traced(plan(PagedEvict::TRACE_OPS), &clock),
        ClusterSession::setup(args.seed).traced(plan(ClusterSession::TRACE_OPS)),
    ];
    let mut tally = Tally::default();
    let mut identical = true;
    let mut ops_ratio = Vec::new();
    let mut layers = Vec::new();
    for run in runs {
        tally.merge(run.traced.tally);
        identical &= run.identical;
        ops_ratio.push(run.ops_ratio);
        layers.extend(run.layers);
    }
    let (plain, traced) = StandingStream::setup(args.seed).traced(
        &mut StandingStream::setup(args.seed),
        plan(standing::TRACE_OPS),
    );
    tally.merge(plain.tally);
    tally.merge(traced.tally);
    identical &= plain.counts == traced.counts;
    ops_ratio.push(plain.log.total_ms() / traced.log.total_ms());
    layers.extend(traced.layers());

    for (name, ratio) in WORKLOADS.iter().zip(&ops_ratio) {
        println!("trace overhead {name}: traced/untraced ops_per_s = {ratio:.4}");
    }
    if !identical {
        eprintln!("the traced run did different work from the plain run");
    }
    let at = WORKLOADS
        .iter()
        .position(|w| *w == args.workload)
        .expect("validated workload");
    layers.push(metric("bench.trace_overhead_ratio", ops_ratio[at], "ratio"));
    (tally, layers, identical)
}
