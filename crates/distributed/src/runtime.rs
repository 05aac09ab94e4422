//! The message-passing runtime: one worker thread per list owner,
//! reached through request/reply channels. It is the crate's only
//! transport, so every distributed query runs here.
//!
//! * [`ClusterRuntime::spawn`] starts one OS thread per list (`m` worker
//!   threads). Each worker owns its [`SortedList`] and serves typed
//!   [`Request`] / [`Response`] messages over an [`mpsc`](std::sync::mpsc)
//!   channel — the only way to reach a list is to message its owner,
//!   exactly like a deployment where each list lives on a different node.
//!   [`ClusterRuntime::spawn_replicated`] hosts every list on `r`
//!   replica workers instead of one, the substrate for failover.
//! * [`ClusterRuntime::connect`] opens an isolated *session*: every
//!   worker lazily keeps per-session owner state (best-position tracker,
//!   served-access count), so **any number of queries can run
//!   concurrently against one shared runtime** — each from its own
//!   thread, each with its own [`NetworkStats`] — without interfering.
//!   `q` concurrent sessions keep all `m` owners busy at once.
//! * [`AsyncClusterSources`] is the session's [`SourceSet`] view, so all
//!   seven `topk_core` algorithms run over the runtime **unmodified**:
//!   each trait call is one exchange with the owning worker, so answers
//!   and access counters equal the in-memory run's, and the network
//!   figures are pinned by `tests/cross_backend.rs`.
//!
//! # Fault tolerance
//!
//! Sessions never hang on a dead owner and never execute a retried
//! request twice:
//!
//! * every request carries a per-(session, replica) **sequence number**;
//!   workers cache the last reply per session and serve a duplicate
//!   sequence from the cache instead of re-executing — so a retry after
//!   a lost reply is *at-most-once*, even for state-mutating tracked and
//!   direct accesses;
//! * every reply wait is bounded by the session's
//!   [`RetryPolicy::reply_timeout`] wall-clock guard, so a worker killed
//!   mid-query ([`ClusterRuntime::kill_owner`], or a crash injected via
//!   [`SessionOptions::faults`]) surfaces as a typed
//!   [`TopKError::Source`](topk_core::TopKError) instead of blocking
//!   forever;
//! * with replication, the session's resilient links fail over to the
//!   next replica — verifying it against the catalog and replaying the
//!   journal of state-mutating requests — and answers stay bit-identical
//!   to an unreplicated, fault-free run;
//! * for an owner whose replicas are *all* gone,
//!   [`ClusterRuntime::outage`] hands the catalog bracket to
//!   `topk_core::run_on_degraded`, which serves a certified best-effort
//!   answer over a [`ClusterRuntime::connect_surviving`] session.
//!
//! Within one session the algorithms drive accesses serially (each trait
//! call needs its reply before the algorithm can continue), so the
//! *intra-round* overlap that the round demarcation permits is priced by
//! the deterministic latency model rather than measured from the host
//! clock: [`RoundStats`](crate::RoundStats) reports both the serialized
//! sum and the overlapped makespan of every round, flakiness-free.
//! Session bring-up, reset and teardown scatter-gather over all `m`
//! worker channels at once.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use topk_core::degraded::ListOutage;
use topk_lists::source::{ListSource, SourceSet};
use topk_lists::tracker::TrackerKind;
use topk_lists::{BatchingSource, Database, Position, Score, SortedList};

use crate::cluster::{NetworkRecorder, NetworkStats};
use crate::fault::{
    FaultPlan, FaultStats, FaultTally, FaultyLink, LinkFault, ResilientLink, RetryPolicy,
};
use crate::latency::LatencyModel;
use crate::message::{Request, Response};
use crate::owner::ListOwner;
use crate::source::{ClusterSource, OwnerLink};

/// Identifies one originator session on the runtime. Sessions are cheap:
/// per session each worker keeps one best-position tracker, an access
/// counter and the last reply (for at-most-once retries).
type SessionId = u64;

/// Uncounted owner introspection returned by a state snapshot request.
#[derive(Debug, Clone, Copy)]
struct OwnerSnapshot {
    best_position: Option<Position>,
    accesses_served: u64,
}

/// Per-session worker state: the owner plus the at-most-once reply
/// cache. A retried request re-sends its sequence number; serving the
/// cached reply instead of re-executing keeps side-effecting requests
/// (tracked accesses, direct-access cursor advances) exactly-once at the
/// owner even when replies are lost.
struct SessionState {
    owner: ListOwner,
    last_seq: u64,
    last_reply: Option<Response>,
}

/// The messages a worker thread understands. `Handle` carries the wire
/// [`Request`] plus the channel to reply on; the rest is session
/// management (uncounted — it models node-local control, not the query
/// protocol).
enum WorkerMsg {
    /// Creates fresh per-session owner state.
    Open { session: SessionId },
    /// Serves one wire request for a session. `seq` is the session's
    /// per-replica sequence number; a repeat of the previous `seq`
    /// re-sends the cached reply without executing.
    Handle {
        session: SessionId,
        seq: u64,
        request: Request,
        reply: Sender<Response>,
    },
    /// Resets a session's owner state (seen positions, access count).
    ResetOwner {
        session: SessionId,
        done: Sender<()>,
    },
    /// Reports a session's best position and served-access count.
    Snapshot {
        session: SessionId,
        reply: Sender<OwnerSnapshot>,
    },
    /// Discards a session's owner state.
    Close { session: SessionId },
    /// Terminates the worker loop.
    Shutdown,
}

/// The worker body: owns the list, keeps one [`SessionState`] per open
/// session, and serves messages until shutdown. Constructing the owners
/// inside the thread keeps the tracker objects thread-local.
///
/// A message for an unknown session is *dropped*, not a panic: the
/// originator's reply timeout turns the silence into a typed fault. An
/// owner must survive a confused client.
fn worker_loop(list: SortedList, tracker: TrackerKind, inbox: Receiver<WorkerMsg>) {
    let mut sessions: HashMap<SessionId, SessionState> = HashMap::new();
    while let Ok(msg) = inbox.recv() {
        match msg {
            WorkerMsg::Open { session } => {
                sessions.insert(
                    session,
                    SessionState {
                        owner: ListOwner::with_tracker(list.clone(), tracker),
                        last_seq: 0,
                        last_reply: None,
                    },
                );
            }
            WorkerMsg::Handle {
                session,
                seq,
                request,
                reply,
            } => {
                let Some(state) = sessions.get_mut(&session) else {
                    continue;
                };
                let response = match (&state.last_reply, seq == state.last_seq) {
                    // At-most-once: a duplicate sequence number means the
                    // previous reply was lost in flight — re-send it, do
                    // not execute the request a second time.
                    (Some(cached), true) => cached.clone(),
                    _ => {
                        let fresh = state.owner.handle(request);
                        state.last_seq = seq;
                        state.last_reply = Some(fresh.clone());
                        fresh
                    }
                };
                // A send error means the session hung up mid-request
                // (originator dropped); the work is simply discarded.
                let _ = reply.send(response);
            }
            WorkerMsg::ResetOwner { session, done } => {
                if let Some(state) = sessions.get_mut(&session) {
                    state.owner.reset();
                    state.last_seq = 0;
                    state.last_reply = None;
                }
                let _ = done.send(());
            }
            WorkerMsg::Snapshot { session, reply } => {
                if let Some(state) = sessions.get(&session) {
                    let _ = reply.send(OwnerSnapshot {
                        best_position: state.owner.best_position(),
                        accesses_served: state.owner.accesses_served(),
                    });
                }
            }
            WorkerMsg::Close { session } => {
                sessions.remove(&session);
            }
            WorkerMsg::Shutdown => break,
        }
    }
}

/// Catalog metadata kept originator-side per list, known at registration
/// time: reading it is free, and failover targets must agree with it.
#[derive(Debug, Clone, Copy)]
struct CatalogEntry {
    len: usize,
    top_score: Score,
    tail_score: Score,
    epoch: u64,
}

/// Per-session knobs for [`ClusterRuntime::connect_with`].
#[derive(Debug, Clone, Default)]
pub struct SessionOptions {
    /// Coalesce sequential sorted scans into `SortedBlock` messages of
    /// this many entries (`None` = one message per access).
    pub block_len: Option<usize>,
    /// Retry/backoff/failover bounds for this session.
    pub retry: RetryPolicy,
    /// Deterministic fault schedule to inject on this session's links.
    pub faults: Option<FaultPlan>,
}

impl SessionOptions {
    /// Options with the given fault plan and everything else default.
    pub fn with_faults(faults: FaultPlan) -> Self {
        SessionOptions {
            faults: Some(faults),
            ..SessionOptions::default()
        }
    }
}

/// A cluster of list owners running on their own threads, reachable only
/// through message passing.
///
/// The runtime is [`Sync`]: share it by reference and open one session
/// ([`ClusterRuntime::connect`]) per concurrent query. Dropping the
/// runtime shuts every worker down and joins its thread.
///
/// ```
/// use topk_core::examples_paper::figure2_database;
/// use topk_core::{Bpa2, TopKAlgorithm, TopKQuery};
/// use topk_distributed::{ClusterRuntime, LatencyModel};
/// use topk_lists::TrackerKind;
///
/// let db = figure2_database();
/// let runtime = ClusterRuntime::with_latency(
///     &db,
///     TrackerKind::BitArray,
///     LatencyModel::lan(db.num_lists(), 42),
/// );
/// let mut sources = runtime.connect();
/// let result = Bpa2::default().run_on(&mut sources, &TopKQuery::top(3)).unwrap();
/// assert_eq!(result.len(), 3);
///
/// let network = sources.network();
/// assert_eq!(network.messages, 72); // one request + one reply per access
/// // Overlapping the in-round requests beats the serialized schedule.
/// assert!(network.makespan_nanos() < network.serialized_nanos());
/// ```
#[derive(Debug)]
pub struct ClusterRuntime {
    /// `workers[list][replica]` — every replica worker hosts a clone of
    /// the list and serves the same protocol.
    workers: Vec<Vec<Sender<WorkerMsg>>>,
    threads: Vec<JoinHandle<()>>,
    catalog: Vec<CatalogEntry>,
    latency: LatencyModel,
    next_session: AtomicU64,
}

impl ClusterRuntime {
    /// Spawns one worker thread per list of the database, with the
    /// default bit-array trackers and a zero (free-network) latency
    /// model.
    pub fn spawn(database: &Database) -> Self {
        Self::with_tracker(database, TrackerKind::BitArray)
    }

    /// As [`ClusterRuntime::spawn`], hosting every list on `replicas`
    /// identical workers so sessions can fail over.
    pub fn spawn_replicated(database: &Database, replicas: usize) -> Self {
        Self::with_latency_replicated(
            database,
            TrackerKind::BitArray,
            LatencyModel::zero(database.num_lists()),
            replicas,
        )
    }

    /// As [`ClusterRuntime::spawn`] with an explicit tracker strategy.
    pub fn with_tracker(database: &Database, kind: TrackerKind) -> Self {
        let m = database.num_lists();
        Self::with_latency(database, kind, LatencyModel::zero(m))
    }

    /// As [`ClusterRuntime::with_tracker`] with an explicit latency
    /// model, so sessions report non-zero simulated timings.
    ///
    /// # Panics
    ///
    /// Panics if the model does not price exactly one link per list.
    pub fn with_latency(database: &Database, kind: TrackerKind, latency: LatencyModel) -> Self {
        Self::with_latency_replicated(database, kind, latency, 1)
    }

    /// The fully general constructor: tracker strategy, latency model
    /// and replication factor.
    ///
    /// # Panics
    ///
    /// Panics if the model does not price exactly one link per list, or
    /// if `replicas` is zero.
    pub fn with_latency_replicated(
        database: &Database,
        kind: TrackerKind,
        latency: LatencyModel,
        replicas: usize,
    ) -> Self {
        assert_eq!(
            latency.num_links(),
            database.num_lists(),
            "latency model must price one link per owner"
        );
        assert!(replicas >= 1, "each list needs at least one worker");
        let mut workers = Vec::with_capacity(database.num_lists());
        let mut threads = Vec::with_capacity(database.num_lists() * replicas);
        let mut catalog = Vec::with_capacity(database.num_lists());
        for (i, list) in database.lists().enumerate() {
            let top_score = match list.entry_at(Position::FIRST) {
                Some(entry) => entry.score,
                // lint:allow(fail-stop) -- Database lists are non-empty by construction
                None => unreachable!("Database lists are non-empty"),
            };
            catalog.push(CatalogEntry {
                len: list.len(),
                top_score,
                tail_score: list.last_entry().score,
                epoch: list.epoch(),
            });
            let mut lanes = Vec::with_capacity(replicas);
            for r in 0..replicas {
                let (tx, rx) = channel();
                let list = list.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("list-owner-{i}-r{r}"))
                    .spawn(move || worker_loop(list, kind, rx))
                    // lint:allow(fail-stop) -- cannot-spawn-threads at bring-up is a config error, not a runtime fault
                    .expect("spawn list-owner worker thread");
                lanes.push(tx);
                threads.push(handle);
            }
            workers.push(lanes);
        }
        ClusterRuntime {
            workers,
            threads,
            catalog,
            latency,
            next_session: AtomicU64::new(0),
        }
    }

    /// Number of list-owner lists (`m`) — the logical owner count,
    /// independent of replication.
    pub fn num_owners(&self) -> usize {
        self.workers.len()
    }

    /// Replication factor: workers hosting each list.
    pub fn replicas(&self) -> usize {
        self.workers[0].len()
    }

    /// Number of items per list (`n`).
    pub fn num_items(&self) -> usize {
        self.catalog[0].len
    }

    /// The latency model pricing this runtime's links.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// The catalog bracket for `list` when every replica of it is gone:
    /// any of its items scores within `[tail, top]`, which is exactly
    /// what `topk_core::run_on_degraded` needs to certify a best-effort
    /// answer computed over the surviving lists.
    pub fn outage(&self, list: usize) -> ListOutage {
        let entry = self.catalog[list];
        ListOutage {
            list,
            floor: entry.tail_score,
            ceiling: entry.top_score,
        }
    }

    /// Kills one replica worker: its thread exits and its channel
    /// closes, so in-flight and future requests to it surface as typed
    /// faults (failing over when the session has replicas to spare).
    /// Deterministic: the worker is fully gone when this returns.
    ///
    /// # Panics
    ///
    /// Panics if `list` or `replica` is out of range.
    pub fn kill_owner(&self, list: usize, replica: usize) {
        let worker = &self.workers[list][replica];
        let _ = worker.send(WorkerMsg::Shutdown);
        // Spin until the worker has dropped its receiver (uses a no-op
        // control message as the probe). The channel is FIFO, so the
        // first failing send proves the shutdown was processed; joining
        // the thread itself happens at runtime drop.
        while worker
            .send(WorkerMsg::Close {
                session: SessionId::MAX,
            })
            .is_ok()
        {
            std::thread::yield_now();
        }
    }

    /// Opens a fresh session: scatter-sends an open message to all
    /// workers (each creates per-session owner state) and returns the
    /// session's [`SourceSet`] view. Sessions are isolated — open one per
    /// concurrent query.
    pub fn connect(&self) -> AsyncClusterSources<'_> {
        self.connect_with(SessionOptions::default())
    }

    /// As [`ClusterRuntime::connect`] with explicit per-session options
    /// (batching, retry policy, fault injection).
    pub fn connect_with(&self, options: SessionOptions) -> AsyncClusterSources<'_> {
        if topk_trace::active() {
            topk_trace::record(topk_trace::TraceEvent::SessionOpen {
                owners: self.workers.len() as u64,
            });
        }
        AsyncClusterSources::build(self, options, &[])
    }

    /// Opens a session over the *surviving* lists only, for serving a
    /// degraded answer when the lists in `dead` are unreachable. The
    /// session's sources cover every list **not** in `dead` (in list
    /// order); pair it with [`ClusterRuntime::outage`] brackets and
    /// `topk_core::run_on_degraded`.
    pub fn connect_surviving(&self, dead: &[usize]) -> AsyncClusterSources<'_> {
        if topk_trace::active() {
            topk_trace::record(topk_trace::TraceEvent::SessionOpen {
                owners: (self.workers.len() - dead.len()) as u64,
            });
        }
        AsyncClusterSources::build(self, SessionOptions::default(), dead)
    }

    fn open_session(&self) -> SessionId {
        let session = self.next_session.fetch_add(1, Ordering::Relaxed);
        for lanes in &self.workers {
            for worker in lanes {
                // A dead replica simply misses the session; reaching it
                // later surfaces as an owner-down fault, not a panic.
                let _ = worker.send(WorkerMsg::Open { session });
            }
        }
        session
    }
}

impl Drop for ClusterRuntime {
    fn drop(&mut self) {
        for lanes in &self.workers {
            for worker in lanes {
                let _ = worker.send(WorkerMsg::Shutdown);
            }
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The channel transport behind one session's view of one owner replica:
/// requests travel to the worker thread, replies come back over the
/// session's per-replica reply channel, and every *successful* exchange
/// is recorded in the session's shared [`NetworkRecorder`] under the
/// logical owner's lane.
#[derive(Debug)]
struct AsyncOwnerLink<'a> {
    worker: &'a Sender<WorkerMsg>,
    session: SessionId,
    owner: usize,
    catalog: CatalogEntry,
    /// Per-replica at-most-once sequence; bumped only on first attempts,
    /// so retries of the same logical request reuse it.
    seq: Cell<u64>,
    /// Reply lane, replaced wholesale after a timeout so a straggler
    /// reply can never alias the next exchange.
    reply: RefCell<(Sender<Response>, Receiver<Response>)>,
    reply_timeout: Duration,
    recorder: Rc<RefCell<NetworkRecorder>>,
}

impl OwnerLink for AsyncOwnerLink<'_> {
    fn exchange(&self, request: Request, attempt: u32) -> Result<Response, LinkFault> {
        if attempt == 0 {
            self.seq.set(self.seq.get() + 1);
        }
        let reply_tx = self.reply.borrow().0.clone();
        if self
            .worker
            .send(WorkerMsg::Handle {
                session: self.session,
                seq: self.seq.get(),
                request,
                reply: reply_tx,
            })
            .is_err()
        {
            return Err(LinkFault::OwnerDown);
        }
        let received = self.reply.borrow().1.recv_timeout(self.reply_timeout);
        let response = match received {
            Ok(response) => response,
            Err(_) => {
                // The worker is gone or wedged. Retire the reply lane:
                // if the reply arrives after all, it must not be read as
                // the answer to a *different* future request.
                *self.reply.borrow_mut() = channel();
                return Err(LinkFault::OwnerDown);
            }
        };
        self.recorder
            .borrow_mut()
            .record(self.owner, &request, &response);
        Ok(response)
    }

    fn owner_index(&self) -> usize {
        self.owner
    }

    fn len(&self) -> usize {
        self.catalog.len
    }

    fn tail_score(&self) -> Score {
        self.catalog.tail_score
    }

    fn epoch(&self) -> u64 {
        self.catalog.epoch
    }

    fn best_position(&self) -> Result<Option<Position>, LinkFault> {
        let (tx, rx) = channel();
        self.worker
            .send(WorkerMsg::Snapshot {
                session: self.session,
                reply: tx,
            })
            .map_err(|_| LinkFault::OwnerDown)?;
        match rx.recv_timeout(self.reply_timeout) {
            Ok(snapshot) => Ok(snapshot.best_position),
            Err(_) => Err(LinkFault::OwnerDown),
        }
    }

    fn reset_owner(&self) -> Result<(), LinkFault> {
        let (tx, rx) = channel();
        self.worker
            .send(WorkerMsg::ResetOwner {
                session: self.session,
                done: tx,
            })
            .map_err(|_| LinkFault::OwnerDown)?;
        rx.recv_timeout(self.reply_timeout)
            .map_err(|_| LinkFault::OwnerDown)
    }
}

/// One session's [`SourceSet`] over a [`ClusterRuntime`].
///
/// Every trait call is one request/reply exchange with the owning worker
/// thread, so every `topk_core` algorithm runs over it unmodified, with
/// the in-memory run's answers and access counters. Each owner is
/// reached through a resilient link (retry, backoff, replica failover —
/// see [`crate::fault`]); fault-free the wrapper is a transparent
/// pass-through.
///
/// ```
/// use topk_core::examples_paper::figure2_database;
/// use topk_core::{Bpa2, TopKAlgorithm, TopKQuery};
/// use topk_distributed::{AsyncClusterSources, ClusterRuntime};
///
/// let db = figure2_database();
/// let query = TopKQuery::top(3);
/// let bpa2 = Bpa2::default();
/// let local = bpa2.run(&db, &query).unwrap();
///
/// let runtime = ClusterRuntime::spawn(&db);
/// let mut session = runtime.connect();
/// let remote = bpa2.run_on(&mut session, &query).unwrap();
/// assert!(remote.scores_match(&local, 1e-9));
/// assert_eq!(remote.stats().accesses, local.stats().accesses);
/// assert_eq!(session.network().messages, 72);
///
/// // Batched sessions coalesce sequential sorted scans into blocks.
/// let mut batched = AsyncClusterSources::batched(&runtime, 4);
/// let scanned = topk_core::NaiveScan.run_on(&mut batched, &query).unwrap();
/// assert!(scanned.scores_match(&local, 1e-9));
/// ```
#[derive(Debug)]
pub struct AsyncClusterSources<'a> {
    runtime: &'a ClusterRuntime,
    session: SessionId,
    recorder: Rc<RefCell<NetworkRecorder>>,
    tally: FaultTally,
    sources: Vec<Box<dyn ListSource + 'a>>,
}

impl<'a> AsyncClusterSources<'a> {
    /// As [`ClusterRuntime::connect`], with every source wrapped in a
    /// [`BatchingSource`] so sequential sorted scans travel as
    /// `SortedBlock` messages of `block_len` entries.
    pub fn batched(runtime: &'a ClusterRuntime, block_len: usize) -> Self {
        Self::build(
            runtime,
            SessionOptions {
                block_len: Some(block_len),
                ..SessionOptions::default()
            },
            &[],
        )
    }

    fn build(runtime: &'a ClusterRuntime, options: SessionOptions, dead: &[usize]) -> Self {
        let session = runtime.open_session();
        let recorder = Rc::new(RefCell::new(NetworkRecorder::new(
            runtime.num_owners(),
            runtime.latency.clone(),
        )));
        let tally: FaultTally = Rc::new(Cell::new(FaultStats::default()));
        let sources = (0..runtime.num_owners())
            .filter(|owner| !dead.contains(owner))
            .map(|owner| {
                let replicas: Vec<Box<dyn OwnerLink + 'a>> = runtime.workers[owner]
                    .iter()
                    .enumerate()
                    .map(|(replica, worker)| {
                        let link = AsyncOwnerLink {
                            worker,
                            session,
                            owner,
                            catalog: runtime.catalog[owner],
                            seq: Cell::new(0),
                            reply: RefCell::new(channel()),
                            reply_timeout: options.retry.reply_timeout,
                            recorder: Rc::clone(&recorder),
                        };
                        match &options.faults {
                            Some(plan) => Box::new(FaultyLink::new(
                                Box::new(link),
                                plan.clone(),
                                owner,
                                replica,
                                Rc::clone(&tally),
                            )) as Box<dyn OwnerLink + 'a>,
                            None => Box::new(link) as Box<dyn OwnerLink + 'a>,
                        }
                    })
                    .collect();
                let resilient =
                    ResilientLink::new(replicas, owner, options.retry, Rc::clone(&tally));
                let source =
                    Box::new(ClusterSource::from_link(Box::new(resilient))) as Box<dyn ListSource>;
                match options.block_len {
                    None => source,
                    Some(len) => Box::new(BatchingSource::new(source, len)) as Box<dyn ListSource>,
                }
            })
            .collect();
        AsyncClusterSources {
            runtime,
            session,
            recorder,
            tally,
            sources,
        }
    }

    /// Network statistics accumulated by this session so far (messages,
    /// payload, per-round traffic and simulated timings).
    pub fn network(&self) -> NetworkStats {
        self.recorder.borrow().stats()
    }

    /// What this session's resilience machinery did so far (injected
    /// faults, retries, failovers, modelled backoff).
    pub fn fault_stats(&self) -> FaultStats {
        self.tally.get()
    }

    /// Total accesses served for this session, gathered by
    /// scatter-sending a snapshot request to all workers at once and
    /// collecting the replies (uncounted introspection). Dead workers
    /// simply do not answer; live replicas that never served the session
    /// report zero, so the sum is exact across failovers.
    pub fn accesses_served(&self) -> u64 {
        let (tx, rx) = channel();
        for lanes in &self.runtime.workers {
            for worker in lanes {
                let _ = worker.send(WorkerMsg::Snapshot {
                    session: self.session,
                    reply: tx.clone(),
                });
            }
        }
        drop(tx);
        rx.iter().map(|snapshot| snapshot.accesses_served).sum()
    }
}

impl SourceSet for AsyncClusterSources<'_> {
    fn num_lists(&self) -> usize {
        self.sources.len()
    }

    fn source(&mut self, i: usize) -> &mut dyn ListSource {
        self.sources[i].as_mut()
    }

    fn source_ref(&self, i: usize) -> &dyn ListSource {
        self.sources[i].as_ref()
    }

    fn begin_round(&mut self) {
        self.recorder.borrow_mut().begin_round();
        for source in &mut self.sources {
            source.begin_round();
        }
    }

    fn reset(&mut self) {
        self.recorder.borrow_mut().reset();
        for source in &mut self.sources {
            source.reset();
        }
    }
}

impl Drop for AsyncClusterSources<'_> {
    fn drop(&mut self) {
        for lanes in &self.runtime.workers {
            for worker in lanes {
                // Best effort: on shutdown races the worker is already
                // gone and its sessions with it.
                let _ = worker.send(WorkerMsg::Close {
                    session: self.session,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_core::examples_paper::{figure1_database, figure2_database};
    use topk_core::{AlgorithmKind, Bpa2, NaiveScan, TopKAlgorithm, TopKError, TopKQuery, Tput};
    use topk_lists::SourceErrorKind;

    use crate::fault::FaultKind;

    /// (messages, payload units, rounds, serialized ns, makespan ns).
    const PINNED_FIGURE2_BPA2_LAN7: (u64, u64, usize, u64, u64) =
        (72, 100, 4, 2_940_448, 1_463_132);

    #[test]
    fn runtime_mirrors_database_dimensions() {
        let db = figure1_database();
        let runtime = ClusterRuntime::spawn(&db);
        assert_eq!(runtime.num_owners(), 3);
        assert_eq!(runtime.replicas(), 1);
        assert_eq!(runtime.num_items(), 12);
        assert_eq!(runtime.latency(), &LatencyModel::zero(3));
    }

    #[test]
    fn a_session_matches_the_synchronous_cluster_exactly() {
        // The figures the synchronous in-thread cluster reported for this
        // run before it was removed: BPA2 on Figure 2, LAN links seeded 7.
        let db = figure2_database();
        let query = TopKQuery::top(3);
        let runtime =
            ClusterRuntime::with_latency(&db, TrackerKind::BitArray, LatencyModel::lan(3, 7));
        let mut session = runtime.connect();
        let result = Bpa2::default().run_on(&mut session, &query).unwrap();
        let reference = Bpa2::default().run(&db, &query).unwrap();

        assert!(result.scores_match(&reference, 1e-9));
        assert_eq!(result.stats().accesses, reference.stats().accesses);
        let network = session.network();
        assert_eq!(
            (
                network.messages,
                network.payload_units,
                network.rounds(),
                network.serialized_nanos(),
                network.makespan_nanos(),
            ),
            PINNED_FIGURE2_BPA2_LAN7,
            "messages, payload, rounds and simulated timings are pinned"
        );
        assert_eq!(session.accesses_served(), 36);
        assert_eq!(session.fault_stats(), crate::fault::FaultStats::default());
    }

    #[test]
    fn sessions_are_isolated() {
        let db = figure2_database();
        let query = TopKQuery::top(3);
        let runtime = ClusterRuntime::spawn(&db);

        // Partially exhaust a first session's trackers…
        let mut first = runtime.connect();
        for i in 0..3 {
            first.source(i).direct_access_next().unwrap();
        }

        // …a second session still sees a fresh cluster.
        let mut second = runtime.connect();
        let result = Bpa2::default().run_on(&mut second, &query).unwrap();
        let expected = Bpa2::default().run(&db, &query).unwrap();
        assert!(result.scores_match(&expected, 1e-9));
        assert_eq!(result.stats().accesses, expected.stats().accesses);
        assert_eq!(first.network().messages, 6);
    }

    #[test]
    fn reset_restores_a_fresh_session() {
        let db = figure1_database();
        let runtime = ClusterRuntime::spawn(&db);
        let mut session = runtime.connect();
        let query = TopKQuery::top(3);
        let first = Bpa2::default().run_on(&mut session, &query).unwrap();
        session.reset();
        assert_eq!(session.network(), NetworkStats::default());
        assert_eq!(session.accesses_served(), 0);
        let second = Bpa2::default().run_on(&mut session, &query).unwrap();
        assert!(second.scores_match(&first, 1e-9));
        assert_eq!(second.stats().accesses, first.stats().accesses);
    }

    #[test]
    fn batched_sessions_coalesce_scans() {
        let db = figure1_database();
        let runtime = ClusterRuntime::spawn(&db);
        let query = TopKQuery::top(3);
        let mut session = AsyncClusterSources::batched(&runtime, 4);
        let result = NaiveScan.run_on(&mut session, &query).unwrap();
        let expected = NaiveScan.run(&db, &query).unwrap();
        assert!(result.scores_match(&expected, 1e-9));
        // 12 positions per list in blocks of 4: 3 exchanges per list.
        assert_eq!(session.network().messages, 2 * 3 * 3);
    }

    #[test]
    fn every_algorithm_runs_over_the_runtime() {
        let db = figure1_database();
        let runtime = ClusterRuntime::spawn(&db);
        let query = TopKQuery::top(3);
        let expected = NaiveScan.run(&db, &query).unwrap();
        for kind in AlgorithmKind::ALL {
            let mut session = runtime.connect();
            let result = kind.create().run_on(&mut session, &query).unwrap();
            assert!(result.scores_match(&expected, 1e-9), "{kind:?}");
        }
    }

    #[test]
    fn overlapped_makespan_beats_serialized_for_round_synchronous_protocols() {
        let db = figure1_database();
        let runtime =
            ClusterRuntime::with_latency(&db, TrackerKind::BitArray, LatencyModel::lan(3, 11));
        let mut session = runtime.connect();
        Tput.run_on(&mut session, &TopKQuery::top(3)).unwrap();
        let network = session.network();
        assert!(network.makespan_nanos() > 0);
        assert!(network.makespan_nanos() < network.serialized_nanos());
        assert!(network.overlap_speedup().unwrap() > 1.0);
    }

    #[test]
    fn a_killed_owner_yields_a_typed_error_not_a_hang() {
        let db = figure1_database();
        let runtime = ClusterRuntime::spawn(&db);
        let mut session = runtime.connect_with(SessionOptions {
            retry: RetryPolicy {
                reply_timeout: Duration::from_millis(200),
                ..RetryPolicy::default()
            },
            ..SessionOptions::default()
        });
        runtime.kill_owner(1, 0);
        let err = Bpa2::default()
            .run_on(&mut session, &TopKQuery::top(3))
            .unwrap_err();
        match err {
            TopKError::Source(source) => {
                assert_eq!(source.kind, SourceErrorKind::Unreachable);
                assert_eq!(source.list, Some(1));
            }
            other => panic!("expected a typed source error, got {other:?}"),
        }
    }

    #[test]
    fn a_killed_replica_fails_over_to_an_identical_answer() {
        let db = figure2_database();
        let query = TopKQuery::top(3);
        let expected = Bpa2::default().run(&db, &query).unwrap();

        let runtime = ClusterRuntime::spawn_replicated(&db, 2);
        assert_eq!(runtime.replicas(), 2);
        let mut session = runtime.connect();
        // Warm the session, then kill list 0's primary mid-stream.
        session.source(0).direct_access_next().unwrap();
        runtime.kill_owner(0, 0);
        session.reset();
        let result = Bpa2::default().run_on(&mut session, &query).unwrap();
        assert!(result.scores_match(&expected, 1e-9));
        assert!(session.fault_stats().failovers >= 1);
    }

    #[test]
    fn injected_crash_with_a_replica_keeps_answers_bit_identical() {
        let db = figure2_database();
        let query = TopKQuery::top(3);
        let expected = Bpa2::default().run(&db, &query).unwrap();
        let runtime = ClusterRuntime::spawn_replicated(&db, 2);
        let plan = FaultPlan::new();
        plan.arm(5, FaultKind::Crash);
        let mut session = runtime.connect_with(SessionOptions::with_faults(plan));
        let result = Bpa2::default().run_on(&mut session, &query).unwrap();
        assert!(result.scores_match(&expected, 1e-9));
        let stats = session.fault_stats();
        assert_eq!(stats.injected, 1);
        assert_eq!(stats.failovers, 1);
    }

    #[test]
    fn a_degraded_session_serves_certified_intervals() {
        let db = figure2_database();
        let runtime = ClusterRuntime::spawn(&db);
        runtime.kill_owner(2, 0);
        let mut surviving = runtime.connect_surviving(&[2]);
        assert_eq!(surviving.num_lists(), 2);
        let outage = runtime.outage(2);
        let answer = topk_core::run_on_degraded(
            &Bpa2::default(),
            &mut surviving,
            &TopKQuery::top(3),
            &[outage],
        )
        .unwrap();
        assert_eq!(answer.items.len(), 3);
        // Every true overall score (full database) is inside its bracket.
        for (ranked, interval) in answer.items.iter().zip(&answer.intervals) {
            let truth: f64 = db
                .local_scores(ranked.item)
                .unwrap()
                .iter()
                .map(|s| s.value())
                .sum();
            assert!(interval.contains(Score::from_f64(truth)));
        }
    }
}
