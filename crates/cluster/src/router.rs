//! The fleet router: one routing, admission, autoscaling and failure path
//! over any set of [`Shard`]s — in-process
//! [`LocalShard`](crate::LocalShard)s or `asdr-shardd` processes behind
//! [`RemoteShard`](crate::RemoteShard)s.
//!
//! Requests are routed by **scene name** through a consistent-hash ring
//! ([`HashRing`], 64 virtual nodes per shard) over the *live* shards, so
//! one scene's traffic lands on one home shard — its fit stays resident in
//! that shard's store and its requests batch onto shared engine sessions.
//! Admission is by **predicted cost**, not request count: the home shard
//! takes the request while its outstanding predicted milliseconds stay
//! under [`FleetConfig::budget_ms`]; otherwise the request spills to the
//! least-loaded live shard, and only when every live shard is over budget
//! or full does the router refuse ([`FleetError::Busy`]). A reservation is
//! released when the shard finishes the request, not when a caller waits
//! on its ticket, so a replay that submits everything before it waits
//! cannot wedge a finite budget shut.
//!
//! The router also owns failure handling and scaling:
//!
//! * **failure detection** — a health thread probes every shard each
//!   interval; [`FleetConfig::health_misses`] consecutive misses evict the
//!   shard from the ring ([`HashRing::without`]), and a later successful
//!   probe rejoins it. Connection errors on the submit or wait path evict
//!   immediately — a refused connect is better evidence than a timer.
//! * **hedging** — when a request has waited longer than
//!   [`FleetConfig::hedge_after`], a duplicate is submitted to another
//!   live shard. First response wins; the loser is cancelled and the race
//!   is counted in [`FleetStats`]. Requests are deterministic, so the
//!   winner's frames are byte-identical either way.
//! * **failover** — in-flight requests on a shard that dies are
//!   resubmitted through the ring (counted too), so a kill −9 shows in
//!   the counters, never in the frames.
//! * **re-warm** — when the ring changes, every scene this router has
//!   routed whose home moved gets a prewarm on its new home, pulling the
//!   model from the shared checkpoint directory before traffic lands.
//! * **autoscaling** — with [`FleetConfig::autoscale`] set, a control loop
//!   feeds each shard's deadline counters and outstanding predicted cost
//!   to a [`ShardController`] and applies its verdicts through
//!   [`Shard::set_workers`].
//!
//! Because rendering is deterministic and plan reuse never crosses a
//! request boundary, a request's frames are **byte-identical whichever
//! shard serves it** — the property `tests/cluster_e2e.rs` pins against a
//! single service.

use crate::autoscale::{AutoscalerConfig, ScaleEvent, ShardController};
use crate::cost::CostModel;
use crate::remote::RemoteShard;
use crate::stats::{ClusterStats, FleetStats, ShardStats};
use crate::wire::{WireResult, WireStats};
use asdr_obs::{Counter, Scope, TraceId};
use asdr_serve::trace::replay::{ReplayTarget, SubmitOutcome};
use asdr_serve::{RenderProfile, RenderRequest};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Virtual nodes per shard on the ring: enough that shard loads stay
/// within a few tens of percent of even for realistic scene counts.
pub const VNODES: usize = 64;

/// The ring hash: FNV-1a 64-bit through a murmur-style finalizer. Stable
/// across processes and releases (routing must not depend on `std`'s
/// randomized hasher); the finalizer matters — raw FNV keeps
/// common-prefix strings ("shard-…", scene names) in a narrow band of the
/// ring, which empties whole shards.
pub fn ring_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// A consistent-hash ring over shard ids (see the module docs).
#[derive(Debug, Clone)]
pub struct HashRing {
    /// (ring position, shard id), sorted by position.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// A ring over shards `0..shards` (at least 1).
    pub fn new(shards: usize) -> Self {
        Self::from_ids(0..shards.max(1))
    }

    /// A ring over an explicit shard-id set.
    pub fn from_ids(ids: impl IntoIterator<Item = usize>) -> Self {
        let mut points = Vec::new();
        for id in ids {
            for v in 0..VNODES {
                points.push((ring_hash(format!("shard-{id}/vnode-{v}").as_bytes()), id));
            }
        }
        points.sort_unstable();
        HashRing { points }
    }

    /// The home shard for a scene name: the first virtual node clockwise
    /// from the name's ring position.
    pub fn home(&self, scene: &str) -> usize {
        let h = ring_hash(scene.as_bytes());
        let i = self.points.partition_point(|&(p, _)| p < h);
        self.points[if i == self.points.len() { 0 } else { i }].1
    }

    /// The ring with one shard removed — only that shard's scenes remap
    /// (the consistent-hashing property `router_props.rs` pins).
    pub fn without(&self, shard: usize) -> HashRing {
        HashRing { points: self.points.iter().copied().filter(|&(_, id)| id != shard).collect() }
    }

    /// Shard ids present on the ring.
    pub fn len(&self) -> usize {
        let mut ids: Vec<usize> = self.points.iter().map(|&(_, id)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Whether the ring holds no shards.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Why a shard operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardError {
    /// The shard refused the request (`retryable` = queue full / draining).
    Refused {
        /// Whether retrying (elsewhere or later) can succeed.
        retryable: bool,
        /// The shard-side message.
        why: String,
    },
    /// The shard rendered but failed (worker panic).
    Render(String),
    /// The connection died or could not be established.
    Connection(String),
    /// The peer broke the protocol.
    Protocol(String),
    /// No reply within the caller's deadline.
    Timeout,
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Refused { retryable, why } => {
                write!(f, "refused ({}): {why}", if *retryable { "retryable" } else { "final" })
            }
            ShardError::Render(why) => write!(f, "{why}"),
            ShardError::Connection(why) => write!(f, "connection: {why}"),
            ShardError::Protocol(why) => write!(f, "protocol: {why}"),
            ShardError::Timeout => f.write_str("timed out"),
        }
    }
}

/// Runs exactly once per [`Shard::submit`], when the shard will do no more
/// work for that submission: with the render's service time in
/// milliseconds (queue wait excluded) when it completed, `None` when it was
/// refused, failed, cancelled, or lost with its shard.
pub type Done = Box<dyn FnOnce(Option<f64>) + Send>;

/// One shard the router places work on (see the module docs). `Display`
/// names the shard in eviction logs. Every call answers within its
/// `timeout`; a connection, protocol, or timeout error is evidence the
/// shard is gone.
pub trait Shard: fmt::Display + Send + Sync + 'static {
    /// The shard-side completion handle.
    type Ticket: ShardTicket;

    /// Admits `req` ([`ShardError::Refused`] otherwise; retryable when
    /// merely full). `done` runs exactly once (see [`Done`]), also when
    /// this returns an error.
    fn submit(
        &self,
        req: &RenderRequest,
        admit_timeout: Duration,
        done: Done,
    ) -> Result<Self::Ticket, ShardError>;

    /// Probes liveness; an error is a health miss.
    fn health(&self, timeout: Duration) -> Result<(), ShardError>;

    /// A statistics snapshot.
    fn stats(&self, timeout: Duration) -> Result<WireStats, ShardError>;

    /// Pre-fetches `scene`'s model (ring re-warm), returning whether the
    /// shard knew the scene.
    fn prewarm(&self, scene: &str, timeout: Duration) -> Result<bool, ShardError>;

    /// Stops admissions and lets admitted work finish (best effort).
    fn drain(&self, timeout: Duration);

    /// Resizes the worker pool, returning the previous target.
    fn set_workers(&self, workers: usize, timeout: Duration) -> Result<usize, ShardError>;
}

/// A shard-side request handle.
pub trait ShardTicket: Clone + Send + Sync + 'static {
    /// Waits up to `timeout` for the result: [`ShardError::Timeout`] while
    /// still in flight (wait again, or hedge), [`ShardError::Render`] when
    /// the render failed, [`ShardError::Connection`] when the shard died.
    fn wait_result(&self, timeout: Duration) -> Result<WireResult, ShardError>;

    /// Gives up on the result (the hedge race's loser).
    fn cancel(&self);
}

/// Tuning for the router.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Pooled connections per remote shard.
    pub connections_per_shard: usize,
    /// Health-probe period.
    pub health_interval: Duration,
    /// Per-probe (and per-stats-poll) reply deadline.
    pub health_timeout: Duration,
    /// Consecutive misses before a shard is evicted from the ring.
    pub health_misses: u32,
    /// Hedge a request to another shard after this long without a result
    /// (`None` disables hedging).
    pub hedge_after: Option<Duration>,
    /// Admission-decision deadline per submit attempt.
    pub admit_timeout: Duration,
    /// Per-shard predicted-cost admission budget, milliseconds
    /// (`f64::INFINITY`: unlimited). An idle shard always admits one
    /// request, so a request larger than the budget is still servable.
    pub budget_ms: f64,
    /// The autoscaling control loop (`None`: fixed worker pools).
    pub autoscale: Option<AutoscalerConfig>,
}

impl Default for FleetConfig {
    /// Remote defaults: hedge at 2 s, unlimited budget, no autoscaling.
    fn default() -> Self {
        FleetConfig {
            connections_per_shard: 2,
            health_interval: Duration::from_millis(250),
            health_timeout: Duration::from_millis(1000),
            health_misses: 3,
            hedge_after: Some(Duration::from_millis(2000)),
            admit_timeout: Duration::from_secs(10),
            budget_ms: f64::INFINITY,
            autoscale: None,
        }
    }
}

impl FleetConfig {
    /// In-process defaults: as [`FleetConfig::default`] but unhedged — a
    /// local duplicate would only compete for the same cores.
    pub fn local() -> Self {
        FleetConfig { hedge_after: None, ..FleetConfig::default() }
    }
}

/// Why the router refused a submission.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// Every live shard is full or over its cost budget; retry after
    /// completions drain.
    Busy {
        /// Predicted cost of the refused request, milliseconds.
        predicted_ms: f64,
        /// The per-shard admission budget, milliseconds.
        budget_ms: f64,
    },
    /// The request can never be admitted (no live shards, or every shard
    /// refused it outright).
    Fatal(String),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Busy { predicted_ms, budget_ms } => write!(
                f,
                "every live shard is full or over budget (predicted {predicted_ms:.1} ms, \
                 budget {budget_ms:.0} ms)"
            ),
            FleetError::Fatal(why) => f.write_str(why),
        }
    }
}

impl std::error::Error for FleetError {}

/// A counter and a condvar. As the stop signal, any bump stops the
/// background loops, whose interval sleeps it interrupts (shutdown must
/// not wait out a 60 s interval). As the completion pulse, every shard
/// completion bumps it, and over-budget replays and failover retries park
/// on it — completions are the only events that free queue slots or
/// budget.
#[derive(Debug, Default)]
struct Signal {
    count: Mutex<u64>,
    cond: Condvar,
}

impl Signal {
    fn bump(&self) {
        *self.count.lock().expect("signal poisoned") += 1;
        self.cond.notify_all();
    }

    /// Waits up to `timeout` for a count that `done` accepts; returns
    /// whether one arrived.
    fn wait_for(&self, timeout: Duration, done: impl Fn(u64) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        let mut count = self.count.lock().expect("signal poisoned");
        while !done(*count) {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            count = self.cond.wait_timeout(count, left).expect("signal poisoned").0;
        }
        true
    }

    /// Sleeps for `interval` or until stopped; returns whether stopped.
    fn stopped_within(&self, interval: Duration) -> bool {
        self.wait_for(interval, |count| count > 0)
    }

    /// Waits until the next bump or `timeout`.
    fn wait_change(&self, timeout: Duration) {
        let seen = *self.count.lock().expect("signal poisoned");
        self.wait_for(timeout, |count| count != seen);
    }
}

/// Predicted-cost bookkeeping for one shard's admitted-but-unfinished
/// submissions: reserved at submit, released by the submission's [`Done`].
#[derive(Debug, Default)]
struct ShardLoad {
    outstanding_ms: f64,
    outstanding: usize,
    spilled_in: u64,
}

impl ShardLoad {
    fn reserve(&mut self, predicted_ms: f64) {
        self.outstanding += 1;
        self.outstanding_ms += predicted_ms;
    }

    fn release(&mut self, predicted_ms: f64) {
        self.outstanding = self.outstanding.saturating_sub(1);
        // snap float residue: an empty book must read exactly idle, or the
        // autoscaler's busy signal (and the budget) never clears
        self.outstanding_ms =
            if self.outstanding == 0 { 0.0 } else { (self.outstanding_ms - predicted_ms).max(0.0) };
    }
}

/// One shard plus the router's view of it.
struct Member<S> {
    shard: S,
    live: AtomicBool,
    misses: AtomicU32,
    /// The last snapshot that arrived (what a dead shard completed).
    last_stats: Mutex<Option<WireStats>>,
    load: Arc<Mutex<ShardLoad>>,
}

/// Routing and failure counters, registry-backed under a unique `fleet.N.`
/// scope so two routers in one process (tests) never share.
struct FleetCounters {
    routed_home: Arc<Counter>,
    spilled: Arc<Counter>,
    rejected: Arc<Counter>,
    evictions: Arc<Counter>,
    rejoins: Arc<Counter>,
    hedges: Arc<Counter>,
    hedge_wins: Arc<Counter>,
    hedge_cancels: Arc<Counter>,
    failovers: Arc<Counter>,
    rewarms: Arc<Counter>,
}

impl FleetCounters {
    fn new(scope: &Scope) -> FleetCounters {
        FleetCounters {
            routed_home: scope.counter("routed_home"),
            spilled: scope.counter("spilled"),
            rejected: scope.counter("rejected"),
            evictions: scope.counter("evictions"),
            rejoins: scope.counter("rejoins"),
            hedges: scope.counter("hedges"),
            hedge_wins: scope.counter("hedge_wins"),
            hedge_cancels: scope.counter("hedge_cancels"),
            failovers: scope.counter("failovers"),
            rewarms: scope.counter("rewarms"),
        }
    }
}

/// A submission a shard admitted.
struct Placed<T> {
    shard: usize,
    home: bool,
    ticket: T,
    predicted_ms: f64,
}

struct FleetInner<S> {
    shards: Vec<Member<S>>,
    ring: Mutex<HashRing>,
    scene_homes: Mutex<HashMap<String, usize>>,
    cost: Arc<CostModel>,
    pulse: Arc<Signal>,
    counters: FleetCounters,
    events: Mutex<Vec<ScaleEvent>>,
    cfg: FleetConfig,
    stop: Signal,
}

impl<S: Shard> FleetInner<S> {
    fn live_ids(&self) -> Vec<usize> {
        (0..self.shards.len()).filter(|&i| self.shards[i].live.load(Ordering::SeqCst)).collect()
    }

    /// Removes a failed shard from the ring and re-warms the scenes its
    /// departure remapped. Idempotent per up-state.
    fn evict(self: &Arc<Self>, id: usize, why: &str) {
        if !self.shards[id].live.swap(false, Ordering::SeqCst) {
            return;
        }
        self.counters.evictions.inc();
        eprintln!("fleet: evicting shard {id} ({}): {why}", self.shards[id].shard);
        {
            let mut ring = self.ring.lock().expect("ring lock poisoned");
            *ring = ring.without(id);
        }
        self.rewarm_remapped();
    }

    /// Returns a recovered shard to the ring.
    fn rejoin(self: &Arc<Self>, id: usize) {
        if self.shards[id].live.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shards[id].misses.store(0, Ordering::SeqCst);
        self.counters.rejoins.inc();
        eprintln!("fleet: shard {id} rejoined ({})", self.shards[id].shard);
        *self.ring.lock().expect("ring lock poisoned") = HashRing::from_ids(self.live_ids());
        self.rewarm_remapped();
    }

    /// Pre-fetches every routed scene whose home moved onto its new home
    /// before traffic lands there. Runs the probes off-thread; the ring is
    /// already updated, so racing traffic merely finds a warm (or warming —
    /// the store single-flights) model.
    fn rewarm_remapped(self: &Arc<Self>) {
        let ring = self.ring.lock().expect("ring lock poisoned").clone();
        if ring.is_empty() {
            return;
        }
        let mut homes = self.scene_homes.lock().expect("scene homes poisoned");
        for (scene, home) in homes.iter_mut() {
            let now = ring.home(scene);
            if now != *home {
                *home = now;
                self.counters.rewarms.inc();
                let inner = self.clone();
                let scene = scene.clone();
                std::thread::spawn(move || {
                    let _ = inner.shards[now].shard.prewarm(&scene, Duration::from_secs(30));
                });
            }
        }
    }

    /// The [`Done`] for one submission to shard `id`: feed the cost model,
    /// release the reservation, wake capacity waiters. It holds only what
    /// it needs, never the router itself — a shard may run it on a thread
    /// the router's drop would join.
    fn done_hook(&self, id: usize, req: &RenderRequest, predicted_ms: f64) -> Done {
        let (load, cost, pulse) =
            (self.shards[id].load.clone(), self.cost.clone(), self.pulse.clone());
        let (scene, resolution, frames) =
            (req.scene.name().to_string(), req.resolution, req.frames);
        Box::new(move |service_ms| {
            if let Some(ms) = service_ms {
                cost.observe(&scene, resolution, frames, ms);
            }
            load.lock().expect("shard load poisoned").release(predicted_ms);
            pulse.bump();
        })
    }

    /// Admits `req` on its ring home, else on the least-loaded live shard
    /// with budget room, never on `skip` (a hedge's primary).
    fn place(
        self: &Arc<Self>,
        req: &RenderRequest,
        skip: Option<usize>,
    ) -> Result<Placed<S::Ticket>, FleetError> {
        let scene = req.scene.name();
        let home = {
            let ring = self.ring.lock().expect("ring lock poisoned");
            if ring.is_empty() {
                return Err(FleetError::Fatal("no live shards".into()));
            }
            ring.home(scene)
        };
        self.scene_homes
            .lock()
            .expect("scene homes poisoned")
            .entry(scene.to_string())
            .or_insert(home);
        let predicted_ms = self.cost.predict(scene, req.resolution, req.frames);
        // candidate order: home, then every other live shard by outstanding
        // cost. Snapshot the loads before sorting — completions mutate them
        // concurrently, and a comparator reading live state can violate the
        // total-order contract (a sort panic in the submit hot path)
        let mut others: Vec<(usize, f64)> = self
            .live_ids()
            .into_iter()
            .filter(|&id| id != home)
            .map(|id| {
                (id, self.shards[id].load.lock().expect("shard load poisoned").outstanding_ms)
            })
            .collect();
        others.sort_by(|a, b| a.1.total_cmp(&b.1));
        let candidates = std::iter::once(home).chain(others.into_iter().map(|(id, _)| id));
        let mut busy = false;
        let mut last_final = None;
        for id in candidates.filter(|&id| Some(id) != skip) {
            let member = &self.shards[id];
            if !member.live.load(Ordering::SeqCst) {
                continue;
            }
            {
                let mut load = member.load.lock().expect("shard load poisoned");
                if load.outstanding_ms > 0.0
                    && load.outstanding_ms + predicted_ms > self.cfg.budget_ms
                {
                    busy = true;
                    continue;
                }
                load.reserve(predicted_ms);
            }
            let done = self.done_hook(id, req, predicted_ms);
            match member.shard.submit(req, self.cfg.admit_timeout, done) {
                Ok(ticket) => {
                    return Ok(Placed { shard: id, home: id == home, ticket, predicted_ms })
                }
                Err(ShardError::Refused { retryable: true, .. }) => busy = true,
                Err(ShardError::Refused { retryable: false, why }) => last_final = Some(why),
                Err(e @ (ShardError::Connection(_) | ShardError::Timeout)) => {
                    self.evict(id, &e.to_string());
                }
                Err(e) => last_final = Some(e.to_string()),
            }
        }
        if busy {
            return Err(FleetError::Busy { predicted_ms, budget_ms: self.cfg.budget_ms });
        }
        Err(FleetError::Fatal(last_final.unwrap_or_else(|| "no live shards".into())))
    }

    /// Places a primary (or failover) submission and counts where it
    /// landed.
    fn route(self: &Arc<Self>, req: &RenderRequest) -> Result<Placed<S::Ticket>, FleetError> {
        let placed = self.place(req, None);
        match &placed {
            Ok(p) if p.home => self.counters.routed_home.inc(),
            Ok(p) => {
                self.counters.spilled.inc();
                self.shards[p.shard].load.lock().expect("shard load poisoned").spilled_in += 1;
            }
            Err(FleetError::Busy { .. }) => self.counters.rejected.inc(),
            Err(FleetError::Fatal(_)) => {}
        }
        placed
    }
}

fn health_loop<S: Shard>(inner: &Arc<FleetInner<S>>) {
    while !inner.stop.stopped_within(inner.cfg.health_interval) {
        for (id, m) in inner.shards.iter().enumerate() {
            let probe = m.shard.health(inner.cfg.health_timeout);
            let live = m.live.load(Ordering::SeqCst);
            match probe {
                Ok(()) if live => m.misses.store(0, Ordering::SeqCst),
                Ok(()) => inner.rejoin(id),
                Err(e) if live => {
                    let misses = m.misses.fetch_add(1, Ordering::SeqCst) + 1;
                    if misses >= inner.cfg.health_misses {
                        inner.evict(id, &format!("{misses} consecutive health misses ({e})"));
                    }
                }
                Err(_) => {}
            }
        }
    }
}

/// The autoscaler thread: sample every live shard, difference its deadline
/// counters, apply verdicts (see [`crate::autoscale`]).
fn scaler_loop<S: Shard>(inner: &FleetInner<S>, cfg: &AutoscalerConfig, started: Instant) {
    let timeout = inner.cfg.health_timeout;
    let mut controllers: Vec<Option<ShardController>> = inner.shards.iter().map(|_| None).collect();
    while !inner.stop.stopped_within(cfg.interval) {
        for (id, m) in inner.shards.iter().enumerate() {
            if !m.live.load(Ordering::SeqCst) {
                continue;
            }
            let Ok(stats) = m.shard.stats(timeout) else { continue };
            // admitted-but-unfinished work (queued or rendering) makes an
            // empty window "busy", not "idle" — see ShardController::tick;
            // the same predicted-ms doubles as the controller's forecast
            let outstanding_ms = m.load.lock().expect("shard load poisoned").outstanding_ms;
            let busy = outstanding_ms > 0.0 || stats.queue_len > 0;
            let controller =
                controllers[id].get_or_insert_with(|| ShardController::new(stats.workers as usize));
            let Some(v) = controller.tick(
                cfg,
                stats.serve.deadlined_requests,
                stats.serve.deadline_misses,
                busy,
                outstanding_ms,
            ) else {
                continue;
            };
            if let Ok(from) = m.shard.set_workers(v.target, timeout) {
                inner.events.lock().expect("scale events poisoned").push(ScaleEvent {
                    at_ms: started.elapsed().as_millis() as u64,
                    shard: id,
                    from,
                    to: v.target,
                    miss_rate: v.miss_rate,
                    reason: v.reason,
                });
            }
        }
    }
}

/// The router over shards of kind `S` (see the module docs):
/// [`RemoteFleet`](crate::RemoteFleet) over `asdr-shardd` processes,
/// [`LocalFleet`](crate::LocalFleet) over in-process services. Dropping it
/// stops its background loops; [`Fleet::shutdown`] also drains the shards
/// and returns the final statistics.
pub struct Fleet<S: Shard> {
    inner: Arc<FleetInner<S>>,
    loops: Mutex<Vec<JoinHandle<()>>>,
}

impl<S: Shard> Fleet<S> {
    /// Routes over `shards` (ring ids in order) and starts the health loop
    /// and, when configured, the autoscaler.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint when `shards` is
    /// empty, the budget is not positive, or the autoscaler configuration
    /// fails validation.
    pub fn new(
        shards: Vec<S>,
        profile: &RenderProfile,
        cfg: FleetConfig,
    ) -> Result<Fleet<S>, String> {
        if shards.is_empty() {
            return Err("a fleet needs at least one shard".into());
        }
        if cfg.budget_ms.is_nan() || cfg.budget_ms <= 0.0 {
            return Err(format!("budget_ms must be positive (got {})", cfg.budget_ms));
        }
        if let Some(scaler) = &cfg.autoscale {
            scaler.validate()?;
        }
        let inner = Arc::new(FleetInner {
            ring: Mutex::new(HashRing::new(shards.len())),
            shards: shards
                .into_iter()
                .map(|shard| Member {
                    shard,
                    live: AtomicBool::new(true),
                    misses: AtomicU32::new(0),
                    last_stats: Mutex::new(None),
                    load: Arc::default(),
                })
                .collect(),
            scene_homes: Mutex::new(HashMap::new()),
            cost: Arc::new(CostModel::new(profile)),
            pulse: Arc::default(),
            counters: FleetCounters::new(&Scope::instance("fleet")),
            events: Mutex::new(Vec::new()),
            cfg,
            stop: Signal::default(),
        });
        let spawn = |name: &str, body: Box<dyn FnOnce() + Send>| {
            std::thread::Builder::new().name(name.into()).spawn(body).expect("spawn fleet loop")
        };
        let mut loops = vec![{
            let inner = inner.clone();
            spawn("asdr-fleet-health", Box::new(move || health_loop(&inner)))
        }];
        if let Some(scaler) = inner.cfg.autoscale.clone() {
            let (inner, started) = (inner.clone(), Instant::now());
            loops.push(spawn(
                "asdr-autoscaler",
                Box::new(move || scaler_loop(&inner, &scaler, started)),
            ));
        }
        Ok(Fleet { inner, loops: Mutex::new(loops) })
    }

    /// Shards the fleet was configured with (live or not).
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// Shards currently on the ring.
    pub fn live_shards(&self) -> usize {
        self.inner.live_ids().len()
    }

    /// The current routing ring (for tooling and tests).
    pub fn ring(&self) -> HashRing {
        self.inner.ring.lock().expect("ring lock poisoned").clone()
    }

    /// The shared cost model.
    pub fn cost_model(&self) -> &Arc<CostModel> {
        &self.inner.cost
    }

    /// A shard's current worker target (0 when it cannot be reached).
    pub fn shard_workers(&self, shard: usize) -> usize {
        self.inner.shards[shard]
            .shard
            .stats(self.inner.cfg.health_timeout)
            .map_or(0, |s| s.workers as usize)
    }

    /// Every shard, in ring-id order.
    pub(crate) fn each_shard(&self) -> impl Iterator<Item = &S> {
        self.inner.shards.iter().map(|m| &m.shard)
    }

    /// Submits a request to its home shard (spilling to the least-loaded
    /// live shard when the home is full or over budget), returning a
    /// ticket that owns hedging and failover.
    ///
    /// # Errors
    ///
    /// [`FleetError::Busy`] when every live shard is full or over budget;
    /// [`FleetError::Fatal`] when the request can never be admitted.
    pub fn submit(&self, mut req: RenderRequest) -> Result<FleetTicket<S>, FleetError> {
        // the router is the trace root: the id travels with the request
        // (across the wire for remote shards) and joins every span of it
        if asdr_obs::enabled() && !req.trace.is_set() {
            req.trace = TraceId::fresh();
        }
        let placed = self.inner.route(&req)?;
        asdr_obs::event!(req.trace, "remote-submit", format!("shard={}", placed.shard));
        Ok(FleetTicket {
            inner: self.inner.clone(),
            req,
            predicted_ms: placed.predicted_ms,
            state: Mutex::new(TicketState { primary: (placed.shard, placed.ticket), hedge: None }),
            hedged: AtomicBool::new(false),
            served_by: AtomicUsize::new(placed.shard),
        })
    }

    /// A statistics snapshot: fresh per-shard stats for live shards, the
    /// last known for dead ones (the work they completed before dying),
    /// routing and failure counters, scaling events, and the cost model.
    pub fn stats(&self) -> ClusterStats {
        let inner = &self.inner;
        let shards = inner
            .shards
            .iter()
            .enumerate()
            .map(|(id, m)| {
                let mut last = m.last_stats.lock().expect("stats cache poisoned");
                if m.live.load(Ordering::SeqCst) {
                    if let Ok(fresh) = m.shard.stats(inner.cfg.health_timeout) {
                        *last = Some(fresh);
                    }
                }
                let snap = last.clone().unwrap_or_default();
                let load = m.load.lock().expect("shard load poisoned");
                ShardStats {
                    shard: id,
                    workers: snap.workers as usize,
                    outstanding_ms: load.outstanding_ms,
                    spilled_in: load.spilled_in,
                    serve: snap.serve,
                }
            })
            .collect();
        let c = &inner.counters;
        ClusterStats {
            shards,
            routed_home: c.routed_home.get(),
            spilled: c.spilled.get(),
            rejected: c.rejected.get(),
            scale_events: inner.events.lock().expect("scale events poisoned").clone(),
            cost: inner.cost.stats(),
            fleet: FleetStats {
                shards_lost: (inner.shards.len() - inner.live_ids().len()) as u64,
                evictions: c.evictions.get(),
                rejoins: c.rejoins.get(),
                hedges: c.hedges.get(),
                hedge_wins: c.hedge_wins.get(),
                hedge_cancels: c.hedge_cancels.get(),
                failovers: c.failovers.get(),
                rewarms: c.rewarms.get(),
            },
        }
    }

    /// Stops the background loops, drains every live shard, and returns
    /// the final statistics.
    pub fn shutdown(&self) -> ClusterStats {
        self.stop_loops();
        // refresh every snapshot first: a drained remote shard may exit
        // before it answers again, leaving only this one
        self.stats();
        for m in &self.inner.shards {
            if m.live.load(Ordering::SeqCst) {
                m.shard.drain(Duration::from_secs(5));
            }
        }
        self.stats()
    }

    fn stop_loops(&self) {
        // the loops must never outlive the shards they probe and resize
        self.inner.stop.bump();
        for handle in self.loops.lock().expect("loop handles poisoned").drain(..) {
            handle.join().expect("fleet loop panicked");
        }
    }
}

impl<S: Shard> Drop for Fleet<S> {
    fn drop(&mut self) {
        self.stop_loops();
    }
}

impl<S: Shard> ReplayTarget for Fleet<S> {
    type Ticket = FleetTicket<S>;

    /// The fleet replays like a single service: a busy fleet blocks the
    /// replay clock, every other refusal is fatal.
    fn try_submit(&self, req: RenderRequest) -> SubmitOutcome<FleetTicket<S>> {
        match self.submit(req) {
            Ok(t) => SubmitOutcome::Admitted(t),
            Err(FleetError::Busy { .. }) => SubmitOutcome::Busy,
            Err(FleetError::Fatal(why)) => SubmitOutcome::Fatal(why),
        }
    }

    fn wait_capacity(&self, timeout: Duration) {
        self.inner.pulse.wait_change(timeout);
    }
}

struct TicketState<T> {
    primary: (usize, T),
    hedge: Option<(usize, T)>,
}

/// A routed submission's completion handle. [`FleetTicket::wait`] owns the
/// tail-tolerance machinery: hedging after the latency watermark,
/// immediate eviction + resubmission when the serving shard dies, and
/// first-response-wins arbitration between primary and hedge.
pub struct FleetTicket<S: Shard = RemoteShard> {
    inner: Arc<FleetInner<S>>,
    req: RenderRequest,
    predicted_ms: f64,
    state: Mutex<TicketState<S::Ticket>>,
    hedged: AtomicBool,
    served_by: AtomicUsize,
}

impl<S: Shard> fmt::Debug for FleetTicket<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetTicket")
            .field("shard", &self.shard())
            .field("predicted_ms", &self.predicted_ms)
            .finish_non_exhaustive()
    }
}

/// How long each arbitration poll waits once a hedge is in flight.
const HEDGE_POLL: Duration = Duration::from_millis(25);

/// How long a failover waits for a completion before retrying while every
/// live shard is busy.
const FAILOVER_RETRY: Duration = Duration::from_millis(20);

impl<S: Shard> FleetTicket<S> {
    /// The shard that served (or is currently serving) the request.
    pub fn shard(&self) -> usize {
        self.served_by.load(Ordering::SeqCst)
    }

    /// The cost model's prediction at admission, milliseconds.
    pub fn predicted_ms(&self) -> f64 {
        self.predicted_ms
    }

    /// Blocks until some shard completes the request.
    ///
    /// # Errors
    ///
    /// Returns a message when the request failed shard-side (render
    /// panic) or no live shard remains to serve it.
    pub fn wait(&self) -> Result<WireResult, String> {
        let wait_t0 = Instant::now();
        let counters = &self.inner.counters;
        loop {
            let (p_shard, p_ticket, hedge) = {
                let st = self.state.lock().expect("ticket state poisoned");
                (st.primary.0, st.primary.1.clone(), st.hedge.clone())
            };
            if let Some((h_shard, h_ticket)) = hedge {
                match p_ticket.wait_result(HEDGE_POLL) {
                    Ok(result) => {
                        h_ticket.cancel();
                        counters.hedge_cancels.inc();
                        return Ok(self.win(p_shard, result, wait_t0));
                    }
                    Err(ShardError::Timeout) => {}
                    Err(ShardError::Render(why)) => {
                        h_ticket.cancel();
                        return Err(why);
                    }
                    Err(e) => {
                        // primary died mid-request: the hedge is already the
                        // replacement — promote it
                        self.inner.evict(p_shard, &e.to_string());
                        counters.failovers.inc();
                        asdr_obs::event!(
                            self.req.trace,
                            "failover",
                            format!("from={p_shard} to={h_shard} promoted_hedge=true")
                        );
                        let mut st = self.state.lock().expect("ticket state poisoned");
                        st.primary = (h_shard, h_ticket.clone());
                        st.hedge = None;
                        continue;
                    }
                }
                match h_ticket.wait_result(HEDGE_POLL) {
                    Ok(result) => {
                        p_ticket.cancel();
                        counters.hedge_wins.inc();
                        counters.hedge_cancels.inc();
                        return Ok(self.win(h_shard, result, wait_t0));
                    }
                    Err(ShardError::Timeout) => {}
                    Err(e) => {
                        if matches!(e, ShardError::Connection(_)) {
                            self.inner.evict(h_shard, &e.to_string());
                        }
                        self.state.lock().expect("ticket state poisoned").hedge = None;
                    }
                }
                continue;
            }
            // no hedge yet: wait for the watermark (or in steady slices
            // once hedging is spent/disabled)
            let watermark = match self.inner.cfg.hedge_after {
                Some(after) if !self.hedged.load(Ordering::SeqCst) => after,
                _ => Duration::from_millis(500),
            };
            match p_ticket.wait_result(watermark) {
                Ok(result) => return Ok(self.win(p_shard, result, wait_t0)),
                Err(ShardError::Render(why)) => return Err(why),
                Err(ShardError::Timeout) => {
                    if self.inner.cfg.hedge_after.is_some()
                        && !self.hedged.swap(true, Ordering::SeqCst)
                    {
                        self.spawn_hedge(p_shard);
                    }
                }
                Err(e) => {
                    self.inner.evict(p_shard, &e.to_string());
                    self.resubmit()?;
                }
            }
        }
    }

    /// Submits the duplicate to another live shard with room for it.
    fn spawn_hedge(&self, primary_shard: usize) {
        if let Ok(p) = self.inner.place(&self.req, Some(primary_shard)) {
            self.inner.counters.hedges.inc();
            // the duplicate carries the same trace id, so the merged report
            // sees both shards' spans for this request
            asdr_obs::event!(self.req.trace, "hedge", format!("shard={}", p.shard));
            self.state.lock().expect("ticket state poisoned").hedge = Some((p.shard, p.ticket));
        }
    }

    /// Replaces a dead primary by routing the request again (the hedge
    /// path handles the has-hedge case). Rendering is deterministic, so the
    /// replacement's frames are byte-identical to what the dead shard
    /// would have produced.
    fn resubmit(&self) -> Result<(), String> {
        loop {
            match self.inner.route(&self.req) {
                Ok(p) => {
                    self.inner.counters.failovers.inc();
                    asdr_obs::event!(self.req.trace, "failover", format!("to={}", p.shard));
                    self.served_by.store(p.shard, Ordering::SeqCst);
                    let mut st = self.state.lock().expect("ticket state poisoned");
                    st.primary = (p.shard, p.ticket);
                    st.hedge = None;
                    return Ok(());
                }
                Err(FleetError::Busy { .. }) => self.inner.pulse.wait_change(FAILOVER_RETRY),
                Err(FleetError::Fatal(why)) => {
                    return Err(format!("request lost its shard and cannot be replaced: {why}"))
                }
            }
        }
    }

    fn win(&self, shard: usize, result: WireResult, wait_t0: Instant) -> WireResult {
        self.served_by.store(shard, Ordering::SeqCst);
        asdr_obs::span!(
            self.req.trace,
            "remote-wait",
            wait_t0,
            Instant::now(),
            format!("shard={shard}")
        );
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_hash_is_stable_and_avalanches() {
        assert_eq!(ring_hash(b"Mic"), ring_hash(b"Mic"));
        assert_ne!(ring_hash(b"Mic"), ring_hash(b"Lego"));
        // the finalizer must spread common-prefix strings across the whole
        // u64 range (raw FNV fails this and empties shards)
        let top_byte =
            |s: &str| (ring_hash(s.as_bytes()) >> 56) as u8 >> 6 /* top 2 bits: 4 buckets */;
        let mut buckets = [0usize; 4];
        for i in 0..256 {
            buckets[top_byte(&format!("scene-{i}")) as usize] += 1;
        }
        assert!(buckets.iter().all(|&c| c > 16), "prefix clustering: {buckets:?}");
    }

    #[test]
    fn ring_routes_every_name_to_a_live_shard() {
        let ring = HashRing::new(3);
        assert_eq!(ring.len(), 3);
        for name in ["Mic", "Lego", "Pulse", "Chair", "Palace", "weird scene/name"] {
            assert!(ring.home(name) < 3);
            // deterministic
            assert_eq!(ring.home(name), ring.home(name));
        }
    }

    #[test]
    fn ring_spreads_shards_reasonably() {
        let ring = HashRing::new(4);
        let mut counts = [0usize; 4];
        for i in 0..1000 {
            counts[ring.home(&format!("scene-{i}"))] += 1;
        }
        for (shard, &c) in counts.iter().enumerate() {
            assert!(c > 100, "shard {shard} got {c}/1000 — ring badly unbalanced: {counts:?}");
        }
    }

    #[test]
    fn removing_a_shard_only_remaps_its_scenes() {
        let ring = HashRing::new(3);
        let reduced = ring.without(1);
        assert_eq!(reduced.len(), 2);
        for i in 0..500 {
            let name = format!("scene-{i}");
            let before = ring.home(&name);
            let after = reduced.home(&name);
            if before != 1 {
                assert_eq!(before, after, "{name} moved although its shard survived");
            } else {
                assert_ne!(after, 1, "{name} must leave the removed shard");
            }
        }
    }

    #[test]
    fn shard_load_reserve_release_round_trips() {
        let mut load = ShardLoad::default();
        load.reserve(100.0);
        load.reserve(60.0); // prediction drifted between submits
        assert_eq!(load.outstanding_ms, 160.0);
        load.release(100.0);
        assert_eq!(load.outstanding_ms, 60.0);
        load.reserve(0.1);
        load.release(60.0);
        load.release(0.1);
        assert_eq!(load.outstanding_ms, 0.0, "an empty book reads exactly idle");
        // a stray release must not underflow
        load.release(5.0);
        assert_eq!((load.outstanding, load.outstanding_ms), (0, 0.0));
    }

    #[test]
    fn errors_render_with_context() {
        let e = ShardError::Refused { retryable: true, why: "admission queue full".into() };
        assert!(e.to_string().contains("retryable"));
        assert_eq!(ShardError::Timeout.to_string(), "timed out");
        let busy = FleetError::Busy { predicted_ms: 12.0, budget_ms: 10.0 };
        assert!(busy.to_string().starts_with("every live shard is full"), "{busy}");
        assert_eq!(FleetError::Fatal("x".into()).to_string(), "x");
    }
}
