//! In-process shards: [`LocalShard`] is a [`RenderService`] over its own
//! [`ModelStore`](asdr_serve::ModelStore), driven by the same router as
//! remote shards — and served over the wire by each `asdr-shardd`.
//!
//! Give each shard a **separate store over one checkpoint directory** —
//! the same topology as N independent processes — so the store's
//! cross-process lock-file single-flight is exercised even in-process, and
//! a spilled request warms from the home shard's checkpoint instead of
//! refitting.

use crate::router::{Done, Fleet, FleetConfig, Shard, ShardError, ShardTicket};
use crate::wire::{WireResult, WireStats};
use asdr_serve::service::RenderServiceBuilder;
use asdr_serve::{
    Completion, RenderRequest, RenderResult, RenderService, RenderTicket, ServeError,
};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The router over in-process shards.
pub type LocalFleet = Fleet<LocalShard>;

impl Fleet<LocalShard> {
    /// Builds `shards` (>= 1) shards, each from a fresh `service()`
    /// builder, and starts the router. With [`FleetConfig::autoscale`] set,
    /// every shard starts at its `workers_min`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the violated constraint if a service or
    /// the router configuration fails validation.
    pub fn local(
        shards: usize,
        service: impl Fn() -> RenderServiceBuilder,
        cfg: FleetConfig,
    ) -> Result<LocalFleet, String> {
        let shards = (0..shards.max(1))
            .map(|_| {
                let builder = service();
                LocalShard::new(match &cfg.autoscale {
                    Some(scaler) => builder.workers(scaler.workers_min),
                    None => builder,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let profile = shards[0].service.profile().clone();
        Fleet::new(shards, &profile, cfg)
    }

    /// Unparks every shard's worker pool (no-op when already running).
    pub fn start(&self) {
        for shard in self.each_shard() {
            shard.service.start();
        }
    }
}

/// Submissions awaiting their completion hook, FIFO per (scene,
/// resolution, frames) — the identity a [`Completion`] carries.
type Pending = HashMap<(String, u32, usize), VecDeque<Done>>;

fn take(pending: &mut Pending, key: &(String, u32, usize), back: bool) -> Option<Done> {
    let queue = pending.get_mut(key)?;
    let done = if back { queue.pop_back() } else { queue.pop_front() };
    if queue.is_empty() {
        pending.remove(key);
    }
    done
}

/// An in-process shard: one [`RenderService`] over its own store.
pub struct LocalShard {
    service: RenderService,
    pending: Arc<Mutex<Pending>>,
}

impl fmt::Display for LocalShard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("in-process")
    }
}

impl LocalShard {
    /// Builds the shard's service from `service`, whose completion hook
    /// the shard takes over.
    ///
    /// # Errors
    ///
    /// Returns the service builder's validation message.
    pub fn new(service: RenderServiceBuilder) -> Result<Self, String> {
        let pending: Arc<Mutex<Pending>> = Arc::default();
        let hook = {
            let pending = pending.clone();
            Arc::new(move |c: &Completion<'_>| {
                let key = (c.scene.to_string(), c.resolution, c.frames);
                let done = take(&mut pending.lock().expect("pending map poisoned"), &key, false);
                if let Some(done) = done {
                    done(
                        c.result
                            .map(|r| r.latency.saturating_sub(r.queue_wait).as_secs_f64() * 1e3),
                    );
                }
            })
        };
        Ok(LocalShard { service: service.on_complete(hook).build()?, pending })
    }

    /// The shard's service.
    pub fn service(&self) -> &RenderService {
        &self.service
    }
}

impl Shard for LocalShard {
    type Ticket = LocalTicket;

    fn submit(
        &self,
        req: &RenderRequest,
        _admit_timeout: Duration,
        done: Done,
    ) -> Result<LocalTicket, ShardError> {
        let key = (req.scene.name().to_string(), req.resolution, req.frames);
        // queue `done` before the request can complete, and hold the map so
        // a refusal takes back exactly this submission's entry
        let mut pending = self.pending.lock().expect("pending map poisoned");
        pending.entry(key.clone()).or_default().push_back(done);
        let refusal = match self.service.submit(req.clone()) {
            Ok(ticket) => return Ok(LocalTicket(ticket)),
            Err(e @ (ServeError::QueueFull { .. } | ServeError::ShuttingDown)) => {
                ShardError::Refused { retryable: true, why: e.to_string() }
            }
            Err(e) => ShardError::Refused { retryable: false, why: e.to_string() },
        };
        let done = take(&mut pending, &key, true);
        drop(pending);
        if let Some(done) = done {
            done(None);
        }
        Err(refusal)
    }

    fn health(&self, _timeout: Duration) -> Result<(), ShardError> {
        Ok(())
    }

    fn stats(&self, _timeout: Duration) -> Result<WireStats, ShardError> {
        Ok(WireStats {
            workers: self.service.workers() as u64,
            queue_len: self.service.queue_len() as u64,
            serve: self.service.stats(),
        })
    }

    fn prewarm(&self, scene: &str, _timeout: Duration) -> Result<bool, ShardError> {
        let Some(handle) = asdr_scenes::registry::get(scene) else { return Ok(false) };
        self.service.store().get_or_fit(&handle, &self.service.profile().grid);
        Ok(true)
    }

    fn drain(&self, _timeout: Duration) {
        self.service.drain();
    }

    fn set_workers(&self, workers: usize, _timeout: Duration) -> Result<usize, ShardError> {
        Ok(self.service.set_workers(workers))
    }
}

/// A local submission's completion handle.
#[derive(Debug, Clone)]
pub struct LocalTicket(RenderTicket);

fn to_wire(outcome: Result<Arc<RenderResult>, ServeError>) -> Result<WireResult, ShardError> {
    outcome.map(|r| WireResult::from_result(&r)).map_err(|e| ShardError::Render(e.to_string()))
}

impl LocalTicket {
    /// Blocks until the render completes or fails.
    ///
    /// # Errors
    ///
    /// [`ShardError::Render`] when the fit or render panicked.
    pub fn wait(&self) -> Result<WireResult, ShardError> {
        to_wire(self.0.wait())
    }
}

impl ShardTicket for LocalTicket {
    fn wait_result(&self, timeout: Duration) -> Result<WireResult, ShardError> {
        self.0.wait_timeout(timeout).map_or(Err(ShardError::Timeout), to_wire)
    }

    /// A queued render cannot be withdrawn; its result is simply dropped.
    fn cancel(&self) {}
}
