//! Adapter over the service layer: a `RenderService` with a fresh in-memory
//! model store, its requests, and the completion times it reports through
//! its completion hook.

use crate::adapter::engine;
use crate::sched::View;
use asdr_obs::TraceId;
use asdr_serve::{
    Completion, ModelStore, RenderRequest, RenderService, RenderTicket, ServeError, ServeStats,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-frame azimuth advance of multi-frame requests, degrees.
pub const AZIMUTH_STEP_DEG: f32 = 1.5;

/// Probe refresh period of multi-frame requests. Set explicitly so the
/// byte-identity reference renders under the same plan policy.
pub const PLAN_REFRESH_EVERY: usize = 3;

/// Completion instants by request id, stamped by the service's completion
/// hook the moment before each ticket fills.
type DoneTimes = Arc<Mutex<HashMap<u64, Instant>>>;

/// A running service.
pub struct Service {
    service: RenderService,
    done: DoneTimes,
}

impl Service {
    /// Builds a service with `workers` workers over a fresh in-memory store.
    ///
    /// # Errors
    ///
    /// The service builder's validation message.
    pub fn start(workers: usize) -> Result<Service, String> {
        let done: DoneTimes = Arc::default();
        let stamps = done.clone();
        let service = RenderService::builder(engine::profile())
            .workers(workers)
            .store(Arc::new(ModelStore::builder().in_memory_only().build()))
            .exec_policy(engine::EXEC_POLICY)
            .plan_refresh_every(PLAN_REFRESH_EVERY)
            .on_complete(Arc::new(move |c: &Completion<'_>| {
                if let Some(r) = c.result {
                    let now = Instant::now();
                    stamps
                        .lock()
                        .expect("completion map lock poisoned")
                        .insert(r.trace.as_u64(), now);
                }
            }))
            .build()?;
        Ok(Service { service, done })
    }

    /// Fits (or finds) `scene`'s model in the service's store.
    pub fn prewarm(&self, scene: &str) {
        let handle = asdr_scenes::registry::handle(scene);
        self.service.store().get_or_fit(&handle, &self.service.profile().grid);
    }

    /// Submits request `id` (non-zero, unique per service).
    ///
    /// # Errors
    ///
    /// The service's refusal.
    pub fn submit(&self, id: u64, req: RenderRequest) -> Result<RenderTicket, ServeError> {
        self.service.submit(req.with_trace(TraceId::from_u64(id)))
    }

    /// When request `id` completed, if it has.
    pub fn done_at(&self, id: u64) -> Option<Instant> {
        self.done.lock().expect("completion map lock poisoned").get(&id).copied()
    }

    /// The service's statistics snapshot.
    pub fn stats(&self) -> ServeStats {
        self.service.stats()
    }

    /// Drains and joins the workers.
    pub fn shutdown(self) {
        self.service.shutdown();
    }
}

/// A request for `view` at `resolution` with `frames` frames and a latency
/// limit carried as its deadline.
pub fn request(view: &View, resolution: u32, frames: usize, limit: Duration) -> RenderRequest {
    let handle = asdr_scenes::registry::handle(view.scene_name());
    let mut orbit = handle.def().camera_orbit();
    orbit.azimuth_deg = view.azimuth_deg;
    let mut req =
        RenderRequest::sequence(handle, resolution, frames).with_camera(orbit).with_deadline(limit);
    req.azimuth_step_deg = AZIMUTH_STEP_DEG;
    req
}
