//! Adapter over the render engine layer: model fits, cameras, and
//! `FrameEngine` frames and sequences, plus the counting `RadianceModel`
//! wrapper the traced `frame` run measures the model layer with.

use crate::sched::View;
use asdr_core::algo::{
    ExecPolicy, FrameEngine, PlanPolicy, RenderOptions, RenderOutput, SequenceFrame,
};
use asdr_math::{Aabb, Camera, Image, Rgb, Vec3};
use asdr_nerf::model::RadianceModel;
use asdr_nerf::NgpModel;
use asdr_serve::RenderProfile;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The deployment profile every workload renders under (the `tiny` grid).
pub fn profile() -> RenderProfile {
    RenderProfile::tiny()
}

/// Phase-II policy of the `frame` workload and of the service's workers
/// (the service's own default tile size).
pub const EXEC_POLICY: ExecPolicy = ExecPolicy::TileStealing { tile_size: 16 };

/// Sample count of the quality reference: fixed-count Instant-NGP rendering.
pub const REFERENCE_SAMPLES: usize = 48;

/// Fits `scene` on the profile's grid, cold.
pub fn fit(scene: &str) -> NgpModel {
    let handle = asdr_scenes::registry::handle(scene);
    asdr_nerf::fit::fit_ngp(handle.build().as_ref(), &profile().grid)
}

/// The camera of frame `i` of a view's orbit, advancing `step_deg` per
/// frame — the same orbit the service renders for a request with this
/// azimuth and step.
pub fn camera(view: &View, resolution: u32, i: usize, step_deg: f32) -> Camera {
    let mut orbit = asdr_scenes::registry::handle(view.scene_name()).def().camera_orbit();
    orbit.azimuth_deg = view.azimuth_deg;
    orbit.azimuth_deg += i as f32 * step_deg;
    orbit.camera(resolution, resolution)
}

/// The ASDR render options for `resolution`-pixel square frames.
pub fn asdr_options(resolution: u32) -> RenderOptions {
    profile().options_for(resolution)
}

/// The fixed-count Instant-NGP options the quality reference renders with.
pub fn reference_options() -> RenderOptions {
    RenderOptions::instant_ngp(REFERENCE_SAMPLES)
}

/// A `FrameEngine` session: validated options plus an execution policy,
/// auto worker count.
#[derive(Debug, Clone)]
pub struct Engine {
    engine: FrameEngine,
}

impl Engine {
    /// An engine rendering with `opts` under `policy`.
    pub fn new(opts: RenderOptions, policy: ExecPolicy) -> Engine {
        Engine { engine: FrameEngine::new(opts, policy).expect("benchmark options are valid") }
    }

    /// One frame.
    pub fn frame<M: RadianceModel + Sync>(&self, model: &M, cam: &Camera) -> RenderOutput {
        self.engine.render_frame(model, cam)
    }

    /// A sequence's images under plan reuse every `refresh_every` frames.
    pub fn sequence(&self, model: &NgpModel, cams: &[Camera], refresh_every: usize) -> Vec<Image> {
        let frames: Vec<_> = cams.iter().map(|c| SequenceFrame::new(model, c.clone())).collect();
        self.engine
            .render_sequence(&frames, &PlanPolicy::Reuse { refresh_every })
            .expect("a non-empty sequence under a valid policy")
            .frames
            .into_iter()
            .map(|f| f.image)
            .collect()
    }
}

/// Model-layer counters of a traced run, summed over every query thread.
#[derive(Debug, Default)]
pub struct QueryTotals {
    density_calls: AtomicU64,
    empty_density_calls: AtomicU64,
    color_calls: AtomicU64,
    density_ns: AtomicU64,
    color_ns: AtomicU64,
}

/// A snapshot of [`QueryTotals`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCounts {
    /// Density queries.
    pub density_calls: u64,
    /// Density queries at points the occupancy grid marks empty.
    pub empty_density_calls: u64,
    /// Color queries.
    pub color_calls: u64,
    /// Time inside density queries, ns summed over threads.
    pub density_ns: u64,
    /// Time inside color queries, ns summed over threads.
    pub color_ns: u64,
}

impl QueryTotals {
    /// The counts so far.
    pub fn snapshot(&self) -> QueryCounts {
        QueryCounts {
            density_calls: self.density_calls.load(Ordering::Relaxed),
            empty_density_calls: self.empty_density_calls.load(Ordering::Relaxed),
            color_calls: self.color_calls.load(Ordering::Relaxed),
            density_ns: self.density_ns.load(Ordering::Relaxed),
            color_ns: self.color_ns.load(Ordering::Relaxed),
        }
    }
}

impl QueryCounts {
    /// Counts accumulated since `earlier`.
    pub fn since(&self, earlier: &QueryCounts) -> QueryCounts {
        QueryCounts {
            density_calls: self.density_calls - earlier.density_calls,
            empty_density_calls: self.empty_density_calls - earlier.empty_density_calls,
            color_calls: self.color_calls - earlier.color_calls,
            density_ns: self.density_ns - earlier.density_ns,
            color_ns: self.color_ns - earlier.color_ns,
        }
    }
}

/// Counts and times every query into an [`NgpModel`] from outside it. Counts
/// gather in the per-thread scratch and fold into the shared totals when
/// the scratch is dropped, so query threads never share a counter.
#[derive(Debug, Clone, Copy)]
pub struct Counted<'a> {
    model: &'a NgpModel,
    totals: &'a QueryTotals,
}

impl<'a> Counted<'a> {
    /// Wraps `model`, accumulating into `totals`.
    pub fn new(model: &'a NgpModel, totals: &'a QueryTotals) -> Counted<'a> {
        Counted { model, totals }
    }
}

/// Per-thread scratch of [`Counted`]: the model's own scratch plus local
/// counts.
pub struct CountedScratch<'a> {
    inner: asdr_nerf::model::Scratch,
    local: QueryCounts,
    totals: &'a QueryTotals,
}

impl Drop for CountedScratch<'_> {
    fn drop(&mut self) {
        let (l, t) = (&self.local, self.totals);
        t.density_calls.fetch_add(l.density_calls, Ordering::Relaxed);
        t.empty_density_calls.fetch_add(l.empty_density_calls, Ordering::Relaxed);
        t.color_calls.fetch_add(l.color_calls, Ordering::Relaxed);
        t.density_ns.fetch_add(l.density_ns, Ordering::Relaxed);
        t.color_ns.fetch_add(l.color_ns, Ordering::Relaxed);
    }
}

impl<'a> RadianceModel for Counted<'a> {
    type Scratch = CountedScratch<'a>;

    fn make_query_scratch(&self) -> CountedScratch<'a> {
        CountedScratch {
            inner: self.model.make_query_scratch(),
            local: QueryCounts::default(),
            totals: self.totals,
        }
    }

    fn model_bounds(&self) -> Aabb {
        self.model.model_bounds()
    }

    fn density_into(&self, p_world: Vec3, scratch: &mut CountedScratch<'a>) -> f32 {
        let t0 = Instant::now();
        let sigma = self.model.density_into(p_world, &mut scratch.inner);
        scratch.local.density_ns += t0.elapsed().as_nanos() as u64;
        scratch.local.density_calls += 1;
        if !self.model.is_occupied(p_world) {
            scratch.local.empty_density_calls += 1;
        }
        sigma
    }

    fn color_into(&self, view_dir: Vec3, scratch: &mut CountedScratch<'a>) -> Rgb {
        let t0 = Instant::now();
        let rgb = self.model.color_into(view_dir, &mut scratch.inner);
        scratch.local.color_ns += t0.elapsed().as_nanos() as u64;
        scratch.local.color_calls += 1;
        rgb
    }

    fn stage_flops(&self) -> (u64, u64, u64) {
        self.model.stage_flops()
    }
}

/// Whether two images have the same size and bit-identical pixels.
pub fn same_bytes(a: &Image, b: &Image) -> bool {
    let bits = |p: &Rgb| [p.r.to_bits(), p.g.to_bits(), p.b.to_bits()];
    a.width() == b.width()
        && a.height() == b.height()
        && a.pixels().iter().zip(b.pixels()).all(|(x, y)| bits(x) == bits(y))
}
