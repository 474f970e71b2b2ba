//! `frame`: a closed loop with one client calling `FrameEngine::render_frame`
//! back to back over a seeded view set. The render pipeline does all the
//! work and no serving layer is involved, so Phase-I, empty-space and
//! per-query speed-ups show here first.

use crate::adapter::engine::{self, same_bytes, Counted, Engine, QueryCounts, QueryTotals};
use crate::report::Metrics;
use crate::sched::{self, View, SCENES};
use crate::stats::{self, median, tail};
use crate::sys;
use crate::trace::Tracer;
use crate::workload::refs::par_map;
use crate::workload::{overhead_pct, repeated_setup, RunArgs, RunResult};
use asdr_core::algo::{ExecPolicy, RenderOutput};
use asdr_math::{Camera, Image};
use asdr_nerf::model::RadianceModel;
use asdr_nerf::NgpModel;
use std::time::Instant;

/// Square frame size, pixels.
pub const RESOLUTION: u32 = 32;
/// Seeded azimuths per scene in the view set.
pub const VIEWS_PER_SCENE: usize = 4;
/// Per-frame latency limit behind `slo_frac`, ms.
pub const LIMIT_MS: f64 = 250.0;
/// Lowest acceptable PSNR of any view against the fixed-count reference.
pub const PSNR_FLOOR_DB: f64 = 20.0;

/// Fits every scene cold (recording each fit's ms) and renders one view
/// of each scene (the prewarm).
fn setup(engine: &Engine, views: &[View], cams: &[Camera], fit_ms: &mut Vec<f64>) -> Vec<NgpModel> {
    let mut models = Vec::with_capacity(SCENES.len());
    for scene in SCENES {
        let t0 = Instant::now();
        models.push(engine::fit(scene));
        fit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    for (v, cam) in views.iter().zip(cams).take(SCENES.len()) {
        std::hint::black_box(engine.frame(&models[v.scene], cam));
    }
    models
}

/// One measured pass.
struct Pass {
    lat_ms: Vec<f64>,
    probe_ms: Vec<f64>,
    phase2_ms: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
    rss_peak_mb: f64,
    /// The first render of each view.
    first: Vec<RenderOutput>,
    /// Frames whose image or stats differ from their view's first render.
    mismatched: usize,
    /// Model queries of the timed frames (traced pass only).
    queries: QueryCounts,
}

fn pass<M: RadianceModel + Sync>(
    engine: &Engine,
    models: &[M],
    views: &[View],
    cams: &[Camera],
    seconds: f64,
    tracer: &Tracer,
    totals: Option<&QueryTotals>,
) -> Pass {
    let mut first: Vec<Option<RenderOutput>> = vec![None; views.len()];
    let (mut lat_ms, mut probe_ms, mut phase2_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut mismatched = 0;
    let q0 = totals.map(QueryTotals::snapshot).unwrap_or_default();
    let cpu0 = sys::cpu_s(None).unwrap_or(0.0);
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || start.elapsed().as_secs_f64() < seconds {
        let v = i % views.len();
        let t0 = Instant::now();
        let out = engine.frame(&models[views[v].scene], &cams[v]);
        let t1 = Instant::now();
        tracer.record("engine.render_frame", t0, t1, None, i as u64 + 1);
        lat_ms.push((t1 - t0).as_secs_f64() * 1e3);
        probe_ms.push(out.timings.probe_s * 1e3);
        phase2_ms.push(out.timings.render_s * 1e3);
        match &first[v] {
            None => first[v] = Some(out),
            Some(f) => {
                if !same_bytes(&f.image, &out.image) || f.stats != out.stats {
                    mismatched += 1;
                }
            }
        }
        i += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_s(None).unwrap_or(0.0) - cpu0;
    let rss_peak_mb = sys::rss_peak_mb(None).unwrap_or(0.0);
    let queries = totals.map(|t| t.snapshot().since(&q0)).unwrap_or_default();
    // a short pass may not reach every view; render the rest untimed so
    // quality and op counts always cover the whole view set
    let first = first
        .into_iter()
        .enumerate()
        .map(|(v, f)| f.unwrap_or_else(|| engine.frame(&models[views[v].scene], &cams[v])))
        .collect();
    Pass { lat_ms, probe_ms, phase2_ms, wall_s, cpu_s, rss_peak_mb, first, mismatched, queries }
}

/// Runs the `frame` workload.
///
/// # Errors
///
/// Never in practice; set-up errors of other workloads share the signature.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let engine = Engine::new(engine::asdr_options(RESOLUTION), engine::EXEC_POLICY);
    let views = sched::frame_views(args.seed, VIEWS_PER_SCENE);
    let cams: Vec<Camera> = views.iter().map(|v| engine::camera(v, RESOLUTION, 0, 0.0)).collect();
    println!(
        "workload frame: closed loop, 1 client, {RESOLUTION}x{RESOLUTION}, {} views ({} per scene), \
         limit {LIMIT_MS} ms, {} CPUs",
        views.len(),
        VIEWS_PER_SCENE,
        sys::nproc()
    );
    let mut fit_ms = Vec::new();
    let (models, setup_s) =
        repeated_setup(|| Ok(setup(&engine, &views, &cams, &mut fit_ms)), drop)?;
    let mut res = RunResult::default();

    let untraced = Tracer::new(false);
    let plain = pass(&engine, &models, &views, &cams, args.pass_seconds(), &untraced, None);
    res.count("untraced pass", plain.lat_ms.len(), plain.lat_ms.len(), 0);
    let reference = Engine::new(engine::reference_options(), ExecPolicy::Sequential);
    let refs: Vec<Image> = par_map(&views.iter().zip(&cams).collect::<Vec<_>>(), |(v, cam)| {
        reference.frame(&models[v.scene], cam).image
    });
    let quality = check_outputs(&mut res, "untraced pass", &views, &refs, &plain);
    let lat_p50 = median(&plain.lat_ms);
    let frames = plain.lat_ms.len() as f64;
    let e2e = &mut res.e2e;
    e2e.pct("lat_ms_p50", lat_p50, "ms");
    e2e.pct("lat_ms_p95", tail(&plain.lat_ms, 95.0), "ms");
    let outcomes: Vec<Option<f64>> = plain.lat_ms.iter().map(|&l| Some(l)).collect();
    e2e.add(
        "slo_frac",
        stats::within_limit_frac(&outcomes, LIMIT_MS),
        "ratio",
        format!("n={frames}"),
    );
    e2e.add("throughput_rps", frames / plain.wall_s, "1/s", format!("{frames} frames"));
    e2e.add("cpu_ms_per_req", plain.cpu_s * 1e3 / frames, "ms", format!("n={frames}"));
    let worst = quality.iter().copied().fold(f64::INFINITY, f64::min);
    e2e.add(
        "psnr_db",
        stats::mean(&quality),
        "dB",
        format!("mean of {} views, min {worst:.2}", quality.len()),
    );
    e2e.add("setup_s", setup_s, "s", format!("median of {} set-ups", crate::workload::SETUP_REPS));
    e2e.add("rss_peak_mb", plain.rss_peak_mb, "MiB", "");

    if args.trace {
        let totals = QueryTotals::default();
        let counted: Vec<Counted<'_>> = models.iter().map(|m| Counted::new(m, &totals)).collect();
        let tracer = Tracer::new(true);
        let traced =
            pass(&engine, &counted, &views, &cams, args.pass_seconds(), &tracer, Some(&totals));
        res.count("traced pass", traced.lat_ms.len(), traced.lat_ms.len(), 0);
        for (v, (a, b)) in plain.first.iter().zip(&traced.first).enumerate() {
            res.checks.check(same_bytes(&a.image, &b.image) && a.stats == b.stats, || {
                format!("view {v}: the counted model changed the frame")
            });
        }
        check_outputs(&mut res, "traced pass", &views, &refs, &traced);
        res.layers = layer_metrics(&traced, &fit_ms, lat_p50.map_or(0.0, |p| p.value));
        reconcile(&traced, &res.layers);
        crate::print_span_totals(&tracer, args, "frame");
    }
    Ok(res)
}

/// Checks every view's first render and the determinism of the rest;
/// returns each view's PSNR against the fixed-count reference.
fn check_outputs(
    res: &mut RunResult,
    pass: &str,
    views: &[View],
    refs: &[Image],
    p: &Pass,
) -> Vec<f64> {
    res.checks.check(p.mismatched == 0, || {
        format!("{pass}: {} frames differ from their view's first render", p.mismatched)
    });
    let mut quality = Vec::with_capacity(views.len());
    for (v, out) in p.first.iter().enumerate() {
        let s = &out.stats;
        let pixels = u64::from(RESOLUTION * RESOLUTION);
        res.checks.check(
            s.rays == pixels
                && s.color_points <= s.density_points
                && s.density_points <= s.planned_points
                && s.planned_points <= s.base_points,
            || format!("{pass}: view {v}: RenderStats invariants broken: {s:?}"),
        );
        let db = asdr_math::metrics::psnr(&out.image, &refs[v]);
        res.checks.check(db.is_finite() && db >= PSNR_FLOOR_DB, || {
            format!(
                "{pass}: view {v} ({}): PSNR {db:.2} dB below {PSNR_FLOOR_DB}",
                views[v].scene_name()
            )
        });
        quality.push(db);
    }
    quality
}

fn layer_metrics(p: &Pass, fit_ms: &[f64], untraced_p50: f64) -> Metrics {
    let q = &p.queries;
    let frames = p.lat_ms.len() as f64;
    let views = p.first.len() as f64;
    let per = |n: u64| n as f64 / frames;
    let query_cpu_ms = (q.density_ns + q.color_ns) as f64 / 1e6 / frames;
    let cpu_ms = p.cpu_s * 1e3 / frames;
    let mut m = Metrics::default();
    let n = format!("per frame, n={frames}");
    m.add("nerf.density_calls", per(q.density_calls), "count", n.clone());
    m.add("nerf.color_calls", per(q.color_calls), "count", n.clone());
    m.add(
        "nerf.empty_density_frac",
        q.empty_density_calls as f64 / q.density_calls.max(1) as f64,
        "ratio",
        format!("{} of {} density calls", q.empty_density_calls, q.density_calls),
    );
    m.add("nerf.density_ns", q.density_ns as f64 / q.density_calls.max(1) as f64, "ns", "per call");
    m.add("nerf.color_ns", q.color_ns as f64 / q.color_calls.max(1) as f64, "ns", "per call");
    m.add("nerf.query_cpu_ms", query_cpu_ms, "ms", n.clone());
    m.add("nerf.fit_ms", stats::mean(fit_ms), "ms", format!("mean of {} fits", fit_ms.len()));
    m.pct("core.probe_ms", median(&p.probe_ms), "ms");
    m.pct("core.phase2_ms", median(&p.phase2_ms), "ms");
    m.add("core.other_cpu_ms", cpu_ms - query_cpu_ms, "ms", n);
    m.add(
        "core.cpu_util",
        p.cpu_s / (p.wall_s * sys::nproc() as f64),
        "ratio",
        format!("CPU / (wall x {} CPUs)", sys::nproc()),
    );
    let mean = |f: fn(&RenderOutput) -> u64| p.first.iter().map(f).sum::<u64>() as f64 / views;
    let vn = format!("per frame, mean of {views} views");
    m.add("core.probe_points", mean(|o| o.stats.probe_points), "count", vn.clone());
    m.add("core.density_points", mean(|o| o.stats.density_points), "count", vn.clone());
    m.add("core.color_points", mean(|o| o.stats.color_points), "count", vn.clone());
    m.add("core.interpolated_points", mean(|o| o.stats.interpolated_points), "count", vn.clone());
    m.add("core.planned_points", mean(|o| o.stats.planned_points), "count", vn);
    let traced_p50 = median(&p.lat_ms).map_or(0.0, |x| x.value);
    m.add(
        "obs.overhead_pct",
        overhead_pct(untraced_p50, traced_p50),
        "%",
        format!("traced p50 {traced_p50:.3} ms vs untraced {untraced_p50:.3} ms"),
    );
    m
}

/// Prints how the layer times add up to the frame latency and CPU.
fn reconcile(p: &Pass, m: &Metrics) {
    let g = |n| m.get(n).unwrap_or(0.0);
    let lat = median(&p.lat_ms).map_or(0.0, |x| x.value);
    let phases = g("core.probe_ms") + g("core.phase2_ms");
    println!(
        "RECONCILE frame: core.probe_ms {:.3} + core.phase2_ms {:.3} = {phases:.3} ms vs traced lat_ms_p50 {lat:.3} ms ({:.1}%)",
        g("core.probe_ms"),
        g("core.phase2_ms"),
        100.0 * phases / lat
    );
    println!(
        "RECONCILE frame CPU: nerf.query_cpu_ms {:.3} + core.other_cpu_ms {:.3} = {:.3} ms CPU per frame ({:.2} CPUs busy of {})",
        g("nerf.query_cpu_ms"),
        g("core.other_cpu_ms"),
        g("nerf.query_cpu_ms") + g("core.other_cpu_ms"),
        g("core.cpu_util") * sys::nproc() as f64,
        sys::nproc()
    );
}
