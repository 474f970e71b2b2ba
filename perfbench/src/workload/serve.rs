//! `serve`: an open loop of Poisson arrivals into one `RenderService`.
//! Queueing, batching (riders), store lookups and plan reuse sit in the
//! latency path and share the CPUs with rendering, so a render speed-up that
//! wins on `frame` should show less here.

use crate::adapter::service::{self, Service};
use crate::report::Metrics;
use crate::sched::{self, Arrival, SCENES};
use crate::stats::{self, median, tail};
use crate::sys;
use crate::trace::Tracer;
use crate::workload::refs::References;
use crate::workload::{
    obs_phases, overhead_pct, repeated_setup, report_obs_phases, secs_since, RunArgs, RunResult,
};
use asdr_serve::{RenderResult, ServeStats};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Square frame size, pixels. 8×8 rather than `frame`'s 32×32: a request
/// then costs about a quarter of a 16×16 one's CPU, so at the same
/// utilization a run holds four times as many requests (1080 in 30 s). The
/// latency tail is set by the costliest sequences; with 16×16 frames only
/// about 13 requests lay beyond the p95, and which ones changed from run to
/// run.
pub const RESOLUTION: u32 = 8;
/// Render workers of the service.
pub const WORKERS: usize = 2;
/// Zipf exponent of the scene mix.
pub const ZIPF_S: f64 = 1.0;
/// Share of requests that are orbit sequences (the rest single frames).
pub const SEQ_SHARE: f64 = 0.25;
/// Frames per orbit sequence.
pub const SEQ_FRAMES: usize = 4;
/// Poisson arrival rate: about a fifth of the ~190 req/s this mix
/// saturates the service at on 2 CPUs (measured on the commit the
/// benchmark was defined on), and a quarter of the CPU. At 40–60% load the
/// queue amplified the host's run-to-run speed noise into latency spreads
/// of 20–65% across runs; at this load the tail is the sequences' own
/// service time plus Poisson bursts.
pub const RATE_RPS: f64 = 36.0;
/// Latency limit, carried as each request's deadline, ms (the same as
/// `fleet`'s).
pub const LIMIT_MS: f64 = 250.0;

/// Delay from the end of set-up to the first scheduled instant.
const LEAD: Duration = Duration::from_millis(20);

/// One attempted request.
struct Sent {
    arrival: Arrival,
    id: u64,
    due_s: f64,
    sent_s: f64,
    submit_us: f64,
    outcome: Result<Done, String>,
}

/// A completed request.
struct Done {
    latency_ms: f64,
    result: Arc<RenderResult>,
}

struct Pass {
    sent: Vec<Sent>,
    /// Seconds from the schedule start to the last completion.
    wall_s: f64,
    cpu_s: f64,
    rss_peak_mb: f64,
    before: ServeStats,
    after: ServeStats,
}

impl Pass {
    fn latencies(&self) -> Vec<f64> {
        self.sent.iter().filter_map(|s| s.outcome.as_ref().ok().map(|d| d.latency_ms)).collect()
    }

    fn completed(&self) -> usize {
        self.sent.iter().filter(|s| s.outcome.is_ok()).count()
    }
}

fn pass(svc: &Service, schedule: &[Arrival], pass_no: u64, tracer: &Tracer) -> Pass {
    let limit = Duration::from_secs_f64(LIMIT_MS / 1e3);
    let before = svc.stats();
    let cpu0 = sys::cpu_s(None).unwrap_or(0.0);
    let t0 = Instant::now() + LEAD;
    let mut pending = Vec::with_capacity(schedule.len());
    for (i, a) in schedule.iter().enumerate() {
        let due = t0 + Duration::from_secs_f64(a.at_s);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let id = (pass_no << 32) | (i as u64 + 1);
        let s0 = Instant::now();
        let ticket = svc.submit(id, service::request(&a.view, RESOLUTION, a.frames, limit));
        let s1 = Instant::now();
        pending.push((a, id, due, s0, s1, ticket));
    }
    let mut sent = Vec::with_capacity(pending.len());
    let mut last_done = t0;
    for (a, id, due, s0, s1, ticket) in pending {
        let outcome = match ticket {
            Err(e) => Err(format!("refused: {e}")),
            Ok(t) => match t.wait() {
                Err(e) => Err(format!("failed: {e}")),
                Ok(result) => match svc.done_at(id) {
                    None => Err("completed without a completion stamp".to_string()),
                    Some(done) => {
                        last_done = last_done.max(done);
                        let gen = tracer.record("gen.late", due, s0, None, id);
                        let submit = tracer.record("serve.submit", s0, s1, None, id);
                        let wait = tracer.record("serve.wait", s1, done, None, id);
                        let req = tracer.record("request", due, done, None, id);
                        tracer.adopt(req, &[gen, submit, wait]);
                        let latency_ms =
                            stats::latency_from_due_ms(secs_since(t0, due), secs_since(t0, done));
                        Ok(Done { latency_ms, result })
                    }
                },
            },
        };
        sent.push(Sent {
            arrival: *a,
            id,
            due_s: secs_since(t0, due),
            sent_s: secs_since(t0, s0),
            submit_us: (s1 - s0).as_secs_f64() * 1e6,
            outcome,
        });
    }
    let cpu_s = sys::cpu_s(None).unwrap_or(0.0) - cpu0;
    let rss_peak_mb = sys::rss_peak_mb(None).unwrap_or(0.0);
    let after = svc.stats();
    Pass { sent, wall_s: secs_since(t0, last_done), cpu_s, rss_peak_mb, before, after }
}

/// Runs the `serve` workload.
///
/// # Errors
///
/// The service failed to build.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let schedule = sched::serve_schedule(
        args.seed,
        args.pass_seconds(),
        RATE_RPS,
        ZIPF_S,
        SEQ_SHARE,
        SEQ_FRAMES,
    );
    println!(
        "workload serve: open loop, Poisson {RATE_RPS} req/s for {:.1} s ({} requests), {WORKERS} workers, \
         {RESOLUTION}x{RESOLUTION}, Zipf({ZIPF_S}) scenes, {:.0}% {SEQ_FRAMES}-frame sequences, limit {LIMIT_MS} ms",
        args.pass_seconds(),
        schedule.len(),
        SEQ_SHARE * 100.0
    );
    let mut fit_ms = Vec::new();
    let (svc, setup_s) = repeated_setup(
        || {
            let svc = Service::start(WORKERS)?;
            for scene in SCENES {
                let t0 = Instant::now();
                svc.prewarm(scene);
                fit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            Ok(svc)
        },
        Service::shutdown,
    )?;
    let mut res = RunResult::default();
    let plain = pass(&svc, &schedule, 1, &Tracer::new(false));
    let untraced_p50 = median(&plain.latencies()).map_or(0.0, |p| p.value);
    let traced = args.trace.then(|| {
        let tracer = Tracer::new(true);
        asdr_obs::span::clear();
        asdr_obs::set_enabled(true);
        let p = pass(&svc, &schedule, 2, &tracer);
        asdr_obs::set_enabled(false);
        (p, tracer)
    });
    svc.shutdown();

    let requests = plain.sent.iter().chain(traced.iter().flat_map(|(p, _)| &p.sent));
    let refs = References::build(requests.map(|s| (s.arrival.view, s.arrival.frames)), RESOLUTION);
    let quality = check(&mut res, "untraced pass", &plain, &refs);
    e2e_metrics(&mut res.e2e, &plain, &quality, setup_s);
    if let Some((p, tracer)) = &traced {
        check(&mut res, "traced pass", p, &refs);
        res.layers = layer_metrics(p, &fit_ms, untraced_p50);
        let ids: std::collections::HashSet<u64> = p.sent.iter().map(|s| s.id).collect();
        let spans = asdr_obs::span::snapshot()
            .into_iter()
            .filter(|s| ids.contains(&s.trace.as_u64()))
            .map(|s| (s.phase.to_string(), s.dur_us));
        report_obs_phases(&obs_phases(spans), &mut res.layers);
        reconcile(p, &res.layers);
        crate::print_span_totals(tracer, args, "serve");
    }
    Ok(res)
}

fn e2e_metrics(m: &mut Metrics, p: &Pass, quality: &[f64], setup_s: f64) {
    let lat = p.latencies();
    let done = p.completed() as f64;
    let outcomes: Vec<Option<f64>> =
        p.sent.iter().map(|s| s.outcome.as_ref().ok().map(|d| d.latency_ms)).collect();
    let late: Vec<f64> = p.sent.iter().map(|s| stats::lateness_ms(s.due_s, s.sent_s)).collect();
    m.pct("lat_ms_p50", median(&lat), "ms");
    m.pct("lat_ms_p95", tail(&lat, 95.0), "ms");
    m.add(
        "slo_frac",
        stats::within_limit_frac(&outcomes, LIMIT_MS),
        "ratio",
        format!("of {} attempted, limit {LIMIT_MS} ms", outcomes.len()),
    );
    m.add("throughput_rps", done / p.wall_s, "1/s", format!("{done} completed"));
    m.add("cpu_ms_per_req", p.cpu_s * 1e3 / done, "ms", format!("n={done}"));
    m.add("psnr_db", stats::mean(quality), "dB", format!("mean of {} requests", quality.len()));
    m.add("setup_s", setup_s, "s", format!("median of {} set-ups", crate::workload::SETUP_REPS));
    m.add("rss_peak_mb", p.rss_peak_mb, "MiB", "");
    let late_tail = tail(&late, 95.0).map_or(0.0, |t| t.value);
    println!("generator lateness (untraced pass): tail {late_tail:.3} ms");
}

fn layer_metrics(p: &Pass, fit_ms: &[f64], untraced_p50: f64) -> Metrics {
    let mut m = Metrics::default();
    let ok: Vec<&Done> = p.sent.iter().filter_map(|s| s.outcome.as_ref().ok()).collect();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let queue: Vec<f64> = ok.iter().map(|d| ms(d.result.queue_wait)).collect();
    let service: Vec<f64> =
        ok.iter().map(|d| ms(d.result.latency.saturating_sub(d.result.queue_wait))).collect();
    let submit: Vec<f64> = p.sent.iter().map(|s| s.submit_us).collect();
    let late: Vec<f64> = p.sent.iter().map(|s| stats::lateness_ms(s.due_s, s.sent_s)).collect();
    let (a, b) = (&p.after, &p.before);
    let lookups = a.store.lookups() - b.store.lookups();
    let frames = a.frames - b.frames;
    m.pct("serve.submit_us", median(&submit), "us");
    m.pct("serve.queue_ms_p50", median(&queue), "ms");
    m.pct("serve.queue_ms_p95", tail(&queue, 95.0), "ms");
    m.pct("serve.service_ms_p50", median(&service), "ms");
    m.pct("serve.service_ms_p95", tail(&service, 95.0), "ms");
    m.add(
        "serve.batch_mean",
        ok.len() as f64 / lookups.max(1) as f64,
        "ratio",
        format!("{} requests / {lookups} store lookups", ok.len()),
    );
    m.add(
        "serve.reuse_frac",
        (a.reused_frames - b.reused_frames) as f64 / frames.max(1) as f64,
        "ratio",
        format!("of {frames} frames"),
    );
    let refused =
        p.sent.iter().filter(|s| matches!(&s.outcome, Err(e) if e.starts_with("refused"))).count();
    m.add("serve.refused", refused as f64, "count", format!("of {} attempted", p.sent.len()));
    let hits =
        (a.store.memory_hits + a.store.disk_hits) - (b.store.memory_hits + b.store.disk_hits);
    m.add("store.fits", a.store.fits as f64, "count", "since the service was built (set-up)");
    m.add(
        "store.hit_rate",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
        format!("of the pass's {lookups} lookups"),
    );
    m.add("store.disk_hits", a.store.disk_hits as f64, "count", "in-memory store");
    m.pct("gen.late_ms_p95", tail(&late, 95.0), "ms");
    m.add(
        "nerf.fit_ms",
        stats::mean(fit_ms),
        "ms",
        format!("mean of {} prewarm fits", fit_ms.len()),
    );
    let mut agg = asdr_core::algo::RenderStats::default();
    let mut nframes = 0;
    for d in &ok {
        agg.accumulate(&d.result.stats);
        nframes += d.result.images.len();
    }
    let per = |n: u64| n as f64 / nframes.max(1) as f64;
    let note = format!("per frame over {nframes} served frames");
    m.add("core.probe_points", per(agg.probe_points), "count", note.clone());
    m.add("core.density_points", per(agg.density_points), "count", note.clone());
    m.add("core.color_points", per(agg.color_points), "count", note.clone());
    m.add("core.interpolated_points", per(agg.interpolated_points), "count", note.clone());
    m.add("core.planned_points", per(agg.planned_points), "count", note);
    let traced_p50 = median(&p.latencies()).map_or(0.0, |x| x.value);
    m.add(
        "obs.overhead_pct",
        overhead_pct(untraced_p50, traced_p50),
        "%",
        format!("traced p50 {traced_p50:.3} ms vs untraced {untraced_p50:.3} ms"),
    );
    m
}

/// Prints how generator lateness, submit, queue and service add up to the
/// latency from the due time.
fn reconcile(p: &Pass, m: &Metrics) {
    let lat = median(&p.latencies()).map_or(0.0, |x| x.value);
    let late: Vec<f64> = p.sent.iter().map(|s| stats::lateness_ms(s.due_s, s.sent_s)).collect();
    let late50 = median(&late).map_or(0.0, |x| x.value);
    let g = |n| m.get(n).unwrap_or(0.0);
    let sum =
        late50 + g("serve.submit_us") / 1e3 + g("serve.queue_ms_p50") + g("serve.service_ms_p50");
    println!(
        "RECONCILE serve: gen.late p50 {late50:.3} + serve.submit {:.3} + serve.queue_ms_p50 {:.3} + \
         serve.service_ms_p50 {:.3} = {sum:.3} ms vs traced lat_ms_p50 {lat:.3} ms ({:.1}%)",
        g("serve.submit_us") / 1e3,
        g("serve.queue_ms_p50"),
        g("serve.service_ms_p50"),
        100.0 * sum / lat
    );
}

/// Checks every served image against a direct engine render of the same
/// request; returns each completed request's first-frame PSNR.
fn check(res: &mut RunResult, pass: &str, p: &Pass, refs: &References) -> Vec<f64> {
    let done = p.completed();
    res.count(pass, p.sent.len(), done, p.sent.len() - done);
    let mut quality = Vec::with_capacity(done);
    for s in &p.sent {
        let Ok(d) = &s.outcome else { continue };
        let (same, psnr) = refs.check(&s.arrival.view, s.arrival.frames, &d.result.images);
        res.checks.check(same, || {
            format!(
                "{pass}: request {} ({} az {} x{}) differs from a direct FrameEngine render",
                s.id,
                s.arrival.view.scene_name(),
                s.arrival.view.azimuth_deg,
                s.arrival.frames
            )
        });
        quality.push(psnr);
    }
    quality
}
