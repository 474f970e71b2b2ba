//! `fleet`: `asdr-shardd` daemons behind a `RemoteFleet`, loaded by a closed
//! loop of client threads sending small single frames with a skewed scene
//! mix. Consistent-hash homing under skew, the wire and shard queueing set
//! the tail while the small frames keep the render share low.

use crate::adapter::fleet::{self, Fleet, FleetSpec};
use crate::adapter::service;
use crate::report::Metrics;
use crate::sched::{ClientStream, View, SCENES};
use crate::stats::{self, median, tail};
use crate::sys;
use crate::trace::Tracer;
use crate::workload::refs::References;
use crate::workload::{
    obs_phases, overhead_pct, repeated_setup, report_obs_phases, RunArgs, RunResult,
};
use asdr_cluster::wire::WireResult;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Square frame size, pixels.
pub const RESOLUTION: u32 = 16;
/// Daemons in the fleet.
pub const SHARDS: usize = 2;
/// Render workers per daemon.
pub const WORKERS_PER_SHARD: usize = 1;
/// Pooled connections per shard.
pub const CONNECTIONS_PER_SHARD: usize = 1;
/// Closed-loop client threads.
pub const CLIENTS: u64 = 2;
/// Zipf exponent of the scene mix.
pub const ZIPF_S: f64 = 1.2;
/// Latency limit, carried as each request's deadline, ms.
pub const LIMIT_MS: f64 = 250.0;

/// One attempted request.
struct Sent {
    view: View,
    submit_us: f64,
    outcome: Result<Done, String>,
}

/// A completed request.
struct Done {
    latency_ms: f64,
    shard: usize,
    result: WireResult,
}

struct Pass {
    sent: Vec<Sent>,
    wall_s: f64,
    cpu_s: f64,
    rss_peak_mb: f64,
    stats: asdr_cluster::ClusterStats,
}

impl Pass {
    fn latencies(&self) -> Vec<f64> {
        self.sent.iter().filter_map(|s| s.outcome.as_ref().ok().map(|d| d.latency_ms)).collect()
    }

    fn completed(&self) -> usize {
        self.sent.iter().filter(|s| s.outcome.is_ok()).count()
    }
}

/// Spawns a fleet and warms every scene with one request through it.
fn setup(args: &RunArgs, dir: &std::path::Path, bundles: bool) -> Result<Fleet, String> {
    let f = Fleet::spawn(&FleetSpec {
        shardd: &args.shardd,
        dir,
        shards: SHARDS,
        workers_per_shard: WORKERS_PER_SHARD,
        connections_per_shard: CONNECTIONS_PER_SHARD,
        bundles,
    })?;
    let limit = Duration::from_secs(60);
    for scene in 0..SCENES.len() {
        let view = View { scene, azimuth_deg: 0.0 };
        let ticket =
            f.submit(service::request(&view, RESOLUTION, 1, limit)).map_err(|e| e.to_string())?;
        ticket.wait()?;
    }
    Ok(f)
}

fn pass(f: &Fleet, seed: u64, seconds: f64, tracer: &Tracer) -> Pass {
    let limit = Duration::from_secs_f64(LIMIT_MS / 1e3);
    let cpu0 = sys::cpu_s(None).unwrap_or(0.0) + f.daemon_cpu_s();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let sent = Mutex::new(Vec::new());
    let last_done = Mutex::new(start);
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (sent, last_done) = (&sent, &last_done);
            scope.spawn(move || {
                let mut mine = Vec::new();
                let mut latest = start;
                for (i, view) in ClientStream::new(seed, client, ZIPF_S).enumerate() {
                    let issued = Instant::now();
                    if issued >= end {
                        break;
                    }
                    let req_id = (client << 32) | (i as u64 + 1);
                    let req = service::request(&view, RESOLUTION, 1, limit);
                    let submitted = f.submit(req);
                    let s1 = Instant::now();
                    let submit_us = (s1 - issued).as_secs_f64() * 1e6;
                    let outcome = match submitted {
                        Err(e) => Err(format!("refused: {e}")),
                        Ok(ticket) => match ticket.wait() {
                            Err(e) => Err(format!("failed: {e}")),
                            Ok(result) => {
                                let done = Instant::now();
                                latest = latest.max(done);
                                let sub = tracer.record("fleet.submit", issued, s1, None, req_id);
                                let wait = tracer.record("fleet.wait", s1, done, None, req_id);
                                let req = tracer.record("request", issued, done, None, req_id);
                                tracer.adopt(req, &[sub, wait]);
                                let latency_ms = (done - issued).as_secs_f64() * 1e3;
                                Ok(Done { latency_ms, shard: ticket.shard(), result })
                            }
                        },
                    };
                    mine.push(Sent { view, submit_us, outcome });
                }
                sent.lock().expect("result list lock poisoned").extend(mine);
                let mut l = last_done.lock().expect("clock lock poisoned");
                *l = (*l).max(latest);
            });
        }
    });
    let cpu_s = sys::cpu_s(None).unwrap_or(0.0) + f.daemon_cpu_s() - cpu0;
    let rss_peak_mb = sys::rss_peak_mb(None).unwrap_or(0.0) + f.daemon_rss_peak_mb();
    let wall_s =
        last_done.into_inner().expect("clock lock poisoned").duration_since(start).as_secs_f64();
    let sent = sent.into_inner().expect("result list lock poisoned");
    Pass { sent, wall_s, cpu_s, rss_peak_mb, stats: f.stats() }
}

/// Runs the `fleet` workload.
///
/// # Errors
///
/// A daemon failed to start, or the warm-up requests failed.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    println!(
        "workload fleet: closed loop, {CLIENTS} clients, {SHARDS} asdr-shardd x {WORKERS_PER_SHARD} worker, \
         {CONNECTIONS_PER_SHARD} connection/shard, {RESOLUTION}x{RESOLUTION} frames, Zipf({ZIPF_S}) scenes, \
         limit {LIMIT_MS} ms"
    );
    let dir = args.work_dir.join(format!("fleet-{}", std::process::id()));
    let (plain_fleet, setup_s) =
        repeated_setup(|| setup(args, &dir.join("plain"), false), Fleet::shutdown)?;
    let mut res = RunResult::default();
    let plain = pass(&plain_fleet, args.seed, args.pass_seconds(), &Tracer::new(false));
    plain_fleet.shutdown();
    let untraced_p50 = median(&plain.latencies()).map_or(0.0, |p| p.value);
    let traced_dir = dir.join("traced");
    let traced = if args.trace {
        // a fresh fleet whose daemons record their own spans into bundles,
        // so the untraced pass ran on daemons with capture off
        let traced_fleet = setup(args, &traced_dir, true)?;
        let tracer = Tracer::new(true);
        asdr_obs::set_enabled(true);
        let p = pass(&traced_fleet, args.seed, args.pass_seconds(), &tracer);
        asdr_obs::set_enabled(false);
        traced_fleet.shutdown();
        Some((p, tracer))
    } else {
        None
    };

    let requests = plain.sent.iter().chain(traced.iter().flat_map(|(p, _)| &p.sent));
    let refs = References::build(requests.map(|s| (s.view, 1)), RESOLUTION);
    let quality = check(&mut res, "untraced pass", &plain, &refs);
    e2e_metrics(&mut res.e2e, &plain, &quality, setup_s);
    if let Some((p, tracer)) = &traced {
        check(&mut res, "traced pass", p, &refs);
        res.layers = layer_metrics(p, untraced_p50);
        let ids: std::collections::HashSet<u64> = p
            .sent
            .iter()
            .filter_map(|s| s.outcome.as_ref().ok().map(|d| d.result.trace.as_u64()))
            .collect();
        let mut spans = Vec::new();
        for shard in 0..SHARDS {
            let (parsed, _) =
                asdr_obs::report::load_bundles(&fleet::bundle_dir(&traced_dir, shard))?;
            spans.extend(
                parsed.into_iter().filter(|s| ids.contains(&s.trace)).map(|s| (s.phase, s.dur_us)),
            );
        }
        report_obs_phases(&obs_phases(spans), &mut res.layers);
        reconcile(p, &res.layers);
        crate::print_span_totals(tracer, args, "fleet");
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(res)
}

fn e2e_metrics(m: &mut Metrics, p: &Pass, quality: &[f64], setup_s: f64) {
    let lat = p.latencies();
    let done = p.completed() as f64;
    let outcomes: Vec<Option<f64>> =
        p.sent.iter().map(|s| s.outcome.as_ref().ok().map(|d| d.latency_ms)).collect();
    m.pct("lat_ms_p50", median(&lat), "ms");
    m.pct("lat_ms_p95", tail(&lat, 95.0), "ms");
    m.add(
        "slo_frac",
        stats::within_limit_frac(&outcomes, LIMIT_MS),
        "ratio",
        format!("of {} attempted, limit {LIMIT_MS} ms", outcomes.len()),
    );
    m.add("throughput_rps", done / p.wall_s, "1/s", format!("{done} completed"));
    m.add("cpu_ms_per_req", p.cpu_s * 1e3 / done, "ms", format!("n={done}, client + daemons"));
    m.add("psnr_db", stats::mean(quality), "dB", format!("mean of {} requests", quality.len()));
    m.add("setup_s", setup_s, "s", format!("median of {} set-ups", crate::workload::SETUP_REPS));
    m.add("rss_peak_mb", p.rss_peak_mb, "MiB", "client + daemons");
}

fn layer_metrics(p: &Pass, untraced_p50: f64) -> Metrics {
    let mut m = Metrics::default();
    let ok: Vec<&Done> = p.sent.iter().filter_map(|s| s.outcome.as_ref().ok()).collect();
    let submit: Vec<f64> = p.sent.iter().map(|s| s.submit_us).collect();
    let wire: Vec<f64> =
        ok.iter().map(|d| d.latency_ms - d.result.latency_us as f64 / 1e3).collect();
    let queue: Vec<f64> = ok.iter().map(|d| d.result.queue_wait_us as f64 / 1e3).collect();
    let service: Vec<f64> = ok
        .iter()
        .map(|d| d.result.latency_us.saturating_sub(d.result.queue_wait_us) as f64 / 1e3)
        .collect();
    let mut per_shard = vec![0usize; SHARDS];
    for d in &ok {
        per_shard[d.shard] += 1;
    }
    let busiest = per_shard.iter().copied().max().unwrap_or(0) as f64;
    let mean = ok.len() as f64 / SHARDS as f64;
    m.pct("fleet.submit_us", median(&submit), "us");
    m.pct("fleet.wire_ms_p50", median(&wire), "ms");
    m.pct("fleet.wire_ms_p95", tail(&wire, 95.0), "ms");
    m.pct("fleet.shard_queue_ms_p95", tail(&queue, 95.0), "ms");
    m.pct("fleet.shard_service_ms_p50", median(&service), "ms");
    m.add(
        "fleet.imbalance",
        busiest / mean.max(1.0),
        "ratio",
        format!("requests per shard {per_shard:?}"),
    );
    let s = &p.stats;
    m.add("fleet.spilled", s.spilled as f64, "count", format!("{} routed home", s.routed_home));
    m.add("fleet.hedges", s.fleet.hedges as f64, "count", "");
    m.add("fleet.failovers", s.fleet.failovers as f64, "count", "");
    m.add("fleet.evictions", s.fleet.evictions as f64, "count", "");
    let traced_p50 = median(&p.latencies()).map_or(0.0, |x| x.value);
    m.add(
        "obs.overhead_pct",
        overhead_pct(untraced_p50, traced_p50),
        "%",
        format!("traced p50 {traced_p50:.3} ms vs untraced {untraced_p50:.3} ms"),
    );
    m
}

/// Prints how submit, wire, shard queue and shard service add up to the
/// client latency.
fn reconcile(p: &Pass, m: &Metrics) {
    let ok: Vec<&Done> = p.sent.iter().filter_map(|s| s.outcome.as_ref().ok()).collect();
    let queue: Vec<f64> = ok.iter().map(|d| d.result.queue_wait_us as f64 / 1e3).collect();
    let queue50 = median(&queue).map_or(0.0, |x| x.value);
    let lat = median(&p.latencies()).map_or(0.0, |x| x.value);
    let g = |n| m.get(n).unwrap_or(0.0);
    let sum = g("fleet.wire_ms_p50") + queue50 + g("fleet.shard_service_ms_p50");
    println!(
        "RECONCILE fleet: fleet.wire_ms_p50 {:.3} (includes submit {:.3}) + shard queue p50 {queue50:.3} + \
         fleet.shard_service_ms_p50 {:.3} = {sum:.3} ms vs traced lat_ms_p50 {lat:.3} ms ({:.1}%)",
        g("fleet.wire_ms_p50"),
        g("fleet.submit_us") / 1e3,
        g("fleet.shard_service_ms_p50"),
        100.0 * sum / lat
    );
}

/// Checks every returned frame against a direct engine render of the same
/// view; returns each completed request's PSNR.
fn check(res: &mut RunResult, pass: &str, p: &Pass, refs: &References) -> Vec<f64> {
    let done = p.completed();
    res.count(pass, p.sent.len(), done, p.sent.len() - done);
    let mut quality = Vec::with_capacity(done);
    for s in &p.sent {
        let Ok(d) = &s.outcome else { continue };
        let (same, psnr) = refs.check(&s.view, 1, &d.result.images);
        res.checks.check(same, || {
            format!(
                "{pass}: {} az {} differs from a direct FrameEngine render",
                s.view.scene_name(),
                s.view.azimuth_deg
            )
        });
        quality.push(psnr);
    }
    quality
}
