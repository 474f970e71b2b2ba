//! The metric catalogue: every end-to-end and per-layer metric with its unit,
//! and for each per-layer metric the end-to-end metric and workload it is
//! predicted to move. `run.py` checks the emitted names and units against
//! `BENCHMARK.json`.

use crate::report::Metrics;

/// End-to-end metrics: (name, unit, better).
pub const END_TO_END: [(&str, &str, &str); 8] = [
    ("lat_ms_p50", "ms", "lower"),
    ("lat_ms_p95", "ms", "lower"),
    ("slo_frac", "ratio", "higher"),
    ("throughput_rps", "1/s", "higher"),
    ("cpu_ms_per_req", "ms", "lower"),
    ("psnr_db", "dB", "higher"),
    ("setup_s", "s", "lower"),
    ("rss_peak_mb", "MiB", "lower"),
];

/// Per-layer metrics: (name, unit, the end-to-end metric and workload it
/// should move).
pub const PER_LAYER: [(&str, &str, &str); 42] = [
    ("nerf.density_calls", "count", "lat_ms_p50 on frame, cpu_ms_per_req on serve"),
    ("nerf.color_calls", "count", "lat_ms_p50 on frame, cpu_ms_per_req on serve"),
    ("nerf.empty_density_frac", "ratio", "lat_ms_p50 on frame, cpu_ms_per_req on serve"),
    ("nerf.density_ns", "ns", "lat_ms_p50 on frame"),
    ("nerf.color_ns", "ns", "lat_ms_p50 on frame"),
    ("nerf.query_cpu_ms", "ms", "lat_ms_p50 on frame"),
    ("nerf.fit_ms", "ms", "setup_s on all workloads"),
    ("core.probe_ms", "ms", "lat_ms_p50 on frame; barely lat_ms_p50 on serve"),
    ("core.phase2_ms", "ms", "lat_ms_p50 on frame"),
    ("core.other_cpu_ms", "ms", "lat_ms_p50 on frame"),
    ("core.cpu_util", "ratio", "lat_ms_p50 on frame"),
    ("core.probe_points", "count", "none: op counts repeat exactly"),
    ("core.density_points", "count", "none: op counts repeat exactly"),
    ("core.color_points", "count", "none: op counts repeat exactly"),
    ("core.interpolated_points", "count", "none: op counts repeat exactly"),
    ("core.planned_points", "count", "none: op counts repeat exactly"),
    ("serve.submit_us", "us", "lat_ms_p95 on serve"),
    ("serve.queue_ms_p50", "ms", "lat_ms_p95 on serve"),
    ("serve.queue_ms_p95", "ms", "lat_ms_p95 on serve"),
    ("serve.service_ms_p50", "ms", "lat_ms_p95 on serve"),
    ("serve.service_ms_p95", "ms", "lat_ms_p95 on serve"),
    ("serve.batch_mean", "ratio", "cpu_ms_per_req on serve"),
    ("serve.reuse_frac", "ratio", "cpu_ms_per_req on serve"),
    ("serve.refused", "count", "slo_frac on serve"),
    ("store.fits", "count", "setup_s on serve"),
    ("store.hit_rate", "ratio", "setup_s on serve"),
    ("store.disk_hits", "count", "setup_s on serve"),
    ("gen.late_ms_p95", "ms", "none: validity check of the open loop"),
    ("fleet.submit_us", "us", "lat_ms_p50 on fleet"),
    ("fleet.wire_ms_p50", "ms", "lat_ms_p50 on fleet"),
    ("fleet.wire_ms_p95", "ms", "lat_ms_p50 on fleet"),
    ("fleet.shard_queue_ms_p95", "ms", "lat_ms_p95 on fleet"),
    ("fleet.shard_service_ms_p50", "ms", "lat_ms_p50 on fleet"),
    ("fleet.imbalance", "ratio", "throughput_rps on fleet"),
    ("fleet.spilled", "count", "throughput_rps on fleet"),
    ("fleet.hedges", "count", "slo_frac on fleet"),
    ("fleet.failovers", "count", "slo_frac on fleet"),
    ("fleet.evictions", "count", "slo_frac on fleet"),
    ("obs.overhead_pct", "%", "none: cost of tracing, traced over untraced lat_ms_p50"),
    ("obs.store_ms_p50", "ms", "lat_ms_p50 on serve and fleet"),
    ("obs.probe_ms_p50", "ms", "lat_ms_p50 on serve and fleet"),
    ("obs.render_ms_p50", "ms", "lat_ms_p50 on serve and fleet"),
];

/// Orders `measured` by `catalogue`, giving each catalogue metric the
/// workload does not measure the value 0 and a note saying so. Returns the
/// names `measured` holds that are not in the catalogue or carry another
/// unit.
pub fn complete(
    measured: &Metrics,
    catalogue: &[(&'static str, &'static str, &'static str)],
    workload: &str,
) -> (Metrics, Vec<String>) {
    let mut out = Metrics::default();
    for &(name, unit, _) in catalogue {
        match measured.0.iter().find(|m| m.name == name) {
            Some(m) => out.0.push(m.clone()),
            None => out.add(name, 0.0, unit, format!("not measured on {workload}")),
        }
    }
    let stray = measured
        .0
        .iter()
        .filter(|m| !catalogue.iter().any(|&(n, u, _)| n == m.name && u == m.unit))
        .map(|m| format!("{} [{}]", m.name, m.unit))
        .collect();
    (out, stray)
}

/// The prediction recorded for a per-layer metric.
pub fn prediction(name: &str) -> &'static str {
    PER_LAYER.iter().find(|&&(n, _, _)| n == name).map_or("", |&(_, _, p)| p)
}
