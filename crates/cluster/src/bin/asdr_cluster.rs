//! `asdr-cluster` — replays a workload trace through the fleet router,
//! over in-process shards or (`--remote`) `asdr-shardd` processes, and
//! reports cluster statistics.
//!
//! ```text
//! asdr-cluster (--workload FILE | --trace FILE | --synthetic SPEC)
//!              [--shards N] [--scale tiny|small|paper]
//!              [--workers N | --autoscale MIN:MAX] [--budget-ms X]
//!              [--store-dir DIR | --no-store] [--queue N]
//!              [--remote (spawn:N | ADDR[,ADDR...])] [--hedge-ms X]
//!              [--speed X] [--record PATH]
//!              [--out STATS.json] [--dump-images DIR] [--bundle DIR]
//! ```
//!
//! Every routing flag applies to both kinds of shard: the budget, the
//! autoscaler, and hedging (off by default in-process, 2 s remote).
//!
//! With `--bundle DIR` the process writes its own diagnostic run bundle
//! to `DIR/cluster` (config snapshot, span capture, periodic stats
//! samples, final stats) and — under `--remote spawn:N` — hands each
//! spawned daemon `DIR/shard<i>` for its bundle, so one flag yields the
//! whole fleet's bundle tree for `asdr-trace report --bundles DIR`.
//!
//! The trace inputs are `asdr-serve`'s (see `asdr_serve::trace`); the
//! submit loop is the same shared [`ReplayDriver`](asdr_serve::ReplayDriver)
//! — an overloaded cluster blocks the replay clock rather than dropping
//! work, `--speed` warps arrival offsets, and `--record` captures every
//! admitted request as a binary trace. The process waits for every
//! ticket, prints a per-request table (including which shard served it)
//! plus a machine-readable `TRACE_RESULT` line, and writes the
//! [`ClusterStats`](asdr_cluster::ClusterStats) JSON to `--out` — the
//! artifact the nightly `cluster-smoke` job uploads and greps for zero
//! duplicate fits (`"total_fits"` equals the workload's distinct scene
//! count cold, zero warm).

use asdr_cluster::{
    AutoscalerConfig, Fleet, FleetConfig, LocalFleet, RemoteFleet, Shard, ShardAddr,
};
use asdr_serve::flags::{self, die, positive_usize, value, ReplayFlags};
use asdr_serve::{ModelStore, RenderProfile, RenderService};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    replay: ReplayFlags,
    profile: RenderProfile,
    scale: String,
    shards: usize,
    workers: usize,
    autoscale: Option<(usize, usize)>,
    budget_ms: Option<f64>,
    store_dir: Option<PathBuf>,
    no_store: bool,
    queue: usize,
    remote: Option<String>,
    hedge_ms: Option<f64>,
    out: Option<PathBuf>,
    dump_images: Option<PathBuf>,
    bundle: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: asdr-cluster (--workload FILE | --trace FILE | --synthetic SPEC)\n\
         \u{20}                   [--shards N] [--scale tiny|small|paper]\n\
         \u{20}                   [--workers N | --autoscale MIN:MAX] [--budget-ms X]\n\
         \u{20}                   [--store-dir DIR | --no-store] [--queue N]\n\
         \u{20}                   [--remote (spawn:N | ADDR[,ADDR...])] [--hedge-ms X]\n\
         \u{20}                   [--speed X] [--record PATH]\n\
         \u{20}                   [--out STATS.json] [--dump-images DIR] [--bundle DIR]\n\
         \n\
         --remote runs the workload against asdr-shardd processes instead of\n\
         in-process shards: spawn:N launches N local daemons on Unix sockets;\n\
         a comma-separated list attaches to already-running shards\n\
         (unix:PATH or tcp:HOST:PORT)."
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        replay: ReplayFlags::default(),
        profile: RenderProfile::tiny(),
        scale: "tiny".to_string(),
        shards: 2,
        workers: 1,
        autoscale: None,
        budget_ms: None,
        store_dir: None,
        no_store: false,
        queue: 64,
        remote: None,
        hedge_ms: None,
        out: None,
        dump_images: None,
        bundle: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        if !args.replay.accept(&argv, &mut i) {
            match argv[i].as_str() {
                "--scale" => {
                    let name = value(&argv, &mut i);
                    args.profile = RenderProfile::parse(&name)
                        .unwrap_or_else(|| die(&format!("unknown scale {name:?}")));
                    args.scale = name.to_ascii_lowercase();
                }
                "--shards" => args.shards = positive_usize("--shards", &value(&argv, &mut i)),
                "--workers" => args.workers = positive_usize("--workers", &value(&argv, &mut i)),
                "--autoscale" => {
                    let spec = value(&argv, &mut i);
                    let (min, max) = spec
                        .split_once(':')
                        .unwrap_or_else(|| die("--autoscale needs MIN:MAX (e.g. 1:4)"));
                    args.autoscale = Some((
                        positive_usize("--autoscale MIN", min),
                        positive_usize("--autoscale MAX", max),
                    ));
                }
                "--budget-ms" => {
                    args.budget_ms =
                        Some(flags::positive_f64("--budget-ms", &value(&argv, &mut i)));
                }
                "--store-dir" => args.store_dir = Some(PathBuf::from(value(&argv, &mut i))),
                "--no-store" => args.no_store = true,
                "--queue" => args.queue = positive_usize("--queue", &value(&argv, &mut i)),
                "--remote" => args.remote = Some(value(&argv, &mut i)),
                "--hedge-ms" => {
                    args.hedge_ms = Some(flags::positive_f64("--hedge-ms", &value(&argv, &mut i)));
                }
                "--out" => args.out = Some(PathBuf::from(value(&argv, &mut i))),
                "--dump-images" => args.dump_images = Some(PathBuf::from(value(&argv, &mut i))),
                "--bundle" => args.bundle = Some(PathBuf::from(value(&argv, &mut i))),
                "-h" | "--help" => usage(),
                other => die(&format!("unknown argument {other:?} (see --help)")),
            }
        }
        i += 1;
    }
    if args.replay.input.is_none() {
        usage();
    }
    if args.no_store && args.store_dir.is_some() {
        die("--no-store and --store-dir are mutually exclusive");
    }
    args
}

/// Launches `n` local `asdr-shardd` processes (the binary next to this
/// one) on Unix sockets in a fresh temp dir, waiting for each to accept.
fn spawn_shardds(n: usize, args: &Args) -> (Vec<std::process::Child>, Vec<ShardAddr>) {
    let exe = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("asdr-shardd")))
        .unwrap_or_else(|| die("cannot locate asdr-shardd next to asdr-cluster"));
    let dir = std::env::temp_dir().join(format!("asdr-fleet-{}", std::process::id()));
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", dir.display())));
    let mut children = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for i in 0..n {
        let sock = dir.join(format!("shard{i}.sock"));
        let addr = ShardAddr::Unix(sock.clone());
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("--listen")
            .arg(format!("unix:{}", sock.display()))
            .arg("--scale")
            .arg(&args.scale)
            .arg("--workers")
            .arg(args.autoscale.map_or(args.workers, |(min, _)| min).to_string())
            .arg("--queue")
            .arg(args.queue.to_string())
            .arg("--shard-id")
            .arg(i.to_string())
            .stdout(std::process::Stdio::null());
        if let Some(bundle_root) = &args.bundle {
            // each daemon gets its own bundle dir under the shared root,
            // which is what the merged report walks
            cmd.arg("--bundle").arg(bundle_root.join(format!("shard{i}")));
        }
        if let Some(store) = &args.store_dir {
            cmd.arg("--store-dir").arg(store);
        } else if args.no_store {
            cmd.arg("--no-store");
        }
        let child =
            cmd.spawn().unwrap_or_else(|e| die(&format!("cannot spawn {}: {e}", exe.display())));
        children.push(child);
        addrs.push(addr);
    }
    // readiness: a successful connect means the daemon is accepting
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    for addr in &addrs {
        loop {
            match addr.connect() {
                Ok(_) => break,
                Err(_) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) => {
                    // never leave half a fleet running behind a failed start
                    for child in &mut children {
                        let _ = child.kill();
                        let _ = child.wait();
                    }
                    die(&format!("shard at {addr} never came up: {e}"));
                }
            }
        }
    }
    (children, addrs)
}

/// Replays the workload through `fleet`, waits for every ticket, and
/// reports: the per-request table, the stats summary, the `TRACE_RESULT`
/// line, and the `--out`/bundle artifacts.
fn replay_and_report<S: Shard>(
    args: &Args,
    bundle: Option<&Arc<asdr_obs::Bundle>>,
    fleet: &Fleet<S>,
    shape: &str,
    source: &mut dyn asdr_serve::TraceSource,
    input_name: &str,
) {
    println!(
        "# asdr-cluster: {} requests over {} shards ({shape}), store {}",
        source.len_hint().map_or_else(|| "streamed".to_string(), |n| n.to_string()),
        fleet.shards(),
        args.store_dir.as_ref().map_or("in-memory".to_string(), |d| d.display().to_string()),
    );
    let driver = args.replay.driver(args.profile.clone());
    if let Some(b) = bundle {
        b.stage("replaying");
    }
    let replay = driver.run(source, fleet).unwrap_or_else(|e| die(&format!("{input_name}: {e}")));
    if replay.requests.is_empty() {
        die("trace holds no requests");
    }

    let mut measurements = flags::ReplayMeasurements::default();
    let mut last_sample = std::time::Instant::now();
    println!("| req | scene | shard | frames | queue ms | latency ms | deadline |");
    println!("|---|---|---|---|---|---|---|");
    for req in &replay.requests {
        let r = req
            .ticket
            .wait()
            .unwrap_or_else(|e| die(&format!("request {} ({}): {e}", req.index, req.scene)));
        println!(
            "| {} | {} | {} | {} | {:.1} | {:.1} | {} |",
            req.index,
            req.scene,
            req.ticket.shard(),
            r.images.len(),
            r.queue_wait_us as f64 / 1e3,
            r.latency_us as f64 / 1e3,
            match r.deadline_met {
                Some(true) => "met",
                Some(false) => "MISSED",
                None => "-",
            },
        );
        measurements.push(req.window, req.deadlined, r.deadline_met == Some(false), r.images.len());
        if let Some(dir) = &args.dump_images {
            flags::dump_frames(dir, req.index, &r.images);
        }
        if let Some(b) = bundle {
            if last_sample.elapsed() >= Duration::from_secs(1) {
                last_sample = std::time::Instant::now();
                b.stats_sample("replay", &fleet.stats().to_json());
            }
        }
    }
    let wall = replay.started.elapsed();

    if let Some(b) = bundle {
        b.stage("shutdown");
    }
    let stats = fleet.shutdown();
    println!(
        "\n{} requests, {} frames over {} shards ({} home, {} spilled, {} rejected)",
        stats.requests(),
        stats.frames(),
        stats.shards.len(),
        stats.routed_home,
        stats.spilled,
        stats.rejected,
    );
    let fl = &stats.fleet;
    println!(
        "fleet: {} evictions, {} rejoins, {} hedges ({} won, {} cancelled), {} failovers, {} re-warms",
        fl.evictions, fl.rejoins, fl.hedges, fl.hedge_wins, fl.hedge_cancels, fl.failovers, fl.rewarms,
    );
    for s in &stats.shards {
        println!(
            "shard {}: {} workers, {} req, {:.2} fps, p50 {:.1} ms / p95 {:.1} ms, {} fits, {} disk hits",
            s.shard,
            s.workers,
            s.serve.requests,
            s.serve.throughput_fps,
            s.serve.p50_latency_ms,
            s.serve.p95_latency_ms,
            s.serve.store.fits,
            s.serve.store.disk_hits,
        );
    }
    println!(
        "fits: {} total ({} lock waits, {} lock steals) — cost model {:.0}% mean abs error over {} observations",
        stats.total_fits(),
        stats.lock_waits(),
        stats.lock_steals(),
        stats.cost.mean_abs_pct_error * 100.0,
        stats.cost.observations,
    );
    if stats.deadlined_requests() > 0 {
        println!(
            "deadlines: {}/{} missed ({:.0}%)",
            stats.deadline_misses(),
            stats.deadlined_requests(),
            stats.miss_rate() * 100.0
        );
    }
    if !stats.scale_events.is_empty() {
        println!("scaling: {} events", stats.scale_events.len());
        for e in &stats.scale_events {
            println!(
                "  t+{} ms shard {}: {} -> {} workers ({}, window miss rate {:.0}%)",
                e.at_ms,
                e.shard,
                e.from,
                e.to,
                e.reason.as_str(),
                e.miss_rate * 100.0
            );
        }
    }
    println!(
        "{}",
        measurements.trace_result_line(wall, replay.plan.as_ref()).unwrap_or_else(|e| die(&e))
    );
    if let Some(out) = &args.out {
        if let Some(parent) = out.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(out, stats.to_json())
            .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", out.display())));
        println!("stats written to {}", out.display());
    }
    if let Some(b) = bundle {
        b.finish(Some(&stats.to_json()));
    }
}

/// Waits for spawned daemons (asked to drain by the fleet's shutdown) to
/// exit on their own, killing any that outstay the grace period.
fn reap(children: &mut [std::process::Child]) {
    for child in children {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break;
                }
            }
        }
    }
}

fn main() {
    let args = parse_args();
    let bundle = args.bundle.as_ref().map(|root| {
        let config = [
            ("scale", args.scale.clone()),
            ("shards", args.shards.to_string()),
            ("workers", args.workers.to_string()),
            ("remote", args.remote.clone().unwrap_or_else(|| "in-process".to_string())),
        ];
        let b = asdr_obs::Bundle::create(&root.join("cluster"), "cluster", &config)
            .unwrap_or_else(|e| die(&format!("cannot create bundle {}: {e}", root.display())));
        b.activate();
        b
    });
    let input = args.replay.input.clone().expect("checked in parse_args");
    let mut source = input.open().unwrap_or_else(|e| die(&e));
    if source.len_hint() == Some(0) {
        die("workload file holds no requests");
    }
    let mut cfg = if args.remote.is_some() { FleetConfig::default() } else { FleetConfig::local() };
    if let Some(ms) = args.hedge_ms {
        cfg.hedge_after = Some(Duration::from_secs_f64(ms / 1e3));
    }
    if let Some(ms) = args.budget_ms {
        cfg.budget_ms = ms;
    }
    cfg.autoscale = args.autoscale.map(|(min, max)| AutoscalerConfig {
        workers_min: min,
        workers_max: max,
        ..AutoscalerConfig::default()
    });
    let pool = match args.autoscale {
        Some((min, max)) => format!("autoscale {min}:{max} workers/shard"),
        None => format!("{} workers/shard", args.workers),
    };
    let (bundle, name) = (bundle.as_ref(), input.describe());
    match &args.remote {
        Some(spec) => {
            let (mut children, addrs) = match spec.strip_prefix("spawn:") {
                Some(n) => spawn_shardds(positive_usize("--remote spawn", n), &args),
                None => {
                    let addrs = spec
                        .split(',')
                        .map(|s| ShardAddr::parse(s.trim()).unwrap_or_else(|e| die(&e)))
                        .collect();
                    (Vec::new(), addrs)
                }
            };
            let shape = addrs.iter().map(|a| a.to_string()).collect::<Vec<_>>().join(", ");
            let fleet =
                RemoteFleet::connect(addrs, args.profile.clone(), cfg).unwrap_or_else(|e| die(&e));
            replay_and_report(&args, bundle, &fleet, &shape, source.as_mut(), &name);
            reap(&mut children);
        }
        None => {
            // one store per shard over the shared directory: the lock
            // files deduplicate fits across shards as across processes
            let service = || {
                let mut store = ModelStore::builder();
                if let Some(dir) = &args.store_dir {
                    store = store.dir(dir);
                } else if args.no_store {
                    store = store.in_memory_only();
                }
                RenderService::builder(args.profile.clone())
                    .store(Arc::new(store.build()))
                    .workers(args.workers)
                    .queue_capacity(args.queue)
            };
            let fleet = LocalFleet::local(args.shards, service, cfg).unwrap_or_else(|e| die(&e));
            replay_and_report(&args, bundle, &fleet, &pool, source.as_mut(), &name);
        }
    }
}
