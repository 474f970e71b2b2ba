//! Adapter over the cluster layer: spawns fresh `asdr-shardd` daemons on
//! Unix sockets and fronts them with a `RemoteFleet`.

use crate::adapter::engine;
use crate::sys;
use asdr_cluster::{ClusterStats, FleetConfig, FleetError, FleetTicket, RemoteFleet, ShardAddr};
use asdr_serve::RenderRequest;
use std::io::BufRead as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a daemon may take to print its ready line.
const READY_TIMEOUT: Duration = Duration::from_secs(20);

/// How long a drained daemon may take to exit before it is killed.
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);

/// Environment variables that would leak host state into a daemon; they are
/// removed from every child's environment.
pub const SCRUBBED_ENV: [&str; 3] = ["ASDR_STORE_DIR", "ASDR_WORKERS", "ASDR_SERVE_WORKERS"];

struct Daemon {
    child: Child,
    /// Drains the daemon's stdout until it exits.
    stdout: Option<JoinHandle<()>>,
}

/// Daemons plus the fleet client in front of them.
pub struct Fleet {
    fleet: Option<RemoteFleet>,
    daemons: Vec<Daemon>,
}

/// Settings of one fleet.
#[derive(Debug, Clone)]
pub struct FleetSpec<'a> {
    /// The `asdr-shardd` executable.
    pub shardd: &'a Path,
    /// Directory for the sockets (and bundles); created if missing.
    pub dir: &'a Path,
    /// Daemons to spawn.
    pub shards: usize,
    /// Render workers per daemon.
    pub workers_per_shard: usize,
    /// Pooled connections per shard.
    pub connections_per_shard: usize,
    /// Whether each daemon writes an observability bundle under `dir`.
    pub bundles: bool,
}

impl Fleet {
    /// Spawns `spec.shards` daemons with in-memory stores and connects.
    ///
    /// # Errors
    ///
    /// A message naming the daemon that failed to start or connect; every
    /// daemon already spawned is stopped first.
    pub fn spawn(spec: &FleetSpec<'_>) -> Result<Fleet, String> {
        std::fs::create_dir_all(spec.dir)
            .map_err(|e| format!("cannot create {}: {e}", spec.dir.display()))?;
        let mut fleet = Fleet { fleet: None, daemons: Vec::new() };
        let mut addrs = Vec::new();
        for id in 0..spec.shards {
            let sock = spec.dir.join(format!("s{id}.sock"));
            let _ = std::fs::remove_file(&sock);
            let mut cmd = Command::new(spec.shardd);
            cmd.arg("--listen")
                .arg(format!("unix:{}", sock.display()))
                .args(["--workers", &spec.workers_per_shard.to_string()])
                .args(["--shard-id", &id.to_string()])
                .arg("--no-store")
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::null());
            if spec.bundles {
                cmd.arg("--bundle").arg(bundle_dir(spec.dir, id));
            }
            for var in SCRUBBED_ENV {
                cmd.env_remove(var);
            }
            let mut child =
                cmd.spawn().map_err(|e| format!("cannot spawn {}: {e}", spec.shardd.display()))?;
            let out = child.stdout.take().expect("stdout is piped");
            let (tx, rx) = mpsc::channel();
            let stdout = std::thread::spawn(move || {
                let mut lines = std::io::BufReader::new(out).lines();
                let _ = tx.send(lines.next());
                for _ in lines {}
            });
            fleet.daemons.push(Daemon { child, stdout: Some(stdout) });
            match rx.recv_timeout(READY_TIMEOUT) {
                Ok(Some(Ok(line))) if line.starts_with("SHARDD_READY") => {}
                other => return Err(format!("shard {id} did not become ready: {other:?}")),
            }
            addrs.push(ShardAddr::Unix(sock));
        }
        let cfg = FleetConfig {
            connections_per_shard: spec.connections_per_shard,
            ..FleetConfig::default()
        };
        fleet.fleet = Some(RemoteFleet::connect(addrs, engine::profile(), cfg)?);
        Ok(fleet)
    }

    fn client(&self) -> &RemoteFleet {
        self.fleet.as_ref().expect("connected in spawn")
    }

    /// Submits through the fleet's router.
    ///
    /// # Errors
    ///
    /// The fleet's refusal.
    pub fn submit(&self, req: RenderRequest) -> Result<FleetTicket, FleetError> {
        self.client().submit(req)
    }

    /// Routing, failure and per-shard statistics.
    pub fn stats(&self) -> ClusterStats {
        self.client().stats()
    }

    /// Summed CPU seconds of the live daemons.
    pub fn daemon_cpu_s(&self) -> f64 {
        self.daemons.iter().filter_map(|d| sys::cpu_s(Some(d.child.id()))).sum()
    }

    /// Summed peak RSS of the live daemons, MiB.
    pub fn daemon_rss_peak_mb(&self) -> f64 {
        self.daemons.iter().filter_map(|d| sys::rss_peak_mb(Some(d.child.id()))).sum()
    }

    /// Drains every shard through the fleet and waits for the daemons to
    /// exit (killing any that do not).
    pub fn shutdown(mut self) {
        if let Some(fleet) = self.fleet.take() {
            fleet.shutdown();
        }
        self.reap(EXIT_TIMEOUT);
    }

    fn reap(&mut self, grace: Duration) {
        let deadline = Instant::now() + grace;
        for d in &mut self.daemons {
            while Instant::now() < deadline && matches!(d.child.try_wait(), Ok(None)) {
                std::thread::sleep(Duration::from_millis(10));
            }
            if matches!(d.child.try_wait(), Ok(None)) {
                let _ = d.child.kill();
            }
            let _ = d.child.wait();
            if let Some(h) = d.stdout.take() {
                let _ = h.join();
            }
        }
        self.daemons.clear();
    }
}

impl Drop for Fleet {
    /// A fleet dropped without [`Fleet::shutdown`] (an error path) kills
    /// its daemons rather than leave them running.
    fn drop(&mut self) {
        drop(self.fleet.take());
        self.reap(Duration::ZERO);
    }
}

/// Where daemon `id` writes its observability bundle.
pub fn bundle_dir(dir: &Path, id: usize) -> PathBuf {
    dir.join(format!("bundle-{id}"))
}
