//! `asdr-shardd` — one shard of the remote fleet: a single
//! [`LocalShard`] (one `RenderService` over its own `ModelStore`) per
//! process, answering the fleet wire protocol (`asdr_cluster::wire`)
//! over a Unix or TCP socket.
//!
//! ```text
//! asdr-shardd --listen (unix:PATH | tcp:HOST:PORT)
//!             [--scale tiny|small|paper] [--workers N] [--queue N]
//!             [--store-dir DIR | --no-store] [--shard-id N]
//!             [--bundle DIR]
//! ```
//!
//! With `--bundle DIR` the daemon writes a diagnostic run bundle
//! (`asdr_obs::Bundle`): span capture is enabled and every request span
//! streams write-through into `DIR/spans.jsonl` — surviving even a
//! kill −9 — periodic stats samples land in `DIR/stats-timeline.jsonl`,
//! and the final `SHARDD_EXIT` snapshot is sealed into `DIR/stats.json`
//! (scripts read that file, not stderr).
//!
//! The daemon prints `SHARDD_READY <addr>` once it accepts connections
//! (with the assigned port for `tcp:HOST:0`), then serves until SIGTERM,
//! SIGINT, or a wire `Drain` message. Drain is graceful: the listener
//! closes, in-flight requests finish rendering, every pending `Result`
//! frame is shipped, and only then does the process exit — so a router
//! sees either a completed result or a closed connection, never a
//! half-written frame. A kill −9 is the *un*graceful path the fleet's
//! health checks and hedging exist to absorb.

use asdr_cluster::net::{Listener, ShardAddr, Stream};
use asdr_cluster::wire::{self, Message};
use asdr_cluster::{LocalShard, Shard, ShardError};
use asdr_serve::flags::{die, positive_usize, value};
use asdr_serve::{ModelStore, RenderProfile, RenderService};
use std::collections::HashSet;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Set by SIGTERM/SIGINT or a wire `Drain`; the accept loop polls it.
static DRAIN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    DRAIN.store(true, Ordering::SeqCst);
}

/// Installs the drain handler with the always-linked libc `signal(2)` —
/// no signal crate offline. BSD semantics imply `SA_RESTART`, which is
/// why the accept loop polls a nonblocking listener instead of parking
/// in `accept`.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

struct Args {
    listen: ShardAddr,
    profile: RenderProfile,
    scale_name: String,
    workers: usize,
    queue: usize,
    store_dir: Option<PathBuf>,
    no_store: bool,
    shard_id: u64,
    bundle: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: asdr-shardd --listen (unix:PATH | tcp:HOST:PORT)\n\
         \u{20}                  [--scale tiny|small|paper] [--workers N] [--queue N]\n\
         \u{20}                  [--store-dir DIR | --no-store] [--shard-id N]\n\
         \u{20}                  [--bundle DIR]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut listen = None;
    let mut args = Args {
        listen: ShardAddr::Tcp(String::new()),
        profile: RenderProfile::tiny(),
        scale_name: "tiny".to_string(),
        workers: 1,
        queue: 64,
        store_dir: None,
        no_store: false,
        shard_id: 0,
        bundle: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--listen" => {
                listen = Some(ShardAddr::parse(&value(&argv, &mut i)).unwrap_or_else(|e| die(&e)));
            }
            "--scale" => {
                let name = value(&argv, &mut i);
                args.profile = RenderProfile::parse(&name)
                    .unwrap_or_else(|| die(&format!("unknown scale {name:?}")));
                args.scale_name = name;
            }
            "--workers" => args.workers = positive_usize("--workers", &value(&argv, &mut i)),
            "--queue" => args.queue = positive_usize("--queue", &value(&argv, &mut i)),
            "--store-dir" => args.store_dir = Some(PathBuf::from(value(&argv, &mut i))),
            "--no-store" => args.no_store = true,
            "--bundle" => args.bundle = Some(PathBuf::from(value(&argv, &mut i))),
            "--shard-id" => {
                let v = value(&argv, &mut i);
                args.shard_id = v
                    .parse()
                    .unwrap_or_else(|_| die(&format!("--shard-id needs an integer, got {v:?}")));
            }
            "-h" | "--help" => usage(),
            other => die(&format!("unknown argument {other:?} (see --help)")),
        }
        i += 1;
    }
    match listen {
        Some(addr) => args.listen = addr,
        None => usage(),
    }
    if args.no_store && args.store_dir.is_some() {
        die("--no-store and --store-dir are mutually exclusive");
    }
    args
}

/// Counts in-flight response writers so drain can wait for the last
/// `Result` frame to ship before the process exits.
struct WaitGroup {
    count: Mutex<usize>,
    cond: Condvar,
}

impl WaitGroup {
    fn new() -> Arc<WaitGroup> {
        Arc::new(WaitGroup { count: Mutex::new(0), cond: Condvar::new() })
    }

    fn enter(self: &Arc<Self>) -> WaitGuard {
        *self.count.lock().unwrap() += 1;
        WaitGuard { wg: self.clone() }
    }

    fn wait_idle(&self, timeout: Duration) {
        let deadline = std::time::Instant::now() + timeout;
        let mut count = self.count.lock().unwrap();
        while *count > 0 {
            let Some(left) = deadline.checked_duration_since(std::time::Instant::now()) else {
                return;
            };
            let (next, _) = self.cond.wait_timeout(count, left).unwrap();
            count = next;
        }
    }
}

struct WaitGuard {
    wg: Arc<WaitGroup>,
}

impl Drop for WaitGuard {
    fn drop(&mut self) {
        *self.wg.count.lock().unwrap() -= 1;
        self.wg.cond.notify_all();
    }
}

/// Sends one frame under the connection's writer lock, ignoring errors —
/// a vanished client is the fleet's problem, not the shard's.
fn send(writer: &Mutex<Stream>, msg: &Message) {
    let mut w = writer.lock().unwrap();
    let _ = wire::write_frame(&mut *w, msg);
}

/// Serves one connection until EOF, protocol error, or drain.
fn serve_connection(
    stream: Stream,
    shard: &Arc<LocalShard>,
    shard_id: u64,
    responders: &Arc<WaitGroup>,
) {
    let _ = stream.set_blocking();
    let Ok(write_half) = stream.try_clone() else { return };
    let writer = Arc::new(Mutex::new(write_half));
    let cancelled: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
    let mut reader = stream;
    loop {
        let msg = match wire::read_frame(&mut reader) {
            Ok(Some(msg)) => msg,
            Ok(None) => break,
            Err(e) => {
                eprintln!("shardd: dropping connection: {e}");
                break;
            }
        };
        match msg {
            Message::Hello { version } => {
                if version != wire::VERSION {
                    eprintln!(
                        "shardd: peer speaks wire version {version}, this shard speaks {}",
                        wire::VERSION
                    );
                    break;
                }
                send(&writer, &Message::HelloOk { shard: shard_id });
            }
            Message::Submit { id, req } => {
                // budget bookkeeping is the router's, so nothing to run on
                // completion here; a draining shard refuses as retryable —
                // it is transient to the fleet and will be routed around
                let admitted = req
                    .to_request()
                    .map_err(|why| ShardError::Refused { retryable: false, why })
                    .and_then(|r| shard.submit(&r, Duration::ZERO, Box::new(|_| {})));
                let ticket = match admitted {
                    Ok(ticket) => ticket,
                    Err(ShardError::Refused { retryable, why }) => {
                        send(&writer, &Message::Refused { id, retryable, why });
                        continue;
                    }
                    Err(e) => {
                        let why = e.to_string();
                        send(&writer, &Message::Refused { id, retryable: false, why });
                        continue;
                    }
                };
                send(&writer, &Message::Submitted { id });
                let writer = writer.clone();
                let cancelled = cancelled.clone();
                let guard = responders.enter();
                std::thread::spawn(move || {
                    let _guard = guard;
                    let reply = match ticket.wait() {
                        Ok(result) => Message::Result { id, result },
                        Err(e) => Message::Failed { id, why: e.to_string() },
                    };
                    if cancelled.lock().unwrap().remove(&id) {
                        return; // a hedge won elsewhere; drop the reply
                    }
                    send(&writer, &reply);
                });
            }
            Message::Cancel { id } => {
                cancelled.lock().unwrap().insert(id);
            }
            Message::StatsPoll { id } => {
                if let Ok(stats) = shard.stats(Duration::ZERO) {
                    send(&writer, &Message::Stats { id, stats });
                }
            }
            Message::Health { id } => {
                send(
                    &writer,
                    &Message::HealthOk {
                        id,
                        queue_len: shard.service().queue_len() as u64,
                        draining: DRAIN.load(Ordering::SeqCst),
                    },
                );
            }
            Message::Prewarm { id, scene } => {
                let writer = writer.clone();
                let shard = shard.clone();
                let guard = responders.enter();
                std::thread::spawn(move || {
                    let _guard = guard;
                    // the store's cross-process lock keeps the warm-up fit
                    // deduplicated
                    let ok = matches!(shard.prewarm(&scene, Duration::ZERO), Ok(true));
                    send(&writer, &Message::Warmed { id, ok });
                });
            }
            Message::Drain { id } => {
                send(&writer, &Message::Draining { id });
                DRAIN.store(true, Ordering::SeqCst);
            }
            Message::SetWorkers { id, workers } => {
                // the decoder bounds `workers`, so a peer cannot ask for
                // an unbounded number of threads
                if let Ok(previous) = shard.set_workers(workers as usize, Duration::ZERO) {
                    send(&writer, &Message::WorkersSet { id, previous: previous as u64 });
                }
            }
            // server-to-client kinds arriving here are a peer bug; skip them
            // rather than killing a connection carrying in-flight work
            other => {
                eprintln!("shardd: ignoring unexpected {other:?}");
            }
        }
    }
}

fn main() {
    let args = parse_args();
    install_signal_handlers();

    let bundle = args.bundle.as_ref().map(|dir| {
        let kind = format!("shardd-{}", args.shard_id);
        let store_setting = match (&args.store_dir, args.no_store) {
            (Some(d), _) => d.display().to_string(),
            (None, true) => "in-memory".to_string(),
            (None, false) => "env".to_string(),
        };
        let config = [
            ("listen", args.listen.to_string()),
            ("scale", args.scale_name.clone()),
            ("workers", args.workers.to_string()),
            ("queue", args.queue.to_string()),
            ("store", store_setting),
            ("shard_id", args.shard_id.to_string()),
        ];
        let b = asdr_obs::Bundle::create(dir, &kind, &config)
            .unwrap_or_else(|e| die(&format!("cannot create bundle {}: {e}", dir.display())));
        b.activate();
        b
    });

    let mut store = ModelStore::builder();
    if let Some(dir) = &args.store_dir {
        store = store.dir(dir);
    } else if args.no_store {
        store = store.in_memory_only();
    }
    let service = RenderService::builder(args.profile.clone())
        .store(Arc::new(store.build()))
        .workers(args.workers)
        .queue_capacity(args.queue);
    let shard = Arc::new(LocalShard::new(service).unwrap_or_else(|e| die(&e)));

    let (listener, actual) = Listener::bind(&args.listen)
        .unwrap_or_else(|e| die(&format!("cannot bind {}: {e}", args.listen)));
    listener.set_nonblocking(true).unwrap_or_else(|e| die(&format!("cannot poll {}: {e}", actual)));
    println!("SHARDD_READY {actual}");
    let _ = std::io::stdout().flush();
    if let Some(b) = &bundle {
        b.stage("listening");
    }

    let responders = WaitGroup::new();
    let mut connections = Vec::new();
    let mut last_sample = std::time::Instant::now();
    while !DRAIN.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(stream) => {
                let shard = shard.clone();
                let responders = responders.clone();
                let shard_id = args.shard_id;
                connections.push(std::thread::spawn(move || {
                    serve_connection(stream, &shard, shard_id, &responders);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => die(&format!("accept on {actual}: {e}")),
        }
        if let Some(b) = &bundle {
            if last_sample.elapsed() >= Duration::from_secs(1) {
                last_sample = std::time::Instant::now();
                b.stats_sample("periodic", &shard.service().stats().to_json());
            }
        }
    }

    // graceful drain: stop admitting, render out the queue, ship every
    // pending Result frame, then exit
    if let Some(b) = &bundle {
        b.stage("draining");
    }
    shard.drain(Duration::ZERO);
    responders.wait_idle(Duration::from_secs(30));
    if let ShardAddr::Unix(path) = &actual {
        let _ = std::fs::remove_file(path);
    }
    let exit_stats = shard.service().stats().to_json();
    // the same snapshot lands in the bundle's stats.json (the scripts'
    // source of truth) and on stderr (human logs)
    if let Some(b) = &bundle {
        b.finish(Some(&exit_stats));
    }
    eprintln!("SHARDD_EXIT {exit_stats}");
}
