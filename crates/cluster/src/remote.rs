//! The client of `asdr-shardd` processes: [`RemoteShard`], the
//! [`Shard`] the router drives over the wire protocol.
//!
//! A [`RemoteShard`] holds a small pool of [`Stream`]s, each with a reader
//! thread demultiplexing reply frames into per-request slots by
//! correlation id, so any number of requests, health probes, and stats
//! polls share a connection without head-of-line blocking on the client
//! side. The reader thread also runs each submission's [`Done`] the moment
//! its `Result` or `Failed` frame arrives — the router's budget
//! reservation is released when the shard finishes, whether or not anyone
//! is waiting on the ticket yet.
//!
//! [`RemoteFleet`] is the router over remote shards; see
//! [`crate::router`] for routing, admission, and failure handling.

use crate::net::{ShardAddr, Stream};
use crate::router::{Done, Fleet, FleetConfig, Shard, ShardError, ShardTicket};
use crate::wire::{self, Message, WireRequest, WireResult, WireStats};
use asdr_serve::{RenderProfile, RenderRequest};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The router over `asdr-shardd` processes.
pub type RemoteFleet = Fleet<RemoteShard>;

impl Fleet<RemoteShard> {
    /// Connects to every shard in `addrs` and starts the router.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unreachable shard — starting a
    /// fleet with a dead member is a deployment error, not a failure to
    /// tolerate — or the configuration error [`Fleet::new`] reports.
    pub fn connect(
        addrs: Vec<ShardAddr>,
        profile: RenderProfile,
        cfg: FleetConfig,
    ) -> Result<RemoteFleet, String> {
        let shards = addrs
            .into_iter()
            .enumerate()
            .map(|(id, addr)| {
                RemoteShard::connect(addr.clone(), cfg.connections_per_shard)
                    .map_err(|e| format!("shard {id} ({addr}): {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Fleet::new(shards, &profile, cfg)
    }
}

/// One correlation id's reply stream (a submit sees `Submitted` then
/// `Result`; probes see a single reply).
#[derive(Debug, Default)]
struct SlotState {
    replies: VecDeque<Message>,
    dead: Option<String>,
}

#[derive(Default)]
struct Slot {
    state: Mutex<SlotState>,
    cond: Condvar,
    /// A submission's [`Done`], run once when the shard is finished with it.
    done: Mutex<Option<Done>>,
}

impl fmt::Debug for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Slot").field("state", &self.state).finish_non_exhaustive()
    }
}

impl Slot {
    /// The next reply for this id, waiting up to `timeout`.
    fn next(&self, timeout: Duration) -> Result<Message, ShardError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock().expect("slot poisoned");
        loop {
            if let Some(msg) = st.replies.pop_front() {
                return Ok(msg);
            }
            if let Some(why) = &st.dead {
                return Err(ShardError::Connection(why.clone()));
            }
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return Err(ShardError::Timeout);
            };
            st = self.cond.wait_timeout(st, left).expect("slot poisoned").0;
        }
    }

    fn push(&self, msg: Message) {
        self.state.lock().expect("slot poisoned").replies.push_back(msg);
        self.cond.notify_all();
    }

    fn kill(&self, why: &str) {
        self.finish(None);
        self.state.lock().expect("slot poisoned").dead = Some(why.to_string());
        self.cond.notify_all();
    }

    /// Runs the submission's [`Done`], if it has not run yet.
    fn finish(&self, service_ms: Option<f64>) {
        let done = self.done.lock().expect("slot poisoned").take();
        if let Some(done) = done {
            done(service_ms);
        }
    }
}

/// One pooled connection: a locked writer half plus a reader thread that
/// routes reply frames into slots by id.
#[derive(Debug)]
struct Conn {
    writer: Mutex<Stream>,
    read_half: Stream,
    pending: Mutex<HashMap<u64, Arc<Slot>>>,
    alive: AtomicBool,
}

impl Conn {
    fn open(addr: &ShardAddr) -> Result<Arc<Conn>, ShardError> {
        let err = |e: std::io::Error| ShardError::Connection(e.to_string());
        let stream = addr.connect().map_err(err)?;
        let mut writer = stream.try_clone().map_err(err)?;
        // handshake synchronously, bounded, before the reader thread owns
        // the stream
        stream.set_read_timeout(Some(Duration::from_secs(5))).map_err(err)?;
        wire::write_frame(&mut writer, &Message::Hello { version: wire::VERSION }).map_err(err)?;
        let mut read_half = stream.try_clone().map_err(err)?;
        match wire::read_frame(&mut read_half) {
            Ok(Some(Message::HelloOk { .. })) => {}
            Ok(Some(other)) => {
                return Err(ShardError::Protocol(format!("expected HelloOk, got {other:?}")))
            }
            Ok(None) => return Err(ShardError::Connection("closed during handshake".into())),
            Err(e) => return Err(ShardError::Connection(e)),
        }
        stream.set_read_timeout(None).map_err(err)?;
        let conn = Arc::new(Conn {
            writer: Mutex::new(writer),
            read_half: stream,
            pending: Mutex::new(HashMap::new()),
            alive: AtomicBool::new(true),
        });
        let reader_conn = conn.clone();
        std::thread::spawn(move || reader_loop(&reader_conn, read_half));
        Ok(conn)
    }

    fn register(&self, id: u64, done: Option<Done>) -> Arc<Slot> {
        let slot = Arc::new(Slot { done: Mutex::new(done), ..Slot::default() });
        self.pending.lock().expect("pending map poisoned").insert(id, slot.clone());
        slot
    }

    /// Forgets `id`; a submission still pending is finished as abandoned.
    fn unregister(&self, id: u64) {
        let slot = self.pending.lock().expect("pending map poisoned").remove(&id);
        if let Some(slot) = slot {
            slot.finish(None);
        }
    }

    fn send(&self, msg: &Message) -> Result<(), ShardError> {
        let mut w = self.writer.lock().expect("writer poisoned");
        wire::write_frame(&mut *w, msg).map_err(|e| {
            self.fail(&e.to_string());
            ShardError::Connection(e.to_string())
        })
    }

    /// Marks the connection dead and wakes every pending waiter with the
    /// reason — the client-side signal a kill −9 produces.
    fn fail(&self, why: &str) {
        if self.alive.swap(false, Ordering::SeqCst) {
            self.read_half.shutdown();
        }
        let slots: Vec<Arc<Slot>> =
            self.pending.lock().expect("pending map poisoned").drain().map(|(_, s)| s).collect();
        for slot in slots {
            slot.kill(why);
        }
    }
}

fn reader_loop(conn: &Conn, mut read_half: Stream) {
    loop {
        let msg = match wire::read_frame(&mut read_half) {
            Ok(Some(msg)) => msg,
            Ok(None) => return conn.fail("shard closed the connection"),
            Err(e) => return conn.fail(&e),
        };
        let Some(id) = msg.id() else { continue };
        let terminal = matches!(msg, Message::Result { .. } | Message::Failed { .. });
        let slot = {
            let mut pending = conn.pending.lock().expect("pending map poisoned");
            if terminal {
                pending.remove(&id)
            } else {
                pending.get(&id).cloned()
            }
        };
        // replies for unregistered ids (cancelled hedges) are dropped
        let Some(slot) = slot else { continue };
        // finish before the waiter can see the reply, so no caller ever
        // observes a completed request still holding budget
        match &msg {
            Message::Result { result, .. } => slot
                .finish(Some(result.latency_us.saturating_sub(result.queue_wait_us) as f64 / 1e3)),
            Message::Failed { .. } => slot.finish(None),
            _ => {}
        }
        slot.push(msg);
    }
}

/// The client of one `asdr-shardd` process.
#[derive(Debug)]
pub struct RemoteShard {
    addr: ShardAddr,
    pool: Mutex<Vec<Option<Arc<Conn>>>>,
    next_conn: AtomicUsize,
    next_id: AtomicU64,
}

impl fmt::Display for RemoteShard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.addr.fmt(f)
    }
}

impl RemoteShard {
    /// A client over `addr` with a `connections` pool (>= 1), verifying
    /// reachability with one eager connection.
    ///
    /// # Errors
    ///
    /// [`ShardError::Connection`] when the shard is unreachable.
    pub fn connect(addr: ShardAddr, connections: usize) -> Result<RemoteShard, ShardError> {
        let mut pool = vec![None; connections.max(1)];
        pool[0] = Some(Conn::open(&addr)?);
        Ok(RemoteShard {
            addr,
            pool: Mutex::new(pool),
            next_conn: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
        })
    }

    /// A live pooled connection (round-robin), re-dialing a dead or
    /// unopened pool slot — which is also how a restarted shard rejoins.
    fn conn(&self) -> Result<Arc<Conn>, ShardError> {
        let mut pool = self.pool.lock().expect("connection pool poisoned");
        let i = self.next_conn.fetch_add(1, Ordering::Relaxed) % pool.len();
        if let Some(conn) = &pool[i] {
            if conn.alive.load(Ordering::SeqCst) {
                return Ok(conn.clone());
            }
        }
        let fresh = Conn::open(&self.addr)?;
        pool[i] = Some(fresh.clone());
        Ok(fresh)
    }

    fn request(
        &self,
        build: impl FnOnce(u64) -> Message,
        done: Option<Done>,
    ) -> Result<(Arc<Conn>, Arc<Slot>, u64), ShardError> {
        let conn = match self.conn() {
            Ok(conn) => conn,
            Err(e) => {
                if let Some(done) = done {
                    done(None);
                }
                return Err(e);
            }
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let slot = conn.register(id, done);
        if let Err(e) = conn.send(&build(id)) {
            conn.unregister(id);
            return Err(e);
        }
        Ok((conn, slot, id))
    }

    /// One-reply request/response helper.
    fn roundtrip(
        &self,
        timeout: Duration,
        build: impl FnOnce(u64) -> Message,
    ) -> Result<Message, ShardError> {
        let (conn, slot, id) = self.request(build, None)?;
        let reply = slot.next(timeout);
        conn.unregister(id);
        reply
    }
}

impl Shard for RemoteShard {
    type Ticket = RemoteTicket;

    fn submit(
        &self,
        req: &RenderRequest,
        admit_timeout: Duration,
        done: Done,
    ) -> Result<RemoteTicket, ShardError> {
        let wire_req = WireRequest::from_request(req);
        let (conn, slot, id) =
            self.request(|id| Message::Submit { id, req: wire_req }, Some(done))?;
        let refusal = match slot.next(admit_timeout) {
            Ok(Message::Submitted { .. }) => return Ok(RemoteTicket { conn, slot, id }),
            Ok(Message::Refused { retryable, why, .. }) => ShardError::Refused { retryable, why },
            Ok(other) => ShardError::Protocol(format!("expected Submitted, got {other:?}")),
            Err(e) => e,
        };
        conn.unregister(id);
        Err(refusal)
    }

    fn health(&self, timeout: Duration) -> Result<(), ShardError> {
        match self.roundtrip(timeout, |id| Message::Health { id })? {
            Message::HealthOk { .. } => Ok(()),
            other => Err(ShardError::Protocol(format!("expected HealthOk, got {other:?}"))),
        }
    }

    fn stats(&self, timeout: Duration) -> Result<WireStats, ShardError> {
        match self.roundtrip(timeout, |id| Message::StatsPoll { id })? {
            Message::Stats { stats, .. } => Ok(stats),
            other => Err(ShardError::Protocol(format!("expected Stats, got {other:?}"))),
        }
    }

    fn prewarm(&self, scene: &str, timeout: Duration) -> Result<bool, ShardError> {
        let scene = scene.to_string();
        match self.roundtrip(timeout, |id| Message::Prewarm { id, scene })? {
            Message::Warmed { ok, .. } => Ok(ok),
            other => Err(ShardError::Protocol(format!("expected Warmed, got {other:?}"))),
        }
    }

    /// Asks the daemon to drain and exit; it renders out its queue first.
    fn drain(&self, timeout: Duration) {
        let _ = self.roundtrip(timeout, |id| Message::Drain { id });
    }

    fn set_workers(&self, workers: usize, timeout: Duration) -> Result<usize, ShardError> {
        // the daemon's decoder rejects (and drops the connection over) a
        // count past the wire bound
        let workers = (workers as u64).min(wire::MAX_WORKERS);
        match self.roundtrip(timeout, |id| Message::SetWorkers { id, workers })? {
            Message::WorkersSet { previous, .. } => Ok(previous as usize),
            other => Err(ShardError::Protocol(format!("expected WorkersSet, got {other:?}"))),
        }
    }
}

/// A submitted remote request's completion handle.
#[derive(Debug, Clone)]
pub struct RemoteTicket {
    conn: Arc<Conn>,
    slot: Arc<Slot>,
    id: u64,
}

impl ShardTicket for RemoteTicket {
    fn wait_result(&self, timeout: Duration) -> Result<WireResult, ShardError> {
        let reply = match self.slot.next(timeout)? {
            Message::Result { result, .. } => Ok(result),
            Message::Failed { why, .. } => Err(ShardError::Render(why)),
            other => Err(ShardError::Protocol(format!("expected Result, got {other:?}"))),
        };
        self.conn.unregister(self.id);
        reply
    }

    /// Stops the shard from shipping this result.
    fn cancel(&self) {
        self.conn.unregister(self.id);
        let _ = self.conn.send(&Message::Cancel { id: self.id });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connecting_to_a_dead_address_is_a_named_error() {
        let addr = ShardAddr::Unix(std::env::temp_dir().join("asdr-no-such-shard.sock"));
        let e = RemoteShard::connect(addr, 1).unwrap_err();
        assert!(matches!(e, ShardError::Connection(_)), "{e}");
        let Err(e) = RemoteFleet::connect(
            vec![ShardAddr::Unix(std::env::temp_dir().join("asdr-no-such-shard.sock"))],
            RenderProfile::tiny(),
            FleetConfig::default(),
        ) else {
            panic!("connecting a fleet to a dead shard must fail");
        };
        assert!(e.starts_with("shard 0"), "{e}");
        assert!(RemoteFleet::connect(Vec::new(), RenderProfile::tiny(), FleetConfig::default())
            .is_err());
    }

    #[test]
    fn slots_deliver_in_order_and_fail_on_death() {
        let slot = Slot::default();
        slot.push(Message::Submitted { id: 1 });
        slot.push(Message::Failed { id: 1, why: "x".into() });
        assert_eq!(slot.next(Duration::from_millis(1)).unwrap(), Message::Submitted { id: 1 });
        assert!(matches!(slot.next(Duration::from_millis(1)).unwrap(), Message::Failed { .. }));
        assert_eq!(slot.next(Duration::from_millis(1)).unwrap_err(), ShardError::Timeout);
        slot.kill("gone");
        assert!(matches!(
            slot.next(Duration::from_millis(1)).unwrap_err(),
            ShardError::Connection(_)
        ));
    }

    #[test]
    fn a_slot_runs_its_done_exactly_once() {
        let runs = Arc::new(Mutex::new(Vec::new()));
        let seen = runs.clone();
        let done: Done = Box::new(move |ms| seen.lock().unwrap().push(ms));
        let slot = Slot { done: Mutex::new(Some(done)), ..Slot::default() };
        slot.finish(Some(4.0));
        slot.finish(None);
        slot.kill("gone");
        assert_eq!(*runs.lock().unwrap(), vec![Some(4.0)]);
    }
}
