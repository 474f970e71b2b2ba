//! The router's failure and admission contracts against a scripted fake
//! [`Shard`], with no sleeps and no timing bets: a shard that goes down
//! with a request in flight is evicted and the request fails over to the
//! other shard with byte-identical frames, and a finite budget reserved by
//! un-waited tickets is released when the shards finish, not when callers
//! wait.

use asdr_cluster::wire::{WireResult, WireStats};
use asdr_cluster::{Done, Fleet, FleetConfig, FleetError, Shard, ShardError, ShardTicket};
use asdr_math::{Image, Rgb};
use asdr_scenes::registry;
use asdr_serve::{RenderProfile, RenderRequest};
use std::fmt;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What every fake render reports as its service time, milliseconds.
const SERVICE_MS: f64 = 60.0;

/// The frames every shard renders for `req`: a pure function of the
/// request, as real rendering is.
fn frames(req: &RenderRequest) -> Vec<Image> {
    let mut img = Image::new(req.resolution, req.resolution);
    let seed = req.scene.name().len() as f32;
    for (i, px) in img.pixels_mut().iter_mut().enumerate() {
        *px = Rgb { r: seed, g: i as f32 * 0.5, b: -seed };
    }
    vec![img; req.frames]
}

/// One outcome slot a [`FakeTicket`] waits on.
#[derive(Default)]
struct Cell {
    outcome: Mutex<Option<Result<WireResult, ShardError>>>,
    cond: Condvar,
}

impl Cell {
    fn fill(&self, outcome: Result<WireResult, ShardError>) {
        *self.outcome.lock().unwrap() = Some(outcome);
        self.cond.notify_all();
    }
}

#[derive(Clone)]
struct FakeTicket {
    cell: Arc<Cell>,
    /// Told when a waiter first blocks on this ticket.
    waiting: Option<Sender<()>>,
}

impl ShardTicket for FakeTicket {
    fn wait_result(&self, timeout: Duration) -> Result<WireResult, ShardError> {
        let deadline = Instant::now() + timeout;
        let mut outcome = self.cell.outcome.lock().unwrap();
        if outcome.is_none() {
            if let Some(tx) = &self.waiting {
                let _ = tx.send(());
            }
        }
        while outcome.is_none() {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return Err(ShardError::Timeout);
            };
            outcome = self.cell.cond.wait_timeout(outcome, left).unwrap().0;
        }
        outcome.clone().unwrap()
    }

    fn cancel(&self) {}
}

struct Held {
    done: Done,
    cell: Arc<Cell>,
    result: WireResult,
}

#[derive(Default)]
struct FakeState {
    held: Vec<Held>,
    down: bool,
    admitted: usize,
}

/// A shard that admits everything, then holds each result until the test
/// releases it (or, with `hold` off, completes at once); [`Fake::kill`]
/// takes it down, failing whatever it still holds.
#[derive(Clone)]
struct Fake {
    name: &'static str,
    hold: bool,
    state: Arc<Mutex<FakeState>>,
    waiting: Option<Sender<()>>,
}

impl Fake {
    fn new(name: &'static str, hold: bool) -> Fake {
        Fake { name, hold, state: Arc::default(), waiting: None }
    }

    /// Completes every held request: its `Done` first, then its ticket.
    fn release(&self) {
        let held = std::mem::take(&mut self.state.lock().unwrap().held);
        for h in held {
            (h.done)(Some(SERVICE_MS));
            h.cell.fill(Ok(h.result));
        }
    }

    /// Goes down: held requests are lost with the shard, probes fail.
    fn kill(&self) {
        let held = {
            let mut st = self.state.lock().unwrap();
            st.down = true;
            std::mem::take(&mut st.held)
        };
        for h in held {
            (h.done)(None);
            h.cell.fill(Err(ShardError::Connection("shard killed".into())));
        }
    }

    fn admitted(&self) -> usize {
        self.state.lock().unwrap().admitted
    }

    fn check_up(&self) -> Result<(), ShardError> {
        if self.state.lock().unwrap().down {
            return Err(ShardError::Connection("shard is down".into()));
        }
        Ok(())
    }
}

impl fmt::Display for Fake {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

impl Shard for Fake {
    type Ticket = FakeTicket;

    fn submit(
        &self,
        req: &RenderRequest,
        _admit_timeout: Duration,
        done: Done,
    ) -> Result<FakeTicket, ShardError> {
        if let Err(e) = self.check_up() {
            done(None);
            return Err(e);
        }
        let result = WireResult {
            scene: req.scene.name().to_string(),
            resolution: req.resolution,
            reused_frames: 0,
            queue_wait_us: 0,
            latency_us: (SERVICE_MS * 1e3) as u64,
            deadline_met: None,
            completed_seq: 0,
            images: frames(req),
            trace: req.trace,
        };
        let cell = Arc::new(Cell::default());
        let mut st = self.state.lock().unwrap();
        st.admitted += 1;
        if self.hold {
            st.held.push(Held { done, cell: cell.clone(), result });
        } else {
            drop(st);
            done(Some(SERVICE_MS));
            cell.fill(Ok(result));
        }
        Ok(FakeTicket { cell, waiting: self.waiting.clone() })
    }

    fn health(&self, _timeout: Duration) -> Result<(), ShardError> {
        self.check_up()
    }

    fn stats(&self, _timeout: Duration) -> Result<WireStats, ShardError> {
        self.check_up()?;
        Ok(WireStats { workers: 1, ..WireStats::default() })
    }

    fn prewarm(&self, _scene: &str, _timeout: Duration) -> Result<bool, ShardError> {
        self.check_up().map(|()| true)
    }

    fn drain(&self, _timeout: Duration) {}

    fn set_workers(&self, _workers: usize, _timeout: Duration) -> Result<usize, ShardError> {
        self.check_up().map(|()| 1)
    }
}

/// Router settings that keep the background loops out of the way: the
/// health loop never fires during a test, and nothing hedges.
fn quiet(budget_ms: f64) -> FleetConfig {
    FleetConfig { health_interval: Duration::from_secs(3600), budget_ms, ..FleetConfig::local() }
}

#[test]
fn a_shard_lost_mid_request_fails_over_with_identical_frames() {
    let req = RenderRequest::frame(registry::handle("Mic"), 8);
    let home = asdr_cluster::HashRing::new(2).home("Mic");
    let (tx, waiting) = channel();
    let mut victim = Fake::new("victim", true);
    victim.waiting = Some(tx);
    let survivor = Fake::new("survivor", false);
    let mut shards = vec![survivor.clone(), survivor.clone()];
    shards[home] = victim.clone();
    let fleet = Fleet::new(shards, &RenderProfile::tiny(), quiet(f64::INFINITY)).unwrap();

    let ticket = fleet.submit(req.clone()).expect("the home shard admits");
    assert_eq!(ticket.shard(), home);
    let result = std::thread::scope(|s| {
        let waiter = s.spawn(|| ticket.wait());
        // the waiter is blocked on the victim's ticket: take the shard down
        waiting.recv().expect("the waiter blocks on the held request");
        victim.kill();
        waiter.join().unwrap()
    })
    .expect("the request survives its shard");

    assert_eq!(result.images, frames(&req), "failover changed the frames");
    assert_eq!(ticket.shard(), 1 - home, "the survivor served the request");
    assert_eq!(survivor.admitted(), 1);
    let stats = fleet.shutdown();
    assert!(stats.fleet.evictions >= 1, "eviction not counted: {:?}", stats.fleet);
    assert!(stats.fleet.failovers >= 1, "failover not counted: {:?}", stats.fleet);
    assert_eq!(fleet.live_shards(), 1);
    for s in &stats.shards {
        assert_eq!(s.outstanding_ms, 0.0, "shard {} still holds budget", s.shard);
    }
}

#[test]
fn a_finite_budget_reopens_when_shards_finish_not_when_callers_wait() {
    let shards = vec![Fake::new("a", true), Fake::new("b", true)];
    let fleet = Fleet::new(shards.clone(), &RenderProfile::tiny(), quiet(100.0)).unwrap();
    // one request fills a shard's budget
    fleet.cost_model().observe("Mic", 8, 1, SERVICE_MS);
    let req = || RenderRequest::frame(registry::handle("Mic"), 8);

    // submit past the budget without waiting on anything
    let mut tickets = vec![fleet.submit(req()).unwrap(), fleet.submit(req()).unwrap()];
    match fleet.submit(req()) {
        Err(FleetError::Busy { predicted_ms, budget_ms }) => {
            assert_eq!((predicted_ms, budget_ms), (SERVICE_MS, 100.0));
        }
        other => panic!("both shards are at budget, expected Busy, got {other:?}"),
    }
    assert_eq!(shards.iter().map(Fake::admitted).collect::<Vec<_>>(), [1, 1]);

    // the shards finish; no ticket has been waited on yet, and the budget
    // must reopen anyway
    for s in &shards {
        s.release();
    }
    assert!(fleet.stats().shards.iter().all(|s| s.outstanding_ms == 0.0));
    tickets.push(fleet.submit(req()).expect("finished work frees the budget"));
    tickets.push(fleet.submit(req()).expect("on both shards"));
    for s in &shards {
        s.release();
    }

    for t in &tickets {
        assert_eq!(t.wait().expect("every request completes").images, frames(&req()));
    }
    let stats = fleet.shutdown();
    assert_eq!((stats.routed_home, stats.spilled, stats.rejected), (2, 2, 1));
    for s in &stats.shards {
        assert_eq!(s.outstanding_ms, 0.0, "shard {} still holds budget", s.shard);
    }
}
