//! The cooperative token scheduler behind [`SimEngine`](crate::SimEngine).
//!
//! Exactly one simulated thread runs at a time: the one holding the
//! *token* (`current`). Every other thread is blocked inside this
//! module — waiting for its first grant, or parked on a waitpoint. A
//! thread gives the token up only by parking ([`Shared::park`]) or
//! finishing, and the scheduler then picks the next runnable thread
//! with the seeded RNG (record mode) or by following a previously
//! recorded schedule (replay mode). Because every interleaving decision
//! flows through that single chokepoint, a run is a pure function of
//! `(seed, spawn order, program)` — and the decision list *is* the
//! schedule artifact that replays it.
//!
//! Time is virtual: a [`ManualClock`] shared with the moderator under
//! test. The clock only moves when no thread is runnable — it jumps to
//! the earliest parked deadline, waking the timed sleepers — so timed
//! protocol waits (pre-activation timeouts) resolve instantly in wall
//! time yet in the same order a real clock would impose. If no thread
//! is runnable and no deadline is pending, the run is deadlocked and
//! the scheduler says so instead of hanging. The protocol re-evaluates
//! a parked caller only when notified, so with untimed waits that
//! report is a lost-wake detector.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use amf_concurrency::{Clock, ManualClock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

thread_local! {
    /// The simulated-thread index of the current OS thread, set by the
    /// [`SimRunner::spawn`] wrapper before the body runs.
    static SIM_ID: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// The simulated-thread index of the calling OS thread.
///
/// # Panics
///
/// If the caller was not spawned through [`SimRunner::spawn`] — a
/// [`SimEngine`](crate::SimEngine) waitpoint cannot park a thread the
/// scheduler does not own.
pub(crate) fn current_sim_id() -> usize {
    SIM_ID
        .with(std::cell::Cell::get)
        .expect("SimEngine waitpoint used outside a simulated thread; use SimRunner::spawn")
}

/// Scheduler-visible lifecycle of one simulated thread.
enum Status {
    /// Runnable: waiting for (or holding) the token.
    Ready,
    /// Parked on waitpoint `point`; runnable again once `woken` (by a
    /// wake or by the virtual clock reaching `deadline`).
    Parked {
        point: usize,
        deadline: Option<Duration>,
        woken: bool,
    },
    /// The thread body returned (or panicked).
    Done,
}

/// Everything the scheduler mutates, under one lock.
struct SchedState {
    names: Vec<String>,
    status: Vec<Status>,
    /// The token: index of the one thread allowed to run.
    current: Option<usize>,
    rng: StdRng,
    /// Replay script (grant order to follow) when replaying.
    script: Option<Vec<usize>>,
    cursor: usize,
    /// Every grant decision made, in order — the recorded schedule.
    decisions: Vec<usize>,
    /// First fatal condition: deadlock, replay divergence, or an
    /// exhausted script. Progress stops only for deadlock.
    error: Option<String>,
    /// `(thread name, panic message)` for bodies that unwound.
    panics: Vec<(String, String)>,
}

/// State shared by the runner, the engine, and every simulated thread.
pub(crate) struct Shared {
    state: Mutex<SchedState>,
    cv: Condvar,
    pub(crate) clock: ManualClock,
    /// Waitpoint id allocator for [`SimEngine`](crate::SimEngine).
    pub(crate) next_point: AtomicUsize,
}

impl Shared {
    /// Grants the token to the next runnable thread, advancing the
    /// virtual clock past parked deadlines when nothing is runnable.
    /// Caller holds the state lock and must notify the condvar after.
    fn pick_next(&self, s: &mut SchedState) {
        loop {
            let runnable: Vec<usize> = s
                .status
                .iter()
                .enumerate()
                .filter(|(_, st)| matches!(st, Status::Ready | Status::Parked { woken: true, .. }))
                .map(|(i, _)| i)
                .collect();
            if !runnable.is_empty() {
                let chosen = match &s.script {
                    Some(script) => {
                        let want = script.get(s.cursor).copied();
                        s.cursor += 1;
                        match want {
                            Some(w) if runnable.contains(&w) => w,
                            Some(w) => {
                                if s.error.is_none() {
                                    s.error = Some(format!(
                                        "replay divergence at step {}: scripted thread {w} ({}) \
                                         is not runnable",
                                        s.cursor - 1,
                                        s.names.get(w).map_or("?", |n| n.as_str()),
                                    ));
                                }
                                runnable[0]
                            }
                            None => {
                                if s.error.is_none() {
                                    s.error = Some(format!(
                                        "replay script exhausted at step {}",
                                        s.cursor - 1
                                    ));
                                }
                                runnable[0]
                            }
                        }
                    }
                    None => runnable[s.rng.gen_range(0..runnable.len())],
                };
                s.decisions.push(chosen);
                s.status[chosen] = Status::Ready;
                s.current = Some(chosen);
                return;
            }
            if s.status.iter().all(|st| matches!(st, Status::Done)) {
                s.current = None;
                return;
            }
            // Only parked threads remain: move virtual time to the
            // earliest pending deadline, or report deadlock.
            let next_deadline = s
                .status
                .iter()
                .filter_map(|st| match st {
                    Status::Parked {
                        deadline: Some(d),
                        woken: false,
                        ..
                    } => Some(*d),
                    _ => None,
                })
                .min();
            let Some(target) = next_deadline else {
                let parked: Vec<&str> = s
                    .status
                    .iter()
                    .enumerate()
                    .filter(|(_, st)| matches!(st, Status::Parked { .. }))
                    .map(|(i, _)| s.names[i].as_str())
                    .collect();
                if s.error.is_none() {
                    s.error = Some(format!(
                        "deadlock: [{}] parked with no wake or deadline pending",
                        parked.join(", ")
                    ));
                }
                s.current = None;
                return;
            };
            let now = self.clock.now();
            if target > now {
                self.clock.advance(target - now);
            }
            let now = self.clock.now();
            for st in s.status.iter_mut() {
                if let Status::Parked {
                    deadline: Some(d),
                    woken,
                    ..
                } = st
                {
                    if *d <= now {
                        *woken = true;
                    }
                }
            }
        }
    }

    /// Parks the calling simulated thread on `point` (with an optional
    /// relative virtual-time `timeout`), hands the token on, and blocks
    /// until the scheduler grants the token back. Returns whether the
    /// virtual deadline had passed by re-grant time (the timed-out
    /// flag; a racing wake may report either way, per the [`Waiter`]
    /// contract).
    ///
    /// Must be called with no cell lock held (the waitpoint releases it
    /// first). In a deadlocked run the thread is never re-granted and
    /// blocks here forever; [`SimRunner::run`] detaches it.
    ///
    /// [`Waiter`]: amf_concurrency::Waiter
    pub(crate) fn park(&self, me: usize, point: usize, timeout: Option<Duration>) -> bool {
        let mut s = self.state.lock().unwrap();
        let deadline = timeout.map(|t| self.clock.now() + t);
        let woken = deadline.is_some_and(|d| d <= self.clock.now());
        s.status[me] = Status::Parked {
            point,
            deadline,
            woken,
        };
        self.pick_next(&mut s);
        self.cv.notify_all();
        while s.current != Some(me) {
            s = self.cv.wait(s).unwrap();
        }
        deadline.is_some_and(|d| self.clock.now() >= d)
    }

    /// Marks parked threads on `point` as woken: the lowest-indexed
    /// unwoken one (`all = false`) or every one (`all = true`). Pure
    /// state — the wake takes effect at the next scheduling decision,
    /// which is what makes wake-vs-park races impossible by
    /// construction (the waker holds the token; nobody parks meanwhile).
    pub(crate) fn wake(&self, point: usize, all: bool) {
        let mut s = self.state.lock().unwrap();
        for st in s.status.iter_mut() {
            if let Status::Parked {
                point: p, woken, ..
            } = st
            {
                if *p == point && !*woken {
                    *woken = true;
                    if !all {
                        break;
                    }
                }
            }
        }
    }

    /// Blocks until the token is granted to `me`.
    fn wait_for_grant(&self, me: usize) {
        let mut s = self.state.lock().unwrap();
        while s.current != Some(me) {
            s = self.cv.wait(s).unwrap();
        }
    }

    /// Retires `me` (recording a body panic, if any) and hands the
    /// token on.
    fn finish(&self, me: usize, panic: Option<String>) {
        let mut s = self.state.lock().unwrap();
        s.status[me] = Status::Done;
        if let Some(msg) = panic {
            let name = s.names[me].clone();
            s.panics.push((name, msg));
        }
        if s.current == Some(me) {
            self.pick_next(&mut s);
        }
        self.cv.notify_all();
    }
}

/// What a finished simulation run reports.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Simulated-thread names, indexed by thread id.
    pub names: Vec<String>,
    /// The grant order: every scheduling decision, in sequence. Feed it
    /// to [`SimRunner::replay`] to reproduce the run exactly.
    pub schedule: Vec<usize>,
    /// Final virtual-clock reading.
    pub clock: Duration,
    /// Fatal condition, if any: deadlock, replay divergence, or an
    /// exhausted replay script. `None` means every thread ran to
    /// completion.
    pub error: Option<String>,
    /// `(thread name, panic message)` for thread bodies that panicked.
    /// A body panic retires the thread but does not stop the run.
    pub panics: Vec<(String, String)>,
}

/// Owns a deterministic simulation: spawn the simulated threads, hand
/// their moderator a [`SimEngine`](crate::SimEngine) and the shared
/// virtual clock, then [`run`](SimRunner::run) to completion.
///
/// ```
/// use amf_sim::SimRunner;
///
/// let mut runner = SimRunner::new(7);
/// let engine = runner.engine(); // plug into ModeratorBuilder::engine
/// let _ = engine;
/// runner.spawn("worker", || { /* moderated calls here */ });
/// let report = runner.run();
/// assert!(report.error.is_none());
/// ```
pub struct SimRunner {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for SimRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimRunner")
            .field("threads", &self.handles.len())
            .finish_non_exhaustive()
    }
}

impl SimRunner {
    /// A recording runner: scheduling decisions come from an RNG seeded
    /// with `seed`, and the resulting schedule is reported for replay.
    pub fn new(seed: u64) -> Self {
        Self::build(seed, None)
    }

    /// A replaying runner: scheduling decisions follow `script` (a
    /// previously reported [`SimReport::schedule`]). Divergence — a
    /// scripted thread that is not runnable — is reported in
    /// [`SimReport::error`]; the run continues on a fallback pick so
    /// the divergence point is observable rather than fatal.
    pub fn replay(seed: u64, script: Vec<usize>) -> Self {
        Self::build(seed, Some(script))
    }

    fn build(seed: u64, script: Option<Vec<usize>>) -> Self {
        Self {
            shared: Arc::new(Shared {
                state: Mutex::new(SchedState {
                    names: Vec::new(),
                    status: Vec::new(),
                    current: None,
                    rng: StdRng::seed_from_u64(seed),
                    script,
                    cursor: 0,
                    decisions: Vec::new(),
                    error: None,
                    panics: Vec::new(),
                }),
                cv: Condvar::new(),
                clock: ManualClock::new(),
                next_point: AtomicUsize::new(0),
            }),
            handles: Vec::new(),
        }
    }

    /// The engine to install via `ModeratorBuilder::engine` — waitpoints
    /// it mints park through this runner's scheduler.
    pub fn engine(&self) -> crate::SimEngine {
        crate::SimEngine::from_shared(Arc::clone(&self.shared))
    }

    /// A handle to the run's virtual clock, to install via
    /// `ModeratorBuilder::clock` (clones share the same time).
    pub fn clock(&self) -> ManualClock {
        self.shared.clock.clone()
    }

    /// Spawns a simulated thread. The body does not run until
    /// [`run`](SimRunner::run) grants it the token; spawn order defines
    /// thread ids (and so must match between record and replay).
    pub fn spawn(&mut self, name: &str, f: impl FnOnce() + Send + 'static) {
        let shared = Arc::clone(&self.shared);
        let id = {
            let mut s = shared.state.lock().unwrap();
            s.names.push(name.to_string());
            s.status.push(Status::Ready);
            s.names.len() - 1
        };
        let body_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name(format!("sim-{name}"))
            .spawn(move || {
                SIM_ID.with(|c| c.set(Some(id)));
                body_shared.wait_for_grant(id);
                let outcome = catch_unwind(AssertUnwindSafe(f));
                let panic = outcome.err().map(|payload| {
                    payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string())
                });
                body_shared.finish(id, panic);
            })
            .expect("spawn simulated thread");
        self.handles.push(handle);
    }

    /// Runs the simulation to completion and reports the schedule.
    ///
    /// On a deadlock the still-parked OS threads can never be woken;
    /// they are detached (they hold no locks while parked) and the
    /// deadlock is reported in [`SimReport::error`] instead of hanging
    /// the caller.
    pub fn run(self) -> SimReport {
        {
            let mut s = self.shared.state.lock().unwrap();
            self.shared.pick_next(&mut s);
            self.shared.cv.notify_all();
        }
        let report = {
            let mut s = self.shared.state.lock().unwrap();
            loop {
                let all_done = s.status.iter().all(|st| matches!(st, Status::Done));
                let stuck = s.error.is_some() && s.current.is_none();
                if all_done || stuck {
                    break SimReport {
                        names: s.names.clone(),
                        schedule: s.decisions.clone(),
                        clock: self.shared.clock.now(),
                        error: s.error.clone(),
                        panics: s.panics.clone(),
                    };
                }
                s = self.shared.cv.wait(s).unwrap();
            }
        };
        if report.error.is_none() {
            for handle in self.handles {
                let _ = handle.join();
            }
        }
        // On error the parked threads are leaked deliberately: joining
        // a thread that can never be woken would hang forever.
        report
    }
}
