//! Property tests of the moderation protocol itself: for *random*
//! aspect chains and workloads, the framework's accounting balances.
//!
//! The central invariant is **reservation balance**: every precondition
//! that resumed is matched by exactly one postaction (the activation
//! completed) or exactly one release (a later aspect blocked/aborted
//! and the chain rolled back). An unbalanced aspect is precisely the
//! leak of experiment E7.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use aspect_moderator::core::{
    Aspect, AspectModerator, Concern, InvocationContext, MethodId, Moderated, ReleaseCause, Verdict,
};
use proptest::prelude::*;

/// What a chain position does, chosen by proptest.
#[derive(Debug, Clone, Copy)]
enum Behavior {
    /// Always resume.
    Resume,
    /// Block this many times per invocation, then resume.
    BlockThen(u8),
    /// Abort every `n`-th invocation it sees, resume otherwise.
    AbortEvery(u8),
}

fn behavior() -> impl Strategy<Value = Behavior> {
    prop_oneof![
        Just(Behavior::Resume),
        (1..3u8).prop_map(Behavior::BlockThen),
        (2..5u8).prop_map(Behavior::AbortEvery),
    ]
}

/// Counters shared with the test harness.
#[derive(Debug, Default)]
struct Accounting {
    resumed: AtomicU64,
    posted: AtomicU64,
    released: AtomicU64,
}

/// An instrumented aspect implementing one [`Behavior`].
struct Probe {
    behavior: Behavior,
    accounting: Arc<Accounting>,
    /// Per-invocation remaining blocks (keyed by invocation id).
    pending_blocks: std::collections::HashMap<u64, u8>,
    seen: u64,
}

impl Aspect for Probe {
    fn precondition(&mut self, ctx: &mut InvocationContext) -> Verdict {
        match self.behavior {
            Behavior::Resume => {
                self.accounting.resumed.fetch_add(1, Ordering::SeqCst);
                Verdict::Resume
            }
            Behavior::BlockThen(n) => {
                let left = self.pending_blocks.entry(ctx.invocation()).or_insert(n);
                if *left > 0 {
                    *left -= 1;
                    Verdict::Block
                } else {
                    self.pending_blocks.remove(&ctx.invocation());
                    self.accounting.resumed.fetch_add(1, Ordering::SeqCst);
                    Verdict::Resume
                }
            }
            Behavior::AbortEvery(n) => {
                self.seen += 1;
                if self.seen.is_multiple_of(u64::from(n)) {
                    Verdict::abort("scripted abort")
                } else {
                    self.accounting.resumed.fetch_add(1, Ordering::SeqCst);
                    Verdict::Resume
                }
            }
        }
    }

    fn postaction(&mut self, _ctx: &mut InvocationContext) {
        self.accounting.posted.fetch_add(1, Ordering::SeqCst);
    }

    fn on_release(&mut self, _ctx: &InvocationContext, _cause: ReleaseCause) {
        self.accounting.released.fetch_add(1, Ordering::SeqCst);
    }

    fn on_cancel(&mut self, ctx: &InvocationContext) -> bool {
        self.pending_blocks.remove(&ctx.invocation());
        false
    }

    fn describe(&self) -> &str {
        "instrumented probe"
    }
}

/// Drives the chain with **bounded waits**: blocking probes can leave
/// every thread parked at once (nobody left to notify), which is a
/// legitimate protocol outcome — the caller times out, `on_cancel`
/// cleans up enrollments, and the balance invariant must still hold.
fn run_chain(behaviors: &[Behavior], invocations: u64, threads: u64) -> Vec<Arc<Accounting>> {
    let moderator = AspectModerator::shared();
    let op = moderator.declare_method(MethodId::new("op"));
    let mut accounts = Vec::new();
    for (i, b) in behaviors.iter().enumerate() {
        let accounting = Arc::new(Accounting::default());
        accounts.push(Arc::clone(&accounting));
        moderator
            .register(
                &op,
                Concern::new(format!("probe-{i}")),
                Box::new(Probe {
                    behavior: *b,
                    accounting,
                    pending_blocks: std::collections::HashMap::new(),
                    seen: 0,
                }),
            )
            .unwrap();
    }
    let proxy = Arc::new(Moderated::new(0_u64, Arc::clone(&moderator)));
    std::thread::scope(|s| {
        for _ in 0..threads {
            let proxy = Arc::clone(&proxy);
            let op = op.clone();
            s.spawn(move || {
                for _ in 0..invocations {
                    // Aborts and timeouts are both expected outcomes.
                    let _ = proxy
                        .invoke_timeout(&op, std::time::Duration::from_millis(50), |c| *c += 1);
                }
            });
        }
    });
    accounts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Reservation balance: resumed == posted + released for every
    /// aspect in the chain, whatever the chain shape and thread count.
    #[test]
    fn reservation_balance_holds(
        behaviors in proptest::collection::vec(behavior(), 1..5),
        threads in 1..3u64,
    ) {
        let accounts = run_chain(&behaviors, 12, threads);
        for (i, a) in accounts.iter().enumerate() {
            let resumed = a.resumed.load(Ordering::SeqCst);
            let posted = a.posted.load(Ordering::SeqCst);
            let released = a.released.load(Ordering::SeqCst);
            prop_assert_eq!(
                resumed,
                posted + released,
                "probe {} (behavior {:?}) unbalanced: resumed={} posted={} released={}",
                i, behaviors[i], resumed, posted, released
            );
        }
    }
}

/// Deterministic corner: an all-blocking chain with two threads — the
/// pathological ping-pong — still balances and completes.
#[test]
fn ping_pong_blockers_balance() {
    let accounts = run_chain(&[Behavior::BlockThen(2), Behavior::BlockThen(1)], 25, 2);
    for a in &accounts {
        assert_eq!(
            a.resumed.load(Ordering::SeqCst),
            a.posted.load(Ordering::SeqCst) + a.released.load(Ordering::SeqCst)
        );
    }
}

/// Stats-level balance for the same random-ish workload.
#[test]
fn moderator_stats_balance_under_aborts() {
    let moderator = AspectModerator::shared();
    let op = moderator.declare_method(MethodId::new("op"));
    moderator
        .register(
            &op,
            Concern::new("flaky"),
            Box::new(Probe {
                behavior: Behavior::AbortEvery(3),
                accounting: Arc::new(Accounting::default()),
                pending_blocks: std::collections::HashMap::new(),
                seen: 0,
            }),
        )
        .unwrap();
    let proxy = Moderated::new(0_u32, Arc::clone(&moderator));
    let mut ok = 0;
    let mut failed = 0;
    for _ in 0..99 {
        match proxy.invoke(&op, |c| *c += 1) {
            Ok(()) => ok += 1,
            Err(_) => failed += 1,
        }
    }
    assert_eq!(ok, 66);
    assert_eq!(failed, 33);
    let s = moderator.stats();
    assert_eq!(s.preactivations, 99);
    assert_eq!(s.resumes, 66);
    assert_eq!(s.aborts, 33);
    assert_eq!(s.postactivations, 66);
}
