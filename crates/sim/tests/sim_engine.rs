//! The simulator as the moderator's third engine (after the condvar
//! engine and the test-probe engine): a real `AspectModerator` —
//! unmodified protocol code — driven down seeded, replayable schedules
//! with virtual time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use amf_concurrency::Clock;
use amf_core::trace::EventKind;
use amf_core::{
    AbortError, AspectModerator, Concern, FairnessPolicy, FnAspect, InvocationContext, MemoryTrace,
    MethodHandle, MethodId, Verdict,
};
use amf_sim::{
    run_buffer_scenario, run_topology_scenario, ReplayHeader, ScenarioParams, SimRunner,
    TopologyParams, TopologyReplayHeader,
};

fn invoke(m: &AspectModerator, h: &MethodHandle) {
    let invocation = m.next_invocation();
    let mut ctx = InvocationContext::new(h.id().clone(), invocation);
    m.preactivation(h, &mut ctx).expect("no aborts wired");
    m.postactivation(h, &mut ctx);
}

/// The capacity-1 buffer from the fairness stress suite, built on a
/// simulated engine and clock.
struct SimBuffer {
    moderator: Arc<AspectModerator>,
    trace: Arc<MemoryTrace>,
    open: MethodHandle,
    take: MethodHandle,
    slots: Arc<AtomicU64>,
    items: Arc<AtomicU64>,
}

fn sim_buffer(runner: &SimRunner, fairness: FairnessPolicy) -> SimBuffer {
    let slots = Arc::new(AtomicU64::new(1));
    let items = Arc::new(AtomicU64::new(0));
    let trace = MemoryTrace::shared();
    let moderator = Arc::new(
        AspectModerator::builder()
            .fairness(fairness)
            .engine(Arc::new(runner.engine()))
            .clock(Arc::new(runner.clock()))
            .trace(trace.clone())
            .build(),
    );
    let open = moderator.declare_method(MethodId::new("open"));
    let take = moderator.declare_method(MethodId::new("take"));
    {
        let slots = Arc::clone(&slots);
        let items = Arc::clone(&items);
        moderator
            .register(
                &open,
                Concern::synchronization(),
                Box::new(
                    FnAspect::new("slot-gate")
                        .on_precondition(move |_| {
                            if slots.load(Ordering::SeqCst) > 0 {
                                slots.fetch_sub(1, Ordering::SeqCst);
                                Verdict::Resume
                            } else {
                                Verdict::Block
                            }
                        })
                        .on_postaction(move |_| {
                            items.fetch_add(1, Ordering::SeqCst);
                        }),
                ),
            )
            .unwrap();
    }
    {
        let slots = Arc::clone(&slots);
        let items = Arc::clone(&items);
        moderator
            .register(
                &take,
                Concern::synchronization(),
                Box::new(
                    FnAspect::new("item-gate")
                        .on_precondition(move |_| {
                            if items.load(Ordering::SeqCst) > 0 {
                                items.fetch_sub(1, Ordering::SeqCst);
                                Verdict::Resume
                            } else {
                                Verdict::Block
                            }
                        })
                        .on_postaction(move |_| {
                            slots.fetch_add(1, Ordering::SeqCst);
                        }),
                ),
            )
            .unwrap();
    }
    moderator.wire_wakes(&open, std::slice::from_ref(&take));
    moderator.wire_wakes(&take, std::slice::from_ref(&open));
    SimBuffer {
        moderator,
        trace,
        open,
        take,
        slots,
        items,
    }
}

/// Zero-inversion check from the fairness suites: grant order of parked
/// callers equals park order.
fn assert_no_inversions(trace: &MemoryTrace, method: &MethodId) {
    let mut park = Vec::new();
    let mut grant = Vec::new();
    for e in trace.events() {
        if e.method != *method {
            continue;
        }
        match e.kind {
            EventKind::WaitStarted if !park.contains(&e.invocation) => park.push(e.invocation),
            EventKind::ActivationResumed => grant.push(e.invocation),
            _ => {}
        }
    }
    let granted_parked: Vec<u64> = grant.iter().copied().filter(|i| park.contains(i)).collect();
    assert_eq!(granted_parked, park, "wake-order inversion on {method}");
}

/// Grant order of `method` invocations, for cross-run comparison.
fn grant_order(trace: &MemoryTrace) -> Vec<(u64, String)> {
    trace
        .events()
        .into_iter()
        .filter(|e| matches!(e.kind, EventKind::ActivationResumed))
        .map(|e| (e.invocation, e.method.as_str().to_string()))
        .collect()
}

/// One seeded fairness storm: 4 producers × 25 rounds against one
/// consumer on the capacity-1 buffer, under strict FIFO.
fn fairness_storm(seed: u64) -> (Vec<(u64, String)>, Vec<usize>) {
    const PRODUCERS: u64 = 4;
    const ROUNDS: u64 = 25;
    let mut runner = SimRunner::new(seed);
    let buf = sim_buffer(&runner, FairnessPolicy::Fifo);
    for p in 0..PRODUCERS {
        let m = Arc::clone(&buf.moderator);
        let open = buf.open.clone();
        runner.spawn(&format!("p{p}"), move || {
            for _ in 0..ROUNDS {
                invoke(&m, &open);
            }
        });
    }
    {
        let m = Arc::clone(&buf.moderator);
        let take = buf.take.clone();
        runner.spawn("c0", move || {
            for _ in 0..PRODUCERS * ROUNDS {
                invoke(&m, &take);
            }
        });
    }
    let report = runner.run();
    assert_eq!(report.error, None);
    assert!(report.panics.is_empty(), "{:?}", report.panics);
    assert_no_inversions(&buf.trace, buf.open.id());
    assert_no_inversions(&buf.trace, buf.take.id());
    let s = buf.moderator.stats();
    assert_eq!(s.resumes, 2 * PRODUCERS * ROUNDS, "{s:?}");
    assert_eq!(s.tickets_issued, s.tickets_served, "{s:?}");
    assert_eq!(
        (
            buf.slots.load(Ordering::SeqCst),
            buf.items.load(Ordering::SeqCst)
        ),
        (1, 0),
        "buffer must be quiescent"
    );
    (grant_order(&buf.trace), report.schedule)
}

#[test]
fn fifo_fairness_storm_holds_under_sim_engine() {
    fairness_storm(0xfa1f);
}

#[test]
fn same_seed_storms_grant_identically() {
    let (grants_a, schedule_a) = fairness_storm(99);
    let (grants_b, schedule_b) = fairness_storm(99);
    assert_eq!(schedule_a, schedule_b, "same seed, same schedule");
    assert_eq!(grants_a, grants_b, "same seed, same grant order");
}

#[test]
fn different_seeds_explore_different_schedules() {
    // Not guaranteed for every seed pair in principle, but with ~500
    // scheduling decisions two identical runs would mean the seed is
    // being ignored.
    let (_, schedule_a) = fairness_storm(1);
    let (_, schedule_b) = fairness_storm(2);
    assert_ne!(schedule_a, schedule_b);
}

#[test]
fn replaying_a_storm_schedule_reproduces_it() {
    let (grants, schedule) = fairness_storm(7);
    const PRODUCERS: u64 = 4;
    const ROUNDS: u64 = 25;
    let mut runner = SimRunner::replay(7, schedule.clone());
    let buf = sim_buffer(&runner, FairnessPolicy::Fifo);
    for p in 0..PRODUCERS {
        let m = Arc::clone(&buf.moderator);
        let open = buf.open.clone();
        runner.spawn(&format!("p{p}"), move || {
            for _ in 0..ROUNDS {
                invoke(&m, &open);
            }
        });
    }
    {
        let m = Arc::clone(&buf.moderator);
        let take = buf.take.clone();
        runner.spawn("c0", move || {
            for _ in 0..PRODUCERS * ROUNDS {
                invoke(&m, &take);
            }
        });
    }
    let report = runner.run();
    assert_eq!(report.error, None, "replay followed without divergence");
    assert_eq!(report.schedule, schedule);
    assert_eq!(grant_order(&buf.trace), grants);
}

#[test]
fn virtual_clock_times_out_a_blocked_wait_instantly() {
    let mut runner = SimRunner::new(3);
    let clock = runner.clock();
    let buf = sim_buffer(&runner, FairnessPolicy::Fifo);
    let outcome = Arc::new(Mutex::new(None));
    {
        let m = Arc::clone(&buf.moderator);
        let take = buf.take.clone();
        let outcome = Arc::clone(&outcome);
        // The buffer is empty and nobody produces: the take can only
        // end by timing out — at virtual time, not wall time.
        runner.spawn("t0", move || {
            let invocation = m.next_invocation();
            let mut ctx = InvocationContext::new(take.id().clone(), invocation);
            let result = m.preactivation_timeout(&take, &mut ctx, Duration::from_secs(3600));
            *outcome.lock().unwrap() = Some(result);
        });
    }
    let wall_start = std::time::Instant::now();
    let report = runner.run();
    assert_eq!(report.error, None);
    assert!(
        matches!(
            outcome.lock().unwrap().as_ref(),
            Some(Err(AbortError::Timeout { .. }))
        ),
        "blocked take must time out"
    );
    assert!(
        clock.now() >= Duration::from_secs(3600),
        "virtual clock jumped to the deadline, got {:?}",
        clock.now()
    );
    assert!(
        wall_start.elapsed() < Duration::from_secs(60),
        "an hour of virtual waiting must not take an hour of wall time"
    );
    assert_eq!(buf.moderator.stats().timeouts, 1);
}

#[test]
fn deadlock_is_reported_not_hung() {
    let mut runner = SimRunner::new(5);
    let buf = sim_buffer(&runner, FairnessPolicy::Fifo);
    {
        let m = Arc::clone(&buf.moderator);
        let take = buf.take.clone();
        // Take from an empty buffer with no producer and no timeout:
        // a genuine deadlock the scheduler must name, not hang on.
        runner.spawn("t0", move || invoke(&m, &take));
    }
    let report = runner.run();
    let err = report.error.expect("deadlock must be reported");
    assert!(err.contains("deadlock"), "{err}");
    assert!(err.contains("t0"), "names the parked thread: {err}");
}

#[test]
fn body_panics_are_recorded_and_do_not_stall_the_run() {
    amf_sim::silence_panic_hook();
    let mut runner = SimRunner::new(11);
    let buf = sim_buffer(&runner, FairnessPolicy::Fifo);
    {
        let m = Arc::clone(&buf.moderator);
        let open = buf.open.clone();
        runner.spawn("p0", move || {
            invoke(&m, &open);
            panic!("injected body panic");
        });
    }
    {
        let m = Arc::clone(&buf.moderator);
        let take = buf.take.clone();
        runner.spawn("c0", move || invoke(&m, &take));
    }
    let report = runner.run();
    assert_eq!(report.error, None, "the consumer still drains the item");
    assert_eq!(report.panics.len(), 1);
    assert_eq!(report.panics[0].0, "p0");
    assert!(report.panics[0].1.contains("injected body panic"));
}

/// The lock-free fast lane under the simulator: a capability-declared
/// `audit` method races the blocking buffer pair, so the run exercises
/// CAS admits interleaved with parks, wakes, and the lane closing and
/// reopening around them. Recording the schedule and replaying it
/// reproduces the *entire* trace event stream byte-for-byte — fast
/// admits included — and the same `fast_path_admits` count.
#[test]
fn fast_path_record_then_replay_is_byte_identical() {
    use amf_core::AspectCapabilities;

    const ROUNDS: u64 = 10;
    let run = |schedule: Option<Vec<usize>>| {
        let mut runner = match schedule {
            Some(s) => SimRunner::replay(4242, s),
            None => SimRunner::new(4242),
        };
        let buf = sim_buffer(&runner, FairnessPolicy::Fifo);
        let audit = buf.moderator.declare_method(MethodId::new("audit"));
        buf.moderator
            .register(
                &audit,
                Concern::synchronization(),
                Box::new(
                    FnAspect::new("pure-gate")
                        .on_precondition(|_| Verdict::Resume)
                        .declare_capabilities(AspectCapabilities::all()),
                ),
            )
            .unwrap();
        buf.moderator.wire_wakes(&audit, &[]);
        for p in 0..2u64 {
            let m = Arc::clone(&buf.moderator);
            let open = buf.open.clone();
            let audit = audit.clone();
            runner.spawn(&format!("p{p}"), move || {
                for _ in 0..ROUNDS {
                    invoke(&m, &audit);
                    invoke(&m, &open);
                }
            });
        }
        {
            let m = Arc::clone(&buf.moderator);
            let take = buf.take.clone();
            let audit = audit.clone();
            runner.spawn("c0", move || {
                for _ in 0..2 * ROUNDS {
                    invoke(&m, &take);
                    invoke(&m, &audit);
                }
            });
        }
        let report = runner.run();
        assert_eq!(report.error, None);
        assert!(report.panics.is_empty(), "{:?}", report.panics);
        let stats = buf.moderator.stats();
        let rendered = format!("{:?}", buf.trace.events());
        (report.schedule, rendered, stats)
    };

    let (schedule, rendered, stats) = run(None);
    assert!(
        stats.fast_path_admits > 0,
        "the pure method must take the CAS lane: {stats:?}"
    );
    let (schedule_b, rendered_b, stats_b) = run(Some(schedule.clone()));
    assert_eq!(schedule_b, schedule, "replay followed without divergence");
    assert_eq!(
        rendered_b.as_bytes(),
        rendered.as_bytes(),
        "byte-identical trace reproduction"
    );
    assert_eq!(stats_b.fast_path_admits, stats.fast_path_admits);
    assert_eq!(stats_b.fast_path_fallbacks, stats.fast_path_fallbacks);
}

#[test]
fn scenario_record_then_replay_is_byte_identical() {
    let params = ScenarioParams {
        seed: 1234,
        producers: 3,
        consumers: 2,
        rounds: 4,
        fault_permille: 200,
    };
    let recorded = run_buffer_scenario(&params, None);
    assert_eq!(recorded.error, None);
    let json = recorded.to_json();
    let header = ReplayHeader::scan(&json).expect("artifact scans");
    assert_eq!(header.seed, params.seed);
    let replayed = run_buffer_scenario(&params, Some(header.schedule));
    assert_eq!(replayed.to_json(), json, "byte-identical reproduction");
}

/// Regression for the recorded fast-path counters: a fault-free run's
/// audit row rides the lock-free lane, the artifact surfaces both
/// counters, and they sit inside the byte-identity perimeter — a
/// replay that admitted differently could not reproduce the bytes.
#[test]
fn scenario_artifact_surfaces_fast_path_counters() {
    let params = ScenarioParams {
        seed: 9,
        producers: 2,
        consumers: 2,
        rounds: 5,
        fault_permille: 0,
    };
    let recorded = run_buffer_scenario(&params, None);
    assert_eq!(recorded.error, None);
    assert!(
        recorded.fast_path_admits > 0,
        "fault-free audit row must use the lane: {recorded:?}"
    );
    assert_eq!(
        recorded.fast_path_fallbacks, 0,
        "the token scheduler never loses a CAS: {recorded:?}"
    );
    let json = recorded.to_json();
    assert!(json.contains(&format!(
        "\"fast_path\": {{ \"admits\": {}, \"fallbacks\": 0 }}",
        recorded.fast_path_admits
    )));
    let header = ReplayHeader::scan(&json).expect("artifact scans");
    let replayed = run_buffer_scenario(&params, Some(header.schedule));
    assert_eq!(replayed.fast_path_admits, recorded.fast_path_admits);
    assert_eq!(replayed.to_json(), json, "byte-identical reproduction");
}

// ------------------------------------------------------------------ //
// Multi-moderator topology: a ring of lease nodes, each with its own
// moderator, joined by virtual planes (virtual-clock delays, reorderable
// in flight, droppable). Recovery is off (`expiry_ns == 0`) in this
// block. The model-checked twin of these properties lives in
// crates/verify/tests/multi_moderator.rs.
// ------------------------------------------------------------------ //

/// The 2-node lease handoff records and replays byte-identically, the
/// couriers preserve FIFO per channel despite in-flight reordering,
/// every lease retires, and the per-node telemetry rows exercise the
/// fast lane (the counters the artifact surfaces).
#[test]
fn topology_record_then_replay_is_byte_identical() {
    let params = TopologyParams {
        seed: 4242,
        nodes: 2,
        leases: 3,
        hops: 4,
        max_delay_ns: 50_000,
        drop_nth: None,
        dup_nth: None,
        expiry_ns: 0,
    };
    let recorded = run_topology_scenario(&params, None);
    assert_eq!(recorded.error, None, "{recorded:?}");

    // Every lease retires exactly once.
    let mut retired = recorded.retired.clone();
    retired.sort_unstable();
    assert_eq!(retired, vec![0, 1, 2]);
    // Cross-node FIFO no-overtake: per channel, delivered sequence
    // numbers are exactly 0, 1, 2, ... in delivery order.
    for channel in 0..params.nodes {
        let seqs: Vec<u64> = recorded
            .handoffs
            .iter()
            .filter(|(c, _, _)| *c == channel)
            .map(|(_, seq, _)| *seq)
            .collect();
        assert_eq!(
            seqs,
            (0..seqs.len() as u64).collect::<Vec<_>>(),
            "channel {channel}"
        );
    }
    // node 0 receives leases*hops - leases handoffs, node 1 leases*hops.
    assert_eq!(
        recorded.handoffs.len() as u64,
        2 * params.leases * params.hops - params.leases
    );
    assert!(
        recorded.fast_path_admits > 0,
        "telemetry row must ride the lane"
    );

    let json = recorded.to_json();
    let header = TopologyReplayHeader::scan(&json).expect("artifact scans");
    assert_eq!(header.seed, params.seed);
    assert_eq!(header.drop_nth, None);
    let replayed = run_topology_scenario(&params, Some(header.schedule));
    assert_eq!(replayed.to_json(), json, "byte-identical reproduction");
}

/// Same-seed determinism and cross-seed schedule sensitivity: the
/// handoff interleaving is a pure function of the seed.
#[test]
fn topology_runs_are_deterministic_per_seed() {
    let params = TopologyParams {
        seed: 7,
        nodes: 3,
        leases: 2,
        hops: 2,
        max_delay_ns: 10_000,
        drop_nth: None,
        dup_nth: None,
        expiry_ns: 0,
    };
    let a = run_topology_scenario(&params, None);
    let b = run_topology_scenario(&params, None);
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.error, None);
}

/// Dropping one handoff in flight starves the receiving courier's
/// sequence cursor; the ring winds down and the scheduler reports a
/// deadlock naming the parked threads instead of hanging the test.
#[test]
fn topology_dropped_handoff_is_a_detected_deadlock() {
    let params = TopologyParams {
        seed: 4242,
        nodes: 2,
        leases: 2,
        hops: 3,
        max_delay_ns: 1_000,
        drop_nth: Some(3),
        dup_nth: None,
        expiry_ns: 0,
    };
    let recorded = run_topology_scenario(&params, None);
    let err = recorded
        .error
        .as_deref()
        .expect("dropped handoff must deadlock");
    assert!(err.contains("deadlock"), "{err}");
    // The artifact still renders and carries the ablation parameter,
    // so a postmortem replay reproduces the stuck run.
    let json = recorded.to_json();
    let header = TopologyReplayHeader::scan(&json).expect("artifact scans");
    assert_eq!(header.drop_nth, Some(3));
    // Fewer leases retire than circulate: the ring really starved.
    assert!(recorded.retired.len() < params.leases as usize + 1);
    // The stuck run replays byte-identically, deadlock and all.
    let replayed = run_topology_scenario(&params, Some(header.schedule));
    assert_eq!(replayed.to_json(), json, "byte-identical reproduction");
}

// ------------------------------------------------------------------ //
// Recovery mode (`expiry_ns > 0`): the same ring with retransmission,
// expiry and reclaim switched on — the node the live TCP peers run,
// here under the virtual clock.
// ------------------------------------------------------------------ //

/// A clean recovery-mode ring retires every lease with no reclaims and
/// records→replays byte-identically, recovery fields included.
#[test]
fn recovery_topology_record_then_replay_is_byte_identical() {
    let params = TopologyParams {
        seed: 4242,
        nodes: 2,
        leases: 2,
        hops: 3,
        max_delay_ns: 10_000,
        drop_nth: None,
        dup_nth: None,
        expiry_ns: 50_000_000,
    };
    let recorded = run_topology_scenario(&params, None);
    assert_eq!(recorded.error, None, "{recorded:?}");
    let mut retired = recorded.retired.clone();
    retired.sort_unstable();
    assert_eq!(retired, vec![0, 1], "every lease retires exactly once");
    assert_eq!(recorded.reclaimed, 0, "no reclaims on a clean ring");
    assert_eq!(recorded.degraded_entries, 0);
    // Per channel the delivered sequence numbers are still exactly
    // 0, 1, 2, ...: the cursor reassembles FIFO over the wire frames.
    for channel in 0..params.nodes {
        let seqs: Vec<u64> = recorded
            .handoffs
            .iter()
            .filter(|(c, _, _)| *c == channel)
            .map(|(_, seq, _)| *seq)
            .collect();
        assert_eq!(
            seqs,
            (0..seqs.len() as u64).collect::<Vec<_>>(),
            "channel {channel}"
        );
    }

    let json = recorded.to_json();
    let header = TopologyReplayHeader::scan(&json).expect("artifact scans");
    assert_eq!(header.expiry_ns, params.expiry_ns);
    let replayed = run_topology_scenario(&params, Some(header.schedule));
    assert_eq!(replayed.to_json(), json, "byte-identical reproduction");
}

/// The same dropped handoff that deadlocks the ring with recovery off
/// is absorbed by the recovery protocol: the sender retransmits into
/// the severed link, expires, reclaims the lease into degraded local
/// moderation, and the run completes with every lease retired exactly
/// once.
#[test]
fn recovery_severed_handoff_reclaims_instead_of_deadlocking() {
    let params = TopologyParams {
        seed: 4242,
        nodes: 2,
        leases: 2,
        hops: 3,
        max_delay_ns: 1_000,
        drop_nth: Some(3),
        dup_nth: None,
        expiry_ns: 10_000_000,
    };
    let recorded = run_topology_scenario(&params, None);
    assert_eq!(recorded.error, None, "recovery absorbs the severed link");
    let mut retired = recorded.retired.clone();
    retired.sort_unstable();
    assert_eq!(retired, vec![0, 1], "no lease lost, none doubled");
    assert!(
        recorded.retransmits > 0,
        "the severed handoff was retried before expiring: {recorded:?}"
    );
    assert_eq!(recorded.reclaimed, 1, "exactly the severed handoff expires");
    assert!(
        recorded.degraded_entries > 0,
        "the reclaimed visit is moderated locally in degraded mode"
    );

    // The full recovery run — backoff timers, expiry, reclaim — still
    // replays byte-identically from its recorded schedule.
    let json = recorded.to_json();
    let header = TopologyReplayHeader::scan(&json).expect("artifact scans");
    assert_eq!(header.drop_nth, Some(3));
    let replayed = run_topology_scenario(&params, Some(header.schedule));
    assert_eq!(replayed.to_json(), json, "byte-identical reproduction");
}

/// A duplicated handoff is detected by the receiver's dedup window and
/// dropped idempotently: the duplicate is counted, never delivered —
/// with recovery off too, since it is the same ring either way.
#[test]
fn recovery_duplicated_handoff_is_deduplicated() {
    for expiry_ns in [50_000_000, 0] {
        let params = TopologyParams {
            seed: 99,
            nodes: 2,
            leases: 2,
            hops: 3,
            max_delay_ns: 1_000,
            drop_nth: None,
            dup_nth: Some(2),
            expiry_ns,
        };
        let recorded = run_topology_scenario(&params, None);
        assert_eq!(recorded.error, None, "{recorded:?}");
        let mut retired = recorded.retired.clone();
        retired.sort_unstable();
        assert_eq!(retired, vec![0, 1], "no lease doubled by the duplicate");
        assert!(
            recorded.dup_dropped > 0,
            "the duplicate must be counted and dropped: {recorded:?}"
        );
        // Deliveries are still unique per (channel, seq).
        let mut keys: Vec<(u64, u64)> =
            recorded.handoffs.iter().map(|(c, s, _)| (*c, *s)).collect();
        let before = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), before, "no (channel, seq) delivered twice");
    }
}

/// Recovery-mode runs are a pure function of the seed, like runs with
/// recovery off: same seed twice gives the same artifact.
#[test]
fn recovery_topology_runs_are_deterministic_per_seed() {
    let params = TopologyParams {
        seed: 17,
        nodes: 3,
        leases: 2,
        hops: 2,
        max_delay_ns: 5_000,
        drop_nth: None,
        dup_nth: None,
        expiry_ns: 40_000_000,
    };
    let a = run_topology_scenario(&params, None);
    let b = run_topology_scenario(&params, None);
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.error, None);
}

#[test]
fn scenario_faults_are_deterministic_per_seed() {
    let params = ScenarioParams {
        seed: 77,
        producers: 2,
        consumers: 1,
        rounds: 10,
        fault_permille: 300,
    };
    let a = run_buffer_scenario(&params, None);
    let b = run_buffer_scenario(&params, None);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.grants, b.grants);
    assert!(!a.faults.is_empty(), "300‰ over 20 audits should inject");
}
