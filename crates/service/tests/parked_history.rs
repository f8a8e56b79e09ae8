//! A parked invocation's history does not grow with its wait.
//!
//! A service `assign` on an empty buffer resumes metrics, auth and
//! quota before sync blocks it, so every blocked pass rolls those three
//! back and notifies `open`. The moderator re-evaluates a blocked chain
//! only when notified: N such waiters, parked side by side until their
//! `op_timeout` runs out, each leave the same short history (first
//! pass, wait, timeout clean-up) whether they wait 50 ms or 400 ms, and
//! however many of them wait together. A re-check timer, or a rollback
//! that wakes its own method, would add a pass per tick or per
//! neighbour's pass, and the counts would grow with the wait.

use std::collections::BTreeSet;
use std::thread;
use std::time::Duration;

use amf_aspects::auth::AuthToken;
use amf_service::{ClientError, ServiceClient, ServiceConfig, TicketService};

/// The most trace events one parked-then-timed-out `assign` may leave.
const MAX_EVENTS: usize = 20;

/// Parks `waiters` assigns on an empty buffer — over the wire or
/// through the in-process proxy — until `wait` (the service's
/// `op_timeout`) runs out, and returns each one's trace-event count,
/// sorted.
fn parked_histories(over_wire: bool, waiters: usize, wait: Duration) -> Vec<usize> {
    let handle = TicketService::spawn(
        "127.0.0.1:0",
        ServiceConfig {
            op_timeout: wait,
            ..ServiceConfig::default()
        },
    )
    .expect("spawn service");
    handle.authenticator().add_user("ops", "pw");
    let token = handle.authenticator().login("ops", "pw").unwrap();
    thread::scope(|s| {
        for _ in 0..waiters {
            s.spawn(|| {
                if over_wire {
                    let mut client = ServiceClient::connect(handle.addr()).unwrap();
                    match client.assign(token) {
                        Err(ClientError::Blocked) => {}
                        other => panic!("expected the assign to time out, got {other:?}"),
                    }
                } else {
                    let err = handle
                        .proxy()
                        .assign_timeout(AuthToken(token.0), wait)
                        .unwrap_err();
                    assert!(err.is_timeout(), "{err:?}");
                }
            });
        }
    });
    let trace = handle.trace();
    let invocations: BTreeSet<u64> = trace
        .events()
        .iter()
        .filter(|e| e.method.as_str() == "assign" && e.invocation != 0)
        .map(|e| e.invocation)
        .collect();
    assert_eq!(invocations.len(), waiters, "one invocation per waiter");
    let mut counts: Vec<usize> = invocations
        .iter()
        .map(|&i| trace.events_for(i).len())
        .collect();
    counts.sort_unstable();
    counts
}

fn assert_flat(over_wire: bool) {
    for waiters in [1, 2, 4] {
        let short = parked_histories(over_wire, waiters, Duration::from_millis(50));
        let long = parked_histories(over_wire, waiters, Duration::from_millis(400));
        assert_eq!(
            short, long,
            "history grew with the wait (wire={over_wire}, {waiters} waiters)"
        );
        assert!(
            long.iter().all(|&n| n <= MAX_EVENTS),
            "history too long (wire={over_wire}, {waiters} waiters): {long:?}"
        );
    }
}

#[test]
fn in_process_parked_assign_history_is_flat() {
    assert_flat(false);
}

#[test]
fn wire_parked_assign_history_is_flat() {
    assert_flat(true);
}
