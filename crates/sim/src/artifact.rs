//! The replayable run artifact: a JSON record of one simulated run —
//! scenario parameters, the schedule, the grant order, and the injected
//! faults — plus the minimal field scanning replay needs to re-drive
//! it. Rendering is hand-rolled (the workspace's `serde` is an offline
//! API shim) and deterministic: replaying an artifact's schedule must
//! reproduce its bytes exactly, so byte equality is the replay check.

use std::time::Duration;

/// Everything recorded about one simulated scenario run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRecord {
    /// Scheduler (and fault-injection) seed.
    pub seed: u64,
    /// Scenario shape: producer thread count.
    pub producers: u64,
    /// Scenario shape: consumer thread count.
    pub consumers: u64,
    /// Rounds per producer.
    pub rounds: u64,
    /// Injected precondition-panic rate, in permille, on the audit
    /// method (0 disables injection).
    pub fault_permille: u64,
    /// Simulated-thread names, indexed by thread id.
    pub threads: Vec<String>,
    /// The full grant order (thread id per scheduling decision).
    pub schedule: Vec<usize>,
    /// Final virtual-clock reading, in nanoseconds.
    pub clock_ns: u128,
    /// `(invocation, method)` per pre-activation grant, in grant order.
    pub grants: Vec<(u64, String)>,
    /// Invocations aborted by an injected aspect panic, in order.
    pub faults: Vec<u64>,
    /// Invocations admitted through the moderator's lock-free fast
    /// lane (single CAS, chain skipped). Part of the byte-identity
    /// check: a replay that admits differently diverges here.
    pub fast_path_admits: u64,
    /// Fast-lane attempts that found the lane open but lost the CAS
    /// and fell back to the locked path. Always 0 under the simulator's
    /// token scheduler (one thread runs at a time, so the CAS never
    /// races) — recorded so a real-contention harness can reuse the
    /// artifact shape and so a nonzero value flags a scheduler bug.
    pub fast_path_fallbacks: u64,
    /// Scheduler-fatal condition (deadlock, replay divergence), if any.
    pub error: Option<String>,
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl RunRecord {
    /// Renders the artifact. The layout is fixed and the content is a
    /// pure function of the run, so a faithful replay reproduces the
    /// output byte for byte.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!(
            "  \"scenario\": {{ \"producers\": {}, \"consumers\": {}, \"rounds\": {}, \
             \"fault_permille\": {} }},\n",
            self.producers, self.consumers, self.rounds, self.fault_permille
        ));
        let names: Vec<String> = self
            .threads
            .iter()
            .map(|n| format!("\"{}\"", escape(n)))
            .collect();
        out.push_str(&format!("  \"threads\": [{}],\n", names.join(", ")));
        let steps: Vec<String> = self.schedule.iter().map(usize::to_string).collect();
        out.push_str(&format!("  \"schedule\": [{}],\n", steps.join(", ")));
        out.push_str(&format!("  \"clock_ns\": {},\n", self.clock_ns));
        let grants: Vec<String> = self
            .grants
            .iter()
            .map(|(inv, method)| {
                format!(
                    "{{ \"invocation\": {inv}, \"method\": \"{}\" }}",
                    escape(method)
                )
            })
            .collect();
        out.push_str(&format!("  \"grants\": [{}],\n", grants.join(", ")));
        let faults: Vec<String> = self.faults.iter().map(u64::to_string).collect();
        out.push_str(&format!("  \"faults\": [{}],\n", faults.join(", ")));
        out.push_str(&format!(
            "  \"fast_path\": {{ \"admits\": {}, \"fallbacks\": {} }},\n",
            self.fast_path_admits, self.fast_path_fallbacks
        ));
        match &self.error {
            None => out.push_str("  \"error\": null\n"),
            Some(e) => out.push_str(&format!("  \"error\": \"{}\"\n", escape(e))),
        }
        out.push_str("}\n");
        out
    }

    /// Final virtual clock as a [`Duration`].
    pub fn clock(&self) -> Duration {
        Duration::from_nanos(self.clock_ns as u64)
    }
}

/// Everything recorded about one simulated multi-moderator topology
/// run (`run_topology_scenario`): N lease nodes in a ring, each with
/// its own moderator, handing leases off over virtual planes with
/// virtual-clock delivery delays. Same byte-identity contract as
/// [`RunRecord`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyRecord {
    /// Scheduler (and delivery-jitter) seed.
    pub seed: u64,
    /// Ring size: independent moderator instances.
    pub nodes: u64,
    /// Leases circulating the ring (all start at node 0).
    pub leases: u64,
    /// Full ring laps each lease makes before retiring.
    pub hops: u64,
    /// Upper bound on the seeded per-message delivery delay, in
    /// nanoseconds of virtual time (0 = instant delivery).
    pub max_delay_ns: u64,
    /// Fault ablation: the global 1-based index of a frame send to
    /// sever if it is a grant. With recovery disabled
    /// (`expiry_ns == 0`) the lost handoff starves the receiver's
    /// sequence cursor and the whole ring winds down into a detected
    /// deadlock; with recovery enabled the sender reclaims the lease
    /// and the run completes.
    pub drop_nth: Option<u64>,
    /// Fault knob: the global 1-based index of a frame send to
    /// duplicate in flight, if any.
    pub dup_nth: Option<u64>,
    /// Lease expiry deadline in nanoseconds of virtual time; 0 turns
    /// recovery off (no retransmission, no reclaim).
    pub expiry_ns: u64,
    /// Simulated-thread names, indexed by thread id.
    pub threads: Vec<String>,
    /// The full grant order (thread id per scheduling decision).
    pub schedule: Vec<usize>,
    /// Final virtual-clock reading, in nanoseconds.
    pub clock_ns: u128,
    /// `(channel, seq, lease)` per completed handoff, in delivery
    /// order. Per channel, `seq` is strictly increasing — the
    /// receiver's `LeaseIn` holds out-of-order arrivals back — the FIFO
    /// no-overtake obligation the model checker proves.
    pub handoffs: Vec<(u64, u64, u64)>,
    /// Lease ids in retirement order.
    pub retired: Vec<u64>,
    /// Frames retransmitted after a backoff deadline, summed over the
    /// ring (0 with recovery disabled).
    pub retransmits: u64,
    /// Handoffs reclaimed after lease expiry, summed over the ring.
    pub reclaimed: u64,
    /// Duplicate frames dropped idempotently by receivers.
    pub dup_dropped: u64,
    /// Admissions moderated while a node was degraded (its successor
    /// link had reclaimed work outstanding).
    pub degraded_entries: u64,
    /// Fast-lane admissions summed over every node's moderator (the
    /// per-node telemetry row rides the lane).
    pub fast_path_admits: u64,
    /// Fast-lane CAS losses summed over every node's moderator.
    pub fast_path_fallbacks: u64,
    /// Scheduler-fatal condition (deadlock, replay divergence), if any.
    pub error: Option<String>,
}

impl TopologyRecord {
    /// Renders the artifact; fixed layout, byte-reproducible by a
    /// faithful replay (see [`RunRecord::to_json`]).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        let drop_nth = match self.drop_nth {
            None => "null".to_string(),
            Some(n) => n.to_string(),
        };
        let dup_nth = match self.dup_nth {
            None => "null".to_string(),
            Some(n) => n.to_string(),
        };
        out.push_str(&format!(
            "  \"topology\": {{ \"nodes\": {}, \"leases\": {}, \"hops\": {}, \
             \"max_delay_ns\": {}, \"drop_nth\": {}, \"dup_nth\": {}, \"expiry_ns\": {} }},\n",
            self.nodes,
            self.leases,
            self.hops,
            self.max_delay_ns,
            drop_nth,
            dup_nth,
            self.expiry_ns
        ));
        let names: Vec<String> = self
            .threads
            .iter()
            .map(|n| format!("\"{}\"", escape(n)))
            .collect();
        out.push_str(&format!("  \"threads\": [{}],\n", names.join(", ")));
        let steps: Vec<String> = self.schedule.iter().map(usize::to_string).collect();
        out.push_str(&format!("  \"schedule\": [{}],\n", steps.join(", ")));
        out.push_str(&format!("  \"clock_ns\": {},\n", self.clock_ns));
        let handoffs: Vec<String> = self
            .handoffs
            .iter()
            .map(|(channel, seq, lease)| {
                format!("{{ \"channel\": {channel}, \"seq\": {seq}, \"lease\": {lease} }}")
            })
            .collect();
        out.push_str(&format!("  \"handoffs\": [{}],\n", handoffs.join(", ")));
        let retired: Vec<String> = self.retired.iter().map(u64::to_string).collect();
        out.push_str(&format!("  \"retired\": [{}],\n", retired.join(", ")));
        out.push_str(&format!(
            "  \"recovery\": {{ \"retransmits\": {}, \"reclaimed\": {}, \"dup_dropped\": {}, \
             \"degraded_entries\": {} }},\n",
            self.retransmits, self.reclaimed, self.dup_dropped, self.degraded_entries
        ));
        out.push_str(&format!(
            "  \"fast_path\": {{ \"admits\": {}, \"fallbacks\": {} }},\n",
            self.fast_path_admits, self.fast_path_fallbacks
        ));
        match &self.error {
            None => out.push_str("  \"error\": null\n"),
            Some(e) => out.push_str(&format!("  \"error\": \"{}\"\n", escape(e))),
        }
        out.push_str("}\n");
        out
    }

    /// Final virtual clock as a [`Duration`].
    pub fn clock(&self) -> Duration {
        Duration::from_nanos(self.clock_ns as u64)
    }
}

/// The fields replay needs from a recorded topology artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyReplayHeader {
    /// Recorded seed.
    pub seed: u64,
    /// Recorded ring size.
    pub nodes: u64,
    /// Recorded lease count.
    pub leases: u64,
    /// Recorded laps per lease.
    pub hops: u64,
    /// Recorded delivery-jitter bound.
    pub max_delay_ns: u64,
    /// Recorded drop ablation, if any.
    pub drop_nth: Option<u64>,
    /// Recorded duplication knob, if any.
    pub dup_nth: Option<u64>,
    /// Recorded lease expiry (0 = recovery disabled).
    pub expiry_ns: u64,
    /// Recorded grant order, the replay script.
    pub schedule: Vec<usize>,
}

impl TopologyReplayHeader {
    /// Scans a [`TopologyRecord::to_json`] rendering for the replay
    /// fields; `None` on any missing or malformed field.
    pub fn scan(text: &str) -> Option<Self> {
        Some(Self {
            seed: scan_u64(text, "seed")?,
            nodes: scan_u64(text, "nodes")?,
            leases: scan_u64(text, "leases")?,
            hops: scan_u64(text, "hops")?,
            max_delay_ns: scan_u64(text, "max_delay_ns")?,
            drop_nth: scan_opt_u64(text, "drop_nth")?,
            dup_nth: scan_opt_u64(text, "dup_nth")?,
            expiry_ns: scan_u64(text, "expiry_ns")?,
            schedule: scan_usize_array(text, "schedule")?,
        })
    }
}

/// The value following `"key":` as `Some(n)` for digits, `None` (inner)
/// for `null`; outer `None` when the key is missing.
#[allow(clippy::option_option)]
fn scan_opt_u64(text: &str, key: &str) -> Option<Option<u64>> {
    let rest = after_key(text, key)?;
    if rest.starts_with("null") {
        return Some(None);
    }
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    Some(Some(digits.parse().ok()?))
}

/// The fields replay needs from a recorded artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayHeader {
    /// Scheduler (and fault-injection) seed of the recorded run.
    pub seed: u64,
    /// Recorded producer thread count.
    pub producers: u64,
    /// Recorded consumer thread count.
    pub consumers: u64,
    /// Recorded rounds per producer.
    pub rounds: u64,
    /// Recorded injection rate, in permille.
    pub fault_permille: u64,
    /// Recorded grant order, to be followed as the replay script.
    pub schedule: Vec<usize>,
}

impl ReplayHeader {
    /// Scans `text` (an artifact rendered by [`RunRecord::to_json`])
    /// for the replay fields. Returns `None` if any field is missing
    /// or malformed — this is a key scanner for our own fixed layout,
    /// not a general JSON parser.
    pub fn scan(text: &str) -> Option<Self> {
        Some(Self {
            seed: scan_u64(text, "seed")?,
            producers: scan_u64(text, "producers")?,
            consumers: scan_u64(text, "consumers")?,
            rounds: scan_u64(text, "rounds")?,
            fault_permille: scan_u64(text, "fault_permille")?,
            schedule: scan_usize_array(text, "schedule")?,
        })
    }
}

/// The digits following `"key":` (first occurrence), parsed as `u64`.
fn scan_u64(text: &str, key: &str) -> Option<u64> {
    let rest = after_key(text, key)?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// The `[n, n, ...]` following `"key":` (first occurrence).
fn scan_usize_array(text: &str, key: &str) -> Option<Vec<usize>> {
    let rest = after_key(text, key)?;
    let rest = rest.strip_prefix('[')?;
    let body = &rest[..rest.find(']')?];
    let trimmed = body.trim();
    if trimmed.is_empty() {
        return Some(Vec::new());
    }
    trimmed
        .split(',')
        .map(|part| part.trim().parse().ok())
        .collect()
}

/// The text following `"key":` with leading whitespace trimmed.
fn after_key<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)?;
    Some(text[at + needle.len()..].trim_start())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> RunRecord {
        RunRecord {
            seed: 42,
            producers: 2,
            consumers: 1,
            rounds: 3,
            fault_permille: 125,
            threads: vec!["p0".into(), "p1".into(), "c0".into()],
            schedule: vec![0, 1, 2, 0, 2],
            clock_ns: 1_000_000,
            grants: vec![(1, "open".into()), (2, "take".into())],
            faults: vec![4],
            fast_path_admits: 6,
            fast_path_fallbacks: 0,
            error: None,
        }
    }

    #[test]
    fn scan_recovers_replay_fields() {
        let rec = record();
        let header = ReplayHeader::scan(&rec.to_json()).unwrap();
        assert_eq!(
            header,
            ReplayHeader {
                seed: 42,
                producers: 2,
                consumers: 1,
                rounds: 3,
                fault_permille: 125,
                schedule: vec![0, 1, 2, 0, 2],
            }
        );
    }

    #[test]
    fn rendering_is_deterministic() {
        assert_eq!(record().to_json(), record().to_json());
    }

    #[test]
    fn empty_schedule_scans_as_empty() {
        let mut rec = record();
        rec.schedule.clear();
        let header = ReplayHeader::scan(&rec.to_json()).unwrap();
        assert!(header.schedule.is_empty());
    }

    #[test]
    fn fast_path_counters_render_and_discriminate() {
        let rec = record();
        let json = rec.to_json();
        assert!(json.contains("\"fast_path\": { \"admits\": 6, \"fallbacks\": 0 }"));
        // The counters are inside the byte-identity perimeter: a run
        // that admits differently cannot render the same artifact.
        let mut other = record();
        other.fast_path_admits = 5;
        assert_ne!(other.to_json(), json);
        // And the replay scanner is unconfused by the nested object.
        assert_eq!(
            ReplayHeader::scan(&json),
            ReplayHeader::scan(&other.to_json())
        );
    }

    fn topology_record() -> TopologyRecord {
        TopologyRecord {
            seed: 7,
            nodes: 2,
            leases: 2,
            hops: 3,
            max_delay_ns: 500,
            drop_nth: None,
            dup_nth: None,
            expiry_ns: 0,
            threads: vec![
                "w0".into(),
                "courier0".into(),
                "w1".into(),
                "courier1".into(),
            ],
            schedule: vec![0, 2, 1, 3],
            clock_ns: 2_500,
            handoffs: vec![(1, 0, 0), (0, 0, 0), (1, 1, 1)],
            retired: vec![0, 1],
            retransmits: 0,
            reclaimed: 0,
            dup_dropped: 0,
            degraded_entries: 0,
            fast_path_admits: 12,
            fast_path_fallbacks: 0,
            error: None,
        }
    }

    #[test]
    fn topology_scan_recovers_replay_fields() {
        let rec = topology_record();
        let header = TopologyReplayHeader::scan(&rec.to_json()).unwrap();
        assert_eq!(
            header,
            TopologyReplayHeader {
                seed: 7,
                nodes: 2,
                leases: 2,
                hops: 3,
                max_delay_ns: 500,
                drop_nth: None,
                dup_nth: None,
                expiry_ns: 0,
                schedule: vec![0, 2, 1, 3],
            }
        );
    }

    #[test]
    fn topology_drop_nth_round_trips() {
        let mut rec = topology_record();
        rec.drop_nth = Some(4);
        let json = rec.to_json();
        assert!(json.contains("\"drop_nth\": 4"));
        let header = TopologyReplayHeader::scan(&json).unwrap();
        assert_eq!(header.drop_nth, Some(4));
    }

    #[test]
    fn topology_recovery_fields_round_trip() {
        let mut rec = topology_record();
        rec.dup_nth = Some(2);
        rec.expiry_ns = 50_000;
        rec.retransmits = 3;
        rec.reclaimed = 1;
        rec.dup_dropped = 2;
        rec.degraded_entries = 4;
        let json = rec.to_json();
        assert!(json.contains("\"dup_nth\": 2"));
        assert!(json.contains("\"expiry_ns\": 50000"));
        assert!(json.contains(
            "\"recovery\": { \"retransmits\": 3, \"reclaimed\": 1, \"dup_dropped\": 2, \
             \"degraded_entries\": 4 }"
        ));
        let header = TopologyReplayHeader::scan(&json).unwrap();
        assert_eq!(header.dup_nth, Some(2));
        assert_eq!(header.expiry_ns, 50_000);
        // Recovery counters sit inside the byte-identity perimeter.
        let mut other = rec.clone();
        other.retransmits = 0;
        assert_ne!(other.to_json(), json);
    }

    #[test]
    fn topology_rendering_is_deterministic() {
        assert_eq!(topology_record().to_json(), topology_record().to_json());
        // Handoffs and fast-path counters sit inside the byte-identity
        // perimeter.
        let mut other = topology_record();
        other.handoffs[0].1 = 9;
        assert_ne!(other.to_json(), topology_record().to_json());
        let mut other = topology_record();
        other.fast_path_admits = 0;
        assert_ne!(other.to_json(), topology_record().to_json());
    }

    #[test]
    fn error_strings_are_escaped() {
        let mut rec = record();
        rec.error = Some("deadlock: [\"a\"]\nparked".into());
        let json = rec.to_json();
        assert!(json.contains("\\\"a\\\""));
        assert!(json.contains("\\n"));
    }
}
