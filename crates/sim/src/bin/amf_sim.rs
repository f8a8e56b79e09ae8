//! `amf-sim`: record a deterministic simulated run of the buffer
//! scenario to a JSON artifact, or replay an artifact and verify the
//! reproduction is byte-identical.
//!
//! ```text
//! amf-sim record <path> [--seed N] [--producers N] [--consumers N]
//!                       [--rounds N] [--faults PERMILLE]
//! amf-sim replay <path>
//! amf-sim record-topology <path> [--seed N] [--nodes N] [--leases N]
//!                                [--hops N] [--max-delay NS] [--drop N]
//!                                [--dup N] [--expiry-ns NS]
//! amf-sim replay-topology <path>
//! ```
//!
//! `record` runs the scenario under a fresh seeded simulation and
//! writes the artifact (scenario parameters, full schedule, grant
//! order, injected faults, final virtual clock). `replay` re-drives
//! the scenario along the artifact's recorded schedule and compares
//! the regenerated artifact byte-for-byte against the file; any
//! divergence (including a schedule that no longer matches the code)
//! exits non-zero. The `-topology` pair does the same for the
//! multi-moderator lease-handoff ring of `amf_service::LeaseNode`s.
//! `--drop N` severs the Nth frame send if it is a grant: with recovery
//! off (`--expiry-ns 0`, the default) the run ends in a detected
//! deadlock, whose artifact replays like any other; with `--expiry-ns`
//! nonzero the recovery protocol (backoff retransmits, expiry, reclaim
//! into degraded local moderation) carries the run to completion.
//! `--dup N` delivers the Nth frame twice; the receiver drops the copy.

use std::process::ExitCode;

use amf_sim::{
    run_buffer_scenario, run_topology_scenario, ReplayHeader, ScenarioParams, TopologyParams,
    TopologyReplayHeader,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: amf-sim record <path> [--seed N] [--producers N] [--consumers N] \
         [--rounds N] [--faults PERMILLE]\n       amf-sim replay <path>\n       \
         amf-sim record-topology <path> [--seed N] [--nodes N] [--leases N] \
         [--hops N] [--max-delay NS] [--drop N] [--dup N] [--expiry-ns NS]\n       \
         amf-sim replay-topology <path>"
    );
    ExitCode::FAILURE
}

fn parse_flag(args: &[String], flag: &str, default: u64) -> Result<u64, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs an unsigned integer value")),
    }
}

fn record(path: &str, args: &[String]) -> Result<(), String> {
    let params = ScenarioParams {
        seed: parse_flag(args, "--seed", 42)?,
        producers: parse_flag(args, "--producers", 2)?,
        consumers: parse_flag(args, "--consumers", 1)?,
        rounds: parse_flag(args, "--rounds", 5)?,
        fault_permille: parse_flag(args, "--faults", 0)?,
    };
    let record = run_buffer_scenario(&params, None);
    std::fs::write(path, record.to_json()).map_err(|e| format!("write {path}: {e}"))?;
    println!(
        "recorded {path}: seed {}, {} threads, {} scheduling decisions, {} grants, \
         {} injected faults, virtual clock {:?}",
        record.seed,
        record.threads.len(),
        record.schedule.len(),
        record.grants.len(),
        record.faults.len(),
        record.clock(),
    );
    match &record.error {
        None => Ok(()),
        Some(e) => Err(format!("run ended abnormally: {e}")),
    }
}

fn replay(path: &str) -> Result<(), String> {
    let recorded = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let header =
        ReplayHeader::scan(&recorded).ok_or_else(|| format!("{path}: not an amf-sim artifact"))?;
    let params = ScenarioParams {
        seed: header.seed,
        producers: header.producers,
        consumers: header.consumers,
        rounds: header.rounds,
        fault_permille: header.fault_permille,
    };
    let replayed = run_buffer_scenario(&params, Some(header.schedule)).to_json();
    if replayed == recorded {
        println!(
            "replay of {path} reproduced the artifact byte-identically \
             ({} bytes)",
            recorded.len()
        );
        Ok(())
    } else {
        Err(format!(
            "replay of {path} diverged: regenerated artifact differs \
             ({} vs {} bytes)",
            replayed.len(),
            recorded.len()
        ))
    }
}

fn record_topology(path: &str, args: &[String]) -> Result<(), String> {
    let drop_nth = match parse_flag(args, "--drop", 0)? {
        0 => None,
        n => Some(n),
    };
    let dup_nth = match parse_flag(args, "--dup", 0)? {
        0 => None,
        n => Some(n),
    };
    let params = TopologyParams {
        seed: parse_flag(args, "--seed", 42)?,
        nodes: parse_flag(args, "--nodes", 2)?,
        leases: parse_flag(args, "--leases", 2)?,
        hops: parse_flag(args, "--hops", 3)?,
        max_delay_ns: parse_flag(args, "--max-delay", 1_000)?,
        drop_nth,
        dup_nth,
        expiry_ns: parse_flag(args, "--expiry-ns", 0)?,
    };
    let record = run_topology_scenario(&params, None);
    std::fs::write(path, record.to_json()).map_err(|e| format!("write {path}: {e}"))?;
    println!(
        "recorded {path}: seed {}, {}-node ring, {} scheduling decisions, {} handoffs, \
         {} leases retired, {} fast-lane admits, virtual clock {:?}",
        record.seed,
        record.nodes,
        record.schedule.len(),
        record.handoffs.len(),
        record.retired.len(),
        record.fast_path_admits,
        record.clock(),
    );
    match &record.error {
        None => Ok(()),
        // A drop ablation without recovery is *supposed* to end in a
        // detected deadlock; the artifact is still written for
        // postmortem replay. With recovery enabled the same drop must
        // be absorbed, so an error there is a real failure.
        Some(e) if record.drop_nth.is_some() && record.expiry_ns == 0 => {
            println!("expected ablation outcome: {e}");
            Ok(())
        }
        Some(e) => Err(format!("run ended abnormally: {e}")),
    }
}

fn replay_topology(path: &str) -> Result<(), String> {
    let recorded = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let header = TopologyReplayHeader::scan(&recorded)
        .ok_or_else(|| format!("{path}: not an amf-sim topology artifact"))?;
    let params = TopologyParams {
        seed: header.seed,
        nodes: header.nodes,
        leases: header.leases,
        hops: header.hops,
        max_delay_ns: header.max_delay_ns,
        drop_nth: header.drop_nth,
        dup_nth: header.dup_nth,
        expiry_ns: header.expiry_ns,
    };
    let replayed = run_topology_scenario(&params, Some(header.schedule)).to_json();
    if replayed == recorded {
        println!(
            "replay of {path} reproduced the topology artifact byte-identically \
             ({} bytes)",
            recorded.len()
        );
        Ok(())
    } else {
        Err(format!(
            "replay of {path} diverged: regenerated artifact differs \
             ({} vs {} bytes)",
            replayed.len(),
            recorded.len()
        ))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(mode), Some(path)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let result = match mode.as_str() {
        "record" => record(path, &args[2..]),
        "replay" => replay(path),
        "record-topology" => record_topology(path, &args[2..]),
        "replay-topology" => replay_topology(path),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("amf-sim: {e}");
            ExitCode::FAILURE
        }
    }
}
