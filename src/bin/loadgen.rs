//! Load generator for the networked ticket service.
//!
//! Spawns a local service (unless `--addr` points at a running one),
//! drives it with `--clients` concurrent connections issuing
//! `--requests` total operations (alternating `open`/`assign`), and
//! writes a JSON throughput/latency report to `BENCH_service.json`.
//! The report also carries a `wire_topology` section: a live 3-node
//! lease-handoff ring over loopback TCP run at 0‰ / 10‰ / 100‰
//! grant-plane faults, recording goodput, recovery work, and the
//! handoff recovery-latency digest. A `connection_scaling` section
//! (experiment E17) measures idle connections held live at once, the
//! fleet's resident-memory cost and request p99 under a modest load,
//! and judges count and memory against the retired threaded front's
//! recorded row, and p99 against the same load without the fleet.
//!
//! ```text
//! cargo run --release --bin loadgen -- --clients 8 --requests 10000
//! ```

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use amf_bench::experiments::{
    conn_scaling_meets, run_connection_scaling, run_wire_ring, ConnScaling, E17_ROUNDS,
    THREADED_FRONT_RECORD,
};
use amf_bench::report::{fmt_ns, fmt_ops, JsonObject, JsonValue, LatencySummary};
use amf_service::{run_load, LoadConfig, ServiceConfig, TicketService};

const REPORT_PATH: &str = "BENCH_service.json";

struct Args {
    clients: usize,
    requests: u64,
    addr: Option<SocketAddr>,
    report: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        clients: 8,
        requests: 10_000,
        addr: None,
        report: REPORT_PATH.to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--clients" => {
                args.clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?;
            }
            "--requests" => {
                args.requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?;
            }
            "--addr" => {
                args.addr = Some(
                    value("--addr")?
                        .parse()
                        .map_err(|e| format!("--addr: {e}"))?,
                );
            }
            "--report" => args.report = value("--report")?,
            "--help" | "-h" => {
                return Err(
                    "usage: loadgen [--clients N] [--requests N] [--addr HOST:PORT] [--report FILE]"
                        .to_string(),
                );
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.clients == 0 || args.requests == 0 {
        return Err("--clients and --requests must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    // Either target a running server or spawn one locally. The local
    // server gets enough workers for every client connection.
    let mut local = None;
    let addr = match args.addr {
        Some(addr) => addr,
        None => {
            let config = ServiceConfig {
                workers: args.clients.max(4) + 2,
                ..ServiceConfig::default()
            };
            let handle = match TicketService::spawn("127.0.0.1:0", config) {
                Ok(h) => h,
                Err(e) => {
                    eprintln!("failed to spawn local service: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let addr = handle.addr();
            local = Some(handle);
            addr
        }
    };

    let token = match &local {
        Some(handle) => {
            handle.authenticator().add_user("loadgen", "loadgen");
            match handle.authenticator().login("loadgen", "loadgen") {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("login failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => {
            eprintln!("--addr mode requires a token minted on the server; not supported yet");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "loadgen: {} clients x {} total requests against {addr}",
        args.clients, args.requests
    );
    let outcome = match run_load(&LoadConfig {
        clients: args.clients,
        requests: args.requests,
        addr,
        token,
    }) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("load run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut open = outcome.open_latencies_ns.clone();
    let mut assign = outcome.assign_latencies_ns.clone();
    let mut all = outcome.open_latencies_ns.clone();
    all.extend_from_slice(&outcome.assign_latencies_ns);
    let open_summary = LatencySummary::from_unsorted(&mut open);
    let assign_summary = LatencySummary::from_unsorted(&mut assign);
    let overall = LatencySummary::from_unsorted(&mut all);

    // Server-side counters (the full `StatsReply`), fetched before the
    // local server is torn down.
    let server_stats = local.as_ref().map(|handle| handle.stats());

    let mut report = JsonObject::new()
        .field("benchmark", "service_loadgen")
        .field("clients", args.clients)
        .field("requests", outcome.total())
        .field("ok", outcome.ok)
        .field("blocked", outcome.blocked)
        .field("aborted", outcome.aborted)
        .field("elapsed_ms", outcome.elapsed.as_secs_f64() * 1e3)
        .field("throughput_ops_per_sec", outcome.throughput())
        .field("open", open_summary.to_json())
        .field("assign", assign_summary.to_json())
        .field("overall", overall.to_json());
    if let Some(s) = &server_stats {
        report = report.field(
            "server_stats",
            JsonObject::new()
                .field("opened", s.opened)
                .field("assigned", s.assigned)
                .field("queued", s.queued)
                .field("aborts", s.aborts)
                .field("timeouts", s.timeouts)
                .field("max_queue_depth", s.max_queue_depth)
                .field("panics_caught", s.panics_caught)
                .field("batched_grants", s.batched_grants)
                .field("fast_path_admits", s.fast_path_admits)
                .field("fast_path_fallbacks", s.fast_path_fallbacks)
                .field("open_connections", s.open_connections)
                .field("tasks_parked", s.tasks_parked)
                .build(),
        );
    }

    // Wire-topology battery: the recovery state machine on real
    // loopback sockets at increasing fault rates.
    let expiry = Duration::from_millis(150);
    let mut wire = JsonObject::new().field("expiry_ms", 150_u64);
    for faults in [0_u64, 10, 100] {
        let r = run_wire_ring(faults, 2, 6, expiry);
        println!(
            "wire ring @ {faults}‰ faults: {:.0} visits/s, {} retransmits, {} reclaimed, \
             {} dups dropped, recovery p99 {}{}",
            r.goodput,
            r.retransmits,
            r.reclaimed,
            r.dup_dropped,
            fmt_ns(r.recovery.p99_ns as f64),
            if r.complete { "" } else { " [INCOMPLETE]" },
        );
        wire = wire.field(
            &format!("faults_{faults}_permille"),
            JsonObject::new()
                .field("goodput_visits_per_sec", r.goodput)
                .field("retransmits", r.retransmits)
                .field("reclaimed", r.reclaimed)
                .field("dup_dropped", r.dup_dropped)
                .field("recovery", r.recovery.to_json())
                .field("complete", if r.complete { "true" } else { "false" })
                .build(),
        );
    }
    let report = report.field("wire_topology", wire.build());

    // Connection-scaling battery (E17): the service holds a mostly-idle
    // connection fleet (every member proven live by stats round-trips
    // before and after) on a fixed 16-worker engine while a contended
    // 8-client active subset runs, and the same subset runs once more
    // before the fleet connects: the p99 yardstick. The threaded row is
    // the recorded one: that front, which pinned a pool worker per held
    // connection, has been retired.
    let run = run_connection_scaling(16, 2_040, 8_000, E17_ROUNDS);
    let threaded = THREADED_FRONT_RECORD;
    for (front, r) in [
        ("task", &run.held),
        ("task, no fleet", &run.bare),
        ("threaded, recorded", &threaded),
    ] {
        println!(
            "connection scaling [{front}]: {} conns held live, RSS delta {} KiB, \
             active p99 {} ({})",
            r.sustained,
            r.rss_delta_bytes / 1024,
            fmt_ns(r.p99_ns as f64),
            fmt_ops(r.throughput),
        );
    }
    let (tenfold, equal_rss, p99_no_worse) = conn_scaling_meets(&run, &threaded);
    let front_json = |workers: usize, r: &ConnScaling| -> JsonValue {
        JsonObject::new()
            .field("workers", workers)
            .field("sustained_connections", r.sustained)
            .field("rss_delta_bytes", r.rss_delta_bytes)
            .field("active_p99_ns", r.p99_ns)
            .field("throughput_ops_per_sec", r.throughput)
            .build()
    };
    let report = report.field(
        "connection_scaling",
        JsonObject::new()
            .field("task", front_json(16, &run.held))
            .field("task_no_fleet", front_json(16, &run.bare))
            .field("threaded", front_json(200, &threaded))
            .field(
                "meets",
                JsonObject::new()
                    .field(
                        "tenfold_connections",
                        if tenfold { "true" } else { "false" },
                    )
                    .field("equal_rss", if equal_rss { "true" } else { "false" })
                    .field("p99_no_worse", if p99_no_worse { "true" } else { "false" })
                    .build(),
            )
            .build(),
    );

    let report = report.build();
    if let Err(e) = std::fs::write(&args.report, format!("{report}\n")) {
        eprintln!("failed to write {}: {e}", args.report);
        return ExitCode::FAILURE;
    }

    println!(
        "done: {} ok, {} blocked, {} aborted in {:.1} ms ({})",
        outcome.ok,
        outcome.blocked,
        outcome.aborted,
        outcome.elapsed.as_secs_f64() * 1e3,
        fmt_ops(outcome.throughput()),
    );
    println!(
        "latency p50 {} / p95 {} / p99 {} (report: {})",
        fmt_ns(overall.p50_ns as f64),
        fmt_ns(overall.p95_ns as f64),
        fmt_ns(overall.p99_ns as f64),
        args.report,
    );

    if let Some(s) = &server_stats {
        println!(
            "server stats: opened={} assigned={} queued={} aborts={} timeouts={} \
             max_queue_depth={} panics_caught={} batched_grants={} fast_path_admits={} \
             fast_path_fallbacks={} open_connections={} tasks_parked={}",
            s.opened,
            s.assigned,
            s.queued,
            s.aborts,
            s.timeouts,
            s.max_queue_depth,
            s.panics_caught,
            s.batched_grants,
            s.fast_path_admits,
            s.fast_path_fallbacks,
            s.open_connections,
            s.tasks_parked,
        );
    }

    if let Some(mut handle) = local {
        handle.shutdown();
    }
    ExitCode::SUCCESS
}
