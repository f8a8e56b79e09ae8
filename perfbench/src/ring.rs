//! `lease_ring`: a 3-node `PeerNode` ring over loopback, each link
//! behind a seeded `FaultProxy` that drops and duplicates 10‰ of the
//! grant frames. Leases circulate until their visit budgets run out.
//! The only workload that reaches the peer session layer and the lease
//! recovery machine (retransmission, dedup, expiry).

use std::time::{Duration, Instant};

use amf_core::LeaseConfig;
use amf_service::{FaultProxy, FaultProxyConfig, PeerConfig, PeerNode};

use crate::procstat::thread_cpu_ns;
use crate::{alloc, per, usage_layers, CountPass, Inputs, Round, RoundCtx, Window, Workload};

const NODES: usize = 3;
const LEASES: u64 = 8;
const VISITS: u64 = 120;
const FAULT_PERMILLE: u64 = 10;
const ROUND_CAP: Duration = Duration::from_secs(60);

pub struct LeaseRing;

struct Ring {
    nodes: Vec<PeerNode>,
    _proxies: Vec<FaultProxy>,
}

fn spawn_ring(inputs: &mut Inputs, leases: u64, visits: u64) -> Result<Ring, String> {
    let lease = LeaseConfig {
        expiry: Duration::from_millis(150),
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(40),
        jitter_seed: inputs.rng().next_u64(),
    };
    let nodes = (0..NODES)
        .map(|i| {
            PeerNode::spawn(PeerConfig {
                node: i as u64,
                seed_leases: if i == 0 { leases } else { 0 },
                visits,
                lease: lease.clone(),
                ..PeerConfig::default()
            })
        })
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("spawn node: {e}"))?;
    let mut proxies = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
        let proxy = FaultProxy::spawn(FaultProxyConfig {
            target: nodes[(i + 1) % NODES].addr().to_string(),
            drop_permille: FAULT_PERMILLE,
            dup_permille: FAULT_PERMILLE,
            max_delay: Duration::from_micros(200),
            seed: inputs.rng().next_u64(),
            ..FaultProxyConfig::default()
        })
        .map_err(|e| format!("spawn fault proxy: {e}"))?;
        node.set_next(&proxy.addr().to_string());
        proxies.push(proxy);
    }
    Ok(Ring {
        nodes,
        _proxies: proxies,
    })
}

/// Waits until every lease retired, then checks each retired exactly
/// once.
fn await_retirement(ring: &Ring, leases: u64) -> Result<(), String> {
    let t0 = Instant::now();
    while ring.nodes.iter().map(|n| n.stats().retired).sum::<u64>() < leases {
        if t0.elapsed() > ROUND_CAP {
            return Err(format!("leases still circulating after {ROUND_CAP:?}"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut retired: Vec<u64> = ring.nodes.iter().flat_map(|n| n.retired()).collect();
    retired.sort_unstable();
    if retired != (0..leases).collect::<Vec<u64>>() {
        return Err(format!(
            "leases retired {retired:?}; expected each of 0..{leases} once"
        ));
    }
    Ok(())
}

impl Workload for LeaseRing {
    fn round(&mut self, ctx: RoundCtx<'_>) -> Result<Round, String> {
        let t_setup = Instant::now();
        let ring = spawn_ring(ctx.inputs, LEASES, VISITS)?;
        let t_ready = Instant::now();
        let setup_s = (t_ready - t_setup).as_secs_f64();
        let main_cpu0 = thread_cpu_ns();
        let window = Window::open(ctx.traced);
        await_retirement(&ring, LEASES)?;
        let end = window.close();
        let main_cpu = thread_cpu_ns() - main_cpu0;
        let t_retired = Instant::now();

        let ops = LEASES * VISITS;
        let mut lat_ns: Vec<u64> = ring
            .nodes
            .iter()
            .flat_map(|n| n.ack_latencies())
            .map(|d| d.as_nanos() as u64)
            .collect();
        lat_ns.sort_unstable();
        let stats: Vec<_> = ring.nodes.iter().map(PeerNode::stats).collect();
        let sum = |f: fn(&amf_service::PeerStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
        let grants = sum(|s| s.delivered);
        let mut layers = vec![
            (
                "core.lease.retransmits_per_grant",
                per(sum(|s| s.retransmits), grants),
            ),
            (
                "core.lease.dup_dropped_per_grant",
                per(sum(|s| s.dup_dropped), grants),
            ),
            ("core.lease.reclaimed", sum(|s| s.reclaimed)),
        ];
        if let Some(usage) = &end.usage {
            layers.extend(usage_layers(usage, ops));
        }
        drop(ring);
        if ctx.traced {
            let t_down = Instant::now();
            let root = ctx
                .spans
                .push("lease_ring.round", t_setup, t_down, None, ctx.index);
            ctx.spans
                .push("service.peer.spawn_ring", t_setup, t_ready, root, ctx.index);
            ctx.spans
                .push("core.lease.circulate", t_ready, t_retired, root, ctx.index);
            ctx.spans
                .push("service.peer.shutdown", t_retired, t_down, root, ctx.index);
        }
        Ok(Round {
            setup_s,
            attempted: ops,
            failed: 0,
            ops,
            elapsed_s: end.elapsed_s,
            lat_ns,
            sut_cpu_ns: end.cpu_ns.saturating_sub(main_cpu),
            rss_end_kib: end.rss_end_kib,
            invalid: None,
            layers,
        })
    }

    /// The ring's allocations depend on how many frames the faults force
    /// it to resend, so unlike the other workloads this count varies a
    /// little from run to run.
    fn count_pass(&mut self, inputs: &mut Inputs) -> Result<CountPass, String> {
        const LEASES: u64 = 2;
        const VISITS: u64 = 30;
        let ring = spawn_ring(inputs, LEASES, VISITS)?;
        let before = alloc::snapshot();
        alloc::set_enabled(true);
        let result = await_retirement(&ring, LEASES);
        alloc::set_enabled(false);
        result?;
        Ok(CountPass {
            ops: LEASES * VISITS,
            allocs: alloc::delta(&before, &alloc::snapshot()),
        })
    }
}
