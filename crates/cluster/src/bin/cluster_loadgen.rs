//! Socket-level load generator for a leased-budget admission cluster.
//!
//! Spawns an in-process lease coordinator plus `--nodes N` gateway
//! nodes on loopback — each a real `GatewayServer` admitting against
//! leased [`SharedStageCaps`] kept fresh by a [`LeaseClient`] — then
//! replays `frap-workload` streams over pipelining TCP connections
//! round-robined across the nodes. Reports aggregate decisions per
//! second plus the lease-plane traffic it cost to keep the budgets
//! flowing.
//!
//! ```text
//! cluster-loadgen [threads] [seconds] [stages] [load] [--nodes N] [addr,addr,...]
//! ```
//!
//! Defaults: 3 threads, 2 seconds, 3 stages, offered load 2.0, 3
//! nodes, in-process servers. Passing a comma-separated address list
//! drives already-running gateways instead (lease traffic is then
//! reported as zero — the lease plane lives with the remote nodes).
//!
//! The summary goes to stdout. Exits non-zero if nothing was admitted or
//! a protocol error occurred, so a plain invocation works as the 3-node
//! loopback smoke test.

use frap_cluster::net::{CoordServer, LeaseClient};
use frap_cluster::{ClusterConfig, CoordCore, NodeCore, SharedStageCaps};
use frap_core::admission::ExactContributions;
use frap_core::hist::LatencyHistogram;
use frap_core::lease::{params_fingerprint, StageCaps};
use frap_core::region::FeasibleRegion;
use frap_core::time::TimeDelta;
use frap_core::wire::WireTaskSpec;
use frap_gateway::client::GatewayClient;
use frap_gateway::proto::Verdict;
use frap_gateway::server::{GatewayConfig, GatewayServer};
use frap_service::AdmissionService;
use frap_workload::PipelineWorkloadBuilder;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock lease timing for loopback: fast beats so borrowing keeps
/// up with the load, a TTL comfortably above scheduler jitter, and a
/// `max_deadline` covering the workload's deadline spread.
fn loadgen_cluster_config() -> ClusterConfig {
    ClusterConfig {
        heartbeat_us: 20_000,
        miss_limit: 4,
        lease_ttl_us: 80_000,
        max_delay_us: 50_000,
        max_deadline_us: 1_000_000,
        initial_div: 4,
        borrow_chunk_units: 20_000_000,
        low_water_units: 20_000_000,
        keep_units: 20_000_000,
    }
}

#[derive(Default)]
struct ThreadTally {
    decisions: u64,
    admitted: u64,
    rejected: u64,
    expired: u64,
    shed_events: u64,
    rtt: LatencyHistogram,
}

fn record_rtt(hist: &mut LatencyHistogram, elapsed: Duration) {
    hist.record(TimeDelta::from_micros(elapsed.as_nanos() as u64));
}

/// One spawned gateway node: server + admission service + lease loop.
struct Node {
    server: GatewayServer,
    service: AdmissionService<SharedStageCaps, ExactContributions>,
    lease: LeaseClient,
}

fn main() {
    // `--nodes N` may appear anywhere; the rest are positional.
    let mut positional: Vec<String> = Vec::new();
    let mut nodes = 3usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--nodes" {
            nodes = args
                .next()
                .and_then(|s| s.parse().ok())
                .expect("--nodes requires a count");
        } else if let Some(n) = arg.strip_prefix("--nodes=") {
            nodes = n.parse().expect("--nodes requires a count");
        } else {
            positional.push(arg);
        }
    }
    assert!(nodes > 0, "need at least one node");
    let parse = |idx: usize, default: f64| -> f64 {
        positional
            .get(idx)
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    };
    let threads = parse(0, 3.0) as usize;
    let seconds = parse(1, 2.0);
    let stages = parse(2, 3.0) as usize;
    let load = parse(3, 2.0);
    let addr_arg: Option<String> = positional.get(4).cloned();
    let window: u16 = std::env::var("GATEWAY_WINDOW")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(32);

    println!(
        "cluster-loadgen: {nodes} node(s), {threads} connection(s), {seconds:.1}s, \
         {stages}-stage pipeline, offered load {load:.2}, window {window}"
    );

    let region = FeasibleRegion::deadline_monotonic(stages);
    let caps = StageCaps::inscribed(&region);

    // Spawn the in-process cluster unless pointed at remote gateways.
    let (coord, spawned, addrs) = if let Some(list) = addr_arg {
        let addrs: Vec<String> = list.split(',').map(str::to_string).collect();
        (None, Vec::new(), addrs)
    } else {
        let cfg = loadgen_cluster_config();
        let fp = params_fingerprint(&region, &caps);
        let coord = CoordServer::bind("127.0.0.1:0", CoordCore::new(cfg.clone(), caps.units(), fp))
            .expect("bind coordinator");
        let coord_addr = coord.local_addr().to_string();
        let workers = std::env::var("GATEWAY_WORKERS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| threads.div_ceil(nodes).clamp(1, 4));
        let mut spawned = Vec::new();
        let mut addrs = Vec::new();
        for i in 0..nodes {
            let shared = SharedStageCaps::new(stages);
            let service = AdmissionService::builder(shared.clone(), ExactContributions)
                .shards(workers.max(1))
                .build();
            let server = GatewayServer::bind(
                "127.0.0.1:0",
                service.clone(),
                GatewayConfig {
                    workers,
                    window,
                    idle_timeout: None,
                },
            )
            .expect("bind gateway node");
            let lease = LeaseClient::start(
                coord_addr.clone(),
                NodeCore::new(cfg.clone(), i as u64 + 1, shared, fp),
                Arc::new(service.clone()),
                Duration::from_millis(5),
            );
            addrs.push(server.local_addr().to_string());
            spawned.push(Node {
                server,
                service,
                lease,
            });
        }
        (Some(coord), spawned, addrs)
    };
    println!("targets        {}", addrs.join(" "));

    // Wait for every node to register and hold budget before loading it.
    if let Some(coord) = &coord {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let leases = coord.core().lock().expect("coord").lease_count();
            let granted = spawned.iter().all(|n| {
                n.lease
                    .core()
                    .lock()
                    .expect("node")
                    .caps()
                    .units()
                    .iter()
                    .any(|&u| u > 0)
            });
            if leases == nodes && granted {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "cluster did not converge: {leases}/{nodes} leases granted={granted}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    // Pre-generate each connection's stream off the hot path.
    let specs_per_thread = 2_000usize;
    let streams: Vec<Vec<WireTaskSpec>> = (0..threads)
        .map(|t| {
            PipelineWorkloadBuilder::new(stages)
                .mean_computation_ms(10.0)
                .resolution(10.0)
                .load(load)
                .seed(0xC1C5 ^ (t as u64) << 8)
                .build()
                .specs()
                .take(specs_per_thread)
                .map(|spec| WireTaskSpec::from_spec(&spec).expect("pipeline-shaped"))
                .collect()
        })
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let workers: Vec<_> = streams
        .into_iter()
        .enumerate()
        .map(|(t, specs)| {
            let addr = addrs[t % addrs.len()].clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || run_client(&addr, &specs, &stop))
        })
        .collect();

    std::thread::sleep(Duration::from_secs_f64(seconds));
    stop.store(true, Ordering::Relaxed);

    let mut total = ThreadTally::default();
    for worker in workers {
        let tally = worker.join().expect("client thread").expect("client I/O");
        total.decisions += tally.decisions;
        total.admitted += tally.admitted;
        total.rejected += tally.rejected;
        total.expired += tally.expired;
        total.shed_events += tally.shed_events;
        total.rtt.merge(&tally.rtt);
    }
    let elapsed = started.elapsed().as_secs_f64();

    // Drain every node, then check the per-node and ledger invariants.
    let mut protocol_errors = 0u64;
    for node in &spawned {
        node.server.drain();
        if !node.server.wait_idle(Duration::from_secs(5)) {
            eprintln!("warning: connections still open after drain");
        }
    }
    let mut lease_frames = 0u64;
    let mut lease_bytes = 0u64;
    for node in spawned {
        let stats = node.server.shutdown();
        protocol_errors += stats.protocol_errors;
        lease_frames += node.lease.stats().frames();
        lease_bytes += node.lease.stats().bytes();
        drop(node.lease);
        node.service.maintain();
        node.service.debug_validate();
        let live = node.service.live_tasks();
        assert_eq!(live, 0, "tickets leaked: {live} live tasks after drain");
    }
    if let Some(coord) = &coord {
        coord.core().lock().expect("coord").debug_conservation();
        println!("invariants     debug_validate + lease conservation passed");
    }

    let (p50, p99, p999, max) = (
        total.rtt.percentile(0.50).as_micros(),
        total.rtt.percentile(0.99).as_micros(),
        total.rtt.percentile(0.999).as_micros(),
        total.rtt.max().as_micros(),
    );
    let per_sec = total.decisions as f64 / elapsed;
    let lease_bytes_per_decision = if total.decisions == 0 {
        0.0
    } else {
        lease_bytes as f64 / total.decisions as f64
    };

    println!();
    println!(
        "decisions      {} in {elapsed:.3}s  =>  {:.0} decisions/sec across {nodes} node(s)",
        total.decisions, per_sec
    );
    println!(
        "outcomes       admitted={} rejected={} expired_on_arrival={} shed_events={} \
         protocol_errors={protocol_errors}",
        total.admitted, total.rejected, total.expired, total.shed_events
    );
    println!(
        "lease plane    frames={lease_frames} bytes={lease_bytes} \
         ({lease_bytes_per_decision:.3} bytes/decision)"
    );
    println!("round-trip     p50={p50}ns p99={p99}ns p999={p999}ns max={max}ns");

    assert!(total.admitted > 0, "smoke failure: nothing was admitted");
    assert_eq!(
        protocol_errors, 0,
        "smoke failure: protocol errors observed"
    );
}

/// Drives one pipelining connection until `stop`, then drains in-flight
/// responses and releases what they admitted. Mirrors
/// `gateway-loadgen`'s client loop so single-node and cluster numbers
/// stay comparable.
fn run_client(
    addr: &str,
    specs: &[WireTaskSpec],
    stop: &AtomicBool,
) -> std::io::Result<ThreadTally> {
    let mut client = GatewayClient::connect(addr)?;
    let window = (client.window() as usize).clamp(1, 1024);
    let mut inflight: VecDeque<(u64, Instant)> = VecDeque::with_capacity(window);
    let mut verdicts: Vec<(u64, Verdict)> = Vec::with_capacity(window);
    let mut tally = ThreadTally::default();
    let mut next = 0usize;

    let absorb = |tally: &mut ThreadTally,
                  client: &mut GatewayClient,
                  sent: (u64, Instant),
                  got: (u64, Verdict)| {
        let (req_id, verdict) = got;
        debug_assert_eq!(req_id, sent.0, "responses must be FIFO");
        record_rtt(&mut tally.rtt, sent.1.elapsed());
        tally.decisions += 1;
        match verdict {
            Verdict::Admitted { ticket_id } => {
                tally.admitted += 1;
                client.queue_release(ticket_id);
            }
            Verdict::AdmittedAfterShedding { ticket_id, shed } => {
                tally.admitted += 1;
                tally.shed_events += u64::from(shed);
                client.queue_release(ticket_id);
            }
            Verdict::Rejected => tally.rejected += 1,
            Verdict::Expired => tally.expired += 1,
        }
    };

    while !stop.load(Ordering::Relaxed) {
        while inflight.len() < window {
            let task = &specs[next % specs.len()];
            next += 1;
            let budget = TimeDelta::from_micros(task.deadline_us / 2);
            let req_id = client.queue_admit(task, budget, false);
            inflight.push_back((req_id, Instant::now()));
        }
        client.flush()?;
        verdicts.clear();
        client.recv_admits_into(&mut verdicts)?;
        for &got in &verdicts {
            let sent = inflight.pop_front().expect("response without request");
            absorb(&mut tally, &mut client, sent, got);
        }
    }

    client.flush()?;
    while !inflight.is_empty() {
        verdicts.clear();
        client.recv_admits_into(&mut verdicts)?;
        for &got in &verdicts {
            let sent = inflight.pop_front().expect("response without request");
            absorb(&mut tally, &mut client, sent, got);
        }
    }
    client.flush()?;
    Ok(tally)
}
