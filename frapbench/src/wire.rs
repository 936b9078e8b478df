//! `wire_open` and `cluster_open`: the open-loop ladder over loopback TCP,
//! against one in-process `GatewayServer` or against a lease coordinator
//! with two leased gateway nodes.

use crate::openloop::{self, Conn, RungKind, RungResult, Shapes};
use crate::report::Report;
use crate::stats::median;
use crate::{sys, trace, Opts};
use frap_cluster::net::{CoordServer, LeaseClient};
use frap_cluster::{ClusterConfig, CoordCore, NodeCore, SharedStageCaps};
use frap_core::admission::ExactContributions;
use frap_core::lease::{params_fingerprint, StageCaps};
use frap_core::region::FeasibleRegion;
use frap_gateway::server::{GatewayConfig, GatewayServer, GatewaySnapshot};
use frap_service::AdmissionService;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One gateway, one connection.
    Single,
    /// A coordinator and two leased gateway nodes, one connection each.
    Cluster,
}

/// The fixed rate ladder, decisions per second. Constants, not derived
/// from the machine: a later build is measured on the same rungs. It
/// starts well inside capacity (rungs below it always pass, so they would
/// only cost time) and rises in steps of about 12%.
pub const WIRE_LADDER: &[f64] = &[
    143_100.0,
    178_800.0,
    200_000.0,
    224_000.0,
    250_900.0,
    281_000.0,
    314_700.0,
    352_500.0,
    394_800.0,
    442_200.0,
    495_200.0,
    554_700.0,
    621_200.0,
    695_800.0,
    779_300.0,
    872_800.0,
    977_500.0,
    1_094_800.0,
];
/// The reference rate `p50_us`, `acceptance_ratio` and
/// `cpu_ns_per_decision` are read at: well inside capacity even while the
/// host steals time, so they describe the program, not an overload.
pub const WIRE_REF: f64 = 50_000.0;
/// The wire ladder continued: two nodes take about twice the load.
pub const CLUSTER_LADDER: &[f64] = &[
    143_100.0,
    178_800.0,
    200_000.0,
    224_000.0,
    250_900.0,
    281_000.0,
    314_700.0,
    352_500.0,
    394_800.0,
    442_200.0,
    495_200.0,
    554_700.0,
    621_200.0,
    695_800.0,
    779_300.0,
    872_800.0,
    977_500.0,
    1_094_800.0,
    1_226_200.0,
    1_373_300.0,
    1_538_100.0,
    1_722_700.0,
    1_929_400.0,
];
pub const CLUSTER_REF: f64 = 100_000.0;

/// Leased gateway nodes on `cluster_open`.
const CLUSTER_NODES: usize = 2;
/// Task classes per rate on `cluster_open`: the 24 rates' classes
/// (3 072) fit the gateway's 8 192-shape intern cache, so it is hit.
const CLUSTER_CLASSES: usize = 128;
const GATEWAY_WORKERS: usize = 2;
const SERVICE_SHARDS: usize = 2;
const WINDOW: u16 = 256;
const SETUP_REPEATS: usize = 3;

/// Rung lengths, seconds (a tenth of them in the self-test). A ladder
/// rung lasts `LADDER_MIN_SECS` or `LADDER_REQUESTS` arrivals, whichever
/// is longer.
const WARMUP_SECS: f64 = 0.3;
const REF_SECS: f64 = 0.06;
/// Reference segments before each climb and after the last.
const REF_PER_SLOT: usize = 2;
const LADDER_MIN_SECS: f64 = 0.04;
const LADDER_REQUESTS: f64 = 4_000.0;
/// Climbs of the ladder per 10 s of `--seconds`, each after reference
/// segments. The sustained rate is read from all of them (see
/// `sustained_rate`), so neither a lucky nor a disturbed climb decides it.
const CLIMBS_PER_10_S: f64 = 12.0;

type NodeService = AdmissionService<SharedStageCaps, ExactContributions>;
type SingleService = AdmissionService<FeasibleRegion, ExactContributions>;

/// Wall-clock lease timing for loopback, as the cluster loadgen uses.
fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        heartbeat_us: 20_000,
        miss_limit: 4,
        lease_ttl_us: 80_000,
        max_delay_us: 50_000,
        max_deadline_us: 20_000_000,
        initial_div: 4,
        borrow_chunk_units: 20_000_000,
        low_water_units: 20_000_000,
        keep_units: 20_000_000,
    }
}

/// The rungs of one pass of `climbs` climbs, each rung's length times
/// `scale`: warm-up, then reference segments and ladder climbs
/// alternating.
fn schedule(ladder: &[f64], ref_rate: f64, climbs: usize, scale: f64) -> Vec<(RungKind, f64, f64)> {
    let mut rungs = vec![(RungKind::Warmup, ref_rate, WARMUP_SECS * scale)];
    let refs = (RungKind::Ref, ref_rate, REF_SECS * scale);
    for _ in 0..climbs {
        rungs.extend(std::iter::repeat_n(refs, REF_PER_SLOT));
        rungs.extend(ladder.iter().map(|&r| {
            let secs = (LADDER_REQUESTS / r).max(LADDER_MIN_SECS);
            (RungKind::Ladder, r, secs * scale)
        }));
    }
    rungs.extend(std::iter::repeat_n(refs, REF_PER_SLOT));
    rungs
}

/// Results of one pass over the schedule.
struct Pass {
    refs: Vec<RungResult>,
    ladder: Vec<RungResult>,
    other: Vec<RungResult>,
}

impl Pass {
    fn all(&self) -> impl Iterator<Item = &RungResult> {
        self.refs.iter().chain(&self.ladder).chain(&self.other)
    }
}

/// Drives one pass over its schedule. Every ladder rung runs: a rung past
/// capacity abandons itself within milliseconds, so climbing the whole
/// ladder costs little, and a rung lost to a passing stall does not end
/// the climb.
fn drive(
    conns: &mut [Conn],
    plan: &[openloop::Rung],
    snapshot: &dyn Fn() -> GatewaySnapshot,
    opts: &Opts,
) -> Pass {
    let mut pass = Pass {
        refs: Vec::new(),
        ladder: Vec::new(),
        other: Vec::new(),
    };
    let mut flip = opts.faults.flip_verdict;
    for rung in plan {
        let faults = crate::Faults {
            flip_verdict: std::mem::take(&mut flip),
            ..opts.faults
        };
        let mut r = openloop::run_rung(conns, rung, snapshot, faults);
        if rung.kind != RungKind::Ref {
            // Only the reference segments' raw samples are read later;
            // the rest go, so the run's memory does not grow with them.
            r.latency_ns = Vec::new();
            r.lateness_ns = Vec::new();
        }
        // Let the gateway settle between rungs.
        std::thread::sleep(Duration::from_millis(5));
        match rung.kind {
            RungKind::Warmup => pass.other.push(r),
            RungKind::Ref => pass.refs.push(r),
            RungKind::Ladder => pass.ladder.push(r),
        }
    }
    pass
}

fn sum_snapshots(snaps: &[GatewaySnapshot]) -> GatewaySnapshot {
    let mut t = GatewaySnapshot::default();
    for s in snaps {
        t.accepted += s.accepted;
        t.closed += s.closed;
        t.frames_in += s.frames_in;
        t.frames_out += s.frames_out;
        t.admitted += s.admitted;
        t.rejected += s.rejected;
        t.expired_on_arrival += s.expired_on_arrival;
        t.releases += s.releases;
        t.bad_requests += s.bad_requests;
        t.protocol_errors += s.protocol_errors;
        t.backpressure_stalls += s.backpressure_stalls;
        t.idle_disconnects += s.idle_disconnects;
        t.wakeups += s.wakeups;
        t.read_syscalls += s.read_syscalls;
        t.write_syscalls += s.write_syscalls;
        t.bytes_in += s.bytes_in;
        t.bytes_out += s.bytes_out;
    }
    t
}

/// The admission services a topology serves: one over the whole region,
/// or one per node over that node's leased caps.
fn build_services(
    topology: Topology,
) -> (Option<SingleService>, Vec<(SharedStageCaps, NodeService)>) {
    match topology {
        Topology::Single => {
            let region = FeasibleRegion::deadline_monotonic(openloop::STAGES);
            let service = AdmissionService::builder(region, ExactContributions)
                .shards(SERVICE_SHARDS)
                .build();
            (Some(service), Vec::new())
        }
        Topology::Cluster => {
            let nodes = (0..CLUSTER_NODES)
                .map(|_| {
                    let caps = SharedStageCaps::new(openloop::STAGES);
                    let service = AdmissionService::builder(caps.clone(), ExactContributions)
                        .shards(SERVICE_SHARDS)
                        .build();
                    (caps, service)
                })
                .collect();
            (None, nodes)
        }
    }
}

fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        workers: GATEWAY_WORKERS,
        window: WINDOW,
        idle_timeout: None,
    }
}

/// Checks that must hold once every connection is closed and every
/// server joined.
fn validate<R, M>(report: &mut Report, label: &str, service: &AdmissionService<R, M>)
where
    R: frap_core::region::RegionTest + Send + Sync + 'static,
    M: frap_core::admission::ContributionModel + Send + Sync + 'static,
{
    service.maintain();
    let valid = catch_unwind(AssertUnwindSafe(|| service.debug_validate())).is_ok();
    report.check(&format!("{label} debug_validate"), valid, "");
    let live = service.live_tasks();
    report.check(
        &format!("{label} live_tasks == 0 after drain"),
        live == 0,
        format!("live={live}"),
    );
}

pub fn run(opts: &Opts, topology: Topology) -> Report {
    let mut report = Report::default();
    let (ladder, ref_rate, shapes) = match topology {
        Topology::Single => (WIRE_LADDER, WIRE_REF, Shapes::Unique),
        Topology::Cluster => (
            CLUSTER_LADDER,
            CLUSTER_REF,
            Shapes::Catalog(CLUSTER_CLASSES),
        ),
    };
    let scale = if opts.tiny { 0.1 } else { 1.0 };
    let climbs = (CLIMBS_PER_10_S * opts.seconds / 10.0).round().max(1.0) as usize;
    // Traced runs make two passes of half the climbs, untraced then traced.
    let passes: Vec<(bool, usize)> = if opts.trace {
        let half = (climbs / 2).max(1);
        vec![(false, half), (true, half)]
    } else {
        vec![(false, climbs)]
    };
    let rungs: Vec<(RungKind, f64, f64)> = passes
        .iter()
        .flat_map(|&(_, c)| schedule(ladder, ref_rate, c, scale))
        .collect();
    let per_pass = rungs.len() / passes.len();

    // Set-up, timed: inputs and services, several times; then the
    // servers once (one server per run, as in production).
    let mut setup_times = Vec::new();
    let mut gen_times = Vec::new();
    let mut built = None;
    let region = FeasibleRegion::deadline_monotonic(openloop::STAGES);
    let caps = StageCaps::inscribed(&region);
    // A traced run also traces its set-up.
    trace::set_enabled(opts.trace);
    for _ in 0..SETUP_REPEATS {
        // One plan resident at a time.
        drop(built.take());
        let t0 = Instant::now();
        let plan = openloop::plan(&rungs, opts.seed, shapes);
        gen_times.push(t0.elapsed().as_secs_f64());
        let _span = trace::span("service.build", 0);
        let services = build_services(topology);
        setup_times.push(t0.elapsed().as_secs_f64());
        built = Some((plan, services));
    }
    let (plan, (single, nodes)) = built.expect("at least one set-up");
    let t_bind = Instant::now();
    let cfg = cluster_config();
    let fp = params_fingerprint(&region, &caps);
    let cluster_span = trace::span("cluster.start", 0);
    let coord = (topology == Topology::Cluster).then(|| {
        CoordServer::bind("127.0.0.1:0", CoordCore::new(cfg.clone(), caps.units(), fp))
            .expect("bind coordinator")
    });
    let gateway_span = trace::span("gateway.bind", 0);
    let servers: Vec<GatewayServer> = single
        .iter()
        .map(|s| GatewayServer::bind("127.0.0.1:0", s.clone(), gateway_config()))
        .chain(
            nodes
                .iter()
                .map(|(_, s)| GatewayServer::bind("127.0.0.1:0", s.clone(), gateway_config())),
        )
        .collect::<std::io::Result<_>>()
        .expect("bind gateway");
    drop(gateway_span);
    let leases: Vec<LeaseClient> = match &coord {
        Some(coord) => nodes
            .iter()
            .enumerate()
            .map(|(i, (caps, service))| {
                LeaseClient::start(
                    coord.local_addr().to_string(),
                    NodeCore::new(cfg.clone(), i as u64 + 1, caps.clone(), fp),
                    std::sync::Arc::new(service.clone()),
                    Duration::from_millis(5),
                )
            })
            .collect(),
        None => Vec::new(),
    };
    let mut converged = true;
    if let Some(coord) = &coord {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let leases_granted = coord.core().lock().expect("coordinator lock").lease_count();
            let funded = leases.iter().all(|l| {
                l.core()
                    .lock()
                    .expect("node lock")
                    .caps()
                    .units()
                    .iter()
                    .any(|&u| u > 0)
            });
            if leases_granted == nodes.len() && funded {
                break;
            }
            if Instant::now() > deadline {
                converged = false;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    drop(cluster_span);
    trace::set_enabled(false);
    if topology == Topology::Cluster {
        report.check("cluster leases granted before load", converged, "");
    }
    let mut conns: Vec<Conn> = servers
        .iter()
        .map(|s| Conn::connect(s.local_addr()).expect("connect to gateway"))
        .collect();
    let bind_s = t_bind.elapsed().as_secs_f64();
    let setup_s = median(&setup_times) + bind_s;
    let rss = sys::RssBaseline::take();

    let snapshot = || sum_snapshots(&servers.iter().map(GatewayServer::stats).collect::<Vec<_>>());
    let maintain = || {
        if let Some(s) = &single {
            s.maintain();
        }
        for (_, s) in &nodes {
            s.maintain();
        }
    };

    let stop = AtomicBool::new(false);
    let results: Vec<(bool, Pass)> = std::thread::scope(|s| {
        // Maintenance beside the datapath, as a deployment runs it.
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(10));
                let _span = trace::span("service.maintain", 0);
                maintain();
            }
            trace::flush_thread();
        });
        let mut results = Vec::new();
        for (k, &(traced, _)) in passes.iter().enumerate() {
            trace::set_enabled(traced);
            let rungs = &plan.rungs[k * per_pass..(k + 1) * per_pass];
            let pass = drive(&mut conns, rungs, &snapshot, opts);
            trace::set_enabled(false);
            results.push((traced, pass));
        }
        stop.store(true, Ordering::Relaxed);
        results
    });
    let rss_growth_mb = rss.peak_growth_mb();
    let spans = trace::take_all();

    // Tear down: close connections, drain, join, then check.
    let client_admitted: u64 = results
        .iter()
        .flat_map(|(_, p)| p.all())
        .map(|r| r.admitted)
        .sum();
    drop(conns);
    for s in &servers {
        s.drain();
        if !s.wait_idle(Duration::from_secs(5)) {
            report.check("connections closed after drain", false, "");
        }
    }
    let servers_n = servers.len();
    let finals: Vec<GatewaySnapshot> = servers.into_iter().map(GatewayServer::shutdown).collect();
    let total = sum_snapshots(&finals);
    let lease_frames: u64 = leases.iter().map(|l| l.stats().frames()).sum();
    let lease_bytes: u64 = leases.iter().map(|l| l.stats().bytes()).sum();
    let node_counters: Vec<_> = leases
        .iter()
        .map(|l| l.core().lock().expect("node lock").counters())
        .collect();
    drop(leases);
    report.check(
        "protocol_errors == 0",
        total.protocol_errors == 0,
        format!("protocol_errors={}", total.protocol_errors),
    );
    report.check(
        "client verdicts == gateway verdicts",
        client_admitted == total.admitted,
        format!(
            "client admitted={client_admitted} gateway admitted={}",
            total.admitted
        ),
    );
    let mut service_counters = Vec::new();
    if let Some(s) = &single {
        validate(&mut report, "service", s);
        service_counters.push(s.counters());
    }
    for (i, (_, s)) in nodes.iter().enumerate() {
        validate(&mut report, &format!("node {}", i + 1), s);
        service_counters.push(s.counters());
    }
    let mut coord_counters = None;
    if let Some(coord) = &coord {
        let core = coord.core().lock().expect("coordinator lock");
        trace::set_enabled(opts.trace);
        let conserved = {
            let _span = trace::span("cluster.conservation", 0);
            catch_unwind(AssertUnwindSafe(|| core.debug_conservation())).is_ok()
        };
        trace::set_enabled(false);
        report.check("lease conservation", conserved, "");
        coord_counters = Some(core.counters());
    }
    drop(coord);

    // Attempts and failures over every rung of every pass.
    for (_, pass) in &results {
        for r in pass.all() {
            report.attempted += r.sent;
            report.failed += r.failures();
            if r.protocol_errors > 0 {
                report.check("one reply per request, FIFO per connection", false, "");
            }
        }
    }
    if !report
        .checks
        .iter()
        .any(|c| c.name.starts_with("one reply"))
    {
        report.check("one reply per request, FIFO per connection", true, "");
    }

    // End-to-end metrics from the untraced pass.
    let (_, untraced) = results.iter().find(|(t, _)| !t).expect("an untraced pass");
    // Passing rungs per climb; see `sustained_rate` for the rate.
    let mut climb_passes = vec![0.0f64; passes[0].1];
    for (i, r) in untraced.ladder.iter().enumerate() {
        let pass_ok = r.passes();
        let late = r.generator_late();
        report.note(format!(
            "rung {:>9.0}/s  sent={:>7} p50={:>8}ns p90={:>8}ns p99={:>9}ns ok={}/5 late_p99={:>8}ns late_windows={} backlog={:>5} failed={} acc={:.3} {}{}",
            r.rate,
            r.sent,
            r.p50_ns,
            r.p90_ns,
            r.p99_ns,
            r.windows_ok,
            r.lateness_p99_ns,
            r.windows_late,
            r.backlog_at_end,
            r.failures(),
            r.acceptance(),
            if pass_ok { "pass" } else { "fail" },
            if late { " (generator late: invalid)" } else { "" },
        ));
        climb_passes[i / ladder.len()] += r.pass_share();
    }
    let sustained = sustained_rate(ladder, &climb_passes);
    report.note(format!(
        "climbs: passing rungs per climb {:?} => sustained {sustained:.0}/s",
        climb_passes
            .iter()
            .map(|c| (c * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    ));
    let refsum = openloop::summarize_ref(&untraced.refs);
    let (_, pct, tail, beyond) = openloop::pooled_tail(&untraced.refs);
    report.note(format!(
        "ref {ref_rate:.0}/s: {} samples over {} of {} segments ({} of them slow: p50 over \
         twice the best segment's), median p50={:.1}us p99={:.1}us (p99 is reported, not a \
         gated metric: hypervisor stalls set it), pooled p{pct}={:.1}us with {beyond} samples \
         beyond, acceptance={:.4}",
        refsum.samples,
        refsum.segments,
        untraced.refs.len(),
        refsum.slow_segments,
        refsum.p50_ns / 1e3,
        refsum.p99_ns / 1e3,
        tail / 1e3,
        refsum.acceptance
    ));
    report.note(format!(
        "sides generator: 1 thread, {} connection(s); server: {} gateway(s) x {GATEWAY_WORKERS} workers, {SERVICE_SHARDS} shards{}, 1 maintenance thread; loopback",
        servers_n,
        servers_n,
        if topology == Topology::Cluster {
            ", 1 coordinator"
        } else {
            ""
        }
    ));
    report.e2e("setup_s", setup_s, "s");
    report.e2e("peak_rss_mb", rss_growth_mb, "MB");
    report.e2e("throughput", sustained, "1/s");
    report.e2e("p50_us", refsum.p50_ns / 1e3, "us");
    report.e2e("acceptance_ratio", refsum.acceptance, "ratio");
    report.e2e(
        "cpu_ns_per_decision",
        refsum.server_cpu_ns_per_decision,
        "ns",
    );
    let untraced_cost = refsum.server_cpu_ns_per_decision + refsum.generator_cpu_ns_per_decision;

    // Per-layer metrics from the traced pass.
    if let Some((_, traced)) = results.iter().find(|(t, _)| *t) {
        let refs = &traced.refs;
        let ts = openloop::summarize_ref(refs);
        let decisions: u64 = refs.iter().map(|r| r.answered).sum();
        let d = decisions.max(1) as f64;
        let g = sum_snapshots(&refs.iter().map(|r| r.gateway).collect::<Vec<_>>());
        let worker_cpu: u64 = refs.iter().map(|r| r.worker_cpu_ns).sum();
        let wall: u64 = refs.iter().map(|r| r.wall_ns).sum();
        let lateness: Vec<f64> = refs.iter().map(|r| f64::from(r.lateness_p99_ns)).collect();
        let (p50, pct, tail, beyond) = openloop::pooled_tail(refs);
        report.layer(
            "gateway.worker_cpu_ns_per_decision",
            worker_cpu as f64 / d,
            "ns",
        );
        report.layer(
            "gateway.worker_busy",
            worker_cpu as f64 / (wall.max(1) as f64 * (GATEWAY_WORKERS * servers_n) as f64),
            "ratio",
        );
        report.layer(
            "gateway.syscalls_per_decision",
            g.syscalls() as f64 / d,
            "ratio",
        );
        report.layer(
            "gateway.bytes_per_decision",
            (g.bytes_in + g.bytes_out) as f64 / d,
            "B",
        );
        report.layer(
            "gateway.decisions_per_wake",
            d / g.wakeups.max(1) as f64,
            "ratio",
        );
        report.layer(
            "gateway.backpressure_stalls",
            total.backpressure_stalls as f64,
            "count",
        );
        report.layer(
            "gateway.expired_on_arrival",
            total.expired_on_arrival as f64,
            "count",
        );
        let mut send = trace::durations(&spans, "gateway.send");
        let mut recv = trace::durations(&spans, "gateway.recv");
        report.layer(
            "gateway.send_ns",
            crate::stats::percentile(&mut send, 0.5) as f64,
            "ns",
        );
        report.layer(
            "gateway.recv_ns",
            crate::stats::percentile(&mut recv, 0.5) as f64,
            "ns",
        );
        report.layer("gateway.rtt_p50_us", p50 / 1e3, "us");
        report.layer("gateway.rtt_tail_us", tail / 1e3, "us");
        report.layer("gateway.rtt_tail_pct", pct, "%");
        report.layer("gateway.rtt_tail_beyond", beyond as f64, "count");
        report.layer(
            "gateway.shape_repeat_share",
            plan.shape_repeats as f64 / plan.tasks.max(1) as f64,
            "ratio",
        );
        report.layer("loadgen.lateness_p99_us", median(&lateness) / 1e3, "us");
        report.layer(
            "loadgen.cpu_ns_per_decision",
            ts.generator_cpu_ns_per_decision,
            "ns",
        );
        let mut maintain = trace::durations(&spans, "service.maintain");
        report.layer(
            "service.maintain_ns",
            crate::stats::percentile(&mut maintain, 0.5) as f64,
            "ns",
        );
        let expired: u64 = service_counters.iter().map(|c| c.expired).sum();
        let fallbacks: u64 = service_counters.iter().map(|c| c.seqlock_fallbacks).sum();
        let retries: u64 = service_counters.iter().map(|c| c.cas_retries).sum();
        let admitted: u64 = service_counters.iter().map(|c| c.admitted).sum();
        report.layer("service.expired", expired as f64, "count");
        report.layer("service.seqlock_fallbacks", fallbacks as f64, "count");
        report.layer(
            "service.cas_retries_per_admit",
            retries as f64 / admitted.max(1) as f64,
            "ratio",
        );
        report.layer("workload.generate_s", median(&gen_times), "s");
        if let Some(cc) = coord_counters {
            let all_decisions = total.admitted + total.rejected;
            report.layer(
                "cluster.lease_bytes_per_decision",
                lease_bytes as f64 / all_decisions.max(1) as f64,
                "B",
            );
            let run_secs: f64 = results
                .iter()
                .flat_map(|(_, p)| p.all())
                .map(|r| r.wall_ns as f64 / 1e9)
                .sum();
            report.layer(
                "cluster.lease_frames_per_s",
                lease_frames as f64 / run_secs.max(1e-9),
                "1/s",
            );
            report.layer("cluster.grants", cc.grants as f64, "count");
            report.layer("cluster.steals", cc.steals as f64, "count");
            report.layer(
                "cluster.borrows",
                node_counters.iter().map(|c| c.borrows).sum::<u64>() as f64,
                "count",
            );
            report.layer(
                "cluster.returns",
                node_counters.iter().map(|c| c.returns_sent).sum::<u64>() as f64,
                "count",
            );
        }
        let traced_cost = ts.server_cpu_ns_per_decision + ts.generator_cpu_ns_per_decision;
        report.layer(
            "trace.overhead_pct",
            (traced_cost - untraced_cost) / untraced_cost.max(1e-9) * 100.0,
            "%",
        );
    }
    add_span_metrics(&mut report, &spans, opts);
    report
}

/// The sustained rate from the passing rungs of each climb. A climb that
/// passes its first `k` rungs and fails the rest sustained `ladder[k-1]`.
/// Near capacity a passing host stall fails one rung and spares the next,
/// so rather than the highest passing rung, each climb counts its passes,
/// a rung counting the share of its stretches that met the latency limit
/// (see `RungResult::pass_share`). Every climb offers the same schedule,
/// and a host that takes a vCPU away (steal) only ever lowers a count, so
/// the figure is the mean count of the better half of the climbs; the
/// fractional rung is interpolated geometrically between its neighbours.
pub fn sustained_rate(ladder: &[f64], climb_passes: &[f64]) -> f64 {
    let mut counts = climb_passes.to_vec();
    counts.sort_by(f64::total_cmp);
    let better = &counts[counts.len() / 2..];
    let passes = better.iter().sum::<f64>() / better.len().max(1) as f64;
    if passes < 1.0 {
        return ladder[0] * passes;
    }
    let at = passes - 1.0;
    let i = (at.floor() as usize).min(ladder.len() - 1);
    match ladder.get(i + 1) {
        Some(&next) => ladder[i] * (next / ladder[i]).powf(at - i as f64),
        None => ladder[i],
    }
}

/// Layer self times, the span count, and the span file.
pub fn add_span_metrics(report: &mut Report, spans: &[trace::Span], opts: &Opts) {
    if !opts.trace {
        return;
    }
    let self_ns = trace::layer_self_ns(spans);
    for layer in crate::catalog::LAYERS {
        let name = format!("{layer}.self_ms");
        let ms = self_ns.get(layer).copied().unwrap_or(0.0) / 1e6;
        report.layer(&name, ms, "ms");
    }
    report.layer("trace.spans", spans.len() as f64, "count");
    let dir = opts.root.join(".bench_work").join("spans");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("seed{}-{}.csv", opts.seed, std::process::id()));
        match trace::write_csv(&path, spans) {
            Ok(()) => report.note(format!(
                "spans {} written to {} ({} dropped past the cap)",
                spans.len(),
                path.display(),
                trace::dropped()
            )),
            Err(e) => report.note(format!("spans not written: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sustained_rate;

    #[test]
    fn sustained_rate_reads_the_better_half_mean_pass_count_off_the_ladder() {
        let ladder = [100.0, 200.0, 400.0, 800.0];
        // Every climb passes its first two rungs: the second rung's rate.
        assert_eq!(sustained_rate(&ladder, &[2.0, 2.0, 2.0]), 200.0);
        // The better half of six counts is 2.0, 2.5 and 3.0, a mean of
        // 2.5 rungs: halfway between 200 and 400 on the geometric scale.
        let rate = sustained_rate(&ladder, &[3.0, 0.0, 1.0, 2.5, 2.0, 1.5]);
        assert!((rate - 200.0 * 2f64.sqrt()).abs() < 1e-9, "{rate}");
        // Past the top rung the rate stays at the top; below the first
        // it falls towards 0.
        assert_eq!(sustained_rate(&ladder, &[4.0, 4.0, 4.0]), 800.0);
        assert_eq!(sustained_rate(&ladder, &[0.5, 0.5, 0.5]), 50.0);
    }
}
