//! Socket-level load generator for the admission gateway.
//!
//! Replays `frap-workload` Poisson pipeline streams over N real TCP
//! connections (one pipelining client per thread) against a gateway —
//! either one it spawns in-process on loopback, or an already-running
//! one whose address is given — and reports sustained decisions per
//! second, round-trip tail latency, and the expired-on-arrival rate.
//!
//! ```text
//! gateway-loadgen [threads] [seconds] [stages] [load] [addr] [--trace FILE]
//! ```
//!
//! Defaults: 4 threads, 2 seconds, 3 stages, offered load 2.0, and an
//! in-process server on `127.0.0.1:0`. Every admitted ticket is released
//! over the wire; anything still in flight when the run stops is cleaned
//! up by the server's disconnect handling, so the run must end with zero
//! live tasks.
//!
//! `--trace FILE` replays a saved `frap-arrivals` file (v1 or v2, e.g.
//! one written by `frap-scenarios`) instead of the built-in Poisson
//! streams: every connection cycles through the trace's task specs over
//! the same pipelining path, `stages` and `load` are taken from the
//! trace, and the process exits with status 2 if the trace is empty or
//! contains non-chain tasks (the wire protocol carries chains only).
//!
//! The summary goes to stdout. The process exits non-zero if nothing was
//! admitted or any protocol error occurred, so a plain invocation works
//! as a smoke test.

use frap_core::admission::ExactContributions;
use frap_core::hist::LatencyHistogram;
use frap_core::region::FeasibleRegion;
use frap_core::time::TimeDelta;
use frap_core::wire::WireTaskSpec;
use frap_gateway::client::{GatewayClient, PreparedAdmit};
use frap_gateway::proto::Verdict;
use frap_gateway::server::{GatewayConfig, GatewayServer};
use frap_service::AdmissionService;
use frap_workload::PipelineWorkloadBuilder;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn parse_arg<T: std::str::FromStr>(args: &[String], idx: usize, default: T) -> T {
    args.get(idx)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Loads a saved arrival trace as wire specs, or exits with status 2 if
/// the file is unusable for wire replay (empty, or non-chain tasks).
fn load_trace_specs(path: &str) -> Vec<WireTaskSpec> {
    let arrivals = match frap_workload::replay::load_arrivals(path) {
        Ok(arrivals) => arrivals,
        Err(e) => {
            eprintln!("gateway-loadgen: cannot load trace {path}: {e}");
            std::process::exit(2);
        }
    };
    if arrivals.is_empty() {
        eprintln!("gateway-loadgen: trace {path} holds no arrivals");
        std::process::exit(2);
    }
    arrivals
        .iter()
        .map(|(_, spec)| match WireTaskSpec::from_spec(spec) {
            Some(wire) => wire,
            None => {
                eprintln!(
                    "gateway-loadgen: trace {path} holds a non-chain task; \
                     the wire protocol carries stage-ordered chains only"
                );
                std::process::exit(2);
            }
        })
        .collect()
}

/// Records a round-trip duration, reinterpreting the histogram's tick as
/// 1 ns (the same convention as `frap-service` decision latency).
fn record_rtt(hist: &mut LatencyHistogram, elapsed: Duration) {
    hist.record(TimeDelta::from_micros(elapsed.as_nanos() as u64));
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

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let trace_path = args.iter().position(|a| a == "--trace").map(|pos| {
        if pos + 1 >= args.len() {
            eprintln!("gateway-loadgen: --trace requires a file path");
            std::process::exit(2);
        }
        let path = args.remove(pos + 1);
        args.remove(pos);
        path
    });
    let trace_specs = trace_path.as_deref().map(load_trace_specs);

    let threads: usize = parse_arg(&args, 1, 2);
    let seconds: f64 = parse_arg(&args, 2, 2.0);
    let mut stages: usize = parse_arg(&args, 3, 3);
    let load: f64 = parse_arg(&args, 4, 2.0);
    let addr_arg: Option<String> = args.get(5).cloned();
    if let Some(specs) = &trace_specs {
        // The trace dictates the pipeline shape; size the region to the
        // widest task it carries.
        stages = specs
            .iter()
            .map(|s| s.stage_demands_us.len())
            .max()
            .unwrap_or(stages);
    }
    // Per-connection in-flight window. Total in-flight (threads × window)
    // bounds the p50 round trip by Little's law, so depth is capped by
    // the latency budget, not throughput appetite: 40 is the deepest
    // setting whose measured p50 stays in the same histogram bucket as
    // window 32 on the reference box (48 and 64 each climb a bucket).
    let window: u16 = std::env::var("GATEWAY_WINDOW")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(40);

    match &trace_path {
        Some(path) => println!(
            "gateway-loadgen: {threads} connection(s), {seconds:.1}s, \
             {stages}-stage pipeline, trace {path} ({} task(s)), window {window}",
            trace_specs.as_ref().map_or(0, Vec::len)
        ),
        None => println!(
            "gateway-loadgen: {threads} connection(s), {seconds:.1}s, \
             {stages}-stage pipeline, offered load {load:.2}, window {window}"
        ),
    }

    // Spawn an in-process gateway unless pointed at a remote one.
    let (server, service) = if addr_arg.is_none() {
        let service = AdmissionService::builder(
            FeasibleRegion::deadline_monotonic(stages),
            ExactContributions,
        )
        .shards(threads.max(1))
        .build();
        let workers = std::env::var("GATEWAY_WORKERS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| threads.clamp(1, 4));
        let server = GatewayServer::bind(
            "127.0.0.1:0",
            service.clone(),
            GatewayConfig {
                workers,
                window,
                idle_timeout: None,
            },
        )
        .expect("bind loopback gateway");
        (Some(server), Some(service))
    } else {
        (None, None)
    };
    let addr = match (&addr_arg, &server) {
        (Some(a), _) => a.clone(),
        (None, Some(s)) => s.local_addr().to_string(),
        _ => unreachable!(),
    };
    println!("target         {addr}");

    // Pre-generate each connection's task stream so the hot loop measures
    // the gateway, not the generator. A `--trace` replay hands every
    // connection the same saved stream instead.
    let specs_per_thread = 2_000usize;
    let streams: Vec<Vec<WireTaskSpec>> = match trace_specs {
        Some(specs) => (0..threads).map(|_| specs.clone()).collect(),
        None => (0..threads)
            .map(|t| {
                PipelineWorkloadBuilder::new(stages)
                    .mean_computation_ms(10.0)
                    .resolution(10.0)
                    .load(load)
                    .seed(0xFEED ^ (t as u64) << 8)
                    .build()
                    .specs()
                    .take(specs_per_thread)
                    .map(|spec| WireTaskSpec::from_spec(&spec).expect("pipeline-shaped"))
                    .collect()
            })
            .collect(),
    };

    let stop = Arc::new(AtomicBool::new(false));
    let cpu_start = process_cpu_ticks();
    let started = Instant::now();
    let workers: Vec<_> = streams
        .into_iter()
        .map(|specs| {
            let addr = addr.clone();
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
    let cpu_secs = process_cpu_ticks()
        .zip(cpu_start)
        .map(|(end, start)| (end.saturating_sub(start)) as f64 / 100.0);

    // Let the in-process server observe the disconnects, then stop it.
    let gateway = server.map(|server| {
        server.drain();
        if !server.wait_idle(Duration::from_secs(5)) {
            eprintln!("warning: connections still open after drain");
        }
        server.shutdown()
    });

    let (p50, p99, p999, max) = (
        total.rtt.percentile(0.50).as_micros(),
        total.rtt.percentile(0.99).as_micros(),
        total.rtt.percentile(0.999).as_micros(),
        total.rtt.max().as_micros(),
    );
    let per_sec = total.decisions as f64 / elapsed;
    let protocol_errors = gateway.map(|g| g.protocol_errors).unwrap_or(0);
    // Wire efficiency: kernel crossings and payload bytes per decision,
    // from the gateway's reactor counters (zero when driving a remote
    // gateway whose counters we cannot see).
    let decisions_div = (total.decisions as f64).max(1.0);
    let syscalls_per_decision = gateway.map_or(0.0, |g| g.syscalls() as f64 / decisions_div);
    let bytes_per_decision =
        gateway.map_or(0.0, |g| (g.bytes_in + g.bytes_out) as f64 / decisions_div);
    let expired_rate = if total.decisions == 0 {
        0.0
    } else {
        total.expired as f64 / total.decisions as f64
    };

    println!();
    println!(
        "decisions      {} in {elapsed:.3}s  =>  {:.0} decisions/sec over the wire",
        total.decisions, per_sec
    );
    println!(
        "outcomes       admitted={} rejected={} shed_events={} expired_on_arrival={} \
         ({:.2}% of decisions)",
        total.admitted,
        total.rejected,
        total.shed_events,
        total.expired,
        expired_rate * 100.0
    );
    println!("round-trip     p50={p50}ns p99={p99}ns p999={p999}ns max={max}ns");
    if let Some(cpu) = cpu_secs {
        // Steal- and contention-resistant efficiency: total process CPU
        // (client threads + in-process gateway) per decision.
        println!(
            "cpu            {cpu:.2}s process CPU  =>  {:.0} decisions/cpu-sec, {:.0} ns cpu/decision",
            total.decisions as f64 / cpu.max(1e-9),
            cpu * 1e9 / decisions_div,
        );
    }
    if let Some(g) = gateway {
        println!(
            "gateway        accepted={} closed={} frames_in={} frames_out={} \
             releases={} backpressure_stalls={} protocol_errors={}",
            g.accepted,
            g.closed,
            g.frames_in,
            g.frames_out,
            g.releases,
            g.backpressure_stalls,
            g.protocol_errors
        );
        println!(
            "wire           wakeups={} read_syscalls={} write_syscalls={} \
             bytes_in={} bytes_out={}  =>  {:.2} syscalls/decision, {:.1} bytes/decision",
            g.wakeups,
            g.read_syscalls,
            g.write_syscalls,
            g.bytes_in,
            g.bytes_out,
            syscalls_per_decision,
            bytes_per_decision,
        );
    }

    if let Some(service) = &service {
        service.maintain();
        service.debug_validate();
        let live = service.live_tasks();
        assert_eq!(live, 0, "tickets leaked: {live} live tasks after drain");
        println!("invariants     debug_validate passed, live_tasks=0 after drain");
    }

    assert!(total.admitted > 0, "smoke failure: nothing was admitted");
    assert_eq!(
        protocol_errors, 0,
        "smoke failure: protocol errors observed"
    );
}

/// Total process CPU (user + system, all threads) in clock ticks from
/// `/proc/self/stat`, or `None` off Linux. Used for the
/// decisions-per-cpu-second line, which stays meaningful when the host
/// is oversubscribed and wall-clock throughput is noise.
fn process_cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields 14 (utime) and 15 (stime), counting from 1, after the
    // parenthesized comm field (which may itself contain spaces).
    let rest = stat.rsplit(')').next()?;
    let mut fields = rest.split_ascii_whitespace();
    // After the comm field, the next fields are state (1), then 2..=13
    // relative to the original numbering; utime/stime are the 12th and
    // 13th here.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Drives one pipelining connection until `stop`, then drains in-flight
/// responses and releases what they admitted.
fn run_client(
    addr: &str,
    specs: &[WireTaskSpec],
    stop: &AtomicBool,
) -> std::io::Result<ThreadTally> {
    let mut client = GatewayClient::connect(addr)?;
    let window = (client.window() as usize).clamp(1, 1024);
    // One pre-encoded frame per catalog entry: the hot loop stamps ids
    // and expiries into an interned template instead of serializing
    // field by field.
    let prepared: Vec<PreparedAdmit> = specs
        .iter()
        .map(|task| PreparedAdmit::new(task, false))
        .collect();
    let mut inflight: VecDeque<(u64, Instant)> = VecDeque::with_capacity(window);
    let mut verdicts: Vec<(u64, Verdict)> = Vec::with_capacity(window);
    let mut tally = ThreadTally::default();
    let mut next = 0usize;

    let absorb = |tally: &mut ThreadTally,
                  client: &mut GatewayClient,
                  now: Instant,
                  sent: (u64, Instant),
                  got: (u64, Verdict)| {
        let (req_id, verdict) = got;
        debug_assert_eq!(req_id, sent.0, "responses must be FIFO");
        record_rtt(&mut tally.rtt, now.saturating_duration_since(sent.1));
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
        // Fill the window, one coalesced write for the whole batch (the
        // releases queued while absorbing the previous batch ride along).
        // One clock read stamps the whole fill: the requests leave the
        // host in one flush, so per-request timestamps would differ only
        // by encode time while costing a clock read per decision.
        let now_us = client.server_now_us();
        let queued_at = Instant::now();
        while inflight.len() < window {
            let i = next % specs.len();
            next += 1;
            // Transport slack: half the deadline may be spent in flight.
            let expires_at_us = now_us.saturating_add(specs[i].deadline_us / 2);
            let req_id = client.queue_admit_prepared(&prepared[i], expires_at_us);
            inflight.push_back((req_id, queued_at));
        }
        client.flush()?;
        // One read drains however much of the window has been answered;
        // requests and responses stay overlapped.
        verdicts.clear();
        client.recv_admits_into(&mut verdicts)?;
        // One clock read times the whole drained batch.
        let now = Instant::now();
        for &got in &verdicts {
            let sent = inflight.pop_front().expect("response without request");
            absorb(&mut tally, &mut client, now, sent, got);
        }
    }

    // Collect every outstanding response, then push out the releases they
    // generated before disconnecting.
    client.flush()?;
    while !inflight.is_empty() {
        verdicts.clear();
        client.recv_admits_into(&mut verdicts)?;
        let now = Instant::now();
        for &got in &verdicts {
            let sent = inflight.pop_front().expect("response without request");
            absorb(&mut tally, &mut client, now, sent, got);
        }
    }
    client.flush()?;
    Ok(tally)
}
