//! The open-loop load engine shared by `wire_open` and `cluster_open`.
//!
//! Arrivals follow a schedule fixed before the run: Poisson instants at a
//! constant rate per rung, drawn from the seed during set-up. One
//! generator thread drives every connection: it writes each request when
//! it falls due (and each release when its task's scheduled completion
//! comes) and reads verdicts in between. A request is timed from its
//! scheduled send instant, so a stall charges every request queued behind
//! it. Demands and deadlines shrink with 1/rate, which keeps the offered
//! synthetic load per stage the same on every rung, so the admit/reject
//! mix does not depend on program speed.

use crate::stats::{percentile, sorted_percentile, supported_tail};
use crate::sys;
use crate::trace;
use frap_core::wire::WireTaskSpec;
use frap_gateway::proto::{
    DrainedAdmit, Frame, FrameBuffer, Hello, HelloAck, Verdict, HELLO_ACK_LEN, VERSION,
};
use frap_gateway::server::GatewaySnapshot;
use frap_workload::dist::{Distribution, Exponential, Uniform};
use frap_workload::rng::Rng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::hash::BuildHasherDefault;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Pipeline stages of every generated task (the paper's pipeline).
pub const STAGES: usize = 3;
/// Per-stage offered demand `λ·C̄`: mean demand per stage is this over
/// the rate, in seconds.
pub const DEMAND_LOAD: f64 = 200.0;
/// Mean deadline over mean total demand, as in the paper's resolution.
pub const RESOLUTION: f64 = 400.0;
/// The latency limit a rung's stretches must meet at `PASS_QUANTILE`.
pub const LATENCY_LIMIT_NS: u32 = 500_000;
/// Generator lateness (at `PASS_QUANTILE`) above which a stretch counts
/// as the generator's fault, not the server's.
pub const LATENESS_LIMIT_NS: u32 = 200_000;
/// The quantile a stretch is judged at. On a small shared VM, hypervisor
/// stalls of 1–10 ms, dozens a second, set p90 and p99 at every load;
/// the median still rises only when requests queue at capacity.
pub const PASS_QUANTILE: f64 = 0.50;
/// Queueing, in seconds of arrivals, at which a rung is abandoned as
/// overloaded, so a rung past capacity ends before requests outlive their
/// transport budget.
pub const ABANDON_QUEUE_SECS: f64 = 0.012;
/// Backlog at a rung's end, in seconds of arrivals, above which the
/// backlog counts as growing: longer than a hypervisor stall.
pub const BACKLOG_SECS: f64 = 0.010;

/// One scheduled arrival.
#[derive(Debug, Clone, Copy)]
pub struct Task {
    /// Scheduled send instant, nanoseconds after the rung starts.
    pub at_ns: u64,
    pub demands_us: [u32; STAGES],
    pub deadline_us: u32,
}

impl Task {
    /// Scheduled completion: the stages run back to back from arrival.
    pub fn hold_ns(&self) -> u64 {
        self.demands_us.iter().map(|&d| u64::from(d)).sum::<u64>() * 1_000
    }
}

/// What a rung is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RungKind {
    Warmup,
    Ref,
    Ladder,
}

/// One constant-rate stretch of the schedule.
pub struct Rung {
    pub kind: RungKind,
    pub rate: f64,
    pub tasks: Vec<Task>,
}

/// How task shapes (demand vectors) are drawn.
#[derive(Debug, Clone, Copy)]
pub enum Shapes {
    /// Every demand vector in the run is distinct.
    Unique,
    /// Each rate has this many task classes, drawn the first time a rung
    /// runs at it and reused by every later rung at that rate, so the set
    /// of shapes in a run stays small and fixed. The classes are a Latin
    /// hypercube sample of the demand and deadline distributions, so every
    /// seed's classes offer the same load mix.
    Catalog(usize),
}

/// The generated schedule plus how often a shape repeated.
pub struct Plan {
    pub rungs: Vec<Rung>,
    pub shape_repeats: u64,
    pub tasks: u64,
}

/// Largest demand drawn, µs: keeps a vector packable into one `u64`.
const MAX_DEMAND_US: f64 = ((1u64 << 21) - 1) as f64;

fn pack(d: &[u32; STAGES]) -> u64 {
    (u64::from(d[0]) << 42) | (u64::from(d[1]) << 21) | u64::from(d[2])
}

/// A multiplicative hasher for packed demand vectors: the keys are the
/// benchmark's own, so collision resistance buys nothing here.
#[derive(Default)]
struct MixHasher(u64);

impl std::hash::Hasher for MixHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
    }
}

fn draw_shape(rng: &mut Rng, demand: &Exponential, deadline: &Uniform) -> ([u32; STAGES], u32) {
    let mut demands = [0u32; STAGES];
    for d in &mut demands {
        *d = (demand.sample(rng) * 1e6)
            .round()
            .clamp(1.0, MAX_DEMAND_US - 64.0) as u32;
    }
    let deadline_us = (deadline.sample(rng) * 1e6).round().clamp(1.0, 4e9) as u32;
    (demands, deadline_us)
}

/// `n` task classes stratified over the demand (exponential, mean
/// `mean_demand` s per stage) and deadline (uniform over ±50% of
/// `mean_deadline` s) distributions: along each dimension, class `k` takes
/// a random point of its own `1/n` quantile slice, the slices shuffled
/// per dimension.
fn stratified_catalog(
    rng: &mut Rng,
    n: usize,
    mean_demand: f64,
    mean_deadline: f64,
) -> Vec<([u32; STAGES], u32)> {
    let slice = |rng: &mut Rng| {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.range_u64(i as u64 + 1) as usize);
        }
        order
            .into_iter()
            .map(|k| (k as f64 + rng.next_f64()) / n as f64)
            .collect::<Vec<f64>>()
    };
    let stages: Vec<Vec<f64>> = (0..STAGES).map(|_| slice(rng)).collect();
    let deadlines = slice(rng);
    (0..n)
        .map(|k| {
            let mut demands = [0u32; STAGES];
            for (j, d) in demands.iter_mut().enumerate() {
                let seconds = -mean_demand * (1.0 - stages[j][k]).ln();
                *d = (seconds * 1e6).round().clamp(1.0, MAX_DEMAND_US - 64.0) as u32;
            }
            let deadline = mean_deadline * (0.5 + deadlines[k]);
            (demands, (deadline * 1e6).round().clamp(1.0, 4e9) as u32)
        })
        .collect()
}

/// Draws the whole schedule from `seed`: `(kind, rate, seconds)` per rung.
pub fn plan(rungs: &[(RungKind, f64, f64)], seed: u64, shapes: Shapes) -> Plan {
    let _span = trace::span("workload.generate", 0);
    let mut rng = Rng::new(seed);
    // Unique shapes: sized for the whole schedule up front, since growing
    // it would rehash millions of keys.
    let expected = match shapes {
        Shapes::Unique => rungs.iter().map(|&(_, rate, secs)| rate * secs).sum(),
        Shapes::Catalog(_) => 0.0,
    };
    let mut seen: HashSet<u64, BuildHasherDefault<MixHasher>> =
        HashSet::with_capacity_and_hasher((expected * 1.05) as usize, Default::default());
    let mut shape_repeats = 0u64;
    let mut tasks_total = 0u64;
    let mut catalogs: HashMap<u64, Vec<([u32; STAGES], u32)>> = HashMap::new();
    let mut out = Vec::with_capacity(rungs.len());
    for &(kind, rate, secs) in rungs {
        let mean_demand = DEMAND_LOAD / rate;
        let mean_deadline = RESOLUTION * STAGES as f64 * mean_demand;
        let demand = Exponential::new(mean_demand);
        let deadline = Uniform::new(0.5 * mean_deadline, 1.5 * mean_deadline);
        let gap = Exponential::new(1.0 / rate);
        let catalog = match shapes {
            Shapes::Unique => &[][..],
            Shapes::Catalog(n) => &catalogs
                .entry(rate.to_bits())
                .or_insert_with(|| stratified_catalog(&mut rng, n, mean_demand, mean_deadline))[..],
        };
        let horizon_ns = (secs * 1e9) as u64;
        let mut tasks = Vec::with_capacity((rate * secs * 1.1) as usize + 16);
        let mut t = 0.0f64;
        loop {
            t += gap.sample(&mut rng);
            let at_ns = (t * 1e9) as u64;
            if at_ns >= horizon_ns {
                break;
            }
            let (mut demands_us, deadline_us) = match shapes {
                Shapes::Unique => draw_shape(&mut rng, &demand, &deadline),
                Shapes::Catalog(n) => catalog[rng.range_u64(n as u64) as usize],
            };
            if !seen.insert(pack(&demands_us)) {
                match shapes {
                    // Nudge the first stage until the vector is new.
                    Shapes::Unique => {
                        while !seen.insert(pack(&demands_us)) {
                            demands_us[0] += 1;
                        }
                    }
                    Shapes::Catalog(_) => shape_repeats += 1,
                }
            }
            tasks.push(Task {
                at_ns,
                demands_us,
                deadline_us,
            });
        }
        tasks_total += tasks.len() as u64;
        out.push(Rung { kind, rate, tasks });
    }
    Plan {
        rungs: out,
        shape_repeats,
        tasks: tasks_total,
    }
}

/// One client connection, split into a write half and a read half.
pub struct Conn {
    writer: TcpStream,
    reader: TcpStream,
    inbox: FrameBuffer,
    epoch: Instant,
    server_epoch_us: u64,
    /// Next request id the receiver expects on this connection.
    expect_id: u64,
}

impl Conn {
    /// Connects and performs the version handshake, recording the
    /// server's clock offset.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let before = Instant::now();
        stream.write_all(&Hello { version: VERSION }.encode())?;
        let mut ack = [0u8; HELLO_ACK_LEN];
        stream.read_exact(&mut ack)?;
        let epoch = Instant::now();
        let ack = HelloAck::decode(&ack)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let half_rtt_us = (epoch - before).as_micros() as u64 / 2;
        // Reads follow a readable poll; the timeout only bounds a read that
        // finds nothing.
        stream.set_read_timeout(Some(Duration::from_millis(20)))?;
        let reader = stream.try_clone()?;
        Ok(Conn {
            writer: stream,
            reader,
            inbox: FrameBuffer::new(),
            epoch,
            server_epoch_us: ack.server_now_us.saturating_add(half_rtt_us),
            expect_id: 1,
        })
    }

    /// The server-clock reading at local instant `at`, in microseconds.
    fn server_us(&self, at: Instant) -> u64 {
        self.server_epoch_us
            .saturating_add(at.saturating_duration_since(self.epoch).as_micros() as u64)
    }
}

/// Stretches a rung's verdicts are split into for the pass test.
const WINDOWS: usize = 5;

/// Everything measured on one rung.
#[derive(Debug, Default)]
pub struct RungResult {
    pub rate: f64,
    pub sent: u64,
    pub answered: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub expired: u64,
    pub protocol_errors: u64,
    pub io_errors: u64,
    pub aborted: bool,
    /// Requests unanswered when the schedule ended.
    pub backlog_at_end: u64,
    /// Per request, in answer order: answer instant minus scheduled send, ns.
    pub latency_ns: Vec<u32>,
    /// Per request, in send order: actual send minus scheduled send, ns.
    pub lateness_ns: Vec<u32>,
    pub wall_ns: u64,
    pub process_cpu_ns: u64,
    pub generator_cpu_ns: u64,
    pub worker_cpu_ns: u64,
    pub gateway: GatewaySnapshot,
    pub p50_ns: u32,
    pub p90_ns: u32,
    pub p99_ns: u32,
    pub lateness_p99_ns: u32,
    /// Stretches meeting the latency limit, and stretches where the
    /// generator ran late.
    pub windows_ok: usize,
    pub windows_late: usize,
}

/// The `PASS_QUANTILE` of each of `WINDOWS` consecutive stretches.
fn window_quantiles(samples: &[u32]) -> Vec<u32> {
    let chunk = samples.len().div_ceil(WINDOWS).max(1);
    let mut out: Vec<u32> = samples
        .chunks(chunk)
        .map(|w| percentile(&mut w.to_vec(), PASS_QUANTILE))
        .collect();
    out.resize(WINDOWS, u32::MAX);
    out
}

impl RungResult {
    /// Computes the order statistics (sorting the samples).
    fn finish(&mut self) {
        let latency = window_quantiles(&self.latency_ns);
        let lateness = window_quantiles(&self.lateness_ns);
        self.windows_ok = latency.iter().filter(|&&v| v <= LATENCY_LIMIT_NS).count();
        self.windows_late = lateness.iter().filter(|&&v| v > LATENESS_LIMIT_NS).count();
        self.p50_ns = percentile(&mut self.latency_ns, 0.5);
        self.p90_ns = percentile(&mut self.latency_ns, 0.9);
        self.p99_ns = percentile(&mut self.latency_ns, 0.99);
        self.lateness_p99_ns = percentile(&mut self.lateness_ns, 0.99);
    }

    pub fn failures(&self) -> u64 {
        self.expired + self.protocol_errors + self.io_errors + (self.sent - self.answered)
    }

    /// Whether the generator, not the server, fell behind in most
    /// stretches: the rung is then invalid.
    pub fn generator_late(&self) -> bool {
        self.windows_late > WINDOWS / 2 && self.gateway.backpressure_stalls == 0
    }

    /// Meets the latency limit in most stretches, with no growing backlog,
    /// no failed request and an on-time generator.
    pub fn passes(&self) -> bool {
        self.valid() && self.windows_ok > WINDOWS / 2
    }

    /// The share of stretches meeting the latency limit, or 0 if the rung
    /// was abandoned, failed a request, ended with a growing backlog or
    /// had a late generator.
    pub fn pass_share(&self) -> f64 {
        if self.valid() {
            self.windows_ok as f64 / WINDOWS as f64
        } else {
            0.0
        }
    }

    fn valid(&self) -> bool {
        let backlog_limit = (self.rate * BACKLOG_SECS).max(64.0) as u64;
        !self.aborted
            && self.failures() == 0
            && self.backlog_at_end <= backlog_limit
            && !self.generator_late()
    }

    pub fn acceptance(&self) -> f64 {
        self.admitted as f64 / (self.admitted + self.rejected).max(1) as f64
    }
}

fn delta(a: &GatewaySnapshot, b: &GatewaySnapshot) -> GatewaySnapshot {
    GatewaySnapshot {
        accepted: b.accepted - a.accepted,
        closed: b.closed - a.closed,
        frames_in: b.frames_in - a.frames_in,
        frames_out: b.frames_out - a.frames_out,
        admitted: b.admitted - a.admitted,
        rejected: b.rejected - a.rejected,
        expired_on_arrival: b.expired_on_arrival - a.expired_on_arrival,
        releases: b.releases - a.releases,
        bad_requests: b.bad_requests - a.bad_requests,
        protocol_errors: b.protocol_errors - a.protocol_errors,
        backpressure_stalls: b.backpressure_stalls - a.backpressure_stalls,
        idle_disconnects: b.idle_disconnects - a.idle_disconnects,
        wakeups: b.wakeups - a.wakeups,
        read_syscalls: b.read_syscalls - a.read_syscalls,
        write_syscalls: b.write_syscalls - a.write_syscalls,
        bytes_in: b.bytes_in - a.bytes_in,
        bytes_out: b.bytes_out - a.bytes_out,
    }
}

/// Prefix of the gateway's worker thread names (as the kernel truncates
/// them).
pub const WORKER_PREFIX: &str = "frap-gateway-w";

/// A release due at `.0` ns into the rung, for ticket `.1` on connection `.2`.
type Release = (u64, u64, usize);

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 1;

/// Polls `fds` for readability without waiting; marks the readable ones
/// in `revents`.
fn poll_readable(fds: &mut [PollFd]) {
    for f in fds.iter_mut() {
        f.revents = 0;
    }
    let zero = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `fds` is a valid array of `fds.len()` pollfd records and
    // `zero` a valid timespec, both outliving the call; a null signal mask
    // leaves the mask unchanged. ppoll writes only the `revents` fields.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &zero, std::ptr::null());
    }
}

/// How long the generator waits without any verdict before it gives up.
const STALL_LIMIT: Duration = Duration::from_secs(5);

/// Per-connection state of one rung.
struct Lane {
    out: Vec<u8>,
    /// Requests sent and verdicts received on this connection.
    sent: u64,
    got: u64,
    base_id: u64,
}

/// Runs one rung over `conns` from the calling thread, which is the whole
/// generator: request `i` of the rung goes to connection
/// `i % conns.len()`, which answers in FIFO order. The thread sends what
/// is due, then waits for verdicts or the next due instant, whichever
/// comes first.
/// `snapshot` reads the gateways' counters.
pub fn run_rung(
    conns: &mut [Conn],
    rung: &Rung,
    snapshot: &dyn Fn() -> GatewaySnapshot,
    faults: crate::Faults,
) -> RungResult {
    use std::os::fd::AsRawFd;
    let before = snapshot();
    let workers_before = sys::named_threads_cpu_ns(WORKER_PREFIX);
    let cpu_before = sys::process_cpu_ns();
    let gen_before = sys::thread_cpu_ns();
    sys::precise_sleeps();

    let tasks = &rung.tasks;
    let nconn = conns.len();
    let mut lanes: Vec<Lane> = conns
        .iter()
        .map(|c| Lane {
            out: Vec::with_capacity(64 * 1024),
            sent: 0,
            got: 0,
            base_id: c.expect_id,
        })
        .collect();
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.reader.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let mut r = RungResult {
        rate: rung.rate,
        latency_ns: Vec::with_capacity(tasks.len()),
        lateness_ns: Vec::with_capacity(tasks.len()),
        ..RungResult::default()
    };
    let mut held: BinaryHeap<Reverse<Release>> = BinaryHeap::new();
    let mut spec = WireTaskSpec {
        deadline_us: 0,
        stage_demands_us: vec![0; STAGES],
        importance: 0,
    };
    let mut flip = faults.flip_verdict;
    let end_ns = tasks.last().map_or(0, |t| t.at_ns);
    let mut backlog_noted = false;
    let mut next = 0usize;
    let abandon_at = (rung.rate * ABANDON_QUEUE_SECS).max(1024.0) as u64;
    let start = Instant::now() + Duration::from_millis(1);
    let mut last_progress = Instant::now();
    sys::sleep_until(start);
    loop {
        let now_ns = start.elapsed().as_nanos() as u64;
        // Requests now due, unless the backlog says the rung is lost.
        while !r.aborted && next < tasks.len() && tasks[next].at_ns <= now_ns {
            if (next as u64).saturating_sub(r.answered) >= abandon_at {
                r.aborted = true;
                break;
            }
            let task = &tasks[next];
            let c = next % nconn;
            let conn = &conns[c];
            let due = start + Duration::from_nanos(task.at_ns);
            spec.deadline_us = u64::from(task.deadline_us);
            for (d, &v) in spec.stage_demands_us.iter_mut().zip(&task.demands_us) {
                *d = u64::from(v);
            }
            // The whole deadline may go to transport: a verdict after it
            // is useless.
            let expires = conn.server_us(due) + spec.deadline_us;
            let lane = &mut lanes[c];
            Frame::encode_admit_request_into(
                lane.base_id + lane.sent,
                expires,
                false,
                &spec,
                &mut lane.out,
            );
            lane.sent += 1;
            r.lateness_ns
                .push((now_ns - task.at_ns).min(u64::from(u32::MAX)) as u32);
            next += 1;
        }
        r.sent = next as u64;
        let finished = (r.aborted || next >= tasks.len()) && r.answered >= r.sent;
        // Releases due now; once every verdict is in, all of them.
        while let Some(&Reverse((due, ticket, c))) = held.peek() {
            if due > now_ns && !finished {
                break;
            }
            held.pop();
            Frame::Release { ticket_id: ticket }.encode_into(&mut lanes[c].out);
        }
        for (c, lane) in lanes.iter_mut().enumerate() {
            if !lane.out.is_empty() {
                let _span = trace::span("gateway.send", next as u64);
                let mut w: &TcpStream = &conns[c].writer;
                if w.write_all(&lane.out).is_err() {
                    r.io_errors += 1;
                }
                lane.out.clear();
            }
        }
        if finished || r.io_errors > 0 || r.protocol_errors > 0 {
            break;
        }
        if last_progress.elapsed() > STALL_LIMIT {
            r.io_errors += 1;
            break;
        }

        // Poll for verdicts without sleeping: the generator keeps its core,
        // so a sleeping vCPU's wake-up delay never lands in a latency.
        poll_readable(&mut fds);
        for c in 0..nconn {
            if fds[c].revents == 0 {
                continue;
            }
            let conn = &mut conns[c];
            {
                let _span = trace::span("gateway.recv", r.answered);
                match conn.inbox.read_from(&mut &conn.reader) {
                    Ok(0) => {
                        r.io_errors += 1;
                        break;
                    }
                    Ok(_) => last_progress = Instant::now(),
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) => {}
                    Err(_) => {
                        r.io_errors += 1;
                        break;
                    }
                }
            }
            let now_ns = start.elapsed().as_nanos() as u64;
            let lane = &mut lanes[c];
            loop {
                match conn.inbox.next_admit_response() {
                    Ok(DrainedAdmit::Admit { req_id, verdict }) => {
                        if req_id != lane.base_id + lane.got || lane.got >= lane.sent {
                            // Out of order or unasked: the stream is unusable.
                            r.protocol_errors += 1;
                            break;
                        }
                        let task = &tasks[(lane.got as usize) * nconn + c];
                        lane.got += 1;
                        r.answered += 1;
                        r.latency_ns
                            .push(now_ns.saturating_sub(task.at_ns).min(u64::from(u32::MAX)) as u32);
                        let verdict = if flip && verdict.is_admitted() {
                            flip = false;
                            Verdict::Rejected
                        } else {
                            verdict
                        };
                        match verdict {
                            Verdict::Admitted { ticket_id }
                            | Verdict::AdmittedAfterShedding { ticket_id, .. } => {
                                r.admitted += 1;
                                held.push(Reverse((task.at_ns + task.hold_ns(), ticket_id, c)));
                            }
                            Verdict::Rejected => r.rejected += 1,
                            Verdict::Expired => r.expired += 1,
                        }
                    }
                    Ok(DrainedAdmit::Pending) => break,
                    Ok(DrainedAdmit::Other(_)) | Err(_) => {
                        r.protocol_errors += 1;
                        break;
                    }
                }
            }
            if !backlog_noted && now_ns >= end_ns {
                backlog_noted = true;
                let due = tasks.iter().take_while(|t| t.at_ns <= now_ns).count() as u64;
                r.backlog_at_end = due.saturating_sub(r.answered);
            }
        }
    }
    r.wall_ns = start.elapsed().as_nanos() as u64;
    r.generator_cpu_ns = sys::thread_cpu_ns() - gen_before;
    r.process_cpu_ns = sys::process_cpu_ns().saturating_sub(cpu_before);
    r.worker_cpu_ns = sys::named_threads_cpu_ns(WORKER_PREFIX).saturating_sub(workers_before);
    r.gateway = delta(&before, &snapshot());
    r.finish();
    for (conn, lane) in conns.iter_mut().zip(&lanes) {
        conn.expect_id = lane.base_id + lane.sent;
    }
    r
}

/// Summary of a rung set at the reference rate.
pub struct RefSummary {
    pub p50_ns: f64,
    pub p99_ns: f64,
    /// Samples and segments the figures rest on.
    pub samples: usize,
    pub segments: usize,
    /// Segments whose median latency is more than twice the run's best
    /// segment's: counted for the notes, never excluded.
    pub slow_segments: usize,
    pub acceptance: f64,
    pub server_cpu_ns_per_decision: f64,
    pub generator_cpu_ns_per_decision: f64,
}

/// Medians over the reference segments of each segment's own figures.
/// The median resists a minority of segments the host disturbed, and a
/// majority of slow segments is what a regression looks like, so every
/// segment that ran to its end counts.
pub fn summarize_ref(refs: &[RungResult]) -> RefSummary {
    use crate::stats::median;
    let done: Vec<&RungResult> = refs.iter().filter(|r| !r.aborted).collect();
    let best = done.iter().map(|r| r.p50_ns).min().unwrap_or(0);
    let per =
        |f: &dyn Fn(&RungResult) -> f64| median(&done.iter().map(|r| f(r)).collect::<Vec<_>>());
    let decisions = |r: &RungResult| r.answered.max(1) as f64;
    RefSummary {
        p50_ns: per(&|r| f64::from(r.p50_ns)),
        p99_ns: per(&|r| f64::from(r.p99_ns)),
        samples: done.iter().map(|r| r.latency_ns.len()).sum(),
        segments: done.len(),
        slow_segments: done
            .iter()
            .filter(|r| u64::from(r.p50_ns) > 2 * u64::from(best))
            .count(),
        acceptance: per(&|r| r.acceptance()),
        server_cpu_ns_per_decision: per(&|r| {
            r.process_cpu_ns.saturating_sub(r.generator_cpu_ns) as f64 / decisions(r)
        }),
        generator_cpu_ns_per_decision: per(&|r| r.generator_cpu_ns as f64 / decisions(r)),
    }
}

/// Pooled round-trip figures over `rungs`: p50 and the highest tail
/// percentile with ten samples beyond it.
pub fn pooled_tail(rungs: &[RungResult]) -> (f64, f64, f64, usize) {
    let mut all: Vec<u32> = rungs
        .iter()
        .flat_map(|r| r.latency_ns.iter().copied())
        .collect();
    let (pct, tail, beyond) = supported_tail(&mut all);
    let p50 = sorted_percentile(&all, 0.5);
    (f64::from(p50), pct, f64::from(tail), beyond)
}
