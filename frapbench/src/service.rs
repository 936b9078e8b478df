//! `service_closed.*`: in-process callers, each waiting for its verdict,
//! calling `AdmissionService::try_admit` with no wire.
//!
//! * `underload` — 2 threads, small tasks released on decision: the CAS
//!   charge, pending ring and release path do the work.
//! * `overload` — 2 threads against a region saturated by detached
//!   tickets; 1 task in 16 is small enough to fit and is released on
//!   decision, the rest are rejected from the lock-free snapshot.

use crate::report::Report;
use crate::stats::{median, percentile};
use crate::{sys, trace, Opts};
use frap_core::admission::ExactContributions;
use frap_core::graph::TaskSpec;
use frap_core::region::FeasibleRegion;
use frap_core::time::TimeDelta;
use frap_service::AdmissionService;
use frap_workload::rng::Rng;
use frap_workload::PipelineWorkloadBuilder;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

type Service = AdmissionService<FeasibleRegion, ExactContributions>;

const STAGES: usize = 3;
const SHARDS: usize = 2;
const POOL: usize = 4096;
/// Set-ups timed before the measured passes; one more is timed (and
/// dropped) after each of their segments, 21 in an untraced run. A
/// set-up takes about 1.5 ms, so 21 in a row saw one moment of the
/// host's speed, which swings in phases of seconds: the median jumped
/// between about 1.0 and 1.8 ms from run to run. Spread over the run,
/// the set-ups see its phases as the segments do.
const SETUP_FIRST: usize = 5;
/// Measuring segments per pass. Every segment repeats the same
/// steady-state work, so the figures are the best segment's (highest
/// rate, lowest p50 and CPU per decision): the host's speed swings in
/// phases of seconds, contention only ever adds time, and the medians
/// over segments read a p50 spread of 0.27 over ten seeds on
/// `overload` (see METRICS.md).
const SEGMENTS: usize = 16;
/// One call in this many is timed for the latency percentiles.
const LATENCY_EVERY: u64 = 8;
/// Timed calls kept per thread and segment: a uniform reservoir, so
/// memory does not grow with speed.
const LATENCY_KEEP: usize = 1 << 15;
/// One call in this many is traced (the path runs above 1M calls/s).
const SPAN_EVERY: u32 = 16;
/// Deadline of the detached tickets that saturate the region: far beyond
/// any run, so the saturation holds throughout.
const SATURATION_DEADLINE: TimeDelta = TimeDelta::from_secs(3_600);

/// A load point: caller threads and the task pool they cycle through.
struct Point {
    threads: usize,
    overload: bool,
}

fn point(name: &str) -> Option<Point> {
    match name {
        "underload" => Some(Point {
            threads: 2,
            overload: false,
        }),
        "overload" => Some(Point {
            threads: 2,
            overload: true,
        }),
        _ => None,
    }
}

fn spec(deadline_us: u64, demand_us: u64) -> TaskSpec {
    let d = TimeDelta::from_micros(demand_us);
    TaskSpec::pipeline(TimeDelta::from_micros(deadline_us), &[d; STAGES]).expect("three stages")
}

/// The task pool a load point's callers cycle through, drawn from `seed`.
fn pool(p: &Point, seed: u64) -> Vec<TaskSpec> {
    let _span = trace::span("workload.generate", 0);
    if p.overload {
        // Large tasks the saturated region must reject, and exactly one
        // small one in 16, at seeded places, that fits.
        let mut rng = Rng::new(seed);
        let mut pool: Vec<TaskSpec> = (0..POOL)
            .map(|k| {
                if k % 16 == 0 {
                    spec(100_000, 5 + rng.range_u64(16))
                } else {
                    spec(100_000, 3_000 + rng.range_u64(2_000))
                }
            })
            .collect();
        for k in (1..pool.len()).rev() {
            pool.swap(k, rng.range_u64(k as u64 + 1) as usize);
        }
        pool
    } else {
        // The paper's pipeline tasks, scaled to 0.1 ms demands.
        PipelineWorkloadBuilder::new(STAGES)
            .mean_computation_ms(0.1)
            .resolution(100.0)
            .seed(seed)
            .build()
            .specs()
            .take(POOL)
            .collect()
    }
}

fn build_service() -> Service {
    AdmissionService::builder(
        FeasibleRegion::deadline_monotonic(STAGES),
        ExactContributions,
    )
    .shards(SHARDS)
    .build()
}

/// Fills the region with detached medium tickets until one is refused,
/// then frees the last so small tasks keep fitting. Returns the ids held.
fn saturate(service: &Service) -> Vec<u64> {
    // C/D = 0.01 on every stage.
    let deadline_us = SATURATION_DEADLINE.as_micros();
    let medium = spec(deadline_us, deadline_us / 100);
    let mut held = Vec::new();
    while let Some(ticket) = service.try_admit(&medium) {
        held.push(ticket.detach());
    }
    if let Some(last) = held.pop() {
        service.release_by_id(last);
    }
    held
}

/// What one caller thread saw in one segment.
#[derive(Default)]
struct Tally {
    admitted: u64,
    rejected: u64,
    latency_ns: Vec<u32>,
}

/// One segment: `threads` callers for `secs`.
fn segment(
    service: &Service,
    specs: &[TaskSpec],
    threads: usize,
    secs: f64,
    flip: bool,
) -> (Tally, f64, u64) {
    let stop = AtomicBool::new(false);
    let cpu0 = sys::process_cpu_ns();
    let t0 = Instant::now();
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let stop = &stop;
                s.spawn(move || {
                    let mut tally = Tally {
                        latency_ns: Vec::with_capacity(LATENCY_KEEP),
                        ..Tally::default()
                    };
                    let mut timed_calls = 0u64;
                    let mut lcg = 0x2545_F491_4F6C_DD1Du64 ^ t as u64;
                    let (mut admit_tick, mut release_tick) = (0u64, 0u64);
                    let mut flip = flip && t == 0;
                    let mut i = (t * specs.len()) / threads.max(1);
                    let mut calls = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..64 {
                            let spec = &specs[i % specs.len()];
                            i += 1;
                            calls += 1;
                            let timed = calls.is_multiple_of(LATENCY_EVERY);
                            let started = timed.then(Instant::now);
                            let mut span =
                                trace::sampled("service.admit", calls, &mut admit_tick, SPAN_EVERY);
                            let verdict = service.try_admit(spec);
                            if verdict.is_none() {
                                span.rename("service.reject");
                            }
                            drop(span);
                            if let Some(started) = started {
                                let ns = started.elapsed().as_nanos() as u32;
                                timed_calls += 1;
                                if tally.latency_ns.len() < LATENCY_KEEP {
                                    tally.latency_ns.push(ns);
                                } else {
                                    // Reservoir sampling: keep each timed call
                                    // with probability KEEP / timed so far.
                                    lcg =
                                        lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                                    let slot = (lcg >> 33) % timed_calls;
                                    if (slot as usize) < LATENCY_KEEP {
                                        tally.latency_ns[slot as usize] = ns;
                                    }
                                }
                            }
                            match verdict {
                                Some(ticket) => {
                                    if std::mem::take(&mut flip) {
                                        tally.rejected += 1;
                                    } else {
                                        tally.admitted += 1;
                                    }
                                    let _span = trace::sampled(
                                        "service.release",
                                        calls,
                                        &mut release_tick,
                                        SPAN_EVERY,
                                    );
                                    ticket.release();
                                }
                                None => tally.rejected += 1,
                            }
                        }
                    }
                    trace::flush_thread();
                    tally
                })
            })
            .collect();
        // Maintenance beside the callers, as a deployment would run it.
        let end = t0 + Duration::from_secs_f64(secs);
        while Instant::now() < end {
            std::thread::sleep(
                Duration::from_millis(10).min(end.saturating_duration_since(Instant::now())),
            );
            let _span = trace::span("service.maintain", 0);
            service.maintain();
        }
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let cpu = sys::process_cpu_ns() - cpu0;
    let mut total = Tally::default();
    for t in tallies {
        total.admitted += t.admitted;
        total.rejected += t.rejected;
        total.latency_ns.extend(t.latency_ns);
    }
    (total, wall, cpu)
}

/// Figures of one pass (a run of segments).
struct PassFigures {
    rate: f64,
    p50_ns: f64,
    p99_ns: f64,
    cpu_ns: f64,
    /// Every segment's decisions/s, for the notes.
    segment_rates: Vec<f64>,
    admitted: u64,
    rejected: u64,
}

/// Runs [`SEGMENTS`] segments, calling `between` after each.
fn pass(
    service: &Service,
    specs: &[TaskSpec],
    threads: usize,
    secs: f64,
    opts: &Opts,
    between: &mut dyn FnMut(),
) -> PassFigures {
    let mut rates = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut cpu = Vec::new();
    let (mut admitted, mut rejected) = (0, 0);
    for k in 0..SEGMENTS {
        let flip = opts.faults.flip_verdict && k == 0;
        let (mut tally, wall, cpu_ns) =
            segment(service, specs, threads, secs / SEGMENTS as f64, flip);
        let decisions = (tally.admitted + tally.rejected) as f64;
        rates.push(decisions / wall);
        cpu.push(cpu_ns as f64 / decisions.max(1.0));
        p50.push(f64::from(percentile(&mut tally.latency_ns, 0.5)));
        p99.push(f64::from(percentile(&mut tally.latency_ns, 0.99)));
        admitted += tally.admitted;
        rejected += tally.rejected;
        between();
    }
    PassFigures {
        rate: rates.iter().copied().fold(0.0, f64::max),
        p50_ns: p50.iter().copied().fold(f64::INFINITY, f64::min),
        p99_ns: median(&p99),
        cpu_ns: cpu.iter().copied().fold(f64::INFINITY, f64::min),
        segment_rates: rates,
        admitted,
        rejected,
    }
}

/// Times `FeasibleRegion::contains` on utilization vectors sampled from
/// the running service, in ns per call.
fn region_test_ns(service: &Service, samples: usize) -> f64 {
    let region = FeasibleRegion::deadline_monotonic(STAGES);
    let mut per_call = Vec::with_capacity(samples);
    for _ in 0..samples {
        let u = service.utilizations();
        let _span = trace::span("core.region_test", 0);
        let t0 = Instant::now();
        let mut inside = 0u32;
        for _ in 0..256 {
            inside += u32::from(region.contains(std::hint::black_box(&u)).unwrap_or(false));
        }
        std::hint::black_box(inside);
        per_call.push(t0.elapsed().as_nanos() as f64 / 256.0);
    }
    median(&per_call)
}

pub fn run(opts: &Opts, name: &str) -> Report {
    let mut report = Report::default();
    let Some(p) = point(name) else {
        report.check("known service load point", false, name.to_string());
        return report;
    };
    let measure_secs = opts.seconds * if opts.tiny { 0.05 } else { 0.8 };

    let mut setup_times = Vec::new();
    let mut gen_times = Vec::new();
    let mut set_up = || {
        let t0 = Instant::now();
        let specs = pool(&p, opts.seed);
        gen_times.push(t0.elapsed().as_secs_f64());
        let _span = trace::span("service.build", 0);
        let service = build_service();
        let held = if p.overload {
            saturate(&service)
        } else {
            Vec::new()
        };
        setup_times.push(t0.elapsed().as_secs_f64());
        (specs, service, held)
    };
    let mut built = None;
    // A traced run also traces its set-up.
    trace::set_enabled(opts.trace);
    for _ in 0..SETUP_FIRST {
        drop(built.take());
        built = Some(set_up());
    }
    trace::set_enabled(false);
    let (specs, service, held) = built.expect("at least one set-up");
    if p.overload {
        report.check(
            "overload region saturated",
            held.len() > 1,
            format!("detached tickets held: {}", held.len()),
        );
    }

    let passes: Vec<bool> = if opts.trace {
        vec![false, true]
    } else {
        vec![false]
    };
    let secs = measure_secs / passes.len() as f64;
    let mut figures = Vec::new();
    let mut region_ns = 0.0;
    for &traced in &passes {
        trace::set_enabled(traced);
        figures.push(pass(&service, &specs, p.threads, secs, opts, &mut || {
            drop(set_up());
        }));
        if traced {
            region_ns = region_test_ns(&service, 200);
        }
        trace::set_enabled(false);
    }
    let spans = trace::take_all();

    // Ledger checks, then release the saturation and check it drains.
    let client_admitted: u64 = figures.iter().map(|f| f.admitted).sum();
    let decisions: u64 = figures.iter().map(|f| f.admitted + f.rejected).sum();
    service.maintain();
    let c = service.counters();
    let live = service.live_tasks() as u64;
    report.check(
        "admitted == released + expired + live",
        c.admitted == c.released + c.expired + live,
        format!(
            "admitted={} released={} expired={} live={live}",
            c.admitted, c.released, c.expired
        ),
    );
    // The overload set-up admitted every ticket it holds plus the one it
    // freed again.
    let setup_admitted = if p.overload { held.len() as u64 + 1 } else { 0 };
    report.check(
        "caller verdicts == service verdicts",
        c.admitted == client_admitted + setup_admitted,
        format!(
            "callers admitted={client_admitted} + set-up {setup_admitted}, service admitted={}",
            c.admitted
        ),
    );
    for id in &held {
        service.release_by_id(*id);
    }
    let valid = catch_unwind(AssertUnwindSafe(|| service.debug_validate())).is_ok();
    report.check("debug_validate", valid, "");
    let live = service.live_tasks();
    report.check(
        "live_tasks == 0 after release",
        live == 0,
        format!("live={live}"),
    );

    let f = &figures[0];
    report.attempted = decisions;
    report.note(format!(
        "sides callers: {} thread(s) calling try_admit in process, no connections; service: {SHARDS} shards; no network",
        p.threads
    ));
    report.note(format!(
        "{name}: best of {SEGMENTS} segments {:.0} decisions/s, p50={:.0}ns (segments' \
         decisions/s {:.0?}); median p99={:.0}ns (1 call in {LATENCY_EVERY} timed; p99 is \
         reported, not a gated metric), acceptance={:.4}",
        f.rate,
        f.p50_ns,
        f.segment_rates,
        f.p99_ns,
        f.admitted as f64 / (f.admitted + f.rejected).max(1) as f64
    ));
    report.e2e("setup_s", median(&setup_times), "s");
    // Set-up builds only the spec pool and the service, so the whole
    // run's peak is the program's (see METRICS.md).
    report.e2e("peak_rss_mb", sys::peak_rss_mb(), "MB");
    report.e2e("throughput", f.rate, "1/s");
    report.e2e("p50_us", f.p50_ns / 1e3, "us");
    report.e2e(
        "acceptance_ratio",
        f.admitted as f64 / (f.admitted + f.rejected).max(1) as f64,
        "ratio",
    );
    report.e2e("cpu_ns_per_decision", f.cpu_ns, "ns");

    if let Some(t) = figures.get(1) {
        let mut admit = trace::durations(&spans, "service.admit");
        let mut reject = trace::durations(&spans, "service.reject");
        let mut release = trace::durations(&spans, "service.release");
        let mut maintain = trace::durations(&spans, "service.maintain");
        report.layer(
            "service.admit_ns.p50",
            percentile(&mut admit, 0.5) as f64,
            "ns",
        );
        report.layer(
            "service.admit_ns.p99",
            percentile(&mut admit, 0.99) as f64,
            "ns",
        );
        report.layer(
            "service.reject_ns.p50",
            percentile(&mut reject, 0.5) as f64,
            "ns",
        );
        report.layer(
            "service.reject_ns.p99",
            percentile(&mut reject, 0.99) as f64,
            "ns",
        );
        report.layer(
            "service.release_ns.p50",
            percentile(&mut release, 0.5) as f64,
            "ns",
        );
        report.layer(
            "service.maintain_ns",
            percentile(&mut maintain, 0.5) as f64,
            "ns",
        );
        report.layer(
            "service.cas_retries_per_admit",
            c.cas_retries as f64 / c.admitted.max(1) as f64,
            "ratio",
        );
        report.layer(
            "service.seqlock_fallbacks",
            c.seqlock_fallbacks as f64,
            "count",
        );
        report.layer("service.expired", c.expired as f64, "count");
        report.layer("core.region_test_ns", region_ns, "ns");
        report.layer("workload.generate_s", median(&gen_times), "s");
        report.layer("trace.overhead_pct", (f.rate / t.rate - 1.0) * 100.0, "%");
    }
    crate::wire::add_span_metrics(&mut report, &spans, opts);
    report
}
