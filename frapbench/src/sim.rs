//! `sim_paper`: one thread regenerates the paper's Figure 4 and Table 1
//! at publication scale, runs the four scenario families through the
//! simulator, and replays a paper pipeline stream through the core
//! admission controller to time its decisions.

use crate::report::Report;
use crate::stats::{median, percentile};
use crate::{sys, trace, Opts};
use frap_core::admission::{Admission, ExactContributions};
use frap_core::graph::TaskSpec;
use frap_core::region::FeasibleRegion;
use frap_core::time::Time;
use frap_experiments::common::{Scale, Table};
use frap_experiments::runner::perf;
use frap_scenarios::{report as sreport, ScenarioPolicy, DRAIN};
use frap_sim::{OverloadPolicy, SimBuilder};
use frap_workload::replay::ArrivalTrace;
use frap_workload::PipelineWorkloadBuilder;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const SETUP_REPEATS: usize = 3;
/// Simulated seconds of the replayed pipeline stream.
const REPLAY_HORIZON_SECS: u64 = 1_000;
/// Seconds of `--seconds` per round of the measured work (Fig. 4,
/// Table 1, the scenario catalog; about 3.6 s on a 2-vCPU Xeon VM).
/// Every round does the same work, split into units of tens of
/// milliseconds (a table's parameter points, a scenario family); each
/// unit's time and CPU are taken from its fastest round: the host's
/// speed swings by up to two-thirds in phases of a few seconds, and
/// contention only ever adds time (see METRICS.md).
const SECONDS_PER_ROUND: f64 = 3.5;
/// How often the watcher looks at the experiment runner's point count.
const WATCH_EVERY: Duration = Duration::from_micros(250);
/// The parts of a round, in order.
const PARTS: [&str; 3] = ["fig4", "table1", "scenarios"];
/// Replayed core decisions are timed in blocks of this many, and each
/// block's mean is one sample of the decision time. Single decisions
/// fall in two clusters (about 80–140 ns and 200 ns up) with the median
/// at the edge of the gap between them, so a per-decision p50 jumped by
/// a quarter between runs of one build; a block's mean does not. A
/// replay's p50 is the median over its blocks, and the figure is the
/// fastest replay's. One region test is timed per block.
const DECISION_BLOCK: usize = 256;
/// One replayed decision in this many is traced.
const SPAN_EVERY: u32 = 16;

/// One scenario family with its generated trace and the arrivals drawn
/// from it.
type ScenarioInput = (
    frap_scenarios::Scenario,
    ArrivalTrace,
    Vec<(Time, TaskSpec)>,
);

/// The inputs, generated during set-up.
struct Inputs {
    scenarios: Vec<ScenarioInput>,
    replay: Vec<(Time, TaskSpec)>,
}

fn generate(opts: &Opts) -> (Inputs, f64, f64) {
    let (scale, horizon) = if opts.tiny {
        (8, Scale::quick().horizon_secs)
    } else {
        (1, Scale::full().horizon_secs)
    };
    let t0 = Instant::now();
    // The catalog families with their own seeds, at the horizon the
    // figures use (the `scenarios` binary's full scale).
    let scenarios = {
        let _span = trace::span("scenarios.generate", 0);
        frap_scenarios::catalog(Time::from_secs(horizon))
            .into_iter()
            .map(|sc| {
                let trace = sc.generate();
                let arrivals = trace.arrivals();
                (sc, trace, arrivals)
            })
            .collect()
    };
    let scenarios_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let replay = {
        let _span = trace::span("workload.generate", 0);
        PipelineWorkloadBuilder::new(3)
            .resolution(100.0)
            .load(1.5)
            .seed(opts.seed)
            .build()
            .until(Time::from_secs(REPLAY_HORIZON_SECS / scale))
            .collect()
    };
    let workload_s = t1.elapsed().as_secs_f64();
    (Inputs { scenarios, replay }, scenarios_s, workload_s)
}

/// The CSV bytes `Table::write_csv` would write for `table`.
fn csv(table: &Table) -> String {
    let mut out = table.header.join(",");
    out.push('\n');
    for row in &table.rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Wall time and CPU of one unit of a part.
#[derive(Clone, Copy)]
struct Unit {
    secs: f64,
    cpu_ns: u64,
}

/// What one part of one round produced.
#[derive(Default)]
struct Part {
    events: u64,
    secs: f64,
    /// CPU of the simulating thread over the part.
    cpu_ns: u64,
    /// The part's units in order; `None` where the watcher saw several
    /// points finish between two looks.
    units: Vec<Option<Unit>>,
}

impl Part {
    /// The time and CPU of one pass over `parts` (the same part in
    /// every round) at each unit's fastest and lowest round, or at the
    /// part's fastest and lowest round if a unit was never seen alone.
    fn best(parts: &[&Part]) -> (f64, u64) {
        let n = parts.first().map_or(0, |p| p.units.len());
        let per_unit: Option<Vec<(f64, u64)>> = (0..n)
            .map(|i| {
                let seen: Vec<Unit> = parts
                    .iter()
                    .filter_map(|p| p.units.get(i).copied().flatten())
                    .collect();
                let secs = seen.iter().map(|u| u.secs).reduce(f64::min)?;
                Some((secs, seen.iter().map(|u| u.cpu_ns).min()?))
            })
            .collect();
        match per_unit {
            Some(units) if n > 0 && parts.iter().all(|p| p.units.len() == n) => units
                .iter()
                .fold((0.0, 0), |(s, c), &(us, uc)| (s + us, c + uc)),
            _ => (
                parts.iter().map(|p| p.secs).fold(f64::INFINITY, f64::min),
                parts.iter().map(|p| p.cpu_ns).min().unwrap_or(0),
            ),
        }
    }
}

/// What one pass over the measured work produced.
#[derive(Default)]
struct PassOut {
    /// Every round's parts, in [`PARTS`] order.
    rounds: Vec<[Part; 3]>,
    offered: u64,
    admitted: u64,
    missed: Vec<(String, u64)>,
    /// Replayed core decisions, and each replay's p50 over its blocks.
    decisions: u64,
    replay_p50_ns: Vec<f64>,
    region_ns: Vec<f64>,
    tables_ok: Vec<(String, bool, String)>,
}

impl PassOut {
    /// Part `p`'s events and seconds summed over the rounds.
    fn total(&self, p: usize) -> (u64, f64) {
        self.rounds
            .iter()
            .fold((0, 0.0), |(e, s), r| (e + r[p].events, s + r[p].secs))
    }

    fn events(&self) -> u64 {
        (0..PARTS.len()).map(|p| self.total(p).0).sum()
    }

    fn secs(&self) -> f64 {
        (0..PARTS.len()).map(|p| self.total(p).1).sum()
    }

    /// One round's events with each unit's fastest time and lowest CPU
    /// over the rounds, as `(events, secs, cpu_ns)`.
    fn best_round(&self) -> (u64, f64, u64) {
        let Some(first) = self.rounds.first() else {
            return (0, 0.0, 0);
        };
        (0..PARTS.len()).fold((0, 0.0, 0), |(events, secs, cpu), p| {
            let parts: Vec<&Part> = self.rounds.iter().map(|r| &r[p]).collect();
            let (best_s, best_cpu) = Part::best(&parts);
            (events + first[p].events, secs + best_s, cpu + best_cpu)
        })
    }
}

/// Regenerates `name` with `run` and compares it with the committed CSV.
fn table_pass(
    name: &str,
    run: fn(Scale) -> Table,
    opts: &Opts,
    span_name: &'static str,
) -> (Part, (String, bool, String)) {
    let (scale, file) = if opts.tiny {
        (Scale::quick().with_jobs(1), format!("{name}_quick.csv"))
    } else {
        (Scale::full().with_jobs(1), format!("{name}.csv"))
    };
    let events0 = perf::snapshot().events;
    let (t0, cpu0) = (Instant::now(), sys::thread_cpu_ns());
    let (mut table, units) = by_points(|| {
        let _span = trace::span(span_name, 0);
        run(scale)
    });
    let part = Part {
        events: perf::snapshot().events - events0,
        secs: t0.elapsed().as_secs_f64(),
        cpu_ns: sys::thread_cpu_ns() - cpu0,
        units,
    };
    if opts.faults.corrupt_table {
        if let Some(cell) = table.rows.first_mut().and_then(|r| r.get_mut(1)) {
            cell.push('1');
        }
    }
    let committed = std::fs::read_to_string(opts.root.join("results").join(&file));
    let check = match committed {
        Ok(text) if text == csv(&table) => (format!("{file} byte-equal"), true, String::new()),
        Ok(text) => {
            let ours = csv(&table);
            let row = ours
                .lines()
                .zip(text.lines())
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            (
                format!("{file} byte-equal"),
                false,
                format!("first differing line {}", row + 1),
            )
        }
        Err(e) => (
            format!("{file} byte-equal"),
            false,
            format!("cannot read: {e}"),
        ),
    };
    (part, check)
}

/// Runs `run` while a watcher thread notes when the experiment runner
/// finishes each parameter point (`perf` counts them), with the running
/// thread's CPU clock. Returns `run`'s output and a unit per point plus
/// one for the rest up to `run`'s return.
fn by_points<T>(run: impl FnOnce() -> T) -> (T, Vec<Option<Unit>>) {
    let tid = sys::current_tid();
    let done = AtomicBool::new(false);
    let start = (
        perf::snapshot().points,
        Instant::now(),
        sys::thread_cpu_ns(),
    );
    std::thread::scope(|s| {
        let watcher = s.spawn(|| {
            let mut marks = vec![start];
            while !done.load(Ordering::Relaxed) {
                let points = perf::snapshot().points;
                if points != marks[marks.len() - 1].0 {
                    let cpu = sys::tid_cpu_ns(tid).unwrap_or(0);
                    marks.push((points, Instant::now(), cpu));
                }
                std::thread::sleep(WATCH_EVERY);
            }
            marks
        });
        let out = run();
        // The rest after the last point counts as one more point.
        let end = (
            perf::snapshot().points + 1,
            Instant::now(),
            sys::thread_cpu_ns(),
        );
        done.store(true, Ordering::Relaxed);
        let mut marks = watcher.join().expect("watcher thread");
        marks.push(end);
        let mut units = Vec::new();
        for w in marks.windows(2) {
            let ((p0, t0, c0), (p1, t1, c1)) = (w[0], w[1]);
            if p1 - p0 == 1 {
                units.push(Some(Unit {
                    secs: (t1 - t0).as_secs_f64(),
                    cpu_ns: c1.saturating_sub(c0),
                }));
            } else {
                units.extend((p0..p1).map(|_| None));
            }
        }
        (out, units)
    })
}

/// Replays the pipeline stream `passes` times through a fresh core
/// admission controller, timing each block of [`DECISION_BLOCK`]
/// consecutive decisions.
fn replay(inputs: &Inputs, passes: usize, out: &mut PassOut) {
    let region = FeasibleRegion::deadline_monotonic(3);
    let mut tick = 0u64;
    for _ in 0..passes {
        let mut admission = Admission::new(region.clone(), ExactContributions);
        let mut block_ns = Vec::with_capacity(inputs.replay.len() / DECISION_BLOCK + 1);
        for (b, block) in inputs.replay.chunks(DECISION_BLOCK).enumerate() {
            let first = (b * DECISION_BLOCK) as u64;
            let t = Instant::now();
            for (i, (at, spec)) in block.iter().enumerate() {
                let span =
                    trace::sampled("core.try_admit", first + i as u64, &mut tick, SPAN_EVERY);
                let verdict = admission.try_admit(*at, spec);
                drop(span);
                std::hint::black_box(verdict);
            }
            block_ns.push(t.elapsed().as_nanos() as f64 / block.len() as f64);
            if trace::enabled() {
                let u = admission.state_mut().utilizations().to_vec();
                let _span = trace::span("core.region_test", first);
                let t = Instant::now();
                let mut inside = 0u32;
                for _ in 0..64 {
                    inside += u32::from(region.contains(std::hint::black_box(&u)).unwrap_or(false));
                }
                std::hint::black_box(inside);
                out.region_ns.push(t.elapsed().as_nanos() as f64 / 64.0);
            }
        }
        out.decisions += inputs.replay.len() as u64;
        out.replay_p50_ns.push(median(&block_ns));
    }
}

fn one_pass(inputs: &Inputs, rounds: usize, opts: &Opts) -> PassOut {
    let mut out = PassOut::default();
    // A replay precedes each part of each round, and one follows the
    // last, so one stretch of host contention does not decide the
    // decision latency.
    for _ in 0..rounds {
        replay(inputs, 1, &mut out);
        let (fig4, check) = table_pass(
            "fig4",
            frap_experiments::fig4::run,
            opts,
            "experiments.fig4",
        );
        out.tables_ok.push(check);
        replay(inputs, 1, &mut out);
        let (table1, check) = table_pass(
            "table1",
            frap_experiments::table1::run,
            opts,
            "experiments.table1",
        );
        out.tables_ok.push(check);
        replay(inputs, 1, &mut out);

        // The scenario catalog through the simulator, as `run_sim`
        // drives it, on traces generated during set-up (copied first:
        // the simulator consumes its arrivals), one unit per family.
        let arrivals: Vec<Vec<(Time, TaskSpec)>> =
            inputs.scenarios.iter().map(|(_, _, a)| a.clone()).collect();
        let (t0, cpu0) = (Instant::now(), sys::thread_cpu_ns());
        let mut scenarios = Part::default();
        {
            let _catalog = trace::span("scenarios.catalog", 0);
            for ((sc, trace_in, _), arrivals) in inputs.scenarios.iter().zip(arrivals) {
                let (unit_t0, unit_cpu0) = (Instant::now(), sys::thread_cpu_ns());
                let mut builder = SimBuilder::new(sc.stages())
                    .region(sc.region())
                    .model(ExactContributions)
                    .record_decisions(true)
                    .idle_resets(true);
                if sc.policy == ScenarioPolicy::ShedLessImportant {
                    builder = builder.overload(OverloadPolicy::ShedLessImportant);
                }
                let mut sim = builder.build();
                let started = Instant::now();
                let metrics = {
                    let _span = trace::span("sim.run", 0);
                    sim.run(arrivals.into_iter(), sc.horizon + DRAIN)
                };
                let wall = started.elapsed().as_secs_f64();
                let report = {
                    let _span = trace::span("scenarios.report", 0);
                    sreport::from_sim(sc.name, trace_in, &|t| sc.tenant_name(t), metrics, wall)
                };
                scenarios.units.push(Some(Unit {
                    secs: unit_t0.elapsed().as_secs_f64(),
                    cpu_ns: sys::thread_cpu_ns() - unit_cpu0,
                }));
                scenarios.events += report.events_processed;
                out.offered += report.offered;
                out.admitted += report.admitted;
                out.missed.push((sc.name.to_string(), report.missed));
            }
        }
        scenarios.secs = t0.elapsed().as_secs_f64();
        scenarios.cpu_ns = sys::thread_cpu_ns() - cpu0;
        out.rounds.push([fig4, table1, scenarios]);
    }
    replay(inputs, 1, &mut out);
    out
}

pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let passes: Vec<bool> = if opts.trace {
        vec![false, true]
    } else {
        vec![false]
    };
    let mut setup_times = Vec::new();
    let mut scen_times = Vec::new();
    let mut gen_times = Vec::new();
    let mut outs: Vec<(bool, PassOut)> = Vec::new();
    let mut peak_rss_mb = 0.0;
    let rounds = (opts.seconds / SECONDS_PER_ROUND).round().max(1.0) as usize;
    // A traced run splits the rounds between its two passes.
    let rounds = if opts.trace {
        (rounds / 2).max(1)
    } else {
        rounds
    };
    for &traced in &passes {
        // Each pass gets its own set-up, timed several times.
        let mut inputs = None;
        trace::set_enabled(traced);
        for _ in 0..SETUP_REPEATS {
            // One input set resident at a time.
            drop(inputs.take());
            let t0 = Instant::now();
            let (i, scen_s, gen_s) = generate(opts);
            setup_times.push(t0.elapsed().as_secs_f64());
            scen_times.push(scen_s);
            gen_times.push(gen_s);
            inputs = Some(i);
        }
        trace::set_enabled(traced);
        let rss = sys::RssBaseline::take();
        outs.push((traced, one_pass(&inputs.expect("set-up ran"), rounds, opts)));
        trace::set_enabled(false);
        if !traced {
            // The measured phase's whole peak, input traces included: the
            // growth alone is a few MB and moved by a third between seeds
            // with the allocator's layout (see METRICS.md).
            peak_rss_mb = rss.peak_mb();
        }
    }
    let spans = trace::take_all();

    for (_, out) in &outs {
        for (name, ok, detail) in &out.tables_ok {
            if !report.checks.iter().any(|c| &c.name == name) || !ok {
                report.check(name, *ok, detail.clone());
            }
        }
        for (name, missed) in &out.missed {
            let name = format!("scenario {name} missed == 0");
            if !report.checks.iter().any(|c| c.name == name) || *missed > 0 {
                report.check(&name, *missed == 0, format!("missed={missed}"));
            }
            report.failed += missed;
        }
        report.attempted += out.offered;
    }

    for (traced, out) in &outs {
        // Best-of-rounds compares like with like only if every round did
        // the same work.
        let same = out
            .rounds
            .iter()
            .all(|r| (0..PARTS.len()).all(|p| r[p].events == out.rounds[0][p].events));
        let name = "simulated events equal in every round";
        if !report.checks.iter().any(|c| c.name == name) || !same {
            report.check(name, same, format!("traced={traced}"));
        }
    }

    let (_, u) = outs.iter().find(|(t, _)| !t).expect("untraced pass");
    let (round_events, best_s, best_cpu) = u.best_round();
    let events_per_s = round_events as f64 / best_s;
    let parts: Vec<String> = PARTS
        .iter()
        .enumerate()
        .map(|(p, name)| {
            let secs: Vec<String> = u
                .rounds
                .iter()
                .map(|r| format!("{:.3}", r[p].secs))
                .collect();
            let units = &u.rounds[0][p].units;
            let alone = u.rounds.iter().map(|r| r[p].units.iter().flatten().count());
            format!(
                "{name} {} events in [{}]s, {} units ({} to {} seen alone)",
                u.rounds[0][p].events,
                secs.join(", "),
                units.len(),
                alone.clone().min().unwrap_or(0),
                alone.max().unwrap_or(0),
            )
        })
        .collect();
    report.note(format!(
        "{} rounds, per round: {}; each unit's fastest round => {events_per_s:.0} events/s \
         ({:.0} over all rounds)",
        u.rounds.len(),
        parts.join("; "),
        u.events() as f64 / u.secs(),
    ));
    let p50 = u
        .replay_p50_ns
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let p50s: Vec<String> = u
        .replay_p50_ns
        .iter()
        .map(|ns| format!("{ns:.1}"))
        .collect();
    report.note(format!(
        "replay: {} core decisions over {} replays, timed in blocks of {DECISION_BLOCK}; \
         p50 ns per decision per replay [{}] => fastest {p50:.1}",
        u.decisions,
        u.replay_p50_ns.len(),
        p50s.join(", ")
    ));
    report.note(
        "sides simulator: 1 thread (jobs 1), plus 1 watcher thread polling the runner's \
         point count every 250 us; no connections; no network",
    );
    report.e2e("setup_s", median(&setup_times), "s");
    report.e2e("peak_rss_mb", peak_rss_mb, "MB");
    report.e2e("throughput", events_per_s, "1/s");
    report.e2e("p50_us", p50 / 1e3, "us");
    report.e2e(
        "acceptance_ratio",
        u.admitted as f64 / u.offered.max(1) as f64,
        "ratio",
    );
    report.e2e(
        "cpu_ns_per_decision",
        best_cpu as f64 / round_events.max(1) as f64,
        "ns",
    );
    let untraced_rate = events_per_s;

    if let Some((_, t)) = outs.iter().find(|(t, _)| *t) {
        for (p, name) in [
            "experiments.fig4.events_per_s",
            "experiments.table1.events_per_s",
            "scenarios.sim_events_per_s",
        ]
        .into_iter()
        .enumerate()
        {
            let (events, secs) = t.total(p);
            report.layer(name, events as f64 / secs, "1/s");
        }
        report.layer("sim.events", t.events() as f64, "count");
        let mut admit = trace::durations(&spans, "core.try_admit");
        report.layer(
            "core.try_admit_ns",
            percentile(&mut admit, 0.5) as f64,
            "ns",
        );
        report.layer("core.region_test_ns", median(&t.region_ns), "ns");
        report.layer("scenarios.generate_s", median(&scen_times), "s");
        report.layer("workload.generate_s", median(&gen_times), "s");
        let (traced_events, traced_s, _) = t.best_round();
        let traced_rate = traced_events as f64 / traced_s;
        report.layer(
            "trace.overhead_pct",
            (untraced_rate / traced_rate - 1.0) * 100.0,
            "%",
        );
    }
    crate::wire::add_span_metrics(&mut report, &spans, opts);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part(units: &[Option<f64>], secs: f64) -> Part {
        Part {
            events: 1,
            secs,
            cpu_ns: (secs * 1e9) as u64,
            units: units
                .iter()
                .map(|u| {
                    u.map(|secs| Unit {
                        secs,
                        cpu_ns: (secs * 1e9) as u64,
                    })
                })
                .collect(),
        }
    }

    #[test]
    fn best_takes_each_unit_at_its_fastest_round() {
        let a = part(&[Some(1.0), Some(5.0), None], 9.0);
        let b = part(&[Some(3.0), Some(2.0), Some(4.0)], 9.0);
        let (secs, cpu) = Part::best(&[&a, &b]);
        assert!((secs - 7.0).abs() < 1e-9);
        assert_eq!(cpu, 7_000_000_000);
    }

    #[test]
    fn best_falls_back_to_whole_parts_if_a_unit_was_never_alone() {
        let a = part(&[Some(1.0), None, None], 10.0);
        let b = part(&[Some(2.0), None, None], 9.0);
        assert_eq!(Part::best(&[&a, &b]), (9.0, 9_000_000_000));
        let c = part(&[Some(1.0), Some(1.0)], 8.0);
        assert_eq!(Part::best(&[&a, &c]), (8.0, 8_000_000_000));
    }
}
