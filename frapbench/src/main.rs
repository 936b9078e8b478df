//! One benchmark for the FRAP workspace: end-to-end metrics per workload
//! (untraced) or per-layer metrics from spans (traced), with the
//! correctness checks that make either count.
//!
//! ```text
//! cargo run --release --manifest-path frapbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Workloads run inside
//! `.bench_work/` there, so side effects of the libraries (table CSVs)
//! never touch the tree. The last line of standard output is the result
//! as one JSON object; the exit code is non-zero if any check failed.

mod catalog;
mod openloop;
mod report;
mod service;
mod sim;
mod stats;
mod sys;
mod trace;
mod wire;

use report::{Metric, Report};
use std::path::PathBuf;

/// Deliberate corruptions the self-test injects to prove the checks
/// notice them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Faults {
    /// Report the first admitted verdict as a rejection.
    pub flip_verdict: bool,
    /// Alter one cell of a regenerated table before comparing it.
    pub corrupt_table: bool,
}

/// Options every workload receives.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// Measuring time the run is sized to.
    pub seconds: f64,
    pub trace: bool,
    /// Self-test scale: quick tables, short rungs, small pools.
    pub tiny: bool,
    pub faults: Faults,
    /// The repository root (the committed `results/` live here).
    pub root: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: frapbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        catalog::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

/// Parses `--key value` pairs; anything unknown or malformed is fatal.
fn parse_args(args: &[String]) -> (String, Opts) {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        faults: Faults::default(),
        root: PathBuf::from("."),
    };
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match key.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                opts.seconds = value().parse().unwrap_or_else(|_| usage());
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    usage();
                }
            }
            "--trace" => {
                opts.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    if !catalog::WORKLOADS.contains(&workload.as_str()) {
        usage();
    }
    (workload, opts)
}

/// Runs `workload` and returns its report.
pub fn run_workload(workload: &str, opts: &Opts) -> Report {
    trace::set_enabled(false);
    match workload {
        "wire_open" => wire::run(opts, wire::Topology::Single),
        "cluster_open" => wire::run(opts, wire::Topology::Cluster),
        "sim_paper" => sim::run(opts),
        w => match w.strip_prefix("service_closed.") {
            Some(point) => service::run(opts, point),
            None => usage(),
        },
    }
}

/// Completes a report: per-layer metrics a workload never touched read
/// 0, and a missing or mislabelled end-to-end metric fails the run.
pub fn finish(report: &mut Report) {
    for &(name, unit) in catalog::LAYER {
        if !report.layer.iter().any(|m| m.name == name) {
            report.layer(name, 0.0, unit);
        }
    }
    for &(name, unit) in catalog::E2E {
        let found = report.e2e.iter().find(|m| m.name == name);
        let ok = found.is_some_and(|m| m.unit == unit && m.value.is_finite());
        if !ok {
            report.check(
                &format!("metric {name} [{unit}] emitted"),
                false,
                format!("{found:?}"),
            );
        }
    }
    let order = |name: &str, list: &[(&str, &str)]| list.iter().position(|(n, _)| *n == name);
    report.e2e.retain(|m| catalog::e2e_unit(&m.name).is_some());
    report.e2e.sort_by_key(|m| order(&m.name, catalog::E2E));
    report
        .layer
        .retain(|m| catalog::layer_unit(&m.name).is_some());
    report.layer.sort_by_key(|m| order(&m.name, catalog::LAYER));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, mut opts) = parse_args(&args);
    let root = std::env::current_dir().unwrap_or_else(|_| usage());
    if !root.join("results").is_dir() || !root.join("crates").is_dir() {
        eprintln!("frapbench: run from the repository root (no results/ or crates/ here)");
        std::process::exit(2);
    }
    opts.root = root.clone();
    let stamp = sys::Stamp::collect();

    // A scratch working directory with its own results/, so anything the
    // libraries write lands there.
    let work = root.join(".bench_work");
    let run_dir = work.join(format!("run-{}-{}", std::process::id(), opts.seed));
    std::fs::create_dir_all(run_dir.join("results")).expect("create .bench_work");
    std::env::set_current_dir(&run_dir).expect("enter .bench_work");

    let mut report = run_workload(&workload, &opts);
    finish(&mut report);

    std::env::set_current_dir(&root).expect("leave .bench_work");
    let _ = std::fs::remove_dir_all(&run_dir);

    for line in &report.notes {
        println!("{line}");
    }
    for c in &report.checks {
        println!(
            "check {:<48} {}  {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    let metrics: &[Metric] = if opts.trace {
        &report.layer
    } else {
        &report.e2e
    };
    let correct = report.correct();
    for m in metrics {
        println!("metric {:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let stamp_line = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"cpu_model\": \"{}\", \"kernel\": \"{}\", \"rustc\": \"{}\", \
         \"commit\": \"{}\", \"network\": \"loopback\", \"sides\": \"{}\"}}",
        opts.seed,
        opts.seconds,
        opts.trace,
        stamp.nproc,
        stamp.cpu_model,
        stamp.kernel,
        stamp.rustc,
        stamp.commit,
        report
            .notes
            .iter()
            .find_map(|l| l.strip_prefix("sides "))
            .unwrap_or("")
    );
    println!("stamp {stamp_line}");
    let line = report::result_line(correct, report.attempted, report.failed, metrics);
    // Keep the last result per workload and seed beside the spans.
    let out_dir = work.join("results");
    if std::fs::create_dir_all(&out_dir).is_ok() {
        let name = format!(
            "{workload}-seed{}-trace{}.json",
            opts.seed,
            u8::from(opts.trace)
        );
        let _ = std::fs::write(
            out_dir.join(name),
            format!("{{\"stamp\": {stamp_line}, \"result\": {line}}}\n"),
        );
    }
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod selftest {
    //! The benchmark's own self-test at tiny scale: every metric is
    //! emitted with its unit, and deliberately corrupted outputs trip the
    //! checks. Run with `cargo test --release` in this package.

    use super::*;

    fn tiny(faults: Faults, trace: bool) -> Opts {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("the benchmark sits in the repository")
            .to_path_buf();
        Opts {
            seed: 7,
            seconds: 2.0,
            trace,
            tiny: true,
            faults,
            root,
        }
    }

    fn run(workload: &str, opts: &Opts) -> Report {
        let mut report = run_workload(workload, opts);
        finish(&mut report);
        report
    }

    fn failed_checks(report: &Report) -> Vec<String> {
        report
            .checks
            .iter()
            .filter(|c| !c.ok)
            .map(|c| format!("{} ({})", c.name, c.detail))
            .collect()
    }

    /// One test, run in order: the workloads share the process working
    /// directory, which must be a scratch one (the paper tables write a
    /// CSV into the nearest `results/`).
    #[test]
    fn every_workload_emits_every_metric_and_catches_corruption() {
        let opts = tiny(Faults::default(), false);
        let scratch = opts.root.join(".bench_work").join("selftest");
        std::fs::create_dir_all(scratch.join("results")).expect("scratch dir");
        std::env::set_current_dir(&scratch).expect("enter scratch dir");

        for &workload in catalog::WORKLOADS {
            let report = run(workload, &opts);
            assert!(report.correct(), "{workload}: {:?}", failed_checks(&report));
            assert!(report.attempted > 0, "{workload}: nothing attempted");
            let names: Vec<(&str, &str)> = report
                .e2e
                .iter()
                .map(|m| (m.name.as_str(), m.unit))
                .collect();
            assert_eq!(
                names,
                catalog::E2E,
                "{workload}: end-to-end metrics and units"
            );
            assert!(
                report
                    .e2e
                    .iter()
                    .all(|m| m.value.is_finite() && m.value > 0.0),
                "{workload}: an end-to-end metric reads 0: {:?}",
                report.e2e
            );

            let traced = run(workload, &tiny(Faults::default(), true));
            assert!(
                traced.correct(),
                "{workload} traced: {:?}",
                failed_checks(&traced)
            );
            let names: Vec<(&str, &str)> = traced
                .layer
                .iter()
                .map(|m| (m.name.as_str(), m.unit))
                .collect();
            assert_eq!(
                names,
                catalog::LAYER,
                "{workload}: per-layer metrics and units"
            );
            assert!(
                traced
                    .layer
                    .iter()
                    .any(|m| m.name == "trace.spans" && m.value > 0.0),
                "{workload}: no spans recorded"
            );
        }

        let flip = Faults {
            flip_verdict: true,
            ..Faults::default()
        };
        for workload in ["wire_open", "cluster_open", "service_closed.underload"] {
            let report = run(workload, &tiny(flip, false));
            assert!(
                !report.correct(),
                "{workload}: a flipped verdict went unnoticed"
            );
        }
        let corrupt = Faults {
            corrupt_table: true,
            ..Faults::default()
        };
        let report = run("sim_paper", &tiny(corrupt, false));
        assert!(
            failed_checks(&report).iter().any(|c| c.contains("fig4")),
            "a mismatched table row went unnoticed"
        );
        let line = report::result_line(
            report.correct(),
            report.attempted,
            report.failed,
            &report.e2e,
        );
        assert!(
            line.ends_with("\"metrics\": {}}"),
            "a failed run reports no numbers: {line}"
        );
    }
}
