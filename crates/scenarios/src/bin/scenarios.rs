//! Scenario runner: drives every catalog scenario through the simulator
//! (and one through the live gateway), printing per-scenario admission
//! reports and writing them as CSV under `results/scenarios/`.
//!
//! ```text
//! cargo run --release -p frap-scenarios --bin scenarios -- [flags]
//!
//!   --quick             8 s horizon instead of 60 s
//!   --smoke             CI mode: serverless + flash_crowd only, sim
//!                       backend only, no CSV output
//!   --jobs N            worker threads for the sim runs (0 = hardware)
//!   --no-gateway        skip the live-gateway replay
//!   --gateway-scale N   time-compression factor for the gateway replay
//!                       (default 20; durations and gaps are divided by N)
//!   --save-traces DIR   also write each generated trace as a
//!                       `frap-arrivals v2` file under DIR (replayable
//!                       with `gateway-loadgen --trace`)
//! ```
//!
//! Every admitted-and-completed task in the simulator is checked against
//! its end-to-end deadline; this binary asserts `missed == 0` for every
//! scenario — the feasible-region guarantee, exercised under cloud-shaped
//! load.

use frap_core::time::Time;
use frap_experiments::common::{f, resolve_jobs, Scale, Table};
use frap_experiments::runner::par_map;
use frap_scenarios::runner::{run_gateway, run_sim, SimRun};
use frap_scenarios::{catalog, ScenarioPolicy};

fn flag_value(args: &[String], flag: &str) -> Option<u64> {
    let pos = args.iter().position(|a| a == flag)?;
    args.get(pos + 1).and_then(|v| v.parse().ok())
}

fn policy_name(p: ScenarioPolicy) -> &'static str {
    match p {
        ScenarioPolicy::Reject => "reject",
        ScenarioPolicy::ShedLessImportant => "shed",
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let no_gateway = args.iter().any(|a| a == "--no-gateway");
    let gateway_scale = flag_value(&args, "--gateway-scale").unwrap_or(20).max(1);
    let scale = Scale::from_args();
    // Smoke runs are CI wall-clock guards: always the quick horizon.
    let horizon_secs = if smoke {
        Scale::quick().horizon_secs
    } else {
        scale.horizon_secs
    };
    let horizon = Time::from_secs(horizon_secs);

    let mut scenarios = catalog(horizon);
    if smoke {
        scenarios.retain(|s| matches!(s.name, "serverless" | "flash_crowd"));
    }
    let jobs = resolve_jobs(scale.jobs);
    println!(
        "scenarios: {} famil{} at {horizon_secs}s horizon, {jobs} job(s){}",
        scenarios.len(),
        if scenarios.len() == 1 { "y" } else { "ies" },
        if smoke { " [smoke]" } else { "" }
    );

    let runs: Vec<SimRun> = par_map(scenarios.len(), jobs, |i| run_sim(&scenarios[i]));

    if let Some(pos) = args.iter().position(|a| a == "--save-traces") {
        let dir = args
            .get(pos + 1)
            .expect("--save-traces requires a directory");
        std::fs::create_dir_all(dir).expect("create trace directory");
        for (sc, run) in scenarios.iter().zip(&runs) {
            let path = format!("{dir}/{}.trace", sc.name);
            frap_workload::replay::save_trace(&path, &run.trace).expect("write trace");
            println!("saved          {path} ({} arrivals)", run.trace.len());
        }
    }

    let mut summary = Table::new(
        format!("scenario admission summary ({horizon_secs}s horizon, sim backend)"),
        &[
            "scenario",
            "policy",
            "offered",
            "admitted",
            "acceptance",
            "rejected",
            "shed",
            "completed",
            "missed",
            "sim events/s",
        ],
    );
    let mut total_events = 0u64;
    let mut total_wall = 0.0f64;
    for (sc, run) in scenarios.iter().zip(&runs) {
        let r = &run.report;
        assert_eq!(
            r.missed, 0,
            "{}: an admitted task missed its deadline — the region test failed",
            sc.name
        );
        total_events += r.events_processed;
        total_wall += r.wall_secs;
        summary.push_row(vec![
            sc.name.to_string(),
            policy_name(sc.policy).to_string(),
            r.offered.to_string(),
            r.admitted.to_string(),
            f(r.acceptance_ratio()),
            r.rejected.to_string(),
            r.shed.to_string(),
            r.completed.to_string(),
            r.missed.to_string(),
            format!("{:.0}", r.events_per_sec()),
        ]);
    }
    summary.print();
    if !smoke {
        summary.write_csv("scenarios/summary");
    }

    for (sc, run) in scenarios.iter().zip(&runs) {
        let r = &run.report;
        let mut tenants = Table::new(
            format!("{}: per-tenant admission", sc.name),
            &[
                "tenant",
                "name",
                "offered",
                "admitted",
                "admit share",
                "shed",
            ],
        );
        for row in &r.tenants {
            tenants.push_row(vec![
                row.tenant.to_string(),
                row.name.clone(),
                row.offered.to_string(),
                row.admitted.to_string(),
                f(row.admitted as f64 / r.admitted.max(1) as f64),
                row.shed.to_string(),
            ]);
        }
        let mut importance = Table::new(
            format!("{}: shed by importance", sc.name),
            &["importance", "offered", "admitted", "shed", "shed share"],
        );
        for row in &r.importances {
            importance.push_row(vec![
                row.importance.to_string(),
                row.offered.to_string(),
                row.admitted.to_string(),
                row.shed.to_string(),
                f(row.shed as f64 / r.shed.max(1) as f64),
            ]);
        }
        tenants.print();
        importance.print();
        if !smoke {
            tenants.write_csv(&format!("scenarios/{}_tenants", sc.name));
            importance.write_csv(&format!("scenarios/{}_importance", sc.name));
        }
    }

    let events_per_sec = if total_wall > 0.0 {
        total_events as f64 / total_wall
    } else {
        0.0
    };
    println!(
        "[perf] scenarios: {total_wall:.3} s wall, {total_events} events, \
         {events_per_sec:.0} events/s"
    );

    // Live-gateway replay: the same serverless trace, time-compressed,
    // through real TCP against the production admission path.
    if !smoke && !no_gateway {
        let sc = scenarios
            .iter()
            .find(|s| s.name == "serverless")
            .expect("serverless scenario in catalog");
        // Reference for the wire comparison: the sim without idle resets.
        // The gateway never observes stage-idle instants and the replay
        // holds tickets to their deadlines, so charge-till-deadline is
        // the accounting both sides share; the canonical (reset-on-idle)
        // report above admits strictly more.
        let sim = frap_scenarios::run_sim_opts(sc, false);
        let gw = run_gateway(sc, gateway_scale).expect("gateway replay");
        let tolerance = (sim.report.admitted as f64 * 0.10).max(25.0);
        let delta = gw.admitted.abs_diff(sim.report.admitted);
        println!(
            "gateway replay (scale 1/{gateway_scale}): offered={} admitted={} \
             rejected={} expired+rejected share={} vs sim admitted={} \
             (delta {delta}, tolerance {tolerance:.0})",
            gw.offered,
            gw.admitted,
            gw.rejected,
            f(1.0 - gw.acceptance_ratio()),
            sim.report.admitted,
        );
        assert!(
            (delta as f64) <= tolerance,
            "gateway replay diverged from sim: {} vs {} (tolerance {tolerance:.0})",
            gw.admitted,
            sim.report.admitted
        );
    }
}
