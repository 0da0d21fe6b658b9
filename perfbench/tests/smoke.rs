//! The benchmark's own smoke test: a shortened configuration of every
//! workload emits exactly the metrics `BENCHMARK.json` declares, each with
//! its declared unit, and no cell fails. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use pam_perfbench::cells::{self, Cell};
use pam_perfbench::{run, Options, Workload};

fn get<'a>(value: &'a serde_json::Value, key: &str) -> Option<&'a serde_json::Value> {
    value.as_object().and_then(|map| map.get(key))
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let json: serde_json::Value =
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    get(&json, section)
        .and_then(|s| s.as_array())
        .expect("section is a list")
        .iter()
        .map(|metric| {
            let field = |key| {
                get(metric, key)
                    .and_then(|v| v.as_str())
                    .expect("name and unit are strings")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_emits_every_declared_metric_and_no_cell_fails() {
    for workload in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let options = Options {
                workload,
                seed: pam_experiments::fleet::DEFAULT_FLEET_SEED,
                seconds: 0.0,
                trace,
                smoke: true,
            };
            let outcome = run(&options).expect("the benchmark runs");
            let context = format!("{} {section}", workload.name());
            assert!(outcome.attempted > 0, "{context}: no cell ran");
            assert_eq!(outcome.failed, 0, "{context}: failed cells");
            assert!(outcome.correct, "{context}");
            let emitted: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(emitted, declared(section), "{context}");
            assert!(
                outcome.metrics.iter().all(|m| m.value.is_finite()),
                "{context}: a metric is not finite"
            );
            let last_line = outcome.to_json();
            let parsed: serde_json::Value =
                serde_json::from_str(&last_line).expect("the result line is JSON");
            assert!(get(&parsed, "metrics").is_some(), "{context}");
        }
    }
}

fn matrix_cell() -> Cell {
    cells::cells(
        Workload::Matrix,
        pam_experiments::fleet::DEFAULT_FLEET_SEED,
        true,
    )[0]
}

#[test]
fn the_baseline_gate_flags_a_regressed_cell() {
    let baseline = cells::baseline().expect("the baseline parses");
    let cell = matrix_cell();
    assert!(cells::baseline_covers(&baseline, &cell));
    let run = cells::run_cell(&cell, false).expect("the cell runs");
    assert!(cells::baseline_gate(&baseline, &cell, &run.report).is_empty());

    let mut slower = run.report.clone();
    slower.totals.p99_us *= 1.5;
    assert_eq!(cells::baseline_gate(&baseline, &cell, &slower).len(), 1);
    let mut lossy = run.report;
    lossy.totals.delivered /= 2;
    lossy.totals.drops_overload = lossy.totals.drops_overload * 2 + 100;
    assert_eq!(cells::baseline_gate(&baseline, &cell, &lossy).len(), 2);

    let other_seed = pam_experiments::fleet::FleetScenario {
        seed: 7,
        ..cell.scenario
    };
    assert!(!cells::baseline_covers(
        &baseline,
        &Cell {
            scenario: other_seed,
            ..cell
        }
    ));
}

#[test]
fn a_run_that_disagrees_with_its_twin_or_itself_is_flagged() {
    let cell = matrix_cell();
    let report = cells::run_cell(&cell, false).expect("the cell runs").report;
    assert!(cells::consistency(&cell, &report).is_empty());
    assert!(cells::estimators_agree(&report, &report).is_empty());

    let mut diverged = report.clone();
    diverged.totals.migrations += 1;
    assert_eq!(cells::estimators_agree(&report, &diverged).len(), 1);
    assert!(!cells::consistency(&cell, &diverged).is_empty());
}
