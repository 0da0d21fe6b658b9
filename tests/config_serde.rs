//! Configs and reports either parse to what their author meant or fail
//! loudly.
//!
//! Every serialised control knob and the fleet report go through the derived
//! deserialisers, which require every field and reject every key a type does
//! not declare. One table drives three checks over each type: a
//! representative value round-trips byte-identically, and adding a
//! misspelled key to, or dropping any single key from, any struct object in
//! it fails with an error naming that key.

use pam::core::StrategyKind;
use pam::experiments::fleet::{FleetBenchOutput, FleetScenario, FleetScenarioKind, FleetTuning};
use pam::fleet::{EstimatorConfig, EstimatorKind};
use pam::runtime::{MigrationMode, RuntimeTuning};
use pam::sim::{DegradationFn, FaultPlan, FaultPlanConfig, LinkModel, PcieLinkConfig};
use pam::types::SimDuration;
use serde::de::DeserializeOwned;
use serde::Serialize;
use serde_json::{Error, Map, Value};

const BASELINE: &str = include_str!("../BENCH_baseline.json");

/// One row of the table: a type's name, a serialised value of it, the
/// re-parse (as that type, serialised back) and a misspelled key.
type Case = (
    &'static str,
    Value,
    fn(&Value) -> Result<Value, Error>,
    &'static str,
);

fn case<T: Serialize + DeserializeOwned>(
    name: &'static str,
    value: &T,
    typo: &'static str,
) -> Case {
    let reparse =
        |value: &Value| serde_json::to_value(&serde_json::from_value::<T>(value.clone())?);
    (name, serde_json::to_value(value).unwrap(), reparse, typo)
}

fn object(pairs: Vec<(String, Value)>) -> Value {
    Value::Object(Map::from_pairs(pairs))
}

/// Every copy of `value` with one struct object changed — `typo` added or
/// one key dropped — paired with the key the error must name. Objects whose
/// keys are CamelCase are enum tags, not structs, and are only descended.
fn mutants(value: &Value, typo: &str) -> Vec<(String, Value)> {
    let pairs: Vec<(String, Value)> = match value {
        Value::Object(map) => map.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
        Value::Array(items) => items.iter().map(|v| (String::new(), v.clone())).collect(),
        _ => return Vec::new(),
    };
    let rebuild = |pairs: Vec<(String, Value)>| match value {
        Value::Object(_) => object(pairs),
        _ => Value::Array(pairs.into_iter().map(|(_, v)| v).collect()),
    };
    let mut out = Vec::new();
    if value.as_object().is_some() && pairs.iter().all(|(k, _)| k.starts_with(char::is_lowercase)) {
        let mut added = pairs.clone();
        added.push((typo.to_owned(), Value::Null));
        out.push((typo.to_owned(), object(added)));
        for i in 0..pairs.len() {
            let mut dropped = pairs.clone();
            out.push((dropped.remove(i).0, object(dropped)));
        }
    }
    for (i, (_, child)) in pairs.iter().enumerate() {
        for (key, mutant) in mutants(child, typo) {
            let mut changed = pairs.clone();
            changed[i].1 = mutant;
            out.push((key, rebuild(changed)));
        }
    }
    out
}

#[test]
fn every_config_round_trips_and_rejects_misspelled_and_missing_keys() {
    let tuning = FleetTuning::default()
        .with_mode(MigrationMode::PreCopy)
        .with_batch(8)
        .with_link_model(LinkModel::fair_share())
        .with_estimator(EstimatorKind::Sketch);
    let scenario = FleetScenario::new(FleetScenarioKind::RollingHotspot, 4).with_tuning(tuning);
    let horizon = SimDuration::from_millis(30);
    let plan = FaultPlan::generate(7, 4, horizon, &FaultPlanConfig::default());
    let baseline: FleetBenchOutput = serde_json::from_str(BASELINE).unwrap();
    let penalty = LinkModel::FairShare(DegradationFn::LinearPenalty { penalty: 0.05 });
    let runtime = RuntimeTuning::default()
        .with_link_model(penalty)
        .with_max_batch(8);
    let table = [
        case(
            "FleetConfig",
            &scenario.fleet_config(StrategyKind::Pam),
            "scale_in_belwo",
        ),
        case(
            "EstimatorConfig",
            &EstimatorConfig::of(EstimatorKind::Sketch),
            "widht",
        ),
        case(
            "PcieLinkConfig",
            &PcieLinkConfig::inter_server(),
            "bandwith",
        ),
        case("LinkModel", &penalty, "penalty_per_flow"),
        case("RuntimeTuning", &runtime, "max_bacth"),
        case("FleetScenario", &scenario, "migraton_mode"),
        case("FaultPlan", &plan, "down_for_ms"),
        case("FleetReport", &baseline.results[0].report, "drops_overlaod"),
    ];
    for (name, value, reparse, typo) in table {
        let text = serde_json::to_string(&value).unwrap();
        let back = reparse(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), text, "{name}");
        let mutants = mutants(&value, typo);
        assert!(!mutants.is_empty(), "{name} has a struct object to mutate");
        for (key, mutant) in mutants {
            let err = reparse(&mutant).expect_err(name).to_string();
            assert!(err.contains(&format!("`{key}`")), "{name}: {err}");
        }
    }
}

#[test]
fn committed_baseline_parses_as_the_current_schema() {
    let baseline: FleetBenchOutput = serde_json::from_str(BASELINE).unwrap();
    assert_eq!(baseline.version, 4);
    assert_eq!(baseline.results.len(), 48);
    assert_eq!(serde_json::to_string(&baseline).unwrap(), BASELINE);
}
