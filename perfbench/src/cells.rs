//! The workloads' cells, how one cell runs, and the checks every run passes.
//!
//! A cell is one fully seeded fleet simulation: a [`FleetScenario`], the
//! strategy every server runs, and the number of shard lanes (1 is the
//! sequential `Fleet::run`). Running a cell is one operation of the
//! benchmark; it fails when any of its correctness checks fails.

use std::time::Instant;

use pam_core::StrategyKind;
use pam_experiments::fleet::{
    FleetBenchOutput, FleetScenario, FleetScenarioKind, FleetTuning, FLEET_BENCH_BATCHES,
    FLEET_BENCH_MODES, FLEET_BENCH_STRATEGIES,
};
use pam_fleet::{EstimatorKind, FleetAction, FleetReport, ShardRunStats};
use pam_runtime::MigrationMode;
use pam_sim::LinkModel;
use pam_types::SimTime;

use crate::{Error, Workload};

/// One cell of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// The fully seeded scenario.
    pub scenario: FleetScenario,
    /// The strategy every server runs.
    pub strategy: StrategyKind,
    /// Shard lanes of the run (1 = the sequential runner).
    pub lanes: usize,
}

impl Cell {
    /// A readable label: scenario/strategy/mode/batch/estimator.
    pub fn label(&self) -> String {
        let tuning = &self.scenario.tuning;
        format!(
            "{}/{}/{}/batch{}/{}",
            self.scenario.kind.name(),
            self.strategy.build().name(),
            tuning.migration_mode.name(),
            tuning.batch,
            tuning.estimator.name()
        )
    }
}

/// Flows per server of `crowd_state`: enough that the flow tables and the
/// exact estimator outgrow the caches.
const CROWD_FLOWS: usize = 100_000;
/// Shard lanes of `wave32_sharded`.
const WAVE_LANES: usize = 2;

/// The cells of `workload` at `seed`, in a fixed order. `smoke` shortens the
/// workload for the benchmark's own test: one matrix scenario, a tenth of
/// the crowd's flows, an eight-server wave.
pub fn cells(workload: Workload, seed: u64, smoke: bool) -> Vec<Cell> {
    let seeded = |scenario: FleetScenario| FleetScenario { seed, ..scenario };
    let mut cells = Vec::new();
    match workload {
        Workload::Matrix => {
            let kinds: &[FleetScenarioKind] = if smoke {
                &[FleetScenarioKind::FlashCrowd]
            } else {
                &FleetScenarioKind::ALL
            };
            for &kind in kinds {
                for mode in FLEET_BENCH_MODES {
                    for batch in FLEET_BENCH_BATCHES {
                        for strategy in FLEET_BENCH_STRATEGIES {
                            let tuning = FleetTuning::default().with_mode(mode).with_batch(batch);
                            cells.push(Cell {
                                scenario: seeded(FleetScenario::new(kind, 4).with_tuning(tuning)),
                                strategy,
                                lanes: 1,
                            });
                        }
                    }
                }
            }
        }
        Workload::CrowdState => {
            let flows = if smoke { CROWD_FLOWS / 10 } else { CROWD_FLOWS };
            for strategy in FLEET_BENCH_STRATEGIES {
                for estimator in EstimatorKind::ALL {
                    let tuning = FleetTuning::default()
                        .with_mode(MigrationMode::PreCopy)
                        .with_link_model(LinkModel::fair_share())
                        .with_estimator(estimator)
                        .with_flows(flows);
                    cells.push(Cell {
                        scenario: seeded(
                            FleetScenario::new(FleetScenarioKind::FlashCrowd, 4)
                                .with_tuning(tuning),
                        ),
                        strategy,
                        lanes: 1,
                    });
                }
            }
        }
        Workload::Wave32Sharded => {
            let servers = if smoke { 8 } else { 32 };
            // The naive cell is the denominator of `pam_p99_gain`.
            for strategy in [StrategyKind::NaiveBottleneck, StrategyKind::Pam] {
                cells.push(Cell {
                    scenario: seeded(FleetScenario::new(FleetScenarioKind::DiurnalWave, servers)),
                    strategy,
                    lanes: WAVE_LANES,
                });
            }
        }
    }
    cells
}

/// Exact work counters of one finished cell run, read through the public
/// accessors of the fleet and its servers.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Discrete events scheduled (fleet queue plus every runtime queue).
    pub events: u64,
    /// Per-flow state entries held by every vNF at the end of the run.
    pub flow_entries: u64,
    /// PCIe crossings, both directions, every server.
    pub crossings: u64,
    /// PCIe DMA bursts (doorbells), every server.
    pub dma_bursts: u64,
    /// PCIe bytes moved, every server.
    pub link_bytes: u64,
    /// State-transfer rounds of pre-copy migrations.
    pub precopy_rounds: u64,
    /// Bytes resident in every server's load estimator at the end.
    pub estimator_bytes: u64,
    /// Fleet-ladder records with an action other than `None`.
    pub decisions: u64,
}

/// What one run of one cell produced.
pub struct CellRun {
    /// Host seconds in `Fleet::run` / `Fleet::run_sharded`.
    pub run_s: f64,
    /// The fleet's report.
    pub report: FleetReport,
    /// The report serialised, for byte comparisons.
    pub json: String,
    /// Exact work counters.
    pub counters: Counters,
    /// The sharded runner's side channel (empty for sequential cells).
    pub shard: ShardRunStats,
    /// Host seconds of every control window (traced runs only).
    pub windows_s: Vec<f64>,
}

/// Runs `cell` once. A traced run advances the fleet one control interval
/// at a time and times every window; an untraced run makes one call.
pub fn run_cell(cell: &Cell, traced: bool) -> Result<CellRun, Error> {
    let scenario = &cell.scenario;
    let mut fleet = scenario.build_fleet(cell.strategy)?;
    let horizon = scenario.horizon();
    let mut windows_s = Vec::new();
    let started = Instant::now();
    if traced {
        let step = fleet.config().orchestrator.poll_interval;
        let mut at = SimTime::ZERO;
        while at < horizon {
            at = (at + step).min(horizon);
            let window = Instant::now();
            fleet.run_sharded(at, cell.lanes);
            windows_s.push(window.elapsed().as_secs_f64());
        }
    } else {
        fleet.run_sharded(horizon, cell.lanes);
    }
    let run_s = started.elapsed().as_secs_f64();

    let report = fleet.report();
    let json = serde_json::to_string(&report)
        .map_err(|e| Error(format!("{}: serialising the report: {e}", cell.label())))?;
    let mut counters = Counters {
        events: fleet.events_scheduled(),
        decisions: fleet
            .log()
            .iter()
            .filter(|record| record.action != FleetAction::None)
            .count() as u64,
        ..Counters::default()
    };
    for server in fleet.servers() {
        let runtime = server.runtime();
        let pcie = runtime.pcie_stats();
        counters.flow_entries += runtime.stateful_flow_entries() as u64;
        counters.crossings += pcie.total_crossings();
        counters.dma_bursts += pcie.dma_bursts;
        counters.link_bytes += pcie.bytes;
        counters.estimator_bytes += server.estimator().resident_bytes() as u64;
        counters.precopy_rounds += runtime
            .outcome()
            .migrations
            .iter()
            .filter(|m| m.mode == MigrationMode::PreCopy)
            .map(|m| m.rounds.len() as u64)
            .sum::<u64>();
    }
    Ok(CellRun {
        run_s,
        report,
        json,
        counters,
        shard: fleet.shard_stats().clone(),
        windows_s,
    })
}

/// The checks every run of a cell passes on its own: the report is
/// internally consistent. Returns one message per violation.
pub fn consistency(cell: &Cell, report: &FleetReport) -> Vec<String> {
    let t = &report.totals;
    let s = &report.servers;
    let mut problems = Vec::new();
    let mut expect = |ok: bool, what: &str| {
        if !ok {
            problems.push(what.to_string());
        }
    };
    expect(
        s.len() == cell.scenario.servers,
        "one server report per server",
    );
    expect(t.injected > 0, "traffic was injected");
    expect(
        t.injected == s.iter().map(|r| r.injected).sum::<u64>(),
        "injected totals add up",
    );
    expect(
        t.delivered == s.iter().map(|r| r.delivered).sum::<u64>(),
        "delivered totals add up",
    );
    expect(
        t.migrations == s.iter().map(|r| r.migrations).sum::<u64>(),
        "migration totals add up",
    );
    expect(
        t.delivered + t.drops_overload + t.drops_policy + t.drops_migration <= t.injected,
        "no packet is counted twice",
    );
    expect(
        t.p50_us > 0.0 && t.p50_us <= t.p99_us && t.p99_us.is_finite(),
        "0 < p50 <= p99",
    );
    expect(t.fault_drops == 0 && t.server_crashes == 0, "no faults");
    if cell.strategy == StrategyKind::Original {
        expect(t.migrations == 0, "the original placement never migrates");
    }
    problems
}

/// The committed baseline, parsed. `BENCH_baseline.json` is compiled in, so
/// the harness needs no path at run time.
pub fn baseline() -> Result<FleetBenchOutput, Error> {
    serde_json::from_str(include_str!("../../BENCH_baseline.json"))
        .map_err(|e| Error(format!("parsing BENCH_baseline.json: {e:?}")))
}

/// True when the baseline covers `cell`: a sequential cell at the seed and
/// fleet size the baseline was generated with (the matrix at seed 2018).
pub fn baseline_covers(baseline: &FleetBenchOutput, cell: &Cell) -> bool {
    cell.scenario.seed == baseline.seed
        && cell.scenario.servers == baseline.servers
        && cell.lanes == 1
}

/// Relative band of the baseline gate (`fleet_bench --check`'s default).
const TOLERANCE: f64 = 0.25;
/// Absolute slack on drop counters (`fleet_bench --check`'s).
const COUNT_SLACK: f64 = 64.0;

/// Compares `report` with the baseline's entry for `cell`, with the
/// semantics of `fleet_bench --check`: latency, blackout and drops may not
/// rise, and delivered packets may not fall, by more than 25% (drops get 64
/// packets of slack).
pub fn baseline_gate(
    baseline: &FleetBenchOutput,
    cell: &Cell,
    report: &FleetReport,
) -> Vec<String> {
    let tuning = &cell.scenario.tuning;
    let strategy = cell.strategy.build().name().to_string();
    let Some(entry) = baseline.results.iter().find(|e| {
        e.scenario == cell.scenario.kind.name()
            && e.strategy == strategy
            && e.migration_mode == tuning.migration_mode.name()
            && e.batch == tuning.batch
    }) else {
        return vec!["cell missing from BENCH_baseline.json".to_string()];
    };
    let b = &entry.report.totals;
    let c = &report.totals;
    let above = |metric: &str, base: f64, current: f64, slack: f64| {
        (current > base * (1.0 + TOLERANCE) + slack)
            .then(|| format!("{metric}: baseline {base:.1}, current {current:.1}"))
    };
    [
        above("p50_us", b.p50_us, c.p50_us, 0.0),
        above("p99_us", b.p99_us, c.p99_us, 0.0),
        above("mean_us", b.mean_us, c.mean_us, 0.0),
        above("blackout_us", b.blackout_us, c.blackout_us, 0.0),
        above(
            "overload_drops",
            b.drops_overload as f64,
            c.drops_overload as f64,
            COUNT_SLACK,
        ),
        above(
            "migration_drops",
            b.drops_migration as f64,
            c.drops_migration as f64,
            COUNT_SLACK,
        ),
        ((c.delivered as f64) < b.delivered as f64 * (1.0 - TOLERANCE)).then(|| {
            format!(
                "delivered: baseline {}, current {}",
                b.delivered, c.delivered
            )
        }),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// `crowd_state`'s estimator check: the sketch twin of an exact-estimator
/// cell must take the same decisions — migrations, scale-outs, p99 and drops
/// agree.
pub fn estimators_agree(exact: &FleetReport, sketch: &FleetReport) -> Vec<String> {
    let (e, s) = (&exact.totals, &sketch.totals);
    let drops = |t: &pam_fleet::FleetTotals| t.drops_overload + t.drops_policy + t.drops_migration;
    let mut problems = Vec::new();
    if e.migrations != s.migrations {
        problems.push(format!("migrations {} vs {}", e.migrations, s.migrations));
    }
    if e.scale_outs != s.scale_outs {
        problems.push(format!("scale-outs {} vs {}", e.scale_outs, s.scale_outs));
    }
    if e.p99_us != s.p99_us {
        problems.push(format!("p99 {} vs {}", e.p99_us, s.p99_us));
    }
    if drops(e) != drops(s) {
        problems.push(format!("drops {} vs {}", drops(e), drops(s)));
    }
    problems
}

/// The exact-estimator twin of a sketch cell, if `cell` is one.
pub fn exact_twin(cells: &[Cell], cell: &Cell) -> Option<usize> {
    if cell.scenario.tuning.estimator != EstimatorKind::Sketch {
        return None;
    }
    let tuning = cell.scenario.tuning.with_estimator(EstimatorKind::Exact);
    cells.iter().position(|other| {
        other.strategy == cell.strategy
            && other.scenario
                == FleetScenario {
                    tuning,
                    ..cell.scenario
                }
    })
}

/// The naive-bottleneck twin of a PAM cell: same scenario, same lanes.
pub fn naive_twin(cells: &[Cell], cell: &Cell) -> Option<usize> {
    cells.iter().position(|other| {
        other.strategy == StrategyKind::NaiveBottleneck
            && other.scenario == cell.scenario
            && other.lanes == cell.lanes
    })
}
