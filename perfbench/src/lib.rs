//! The PAM benchmark: simulator throughput and PAM latency, end to end and
//! layer by layer.
//!
//! The harness sits outside the simulator. It builds each workload's fleets
//! with `FleetScenario::build_fleet`, runs them with `Fleet::run` /
//! `Fleet::run_sharded` and reads `Fleet::report`, one cell after another in
//! one process. Traffic inside each simulation is open loop (CBR arrivals on
//! a fixed schedule). Every cell run is one operation and is checked (see
//! [`cells`]); the workloads and why they were chosen are in `README.md`
//! next to this crate.
//!
//! An untraced run ([`Options::trace`] false) reports the end-to-end metrics;
//! a traced run reports the per-layer ledger: exact counters read through
//! public accessors, per-window host time of a fleet stepped one control
//! interval at a time, and the [`layers`] replays.

pub mod alloc;
pub mod calib;
pub mod cells;
pub mod layers;

use std::fmt::Write as _;
use std::time::Instant;

use pam_core::StrategyKind;
use pam_experiments::fleet::FleetBenchOutput;

use cells::{Cell, CellRun, Counters};

/// A benchmark failure that leaves no result to report.
#[derive(Debug)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<pam_types::PamError> for Error {
    fn from(e: pam_types::PamError) -> Self {
        Error(format!("simulation error: {e}"))
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The gated 48-cell matrix, sequential.
    Matrix,
    /// The flash crowd at 100 000 flows per server under link contention,
    /// every strategy with both estimators.
    CrowdState,
    /// The 32-server diurnal wave on the sharded runner's two lanes.
    Wave32Sharded,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::Matrix,
        Workload::CrowdState,
        Workload::Wave32Sharded,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Matrix => "matrix",
            Workload::CrowdState => "crowd_state",
            Workload::Wave32Sharded => "wave32_sharded",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// The workload seed: server `i` of every scenario traces with
    /// `seed + i`. Only the default seed is covered by the baseline check.
    pub seed: u64,
    /// Host seconds to spend measuring (at least one pass always runs).
    pub seconds: f64,
    /// Report the per-layer ledger instead of the end-to-end metrics.
    pub trace: bool,
    /// The shortened configuration of the benchmark's own smoke test.
    pub smoke: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// True when no cell run failed.
    pub correct: bool,
    /// Cell runs attempted.
    pub attempted: u64,
    /// Cell runs that failed a check.
    pub failed: u64,
    /// The metrics, in a fixed order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The one-line JSON result. Values print with every digit Rust's
    /// shortest round-trip formatting gives.
    pub fn to_json(&self) -> String {
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, metric) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                metric.name, metric.value, metric.unit
            );
        }
        json.push_str("}}");
        json
    }
}

/// Set-up samples per cell behind `setup_s`, at least.
const SETUP_SAMPLES: usize = 11;
/// Builds of every cell's fleet after each measured pass.
const SETUP_ROUNDS_PER_PASS: usize = 4;

/// Median of `values` (0 when empty).
fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile of `values` (0 when empty).
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-cell bookkeeping across the passes of one benchmark run.
struct Ledger {
    cells: Vec<Cell>,
    /// The report every run of the cell must reproduce byte for byte: the
    /// sequential run for sharded cells, else the cell's first run.
    reference: Vec<Option<(String, pam_fleet::FleetReport)>>,
    /// Host seconds of the sequential reference run (sharded cells).
    sequential_s: Vec<f64>,
    /// Exact counters of the cell's first untraced run.
    counters: Vec<Counters>,
    // Host seconds of builds, runs and traced runs, each scaled to the
    // reference host speed (see [`calib`]).
    setup_s: Vec<Vec<f64>>,
    run_s: Vec<Vec<f64>>,
    traced_run_s: Vec<Vec<f64>>,
    /// Host seconds of the untraced runs as read, unscaled.
    raw_run_s: Vec<Vec<f64>>,
    windows_s: Vec<f64>,
    /// Per untraced run of a sharded cell: its side channel.
    shard: Vec<Vec<ShardSample>>,
    /// Per cell: problems found by any run (each is reported once).
    problems: Vec<Vec<String>>,
    /// Per cell: runs, and whether each passed its own checks.
    runs_ok: Vec<Vec<bool>>,
}

impl Ledger {
    fn new(cells: Vec<Cell>) -> Self {
        let n = cells.len();
        Ledger {
            cells,
            reference: vec![None; n],
            sequential_s: vec![0.0; n],
            counters: vec![Counters::default(); n],
            setup_s: vec![Vec::new(); n],
            run_s: vec![Vec::new(); n],
            traced_run_s: vec![Vec::new(); n],
            raw_run_s: vec![Vec::new(); n],
            windows_s: Vec::new(),
            shard: vec![Vec::new(); n],
            problems: vec![Vec::new(); n],
            runs_ok: vec![Vec::new(); n],
        }
    }

    fn note_problem(&mut self, cell: usize, problem: String) {
        if !self.problems[cell].contains(&problem) {
            self.problems[cell].push(problem);
        }
    }

    /// Sharded cells are checked against the sequential runner on the same
    /// scenario; runs them once to get the reference report.
    fn run_sequential_references(&mut self) -> Result<(), Error> {
        for i in 0..self.cells.len() {
            if self.cells[i].lanes > 1 {
                let sequential = Cell {
                    lanes: 1,
                    ..self.cells[i]
                };
                let run = cells::run_cell(&sequential, false)?;
                self.sequential_s[i] = run.run_s;
                self.reference[i] = Some((run.json, run.report));
            }
        }
        Ok(())
    }

    /// Runs every cell once; returns the pass's host seconds. A timed pass
    /// runs each cell between two calibration kernels, on as many threads
    /// as the workload has lanes, and records its scaled host time; an
    /// untimed pass only checks the runs.
    fn pass(&mut self, traced: bool, timed: bool) -> Result<f64, Error> {
        let started = Instant::now();
        let lanes = self.cells.iter().map(|cell| cell.lanes).max().unwrap_or(1);
        let mut before = if timed { calib::sample_on(lanes) } else { 0.0 };
        for i in 0..self.cells.len() {
            let run = cells::run_cell(&self.cells[i], traced)?;
            let mut slowdown = None;
            if timed {
                let after = calib::sample_on(lanes);
                slowdown = Some(host_slowdown(before, after));
                before = after;
            }
            self.record(i, run, traced, slowdown);
        }
        Ok(started.elapsed().as_secs_f64())
    }

    /// Builds every cell's fleet round-robin, `rounds` times, timing each
    /// build for `setup_s`. Each round sits between two calibration kernels.
    fn sample_setups(&mut self, rounds: usize) -> Result<(), Error> {
        let mut before = calib::sample();
        let mut round = vec![0.0; self.cells.len()];
        for _ in 0..rounds {
            for (cell, build_s) in self.cells.iter().zip(&mut round) {
                let start = Instant::now();
                let fleet = cell.scenario.build_fleet(cell.strategy)?;
                *build_s = start.elapsed().as_secs_f64();
                drop(fleet);
            }
            let after = calib::sample();
            let slowdown = host_slowdown(before, after);
            for (samples, build_s) in self.setup_s.iter_mut().zip(&round) {
                samples.push(build_s / slowdown);
            }
            before = after;
        }
        Ok(())
    }

    /// Records one run of cell `i` and checks it. `slowdown` (see
    /// [`host_slowdown`]) is given for timed runs only; an untimed untraced
    /// run gives the cell's exact counters.
    fn record(&mut self, i: usize, run: CellRun, traced: bool, slowdown: Option<f64>) {
        let cell = self.cells[i];
        let mut problems = cells::consistency(&cell, &run.report);
        match &self.reference[i] {
            None => self.reference[i] = Some((run.json.clone(), run.report.clone())),
            Some((json, _)) if *json != run.json => problems.push(if cell.lanes > 1 {
                "report differs from the sequential run".to_string()
            } else if traced {
                "traced report differs from the untraced run".to_string()
            } else {
                "report differs from the cell's first run".to_string()
            }),
            Some(_) => {}
        }
        self.runs_ok[i].push(problems.is_empty());
        for problem in problems {
            self.note_problem(i, problem);
        }
        let Some(slowdown) = slowdown else {
            if !traced {
                self.counters[i] = run.counters;
            }
            return;
        };
        if traced {
            self.traced_run_s[i].push(run.run_s / slowdown);
            self.windows_s.extend(run.windows_s);
            return;
        }
        self.run_s[i].push(run.run_s / slowdown);
        self.raw_run_s[i].push(run.run_s);
        if cell.lanes > 1 {
            let lanes = &run.shard.lanes;
            self.shard[i].push(ShardSample {
                busy_ms: lanes.iter().map(|l| l.busy_ms).sum(),
                max_busy_ms: lanes.iter().map(|l| l.busy_ms).fold(0.0, f64::max),
                wait_max_ms: lanes.iter().map(|l| l.barrier_wait_ms).fold(0.0, f64::max),
                wall_ms: run.run_s * 1e3,
                windows: run.shard.windows,
                lanes: lanes.len(),
            });
        }
    }

    /// The checks between cells, made once every reference exists: the
    /// baseline gate (matrix at the default seed) and the estimator twins.
    fn check_references(&mut self, baseline: Option<&FleetBenchOutput>) {
        for i in 0..self.cells.len() {
            let cell = self.cells[i];
            let Some((_, report)) = self.reference[i].clone() else {
                continue;
            };
            let mut problems = Vec::new();
            if let Some(baseline) = baseline.filter(|b| cells::baseline_covers(b, &cell)) {
                problems.extend(
                    cells::baseline_gate(baseline, &cell, &report)
                        .into_iter()
                        .map(|p| format!("baseline gate: {p}")),
                );
            }
            if let Some(twin) = cells::exact_twin(&self.cells, &cell) {
                if let Some((_, exact)) = &self.reference[twin] {
                    problems.extend(
                        cells::estimators_agree(exact, &report)
                            .into_iter()
                            .map(|p| format!("sketch disagrees with exact: {p}")),
                    );
                }
            }
            if !problems.is_empty() {
                // The reference is wrong, so every run reproducing it is too.
                self.runs_ok[i].iter_mut().for_each(|ok| *ok = false);
            }
            for problem in problems {
                self.note_problem(i, problem);
            }
        }
    }

    fn attempted(&self) -> u64 {
        self.runs_ok.iter().map(|runs| runs.len() as u64).sum()
    }

    fn failed(&self) -> u64 {
        self.runs_ok
            .iter()
            .map(|runs| runs.iter().filter(|ok| !**ok).count() as u64)
            .sum()
    }

    fn report(&self, i: usize) -> &pam_fleet::FleetReport {
        match &self.reference[i] {
            Some((_, report)) => report,
            None => unreachable!("every cell ran at least once"),
        }
    }

    /// Packets injected per host second of `Fleet::run`, from the median run
    /// time of every cell.
    fn pkts_per_s(&self, run_s: &[Vec<f64>]) -> f64 {
        let injected: u64 = (0..self.cells.len())
            .map(|i| self.report(i).totals.injected)
            .sum();
        injected as f64 / run_s.iter().map(|s| median(s)).sum::<f64>()
    }

    fn indices_of(&self, strategy: StrategyKind) -> Vec<usize> {
        (0..self.cells.len())
            .filter(|&i| self.cells[i].strategy == strategy)
            .collect()
    }

    fn end_to_end(&self, peak_rss_mib: f64) -> Vec<Metric> {
        let pam = self.indices_of(StrategyKind::Pam);
        let pam_p99 = pam
            .iter()
            .map(|&i| self.report(i).totals.p99_us)
            .sum::<f64>()
            / pam.len() as f64;
        let gains: Vec<f64> = pam
            .iter()
            .filter_map(|&i| {
                let naive = cells::naive_twin(&self.cells, &self.cells[i])?;
                Some(self.report(naive).totals.p99_us / self.report(i).totals.p99_us)
            })
            .collect();
        let (delivered, injected) = pam.iter().fold((0u64, 0u64), |(d, n), &i| {
            let t = &self.report(i).totals;
            (d + t.delivered, n + t.injected)
        });
        vec![
            metric("sim_pkts_per_s", self.pkts_per_s(&self.run_s), "packets/s"),
            metric("setup_s", self.setup_s.iter().map(|s| median(s)).sum(), "s"),
            metric("peak_rss_mb", peak_rss_mib, "MiB"),
            metric("pam_p99_us", pam_p99, "sim_us"),
            metric(
                "pam_p99_gain",
                gains.iter().sum::<f64>() / gains.len() as f64,
                "ratio",
            ),
            metric(
                "pam_delivered_frac",
                delivered as f64 / injected as f64,
                "fraction",
            ),
        ]
    }

    fn per_layer(&self, layers: &layers::Layers, alloc: (u64, u64)) -> Vec<Metric> {
        let n = self.cells.len();
        let total = |f: &dyn Fn(usize) -> f64| (0..n).map(f).sum::<f64>();
        let totals = |i: usize| self.report(i).totals;
        let crossings_per_pkt = |strategy: StrategyKind| {
            let cells = self.indices_of(strategy);
            let crossings: u64 = cells.iter().map(|&i| self.counters[i].crossings).sum();
            let injected: u64 = cells.iter().map(|&i| totals(i).injected).sum();
            crossings as f64 / injected.max(1) as f64
        };
        let untraced = self.pkts_per_s(&self.run_s);
        let traced = self.pkts_per_s(&self.traced_run_s);

        let mut metrics = vec![
            metric("traffic.pkts", layers.traffic_pkts as f64, "count"),
            metric("traffic.ns_per_pkt", layers.traffic_ns_per_pkt(), "ns"),
        ];
        for (slot, (_, name)) in layers::NF_KINDS.iter().enumerate() {
            metrics.push(metric(
                &format!("nf.{name}.ns_per_call"),
                layers.nf_ns_per_call(slot),
                "ns",
            ));
        }
        metrics.extend([
            metric(
                "nf.flow_entries",
                total(&|i| self.counters[i].flow_entries as f64),
                "count",
            ),
            metric(
                "events.count",
                total(&|i| self.counters[i].events as f64),
                "count",
            ),
            metric(
                "events.ns_per_event",
                layers.events_ns / layers.events.max(1) as f64,
                "ns",
            ),
            metric(
                "link.crossings",
                total(&|i| self.counters[i].crossings as f64),
                "count",
            ),
            metric(
                "link.dma_bursts",
                total(&|i| self.counters[i].dma_bursts as f64),
                "count",
            ),
            metric(
                "link.bytes",
                total(&|i| self.counters[i].link_bytes as f64),
                "bytes",
            ),
            metric(
                "link.crossings_per_pkt.pam",
                crossings_per_pkt(StrategyKind::Pam),
                "ratio",
            ),
            metric(
                "link.crossings_per_pkt.naive",
                crossings_per_pkt(StrategyKind::NaiveBottleneck),
                "ratio",
            ),
            metric(
                "link.ns_per_burst",
                layers.bursts_ns / layers.bursts.max(1) as f64,
                "ns",
            ),
            metric("runtime.ns_per_pkt", layers.runtime_self_ns_per_pkt(), "ns"),
            metric(
                "runtime.migrations",
                total(&|i| totals(i).migrations as f64),
                "count",
            ),
            metric(
                "runtime.blackout_us",
                total(&|i| totals(i).blackout_us),
                "sim_us",
            ),
            metric(
                "runtime.precopy_rounds",
                total(&|i| self.counters[i].precopy_rounds as f64),
                "count",
            ),
            metric(
                "estimator.exact.ns_per_arrival",
                layers.estimator_ns[0] / layers.arrivals.max(1) as f64,
                "ns",
            ),
            metric(
                "estimator.sketch.ns_per_arrival",
                layers.estimator_ns[1] / layers.arrivals.max(1) as f64,
                "ns",
            ),
            metric(
                "estimator.resident_bytes",
                total(&|i| self.counters[i].estimator_bytes as f64),
                "bytes",
            ),
            metric(
                "fleet.control_steps",
                total(&|i| totals(i).control_steps as f64),
                "count",
            ),
            metric(
                "fleet.decisions",
                total(&|i| self.counters[i].decisions as f64),
                "count",
            ),
            metric(
                "fleet.scale_outs",
                total(&|i| totals(i).scale_outs as f64),
                "count",
            ),
            metric(
                "fleet.scale_out_blocked",
                total(&|i| totals(i).scale_out_blocked as f64),
                "count",
            ),
            metric(
                "fleet.resteered_pkts",
                total(&|i| totals(i).resteered_packets as f64),
                "count",
            ),
            metric(
                "fleet.handoff_bytes",
                total(&|i| totals(i).handoff_bytes as f64),
                "bytes",
            ),
            metric(
                "fleet.window_p50_us",
                percentile(&self.windows_s, 0.5) * 1e6,
                "us",
            ),
            metric(
                "fleet.window_p99_us",
                percentile(&self.windows_s, 0.99) * 1e6,
                "us",
            ),
        ]);
        metrics.extend(self.shard_metrics());
        metrics.extend([
            metric("alloc.count", alloc.0 as f64, "count"),
            metric("alloc.bytes", alloc.1 as f64, "bytes"),
            metric("trace.overhead_pkts_per_s", traced - untraced, "packets/s"),
            metric(
                "trace.overhead_frac",
                (untraced - traced) / untraced,
                "fraction",
            ),
        ]);
        metrics
    }

    /// The sharded runner's ledger, from the median run of each sharded
    /// cell (all zero on workloads without one).
    fn shard_metrics(&self) -> Vec<Metric> {
        let (mut windows, mut busy, mut wait_max, mut sequencer) = (0u64, 0.0, 0.0f64, 0.0);
        let (mut wall, mut lane_wall, mut sequential) = (0.0, 0.0, 0.0);
        for (i, runs) in self.shard.iter().enumerate() {
            let Some(first) = runs.first() else {
                continue;
            };
            let field =
                |f: fn(&ShardSample) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
            let cell_wall = field(|r| r.wall_ms);
            windows += first.windows;
            busy += field(|r| r.busy_ms);
            wait_max = wait_max.max(field(|r| r.wait_max_ms));
            // What no lane covers is the caller's thread sequencing arrivals
            // and control ticks between windows.
            sequencer += field(|r| r.wall_ms - r.max_busy_ms);
            wall += cell_wall;
            lane_wall += cell_wall * first.lanes as f64;
            sequential += self.sequential_s[i] * 1e3;
        }
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        vec![
            metric("shard.windows", windows as f64, "count"),
            metric("shard.lane_busy_ms", busy, "ms"),
            metric("shard.barrier_wait_ms_max", wait_max, "ms"),
            metric("shard.sequencer_ms", sequencer, "ms"),
            metric("shard.efficiency", ratio(busy, lane_wall), "fraction"),
            metric("shard.speedup", ratio(sequential, wall), "ratio"),
        ]
    }
}

/// One sharded run's side channel, condensed.
#[derive(Debug, Clone, Copy)]
struct ShardSample {
    /// Busy time summed over the lanes.
    busy_ms: f64,
    /// The busiest lane's busy time.
    max_busy_ms: f64,
    /// The longest any lane waited at barriers.
    wait_max_ms: f64,
    /// Host time of the whole run.
    wall_ms: f64,
    /// Synchronisation windows executed.
    windows: u64,
    /// Lanes of the run.
    lanes: usize,
}

/// How much slower than the reference the host ran, from the calibration
/// kernels timed just before and just after a measurement.
fn host_slowdown(before_s: f64, after_s: f64) -> f64 {
    (before_s + after_s) / 2.0 / calib::REFERENCE_S
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Runs the benchmark.
pub fn run(options: &Options) -> Result<Outcome, Error> {
    let started = Instant::now();
    let cells = cells::cells(options.workload, options.seed, options.smoke);
    let mut ledger = Ledger::new(cells);
    ledger.run_sequential_references()?;

    // A first, untimed pass warms caches and pools and gives every cell its
    // reference report and counters. Peak memory and allocations are read
    // over it, before the calibration kernel, which allocates too, first
    // runs.
    let alloc_before = alloc::allocations();
    ledger.pass(false, false)?;
    let alloc_after = alloc::allocations();
    let allocations = (
        alloc_after.0 - alloc_before.0,
        alloc_after.1 - alloc_before.1,
    );
    let peak_rss_mib = alloc::peak_rss_mib()
        .ok_or_else(|| Error("cannot read VmHWM from /proc/self/status".to_string()))?;

    let mut layers = None;
    if options.trace {
        // Alternate traced and untraced passes so both see the same machine.
        loop {
            let pair = ledger.pass(false, true)? + ledger.pass(true, true)?;
            if started.elapsed().as_secs_f64() + pair > options.seconds {
                break;
            }
        }
        layers = Some(layers::replay(&ledger.cells)?);
    } else {
        // Set-up is sampled after every pass, so its samples spread over
        // the same stretch of host time as the passes.
        let mut passes = Vec::new();
        loop {
            passes.push(ledger.pass(false, true)?);
            ledger.sample_setups(SETUP_ROUNDS_PER_PASS)?;
            if started.elapsed().as_secs_f64() + median(&passes) > options.seconds {
                break;
            }
        }
        ledger.sample_setups(SETUP_SAMPLES.saturating_sub(ledger.setup_s[0].len()))?;
        eprintln!("perfbench: {} pass(es) of {:.3?} s", passes.len(), passes);
        eprintln!(
            "perfbench: unscaled sim_pkts_per_s {:.1}",
            ledger.pkts_per_s(&ledger.raw_run_s)
        );
    }

    let baseline = match options.workload {
        Workload::Matrix => Some(cells::baseline()?),
        _ => None,
    };
    ledger.check_references(baseline.as_ref());
    for (cell, problems) in ledger.cells.iter().zip(&ledger.problems) {
        for problem in problems {
            eprintln!("perfbench: FAIL {}: {problem}", cell.label());
        }
    }

    let metrics = match &layers {
        Some(layers) => ledger.per_layer(layers, allocations),
        None => ledger.end_to_end(peak_rss_mib),
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(Error(format!("metric {} is not finite", bad.name)));
    }
    let failed = ledger.failed();
    Ok(Outcome {
        correct: failed == 0,
        attempted: ledger.attempted(),
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run whose report does not match its reference byte for byte counts
    /// as failed, untraced or traced.
    #[test]
    fn a_run_that_does_not_reproduce_its_reference_fails() {
        let cell = cells::cells(
            Workload::Matrix,
            pam_experiments::fleet::DEFAULT_FLEET_SEED,
            true,
        )[0];
        let run = || cells::run_cell(&cell, false).expect("the cell runs");
        let doctored = |mut run: CellRun| {
            let mut report = run.report.clone();
            report.totals.p99_us += 1.0;
            run.json = serde_json::to_string(&report).expect("the report serialises");
            run
        };
        let mut ledger = Ledger::new(vec![cell]);
        ledger.record(0, run(), false, None);
        ledger.record(0, run(), false, None);
        assert_eq!((ledger.attempted(), ledger.failed()), (2, 0));

        ledger.record(0, doctored(run()), false, None);
        assert_eq!((ledger.attempted(), ledger.failed()), (3, 1));
        let traced = cells::run_cell(&cell, true).expect("the cell runs");
        ledger.record(0, doctored(traced), true, None);
        assert_eq!((ledger.attempted(), ledger.failed()), (4, 2));
        assert_eq!(
            ledger.problems[0],
            [
                "report differs from the cell's first run",
                "traced report differs from the untraced run",
            ]
        );
    }
}
