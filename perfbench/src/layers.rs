//! Per-layer replays: the benchmark times calls into each layer's public
//! functions on the workload's own inputs, outside the simulator.
//!
//! For every distinct trace of the workload (each server's
//! `FleetScenario::server_spec(i)`), the replay
//! 1. synthesises the trace with `TraceSynthesizer::next_packet` (`traffic`),
//! 2. feeds its `(flow, bytes)` stream to both `LoadEstimator` kinds
//!    (`estimator`),
//! 3. pushes every packet through `PcieLink::propagate_burst` under the
//!    server's link model (`link`),
//! 4. runs the packets through the figure-1 vNFs in chain order with
//!    `NetworkFunction::process` (`nf`),
//! 5. runs a single-server `ChainRuntime::run_until` over the same trace
//!    (`runtime`; its self time is this minus steps 1 and 4).
//!
//! Per scenario it also replays `EventQueue::schedule`/`pop` on the servers'
//! merged arrival timestamps, the way the fleet queue sequences them
//! (`events`).

use std::hint::black_box;
use std::time::Instant;

use pam_core::StrategyKind;
use pam_experiments::fleet::FleetScenario;
use pam_fleet::{EstimatorKind, LoadEstimator};
use pam_nf::{build_kind, NfContext, NfKind};
use pam_runtime::{ChainRuntime, MigrationMode};
use pam_sim::{EventQueue, LinkDirection, PcieLink};
use pam_traffic::TraceSynthesizer;
use pam_types::{Gbps, SimTime};

use crate::cells::Cell;
use crate::Error;

/// The figure-1 vNFs, in chain order, with their metric names.
pub const NF_KINDS: [(NfKind, &str); 4] = [
    (NfKind::Firewall, "firewall"),
    (NfKind::Monitor, "monitor"),
    (NfKind::Logger, "logger"),
    (NfKind::LoadBalancer, "load_balancer"),
];

/// Host time and work of every replayed layer.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Packets synthesised.
    pub traffic_pkts: u64,
    /// Host nanoseconds synthesising them.
    pub traffic_ns: f64,
    /// `process` calls per figure-1 vNF, in [`NF_KINDS`] order.
    pub nf_calls: [u64; 4],
    /// Host nanoseconds in those calls.
    pub nf_ns: [f64; 4],
    /// Events popped (each after one schedule).
    pub events: u64,
    /// Host nanoseconds scheduling and popping them.
    pub events_ns: f64,
    /// DMA bursts propagated.
    pub bursts: u64,
    /// Host nanoseconds propagating them.
    pub bursts_ns: f64,
    /// Packets the single-server runtime replays submitted.
    pub runtime_pkts: u64,
    /// Host nanoseconds of those replays, synthesis and vNFs included.
    pub runtime_ns: f64,
    /// Arrivals recorded per estimator kind.
    pub arrivals: u64,
    /// Host nanoseconds recording them: exact, sketch.
    pub estimator_ns: [f64; 2],
}

impl Layers {
    /// Host nanoseconds per synthesised packet.
    pub fn traffic_ns_per_pkt(&self) -> f64 {
        self.traffic_ns / self.traffic_pkts.max(1) as f64
    }

    /// Host nanoseconds per `process` call of vNF `index`.
    pub fn nf_ns_per_call(&self, index: usize) -> f64 {
        self.nf_ns[index] / self.nf_calls[index].max(1) as f64
    }

    /// The runtime's own host nanoseconds per packet: the single-server
    /// replay minus the synthesis and vNF time of the same packets.
    pub fn runtime_self_ns_per_pkt(&self) -> f64 {
        let nf_ns: f64 = self.nf_ns.iter().sum();
        (self.runtime_ns - self.traffic_ns - nf_ns) / self.runtime_pkts.max(1) as f64
    }
}

fn nanos_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e9
}

/// The distinct traffic groups of `cells`: scenarios that differ only in
/// strategy, estimator or migration mode drive the same traces through the
/// same datapath, so each is replayed once.
fn groups(cells: &[Cell]) -> Vec<FleetScenario> {
    let mut groups: Vec<FleetScenario> = Vec::new();
    for cell in cells {
        let mut scenario = cell.scenario;
        scenario.tuning = scenario
            .tuning
            .with_estimator(EstimatorKind::Exact)
            .with_mode(MigrationMode::StopAndCopy);
        if !groups.contains(&scenario) {
            groups.push(scenario);
        }
    }
    groups
}

/// Replays every layer over the traces of `cells`.
pub fn replay(cells: &[Cell]) -> Result<Layers, Error> {
    let mut layers = Layers::default();
    for scenario in groups(cells) {
        let mut arrivals = Vec::with_capacity(scenario.servers);
        for index in 0..scenario.servers {
            arrivals.push(replay_server(&scenario, index, &mut layers)?);
        }
        replay_events(&arrivals, &mut layers);
    }
    Ok(layers)
}

/// Replays one server's trace through every per-server layer and returns
/// its arrival timestamps.
fn replay_server(
    scenario: &FleetScenario,
    index: usize,
    layers: &mut Layers,
) -> Result<Vec<SimTime>, Error> {
    let spec = scenario.server_spec(index);

    let mut synth = TraceSynthesizer::new(spec.trace.clone());
    let mut packets = Vec::new();
    let start = Instant::now();
    while let Some(packet) = synth.next_packet() {
        packets.push(packet);
    }
    layers.traffic_ns += nanos_since(start);
    layers.traffic_pkts += packets.len() as u64;

    let stream: Vec<(SimTime, u64, u64)> = packets
        .iter()
        .map(|(at, packet)| (*at, packet.flow_id().raw(), packet.size().as_bytes()))
        .collect();
    layers.arrivals += stream.len() as u64;
    for (slot, kind) in EstimatorKind::ALL.into_iter().enumerate() {
        let twin = FleetScenario {
            tuning: scenario.tuning.with_estimator(kind),
            ..*scenario
        };
        let config = twin.fleet_config(StrategyKind::Pam);
        let interval = config.orchestrator.poll_interval;
        let mut estimator = LoadEstimator::new(&config.estimator, interval);
        let mut tick = SimTime::ZERO + interval;
        let mut tick_bytes = 0u64;
        let start = Instant::now();
        for &(at, flow, bytes) in &stream {
            // Seal the ticks the arrival has passed, as the control tick does.
            while at > tick {
                let offered = Gbps::from_bytes_per_sec(tick_bytes as f64 / interval.as_secs_f64());
                estimator.record(tick, offered);
                tick_bytes = 0;
                tick += interval;
            }
            estimator.record_arrival(flow, bytes);
            tick_bytes += bytes;
        }
        layers.estimator_ns[slot] += nanos_since(start);
        black_box(estimator.resident_bytes());
    }

    let mut link = PcieLink::new(spec.runtime.pcie);
    let start = Instant::now();
    for (at, packet) in &packets {
        black_box(link.propagate_burst(*at, 1, packet.size(), LinkDirection::NicToCpu));
    }
    layers.bursts_ns += nanos_since(start);
    layers.bursts += packets.len() as u64;

    // Chain order: a packet a vNF drops goes no further.
    let mut forward = vec![true; packets.len()];
    for (slot, (kind, _)) in NF_KINDS.into_iter().enumerate() {
        let mut nf = build_kind(kind);
        let mut calls = 0u64;
        let start = Instant::now();
        for ((at, packet), forward) in packets.iter_mut().zip(forward.iter_mut()) {
            if *forward {
                *forward = nf.process(packet, &NfContext::at(*at)).is_forward();
                calls += 1;
            }
        }
        layers.nf_ns[slot] += nanos_since(start);
        layers.nf_calls[slot] += calls;
    }
    let arrivals = packets.iter().map(|(at, _)| *at).collect();
    drop(packets);

    let mut runtime = ChainRuntime::new(spec.chain, &spec.placement, spec.runtime)?;
    let mut synth = TraceSynthesizer::new(spec.trace);
    let start = Instant::now();
    layers.runtime_pkts += runtime.run_until(&mut synth, scenario.horizon());
    layers.runtime_ns += nanos_since(start);
    black_box(runtime.events_scheduled());
    Ok(arrivals)
}

/// Replays the fleet queue's arrival sequencing: each server keeps one
/// arrival scheduled, and popping it schedules that server's next one.
fn replay_events(arrivals: &[Vec<SimTime>], layers: &mut Layers) {
    let mut queue = EventQueue::new();
    let mut next = vec![1usize; arrivals.len()];
    let mut pops = 0u64;
    let start = Instant::now();
    for (server, times) in arrivals.iter().enumerate() {
        if let Some(&at) = times.first() {
            queue.schedule(at, server);
        }
    }
    while let Some((_, server)) = queue.pop() {
        pops += 1;
        if let Some(&at) = arrivals[server].get(next[server]) {
            next[server] += 1;
            queue.schedule(at, server);
        }
    }
    layers.events_ns += nanos_since(start);
    layers.events += pops;
}
