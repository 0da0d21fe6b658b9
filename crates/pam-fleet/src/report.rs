//! Machine-readable fleet run reports.
//!
//! Everything here holds only scalars and `Vec`s (never maps), so
//! `serde_json::to_string` of the same run is byte-identical across replays
//! — the property both the determinism tests and the CI perf gate rely on.
//! Fields are emitted in declaration order; new fields are appended at the
//! end.

use serde::{Deserialize, Serialize};

/// Per-server outcome of a fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerReport {
    /// The server's fleet index.
    pub server: u64,
    /// Packets injected at this server (home and re-steered).
    pub injected: u64,
    /// Packets delivered end to end.
    pub delivered: u64,
    /// Packets dropped by device overload.
    pub drops_overload: u64,
    /// Packets dropped by vNF policy verdicts.
    pub drops_policy: u64,
    /// Packets dropped during migration blackouts.
    pub drops_migration: u64,
    /// Median end-to-end latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile end-to-end latency, microseconds.
    pub p99_us: f64,
    /// Mean end-to-end latency, microseconds.
    pub mean_us: f64,
    /// Delivered throughput over the run, Gbps.
    pub throughput_gbps: f64,
    /// Live migrations executed on this server.
    pub migrations: u64,
    /// Total migration-blackout time on this server, microseconds.
    pub blackout_us: f64,
    /// Fraction of this server's flows spilled elsewhere at run end.
    pub spill_fraction: f64,
    /// Migrations rolled back before handover on this server (includes
    /// fault-injected target crashes).
    pub aborted_migrations: u64,
    /// Times this server crashed under the fault plan.
    pub crashes: u64,
    /// Times this server recovered and re-admitted behind the warm-up guard.
    pub recoveries: u64,
}

/// Fleet-wide aggregates (latency quantiles merged across all servers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetTotals {
    /// Packets injected fleet-wide.
    pub injected: u64,
    /// Packets delivered fleet-wide.
    pub delivered: u64,
    /// Overload drops fleet-wide.
    pub drops_overload: u64,
    /// Policy drops fleet-wide.
    pub drops_policy: u64,
    /// Migration-blackout drops fleet-wide.
    pub drops_migration: u64,
    /// Median latency over every delivered packet, microseconds.
    pub p50_us: f64,
    /// 99th-percentile latency over every delivered packet, microseconds.
    pub p99_us: f64,
    /// Mean latency over every delivered packet, microseconds.
    pub mean_us: f64,
    /// Live migrations executed fleet-wide.
    pub migrations: u64,
    /// Scale-out actions (spill fraction raised).
    pub scale_outs: u64,
    /// Scale-in actions (spill fraction lowered).
    pub scale_ins: u64,
    /// Scale-outs refused because no recipient had headroom.
    pub scale_out_blocked: u64,
    /// Total migration-blackout time fleet-wide, microseconds.
    pub blackout_us: f64,
    /// Packets sent to a server other than their home server.
    pub resteered_packets: u64,
    /// Control ticks the fleet controller ran.
    pub control_steps: u64,
    /// Per-flow state entries handed to scale-out recipients.
    pub handoff_flows: u64,
    /// Bytes of state shipped over the inter-server link.
    pub handoff_bytes: u64,
    /// Total inter-server state-transfer time (non-blocking), microseconds.
    pub handoff_us: f64,
    /// Migrations rolled back before handover fleet-wide (includes
    /// fault-injected target crashes).
    pub aborted_migrations: u64,
    /// Server crashes injected by the fault plan.
    pub server_crashes: u64,
    /// Server recoveries completed under the fault plan.
    pub server_recoveries: u64,
    /// Packets black-holed at a crashed server's ingress.
    pub fault_drops: u64,
}

/// The full report of one fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Per-server outcomes, in server-id order.
    pub servers: Vec<ServerReport>,
    /// Fleet-wide aggregates.
    pub totals: FleetTotals,
}

impl FleetReport {
    /// The fleet-wide delivery ratio (`1.0` when nothing was offered).
    pub fn delivery_ratio(&self) -> f64 {
        if self.totals.injected == 0 {
            1.0
        } else {
            self.totals.delivered as f64 / self.totals.injected as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use serde::value::{Map, Value};

    use super::*;

    fn sample_server() -> ServerReport {
        ServerReport {
            server: 0,
            injected: 100,
            delivered: 90,
            drops_overload: 10,
            drops_policy: 0,
            drops_migration: 0,
            p50_us: 12.5,
            p99_us: 80.0,
            mean_us: 20.0,
            throughput_gbps: 1.5,
            migrations: 1,
            blackout_us: 700.0,
            spill_fraction: 0.25,
            aborted_migrations: 2,
            crashes: 1,
            recoveries: 1,
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = FleetReport {
            servers: vec![sample_server()],
            totals: FleetTotals {
                injected: 100,
                delivered: 90,
                drops_overload: 10,
                p50_us: 12.5,
                p99_us: 80.0,
                mean_us: 20.0,
                migrations: 1,
                scale_outs: 1,
                blackout_us: 700.0,
                resteered_packets: 20,
                control_steps: 8,
                aborted_migrations: 2,
                server_crashes: 1,
                server_recoveries: 1,
                fault_drops: 7,
                ..FleetTotals::default()
            },
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: FleetReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!((report.delivery_ratio() - 0.9).abs() < 1e-12);
    }

    /// The serialised object with the named keys stripped — stands in for a
    /// report written before those fields existed.
    fn without(value: &Value, keys: &[&str]) -> Value {
        let Value::Object(map) = value else {
            panic!("reports serialise as objects");
        };
        Value::Object(Map::from_pairs(
            map.iter()
                .filter(|(k, _)| !keys.contains(&k.as_str()))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        ))
    }

    #[test]
    fn pre_fault_reports_are_refused() {
        // A report without the fault-injection counters is refused; the
        // error names the missing counter instead of reading it as zero.
        let server = without(&sample_server().to_value(), &["crashes"]);
        let err = ServerReport::from_value(&server).unwrap_err().to_string();
        assert!(err.contains("`crashes`"), "{err}");

        let totals = without(&FleetTotals::default().to_value(), &["fault_drops"]);
        let err = FleetTotals::from_value(&totals).unwrap_err().to_string();
        assert!(err.contains("`fault_drops`"), "{err}");
    }

    #[test]
    fn empty_report_has_unit_delivery_ratio() {
        let report = FleetReport {
            servers: vec![],
            totals: FleetTotals::default(),
        };
        assert_eq!(report.delivery_ratio(), 1.0);
    }
}
