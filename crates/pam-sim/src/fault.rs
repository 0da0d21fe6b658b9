//! Deterministic fault injection: seeded schedules of crashes, link flaps
//! and capacity swings.
//!
//! A [`FaultPlan`] is a time-sorted schedule of [`FaultEvent`]s. It does
//! nothing by itself — the consumer (the fleet controller in `pam-fleet`)
//! schedules one queue event per plan entry on its own deterministic
//! [`crate::EventQueue`], so faults interleave with arrivals and control
//! ticks in a single replayable `(time, seq)` order and the run stays
//! byte-identical at any shard or job count.
//!
//! The fault shapes follow the volatility families named in the roadmap:
//! fail-stop server crashes with explicit recovery, mmWave-style link
//! blockage transients ([`FaultKind::LinkFlap`]) and AQM/WiFi-style capacity
//! swings ([`FaultKind::CapacitySwing`]). Plans are either written out
//! explicitly (the failure scenarios in `pam-experiments` do this, so the
//! schedule is part of the scenario definition) or generated from a seed via
//! [`FaultPlan::generate`].
//!
//! # Determinism
//!
//! Nothing here reads a clock or iterates a hash map: the plan is a sorted
//! `Vec` and the generator draws from the workspace's seeded [`SimRng`].

use pam_types::{ServerId, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::rng::SimRng;

/// One kind of injected fault, aimed at one server of a fleet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Fail-stop crash of the server's data plane: any staged migration
    /// target is discarded through the protocol's `TargetCrash` arc and the
    /// server stops accepting traffic until a matching
    /// [`FaultKind::ServerRecover`].
    ServerCrash {
        /// The server that crashes.
        server: ServerId,
    },
    /// The crashed server comes back. Consumers re-admit it behind a
    /// warm-up guard before it may receive spilled flows again.
    ServerRecover {
        /// The server that recovers.
        server: ServerId,
    },
    /// The server's PCIe/interconnect link goes dark for `down_for`
    /// (mmWave-style blockage transient): in-flight fair-share transfers
    /// stall and re-plan; the FIFO watermark is cleared at recovery so no
    /// phantom serialisation delay survives the outage.
    LinkFlap {
        /// The server whose link flaps.
        server: ServerId,
        /// How long the link stays dark.
        down_for: SimDuration,
    },
    /// The server's link capacity swings to `factor` × nominal for `period`
    /// (AQM/WiFi-style throughput dynamics), then restores. `factor` must be
    /// positive — a full outage is a [`FaultKind::LinkFlap`].
    CapacitySwing {
        /// The server whose link degrades.
        server: ServerId,
        /// Multiplier on the nominal bandwidth while the swing is active.
        factor: f64,
        /// How long the degraded capacity lasts.
        period: SimDuration,
    },
}

impl FaultKind {
    /// The server the fault is aimed at.
    pub fn server(&self) -> ServerId {
        match *self {
            FaultKind::ServerCrash { server }
            | FaultKind::ServerRecover { server }
            | FaultKind::LinkFlap { server, .. }
            | FaultKind::CapacitySwing { server, .. } => server,
        }
    }

    /// A short stable tag for reports.
    pub fn tag(&self) -> &'static str {
        match self {
            FaultKind::ServerCrash { .. } => "server_crash",
            FaultKind::ServerRecover { .. } => "server_recover",
            FaultKind::LinkFlap { .. } => "link_flap",
            FaultKind::CapacitySwing { .. } => "capacity_swing",
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the fault strikes.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// Tuning for [`FaultPlan::generate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlanConfig {
    /// Crash/recover pairs to inject.
    pub crashes: usize,
    /// Link flaps to inject.
    pub flaps: usize,
    /// Capacity swings to inject.
    pub swings: usize,
    /// How long a crashed server stays down before its recovery event.
    pub downtime: SimDuration,
    /// How long a flap keeps the link dark.
    pub flap_down_for: SimDuration,
    /// Duration of each capacity swing.
    pub swing_period: SimDuration,
    /// Capacity multiplier drawn uniformly from `[swing_floor, 1.0)`.
    pub swing_floor: f64,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig {
            crashes: 1,
            flaps: 2,
            swings: 1,
            downtime: SimDuration::from_millis(4),
            flap_down_for: SimDuration::from_micros(600),
            swing_period: SimDuration::from_millis(2),
            swing_floor: 0.25,
        }
    }
}

/// A time-sorted, validated schedule of faults.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Builds a plan from arbitrary events; they are stably sorted by time,
    /// so equal-time faults keep their authoring order.
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|event| event.at);
        FaultPlan { events }
    }

    /// The schedule, in ascending time order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Checks the plan against a fleet of `servers` servers: events must be
    /// in time order (a deserialised plan skips [`FaultPlan::new`]'s sort),
    /// every target index must exist, every duration must be positive, every
    /// swing factor must be positive (full outages are flaps), and every
    /// crash must come before its server's next recovery (crash/recover
    /// events per server must alternate, starting with a crash).
    pub fn validate(&self, servers: usize) -> Result<(), String> {
        if let Some(pair) = self.events.windows(2).find(|pair| pair[1].at < pair[0].at) {
            return Err(format!(
                "fault at {} is listed after a later fault at {}",
                pair[1].at, pair[0].at
            ));
        }
        let mut down = vec![false; servers];
        for event in &self.events {
            let index = event.kind.server().index();
            if index >= servers {
                return Err(format!(
                    "fault at {} targets server {index} of a {servers}-server fleet",
                    event.at
                ));
            }
            match event.kind {
                FaultKind::ServerCrash { .. } => {
                    if down[index] {
                        return Err(format!("server {index} crashes while already down"));
                    }
                    down[index] = true;
                }
                FaultKind::ServerRecover { .. } => {
                    if !down[index] {
                        return Err(format!("server {index} recovers without a crash"));
                    }
                    down[index] = false;
                }
                FaultKind::LinkFlap { down_for, .. } => {
                    if down_for.is_zero() {
                        return Err("link flap with zero down_for".to_owned());
                    }
                }
                FaultKind::CapacitySwing { factor, period, .. } => {
                    // NaN must be rejected too, hence not `factor <= 0.0`.
                    if factor.is_nan() || factor <= 0.0 {
                        return Err(format!(
                            "capacity swing factor {factor} must be positive (use a link flap)"
                        ));
                    }
                    if period.is_zero() {
                        return Err("capacity swing with zero period".to_owned());
                    }
                }
            }
        }
        Ok(())
    }

    /// Generates a seeded random plan over `servers` servers within
    /// `[0, horizon)`. The same `(seed, servers, horizon, config)` always
    /// yields the same plan; crash/recover pairs never overlap on one server
    /// and always validate.
    pub fn generate(
        seed: u64,
        servers: usize,
        horizon: SimDuration,
        config: &FaultPlanConfig,
    ) -> Self {
        let mut rng = SimRng::seed_from(seed).fork(0xFA17);
        let mut events = Vec::new();
        let horizon_ns = horizon.as_nanos();
        if servers == 0 || horizon_ns == 0 {
            return FaultPlan::new(events);
        }
        // Crash/recover pairs: pick disjoint per-server downtime windows by
        // never crashing a server that is still down.
        let mut down_until = vec![SimTime::ZERO; servers];
        for _ in 0..config.crashes {
            let server = rng.index(servers);
            let at = SimTime::from_nanos(rng.int_range(0, horizon_ns.saturating_sub(1)));
            if at < down_until[server] {
                continue; // still down at the drawn instant: skip this crash
            }
            let recover_at = at + config.downtime;
            down_until[server] = recover_at;
            events.push(FaultEvent {
                at,
                kind: FaultKind::ServerCrash {
                    server: ServerId::from(server),
                },
            });
            events.push(FaultEvent {
                at: recover_at,
                kind: FaultKind::ServerRecover {
                    server: ServerId::from(server),
                },
            });
        }
        for _ in 0..config.flaps {
            let server = ServerId::from(rng.index(servers));
            let at = SimTime::from_nanos(rng.int_range(0, horizon_ns.saturating_sub(1)));
            events.push(FaultEvent {
                at,
                kind: FaultKind::LinkFlap {
                    server,
                    down_for: config.flap_down_for,
                },
            });
        }
        for _ in 0..config.swings {
            let server = ServerId::from(rng.index(servers));
            let at = SimTime::from_nanos(rng.int_range(0, horizon_ns.saturating_sub(1)));
            let factor = rng.uniform_range(config.swing_floor.max(0.01), 1.0);
            events.push(FaultEvent {
                at,
                kind: FaultKind::CapacitySwing {
                    server,
                    factor,
                    period: config.swing_period,
                },
            });
        }
        FaultPlan::new(events)
    }
}

#[cfg(test)]
mod tests {
    use serde::value::{Map, Value};

    use super::*;

    fn crash(at_us: u64, server: usize) -> FaultEvent {
        FaultEvent {
            at: SimTime::from_micros(at_us),
            kind: FaultKind::ServerCrash {
                server: ServerId::from(server),
            },
        }
    }

    fn recover(at_us: u64, server: usize) -> FaultEvent {
        FaultEvent {
            at: SimTime::from_micros(at_us),
            kind: FaultKind::ServerRecover {
                server: ServerId::from(server),
            },
        }
    }

    #[test]
    fn plans_sort_stably_by_time() {
        let plan = FaultPlan::new(vec![recover(300, 0), crash(100, 0)]);
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
        assert_eq!(plan.events()[0].at, SimTime::from_micros(100));
        assert_eq!(plan.events()[1].at, SimTime::from_micros(300));
        assert!(plan.validate(1).is_ok());
    }

    #[test]
    fn validate_rejects_bad_targets_and_orders() {
        assert!(FaultPlan::new(vec![crash(1, 5)]).validate(2).is_err());
        assert!(FaultPlan::new(vec![recover(1, 0)]).validate(2).is_err());
        assert!(FaultPlan::new(vec![crash(1, 0), crash(2, 0)])
            .validate(2)
            .is_err());
        assert!(FaultPlan::new(vec![FaultEvent {
            at: SimTime::ZERO,
            kind: FaultKind::LinkFlap {
                server: ServerId::new(0),
                down_for: SimDuration::ZERO,
            },
        }])
        .validate(1)
        .is_err());
        assert!(FaultPlan::new(vec![FaultEvent {
            at: SimTime::ZERO,
            kind: FaultKind::CapacitySwing {
                server: ServerId::new(0),
                factor: 0.0,
                period: SimDuration::from_micros(1),
            },
        }])
        .validate(1)
        .is_err());
        let good = FaultPlan::new(vec![crash(1, 0), recover(2, 0), crash(3, 0), recover(4, 0)]);
        assert!(good.validate(1).is_ok());
    }

    #[test]
    fn generated_plans_are_seed_deterministic_and_valid() {
        let config = FaultPlanConfig {
            crashes: 3,
            flaps: 4,
            swings: 3,
            ..FaultPlanConfig::default()
        };
        let a = FaultPlan::generate(42, 4, SimDuration::from_millis(30), &config);
        let b = FaultPlan::generate(42, 4, SimDuration::from_millis(30), &config);
        assert_eq!(a, b, "same seed must generate the same plan");
        assert!(a.validate(4).is_ok());
        assert!(!a.is_empty());
        let c = FaultPlan::generate(43, 4, SimDuration::from_millis(30), &config);
        assert_ne!(a, c, "different seeds should differ");
        // Degenerate inputs are fine.
        assert!(FaultPlan::generate(1, 0, SimDuration::from_millis(1), &config).is_empty());
        assert!(FaultPlan::generate(1, 4, SimDuration::ZERO, &config).is_empty());
    }

    #[test]
    fn plans_round_trip_through_serde() {
        let plan = FaultPlan::new(vec![
            crash(100, 1),
            recover(5_000, 1),
            FaultEvent {
                at: SimTime::from_micros(700),
                kind: FaultKind::LinkFlap {
                    server: ServerId::new(0),
                    down_for: SimDuration::from_micros(300),
                },
            },
            FaultEvent {
                at: SimTime::from_micros(900),
                kind: FaultKind::CapacitySwing {
                    server: ServerId::new(2),
                    factor: 0.4,
                    period: SimDuration::from_millis(2),
                },
            },
        ]);
        let value = plan.to_value();
        let back = FaultPlan::from_value(&value).unwrap();
        assert_eq!(back, plan);
        // An empty object is refused, not read as an empty plan.
        let err = FaultPlan::from_value(&Value::Object(Map::new())).unwrap_err();
        assert!(err.to_string().contains("`events`"), "{err}");
        assert!(FaultPlan::from_value(&Value::Bool(true)).is_err());
    }

    #[test]
    fn deserialised_plans_keep_their_order_and_validate_rejects_it() {
        // The derived deserialiser bypasses `FaultPlan::new`'s sort, so an
        // out-of-order plan parses as written and `validate` refuses it.
        let mut map = Map::new();
        let events = vec![recover(300, 0).to_value(), crash(100, 0).to_value()];
        map.insert("events", Value::Array(events));
        let plan = FaultPlan::from_value(&Value::Object(map)).unwrap();
        assert_eq!(plan.events()[0].at, SimTime::from_micros(300));
        let err = plan.validate(1).unwrap_err();
        assert!(err.contains("after a later fault"), "{err}");
    }

    #[test]
    fn kind_accessors_cover_every_variant() {
        let kinds = [
            FaultKind::ServerCrash {
                server: ServerId::new(3),
            },
            FaultKind::ServerRecover {
                server: ServerId::new(3),
            },
            FaultKind::LinkFlap {
                server: ServerId::new(3),
                down_for: SimDuration::from_micros(1),
            },
            FaultKind::CapacitySwing {
                server: ServerId::new(3),
                factor: 0.5,
                period: SimDuration::from_micros(1),
            },
        ];
        let tags: Vec<_> = kinds.iter().map(FaultKind::tag).collect();
        assert_eq!(
            tags,
            [
                "server_crash",
                "server_recover",
                "link_flap",
                "capacity_swing"
            ]
        );
        for kind in kinds {
            assert_eq!(kind.server(), ServerId::new(3));
        }
    }
}
