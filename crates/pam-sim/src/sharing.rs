//! Fair-sharing link throughput model.
//!
//! The FIFO-fixed [`crate::PcieLink`] charges every transfer a fixed setup +
//! per-byte cost regardless of how many transfers are concurrently in flight,
//! so a pre-copy dirty round never actually slows the foreground datapath
//! down. This module models the contention the paper's testbed really has:
//! every *activity* on a link direction (a DMA burst, a migration round, a
//! scale-out handoff) drains concurrently, splitting the link bandwidth via a
//! pluggable [`DegradationFn`] — the fair `throughput / n` split by default,
//! in the style of dslab's `throughput_sharing` model.
//!
//! # Determinism
//!
//! The engine keeps all state in bit-space `f64` remainders plus an integer
//! nanosecond clock, and advances in *segments*: under any degradation
//! function every in-flight activity drains at the same per-activity rate, so
//! when the minimum-remainder activity completes, **all** activities have
//! lost exactly that minimum remainder. Draining therefore subtracts exact
//! bit counts — no accumulated floating-point time — and segment durations
//! are rounded with the very same expression as
//! [`SimDuration::transmission`], which makes a single uncontended activity
//! byte-identical to the FIFO-fixed model.
//!
//! Completion instants are *re-planned* rather than predicted: callers get a
//! provisional ETA from [`FairShareLink::begin`], schedule an event there,
//! and [`FairShareLink::poll`] at the event either confirms completion or
//! hands back a later ETA to reschedule at. New arrivals only push ETAs out
//! and completions only pull them in, so every reschedule corresponds to at
//! least one new arrival and the re-planning loop terminates.

use pam_types::{ByteSize, Gbps, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// How the aggregate capacity of a shared link degrades with the number of
/// concurrent activities.
///
/// `total_factor(n)` scales the *aggregate* bandwidth available when `n`
/// activities share the link; each activity then receives an equal
/// `bandwidth * total_factor(n) / n` slice. `total_factor(1)` is always
/// `1.0`, so a lone activity sees the full nominal link rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DegradationFn {
    /// Ideal fair sharing: the aggregate stays at the nominal bandwidth, so
    /// `n` activities each get `bandwidth / n` (dslab's default model).
    Fair,
    /// Fair sharing with a per-extra-activity aggregate penalty: `n`
    /// activities share `bandwidth / (1 + penalty * (n - 1))`, modelling
    /// per-transfer DMA engine overhead (doorbells, descriptor fetches).
    LinearPenalty {
        /// Fractional aggregate capacity lost per concurrent activity beyond
        /// the first; `0.05` means 5% per extra transfer.
        penalty: f64,
    },
}

impl DegradationFn {
    /// The aggregate-capacity factor for `n` concurrent activities.
    pub fn total_factor(self, n: usize) -> f64 {
        if n <= 1 {
            return 1.0;
        }
        match self {
            DegradationFn::Fair => 1.0,
            DegradationFn::LinearPenalty { penalty } => {
                1.0 / (1.0 + penalty.max(0.0) * (n as f64 - 1.0))
            }
        }
    }
}

/// Which throughput model a link uses.
///
/// [`LinkModel::FifoFixed`] is the seed behaviour and the default — every
/// committed baseline (`BENCH_baseline.json`) is pinned to it.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum LinkModel {
    /// The original model: fixed setup + per-byte cost, FIFO delivery, no
    /// interaction between concurrent transfers.
    #[default]
    FifoFixed,
    /// Contention-aware fair sharing: concurrent activities split the link
    /// bandwidth via the embedded [`DegradationFn`].
    FairShare(DegradationFn),
}

impl LinkModel {
    /// The fair-share model with the ideal `throughput / n` split.
    pub const fn fair_share() -> Self {
        LinkModel::FairShare(DegradationFn::Fair)
    }

    /// True when this is a fair-sharing model.
    pub fn is_fair_share(self) -> bool {
        matches!(self, LinkModel::FairShare(_))
    }

    /// A short stable name for reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            LinkModel::FifoFixed => "fifo_fixed",
            LinkModel::FairShare(_) => "fair_share",
        }
    }
}

/// Handle to an in-flight activity on a [`FairShareLink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActivityId(u64);

/// Result of [`FairShareLink::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharedTransfer {
    /// The activity has fully drained; its bytes are delivered.
    Complete,
    /// Still draining; the caller should reschedule its completion event at
    /// the contained (strictly later) ETA and poll again there.
    InFlight(SimTime),
}

#[derive(Debug, Clone)]
struct Activity {
    id: u64,
    /// Bits left to serialise. Exact at segment boundaries: every completed
    /// segment subtracts the completing activity's remainder from all peers.
    remaining: f64,
    /// Bits admitted at begin time, for delivered-byte accounting.
    injected: f64,
}

/// Counters of a [`FairShareLink`] direction.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FairShareStats {
    /// Activities admitted via [`FairShareLink::begin`].
    pub started: u64,
    /// Activities fully drained.
    pub completed: u64,
    /// Total bits delivered by completed activities.
    pub delivered_bits: f64,
}

/// A single link direction whose concurrent activities share bandwidth.
///
/// The engine is deterministic and allocation-light: activities live in a
/// small `Vec` ordered by admission, and all draining arithmetic happens in
/// bit-space (see the module docs). Callers drive it with event times from
/// the simulation clock; `advance` clamps backwards time, so replaying the
/// same event sequence reproduces the same state bit-for-bit.
#[derive(Debug, Clone)]
pub struct FairShareLink {
    bandwidth: Gbps,
    degradation: DegradationFn,
    clock: SimTime,
    next_id: u64,
    activities: Vec<Activity>,
    stats: FairShareStats,
    /// No draining happens before this instant (a link flap / outage):
    /// in-flight activities stall and their re-planned ETAs move past the
    /// outage end. [`SimTime::ZERO`] means no outage.
    outage_until: SimTime,
    /// Multiplier on the nominal bandwidth (a capacity swing); clamped to a
    /// small positive floor so the segment walk always terminates — a full
    /// outage is expressed via [`FairShareLink::set_outage`] instead.
    capacity_factor: f64,
}

/// The floor [`FairShareLink::set_capacity_factor`] clamps to: low enough to
/// model a crippled link, high enough that ETAs stay finite.
pub const MIN_CAPACITY_FACTOR: f64 = 1e-6;

/// Rounds a bit count at a rate into integer nanoseconds with *exactly* the
/// expression [`SimDuration::transmission`] uses, so a lone fair-share
/// activity serialises in the same integer duration as the FIFO model.
fn serialisation_ns(bits: f64, gbps: f64) -> u64 {
    if gbps <= 0.0 {
        return 0;
    }
    let secs = bits / (gbps * 1e9);
    (secs.max(0.0) * 1e9).round() as u64
}

impl FairShareLink {
    /// Creates an idle shared link direction.
    pub fn new(bandwidth: Gbps, degradation: DegradationFn) -> Self {
        FairShareLink {
            bandwidth,
            degradation,
            clock: SimTime::ZERO,
            next_id: 0,
            activities: Vec::new(),
            stats: FairShareStats::default(),
            outage_until: SimTime::ZERO,
            capacity_factor: 1.0,
        }
    }

    /// Declares an outage: no bits drain between `now` and `until`.
    /// In-flight activities are kept (not dropped) — their next
    /// [`FairShareLink::poll`] re-plans a completion past the outage end, so
    /// a flap retroactively stretches every transfer it interrupts.
    /// Overlapping outages extend each other (the later end wins).
    pub fn set_outage(&mut self, now: SimTime, until: SimTime) {
        self.advance(now);
        self.outage_until = self.outage_until.max(until.max(now));
    }

    /// Scales the link's usable bandwidth by `factor` from `now` on (an
    /// AQM/WiFi-style capacity swing). Bits already drained are untouched;
    /// the remainder of every in-flight activity drains at the new rate and
    /// re-plans on its next [`FairShareLink::poll`]. `factor` is clamped to
    /// a small positive floor — use [`FairShareLink::set_outage`] for a full
    /// outage. `1.0` restores the nominal rate.
    pub fn set_capacity_factor(&mut self, now: SimTime, factor: f64) {
        self.advance(now);
        self.capacity_factor = factor.max(MIN_CAPACITY_FACTOR);
    }

    /// The capacity multiplier currently in force.
    pub fn capacity_factor(&self) -> f64 {
        self.capacity_factor
    }

    /// Number of activities currently in flight.
    pub fn in_flight(&self) -> usize {
        self.activities.len()
    }

    /// The engine's counters.
    pub fn stats(&self) -> FairShareStats {
        self.stats
    }

    /// The per-activity drain rate (bits per nanosecond) with `n` activities,
    /// including any capacity swing in force.
    fn per_activity_rate(&self, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        self.bandwidth.as_gbps() * self.capacity_factor * self.degradation.total_factor(n)
            / n as f64
    }

    /// Index of the activity that completes next: smallest remainder, ties
    /// broken by admission id so the order is deterministic.
    fn next_to_finish(activities: &[Activity]) -> usize {
        let mut best = 0;
        for (i, a) in activities.iter().enumerate().skip(1) {
            let b = &activities[best];
            if a.remaining < b.remaining || (a.remaining == b.remaining && a.id < b.id) {
                best = i;
            }
        }
        best
    }

    /// Drains all activities up to `now`. Backwards time is a no-op; time
    /// spent inside an outage drains nothing.
    pub fn advance(&mut self, now: SimTime) {
        while self.clock < now {
            if self.clock < self.outage_until {
                // The link is dark: skip to the outage end (or `now`)
                // without draining a bit.
                self.clock = self.outage_until.min(now);
                continue;
            }
            if self.activities.is_empty() {
                self.clock = now;
                return;
            }
            let rate = self.per_activity_rate(self.activities.len());
            if rate <= 0.0 {
                // A zero-rate link is "infinitely fast" (pure latency),
                // matching SimDuration::transmission: everything completes
                // immediately.
                self.complete_all();
                continue;
            }
            let min_idx = Self::next_to_finish(&self.activities);
            let min_rem = self.activities[min_idx].remaining;
            let finish = self.clock + SimDuration::from_nanos(serialisation_ns(min_rem, rate));
            if finish <= now {
                // Full segment: everyone drains at the same rate, so when the
                // minimum completes, all peers have lost exactly its
                // remainder — an exact bit-space subtraction.
                self.drain_bits(min_rem);
                self.clock = finish;
            } else {
                // Partial segment up to `now`: 1 Gbps is exactly 1 bit/ns.
                let elapsed = now.duration_since(self.clock).as_nanos() as f64;
                self.drain_bits(elapsed * rate);
                self.clock = now;
            }
        }
    }

    fn drain_bits(&mut self, bits: f64) {
        let mut i = 0;
        while i < self.activities.len() {
            self.activities[i].remaining -= bits;
            if self.activities[i].remaining <= 0.0 {
                let done = self.activities.remove(i);
                self.stats.completed += 1;
                self.stats.delivered_bits += done.injected;
            } else {
                i += 1;
            }
        }
    }

    fn complete_all(&mut self) {
        for a in self.activities.drain(..) {
            self.stats.completed += 1;
            self.stats.delivered_bits += a.injected;
        }
    }

    /// Admits `size` bytes as a new activity at `now` and returns its handle
    /// plus a *provisional* ETA: exact if no further activity arrives, and
    /// otherwise a lower bound to re-plan from via [`FairShareLink::poll`].
    pub fn begin(&mut self, now: SimTime, size: ByteSize) -> (ActivityId, SimTime) {
        self.advance(now);
        let id = self.next_id;
        self.next_id += 1;
        self.stats.started += 1;
        let bits = size.as_bits() as f64;
        if bits <= 0.0 || self.bandwidth.as_gbps() <= 0.0 {
            // Zero bytes, or a zero-rate (pure-latency) link: done instantly.
            self.stats.completed += 1;
            self.stats.delivered_bits += bits.max(0.0);
            return (ActivityId(id), now);
        }
        self.activities.push(Activity {
            id,
            remaining: bits,
            injected: bits,
        });
        let eta = self.projected_eta(id).unwrap_or(now);
        (ActivityId(id), eta)
    }

    /// Advances to `now` and reports whether `id` has completed; if not, the
    /// returned ETA is strictly later than `now` and the caller should
    /// reschedule there.
    pub fn poll(&mut self, now: SimTime, id: ActivityId) -> SharedTransfer {
        self.advance(now);
        if !self.activities.iter().any(|a| a.id == id.0) {
            return SharedTransfer::Complete;
        }
        match self.projected_eta(id.0) {
            Some(eta) if eta > now => SharedTransfer::InFlight(eta),
            _ => {
                // Rounding drift can project an ETA at (never before) `now`;
                // force the completion so the re-planning loop terminates.
                if let Some(pos) = self.activities.iter().position(|a| a.id == id.0) {
                    let done = self.activities.remove(pos);
                    self.stats.completed += 1;
                    self.stats.delivered_bits += done.injected;
                }
                SharedTransfer::Complete
            }
        }
    }

    /// The completion instant of `id` assuming no further arrivals — the same
    /// segment walk as [`FairShareLink::advance`], run hypothetically, so the
    /// projection and the real drain agree bit-for-bit.
    fn projected_eta(&self, id: u64) -> Option<SimTime> {
        if !self.activities.iter().any(|a| a.id == id) {
            return None;
        }
        let mut acts = self.activities.clone();
        // During an outage nothing drains until the outage end.
        let mut clock = self.clock.max(self.outage_until);
        loop {
            let rate = self.per_activity_rate(acts.len());
            if rate <= 0.0 {
                return Some(clock);
            }
            let min_idx = Self::next_to_finish(&acts);
            let min_rem = acts[min_idx].remaining;
            let finish = clock + SimDuration::from_nanos(serialisation_ns(min_rem, rate));
            let mut finished_target = false;
            acts.retain_mut(|a| {
                a.remaining -= min_rem;
                if a.remaining <= 0.0 {
                    if a.id == id {
                        finished_target = true;
                    }
                    false
                } else {
                    true
                }
            });
            clock = finish;
            if finished_target {
                return Some(clock);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn link(gbps: f64) -> FairShareLink {
        FairShareLink::new(Gbps::new(gbps), DegradationFn::Fair)
    }

    #[test]
    fn lone_activity_matches_fifo_transmission_exactly() {
        let mut l = link(63.0);
        let size = ByteSize::bytes(1_500);
        let now = SimTime::from_micros(10);
        let (_, eta) = l.begin(now, size);
        let fifo = now + SimDuration::transmission(size, Gbps::new(63.0));
        assert_eq!(eta, fifo);
        assert_eq!(l.poll(eta, ActivityId(0)), SharedTransfer::Complete);
    }

    #[test]
    fn two_equal_activities_each_take_twice_as_long() {
        let mut l = link(10.0);
        let size = ByteSize::bytes(1_250); // 10_000 bits = 1 us solo at 10 Gbps
        let (a, eta_a) = l.begin(SimTime::ZERO, size);
        assert_eq!(eta_a, SimTime::from_micros(1));
        let (b, eta_b) = l.begin(SimTime::ZERO, size);
        // Shared: each drains at 5 Gbps, both finish at 2 us.
        assert_eq!(eta_b, SimTime::from_micros(2));
        // The first activity's committed ETA is stale; re-planning finds the
        // pushed-out completion.
        match l.poll(eta_a, a) {
            SharedTransfer::InFlight(eta) => assert_eq!(eta, SimTime::from_micros(2)),
            SharedTransfer::Complete => panic!("activity finished early under contention"),
        }
        assert_eq!(l.poll(SimTime::from_micros(2), a), SharedTransfer::Complete);
        assert_eq!(l.poll(SimTime::from_micros(2), b), SharedTransfer::Complete);
    }

    #[test]
    fn late_arrival_slows_only_the_remainder() {
        let mut l = link(10.0);
        // A: 20_000 bits, solo 2 us. B arrives at 1 us with 5_000 bits.
        let (a, _) = l.begin(SimTime::ZERO, ByteSize::bytes(2_500));
        let (b, eta_b) = l.begin(SimTime::from_micros(1), ByteSize::bytes(625));
        // From 1 us both drain at 5 Gbps. B (5_000 bits) finishes at 2 us.
        assert_eq!(eta_b, SimTime::from_micros(2));
        // A has 10_000 bits left at 1 us: 5_000 drain shared by 2 us, the
        // last 5_000 solo at 10 Gbps -> 2.5 us.
        match l.poll(SimTime::from_micros(1), a) {
            SharedTransfer::InFlight(eta) => assert_eq!(eta, SimTime::from_nanos(2_500)),
            SharedTransfer::Complete => panic!("A cannot be done at 1 us"),
        }
        assert_eq!(
            l.poll(SimTime::from_nanos(2_500), a),
            SharedTransfer::Complete
        );
        assert_eq!(
            l.poll(SimTime::from_nanos(2_500), b),
            SharedTransfer::Complete
        );
    }

    #[test]
    fn linear_penalty_degrades_aggregate_capacity() {
        let d = DegradationFn::LinearPenalty { penalty: 0.25 };
        assert_eq!(d.total_factor(1), 1.0);
        assert!((d.total_factor(2) - 0.8).abs() < 1e-12);
        let mut l = FairShareLink::new(Gbps::new(10.0), d);
        let size = ByteSize::bytes(1_250); // 1 us solo
        l.begin(SimTime::ZERO, size);
        let (_, eta) = l.begin(SimTime::ZERO, size);
        // Aggregate 8 Gbps, each 4 Gbps: 10_000 bits take 2.5 us.
        assert_eq!(eta, SimTime::from_nanos(2_500));
    }

    #[test]
    fn zero_size_and_zero_rate_complete_instantly() {
        let mut l = link(10.0);
        let now = SimTime::from_micros(3);
        let (id, eta) = l.begin(now, ByteSize::ZERO);
        assert_eq!(eta, now);
        assert_eq!(l.poll(now, id), SharedTransfer::Complete);

        let mut pure_latency = link(0.0);
        let (id, eta) = pure_latency.begin(now, ByteSize::mib(1));
        assert_eq!(eta, now);
        assert_eq!(pure_latency.poll(now, id), SharedTransfer::Complete);
    }

    #[test]
    fn backwards_advance_is_a_no_op() {
        let mut l = link(10.0);
        let (id, eta) = l.begin(SimTime::from_micros(5), ByteSize::bytes(1_250));
        l.advance(SimTime::ZERO);
        assert_eq!(l.in_flight(), 1);
        assert_eq!(l.poll(eta, id), SharedTransfer::Complete);
    }

    #[test]
    fn outage_stalls_and_replans_an_in_flight_activity() {
        let mut l = link(10.0);
        // 10_000 bits: solo ETA 1 us.
        let (id, eta) = l.begin(SimTime::ZERO, ByteSize::bytes(1_250));
        assert_eq!(eta, SimTime::from_micros(1));
        // The link goes dark from 0.5 us to 3 us: half the bits drained, the
        // other half resumes at 3 us and takes another 0.5 us.
        l.set_outage(SimTime::from_nanos(500), SimTime::from_micros(3));
        match l.poll(eta, id) {
            SharedTransfer::InFlight(replanned) => {
                assert_eq!(replanned, SimTime::from_nanos(3_500));
                assert_eq!(l.poll(replanned, id), SharedTransfer::Complete);
            }
            SharedTransfer::Complete => panic!("the outage must stall the transfer"),
        }
    }

    #[test]
    fn begin_during_an_outage_completes_after_it_ends() {
        let mut l = link(10.0);
        l.set_outage(SimTime::ZERO, SimTime::from_micros(5));
        let (id, eta) = l.begin(SimTime::from_micros(1), ByteSize::bytes(1_250));
        // Nothing drains before 5 us; the 1 us of serialisation follows.
        assert_eq!(eta, SimTime::from_micros(6));
        assert_eq!(l.poll(eta, id), SharedTransfer::Complete);
    }

    #[test]
    fn capacity_swing_slows_only_the_remainder_and_restores() {
        let mut l = link(10.0);
        // 20_000 bits: solo 2 us at 10 Gbps.
        let (id, eta) = l.begin(SimTime::ZERO, ByteSize::bytes(2_500));
        assert_eq!(eta, SimTime::from_micros(2));
        // At 1 us half the bits are gone; the swing halves the rate, so the
        // remaining 10_000 bits take 2 us -> completion at 3 us.
        l.set_capacity_factor(SimTime::from_micros(1), 0.5);
        assert!((l.capacity_factor() - 0.5).abs() < 1e-12);
        let replanned = match l.poll(eta, id) {
            SharedTransfer::InFlight(t) => t,
            SharedTransfer::Complete => panic!("the swing must stretch the transfer"),
        };
        assert_eq!(replanned, SimTime::from_micros(3));
        // Restoring at 2 us: 5_000 bits drained in [1us, 2us] at 5 Gbps,
        // the last 5_000 at full rate -> completion at 2.5 us.
        l.set_capacity_factor(SimTime::from_micros(2), 1.0);
        match l.poll(SimTime::from_nanos(2_500), id) {
            SharedTransfer::Complete => {}
            SharedTransfer::InFlight(t) => panic!("restored link must finish by 2.5 us, got {t}"),
        }
        // A non-positive factor clamps to the positive floor instead of
        // stalling forever (full outages use set_outage).
        l.set_capacity_factor(SimTime::from_micros(3), 0.0);
        assert!(l.capacity_factor() > 0.0);
    }

    #[test]
    fn link_model_serde_round_trips() {
        use serde::value::Value;
        use serde::{Deserialize, Serialize};
        for model in [
            LinkModel::FifoFixed,
            LinkModel::fair_share(),
            LinkModel::FairShare(DegradationFn::LinearPenalty { penalty: 0.1 }),
        ] {
            let value = model.to_value();
            let back = LinkModel::from_value(&value).unwrap();
            assert_eq!(back, model);
        }
        assert!(LinkModel::from_value(&Value::String("warp_drive".to_owned())).is_err());
        assert_eq!(LinkModel::default(), LinkModel::FifoFixed);
        assert!(LinkModel::fair_share().is_fair_share());
        assert_eq!(LinkModel::fair_share().name(), "fair_share");
        assert_eq!(LinkModel::FifoFixed.name(), "fifo_fixed");
    }

    proptest! {
        /// A lone activity is byte-identical to the FIFO-fixed serialisation
        /// time for arbitrary sizes, rates and start instants.
        #[test]
        fn solo_activity_is_byte_identical_to_fifo(
            bytes in 0u64..=100_000_000,
            gbps in 0.001f64..200.0,
            start_ns in 0u64..=1_000_000_000_000,
        ) {
            let mut l = FairShareLink::new(Gbps::new(gbps), DegradationFn::Fair);
            let now = SimTime::from_nanos(start_ns);
            let size = ByteSize::bytes(bytes);
            let (id, eta) = l.begin(now, size);
            prop_assert_eq!(eta, now + SimDuration::transmission(size, Gbps::new(gbps)));
            prop_assert_eq!(l.poll(eta, id), SharedTransfer::Complete);
        }

        /// Total delivered bytes are conserved under random concurrent
        /// interleavings: every admitted activity completes, accounting for
        /// exactly the bits that were injected, and the last completion can
        /// never beat the aggregate line rate.
        #[test]
        fn random_interleavings_conserve_delivered_bytes(
            arrivals in proptest::collection::vec(
                (0u64..5_000_000, 1u64..10_000_000),
                1..40,
            ),
        ) {
            let mut l = link(25.0);
            let mut pending = Vec::new();
            let mut arrivals = arrivals;
            arrivals.sort_unstable();
            let mut total_bits = 0u64;
            let mut last_arrival = SimTime::ZERO;
            for &(at_ns, bytes) in &arrivals {
                let now = SimTime::from_nanos(at_ns);
                let (id, eta) = l.begin(now, ByteSize::bytes(bytes));
                total_bits += bytes * 8;
                pending.push((id, eta));
                last_arrival = now;
            }
            // Re-plan every activity to completion.
            let mut makespan = SimTime::ZERO;
            for (id, mut eta) in pending {
                let mut hops = 0;
                loop {
                    match l.poll(eta, id) {
                        SharedTransfer::Complete => break,
                        SharedTransfer::InFlight(next) => {
                            prop_assert!(next > eta, "re-planned ETA must move forward");
                            eta = next;
                        }
                    }
                    hops += 1;
                    prop_assert!(hops <= arrivals.len() + 1, "re-planning must terminate");
                }
                makespan = makespan.max(eta);
            }
            let stats = l.stats();
            prop_assert_eq!(l.in_flight(), 0);
            prop_assert_eq!(stats.started, arrivals.len() as u64);
            prop_assert_eq!(stats.completed, arrivals.len() as u64);
            prop_assert!(
                (stats.delivered_bits - total_bits as f64).abs() <= total_bits as f64 * 1e-9 + 1.0,
                "delivered {} bits of {} injected", stats.delivered_bits, total_bits,
            );
            // Aggregate capacity bound: bits / 25 Gbps of serialisation must
            // fit between the first arrival and the last completion (with a
            // rounding slack of 1 ns per activity).
            let floor = SimDuration::transmission(
                ByteSize::bytes(total_bits / 8),
                Gbps::new(25.0),
            );
            let span = makespan.duration_since(SimTime::ZERO)
                + SimDuration::from_nanos(arrivals.len() as u64);
            prop_assert!(
                span >= floor,
                "finished {span} after start, faster than the {floor} line-rate floor",
            );
            let _ = last_arrival;
        }
    }
}
