//! The sampling packet logger vNF.
//!
//! Records a bounded ring of log entries describing sampled packets. Two
//! properties matter for the reproduction:
//!
//! * the logger *samples* — by default it logs one packet in four
//!   (`sample_every = 4`), which is the interpretation that reconciles the
//!   poster's Table 1 (Logger has the lowest raw SmartNIC capacity) with its
//!   Figure 1(b) (the Monitor, not the Logger, is the hot spot); the sampling
//!   fraction corresponds to the `load_factor` of its capacity profile;
//! * its runtime state (the ring buffer) is small, so PAM's choice to migrate
//!   the Logger is also the cheapest state transfer in the chain.
//!
//! The ring holds compact records: a logged packet's summary is kept as its
//! 5-tuple and formatted into [`LogEntry::summary`] text only when the ring
//! is read ([`Logger::entries`]) or exported for migration. The exported
//! state, and so its size and the migration cost it drives, is exactly what
//! formatting every summary at log time would produce, and logging a packet
//! does not allocate.

use std::collections::VecDeque;

use pam_types::Result;
use pam_wire::FiveTuple;
use serde::{Deserialize, Serialize};

use crate::nf::{NetworkFunction, NfContext, NfKind, NfState, NfVerdict};
use crate::packet::Packet;

/// One log record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogEntry {
    /// Nanosecond timestamp of the logged packet.
    pub timestamp_nanos: u64,
    /// Flow the packet belonged to.
    pub flow: u64,
    /// Packet size in bytes.
    pub size: u64,
    /// Human-readable description of the packet's 5-tuple.
    pub summary: String,
}

/// What a ring record says about its packet, before formatting.
#[derive(Debug)]
enum Summary {
    /// An IPv4 packet, described by its 5-tuple.
    Tuple(FiveTuple),
    /// A frame that did not parse as IPv4, described by its size.
    NonIp,
    /// The summary of an entry imported from another instance, verbatim.
    Imported(Box<str>),
}

/// One ring slot: a [`LogEntry`] whose summary is not yet formatted.
#[derive(Debug)]
struct Record {
    timestamp_nanos: u64,
    flow: u64,
    size: u64,
    summary: Summary,
}

impl Record {
    fn to_entry(&self) -> LogEntry {
        let summary = match &self.summary {
            Summary::Tuple(tuple) => tuple.to_string(),
            Summary::NonIp => format!("non-ip frame of {} bytes", self.size),
            Summary::Imported(text) => text.to_string(),
        };
        LogEntry {
            timestamp_nanos: self.timestamp_nanos,
            flow: self.flow,
            size: self.size,
            summary,
        }
    }
}

impl From<LogEntry> for Record {
    fn from(entry: LogEntry) -> Self {
        Record {
            timestamp_nanos: entry.timestamp_nanos,
            flow: entry.flow,
            size: entry.size,
            summary: Summary::Imported(entry.summary.into_boxed_str()),
        }
    }
}

/// Serialised logger state.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct LoggerState {
    entries: Vec<LogEntry>,
    observed: u64,
    logged: u64,
    sample_every: u64,
}

/// One pre-copy round's worth of logger state: the ring entries appended
/// since the last round (always the tail of the ring — appends happen at the
/// back, evictions only at the front) plus the counters.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct LoggerDelta {
    appended: Vec<LogEntry>,
    observed: u64,
    logged: u64,
    sample_every: u64,
}

/// The sampling logger vNF.
#[derive(Debug)]
pub struct Logger {
    /// The ring, oldest record at the front. A `VecDeque` keeps steady-state
    /// eviction O(1); the old `Vec::remove(0)` memmoved the whole 4096-entry
    /// ring for every sampled packet once it filled.
    ring: VecDeque<Record>,
    /// Ring entries appended since the last `clear_dirty` (saturates at the
    /// ring capacity: older appends have been evicted again).
    appended_since_clear: usize,
    capacity: usize,
    sample_every: u64,
    observed: u64,
    logged: u64,
}

impl Logger {
    /// Creates a logger with a ring of `capacity` entries that logs one
    /// packet out of every `sample_every` (values of 0 are treated as 1).
    pub fn new(capacity: usize, sample_every: u64) -> Self {
        Logger {
            ring: VecDeque::with_capacity(capacity.clamp(1, 4096)),
            appended_since_clear: 0,
            capacity: capacity.max(1),
            sample_every: sample_every.max(1),
            observed: 0,
            logged: 0,
        }
    }

    /// The logger used by the evaluation scenarios: a 4096-entry ring that
    /// samples one packet in four (matching the Figure 1 scenario's
    /// `load_factor = 0.25`).
    pub fn evaluation_default() -> Self {
        Logger::new(4096, 4)
    }

    /// Number of packets observed (logged or not).
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Number of packets actually logged.
    pub fn logged(&self) -> u64 {
        self.logged
    }

    /// The current ring contents, oldest first, materialised: every
    /// summary is formatted by this call (the ring stores 5-tuples, not
    /// text), so it costs one string per entry.
    pub fn entries(&self) -> Vec<LogEntry> {
        self.ring.iter().map(Record::to_entry).collect()
    }

    /// The sampling period (1 = log everything).
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Appends `record`, evicting the oldest one when the ring is full.
    fn push(&mut self, record: Record) {
        if self.ring.len() >= self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(record);
    }
}

impl NetworkFunction for Logger {
    fn kind(&self) -> NfKind {
        NfKind::Logger
    }

    fn process(&mut self, packet: &mut Packet, ctx: &NfContext) -> NfVerdict {
        self.observed += 1;
        if self.observed % self.sample_every != 0 {
            return NfVerdict::Forward;
        }
        self.push(Record {
            timestamp_nanos: ctx.now.as_nanos(),
            flow: packet.flow_id().raw(),
            size: packet.size().as_bytes(),
            summary: packet.five_tuple().map_or(Summary::NonIp, Summary::Tuple),
        });
        self.appended_since_clear = (self.appended_since_clear + 1).min(self.capacity);
        self.logged += 1;
        NfVerdict::Forward
    }

    fn export_state(&self) -> NfState {
        let state = LoggerState {
            entries: self.entries(),
            observed: self.observed,
            logged: self.logged,
            sample_every: self.sample_every,
        };
        NfState::encode(NfKind::Logger, &state)
    }

    fn import_state(&mut self, state: NfState) -> Result<()> {
        let decoded: LoggerState = state.decode(NfKind::Logger)?;
        self.ring.clear();
        for entry in decoded.entries {
            self.push(entry.into());
        }
        self.observed = decoded.observed;
        self.logged = decoded.logged;
        self.sample_every = decoded.sample_every.max(1);
        self.appended_since_clear = 0;
        Ok(())
    }

    fn flow_count(&self) -> usize {
        self.ring.len()
    }

    fn clear_dirty(&mut self) {
        self.appended_since_clear = 0;
    }

    fn dirty_flow_count(&self) -> usize {
        self.appended_since_clear.min(self.ring.len())
    }

    fn export_dirty_state(&self) -> NfState {
        // Entries appended since the last clear are exactly the ring's tail.
        let tail = self.dirty_flow_count();
        let delta = LoggerDelta {
            appended: self
                .ring
                .iter()
                .skip(self.ring.len() - tail)
                .map(Record::to_entry)
                .collect(),
            observed: self.observed,
            logged: self.logged,
            sample_every: self.sample_every,
        };
        NfState::encode(NfKind::Logger, &delta)
    }

    fn import_dirty_state(&mut self, state: NfState) -> Result<()> {
        let delta: LoggerDelta = state.decode(NfKind::Logger)?;
        for entry in delta.appended {
            self.push(entry.into());
        }
        self.observed = delta.observed;
        self.logged = delta.logged;
        self.sample_every = delta.sample_every.max(1);
        Ok(())
    }

    fn reset(&mut self) {
        self.ring.clear();
        self.appended_since_clear = 0;
        self.observed = 0;
        self.logged = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pam_types::SimTime;
    use pam_wire::{PacketBuilder, TransportKind};
    use std::net::Ipv4Addr;

    fn packet(n: u64) -> Packet {
        let bytes = PacketBuilder::new()
            .ips(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 9, 9, 9))
            .ports(5000 + n as u16, 443)
            .transport(TransportKind::Tcp)
            .total_len(100)
            .build();
        Packet::from_bytes(n, bytes, SimTime::from_micros(n))
    }

    #[test]
    fn samples_one_in_n() {
        let mut logger = Logger::new(1000, 4);
        for i in 0..100 {
            let verdict = logger.process(&mut packet(i), &NfContext::at(SimTime::from_micros(i)));
            assert_eq!(verdict, NfVerdict::Forward);
        }
        assert_eq!(logger.observed(), 100);
        assert_eq!(logger.logged(), 25);
        assert_eq!(logger.entries().len(), 25);
        assert_eq!(logger.sample_every(), 4);
    }

    #[test]
    fn sample_every_one_logs_everything() {
        let mut logger = Logger::new(1000, 1);
        for i in 0..10 {
            logger.process(&mut packet(i), &NfContext::at(SimTime::ZERO));
        }
        assert_eq!(logger.logged(), 10);
        // Zero is clamped to one.
        assert_eq!(Logger::new(10, 0).sample_every(), 1);
    }

    #[test]
    fn ring_buffer_keeps_newest_entries() {
        let mut logger = Logger::new(5, 1);
        for i in 0..20 {
            logger.process(&mut packet(i), &NfContext::at(SimTime::from_micros(i)));
        }
        assert_eq!(logger.entries().len(), 5);
        // Oldest remaining entry is from packet 15.
        assert_eq!(logger.entries()[0].timestamp_nanos, 15_000);
        assert_eq!(logger.entries()[4].timestamp_nanos, 19_000);
        assert_eq!(logger.logged(), 20);
    }

    #[test]
    fn log_entries_describe_the_packet() {
        let mut logger = Logger::new(10, 1);
        logger.process(&mut packet(3), &NfContext::at(SimTime::from_micros(7)));
        let entry = &logger.entries()[0];
        assert_eq!(entry.size, 100);
        assert!(entry.summary.contains("TCP"));
        assert!(entry.summary.contains("10.0.0.1"));
        assert_eq!(entry.timestamp_nanos, 7_000);
    }

    #[test]
    fn non_ip_packets_are_still_loggable() {
        let mut logger = Logger::new(10, 1);
        let mut junk = Packet::from_bytes(1, vec![0u8; 33], SimTime::ZERO);
        logger.process(&mut junk, &NfContext::at(SimTime::ZERO));
        assert!(logger.entries()[0].summary.contains("non-ip"));
    }

    #[test]
    fn state_round_trip_and_capacity_clamp() {
        let mut source = Logger::new(100, 2);
        for i in 0..50 {
            source.process(&mut packet(i), &NfContext::at(SimTime::from_micros(i)));
        }
        let state = source.export_state();

        // Import into a logger with a smaller ring: the oldest entries are dropped.
        let mut small = Logger::new(10, 1);
        small.import_state(state.clone()).unwrap();
        assert_eq!(small.entries().len(), 10);
        assert_eq!(small.observed(), 50);
        assert_eq!(small.logged(), 25);
        assert_eq!(small.sample_every(), 2);

        // Import into an equal-sized logger preserves everything.
        let mut same = Logger::new(100, 1);
        same.import_state(state).unwrap();
        assert_eq!(same.entries().len(), 25);
    }

    #[test]
    fn logger_state_is_much_smaller_than_monitor_state() {
        use crate::monitor::FlowMonitor;
        use crate::nf::NetworkFunction as _;

        let mut logger = Logger::evaluation_default();
        let mut monitor = FlowMonitor::evaluation_default();
        for i in 0..2000 {
            let mut p = packet(i);
            logger.process(&mut p, &NfContext::at(SimTime::ZERO));
            monitor.process(&mut p, &NfContext::at(SimTime::ZERO));
        }
        let logger_size = logger.export_state().estimated_size;
        let monitor_size = monitor.export_state().estimated_size;
        assert!(
            monitor_size.as_bytes() > logger_size.as_bytes(),
            "monitor state ({monitor_size}) should exceed logger state ({logger_size})"
        );
    }

    /// What logging `packet` at `now` produced when summaries were
    /// formatted eagerly, at log time.
    fn eager_entry(packet: &Packet, now: SimTime) -> LogEntry {
        LogEntry {
            timestamp_nanos: now.as_nanos(),
            flow: packet.flow_id().raw(),
            size: packet.size().as_bytes(),
            summary: match packet.five_tuple() {
                Some(tuple) => tuple.to_string(),
                None => format!("non-ip frame of {} bytes", packet.size().as_bytes()),
            },
        }
    }

    /// The exported JSON text and the size a migration is charged for.
    fn wire_form(state: &NfState) -> (String, u64) {
        (
            serde_json::to_string(state).unwrap(),
            state.estimated_size.as_bytes(),
        )
    }

    /// Logs `packets` (one per microsecond from `start`) into `logger` and
    /// returns the eagerly formatted entries the ring must hold for them.
    fn log_all(logger: &mut Logger, packets: Vec<Packet>, start: u64) -> Vec<LogEntry> {
        let mut eager = Vec::new();
        for (i, mut p) in packets.into_iter().enumerate() {
            let now = SimTime::from_micros(start + i as u64);
            eager.push(eager_entry(&p, now));
            logger.process(&mut p, &NfContext::at(now));
        }
        eager
    }

    fn expected_state(logger: &Logger, entries: Vec<LogEntry>) -> NfState {
        let state = LoggerState {
            entries,
            observed: logger.observed(),
            logged: logger.logged(),
            sample_every: logger.sample_every(),
        };
        NfState::encode(NfKind::Logger, &state)
    }

    fn expected_delta(logger: &Logger, appended: Vec<LogEntry>) -> NfState {
        let delta = LoggerDelta {
            appended,
            observed: logger.observed(),
            logged: logger.logged(),
            sample_every: logger.sample_every(),
        };
        NfState::encode(NfKind::Logger, &delta)
    }

    fn udp_packet(n: u64) -> Packet {
        let bytes = PacketBuilder::new()
            .ips(
                Ipv4Addr::new(192, 168, 1, n as u8),
                Ipv4Addr::new(8, 8, 4, 4),
            )
            .ports(53_000 + n as u16, 53)
            .transport(TransportKind::Udp)
            .total_len(64 + n as usize)
            .build();
        Packet::from_bytes(n, bytes, SimTime::ZERO)
    }

    fn non_ip_packet(n: u64) -> Packet {
        Packet::from_bytes(n, vec![n as u8; 20 + n as usize], SimTime::ZERO)
    }

    /// Lazily formatted summaries must export byte-identical state: the
    /// JSON payload and the `estimated_size` that prices a migration.
    #[test]
    fn exported_state_matches_eager_formatting_for_tuple_entries() {
        let mut logger = Logger::new(16, 1);
        let packets = (0..24)
            .map(|n| if n % 2 == 0 { packet(n) } else { udp_packet(n) })
            .collect();
        let eager = log_all(&mut logger, packets, 0);
        let ring = eager[eager.len() - 16..].to_vec();
        assert_eq!(logger.entries(), ring);
        assert_eq!(
            wire_form(&logger.export_state()),
            wire_form(&expected_state(&logger, ring))
        );
    }

    #[test]
    fn exported_state_matches_eager_formatting_for_non_ip_entries() {
        let mut logger = Logger::new(16, 1);
        let eager = log_all(&mut logger, (0..8).map(non_ip_packet).collect(), 5);
        assert!(eager
            .iter()
            .all(|e| e.summary.starts_with("non-ip frame of")));
        assert_eq!(
            wire_form(&logger.export_state()),
            wire_form(&expected_state(&logger, eager))
        );
    }

    #[test]
    fn imported_entries_re_export_byte_identically() {
        let mixed = |range: std::ops::Range<u64>| -> Vec<Packet> {
            range
                .map(|n| match n % 3 {
                    0 => packet(n),
                    1 => udp_packet(n),
                    _ => non_ip_packet(n),
                })
                .collect()
        };
        let mut source = Logger::new(32, 1);
        let mut eager = log_all(&mut source, mixed(0..20), 0);

        // Full state: the target re-exports what the source exported.
        let full = source.export_state();
        assert_eq!(
            wire_form(&full),
            wire_form(&expected_state(&source, eager.clone()))
        );
        let mut target = Logger::new(32, 1);
        target.import_state(full.clone()).unwrap();
        assert_eq!(wire_form(&target.export_state()), wire_form(&full));

        // Dirty delta: only the entries logged since the last clear travel.
        source.clear_dirty();
        let appended = log_all(&mut source, mixed(20..30), 20);
        let delta = source.export_dirty_state();
        assert_eq!(
            wire_form(&delta),
            wire_form(&expected_delta(&source, appended.clone()))
        );
        target.import_dirty_state(delta).unwrap();
        eager.extend(appended);
        let expected = expected_state(&source, eager.clone());
        assert_eq!(wire_form(&target.export_state()), wire_form(&expected));
        assert_eq!(wire_form(&source.export_state()), wire_form(&expected));

        // Imported text and freshly logged tuples mix in one export.
        target.clear_dirty();
        let fresh = log_all(&mut target, mixed(30..36), 30);
        eager.extend(fresh.iter().cloned());
        assert_eq!(
            wire_form(&target.export_dirty_state()),
            wire_form(&expected_delta(&target, fresh))
        );
        assert_eq!(
            wire_form(&target.export_state()),
            wire_form(&expected_state(&target, eager[eager.len() - 32..].to_vec()))
        );
    }

    #[test]
    fn reset_and_wrong_kind_import() {
        let mut logger = Logger::new(10, 1);
        logger.process(&mut packet(1), &NfContext::at(SimTime::ZERO));
        logger.reset();
        assert_eq!(logger.observed(), 0);
        assert!(logger.entries().is_empty());
        assert!(logger
            .import_state(NfState::empty(NfKind::Monitor))
            .is_err());
        assert_eq!(logger.kind(), NfKind::Logger);
    }
}
