//! The packet type that travels through a service chain.
//!
//! A [`Packet`] owns its raw bytes (built by `pam-wire`'s `PacketBuilder` or
//! any other source) plus the bookkeeping the runtime needs: a unique id, the
//! flow it belongs to, when it entered the chain, and how many PCIe crossings
//! it has paid so far. vNFs receive `&mut Packet` and may rewrite headers
//! (NAT, load balancer) — the cached 5-tuple is invalidated and re-derived
//! when that happens.

use pam_types::{ByteSize, FlowId, PamError, SimTime};
use pam_wire::{EthernetFrame, FiveTuple, Ipv4Packet, ETHERNET_HEADER_LEN};

/// An owned packet with chain-traversal metadata.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Unique packet id, assigned by the traffic source.
    pub id: u64,
    bytes: Vec<u8>,
    tuple: Option<FiveTuple>,
    /// When the packet entered the chain (ingress timestamp).
    pub ingress_time: SimTime,
    /// PCIe crossings this packet has paid so far.
    pub pcie_crossings: u32,
    /// Number of vNF hops that have processed this packet.
    pub hops_processed: u32,
}

impl Packet {
    /// Wraps raw frame bytes into a packet entering the chain at `ingress_time`.
    pub fn from_bytes(id: u64, bytes: Vec<u8>, ingress_time: SimTime) -> Self {
        let mut packet = Packet {
            id,
            bytes,
            tuple: None,
            ingress_time,
            pcie_crossings: 0,
            hops_processed: 0,
        };
        packet.tuple = packet.parse_tuple().ok();
        packet
    }

    /// Wraps frame bytes whose 5-tuple the caller already knows, skipping
    /// the header parse [`Packet::from_bytes`] performs. The traffic source
    /// uses this for frames it has just built from `tuple`; debug builds
    /// check that `tuple` is what a parse of `bytes` would yield.
    pub fn from_frame(id: u64, bytes: Vec<u8>, tuple: FiveTuple, ingress_time: SimTime) -> Self {
        let packet = Packet {
            id,
            bytes,
            tuple: Some(tuple),
            ingress_time,
            pcie_crossings: 0,
            hops_processed: 0,
        };
        debug_assert_eq!(packet.parse_tuple().ok(), Some(tuple));
        packet
    }

    /// The on-wire size of the packet.
    pub fn size(&self) -> ByteSize {
        ByteSize::bytes(self.bytes.len() as u64)
    }

    /// Immutable access to the raw frame bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable access to the raw frame bytes. Callers that rewrite headers
    /// must call [`Packet::invalidate_tuple`] afterwards (the NAT and load
    /// balancer helpers in this crate do).
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// The packet's 5-tuple, if it parsed as Ethernet/IPv4.
    pub fn five_tuple(&self) -> Option<FiveTuple> {
        self.tuple
    }

    /// The flow this packet belongs to (derived from the 5-tuple hash;
    /// non-IP packets fall back to a hash of the frame prefix so they still
    /// land in a consistent bucket).
    pub fn flow_id(&self) -> FlowId {
        match self.tuple {
            Some(t) => t.flow_id(),
            None => FlowId::new(pam_wire::five_tuple::stable_hash_bytes(
                &self.bytes[..self.bytes.len().min(32)],
            )),
        }
    }

    /// Drops the cached 5-tuple so the next access re-parses the (possibly
    /// rewritten) headers.
    pub fn invalidate_tuple(&mut self) {
        self.tuple = self.parse_tuple().ok();
    }

    /// Applies a targeted header rewrite to the cached 5-tuple *without* a
    /// full re-parse — the hot-path alternative to
    /// [`Packet::invalidate_tuple`] for vNFs (NAT, load balancer) that know
    /// exactly which fields they just rewrote in the frame bytes. The caller
    /// must have written precisely the same change into the packet, so the
    /// cache stays equal to what a re-parse would produce. No-op when the
    /// packet never parsed as IPv4 (there is no cached tuple to patch).
    pub fn patch_tuple(&mut self, rewrite: impl FnOnce(&mut FiveTuple)) {
        if let Some(tuple) = &mut self.tuple {
            rewrite(tuple);
        }
    }

    /// Parses the Ethernet/IPv4 headers and extracts the 5-tuple.
    pub fn parse_tuple(&self) -> Result<FiveTuple, PamError> {
        let eth = EthernetFrame::new_checked(self.bytes.as_slice())?;
        let ip = Ipv4Packet::new_checked(eth.payload())?;
        FiveTuple::from_ipv4(&ip)
    }

    /// A view of the IPv4 packet inside the frame (for vNFs that need to
    /// inspect or rewrite network-layer fields in place).
    pub fn ipv4_mut(&mut self) -> Result<Ipv4Packet<&mut [u8]>, PamError> {
        if self.bytes.len() < ETHERNET_HEADER_LEN {
            return Err(PamError::malformed("ethernet", "frame too short"));
        }
        Ipv4Packet::new_checked(&mut self.bytes[ETHERNET_HEADER_LEN..])
    }

    /// A read-only view of the IPv4 packet inside the frame.
    pub fn ipv4(&self) -> Result<Ipv4Packet<&[u8]>, PamError> {
        if self.bytes.len() < ETHERNET_HEADER_LEN {
            return Err(PamError::malformed("ethernet", "frame too short"));
        }
        Ipv4Packet::new_checked(&self.bytes[ETHERNET_HEADER_LEN..])
    }

    /// The transport payload bytes (after the IPv4 and transport headers),
    /// used by the DPI engine. Empty for non-IPv4 frames.
    pub fn transport_payload(&self) -> &[u8] {
        let Ok(eth) = EthernetFrame::new_checked(self.bytes.as_slice()) else {
            return &[];
        };
        let eth_payload_len = eth.payload().len();
        let Ok(ip) = Ipv4Packet::new_checked(eth.payload()) else {
            return &[];
        };
        let transport = ip.payload();
        let transport_header = match ip.protocol() {
            pam_wire::IpProtocol::Tcp => pam_wire::TCP_HEADER_LEN,
            pam_wire::IpProtocol::Udp => pam_wire::UDP_HEADER_LEN,
            _ => 0,
        };
        if transport.len() <= transport_header {
            return &[];
        }
        // Re-slice out of self.bytes to satisfy the borrow checker.
        let ip_header_len = ip.header_len();
        let start = ETHERNET_HEADER_LEN + ip_header_len + transport_header;
        let end = ETHERNET_HEADER_LEN + eth_payload_len.min(ip.total_len() as usize);
        if start >= end || end > self.bytes.len() {
            return &[];
        }
        &self.bytes[start..end]
    }

    /// Records one PCIe crossing.
    pub fn record_crossing(&mut self) {
        self.pcie_crossings += 1;
    }

    /// Records one vNF hop.
    pub fn record_hop(&mut self) {
        self.hops_processed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pam_wire::{PacketBuilder, TransportKind};
    use std::net::Ipv4Addr;

    fn sample_packet(len: usize) -> Packet {
        let bytes = PacketBuilder::new()
            .ips(Ipv4Addr::new(10, 1, 1, 1), Ipv4Addr::new(10, 2, 2, 2))
            .ports(4000, 80)
            .transport(TransportKind::Udp)
            .total_len(len)
            .payload_byte(b'A')
            .build();
        Packet::from_bytes(7, bytes, SimTime::from_micros(3))
    }

    #[test]
    fn metadata_and_size() {
        let p = sample_packet(256);
        assert_eq!(p.id, 7);
        assert_eq!(p.size(), ByteSize::bytes(256));
        assert_eq!(p.ingress_time, SimTime::from_micros(3));
        assert_eq!(p.pcie_crossings, 0);
        assert_eq!(p.hops_processed, 0);
    }

    #[test]
    fn tuple_is_parsed_and_cached() {
        let p = sample_packet(128);
        let t = p.five_tuple().expect("tuple parses");
        assert_eq!(t.src_port, 4000);
        assert_eq!(t.dst_port, 80);
        assert_eq!(p.flow_id(), t.flow_id());
    }

    #[test]
    fn rewrite_and_invalidate_updates_tuple() {
        let mut p = sample_packet(128);
        {
            let mut ip = p.ipv4_mut().unwrap();
            ip.set_dst_addr(Ipv4Addr::new(192, 0, 2, 9));
            ip.fill_checksum();
        }
        p.invalidate_tuple();
        assert_eq!(p.five_tuple().unwrap().dst_ip, Ipv4Addr::new(192, 0, 2, 9));
    }

    #[test]
    fn non_ip_frames_still_get_a_flow_id() {
        let p = Packet::from_bytes(1, vec![0u8; 20], SimTime::ZERO);
        assert!(p.five_tuple().is_none());
        // Deterministic across identical contents.
        let q = Packet::from_bytes(2, vec![0u8; 20], SimTime::ZERO);
        assert_eq!(p.flow_id(), q.flow_id());
        assert!(p.ipv4().is_err());
        assert!(p.transport_payload().is_empty());
    }

    #[test]
    fn transport_payload_extraction() {
        let p = sample_packet(200);
        let payload = p.transport_payload();
        // 200 total - 14 eth - 20 ip - 8 udp = 158 payload bytes of 'A'.
        assert_eq!(payload.len(), 158);
        assert!(payload.iter().all(|&b| b == b'A'));

        // TCP as well.
        let bytes = PacketBuilder::new()
            .transport(TransportKind::Tcp)
            .total_len(100)
            .payload_byte(b'Z')
            .build();
        let p = Packet::from_bytes(3, bytes, SimTime::ZERO);
        assert_eq!(p.transport_payload().len(), 100 - 14 - 20 - 20);
    }

    #[test]
    fn from_frame_matches_from_bytes() {
        let builder = PacketBuilder::new()
            .ports(4000, 80)
            .transport(TransportKind::Tcp)
            .total_len(300);
        let known = Packet::from_frame(9, builder.build(), builder.tuple(), SimTime::ZERO);
        let parsed = Packet::from_bytes(9, builder.build(), SimTime::ZERO);
        assert_eq!(known.five_tuple(), parsed.five_tuple());
        assert_eq!(known.flow_id(), parsed.flow_id());
        assert_eq!(known.bytes(), parsed.bytes());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn from_frame_rejects_a_tuple_the_frame_does_not_carry() {
        let builder = PacketBuilder::new().ports(4000, 80);
        let wrong = PacketBuilder::new().ports(4001, 80).tuple();
        let _ = Packet::from_frame(1, builder.build(), wrong, SimTime::ZERO);
    }

    #[test]
    fn hop_and_crossing_counters() {
        let mut p = sample_packet(64);
        p.record_hop();
        p.record_hop();
        p.record_crossing();
        assert_eq!(p.hops_processed, 2);
        assert_eq!(p.pcie_crossings, 1);
    }
}
