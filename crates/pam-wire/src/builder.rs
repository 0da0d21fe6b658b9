//! Synthesising complete Ethernet/IPv4/TCP-or-UDP packets.
//!
//! The traffic generator (and many tests) need realistic packets of an exact
//! on-wire size carrying a chosen 5-tuple. [`PacketBuilder`] assembles the
//! Ethernet, IPv4 and transport headers, pads the payload to reach the
//! requested total frame length and fills in every checksum, so the resulting
//! bytes parse cleanly through all the view types in this crate.
//!
//! The payload is a run of one repeated byte, so its share of the transport
//! checksum is computed in closed form: building a frame costs O(header)
//! arithmetic on top of allocating it.

use std::net::Ipv4Addr;

use pam_types::ByteSize;

use crate::checksum::pseudo_header_checksum_filled;
use crate::ethernet::{EtherType, EthernetFrame, EthernetRepr, MacAddress, ETHERNET_HEADER_LEN};
use crate::five_tuple::{FiveTuple, IpProtocol};
use crate::ipv4::{Ipv4Packet, Ipv4Repr, IPV4_HEADER_LEN};
use crate::tcp::{TcpFlags, TcpRepr, TcpSegment, TCP_HEADER_LEN};
use crate::udp::{UdpDatagram, UdpRepr, UDP_HEADER_LEN};

/// Which transport header the builder emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Emit a TCP header (20 bytes, no options).
    Tcp,
    /// Emit a UDP header (8 bytes).
    Udp,
}

impl TransportKind {
    /// The length of the emitted transport header.
    pub const fn header_len(self) -> usize {
        match self {
            TransportKind::Tcp => TCP_HEADER_LEN,
            TransportKind::Udp => UDP_HEADER_LEN,
        }
    }

    /// The matching IP protocol number.
    pub const fn protocol(self) -> IpProtocol {
        match self {
            TransportKind::Tcp => IpProtocol::Tcp,
            TransportKind::Udp => IpProtocol::Udp,
        }
    }
}

/// Builder for complete frames. See the module documentation.
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    src_mac: MacAddress,
    dst_mac: MacAddress,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    transport: TransportKind,
    total_len: usize,
    ttl: u8,
    dscp: u8,
    tcp_flags: TcpFlags,
    seq: u32,
    payload_byte: u8,
}

/// The minimum frame the builder can produce: Ethernet + IPv4 + UDP headers.
pub const MIN_FRAME_LEN: usize = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN;

/// The maximum frame the builder can produce: the Ethernet header plus the
/// largest IPv4 packet, whose 16-bit total-length field caps it at 65 535
/// bytes. Longer requests are lowered to this, so the IPv4 and UDP length
/// fields never wrap.
pub const MAX_FRAME_LEN: usize = ETHERNET_HEADER_LEN + u16::MAX as usize;

impl Default for PacketBuilder {
    fn default() -> Self {
        PacketBuilder {
            src_mac: MacAddress::from_index(1),
            dst_mac: MacAddress::from_index(2),
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            src_port: 10_000,
            dst_port: 80,
            transport: TransportKind::Udp,
            total_len: 64,
            ttl: 64,
            dscp: 0,
            tcp_flags: TcpFlags::ACK,
            seq: 0,
            payload_byte: 0x5a,
        }
    }
}

impl PacketBuilder {
    /// Creates a builder with the defaults documented on [`Default`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets source and destination MAC addresses.
    pub fn macs(mut self, src: MacAddress, dst: MacAddress) -> Self {
        self.src_mac = src;
        self.dst_mac = dst;
        self
    }

    /// Sets every 5-tuple field at once.
    pub fn five_tuple(mut self, tuple: FiveTuple) -> Self {
        self.src_ip = tuple.src_ip;
        self.dst_ip = tuple.dst_ip;
        self.src_port = tuple.src_port;
        self.dst_port = tuple.dst_port;
        self.transport = match tuple.protocol {
            IpProtocol::Tcp => TransportKind::Tcp,
            _ => TransportKind::Udp,
        };
        self
    }

    /// Sets source and destination IPv4 addresses.
    pub fn ips(mut self, src: Ipv4Addr, dst: Ipv4Addr) -> Self {
        self.src_ip = src;
        self.dst_ip = dst;
        self
    }

    /// Sets source and destination transport ports.
    pub fn ports(mut self, src: u16, dst: u16) -> Self {
        self.src_port = src;
        self.dst_port = dst;
        self
    }

    /// Chooses the transport header.
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.transport = kind;
        self
    }

    /// Sets the total on-wire frame length in bytes. Values below the header
    /// stack are raised to the minimum and values above [`MAX_FRAME_LEN`]
    /// are lowered to it; the payload is padded to reach the result.
    pub fn total_len(mut self, len: usize) -> Self {
        self.total_len = len;
        self
    }

    /// Sets the total length from a [`ByteSize`].
    pub fn size(self, size: ByteSize) -> Self {
        self.total_len(size.as_bytes() as usize)
    }

    /// Sets the IPv4 TTL.
    pub fn ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Sets the IPv4 DSCP code point.
    pub fn dscp(mut self, dscp: u8) -> Self {
        self.dscp = dscp;
        self
    }

    /// Sets the TCP flags (only meaningful for [`TransportKind::Tcp`]).
    pub fn tcp_flags(mut self, flags: TcpFlags) -> Self {
        self.tcp_flags = flags;
        self
    }

    /// Sets the TCP sequence number.
    pub fn seq(mut self, seq: u32) -> Self {
        self.seq = seq;
        self
    }

    /// Sets the byte value used to fill the payload.
    pub fn payload_byte(mut self, byte: u8) -> Self {
        self.payload_byte = byte;
        self
    }

    /// The header overhead for the configured transport.
    pub fn header_overhead(&self) -> usize {
        ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + self.transport.header_len()
    }

    /// Assembles the frame and returns the raw bytes.
    pub fn build(&self) -> Vec<u8> {
        let min_len = self.header_overhead();
        let total_len = self.total_len.clamp(min_len, MAX_FRAME_LEN);
        let payload_len = total_len - min_len;
        // The payload is already in place; only the headers start zeroed.
        let mut buf = vec![self.payload_byte; total_len];
        buf[..min_len].fill(0);

        // Ethernet header.
        let eth_repr = EthernetRepr {
            src: self.src_mac,
            dst: self.dst_mac,
            ethertype: EtherType::Ipv4,
        };
        let mut eth = EthernetFrame::new_unchecked(&mut buf[..]);
        eth_repr.emit(&mut eth);

        // IPv4 header.
        let ip_repr = Ipv4Repr {
            src: self.src_ip,
            dst: self.dst_ip,
            protocol: self.transport.protocol(),
            payload_len: self.transport.header_len() + payload_len,
            ttl: self.ttl,
            dscp: self.dscp,
        };
        {
            let ip_buf = &mut buf[ETHERNET_HEADER_LEN..];
            let mut ip = Ipv4Packet::new_unchecked(ip_buf);
            ip_repr.emit(&mut ip);
        }

        // Transport header, then its checksum over the zeroed checksum field.
        let transport_buf = &mut buf[ETHERNET_HEADER_LEN + IPV4_HEADER_LEN..min_len];
        match self.transport {
            TransportKind::Tcp => {
                let repr = TcpRepr {
                    src_port: self.src_port,
                    dst_port: self.dst_port,
                    seq: self.seq,
                    ack: 0,
                    flags: self.tcp_flags,
                    window: 65_535,
                };
                let mut seg = TcpSegment::new_unchecked(&mut *transport_buf);
                repr.emit(&mut seg);
                let csum = self.transport_checksum(transport_buf, payload_len);
                TcpSegment::new_unchecked(transport_buf).set_checksum(csum);
            }
            TransportKind::Udp => {
                let repr = UdpRepr {
                    src_port: self.src_port,
                    dst_port: self.dst_port,
                    payload_len,
                };
                let mut dgram = UdpDatagram::new_unchecked(&mut *transport_buf);
                repr.emit(&mut dgram);
                // RFC 768: a computed zero is sent as all ones.
                let csum = match self.transport_checksum(transport_buf, payload_len) {
                    0 => 0xffff,
                    csum => csum,
                };
                UdpDatagram::new_unchecked(transport_buf).set_checksum(csum);
            }
        }

        buf
    }

    fn transport_checksum(&self, header: &[u8], payload_len: usize) -> u16 {
        pseudo_header_checksum_filled(
            self.src_ip.octets(),
            self.dst_ip.octets(),
            self.transport.protocol(),
            header,
            payload_len,
            self.payload_byte,
        )
    }

    /// The 5-tuple the built packet will carry.
    pub fn tuple(&self) -> FiveTuple {
        FiveTuple {
            src_ip: self.src_ip,
            dst_ip: self.dst_ip,
            src_port: self.src_port,
            dst_port: self.dst_port,
            protocol: self.transport.protocol(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn parse_all(bytes: &[u8]) -> (EthernetRepr, Ipv4Repr, FiveTuple) {
        let eth = EthernetFrame::new_checked(bytes).unwrap();
        let eth_repr = EthernetRepr::parse(&eth);
        let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
        let ip_repr = Ipv4Repr::parse(&ip).unwrap();
        let tuple = FiveTuple::from_ipv4(&ip).unwrap();
        (eth_repr, ip_repr, tuple)
    }

    #[test]
    fn udp_packet_parses_back() {
        let builder = PacketBuilder::new()
            .ips(Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(5, 6, 7, 8))
            .ports(1111, 2222)
            .transport(TransportKind::Udp)
            .total_len(200);
        let bytes = builder.build();
        assert_eq!(bytes.len(), 200);
        let (eth, ip, tuple) = parse_all(&bytes);
        assert_eq!(eth.ethertype, EtherType::Ipv4);
        assert_eq!(ip.protocol, IpProtocol::Udp);
        assert_eq!(tuple, builder.tuple());

        let ip_view = Ipv4Packet::new_checked(&bytes[ETHERNET_HEADER_LEN..]).unwrap();
        let udp = UdpDatagram::new_checked(ip_view.payload()).unwrap();
        assert!(udp.verify_checksum([1, 2, 3, 4], [5, 6, 7, 8]));
    }

    #[test]
    fn tcp_packet_parses_back() {
        let builder = PacketBuilder::new()
            .transport(TransportKind::Tcp)
            .tcp_flags(TcpFlags::SYN)
            .seq(42)
            .total_len(128);
        let bytes = builder.build();
        assert_eq!(bytes.len(), 128);
        let (_, ip, tuple) = parse_all(&bytes);
        assert_eq!(ip.protocol, IpProtocol::Tcp);
        assert_eq!(tuple.protocol, IpProtocol::Tcp);

        let ip_view = Ipv4Packet::new_checked(&bytes[ETHERNET_HEADER_LEN..]).unwrap();
        let tcp = TcpSegment::new_checked(ip_view.payload()).unwrap();
        assert_eq!(tcp.flags(), TcpFlags::SYN);
        assert_eq!(tcp.seq_number(), 42);
        assert!(tcp.verify_checksum(
            builder.tuple().src_ip.octets(),
            builder.tuple().dst_ip.octets()
        ));
    }

    #[test]
    fn tiny_requested_length_is_raised_to_minimum() {
        let bytes = PacketBuilder::new()
            .transport(TransportKind::Tcp)
            .total_len(1)
            .build();
        assert_eq!(
            bytes.len(),
            ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + TCP_HEADER_LEN
        );
        parse_all(&bytes);
    }

    #[test]
    fn size_and_total_len_agree() {
        let a = PacketBuilder::new().size(ByteSize::bytes(512)).build();
        let b = PacketBuilder::new().total_len(512).build();
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn header_overhead_matches_transport() {
        assert_eq!(
            PacketBuilder::new()
                .transport(TransportKind::Udp)
                .header_overhead(),
            42
        );
        assert_eq!(
            PacketBuilder::new()
                .transport(TransportKind::Tcp)
                .header_overhead(),
            54
        );
        assert_eq!(MIN_FRAME_LEN, 42);
    }

    #[test]
    fn dscp_and_ttl_are_applied() {
        let bytes = PacketBuilder::new().dscp(46).ttl(8).total_len(100).build();
        let (_, ip, _) = parse_all(&bytes);
        assert_eq!(ip.dscp, 46);
        assert_eq!(ip.ttl, 8);
    }

    /// The byte-by-byte way to build a frame: zero-fill it, emit the headers,
    /// fill the payload, then checksum the whole segment through the view
    /// types' `fill_checksum`.
    fn reference_build(b: &PacketBuilder) -> Vec<u8> {
        let min_len = b.header_overhead();
        let total_len = b.total_len.clamp(min_len, MAX_FRAME_LEN);
        let payload_len = total_len - min_len;
        let mut buf = vec![0u8; total_len];
        EthernetRepr {
            src: b.src_mac,
            dst: b.dst_mac,
            ethertype: EtherType::Ipv4,
        }
        .emit(&mut EthernetFrame::new_unchecked(&mut buf[..]));
        Ipv4Repr {
            src: b.src_ip,
            dst: b.dst_ip,
            protocol: b.transport.protocol(),
            payload_len: b.transport.header_len() + payload_len,
            ttl: b.ttl,
            dscp: b.dscp,
        }
        .emit(&mut Ipv4Packet::new_unchecked(
            &mut buf[ETHERNET_HEADER_LEN..],
        ));
        let (src, dst) = (b.src_ip.octets(), b.dst_ip.octets());
        let transport = &mut buf[ETHERNET_HEADER_LEN + IPV4_HEADER_LEN..];
        match b.transport {
            TransportKind::Tcp => {
                let mut seg = TcpSegment::new_unchecked(transport);
                TcpRepr {
                    src_port: b.src_port,
                    dst_port: b.dst_port,
                    seq: b.seq,
                    ack: 0,
                    flags: b.tcp_flags,
                    window: 65_535,
                }
                .emit(&mut seg);
                seg.into_inner()[TCP_HEADER_LEN..].fill(b.payload_byte);
                TcpSegment::new_unchecked(&mut buf[ETHERNET_HEADER_LEN + IPV4_HEADER_LEN..])
                    .fill_checksum(src, dst);
            }
            TransportKind::Udp => {
                let mut dgram = UdpDatagram::new_unchecked(transport);
                UdpRepr {
                    src_port: b.src_port,
                    dst_port: b.dst_port,
                    payload_len,
                }
                .emit(&mut dgram);
                dgram.payload_mut().fill(b.payload_byte);
                dgram.fill_checksum(src, dst);
            }
        }
        buf
    }

    /// Asserts that every layer's length field agrees with the frame length
    /// and every checksum verifies.
    fn assert_consistent(bytes: &[u8]) {
        let ip = Ipv4Packet::new_checked(&bytes[ETHERNET_HEADER_LEN..]).unwrap();
        assert!(ip.verify_checksum());
        assert_eq!(
            usize::from(ip.total_len()),
            bytes.len() - ETHERNET_HEADER_LEN
        );
        let (src, dst) = (ip.src_addr().octets(), ip.dst_addr().octets());
        match ip.protocol() {
            IpProtocol::Tcp => {
                let tcp = TcpSegment::new_checked(ip.payload()).unwrap();
                assert!(tcp.verify_checksum(src, dst));
            }
            _ => {
                let udp = UdpDatagram::new_checked(ip.payload()).unwrap();
                assert_eq!(usize::from(udp.length()), ip.payload().len());
                assert_ne!(
                    udp.checksum(),
                    0,
                    "the builder always fills the UDP checksum"
                );
                assert!(udp.verify_checksum(src, dst));
            }
        }
    }

    /// `build` must emit exactly the bytes of the byte-by-byte reference
    /// for every length up to a jumbo-ish frame, the largest frame, both
    /// transports and payload bytes that exercise the checksum's carries.
    #[test]
    fn build_matches_the_byte_by_byte_reference() {
        let lengths = (0..=1600).chain([MAX_FRAME_LEN]);
        for len in lengths {
            for kind in [TransportKind::Tcp, TransportKind::Udp] {
                for fill in [0x00, 0x01, 0x5a, 0xff] {
                    let builder = PacketBuilder::new()
                        .ips(Ipv4Addr::new(172, 16, 3, 9), Ipv4Addr::new(10, 200, 0, 77))
                        .ports(40_123, 443)
                        .transport(kind)
                        .seq(0xdead_beef)
                        .payload_byte(fill)
                        .total_len(len);
                    let bytes = builder.build();
                    assert!(
                        bytes == reference_build(&builder),
                        "{kind:?} total_len {len} payload byte {fill:#04x}"
                    );
                    assert_consistent(&bytes);
                }
            }
        }
    }

    /// Requests beyond the IPv4 length field are clamped rather than
    /// wrapping the IPv4 and UDP length fields.
    #[test]
    fn oversized_requests_are_clamped_to_the_largest_frame() {
        for kind in [TransportKind::Tcp, TransportKind::Udp] {
            for len in [MAX_FRAME_LEN, MAX_FRAME_LEN + 1, 70_000, 1 << 20] {
                let bytes = PacketBuilder::new().transport(kind).total_len(len).build();
                assert_eq!(bytes.len(), MAX_FRAME_LEN, "{kind:?} {len}");
                let (_, ip, _) = parse_all(&bytes);
                assert_eq!(
                    ip.payload_len,
                    MAX_FRAME_LEN - ETHERNET_HEADER_LEN - IPV4_HEADER_LEN
                );
                assert_consistent(&bytes);
            }
        }
    }

    proptest! {
        /// Any frame the builder emits, for any evaluation packet size and
        /// either transport, parses back to the exact 5-tuple requested and
        /// has valid checksums at every layer.
        #[test]
        fn built_packets_always_parse(
            len in 64usize..1501,
            src in any::<u32>(),
            dst in any::<u32>(),
            sport in 1u16..,
            dport in 1u16..,
            is_tcp in any::<bool>(),
        ) {
            let kind = if is_tcp { TransportKind::Tcp } else { TransportKind::Udp };
            let builder = PacketBuilder::new()
                .ips(Ipv4Addr::from(src), Ipv4Addr::from(dst))
                .ports(sport, dport)
                .transport(kind)
                .total_len(len);
            let bytes = builder.build();
            prop_assert_eq!(bytes.len(), len.max(builder.header_overhead()));
            let eth = EthernetFrame::new_checked(&bytes[..]).unwrap();
            let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
            prop_assert!(ip.verify_checksum());
            let tuple = FiveTuple::from_ipv4(&ip).unwrap();
            prop_assert_eq!(tuple, builder.tuple());
        }
    }
}
