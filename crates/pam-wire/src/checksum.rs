//! Internet checksum (RFC 1071) helpers shared by IPv4, TCP and UDP.

use crate::five_tuple::IpProtocol;

/// Computes the one's-complement sum of `data`, without folding carries or
/// taking the final complement. Useful for combining partial sums.
///
/// The accumulator is a `u64`: a `u32` overflows after about 65 537
/// all-ones words (~131 KB), while a `u64` holds the unfolded sum of any
/// buffer that fits in memory.
fn ones_complement_sum(mut acc: u64, data: &[u8]) -> u64 {
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        acc += u64::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let [last] = chunks.remainder() {
        acc += u64::from(u16::from_be_bytes([*last, 0]));
    }
    acc
}

fn fold(mut acc: u64) -> u16 {
    while acc > 0xffff {
        acc = (acc & 0xffff) + (acc >> 16);
    }
    acc as u16
}

/// Computes the internet checksum of `data` (RFC 1071).
///
/// The returned value is ready to be stored in a checksum field. Verifying a
/// buffer whose checksum field is filled in yields `0`.
pub fn internet_checksum(data: &[u8]) -> u16 {
    !fold(ones_complement_sum(0, data))
}

/// The unfolded sum of the IPv4 pseudo-header for a transport segment of
/// `segment_len` bytes.
fn pseudo_header_sum(src: [u8; 4], dst: [u8; 4], protocol: IpProtocol, segment_len: usize) -> u64 {
    let acc = ones_complement_sum(0, &src);
    let acc = ones_complement_sum(acc, &dst);
    acc + u64::from(protocol.number()) + segment_len as u64
}

/// Computes the TCP/UDP checksum over the IPv4 pseudo-header plus the
/// transport header and payload in `segment`.
pub fn pseudo_header_checksum(
    src: [u8; 4],
    dst: [u8; 4],
    protocol: IpProtocol,
    segment: &[u8],
) -> u16 {
    let acc = pseudo_header_sum(src, dst, protocol, segment.len());
    !fold(ones_complement_sum(acc, segment))
}

/// Computes the TCP/UDP checksum of a segment made of `header` followed by
/// `payload_len` copies of `fill`, without touching the payload: every
/// whole payload word is `fill * 257`, so the payload sums in closed form
/// and the cost is O(header) rather than O(segment).
///
/// Equal to [`pseudo_header_checksum`] over the materialised segment.
/// `header` must have an even length so the payload starts on a word
/// boundary (TCP and UDP headers always do).
pub fn pseudo_header_checksum_filled(
    src: [u8; 4],
    dst: [u8; 4],
    protocol: IpProtocol,
    header: &[u8],
    payload_len: usize,
    fill: u8,
) -> u16 {
    debug_assert!(
        header.len() % 2 == 0,
        "payload must start on a word boundary"
    );
    let mut acc = pseudo_header_sum(src, dst, protocol, header.len() + payload_len);
    acc = ones_complement_sum(acc, header);
    acc += (payload_len / 2) as u64 * (u64::from(fill) * 257);
    if payload_len % 2 == 1 {
        acc += u64::from(fill) << 8;
    }
    !fold(acc)
}

/// Verifies a buffer that already contains its checksum field: the folded
/// sum over the whole buffer must be `0xffff` (i.e. the complement is zero).
pub fn verify_checksum(data: &[u8]) -> bool {
    internet_checksum(data) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example from RFC 1071 §3 / common references: the IPv4
    /// header `45 00 00 3c 1c 46 40 00 40 06 b1 e6 ac 10 0a 63 ac 10 0a 0c`
    /// has checksum 0xb1e6 when the checksum field is zeroed.
    #[test]
    fn rfc1071_reference_header() {
        let mut header = [
            0x45, 0x00, 0x00, 0x3c, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06, 0x00, 0x00, 0xac, 0x10,
            0x0a, 0x63, 0xac, 0x10, 0x0a, 0x0c,
        ];
        let csum = internet_checksum(&header);
        assert_eq!(csum, 0xb1e6);
        header[10..12].copy_from_slice(&csum.to_be_bytes());
        assert!(verify_checksum(&header));
    }

    #[test]
    fn odd_length_buffers_are_padded() {
        let even = internet_checksum(&[0x12, 0x34, 0x56, 0x00]);
        let odd = internet_checksum(&[0x12, 0x34, 0x56]);
        assert_eq!(even, odd);
    }

    #[test]
    fn empty_buffer_checksum() {
        assert_eq!(internet_checksum(&[]), 0xffff);
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut data = vec![0xde, 0xad, 0xbe, 0xef, 0x01, 0x02];
        let csum = internet_checksum(&data);
        data.extend_from_slice(&csum.to_be_bytes());
        assert!(verify_checksum(&data));
        data[1] ^= 0x40;
        assert!(!verify_checksum(&data));
    }

    #[test]
    fn pseudo_header_includes_addresses() {
        let seg = [0u8; 8];
        let a = pseudo_header_checksum([10, 0, 0, 1], [10, 0, 0, 2], IpProtocol::Udp, &seg);
        let b = pseudo_header_checksum([10, 0, 0, 1], [10, 0, 0, 3], IpProtocol::Udp, &seg);
        assert_ne!(a, b);
        let c = pseudo_header_checksum([10, 0, 0, 1], [10, 0, 0, 2], IpProtocol::Tcp, &seg);
        assert_ne!(a, c);
    }

    /// Beyond ~131 KB of all-ones words a `u32` accumulator overflows (a
    /// debug panic, a wrong checksum in release). The reference folds after
    /// every word, so it never holds more than 17 bits.
    #[test]
    fn buffers_beyond_131_kb_do_not_overflow() {
        let all_ones = vec![0xffu8; 200_000];
        let odd_pattern: Vec<u8> = (0..300_001u32).map(|i| (i * 7 + 3) as u8).collect();
        for data in [all_ones, odd_pattern] {
            let mut acc = 0u32;
            for word in data.chunks(2) {
                acc += u32::from(u16::from_be_bytes([word[0], *word.get(1).unwrap_or(&0)]));
                acc = (acc & 0xffff) + (acc >> 16);
            }
            let csum = internet_checksum(&data);
            assert_eq!(csum, !(acc as u16), "{} bytes", data.len());
            let mut buf = data;
            if buf.len() % 2 == 1 {
                buf.push(0);
            }
            buf.extend_from_slice(&csum.to_be_bytes());
            assert!(verify_checksum(&buf));
        }
    }

    #[test]
    fn carry_folding_is_correct() {
        // Many 0xffff words force repeated carries.
        let data = vec![0xff; 64];
        let csum = internet_checksum(&data);
        let mut buf = data.clone();
        buf.extend_from_slice(&csum.to_be_bytes());
        assert!(verify_checksum(&buf));
    }
}
