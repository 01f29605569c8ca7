//! Resource-management (RM) cells reused for renegotiation signaling.
//!
//! Section III-B: "An RCBR source sets the explicit rate (ER) field in the
//! RM cell to the *difference* between its old and new rates" — so the
//! switch fast path needs only the port's utilization and capacity, not
//! per-VCI state. Delta encoding drifts if an RM cell is lost, so the
//! source "periodically sends an RM cell with the true explicit rate,
//! instead of a difference" to resynchronize.
//!
//! The wire format here is a compact 16-byte encoding (VCI, kind, flags,
//! checksum, rate field) — deliberately simpler than the real I.371 RM
//! payload, but a genuine byte-level codec so that loss, truncation, and
//! corruption are representable. Real ATM RM cells carry a CRC-10; ours
//! carry a CRC-16 (CCITT-FALSE) over the other 14 bytes, which detects
//! all 1- and 2-bit errors on a 128-bit cell, so a bit-corrupted cell is
//! rejected at decode instead of silently applying a garbled rate.

use serde::{Deserialize, Serialize};

/// Size of an encoded [`RmCell`] on the wire.
pub const RM_CELL_BYTES: usize = 16;

/// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, no reflection, no xorout).
/// For a 14-byte message this detects every 1- and 2-bit error.
fn crc16(bytes: impl IntoIterator<Item = u8>) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for b in bytes {
        crc ^= (b as u16) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// The cell checksum: CRC-16 over everything except the checksum field
/// itself (bytes 0..6 and 8..16).
fn cell_crc(buf: &[u8; RM_CELL_BYTES]) -> u16 {
    crc16(buf[0..6].iter().chain(&buf[8..16]).copied())
}

/// What the rate field of an [`RmCell`] means.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RateField {
    /// Fast path: signed change to the current reservation, bits/second.
    Delta(f64),
    /// Slow path: the absolute reservation, bits/second (resync).
    Absolute(f64),
}

/// A renegotiation RM cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RmCell {
    /// Virtual channel identifier.
    pub vci: u32,
    /// The rate request.
    pub rate: RateField,
    /// Set by a switch to deny the request (the "modify the ER field"
    /// denial of Section III-B).
    pub denied: bool,
    /// Set by an overloaded hop: the switch's signaling queue shed cells
    /// this window, and sources should widen their renegotiation cadence
    /// (BestEffort VCs brown out). Piggybacked on the response path —
    /// bit 1 of the wire flags byte, covered by the CRC.
    pub pressure: bool,
}

impl RmCell {
    /// A fast-path delta request.
    pub fn delta(vci: u32, delta_bps: f64) -> Self {
        Self {
            vci,
            rate: RateField::Delta(delta_bps),
            denied: false,
            pressure: false,
        }
    }

    /// A slow-path absolute resync.
    pub fn resync(vci: u32, rate_bps: f64) -> Self {
        assert!(rate_bps >= 0.0, "absolute rate must be nonnegative");
        Self {
            vci,
            rate: RateField::Absolute(rate_bps),
            denied: false,
            pressure: false,
        }
    }

    /// Encode to the 16-byte big-endian wire format.
    pub fn encode(&self) -> [u8; RM_CELL_BYTES] {
        let mut buf = [0u8; RM_CELL_BYTES];
        buf[0..4].copy_from_slice(&self.vci.to_be_bytes());
        buf[4] = match self.rate {
            RateField::Delta(_) => 0,
            RateField::Absolute(_) => 1,
        };
        buf[5] = u8::from(self.denied) | (u8::from(self.pressure) << 1);
        let v = match self.rate {
            RateField::Delta(d) | RateField::Absolute(d) => d,
        };
        buf[8..16].copy_from_slice(&v.to_be_bytes());
        let crc = cell_crc(&buf);
        buf[6..8].copy_from_slice(&crc.to_be_bytes());
        buf
    }

    /// Decode from the wire format.
    ///
    /// Returns `None` for short buffers, checksum mismatches, unknown
    /// kinds, or rate fields that are not finite (a corrupted cell must
    /// not crash the switch — it is counted and discarded).
    pub fn decode(buf: &[u8]) -> Option<Self> {
        if buf.len() < RM_CELL_BYTES {
            return None;
        }
        let cell: [u8; RM_CELL_BYTES] = buf[0..RM_CELL_BYTES].try_into().expect("length checked");
        let stored = u16::from_be_bytes([cell[6], cell[7]]);
        if stored != cell_crc(&cell) {
            return None;
        }
        let vci = u32::from_be_bytes(cell[0..4].try_into().expect("length checked"));
        let kind = cell[4];
        let flags = cell[5];
        if flags > 0b11 {
            // Undeclared flag bits: reject rather than silently drop
            // semantics a newer sender may have meant.
            return None;
        }
        let denied = flags & 0b01 != 0;
        let pressure = flags & 0b10 != 0;
        let v = f64::from_be_bytes(cell[8..16].try_into().expect("length checked"));
        if !v.is_finite() {
            return None;
        }
        let rate = match kind {
            0 => RateField::Delta(v),
            1 => {
                if v < 0.0 {
                    return None;
                }
                RateField::Absolute(v)
            }
            _ => return None,
        };
        Some(Self {
            vci,
            rate,
            denied,
            pressure,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_delta() {
        let cell = RmCell::delta(42, -64_000.0);
        let back = RmCell::decode(&cell.encode()).unwrap();
        assert_eq!(cell, back);
    }

    /// The documented layout, pinned from outside the codec: `vci` 0..4,
    /// kind 4, flags 5, CRC 6..8 over the other fourteen bytes, rate
    /// 8..16, all big-endian. (The CRCs were computed independently.)
    #[test]
    fn golden_vectors_pin_the_documented_offsets() {
        let delta = [
            0x01, 0x02, 0x03, 0x04, 0x00, 0x00, 0xff, 0x5e, // vci, Delta, no flag, CRC
            0xc0, 0xef, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, // -64 000.0
        ];
        let cell = RmCell::delta(0x0102_0304, -64_000.0);
        assert_eq!(cell.encode(), delta);
        assert_eq!(RmCell::decode(&delta), Some(cell));

        let resync = [
            0xa1, 0xb2, 0xc3, 0xd4, 0x01, 0x03, 0x9b, 0xcb, // vci, Absolute, both flags, CRC
            0x41, 0x16, 0xd3, 0xc0, 0x00, 0x00, 0x00, 0x00, // 374 000.0
        ];
        let mut cell = RmCell::resync(0xa1b2_c3d4, 374_000.0);
        cell.denied = true;
        cell.pressure = true;
        assert_eq!(cell.encode(), resync);
        assert_eq!(RmCell::decode(&resync), Some(cell));
    }

    #[test]
    fn roundtrip_resync_and_denial() {
        let mut cell = RmCell::resync(7, 374_000.0);
        cell.denied = true;
        let back = RmCell::decode(&cell.encode()).unwrap();
        assert_eq!(cell, back);
        assert!(back.denied);
    }

    #[test]
    fn roundtrip_pressure_flag() {
        let mut cell = RmCell::delta(9, 25_000.0);
        cell.pressure = true;
        let back = RmCell::decode(&cell.encode()).unwrap();
        assert_eq!(cell, back);
        assert!(back.pressure);
        assert!(!back.denied);
        // Both flags together survive too.
        cell.denied = true;
        let back = RmCell::decode(&cell.encode()).unwrap();
        assert!(back.pressure && back.denied);
    }

    #[test]
    fn undeclared_flag_bits_rejected() {
        for flags in 4u8..=255 {
            let mut raw = RmCell::delta(1, 1.0).encode();
            raw[5] = flags;
            restamp(&mut raw);
            assert!(
                RmCell::decode(&raw).is_none(),
                "flags byte {flags:#010b} must be rejected"
            );
        }
    }

    #[test]
    fn short_buffer_rejected() {
        let cell = RmCell::delta(1, 1.0);
        let bytes = cell.encode();
        assert!(RmCell::decode(&bytes[0..10]).is_none());
    }

    /// Recompute the checksum after deliberate tampering, so the tests
    /// below exercise the semantic checks rather than the CRC.
    fn restamp(raw: &mut [u8; RM_CELL_BYTES]) {
        let crc = cell_crc(raw);
        raw[6..8].copy_from_slice(&crc.to_be_bytes());
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut raw = RmCell::delta(1, 1.0).encode();
        raw[4] = 99;
        restamp(&mut raw);
        assert!(RmCell::decode(&raw).is_none());
    }

    #[test]
    fn non_finite_rate_rejected() {
        let mut raw = RmCell::delta(1, 1.0).encode();
        raw[8..16].copy_from_slice(&f64::NAN.to_be_bytes());
        restamp(&mut raw);
        assert!(RmCell::decode(&raw).is_none());
    }

    #[test]
    fn negative_absolute_rejected() {
        let mut raw = RmCell::resync(1, 5.0).encode();
        raw[8..16].copy_from_slice(&(-5.0f64).to_be_bytes());
        restamp(&mut raw);
        assert!(RmCell::decode(&raw).is_none());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let raw = RmCell::delta(77, -123_456.0).encode();
        assert!(RmCell::decode(&raw).is_some());
        for bit in 0..(RM_CELL_BYTES * 8) {
            let mut bad = raw;
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                RmCell::decode(&bad).is_none(),
                "flip of bit {bit} went undetected"
            );
        }
    }

    proptest! {
        #[test]
        fn roundtrip_any_cell(
            vci in any::<u32>(),
            v in -1e12..1e12f64,
            absolute in any::<bool>(),
            denied in any::<bool>(),
            pressure in any::<bool>(),
        ) {
            let rate = if absolute { RateField::Absolute(v.abs()) } else { RateField::Delta(v) };
            let cell = RmCell { vci, rate, denied, pressure };
            prop_assert_eq!(RmCell::decode(&cell.encode()), Some(cell));
        }

        /// Decoding arbitrary bytes never panics.
        #[test]
        fn decode_is_total(raw in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = RmCell::decode(&raw);
        }
    }
}
