//! Unit helpers and conversions.
//!
//! The whole workspace uses `f64` bits, bits/second, and seconds. The paper
//! reports rates in "kb/s" and buffers in "kb" where k = 1000 (SI), not
//! 1024; these constants keep call sites honest about that convention.

/// Bits per kilobit (SI convention used throughout the paper).
pub const KILO: f64 = 1_000.0;
/// Bits per megabit.
pub const MEGA: f64 = 1_000_000.0;
/// Bits per gigabit.
pub const GIGA: f64 = 1_000_000_000.0;

/// Render a bit quantity with an adaptive unit, e.g. `374.0 kb`.
pub fn fmt_bits(bits: f64) -> String {
    let a = bits.abs();
    if a >= GIGA {
        format!("{:.3} Gb", bits / GIGA)
    } else if a >= MEGA {
        format!("{:.3} Mb", bits / MEGA)
    } else if a >= KILO {
        format!("{:.3} kb", bits / KILO)
    } else {
        format!("{bits:.1} b")
    }
}

/// Render a rate with an adaptive unit, e.g. `374.0 kb/s`.
pub fn fmt_rate(bps: f64) -> String {
    format!("{}/s", fmt_bits(bps))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_picks_adaptive_units() {
        assert_eq!(fmt_bits(300.0 * KILO), "300.000 kb");
        assert_eq!(fmt_bits(100.0 * MEGA), "100.000 Mb");
        assert_eq!(fmt_bits(2.5 * GIGA), "2.500 Gb");
        assert_eq!(fmt_bits(12.0), "12.0 b");
        assert_eq!(fmt_rate(374.0 * KILO), "374.000 kb/s");
    }
}
