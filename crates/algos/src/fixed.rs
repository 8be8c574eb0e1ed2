//! Exact, order-free sums of `f64` terms in 64.64 fixed point.
//!
//! PageRank and betweenness add many `f64` terms per vertex per round,
//! and float addition is not associative: the bits would follow the
//! order the fabric delivers the terms in. So every term is turned into
//! an `i128` with 64 integer and 64 fraction bits ([`to_fixed`], exact
//! down to 2^-64, truncated below), added as an integer — associative
//! and commutative — and turned back once per vertex per round
//! ([`from_fixed`]). The result cannot depend on the fabric, the inbox
//! order, the row order or the rank count, and the oracles, which use
//! the same two functions on the same terms, equal the kernels bit for
//! bit. Sums stay far inside the range: PageRank's mass is 1, and a
//! Brandes dependency is below n².

/// 2^64, the fixed-point one.
const ONE: f64 = 18_446_744_073_709_551_616.0;

/// `x` in 64.64 fixed point, truncated toward zero (a subnormal is 0).
///
/// # Panics
/// Panics if `x` is not finite or |x| ≥ 2^63, where the conversion
/// would no longer be exact.
pub fn to_fixed(x: f64) -> i128 {
    assert!(
        x.abs() < ONE / 2.0,
        "fixed-point summand {x} outside (-2^63, 2^63)"
    );
    (x * ONE) as i128
}

/// The `f64` nearest the 64.64 fixed-point value `s`.
pub fn from_fixed(s: i128) -> f64 {
    s as f64 / ONE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_representable_values() {
        for x in [
            0.0,
            1.0,
            -1.0,
            0.5,
            -3.25,
            2f64.powi(62),
            -(2f64.powi(62)),
            2f64.powi(-64),
        ] {
            assert_eq!(from_fixed(to_fixed(x)).to_bits(), x.to_bits(), "{x}");
        }
        assert_eq!(to_fixed(1.0), 1 << 64);
        assert_eq!(to_fixed(-1.0), -(1 << 64));
        assert_eq!(to_fixed(2f64.powi(62)), 1 << 126);
    }

    #[test]
    fn truncates_below_the_last_fraction_bit() {
        assert_eq!(to_fixed(f64::MIN_POSITIVE / 2.0), 0, "subnormal");
        assert_eq!(to_fixed(-f64::MIN_POSITIVE), 0);
        assert_eq!(to_fixed(2f64.powi(-65)), 0);
        assert_eq!(to_fixed(1.0 + 2f64.powi(-52)), (1 << 64) + (1 << 12));
    }

    #[test]
    fn sums_do_not_depend_on_order() {
        let terms = [0.1, 1e-12, 0.7, 3.0e-5, 0.2, 1.0 / 3.0];
        let forward: i128 = terms.iter().map(|&x| to_fixed(x)).sum();
        let backward: i128 = terms.iter().rev().map(|&x| to_fixed(x)).sum();
        assert_eq!(forward, backward);
        let float: f64 = terms.iter().sum();
        assert!((from_fixed(forward) - float).abs() < 1e-15);
    }

    #[test]
    fn refuses_what_it_cannot_hold() {
        for x in [
            2f64.powi(63),
            -(2f64.powi(63)),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            let err = std::panic::catch_unwind(|| to_fixed(x)).expect_err(&format!("{x} accepted"));
            let msg = err.downcast_ref::<String>().expect("formatted message");
            assert!(msg.contains("outside (-2^63, 2^63)"), "{msg}");
        }
    }
}
