//! Scalar intervals with outward-rounded arithmetic.
//!
//! IEEE-754 binary operations are correctly rounded, so for any op `∘`,
//! the true real result of `a ∘ b` lies within one ULP of the f64 result.
//! Nudging the computed lower bound down and upper bound up by one ULP
//! therefore yields an enclosure of the exact real value. This is what
//! makes the box domain *provably* sound rather than "sound up to float
//! noise" — the distinction the paper's robustness guarantee (Lemma 1)
//! ultimately rests on.

use serde::{Deserialize, Serialize};
use std::array::from_fn;

/// Rounds a computed lower bound downward by one ULP: `x.next_down()` for
/// finite `x`, `x` itself for infinities and NaN.
#[inline(always)]
pub fn round_down(x: f64) -> f64 {
    round_lanes([x], -1)[0]
}

/// Rounds a computed upper bound upward by one ULP: `x.next_up()` for
/// finite `x`, `x` itself for infinities and NaN.
#[inline(always)]
pub fn round_up(x: f64) -> f64 {
    round_lanes([x], 1)[0]
}

/// [`round_down`] (`dir == -1`) or [`round_up`] (`dir == 1`) on every lane
/// of `x`, on the bits and without a branch. Each step is its own pass over
/// the lanes: the shape the compiler vectorizes for the box kernel.
#[inline(always)]
pub(crate) fn round_lanes<const L: usize>(x: [f64; L], dir: i64) -> [f64; L] {
    const INF: i64 = f64::INFINITY.to_bits() as i64;
    let bits: [i64; L] = from_fn(|l| x[l].to_bits() as i64);
    let abs: [i64; L] = from_fn(|l| bits[l] & i64::MAX);
    // `-1` for a set sign bit, else `0`: from a compare, not a shift, since
    // AVX2 has a signed 64-bit compare but no 64-bit arithmetic shift.
    let negative: [i64; L] = from_fn(|l| -i64::from(bits[l] < 0));
    // `dir` on a positive value's bits, `-dir` on a negative one's (this
    // wraps only for the zeros, infinities and NaN replaced below).
    let stepped: [i64; L] = from_fn(|l| bits[l].wrapping_add((dir ^ negative[l]) - negative[l]));
    // Both zeros step to the smallest subnormal of the direction's sign.
    let tiny = (dir & i64::MIN) | 1;
    let stepped: [i64; L] = from_fn(|l| if abs[l] == 0 { tiny } else { stepped[l] });
    from_fn(|l| f64::from_bits((if abs[l] < INF { stepped[l] } else { bits[l] }) as u64))
}

/// A closed interval `[lo, hi]` of reals.
///
/// The arithmetic methods round outward, so results *enclose* the exact
/// real-arithmetic image of the operands.
///
/// ```
/// use napmon_absint::Interval;
/// let a = Interval::new(1.0, 2.0);
/// let b = Interval::new(-1.0, 3.0);
/// let s = a.add(b);
/// assert!(s.lo() <= 0.0 && s.hi() >= 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// Creates `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is NaN.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(!lo.is_nan() && !hi.is_nan(), "interval bound is NaN");
        assert!(lo <= hi, "interval [{lo}, {hi}] is empty");
        Self { lo, hi }
    }

    /// The degenerate interval `[x, x]`.
    pub fn point(x: f64) -> Self {
        Self::new(x, x)
    }

    /// The interval `[c - r, c + r]` with outward rounding.
    ///
    /// # Panics
    ///
    /// Panics if `r < 0` or any input is NaN.
    pub fn center_radius(c: f64, r: f64) -> Self {
        assert!(r >= 0.0, "negative radius {r}");
        Self::new(round_down(c - r), round_up(c + r))
    }

    /// Lower bound.
    pub fn lo(self) -> f64 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(self) -> f64 {
        self.hi
    }

    /// Midpoint (round-to-nearest; not an enclosure).
    pub fn mid(self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// Width `hi - lo`, rounded up.
    pub fn width(self) -> f64 {
        round_up(self.hi - self.lo)
    }

    /// Whether `x` lies in the interval.
    pub fn contains(self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Whether `other` is entirely inside `self`.
    pub fn encloses(self, other: Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Outward-rounded sum.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Interval) -> Interval {
        Interval {
            lo: round_down(self.lo + rhs.lo),
            hi: round_up(self.hi + rhs.hi),
        }
    }

    /// Outward-rounded difference.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Interval) -> Interval {
        Interval {
            lo: round_down(self.lo - rhs.hi),
            hi: round_up(self.hi - rhs.lo),
        }
    }

    /// Outward-rounded product with a scalar.
    pub fn scale(self, k: f64) -> Interval {
        let (a, b) = (k * self.lo, k * self.hi);
        if a <= b {
            Interval {
                lo: round_down(a),
                hi: round_up(b),
            }
        } else {
            Interval {
                lo: round_down(b),
                hi: round_up(a),
            }
        }
    }

    /// Outward-rounded addition of a scalar.
    pub fn shift(self, k: f64) -> Interval {
        Interval {
            lo: round_down(self.lo + k),
            hi: round_up(self.hi + k),
        }
    }

    /// Outward-rounded interval product.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Interval) -> Interval {
        let candidates = [
            self.lo * rhs.lo,
            self.lo * rhs.hi,
            self.hi * rhs.lo,
            self.hi * rhs.hi,
        ];
        let lo = candidates.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = candidates.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Interval {
            lo: round_down(lo),
            hi: round_up(hi),
        }
    }

    /// Image under a monotone non-decreasing function.
    ///
    /// Sound only for monotone `f` (all activations in `napmon-nn` qualify);
    /// `f` itself is evaluated in round-to-nearest and then rounded outward.
    pub fn map_monotone(self, f: impl Fn(f64) -> f64) -> Interval {
        Interval {
            lo: round_down(f(self.lo)),
            hi: round_up(f(self.hi)),
        }
    }

    /// Union (smallest interval containing both).
    pub fn hull(self, rhs: Interval) -> Interval {
        Interval {
            lo: self.lo.min(rhs.lo),
            hi: self.hi.max(rhs.hi),
        }
    }

    /// Maximum of two intervals (elementwise monotone in both arguments).
    pub fn max(self, rhs: Interval) -> Interval {
        Interval {
            lo: self.lo.max(rhs.lo),
            hi: self.hi.max(rhs.hi),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn point_contains_itself() {
        let p = Interval::point(1.5);
        assert!(p.contains(1.5));
        assert!(p.width() <= f64::MIN_POSITIVE, "width {}", p.width());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn inverted_bounds_panic() {
        Interval::new(1.0, 0.0);
    }

    #[test]
    fn center_radius_encloses_exact_bounds() {
        let iv = Interval::center_radius(0.1, 0.05);
        assert!(iv.lo() <= 0.1 - 0.05);
        assert!(iv.hi() >= 0.1 + 0.05);
    }

    #[test]
    fn add_is_outward_rounded() {
        let a = Interval::point(0.1);
        let b = Interval::point(0.2);
        let s = a.add(b);
        // 0.1 + 0.2 is not representable; enclosure must be strict.
        assert!(s.lo() < 0.1 + 0.2 && 0.1 + 0.2 < s.hi());
        assert!(s.lo() < s.hi());
    }

    #[test]
    fn scale_handles_negative_factor() {
        let iv = Interval::new(1.0, 2.0).scale(-3.0);
        assert!(iv.lo() <= -6.0 && iv.hi() >= -3.0);
    }

    #[test]
    fn mul_covers_sign_combinations() {
        let a = Interval::new(-2.0, 3.0);
        let b = Interval::new(-5.0, 1.0);
        let p = a.mul(b);
        assert!(p.lo() <= -15.0 && p.hi() >= 10.0);
    }

    #[test]
    fn map_monotone_with_relu() {
        let iv = Interval::new(-1.0, 2.0).map_monotone(|x| x.max(0.0));
        assert!(iv.lo() <= 0.0 && iv.hi() >= 2.0);
    }

    #[test]
    fn hull_and_max() {
        let a = Interval::new(0.0, 1.0);
        let b = Interval::new(2.0, 3.0);
        assert!(a.hull(b).encloses(a) && a.hull(b).encloses(b));
        let m = a.max(b);
        assert_eq!((m.lo(), m.hi()), (2.0, 3.0));
    }

    #[test]
    fn rounding_preserves_infinities() {
        assert_eq!(round_down(f64::NEG_INFINITY), f64::NEG_INFINITY);
        assert_eq!(round_up(f64::INFINITY), f64::INFINITY);
    }

    /// `round_down` / `round_up` on the bits are `next_down` / `next_up`
    /// for finite values and the identity otherwise.
    fn pinned(x: f64) -> bool {
        let (down, up) = match x.is_finite() {
            true => (x.next_down(), x.next_up()),
            false => (x, x),
        };
        round_down(x).to_bits() == down.to_bits() && round_up(x).to_bits() == up.to_bits()
    }

    #[test]
    fn rounding_steps_edge_values_like_next_down_and_next_up() {
        for x in [
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            1.0,
        ] {
            assert!(pinned(x) && pinned(-x), "{x:e}");
        }
        assert_eq!(round_down(0.0).to_bits(), (-5e-324f64).to_bits());
        assert_eq!(round_up(-0.0).to_bits(), 5e-324f64.to_bits());
        assert_eq!(round_up(f64::MAX), f64::INFINITY);
    }

    proptest! {
        #[test]
        fn add_encloses_sampled_sums(
            (al, aw) in (-1e6..1e6f64, 0.0..10.0f64),
            (bl, bw) in (-1e6..1e6f64, 0.0..10.0f64),
            (ta, tb) in (0.0..=1.0f64, 0.0..=1.0f64),
        ) {
            let a = Interval::new(al, al + aw);
            let b = Interval::new(bl, bl + bw);
            let s = a.add(b);
            let xa = al + ta * aw;
            let xb = bl + tb * bw;
            prop_assert!(s.contains(xa + xb));
        }

        #[test]
        fn mul_encloses_sampled_products(
            (al, aw) in (-100.0..100.0f64, 0.0..10.0f64),
            (bl, bw) in (-100.0..100.0f64, 0.0..10.0f64),
            (ta, tb) in (0.0..=1.0f64, 0.0..=1.0f64),
        ) {
            let a = Interval::new(al, al + aw);
            let b = Interval::new(bl, bl + bw);
            let p = a.mul(b);
            prop_assert!(p.contains((al + ta * aw) * (bl + tb * bw)));
        }

        #[test]
        fn rounding_steps_any_bits_like_next_down_and_next_up(bits in 0u64..=u64::MAX) {
            prop_assert!(pinned(f64::from_bits(bits)), "{bits:#x}");
        }

        #[test]
        fn scale_encloses_sampled_points(
            (lo, w) in (-100.0..100.0f64, 0.0..10.0f64),
            k in -50.0..50.0f64,
            t in 0.0..=1.0f64,
        ) {
            let iv = Interval::new(lo, lo + w).scale(k);
            prop_assert!(iv.contains(k * (lo + t * w)));
        }
    }
}
