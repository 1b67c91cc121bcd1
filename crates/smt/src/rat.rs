//! Exact rational arithmetic over `i128`.
//!
//! The solver only ever manipulates coefficients derived from source-program
//! literals, so magnitudes stay small; all operations are overflow-checked and
//! panic on overflow rather than silently wrapping (a wrapped coefficient
//! would make the verifier unsound).

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational number with an `i128` numerator and denominator.
///
/// Invariants: the denominator is strictly positive and `gcd(num, den) == 1`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

/// Greatest common divisor of the absolute values (`gcd(0, 0) == 0`).
pub fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rat {
    /// The rational zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Creates `num / den`, normalizing signs and common factors.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Rat {
        if den == 1 {
            return Rat { num, den };
        }
        assert!(den != 0, "rational with zero denominator");
        let g = gcd(num, den);
        if g == 0 {
            return Rat::ZERO;
        }
        let (mut num, mut den) = (num / g, den / g);
        if den < 0 {
            num = -num;
            den = -den;
        }
        Rat { num, den }
    }

    /// Creates the integer `n` as a rational.
    pub fn int(n: i128) -> Rat {
        Rat { num: n, den: 1 }
    }

    /// Numerator (after normalization).
    pub fn num(self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    pub fn den(self) -> i128 {
        self.den
    }

    /// `true` iff this rational is an integer.
    pub fn is_integer(self) -> bool {
        self.den == 1
    }

    /// `true` iff this rational is zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Returns the sign: `-1`, `0` or `1`.
    pub fn signum(self) -> i128 {
        self.num.signum()
    }

    /// Largest integer `<= self`.
    pub fn floor(self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Smallest integer `>= self`.
    pub fn ceil(self) -> i128 {
        -(-self.num).div_euclid(self.den)
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(self) -> Rat {
        Rat::new(self.den, self.num)
    }

    /// Absolute value.
    pub fn abs(self) -> Rat {
        Rat {
            num: self.num.abs(),
            den: self.den,
        }
    }

    fn checked(num: Option<i128>, den: Option<i128>) -> Rat {
        let num = num.expect("rational overflow");
        let den = den.expect("rational overflow");
        Rat::new(num, den)
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        // Integers are their own normal form: no gcd to take.
        if self.den == 1 && rhs.den == 1 {
            return Rat::int(self.num.checked_add(rhs.num).expect("rational overflow"));
        }
        // Pre-reduce by the gcd of denominators to delay overflow.
        let g = gcd(self.den, rhs.den).max(1);
        let (dl, dr) = (self.den / g, rhs.den / g);
        Rat::checked(
            self.num
                .checked_mul(dr)
                .and_then(|l| rhs.num.checked_mul(dl).and_then(|r| l.checked_add(r))),
            self.den.checked_mul(dr),
        )
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        self + (-rhs)
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        if self.den == 1 && rhs.den == 1 {
            return Rat::int(self.num.checked_mul(rhs.num).expect("rational overflow"));
        }
        // Cross-reduce first.
        let g1 = gcd(self.num, rhs.den).max(1);
        let g2 = gcd(rhs.num, self.den).max(1);
        Rat::checked(
            (self.num / g1).checked_mul(rhs.num / g2),
            (self.den / g2).checked_mul(rhs.den / g1),
        )
    }
}

impl Div for Rat {
    type Output = Rat;
    #[allow(clippy::suspicious_arithmetic_impl)] // division as multiply-by-reciprocal
    fn div(self, rhs: Rat) -> Rat {
        self * rhs.recip()
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        // den > 0 on both sides, so cross-multiplication preserves order.
        let l = self.num.checked_mul(other.den).expect("rational overflow");
        let r = other.num.checked_mul(self.den).expect("rational overflow");
        l.cmp(&r)
    }
}

impl From<i128> for Rat {
    fn from(n: i128) -> Rat {
        Rat::int(n)
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, 7), Rat::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Rat::new(1, 2);
        let b = Rat::new(1, 3);
        assert_eq!(a + b, Rat::new(5, 6));
        assert_eq!(a - b, Rat::new(1, 6));
        assert_eq!(a * b, Rat::new(1, 6));
        assert_eq!(a / b, Rat::new(3, 2));
        assert_eq!(-a, Rat::new(-1, 2));
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rat::new(7, 2).floor(), 3);
        assert_eq!(Rat::new(7, 2).ceil(), 4);
        assert_eq!(Rat::new(-7, 2).floor(), -4);
        assert_eq!(Rat::new(-7, 2).ceil(), -3);
        assert_eq!(Rat::int(5).floor(), 5);
        assert_eq!(Rat::int(5).ceil(), 5);
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < Rat::ZERO);
        assert!(Rat::int(2) > Rat::new(3, 2));
    }

    #[test]
    #[should_panic]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    /// Integer operands take the fast paths of `new`, `+` and `*`; mixed
    /// and fractional ones take the gcd path. Either way the result is the
    /// normal form of the textbook formula, here reduced by `new`'s gcd
    /// path (numerator and denominator doubled, so the denominator is
    /// never 1).
    #[test]
    fn fast_paths_agree_with_the_general_path() {
        let vals: Vec<Rat> = [
            (0, 1),
            (1, 1),
            (-1, 1),
            (7, 1),
            (-12, 1),
            (1, 2),
            (-3, 4),
            (5, 6),
            (-7, 3),
            (9, 4),
        ]
        .into_iter()
        .map(|(n, d)| Rat::new(n, d))
        .collect();
        for n in [-5, 0, 1, 12] {
            assert_eq!(Rat::new(n, 1), Rat::new(2 * n, 2));
        }
        for &a in &vals {
            for &b in &vals {
                let (an, ad, bn, bd) = (a.num(), a.den(), b.num(), b.den());
                assert_eq!(
                    a + b,
                    Rat::new(2 * (an * bd + bn * ad), 2 * ad * bd),
                    "{a} + {b}"
                );
                assert_eq!(
                    a - b,
                    Rat::new(2 * (an * bd - bn * ad), 2 * ad * bd),
                    "{a} - {b}"
                );
                assert_eq!(a * b, Rat::new(2 * an * bn, 2 * ad * bd), "{a} * {b}");
            }
        }
    }

    #[test]
    fn integer_fast_paths_reach_the_bounds() {
        assert_eq!(Rat::int(i128::MAX - 1) + Rat::ONE, Rat::int(i128::MAX));
        assert_eq!(Rat::int(i128::MIN + 1) - Rat::ONE, Rat::int(i128::MIN));
        assert_eq!(Rat::int(i128::MAX) * Rat::int(-1), Rat::int(-i128::MAX));
    }

    #[test]
    #[should_panic(expected = "rational overflow")]
    fn integer_add_overflow_panics() {
        let _ = Rat::int(i128::MAX) + Rat::ONE;
    }

    #[test]
    #[should_panic(expected = "rational overflow")]
    fn integer_sub_overflow_panics() {
        let _ = Rat::int(i128::MIN) - Rat::ONE;
    }

    #[test]
    #[should_panic(expected = "rational overflow")]
    fn integer_mul_overflow_panics() {
        let _ = Rat::int(i128::MIN) * Rat::int(-1);
    }

    #[test]
    #[should_panic(expected = "rational overflow")]
    fn mixed_add_overflow_panics() {
        let _ = Rat::int(i128::MAX) + Rat::new(1, 2);
    }
}
