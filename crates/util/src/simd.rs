//! A hand-rolled `W`-wide `f64` SIMD lane type.
//!
//! `std::simd` is unstable, so the explicit-vectorization work in the
//! gravity kernels (the "Merging Frameworks" follow-up paper's SIMD
//! types, arXiv:2210.06439) uses this portable lane struct instead. The
//! compiler auto-vectorizes the fixed-width array loops into packed
//! instructions on targets that have them; on targets that don't, each
//! lane op is exactly the scalar op.
//!
//! The width is a compile-time constant so one kernel body serves every
//! instantiation: the gravity SoA kernels run `Lanes<4>`, the pairwise
//! (AoS) API runs the same source as `Lanes<1>`.
//!
//! **Bit-identity contract.** Every operation on [`Lanes`] applies the
//! corresponding scalar `f64` operation independently per lane — there
//! are no horizontal reductions, no FMA contractions, no re-associations.
//! A kernel that maps lane `l` to target cell `t0 + l·stride` therefore
//! produces, in each lane, the *identical bit pattern* at every width,
//! because IEEE 754 arithmetic is deterministic per operation and the
//! per-cell operation sequence is unchanged.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// `W` `f64` lanes operated on element-wise.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Lanes<const W: usize>(pub [f64; W]);

impl<const W: usize> Lanes<W> {
    /// All lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        Lanes([v; W])
    }

    /// Load the values at `slice[base + l·stride]` for lane `l`.
    ///
    /// `stride == 1` is the contiguous case; the parity-stencil kernels
    /// use `stride == 2` to pick the same-parity cells of a row.
    #[inline(always)]
    pub fn gather(slice: &[f64], base: usize, stride: usize) -> Self {
        let mut out = [0.0; W];
        for l in 0..W {
            out[l] = slice[base + l * stride];
        }
        Lanes(out)
    }

    /// Per-lane square root.
    #[inline(always)]
    pub fn sqrt(mut self) -> Self {
        for x in &mut self.0 {
            *x = x.sqrt();
        }
        self
    }

    /// Lane `l` as a scalar.
    #[inline(always)]
    pub fn lane(self, l: usize) -> f64 {
        self.0[l]
    }
}

macro_rules! lanewise_binop {
    ($trait:ident, $method:ident, $op_assign:tt) => {
        impl<const W: usize> $trait for Lanes<W> {
            type Output = Lanes<W>;
            #[inline(always)]
            fn $method(mut self, rhs: Lanes<W>) -> Lanes<W> {
                for l in 0..W {
                    self.0[l] $op_assign rhs.0[l];
                }
                self
            }
        }
        impl<const W: usize> $trait<f64> for Lanes<W> {
            type Output = Lanes<W>;
            #[inline(always)]
            fn $method(mut self, rhs: f64) -> Lanes<W> {
                for x in &mut self.0 {
                    *x $op_assign rhs;
                }
                self
            }
        }
    };
}

lanewise_binop!(Add, add, +=);
lanewise_binop!(Sub, sub, -=);
lanewise_binop!(Mul, mul, *=);
lanewise_binop!(Div, div, /=);

impl<const W: usize> AddAssign for Lanes<W> {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Lanes<W>) {
        *self = *self + rhs;
    }
}

impl<const W: usize> Neg for Lanes<W> {
    type Output = Lanes<W>;
    #[inline(always)]
    fn neg(mut self) -> Lanes<W> {
        for x in &mut self.0 {
            *x = -*x;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 4] = [1.0, 2.5, -3.0, 1e-300];
    const B: [f64; 4] = [0.1, 4.0, 7.5, 3e10];

    #[test]
    fn lanes_are_independent_scalar_ops() {
        let (a, b) = (Lanes(A), Lanes(B));
        let sum = a + b;
        let prod = a * b;
        let quot = a / b;
        for l in 0..4 {
            assert_eq!(sum.lane(l).to_bits(), (a.lane(l) + b.lane(l)).to_bits());
            assert_eq!(prod.lane(l).to_bits(), (a.lane(l) * b.lane(l)).to_bits());
            assert_eq!(quot.lane(l).to_bits(), (a.lane(l) / b.lane(l)).to_bits());
        }
        let sq = b.sqrt();
        for l in 0..4 {
            assert_eq!(sq.lane(l).to_bits(), b.lane(l).sqrt().to_bits());
        }
    }

    /// The `W = 1` instantiation (the pairwise API's width) is plain
    /// `f64` arithmetic, bit for bit, on the same edge operands.
    #[test]
    fn one_lane_ops_are_plain_f64_ops() {
        for (&x, &y) in A.iter().zip(B.iter()) {
            let (a, b) = (Lanes([x]), Lanes([y]));
            for (got, want) in [
                (a + b, x + y),
                (a - b, x - y),
                (a * b, x * y),
                (a / b, x / y),
                (a + y, x + y),
                (a - y, x - y),
                (a * y, x * y),
                (a / y, x / y),
                (-a, -x),
                (b.sqrt(), y.sqrt()),
                (Lanes::gather(&[x, y], 1, 2), y),
            ] {
                assert_eq!(got.lane(0).to_bits(), want.to_bits());
            }
            let mut acc = a;
            acc += b;
            assert_eq!(acc.lane(0).to_bits(), (x + y).to_bits());
        }
    }

    #[test]
    fn gather_strides() {
        let data: Vec<f64> = (0..12).map(|i| i as f64).collect();
        assert_eq!(Lanes::<4>::gather(&data, 3, 1).0, [3.0, 4.0, 5.0, 6.0]);
        assert_eq!(Lanes::<4>::gather(&data, 1, 2).0, [1.0, 3.0, 5.0, 7.0]);
        assert_eq!(Lanes::<1>::gather(&data, 11, 2).0, [11.0]);
    }

    #[test]
    fn accumulate_and_negate() {
        let mut acc = Lanes::<4>::splat(0.0);
        acc += Lanes::splat(1.5);
        acc += Lanes([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(acc.0, [2.5, 3.5, 4.5, 5.5]);
        assert_eq!((-acc).0, [-2.5, -3.5, -4.5, -5.5]);
    }
}
