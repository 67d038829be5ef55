//! A hand-rolled `W`-wide `f64` SIMD lane type.
//!
//! `std::simd` is unstable, so the explicit-vectorization work in the
//! gravity and hydro kernels (the "Merging Frameworks" follow-up paper's
//! SIMD types, arXiv:2210.06439) uses this portable lane struct instead. The
//! compiler auto-vectorizes the fixed-width array loops into packed
//! instructions on targets that have them; on targets that don't, each
//! lane op is exactly the scalar op.
//!
//! The width is a compile-time constant so one kernel body serves every
//! instantiation: the gravity SoA kernels and the hydro flux sweep run
//! `Lanes<4>`, the pairwise (AoS) and per-cell APIs run the same source
//! as `Lanes<1>`.
//!
//! **Bit-identity contract.** Every operation on [`Lanes`] applies the
//! corresponding scalar `f64` operation independently per lane — there
//! are no horizontal reductions, no FMA contractions, no re-associations.
//! A branch becomes a comparison to a `[bool; W]` mask and a
//! [`Lanes::select`] between both arms, which picks per lane exactly the
//! value the scalar `if` would have produced.
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
    /// use `stride == 2` to pick the same-parity cells of a row. The
    /// span `base ..= base + (W − 1)·stride` is bounds-checked once, not
    /// lane by lane: the lanes' indices into it are then provably in
    /// range where `stride` is a constant (the FMM kernels'), and on the
    /// contiguous branch where it is not (the hydro sweep's, whose
    /// lanes are contiguous on two axes of three).
    #[inline(always)]
    pub fn gather(slice: &[f64], base: usize, stride: usize) -> Self {
        let span = &slice[base..=base + (W - 1) * stride];
        if stride == 1 {
            return Lanes(std::array::from_fn(|l| span[l]));
        }
        Lanes(std::array::from_fn(|l| span[l * stride]))
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

    /// Per-lane `|x|`.
    #[inline(always)]
    pub fn abs(mut self) -> Self {
        for x in &mut self.0 {
            *x = x.abs();
        }
        self
    }

    /// Per-lane [`f64::signum`]: ±1 by sign bit (so ±0 → ±1), NaN for NaN.
    #[inline(always)]
    pub fn signum(mut self) -> Self {
        for x in &mut self.0 {
            *x = x.signum();
        }
        self
    }

    /// Per-lane [`f64::min`] (a NaN operand yields the other one).
    #[inline(always)]
    pub fn min(mut self, rhs: Self) -> Self {
        for l in 0..W {
            self.0[l] = self.0[l].min(rhs.0[l]);
        }
        self
    }

    /// Per-lane [`f64::max`] (a NaN operand yields the other one).
    #[inline(always)]
    pub fn max(mut self, rhs: Self) -> Self {
        for l in 0..W {
            self.0[l] = self.0[l].max(rhs.0[l]);
        }
        self
    }

    /// Per-lane `self < rhs` (false where either is NaN).
    #[inline(always)]
    pub fn lt(self, rhs: Self) -> [bool; W] {
        std::array::from_fn(|l| self.0[l] < rhs.0[l])
    }

    /// Per-lane `self <= rhs` (false where either is NaN).
    #[inline(always)]
    pub fn le(self, rhs: Self) -> [bool; W] {
        std::array::from_fn(|l| self.0[l] <= rhs.0[l])
    }

    /// Per-lane `self > rhs` (false where either is NaN).
    #[inline(always)]
    pub fn gt(self, rhs: Self) -> [bool; W] {
        std::array::from_fn(|l| self.0[l] > rhs.0[l])
    }

    /// Lane `l` is `a`'s where `mask[l]`, else `b`'s — the branch-free
    /// form of `if cond { a } else { b }`. Both sides are evaluated by
    /// the caller, so neither may have a side effect.
    #[inline(always)]
    pub fn select(mask: [bool; W], a: Self, b: Self) -> Self {
        Lanes(std::array::from_fn(|l| if mask[l] { a.0[l] } else { b.0[l] }))
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

    /// The operands every comparison and sign operation must agree with
    /// the scalar one on: NaN, both zeros, both infinities, a subnormal
    /// and the ends of the normal range.
    const EDGE: [f64; 12] = [
        f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
        -2e-310,
        1e300,
        -1e300,
        1e-300,
        -1e-300,
        1.5,
    ];

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

        // Sign, order and selection: every pair of edge operands, four
        // unrelated pairs to a bundle. The scalar side goes through
        // `black_box` so it is the plain `f64` call, not a folded one.
        use std::hint::black_box;
        let n = EDGE.len();
        for i in 0..n {
            for j0 in (0..n).step_by(4) {
                let x = Lanes([EDGE[i], EDGE[(i + 1) % n], EDGE[(i + 5) % n], EDGE[(i + 7) % n]]);
                let y: Lanes<4> = Lanes(std::array::from_fn(|l| EDGE[j0 + l]));
                let (lt, le, gt) = (x.lt(y), x.le(y), x.gt(y));
                let picked = Lanes::select(lt, x, y);
                for l in 0..4 {
                    let (p, q) = (black_box(x.lane(l)), black_box(y.lane(l)));
                    assert_eq!(x.abs().lane(l).to_bits(), p.abs().to_bits(), "abs {p:e}");
                    assert_eq!(x.signum().lane(l).to_bits(), p.signum().to_bits(), "signum {p:e}");
                    assert_eq!(x.min(y).lane(l).to_bits(), p.min(q).to_bits(), "min {p:e} {q:e}");
                    assert_eq!(x.max(y).lane(l).to_bits(), p.max(q).to_bits(), "max {p:e} {q:e}");
                    assert_eq!((lt[l], le[l], gt[l]), (p < q, p <= q, p > q), "{p:e} vs {q:e}");
                    let want = if p < q { p } else { q };
                    assert_eq!(picked.lane(l).to_bits(), want.to_bits(), "select {p:e} {q:e}");
                }
            }
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
                (a.abs(), x.abs()),
                (a.signum(), x.signum()),
                (a.min(b), x.min(y)),
                (a.max(b), x.max(y)),
                (Lanes::select(a.gt(b), a, b), if x > y { x } else { y }),
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
        // The last lane's slot is the one the span check must cover.
        for (base, stride) in [(9, 1), (6, 2), (12, 1)] {
            let out = std::panic::catch_unwind(|| Lanes::<4>::gather(&data, base, stride));
            assert!(out.is_err(), "base {base} stride {stride} read past the end");
        }
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
