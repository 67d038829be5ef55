//! Cartesian derivative tensors of the gravity kernel φ(d) = −1/|d|.
//!
//! With `u = 1/|d|`:
//!
//! * `B0      = −u`
//! * `B1_a    = d_a u³`
//! * `B2_ab   = δ_ab u³ − 3 d_a d_b u⁵`
//! * `B3_abc  = −3(δ_ab d_c + δ_ac d_b + δ_bc d_a) u⁵ + 15 d_a d_b d_c u⁷`
//!
//! `B1` and `B3` are odd in `d`, `B0` and `B2` even — the property the
//! machine-precision momentum conservation rests on (negating `d`
//! negates odd tensors *exactly* in IEEE arithmetic).
//!
//! Symmetric rank-2 tensors are stored as `[xx, yy, zz, xy, xz, yz]`.
//! `B3` is never built: it only ever meets a symmetric rank-2 `q`, and
//! both contractions a pair takes follow from `d`, `u³`, `u⁵`, `u⁷` and
//! three scalars of `q` and `d` — the vector `q·d`, `d·q·d` and `tr q`:
//!
//! * `q_bc B3_abc = −3u⁵ (2 (q·d)_a + tr(q) d_a) + 15u⁷ d_a (d·q·d)`
//!   ([`KernelTensors::contract_q_b3`]);
//! * `q_ab B2_ab = u³ tr(q) − 3u⁵ (d·q·d)` ([`KernelTensors::contract_q_b2`]),
//!   so `B2` itself is built only where the Hessian is read.
//!
//! The first is odd in `d` bit for bit as `B3` is: under `d → −d` every
//! product in `q·d` flips sign exactly, so `q·d` does, and `d·q·d` does
//! not move. Both contractions of one `q` take 46 flops; the ten stored
//! `B3` components they replace took 120, and the two sums over stored
//! tensors 60 more.
//!
//! [`KernelTensors::at_softened`] is the only place the crate's pair
//! arithmetic takes `1/r²` and its square root: every FMM kernel
//! variant is an instantiation of it (and of `PairTerms::of` on top)
//! that leaves out the tensors it has no use for, never a second
//! formula — so `u` and `u³` are the same bits for a pair whoever
//! evaluates it.
//!
//! Its second output is the **lattice table** (`LatticeRow::rows`):
//! two leaf cells are point masses at cell centres, so a pair of them at
//! stencil offset `o` on a level of cell width `h` sits at `d = −o·h`,
//! and its `B0 = −1/(|o|h)` and `B1 = −o/(|o|³h²)` are constants of the
//! offset — Octo-Tiger's per-offset stencil constants, which is how §4.3
//! arrives at a 12-flop monopole kernel with no divide and no square
//! root. The table is `at_softened` evaluated once per offset at that
//! separation, so it is the same formula, and the kernels take every
//! lattice–lattice pair's `B0` / `B1` from it, whichever walk evaluates
//! the pair. `|o|` is even in `o` and `(−o)·h = −(o·h)` exactly, so
//! `B1(−o) = −B1(o)` bit for bit: a lattice pair's forces stay exactly
//! opposite.

use util::simd::Lanes;
use util::vec3::Vec3;

/// Index pairs of the 6 rank-2 components.
pub const SYM2: [(usize, usize); 6] = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)];

/// The derivative tensors of −1/r at `W` separations, one per lane.
///
/// This is the one evaluation of `u = 1/|d|` and its powers in the
/// crate's pair arithmetic: the SoA kernels instantiate it at `W = 4`,
/// the pairwise API ([`KernelTensors::at`],
/// `LocalExpansion::accumulate`) at `W = 1`. Every operation is
/// lane-wise, so a lane holds the same bits at either width. `b2` is
/// evaluated only at `HESS = true` (see [`KernelTensors::at_softened`])
/// and is all zeros otherwise; `B3` is never built — its contractions
/// come from `d` and the powers of `u` kept here (module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTensors<const W: usize> {
    pub b0: Lanes<W>,
    pub b1: [Lanes<W>; 3],
    pub b2: [Lanes<W>; 6],
    d: [Lanes<W>; 3],
    u3: Lanes<W>,
    u5: Lanes<W>,
    u7: Lanes<W>,
}

impl KernelTensors<1> {
    /// Evaluate at the single separation `d` (must be nonzero).
    pub fn at(d: Vec3) -> KernelTensors<1> {
        Self::at_softened::<true>(d.to_array().map(|x| Lanes([x])), Lanes([0.0]))
    }
}

impl<const W: usize> KernelTensors<W> {
    /// Evaluate at separations `d` with `soft` added to `r²`. With
    /// `soft = 0` this is the exact kernel (`x + 0.0` is bit-exact for
    /// the non-negative `r²`); the branchless SoA kernels pass
    /// `soft = 1 − w` so masked-out slots (weight `w = 0`, possibly
    /// coincident centres) still produce finite tensors that are then
    /// multiplied away by the zero weight.
    ///
    /// `HESS` is whether the target's Hessian is read (it is on a
    /// refined node, whose expansion translates to its children; never
    /// on a leaf): `B2` is built only then, since a quadrupole's `q:B2`
    /// does not need it. `u⁵` and `u⁷` are there for the quadrupole
    /// contractions; a form without quadrupoles never reads them, and
    /// once inlined they are not computed — which leaves the paper's
    /// monopole kernel: `B0` and `B1`. Whatever is evaluated is the
    /// same operations in every instantiation.
    #[inline(always)]
    pub fn at_softened<const HESS: bool>(d: [Lanes<W>; 3], soft: Lanes<W>) -> KernelTensors<W> {
        let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + soft;
        for l in 0..W {
            assert!(r2.lane(l) > 0.0, "kernel tensors undefined at zero separation");
        }
        let u2 = Lanes::splat(1.0) / r2;
        let u = u2.sqrt();
        let u3 = u * u2;
        let u5 = u3 * u2;
        let mut b2 = [Lanes::splat(0.0); 6];
        if HESS {
            for (n, (a, b)) in SYM2.iter().enumerate() {
                let delta = if a == b { 1.0 } else { 0.0 };
                b2[n] = u3 * delta - d[*a] * 3.0 * d[*b] * u5;
            }
        }
        let b1 = [d[0] * u3, d[1] * u3, d[2] * u3];
        KernelTensors { b0: -u, b1, b2, d, u3, u5, u7: u5 * u2 }
    }

    /// `q·d`, `d·q·d` and `tr q` for a symmetric rank-2 `q`.
    #[inline(always)]
    fn q_scalars(&self, q: &[Lanes<W>; 6]) -> ([Lanes<W>; 3], Lanes<W>, Lanes<W>) {
        let d = &self.d;
        let qd = [
            q[0] * d[0] + q[3] * d[1] + q[4] * d[2],
            q[3] * d[0] + q[1] * d[1] + q[5] * d[2],
            q[4] * d[0] + q[5] * d[1] + q[2] * d[2],
        ];
        let dqd = d[0] * qd[0] + d[1] * qd[1] + d[2] * qd[2];
        (qd, dqd, q[0] + q[1] + q[2])
    }

    /// Contract a symmetric rank-2 tensor `q` with `B2`: `q_ab B2_ab`,
    /// as `u³ tr(q) − 3u⁵ (d·q·d)`.
    #[inline(always)]
    pub fn contract_q_b2(&self, q: &[Lanes<W>; 6]) -> Lanes<W> {
        let (_, dqd, tr) = self.q_scalars(q);
        self.u3 * tr + dqd * (self.u5 * -3.0)
    }

    /// Contract a symmetric rank-2 tensor with `B3` over two indices:
    /// the vector `v_a = q_bc B3_abc`, as
    /// `−3u⁵ (2 (q·d)_a + tr(q) d_a) + 15u⁷ d_a (d·q·d)`.
    #[inline(always)]
    pub fn contract_q_b3(&self, q: &[Lanes<W>; 6]) -> [Lanes<W>; 3] {
        let (qd, dqd, tr) = self.q_scalars(q);
        let (c5, c7) = (self.u5 * -3.0, self.u7 * 15.0 * dqd);
        std::array::from_fn(|a| (qd[a] * 2.0 + tr * self.d[a]) * c5 + self.d[a] * c7)
    }

    /// These tensors with `B0` and `B1` taken from `row` in the lanes
    /// where `lattice` is set: the pair there is two lattice point
    /// masses, whose `B0` / `B1` the table holds.
    #[inline(always)]
    pub(crate) fn with_lattice(mut self, lattice: [bool; W], row: &LatticeRow) -> Self {
        self.b0 = Lanes::select(lattice, Lanes::splat(row.b0), self.b0);
        for a in 0..3 {
            self.b1[a] = Lanes::select(lattice, Lanes::splat(row.b1[a]), self.b1[a]);
        }
        self
    }
}

/// `B0` and `B1` of a pair of lattice point masses at one stencil offset
/// on one level (module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LatticeRow {
    pub(crate) b0: f64,
    pub(crate) b1: [f64; 3],
}

impl LatticeRow {
    /// One row per offset, aligned with `offsets`, for cell width `h`:
    /// [`KernelTensors::at_softened`] at the exact lattice separation
    /// `d = −o·h` (target minus source: the source sits at `+o`).
    pub(crate) fn rows(offsets: &[(i32, i32, i32)], h: f64) -> Vec<LatticeRow> {
        offsets
            .iter()
            .map(|&(x, y, z)| {
                let d = [x, y, z].map(|o| Lanes([-(o as f64) * h]));
                let t = KernelTensors::<1>::at_softened::<false>(d, Lanes([0.0]));
                LatticeRow { b0: t.b0.lane(0), b1: t.b1.map(|c| c.lane(0)) }
            })
            .collect()
    }

    /// The row as the tensors of `W` lattice pairs: `B0` and `B1`, all a
    /// pair of two point masses reads; the rest zeros.
    #[inline(always)]
    pub(crate) fn tensors<const W: usize>(&self) -> KernelTensors<W> {
        let zero = Lanes::splat(0.0);
        KernelTensors {
            b0: Lanes::splat(self.b0),
            b1: self.b1.map(Lanes::splat),
            b2: [zero; 6],
            d: [zero; 3],
            u3: zero,
            u5: zero,
            u7: zero,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn phi(d: Vec3) -> f64 {
        -1.0 / d.norm()
    }

    #[test]
    fn b0_is_potential() {
        let d = Vec3::new(1.0, 2.0, -2.0); // r = 3
        let t = KernelTensors::at(d);
        assert!((t.b0.lane(0) - (-1.0 / 3.0)).abs() < 1e-15);
    }

    #[test]
    fn b1_matches_finite_difference() {
        let d = Vec3::new(0.7, -1.3, 2.1);
        let t = KernelTensors::at(d);
        let h = 1e-6;
        for a in 0..3 {
            let mut dp = d;
            dp[a] += h;
            let mut dm = d;
            dm[a] -= h;
            let fd = (phi(dp) - phi(dm)) / (2.0 * h);
            assert!((t.b1[a].lane(0) - fd).abs() < 1e-8, "axis {a}: {} vs {fd}", t.b1[a].lane(0));
        }
    }

    #[test]
    fn b2_matches_finite_difference() {
        let d = Vec3::new(1.1, 0.4, -0.8);
        let t = KernelTensors::at(d);
        let h = 1e-5;
        for (n, (a, b)) in SYM2.iter().enumerate() {
            let mut dpp = d;
            dpp[*a] += h;
            dpp[*b] += h;
            let mut dpm = d;
            dpm[*a] += h;
            dpm[*b] -= h;
            let mut dmp = d;
            dmp[*a] -= h;
            dmp[*b] += h;
            let mut dmm = d;
            dmm[*a] -= h;
            dmm[*b] -= h;
            let fd = (phi(dpp) - phi(dpm) - phi(dmp) + phi(dmm)) / (4.0 * h * h);
            assert!(
                (t.b2[n].lane(0) - fd).abs() < 1e-5,
                "component {n}: {} vs {fd}",
                t.b2[n].lane(0)
            );
        }
    }

    /// `B3` is the gradient of `B2`, so `q_bc B3_abc` is the gradient of
    /// `q_bc B2_bc`: the `B3` contraction against a central difference
    /// of the `B2` one.
    #[test]
    fn b3_matches_finite_difference_of_b2() {
        let d = Vec3::new(-0.9, 1.6, 0.5);
        let q = [0.3, -0.2, 0.5, 0.1, -0.4, 0.25].map(|x| Lanes([x]));
        let h = 1e-6;
        let v = KernelTensors::at(d).contract_q_b3(&q);
        for a in 0..3 {
            let mut dp = d;
            dp[a] += h;
            let mut dm = d;
            dm[a] -= h;
            let (p, m) = (KernelTensors::at(dp), KernelTensors::at(dm));
            let fd = (p.contract_q_b2(&q).lane(0) - m.contract_q_b2(&q).lane(0)) / (2.0 * h);
            let v = v[a].lane(0);
            assert!((v - fd).abs() < 1e-4 * (1.0 + fd.abs()), "axis {a}: {v} vs {fd}");
        }
    }

    #[test]
    fn parity_is_exact_in_floating_point() {
        // The conservation-critical property: odd tensors negate
        // *bit-exactly* under d -> -d; even tensors are identical.
        let d = Vec3::new(0.123456789, -4.56789, 2.71828);
        let t = KernelTensors::at(d);
        let tn = KernelTensors::at(-d);
        assert_eq!(t.b0.lane(0).to_bits(), tn.b0.lane(0).to_bits());
        for a in 0..3 {
            assert_eq!(t.b1[a].lane(0).to_bits(), (-tn.b1[a].lane(0)).to_bits());
        }
        for n in 0..6 {
            assert_eq!(t.b2[n].lane(0).to_bits(), tn.b2[n].lane(0).to_bits());
        }
    }

    #[test]
    fn b2_is_trace_free() {
        let d = Vec3::new(2.0, -1.0, 0.5);
        let t = KernelTensors::at(d);
        let trace = t.b2[0].lane(0) + t.b2[1].lane(0) + t.b2[2].lane(0);
        assert!(trace.abs() < 1e-14, "Laplacian of 1/r must vanish, got {trace}");
    }

    #[test]
    fn reduced_order_leaves_b2_out_and_the_rest_bit_identical() {
        let d = [0.123456789, -4.56789, 2.5].map(|x| Lanes([x]));
        let q = [0.4, -0.3, 0.2, 0.1, -0.05, 0.02].map(|x| Lanes([x]));
        let soft = Lanes([0.25]);
        let full = KernelTensors::at_softened::<true>(d, soft);
        let reduced = KernelTensors::at_softened::<false>(d, soft);
        assert!(full.b2.iter().all(|c| c.lane(0) != 0.0));
        assert!(reduced.b2.iter().all(|c| c.lane(0).to_bits() == 0));
        // Without the Hessian only `B2` goes: `B0`, `B1` and both
        // quadrupole contractions never move.
        assert_eq!(KernelTensors { b2: full.b2, ..reduced }, full);
        assert_eq!(reduced.contract_q_b2(&q), full.contract_q_b2(&q));
        assert_eq!(reduced.contract_q_b3(&q), full.contract_q_b3(&q));
    }

    #[test]
    #[should_panic(expected = "zero separation")]
    fn zero_separation_panics() {
        let _ = KernelTensors::at(Vec3::ZERO);
    }

    /// The textbook `B3_abc` of the module docs, all 27 components, and
    /// beside each its two terms' magnitudes summed: the scale its
    /// rounding is relative to.
    fn b3_full(d: [f64; 3]) -> [[[(f64, f64); 3]; 3]; 3] {
        let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
        let u = 1.0 / r2.sqrt();
        let (u5, u7) = (u.powi(5), u.powi(7));
        let delta = |a: usize, b: usize| if a == b { 1.0 } else { 0.0 };
        std::array::from_fn(|a| {
            std::array::from_fn(|b| {
                std::array::from_fn(|c| {
                    let first = (delta(a, b) * d[c] + delta(a, c) * d[b] + delta(b, c) * d[a]) * u5;
                    let second = d[a] * d[b] * d[c] * u7;
                    let scale = (delta(a, b) * d[c].abs() + delta(a, c) * d[b].abs()
                        + delta(b, c) * d[a].abs()) * u5;
                    (-3.0 * first + 15.0 * second, 3.0 * scale + 15.0 * second.abs())
                })
            })
        })
    }

    /// `|x − y|` is at most `ulps` units in the last place of `scale`.
    fn within_ulps(x: f64, y: f64, scale: f64, ulps: f64) -> bool {
        (x - y).abs() <= ulps * f64::EPSILON * scale
    }

    proptest! {
        /// Both contractions against the full-index sums over the
        /// textbook `B2` / `B3`, to a few ulps of the sums' magnitude, at
        /// `W = 1` and in every lane at `W = 4`; and their parity under
        /// `d → −d` bit for bit: `q:B3` negates, `q:B2` does not move.
        #[test]
        fn contraction_matches_full_sum(ds in proptest::array::uniform4(
                                            proptest::array::uniform3(-3.0f64..3.0)),
                                        q in proptest::array::uniform6(-2.0f64..2.0)) {
            // Keep every separation at least half a unit long.
            let ds = ds.map(|d| {
                let short = d.iter().map(|x| x * x).sum::<f64>() < 0.25;
                if short { [d[0] + d[0].signum(), d[1], d[2]] } else { d }
            });
            let mut full = [[0.0; 3]; 3];
            for (n, (a, b)) in SYM2.iter().enumerate() {
                full[*a][*b] = q[n];
                full[*b][*a] = q[n];
            }
            let four = KernelTensors::<4>::at_softened::<true>(
                std::array::from_fn(|a| Lanes(ds.map(|d| d[a]))),
                Lanes::splat(0.0),
            );
            let q4 = q.map(Lanes::<4>::splat);
            let (v4, s4) = (four.contract_q_b3(&q4), four.contract_q_b2(&q4));
            for (l, d) in ds.iter().enumerate() {
                let ql = q.map(|x| Lanes([x]));
                let t = KernelTensors::at(Vec3::from_array(*d));
                let tn = KernelTensors::at(-Vec3::from_array(*d));
                let b3 = b3_full(*d);
                let (v, s) = (t.contract_q_b3(&ql), t.contract_q_b2(&ql));
                for a in 0..3 {
                    let (expect, scale) = (0..9).fold((0.0, 0.0), |(e, s), n| {
                        let (q, (b3, b3_scale)) = (full[n / 3][n % 3], b3[a][n / 3][n % 3]);
                        (e + q * b3, s + q.abs() * b3_scale)
                    });
                    prop_assert!(within_ulps(v[a].lane(0), expect, scale, 8.0),
                                 "q:B3 axis {a}: {} vs {expect}", v[a].lane(0));
                    prop_assert_eq!(v4[a].lane(l).to_bits(), v[a].lane(0).to_bits());
                    prop_assert_eq!(tn.contract_q_b3(&ql)[a].lane(0).to_bits(),
                                    (-v[a].lane(0)).to_bits());
                }
                // `B2_ab`'s two terms, `δ_ab u³` and `3 d_a d_b u⁵`, in
                // magnitude: the scale of its rounding.
                let u2 = 1.0 / (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]);
                let (u3, u5) = (u2 * u2.sqrt(), u2 * u2 * u2.sqrt());
                let (expect, scale) = (0..9).fold((0.0, 0.0), |(e, s), n| {
                    let (a, b) = (n / 3, n % 3);
                    let k = SYM2.iter().position(|&p| p == (a.min(b), a.max(b))).unwrap();
                    let b2_scale = if a == b { u3 } else { 0.0 } + 3.0 * (d[a] * d[b]).abs() * u5;
                    (e + full[a][b] * t.b2[k].lane(0), s + full[a][b].abs() * b2_scale)
                });
                prop_assert!(within_ulps(s.lane(0), expect, scale, 8.0),
                             "q:B2: {} vs {expect}", s.lane(0));
                prop_assert_eq!(s4.lane(l).to_bits(), s.lane(0).to_bits());
                prop_assert_eq!(tn.contract_q_b2(&ql).lane(0).to_bits(), s.lane(0).to_bits());
            }
        }
    }
}
