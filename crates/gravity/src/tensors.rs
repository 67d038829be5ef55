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
//! Symmetric rank-2 tensors are stored as `[xx, yy, zz, xy, xz, yz]`;
//! symmetric rank-3 tensors as the 10 independent components
//! `[xxx, yyy, zzz, xxy, xxz, xyy, yyz, xzz, yzz, xyz]`.
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

/// Multiplicity of each rank-2 component in a full contraction.
pub const SYM2_MULT: [f64; 6] = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0];

/// Index triples of the 10 rank-3 components.
pub const SYM3: [(usize, usize, usize); 10] = [
    (0, 0, 0),
    (1, 1, 1),
    (2, 2, 2),
    (0, 0, 1),
    (0, 0, 2),
    (0, 1, 1),
    (1, 1, 2),
    (0, 2, 2),
    (1, 2, 2),
    (0, 1, 2),
];

/// Compile-time full-index → symmetric-storage lookup for rank-3
/// tensors: `SYM3_INDEX[a][b][c]` is the position in [`SYM3`] of the
/// sorted triple `(a, b, c)`. (The naive per-access linear search was
/// the hottest instruction in the multipole kernel.)
pub const SYM3_INDEX: [[[usize; 3]; 3]; 3] = build_sym3_index();

const fn build_sym3_index() -> [[[usize; 3]; 3]; 3] {
    let mut table = [[[usize::MAX; 3]; 3]; 3];
    let mut a = 0;
    while a < 3 {
        let mut b = 0;
        while b < 3 {
            let mut c = 0;
            while c < 3 {
                // Sort the triple (network for 3 elements).
                let (mut x, mut y, mut z) = (a, b, c);
                if x > y {
                    let t = x;
                    x = y;
                    y = t;
                }
                if y > z {
                    let t = y;
                    y = z;
                    z = t;
                }
                if x > y {
                    let t = x;
                    x = y;
                    y = t;
                }
                let mut n = 0;
                while n < 10 {
                    let (p, q, r) = SYM3[n];
                    // SYM3 entries are not all pre-sorted; sort them too.
                    let (mut u, mut v, mut w) = (p, q, r);
                    if u > v {
                        let t = u;
                        u = v;
                        v = t;
                    }
                    if v > w {
                        let t = v;
                        v = w;
                        w = t;
                    }
                    if u > v {
                        let t = u;
                        u = v;
                        v = t;
                    }
                    if u == x && v == y && w == z {
                        table[a][b][c] = n;
                        break;
                    }
                    n += 1;
                }
                c += 1;
            }
            b += 1;
        }
        a += 1;
    }
    table
}

/// All derivative tensors of −1/r at `W` separations, one per lane.
///
/// This is the one evaluation of `u = 1/|d|` and its powers in the
/// crate's pair arithmetic: the SoA kernels instantiate it at `W = 4`,
/// the pairwise API ([`KernelTensors::at`],
/// `LocalExpansion::accumulate`) at `W = 1`. Every operation is
/// lane-wise, so a lane holds the same bits at either width. `b3` is
/// evaluated only at `QUAD = true`, `b2` only at `QUAD || HESS` (see
/// [`KernelTensors::at_softened`]); each is all zeros otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTensors<const W: usize> {
    pub b0: Lanes<W>,
    pub b1: [Lanes<W>; 3],
    pub b2: [Lanes<W>; 6],
    pub b3: [Lanes<W>; 10],
}

impl KernelTensors<1> {
    /// Evaluate at the single separation `d` (must be nonzero).
    pub fn at(d: Vec3) -> KernelTensors<1> {
        Self::at_softened::<true, true>(d.to_array().map(|x| Lanes([x])), Lanes([0.0]))
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
    /// `QUAD` is whether either side of the pair carries second
    /// moments, `HESS` whether the target's Hessian is read (it is on a
    /// refined node, whose expansion translates to its children; never
    /// on a leaf). `B3` only ever meets a quadrupole (`q:B3`), `B2` a
    /// quadrupole (`q:B2`) or the Hessian, so `B3` with `u⁷` is not
    /// evaluated at `QUAD = false`, nor `B2` with `u⁵` at
    /// `QUAD = HESS = false` — which leaves the paper's monopole kernel:
    /// `B0` and `B1`. Whatever is evaluated is the same operations in
    /// every instantiation.
    #[inline(always)]
    pub fn at_softened<const QUAD: bool, const HESS: bool>(
        d: [Lanes<W>; 3],
        soft: Lanes<W>,
    ) -> KernelTensors<W> {
        let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + soft;
        for l in 0..W {
            assert!(r2.lane(l) > 0.0, "kernel tensors undefined at zero separation");
        }
        let u2 = Lanes::splat(1.0) / r2;
        let u = u2.sqrt();
        let u3 = u * u2;
        let u5 = u3 * u2;
        let mut b2 = [Lanes::splat(0.0); 6];
        if QUAD || HESS {
            for (n, (a, b)) in SYM2.iter().enumerate() {
                let delta = if a == b { 1.0 } else { 0.0 };
                b2[n] = u3 * delta - d[*a] * 3.0 * d[*b] * u5;
            }
        }
        let mut b3 = [Lanes::splat(0.0); 10];
        if QUAD {
            let u7 = u5 * u2;
            for (n, (a, b, c)) in SYM3.iter().enumerate() {
                let dab = if a == b { 1.0 } else { 0.0 };
                let dac = if a == c { 1.0 } else { 0.0 };
                let dbc = if b == c { 1.0 } else { 0.0 };
                b3[n] = (d[*c] * dab + d[*b] * dac + d[*a] * dbc) * -3.0 * u5
                    + d[*a] * 15.0 * d[*b] * d[*c] * u7;
            }
        }
        KernelTensors { b0: -u, b1: [d[0] * u3, d[1] * u3, d[2] * u3], b2, b3 }
    }

    /// Contract a symmetric rank-2 tensor `q` with `B2`: `q_ab B2_ab`.
    #[inline(always)]
    pub fn contract_q_b2(&self, q: &[Lanes<W>; 6]) -> Lanes<W> {
        let mut s = Lanes::splat(0.0);
        for n in 0..6 {
            s += q[n] * SYM2_MULT[n] * self.b2[n];
        }
        s
    }

    /// Contract a symmetric rank-2 tensor with `B3` over two indices:
    /// the vector `v_a = q_bc B3_abc`.
    #[inline(always)]
    pub fn contract_q_b3(&self, q: &[Lanes<W>; 6]) -> [Lanes<W>; 3] {
        let mut v = [Lanes::splat(0.0); 3];
        // For each free index a, sum q_bc B3_abc with multiplicity of (b,c).
        for (n2, (b, c)) in SYM2.iter().enumerate() {
            let w = q[n2] * SYM2_MULT[n2];
            for (a, va) in v.iter_mut().enumerate() {
                *va += w * self.b3_at(a, *b, *c);
            }
        }
        v
    }

    /// Full-index access to B3 (symmetrized storage lookup).
    #[inline(always)]
    pub fn b3_at(&self, a: usize, b: usize, c: usize) -> Lanes<W> {
        self.b3[SYM3_INDEX[a][b][c]]
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
                let t = KernelTensors::<1>::at_softened::<false, false>(d, Lanes([0.0]));
                LatticeRow { b0: t.b0.lane(0), b1: t.b1.map(|c| c.lane(0)) }
            })
            .collect()
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

    #[test]
    fn b3_matches_finite_difference_of_b2() {
        let d = Vec3::new(-0.9, 1.6, 0.5);
        let h = 1e-6;
        let t = KernelTensors::at(d);
        for (n, (a, b, c)) in SYM3.iter().enumerate() {
            let mut dp = d;
            dp[*c] += h;
            let mut dm = d;
            dm[*c] -= h;
            let tp = KernelTensors::at(dp);
            let tm = KernelTensors::at(dm);
            // B2 component index for (a, b):
            let n2 = SYM2
                .iter()
                .position(|&(x, y)| (x, y) == (*a, *b) || (y, x) == (*a, *b))
                .unwrap();
            let fd = (tp.b2[n2].lane(0) - tm.b2[n2].lane(0)) / (2.0 * h);
            assert!(
                (t.b3[n].lane(0) - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                "component {n} ({a}{b}{c}): {} vs {fd}",
                t.b3[n].lane(0)
            );
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
        for n in 0..10 {
            assert_eq!(t.b3[n].lane(0).to_bits(), (-tn.b3[n].lane(0)).to_bits());
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
    fn sym3_index_table_is_complete_and_consistent() {
        for a in 0..3 {
            for b in 0..3 {
                for c in 0..3 {
                    let n = SYM3_INDEX[a][b][c];
                    assert!(n < 10, "missing entry for ({a},{b},{c})");
                    let mut lhs = [a, b, c];
                    lhs.sort_unstable();
                    let (p, q, r) = SYM3[n];
                    let mut rhs = [p, q, r];
                    rhs.sort_unstable();
                    assert_eq!(lhs, rhs, "wrong entry for ({a},{b},{c})");
                }
            }
        }
    }

    #[test]
    fn b3_full_index_lookup_is_symmetric() {
        let d = Vec3::new(1.0, 2.0, 3.0);
        let t = KernelTensors::at(d);
        assert_eq!(t.b3_at(0, 1, 2), t.b3_at(2, 1, 0));
        assert_eq!(t.b3_at(0, 0, 1), t.b3_at(1, 0, 0));
        assert_eq!(t.b3_at(0, 1, 0), t.b3_at(0, 0, 1));
    }

    #[test]
    fn reduced_order_leaves_b3_out_and_the_rest_bit_identical() {
        let d = [0.123456789, -4.56789, 2.5].map(|x| Lanes([x]));
        let soft = Lanes([0.25]);
        let full = KernelTensors::at_softened::<true, true>(d, soft);
        let reduced = KernelTensors::at_softened::<false, true>(d, soft);
        assert_eq!(full.b0.lane(0).to_bits(), reduced.b0.lane(0).to_bits());
        for a in 0..3 {
            assert_eq!(full.b1[a].lane(0).to_bits(), reduced.b1[a].lane(0).to_bits());
        }
        for n in 0..6 {
            assert_eq!(full.b2[n].lane(0).to_bits(), reduced.b2[n].lane(0).to_bits());
        }
        assert!(full.b3.iter().all(|c| c.lane(0) != 0.0));
        assert!(reduced.b3.iter().all(|c| c.lane(0).to_bits() == 0));
        // Without the Hessian: `B2` stays for `q:B2` at `QUAD = true`
        // and goes with `B3` otherwise; `B0` and `B1` never move.
        let no_hess = KernelTensors::at_softened::<true, false>(d, soft);
        assert_eq!(no_hess, full);
        let monopole = KernelTensors::at_softened::<false, false>(d, soft);
        assert_eq!(monopole.b0.lane(0).to_bits(), full.b0.lane(0).to_bits());
        for a in 0..3 {
            assert_eq!(monopole.b1[a].lane(0).to_bits(), full.b1[a].lane(0).to_bits());
        }
        assert!(monopole.b2.iter().chain(&monopole.b3).all(|c| c.lane(0).to_bits() == 0));
    }

    #[test]
    #[should_panic(expected = "zero separation")]
    fn zero_separation_panics() {
        let _ = KernelTensors::at(Vec3::ZERO);
    }

    proptest! {
        #[test]
        fn contraction_matches_full_sum(dx in 0.5f64..3.0, dy in -3.0f64..3.0, dz in -3.0f64..3.0,
                                        q in proptest::array::uniform6(-2.0f64..2.0)) {
            let t = KernelTensors::at(Vec3::new(dx, dy, dz));
            // Expand q into a full symmetric 3x3 and contract by hand.
            let mut full = [[0.0; 3]; 3];
            for (n, (a, b)) in SYM2.iter().enumerate() {
                full[*a][*b] = q[n];
                full[*b][*a] = q[n];
            }
            let mut s = 0.0;
            for a in 0..3 {
                for b in 0..3 {
                    let n2 = SYM2.iter().position(|&(x, y)| (x, y) == (a.min(b), a.max(b))).unwrap();
                    s += full[a][b] * t.b2[n2].lane(0);
                }
            }
            let ql = q.map(|x| Lanes([x]));
            prop_assert!((t.contract_q_b2(&ql).lane(0) - s).abs() < 1e-10 * (1.0 + s.abs()));

            let v = t.contract_q_b3(&ql).map(|x| x.lane(0));
            for a in 0..3 {
                let mut expect = 0.0;
                for b in 0..3 {
                    for c in 0..3 {
                        expect += full[b][c] * t.b3_at(a, b, c).lane(0);
                    }
                }
                prop_assert!((v[a] - expect).abs() < 1e-9 * (1.0 + expect.abs()));
            }
        }
    }
}
