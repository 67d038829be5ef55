//! Taylor (local) expansions and the M2L / L2L operations.
//!
//! "The result of these interactions is a Taylor series expansion ...
//! In the third FMM step ... the respective Taylor series expansion of
//! the parent node is passed to the child nodes and accumulated" (§4.3).
//!
//! A [`LocalExpansion`] carries the potential, its gradient, and its
//! Hessian about a cell's centre of mass, plus the mirror-exact pair
//! force and its correction part that make linear momentum conservation
//! exact. No torque: angular momentum is closed by the driver (crate
//! docs).
//!
//! What one pair adds to an expansion is `PairTerms::of`, the one pair
//! body of the crate. §4.3's kernel variants — from the 12-flop
//! monopole–monopole kernel to the multipole one (455 flops in the
//! paper's model, 198 in this body) — are its `const` instantiations
//! `{QS} × {QT} × {HESS}`: with or without the source's quadrupole
//! terms, with or without the target's, with or without the Hessian.
//! A pair pays only for the moments it has: a leaf's deferred groups
//! against a refined neighbour take `<true, false, false>` (104 flops),
//! a refined node facing a leaf's point masses `<false, true, true>`
//! (132; per-form counts in the `kernels` module docs).

use crate::multipole::Multipole;
use crate::tensors::{KernelTensors, SYM2};
use util::simd::Lanes;
use util::vec3::Vec3;

/// Taylor expansion of the gravitational potential about a point, plus
/// the mirror-exact pair force accumulated at that point.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LocalExpansion {
    /// Potential φ.
    pub phi: f64,
    /// Gradient ∇φ (acceleration is −∇φ).
    pub dphi: Vec3,
    /// Hessian of φ (symmetric storage), used to translate ∇φ in L2L —
    /// so the same-level pass accumulates it on refined nodes only.
    pub d2phi: [f64; 6],
    /// Total pair force on the cell from same-level interactions,
    /// accumulated in mirror-exact canonical terms (see
    /// [`LocalExpansion::accumulate`]); the conservation-grade quantity
    /// drivers should use for the momentum update.
    pub force: Vec3,
    /// The part of `force` not captured by `−∇φ · m` (the target's own
    /// quadrupole against source monopole fields).
    pub f_corr: Vec3,
}

/// What one pair interaction adds to its target's [`LocalExpansion`],
/// for `W` (target, source) pairs at once — one per lane. The pair
/// arithmetic lives in [`PairTerms::of`] (over
/// [`KernelTensors::at_softened`]) and nowhere else: the SoA kernels
/// evaluate it at `W = 4`, [`LocalExpansion::accumulate_softened`] at
/// `W = 1`, and every operation is lane-wise, so a pair gets the same
/// bits at either width.
pub(crate) struct PairTerms<const W: usize> {
    phi: Lanes<W>,
    dphi: [Lanes<W>; 3],
    /// `None` in the `HESS = false` forms.
    d2phi: Option<[Lanes<W>; 6]>,
    f_mono: [Lanes<W>; 3],
    /// The source quadrupole's force part; `None` in the `QS = false`
    /// forms.
    f_qs: Option<[Lanes<W>; 3]>,
    /// The target quadrupole's force part; `None` in the `QT = false`
    /// forms.
    f_qt: Option<[Lanes<W>; 3]>,
}

impl<const W: usize> PairTerms<W> {
    /// The interaction of source moments (`ms`, `qs`) on targets with
    /// moments (`mt`, `qt`), whose kernel tensors at the separation
    /// `d = tgt.com − src.com` are `t`: [`KernelTensors::at_softened`] at
    /// the same `HESS`, with `B0` / `B1` from the lattice table in the
    /// lanes that pair two lattice point masses (`tensors` module docs).
    /// The canonical term forms are documented on
    /// [`LocalExpansion::accumulate`].
    ///
    /// The kernel variants of §4.3 are instantiations of this one
    /// source: `QS` — does the source carry second moments — by `QT` —
    /// does the target — by `HESS` — is the target's Hessian read.
    /// `<true, true, true>` is the full body; `<false, false, false>` on
    /// a lattice pair, which is left with the table's `B0` / `B1` and
    /// their products, is the 12-flop monopole kernel. A const only ever
    /// removes work whose result is an exact zero or is never read, so
    /// **one pair has one rounding whichever instantiation evaluates
    /// it**:
    ///
    /// * `QS = false` compiles out what the source's quadrupole touches —
    ///   `q_s:B2`, `q_s:B3` and `f_qs` — and `qs` is not read; `QT = false`
    ///   compiles out `q_t:B3`, `f_qt` and its `f_corr` add, and `qt` is
    ///   not read. For a pair whose dropped side's moments are all
    ///   (signed) zeros it adds the same
    ///   bits to a [`LocalExpansion`] as the form that keeps them: each
    ///   dropped term is then a sum of zero moments times finite tensors
    ///   started from `+0.0`, i.e. `±0.0`; an accumulator that starts at
    ///   `+0.0` never holds `−0.0` (round-to-nearest gives `−0.0` only
    ///   for `−0.0 + −0.0`), and adding `±0.0` to anything else is the
    ///   identity. The one visible difference, `x` against `x + 0.0` in
    ///   `phi` and `dphi`, is the sign of a zero and vanishes the same
    ///   way.
    /// * `HESS = false` leaves `d2phi` out (and `B2` with it): the
    ///   target's `d2phi` is then not touched at all. It feeds no other
    ///   term, so every other field gets the bits it gets at
    ///   `HESS = true` — an unread field cannot move a bit. Only a target
    ///   whose `d2phi` nobody reads may take it: a leaf's (`d2phi` is
    ///   read by [`LocalExpansion::translated`], the L2L of a refined
    ///   node, alone).
    #[inline(always)]
    pub(crate) fn of<const QS: bool, const QT: bool, const HESS: bool>(
        mt: Lanes<W>,
        ms: Lanes<W>,
        qt: &[Lanes<W>; 6],
        qs: &[Lanes<W>; 6],
        t: &KernelTensors<W>,
    ) -> PairTerms<W> {
        // Potential and derivatives from the source moments.
        let mut phi = ms * t.b0;
        let mut dphi: [Lanes<W>; 3] = std::array::from_fn(|a| t.b1[a] * ms);
        // Pair force in canonical, mirror-exact term forms.
        let neg_mm = -(mt * ms);
        let f_qs = if QS {
            let cq3_s = t.contract_q_b3(qs);
            phi += t.contract_q_b2(qs) * 0.5;
            for a in 0..3 {
                dphi[a] += cq3_s[a] * 0.5;
            }
            let s_qs = mt * -0.5;
            Some(std::array::from_fn(|a| cq3_s[a] * s_qs))
        } else {
            None
        };
        let f_qt = if QT {
            let s_qt = ms * -0.5;
            let cq3_t = t.contract_q_b3(qt);
            Some(std::array::from_fn(|a| cq3_t[a] * s_qt))
        } else {
            None
        };
        PairTerms {
            phi,
            dphi,
            d2phi: HESS.then(|| std::array::from_fn(|n| ms * t.b2[n])),
            f_mono: std::array::from_fn(|a| t.b1[a] * neg_mm),
            f_qs,
            f_qt,
        }
    }
}

/// The running [`LocalExpansion`]s of `W` targets, one per lane: what the
/// SoA kernels keep in registers across a lane group's whole offset list
/// and store once per cell. [`GroupSums::add`] is the crate's one
/// accumulation sequence (the pairwise API runs it at `W = 1`) and is
/// lane-wise, so a cell ends on the bits of adding its pairs one at a
/// time in the same order.
pub(crate) struct GroupSums<const W: usize> {
    phi: Lanes<W>,
    dphi: [Lanes<W>; 3],
    d2phi: [Lanes<W>; 6],
    force: [Lanes<W>; 3],
    f_corr: [Lanes<W>; 3],
}

impl<const W: usize> GroupSums<W> {
    /// Lane `l` continues from `cells[l]`; a default
    /// [`LocalExpansion`] is all `+0.0`.
    #[inline(always)]
    pub(crate) fn load(cells: [LocalExpansion; W]) -> GroupSums<W> {
        GroupSums {
            phi: Lanes(cells.map(|e| e.phi)),
            dphi: std::array::from_fn(|a| Lanes(cells.map(|e| e.dphi[a]))),
            d2phi: std::array::from_fn(|n| Lanes(cells.map(|e| e.d2phi[n]))),
            force: std::array::from_fn(|a| Lanes(cells.map(|e| e.force[a]))),
            f_corr: std::array::from_fn(|a| Lanes(cells.map(|e| e.f_corr[a]))),
        }
    }

    /// Add one pair per lane, field by field in the order φ, ∇φ,
    /// Hessian, `f_mono`, `f_qs`, `f_qt`, `f_corr` — the parts the
    /// pair's form has.
    #[inline(always)]
    pub(crate) fn add(&mut self, terms: &PairTerms<W>) {
        self.phi += terms.phi;
        for a in 0..3 {
            self.dphi[a] += terms.dphi[a];
        }
        if let Some(d2phi) = &terms.d2phi {
            for (sum, term) in self.d2phi.iter_mut().zip(d2phi) {
                *sum += *term;
            }
        }
        for a in 0..3 {
            self.force[a] += terms.f_mono[a];
        }
        if let Some(f_qs) = &terms.f_qs {
            for a in 0..3 {
                self.force[a] += f_qs[a];
            }
        }
        if let Some(f_qt) = &terms.f_qt {
            for a in 0..3 {
                self.force[a] += f_qt[a];
                // The f_qt part is not captured by −∇φ·m; expose it
                // separately so drivers using the φ-gradient path can
                // add it.
                self.f_corr[a] += f_qt[a];
            }
        }
    }

    /// Lane `l`'s sums, every field.
    #[inline(always)]
    pub(crate) fn lane(&self, l: usize) -> LocalExpansion {
        let vec3 = |v: &[Lanes<W>; 3]| Vec3::new(v[0].lane(l), v[1].lane(l), v[2].lane(l));
        LocalExpansion {
            phi: self.phi.lane(l),
            dphi: vec3(&self.dphi),
            d2phi: self.d2phi.map(|x| x.lane(l)),
            force: vec3(&self.force),
            f_corr: vec3(&self.f_corr),
        }
    }
}

impl LocalExpansion {
    /// Accumulate the interaction of a source multipole `src` on a
    /// target with moments `tgt`, separated by `d = tgt.com − src.com`.
    ///
    /// The pair force (on the target) to consistent quadrupole order is
    ///
    ///   F = −m_t m_s B1 − ½ m_t (q_s:B3) − ½ m_s (q_t:B3).
    ///
    /// Every term is computed in a *canonical form* — `B·(−(m_t·m_s))`
    /// and `(q:B3)·(−0.5·m_other)` — so that when the mirrored call runs
    /// on the other cell (with d → −d, which negates the odd tensors
    /// bit-exactly), each term value cancels its counterpart exactly.
    /// Per-cell sums then leave only additive round-off, which is the
    /// machine-precision momentum conservation of the paper.
    pub fn accumulate(&mut self, tgt: &Multipole, src: &Multipole, d: Vec3) {
        self.accumulate_softened(tgt, src, d, 0.0);
    }

    /// [`LocalExpansion::accumulate`] with `soft` added to `r²` when
    /// evaluating the kernel tensors. `soft = 0` reproduces the exact
    /// interaction bit-for-bit; the branchless SoA kernels pass the mask
    /// complement so zero-weight slots stay finite (every accumulated
    /// term is linear in the source moments, which those kernels scale
    /// by the weight).
    pub fn accumulate_softened(&mut self, tgt: &Multipole, src: &Multipole, d: Vec3, soft: f64) {
        let one = |x: f64| Lanes([x]);
        let d = d.to_array().map(one);
        let terms = PairTerms::of::<true, true, true>(
            one(tgt.m),
            one(src.m),
            &tgt.q.map(one),
            &src.q.map(one),
            &KernelTensors::at_softened::<true>(d, one(soft)),
        );
        let mut sums = GroupSums::load([*self]);
        sums.add(&terms);
        *self = sums.lane(0);
    }

    /// L2L: translate this expansion by `delta` (from the parent cell's
    /// centre of mass to the child cell's). Only the *field* parts
    /// (φ, ∇φ, Hessian) translate; the per-cell force sums are
    /// level-local and are zeroed in the result — the solver applies
    /// them at the level where the interaction happened.
    pub fn translated(&self, delta: Vec3) -> LocalExpansion {
        let da = delta.to_array();
        // phi' = phi + dphi·δ + ½ δ·H·δ
        let mut quad = 0.0;
        let mut hdot = Vec3::ZERO;
        for (n, (a, b)) in SYM2.iter().enumerate() {
            let mult = if a == b { 1.0 } else { 2.0 };
            quad += mult * self.d2phi[n] * da[*a] * da[*b];
            hdot[*a] += self.d2phi[n] * da[*b];
            if a != b {
                hdot[*b] += self.d2phi[n] * da[*a];
            }
        }
        LocalExpansion {
            phi: self.phi + self.dphi.dot(delta) + 0.5 * quad,
            dphi: self.dphi + hdot,
            d2phi: self.d2phi,
            force: Vec3::ZERO,
            f_corr: Vec3::ZERO,
        }
    }

    /// Add another expansion (e.g. the translated parent expansion).
    pub fn add(&mut self, other: &LocalExpansion) {
        self.phi += other.phi;
        self.dphi += other.dphi;
        for n in 0..6 {
            self.d2phi[n] += other.d2phi[n];
        }
        self.force += other.force;
        self.f_corr += other.f_corr;
    }

    /// The acceleration this expansion exerts on the cell: −∇φ.
    pub fn acceleration(&self) -> Vec3 {
        -self.dphi
    }
}

#[cfg(test)]
impl LocalExpansion {
    /// Require every field to hold the same bit pattern as `other`'s.
    pub(crate) fn assert_same_bits(&self, other: &LocalExpansion, what: &str) {
        assert_eq!(self.phi.to_bits(), other.phi.to_bits(), "{what}: phi");
        for ax in 0..3 {
            assert_eq!(self.dphi[ax].to_bits(), other.dphi[ax].to_bits(), "{what}: dphi");
            assert_eq!(self.force[ax].to_bits(), other.force[ax].to_bits(), "{what}: force");
            assert_eq!(self.f_corr[ax].to_bits(), other.f_corr[ax].to_bits(), "{what}: f_corr");
        }
        for n in 0..6 {
            assert_eq!(self.d2phi[n].to_bits(), other.d2phi[n].to_bits(), "{what}: d2phi");
        }
    }

    /// What a `HESS = false` form must make of the pairs the full body
    /// makes `full` of: the same bits in every field it writes, and a
    /// `d2phi` it never touched.
    pub(crate) fn assert_same_bits_without_hessian(&self, full: &LocalExpansion, what: &str) {
        assert_eq!(self.d2phi.map(f64::to_bits), [0; 6], "{what}: d2phi was written");
        LocalExpansion { d2phi: full.d2phi, ..*self }.assert_same_bits(full, what);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monopole_pair_is_newtons_law() {
        let src = Multipole::monopole(3.0, Vec3::ZERO);
        let tgt = Multipole::monopole(2.0, Vec3::new(2.0, 0.0, 0.0));
        let mut l = LocalExpansion::default();
        l.accumulate(&tgt, &src, tgt.com - src.com);
        // φ = −m/r = −1.5; g = −∇φ points toward the source with
        // magnitude m/r² = 0.75.
        assert!((l.phi - (-1.5)).abs() < 1e-15);
        let g = l.acceleration();
        assert!((g.x - (-0.75)).abs() < 1e-15);
        assert!(g.y.abs() < 1e-15 && g.z.abs() < 1e-15);
        // Monopole pairs have no corrections.
        assert_eq!(l.f_corr, Vec3::ZERO);
    }

    #[test]
    fn pair_forces_cancel_to_machine_precision() {
        // The linear-momentum property: every force *term* cancels its
        // mirror exactly; the per-cell three-term sums leave only a few
        // ulps of additive round-off.
        let a = Multipole {
            m: 2.5,
            com: Vec3::new(0.1, -0.2, 0.3),
            q: [0.4, 0.3, 0.2, 0.1, -0.05, 0.02],
        };
        let b = Multipole {
            m: 1.5,
            com: Vec3::new(3.1, 1.2, -0.7),
            q: [0.2, 0.1, 0.3, -0.1, 0.04, 0.03],
        };
        let d = a.com - b.com;
        let mut la = LocalExpansion::default();
        la.accumulate(&a, &b, d);
        let mut lb = LocalExpansion::default();
        lb.accumulate(&b, &a, -d);
        let residual = (la.force + lb.force).norm();
        let scale = la.force.norm();
        assert!(
            residual <= 8.0 * f64::EPSILON * scale,
            "momentum residual {residual} at force scale {scale}"
        );
    }

    #[test]
    fn monopole_pair_forces_cancel_bit_exactly() {
        // With no quadrupoles there is a single force term per side, and
        // cancellation is bit-exact.
        let a = Multipole::monopole(2.5, Vec3::new(0.1, -0.2, 0.3));
        let b = Multipole::monopole(1.5, Vec3::new(3.1, 1.2, -0.7));
        let d = a.com - b.com;
        let mut la = LocalExpansion::default();
        la.accumulate(&a, &b, d);
        let mut lb = LocalExpansion::default();
        lb.accumulate(&b, &a, -d);
        for axis in 0..3 {
            assert_eq!(la.force[axis].to_bits(), (-lb.force[axis]).to_bits());
        }
    }

    /// One pair of moments: target mass, source mass, target and source
    /// second moments, separation.
    type Pair = (f64, f64, [f64; 6], [f64; 6], Vec3);

    /// `pairs` in ring order from `first`, accumulated from a fresh
    /// expansion through the form `<QS, QT, HESS>`.
    fn run<const QS: bool, const QT: bool, const HESS: bool>(
        pairs: &[Pair],
        first: usize,
    ) -> LocalExpansion {
        let one = |x: f64| Lanes([x]);
        let mut sums = GroupSums::load([LocalExpansion::default()]);
        for n in 0..pairs.len() {
            let (mt, ms, qt, qs, d) = pairs[(first + n) % pairs.len()];
            let d = d.to_array().map(one);
            let t = KernelTensors::at_softened::<HESS>(d, one(0.0));
            let (qt, qs) = (qt.map(one), qs.map(one));
            sums.add(&PairTerms::of::<QS, QT, HESS>(one(mt), one(ms), &qt, &qs, &t));
        }
        sums.lane(0)
    }

    /// The seven reduced instantiations against the full one on pairs
    /// without second moments — zero masses and `−0.0` components
    /// included — accumulated into one expansion each from a fresh
    /// start: every field a form writes ends on the same bits (the
    /// signed-zero and unread-field arguments on [`PairTerms::of`]).
    #[test]
    fn reduced_form_adds_the_same_bits_where_no_quadrupole_is() {
        let pairs: [Pair; 4] = [
            (2.5, 1.5, [0.0; 6], [0.0; 6], Vec3::new(-3.0, -1.4, 1.0)),
            (2.5, 0.0, [0.0; 6], [-0.0; 6], Vec3::new(1.0, 2.0, -0.5)),
            (0.0, 1.5, [-0.0; 6], [0.0; 6], Vec3::new(0.3, -0.7, 4.0)),
            (1.25, 3.0, [-0.0; 6], [-0.0; 6], Vec3::new(-2.0, 0.1, 0.2)),
        ];
        for first in 0..pairs.len() {
            let what = format!("starting at pair {first}");
            let full = run::<true, true, true>(&pairs, first);
            for form in [
                run::<true, false, true>(&pairs, first),
                run::<false, true, true>(&pairs, first),
                run::<false, false, true>(&pairs, first),
            ] {
                form.assert_same_bits(&full, &what);
            }
            for form in [
                run::<true, true, false>(&pairs, first),
                run::<true, false, false>(&pairs, first),
                run::<false, true, false>(&pairs, first),
                run::<false, false, false>(&pairs, first),
            ] {
                form.assert_same_bits_without_hessian(&full, &what);
            }
        }
    }

    /// A one-sided form against the two-sided one, on pairs whose other
    /// side has no second moments (`±0.0`, zero masses included) while
    /// its own side has: `<true, false, H>` where `q_t = ±0`,
    /// `<false, true, H>` where `q_s = ±0`, each adding the bits of
    /// `<true, true, H>` at either `HESS`.
    #[test]
    fn one_sided_forms_add_the_same_bits_where_the_other_side_has_none() {
        let q = [0.4, -0.3, 0.2, 0.1, -0.05, 0.02];
        let q2 = [-0.1, 0.25, 0.05, -0.02, 0.0, 0.03];
        let (zero, neg) = ([0.0; 6], [-0.0, 0.0, -0.0, -0.0, 0.0, -0.0]);
        let d = [
            Vec3::new(-3.0, -1.4, 1.0),
            Vec3::new(1.0, 2.0, -0.5),
            Vec3::new(0.3, -0.7, 4.0),
            Vec3::new(-2.0, 0.1, 0.2),
        ];
        let source_side: [Pair; 4] = [
            (2.5, 1.5, zero, q, d[0]),
            (2.5, 0.0, neg, q2, d[1]),
            (0.0, 1.5, zero, q2, d[2]),
            (1.25, 3.0, neg, q, d[3]),
        ];
        let target_side: [Pair; 4] = source_side.map(|(mt, ms, qt, qs, d)| (ms, mt, qs, qt, d));
        for first in 0..4 {
            let what = format!("source side, starting at pair {first}");
            run::<true, false, true>(&source_side, first)
                .assert_same_bits(&run::<true, true, true>(&source_side, first), &what);
            run::<true, false, false>(&source_side, first)
                .assert_same_bits(&run::<true, true, false>(&source_side, first), &what);
            let what = format!("target side, starting at pair {first}");
            run::<false, true, true>(&target_side, first)
                .assert_same_bits(&run::<true, true, true>(&target_side, first), &what);
            run::<false, true, false>(&target_side, first)
                .assert_same_bits(&run::<true, true, false>(&target_side, first), &what);
        }
        // Both sides' quadrupoles reach the sums these compare: the
        // source's moves φ, the target's makes `f_corr`.
        let s = run::<true, false, true>(&source_side, 0);
        let t = run::<false, true, true>(&target_side, 0);
        assert!(s.phi != run::<false, false, true>(&source_side, 0).phi && s.f_corr == Vec3::ZERO);
        assert!(t.f_corr.norm() > 0.0);
    }

    #[test]
    fn quadrupole_field_matches_two_point_masses() {
        // Source: two points at ±1 on x, total m = 2. Its quadrupole
        // expansion evaluated far away must approach the exact field.
        let p1 = Multipole::monopole(1.0, Vec3::new(1.0, 0.0, 0.0));
        let p2 = Multipole::monopole(1.0, Vec3::new(-1.0, 0.0, 0.0));
        let combined = crate::multipole::Multipole::combine(&[p1, p2]);
        let target = Multipole::monopole(1.0, Vec3::new(10.0, 4.0, -3.0));

        let mut approx = LocalExpansion::default();
        approx.accumulate(&target, &combined, target.com - combined.com);

        let mut exact = LocalExpansion::default();
        exact.accumulate(&target, &p1, target.com - p1.com);
        exact.accumulate(&target, &p2, target.com - p2.com);

        let rel_phi = (approx.phi - exact.phi).abs() / exact.phi.abs();
        assert!(rel_phi < 1e-4, "phi error {rel_phi}");
        let rel_g = (approx.acceleration() - exact.acceleration()).norm()
            / exact.acceleration().norm();
        assert!(rel_g < 1e-3, "g error {rel_g}");
        // And the quadrupole must improve on the bare monopole.
        let mut mono = LocalExpansion::default();
        mono.accumulate(
            &target,
            &Multipole::monopole(combined.m, combined.com),
            target.com - combined.com,
        );
        let mono_err = (mono.phi - exact.phi).abs();
        let quad_err = (approx.phi - exact.phi).abs();
        assert!(quad_err < mono_err, "quadrupole must beat monopole");
    }

    #[test]
    fn translation_consistency() {
        // Evaluating the expansion at a shifted point via L2L must agree
        // with directly expanding about the shifted point (to the
        // truncation order).
        let src = Multipole::monopole(5.0, Vec3::ZERO);
        let base = Vec3::new(6.0, 2.0, -1.0);
        let delta = Vec3::new(0.05, -0.04, 0.03);
        let tgt0 = Multipole::monopole(1.0, base);
        let tgt1 = Multipole::monopole(1.0, base + delta);

        let mut at_base = LocalExpansion::default();
        at_base.accumulate(&tgt0, &src, base);
        let translated = at_base.translated(delta);

        let mut direct = LocalExpansion::default();
        direct.accumulate(&tgt1, &src, base + delta);

        assert!(
            (translated.phi - direct.phi).abs() < 1e-6 * direct.phi.abs(),
            "phi: {} vs {}",
            translated.phi,
            direct.phi
        );
        assert!(
            (translated.dphi - direct.dphi).norm() < 1e-3 * direct.dphi.norm(),
            "dphi: {:?} vs {:?}",
            translated.dphi,
            direct.dphi
        );
    }

    #[test]
    fn add_accumulates_all_parts() {
        let mut a = LocalExpansion {
            phi: 1.0,
            dphi: Vec3::new(1.0, 0.0, 0.0),
            d2phi: [1.0; 6],
            force: Vec3::new(2.0, 0.0, 0.0),
            f_corr: Vec3::new(0.5, 0.0, 0.0),
        };
        let b = a;
        a.add(&b);
        assert_eq!(a.phi, 2.0);
        assert_eq!(a.dphi.x, 2.0);
        assert_eq!(a.d2phi[3], 2.0);
        assert_eq!(a.force.x, 4.0);
        assert_eq!(a.f_corr.x, 1.0);
    }

    #[test]
    fn translation_zeroes_level_local_ledgers() {
        let mut a = LocalExpansion::default();
        let src = Multipole {
            m: 1.0,
            com: Vec3::ZERO,
            q: [0.1, 0.2, 0.3, 0.0, 0.0, 0.0],
        };
        let tgt = Multipole {
            m: 1.0,
            com: Vec3::new(5.0, 0.0, 0.0),
            q: [0.3, 0.2, 0.1, 0.0, 0.0, 0.0],
        };
        a.accumulate(&tgt, &src, tgt.com - src.com);
        assert!(a.force.norm() > 0.0);
        let t = a.translated(Vec3::new(0.1, 0.0, 0.0));
        assert_eq!(t.force, Vec3::ZERO);
        assert_eq!(t.f_corr, Vec3::ZERO);
    }
}
