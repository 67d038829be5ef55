//! Physical Euler fluxes and the Kurganov–Tadmor central numerical flux.
//!
//! "Octo-Tiger uses the central advection scheme of [Kurganov & Tadmor
//! 2000]" (§4.2): a Riemann-solver-free central scheme whose numerical
//! flux is the average of the physical fluxes of the reconstructed
//! left/right states plus local-signal-speed dissipation,
//!
//! F½ = ½ (F(u_L) + F(u_R)) − ½ a (u_R − u_L),  a = max(|u|+c).
//!
//! All 14 evolved fields travel through the same flux: passive scalars
//! and the spin fields advect with the flow ("evolved using the same
//! continuity equation that describes the evolution of the mass
//! density"); momentum carries the pressure term; total energy carries
//! the pressure-work term.

use crate::eos::IdealGas;
use crate::prim::{Primitive, PrimitiveLanes};
use octree::subgrid::{Field, FIELD_COUNT};
use util::simd::Lanes;

/// A full per-cell state (or flux) vector in field storage order.
pub type StateVec = [f64; FIELD_COUNT];

/// `W` state (or flux) vectors side by side, field-major.
pub(crate) type StateLanes<const W: usize> = [Lanes<W>; FIELD_COUNT];

/// The physical flux of `u` along `axis` (0 = x, 1 = y, 2 = z), plus the
/// local signal speed |u_axis| + c, for `W` states at once.
#[inline(always)]
pub(crate) fn physical_flux_lanes<const W: usize>(
    eos: &IdealGas,
    u: &StateLanes<W>,
    axis: usize,
) -> (StateLanes<W>, Lanes<W>) {
    let prim = PrimitiveLanes::from_conserved(
        eos,
        u[Field::Rho.idx()],
        [u[Field::Sx.idx()], u[Field::Sy.idx()], u[Field::Sz.idx()]],
        u[Field::Egas.idx()],
        u[Field::Tau.idx()],
    );
    let ua = prim.vel[axis];
    // Everything advects...
    let mut f = *u;
    for x in &mut f {
        *x = *x * ua;
    }
    // ...momentum additionally carries pressure...
    f[Field::Sx.idx() + axis] += prim.p;
    // ...and energy carries pressure work.
    f[Field::Egas.idx()] = (u[Field::Egas.idx()] + prim.p) * ua;
    (f, prim.signal_speed(eos, axis))
}

/// Kurganov–Tadmor numerical flux between `W` pairs of reconstructed
/// states: `left` on the minus side of the face, `right` on the plus
/// side.
#[inline(always)]
pub(crate) fn kt_flux_lanes<const W: usize>(
    eos: &IdealGas,
    left: &StateLanes<W>,
    right: &StateLanes<W>,
    axis: usize,
) -> StateLanes<W> {
    let (fl, al) = physical_flux_lanes(eos, left, axis);
    let (fr, ar) = physical_flux_lanes(eos, right, axis);
    let half_a = al.max(ar) * 0.5;
    let mut f = fl;
    for i in 0..FIELD_COUNT {
        f[i] = (fl[i] + fr[i]) * 0.5 - half_a * (right[i] - left[i]);
    }
    f
}

fn one_lane(u: &StateVec) -> StateLanes<1> {
    u.map(|x| Lanes([x]))
}

/// The physical flux of `u` along `axis` and its signal speed: the
/// one-lane instantiation of the flux the sweep evaluates in lanes.
pub fn physical_flux(eos: &IdealGas, u: &StateVec, axis: usize) -> (StateVec, f64) {
    let (f, a) = physical_flux_lanes(eos, &one_lane(u), axis);
    (f.map(|x| x.lane(0)), a.lane(0))
}

/// Kurganov–Tadmor numerical flux between reconstructed states `left`
/// (the minus side of the face) and `right` (the plus side): the
/// one-lane instantiation, as [`physical_flux`].
pub fn kt_flux(eos: &IdealGas, left: &StateVec, right: &StateVec, axis: usize) -> StateVec {
    kt_flux_lanes(eos, &one_lane(left), &one_lane(right), axis).map(|x| x.lane(0))
}

/// Build a state vector from a primitive plus tracer values (spin and
/// scalars zero). Test/setup helper.
pub fn state_from_primitive(eos: &IdealGas, p: &Primitive) -> StateVec {
    let (rho, s, egas, tau) = p.to_conserved(eos);
    let mut u = [0.0; FIELD_COUNT];
    u[Field::Rho.idx()] = rho;
    u[Field::Sx.idx()] = s.x;
    u[Field::Sy.idx()] = s.y;
    u[Field::Sz.idx()] = s.z;
    u[Field::Egas.idx()] = egas;
    u[Field::Tau.idx()] = tau;
    u
}

/// The scalar, branching primitive recovery and fluxes this crate had
/// before the lane-generic bodies, kept verbatim as the reference the
/// lanes are compared against bit for bit (here and by the sweep's
/// oracle in `step.rs`).
#[cfg(test)]
pub(crate) mod oracle {
    use super::StateVec;
    use crate::eos::{IdealGas, DUAL_ENERGY_SWITCH};
    use crate::prim::RHO_FLOOR;
    use octree::subgrid::{Field, FIELD_COUNT};
    use util::vec3::Vec3;

    pub(crate) fn physical_flux(eos: &IdealGas, u: &StateVec, axis: usize) -> (StateVec, f64) {
        let s = Vec3::new(u[Field::Sx.idx()], u[Field::Sy.idx()], u[Field::Sz.idx()]);
        let (egas, tau) = (u[Field::Egas.idx()], u[Field::Tau.idx()]);
        let rho = u[Field::Rho.idx()].max(RHO_FLOOR);
        let vel = s / rho;
        let e_kin = 0.5 * rho * vel.norm2();
        let e_thermal = egas - e_kin;
        let e_int = if egas > 0.0 && e_thermal > DUAL_ENERGY_SWITCH * egas {
            e_thermal
        } else {
            tau.max(0.0).powf(eos.gamma)
        };
        let e_int = e_int.max(0.0);
        let p = (eos.gamma - 1.0) * e_int.max(0.0);
        let ua = vel[axis];
        let mut f = [0.0; FIELD_COUNT];
        for i in 0..FIELD_COUNT {
            f[i] = u[i] * ua;
        }
        f[Field::Sx.idx() + axis] += p;
        f[Field::Egas.idx()] = (u[Field::Egas.idx()] + p) * ua;
        let c = if rho <= 0.0 { 0.0 } else { (eos.gamma * p.max(0.0) / rho).sqrt() };
        (f, vel[axis].abs() + c)
    }

    pub(crate) fn kt_flux(
        eos: &IdealGas,
        left: &StateVec,
        right: &StateVec,
        axis: usize,
    ) -> StateVec {
        let (fl, al) = physical_flux(eos, left, axis);
        let (fr, ar) = physical_flux(eos, right, axis);
        let a = al.max(ar);
        let mut f = [0.0; FIELD_COUNT];
        for i in 0..FIELD_COUNT {
            f[i] = 0.5 * (fl[i] + fr[i]) - 0.5 * a * (right[i] - left[i]);
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::same_bits;
    use proptest::prelude::*;
    use util::vec3::Vec3;

    proptest! {
        /// Four unrelated state pairs in one lane bundle — floored and
        /// ordinary densities, both sides of the dual-energy switch,
        /// raw bit patterns — against the scalar oracle, lane by lane.
        #[test]
        fn lanes_match_the_branching_oracle(
            tame in proptest::collection::vec(1e-3f64..10.0, 8 * FIELD_COUNT),
            wild in proptest::collection::vec(proptest::num::f64::ANY, 8 * FIELD_COUNT),
            pick in any::<u64>(),
        ) {
            let eos = IdealGas::monatomic();
            // State `n` of 8 (4 lanes x left/right): mostly tame values,
            // a wild one where `pick` says so. Even states crawl (thermal
            // energy resolved), odd ones move fast enough to sit under
            // the dual-energy switch, so every bundle takes both branches.
            let momentum = Field::Sx.idx()..=Field::Sz.idx();
            let state = |n: usize| -> StateVec {
                std::array::from_fn(|f| {
                    let i = n * FIELD_COUNT + f;
                    if pick >> (i % 64) & 1 == 1 && pick >> (n + 50) & 1 == 1 {
                        wild[i]
                    } else if momentum.contains(&f) {
                        tame[i] * if n % 2 == 1 { 1e3 } else { 1e-3 }
                    } else {
                        tame[i]
                    }
                })
            };
            let bundle = |side: usize| -> StateLanes<4> {
                std::array::from_fn(|f| Lanes(std::array::from_fn(|l| state(2 * l + side)[f])))
            };
            let (left, right) = (bundle(0), bundle(1));
            for axis in 0..3 {
                let got = kt_flux_lanes(&eos, &left, &right, axis);
                let (pf, pa) = physical_flux_lanes(&eos, &left, axis);
                for l in 0..4 {
                    let (sl, sr) = (state(2 * l), state(2 * l + 1));
                    let want = oracle::kt_flux(&eos, &sl, &sr, axis);
                    let one = kt_flux(&eos, &sl, &sr, axis);
                    let (wf, wa) = oracle::physical_flux(&eos, &sl, axis);
                    prop_assert!(same_bits(pa.lane(l), wa), "signal speed of {sl:?}");
                    for f in 0..FIELD_COUNT {
                        prop_assert!(same_bits(got[f].lane(l), want[f]), "kt field {f}: {sl:?} | {sr:?}");
                        prop_assert!(same_bits(one[f], want[f]), "one-lane kt field {f}");
                        prop_assert!(same_bits(pf[f].lane(l), wf[f]), "flux field {f}: {sl:?}");
                    }
                }
            }
        }
    }

    fn state(rho: f64, v: Vec3, e_int: f64) -> StateVec {
        let eos = IdealGas::monatomic();
        state_from_primitive(
            &eos,
            &Primitive { rho, vel: v, p: eos.pressure(e_int), e_int },
        )
    }

    #[test]
    fn flux_of_static_gas_is_pure_pressure() {
        let eos = IdealGas::monatomic();
        let u = state(1.0, Vec3::ZERO, 3.0);
        for axis in 0..3 {
            let (f, a) = physical_flux(&eos, &u, axis);
            assert_eq!(f[Field::Rho.idx()], 0.0);
            assert_eq!(f[Field::Egas.idx()], 0.0);
            // Only the momentum component along `axis` carries pressure.
            for other in 0..3 {
                let v = f[Field::Sx.idx() + other];
                if other == axis {
                    assert!((v - eos.pressure(3.0)).abs() < 1e-14);
                } else {
                    assert_eq!(v, 0.0);
                }
            }
            assert!(a > 0.0, "sound speed must be positive");
        }
    }

    #[test]
    fn advective_flux_scales_with_velocity() {
        let eos = IdealGas::monatomic();
        let u = state(2.0, Vec3::new(3.0, 0.0, 0.0), 1.0);
        let (f, _) = physical_flux(&eos, &u, 0);
        assert!((f[Field::Rho.idx()] - 6.0).abs() < 1e-14);
        // s_x u + p = 2*3*3 + (2/3)*1.
        assert!((f[Field::Sx.idx()] - (18.0 + 2.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn kt_flux_of_identical_states_is_physical_flux() {
        let eos = IdealGas::monatomic();
        let u = state(1.5, Vec3::new(0.5, -0.25, 0.1), 2.0);
        for axis in 0..3 {
            let (f, _) = physical_flux(&eos, &u, axis);
            let kt = kt_flux(&eos, &u, &u, axis);
            for i in 0..FIELD_COUNT {
                assert!((kt[i] - f[i]).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn kt_flux_dissipates_jumps() {
        // A density jump with identical velocity/pressure: the KT flux
        // must transport mass from high to low density (upwinding via
        // the dissipation term).
        let eos = IdealGas::monatomic();
        let l = state(2.0, Vec3::ZERO, 1.0);
        let r = state(1.0, Vec3::ZERO, 1.0);
        let f = kt_flux(&eos, &l, &r, 0);
        assert!(
            f[Field::Rho.idx()] > 0.0,
            "mass must flow toward the low-density side"
        );
    }

    #[test]
    fn passive_scalars_advect_with_the_flow() {
        let eos = IdealGas::monatomic();
        let mut u = state(1.0, Vec3::new(2.0, 0.0, 0.0), 1.0);
        u[Field::DonorCore.idx()] = 0.25;
        let (f, _) = physical_flux(&eos, &u, 0);
        assert!((f[Field::DonorCore.idx()] - 0.5).abs() < 1e-14);
        // Spin fields advect the same way.
        u[Field::Lz.idx()] = 4.0;
        let (f, _) = physical_flux(&eos, &u, 0);
        assert!((f[Field::Lz.idx()] - 8.0).abs() < 1e-14);
    }

    #[test]
    fn flux_is_antisymmetric_under_velocity_reversal() {
        let eos = IdealGas::monatomic();
        let up = state(1.0, Vec3::new(1.0, 0.0, 0.0), 2.0);
        let un = state(1.0, Vec3::new(-1.0, 0.0, 0.0), 2.0);
        let (fp, _) = physical_flux(&eos, &up, 0);
        let (fn_, _) = physical_flux(&eos, &un, 0);
        assert!((fp[Field::Rho.idx()] + fn_[Field::Rho.idx()]).abs() < 1e-14);
        assert!((fp[Field::Egas.idx()] + fn_[Field::Egas.idx()]).abs() < 1e-14);
        // Momentum flux (ρu² + p) is symmetric instead.
        assert!((fp[Field::Sx.idx()] - fn_[Field::Sx.idx()]).abs() < 1e-14);
    }
}
