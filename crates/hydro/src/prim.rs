//! Conserved ↔ primitive conversion with the dual-energy switch.

use crate::eos::{IdealGas, DUAL_ENERGY_SWITCH};
use util::simd::Lanes;
use util::vec3::Vec3;

/// Density floor: cells never drain below this (the V1309 domain is
/// padded with a tenuous atmosphere; a hard floor keeps the far field
/// well-conditioned, as in Octo-Tiger).
pub const RHO_FLOOR: f64 = 1.0e-15;

/// Primitive hydrodynamic state of one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Primitive {
    pub rho: f64,
    pub vel: Vec3,
    /// Gas pressure.
    pub p: f64,
    /// Internal energy density ρε (consistent with `p` via the EOS).
    pub e_int: f64,
}

/// `W` primitive states side by side — the one body of the recovery;
/// [`Primitive::from_conserved`] is its `W = 1` instantiation.
pub(crate) struct PrimitiveLanes<const W: usize> {
    pub rho: Lanes<W>,
    pub vel: [Lanes<W>; 3],
    pub p: Lanes<W>,
    pub e_int: Lanes<W>,
}

impl<const W: usize> PrimitiveLanes<W> {
    /// Recover primitives from conserved (ρ, s, E, τ) using the
    /// dual-energy formalism: if the thermally resolved fraction of E is
    /// too small (high Mach), internal energy comes from the entropy
    /// tracer τ instead of E − ½ρu². The `powf` behind τ^γ is the scalar
    /// libm call, made on exactly the lanes that take that branch.
    #[inline(always)]
    pub fn from_conserved(
        eos: &IdealGas,
        rho: Lanes<W>,
        s: [Lanes<W>; 3],
        egas: Lanes<W>,
        tau: Lanes<W>,
    ) -> Self {
        let zero = Lanes::splat(0.0);
        let rho = rho.max(Lanes::splat(RHO_FLOOR));
        let vel = s.map(|c| c / rho);
        let e_kin = rho * 0.5 * (vel[0] * vel[0] + vel[1] * vel[1] + vel[2] * vel[2]);
        let e_thermal = egas - e_kin;
        let positive = egas.gt(zero);
        let resolved = e_thermal.gt(egas * DUAL_ENERGY_SWITCH);
        let mut e_int = e_thermal;
        for l in 0..W {
            if !(positive[l] && resolved[l]) {
                e_int.0[l] = eos.e_from_tau(tau.0[l]);
            }
        }
        let e_int = e_int.max(zero);
        PrimitiveLanes { rho, vel, p: eos.pressure_lanes(e_int), e_int }
    }

    /// Signal speed along axis `axis`: |u| + c.
    #[inline(always)]
    pub fn signal_speed(&self, eos: &IdealGas, axis: usize) -> Lanes<W> {
        self.vel[axis].abs() + eos.sound_speed_lanes(self.rho, self.p)
    }
}

impl Primitive {
    /// Recover primitives from conserved (ρ, s, E, τ) with the
    /// dual-energy switch: the `W = 1` instantiation of the lane-generic
    /// recovery the flux kernel runs.
    pub fn from_conserved(eos: &IdealGas, rho: f64, s: Vec3, egas: f64, tau: f64) -> Primitive {
        let one = |x: f64| Lanes([x]);
        let w = PrimitiveLanes::from_conserved(
            eos,
            one(rho),
            s.to_array().map(one),
            one(egas),
            one(tau),
        );
        Primitive {
            rho: w.rho.lane(0),
            vel: Vec3::from_array(w.vel.map(|c| c.lane(0))),
            p: w.p.lane(0),
            e_int: w.e_int.lane(0),
        }
    }

    /// Conserved variables (ρ, s, E, τ) of this state.
    pub fn to_conserved(&self, eos: &IdealGas) -> (f64, Vec3, f64, f64) {
        let s = self.vel * self.rho;
        let egas = self.e_int + 0.5 * self.rho * self.vel.norm2();
        (self.rho, s, egas, eos.tau_from_e(self.e_int))
    }

    /// Signal speed along axis `axis`: |u| + c.
    pub fn signal_speed(&self, eos: &IdealGas, axis: usize) -> f64 {
        self.vel[axis].abs() + eos.sound_speed(self.rho, self.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_low_mach() {
        let eos = IdealGas::monatomic();
        let p0 = Primitive {
            rho: 1.0,
            vel: Vec3::new(0.1, -0.2, 0.05),
            p: eos.pressure(2.0),
            e_int: 2.0,
        };
        let (rho, s, e, tau) = p0.to_conserved(&eos);
        let p1 = Primitive::from_conserved(&eos, rho, s, e, tau);
        assert!((p1.rho - p0.rho).abs() < 1e-14);
        assert!((p1.vel - p0.vel).norm() < 1e-14);
        assert!((p1.e_int - p0.e_int).abs() < 1e-12);
    }

    #[test]
    fn high_mach_uses_entropy() {
        let eos = IdealGas::monatomic();
        // Kinetic energy vastly dominates: e_int = 1e-12, v = 1000.
        let p0 = Primitive {
            rho: 1.0,
            vel: Vec3::new(1000.0, 0.0, 0.0),
            p: eos.pressure(1e-12),
            e_int: 1e-12,
        };
        let (rho, s, e, tau) = p0.to_conserved(&eos);
        // Corrupt E slightly (as cancellation would): the recovered
        // internal energy must still come out right via tau.
        let p1 = Primitive::from_conserved(&eos, rho, s, e * (1.0 + 1e-9), tau);
        assert!(
            (p1.e_int - 1e-12).abs() < 1e-17,
            "entropy fallback failed: {} vs 1e-12",
            p1.e_int
        );
    }

    #[test]
    fn density_floor_applies() {
        let eos = IdealGas::monatomic();
        let p = Primitive::from_conserved(&eos, 0.0, Vec3::ZERO, 0.0, 0.0);
        assert_eq!(p.rho, RHO_FLOOR);
        assert_eq!(p.p, 0.0);
    }

    #[test]
    fn negative_thermal_energy_recovers_from_tau() {
        let eos = IdealGas::monatomic();
        let tau = eos.tau_from_e(0.5);
        let p = Primitive::from_conserved(&eos, 1.0, Vec3::new(10.0, 0.0, 0.0), 40.0, tau);
        // E - ke = 40 - 50 < 0: must fall back to tau.
        assert!((p.e_int - 0.5).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn roundtrip_random_states(rho in 1e-6f64..1e3,
                                   vx in -10.0f64..10.0, vy in -10.0f64..10.0, vz in -10.0f64..10.0,
                                   e_int in 1e-3f64..1e3) {
            let eos = IdealGas::new(1.4);
            let p0 = Primitive { rho, vel: Vec3::new(vx, vy, vz), p: eos.pressure(e_int), e_int };
            let (r, s, e, tau) = p0.to_conserved(&eos);
            let p1 = Primitive::from_conserved(&eos, r, s, e, tau);
            prop_assert!((p1.rho - rho).abs() < 1e-12 * rho);
            prop_assert!((p1.vel - p0.vel).norm() < 1e-10);
            // e_int either from E (fine here: moderate Mach) or tau.
            prop_assert!((p1.e_int - e_int).abs() < 1e-6 * e_int.max(1.0));
        }

        #[test]
        fn signal_speed_nonnegative(rho in 1e-6f64..1e3, v in -100.0f64..100.0, e in 0.0f64..1e3) {
            let eos = IdealGas::monatomic();
            let p = Primitive { rho, vel: Vec3::new(v, 0.0, 0.0), p: eos.pressure(e), e_int: e };
            for axis in 0..3 {
                prop_assert!(p.signal_speed(&eos, axis) >= 0.0);
            }
        }
    }
}
