//! Ideal-gas (γ-law) equation of state and the dual-energy entropy
//! tracer.
//!
//! Octo-Tiger's dual-energy formalism (§4.2, after Enzo) evolves both
//! the gas total energy E and an entropy tracer τ = (ρε)^(1/γ) (ρε the
//! internal energy density). In high-Mach flow, where E is dominated by
//! kinetic energy and E − ρu²/2 is catastrophically cancelled, the
//! internal energy is recovered from τ instead.

use util::simd::Lanes;

/// γ-law equation of state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdealGas {
    /// Adiabatic index γ (> 1).
    pub gamma: f64,
}

impl IdealGas {
    pub fn new(gamma: f64) -> IdealGas {
        assert!(gamma > 1.0, "gamma must exceed 1");
        IdealGas { gamma }
    }

    /// Monatomic ideal gas, γ = 5/3 — the paper's stellar matter EOS
    /// (Octo-Tiger's V1309 runs use n = 3/2 polytropic structure, which
    /// corresponds to γ = 5/3).
    pub fn monatomic() -> IdealGas {
        IdealGas::new(5.0 / 3.0)
    }

    /// Pressure from internal energy density ρε: `p = (γ−1) ρε`.
    #[inline]
    pub fn pressure(&self, e_int: f64) -> f64 {
        self.pressure_lanes(Lanes([e_int])).lane(0)
    }

    /// [`IdealGas::pressure`], per lane.
    #[inline(always)]
    pub(crate) fn pressure_lanes<const W: usize>(&self, e_int: Lanes<W>) -> Lanes<W> {
        e_int.max(Lanes::splat(0.0)) * (self.gamma - 1.0)
    }

    /// Internal energy density from pressure.
    #[inline]
    pub fn e_from_pressure(&self, p: f64) -> f64 {
        p / (self.gamma - 1.0)
    }

    /// Adiabatic sound speed `c = sqrt(γ p / ρ)`.
    #[inline]
    pub fn sound_speed(&self, rho: f64, p: f64) -> f64 {
        self.sound_speed_lanes(Lanes([rho]), Lanes([p])).lane(0)
    }

    /// [`IdealGas::sound_speed`], per lane (0 where `rho <= 0`).
    #[inline(always)]
    pub(crate) fn sound_speed_lanes<const W: usize>(
        &self,
        rho: Lanes<W>,
        p: Lanes<W>,
    ) -> Lanes<W> {
        let zero = Lanes::splat(0.0);
        Lanes::select(rho.le(zero), zero, (p.max(zero) * self.gamma / rho).sqrt())
    }

    /// The entropy tracer from internal energy density: τ = (ρε)^(1/γ).
    #[inline]
    pub fn tau_from_e(&self, e_int: f64) -> f64 {
        e_int.max(0.0).powf(1.0 / self.gamma)
    }

    /// Internal energy density from the entropy tracer: ρε = τ^γ.
    #[inline]
    pub fn e_from_tau(&self, tau: f64) -> f64 {
        tau.max(0.0).powf(self.gamma)
    }
}

/// Dual-energy switch threshold: when the thermal fraction
/// `(E − ρu²/2) / E` falls below this, use the entropy tracer
/// (Enzo's canonical value is ~1e-3; Octo-Tiger uses 1e-3 too; we keep
/// a slightly conservative 1e-3).
pub const DUAL_ENERGY_SWITCH: f64 = 1.0e-3;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pressure_energy_roundtrip() {
        let eos = IdealGas::monatomic();
        let e = 2.5;
        let p = eos.pressure(e);
        assert!((eos.e_from_pressure(p) - e).abs() < 1e-14);
        assert!((p - (2.0 / 3.0) * e).abs() < 1e-14);
    }

    #[test]
    fn tau_roundtrip() {
        let eos = IdealGas::new(1.4);
        for e in [1e-12, 1.0, 37.5, 1e8] {
            let tau = eos.tau_from_e(e);
            assert!((eos.e_from_tau(tau) - e).abs() < 1e-9 * e, "e = {e}");
        }
    }

    #[test]
    fn sound_speed_sane() {
        let eos = IdealGas::new(1.4);
        let c = eos.sound_speed(1.4, 1.0);
        assert!((c - 1.0).abs() < 1e-14);
        assert_eq!(eos.sound_speed(0.0, 1.0), 0.0);
        assert_eq!(eos.sound_speed(1.0, -1.0), 0.0);
    }

    #[test]
    fn negative_energy_clamps() {
        let eos = IdealGas::monatomic();
        assert_eq!(eos.pressure(-1.0), 0.0);
        assert_eq!(eos.tau_from_e(-1.0), 0.0);
        assert_eq!(eos.e_from_tau(-1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "gamma must exceed 1")]
    fn gamma_validated() {
        let _ = IdealGas::new(1.0);
    }

    proptest! {
        #[test]
        fn tau_is_monotone(e1 in 1e-6f64..1e6, e2 in 1e-6f64..1e6) {
            let eos = IdealGas::monatomic();
            prop_assert_eq!(e1 < e2, eos.tau_from_e(e1) < eos.tau_from_e(e2));
        }
    }
}
