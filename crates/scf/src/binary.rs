//! The V1309 Scorpii initial model (paper §3, §6).
//!
//! "The initial model of our V1309 simulation includes a 1.54 M⊙
//! primary and a 0.17 M⊙ secondary. Each have helium cores and solar
//! composition envelopes, and there is a common envelope surrounding
//! both stars. ... The grid is rotating about the z-axis with a period
//! of 1.42 days. ... The system parameters are chosen such that the
//! spin angular momentum just barely exceeds one third of the orbital
//! angular momentum" (the Darwin instability threshold).
//!
//! **Substitution note** (see DESIGN.md): the production initial model
//! is built by the full SCF solver coupled to the FMM; at laptop scale
//! we superpose two tidally truncated polytropes (tidal radii from the
//! Eggleton Roche-lobe formula), a common envelope, and the synchronous
//! (rigid) rotation field, which exercises the identical code paths —
//! AMR painting, passive-scalar tagging, rotating frame — and yields an
//! approximately stationary configuration in the co-rotating frame.

use crate::lane_emden::Polytrope;
use hydro::eos::IdealGas;
use octree::geometry::Domain;
use octree::subgrid::Field;
use octree::tree::Octree;
use util::units::{kepler_omega, v1309};
use util::vec3::Vec3;

/// Eggleton's Roche-lobe radius fraction `r_L / a` for mass ratio `q`.
pub fn eggleton_roche_fraction(q: f64) -> f64 {
    assert!(q > 0.0, "mass ratio must be positive");
    let q23 = q.powf(2.0 / 3.0);
    let q13 = q.powf(1.0 / 3.0);
    0.49 * q23 / (0.6 * q23 + (1.0 + q13).ln())
}

/// The painted vacuum density, pinned to the hydro density floor.
///
/// Two construction bugs hid here while the binary config paths were
/// dead. First, the old value (1e-12) was so heavy that on the full
/// V1309 domain (1020³) the "vacuum" integrated to ~1.06 — more than a
/// third of the system mass and six times the donor. Second, any
/// atmosphere above the floor is free to accelerate: on a rotating
/// grid the centrifugal force at the domain edge is unbalanced, so the
/// far field immediately streams through the outflow boundary and
/// leaks mass and angular momentum at rates far above the registry's
/// machine-precision gates. At exactly [`hydro::prim::RHO_FLOOR`] the
/// far field is floor-pinned instead: centrifugal divergence pulls a
/// cell below the floor, `enforce_floors` refills it and re-zeroes its
/// momentum (ledger-compensated), and the boundary stays quiet.
pub const ATMOSPHERE_RHO: f64 = hydro::prim::RHO_FLOOR;

/// The binary initial model.
#[derive(Debug, Clone)]
pub struct BinaryModel {
    pub primary: Polytrope,
    pub secondary: Polytrope,
    pub primary_pos: Vec3,
    pub secondary_pos: Vec3,
    /// Orbital / grid angular velocity (code units).
    pub omega: f64,
    /// Core radius fraction (helium cores).
    pub core_fraction: f64,
    /// Atmosphere floor density.
    pub atmosphere_rho: f64,
    /// Common-envelope density scale (adds a shared halo around both).
    pub envelope_rho: f64,
}

impl BinaryModel {
    /// The §6 configuration: M₁ = 1.54, M₂ = 0.17 M⊙, a = 6.37 R⊙,
    /// components sized to (approximately) fill their Roche lobes.
    pub fn v1309() -> BinaryModel {
        let (m1, m2, a) = (v1309::M_PRIMARY, v1309::M_SECONDARY, v1309::SEPARATION);
        let m_total = m1 + m2;
        let r2 = eggleton_roche_fraction(m2 / m1) * a;
        // The primary is a contact-ish giant: near its own lobe.
        let r1 = 0.9 * eggleton_roche_fraction(m1 / m2) * a;
        BinaryModel {
            primary: Polytrope::new(m1, r1, 1.5),
            secondary: Polytrope::new(m2, r2, 1.5),
            primary_pos: Vec3::new(-a * m2 / m_total, 0.0, 0.0),
            secondary_pos: Vec3::new(a * m1 / m_total, 0.0, 0.0),
            omega: kepler_omega(m_total, a),
            core_fraction: 0.25,
            atmosphere_rho: ATMOSPHERE_RHO,
            envelope_rho: 1.0e-6,
        }
    }

    /// Scaled-down variant for tests/examples: same structure on a
    /// small domain and coarse tree.
    pub fn scaled(m1: f64, m2: f64, a: f64) -> BinaryModel {
        let m_total = m1 + m2;
        let r2 = eggleton_roche_fraction(m2 / m1) * a;
        let r1 = 0.9 * eggleton_roche_fraction(m1 / m2) * a;
        BinaryModel {
            primary: Polytrope::new(m1, r1, 1.5),
            secondary: Polytrope::new(m2, r2, 1.5),
            primary_pos: Vec3::new(-a * m2 / m_total, 0.0, 0.0),
            secondary_pos: Vec3::new(a * m1 / m_total, 0.0, 0.0),
            omega: kepler_omega(m_total, a),
            core_fraction: 0.25,
            atmosphere_rho: ATMOSPHERE_RHO,
            envelope_rho: 1.0e-6,
        }
    }

    /// Density at a point: stars + common envelope + atmosphere floor.
    ///
    /// The envelope is truncated (smoothly, C∞) at twice the orbital
    /// separation: a contact binary's common envelope fills the Roche
    /// potential out to the outer Lagrangian region — it does not
    /// extend as an exponential halo to the domain boundary. Without
    /// the cutoff the envelope still carries ~1e-10 of density at the
    /// edge of the mini-binary domain, where the centrifugal force is
    /// unbalanced; the outflow boundary then strips it from step one
    /// and the conservation gates measure boundary leakage (~1e-8 of
    /// mass, ~1e-10 of L_z per step) instead of the interior scheme.
    pub fn density(&self, p: Vec3) -> f64 {
        let d1 = (p - self.primary_pos).norm();
        let d2 = (p - self.secondary_pos).norm();
        let star = self.primary.rho(d1) + self.secondary.rho(d2);
        // Common envelope: an exponential halo around both components,
        // tapered to nothing beyond ~2a from the centre of mass.
        let scale = self.primary.radius;
        let r_cut = 2.0 * (self.secondary_pos - self.primary_pos).norm();
        let taper = (-(p.norm() / r_cut).powi(6)).exp();
        let env =
            self.envelope_rho * ((-d1 / scale).exp() + (-d2 / scale).exp()) * taper;
        (star + env).max(self.atmosphere_rho)
    }

    /// Internal energy density at a point (stellar interiors polytropic;
    /// envelope/atmosphere at a warm floor to keep pressures positive).
    pub fn e_int(&self, p: Vec3) -> f64 {
        let d1 = (p - self.primary_pos).norm();
        let d2 = (p - self.secondary_pos).norm();
        let star = self.primary.e_int(d1) + self.secondary.e_int(d2);
        let floor = self.density(p) * 1.0e-3;
        star.max(floor)
    }

    /// Velocity of the (tidally synchronized) flow at a point, in the
    /// *inertial* frame: rigid rotation Ω ẑ × r.
    pub fn velocity_inertial(&self, p: Vec3) -> Vec3 {
        Vec3::new(-self.omega * p.y, self.omega * p.x, 0.0)
    }

    /// Passive-scalar fractions at a point, in the order
    /// (accretor core, accretor envelope, donor core, donor envelope,
    /// atmosphere); they sum to 1.
    pub fn fractions(&self, p: Vec3) -> [f64; 5] {
        let d1 = (p - self.primary_pos).norm();
        let d2 = (p - self.secondary_pos).norm();
        let rho1 = self.primary.rho(d1);
        let rho2 = self.secondary.rho(d2);
        let total = rho1 + rho2;
        if total <= self.atmosphere_rho {
            return [0.0, 0.0, 0.0, 0.0, 1.0];
        }
        let mut f = [0.0; 5];
        let w1 = rho1 / total;
        let w2 = rho2 / total;
        if d1 < self.core_fraction * self.primary.radius {
            f[0] = w1;
        } else {
            f[1] = w1;
        }
        if d2 < self.core_fraction * self.secondary.radius {
            f[2] = w2;
        } else {
            f[3] = w2;
        }
        f
    }

    /// Total spin : orbital angular momentum ratio (the Darwin
    /// instability diagnostic of §3): rigid spins I₁Ω + I₂Ω against
    /// μ a² Ω.
    pub fn spin_to_orbital(&self) -> f64 {
        // Moment of inertia of an n = 3/2 polytrope: ≈ 0.205 M R².
        let kappa = 0.205;
        let spin = kappa
            * (self.primary.mass * self.primary.radius.powi(2)
                + self.secondary.mass * self.secondary.radius.powi(2));
        let m_total = self.primary.mass + self.secondary.mass;
        let mu = self.primary.mass * self.secondary.mass / m_total;
        let a = (self.primary_pos - self.secondary_pos).norm();
        spin / (mu * a * a)
    }

    /// Paint the model onto every leaf of `tree` (conserved variables
    /// plus passive scalars), using `eos` for the entropy tracer. The
    /// momenta are the *inertial-frame* ones, as Octo-Tiger evolves
    /// inertial momenta on a rotating grid.
    pub fn paint(&self, tree: &mut Octree, eos: &IdealGas) {
        assert!(tree.has_grids(), "painting needs grid data");
        let domain: Domain = tree.domain();
        for key in tree.leaves() {
            let node = tree.node_mut(key).expect("leaf exists");
            let grid = node.grid.as_mut().expect("leaf grid");
            for (i, j, k) in grid.indexer().interior() {
                let c = domain.cell_center(key, i, j, k);
                let rho = self.density(c);
                let e_int = self.e_int(c);
                let v = self.velocity_inertial(c);
                let fr = self.fractions(c);
                grid.set(Field::Rho, i, j, k, rho);
                grid.set(Field::Sx, i, j, k, rho * v.x);
                grid.set(Field::Sy, i, j, k, rho * v.y);
                grid.set(Field::Sz, i, j, k, rho * v.z);
                grid.set(Field::Egas, i, j, k, e_int + 0.5 * rho * v.norm2());
                grid.set(Field::Tau, i, j, k, eos.tau_from_e(e_int));
                grid.set(Field::AccretorCore, i, j, k, rho * fr[0]);
                grid.set(Field::AccretorEnv, i, j, k, rho * fr[1]);
                grid.set(Field::DonorCore, i, j, k, rho * fr[2]);
                grid.set(Field::DonorEnv, i, j, k, rho * fr[3]);
                grid.set(Field::Atmosphere, i, j, k, rho * fr[4]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eggleton_known_values() {
        // q = 1: r_L/a ≈ 0.379.
        assert!((eggleton_roche_fraction(1.0) - 0.379).abs() < 0.002);
        // Monotone in q.
        assert!(eggleton_roche_fraction(0.1) < eggleton_roche_fraction(1.0));
        assert!(eggleton_roche_fraction(10.0) > eggleton_roche_fraction(1.0));
    }

    #[test]
    fn v1309_geometry_matches_paper() {
        let b = BinaryModel::v1309();
        let sep = (b.primary_pos - b.secondary_pos).norm();
        assert!((sep - 6.37).abs() < 1e-12);
        // Centre of mass at the origin.
        let com = b.primary_pos * b.primary.mass + b.secondary_pos * b.secondary.mass;
        assert!(com.norm() < 1e-10);
        // Orbital period ≈ 1.42 days.
        let u = util::units::UnitSystem::solar();
        let period = u.code_to_days(2.0 * std::f64::consts::PI / b.omega);
        assert!((period - 1.42).abs() < 0.08, "period {period} d");
    }

    #[test]
    fn darwin_instability_threshold() {
        // §3: the spin angular momentum just barely exceeds one third of
        // the orbital angular momentum. Our model should be in that
        // neighbourhood (0.2–0.6).
        let b = BinaryModel::v1309();
        let ratio = b.spin_to_orbital();
        assert!(
            (0.15..0.8).contains(&ratio),
            "spin/orbital = {ratio}, expected near the 1/3 Darwin threshold"
        );
    }

    #[test]
    fn density_peaks_at_the_cores() {
        let b = BinaryModel::v1309();
        let at_primary = b.density(b.primary_pos);
        let at_secondary = b.density(b.secondary_pos);
        let far = b.density(Vec3::new(300.0, 0.0, 0.0));
        // The compact donor is centrally denser than the bloated giant
        // (M/R³: 0.17/1.36³ > 1.54/3.27³) — both dwarf the atmosphere.
        assert!(at_secondary > at_primary);
        assert_eq!(far, b.atmosphere_rho);
        assert!(at_primary > 1e3 * far);
    }

    #[test]
    fn envelope_is_truncated_before_the_domain_boundary() {
        // Regression: without the C∞ taper at 2a the common envelope
        // still carries ~5e-10 of density at the mini-binary outflow
        // boundary (12 code units from the centre), which the rotating
        // frame strips from step one — the registry's conservation
        // gates then measure boundary leakage, not the interior scheme.
        let b = BinaryModel::scaled(1.0, 0.3, 3.0);
        let edge = Vec3::new(12.0, 0.0, 0.0);
        let scale = b.primary.radius;
        let d1 = (edge - b.primary_pos).norm();
        let d2 = (edge - b.secondary_pos).norm();
        let untapered = b.envelope_rho * ((-d1 / scale).exp() + (-d2 / scale).exp());
        assert!(
            untapered > 1e2 * b.atmosphere_rho,
            "witness lost: untapered envelope {untapered:.3e} no longer dwarfs the floor"
        );
        assert_eq!(b.density(edge), b.atmosphere_rho);
        // ... while between the stars the envelope must survive intact.
        let near = Vec3::new(0.0, 2.0, 0.0);
        assert!(b.density(near) > 10.0 * b.atmosphere_rho);
    }

    #[test]
    fn atmosphere_sits_exactly_on_the_hydro_floor() {
        // Regression: any atmosphere above RHO_FLOOR is live gas — the
        // unbalanced centrifugal field at the domain edge accelerates
        // it through the outflow boundary and leaks mass and angular
        // momentum far above the gates. At exactly the floor the far
        // field is floor-pinned: `enforce_floors` refills and re-zeroes
        // it (ledger-compensated) and the boundary stays quiet.
        assert_eq!(ATMOSPHERE_RHO, hydro::prim::RHO_FLOOR);
        let b = BinaryModel::v1309();
        assert_eq!(b.density(Vec3::new(300.0, 0.0, 0.0)), hydro::prim::RHO_FLOOR);
    }

    #[test]
    fn fractions_partition_unity() {
        let b = BinaryModel::v1309();
        for p in [
            b.primary_pos,
            b.secondary_pos,
            Vec3::new(0.0, 1.0, 0.5),
            Vec3::new(100.0, 0.0, 0.0),
        ] {
            let f = b.fractions(p);
            let sum: f64 = f.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "fractions at {p:?} sum to {sum}");
            assert!(f.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
        // Core tagging at the very centres.
        assert!(b.fractions(b.primary_pos)[0] > 0.9);
        assert!(b.fractions(b.secondary_pos)[2] > 0.5);
    }

    #[test]
    fn synchronous_velocity_field() {
        let b = BinaryModel::v1309();
        let v = b.velocity_inertial(b.secondary_pos);
        // Rigid rotation: v = Ω × r, magnitude Ω·|x|.
        assert!((v.norm() - b.omega * b.secondary_pos.x.abs()).abs() < 1e-12);
        assert!(v.x.abs() < 1e-12, "velocity is tangential");
    }

    #[test]
    fn paint_fills_tree_conservatively() {
        let b = BinaryModel::scaled(1.0, 0.3, 2.0);
        let mut tree = Octree::new(Domain::new(16.0));
        tree.refine_where(2, |d, k| {
            let c = d.node_center(k);
            let half = d.node_extent(k.level) / 2.0;
            (c - b.primary_pos).norm() < 2.0 + half * 2.0
                || (c - b.secondary_pos).norm() < 2.0 + half * 2.0
        });
        let eos = IdealGas::monatomic();
        b.paint(&mut tree, &eos);
        // Total mass on the tree approximates the binary mass (coarse
        // grid: generous tolerance, but the right order).
        let domain = tree.domain();
        let mut mass = 0.0;
        for key in tree.leaves() {
            let grid = tree.node(key).unwrap().grid.as_ref().unwrap();
            mass += grid.interior_sum(Field::Rho) * domain.cell_volume(key.level);
        }
        assert!(
            (mass - 1.3).abs() / 1.3 < 0.5,
            "painted mass {mass} vs 1.3 (coarse-grid tolerance)"
        );
        // Scalars sum to rho everywhere.
        for key in tree.leaves() {
            let grid = tree.node(key).unwrap().grid.as_ref().unwrap();
            for (i, j, k) in grid.indexer().interior() {
                let rho = grid.at(Field::Rho, i, j, k);
                let sum = grid.at(Field::AccretorCore, i, j, k)
                    + grid.at(Field::AccretorEnv, i, j, k)
                    + grid.at(Field::DonorCore, i, j, k)
                    + grid.at(Field::DonorEnv, i, j, k)
                    + grid.at(Field::Atmosphere, i, j, k);
                assert!((sum - rho).abs() < 1e-10 * rho, "scalar partition broken");
            }
        }
    }
}
