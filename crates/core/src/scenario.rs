//! Scenario builders: the §4.2 verification problems and the V1309
//! production setup.

use crate::config::Config;
use hydro::eos::IdealGas;
use octree::geometry::Domain;
use octree::refine::BinaryRefine;
use octree::subgrid::Field;
use octree::tree::Octree;
use scf::binary::BinaryModel;
use scf::lane_emden::Polytrope;
use util::morton::MortonKey;
use util::vec3::Vec3;

/// A ready-to-run scenario: tree + config (+ the model that built it).
pub struct Scenario {
    pub name: &'static str,
    pub tree: Octree,
    pub config: Config,
    /// The binary model when the scenario is V1309-like.
    pub binary: Option<BinaryModel>,
}

/// Refine every leaf to `level` (uniform grid).
fn uniform_tree(domain: Domain, level: u8) -> Octree {
    let mut t = Octree::new(domain);
    t.refine_where(level, |_d, _k| true);
    t
}

/// A level-2 AMR tree: the (−,−,−) corner octant refined one level
/// deeper than the rest, 15 leaves — enough to split 4 ways along the
/// SFC while staying debug-build-sized.
fn corner_tree(domain: Domain) -> Octree {
    let mut t = Octree::new(domain);
    t.refine_where(2, |d, k| {
        let o = d.node_origin(k);
        k.level == 0 || (o.x < 0.0 && o.y < 0.0 && o.z < 0.0)
    });
    t
}

/// Convert painted inertial momenta to the co-rotating frame, where
/// the tidally locked binary is static: zero the momenta and remove the
/// kinetic energy (the internal energy is unchanged).
fn to_corotating(tree: &mut Octree) {
    for key in tree.leaves() {
        let node = tree.node_mut(key).expect("leaf");
        let grid = node.grid.as_mut().expect("grid");
        for (i, j, k) in grid.indexer().interior() {
            let rho = grid.at(Field::Rho, i, j, k).max(1e-300);
            let sx = grid.at(Field::Sx, i, j, k);
            let sy = grid.at(Field::Sy, i, j, k);
            let sz = grid.at(Field::Sz, i, j, k);
            let ke = 0.5 * (sx * sx + sy * sy + sz * sz) / rho;
            grid.add(Field::Egas, i, j, k, -ke);
            grid.set(Field::Sx, i, j, k, 0.0);
            grid.set(Field::Sy, i, j, k, 0.0);
            grid.set(Field::Sz, i, j, k, 0.0);
        }
    }
}

/// Fill a tree from pointwise (ρ, u, ρε) functions.
fn fill(
    tree: &mut Octree,
    eos: &IdealGas,
    f: impl Fn(Vec3) -> (f64, Vec3, f64),
) {
    let domain = tree.domain();
    for key in tree.leaves() {
        let node = tree.node_mut(key).expect("leaf");
        let grid = node.grid.as_mut().expect("grid");
        for (i, j, k) in grid.indexer().interior() {
            let c = domain.cell_center(key, i, j, k);
            let (rho, v, e_int) = f(c);
            grid.set(Field::Rho, i, j, k, rho);
            grid.set(Field::Sx, i, j, k, rho * v.x);
            grid.set(Field::Sy, i, j, k, rho * v.y);
            grid.set(Field::Sz, i, j, k, rho * v.z);
            grid.set(Field::Egas, i, j, k, e_int + 0.5 * rho * v.norm2());
            grid.set(Field::Tau, i, j, k, eos.tau_from_e(e_int));
        }
    }
}

impl Scenario {
    /// The Sod shock tube (§4.2 test 1): the classic left/right states
    /// split at x = 0 on a unit-ish domain, γ = 1.4. `level` sets the
    /// uniform resolution (16·2^(level−1) cells across).
    pub fn sod(level: u8) -> Scenario {
        Self::sod_on(uniform_tree(Domain::new(1.0), level), "sod")
    }

    /// The same split on the level-2 corner-refined AMR tree: hydro
    /// only, cheap enough to run several steps per cluster in a debug
    /// build.
    pub fn sod_amr() -> Scenario {
        Self::sod_on(corner_tree(Domain::new(1.0)), "sod_amr")
    }

    fn sod_on(mut tree: Octree, name: &'static str) -> Scenario {
        let eos = IdealGas::new(1.4);
        fill(&mut tree, &eos, |c| {
            if c.x < 0.0 {
                (1.0, Vec3::ZERO, eos.e_from_pressure(1.0))
            } else {
                (0.125, Vec3::ZERO, eos.e_from_pressure(0.1))
            }
        });
        Scenario {
            name,
            tree,
            config: Config { eos, ..Config::hydro_only() },
            binary: None,
        }
    }

    /// The Sedov–Taylor blast wave (§4.2 test 2): energy `e0` deposited
    /// in a small central sphere of a cold uniform medium, γ = 5/3.
    pub fn sedov(level: u8, e0: f64) -> Scenario {
        let eos = IdealGas::monatomic();
        let mut tree = uniform_tree(Domain::new(1.0), level);
        let dx = tree.domain().cell_dx(level);
        let r_inject = 2.0 * dx;
        let vol = 4.0 / 3.0 * std::f64::consts::PI * r_inject.powi(3);
        fill(&mut tree, &eos, |c| {
            let e_bg = 1e-8;
            let e = if c.norm() < r_inject { e0 / vol } else { e_bg };
            (1.0, Vec3::ZERO, e)
        });
        Scenario {
            name: "sedov",
            tree,
            config: Config { eos, ..Config::hydro_only() },
            binary: None,
        }
    }

    /// A single polytropic star in equilibrium at rest (§4.2 test 3):
    /// "we have substituted a single star in equilibrium at rest for
    /// the third test".
    pub fn single_star(level: u8) -> Scenario {
        Self::star_on(uniform_tree(Domain::new(8.0), level), Vec3::ZERO, Vec3::ZERO, "single_star")
    }

    /// The same star advecting through the grid (§4.2 test 4).
    pub fn moving_star(level: u8, velocity: Vec3) -> Scenario {
        Self::star_on(uniform_tree(Domain::new(8.0), level), Vec3::ZERO, velocity, "moving_star")
    }

    /// The same star at rest, centred at (−1, −1, −1) on the level-2
    /// corner-refined AMR tree, so halo *and* FMM multipole traffic
    /// carry real structure across the corner's refinement jump and
    /// across shard boundaries every step.
    pub fn star_amr() -> Scenario {
        let center = Vec3::new(-1.0, -1.0, -1.0);
        Self::star_on(corner_tree(Domain::new(8.0)), center, Vec3::ZERO, "star_amr")
    }

    fn star_on(mut tree: Octree, center: Vec3, velocity: Vec3, name: &'static str) -> Scenario {
        let eos = IdealGas::monatomic();
        let star = Polytrope::new(1.0, 1.0, 1.5);
        fill(&mut tree, &eos, |c| {
            let r = (c - center).norm();
            let rho = star.rho(r).max(1e-10);
            let e = star.e_int(r).max(rho * 1e-4);
            (rho, velocity, e)
        });
        Scenario {
            name,
            tree,
            config: Config { eos, ..Config::self_gravitating() },
            binary: None,
        }
    }

    /// A rigidly rotating star relaxing on a grid that co-rotates with
    /// it: the polytrope of [`Scenario::single_star`], spinning at
    /// `omega` about z, observed from the frame where it is static. The
    /// material carries real inertial angular momentum (Ω·I_zz), all of
    /// it bookkept through the rotating-frame sources — the smallest
    /// scenario exercising the flagship z-angular-momentum budget.
    /// Unlike the inertial star scenarios this one pins the atmosphere
    /// to [`hydro::prim::RHO_FLOOR`]: on a rotating grid the centrifugal
    /// force at the domain edge is unbalanced, and any above-floor
    /// far-field density streams out through the outflow boundary
    /// carrying mass and `r×s` (measured: ~1e-8 relative per step with a
    /// 1e-10 atmosphere). At exactly the floor, `enforce_floors` refills
    /// the far field every stage, ledger-compensated, and the boundary
    /// stays quiet — the conservation gates then hold to machine
    /// precision.
    pub fn rotating_star(level: u8, omega: f64) -> Scenario {
        let eos = IdealGas::monatomic();
        let star = Polytrope::new(1.0, 1.0, 1.5);
        let mut tree = uniform_tree(Domain::new(8.0), level);
        fill(&mut tree, &eos, |c| {
            let r = c.norm();
            let rho = star.rho(r).max(hydro::prim::RHO_FLOOR);
            let e = star.e_int(r).max(rho * 1e-4);
            (rho, Vec3::ZERO, e)
        });
        Scenario {
            name: "rotating_star",
            tree,
            config: Config {
                eos,
                omega,
                // No floors: with the atmosphere painted *at* the
                // hydro floor nothing needs refilling over the gated
                // window, and the positivity clamp (Egas ≥ ke) would
                // actively destabilize the cold stellar surface — it
                // re-injects the kinetic–thermal deficit as fresh
                // energy every stage wherever ke transiently exceeds
                // Egas (measured: K runs away 4.8 → 8.4e2 over 5
                // steps with floors on).
                ..Config::self_gravitating()
            },
            binary: None,
        }
    }

    /// The V1309 Scorpii merger scenario (§3, §6) at a given refinement
    /// level, using the paper's refinement rule (stars → L−2, accretor
    /// core → L−1, donor core → L) and the full 1.02e3 R⊙ domain.
    pub fn v1309(level: u8) -> Scenario {
        let model = BinaryModel::v1309();
        let eos = IdealGas::monatomic();
        let rule = BinaryRefine::v1309(level);
        let mut tree = Octree::new(Domain::v1309());
        tree.refine_where(level, |d, k| rule.should_refine(d, k));
        let mut scenario_tree = tree;
        model.paint(&mut scenario_tree, &eos);
        to_corotating(&mut scenario_tree);
        let omega = model.omega;
        Scenario {
            name: "v1309",
            tree: scenario_tree,
            config: Config { eos, ..Config::binary(omega) },
            binary: Some(model),
        }
    }

    /// A scaled-down binary on a small domain (tests and examples):
    /// same code paths, laptop-sized tree.
    pub fn mini_binary(level: u8) -> Scenario {
        let model = BinaryModel::scaled(1.0, 0.3, 3.0);
        let eos = IdealGas::monatomic();
        let mut tree = Octree::new(Domain::new(24.0));
        let p1 = model.primary_pos;
        let p2 = model.secondary_pos;
        let (r1, r2) = (model.primary.radius, model.secondary.radius);
        tree.refine_where(level, move |d, k| {
            let c = d.node_center(k);
            let half = d.node_extent(k.level) / 2.0 * 3f64.sqrt();
            (c - p1).norm() < 1.5 * r1 + half || (c - p2).norm() < 1.5 * r2 + half
        });
        let mut scenario_tree = tree;
        model.paint(&mut scenario_tree, &eos);
        to_corotating(&mut scenario_tree);
        let omega = model.omega;
        Scenario {
            name: "mini_binary",
            tree: scenario_tree,
            config: Config { eos, ..Config::binary(omega) },
            binary: Some(model),
        }
    }
}

/// Keys of all leaves containing a given point (used by examples to
/// probe profiles).
pub fn leaf_containing(tree: &Octree, p: Vec3) -> Option<MortonKey> {
    let domain = tree.domain();
    tree.leaves().into_iter().find(|k| {
        let o = domain.node_origin(*k);
        let e = domain.node_extent(k.level);
        p.x >= o.x && p.x < o.x + e && p.y >= o.y && p.y < o.y + e && p.z >= o.z && p.z < o.z + e
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sod_has_two_states() {
        let s = Scenario::sod(2);
        s.tree.check_invariants();
        let domain = s.tree.domain();
        let mut left = 0.0f64;
        let mut right = 0.0f64;
        for key in s.tree.leaves() {
            let grid = s.tree.node(key).unwrap().grid.as_ref().unwrap();
            for (i, j, k) in grid.indexer().interior() {
                let c = domain.cell_center(key, i, j, k);
                if c.x < 0.0 {
                    left = left.max(grid.at(Field::Rho, i, j, k));
                } else {
                    right = right.max(grid.at(Field::Rho, i, j, k));
                }
            }
        }
        assert_eq!(left, 1.0);
        assert_eq!(right, 0.125);
    }

    #[test]
    fn amr_scenarios_share_the_fifteen_leaf_corner_tree() {
        let (sod, star) = (Scenario::sod_amr(), Scenario::star_amr());
        for tree in [&sod.tree, &star.tree] {
            tree.check_invariants();
            assert_eq!(tree.leaves().len(), 15);
        }
        assert_eq!(sod.tree.leaves(), star.tree.leaves());
        assert!(star.config.gravity && !sod.config.gravity);
    }

    #[test]
    fn sedov_concentrates_energy() {
        let s = Scenario::sedov(2, 1.0);
        let domain = s.tree.domain();
        let mut total_e = 0.0;
        for key in s.tree.leaves() {
            let grid = s.tree.node(key).unwrap().grid.as_ref().unwrap();
            total_e += grid.interior_sum(Field::Egas) * domain.cell_volume(key.level);
        }
        assert!((total_e - 1.0).abs() < 0.5, "injected energy {total_e}");
    }

    #[test]
    fn star_scenarios_differ_only_in_velocity() {
        let at_rest = Scenario::single_star(1);
        let moving = Scenario::moving_star(1, Vec3::new(0.5, 0.0, 0.0));
        let key = at_rest.tree.leaves()[0];
        let g0 = at_rest.tree.node(key).unwrap().grid.as_ref().unwrap();
        let g1 = moving.tree.node(key).unwrap().grid.as_ref().unwrap();
        for (i, j, k) in g0.indexer().interior() {
            assert_eq!(g0.at(Field::Rho, i, j, k), g1.at(Field::Rho, i, j, k));
        }
        assert!(at_rest.config.gravity && moving.config.gravity);
    }

    #[test]
    fn mini_binary_builds_amr_tree() {
        let s = Scenario::mini_binary(3);
        s.tree.check_invariants();
        assert!(s.tree.max_level() == 3);
        assert!(s.config.omega > 0.0);
        assert!(s.binary.is_some());
        // Mass present.
        let domain = s.tree.domain();
        let mut mass = 0.0;
        for key in s.tree.leaves() {
            let grid = s.tree.node(key).unwrap().grid.as_ref().unwrap();
            mass += grid.interior_sum(Field::Rho) * domain.cell_volume(key.level);
        }
        assert!(mass > 0.5, "mass = {mass}");
    }

    #[test]
    fn leaf_containing_finds_the_centre() {
        let s = Scenario::sod(2);
        let key = leaf_containing(&s.tree, Vec3::new(0.01, 0.01, 0.01)).unwrap();
        assert!(s.tree.is_leaf(key));
    }
}
