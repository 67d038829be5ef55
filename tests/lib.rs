//! Shared helpers for the integration tests in `tests/tests/`.

use hydro::eos::IdealGas;
use octree::geometry::Domain;
use octree::subgrid::{Field, ALL_FIELDS};
use octree::tree::Octree;
use util::vec3::Vec3;

/// Paint every leaf interior from a pointwise (ρ, v, ρε) profile,
/// mirroring scenario setup.
fn paint(tree: &mut Octree, eos: &IdealGas, profile: impl Fn(Vec3) -> (f64, Vec3, f64)) {
    let domain = tree.domain();
    for key in tree.leaves() {
        let node = tree.node_mut(key).expect("leaf");
        let grid = node.grid.as_mut().expect("grid");
        for (i, j, k) in grid.indexer().interior() {
            let c = domain.cell_center(key, i, j, k);
            let (rho, v, e) = profile(c);
            grid.set(Field::Rho, i, j, k, rho);
            grid.set(Field::Sx, i, j, k, rho * v.x);
            grid.set(Field::Sy, i, j, k, rho * v.y);
            grid.set(Field::Sz, i, j, k, rho * v.z);
            grid.set(Field::Egas, i, j, k, e + 0.5 * rho * v.norm2());
            grid.set(Field::Tau, i, j, k, eos.tau_from_e(e));
        }
    }
}

/// Build a uniformly refined tree filled from a (ρ, v, ρε) profile.
pub fn filled_uniform_tree(
    domain_edge: f64,
    level: u8,
    eos: &IdealGas,
    profile: impl Fn(Vec3) -> (f64, Vec3, f64),
) -> Octree {
    let mut tree = Octree::new(Domain::new(domain_edge));
    tree.refine_where(level, |_d, _k| true);
    paint(&mut tree, eos, profile);
    tree
}

/// A compact two-blob density profile used by several tests.
pub fn two_blob_profile(c: Vec3) -> (f64, Vec3, f64) {
    let b1 = Vec3::new(-2.0, 0.0, 0.0);
    let b2 = Vec3::new(2.0, 0.5, 0.0);
    let rho = 1.5 * (-(c - b1).norm2()).exp() + 0.8 * (-(c - b2).norm2() / 2.0).exp() + 1e-8;
    (rho, Vec3::ZERO, rho * 0.5)
}

/// Every node that carries a grid must match bit-for-bit across every
/// field's interior, and grid presence must agree node by node.
pub fn assert_trees_bit_identical(a: &Octree, b: &Octree, tag: &str) {
    assert_eq!(a.leaves(), b.leaves(), "{tag}: leaf sets differ");
    for level in 0..=a.max_level() {
        for key in a.level_keys(level) {
            let (na, nb) = (a.node(key).unwrap(), b.node(key).unwrap());
            let (Some(ga), Some(gb)) = (na.grid.as_ref(), nb.grid.as_ref()) else {
                assert_eq!(na.grid.is_some(), nb.grid.is_some(), "{tag}: {key:?} grid presence");
                continue;
            };
            for field in ALL_FIELDS {
                for (i, j, k) in ga.indexer().interior() {
                    assert_eq!(
                        ga.at(field, i, j, k).to_bits(),
                        gb.at(field, i, j, k).to_bits(),
                        "{tag}: {key:?} {field:?} ({i},{j},{k})"
                    );
                }
            }
        }
    }
}
