//! Regenerate **Table 4**: number of tree nodes (sub-grids) per level
//! of refinement and the memory they need, from the real V1309
//! refinement rule (§6: stars → L−2, accretor core → L−1, donor core →
//! L) on the real octree.
//!
//! The human-readable table goes to stderr; stdout carries one JSON
//! object with the same rows. Exits non-zero if a level's node count
//! leaves a factor-2 band around the paper's.
//!
//! ```sh
//! cargo run --release -p bench --bin table4_subgrids [max_level] > table4.json
//! ```
//!
//! Levels 13–15 run in seconds; 16 takes a minute-ish; 17 allocates a
//! multi-million-node structure tree. Pass a smaller max level to stop
//! early.

use gravity::solver::CellGravity;
use gravity::Multipole;
use octree::subgrid::{FIELD_COUNT, N_SUB};
use perfmodel::scaling::v1309_structure_tree;
use std::mem::size_of;

/// Paper values: (level, sub-grids, memory GB).
const PAPER: &[(u8, f64, f64)] = &[
    (13, 5_417.0, 8.0),
    (14, 10_928.0, 16.37),
    (15, 42_947.0, 56.92),
    (16, 2.24e5, 271.94),
    (17, 1.5e6, 2_305.92),
];

fn main() {
    let max_level: u8 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    // What a step holds per node. A leaf: its interior grid, its one
    // spare grid for the RK2 stages, its cell masses in the moment map
    // and its cells of the solved field. A refined node: its cells'
    // multipoles (it has no grid). Per-worker scratch and the solve's
    // transient buffers do not grow with the tree and are left out.
    let cells = N_SUB * N_SUB * N_SUB;
    let grid_bytes = FIELD_COUNT * cells * size_of::<f64>();
    let per_leaf =
        (2 * grid_bytes + cells * size_of::<f64>() + cells * size_of::<CellGravity>()) as f64;
    let per_refined = (cells * size_of::<Multipole>()) as f64;

    eprintln!("Table 4 — sub-grids and memory per level of refinement");
    eprintln!("{}", "=".repeat(86));
    eprintln!(
        "{:>5} {:>12} {:>12} {:>12}   {:>12} {:>10} {:>10}",
        "level", "nodes", "leaves", "mem[GB]", "paper nodes", "paper[GB]", "build[s]"
    );
    eprintln!("{}", "-".repeat(86));
    let mut rows = Vec::new();
    for &(level, paper_n, paper_gb) in PAPER {
        if level > max_level {
            eprintln!("{level:>5}   (skipped: pass {level} as max_level to include)");
            continue;
        }
        let t0 = std::time::Instant::now();
        let tree = v1309_structure_tree(level);
        let nodes = tree.len();
        let leaves = tree.leaf_count();
        let mem_gb = (leaves as f64 * per_leaf + (nodes - leaves) as f64 * per_refined) / 1e9;
        eprintln!(
            "{level:>5} {nodes:>12} {leaves:>12} {:>12.2}   {:>12.0} {:>10.2} {:>10.1}",
            mem_gb,
            paper_n,
            paper_gb,
            t0.elapsed().as_secs_f64()
        );
        assert!(
            nodes as f64 > 0.5 * paper_n && (nodes as f64) < 2.0 * paper_n,
            "level {level}: {nodes} nodes is not within 2x of the paper's {paper_n:.0}"
        );
        rows.push(format!(
            "    {{ \"level\": {level}, \"nodes\": {nodes}, \"leaves\": {leaves}, \
             \"mem_gb\": {mem_gb:.2}, \"paper_nodes\": {paper_n}, \"paper_gb\": {paper_gb} }}"
        ));
    }
    eprintln!("{}", "-".repeat(86));
    eprintln!("Counts come from the geometric refinement rule of §6 applied to");
    eprintln!("our Roche-lobe binary model; the growth pattern (x2 -> x4 -> x5+ -> x7,");
    eprintln!("approaching the volume-dominated factor 8) is the Table 4 shape.");
    eprintln!("Memory prices each node at what a step holds for it: a leaf");
    eprintln!(
        "{:.3} MB ({FIELD_COUNT} fields on {N_SUB}^3 cells, twice: grid + spare; masses; field),",
        per_leaf / 1e6
    );
    eprintln!("a refined node {:.3} MB (its multipoles). Octo-Tiger stores more", per_refined / 1e6);
    eprintln!("per cell, hence its larger absolute GB.");
    println!(
        "{{\n  \"per_leaf_bytes\": {per_leaf},\n  \"per_refined_bytes\": {per_refined},\n  \"table4\": [\n{}\n  ]\n}}",
        rows.join(",\n")
    );
}
