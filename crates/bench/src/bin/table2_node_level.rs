//! Regenerate **Table 2**: FMM kernel node-level performance on the
//! paper's platforms, from the event-driven node model — and, for the
//! three configurations §6.1.2 reports, the fraction of FMM kernels the
//! §5.1 launch policy puts on the GPU, beside the paper's.
//!
//! The human-readable table goes to stderr; stdout carries one JSON
//! object with the same rows. Exits non-zero if any modelled row's FMM
//! GFLOP/s leaves a factor-2 band around the paper's.
//!
//! ```sh
//! cargo run --release -p bench --bin table2_node_level > table2.json
//! ```

use perfmodel::machine::table2_platforms;
use perfmodel::node_level::{simulate_node, Workload};

/// (platform substring, paper total s, paper FMM s, paper GFLOP/s,
/// paper % of peak, non-FMM wall used as model input, paper §6.1.2 %
/// of kernels launched on the GPU where reported).
type PaperRow = (&'static str, f64, f64, f64, f64, f64, Option<f64>);
const PAPER_ROWS: &[PaperRow] = &[
    ("10 cores (CPU only)", 2950.0, 1228.0, 125.0, 30.0, 1722.0, None),
    ("10 cores + 1x V100", 1790.0, 68.0, 2271.0, 32.0, 1722.0, Some(99.9997)),
    ("10 cores + 2x V100", 1770.0, 48.0, 3185.0, 22.0, 1722.0, None),
    ("20 cores (CPU only)", 1601.0, 614.0, 250.0, 30.0, 987.0, None),
    ("20 cores + 1x V100", 1086.0, 100.0, 1516.0, 22.0, 987.0, Some(97.4995)),
    ("20 cores + 2x V100", 1017.0, 30.0, 5188.0, 37.0, 987.0, None),
    ("Phi", 1774.0, 334.0, 459.0, 17.0, 1440.0, None),
    ("Piz Daint node (CPU only)", 2415.0, 980.0, 157.0, 31.0, 1435.0, None),
    ("Piz Daint node + 1x P100", 1592.0, 158.0, 973.0, 21.0, 1435.0, Some(99.5207)),
];

fn main() {
    eprintln!("Table 2 — FMM kernel node-level performance (model vs paper)");
    eprintln!("{}", "=".repeat(100));
    eprintln!(
        "{:<38} {:>9} {:>9} {:>10} {:>7}   {:>9} {:>10} {:>7}",
        "platform", "total[s]", "FMM[s]", "GFLOP/s", "%peak", "paper FMM", "paper GF/s", "paper%"
    );
    eprintln!("{}", "-".repeat(100));
    let platforms = table2_platforms();
    let mut rows = Vec::new();
    for (pat, _p_total, p_fmm, p_gflops, p_peak, other_wall, p_gpu_pct) in PAPER_ROWS {
        let cfg = platforms
            .iter()
            .find(|c| c.name.contains(pat))
            .unwrap_or_else(|| panic!("platform {pat} missing"));
        let w = Workload::v1309_level14(*other_wall);
        let r = simulate_node(cfg, &w);
        eprintln!(
            "{:<38} {:>9.0} {:>9.0} {:>10.0} {:>6.1}%   {:>9.0} {:>10.0} {:>6.1}%",
            cfg.name,
            r.total_wall_s,
            r.fmm_wall_s,
            r.gflops,
            100.0 * r.fraction_of_peak,
            p_fmm,
            p_gflops,
            p_peak
        );
        if r.gpu_fraction > 0.0 {
            let paper = p_gpu_pct.map_or(String::new(), |p| format!(", paper {p:.4}%"));
            eprintln!(
                "{:<38} GPU launch fraction: {:.4}% ({} GPU / {} CPU kernels){paper}",
                "",
                100.0 * r.gpu_fraction,
                r.gpu_kernels,
                r.cpu_kernels
            );
        }
        assert!(
            r.gflops > 0.5 * p_gflops && r.gflops < 2.0 * p_gflops,
            "{}: modelled {:.0} GFLOP/s is not within 2x of the paper's {p_gflops:.0}",
            cfg.name,
            r.gflops
        );
        let paper_gpu =
            p_gpu_pct.map_or(String::new(), |p| format!(", \"paper_gpu_launch_pct\": {p}"));
        rows.push(format!(
            "    {{ \"platform\": \"{}\", \"total_s\": {:.1}, \"fmm_s\": {:.1}, \
             \"gflops\": {:.1}, \"fraction_of_peak\": {:.4}, \"gpu_launch_fraction\": {:.6}, \
             \"paper_fmm_s\": {p_fmm}, \"paper_gflops\": {p_gflops}{paper_gpu} }}",
            cfg.name, r.total_wall_s, r.fmm_wall_s, r.gflops, r.fraction_of_peak, r.gpu_fraction
        ));
    }
    eprintln!("{}", "-".repeat(100));
    eprintln!("Model anchored to the Xeon-10 CPU-only row (workload definition);");
    eprintln!("GPU rows emerge from the §5.1 stream/fallback dynamics. Shapes to");
    eprintln!("compare: GPUs cut FMM time by >10x; 10c+1 V100 launch-limited at");
    eprintln!("~68 s; 2 GPUs scale; KNL reaches ~17% of its large peak.");
    println!("{{\n  \"table2\": [\n{}\n  ]\n}}", rows.join(",\n"));
}
