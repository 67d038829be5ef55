//! Hardware tables: Table 2's platforms, whose last row is Table 3's
//! Piz Daint node.
//!
//! These are *hardware spec sheets* (core counts, attached GPUs,
//! per-kernel efficiency ceilings) transcribed from the paper's tables;
//! they stay hand-entered by design. *Workload* constants (kernel
//! durations, message counts) are not hand-entered: the scale-out
//! co-simulation ([`crate::des`]) takes those exclusively from a
//! measured [`crate::calibrate::Calibration`].

use gpusim::device::DeviceSpec;

/// One evaluation platform (a row of Table 2).
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Display name, matching Table 2.
    pub name: &'static str,
    /// CPU model.
    pub cpu: DeviceSpec,
    /// Worker threads used (= cores in the paper's runs).
    pub cores: usize,
    /// GPUs attached (empty for CPU-only rows).
    pub gpus: Vec<DeviceSpec>,
    /// Fraction of per-core peak the FMM kernels reach on this CPU
    /// (≈0.30 on AVX2 Xeons, ≈0.17 on KNL — Table 2).
    pub cpu_fmm_efficiency: f64,
    /// Fraction of GPU peak one resident FMM kernel mix sustains
    /// (§6.1: 21–37% depending on configuration; this is the per-kernel
    /// ceiling before concurrency effects).
    pub gpu_fmm_efficiency: f64,
}

/// CUDA streams per GPU: the paper runs 128 on every platform.
pub const STREAMS_PER_GPU: usize = 128;

/// All rows of Table 2, in the paper's order.
pub fn table2_platforms() -> Vec<NodeConfig> {
    let xeon10 = DeviceSpec::xeon_e5_2660v3(10);
    let xeon20 = DeviceSpec::xeon_e5_2660v3(20);
    vec![
        NodeConfig {
            name: "Xeon E5-2660 v3, 10 cores (CPU only)",
            cpu: xeon10.clone(),
            cores: 10,
            gpus: vec![],
            cpu_fmm_efficiency: 0.3255,
            gpu_fmm_efficiency: 0.45,
        },
        NodeConfig {
            name: "10 cores + 1x V100",
            cpu: xeon10.clone(),
            cores: 10,
            gpus: vec![DeviceSpec::v100()],
            cpu_fmm_efficiency: 0.3255,
            gpu_fmm_efficiency: 0.45,
        },
        NodeConfig {
            name: "10 cores + 2x V100",
            cpu: xeon10,
            cores: 10,
            gpus: vec![DeviceSpec::v100(), DeviceSpec::v100()],
            cpu_fmm_efficiency: 0.3255,
            gpu_fmm_efficiency: 0.45,
        },
        NodeConfig {
            name: "Xeon E5-2660 v3, 20 cores (CPU only)",
            cpu: xeon20.clone(),
            cores: 20,
            gpus: vec![],
            cpu_fmm_efficiency: 0.3255,
            gpu_fmm_efficiency: 0.45,
        },
        NodeConfig {
            name: "20 cores + 1x V100",
            cpu: xeon20.clone(),
            cores: 20,
            gpus: vec![DeviceSpec::v100()],
            cpu_fmm_efficiency: 0.3255,
            gpu_fmm_efficiency: 0.45,
        },
        NodeConfig {
            name: "20 cores + 2x V100",
            cpu: xeon20,
            cores: 20,
            gpus: vec![DeviceSpec::v100(), DeviceSpec::v100()],
            cpu_fmm_efficiency: 0.3255,
            gpu_fmm_efficiency: 0.45,
        },
        NodeConfig {
            name: "Xeon Phi 7210 (KNL, 64 cores)",
            cpu: DeviceSpec::xeon_phi_7210(),
            cores: 64,
            gpus: vec![],
            cpu_fmm_efficiency: 0.1724,
            gpu_fmm_efficiency: 0.45,
        },
        NodeConfig {
            name: "Piz Daint node (CPU only)",
            cpu: DeviceSpec::xeon_e5_2690v3(),
            cores: 12,
            gpus: vec![],
            cpu_fmm_efficiency: 0.3145,
            gpu_fmm_efficiency: 0.21,
        },
        NodeConfig {
            name: "Piz Daint node + 1x P100",
            cpu: DeviceSpec::xeon_e5_2690v3(),
            cores: 12,
            gpus: vec![DeviceSpec::p100()],
            cpu_fmm_efficiency: 0.3145,
            gpu_fmm_efficiency: 0.21,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn piz_daint_matches_table3() {
        // Table 3's node is Table 2's last row: one 12-core Xeon
        // E5-2690 v3 and one P100.
        let n = table2_platforms().pop().unwrap();
        assert_eq!(n.name, "Piz Daint node + 1x P100");
        assert_eq!(n.cores, 12);
        assert_eq!(n.cpu.name, "Intel Xeon E5-2690 v3");
        assert_eq!(n.gpus.len(), 1);
        assert_eq!(n.gpus[0].name, "NVIDIA Tesla P100");
    }

    #[test]
    fn table2_has_all_configurations() {
        let rows = table2_platforms();
        assert_eq!(rows.len(), 9);
        let gpu_rows = rows.iter().filter(|r| !r.gpus.is_empty()).count();
        assert_eq!(gpu_rows, 5);
        // KNL row present with the low efficiency the paper reports.
        let knl = rows.iter().find(|r| r.name.contains("Phi")).unwrap();
        assert!(knl.cpu_fmm_efficiency < 0.2);
    }
}
