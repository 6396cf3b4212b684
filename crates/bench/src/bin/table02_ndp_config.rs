//! Table II: configuration details of the NDP-DIMMs used by Hermes.
//!
//! Run with: `cargo run --release -p hermes-bench --bin table02_ndp_config`
//!
//! Pass `--json` to emit the table as machine-readable JSON (the DIMM
//! configuration plus the derived bandwidth/compute figures) instead of
//! the prose lines.

use serde::{Deserialize, Serialize};

use hermes_bench::{json_flag, print_json};
use hermes_ndp::{ActivationUnit, DimmConfig, DramBandwidthModel, GemvUnit};

/// The table's configured and derived figures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct TableOutput {
    /// GEMV multipliers per NDP core.
    gemv_multipliers: u32,
    /// NDP core clock in MHz.
    ndp_clock_mhz: f64,
    /// NDP core area in mm².
    ndp_core_area_mm2: f64,
    /// DIMM capacity in GiB.
    capacity_gib: u64,
    /// Ranks per DIMM.
    ranks: u32,
    /// Bank groups per rank.
    bank_groups: u32,
    /// Banks per bank group.
    banks_per_group: u32,
    /// DRAM timing parameters, in DRAM clock cycles:
    /// tRC/tRCD/tCL/tRP/tBL/tCCD_S/tCCD_L/tRRD_S/tRRD_L/tFAW.
    timing_cycles: [u32; 10],
    /// DIMM-link bandwidth in GB/s per link.
    link_bandwidth_gbps: f64,
    /// DIMM-link lanes.
    link_lanes: u32,
    /// DIMM-link energy in pJ/bit.
    link_energy_pj_per_bit: f64,
    /// Derived internal DRAM read bandwidth in GB/s per DIMM.
    internal_bandwidth_gbps: f64,
    /// Derived GEMV peak in GFLOPS per DIMM.
    gemv_peak_gflops: f64,
    /// Derived activation-unit lanes.
    activation_lanes: u32,
}

fn main() {
    let json = json_flag();
    let cfg = DimmConfig::ddr4_3200();
    let dram = DramBandwidthModel::new(cfg.clone());
    let gemv = GemvUnit::new(&cfg);
    let act = ActivationUnit::new(&cfg);
    let t = &cfg.timing;

    if json {
        let output = TableOutput {
            gemv_multipliers: cfg.gemv_multipliers,
            ndp_clock_mhz: cfg.ndp_clock_hz / 1e6,
            ndp_core_area_mm2: cfg.ndp_core_area_mm2,
            capacity_gib: cfg.capacity_bytes / (1 << 30),
            ranks: cfg.ranks,
            bank_groups: cfg.bank_groups,
            banks_per_group: cfg.banks_per_group,
            timing_cycles: [
                t.t_rc, t.t_rcd, t.t_cl, t.t_rp, t.t_bl, t.t_ccd_s, t.t_ccd_l, t.t_rrd_s,
                t.t_rrd_l, t.t_faw,
            ],
            link_bandwidth_gbps: cfg.link_bandwidth / 1e9,
            link_lanes: cfg.link_lanes,
            link_energy_pj_per_bit: cfg.link_energy_pj_per_bit,
            internal_bandwidth_gbps: dram.internal_bandwidth() / 1e9,
            gemv_peak_gflops: gemv.peak_flops() / 1e9,
            activation_lanes: act.lanes(),
        };
        print_json(&output);
        return;
    }

    println!("# Table II — NDP-DIMM configuration");
    println!(
        "NDP core: {} multipliers, 256 KB buffer, {:.0} MHz, {:.2} mm^2/core",
        cfg.gemv_multipliers,
        cfg.ndp_clock_hz / 1e6,
        cfg.ndp_core_area_mm2
    );
    println!(
        "DIMM: DDR4-3200, {} GB/DIMM, {} ranks, {} bank groups/rank, {} banks/group",
        cfg.capacity_bytes / (1 << 30),
        cfg.ranks,
        cfg.bank_groups,
        cfg.banks_per_group
    );
    println!("Timing: tRC={} tRCD={} tCL={} tRP={} tBL={} tCCD_S={} tCCD_L={} tRRD_S={} tRRD_L={} tFAW={}",
        t.t_rc, t.t_rcd, t.t_cl, t.t_rp, t.t_bl, t.t_ccd_s, t.t_ccd_l, t.t_rrd_s, t.t_rrd_l, t.t_faw);
    println!(
        "DIMM-link: {:.0} GB/s per link, {} lanes, {:.2} pJ/bit",
        cfg.link_bandwidth / 1e9,
        cfg.link_lanes,
        cfg.link_energy_pj_per_bit
    );
    println!("\nDerived: NDP read bandwidth {:.1} GB/s/DIMM, GEMV peak {:.0} GFLOPS/DIMM, {} activation lanes",
        dram.internal_bandwidth() / 1e9, gemv.peak_flops() / 1e9, act.lanes());
}
