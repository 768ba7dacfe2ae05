//! Table II (baseline system configuration) and Figure 7 (the 36-tile
//! heterogeneous floorplan).

use noc_bench::{format_table, scenario_mode_ran};
use noc_hetero::{Floorplan, SystemConfig};

fn main() {
    if scenario_mode_ran(false) {
        return;
    }
    let c = SystemConfig::default();
    println!("=== Table II — baseline system configuration ===");
    let rows = vec![
        vec![
            "Processor".into(),
            format!(
                "{}-way out-of-order, {} integer FUs, {} floating point FUs, {}-entry ROB",
                c.cpu_issue_width, c.cpu_int_fus, c.cpu_fp_fus, c.cpu_rob_entries
            ),
        ],
        vec![
            "L1 cache".into(),
            format!(
                "split private I/D, each {}KB, {}-way, {}B block, {}-cycle access",
                c.l1_kb, c.l1_assoc, c.block_bytes, c.l1_latency
            ),
        ],
        vec![
            "L2 cache".into(),
            format!(
                "{}MB banked shared distributed, {}-way, {}B block, {}-cycle access",
                c.l2_mb, c.l2_assoc, c.block_bytes, c.l2_latency
            ),
        ],
        vec![
            "Accelerator".into(),
            format!(
                "{}-wide SIMD pipeline, {} threads, {}KB shared memory",
                c.simd_width, c.threads_per_accel, c.shared_mem_kb
            ),
        ],
        vec![
            "Memory".into(),
            format!(
                "{}GB DRAM, {}-cycle access latency, {} memory controllers",
                c.dram_gb, c.mem_latency, c.mem_controllers
            ),
        ],
    ];
    println!("{}", format_table(&["component", "configuration"], &rows));

    println!("=== Figure 7 — evaluated 36-tile system (6x6 mesh) ===");
    let f = Floorplan::figure7();
    println!("{}", f.render());
    println!(
        "C = CPU+L1 tile ({}), A = accelerator ({}), L2 = shared L2 bank ({}), M = memory controller ({})",
        f.cpu_tiles().len(),
        f.accel_tiles().len(),
        f.l2_tiles().len(),
        f.mem_tiles().len()
    );
}
