//! Table I (router parameters) and §IV-A's RTL-calibrated router area:
//! 0.177 mm² packet-switched, 0.188 mm² hybrid-switched (+6.2 %).

use noc_bench::{format_table, scenario_mode_ran};
use noc_power::AreaModel;
use noc_sim::NetworkConfig;
use tdm_noc::TdmConfig;

fn main() {
    if scenario_mode_ran(false) {
        return;
    }
    let net = NetworkConfig::default();
    let tdm = TdmConfig::default();
    println!("=== Table I — router parameters ===");
    let rows = vec![
        vec!["Topology".into(), format!("{}-node, 2D-Mesh", net.mesh.len())],
        vec!["Technology".into(), "45nm at 1.0V, 1.5GHz".into()],
        vec![
            "Routing".into(),
            "Minimal adaptive (west-first, configuration packets); X-Y (other packets)".into(),
        ],
        vec!["Channel width".into(), format!("{} bytes", net.router.channel_bytes)],
        vec![
            "Packet size".into(),
            format!(
                "1 flit (configuration), {} flits (circuit-switched), {} flits (packet-switched / vicinity CS)",
                net.cs_packet_flits, net.ps_packet_flits
            ),
        ],
        vec!["Slot tables".into(), format!("{} entries / input port", tdm.slot_capacity)],
        vec!["Virtual channels".into(), format!("{}/port", net.router.vcs_per_port)],
        vec!["Buffer depth per VC".into(), format!("{} flits", net.router.buf_depth)],
        vec!["Reservation cap".into(), format!("{:.0}%", tdm.reservation_cap * 100.0)],
        vec!["Reserve duration".into(), format!("{} slots", tdm.reserve_duration())],
    ];
    println!("{}", format_table(&["parameter", "value"], &rows));

    println!("=== §IV-A — router area (Nangate 45nm calibration) ===");
    let area = AreaModel::default();
    let packet = area.packet_router_mm2(&net.router);
    let hybrid = area.hybrid_router_mm2(&net.router, tdm.slot_capacity as u32, 8);
    let rows = vec![
        vec![
            "packet-switched router".into(),
            format!("{packet:.4} mm²"),
            "0.177 mm²".into(),
        ],
        vec![
            "hybrid-switched router".into(),
            format!("{hybrid:.4} mm²"),
            "0.188 mm²".into(),
        ],
        vec![
            "hybrid overhead".into(),
            format!("{:+.1}%", (hybrid / packet - 1.0) * 100.0),
            "+6.2%".into(),
        ],
    ];
    println!("{}", format_table(&["structure", "model", "paper"], &rows));
}
