//! Figure 1, step by step: the slot-table state transitions of a single
//! hybrid router responding to three setup messages and a teardown.
//!
//! Run with: `cargo run --release --example slot_table_walkthrough`

use tdm_hybrid_noc::sim::{NodeId, Port};
use tdm_hybrid_noc::tdm::{ReserveError, SlotTables};

const IN_1: Port = Port::West;
const IN_2: Port = Port::South;
const OUT_3: Port = Port::North;
const OUT_4: Port = Port::East;

fn render(t: &SlotTables) -> String {
    let mut s = String::from("        in_1 (West)      in_2 (South)\n");
    for slot in 0..t.active() {
        let cell = |p: Port| match t.lookup(p, slot as u64) {
            Some(out) => format!("v=1 out={out:?}"),
            None => "v=0        ".into(),
        };
        s.push_str(&format!(
            "  s{slot}:  {:<14}  {:<14}\n",
            cell(IN_1),
            cell(IN_2)
        ));
    }
    s
}

fn main() {
    // Figure 1 uses 4-entry tables and shows two of the input ports.
    let mut t = SlotTables::new(4, 4, 1.0);
    let dst = NodeId(9);

    println!("Initially, no path is reserved; all entries are invalid:");
    println!("{}", render(&t));

    println!("setup1: in_1 → out_4, slot s3, duration 2 (succeeds; reservation");
    println!("is modulo S, so s3 and s0 are taken):");
    t.try_reserve(IN_1, 3, 2, OUT_4, 1, dst)
        .expect("setup1 succeeds");
    println!("{}", render(&t));

    println!("setup2: in_1 → out_3 at s3 — FAILS: the slot is already allocated:");
    let e = t.try_reserve(IN_1, 3, 1, OUT_3, 2, dst).unwrap_err();
    assert_eq!(e, ReserveError::SlotOccupied);
    println!("  -> {e:?}; tables unchanged, failure ack sent to the source\n");

    println!("setup3: in_2 → out_4 at s3 — FAILS: out_4 is reserved for in_1");
    println!("in that slot (output-port conflict):");
    let e = t.try_reserve(IN_2, 3, 1, OUT_4, 3, dst).unwrap_err();
    assert_eq!(e, ReserveError::OutputConflict);
    println!("  -> {e:?}; tables unchanged, failure ack sent to the source\n");

    println!("teardown for setup1's path: the valid bits reset and the slots");
    println!("become reusable:");
    let (out, n) = t.release_path(IN_1, 1).expect("path present");
    println!("  -> released {n} entries toward {out:?}");
    println!("{}", render(&t));

    println!("Both failed setups would now succeed:");
    t.try_reserve(IN_1, 3, 1, OUT_3, 2, dst)
        .expect("setup2 retry");
    t.try_reserve(IN_2, 0, 1, OUT_4, 3, dst)
        .expect("setup3 retry");
    println!("{}", render(&t));
}
