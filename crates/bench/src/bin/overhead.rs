//! The overhead gate: measures every gate of
//! [`harmony_bench::overhead::GATES`], prints one line per gate, and
//! exits 1 naming every gate whose median slowdown is over its limit.
//!
//! It takes no arguments (pairs, work sizes and limits are constants of
//! the gate table) and exits 2 when given any. Run it with
//! `cargo run --release -p harmony-bench --bin overhead`.

use harmony_bench::overhead::GATES;

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: overhead (takes no arguments)");
        std::process::exit(2);
    }
    let mut over = Vec::new();
    for gate in &GATES {
        let pct = ((gate.ratio)(gate.pairs) - 1.0) * 100.0;
        println!(
            "{:<18} {pct:+6.2}%  (limit {:.0}%, median of {} pairs)",
            gate.name, gate.limit_pct, gate.pairs
        );
        if pct > gate.limit_pct {
            over.push(gate.name);
        }
    }
    if !over.is_empty() {
        eprintln!("FAIL: over the limit: {}", over.join(", "));
        std::process::exit(1);
    }
}
