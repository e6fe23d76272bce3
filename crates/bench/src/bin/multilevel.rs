//! Extension: more than two hierarchy levels (§VI future work).
//!
//! "We also plan to investigate the algorithm with more than two levels
//! of hierarchy as we believe that in this case it is possible to get
//! even better performance."
//!
//! Runs SUMMA with 1–4-level hierarchical broadcasts on a 16384-core
//! grid under both broadcast regimes. Under a serialized (measured-
//! effective) broadcast, each extra level replaces a `q`-wide phase by
//! narrower ones, so latency keeps falling towards `Σ qᵢ ≥ L·q^(1/L)`;
//! the sweep locates the depth where returns diminish.

use hsumma_bench::{render_table, secs, Machine, Profile};
use hsumma_matrix::GridShape;

fn main() {
    let (n, b) = (65536usize, 256usize);
    let grid = GridShape::new(128, 128); // 16384 cores
    let configs: [(&str, &[usize]); 6] = [
        ("1 level (SUMMA)", &[128]),
        ("2 levels 8x16", &[8, 16]),
        ("2 levels 16x8", &[16, 8]),
        ("3 levels 4x4x8", &[4, 4, 8]),
        ("3 levels 8x4x4", &[8, 4, 4]),
        ("4 levels 4x4x4x2", &[4, 4, 4, 2]),
    ];

    println!("Multi-level HSUMMA on 16384 cores, n = {n}, b = B = {b}\n");
    for profile in [Profile::Ideal, Profile::Measured] {
        let platform = profile.platform(Machine::BlueGeneP);
        let algo = profile.bcast();
        println!("== profile: {} ==", profile.label());
        let mut rows = Vec::new();
        let mut base = None;
        for (name, levels) in configs {
            let r = hsumma_core::multilevel::sim_summa_hier_with(
                &platform, grid, n, b, algo, levels, true,
            );
            let base_time = *base.get_or_insert(r.comm_time);
            rows.push(vec![
                name.to_string(),
                secs(r.comm_time),
                secs(r.total_time),
                format!("{:.2}x", base_time / r.comm_time),
            ]);
        }
        println!(
            "{}",
            render_table(&["hierarchy", "comm (s)", "total (s)", "vs 1 level"], &rows)
        );
        println!();
    }
    println!("note: per-level broadcasts here run every step (b = B at all levels);");
    println!("two levels with this shape reproduce simulated HSUMMA exactly (unit-tested).");
}
