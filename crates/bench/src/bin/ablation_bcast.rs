//! Ablation: broadcast algorithm inside and between groups.
//!
//! §II-B surveys the MPI broadcast menu; HSUMMA "can use any of the
//! existing optimized broadcast algorithms and still reduce the
//! communication cost of SUMMA" (§II). This sweep fixes the platform and
//! grouping and varies the (outer, inner) broadcast pair, showing that
//! the hierarchy's win is not an artifact of one broadcast choice —
//! and which pairing is best at these panel sizes.

use hsumma_bench::{grid_for, render_table, secs};
use hsumma_core::simdrive::{simulate, Schedule, SimEngine};
use hsumma_core::HierGrid;
use hsumma_netsim::{Platform, SimBcast};

const ALGOS: [(&str, SimBcast); 5] = [
    ("flat", SimBcast::Flat),
    ("binomial", SimBcast::Binomial),
    ("binary", SimBcast::Binary),
    ("pipelined16", SimBcast::Pipelined { segments: 16 }),
    ("vdgeijn", SimBcast::ScatterAllgather),
];

fn main() {
    let platform = Platform::bluegene_p();
    let (n, p, b, g) = (65536usize, 2048usize, 256usize, 64usize);
    let grid = grid_for(p);
    let groups = HierGrid::factor_groups(grid, g).expect("valid grouping");

    println!("Ablation — broadcast algorithms (ideal BG/P parameters)");
    println!(
        "n = {n}, p = {p} (grid {}x{}), G = {g} ({}x{}), b = B = {b}\n",
        grid.rows, grid.cols, groups.rows, groups.cols
    );

    let sim = |sched| simulate(&sched, &platform, SimEngine::Threads, true);
    println!("SUMMA per broadcast algorithm:");
    let mut rows = Vec::new();
    for (name, algo) in ALGOS {
        let r = sim(Schedule::summa(grid, n, b, algo));
        rows.push(vec![name.to_string(), secs(r.comm_time)]);
    }
    println!("{}", render_table(&["bcast", "SUMMA comm (s)"], &rows));

    println!("\nHSUMMA per (outer, inner) broadcast pair:");
    let mut rows = Vec::new();
    for (outer_name, outer) in ALGOS {
        let mut row = vec![outer_name.to_string()];
        for (_, inner) in ALGOS {
            let r = sim(Schedule::hsumma(grid, groups, n, b, b, outer, inner));
            row.push(secs(r.comm_time));
        }
        rows.push(row);
    }
    let headers: Vec<&str> = std::iter::once("outer \\ inner")
        .chain(ALGOS.iter().map(|(n, _)| *n))
        .collect();
    println!("{}", render_table(&headers, &rows));

    println!("\nreading: every column's HSUMMA times sit at or below the same");
    println!("algorithm's SUMMA row — the hierarchy helps for any broadcast whose");
    println!("cost grows super-logarithmically in the communicator width.");
}
