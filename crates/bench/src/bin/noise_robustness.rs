//! Robustness of the optimal grouping under system noise.
//!
//! The paper selects `G` by sampling and notes (§V-A.1) that its
//! experimental minimum is near but not exactly the model's `√p`. One
//! practical question a deployer has: does the chosen `G` survive
//! transfer-time jitter (OS noise, network variation)? This bin repeats
//! the BlueGene/P group sweep under increasing deterministic jitter and
//! reports where the optimum lands and how much the gain degrades.

use hsumma_bench::{grid_for, render_table, Machine, Profile};
use hsumma_core::grid::HierGrid;
use hsumma_core::simdrive::{simulate_on, Schedule, SimEngine};
use hsumma_core::tuning::power_of_two_gs;
use hsumma_netsim::{NoiseModel, SimNet};

fn main() {
    let profile = Profile::Measured;
    let platform = profile.platform(Machine::BlueGeneP);
    let bcast = profile.bcast();
    let (n, p, b) = (32768usize, 2048usize, 256usize);
    let grid = grid_for(p);

    println!("Noise robustness — BlueGene/P (measured profile), p = {p}, n = {n}, b = B = {b}");
    println!("jitter: each transfer slowed by a uniform factor in [1, 1+amplitude]\n");

    let mut rows = Vec::new();
    for amplitude in [0.0f64, 0.2, 0.5, 1.0] {
        // One jittered, step-synchronized run on a fresh network.
        let run = |sched: Schedule| {
            let mut net = SimNet::new(grid.size(), platform.net);
            if amplitude > 0.0 {
                net.set_noise(NoiseModel::new(1, amplitude));
            }
            simulate_on(&sched, &mut net, platform.gamma, SimEngine::Threads, true)
        };
        let summa = run(Schedule::summa(grid, n, b, bcast));
        let mut best: Option<(usize, f64)> = None;
        for g in power_of_two_gs(p) {
            let Some(groups) = HierGrid::factor_groups(grid, g) else {
                continue;
            };
            let r = run(Schedule::hsumma(grid, groups, n, b, b, bcast, bcast));
            if best.is_none_or(|(_, t)| r.comm_time < t) {
                best = Some((g, r.comm_time));
            }
        }
        let (best_g, best_comm) = best.expect("non-empty sweep");
        rows.push(vec![
            format!("{:.0}%", amplitude * 100.0),
            format!("{:.3}", summa.comm_time),
            format!("{:.3}", best_comm),
            best_g.to_string(),
            format!("{:.2}x", summa.comm_time / best_comm),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "jitter",
                "SUMMA comm (s)",
                "HSUMMA comm (s)",
                "best G",
                "gain"
            ],
            &rows
        )
    );
    println!("\nexpected: the optimal G and the relative gain are stable under");
    println!("uniform jitter (both algorithms slow down together) — grouping");
    println!("decisions made on a quiet machine transfer to a noisy one.");
}
