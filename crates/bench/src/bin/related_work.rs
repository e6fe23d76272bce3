//! Related-work comparison (§I context): where HSUMMA sits among
//! Cannon, Fox, the 3-D algorithm and the 2.5D algorithm — on both the
//! communication axis and the *memory* axis the paper argues on
//! ("the 2.5D algorithm can not be scalable on the future exascale
//! systems" because it needs `c` extra matrix replicas, §I).
//!
//! Analytic comparison at exascale parameters plus a simulated
//! comparison of the executable baselines at BG/P parameters.

use hsumma_bench::{render_table, Profile};
use hsumma_core::simdrive::{simulate, Schedule, SimEngine};
use hsumma_core::tuning::{best_by_comm, power_of_two_gs, sweep_groups};
use hsumma_matrix::GridShape;
use hsumma_model::related::{
    cannon_cost, threed_cost, threed_memory_blowup, twodotfive_cost, twodotfive_memory_blowup,
};
use hsumma_model::{hsumma_cost, summa_cost, BcastModel, ModelParams};
use hsumma_netsim::SimBcast;

fn main() {
    // ---- analytic, exascale --------------------------------------------
    let params = ModelParams::exascale();
    let p = (1u64 << 20) as f64;
    let n = (1u64 << 22) as f64;
    let b = 256.0;

    println!("Related work at exascale parameters (analytic): p = 2^20, n = 2^22\n");
    let summa = summa_cost(&params, BcastModel::VanDeGeijn, n, p, b);
    let hsumma = hsumma_cost(
        &params,
        BcastModel::VanDeGeijn,
        BcastModel::VanDeGeijn,
        n,
        p,
        p.sqrt(),
        b,
        b,
    );
    let cannon = cannon_cost(&params, n, p);
    let threed = threed_cost(&params, n, p);
    let c = 16.0;
    let twofive = twodotfive_cost(&params, n, p, c);

    let rows = vec![
        vec![
            "SUMMA (vdG)".into(),
            format!("{:.3}", summa.comm()),
            "1x".into(),
        ],
        vec![
            format!("HSUMMA (G=√p)"),
            format!("{:.3}", hsumma.comm()),
            "1x".into(),
        ],
        vec![
            "Cannon".into(),
            format!("{:.3}", cannon.comm()),
            "1x".into(),
        ],
        vec![
            "3D".into(),
            format!("{:.3}", threed.comm()),
            format!("{:.0}x", threed_memory_blowup(p)),
        ],
        vec![
            format!("2.5D (c={c})"),
            format!("{:.3}", twofive.comm()),
            format!("{:.0}x", twodotfive_memory_blowup(c)),
        ],
    ];
    println!(
        "{}",
        render_table(&["algorithm", "comm (s)", "memory vs 2-D"], &rows)
    );
    println!("reading: 3D/2.5D buy communication with memory replicas the paper");
    println!("argues exascale nodes will not have; HSUMMA improves at 1x memory.\n");

    // ---- simulated baselines at BG/P scale ------------------------------
    let platform = Profile::Measured.platform(hsumma_bench::Machine::BlueGeneP);
    let q = 64usize; // 4096 cores, square for Cannon/Fox
    let n_sim = 16384usize;
    let b_sim = 256usize;
    let grid = GridShape::new(q, q);

    println!(
        "Simulated baselines on {} ({} cores), n = {n_sim} (measured-effective profile):\n",
        platform.name,
        q * q
    );
    let sim = |sched| simulate(&sched, &platform, SimEngine::Threads, true);
    let bcast = SimBcast::Flat;
    let cannon_r = sim(Schedule::cannon(q, n_sim));
    let fox_r = sim(Schedule::Fox { q, n: n_sim, bcast });
    let summa_r = sim(Schedule::summa(grid, n_sim, b_sim, bcast));
    let sweep = sweep_groups(grid, &power_of_two_gs(q * q), |groups| {
        sim(Schedule::hsumma(
            grid, groups, n_sim, b_sim, b_sim, bcast, bcast,
        ))
    });
    let hsumma_r = best_by_comm(&sweep);

    let rows = vec![
        vec![
            "Cannon".into(),
            format!("{:.3}", cannon_r.comm_time),
            format!("{:.3}", cannon_r.total_time),
        ],
        vec![
            "Fox".into(),
            format!("{:.3}", fox_r.comm_time),
            format!("{:.3}", fox_r.total_time),
        ],
        vec![
            "SUMMA".into(),
            format!("{:.3}", summa_r.comm_time),
            format!("{:.3}", summa_r.total_time),
        ],
        vec![
            format!("HSUMMA (G={})", hsumma_r.g),
            format!("{:.3}", hsumma_r.report.comm_time),
            format!("{:.3}", hsumma_r.report.total_time),
        ],
    ];
    println!(
        "{}",
        render_table(&["algorithm", "comm (s)", "total (s)"], &rows)
    );
    println!("Cannon/Fox shift whole tiles between neighbours (no wide broadcasts)");
    println!("but require square grids and one-tile-per-step granularity; HSUMMA");
    println!("keeps SUMMA's generality while closing the broadcast gap.");
}
