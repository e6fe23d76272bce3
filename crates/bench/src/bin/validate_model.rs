//! Model validation (§V-A.1, §V-B.1): checks the regime condition
//! `α/β ≷ 2nb/p` for each platform, locates the simulated optimum, and
//! compares it against the analytic `G = √p` prediction — the same
//! validation the paper walks through.

use hsumma_bench::{grid_for, model_params, render_table, Profile};
use hsumma_core::tuning::{best_by_comm, power_of_two_gs, sweep_groups};
use hsumma_core::{simulate, Schedule, SimEngine};
use hsumma_model::{classify_regime, dtheta_dg_vdg};
use hsumma_netsim::Platform;

fn main() {
    println!("Analytic-model validation\n");

    let cases = [
        (
            "Grid5000",
            Platform::grid5000(),
            8192usize,
            128usize,
            64usize,
        ),
        ("BlueGene/P", Platform::bluegene_p(), 65536, 16384, 256),
        ("Exascale", Platform::exascale(), 1 << 22, 1 << 20, 256),
    ];

    let mut rows = Vec::new();
    for (name, platform, n, p, b) in &cases {
        let m = model_params(platform);
        let regime = classify_regime(m.alpha, m.beta, *n as f64, *p as f64, *b as f64);
        let lhs = m.alpha / (m.beta * hsumma_model::ELEM_BYTES);
        let rhs = 2.0 * (*n as f64) * (*b as f64) / *p as f64;
        let d_at_opt = dtheta_dg_vdg(
            m.alpha,
            m.beta,
            *n as f64,
            *p as f64,
            (*p as f64).sqrt(),
            *b as f64,
        );
        rows.push(vec![
            name.to_string(),
            format!("{lhs:.0}"),
            format!("{rhs:.0}"),
            format!("{regime:?}"),
            format!("{d_at_opt:.2e}"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "platform",
                "alpha/beta_elem",
                "2nb/p",
                "regime",
                "dT/dG at sqrt(p)"
            ],
            &rows
        )
    );
    println!("expected: InteriorMinimum everywhere (the paper verifies the same inequality),");
    println!("and a vanishing derivative at G = sqrt(p).\n");

    // Where does the *simulated* optimum land relative to √p? (The paper
    // §V-A.1 notes the experimental minimum is near but not exactly √p.)
    println!("simulated optimum vs analytic prediction (ideal profile):");
    let mut rows = Vec::new();
    for (name, platform, n, p, b) in &cases[..2] {
        let grid = grid_for(*p);
        let bcast = Profile::Ideal.bcast();
        let sweep = sweep_groups(grid, &power_of_two_gs(*p), |groups| {
            simulate(
                &Schedule::hsumma(grid, groups, *n, *b, *b, bcast, bcast),
                platform,
                SimEngine::Threads,
                false,
            )
        });
        let best = best_by_comm(&sweep);
        rows.push(vec![
            name.to_string(),
            format!("{:.0}", (*p as f64).sqrt()),
            best.g.to_string(),
            format!("{:.4}", best.report.comm_time),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "platform",
                "sqrt(p)",
                "simulated best G",
                "comm at best (s)"
            ],
            &rows
        )
    );
}
