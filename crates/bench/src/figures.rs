//! The paper's tables and figures, plus the experiments that extend them.
//!
//! Each entry of [`FIGURES`] renders one table as plain text: the
//! `figures` binary prints it, and `tests/figures.rs` holds every table
//! cheap enough to regenerate against its checked-in
//! `results/<name>.txt` (`results/README.md` says which those are).
//! All of them are deterministic simulator or model output.

use crate::{grid_for, model_params, render_table, run_sweep, secs, Machine, Profile};
use hsumma_core::grid::HierGrid;
use hsumma_core::simdrive::{simulate_on, threads_on};
use hsumma_core::tsqr::sim_tsqr;
use hsumma_core::tuning::{best_by_comm, power_of_two_gs, sweep_groups};
use hsumma_core::{
    simulate, CosmaConfig, HsummaConfig, MatMulDims, PlannedAlgo, Schedule, SimEngine, SummaConfig,
    TwoDotFiveConfig,
};
use hsumma_matrix::{GemmKernel, GridShape};
use hsumma_model::cost::hsumma_vdg_optimal_cost;
use hsumma_model::predict;
use hsumma_model::related::{
    cannon_cost, threed_cost, threed_memory_blowup, twodotfive_cost, twodotfive_memory_blowup,
};
use hsumma_model::{
    advise_gemm, best_brick, classify_regime, cosma_footprint_elems, cosma_volume, dtheta_dg_vdg,
    hsumma_cost, summa_cost, AlgoChoice, BcastModel, BrickShape, ModelParams,
};
use hsumma_netsim::{NoiseModel, Platform, SimBcast, SimNet, SimReport};
use hsumma_runtime::BcastAlgorithm;
use std::fmt::Write as _;

/// Appends one table, as plain text, to the buffer.
pub type Figure = fn(&mut String);

/// Every table, by the name `figures <name>` and `results/<name>.txt` use.
pub const FIGURES: &[(&str, Figure)] = &[
    ("table1", table1),
    ("table2", table2),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("headline", headline),
    ("validate_model", validate_model),
    ("related_work", related_work),
    ("ablation_blocksize", ablation_blocksize),
    ("ablation_bcast", ablation_bcast),
    ("multilevel", multilevel),
    ("extension_lu", extension_lu),
    ("extension_qr", extension_qr),
    ("weak_scaling", weak_scaling),
    ("noise_robustness", noise_robustness),
    ("large_scale", large_scale),
    ("cosma", cosma),
    ("overlap", overlap),
];

/// Renders the named table, or `None` when no table has that name.
pub fn render(name: &str) -> Option<String> {
    let (_, figure) = FIGURES.iter().find(|(n, _)| *n == name)?;
    let mut out = String::new();
    figure(&mut out);
    Some(out)
}

fn table1_config(out: &mut String, config: &str, params: &ModelParams, n: f64, p: f64, b: f64) {
    let _ = writeln!(out, "-- {config}: n = {n}, p = {p}, b = B = {b} --");
    let g = p.sqrt();
    let summa = summa_cost(params, BcastModel::Binomial, n, p, b);
    let hsumma = hsumma_cost(
        params,
        BcastModel::Binomial,
        BcastModel::Binomial,
        n,
        p,
        g,
        b,
        b,
    );

    let rows = vec![
        vec![
            "SUMMA".to_string(),
            format!("{:.4e}", summa.compute),
            format!("{:.4e}", summa.latency),
            format!("{:.4e}", summa.bandwidth),
            format!("{:.4e}", summa.comm()),
        ],
        vec![
            format!("HSUMMA (G=√p={g})"),
            format!("{:.4e}", hsumma.compute),
            format!("{:.4e}", hsumma.latency),
            format!("{:.4e}", hsumma.bandwidth),
            format!("{:.4e}", hsumma.comm()),
        ],
    ];
    let _ = writeln!(
        out,
        "{}",
        render_table(
            &[
                "algorithm",
                "compute (s)",
                "latency (s)",
                "bandwidth (s)",
                "comm (s)"
            ],
            &rows
        )
    );

    // Table I's structural identity: multipliers add up to SUMMA's.
    let split = (p / g).log2() + g.log2();
    let _ = writeln!(
        out,
        "multiplier identity: log2(p/G) + log2(G) = {split} = log2(p) = {} -> \
         binomial HSUMMA comm == SUMMA comm (ratio {:.6})\n",
        p.log2(),
        hsumma.comm() / summa.comm()
    );
}

/// Table I: SUMMA vs HSUMMA cost terms under the binomial-tree broadcast.
///
/// Evaluates the symbolic rows of Table I at the paper's two experimental
/// configurations. Key property of the binomial row: the latency and
/// bandwidth *multipliers* split as `log₂(p/G) + log₂(G) = log₂(p)`, so
/// under a purely logarithmic broadcast HSUMMA's two-level split is
/// cost-neutral — all of HSUMMA's advantage must come from broadcast
/// algorithms whose cost grows super-logarithmically (Table II).
pub fn table1(out: &mut String) {
    let _ = writeln!(
        out,
        "Table I — comparison with binomial tree broadcast (evaluated)\n"
    );
    table1_config(
        out,
        "Grid5000 configuration",
        &ModelParams::grid5000(),
        8192.0,
        128.0,
        64.0,
    );
    table1_config(
        out,
        "BlueGene/P configuration",
        &ModelParams::bluegene_p(),
        65536.0,
        16384.0,
        256.0,
    );
}

fn table2_config(out: &mut String, config: &str, params: &ModelParams, n: f64, p: f64, b: f64) {
    let _ = writeln!(out, "-- {config}: n = {n}, p = {p}, b = B = {b} --");
    let summa = summa_cost(params, BcastModel::VanDeGeijn, n, p, b);
    let gs = [4.0, 64.0, p.sqrt(), 4096.0];
    let mut rows = vec![vec![
        "SUMMA".to_string(),
        format!("{:.4e}", summa.latency),
        format!("{:.4e}", summa.bandwidth),
        format!("{:.4e}", summa.comm()),
        "1.00x".to_string(),
    ]];
    for g in gs {
        if g < 1.0 || g > p {
            continue;
        }
        let h = hsumma_cost(
            params,
            BcastModel::VanDeGeijn,
            BcastModel::VanDeGeijn,
            n,
            p,
            g,
            b,
            b,
        );
        rows.push(vec![
            format!("HSUMMA G={g}"),
            format!("{:.4e}", h.latency),
            format!("{:.4e}", h.bandwidth),
            format!("{:.4e}", h.comm()),
            format!("{:.2}x", summa.comm() / h.comm()),
        ]);
    }
    let opt = hsumma_vdg_optimal_cost(params, n, p, b);
    rows.push(vec![
        format!("HSUMMA Eq.12 (G=√p={})", p.sqrt()),
        format!("{:.4e}", opt.latency),
        format!("{:.4e}", opt.bandwidth),
        format!("{:.4e}", opt.comm()),
        format!("{:.2}x", summa.comm() / opt.comm()),
    ]);
    let _ = writeln!(
        out,
        "{}",
        render_table(
            &[
                "algorithm",
                "latency (s)",
                "bandwidth (s)",
                "comm (s)",
                "gain"
            ],
            &rows
        )
    );
    let _ = writeln!(out);
}

/// Table II: SUMMA vs HSUMMA cost terms under the van de Geijn broadcast,
/// including the optimal row `HSUMMA(G = √p, b = B)` of Eq. (12).
///
/// Under van de Geijn's scatter/allgather the latency multiplier is
/// linear in the broadcast width, so splitting a `√p`-wide broadcast into
/// `√G`- and `√p/√G`-wide phases genuinely reduces cost — this is the
/// regime where HSUMMA wins.
pub fn table2(out: &mut String) {
    let _ = writeln!(
        out,
        "Table II — comparison with van de Geijn broadcast (evaluated)\n"
    );
    table2_config(
        out,
        "Grid5000 configuration",
        &ModelParams::grid5000(),
        8192.0,
        128.0,
        64.0,
    );
    table2_config(
        out,
        "BlueGene/P configuration",
        &ModelParams::bluegene_p(),
        65536.0,
        16384.0,
        256.0,
    );
    table2_config(
        out,
        "Exascale configuration",
        &ModelParams::exascale(),
        (1u64 << 22) as f64,
        (1u64 << 20) as f64,
        256.0,
    );
}

/// Figure 5: HSUMMA vs SUMMA on Grid5000.
///
/// Communication time against the number of groups, `b = B = 64`,
/// `n = 8192`, `p = 128`. Paper result: with this small block size the
/// per-step broadcast overhead dominates (SUMMA ≈ 24 s measured) and
/// HSUMMA beats SUMMA by a wide margin at every interior `G`.
pub fn fig5(out: &mut String) {
    let (n, p, b) = (8192usize, 128usize, 64usize);
    let grid = grid_for(p);
    let _ = writeln!(out, "Figure 5 — HSUMMA on Grid5000 (simulated)");
    let _ = writeln!(
        out,
        "b = B = {b}, n = {n}, p = {p} (grid {}x{})\n",
        grid.rows, grid.cols
    );

    for profile in [Profile::Ideal, Profile::Measured] {
        let sweep = run_sweep(profile, Machine::Grid5000, n, p, b);
        let _ = writeln!(out, "== profile: {} ==", profile.label());
        let rows: Vec<Vec<String>> = sweep
            .points
            .iter()
            .map(|pt| {
                vec![
                    pt.g.to_string(),
                    format!("{}x{}", pt.groups.rows, pt.groups.cols),
                    secs(pt.report.comm_time),
                    secs(sweep.summa.comm_time),
                ]
            })
            .collect();
        let _ = writeln!(
            out,
            "{}",
            render_table(&["G", "I x J", "HSUMMA comm (s)", "SUMMA comm (s)"], &rows)
        );
        let best = best_by_comm(&sweep.points);
        let _ = writeln!(
            out,
            "best G = {} -> comm {} s vs SUMMA {} s ({:.2}x less)\n",
            best.g,
            secs(best.report.comm_time),
            secs(sweep.summa.comm_time),
            sweep.summa.comm_time / best.report.comm_time
        );
    }
    let _ = writeln!(
        out,
        "paper (measured, b=64): SUMMA ~24 s; HSUMMA below ~5 s across interior G"
    );
    let _ = writeln!(out, "('outperforms SUMMA with huge difference').");
}

/// Figure 6: HSUMMA vs SUMMA on Grid5000 with the largest block size.
///
/// Same sweep as Fig. 5 but `b = B = 512` (the maximum for this
/// configuration). Paper result: minimum communication times 2.81 s
/// (HSUMMA) vs 4.53 s (SUMMA) — a 1.6× improvement, smaller than at
/// `b = 64` because fewer steps means a smaller per-step-overhead share.
pub fn fig6(out: &mut String) {
    let (n, p, b) = (8192usize, 128usize, 512usize);
    let grid = grid_for(p);
    let _ = writeln!(
        out,
        "Figure 6 — HSUMMA on Grid5000, largest block (simulated)"
    );
    let _ = writeln!(
        out,
        "b = B = {b}, n = {n}, p = {p} (grid {}x{})\n",
        grid.rows, grid.cols
    );

    for profile in [Profile::Ideal, Profile::Measured] {
        let sweep = run_sweep(profile, Machine::Grid5000, n, p, b);
        let _ = writeln!(out, "== profile: {} ==", profile.label());
        let rows: Vec<Vec<String>> = sweep
            .points
            .iter()
            .map(|pt| {
                vec![
                    pt.g.to_string(),
                    secs(pt.report.comm_time),
                    secs(sweep.summa.comm_time),
                ]
            })
            .collect();
        let _ = writeln!(
            out,
            "{}",
            render_table(&["G", "HSUMMA comm (s)", "SUMMA comm (s)"], &rows)
        );
        let best = best_by_comm(&sweep.points);
        let _ = writeln!(
            out,
            "best G = {} -> comm {} s vs SUMMA {} s ({:.2}x less)",
            best.g,
            secs(best.report.comm_time),
            secs(sweep.summa.comm_time),
            sweep.summa.comm_time / best.report.comm_time
        );
        // The G=1 / G=p endpoints must coincide with SUMMA (paper: "HSUMMA
        // can never be worse than SUMMA").
        let g1 = sweep.points.first().expect("non-empty sweep");
        let gp = sweep.points.last().expect("non-empty sweep");
        let _ = writeln!(
            out,
            "endpoint check: G=1 {} s, G=p {} s, SUMMA {} s\n",
            secs(g1.report.comm_time),
            secs(gp.report.comm_time),
            secs(sweep.summa.comm_time)
        );
    }
    let _ = writeln!(
        out,
        "paper (measured): HSUMMA 2.81 s vs SUMMA 4.53 s (1.6x)"
    );
}

/// Figure 7: scalability on Grid5000.
///
/// Communication time of SUMMA and best-G HSUMMA against the number of
/// processes `p ∈ {16, 32, 64, 128}`, `b = B = 512`, `n = 8192`. Paper
/// result: equal on small platforms, HSUMMA pulling ahead as `p` grows.
pub fn fig7(out: &mut String) {
    let (n, b) = (8192usize, 512usize);
    let _ = writeln!(
        out,
        "Figure 7 — SUMMA vs HSUMMA scalability on Grid5000 (simulated)"
    );
    let _ = writeln!(out, "b = B = {b}, n = {n}\n");

    for profile in [Profile::Ideal, Profile::Measured] {
        let _ = writeln!(out, "== profile: {} ==", profile.label());
        let mut rows = Vec::new();
        for p in [16usize, 32, 64, 128] {
            let grid = grid_for(p);
            let sweep = run_sweep(profile, Machine::Grid5000, n, p, b);
            let best = best_by_comm(&sweep.points);
            rows.push(vec![
                p.to_string(),
                format!("{}x{}", grid.rows, grid.cols),
                secs(sweep.summa.comm_time),
                secs(best.report.comm_time),
                best.g.to_string(),
                format!("{:.2}x", sweep.summa.comm_time / best.report.comm_time),
            ]);
        }
        let _ = writeln!(
            out,
            "{}",
            render_table(
                &[
                    "p",
                    "grid",
                    "SUMMA comm (s)",
                    "HSUMMA comm (s)",
                    "best G",
                    "gain"
                ],
                &rows
            )
        );
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "paper (measured): curves overlap at p=16..64 and separate at p=128;"
    );
    let _ = writeln!(
        out,
        "the trend 'HSUMMA more scalable' should be visible as growing gain."
    );
}

/// Figure 8: SUMMA and HSUMMA on 16384 BlueGene/P cores.
///
/// Execution and communication time against the number of groups,
/// `b = B = 256`, `n = 65536`, `p = 16384`. Paper results: SUMMA 50.2 s
/// total / 36.46 s communication; HSUMMA at `G = 512` 21.26 s total /
/// 6.19 s communication (5.89× less communication, 2.36× less total).
///
/// Both simulator profiles are reported: *ideal* follows the paper's
/// contention-free model (modest win, minimum at `G = √p`); *measured*
/// uses effective parameters fitted to the paper's SUMMA measurement
/// only, under which the HSUMMA sweep is a genuine prediction that
/// should land close to the measured 21.26 s / 6.19 s.
pub fn fig8(out: &mut String) {
    let (n, p, b) = (65536usize, 16384usize, 256usize);
    let grid = grid_for(p);
    let _ = writeln!(
        out,
        "Figure 8 — SUMMA and HSUMMA on 16384 cores of BlueGene/P (simulated)"
    );
    let _ = writeln!(
        out,
        "b = B = {b}, n = {n}, p = {p} (grid {}x{})\n",
        grid.rows, grid.cols
    );

    for profile in [Profile::Ideal, Profile::Measured] {
        let sweep = run_sweep(profile, Machine::BlueGeneP, n, p, b);
        let _ = writeln!(out, "== profile: {} ==", profile.label());
        let rows: Vec<Vec<String>> = sweep
            .points
            .iter()
            .map(|pt| {
                vec![
                    pt.g.to_string(),
                    format!("{}x{}", pt.groups.rows, pt.groups.cols),
                    secs(pt.report.total_time),
                    secs(pt.report.comm_time),
                ]
            })
            .collect();
        let _ = writeln!(
            out,
            "{}",
            render_table(
                &["G", "I x J", "HSUMMA total (s)", "HSUMMA comm (s)"],
                &rows
            )
        );
        let best = best_by_comm(&sweep.points);
        let _ = writeln!(
            out,
            "SUMMA: total {} s, comm {} s",
            secs(sweep.summa.total_time),
            secs(sweep.summa.comm_time)
        );
        let _ = writeln!(
            out,
            "best HSUMMA: G = {} -> total {} s, comm {} s ({:.2}x less comm, {:.2}x less total)\n",
            best.g,
            secs(best.report.total_time),
            secs(best.report.comm_time),
            sweep.summa.comm_time / best.report.comm_time,
            sweep.summa.total_time / best.report.total_time,
        );
    }
    let _ = writeln!(out, "paper (measured): SUMMA 50.2 s total / 36.46 s comm;");
    let _ = writeln!(
        out,
        "HSUMMA G=512: 21.26 s total / 6.19 s comm (5.89x comm, 2.36x total)"
    );
}

/// Figure 9: communication scalability on BlueGene/P.
///
/// Communication time of SUMMA and best-G HSUMMA against the core count
/// `p ∈ {2048, 4096, 8192, 16384}`, `b = B = 256`, `n = 65536` (VN
/// mode). Paper result: HSUMMA's communication time grows far more slowly
/// than SUMMA's — the gap widens with `p` (2.08× at 2048 → 5.89× at
/// 16384).
pub fn fig9(out: &mut String) {
    let (n, b) = (65536usize, 256usize);
    let _ = writeln!(
        out,
        "Figure 9 — SUMMA vs HSUMMA communication scalability on BlueGene/P (simulated)"
    );
    let _ = writeln!(out, "b = B = {b}, n = {n}\n");

    for profile in [Profile::Ideal, Profile::Measured] {
        let _ = writeln!(out, "== profile: {} ==", profile.label());
        let mut rows = Vec::new();
        let mut gains = Vec::new();
        for p in [2048usize, 4096, 8192, 16384] {
            let grid = grid_for(p);
            let sweep = run_sweep(profile, Machine::BlueGeneP, n, p, b);
            let best = best_by_comm(&sweep.points);
            let gain = sweep.summa.comm_time / best.report.comm_time;
            gains.push(gain);
            rows.push(vec![
                p.to_string(),
                format!("{}x{}", grid.rows, grid.cols),
                secs(sweep.summa.comm_time),
                secs(best.report.comm_time),
                best.g.to_string(),
                format!("{gain:.2}x"),
            ]);
        }
        let _ = writeln!(
            out,
            "{}",
            render_table(
                &[
                    "p",
                    "grid",
                    "SUMMA comm (s)",
                    "HSUMMA comm (s)",
                    "best G",
                    "gain"
                ],
                &rows
            )
        );
        let widening = gains.windows(2).all(|w| w[1] >= w[0] * 0.99);
        let _ = writeln!(
            out,
            "gain trend with p: {:?} ({})\n",
            gains.iter().map(|g| format!("{g:.2}x")).collect::<Vec<_>>(),
            if widening {
                "widening, matching the paper"
            } else {
                "NOT monotone"
            }
        );
    }
    let _ = writeln!(
        out,
        "paper (measured): 2.08x less comm at 2048 cores, 5.89x at 16384 cores"
    );
}

/// Figure 10: SUMMA and HSUMMA at `p = 2²⁰` — the paper's own
/// theoretical figure: `p = 2²⁰, n = 2²², b = 256`, exascale roadmap
/// parameters (500 ns latency, 100 GB/s links, 1 EFLOP/s aggregate), van
/// de Geijn broadcast. Paper shape: SUMMA constant; HSUMMA U-shaped with
/// its minimum at interior `G`, several times below SUMMA. Schedules
/// executed at the same rank count are the `replay_scale` binary.
pub fn fig10(out: &mut String) {
    let params = ModelParams::exascale();
    let p = (1u64 << 20) as f64;
    let n = (1u64 << 22) as f64;
    let b = 256.0;

    let sweep = predict::sweep_groups(
        &params,
        BcastModel::VanDeGeijn,
        n,
        p,
        b,
        &predict::power_of_two_gs(p),
    );

    let _ = writeln!(out, "Figure 10 — exascale prediction (analytic model)");
    let _ = writeln!(
        out,
        "p = 2^20, n = 2^22, b = B = {b}, van de Geijn broadcast"
    );
    let _ = writeln!(
        out,
        "alpha = 500 ns, beta = 1e-11 s/B (100 GB/s), 1 EFLOP/s aggregate\n"
    );

    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|pt| {
            vec![
                format!("2^{}", pt.g.log2() as u32),
                secs(pt.hsumma.comm()),
                secs(pt.hsumma.total()),
                secs(pt.summa.comm()),
                secs(pt.summa.total()),
            ]
        })
        .collect();
    let _ = writeln!(
        out,
        "{}",
        render_table(
            &[
                "G",
                "HSUMMA comm (s)",
                "HSUMMA total (s)",
                "SUMMA comm (s)",
                "SUMMA total (s)"
            ],
            &rows
        )
    );

    let best = predict::best_point(&sweep);
    let _ = writeln!(
        out,
        "predicted optimum: G = {} (√p = {}), comm {} s vs SUMMA {} s ({:.2}x less)",
        best.g,
        p.sqrt(),
        secs(best.hsumma.comm()),
        secs(best.summa.comm()),
        best.summa.comm() / best.hsumma.comm()
    );
    let _ = writeln!(
        out,
        "paper shape: U-curve over G with interior minimum; endpoints equal SUMMA."
    );
}

struct PaperRow {
    p: usize,
    comm_gain: f64,
    total_gain: f64,
}

/// The paper's headline numbers (abstract / §VI): HSUMMA achieves
/// 2.08× less communication time than SUMMA on 2048 BlueGene/P cores and
/// 5.89× on 16384 cores; overall execution 1.2× and 2.36× less.
///
/// Regenerates the two core counts under both simulator profiles and
/// prints paper-vs-simulated side by side.
pub fn headline(out: &mut String) {
    let (n, b) = (65536usize, 256usize);
    let paper = [
        PaperRow {
            p: 2048,
            comm_gain: 2.08,
            total_gain: 1.2,
        },
        PaperRow {
            p: 16384,
            comm_gain: 5.89,
            total_gain: 2.36,
        },
    ];

    let _ = writeln!(
        out,
        "Headline comparison — BlueGene/P, n = {n}, b = B = {b}\n"
    );
    let mut rows = Vec::new();
    for profile in [Profile::Ideal, Profile::Measured] {
        for pr in &paper {
            let sweep = run_sweep(profile, Machine::BlueGeneP, n, pr.p, b);
            let best = best_by_comm(&sweep.points);
            rows.push(vec![
                match profile {
                    Profile::Ideal => "ideal",
                    Profile::Measured => "measured",
                }
                .to_string(),
                pr.p.to_string(),
                best.g.to_string(),
                format!("{:.2}x", sweep.summa.comm_time / best.report.comm_time),
                format!("{:.2}x", pr.comm_gain),
                format!("{:.2}x", sweep.summa.total_time / best.report.total_time),
                format!("{:.2}x", pr.total_gain),
            ]);
        }
    }
    let _ = writeln!(
        out,
        "{}",
        render_table(
            &[
                "profile",
                "p",
                "best G",
                "comm gain (sim)",
                "comm gain (paper)",
                "total gain (sim)",
                "total gain (paper)",
            ],
            &rows
        )
    );

    // Absolute times at 16384 under the measured profile, next to the
    // paper's measurements.
    let sweep = run_sweep(Profile::Measured, Machine::BlueGeneP, n, 16384, b);
    let best = best_by_comm(&sweep.points);
    let _ = writeln!(
        out,
        "\nabsolute times at p = 16384 (measured profile vs paper):"
    );
    let _ = writeln!(
        out,
        "{}",
        render_table(
            &["quantity", "simulated (s)", "paper (s)"],
            &[
                vec![
                    "SUMMA total".into(),
                    secs(sweep.summa.total_time),
                    "50.2".into()
                ],
                vec![
                    "SUMMA comm".into(),
                    secs(sweep.summa.comm_time),
                    "36.46".into()
                ],
                vec![
                    "HSUMMA total".into(),
                    secs(best.report.total_time),
                    "21.26".into()
                ],
                vec![
                    "HSUMMA comm".into(),
                    secs(best.report.comm_time),
                    "6.19".into()
                ],
            ]
        )
    );
    let _ = writeln!(
        out,
        "note: the measured profile is fitted to the SUMMA row only;"
    );
    let _ = writeln!(out, "the HSUMMA rows are predictions of the simulator.");
}

/// Model validation (§V-A.1, §V-B.1): checks the regime condition
/// `α/β ≷ 2nb/p` for each platform, locates the simulated optimum, and
/// compares it against the analytic `G = √p` prediction — the same
/// validation the paper walks through.
pub fn validate_model(out: &mut String) {
    let _ = writeln!(out, "Analytic-model validation\n");

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
    let _ = writeln!(
        out,
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
    let _ = writeln!(
        out,
        "expected: InteriorMinimum everywhere (the paper verifies the same inequality),"
    );
    let _ = writeln!(out, "and a vanishing derivative at G = sqrt(p).\n");

    // Where does the *simulated* optimum land relative to √p? (The paper
    // §V-A.1 notes the experimental minimum is near but not exactly √p.)
    let _ = writeln!(
        out,
        "simulated optimum vs analytic prediction (ideal profile):"
    );
    let mut rows = Vec::new();
    for (name, platform, n, p, b) in &cases[..2] {
        let grid = grid_for(*p);
        let bcast = Profile::Ideal.bcast();
        let sweep = sweep_groups(grid, &power_of_two_gs(*p), |groups| {
            simulate(
                &Schedule::hsumma(grid, groups, *n, *b, *b, bcast, bcast),
                platform,
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
    let _ = writeln!(
        out,
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

/// Related-work comparison (§I context): where HSUMMA sits among
/// Cannon, Fox, the 3-D algorithm and the 2.5D algorithm — on both the
/// communication axis and the *memory* axis the paper argues on
/// ("the 2.5D algorithm can not be scalable on the future exascale
/// systems" because it needs `c` extra matrix replicas, §I).
///
/// Analytic comparison at exascale parameters plus a simulated
/// comparison of the executable baselines at BG/P parameters.
pub fn related_work(out: &mut String) {
    // ---- analytic, exascale --------------------------------------------
    let params = ModelParams::exascale();
    let p = (1u64 << 20) as f64;
    let n = (1u64 << 22) as f64;
    let b = 256.0;

    let _ = writeln!(
        out,
        "Related work at exascale parameters (analytic): p = 2^20, n = 2^22\n"
    );
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
    let _ = writeln!(
        out,
        "{}",
        render_table(&["algorithm", "comm (s)", "memory vs 2-D"], &rows)
    );
    let _ = writeln!(
        out,
        "reading: 3D/2.5D buy communication with memory replicas the paper"
    );
    let _ = writeln!(
        out,
        "argues exascale nodes will not have; HSUMMA improves at 1x memory.\n"
    );

    // ---- simulated baselines at BG/P scale ------------------------------
    let platform = Profile::Measured.platform(Machine::BlueGeneP);
    let q = 64usize; // 4096 cores, square for Cannon/Fox
    let n_sim = 16384usize;
    let b_sim = 256usize;
    let grid = GridShape::new(q, q);

    let _ = writeln!(
        out,
        "Simulated baselines on {} ({} cores), n = {n_sim} (measured-effective profile):\n",
        platform.name,
        q * q
    );
    let sim = |sched| simulate(&sched, &platform, true);
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
    let _ = writeln!(
        out,
        "{}",
        render_table(&["algorithm", "comm (s)", "total (s)"], &rows)
    );
    let _ = writeln!(
        out,
        "Cannon/Fox shift whole tiles between neighbours (no wide broadcasts)"
    );
    let _ = writeln!(
        out,
        "but require square grids and one-tile-per-step granularity; HSUMMA"
    );
    let _ = writeln!(
        out,
        "keeps SUMMA's generality while closing the broadcast gap."
    );
}

/// Ablation: block size `b = B` — the Fig. 5 vs Fig. 6 discussion.
///
/// "Smaller block sizes lead to a larger number of steps and this in
/// turn will affect the latency cost" (§V-A). Sweeps `b` on both
/// platforms under both profiles and reports SUMMA and best-G HSUMMA
/// communication time. Under the ideal (van de Geijn) profile the gain
/// shrinks as `b` grows — the Fig. 5 / Fig. 6 contrast, driven by the
/// per-step α term. Under the measured-effective (serialized) profile
/// both algorithms scale with `b` identically, so the gain is
/// `b`-invariant: the paper's stronger-than-modelled `b` dependence is
/// evidence of a fixed per-broadcast-call overhead on the real machines.
pub fn ablation_blocksize(out: &mut String) {
    let _ = writeln!(out, "Ablation — block size b = B\n");

    for (label, machine, n, p, blocks) in [
        (
            "Grid5000",
            Machine::Grid5000,
            8192usize,
            128usize,
            vec![64usize, 128, 256, 512],
        ),
        (
            "BlueGene/P",
            Machine::BlueGeneP,
            65536,
            2048,
            vec![128, 256, 512, 1024],
        ),
    ] {
        let grid = grid_for(p);
        for profile in [Profile::Ideal, Profile::Measured] {
            let _ = writeln!(
                out,
                "== {label} : n = {n}, p = {p} (grid {}x{}), profile: {} ==",
                grid.rows,
                grid.cols,
                profile.label()
            );
            let mut rows = Vec::new();
            for &b in &blocks {
                let sweep = run_sweep(profile, machine, n, p, b);
                let best = best_by_comm(&sweep.points);
                rows.push(vec![
                    b.to_string(),
                    (n / b).to_string(),
                    secs(sweep.summa.comm_time),
                    secs(best.report.comm_time),
                    best.g.to_string(),
                    format!("{:.2}x", sweep.summa.comm_time / best.report.comm_time),
                ]);
            }
            let _ = writeln!(
                out,
                "{}",
                render_table(
                    &[
                        "b",
                        "steps",
                        "SUMMA comm (s)",
                        "HSUMMA comm (s)",
                        "best G",
                        "gain"
                    ],
                    &rows
                )
            );
            let _ = writeln!(out);
        }
    }
    let _ = writeln!(
        out,
        "ideal profile: gain falls as b grows (latency share shrinks) — the"
    );
    let _ = writeln!(
        out,
        "paper's Fig. 5 vs Fig. 6 contrast. measured profile: gain is flat in b"
    );
    let _ = writeln!(
        out,
        "because the serialized model has no per-call fixed overhead beyond α."
    );
}

const ALGOS: [(&str, SimBcast); 5] = [
    ("flat", SimBcast::Flat),
    ("binomial", SimBcast::Binomial),
    ("binary", SimBcast::Binary),
    ("pipelined16", SimBcast::Pipelined { segments: 16 }),
    ("vdgeijn", SimBcast::ScatterAllgather),
];

/// Ablation: broadcast algorithm inside and between groups.
///
/// §II-B surveys the MPI broadcast menu; HSUMMA "can use any of the
/// existing optimized broadcast algorithms and still reduce the
/// communication cost of SUMMA" (§II). This sweep fixes the platform and
/// grouping and varies the (outer, inner) broadcast pair, showing that
/// the hierarchy's win is not an artifact of one broadcast choice —
/// and which pairing is best at these panel sizes.
pub fn ablation_bcast(out: &mut String) {
    let platform = Platform::bluegene_p();
    let (n, p, b, g) = (65536usize, 2048usize, 256usize, 64usize);
    let grid = grid_for(p);
    let groups = HierGrid::factor_groups(grid, g).expect("valid grouping");

    let _ = writeln!(
        out,
        "Ablation — broadcast algorithms (ideal BG/P parameters)"
    );
    let _ = writeln!(
        out,
        "n = {n}, p = {p} (grid {}x{}), G = {g} ({}x{}), b = B = {b}\n",
        grid.rows, grid.cols, groups.rows, groups.cols
    );

    let sim = |sched| simulate(&sched, &platform, true);
    let _ = writeln!(out, "SUMMA per broadcast algorithm:");
    let mut rows = Vec::new();
    for (name, algo) in ALGOS {
        let r = sim(Schedule::summa(grid, n, b, algo));
        rows.push(vec![name.to_string(), secs(r.comm_time)]);
    }
    let _ = writeln!(out, "{}", render_table(&["bcast", "SUMMA comm (s)"], &rows));

    let _ = writeln!(out, "\nHSUMMA per (outer, inner) broadcast pair:");
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
    let _ = writeln!(out, "{}", render_table(&headers, &rows));

    let _ = writeln!(
        out,
        "\nreading: every column's HSUMMA times sit at or below the same"
    );
    let _ = writeln!(
        out,
        "algorithm's SUMMA row — the hierarchy helps for any broadcast whose"
    );
    let _ = writeln!(
        out,
        "cost grows super-logarithmically in the communicator width."
    );
}

/// Extension: more than two hierarchy levels (§VI future work).
///
/// "We also plan to investigate the algorithm with more than two levels
/// of hierarchy as we believe that in this case it is possible to get
/// even better performance."
///
/// Runs SUMMA with 1–4-level hierarchical broadcasts on a 16384-core
/// grid under both broadcast regimes. Under a serialized (measured-
/// effective) broadcast, each extra level replaces a `q`-wide phase by
/// narrower ones, so latency keeps falling towards `Σ qᵢ ≥ L·q^(1/L)`;
/// the sweep locates the depth where returns diminish.
pub fn multilevel(out: &mut String) {
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

    let _ = writeln!(
        out,
        "Multi-level HSUMMA on 16384 cores, n = {n}, b = B = {b}\n"
    );
    for profile in [Profile::Ideal, Profile::Measured] {
        let platform = profile.platform(Machine::BlueGeneP);
        let algo = profile.bcast();
        let _ = writeln!(out, "== profile: {} ==", profile.label());
        let mut rows = Vec::new();
        let mut base = None;
        for (name, levels) in configs {
            let r =
                hsumma_core::multilevel::sim_summa_hier(&platform, grid, n, b, algo, levels, true);
            let base_time = *base.get_or_insert(r.comm_time);
            rows.push(vec![
                name.to_string(),
                secs(r.comm_time),
                secs(r.total_time),
                format!("{:.2}x", base_time / r.comm_time),
            ]);
        }
        let _ = writeln!(
            out,
            "{}",
            render_table(&["hierarchy", "comm (s)", "total (s)", "vs 1 level"], &rows)
        );
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "note: per-level broadcasts here run every step (b = B at all levels);"
    );
    let _ = writeln!(
        out,
        "two levels with this shape reproduce simulated HSUMMA exactly (unit-tested)."
    );
}

/// Extension: hierarchical LU (§VI — "apply the same approach to other
/// numerical linear algebra kernels such as QR/LU factorization").
///
/// Sweeps the group count for the distributed block LU's panel
/// broadcasts on a simulated BlueGene/P and reports the same
/// flat-vs-hierarchical comparison the paper makes for SUMMA. The
/// communication structure is SUMMA-like (one L-panel broadcast along
/// rows + one U-panel broadcast along columns per step), so the
/// hierarchy should transfer — this table quantifies how much.
pub fn extension_lu(out: &mut String) {
    let (n, p, b) = (65536usize, 16384usize, 256usize);
    let grid = grid_for(p);

    let _ = writeln!(
        out,
        "Extension — hierarchical block LU on BlueGene/P (simulated)"
    );
    let _ = writeln!(
        out,
        "n = {n}, p = {p} (grid {}x{}), panel width {b}\n",
        grid.rows, grid.cols
    );

    for profile in [Profile::Ideal, Profile::Measured] {
        let platform = profile.platform(Machine::BlueGeneP);
        let bcast = profile.bcast();
        let _ = writeln!(out, "== profile: {} ==", profile.label());
        let lu = |groups| simulate(&Schedule::lu(grid, n, b, bcast, groups), &platform, true);
        let flat = lu(None);
        let mut rows = vec![vec![
            "flat (plain LU)".to_string(),
            secs(flat.comm_time),
            secs(flat.total_time),
            "1.00x".to_string(),
        ]];
        let mut best = (1usize, flat.total_time);
        for g in [4usize, 16, 64, 256, 1024, 4096] {
            let Some(groups) = HierGrid::factor_groups(grid, g) else {
                continue;
            };
            let r = lu(Some(groups));
            if r.total_time < best.1 {
                best = (g, r.total_time);
            }
            rows.push(vec![
                format!("HLU G={g} ({}x{})", groups.rows, groups.cols),
                secs(r.comm_time),
                secs(r.total_time),
                format!("{:.2}x", flat.total_time / r.total_time),
            ]);
        }
        let _ = writeln!(
            out,
            "{}",
            render_table(
                &["configuration", "comm (s)", "total (s)", "total gain"],
                &rows
            )
        );
        let _ = writeln!(
            out,
            "best grouping: G = {} -> {:.2}x faster factorization\n",
            best.0,
            flat.total_time / best.1
        );
    }
    let _ = writeln!(
        out,
        "reading: the SUMMA->HSUMMA mechanism transfers to LU because the"
    );
    let _ = writeln!(
        out,
        "panel broadcasts have the same row/column structure. note the 'comm'"
    );
    let _ = writeln!(
        out,
        "column includes idle waits of already-finished ranks (LU's trailing"
    );
    let _ = writeln!(
        out,
        "matrix shrinks), so total time is the meaningful comparison."
    );
}

/// Extension: communication-avoiding TSQR (§VI — the QR half of "apply
/// the same approach to other numerical linear algebra kernels").
///
/// Prices the TSQR tree schedule against the naive gather-and-factor
/// alternative for tall-skinny panels at BlueGene/P scale — the same
/// "shrink the communicator" principle HSUMMA applies to broadcasts,
/// applied to the QR reduction.
pub fn extension_qr(out: &mut String) {
    let platform = Profile::Measured.platform(Machine::BlueGeneP);
    let _ = writeln!(
        out,
        "Extension — TSQR vs gather-and-factor on {} (simulated)\n",
        platform.name
    );

    for (rows, n) in [(4096usize, 32usize), (16384, 64)] {
        let _ = writeln!(out, "local blocks {rows} x {n}:");
        let mut table = Vec::new();
        for p in [16usize, 64, 256, 1024] {
            let (tree, gather) = sim_tsqr(&platform, p, rows, n);
            table.push(vec![
                p.to_string(),
                format!("{:.4}", tree),
                format!("{:.4}", gather),
                format!("{:.1}x", gather / tree),
            ]);
        }
        let _ = writeln!(
            out,
            "{}",
            render_table(&["p", "TSQR (s)", "gather+QR (s)", "speedup"], &table)
        );
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "reading: the tree exchanges log2(p) tiny R factors instead of"
    );
    let _ = writeln!(
        out,
        "shipping the whole tall matrix — the advantage grows linearly in p."
    );
}

/// Weak-scaling trajectory toward exascale (§I's motivation: "as HPC
/// moves towards exascale, the cost of matrix multiplication will be
/// dominated by communication cost").
///
/// Holds per-processor memory constant (`n ∝ √p`) and walks `p` from
/// BG/P scale to the exascale roadmap, reporting — via the analytic
/// model — the *communication fraction* of SUMMA vs best-G HSUMMA. The
/// paper's motivating claim corresponds to SUMMA's fraction climbing
/// with `p`; HSUMMA's should climb markedly more slowly.
pub fn weak_scaling(out: &mut String) {
    let params = ModelParams::exascale();
    let b = 256.0;
    // n = 2^22 at p = 2^20 (the paper's exascale point) scaled as √p.
    let n_per_sqrt_p = (1u64 << 22) as f64 / ((1u64 << 20) as f64).sqrt();

    let _ = writeln!(
        out,
        "Weak scaling toward exascale (analytic, van de Geijn broadcast)"
    );
    let _ = writeln!(
        out,
        "memory per processor held constant: n = {n_per_sqrt_p:.0}·sqrt(p), b = B = {b}\n"
    );

    let mut rows = Vec::new();
    for log2p in [14u32, 16, 18, 20, 22] {
        let p = (1u64 << log2p) as f64;
        let n = n_per_sqrt_p * p.sqrt();
        let summa = summa_cost(&params, BcastModel::VanDeGeijn, n, p, b);
        let sweep = predict::sweep_groups(
            &params,
            BcastModel::VanDeGeijn,
            n,
            p,
            b,
            &predict::power_of_two_gs(p),
        );
        let best = predict::best_point(&sweep);
        rows.push(vec![
            format!("2^{log2p}"),
            format!("{n:.0}"),
            format!("{:.1}%", 100.0 * summa.comm() / summa.total()),
            format!("{:.1}%", 100.0 * best.hsumma.comm() / best.hsumma.total()),
            format!("{:.0}", best.g),
            format!("{:.2}x", summa.comm() / best.hsumma.comm()),
        ]);
    }
    let _ = writeln!(
        out,
        "{}",
        render_table(
            &[
                "p",
                "n",
                "SUMMA comm share",
                "HSUMMA comm share",
                "best G",
                "comm gain"
            ],
            &rows
        )
    );
    let _ = writeln!(
        out,
        "\nreading: under weak scaling SUMMA's communication share grows with p"
    );
    let _ = writeln!(
        out,
        "(the paper's exascale motivation); HSUMMA defers that crossover."
    );
}

/// Robustness of the optimal grouping under system noise.
///
/// The paper selects `G` by sampling and notes (§V-A.1) that its
/// experimental minimum is near but not exactly the model's `√p`. One
/// practical question a deployer has: does the chosen `G` survive
/// transfer-time jitter (OS noise, network variation)? This table repeats
/// the BlueGene/P group sweep under increasing deterministic jitter and
/// reports where the optimum lands and how much the gain degrades.
pub fn noise_robustness(out: &mut String) {
    let profile = Profile::Measured;
    let platform = profile.platform(Machine::BlueGeneP);
    let bcast = profile.bcast();
    let (n, p, b) = (32768usize, 2048usize, 256usize);
    let grid = grid_for(p);

    let _ = writeln!(
        out,
        "Noise robustness — BlueGene/P (measured profile), p = {p}, n = {n}, b = B = {b}"
    );
    let _ = writeln!(
        out,
        "jitter: each transfer slowed by a uniform factor in [1, 1+amplitude]\n"
    );

    let mut rows = Vec::new();
    for amplitude in [0.0f64, 0.2, 0.5, 1.0] {
        // One jittered, step-synchronized run on a fresh network.
        let run = |sched: Schedule| {
            let mut net = SimNet::new(grid.size(), platform.net);
            if amplitude > 0.0 {
                net.set_noise(NoiseModel::new(1, amplitude));
            }
            simulate_on(&sched, &mut net, platform.gamma, true)
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
    let _ = writeln!(
        out,
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
    let _ = writeln!(
        out,
        "\nexpected: the optimal G and the relative gain are stable under"
    );
    let _ = writeln!(
        out,
        "uniform jitter (both algorithms slow down together) — grouping"
    );
    let _ = writeln!(
        out,
        "decisions made on a quiet machine transfer to a noisy one."
    );
}

/// The algorithms generic over the [`Communicator`] substrate (2.5D,
/// overlapped SUMMA, block LU) executed over simulated clocks at
/// BlueGene/P scale.
///
/// Each row is the real schedule — every send, broadcast, reduce and
/// barrier the threaded run would perform — replayed with phantom
/// payloads on `p = 4096` simulated ranks (64 × 64 grid / 32 × 32 × 4
/// for 2.5D), priced with the paper's BlueGene/P `(α, β, γ)`. A second
/// table runs the same schedules at `p = 2¹⁶`, past the thread-per-rank
/// simulator's VM-map ceiling; both record and replay every schedule
/// (`docs/simulation.md`).
///
/// [`Communicator`]: hsumma_core::Communicator
pub fn large_scale(out: &mut String) {
    const P: usize = 4096;
    const N: usize = 8192;
    const B: usize = 128;

    fn row(name: &str, cfg: &str, r: &SimReport) -> Vec<String> {
        vec![
            name.to_string(),
            cfg.to_string(),
            secs(r.comm_time),
            secs(r.total_time),
            format!("{}", r.msgs),
            format!("{:.2}", r.bytes as f64 / 1e9),
        ]
    }

    let platform = Platform::bluegene_p();
    let grid = GridShape::new(64, 64);
    let _ = writeln!(
        out,
        "== generic schedules on simulated BlueGene/P: p = {P}, n = {N}, b = {B} ==\n"
    );

    let mut rows = Vec::new();

    let sim = |sched, step_sync| simulate(&sched, &platform, step_sync);
    let bc = SimBcast::Binomial;

    // Baselines: free-running and per-step-synchronized SUMMA.
    let summa = sim(Schedule::summa(grid, N, B, bc), false);
    rows.push(row("summa", "64x64, free-run", &summa));
    let summa_sync = sim(Schedule::summa(grid, N, B, bc), true);
    rows.push(row("summa", "64x64, step-sync", &summa_sync));

    // Pipelined SUMMA: the two-slot panel buffer hides panel transfers.
    let over = sim(Schedule::summa(grid, N, B, bc).pipelined(), false);
    rows.push(row("overlap", "64x64, pipelined", &over));

    // 2.5D with c = 1 (degenerate, SUMMA-shaped) and c = 4 replicas.
    let twodotfive = |n, q, c| Schedule::TwoDotFive {
        n,
        cfg: TwoDotFiveConfig {
            q,
            c,
            summa: SummaConfig {
                block: B,
                bcast: bc,
                kernel: GemmKernel::Blocked,
            },
        },
    };
    let r1 = sim(twodotfive(N, 64, 1), false);
    rows.push(row("2.5d", "q=64, c=1", &r1));
    let r4 = sim(twodotfive(N, 32, 4), false);
    rows.push(row("2.5d", "q=32, c=4", &r4));

    // Block LU under serialized (root-injection-bound) panel broadcasts,
    // the regime the measured profiles exhibit: one-level vs 8x8 groups.
    let lu = |groups| sim(Schedule::lu(grid, N, B, SimBcast::Flat, groups), true);
    let lu_flat = lu(None);
    rows.push(row("lu", "64x64, one level", &lu_flat));
    let lu_hier = lu(Some(GridShape::new(8, 8)));
    rows.push(row("lu", "64x64, 8x8 groups", &lu_hier));

    let _ = writeln!(
        out,
        "{}",
        render_table(
            &["algorithm", "config", "comm s", "total s", "msgs", "GB"],
            &rows
        )
    );

    // The same schedules, four doublings past the thread ceiling: each
    // row records every rank's op program sequentially and replays all
    // 65536 of them on a single-threaded event loop.
    let rp = 1 << 16;
    let rgrid = GridShape::new(256, 256);
    let (rn, rb) = (16384, 64);
    let _ = writeln!(out, "\n== same schedules, p = {rp} (replay engine) ==\n");
    let mut rrows = Vec::new();
    let rsumma = sim(Schedule::summa(rgrid, rn, rb, bc), false);
    rrows.push(row("summa", "256x256, free-run", &rsumma));
    let rgroups = GridShape::new(16, 16);
    let rhsumma = sim(Schedule::hsumma(rgrid, rgroups, rn, rb, rb, bc, bc), false);
    rrows.push(row("hsumma", "G=256 (sqrt p)", &rhsumma));
    let r25 = sim(twodotfive(rn, 128, 4), false);
    rrows.push(row("2.5d", "q=128, c=4", &r25));
    let _ = writeln!(
        out,
        "{}",
        render_table(
            &["algorithm", "config", "comm s", "total s", "msgs", "GB"],
            &rrows
        )
    );

    let _ = writeln!(
        out,
        "overlap hides {:.1}% of synchronized SUMMA's makespan",
        (1.0 - over.total_time / summa_sync.total_time) * 100.0
    );
    let _ = writeln!(
        out,
        "2.5d c=4 cuts communication {:.2}x vs c=1 (memory cost: 4x replicas)",
        r1.comm_time / r4.comm_time
    );
    let _ = writeln!(
        out,
        "hierarchical LU panel broadcasts cut serialized comm {:.2}x",
        lu_flat.comm_time / lu_hier.comm_time
    );
}

/// One measured point of the cosma sweep.
struct CosmaPoint {
    label: &'static str,
    engine: SimEngine,
    p: usize,
    m: usize,
    n: usize,
    k: usize,
    shape: BrickShape,
    sim_bytes: u64,
    rel_err: f64,
    cosma_s: f64,
    /// HSUMMA's best-grouping makespan — square grid-divisible points only.
    hsumma_s: Option<f64>,
    /// What `advise_gemm` crowned at this point.
    advised: String,
    /// Scoreboard and measurement agree on cosma-vs-hsumma (where both ran).
    agree: Option<bool>,
}

/// Measures one point: cosma on the simulator, the analytic volume, and
/// — when the problem is square and `√p` is a usable grid — HSUMMA at
/// the model's best grouping for comparison. The `engine` picks the
/// substrate: the thread-per-rank reference up to the VM-map ceiling,
/// record-and-replay (bit-identical, threadless) beyond it, so that the
/// table cross-checks the two.
#[allow(clippy::too_many_arguments)]
fn measure_cosma(
    platform: &Platform,
    engine: SimEngine,
    label: &'static str,
    p: usize,
    m: usize,
    n: usize,
    k: usize,
    b: usize,
) -> CosmaPoint {
    let cfg = CosmaConfig::for_problem(p, m, n, k);
    let d = cfg.decomp;
    let shape = BrickShape {
        a: d.a,
        b: d.b,
        c: d.c,
    };
    let dims = MatMulDims { m, l: k, n };
    let sim = |sched: &Schedule| {
        let mut net = SimNet::new(p, platform.net);
        match engine {
            SimEngine::Threads => threads_on(&mut net, platform.gamma, sched, false),
            SimEngine::Replay => simulate_on(sched, &mut net, platform.gamma, false),
        }
    };
    let report = sim(&Schedule::Cosma { p, dims, cfg });
    let model_bytes = cosma_volume(shape, m as f64, n as f64, k as f64);
    let rel_err = (report.bytes as f64 - model_bytes).abs() / model_bytes.max(1.0);

    let params = model_params(platform);
    let advice = advise_gemm(
        &params,
        BcastModel::Binomial,
        m as f64,
        n as f64,
        k as f64,
        p as f64,
        b as f64,
    );
    let advised = match advice.choice {
        AlgoChoice::Summa => "summa".to_string(),
        AlgoChoice::Hsumma { g } => format!("hsumma(G={g})"),
        AlgoChoice::Cannon => "cannon".to_string(),
        AlgoChoice::Cosma { shape } => {
            format!("cosma({}x{}x{})", shape.a, shape.b, shape.c)
        }
    };

    // HSUMMA comparison: needs a square problem on a square grid that
    // divides the extents.
    let q = (p as f64).sqrt() as usize;
    let hsumma_s =
        (m == n && k == n && q * q == p && n.is_multiple_of(q) && (n / q).is_multiple_of(b)).then(
            || {
                let grid = GridShape::new(q, q);
                let g = advice.hsumma.0.round().max(1.0) as usize;
                let groups = HierGrid::factor_groups(grid, g).unwrap_or(GridShape::new(1, 1));
                let outer = (b * 2).min(n / q);
                let bc = SimBcast::Binomial;
                let sched = Schedule::hsumma(grid, groups, n, outer, b, bc, bc);
                sim(&sched).total_time
            },
        );
    let agree = hsumma_s.map(|h| {
        let cosma_won_measured = report.total_time < h;
        let cosma_won_scoreboard = matches!(advice.choice, AlgoChoice::Cosma { .. });
        cosma_won_measured == cosma_won_scoreboard
    });

    CosmaPoint {
        label,
        engine,
        p,
        m,
        n,
        k,
        shape,
        sim_bytes: report.bytes,
        rel_err,
        cosma_s: report.total_time,
        hsumma_s,
        advised,
        agree,
    }
}

/// The brick schedule priced against HSUMMA at BlueGene/P scale, with
/// the analytic volume model held to account.
///
/// Three claims per point, all on the simulator (the only substrate
/// where thousands of ranks genuinely run in parallel):
///
/// * **volume** — the simulator's measured wire bytes for the cosma
///   schedule must land within 10% of [`cosma_volume`]'s closed form
///   (exactly, when the decomposition divides every extent);
/// * **displacement** — on square bandwidth-dominated problems the
///   `(a, b, c)` brick decomposition moves a fraction of the
///   2-D algorithms' `O(n²√p)` volume, so its measured makespan beats
///   HSUMMA's best grouping;
/// * **scoreboard** — [`advise_gemm`]'s winner (which charges cosma the
///   checkerboard→brick redistribution toll) agrees with the measured
///   ranking at each point where both algorithms run.
///
/// Points up to `p = 8192` run thread-per-rank; beyond the VM-map
/// ceiling the record-and-replay engine carries the ladder to
/// `p = 2¹⁶` here (and to the paper's `2²⁰` in `replay_scale`). Wherever
/// a problem runs on both engines the rows must agree exactly.
///
/// Also sweeps [`best_brick`] memory budgets at the paper's scale.
/// Counter-intuitively, replication is the memory-*lean* end here: a
/// deeper `c` partitions `k`, shrinking each rank's resident A/B
/// bricks, while the flat `c = 1` grid holds unpartitioned `k`-panels.
/// Tighter budgets therefore force more DFS steps (smaller in-flight
/// panels) until even the resident bricks no longer fit.
pub fn cosma(out: &mut String) {
    let platform = Platform::bluegene_p();

    // Block size fed to the scoreboard (and HSUMMA's inner pivot width).
    let b = 128;
    use SimEngine::{Replay, Threads};
    let points: Vec<CosmaPoint> = vec![
        // The paper's BlueGene/P scale: p = 4096 = 16³ ranks.
        measure_cosma(&platform, Threads, "square-4k", 4096, 8192, 8192, 8192, b),
        measure_cosma(
            &platform,
            Threads,
            "square-4k-big",
            4096,
            16384,
            16384,
            16384,
            b,
        ),
        // Prime rank count, prime-ish extents: uneven bricks and
        // fragments everywhere the closed form can wobble.
        measure_cosma(&platform, Threads, "awkward-4k", 4093, 8191, 8191, 8191, b),
        // Tall-skinny: the regime 2-D checkerboards fundamentally
        // waste — the search spends every rank along m.
        measure_cosma(
            &platform,
            Threads,
            "tall-skinny-4k",
            4096,
            1 << 20,
            512,
            512,
            b,
        ),
        // Upper end of the *threaded* range. One OS thread per rank
        // (~4 VM maps each) means the default `vm.max_map_count` of
        // 65530 caps thread-per-rank runs just short of p = 16384;
        // 8192 is the largest comfortable power of two.
        measure_cosma(
            &platform,
            Threads,
            "square-8k",
            8192,
            16384,
            16384,
            16384,
            b,
        ),
        // Past the thread ceiling the record-and-replay engine takes
        // over: same schedule, same bytes, zero threads. The ladder
        // continues to the paper's 2²⁰ ranks in `replay_scale`.
        measure_cosma(
            &platform,
            Replay,
            "square-16k",
            16384,
            16384,
            16384,
            16384,
            b,
        ),
        measure_cosma(
            &platform,
            Replay,
            "square-64k",
            65536,
            32768,
            32768,
            32768,
            b,
        ),
    ];

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|pt| {
            vec![
                pt.label.to_string(),
                match pt.engine {
                    SimEngine::Threads => "threads".to_string(),
                    SimEngine::Replay => "replay".to_string(),
                },
                format!("{}", pt.p),
                format!("{}x{}x{}", pt.m, pt.k, pt.n),
                format!("{}x{}x{}", pt.shape.a, pt.shape.b, pt.shape.c),
                format!("{:.2}", pt.sim_bytes as f64 / 1e9),
                format!("{:.2}%", pt.rel_err * 100.0),
                secs(pt.cosma_s),
                pt.hsumma_s.map_or("-".to_string(), secs),
                pt.advised.clone(),
                pt.agree.map_or("-".to_string(), |a| {
                    if a { "yes" } else { "NO" }.to_string()
                }),
            ]
        })
        .collect();
    let _ = writeln!(
        out,
        "== cosma vs hsumma on simulated BlueGene/P (b = {b}) ==\n"
    );
    let _ = writeln!(
        out,
        "{}",
        render_table(
            &[
                "point",
                "engine",
                "p",
                "m x k x n",
                "bricks",
                "sim GB",
                "vol err",
                "cosma s",
                "hsumma s",
                "advised",
                "agree"
            ],
            &rows
        )
    );

    // Memory-budget sweep (model-only): tighter per-rank budgets force
    // shallower replication.
    let params = model_params(&platform);
    let (bm, bn, bk, bp) = (16384.0, 16384.0, 16384.0, 4096);
    let _ = writeln!(out, "memory-budget sweep at p = {bp}, n = {bm}:");
    let unbounded = best_brick(&params, BcastModel::Binomial, bp, bm, bn, bk, None)
        .expect("unbounded search always finds a shape");
    let base = cosma_footprint_elems(unbounded.shape, bm, bn, bk, unbounded.steps);
    for (name, frac) in [
        ("unbounded", None),
        ("0.8x winner", Some(0.8)),
        ("0.6x winner", Some(0.6)),
    ] {
        let adv = best_brick(
            &params,
            BcastModel::Binomial,
            bp,
            bm,
            bn,
            bk,
            frac.map(|f| f * base),
        );
        let _ = match adv {
            Some(adv) => writeln!(
                out,
                "  {name:<12} -> {}x{}x{} (steps {}, comm {})",
                adv.shape.a,
                adv.shape.b,
                adv.shape.c,
                adv.steps,
                secs(adv.cost.comm())
            ),
            None => writeln!(out, "  {name:<12} -> infeasible"),
        };
    }

    // Any problem measured on both engines must agree exactly — the
    // replay engine's contract is bit-identity, not approximation.
    let engines_agree = points.iter().all(|pt| {
        points
            .iter()
            .filter(|o| (o.p, o.m, o.n, o.k) == (pt.p, pt.m, pt.n, pt.k))
            .all(|o| o.sim_bytes == pt.sim_bytes && o.cosma_s == pt.cosma_s)
    });
    let volume_ok = points.iter().all(|pt| pt.rel_err <= 0.10);
    let displaced = points
        .iter()
        .any(|pt| pt.hsumma_s.is_some_and(|h| pt.cosma_s < h) && pt.advised.starts_with("cosma"));
    let scoreboard_ok = points.iter().all(|pt| pt.agree != Some(false));
    let _ = writeln!(
        out,
        "\nthreaded and replay engines agree exactly where both ran: {engines_agree}"
    );
    let _ = writeln!(
        out,
        "sim wire bytes within 10% of the closed form at every point: {volume_ok}"
    );
    let _ = writeln!(
        out,
        "cosma displaces hsumma (measured AND on the scoreboard): {displaced}"
    );
    let _ = writeln!(
        out,
        "scoreboard agrees with the measured ranking everywhere both ran: {scoreboard_ok}"
    );
}

/// Virtual makespan of one plan on the simulator.
fn sim_secs(platform: &Platform, grid: GridShape, n: usize, plan: PlannedAlgo) -> f64 {
    let dims = MatMulDims::square(n);
    let sched = Schedule::Gemm { grid, dims, plan };
    simulate(&sched, platform, false).total_time
}

/// The double-buffered pivot pipeline against the blocking schedule over
/// flat broadcasts: the same per-rank `(src, dst, bytes)` multiset
/// (pinned by `tests/overlap_parity.rs`), so only *when* ranks block
/// differs between the two legs.
///
/// Priced on the simulator's virtual clocks, where every rank genuinely
/// runs in parallel and blocking time is priced exactly: waits deferred
/// behind compute cost nothing unless the transfer is genuinely late.
/// Two profiles: BlueGene/P-effective (bandwidth-dominated — small wins)
/// and Grid5000-effective (the paper's own fitted latency-heavy profile,
/// where the pipeline's send-before-wait ordering pays off).
pub fn overlap(out: &mut String) {
    // p = 16 ranks on a 4x4 grid, n = 1024: γ·2n³/p dominates and there
    // is compute to hide behind.
    let grid = GridShape::new(4, 4);
    let groups = GridShape::new(2, 2);
    let n = 1024;
    let (bb, bs) = (64, 32);

    // Flat broadcasts on the blocking legs: the pipeline's nonblocking
    // fan-out is flat by construction (and ignores these fields).
    let flat = BcastAlgorithm::Flat;
    let cfg = HsummaConfig {
        outer_block: bb,
        inner_block: bs,
        outer_bcast: flat,
        inner_bcast: flat,
        kernel: GemmKernel::Packed,
        ..HsummaConfig::uniform(groups, bb)
    };

    let bg = Platform::bluegene_p_effective();
    let sim_bg_pipe = sim_secs(&bg, grid, n, PlannedAlgo::HsummaPipelined(cfg));
    let sim_bg_block = sim_secs(&bg, grid, n, PlannedAlgo::Hsumma(cfg));
    let g5k = Platform::grid5000_effective();
    let sim_g5k_pipe = sim_secs(&g5k, grid, n, PlannedAlgo::HsummaPipelined(cfg));
    let sim_g5k_block = sim_secs(&g5k, grid, n, PlannedAlgo::Hsumma(cfg));
    // Boundary-heavy variant (b = B): every inner slice is an outer
    // boundary, so the adaptive cross-boundary handoff carries the whole
    // schedule — the pipeline's best case.
    let bcfg = HsummaConfig {
        inner_block: bb,
        ..cfg
    };
    let sim_bh_pipe = sim_secs(&g5k, grid, n, PlannedAlgo::HsummaPipelined(bcfg));
    let sim_bh_block = sim_secs(&g5k, grid, n, PlannedAlgo::Hsumma(bcfg));

    let sim_bg_speedup = sim_bg_block / sim_bg_pipe;
    let sim_g5k_speedup = sim_g5k_block / sim_g5k_pipe;
    let sim_bh_speedup = sim_bh_block / sim_bh_pipe;
    let meets = sim_g5k_speedup >= 1.10;

    let _ = writeln!(
        out,
        "double-buffered pipeline vs blocking schedule over flat broadcasts, simulated \
         (p={}, n={n}, G={}x{}, B={bb}, b={bs}):",
        grid.size(),
        groups.rows,
        groups.cols
    );
    let _ = writeln!(
        out,
        "  simulated hsumma (bluegene-effective): {:.6} s -> {:.6} s  ({sim_bg_speedup:.3}x)",
        sim_bg_block, sim_bg_pipe
    );
    let _ = writeln!(
        out,
        "  simulated hsumma (grid5000-effective): {:.6} s -> {:.6} s  ({sim_g5k_speedup:.3}x)",
        sim_g5k_block, sim_g5k_pipe
    );
    let _ = writeln!(
        out,
        "  simulated hsumma (grid5000-effective, b=B={bb}): {:.6} s -> {:.6} s  ({sim_bh_speedup:.3}x)",
        sim_bh_block, sim_bh_pipe
    );
    let _ = writeln!(
        out,
        "  simulated grid5000-effective speedup {sim_g5k_speedup:.3}x — target >= 1.10x: {}",
        if meets { "MET" } else { "MISSED" }
    );
}
