//! `cosma_bench` — the brick schedule priced against HSUMMA at
//! BlueGene/P scale, with the analytic volume model held to account.
//!
//! Three claims per point, all on the simulator (the only substrate
//! where thousands of ranks genuinely run in parallel):
//!
//! * **volume** — the simulator's measured wire bytes for the cosma
//!   schedule must land within 10% of [`cosma_volume`]'s closed form
//!   (exactly, when the decomposition divides every extent);
//! * **displacement** — on square bandwidth-dominated problems the
//!   `(a, b, c)` brick decomposition moves a fraction of the
//!   2-D algorithms' `O(n²√p)` volume, so its measured makespan beats
//!   HSUMMA's best grouping;
//! * **scoreboard** — [`advise_gemm`]'s winner (which charges cosma the
//!   checkerboard→brick redistribution toll) agrees with the measured
//!   ranking at each point where both algorithms run.
//!
//! Points up to `p = 8192` run thread-per-rank; beyond the VM-map
//! ceiling the record-and-replay engine carries the ladder to
//! `p = 2¹⁶` here (and to the paper's `2²⁰` in `fig10`). Wherever a
//! problem runs on both engines the rows must agree exactly.
//!
//! Also sweeps [`best_brick`] memory budgets at the paper's scale.
//! Counter-intuitively, replication is the memory-*lean* end here: a
//! deeper `c` partitions `k`, shrinking each rank's resident A/B
//! bricks, while the flat `c = 1` grid holds unpartitioned `k`-panels.
//! Tighter budgets therefore force more DFS steps (smaller in-flight
//! panels) until even the resident bricks no longer fit.
//!
//! Results go to stdout and `BENCH_cosma.json`.
//!
//! ```sh
//! cargo run --release -p hsumma-bench --bin cosma_bench [-- --smoke]
//! ```

use hsumma_bench::{model_params, render_table, secs};
use hsumma_core::{simulate, CosmaConfig, HierGrid, MatMulDims, Schedule, SimEngine};
use hsumma_matrix::GridShape;
use hsumma_model::{
    advise_gemm, best_brick, cosma_footprint_elems, cosma_volume, AlgoChoice, BcastModel,
    BrickShape,
};
use hsumma_netsim::{Platform, SimBcast};
use std::fmt::Write as _;

/// One measured point of the sweep.
struct Point {
    label: &'static str,
    engine: SimEngine,
    p: usize,
    m: usize,
    n: usize,
    k: usize,
    shape: BrickShape,
    sim_bytes: u64,
    model_bytes: f64,
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
/// substrate: thread-per-rank up to the VM-map ceiling, record-and-replay
/// (bit-identical, threadless) beyond it.
#[allow(clippy::too_many_arguments)]
fn measure(
    platform: &Platform,
    engine: SimEngine,
    label: &'static str,
    p: usize,
    m: usize,
    n: usize,
    k: usize,
    b: usize,
) -> Point {
    let cfg = CosmaConfig::for_problem(p, m, n, k);
    let d = cfg.decomp;
    let shape = BrickShape {
        a: d.a,
        b: d.b,
        c: d.c,
    };
    let dims = MatMulDims { m, l: k, n };
    let report = simulate(&Schedule::Cosma { p, dims, cfg }, platform, engine, false);
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
                simulate(&sched, platform, engine, false).total_time
            },
        );
    let agree = hsumma_s.map(|h| {
        let cosma_won_measured = report.total_time < h;
        let cosma_won_scoreboard = matches!(advice.choice, AlgoChoice::Cosma { .. });
        cosma_won_measured == cosma_won_scoreboard
    });

    Point {
        label,
        engine,
        p,
        m,
        n,
        k,
        shape,
        sim_bytes: report.bytes,
        model_bytes,
        rel_err,
        cosma_s: report.total_time,
        hsumma_s,
        advised,
        agree,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let platform = Platform::bluegene_p();

    // Block size fed to the scoreboard (and HSUMMA's inner pivot width).
    let b = if smoke { 16 } else { 128 };
    use SimEngine::{Replay, Threads};
    let points: Vec<Point> = if smoke {
        vec![
            measure(&platform, Threads, "square", 64, 512, 512, 512, b),
            measure(&platform, Threads, "awkward", 13, 97, 61, 83, b),
            measure(&platform, Threads, "tall-skinny", 64, 1 << 14, 128, 128, b),
            // The same square point on the record-and-replay engine:
            // both rows of the table must agree byte for byte.
            measure(&platform, Replay, "square-replay", 64, 512, 512, 512, b),
        ]
    } else {
        vec![
            // The paper's BlueGene/P scale: p = 4096 = 16³ ranks.
            measure(&platform, Threads, "square-4k", 4096, 8192, 8192, 8192, b),
            measure(
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
            measure(&platform, Threads, "awkward-4k", 4093, 8191, 8191, 8191, b),
            // Tall-skinny: the regime 2-D checkerboards fundamentally
            // waste — the search spends every rank along m.
            measure(
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
            measure(
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
            // continues to the paper's 2²⁰ ranks in `fig10`.
            measure(
                &platform,
                Replay,
                "square-16k",
                16384,
                16384,
                16384,
                16384,
                b,
            ),
            measure(
                &platform,
                Replay,
                "square-64k",
                65536,
                32768,
                32768,
                32768,
                b,
            ),
        ]
    };

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
    println!("== cosma vs hsumma on simulated BlueGene/P (b = {b}) ==\n");
    println!(
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
    let (bm, bn, bk, bp) = if smoke {
        (512.0, 512.0, 512.0, 64)
    } else {
        (16384.0, 16384.0, 16384.0, 4096)
    };
    println!("memory-budget sweep at p = {bp}, n = {bm}:");
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
        match adv {
            Some(adv) => println!(
                "  {name:<12} -> {}x{}x{} (steps {}, comm {})",
                adv.shape.a,
                adv.shape.b,
                adv.shape.c,
                adv.steps,
                secs(adv.cost.comm())
            ),
            None => println!("  {name:<12} -> infeasible"),
        }
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
    println!("\nthreaded and replay engines agree exactly where both ran: {engines_agree}");
    println!("sim wire bytes within 10% of the closed form at every point: {volume_ok}");
    println!("cosma displaces hsumma (measured AND on the scoreboard): {displaced}");
    println!("scoreboard agrees with the measured ranking everywhere both ran: {scoreboard_ok}");

    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"smoke\": {smoke},\n  \"platform\": \"bluegene_p\",\n  \"block\": {b},\n  \"points\": [\n"
    );
    for (i, pt) in points.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"label\": \"{}\", \"engine\": \"{}\", \"p\": {}, \"m\": {}, \"k\": {}, \
             \"n\": {}, \"bricks\": \"{}x{}x{}\", \"sim_bytes\": {}, \"model_bytes\": {:.0}, \
             \"volume_rel_err\": {:.6}, \"cosma_s\": {:.6}, \"hsumma_s\": {}, \
             \"advised\": \"{}\", \"scoreboard_agrees\": {}}}{}",
            pt.label,
            match pt.engine {
                SimEngine::Threads => "threads",
                SimEngine::Replay => "replay",
            },
            pt.p,
            pt.m,
            pt.k,
            pt.n,
            pt.shape.a,
            pt.shape.b,
            pt.shape.c,
            pt.sim_bytes,
            pt.model_bytes,
            pt.rel_err,
            pt.cosma_s,
            pt.hsumma_s
                .map_or("null".to_string(), |h| format!("{h:.6}")),
            pt.advised,
            pt.agree.map_or("null".to_string(), |a| a.to_string()),
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"engines_agree\": {engines_agree},\n  \
         \"volume_within_10pct\": {volume_ok},\n  \
         \"cosma_displaces_hsumma\": {displaced},\n  \
         \"scoreboard_agrees\": {scoreboard_ok}\n}}\n"
    );
    std::fs::write("BENCH_cosma.json", &json).expect("write BENCH_cosma.json");
    println!("wrote BENCH_cosma.json");
}
