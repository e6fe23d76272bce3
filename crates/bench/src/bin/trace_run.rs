//! `trace_run` — trace any algorithm on the real runtime, the simulator,
//! or both, at a chosen `(p, n, b, B, G)`.
//!
//! ```text
//! trace_run --algo hsumma --mode both --p 16 --n 128 --b 8 --B 16 --G 4 \
//!           --machine grid5000 --out trace
//! ```
//!
//! * `--mode real` runs the algorithm on rank threads with real data and
//!   wall clocks; `--mode sim` replays its communication schedule on the
//!   discrete-event simulator with virtual clocks; `--mode both` runs
//!   both and **verifies that the two substrates emit identical per-rank
//!   `(src, dst, bytes)` message multisets**, exiting nonzero on any
//!   mismatch (this is what CI runs).
//! * Each traced run writes a Chrome-trace JSON (`<out>-real.json` /
//!   `<out>-sim.json`, openable at `chrome://tracing` or
//!   <https://ui.perfetto.dev>) and prints the critical path and the
//!   per-pivot-step communication/computation breakdown.
//!
//! Broadcasts are pinned to binomial trees on both substrates so their
//! schedules are comparable message-for-message.

use hsumma_bench::grid_for;
use hsumma_core::grid::HierGrid;
use hsumma_core::lu::{block_lu, LuConfig};
use hsumma_core::simdrive::{replay_on, simulate_on, Schedule};
use hsumma_core::{
    cosma, fox, hier_bcast, run_planned_gemm, summa_cyclic, tile_of, tsqr, twodotfive, CosmaConfig,
    Distribution, HsummaConfig, MatMulDims, PhantomMat, PlannedAlgo, SummaConfig, TwoDotFiveConfig,
};
use hsumma_matrix::factor::seeded_diag_dominant;
use hsumma_matrix::sparse::{seeded_sparse, CsrMatrix};
use hsumma_matrix::{seeded_uniform, BlockCyclicDist, GemmKernel, GridShape, Matrix};
use hsumma_netsim::spmd::SimWorld;
use hsumma_netsim::{record, Platform, SimBcast, SimNet};
use hsumma_runtime::{BcastAlgorithm, Runtime};
use hsumma_sparse::{scatter_csr, sddmm_2d, spgemm_2d, PhantomSparse, SparseConfig};
use hsumma_trace::{render_breakdown, Trace, Tracer};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

/// Every algorithm the tracer knows how to drive on both substrates.
pub const ALGOS: &[&str] = &[
    "summa",
    "hsumma",
    "cannon",
    "fox",
    "lu",
    "cyclic",
    "overlap",
    "hsumma-overlap",
    "rect",
    "twodotfive",
    "cosma",
    "tsqr",
    "hierbcast",
    "spgemm",
    "sddmm",
];

/// Fill used for the sparse operands of `--algo spgemm|sddmm`, chosen
/// well inside the regime where the nnz-aware scoreboard keeps the CSR
/// schedule (so the trace exercises genuinely nnz-dependent wire bytes).
const SPARSE_DENSITY: f64 = 0.2;

const USAGE: &str = "usage:
  trace_run [--algo summa|hsumma|cannon|fox|lu|cyclic|overlap|
                    hsumma-overlap|rect|twodotfive|cosma|tsqr|
                    hierbcast|spgemm|sddmm]
            [--mode real|sim|both]
            [--p 16] [--n 128] [--b 8] [--B 16] [--G 4]
            [--machine grid5000|bluegene] [--out trace]
trace an algorithm run; `both` verifies real and simulated runs emit
identical per-rank (src, dst, bytes) message multisets
(for twodotfive, --G is the replication depth c and p must equal q*q*c;
for hierbcast, --G is the leader-group count of the two-level tree;
cosma runs the searched (a, b, c) brick schedule — p need not be square;
spgemm/sddmm move CSR payloads at 20% fill, pivot block --b)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args
        .iter()
        .any(|a| a == "--help" || a == "-h" || a == "help")
    {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match parse_flags(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let key = key
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got `{key}`"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    Ok(map)
}

fn get<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: cannot parse `{v}`")),
    }
}

struct Config {
    algo: String,
    /// Total rank count (equals `grid.size()` except for 2.5D, where the
    /// grid is one `q x q` layer of `ranks = q*q*c`).
    ranks: usize,
    grid: GridShape,
    groups: GridShape,
    /// Replication depth / leader-group count (the `--G` flag).
    g: usize,
    n: usize,
    inner_b: usize,
    outer_b: usize,
    platform: Platform,
}

fn run(opts: &HashMap<String, String>) -> Result<(), String> {
    let algo = get(opts, "algo", "hsumma".to_string())?;
    let mode = get(opts, "mode", "both".to_string())?;
    let p: usize = get(opts, "p", 16)?;
    let n: usize = get(opts, "n", 128)?;
    let inner_b: usize = get(opts, "b", 8)?;
    let outer_b: usize = get(opts, "B", inner_b * 2)?;
    let g: usize = get(opts, "G", 4)?;
    let machine = get(opts, "machine", "grid5000".to_string())?;
    let out = get(opts, "out", "trace".to_string())?;

    let grid = match algo.as_str() {
        // Cannon and Fox need a square grid.
        "cannon" | "fox" => {
            let q = (p as f64).sqrt() as usize;
            if q * q != p {
                return Err(format!("--algo {algo} needs a square p, got {p}"));
            }
            GridShape::new(q, q)
        }
        // 2.5D lays p = q*q*c ranks out as c layers of a q x q grid.
        "twodotfive" => {
            if !p.is_multiple_of(g) {
                return Err(format!(
                    "--algo twodotfive needs c = G ({g}) to divide p ({p})"
                ));
            }
            let q = ((p / g) as f64).sqrt() as usize;
            if q * q * g != p {
                return Err(format!(
                    "--algo twodotfive needs p = q*q*c; p={p}, c={g} leaves no square q"
                ));
            }
            GridShape::new(q, q)
        }
        _ => grid_for(p),
    };
    // Only the hierarchical multiplies interpret G as a group grid; the
    // others use it as a scalar (2.5D depth, broadcast-tree fanout) or
    // not at all.
    let groups = match HierGrid::factor_groups(grid, g) {
        Some(gs) => gs,
        None if matches!(algo.as_str(), "hsumma" | "hsumma-overlap" | "lu") => {
            return Err(format!(
                "G={g} has no valid factorization on a {}x{} grid",
                grid.rows, grid.cols
            ))
        }
        None => GridShape::new(1, 1),
    };
    let platform = match machine.as_str() {
        "grid5000" => Platform::grid5000(),
        "bluegene" => Platform::bluegene_p(),
        other => return Err(format!("unknown machine `{other}`")),
    };
    let cfg = Config {
        algo,
        ranks: p,
        grid,
        groups,
        g,
        n,
        inner_b,
        outer_b,
        platform,
    };

    let real = match mode.as_str() {
        "real" | "both" => Some(run_real(&cfg)?),
        "sim" => None,
        other => return Err(format!("unknown mode `{other}`")),
    };
    let sim = match mode.as_str() {
        "sim" | "both" => Some(run_sim(&cfg)?),
        _ => None,
    };

    if let Some(trace) = &real {
        report(&cfg, trace, "real", &format!("{out}-real.json"))?;
    }
    if let Some(trace) = &sim {
        report(&cfg, trace, "sim", &format!("{out}-sim.json"))?;
    }
    if let (Some(real), Some(sim)) = (&real, &sim) {
        compare_multisets(real, sim)?;
        println!(
            "real and simulated runs emit identical per-rank (src, dst, bytes) \
             message multisets"
        );
    }
    Ok(())
}

/// Executes the algorithm on rank threads with real data, returning its
/// trace (wall-clock timestamps).
fn run_real(cfg: &Config) -> Result<Trace, String> {
    let (grid, n) = (cfg.grid, cfg.n);
    let tracer = Tracer::new(cfg.ranks);
    let a = seeded_uniform(n, n, 100);
    let b = seeded_uniform(n, n, 200);
    let dist = Distribution::grid2d(grid, n, n);
    let at = dist.scatter(&a);
    let bt = dist.scatter(&b);
    if let Some((dims, plan)) = planned_gemm(cfg) {
        let MatMulDims { m, l, n } = dims;
        let at = Distribution::grid2d(grid, m, l).scatter(&seeded_uniform(m, l, 100));
        let bt = Distribution::grid2d(grid, l, n).scatter(&seeded_uniform(l, n, 200));
        Runtime::run_traced(grid.size(), &tracer, |comm| {
            let (at, bt) = (at[comm.rank()].clone(), bt[comm.rank()].clone());
            run_planned_gemm(comm, grid, m, n, l, &at, &bt, &plan).unwrap()
        });
        return Ok(tracer.collect());
    }
    match cfg.algo.as_str() {
        "fox" => {
            Runtime::run_traced(grid.size(), &tracer, |comm| {
                let (at, bt) = (at[comm.rank()].clone(), bt[comm.rank()].clone());
                fox(comm, grid, n, &at, &bt, GemmKernel::Packed).unwrap()
            });
        }
        "lu" => {
            let lcfg = LuConfig {
                block: cfg.inner_b,
                bcast: BcastAlgorithm::Binomial,
                kernel: GemmKernel::Packed,
                groups: cfg.groups,
            };
            let lt = dist.scatter(&seeded_diag_dominant(n, 42));
            Runtime::run_traced(grid.size(), &tracer, |comm| {
                block_lu(comm, grid, n, &lt[comm.rank()].clone(), &lcfg).unwrap()
            });
        }
        "cyclic" => {
            let scfg = summa_cfg(cfg);
            let cdist = BlockCyclicDist::new(grid, n, n, cfg.inner_b);
            let at = cdist.scatter(&a);
            let bt = cdist.scatter(&b);
            Runtime::run_traced(grid.size(), &tracer, |comm| {
                let (at, bt) = (at[comm.rank()].clone(), bt[comm.rank()].clone());
                summa_cyclic(comm, grid, n, &at, &bt, &scfg).unwrap()
            });
        }
        "twodotfive" => {
            let tcfg = twodotfive_cfg(cfg);
            let ts = n / grid.rows;
            Runtime::run_traced(cfg.ranks, &tracer, |comm| {
                // Only layer 0 holds real tiles; other layers pass zeros.
                let layer_rank = comm.rank() % grid.size();
                let (at, bt) = if comm.rank() < grid.size() {
                    (at[layer_rank].clone(), bt[layer_rank].clone())
                } else {
                    (Matrix::zeros(ts, ts), Matrix::zeros(ts, ts))
                };
                twodotfive(comm, n, &at, &bt, &tcfg).unwrap()
            });
        }
        "cosma" => {
            let ccfg = cosma_cfg(cfg);
            let d = ccfg.decomp;
            let at = d.a_distribution(n, n, cfg.ranks).scatter(&a);
            let bt = d.b_distribution(n, n, cfg.ranks).scatter(&b);
            Runtime::run_traced(cfg.ranks, &tracer, |comm| {
                let r = comm.rank();
                cosma(comm, n, n, n, &at[r], &bt[r], &ccfg).unwrap();
            });
        }
        "tsqr" => {
            // Tall-skinny: each rank contributes an n x b block.
            let blocks: Vec<Matrix> = (0..cfg.ranks)
                .map(|r| seeded_uniform(n, cfg.inner_b, 300 + r as u64))
                .collect();
            Runtime::run_traced(cfg.ranks, &tracer, |comm| {
                tsqr(comm, &blocks[comm.rank()]).unwrap()
            });
        }
        "hierbcast" => {
            let levels = [cfg.g, cfg.ranks / cfg.g];
            check_hierbcast_levels(cfg)?;
            Runtime::run_traced(cfg.ranks, &tracer, |comm| {
                let mut m = if comm.rank() == 0 {
                    a.clone()
                } else {
                    Matrix::zeros(n, n)
                };
                hier_bcast(comm, BcastAlgorithm::Binomial, 0, &mut m, &levels).unwrap();
            });
        }
        "spgemm" => {
            let scfg = sparse_cfg(cfg);
            let (sa, sb) = sparse_operands(cfg);
            let sat: Vec<Arc<CsrMatrix>> =
                scatter_csr(grid, &sa).into_iter().map(Arc::new).collect();
            let sbt: Vec<Arc<CsrMatrix>> =
                scatter_csr(grid, &sb).into_iter().map(Arc::new).collect();
            Runtime::run_traced(grid.size(), &tracer, |comm| {
                let r = comm.rank();
                spgemm_2d(comm, grid, n, &sat[r], &sbt[r], &scfg).unwrap();
            });
        }
        "sddmm" => {
            let scfg = sparse_cfg(cfg);
            let s = seeded_sparse(n, n, SPARSE_DENSITY, 300);
            let st: Vec<Arc<CsrMatrix>> = scatter_csr(grid, &s).into_iter().map(Arc::new).collect();
            // The dense factors reuse the dealt A and B tiles.
            Runtime::run_traced(grid.size(), &tracer, |comm| {
                let r = comm.rank();
                sddmm_2d(comm, grid, n, &st[r], &at[r], &bt[r], &scfg).unwrap();
            });
        }
        other => return Err(format!("unknown algorithm `{other}`")),
    }
    Ok(tracer.collect())
}

/// Binomial-tree SUMMA at the `--b` panel width (also the per-layer
/// configuration of 2.5D and the dealing block of `cyclic`).
fn summa_cfg(cfg: &Config) -> SummaConfig {
    SummaConfig {
        block: cfg.inner_b,
        bcast: BcastAlgorithm::Binomial,
        kernel: GemmKernel::Packed,
    }
}

/// Binomial-tree HSUMMA at `(--G, --B, --b)`.
fn hsumma_cfg(cfg: &Config) -> HsummaConfig {
    HsummaConfig {
        groups: cfg.groups,
        outer_block: cfg.outer_b,
        inner_block: cfg.inner_b,
        outer_bcast: BcastAlgorithm::Binomial,
        inner_bcast: BcastAlgorithm::Binomial,
        kernel: GemmKernel::Packed,
    }
}

/// 2.5D over `c = --G` layers of the `q × q` grid.
fn twodotfive_cfg(cfg: &Config) -> TwoDotFiveConfig {
    TwoDotFiveConfig {
        q: cfg.grid.rows,
        c: cfg.g,
        summa: summa_cfg(cfg),
    }
}

/// The brick schedule both substrates trace for `--algo cosma`: a
/// searched `(a, b, c)` decomposition of the square `n³` cube, with the
/// replication pipelined over `--b`-wide `k`-slices.
fn cosma_cfg(cfg: &Config) -> CosmaConfig {
    let base = CosmaConfig::for_problem(cfg.ranks, cfg.n, cfg.n, cfg.n);
    let k_brick = cfg.n.div_ceil(base.decomp.c);
    CosmaConfig {
        steps: (k_brick / cfg.inner_b.max(1)).max(1),
        ..base
    }
}

/// Sparse schedule config shared by the spgemm/sddmm arms: the pivot
/// block is the same `--b` the dense algorithms use.
fn sparse_cfg(cfg: &Config) -> SparseConfig {
    SparseConfig {
        block: cfg.inner_b,
        ..SparseConfig::default()
    }
}

/// The seeded CSR operands both substrates trace for `--algo spgemm`.
fn sparse_operands(cfg: &Config) -> (CsrMatrix, CsrMatrix) {
    (
        seeded_sparse(cfg.n, cfg.n, SPARSE_DENSITY, 100),
        seeded_sparse(cfg.n, cfg.n, SPARSE_DENSITY, 200),
    )
}

/// The grid GEMMs as the plan both substrates run: `run_planned_gemm` on
/// rank threads, `Schedule::Gemm` on the simulator. `rect` traces
/// `C (n x n) = A (n x 2n) · B (2n x n)`.
fn planned_gemm(cfg: &Config) -> Option<(MatMulDims, PlannedAlgo)> {
    let n = cfg.n;
    let square = MatMulDims::square(n);
    let kernel = GemmKernel::Packed;
    Some(match cfg.algo.as_str() {
        "summa" => (square, PlannedAlgo::Summa(summa_cfg(cfg))),
        "overlap" => (square, PlannedAlgo::SummaPipelined(summa_cfg(cfg))),
        "hsumma" => (square, PlannedAlgo::Hsumma(hsumma_cfg(cfg))),
        "hsumma-overlap" => (square, PlannedAlgo::HsummaPipelined(hsumma_cfg(cfg))),
        "cannon" => (square, PlannedAlgo::Cannon { kernel }),
        "rect" => (
            MatMulDims { m: n, l: 2 * n, n },
            PlannedAlgo::Summa(summa_cfg(cfg)),
        ),
        _ => return None,
    })
}

fn check_hierbcast_levels(cfg: &Config) -> Result<(), String> {
    if cfg.g == 0 || !cfg.ranks.is_multiple_of(cfg.g) {
        return Err(format!(
            "--algo hierbcast needs G ({}) to divide p ({})",
            cfg.g, cfg.ranks
        ));
    }
    Ok(())
}

/// Replays the algorithm's communication schedule on the simulator,
/// returning its trace (virtual timestamps).
fn run_sim(cfg: &Config) -> Result<Trace, String> {
    let (grid, n) = (cfg.grid, cfg.n);
    let tracer = Tracer::new(cfg.ranks);
    let mut net = SimNet::new(cfg.ranks, cfg.platform.net);
    net.attach_tracer(&tracer);
    let gamma = cfg.platform.gamma;
    // Every dense multiply is a `Schedule` value: the same generic
    // function the real run takes, over simulated clocks with phantom
    // payloads.
    let gemm = planned_gemm(cfg).map(|(dims, plan)| Schedule::Gemm { grid, dims, plan });
    let sched = gemm.or_else(|| match cfg.algo.as_str() {
        "fox" => Some(Schedule::Fox {
            q: grid.rows,
            n,
            bcast: SimBcast::Binomial,
        }),
        "cyclic" => Some(Schedule::Cyclic {
            grid,
            n,
            cfg: summa_cfg(cfg),
        }),
        "twodotfive" => Some(Schedule::TwoDotFive {
            n,
            cfg: twodotfive_cfg(cfg),
        }),
        "cosma" => Some(Schedule::Cosma {
            p: cfg.ranks,
            dims: MatMulDims::square(n),
            cfg: cosma_cfg(cfg),
        }),
        "lu" => Some(Schedule::lu(
            grid,
            n,
            cfg.inner_b,
            SimBcast::Binomial,
            cfg.groups,
        )),
        _ => None,
    });
    if let Some(sched) = sched {
        simulate_on(&sched, &mut net, gamma, false);
        return Ok(tracer.collect());
    }
    // The rest have no `Schedule` variant: the dense ones are recorded
    // and replayed like one, the sparse ones run over `SimWorld`.
    match cfg.algo.as_str() {
        "tsqr" => {
            let block = PhantomMat {
                rows: n,
                cols: cfg.inner_b,
            };
            let prog = record(cfg.ranks, false, |comm| tsqr(comm, &block).map(drop));
            replay_on(&mut net, gamma, &prog);
        }
        "hierbcast" => {
            check_hierbcast_levels(cfg)?;
            let levels = [cfg.g, cfg.ranks / cfg.g];
            let prog = record(cfg.ranks, false, |comm| {
                let mut m = PhantomMat { rows: n, cols: n };
                hier_bcast(comm, BcastAlgorithm::Binomial, 0, &mut m, &levels)
            });
            replay_on(&mut net, gamma, &prog);
        }
        // The sparse schedules also run generically: the simulator holds
        // only the nonzero *patterns* (`PhantomSparse`), yet must price
        // every panel at its exact CSR wire size.
        "spgemm" => {
            let scfg = sparse_cfg(cfg);
            let (sa, sb) = sparse_operands(cfg);
            let sat: Vec<PhantomSparse> = scatter_csr(grid, &sa)
                .iter()
                .map(PhantomSparse::from_csr)
                .collect();
            let sbt: Vec<PhantomSparse> = scatter_csr(grid, &sb)
                .iter()
                .map(PhantomSparse::from_csr)
                .collect();
            SimWorld::run(net, gamma, false, move |comm| {
                let r = comm.rank();
                spgemm_2d(comm, grid, n, &sat[r], &sbt[r], &scfg).unwrap();
            });
        }
        "sddmm" => {
            let scfg = sparse_cfg(cfg);
            let s = seeded_sparse(n, n, SPARSE_DENSITY, 300);
            let st: Vec<PhantomSparse> = scatter_csr(grid, &s)
                .iter()
                .map(PhantomSparse::from_csr)
                .collect();
            SimWorld::run(net, gamma, false, move |comm| {
                let r = comm.rank();
                let (rows, cols) = tile_of(grid, r, n, n);
                let tile = PhantomMat { rows, cols };
                sddmm_2d(comm, grid, n, &st[r], &tile, &tile, &scfg).unwrap();
            });
        }
        other => return Err(format!("unknown algorithm `{other}`")),
    }
    Ok(tracer.collect())
}

/// Writes the Chrome-trace JSON and prints the analyses for one run.
fn report(cfg: &Config, trace: &Trace, label: &str, path: &str) -> Result<(), String> {
    let json = trace.to_chrome_json();
    hsumma_trace::validate_json(&json).map_err(|e| format!("{label} trace JSON invalid: {e}"))?;
    std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;

    println!(
        "== {} {} on {}x{} grid, n={}, b={}, B={}, G={} ==",
        label,
        cfg.algo,
        cfg.grid.rows,
        cfg.grid.cols,
        cfg.n,
        cfg.inner_b,
        cfg.outer_b,
        cfg.groups.size()
    );
    println!(
        "{} events ({} dropped), {} payload messages -> {path}",
        trace.events.len(),
        trace.dropped,
        trace.payload_send_multiset().len()
    );

    let cp = trace.critical_path();
    println!("{}", cp.render());
    // The overlap acceptance signal: a pipelined run at compute-bound
    // sizes must push every broadcast edge off the *steady-state*
    // critical path (cold-start pipeline-fill edges are unavoidable for
    // any schedule — there is no compute to hide the first panel behind).
    if matches!(cfg.algo.as_str(), "overlap" | "hsumma-overlap") {
        let stalls = cp.steady_state_edges();
        let fill = cp.message_edges.len() - stalls.len();
        if cp.is_compute_bound() {
            println!(
                "steady-state broadcast edges on critical path: 0 \
                 ({fill} pipeline-fill) — compute-bound"
            );
        } else {
            println!(
                "steady-state broadcast edges on critical path: {} \
                 ({fill} pipeline-fill) — communication-bound",
                stalls.len()
            );
        }
    }
    // α/β attribution only makes sense against the simulator's cost
    // model; wall-clock traces get their edge count and bytes instead.
    if label == "sim" {
        let cost = cp.attribute(cfg.platform.net.alpha, cfg.platform.net.beta);
        println!(
            "critical-path attribution: alpha {:.6} s over {} edges, beta {:.6} s over {} B, \
             compute {:.6} s",
            cost.alpha_seconds, cost.edges, cost.beta_seconds, cost.bytes, cost.compute_seconds
        );
    }
    println!("{}", render_breakdown(&trace.step_breakdown()));
    Ok(())
}

/// Fails unless both traces carry the same per-rank payload multisets.
fn compare_multisets(real: &Trace, sim: &Trace) -> Result<(), String> {
    let r = real.per_rank_send_multisets();
    let s = sim.per_rank_send_multisets();
    if r.len() != s.len() {
        return Err(format!(
            "rank count differs: real {} vs sim {}",
            r.len(),
            s.len()
        ));
    }
    for (rank, (rm, sm)) in r.iter().zip(&s).enumerate() {
        if rm != sm {
            return Err(format!(
                "rank {rank}: real sent {} payload messages, sim {}; first divergence: {:?}",
                rm.len(),
                sm.len(),
                rm.iter().zip(sm).find(|(a, b)| a != b)
            ));
        }
    }
    Ok(())
}
