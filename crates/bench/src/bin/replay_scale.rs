//! Figure 10's territory, executed: schedules at up to `p = 2²⁰` recorded
//! and replayed, where the paper (and `figures fig10`) could only price
//! the closed form.
//!
//! Two layers, reported together:
//!
//! * **HSUMMA replay G-sweeps** — executed on the record-and-replay
//!   engine (bit-identical to the threaded simulator, but threadless:
//!   these rank counts would exhaust `vm.max_map_count` thread-per-rank).
//!   Binomial at `p = 2¹⁶` replays every `G` to *identical* comm time —
//!   the Table I cost-neutrality identity, executed; van de Geijn at
//!   `p = 2¹⁴` shows the paper's U-curve with its interior minimum.
//! * **COSMA replay ladder to `p = 2²⁰`** — the brick schedule recorded
//!   once per point and replayed on the event loop at 2¹⁶, 2¹⁸ and the
//!   paper's full 2²⁰ ranks, with the measured wire bytes held against
//!   [`cosma_volume`]'s closed form (exact on dividing shapes, < 2%
//!   on awkward ones).
//!
//! Results go to stdout and `BENCH_scale.json`; a small traced replay
//! also writes `replay_trace.json` (Chrome `about:tracing` format).
//! `--smoke` runs the `p = 2¹⁶` ladder rung only, under a wall-clock
//! budget and a peak-memory budget per recorded op — the CI guard
//! proving the replay engine stays a laptop-budget tool at six-figure
//! rank counts.
//!
//! ```sh
//! cargo run --release -p hsumma-bench --bin replay_scale [-- --smoke]
//! ```

use hsumma_bench::{render_table, secs};
use hsumma_core::simdrive::{replay_on, simulate, Schedule};
use hsumma_core::tuning;
use hsumma_core::{CosmaConfig, MatMulDims};
use hsumma_matrix::GridShape;
use hsumma_model::{cosma_volume, BrickShape};
use hsumma_netsim::{Platform, SimBcast, SimNet};
use std::fmt::Write as _;
use std::time::Instant;

/// Wall-clock budget for the smoke rung: recording and replaying a
/// `p = 2¹⁶` COSMA schedule (4.6 M ops) takes 0.3 s on a 2-vCPU x86-64
/// host (0.65 s when a neighbour contends for it). 2.5 s leaves 4–8×
/// headroom for slower runners and still fails a 10× engine regression.
const SMOKE_BUDGET_SECS: f64 = 2.5;

/// Peak-memory budget for the smoke rung, per recorded op: the 16-byte
/// op and half as much again for everything else the process holds at
/// its peak (the replay's cursors and mail, the interning tables, the
/// network's clocks, allocator headers). On a 2-vCPU x86-64 host the
/// rung's `VmHWM` reads 21.0 B per op (97.4 MB for 4.64 M ops), 14 %
/// under budget; with 24-byte ops it read 28.9 B per op (134.3 MB).
const SMOKE_PEAK_BYTES_PER_OP: u64 = 16 * 3 / 2;

/// One rung of the replay ladder.
struct ScaleRow {
    label: &'static str,
    p: usize,
    n: usize,
    shape: BrickShape,
    ops: usize,
    sim_bytes: u64,
    model_bytes: f64,
    rel_err: f64,
    makespan_s: f64,
    wall_s: f64,
    /// The process's peak resident set (`VmHWM`) once the rung is done,
    /// where the kernel reports one.
    peak_rss: Option<u64>,
}

/// The process's peak resident set so far, from `/proc/self/status`.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: u64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024)
}

/// Records the COSMA schedule for a cubic `n³` problem on `p` ranks and
/// replays it on the event-loop engine, timing the whole round trip.
fn replay_cosma(platform: &Platform, label: &'static str, p: usize, n: usize) -> ScaleRow {
    let wall = Instant::now();
    let cfg = CosmaConfig::for_problem(p, n, n, n);
    let d = cfg.decomp;
    let shape = BrickShape {
        a: d.a,
        b: d.b,
        c: d.c,
    };
    let dims = MatMulDims::square(n);
    let prog = Schedule::Cosma { p, dims, cfg }.record(false);
    let ops = prog.total_ops();
    let mut net = SimNet::new(p, platform.net);
    let report = replay_on(&mut net, platform.gamma, &prog);
    let wall_s = wall.elapsed().as_secs_f64();
    let model_bytes = cosma_volume(shape, n as f64, n as f64, n as f64);
    let rel_err = (report.bytes as f64 - model_bytes).abs() / model_bytes.max(1.0);
    ScaleRow {
        label,
        p,
        n,
        shape,
        ops,
        sim_bytes: report.bytes,
        model_bytes,
        rel_err,
        makespan_s: report.total_time,
        wall_s,
        peak_rss: peak_rss_bytes(),
    }
}

/// A small traced SUMMA replay whose step spans go to Chrome's
/// `about:tracing` format — the artifact CI uploads as proof the replay
/// engine feeds the same tracer hooks as the threaded one.
fn write_chrome_trace() {
    let platform = Platform::bluegene_p();
    let (grid, n, b) = (GridShape::new(16, 16), 512, 32);
    let prog = Schedule::summa(grid, n, b, SimBcast::Binomial).record(false);
    let mut net = SimNet::new(grid.size(), platform.net);
    net.enable_trace();
    let _ = replay_on(&mut net, platform.gamma, &prog);
    let json = net.trace_to_chrome_json().expect("trace was enabled");
    std::fs::write("replay_trace.json", json).expect("write replay_trace.json");
    println!(
        "wrote replay_trace.json (p = {} traced replay)",
        grid.size()
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let platform = Platform::bluegene_p();

    // The replay ladder. Every rung is one recording pass plus one
    // event-loop replay — no threads, so `vm.max_map_count` never moves.
    let rows: Vec<ScaleRow> = if smoke {
        vec![replay_cosma(&platform, "2^16", 1 << 16, 1 << 18)]
    } else {
        vec![
            replay_cosma(&platform, "2^16", 1 << 16, 1 << 18),
            // Extents a power-of-two brick grid cannot divide: ragged
            // fragments everywhere, the closed form only approximates.
            replay_cosma(&platform, "2^16-awkward", 1 << 16, (1 << 18) + 3),
            replay_cosma(&platform, "2^18", 1 << 18, 1 << 19),
            // The paper's full rank count.
            replay_cosma(&platform, "2^20", 1 << 20, 1 << 20),
        ]
    };

    println!("== COSMA replay ladder on simulated BlueGene/P ==\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                format!("{}", r.p),
                format!("{}", r.n),
                format!("{}x{}x{}", r.shape.a, r.shape.b, r.shape.c),
                format!("{}", r.ops),
                format!("{:.2}", r.sim_bytes as f64 / 1e12),
                format!("{:.2}%", r.rel_err * 100.0),
                secs(r.makespan_s),
                format!("{:.1}", r.wall_s),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["point", "p", "n", "bricks", "ops", "sim TB", "vol err", "model s", "wall s"],
            &table
        )
    );

    // HSUMMA G-sweeps *executed* on the replay engine, past the thread
    // ceiling. Two claims, one per broadcast family:
    //
    // * binomial at p = 2¹⁶ — the Table I identity
    //   log₂(p/G) + log₂(G) = log₂ p makes the hierarchy exactly
    //   cost-neutral, so every G must replay to the same comm time;
    // * van de Geijn at p = 2¹⁴ — the bandwidth term scales with group
    //   width, so the paper's U-curve appears with its minimum at an
    //   interior G. (The vdG allgather is a ring — O(p) recorded ops
    //   per broadcast — which is why this sweep runs a grid size down:
    //   at 2¹⁶ the recording alone would be hundreds of GB.)
    let hsumma_sweeps = if smoke {
        Vec::new()
    } else {
        let sweeps = [
            (
                "binomial",
                GridShape::new(256, 256),
                16384usize,
                64usize,
                SimBcast::Binomial,
                vec![1usize, 16, 256, 4096, 65536],
            ),
            (
                "van de Geijn",
                GridShape::new(128, 128),
                8192,
                64,
                SimBcast::ScatterAllgather,
                vec![1, 16, 128, 2048, 16384],
            ),
        ];
        let mut out = Vec::new();
        for (name, grid, n, b, bcast, gs) in sweeps {
            let sweep = tuning::sweep_groups(grid, &gs, |groups| {
                simulate(
                    &Schedule::hsumma(grid, groups, n, b, b, bcast, bcast),
                    &platform,
                    false,
                )
            });
            println!(
                "== HSUMMA replay G-sweep, p = {}, n = {n}, b = {b}, {name} ==\n",
                grid.size()
            );
            let rows: Vec<Vec<String>> = sweep
                .iter()
                .map(|pt| {
                    vec![
                        format!("{}", pt.g),
                        format!("{}x{}", pt.groups.rows, pt.groups.cols),
                        secs(pt.report.comm_time),
                        secs(pt.report.total_time),
                    ]
                })
                .collect();
            println!(
                "{}",
                render_table(&["G", "groups", "comm (s)", "total (s)"], &rows)
            );
            let best = sweep
                .iter()
                .min_by(|a, b| a.report.comm_time.total_cmp(&b.report.comm_time))
                .expect("sweep is non-empty");
            let flat = sweep
                .iter()
                .all(|pt| pt.report.comm_time == sweep[0].report.comm_time);
            if flat {
                println!(
                    "all G replay to identical comm time {} s — the executed Table I identity\n",
                    secs(best.report.comm_time)
                );
            } else {
                println!(
                    "replayed optimum: G = {} (√p = {}), comm {} s vs G=1 {} s\n",
                    best.g,
                    (grid.size() as f64).sqrt() as usize,
                    secs(best.report.comm_time),
                    secs(sweep[0].report.comm_time)
                );
            }
            out.push((name, grid.size(), n, sweep));
        }
        out
    };

    write_chrome_trace();

    // The CI guard: the smoke rung must stay inside its budget.
    let budget_row = &rows[0];
    let within_budget = budget_row.wall_s <= SMOKE_BUDGET_SECS;
    println!(
        "p = 2^16 record+replay wall time: {:.1} s (budget {} s): {}",
        budget_row.wall_s,
        SMOKE_BUDGET_SECS,
        if within_budget { "ok" } else { "OVER BUDGET" }
    );
    // The memory guard, where the kernel reports a peak: a recording
    // that outgrows its ops fails here before it fails at p = 2^20.
    let peak_budget = budget_row.ops as u64 * SMOKE_PEAK_BYTES_PER_OP;
    let within_memory = budget_row.peak_rss.is_none_or(|peak| peak <= peak_budget);
    if let Some(peak) = budget_row.peak_rss {
        println!(
            "p = 2^16 peak RSS: {:.1} MB (budget {:.1} MB, {SMOKE_PEAK_BYTES_PER_OP} B/op): {}",
            peak as f64 / 1e6,
            peak_budget as f64 / 1e6,
            if within_memory { "ok" } else { "OVER BUDGET" }
        );
    }

    let mut json = String::from("{\n");
    let _ = write!(
        json,
        "  \"smoke\": {smoke},\n  \"platform\": \"bluegene_p\",\n  \"cosma_replay\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"label\": \"{}\", \"p\": {}, \"n\": {}, \"bricks\": \"{}x{}x{}\", \
             \"ops\": {}, \"sim_bytes\": {}, \"model_bytes\": {:.0}, \
             \"volume_rel_err\": {:.6}, \"model_makespan_s\": {:.6}, \"wall_s\": {:.3}}}{}",
            r.label,
            r.p,
            r.n,
            r.shape.a,
            r.shape.b,
            r.shape.c,
            r.ops,
            r.sim_bytes,
            r.model_bytes,
            r.rel_err,
            r.makespan_s,
            r.wall_s,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = write!(json, "  ],\n  \"hsumma_replay_sweeps\": [");
    for (i, (name, p, n, sweep)) in hsumma_sweeps.iter().enumerate() {
        let _ = write!(
            json,
            "\n    {{\"bcast\": \"{name}\", \"p\": {p}, \"n\": {n}, \"points\": ["
        );
        for (j, pt) in sweep.iter().enumerate() {
            let _ = write!(
                json,
                "{{\"g\": {}, \"comm_s\": {:.6}, \"total_s\": {:.6}}}{}",
                pt.g,
                pt.report.comm_time,
                pt.report.total_time,
                if j + 1 < sweep.len() { ", " } else { "" }
            );
        }
        let _ = write!(
            json,
            "]}}{}",
            if i + 1 < hsumma_sweeps.len() {
                ","
            } else {
                "\n  "
            }
        );
    }
    let _ = write!(json, "]");
    let _ = write!(
        json,
        ",\n  \"smoke_budget_s\": {SMOKE_BUDGET_SECS},\n  \
         \"smoke_within_budget\": {within_budget}\n}}\n"
    );
    std::fs::write("BENCH_scale.json", &json).expect("write BENCH_scale.json");
    println!("wrote BENCH_scale.json");

    if smoke && !within_budget {
        eprintln!(
            "replay smoke exceeded its wall-clock budget: {:.1} s > {} s",
            budget_row.wall_s, SMOKE_BUDGET_SECS
        );
    }
    if smoke && !within_memory {
        eprintln!(
            "replay smoke exceeded its memory budget: {} B > {} ops x {} B",
            budget_row.peak_rss.unwrap_or_default(),
            budget_row.ops,
            SMOKE_PEAK_BYTES_PER_OP
        );
    }
    if smoke && !(within_budget && within_memory) {
        std::process::exit(1);
    }
}
