//! `large_scale` — the refactor's scale dividend: the algorithms that
//! previously ran only on the threaded runtime (2.5D, overlapped SUMMA,
//! block LU) now execute *unchanged* over simulated clocks at BlueGene/P
//! scale, because they are generic over the [`Communicator`] substrate.
//!
//! Each row below is the real schedule — every send, broadcast, reduce
//! and barrier the threaded run would perform — replayed with phantom
//! payloads on `p = 4096` simulated ranks (64 × 64 grid / 32 × 32 × 4
//! for 2.5D), priced with the paper's BlueGene/P `(α, β, γ)`.
//!
//! Since PR 10 a second table runs the same generic schedules at
//! `p = 2¹⁶` — past the thread-per-rank simulator's VM-map ceiling —
//! on the record-and-replay engine (`docs/simulation.md`): record each
//! rank's op program once, execute all of them on one thread.
//!
//! Output is appended (manually) to `EXPERIMENTS.md` § "Large-scale
//! substrate demo".
//!
//! [`Communicator`]: hsumma_core::Communicator

use hsumma_bench::{render_table, secs};
use hsumma_core::lu::sim_block_lu;
use hsumma_core::{simulate, Schedule, SimEngine, SummaConfig, TwoDotFiveConfig};
use hsumma_matrix::{GemmKernel, GridShape};
use hsumma_netsim::{Platform, SimBcast, SimReport};

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

fn main() {
    let platform = Platform::bluegene_p();
    let grid = GridShape::new(64, 64);
    println!("== generic schedules on simulated BlueGene/P: p = {P}, n = {N}, b = {B} ==\n");

    let mut rows = Vec::new();

    let threads = |sched, step_sync| simulate(&sched, &platform, SimEngine::Threads, step_sync);
    let bc = SimBcast::Binomial;

    // Baselines: free-running and per-step-synchronized SUMMA.
    let summa = threads(Schedule::summa(grid, N, B, bc), false);
    rows.push(row("summa", "64x64, free-run", &summa));
    let summa_sync = threads(Schedule::summa(grid, N, B, bc), true);
    rows.push(row("summa", "64x64, step-sync", &summa_sync));

    // Pipelined SUMMA: the two-slot panel buffer hides panel transfers.
    let over = threads(Schedule::summa(grid, N, B, bc).pipelined(), false);
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
    let r1 = threads(twodotfive(N, 64, 1), false);
    rows.push(row("2.5d", "q=64, c=1", &r1));
    let r4 = threads(twodotfive(N, 32, 4), false);
    rows.push(row("2.5d", "q=32, c=4", &r4));

    // Block LU under serialized (root-injection-bound) panel broadcasts,
    // the regime the measured profiles exhibit: one-level vs 8x8 groups.
    let lu_flat = sim_block_lu(&platform, grid, N, B, SimBcast::Flat, None, true);
    rows.push(row("lu", "64x64, one level", &lu_flat));
    let lu_hier = sim_block_lu(
        &platform,
        grid,
        N,
        B,
        SimBcast::Flat,
        Some(GridShape::new(8, 8)),
        true,
    );
    rows.push(row("lu", "64x64, 8x8 groups", &lu_hier));

    println!(
        "{}",
        render_table(
            &["algorithm", "config", "comm s", "total s", "msgs", "GB"],
            &rows
        )
    );

    // The same schedules, four doublings past the thread ceiling, on
    // the record-and-replay engine. No threads: each row records every
    // rank's op program sequentially and replays all 65536 of them on
    // a single-threaded event loop.
    let rp = 1 << 16;
    let rgrid = GridShape::new(256, 256);
    let (rn, rb) = (16384, 64);
    println!("\n== same schedules, p = {rp} (replay engine) ==\n");
    let mut rrows = Vec::new();
    let replay = |sched| simulate(&sched, &platform, SimEngine::Replay, false);
    let rsumma = replay(Schedule::summa(rgrid, rn, rb, bc));
    rrows.push(row("summa", "256x256, free-run", &rsumma));
    let rgroups = GridShape::new(16, 16);
    let rhsumma = replay(Schedule::hsumma(rgrid, rgroups, rn, rb, rb, bc, bc));
    rrows.push(row("hsumma", "G=256 (sqrt p)", &rhsumma));
    let r25 = replay(twodotfive(rn, 128, 4));
    rrows.push(row("2.5d", "q=128, c=4", &r25));
    println!(
        "{}",
        render_table(
            &["algorithm", "config", "comm s", "total s", "msgs", "GB"],
            &rrows
        )
    );

    println!(
        "overlap hides {:.1}% of synchronized SUMMA's makespan",
        (1.0 - over.total_time / summa_sync.total_time) * 100.0
    );
    println!(
        "2.5d c=4 cuts communication {:.2}x vs c=1 (memory cost: 4x replicas)",
        r1.comm_time / r4.comm_time
    );
    println!(
        "hierarchical LU panel broadcasts cut serialized comm {:.2}x",
        lu_flat.comm_time / lu_hier.comm_time
    );
}
