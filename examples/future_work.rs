//! The paper's §VI future-work list, implemented and demonstrated:
//!
//! 1. **block-cyclic distribution** — `summa_cyclic` runs on ScaLAPACK-
//!    style cyclically dealt tiles and its rotating pivot owners overlap
//!    consecutive steps better (quantified in simulation);
//! 2. **communication/computation overlap** — `summa_overlap` and
//!    `hsumma_overlap` stream each panel into a two-slot buffer while the
//!    previous one is being multiplied;
//! 3. **more than two hierarchy levels** — `sim_summa_hier` sweeps the
//!    hierarchy depth.
//!
//! ```sh
//! cargo run --release --example future_work
//! ```

use hsumma_repro::core::cyclic::summa_cyclic;
use hsumma_repro::core::multilevel::sim_summa_hier_with;
use hsumma_repro::core::overlap::{hsumma_overlap, summa_overlap};
use hsumma_repro::core::simdrive::{simulate, Schedule, SimEngine};
use hsumma_repro::core::testutil::{distributed_product, reference_product};
use hsumma_repro::core::{HsummaConfig, SummaConfig};
use hsumma_repro::matrix::{seeded_uniform, BlockCyclicDist, GemmKernel, GridShape};
use hsumma_repro::netsim::{Platform, SimBcast};
use hsumma_repro::runtime::Runtime;

fn main() {
    let n = 256;
    let grid = GridShape::new(4, 4);
    let a = seeded_uniform(n, n, 1);
    let b = seeded_uniform(n, n, 2);
    let want = reference_product(&a, &b);
    let scfg = SummaConfig {
        block: 32,
        kernel: GemmKernel::Blocked,
        ..Default::default()
    };

    // --- 1. block-cyclic SUMMA, executable -----------------------------
    let dist = BlockCyclicDist::new(grid, n, n, 32);
    let at = dist.scatter(&a);
    let bt = dist.scatter(&b);
    let ct = Runtime::run(grid.size(), |comm| {
        summa_cyclic(
            comm,
            grid,
            n,
            &at[comm.rank()].clone(),
            &bt[comm.rank()].clone(),
            &scfg,
        )
        .unwrap()
    });
    let err = dist.gather(&ct).max_abs_diff(&want);
    println!("1. block-cyclic SUMMA          max err {err:.2e}");

    // ...and its overlap benefit at scale, in simulation.
    let platform = Platform::bluegene_p_effective();
    let sim_grid = GridShape::new(16, 16);
    let blocked_sched = Schedule::summa(sim_grid, 2048, 64, SimBcast::Flat);
    let cyclic_sched = Schedule::Cyclic {
        grid: sim_grid,
        n: 2048,
        cfg: SummaConfig {
            block: 64,
            bcast: SimBcast::Flat,
            ..Default::default()
        },
    };
    let blocked = simulate(&blocked_sched, &platform, SimEngine::Threads, false);
    let cyclic = simulate(&cyclic_sched, &platform, SimEngine::Threads, false);
    println!(
        "   rotating pivot owners (256 simulated cores): {:.3} s -> {:.3} s makespan ({:.1}% better)",
        blocked.total_time,
        cyclic.total_time,
        100.0 * (1.0 - cyclic.total_time / blocked.total_time)
    );

    // --- 2. overlap -------------------------------------------------------
    let by_overlap = distributed_product(grid, n, &a, &b, |comm, a_t, b_t| {
        summa_overlap(comm, grid, n, &a_t, &b_t, &scfg).unwrap()
    });
    println!(
        "2. pipelined SUMMA             max err {:.2e}",
        by_overlap.max_abs_diff(&want)
    );
    let hcfg = HsummaConfig {
        kernel: GemmKernel::Blocked,
        ..HsummaConfig::uniform(GridShape::new(2, 2), 32)
    };
    let by_hoverlap = distributed_product(grid, n, &a, &b, |comm, a_t, b_t| {
        hsumma_overlap(comm, grid, n, &a_t, &b_t, &hcfg).unwrap()
    });
    println!(
        "   pipelined HSUMMA            max err {:.2e}",
        by_hoverlap.max_abs_diff(&want)
    );
    // The same flat-push schedule free-running (above) vs step-synchronized.
    let sync = simulate(&blocked_sched, &platform, SimEngine::Threads, true);
    println!(
        "   simulated overlap benefit: {:.3} s blocking -> {:.3} s overlapped ({:.1}% hidden)",
        sync.total_time,
        blocked.total_time,
        100.0 * (1.0 - blocked.total_time / sync.total_time)
    );

    // --- 3. deeper hierarchies -------------------------------------------
    println!("3. hierarchy depth sweep (256 simulated cores, measured profile):");
    for (label, levels) in [
        ("1 level ", vec![16usize]),
        ("2 levels", vec![4, 4]),
        ("3 levels", vec![2, 2, 4]),
        ("4 levels", vec![2, 2, 2, 2]),
    ] {
        let r = sim_summa_hier_with(&platform, sim_grid, 2048, 64, SimBcast::Flat, &levels, true);
        println!("   {label} {:?}: comm {:.3} s", levels, r.comm_time);
    }
}
