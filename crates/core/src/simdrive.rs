//! Timing replay of the communication schedules on the discrete-event
//! simulator: one [`Schedule`] value per algorithm, priced by
//! [`simulate`] / [`simulate_on`], which record and replay every schedule
//! whose op sequence is timing-independent.
//!
//! The executable algorithms ([`mod@crate::summa`], [`mod@crate::hsumma`], …)
//! are generic over [`crate::comm::Communicator`]. On the threaded
//! substrate they move real matrix data between threads; that caps
//! experiments at laptop scale. Run over a phantom-payload substrate
//! instead, the *identical* schedule code moves sizes only
//! ([`PhantomMat`]), charges `γ·pairs` analytically and advances per-rank
//! virtual clocks. [`Schedule::run`] is that instantiation — the only
//! place that maps a schedule value onto an algorithm — and it is generic
//! over the substrate, so the thread-per-rank engine
//! ([`hsumma_netsim::SimComm`]) and the recording pass
//! ([`hsumma_netsim::RecordComm`]) share it. This is what runs at
//! `p = 2048 … 16384` and regenerates the paper's BlueGene/P results
//! (Figs. 8–9) and Grid5000 results (Figs. 5–7).

use crate::comm::{Communicator, MatLike, PhantomMat};
use crate::cosma::{cosma, CosmaConfig};
use crate::cyclic::summa_cyclic;
use crate::fox::fox_with;
use crate::hsumma::HsummaConfig;
use crate::lu::{block_lu, LuConfig};
use crate::partition::{chunk_range, tile_shape, MatMulDims};
use crate::plan::{run_planned_gemm, PlannedAlgo};
use crate::summa::SummaConfig;
use crate::twodotfive::{twodotfive, TwoDotFiveConfig};
use hsumma_matrix::{GemmKernel, GridShape};
use hsumma_netsim::spmd::SimWorld;
use hsumma_netsim::{
    record, EventLoopSim, Hockney, Platform, RecordedProgram, SimBcast, SimNet, SimReport,
    SimRunOptions,
};
use hsumma_runtime::CommError;

/// One simulated schedule: which algorithm, on how many ranks, over what
/// problem. The variants hold the same configuration types the
/// executable algorithms take.
#[derive(Clone, Copy, Debug)]
pub enum Schedule {
    /// A planned grid multiply `C(m×n) = A(m×l)·B(l×n)` over
    /// block-checkerboard tiles — [`run_planned_gemm`]: SUMMA, HSUMMA,
    /// their pipelined forms, Cannon, or COSMA behind its
    /// checkerboard↔brick redistribution.
    Gemm {
        /// The `s × t` processor grid.
        grid: GridShape,
        /// Global operand extents.
        dims: MatMulDims,
        /// Algorithm and configuration.
        plan: PlannedAlgo,
    },
    /// SUMMA over a block-cyclic layout with dealing block `cfg.block`
    /// ([`summa_cyclic`]): the broadcast roots rotate every step.
    Cyclic {
        /// The `s × t` processor grid.
        grid: GridShape,
        /// Square problem size.
        n: usize,
        /// Panel width and broadcast.
        cfg: SummaConfig,
    },
    /// Fox's algorithm on a `q × q` grid: per round, a diagonal-offset
    /// broadcast of `A` along rows plus a `B` roll-up.
    Fox {
        /// Grid side.
        q: usize,
        /// Square problem size.
        n: usize,
        /// Row-broadcast algorithm.
        bcast: SimBcast,
    },
    /// The 2.5D algorithm over `q²·c` ranks ([`twodotfive`]): replicate
    /// down the depth communicators, per-layer partial SUMMA, reduce back
    /// onto layer 0. Its pivot loops run on layer communicators, so it
    /// cannot be step-synchronized (the alignment is world-wide).
    TwoDotFive {
        /// Square problem size.
        n: usize,
        /// Arrangement and per-layer SUMMA configuration.
        cfg: TwoDotFiveConfig,
    },
    /// COSMA over `p` ranks with bricks in their native
    /// [`crate::distribution::BrickDecomp`] layouts — no redistribution,
    /// matching how the serving layer would stage operands for a pure
    /// cosma job. Ranks beyond the decomposition idle and send nothing.
    Cosma {
        /// World size (may exceed the decomposition's rank count).
        p: usize,
        /// Global operand extents.
        dims: MatMulDims,
        /// Decomposition and pipelining.
        cfg: CosmaConfig,
    },
    /// Block LU without pivoting ([`block_lu`]): per panel step, the
    /// diagonal factor's broadcasts, then the `L` and `U` panels along
    /// grid rows and columns (hierarchically when `cfg.groups` is set).
    Lu {
        /// The `s × t` processor grid.
        grid: GridShape,
        /// Square problem size.
        n: usize,
        /// Panel width, broadcast and grouping.
        cfg: LuConfig,
    },
}

impl Schedule {
    /// Square SUMMA with panel width `block`.
    pub fn summa(grid: GridShape, n: usize, block: usize, bcast: SimBcast) -> Self {
        let cfg = SummaConfig {
            block,
            bcast,
            ..Default::default()
        };
        Schedule::Gemm {
            grid,
            dims: MatMulDims::square(n),
            plan: PlannedAlgo::Summa(cfg),
        }
    }

    /// Square HSUMMA: `groups = I × J`, outer block `B`, inner block `b`.
    pub fn hsumma(
        grid: GridShape,
        groups: GridShape,
        n: usize,
        outer_block: usize,
        inner_block: usize,
        outer_bcast: SimBcast,
        inner_bcast: SimBcast,
    ) -> Self {
        let cfg = HsummaConfig {
            groups,
            outer_block,
            inner_block,
            outer_bcast,
            inner_bcast,
            kernel: GemmKernel::default(),
        };
        Schedule::Gemm {
            grid,
            dims: MatMulDims::square(n),
            plan: PlannedAlgo::Hsumma(cfg),
        }
    }

    /// Cannon's algorithm on a square `q × q` grid.
    pub fn cannon(q: usize, n: usize) -> Self {
        Schedule::Gemm {
            grid: GridShape::new(q, q),
            dims: MatMulDims::square(n),
            plan: PlannedAlgo::Cannon {
                kernel: GemmKernel::default(),
            },
        }
    }

    /// Block LU with panel width `block`, its panel broadcasts split over
    /// `groups` when set (hierarchical LU).
    pub fn lu(
        grid: GridShape,
        n: usize,
        block: usize,
        bcast: SimBcast,
        groups: Option<GridShape>,
    ) -> Self {
        let cfg = LuConfig {
            block,
            bcast,
            groups,
            ..Default::default()
        };
        Schedule::Lu { grid, n, cfg }
    }

    /// The double-buffered form of a SUMMA or HSUMMA schedule.
    ///
    /// # Panics
    /// Panics for the schedules that have no pipelined form.
    pub fn pipelined(self) -> Self {
        let Schedule::Gemm { grid, dims, plan } = self else {
            panic!("only SUMMA and HSUMMA have a pipelined form, not {self:?}");
        };
        let plan = match plan {
            PlannedAlgo::Summa(cfg) => PlannedAlgo::SummaPipelined(cfg),
            PlannedAlgo::Hsumma(cfg) => PlannedAlgo::HsummaPipelined(cfg),
            other => panic!("{} has no pipelined form", other.describe()),
        };
        Schedule::Gemm { grid, dims, plan }
    }

    /// Number of (virtual) ranks the schedule spans.
    pub fn ranks(&self) -> usize {
        match self {
            Schedule::Gemm { grid, .. }
            | Schedule::Cyclic { grid, .. }
            | Schedule::Lu { grid, .. } => grid.size(),
            Schedule::Fox { q, .. } => q * q,
            Schedule::TwoDotFive { cfg, .. } => cfg.q * cfg.q * cfg.c,
            Schedule::Cosma { p, .. } => *p,
        }
    }

    /// The SPMD body of one rank: phantom operands of the right local
    /// shapes through the generic algorithm. Runs on any phantom-payload
    /// substrate.
    ///
    /// # Panics
    /// Panics where the algorithm would: on a configuration inconsistent
    /// with the grid and extents.
    pub fn run<C>(&self, comm: &C) -> Result<(), CommError>
    where
        C: Communicator<Mat = PhantomMat>,
    {
        let square = |rows: usize, parts: usize| PhantomMat::zeros(rows / parts, rows / parts);
        match self {
            Schedule::Gemm { grid, dims, plan } => {
                // `Distribution::grid2d`'s dealing, which is the uniform
                // tile whenever the grid divides the extent.
                let (gi, gj) = grid.coords(comm.rank());
                let tile = |rows: usize, cols: usize| {
                    let (r0, r1) = chunk_range(rows, grid.rows, gi);
                    let (c0, c1) = chunk_range(cols, grid.cols, gj);
                    PhantomMat::zeros(r1 - r0, c1 - c0)
                };
                let (a, b) = (tile(dims.m, dims.l), tile(dims.l, dims.n));
                run_planned_gemm(comm, *grid, dims.m, dims.n, dims.l, &a, &b, plan)?;
            }
            Schedule::Cyclic { grid, n, cfg } => {
                let tile = PhantomMat::zeros(n / grid.rows, n / grid.cols);
                summa_cyclic(comm, *grid, *n, &tile, &tile, cfg)?;
            }
            Schedule::Fox { q, n, bcast } => {
                let (grid, tile) = (GridShape::new(*q, *q), square(*n, *q));
                fox_with(comm, grid, *n, &tile, &tile, GemmKernel::default(), *bcast)?;
            }
            Schedule::TwoDotFive { n, cfg } => {
                let tile = square(*n, cfg.q);
                twodotfive(comm, *n, &tile, &tile, cfg)?;
            }
            Schedule::Cosma { dims, cfg, .. } => {
                let (d, me) = (cfg.decomp, comm.rank());
                let MatMulDims { m, l: k, n } = *dims;
                // Only the first brick of each fiber holds an operand.
                let (mut a, mut b) = (PhantomMat::zeros(0, 0), PhantomMat::zeros(0, 0));
                if me < d.ranks() {
                    let (i, j, l) = d.coords(me);
                    let (m0, m1) = d.m_range(i, m);
                    let (n0, n1) = d.n_range(j, n);
                    let (k0, k1) = d.k_range(l, k);
                    if j == 0 {
                        a = PhantomMat::zeros(m1 - m0, k1 - k0);
                    }
                    if i == 0 {
                        b = PhantomMat::zeros(k1 - k0, n1 - n0);
                    }
                }
                cosma(comm, m, n, k, &a, &b, cfg)?;
            }
            Schedule::Lu { grid, n, cfg } => {
                let (th, tw) = tile_shape(*grid, *n);
                block_lu(comm, *grid, *n, &PhantomMat::zeros(th, tw), cfg)?;
            }
        }
        Ok(())
    }

    /// Records the schedule as a replayable, platform-independent
    /// program. `step_sync` as in [`simulate`].
    ///
    /// # Panics
    /// Panics for pipelined HSUMMA, the one schedule that is not data:
    /// its `ibcast_test` hand-off makes the op sequence depend on when
    /// messages land.
    pub fn record(&self, step_sync: bool) -> RecordedProgram {
        assert!(
            self.recordable(),
            "pipelined HSUMMA polls ibcast_test, so its op sequence depends on when messages \
             land: a recording would bake in one interleaving and silently stop being the \
             algorithm. Price it with `simulate`, which runs it on rank threads"
        );
        record(self.ranks(), step_sync, |comm| self.run(comm))
    }

    /// Whether the op sequence is timing-independent, so that
    /// [`Schedule::record`] captures the algorithm: everything but
    /// pipelined HSUMMA.
    fn recordable(&self) -> bool {
        !matches!(
            self,
            Schedule::Gemm {
                plan: PlannedAlgo::HsummaPipelined(_),
                ..
            }
        )
    }
}

/// Which engine the benchmark-pinned [`sim_summa_engine`] and
/// [`sim_hsumma_engine`] run. [`simulate`] picks its own; delete this
/// with the pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimEngine {
    /// [`threads_on`], the reference engine.
    Threads,
    /// [`Schedule::record`] + [`replay_on`].
    Replay,
}

/// Simulates `sched` on a fresh network with `platform`'s parameters and
/// returns the aggregate timing report.
///
/// `step_sync` selects *blocking-collective* semantics for the blocking
/// grid schedules (SUMMA, HSUMMA, cyclic SUMMA, Cannon, Fox): after every
/// step all clocks align, as they effectively do when every rank sits
/// inside a blocking `MPI_Bcast` chain each step. Use it when comparing
/// against measured MPI timings; unsynchronized runs model a perfectly
/// pipelined (non-blocking) schedule. The pipelines and COSMA never call
/// the hook.
///
/// # Panics
/// As [`Schedule::run`]; also if 2.5D is asked to step-synchronize.
pub fn simulate(sched: &Schedule, platform: &Platform, step_sync: bool) -> SimReport {
    let mut net = SimNet::new(sched.ranks(), platform.net);
    simulate_on(sched, &mut net, platform.gamma, step_sync)
}

/// [`simulate`] on a caller-provided network — one with a tracer, torus
/// topology or noise model attached. `gamma` is seconds per multiply-add
/// pair.
///
/// Every recordable schedule is recorded and replayed on one thread
/// ([`replay_on`]); pipelined HSUMMA, whose op sequence depends on
/// timing, runs on rank threads ([`threads_on`]). Both engines give
/// bit-identical reports wherever both apply (`tests/replay_parity.rs`).
pub fn simulate_on(sched: &Schedule, net: &mut SimNet, gamma: f64, step_sync: bool) -> SimReport {
    if sched.recordable() {
        replay_on(net, gamma, &sched.record(step_sync))
    } else {
        threads_on(net, gamma, sched, step_sync)
    }
}

/// The reference engine: one OS thread per simulated rank, parking on
/// virtual-clock mailboxes. [`simulate_on`] takes it only for pipelined
/// HSUMMA; the parity suites hold the replay engine against it. Threads
/// cap out where the OS does (p ≈ 8192 under the default
/// `vm.max_map_count`).
pub fn threads_on(net: &mut SimNet, gamma: f64, sched: &Schedule, step_sync: bool) -> SimReport {
    assert_eq!(
        net.size(),
        sched.ranks(),
        "network must span the schedule's ranks"
    );
    let (done, _) = SimWorld::run(take(net), gamma, step_sync, |comm| {
        sched.run(comm).expect("a clean simulated run cannot fail")
    });
    *net = done;
    net.report()
}

/// Moves the caller's network out for an engine that consumes it; the
/// caller gets the finished one back.
fn take(net: &mut SimNet) -> SimNet {
    std::mem::replace(net, SimNet::new(1, Hockney::new(0.0, 0.0)))
}

/// Replays a recorded program on a caller-provided network (one with a
/// tracer, topology or noise model attached), asserting a clean run.
pub fn replay_on(net: &mut SimNet, gamma: f64, prog: &RecordedProgram) -> SimReport {
    let out = EventLoopSim::new(take(net), gamma).run(prog, &SimRunOptions::unbounded());
    let (done, report) = out.expect_clean();
    *net = done;
    report
}

/// Pinned by `benchmark/`; remove when it moves to [`Schedule::record`].
#[allow(clippy::too_many_arguments)]
pub fn record_hsumma(
    grid: GridShape,
    groups: GridShape,
    n: usize,
    outer_b: usize,
    inner_b: usize,
    outer_bcast: SimBcast,
    inner_bcast: SimBcast,
    step_sync: bool,
) -> RecordedProgram {
    Schedule::hsumma(grid, groups, n, outer_b, inner_b, outer_bcast, inner_bcast).record(step_sync)
}

/// Pinned by `benchmark/`; remove when it moves to [`Schedule::record`].
pub fn record_cosma(p: usize, m: usize, n: usize, k: usize, cfg: &CosmaConfig) -> RecordedProgram {
    let dims = MatMulDims { m, l: k, n };
    Schedule::Cosma { p, dims, cfg: *cfg }.record(false)
}

/// Pinned by `benchmark/`, which times both engines on one schedule;
/// remove with [`SimEngine`] when it moves to [`simulate`] and
/// [`threads_on`].
pub fn sim_summa_engine(
    engine: SimEngine,
    platform: &Platform,
    grid: GridShape,
    n: usize,
    b: usize,
    bcast: SimBcast,
) -> SimReport {
    simulate_with(engine, &Schedule::summa(grid, n, b, bcast), platform)
}

/// Pinned by `benchmark/`; remove with [`sim_summa_engine`].
#[allow(clippy::too_many_arguments)]
pub fn sim_hsumma_engine(
    engine: SimEngine,
    platform: &Platform,
    grid: GridShape,
    groups: GridShape,
    n: usize,
    outer_b: usize,
    inner_b: usize,
    outer_bcast: SimBcast,
    inner_bcast: SimBcast,
) -> SimReport {
    let sched = Schedule::hsumma(grid, groups, n, outer_b, inner_b, outer_bcast, inner_bcast);
    simulate_with(engine, &sched, platform)
}

/// The pinned pair's body: a free-running `sched` on a fresh network,
/// priced by `engine`.
fn simulate_with(engine: SimEngine, sched: &Schedule, platform: &Platform) -> SimReport {
    let mut net = SimNet::new(sched.ranks(), platform.net);
    match engine {
        SimEngine::Threads => threads_on(&mut net, platform.gamma, sched, false),
        SimEngine::Replay => simulate_on(sched, &mut net, platform.gamma, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::HierGrid;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
    }

    /// Free-running simulation.
    fn sim(sched: Schedule, plat: &Platform) -> SimReport {
        simulate(&sched, plat, false)
    }

    /// HSUMMA at `b = B` under one broadcast algorithm.
    fn hsumma(grid: GridShape, groups: GridShape, n: usize, b: usize, bc: SimBcast) -> Schedule {
        Schedule::hsumma(grid, groups, n, b, b, bc, bc)
    }

    #[test]
    fn hsumma_with_one_group_equals_summa() {
        let plat = Platform::grid5000();
        let grid = GridShape::new(8, 8);
        let s = sim(Schedule::summa(grid, 256, 16, SimBcast::Binomial), &plat);
        let h = sim(
            hsumma(grid, GridShape::new(1, 1), 256, 16, SimBcast::Binomial),
            &plat,
        );
        assert!(close(s.total_time, h.total_time), "{s:?} vs {h:?}");
        assert!(close(s.comm_time, h.comm_time));
        assert_eq!(s.msgs, h.msgs);
        assert_eq!(s.bytes, h.bytes);
    }

    #[test]
    fn hsumma_with_p_groups_equals_summa() {
        let plat = Platform::grid5000();
        let grid = GridShape::new(8, 8);
        let s = sim(Schedule::summa(grid, 256, 16, SimBcast::Binomial), &plat);
        let h = sim(
            hsumma(grid, GridShape::new(8, 8), 256, 16, SimBcast::Binomial),
            &plat,
        );
        assert!(close(s.total_time, h.total_time), "{s:?} vs {h:?}");
        assert!(close(s.comm_time, h.comm_time));
        assert_eq!(s.msgs, h.msgs);
        assert_eq!(s.bytes, h.bytes);
    }

    #[test]
    fn hsumma_moves_same_volume_as_summa_for_any_group_count() {
        // §III: "The amount of data sent is the same as in SUMMA."
        let plat = Platform::bluegene_p();
        let grid = GridShape::new(8, 8);
        let s = sim(Schedule::summa(grid, 128, 16, SimBcast::Binomial), &plat);
        for (_, groups) in HierGrid::valid_group_counts(grid) {
            let h = sim(hsumma(grid, groups, 128, 16, SimBcast::Binomial), &plat);
            // Every rank receives each panel exactly once under a tree
            // broadcast, so total bytes moved must match SUMMA's.
            assert_eq!(h.bytes, s.bytes, "groups {groups:?}");
        }
    }

    #[test]
    fn interior_grouping_beats_summa_in_latency_dominated_regime() {
        // α/β >> message sizes: grouping must strictly help (paper Eq. 10).
        let plat = Platform {
            name: "latency-bound",
            net: hsumma_netsim::Hockney::new(1.0, 1e-12),
            gamma: 0.0,
        };
        let grid = GridShape::new(16, 16);
        let s = sim(
            Schedule::summa(grid, 256, 16, SimBcast::ScatterAllgather),
            &plat,
        );
        let h = sim(
            hsumma(
                grid,
                GridShape::new(4, 4),
                256,
                16,
                SimBcast::ScatterAllgather,
            ),
            &plat,
        );
        assert!(
            h.comm_time < s.comm_time,
            "HSUMMA {h:?} should beat SUMMA {s:?} when latency dominates"
        );
    }

    #[test]
    fn compute_time_is_group_invariant() {
        let plat = Platform::bluegene_p();
        let grid = GridShape::new(4, 4);
        let mut comps = Vec::new();
        for (_, groups) in HierGrid::valid_group_counts(grid) {
            let h = sim(hsumma(grid, groups, 64, 8, SimBcast::Binomial), &plat);
            comps.push(h.comp_time);
        }
        for w in comps.windows(2) {
            assert!(close(w[0], w[1]), "compute time changed with G: {comps:?}");
        }
        // And it matches 2n³/p flops = n³/p multiply-add pairs per rank.
        let n: u64 = 64;
        let p: u64 = 16;
        let want = plat.gamma * (n * n * n / p) as f64;
        assert!(close(comps[0], want));
    }

    #[test]
    fn summa_comm_time_matches_binomial_closed_form() {
        // Fresh net, square grid: per step the critical path is one row
        // bcast + one col bcast, log2(√p)(α+mβ) each; steps chain.
        let plat = Platform {
            name: "unit",
            net: hsumma_netsim::Hockney::new(1e-3, 1e-9),
            gamma: 0.0,
        };
        let grid = GridShape::new(4, 4);
        let (n, b) = (64usize, 16usize);
        let r = sim(Schedule::summa(grid, n, b, SimBcast::Binomial), &plat);
        let m = (n / 4 * b) as f64 * 8.0;
        let steps = (n / b) as f64;
        let per_bcast = 2.0 * (1e-3 + m * 1e-9); // log2(4) = 2 rounds
        let want = steps * 2.0 * per_bcast; // A bcast + B bcast per step
        assert!(
            close(r.total_time, want),
            "got {}, want {want}",
            r.total_time
        );
    }

    #[test]
    fn cannon_sim_message_count_matches_schedule() {
        // Alignment: rows 1..q shift A (q ranks each), cols 1..q shift B;
        // then q rounds of 2 shifts per rank.
        let plat = Platform::grid5000();
        let q = 4;
        let r = sim(Schedule::cannon(q, 64), &plat);
        let align = 2 * (q * (q - 1)) as u64;
        let rounds = (q * q * q * 2) as u64;
        assert_eq!(r.msgs, align + rounds);
    }

    #[test]
    fn cannon_sim_single_rank_is_compute_only() {
        let plat = Platform::bluegene_p();
        let r = sim(Schedule::cannon(1, 32), &plat);
        assert_eq!(r.msgs, 0);
        let want = plat.gamma * (32u64 * 32 * 32) as f64;
        assert!(close(r.comp_time, want));
    }

    #[test]
    fn fox_sim_counts_broadcast_and_roll_messages() {
        let plat = Platform::grid5000();
        let q = 4;
        let r = sim(
            Schedule::Fox {
                q,
                n: 64,
                bcast: SimBcast::Binomial,
            },
            &plat,
        );
        // Per round: q row-bcasts of (q-1) messages each + q*q roll sends.
        let per_round = (q * (q - 1) + q * q) as u64;
        assert_eq!(r.msgs, q as u64 * per_round);
    }

    #[test]
    fn cannon_sends_fewer_messages_than_fine_grained_summa() {
        // Per-rank volume is 2n²/√p for both algorithms, but Cannon needs
        // only one exchange per operand per round while SUMMA at small
        // block sizes pays a broadcast per panel — message count is where
        // Cannon's (restricted) schedule wins.
        let plat = Platform::bluegene_p();
        let q = 4;
        let n = 64;
        let cannon = sim(Schedule::cannon(q, n), &plat);
        let summa = sim(
            Schedule::summa(GridShape::new(q, q), n, 8, SimBcast::Binomial),
            &plat,
        );
        assert!(
            cannon.msgs < summa.msgs,
            "{} vs {}",
            cannon.msgs,
            summa.msgs
        );
        // ...and total volume is the same order: every rank receives
        // 2n²/√p either way (Cannon's roots also receive, and it pays
        // one-time alignment shifts, so it sits slightly above).
        let per_rank = 2 * (n * n / q) as u64 * 8;
        assert!(cannon.bytes <= (q * q) as u64 * per_rank * 2);
        assert!(summa.bytes <= (q * q) as u64 * per_rank);
    }

    #[test]
    fn summa_message_count_matches_closed_form() {
        // Binomial bcast delivers to q−1 of q ranks: per step the row
        // direction sends s·(t−1) messages and the column direction
        // t·(s−1); times n/b steps.
        let plat = Platform::grid5000();
        for (s, t, n, b) in [(4usize, 4usize, 64usize, 8usize), (2, 8, 64, 4)] {
            let grid = GridShape::new(s, t);
            let r = sim(Schedule::summa(grid, n, b, SimBcast::Binomial), &plat);
            let want = (n / b) * (s * (t - 1) + t * (s - 1));
            assert_eq!(r.msgs, want as u64, "{s}x{t}");
        }
    }

    #[test]
    fn hsumma_message_count_matches_closed_form() {
        // Per outer step: inter-group A: s·(J−1), inter-group B: t·(I−1);
        // per inner step: intra A: s·J·(t/J−1), intra B: t·I·(s/I−1).
        let plat = Platform::grid5000();
        let (s, t, i, j, n, b) = (4usize, 8usize, 2usize, 4usize, 64usize, 8usize);
        let grid = GridShape::new(s, t);
        let groups = GridShape::new(i, j);
        let r = sim(hsumma(grid, groups, n, b, SimBcast::Binomial), &plat);
        let per_outer = s * (j - 1) + t * (i - 1);
        let per_inner = s * j * (t / j - 1) + t * i * (s / i - 1);
        let want = (n / b) * (per_outer + per_inner);
        assert_eq!(r.msgs, want as u64);
    }

    #[test]
    fn rectangular_grids_simulate() {
        let plat = Platform::grid5000();
        let grid = GridShape::new(4, 8);
        let s = sim(Schedule::summa(grid, 64, 8, SimBcast::Binomial), &plat);
        assert!(s.total_time > 0.0);
        let h = sim(
            hsumma(grid, GridShape::new(2, 4), 64, 8, SimBcast::Binomial),
            &plat,
        );
        assert!(h.total_time > 0.0);
        assert_eq!(h.bytes, s.bytes);
    }

    #[test]
    fn overlap_sim_beats_synchronized_summa() {
        // The double-buffered schedule must not be slower than the
        // blocking one on the same platform and configuration.
        let plat = Platform::grid5000();
        let grid = GridShape::new(4, 4);
        let over = sim(
            Schedule::summa(grid, 64, 8, SimBcast::Flat).pipelined(),
            &plat,
        );
        let flat = Schedule::summa(grid, 64, 8, SimBcast::Flat);
        let sync = simulate(&flat, &plat, true);
        assert!(
            over.total_time <= sync.total_time,
            "overlap {} vs sync {}",
            over.total_time,
            sync.total_time
        );
        // Same panels travel either way.
        let plain = sim(flat, &plat);
        assert_eq!(over.bytes, plain.bytes);
    }

    #[test]
    fn twodotfive_c1_costs_like_summa_plus_depth_collectives() {
        // With c = 1 the depth communicators are singletons: no replicate
        // or reduce messages, so the cost is exactly SUMMA's.
        let plat = Platform::grid5000();
        let cfg = TwoDotFiveConfig {
            q: 4,
            c: 1,
            summa: SummaConfig {
                block: 8,
                ..Default::default()
            },
        };
        let td = sim(Schedule::TwoDotFive { n: 64, cfg }, &plat);
        let s = sim(
            Schedule::summa(GridShape::new(4, 4), 64, 8, SimBcast::Binomial),
            &plat,
        );
        assert_eq!(td.msgs, s.msgs);
        assert_eq!(td.bytes, s.bytes);
    }

    #[test]
    fn twodotfive_replication_cuts_communication_time() {
        // The 2.5D promise: c layers cut each layer's SUMMA steps by c,
        // at the price of replicate/reduce — a win once broadcasts are
        // the bottleneck.
        let plat = Platform {
            name: "latency-bound",
            net: hsumma_netsim::Hockney::new(1e-3, 1e-12),
            gamma: 0.0,
        };
        let mk = |c: usize| TwoDotFiveConfig {
            q: 4,
            c,
            summa: SummaConfig {
                block: 8,
                ..Default::default()
            },
        };
        let flat = sim(Schedule::TwoDotFive { n: 64, cfg: mk(1) }, &plat);
        let deep = sim(Schedule::TwoDotFive { n: 64, cfg: mk(4) }, &plat);
        assert!(
            deep.total_time < flat.total_time,
            "c=4 {} should beat c=1 {} when latency dominates",
            deep.total_time,
            flat.total_time
        );
    }
}
