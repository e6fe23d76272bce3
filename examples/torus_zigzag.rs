//! The "zigzags" of Fig. 8: group layouts interact with the torus.
//!
//! The paper observes non-monotone bumps in HSUMMA's time-vs-G curve on
//! BlueGene/P and attributes them to "mapping communication layouts to
//! network hardware" (citing Balaji et al.), noting the bumps "can be
//! eliminated by taking platform parameters into account while grouping".
//!
//! This example reproduces the mechanism on the simulator's 3-D torus:
//!
//! * sweep G with a *chain* (neighbour-to-neighbour) broadcast, whose
//!   cost directly reflects how far apart communicator members sit on
//!   the torus — different group shapes produce visibly different hop
//!   penalties (the zigzag);
//! * rerun the same sweep with a *scrambled* rank→torus mapping, showing
//!   that a bad mapping inflates exactly the same algorithm.
//!
//! ```sh
//! cargo run --release --example torus_zigzag
//! ```

use hsumma_repro::core::grid::HierGrid;
use hsumma_repro::core::simdrive::{simulate_on, Schedule, SimEngine};
use hsumma_repro::matrix::GridShape;
use hsumma_repro::netsim::topology::Topology;
use hsumma_repro::netsim::{Platform, SimBcast, SimNet, Torus3D};

/// A torus seen through a deterministic pseudo-random rank permutation —
/// the "job scheduler gave us scattered nodes" scenario.
struct ScrambledTorus {
    torus: Torus3D,
    perm: Vec<usize>,
}

impl ScrambledTorus {
    fn new(torus: Torus3D) -> Self {
        let p = torus.size();
        let mut perm: Vec<usize> = (0..p).collect();
        // Deterministic LCG-ish shuffle: enough to destroy locality.
        let mut state = 0x2545f491u64;
        for i in (1..p).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        ScrambledTorus { torus, perm }
    }
}

impl Topology for ScrambledTorus {
    fn extra_latency(&self, src: usize, dst: usize) -> f64 {
        self.torus.extra_latency(self.perm[src], self.perm[dst])
    }

    fn size(&self) -> usize {
        self.torus.size()
    }
}

fn main() {
    let platform = Platform::bluegene_p();
    let grid = GridShape::new(32, 32); // 1024 cores -> one BG/P rack
    let (n, b) = (16384usize, 128usize);
    let bcast = SimBcast::Ring; // chain: cost tracks neighbour distance
    let hop = 1.5e-6; // per-hop latency, same order as alpha

    println!(
        "HSUMMA G sweep on {} cores: flat vs torus vs scrambled-torus (chain bcast)",
        grid.size()
    );
    println!(
        "{:>6}  {:>7}  {:>12}  {:>12}  {:>12}",
        "G", "I x J", "flat (s)", "torus (s)", "scrambled (s)"
    );

    let mut torus_ratios = Vec::new();
    for g in [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024] {
        let Some(groups) = HierGrid::factor_groups(grid, g) else {
            continue;
        };
        let run = |net: &mut SimNet| {
            simulate_on(
                &Schedule::hsumma(grid, groups, n, b, b, bcast, bcast),
                net,
                platform.gamma,
                SimEngine::Threads,
                true,
            )
        };
        let flat = run(&mut SimNet::new(grid.size(), platform.net));
        let torus = run(&mut SimNet::with_topology(
            grid.size(),
            platform.net,
            Box::new(Torus3D::cubic(grid.size(), hop)),
        ));
        let scrambled = run(&mut SimNet::with_topology(
            grid.size(),
            platform.net,
            Box::new(ScrambledTorus::new(Torus3D::cubic(grid.size(), hop))),
        ));
        torus_ratios.push(torus.comm_time / flat.comm_time);
        println!(
            "{:>6}  {:>3}x{:<3}  {:>12.4}  {:>12.4}  {:>12.4}",
            g, groups.rows, groups.cols, flat.comm_time, torus.comm_time, scrambled.comm_time
        );
    }

    let min = torus_ratios.iter().copied().fold(f64::INFINITY, f64::min);
    let max = torus_ratios.iter().copied().fold(0.0f64, f64::max);
    println!(
        "\ntorus/flat overhead ranges {:.2}x..{:.2}x across group shapes -> the",
        min, max
    );
    println!("layout-dependent bumps behind the paper's zigzags; a scrambled mapping");
    println!("(bad node allocation) inflates every shape further.");
}
