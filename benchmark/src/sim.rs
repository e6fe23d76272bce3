//! `sim-replay`: the paper's own experiment. One operation records the
//! HSUMMA schedule of p = 1024 ranks for one group count G and replays
//! it on the event-loop simulator with BlueGene/P parameters; a block
//! is one ladder of seven G values, whose communication times trace the
//! U-curve of the paper's G sweep. No rank thread runs: all the time
//! is in `hsumma-netsim`'s recorder and replay loop, the path the
//! serving planner's `refine_g` takes.

use crate::host::rss_bytes;
use crate::metrics::Values;
use crate::pass::{run_blocks, Budget};
use crate::spans::{Recorder, ROOT};
use crate::stats::{percentile, ratio};
use crate::{Outcome, Workload};
use hsumma_core::{record_hsumma, replay_on};
use hsumma_matrix::GridShape;
use hsumma_netsim::{Platform, SimBcast, SimNet, SimReport};
use std::time::Instant;

const GRID: usize = 32;
const N: usize = 2048;
const BLOCK: usize = 64;

/// The G ladder as `I × J` group arrangements of the 32 × 32 grid:
/// G = 1, 4, 16, 32, 64, 256, 1024.
const LADDER: [(usize, usize); 7] = [(1, 1), (2, 2), (4, 4), (4, 8), (8, 8), (16, 16), (32, 32)];

/// Group counts among which the communication-time minimum must lie.
const VALLEY: [usize; 3] = [16, 32, 64];

/// The report fields that must repeat to the last bit.
fn bits(r: &SimReport) -> [u64; 5] {
    [
        r.total_time.to_bits(),
        r.comm_time.to_bits(),
        r.comp_time.to_bits(),
        r.msgs,
        r.bytes,
    ]
}

/// One recorded-and-replayed schedule.
struct Sim {
    report: SimReport,
    program_ops: usize,
    record_s: f64,
    replay_s: f64,
    /// Resident bytes above the pre-recording baseline while the
    /// program is held (traced passes only).
    rss_growth: u64,
}

/// The platform and the reference report the ladder is checked against.
pub struct SimReplay {
    platform: Platform,
    /// Report of G = 1 from set-up. The paper's degeneracy theorem says
    /// G = 1 and G = p are both plain SUMMA, so every later run of
    /// either end must be bit-identical to it.
    reference_end: SimReport,
    /// Resident bytes before the first program was recorded.
    rss_base: u64,
    next_op: u32,
}

impl SimReplay {
    /// Simulates the G = 1 end of the ladder once as the reference.
    pub fn setup() -> SimReplay {
        let mut w = SimReplay {
            platform: Platform::bluegene_p(),
            reference_end: SimReport::default(),
            rss_base: rss_bytes(),
            next_op: 0,
        };
        w.reference_end = w.sim(LADDER[0], None).report;
        w
    }

    fn sim(&mut self, (gi, gj): (usize, usize), rec: Option<&mut Recorder>) -> Sim {
        self.next_op += 1;
        let op = self.next_op;
        let grid = GridShape::new(GRID, GRID);
        let sa = SimBcast::ScatterAllgather;
        let tracing = rec.is_some();

        let t0 = Instant::now();
        let prog = record_hsumma(grid, GridShape::new(gi, gj), N, BLOCK, BLOCK, sa, sa, false);
        let t1 = Instant::now();
        // The heap keeps freed programs, so growth is read against the
        // resident set before the first recording, not the previous one.
        let rss_growth = if tracing {
            rss_bytes().saturating_sub(self.rss_base)
        } else {
            0
        };
        let t1b = Instant::now();
        let mut net = SimNet::new(grid.size(), self.platform.net);
        let report = replay_on(&mut net, self.platform.gamma, &prog);
        let t2 = Instant::now();

        if let Some(rec) = rec {
            let root = rec.reserve();
            rec.push(root, op, "netsim.record", 0, t0, t1);
            rec.push(root, op, "netsim.replay", 0, t1b, t2);
            rec.push_as(root, 0, op, ROOT, 0, t0, t2);
        }
        Sim {
            report,
            program_ops: prog.total_ops(),
            record_s: (t1 - t0).as_secs_f64(),
            replay_s: (t2 - t1b).as_secs_f64(),
            rss_growth,
        }
    }
}

impl Workload for SimReplay {
    fn run(&mut self, budget: &Budget, mut rec: Option<&mut Recorder>) -> Outcome {
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut first_ladder: Option<Vec<SimReport>> = None;
        let mut sims: Vec<Sim> = Vec::new();
        let end = self.reference_end;

        let pass = run_blocks(budget, || {
            let ladder: Vec<Sim> = LADDER
                .iter()
                .map(|&g| self.sim(g, rec.as_deref_mut()))
                .collect();
            let reports: Vec<SimReport> = ladder.iter().map(|s| s.report).collect();
            attempted += ladder.len() as u64;

            // 1. G = 1 and G = p are the same schedule (and the set-up's).
            let last = reports.len() - 1;
            let degenerate = bits(&reports[0]) == bits(&end) && bits(&reports[last]) == bits(&end);
            failed += u64::from(!degenerate);
            // 2. Every G repeats the first ladder to the last bit.
            let reference = first_ladder.get_or_insert_with(|| reports.clone());
            failed += reports
                .iter()
                .zip(reference.iter())
                .filter(|(a, b)| bits(a) != bits(b))
                .count() as u64;
            // 3. The communication-time minimum lies in the valley.
            let best = (0..reports.len())
                .min_by(|&i, &j| reports[i].comm_time.total_cmp(&reports[j].comm_time))
                .expect("ladder is not empty");
            failed += u64::from(!VALLEY.contains(&(LADDER[best].0 * LADDER[best].1)));

            let mops: f64 = ladder.iter().map(|s| s.program_ops as f64 / 1e6).sum();
            let lat = ladder.iter().map(|s| s.record_s + s.replay_s).collect();
            sims.extend(ladder);
            (mops, lat)
        });

        let ladder = first_ladder.unwrap_or_default();
        let ops = LADDER.len() as f64;
        let best_comm = ladder
            .iter()
            .map(|r| r.comm_time)
            .fold(f64::INFINITY, f64::min);
        let mut outcome = Outcome::new(pass, attempted, failed.min(attempted));
        outcome.wire_bytes = ladder.iter().map(|r| r.bytes as f64).sum::<f64>() / ops;
        outcome.wire_msgs = ladder.iter().map(|r| r.msgs as f64).sum::<f64>() / ops;
        outcome.model_time_s = ladder
            .iter()
            .map(|r| r.total_time)
            .fold(f64::INFINITY, f64::min);
        outcome.notes.push(format!(
            "comm time by G: {}",
            LADDER
                .iter()
                .zip(&ladder)
                .map(|((i, j), r)| format!("G={}: {:.4}", i * j, r.comm_time))
                .collect::<Vec<_>>()
                .join("  ")
        ));

        if rec.is_some() {
            let col = |f: fn(&Sim) -> f64| -> Vec<f64> { sims.iter().map(f).collect() };
            let total_ops: usize = sims.iter().map(|s| s.program_ops).sum();
            let total_mops = total_ops as f64 / 1e6;
            let ladders = sims.len() / LADDER.len();
            let mut v = Values::default();
            v.set("netsim.record_s_p50", percentile(&col(|s| s.record_s), 0.5));
            v.set("netsim.replay_s_p50", percentile(&col(|s| s.replay_s), 0.5));
            v.set(
                "netsim.record_mops_per_s",
                ratio(total_mops, col(|s| s.record_s).iter().sum()),
            );
            v.set(
                "netsim.replay_mops_per_s",
                ratio(total_mops, col(|s| s.replay_s).iter().sum()),
            );
            v.set("netsim.program_ops", (total_ops / ladders.max(1)) as f64);
            v.set(
                "netsim.rss_bytes_per_op",
                percentile(
                    &col(|s| ratio(s.rss_growth as f64, s.program_ops as f64)),
                    0.5,
                ),
            );
            v.set(
                "netsim.best_over_g1_comm",
                ratio(best_comm, ladder.first().map_or(0.0, |r| r.comm_time)),
            );
            outcome.layer = v;
        }
        outcome
    }

    fn lane_name(&self, _lane: u32) -> String {
        "caller".to_string()
    }
}
