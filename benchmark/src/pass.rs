//! A timed pass: equal blocks of operations, each bracketed by host
//! samples, and a summary corrected to an undisturbed host.
//!
//! `--seconds` asks for that much measured time. Blocks have a fixed
//! operation count, so every count in a block is exact; the pass runs
//! whole blocks until they add up to the requested time.
//!
//! The sandbox this was sized on steals 10–40 % of the CPU for minutes
//! at a time, and a block's time grows smoothly with the share stolen
//! during it: `ln(time ÷ work)` rises by a *sensitivity* `k` per unit of
//! disturbance. Every block's times are therefore scaled by `exp(−k·d)`
//! to what they would have been at disturbance `d = 0`.
//!
//! `k` comes from two sources. There is a *prior*, the slope pooled
//! over runs taken in every state of the host (see [`prior`]). Each
//! pass also fits its own slope across its blocks (Theil–Sen, so a few
//! wild blocks do not bend it). The pass's own slope is only as good as
//! the spread of `d` it saw, so the two are averaged with the weights of
//! a ridge regression: the fit counts for `Σ(d − d̄)²`, the prior for
//! [`PRIOR_WEIGHT`]. A pass whose blocks all sat near one `d` cannot
//! tell a slope from an offset and uses the prior; one that saw 0–30 %
//! mostly trusts itself.
//!
//! One thing a slope cannot take out: a neighbour that steals anything
//! at all is running on the same physical core, and shares its caches,
//! execution units and clock frequency even during the ticks it does
//! not steal. Runs with nothing stolen were 10–20 % faster, on every
//! workload, than the `d = 0` intercept of runs with 3–24 % stolen. All
//! times are therefore also scaled by [`neighbour_cost`], which depends
//! on the share stolen over the whole pass.
//!
//! The correction is driven by the host signal (see [`crate::host`]),
//! never by which results look good; a change that slows the program
//! slows every block alike and moves the intercept, which is what is
//! reported.

use crate::host::{peak_rss_restart, HostDelta, HostSample};
use crate::stats::{median, percentile, ratio};

/// Fewest blocks a pass summarises. With the smallest block (one
/// 7-operation ladder of sim-replay) that is still over 100 operations,
/// so at least ten lie beyond the p90.
pub const MIN_BLOCKS: usize = 15;

/// What the prior sensitivity counts for against a pass's own fit, in
/// the fit's units of `Σ(d − d̄)²`: as much as 20 blocks whose
/// disturbance has a standard deviation of 10 %.
const PRIOR_WEIGHT: f64 = 0.2;

/// Sensitivities known before a pass runs: the slopes of `ln y` on `d`
/// pooled over 32 runs (eight of each workload) taken while the sandbox
/// stole between 1 % and 24 % of the pinned CPU. All four workloads
/// agree within ±0.3, because on one CPU the mechanism is the same for
/// all: a stolen tick costs the tick and about as much again to refill
/// the caches. The process is charged only part of a stolen tick.
mod prior {
    /// Time per unit of work, and the median latency.
    pub const TIME: f64 = 2.0;
    /// Process CPU seconds per operation.
    pub const CPU: f64 = 1.0;
    /// About how long the hypervisor keeps the CPU once it takes it, in
    /// seconds (see [`p90`]).
    pub const BURST: f64 = 0.015;

    /// The 90th-percentile latency of operations whose median latency
    /// is `median_s`. An operation much longer than a burst of stolen
    /// time catches its share of every burst, and its slow tenth
    /// stretches like its median. One shorter than a burst is hit whole
    /// or not at all, so a block's slow tenth are the operations that
    /// were hit, and they stretch up to twice as steeply. The slopes
    /// that left the least spread: 4 for `gemm-comm`'s 13 ms operations,
    /// 2–2.8 for `serve-mix`'s 35 ms jobs, 2–2.5 for the 0.13–0.16 s
    /// operations of the other two.
    pub fn p90(median_s: f64) -> f64 {
        TIME * (1.0 + (BURST / median_s).min(1.0))
    }

    /// `ln` of what a neighbour on the physical core costs every time
    /// while it is there, stealing or not: the median over the four
    /// workloads of (runs with 3–24 % stolen, corrected to `d = 0`) ÷
    /// (runs with nothing stolen).
    pub const NEIGHBOUR: f64 = 0.15;
    /// Share stolen over a pass at which the neighbour counts as 63 %
    /// present; at 3 % it counts as 95 %. Runs with 0.0–0.5 % stolen
    /// ran at the undisturbed speed, runs from 3 % at the shared one.
    pub const PRESENT_AT: f64 = 0.01;
}

/// What times measured over a pass in which `stolen` of the CPU went to
/// others are scaled by to read as on a core with no neighbour: 1 when
/// nothing was stolen, falling to `exp(−0.15)` once a few percent were.
pub fn neighbour_cost(stolen: f64) -> f64 {
    let present = 1.0 - (-stolen / prior::PRESENT_AT).exp();
    (-prior::NEIGHBOUR * present).exp()
}

/// Smallest difference in disturbance between two blocks whose slope is
/// used (a 1 s block on one CPU is 100 ticks, so it resolves 1 %).
const MIN_STEP: f64 = 0.01;

/// Largest sensitivity accepted: `exp(−12·d)` already calls a block with
/// 20 % disturbance eleven times too slow.
const MAX_SENSITIVITY: f64 = 12.0;

/// How long a pass measures.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Measured seconds asked for.
    pub seconds: f64,
    /// Fewest blocks to run whatever the time.
    pub min_blocks: usize,
}

impl Budget {
    /// The budget of a run asked to measure for `seconds`.
    pub fn seconds(seconds: f64) -> Budget {
        Budget {
            seconds,
            min_blocks: MIN_BLOCKS,
        }
    }

    /// The same budget at `1/div` of the time and blocks (the traced
    /// pass runs at a quarter of the counts).
    pub fn divided(&self, div: usize) -> Budget {
        Budget {
            seconds: self.seconds / div as f64,
            min_blocks: self.min_blocks.div_ceil(div),
        }
    }
}

/// One block of operations.
#[derive(Clone, Debug, Default)]
pub struct Block {
    /// Work the block completed, in the workload's unit (GFLOP, jobs,
    /// replayed Mops).
    pub work: f64,
    /// Seconds the work took: summed operation latencies for a single
    /// caller, the block's wall time for concurrent clients.
    pub busy_s: f64,
    /// Latency of each operation completed in the block.
    pub lat: Vec<f64>,
    /// Host clocks over the block.
    pub host: HostDelta,
    /// Highest resident set during the block, in bytes.
    pub peak_rss: u64,
}

/// Sensitivity of `y` to disturbance `d` over the points `(d, y)`: the
/// Theil–Sen slope of `ln y` on `d` (the median of the slopes of all
/// pairs of points at least [`MIN_STEP`] apart, clamped to
/// `[0, MAX_SENSITIVITY]`: a disturbed host does not speed anything up)
/// averaged with `prior`, the fit weighing `Σ(d − d̄)²` and the prior
/// [`PRIOR_WEIGHT`]. With no two points far enough apart it is the prior.
pub fn sensitivity(points: &[(f64, f64)], prior: f64) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(_, y)| y > 0.0)
        .map(|&(d, y)| (d, y.ln()))
        .collect();
    let mut slopes = Vec::new();
    for (i, &(d0, y0)) in pts.iter().enumerate() {
        for &(d1, y1) in &pts[i + 1..] {
            if (d1 - d0).abs() >= MIN_STEP {
                slopes.push((y1 - y0) / (d1 - d0));
            }
        }
    }
    if slopes.is_empty() {
        return prior;
    }
    let fit = median(&slopes).clamp(0.0, MAX_SENSITIVITY);
    let mean = pts.iter().map(|&(d, _)| d).sum::<f64>() / pts.len() as f64;
    let spread: f64 = pts.iter().map(|&(d, _)| (d - mean).powi(2)).sum();
    (spread * fit + PRIOR_WEIGHT * prior) / (spread + PRIOR_WEIGHT)
}

/// What a time measured at disturbance `d` is scaled by to read as at
/// `d = 0`, given sensitivity `k`.
pub fn to_quiet(k: f64, d: f64) -> f64 {
    (-k * d).exp()
}

/// The blocks of one pass.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    blocks: Vec<Block>,
}

impl Pass {
    /// A pass over already-measured blocks.
    pub fn from_blocks(blocks: Vec<Block>) -> Pass {
        Pass { blocks }
    }

    /// Whether enough has been measured to stop.
    pub fn done(&self, budget: &Budget) -> bool {
        let total_s: f64 = self.blocks.iter().map(|b| b.host.wall_s).sum();
        self.blocks.len() >= budget.min_blocks && total_s >= budget.seconds
    }

    /// Number of blocks.
    pub fn blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Blocks during which stolen plus foreign CPU exceeded
    /// [`crate::host::DISTURBED`] of capacity.
    pub fn disturbed(&self) -> usize {
        self.blocks.iter().filter(|b| !b.host.quiet()).count()
    }

    /// Operations timed.
    pub fn ops(&self) -> usize {
        self.blocks.iter().map(|b| b.lat.len()).sum()
    }

    /// Host clocks summed over the pass.
    pub fn host(&self) -> HostDelta {
        let mut total = HostDelta::default();
        for b in &self.blocks {
            total.add(&b.host);
        }
        total
    }

    /// One entry per block, `work/s@disturbance%`, as measured: the raw
    /// material for judging a noisy run and its correction.
    pub fn render_blocks(&self) -> String {
        self.blocks
            .iter()
            .map(|b| {
                format!(
                    "{:.4}@{:.1}",
                    ratio(b.work, b.busy_s),
                    100.0 * b.host.disturbance()
                )
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Median over blocks of `f(block)` corrected to an undisturbed host
    /// with the sensitivity of that same quantity, of which `prior` is
    /// known beforehand; returns the median and the sensitivity.
    fn corrected_median(&self, prior: f64, f: impl Fn(&Block) -> f64) -> (f64, f64) {
        let points: Vec<(f64, f64)> = self
            .blocks
            .iter()
            .filter(|b| !b.lat.is_empty())
            .map(|b| (b.host.disturbance(), f(b)))
            .collect();
        let k = sensitivity(&points, prior);
        let corrected: Vec<f64> = points.iter().map(|&(d, y)| y * to_quiet(k, d)).collect();
        (median(&corrected), k)
    }

    /// The `q`-quantile of all operation latencies, each scaled to an
    /// undisturbed host with the sensitivity of the blocks' own
    /// `q`-quantiles: a stolen CPU stretches a block's slowest operations
    /// far more than its median one, so each quantile needs its own.
    fn latency_quantile(&self, q: f64, prior: f64) -> f64 {
        let (_, k) = self.corrected_median(prior, |b| percentile(&b.lat, q));
        let lat: Vec<f64> = self
            .blocks
            .iter()
            .flat_map(|b| {
                let scale = to_quiet(k, b.host.disturbance());
                b.lat.iter().map(move |l| l * scale)
            })
            .collect();
        percentile(&lat, q)
    }

    /// The pass's summary, corrected to an undisturbed host.
    pub fn summary(&self) -> Summary {
        let (time_per_work, time_sensitivity) =
            self.corrected_median(prior::TIME, |b| ratio(b.busy_s, b.work));
        let alone = neighbour_cost(self.host().disturbance());
        let all: Vec<f64> = self.blocks.iter().flat_map(|b| b.lat.clone()).collect();
        let p90_prior = prior::p90(percentile(&all, 0.5));
        Summary {
            solve_s_p50: alone * self.latency_quantile(0.5, prior::TIME),
            solve_s_p90: alone * self.latency_quantile(0.9, p90_prior),
            work_per_s: ratio(1.0, alone * time_per_work),
            cpu_s_per_op: alone
                * self
                    .corrected_median(prior::CPU, |b| {
                        ratio(b.host.own_cpu_s(), b.lat.len() as f64)
                    })
                    .0,
            peak_rss_mb: median(
                &self
                    .blocks
                    .iter()
                    .map(|b| b.peak_rss as f64 / 1e6)
                    .collect::<Vec<_>>(),
            ),
            time_sensitivity,
            neighbour_cost: alone,
        }
    }
}

/// What a pass says about time and memory.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Median operation latency.
    pub solve_s_p50: f64,
    /// 90th-percentile operation latency.
    pub solve_s_p90: f64,
    /// Work ÷ time of the median block.
    pub work_per_s: f64,
    /// Median over blocks of process CPU seconds per operation.
    pub cpu_s_per_op: f64,
    /// Median over blocks of the block's resident-set high-water mark.
    pub peak_rss_mb: f64,
    /// The `k` that time per work was corrected with.
    pub time_sensitivity: f64,
    /// What every time was scaled by for the neighbour on the core.
    pub neighbour_cost: f64,
}

/// Runs `block` (one block of operations by a single caller, returning
/// the work done and each operation's latency) until the budget is met.
pub fn run_blocks(budget: &Budget, mut block: impl FnMut() -> (f64, Vec<f64>)) -> Pass {
    let mut pass = Pass::default();
    while !pass.done(budget) {
        peak_rss_restart();
        let before = HostSample::now();
        let (work, lat) = block();
        let host = before.until(&HostSample::now());
        pass.blocks.push(Block {
            work,
            busy_s: lat.iter().sum(),
            lat,
            host,
            peak_rss: peak_rss_restart(),
        });
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1 s block of ten operations that took `slowdown` times as long
    /// as on a quiet host, with `steal` of 200 ticks stolen.
    fn block(slowdown: f64, steal: u64) -> Block {
        Block {
            work: 10.0,
            busy_s: slowdown,
            lat: vec![slowdown / 10.0; 10],
            host: HostDelta {
                wall_s: slowdown,
                capacity: 200,
                steal,
                foreign: 0,
                own: (100.0 * slowdown) as u64,
            },
            peak_rss: 50_000_000,
        }
    }

    #[test]
    fn an_undisturbed_pass_is_summarised_as_measured() {
        let pass = Pass::from_blocks(vec![block(1.0, 0), block(1.1, 0), block(0.9, 0)]);
        let s = pass.summary();
        // Nothing to fit a slope on, and nothing for the prior to scale.
        assert_eq!(s.time_sensitivity, prior::TIME);
        assert!((s.solve_s_p50 - 0.1).abs() < 1e-12);
        assert!((s.work_per_s - 10.0).abs() < 1e-12);
        assert!((s.cpu_s_per_op - 0.1).abs() < 1e-12);
        assert_eq!(s.peak_rss_mb, 50.0);
        assert_eq!((pass.ops(), pass.blocks(), pass.disturbed()), (30, 3, 0));
        assert_eq!(pass.render_blocks(), "10.0000@0.0 9.0909@0.0 11.1111@0.0");
    }

    #[test]
    fn the_block_median_ignores_one_stalled_block_and_empty_blocks() {
        let mut blocks = vec![block(1.0, 0); 9];
        blocks.push(block(10.0, 0));
        blocks.push(Block::default());
        let s = Pass::from_blocks(blocks).summary();
        assert!((s.work_per_s - 10.0).abs() < 1e-12);
        assert!((s.solve_s_p90 - 0.1).abs() < 1e-12);
    }

    #[test]
    fn stolen_time_is_taken_out() {
        // Blocks slowed by exp(k·d) at d = 0, 5, 10, 20, 30 %, plus one
        // wild block that must not bend the fit.
        let k = prior::TIME;
        let mut blocks: Vec<Block> = [0u64, 10, 20, 40, 60]
            .iter()
            .map(|&steal| block((k * steal as f64 / 200.0).exp(), steal))
            .collect();
        blocks.push(block(9.0, 20));
        let pass = Pass::from_blocks(blocks);
        let s = pass.summary();
        // With a seventh of the pass stolen the neighbour was there
        // throughout, and its cost comes off every time as well.
        let alone = (-prior::NEIGHBOUR).exp();
        assert!((s.neighbour_cost - alone).abs() < 1e-4, "{s:?}");
        assert!((s.time_sensitivity - k).abs() < 0.02, "{s:?}");
        assert!((s.solve_s_p50 - 0.1 * alone).abs() < 2e-3, "{s:?}");
        assert!((s.work_per_s - 10.0 / alone).abs() < 0.2, "{s:?}");
        // CPU time rose as steeply as the wall time here, steeper than
        // its prior: the fit pulls the correction part of the way.
        assert!(
            s.cpu_s_per_op > 0.1 * alone && s.cpu_s_per_op < 0.12 * alone,
            "{s:?}"
        );
        assert_eq!(pass.disturbed(), 4);
    }

    #[test]
    fn sensitivity_weighs_the_fit_by_the_spread_it_saw() {
        // No two blocks a step apart: nothing to fit, the prior stands.
        assert_eq!(sensitivity(&[(0.100, 1.0), (0.105, 2.0)], 3.0), 3.0);
        assert_eq!(sensitivity(&[], 3.0), 3.0);
        // Σ(d − d̄)² of d = 0, 0.2, 0.4 is 0.08: the fit counts 0.08
        // against the prior's 0.2.
        let steep = |k: f64| [(0.0, 1.0), (0.2, (0.2 * k).exp()), (0.4, (0.4 * k).exp())];
        let k = sensitivity(&steep(6.0), 2.0);
        assert!((k - (0.08 * 6.0 + 0.2 * 2.0) / 0.28).abs() < 1e-9, "{k}");
        // Faster under disturbance is noise, not a negative sensitivity,
        // and no fit exceeds the cap.
        let k = sensitivity(&[(0.0, 4.0), (0.2, 2.0), (0.4, 1.0)], 2.0);
        assert!((k - 0.2 * 2.0 / 0.28).abs() < 1e-9, "{k}");
        let k = sensitivity(&[(0.0, 1.0), (0.2, 1e9), (0.4, 1e18)], 2.0);
        assert!(
            (k - (0.08 * MAX_SENSITIVITY + 0.4) / 0.28).abs() < 1e-9,
            "{k}"
        );
        assert_eq!(to_quiet(0.0, 0.3), 1.0);
        assert!((to_quiet(5.0, 0.2) - (-1.0f64).exp()).abs() < 1e-15);
    }

    #[test]
    fn short_operations_have_steeper_tails() {
        assert_eq!(prior::p90(0.005), 2.0 * prior::TIME);
        assert_eq!(prior::p90(0.015), 2.0 * prior::TIME);
        assert!((prior::p90(0.030) - 1.5 * prior::TIME).abs() < 1e-12);
        assert!((prior::p90(1.5) - 1.01 * prior::TIME).abs() < 1e-12);
    }

    #[test]
    fn the_neighbour_costs_nothing_until_it_steals() {
        assert_eq!(neighbour_cost(0.0), 1.0);
        // Half a percent stolen: two fifths present.
        assert!((neighbour_cost(0.005) - (-0.15 * 0.3935f64).exp()).abs() < 1e-4);
        // From a few percent on it is simply there.
        assert!((neighbour_cost(0.05) - (-0.15f64).exp()).abs() < 1e-3);
        assert!((neighbour_cost(0.40) - (-0.15f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn a_pass_runs_at_least_min_blocks_and_until_the_time_is_measured() {
        let mut calls = 0;
        let pass = run_blocks(
            &Budget {
                seconds: 0.0,
                min_blocks: 4,
            },
            || {
                calls += 1;
                (1.0, vec![1e-3])
            },
        );
        assert_eq!(calls, 4);
        assert_eq!(pass.blocks(), 4);
        assert!(!Pass::default().done(&Budget::seconds(1.0)));
    }
}
