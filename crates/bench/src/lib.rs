//! Shared harness for the experiment binaries.
//!
//! Every table and figure of the paper is one function in [`figures`],
//! printed by `cargo run --release -p hsumma-bench --bin figures -- <name>`
//! and, where it takes seconds, held byte-for-byte against
//! `results/<name>.txt` by `tests/figures.rs` (see `DESIGN.md` for the
//! index). The rest of this library is what the tables and the other
//! binaries share: platform profiles, grid factorization, and plain-text
//! table rendering.

pub mod figures;

use hsumma_core::tuning::{power_of_two_gs, sweep_groups};
use hsumma_core::{simulate, Schedule};
use hsumma_matrix::GridShape;
use hsumma_model::ModelParams;
use hsumma_netsim::{Platform, SimBcast};

/// How the simulator prices communication for a platform.
///
/// * [`Profile::Ideal`] — the paper's §IV assumptions: its quoted
///   `(α, β)`, contention-free links, van de Geijn long-message broadcast
///   (what MPICH/BG-MPI select at these panel sizes). This is the profile
///   the *analytic model* describes; it reproduces the paper's predicted
///   shapes but not its measured magnitudes.
/// * [`Profile::Measured`] — effective parameters *fitted to the paper's
///   own measured SUMMA times* (never to HSUMMA, which therefore stays a
///   prediction), priced with a serialized (flat) broadcast: on both test
///   platforms, MB-size broadcasts over wide communicators were limited
///   by root injection bandwidth and shared links, making the effective
///   cost per process nearly linear in the communicator width — the
///   congestion effect P. Balaji et al. describe (cited in §V-B as the
///   source of the "zigzags"). Both profiles use blocking-collective
///   (per-step synchronized) semantics, matching how the paper measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Paper parameters, contention-free, van de Geijn broadcast.
    Ideal,
    /// Measured-effective parameters, serialized broadcast.
    Measured,
}

/// Which physical platform a figure simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Machine {
    /// Grid5000 Graphene cluster (Figs. 5–7).
    Grid5000,
    /// Shaheen BlueGene/P (Figs. 8–9, headline).
    BlueGeneP,
}

impl Profile {
    /// The broadcast schedule the profile prices with.
    pub fn bcast(&self) -> SimBcast {
        match self {
            Profile::Ideal => SimBcast::ScatterAllgather,
            Profile::Measured => SimBcast::Flat,
        }
    }

    /// The platform parameters for a machine under this profile.
    pub fn platform(&self, machine: Machine) -> Platform {
        match (self, machine) {
            (Profile::Ideal, Machine::Grid5000) => Platform::grid5000(),
            (Profile::Ideal, Machine::BlueGeneP) => Platform::bluegene_p(),
            (Profile::Measured, Machine::Grid5000) => Platform::grid5000_effective(),
            (Profile::Measured, Machine::BlueGeneP) => Platform::bluegene_p_effective(),
        }
    }

    /// Human-readable label used in report headers.
    pub fn label(&self) -> &'static str {
        match self {
            Profile::Ideal => "ideal (paper parameters, van de Geijn bcast)",
            Profile::Measured => "measured-effective (fitted to SUMMA, serialized bcast)",
        }
    }
}

/// A full figure-style sweep: SUMMA plus HSUMMA at every power-of-two
/// group count, under blocking-collective semantics.
pub struct FigureSweep {
    /// SUMMA's simulated timings.
    pub summa: hsumma_netsim::SimReport,
    /// HSUMMA timings per group count.
    pub points: Vec<hsumma_core::tuning::GroupPoint>,
}

/// Runs the standard figure sweep for `p` cores, `n × n` operands and
/// block `b = B` under `profile` on `machine`.
pub fn run_sweep(profile: Profile, machine: Machine, n: usize, p: usize, b: usize) -> FigureSweep {
    let platform = profile.platform(machine);
    let grid = grid_for(p);
    let bcast = profile.bcast();
    let sim = |sched| simulate(&sched, &platform, true);
    let summa = sim(Schedule::summa(grid, n, b, bcast));
    let points = sweep_groups(grid, &power_of_two_gs(p), |groups| {
        sim(Schedule::hsumma(grid, groups, n, b, b, bcast, bcast))
    });
    FigureSweep { summa, points }
}

/// The most-square `s × t` grid for `p` processors with `s ≤ t` (the
/// arrangement used for non-square core counts like 128 or 2048).
pub fn grid_for(p: usize) -> GridShape {
    let mut s = (p as f64).sqrt() as usize;
    while s > 1 && !p.is_multiple_of(s) {
        s -= 1;
    }
    GridShape::new(s.max(1), p / s.max(1))
}

/// Converts a simulator platform into analytic-model parameters.
pub fn model_params(platform: &Platform) -> ModelParams {
    ModelParams {
        alpha: platform.net.alpha,
        beta: platform.net.beta,
        gamma: platform.gamma,
    }
}

/// Renders rows as an aligned plain-text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let line = |cells: &[String], widths: &[usize], out: &mut String| {
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:>width$}  ", cell, width = widths[i]));
        }
        out.push('\n');
    };
    line(
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
        &mut out,
    );
    let rule: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    out.push_str(&"-".repeat(rule));
    out.push('\n');
    for row in rows {
        line(row, &widths, &mut out);
    }
    out
}

/// Formats seconds with 4 significant digits.
pub fn secs(t: f64) -> String {
    format!("{t:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_for_powers_of_two() {
        assert_eq!(grid_for(16), GridShape::new(4, 4));
        assert_eq!(grid_for(128), GridShape::new(8, 16));
        assert_eq!(grid_for(2048), GridShape::new(32, 64));
        assert_eq!(grid_for(16384), GridShape::new(128, 128));
    }

    #[test]
    fn grid_for_handles_odd_counts() {
        let g = grid_for(12);
        assert_eq!(g.size(), 12);
        assert!(g.rows <= g.cols);
        assert_eq!(grid_for(1), GridShape::new(1, 1));
        assert_eq!(grid_for(7), GridShape::new(1, 7));
    }

    #[test]
    fn render_table_aligns_columns() {
        let t = render_table(
            &["G", "time"],
            &[
                vec!["1".into(), "10.5".into()],
                vec!["128".into(), "3.25".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('G') && lines[0].contains("time"));
        assert!(lines[3].contains("128"));
    }

    #[test]
    fn model_params_copy_platform_fields() {
        let p = Platform::bluegene_p();
        let m = model_params(&p);
        assert_eq!(m.alpha, p.net.alpha);
        assert_eq!(m.beta, p.net.beta);
        assert_eq!(m.gamma, p.gamma);
    }

    #[test]
    fn profiles_map_to_distinct_platforms_and_bcasts() {
        for machine in [Machine::Grid5000, Machine::BlueGeneP] {
            let ideal = Profile::Ideal.platform(machine);
            let measured = Profile::Measured.platform(machine);
            assert_ne!(ideal.net.beta, measured.net.beta, "{machine:?}");
        }
        assert_ne!(Profile::Ideal.bcast(), Profile::Measured.bcast());
        assert!(Profile::Measured.label().contains("fitted"));
    }

    #[test]
    fn run_sweep_produces_summa_matching_g1_endpoint() {
        let sweep = run_sweep(Profile::Measured, Machine::Grid5000, 128, 16, 8);
        let g1 = sweep.points.first().expect("G=1 present");
        assert_eq!(g1.g, 1);
        let rel =
            (g1.report.comm_time - sweep.summa.comm_time).abs() / sweep.summa.comm_time.max(1e-12);
        assert!(rel < 1e-9, "G=1 must equal SUMMA");
        // Powers of two up to p, each with a valid factorization.
        assert!(sweep.points.iter().all(|pt| pt.g.is_power_of_two()));
        assert_eq!(sweep.points.last().map(|pt| pt.g), Some(16));
    }
}
