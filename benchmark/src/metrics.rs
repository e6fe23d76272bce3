//! The benchmark's vocabulary: workloads, metric names, units and
//! bounds. `BENCHMARK.json` at the repository root is generated from
//! these tables (`--print-benchmark-json`), so the file the driver reads
//! and the names the program prints cannot drift apart.

use std::fmt::Write as _;

/// A workload: its name and why it exists.
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line on what only this workload shows.
    pub why: &'static str,
}

/// The four workloads, in the order a full run takes them.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "gemm-compute",
        why: "p=4, n=1024 HSUMMA, 128-wide panels: the local kernel does the work, so a microkernel or packing change shows here and nowhere else",
    },
    WorkloadDef {
        name: "gemm-comm",
        why: "p=16, n=256 HSUMMA, 8-wide panels: mailboxes, condvars and tree broadcasts do the work and the kernel almost none; the mirror image of gemm-compute",
    },
    WorkloadDef {
        name: "serve-mix",
        why: "2 closed-loop clients, window 4, dense/rect/sparse mix with deadlines on a p=4 GemmServer: the only workload with queueing, planning, gangs and sparse paths",
    },
    WorkloadDef {
        name: "sim-replay",
        why: "record+replay of p=1024 HSUMMA over the G ladder on BlueGene/P: the paper's own G-sweep, all time in netsim, no runtime at all",
    },
];

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction; end-to-end metrics also carry
/// the share by which they may worsen before a change is a regression.
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Allowed worsening as a share of the parent's median; `None` for
    /// per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Bound of the counts that repeat exactly on every run of one commit:
/// any real change to a schedule moves them by far more than this, and
/// a positive bound keeps "no worse than" well defined at zero spread.
pub const EXACT_BOUND: f64 = 0.001;

/// What a user of the system sees. Every workload reports every one.
/// `fail_frac` is not here because an end-to-end metric must never read
/// 0: failures are the `failed`/`attempted` fields of the result line
/// (and `bench.fail_frac` below).
///
/// The time and CPU bounds are the contract's widest, not the issue's
/// 0.10. On the 2-vCPU sandbox this was sized on, ten-run spreads of
/// identical code are 2–10 % after pinning and correction, and
/// back-to-back sets can differ by as much whenever a neighbour shares
/// the physical core — with 0 % steal reported, so nothing can correct
/// for it — and a narrower bound would reject innocent changes (see
/// README, "Noise").
pub const END_TO_END: [MetricDef; 9] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("solve_s_p50", "s", Better::Lower, 0.25),
    e2e("solve_s_p90", "s", Better::Lower, 0.25),
    e2e("work_per_s", "work/s", Better::Higher, 0.25),
    e2e("cpu_s_per_op", "core-s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
    e2e("wire_bytes", "bytes/op", Better::Lower, EXACT_BOUND),
    e2e("wire_msgs", "msgs/op", Better::Lower, EXACT_BOUND),
    e2e("model_time_s", "sim_s", Better::Lower, EXACT_BOUND),
];

use Better::{Higher, Lower};

/// Numbers of single layers (layer = crate), from the traced pass and
/// the micro-probes. A metric the chosen workload does not exercise
/// reads 0.
pub const PER_LAYER: [MetricDef; 69] = [
    // matrix: probes
    layer("matrix.gemm_panel_gflops", "GFLOP/s", Higher),
    layer("matrix.gemm_small_gflops", "GFLOP/s", Higher),
    layer("matrix.gemm_naive_gflops_n256", "GFLOP/s", Higher),
    layer("matrix.gemm_panel_flop_per_byte", "flop/B", Higher),
    layer("matrix.spgemm_mflops", "MFLOP/s", Higher),
    // runtime: probes
    layer("runtime.pool_spawn_s", "s", Lower),
    layer("runtime.empty_job_s_p50_p4", "s", Lower),
    layer("runtime.empty_job_s_p50_p16", "s", Lower),
    layer("runtime.pingpong_alpha_us", "us", Lower),
    layer("runtime.pingpong_beta_ns_per_byte", "ns/B", Lower),
    layer("runtime.bcast_s_p50", "s", Lower),
    // runtime: the workload's own traffic
    layer("runtime.pool_run_s_p50", "s", Lower),
    layer("runtime.comm_s_per_op", "s", Lower),
    layer("runtime.comm_frac", "ratio", Lower),
    layer("runtime.msgs_per_op", "msgs/op", Lower),
    layer("runtime.bytes_per_op", "bytes/op", Lower),
    layer("runtime.payload_clone_bytes_per_op", "bytes/op", Lower),
    // core: the workload's own stages
    layer("core.scatter_s_p50", "s", Lower),
    layer("core.gather_s_p50", "s", Lower),
    layer("core.run_s_p50", "s", Lower),
    layer("core.rank_skew_s_p50", "s", Lower),
    layer("core.comp_s_per_op", "s", Lower),
    layer("core.bytes_over_lower_bound", "ratio", Lower),
    // core: probes
    layer("core.pipelined_over_blocking", "ratio", Lower),
    layer("core.cosma_s_p50", "s", Lower),
    // sparse: probes
    layer("sparse.spgemm_2d_s_p50", "s", Lower),
    layer("sparse.sddmm_2d_s_p50", "s", Lower),
    layer("sparse.wire_bytes_per_op", "bytes/op", Lower),
    // model
    layer("model.advise_gemm_us_p50", "us", Lower),
    layer("model.pred_over_wall", "ratio", Lower),
    // serve: stage times
    layer("serve.submit_s_p50", "s", Lower),
    layer("serve.queue_wait_s_p50", "s", Lower),
    layer("serve.run_s_p50", "s", Lower),
    layer("serve.closure_resid_frac", "ratio", Lower),
    layer("serve.plan_cold_s", "s", Lower),
    // serve: ratios and counters
    layer("serve.plan_cache_hit_frac", "ratio", Higher),
    layer("serve.gang_job_frac", "ratio", Higher),
    layer("serve.rejected_frac", "ratio", Lower),
    layer("serve.infeasible_frac", "ratio", Lower),
    layer("serve.deadline_miss_frac", "ratio", Lower),
    layer("serve.calibration_ratio", "ratio", Lower),
    // serve: per-class medians
    layer("serve.dense_small_s_p50", "s", Lower),
    layer("serve.dense_medium_s_p50", "s", Lower),
    layer("serve.rect_s_p50", "s", Lower),
    layer("serve.spgemm_s_p50", "s", Lower),
    layer("serve.sddmm_s_p50", "s", Lower),
    // serve: the timing-dependent counts of the jobs as they really ran
    layer("serve.wire_bytes_per_job", "bytes/op", Lower),
    layer("serve.wire_msgs_per_job", "msgs/op", Lower),
    layer("serve.model_s_per_job", "sim_s", Lower),
    // netsim: the workload's own record and replay
    layer("netsim.record_s_p50", "s", Lower),
    layer("netsim.replay_s_p50", "s", Lower),
    layer("netsim.record_mops_per_s", "Mops/s", Higher),
    layer("netsim.replay_mops_per_s", "Mops/s", Higher),
    layer("netsim.program_ops", "count", Lower),
    layer("netsim.rss_bytes_per_op", "bytes/op", Lower),
    layer("netsim.best_over_g1_comm", "ratio", Lower),
    // netsim: probes
    layer("netsim.replay_mops_per_s_p65536", "Mops/s", Higher),
    layer("netsim.threads_engine_s_p256", "s", Lower),
    layer("netsim.replay_engine_s_p256", "s", Lower),
    // trace
    layer("trace.bench_overhead_frac", "ratio", Lower),
    layer("trace.run_traced_overhead_frac", "ratio", Lower),
    layer("trace.closure_resid_frac", "ratio", Lower),
    // host: context only
    layer("host.steal_frac", "ratio", Lower),
    layer("host.foreign_cpu_frac", "ratio", Lower),
    layer("host.disturbed_blocks", "count", Lower),
    layer("host.time_sensitivity", "ratio", Lower),
    // the benchmark itself
    layer("bench.fail_frac", "ratio", Lower),
    layer("bench.timed_ops", "count", Higher),
    layer("bench.timed_s", "s", Higher),
];

/// Measured values by metric name.
#[derive(Clone, Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `name = value`; a later value replaces an earlier one.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Adds every value of `other`.
    pub fn extend(&mut self, other: &Values) {
        for &(n, v) in &other.0 {
            self.set(n, v);
        }
    }
}

/// One table row per metric of `defs`: name, value, unit. With `all`,
/// a metric with no value reads 0 (the workload does not exercise that
/// layer); without, it is left out.
pub fn render_table(defs: &[MetricDef], values: &Values, all: bool) -> String {
    let mut out = String::new();
    for d in defs {
        if let Some(v) = values.get(d.name).or(all.then_some(0.0)) {
            let _ = writeln!(out, "  {:<40} {:>20} {}", d.name, format_value(v), d.unit);
        }
    }
    out
}

/// A value with all its digits, as JSON accepts it (no NaN or infinity:
/// those become 0, and a run that produced one fails its schema check
/// elsewhere).
pub fn format_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The `metrics` object of the result line: every metric of `defs` with
/// its value and unit.
pub fn metrics_json(defs: &[MetricDef], values: &Values) -> String {
    let fields: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                d.name,
                format_value(values.get(d.name).unwrap_or(0.0)),
                d.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(defs: &[MetricDef], values: &Values, attempted: u64, failed: u64) -> String {
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {}}}"#,
        failed == 0,
        attempted.max(1),
        failed,
        metrics_json(defs, values)
    )
}

/// Seconds one driver run measures. 92 runs with set-up and two builds
/// must end within 3420 s, so the issue's 30 s passes are scaled down
/// together (counts stay above 100 operations and 10 blocks).
pub const RUN_SECONDS: u32 = 20;

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!(r#"    {{"name": "{}", "why": "{}"}}"#, w.name, w.why))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                r#"    {{"name": "{}", "unit": "{}", "better": "{}", "bound": {}}}"#,
                m.name,
                m.unit,
                m.better.word(),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                r#"    {{"name": "{}", "unit": "{}", "better": "{}"}}"#,
                m.name,
                m.unit,
                m.better.word()
            )
        })
        .collect();
    format!(
        r#"{{
  "command": ["cargo", "run", "--release", "--quiet", "--offline", "--manifest-path", "benchmark/Cargo.toml", "--"],
  "paths": ["benchmark"],
  "run_seconds": {RUN_SECONDS},
  "workloads": [
{}
  ],
  "end_to_end": [
{}
  ],
  "per_layer": [
{}
  ]
}}
"#,
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_stay_inside_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)), "bad name");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");

        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_on_disk_is_the_generated_one() {
        let generated = benchmark_json();
        hsumma_trace::validate_json(&generated).unwrap();
        assert!(generated.len() < 64 * 1024);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, generated, "regenerate with --print-benchmark-json");
    }

    #[test]
    fn result_line_has_exactly_the_four_keys_and_every_metric() {
        let mut v = Values::default();
        v.set("setup_s", 0.5);
        v.set("setup_s", 0.25);
        v.set("solve_s_p50", f64::NAN);
        let line = result_line(&END_TO_END, &v, 0, 0);
        hsumma_trace::validate_json(&line).unwrap();
        assert!(line.starts_with(r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"#));
        assert!(line.contains(r#""setup_s": {"value": 0.25, "unit": "s"}"#));
        assert!(line.contains(r#""solve_s_p50": {"value": 0.0, "unit": "s"}"#));
        for m in &END_TO_END {
            assert!(line.contains(&format!(r#""{}": "#, m.name)));
        }
        assert!(result_line(&END_TO_END, &v, 5, 2).contains(r#""correct": false"#));
    }
}
