//! The repository's benchmark: four closed-loop workloads, nine
//! end-to-end metrics and a traced pass for per-layer numbers. See
//! `README.md` beside this package for why each workload exists, which
//! end-to-end metric each layer metric should move, and how to read the
//! trace files.
//!
//! ```text
//! hsumma-benchmark --workload W --seed N --seconds S --trace 0|1   one pass, one result line
//! hsumma-benchmark [--seed N] [--seconds S]                        all workloads, both passes
//! hsumma-benchmark --aa [--seed N] [--seconds S]                   every workload twice, gaps vs bounds
//! hsumma-benchmark --smoke                                         tiny counts, schema check
//! hsumma-benchmark --print-benchmark-json                          the contents of BENCHMARK.json
//! ```

mod gemm;
mod host;
mod metrics;
mod pass;
mod probes;
mod serve;
mod sim;
mod spans;
mod stats;

use metrics::{
    metrics_json, render_table, result_line, MetricDef, Values, END_TO_END, PER_LAYER, WORKLOADS,
};
use pass::{Budget, Pass};
use spans::Recorder;
use stats::{median, ratio};
use std::process::ExitCode;
use std::time::Instant;

/// SplitMix64: the benchmark's only source of randomness, so the
/// program under test sees nothing but inputs generated from `--seed`.
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream determined by `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 bits.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// What one pass of a workload produced.
pub struct Outcome {
    /// The timed blocks.
    pub pass: Pass,
    /// Operations attempted, timed or not.
    pub attempted: u64,
    /// Operations refused, failed, timed out or failing verification.
    pub failed: u64,
    /// Rank-to-rank payload bytes per operation (exact).
    pub wire_bytes: f64,
    /// Rank-to-rank messages per operation (exact).
    pub wire_msgs: f64,
    /// Modeled makespan of the plan that ran (exact).
    pub model_time_s: f64,
    /// Per-layer values of the workload's own layers; filled by a
    /// traced pass only.
    pub layer: Values,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// An outcome with no exact counts or layer values yet.
    pub fn new(pass: Pass, attempted: u64, failed: u64) -> Outcome {
        Outcome {
            pass,
            attempted,
            failed,
            wire_bytes: 0.0,
            wire_msgs: 0.0,
            model_time_s: 0.0,
            layer: Values::default(),
            notes: Vec::new(),
        }
    }
}

/// A set-up workload: runs passes, with or without span recording.
pub trait Workload {
    /// Runs one pass within `budget`; records spans when `rec` is given.
    fn run(&mut self, budget: &Budget, rec: Option<&mut Recorder>) -> Outcome;
    /// Track name of a span lane in the trace file.
    fn lane_name(&self, lane: u32) -> String;
}

/// How much to run: the driver's sizes, or tiny ones for `--smoke`.
#[derive(Clone, Copy)]
struct Size {
    budget: Budget,
    /// Fewest times set-up is repeated; the median is reported.
    setups: usize,
    tiny: bool,
}

/// Set-up is repeated beyond [`Size::setups`] until it has taken this
/// long in all or run [`MAX_SETUPS`] times: the cheap set-ups (14 ms for
/// `gemm-comm`) need many repetitions for a steady median, the dear ones
/// (a third of a second) cannot afford them.
const SETUP_SECONDS: f64 = 2.0;
const MAX_SETUPS: usize = 101;

impl Size {
    fn seconds(seconds: f64) -> Size {
        Size {
            budget: Budget::seconds(seconds),
            setups: 5,
            tiny: false,
        }
    }

    fn smoke() -> Size {
        Size {
            budget: Budget {
                seconds: 0.0,
                min_blocks: 1,
            },
            setups: 1,
            tiny: true,
        }
    }
}

fn setup(workload: usize, seed: u64, tiny: bool) -> Box<dyn Workload> {
    let sized = |shape: gemm::Shape| if tiny { shape.tiny() } else { shape };
    match WORKLOADS[workload].name {
        "gemm-compute" => Box::new(gemm::Gemm::setup(sized(gemm::Shape::compute()), seed)),
        "gemm-comm" => Box::new(gemm::Gemm::setup(sized(gemm::Shape::comm()), seed)),
        "serve-mix" if tiny => Box::new(serve::ServeMix::setup(seed).tiny()),
        "serve-mix" => Box::new(serve::ServeMix::setup(seed)),
        _ => Box::new(sim::SimReplay::setup()),
    }
}

/// The per-layer values every workload with rank threads derives from
/// its summed [`hsumma_runtime::CommStats`]: `ops` operations on
/// `ranks` ranks.
pub fn comm_values(total: &hsumma_runtime::CommStats, ops: f64, ranks: usize) -> Values {
    let rank_ops = ops * ranks as f64;
    let mut v = Values::default();
    v.set("runtime.comm_s_per_op", ratio(total.comm_seconds, rank_ops));
    v.set(
        "runtime.comm_frac",
        ratio(total.comm_seconds, total.total_seconds()),
    );
    v.set("runtime.msgs_per_op", ratio(total.msgs_sent as f64, ops));
    v.set("runtime.bytes_per_op", ratio(total.bytes_sent as f64, ops));
    v.set(
        "runtime.payload_clone_bytes_per_op",
        ratio(total.payload_clone_bytes as f64, ops),
    );
    v.set("core.comp_s_per_op", ratio(total.comp_seconds, rank_ops));
    v
}

/// One measured pass set: metric values plus the operation counts of
/// the result line.
struct Report {
    values: Values,
    attempted: u64,
    failed: u64,
    /// Human-readable lines printed before the result.
    text: String,
}

/// The untraced pass: sets up `size.setups` times (reporting the
/// median), runs one pass and reads every end-to-end metric.
fn measure_untraced(workload: usize, seed: u64, size: Size) -> Report {
    let mut setup_s = Vec::with_capacity(size.setups);
    let mut w: Option<Box<dyn Workload>> = None;
    let before_setups = host::HostSample::now();
    while setup_s.len() < size.setups
        || (!size.tiny
            && setup_s.len() < MAX_SETUPS
            && before_setups.at().elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        // Tear the previous one down first: two live set-ups would
        // double the peak resident set.
        drop(w.take());
        let t = Instant::now();
        w = Some(setup(workload, seed, size.tiny));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let setup_host = before_setups.until(&host::HostSample::now());
    let mut w = w.expect("at least one set-up");
    let out = w.run(&size.budget, None);
    let s = out.pass.summary();
    let host = out.pass.host();

    let mut values = Values::default();
    // Set-up is corrected like the pass's blocks, with the pass's
    // sensitivity and neighbour cost and the disturbance over the set-up
    // phase.
    values.set(
        "setup_s",
        median(&setup_s)
            * pass::to_quiet(s.time_sensitivity, setup_host.disturbance())
            * s.neighbour_cost,
    );
    values.set("solve_s_p50", s.solve_s_p50);
    values.set("solve_s_p90", s.solve_s_p90);
    values.set("work_per_s", s.work_per_s);
    values.set("cpu_s_per_op", s.cpu_s_per_op);
    values.set("peak_rss_mb", s.peak_rss_mb);
    values.set("wire_bytes", out.wire_bytes);
    values.set("wire_msgs", out.wire_msgs);
    values.set("model_time_s", out.model_time_s);

    let mut text = format!(
        "[{}] seed {seed}: {} set-ups, {} timed ops in {:.1} s over {} blocks ({} disturbed), \
         host steal {:.2} % foreign {:.2} %, times corrected with sensitivity {:.2} and \
         neighbour cost {:.3}, fail_frac {}\n",
        WORKLOADS[workload].name,
        setup_s.len(),
        out.pass.ops(),
        host.wall_s,
        out.pass.blocks(),
        out.pass.disturbed(),
        100.0 * host.steal_frac(),
        100.0 * host.foreign_frac(),
        s.time_sensitivity,
        s.neighbour_cost,
        ratio(out.failed as f64, out.attempted as f64),
    );
    for note in &out.notes {
        text.push_str(&format!("  {note}\n"));
    }
    text.push_str(&format!(
        "  blocks as measured (work/s @ stolen+foreign %): {}\n",
        out.pass.render_blocks()
    ));
    text.push_str(&render_table(&END_TO_END, &values, true));
    Report {
        values,
        attempted: out.attempted,
        failed: out.failed,
        text,
    }
}

/// Directory the trace files go to: `out/` inside this package.
fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Largest share of an operation's time the spans may leave
/// unaccounted for.
const CLOSURE_LIMIT: f64 = 0.02;

/// The traced run: a quarter-length pass without spans, the same pass
/// with spans, and the per-layer values of the workload's own layers
/// (the caller adds the micro-probes'). Writes `out/trace-<workload>.json`.
fn measure_traced(workload: usize, seed: u64, size: Size) -> Report {
    let name = WORKLOADS[workload].name;
    let mut w = setup(workload, seed, size.tiny);
    let quarter = size.budget.divided(4);
    let plain = w.run(&quarter, None);
    let mut rec = Recorder::new(Instant::now(), 0);
    let traced = w.run(&quarter, Some(&mut rec));

    let json = rec.chrome_json(|lane| w.lane_name(lane));
    let trace_valid = hsumma_trace::validate_json(&json);
    let path = out_dir().join(format!("trace-{name}.json"));
    let written = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, &json));
    let closure = rec.closure_resid_frac();

    let host = traced.pass.host();
    let (attempted, failed) = (
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
    );
    let mut values = traced.layer.clone();
    values.set(
        "trace.bench_overhead_frac",
        ratio(
            traced.pass.summary().solve_s_p50,
            plain.pass.summary().solve_s_p50,
        ) - 1.0,
    );
    values.set("trace.closure_resid_frac", closure);
    values.set("host.steal_frac", host.steal_frac());
    values.set("host.foreign_cpu_frac", host.foreign_frac());
    values.set("host.disturbed_blocks", traced.pass.disturbed() as f64);
    values.set(
        "host.time_sensitivity",
        traced.pass.summary().time_sensitivity,
    );
    values.set("bench.fail_frac", ratio(failed as f64, attempted as f64));
    values.set("bench.timed_ops", traced.pass.ops() as f64);
    values.set("bench.timed_s", host.wall_s);

    let mut text = format!(
        "[{name}] traced pass: {} spans over {} ops -> {}\n",
        rec.spans().len(),
        traced.pass.ops(),
        path.display()
    );
    for note in &traced.notes {
        text.push_str(&format!("  {note}\n"));
    }
    text.push_str(&rec.render_self_times());
    text.push_str(&format!(
        "  unaccounted share of bench.op: {:.3} % (limit {} %)\n",
        100.0 * closure,
        100.0 * CLOSURE_LIMIT
    ));

    // A trace that does not validate, cannot be written or does not add
    // up makes the per-layer numbers untrustworthy: count it as a failure.
    let mut trace_failures = 0;
    if let Err(e) = trace_valid {
        text.push_str(&format!("  TRACE INVALID: {e}\n"));
        trace_failures += 1;
    }
    if let Err(e) = written {
        text.push_str(&format!("  TRACE NOT WRITTEN: {e}\n"));
        trace_failures += 1;
    }
    if closure > CLOSURE_LIMIT {
        text.push_str("  TRACE DOES NOT CLOSE\n");
        trace_failures += 1;
    }
    Report {
        values,
        attempted,
        failed: failed + trace_failures,
        text,
    }
}

/// The driver's mode: one workload, one pass, one result line.
fn run_contract(workload: usize, seed: u64, seconds: f64, traced: bool) -> ExitCode {
    println!("{}", host::describe());
    let size = Size::seconds(seconds);
    let (defs, report): (&[MetricDef], Report) = if traced {
        // Probes last: the workload's memory readings start from a clean
        // heap.
        let mut report = measure_traced(workload, seed, size);
        report.values.extend(&probes::run(probes::Reps::full()));
        report
            .text
            .push_str(&render_table(&PER_LAYER, &report.values, true));
        (&PER_LAYER, report)
    } else {
        (&END_TO_END, measure_untraced(workload, seed, size))
    };
    print!("{}", report.text);
    println!(
        "{}",
        result_line(defs, &report.values, report.attempted, report.failed)
    );
    ExitCode::SUCCESS
}

/// Every workload, untraced then traced, with a closing summary object.
/// Returns the failures seen.
fn run_all(seed: u64, size: Size, reps: probes::Reps) -> u64 {
    println!("{}", host::describe());
    let mut failures = 0;
    let mut reports = Vec::new();
    for i in 0..WORKLOADS.len() {
        let e2e = measure_untraced(i, seed, size);
        print!("{}", e2e.text);
        let layers = measure_traced(i, seed, size);
        print!("{}", layers.text);
        print!("{}", render_table(&PER_LAYER, &layers.values, false));
        // One operation under a stolen CPU says nothing about a ratio.
        if let Some(broken) = indiscriminate(i, &layers.values).filter(|_| !size.tiny) {
            println!("  {broken}");
            failures += 1;
        }
        reports.push((e2e, layers));
    }
    let probe_values = probes::run(reps);
    println!("[probes] one short measurement per layer, the same for every workload");
    print!("{}", render_table(&PER_LAYER, &probe_values, false));

    let mut sections = Vec::new();
    for (def, (e2e, mut layers)) in WORKLOADS.iter().zip(reports) {
        layers.values.extend(&probe_values);
        failures += e2e.failed + layers.failed;
        failures += schema_violations(&END_TO_END, &e2e, true);
        failures += schema_violations(&PER_LAYER, &layers, false);
        sections.push(format!(
            r#""{}": {{"attempted": {}, "failed": {}, "end_to_end": {}, "per_layer": {}}}"#,
            def.name,
            e2e.attempted + layers.attempted,
            e2e.failed + layers.failed,
            metrics_json(&END_TO_END, &e2e.values),
            metrics_json(&PER_LAYER, &layers.values)
        ));
    }
    println!(
        r#"{{"seed": {seed}, "workloads": {{{}}}, "failures": {failures}, "claim": null}}"#,
        sections.join(", ")
    );
    failures
}

/// What makes each workload worth having: the layer it is meant to
/// stress really dominates it. Returns the first broken expectation.
fn indiscriminate(workload: usize, layers: &Values) -> Option<String> {
    let get = |name: &str| layers.get(name).unwrap_or(0.0);
    let classes = [
        "serve.dense_small_s_p50",
        "serve.dense_medium_s_p50",
        "serve.rect_s_p50",
        "serve.spgemm_s_p50",
        "serve.sddmm_s_p50",
    ];
    let (ok, what) = match WORKLOADS[workload].name {
        // Four ranks taking turns on one CPU wait for it about half the
        // time, and waiting for a rank that waits for the CPU is "comm".
        "gemm-compute" => (
            get("runtime.comm_frac") <= 0.55,
            "runtime.comm_frac <= 0.55",
        ),
        "gemm-comm" => (
            get("runtime.comm_frac") >= 0.75,
            "runtime.comm_frac >= 0.75",
        ),
        "serve-mix" => (
            get("serve.gang_job_frac") >= 0.2 && classes.iter().all(|c| get(c) > 0.0),
            "serve.gang_job_frac >= 0.2 and all five job classes complete",
        ),
        _ => (
            get("netsim.best_over_g1_comm") > 0.0 && get("netsim.best_over_g1_comm") <= 0.6,
            "best-G comm time <= 0.6 x the G = 1 comm time",
        ),
    };
    (!ok).then(|| format!("{} does not discriminate: {what}", WORKLOADS[workload].name))
}

/// Checks a report against the result-line schema: well-formed JSON,
/// finite values, and (end to end) no metric reading 0.
fn schema_violations(defs: &[MetricDef], report: &Report, nonzero: bool) -> u64 {
    let line = result_line(defs, &report.values, report.attempted, report.failed);
    let mut bad = u64::from(hsumma_trace::validate_json(&line).is_err());
    bad += u64::from(report.attempted == 0);
    for d in defs {
        let v = report.values.get(d.name).unwrap_or(0.0);
        if !v.is_finite() || (nonzero && v == 0.0) {
            println!("  SCHEMA: {} = {v}", d.name);
            bad += 1;
        }
    }
    bad
}

/// Two measurements of every workload, alternating which is labelled A
/// (A-B-B-A across workloads); any gap beyond its metric's bound fails.
fn run_aa(seed: u64, size: Size) -> u64 {
    println!("{}", host::describe());
    let mut violations = 0;
    for (i, def) in WORKLOADS.iter().enumerate() {
        let first = measure_untraced(i, seed, size);
        let second = measure_untraced(i, seed, size);
        let (a, b) = if i % 2 == 0 {
            (first, second)
        } else {
            (second, first)
        };
        violations += a.failed + b.failed;
        println!("[{}] A/A", def.name);
        for m in &END_TO_END {
            let (va, vb) = (
                a.values.get(m.name).unwrap_or(0.0),
                b.values.get(m.name).unwrap_or(0.0),
            );
            let gap = ratio((va - vb).abs(), va.min(vb));
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let exact = bound == metrics::EXACT_BOUND;
            let bad = if exact { va != vb } else { gap > bound };
            violations += u64::from(bad);
            println!(
                "  {:<14} A {:>22} B {:>22} gap {:>8.3} % bound {:>6.2} % {}",
                m.name,
                metrics::format_value(va),
                metrics::format_value(vb),
                100.0 * gap,
                100.0 * bound,
                if bad { "EXCEEDED" } else { "ok" }
            );
        }
    }
    println!(r#"{{"aa_violations": {violations}, "claim": null}}"#);
    violations
}

/// The command line, checked where it enters.
struct Args {
    workload: Option<usize>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    aa: bool,
    smoke: bool,
    print_json: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        aa: false,
        smoke: false,
        print_json: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let idx = WORKLOADS.iter().position(|w| w.name == name.as_str());
                out.workload = Some(idx.ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--aa" => out.aa = true,
            "--smoke" => out.smoke = true,
            "--print-benchmark-json" => out.print_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hsumma-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_json {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    // Before any thread is spawned, so that every rank thread inherits it.
    if host::pin_to_one_cpu().is_none() {
        eprintln!("hsumma-benchmark: could not pin to one CPU; times will be noisier");
    }
    if let Some(workload) = args.workload {
        let seconds = args.seconds.unwrap_or(f64::from(metrics::RUN_SECONDS));
        return run_contract(workload, args.seed, seconds, args.traced);
    }
    // A stand-alone run measures for the issue's 30 s per workload.
    let size = Size::seconds(args.seconds.unwrap_or(30.0));
    let failures = if args.smoke {
        run_all(args.seed, Size::smoke(), probes::Reps::quick())
    } else if args.aa {
        run_aa(args.seed, size)
    } else {
        run_all(args.seed, size, probes::Reps::full())
    };
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Result<Args, String> {
        parse_args(&s.iter().map(|x| x.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "serve-mix",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(2));
        assert_eq!((a.seed, a.seconds, a.traced), (7, Some(20.0), true));
    }

    #[test]
    fn bad_input_is_refused_with_a_reason() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seconds", "abc"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }

    #[test]
    fn splitmix_is_reproducible_and_shuffles_are_permutations() {
        let mut a = SplitMix::new(42);
        let mut b = SplitMix::new(42);
        assert_eq!(a.next(), b.next());
        assert!((0.0..1.0).contains(&a.unit()));
        assert!(a.below(3) < 3);
        let mut v: Vec<usize> = (0..20).collect();
        a.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }
}
