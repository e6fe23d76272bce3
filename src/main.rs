//! `hsumma` — command-line front end of the reproduction.
//!
//! ```text
//! hsumma run     --n 512 --grid 4x4 --groups 2x2 --block 32
//! hsumma sweep   --machine bluegene --profile measured --p 2048 --n 65536 --block 256
//! hsumma predict --alpha 5e-7 --beta 1e-11 --n 4194304 --p 1048576 --block 256
//! hsumma bcast   --p 16 --bytes 1048576
//! ```
//!
//! `run` executes HSUMMA with real data on rank threads and verifies the
//! product; `sweep` simulates a group-count sweep on a platform profile;
//! `predict` evaluates the paper's analytic model for arbitrary machine
//! parameters; `bcast` compares the broadcast algorithms' simulated cost.

use hsumma_repro::core::testutil::reference_product;
use hsumma_repro::core::tuning::{best_by_comm, power_of_two_gs, sweep_groups};
use hsumma_repro::core::{hsumma, simulate, simulate_on, Distribution, HsummaConfig, Schedule};
use hsumma_repro::matrix::{seeded_uniform, GridShape};
use hsumma_repro::model::predict::{best_point, sweep_groups as model_sweep};
use hsumma_repro::model::{classify_regime, BcastModel, ModelParams, Regime};
use hsumma_repro::netsim::{Hockney, Platform, SimBcast, SimNet};
use hsumma_repro::runtime::Runtime;
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_flags(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "run" => cmd_run(&opts),
        "sweep" => cmd_sweep(&opts),
        "predict" => cmd_predict(&opts),
        "bcast" => cmd_bcast(&opts),
        "trace" => cmd_trace(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  hsumma run     [--n 512] [--grid 4x4] [--groups 2x2] [--block 32]
                 execute HSUMMA on rank threads, verify against serial
  hsumma sweep   [--machine grid5000|bluegene|exascale] [--profile ideal|measured]
                 [--p 2048] [--n 65536] [--block 256]
                 simulate the group-count sweep on a platform
  hsumma predict [--alpha S] [--beta S_PER_BYTE] [--gamma S] [--n N] [--p P] [--block B]
                 evaluate the analytic model (defaults: exascale roadmap)
  hsumma bcast   [--p 16] [--bytes 1048576]
                 compare simulated broadcast algorithm costs
  hsumma trace   [--p 16] [--n 256] [--block 32] [--groups 4] [--out trace.json]
                 dump a Chrome-tracing timeline of a simulated HSUMMA run";

/// Parses `--key value` pairs.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let key = key
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got `{key}`"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), value.clone());
    }
    Ok(map)
}

fn get<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: cannot parse `{v}`")),
    }
}

/// Parses `4x4`-style grid shapes.
fn parse_shape(s: &str) -> Result<GridShape, String> {
    let (a, b) = s
        .split_once('x')
        .ok_or_else(|| format!("expected RxC, got `{s}`"))?;
    let rows = a.parse().map_err(|_| format!("bad rows in `{s}`"))?;
    let cols = b.parse().map_err(|_| format!("bad cols in `{s}`"))?;
    Ok(GridShape::new(rows, cols))
}

fn cmd_run(opts: &HashMap<String, String>) -> Result<(), String> {
    let n: usize = get(opts, "n", 512)?;
    let grid = parse_shape(&get(opts, "grid", "4x4".to_string())?)?;
    let groups = parse_shape(&get(opts, "groups", "2x2".to_string())?)?;
    let block: usize = get(opts, "block", 32)?;

    let cfg = HsummaConfig::uniform(groups, block);
    // Refuse a bad shape here: past this point it is a panic on every
    // rank thread.
    cfg.validate(grid, n)?;
    let a = seeded_uniform(n, n, 1);
    let b = seeded_uniform(n, n, 2);
    let dist = Distribution::grid2d(grid, n, n);
    let at = dist.scatter(&a);
    let bt = dist.scatter(&b);

    let t0 = std::time::Instant::now();
    let out = Runtime::run(grid.size(), |comm| {
        let c = hsumma(
            comm,
            grid,
            n,
            &at[comm.rank()].clone(),
            &bt[comm.rank()].clone(),
            &cfg,
        )
        .unwrap();
        (c, comm.stats())
    });
    let wall = t0.elapsed().as_secs_f64();

    let tiles: Vec<_> = out.iter().map(|(c, _)| c.clone()).collect();
    let c = dist.gather(&tiles);
    let err = c.max_abs_diff(&reference_product(&a, &b));
    let comm_max = out.iter().map(|(_, s)| s.comm_seconds).fold(0.0, f64::max);
    let comp_max = out.iter().map(|(_, s)| s.comp_seconds).fold(0.0, f64::max);
    let msgs: u64 = out.iter().map(|(_, s)| s.msgs_sent).sum();

    println!(
        "HSUMMA n={n} grid {}x{} groups {}x{} block {block}",
        grid.rows, grid.cols, groups.rows, groups.cols
    );
    println!("wall time          {wall:.4} s");
    println!("max rank comm      {comm_max:.4} s");
    println!("max rank compute   {comp_max:.4} s");
    println!("messages           {msgs}");
    println!("max |C - A*B|      {err:.3e}");
    if err < 1e-9 {
        println!("verification       OK");
        Ok(())
    } else {
        Err("verification FAILED".to_string())
    }
}

fn cmd_sweep(opts: &HashMap<String, String>) -> Result<(), String> {
    let machine = get(opts, "machine", "bluegene".to_string())?;
    let profile = get(opts, "profile", "measured".to_string())?;
    let p: usize = get(opts, "p", 2048)?;
    let n: usize = get(opts, "n", 65536)?;
    let block: usize = get(opts, "block", 256)?;

    let platform = match (machine.as_str(), profile.as_str()) {
        ("grid5000", "ideal") => Platform::grid5000(),
        ("grid5000", "measured") => Platform::grid5000_effective(),
        ("bluegene", "ideal") => Platform::bluegene_p(),
        ("bluegene", "measured") => Platform::bluegene_p_effective(),
        ("exascale", _) => Platform::exascale(),
        _ => return Err(format!("unknown machine/profile `{machine}`/`{profile}`")),
    };
    let bcast = if profile == "ideal" {
        SimBcast::ScatterAllgather
    } else {
        SimBcast::Flat
    };
    let mut s = (p as f64).sqrt() as usize;
    while s > 1 && !p.is_multiple_of(s) {
        s -= 1;
    }
    let grid = GridShape::new(s, p / s);

    println!(
        "sweep on {} (p={p}, grid {}x{}, n={n}, b=B={block})",
        platform.name,
        s,
        p / s
    );
    let sim = |sched| simulate(&sched, &platform, true);
    let summa = sim(Schedule::summa(grid, n, block, bcast));
    println!(
        "SUMMA: total {:.4} s, comm {:.4} s",
        summa.total_time, summa.comm_time
    );
    let sweep = sweep_groups(grid, &power_of_two_gs(p), |groups| {
        sim(Schedule::hsumma(
            grid, groups, n, block, block, bcast, bcast,
        ))
    });
    println!(
        "{:>7} {:>9} {:>12} {:>12}",
        "G", "IxJ", "total (s)", "comm (s)"
    );
    for pt in &sweep {
        println!(
            "{:>7} {:>4}x{:<4} {:>12.4} {:>12.4}",
            pt.g, pt.groups.rows, pt.groups.cols, pt.report.total_time, pt.report.comm_time
        );
    }
    let best = best_by_comm(&sweep);
    println!(
        "best: G={} -> comm {:.4} s ({:.2}x less than SUMMA)",
        best.g,
        best.report.comm_time,
        summa.comm_time / best.report.comm_time
    );
    Ok(())
}

fn cmd_predict(opts: &HashMap<String, String>) -> Result<(), String> {
    let defaults = ModelParams::exascale();
    let params = ModelParams {
        alpha: get(opts, "alpha", defaults.alpha)?,
        beta: get(opts, "beta", defaults.beta)?,
        gamma: get(opts, "gamma", defaults.gamma)?,
    };
    let n: f64 = get(opts, "n", (1u64 << 22) as f64)?;
    let p: f64 = get(opts, "p", (1u64 << 20) as f64)?;
    let b: f64 = get(opts, "block", 256.0)?;

    match classify_regime(params.alpha, params.beta, n, p, b) {
        Regime::InteriorMinimum => {
            println!("regime: latency-dominated (alpha/beta > 2nb/p) -> optimum near G=sqrt(p)")
        }
        Regime::InteriorMaximum => {
            println!("regime: bandwidth-dominated -> use G=1 or G=p (ties SUMMA)")
        }
        Regime::Degenerate => println!("regime: boundary — G does not matter"),
    }
    let gs: Vec<f64> = {
        let mut v = Vec::new();
        let mut g = 1.0;
        while g <= p {
            v.push(g);
            g *= 4.0;
        }
        v.push(p);
        v
    };
    let sweep = model_sweep(&params, BcastModel::VanDeGeijn, n, p, b, &gs);
    println!(
        "{:>12} {:>14} {:>14}",
        "G", "HSUMMA comm(s)", "SUMMA comm(s)"
    );
    for pt in &sweep {
        println!(
            "{:>12} {:>14.4} {:>14.4}",
            pt.g,
            pt.hsumma.comm(),
            pt.summa.comm()
        );
    }
    let best = best_point(&sweep);
    println!(
        "best: G={} -> {:.4} s ({:.2}x less than SUMMA)",
        best.g,
        best.hsumma.comm(),
        best.summa.comm() / best.hsumma.comm()
    );
    Ok(())
}

fn cmd_bcast(opts: &HashMap<String, String>) -> Result<(), String> {
    use hsumma_repro::core::{replay_on, Communicator, PhantomMat};
    use hsumma_repro::netsim::record;

    let p: usize = get(opts, "p", 16)?;
    if p == 0 {
        return Err("--p must be at least 1: a broadcast needs a root".into());
    }
    let bytes: u64 = get(opts, "bytes", 1_048_576)?;
    // Payloads travel as whole f64 elements on every substrate.
    let elems = (bytes / 8).max(1) as usize;
    let net_params = Hockney::new(get(opts, "alpha", 1e-5)?, get(opts, "beta", 1e-9)?);
    println!(
        "broadcast of {} B over {p} ranks (alpha={:.1e}, beta={:.1e}):",
        elems as u64 * 8,
        net_params.alpha,
        net_params.beta
    );
    for (name, algo) in [
        ("flat", SimBcast::Flat),
        ("binomial", SimBcast::Binomial),
        ("binary", SimBcast::Binary),
        ("ring", SimBcast::Ring),
        ("pipelined(16)", SimBcast::Pipelined { segments: 16 }),
        ("van de Geijn", SimBcast::ScatterAllgather),
    ] {
        // Recorded once in rank order and replayed on one thread: no
        // rank gets an OS thread, whatever `--p` is.
        let prog = record(p, false, move |comm| {
            let mut m = PhantomMat {
                rows: 1,
                cols: elems,
            };
            comm.bcast_mat(algo, 0, &mut m)
        });
        let report = replay_on(&mut SimNet::new(p, net_params), 0.0, &prog);
        println!("{name:>14}: {:.6} s", report.total_time);
    }
    Ok(())
}

fn cmd_trace(opts: &HashMap<String, String>) -> Result<(), String> {
    let p: usize = get(opts, "p", 16)?;
    let n: usize = get(opts, "n", 256)?;
    let block: usize = get(opts, "block", 32)?;
    let g: usize = get(opts, "groups", 4)?;
    let out = get(opts, "out", "trace.json".to_string())?;

    let mut s = (p as f64).sqrt() as usize;
    while s > 1 && !p.is_multiple_of(s) {
        s -= 1;
    }
    let grid = GridShape::new(s, p / s);
    let groups = hsumma_repro::core::HierGrid::factor_groups(grid, g)
        .ok_or_else(|| format!("G={g} has no valid factorization on a {s}x{} grid", p / s))?;
    let platform = Platform::bluegene_p_effective();
    let mut net = SimNet::new(p, platform.net);
    net.enable_trace();
    let flat = SimBcast::Flat;
    let sched = Schedule::hsumma(grid, groups, n, block, block, flat, flat);
    let report = simulate_on(&sched, &mut net, platform.gamma, true);
    let json = net.trace_to_chrome_json().expect("tracing was enabled");
    std::fs::write(&out, &json).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "HSUMMA p={p} G={g} n={n}: {} messages, {:.4} s simulated; trace -> {out}",
        report.msgs, report.total_time
    );
    println!("open it at chrome://tracing or https://ui.perfetto.dev");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flags_collects_pairs() {
        let args: Vec<String> = ["--n", "64", "--grid", "2x2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let m = parse_flags(&args).expect("valid flags");
        assert_eq!(m["n"], "64");
        assert_eq!(m["grid"], "2x2");
    }

    #[test]
    fn parse_flags_rejects_missing_value() {
        let args = vec!["--n".to_string()];
        assert!(parse_flags(&args).is_err());
    }

    #[test]
    fn parse_flags_rejects_bare_words() {
        let args = vec!["n".to_string(), "64".to_string()];
        assert!(parse_flags(&args).is_err());
    }

    #[test]
    fn parse_shape_accepts_rxc() {
        assert_eq!(parse_shape("4x8").expect("valid"), GridShape::new(4, 8));
        assert!(parse_shape("4*8").is_err());
        assert!(parse_shape("x8").is_err());
    }

    #[test]
    fn get_falls_back_to_default() {
        let m = HashMap::new();
        assert_eq!(get(&m, "n", 7usize).expect("default"), 7);
    }

    #[test]
    fn run_command_verifies_small_case() {
        let mut opts = HashMap::new();
        opts.insert("n".to_string(), "16".to_string());
        opts.insert("grid".to_string(), "2x2".to_string());
        opts.insert("groups".to_string(), "2x2".to_string());
        opts.insert("block".to_string(), "2".to_string());
        cmd_run(&opts).expect("small run verifies");
    }

    #[test]
    fn run_command_verifies_shapes_nothing_divides() {
        // n = 30 on a 4x4 grid deals tiles of 8 and 7; blocks of 3 and 5
        // divide neither.
        for (n, block) in [("30", "3"), ("30", "5"), ("64", "5")] {
            let opts: HashMap<String, String> = [
                ("n", n),
                ("grid", "4x4"),
                ("groups", "2x2"),
                ("block", block),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
            cmd_run(&opts).expect("uneven run verifies");
        }
    }

    #[test]
    fn run_command_refuses_a_bad_shape_before_spawning_ranks() {
        // Each of these used to panic on every rank thread (exit 101).
        for (n, grid, groups, block, want) in [
            ("64", "2x2", "3x1", "8", "must divide the 2x2 grid"),
            ("30", "4x4", "3x2", "2", "must divide the 4x4 grid"),
            ("64", "2x2", "2x2", "0", "must be positive"),
            ("30", "4x4", "2x2", "0", "must be positive"),
        ] {
            let opts: HashMap<String, String> = [
                ("n", n),
                ("grid", grid),
                ("groups", groups),
                ("block", block),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
            let err = cmd_run(&opts).expect_err("bad shape must be refused");
            assert!(err.contains(want), "{opts:?}: got `{err}`");
        }
    }

    #[test]
    fn predict_command_accepts_defaults() {
        cmd_predict(&HashMap::new()).expect("defaults predict");
    }

    #[test]
    fn sweep_command_runs_small_case() {
        let mut opts = HashMap::new();
        opts.insert("machine".to_string(), "grid5000".to_string());
        opts.insert("profile".to_string(), "ideal".to_string());
        opts.insert("p".to_string(), "16".to_string());
        opts.insert("n".to_string(), "128".to_string());
        opts.insert("block".to_string(), "16".to_string());
        cmd_sweep(&opts).expect("small sweep runs");
    }

    #[test]
    fn sweep_command_rejects_unknown_machine() {
        let mut opts = HashMap::new();
        opts.insert("machine".to_string(), "cray".to_string());
        assert!(cmd_sweep(&opts).is_err());
    }

    #[test]
    fn trace_command_writes_chrome_json() {
        let dir = std::env::temp_dir().join("hsumma_trace_test.json");
        let mut opts = HashMap::new();
        opts.insert("p".to_string(), "4".to_string());
        opts.insert("n".to_string(), "32".to_string());
        opts.insert("block".to_string(), "8".to_string());
        opts.insert("groups".to_string(), "1".to_string());
        opts.insert("out".to_string(), dir.to_string_lossy().to_string());
        cmd_trace(&opts).expect("trace command runs");
        let body = std::fs::read_to_string(&dir).expect("file written");
        assert!(body.trim_start().starts_with('['));
        assert!(body.contains("\"ph\":\"X\""));
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn bcast_command_runs() {
        let mut opts = HashMap::new();
        opts.insert("p".to_string(), "8".to_string());
        cmd_bcast(&opts).expect("bcast comparison runs");
    }

    #[test]
    fn bcast_command_refuses_zero_ranks() {
        let opts = HashMap::from([("p".to_string(), "0".to_string())]);
        let err = cmd_bcast(&opts).expect_err("p = 0 must be refused");
        assert!(err.contains("at least 1"), "got `{err}`");
    }
}
