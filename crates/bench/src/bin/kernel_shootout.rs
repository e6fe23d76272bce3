//! Local-GEMM kernel shootout: Naive vs Blocked vs Parallel vs Packed,
//! with `Packed`'s two paths timed against each other and placed against
//! the core's arithmetic peak.
//!
//! Times every [`GemmKernel`] on `C += A·B` at the square sizes
//! `n ∈ {64, 128, 256, 512, 1024}`, at the two rank-local shapes the
//! repository benchmark probes (512×128×512, the update of `gemm-compute`,
//! and 64×8×64, that of `gemm-comm`), and at the thin products either side
//! of the in-place cut (64×32×64, 128×8×128, 512×8×512), and reports
//! GFLOP/s (2·m·k·n flops per multiply). `Packed` is timed down both of
//! its paths at every shape — packing ([`gemm_packed`]) and in place
//! ([`gemm_view`]) — and its own column is the path [`in_place_pays`]
//! picks. The roofline column is that over ONE core's peak,
//! timed in the same run: independent multiply-add chains in registers, no
//! memory traffic, at the widest vector this build targets (see
//! [`peak_gflops`]). Pin the run to one CPU (`taskset -c 1`, as the
//! repository benchmark pins itself) to read it as a roofline, which is
//! how `BENCH_gemm.json` is recorded: unpinned on several CPUs the large
//! shapes fan out over `MC` row blocks and can pass 1, while the small
//! ones stay on the calling thread either way.
//! Results go to stdout as a table and to `BENCH_gemm.json` in the current
//! directory, with the host context a reader needs to compare two files
//! (CPUs, target features, git revision); the JSON also carries the
//! headline ratio the repo tracks — Packed over Blocked at `n = 512`,
//! which must stay ≥ 3× (see `DESIGN.md`, "Local kernel hierarchy").
//!
//! `--smoke` times nothing and writes nothing: it multiplies every shape
//! down both paths and exits nonzero if the two products differ in any
//! bit.
//!
//! Timing discipline: one untimed warm-up per (kernel, shape), then the
//! minimum of at least `REPS` timed runs, and as many as fit in
//! [`CELL_SECS`] — minimum, not mean, because on a shared box the noise is
//! one-sided (interruptions only ever slow a run down), and a quarter of
//! a second because its spells outlast five runs of a small shape.
//! A timed run repeats the multiply until it has done [`RUN_FLOPS`], so
//! the 1.6 µs small shape is not timed one clock read at a time. `Naive`
//! is skipped above 512³ flop pairs to keep the shootout quick; `null`
//! marks the skip in the JSON.

use hsumma_bench::render_table;
use hsumma_matrix::gemm::{gemm_packed, in_place_pays};
use hsumma_matrix::{gemm, gemm_view, seeded_uniform, GemmKernel, Matrix};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Fewest timed repetitions per (kernel, shape); best-of is reported.
const REPS: usize = 5;

/// Time a cell keeps taking repetitions for, once it has `REPS`.
const CELL_SECS: f64 = 0.25;

/// Least arithmetic in one timed run; smaller shapes repeat to reach it.
const RUN_FLOPS: f64 = 4e7;

/// `(m, k, n)` exercised by the shootout: the squares, the two rank-local
/// shapes of the repository benchmark, then thin products either side of
/// the in-place cut.
const SHAPES: [(usize, usize, usize); 10] = [
    (64, 64, 64),
    (128, 128, 128),
    (256, 256, 256),
    (512, 512, 512),
    (1024, 1024, 1024),
    (512, 128, 512),
    (64, 8, 64),
    (64, 32, 64),
    (128, 8, 128),
    (512, 8, 512),
];

/// Past this many flop pairs the naive kernel is skipped (it would
/// dominate the shootout's wall time without adding information).
const NAIVE_CUTOFF: usize = 512 * 512 * 512;

/// The kernels timed through [`gemm()`]; `Packed` is timed path by path.
const KERNELS: [(&str, GemmKernel); 3] = [
    ("naive", GemmKernel::Naive),
    ("blocked", GemmKernel::Blocked),
    ("parallel", GemmKernel::Parallel),
];

/// One way to compute `c += a·b`.
type Multiply = fn(&Matrix, &Matrix, &mut Matrix);

/// `Packed`'s two paths: `c += a·b` packing, and in place.
const PATHS: [(&str, Multiply); 2] = [
    ("packed_path", |a, b, c| gemm_packed(1.0, a, b, c)),
    ("in_place", |a, b, c| gemm_view(&a.view(), &b.view(), c)),
];

/// Shortest of at least `REPS` timings of `run`, taken for `CELL_SECS`.
fn best_secs(mut run: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    let cell = Instant::now();
    let mut runs = 0;
    while runs < REPS || cell.elapsed().as_secs_f64() < CELL_SECS {
        let t0 = Instant::now();
        run();
        best = best.min(t0.elapsed().as_secs_f64());
        runs += 1;
    }
    best
}

/// Best GFLOP/s of the `m×k · k×n` accumulate `multiply`.
fn gflops(
    multiply: impl Fn(&Matrix, &Matrix, &mut Matrix),
    (m, k, n): (usize, usize, usize),
) -> f64 {
    let a = seeded_uniform(m, k, 1);
    let b = seeded_uniform(k, n, 2);
    let mut c = Matrix::zeros(m, n);
    multiply(&a, &b, &mut c);
    let flops = 2.0 * (m * k * n) as f64;
    let calls = (RUN_FLOPS / flops).ceil() as usize;
    let best = best_secs(|| {
        for _ in 0..calls {
            multiply(black_box(&a), black_box(&b), black_box(&mut c));
        }
    });
    flops * calls as f64 / best / 1e9
}

/// Multiplies every shape down both of `Packed`'s paths, into a `C` that
/// does not start at zero, and counts the shapes whose products differ in
/// any bit.
fn smoke() -> usize {
    let mut differ = 0;
    for &(m, k, n) in &SHAPES {
        let a = seeded_uniform(m, k, 1);
        let b = seeded_uniform(k, n, 2);
        let products: Vec<Vec<u64>> = PATHS
            .iter()
            .map(|&(_, multiply)| {
                let mut c = seeded_uniform(m, n, 3);
                multiply(&a, &b, &mut c);
                c.as_slice().iter().map(|x| x.to_bits()).collect()
            })
            .collect();
        let same = products[0] == products[1];
        println!(
            "{m}x{k}x{n}: packed and in-place products {}",
            if same { "bit-identical" } else { "DIFFER" }
        );
        differ += usize::from(!same);
    }
    differ
}

/// Multiply-add steps per chain in one timed run of the peak loop.
const PEAK_STEPS: usize = 2_000_000;

/// Best GFLOP/s of sixteen independent 512-bit FMA chains: the
/// instruction the AVX-512 microkernel issues, with nothing to load.
#[cfg(target_feature = "avx512f")]
fn peak_gflops() -> f64 {
    use std::arch::x86_64::{_mm512_fmadd_pd, _mm512_reduce_add_pd, _mm512_set1_pd};
    let best = best_secs(|| {
        // SAFETY: register-only intrinsics; `avx512f` is enabled for the
        // whole compilation (this function only exists under that `cfg`).
        let sum = unsafe {
            let x = _mm512_set1_pd(black_box(1.0 - 1e-9));
            let y = _mm512_set1_pd(black_box(1e-9));
            let mut acc = [_mm512_set1_pd(1.0); 16];
            for _ in 0..PEAK_STEPS {
                for a in &mut acc {
                    *a = _mm512_fmadd_pd(*a, x, y);
                }
            }
            acc.iter().map(|&a| _mm512_reduce_add_pd(a)).sum::<f64>()
        };
        black_box(sum);
    });
    (PEAK_STEPS * 16 * 8 * 2) as f64 / best / 1e9
}

/// Best GFLOP/s of eight independent 8-lane multiply-then-add chains,
/// which LLVM vectorizes as it does the portable microkernel: separate
/// multiplies and adds at the target's preferred width.
#[cfg(not(target_feature = "avx512f"))]
fn peak_gflops() -> f64 {
    let best = best_secs(|| {
        let (x, y) = (black_box(1.0 - 1e-9), black_box(1e-9));
        let mut acc = [[1.0f64; 8]; 8];
        for _ in 0..PEAK_STEPS {
            for chain in &mut acc {
                for a in chain {
                    *a = *a * x + y;
                }
            }
        }
        black_box(acc);
    });
    (PEAK_STEPS * 8 * 8 * 2) as f64 / best / 1e9
}

/// The vector features this build was compiled for, widest first.
fn target_features() -> Vec<&'static str> {
    [
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("sse2", cfg!(target_feature = "sse2")),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect()
}

/// `git describe --always --dirty` of the working directory, or `unknown`.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn main() {
    if std::env::args().skip(1).any(|arg| arg == "--smoke") {
        let differ = smoke();
        if differ > 0 {
            eprintln!("{differ} shape(s) multiply to different bits in place and packed");
            std::process::exit(1);
        }
        return;
    }
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let features = target_features();
    println!(
        "Local GEMM kernel shootout (best of >= {REPS} runs per cell, {host_cpus} host cpus, \
         target features: {})\n",
        features.join(" ")
    );
    let peak = peak_gflops();
    println!("arithmetic peak of one core, timed now: {peak:.1} GFLOP/s\n");

    // One row per shape: each kernel's GF/s (None where skipped), then
    // Packed's two paths.
    struct Row {
        kernels: Vec<Option<f64>>,
        packed_path: f64,
        in_place: f64,
        takes_in_place: bool,
    }
    impl Row {
        /// What `GemmKernel::Packed` runs: the path the shape selects.
        fn packed(&self) -> f64 {
            if self.takes_in_place {
                self.in_place
            } else {
                self.packed_path
            }
        }
    }
    let mut results = Vec::new();
    let mut table = Vec::new();
    for &(m, k, n) in &SHAPES {
        let mut cells = vec![format!("{m}x{k}x{n}")];
        let mut kernels = Vec::new();
        for &(name, kernel) in &KERNELS {
            if kernel == GemmKernel::Naive && m * k * n > NAIVE_CUTOFF {
                cells.push("-".to_string());
                kernels.push(None);
                continue;
            }
            let rate = gflops(|a, b, c| gemm(kernel, a, b, c), (m, k, n));
            cells.push(format!("{rate:.2}"));
            kernels.push(Some(rate));
            eprintln!("  measured {m}x{k}x{n} {name}: {rate:.2} GFLOP/s");
        }
        let [packed_path, in_place] = PATHS.map(|(name, multiply)| {
            let rate = gflops(multiply, (m, k, n));
            eprintln!("  measured {m}x{k}x{n} {name}: {rate:.2} GFLOP/s");
            rate
        });
        let row = Row {
            kernels,
            packed_path,
            in_place,
            takes_in_place: in_place_pays(m, k, n),
        };
        cells.extend([
            format!("{packed_path:.2}"),
            format!("{in_place:.2}"),
            format!("{:.2}", in_place / packed_path),
            (if row.takes_in_place {
                "in place"
            } else {
                "packed"
            })
            .to_string(),
            format!("{:.2}", row.packed() / peak),
        ]);
        table.push(cells);
        results.push(row);
    }

    println!(
        "{}",
        render_table(
            &[
                "m x k x n",
                "naive GF/s",
                "blocked GF/s",
                "parallel GF/s",
                "packed path GF/s",
                "in place GF/s",
                "in place / packed",
                "Packed runs",
                "Packed / core peak"
            ],
            &table
        )
    );

    let i512 = SHAPES
        .iter()
        .position(|&s| s == (512, 512, 512))
        .expect("512 is a shootout size");
    let blocked_512 = results[i512].kernels[1].expect("blocked runs at 512");
    let speedup = results[i512].packed() / blocked_512;
    println!("packed vs blocked at n=512: {speedup:.2}x (target: >= 3x)");

    let mut json = String::from("{\n  \"flops_per_cell\": \"2*m*k*n\",\n");
    let _ = write!(
        json,
        "  \"reps\": {REPS},\n  \"unit\": \"GFLOP/s\",\n  \"host_cpus\": {host_cpus},\n  \
         \"target_features\": [{}],\n  \"git\": \"{}\",\n  \"peak_gflops_per_core\": {peak:.3},\n  \
         \"results\": [\n",
        features
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect::<Vec<_>>()
            .join(", "),
        git_revision()
    );
    for (si, (&(m, k, n), row)) in SHAPES.iter().zip(&results).enumerate() {
        let _ = write!(json, "    {{\"m\": {m}, \"k\": {k}, \"n\": {n}");
        for (&(name, _), rate) in KERNELS.iter().zip(&row.kernels) {
            match rate {
                Some(rate) => {
                    let _ = write!(json, ", \"{name}\": {rate:.3}");
                }
                None => {
                    let _ = write!(json, ", \"{name}\": null");
                }
            }
        }
        let _ = write!(
            json,
            ", \"packed\": {:.3}, \"packed_path\": {:.3}, \"in_place\": {:.3}, \
             \"in_place_over_packed_path\": {:.3}, \"packed_runs_in_place\": {}, \
             \"packed_over_peak\": {:.3}",
            row.packed(),
            row.packed_path,
            row.in_place,
            row.in_place / row.packed_path,
            row.takes_in_place,
            row.packed() / peak
        );
        json.push_str(if si + 1 < SHAPES.len() { "},\n" } else { "}\n" });
    }
    let _ = write!(
        json,
        "  ],\n  \"packed_over_blocked_n512\": {speedup:.3},\n  \
         \"meets_3x_target\": {}\n}}\n",
        speedup >= 3.0
    );
    std::fs::write("BENCH_gemm.json", &json).expect("write BENCH_gemm.json");
    println!("wrote BENCH_gemm.json");
}
