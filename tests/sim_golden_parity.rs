//! Golden-parity tests for the simulator refactor.
//!
//! These `SimReport` values were captured bit-for-bit from the
//! pre-refactor `simdrive` replay engine (the hand-written per-algorithm
//! schedules) on the paper's Grid5000 and BlueGene/P platform models.
//! The generic `Communicator`-driven simulator must reproduce them
//! exactly: same virtual times to the last ulp, same message and byte
//! counts. Any divergence means the single-source schedule no longer
//! matches what the paper-model validation in `simdrive` was built on.
//!
//! Configs are chosen so panel sizes divide evenly among every group the
//! schedule broadcasts over, keeping byte-chunked and element-chunked
//! segmentation identical.

use hsumma_core::simdrive::{simulate_on, threads_on, Schedule, SimEngine};
use hsumma_core::{SummaConfig, TwoDotFiveConfig};
use hsumma_matrix::GridShape;
use hsumma_netsim::{Platform, SimBcast, SimNet, SimReport};

/// (label, total_time bits, comm_time bits, comp_time bits, msgs, bytes)
type Golden = (&'static str, u64, u64, u64, u64, u64);

const GOLDENS: &[Golden] = &[
    (
        "summa-binomial-g5k",
        0x3f83f9e901e51c1e,
        0x3f83c2ef42316ca3,
        0x3f1b7cdfd9d7bdbc,
        1792,
        7340032,
    ),
    (
        "summa-sag-g5k",
        0x3fa073ce55795e66,
        0x3fa0660fe58c7286,
        0x3f1b7cdfd9d7bdbc,
        16128,
        8912896,
    ),
    (
        "summa-ring-g5k",
        0x3f784ed49a0dc237,
        0x3f77e0e11aa66341,
        0x3f1b7cdfd9d7bdbc,
        1792,
        7340032,
    ),
    (
        "summa-pipe4-g5k",
        0x3f8fcb5875bb5799,
        0x3f8f945eb607a81d,
        0x3f1b7cdfd9d7bdbc,
        7168,
        7340032,
    ),
    (
        "hsumma-binomial-g5k",
        0x3f80b30ca48193b3,
        0x3f807c12e4cde439,
        0x3f1b7cdfd9d7bdbc,
        1664,
        7340032,
    ),
    (
        "cannon-g5k",
        0x3f5f82dc7bb1f62e,
        0x3f5dcb0e7e147a55,
        0x3f1b7cdfd9d7bdba,
        1136,
        9306112,
    ),
    (
        "fox-g5k",
        0x3f6b5782198b9c71,
        0x3f6a7b9b1abcde83,
        0x3f1b7cdfd9d7bdba,
        960,
        7864320,
    ),
    (
        "summa-binomial-bgp",
        0x3f41eb745e9fe92f,
        0x3f361878d053f380,
        0x3f2b7cdfd9d7bdbc,
        1792,
        7340032,
    ),
    (
        "summa-sag-bgp",
        0x3f53a266753e9660,
        0x3f5032ca7a039e95,
        0x3f2b7cdfd9d7bdbc,
        16128,
        8912896,
    ),
    (
        "summa-ring-bgp",
        0x3f3b17e39573eca7,
        0x3f2ab2e751101b90,
        0x3f2b7cdfd9d7bdbc,
        1792,
        7340032,
    ),
    (
        "summa-pipe4-bgp",
        0x3f46a81c9b148e9c,
        0x3f3f91c9493d3e54,
        0x3f2b7cdfd9d7bdbc,
        7168,
        7340032,
    ),
    (
        "hsumma-binomial-bgp",
        0x3f4058cd278edae8,
        0x3f32f32a6231d6f1,
        0x3f2b7cdfd9d7bdbc,
        1664,
        7340032,
    ),
    (
        "cannon-bgp",
        0x3f327da4ff24fa0d,
        0x3f12fcd448e46cc9,
        0x3f2b7cdfd9d7bdba,
        1136,
        9306112,
    ),
    (
        "fox-bgp",
        0x3f362ece4634f2c0,
        0x3f20e0bcb29227cb,
        0x3f2b7cdfd9d7bdba,
        960,
        7864320,
    ),
    // Captured from the per-variant loops the pivot engine replaced.
    (
        "summa-pipelined-g5k",
        0x3f7e60427ee35c65,
        0x3f7df24eff7bfd71,
        0x3f1b7cdfd9d7bdbc,
        1792,
        7340032,
    ),
    (
        "summa-pipelined-bgp",
        0x3f3b82299fe86681,
        0x3f2b877365f90f44,
        0x3f2b7cdfd9d7bdbc,
        1792,
        7340032,
    ),
    (
        "hsumma-pipelined-g5k",
        0x3f72080946a23c30,
        0x3f719a15c73add3a,
        0x3f1b7cdfd9d7bdbc,
        1664,
        7340032,
    ),
    (
        "hsumma-pipelined-bgp",
        0x3f355ddb089700cf,
        0x3f1e7dac6eac87c3,
        0x3f2b7cdfd9d7bdbc,
        1664,
        7340032,
    ),
    (
        "twodotfive-g5k",
        0x3f6337893bfaee4c,
        0x3f625ba23d2c305f,
        0x3f1b7cdfd9d7bdbb,
        528,
        7864320,
    ),
    (
        "twodotfive-bgp",
        0x3f34c0eda0a0d7a1,
        0x3f1c09f6ced3e316,
        0x3f2b7cdfd9d7bdbb,
        528,
        7864320,
    ),
];

const GRID: GridShape = GridShape { rows: 8, cols: 8 };

fn summa(bcast: SimBcast) -> Schedule {
    Schedule::summa(GRID, 256, 16, bcast)
}

fn hsumma(groups: GridShape, outer_block: usize) -> Schedule {
    let bc = SimBcast::Binomial;
    Schedule::hsumma(GRID, groups, 256, outer_block, 16, bc, bc)
}

fn schedule(algo: &str) -> Schedule {
    let bcast = SimBcast::Binomial;
    match algo {
        "summa-binomial" => summa(SimBcast::Binomial),
        "summa-sag" => summa(SimBcast::ScatterAllgather),
        "summa-ring" => summa(SimBcast::Ring),
        "summa-pipe4" => summa(SimBcast::Pipelined { segments: 4 }),
        "hsumma-binomial" => hsumma(GridShape::new(2, 2), 32),
        "cannon" => Schedule::cannon(8, 256),
        "fox" => Schedule::Fox {
            q: 8,
            n: 256,
            bcast,
        },
        "summa-pipelined" => summa(SimBcast::Flat).pipelined(),
        "hsumma-pipelined" => hsumma(GridShape::new(2, 2), 32).pipelined(),
        "twodotfive" => Schedule::TwoDotFive {
            n: 256,
            cfg: TwoDotFiveConfig {
                q: 4,
                c: 4,
                summa: SummaConfig {
                    block: 16,
                    bcast,
                    ..Default::default()
                },
            },
        },
        other => panic!("unknown algorithm tag {other}"),
    }
}

fn run(label: &str) -> SimReport {
    let (algo, plat) = label.rsplit_once('-').unwrap();
    let plat = match plat {
        "g5k" => Platform::grid5000(),
        "bgp" => Platform::bluegene_p(),
        other => panic!("unknown platform tag {other}"),
    };
    price(SimEngine::Threads, &schedule(algo), &plat)
}

/// A free-running `sched` on a fresh `plat` network, priced by `engine`.
fn price(engine: SimEngine, sched: &Schedule, plat: &Platform) -> SimReport {
    let mut net = SimNet::new(sched.ranks(), plat.net);
    match engine {
        SimEngine::Threads => threads_on(&mut net, plat.gamma, sched, false),
        SimEngine::Replay => simulate_on(sched, &mut net, plat.gamma, false),
    }
}

#[test]
fn simulated_reports_match_pre_refactor_goldens_bit_for_bit() {
    for &(label, total, comm, comp, msgs, bytes) in GOLDENS {
        let r = run(label);
        assert_eq!(
            r.total_time.to_bits(),
            total,
            "{label}: total_time {:.17e} != golden {:.17e}",
            r.total_time,
            f64::from_bits(total)
        );
        assert_eq!(
            r.comm_time.to_bits(),
            comm,
            "{label}: comm_time {:.17e} != golden {:.17e}",
            r.comm_time,
            f64::from_bits(comm)
        );
        assert_eq!(
            r.comp_time.to_bits(),
            comp,
            "{label}: comp_time {:.17e} != golden {:.17e}",
            r.comp_time,
            f64::from_bits(comp)
        );
        assert_eq!(r.msgs, msgs, "{label}: message count drifted");
        assert_eq!(r.bytes, bytes, "{label}: byte volume drifted");
    }
}

#[test]
fn recorded_programs_keep_their_op_counts() {
    // Op-for-op the programs the per-variant loops recorded: a span, a
    // compute or a sync hook gained or lost anywhere shows up here. A
    // split records no op.
    for (algo, ops) in [
        ("summa-binomial", 6656),
        ("hsumma-binomial", 5376),
        ("summa-pipelined", 4608),
    ] {
        assert_eq!(schedule(algo).record(false).total_ops(), ops, "{algo}");
    }
}

#[test]
fn hsumma_is_summa_at_both_endpoints_to_the_bit() {
    // §III–IV's theorem as one assertion: G = 1 and G = p are SUMMA, and
    // (with rotating roots costing nothing on a tree broadcast) so is the
    // cyclic layout — on both platforms, under both engines.
    let bits = |r: SimReport| {
        let times = [r.total_time, r.comm_time, r.comp_time].map(f64::to_bits);
        (times, r.msgs, r.bytes)
    };
    let cfg = SummaConfig {
        block: 16,
        ..Default::default()
    };
    let family = [
        summa(SimBcast::Binomial),
        hsumma(GridShape::new(1, 1), 16),
        hsumma(GRID, 16),
        Schedule::Cyclic {
            grid: GRID,
            n: 256,
            cfg,
        },
    ];
    for plat in [Platform::grid5000(), Platform::bluegene_p()] {
        let want = bits(price(SimEngine::Threads, &family[0], &plat));
        for engine in [SimEngine::Threads, SimEngine::Replay] {
            for sched in &family {
                let got = bits(price(engine, sched, &plat));
                assert_eq!(got, want, "{sched:?} on {} under {engine:?}", plat.name);
            }
        }
    }
}
