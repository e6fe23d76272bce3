//! Prints the paper's tables and figures, and the experiments that
//! extend them, by name:
//!
//! ```sh
//! cargo run --release -p hsumma-bench --bin figures -- fig5 fig7
//! cargo run --release -p hsumma-bench --bin figures -- fig7 > results/fig7.txt
//! ```
//!
//! `results/README.md` lists every name, what it costs to regenerate, and
//! whether `tests/figures.rs` regenerates and diffs it on every test run.

use hsumma_bench::figures::{render, FIGURES};
use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    // Check every name before rendering any: some tables take minutes.
    let unknown: Vec<&String> = names
        .iter()
        .filter(|name| !FIGURES.iter().any(|(n, _)| n == name))
        .collect();
    if names.is_empty() || !unknown.is_empty() {
        if !unknown.is_empty() {
            eprintln!("unknown figure(s): {unknown:?}");
        }
        let all: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
        eprintln!("usage: figures <name>...\nnames: {}", all.join(" "));
        return ExitCode::from(2);
    }
    for name in &names {
        print!("{}", render(name).expect("name checked above"));
    }
    ExitCode::SUCCESS
}
