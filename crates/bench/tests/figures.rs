//! The paper's tables, regenerated and held byte-for-byte against
//! `results/`.
//!
//! `results/README.md` has one row per entry of `FIGURES`. A row whose
//! "checked by" cell reads `test` is regenerated here on every run; the
//! others are too large for a test (the row says why) and are
//! regenerated by hand with `figures <name> > results/<name>.txt`.
//!
//! ```sh
//! cargo test --release -p hsumma-bench --test figures
//! ```

use hsumma_bench::figures::{render, FIGURES};
use std::path::PathBuf;

fn results_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"))
}

/// `(name, checked by this test)` for every figure row of
/// `results/README.md`: rows of the form
/// `` | `figures <name>` | what | test or by hand | cost | ``.
fn readme_rows() -> Vec<(String, bool)> {
    let path = results_dir().join("README.md");
    let readme =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    readme
        .lines()
        .filter_map(|line| {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            let name = cells.get(1)?.strip_prefix("`figures ")?.strip_suffix('`')?;
            Some((name.to_string(), *cells.get(3)? == "test"))
        })
        .collect()
}

#[test]
fn checked_tables_match_their_results_files() {
    let mut stale = Vec::new();
    for (name, checked) in readme_rows() {
        if !checked {
            continue;
        }
        let path = results_dir().join(format!("{name}.txt"));
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let got = render(&name).unwrap_or_else(|| panic!("no figure named `{name}`"));
        if got != want {
            let first = want
                .lines()
                .zip(got.lines())
                .enumerate()
                .find(|(_, (w, g))| w != g);
            stale.push(match first {
                Some((i, (w, g))) => {
                    format!(
                        "results/{name}.txt line {}:\n  file: {w}\n  now:  {g}",
                        i + 1
                    )
                }
                None => format!("results/{name}.txt: lengths differ"),
            });
        }
    }
    assert!(
        stale.is_empty(),
        "tables differ from results/ — regenerate with \
         `cargo run --release -p hsumma-bench --bin figures -- <name> > results/<name>.txt` \
         if the change is intended:\n{}",
        stale.join("\n")
    );
}

#[test]
fn every_figure_has_a_row_and_every_result_a_figure() {
    let rows = readme_rows();
    let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();

    for (name, _) in &rows {
        assert!(
            names.contains(&name.as_str()),
            "results/README.md lists `{name}`, which FIGURES does not have"
        );
    }
    for name in &names {
        assert_eq!(
            rows.iter().filter(|(row, _)| row == name).count(),
            1,
            "`{name}` needs exactly one row in results/README.md"
        );
    }
    for entry in std::fs::read_dir(results_dir()).expect("read results/") {
        let path = entry.expect("results/ entry").path();
        if path.extension().is_some_and(|ext| ext == "txt") {
            let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
            assert!(
                names.contains(&stem),
                "{} has no FIGURES entry to regenerate it",
                path.display()
            );
        }
    }
}
