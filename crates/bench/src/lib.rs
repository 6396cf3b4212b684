//! Shared helpers for the figure-regeneration binaries and Criterion
//! benches that reproduce every table and figure of the Hermes paper.
//!
//! Each binary under `src/bin/` regenerates one experiment and prints the
//! same rows/series the paper reports (tokens/s, normalized speedups,
//! latency breakdowns). Absolute numbers come from the analytic substrate
//! models of this repository rather than the authors' testbed; the *shape*
//! of each result (who wins, by roughly what factor, where crossovers fall)
//! is the reproduction target. The "Figure binaries" section of the
//! repository's `README.md` lists the binaries and how to run them.
//! Every binary takes `--json` ([`json_flag`], [`print_json`]); the two
//! sweeps also take `--threads N` ([`threads_flag`]).

pub mod cluster_sweep;
pub mod serving_sweep;
pub mod sweep;

use std::num::NonZeroUsize;

use serde::Serialize;

use hermes_core::{try_run_system, InferenceReport, SystemConfig, SystemKind, Workload};
use hermes_model::ModelId;

/// Whether the binary was passed `--json`: print [`print_json`] output
/// instead of the Markdown tables.
pub fn json_flag() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Print `output` to stdout as pretty-printed JSON, the `--json` format of
/// every binary.
pub fn print_json<T: Serialize>(output: &T) {
    println!(
        "{}",
        serde_json::to_string_pretty(output).expect("bench output serializes")
    );
}

/// [`threads_flag`] over `args`: the usage message when `N` is missing,
/// not a number or 0.
fn parse_threads(args: &[String]) -> Result<usize, String> {
    let Some(i) = args.iter().position(|a| a == "--threads") else {
        return Ok(1);
    };
    let value = args.get(i + 1).map_or("", String::as_str);
    value
        .parse::<NonZeroUsize>()
        .map(NonZeroUsize::get)
        .map_err(|_| format!("--threads takes a positive integer, got `{value}`"))
}

/// The worker count given as `--threads N`, 1 when the flag is absent. A
/// missing, non-numeric or zero `N` prints a usage error naming the flag
/// and exits with status 2.
pub fn threads_flag() -> usize {
    let args: Vec<String> = std::env::args().collect();
    parse_threads(&args).unwrap_or_else(|usage| {
        eprintln!("error: {usage}");
        std::process::exit(2)
    })
}

/// Result of one (system, workload) cell of a figure.
#[derive(Debug, Clone)]
pub struct Cell {
    /// System display name.
    pub system: String,
    /// Model evaluated.
    pub model: ModelId,
    /// Batch size.
    pub batch: usize,
    /// Tokens/s, or `None` when the combination is not supported ("N.P.").
    pub tokens_per_second: Option<f64>,
    /// The full report when the run was supported.
    pub report: Option<InferenceReport>,
}

impl Cell {
    /// Format the throughput like the paper's bar labels ("N.P." when the
    /// system cannot run the model).
    pub fn formatted(&self) -> String {
        match self.tokens_per_second {
            Some(tps) => format!("{tps:.2}"),
            None => "N.P.".to_string(),
        }
    }
}

/// Run one system on one workload, mapping unsupported combinations to an
/// "N.P." cell exactly like the paper's figures do.
pub fn run_cell(kind: SystemKind, workload: &Workload, config: &SystemConfig) -> Cell {
    match try_run_system(kind, workload, config) {
        Ok(report) => Cell {
            system: kind.name(),
            model: workload.model,
            batch: workload.batch,
            tokens_per_second: Some(report.tokens_per_second()),
            report: Some(report),
        },
        Err(_) => Cell {
            system: kind.name(),
            model: workload.model,
            batch: workload.batch,
            tokens_per_second: None,
            report: None,
        },
    }
}

/// Run a lineup of systems on the same workload.
pub fn run_lineup(systems: &[SystemKind], workload: &Workload, config: &SystemConfig) -> Vec<Cell> {
    systems
        .iter()
        .map(|&kind| run_cell(kind, workload, config))
        .collect()
}

/// Print a Markdown-style table of cells grouped by system (rows) and a
/// caller-provided column label per cell.
pub fn print_table(title: &str, columns: &[String], rows: &[(String, Vec<String>)]) {
    println!("\n## {title}\n");
    println!("| system | {} |", columns.join(" | "));
    println!(
        "|---|{}|",
        columns.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for (name, cells) in rows {
        println!("| {name} | {} |", cells.join(" | "));
    }
}

/// Geometric-mean speedup of `a` over `b` across paired cells, skipping
/// unsupported entries.
pub fn geomean_speedup(a: &[Cell], b: &[Cell]) -> Option<f64> {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for (x, y) in a.iter().zip(b) {
        if let (Some(xa), Some(yb)) = (x.tokens_per_second, y.tokens_per_second) {
            if xa > 0.0 && yb > 0.0 {
                log_sum += (xa / yb).ln();
                n += 1;
            }
        }
    }
    if n == 0 {
        None
    } else {
        Some((log_sum / n as f64).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsupported_combinations_become_np() {
        let config = SystemConfig::paper_default();
        let mut w = Workload::paper_default(ModelId::Llama2_13B);
        w.gen_len = 4;
        w.prompt_len = 8;
        let cell = run_cell(SystemKind::FlexGen, &w, &config);
        assert_eq!(cell.formatted(), "N.P.");
        assert!(cell.report.is_none());
    }

    #[test]
    fn threads_must_be_a_positive_count() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_threads(&args(&["bin", "--json"])), Ok(1));
        assert_eq!(parse_threads(&args(&["bin", "--threads", "4"])), Ok(4));
        for bad in [
            &["bin", "--threads", "0"][..],
            &["bin", "--threads", "x"],
            &["bin", "--threads"],
        ] {
            let usage = parse_threads(&args(bad)).unwrap_err();
            assert!(usage.starts_with("--threads "), "{usage}");
        }
    }

    #[test]
    fn lineup_and_geomean() {
        let config = SystemConfig::paper_default();
        let mut w = Workload::paper_default(ModelId::Opt13B);
        w.gen_len = 4;
        w.prompt_len = 8;
        let cells = run_lineup(&[SystemKind::Accelerate, SystemKind::hermes()], &w, &config);
        assert_eq!(cells.len(), 2);
        let speedup = geomean_speedup(&cells[1..], &cells[..1]).unwrap();
        assert!(speedup > 1.0);
        assert!(geomean_speedup(&[], &[]).is_none());
    }
}
