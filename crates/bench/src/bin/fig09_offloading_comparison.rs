//! Fig. 9: end-to-end tokens/s of Hermes vs existing offloading-based
//! systems on the OPT family at batch size 1.
//!
//! Run with: `cargo run --release -p hermes-bench --bin
//! fig09_offloading_comparison`
//!
//! Pass `--json` to emit the figure as machine-readable JSON (one object
//! with a `rows` array of per-system cells and a `speedups` array of
//! Hermes-over-baseline geomeans) instead of the Markdown table.

use serde::{Deserialize, Serialize};

use hermes_bench::{geomean_speedup, json_flag, print_json, run_lineup};
use hermes_core::{SystemConfig, SystemKind, Workload};
use hermes_model::ModelId;

/// One (system, model) cell of the figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FigureCell {
    /// Model evaluated.
    model: String,
    /// Tokens/s, or `None` when the system cannot run the model ("N.P.").
    tokens_per_second: Option<f64>,
}

/// One system's row across every model of the figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FigureRow {
    /// System display name.
    system: String,
    /// One cell per model, in `models` order.
    cells: Vec<FigureCell>,
}

/// Hermes geomean speedup over one baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FigureSpeedup {
    /// Baseline display name.
    baseline: String,
    /// Geometric-mean speedup of Hermes over the baseline across models.
    geomean: f64,
}

/// Everything the figure produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FigureOutput {
    /// Models evaluated, in column order.
    models: Vec<String>,
    /// Per-system rows.
    rows: Vec<FigureRow>,
    /// Hermes speedups over each baseline.
    speedups: Vec<FigureSpeedup>,
}

fn main() {
    let json = json_flag();
    let config = SystemConfig::paper_default();
    let systems = [
        SystemKind::Accelerate,
        SystemKind::FlexGen,
        SystemKind::DejaVu,
        SystemKind::hermes_host(),
        SystemKind::hermes(),
    ];
    let models = [ModelId::Opt13B, ModelId::Opt30B, ModelId::Opt66B];
    let mut per_system: Vec<Vec<hermes_bench::Cell>> = vec![Vec::new(); systems.len()];
    for model in models {
        let workload = Workload::paper_default(model);
        let cells = run_lineup(&systems, &workload, &config);
        for (i, c) in cells.into_iter().enumerate() {
            per_system[i].push(c);
        }
    }
    let hermes_idx = systems.len() - 1;
    let speedups: Vec<FigureSpeedup> = systems
        .iter()
        .enumerate()
        .take(hermes_idx)
        .filter_map(|(i, kind)| {
            geomean_speedup(&per_system[hermes_idx], &per_system[i]).map(|s| FigureSpeedup {
                baseline: kind.name(),
                geomean: s,
            })
        })
        .collect();

    if json {
        let output = FigureOutput {
            models: models.map(|m| m.to_string()).to_vec(),
            rows: systems
                .iter()
                .enumerate()
                .map(|(i, kind)| FigureRow {
                    system: kind.name(),
                    cells: per_system[i]
                        .iter()
                        .map(|c| FigureCell {
                            model: c.model.to_string(),
                            tokens_per_second: c.tokens_per_second,
                        })
                        .collect(),
                })
                .collect(),
            speedups,
        };
        print_json(&output);
        return;
    }

    println!("# Fig. 9 — offloading-based systems, batch 1 (tokens/s)");
    println!("| system | {} |", models.map(|m| m.to_string()).join(" | "));
    println!("|---|---|---|---|");
    for (i, kind) in systems.iter().enumerate() {
        let row: Vec<String> = per_system[i].iter().map(|c| c.formatted()).collect();
        println!("| {} | {} |", kind.name(), row.join(" | "));
    }
    for speedup in &speedups {
        println!(
            "Hermes speedup over {}: {:.2}x (geomean)",
            speedup.baseline, speedup.geomean
        );
    }
}
