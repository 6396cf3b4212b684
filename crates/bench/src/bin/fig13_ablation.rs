//! Fig. 13: ablation of the offline/online scheduling strategies, measured
//! as normalized speedup of the sparse-FC (MLP-block) latency over the
//! Hermes-random baseline.
//!
//! Run with: `cargo run --release -p hermes-bench --bin fig13_ablation`
//!
//! Pass `--json` to emit the figure as machine-readable JSON (one table per
//! model, each a `rows` array of per-variant speedups across the batch
//! sizes) instead of the Markdown tables.

use serde::{Deserialize, Serialize};

use hermes_bench::{json_flag, print_json};
use hermes_core::{try_run_system, HermesOptions, SystemConfig, SystemKind, Workload};
use hermes_model::ModelId;

/// One variant's speedups over Hermes-random across the batch sizes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FigureRow {
    /// Variant name.
    variant: String,
    /// Speedup over the Hermes-random baseline, per batch size.
    speedups: Vec<f64>,
}

/// One model's table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FigureTable {
    /// Model evaluated.
    model: String,
    /// Per-variant rows.
    rows: Vec<FigureRow>,
}

/// Everything the figure produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FigureOutput {
    /// Batch sizes evaluated, in column order.
    batches: Vec<usize>,
    /// One table per model.
    tables: Vec<FigureTable>,
}

fn fc_latency(model: ModelId, batch: usize, options: HermesOptions, config: &SystemConfig) -> f64 {
    let workload = Workload::paper_default(model).with_batch(batch);
    try_run_system(SystemKind::Hermes(options), &workload, config)
        .map(|r| r.breakdown.fc)
        .unwrap_or(f64::NAN)
}

/// A named scheduling-ablation variant (constructor kept as a fn pointer so
/// the table below stays data).
type Variant = (&'static str, fn() -> HermesOptions);

fn main() {
    let json = json_flag();
    let config = SystemConfig::paper_default();
    let variants: [Variant; 6] = [
        ("Hermes-random", HermesOptions::random_mapping),
        ("Hermes-partition", HermesOptions::partition_only),
        ("Hermes-token-adjustment", HermesOptions::token_adjustment),
        ("Hermes-layer-adjustment", HermesOptions::layer_adjustment),
        ("Hermes-adjustment", HermesOptions::adjustment_only),
        ("Hermes", HermesOptions::full),
    ];
    let batches = [1usize, 4, 16];

    // Every (model, variant, batch) cell measured once, shared by both
    // output formats.
    let mut tables = Vec::new();
    for model in [ModelId::Llama2_13B, ModelId::Llama2_70B] {
        let mut baseline = vec![0.0f64; batches.len()];
        let mut rows = Vec::new();
        for (row, (name, make)) in variants.iter().enumerate() {
            let mut speedups = Vec::new();
            for (bi, &batch) in batches.iter().enumerate() {
                let fc = fc_latency(model, batch, make(), &config);
                if row == 0 {
                    baseline[bi] = fc;
                }
                speedups.push(baseline[bi] / fc);
            }
            rows.push(FigureRow {
                variant: name.to_string(),
                speedups,
            });
        }
        tables.push(FigureTable {
            model: model.to_string(),
            rows,
        });
    }

    if json {
        let output = FigureOutput {
            batches: batches.to_vec(),
            tables,
        };
        print_json(&output);
        return;
    }

    println!("# Fig. 13 — scheduling ablation (speedup over Hermes-random, FC latency)");
    for table in &tables {
        println!("\n## {}", table.model);
        println!(
            "| variant | {} |",
            batches.map(|b| format!("b{b}")).join(" | ")
        );
        println!("|---|---|---|---|");
        for row in &table.rows {
            let cells: Vec<String> = row.speedups.iter().map(|s| format!("{s:.2}x")).collect();
            println!("| {} | {} |", row.variant, cells.join(" | "));
        }
    }
}
