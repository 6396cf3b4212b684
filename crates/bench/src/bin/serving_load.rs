//! Serving-load sweep: throughput and latency versus offered load for
//! Hermes and the four baselines under open-loop request arrivals.
//!
//! For each system and arrival process (Poisson and bursty), the sweep
//! offers an increasing request rate to the continuous-batching simulator
//! and reports goodput, tail TTFT/TPOT and queueing delay; a second table
//! compares continuous against static batching at a moderate load, a
//! third compares stall-the-world against chunked prefill (the in-flight
//! p95 TPOT columns are the point of the chunked-prefill scheduler), and a
//! fourth compares FCFS against priority and EDF scheduling with
//! KV-pressure preemption under bursty overload (high-priority tail TTFT
//! collapses while every class still completes), including a priority row
//! over the paged KV pool with swap-out preemption, and a fifth compares a
//! shared-system-prompt load cold (no cache) against warm (radix prefix
//! cache over the paged pool, with and without prefix-affinity
//! scheduling) — the hit rate, reused-vs-recomputed prefill tokens and
//! hit/miss TTFT split are the point. This is the serving-scenario
//! counterpart of the paper's closed-loop Figs. 9/11. The sweep reports
//! simulated metrics only; the simulator's own speed is measured by the
//! repository's `perfbench/` benchmark.
//!
//! Run with: `cargo run --release -p hermes-bench --bin serving_load`
//!
//! Flags:
//! - `--json` emits the whole sweep as machine-readable JSON (one object
//!   with a `results` array of `{section, system, arrival, offered_rps,
//!   report}` entries) instead of the tables.
//! - `--threads N` runs the grid on N worker threads (default 1; 0 is a
//!   usage error). The emitted rows are byte-identical at every thread
//!   count.

use hermes_bench::serving_sweep::{run_sweep, SweepEntry, SweepOutput};
use hermes_bench::{json_flag, print_json, threads_flag};
use hermes_core::ServingReport;

fn row(report: &ServingReport) -> String {
    format!(
        "{:>7.3} | {:>8.2} | {:>8.2} | {:>8.2} | {:>8.1} | {:>8.1} | {:>9.2}",
        report.goodput_rps(),
        report.tokens_per_second(),
        report.ttft.p50,
        report.ttft.p95,
        report.tpot.p95 * 1e3,
        report.tpot.p99 * 1e3,
        report.queue_delay.mean,
    )
}

/// Print the human-readable tables from the sweep's entries, section by
/// section (the entries arrive in emission order).
fn print_tables(output: &SweepOutput) {
    let by_section = |section: &str| -> Vec<&SweepEntry> {
        output
            .results
            .iter()
            .filter(|e| e.section == section)
            .collect()
    };

    let mut last_arrival = String::new();
    for entry in by_section("load-sweep") {
        if entry.arrival != last_arrival {
            println!(
                "\n# Serving load sweep — OPT-30B, {} arrivals, continuous batching",
                entry.arrival
            );
            println!(
                "| system | offered rps | goodput rps | tokens/s | TTFT p50 s | TTFT p95 s | \
                 TPOT p95 ms | TPOT p99 ms | queue mean s |"
            );
            println!("|---|---|---|---|---|---|---|---|---|");
            last_arrival = entry.arrival.clone();
        }
        println!(
            "| {} | {:>7.2} | {} |",
            entry.system,
            entry.offered_rps,
            row(&entry.report)
        );
    }

    println!("\n# Continuous vs. static batching — Hermes, Poisson 0.6 rps, 16 requests");
    println!("| policy | goodput rps | tokens/s | TTFT p50 s | TTFT p95 s | TPOT p95 ms | TPOT p99 ms | queue mean s |");
    println!("|---|---|---|---|---|---|---|---|");
    for entry in by_section("batching-policy") {
        println!("| {} | {} |", entry.report.policy, row(&entry.report));
    }

    println!(
        "\n# Stall-the-world vs. chunked prefill — Poisson 0.6 rps, 16 requests, \
         continuous batching"
    );
    println!(
        "| system | prefill | TPOT p50 ms | TPOT p95 ms | TPOT p99 ms | TTFT p95 s | \
         tokens/s |"
    );
    println!("|---|---|---|---|---|---|---|");
    for entry in by_section("prefill-policy") {
        println!(
            "| {} | {} | {:>8.1} | {:>8.1} | {:>8.1} | {:>7.2} | {:>8.2} |",
            entry.system,
            entry.report.prefill_policy,
            entry.report.tpot.p50 * 1e3,
            entry.report.tpot.p95 * 1e3,
            entry.report.tpot.p99 * 1e3,
            entry.report.ttft.p95,
            entry.report.tokens_per_second(),
        );
    }

    println!(
        "\n# Scheduling under bursty overload — Hermes, bursty 1.0 rps (burst=8), \
         16 requests, 2 KV seats"
    );
    println!(
        "| scheduling | preemption | completed | evictions | hi TTFT p50 s | hi TTFT p95 s | \
         lo TTFT p95 s | hi SLO | tokens/s |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for entry in by_section("scheduling-policy") {
        let report = &entry.report;
        let high = report.class(0).expect("tier 0 offered");
        let low = report.class(2).expect("tier 2 offered");
        println!(
            "| {} | {} | {:>5}/16 | {:>5} | {:>8.2} | {:>8.2} | {:>8.2} | {:>5.2} | {:>7.2} |",
            report.scheduling,
            report.preemption_policy,
            report.completed,
            report.preemptions,
            high.ttft.p50,
            high.ttft.p95,
            low.ttft.p95,
            high.slo_attainment().unwrap_or(1.0),
            report.tokens_per_second(),
        );
    }

    println!(
        "\n# Shared prompts, cold vs. warm prefix cache — Hermes, Poisson 0.6 rps, \
         16 requests, 2 shared 48-token prefixes"
    );
    println!(
        "| scheduling | cache | hit rate | reused toks | recomputed toks | TTFT p50 s | \
         hit TTFT p50 s | miss TTFT p50 s | tokens/s |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for entry in by_section("prefix-cache") {
        let report = &entry.report;
        match &report.prefix {
            Some(prefix) => println!(
                "| {} | warm | {:>5.2} | {:>6} | {:>6} | {:>8.2} | {:>8.2} | {:>8.2} | {:>7.2} |",
                report.scheduling,
                prefix.hit_rate,
                prefix.reused_prefill_tokens,
                prefix.recomputed_prefill_tokens,
                report.ttft.p50,
                prefix.ttft_hit.p50,
                prefix.ttft_miss.p50,
                report.tokens_per_second(),
            ),
            None => println!(
                "| {} | cold |     - |      - |      - | {:>8.2} |        - |        - | {:>7.2} |",
                report.scheduling,
                report.ttft.p50,
                report.tokens_per_second(),
            ),
        }
    }
}

fn main() {
    let json = json_flag();
    let result = run_sweep(threads_flag());
    for note in &result.skipped {
        eprintln!("{note}");
    }
    if json {
        print_json(&result.output);
    } else {
        print_tables(&result.output);
    }
}
