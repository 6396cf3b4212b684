//! End-to-end and per-layer benchmark of the Hermes serving simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload on one thread. `--trace 0` measures the
//! end-to-end metrics with nothing inside the simulation instrumented;
//! `--trace 1` replays the same requests through the simulator's public
//! layer functions and times each from outside. Both check the outputs.
//! The last line of standard output is the result object; the lines
//! before it give the host's fingerprint, the report digest and every
//! metric with the sample count behind it. `README.md` describes the
//! workloads and metrics.

mod cost;
mod e2e;
mod traced;
mod util;
mod workloads;

use std::process::ExitCode;

use util::{json_str, provenance, Metrics};

/// Output checks of one run, and the requests it simulated. A failed
/// check makes the result incorrect.
#[derive(Default)]
pub struct Checks {
    failures: Vec<String>,
    /// Requests offered over every simulated pass.
    requests: usize,
    /// Of those, requests that did not complete.
    failed_requests: usize,
}

impl Checks {
    pub fn requests(&mut self, offered: usize, completed: usize) {
        self.requests += offered;
        self.failed_requests += offered.saturating_sub(completed);
    }

    pub fn check(&mut self, ok: bool, what: String) {
        if !ok {
            eprintln!("check failed: {what}");
            self.failures.push(what);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds {seconds}: must be positive"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workloads::workload(&args.workload) else {
        eprintln!(
            "unknown workload {}; expected one of {:?}",
            args.workload,
            workloads::NAMES
        );
        return ExitCode::from(2);
    };
    println!(
        "provenance {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}}}",
        json_str(w.name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        provenance()
    );
    let mut checks = Checks::default();
    let result = if args.trace {
        traced::run(&w, args.seed, args.seconds, &mut checks)
    } else {
        e2e::run(&w, args.seed, args.seconds, &mut checks)
    };
    let metrics: Metrics = match result {
        Ok(m) => m,
        Err(e) => {
            // A typed simulator error fails the pass it stopped.
            checks.check(false, format!("simulation error: {e}"));
            checks.requests(w.scenario.num_requests, 0);
            Metrics::default()
        }
    };
    checks.check(metrics.all_finite(), "every metric is finite".to_string());
    metrics.print_table();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failures.is_empty(),
        checks.requests.max(1),
        checks.failed_requests,
        metrics.json()
    );
    ExitCode::SUCCESS
}
