//! The untraced run: end-to-end metrics with no instrumentation inside a
//! simulation, plus the output checks.

use std::time::Instant;

use hermes_core::{HermesError, SystemKind};
use hermes_serve::{simulate, simulate_reference, ReplicaSim};

use crate::util::{median, peak_rss_mib, Metrics};
use crate::workloads::{stream_seed, Summary, Workload, STREAMS};
use crate::Checks;

/// Fewest timed end-to-end passes a run makes, however long they take: one
/// per request stream.
const MIN_PASSES: u64 = STREAMS;
/// Shortest set-up sample. One is taken before every pass, so set-up is
/// sampled across the whole run: planning takes microseconds on
/// `hermes_base()`, and a single burst of samples reads the machine's
/// state of that moment (half or double speed on a shared core).
const MIN_SETUP_SAMPLE_S: f64 = 1e-3;
/// Requests of the prefix the reference-loop check replays: the sort-based
/// reference is quadratic in the backlog, so it checks a prefix only.
const ORACLE_REQUESTS: usize = 2_000;
/// The reference check on the sparse workload prices every step through
/// the full cost model, so it replays fewer requests.
const ORACLE_REQUESTS_SPARSE: usize = 200;

/// Check one pass's outputs: every request completed, generated tokens
/// equal the requested ones, and the report is bitwise `first`, the
/// report of the stream's first pass, when there was one.
pub fn check_pass(
    checks: &mut Checks,
    summary: &Summary,
    requested_tokens: usize,
    first: Option<&Summary>,
) {
    checks.requests(summary.offered, summary.completed);
    checks.check(
        summary.completed == summary.offered,
        format!(
            "{} of {} requests completed",
            summary.completed, summary.offered
        ),
    );
    checks.check(
        summary.generated_tokens == requested_tokens,
        format!(
            "generated {} tokens, requests asked for {requested_tokens}",
            summary.generated_tokens
        ),
    );
    if let Some(first) = first {
        checks.check(
            summary == first,
            format!(
                "repeated pass digest {:016x} differs from first pass {:016x}",
                summary.digest, first.digest
            ),
        );
    }
}

/// Times planning every replica the workload builds (`ReplicaSim::new`),
/// alone. Plans shorter than [`MIN_SETUP_SAMPLE_S`] are timed in groups
/// and one sample is the group's mean.
struct SetupTimer<'a> {
    w: &'a Workload,
    group: usize,
}

impl<'a> SetupTimer<'a> {
    fn new(w: &'a Workload) -> Result<Self, HermesError> {
        let once = SetupTimer { w, group: 1 }.sample()?;
        let group = (MIN_SETUP_SAMPLE_S / once).ceil().clamp(1.0, 1_000.0) as usize;
        Ok(SetupTimer { w, group })
    }

    /// Host seconds to plan the workload's replicas once.
    fn sample(&self) -> Result<f64, HermesError> {
        let w = self.w;
        let replicas = w.fleet.as_ref().map_or(1, |f| f.replicas);
        let sims: Vec<_> = (0..self.group * replicas)
            .map(|_| w.scenario.clone())
            .collect();
        let t = Instant::now();
        let built = sims
            .into_iter()
            .map(|sim| ReplicaSim::new(w.kind, &w.config, sim))
            .collect::<Result<Vec<_>, _>>()?;
        let seconds = t.elapsed().as_secs_f64() / self.group as f64;
        drop(std::hint::black_box(built));
        Ok(seconds)
    }
}

/// Compare the production loop with the retained reference loop on a
/// prefix of the workload's requests (single-replica workloads).
fn check_reference(w: &Workload, seed: u64, checks: &mut Checks) -> Result<(), HermesError> {
    if w.fleet.is_some() {
        return Ok(());
    }
    let n = if w.kind == SystemKind::hermes() {
        ORACLE_REQUESTS_SPARSE
    } else {
        ORACLE_REQUESTS
    };
    let mut requests = w.sample(seed)?;
    requests.truncate(n);
    let sim = w.replay(&requests);
    let fast = simulate(w.kind, &w.config, &sim)?;
    let reference = simulate_reference(w.kind, &w.config, &sim)?;
    checks.check(
        fast == reference,
        format!("simulate differs from the reference loop on the first {n} requests"),
    );
    Ok(())
}

pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
) -> Result<Metrics, HermesError> {
    let setup = SetupTimer::new(w)?;
    let mut setups = vec![setup.sample()?];
    // One untimed pass warms the allocator and caches; its report is the
    // reference every later pass of stream 0 must reproduce.
    let (_, requests, report) = w.run_once(stream_seed(seed, 0))?;
    let warm = report.summary();
    check_pass(
        checks,
        &warm,
        requests.iter().map(|r| r.gen_len).sum(),
        None,
    );
    let mut streams = vec![warm];
    drop((requests, report));

    let start = Instant::now();
    let mut rates = Vec::new();
    // Requests and host seconds summed over the timed passes.
    let (mut timed_requests, mut timed_s) = (0, 0.0);
    let mut pass = 0;
    while pass < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let stream = pass % STREAMS;
        pass += 1;
        setups.push(setup.sample()?);
        let (wall, requests, report) = w.run_once(stream_seed(seed, stream))?;
        let summary = report.summary();
        let requested: usize = requests.iter().map(|r| r.gen_len).sum();
        check_pass(checks, &summary, requested, streams.get(stream as usize));
        rates.push(summary.offered as f64 / wall.as_secs_f64());
        timed_requests += summary.offered;
        timed_s += wall.as_secs_f64();
        if streams.len() as u64 == stream {
            streams.push(summary);
        }
    }
    check_reference(w, stream_seed(seed, 0), checks)?;

    for (j, s) in streams.iter().enumerate() {
        println!(
            "workload {} seed {seed} stream {j} (stream seed {}): {} requests, report digest {:016x}",
            w.name,
            stream_seed(seed, j as u64),
            s.offered,
            s.digest
        );
    }
    println!(
        "pass rates req/s: {}",
        rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let n = streams.len();
    let med = |f: &dyn Fn(&Summary) -> f64| Summary::median(&streams, f);
    let offered: usize = streams.iter().map(|s| s.offered).sum();
    let completed: usize = streams.iter().map(|s| s.completed).sum();
    let mut m = Metrics::default();
    // Requests over the host seconds of every timed pass, not the median
    // pass: on a shared host the speed of memory shifts between phases
    // within a run, and a median snaps to whichever phase held most passes.
    m.push(
        "sim_req_per_s",
        timed_requests as f64 / timed_s,
        "req/s",
        rates.len(),
    );
    m.push("setup_s", median(&setups), "s", setups.len());
    m.push("peak_rss_mib", peak_rss_mib().unwrap_or(f64::NAN), "MiB", 1);
    m.push(
        "completed_frac",
        completed as f64 / offered as f64,
        "frac",
        offered,
    );
    m.push(
        "sim_tokens_per_s",
        med(&|s| s.generated_tokens as f64 / s.makespan),
        "tok/s",
        n,
    );
    m.push("sim_ttft_p50_s", med(&|s| s.ttft_p50), "s", n);
    m.push("sim_ttft_p99_s", med(&|s| s.ttft_p99), "s", n);
    m.push("sim_tpot_p50_s", med(&|s| s.tpot_p50), "s", n);
    m.push("sim_tpot_p99_s", med(&|s| s.tpot_p99), "s", n);
    println!(
        "failed_frac {} (offered {offered}, completed {completed}, over {n} streams)",
        (offered - completed) as f64 / offered as f64,
    );
    Ok(m)
}
