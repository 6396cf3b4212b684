//! The traced run: per-layer host time, measured from outside by calling
//! each layer's public functions in turn on the same requests the
//! untraced pass simulates.
//!
//! After one untimed warm-up simulation, each traced pass does four things
//! with one request stream:
//!
//! 1. samples them (`sample_arrival_times`, `ServingRequest::sample`);
//! 2. simulates them end to end, untraced, as the untraced run does;
//! 3. replays them through `ReplicaSim::new` and `validate_requests`,
//!    `inject` and a `step_boundary` loop timed as a whole (the cluster
//!    workload instead times `ClusterSimulator::new` and `run`);
//! 4. replays them again with every `step_boundary` call timed, pausing
//!    once half the requests have arrived to time the router probes on the
//!    loaded replica.
//!
//! The report fold has no public entry point, so its time is what step 2
//! leaves after set-up, inject and the boundary loop of step 3. The cost of
//! per-call timing is step 4's loop against step 3's.

use std::hint::black_box;
use std::time::{Duration, Instant};

use hermes_core::HermesError;
use hermes_serve::{BoundaryOutcome, ClusterSimulator, ReplicaSim, ServingRequest};

use crate::cost;
use crate::e2e::check_pass;
use crate::util::{median, percentile, Metrics};
use crate::workloads::{rank, stream_seed, Report, Summary, Workload, STREAMS};
use crate::Checks;

/// Router probe samples, each timing a group of calls.
const PROBE_SAMPLES: usize = 2_000;
const PROBE_GROUP: usize = 32;

#[derive(Default)]
struct Pass {
    sample_s: f64,
    simulate_s: f64,
    setup_s: f64,
    inject_s: f64,
    boundary_s: f64,
    /// Host time the tracing added: the per-call timed boundary loop over
    /// the untimed one, or the cluster's split timing over one call.
    traced_extra_s: f64,
    calls: usize,
    worked: usize,
    jumped: usize,
    boundary_ns_p50: f64,
    boundary_ns_p99: f64,
    cluster_new_s: f64,
    cluster_run_s: f64,
}

impl Pass {
    fn fold_residual_s(&self) -> f64 {
        self.simulate_s
            - self.setup_s
            - self.inject_s
            - self.boundary_s
            - self.cluster_new_s
            - self.cluster_run_s
    }

    fn overhead_frac(&self) -> f64 {
        self.traced_extra_s / (self.sample_s + self.simulate_s)
    }
}

/// Router probe timings on a loaded replica, ns per call.
#[derive(Default)]
struct Probes {
    kv_pressure: Vec<f64>,
    prefix_match: Vec<f64>,
}

fn time_probes(replica: &ReplicaSim, upcoming: &[ServingRequest]) -> Probes {
    let mut probes = Probes::default();
    for _ in 0..PROBE_SAMPLES {
        let t = Instant::now();
        for _ in 0..PROBE_GROUP {
            black_box(black_box(replica).kv_pressure());
        }
        probes
            .kv_pressure
            .push(t.elapsed().as_nanos() as f64 / PROBE_GROUP as f64);
    }
    let mut next = upcoming.iter().cycle();
    for _ in 0..PROBE_SAMPLES {
        let batch: Vec<&[u64]> = (&mut next)
            .take(PROBE_GROUP)
            .map(|r| r.prefix.as_slice())
            .collect();
        let t = Instant::now();
        for prefix in &batch {
            black_box(black_box(replica).prefix_match(black_box(prefix)));
        }
        probes
            .prefix_match
            .push(t.elapsed().as_nanos() as f64 / PROBE_GROUP as f64);
    }
    probes
}

/// The arrival time by which half the requests have arrived.
fn mid_arrival(requests: &[ServingRequest]) -> f64 {
    requests.get(requests.len() / 2).map_or(0.0, |r| r.arrival)
}

/// Replay `requests` through one replica's public functions. With `traced`
/// every `step_boundary` call is timed and the router probes run once the
/// clock passes the middle arrival.
fn replay(
    w: &Workload,
    requests: &[ServingRequest],
    traced: bool,
    pass: &mut Pass,
    probes: &mut Option<Probes>,
) -> Result<ReplicaSim, HermesError> {
    let sim = w.replay(requests);
    let ranks: Vec<f64> = requests.iter().map(|r| rank(sim.scheduling, r)).collect();
    let to_inject = requests.to_vec();

    let t = Instant::now();
    let mut replica = ReplicaSim::new(w.kind, &w.config, sim)?;
    replica.validate_requests(requests)?;
    pass.setup_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    for (request, rank) in to_inject.into_iter().zip(ranks) {
        replica.inject(request, rank);
    }
    pass.inject_s = t.elapsed().as_secs_f64();

    let (mut calls, mut worked, mut jumped) = (0, 0, 0);
    if traced {
        let mid = mid_arrival(requests);
        let upcoming = &requests[requests.len() / 2..];
        let mut call_ns = Vec::new();
        let mut loop_s = Duration::ZERO;
        loop {
            if probes.is_none() && replica.clock() >= mid {
                *probes = Some(time_probes(&replica, upcoming));
            }
            let t = Instant::now();
            let outcome = replica.step_boundary(f64::INFINITY)?;
            let dt = t.elapsed();
            loop_s += dt;
            call_ns.push(dt.as_nanos() as f64);
            calls += 1;
            match outcome {
                BoundaryOutcome::Worked => worked += 1,
                BoundaryOutcome::Jumped => jumped += 1,
                BoundaryOutcome::Idle => break,
            }
        }
        pass.traced_extra_s = loop_s.as_secs_f64() - pass.boundary_s;
        pass.boundary_ns_p50 = percentile(&call_ns, 50.0);
        pass.boundary_ns_p99 = percentile(&call_ns, 99.0);
    } else {
        let t = Instant::now();
        loop {
            calls += 1;
            match replica.step_boundary(f64::INFINITY)? {
                BoundaryOutcome::Worked => worked += 1,
                BoundaryOutcome::Jumped => jumped += 1,
                BoundaryOutcome::Idle => break,
            }
        }
        pass.boundary_s = t.elapsed().as_secs_f64();
    }
    pass.calls = calls;
    pass.worked = worked;
    pass.jumped = jumped;
    Ok(replica)
}

/// Check that a replay reproduced the untraced simulation.
fn check_replay(checks: &mut Checks, replica: &ReplicaSim, s: &Summary, what: &str) {
    checks.check(
        replica.clock() == s.makespan,
        format!(
            "{what} replay clock {} != simulated makespan {}",
            replica.clock(),
            s.makespan
        ),
    );
    checks.check(
        replica.completed() == s.completed,
        format!(
            "{what} replay completed {} != simulated {}",
            replica.completed(),
            s.completed
        ),
    );
    checks.check(
        replica.generated_tokens() == s.generated_tokens,
        format!(
            "{what} replay generated {} tokens != simulated {}",
            replica.generated_tokens(),
            s.generated_tokens
        ),
    );
}

/// Router probes on one fleet replica, loaded with its round-robin share
/// of the requests up to the middle arrival.
fn fleet_probes(w: &Workload, requests: &[ServingRequest]) -> Result<Probes, HermesError> {
    let replicas = w.fleet.as_ref().map_or(1, |f| f.replicas);
    let share: Vec<ServingRequest> = requests.iter().step_by(replicas).cloned().collect();
    let mut replica = ReplicaSim::new(w.kind, &w.config, w.replay(&share))?;
    for request in share.iter().cloned() {
        let r = rank(w.scenario.scheduling, &request);
        replica.inject(request, r);
    }
    replica.advance_to(mid_arrival(requests))?;
    Ok(time_probes(&replica, &requests[requests.len() / 2..]))
}

fn one_pass(
    w: &Workload,
    seed: u64,
    checks: &mut Checks,
    first: Option<&Summary>,
    probes: &mut Option<Probes>,
) -> Result<(Pass, Summary), HermesError> {
    let mut pass = Pass::default();
    let t = Instant::now();
    let requests = w.sample(seed)?;
    pass.sample_s = t.elapsed().as_secs_f64();
    let requested: usize = requests.iter().map(|r| r.gen_len).sum();

    let t = Instant::now();
    let report = w.simulate(w.replay(&requests))?;
    pass.simulate_s = t.elapsed().as_secs_f64();
    let summary = report.summary();
    drop(report);
    check_pass(checks, &summary, requested, first);

    match &w.fleet {
        Some(fleet) => {
            let cluster = w.cluster(fleet, w.replay(&requests));
            let t = Instant::now();
            let sim = ClusterSimulator::new(&cluster)?;
            pass.cluster_new_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let outcome = sim.run()?;
            pass.cluster_run_s = t.elapsed().as_secs_f64();
            let replayed = Report::Cluster(Box::new(outcome.report)).summary();
            checks.check(
                replayed == summary,
                format!(
                    "cluster replay digest {:016x} != simulated {:016x}",
                    replayed.digest, summary.digest
                ),
            );
            pass.traced_extra_s = pass.cluster_new_s + pass.cluster_run_s - pass.simulate_s;
            if probes.is_none() {
                *probes = Some(fleet_probes(w, &requests)?);
            }
        }
        None => {
            let replica = replay(w, &requests, false, &mut pass, probes)?;
            check_replay(checks, &replica, &summary, "untimed-loop");
            drop(replica);
            // The timed-loop replay reports only its loop; set-up and inject
            // stay those of the untimed replay.
            let (setup_s, inject_s) = (pass.setup_s, pass.inject_s);
            let replica = replay(w, &requests, true, &mut pass, probes)?;
            check_replay(checks, &replica, &summary, "timed-loop");
            (pass.setup_s, pass.inject_s) = (setup_s, inject_s);
        }
    }
    Ok((pass, summary))
}

pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
) -> Result<Metrics, HermesError> {
    // One untimed simulation warms the allocator and caches, so the first
    // pass's simulate call is not the only cold one. Passes then cycle
    // through the request streams of the untraced run; a stream's repeated
    // pass must reproduce its first report.
    drop(w.run_once(stream_seed(seed, 0))?);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut summaries: Vec<Summary> = Vec::new();
    let mut probes: Option<Probes> = None;
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let stream = passes.len() as u64 % STREAMS;
        let stream_seed = stream_seed(seed, stream);
        // Pass `p` replays stream `p % STREAMS`, so the stream's first
        // report is `summaries[stream]`.
        let reference = summaries.get(stream as usize);
        let (pass, summary) = one_pass(w, stream_seed, checks, reference, &mut probes)?;
        println!(
            "workload {} seed {seed} stream {stream} (stream seed {stream_seed}): {} requests, \
             report digest {:016x}",
            w.name, summary.offered, summary.digest
        );
        passes.push(pass);
        summaries.push(summary);
    }
    let probes = probes.unwrap_or_default();
    let n = passes.len();
    let med = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let rep = |f: &dyn Fn(&Summary) -> f64| Summary::median(&summaries, f);

    // `ClusterSimulator::run` calls inject and step_boundary internally, out of
    // reach from outside; its passes leave those metrics at 0.
    let mut m = Metrics::default();
    m.push("sample.s", med(&|p| p.sample_s), "s", n);
    m.push("inject.s", med(&|p| p.inject_s), "s", n);
    m.push(
        "inject.ns_per_req",
        med(&|p| p.inject_s) * 1e9 / rep(&|s| s.offered as f64),
        "ns/req",
        n,
    );
    m.push("boundary.s", med(&|p| p.boundary_s), "s", n);
    m.push("boundary.calls", med(&|p| p.calls as f64), "count", n);
    m.push("boundary.worked", med(&|p| p.worked as f64), "count", n);
    m.push("boundary.jumped", med(&|p| p.jumped as f64), "count", n);
    m.push(
        "boundary.ns_p50",
        med(&|p| p.boundary_ns_p50),
        "ns",
        med(&|p| p.calls as f64) as usize,
    );
    m.push(
        "boundary.ns_p99",
        med(&|p| p.boundary_ns_p99),
        "ns",
        med(&|p| p.calls as f64) as usize,
    );
    m.push("fold.residual_s", med(&|p| p.fold_residual_s()), "s", n);

    let cost_budget = Duration::from_secs_f64((seconds / 2.0).clamp(1.0, 8.0));
    let decode_mean_ns = cost::run(w, cost_budget, &mut m)?;

    let frac = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    m.push("kv.peak_blocks", rep(&|s| s.kv_peak_blocks), "count", n);
    m.push("kv.fragmentation", rep(&|s| s.kv_fragmentation), "frac", n);
    m.push("prefix.lookups", rep(&|s| s.prefix_lookups), "count", n);
    m.push(
        "prefix.hit_rate",
        rep(&|s| frac(s.prefix_hits, s.prefix_lookups)),
        "frac",
        n,
    );
    m.push(
        "prefix.insertions",
        rep(&|s| s.prefix_insertions),
        "count",
        n,
    );
    m.push(
        "prefix.evicted_blocks",
        rep(&|s| s.prefix_evicted_blocks),
        "count",
        n,
    );
    m.push("preempt.count", rep(&|s| s.preemptions), "count", n);
    m.push("swap.swap_outs", rep(&|s| s.swap_outs), "count", n);
    m.push("cluster.new_s", med(&|p| p.cluster_new_s), "s", n);
    m.push("cluster.run_s", med(&|p| p.cluster_run_s), "s", n);
    m.push("route.decisions", rep(&|s| s.route_decisions), "count", n);
    m.push(
        "route.redispatches",
        rep(&|s| s.route_redispatches),
        "count",
        n,
    );
    m.push(
        "cluster.load_imbalance",
        rep(&|s| s.load_imbalance),
        "ratio",
        n,
    );
    for (name, samples) in [
        ("route.kv_pressure_ns", &probes.kv_pressure),
        ("route.prefix_match_ns", &probes.prefix_match),
    ] {
        m.push(
            format!("{name}.p50"),
            percentile(samples, 50.0),
            "ns",
            samples.len(),
        );
        m.push(
            format!("{name}.p99"),
            percentile(samples, 99.0),
            "ns",
            samples.len(),
        );
    }
    m.push(
        "trace.overhead_frac",
        med(&|p| p.overhead_frac()),
        "frac",
        n,
    );

    print_splits(w, &passes, &m, decode_mean_ns);
    Ok(m)
}

/// Say whether the expected split of host time holds: on the sparse
/// workload step pricing dominates, on the dense one the bookkeeping
/// layers. Step pricing is estimated from the mean `decode_cost` call on
/// the `b128-d16` shape, remapping windows included.
fn print_splits(w: &Workload, passes: &[Pass], m: &Metrics, decode_mean_ns: f64) {
    let get = |name: &str| m.0.iter().find(|x| x.name == name).map_or(0.0, |x| x.value);
    let host = median(
        &passes
            .iter()
            .map(|p| p.sample_s + p.simulate_s)
            .collect::<Vec<_>>(),
    );
    let pricing = get("boundary.worked") * decode_mean_ns * 1e-9;
    let bookkeeping = get("inject.s") + get("boundary.s") + get("fold.residual_s");
    for (what, part, expect_most) in [
        (
            "boundary.worked x mean cost.decode_ns.b128-d16",
            pricing,
            w.name == "sparse-hermes",
        ),
        (
            "inject.s + boundary.s + fold.residual_s",
            bookkeeping,
            w.name == "dense-backlog",
        ),
    ] {
        let share = part / host;
        let verdict = match (expect_most, share > 0.5) {
            (true, true) => "expected majority: holds",
            (true, false) => "expected majority: DOES NOT HOLD",
            (false, _) => "no expectation",
        };
        println!(
            "split {}: {what} = {part:.4} s of {host:.4} s host ({:.1}%), {verdict}",
            w.name,
            share * 100.0
        );
    }
}
