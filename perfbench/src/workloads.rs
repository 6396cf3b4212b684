//! The four benchmark workloads, how their requests are drawn from the
//! workload seed, and how one end-to-end simulation is run and summarised.
//!
//! `README.md` beside this crate says why each workload was chosen.

use std::time::{Duration, Instant};

use hermes_core::{
    ArrivalProcess, ClusterReport, HermesError, LengthDistribution, PrioritySpec, PromptSpec,
    RequestClass, ServingReport, SystemConfig, SystemKind, Workload as Template,
};
use hermes_model::ModelId;
use hermes_serve::{
    request_kv_bytes, sample_arrival_times, simulate, simulate_cluster, AdmissionConfig,
    ClusterSimulation, PreemptionPolicy, PrefillPolicy, PrefixCacheMode, ReplicaEvent, ReplicaSpec,
    RoutingPolicy, SchedulingPolicy, ServingRequest, ServingSimulation, DEFAULT_BLOCK_TOKENS,
};

/// Salt mixed into the workload seed for the length draws, so arrivals and
/// lengths come from independent streams of one seed.
const LENGTH_SALT: u64 = 0x7065_7266_6c65_6e21; // "perflen!"
/// Salt mixed into the workload seed for the shared-prefix draws.
const PREFIX_SALT: u64 = 0x7065_7266_7072_6521; // "perfpre!"

/// Independent request streams one run simulates. Each simulated metric is
/// the median over the streams: a single stream's latency percentiles
/// depend on its few largest arrival bursts, and vary between seeds far
/// more than the median of several streams does.
pub const STREAMS: u64 = 8;

/// The seed of stream `stream` of workload seed `seed`. Distinct workload
/// seeds never share a stream.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(STREAMS).wrapping_add(stream)
}

/// A multi-replica fleet behind a router.
pub struct Fleet {
    pub replicas: usize,
    pub routing: RoutingPolicy,
    pub events: Vec<ReplicaEvent>,
}

/// One benchmark workload: the modelled machine plus a generative traffic
/// scenario. Only the requests depend on the seed.
pub struct Workload {
    pub name: &'static str,
    pub kind: SystemKind,
    pub config: SystemConfig,
    /// Poisson arrivals plus the length, class and prompt specs the requests
    /// are drawn from, and the scheduler knobs every replica runs under.
    pub scenario: ServingSimulation,
    pub fleet: Option<Fleet>,
}

pub const NAMES: [&str; 4] = [
    "dense-backlog",
    "sparse-hermes",
    "paged-prefix",
    "cluster-failover",
];

/// OPT-13B with short fixed-length requests: step pricing is cheap, so host
/// time goes to the simulator's bookkeeping.
fn short_template() -> Template {
    let mut t = Template::paper_default(ModelId::Opt13B);
    t.prompt_len = 64;
    t.gen_len = 16;
    t
}

/// KV budget of `n` worst-case reservations of the short template.
fn short_kv_cap(n: u64) -> u64 {
    let t = short_template();
    request_kv_bytes(&t, t.prompt_len, t.gen_len) * n
}

pub fn workload(name: &str) -> Option<Workload> {
    let config = SystemConfig::paper_default();
    let w = match name {
        "dense-backlog" => Workload {
            name: "dense-backlog",
            kind: SystemKind::hermes_base(),
            config,
            scenario: ServingSimulation::new(
                short_template(),
                ArrivalProcess::Poisson { rate: 500.0 },
                30_000,
            )
            .with_admission(AdmissionConfig::unlimited().with_max_batch(128)),
            fleet: None,
        },
        "sparse-hermes" => {
            // The template carries the largest lengths the requests can
            // draw, so one plan covers every request.
            let mut template = Template::paper_default(ModelId::Opt13B);
            template.prompt_len = 512;
            template.gen_len = 64;
            Workload {
                name: "sparse-hermes",
                kind: SystemKind::hermes(),
                config,
                scenario: ServingSimulation::new(
                    template,
                    ArrivalProcess::Poisson { rate: 7.0 },
                    2_500,
                )
                .with_lengths(LengthDistribution::Uniform {
                    prompt_min: 32,
                    prompt_max: 512,
                    gen_min: 8,
                    gen_max: 64,
                })
                .with_prefill(PrefillPolicy::Chunked {
                    chunk_tokens: 64,
                    budget: 512,
                }),
                fleet: None,
            }
        }
        "paged-prefix" => Workload {
            name: "paged-prefix",
            kind: SystemKind::hermes_base(),
            config,
            scenario: ServingSimulation::new(
                short_template(),
                ArrivalProcess::Poisson { rate: 125.0 },
                30_000,
            )
            .with_admission(
                AdmissionConfig::unlimited()
                    .with_max_batch(128)
                    .with_kv_memory_bytes(short_kv_cap(32))
                    .with_paged_kv(DEFAULT_BLOCK_TOKENS),
            )
            .with_prompts(PromptSpec::SharedGroups {
                groups: 64,
                prefix_len: 48,
            })
            .with_prefix_cache(PrefixCacheMode::Lru)
            .with_classes(PrioritySpec::Cycle {
                classes: vec![RequestClass::new(0), RequestClass::new(2)],
            })
            .with_scheduling(SchedulingPolicy::Priority)
            .with_preemption(PreemptionPolicy::SwapOut),
            fleet: None,
        },
        "cluster-failover" => Workload {
            name: "cluster-failover",
            kind: SystemKind::hermes_base(),
            config,
            scenario: ServingSimulation::new(
                short_template(),
                ArrivalProcess::Poisson { rate: 500.0 },
                30_000,
            )
            .with_admission(
                AdmissionConfig::unlimited()
                    .with_max_batch(128)
                    .with_kv_memory_bytes(short_kv_cap(32)),
            ),
            fleet: Some(Fleet {
                replicas: 4,
                routing: RoutingPolicy::KvPressure,
                events: vec![
                    ReplicaEvent::Fail {
                        replica: 1,
                        at: 50.0,
                    },
                    ReplicaEvent::Recover {
                        replica: 1,
                        at: 100.0,
                    },
                ],
            }),
        },
        _ => return None,
    };
    Some(w)
}

/// The scheduling rank `simulate` gives a request (its rank function is
/// private to the serving crate). Workloads use FCFS or priority only.
pub fn rank(scheduling: SchedulingPolicy, request: &ServingRequest) -> f64 {
    match scheduling {
        SchedulingPolicy::Priority => f64::from(request.class.priority),
        _ => 0.0,
    }
}

/// What one simulation produced, in the terms the benchmark reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub offered: usize,
    pub completed: usize,
    pub generated_tokens: usize,
    pub makespan: f64,
    pub ttft_p50: f64,
    pub ttft_p99: f64,
    pub tpot_p50: f64,
    pub tpot_p99: f64,
    /// FNV-1a digest of the report's JSON.
    pub digest: u64,
    pub kv_peak_blocks: f64,
    pub kv_fragmentation: f64,
    pub prefix_lookups: f64,
    pub prefix_hits: f64,
    pub prefix_insertions: f64,
    pub prefix_evicted_blocks: f64,
    pub preemptions: f64,
    pub swap_outs: f64,
    pub route_decisions: f64,
    pub route_redispatches: f64,
    pub load_imbalance: f64,
}

impl Summary {
    /// The median of `field` over `summaries`.
    pub fn median(summaries: &[Summary], field: impl Fn(&Summary) -> f64) -> f64 {
        crate::util::median(&summaries.iter().map(field).collect::<Vec<_>>())
    }
}

/// The report of one `simulate` or `simulate_cluster` call.
pub enum Report {
    Single(Box<ServingReport>),
    Cluster(Box<ClusterReport>),
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

impl Report {
    pub fn summary(&self) -> Summary {
        let (json, replicas, fleet): (_, Vec<&ServingReport>, Option<&ClusterReport>) = match self {
            Report::Single(r) => (serde_json::to_string(r.as_ref()), vec![r.as_ref()], None),
            Report::Cluster(c) => (
                serde_json::to_string(c.as_ref()),
                c.replicas.iter().map(|r| &r.report).collect(),
                Some(c.as_ref()),
            ),
        };
        let json = json.expect("reports serialize to JSON");
        let sum = |f: &dyn Fn(&ServingReport) -> f64| replicas.iter().map(|r| f(r)).sum::<f64>();
        let max =
            |f: &dyn Fn(&ServingReport) -> f64| replicas.iter().map(|r| f(r)).fold(0.0, f64::max);
        let (offered, completed, generated_tokens, makespan, ttft, tpot) = match self {
            Report::Single(r) => (
                r.num_requests,
                r.completed,
                r.generated_tokens,
                r.makespan,
                r.ttft,
                r.tpot,
            ),
            Report::Cluster(c) => (
                c.num_requests,
                c.completed,
                c.generated_tokens,
                c.makespan,
                c.ttft,
                c.tpot,
            ),
        };
        Summary {
            offered,
            completed,
            generated_tokens,
            makespan,
            ttft_p50: ttft.p50,
            ttft_p99: ttft.p99,
            tpot_p50: tpot.p50,
            tpot_p99: tpot.p99,
            digest: fnv1a(json.as_bytes()),
            kv_peak_blocks: sum(&|r| r.kv.as_ref().map_or(0.0, |k| k.peak_blocks as f64)),
            kv_fragmentation: max(&|r| r.kv.as_ref().map_or(0.0, |k| k.fragmentation)),
            prefix_lookups: sum(&|r| r.prefix.as_ref().map_or(0.0, |p| p.lookups as f64)),
            prefix_hits: sum(&|r| r.prefix.as_ref().map_or(0.0, |p| p.hits as f64)),
            prefix_insertions: sum(&|r| r.prefix.as_ref().map_or(0.0, |p| p.insertions as f64)),
            prefix_evicted_blocks: sum(&|r| {
                r.prefix.as_ref().map_or(0.0, |p| p.evicted_blocks as f64)
            }),
            preemptions: sum(&|r| r.preemptions as f64),
            swap_outs: sum(&|r| r.swap.as_ref().map_or(0.0, |s| s.swap_outs as f64)),
            route_decisions: fleet.map_or(0.0, |c| {
                c.replicas.iter().map(|r| r.routed).sum::<usize>() as f64
            }),
            route_redispatches: fleet.map_or(0.0, |c| c.redispatches as f64),
            load_imbalance: fleet.map_or(0.0, |c| c.load_imbalance),
        }
    }
}

impl Workload {
    /// Draw the workload's requests from `seed`. The serving crate's own
    /// sampling salts are private, so the benchmark samples with its own and
    /// hands the requests to the simulator as traces.
    pub fn sample(&self, seed: u64) -> Result<Vec<ServingRequest>, HermesError> {
        let s = &self.scenario;
        let times = sample_arrival_times(&s.arrival, s.num_requests, seed)?;
        ServingRequest::sample(
            &s.template,
            &times,
            &s.lengths,
            &s.classes,
            &s.prompts,
            seed ^ LENGTH_SALT,
            seed ^ PREFIX_SALT,
        )
    }

    /// The scenario that makes the simulator replay exactly `requests`.
    /// Class specs are deterministic and kept as they are.
    pub fn replay(&self, requests: &[ServingRequest]) -> ServingSimulation {
        let mut sim = self.scenario.clone();
        sim.num_requests = requests.len();
        sim.arrival = ArrivalProcess::Trace {
            times: requests.iter().map(|r| r.arrival).collect(),
        };
        if sim.lengths != LengthDistribution::Fixed {
            sim.lengths = LengthDistribution::Trace {
                lengths: requests
                    .iter()
                    .map(|r| hermes_core::RequestLength {
                        prompt_len: r.prompt_len,
                        gen_len: r.gen_len,
                    })
                    .collect(),
            };
        }
        if sim.prompts != PromptSpec::Unique {
            sim.prompts = PromptSpec::Trace {
                prefixes: requests.iter().map(|r| r.prefix.clone()).collect(),
            };
        }
        sim
    }

    /// The fleet scenario around a replayed single-replica scenario. Each
    /// replica keeps the small generative scenario for its scheduler knobs;
    /// `ClusterSimulator::new` overrides the sampling fields from `scenario`.
    pub fn cluster(&self, fleet: &Fleet, scenario: ServingSimulation) -> ClusterSimulation {
        let replicas = (0..fleet.replicas)
            .map(|i| {
                ReplicaSpec::new(
                    format!("replica-{i}"),
                    self.kind,
                    self.config.clone(),
                    self.scenario.clone(),
                )
            })
            .collect();
        ClusterSimulation::new(scenario, replicas, fleet.routing).with_events(fleet.events.clone())
    }

    /// Simulate `sim` end to end on this workload's machine (or fleet).
    pub fn simulate(&self, sim: ServingSimulation) -> Result<Report, HermesError> {
        Ok(match &self.fleet {
            Some(fleet) => Report::Cluster(Box::new(
                simulate_cluster(&self.cluster(fleet, sim))?.report,
            )),
            None => Report::Single(Box::new(simulate(self.kind, &self.config, &sim)?.report)),
        })
    }

    /// One end-to-end pass as a user pays for it: sample the requests, then
    /// simulate them to the folded report. Returns the host time of the
    /// whole pass with the requests and the report.
    pub fn run_once(
        &self,
        seed: u64,
    ) -> Result<(Duration, Vec<ServingRequest>, Report), HermesError> {
        let start = Instant::now();
        let requests = self.sample(seed)?;
        let report = self.simulate(self.replay(&requests))?;
        Ok((start.elapsed(), requests, report))
    }
}
