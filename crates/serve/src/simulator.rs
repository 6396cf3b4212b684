//! The discrete-event serving simulator: scenario description, validation,
//! and the single-replica driver.
//!
//! The actual event loop lives in [`crate::replica`] as the resumable
//! [`ReplicaSim`] state machine; [`simulate`] samples a scenario's arrivals
//! and requests, injects them into one replica and drives it to completion.
//! The multi-replica cluster driver in [`crate::cluster`] reuses the same
//! core, so one machine's behaviour is identical whether it serves alone or
//! inside a fleet.

use serde::{Deserialize, Serialize};

use hermes_core::{
    ArrivalProcess, HermesError, LengthDistribution, PrioritySpec, PromptSpec, ServingReport,
    SystemConfig, SystemKind, Workload,
};

use crate::arrival::sample_arrival_times;
use crate::replica::ReplicaSim;
use crate::request::{RequestRecord, ServingRequest};
use crate::scheduler::{
    AdmissionConfig, BatchingPolicy, KvAccounting, PreemptionPolicy, PrefillPolicy,
    PrefixCacheMode, SchedulingPolicy,
};

/// Salt mixed into the arrival seed to derive the length-sampling stream, so
/// one scenario seed governs both samplers without the draws being
/// correlated.
pub(crate) const LENGTH_SEED_SALT: u64 = 0x4c45_4e47_5448_2153; // "LENGTH!S"

/// Salt mixed into the arrival seed to derive the shared-prefix sampling
/// stream, independent of both the arrival and the length draws.
pub(crate) const PREFIX_SEED_SALT: u64 = 0x5052_4546_4958_2153; // "PREFIX!S"

/// One open-loop serving scenario: which requests arrive when, how long they
/// are, and how the scheduler batches and prefills them.
///
/// The `template` workload supplies the model, dataset, calibration seed and
/// the default per-request prompt/generation lengths; its `batch` field only
/// parameterises the engine's up-front validation (the actual batch
/// composition is decided by the scheduler at every token boundary), and its
/// lengths are overridden per request when `lengths` is not
/// [`LengthDistribution::Fixed`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingSimulation {
    /// Model, dataset, seed and default per-request sequence lengths.
    pub template: Workload,
    /// How requests arrive.
    pub arrival: ArrivalProcess,
    /// Number of requests offered.
    pub num_requests: usize,
    /// Seed of the arrival and length samplers (independent of the
    /// template's activation-trace seed).
    pub arrival_seed: u64,
    /// How the scheduler forms batches.
    pub policy: BatchingPolicy,
    /// Admission caps.
    pub admission: AdmissionConfig,
    /// How per-request prompt/generation lengths are drawn.
    pub lengths: LengthDistribution,
    /// How admitted prompts are prefilled: all at once, or chunked alongside
    /// the running decode batch.
    pub prefill: PrefillPolicy,
    /// How request classes (priority tier + optional TTFT deadline) are
    /// assigned.
    pub classes: PrioritySpec,
    /// How the ready queue is ordered at every token boundary.
    pub scheduling: SchedulingPolicy,
    /// Whether a blocked high-ranked request may evict lower-ranked active
    /// sequences.
    pub preemption: PreemptionPolicy,
    /// How shared prompt prefixes are assigned across requests.
    pub prompts: PromptSpec,
    /// Whether cached prompt prefixes are kept resident in the paged pool
    /// and reused across requests.
    pub prefix_cache: PrefixCacheMode,
}

impl ServingSimulation {
    /// A scenario with continuous batching, no admission caps, homogeneous
    /// request lengths and stall-the-world prefill.
    pub fn new(template: Workload, arrival: ArrivalProcess, num_requests: usize) -> Self {
        let arrival_seed = template.seed;
        ServingSimulation {
            template,
            arrival,
            num_requests,
            arrival_seed,
            policy: BatchingPolicy::Continuous,
            admission: AdmissionConfig::unlimited(),
            lengths: LengthDistribution::Fixed,
            prefill: PrefillPolicy::StallTheWorld,
            classes: PrioritySpec::Fixed,
            scheduling: SchedulingPolicy::Fcfs,
            preemption: PreemptionPolicy::None,
            prompts: PromptSpec::Unique,
            prefix_cache: PrefixCacheMode::Disabled,
        }
    }

    /// Same scenario with a different batching policy.
    pub fn with_policy(mut self, policy: BatchingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Same scenario with different admission caps.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = admission;
        self
    }

    /// Same scenario with a different arrival-sampler seed.
    pub fn with_arrival_seed(mut self, seed: u64) -> Self {
        self.arrival_seed = seed;
        self
    }

    /// Same scenario with a different per-request length distribution.
    pub fn with_lengths(mut self, lengths: LengthDistribution) -> Self {
        self.lengths = lengths;
        self
    }

    /// Same scenario with a different prefill policy.
    pub fn with_prefill(mut self, prefill: PrefillPolicy) -> Self {
        self.prefill = prefill;
        self
    }

    /// Same scenario with a different class-assignment spec.
    pub fn with_classes(mut self, classes: PrioritySpec) -> Self {
        self.classes = classes;
        self
    }

    /// Same scenario with a different ready-queue scheduling policy.
    pub fn with_scheduling(mut self, scheduling: SchedulingPolicy) -> Self {
        self.scheduling = scheduling;
        self
    }

    /// Same scenario with a different preemption policy.
    pub fn with_preemption(mut self, preemption: PreemptionPolicy) -> Self {
        self.preemption = preemption;
        self
    }

    /// Same scenario with a different shared-prefix assignment.
    pub fn with_prompts(mut self, prompts: PromptSpec) -> Self {
        self.prompts = prompts;
        self
    }

    /// Same scenario with a different prefix-cache mode.
    pub fn with_prefix_cache(mut self, prefix_cache: PrefixCacheMode) -> Self {
        self.prefix_cache = prefix_cache;
        self
    }

    /// Validate the scenario's policy combination up front: admission caps,
    /// the prefill policy's internal consistency, a paged block's byte size,
    /// bounded-paged-pool preemption and the cache-requires-paged
    /// constraint. Shared by every
    /// entry point — [`simulate`], [`ReplicaSim::new`] and the cluster
    /// driver — so a misconfigured replica fails with
    /// [`HermesError::InvalidConfig`] before any sampling or planning runs.
    ///
    /// # Errors
    ///
    /// [`HermesError::InvalidConfig`] describing the contradictory knobs.
    pub fn validate(&self) -> Result<(), HermesError> {
        self.admission.validate()?;
        self.prefill.validate()?;
        validate_block_bytes(self)?;
        validate_paged_preemption(self)?;
        validate_prefix_cache(self)
    }
}

/// Everything one simulation produced: the aggregate report plus the
/// per-request lifecycle records it was folded from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingOutcome {
    /// Aggregate serving metrics.
    pub report: ServingReport,
    /// Lifecycle timestamps of every request, in arrival order.
    pub records: Vec<RequestRecord>,
}

/// The primary scheduling rank of a request under a policy (lower ranks are
/// served first; ties always fall back to arrival order). Preemption
/// compares primary ranks only, so it never evicts equal-ranked work: under
/// priority scheduling never within a tier, under EDF never within an equal
/// absolute deadline (EDF rank ignores the tier, so requests of one tier
/// *can* evict each other when their deadlines differ), and under FCFS
/// never at all.
pub(crate) fn primary_rank(scheduling: SchedulingPolicy, request: &ServingRequest) -> f64 {
    match scheduling {
        SchedulingPolicy::Fcfs => 0.0,
        SchedulingPolicy::Priority => f64::from(request.class.priority),
        SchedulingPolicy::Edf => request.absolute_deadline().unwrap_or(f64::INFINITY),
        // Affinity ranks depend on *other* requests' prefixes; they are
        // assigned by `request_ranks`, which never delegates here.
        SchedulingPolicy::PrefixAffinity => 0.0,
    }
}

/// The scheduling rank of every request at once. Per-request policies
/// delegate to [`primary_rank`]; [`SchedulingPolicy::PrefixAffinity`] ranks
/// each request by the arrival index of the *first* request sharing its
/// prefix, so same-prefix requests sit adjacently in the ready queue (the
/// tie-break is arrival order) and are co-batched whenever capacity admits
/// more than one — a warm prefix is then reused while its lease still pins
/// it. Prefix-less requests keep their own arrival slot relative to the
/// group leaders.
pub(crate) fn request_ranks(scheduling: SchedulingPolicy, requests: &[ServingRequest]) -> Vec<f64> {
    match scheduling {
        SchedulingPolicy::PrefixAffinity => {
            let mut leaders: std::collections::BTreeMap<&[u64], usize> =
                std::collections::BTreeMap::new();
            requests
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    if r.prefix.is_empty() {
                        i as f64
                    } else {
                        *leaders.entry(r.prefix.as_slice()).or_insert(i) as f64
                    }
                })
                .collect()
        }
        _ => requests
            .iter()
            .map(|r| primary_rank(scheduling, r))
            .collect(),
    }
}

/// Reject a prefix cache under reserve accounting: cached prefixes live in
/// paged-pool blocks, which only exist under [`KvAccounting::Paged`].
pub(crate) fn validate_prefix_cache(sim: &ServingSimulation) -> Result<(), HermesError> {
    if sim.prefix_cache != PrefixCacheMode::Disabled
        && !matches!(sim.admission.accounting, KvAccounting::Paged { .. })
    {
        return Err(HermesError::InvalidConfig(
            "the prefix cache stores reused prefixes in paged KV blocks; enable \
             KvAccounting::Paged or disable the cache"
                .into(),
        ));
    }
    Ok(())
}

/// The worst-case workloads the sampled requests imply, for up-front engine
/// re-validation: the request with the largest prompt and the one with the
/// largest total context (engine memory and validity checks can depend on
/// either), deduplicated, whenever the sampled lengths exceed the template's
/// respective values. Empty when the template plan already covers every
/// request. Both maxima fall out of one pass over the requests; ties keep
/// the *last* maximum, matching `Iterator::max_by_key`.
pub(crate) fn worst_case_bounds(template: &Workload, requests: &[ServingRequest]) -> Vec<Workload> {
    let mut extremes: Option<(&ServingRequest, &ServingRequest)> = None;
    for r in requests {
        extremes = Some(match extremes {
            None => (r, r),
            Some((max_prompt, max_total)) => (
                if r.prompt_len >= max_prompt.prompt_len {
                    r
                } else {
                    max_prompt
                },
                if r.prompt_len + r.gen_len >= max_total.prompt_len + max_total.gen_len {
                    r
                } else {
                    max_total
                },
            ),
        });
    }
    let Some((max_prompt, max_total)) = extremes else {
        return Vec::new();
    };
    if max_prompt.prompt_len <= template.prompt_len
        && max_total.prompt_len + max_total.gen_len <= template.prompt_len + template.gen_len
    {
        return Vec::new();
    }
    let mut lengths = vec![(max_prompt.prompt_len, max_prompt.gen_len)];
    let total = (max_total.prompt_len, max_total.gen_len);
    if !lengths.contains(&total) {
        lengths.push(total);
    }
    lengths
        .into_iter()
        .map(|(prompt_len, gen_len)| {
            let mut bound = template.clone();
            bound.prompt_len = prompt_len;
            bound.gen_len = gen_len;
            bound
        })
        .collect()
}

/// Simulate `kind` on `config` under an open-loop serving scenario.
///
/// The simulation is a deterministic discrete-event loop over a virtual
/// clock: at every token boundary queued arrivals are admitted (FCFS, up to
/// the scenario's caps — continuously, or only into an idle system under
/// static batching), newly admitted requests are prefilled, and one decode
/// step is priced for the *current* batch composition via the engine's cost
/// model. Under [`PrefillPolicy::StallTheWorld`] each admitted prompt is
/// prefilled in full (grouped by prompt length) before the next decode step;
/// under [`PrefillPolicy::Chunked`] at most a budget of prefill tokens per
/// boundary is co-scheduled with the decode step through
/// [`StepCostModel::chunked_step_cost`](hermes_core::StepCostModel::chunked_step_cost),
/// so in-flight sequences absorb chunk-sized slices instead of whole
/// prompts. Equal inputs always produce bitwise-identical outcomes.
///
/// A request's `admitted` timestamp is stamped when its own prefill work
/// starts (its prompt-length group's pass, or its first chunk), not when the
/// admission queue is drained, so queue delay includes waiting behind other
/// groups prefilled at the same boundary.
///
/// The loop itself lives in [`ReplicaSim`]: this driver samples the
/// scenario, injects every request into one replica and runs it dry, so the
/// single-replica and cluster paths share one machine model.
///
/// # Errors
///
/// Propagates validation errors from the engine, the arrival spec, the
/// length spec, the prefill policy and the admission caps, and returns
/// [`HermesError::InvalidConfig`] when the caps are too small to ever admit
/// a queued request.
pub fn simulate(
    kind: SystemKind,
    config: &SystemConfig,
    sim: &ServingSimulation,
) -> Result<ServingOutcome, HermesError> {
    let mut replica = loaded_replica(kind, config, sim)?;
    replica.run_to_completion()?;
    Ok(replica.into_outcome())
}

/// Sample `sim`'s requests and inject them all into a fresh replica.
fn loaded_replica(
    kind: SystemKind,
    config: &SystemConfig,
    sim: &ServingSimulation,
) -> Result<ReplicaSim, HermesError> {
    sim.validate()?;
    let times = sample_arrival_times(&sim.arrival, sim.num_requests, sim.arrival_seed)?;
    let requests = ServingRequest::sample(
        &sim.template,
        &times,
        &sim.lengths,
        &sim.classes,
        &sim.prompts,
        sim.arrival_seed ^ LENGTH_SEED_SALT,
        sim.arrival_seed ^ PREFIX_SEED_SALT,
    )?;
    let mut replica = ReplicaSim::new(kind, config, sim.clone())?;
    replica.validate_requests(&requests)?;
    // Ranks are immutable per request (see `crate::queue`), so they are
    // computed once up front instead of per comparison.
    let ranks = request_ranks(sim.scheduling, &requests);
    replica.reserve(requests.len());
    for (request, rank) in requests.into_iter().zip(ranks) {
        replica.inject(request, rank);
    }
    Ok(replica)
}

/// Reject any request whose full context (`prompt_len + gen_len`), or the
/// KV bytes of that context, overflows. Runs before the worst-case bounds
/// add up request lengths and before the engine plans them.
///
/// # Errors
///
/// [`HermesError::InvalidWorkload`] naming the first overflowing request.
pub(crate) fn validate_request_lengths(
    template: &Workload,
    requests: &[ServingRequest],
) -> Result<(), HermesError> {
    let footprint = template.model_config().memory_footprint();
    for r in requests {
        let fits = r
            .prompt_len
            .checked_add(r.gen_len)
            .is_some_and(|context| footprint.checked_kv_cache_bytes(context, 1).is_some());
        if !fits {
            return Err(HermesError::InvalidWorkload(format!(
                "request {} (prompt_len {}, gen_len {}) overflows the KV-cache byte count",
                r.id, r.prompt_len, r.gen_len
            )));
        }
    }
    Ok(())
}

/// Reject a paged block whose bytes (`block_tokens` tokens of the
/// template's KV) overflow `u64`: the pool could not size its blocks, and
/// a wrapped size would divide the byte budget into nonsense.
pub(crate) fn validate_block_bytes(sim: &ServingSimulation) -> Result<(), HermesError> {
    if let KvAccounting::Paged { block_tokens } = sim.admission.accounting {
        let footprint = sim.template.model_config().memory_footprint();
        if footprint.checked_kv_cache_bytes(block_tokens, 1).is_none() {
            return Err(HermesError::InvalidConfig(format!(
                "paged block_tokens {block_tokens} overflows the KV-cache byte count of one block"
            )));
        }
    }
    Ok(())
}

/// Reject a bounded paged pool without a preemption policy: a sequence that
/// cannot take its next block mid-decode must be able to evict (or at least
/// self-evict); with [`PreemptionPolicy::None`] it would stall forever.
pub(crate) fn validate_paged_preemption(sim: &ServingSimulation) -> Result<(), HermesError> {
    if matches!(sim.admission.accounting, KvAccounting::Paged { .. })
        && sim.admission.kv_memory_bytes.is_some()
        && sim.preemption == PreemptionPolicy::None
    {
        return Err(HermesError::InvalidConfig(
            "a bounded paged KV pool requires a preemption policy (mid-decode block growth \
             must be able to evict); use EvictAndRefill or SwapOut, or lift kv_memory_bytes"
                .into(),
        ));
    }
    Ok(())
}

/// Reject any request whose full-context page count exceeds the pool: it
/// could never run to completion and would preempt forever.
pub(crate) fn validate_paged_capacity(
    block_tokens: usize,
    capacity_blocks: Option<u64>,
    requests: &[ServingRequest],
    sim: &ServingSimulation,
) -> Result<(), HermesError> {
    let Some(cap) = capacity_blocks else {
        return Ok(());
    };
    for (idx, r) in requests.iter().enumerate() {
        let need = (r.prompt_len + r.gen_len).div_ceil(block_tokens) as u64;
        if need > cap {
            return Err(HermesError::InvalidConfig(format!(
                "request {idx} needs {need} KV blocks at full context but the paged pool \
                 holds {cap} (block_tokens {block_tokens}, kv budget {:?})",
                sim.admission.kv_memory_bytes
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
#[path = "simulator_tests.rs"]
mod tests;
