//! The resumable replica core: one simulated serving machine as a state
//! machine.
//!
//! [`ReplicaSim`] owns everything one machine needs between token
//! boundaries — the ready queue, the active decode set, the KV pool,
//! the prefix cache and the running tallies — and exposes the loop of
//! [`simulate`](crate::simulator::simulate) as resumable steps:
//! [`ReplicaSim::inject`] hands it a request, [`ReplicaSim::step_boundary`]
//! runs exactly one token boundary (admission, growth/eviction, chunk
//! scheduling, step pricing, completion harvesting), and
//! [`ReplicaSim::advance_to`] drives boundaries until the virtual clock
//! reaches a horizon. A single replica driven to completion reproduces the
//! monolithic loop bitwise; N replicas advanced on one shared clock by the
//! [`cluster`](crate::cluster) router are the multi-replica fleet.
//!
//! Everything the replica knows about one request lives in one
//! `RequestSlot`: the request, its rank and record, its decode progress
//! and its swap and prefix-cache claims. The queue, the decode batch and
//! the KV pool refer to a request by its slot index, in injection order.

use hermes_core::{
    Engine, HermesError, LatencyBreakdown, PlannedRun, PrefillChunk, SystemConfig, SystemKind,
};

use crate::kv::KvPool;
use crate::prefix::{PrefixCache, PrefixLease, PrefixPlan};
use crate::queue::ReadyQueue;
use crate::request::{RequestRecord, ServingRequest};
use crate::scheduler::{
    request_kv_bytes, token_kv_bytes, BatchingPolicy, KvAccounting, PreemptionPolicy,
    PrefillPolicy, PrefixCacheMode,
};
use crate::simulator::{
    validate_paged_capacity, validate_request_lengths, worst_case_bounds, ServingSimulation,
};
use crate::tallies::SwapTallies;

mod active;
mod carry;

use active::{ActiveInfo, ActiveSet, PrefillingSequence};

/// What one call to [`ReplicaSim::step_boundary`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryOutcome {
    /// A token boundary ran: admission, prefill and one priced step.
    Worked,
    /// The replica was idle and jumped its clock to the next pending
    /// arrival (which was within the horizon). No step was priced.
    Jumped,
    /// Nothing to do: no active work, and no pending arrival within the
    /// horizon. The clock did not move.
    Idle,
}

/// Everything a replica keeps about one injected request. A drain or
/// failure hands the slot back to the router (see
/// [`ReplicaSim::extract_pending`]) with its replica-local claims reset.
#[derive(Clone)]
pub(crate) struct RequestSlot {
    /// The request; on a re-dispatched slot, `arrival` is the re-dispatch time.
    pub(crate) request: ServingRequest,
    /// Global scheduling rank (immutable, see [`crate::queue`]).
    rank: f64,
    /// Lifecycle stamps, kept across a re-dispatch.
    record: RequestRecord,
    /// Full-context KV bytes under this replica's template.
    kv_bytes: u64,
    /// Tokens generated so far, banked when the sequence leaves the decode
    /// batch. A resumed request re-prefills them (restart with recompute)
    /// and only decodes the remainder.
    generated: usize,
    /// Whether the first admission has been stamped (re-admissions after a
    /// preemption keep the original queueing delay).
    ever_admitted: bool,
    /// Bytes a swapped-out victim holds on the swap tier (`None` while
    /// resident).
    swapped: Option<u64>,
    /// Leading context run stored in cache blocks instead of own pages.
    covered: usize,
    /// Part of the covered run whose KV existed at admission.
    reused: usize,
    /// Pin on the request's cached path while it is in flight.
    lease: Option<PrefixLease>,
    /// Handed back to the router: left out of this replica's report.
    extracted: bool,
}

impl RequestSlot {
    /// Prefill tokens an admission must compute: the prompt plus the
    /// tokens already generated (restart with recompute), less the run
    /// reused from the prefix cache.
    fn prefill_target(&self) -> usize {
        self.request.prompt_len + self.generated - self.reused
    }

    /// Stamp the first admission at `clock`; later admissions keep it.
    fn stamp_admitted(&mut self, clock: f64) {
        if !self.ever_admitted {
            self.record.admitted = clock;
            self.ever_admitted = true;
        }
    }
}

/// One simulated serving machine as a resumable state machine: the
/// extracted per-boundary body of [`simulate`](crate::simulator::simulate),
/// owning the ready queue, active set, KV pool, prefix cache and tallies,
/// and one `RequestSlot` per injected request.
///
/// Requests enter through [`ReplicaSim::inject`] (in non-decreasing arrival
/// order); the machine advances via [`ReplicaSim::step_boundary`] /
/// [`ReplicaSim::advance_to`] / [`ReplicaSim::run_to_completion`]. The
/// cluster router reads the load probes ([`ReplicaSim::outstanding`],
/// [`ReplicaSim::kv_pressure`], [`ReplicaSim::prefix_match`]) at dispatch
/// time.
pub struct ReplicaSim {
    /// The scenario knobs this replica schedules under (arrival sampling
    /// fields are unused here — sampling is the driver's job).
    sim: ServingSimulation,
    /// The planned engine, kept for worst-case re-validation of injected
    /// requests.
    engine: Engine,
    /// The template plan pricing every step.
    plan: PlannedRun,
    /// The KV pool: paged blocks, or one-token blocks under reserve
    /// accounting (see [`KvAccounting`]).
    pool: KvPool,
    /// The radix cache of resident prompt prefixes (`None` when disabled).
    cache: Option<PrefixCache>,
    /// One slot per injected request, in injection order.
    slots: Vec<RequestSlot>,

    // ---- loop state ----
    clock: f64,
    /// Decode steps priced so far: the virtual event counter every
    /// [`ActiveSet`] invariant is keyed on.
    step: u64,
    next_arrival: usize,
    ready: ReadyQueue,
    active: ActiveSet,
    prefilling: Vec<PrefillingSequence>,
    /// Joiners yet to generate their first token, stamped after the next
    /// priced step. One evicted before that step is dropped unstamped and
    /// pushed again by [`ReplicaSim::join_decode`] when it rejoins.
    pending_first_token: Vec<usize>,
    /// This boundary's prefill chunks, reused across boundaries so the hot
    /// path reuses one allocation.
    chunks: Vec<PrefillChunk>,

    // ---- tallies ----
    breakdown: LatencyBreakdown,
    imbalance_sum: f64,
    imbalance_samples: usize,
    generated_tokens: usize,
    completed: usize,
    swap: SwapTallies,
    kv_block_steps: u64,
    kv_used_token_steps: u64,
    kv_steps: u64,
    /// Running sum of the prefill targets of chunk-prefilling sequences.
    prefill_target_tokens: usize,
    /// Σ covered tokens over *active* (decoding) sequences.
    active_covered_tokens: u64,
    /// Prefill tokens actually recomputed (charged to the cost model).
    recomputed_prefill_tokens: usize,

    // ---- router bookkeeping (no effect on the simulation itself) ----
    /// Injected requests extracted away by drain/fail events.
    extracted_count: usize,
    /// Worst-case KV bytes of requests injected but not yet admitted — the
    /// queued half of the KV-pressure routing signal.
    waiting_kv_bytes: u64,

    /// The clock at the last [`ReplicaSim::audit`].
    #[cfg(test)]
    audited_clock: f64,
}

impl ReplicaSim {
    /// Plan `kind` on `config` and wrap it as an empty resumable replica
    /// scheduling under `sim`'s policies.
    ///
    /// # Errors
    ///
    /// Propagates [`ServingSimulation::validate`] and engine planning
    /// errors.
    pub fn new(
        kind: SystemKind,
        config: &SystemConfig,
        sim: ServingSimulation,
    ) -> Result<Self, HermesError> {
        sim.validate()?;
        let engine = kind.engine(config);
        let plan = engine.plan(&sim.template)?;
        // Reserve accounting is a pool of one-token blocks: the byte budget
        // over the per-token bytes is its exact block capacity.
        let block_tokens = match sim.admission.accounting {
            KvAccounting::Paged { block_tokens } => block_tokens,
            KvAccounting::Reserve => 1,
        };
        // `validate` rejected a block whose bytes overflow `u64`.
        let block_bytes = block_tokens as u64 * token_kv_bytes(&sim.template);
        let capacity = sim
            .admission
            .kv_memory_bytes
            .and_then(|b| b.checked_div(block_bytes));
        let pool = KvPool::new(block_tokens, block_bytes, capacity, 0);
        // `validate` rejected a cache without paged accounting, so the
        // cache's blocks are the pool's.
        let cache = match sim.prefix_cache {
            PrefixCacheMode::Disabled => None,
            PrefixCacheMode::Lru => Some(PrefixCache::new(block_tokens)),
        };
        Ok(ReplicaSim {
            sim,
            engine,
            plan,
            pool,
            cache,
            slots: Vec::new(),
            clock: 0.0,
            step: 0,
            next_arrival: 0,
            ready: ReadyQueue::new(),
            active: ActiveSet::default(),
            prefilling: Vec::new(),
            pending_first_token: Vec::new(),
            chunks: Vec::new(),
            breakdown: LatencyBreakdown::default(),
            imbalance_sum: 0.0,
            imbalance_samples: 0,
            generated_tokens: 0,
            completed: 0,
            swap: SwapTallies::default(),
            kv_block_steps: 0,
            kv_used_token_steps: 0,
            kv_steps: 0,
            prefill_target_tokens: 0,
            active_covered_tokens: 0,
            recomputed_prefill_tokens: 0,
            extracted_count: 0,
            waiting_kv_bytes: 0,
            #[cfg(test)]
            audited_clock: 0.0,
        })
    }

    /// Re-validate the engine plan and the paged pool against sampled
    /// requests whose lengths may exceed the template's (the worst-case
    /// bounds re-plan). The cluster driver passes the *global* request
    /// set: any replica can receive any request through failover.
    ///
    /// # Errors
    ///
    /// [`HermesError::InvalidWorkload`] when a request's full-context KV
    /// bytes overflow, engine planning errors for the worst-case bounds,
    /// and [`HermesError::InvalidConfig`] when a request could never fit
    /// the paged pool at full context.
    pub fn validate_requests(&self, requests: &[ServingRequest]) -> Result<(), HermesError> {
        validate_request_lengths(&self.sim.template, requests)?;
        for bound in worst_case_bounds(&self.sim.template, requests) {
            self.engine.plan(&bound)?;
        }
        if self.paged() {
            validate_paged_capacity(
                self.pool.block_tokens(),
                self.pool.capacity_blocks(),
                requests,
                &self.sim,
            )?;
        }
        Ok(())
    }

    /// Size the per-request state for `additional` more injections up
    /// front, so a large trace does not grow it by doubling.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.slots.reserve_exact(additional);
        let slots = self.slots.len() + additional;
        self.active.ensure_slots(slots);
        self.pool.ensure_slots(slots);
    }

    /// Hand the replica a request with its (globally computed) scheduling
    /// rank. Requests must be injected in non-decreasing arrival order —
    /// the replica's event loop pulls them into the ready queue as its
    /// clock passes their arrival times.
    pub fn inject(&mut self, request: ServingRequest, rank: f64) {
        let record = RequestRecord {
            id: request.id,
            arrival: request.arrival,
            admitted: 0.0,
            first_token: 0.0,
            completed: 0.0,
            prompt_len: request.prompt_len,
            gen_len: request.gen_len,
            class: request.class,
            preemptions: 0,
            reused_prefix_tokens: 0,
        };
        self.push_slot(RequestSlot {
            request,
            rank,
            record,
            kv_bytes: 0,
            generated: 0,
            ever_admitted: false,
            swapped: None,
            covered: 0,
            reused: 0,
            lease: None,
            extracted: false,
        });
    }

    /// Re-dispatch a slot extracted from another replica at `arrival`, the
    /// drain/fail event time. Its record and decode progress travel with
    /// it; restart with recompute re-prefills the progress.
    pub(crate) fn inject_carried(&mut self, mut slot: RequestSlot, arrival: f64) {
        slot.request.arrival = arrival;
        self.push_slot(slot);
    }

    /// Append `slot`, pricing its KV bytes under this replica's template.
    fn push_slot(&mut self, mut slot: RequestSlot) {
        debug_assert!(
            self.slots
                .last()
                .is_none_or(|last| slot.request.arrival >= last.request.arrival),
            "requests must be injected in arrival order"
        );
        let request = &slot.request;
        slot.kv_bytes = request_kv_bytes(&self.sim.template, request.prompt_len, request.gen_len);
        self.waiting_kv_bytes += slot.kv_bytes;
        self.slots.push(slot);
        self.active.ensure_slots(self.slots.len());
        self.pool.ensure_slots(self.slots.len());
    }

    /// The replica's virtual clock.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Requests injected and neither completed nor extracted away.
    pub fn outstanding(&self) -> usize {
        self.slots.len() - self.extracted_count - self.completed
    }

    /// Requests completed on this replica.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Tokens generated on this replica so far.
    pub fn generated_tokens(&self) -> usize {
        self.generated_tokens
    }

    /// The KV-pressure routing signal: bytes held by resident work (the
    /// pool's blocks, which under reserve accounting are the reservations)
    /// plus the worst-case bytes of requests waiting for admission, over
    /// the replica's KV budget. 0.0 for an unbounded budget — an uncapped
    /// replica never pushes back.
    pub fn kv_pressure(&self) -> f64 {
        let Some(budget) = self.sim.admission.kv_memory_bytes else {
            return 0.0;
        };
        let held = self.pool.used_blocks() * self.pool.block_bytes();
        (held + self.waiting_kv_bytes) as f64 / budget as f64
    }

    /// Whether KV is paged (held per block of current context, grown as
    /// decode crosses block boundaries) rather than reserved at full
    /// context on admission.
    fn paged(&self) -> bool {
        matches!(self.sim.admission.accounting, KvAccounting::Paged { .. })
    }

    /// Prompt-prefix tokens of `prefix` already resident in this replica's
    /// prefix cache (0 without a cache) — the prefix-affinity routing
    /// signal. Side-effect-free: probing does not touch the cache's stats
    /// or LRU state.
    pub fn prefix_match(&self, prefix: &[u64]) -> usize {
        match &self.cache {
            Some(cache) => {
                let cacheable = cache.cacheable(prefix.len());
                cache.plan(&prefix[..cacheable]).matched
            }
            None => 0,
        }
    }

    /// Drive token boundaries until the clock reaches `horizon` or the
    /// replica goes idle (no active work and no pending arrival within the
    /// horizon).
    ///
    /// # Errors
    ///
    /// Propagates the unsatisfiable-admission error of
    /// [`ReplicaSim::step_boundary`].
    pub fn advance_to(&mut self, horizon: f64) -> Result<(), HermesError> {
        while self.clock < horizon {
            match self.step_boundary(horizon)? {
                BoundaryOutcome::Worked | BoundaryOutcome::Jumped => {}
                BoundaryOutcome::Idle => break,
            }
        }
        Ok(())
    }

    /// Drive token boundaries until no work is left at all.
    ///
    /// # Errors
    ///
    /// Propagates the unsatisfiable-admission error of
    /// [`ReplicaSim::step_boundary`].
    pub fn run_to_completion(&mut self) -> Result<(), HermesError> {
        self.advance_to(f64::INFINITY)
    }

    /// Put sequence `idx` into the decode batch with its whole context
    /// resident. One that has not generated a token yet gets its
    /// `first_token` stamp after the next priced step.
    fn join_decode(&mut self, idx: usize) {
        let slot = &self.slots[idx];
        let request = &slot.request;
        self.active.join(
            idx,
            request.prompt_len + slot.generated,
            request.gen_len - slot.generated,
            slot.rank,
            self.step,
        );
        self.active_covered_tokens += slot.covered as u64;
        if slot.generated == 0 {
            self.pending_first_token.push(idx);
        }
    }

    /// Sequence `idx` (`info`) just left the decode batch: bank its decode
    /// progress, drop its covered run from the active tally and release
    /// its own blocks, returning how many it held.
    fn leave_decode(&mut self, idx: usize, info: ActiveInfo) -> u64 {
        let slot = &mut self.slots[idx];
        slot.generated += (self.step - info.join_step) as usize;
        self.active_covered_tokens -= slot.covered as u64;
        self.pool.release(idx)
    }

    /// Drop request `idx`'s prefix-cache claim (lease, covered/reused runs).
    fn release_claim(&mut self, idx: usize) {
        let slot = &mut self.slots[idx];
        if let (Some(cache), Some(l)) = (self.cache.as_mut(), slot.lease.take()) {
            cache.release(l);
        }
        slot.covered = 0;
        slot.reused = 0;
    }

    /// Shared eviction bookkeeping of the admission scan and the paged
    /// growth pass: release the victim's seat and KV, record its progress,
    /// and — under SwapOut — page its held KV out to the swap tier, priced
    /// through the engine's swap-cost hook.
    fn evict_victim(&mut self, victim: usize) {
        let info = self.active.remove(victim);
        let released = self.leave_decode(victim, info);
        self.slots[victim].record.preemptions += 1;
        if self.sim.preemption == PreemptionPolicy::SwapOut {
            // Only the victim's own pages travel to the swap tier; its
            // covered prefix stays resident in the cache, pinned by the
            // lease it keeps until completion. A reservation is written out
            // only as far as its context has been filled.
            let held_blocks = if self.paged() {
                released
            } else {
                let slot = &self.slots[victim];
                (slot.request.prompt_len + slot.generated) as u64
            };
            let held_bytes = held_blocks * self.pool.block_bytes();
            let cost = self.plan.cost.swap_cost(held_bytes);
            self.clock += cost;
            self.breakdown.communication += cost;
            self.swap.seconds += cost;
            self.swap.swap_outs += 1;
            self.swap.swapped_out_bytes += held_bytes;
            self.slots[victim].swapped = Some(held_bytes);
        } else {
            // Restart-with-recompute drops the victim's cache claim; its
            // re-admission consults the cache afresh.
            self.release_claim(victim);
        }
        let slot = &self.slots[victim];
        self.ready.push(slot.rank, victim);
        self.waiting_kv_bytes += slot.kv_bytes;
    }

    /// Run exactly one token boundary: pull arrivals, admit (evicting under
    /// preemption), resume swapped victims, prefill, grow paged sequences,
    /// price one step and harvest completions. When the replica is idle the
    /// clock instead jumps to the next pending arrival — but only within
    /// `horizon`, so a fleet driver can line replicas up on a shared clock
    /// without any replica overshooting a future injection.
    ///
    /// # Errors
    ///
    /// Returns [`HermesError::InvalidConfig`] when the admission caps can
    /// never admit the queue head into an idle system.
    pub fn step_boundary(&mut self, horizon: f64) -> Result<BoundaryOutcome, HermesError> {
        // 1. Pull every request that has arrived by now into the queue.
        while let Some(slot) = self.slots.get(self.next_arrival) {
            if slot.request.arrival > self.clock {
                break;
            }
            self.ready.push(slot.rank, self.next_arrival);
            self.next_arrival += 1;
        }

        // 2. Admit from the queue at this token boundary, in scheduling
        // order (FCFS / priority / EDF — arrival order within a rank).
        // Admission reserves the request's KV budget and batch slot; the
        // `admitted` timestamp is stamped later, when its prefill work
        // actually starts. When the best-ranked waiter does not fit and
        // preemption is on, strictly lower-ranked active sequences are
        // evicted (worst-ranked first) until it does.
        let may_admit = match self.sim.policy {
            BatchingPolicy::Continuous => true,
            BatchingPolicy::Static => self.active.is_empty() && self.prefilling.is_empty(),
        };
        let mut admitted: Vec<usize> = Vec::new();
        if may_admit {
            while let Some(idx) = self.ready.peek() {
                // The pool's held blocks already include the requests
                // admitted at this boundary, so the caps see the whole
                // provisional batch. Reserve accounting charges the
                // request's full context in one-token blocks. Paged
                // accounting charges only the blocks for its *current*
                // context (prompt plus generated so far) plus one write slot
                // for the next decoded token, less the run the prefix cache
                // covers. The write slot guarantees an admitted sequence
                // generates at least one token before it can need to grow —
                // without it, a sequence rejoining with its context exactly
                // at a block boundary would be a grower at its very next
                // boundary and could self-evict in a zero-progress
                // admit/evict livelock.
                //
                // A fresh admission (or an evict-and-refill re-admission,
                // whose claim was dropped) consults the cache: its matched
                // run maps the resident blocks copy-free, and — when the
                // unmatched cacheable remainder is insertable — the request
                // also funds the blocks that will cache it for later
                // requests. A resuming swap-out victim keeps the lease it
                // never released and only needs pages for its uncovered
                // remainder. Unpinned cache blocks off the matched path
                // count as reclaimable capacity: they are evicted before an
                // admission is declared infeasible. Without a cache nothing
                // is matched, reclaimable or inserted.
                let seats = self.active.len() + self.prefilling.len() + admitted.len();
                let slot = &self.slots[idx];
                let request = &slot.request;
                let resumed = slot.swapped.is_some();
                let (lookup_len, plan) = match &self.cache {
                    Some(c) => {
                        let lookup_len = if resumed {
                            0
                        } else {
                            c.cacheable(request.prefix.len())
                        };
                        (lookup_len, c.plan(&request.prefix[..lookup_len]))
                    }
                    None => (0, PrefixPlan::default()),
                };
                let do_insert = !resumed && plan.can_insert && plan.matched < lookup_len;
                let target_covered = if resumed {
                    slot.covered
                } else if do_insert {
                    lookup_len
                } else {
                    plan.matched
                };
                let insert_blocks = if do_insert {
                    self.pool.blocks_for_tokens(lookup_len - plan.matched)
                } else {
                    0
                };
                let charged_tokens = if self.paged() {
                    request.prompt_len + slot.generated + 1 - target_covered
                } else {
                    request.prompt_len + request.gen_len
                };
                let own = self.pool.blocks_for_tokens(charged_tokens);
                let extra = own + insert_blocks;
                let cap = self.pool.capacity_blocks().unwrap_or(u64::MAX);
                let used = self.pool.used_blocks();
                if self.sim.admission.admits(seats, 0, 0)
                    && used + extra <= cap.saturating_add(plan.freeable_blocks)
                {
                    self.ready.pop();
                    let slot = &mut self.slots[idx];
                    self.waiting_kv_bytes -= slot.kv_bytes;
                    if let Some(cache) = self.cache.as_mut() {
                        let lease = if resumed {
                            None
                        } else {
                            let (l, matched) = cache.acquire(&slot.request.prefix[..lookup_len]);
                            debug_assert_eq!(matched, plan.matched, "plan and acquire must agree");
                            // Only the *matched* run skips prefill; an
                            // inserted run is cache-resident but this
                            // request still computes it (into the cache's
                            // blocks).
                            slot.reused = matched;
                            if !slot.ever_admitted {
                                slot.record.reused_prefix_tokens = matched;
                            }
                            slot.lease = Some(l);
                            Some(l)
                        };
                        let shortfall = (used + extra).saturating_sub(cap);
                        if shortfall > 0 {
                            self.pool.surrender_blocks(cache.evict_for(shortfall));
                        }
                        if let Some(l) = lease.filter(|_| do_insert) {
                            self.pool.acquire_blocks(insert_blocks);
                            cache.insert(l, &slot.request.prefix[plan.matched..lookup_len]);
                        }
                    }
                    slot.covered = target_covered;
                    self.pool.allocate(idx, own);
                    admitted.push(idx);
                    continue;
                }
                if self.sim.preemption != PreemptionPolicy::None {
                    // Victim candidates: active sequences strictly outranked
                    // by the blocked waiter, worst-ranked first (latest
                    // arrival first within a rank), straight off the rank
                    // index. Sequences still prefilling under chunked
                    // prefill are not evicted. Take the smallest prefix
                    // that makes room, if any. Victim coverage is
                    // conservatively treated as unreclaimable — another
                    // in-flight lease may pin the same nodes — so only the
                    // victims' own blocks and the already-unpinned cache
                    // blocks count.
                    let mut victims: Vec<usize> = Vec::new();
                    let mut freed = 0u64;
                    let mut feasible = false;
                    for victim in self.active.victims_outranking(self.slots[idx].rank) {
                        freed += self.pool.held(victim);
                        victims.push(victim);
                        if self.sim.admission.admits(seats - victims.len(), 0, 0)
                            && used + extra
                                <= cap
                                    .saturating_add(plan.freeable_blocks)
                                    .saturating_add(freed)
                        {
                            feasible = true;
                            break;
                        }
                    }
                    if feasible {
                        for victim in victims {
                            self.evict_victim(victim);
                        }
                        // Retry the blocked waiter with the freed capacity
                        // (the victims it displaced cannot outrank it); the
                        // released leases and blocks are planned afresh.
                        continue;
                    }
                }
                break;
            }
        }

        // 2.5 Swapped-out victims among this boundary's admissions resume
        // by paging their KV back in — no recompute: they skip prefill and
        // rejoin the decode batch right here, continuing where they
        // stopped. The swap-in leg is priced like the swap-out was.
        admitted.retain(|&idx| {
            let Some(bytes) = self.slots[idx].swapped.take() else {
                return true;
            };
            let cost = self.plan.cost.swap_cost(bytes);
            self.clock += cost;
            self.breakdown.communication += cost;
            self.swap.seconds += cost;
            self.swap.swap_ins += 1;
            self.swap.swapped_in_bytes += bytes;
            self.join_decode(idx);
            false
        });

        // 3. Hand the newly admitted requests to the prefill policy. A
        // request resumed after a preemption re-prefills its prompt *plus*
        // the tokens it already generated (restart with recompute), so its
        // effective prefill length is `prompt_len + generated` — minus the
        // reused run it maps from the prefix cache, whose KV already
        // existed at admission and is never recomputed.
        match self.sim.prefill {
            PrefillPolicy::StallTheWorld => {
                // Prefill whole prompts now, one pass per effective prefill
                // length (requests sharing a length are prefilled together,
                // so an all-at-once batch pays exactly the closed-loop
                // prefill). A fully-covered request prefills nothing and
                // charges nothing.
                let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
                for &idx in &admitted {
                    let p = self.slots[idx].prefill_target();
                    match groups.iter_mut().find(|(len, _)| *len == p) {
                        Some((_, members)) => members.push(idx),
                        None => groups.push((p, vec![idx])),
                    }
                }
                for (prefill_len, members) in groups {
                    // This group's prefill starts now, after every earlier
                    // group's pass has elapsed.
                    for &idx in &members {
                        self.slots[idx].stamp_admitted(self.clock);
                    }
                    self.recomputed_prefill_tokens += prefill_len * members.len();
                    if prefill_len > 0 {
                        let cost = self.plan.cost.prefill_cost(prefill_len, members.len());
                        self.breakdown.prefill += cost;
                        self.clock += cost;
                    }
                }
                for idx in admitted {
                    self.join_decode(idx);
                }
            }
            PrefillPolicy::Chunked { .. } => {
                for idx in admitted {
                    let target = self.slots[idx].prefill_target();
                    self.recomputed_prefill_tokens += target;
                    if target == 0 {
                        // Fully covered: nothing to prefill, join the decode
                        // batch at this very boundary.
                        self.slots[idx].stamp_admitted(self.clock);
                        self.join_decode(idx);
                        continue;
                    }
                    self.prefill_target_tokens += target;
                    self.prefilling.push(PrefillingSequence {
                        idx,
                        target,
                        done: 0,
                    });
                }
            }
        }

        // 4. Schedule this boundary's prefill chunks (FCFS across the
        // requests still prefilling, up to the policy's token budget).
        // Always empty under stall-the-world, which never populates
        // `prefilling`. The buffer is reused across boundaries; every
        // scheduled chunk is non-empty, so `chunks.len()` is also the
        // number of leading `prefilling` entries touched this boundary —
        // the only ones step 7 has to rescan for completion.
        self.chunks.clear();
        if let PrefillPolicy::Chunked {
            chunk_tokens,
            budget,
        } = self.sim.prefill
        {
            let mut budget_left = budget;
            for seq in self.prefilling.iter_mut() {
                if budget_left == 0 {
                    break;
                }
                let take = chunk_tokens.min(seq.target - seq.done).min(budget_left);
                self.slots[seq.idx].stamp_admitted(self.clock);
                self.chunks.push(PrefillChunk {
                    prompt_len: seq.target,
                    tokens: take,
                });
                seq.done += take;
                budget_left -= take;
            }
        }

        // 5. Nothing running and no prefill scheduled: jump to the next
        // arrival (when it lies within the horizon) or report idleness.
        // (`prefilling` is necessarily empty here — any prefilling sequence
        // would have scheduled a chunk.)
        if self.active.is_empty() && self.chunks.is_empty() {
            if let Some(head) = self.ready.peek() {
                // The queue head could not be admitted into an idle system:
                // the caps can never be satisfied.
                return Err(HermesError::InvalidConfig(format!(
                    "admission caps can never admit request {} (max_batch {:?}, kv budget {:?})",
                    head, self.sim.admission.max_batch, self.sim.admission.kv_memory_bytes
                )));
            }
            if let Some(slot) = self.slots.get(self.next_arrival) {
                if slot.request.arrival <= horizon {
                    self.clock = self.clock.max(slot.request.arrival);
                    return Ok(BoundaryOutcome::Jumped);
                }
            }
            return Ok(BoundaryOutcome::Idle);
        }

        // 5.5 Paged growth: a sequence whose held blocks no longer cover
        // its context plus the token this step decodes takes one more
        // block. Admission granted every sequence a write slot, so a
        // grower has always decoded at least one token since it was
        // (re)admitted — growth evictions therefore always follow real
        // progress and cannot livelock. Growers take their block in
        // scheduling-rank order; when the pool is full, each evicts the
        // worst strictly lower-ranked active victim — or itself, when none
        // exists (it cannot demand capacity from equal- or better-ranked
        // work).
        // Reserve accounting charged the full context up front, so only a
        // paged pool ever grows (and is sampled for the report's `kv`
        // section).
        if self.paged() {
            let growers: Vec<usize> = {
                let pool = &self.pool;
                let active = &self.active;
                let slots = &self.slots;
                let step = self.step;
                active
                    .by_rank
                    .iter()
                    .map(|&(_, idx)| idx)
                    .filter(|&idx| {
                        // hermes-lint: allow(D3, reason = "by_rank only indexes active slots, whose info is always populated")
                        let info = active.info[idx].as_ref().expect("rank index is active");
                        let context = (info.shift + step as i64) as usize;
                        pool.held(idx) < pool.blocks_for_tokens(context + 1 - slots[idx].covered)
                    })
                    .collect()
            };
            for grower in growers {
                // An earlier grower may have evicted this one.
                if !self.active.contains(grower) {
                    continue;
                }
                if self.pool.fits(1) {
                    self.pool.grow(grower);
                    continue;
                }
                // Unpinned cache blocks are reclaimed before any sequence
                // is preempted for a grower's block.
                if let Some(cache) = self.cache.as_mut() {
                    let cap = self.pool.capacity_blocks().unwrap_or(u64::MAX);
                    let shortfall = (self.pool.used_blocks() + 1).saturating_sub(cap);
                    self.pool.surrender_blocks(cache.evict_for(shortfall));
                    if self.pool.fits(1) {
                        self.pool.grow(grower);
                        continue;
                    }
                }
                let victim = self
                    .active
                    .victims_outranking(self.slots[grower].rank)
                    .next();
                match victim {
                    Some(victim) => {
                        self.evict_victim(victim);
                        self.pool.grow(grower);
                    }
                    None => self.evict_victim(grower),
                }
            }
            // Sample pool usage for the utilization/fragmentation stats:
            // held blocks vs. the context tokens stored in them (active
            // contexts before this step's token, plus the full targets of
            // chunk-prefilling sequences, whose blocks are held up front).
            // Covered runs are stored once, in the cache's resident blocks,
            // so they are subtracted from the active contexts and counted
            // through the cache instead.
            self.kv_steps += 1;
            self.kv_block_steps += self.pool.used_blocks();
            let active_tokens: u64 = self
                .active
                .groups
                .iter()
                .map(|(&shift, &count)| (shift + self.step as i64) as u64 * count as u64)
                .sum();
            self.kv_used_token_steps += active_tokens - self.active_covered_tokens
                + self.prefill_target_tokens as u64
                + self.cache.as_ref().map_or(0, |c| c.resident_tokens());
        }

        // 6. One shared step over the current batch composition, with any
        // scheduled prefill chunks piggybacked on it. The chunk-free path
        // prices through `decode_cost` directly, so stall-the-world
        // reproduces the closed-loop costs bitwise. The composition comes
        // straight off the active set's group index — O(distinct context
        // lengths), not O(batch).
        let batch = self.active.batch_state(self.step);
        let outcome = if self.chunks.is_empty() {
            self.plan.cost.decode_cost(&batch)
        } else {
            self.plan.cost.chunked_step_cost(&self.chunks, &batch)
        };
        self.breakdown = self.breakdown.merged(&outcome.latency);
        self.imbalance_sum += outcome.imbalance_sum;
        self.imbalance_samples += outcome.imbalance_samples;
        self.clock += outcome.latency.total();
        self.generated_tokens += self.active.len();
        self.step += 1;
        // First tokens land before completions so a single-token request
        // gets `first_token == completed`, exactly as the per-sequence walk
        // stamped them. A pending joiner evicted before its first step is
        // dropped here unstamped; `join_decode` pushes it again on rejoin.
        for i in 0..self.pending_first_token.len() {
            let idx = self.pending_first_token[i];
            if self.active.contains(idx) {
                self.slots[idx].record.first_token = self.clock;
            }
        }
        self.pending_first_token.clear();
        let mut finished: Vec<(usize, ActiveInfo)> = Vec::new();
        self.active
            .drain_finished(self.step, |idx, info| finished.push((idx, info)));
        for (idx, info) in finished {
            self.slots[idx].record.completed = self.clock;
            self.completed += 1;
            self.leave_decode(idx, info);
            // The covered run outlives the request: releasing the lease
            // leaves the prefix resident for later arrivals, reclaimable
            // only under pressure.
            self.release_claim(idx);
        }

        // 7. Prompts that completed this step join the decode batch at the
        // next token boundary. Only the sequences that received a chunk
        // this boundary — the first `chunks.len()` entries, since chunks
        // are handed out FCFS from the front — can have newly completed,
        // so the scan stops there instead of walking the whole set.
        let mut i = 0;
        let mut touched = self.chunks.len().min(self.prefilling.len());
        while i < touched {
            if self.prefilling[i].done == self.prefilling[i].target {
                touched -= 1;
                let seq = self.prefilling.remove(i);
                self.prefill_target_tokens -= seq.target;
                self.join_decode(seq.idx);
            } else {
                i += 1;
            }
        }
        Ok(BoundaryOutcome::Worked)
    }
}

#[cfg(test)]
impl ReplicaSim {
    /// Invariant audit, run by the tests between token boundaries.
    ///
    /// - Clock: it never goes backwards between audits.
    /// - Partition: every slot is in exactly one state — not yet arrived,
    ///   queued, prefilling, decoding, completed or extracted — and the
    ///   counts agree with [`ReplicaSim::outstanding`] and
    ///   [`ReplicaSim::completed`]. A slot in none of the queue, the
    ///   prefilling set and the decode batch has completed.
    /// - Lifecycle: a completed slot has generated its whole `gen_len` and
    ///   has `arrival ≤ admitted ≤ first_token ≤ completed`; an in-flight
    ///   one has tokens left to generate.
    /// - KV, paged: the pool's used blocks are exactly the blocks the
    ///   request slots hold plus the blocks resident in the prefix cache.
    /// - KV, reserve: the pool's used blocks are exactly the full contexts
    ///   (`prompt_len + gen_len`) of the decoding and prefilling requests.
    /// - KV, both: usage never exceeds the capacity.
    pub(crate) fn audit(&mut self) {
        assert!(
            self.clock >= self.audited_clock,
            "clock went back from {} to {}",
            self.audited_clock,
            self.clock
        );
        self.audited_clock = self.clock;

        let n = self.slots.len();
        let mut places = vec![0usize; n];
        let decoding = (0..n).filter(|&idx| self.active.contains(idx));
        let prefilling = self.prefilling.iter().map(|seq| seq.idx);
        for idx in self.ready.indices().chain(prefilling).chain(decoding) {
            places[idx] += 1;
        }
        let (mut waiting, mut completed, mut extracted) = (0, 0, 0);
        for (idx, slot) in self.slots.iter().enumerate() {
            let r = &slot.record;
            if slot.extracted || idx >= self.next_arrival {
                assert_eq!(places[idx], 0, "request {} scheduled while away", r.id);
                if slot.extracted {
                    extracted += 1;
                } else {
                    waiting += 1;
                }
                continue;
            }
            assert!(places[idx] <= 1, "request {} is in several states", r.id);
            if places[idx] == 1 {
                waiting += 1;
                assert!(slot.generated < r.gen_len, "request {} ran over", r.id);
            } else {
                completed += 1;
                assert_eq!(slot.generated, r.gen_len, "request {} done early", r.id);
                assert!(
                    r.arrival <= r.admitted
                        && r.admitted <= r.first_token
                        && r.first_token <= r.completed,
                    "request {} completed out of order: {r:?}",
                    r.id
                );
            }
        }
        assert_eq!(completed, self.completed, "completions not conserved");
        assert_eq!(extracted, self.extracted_count, "extractions not conserved");
        assert_eq!(
            waiting,
            self.outstanding(),
            "outstanding work not conserved"
        );

        let used = self.pool.used_blocks();
        if let Some(cap) = self.pool.capacity_blocks() {
            assert!(used <= cap, "pool holds {used} blocks over capacity {cap}");
        }
        let expected: u64 = if self.paged() {
            (0..n).map(|idx| self.pool.held(idx)).sum::<u64>()
                + self.cache.as_ref().map_or(0, |c| c.resident_blocks())
        } else {
            let full_context = |idx: usize| {
                let r = &self.slots[idx].request;
                (r.prompt_len + r.gen_len) as u64
            };
            (0..n)
                .filter(|&idx| self.active.contains(idx))
                .map(full_context)
                .chain(self.prefilling.iter().map(|seq| full_context(seq.idx)))
                .sum()
        };
        assert_eq!(
            used, expected,
            "KV blocks not conserved at step {}",
            self.step
        );
    }
}
