//! The cluster-facing half of the replica: pulling in-flight work back out
//! of a drained or failed machine as [`RequestSlot`]s for re-dispatch, and
//! folding the survivors into the replica's report.
//!
//! Everything here operates on the same private [`ReplicaSim`] state as the
//! boundary body in the parent module; the split keeps the hot loop and the
//! failover machinery readable on their own.

use hermes_core::ServingReport;

use crate::kv::KvPool;
use crate::prefix::PrefixCache;
use crate::request::RequestRecord;
use crate::simulator::ServingOutcome;
use crate::tallies::{build_report, KvTallies, PrefixTallies};

use super::{ReplicaSim, RequestSlot};

impl ReplicaSim {
    /// Pull back every request that never started (drain semantics): the
    /// injected-but-not-yet-arrived tail and the never-admitted part of the
    /// ready queue. In-flight work — decoding, prefilling, swapped-out or
    /// evicted-and-requeued sequences — finishes locally. The slots come
    /// back sorted by global request id for deterministic re-dispatch.
    pub(crate) fn extract_pending(&mut self) -> Vec<RequestSlot> {
        // The not-yet-arrived tail never entered the ready queue, so it
        // holds nothing here and leaves whole.
        let mut carried = self.slots.split_off(self.next_arrival);
        self.waiting_kv_bytes -= carried.iter().map(|slot| slot.kv_bytes).sum::<u64>();
        // Never-admitted waiters leave; preempted/swapped victims stay and
        // finish here.
        let queued: Vec<usize> = std::iter::from_fn(|| self.ready.pop()).collect();
        for idx in queued {
            if self.slots[idx].ever_admitted {
                self.ready.push(self.slots[idx].rank, idx);
            } else {
                self.waiting_kv_bytes -= self.slots[idx].kv_bytes;
                carried.push(self.hand_out(idx));
            }
        }
        carried.sort_by_key(|c| c.request.id);
        carried
    }

    /// Pull back *everything* in flight (fail semantics) and reset the
    /// replica's memory: the ready queue (swap-tier contents are lost),
    /// the prefilling set (chunk progress is lost) and the active batch
    /// all hand their requests back for restart-with-recompute elsewhere;
    /// the KV pool and the prefix cache restart cold. Returned slots are
    /// sorted by global request id for deterministic re-dispatch.
    pub(crate) fn extract_all(&mut self) -> Vec<RequestSlot> {
        let mut carried = self.extract_pending();
        // Admitted waiters (evicted or swapped-out victims): their swap
        // bytes and cache claims die with the machine.
        while let Some(idx) = self.ready.pop() {
            self.waiting_kv_bytes -= self.slots[idx].kv_bytes;
            carried.push(self.hand_out(idx));
        }
        // Prefilling sequences lose their chunk progress and their blocks.
        while let Some(seq) = self.prefilling.pop() {
            self.prefill_target_tokens -= seq.target;
            self.pool.release(seq.idx);
            self.slots[seq.idx].record.preemptions += 1;
            carried.push(self.hand_out(seq.idx));
        }
        // Active sequences record their progress (the remainder decodes
        // elsewhere after a re-prefill) and release everything they hold.
        let decoding: Vec<usize> = (0..self.slots.len())
            .filter(|&idx| self.active.contains(idx))
            .collect();
        for idx in decoding {
            let info = self.active.remove(idx);
            self.leave_decode(idx, info);
            self.slots[idx].record.preemptions += 1;
            carried.push(self.hand_out(idx));
        }
        self.pending_first_token.clear();
        self.chunks.clear();
        debug_assert_eq!(self.active_covered_tokens, 0);
        // The machine's memory restarts cold: fresh pool (the block
        // high-water mark restarts with it), fresh cache.
        let bt = self.pool.block_tokens();
        self.pool = KvPool::new(
            bt,
            self.pool.block_bytes(),
            self.pool.capacity_blocks(),
            self.slots.len(),
        );
        if self.cache.is_some() {
            self.cache = Some(PrefixCache::new(bt));
        }
        carried.sort_by_key(|c| c.request.id);
        carried
    }

    /// Mark request `idx`, which holds no blocks any more, extracted and
    /// return a copy of its slot without swap bytes or cache claim.
    fn hand_out(&mut self, idx: usize) -> RequestSlot {
        self.release_claim(idx);
        let slot = &mut self.slots[idx];
        slot.swapped = None;
        let carried = slot.clone();
        slot.extracted = true;
        self.extracted_count += 1;
        carried
    }

    /// Restart a recovered replica's clock at `t` (it was dead in
    /// between; its next boundary happens no earlier than the recovery).
    pub(crate) fn restart_at(&mut self, t: f64) {
        self.clock = self.clock.max(t);
    }

    /// Fold this replica's tallies and surviving records (requests
    /// extracted away by drain/fail complete elsewhere and are excluded)
    /// into its [`ServingReport`].
    pub(crate) fn report(&self) -> ServingReport {
        self.fold_report(&self.arrivals(), &self.surviving_records())
    }

    /// Arrival times of every injected request, in injection order, for
    /// the empirical-rate fallback of the report.
    fn arrivals(&self) -> Vec<f64> {
        self.slots.iter().map(|slot| slot.request.arrival).collect()
    }

    /// Fold the tallies over `records`, packed out of the slots: the fold
    /// walks them once per statistic.
    fn fold_report(&self, times: &[f64], records: &[RequestRecord]) -> ServingReport {
        let kv_tallies = self.paged().then(|| KvTallies {
            block_tokens: self.pool.block_tokens(),
            block_bytes: self.pool.block_bytes(),
            capacity_blocks: self.pool.capacity_blocks(),
            peak_blocks: self.pool.peak_blocks(),
            block_steps: self.kv_block_steps,
            used_token_steps: self.kv_used_token_steps,
            steps: self.kv_steps,
        });
        let prefix_tallies = self.cache.as_ref().map(|cache| PrefixTallies {
            stats: cache.stats(),
            resident_blocks: cache.resident_blocks(),
            resident_tokens: cache.resident_tokens(),
            recomputed_prefill_tokens: self.recomputed_prefill_tokens,
        });
        build_report(
            &self.sim,
            &self.plan.spec,
            times,
            records,
            self.clock,
            self.completed,
            self.generated_tokens,
            self.breakdown,
            self.imbalance_sum,
            self.imbalance_samples,
            kv_tallies,
            self.swap,
            prefix_tallies,
        )
    }

    /// This replica's surviving records (extracted requests excluded), in
    /// injection order.
    pub(crate) fn surviving_records(&self) -> Vec<RequestRecord> {
        self.slots
            .iter()
            .filter(|slot| !slot.extracted)
            .map(|slot| slot.record.clone())
            .collect()
    }

    /// Finish the single-replica drive, in which nothing was extracted:
    /// the aggregate report plus every record, exactly as the monolithic
    /// `simulate()` returned them. The records are moved out of the slots,
    /// which the collect can do in the slots' own allocation.
    pub(crate) fn into_outcome(mut self) -> ServingOutcome {
        debug_assert_eq!(self.extracted_count, 0);
        let times = self.arrivals();
        let records: Vec<RequestRecord> = std::mem::take(&mut self.slots)
            .into_iter()
            .map(|slot| slot.record)
            .collect();
        ServingOutcome {
            report: self.fold_report(&times, &records),
            records,
        }
    }
}
