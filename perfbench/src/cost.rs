//! Cost-model timings: whole `decode_cost` / `chunked_step_cost` calls on
//! fixed batch shapes, and, for the sparse `hermes()` engine, its per-step
//! call pattern replayed one layer function at a time.

use std::hint::black_box;
use std::time::{Duration, Instant};

use hermes_core::{
    BatchState, HermesError, MappingPolicy, NeuronPlan, OnlineAdjustment, PrefillChunk, SystemKind,
};
use hermes_model::Block;
use hermes_ndp::NdpDimm;
use hermes_scheduler::ColdPlacementPolicy;
use hermes_sparsity::{NeuronPopularity, SparsityProfile, StatisticalActivityModel};

use crate::util::{median, percentile, Metrics};
use crate::workloads::Workload;

/// Most samples per batch shape; fewer when the shape's time slice ends.
const MAX_SAMPLES: usize = 2_000;
const MIN_SAMPLES: usize = 50;
/// Calls shorter than this are timed in groups, so one clock read pair is
/// small against the time it brackets.
const MIN_SAMPLE_NS: f64 = 10_000.0;
/// Decode steps per remapping window of the sparse engine (the engine's
/// own window length).
const REMAP_WINDOW: usize = 5;
/// Batch size of the sub-layer replay, matching the `b128-d16` shape.
const REPLAY_BATCH: usize = 128;

/// The decode batch shapes: `b` sequences over `d` distinct context
/// lengths.
fn shapes() -> Vec<(&'static str, BatchState)> {
    vec![
        ("b1-d1", BatchState::uniform(1, 256)),
        ("b128-d1", BatchState::uniform(128, 256)),
        ("b128-d16", b128_d16()),
        (
            "b128-d128",
            BatchState::from_groups((0..128).map(|i| (64 + 4 * i, 1)).collect()),
        ),
    ]
}

fn b128_d16() -> BatchState {
    BatchState::from_groups((0..16).map(|i| (64 + 32 * i, 8)).collect())
}

/// Time `call` repeatedly within `slice`; per-call nanoseconds, one sample
/// per (group of) call(s).
fn sample_calls(slice: Duration, mut call: impl FnMut()) -> Vec<f64> {
    let t = Instant::now();
    call();
    let first = t.elapsed().as_nanos() as f64;
    let group = (MIN_SAMPLE_NS / first.max(1.0)).ceil().clamp(1.0, 1_000.0) as usize;
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_SAMPLES || (samples.len() < MAX_SAMPLES && start.elapsed() < slice) {
        let t = Instant::now();
        for _ in 0..group {
            call();
        }
        samples.push(t.elapsed().as_nanos() as f64 / group as f64);
    }
    samples
}

/// Cost-model metrics of `w`'s engine; `budget` bounds the time spent.
/// Returns the mean `decode_cost` call on the `b128-d16` shape, in ns.
pub fn run(w: &Workload, budget: Duration, m: &mut Metrics) -> Result<f64, HermesError> {
    let template = &w.scenario.template;
    let slice = budget / 8;
    let mut b128_d16_mean = 0.0;
    for (name, batch) in shapes() {
        // A fresh plan per shape, so every shape starts at step 0.
        let mut plan = w.kind.engine(&w.config).plan(template)?;
        let samples = sample_calls(slice, || {
            black_box(plan.cost.decode_cost(black_box(&batch)));
        });
        if name == "b128-d16" {
            b128_d16_mean = samples.iter().sum::<f64>() / samples.len() as f64;
        }
        m.push(
            format!("cost.decode_ns.{name}.p50"),
            percentile(&samples, 50.0),
            "ns",
            samples.len(),
        );
        m.push(
            format!("cost.decode_ns.{name}.p99"),
            percentile(&samples, 99.0),
            "ns",
            samples.len(),
        );
    }
    let mut plan = w.kind.engine(&w.config).plan(template)?;
    let chunks = vec![
        PrefillChunk {
            prompt_len: 512,
            tokens: 64,
        };
        8
    ];
    let batch = b128_d16();
    let samples = sample_calls(slice, || {
        black_box(
            plan.cost
                .chunked_step_cost(black_box(&chunks), black_box(&batch)),
        );
    });
    m.push("cost.chunked_ns", median(&samples), "ns", samples.len());

    if w.kind == SystemKind::hermes() {
        sparse_layers(w, budget / 4, m)?;
    } else {
        // Hermes-base prices whole layers: it has no activity model, hot
        // set, DIMM placement or remapping to time.
        for name in [
            "cost.activity_ns",
            "cost.split_ns",
            "cost.dimm_load_ns",
            "cost.gemv_ns",
            "cost.remap_ns",
            "cost.uncovered_frac",
            "setup.neuron_plan_s",
        ] {
            let unit = match name {
                "cost.uncovered_frac" => "frac",
                "setup.neuron_plan_s" => "s",
                _ => "ns",
            };
            m.push(name, 0.0, unit, 0);
        }
    }
    Ok(b128_d16_mean)
}

/// Replay the sparse engine's per-step call pattern on the inputs its plan
/// is built from, timing each layer function's share of a step:
///
/// - activity: `StatisticalActivityModel::next_token`;
/// - split: `BlockActivity::expected_active`/`expected_union` over the hot
///   sums (twice each per block, as the engine calls them);
/// - dimm_load: `BlockColdPlacement::dimm_loads`/`dimm_union_loads`;
/// - gemv: `NdpDimm::gemv_time` per DIMM per block, plus `attention_time`
///   per context group;
/// - remap: the window's multiplier bookkeeping and
///   `BlockColdPlacement::rebalance`, per window.
///
/// Each replayed step alternates with one whole `decode_cost` call of the
/// engine on the same batch shape, so both see the same machine state; the
/// share of the whole call the timed functions leave unexplained is
/// reported.
fn sparse_layers(w: &Workload, budget: Duration, m: &mut Metrics) -> Result<(), HermesError> {
    let template = &w.scenario.template;
    let cfg = template.model_config();
    let profile = SparsityProfile::for_model_on(&cfg, template.dataset);
    let popularity = NeuronPopularity::generate(&cfg, &profile, template.seed);
    let mut activity = StatisticalActivityModel::new(&cfg, &profile, template.seed);
    let gpu_budget = w
        .config
        .gpu
        .usable_weight_bytes()
        .saturating_sub(cfg.memory_footprint().dense_resident_bytes());
    let num_dimms = w.config.num_dimms;
    let build = || {
        NeuronPlan::build(
            &cfg,
            &profile,
            &popularity,
            &activity,
            gpu_budget,
            // With online adjustment the engine plans on the oracle ranking.
            MappingPolicy::Oracle,
            num_dimms,
            ColdPlacementPolicy::Contiguous,
            template.seed,
        )
    };
    let mut plan_samples = Vec::new();
    let mut plan = None;
    for _ in 0..3 {
        let t = Instant::now();
        let p = build();
        plan_samples.push(t.elapsed().as_secs_f64());
        plan = Some(p);
    }
    let mut plan = plan.expect("the plan was built");
    m.push(
        "setup.neuron_plan_s",
        median(&plan_samples),
        "s",
        plan_samples.len(),
    );

    let mut engine = w.kind.engine(&w.config).plan(template)?;
    let dimm = NdpDimm::new(w.config.dimm.clone());
    let shape = cfg.layer_shape();
    let quality = OnlineAdjustment::Full.tracking_quality();
    let batch = b128_d16();
    let b = REPLAY_BATCH;
    let mut window: Vec<[Vec<f64>; 2]> = Vec::new();
    let (mut t_act, mut t_split, mut t_load, mut t_gemv, mut t_remap, mut t_decode) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let ns = |from: Instant, to: Instant| (to - from).as_nanos() as f64;
    let start = Instant::now();
    let mut steps = 0;
    while steps < 2 * REMAP_WINDOW || start.elapsed() < budget || steps % REMAP_WINDOW != 0 {
        let t0 = Instant::now();
        black_box(engine.cost.decode_cost(black_box(&batch)));
        t_decode += ns(t0, Instant::now());

        let t0 = Instant::now();
        let token = activity.next_token();
        let t1 = Instant::now();
        t_act += ns(t0, t1);

        // The engine's order: per layer and block, the hot/cold split, the
        // per-DIMM loads, then one GEMV per DIMM. The clock is read between
        // the phases of each block.
        let mut worst_sum = 0.0;
        for layer in 0..cfg.num_layers {
            for (bi, block) in Block::ALL.into_iter().enumerate() {
                let t0 = Instant::now();
                let ba = token.block(layer, block);
                let hot = &plan.hot[layer][bi];
                let _hot_active = black_box(ba.expected_active(hot) * quality);
                let _hot_union = black_box(ba.expected_union(hot, b) * quality);
                let spill_active = ba.expected_active(hot) * (1.0 - quality);
                let spill_union = ba.expected_union(hot, b) * (1.0 - quality);
                let t1 = Instant::now();
                let placement = plan.cold_placement.block(layer, block);
                let per_seq = placement.dimm_loads(ba);
                let per_union = placement.dimm_union_loads(ba, b);
                let t2 = Instant::now();
                let neuron_bytes = cfg.neuron_weight_bytes(block) as f64;
                let neuron_flops = cfg.neuron_flops(block) as f64;
                let mut worst: f64 = 0.0;
                for d in 0..num_dimms {
                    let union = per_union[d] + spill_union / num_dimms as f64;
                    let seq = per_seq[d] + spill_active / num_dimms as f64;
                    worst = worst.max(dimm.gemv_time(
                        (union * neuron_bytes) as u64,
                        (seq * neuron_flops) as u64,
                        b,
                    ));
                }
                worst_sum += worst;
                let t3 = Instant::now();
                t_split += ns(t0, t1);
                t_load += ns(t1, t2);
                t_gemv += ns(t2, t3);
            }
        }
        let t0 = Instant::now();
        for &(kv_len, count) in batch.context_groups() {
            worst_sum += dimm.attention_time(
                shape.attention_kv_bytes(kv_len) / num_dimms as u64,
                shape.attention_flops(kv_len) / num_dimms as u64,
                count,
            );
        }
        black_box(worst_sum);
        let t1 = Instant::now();
        t_gemv += ns(t0, t1);

        if window.is_empty() {
            window = (0..cfg.num_layers)
                .map(|l| Block::ALL.map(|blk| vec![0.0; token.block(l, blk).num_clusters()]))
                .collect();
        }
        for (l, sums) in window.iter_mut().enumerate() {
            for (bi, block) in Block::ALL.into_iter().enumerate() {
                let ba = token.block(l, block);
                for (c, slot) in sums[bi].iter_mut().enumerate() {
                    *slot += ba.multiplier(c);
                }
            }
        }
        steps += 1;
        if steps % REMAP_WINDOW == 0 {
            let mut moved = 0.0;
            for (l, sums) in window.iter_mut().enumerate() {
                for (bi, block) in Block::ALL.into_iter().enumerate() {
                    let avg: Vec<f64> = sums[bi].iter().map(|s| s / REMAP_WINDOW as f64).collect();
                    moved += plan.cold_placement.block_mut(l, block).rebalance(&avg);
                    sums[bi].iter_mut().for_each(|s| *s = 0.0);
                }
            }
            black_box(moved);
        }
        t_remap += ns(t1, Instant::now());
    }
    let per_step = |total: f64| total / steps as f64;
    let windows = steps / REMAP_WINDOW;
    m.push("cost.activity_ns", per_step(t_act), "ns", steps);
    m.push("cost.split_ns", per_step(t_split), "ns", steps);
    m.push("cost.dimm_load_ns", per_step(t_load), "ns", steps);
    m.push("cost.gemv_ns", per_step(t_gemv), "ns", steps);
    m.push("cost.remap_ns", t_remap / windows as f64, "ns", windows);
    let covered = t_act + t_split + t_load + t_gemv + t_remap;
    m.push(
        "cost.uncovered_frac",
        1.0 - covered / t_decode,
        "frac",
        steps,
    );
    Ok(())
}
