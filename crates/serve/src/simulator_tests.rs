//! The test suite of the simulator module, split out so the module
//! itself stays navigable; compiled back in via `#[path]` as
//! `simulator::tests`, so `super::*` still resolves to the simulator.

use super::*;
use crate::replica::BoundaryOutcome;
use crate::scheduler::request_kv_bytes;
use hermes_core::{DistributionStats, RequestClass, RequestLength};
use hermes_model::ModelId;

fn template() -> Workload {
    let mut w = Workload::paper_default(ModelId::Opt13B);
    w.prompt_len = 32;
    w.gen_len = 8;
    w
}

fn config() -> SystemConfig {
    SystemConfig::paper_default()
}

fn request(id: usize, arrival: f64, prompt_len: usize, gen_len: usize) -> ServingRequest {
    ServingRequest {
        id,
        arrival,
        prompt_len,
        gen_len,
        class: RequestClass::default(),
        prefix: Vec::new(),
    }
}

/// `simulate`, driven one token boundary at a time with the replica audit
/// after every boundary; the outcome must be exactly `simulate`'s. Two
/// replays then hand work back halfway through the run and re-inject it
/// into the same replica, audited at every boundary until everything
/// completes: a drain (`extract_pending`: the not-yet-arrived tail and the
/// never-admitted waiters) and a failure (`extract_all`: everything in
/// flight, with the replica's memory reset).
fn simulate_audited(kind: SystemKind, sim: &ServingSimulation) -> ServingOutcome {
    let mut replica = loaded_replica(kind, &config(), sim).unwrap();
    replica.audit();
    while replica.step_boundary(f64::INFINITY).unwrap() != BoundaryOutcome::Idle {
        replica.audit();
    }
    let outcome = replica.into_outcome();
    let plain = simulate(kind, &config(), sim).unwrap();
    assert_eq!(
        format!("{outcome:?}"),
        format!("{plain:?}"),
        "the boundary-by-boundary drive diverged from simulate"
    );

    let mid = outcome.report.makespan / 2.0;
    for fail in [false, true] {
        let mut replay = loaded_replica(kind, &config(), sim).unwrap();
        while replay.clock() < mid && replay.step_boundary(mid).unwrap() != BoundaryOutcome::Idle {
            replay.audit();
        }
        let carried = if fail {
            replay.extract_all()
        } else {
            replay.extract_pending()
        };
        replay.audit();
        // Work comes back at the hand-back time, and the not-yet-arrived
        // tail no earlier than it first arrived.
        let restart = replay.clock();
        for slot in carried {
            let at = slot.request.arrival.max(restart);
            replay.inject_carried(slot, at);
        }
        while replay.step_boundary(f64::INFINITY).unwrap() != BoundaryOutcome::Idle {
            replay.audit();
        }
        assert_eq!(
            replay.completed(),
            sim.num_requests,
            "{} lost requests",
            if fail { "failover" } else { "drain" }
        );
    }
    outcome
}

/// Regression for the re-validation hole: a sampled request with a
/// larger prompt but *smaller total* than the template (e.g. template
/// 128+128, request 200+8) was never re-validated, because the old code
/// only re-planned the request maximizing `prompt_len + gen_len` and
/// only when that sum exceeded the template's. The max-prompt request
/// must now produce a re-validation bound of its own.
#[test]
fn worst_case_bounds_cover_larger_prompt_with_smaller_total() {
    let template = Workload::paper_default(ModelId::Opt13B); // 128 + 128
    let requests = vec![request(0, 0.0, 200, 8)];
    let bounds = worst_case_bounds(&template, &requests);
    assert_eq!(bounds.len(), 1, "max-prompt request must be re-validated");
    assert_eq!(bounds[0].prompt_len, 200);
    assert_eq!(bounds[0].gen_len, 8);
}

#[test]
fn worst_case_bounds_cover_both_extremes_and_dedupe() {
    let template = Workload::paper_default(ModelId::Opt13B); // 128 + 128
                                                             // Distinct max-prompt (200+8) and max-total (100+200) requests:
                                                             // both must be re-validated.
    let requests = vec![
        request(0, 0.0, 200, 8),
        request(1, 0.0, 100, 200),
        request(2, 0.0, 64, 64),
    ];
    let mut pairs: Vec<(usize, usize)> = worst_case_bounds(&template, &requests)
        .iter()
        .map(|b| (b.prompt_len, b.gen_len))
        .collect();
    pairs.sort_unstable();
    assert_eq!(pairs, vec![(100, 200), (200, 8)]);

    // One request embodying both extremes yields a single bound.
    let one = vec![request(0, 0.0, 300, 300)];
    assert_eq!(worst_case_bounds(&template, &one).len(), 1);

    // Requests within the template need no re-validation at all.
    let covered = vec![request(0, 0.0, 64, 64), request(1, 0.0, 128, 128)];
    assert!(worst_case_bounds(&template, &covered).is_empty());
    assert!(worst_case_bounds(&template, &[]).is_empty());
}

#[test]
fn all_at_once_continuous_and_static_agree_without_caps() {
    // With every request present at time zero and no caps, both
    // policies admit everything immediately and run the same batch.
    let sim = ServingSimulation::new(template(), ArrivalProcess::AllAtOnce, 4);
    let continuous = simulate(SystemKind::hermes(), &config(), &sim).unwrap();
    let static_ = simulate(
        SystemKind::hermes(),
        &config(),
        &sim.clone().with_policy(BatchingPolicy::Static),
    )
    .unwrap();
    assert_eq!(continuous.records, static_.records);
    assert!((continuous.report.makespan - static_.report.makespan).abs() < 1e-12);
}

#[test]
fn max_batch_cap_limits_concurrency() {
    let sim = ServingSimulation::new(template(), ArrivalProcess::AllAtOnce, 6)
        .with_admission(AdmissionConfig::unlimited().with_max_batch(2));
    let outcome = simulate(SystemKind::hermes_base(), &config(), &sim).unwrap();
    // FCFS: requests finish in waves of two; later waves queue longer.
    let records = &outcome.records;
    assert!(records[0].queue_delay() < 1e-12);
    assert!(records[2].queue_delay() > 0.0);
    assert!(records[4].queue_delay() > records[2].queue_delay());
    assert_eq!(outcome.report.completed, 6);
}

#[test]
fn impossible_caps_are_reported() {
    let sim = ServingSimulation::new(template(), ArrivalProcess::AllAtOnce, 2)
        .with_admission(AdmissionConfig::unlimited().with_kv_memory_bytes(1));
    assert!(matches!(
        simulate(SystemKind::hermes_base(), &config(), &sim),
        Err(HermesError::InvalidConfig(_))
    ));
}

#[test]
fn empty_simulations_finish_at_time_zero() {
    let sim = ServingSimulation::new(template(), ArrivalProcess::AllAtOnce, 0);
    let outcome = simulate(SystemKind::hermes_base(), &config(), &sim).unwrap();
    assert_eq!(outcome.report.makespan, 0.0);
    assert_eq!(outcome.report.generated_tokens, 0);
    assert!(outcome.records.is_empty());
}

#[test]
fn idle_gaps_jump_the_clock_to_the_next_arrival() {
    let sim = ServingSimulation::new(
        template(),
        ArrivalProcess::Trace {
            times: vec![0.0, 1000.0],
        },
        2,
    );
    let outcome = simulate(SystemKind::hermes_base(), &config(), &sim).unwrap();
    // The second request starts fresh after a long idle gap, so its
    // queueing delay is zero and the makespan exceeds the gap.
    assert!(outcome.records[1].queue_delay() < 1e-9);
    assert!(outcome.report.makespan > 1000.0);
}

#[test]
fn chunked_prefill_reproduces_total_work_and_generates_everything() {
    // Chunk sizes that do and do not divide the prompt length, budgets
    // above and below the chunk size: every variant completes all
    // requests and generates every token.
    let sim = ServingSimulation::new(template(), ArrivalProcess::Poisson { rate: 0.5 }, 6);
    for (chunk_tokens, budget) in [(8, 16), (5, 5), (7, 3), (64, 64)] {
        let outcome = simulate_audited(
            SystemKind::hermes_base(),
            &sim.clone().with_prefill(PrefillPolicy::Chunked {
                chunk_tokens,
                budget,
            }),
        );
        assert_eq!(outcome.report.completed, 6, "chunk {chunk_tokens}");
        assert_eq!(
            outcome.report.generated_tokens,
            6 * 8,
            "chunk {chunk_tokens}"
        );
        for r in &outcome.records {
            assert!(r.arrival <= r.admitted, "chunk {chunk_tokens}");
            assert!(r.admitted < r.first_token, "chunk {chunk_tokens}");
            assert!(r.first_token <= r.completed, "chunk {chunk_tokens}");
        }
    }
}

#[test]
fn chunked_prefill_amortizes_to_the_stalled_prefill_total() {
    // One request, chunked into 8-token slices: the default cost
    // composition pro-rates the one-shot prefill cost over the chunks,
    // so the total prefill seconds match stall-the-world exactly.
    let sim = ServingSimulation::new(template(), ArrivalProcess::AllAtOnce, 1);
    let stalled = simulate(SystemKind::hermes_base(), &config(), &sim).unwrap();
    let chunked = simulate(
        SystemKind::hermes_base(),
        &config(),
        &sim.clone().with_prefill(PrefillPolicy::Chunked {
            chunk_tokens: 8,
            budget: 8,
        }),
    )
    .unwrap();
    assert!(
        (chunked.report.breakdown.prefill - stalled.report.breakdown.prefill).abs() < 1e-9,
        "chunked prefill total {} vs stalled {}",
        chunked.report.breakdown.prefill,
        stalled.report.breakdown.prefill
    );
    // The lone request's own TTFT is delayed by chunking (its prompt
    // spreads over several boundaries), never improved.
    assert!(chunked.records[0].ttft() >= stalled.records[0].ttft() - 1e-12);
}

#[test]
fn lockstep_chunked_groups_amortize_to_the_stalled_group_total() {
    // Four same-length prompts admitted at one boundary: stall-the-world
    // prefills them as one batched group. With a budget wide enough for
    // all four to advance each boundary, their co-scheduled chunks share
    // a batched pass per step and the total prefill matches exactly.
    let sim = ServingSimulation::new(template(), ArrivalProcess::AllAtOnce, 4);
    let stalled = simulate(SystemKind::hermes_base(), &config(), &sim).unwrap();
    let chunked = simulate(
        SystemKind::hermes_base(),
        &config(),
        &sim.clone().with_prefill(PrefillPolicy::Chunked {
            chunk_tokens: 8,
            budget: 32,
        }),
    )
    .unwrap();
    assert!(
        (chunked.report.breakdown.prefill - stalled.report.breakdown.prefill).abs() < 1e-9,
        "lockstep chunked prefill total {} vs stalled group total {}",
        chunked.report.breakdown.prefill,
        stalled.report.breakdown.prefill
    );
    assert_eq!(chunked.report.completed, 4);
}

#[test]
fn heterogeneous_lengths_thread_into_records_and_kv_accounting() {
    let lengths = vec![
        RequestLength {
            prompt_len: 16,
            gen_len: 4,
        },
        RequestLength {
            prompt_len: 48,
            gen_len: 12,
        },
        RequestLength {
            prompt_len: 16,
            gen_len: 1,
        },
    ];
    let sim = ServingSimulation::new(template(), ArrivalProcess::AllAtOnce, 3).with_lengths(
        LengthDistribution::Trace {
            lengths: lengths.clone(),
        },
    );
    let outcome = simulate(SystemKind::hermes_base(), &config(), &sim).unwrap();
    assert_eq!(outcome.report.generated_tokens, 4 + 12 + 1);
    for (r, l) in outcome.records.iter().zip(&lengths) {
        assert_eq!(r.prompt_len, l.prompt_len);
        assert_eq!(r.gen_len, l.gen_len);
    }
    // The longer request decodes more tokens, so it finishes last.
    assert!(outcome.records[1].completed > outcome.records[0].completed);
}

#[test]
fn same_boundary_groups_stamp_admission_when_their_prefill_starts() {
    // Two prompt-length groups admitted at the same boundary: the second
    // group's prefill only starts after the first group's pass, and its
    // queue delay must say so.
    let sim = ServingSimulation::new(template(), ArrivalProcess::AllAtOnce, 2).with_lengths(
        LengthDistribution::Trace {
            lengths: vec![
                RequestLength {
                    prompt_len: 16,
                    gen_len: 4,
                },
                RequestLength {
                    prompt_len: 48,
                    gen_len: 4,
                },
            ],
        },
    );
    let outcome = simulate(SystemKind::hermes_base(), &config(), &sim).unwrap();
    let [first, second] = &outcome.records[..] else {
        panic!("expected two records");
    };
    assert!(first.queue_delay() < 1e-12);
    assert!(
        second.admitted > first.admitted,
        "second group admitted at {} but first at {}",
        second.admitted,
        first.admitted
    );
    // The gap is exactly the first group's prefill pass.
    assert!(second.queue_delay() > 0.0);
}

#[test]
fn single_token_requests_are_excluded_from_tpot() {
    let single = LengthDistribution::Trace {
        lengths: vec![
            RequestLength {
                prompt_len: 32,
                gen_len: 1,
            };
            3
        ],
    };
    let sim = ServingSimulation::new(template(), ArrivalProcess::AllAtOnce, 3)
        .with_lengths(single.clone());
    let outcome = simulate(SystemKind::hermes_base(), &config(), &sim).unwrap();
    // All requests are single-token: the TPOT sample set is empty, not
    // a pile of zeros.
    assert_eq!(outcome.report.tpot, DistributionStats::default());
    assert!(outcome.report.ttft.mean > 0.0);
    assert!(outcome.report.e2e.mean > 0.0);

    // Mixing in multi-token requests: the TPOT percentiles reflect only
    // them (no zero samples dragging the median down).
    let mixed = LengthDistribution::Trace {
        lengths: vec![
            RequestLength {
                prompt_len: 32,
                gen_len: 1,
            },
            RequestLength {
                prompt_len: 32,
                gen_len: 8,
            },
            RequestLength {
                prompt_len: 32,
                gen_len: 1,
            },
        ],
    };
    let outcome = simulate(
        SystemKind::hermes_base(),
        &config(),
        &ServingSimulation::new(template(), ArrivalProcess::AllAtOnce, 3).with_lengths(mixed),
    )
    .unwrap();
    assert!(
        outcome.report.tpot.p50 > 0.0,
        "p50 TPOT {} polluted by single-token zeros",
        outcome.report.tpot.p50
    );
    assert!(outcome.report.tpot.p50 <= outcome.report.tpot.max);
}

#[test]
fn offered_rps_is_empirical_for_traces_and_spec_for_poisson() {
    let trace = ServingSimulation::new(
        template(),
        ArrivalProcess::Trace {
            times: vec![0.0, 1.0, 2.0, 3.0, 4.0],
        },
        5,
    );
    let outcome = simulate(SystemKind::hermes_base(), &config(), &trace).unwrap();
    // 5 arrivals over a 4-second span: 1 request/s.
    assert!((outcome.report.offered_rps - 1.0).abs() < 1e-12);

    let poisson = ServingSimulation::new(template(), ArrivalProcess::Poisson { rate: 2.5 }, 4);
    let outcome = simulate(SystemKind::hermes_base(), &config(), &poisson).unwrap();
    assert_eq!(outcome.report.offered_rps, 2.5);

    // All-at-once has no arrival span; the empirical rate stays zero.
    let all = ServingSimulation::new(template(), ArrivalProcess::AllAtOnce, 4);
    let outcome = simulate(SystemKind::hermes_base(), &config(), &all).unwrap();
    assert_eq!(outcome.report.offered_rps, 0.0);
}

#[test]
fn oversized_sampled_lengths_fail_memory_validation() {
    // The template fits, but the sampled request's KV footprint cannot:
    // the simulator must propagate the engine's memory check instead of
    // silently producing a report.
    let sim = ServingSimulation::new(template(), ArrivalProcess::AllAtOnce, 1).with_lengths(
        LengthDistribution::Trace {
            lengths: vec![RequestLength {
                prompt_len: 500_000_000,
                gen_len: 8,
            }],
        },
    );
    assert!(matches!(
        simulate(SystemKind::hermes_base(), &config(), &sim),
        Err(HermesError::InsufficientMemory { .. })
    ));
}

/// Regression: a context whose KV bytes overflow `u64` used to wrap to a
/// small byte count in release builds, so the run was accepted and
/// "completed". It must fail with a typed error instead, whether the
/// lengths come from the template or from a trace entry.
#[test]
fn kv_byte_overflow_is_rejected() {
    let huge = usize::MAX / 4;
    let mut w = template();
    w.prompt_len = huge;
    let from_template = ServingSimulation::new(w, ArrivalProcess::AllAtOnce, 1);
    // This entry's `prompt_len + gen_len` itself overflows `usize`.
    let from_trace = ServingSimulation::new(template(), ArrivalProcess::AllAtOnce, 1).with_lengths(
        LengthDistribution::Trace {
            lengths: vec![RequestLength {
                prompt_len: usize::MAX,
                gen_len: 8,
            }],
        },
    );
    for sim in [from_template, from_trace] {
        match simulate(SystemKind::hermes_base(), &config(), &sim) {
            Err(HermesError::InvalidWorkload(msg)) => {
                assert!(msg.contains("overflows"), "{msg}");
            }
            other => panic!("expected InvalidWorkload, got {other:?}"),
        }
    }
    // A paged block whose bytes overflow `u64` must not wrap into an
    // unbounded pool (or panic on the multiply); the reference oracle
    // reports the same error.
    let huge_blocks = ServingSimulation::new(template(), ArrivalProcess::AllAtOnce, 1)
        .with_admission(
            AdmissionConfig::unlimited()
                .with_kv_memory_bytes(1 << 30)
                .with_paged_kv(1 << 50),
        )
        .with_preemption(PreemptionPolicy::EvictAndRefill);
    let expected = simulate(SystemKind::hermes_base(), &config(), &huge_blocks);
    match &expected {
        Err(HermesError::InvalidConfig(msg)) => {
            assert!(
                msg.contains("block_tokens") && msg.contains("overflows"),
                "{msg}"
            );
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    #[cfg(feature = "reference")]
    assert_eq!(
        crate::reference::simulate_reference(SystemKind::hermes_base(), &config(), &huge_blocks),
        expected
    );
}

/// KV budget that fits one template request but not two.
fn one_seat_kv_cap() -> u64 {
    let per_request = request_kv_bytes(&template(), 32, 8);
    per_request * 3 / 2
}

/// KV budget that fits exactly two template requests but not three.
fn two_seat_kv_cap() -> u64 {
    request_kv_bytes(&template(), 32, 8) * 2
}

#[test]
fn priority_preemption_evicts_the_lower_tier_and_everyone_completes() {
    // Request 0 (tier 2) occupies the only KV seat; request 1 (tier 0)
    // arrives mid-run, evicts it, runs to completion, then request 0
    // resumes with recompute. Both prefill policies must agree on the
    // lifecycle accounting.
    for prefill in [
        PrefillPolicy::StallTheWorld,
        PrefillPolicy::Chunked {
            chunk_tokens: 8,
            budget: 8,
        },
    ] {
        let sim = ServingSimulation::new(
            template(),
            ArrivalProcess::Trace {
                times: vec![0.0, 1e-9],
            },
            2,
        )
        .with_admission(AdmissionConfig::unlimited().with_kv_memory_bytes(one_seat_kv_cap()))
        .with_classes(PrioritySpec::Trace {
            classes: vec![RequestClass::new(2), RequestClass::new(0)],
        })
        .with_scheduling(SchedulingPolicy::Priority)
        .with_preemption(PreemptionPolicy::EvictAndRefill)
        .with_prefill(prefill);
        let outcome = simulate_audited(SystemKind::hermes_base(), &sim);
        let name = prefill.name();

        assert_eq!(outcome.report.completed, 2, "{name}");
        assert_eq!(
            outcome.report.generated_tokens, 16,
            "{name}: every token generated once"
        );
        assert_eq!(outcome.report.preemptions, 1, "{name}");
        assert_eq!(outcome.records[0].preemptions, 1, "{name}");
        assert_eq!(outcome.records[1].preemptions, 0, "{name}");
        // The high-priority request overtakes: it completes first even
        // though the low-priority one started first.
        assert!(
            outcome.records[1].completed < outcome.records[0].completed,
            "{name}: high class completed {} vs low {}",
            outcome.records[1].completed,
            outcome.records[0].completed
        );
        // Lifecycle stays ordered through the eviction.
        for r in &outcome.records {
            assert!(r.arrival <= r.admitted, "{name}");
            assert!(r.admitted < r.first_token, "{name}");
            assert!(r.first_token <= r.completed, "{name}");
        }
        // Per-class accounting: the preemption is charged to tier 2.
        assert_eq!(outcome.report.class(0).unwrap().preemptions, 0, "{name}");
        assert_eq!(outcome.report.class(2).unwrap().preemptions, 1, "{name}");
        assert_eq!(outcome.report.scheduling, "priority", "{name}");
        assert_eq!(
            outcome.report.preemption_policy, "evict-and-refill",
            "{name}"
        );

        // Restart-with-recompute is paid in prefill seconds: the same
        // scenario without preemption does strictly less prefill work.
        let unpreempted = simulate(
            SystemKind::hermes_base(),
            &config(),
            &sim.clone().with_preemption(PreemptionPolicy::None),
        )
        .unwrap();
        assert_eq!(unpreempted.report.preemptions, 0, "{name}");
        assert!(
            outcome.report.breakdown.prefill > unpreempted.report.breakdown.prefill,
            "{name}: preemptive prefill {} vs unpreempted {}",
            outcome.report.breakdown.prefill,
            unpreempted.report.breakdown.prefill
        );
        // The point of evicting: the high-priority request's TTFT
        // strictly improves over waiting for the seat.
        assert!(
            outcome.records[1].ttft() < unpreempted.records[1].ttft(),
            "{name}: preemptive TTFT {} vs unpreempted {}",
            outcome.records[1].ttft(),
            unpreempted.records[1].ttft()
        );
    }
}

#[test]
fn fcfs_never_preempts_even_with_eviction_enabled() {
    // Under FCFS no request outranks another, so EvictAndRefill is
    // bitwise inert.
    let sim = ServingSimulation::new(
        template(),
        ArrivalProcess::Trace {
            times: vec![0.0, 1e-9],
        },
        2,
    )
    .with_admission(AdmissionConfig::unlimited().with_kv_memory_bytes(one_seat_kv_cap()))
    .with_classes(PrioritySpec::Trace {
        classes: vec![RequestClass::new(2), RequestClass::new(0)],
    })
    .with_preemption(PreemptionPolicy::EvictAndRefill);
    let preemptive = simulate(SystemKind::hermes_base(), &config(), &sim).unwrap();
    let plain = simulate(
        SystemKind::hermes_base(),
        &config(),
        &sim.clone().with_preemption(PreemptionPolicy::None),
    )
    .unwrap();
    assert_eq!(preemptive.report.preemptions, 0);
    assert_eq!(preemptive.records, plain.records);
}

#[test]
fn priority_orders_the_ready_queue_with_fcfs_within_a_tier() {
    // Three queued requests, one seat: the tier-0 request jumps the
    // queue, and the two tier-1 requests keep their arrival order.
    let sim = ServingSimulation::new(template(), ArrivalProcess::AllAtOnce, 3)
        .with_admission(AdmissionConfig::unlimited().with_max_batch(1))
        .with_classes(PrioritySpec::Trace {
            classes: vec![
                RequestClass::new(1),
                RequestClass::new(0),
                RequestClass::new(1),
            ],
        })
        .with_scheduling(SchedulingPolicy::Priority);
    let outcome = simulate(SystemKind::hermes_base(), &config(), &sim).unwrap();
    let [a, b, c] = &outcome.records[..] else {
        panic!("expected three records");
    };
    assert!(b.admitted < a.admitted, "tier 0 admitted first");
    assert!(a.admitted < c.admitted, "FCFS within tier 1");
}

#[test]
fn edf_orders_by_absolute_deadline_with_best_effort_last() {
    let sim = ServingSimulation::new(template(), ArrivalProcess::AllAtOnce, 3)
        .with_admission(AdmissionConfig::unlimited().with_max_batch(1))
        .with_classes(PrioritySpec::Trace {
            classes: vec![
                RequestClass::new(0).with_ttft_deadline(100.0),
                RequestClass::new(0).with_ttft_deadline(1.0),
                RequestClass::new(0),
            ],
        })
        .with_scheduling(SchedulingPolicy::Edf);
    let outcome = simulate(SystemKind::hermes_base(), &config(), &sim).unwrap();
    let [loose, tight, best_effort] = &outcome.records[..] else {
        panic!("expected three records");
    };
    assert!(tight.admitted < loose.admitted, "tightest deadline first");
    assert!(loose.admitted < best_effort.admitted, "best effort last");
}

#[test]
fn slo_attainment_reflects_met_and_missed_deadlines() {
    // Two deadline-carrying requests sharing one seat: the first meets
    // its generous deadline, the second misses an impossible one.
    let sim = ServingSimulation::new(template(), ArrivalProcess::AllAtOnce, 2)
        .with_admission(AdmissionConfig::unlimited().with_max_batch(1))
        .with_classes(PrioritySpec::Trace {
            classes: vec![
                RequestClass::new(0).with_ttft_deadline(1e9),
                RequestClass::new(0).with_ttft_deadline(1e-12),
            ],
        });
    let outcome = simulate(SystemKind::hermes_base(), &config(), &sim).unwrap();
    assert_eq!(outcome.records[0].met_ttft_deadline(), Some(true));
    assert_eq!(outcome.records[1].met_ttft_deadline(), Some(false));
    assert!((outcome.report.slo_attainment().unwrap() - 0.5).abs() < 1e-12);
    let class = outcome.report.class(0).unwrap();
    assert_eq!(class.deadline_requests, 2);
    assert_eq!(class.deadline_met, 1);

    // Class-free scenarios report no attainment at all.
    let plain = ServingSimulation::new(template(), ArrivalProcess::AllAtOnce, 2);
    let outcome = simulate(SystemKind::hermes_base(), &config(), &plain).unwrap();
    assert_eq!(outcome.report.slo_attainment(), None);
    assert_eq!(outcome.report.per_class.len(), 1);
    assert_eq!(outcome.report.preemptions, 0);
}

#[test]
fn equal_rank_ready_requests_keep_arrival_order() {
    // Coverage audit before the heap rewrite: equal primary ranks must
    // never reorder — admission is FCFS inside a priority tier and
    // inside an equal EDF deadline, even through a one-seat bottleneck.
    for (scheduling, classes) in [
        (
            SchedulingPolicy::Priority,
            PrioritySpec::Trace {
                classes: vec![RequestClass::new(1); 4],
            },
        ),
        (
            SchedulingPolicy::Edf,
            PrioritySpec::Trace {
                classes: vec![RequestClass::new(0).with_ttft_deadline(5.0); 4],
            },
        ),
    ] {
        let sim = ServingSimulation::new(template(), ArrivalProcess::AllAtOnce, 4)
            .with_admission(AdmissionConfig::unlimited().with_max_batch(1))
            .with_classes(classes)
            .with_scheduling(scheduling);
        let outcome = simulate(SystemKind::hermes_base(), &config(), &sim).unwrap();
        for pair in outcome.records.windows(2) {
            assert!(
                pair[0].admitted < pair[1].admitted,
                "{}: equal ranks must admit in arrival order",
                scheduling.name()
            );
        }
    }
}

#[test]
fn eviction_picks_the_latest_arrival_within_the_worst_tier() {
    // Two equal-tier sequences hold both seats; a tier-0 waiter evicts
    // exactly one victim. The tie-break inside the worst rank is
    // latest-arrival-first, so request 1 — not request 0 — must pay.
    let sim = ServingSimulation::new(
        template(),
        ArrivalProcess::Trace {
            times: vec![0.0, 1e-9, 0.2],
        },
        3,
    )
    .with_admission(AdmissionConfig::unlimited().with_kv_memory_bytes(two_seat_kv_cap()))
    .with_classes(PrioritySpec::Trace {
        classes: vec![
            RequestClass::new(2),
            RequestClass::new(2),
            RequestClass::new(0),
        ],
    })
    .with_scheduling(SchedulingPolicy::Priority)
    .with_preemption(PreemptionPolicy::EvictAndRefill);
    let outcome = simulate(SystemKind::hermes_base(), &config(), &sim).unwrap();
    assert_eq!(outcome.report.completed, 3);
    assert_eq!(outcome.report.preemptions, 1);
    assert_eq!(
        outcome.records[0].preemptions, 0,
        "earlier arrival within the tier must be spared"
    );
    assert_eq!(
        outcome.records[1].preemptions, 1,
        "latest arrival within the worst tier is evicted first"
    );
    assert_eq!(outcome.records[2].preemptions, 0);
}

#[test]
fn eviction_prefers_worse_tiers_over_later_arrivals() {
    // A tier-2 sequence arrived *before* a tier-1 sequence; a tier-0
    // waiter needs one seat. Rank dominates arrival order: the tier-2
    // sequence is evicted even though it is the older one.
    let sim = ServingSimulation::new(
        template(),
        ArrivalProcess::Trace {
            times: vec![0.0, 1e-9, 0.2],
        },
        3,
    )
    .with_admission(AdmissionConfig::unlimited().with_kv_memory_bytes(two_seat_kv_cap()))
    .with_classes(PrioritySpec::Trace {
        classes: vec![
            RequestClass::new(2),
            RequestClass::new(1),
            RequestClass::new(0),
        ],
    })
    .with_scheduling(SchedulingPolicy::Priority)
    .with_preemption(PreemptionPolicy::EvictAndRefill);
    let outcome = simulate(SystemKind::hermes_base(), &config(), &sim).unwrap();
    assert_eq!(outcome.report.preemptions, 1);
    assert_eq!(outcome.records[0].preemptions, 1, "worst tier pays first");
    assert_eq!(outcome.records[1].preemptions, 0);
}

#[test]
fn eviction_never_strikes_within_the_waiters_own_tier() {
    // Both seats held by tier-1 sequences and a tier-1 waiter blocked:
    // preemption compares primary ranks strictly, so nothing is evicted
    // and the waiter queues until a seat frees naturally.
    let sim = ServingSimulation::new(
        template(),
        ArrivalProcess::Trace {
            times: vec![0.0, 1e-9, 2e-9],
        },
        3,
    )
    .with_admission(AdmissionConfig::unlimited().with_kv_memory_bytes(two_seat_kv_cap()))
    .with_classes(PrioritySpec::Trace {
        classes: vec![RequestClass::new(1); 3],
    })
    .with_scheduling(SchedulingPolicy::Priority)
    .with_preemption(PreemptionPolicy::EvictAndRefill);
    let outcome = simulate(SystemKind::hermes_base(), &config(), &sim).unwrap();
    assert_eq!(outcome.report.preemptions, 0);
    assert_eq!(outcome.report.completed, 3);
    assert!(
        outcome.records[2].queue_delay() > 0.0,
        "the same-tier waiter queues instead of evicting"
    );
}

#[test]
fn multi_victim_eviction_frees_exactly_enough_seats() {
    // The waiter needs two seats' worth of KV while two single-seat
    // sequences hold the pool: both are evicted (smallest sufficient
    // victim prefix), the big request runs, and the victims resume.
    let sim = ServingSimulation::new(
        template(),
        ArrivalProcess::Trace {
            times: vec![0.0, 1e-9, 0.2],
        },
        3,
    )
    .with_lengths(LengthDistribution::Trace {
        lengths: vec![
            RequestLength {
                prompt_len: 32,
                gen_len: 8,
            },
            RequestLength {
                prompt_len: 32,
                gen_len: 8,
            },
            RequestLength {
                prompt_len: 64,
                gen_len: 16,
            },
        ],
    })
    .with_admission(
        // 2.5 single seats: fits both small requests, or the double-
        // sized one alone.
        AdmissionConfig::unlimited().with_kv_memory_bytes(two_seat_kv_cap()),
    )
    .with_classes(PrioritySpec::Trace {
        classes: vec![
            RequestClass::new(2),
            RequestClass::new(2),
            RequestClass::new(0),
        ],
    })
    .with_scheduling(SchedulingPolicy::Priority)
    .with_preemption(PreemptionPolicy::EvictAndRefill);
    let outcome = simulate(SystemKind::hermes_base(), &config(), &sim).unwrap();
    assert_eq!(outcome.report.completed, 3);
    assert_eq!(outcome.report.preemptions, 2, "both seat-holders evicted");
    assert_eq!(outcome.records[0].preemptions, 1);
    assert_eq!(outcome.records[1].preemptions, 1);
    assert_eq!(outcome.report.generated_tokens, 8 + 8 + 16);
    assert!(
        outcome.records[2].completed < outcome.records[0].completed,
        "the tier-0 request overtakes both victims"
    );
}

#[test]
fn empty_ready_queue_boundaries_admit_mid_decode_arrivals() {
    // The ready queue empties after the first admission, the system
    // keeps decoding through empty-queue boundaries, and a mid-decode
    // arrival is admitted at the next token boundary without disturbing
    // the running sequence.
    let sim = ServingSimulation::new(
        template(),
        ArrivalProcess::Trace {
            times: vec![0.0, 1e-6],
        },
        2,
    );
    let outcome = simulate(SystemKind::hermes_base(), &config(), &sim).unwrap();
    assert_eq!(outcome.report.completed, 2);
    // The joiner was admitted while request 0 was mid-flight: strictly
    // after its own arrival (a boundary had to come up) and strictly
    // before request 0 completed.
    assert!(outcome.records[1].admitted >= outcome.records[1].arrival);
    assert!(outcome.records[1].admitted < outcome.records[0].completed);
    assert_eq!(outcome.report.preemptions, 0);
}

#[test]
fn invalid_prefill_policies_are_rejected() {
    let sim = ServingSimulation::new(template(), ArrivalProcess::AllAtOnce, 1).with_prefill(
        PrefillPolicy::Chunked {
            chunk_tokens: 0,
            budget: 4,
        },
    );
    assert!(matches!(
        simulate(SystemKind::hermes_base(), &config(), &sim),
        Err(HermesError::InvalidConfig(_))
    ));
}

#[test]
fn unbounded_paged_accounting_reproduces_reserve_bitwise() {
    // With no KV budget the paged pool never constrains admission, so
    // switching the accounting mode must not move a single clock stamp
    // — the pool only adds its usage report.
    let base = ServingSimulation::new(template(), ArrivalProcess::Poisson { rate: 2.0 }, 10)
        .with_arrival_seed(17)
        .with_admission(AdmissionConfig::unlimited().with_max_batch(3))
        .with_lengths(LengthDistribution::Uniform {
            prompt_min: 8,
            prompt_max: 40,
            gen_min: 1,
            gen_max: 10,
        })
        .with_prefill(PrefillPolicy::Chunked {
            chunk_tokens: 8,
            budget: 16,
        });
    let reserve = simulate(SystemKind::hermes_base(), &config(), &base).unwrap();
    let paged = simulate(
        SystemKind::hermes_base(),
        &config(),
        &base.clone().with_admission(
            AdmissionConfig::unlimited()
                .with_max_batch(3)
                .with_paged_kv(16),
        ),
    )
    .unwrap();
    assert_eq!(paged.records, reserve.records);
    assert!(reserve.report.kv.is_none());
    let kv = paged.report.kv.clone().expect("paged accounting reports");
    assert_eq!(kv.block_tokens, 16);
    assert_eq!(kv.capacity_blocks, None);
    assert!(kv.peak_blocks > 0);
    assert!((0.0..=1.0).contains(&kv.fragmentation), "{kv:?}");
    let mut stripped = paged.report.clone();
    stripped.kv = None;
    assert_eq!(stripped, reserve.report);
}

#[test]
fn paged_admission_packs_more_requests_into_the_same_budget() {
    // Six decode-heavy requests (prompt 8, gen 32) under a KV budget
    // sized for two worst-case reservations. Reserve admission charges
    // the full 40-token footprint up front and seats two; paged
    // admission charges only the blocks the context actually needs
    // (9 tokens at admission) and seats all six, so queueing delay
    // collapses.
    let mut w = template();
    w.prompt_len = 8;
    w.gen_len = 32;
    let budget = request_kv_bytes(&w, 8, 32) * 2;
    let base = ServingSimulation::new(w, ArrivalProcess::AllAtOnce, 6)
        .with_preemption(PreemptionPolicy::EvictAndRefill);
    let reserve = simulate(
        SystemKind::hermes_base(),
        &config(),
        &base
            .clone()
            .with_admission(AdmissionConfig::unlimited().with_kv_memory_bytes(budget)),
    )
    .unwrap();
    let paged = simulate_audited(
        SystemKind::hermes_base(),
        &base.clone().with_admission(
            AdmissionConfig::unlimited()
                .with_kv_memory_bytes(budget)
                .with_paged_kv(4),
        ),
    );
    assert_eq!(reserve.report.completed, 6);
    assert_eq!(paged.report.completed, 6);
    assert!(
        paged.report.queue_delay.mean < reserve.report.queue_delay.mean,
        "paged queue delay {} vs reserve {}",
        paged.report.queue_delay.mean,
        reserve.report.queue_delay.mean
    );
    let kv = paged.report.kv.as_ref().expect("paged pool report");
    assert!(kv.utilization.is_some() && kv.peak_utilization.is_some());
    assert!(kv.peak_utilization.unwrap() <= 1.0 + 1e-12, "{kv:?}");
}

#[test]
fn swap_out_resumes_without_recompute() {
    // Same single-seat preemption scenario as the EvictAndRefill
    // lifecycle test: tier 0 evicts tier 2 mid-decode. Under SwapOut
    // the victim's pages move to the swap tier and back instead of
    // being recomputed, so the swap run does strictly less prefill
    // work, pays for it in communication seconds, and still generates
    // every token exactly once.
    let sim = ServingSimulation::new(
        template(),
        ArrivalProcess::Trace {
            times: vec![0.0, 1e-9],
        },
        2,
    )
    .with_admission(AdmissionConfig::unlimited().with_kv_memory_bytes(one_seat_kv_cap()))
    .with_classes(PrioritySpec::Trace {
        classes: vec![RequestClass::new(2), RequestClass::new(0)],
    })
    .with_scheduling(SchedulingPolicy::Priority)
    .with_preemption(PreemptionPolicy::EvictAndRefill);
    let evicted = simulate(SystemKind::hermes_base(), &config(), &sim).unwrap();
    let swapped = simulate_audited(
        SystemKind::hermes_base(),
        &sim.clone().with_preemption(PreemptionPolicy::SwapOut),
    );

    assert_eq!(swapped.report.completed, 2);
    assert_eq!(swapped.report.generated_tokens, 16);
    assert_eq!(swapped.report.preemptions, 1);
    assert_eq!(swapped.records[0].preemptions, 1);
    assert_eq!(swapped.report.preemption_policy, "swap-out");
    // No recompute: the swap run's prefill work is strictly below the
    // evict-and-refill run's, which re-prefilled the victim.
    assert!(
        swapped.report.breakdown.prefill < evicted.report.breakdown.prefill,
        "swap prefill {} vs evict {}",
        swapped.report.breakdown.prefill,
        evicted.report.breakdown.prefill
    );
    let swap = swapped.report.swap.clone().expect("swap tier report");
    assert_eq!(swap.swap_outs, 1);
    assert_eq!(swap.swap_ins, 1);
    assert_eq!(swap.swapped_out_bytes, swap.swapped_in_bytes);
    assert!(swap.swapped_out_bytes > 0);
    assert!(swap.seconds > 0.0);
    assert!(evicted.report.swap.is_none());
}

#[test]
fn paged_prefix_cache_swap_out_conserves_kv_blocks() {
    // Eight shared prefixes (32 cache blocks) over a 30-block paged pool
    // under priority swap-out: cache inserts, lease pins, cache
    // evictions, growth evictions and swap round trips all move blocks,
    // and the audit must balance the pool against the page tables plus
    // the cache at every boundary.
    let mut w = template();
    w.prompt_len = 24;
    w.gen_len = 16;
    let budget = request_kv_bytes(&w, 24, 16) * 3;
    let sim = ServingSimulation::new(w, ArrivalProcess::Poisson { rate: 40.0 }, 24)
        .with_arrival_seed(5)
        .with_admission(
            AdmissionConfig::unlimited()
                .with_kv_memory_bytes(budget)
                .with_paged_kv(4),
        )
        .with_classes(PrioritySpec::Trace {
            classes: (0..24).map(|i| RequestClass::new(i % 3)).collect(),
        })
        .with_scheduling(SchedulingPolicy::Priority)
        .with_preemption(PreemptionPolicy::SwapOut)
        .with_prompts(PromptSpec::SharedGroups {
            groups: 8,
            prefix_len: 16,
        })
        .with_prefix_cache(PrefixCacheMode::Lru);
    let outcome = simulate_audited(SystemKind::hermes_base(), &sim);
    assert_eq!(outcome.report.completed, 24);
    let prefix = outcome.report.prefix.as_ref().expect("cache report");
    assert!(prefix.hits > 0 && prefix.evicted_blocks > 0, "{prefix:?}");
    let swap = outcome.report.swap.as_ref().expect("swap report");
    assert!(swap.swap_outs > 0, "{swap:?}");
}

#[test]
fn bounded_paged_pool_without_preemption_is_rejected() {
    let sim = ServingSimulation::new(template(), ArrivalProcess::AllAtOnce, 2).with_admission(
        AdmissionConfig::unlimited()
            .with_kv_memory_bytes(two_seat_kv_cap())
            .with_paged_kv(16),
    );
    match simulate(SystemKind::hermes_base(), &config(), &sim) {
        Err(HermesError::InvalidConfig(msg)) => {
            assert!(msg.contains("preemption"), "{msg}");
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

#[test]
fn request_larger_than_the_paged_pool_is_rejected() {
    // A pool of one worst-case seat minus a block cannot ever hold
    // request 0 at full context; admitting it would guarantee an
    // eviction livelock, so validation refuses up front.
    let per_request = request_kv_bytes(&template(), 32, 8);
    let sim = ServingSimulation::new(template(), ArrivalProcess::AllAtOnce, 1)
        .with_admission(
            AdmissionConfig::unlimited()
                .with_kv_memory_bytes(per_request / 2)
                .with_paged_kv(16),
        )
        .with_preemption(PreemptionPolicy::SwapOut);
    match simulate(SystemKind::hermes_base(), &config(), &sim) {
        Err(HermesError::InvalidConfig(msg)) => {
            assert!(msg.contains("KV blocks"), "{msg}");
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

#[test]
fn swapped_out_victim_before_first_token_passes_the_audit() {
    // A SwapOut victim evicted before its first decode step must get its
    // `first_token` stamp when it swaps back in; an unstamped record fails
    // the audit's lifecycle order. Blocks of 8 under chunked prefill, and
    // blocks of 4 under stall-the-world prefill.
    let mut w = template();
    w.prompt_len = 24;
    w.gen_len = 6;
    let kv_cap = request_kv_bytes(&w, 40, 10) * 2;
    for (block_tokens, prefill) in [
        (
            8,
            PrefillPolicy::Chunked {
                chunk_tokens: 6,
                budget: 12,
            },
        ),
        (4, PrefillPolicy::StallTheWorld),
    ] {
        let sim = ServingSimulation::new(w.clone(), ArrivalProcess::Poisson { rate: 3.0 }, 16)
            .with_arrival_seed(0)
            .with_admission(
                AdmissionConfig::unlimited()
                    .with_kv_memory_bytes(kv_cap)
                    .with_paged_kv(block_tokens),
            )
            .with_classes(PrioritySpec::Cycle {
                classes: vec![RequestClass::new(2), RequestClass::new(0)],
            })
            .with_scheduling(SchedulingPolicy::Priority)
            .with_preemption(PreemptionPolicy::SwapOut)
            .with_lengths(LengthDistribution::Uniform {
                prompt_min: 8,
                prompt_max: 40,
                gen_min: 1,
                gen_max: 10,
            })
            .with_prefill(prefill);
        let outcome = simulate_audited(SystemKind::hermes_base(), &sim);
        assert_eq!(outcome.report.completed, 16);
        assert!(outcome.report.swap.as_ref().unwrap().swap_outs > 0);
    }
}
