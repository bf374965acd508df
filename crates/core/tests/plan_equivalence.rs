//! Epoch-plan pipeline equivalence suite.
//!
//! The trainer's instance pipeline moved from an inline sampler
//! (`epoch_instances` + Fisher–Yates + `chunks(batch_size)`) onto the
//! `lkp-data` planning layer (flat-arena `EpochPlan`, `SamplingPolicy`,
//! size-bucketed `BatchSchedule`) with a batched eigen path under the
//! dispatch. Contracts pinned here:
//!
//! 1. The default `ResampleEachEpoch` policy is **bitwise identical** to the
//!    pre-refactor inline sampler at 1/2/4 threads (the serial inline loop
//!    is reconstructed verbatim below).
//! 2. Frozen plans are bitwise-stable across epochs and deterministic under
//!    a fixed seed (trajectory level; the plan level is pinned in
//!    `lkp-data`'s own tests).
//! 3. Size-bucketed scheduling preserves gradient-accumulation results
//!    bitwise versus the unbucketed plan order, including on mixed-size
//!    plans the stock sampler never produces.

use lkp_core::objective::{InstanceGrad, LkpKind, LkpObjective, Objective};
use lkp_core::{train_diversity_kernel, DiversityKernelConfig, TrainConfig, Trainer};
use lkp_data::{
    BatchSchedule, Dataset, EpochPlan, GroundSetInstance, InstanceSampler, SamplingPolicy,
    SyntheticConfig, TargetSelection,
};
use lkp_dpp::DppWorkspace;
use lkp_models::{MatrixFactorization, Recommender};
use lkp_nn::AdamConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn smoke_data() -> Dataset {
    lkp_data::synthetic::generate(&SyntheticConfig {
        n_users: 40,
        n_items: 100,
        n_categories: 8,
        mean_interactions: 18.0,
        ..Default::default()
    })
}

fn model(data: &Dataset, seed: u64) -> MatrixFactorization {
    let mut rng = StdRng::seed_from_u64(seed);
    MatrixFactorization::new(
        data.n_users(),
        data.n_items(),
        16,
        AdamConfig {
            lr: 0.02,
            ..Default::default()
        },
        &mut rng,
    )
}

fn kernel(data: &Dataset) -> lkp_dpp::LowRankKernel {
    train_diversity_kernel(
        data,
        &DiversityKernelConfig {
            epochs: 3,
            pairs_per_epoch: 48,
            dim: 8,
            ..Default::default()
        },
    )
}

fn config(threads: usize, epochs: usize, policy: SamplingPolicy) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 32,
        k: 4,
        n: 4,
        mode: TargetSelection::Sequential,
        sampling_policy: policy,
        eval_every: 0,
        patience: 0,
        threads,
        seed: 99,
        ..Default::default()
    }
}

/// `Trainer::fit` under the given policy; returns per-epoch losses, final
/// user-0 scores, and the full report.
fn run_fit(
    data: &Dataset,
    threads: usize,
    epochs: usize,
    policy: SamplingPolicy,
) -> (Vec<f64>, Vec<f64>, lkp_core::TrainReport) {
    let mut m = model(data, 1);
    let mut obj = LkpObjective::new(LkpKind::NegativeAware, kernel(data));
    let trainer = Trainer::new(config(threads, epochs, policy));
    let report = trainer.fit(&mut m, &mut obj, data);
    let losses = report.history.iter().map(|h| h.mean_loss).collect();
    let items: Vec<usize> = (0..data.n_items()).collect();
    (losses, m.score_items(0, &items), report)
}

/// The pre-refactor trainer loop, reconstructed verbatim: inline
/// `epoch_instances`, the trainer's backwards Fisher–Yates over the same RNG
/// stream, plain `chunks(batch_size)` batches, one serial workspace, serial
/// in-order accumulation (validation disabled, as in `config`).
fn run_inline_reference(data: &Dataset, epochs: usize) -> (Vec<f64>, Vec<f64>) {
    let cfg = config(1, epochs, SamplingPolicy::ResampleEachEpoch);
    let mut m = model(data, 1);
    let obj = LkpObjective::new(LkpKind::NegativeAware, kernel(data));
    let sampler = InstanceSampler::new(cfg.k, cfg.n, cfg.mode);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut ws = DppWorkspace::new();
    let mut out = InstanceGrad::default();
    let mut losses = Vec::with_capacity(cfg.epochs);
    for _epoch in 1..=cfg.epochs {
        m.begin_epoch();
        let mut instances = sampler.epoch_instances(data, &mut rng);
        for i in (1..instances.len()).rev() {
            instances.swap(i, rng.random_range(0..=i));
        }
        let mut loss_sum = 0.0;
        let mut count = 0usize;
        for batch in instances.chunks(cfg.batch_size) {
            for inst in batch {
                obj.compute_into(&m, inst.as_ref(), &mut ws, &mut out);
                loss_sum += out.loss;
                count += 1;
                obj.accumulate(&mut m, &out);
            }
            m.step();
        }
        losses.push(if count > 0 {
            loss_sum / count as f64
        } else {
            0.0
        });
    }
    let items: Vec<usize> = (0..data.n_items()).collect();
    (losses, m.score_items(0, &items))
}

#[test]
fn resample_policy_is_bitwise_identical_to_the_inline_sampler() {
    let data = smoke_data();
    let epochs = 2;
    let (ref_losses, ref_scores) = run_inline_reference(&data, epochs);
    for threads in [1usize, 2, 4] {
        let (losses, scores, report) =
            run_fit(&data, threads, epochs, SamplingPolicy::ResampleEachEpoch);
        assert_eq!(report.plan.resamples, epochs as u64);
        assert_eq!(report.plan.reuses, 0);
        for (e, (a, b)) in ref_losses.iter().zip(&losses).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "threads={threads} epoch {e}: inline {a} vs planned {b}"
            );
        }
        for (a, b) in ref_scores.iter().zip(&scores) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "threads={threads}: model diverged"
            );
        }
    }
}

#[test]
fn frozen_trajectories_are_deterministic_and_distinct_from_resampling() {
    let data = smoke_data();
    let (a_losses, a_scores, _) = run_fit(&data, 4, 3, SamplingPolicy::FrozenNegatives);
    let (b_losses, b_scores, _) = run_fit(&data, 4, 3, SamplingPolicy::FrozenNegatives);
    assert_eq!(
        a_losses.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        b_losses.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        "fixed seed + fixed width must reproduce bitwise"
    );
    assert_eq!(a_scores, b_scores);
    // Epoch 1 consumes the identical RNG stream under every policy, so the
    // first-epoch loss is bitwise shared; afterwards the plans diverge.
    let (r_losses, _, _) = run_fit(&data, 4, 3, SamplingPolicy::ResampleEachEpoch);
    assert_eq!(a_losses[0].to_bits(), r_losses[0].to_bits());
    assert_ne!(
        a_losses[2].to_bits(),
        r_losses[2].to_bits(),
        "frozen and resampled runs should part ways after epoch 1"
    );
}

/// Mixed-size plan: interleaved (2,2) and (3,3) instances over real users —
/// a shape the stock sampler never emits but the scheduler must handle.
fn mixed_plan(data: &Dataset) -> EpochPlan {
    let mut instances = Vec::new();
    for i in 0..24usize {
        let user = i % data.n_users();
        let train = data.user_items(user, lkp_data::Split::Train);
        if train.len() < 3 {
            continue;
        }
        let k = if i % 2 == 0 { 2 } else { 3 };
        let positives: Vec<usize> = train[..k].to_vec();
        let negatives: Vec<usize> = (0..k)
            .map(|j| {
                // Deterministic unobserved items.
                let mut cand = (i * 7 + j * 13) % data.n_items();
                while data.is_observed(user, cand) {
                    cand = (cand + 1) % data.n_items();
                }
                cand
            })
            .collect();
        // Negatives must be distinct for a sane instance.
        let mut distinct = negatives.clone();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.len() != negatives.len() {
            continue;
        }
        instances.push(GroundSetInstance {
            user,
            positives,
            negatives,
        });
    }
    EpochPlan::from_instances(&instances)
}

#[test]
fn bucketed_scheduling_preserves_gradient_accumulation_bitwise() {
    // Computing a batch's gradients in dispatch (size-bucketed) order and
    // accumulating through `slot_of` must reproduce the naive plan-order
    // loop bit for bit — on a genuinely mixed-size plan where the dispatch
    // order really does differ from plan order.
    let data = smoke_data();
    let kern = kernel(&data);
    let plan = mixed_plan(&data);
    assert!(plan.len() >= 12, "mixed plan too small to be meaningful");
    assert_eq!(plan.distinct_sizes(), 2);
    let batch_size = 7; // Odd size forces batches mixing both shapes.
    let schedule = BatchSchedule::build(&plan, batch_size);
    assert!(
        schedule.iter().any(|b| !b.bounds.is_empty()),
        "schedule must actually bucket something"
    );
    let obj = LkpObjective::new(LkpKind::PositiveOnly, kern);

    // Naive plan-order reference.
    let mut m_ref = model(&data, 3);
    let mut ws = DppWorkspace::new();
    let mut out = InstanceGrad::default();
    let mut ref_losses = Vec::new();
    let mut start = 0;
    while start < plan.len() {
        let end = (start + batch_size).min(plan.len());
        for idx in start..end {
            obj.compute_into(&m_ref, plan.instance(idx), &mut ws, &mut out);
            ref_losses.push(out.loss);
            obj.accumulate(&mut m_ref, &out);
        }
        m_ref.step();
        start = end;
    }

    // Scheduled order: compute per dispatch slot, accumulate via slot_of.
    let mut m_sched = model(&data, 3);
    let mut grads: Vec<InstanceGrad> = (0..batch_size).map(|_| InstanceGrad::default()).collect();
    let mut sched_losses = Vec::new();
    for batch in schedule.iter() {
        for (slot, &idx) in batch.dispatch.iter().enumerate() {
            obj.compute_into(&m_sched, plan.instance(idx), &mut ws, &mut grads[slot]);
        }
        for &slot in batch.slot_of {
            sched_losses.push(grads[slot].loss);
            obj.accumulate(&mut m_sched, &grads[slot]);
        }
        m_sched.step();
    }

    assert_eq!(ref_losses.len(), sched_losses.len());
    for (i, (a, b)) in ref_losses.iter().zip(&sched_losses).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "instance {i}: loss moved");
    }
    let items: Vec<usize> = (0..data.n_items()).collect();
    let (sa, sb) = (m_ref.score_items(0, &items), m_sched.score_items(0, &items));
    for (a, b) in sa.iter().zip(&sb) {
        assert_eq!(a.to_bits(), b.to_bits(), "model weights diverged");
    }
}
