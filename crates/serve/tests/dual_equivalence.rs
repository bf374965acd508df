//! The `dual_serving_equivalence` gate: the low-rank dual serving path must
//! select the same lists as the dense path — across pool widths, cold vs
//! prewarmed caches, and frontend vs direct batching — and
//! its dense fallback must be bit-identical to dense-mode serving.
//!
//! Cross-form comparisons check `user` + `items` only: the dual recursion
//! reassociates the dense arithmetic, so `log_det` agrees to rounding, not
//! bitwise. Within the dual form, serving is bitwise deterministic and the
//! tests pin that too.

use lkp_core::objective::{LkpKind, LkpObjective};
use lkp_core::{train_diversity_kernel, DiversityKernelConfig, TrainConfig, Trainer};
use lkp_data::{Dataset, SyntheticConfig};
use lkp_dpp::LowRankKernel;
use lkp_models::MatrixFactorization;
use lkp_nn::AdamConfig;
use lkp_serve::{
    FrontendConfig, KernelForm, ManualClock, RankRequest, RankResponse, Ranker, RankingArtifact,
    ServeConfig, ServeFrontend, Ticket,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn data() -> Dataset {
    lkp_data::synthetic::generate(&SyntheticConfig {
        n_users: 24,
        n_items: 70,
        n_categories: 7,
        mean_interactions: 14.0,
        ..Default::default()
    })
}

fn trained(data: &Dataset) -> (MatrixFactorization, LowRankKernel) {
    let kernel = train_diversity_kernel(
        data,
        &DiversityKernelConfig {
            epochs: 3,
            pairs_per_epoch: 40,
            dim: 6,
            ..Default::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(5);
    let mut model = MatrixFactorization::new(
        data.n_users(),
        data.n_items(),
        10,
        AdamConfig {
            lr: 0.02,
            ..Default::default()
        },
        &mut rng,
    );
    let mut obj = LkpObjective::new(LkpKind::NegativeAware, kernel.clone());
    let trainer = Trainer::new(TrainConfig {
        epochs: 2,
        eval_every: 0,
        patience: 0,
        k: 4,
        n: 4,
        threads: 2,
        ..Default::default()
    });
    trainer.fit(&mut model, &mut obj, data);
    (model, kernel)
}

/// 20-candidate pools; `top_n` stays under the diversity-kernel rank (6) so
/// every greedy step has a macroscopic, well-conditioned gain — the regime
/// where dense and dual selections provably coincide.
fn requests(data: &Dataset, top_n: usize) -> Vec<RankRequest> {
    (0..data.n_users())
        .map(|u| {
            let candidates: Vec<usize> = (0..20)
                .map(|j| (u * 31 + j * 17 + 7) % data.n_items())
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            RankRequest::new(u, candidates, top_n)
        })
        .collect()
}

/// Dual-form config: every request runs the factored path.
fn dual_config(threads: usize) -> ServeConfig {
    ServeConfig {
        threads,
        kernel_form: KernelForm::LowRankDual,
        ..Default::default()
    }
}

/// Cross-form check: same user, same items, in order. (`log_det` only to
/// rounding — not asserted here.)
fn assert_same_list(got: &RankResponse, want: &RankResponse, context: &str) {
    assert_eq!(got.user, want.user, "{context}: user");
    assert_eq!(got.items, want.items, "{context}: items");
}

/// Within-form check: bitwise, including `log_det`.
fn assert_same_bits(got: &RankResponse, want: &RankResponse, context: &str) {
    assert_same_list(got, want, context);
    assert_eq!(
        got.log_det.to_bits(),
        want.log_det.to_bits(),
        "{context}: log_det"
    );
}

/// Acceptance criterion: the dual path serves the same lists as the dense
/// path across widths 1/2/4 × cold/prewarmed × frontend-vs-direct, with
/// zero dense fallbacks, and is bitwise
/// self-consistent across that whole matrix.
#[test]
fn dense_vs_dual_equivalence_matrix() {
    let data = data();
    let (model, kernel) = trained(&data);
    let reqs = requests(&data, 5);
    let prewarm_pairs: Vec<(usize, Vec<usize>)> = reqs
        .iter()
        .map(|r| (r.user, r.candidates.clone()))
        .collect();

    // Dense reference: one direct batch at width 1, default config.
    let mut dense = Ranker::new(
        RankingArtifact::snapshot(&model, &kernel),
        ServeConfig {
            threads: 1,
            ..Default::default()
        },
    );
    let want = dense.rank_batch(&reqs);

    // Dual self-consistency reference, filled by the first dual run.
    let mut dual_bits: Option<Vec<RankResponse>> = None;

    for threads in [1usize, 2, 4] {
        for prewarmed in [false, true] {
            for frontend_path in [false, true] {
                let context = format!(
                    "threads {threads} prewarmed {prewarmed} \
                     frontend {frontend_path}"
                );
                let mut ranker = Ranker::new(
                    RankingArtifact::snapshot(&model, &kernel),
                    dual_config(threads),
                );
                let got: Vec<RankResponse> = if frontend_path {
                    let mut frontend = ServeFrontend::with_clock(
                        ranker,
                        FrontendConfig {
                            max_batch: 7,
                            ..Default::default()
                        },
                        Box::new(ManualClock::new()),
                    );
                    if prewarmed {
                        assert_eq!(frontend.prewarm(&prewarm_pairs), reqs.len(), "{context}");
                    }
                    let tickets: Vec<Ticket> =
                        reqs.iter().map(|r| frontend.submit(r.clone())).collect();
                    frontend.pump();
                    let got = tickets
                        .iter()
                        .map(|t| {
                            frontend
                                .try_take(*t)
                                .unwrap_or_else(|| panic!("{context}: unserved ticket"))
                        })
                        .collect();
                    if prewarmed {
                        let stats = frontend.ranker().cache_stats_detailed();
                        assert_eq!(stats.aggregate.misses, 0, "{context}: prewarmed misses");
                    }
                    assert_eq!(
                        frontend.ranker().dual_fallbacks(),
                        0,
                        "{context}: no spurious breakdowns"
                    );
                    got
                } else {
                    if prewarmed {
                        assert_eq!(ranker.prewarm(&prewarm_pairs), reqs.len(), "{context}");
                    }
                    let got = ranker.rank_batch(&reqs);
                    assert_eq!(
                        ranker.dual_fallbacks(),
                        0,
                        "{context}: no spurious breakdowns"
                    );
                    got
                };
                for (g, w) in got.iter().zip(&want) {
                    assert_same_list(g, w, &context);
                }
                match &dual_bits {
                    None => dual_bits = Some(got),
                    Some(first) => {
                        for (g, w) in got.iter().zip(first) {
                            assert_same_bits(g, w, &context);
                        }
                    }
                }
            }
        }
    }
}

/// Fault injection: a negative `dual_guard` makes every dual request break
/// down on its first update, so every request takes the dense fallback —
/// which must be *bitwise* identical to dense-mode serving, and must be
/// counted by `dual_fallbacks`.
#[test]
fn breakdown_fallback_is_bitwise_identical_to_dense() {
    let data = data();
    let (model, kernel) = trained(&data);
    let reqs = requests(&data, 5);
    let mut dense = Ranker::new(
        RankingArtifact::snapshot(&model, &kernel),
        ServeConfig {
            threads: 2,
            ..Default::default()
        },
    );
    let want = dense.rank_batch(&reqs);

    let mut broken = Ranker::new(
        RankingArtifact::snapshot(&model, &kernel),
        ServeConfig {
            dual_guard: -1.0,
            ..dual_config(2)
        },
    );
    let got = broken.rank_batch(&reqs);
    for (g, w) in got.iter().zip(&want) {
        assert_same_bits(g, w, "fallback");
    }
    assert_eq!(
        broken.dual_fallbacks(),
        reqs.len() as u64,
        "every request must record its breakdown"
    );
}

/// Degraded requests (capped rerank head) serve the same lists in dual mode
/// as in dense mode.
#[test]
fn degraded_rerank_head_dual_equivalence() {
    let data = data();
    let (model, kernel) = trained(&data);
    let reqs: Vec<RankRequest> = requests(&data, 4)
        .into_iter()
        .map(|r| r.with_rerank_head(8))
        .collect();
    let mut dense = Ranker::new(
        RankingArtifact::snapshot(&model, &kernel),
        ServeConfig {
            threads: 2,
            ..Default::default()
        },
    );
    let want = dense.rank_batch(&reqs);
    assert!(want.iter().all(|r| r.degraded), "heads must actually cap");

    let mut dual = Ranker::new(RankingArtifact::snapshot(&model, &kernel), dual_config(2));
    let got = dual.rank_batch(&reqs);
    for (g, w) in got.iter().zip(&want) {
        assert_same_list(g, w, "degraded dual");
        assert!(g.degraded, "degraded flag survives the dual path");
    }
    assert_eq!(dual.dual_fallbacks(), 0);
}

/// Zero-downtime artifact swap under dual-mode traffic: queued requests
/// serve on the new generation from a prewarmed factor cache, bitwise equal
/// to a fresh dual ranker on the new artifact.
#[test]
fn swap_under_traffic_in_dual_mode() {
    let data = data();
    let (model_a, kernel) = trained(&data);
    let mut rng = StdRng::seed_from_u64(11);
    let model_b = MatrixFactorization::new(
        data.n_users(),
        data.n_items(),
        10,
        AdamConfig::default(),
        &mut rng,
    );
    let reqs = requests(&data, 5);
    let plan: Vec<(usize, Vec<usize>)> = reqs
        .iter()
        .map(|r| (r.user, r.candidates.clone()))
        .collect();

    let config = dual_config(2);
    let mut ranker_a = Ranker::new(RankingArtifact::snapshot(&model_a, &kernel), config.clone());
    let want_a = ranker_a.rank_batch(&reqs);
    let mut ranker_b = Ranker::new(RankingArtifact::snapshot(&model_b, &kernel), config.clone());
    let want_b = ranker_b.rank_batch(&reqs);

    let mut frontend = ServeFrontend::with_clock(
        Ranker::new(RankingArtifact::snapshot(&model_a, &kernel), config.clone()),
        FrontendConfig {
            max_batch: reqs.len(),
            ..Default::default()
        },
        Box::new(ManualClock::new()),
    );

    // Generation 1 dual traffic (populates the factor cache the swap
    // will retire).
    let tickets: Vec<Ticket> = reqs
        .iter()
        .map(|r| frontend.try_submit(r.clone()).unwrap())
        .collect();
    frontend.pump();
    for (ticket, want) in tickets.iter().zip(&want_a) {
        let resp = frontend.try_take(*ticket).expect("gen-1 ticket");
        assert_same_bits(&resp, want, "gen 1");
    }

    // Queue traffic, swap between cuts, then serve: new generation,
    // prewarmed factor entries, zero misses.
    let queued: Vec<Ticket> = reqs
        .iter()
        .map(|r| frontend.try_submit(r.clone()).unwrap())
        .collect();
    let report = frontend.swap_artifact(RankingArtifact::snapshot(&model_b, &kernel), &plan);
    assert_eq!(report.warmed, plan.len(), "plan fully warm");
    assert!(report.retired > 0, "old entries retired");
    let (_, misses_before) = frontend.ranker().cache_stats();
    frontend.pump();
    let (_, misses_after) = frontend.ranker().cache_stats();
    assert_eq!(
        misses_after - misses_before,
        0,
        "prewarmed post-swap dual batch must not miss"
    );
    for (ticket, want) in queued.iter().zip(&want_b) {
        let resp = frontend.try_take(*ticket).expect("gen-2 ticket");
        assert_eq!(resp.generation, 2);
        assert!(resp.cache_hit, "prewarmed factor hit");
        assert_same_bits(&resp, want, "gen 2");
    }
    assert_eq!(frontend.ranker().dual_fallbacks(), 0);
}
