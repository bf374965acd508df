//! Serving-layer integration tests: the batched `Ranker` must reproduce
//! offline greedy MAP exactly, at any pool width, cache state, and batch
//! shape.

use lkp_core::objective::{LkpKind, LkpObjective};
use lkp_core::{train_diversity_kernel, DiversityKernelConfig, TrainConfig, Trainer};
use lkp_data::{Dataset, SyntheticConfig};
use lkp_dpp::{map, DppKernel, LowRankKernel};
use lkp_models::{MatrixFactorization, Recommender};
use lkp_nn::AdamConfig;
use lkp_serve::{KernelForm, RankRequest, RankResponse, Ranker, RankingArtifact, ServeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn data() -> Dataset {
    lkp_data::synthetic::generate(&SyntheticConfig {
        n_users: 30,
        n_items: 80,
        n_categories: 8,
        mean_interactions: 16.0,
        ..Default::default()
    })
}

/// A briefly-trained model + kernel — enough structure that scores are not
/// symmetric and ties cannot mask ordering bugs.
fn trained(data: &Dataset) -> (MatrixFactorization, LowRankKernel) {
    let kernel = train_diversity_kernel(
        data,
        &DiversityKernelConfig {
            epochs: 3,
            pairs_per_epoch: 48,
            dim: 6,
            ..Default::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(11);
    let mut model = MatrixFactorization::new(
        data.n_users(),
        data.n_items(),
        12,
        AdamConfig {
            lr: 0.02,
            ..Default::default()
        },
        &mut rng,
    );
    let mut obj = LkpObjective::new(LkpKind::NegativeAware, kernel.clone());
    let trainer = Trainer::new(TrainConfig {
        epochs: 3,
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

/// Deterministic pseudo-random candidate pool for a user.
fn candidates(user: usize, n_items: usize, count: usize) -> Vec<usize> {
    (0..count)
        .map(|j| (user * 31 + j * 17 + 7) % n_items)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect()
}

fn requests(data: &Dataset, top_n: usize) -> Vec<RankRequest> {
    (0..data.n_users())
        .map(|u| RankRequest::new(u, candidates(u, data.n_items(), 24), top_n))
        .collect()
}

/// The offline reference: assemble the tailored kernel through the training
/// side's own helper and run the allocating greedy MAP on it.
fn offline_reference(
    model: &MatrixFactorization,
    kernel: &LowRankKernel,
    req: &RankRequest,
) -> Vec<usize> {
    let normalized = kernel.normalized();
    let scores = model.score_items(req.user, &req.candidates);
    let k_sub = normalized.submatrix(&req.candidates).unwrap();
    let tailored: DppKernel = lkp_core::objective::tailored_kernel(&scores, &k_sub).unwrap();
    let result = map::greedy_map(&tailored, req.top_n.min(req.candidates.len())).unwrap();
    result
        .items
        .iter()
        .map(|&idx| req.candidates[idx])
        .collect()
}

#[test]
fn served_lists_match_offline_greedy_map() {
    // Acceptance: the lkp-serve path must produce top-N lists identical to
    // offline greedy_map over the same tailored kernels.
    let data = data();
    let (model, kernel) = trained(&data);
    let artifact = RankingArtifact::snapshot(&model, &kernel);
    let mut ranker = Ranker::new(
        artifact,
        ServeConfig {
            threads: 2,
            ..Default::default()
        },
    );
    let reqs = requests(&data, 8);
    let responses = ranker.rank_batch(&reqs);
    assert_eq!(responses.len(), reqs.len());
    for (req, resp) in reqs.iter().zip(&responses) {
        assert_eq!(resp.user, req.user);
        let expected = offline_reference(&model, &kernel, req);
        assert_eq!(
            resp.items, expected,
            "user {} served list diverged from offline MAP",
            req.user
        );
        assert!(
            !resp.items.is_empty(),
            "user {} got an empty list",
            req.user
        );
    }

    // Small pools (|C| ≤ 12) against the slow references: determinant
    // greedy recomputed from scratch each step, and exhaustive MAP. Covers
    // both kernel forms, a degraded rerank head, and the dual path's
    // injected-breakdown dense fallback.
    let n_items = data.n_items();
    let small: Vec<RankRequest> = (0..data.n_users())
        .step_by(3)
        .flat_map(|u| {
            [5usize, 8, 12].into_iter().flat_map(move |count| {
                [1usize, 3, 5]
                    .into_iter()
                    .map(move |top_n| RankRequest::new(u, candidates(u, n_items, count), top_n))
            })
        })
        .collect();
    let dual = KernelForm::LowRankDual;
    let guard = lkp_dpp::DUAL_BREAKDOWN_GUARD;
    let cases = [
        ("dense", KernelForm::Dense, guard, 0),
        ("dual", dual, guard, 0),
        ("dense head", KernelForm::Dense, guard, 6),
        ("dual head", dual, guard, 6),
        ("dual fallback", dual, -1.0, 0),
    ];
    for (label, kernel_form, dual_guard, head) in cases {
        let mut ranker = Ranker::new(
            RankingArtifact::snapshot(&model, &kernel),
            ServeConfig {
                threads: 2,
                kernel_form,
                dual_guard,
                ..Default::default()
            },
        );
        let reqs: Vec<RankRequest> = small
            .iter()
            .map(|r| r.clone().with_rerank_head(head))
            .collect();
        let responses = ranker.rank_batch(&reqs);
        for (req, resp) in reqs.iter().zip(&responses) {
            check_against_slow_references(&model, &kernel, req, resp, label);
        }
        if dual_guard < 0.0 {
            assert_eq!(ranker.dual_fallbacks(), reqs.len() as u64, "{label}");
        }
    }
}

/// The candidates a request actually reranks: the whole pool, or — for a
/// degraded request — its `rerank_head` highest-scoring candidates (ties by
/// position), kept in candidate order.
fn reranked_set(model: &MatrixFactorization, req: &RankRequest) -> Vec<usize> {
    let c = req.candidates.len();
    if req.rerank_head == 0 || req.rerank_head >= c {
        return req.candidates.clone();
    }
    let scores = model.score_items(req.user, &req.candidates);
    let mut order: Vec<usize> = (0..c).collect();
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    order.truncate(req.rerank_head);
    order.sort_unstable();
    order.into_iter().map(|i| req.candidates[i]).collect()
}

/// Checks one served response against naive determinant greedy (same items,
/// `log_det` within 1e-9) and exhaustive MAP (never beaten by more than
/// 1e-9, and matched at `top_n = 1`).
fn check_against_slow_references(
    model: &MatrixFactorization,
    kernel: &LowRankKernel,
    req: &RankRequest,
    resp: &RankResponse,
    label: &str,
) {
    let set = reranked_set(model, req);
    assert_eq!(resp.degraded, set.len() < req.candidates.len(), "{label}");
    let scores = model.score_items(req.user, &set);
    let k_sub = kernel.normalized().submatrix(&set).unwrap();
    let tailored = lkp_core::objective::tailored_kernel(&scores, &k_sub).unwrap();
    let k = req.top_n.min(set.len());
    let ctx = format!("{label}: user {} |C| {} top_n {}", req.user, set.len(), k);

    let naive = map::greedy_map_naive(&tailored, k).unwrap();
    let naive_items: Vec<usize> = naive.items.iter().map(|&i| set[i]).collect();
    assert_eq!(resp.items, naive_items, "{ctx}: items differ from naive");
    assert!(
        (resp.log_det - naive.log_det).abs() <= 1e-9,
        "{ctx}: log_det {} vs naive {}",
        resp.log_det,
        naive.log_det
    );

    let best = map::exhaustive_map(&tailored, resp.items.len()).unwrap();
    assert!(
        resp.log_det <= best.log_det + 1e-9,
        "{ctx}: log_det {} beats the exhaustive optimum {}",
        resp.log_det,
        best.log_det
    );
    if k == 1 {
        assert!(
            (resp.log_det - best.log_det).abs() <= 1e-9,
            "{ctx}: top-1 log_det {} vs exhaustive {}",
            resp.log_det,
            best.log_det
        );
    }
}

#[test]
fn serving_is_identical_at_every_pool_width() {
    // Acceptance: pool determinism — 1, 2 and 4 worker threads must serve
    // byte-identical responses (items, log_det bits), cold and warm cache.
    let data = data();
    let (model, kernel) = trained(&data);
    let reqs = requests(&data, 6);
    let mut reference: Option<Vec<RankResponse>> = None;
    for threads in [1usize, 2, 4] {
        let artifact = RankingArtifact::snapshot(&model, &kernel);
        let mut ranker = Ranker::new(
            artifact,
            ServeConfig {
                threads,
                ..Default::default()
            },
        );
        for pass in 0..2 {
            let responses = ranker.rank_batch(&reqs);
            match &reference {
                None => reference = Some(responses),
                Some(want) => {
                    for (got, want) in responses.iter().zip(want) {
                        assert_eq!(
                            got.items, want.items,
                            "threads={threads} pass={pass}: items diverged"
                        );
                        assert_eq!(
                            got.log_det.to_bits(),
                            want.log_det.to_bits(),
                            "threads={threads} pass={pass}: log_det diverged"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn repeat_batches_hit_the_kernel_cache() {
    let data = data();
    let (model, kernel) = trained(&data);
    let mut ranker = Ranker::new(
        RankingArtifact::snapshot(&model, &kernel),
        ServeConfig {
            threads: 2,
            ..Default::default()
        },
    );
    let reqs = requests(&data, 5);
    let cold = ranker.rank_batch(&reqs);
    assert!(cold.iter().all(|r| !r.cache_hit));
    let warm = ranker.rank_batch(&reqs);
    assert!(warm.iter().all(|r| r.cache_hit));
    for (a, b) in cold.iter().zip(&warm) {
        assert_eq!(a.items, b.items);
        assert_eq!(a.log_det.to_bits(), b.log_det.to_bits());
    }
    let (hits, misses) = ranker.cache_stats();
    assert_eq!(hits as usize, reqs.len());
    assert_eq!(misses as usize, reqs.len());
    assert_eq!(
        ranker.cache_bypasses(),
        0,
        "an enabled cache never bypasses"
    );
}

#[test]
fn rank_one_matches_batch_path() {
    let data = data();
    let (model, kernel) = trained(&data);
    let mut ranker = Ranker::new(
        RankingArtifact::snapshot(&model, &kernel),
        ServeConfig {
            threads: 3,
            ..Default::default()
        },
    );
    let reqs = requests(&data, 7);
    let batch = ranker.rank_batch(&reqs);
    for (req, want) in reqs.iter().zip(&batch) {
        let got = ranker.rank_one(req);
        assert_eq!(got.items, want.items);
        assert_eq!(got.log_det.to_bits(), want.log_det.to_bits());
    }
}

#[test]
fn degenerate_requests_serve_empty_lists() {
    let data = data();
    let (model, kernel) = trained(&data);
    let mut ranker = Ranker::new(
        RankingArtifact::snapshot(&model, &kernel),
        ServeConfig {
            threads: 2,
            ..Default::default()
        },
    );
    let n_items = data.n_items();
    let reqs = vec![
        RankRequest::new(0, vec![], 5),                      // no candidates
        RankRequest::new(0, vec![1, 2, 3], 0),               // zero-length list
        RankRequest::new(data.n_users() + 5, vec![1, 2], 2), // unknown user
        RankRequest::new(0, vec![1, n_items + 3], 2),        // out-of-catalog item
        RankRequest::new(1, vec![4, 9, 2], 2),               // valid control
    ];
    let responses = ranker.rank_batch(&reqs);
    for resp in &responses[..4] {
        assert!(resp.items.is_empty());
        assert_eq!(resp.log_det, 0.0);
    }
    assert_eq!(responses[4].items.len(), 2);
}

#[test]
fn duplicate_candidates_never_produce_duplicate_items() {
    // A duplicated candidate row's residual decays only to the jitter
    // floor, which is above greedy's rank cutoff — without dedup the same
    // item could be recommended twice.
    let data = data();
    let (model, kernel) = trained(&data);
    let mut ranker = Ranker::new(
        RankingArtifact::snapshot(&model, &kernel),
        ServeConfig {
            threads: 1,
            ..Default::default()
        },
    );
    let resp = ranker.rank_one(&RankRequest::new(3, vec![5, 9, 5, 14, 9, 22], 4));
    let unique: std::collections::BTreeSet<_> = resp.items.iter().collect();
    assert_eq!(
        unique.len(),
        resp.items.len(),
        "duplicates in {:?}",
        resp.items
    );
    assert_eq!(resp.items.len(), 4);
    // Deduped request must serve exactly like its clean equivalent.
    let clean = ranker.rank_one(&RankRequest::new(3, vec![5, 9, 14, 22], 4));
    assert_eq!(resp.items, clean.items);
    assert_eq!(resp.log_det.to_bits(), clean.log_det.to_bits());
}

#[test]
fn heavily_duplicated_candidates_keep_first_occurrence_order() {
    // Regression for the O(|C|²) dedup fallback: the sort-based rebuild
    // must produce exactly the list the old linear-scan dedup produced —
    // first occurrences, in original request order — so served lists stay
    // bitwise unchanged.
    let data = data();
    let (model, kernel) = trained(&data);
    let mut ranker = Ranker::new(
        RankingArtifact::snapshot(&model, &kernel),
        ServeConfig {
            threads: 1,
            ..Default::default()
        },
    );
    // Duplicates of several multiplicities, interleaved, including
    // back-to-back runs and a duplicate of the final element.
    let dirty = vec![9, 5, 9, 9, 22, 5, 14, 22, 9, 3, 14, 3, 3, 5];
    let clean = vec![9, 5, 22, 14, 3]; // first occurrences, request order
    let got = ranker.rank_one(&RankRequest::new(4, dirty, 4));
    let want = ranker.rank_one(&RankRequest::new(4, clean, 4));
    assert_eq!(got.items, want.items);
    assert_eq!(got.log_det.to_bits(), want.log_det.to_bits());
    let unique: std::collections::BTreeSet<_> = got.items.iter().collect();
    assert_eq!(
        unique.len(),
        got.items.len(),
        "duplicates in {:?}",
        got.items
    );
}

#[test]
fn mixed_rank_one_and_batch_traffic_is_equivalent() {
    // rank_one must serve the same lists as the batch path, and the
    // caller-worker cache state it leaves behind must not change any
    // subsequent batched list — at widths 1/2/4.
    let data = data();
    let (model, kernel) = trained(&data);
    let reqs = requests(&data, 6);
    // Pure-batch reference (width 1, per-worker cache).
    let mut reference = Ranker::new(
        RankingArtifact::snapshot(&model, &kernel),
        ServeConfig {
            threads: 1,
            ..Default::default()
        },
    );
    let want = reference.rank_batch(&reqs);
    for threads in [1usize, 2, 4] {
        let mut ranker = Ranker::new(
            RankingArtifact::snapshot(&model, &kernel),
            ServeConfig {
                threads,
                ..Default::default()
            },
        );
        // Interleave: a few rank_one calls (warming the caller worker's
        // cache for users that batches will later route to *other*
        // workers), then a batch, then more singles, then a batch.
        for req in reqs.iter().take(5) {
            let got = ranker.rank_one(req);
            let reference = &want[reqs.iter().position(|r| r.user == req.user).unwrap()];
            assert_eq!(
                got.items, reference.items,
                "threads {threads}: rank_one diverged"
            );
            assert_eq!(got.log_det.to_bits(), reference.log_det.to_bits());
        }
        for pass in 0..2 {
            let batch = ranker.rank_batch(&reqs);
            for (got, reference) in batch.iter().zip(&want) {
                assert_eq!(
                    got.items, reference.items,
                    "threads {threads} pass {pass}: batch diverged"
                );
                assert_eq!(got.log_det.to_bits(), reference.log_det.to_bits());
            }
            // More singles between the batches.
            for req in reqs.iter().skip(10).take(4) {
                let got = ranker.rank_one(req);
                let reference = &want[reqs.iter().position(|r| r.user == req.user).unwrap()];
                assert_eq!(got.items, reference.items);
                assert_eq!(got.log_det.to_bits(), reference.log_det.to_bits());
            }
        }
    }
}

#[test]
fn stats_reads_never_materialize_workspaces() {
    // Regression: cache_stats/cache_bypasses used get_or_default on every
    // worker, so a stats read on an idle ranker created empty workspaces
    // (and their caches) and skewed per-worker accounting.
    let data = data();
    let (model, kernel) = trained(&data);
    let mut ranker = Ranker::new(
        RankingArtifact::snapshot(&model, &kernel),
        ServeConfig {
            threads: 4,
            ..Default::default()
        },
    );
    assert_eq!(ranker.resident_workspaces(), 0);
    assert_eq!(ranker.cache_stats(), (0, 0));
    assert_eq!(ranker.cache_bypasses(), 0);
    let detailed = ranker.cache_stats_detailed();
    assert_eq!(detailed.per_worker.len(), 4, "one zero row per worker");
    assert!(detailed
        .per_worker
        .iter()
        .all(|s| *s == lkp_serve::WorkerCacheStats::default()));
    assert_eq!(
        ranker.resident_workspaces(),
        0,
        "stats reads must not create serving state on idle workers"
    );
    // Traffic materializes workspaces as before; stats then see them.
    let reqs = requests(&data, 4);
    ranker.rank_batch(&reqs);
    let resident = ranker.resident_workspaces();
    assert!(resident > 0);
    ranker.cache_stats();
    assert_eq!(ranker.resident_workspaces(), resident);
}

#[test]
fn top_n_larger_than_candidates_is_clamped() {
    let data = data();
    let (model, kernel) = trained(&data);
    let mut ranker = Ranker::new(
        RankingArtifact::snapshot(&model, &kernel),
        ServeConfig {
            threads: 1,
            ..Default::default()
        },
    );
    let resp = ranker.rank_one(&RankRequest::new(2, vec![3, 8, 13], 10));
    assert!(resp.items.len() <= 3);
    assert!(!resp.items.is_empty());
}
