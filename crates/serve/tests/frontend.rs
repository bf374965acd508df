//! Frontend integration tests: micro-batched submission must serve bitwise
//! the same lists as direct batching — at any pool width, cold or
//! pre-warmed — and batches must be cut by size inline and by `pump`.

use lkp_core::objective::{LkpKind, LkpObjective};
use lkp_core::{train_diversity_kernel, DiversityKernelConfig, TrainConfig, Trainer};
use lkp_data::{Dataset, SyntheticConfig};
use lkp_dpp::LowRankKernel;
use lkp_models::MatrixFactorization;
use lkp_nn::AdamConfig;
use lkp_serve::{
    FrontendConfig, ManualClock, RankRequest, RankResponse, Ranker, RankingArtifact, ServeConfig,
    ServeFrontend, Ticket,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

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

fn assert_same(got: &RankResponse, want: &RankResponse, context: &str) {
    assert_eq!(got.user, want.user, "{context}: user");
    assert_eq!(got.items, want.items, "{context}: items");
    assert_eq!(
        got.log_det.to_bits(),
        want.log_det.to_bits(),
        "{context}: log_det"
    );
}

/// Acceptance criterion: served lists are bitwise identical across frontend
/// vs direct `rank_batch` and pool widths 1/2/4 — cold and pre-warmed.
#[test]
fn frontend_cache_mode_and_width_equivalence() {
    let data = data();
    let (model, kernel) = trained(&data);
    let reqs = requests(&data, 6);
    let prewarm_pairs: Vec<(usize, Vec<usize>)> = reqs
        .iter()
        .map(|r| (r.user, r.candidates.clone()))
        .collect();

    // Reference: one direct batch at width 1 with the per-worker cache.
    let mut reference = Ranker::new(
        RankingArtifact::snapshot(&model, &kernel),
        ServeConfig {
            threads: 1,
            ..Default::default()
        },
    );
    let want = reference.rank_batch(&reqs);

    for threads in [1usize, 2, 4] {
        for prewarmed in [false, true] {
            let ranker = Ranker::new(
                RankingArtifact::snapshot(&model, &kernel),
                ServeConfig {
                    threads,
                    ..Default::default()
                },
            );
            let mut frontend = ServeFrontend::with_clock(
                ranker,
                FrontendConfig {
                    max_batch: 7,
                    ..Default::default()
                },
                Box::new(ManualClock::new()),
            );
            if prewarmed {
                assert_eq!(
                    frontend.prewarm(&prewarm_pairs),
                    reqs.len(),
                    "the whole plan fits the budget, so every pair warms"
                );
            }
            // Mixed cut pattern: some batches cut by size during
            // submission, one partial batch by a pump mid-stream, the tail
            // by a final pump.
            let mut tickets: Vec<Ticket> = Vec::new();
            for (i, req) in reqs.iter().enumerate() {
                tickets.push(frontend.submit(req.clone()));
                if i == 9 {
                    frontend.pump();
                }
            }
            frontend.pump();
            let context = format!("threads {threads} prewarmed {prewarmed}");
            for (ticket, want) in tickets.iter().zip(&want) {
                let got = frontend
                    .try_take(*ticket)
                    .unwrap_or_else(|| panic!("{context}: unserved ticket {ticket:?}"));
                assert_same(&got, want, &context);
            }
            if prewarmed {
                let stats = frontend.ranker().cache_stats_detailed();
                assert_eq!(
                    stats.aggregate.misses, 0,
                    "{context}: prewarmed traffic must serve its first \
                     batch with zero kernel-assembly misses"
                );
                assert_eq!(stats.aggregate.hits, reqs.len() as u64);
            }
        }
    }
}

#[test]
fn batches_cut_by_size_and_pump() {
    let data = data();
    let (model, kernel) = trained(&data);
    let reqs = requests(&data, 5);
    let clock = ManualClock::new();
    let mut frontend = ServeFrontend::with_clock(
        Ranker::new(
            RankingArtifact::snapshot(&model, &kernel),
            ServeConfig {
                threads: 2,
                ..Default::default()
            },
        ),
        FrontendConfig {
            max_batch: 4,
            ..Default::default()
        },
        Box::new(clock.clone()),
    );

    // 4 submissions cut a full batch inline; nothing is left pending.
    for req in &reqs[..4] {
        frontend.submit(req.clone());
    }
    assert_eq!(frontend.pending_len(), 0);
    assert_eq!(frontend.stats().cuts_full, 1);

    // 2 more stay pending however much time passes — no timer cuts — until
    // a pump serves them as one partial batch.
    frontend.submit(reqs[4].clone());
    frontend.submit(reqs[5].clone());
    clock.advance(Duration::from_secs(3600));
    assert_eq!(frontend.pending_len(), 2);
    assert_eq!(frontend.pump(), 2);
    assert_eq!(frontend.stats().cuts_deadline, 1);
    assert_eq!(frontend.pump(), 0, "nothing pending, nothing cut");

    // A pump serves everything pending, `max_batch` at a time: 9 queued
    // (`try_submit` never cuts inline) go out as 4 + 4 + 1.
    for req in &reqs[6..15] {
        frontend
            .try_submit(req.clone())
            .expect("under queue_capacity");
    }
    assert_eq!(frontend.pump(), 9);
    let stats = frontend.stats();
    assert_eq!(stats.cuts_full, 3);
    assert_eq!(stats.cuts_deadline, 2);
    assert_eq!(stats.submitted, 15);
    assert_eq!(stats.served, 15);
    assert_eq!(stats.batches, 5);
}

#[test]
fn queue_never_grows_past_max_batch() {
    let data = data();
    let (model, kernel) = trained(&data);
    let reqs = requests(&data, 4);
    // Without a pump only size cuts fire: the queue is bounded by the
    // inline cut alone, submission never errors, and backpressure is
    // served latency rather than growth.
    let mut frontend = ServeFrontend::with_clock(
        Ranker::new(
            RankingArtifact::snapshot(&model, &kernel),
            ServeConfig {
                threads: 2,
                ..Default::default()
            },
        ),
        FrontendConfig {
            max_batch: 16,
            ..Default::default()
        },
        Box::new(ManualClock::new()),
    );
    for (i, req) in reqs.iter().cycle().take(20).enumerate() {
        frontend.submit(req.clone());
        assert!(
            frontend.pending_len() < 16,
            "queue must stay under max_batch after submit {i}"
        );
    }
    // 20 submissions: one full cut at 16, 4 left pending.
    assert_eq!(frontend.stats().cuts_full, 1);
    assert_eq!(frontend.pending_len(), 4);
    assert_eq!(frontend.completed_len(), 16);
    frontend.pump();
    assert_eq!(frontend.pending_len(), 0);
    assert_eq!(frontend.stats().served, 20);
}

#[test]
fn oversized_prewarm_plan_warms_a_stable_prefix() {
    // A plan larger than the cache budget must refuse the overflow, not
    // churn the warm set: every accepted pair keeps its first-request hit.
    let data = data();
    let (model, kernel) = trained(&data);
    let reqs = requests(&data, 4);
    let pairs: Vec<(usize, Vec<usize>)> = reqs
        .iter()
        .map(|r| (r.user, r.candidates.clone()))
        .collect();
    let mut ranker = Ranker::new(
        RankingArtifact::snapshot(&model, &kernel),
        ServeConfig {
            threads: 2,
            // Exactly 8 dense entries of the 20-candidate pools:
            // 8 · 8·(20 + 20²) bytes.
            kernel_cache_bytes: 8 * 8 * (20 + 20 * 20),
            ..Default::default()
        },
    );
    let warmed = ranker.prewarm(&pairs);
    assert_eq!(
        warmed, 8,
        "only the first `capacity` pairs of the oversized plan are warmed"
    );
    // The accepted prefix serves its first request from cache.
    let mut hits = 0;
    for (user, candidates) in pairs.iter().take(8) {
        let resp = ranker.rank_one(&RankRequest::new(*user, candidates.clone(), 3));
        hits += resp.cache_hit as usize;
    }
    assert_eq!(hits, 8, "every accepted pair keeps its first-request hit");
}

#[test]
fn tickets_redeem_exactly_once_in_any_order() {
    let data = data();
    let (model, kernel) = trained(&data);
    let reqs = requests(&data, 5);
    let mut direct = Ranker::new(
        RankingArtifact::snapshot(&model, &kernel),
        ServeConfig {
            threads: 2,
            ..Default::default()
        },
    );
    let want = direct.rank_batch(&reqs);
    let mut frontend = ServeFrontend::new(
        Ranker::new(
            RankingArtifact::snapshot(&model, &kernel),
            ServeConfig {
                threads: 2,
                ..Default::default()
            },
        ),
        FrontendConfig {
            max_batch: 5,
            ..Default::default()
        },
    );
    let tickets: Vec<Ticket> = reqs.iter().map(|r| frontend.submit(r.clone())).collect();
    frontend.pump();
    // Claim in reverse submission order; peek first, then take, then the
    // ticket is spent.
    for (ticket, want) in tickets.iter().zip(&want).rev() {
        assert!(frontend.peek(*ticket).is_some());
        let got = frontend.try_take(*ticket).expect("served");
        assert_same(&got, want, "reverse redemption");
        assert!(frontend.peek(*ticket).is_none());
        assert!(frontend.try_take(*ticket).is_none(), "single redemption");
    }
    assert_eq!(frontend.completed_len(), 0);
}

#[test]
fn discarded_tickets_do_not_accumulate() {
    let data = data();
    let (model, kernel) = trained(&data);
    let reqs = requests(&data, 4);
    let mut frontend = ServeFrontend::with_clock(
        Ranker::new(
            RankingArtifact::snapshot(&model, &kernel),
            ServeConfig {
                threads: 2,
                ..Default::default()
            },
        ),
        FrontendConfig {
            max_batch: 8,
            ..Default::default()
        },
        Box::new(ManualClock::new()),
    );
    let tickets: Vec<Ticket> = reqs[..4]
        .iter()
        .map(|r| frontend.submit(r.clone()))
        .collect();
    // Abandon one while still pending: its request is pulled from the
    // queue and never served.
    assert!(frontend.discard(tickets[1]));
    assert_eq!(frontend.pending_len(), 3);
    assert_eq!(frontend.pump(), 3);
    assert!(frontend.try_take(tickets[1]).is_none());
    // Abandon one after serving: its unclaimed response is dropped.
    assert_eq!(frontend.completed_len(), 3);
    assert!(frontend.discard(tickets[2]));
    assert_eq!(frontend.completed_len(), 2);
    assert!(frontend.try_take(tickets[2]).is_none());
    // Discard is idempotent-by-absence and take still works for the rest.
    assert!(!frontend.discard(tickets[2]));
    assert!(frontend.try_take(tickets[0]).is_some());
    assert!(frontend.try_take(tickets[3]).is_some());
    assert_eq!(frontend.completed_len(), 0);
    let stats = frontend.stats();
    assert_eq!(stats.discarded, 2);
    assert_eq!(stats.served, 3);
}

#[test]
fn prewarm_skips_invalid_and_duplicate_pairs() {
    let data = data();
    let (model, kernel) = trained(&data);
    let mut ranker = Ranker::new(
        RankingArtifact::snapshot(&model, &kernel),
        ServeConfig {
            threads: 2,
            ..Default::default()
        },
    );
    let warmed = ranker.prewarm(&[
        (0, vec![1, 2, 3]),
        (0, vec![1, 2, 3]), // duplicate: already warm, counted, not re-assembled
        (data.n_users() + 1, vec![1, 2]), // unknown user
        (1, vec![2, data.n_items() + 5]), // out-of-catalog item
        (1, vec![]),        // empty pool
        (2, vec![4, 4, 9]), // deduped to [4, 9] before keying
    ]);
    assert_eq!(
        warmed, 3,
        "warm-after-call pairs: first, its duplicate, and user 2"
    );
    let stats = ranker.cache_stats_detailed();
    assert_eq!(stats.per_worker.len(), 2);
    for worker in &stats.per_worker {
        assert_eq!(
            worker.prewarmed, 2,
            "only two assemblies were actually performed"
        );
    }
    // The deduplicated prewarm key matches what a duplicated request looks
    // up: first traffic is a hit.
    let resp = ranker.rank_one(&RankRequest::new(2, vec![4, 4, 9], 2));
    assert!(resp.cache_hit, "prewarmed (deduped) pair must hit");
    let (hits, misses) = ranker.cache_stats();
    assert_eq!((hits, misses), (1, 0));
}

#[test]
fn prewarm_reports_pairs_warm_on_every_worker() {
    // One batch of two requests splits into one request per worker: worker
    // 0 caches user 3 with pool A, worker 1 with pool B. Prewarming
    // (3, A) is then warm on worker 0 only — worker 1 refuses to overwrite
    // its resident pool — so the pair is not warm on every worker.
    let data = data();
    let (model, kernel) = trained(&data);
    let mut ranker = Ranker::new(
        RankingArtifact::snapshot(&model, &kernel),
        ServeConfig {
            threads: 2,
            ..Default::default()
        },
    );
    let pool_a = vec![1, 5, 9, 13, 17];
    let pool_b = vec![2, 6, 10, 14, 18];
    ranker.rank_batch(&[
        RankRequest::new(3, pool_a.clone(), 3),
        RankRequest::new(3, pool_b.clone(), 3),
    ]);
    let stats = ranker.cache_stats_detailed();
    assert!(
        stats.per_worker.iter().all(|w| w.misses == 1),
        "each worker served one request: {stats:?}"
    );
    assert_eq!(ranker.prewarm(&[(3, pool_a.clone())]), 0);
    assert_eq!(ranker.prewarm(&[(3, pool_b)]), 0);
    // Neither worker built anything: both pairs were resident or refused.
    assert_eq!(ranker.cache_stats_detailed().aggregate.prewarmed, 0);
    // The caller worker (0) still holds pool A.
    assert!(ranker.rank_one(&RankRequest::new(3, pool_a, 3)).cache_hit);
}
