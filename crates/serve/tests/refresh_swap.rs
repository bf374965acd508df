//! Refresh-to-serve handoff acceptance: a delta-fit produced by
//! `Trainer::update` lands in a *running* `FrontendDriver` through
//! `RankingArtifact::refresh_from` + `swap_artifact` under one generation
//! bump — no restart, bitwise per generation, and zero post-swap assembly
//! misses. Also pins the artifact-level no-op contract: an empty-delta refresh serves bitwise identically to
//! the base artifact.

use lkp_core::objective::{LkpKind, LkpObjective};
use lkp_core::{train_diversity_kernel, DiversityKernelConfig, TrainConfig, TrainedState, Trainer};
use lkp_data::{Dataset, DatasetDelta, SamplingPolicy, SyntheticConfig};
use lkp_dpp::LowRankKernel;
use lkp_models::MatrixFactorization;
use lkp_nn::AdamConfig;
use lkp_serve::{
    FrontendConfig, FrontendDriver, RankOutcome, RankRequest, RankResponse, Ranker,
    RankingArtifact, ServeConfig, ServeFrontend, SubmitError, Ticket,
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

/// Frozen negatives so the fit's final plan is the one every epoch trained
/// on — the refresh warm start the pipeline is built around.
fn train_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 2,
        batch_size: 16,
        k: 4,
        n: 4,
        sampling_policy: SamplingPolicy::FrozenNegatives,
        eval_every: 0,
        patience: 0,
        threads: 2,
        seed: 5,
        ..Default::default()
    }
}

fn trained(data: &Dataset) -> (MatrixFactorization, LowRankKernel, TrainedState) {
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
    let (_, state) = Trainer::new(train_cfg()).fit_state(&mut model, &mut obj, data);
    (model, kernel, state)
}

/// One previously unobserved item for each of the first eight users: a
/// proper partial delta (some users frozen, some fresh).
fn fresh_delta(data: &Dataset) -> DatasetDelta {
    let mut delta = DatasetDelta::new();
    for user in 0..8 {
        for item in 0..data.n_items() {
            if !data.is_observed(user, item) {
                delta.push(user, item);
                break;
            }
        }
    }
    delta
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

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        threads: 2,
        ..Default::default()
    }
}

fn submit_retrying(
    client: &lkp_serve::DriverClient<MatrixFactorization>,
    request: &RankRequest,
) -> Ticket {
    loop {
        match client.submit(request.clone()) {
            Ok(ticket) => return ticket,
            Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
}

/// The full pipeline under live traffic: warm fit → delta `update` →
/// `refresh_from` → `swap_artifact` into a spawned driver while two
/// submitter threads stream. Per-generation responses are bitwise the
/// direct rankers', generations are monotone in ticket order, and a
/// post-swap replay of every planned request hits the swap-staged cache
/// with **zero** assembly misses.
#[test]
fn refreshed_artifact_swaps_live_with_zero_post_swap_misses() {
    let data = data();
    let (model_a, kernel, base) = trained(&data);

    let delta = fresh_delta(&data);
    let mut refreshed = model_a.clone();
    let rep = Trainer::new(TrainConfig {
        update_epochs: 2,
        ..train_cfg()
    })
    .update(
        &mut refreshed,
        &mut LkpObjective::new(LkpKind::NegativeAware, kernel.clone()),
        &base,
        &delta,
    );
    assert!(!rep.no_op, "a fresh delta must actually refresh");
    assert!(rep.frozen_instances > 0, "unchanged users stay frozen");
    assert!(rep.fresh_instances > 0, "changed users resample");

    let artifact_v1 = RankingArtifact::snapshot(&model_a, &kernel);
    let artifact_v2 = artifact_v1.refresh_from(&refreshed);

    let reqs = requests(&data, 6);
    let plan: Vec<(usize, Vec<usize>)> = reqs
        .iter()
        .map(|r| (r.user, r.candidates.clone()))
        .collect();

    let want_a = Ranker::new(artifact_v1.clone(), serve_cfg()).rank_batch(&reqs);
    let want_b = Ranker::new(artifact_v2.clone(), serve_cfg()).rank_batch(&reqs);

    let frontend = ServeFrontend::new(
        Ranker::new(artifact_v1.clone(), serve_cfg()),
        FrontendConfig {
            max_batch: 8,
            queue_capacity: 32,
            ..Default::default()
        },
    );
    let driver = FrontendDriver::spawn(frontend);

    let rounds = 4usize;
    let handles: Vec<_> = (0..2usize)
        .map(|t| {
            let client = driver.client();
            let reqs = reqs.clone();
            std::thread::spawn(move || {
                let mut out = Vec::new();
                for round in 0..rounds {
                    for i in 0..reqs.len() {
                        let req = &reqs[(i + t * 11 + round) % reqs.len()];
                        let ticket = submit_retrying(&client, req);
                        out.push((req.user, ticket));
                    }
                }
                out.into_iter()
                    .map(|(user, ticket)| {
                        let resp = client
                            .take_deadline(ticket, Duration::from_secs(30))
                            .expect("every accepted ticket completes");
                        (user, ticket, resp)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    // The refresh lands mid-stream: one generation bump, every planned
    // pair staged warm before the commit.
    std::thread::sleep(Duration::from_millis(5));
    let report = driver.client().swap_artifact(artifact_v2.clone(), &plan);
    assert_eq!(report.generation, 2, "one bump");
    assert_eq!(report.warmed, plan.len(), "staged fully warm");

    let mut by_ticket: Vec<(Ticket, u64)> = Vec::new();
    for handle in handles {
        for (user, ticket, resp) in handle.join().expect("submitter thread") {
            assert_eq!(resp.outcome, RankOutcome::Served);
            let want = match resp.generation {
                1 => &want_a[user],
                2 => &want_b[user],
                g => panic!("unexpected generation {g}"),
            };
            assert_same(&resp, want, "per-generation");
            by_ticket.push((ticket, resp.generation));
        }
    }
    by_ticket.sort_unstable_by_key(|&(ticket, _)| ticket);
    for pair in by_ticket.windows(2) {
        assert!(
            pair[0].1 <= pair[1].1,
            "generation regressed in ticket order: {pair:?}"
        );
    }
    assert_eq!(driver.client().generation(), 2);
    let stats = driver.client().stats();
    assert_eq!(stats.swaps, 1);
    assert_eq!(stats.served, stats.submitted, "no ticket lost across swap");

    // Zero post-swap assembly misses: replay every planned request on
    // the shutdown-returned frontend; the swap staged each pair warm,
    // so not a single kernel block is reassembled.
    let mut frontend = driver.shutdown().expect("no surviving clients");
    let (_, misses_before) = frontend.ranker().cache_stats();
    let tickets: Vec<Ticket> = reqs
        .iter()
        .map(|r| frontend.try_submit(r.clone()).expect("replay admitted"))
        .collect();
    frontend.pump();
    let (_, misses_after) = frontend.ranker().cache_stats();
    assert_eq!(
        misses_after - misses_before,
        0,
        "post-swap traffic must hit the swap-staged entries"
    );
    for (ticket, want) in tickets.iter().zip(&want_b) {
        let resp = frontend.try_take(*ticket).expect("replayed ticket");
        assert_eq!(resp.generation, 2);
        assert_same(&resp, want, "post-swap replay");
    }
}

/// The serving half of the no-op contract: an empty delta leaves the model
/// bitwise untouched, and `refresh_from` reuses the already-normalized
/// kernel, so the refreshed artifact serves every request bitwise
/// identically to the base artifact.
#[test]
fn empty_delta_refresh_serves_bitwise_identically() {
    let data = data();
    let (model, kernel, base) = trained(&data);
    let mut m = model.clone();
    let rep = Trainer::new(train_cfg()).update(
        &mut m,
        &mut LkpObjective::new(LkpKind::NegativeAware, kernel.clone()),
        &base,
        &DatasetDelta::new(),
    );
    assert!(rep.no_op);

    let v1 = RankingArtifact::snapshot(&model, &kernel);
    let v2 = v1.refresh_from(&m);
    let reqs = requests(&data, 6);
    let want = Ranker::new(v1, serve_cfg()).rank_batch(&reqs);
    let got = Ranker::new(v2, serve_cfg()).rank_batch(&reqs);
    for (g, w) in got.iter().zip(&want) {
        assert_same(g, w, "empty-delta refresh");
    }
}
