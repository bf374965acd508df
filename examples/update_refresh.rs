//! Incremental model refresh end to end: a warm base fit, a stream of new
//! interactions, a delta-fit (`Trainer::update`) that freezes unchanged
//! users' ground sets, and a zero-downtime landing in a live
//! [`FrontendDriver`] via [`RankingArtifact::refresh_from`] +
//! `swap_artifact`.
//!
//! ```text
//! cargo run --release --example update_refresh
//! ```
//!
//! Four things are demonstrated and asserted:
//!
//! 1. **empty-delta no-op** — refreshing with no new interactions leaves
//!    the model bitwise untouched and serves bitwise the base artifact;
//! 2. **delta-fit economy** — a real delta freezes most instances (only
//!    changed users resample) and runs only `update_epochs` epochs;
//! 3. **per-generation fidelity** — the swapped refresh serves bitwise
//!    what a direct batch on the refreshed artifact serves;
//! 4. **zero post-swap assembly misses** — the swap stages every planned
//!    `(user, candidates)` pair warm, so post-swap traffic never rebuilds
//!    a kernel block.

use lkp::prelude::*;
use rand::SeedableRng;
use std::time::Duration;

fn main() {
    let data = SyntheticConfig {
        n_users: 120,
        n_items: 300,
        n_categories: 10,
        mean_interactions: 18.0,
        seed: 33,
        ..Default::default()
    }
    .generate();

    let kernel = train_diversity_kernel(
        &data,
        &DiversityKernelConfig {
            epochs: 5,
            pairs_per_epoch: 96,
            ..Default::default()
        },
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let mut model = MatrixFactorization::new(
        data.n_users(),
        data.n_items(),
        24,
        AdamConfig::default(),
        &mut rng,
    );

    // The base fit captures a TrainedState: the merged dataset and the final
    // epoch plan (frozen negatives, so it is the plan every epoch trained
    // on).
    let cfg = TrainConfig {
        epochs: 4,
        eval_every: 0,
        patience: 0,
        k: 4,
        n: 4,
        sampling_policy: SamplingPolicy::FrozenNegatives,
        threads: 2,
        ..Default::default()
    };
    let mut objective = LkpObjective::new(LkpKind::NegativeAware, kernel.clone());
    let (_, base) = Trainer::new(cfg.clone()).fit_state(&mut model, &mut objective, &data);
    let artifact_v1 = RankingArtifact::from_trained(&model, &objective);
    println!(
        "base fit done: {} plan instances captured",
        base.plan().len()
    );

    // An empty delta is a strict no-op: nothing trains, nothing moves.
    let mut untouched = model.clone();
    let noop = Trainer::new(cfg.clone()).update(
        &mut untouched,
        &mut LkpObjective::new(LkpKind::NegativeAware, kernel.clone()),
        &base,
        &DatasetDelta::new(),
    );
    assert!(noop.no_op, "empty delta must be a no-op");
    assert_eq!(noop.report.epochs_run, 0);
    println!("empty delta: no-op confirmed, zero epochs run");

    // Overnight traffic: one fresh interaction for every fifth user.
    let mut delta = DatasetDelta::new();
    for user in (0..data.n_users()).step_by(5) {
        for item in 0..data.n_items() {
            if !data.is_observed(user, item) {
                delta.push(user, item);
                break;
            }
        }
    }

    // The delta-fit: unchanged users keep their frozen plan records, changed
    // users resample against the merged dataset, and only `update_epochs`
    // epochs run.
    let mut refreshed = model.clone();
    let rep = Trainer::new(TrainConfig {
        update_epochs: 2,
        ..cfg.clone()
    })
    .update(
        &mut refreshed,
        &mut LkpObjective::new(LkpKind::NegativeAware, kernel.clone()),
        &base,
        &delta,
    );
    assert!(!rep.no_op);
    assert!(rep.frozen_instances > rep.fresh_instances);
    assert_eq!(rep.report.epochs_run, 2);
    println!(
        "delta-fit: {} changed users, {} frozen / {} fresh instances, {} epochs",
        rep.changed_users, rep.frozen_instances, rep.fresh_instances, rep.report.epochs_run
    );

    // The serving handoff: the refreshed model rides the *same* normalized
    // diversity kernel, so `refresh_from` clones it verbatim — per-user
    // kernel-cache contents stay valid across the swap.
    let artifact_v2 = artifact_v1.refresh_from(&refreshed);

    let pool_for = |user: usize| -> Vec<usize> {
        (0..40)
            .map(|j| (user * 53 + j * 29 + 11) % data.n_items())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect()
    };
    let stream: Vec<RankRequest> = (0..data.n_users())
        .map(|u| RankRequest::new(u, pool_for(u), 5))
        .collect();
    let plan: Vec<(usize, Vec<usize>)> = (0..data.n_users()).map(|u| (u, pool_for(u))).collect();

    let serve_config = ServeConfig {
        threads: 2,
        ..Default::default()
    };
    let want_v1 = Ranker::new(artifact_v1.clone(), serve_config.clone()).rank_batch(&stream);
    let want_v2 = Ranker::new(artifact_v2.clone(), serve_config.clone()).rank_batch(&stream);

    let mut frontend = ServeFrontend::new(
        Ranker::new(artifact_v1, serve_config),
        FrontendConfig {
            max_batch: 16,
            queue_capacity: 64,
            ..Default::default()
        },
    );
    frontend.prewarm(&plan);
    let driver = FrontendDriver::spawn(frontend);

    // Generation 1 traffic, then the refresh lands under one bump.
    let client = driver.client();
    let gen1: Vec<_> = stream
        .iter()
        .map(|r| {
            let ticket = client.submit(r.clone()).expect("admitted");
            client
                .take_deadline(ticket, Duration::from_secs(30))
                .expect("served")
        })
        .collect();
    for (resp, want) in gen1.iter().zip(&want_v1) {
        assert_eq!(resp.generation, 1);
        assert_eq!(resp.items, want.items, "gen-1 drifted");
        assert_eq!(resp.log_det.to_bits(), want.log_det.to_bits());
    }

    let report = client.swap_artifact(artifact_v2, &plan);
    assert_eq!(report.generation, 2);
    assert_eq!(report.warmed, plan.len(), "every planned pair staged warm");
    println!(
        "refresh swapped in: generation {}, {} pairs prewarmed, \
         {} old entries retired, commit pause {:?}",
        report.generation, report.warmed, report.retired, report.commit_pause
    );

    // Post-swap traffic: bitwise the refreshed artifact, with zero kernel
    // assembly misses — every request hits the swap-staged cache.
    drop(client);
    let mut frontend = driver.shutdown().expect("all clients dropped");
    let (_, misses_before) = frontend.ranker().cache_stats();
    let tickets: Vec<_> = stream
        .iter()
        .map(|r| loop {
            // The bounded queue backpressures; without a pump thread the
            // example drains it inline.
            match frontend.try_submit(r.clone()) {
                Ok(ticket) => break ticket,
                Err(SubmitError::QueueFull { .. }) => {
                    frontend.pump();
                }
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        })
        .collect();
    frontend.pump();
    let (_, misses_after) = frontend.ranker().cache_stats();
    assert_eq!(misses_after - misses_before, 0, "post-swap assembly miss");
    for (ticket, want) in tickets.iter().zip(&want_v2) {
        let resp = frontend.try_take(*ticket).expect("served");
        assert_eq!(resp.generation, 2);
        assert_eq!(resp.items, want.items, "gen-2 drifted");
        assert_eq!(resp.log_det.to_bits(), want.log_det.to_bits());
    }
    println!(
        "{} post-swap responses bitwise the refreshed artifact, \
         zero assembly misses ✓",
        stream.len()
    );

    for resp in want_v2.iter().take(3) {
        let cats: std::collections::BTreeSet<usize> =
            resp.items.iter().map(|&i| data.category(i)).collect();
        println!(
            "user {:>3} (refreshed): top-5 {:?}  ({} distinct categories, log_det {:.3})",
            resp.user,
            resp.items,
            cats.len(),
            resp.log_det
        );
    }
}
