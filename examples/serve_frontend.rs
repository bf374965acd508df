//! The async serving frontend: requests submitted one at a time, cut into
//! micro-batches, served from per-worker kernel caches that were pre-warmed
//! with the plan of popular `(user, candidate-set)` pairs.
//!
//! ```text
//! cargo run --release --example serve_frontend
//! ```
//!
//! This is the full production shape of the paper's product: train once,
//! freeze an artifact, then serve a skewed request stream — a hot set of
//! users generating most traffic — through [`ServeFrontend`]. Two things
//! are demonstrated and asserted:
//!
//! 1. micro-batched frontend output is **bitwise identical** to direct
//!    batching (batch composition can never change a served list),
//! 2. prewarmed hot users never miss: every one of their requests, on
//!    whichever worker it lands, is served from the kernel cache without an
//!    `O(|C|²·d)` kernel assembly.

use lkp::prelude::*;
use lkp::serve::{FrontendConfig, ServeFrontend, Ticket};
use rand::SeedableRng;

fn main() {
    // A compact world so the example runs in seconds.
    let data = SyntheticConfig {
        n_users: 150,
        n_items: 400,
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
    let mut objective = LkpObjective::new(LkpKind::NegativeAware, kernel);
    let trainer = Trainer::new(TrainConfig {
        epochs: 5,
        eval_every: 0,
        patience: 0,
        threads: 2,
        ..Default::default()
    });
    trainer.fit(&mut model, &mut objective, &data);
    let artifact = RankingArtifact::from_trained(&model, &objective);

    // The request stream: 20 hot users produce ~2/3 of the traffic, the
    // long tail the rest; per-user candidate pools are stable.
    let pool_for = |user: usize| -> Vec<usize> {
        (0..50)
            .map(|j| (user * 53 + j * 29 + 11) % data.n_items())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect()
    };
    let stream: Vec<RankRequest> = (0..300)
        .map(|i| {
            let user = if i % 3 < 2 {
                (i * 7) % 20
            } else {
                20 + (i * 11) % (data.n_users() - 20)
            };
            RankRequest::new(user, pool_for(user), 5)
        })
        .collect();

    // Reference lists from one direct batch (per-worker cache, width 2).
    let mut direct = Ranker::new(
        artifact.clone(),
        ServeConfig {
            threads: 2,
            ..Default::default()
        },
    );
    let want = direct.rank_batch(&stream);

    // The frontend: micro-batches of ≤ 32, cut inline once 32 are pending
    // or by `pump` with whatever is pending.
    let mut frontend = ServeFrontend::new(
        Ranker::new(
            artifact,
            ServeConfig {
                threads: 2,
                ..Default::default()
            },
        ),
        FrontendConfig {
            max_batch: 32,
            ..Default::default()
        },
    );

    // Plan-aware pre-warming: the hot users' pairs are known ahead of
    // traffic (the serving analogue of the trainer's frozen epoch plans).
    // Every worker builds every pair, so a hot request hits wherever it
    // lands.
    let plan: Vec<(usize, Vec<usize>)> = (0..20).map(|u| (u, pool_for(u))).collect();
    let warmed = frontend.prewarm(&plan);
    assert_eq!(warmed, plan.len(), "the whole plan fits the cache budget");
    println!("prewarmed {warmed} hot (user, candidate-set) pairs on every worker");

    // Submit one request at a time; every 50 submissions the stream goes
    // quiet and the pump serves the partial batch left pending.
    let mut tickets: Vec<Ticket> = Vec::new();
    for (i, req) in stream.iter().enumerate() {
        tickets.push(frontend.submit(req.clone()));
        if i % 50 == 49 {
            frontend.pump();
        }
    }
    frontend.pump();

    // 1. Frontend == direct batch, bitwise.
    // 2. Prewarmed hot users never miss: each of their responses is a hit.
    let mut hot_requests = 0u64;
    for (ticket, want) in tickets.iter().zip(&want) {
        let got = frontend.try_take(*ticket).expect("all tickets served");
        assert_eq!(got.items, want.items, "micro-batching changed a list");
        assert_eq!(got.log_det.to_bits(), want.log_det.to_bits());
        if got.user < 20 {
            assert!(got.cache_hit, "prewarmed hot user {} missed", got.user);
            hot_requests += 1;
        }
    }
    println!("frontend lists identical to direct batching ✓");
    println!("all {hot_requests} hot-user requests served from the prewarmed cache ✓");

    let stats = frontend.ranker().cache_stats_detailed();
    println!(
        "kernel cache: {} hits / {} misses / {} prewarmed across {} workers",
        stats.aggregate.hits,
        stats.aggregate.misses,
        stats.aggregate.prewarmed,
        stats.per_worker.len(),
    );

    let fstats = frontend.stats();
    println!(
        "frontend: {} requests in {} micro-batches ({} full, {} partial)",
        fstats.served, fstats.batches, fstats.cuts_full, fstats.cuts_deadline
    );
    assert_eq!(fstats.served, stream.len() as u64);
    assert_eq!(fstats.batches, fstats.cuts_full + fstats.cuts_deadline);
    assert!(
        fstats.cuts_deadline > 0,
        "pumping a quiet stream must cut a partial batch"
    );

    for resp in want.iter().take(3) {
        let cats: std::collections::BTreeSet<usize> =
            resp.items.iter().map(|&i| data.category(i)).collect();
        println!(
            "user {:>3}: top-5 {:?}  ({} distinct categories, log_det {:.3})",
            resp.user,
            resp.items,
            cats.len(),
            resp.log_det
        );
    }
}
