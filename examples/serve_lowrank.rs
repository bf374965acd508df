//! The low-rank dual serving fast path at production candidate-pool sizes:
//! greedy MAP runs directly on the factored kernel `B = Diag(q)·Φ_C`
//! without ever materializing the dense `|C| × |C|` kernel.
//!
//! ```text
//! cargo run --release --example serve_lowrank
//! ```
//!
//! Three things are demonstrated and asserted:
//!
//! 1. **equality** — at `|C| = 1600` the dual path serves the same top-10
//!    list as the dense path for every request;
//! 2. **speed** — cold (cache disabled), the dual path is at least 2×
//!    faster per request (a CI-safe margin below the measured gap);
//! 3. **dual under the driver** — full-pool and head-capped (degraded)
//!    requests both ride the dual path, and every response served through
//!    the [`FrontendDriver`] is bitwise identical to a direct batch in the
//!    same configuration.

use lkp::prelude::*;
use rand::SeedableRng;
use std::time::{Duration, Instant};

fn main() {
    // Enough catalog for 1600-item candidate pools; compact users so the
    // example trains in seconds.
    let data = SyntheticConfig {
        n_users: 100,
        n_items: 2000,
        n_categories: 12,
        mean_interactions: 16.0,
        seed: 21,
        ..Default::default()
    }
    .generate();

    let kernel = train_diversity_kernel(
        &data,
        &DiversityKernelConfig {
            epochs: 3,
            pairs_per_epoch: 64,
            dim: 16,
            ..Default::default()
        },
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let mut model = MatrixFactorization::new(
        data.n_users(),
        data.n_items(),
        24,
        AdamConfig::default(),
        &mut rng,
    );
    let mut objective = LkpObjective::new(LkpKind::NegativeAware, kernel);
    let trainer = Trainer::new(TrainConfig {
        epochs: 2,
        eval_every: 0,
        patience: 0,
        threads: 2,
        ..Default::default()
    });
    trainer.fit(&mut model, &mut objective, &data);
    let artifact = RankingArtifact::from_trained(&model, &objective);

    // 1600 unique candidates per user (101 is coprime with the catalog
    // size, so the stride never collides).
    let pool_for = |user: usize| -> Vec<usize> {
        (0..1600)
            .map(|j| (user * 37 + j * 101 + 13) % data.n_items())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect()
    };
    let reqs: Vec<RankRequest> = (0..12)
        .map(|i| {
            let u = (i * 17 + 5) % data.n_users();
            RankRequest::new(u, pool_for(u), 10)
        })
        .collect();

    // ---- 1 + 2: equality and speed, dense vs dual, cold cache ----
    let cold = |form| ServeConfig {
        threads: 2,
        kernel_cache_bytes: 0,
        kernel_form: form,
        ..Default::default()
    };
    let mut dense = Ranker::new(artifact.clone(), cold(KernelForm::Dense));
    let mut dual = Ranker::new(artifact.clone(), cold(KernelForm::LowRankDual));
    let mut dense_out = Vec::new();
    let mut dual_out = Vec::new();
    dense.rank_batch_into(&reqs, &mut dense_out); // warm buffers, not caches
    dual.rank_batch_into(&reqs, &mut dual_out);
    let t = Instant::now();
    dense.rank_batch_into(&reqs, &mut dense_out);
    let dense_ns = t.elapsed().as_nanos() as f64 / reqs.len() as f64;
    let t = Instant::now();
    dual.rank_batch_into(&reqs, &mut dual_out);
    let dual_ns = t.elapsed().as_nanos() as f64 / reqs.len() as f64;
    for (a, b) in dense_out.iter().zip(&dual_out) {
        assert_eq!(a.items, b.items, "dual path changed a served list");
        assert!(
            (a.log_det - b.log_det).abs() < 1e-6 * a.log_det.abs().max(1.0),
            "log_det drifted past reassociation rounding"
        );
    }
    let speedup = dense_ns / dual_ns;
    println!(
        "|C| = 1600, top-10, cold: dense {:.2} ms/request, dual {:.3} ms/request ({speedup:.1}x)",
        dense_ns / 1e6,
        dual_ns / 1e6
    );
    assert!(
        speedup >= 2.0,
        "dual speedup {speedup:.2}x fell under the example's 2x bar"
    );
    assert_eq!(dual.dual_fallbacks(), 0, "no breakdowns on this workload");

    // ---- 3: the dual path under the production driver ----
    // Full 1600-candidate requests and head-capped (rerank_head = 64)
    // requests, which rerank a 64-item head, flow through one driver; both
    // run dual and must be bitwise identical to a direct batch in the same
    // configuration.
    let dual_config = ServeConfig {
        threads: 2,
        kernel_form: KernelForm::LowRankDual,
        ..Default::default()
    };
    let mixed: Vec<RankRequest> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            if i % 2 == 1 {
                r.clone().with_rerank_head(64)
            } else {
                r.clone()
            }
        })
        .collect();
    let want = Ranker::new(artifact.clone(), dual_config.clone()).rank_batch(&mixed);

    let frontend = ServeFrontend::new(
        Ranker::new(artifact, dual_config),
        FrontendConfig {
            max_batch: 8,
            queue_capacity: 64,
            ..Default::default()
        },
    );
    let driver = FrontendDriver::spawn(frontend);
    let client = driver.client();
    let tickets: Vec<_> = mixed
        .iter()
        .map(|r| client.submit(r.clone()).expect("queue has room"))
        .collect();
    let mut degraded = 0usize;
    for (ticket, want) in tickets.into_iter().zip(&want) {
        let resp = client
            .take_deadline(ticket, Duration::from_secs(30))
            .expect("every ticket completes");
        assert!(matches!(resp.outcome, RankOutcome::Served));
        assert_eq!(resp.items, want.items, "driver drifted from direct batch");
        assert_eq!(resp.log_det.to_bits(), want.log_det.to_bits());
        degraded += resp.degraded as usize;
    }
    assert_eq!(
        degraded,
        mixed.len() / 2,
        "exactly the head-capped half reports degraded"
    );
    drop(client);
    let mut frontend = driver.shutdown().expect("all clients dropped");
    assert_eq!(
        frontend.ranker().dual_fallbacks(),
        0,
        "driver run finished without breakdowns"
    );
    println!(
        "dual driver run: {} responses bitwise-verified ({} full-pool, {} head-capped) ✓",
        mixed.len(),
        mixed.len() - degraded,
        degraded
    );

    for resp in want.iter().take(2) {
        let cats: std::collections::BTreeSet<usize> =
            resp.items.iter().map(|&i| data.category(i)).collect();
        println!(
            "user {:>3}: top-10 {:?}  ({} distinct categories{})",
            resp.user,
            resp.items,
            cats.len(),
            if resp.degraded { ", degraded head" } else { "" }
        );
    }
}
