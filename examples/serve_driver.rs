//! The production serving shell end to end: a [`FrontendDriver`] pump
//! thread, concurrent submitters with per-request SLOs and bounded-queue
//! admission, and a zero-downtime artifact swap committed under live
//! traffic.
//!
//! ```text
//! cargo run --release --example serve_driver
//! ```
//!
//! Three things are demonstrated and asserted:
//!
//! 1. **zero lost tickets** — every admitted request completes (served or
//!    explicitly expired), across shedding, a mid-run swap, and shutdown;
//! 2. **per-generation fidelity** — every response is bitwise identical to
//!    a direct batch on the artifact generation stamped on it;
//! 3. **monotone generations** — because micro-batches are cut FIFO and
//!    the swap commits between cuts, generations never regress in ticket
//!    order.

use lkp::prelude::*;
use rand::SeedableRng;
use std::time::Duration;

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
    let artifact_v1 = RankingArtifact::from_trained(&model, &objective);

    // The "retrained" second generation: two more epochs on the live model.
    trainer.fit(&mut model, &mut objective, &data);
    let artifact_v2 = RankingArtifact::from_trained(&model, &objective);

    // A skewed stream over stable per-user candidate pools.
    let pool_for = |user: usize| -> Vec<usize> {
        (0..50)
            .map(|j| (user * 53 + j * 29 + 11) % data.n_items())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect()
    };
    let users: Vec<usize> = (0..120)
        .map(|i| {
            if i % 3 < 2 {
                (i * 7) % 20
            } else {
                20 + (i * 11) % (data.n_users() - 20)
            }
        })
        .collect();
    let stream: Vec<RankRequest> = users
        .iter()
        .map(|&u| RankRequest::new(u, pool_for(u), 5))
        .collect();
    let plan: Vec<(usize, Vec<usize>)> = (0..data.n_users()).map(|u| (u, pool_for(u))).collect();

    // Per-generation reference lists from direct batches.
    let serve_config = ServeConfig {
        threads: 2,
        ..Default::default()
    };
    let want_v1 = Ranker::new(artifact_v1.clone(), serve_config.clone()).rank_batch(&stream);
    let want_v2 = Ranker::new(artifact_v2.clone(), serve_config.clone()).rank_batch(&stream);

    // Spawn the driver: the pump thread owns the ranker and cuts a batch
    // whenever it is free; clients only submit and redeem.
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
    println!("driver up: pump thread owns the cuts, generation 1 serving");

    // Two submitter threads stream mixed-SLO traffic (hot users get a
    // tight-ish budget, the tail a loose one), retrying on QueueFull.
    let rounds = 4usize;
    let submitters: Vec<_> = (0..2usize)
        .map(|t| {
            let client = driver.client();
            let stream = stream.clone();
            std::thread::spawn(move || {
                let mut tickets = Vec::new();
                for round in 0..rounds {
                    for i in 0..stream.len() {
                        let at = (i + t * 13 + round * 29) % stream.len();
                        let req = stream[at].clone().with_slo(if stream[at].user < 20 {
                            Duration::from_millis(250)
                        } else {
                            Duration::from_secs(2)
                        });
                        let ticket = loop {
                            match client.submit(req.clone()) {
                                Ok(ticket) => break ticket,
                                Err(SubmitError::QueueFull { .. }) => std::thread::yield_now(),
                                Err(e) => panic!("unexpected submit error: {e}"),
                            }
                        };
                        tickets.push((at, ticket));
                    }
                }
                tickets
                    .into_iter()
                    .map(|(at, ticket)| {
                        let resp = client
                            .take_deadline(ticket, Duration::from_secs(30))
                            .expect("every admitted ticket completes");
                        (at, ticket, resp)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    // Mid-run, hot-swap to generation 2 — once a quarter of the traffic
    // has been served, so the commit demonstrably lands under load.
    // Staging (building + prewarming the new cache) runs off the driver's
    // lock; the pump commits it between batches.
    let total = (2 * rounds * stream.len()) as u64;
    while driver.client().stats().served < total / 4 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let report = driver.client().swap_artifact(artifact_v2, &plan);
    println!(
        "swapped to generation {} under live traffic: {} pairs prewarmed, \
         {} old entries retired, commit pause {:?}",
        report.generation, report.warmed, report.retired, report.commit_pause
    );

    // Collect and verify.
    let mut by_ticket = Vec::new();
    let mut outcomes = (0u64, 0u64); // (served, expired)
    for handle in submitters {
        for (at, ticket, resp) in handle.join().expect("submitter thread") {
            match resp.outcome {
                RankOutcome::Served => {
                    outcomes.0 += 1;
                    let want = match resp.generation {
                        1 => &want_v1[at],
                        2 => &want_v2[at],
                        g => panic!("unexpected generation {g}"),
                    };
                    assert_eq!(resp.items, want.items, "list drifted from its generation");
                    assert_eq!(resp.log_det.to_bits(), want.log_det.to_bits());
                }
                RankOutcome::Expired => outcomes.1 += 1,
                other => panic!("unexpected outcome {other:?}"),
            }
            by_ticket.push((ticket, resp.generation));
        }
    }
    by_ticket.sort_unstable_by_key(|&(ticket, _)| ticket);
    for pair in by_ticket.windows(2) {
        assert!(pair[0].1 <= pair[1].1, "generation regressed: {pair:?}");
    }
    let gen2 = by_ticket.iter().filter(|&&(_, g)| g == 2).count();
    assert!(gen2 > 0, "the swap must land under live traffic");
    println!(
        "{} responses bitwise-verified against their stamped generation \
         ({} on generation 2); generations monotone in ticket order ✓",
        by_ticket.len(),
        gen2
    );

    let stats = driver.client().stats();
    assert_eq!(
        outcomes.0 + outcomes.1,
        total,
        "zero lost tickets: every admitted request served or expired"
    );
    assert_eq!(stats.served, outcomes.0);
    assert_eq!(stats.expired, outcomes.1);
    println!(
        "admission: {} submitted, {} shed at the bounded queue, {} expired past SLO",
        stats.submitted, stats.shed, stats.expired
    );
    println!(
        "queue wait: p50 {:?}, p95 {:?}, p99 {:?} over {} served",
        stats.latency.p50(),
        stats.latency.p95(),
        stats.latency.p99(),
        stats.latency.count()
    );
    println!(
        "cuts: {} full / {} partial across {} batches; {} swap(s)",
        stats.cuts_full, stats.cuts_deadline, stats.batches, stats.swaps
    );
    assert_eq!(stats.swaps, 1);

    // Clean shutdown: all clients dropped, so the frontend comes back.
    let frontend = driver.shutdown().expect("all clients dropped");
    assert_eq!(frontend.pending_len(), 0, "shutdown served the queue");
    println!("driver shut down cleanly: queue drained, zero tickets pending ✓");

    for resp in want_v2.iter().take(3) {
        let cats: std::collections::BTreeSet<usize> =
            resp.items.iter().map(|&i| data.category(i)).collect();
        println!(
            "user {:>3} (gen 2): top-5 {:?}  ({} distinct categories, log_det {:.3})",
            resp.user,
            resp.items,
            cats.len(),
            resp.log_det
        );
    }
}
