//! Threaded-driver acceptance suite: the pump thread plus concurrent
//! submitters must lose no tickets, serve bitwise what a direct batch
//! serves, keep generations monotone in ticket order across a hot swap
//! under live traffic, and survive a panicking model without wedging the
//! pump.

use lkp_core::objective::{LkpKind, LkpObjective};
use lkp_core::{train_diversity_kernel, DiversityKernelConfig, TrainConfig, Trainer};
use lkp_data::{Dataset, SyntheticConfig};
use lkp_dpp::LowRankKernel;
use lkp_models::{MatrixFactorization, Recommender};
use lkp_nn::AdamConfig;
use lkp_serve::{
    FrontendConfig, FrontendDriver, ManualClock, RankOutcome, RankRequest, RankResponse, Ranker,
    RankingArtifact, ServeConfig, ServeFrontend, SubmitError, Ticket,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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

/// Bound on every wait in this suite, so a regression fails instead of
/// hanging.
const WAIT: Duration = Duration::from_secs(10);

/// A one-shot latch shared between threads.
#[derive(Clone, Default)]
struct Gate(Arc<(Mutex<bool>, Condvar)>);

impl Gate {
    fn open(&self) {
        *self.0 .0.lock().unwrap() = true;
        self.0 .1.notify_all();
    }

    /// Waits up to `timeout` for the gate; returns whether it opened.
    fn wait(&self, timeout: Duration) -> bool {
        let guard = self.0 .0.lock().unwrap();
        let (open, _) = self
            .0
             .1
            .wait_timeout_while(guard, timeout, |open| !*open)
            .unwrap();
        *open
    }
}

/// A model whose scoring of `user` opens `entered`, then waits on
/// `release` (at most `WAIT`) before scoring like the inner model.
#[derive(Clone)]
struct GatedModel {
    inner: MatrixFactorization,
    user: usize,
    entered: Gate,
    release: Gate,
}

impl GatedModel {
    fn new(inner: &MatrixFactorization, user: usize) -> Self {
        GatedModel {
            inner: inner.clone(),
            user,
            entered: Gate::default(),
            release: Gate::default(),
        }
    }
}

impl Recommender for GatedModel {
    fn n_users(&self) -> usize {
        self.inner.n_users()
    }
    fn n_items(&self) -> usize {
        self.inner.n_items()
    }
    fn score_items(&self, user: usize, items: &[usize]) -> Vec<f64> {
        if user == self.user {
            self.entered.open();
            self.release.wait(WAIT);
        }
        self.inner.score_items(user, items)
    }
    fn accumulate_score_grads(&mut self, _: usize, _: &[usize], _: &[f64]) {}
    fn step(&mut self) {}
}

fn gated_ranker(model: &GatedModel, kernel: &LowRankKernel) -> Ranker<GatedModel> {
    Ranker::new(
        RankingArtifact::snapshot(model, kernel),
        ServeConfig {
            threads: 2,
            ..Default::default()
        },
    )
}

fn ranker(model: &MatrixFactorization, kernel: &LowRankKernel) -> Ranker<MatrixFactorization> {
    Ranker::new(
        RankingArtifact::snapshot(model, kernel),
        ServeConfig {
            threads: 2,
            ..Default::default()
        },
    )
}

/// Submits with bounded-queue retry: QueueFull is backpressure, not an
/// error — the pump drains the queue, so retrying always terminates.
fn submit_retrying<M: Recommender + Send + Sync + 'static>(
    client: &lkp_serve::DriverClient<M>,
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

/// Driver stress: four concurrent submitter threads, each pushing every
/// request in its own (seeded, distinct) order through a bounded queue,
/// with the pump thread cutting on the wall clock. Every ticket redeems,
/// every response is bitwise the direct batch's.
#[test]
fn driver_serves_bitwise_under_concurrent_submitters() {
    let data = data();
    let (model, kernel) = trained(&data);
    let reqs = requests(&data, 6);
    let want = ranker(&model, &kernel).rank_batch(&reqs);

    let frontend = ServeFrontend::new(
        ranker(&model, &kernel),
        FrontendConfig {
            max_batch: 8,
            queue_capacity: 16,
            ..Default::default()
        },
    );
    let driver = FrontendDriver::spawn(frontend);

    let n_threads = 4usize;
    let handles: Vec<_> = (0..n_threads)
        .map(|t| {
            let client = driver.client();
            let reqs = reqs.clone();
            std::thread::spawn(move || {
                // A per-thread rotation: distinct deterministic submission
                // orders without coordinating the threads.
                let n = reqs.len();
                let mut served = Vec::with_capacity(n);
                for i in 0..n {
                    let req = &reqs[(i * 7 + t * 5) % n];
                    let ticket = submit_retrying(&client, req);
                    served.push((req.user, ticket));
                }
                served
                    .into_iter()
                    .map(|(user, ticket)| {
                        let resp = client
                            .take_deadline(ticket, Duration::from_secs(30))
                            .expect("every accepted ticket completes");
                        (user, resp)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    let mut redeemed = 0usize;
    for handle in handles {
        for (user, resp) in handle.join().expect("submitter thread") {
            assert_eq!(resp.outcome, RankOutcome::Served);
            assert_eq!(resp.generation, 1);
            assert_same(&resp, &want[user], "driver vs direct");
            redeemed += 1;
        }
    }
    assert_eq!(redeemed, n_threads * reqs.len());

    let stats = driver.client().stats();
    assert_eq!(stats.submitted, (n_threads * reqs.len()) as u64);
    assert_eq!(stats.served, stats.submitted, "no ticket lost");
    assert_eq!(stats.latency.count(), stats.served);

    let frontend = driver.shutdown().expect("no surviving clients");
    assert_eq!(frontend.pending_len(), 0);
    assert_eq!(frontend.completed_len(), 0);
}

/// Hot swap under live traffic: submitters keep streaming while the main
/// thread swaps to a second artifact. Every response matches the baseline
/// of the generation stamped on it, and — because batches are cut FIFO and
/// the swap commits between cuts — generations are non-decreasing in
/// ticket order.
#[test]
fn driver_swap_under_live_traffic_is_bitwise_per_generation() {
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
    let reqs = requests(&data, 6);
    let plan: Vec<(usize, Vec<usize>)> = reqs
        .iter()
        .map(|r| (r.user, r.candidates.clone()))
        .collect();
    let want_a = ranker(&model_a, &kernel).rank_batch(&reqs);
    let want_b = ranker(&model_b, &kernel).rank_batch(&reqs);

    let frontend = ServeFrontend::new(
        ranker(&model_a, &kernel),
        FrontendConfig {
            max_batch: 8,
            queue_capacity: 32,
            ..Default::default()
        },
    );
    let driver = FrontendDriver::spawn(frontend);

    let rounds = 6usize;
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

    // Swap mid-stream, from a third thread's client handle.
    std::thread::sleep(Duration::from_millis(5));
    let report = driver
        .client()
        .swap_artifact(RankingArtifact::snapshot(&model_b, &kernel), &plan);
    assert_eq!(report.generation, 2);
    assert_eq!(report.warmed, plan.len());

    let mut by_ticket: Vec<(Ticket, u64)> = Vec::new();
    for handle in handles {
        for (user, ticket, resp) in handle.join().expect("submitter thread") {
            assert_eq!(resp.outcome, RankOutcome::Served);
            let want = match resp.generation {
                1 => &want_a[user],
                2 => &want_b[user],
                g => panic!("unexpected generation {g}"),
            };
            assert_same(&resp, want, "per-generation bitwise");
            by_ticket.push((ticket, resp.generation));
        }
    }
    // FIFO cuts + between-cut commit ⇒ monotone generations by ticket.
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
    drop(driver);
}

/// Shutdown serves everything pending (zero lost tickets), then refuses
/// new submissions; with clients still alive the queue stays redeemable
/// behind them, and once they drop the frontend is returned intact. A gated
/// model holds the pump inside its first batch so the rest stay pending.
#[test]
fn driver_shutdown_flushes_pending_and_refuses_new_work() {
    let data = data();
    let (model, kernel) = trained(&data);
    let reqs = requests(&data, 5);
    let want = ranker(&model, &kernel).rank_batch(&reqs);

    let gated = GatedModel::new(&model, reqs[0].user);
    let driver = FrontendDriver::spawn(ServeFrontend::new(
        gated_ranker(&gated, &kernel),
        FrontendConfig::default(),
    ));
    let client = driver.client();
    let first = client.submit(reqs[0].clone()).expect("admitted");
    assert!(gated.entered.wait(WAIT), "the pump starts ranking");
    let mut tickets = vec![first];
    tickets.extend(
        reqs[1..]
            .iter()
            .map(|r| client.submit(r.clone()).expect("admitted")),
    );
    assert_eq!(client.stats().served, 0, "the rest are still pending");

    // A surviving client keeps the queue alive behind the driver. Shut down
    // on another thread, and release the pump once submissions are refused.
    let shutdown = std::thread::spawn(move || driver.shutdown().is_none());
    let mut probes = Vec::new();
    let started = Instant::now();
    loop {
        match client.submit(reqs[1].clone()) {
            Ok(ticket) => probes.push(ticket),
            Err(SubmitError::ShuttingDown) => break,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
        assert!(started.elapsed() < WAIT, "shutdown never refused work");
        std::thread::sleep(Duration::from_millis(1));
    }
    gated.release.open();
    assert!(
        shutdown.join().expect("shutdown thread"),
        "client still holds a handle"
    );
    assert_eq!(
        client.submit(reqs[0].clone()),
        Err(SubmitError::ShuttingDown)
    );
    for (ticket, want) in tickets.iter().zip(want.iter()) {
        let resp = client
            .take_deadline(*ticket, Duration::ZERO)
            .expect("shutdown served the queue");
        assert_eq!(resp.outcome, RankOutcome::Served);
        assert_same(&resp, want, "served at shutdown");
    }
    for ticket in &probes {
        let resp = client
            .take_deadline(*ticket, Duration::ZERO)
            .expect("probe served");
        assert_same(&resp, &want[1], "probe served at shutdown");
    }
    let stats = client.stats();
    assert_eq!(stats.served, (reqs.len() + probes.len()) as u64);

    // Without surviving clients, shutdown hands the frontend back.
    let gated = GatedModel::new(&model, reqs[0].user);
    let driver = FrontendDriver::spawn(ServeFrontend::new(
        gated_ranker(&gated, &kernel),
        FrontendConfig::default(),
    ));
    let (first, ticket) = {
        let client = driver.client();
        let first = client.submit(reqs[0].clone()).expect("admitted");
        assert!(gated.entered.wait(WAIT), "the pump starts ranking");
        (first, client.submit(reqs[1].clone()).expect("admitted"))
    };
    gated.release.open();
    let mut frontend = driver.shutdown().expect("no surviving clients");
    assert_eq!(frontend.pending_len(), 0);
    let resp = frontend.try_take(first).expect("served before join");
    assert_same(&resp, &want[0], "redeemed from the returned frontend");
    let resp = frontend.try_take(ticket).expect("served before join");
    assert_same(&resp, &want[1], "pending at shutdown, redeemed after");
}

/// With no batching timer, a lone request is served as soon as the pump
/// is free — even when the frontend's clock never moves.
#[test]
fn driver_serves_a_lone_request_on_a_frozen_clock() {
    let data = data();
    let (model, kernel) = trained(&data);
    let reqs = requests(&data, 5);
    let want = ranker(&model, &kernel).rank_batch(&reqs[..1]);
    let driver = FrontendDriver::spawn(ServeFrontend::with_clock(
        ranker(&model, &kernel),
        FrontendConfig::default(),
        Box::new(ManualClock::new()),
    ));
    let client = driver.client();
    let ticket = client.submit(reqs[0].clone()).expect("admitted");
    let resp = client
        .take_deadline(ticket, WAIT)
        .expect("served without the clock advancing");
    assert_same(&resp, &want[0], "lone request");
    let stats = client.stats();
    assert_eq!((stats.batches, stats.cuts_deadline), (1, 1));
}

/// The pump ranks with no frontend guard held: a submission made while a
/// batch is inside `rank_batch_into` returns at once. The gated model
/// holds that batch until the test releases it, after the submission has
/// returned or `WAIT` has passed.
#[test]
fn submit_returns_while_the_pump_is_ranking() {
    let data = data();
    let (model, kernel) = trained(&data);
    let reqs = requests(&data, 5);
    let want = ranker(&model, &kernel).rank_batch(&reqs[..2]);
    let gated = GatedModel::new(&model, reqs[0].user);
    let driver = FrontendDriver::spawn(ServeFrontend::new(
        gated_ranker(&gated, &kernel),
        FrontendConfig::default(),
    ));
    let client = driver.client();
    let first = client.submit(reqs[0].clone()).expect("admitted");
    assert!(gated.entered.wait(WAIT), "the pump starts ranking");

    let returned = Gate::default();
    let submitter = {
        let (client, returned, req) = (client.clone(), returned.clone(), reqs[1].clone());
        std::thread::spawn(move || {
            let ticket = client.submit(req).expect("admitted");
            returned.open();
            ticket
        })
    };
    let in_time = returned.wait(WAIT);
    gated.release.open();
    assert!(in_time, "submit blocked behind the ranking batch");
    let second = submitter.join().expect("submitter thread");
    for (ticket, want) in [first, second].iter().zip(&want) {
        let resp = client.take_deadline(*ticket, WAIT).expect("served");
        assert_same(&resp, want, "gated batch and its successor");
    }
}

/// A model that panics while scoring one user must not wedge the pump
/// thread: the poisoned ticket reports [`RankOutcome::Panicked`], siblings
/// serve bitwise clean, and the driver keeps serving afterwards.
#[test]
fn driver_survives_panicking_model() {
    #[derive(Clone)]
    struct PanickyModel {
        inner: MatrixFactorization,
        panic_user: usize,
    }

    impl Recommender for PanickyModel {
        fn n_users(&self) -> usize {
            self.inner.n_users()
        }
        fn n_items(&self) -> usize {
            self.inner.n_items()
        }
        fn score_items(&self, user: usize, items: &[usize]) -> Vec<f64> {
            assert_ne!(user, self.panic_user, "injected model fault");
            self.inner.score_items(user, items)
        }
        fn accumulate_score_grads(&mut self, _: usize, _: &[usize], _: &[f64]) {}
        fn step(&mut self) {}
    }

    let data = data();
    let (model, kernel) = trained(&data);
    let reqs = requests(&data, 5);
    let want = ranker(&model, &kernel).rank_batch(&reqs);
    let bad = 4usize;

    // Expected panics: silence the hook for the duration of the test.
    let saved = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let frontend = ServeFrontend::new(
        Ranker::new(
            RankingArtifact::snapshot(
                &PanickyModel {
                    inner: model.clone(),
                    panic_user: bad,
                },
                &kernel,
            ),
            ServeConfig {
                threads: 2,
                ..Default::default()
            },
        ),
        FrontendConfig {
            max_batch: 8,
            ..Default::default()
        },
    );
    let driver = FrontendDriver::spawn(frontend);
    let client = driver.client();

    for round in 0..2 {
        let tickets: Vec<_> = reqs.iter().map(|r| submit_retrying(&client, r)).collect();
        for (ticket, clean) in tickets.iter().zip(want.iter()) {
            let resp = client
                .take_deadline(*ticket, Duration::from_secs(30))
                .expect("every ticket completes");
            if resp.user == bad {
                assert_eq!(resp.outcome, RankOutcome::Panicked, "round {round}");
                assert!(resp.items.is_empty());
            } else {
                assert_eq!(resp.outcome, RankOutcome::Served, "round {round}");
                assert_same(&resp, clean, &format!("round {round} sibling"));
            }
        }
    }
    assert_eq!(client.stats().panicked, 2);
    drop(client);
    driver.shutdown();

    std::panic::set_hook(saved);
}
