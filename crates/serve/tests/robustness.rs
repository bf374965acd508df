//! Robustness acceptance suite: failure isolation (panics, NaN scores,
//! poisoned diversity blocks), SLO expiry, admission shedding, degraded
//! mode, response TTL, and hot artifact swap under traffic.
//!
//! The isolation tests all follow the same discipline: inject exactly one
//! fault, pin that only the poisoned ticket reports it, and pin that every
//! sibling — same batch, any pool width — matches a clean-run baseline
//! **bitwise** (`log_det.to_bits()`), not approximately.

use lkp_core::objective::{LkpKind, LkpObjective};
use lkp_core::{train_diversity_kernel, DiversityKernelConfig, TrainConfig, Trainer};
use lkp_data::{Dataset, SyntheticConfig};
use lkp_dpp::LowRankKernel;
use lkp_models::{MatrixFactorization, Recommender};
use lkp_nn::AdamConfig;
use lkp_serve::{
    FrontendConfig, ManualClock, RankOutcome, RankRequest, RankResponse, Ranker, RankingArtifact,
    ServeConfig, ServeFrontend, SubmitError,
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

/// Runs `f` with the global panic hook silenced, so the *expected* injected
/// panics don't spew backtraces into the test output. The hook is global
/// per-process and tests run in parallel, so swaps are serialized.
fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    static HOOK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let saved = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = f();
    std::panic::set_hook(saved);
    result
}

/// A [`Recommender`] that delegates scoring to a trained model but injects
/// one fault per listed user: `panic_users` panic inside scoring (the
/// pool-side failure mode), `nan_users` return a NaN score (the numerical
/// failure mode). Every other user scores bit-identically to the inner
/// model, which is what makes sibling baselines comparable bitwise.
#[derive(Clone)]
struct FaultyModel {
    inner: MatrixFactorization,
    panic_users: Vec<usize>,
    nan_users: Vec<usize>,
}

impl FaultyModel {
    fn clean(inner: MatrixFactorization) -> Self {
        FaultyModel {
            inner,
            panic_users: Vec::new(),
            nan_users: Vec::new(),
        }
    }

    fn panicking(inner: MatrixFactorization, user: usize) -> Self {
        FaultyModel {
            inner,
            panic_users: vec![user],
            nan_users: Vec::new(),
        }
    }

    fn nan_scoring(inner: MatrixFactorization, user: usize) -> Self {
        FaultyModel {
            inner,
            panic_users: Vec::new(),
            nan_users: vec![user],
        }
    }
}

impl Recommender for FaultyModel {
    fn n_users(&self) -> usize {
        self.inner.n_users()
    }

    fn n_items(&self) -> usize {
        self.inner.n_items()
    }

    fn score_items(&self, user: usize, items: &[usize]) -> Vec<f64> {
        let mut out = Vec::new();
        self.score_items_into(user, items, &mut out);
        out
    }

    fn score_items_into(&self, user: usize, items: &[usize], out: &mut Vec<f64>) {
        if self.panic_users.contains(&user) {
            panic!("injected model fault for user {user}");
        }
        self.inner.score_items_into(user, items, out);
        if self.nan_users.contains(&user) {
            if let Some(s) = out.first_mut() {
                *s = f64::NAN;
            }
        }
    }

    fn accumulate_score_grads(&mut self, _user: usize, _items: &[usize], _dscores: &[f64]) {}

    fn step(&mut self) {}
}

fn faulty_ranker(
    model: FaultyModel,
    kernel: &LowRankKernel,
    threads: usize,
) -> Ranker<FaultyModel> {
    Ranker::new(
        RankingArtifact::snapshot(&model, kernel),
        ServeConfig {
            threads,
            ..Default::default()
        },
    )
}

/// Tentpole pillar 3a: a panicking request poisons only its own response
/// slot — siblings in the same batch are bitwise clean, and the *next*
/// batch on the same (unreplaced) pool is bitwise clean too, at widths
/// 1, 2, and 4.
#[test]
fn panicking_request_poisons_only_its_ticket() {
    let data = data();
    let (model, kernel) = trained(&data);
    let reqs = requests(&data, 6);
    let bad = 7usize;

    let want = faulty_ranker(FaultyModel::clean(model.clone()), &kernel, 1).rank_batch(&reqs);

    quiet_panics(|| {
        for threads in [1usize, 2, 4] {
            let mut ranker =
                faulty_ranker(FaultyModel::panicking(model.clone(), bad), &kernel, threads);
            let got = ranker.rank_batch(&reqs);
            assert_eq!(got.len(), reqs.len());
            for (resp, clean) in got.iter().zip(want.iter()) {
                if resp.user == bad {
                    assert_eq!(resp.outcome, RankOutcome::Panicked, "width {threads}");
                    assert!(resp.items.is_empty(), "width {threads}: poisoned list");
                } else {
                    assert_eq!(resp.outcome, RankOutcome::Served, "width {threads}");
                    assert_same(resp, clean, &format!("width {threads} sibling"));
                }
            }
            // The pool barrier survived: the next batch on the same ranker
            // is healthy (and the poisoned user keeps failing — the fault
            // is deterministic, not a wedged worker).
            let again = ranker.rank_batch(&reqs);
            for (resp, clean) in again.iter().zip(want.iter()) {
                if resp.user == bad {
                    assert_eq!(resp.outcome, RankOutcome::Panicked);
                } else {
                    assert_same(resp, clean, &format!("width {threads} second batch"));
                }
            }
        }
    });
}

/// Tentpole pillar 3b: NaN quality scores fail only their own request with
/// [`RankOutcome::Failed`]; siblings are bitwise clean at every width.
#[test]
fn nan_scores_fail_only_their_request() {
    let data = data();
    let (model, kernel) = trained(&data);
    let reqs = requests(&data, 6);
    let bad = 3usize;

    let want = faulty_ranker(FaultyModel::clean(model.clone()), &kernel, 1).rank_batch(&reqs);

    for threads in [1usize, 2, 4] {
        let mut ranker = faulty_ranker(
            FaultyModel::nan_scoring(model.clone(), bad),
            &kernel,
            threads,
        );
        let got = ranker.rank_batch(&reqs);
        for (resp, clean) in got.iter().zip(want.iter()) {
            if resp.user == bad {
                assert_eq!(resp.outcome, RankOutcome::Failed, "width {threads}");
                assert!(resp.items.is_empty(), "width {threads}: failed list");
                assert_eq!(resp.log_det, 0.0, "width {threads}: failed log_det");
            } else {
                assert_eq!(resp.outcome, RankOutcome::Served, "width {threads}");
                assert_same(resp, clean, &format!("width {threads} sibling"));
            }
        }
    }
}

/// Tentpole pillar 3c: a NaN diversity block (non-finite kernel rows) fails
/// only the requests whose candidates touch it. Candidate pools are made
/// disjoint so the clean users' submatrices are bit-identical between the
/// poisoned and clean kernels.
#[test]
fn nan_kernel_block_fails_only_touching_requests() {
    let data = data();
    let (model, kernel) = trained(&data);
    let poisoned_items: Vec<usize> = (60..70).collect();
    let bad = 0usize;

    // User 0 ranks only poisoned items; users 1..=8 rank only clean ones.
    let mut reqs = vec![RankRequest::new(bad, poisoned_items.clone(), 4)];
    for u in 1..=8usize {
        let candidates: Vec<usize> = (0..12).map(|j| (u * 5 + j) % 60).collect();
        reqs.push(RankRequest::new(u, candidates, 4));
    }

    let mut clean_ranker = Ranker::new(
        RankingArtifact::snapshot(&model, &kernel),
        ServeConfig {
            threads: 1,
            ..Default::default()
        },
    );
    let want = clean_ranker.rank_batch(&reqs);
    assert!(want.iter().all(|r| r.outcome == RankOutcome::Served));

    let mut poisoned = kernel.clone();
    for &item in &poisoned_items {
        let row = poisoned.factor_mut().row_mut(item);
        row.fill(f64::NAN);
    }

    for threads in [1usize, 2, 4] {
        let mut ranker = Ranker::new(
            RankingArtifact::snapshot(&model, &poisoned),
            ServeConfig {
                threads,
                ..Default::default()
            },
        );
        let got = ranker.rank_batch(&reqs);
        for (resp, clean) in got.iter().zip(want.iter()) {
            if resp.user == bad {
                assert_eq!(
                    resp.outcome,
                    RankOutcome::Failed,
                    "width {threads}: NaN block must fail its request"
                );
                assert!(resp.items.is_empty(), "width {threads}: failed list");
            } else {
                assert_eq!(resp.outcome, RankOutcome::Served, "width {threads}");
                assert_same(resp, clean, &format!("width {threads} clean sibling"));
            }
        }
    }
}

/// SLO admission: a request still queued past its SLO at cut time completes
/// as [`RankOutcome::Expired`] without touching the pool; requests within
/// budget in the same cut serve bitwise normally, and a cut at exactly the
/// SLO serves the request just in time rather than expiring it.
#[test]
fn slo_expiry_sheds_only_late_requests() {
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
            max_batch: 16,
            ..Default::default()
        },
        Box::new(clock.clone()),
    );

    // Tight-SLO request: due at 2 ms.
    let t_tight = frontend.try_submit(reqs[0].clone().with_slo(Duration::from_millis(2)));
    let t_plain = frontend.try_submit(reqs[1].clone());
    let (t_tight, t_plain) = (t_tight.unwrap(), t_plain.unwrap());

    // At exactly the SLO the cut serves the request just in time
    // (expiry is strictly `waited > slo`).
    clock.advance(Duration::from_millis(2));
    assert_eq!(frontend.pump(), 2);
    let tight = frontend.try_take(t_tight).expect("cut at its SLO");
    assert_eq!(tight.outcome, RankOutcome::Served);
    assert_same(&tight, &want[0], "just-in-time SLO");
    assert_same(
        &frontend.try_take(t_plain).expect("same cut"),
        &want[1],
        "no-SLO sibling",
    );

    // Now a request that is already past its SLO when the cut happens:
    // submitted with a 1 ms budget, cut 5 ms later with a sibling.
    let t_late = frontend
        .try_submit(reqs[2].clone().with_slo(Duration::from_millis(1)))
        .unwrap();
    clock.advance(Duration::from_millis(1)); // t_late now due…
    let t_fresh = frontend.try_submit(reqs[3].clone()).unwrap();
    clock.advance(Duration::from_millis(4)); // …and 4 ms overdue at the cut.
    assert_eq!(frontend.pump(), 2);
    let late = frontend.try_take(t_late).expect("expired ticket redeems");
    assert_eq!(late.outcome, RankOutcome::Expired);
    assert_eq!(late.user, reqs[2].user);
    assert!(late.items.is_empty(), "expired requests are never served");
    let fresh = frontend.try_take(t_fresh).expect("sibling in the same cut");
    assert_eq!(fresh.outcome, RankOutcome::Served);
    assert_same(&fresh, &want[3], "in-budget sibling of an expired request");

    let stats = frontend.stats();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.served, 3, "expired requests are not counted served");
    assert_eq!(stats.latency.count(), 3, "latency samples = served only");
}

/// Admission control: `try_submit` sheds with a typed error at
/// `queue_capacity` without issuing a ticket, and the infallible `submit`
/// path still never sheds.
#[test]
fn try_submit_sheds_at_queue_capacity() {
    let data = data();
    let (model, kernel) = trained(&data);
    let reqs = requests(&data, 4);

    let clock = ManualClock::new();
    let mut frontend = ServeFrontend::with_clock(
        Ranker::new(
            RankingArtifact::snapshot(&model, &kernel),
            ServeConfig {
                threads: 1,
                ..Default::default()
            },
        ),
        FrontendConfig {
            max_batch: 64,
            queue_capacity: 2,
            ..Default::default()
        },
        Box::new(clock.clone()),
    );

    let t0 = frontend.try_submit(reqs[0].clone()).unwrap();
    let t1 = frontend.try_submit(reqs[1].clone()).unwrap();
    assert_eq!(
        frontend.try_submit(reqs[2].clone()),
        Err(SubmitError::QueueFull { capacity: 2 }),
        "third submission must shed"
    );
    // The infallible path is exempt from admission (it cuts inline instead).
    let t2 = frontend.submit(reqs[2].clone());

    assert_eq!(frontend.pump(), 3);
    for t in [t0, t1, t2] {
        assert_eq!(
            frontend
                .try_take(t)
                .expect("accepted tickets serve")
                .outcome,
            RankOutcome::Served
        );
    }
    let stats = frontend.stats();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.submitted, 3, "shed requests are never admitted");
}

/// Degraded mode semantics, bottom-up: a direct request with
/// `rerank_head ≥ |C|` is bitwise the full path, and the frontend's
/// overload cap produces bitwise the same lists as direct requests carrying
/// the same head.
#[test]
fn degraded_mode_matches_direct_rerank_head() {
    let data = data();
    let (model, kernel) = trained(&data);
    let reqs = requests(&data, 6);
    let head = 8usize;

    let mut direct = Ranker::new(
        RankingArtifact::snapshot(&model, &kernel),
        ServeConfig {
            threads: 2,
            ..Default::default()
        },
    );
    let want_full = direct.rank_batch(&reqs);

    // head ≥ |C| is not a degradation: bitwise the full path.
    let wide: Vec<RankRequest> = reqs
        .iter()
        .map(|r| r.clone().with_rerank_head(r.candidates.len()))
        .collect();
    for (resp, clean) in direct.rank_batch(&wide).iter().zip(want_full.iter()) {
        assert!(!resp.degraded, "head ≥ |C| must not degrade");
        assert_same(resp, clean, "wide head");
    }

    // Direct baseline for the capped head.
    let capped: Vec<RankRequest> = reqs
        .iter()
        .map(|r| r.clone().with_rerank_head(head))
        .collect();
    let want_head = direct.rank_batch(&capped);
    for resp in &want_head {
        assert!(resp.degraded, "capped head is flagged");
        assert_eq!(resp.outcome, RankOutcome::Served);
        assert!(resp.items.len() <= head);
    }

    // Frontend overload path: watermark reached at the cut ⇒ the whole
    // batch runs with the capped head, bitwise equal to the direct capped
    // requests.
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
            max_batch: reqs.len(),
            degrade_watermark: reqs.len(),
            degraded_head: head,
            ..Default::default()
        },
        Box::new(clock.clone()),
    );
    let tickets: Vec<_> = reqs
        .iter()
        .map(|r| frontend.try_submit(r.clone()).unwrap())
        .collect();
    assert_eq!(frontend.pump(), reqs.len(), "watermark batch cut full");
    for (ticket, clean) in tickets.iter().zip(want_head.iter()) {
        let resp = frontend.try_take(*ticket).expect("served");
        assert!(resp.degraded, "overload cut degrades the batch");
        assert_same(&resp, clean, "frontend degraded vs direct capped head");
    }
    assert_eq!(frontend.stats().degraded, reqs.len() as u64);

    // Below the watermark, the same frontend serves the full path again.
    let t = frontend.try_submit(reqs[0].clone()).unwrap();
    assert_eq!(frontend.pump(), 1);
    let resp = frontend.try_take(t).expect("served");
    assert!(!resp.degraded, "below watermark: no degradation");
    assert_same(&resp, &want_full[0], "recovered full path");
}

/// Satellite 1: unclaimed completed responses are swept once they outlive
/// `response_ttl`; claimed and young responses are untouched.
#[test]
fn response_ttl_sweeps_unclaimed_responses() {
    let data = data();
    let (model, kernel) = trained(&data);
    let reqs = requests(&data, 4);

    let clock = ManualClock::new();
    let mut frontend = ServeFrontend::with_clock(
        Ranker::new(
            RankingArtifact::snapshot(&model, &kernel),
            ServeConfig {
                threads: 1,
                ..Default::default()
            },
        ),
        FrontendConfig {
            max_batch: 4,
            response_ttl: Duration::from_millis(5),
            ..Default::default()
        },
        Box::new(clock.clone()),
    );

    let abandoned = frontend.try_submit(reqs[0].clone()).unwrap();
    let claimed = frontend.try_submit(reqs[1].clone()).unwrap();
    frontend.pump();
    assert!(frontend.try_take(claimed).is_some());
    assert_eq!(frontend.completed_len(), 1);

    // Young responses survive a sweep; at the TTL they are dropped.
    clock.advance(Duration::from_millis(4));
    assert_eq!(frontend.sweep_responses(), 0);
    assert_eq!(frontend.completed_len(), 1);
    clock.advance(Duration::from_millis(1));
    assert_eq!(frontend.pump(), 0, "pump runs the sweep");
    assert_eq!(frontend.completed_len(), 0);
    assert!(
        frontend.try_take(abandoned).is_none(),
        "swept ticket is gone"
    );

    let stats = frontend.stats();
    assert_eq!(stats.ttl_expired, 1);
    assert_eq!(stats.discarded, 0, "TTL sweeps are not discards");
}

/// Hot artifact swap under traffic: pre-swap responses are bitwise
/// generation 1's artifact, post-swap
/// responses bitwise generation 2's; the prewarmed plan makes the first
/// post-swap batch hit the cache with zero assembly misses; retired
/// old-generation entries are reported.
#[test]
fn swap_under_traffic_is_bitwise_per_generation() {
    let data = data();
    let (model_a, kernel) = trained(&data);
    // A distinct second generation: fresh (untrained) embeddings are a
    // perfectly valid — and cheap — stand-in for a retrained model.
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

    let config = ServeConfig {
        threads: 2,
        ..Default::default()
    };
    let mut ranker_a = Ranker::new(RankingArtifact::snapshot(&model_a, &kernel), config.clone());
    let want_a = ranker_a.rank_batch(&reqs);
    let mut ranker_b = Ranker::new(RankingArtifact::snapshot(&model_b, &kernel), config.clone());
    let want_b = ranker_b.rank_batch(&reqs);

    let clock = ManualClock::new();
    let mut frontend = ServeFrontend::with_clock(
        Ranker::new(RankingArtifact::snapshot(&model_a, &kernel), config.clone()),
        FrontendConfig {
            max_batch: reqs.len(),
            ..Default::default()
        },
        Box::new(clock.clone()),
    );
    assert_eq!(frontend.generation(), 1);

    // Generation 1 traffic (also populates the old cache, so the swap
    // has entries to retire).
    let tickets: Vec<_> = reqs
        .iter()
        .map(|r| frontend.try_submit(r.clone()).unwrap())
        .collect();
    frontend.pump();
    for (ticket, want) in tickets.iter().zip(want_a.iter()) {
        let resp = frontend.try_take(*ticket).expect("gen-1 ticket");
        assert_eq!(resp.generation, 1);
        assert_same(&resp, want, "gen 1");
    }

    // Queue traffic, then swap *between cuts*: the queued requests must
    // serve on the new generation.
    let queued: Vec<_> = reqs
        .iter()
        .map(|r| frontend.try_submit(r.clone()).unwrap())
        .collect();
    let report = frontend.swap_artifact(RankingArtifact::snapshot(&model_b, &kernel), &plan);
    assert_eq!(report.generation, 2);
    assert_eq!(report.warmed, plan.len(), "plan fully warm");
    assert!(report.retired > 0, "old entries retired");
    assert_eq!(frontend.generation(), 2);
    assert_eq!(frontend.stats().swaps, 1);
    assert_eq!(frontend.swap_log().len(), 1);
    assert_eq!(frontend.swap_log()[0].report, report);

    let (_, misses_before) = frontend.ranker().cache_stats();
    frontend.pump();
    let (_, misses_after) = frontend.ranker().cache_stats();
    assert_eq!(
        misses_after - misses_before,
        0,
        "prewarmed post-swap batch must not miss"
    );
    for (ticket, want) in queued.iter().zip(want_b.iter()) {
        let resp = frontend.try_take(*ticket).expect("gen-2 ticket");
        assert_eq!(resp.generation, 2);
        assert!(resp.cache_hit, "prewarmed hit");
        assert_same(&resp, want, "gen 2");
    }
}

/// The frontend's failure counters: one contained panic and one numerical
/// failure in a mixed batch count into `panicked` / `failed`, and every
/// sibling still serves bitwise clean.
#[test]
fn frontend_counts_contained_failures() {
    let data = data();
    let (model, kernel) = trained(&data);
    let reqs = requests(&data, 5);
    let (panic_user, nan_user) = (2usize, 9usize);

    let want = faulty_ranker(FaultyModel::clean(model.clone()), &kernel, 2).rank_batch(&reqs);

    quiet_panics(|| {
        let faulty = FaultyModel {
            inner: model.clone(),
            panic_users: vec![panic_user],
            nan_users: vec![nan_user],
        };
        let mut frontend = ServeFrontend::with_clock(
            faulty_ranker(faulty, &kernel, 2),
            FrontendConfig {
                max_batch: reqs.len(),
                ..Default::default()
            },
            Box::new(ManualClock::new()),
        );
        let tickets: Vec<_> = reqs
            .iter()
            .map(|r| frontend.try_submit(r.clone()).unwrap())
            .collect();
        frontend.pump();
        for (ticket, clean) in tickets.iter().zip(want.iter()) {
            let resp = frontend.try_take(*ticket).expect("all tickets complete");
            match resp.user {
                u if u == panic_user => assert_eq!(resp.outcome, RankOutcome::Panicked),
                u if u == nan_user => assert_eq!(resp.outcome, RankOutcome::Failed),
                _ => {
                    assert_eq!(resp.outcome, RankOutcome::Served);
                    assert_same(&resp, clean, "sibling of contained failures");
                }
            }
        }
        let stats = frontend.stats();
        assert_eq!(stats.panicked, 1);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.served, reqs.len() as u64);
    });
}
