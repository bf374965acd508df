//! The traced run's per-layer metrics.
//!
//! Live spans come from the run itself (`bench.request` roots with
//! `serve.driver.*` children, the fit's epochs, each refresh's update,
//! artifact build and swap). The stage split comes from replays on one
//! thread: the latency window's requests through `Ranker::rank_batch_into`
//! and then stage by stage (scoring, kernel assembly, greedy MAP), and one
//! training epoch stage by stage (plan, scoring, kernel staging, loss and
//! gradient, accumulate, optimizer step). The attribution check compares
//! the stage self times against the measured whole: the ranker's service
//! time per request, and the trainer's epoch at pool width 1 (both sides
//! of the training check at the reference speed, see `speed`, because the
//! host's speed drifts between the replay and the epochs around it).

use crate::lifecycle::{self, SwapSeen};
use crate::load::Window;
use crate::schedule::{Profile, Schedule, TOP_N};
use crate::speed::SpeedLog;
use crate::stats::{histogram_quantile_ns, median, quantile};
use crate::trace::{self, Spans};
use crate::{Metric, Model};
use lkp::core::objective::{InstanceGrad, Objective};
use lkp::core::{LkpObjective, TrainConfig, KERNEL_JITTER, SCORE_CLAMP};
use lkp::data::{
    Dataset, EpochPlanner, InstanceBlock, InstanceSampler, SamplingPolicy, Split, TargetSelection,
};
use lkp::dpp::esp::{elementary_symmetric_all_into, leave_one_out_into, LeaveOneOutScratch};
use lkp::dpp::{
    greedy_map_dual_with, greedy_map_with, DppBatchArena, DppWorkspace, DualMapWorkspace,
    MapWorkspace,
};
use lkp::linalg::eigen::EigenScratch;
use lkp::linalg::{Matrix, SymmetricEigen};
use lkp::models::Recommender;
use lkp::serve::{FrontendStats, RankOutcome, RankRequest, Ranker, RankingArtifact, ServeConfig};
use rand::SeedableRng;

/// Stage self times must cover the measured whole within this share.
pub const ATTRIBUTION_SHARE: f64 = 0.25;
/// Replayed requests per traced run, by candidate-set size budget: at most
/// this many candidate ids in total.
const REPLAY_CANDIDATES: usize = 100_000;
/// Passes of the epoch replay; the fastest counts.
const EPOCH_REPLAYS: usize = 3;
/// Alternating service and stage replays of the serving window.
const REPLAY_REPS: usize = 12;
/// Training epochs per pool width for the scaling ratio.
const SCALING_EPOCHS: usize = 4;
/// Empty dispatches timed for `runtime.dispatch_us`.
const DISPATCHES: usize = 2000;
/// Validation passes timed for `eval.validate_ms`.
const VALIDATIONS: usize = 3;

/// The layers whose self time is reported, in report order.
pub const LAYERS: [&str; 10] = [
    "bench", "serve", "models", "dpp", "linalg", "data", "core", "nn", "eval", "runtime",
];

/// What the traced run hands to the layer report.
pub struct LayerInputs<'a> {
    pub profile: &'a Profile,
    pub seed: u64,
    pub sched: &'a Schedule,
    pub data: &'a Dataset,
    pub model: &'a Model,
    pub objective: &'a LkpObjective,
    /// Every served artifact, generation `g` at index `g − 1`.
    pub generations: &'a [RankingArtifact<Model>],
    pub windows: &'a [(&'static str, Window)],
    /// Index into `windows` of the window the latency metrics come from.
    pub latency_window: usize,
    /// Frontend counters before and after the latency window.
    pub frontend: (FrontendStats, FrontendStats),
    pub swaps: &'a [SwapSeen],
    /// The run's median epoch at the reference speed (`train.epoch_s`), in s.
    pub epoch_s: f64,
    /// p99 latency of the latency window (sub-window and segment median).
    pub p99_ms: f64,
    pub update_ms: &'a [f64],
    pub merge_ms: &'a [f64],
    pub frozen_fresh: (usize, usize),
    pub threads: usize,
}

/// Replays the latency window's requests through a width-1 ranker, then
/// stage by stage, on the artifact generation that served most of them.
/// Each stage pass runs untraced and traced; the difference is the tracing
/// overhead. Returns the overhead per request in us and the stage share of
/// the service time, both sides at the reference speed.
fn replay_serving(
    inp: &LayerInputs<'_>,
    spans: &mut Spans,
    m: &mut Vec<Metric>,
    problems: &mut Vec<String>,
) -> (f64, f64) {
    let window = &inp.windows[inp.latency_window].1;
    let mut by_gen = std::collections::BTreeMap::<u64, usize>::new();
    for r in &window.records {
        if let Ok(resp) = &r.result {
            *by_gen.entry(resp.generation).or_default() += 1;
        }
    }
    let generation = by_gen
        .iter()
        .max_by_key(|&(_, n)| *n)
        .map_or(1, |(&g, _)| g);
    let mut budget = REPLAY_CANDIDATES;
    let served: Vec<_> = window
        .records
        .iter()
        .filter_map(|r| match &r.result {
            Ok(resp) if resp.outcome == RankOutcome::Served && resp.generation == generation => {
                Some((r.arrival, resp))
            }
            _ => None,
        })
        .take_while(|(a, _)| {
            let n = inp.sched.sets[a.set].len();
            let keep = n <= budget;
            budget = budget.saturating_sub(n);
            keep
        })
        .collect();
    let reqs: Vec<RankRequest> = served
        .iter()
        .map(|(a, _)| RankRequest::new(a.user, inp.sched.sets[a.set].clone(), TOP_N))
        .collect();
    let (before, after) = inp.frontend;
    let batches = (after.batches - before.batches).max(1);
    let mean_batch = ((after.served - before.served) as f64 / batches as f64)
        .round()
        .max(1.0) as usize;

    let art = &inp.generations[generation as usize - 1];
    let config = ServeConfig {
        threads: 1,
        ..Default::default()
    };
    let (jitter, clamp) = (config.jitter, config.score_clamp);
    let mut stages = StageReplay::new(art, jitter, clamp);
    let mut out = Vec::new();
    let mut hits = Vec::with_capacity(reqs.len());
    let mut service_ns = u64::MAX;
    let (mut untraced_ns, mut traced_ns) = (f64::INFINITY, f64::INFINITY);
    let mut sums = [u64::MAX; 4];
    let mut mismatches = 0;
    // Service and stage replays alternate, each on a fresh ranker, and the
    // fastest pass of each counts. Reference samples between them put each
    // pass at the reference speed for the attribution check, so host drift
    // between the passes stays out of it.
    let mut speed = SpeedLog::default();
    let (mut service_passes, mut stage_passes) = (Vec::new(), Vec::new());
    for _ in 0..REPLAY_REPS {
        let mut ranker = Ranker::new(art.clone(), config.clone());
        hits.clear();
        speed.record(spans.now());
        let service_start = spans.now();
        let mut pass_ns = 0u64;
        for (b, chunk) in reqs.chunks(mean_batch).enumerate() {
            let (_, ns) = spans.time("serve.rank_batch", "", b as u64, || {
                ranker.rank_batch_into(chunk, &mut out)
            });
            pass_ns += ns;
            hits.extend(out.iter().map(|r| r.cache_hit));
        }
        service_ns = service_ns.min(pass_ns);
        service_passes.push((pass_ns, service_start / 2 + spans.now() / 2));
        speed.record(spans.now());

        // Stage replay, untraced then traced: the same arithmetic as the
        // ranker's dense path.
        let t0 = std::time::Instant::now();
        stages.run(&served, &reqs, &hits, None);
        untraced_ns = untraced_ns.min(t0.elapsed().as_nanos() as f64);
        let t1 = std::time::Instant::now();
        let traced_start = spans.now();
        let (pass_sums, pass_mismatches) = stages.run(&served, &reqs, &hits, Some(spans));
        traced_ns = traced_ns.min(t1.elapsed().as_nanos() as f64);
        stage_passes.push((
            pass_sums[..3].iter().sum::<u64>(),
            traced_start / 2 + spans.now() / 2,
        ));
        if pass_sums[..3].iter().sum::<u64>() < sums[..3].iter().sum::<u64>() {
            sums = pass_sums;
        }
        mismatches = pass_mismatches;
    }
    speed.record(spans.now());
    let fastest = |passes: &[(u64, u64)]| {
        passes
            .iter()
            .map(|&(ns, mid)| speed.wall_s_at_reference(ns as f64 / 1e9, mid))
            .fold(f64::INFINITY, f64::min)
    };
    let cover = fastest(&stage_passes) / fastest(&service_passes);
    let n = reqs.len().max(1) as f64;
    let service_us = service_ns as f64 / 1e3 / n;
    if mismatches > 0 {
        problems.push(format!(
            "stage replay differs from the served list on {mismatches} requests"
        ));
    }
    let [score_ns, assembly_ns, map_ns, dual_ns] = sums;
    let live_hits = served.iter().filter(|(_, r)| r.cache_hit).count();
    m.push(Metric::new("serve.ranker.service_us", service_us, "us"));
    m.push(Metric::new(
        "serve.cache.hit_rate",
        live_hits as f64 / served.len().max(1) as f64,
        "ratio",
    ));
    m.push(Metric::new(
        "serve.cache.lookups",
        served.len() as f64,
        "count",
    ));
    m.push(Metric::new(
        "models.score_us",
        score_ns as f64 / 1e3 / n,
        "us",
    ));
    m.push(Metric::new(
        "dpp.assembly_us",
        assembly_ns as f64 / 1e3 / n,
        "us",
    ));
    m.push(Metric::new(
        "dpp.greedy_map_us",
        map_ns as f64 / 1e3 / n,
        "us",
    ));
    m.push(Metric::new(
        "dpp.greedy_map_dual_us",
        dual_ns as f64 / 1e3 / n,
        "us",
    ));
    ((traced_ns - untraced_ns) / 1e3 / n, cover)
}

/// Runs `f`, inside a span when tracing.
fn timed<T>(
    spans: &mut Option<&mut Spans>,
    name: &'static str,
    parent: &'static str,
    id: u64,
    f: impl FnOnce() -> T,
) -> (T, u64) {
    match spans {
        Some(s) => s.time(name, parent, id, f),
        None => (f(), 0),
    }
}

/// Scratch of the serving stage replay.
struct StageReplay<'a> {
    art: &'a RankingArtifact<Model>,
    jitter: f64,
    clamp: f64,
    scores: Vec<f64>,
    q: Vec<f64>,
    k_sub: Matrix,
    l: Matrix,
    vc: Matrix,
    b: Matrix,
    map_ws: MapWorkspace,
    dual_ws: DualMapWorkspace,
}

impl<'a> StageReplay<'a> {
    fn new(art: &'a RankingArtifact<Model>, jitter: f64, clamp: f64) -> Self {
        StageReplay {
            art,
            jitter,
            clamp,
            scores: Vec::new(),
            q: Vec::new(),
            k_sub: Matrix::zeros(0, 0),
            l: Matrix::zeros(0, 0),
            vc: Matrix::zeros(0, 0),
            b: Matrix::zeros(0, 0),
            map_ws: MapWorkspace::new(),
            dual_ws: DualMapWorkspace::new(),
        }
    }

    /// Replays every request stage by stage. Returns the summed ns of
    /// scoring, assembly, greedy MAP and dual greedy MAP (zeros when
    /// untraced), and how many lists differ from the served ones.
    fn run(
        &mut self,
        served: &[(crate::schedule::Arrival, &lkp::serve::RankResponse)],
        reqs: &[RankRequest],
        hits: &[bool],
        mut spans: Option<&mut Spans>,
    ) -> ([u64; 4], usize) {
        let kernel = self.art.kernel();
        let model = self.art.model();
        let (jitter, clamp) = (self.jitter, self.clamp);
        let mut sums = [0u64; 4];
        let mut mismatches = 0usize;
        for (i, ((_, live), req)) in served.iter().zip(reqs).enumerate() {
            let id = i as u64;
            let start = spans.as_ref().map_or(0, |s| s.now());
            let cands = &req.candidates;
            let Self {
                scores,
                q,
                k_sub,
                l,
                vc,
                b,
                map_ws,
                dual_ws,
                ..
            } = self;
            let ((), ns) = timed(
                &mut spans,
                "models.score",
                "bench.replay_request",
                id,
                || model.score_items_into(req.user, cands, scores),
            );
            sums[0] += ns;
            // A cache hit skips the diversity block gather: build it untimed.
            let hit = hits[i];
            if hit {
                kernel
                    .submatrix_into(cands, k_sub)
                    .expect("candidates in the catalog");
            }
            let ((), ns) = timed(
                &mut spans,
                "dpp.assembly",
                "bench.replay_request",
                id,
                || {
                    q.clear();
                    q.extend(scores.iter().map(|&s| s.clamp(-clamp, clamp).exp()));
                    if !hit {
                        kernel
                            .submatrix_into(cands, k_sub)
                            .expect("candidates in the catalog");
                    }
                    let c = cands.len();
                    l.reset(c, c);
                    for x in 0..c {
                        let qx = q[x];
                        l[(x, x)] = qx * k_sub[(x, x)] * qx + jitter;
                        for y in (x + 1)..c {
                            let qy = q[y];
                            let kxy = k_sub[(x, y)];
                            let avg = 0.5 * (qx * kxy * qy + qy * kxy * qx);
                            l[(x, y)] = avg;
                            l[(y, x)] = avg;
                        }
                    }
                },
            );
            sums[1] += ns;
            let k = TOP_N.min(cands.len());
            let (res, ns) = timed(
                &mut spans,
                "dpp.greedy_map",
                "bench.replay_request",
                id,
                || greedy_map_with(l, k, map_ws),
            );
            sums[2] += ns;
            if let Some(s) = spans.as_deref_mut() {
                let end = s.now();
                s.push("bench.replay_request", "", id, start, end);
            }
            let same = res.is_ok()
                && map_ws.items().len() == live.items.len()
                && map_ws
                    .items()
                    .iter()
                    .zip(&live.items)
                    .all(|(&j, &item)| cands[j] == item)
                && map_ws.log_det().to_bits() == live.log_det.to_bits();
            mismatches += usize::from(!same);
            // The dual form on the same request, outside the attribution sum.
            let ((), ns) = timed(&mut spans, "dpp.greedy_map_dual", "", id, || {
                kernel
                    .gather_rows_into(cands, vc)
                    .expect("candidates in the catalog");
                b.reset(vc.rows(), vc.cols());
                for (r, &qr) in q.iter().enumerate() {
                    for (o, &v) in b.row_mut(r).iter_mut().zip(vc.row(r)) {
                        *o = qr * v;
                    }
                }
                let _ = greedy_map_dual_with(b, jitter, k, dual_ws);
            });
            sums[3] += ns;
        }
        (sums, mismatches)
    }
}

/// One training epoch replayed on a clone of the model, on the calling
/// thread, through the trainer's own entry points: planning,
/// `Objective::compute_batch_into` per uniform-size run, accumulation in
/// plan order and the optimizer step. The fastest pass's total at the
/// reference speed is what the attribution check compares with the width-1
/// epoch. A second pass over the same plan
/// then splits an instance into its layers' calls (scoring, kernel staging,
/// loss and gradient) and times the loss/gradient call's eigen and ESP
/// stages again on the same kernels as its children. Returns the first
/// pass's stage total in s at the reference speed.
fn replay_epoch(
    inp: &LayerInputs<'_>,
    spans: &mut Spans,
    speed: &mut SpeedLog,
    m: &mut Vec<Metric>,
) -> f64 {
    let cfg = TrainConfig::default();
    let objective = inp.objective;
    let kernel = objective.kernel();
    let mut planner = EpochPlanner::new(
        InstanceSampler::new(cfg.k, cfg.n, TargetSelection::Sequential),
        SamplingPolicy::ResampleEachEpoch,
        cfg.batch_size,
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(inp.seed);
    speed.record(spans.now());
    let epoch_start = spans.now();
    let (plan_ref, sched_ref) = planner.plan_for_epoch(inp.data, 1, &mut rng);
    let plan_end = spans.now();
    spans.push("data.plan", "bench.replay_epoch", 0, epoch_start, plan_end);
    let plan_ns = plan_end - epoch_start;
    let plan = plan_ref.clone();
    let batches: Vec<(Vec<usize>, Vec<usize>, Vec<usize>)> = sched_ref
        .iter()
        .map(|b| (b.dispatch.to_vec(), b.bounds.to_vec(), b.slot_of.to_vec()))
        .collect();
    let mut ws = DppWorkspace::new();
    let mut arena = DppBatchArena::default();
    let mut grads: Vec<InstanceGrad> = Vec::new();
    // The fastest of a few passes at the reference speed, each on a fresh
    // clone of the model, with a reference sample before and after each.
    let (mut compute_ns, mut acc_ns, mut step_ns) = (u64::MAX, u64::MAX, u64::MAX);
    let mut fastest_s = f64::INFINITY;
    let instances: usize = batches.iter().map(|b| b.0.len()).sum();
    for _ in 0..EPOCH_REPLAYS {
        let mut model = inp.model.clone();
        speed.record(spans.now());
        let pass_start = spans.now();
        let (mut pass_compute, mut pass_acc, mut pass_step) = (0u64, 0u64, 0u64);
        for (dispatch, bounds, slot_of) in &batches {
            let batch_start = spans.now();
            grads.resize_with(dispatch.len(), InstanceGrad::default);
            let mut lo = 0;
            for hi in bounds.iter().copied().chain([dispatch.len()]) {
                let ((), ns) = spans.time("core.compute_batch", "bench.replay_batch", 0, || {
                    objective.compute_batch_into(
                        &model,
                        InstanceBlock::new(&plan, &dispatch[lo..hi]),
                        &mut ws,
                        &mut arena,
                        &mut grads[lo..hi],
                    )
                });
                pass_compute += ns;
                lo = hi;
            }
            let ((), ns) = spans.time("core.accumulate", "bench.replay_batch", 0, || {
                for &slot in slot_of {
                    objective.accumulate(&mut model, &grads[slot]);
                }
            });
            pass_acc += ns;
            let ((), ns) = spans.time("nn.step", "bench.replay_batch", 0, || model.step());
            pass_step += ns;
            let end = spans.now();
            spans.push(
                "bench.replay_batch",
                "bench.replay_epoch",
                0,
                batch_start,
                end,
            );
        }
        let pass_mid = pass_start / 2 + spans.now() / 2;
        speed.record(spans.now());
        let pass_s =
            speed.wall_s_at_reference((pass_compute + pass_acc + pass_step) as f64 / 1e9, pass_mid);
        if pass_s < fastest_s {
            fastest_s = pass_s;
            (compute_ns, acc_ns, step_ns) = (pass_compute, pass_acc, pass_step);
        }
    }
    let epoch_end = spans.now();
    spans.push("bench.replay_epoch", "", 0, epoch_start, epoch_end);
    let stage_s = speed.wall_s_at_reference(plan_ns as f64 / 1e9, epoch_start) + fastest_s;

    // Second pass: one instance at a time through each layer's call.
    let mut grad = InstanceGrad::default();
    let (mut scores, mut k_sub, mut rows) = (Vec::new(), Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let (mut q, mut l) = (Vec::new(), Matrix::zeros(0, 0));
    let mut eigen = SymmetricEigen::default();
    let mut eig_scratch = EigenScratch::default();
    let (mut scaled, mut esp, mut loo) = (Vec::new(), Vec::new(), Vec::new());
    let mut loo_scratch = LeaveOneOutScratch::default();
    let (mut score_ns, mut loss_ns, mut eig_ns, mut esp_ns) = (0u64, 0u64, 0u64, 0u64);
    let mut model = inp.model.clone();
    let split_start = spans.now();
    for &idx in batches.iter().flat_map(|b| &b.0) {
        let inst = plan.instance(idx);
        let items = plan.ground_set(idx);
        let ((), ns) = spans.time("models.score", "bench.replay_instance", 0, || {
            model.score_items_into(inst.user, items, &mut scores)
        });
        score_ns += ns;
        spans.time("dpp.stage", "bench.replay_instance", 0, || {
            kernel
                .submatrix_into(items, &mut k_sub)
                .expect("ground set in the catalog");
            kernel
                .gather_rows_into(items, &mut rows)
                .expect("ground set in the catalog");
        });
        let (res, ns) = spans.time("dpp.loss_grad", "bench.replay_instance", 0, || {
            ws.tailored_loss_grad(
                &scores,
                &k_sub,
                Some(&rows),
                inst.k(),
                true,
                KERNEL_JITTER,
                SCORE_CLAMP,
            )
        });
        loss_ns += ns;
        // The loss/gradient call is opaque; its eigen and ESP stages are
        // timed again on the same kernel and recorded as its children.
        let mmat = items.len();
        q.clear();
        q.extend(
            scores
                .iter()
                .map(|&s| s.clamp(-SCORE_CLAMP, SCORE_CLAMP).exp()),
        );
        l.reset(mmat, mmat);
        for a in 0..mmat {
            for b in 0..mmat {
                l[(a, b)] = q[a] * k_sub[(a, b)] * q[b] + if a == b { KERNEL_JITTER } else { 0.0 };
            }
        }
        let (ok, ns) = spans.time("linalg.eigen", "dpp.loss_grad", 0, || {
            eigen.compute_into(&l, &mut eig_scratch).is_ok()
        });
        eig_ns += ns;
        if ok {
            let ((), ns) = spans.time("dpp.esp", "dpp.loss_grad", 0, || {
                let top = eigen
                    .values
                    .iter()
                    .cloned()
                    .fold(0.0_f64, f64::max)
                    .max(1e-300);
                scaled.clear();
                scaled.extend(eigen.values.iter().map(|&v| v.max(0.0) / top));
                elementary_symmetric_all_into(&scaled, inst.k(), &mut esp);
                leave_one_out_into(&scaled, inst.k() - 1, &mut loo_scratch, &mut loo);
            });
            esp_ns += ns;
        }
        grad.reset_for(inst);
        if res.is_some() {
            grad.scores.extend_from_slice(&scores);
            grad.dscores.extend_from_slice(ws.dscores());
        }
        objective.accumulate(&mut model, &grad);
    }
    spans.push("bench.replay_instance", "", 0, split_start, spans.now());

    let per = |ns: u64| ns as f64 / 1e3 / instances.max(1) as f64;
    m.push(Metric::new("data.plan_ms", plan_ns as f64 / 1e6, "ms"));
    m.push(Metric::new("models.score_us.instance", per(score_ns), "us"));
    m.push(Metric::new("dpp.loss_grad_us", per(loss_ns), "us"));
    m.push(Metric::new("linalg.eigen_us", per(eig_ns), "us"));
    m.push(Metric::new("dpp.esp_us", per(esp_ns), "us"));
    m.push(Metric::new("core.compute_batch_us", per(compute_ns), "us"));
    m.push(Metric::new("core.accumulate_us", per(acc_ns), "us"));
    m.push(Metric::new(
        "nn.step_us",
        step_ns as f64 / 1e3 / batches.len().max(1) as f64,
        "us",
    ));
    stage_s
}

/// Fastest epoch of a fit at pool width `threads`, on a model clone, at
/// the reference speed (each epoch callback takes a reference sample).
fn epoch_at_width(
    inp: &LayerInputs<'_>,
    threads: usize,
    spans: &mut Spans,
    speed: &mut SpeedLog,
) -> f64 {
    let id = threads as u64;
    let start = spans.now();
    let stamps = lifecycle::timed_fit(
        inp.model,
        inp.objective,
        inp.data,
        threads,
        SCALING_EPOCHS,
        || {
            let enter = spans.now();
            speed.record(enter);
            (enter, spans.now())
        },
    );
    let mut fastest = f64::INFINITY;
    for (a, b) in lifecycle::epoch_intervals(&stamps) {
        spans.push("core.epoch", "runtime.scaling", id, a, b);
        fastest = fastest.min(speed.wall_at_reference(a, b));
    }
    spans.push("runtime.scaling", "", id, start, spans.now());
    fastest
}

/// Measures every per-layer metric of a traced run.
pub fn measure(
    inp: &LayerInputs<'_>,
    spans: &mut Spans,
    problems: &mut Vec<String>,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let mut m = Vec::new();
    let window = &inp.windows[inp.latency_window].1;

    // lkp-serve driver and frontend.
    m.push(Metric::new("serve.p99_ms", inp.p99_ms, "ms"));
    let submit_us: Vec<f64> = window
        .records
        .iter()
        .map(|r| (r.sent_ns - r.send_ns) as f64 / 1e3)
        .collect();
    m.push(Metric::new(
        "serve.driver.submit_us.p50",
        quantile(&submit_us, 0.5),
        "us",
    ));
    m.push(Metric::new(
        "serve.driver.submit_us.p99",
        quantile(&submit_us, 0.99),
        "us",
    ));
    let (before, after) = inp.frontend;
    let mut wait = [0u64; lkp::serve::LATENCY_BUCKETS];
    for (w, (a, b)) in wait
        .iter_mut()
        .zip(after.latency.buckets().iter().zip(before.latency.buckets()))
    {
        *w = a - b;
    }
    m.push(Metric::new(
        "serve.frontend.queue_wait_us.p50",
        histogram_quantile_ns(&wait, 0.5) / 1e3,
        "us",
    ));
    m.push(Metric::new(
        "serve.frontend.queue_wait_us.p99",
        histogram_quantile_ns(&wait, 0.99) / 1e3,
        "us",
    ));
    let batches = after.batches - before.batches;
    m.push(Metric::new(
        "serve.frontend.batch_size",
        (after.served - before.served) as f64 / batches.max(1) as f64,
        "count",
    ));
    m.push(Metric::new(
        "serve.frontend.batches",
        batches as f64,
        "count",
    ));
    m.push(Metric::new(
        "serve.frontend.cuts_full",
        (after.cuts_full - before.cuts_full) as f64,
        "count",
    ));
    m.push(Metric::new(
        "serve.frontend.cuts_deadline",
        (after.cuts_deadline - before.cuts_deadline) as f64,
        "count",
    ));
    m.push(Metric::new(
        "serve.frontend.submitted",
        (after.submitted - before.submitted) as f64,
        "count",
    ));
    m.push(Metric::new(
        "serve.frontend.shed",
        (after.shed - before.shed) as f64,
        "count",
    ));
    m.push(Metric::new(
        "serve.frontend.expired",
        (after.expired - before.expired) as f64,
        "count",
    ));

    // lkp-serve ranker, lkp-models (per request), lkp-dpp serving stages.
    let (overhead_us, serve_cover) = replay_serving(inp, spans, &mut m, problems);
    let swap_ms: Vec<f64> = inp.swaps.iter().map(|s| s.wall_ms).collect();
    let pause_us: Vec<f64> = inp.swaps.iter().map(|s| s.commit_pause_us).collect();
    m.push(Metric::new("serve.swap_ms", median(&swap_ms), "ms"));
    m.push(Metric::new(
        "serve.swap.commit_pause_us",
        median(&pause_us),
        "us",
    ));

    // Training stages, lkp-data planning and merge, lkp-core update. The
    // replay sits between two width-1 timing fits: the fastest of their
    // epochs, measured next to the replay, is the whole the attribution
    // check holds the stages against. Both sides and the scaling epochs are
    // given at the reference speed.
    let mut speed = SpeedLog::default();
    let w1_before = epoch_at_width(inp, 1, spans, &mut speed);
    let stage_s = replay_epoch(inp, spans, &mut speed, &mut m);
    let w1 = w1_before.min(epoch_at_width(inp, 1, spans, &mut speed));
    m.push(Metric::new(
        "data.merge_delta_ms",
        median(inp.merge_ms),
        "ms",
    ));
    m.push(Metric::new("core.update_ms", median(inp.update_ms), "ms"));
    m.push(Metric::new(
        "core.update.frozen",
        inp.frozen_fresh.0 as f64,
        "count",
    ));
    m.push(Metric::new(
        "core.update.fresh",
        inp.frozen_fresh.1 as f64,
        "count",
    ));

    // lkp-eval.
    let mut pool = lkp::runtime::WorkerPool::new(inp.threads);
    let validate_ms: Vec<f64> = (0..VALIDATIONS)
        .map(|i| {
            let (_, ns) = spans.time("eval.validate", "", i as u64, || {
                std::hint::black_box(lkp::eval::evaluate_with_pool(
                    inp.model,
                    inp.data,
                    &[10],
                    Split::Validation,
                    &mut pool,
                ))
            });
            ns as f64 / 1e6
        })
        .collect();
    m.push(Metric::new("eval.validate_ms", median(&validate_ms), "ms"));

    // lkp-runtime: empty dispatch at the trainer's batch shape, and scaling.
    let batch = TrainConfig::default().batch_size;
    let input = vec![0u8; batch];
    let mut output = vec![0u8; batch];
    let (_, ns) = spans.time("runtime.zip_chunks", "", 0, || {
        for _ in 0..DISPATCHES {
            pool.zip_chunks(&input, &mut output, |_, _, _, _| {});
        }
    });
    drop(pool);
    m.push(Metric::new(
        "runtime.dispatch_us",
        ns as f64 / 1e3 / DISPATCHES as f64,
        "us",
    ));
    let wn = epoch_at_width(inp, inp.threads, spans, &mut speed);
    m.push(Metric::new("runtime.scaling", w1 / wn, "ratio"));
    m.push(Metric::new("runtime.epoch_s.w1", w1, "s"));
    m.push(Metric::new("runtime.epoch_s.wN", wn, "s"));

    // Attribution: stage self times against the measured wholes — the
    // width-1 ranker's service time, and the width-1 epochs timed around
    // the epoch replay.
    let train_cover = stage_s / w1;
    for (what, cover, parent) in [
        ("serving request", serve_cover, "serve.rank_batch"),
        ("training epoch", train_cover, "core.epoch"),
    ] {
        let line = format!(
            "attribution: stages cover {:.1}% of a {what} (allowed {:.0}% either way); the {:+.1}% gap sits under {parent}",
            100.0 * cover,
            100.0 * ATTRIBUTION_SHARE,
            100.0 * (1.0 - cover)
        );
        if (cover - 1.0).abs() <= ATTRIBUTION_SHARE {
            notes.push(line);
        } else {
            problems.push(line);
        }
    }
    m.push(Metric::new("trace.attribution.serve", serve_cover, "ratio"));
    m.push(Metric::new("trace.attribution.train", train_cover, "ratio"));
    m.push(Metric::new("trace.overhead_us", overhead_us, "us"));
    notes.push(format!(
        "train.epoch_s {:.4} s in the run, {w1:.4} s beside the replay, stage replay {stage_s:.4} s (all at reference speed)",
        inp.epoch_s
    ));

    // Self time per layer over every span of the run.
    m.push(Metric::new(
        "trace.spans",
        spans.spans.len() as f64,
        "count",
    ));
    let layers = trace::layer_self_ns(&spans.spans);
    for layer in LAYERS {
        m.push(Metric::new(
            format!("self_ms.{layer}"),
            layers.get(layer).copied().unwrap_or(0) as f64 / 1e6,
            "ms",
        ));
    }
    let path = std::path::PathBuf::from(format!(
        ".bench_out/trace-{}-{}.jsonl",
        inp.profile.name, inp.seed
    ));
    match trace::write_jsonl(&path, &spans.spans) {
        Ok(()) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => problems.push(format!("writing {}: {e}", path.display())),
    }
    m
}
