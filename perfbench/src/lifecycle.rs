//! One run of a workload: set-up, phase-1 fit, serving (nominal window and
//! closed-loop saturation windows), phase-2 refreshes (beside live reads in
//! `train_refresh`), and the output checks. The untraced run sets only the
//! pool width, the training shape and epoch counts; every other setting is
//! its `Default`, and swaps get an empty prewarm plan. Every CPU-bound
//! figure is given at the reference speed (see `speed`).

use crate::layers::{self, LayerInputs};
use crate::load::{self, check_list, Miss, Stop, Window, WindowStats};
use crate::schedule::{
    self, Arrival, Profile, Schedule, FIT_EPOCHS, HOT_POOL, LATENESS_SLACK_MS, N_ITEMS,
    SATURATION_SHARE, TOP_N,
};
use crate::speed::{cpu_ns, Cpu, SpeedLog};
use crate::stats::{mean, median, quantile};
use crate::trace::Spans;
use crate::{Metric, Model, MF_DIM};
use lkp::core::objective::LkpKind;
use lkp::core::{
    train_diversity_kernel, DiversityKernelConfig, LkpObjective, TrainConfig, Trainer,
};
use lkp::data::{Dataset, DatasetDelta, Split};
use lkp::nn::AdamConfig;
use lkp::serve::{
    DriverClient, FrontendConfig, FrontendDriver, RankOutcome, RankRequest, Ranker,
    RankingArtifact, ServeConfig, ServeFrontend,
};
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Rounds a run is cut into. Set-ups, timed epochs, nominal segments,
/// refreshes and saturation windows are spread evenly over them, so a
/// stretch of host interference lasting a few seconds does not decide a
/// run's figures.
const ROUNDS: usize = 3;
/// Set-ups per round; `setup_s` is the median of all of them.
const SETUPS_PER_ROUND: usize = 3;
/// Epochs of each round's timing fit on a clone of the trained model;
/// `train.epoch_s` is the median over all rounds.
const TIMING_EPOCHS: usize = 8;
/// Timed closed-loop windows per round; `serve.capacity_rps` is the median
/// over all of them. Each round first drives one untimed window of half the
/// length, so the kernel cache refills after the round's swaps.
const SATURATION_WINDOWS: usize = 4;
/// Closed-loop requests that warm the `FrontendDriver` at the end of set-up.
const WARMUP_REQUESTS: usize = 8;
/// Every this many served responses one is re-ranked with `rank_one` on a
/// second ranker and compared bit for bit.
const SAMPLE_STRIDE: usize = 53;
/// At most this many such comparisons per run.
const SAMPLE_MAX: usize = 96;
/// Epochs of one `Trainer::update`.
const UPDATE_EPOCHS: usize = 1;
/// Pool width of every fit and update. On a two-core host a full-width
/// trainer starves the reads that run beside a refresh and swings run to
/// run with host load; width 1 leaves a core to serving. The traced run
/// reports the trainer at full width as `runtime.scaling`.
const TRAIN_THREADS: usize = 1;

/// Counts of one phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseCount {
    pub phase: &'static str,
    pub stats: WindowStats,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub phases: Vec<PhaseCount>,
    /// The latency window's generator stayed within its slack.
    pub valid: bool,
    /// That slack, in ms.
    pub slack_ms: f64,
    pub notes: Vec<String>,
}

/// What set-up builds.
struct World {
    data: Dataset,
    model: Model,
    objective: LkpObjective,
    artifact: RankingArtifact<Model>,
    driver: FrontendDriver<Model>,
}

/// Callback stamps of a short fit at pool width `threads` on a clone of the
/// trained model: `on_epoch` runs in each epoch's callback and returns its
/// stamp (run-clock ns at which the callback was entered and left, for
/// [`epoch_intervals`]).
pub fn timed_fit<S>(
    model: &Model,
    objective: &LkpObjective,
    data: &Dataset,
    threads: usize,
    epochs: usize,
    mut on_epoch: impl FnMut() -> S,
) -> Vec<S> {
    let mut model = model.clone();
    let mut objective = LkpObjective::new(objective.kind(), objective.kernel().clone());
    let mut stamps = Vec::new();
    Trainer::new(TrainConfig {
        threads,
        epochs,
        ..Default::default()
    })
    .fit_with_callback(&mut model, &mut objective, data, |_, _| {
        stamps.push(on_epoch())
    });
    stamps
}

/// The epochs between consecutive callbacks, from leaving one to entering
/// the next, in run-clock ns.
pub fn epoch_intervals(stamps: &[(u64, u64)]) -> impl Iterator<Item = (u64, u64)> + '_ {
    stamps.windows(2).map(|w| (w[0].1, w[1].0))
}

/// A timed piece of work: its interval on the run's clock and the CPU time
/// it used, in s.
#[derive(Debug, Clone, Copy)]
struct Timed {
    start_ns: u64,
    end_ns: u64,
    cpu_s: f64,
}

impl Timed {
    fn mid_ns(&self) -> u64 {
        self.start_ns / 2 + self.end_ns / 2
    }

    fn wall_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// An epoch callback's stamp: run-clock ns and the fitting thread's CPU ns
/// at which the callback was entered and left.
#[derive(Debug, Clone, Copy)]
struct EpochStamp {
    enter_ns: u64,
    leave_ns: u64,
    cpu_enter: u64,
    cpu_leave: u64,
}

/// The epochs between consecutive callbacks of [`EpochStamp`]s.
fn epochs_between(stamps: &[EpochStamp]) -> impl Iterator<Item = Timed> + '_ {
    stamps.windows(2).map(|w| Timed {
        start_ns: w[0].leave_ns,
        end_ns: w[1].enter_ns,
        cpu_s: (w[1].cpu_enter - w[0].cpu_leave) as f64 / 1e9,
    })
}

/// One set-up, timed on the run's clock and on the process's CPU clock
/// (set-up spawns the driver, whose threads serve the warm-up).
fn timed_setup(clock: impl Fn() -> u64) -> (World, Timed) {
    let (start_ns, cpu0) = (clock(), cpu_ns(Cpu::Process));
    let world = setup();
    let cpu_s = (cpu_ns(Cpu::Process) - cpu0) as f64 / 1e9;
    let end_ns = clock();
    (
        world,
        Timed {
            start_ns,
            end_ns,
            cpu_s,
        },
    )
}

fn setup() -> World {
    let data = schedule::dataset();
    let kernel = train_diversity_kernel(&data, &DiversityKernelConfig::default());
    let mut rng = rand::rngs::StdRng::seed_from_u64(schedule::WORLD_SEED);
    let model = Model::new(
        data.n_users(),
        data.n_items(),
        MF_DIM,
        AdamConfig::default(),
        &mut rng,
    );
    let objective = LkpObjective::new(LkpKind::NegativeAware, kernel);
    let artifact = RankingArtifact::from_trained(&model, &objective);
    let driver = FrontendDriver::spawn(ServeFrontend::new(
        Ranker::new(artifact.clone(), ServeConfig::default()),
        FrontendConfig::default(),
    ));
    // The warm-up goes out as one batch, so it waits for one batch deadline.
    let client = driver.client();
    let tickets: Vec<_> = (0..WARMUP_REQUESTS)
        .map(|user| {
            let cands = (0..HOT_POOL)
                .map(|j| (user * 7 + j * 13) % N_ITEMS)
                .collect();
            client
                .submit(RankRequest::new(user, cands, TOP_N))
                .expect("an idle driver admits the warm-up")
        })
        .collect();
    for ticket in tickets {
        let resp = client
            .take_deadline(ticket, Duration::from_secs(60))
            .expect("warm-up request served");
        assert_eq!(resp.outcome, RankOutcome::Served, "warm-up request failed");
    }
    World {
        data,
        model,
        objective,
        artifact,
        driver,
    }
}

/// A committed swap as the benchmark saw it.
#[derive(Debug, Clone, Copy)]
pub struct SwapSeen {
    pub generation: u64,
    /// Run-clock ns at which `swap_artifact` returned.
    pub returned_ns: u64,
    pub wall_ms: f64,
    pub commit_pause_us: f64,
}

/// A stream cut into [`ROUNDS`] consecutive pieces, each rebased to open
/// at due time 0.
fn segments(stream: &[Arrival]) -> Vec<Vec<Arrival>> {
    if stream.is_empty() {
        return Vec::new();
    }
    stream
        .chunks(stream.len().div_ceil(ROUNDS))
        .map(|chunk| {
            let t0 = chunk[0].due_ns;
            chunk
                .iter()
                .map(|a| Arrival {
                    due_ns: a.due_ns - t0,
                    ..*a
                })
                .collect()
        })
        .collect()
}

/// Segment statistics merged: counts summed, latency quantiles and
/// generator lateness as medians over segments.
fn combine(parts: &[WindowStats]) -> WindowStats {
    let mut out = WindowStats::default();
    for s in parts {
        out.attempted += s.attempted;
        out.served += s.served;
        out.shed += s.shed;
        out.refused += s.refused;
        out.lost += s.lost;
        out.failed += s.failed;
        out.panicked += s.panicked;
        out.invalid += s.invalid;
        out.expired += s.expired;
        out.subwindows += s.subwindows;
    }
    let med = |f: fn(&WindowStats) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>());
    out.p50_ms = med(|s| s.p50_ms);
    out.p99_ms = med(|s| s.p99_ms);
    out.whole_p99_ms = med(|s| s.whole_p99_ms);
    out.tail_p50_ms = med(|s| s.tail_p50_ms);
    out.gen_late_p99_ms = med(|s| s.gen_late_p99_ms);
    out.gen_late_share = med(|s| s.gen_late_share);
    out.achieved_rps = med(|s| s.achieved_rps);
    out
}

/// Runs one workload. `trace` switches from the end-to-end metrics to the
/// per-layer ones.
pub fn run(p: &Profile, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let threads = lkp::runtime::resolve_threads(0);
    let origin = Instant::now();
    let clock = || origin.elapsed().as_nanos() as u64;
    let mut speed = SpeedLog::default();

    // ---- set-up (round 0's share; the last world built is served) -------
    let mut setups: Vec<Timed> = Vec::with_capacity(ROUNDS * SETUPS_PER_ROUND);
    let mut world = None;
    for _ in 0..SETUPS_PER_ROUND {
        speed.record(clock());
        let (w, interval) = timed_setup(clock);
        setups.push(interval);
        world = Some(w);
    }
    speed.record(clock());
    let World {
        data,
        mut model,
        mut objective,
        artifact: artifact_v1,
        driver,
    } = world.expect("at least one set-up");
    let sched = Schedule::build(seed, p, seconds, &data);
    let mut spans = Spans::new(origin);
    let client = driver.client();
    let mut generations: Vec<RankingArtifact<Model>> = vec![artifact_v1];
    let mut swaps: Vec<SwapSeen> = Vec::new();
    let mut windows: Vec<(&'static str, Window)> = Vec::new();
    let swap_in = |client: &DriverClient<Model>,
                   art: RankingArtifact<Model>,
                   generations: &mut Vec<RankingArtifact<Model>>,
                   swaps: &mut Vec<SwapSeen>,
                   problems: &mut Vec<String>| {
        let start = Instant::now();
        let rep = client.swap_artifact(art.clone(), &[]);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let want = generations.len() as u64 + 1;
        if rep.generation != want || client.generation() != want {
            problems.push(format!(
                "swap committed generation {} (driver reports {}), want {want}",
                rep.generation,
                client.generation()
            ));
        }
        generations.push(art);
        swaps.push(SwapSeen {
            generation: rep.generation,
            returned_ns: clock(),
            wall_ms,
            commit_pause_us: rep.commit_pause.as_secs_f64() * 1e6,
        });
    };
    // Each epoch callback samples the host-speed reference between two
    // stamps, so the sample stays out of the epochs on either side.
    let epoch_stamp = |speed: &mut SpeedLog| {
        let (enter_ns, cpu_enter) = (clock(), cpu_ns(Cpu::Thread));
        speed.record(enter_ns);
        EpochStamp {
            enter_ns,
            leave_ns: clock(),
            cpu_enter,
            cpu_leave: cpu_ns(Cpu::Thread),
        }
    };

    // ---- phase 1: fit at k = n = 5 with validation ---------------------
    let fit_cfg = TrainConfig {
        threads: TRAIN_THREADS,
        epochs: FIT_EPOCHS,
        ..Default::default()
    };
    let fit_start = clock();
    let mut stamps: Vec<EpochStamp> = Vec::new();
    let report =
        Trainer::new(fit_cfg).fit_with_callback(&mut model, &mut objective, &data, |_, _| {
            stamps.push(epoch_stamp(&mut speed))
        });
    let fit_end = clock();
    if trace {
        spans.push("core.fit", "", 0, fit_start, fit_end);
        for e in epochs_between(&stamps) {
            spans.push("core.epoch", "core.fit", 0, e.start_ns, e.end_ns);
        }
    }
    if report.epochs_run != FIT_EPOCHS || !report.best_val_ndcg.is_finite() {
        out.problems.push(format!(
            "fit ran {} of {FIT_EPOCHS} epochs, validation NDCG {}",
            report.epochs_run, report.best_val_ndcg
        ));
    }
    // The warm-start token for phase 2: one more epoch through fit_state.
    let (_, mut state) = Trainer::new(TrainConfig {
        threads: TRAIN_THREADS,
        epochs: 1,
        ..Default::default()
    })
    .fit_state(&mut model, &mut objective, &data);
    let trained = RankingArtifact::from_trained(&model, &objective);
    swap_in(
        &client,
        trained,
        &mut generations,
        &mut swaps,
        &mut out.problems,
    );

    // ---- rounds: serving, phase-2 refreshes, saturation ------------------
    // Each round (after the first) opens with more set-ups, drives one
    // nominal segment (serving workloads), hands off one group of refresh
    // deltas (beside one segment of reads in train_refresh), times a short
    // fit, and drives the saturation windows. Figures are medians over all
    // rounds.
    let nominal_parts = segments(&sched.nominal);
    let read_parts = segments(&sched.background);
    let per_round = sched.deltas.len().div_ceil(ROUNDS);
    let updater = Trainer::new(TrainConfig {
        threads: TRAIN_THREADS,
        epochs: FIT_EPOCHS,
        update_epochs: UPDATE_EPOCHS,
        ..Default::default()
    });
    let window =
        Duration::from_secs_f64(seconds * SATURATION_SHARE / (ROUNDS * SATURATION_WINDOWS) as f64);
    let depth = 2 * FrontendConfig::default().max_batch;
    let mut next_request = 0;
    // Epochs of the rounds' timing fits: one population, so their median
    // does not hop between the fit's validation and plain epochs.
    let mut epochs: Vec<Timed> = Vec::new();
    let mut saturation: Vec<load::Saturation> = Vec::new();
    // A refresh's update and artifact build run on this thread and are
    // timed on its CPU clock; the swap waits for the pump and is timed on
    // the wall clock.
    let mut live: Vec<(Timed, Timed)> = Vec::new();
    let mut update_ms = Vec::new();
    let mut merge_ms = Vec::new();
    let mut frozen_fresh = (0usize, 0usize);
    // The latency window the traced run breaks down, with the frontend
    // counters around it.
    let mut traced_window = None;
    for round in 0..ROUNDS {
        if round > 0 {
            for _ in 0..SETUPS_PER_ROUND {
                speed.record(clock());
                let (extra, interval) = timed_setup(clock);
                setups.push(interval);
                drop(extra);
            }
            speed.record(clock());
        }
        let traced = trace && round == 0;
        if let Some(seg) = nominal_parts.get(round) {
            let before = client.stats();
            let w = load::drive(
                &client,
                seg,
                load::requests(seg, &sched.sets),
                Stop::default(),
                origin,
                traced.then_some(&mut spans),
            );
            if round == 0 {
                traced_window = Some((windows.len(), before, client.stats()));
            }
            windows.push(("nominal", w));
        }

        let first = (round * per_round).min(sched.deltas.len());
        let group = &sched.deltas[first..((round + 1) * per_round).min(sched.deltas.len())];
        let stop = AtomicBool::new(false);
        let before = client.stats();
        let reads = std::thread::scope(|scope| {
            let reader = read_parts.get(round).map(|arrivals| {
                let (reader_client, stop, sets) = (client.clone(), &stop, &sched.sets);
                scope.spawn(move || {
                    let mut reader_spans = traced.then(|| Spans::new(origin));
                    let flag = Stop {
                        behind_ns: None,
                        flag: Some(stop),
                    };
                    let reqs = load::requests(arrivals, sets);
                    let w = load::drive(
                        &reader_client,
                        arrivals,
                        reqs,
                        flag,
                        origin,
                        reader_spans.as_mut(),
                    );
                    (w, reader_spans)
                })
            });
            for (j, events) in group.iter().enumerate() {
                let d = first + j;
                let mut delta = DatasetDelta::new();
                for &(u, i) in events {
                    delta.push(u, i);
                }
                speed.record(clock());
                let (handoff, cpu_handoff) = (clock(), cpu_ns(Cpu::Thread));
                if trace {
                    let (_, ns) = spans.time("data.merge_delta", "bench.refresh", d as u64, || {
                        std::hint::black_box(state.data().merge_delta(&delta))
                    });
                    merge_ms.push(ns as f64 / 1e6);
                }
                let t0 = clock();
                let rep = updater.update(&mut model, &mut objective, &state, &delta);
                let t1 = clock();
                update_ms.push((t1 - t0) as f64 / 1e6);
                if rep.no_op || rep.report.epochs_run != UPDATE_EPOCHS {
                    out.problems.push(format!(
                        "refresh {d}: no_op {} after {} epochs",
                        rep.no_op, rep.report.epochs_run
                    ));
                }
                frozen_fresh.0 += rep.frozen_instances;
                frozen_fresh.1 += rep.fresh_instances;
                state = rep.state;
                let art = generations
                    .last()
                    .expect("a serving generation")
                    .refresh_from(&model);
                let (t2, cpu_built) = (clock(), cpu_ns(Cpu::Thread));
                swap_in(
                    &client,
                    art,
                    &mut generations,
                    &mut swaps,
                    &mut out.problems,
                );
                let t3 = clock();
                live.push((
                    Timed {
                        start_ns: handoff,
                        end_ns: t2,
                        cpu_s: (cpu_built - cpu_handoff) as f64 / 1e9,
                    },
                    Timed {
                        start_ns: t2,
                        end_ns: t3,
                        cpu_s: 0.0,
                    },
                ));
                if trace {
                    spans.push("core.update", "bench.refresh", d as u64, t0, t1);
                    spans.push("serve.refresh_from", "bench.refresh", d as u64, t1, t2);
                    spans.push("serve.swap", "bench.refresh", d as u64, t2, t3);
                    spans.push("bench.refresh", "", d as u64, handoff, t3);
                }
            }
            speed.record(clock());
            stop.store(true, Ordering::SeqCst);
            reader.map(|h| h.join().expect("background reader panicked"))
        });
        if let Some((w, reader_spans)) = reads {
            if round == 0 && traced_window.is_none() {
                traced_window = Some((windows.len(), before, client.stats()));
            }
            windows.push(("background", w));
            if let Some(rs) = reader_spans {
                spans.extend(rs);
            }
        }
        let stamps = timed_fit(
            &model,
            &objective,
            &data,
            TRAIN_THREADS,
            TIMING_EPOCHS,
            || epoch_stamp(&mut speed),
        );
        epochs.extend(epochs_between(&stamps));

        let warm = load::saturate(
            &client,
            &sched.saturation,
            &sched.sets,
            next_request,
            depth,
            window / 2,
            origin,
        );
        next_request = warm.next;
        saturation.push(warm);
        for _ in 0..SATURATION_WINDOWS {
            speed.record(clock());
            let sat = load::saturate(
                &client,
                &sched.saturation,
                &sched.sets,
                next_request,
                depth,
                window,
                origin,
            );
            next_request = sat.next;
            saturation.push(sat);
        }
        speed.record(clock());
    }
    // Every round's first saturation window only warms the cache.
    let timed_windows: Vec<&load::Saturation> = saturation
        .iter()
        .enumerate()
        .filter(|(i, _)| i % (SATURATION_WINDOWS + 1) != 0)
        .map(|(_, s)| s)
        .collect();
    // Served requests per CPU-second of the whole process (the submitting
    // thread included), at the reference speed. On an idle host serving
    // keeps every core busy at saturation, so this is the capacity one
    // core adds; unlike the wall-clock rate it does not fall when the host
    // takes CPU away.
    let per_core_rps: Vec<f64> = timed_windows
        .iter()
        .map(|s| {
            let mid = s.start_ns / 2 + s.end_ns / 2;
            s.stats.served as f64 / speed.cpu_at_reference(s.cpu_s, mid)
        })
        .collect();
    let wall_rps = median(
        &timed_windows
            .iter()
            .map(|s| s.stats.achieved_rps)
            .collect::<Vec<_>>(),
    );
    let busy_share = median(
        &timed_windows
            .iter()
            .map(|s| s.cpu_s / ((s.end_ns - s.start_ns) as f64 / 1e9 * threads as f64))
            .collect::<Vec<_>>(),
    );
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let cpu_at_reference = |t: &Timed| speed.cpu_at_reference(t.cpu_s, t.mid_ns());
    let setup_s: Vec<f64> = setups.iter().map(cpu_at_reference).collect();
    let epoch_s: Vec<f64> = epochs.iter().map(cpu_at_reference).collect();
    let live_s: Vec<f64> = live
        .iter()
        .map(|(build, swap)| {
            cpu_at_reference(build) + speed.wall_at_reference(swap.start_ns, swap.end_ns)
        })
        .collect();
    let mut pool = lkp::runtime::WorkerPool::new(threads);
    let refresh_ndcg =
        lkp::eval::evaluate_with_pool(&model, state.data(), &[10], Split::Validation, &mut pool)
            .at(10)
            .map_or(f64::NAN, |m| m.ndcg);
    drop(pool);
    let sat_counts = combine(&saturation.iter().map(|s| s.stats).collect::<Vec<_>>());
    for sat in saturation {
        for e in sat.bad_lists {
            out.problems.push(format!("saturation: {e}"));
        }
        windows.push(("saturation", sat.kept));
    }

    // ---- output checks ---------------------------------------------------
    let mut ndcg = Vec::new();
    let mut coverage = Vec::new();
    let mut sampled = 0usize;
    let mut served_seen = 0usize;
    let mut check_rankers: BTreeMap<u64, Ranker<Model>> = BTreeMap::new();
    let max_gen = generations.len() as u64;
    for (phase, w) in &windows {
        let mut last_gen = 0u64;
        for r in &w.records {
            let cands = &sched.sets[r.arrival.set];
            let resp = match &r.result {
                Ok(resp) => resp,
                Err(Miss::Lost) => {
                    out.problems
                        .push(format!("{phase}: an admitted ticket was never redeemed"));
                    continue;
                }
                Err(_) => continue,
            };
            if resp.generation < last_gen || resp.generation > max_gen {
                out.problems.push(format!(
                    "{phase}: generation {} after {last_gen} (max {max_gen})",
                    resp.generation
                ));
            }
            last_gen = resp.generation;
            let sent = w.opened_ns + r.send_ns;
            let floor = swaps
                .iter()
                .filter(|s| s.returned_ns <= sent)
                .map(|s| s.generation)
                .max()
                .unwrap_or(1);
            if resp.generation < floor {
                out.problems.push(format!(
                    "{phase}: sent after generation {floor} committed, served by {}",
                    resp.generation
                ));
            }
            if resp.outcome != RankOutcome::Served {
                continue;
            }
            if let Err(e) = check_list(resp, cands) {
                out.problems.push(format!("{phase}: {e}"));
            }
            let m = lkp::eval::metrics::user_metrics(
                &resp.items,
                data.user_items(resp.user, Split::Test),
                &data,
                10,
            );
            ndcg.push(m.ndcg);
            coverage.push(m.category_coverage);
            if served_seen.is_multiple_of(SAMPLE_STRIDE) && sampled < SAMPLE_MAX {
                sampled += 1;
                let ranker = check_rankers.entry(resp.generation).or_insert_with(|| {
                    let art = generations[resp.generation as usize - 1].clone();
                    Ranker::new(
                        art,
                        ServeConfig {
                            threads: 1,
                            ..Default::default()
                        },
                    )
                });
                let want = ranker.rank_one(&RankRequest::new(resp.user, cands.clone(), TOP_N));
                if want.items != resp.items || want.log_det.to_bits() != resp.log_det.to_bits() {
                    out.problems.push(format!(
                        "{phase}: user {} generation {} differs from rank_one",
                        resp.user, resp.generation
                    ));
                }
            }
            served_seen += 1;
        }
    }
    drop(check_rankers);
    if sampled == 0 {
        out.problems
            .push("no response was compared against rank_one".into());
    }

    // ---- counts, validity, metrics ----------------------------------------
    let phase_stats = |phase: &str| {
        let parts = windows
            .iter()
            .filter(|(ph, _)| *ph == phase)
            .map(|(_, w)| load::summarize(w, LATENESS_SLACK_MS))
            .collect::<Vec<_>>();
        (!parts.is_empty()).then(|| combine(&parts))
    };
    let nominal_stats = phase_stats("nominal");
    let bg_stats = phase_stats("background");
    let latency = nominal_stats
        .or(bg_stats)
        .expect("a nominal window or reads beside the refreshes");
    // A late generator means host scheduling noise, not system latency:
    // the run is marked invalid (its output checks still stand).
    out.valid = latency.gen_late_p99_ms <= LATENESS_SLACK_MS;
    out.slack_ms = LATENESS_SLACK_MS;
    if !out.valid {
        out.notes.push(format!(
            "run invalid: generator lateness p99 {:.3} ms exceeds the {} ms slack ({:.2}% of sends late)",
            latency.gen_late_p99_ms,
            LATENESS_SLACK_MS,
            100.0 * latency.gen_late_share
        ));
    }
    for (phase, st) in [
        ("nominal", nominal_stats),
        ("background", bg_stats),
        ("saturation", Some(sat_counts)),
    ] {
        if let Some(st) = st {
            out.attempted += st.attempted as u64;
            out.failed += st.misses() as u64;
            out.phases.push(PhaseCount { phase, stats: st });
        }
    }
    out.attempted += (epochs.len() + sched.deltas.len()) as u64;
    let raw = |v: &mut dyn Iterator<Item = f64>| median(&v.collect::<Vec<_>>());
    out.notes.push(format!(
        "host reference {:.3} ms wall, {:.3} ms CPU (recorded {:.3} ms); as measured (wall / CPU): setup {:.4} / {:.4} s, epoch {:.4} / {:.4} s, refresh {:.4} s, capacity {:.1} req/s",
        speed.median_s().0 * 1e3,
        speed.median_s().1 * 1e3,
        crate::speed::REFERENCE_S * 1e3,
        raw(&mut setups.iter().map(Timed::wall_s)),
        raw(&mut setups.iter().map(|t| t.cpu_s)),
        raw(&mut epochs.iter().map(Timed::wall_s)),
        raw(&mut epochs.iter().map(|t| t.cpu_s)),
        raw(&mut live.iter().map(|(b, s)| b.wall_s() + s.wall_s())),
        wall_rps
    ));
    out.notes
        .push(format!("epochs at reference speed (s): {}", list(&epoch_s)));
    out.notes.push(format!(
        "refresh handoff to commit at reference speed (s): {}",
        list(&live_s)
    ));
    out.notes.push(format!(
        "saturation windows at reference speed (req/s per core): {}; CPU busy share {busy_share:.3}",
        list(&per_core_rps)
    ));

    if trace {
        let (latency_window, before, after) = traced_window.expect("a latency window in round 0");
        let frontend = (before, after);
        let inputs = LayerInputs {
            profile: p,
            seed,
            sched: &sched,
            data: &data,
            model: &model,
            objective: &objective,
            generations: &generations,
            windows: &windows,
            latency_window,
            frontend,
            swaps: &swaps,
            epoch_s: median(&epoch_s),
            p99_ms: latency.p99_ms,
            update_ms: &update_ms,
            merge_ms: &merge_ms,
            frozen_fresh,
            threads,
        };
        out.metrics = layers::measure(&inputs, &mut spans, &mut out.problems, &mut out.notes);
        // Open-loop latency: on a shared host its timer waits follow the
        // host's wake-up latency and its compute follows the host's speed,
        // so it swings past any bound between runs and is reported here.
        out.metrics
            .push(Metric::new("serve.p50_ms", latency.p50_ms, "ms"));
        // The p90 of 18 refreshes has two samples beyond it: too few to
        // bound, so it is reported here rather than end to end.
        out.metrics.push(Metric::new(
            "refresh.live_p90_s",
            quantile(&live_s, 0.9),
            "s",
        ));
        out.metrics
            .push(Metric::new("serve.capacity_rps", wall_rps, "1/s"));
        out.metrics.push(Metric::new(
            "serve.saturation.busy_share",
            busy_share,
            "ratio",
        ));
        out.metrics.push(Metric::new(
            "host.reference_ms",
            speed.median_s().0 * 1e3,
            "ms",
        ));
    } else {
        out.metrics = vec![
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new("serve.capacity_rps_per_core", median(&per_core_rps), "1/s"),
            Metric::new("serve.ndcg10", mean(&ndcg), "ndcg"),
            Metric::new("serve.coverage10", mean(&coverage), "ratio"),
            Metric::new("train.epoch_s", median(&epoch_s), "s"),
            Metric::new("train.ndcg10", report.best_val_ndcg, "ndcg"),
            Metric::new("refresh.live_p50_s", median(&live_s), "s"),
            Metric::new("refresh.ndcg10", refresh_ndcg, "ndcg"),
        ];
    }

    drop(client);
    match driver.shutdown() {
        Some(frontend) if frontend.pending_len() == 0 => {}
        Some(frontend) => out.problems.push(format!(
            "{} requests still pending at shutdown",
            frontend.pending_len()
        )),
        None => out.problems.push("driver clients outlived the run".into()),
    }
    out
}
