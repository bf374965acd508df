//! The load generators. Open loop ([`drive`]): one submitter (the calling
//! thread) sends each request at its due time through
//! `DriverClient::submit`, and one redeemer thread claims responses in
//! ticket order. Latency runs from a request's due time to its redemption,
//! so a stall in the system also charges the requests that were due while
//! it lasted. Closed loop ([`saturate`]): the calling thread alone keeps a
//! fixed number of requests in flight and measures throughput.

use crate::schedule::{Arrival, TOP_N};
use crate::speed::{cpu_ns, Cpu};
use crate::stats::{median, quantile};
use crate::trace::Spans;
use crate::Model;
use lkp::serve::{DriverClient, RankOutcome, RankRequest, RankResponse, SubmitError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long the redeemer waits for one ticket before counting it lost.
const TAKE_TIMEOUT: Duration = Duration::from_secs(60);
/// Lead time between building a window and its first due time.
const START_LEAD: Duration = Duration::from_millis(2);

/// Why a request produced no response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Miss {
    /// Refused at admission (`SubmitError::QueueFull`).
    Shed,
    /// The `FrontendDriver` was shutting down.
    Refused,
    /// Admitted but never redeemed within [`TAKE_TIMEOUT`].
    Lost,
}

/// What happened to one scheduled request. Times are ns after the window
/// opened.
#[derive(Debug, Clone)]
pub struct Record {
    pub arrival: Arrival,
    /// When the submitter began the send.
    pub send_ns: u64,
    /// When `submit` returned.
    pub sent_ns: u64,
    /// When the response was redeemed (0 on a miss).
    pub done_ns: u64,
    /// How late the generator itself was: send start minus the later of
    /// the due time and the end of the previous send. Lateness caused by a
    /// blocking `submit` is the system's and is excluded.
    pub gen_late_ns: u64,
    pub result: Result<RankResponse, Miss>,
}

impl Record {
    /// Due-to-redeem latency in ms; infinite on a miss or a non-served
    /// outcome.
    pub fn latency_ms(&self) -> f64 {
        match &self.result {
            Ok(r) if r.outcome == RankOutcome::Served => {
                self.done_ns.saturating_sub(self.arrival.due_ns) as f64 / 1e6
            }
            _ => f64::INFINITY,
        }
    }
}

/// One driven window.
#[derive(Debug)]
pub struct Window {
    /// Run-clock ns at which the window opened (due time 0).
    pub opened_ns: u64,
    pub records: Vec<Record>,
    /// The submitter gave up because it fell too far behind.
    pub aborted: bool,
}

/// When to stop sending early.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stop<'a> {
    /// Stop once a send starts this far past its due time.
    pub behind_ns: Option<u64>,
    /// Stop when this flag is raised.
    pub flag: Option<&'a AtomicBool>,
}

/// Materializes the requests of `arrivals` (untimed: a copy of the
/// pre-built candidate sets).
pub fn requests(arrivals: &[Arrival], sets: &[Vec<usize>]) -> Vec<RankRequest> {
    arrivals
        .iter()
        .map(|a| RankRequest::new(a.user, sets[a.set].clone(), TOP_N))
        .collect()
}

/// Drives `arrivals` open-loop against `client`. With `spans`, every
/// request records a `bench.request` root (due → redeemed) with
/// `serve.driver.submit` and `serve.driver.take` children.
pub fn drive(
    client: &DriverClient<Model>,
    arrivals: &[Arrival],
    reqs: Vec<RankRequest>,
    stop: Stop<'_>,
    origin: Instant,
    spans: Option<&mut Spans>,
) -> Window {
    let opened = Instant::now() + START_LEAD;
    let opened_ns = opened.duration_since(origin).as_nanos() as u64;
    let since = move || Instant::now().saturating_duration_since(opened).as_nanos() as u64;
    let mut records: Vec<Record> = Vec::with_capacity(arrivals.len());
    let mut aborted = false;
    let (tx, rx) = mpsc::channel::<(usize, lkp::serve::Ticket)>();
    let redeemed = std::thread::scope(|scope| {
        let redeem_client = client.clone();
        let redeemer = scope.spawn(move || {
            let mut out = Vec::new();
            for (i, ticket) in rx {
                let start = since();
                let resp = redeem_client.take_deadline(ticket, TAKE_TIMEOUT);
                out.push((i, start, since(), resp));
            }
            out
        });
        let mut prev_end = 0u64;
        for (i, (a, req)) in arrivals.iter().zip(reqs).enumerate() {
            if stop.flag.is_some_and(|f| f.load(Ordering::SeqCst)) {
                break;
            }
            let now = since();
            if now < a.due_ns {
                std::thread::sleep(Duration::from_nanos(a.due_ns - now));
            }
            let send_ns = since();
            let gen_late_ns = send_ns.saturating_sub(a.due_ns.max(prev_end));
            let res = client.submit(req);
            let sent_ns = since();
            prev_end = sent_ns;
            let result = match res {
                Ok(ticket) => {
                    tx.send((i, ticket))
                        .expect("redeemer outlives the submitter");
                    Err(Miss::Lost)
                }
                Err(SubmitError::QueueFull { .. }) => Err(Miss::Shed),
                Err(SubmitError::ShuttingDown) => Err(Miss::Refused),
            };
            records.push(Record {
                arrival: *a,
                send_ns,
                sent_ns,
                done_ns: 0,
                gen_late_ns,
                result,
            });
            if stop
                .behind_ns
                .is_some_and(|b| send_ns.saturating_sub(a.due_ns) > b)
            {
                aborted = true;
                break;
            }
        }
        drop(tx);
        redeemer.join().expect("redeemer thread panicked")
    });
    let mut take_spans = Vec::new();
    for (i, take_start, done, resp) in redeemed {
        if let Some(resp) = resp {
            records[i].done_ns = done;
            records[i].result = Ok(resp);
        }
        take_spans.push((i, take_start, done));
    }
    if let Some(spans) = spans {
        for (i, r) in records.iter().enumerate() {
            let id = i as u64;
            spans.push(
                "serve.driver.submit",
                "bench.request",
                id,
                opened_ns + r.send_ns,
                opened_ns + r.sent_ns,
            );
            let end = if r.done_ns > 0 { r.done_ns } else { r.sent_ns };
            spans.push(
                "bench.request",
                "",
                id,
                opened_ns + r.arrival.due_ns,
                opened_ns + end,
            );
        }
        for (i, start, done) in take_spans {
            spans.push(
                "serve.driver.take",
                "bench.request",
                i as u64,
                opened_ns + start,
                opened_ns + done,
            );
        }
    }
    Window {
        opened_ns,
        records,
        aborted,
    }
}

/// Samples per latency sub-window: a window is cut into
/// `clamp(n / SUBWINDOW_SAMPLES, 1, MAX_SUBWINDOWS)` equal slices of due
/// time, and latency quantiles are reported as the median over the slices,
/// so a transient host stall in one slice does not decide the run.
const SUBWINDOW_SAMPLES: usize = 250;
const MAX_SUBWINDOWS: usize = 8;

/// Summary of one window.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowStats {
    pub attempted: usize,
    pub served: usize,
    pub shed: usize,
    pub refused: usize,
    pub lost: usize,
    pub failed: usize,
    pub panicked: usize,
    pub invalid: usize,
    pub expired: usize,
    /// Latency sub-windows the quantiles below are medians over.
    pub subwindows: usize,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// p99 over the whole window, without the sub-window median.
    pub whole_p99_ms: f64,
    /// Median p50 latency of the last sub-window; a backlog that grows
    /// through the window shows here.
    pub tail_p50_ms: f64,
    /// p99 of the generator's own lateness (sub-window median), in ms.
    pub gen_late_p99_ms: f64,
    /// Share of all sends the generator started later than the slack.
    pub gen_late_share: f64,
    /// Served responses per second from the first due time to the last
    /// redemption.
    pub achieved_rps: f64,
}

impl WindowStats {
    pub fn misses(&self) -> usize {
        self.attempted - self.served
    }

    /// Counts one request's outcome (`attempted` is the caller's).
    fn count(&mut self, result: &Result<RankResponse, Miss>) {
        match result {
            Err(Miss::Shed) => self.shed += 1,
            Err(Miss::Refused) => self.refused += 1,
            Err(Miss::Lost) => self.lost += 1,
            Ok(resp) => match resp.outcome {
                RankOutcome::Served => self.served += 1,
                RankOutcome::Failed => self.failed += 1,
                RankOutcome::Panicked => self.panicked += 1,
                RankOutcome::Invalid => self.invalid += 1,
                RankOutcome::Expired => self.expired += 1,
            },
        }
    }
}

pub fn summarize(w: &Window, slack_ms: f64) -> WindowStats {
    let mut s = WindowStats {
        attempted: w.records.len(),
        ..Default::default()
    };
    for r in &w.records {
        s.count(&r.result);
    }
    let n = w.records.len();
    if n == 0 {
        return s;
    }
    let lat: Vec<f64> = w.records.iter().map(Record::latency_ms).collect();
    let late: Vec<f64> = w
        .records
        .iter()
        .map(|r| r.gen_late_ns as f64 / 1e6)
        .collect();
    s.whole_p99_ms = quantile(&lat, 0.99);
    s.gen_late_share = late.iter().filter(|&&l| l > slack_ms).count() as f64 / n as f64;
    let k = (n / SUBWINDOW_SAMPLES).clamp(1, MAX_SUBWINDOWS);
    let first_due = w.records[0].arrival.due_ns;
    let last_due = w.records[n - 1].arrival.due_ns;
    let width = (last_due - first_due) / k as u64 + 1;
    let slice = |i: usize| {
        let (lo, hi) = (
            first_due + i as u64 * width,
            first_due + (i as u64 + 1) * width,
        );
        w.records
            .iter()
            .zip(lat.iter().zip(&late))
            .filter(move |(r, _)| (lo..hi).contains(&r.arrival.due_ns))
            .map(|(_, (&l, &g))| (l, g))
            .collect::<Vec<_>>()
    };
    let (mut p50, mut p99, mut gen) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..k {
        let part = slice(i);
        if part.is_empty() {
            continue;
        }
        let l: Vec<f64> = part.iter().map(|x| x.0).collect();
        let g: Vec<f64> = part.iter().map(|x| x.1).collect();
        p50.push(quantile(&l, 0.5));
        p99.push(quantile(&l, 0.99));
        gen.push(quantile(&g, 0.99));
        if i == k - 1 {
            s.tail_p50_ms = quantile(&l, 0.5);
        }
    }
    s.subwindows = k;
    s.p50_ms = median(&p50);
    s.p99_ms = median(&p99);
    s.gen_late_p99_ms = median(&gen);
    let last_done = w.records.iter().map(|r| r.done_ns).max().unwrap_or(0);
    let span_s = last_done.saturating_sub(first_due) as f64 / 1e9;
    s.achieved_rps = if span_s > 0.0 {
        s.served as f64 / span_s
    } else {
        0.0
    };
    s
}

/// Checks one served list: `min(top_n, |C|)` distinct items, all from the
/// candidate set, with a finite `log_det`.
pub fn check_list(resp: &RankResponse, cands: &[usize]) -> Result<(), String> {
    let want = TOP_N.min(cands.len());
    if resp.items.len() != want {
        return Err(format!(
            "user {}: {} items, want {want}",
            resp.user,
            resp.items.len()
        ));
    }
    let mut seen = resp.items.clone();
    seen.sort_unstable();
    seen.dedup();
    if seen.len() != resp.items.len() {
        return Err(format!(
            "user {}: duplicate items {:?}",
            resp.user, resp.items
        ));
    }
    if let Some(i) = resp.items.iter().find(|i| !cands.contains(i)) {
        return Err(format!(
            "user {}: item {i} not among the candidates",
            resp.user
        ));
    }
    if !resp.log_det.is_finite() {
        return Err(format!("user {}: log_det {}", resp.user, resp.log_det));
    }
    Ok(())
}

/// The first this many responses of a closed-loop window are kept for the
/// checks that look at whole records (generations, `rank_one` samples) and
/// for the quality figures; every list is checked as it is redeemed.
const SATURATION_KEPT: usize = 2048;

/// One closed-loop window.
#[derive(Debug)]
pub struct Saturation {
    /// Run-clock ns of the first send and of the last redemption.
    pub start_ns: u64,
    pub end_ns: u64,
    /// CPU time of every thread of the process over the window, in s.
    pub cpu_s: f64,
    pub stats: WindowStats,
    /// The first [`SATURATION_KEPT`] records; `due_ns` is the send time.
    pub kept: Window,
    /// Failed list checks.
    pub bad_lists: Vec<String>,
    /// Where the next window continues in the stream.
    pub next: usize,
}

/// Drives `stream` closed-loop from entry `from` (cycling) for `window`:
/// the calling thread keeps `depth` requests in flight, redeeming the
/// oldest before it sends the next, then redeems the rest.
pub fn saturate(
    client: &DriverClient<Model>,
    stream: &[Arrival],
    sets: &[Vec<usize>],
    from: usize,
    depth: usize,
    window: Duration,
    origin: Instant,
) -> Saturation {
    let cpu0 = cpu_ns(Cpu::Process);
    let opened = Instant::now();
    let opened_ns = opened.duration_since(origin).as_nanos() as u64;
    let since = || opened.elapsed().as_nanos() as u64;
    let window_ns = window.as_nanos() as u64;
    let mut stats = WindowStats::default();
    let mut records = Vec::new();
    let mut bad_lists = Vec::new();
    let mut in_flight: VecDeque<(Arrival, u64, u64, lkp::serve::Ticket)> =
        VecDeque::with_capacity(depth);
    let mut next = from;
    let mut last_done = 0;
    loop {
        if in_flight.len() < depth && since() < window_ns {
            let a = stream[next % stream.len()];
            next += 1;
            let send_ns = since();
            let res = client.submit(RankRequest::new(a.user, sets[a.set].clone(), TOP_N));
            let sent_ns = since();
            stats.attempted += 1;
            let miss = match res {
                Ok(ticket) => {
                    in_flight.push_back((a, send_ns, sent_ns, ticket));
                    continue;
                }
                Err(SubmitError::QueueFull { .. }) => Miss::Shed,
                Err(SubmitError::ShuttingDown) => Miss::Refused,
            };
            stats.count(&Err(miss));
            continue;
        }
        let Some((a, send_ns, sent_ns, ticket)) = in_flight.pop_front() else {
            break;
        };
        let result = client.take_deadline(ticket, TAKE_TIMEOUT).ok_or(Miss::Lost);
        let done_ns = since();
        last_done = done_ns;
        stats.count(&result);
        if let Ok(resp) = &result {
            if resp.outcome == RankOutcome::Served {
                if let Err(e) = check_list(resp, &sets[a.set]) {
                    bad_lists.push(e);
                }
            }
        }
        if records.len() < SATURATION_KEPT {
            records.push(Record {
                arrival: Arrival {
                    due_ns: send_ns,
                    ..a
                },
                send_ns,
                sent_ns,
                done_ns,
                gen_late_ns: 0,
                result,
            });
        }
    }
    let cpu_s = (cpu_ns(Cpu::Process) - cpu0) as f64 / 1e9;
    let secs = last_done as f64 / 1e9;
    stats.achieved_rps = if secs > 0.0 {
        stats.served as f64 / secs
    } else {
        0.0
    };
    Saturation {
        start_ns: opened_ns,
        end_ns: opened_ns + last_done,
        cpu_s,
        stats,
        kept: Window {
            opened_ns,
            records,
            aborted: false,
        },
        bad_lists,
        next,
    }
}
