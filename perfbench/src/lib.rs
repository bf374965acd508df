//! End-to-end and per-layer benchmark of the lkp system.
//!
//! One command runs a named workload against the public API and prints
//! every metric by name and unit, after checking the outputs:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every run reports every end-to-end metric, so every run walks the
//! system's whole product path — set-up, a k-DPP fit at the paper's shape
//! (`k = n = 5`) that trains the served model, serving through
//! `FrontendDriver` (an open-loop window at a nominal rate and closed-loop
//! saturation windows), and a sequence of delta refreshes swapped into the
//! live driver — and the workload picks the traffic shape and where the
//! latency figure comes from:
//!
//! * `serve_hot` — Zipf-skewed users with fixed 100-item pools, so the
//!   frontend and the kernel-cache hit path do most of the work;
//! * `serve_wide` — uniform users with fresh 200/400/800-item candidate
//!   sets, so kernel assembly and greedy MAP dominate and the cache never
//!   hits;
//! * `train_refresh` — latency read from hot-shaped reads that run beside
//!   the refreshes instead of from an idle system, so artifact writes meet
//!   live reads.
//!
//! The nominal rate is a fixed share of each shape's measured closed-loop
//! saturation (see `schedule`).
//!
//! `--trace 1` runs the same path with spans recorded around each call into
//! a layer, replays the run's requests and one training epoch stage by
//! stage, and reports the per-layer metrics instead (see `layers`).
//!
//! On a two-core shared host the same code runs up to about twice as fast
//! in one run as in another, so every end-to-end timing is taken on a CPU
//! clock and given at the speed of a fixed reference computation timed
//! beside it (see `speed`). Open-loop latency cannot be put on that footing
//! (its batch-deadline waits follow the host's wake-up latency, its compute
//! the host's speed), so `serve.p50_ms`, `serve.p99_ms` and the wall-clock
//! `serve.capacity_rps` are reported by the traced run; training runs at
//! pool width 1 (see `lifecycle`). The p90 of a run's 18 refreshes has
//! two samples beyond it, so it too is reported by the traced run.

pub mod cli;
pub mod layers;
pub mod lifecycle;
pub mod load;
pub mod schedule;
pub mod speed;
pub mod stamp;
pub mod stats;
pub mod trace;

/// The recommender every workload trains and serves.
pub type Model = lkp::models::MatrixFactorization;

/// Latent dimension of the matrix-factorization model.
pub const MF_DIM: usize = 32;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}
