//! The host-speed reference and CPU clocks.
//!
//! A shared host runs the same code up to about twice as fast in one run as
//! in another, for minutes at a time: the clock rate and the neighbours'
//! load change under the benchmark, and other guests take turns on its
//! vCPUs. Raw timings of unchanged code then spread past any useful bound.
//! Two things take that out:
//!
//! * Work done by one thread is timed on that thread's CPU clock, which
//!   does not run while the thread waits for a CPU (the guest kernel
//!   accounts time taken by the host as steal, not as the thread's). On an
//!   idle dedicated core it equals wall time.
//! * The benchmark times a fixed piece of arithmetic of its own — a small
//!   dense product and row gathers with dot products, the shapes of kernel
//!   algebra and of MF scoring — many times through each run, right beside
//!   the work it measures, and gives every figure at the reference speed:
//!   a duration is scaled by `REFERENCE_S / t_ref` and a rate by its
//!   inverse, where `t_ref` is the reference time nearby, on the same kind
//!   of clock as the figure. The reference is the benchmark's own code, so
//!   a change to the system cannot move it.

use crate::stats::{mean, median};
use std::sync::OnceLock;
use std::time::Instant;

/// Which CPU clock to read.
#[derive(Debug, Clone, Copy)]
pub enum Cpu {
    /// The calling thread's CPU time.
    Thread,
    /// The CPU time of every thread of the process.
    Process,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time consumed so far on `clock`, in ns.
pub fn cpu_ns(clock: Cpu) -> u64 {
    // CLOCK_PROCESS_CPUTIME_ID and CLOCK_THREAD_CPUTIME_ID on Linux.
    let id = match clock {
        Cpu::Process => 2,
        Cpu::Thread => 3,
    };
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration,
    // and both clock ids exist on every Linux kernel.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Wall time of one [`pass`] on the host the bounds were fixed on (two
/// vCPUs of a shared Intel Xeon, in a fast stretch), in s.
pub const REFERENCE_S: f64 = 0.000_95;
/// Passes per sample, timed together: a sample lasts a few scheduler time
/// slices, so it slows with the share of the CPU the run gets as well as
/// with the clock rate.
const PASSES: usize = 3;
/// Samples nearest in time whose median scales a measured interval.
const NEAREST: usize = 5;

const DIM: usize = 64;
const ROWS: usize = 2000;
const COLS: usize = 32;
const GATHERS: usize = 65_536;

struct Inputs {
    a: Vec<f64>,
    b: Vec<f64>,
    table: Vec<f64>,
    rows: Vec<usize>,
}

/// The reference's inputs, filled once from a fixed SplitMix64 stream.
fn inputs() -> &'static Inputs {
    static INPUTS: OnceLock<Inputs> = OnceLock::new();
    INPUTS.get_or_init(|| {
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut unit = |n: usize| {
            (0..n)
                .map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
                .collect::<Vec<f64>>()
        };
        let (a, b, table) = (unit(DIM * DIM), unit(DIM * DIM), unit(ROWS * COLS));
        let rows = unit(GATHERS)
            .into_iter()
            .map(|u| ((u + 0.5) * ROWS as f64) as usize % ROWS)
            .collect();
        Inputs { a, b, table, rows }
    })
}

/// One pass of the reference arithmetic.
fn pass(inp: &Inputs) -> f64 {
    let mut c = vec![0.0; DIM * DIM];
    for i in 0..DIM {
        for k in 0..DIM {
            let aik = inp.a[i * DIM + k];
            for j in 0..DIM {
                c[i * DIM + j] += aik * inp.b[k * DIM + j];
            }
        }
    }
    let query = &c[..COLS];
    let mut acc = 0.0;
    for &r in &inp.rows {
        let row = &inp.table[r * COLS..(r + 1) * COLS];
        acc += row.iter().zip(query).map(|(x, q)| x * q).sum::<f64>();
    }
    acc
}

/// One sample of the reference.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Run-clock ns at which it was taken.
    at_ns: u64,
    /// Mean wall time of a pass, in s.
    wall_s: f64,
    /// Mean CPU time of a pass on the sampling thread, in s.
    cpu_s: f64,
}

/// Reference samples of one run, stamped on the run's clock.
#[derive(Debug, Default)]
pub struct SpeedLog {
    samples: Vec<Sample>,
}

impl SpeedLog {
    /// Takes one sample now (`at_ns` on the run's clock).
    pub fn record(&mut self, at_ns: u64) {
        let inp = inputs();
        let cpu0 = cpu_ns(Cpu::Thread);
        let start = Instant::now();
        for _ in 0..PASSES {
            std::hint::black_box(pass(std::hint::black_box(inp)));
        }
        let wall_s = start.elapsed().as_secs_f64() / PASSES as f64;
        let cpu_s = (cpu_ns(Cpu::Thread) - cpu0) as f64 / 1e9 / PASSES as f64;
        self.samples.push(Sample {
            at_ns,
            wall_s,
            cpu_s,
        });
    }

    /// The [`NEAREST`] samples closest in time to `at_ns`.
    fn near(&self, at_ns: u64) -> Vec<Sample> {
        let mut by_distance = self.samples.clone();
        by_distance.sort_by_key(|s| s.at_ns.abs_diff(at_ns));
        by_distance.truncate(NEAREST);
        by_distance
    }

    /// `cpu_s` of CPU time spent around `at_ns`, in s at the reference
    /// speed. The nearby reference CPU times are summarized by their median.
    pub fn cpu_at_reference(&self, cpu_s: f64, at_ns: u64) -> f64 {
        let near: Vec<f64> = self.near(at_ns).iter().map(|s| s.cpu_s).collect();
        cpu_s * REFERENCE_S / median(&near)
    }

    /// The wall interval `[start_ns, end_ns]`, in s at the reference speed.
    /// The nearby reference wall times are summarized by their mean, so a
    /// host that takes its vCPUs away in bursts slows the reference by the
    /// share of time it takes, as it slows the measured work.
    pub fn wall_at_reference(&self, start_ns: u64, end_ns: u64) -> f64 {
        let secs = end_ns.saturating_sub(start_ns) as f64 / 1e9;
        self.wall_s_at_reference(secs, start_ns / 2 + end_ns / 2)
    }

    /// `secs` of wall time spent around `at_ns`, in s at the reference
    /// speed (see [`SpeedLog::wall_at_reference`]).
    pub fn wall_s_at_reference(&self, secs: f64, at_ns: u64) -> f64 {
        let near: Vec<f64> = self.near(at_ns).iter().map(|s| s.wall_s).collect();
        secs * REFERENCE_S / mean(&near)
    }

    /// The median wall and CPU time of a pass over every sample, in s.
    pub fn median_s(&self) -> (f64, f64) {
        let of = |f: fn(&Sample) -> f64| median(&self.samples.iter().map(f).collect::<Vec<_>>());
        (of(|s| s.wall_s), of(|s| s.cpu_s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_uses_the_nearest_samples() {
        let mut log = SpeedLog::default();
        for i in 0..20u64 {
            let t = if i < 10 {
                REFERENCE_S
            } else {
                2.0 * REFERENCE_S
            };
            log.samples.push(Sample {
                at_ns: i * 1_000,
                wall_s: t,
                cpu_s: t,
            });
        }
        // Near the start the host ran at reference speed; near the end at
        // half of it, so a microsecond there counts as half of one.
        assert!((log.wall_at_reference(0, 1_000) - 1e-6).abs() < 1e-18);
        assert!((log.wall_at_reference(19_000, 20_000) - 0.5e-6).abs() < 1e-18);
        assert!((log.cpu_at_reference(1e-6, 0) - 1e-6).abs() < 1e-18);
        assert!((log.cpu_at_reference(1e-6, 19_500) - 0.5e-6).abs() < 1e-18);
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (t0, p0) = (cpu_ns(Cpu::Thread), cpu_ns(Cpu::Process));
        let mut log = SpeedLog::default();
        log.record(0);
        assert!(cpu_ns(Cpu::Thread) > t0 && cpu_ns(Cpu::Process) > p0);
        let (wall, cpu) = log.median_s();
        assert!(wall > 0.0 && cpu > 0.0);
    }
}
