//! Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Standard output ends with one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (name → value and unit). The lines before it give
//! the stamp, the per-phase request counts, and whether the latency window
//! is valid (its generator stayed within the lateness slack); standard
//! error carries notes and any failed check.

use crate::lifecycle::{self, Outcome};
use crate::schedule::{self, WORKLOADS};
use crate::stamp::{self, RECORDED_NPROC};
use std::process::ExitCode;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn result_line(out: &Outcome, correct: bool) -> String {
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted.max(1),
        out.failed
    )
}

/// Runs the benchmark; exits non-zero only on a usage error.
pub fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!(
                "error: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(profile) = schedule::profile(&args.workload) else {
        eprintln!("error: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let stamp = stamp::collect();
    if stamp.nproc != RECORDED_NPROC {
        eprintln!(
            "warning: nproc {} differs from the {RECORDED_NPROC}-core host the bounds were fixed on",
            stamp.nproc
        );
    }
    println!("{{\"stamp\": {}}}", stamp.to_json());
    let mut out = lifecycle::run(&profile, args.seed, args.seconds, args.trace);
    for m in &out.metrics {
        if !m.value.is_finite() {
            out.problems
                .push(format!("metric {} is not finite", m.name));
        }
    }
    for ph in &out.phases {
        let s = &ph.stats;
        println!(
            "{{\"phase\": \"{}\", \"attempted\": {}, \"served\": {}, \"shed\": {}, \"expired\": {}, \"failed\": {}, \"panicked\": {}, \"invalid\": {}, \"lost\": {}, \"p50_ms\": {}, \"p99_ms\": {}, \"whole_p99_ms\": {}, \"gen_late_p99_ms\": {}, \"gen_late_share\": {}}}",
            ph.phase,
            s.attempted,
            s.served,
            s.shed,
            s.expired,
            s.failed,
            s.panicked,
            s.invalid,
            s.lost,
            json_number(s.p50_ms),
            json_number(s.p99_ms),
            json_number(s.whole_p99_ms),
            json_number(s.gen_late_p99_ms),
            json_number(s.gen_late_share)
        );
    }
    println!(
        "{{\"valid\": {}, \"lateness_slack_ms\": {}}}",
        out.valid,
        json_number(out.slack_ms)
    );
    for note in &out.notes {
        eprintln!("note: {note}");
    }
    for problem in &out.problems {
        eprintln!("check failed: {problem}");
    }
    let correct = out.problems.is_empty();
    println!("{}", result_line(&out, correct));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload serve_hot --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_hot", 7, 10.0, true)
        );
    }

    #[test]
    fn rejects_bad_values() {
        assert!(args("--workload serve_hot --seed x").is_err());
        assert!(args("--workload serve_hot --seed 1 --trace 2").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload serve_hot --seed 1 --seconds 0").is_err());
    }
}
