//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones).  Progress,
//! the ladder, ζ violations and mismatches go to standard error.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::workloads::{self, Args, Workload};

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        dir: PathBuf::from(".bench_work").join(format!("run-{}", std::process::id())),
    })
}

/// Removes the run's store directory when dropped, also when the run
/// panics.
struct RemoveOnDrop<'a>(&'a std::path::Path);

impl Drop for RemoveOnDrop<'_> {
    fn drop(&mut self) {
        if let Err(e) = std::fs::remove_dir_all(self.0) {
            eprintln!("cannot remove {}: {e}", self.0.display());
        }
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload ingest|serve_paged_live --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {}, {} cores",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let mut report = {
        let _cleanup = RemoveOnDrop(&args.dir);
        workloads::run(&args)
    };
    for m in &report.mismatches {
        eprintln!("MISMATCH: {m}");
    }
    if args.trace {
        let names = perfbench::per_layer_names();
        report.select(&names.iter().map(String::as_str).collect::<Vec<_>>());
    } else {
        report.select(&workloads::END_TO_END);
    }
    for (name, value, unit) in &report.metrics {
        eprintln!("  {name:40} {value:>16.6} {unit}");
    }
    eprintln!(
        "attempted {}, failed {}, correct {}",
        report.attempted,
        report.failures.len(),
        report.mismatches.is_empty()
    );
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
