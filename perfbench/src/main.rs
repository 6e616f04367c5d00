//! Wall-clock benchmark of the simpim serving stack and PIM k-means.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_read|serve_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints the run's settings, operation counts and metrics, then one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the per-layer
//! ones from a replay of the workload's calls. A wrong answer makes the
//! run exit with code 1; bad arguments with code 2.

mod inputs;
mod layers;
mod oracle;
mod report;
mod serving;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use report::Report;
use workloads::Run;

const WORKLOADS: [&str; 2] = ["serve_read", "serve_mixed"];

struct Args {
    workload: String,
    run: Run,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
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
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        run: Run {
            seed: seed.unwrap_or(1),
            seconds,
            traced: trace.unwrap_or(false),
        },
    })
}

/// Pins every `SIMPIM_*` knob the program reads, before any of it runs:
/// worker threads = available cores, kernel auto-detected, default block
/// rows and net window. Replicas are set per workload in the engine
/// configuration, never from the environment.
fn pin_settings(threads: usize) -> Vec<(&'static str, String)> {
    let stale: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("SIMPIM_"))
        .collect();
    for k in stale {
        std::env::remove_var(k);
    }
    let pinned = vec![
        ("SIMPIM_THREADS", threads.to_string()),
        ("SIMPIM_KERNEL", "auto".to_string()),
        ("SIMPIM_BLOCK_ROWS", layers::BLOCK_ROWS.to_string()),
        ("SIMPIM_NET_WINDOW", workloads::NET_WINDOW.to_string()),
        ("SIMPIM_REPLICAS", "1".to_string()),
    ];
    for (k, v) in &pinned {
        std::env::set_var(k, v);
    }
    simpim_par::set_thread_override(Some(threads));
    simpim_kern::set_backend_override(None);
    simpim_obs::trace::disable();
    pinned
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pinned = pin_settings(threads);
    let mut report = Report::default();
    report.note("workload", &args.workload);
    report.note("seed", args.run.seed);
    report.note("seconds", args.run.seconds);
    report.note("traced", args.run.traced);
    report.note("nproc", threads);
    report.note("kernel_backend", simpim_kern::backend_name());
    for (k, v) in pinned {
        report.note(k, v);
    }
    match args.workload.as_str() {
        "serve_read" => workloads::serve_read(&args.run, &mut report),
        _ => workloads::serve_mixed(&args.run, &mut report),
    }
    print!("{}", report.summary());
    match report.render(args.run.traced) {
        Ok(out) => {
            print!("{out}");
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: wrong answers; see the problem lines");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
