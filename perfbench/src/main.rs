//! The SmartChain benchmark: what a client of the 4-replica TCP deployment
//! sees (`--trace 0`), and where each operation's time goes (`--trace 1`).
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//! Human-readable lines come first; the last line of standard output is
//! the JSON result. `--trace 1` runs the live cluster for the counters it
//! exposes, then the traced replay in a child process of its own
//! (`--replay`).

mod client;
mod live;
mod replay;
mod stats;
mod workload;

use stats::{result_json, Metric};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    replay: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut replay = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--replay" {
            replay = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w =
                    Workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?;
                workload = Some(w);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
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
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(replay),
        replay,
    })
}

/// Runs the replay in a child process and collects its metric lines.
fn replay_in_child(args: &Args) -> Result<Vec<Metric>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", args.workload.name, "--replay"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .output()
        .map_err(|e| format!("spawn replay: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "replay failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(stdout.lines().filter_map(Metric::from_line).collect())
}

fn run(args: &Args, data: &Path) -> Result<(), String> {
    live::sync_disk();
    if args.replay {
        for m in replay::run(args.workload, args.seed, data)? {
            println!("{}", m.to_line());
        }
        return Ok(());
    }
    let live = live::run(args.workload, args.seed, args.seconds, data)?;
    let mut metrics = if args.trace {
        live.per_layer
    } else {
        live.end_to_end
    };
    if args.trace {
        metrics.extend(replay_in_child(args)?);
    }
    for note in &live.notes {
        println!("{note}");
    }
    for m in &metrics {
        println!("{:<30} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_json(live.valid, live.attempted, live.failed, &metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let data = PathBuf::from(".bench_data");
    if let Err(e) = std::fs::create_dir_all(&data) {
        eprintln!("perfbench: cannot create {}: {e}", data.display());
        return ExitCode::FAILURE;
    }
    match run(&args, &data) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name);
            ExitCode::FAILURE
        }
    }
}
