//! `ccbench` — the one benchmark every performance claim about this repo
//! is measured with: four closed-loop workloads over the serving stack
//! (`cc-sim → cc-core → cc-server → cc-net`), every reply checked against
//! a sequential `CliqueService`, end-to-end metrics from an untraced run
//! and per-layer metrics from a traced one. See `README.md` beside
//! `Cargo.toml` for the workloads, the metrics and what moves what.
//!
//! ```text
//! ccbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (what the driver calls)
//! ccbench --seed <n> [--seconds <s>] [--traced]                      all four workloads, one child process each
//! ccbench --aa --seed <n> [--seconds <s>]                            each workload A B A B; fails beyond the bounds
//! ```

mod cycle;
mod drive;
mod json;
mod kernels;
mod procfs;
mod run;
mod spans;
mod spec;
mod stats;

use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use cc_net::NetServerConfig;
use cc_sim::ExecMode;

use json::RunResult;
use kernels::Scale;
use spec::{Workload, END_TO_END, RUN_SECONDS, WORKLOADS};

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Suite mode: follow each untraced run with a traced one.
    traced: bool,
    aa: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        traced: false,
        aa: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(spec::workload(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => args.traced = true,
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// What the numbers depend on besides the code: printed with every run so
/// a result cannot be read without its host and configuration.
fn print_header(w: &Workload, args: &Args) {
    let net = NetServerConfig::default();
    println!(
        "ccbench {} seed={} seconds={}{} trace={} commit={} nproc={} engine_workers(n={})={} \
         shards={} reactor={:?}x{} callers={}",
        w.name,
        args.seed,
        args.seconds,
        if args.seconds == RUN_SECONDS {
            ""
        } else {
            " (partial: not the benchmark's run length)"
        },
        u8::from(args.trace),
        git_commit(),
        procfs::nproc(),
        w.n,
        ExecMode::Auto.worker_threads(w.n),
        net.fleet().shards(),
        net.resolved_reactor_backend(),
        net.reactor_threads(),
        w.callers,
    );
    println!("why: {}", w.why);
}

fn run_one(w: &Workload, args: &Args) -> ExitCode {
    print_header(w, args);
    let window = Duration::from_secs(args.seconds);
    let result = if args.trace {
        run::traced(w, args.seed, window, &Scale::full())
    } else {
        run::untraced(w, args.seed, window)
    };
    println!("{}", result.to_line());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a child process of its own — a fresh address
/// space, so `peak_rss_mb` is that workload's alone — and reads back the
/// result line. The child's report passes through to our stdout.
fn run_child(w: &Workload, args: &Args, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or(format!("{}: child printed no result", w.name))?;
    println!("{report}");
    let result = RunResult::from_line(line)?;
    if !output.status.success() || !result.correct {
        return Err(format!(
            "{}: {} of {} requests failed",
            w.name, result.failed, result.attempted
        ));
    }
    Ok(result)
}

fn suite(args: &Args) -> Result<(), String> {
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        rows.push((w.name, run_child(w, args, false)?));
        if args.traced {
            run_child(w, args, true)?;
        }
    }
    println!("\nend-to-end summary (seed {}):", args.seed);
    print!("{:<16}", "metric");
    for (name, _) in &rows {
        print!(" {name:>14}");
    }
    println!();
    for m in &END_TO_END {
        print!("{:<16}", m.name);
        for (_, result) in &rows {
            print!(" {:>14.4}", result.metric(m.name).unwrap_or(f64::NAN));
        }
        println!(" {}", m.unit);
    }
    Ok(())
}

/// A/A: the same code measured as two interleaved sets (A B A B per
/// workload, a set's value the mean of its two runs). Any difference is
/// noise, so each must stay within the metric's bound; counts must agree
/// exactly.
fn aa(args: &Args) -> Result<(), String> {
    let mut worst = Vec::new();
    for w in &WORKLOADS {
        let mut runs = Vec::new();
        for _ in 0..4 {
            runs.push(run_child(w, args, false)?);
        }
        println!("\nA/A {} (seed {}):", w.name, args.seed);
        println!(
            "{:<16} {:<6} {:>14} {:>14} {:>9} {:>7}",
            "metric", "better", "A", "B", "diff", "bound"
        );
        for m in &END_TO_END {
            let value = |i: usize| runs[i].metric(m.name).unwrap_or(f64::NAN);
            let (a, b) = ((value(0) + value(2)) / 2.0, (value(1) + value(3)) / 2.0);
            let diff = (a - b).abs() / a;
            println!(
                "{:<16} {:<6} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.1}%",
                m.name,
                if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                },
                diff * 100.0,
                m.bound * 100.0
            );
            // NaN (a missing metric) must fail too.
            if diff.is_nan() || diff > m.bound {
                worst.push(format!(
                    "{} {}: A/A difference {:.2}% exceeds the {:.1}% bound",
                    w.name,
                    m.name,
                    diff * 100.0,
                    m.bound * 100.0
                ));
            }
        }
    }
    if worst.is_empty() {
        Ok(())
    } else {
        Err(worst.join("\n"))
    }
}

fn main() -> ExitCode {
    // A debug build is slower by a factor that varies by layer; numbers
    // from one would be wrong in shape, not just in size.
    if cfg!(debug_assertions) {
        eprintln!("ccbench: refusing to measure a build with debug assertions; use --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("ccbench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.workload, args.aa) {
        (Some(w), false) => return run_one(w, &args),
        (Some(_), true) => Err("--aa runs every workload; drop --workload".to_owned()),
        (None, true) => aa(&args),
        (None, false) => suite(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("ccbench: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::spec::PER_LAYER;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn names(list: &Json) -> Vec<String> {
        list.as_array()
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect()
    }

    /// The driver reads `BENCHMARK.json`, the binary its own tables: they
    /// must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = benchmark_json();
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
        assert_eq!(
            names(doc.get("workloads").unwrap()),
            WORKLOADS.map(|w| w.name)
        );
        assert_eq!(
            names(doc.get("per_layer").unwrap()),
            PER_LAYER.map(|(name, _)| name)
        );
        let end_to_end = doc.get("end_to_end").unwrap().as_array().unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (listed, ours) in end_to_end.iter().zip(&END_TO_END) {
            let field = |key: &str| listed.get(key).and_then(Json::as_str).unwrap();
            assert_eq!(field("name"), ours.name);
            assert_eq!(field("unit"), ours.unit);
            assert_eq!(field("better") == "higher", ours.higher_is_better);
            assert_eq!(listed.get("bound").and_then(Json::as_f64), Some(ours.bound));
        }
        for (listed, (_, unit)) in doc
            .get("per_layer")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .zip(&PER_LAYER)
        {
            assert_eq!(listed.get("unit").and_then(Json::as_str), Some(*unit));
        }
    }

    /// Plumbing only: all four workloads, untraced and traced, on small
    /// cliques for a fraction of a second each. Every named metric must be
    /// present (emission panics otherwise) and no reply may be wrong.
    #[test]
    fn every_workload_reports_every_metric_and_no_failure() {
        let scale = Scale::smoke();
        let window = Duration::from_millis(200);
        for w in &scale.workloads {
            let result = run::untraced(w, 3, window);
            assert!(result.correct, "{}: {} failed", w.name, result.failed);
            assert_eq!(result.failed, 0);
            assert!(result.attempted as usize > w.cycle_len);
            assert_eq!(result.metrics.len(), END_TO_END.len());
            // No end-to-end metric may read zero.
            assert!(result.metrics.iter().all(|(_, _, v)| *v > 0.0));
            RunResult::from_line(&result.to_line()).unwrap();

            let result = run::traced(w, 3, window, &scale);
            assert!(result.correct, "{}: {} failed", w.name, result.failed);
            assert_eq!(result.metrics.len(), PER_LAYER.len());
            let residual = result.metric("net.residual_us").unwrap();
            assert_eq!(residual != 0.0, w.is_net(), "{}: residual", w.name);
        }
    }
}
