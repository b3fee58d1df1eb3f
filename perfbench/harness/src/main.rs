//! End-to-end benchmark harness.
//!
//! ```text
//! perfbench-harness --workload <derive|serve_churn|learn>
//!     --seed <n> --seconds <s> --trace <0|1>
//!     [--smoke] [--inject-fault] [--git-rev <rev>] [--out-dir <dir>]
//! ```
//!
//! Each workload builds its inputs from `--seed`, measures for
//! `--seconds`, checks every answer and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. With `--trace 0` the metrics are the end-to-end ones;
//! with `--trace 1` the run records spans around the harness's calls into
//! each layer, writes them to `<out-dir>/trace-<workload>-<seed>.jsonl`
//! and prints the per-layer metrics (those of layers the workload never
//! calls read 0). `--smoke` shrinks the inputs to seconds of work;
//! `--inject-fault` corrupts one answer before it is checked, so the run
//! must report `correct: false`.

mod derive;
mod learn;
mod report;
mod serve;

use std::path::PathBuf;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub inject_fault: bool,
    pub git_rev: String,
    pub out_dir: PathBuf,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            smoke: false,
            inject_fault: false,
            git_rev: "unknown".into(),
            out_dir: PathBuf::from("perfbench/out"),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                        return Err("--seconds must lie in (0, 600]".into());
                    }
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--git-rev" => args.git_rev = value()?,
                "--out-dir" => args.out_dir = PathBuf::from(value()?),
                "--smoke" => args.smoke = true,
                "--inject-fault" => args.inject_fault = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(args)
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let outcome = match args.workload.as_str() {
        "derive" => derive::run(&args),
        "serve_churn" => serve::run_churn(&args),
        "learn" => learn::run(&args),
        other => {
            eprintln!("perfbench-harness: unknown workload {other}");
            std::process::exit(2);
        }
    };
    for e in &outcome.errors {
        eprintln!("correctness: {e}");
    }
    if args.trace {
        let path = args
            .out_dir
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = report::write_spans(&path, &outcome.spans) {
            eprintln!("perfbench-harness: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    println!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"smoke\": {}, \"host_cores\": {cores}, \"git_rev\": \"{}\", \"rayon_threads\": {}, \
         \"client_threads\": {}, \"server_workers\": {}, \"spans\": {}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.smoke,
        args.git_rev,
        rayon::current_num_threads(),
        outcome.clients,
        outcome.workers,
        outcome.spans.len()
    );
    println!("{}", outcome.result_line(args.trace));
}
