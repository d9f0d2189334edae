//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced). The lines
//! before it stamp the run and list every measured metric with its unit
//! and sample count. `--workload all` runs each workload in its own
//! process, one after another.

use perfbench::report::{self, Outcome, END_TO_END, PARTIAL, PER_LAYER};
use perfbench::tracer::Tracer;
use perfbench::{bookinfo, cluster, tiered};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["bookinfo-deploy", "tiered-mixed", "cluster-rf2"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    Ok(args)
}

/// Where spill segments and trace files go: under the build directory,
/// inside the checkout the benchmark runs from.
fn work_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    base.join("perfbench-work")
}

fn run_one(args: &Args) -> (Outcome, Tracer) {
    match args.workload.as_str() {
        "bookinfo-deploy" => {
            let (o, _, t) =
                bookinfo::run(&bookinfo::Plan::full(), args.seed, args.seconds, args.trace);
            (o, t)
        }
        "tiered-mixed" => {
            let work = work_dir();
            let (o, _, t) = tiered::run(
                &tiered::Plan::full(),
                args.seed,
                args.seconds,
                args.trace,
                &work,
            );
            (o, t)
        }
        "cluster-rf2" => {
            let (o, _, t) =
                cluster::run(&cluster::Plan::full(), args.seed, args.seconds, args.trace);
            (o, t)
        }
        other => unreachable!("workload {other} validated by parse"),
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let command: Vec<String> = std::env::args().collect();
    let (outcome, tracer) = run_one(&args);
    let mut stamp = vec![
        ("workload".to_string(), report::json_str(&args.workload)),
        ("seed".to_string(), args.seed.to_string()),
        ("traced".to_string(), args.trace.to_string()),
        ("nproc".to_string(), nproc().to_string()),
        (
            "rustc".to_string(),
            report::json_str(env!("PERFBENCH_RUSTC_VERSION")),
        ),
        ("command".to_string(), report::json_str(&command.join(" "))),
    ];
    for (k, v) in &outcome.notes {
        stamp.push((k.to_string(), report::json_str(v)));
    }
    if args.trace {
        let path = work_dir().join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => stamp.push((
                "trace_file".to_string(),
                report::json_str(&path.display().to_string()),
            )),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    let fields: Vec<String> = stamp
        .iter()
        .map(|(k, v)| format!("{}: {v}", report::json_str(k)))
        .collect();
    println!("{{\"stamp\": {{{}}}}}", fields.join(", "));
    for f in &outcome.failures {
        println!("FAILED: {f}");
    }
    println!(
        "{} (attempted {}, failed {}):",
        args.workload, outcome.attempted, outcome.failed
    );
    if args.trace {
        print!("{}", report::table(&outcome, &PER_LAYER));
        println!("{}", report::result_line(&outcome, &PER_LAYER));
    } else {
        print!("{}", report::table(&outcome, &END_TO_END));
        print!("{}", report::table(&outcome, &PARTIAL));
        println!("{}", report::result_line(&outcome, &END_TO_END));
    }
    ExitCode::SUCCESS
}

/// Run every workload in a child process of its own (so each reports its
/// own peak RSS), waiting for each before the next starts.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.map(|s| s.success()).unwrap_or(false);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
