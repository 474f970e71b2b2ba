//! `asdr_perfbench` — the repository benchmark: seeded `frame`, `serve` and
//! `fleet` workloads driven through the public APIs of the render engine,
//! the render service and a real `asdr-shardd` fleet.
//!
//! ```text
//! asdr_perfbench --workload frame|serve|fleet --seed N --seconds S --trace 0|1
//!                --shardd PATH [--work-dir DIR]
//! ```
//!
//! An untraced run prints the end-to-end metrics; a traced run (`--trace 1`)
//! also runs a traced pass and prints the per-layer metrics. Every output
//! is checked; the last stdout line is the JSON result, and the exit code
//! is non-zero when any check fails. `perfbench/run.py` builds this binary
//! and the daemon and is the command to run.

mod adapter {
    pub mod engine;
    pub mod fleet;
    pub mod service;
}
mod report;
mod sched;
mod spec;
mod stats;
mod sys;
mod trace;
mod workload;

use crate::trace::Tracer;
use crate::workload::RunArgs;
use std::path::PathBuf;
use std::process::exit;

const USAGE: &str = "usage: asdr_perfbench --workload frame|serve|fleet --seed N --seconds S \
                     --trace 0|1 --shardd PATH [--work-dir DIR]";

fn parse_args(argv: &[String]) -> Result<(String, RunArgs), String> {
    let mut workload = None;
    let mut args = RunArgs {
        seed: 0,
        seconds: 0.0,
        trace: false,
        shardd: PathBuf::new(),
        work_dir: PathBuf::from(".bench_run"),
    };
    let mut seen_seed = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => match value.as_str() {
                "frame" | "serve" | "fleet" => workload = Some(value.clone()),
                other => return Err(format!("unknown workload {other:?}")),
            },
            "--seed" => {
                args.seed =
                    value.parse().map_err(|_| format!("--seed needs an integer, got {value:?}"))?;
                seen_seed = true;
            }
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| {
                        format!("--seconds needs a number in (0, 3600], got {value:?}")
                    })?;
            }
            "--trace" => match value.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                other => return Err(format!("--trace needs 0 or 1, got {other:?}")),
            },
            "--shardd" => args.shardd = PathBuf::from(value),
            "--work-dir" => args.work_dir = PathBuf::from(value),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !seen_seed || args.seconds == 0.0 {
        return Err("--seed and --seconds are required".into());
    }
    if workload == "fleet" && !args.shardd.is_file() {
        return Err(format!("--shardd {:?} is not an executable file", args.shardd));
    }
    Ok((workload, args))
}

/// Writes the traced pass's spans and prints each span name's self time.
pub fn print_span_totals(tracer: &Tracer, args: &RunArgs, workload: &str) {
    let path = args.work_dir.join(format!("spans-{workload}-seed{}.jsonl", args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!("benchmark spans written to {}", path.display()),
        Err(e) => println!("benchmark spans not written ({}): {e}", path.display()),
    }
    println!("benchmark spans (self time = span minus its children):");
    for (name, t) in tracer.totals() {
        println!(
            "  {name:<22} n={:<6} mean {:>10.3} ms  self mean {:>10.3} ms",
            t.count,
            t.total_ns as f64 / 1e6 / t.count.max(1) as f64,
            t.self_ns as f64 / 1e6 / t.count.max(1) as f64
        );
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (name, args) = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("asdr_perfbench: {e}\n{USAGE}");
        exit(2);
    });
    // a leftover store directory or worker override would make the run
    // neither cold nor comparable
    for var in adapter::fleet::SCRUBBED_ENV {
        if std::env::var_os(var).is_some() {
            eprintln!("asdr_perfbench: refusing to run with {var} set; unset it first");
            exit(2);
        }
    }
    let outcome = match name.as_str() {
        "frame" => workload::frame::run(&args),
        "serve" => workload::serve::run(&args),
        _ => workload::fleet::run(&args),
    };
    let mut res = outcome.unwrap_or_else(|e| {
        eprintln!("asdr_perfbench: {name}: {e}");
        exit(1);
    });
    res.e2e.print(&format!("end-to-end metrics ({name}, untraced pass):"));
    let (metrics, stray) = if args.trace {
        let (m, stray) = spec::complete(&res.layers, &spec::PER_LAYER, &name);
        println!(
            "per-layer metrics ({name}, traced pass) and the end-to-end metric each should move:"
        );
        for x in &m.0 {
            println!(
                "  {:<28} {:>14.4} {:<6} {:<40} moves: {}",
                x.name,
                x.value,
                x.unit,
                x.note,
                spec::prediction(x.name)
            );
        }
        (m, stray)
    } else {
        let (m, stray) = spec::complete(&res.e2e, &spec::END_TO_END, &name);
        for x in &m.0 {
            res.checks
                .check(x.value > 0.0, || format!("end-to-end metric {} is not positive", x.name));
        }
        (m, stray)
    };
    res.checks.check(stray.is_empty(), || format!("metrics missing from the catalogue: {stray:?}"));
    for x in &metrics.0 {
        res.checks.check(x.value.is_finite(), || format!("metric {} is not finite", x.name));
    }
    res.checks.print();
    println!("{}", report::result_line(res.checks.ok(), res.attempted, res.failed, &metrics));
    exit(if res.checks.ok() { 0 } else { 1 });
}
