//! `owql_bench`: the repository's end-to-end benchmark with a layer
//! table. Five workloads at 10^5 triples, from `POST /v1/query` down
//! to the write-ahead log; see `README.md` beside this package.
//!
//! ```text
//! owql_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! owql_bench run [--seed <n>] [--quick] [--trace] [--trace-out <file>]
//! owql_bench compare A.json B.json
//! ```
//!
//! The first form is what `BENCHMARK.json` runs: one workload, one
//! JSON line. `run` goes over all five, each in a process of its own,
//! and prints one document; `compare` checks two such documents
//! against the bounds.

mod analytic;
mod churn_rw;
mod client;
mod compare;
mod data;
mod ingest_recover;
mod layers;
mod log_mix;
mod queries;
mod report;
mod rng;
mod spans;
mod stats;
mod workload;

use analytic::Suite;
use report::{Fingerprint, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Ctx, Report};

/// Measured length of one workload; `BENCHMARK.json` passes the same.
const RUN_SECONDS: f64 = 15.0;
/// `--quick`: a smoke run whose output can never be compared.
const QUICK_SECONDS: f64 = 2.0;

const USAGE: &str = "usage:
  owql_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  owql_bench run [--seed <n>] [--quick] [--trace] [--trace-out <file>]
  owql_bench compare A.json B.json
workloads: log_mix analytic_opt analytic_ns churn_rw ingest_recover";

fn run_workload(name: &str, ctx: &Ctx) -> Option<Report> {
    let mut report = match name {
        "log_mix" => log_mix::run(ctx),
        "analytic_opt" => analytic::run(ctx, Suite::Opt),
        "analytic_ns" => analytic::run(ctx, Suite::Ns),
        "churn_rw" => churn_rw::run(ctx),
        "ingest_recover" => ingest_recover::run(ctx),
        _ => return None,
    };
    pin_inputs(ctx.seed, &mut report);
    for failure in &report.tally.examples {
        eprintln!("{name}: FAILED: {failure}");
    }
    Some(report)
}

/// Seed 1 must generate the inputs it generated when the benchmark was
/// defined; anything else is a changed workload, not a changed program.
fn pin_inputs(seed: u64, report: &mut Report) {
    if seed != 1 {
        return;
    }
    let (triples, hash, mix) = data::SEED_1_DIGESTS;
    let d = &report.dataset;
    report
        .tally
        .check((d.triples, d.hash) == (triples, hash), || {
            format!(
            "seed 1 generated {} triples with hash {:016x}; the benchmark was defined on {triples} \
             with {hash:016x}",
            d.triples, d.hash
        )
        });
    if let Some((got, _, _)) = report.mix {
        report.tally.check(got == mix, || {
            format!(
                "seed 1 generated query mix {got:016x}; the benchmark was defined on {mix:016x}"
            )
        });
    }
}

/// Durable workloads write under the build directory, which the
/// repository's `.gitignore` covers.
fn data_root() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("owql_bench_data")
}

/// `--name value` pairs and bare `--flag`s after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| format!("{name}: cannot read '{v}'")))
            .transpose()
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

/// One workload, or with `--trace 1` the layer table. This is what
/// `BENCHMARK.json`'s command runs: the last line of standard output is
/// the driver's JSON line. With `--report` (how `run` calls it) the
/// output is the full report instead, and failures set the exit code.
fn driver(args: &Args) -> Result<ExitCode, String> {
    let workload = args.value("--workload").ok_or(USAGE)?;
    if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        return Err(format!("unknown workload '{workload}'\n{USAGE}"));
    }
    let ctx = Ctx {
        seed: args.parsed("--seed")?.ok_or(USAGE)?,
        seconds: args.parsed("--seconds")?.ok_or(USAGE)?,
        data_root: data_root(),
    };
    let trace: u8 = args.parsed("--trace")?.ok_or(USAGE)?;
    let full = args.flag("--report");
    let (failed, out) = if trace == 1 {
        // The traced pass replays fixed samples; `--seconds` does not
        // stretch them.
        let table = layers::run(&ctx);
        for failure in &table.tally.examples {
            eprintln!("traced pass: FAILED: {failure}");
        }
        for m in table.metrics.iter().filter(|m| m.value.is_none()) {
            eprintln!(
                "{}: not measured: {}",
                m.name,
                m.note.as_deref().unwrap_or("")
            );
        }
        if let Some(path) = args.value("--trace-out") {
            table
                .tracer
                .write_json(path.as_ref())
                .map_err(|e| format!("{path}: {e}"))?;
        }
        let line = if full {
            report::metrics_json(&table.metrics, "  ")
        } else {
            report::driver_line(table.tally.attempted, table.tally.failed, &table.metrics)
        };
        (table.tally.failed, line)
    } else {
        let report = run_workload(workload, &ctx).expect("name checked above");
        let line = if full {
            report::report_json(&report)
        } else {
            let gated = report::gated(&report).map_err(|e| format!("run too short: {e}"))?;
            report::driver_line(report.tally.attempted, report.tally.failed, &gated)
        };
        (report.tally.failed, line)
    };
    println!("{out}");
    Ok(if full && failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// All five workloads, one document. Each workload runs in a process
/// of its own, so that peak memory and memory per triple are the
/// workload's and not what an earlier one left behind. Exits non-zero
/// when anything failed.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let quick = args.flag("--quick");
    let seconds = if quick { QUICK_SECONDS } else { RUN_SECONDS };
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut failed = false;
    let mut child = |workload: &str, trace: &str, extra: &[&str]| -> Result<String, String> {
        let out = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                trace,
                "--report",
            ])
            .args(extra)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{workload}: {e}"))?;
        match out.status.code() {
            Some(0) => {}
            Some(1) => failed = true,
            _ => return Err(format!("{workload}: {}", out.status)),
        }
        String::from_utf8(out.stdout).map_err(|e| format!("{workload}: {e}"))
    };
    let mut reports = Vec::new();
    for (name, why) in WORKLOADS {
        eprintln!("{name}: {why}");
        reports.push(child(name, "0", &[])?);
    }
    let trace_out = args.value("--trace-out");
    let layers = if args.flag("--trace") || trace_out.is_some() {
        eprintln!("traced pass: fixed samples of every workload, stage by stage");
        let extra: Vec<&str> = trace_out
            .iter()
            .flat_map(|path| ["--trace-out", path])
            .collect();
        Some(child(WORKLOADS[0].0, "1", &extra)?)
    } else {
        None
    };
    print!(
        "{}",
        report::run_json(
            seed,
            seconds,
            quick,
            &Fingerprint::take(),
            &reports,
            layers.as_deref()
        )
    );
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn compare_files(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = &args.0[..] else {
        return Err(USAGE.to_owned());
    };
    let read = |path: &String| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let (table, regressed) = compare::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&Args(args.split_off(1))),
        Some("compare") => compare_files(&Args(args.split_off(1))),
        Some(_) => driver(&Args(args)),
        None => Err(USAGE.to_owned()),
    };
    result.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}
