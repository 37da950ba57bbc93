//! The tigr workspace benchmark: served queries (cold, hot, under
//! mutation) and library analytics, end to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <query-cold|query-hot|query-mutate|analytics> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` prints the end-to-end
//! metrics, `--trace 1` the per-layer ones (and writes the spans); the
//! last stdout line is the result object. Scratch files live under
//! `.perfbench_tmp/` (removed at exit); run records and spans go to
//! `.perfbench_out/`. See `perfbench/README.md` for the rationale.

mod adapter;
mod analytics;
mod host;
mod inputs;
mod probes;
mod report;
mod serving;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use tigr_server::json::{obj, Json};

use crate::report::Report;
use crate::serving::Kind;

/// Setups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Every workload, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["query-cold", "query-hot", "query-mutate", "analytics"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => {
                return Err(format!("unknown workload {value:?}; known: {WORKLOADS:?}"))
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => match value.parse() {
                Ok(s) if s > 0 => seconds = Some(s),
                _ => return Err(format!("bad --seconds {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("bad --trace {value:?} (expected 0 or 1)")),
            },
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args, tmp: &Path) -> Result<Report, String> {
    match args.workload.as_str() {
        "query-cold" => serving::run(Kind::Cold, args.seed, args.seconds, args.trace, tmp),
        "query-hot" => serving::run(Kind::Hot, args.seed, args.seconds, args.trace, tmp),
        "query-mutate" => serving::run(Kind::Mutate, args.seed, args.seconds, args.trace, tmp),
        "analytics" => analytics::run(args.seed, args.seconds, args.trace, tmp),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    if !root.join("crates").is_dir() {
        eprintln!("perfbench: run from the repository root (no crates/ here)");
        return ExitCode::from(2);
    }
    let tag = format!("{}-s{}-t{}", args.workload, args.seed, u8::from(args.trace));
    let tmp = root
        .join(".perfbench_tmp")
        .join(format!("{tag}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    let scratch = Scratch(tmp);
    let host = host::fingerprint(&root, &scratch.0);

    let mut report = match run(&args, &scratch.0) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    drop(scratch);

    let missing = report.missing(args.trace);
    if !args.trace && !missing.is_empty() {
        eprintln!("perfbench: end-to-end metrics not measured: {missing:?}");
        return ExitCode::FAILURE;
    }
    report.note(
        "not_exercised",
        Json::Arr(missing.iter().map(|m| (*m).into()).collect()),
    );
    let header = obj([
        ("workload", args.workload.as_str().into()),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("trace", args.trace.into()),
        ("host", host),
    ]);
    let out = root.join(".perfbench_out");
    let written = std::fs::create_dir_all(&out).and_then(|()| {
        std::fs::write(
            out.join(format!("{tag}.json")),
            format!("{}\n", report.record(header)),
        )?;
        match &report.tracer {
            Some(t) => t.write_jsonl(&out.join(format!("{tag}.spans.jsonl"))),
            None => Ok(()),
        }
    });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write the run record: {e}");
    }
    for c in report.checks().iter().filter(|c| !c.ok) {
        eprintln!("perfbench: check failed: {}: {}", c.name, c.detail);
    }
    println!("{}", report.result_line(args.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
