//! `massf-perfbench`: the repository's benchmark. It runs the paper's
//! pipeline — scenario build, profiling run, HPROF 2-way mapping, a
//! sequential leg, a 2-partition leg on the real executor, and the
//! cluster-model evaluation — through public APIs only, and reports
//! end-to-end timings (`--trace 0`) or per-layer metrics (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sa_packet --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. The
//! line before it is the run record (host, seed, fingerprint, sample
//! spreads), which is also appended to `perfbench/out/runs.jsonl`.

mod check;
mod pipeline;
mod record;
mod run;
mod trace;
mod workload;

use record::{host_block, JsonObject};
use std::io::Write;
use std::path::Path;
use std::time::Duration;
use workload::Workload;

/// Where run records and barrier traces go, relative to the checkout.
const OUT_DIR: &str = "perfbench/out";

const USAGE: &str =
    "usage: massf-perfbench --workload <sa_packet|sa_medium_cold|mixed_fluid_flap> \
--seed <u64> --seconds <1..=3600> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|_| bad())?;
                if !(1..=3600).contains(&s) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out_dir = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("error: cannot create {OUT_DIR}: {e}");
        std::process::exit(1);
    }
    // Host parallelism stays at two threads: set-up pins its parallel
    // sections to `SETUP_THREADS`, everything else (the sequential leg,
    // and reconvergence inside each partition thread) runs on one.
    massf_parutil::set_threads(1);

    let budget = Duration::from_secs(args.seconds);
    let mut steal = record::StealClock::start();
    let mut report = if args.trace {
        run::traced(args.workload, args.seed, budget, out_dir)
    } else {
        run::timed(args.workload, args.seed, budget)
    };

    let mut metrics = JsonObject::default();
    for m in &report.metrics {
        if !m.value.is_finite() {
            report
                .ops
                .record(m.name, Err(format!("{} is not a finite number", m.value)));
        }
        let mut v = JsonObject::default();
        v.num("value", m.value).str("unit", m.unit);
        metrics.obj(m.name, &v);
    }
    for reason in &report.ops.reasons {
        eprintln!("check failed: {reason}");
    }

    let mut rec = JsonObject::default();
    rec.str("workload", args.workload.name())
        .int("seed", args.seed)
        .int("seconds", args.seconds)
        .bool("trace", args.trace)
        .num("steal_frac", steal.lap())
        .obj("host", &host_block())
        .obj("fingerprint", &report.fingerprint)
        .obj("samples", &report.samples);
    let mut record_line = JsonObject::default();
    record_line.obj("record", &rec);
    let record_line = record_line.render();
    let log = out_dir.join("runs.jsonl");
    if let Err(e) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&log)
        .and_then(|mut f| writeln!(f, "{record_line}"))
    {
        eprintln!("warning: cannot append to {}: {e}", log.display());
    }

    let mut result = JsonObject::default();
    result
        .bool("correct", report.ops.failed == 0)
        .int("attempted", report.ops.attempted)
        .int("failed", report.ops.failed)
        .obj("metrics", &metrics);
    println!("{record_line}");
    println!("{}", result.render());
}
