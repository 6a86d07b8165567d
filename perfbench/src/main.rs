//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <wedge-steady|wedge-sharded|mach-sweep-campaign> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root.  Each workload is a closed loop (one
//! simulation; each step or campaign run starts when the previous one
//! ends), measures from outside by timing calls into the crates' public
//! functions, checks its outputs, and prints as its last line one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics untraced, the per-layer metrics with `--trace 1`.
//! The lines before it are a human-readable table (value, unit, sample
//! count, bound or predicted end-to-end effect) and a `record:` line
//! with the host identity.  Scratch files go under `.bench_out/`.
//! See `perfbench/README.md` for the metric definitions.

mod host;
mod pace;
mod primitives;
mod report;
mod seeds;
mod stats;
mod sweep;
mod trace;
mod wedge;
mod window;

use report::{Checks, Measured};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    /// One of [`report::WORKLOADS`].
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let known = report::WORKLOADS.iter().find(|(w, _)| w == value);
                workload = Some(
                    known
                        .ok_or_else(|| format!("unknown workload `{value}`"))?
                        .0,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    // The campaign executor re-enters this executable as its worker.
    if let Some(code) = sweep::worker() {
        return ExitCode::from(code.clamp(0, 255) as u8);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload;
    let out = PathBuf::from(".bench_out").join(format!(
        "{name}-seed{}-trace{}",
        args.seed, args.trace as u8
    ));
    let _ = std::fs::remove_dir_all(&out);
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        return ExitCode::from(2);
    }

    let mut m = Measured::default();
    let mut checks = Checks::default();
    let mut tracer = trace::Tracer::new(args.trace);
    let mut pace = pace::Pace::new();
    let (seed, secs) = (args.seed, args.seconds);
    // Only the campaign has child processes: its workers.
    let children = (name == "mach-sweep-campaign").then(host::ChildPeak::start);
    let workers = match name {
        "wedge-steady" | "wedge-sharded" => {
            let shards = if name == "wedge-steady" { 1 } else { 2 };
            let (m, p, t, c) = (&mut m, &mut pace, &mut tracer, &mut checks);
            wedge::run(shards, seed, secs, &out, m, p, t, c)
        }
        _ => {
            sweep::run(
                seed,
                secs,
                &out,
                &mut m,
                &mut pace,
                &mut tracer,
                &mut checks,
            );
            1
        }
    };
    m.put("host_speed", pace.speed(), pace.probes());
    let child_peak_mb = children.map_or(0.0, host::ChildPeak::finish);
    m.put("peak_rss_mb", host::peak_rss_mb().max(child_peak_mb), 1);

    if tracer.enabled() {
        let path = out.join("trace.jsonl");
        let written = tracer.write(&path);
        checks.check(written.is_ok(), || {
            format!("cannot write the trace: {written:?}")
        });
        println!("spans (count, total ms, self ms) -> {}", path.display());
        for (span, (n, total, own)) in tracer.summary() {
            println!("  {span:<52} {n:>6} {total:>12.3} {own:>12.3}");
        }
    }

    report::verify(args.trace, &m, &mut checks);
    let mut record = host::identity(
        seed,
        seeds::sim_seed(seed),
        seeds::campaign_seed(seed).unwrap_or(0),
        workers,
    );
    record.int("reference_seed", seeds::REFERENCE_SEED as i64);
    record.int("held_out_seed", seeds::HELD_OUT_SEED as i64);
    record.str("workload", name);
    record.bool("trace", args.trace);
    record.num("seconds", secs);
    record.int("checks_attempted", checks.attempted as i64);
    record.int("checks_failed", checks.failures.len() as i64);
    let mut values = dsmc_bench::json::Object::new();
    for (k, v) in &m.values {
        let mut o = dsmc_bench::json::Object::new();
        o.num("value", v.value);
        o.int("samples", v.samples as i64);
        values.obj(k, o);
    }
    record.obj("measured", values);
    let pretty = record.pretty();
    let _ = std::fs::write(out.join("record.json"), &pretty);
    println!(
        "record: {}",
        pretty.lines().map(str::trim).collect::<Vec<_>>().join(" ")
    );
    println!(
        "{name} seed {seed}, {secs} s{}:",
        if args.trace { ", traced" } else { "" }
    );
    report::emit(args.trace, &m, &checks);
    ExitCode::SUCCESS
}
