//! The metric catalogue (mirrored by `BENCHMARK.json`), correctness
//! bookkeeping, and the result printer.

use std::collections::BTreeMap;

/// An end-to-end metric: what a user of the engine sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A per-layer metric with the end-to-end metric it should move.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

/// The workloads, with why each was chosen.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "wedge-steady",
        "paper's Mach-4 wedge and grid at QUICK density on one shard: the headline case; \
         move, sort, select, collide, sample and snapshot; no shard barriers",
    ),
    (
        "wedge-sharded",
        "same wedge on 2 threaded shards with a diagnostics observer: the only workload \
         that runs census merge, refill, repartition, exchange, the canonical merge and the \
         per-phase fork-join",
    ),
    (
        "mach-sweep-campaign",
        "registry wedge-mach-sweep (Mach 3-6, QUICK density) through process-isolated \
         workers: campaign executor, journal and many small fsynced checkpoint writes",
    ),
];

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "particle_steps_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "step_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "checkpoint_save_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "checkpoint_resume_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "solution_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.2,
    },
];

/// Printed with the end-to-end metrics but not gated: the per-step tails
/// spread too widely between runs on a shared host, p99 exists only
/// where a window holds enough steps, the executor's overhead exists
/// only on the campaign, the uncalibrated median step is what the
/// calibration started from, and the host's speed (the median of the
/// run's probe factors) is a host condition.
pub const INFO: &[(&str, &str)] = &[
    ("step_ms_p95", "ms"),
    ("step_ms_p99", "ms"),
    ("campaign_overhead_ms_per_run", "ms"),
    ("step_ms_p50_wall", "ms"),
    ("host_speed", "ratio"),
];

const STEADY_P50: &str = "step_ms_p50 on wedge-steady";

pub const PER_LAYER: &[PerLayer] = &[
    PerLayer {
        name: "move.ms_per_step",
        unit: "ms",
        better: "lower",
        moves: STEADY_P50,
    },
    PerLayer {
        name: "move.mover_frac",
        unit: "ratio",
        better: "lower",
        moves: STEADY_P50,
    },
    PerLayer {
        name: "sort.ms_per_step",
        unit: "ms",
        better: "lower",
        moves: STEADY_P50,
    },
    PerLayer {
        name: "sort.incremental_share",
        unit: "ratio",
        better: "higher",
        moves: STEADY_P50,
    },
    PerLayer {
        name: "sort.full_path_step_ms",
        unit: "ms",
        better: "lower",
        moves: "step_ms_p95 on wedge-steady",
    },
    PerLayer {
        name: "datapar.radix_ns_per_key",
        unit: "ns",
        better: "lower",
        moves: "sort.ms_per_step, then particle_steps_per_s on wedge-steady",
    },
    PerLayer {
        name: "datapar.incremental_rank_ns_per_key",
        unit: "ns",
        better: "lower",
        moves: "sort.ms_per_step, then particle_steps_per_s on wedge-steady",
    },
    PerLayer {
        name: "datapar.radix_bytes_per_key_computed",
        unit: "B",
        better: "lower",
        moves: "sort.ms_per_step, then particle_steps_per_s on wedge-steady",
    },
    PerLayer {
        name: "select.ms_per_step",
        unit: "ms",
        better: "lower",
        moves: STEADY_P50,
    },
    PerLayer {
        name: "collide.ms_per_step",
        unit: "ms",
        better: "lower",
        moves: STEADY_P50,
    },
    PerLayer {
        name: "collide.candidates_per_step",
        unit: "count",
        better: "lower",
        moves: STEADY_P50,
    },
    PerLayer {
        name: "collide.yield",
        unit: "ratio",
        better: "higher",
        moves: STEADY_P50,
    },
    PerLayer {
        name: "sample.ms_per_step",
        unit: "ms",
        better: "lower",
        moves: "step_ms_p50 on wedge-steady; solution_s on mach-sweep-campaign",
    },
    PerLayer {
        name: "sample.finish_ms",
        unit: "ms",
        better: "lower",
        moves: "solution_s on mach-sweep-campaign",
    },
    PerLayer {
        name: "shard.sort_exchange_ms_per_step",
        unit: "ms",
        better: "lower",
        moves: "particle_steps_per_s and step_ms_p95 on wedge-sharded; none on wedge-steady",
    },
    PerLayer {
        name: "shard.observe_ms",
        unit: "ms",
        better: "lower",
        moves: "step_ms_p95 on wedge-sharded; none on wedge-steady",
    },
    PerLayer {
        name: "shard.population_imbalance",
        unit: "ratio",
        better: "lower",
        moves: "particle_steps_per_s on wedge-sharded; none on wedge-steady",
    },
    PerLayer {
        name: "shard.repartitions",
        unit: "count",
        better: "lower",
        moves: "step_ms_p95 on wedge-sharded; none on wedge-steady",
    },
    PerLayer {
        name: "shard.exec_workers",
        unit: "count",
        better: "higher",
        moves: "particle_steps_per_s on wedge-sharded; none on wedge-steady",
    },
    PerLayer {
        name: "shard.efficiency",
        unit: "ratio",
        better: "higher",
        moves: "particle_steps_per_s on wedge-sharded; none on wedge-steady",
    },
    PerLayer {
        name: "snapshot.bytes",
        unit: "B",
        better: "lower",
        moves: "checkpoint_save_ms and checkpoint_resume_ms on both wedges",
    },
    PerLayer {
        name: "snapshot.save_ms",
        unit: "ms",
        better: "lower",
        moves: "checkpoint_save_ms on both wedges; solution_s on mach-sweep-campaign",
    },
    PerLayer {
        name: "snapshot.resume_ms",
        unit: "ms",
        better: "lower",
        moves: "checkpoint_resume_ms on both wedges",
    },
    PerLayer {
        name: "snapshot.state_hash_ms",
        unit: "ms",
        better: "lower",
        moves: "checkpoint_resume_ms on both wedges",
    },
    PerLayer {
        name: "snapshot.save_mb_per_s",
        unit: "MB/s",
        better: "higher",
        moves: "checkpoint_save_ms on both wedges",
    },
    PerLayer {
        name: "campaign.worker_wall_s",
        unit: "s",
        better: "lower",
        moves: "solution_s on mach-sweep-campaign",
    },
    PerLayer {
        name: "campaign.overhead_ms_per_run",
        unit: "ms",
        better: "lower",
        moves: "solution_s on mach-sweep-campaign",
    },
    PerLayer {
        name: "campaign.runs_per_attempt",
        unit: "ratio",
        better: "higher",
        moves: "solution_s on mach-sweep-campaign",
    },
    PerLayer {
        name: "campaign.cache_hits",
        unit: "count",
        better: "higher",
        moves: "solution_s on mach-sweep-campaign",
    },
    PerLayer {
        name: "campaign.checkpoint_writes",
        unit: "count",
        better: "lower",
        moves: "solution_s on mach-sweep-campaign",
    },
    PerLayer {
        name: "campaign.journal_bytes",
        unit: "B",
        better: "lower",
        moves: "campaign.overhead_ms_per_run, then solution_s on mach-sweep-campaign",
    },
    PerLayer {
        name: "baseline.serial_particle_steps_per_s",
        unit: "1/s",
        better: "higher",
        moves: "none: the single-threaded reference",
    },
    PerLayer {
        name: "trace.overhead_ms_per_step",
        unit: "ms",
        better: "lower",
        moves: "none: traced minus untraced step_ms_p50 in the same run",
    },
];

/// Correctness checks; every check counts as one attempted operation.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
    }
}

/// One measured value with the number of samples behind it.
#[derive(Clone, Copy, Debug)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

/// Everything a workload measured, keyed by metric name.
#[derive(Default)]
pub struct Measured {
    pub values: BTreeMap<&'static str, Value>,
}

impl Measured {
    pub fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        let known = END_TO_END.iter().any(|m| m.name == name)
            || PER_LAYER.iter().any(|m| m.name == name)
            || INFO.iter().any(|(n, _)| *n == name);
        assert!(known, "metric `{name}` is not in the catalogue");
        self.values.insert(name, Value { value, samples });
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// The catalogue entries a run reports: the end-to-end set untraced,
/// the per-layer set traced, each with its unit and a note.
fn reported(trace: bool) -> Vec<(&'static str, &'static str, String)> {
    if trace {
        PER_LAYER
            .iter()
            .map(|m| {
                let note = format!("{} is better; should move: {}", m.better, m.moves);
                (m.name, m.unit, note)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let note = format!("{} is better; bound {}", m.better, m.bound);
                (m.name, m.unit, note)
            })
            .collect()
    }
}

/// Check that the workload measured every metric it must report.
pub fn verify(trace: bool, measured: &Measured, checks: &mut Checks) {
    for (name, ..) in reported(trace) {
        let v = measured.values.get(name);
        checks.check(v.is_some_and(|v| v.value.is_finite()), || {
            format!("metric `{name}` was not measured")
        });
    }
}

/// Print the human-readable table and, last, the one-line result.
pub fn emit(trace: bool, measured: &Measured, checks: &Checks) {
    let mut fields = Vec::new();
    for (name, unit, note) in reported(trace) {
        let v = measured.values.get(name).copied().unwrap_or(Value {
            value: f64::NAN,
            samples: 0,
        });
        println!(
            "  {name:<40} {:>16.6} {unit:<6} n={:<6} {note}",
            v.value, v.samples
        );
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(v.value)
        ));
    }
    if !trace {
        for (name, unit) in INFO {
            match measured.values.get(name) {
                Some(v) => println!(
                    "  {name:<40} {:>16.6} {unit:<6} n={:<6} not gated",
                    v.value, v.samples
                ),
                None => println!(
                    "  {name:<40} {:>16} {unit:<6} not measured in this run",
                    "-"
                ),
            }
        }
    }
    let failed = checks.failures.len() as u64;
    println!(
        "  {:<40} {:>16.6} {:<6} n={:<6} failed / attempted = {failed} / {}; not gated",
        "failed_frac",
        failed as f64 / checks.attempted.max(1) as f64,
        "ratio",
        checks.attempted,
        checks.attempted,
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        checks.attempted.max(1),
        fields.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_are_valid_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "bad name `{n}`");
        }
        let units = END_TO_END.iter().map(|m| m.unit);
        for u in units.chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(valid_unit(u), "bad unit `{u}`");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "names must be unique");
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(matches!(m.better, "higher" | "lower"));
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (name, why) in WORKLOADS {
            let line = format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}");
            assert!(text.contains(&line), "BENCHMARK.json lacks {line}");
        }
        for m in END_TO_END {
            let line = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            );
            assert!(text.contains(&line), "BENCHMARK.json lacks {line}");
        }
        for m in PER_LAYER {
            let line = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            );
            assert!(text.contains(&line), "BENCHMARK.json lacks {line}");
        }
        let total = WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len();
        assert_eq!(text.matches("\"name\":").count(), total);
    }
}
