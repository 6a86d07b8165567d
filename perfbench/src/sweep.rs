//! `mach-sweep-campaign`: the registry's `wedge-mach-sweep` (Mach 3–6 at
//! QUICK density) through the crash-safe campaign executor, one
//! process-isolated worker at a time.

use crate::pace::Pace;
use crate::primitives;
use crate::report::{Checks, Measured};
use crate::seeds;
use crate::stats::{median, MIN_TIMED_STEPS};
use crate::trace::Tracer;
use crate::window;
use dsmc_engine::Engine;
use dsmc_scenarios::campaign::{
    check_sweep_goldens, maybe_worker_from_env, resolved_config, run_campaign, sweep_campaign,
    CampaignOptions, CampaignReport, CampaignSpec, RunStatus, WORKER_ENV,
};
use dsmc_scenarios::{find, protocol_total_steps, Scale};
use dsmc_state::store::CheckpointStore;
use dsmc_state::Reader;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SWEEP: &str = "wedge-mach-sweep";

/// The executor's checkpoint cadence (the warm-start cache grain).
const CHECKPOINT_EVERY: u64 = 100;

/// Section of the supervisor's checkpoint container that holds the
/// engine snapshot.
const SEC_SIM: [u8; 4] = *b"SIMS";

const SETUP_REPS: usize = 15;

/// Whole campaigns `solution_s` takes the median of, at the least: one
/// campaign is a single sample of a host whose speed drifts.
const MIN_CAMPAIGNS: usize = 2;

/// Length of the in-process step window on the resumed Mach-4 state.
const QUICK_WINDOW_S: f64 = 10.0;

/// The sweep as a campaign spec, every run on the derived seed.
pub fn spec(workload_seed: u64) -> CampaignSpec {
    let s = find(SWEEP).expect("the registry has the Mach sweep");
    let mut spec = sweep_campaign(s, Scale::Quick).expect("the Mach sweep is a sweep");
    for r in &mut spec.runs {
        r.seed = seeds::campaign_seed(workload_seed);
    }
    spec
}

/// Suffix of the file a worker leaves next to its result file: its own
/// wall seconds and the calibration factor of its run.
const PACE_SUFFIX: &str = ".pace";

/// Interval between a worker's samples of the host's speed.
const WORKER_SAMPLE_EVERY: Duration = Duration::from_millis(100);

/// When this process is a campaign worker: run the worker while a
/// thread samples the host's speed every [`WORKER_SAMPLE_EVERY`], and
/// leave the run's wall time and mean speed next to its result file.  The
/// executor only waits while a worker runs, and a run is too long to be
/// calibrated by samples taken only around it: the host's speed changes
/// from one second to the next.
pub fn worker() -> Option<i32> {
    let argv = std::env::var(WORKER_ENV).ok()?;
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut pace = Pace::new();
            let mut speeds = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                speeds.push(pace.sample());
                std::thread::sleep(WORKER_SAMPLE_EVERY);
            }
            speeds.push(pace.sample());
            speeds
        })
    };
    let t = Instant::now();
    let code = maybe_worker_from_env();
    let wall = t.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    let speeds = sampler.join().unwrap_or_default();
    let code = code?;
    let f = speeds.iter().sum::<f64>() / speeds.len().max(1) as f64;
    let args: Vec<&str> = argv.split('\t').collect();
    let out = args.windows(2).find(|w| w[0] == "--out").map(|w| w[1]);
    if let (Some(out), false) = (out, speeds.is_empty()) {
        let _ = std::fs::write(format!("{out}{PACE_SUFFIX}"), format!("{wall} {f}\n"));
    }
    Some(code)
}

/// The workers' wall seconds and calibrated seconds, summed over the
/// runs of the campaign in `dir`; `None` unless every run left them.
fn worker_pace(dir: &Path, runs: usize) -> Option<(f64, f64)> {
    let (mut wall, mut cal, mut n) = (0.0, 0.0, 0);
    for entry in std::fs::read_dir(dir.join("results")).ok()? {
        let path = entry.ok()?.path();
        if !path.to_string_lossy().ends_with(PACE_SUFFIX) {
            continue;
        }
        let text = std::fs::read_to_string(&path).ok()?;
        let mut it = text.split_whitespace().map(|v| v.parse::<f64>());
        let (Some(Ok(w)), Some(Ok(f))) = (it.next(), it.next()) else {
            return None;
        };
        wall += w;
        cal += w * f;
        n += 1;
    }
    (n == runs).then_some((wall, cal))
}

/// The campaign metrics a workload without a campaign reports: none of
/// that layer ran.
pub fn not_exercised(m: &mut Measured) {
    for name in [
        "campaign.worker_wall_s",
        "campaign.overhead_ms_per_run",
        "campaign.runs_per_attempt",
        "campaign.cache_hits",
        "campaign.checkpoint_writes",
        "campaign.journal_bytes",
    ] {
        m.put(name, 0.0, 0);
    }
}

/// The step and engine snapshot of a run's newest cached checkpoint.
fn newest_snapshot(dir: &Path) -> Result<(u64, Vec<u8>), String> {
    let store = CheckpointStore::new(dir, "run", usize::MAX).map_err(|e| e.to_string())?;
    let candidates = store.candidates().map_err(|e| e.to_string())?;
    let (step, path) = candidates
        .first()
        .ok_or("no checkpoint in the run's cache")?;
    let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    let r = Reader::new(&bytes).map_err(|e| e.to_string())?;
    let mut sec = r.section(SEC_SIM).map_err(|e| e.to_string())?;
    Ok((*step, sec.vec_u8().map_err(|e| e.to_string())?))
}

pub fn run(
    seed: u64,
    seconds: f64,
    out: &Path,
    m: &mut Measured,
    pace: &mut Pace,
    tracer: &mut Tracer,
    checks: &mut Checks,
) {
    let scenario = find(SWEEP).expect("the registry has the Mach sweep");
    let total_steps = protocol_total_steps(find("wedge-paper").expect("base"), Scale::Quick)
        .expect("a tunnel protocol");

    // Set-up: compile the sweep and build every run's initial engine.
    let mut setup = Vec::new();
    let mut spec_built = None;
    for _ in 0..SETUP_REPS {
        let (sp, _, cal) = pace.time(|| {
            let open = tracer.begin("campaign_setup");
            let sp = spec(seed);
            for r in &sp.runs {
                let (_, cfg, _, _) = resolved_config(r, Scale::Quick).expect("resolvable run");
                drop(tracer.span("Engine::new", || Engine::new(cfg, 1)));
            }
            tracer.end(open);
            sp
        });
        setup.push(cal);
        spec_built = Some(sp);
    }
    m.put("setup_s", median(&setup), setup.len());
    let spec = spec_built.expect("at least one set-up");

    // Closed loop of whole campaigns: at least [`MIN_CAMPAIGNS`], and
    // another only while it is expected to end within `seconds`.
    let mut solution: Vec<f64> = Vec::new();
    let mut reports: Vec<CampaignReport> = Vec::new();
    let start = Instant::now();
    while solution.len() < MIN_CAMPAIGNS
        || solution
            .last()
            .is_some_and(|last| start.elapsed().as_secs_f64() + last <= seconds)
    {
        let mut opts = CampaignOptions::new(opts_dir(out, reports.len()));
        opts.max_workers = 1;
        opts.checkpoint_every = CHECKPOINT_EVERY;
        pace.open();
        let t = Instant::now();
        let open = tracer.begin("run_campaign");
        let report = run_campaign(&spec, &opts);
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                tracer.end(open);
                pace.close();
                return checks.check(false, || format!("campaign could not run: {e}"));
            }
        };
        let goldens = tracer.span("check_sweep_goldens", || {
            check_sweep_goldens(scenario, Scale::Quick, &report.runs)
        });
        tracer.end(open);
        // The workers' share calibrated by their own probes, the
        // executor's by the probes around the campaign.
        let raw = t.elapsed().as_secs_f64();
        let f = pace.close();
        match worker_pace(&opts.dir, report.runs.len()) {
            Some((wall, cal)) => solution.push((raw - wall).max(0.0) * f + cal),
            None => {
                checks.check(false, || "a worker left no calibration".into());
                solution.push(raw * f);
            }
        }
        // Each worker's own wall time, as children of the executor span:
        // its self time is then the executor's overhead.
        let walls: Vec<_> = report
            .runs
            .iter()
            .map(|r| ("bucket:worker_run", Duration::from_secs_f64(r.wall_seconds)))
            .collect();
        tracer.buckets("run_campaign", &walls);
        for r in &report.runs {
            checks.check(r.status == RunStatus::Completed && r.passed, || {
                format!(
                    "run {} ended {} ({})",
                    r.spec.label,
                    r.status.label(),
                    r.last_error
                )
            });
        }
        checks.check(report.exit_code() == 0, || {
            format!("campaign exit code {}", report.exit_code())
        });
        for g in &goldens {
            checks.check(g.ok, || {
                format!(
                    "sweep golden {} = {} (golden {} ± {})",
                    g.metric, g.measured, g.golden, g.tol
                )
            });
        }
        reports.push(report);
    }
    m.put("solution_s", median(&solution), solution.len());
    let report = &reports[0];
    let runs = report.runs.len() as f64;
    let worker_wall: f64 = report.runs.iter().map(|r| r.wall_seconds).sum();
    let overhead_ms = (report.wall_seconds - worker_wall) * 1e3 / runs;
    m.put(
        "campaign_overhead_ms_per_run",
        overhead_ms,
        report.runs.len(),
    );

    // Every run's newest cached checkpoint resumes to the final state the
    // worker reported; the Mach-4 run's is then saved and resumed again
    // as the workload's checkpoint measurement.
    let mut mach4 = None;
    for r in &report.runs {
        let (_, cfg, _, _) = resolved_config(&r.spec, Scale::Quick).expect("resolvable run");
        let dir = opts_dir(out, 0)
            .join("cache")
            .join(format!("fp{:016x}", cfg.fingerprint()));
        let resumed = newest_snapshot(&dir).and_then(|(step, bytes)| {
            let mut e = Engine::resume(cfg.clone(), &bytes, 1).map_err(|e| e.to_string())?;
            // The worker hashed its final state after closing the run's
            // sampling windows; the checkpoint holds them open.
            if e.field_sampler().is_none() {
                return Err(format!(
                    "checkpoint at step {step} has no open sampling window"
                ));
            }
            e.finish_sampling();
            e.finish_surface_sampling();
            Ok((step, e.state_hash(), e))
        });
        match resumed {
            Ok((step, h, e)) => {
                checks.check(step == total_steps && Some(h) == r.state_hash, || {
                    format!(
                        "run {}: checkpoint at step {step} hashes {h:#x}, worker reported {:?}",
                        r.spec.label, r.state_hash
                    )
                });
                if r.spec.label.contains("mach4.") {
                    mach4 = Some((cfg, e));
                }
            }
            Err(e) => checks.check(false, || format!("run {}: {e}", r.spec.label)),
        }
    }
    let Some((cfg, mut e)) = mach4 else {
        return checks.check(false, || "no Mach-4 run to resume".into());
    };
    // The per-step cost of the work every worker does: the resumed
    // Mach-4 state stepped in-process with a sampling window open, then
    // one more save and its resume.
    let n0 = e.n_particles();
    let mut c = window::Checkpoint::new(&cfg, out.join("quick.ckpt"));
    e.begin_sampling();
    let w = window::timed(
        &mut e,
        n0,
        QUICK_WINDOW_S,
        MIN_TIMED_STEPS.max(300),
        false,
        &mut c,
        pace,
        tracer,
        checks,
    );
    w.end_to_end(m, checks);
    w.write_steps(&out.join("step_ms.txt"));
    c.cycle(&mut e, pace, tracer, checks);
    c.end_to_end(m);
    c.write_cycles(&out.join("checkpoint_ms.txt"));
    if tracer.enabled() {
        c.layers(m);
    }
    window::check_resume_identity(&mut e, &mut c, 10, checks);
    drop(c);
    let t = Instant::now();
    let field = tracer.span("Engine::finish_sampling", || e.finish_sampling());
    let finish_ms = t.elapsed().as_secs_f64() * 1e3;
    checks.check(
        field.density.iter().all(|d| d.is_finite() && *d >= 0.0),
        || "sampled density has a negative or non-finite cell".into(),
    );

    if tracer.enabled() {
        w.layers(m);
        m.put("sample.finish_ms", finish_ms, 1);
        m.put("shard.population_imbalance", 1.0, 1);
        m.put("shard.exec_workers", 1.0, 1);
        m.put("shard.efficiency", 1.0, 1);
        m.put("campaign.worker_wall_s", worker_wall, report.runs.len());
        m.put(
            "campaign.overhead_ms_per_run",
            overhead_ms,
            report.runs.len(),
        );
        let attempts: u32 = report.runs.iter().map(|r| r.attempts).sum();
        m.put(
            "campaign.runs_per_attempt",
            runs / attempts.max(1) as f64,
            1,
        );
        m.put("campaign.cache_hits", report.cache_hits() as f64, 1);
        m.put(
            "campaign.checkpoint_writes",
            runs * (total_steps / CHECKPOINT_EVERY) as f64,
            1,
        );
        let journal = std::fs::metadata(opts_dir(out, 0).join("campaign.journal"));
        m.put(
            "campaign.journal_bytes",
            journal.map_or(0, |j| j.len()) as f64,
            1,
        );
        let Engine::Single(sim) = &mut e else {
            unreachable!("campaign runs are single-domain")
        };
        let keys = primitives::capture(sim, seed);
        primitives::measure(&keys, m, tracer, checks);
        primitives::serial_baseline(&cfg, 20, 100, m, tracer);
    }
}

fn opts_dir(out: &Path, i: usize) -> std::path::PathBuf {
    out.join(format!("campaign{i}"))
}
