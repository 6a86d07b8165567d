//! Engine-facing measurement shared by every workload: the timed step
//! window, the checkpoint save/resume cycle, and the per-layer numbers
//! derived from them.

use crate::pace::Pace;
use crate::report::{Checks, Measured};
use crate::stats::{self, median};
use crate::trace::Tracer;
use dsmc_engine::{Diagnostics, Engine, SimConfig, StepTimings};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Observer cadence of the sharded workload: the supervisor's default
/// sentinel cadence.
pub const OBSERVE_EVERY: u64 = 25;

/// Steps per traced (and per untraced) block of a traced window.
const TRACE_BLOCK: usize = 5;

/// Checkpoint cycles spread evenly over a timed window: spread out, they
/// sample the same host conditions as the steps.
const CKPT_CYCLES: usize = 40;

/// Steps between two probes of the host's speed ([`Pace`]).
pub const PROBE_EVERY: usize = 10;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Call `diagnostics()` and check the particle-count ledger: every
/// particle is in the flow or the reservoir, none created or lost.
pub fn observe(
    e: &mut Engine,
    n0: usize,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> (Diagnostics, f64) {
    let t = Instant::now();
    let d = tracer.span("Engine::diagnostics", || e.diagnostics());
    let dt = ms(t.elapsed());
    checks.check(
        d.n_flow + d.n_reservoir == n0 && e.n_particles() == n0,
        || {
            format!(
                "ledger at step {}: {} flow + {} reservoir, {} stored, expected {n0}",
                d.steps,
                d.n_flow,
                d.n_reservoir,
                e.n_particles()
            )
        },
    );
    if let Engine::Sharded(s) = e {
        let total: usize = s.shard_populations().iter().sum();
        checks.check(total == n0, || {
            format!("shard populations sum to {total}, expected {n0}")
        });
    }
    (d, dt)
}

/// Run `n` steps from step `from` (observing every [`OBSERVE_EVERY`]
/// when `observer`).
#[allow(clippy::too_many_arguments)]
pub fn advance(
    e: &mut Engine,
    from: u64,
    n: u64,
    observer: bool,
    n0: usize,
    tracer: &mut Tracer,
    checks: &mut Checks,
) {
    for step in from + 1..=from + n {
        e.step();
        if observer && step.is_multiple_of(OBSERVE_EVERY) {
            observe(e, n0, tracer, checks);
        }
    }
}

/// CPUs each phase of a step of `e` joins: its resolved shard workers.
/// The probe samples one CPU, and a join waits for the slowest of its
/// CPUs, so a step's calibration factor is the probe's to this power.
fn joins(e: &Engine) -> i32 {
    e.exec_workers().max(1) as i32
}

/// Cold start to settled: run `n` steps from step 0 as
/// [`advance`] does, probing the host every [`PROBE_EVERY`] steps, and
/// return the calibrated seconds they took.
#[allow(clippy::too_many_arguments)]
pub fn settle(
    e: &mut Engine,
    n: u64,
    observer: bool,
    n0: usize,
    pace: &mut Pace,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> f64 {
    let mut secs = 0.0;
    let mut from = 0;
    let k = joins(e);
    pace.open();
    while from < n {
        let block = (n - from).min(PROBE_EVERY as u64);
        let t = Instant::now();
        advance(e, from, block, observer, n0, tracer, checks);
        let raw = t.elapsed().as_secs_f64();
        secs += raw * pace.close().powi(k);
        from += block;
    }
    secs
}

/// What one timed window measured.
pub struct Window {
    /// Wall ms of every step (observer call included when it was due).
    pub step_ms: Vec<f64>,
    /// The same, calibrated to the host's reference speed.
    pub cal_ms: Vec<f64>,
    /// Traced-block steps and untraced-block steps (traced runs only).
    pub traced_ms: Vec<f64>,
    pub untraced_ms: Vec<f64>,
    /// Traced steps on which the sort took the full radix path.
    pub full_path_ms: Vec<f64>,
    /// Substep buckets summed over the traced steps.
    pub buckets: StepTimings,
    /// Observer `diagnostics()` call times.
    pub observe_ms: Vec<f64>,
    /// Mean flow population over the window's observations.
    pub n_flow: f64,
    pub first: Diagnostics,
    pub last: Diagnostics,
    /// `(movers, particle-steps)` and `(incremental, full)` deltas.
    pub movers: (u64, u64),
    pub sort_paths: (u64, u64),
    pub repartitions: u64,
}

fn repartitions(e: &Engine) -> u64 {
    match e {
        Engine::Single(_) => 0,
        Engine::Sharded(s) => s.repartitions(),
    }
}

fn delta(a: &StepTimings, b: &StepTimings) -> StepTimings {
    StepTimings {
        motion: b.motion - a.motion,
        boundary: b.boundary - a.boundary,
        move_phase: b.move_phase - a.move_phase,
        sort: b.sort - a.sort,
        select: b.select - a.select,
        collide: b.collide - a.collide,
        sample: b.sample - a.sample,
        steps: b.steps - a.steps,
    }
}

fn add(acc: &mut StepTimings, d: &StepTimings) {
    acc.motion += d.motion;
    acc.boundary += d.boundary;
    acc.move_phase += d.move_phase;
    acc.sort += d.sort;
    acc.select += d.select;
    acc.collide += d.collide;
    acc.sample += d.sample;
    acc.steps += d.steps;
}

/// Step for at least `seconds` and at least `min_steps` steps, timing
/// each, and run [`CKPT_CYCLES`] checkpoint cycles at even intervals,
/// outside the step timings.  The host is probed after every
/// [`PROBE_EVERY`] steps, and each step's calibrated time is its wall
/// time × the factor of its block, to the power of the CPUs a phase
/// joins.  Traced runs alternate blocks of
/// traced and untraced steps so that the tracing overhead is measured in
/// the same window.
#[allow(clippy::too_many_arguments)]
pub fn timed(
    e: &mut Engine,
    n0: usize,
    seconds: f64,
    min_steps: usize,
    observer: bool,
    ckpt: &mut Checkpoint,
    pace: &mut Pace,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Window {
    let (first, _) = observe(e, n0, tracer, checks);
    let movers0 = e.mover_stats();
    let paths0 = e.sort_path_counts();
    let rep0 = repartitions(e);
    let mut w = Window {
        step_ms: Vec::new(),
        cal_ms: Vec::new(),
        traced_ms: Vec::new(),
        untraced_ms: Vec::new(),
        full_path_ms: Vec::new(),
        buckets: StepTimings::default(),
        observe_ms: Vec::new(),
        n_flow: 0.0,
        first,
        last: first,
        movers: (0, 0),
        sort_paths: (0, 0),
        repartitions: 0,
    };
    let mut flows = vec![first.n_flow as f64];
    let start = Instant::now();
    let gap = seconds / CKPT_CYCLES as f64;
    let mut cycles = 0;
    let mut step = first.steps;
    let k = joins(e);
    pace.open();
    while w.step_ms.len() < min_steps || start.elapsed().as_secs_f64() < seconds {
        step += 1;
        let traced = tracer.enabled() && (w.step_ms.len() / TRACE_BLOCK).is_multiple_of(2);
        let observe_now = observer && step.is_multiple_of(OBSERVE_EVERY);
        let dt = if traced {
            tracer.set_step(step);
            let before = *e.timings();
            let full_before = e.sort_path_counts().1;
            let t = Instant::now();
            let it = tracer.begin("iteration");
            tracer.span("Engine::step", || e.step());
            if observe_now {
                let (d, o) = observe(e, n0, tracer, checks);
                flows.push(d.n_flow as f64);
                w.observe_ms.push(o);
            }
            tracer.end(it);
            let dt = ms(t.elapsed());
            let d = delta(&before, e.timings());
            tracer.buckets(
                "Engine::step",
                &[
                    ("bucket:move", d.motion + d.boundary + d.move_phase),
                    ("bucket:sort", d.sort),
                    ("bucket:select", d.select),
                    ("bucket:collide", d.collide),
                    ("bucket:sample", d.sample),
                ],
            );
            add(&mut w.buckets, &d);
            if e.sort_path_counts().1 > full_before {
                w.full_path_ms.push(dt);
            }
            w.traced_ms.push(dt);
            dt
        } else {
            let t = Instant::now();
            e.step();
            if observe_now {
                let (d, o) = observe(e, n0, tracer, checks);
                flows.push(d.n_flow as f64);
                w.observe_ms.push(o);
            }
            let dt = ms(t.elapsed());
            if tracer.enabled() {
                w.untraced_ms.push(dt);
            }
            dt
        };
        w.step_ms.push(dt);
        if w.step_ms.len() - w.cal_ms.len() < PROBE_EVERY {
            continue;
        }
        close_block(&mut w, pace, k);
        if cycles < CKPT_CYCLES && start.elapsed().as_secs_f64() >= gap * (cycles + 1) as f64 {
            ckpt.cycle(e, pace, tracer, checks);
            cycles += 1;
        }
    }
    if w.cal_ms.len() < w.step_ms.len() {
        close_block(&mut w, pace, k);
    }
    let (last, o) = observe(e, n0, tracer, checks);
    w.observe_ms.push(o);
    flows.push(last.n_flow as f64);
    w.n_flow = flows.iter().sum::<f64>() / flows.len() as f64;
    w.last = last;
    let (m1, p1) = e.mover_stats();
    w.movers = (m1 - movers0.0, p1 - movers0.1);
    let (i1, f1) = e.sort_path_counts();
    w.sort_paths = (i1 - paths0.0, f1 - paths0.1);
    w.repartitions = repartitions(e) - rep0;
    checks.check(last.steps == first.steps + w.step_ms.len() as u64, || {
        format!(
            "step ledger: {} -> {} over {} timed steps",
            first.steps,
            last.steps,
            w.step_ms.len()
        )
    });
    w
}

/// Probe the host and calibrate the steps since the last probe, whose
/// phases join `k` CPUs.
fn close_block(w: &mut Window, pace: &mut Pace, k: i32) {
    let f = pace.close().powi(k);
    let done = w.cal_ms.len();
    w.cal_ms.extend(w.step_ms[done..].iter().map(|ms| ms * f));
}

impl Window {
    /// The end-to-end step metrics of this window, calibrated.
    pub fn end_to_end(&self, m: &mut Measured, checks: &mut Checks) {
        let n = self.cal_ms.len();
        let p50 = median(&self.cal_ms);
        // At the median step: the window's mean is dominated by the
        // host's slow spells, the median much less so.
        m.put("particle_steps_per_s", self.n_flow * 1e3 / p50, n);
        m.put("step_ms_p50", p50, n);
        m.put("step_ms_p50_wall", median(&self.step_ms), n);
        match stats::tail(&self.cal_ms, stats::TAIL_P) {
            Ok(v) => m.put("step_ms_p95", v, n),
            Err(e) => checks.check(false, || e),
        }
        if let Ok(v) = stats::tail(&self.cal_ms, 0.99) {
            m.put("step_ms_p99", v, n);
        }
    }

    /// Keep the per-step samples (wall and calibrated ms) next to the
    /// run's record.
    pub fn write_steps(&self, path: &Path) {
        let text: Vec<String> = self
            .step_ms
            .iter()
            .zip(&self.cal_ms)
            .map(|(w, c)| format!("{w} {c}"))
            .collect();
        let _ = std::fs::write(path, text.join("\n") + "\n");
    }

    /// The per-layer engine metrics of this (traced) window.
    pub fn layers(&self, m: &mut Measured) {
        let b = &self.buckets;
        let per = |d: Duration| ms(d) / b.steps.max(1) as f64;
        let n = b.steps as usize;
        m.put(
            "move.ms_per_step",
            per(b.motion + b.boundary + b.move_phase),
            n,
        );
        m.put(
            "move.mover_frac",
            self.movers.0 as f64 / self.movers.1.max(1) as f64,
            n,
        );
        m.put("sort.ms_per_step", per(b.sort), n);
        m.put("shard.sort_exchange_ms_per_step", per(b.sort), n);
        let (inc, full) = self.sort_paths;
        m.put(
            "sort.incremental_share",
            inc as f64 / (inc + full).max(1) as f64,
            self.step_ms.len(),
        );
        let full_ms = if self.full_path_ms.is_empty() {
            eprintln!("note: no traced step took the full sort path");
            0.0
        } else {
            median(&self.full_path_ms)
        };
        m.put("sort.full_path_step_ms", full_ms, self.full_path_ms.len());
        m.put("select.ms_per_step", per(b.select), n);
        m.put("collide.ms_per_step", per(b.collide), n);
        m.put("sample.ms_per_step", per(b.sample), n);
        let steps = (self.last.steps - self.first.steps).max(1);
        let cands = self.last.candidates - self.first.candidates;
        let colls = self.last.collisions - self.first.collisions;
        m.put(
            "collide.candidates_per_step",
            cands as f64 / steps as f64,
            steps as usize,
        );
        m.put(
            "collide.yield",
            colls as f64 / cands.max(1) as f64,
            steps as usize,
        );
        m.put(
            "shard.observe_ms",
            median(&self.observe_ms),
            self.observe_ms.len(),
        );
        m.put("shard.repartitions", self.repartitions as f64, 1);
        m.put(
            "trace.overhead_ms_per_step",
            median(&self.traced_ms) - median(&self.untraced_ms),
            self.traced_ms.len() + self.untraced_ms.len(),
        );
    }
}

/// Max ÷ mean shard population (1 on one shard).
pub fn population_imbalance(e: &Engine) -> f64 {
    match e {
        Engine::Single(_) => 1.0,
        Engine::Sharded(s) => {
            let pops = s.shard_populations();
            let max = pops.iter().copied().max().unwrap_or(0) as f64;
            let mean = pops.iter().sum::<usize>() as f64 / pops.len().max(1) as f64;
            max / mean.max(1.0)
        }
    }
}

/// Checkpoint cycles: save to a file, read it back, resume and check
/// the resumed engine's `state_hash`.
pub struct Checkpoint {
    cfg: SimConfig,
    path: PathBuf,
    /// Save-to-file wall ms per cycle.
    pub save_ms: Vec<f64>,
    /// Read + resume + `state_hash` check, ms per cycle.
    pub resume_ms: Vec<f64>,
    /// The resume call alone and the hash alone, ms per cycle.
    pub resume_only_ms: Vec<f64>,
    pub hash_ms: Vec<f64>,
    /// Calibrated save and read + resume + hash ms per cycle.
    save_cal_ms: Vec<f64>,
    resume_cal_ms: Vec<f64>,
    pub bytes: u64,
    /// The engine the last cycle resumed, if its hash was right.
    pub resumed: Option<Engine>,
}

impl Checkpoint {
    /// Cycles of engines built from `cfg`, through the file at `path`.
    pub fn new(cfg: &SimConfig, path: PathBuf) -> Self {
        Self {
            cfg: cfg.clone(),
            path,
            save_ms: Vec::new(),
            resume_ms: Vec::new(),
            resume_only_ms: Vec::new(),
            hash_ms: Vec::new(),
            save_cal_ms: Vec::new(),
            resume_cal_ms: Vec::new(),
            bytes: 0,
            resumed: None,
        }
    }

    /// One cycle: save `e`, resume the file at the same shard count and
    /// check that the resumed engine hashes as `e` does.  The host is
    /// probed before the save, between save and resume, and after.
    pub fn cycle(
        &mut self,
        e: &mut Engine,
        pace: &mut Pace,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) {
        self.resumed = None;
        let expected = tracer.span("Engine::state_hash", || e.state_hash());
        pace.open();
        let t = Instant::now();
        let saved = tracer.span("Engine::save_state_to", || e.save_state_to(&self.path));
        let save = ms(t.elapsed());
        self.save_ms.push(save);
        self.save_cal_ms.push(save * pace.close());
        checks.check(saved.is_ok(), || {
            format!("checkpoint save failed: {saved:?}")
        });
        self.bytes = std::fs::metadata(&self.path).map_or(0, |m| m.len());

        let t0 = Instant::now();
        let open = tracer.begin("checkpoint_resume");
        let data = tracer.span("fs::read", || std::fs::read(&self.path));
        let resumed = tracer.span("Engine::resume", || {
            data.map_err(|err| err.to_string()).and_then(|d| {
                Engine::resume(self.cfg.clone(), &d, e.n_shards()).map_err(|err| err.to_string())
            })
        });
        let t1 = Instant::now();
        let mut r = match resumed {
            Ok(r) => r,
            Err(err) => {
                tracer.end(open);
                pace.close();
                return checks.check(false, || format!("resume failed: {err}"));
            }
        };
        let h = tracer.span("Engine::state_hash", || r.state_hash());
        tracer.end(open);
        let t2 = Instant::now();
        self.resume_ms.push(ms(t2 - t0));
        self.resume_cal_ms.push(ms(t2 - t0) * pace.close());
        self.resume_only_ms.push(ms(t1 - t0));
        self.hash_ms.push(ms(t2 - t1));
        checks.check(h == expected, || {
            format!("resumed state_hash {h:#x} != saved {expected:#x}")
        });
        if h == expected {
            self.resumed = Some(r);
        }
    }
}

impl Checkpoint {
    /// The end-to-end checkpoint metrics, calibrated.
    pub fn end_to_end(&self, m: &mut Measured) {
        m.put(
            "checkpoint_save_ms",
            median(&self.save_cal_ms),
            self.save_cal_ms.len(),
        );
        m.put(
            "checkpoint_resume_ms",
            median(&self.resume_cal_ms),
            self.resume_cal_ms.len(),
        );
    }

    /// Keep the per-cycle samples (save wall and calibrated ms, then
    /// resume wall and calibrated ms) next to the run's record.
    pub fn write_cycles(&self, path: &Path) {
        let text: Vec<String> = (0..self.resume_ms.len())
            .map(|i| {
                format!(
                    "{} {} {} {}",
                    self.save_ms[i], self.save_cal_ms[i], self.resume_ms[i], self.resume_cal_ms[i]
                )
            })
            .collect();
        let _ = std::fs::write(path, text.join("\n") + "\n");
    }

    pub fn layers(&self, m: &mut Measured) {
        let n = self.save_ms.len();
        let save = median(&self.save_ms);
        m.put("snapshot.bytes", self.bytes as f64, 1);
        m.put("snapshot.save_ms", save, n);
        m.put("snapshot.resume_ms", median(&self.resume_only_ms), n);
        m.put("snapshot.state_hash_ms", median(&self.hash_ms), n);
        m.put(
            "snapshot.save_mb_per_s",
            self.bytes as f64 / 1e6 / (save / 1e3),
            n,
        );
    }
}

/// Step the original and the resumed engine `n` more steps and check
/// that resuming is invisible: both hash identically.
pub fn check_resume_identity(e: &mut Engine, c: &mut Checkpoint, n: usize, checks: &mut Checks) {
    let Some(r) = c.resumed.as_mut() else {
        return checks.check(false, || "no engine resumed to step on".into());
    };
    e.run(n);
    r.run(n);
    let (a, b) = (e.state_hash(), r.state_hash());
    checks.check(a == b, || {
        format!("after {n} more steps the resumed engine hashes {b:#x}, the original {a:#x}")
    });
}
