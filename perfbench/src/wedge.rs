//! `wedge-steady` and `wedge-sharded`: the paper's Mach-4 near-continuum
//! wedge, on the paper's grid at the registry's QUICK density.

use crate::pace::Pace;
use crate::primitives;
use crate::report::{Checks, Measured};
use crate::seeds;
use crate::stats::{median, MIN_TIMED_STEPS};
use crate::sweep;
use crate::trace::Tracer;
use crate::window;
use dsmc_engine::{Engine, ExecMode, SimConfig};
use dsmc_scenarios::{find, Scale};
use std::path::Path;
use std::time::Instant;

/// Cold-start steps before the timed window: past the impulsive start,
/// with the plunger cycling and the incremental sort on its steady mix.
const SETTLE_STEPS: u64 = 300;

/// Engine constructions `setup_s` takes the median of.
const SETUP_REPS: usize = 15;

/// Cold starts (construction and settle) `solution_s` takes the median of.
const SOLUTION_REPS: usize = 5;

/// Steps both arms take after a resume before their hashes are compared.
const RESUME_TAIL: usize = 10;

/// The registry's `wedge-paper` at QUICK scale: the paper's wedge and
/// grid at 0.15 of its density (11.25 per cell, about 80k particles).
/// At the paper's 75 per cell the columns (about 19 MB) live in the
/// host's shared L3, and step times followed the load of other tenants.
fn quick_wedge() -> SimConfig {
    find("wedge-paper")
        .and_then(|s| s.tunnel_config(Scale::Quick))
        .expect("the registry has wedge-paper")
}

/// The workload's configuration: the QUICK wedge with the derived seed;
/// the sharded workload runs its shards on two threaded workers.
pub fn config(workload_seed: u64, shards: usize) -> SimConfig {
    let mut cfg = quick_wedge();
    cfg.seed = seeds::sim_seed(workload_seed);
    if shards > 1 {
        cfg.exec = ExecMode::Threaded { workers: 2 };
    }
    cfg
}

#[allow(clippy::too_many_arguments)]
pub fn run(
    shards: usize,
    seed: u64,
    seconds: f64,
    out: &Path,
    m: &mut Measured,
    pace: &mut Pace,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> usize {
    let cfg = config(seed, shards);
    let sharded = shards > 1;

    // Set-up: build the engine from its config, several times.
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS {
        let (e, _, cal) =
            pace.time(|| tracer.span("Engine::new", || Engine::new(cfg.clone(), shards)));
        drop(e);
        setup.push(cal);
    }
    m.put("setup_s", median(&setup), setup.len());

    // Time to solution: a construction plus the settle from a cold start
    // past the impulsive start, several times; the last engine goes on.
    let mut solution = Vec::new();
    let mut built = None;
    for _ in 0..SOLUTION_REPS {
        drop(built.take());
        let (mut e, _, new_s) =
            pace.time(|| tracer.span("Engine::new", || Engine::new(cfg.clone(), shards)));
        let n0 = e.n_particles();
        let settle = tracer.begin("settle");
        let settle_s = window::settle(&mut e, SETTLE_STEPS, sharded, n0, pace, tracer, checks);
        tracer.end(settle);
        solution.push(new_s + settle_s);
        built = Some(e);
    }
    m.put("solution_s", median(&solution), solution.len());
    let mut e = built.expect("at least one cold start");
    let n0 = e.n_particles();
    let workers = e.exec_workers();
    checks.check(workers == shards.max(1), || {
        format!("{workers} shard workers resolved for {shards} shards")
    });

    // The timed window, sampling window open.
    tracer.span("Engine::begin_sampling", || e.begin_sampling());
    let mut c = window::Checkpoint::new(&cfg, out.join("wedge.ckpt"));
    let w = window::timed(
        &mut e,
        n0,
        seconds,
        MIN_TIMED_STEPS,
        sharded,
        &mut c,
        pace,
        tracer,
        checks,
    );
    w.end_to_end(m, checks);
    w.write_steps(&out.join("step_ms.txt"));
    let steps_before_ckpt = w.last.steps;
    let imbalance = window::population_imbalance(&e);

    // The workload ends with one more save and its resume, then the
    // resume identity: the resumed engine steps exactly as the original.
    c.cycle(&mut e, pace, tracer, checks);
    c.end_to_end(m);
    c.write_cycles(&out.join("checkpoint_ms.txt"));
    if tracer.enabled() {
        c.layers(m);
    }
    window::check_resume_identity(&mut e, &mut c, RESUME_TAIL, checks);
    drop(c);
    let final_steps = steps_before_ckpt + RESUME_TAIL as u64;
    let final_hash = e.state_hash();

    // Close the sampling window and check the averaged field.
    let t = Instant::now();
    let field = tracer.span("Engine::finish_sampling", || e.finish_sampling());
    let finish_ms = t.elapsed().as_secs_f64() * 1e3;
    let sampled = final_steps - SETTLE_STEPS;
    checks.check(field.steps == sampled, || {
        format!("sampled {} steps, expected {sampled}", field.steps)
    });
    checks.check(
        field.density.iter().all(|d| d.is_finite() && *d >= 0.0),
        || "sampled density has a negative or non-finite cell".into(),
    );

    // Sharding is invisible: a single-domain engine with the same seed
    // and step count (and the same sampling window) hashes identically.
    let mut reference = None;
    let mut efficiency = 1.0;
    if sharded {
        let mut r = Engine::new(config(seed, 1), 1);
        let quiet = &mut Tracer::new(false);
        window::advance(&mut r, 0, SETTLE_STEPS, false, n0, quiet, checks);
        r.begin_sampling();
        let mut ref_ms = Vec::with_capacity(w.step_ms.len());
        for _ in 0..w.step_ms.len() {
            let t = Instant::now();
            r.step();
            ref_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        r.run(RESUME_TAIL);
        let h = r.state_hash();
        checks.check(h == final_hash, || {
            format!(
                "at step {final_steps} the sharded engine hashes {final_hash:#x}, \
                 the single-domain engine {h:#x}"
            )
        });
        efficiency = median(&ref_ms) / median(&w.step_ms);
        reference = Some(r);
    }

    if tracer.enabled() {
        w.layers(m);
        m.put("sample.finish_ms", finish_ms, 1);
        m.put("shard.population_imbalance", imbalance, 1);
        m.put("shard.exec_workers", workers as f64, 1);
        m.put("shard.efficiency", efficiency, w.step_ms.len());
        let mut single = match reference {
            Some(r) => r,
            None => e,
        };
        let Engine::Single(sim) = &mut single else {
            unreachable!("the reference engine is single-domain")
        };
        let keys = primitives::capture(sim, seed);
        primitives::measure(&keys, m, tracer, checks);
        primitives::serial_baseline(&cfg, 20, 40, m, tracer);
        sweep::not_exercised(m);
    }
    workers
}
