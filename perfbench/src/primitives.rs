//! `dsmc_datapar` sort primitives timed on keys captured from a live
//! engine, plus the single-threaded `SerialSim` reference.

use crate::report::{Checks, Measured};
use crate::stats::median;
use crate::trace::Tracer;
use dsmc_baselines::SerialSim;
use dsmc_datapar::{
    incremental_rank, pack_pair, sort_order_and_bounds_from_pairs_cells, IncrementalScratch,
    SortScratch,
};
use dsmc_engine::sortstep::key_bits_for;
use dsmc_engine::{SimConfig, Simulation};
use dsmc_rng::XorShift32;
use std::time::Instant;

const REPS: usize = 15;

/// One step's worth of sort input, as the engine's rank saw it.
pub struct Keys {
    /// `(cell << jitter_bits) | jitter` in the pre-sort particle order.
    keys: Vec<u32>,
    cell_bits: u32,
    jitter_bits: u32,
    total_cells: u32,
    /// The previous step's segment structure (the incremental rank's
    /// freshness gate).
    prev_bounds: Vec<u32>,
    prev_cells: Vec<u32>,
}

/// Capture the keys of `sim`'s next step: the sorted segment structure
/// now, then — after one step — each particle's new cell at its pre-sort
/// position, recovered through the step's sort permutation.  The jitter
/// field is drawn from `seed`; it only orders particles inside a cell.
pub fn capture(sim: &mut Simulation, seed: u64) -> Keys {
    let prev_bounds = sim.segment_bounds().to_vec();
    let cells = &sim.particles().cell;
    let prev_cells = prev_bounds[..prev_bounds.len() - 1]
        .iter()
        .map(|&b| cells[b as usize])
        .collect();
    sim.step();
    let order = sim.last_sort_order();
    let sorted_cells = &sim.particles().cell;
    let mut pre = vec![0u32; order.len()];
    for (pos, &src) in order.iter().enumerate() {
        pre[src as usize] = sorted_cells[pos];
    }
    let jitter_bits = sim.config().jitter_bits;
    let total_cells = sim.total_cells();
    let mut rng = XorShift32::new((seed as u32) | 1);
    let mask = (1u32 << jitter_bits) - 1;
    Keys {
        keys: pre
            .iter()
            .map(|&c| (c << jitter_bits) | (rng.next_u32() & mask))
            .collect(),
        cell_bits: key_bits_for(total_cells, jitter_bits) - jitter_bits,
        jitter_bits,
        total_cells,
        prev_bounds,
        prev_cells,
    }
}

/// Bytes the bounds-emitting radix rank moves per key, computed from its
/// pass plan: each jitter digit pass reads the 8-byte pairs to count and
/// reads + writes them to scatter; the cell pass counts (read 8) and
/// scatters into 4-byte router addresses (read 8, write 4).
pub fn radix_bytes_per_key(jitter_bits: u32) -> f64 {
    let jitter_passes = jitter_bits.div_ceil(8) as f64;
    jitter_passes * 24.0 + 20.0
}

/// Time the full radix rank and the incremental rank on `k`, and check
/// that both produce the same order, bounds and segment cells.
pub fn measure(k: &Keys, m: &mut Measured, tracer: &mut Tracer, checks: &mut Checks) {
    let n = k.keys.len();
    let mut scratch = SortScratch::new();
    let mut inc = IncrementalScratch::new();
    let (mut order, mut bounds, mut cells) = (Vec::new(), Vec::new(), Vec::new());
    let (mut order2, mut bounds2, mut cells2) = (Vec::new(), Vec::new(), Vec::new());
    let pack = |scratch: &mut SortScratch| {
        for (i, (slot, &key)) in scratch.input_pairs(n).iter_mut().zip(&k.keys).enumerate() {
            *slot = pack_pair(key, i);
        }
    };
    let (mut radix_ns, mut inc_ns) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        pack(&mut scratch);
        let t = Instant::now();
        let ok = tracer.span("datapar::sort_order_and_bounds_from_pairs_cells", || {
            sort_order_and_bounds_from_pairs_cells(
                k.cell_bits,
                k.jitter_bits,
                &mut scratch,
                &mut order,
                &mut bounds,
                &mut cells,
                false,
            )
        });
        radix_ns.push(t.elapsed().as_secs_f64() * 1e9 / n as f64);
        checks.check(ok, || "radix rank refused the engine's key layout".into());

        pack(&mut scratch);
        let t = Instant::now();
        let ok = tracer.span("datapar::incremental_rank", || {
            incremental_rank(
                k.jitter_bits,
                k.total_cells,
                &k.prev_bounds,
                &k.prev_cells,
                false,
                &mut scratch,
                &mut inc,
                &mut order2,
                &mut bounds2,
                &mut cells2,
            )
        });
        inc_ns.push(t.elapsed().as_secs_f64() * 1e9 / n as f64);
        checks.check(ok, || {
            "incremental rank fell back on a fresh structure".into()
        });
    }
    checks.check(
        order == order2 && bounds == bounds2 && cells == cells2,
        || "incremental rank order differs from the radix rank".into(),
    );
    m.put("datapar.radix_ns_per_key", median(&radix_ns), REPS);
    m.put("datapar.incremental_rank_ns_per_key", median(&inc_ns), REPS);
    m.put(
        "datapar.radix_bytes_per_key_computed",
        radix_bytes_per_key(k.jitter_bits),
        1,
    );
}

/// Flow particle-steps per second of the serial comparator on `cfg`
/// from a cold start (`warm` untimed steps, then `steps` timed).
pub fn serial_baseline(
    cfg: &SimConfig,
    warm: usize,
    steps: usize,
    m: &mut Measured,
    tracer: &mut Tracer,
) {
    let mut s = tracer.span("SerialSim::new", || SerialSim::new(cfg.clone()));
    s.run(warm);
    let n_flow = s.n_flow();
    let t = Instant::now();
    tracer.span("SerialSim::run", || s.run(steps));
    let rate = ((n_flow + s.n_flow()) as f64 / 2.0) * steps as f64 / t.elapsed().as_secs_f64();
    m.put("baseline.serial_particle_steps_per_s", rate, steps);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captured_keys_rank_identically_on_both_paths() {
        let mut cfg = SimConfig::small_wedge(0.0);
        cfg.seed = 5;
        let mut sim = Simulation::new(cfg);
        sim.run(5);
        let k = capture(&mut sim, 1);
        assert_eq!(k.keys.len(), sim.n_particles());
        let mut m = Measured::default();
        let mut checks = Checks::default();
        measure(&k, &mut m, &mut Tracer::new(false), &mut checks);
        assert!(checks.failures.is_empty(), "{:?}", checks.failures);
        assert_eq!(m.values["datapar.radix_bytes_per_key_computed"].value, 44.0);
    }
}
