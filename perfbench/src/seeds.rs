//! Workload seed → program seeds.
//!
//! The benchmark takes one workload seed and derives every seed the
//! program sees from it.  [`REFERENCE_SEED`] maps to the seeds checked
//! into the repository (the ones the scenario goldens were recorded on);
//! [`HELD_OUT_SEED`] is kept out of all tuning, so a later performance
//! claim can be re-checked on a seed it was not tuned on.

use dsmc_engine::SimConfig;

/// Maps to `SimConfig::paper`'s seed and the registry's campaign seed.
pub const REFERENCE_SEED: u64 = 0;

/// Never used while tuning the benchmark or a change it measures.
pub const HELD_OUT_SEED: u64 = 7;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `SimConfig::seed` of the wedge workloads.
pub fn sim_seed(workload_seed: u64) -> u64 {
    if workload_seed == REFERENCE_SEED {
        SimConfig::paper(0.0).seed
    } else {
        splitmix64(workload_seed ^ 0x5717)
    }
}

/// Seed of every run of the campaign (`None`: the registry's own).
pub fn campaign_seed(workload_seed: u64) -> Option<u64> {
    (workload_seed != REFERENCE_SEED).then(|| splitmix64(workload_seed ^ 0xca4a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmc_engine::Engine;

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        assert_eq!(sim_seed(3), sim_seed(3));
        assert_ne!(sim_seed(3), sim_seed(4));
        assert_ne!(sim_seed(HELD_OUT_SEED), sim_seed(REFERENCE_SEED));
        assert_eq!(campaign_seed(REFERENCE_SEED), None);
        assert_eq!(campaign_seed(9), campaign_seed(9));
        assert_ne!(campaign_seed(9), Some(sim_seed(9)));
    }

    /// The same workload seed builds the same inputs and the same
    /// trajectory; another seed builds another.
    #[test]
    fn same_seed_same_state_hash() {
        let hash = |seed: u64, shards: usize| {
            let mut cfg = SimConfig::small_wedge(0.0);
            cfg.seed = sim_seed(seed);
            let mut e = Engine::new(cfg, shards);
            e.run(8);
            e.state_hash()
        };
        assert_eq!(hash(HELD_OUT_SEED, 1), hash(HELD_OUT_SEED, 1));
        assert_eq!(hash(HELD_OUT_SEED, 1), hash(HELD_OUT_SEED, 2));
        assert_ne!(hash(HELD_OUT_SEED, 1), hash(REFERENCE_SEED, 1));
    }
}
