//! The paper's measurement methodology (§4.3 "Stability of Results").
//!
//! "To overcome observed instabilities, we performed redundant simulations
//! perturbed by injecting small random delays in all message responses.
//! [...] we report the minimum run time from a set of runs whose only
//! difference is the perturbation."

use tss_workloads::WorkloadSpec;

use crate::config::SystemConfig;
use crate::system::{System, SystemStats};

/// Runs `spec` once per perturbation seed and returns the stats of the
/// minimum-runtime run, as the paper reports.
///
/// The workload stream is held fixed (derived from `cfg.seed`); only the
/// response jitter varies across runs. With `seeds = 1` and
/// `cfg.perturbation_ns = 0` this degenerates to a single deterministic
/// run.
///
/// # Panics
///
/// Panics if `seeds == 0`.
pub fn min_over_perturbations(cfg: &SystemConfig, spec: &WorkloadSpec, seeds: u64) -> SystemStats {
    assert!(seeds > 0, "need at least one run");
    let mut best: Option<SystemStats> = None;
    for s in 0..seeds {
        let mut c = cfg.clone();
        // §4.3: the runs in a set differ ONLY in their response jitter.
        // `cfg.seed` (which keys the workload streams) stays fixed; the
        // perturbation stream id selects an independent jitter sequence.
        c.perturbation_stream = s;
        if s > 0 && c.perturbation_ns == 0 {
            // Without jitter, extra runs would be identical; skip them.
            break;
        }
        let result = System::run_workload(c, spec);
        let better = match &best {
            None => true,
            Some(b) => result.stats.runtime < b.runtime,
        };
        if better {
            best = Some(result.stats);
        }
    }
    best.expect("at least one run happened")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ProtocolKind, TopologyKind};
    use tss_workloads::{ClassWeights, WorkloadSpec};

    fn tiny_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "tiny".into(),
            ops_per_cpu: 200,
            mean_gap: 60,
            private_blocks_per_cpu: 16,
            shared_ro_blocks: 16,
            migratory_blocks: 8,
            prodcons_blocks_per_cpu: 2,
            lock_blocks: 2,
            lock_protected_blocks: 2,
            weights: ClassWeights {
                private: 0.4,
                shared_ro: 0.2,
                migratory: 0.2,
                prodcons: 0.1,
                lock: 0.1,
            },
            private_write_fraction: 0.3,
            private_hot_fraction: 0.8,
            critical_section_len: 2,
        }
    }

    #[test]
    fn min_over_perturbations_returns_minimum() {
        let mut cfg = SystemConfig::test_default(ProtocolKind::TsSnoop, TopologyKind::Torus4x4);
        cfg.perturbation_ns = 6;
        let best = min_over_perturbations(&cfg, &tiny_spec(), 3);
        // Any single run is >= the reported minimum.
        let mut single = cfg.clone();
        single.seed = cfg.seed; // seed 0 variant
        let one = System::run_workload(single, &tiny_spec()).stats;
        assert!(best.runtime <= one.runtime);
    }

    #[test]
    fn perturbation_moves_timing_but_not_the_workload() {
        // §4.3: runs in a set differ ONLY in response jitter — the
        // reference stream must be identical, so hit+miss totals match
        // while runtimes move.
        let mut cfg = SystemConfig::test_default(ProtocolKind::TsSnoop, TopologyKind::Torus4x4);
        cfg.perturbation_ns = 6;
        let mut runs = Vec::new();
        for stream in 0..3 {
            let mut c = cfg.clone();
            c.perturbation_stream = stream;
            runs.push(System::run_workload(c, &tiny_spec()).stats);
        }
        let ops: Vec<u64> = runs
            .iter()
            .map(|s| s.protocol.misses + s.protocol.hits)
            .collect();
        assert!(
            ops.windows(2).all(|w| w[0] == w[1]),
            "perturbation must not change the workload: {ops:?}"
        );
        let runtimes: Vec<u64> = runs.iter().map(|s| s.runtime.as_ns()).collect();
        assert!(
            runtimes.windows(2).any(|w| w[0] != w[1]),
            "different jitter streams should shift timing: {runtimes:?}"
        );
    }

    #[test]
    fn no_jitter_runs_once() {
        let cfg = SystemConfig::test_default(ProtocolKind::DirOpt, TopologyKind::Torus4x4);
        let a = min_over_perturbations(&cfg, &tiny_spec(), 5);
        let b = min_over_perturbations(&cfg, &tiny_spec(), 1);
        assert_eq!(a.runtime, b.runtime);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_seeds_rejected() {
        let cfg = SystemConfig::test_default(ProtocolKind::TsSnoop, TopologyKind::Torus4x4);
        min_over_perturbations(&cfg, &tiny_spec(), 0);
    }
}
