//! Shared experiment harness for regenerating the paper's tables and
//! figures.
//!
//! Each binary in `src/bin/` reproduces one table or figure (or sweeps
//! beyond the paper):
//!
//! | target | artifact |
//! |---|---|
//! | `table2` | Table 2 — unloaded network latencies (analytic + measured) |
//! | `table3` | Table 3 — benchmark characteristics |
//! | `fig3` | Figure 3 — normalised runtime, butterfly & torus |
//! | `fig4` | Figure 4 — normalised link traffic by message class |
//! | `bandwidth_bound` | §5 bandwidth accounting, analytic + measured |
//! | `ablations` | slack sweep, block-size sensitivity, prefetch & contention ablations |
//! | `scaling` | 4/16/64-node system-size sweep (§5 sensitivity) |
//! | `latency` | per-protocol single-miss latencies vs the Table 2 closed forms |
//! | `grid` | fully declarative runner: every axis from the command line |
//! | `contention` | detailed-token-network sweep: link occupancy × initial slack vs the fast model |
//! | `perf` | simulator hot-path benchmarks → `BENCH_hotpath.json` (the perf trajectory; own CLI, see its docs) |
//! | `grid-merge` | reassembles `--shard I/N` partial reports into the canonical grid artifact |
//! | `cellstore` | cell-store maintenance: `gc [--purge] <dir>` (own CLI, see its docs) |
//!
//! All binaries share one CLI ([`Cli`]): `--scale`, `--seeds`,
//! `--perturbation`, `--seed`, plus the grid filters `--protocols`,
//! `--topologies`, `--workloads`, the address-network model selector
//! `--net fast|detailed` / `--contention <ns>`, the resume/sharding
//! layer `--resume <dir>` / `--shard I/N` (content-addressed cell reuse
//! and round-robin grid partitioning — every single-grid binary gets
//! both for free; the composite binaries `latency`, `table2` and
//! `ablations` measure cells outside the grid and *reject* the flags
//! rather than ignore them, and `contention` takes `--resume` but not
//! `--shard`), and `--json <path>` to write the run's
//! [`GridReport`](tss::experiment::GridReport) artifact. `grid` alone
//! also takes `--remote <url>` to submit the sweep to a running
//! `sweep-server`. Each binary declares once, in its [`Cli::parse`]
//! call, which of `--shard`, `--resume` and `--remote` it accepts;
//! the parser refuses the rest (exit 2). They construct
//! systems exclusively through [`tss::SystemBuilder`] /
//! [`tss::experiment::ExperimentGrid`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

pub use cli::Cli;

/// Default workload scale for figure runs: 1/64 of the paper's footprint
/// and reference counts keeps a full Figure 3 grid under a few minutes.
pub const DEFAULT_SCALE: f64 = 1.0 / 64.0;

/// Default perturbation-seed count (the paper ran "a set" of perturbed
/// simulations; we default to 3).
pub const DEFAULT_SEEDS: u64 = 3;

/// Default response jitter in nanoseconds.
pub const DEFAULT_PERTURBATION_NS: u64 = 4;

/// Formats `x` as a ratio with two decimals relative to `base`.
pub fn norm(x: u64, base: u64) -> String {
    if base == 0 {
        "-".to_string()
    } else {
        format!("{:.2}", x as f64 / base as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_formats_and_guards_zero() {
        assert_eq!(norm(150, 100), "1.50");
        assert_eq!(norm(1, 0), "-");
    }
}
