//! Ablation studies on the design choices DESIGN.md calls out:
//!
//! 1. **Initial slack sweep** — §2.2 says "setting S to a small positive
//!    value allows GTs to advance during moderate network contention
//!    without unduly delaying destination processing"; this measures the
//!    destination-processing cost of larger S.
//! 2. **Prefetch (optimisation 1, §3)** — run TS-Snoop with and without
//!    controllers prefetching on early arrival.
//! 3. **Block-size sensitivity** — the §5 discussion, measured rather than
//!    bounded.
//! 4. **Token-network contention** — the detailed switch-level network
//!    under increasing load (what the paper's unloaded model abstracts
//!    away): GT stalls and ordering delay growth.
//!
//! Every measured cell lands in the emitted `GridReport` with an
//! annotated workload name (`"OLTP[S=8]"`, `"OLTP[block=128]"`, …).

use std::sync::Arc;

use tss::experiment::{ExperimentGrid, GridReport, RunReport};
use tss::{ProtocolKind, Timing, TopologyKind};
use tss_bench::Cli;
use tss_net::{DetailedNet, DetailedNetConfig, Fabric, NodeId};
use tss_proto::CacheConfig;
use tss_sim::{Duration, Time};
use tss_workloads::paper;

/// Runs a one-cell grid with the given overrides and returns its cell,
/// renamed to `label`.
fn one_cell(
    cli: &Cli,
    protocol: ProtocolKind,
    topology: TopologyKind,
    timing: Timing,
    cache: CacheConfig,
    label: String,
) -> RunReport {
    let report = ExperimentGrid::new("ablation-cell")
        .protocols([protocol])
        .topologies([topology])
        .workloads(vec![paper::oltp(cli.scale)])
        .seeds([cli.seed])
        .perturbation(cli.perturbation_ns, 1)
        .timing(timing)
        .cache(cache)
        .run()
        .unwrap_or_else(|e| panic!("ablation cell invalid: {e}"));
    let mut cell = report.cells.into_iter().next().expect("one cell");
    cell.workload = label;
    cell
}

fn slack_sweep(cli: &Cli, cells: &mut Vec<RunReport>) {
    println!("Ablation 1: initial slack S vs runtime (TS-Snoop, torus, OLTP)");
    println!("{:>6} {:>14} {:>16}", "S", "runtime (ns)", "vs S=0");
    let mut base = 0u64;
    for s in [0u64, 2, 8, 32, 128] {
        let timing = Timing {
            initial_slack: s,
            ..Timing::default()
        };
        let cell = one_cell(
            cli,
            ProtocolKind::TsSnoop,
            TopologyKind::Torus4x4,
            timing,
            CacheConfig::paper_default(),
            format!("OLTP[S={s}]"),
        );
        if s == 0 {
            base = cell.runtime_ns();
        }
        println!(
            "{:>6} {:>14} {:>15.2}%",
            s,
            cell.runtime_ns(),
            100.0 * (cell.runtime_ns() as f64 / base as f64 - 1.0)
        );
        cells.push(cell);
    }
    println!();
}

fn prefetch_ablation(cli: &Cli, cells: &mut Vec<RunReport>) {
    println!("Ablation 2: optimisation 1 (prefetch on early arrival), TS-Snoop");
    println!(
        "{:<12} {:<10} {:>14} {:>14} {:>8}",
        "topology", "prefetch", "runtime (ns)", "mean miss", "delta"
    );
    for topo in TopologyKind::PAPER {
        let mut base = 0.0;
        for prefetch in [true, false] {
            let timing = Timing {
                prefetch,
                ..Timing::default()
            };
            let cell = one_cell(
                cli,
                ProtocolKind::TsSnoop,
                topo,
                timing,
                CacheConfig::paper_default(),
                format!("OLTP[prefetch={prefetch}]"),
            );
            let mean = cell.stats.miss_latency.mean_ns().unwrap_or(0.0);
            if prefetch {
                base = cell.runtime_ns() as f64;
            }
            println!(
                "{:<12} {:<10} {:>14} {:>14.0} {:>7.1}%",
                topo.label(),
                prefetch,
                cell.runtime_ns(),
                mean,
                100.0 * (cell.runtime_ns() as f64 / base - 1.0)
            );
            cells.push(cell);
        }
    }
    println!();
}

fn block_size_sweep(cli: &Cli, cells: &mut Vec<RunReport>) {
    println!("Ablation 3: block size vs measured TS-Snoop bandwidth premium (butterfly, OLTP)");
    println!(
        "{:>7} {:>14} {:>14} {:>10}",
        "block", "TS bytes", "DirOpt bytes", "TS extra"
    );
    for block in [64u64, 128, 256] {
        let mut totals = [0u64; 2];
        for (i, proto) in [ProtocolKind::TsSnoop, ProtocolKind::DirOpt]
            .iter()
            .enumerate()
        {
            // Keep set count constant: capacity scales with block size.
            let cache = CacheConfig {
                block_bytes: block,
                capacity_bytes: (4 << 20) * block / 64,
                ..CacheConfig::paper_default()
            };
            let cell = one_cell(
                cli,
                *proto,
                TopologyKind::Butterfly16,
                Timing::default(),
                cache,
                format!("OLTP[block={block}]"),
            );
            totals[i] = cell.total_bytes();
            cells.push(cell);
        }
        println!(
            "{:>6}B {:>14} {:>14} {:>9.0}%",
            block,
            totals[0],
            totals[1],
            100.0 * (totals[0] as f64 / totals[1] as f64 - 1.0)
        );
    }
    println!();
}

fn contention_ablation() {
    println!("Ablation 4: detailed token network under load (4x4 torus, S=2)");
    println!(
        "{:>12} {:>12} {:>14} {:>14} {:>12}",
        "occupancy", "injections", "mean order dly", "max order dly", "buffer peak"
    );
    for occupancy_ns in [0u64, 10, 20, 40] {
        let mut net: DetailedNet<u32> = DetailedNet::new(
            Arc::new(Fabric::torus4x4()),
            DetailedNetConfig {
                link_occupancy: Duration::from_ns(occupancy_ns),
                initial_slack: 2,
                ..DetailedNetConfig::default()
            },
        );
        // A burst of broadcasts from every node.
        let mut t = 100;
        for round in 0..20u64 {
            for n in 0..16u16 {
                net.inject(Time::from_ns(t + n as u64), NodeId(n), round as u32);
            }
            t += 40;
        }
        net.run_until(Time::from_ns(1_000_000));
        let s = &net.stats()[0]; // the torus is one plane
        println!(
            "{:>10}ns {:>12} {:>12.0}ns {:>12}ns {:>12}",
            occupancy_ns,
            s.injected,
            s.ordering_delay.mean_ns().unwrap_or(0.0),
            s.ordering_delay.max().unwrap().as_ns(),
            s.switch_buffer_high_water,
        );
        assert_eq!(s.processed, s.injected * 16, "all copies delivered");
    }
    println!("\n(The fast model used for Figures 3/4 corresponds to occupancy 0,");
    println!(" matching the paper's no-contention assumption; GT stalls and");
    println!(" buffering grow with load, as §2.2's buffering discussion expects.)");
}

fn main() {
    // The ablation cells run through private one-cell grids with
    // overridden timing/caches, outside Cli::grid — the resume/shard
    // flags would be silently ignored, so refuse them instead.
    let mut cli = Cli::parse("ablations", &[]);
    // Ablations default to a smaller scale than the figures.
    if (cli.scale - tss_bench::DEFAULT_SCALE).abs() < 1e-12 {
        cli.scale = 1.0 / 128.0;
    }
    let mut cells = Vec::new();
    slack_sweep(&cli, &mut cells);
    prefetch_ablation(&cli, &mut cells);
    block_size_sweep(&cli, &mut cells);
    contention_ablation();
    cli.emit(&GridReport::from_cells("ablations", cells));
}
