//! The contention ablation the paper's evaluation leaves unmeasured.
//!
//! §4.3 deliberately models "unloaded network latencies \[and\] timestamp
//! snooping ordering delays" but **no** network contention. This binary
//! quantifies how far that assumption holds: it runs TS-Snoop through the
//! detailed token network (every token and transaction hop simulated),
//! sweeping
//!
//! 1. **link occupancy** — the minimum spacing between two transactions
//!    entering one link, the contention knob (`0` reproduces the unloaded
//!    assumption in the detailed model and must agree with the fast
//!    model's ordering behaviour — see `tests/tests/equivalence.rs`), and
//! 2. **initial slack `S`** — §2.2: "setting S to a small positive value
//!    allows GTs to advance during moderate network contention"; the
//!    sweep shows the slack/latency trade-off the paper describes
//!    qualitatively.
//!
//! The fast closed-form model runs first as the baseline column. Only
//! TS-Snoop builds an address network, so the protocol axis is fixed.
//! Passing `--net`/`--contention` appends that configuration to the
//! built-in sweep as one more point (use the `grid` binary to run a
//! single configuration by itself).
//!
//! ```sh
//! cargo run --release -p tss-bench --bin contention
//! cargo run --release -p tss-bench --bin contention -- \
//!     --workloads oltp,barnes --topologies torus --json results/contention.json
//! ```
//!
//! Expect runs tens of times slower than `--net fast`: the detailed model
//! pays for every token hop, so a full-workload sweep is minutes, not
//! seconds. Workloads default to OLTP alone for that reason; pass
//! `--workloads` for more.

use tss::experiment::GridReport;
use tss::{NetworkModelSpec, ProtocolKind};
use tss_bench::{norm, Cli};
use tss_sim::Duration;
use tss_workloads::paper;

fn main() {
    // The emitted report interleaves two grids (fast baseline + sweep),
    // so it is not one round-robin slice of one grid and cannot shard;
    // --resume still works (both sub-grids run through the shared store).
    let cli = Cli::parse("contention", &["--resume"]);
    let detailed = |occ: u64, slack: u64| NetworkModelSpec::Detailed {
        link_occupancy: Duration::from_ns(occ),
        initial_slack: slack,
        buffer_depth: NetworkModelSpec::DEFAULT_BUFFER_DEPTH,
    };

    // The occupancy sweep at default slack, then the slack sweep at a
    // fixed moderate occupancy. An explicit --net/--contention request
    // joins the sweep as an extra point rather than being ignored.
    let mut nets: Vec<NetworkModelSpec> = [0, 2, 5, 10, 20]
        .map(|occ| detailed(occ, NetworkModelSpec::DEFAULT_SLACK))
        .to_vec();
    nets.extend([1, 4, 8].map(|slack| detailed(10, slack)));
    if cli.net != NetworkModelSpec::Fast && !nets.contains(&cli.net) {
        nets.push(cli.net);
    }

    // The detailed model is expensive; default to one workload unless the
    // user asked for more.
    let workloads = match &cli.workloads {
        Some(_) => cli
            .paper_workloads()
            .expect("names validated at parse time"),
        None => vec![paper::oltp(cli.scale)],
    };

    // The fast baseline is occupancy- and slack-invariant, so it is
    // hoisted out of the sweep into its own single-net grid: it runs
    // exactly once per (workload, topology) no matter how many
    // (occupancy, slack) points the sweep or the CLI adds, and its cells
    // are reused for both the "vs fast" column and the merged report.
    let baseline_grid = cli
        .grid("contention")
        .protocols([ProtocolKind::TsSnoop])
        .nets([NetworkModelSpec::Fast])
        .workloads(workloads.clone());
    let sweep_grid = cli
        .grid("contention")
        .protocols([ProtocolKind::TsSnoop])
        .nets(nets.clone())
        .workloads(workloads);
    eprintln!(
        "running {} cells (detailed token network; expect minutes at full scale)...",
        baseline_grid.cell_count() + sweep_grid.cell_count()
    );
    let baseline = cli.run_grid(baseline_grid);
    let sweep = cli.run_grid(sweep_grid);

    // Interleave baseline + sweep cells back into the historical report
    // order (fast first within each workload × topology block), so the
    // emitted artifact is byte-identical to the pre-hoist single grid.
    let mut cells = Vec::new();
    for workload in &baseline.workloads {
        for &topology in &baseline.topologies {
            cells.extend(
                baseline
                    .cells
                    .iter()
                    .filter(|c| &c.workload == workload && c.topology == topology)
                    .cloned(),
            );
            cells.extend(
                sweep
                    .cells
                    .iter()
                    .filter(|c| &c.workload == workload && c.topology == topology)
                    .cloned(),
            );
        }
    }
    let report = GridReport::from_cells("contention", cells);

    println!(
        "{:<10} {:<12} {:<32} {:>12} {:>8} {:>12}",
        "workload", "topology", "net", "runtime", "vs fast", "miss-mean"
    );
    for workload in &report.workloads {
        for &topology in &report.topologies {
            let base = report
                .cell_for_net(
                    workload,
                    topology,
                    ProtocolKind::TsSnoop,
                    NetworkModelSpec::Fast,
                )
                .map(|c| c.runtime_ns());
            for &net in &report.nets {
                let Some(c) = report.cell_for_net(workload, topology, ProtocolKind::TsSnoop, net)
                else {
                    continue;
                };
                println!(
                    "{:<10} {:<12} {:<32} {:>10}ns {:>8} {:>10.0}ns",
                    c.workload,
                    topology.to_string(),
                    net.to_string(),
                    c.runtime_ns(),
                    norm(c.runtime_ns(), base.unwrap_or(c.runtime_ns())),
                    c.stats.miss_latency.mean_ns().unwrap_or(0.0),
                );
            }
        }
    }
    println!(
        "\nunloaded (occ=0) detailed runs re-order identically to the fast model\n\
         (tests/tests/equivalence.rs); positive occupancy stalls the token wave,\n\
         so ordering instants — and runtimes — only move up from the fast column."
    );
    cli.emit(&report);
}
