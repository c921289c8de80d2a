//! The fully declarative experiment runner: every axis comes from the
//! command line, nothing is hard-wired. The generic front door for
//! sweeps the other binaries don't cover.
//!
//! ```sh
//! # The paper's whole Figure 3/4 grid, as one artifact:
//! cargo run --release -p tss-bench --bin grid -- --json results/full.json
//!
//! # A custom sweep: two protocols, a 64-node torus, two workloads:
//! cargo run --release -p tss-bench --bin grid -- \
//!     --protocols ts-snoop,dir-opt --topologies torus:8x8 \
//!     --workloads oltp,dss --scale 0.005 --json results/big-torus.json
//!
//! # The same grid, computed by a sweep-server (byte-identical artifact):
//! cargo run --release -p tss-bench --bin grid -- \
//!     --remote http://127.0.0.1:7070 --json results/full.json
//! ```

use tss_bench::{norm, Cli};
use tss_server::client::{self, GridRequest};

/// Submits the grid to the sweep-server at `url`, streaming per-cell
/// progress to stderr, and returns the final report (whose `to_json`
/// bytes match a local run of the same axes).
fn run_remote(cli: &Cli, url: &str) -> tss::GridReport {
    let request = GridRequest {
        name: "grid".into(),
        scale: cli.scale,
        protocols: cli.protocols.clone(),
        topologies: cli.topologies.clone(),
        nets: vec![cli.net],
        workloads: cli.workloads.clone().unwrap_or_default(),
        seeds: vec![cli.seed],
        perturbation_ns: cli.perturbation_ns,
        perturbation_runs: cli.seeds,
    };
    eprintln!("submitting grid to {url}...");
    let mut cached = 0usize;
    let report = client::run_remote(url, &request, |event| {
        if event.cached {
            cached += 1;
        }
        eprintln!(
            "  [{}/{}] cell {} {}{}",
            event.done,
            event.total,
            event.index,
            &event.key[..event.key.len().min(12)],
            if event.cached { " (cached)" } else { "" },
        );
    })
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    // The summary line the CI smoke greps for.
    eprintln!("remote cells cached: {}/{}", cached, report.cells.len());
    report
}

fn run_local(cli: &Cli) -> tss::GridReport {
    let grid = cli.grid("grid");
    eprintln!(
        "running {} cells ({} workloads x {} topologies x {} protocols, seed {}, \
         min of {} perturbed runs)...",
        grid.cell_count(),
        cli.paper_workloads()
            .expect("validated at parse time")
            .len(),
        cli.topologies.len(),
        cli.protocols.len(),
        cli.seed,
        cli.seeds,
    );
    if cli.shard.1 > 1 {
        eprintln!(
            "shard {}/{}: this process runs every {}th cell only",
            cli.shard.0, cli.shard.1, cli.shard.1
        );
    }
    cli.run_grid(grid)
}

fn main() {
    let cli = Cli::parse();
    let report = match &cli.remote {
        Some(url) => run_remote(&cli, url),
        None => run_local(&cli),
    };
    if cli.resume.is_some() {
        eprintln!(
            "cell store served {}/{} cells",
            report.cached_cells(),
            report.cells.len()
        );
    }
    println!(
        "{:<10} {:<12} {:<12} {:>12} {:>8} {:>14} {:>8} {:>6}",
        "workload", "topology", "protocol", "runtime", "vs TS", "link-bytes", "vs TS", "c2c"
    );
    for workload in &report.workloads {
        for &topology in &report.topologies {
            let base = report
                .cell(workload, topology, tss::ProtocolKind::TsSnoop)
                .map(|c| (c.runtime_ns(), c.total_bytes()));
            for &protocol in &report.protocols {
                let Some(c) = report.cell(workload, topology, protocol) else {
                    continue;
                };
                let (rt0, by0) = base.unwrap_or((c.runtime_ns(), c.total_bytes()));
                println!(
                    "{:<10} {:<12} {:<12} {:>10}ns {:>8} {:>14} {:>8} {:>5.0}%",
                    c.workload,
                    topology.to_string(),
                    c.protocol.to_string(),
                    c.runtime_ns(),
                    norm(c.runtime_ns(), rt0),
                    c.total_bytes(),
                    norm(c.total_bytes(), by0),
                    100.0 * c.c2c_fraction(),
                );
            }
        }
    }
    cli.emit(&report);
}
