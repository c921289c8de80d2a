//! Single-miss latency sweep: the measured cost of one cache-to-cache
//! and one memory miss under every protocol × topology in the grid — the
//! per-protocol view Table 2 aggregates, and the quantity §5 credits for
//! timestamp snooping's runtime wins.

use tss::experiment::{GridReport, RunReport};
use tss::{System, SystemStats};
use tss_bench::Cli;
use tss_proto::{Block, CpuOp};
use tss_workloads::{micro, TraceItem};

/// One owner-store / requester-load pair: the classic 3-hop miss.
/// Returns the run stats and the requester's node index (whose per-node
/// latency is the cache-to-cache measurement — the owner's cold store is
/// a memory miss and must not be conflated with it).
fn c2c_stats(protocol: tss::ProtocolKind, topology: tss::TopologyKind) -> (SystemStats, usize) {
    let n = topology.validate().expect("validated by the CLI") as usize;
    let owner = 1 % n;
    let requester = (n / 2 + 1) % n;
    let stats = System::builder()
        .protocol(protocol)
        .topology(topology)
        .traces(micro::single_miss_pair(owner, requester, Block(5), n))
        .build()
        .unwrap_or_else(|e| panic!("cell validated by the CLI: {e}"))
        .run()
        .stats;
    (stats, requester)
}

/// One cold load served by memory.
fn memory_stats(protocol: tss::ProtocolKind, topology: tss::TopologyKind) -> SystemStats {
    let traces = vec![vec![TraceItem {
        gap_instructions: 4,
        op: CpuOp::Load(Block(9)),
    }]];
    System::builder()
        .protocol(protocol)
        .topology(topology)
        .traces(traces)
        .build()
        .unwrap_or_else(|e| panic!("cell validated by the CLI: {e}"))
        .run()
        .stats
}

fn main() {
    let cli = Cli::parse();
    // Cells here are hand-measured microbenchmarks, not grid cells:
    // neither content addressing nor sharding applies.
    cli.forbid_shard("latency");
    cli.forbid_resume("latency");
    cli.forbid_remote("latency");
    println!("Single-miss latencies (unloaded; Table 2's measured counterparts)\n");
    println!(
        "{:<12} {:<12} {:>16} {:>16}",
        "topology", "protocol", "c2c miss (ns)", "memory miss (ns)"
    );
    let mut cells: Vec<RunReport> = Vec::new();
    for &topology in &cli.topologies {
        if let Err(e) = topology.validate() {
            eprintln!("skipping {topology}: {e}");
            continue;
        }
        for &protocol in &cli.protocols {
            let (c2c, requester) = c2c_stats(protocol, topology);
            let mem = memory_stats(protocol, topology);
            println!(
                "{:<12} {:<12} {:>16} {:>16}",
                topology.label(),
                protocol.to_string(),
                c2c.miss_latency_per_node[requester]
                    .max()
                    .map_or(0, |d| d.as_ns()),
                mem.miss_latency.max().map_or(0, |d| d.as_ns()),
            );
            let cfg = System::builder()
                .protocol(protocol)
                .topology(topology)
                .build_config()
                .expect("validated above");
            cells.push(RunReport::from_stats("c2c-miss", &cfg, 1, c2c));
            cells.push(RunReport::from_stats("memory-miss", &cfg, 1, mem));
        }
    }
    println!(
        "\nSnooping's c2c miss needs two network crossings; a directory's\n\
         needs three — that gap, times Table 3's 40-60% c2c fractions, is\n\
         the Figure 3 runtime win."
    );
    cli.emit(&GridReport::from_cells("latency", cells));
}
