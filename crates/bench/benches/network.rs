//! Host cost of the network substrates themselves: the fast ordered
//! network, the detailed token network, and fabric construction. Uses the
//! workspace harness (`tss_bench::harness`) — the offline build has no
//! criterion.

use std::sync::Arc;

use tss_bench::harness::Runner;
use tss_net::{DetailedNet, DetailedNetConfig, Fabric, FastOrderedNet, NodeId, OrderedNetTiming};
use tss_sim::Time;

fn main() {
    let runner = Runner::from_args();
    println!("network substrates: host cost per operation batch\n");
    runner.bench("fast_net/inject_drain_1000_broadcasts", 10, || {
        let fabric = Arc::new(Fabric::butterfly16());
        let mut net = FastOrderedNet::new(fabric, OrderedNetTiming::paper_default());
        let mut last = Time::ZERO;
        for i in 0..1000u64 {
            last = net.inject(Time::from_ns(i * 3), NodeId((i % 16) as u16), i);
        }
        let mut out = Vec::new();
        net.drain_into(last, &mut out);
        std::hint::black_box(out.len())
    });
    runner.bench("detailed_net/torus_50_broadcasts", 10, || {
        let fabric = Arc::new(Fabric::torus4x4());
        let mut net: DetailedNet<u64> = DetailedNet::new(fabric, DetailedNetConfig::default());
        for i in 0..50u64 {
            net.inject(Time::from_ns(40 + i * 11), NodeId((i % 16) as u16), i);
        }
        net.run_until(Time::from_ns(2_000));
        std::hint::black_box(net.take_deliveries().len())
    });
    runner.bench("fabric/butterfly16_with_trees", 100, || {
        std::hint::black_box(Fabric::butterfly16().num_switches())
    });
    runner.bench("fabric/torus8x8_with_trees", 100, || {
        std::hint::black_box(Fabric::torus(8, 8).num_switches())
    });
}
