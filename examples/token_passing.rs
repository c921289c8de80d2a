//! Figure 1, executable: the token-passing example of §2.2 on a 2×2
//! switch, then the same mechanism running a whole 4×4 torus.
//!
//! ```sh
//! cargo run -p tss-examples --bin token_passing
//! ```

use std::sync::Arc;

use tss_net::{DetailedNet, DetailedNetConfig, Fabric, NodeId, SwitchCore};
use tss_sim::Time;

fn figure1() {
    println!("=== Figure 1: token passing on a 2x2 switch ===\n");
    let mut sw: SwitchCore<&str> = SwitchCore::new(2, 2);
    sw.token_arrives(0);
    println!("(a) empty buffer; one pending token on input 0; msg(slack=1) arriving");

    let slack = sw.txn_enters(0, 1);
    sw.buffer(0, slack, 1, "msg"); // short branch, ΔD = 1
    sw.buffer(1, slack, 0, "msg"); // long branch, ΔD = 0
    println!(
        "(b) msg moves past the token counter and buffers: slack {} (ΔGT=+1)",
        slack
    );

    sw.token_arrives(0);
    sw.token_arrives(1);
    println!(
        "(c) tokens arrive on both inputs: counters = [{}, {}]",
        sw.tokens_pending(0),
        sw.tokens_pending(1)
    );

    assert!(sw.propagate());
    println!(
        "(d) switch propagates a token past the buffered msg: slack -> {:?} (ΔGT=-1), GT={}",
        sw.buffered_slacks(1),
        sw.gt()
    );

    let (s_short, _) = sw.pop_sendable(0).unwrap();
    let (s_long, _) = sw.pop_sendable(1).unwrap();
    println!(
        "(e) contention clears; msg issued: short branch slack {} (ΔD=1), long branch slack {} (ΔD=0)\n",
        s_short, s_long
    );
}

fn whole_network() {
    println!("=== The same mechanism ordering a 4x4 torus ===\n");
    let mut net: DetailedNet<String> =
        DetailedNet::new(Arc::new(Fabric::torus4x4()), DetailedNetConfig::default());

    // Three processors issue coherence transactions at nearly the same
    // moment; the network assigns ordering times and every endpoint
    // processes them in the same total order.
    let a = net.inject(Time::from_ns(40), NodeId(3), "GETM 0x40 from n3".into());
    let b = net.inject(Time::from_ns(41), NodeId(12), "GETS 0x40 from n12".into());
    let c = net.inject(Time::from_ns(42), NodeId(0), "GETS 0x80 from n0".into());
    println!("injected with ordering times OT={a}, OT={b}, OT={c}");

    let mut deliveries = Vec::new();
    net.drain_into(Time::from_ns(2_000), &mut deliveries);

    // Show the order established at two very different endpoints.
    for node in [NodeId(3), NodeId(10)] {
        let order: Vec<&str> = deliveries
            .iter()
            .filter(|d| d.dest == node)
            .map(|d| d.payload.as_str())
            .collect();
        println!("endpoint {node} processed: {order:?}");
    }
    let s = &net.stats()[0]; // the torus is one plane
    println!(
        "\ntoken rounds completed: {} (one per 15 ns link traversal), worst ordering delay {} ns",
        s.min_endpoint_gt,
        s.ordering_delay.max().unwrap().as_ns()
    );
}

fn main() {
    figure1();
    whole_network();
}
