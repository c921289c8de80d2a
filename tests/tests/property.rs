//! Randomized property tests on the core invariants.
//!
//! The offline build has no `proptest`, so these run the same invariants
//! over seeded random cases drawn from [`SimRng`]: every case is fully
//! determined by its loop index, so failures reproduce exactly (the
//! panic message names the case seed).

use std::sync::Arc;

use tss::{ProtocolKind, System, TopologyKind};
use tss_net::{DetailedNet, DetailedNetConfig, Fabric, NodeId};
use tss_proto::{Block, CpuOp};
use tss_sim::rng::SimRng;
use tss_sim::{Duration, Gt, Time};
use tss_workloads::TraceItem;

/// Any valid fabric: random butterflies and tori, capped to keep runs fast.
fn random_fabric(rng: &mut SimRng) -> Fabric {
    if rng.chance(0.5) {
        let radix = 2 + rng.gen_range(0..3) as u32; // 2..=4
        let mut stages = 1 + rng.gen_range(0..3) as u32; // 1..=3
        if (radix as u64).pow(stages) > 64 {
            stages = 2;
        }
        let planes = 1 + rng.gen_range(0..2) as u32; // 1..=2
        Fabric::butterfly(radix, stages, planes)
    } else {
        let width = 2 + rng.gen_range(0..5) as u32; // 2..=6
        let height = 2 + rng.gen_range(0..5) as u32;
        Fabric::torus(width, height)
    }
}

/// Broadcast trees reach every node exactly once, within the weighted
/// diameter, and ΔD never exceeds the remaining depth.
#[test]
fn broadcast_trees_are_sound() {
    for case in 0..32u64 {
        let mut rng = SimRng::from_seed_and_stream(case, 0xB0);
        let fabric = random_fabric(&mut rng);
        let n = fabric.num_nodes();
        let src = NodeId(rng.index(n) as u16);
        for plane in 0..fabric.planes() {
            let tree = fabric.tree(plane, src);
            // Every node delivered at a positive-or-zero depth <= max.
            for d in 0..n {
                assert!(
                    tree.node_depth_weighted[d] <= tree.max_depth_weighted,
                    "case {case}: node {d} deeper than max"
                );
            }
            // Each tree edge's ΔD is bounded by the tree depth.
            for e in &tree.edges {
                assert!(e.delta_d <= tree.max_depth_links, "case {case}");
            }
            // The tree delivers to exactly n node endpoints (each node
            // exactly once: every node-terminated edge is distinct).
            let node_hits = tree
                .edges
                .iter()
                .filter(|e| fabric.links()[e.link.index()].to.as_node(n).is_some())
                .count();
            assert_eq!(node_hits, n, "case {case}");
        }
    }
}

/// Distances are symmetric and satisfy the diameter bound.
#[test]
fn distances_are_metric() {
    for case in 0..32u64 {
        let mut rng = SimRng::from_seed_and_stream(case, 0xD1);
        let fabric = random_fabric(&mut rng);
        let n = fabric.num_nodes();
        for a in 0..n {
            assert_eq!(fabric.distance(NodeId(a as u16), NodeId(a as u16)), 0);
            for b in 0..n {
                let ab = fabric.distance(NodeId(a as u16), NodeId(b as u16));
                let ba = fabric.distance(NodeId(b as u16), NodeId(a as u16));
                assert_eq!(ab, ba, "case {case}: {a}<->{b} asymmetric");
                assert!(ab <= fabric.max_distance(), "case {case}");
            }
        }
    }
}

/// `Gt` pack/unpack round-trips for arbitrary era/tick pairs, and the
/// wrapping comparison is a total order (antisymmetric, transitive) on
/// random triples clustered near an era boundary — the regime where a
/// plain `u64` compare inverts.
#[test]
fn gt_packing_and_order_survive_era_boundaries() {
    for case in 0..256u64 {
        let mut rng = SimRng::from_seed_and_stream(case, 0x67);

        // Round trip: era/tick in, same era/tick out, raw form stable.
        let era = rng.gen_range(0..1 + u16::MAX as u64) as u16;
        let tick = rng.gen_range(0..1 + Gt::TICK_MASK);
        let g = Gt::from_parts(era, tick);
        assert_eq!(g.era(), era, "case {case}");
        assert_eq!(g.tick(), tick, "case {case}");
        assert_eq!(Gt::from_raw(g.as_raw()), g, "case {case}");

        // A triple drawn from a window straddling the era-`edge` rollover
        // (well within the ±2^63 comparison horizon).
        let edge = Gt::from_parts(rng.gen_range(0..1 + u16::MAX as u64) as u16, Gt::TICK_MASK);
        let pick = |rng: &mut SimRng| edge.wrapping_add(rng.gen_range(0..4096));
        let (a, b, c) = (pick(&mut rng), pick(&mut rng), pick(&mut rng));
        assert_eq!(a < b, b > a, "case {case}: antisymmetry");
        assert_eq!(a == b, a >= b && b >= a, "case {case}: trichotomy");
        if a <= b && b <= c {
            assert!(a <= c, "case {case}: transitivity {a} {b} {c}");
        }
        // Within the window the wrapping order agrees with arithmetic
        // distance from the edge, even though raw values wrapped.
        let dist = |g: Gt| g.delta_since(edge);
        assert_eq!(a < b, dist(a) < dist(b), "case {case}");
    }
}

/// The detailed token network establishes one total order at every
/// endpoint, for any injection schedule, slack and (mild) contention.
/// (Its internal assertions additionally verify the OT bookkeeping on
/// every hop.)
#[test]
fn token_network_total_order() {
    for case in 0..32u64 {
        let mut rng = SimRng::from_seed_and_stream(case, 0x70);
        let count = 1 + rng.index(24);
        let slack = rng.gen_range(0..6);
        let occupancy = [0u64, 8, 25][rng.index(3)];
        let mut schedule: Vec<(u64, u16)> = (0..count)
            .map(|_| (rng.gen_range(0..400), rng.index(16) as u16))
            .collect();
        schedule.sort();

        let fabric = Arc::new(Fabric::torus4x4());
        let mut net: DetailedNet<u64> = DetailedNet::new(
            Arc::clone(&fabric),
            DetailedNetConfig {
                link_latency: Duration::from_ns(15),
                link_occupancy: Duration::from_ns(occupancy),
                initial_slack: slack,
                buffer_depth: u32::MAX,
                // Half the cases start just below the era rollover: the
                // total order must be identical to a zero-origin run.
                gt_origin: if case % 2 == 0 {
                    Gt::ZERO
                } else {
                    Gt::from_parts(0, Gt::TICK_MASK - rng.gen_range(0..64))
                },
            },
        );
        for (i, &(t, src)) in schedule.iter().enumerate() {
            net.inject(Time::from_ns(t), NodeId(src), i as u64);
        }
        net.run_until(Time::from_ns(30_000));
        let deliveries = net.take_deliveries();
        assert_eq!(deliveries.len(), schedule.len() * 16, "case {case}");
        let mut orders: Vec<Vec<u64>> = vec![Vec::new(); 16];
        for d in &deliveries {
            orders[d.dest.index()].push(*d.payload);
        }
        for o in &orders[1..] {
            assert_eq!(o, &orders[0], "case {case}: endpoints disagree on order");
        }
    }
}

/// Random op soup over 12 hot blocks on 8 CPUs.
fn random_traces(rng: &mut SimRng, ops: usize, cpus: usize) -> Vec<Vec<TraceItem>> {
    let mut traces: Vec<Vec<TraceItem>> = vec![Vec::new(); cpus];
    for i in 0..ops {
        let block = Block(0x500 + rng.gen_range(0..12)); // 12 hot blocks
        let op = match rng.index(3) {
            0 => CpuOp::Load(block),
            1 => CpuOp::Store(block),
            _ => CpuOp::Rmw(block),
        };
        traces[rng.index(cpus)].push(TraceItem {
            gap_instructions: 1 + (i as u64 * 13) % 120,
            op,
        });
    }
    traces
}

/// Every protocol must preserve every store and never deadlock, on
/// randomly generated conflicting traces; the built-in checker asserts
/// monotone observations, no lost updates, quiescent memory logs.
#[test]
fn protocols_preserve_all_stores() {
    for case in 0..24u64 {
        let mut rng = SimRng::from_seed_and_stream(case, 0x5702);
        let protocol = ProtocolKind::WITH_TARDIS[rng.index(4)];
        let topology = [TopologyKind::Butterfly16, TopologyKind::Torus4x4][rng.index(2)];
        let ops = 1 + rng.index(119);
        let perturb = rng.gen_range(0..8);
        let traces = random_traces(&mut rng, ops, 8);
        // run() asserts: no deadlock, monotone observations, no lost
        // updates, quiescent memory logs.
        let _ = System::builder()
            .protocol(protocol)
            .topology(topology)
            .cache(tss_proto::CacheConfig::tiny(256, 4))
            .verify(true)
            .perturbation_ns(perturb)
            .seed(ops as u64)
            .traces(traces)
            .build()
            .unwrap_or_else(|e| panic!("case {case}: config invalid: {e}"))
            .run();
    }
}

/// Tardis lease expiry/renewal straddling the era(16)|tick(48) rollover:
/// seeded random workloads run with every logical timestamp (pts, wts,
/// rts, lease ends) seeded just below `Gt::TICK_MASK` must reproduce the
/// zero-origin run exactly — same per-op observed values, same lease
/// bookkeeping — because all lease arithmetic goes through the wrapping
/// [`Gt`] order. The system-level face of the `--gt-origin` battery, for
/// the one protocol whose *coherence decisions* (not just its network
/// ordering) ride on those counters.
#[test]
fn tardis_leases_are_origin_invariant_across_rollover() {
    for case in 0..16u64 {
        let mut rng = SimRng::from_seed_and_stream(case, 0x7A3D15);
        let topology = [TopologyKind::Butterfly16, TopologyKind::Torus4x4][rng.index(2)];
        let ops = 60 + rng.index(120);
        let perturb = rng.gen_range(0..6);
        let traces = random_traces(&mut rng, ops, 8);
        let run = |origin: u64| {
            let r = System::builder()
                .protocol(ProtocolKind::Tardis)
                .topology(topology)
                .cache(tss_proto::CacheConfig::tiny(64, 2))
                .verify(true)
                .record_observations(true)
                .perturbation_ns(perturb)
                .seed(case)
                .gt_origin(origin)
                .traces(traces.clone())
                .build()
                .unwrap_or_else(|e| panic!("case {case}: config invalid: {e}"))
                .run();
            let p = r.stats.protocol;
            (
                r.observations,
                (p.hits, p.misses, p.lease_renewals, p.leases_granted),
            )
        };
        let (base_obs, base_counters) = run(0);
        // Start 0..LEASE-ish ticks below the era edge so grants, commits
        // and expiries all wrap mid-run.
        let below = rng.gen_range(0..64);
        let origin = Gt::from_parts(0, Gt::TICK_MASK - below).as_raw();
        let (obs, counters) = run(origin);
        assert_eq!(
            obs, base_obs,
            "case {case}: observed values diverged at origin TICK_MASK-{below}"
        );
        assert_eq!(
            counters, base_counters,
            "case {case}: lease bookkeeping diverged at origin TICK_MASK-{below}"
        );
    }
}
