//! Tests of [`DetailedNet`](super::DetailedNet) across fabric planes.
//!
//! The paper's butterfly address network is four parallel butterflies,
//! selected round-robin (§4.2). One net simulates them all on one
//! calendar and merges each node's copies at its min-GT frontier; these
//! tests check the round-robin plane choice, the merged total order and
//! the released trace the full-system simulator polls.

mod tests {
    use std::sync::Arc;

    use tss_sim::{Duration, Gt, Time};

    use super::super::net::tests::{assert_contended_digest, contended_digests, drain};
    use super::super::{DetailedNet, DetailedNetConfig};
    use crate::ids::NodeId;
    use crate::topology::Fabric;

    fn net(cfg: DetailedNetConfig) -> DetailedNet<u32> {
        DetailedNet::new(Arc::new(Fabric::butterfly16()), cfg)
    }

    #[test]
    fn round_robin_spreads_over_planes() {
        let mut n = net(DetailedNetConfig::default());
        for i in 0..8u32 {
            n.inject(Time::from_ns(10 + i as u64), NodeId(3), i);
        }
        let planes_used = n.stats().iter().filter(|s| s.injected > 0).count();
        assert_eq!(planes_used, 4, "all four planes used");
    }

    #[test]
    fn all_endpoints_agree_on_the_merged_order() {
        let mut n = net(DetailedNetConfig::default());
        let mut t = 10;
        for i in 0..24u32 {
            n.inject(Time::from_ns(t), NodeId((i * 5 % 16) as u16), i);
            t += 17;
        }
        let deliveries = drain(&mut n, Time::from_ns(10_000));
        assert_eq!(deliveries.len(), 24 * 16);
        let mut orders: Vec<Vec<u32>> = vec![Vec::new(); 16];
        for d in &deliveries {
            orders[d.dest.index()].push(*d.payload);
        }
        for o in &orders[1..] {
            assert_eq!(o, &orders[0], "planes merged inconsistently");
        }
    }

    #[test]
    fn same_source_same_tick_keeps_injection_order() {
        let mut n = net(DetailedNetConfig::default());
        // Two injections from one source in the same GT tick go to
        // different planes but must stay in injection order everywhere.
        n.inject(Time::from_ns(100), NodeId(7), 1);
        n.inject(Time::from_ns(101), NodeId(7), 2);
        let deliveries = drain(&mut n, Time::from_ns(5_000));
        let at0: Vec<u32> = deliveries
            .iter()
            .filter(|d| d.dest == NodeId(0))
            .map(|d| *d.payload)
            .collect();
        assert_eq!(at0, vec![1, 2]);
    }

    #[test]
    fn min_gt_gates_release_under_per_plane_skew() {
        // Congest the links: planes can skew; deliveries must still come
        // out consistent and complete.
        let mut n = net(DetailedNetConfig {
            link_occupancy: Duration::from_ns(25),
            initial_slack: 2,
            ..DetailedNetConfig::default()
        });
        for i in 0..32u32 {
            n.inject(Time::from_ns(10 + 3 * i as u64), NodeId((i % 16) as u16), i);
        }
        let deliveries = drain(&mut n, Time::from_ns(50_000));
        assert_eq!(deliveries.len(), 32 * 16);
        let mut orders: Vec<Vec<u32>> = vec![Vec::new(); 16];
        for d in &deliveries {
            orders[d.dest.index()].push(*d.payload);
        }
        for o in &orders[1..] {
            assert_eq!(o, &orders[0]);
        }
    }

    #[test]
    fn endpoint_gt_is_min_over_planes() {
        let mut n = net(DetailedNetConfig::default());
        n.run_until(Time::from_ns(150));
        // Idle and unloaded: all planes tick in lock step.
        assert_eq!(n.endpoint_gt(NodeId(0)), Gt::from_ticks(11));
        assert_eq!(n.stats().len(), 4);
    }

    /// [`DetailedNet::outstanding`] is maintained per step, with no
    /// lifetime totals whose product could overflow: it counts every copy
    /// from injection until its release through the min-GT gate.
    #[test]
    fn outstanding_survives_huge_lifetime_counters() {
        let mut n = net(DetailedNetConfig::default());
        n.inject(Time::from_ns(10), NodeId(0), 1);
        assert_eq!(n.outstanding(), 16, "one broadcast, 16 copies pending");
        let deliveries = drain(&mut n, Time::from_ns(2_000));
        assert_eq!(n.outstanding(), 0);
        assert_eq!(deliveries.len(), 16);
    }

    /// Starting all planes just below the era rollover must not disturb
    /// the merged order: same deliveries, same release instants, OTs
    /// shifted by exactly the origin.
    #[test]
    fn era_rollover_merge_matches_zero_origin() {
        let drive = |origin: Gt| -> Vec<(u64, u16, u16, u64, u64)> {
            let mut n: DetailedNet<u32> = DetailedNet::new(
                Arc::new(Fabric::butterfly16()),
                DetailedNetConfig {
                    link_occupancy: Duration::from_ns(25),
                    gt_origin: origin,
                    ..DetailedNetConfig::default()
                },
            );
            for i in 0..32u32 {
                n.inject(Time::from_ns(10 + 3 * i as u64), NodeId((i % 16) as u16), i);
            }
            drain(&mut n, Time::from_ns(50_000))
                .iter()
                .map(|d| {
                    (
                        d.ordered_at.as_ns(),
                        d.dest.0,
                        d.src.0,
                        d.seq,
                        d.ot.delta_since(origin),
                    )
                })
                .collect()
        };
        let origin = Gt::from_parts(0, Gt::TICK_MASK - 1);
        assert_eq!(
            drive(origin),
            drive(Gt::ZERO),
            "era rollover changed the merged release log"
        );
    }

    #[test]
    fn traffic_after_a_long_idle_gap_is_delivered_on_all_planes() {
        let mut n = net(DetailedNetConfig::default());
        for i in 0..8u32 {
            n.inject(Time::from_ns(10 + i as u64), NodeId(i as u16), i);
        }
        assert_eq!(drain(&mut n, Time::from_ns(1_000)).len(), 8 * 16);
        // Every plane simulates ~33k idle token waves to reach a much
        // later injection; its copies still all come out.
        n.inject(Time::from_ns(500_000), NodeId(2), 99);
        assert_eq!(drain(&mut n, Time::from_ns(501_000)).len(), 16);
    }

    /// The four-plane rows of the contended-trace table: butterfly16 runs
    /// every plane on one calendar, so these also pin the round-robin
    /// plane choice and the min-GT merge.
    #[test]
    fn contended_trace_matches_pinned_digests() {
        for (fabric, origin, want) in contended_digests() {
            if fabric.planes() > 1 {
                assert_contended_digest(fabric, origin, want);
            }
        }
    }

    #[test]
    fn torus_single_plane_works_through_the_same_api() {
        let mut n: DetailedNet<u32> =
            DetailedNet::new(Arc::new(Fabric::torus4x4()), DetailedNetConfig::default());
        n.inject(Time::from_ns(40), NodeId(2), 9);
        assert_eq!(drain(&mut n, Time::from_ns(2_000)).len(), 16);
    }
}
