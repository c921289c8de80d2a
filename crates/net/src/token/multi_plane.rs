//! Multi-plane composition of the detailed token network.
//!
//! The paper's butterfly address network is **four parallel butterflies,
//! selected round-robin** (§4.2). Each plane is an independent token
//! domain; a node's effective guarantee time is the *minimum* over its
//! per-plane GTs, because a transaction with OT ≤ GT could still be in
//! flight on any plane whose GT has not yet passed it.
//!
//! [`MultiPlaneNet`] runs one [`DetailedNet`] per plane, assigns each
//! injection to a plane round-robin per source, and merges per-plane
//! deliveries through a per-endpoint priority queue released at the
//! min-GT frontier. Ordering times stay globally comparable because every
//! plane starts with the same initial marking and (unloaded) ticks in
//! lock step; under skew (contention on one plane) the min-GT gate is
//! what keeps the total order safe.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use tss_sim::{Gt, GtKey, Time};

use crate::fast::Delivery;
use crate::ids::NodeId;
use crate::topology::Fabric;
use crate::traffic::{MsgClass, TrafficLedger};

use super::net::{DetailedNet, DetailedNetConfig};

#[derive(Debug)]
struct MergeEntry<P> {
    /// `(OT, src, global seq)` packed into one wraparound-safe key: the
    /// same lexicographic order the old `(u64, u16, u64)` tuple gave, but
    /// correct across an era rollover of the ordering times.
    key: GtKey,
    delivery: Delivery<P>,
}

impl<P> PartialEq for MergeEntry<P> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<P> Eq for MergeEntry<P> {}
impl<P> PartialOrd for MergeEntry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for MergeEntry<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// The multi-plane timestamp address network (paper: four butterflies,
/// round-robin).
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use tss_net::{Fabric, MultiPlaneNet, DetailedNetConfig, NodeId};
/// use tss_sim::Time;
///
/// let fabric = Arc::new(Fabric::butterfly16()); // 4 planes
/// let mut net = MultiPlaneNet::new(fabric, DetailedNetConfig::default());
/// for i in 0..8u32 {
///     net.inject(Time::from_ns(10 + i as u64), NodeId(0), i);
/// }
/// let mut deliveries = Vec::new();
/// net.drain_into(Time::from_ns(2_000), &mut deliveries);
/// // 8 broadcasts, spread over all 4 planes, merged back into one order.
/// assert_eq!(deliveries.len(), 8 * 16);
/// ```
#[derive(Debug)]
pub struct MultiPlaneNet<P> {
    planes: Vec<DetailedNet<P>>,
    fabric: Arc<Fabric>,
    rr: Vec<u32>,
    merge: Vec<BinaryHeap<Reverse<MergeEntry<P>>>>,
    /// Entries the merge heaps still hold (skip GT scans when zero).
    merge_pending: usize,
    /// Copies past the min-GT gate, each stamped with the instant the gate
    /// opened, awaiting [`MultiPlaneNet::drain_into`].
    released: Vec<Delivery<P>>,
    /// All-plane traffic ledger (per-plane ledgers merged at inject time).
    ledger: TrafficLedger,
    /// Endpoint-copies injected but not yet released, maintained per step
    /// (`+= num_nodes` at injection, `-= 1` per release).
    copies_outstanding: u64,
}

impl<P> MultiPlaneNet<P> {
    /// Builds one detailed network per fabric plane, all configured by
    /// `cfg`.
    pub fn new(fabric: Arc<Fabric>, cfg: DetailedNetConfig) -> Self {
        let planes = (0..fabric.planes())
            .map(|p| DetailedNet::for_plane(Arc::clone(&fabric), cfg, p))
            .collect();
        let n = fabric.num_nodes();
        let ledger = TrafficLedger::new(&fabric);
        MultiPlaneNet {
            planes,
            rr: vec![0; n],
            merge: (0..n).map(|_| BinaryHeap::new()).collect(),
            merge_pending: 0,
            released: Vec::new(),
            ledger,
            copies_outstanding: 0,
            fabric,
        }
    }

    /// Broadcasts `payload` from `src` on the next plane in round-robin
    /// order; returns `(plane, ordering time)`.
    pub fn inject(&mut self, now: Time, src: NodeId, payload: P) -> (usize, Gt) {
        // Advance every plane (not just the injected one) to the
        // injection instant: a lagging sibling plane would otherwise hand
        // out stale next-event times and hold the min-GT release gate
        // arbitrarily far in the past.
        self.run_until(now);
        let plane = (self.rr[src.index()] as usize) % self.planes.len();
        self.rr[src.index()] = self.rr[src.index()].wrapping_add(1);
        let ot = self.planes[plane].inject(now, src, payload);
        self.ledger
            .record_tree(self.fabric.tree(plane, src), MsgClass::Request);
        self.copies_outstanding += self.fabric.num_nodes() as u64;
        (plane, ot)
    }

    /// Advances every plane to `t`, stepping one event horizon at a time
    /// and merging newly processed deliveries through the min-GT gate at
    /// each step, so every release carries its *exact* gate-open instant
    /// (see [`MultiPlaneNet::drain_into`]) no matter how coarsely the
    /// caller polls.
    pub fn run_until(&mut self, t: Time) {
        while let Some(next) = self
            .planes
            .iter()
            .filter_map(DetailedNet::next_event_at)
            .min()
            .filter(|&next| next <= t)
        {
            for p in &mut self.planes {
                p.run_until(next);
            }
            self.collect_and_release(next);
        }
        // No events remain at or before `t`; just advance the clocks.
        for p in &mut self.planes {
            p.run_until(t);
        }
    }

    /// Releases every merged entry below its node's min-GT frontier,
    /// stamped `at`, in (node, key) order.
    fn release_frontier(&mut self, at: Time) {
        for node in 0..self.merge.len() {
            let gt_min = self.endpoint_gt(NodeId(node as u16));
            while let Some(Reverse(top)) = self.merge[node].peek() {
                if top.key.gt() >= gt_min {
                    break;
                }
                let Reverse(e) = self.merge[node].pop().expect("peeked");
                self.released.push(Delivery {
                    ordered_at: at,
                    ..e.delivery
                });
                self.copies_outstanding -= 1;
                self.merge_pending -= 1;
            }
        }
    }

    /// Collects per-plane deliveries into the per-endpoint merge heaps and
    /// releases everything below the min-GT frontier, stamped `at`. Each
    /// plane's delivery buffer is drained in place, keeping its capacity.
    fn collect_and_release(&mut self, at: Time) {
        let planes = self.planes.len() as u64;
        for (plane, net) in self.planes.iter_mut().enumerate() {
            for d in net.drain_deliveries() {
                // Per-source sequence numbers are per-plane; recover a
                // global tiebreak from (plane count, seq) structure:
                // within one source, plane assignment is round-robin,
                // so (seq * planes + plane) restores injection order.
                let seq_global = d.seq * planes + plane as u64;
                let e = MergeEntry {
                    key: GtKey::with_src_seq(d.ot, d.src.0, seq_global),
                    delivery: d,
                };
                self.merge[e.delivery.dest.index()].push(Reverse(e));
                self.merge_pending += 1;
            }
        }
        if self.merge_pending == 0 {
            return; // skip the per-node GT scan on idle token rounds
        }
        self.release_frontier(at);
    }

    /// Advances every plane to `now` ([`MultiPlaneNet::run_until`]) and
    /// appends every copy released so far to `out`, globally ordered per
    /// endpoint. Each copy's [`Delivery::ordered_at`] is the instant its
    /// min-GT gate opened — the moment a coherence controller may process
    /// it, even if the caller drains later than that. (The plane that
    /// carried the copy may have processed it earlier, having run ahead.)
    pub fn drain_into(&mut self, now: Time, out: &mut Vec<Delivery<P>>) {
        self.run_until(now);
        out.append(&mut self.released);
    }

    /// Minimum guarantee time of `node` across planes — the value its
    /// coherence controller may trust. `Gt`'s wrapping order keeps the
    /// minimum meaningful across an era rollover (per-plane skew is
    /// bounded, far inside the ±2^63 comparison window).
    pub fn endpoint_gt(&self, node: NodeId) -> Gt {
        self.planes
            .iter()
            .map(|p| p.endpoint_gt(node))
            .min()
            .expect("at least one plane")
    }

    /// Number of planes.
    pub fn planes(&self) -> usize {
        self.planes.len()
    }

    /// Request-class traffic recorded across all planes.
    pub fn ledger(&self) -> &TrafficLedger {
        &self.ledger
    }

    /// Endpoint-copies injected but not yet released to
    /// [`MultiPlaneNet::drain_into`]: in flight on a
    /// plane, waiting in a per-plane reorder queue, or held back by the
    /// min-GT merge gate.
    pub fn outstanding(&self) -> u64 {
        self.copies_outstanding
    }

    /// Timestamp of the earliest internal event across all planes. Token
    /// circulation never stops, so this is `Some` for every live network.
    pub fn next_event_at(&self) -> Option<Time> {
        self.planes
            .iter()
            .filter_map(DetailedNet::next_event_at)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tss_sim::Duration;

    fn net(cfg: DetailedNetConfig) -> MultiPlaneNet<u32> {
        MultiPlaneNet::new(Arc::new(Fabric::butterfly16()), cfg)
    }

    fn drain(n: &mut MultiPlaneNet<u32>, now: Time) -> Vec<Delivery<u32>> {
        let mut out = Vec::new();
        n.drain_into(now, &mut out);
        out
    }

    #[test]
    fn round_robin_spreads_over_planes() {
        let mut n = net(DetailedNetConfig::default());
        let mut planes_used = std::collections::BTreeSet::new();
        for i in 0..8u32 {
            let (p, _) = n.inject(Time::from_ns(10 + i as u64), NodeId(3), i);
            planes_used.insert(p);
        }
        assert_eq!(planes_used.len(), 4, "all four planes used");
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
        assert_eq!(n.planes(), 4);
    }

    /// [`MultiPlaneNet::outstanding`] is maintained per step, with no
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
            let mut n: MultiPlaneNet<u32> = MultiPlaneNet::new(
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

    /// Pins the four-plane path the butterfly cells run through: the
    /// contended schedule over `butterfly16` at GT origin zero and two
    /// ticks before an era rollover, hashing the released log and every
    /// plane's final stats. A moved digest means per-plane event order,
    /// the round-robin plane choice or the min-GT merge changed.
    #[test]
    fn contended_trace_matches_pinned_digests() {
        use super::super::net::tests::{contended_cfg, contended_schedule, CONTENDED_END};
        use tss_sim::hash::fingerprint128;
        let era_edge = Gt::from_parts(0, Gt::TICK_MASK - 1);
        for (origin, want) in [
            (Gt::ZERO, "c72aa6562b54cd03522cd273f68be477"),
            (era_edge, "331d2bf3759491f07c557e6f4d0f908b"),
        ] {
            let mut n = net(contended_cfg(origin));
            for (at, src, payload) in contended_schedule() {
                n.inject(at, src, payload);
            }
            let log: Vec<_> = drain(&mut n, CONTENDED_END)
                .iter()
                .map(|d| {
                    (
                        d.dest.0,
                        d.src.0,
                        d.seq,
                        d.ot,
                        d.arrival,
                        d.ordered_at,
                        *d.payload,
                    )
                })
                .collect();
            assert_eq!(log.len(), 48 * 16, "every copy released");
            let stats: Vec<String> = n
                .planes
                .iter()
                .map(|p| format!("{:?}", p.stats()))
                .collect();
            let digest = fingerprint128(format!("{log:?} {stats:?}").as_bytes());
            assert_eq!(
                format!("{digest:032x}"),
                want,
                "four-plane trace moved at origin {origin:?}"
            );
        }
    }

    #[test]
    fn torus_single_plane_works_through_the_same_api() {
        let mut n: MultiPlaneNet<u32> =
            MultiPlaneNet::new(Arc::new(Fabric::torus4x4()), DetailedNetConfig::default());
        n.inject(Time::from_ns(40), NodeId(2), 9);
        assert_eq!(drain(&mut n, Time::from_ns(2_000)).len(), 16);
    }
}
