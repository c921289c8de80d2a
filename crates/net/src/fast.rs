//! Fast (closed-form) model of the timestamp-ordered address network.
//!
//! The paper's performance evaluation models "unloaded network latencies
//! \[and\] timestamp snooping ordering delays" but **not** network contention
//! (§4.3). Under no contention, the token wave of §2.2 is perfectly
//! periodic: every switch and endpoint advances its guarantee time (GT) in
//! lock step, once per logical *tick*. That makes both halves of the
//! mechanism closed-form:
//!
//! * **OT assignment** — a transaction injected at physical time `t` gets
//!   `OT = ⌊t/τ⌋ + D_max + S` ticks, where `τ` is the tick period, `D_max`
//!   the logical distance to the furthest destination, and `S` the initial
//!   slack chosen by the source;
//! * **Ordering** — every endpoint's GT reaches `OT` at physical time
//!   `OT·τ`, so the transaction is processed *everywhere* at exactly
//!   `OT·τ` (its physical copies are guaranteed to have arrived by then —
//!   validated by an assertion on every delivery).
//!
//! The "augmented priority queue" of §2.2 is still real — a priority
//! queue keyed by `(OT, source, sequence)` — but since every endpoint of
//! the unloaded model holds an identical queue, the implementation keeps
//! **one** shared queue with a single entry per broadcast and builds the
//! endpoint copies (per-destination arrival times included) at drain
//! time — only for the endpoints the caller's target query names
//! ([`FastOrderedNet::drain_for`]), every endpoint by default.
//! Injection is O(log pending) instead of O(N log pending), and the
//! established total order stays explicit and testable. The detailed token-passing
//! network ([`DetailedNet`](crate::DetailedNet)) produces the same total
//! order and the same ordering instants when unloaded, offset by exactly
//! one conservative tick (its endpoints close tick X only when the token
//! advancing their GT past X arrives, one link latency after this model's
//! just-in-time deadline). Both halves of that claim are asserted in
//! `tests/tests/equivalence.rs`:
//!
//! * `butterfly_single_plane_equivalence` / `torus_equivalence` (and
//!   friends) check raw-network order and the `fast + one tick` instant
//!   offset per delivery;
//! * `address_net_unloaded_instants_match_fast_model` drives this model
//!   and [`DetailedNet`](crate::DetailedNet) through the
//!   `tss::address_net::AddressNet` trait the full-system simulator uses
//!   and asserts **byte-identical** ordering instants for unloaded
//!   (`link_occupancy = 0`) detailed runs against this model at
//!   `uniform(link, S + 1)`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use tss_sim::{Duration, Gt, GtKey, Time};

use crate::ids::{NodeId, NodeSet};
use crate::topology::Fabric;
use crate::traffic::{MsgClass, TrafficLedger};

/// How physical hop latency is computed from the fabric metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopTiming {
    /// Production timing (paper Table 2): `D_ovh` once per message plus
    /// `D_switch` per weight-1 link.
    Weighted {
        /// Enter/exit overhead (`D_ovh`, 4 ns in the paper).
        d_ovh: Duration,
        /// Per-link latency (`D_switch`, 15 ns in the paper).
        d_switch: Duration,
    },
    /// Uniform per-link latency on *every* link including on-die
    /// attachments; used to cross-validate against the detailed token
    /// network, whose logical-time metric counts all links equally.
    UniformLinks {
        /// Latency of every link.
        link: Duration,
    },
}

/// Timing configuration of the fast ordered network.
#[derive(Debug, Clone, Copy)]
pub struct OrderedNetTiming {
    /// Physical hop timing.
    pub hops: HopTiming,
    /// Logical tick period `τ`: how often GTs advance. The paper's switches
    /// can pass "one (or more) tokens" per port, so `τ` may be less than
    /// `D_switch`; `τ = 1 ns` models aggressive piggybacked tokens and
    /// reproduces the Table 2 latencies exactly.
    pub tick: Duration,
    /// Initial slack `S` assigned by sources ("setting S to a small
    /// positive value allows GTs to advance during moderate network
    /// contention", §2.2).
    pub initial_slack: u64,
    /// Guarantee time the network starts at. `Gt::ZERO` in normal runs;
    /// ordering times are assigned relative to it
    /// (`OT = origin + ⌊t/τ⌋ + D_max + S`) and physical ordering instants
    /// are derived from the *distance* to it, so a run seeded just below
    /// an era rollover behaves identically to the zero-origin run.
    pub gt_origin: Gt,
}

impl OrderedNetTiming {
    /// The paper's production configuration: `D_ovh = 4 ns`,
    /// `D_switch = 15 ns`, 1 ns ticks, slack 0.
    pub fn paper_default() -> Self {
        OrderedNetTiming {
            hops: HopTiming::Weighted {
                d_ovh: Duration::from_ns(4),
                d_switch: Duration::from_ns(15),
            },
            tick: Duration::from_ns(1),
            initial_slack: 0,
            gt_origin: Gt::ZERO,
        }
    }

    /// Configuration matching the detailed token network: uniform `link`
    /// latency, one tick per link traversal, slack `s`.
    pub fn uniform(link: Duration, s: u64) -> Self {
        OrderedNetTiming {
            hops: HopTiming::UniformLinks { link },
            tick: link,
            initial_slack: s,
            gt_origin: Gt::ZERO,
        }
    }

    fn validate(&self) {
        assert!(self.tick.as_ns() > 0, "tick period must be positive");
        // A transaction must reach its furthest destination no later than
        // `OT·τ`. The worst case is an injection just after a tick boundary
        // (phase τ-1), which costs strictly less than one tick of slack, so
        // S >= 1 always suffices; S = 0 additionally requires τ = 1 (all
        // event times are integer ns, so the phase is then always 0).
        assert!(
            self.initial_slack >= 1 || self.tick.as_ns() == 1,
            "initial slack 0 requires a 1 ns tick; the transaction could \
             otherwise miss its ordering deadline"
        );
    }
}

/// A transaction delivered (in logical order) to one endpoint — the one
/// delivery type of both address-network models.
#[derive(Debug, Clone)]
pub struct Delivery<P> {
    /// The endpoint this copy was delivered to.
    pub dest: NodeId,
    /// Source node of the broadcast.
    pub src: NodeId,
    /// Per-source injection sequence number: the source's `seq`-th
    /// broadcast, counted from 0 across all planes (the total-order
    /// tie-breaker). Both models hand out the same value.
    pub seq: u64,
    /// Ordering time, wraparound-safe.
    pub ot: Gt,
    /// Physical arrival time of this copy at `dest` (used by the prefetch
    /// optimisation: controllers may start a DRAM/SRAM access at arrival
    /// and respond once ordered — §3 optimisation 1).
    pub arrival: Time,
    /// When this copy became processable in the total order. The fast
    /// model gives every endpoint the same instant (`OT·τ`); the token
    /// model ([`DetailedNet`](crate::DetailedNet)) gives the instant the
    /// endpoint's min-GT gate opened — its guarantee time on every plane
    /// had passed `OT` — which can differ between endpoints under
    /// contention.
    pub ordered_at: Time,
    /// The broadcast payload.
    pub payload: Arc<P>,
}

/// A value ordered by its `(OT, source, sequence)` key alone, smallest
/// first under [`Reverse`]: the entry of every endpoint priority queue —
/// §2.2's augmented priority queue — in both address-network models. The
/// packed [`GtKey`] keeps the order correct across an era rollover.
#[derive(Debug)]
pub(crate) struct Keyed<T> {
    pub(crate) key: GtKey,
    pub(crate) value: T,
}

impl<T> PartialEq for Keyed<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for Keyed<T> {}
impl<T> PartialOrd for Keyed<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Keyed<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// One pending broadcast, stored **once** (not once per endpoint) under
/// its `(OT, source, sequence)` key: every endpoint sees the same total
/// order in the unloaded model, so the per-endpoint copies are derived at
/// drain time instead of being cloned into N reorder queues at injection.
/// The physical ordering instant is recomputed from the key's distance to
/// the origin instead of being stored.
#[derive(Debug)]
struct Pending<P> {
    /// Plane the broadcast tree was drawn from (round-robin per source).
    plane: usize,
    injected_at: Time,
    payload: Arc<P>,
}

/// The fast (unloaded, closed-form) timestamp-ordered broadcast network.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use tss_net::{Fabric, FastOrderedNet, NodeId, OrderedNetTiming};
/// use tss_sim::Time;
///
/// let fabric = Arc::new(Fabric::butterfly16());
/// let mut net = FastOrderedNet::new(fabric, OrderedNetTiming::paper_default());
/// let ordered_at = net.inject(Time::from_ns(100), NodeId(3), "GETS A");
/// // One way latency on the butterfly is 49 ns (Table 2); the transaction
/// // is processable everywhere once the guarantee time reaches its OT.
/// assert_eq!(ordered_at, Time::from_ns(149));
/// let mut deliveries = Vec::new();
/// net.drain_into(ordered_at, &mut deliveries);
/// assert_eq!(deliveries.len(), 16); // snooped by every endpoint
/// ```
#[derive(Debug)]
pub struct FastOrderedNet<P> {
    fabric: Arc<Fabric>,
    timing: OrderedNetTiming,
    /// One entry per broadcast; the N endpoint copies are materialised at
    /// drain time (see [`Pending`]).
    pending: BinaryHeap<Reverse<Keyed<Pending<P>>>>,
    /// Reusable scratch for the broadcasts popped by one drain.
    ready: Vec<Keyed<Pending<P>>>,
    /// The target set of each `ready` broadcast (reused across drains;
    /// may hold more sets than `ready` has entries).
    targets: Vec<NodeSet>,
    /// Every endpoint: what each target query starts from.
    all: NodeSet,
    /// The union of one drain's target sets: the endpoints that get at
    /// least one copy.
    union: NodeSet,
    seq: Vec<u64>,
    plane_rr: Vec<u32>,
    ledger: TrafficLedger,
}

impl<P> FastOrderedNet<P> {
    /// Creates the network over `fabric` with the given timing.
    ///
    /// # Panics
    ///
    /// Panics if the timing configuration cannot guarantee on-time delivery
    /// (see [`OrderedNetTiming`]).
    pub fn new(fabric: Arc<Fabric>, timing: OrderedNetTiming) -> Self {
        timing.validate();
        let n = fabric.num_nodes();
        let ledger = TrafficLedger::new(&fabric);
        FastOrderedNet {
            fabric,
            timing,
            pending: BinaryHeap::new(),
            ready: Vec::new(),
            targets: Vec::new(),
            all: NodeSet::all(n),
            union: NodeSet::new(n),
            seq: vec![0; n],
            plane_rr: vec![0; n],
            ledger,
        }
    }

    /// Physical instant at which an ordering time is reached: its distance
    /// from the origin, in ticks, times the tick period.
    #[inline]
    fn ordered_at_of(&self, ot: Gt) -> Time {
        Time::from_ns(ot.delta_since(self.timing.gt_origin) * self.timing.tick.as_ns())
    }

    /// Physical arrival delay of `src`'s broadcast (on `plane`) at `dest`,
    /// in nanoseconds from injection.
    fn arrival_ns(&self, plane: usize, src: NodeId, dest: usize) -> u64 {
        let tree = self.fabric.tree(plane, src);
        match self.timing.hops {
            HopTiming::Weighted { d_ovh, d_switch } => {
                d_ovh.as_ns() + d_switch.as_ns() * tree.node_depth_weighted[dest] as u64
            }
            HopTiming::UniformLinks { link } => link.as_ns() * tree.node_depth_links[dest] as u64,
        }
    }

    /// Broadcasts `payload` from `src`, assigning its ordering time.
    ///
    /// Returns the physical instant at which the transaction becomes
    /// processable at **every** endpoint (they all reach `GT = OT`
    /// simultaneously in the unloaded model). The caller should invoke
    /// [`FastOrderedNet::drain_for`] at that instant.
    pub fn inject(&mut self, now: Time, src: NodeId, payload: P) -> Time {
        let plane = (self.plane_rr[src.index()] as usize) % self.fabric.planes();
        self.plane_rr[src.index()] = self.plane_rr[src.index()].wrapping_add(1);
        let tree = self.fabric.tree(plane, src);

        let tau = self.timing.tick.as_ns();
        let gt_src = now.as_ns() / tau;
        let dmax_ns = match self.timing.hops {
            HopTiming::Weighted { d_ovh, d_switch } => {
                d_ovh.as_ns() + d_switch.as_ns() * tree.max_depth_weighted as u64
            }
            HopTiming::UniformLinks { link } => link.as_ns() * tree.max_depth_links as u64,
        };
        let dmax_ticks = dmax_ns.div_ceil(tau);
        let ot_rel = gt_src + dmax_ticks + self.timing.initial_slack;
        let ot = self.timing.gt_origin.wrapping_add(ot_rel);
        let ordered_at = Time::from_ns(ot_rel * tau);
        // The furthest destination is the binding one; nearer copies only
        // arrive earlier (per-copy arrivals are derived at drain time).
        assert!(
            now + Duration::from_ns(dmax_ns) <= ordered_at,
            "transaction would miss its ordering deadline \
             (arrival {:?} > ordered {ordered_at:?})",
            now + Duration::from_ns(dmax_ns)
        );

        let seq = self.seq[src.index()];
        self.seq[src.index()] += 1;

        self.pending.push(Reverse(Keyed {
            key: GtKey::with_src_seq(ot, src.0, seq),
            value: Pending {
                plane,
                injected_at: now,
                payload: Arc::new(payload),
            },
        }));

        self.ledger.record_tree(tree, MsgClass::Request);
        ordered_at
    }

    /// Appends to `out`, in the established total order, every endpoint
    /// copy of each transaction whose ordering time has been reached at
    /// `now`: [`FastOrderedNet::drain_for`] with a query that keeps every
    /// endpoint.
    pub fn drain_into(&mut self, now: Time, out: &mut Vec<Delivery<P>>) {
        self.drain_for(now, |_, _| {}, out);
    }

    /// Appends to `out` the copies of each transaction whose ordering time
    /// has been reached at `now`, for the endpoints `targets` names.
    ///
    /// `targets` is asked once per ready broadcast, before any copy is
    /// built: it receives the payload and a set holding every endpoint,
    /// and removes the endpoints that need no copy. Deliveries are
    /// grouped per endpoint in increasing id order; within an endpoint
    /// they follow the `(OT, source, sequence)` total order exactly. The
    /// result is the full drain's copies filtered by the query, in the
    /// same order.
    pub fn drain_for(
        &mut self,
        now: Time,
        mut targets: impl FnMut(&P, &mut NodeSet),
        out: &mut Vec<Delivery<P>>,
    ) {
        debug_assert!(self.ready.is_empty());
        while let Some(Reverse(top)) = self.pending.peek() {
            if self.ordered_at_of(top.key.gt()) > now {
                break;
            }
            let Reverse(p) = self.pending.pop().expect("peeked entry exists");
            self.ready.push(p);
        }
        if self.ready.is_empty() {
            return;
        }
        if self.targets.len() < self.ready.len() {
            self.targets.resize(self.ready.len(), self.all.clone());
        }
        self.union.clear();
        for (p, set) in self.ready.iter().zip(&mut self.targets) {
            set.copy_from(&self.all);
            targets(&p.value.payload, set);
            self.union.union_with(set);
        }
        for dest in self.union.iter() {
            for (&Keyed { key, value: ref p }, set) in self.ready.iter().zip(&self.targets) {
                if !set.contains(dest) {
                    continue;
                }
                let src = NodeId(key.src());
                let arrival =
                    p.injected_at + Duration::from_ns(self.arrival_ns(p.plane, src, dest.index()));
                let ordered_at = self.ordered_at_of(key.gt());
                debug_assert!(arrival <= ordered_at);
                out.push(Delivery {
                    dest,
                    src,
                    seq: key.seq(),
                    ot: key.gt(),
                    arrival,
                    ordered_at,
                    payload: Arc::clone(&p.payload),
                });
            }
        }
        self.ready.clear();
    }

    /// Earliest ordering instant among still-pending deliveries — when the
    /// next [`FastOrderedNet::drain_for`] call can make progress. The heap is
    /// `(OT, source, seq)`-ordered and `ordered_at` is monotone in OT, so
    /// the top entry carries the minimum.
    pub fn next_ordered_at(&self) -> Option<Time> {
        self.pending
            .peek()
            .map(|Reverse(p)| self.ordered_at_of(p.key.gt()))
    }

    /// The address-network traffic ledger (Request-class bytes).
    pub fn ledger(&self) -> &TrafficLedger {
        &self.ledger
    }

    /// The fabric this network runs over.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(fabric: Fabric) -> FastOrderedNet<u32> {
        FastOrderedNet::new(Arc::new(fabric), OrderedNetTiming::paper_default())
    }

    fn drain(n: &mut FastOrderedNet<u32>, now: Time) -> Vec<Delivery<u32>> {
        let mut out = Vec::new();
        n.drain_into(now, &mut out);
        out
    }

    #[test]
    fn butterfly_orders_at_one_way_latency() {
        let mut n = net(Fabric::butterfly16());
        // GT_src = 100, D_max = 4 + 3*15 = 49 ticks (1 ns ticks), S = 0.
        let t = n.inject(Time::from_ns(100), NodeId(0), 1);
        assert_eq!(t, Time::from_ns(149));
    }

    #[test]
    fn torus_orders_at_worst_case_latency() {
        let mut n = net(Fabric::torus4x4());
        // D_max = 4 + 4*15 = 64 ticks.
        let t = n.inject(Time::from_ns(0), NodeId(0), 1);
        assert_eq!(t, Time::from_ns(64));
    }

    #[test]
    fn all_endpoints_get_every_transaction_in_total_order() {
        let mut n = net(Fabric::torus4x4());
        // Interleave injections from several sources.
        let deadlines = [
            n.inject(Time::from_ns(5), NodeId(3), 30),
            n.inject(Time::from_ns(5), NodeId(1), 10),
            n.inject(Time::from_ns(7), NodeId(1), 11),
            n.inject(Time::from_ns(60), NodeId(9), 90),
        ];
        let last = *deadlines.iter().max().unwrap();
        let deliveries = drain(&mut n, last);
        assert_eq!(deliveries.len(), 4 * 16);
        // Extract the per-endpoint order and check they are identical.
        let mut orders: Vec<Vec<u32>> = vec![Vec::new(); 16];
        for d in &deliveries {
            orders[d.dest.index()].push(*d.payload);
        }
        for o in &orders[1..] {
            assert_eq!(o, &orders[0], "endpoints disagree on the total order");
        }
        // Ties at the same OT broke by source id: node 1 before node 3.
        assert_eq!(orders[0], vec![10, 30, 11, 90]);
        assert_eq!(n.next_ordered_at(), None);
    }

    #[test]
    fn same_source_ties_break_by_sequence() {
        let mut n = net(Fabric::butterfly16());
        // Two injections from the same node at the same nanosecond share an
        // OT; the sequence number must keep them in injection order.
        n.inject(Time::from_ns(42), NodeId(5), 1);
        n.inject(Time::from_ns(42), NodeId(5), 2);
        let deliveries = drain(&mut n, Time::from_ns(1_000));
        let at0: Vec<u32> = deliveries
            .iter()
            .filter(|d| d.dest == NodeId(0))
            .map(|d| *d.payload)
            .collect();
        assert_eq!(at0, vec![1, 2]);
    }

    #[test]
    fn drain_respects_ordering_deadline() {
        let mut n = net(Fabric::butterfly16());
        let t = n.inject(Time::from_ns(0), NodeId(0), 7);
        assert!(drain(&mut n, Time::from_ns(t.as_ns() - 1)).is_empty());
        assert_eq!(drain(&mut n, t).len(), 16);
    }

    #[test]
    fn arrival_times_follow_tree_depths() {
        let mut n = net(Fabric::torus4x4());
        n.inject(Time::from_ns(0), NodeId(0), 1);
        let deliveries = drain(&mut n, Time::from_ns(1_000));
        for d in &deliveries {
            let dist = n.fabric().distance(NodeId(0), d.dest);
            assert_eq!(d.arrival, Time::from_ns(4 + 15 * dist as u64));
        }
    }

    #[test]
    fn butterfly_planes_rotate_round_robin() {
        let mut n = net(Fabric::butterfly16());
        for _ in 0..8 {
            n.inject(Time::from_ns(0), NodeId(0), 1);
        }
        // 8 broadcasts x 21 links x 8 bytes, spread over 4 planes.
        assert_eq!(n.ledger().class_total(MsgClass::Request), 8 * 21 * 8);
        // Each plane's node-0 entry link saw exactly 2 broadcasts.
        assert_eq!(n.ledger().per_link_max(), 2 * 8);
    }

    #[test]
    fn slack_delays_ordering() {
        let timing = OrderedNetTiming {
            initial_slack: 10,
            ..OrderedNetTiming::paper_default()
        };
        let mut n: FastOrderedNet<u32> =
            FastOrderedNet::new(Arc::new(Fabric::butterfly16()), timing);
        let t = n.inject(Time::from_ns(0), NodeId(0), 1);
        assert_eq!(t, Time::from_ns(59)); // 49 + 10 ticks of slack
    }

    #[test]
    fn residency_statistics_accumulate() {
        let mut n = net(Fabric::torus4x4());
        n.inject(Time::from_ns(0), NodeId(0), 1);
        let deliveries = drain(&mut n, Time::from_ns(100));
        assert_eq!(deliveries.len(), 16);
        // Nearest destination (self) waits the longest: 64 - 4 = 60 ns.
        let wait = |d: &Delivery<u32>| d.ordered_at.since(d.arrival);
        assert_eq!(
            deliveries.iter().map(wait).max(),
            Some(Duration::from_ns(60))
        );
        let self_copy = deliveries.iter().find(|d| d.dest == NodeId(0)).unwrap();
        assert_eq!(wait(self_copy), Duration::from_ns(60));
    }

    #[test]
    #[should_panic(expected = "initial slack 0")]
    fn coarse_ticks_require_slack() {
        let timing = OrderedNetTiming {
            hops: HopTiming::Weighted {
                d_ovh: Duration::from_ns(4),
                d_switch: Duration::from_ns(15),
            },
            tick: Duration::from_ns(15),
            initial_slack: 0,
            gt_origin: Gt::ZERO,
        };
        let _: FastOrderedNet<u32> = FastOrderedNet::new(Arc::new(Fabric::torus4x4()), timing);
    }

    /// An origin just below the era rollover must leave every physical
    /// instant and delivery identical to the zero-origin run; only the
    /// (relative) OTs are shifted, crossing into era 1.
    #[test]
    fn era_rollover_origin_is_invisible_physically() {
        let drive = |origin: Gt| -> Vec<(u16, u16, u64, u64, u64, u64)> {
            let timing = OrderedNetTiming {
                gt_origin: origin,
                ..OrderedNetTiming::paper_default()
            };
            let mut n: FastOrderedNet<u32> =
                FastOrderedNet::new(Arc::new(Fabric::butterfly16()), timing);
            for i in 0..12u32 {
                n.inject(Time::from_ns(5 + 7 * i as u64), NodeId((i % 16) as u16), i);
            }
            drain(&mut n, Time::from_ns(10_000))
                .iter()
                .map(|d| {
                    (
                        d.dest.0,
                        d.src.0,
                        d.seq,
                        d.ot.delta_since(origin),
                        d.arrival.as_ns(),
                        d.ordered_at.as_ns(),
                    )
                })
                .collect()
        };
        let origin = Gt::from_parts(0, Gt::TICK_MASK - 10);
        let wrapped = drive(origin);
        assert_eq!(wrapped, drive(Gt::ZERO));
    }

    #[test]
    fn coarse_ticks_with_slack_work() {
        let timing = OrderedNetTiming {
            hops: HopTiming::Weighted {
                d_ovh: Duration::from_ns(4),
                d_switch: Duration::from_ns(15),
            },
            tick: Duration::from_ns(15),
            initial_slack: 2,
            gt_origin: Gt::ZERO,
        };
        let mut n: FastOrderedNet<u32> = FastOrderedNet::new(Arc::new(Fabric::torus4x4()), timing);
        // GT_src = 0, D_max = ceil(64/15) = 5 ticks, S = 2 -> OT = 7.
        let t = n.inject(Time::from_ns(7), NodeId(2), 1);
        assert_eq!(t, Time::from_ns(7 * 15));
        assert_eq!(drain(&mut n, t).len(), 16);
    }
}
