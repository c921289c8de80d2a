//! Event-driven simulation of the full token-passing address network.
//!
//! One net simulates every plane of its fabric — the paper's butterfly
//! address network is four parallel butterflies selected round-robin
//! (§4.2), each an independent token domain (§2.2) — on one calendar. A
//! vertex `v` of plane `p` is `p × num_vertices + v` in every per-vertex
//! table, so the planes share the calendar and the transaction slab but
//! never each other's state.
//!
//! One event loop drives it: [`DetailedNet::run_until`] pops every
//! calendar event of an instant, and the §2.2 handlers mutate the net's
//! state directly and schedule their follow-up events straight into the
//! calendar. No handler ever schedules *at* the current instant — every
//! emission lies at least one link latency or occupancy period ahead — and
//! the calendar breaks same-instant ties FIFO, so a run is a pure function
//! of its configuration and injection schedule. Once the instant's events
//! are done, every node releases the copies below its min-GT frontier
//! (see [`DetailedNet`]).
//!
//! Two choices keep the event loop cheap without moving any event in the
//! simulated order:
//!
//! - **Fused token fan-out.** A vertex that fires `count` times sends
//!   `count` tokens on every out-link, all one link latency ahead. Those
//!   tokens would sit next to each other in the same FIFO bucket, so one
//!   [`Ev::Tokens`] event delivers them all, in port order — exactly the
//!   order the per-link events would have been popped in, since no handler
//!   can schedule between them.
//! - **Slab-indexed transaction copies.** Every in-flight or buffered
//!   transaction copy lives in a per-net [`Slab`]; hop events and switch
//!   buffers carry its `u32` slot, so a hop allocates nothing.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use tss_sim::stats::LatencyStat;
use tss_sim::{Duration, EventQueue, Gt, GtKey, Time};

use crate::fast::{Delivery, Keyed};
use crate::ids::{LinkId, NodeId, Vertex};
use crate::topology::Fabric;
use crate::traffic::{MsgClass, TrafficLedger};

use super::switch_core::SwitchCore;

/// Configuration of the detailed token network.
#[derive(Debug, Clone, Copy)]
pub struct DetailedNetConfig {
    /// Latency of every link, for transactions and tokens alike. The
    /// detailed model charges a uniform per-link latency (no separate
    /// `D_ovh`), which makes the token wave's cadence uniform.
    pub link_latency: Duration,
    /// Minimum spacing between two transactions entering the same link.
    /// `0` disables bandwidth modeling (the paper's unloaded assumption);
    /// positive values create the contention the ablation study measures.
    pub link_occupancy: Duration,
    /// Initial slack `S` assigned at injection. `0` forces transactions to
    /// be delivered exactly on time, stalling guarantee times behind them.
    pub initial_slack: u64,
    /// Provisioned per-switch transaction buffering: the run panics if any
    /// switch ever holds more transaction copies than this (§2.2
    /// "Buffering"). `u32::MAX`, the default, leaves it unchecked.
    pub buffer_depth: u32,
    /// Guarantee time every switch and endpoint starts at. `Gt::ZERO` in
    /// normal runs; seeding it just below an era rollover exercises the
    /// wraparound-safe ordering end to end (results must be identical to
    /// the zero-origin run, merely shifted).
    pub gt_origin: Gt,
}

impl Default for DetailedNetConfig {
    fn default() -> Self {
        DetailedNetConfig {
            link_latency: Duration::from_ns(15),
            link_occupancy: Duration::ZERO,
            initial_slack: 2,
            buffer_depth: u32::MAX,
            gt_origin: Gt::ZERO,
        }
    }
}

/// Aggregate statistics of one plane of a detailed-network run.
#[derive(Debug, Clone, Default)]
pub struct DetailedNetStats {
    /// Minimum endpoint guarantee time (origin plus token rounds).
    pub min_endpoint_gt: Gt,
    /// Maximum endpoint guarantee time.
    pub max_endpoint_gt: Gt,
    /// Largest switch buffer occupancy observed anywhere.
    pub switch_buffer_high_water: usize,
    /// Arrival → processed delay at endpoints (the ordering delay the fast
    /// model computes in closed form).
    pub ordering_delay: LatencyStat,
    /// Transactions injected.
    pub injected: u64,
    /// Endpoint-copies processed.
    pub processed: u64,
}

#[derive(Debug)]
struct FlightTxn<P> {
    /// `(OT, src, seq)`: the copy's place in the total order.
    key: GtKey,
    /// The plane whose broadcast tree carries the copy.
    plane: u32,
    slack: u64,
    payload: Arc<P>,
}

// Manual impl: `P` itself need not be `Clone`, the payload is shared.
impl<P> Clone for FlightTxn<P> {
    fn clone(&self) -> Self {
        FlightTxn {
            key: self.key,
            plane: self.plane,
            slack: self.slack,
            payload: Arc::clone(&self.payload),
        }
    }
}

/// Storage for the in-flight transaction copies, addressed by `u32` slot.
/// Freed slots are reused last-in first-out, so a steady-state run stops
/// allocating once the slab has grown to its peak occupancy.
#[derive(Debug)]
struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(value);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("slab outgrew u32 slots");
                self.slots.push(Some(value));
                slot
            }
        }
    }

    fn get(&self, slot: u32) -> &T {
        self.slots[slot as usize].as_ref().expect("live slab slot")
    }

    fn get_mut(&mut self, slot: u32) -> &mut T {
        self.slots[slot as usize].as_mut().expect("live slab slot")
    }

    fn remove(&mut self, slot: u32) -> T {
        let value = self.slots[slot as usize].take().expect("live slab slot");
        self.free.push(slot);
        value
    }
}

/// One calendar event. Tokens outnumber transactions by orders of
/// magnitude, so an event carries no payload: a token event names the
/// firing vertex (as its all-plane index), and a transaction hop names its
/// copy's [`Slab`] slot.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// `from` fired `count` times one link latency ago: `count` rounds of
    /// tokens arrive over its out-links, in port order.
    Tokens { from: u32, count: u32 },
    /// The transaction copy in slab slot `slot` arrives over `link`.
    Txn { link: LinkId, slot: u32 },
    /// `link` may be free for the next buffered copy.
    LinkFree { link: LinkId },
}

// The token net's calendar event pin: a tag and two `u32` fields (see
// the `size-pins` CI check).
const _: () = assert!(
    std::mem::size_of::<Ev>() <= 12,
    "token-net calendar event grew past 12 bytes"
);

/// An endpoint queue of transaction copies, each `(arrival, payload)`
/// under its `(OT, src, seq)` key, smallest key first.
type CopyQueue<P> = BinaryHeap<Reverse<Keyed<(Time, Arc<P>)>>>;

/// The detailed (switch-by-switch, token-by-token) timestamp network,
/// over every plane of its fabric.
///
/// Every rule of §2.2 executes literally: rule-1 slack bumps at switch
/// entry, rule-2 decrements on token propagation (with zero-slack
/// transactions blocking tokens), rule-3 `ΔD` adjustments per branch, and
/// endpoint priority-queue reordering. An internal assertion checks the
/// paper's central invariant on every delivery: a transaction is processed
/// exactly when the endpoint's guarantee time on its plane equals the
/// transaction's ordering time.
///
/// Each source broadcasts on the planes round-robin, starting at plane 0
/// (§4.2). A node's effective guarantee time is the *minimum* over its
/// per-plane GTs, because a transaction with OT ≤ GT could still be in
/// flight on any plane whose GT has not yet passed it: a copy processed on
/// its plane waits in the node's merge queue until then, and is released
/// to [`DetailedNet::drain_into`] stamped with that instant. Ordering
/// times stay globally comparable because every plane starts with the
/// same initial marking and (unloaded) ticks in lock step; under skew
/// (contention on one plane) the min-GT gate is what keeps the total order
/// safe.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use tss_net::{DetailedNet, DetailedNetConfig, Fabric, NodeId};
/// use tss_sim::Time;
///
/// let fabric = Arc::new(Fabric::butterfly16()); // 4 planes
/// let mut net = DetailedNet::new(fabric, DetailedNetConfig::default());
/// for i in 0..8u32 {
///     net.inject(Time::from_ns(10 + i as u64), NodeId(0), i);
/// }
/// let mut deliveries = Vec::new();
/// net.drain_into(Time::from_ns(2_000), &mut deliveries);
/// // 8 broadcasts, spread over all 4 planes, merged back into one order
/// // and snooped everywhere.
/// assert_eq!(deliveries.len(), 8 * 16);
/// ```
#[derive(Debug)]
pub struct DetailedNet<P> {
    fabric: Arc<Fabric>,
    cfg: DetailedNetConfig,
    /// Vertices per plane: vertex `v` of plane `p` is `p × nv + v` in every
    /// per-vertex table.
    nv: usize,
    num_nodes: usize,
    /// Per-vertex token core, all planes; `None` for a switch of another
    /// plane. A switch buffer entry is a [`Slab`] slot.
    cores: Vec<Option<SwitchCore<u32>>>,
    /// Per-plane endpoint reorder queues, indexed `plane × num_nodes +
    /// node`: a copy waits here until its plane's GT passes its OT.
    reorder: Vec<CopyQueue<P>>,
    /// Per-node merge queues: a copy processed on its plane waits here
    /// until the node's GT on every plane has passed its OT.
    merge: Vec<CopyQueue<P>>,
    /// Copies parked in reorder queues (skip the per-wave reorder peeks
    /// when zero).
    reorder_parked: usize,
    /// Copies waiting in merge queues (skip the per-instant release scan
    /// when zero).
    merge_pending: usize,
    /// Copies past the min-GT gate, each stamped with the instant the gate
    /// opened, awaiting [`DetailedNet::drain_into`].
    released: Vec<Delivery<P>>,
    /// Per-source injection count: the next broadcast's sequence number,
    /// which also picks its plane round-robin.
    next_seq: Vec<u64>,
    events: EventQueue<Ev>,
    /// Every transaction copy in flight on a link or buffered in a switch.
    flights: Slab<FlightTxn<P>>,
    now: Time,
    next_free: Vec<Time>,
    free_scheduled: Vec<bool>,
    /// Per-link `(source vertex, source out-port)` — what a send or a
    /// link-free check needs.
    link_src: Vec<(u32, u32)>,
    /// Per-link `(destination vertex, destination in-port)` — the two
    /// facts every delivery needs, packed into one lookup.
    link_dest: Vec<(u32, u32)>,
    /// `link_dest` of every vertex's out-links, in port order: vertex `v`'s
    /// run is `out_dest[out_start[v]..out_start[v + 1]]`.
    out_start: Vec<u32>,
    out_dest: Vec<(u32, u32)>,
    ledger: TrafficLedger,
    /// Per-plane running counters (`ordering_delay`, `injected`,
    /// `processed`); [`DetailedNet::stats`] fills in the rest.
    plane_stats: Vec<DetailedNetStats>,
    /// Endpoint-copies injected but not yet released, maintained per step
    /// (`+= num_nodes` at injection, `-= 1` per release), so it stays
    /// exact however large the lifetime counters grow.
    copies_outstanding: u64,
}

impl<P> DetailedNet<P> {
    /// Builds the network over every plane of `fabric` and performs the
    /// initial token kick: every input port starts with one token (§2.2),
    /// so every switch and endpoint fires once at time zero and the token
    /// wave self-times from there.
    pub fn new(fabric: Arc<Fabric>, cfg: DetailedNetConfig) -> Self {
        assert!(
            cfg.link_latency.as_ns() > 0,
            "link latency must be positive"
        );
        let (planes, num_nodes) = (fabric.planes(), fabric.num_nodes());
        let nv = num_nodes + fabric.num_switches();
        // Ports are numbered in link order, per vertex of each plane.
        let mut in_ports = vec![0u32; planes * nv];
        let mut out_links: Vec<Vec<usize>> = vec![Vec::new(); planes * nv];
        let mut link_src = Vec::with_capacity(fabric.links().len());
        let mut link_dest = Vec::with_capacity(fabric.links().len());
        for (i, l) in fabric.links().iter().enumerate() {
            let base = l.plane as usize * nv;
            let (from, to) = (base + l.from.index(), base + l.to.index());
            link_src.push((from as u32, out_links[from].len() as u32));
            out_links[from].push(i);
            link_dest.push((to as u32, in_ports[to]));
            in_ports[to] += 1;
        }

        let cores = (0..planes * nv)
            .map(|v| {
                let (ins, outs) = (in_ports[v] as usize, out_links[v].len());
                if ins == 0 && outs == 0 {
                    return None; // switch belonging to another plane
                }
                assert!(ins > 0 && outs > 0, "vertex {v} has one-sided connectivity");
                let mut core = SwitchCore::starting_at(ins, outs, cfg.gt_origin);
                for p in 0..ins {
                    core.token_arrives(p); // initial marking
                }
                Some(core)
            })
            .collect();

        let mut out_start = Vec::with_capacity(planes * nv + 1);
        let mut out_dest = Vec::new();
        for links in &out_links {
            out_start.push(out_dest.len() as u32);
            out_dest.extend(links.iter().map(|&l| link_dest[l]));
        }
        out_start.push(out_dest.len() as u32);
        let mut net = DetailedNet {
            nv,
            num_nodes,
            cores,
            reorder: (0..planes * num_nodes).map(|_| BinaryHeap::new()).collect(),
            merge: (0..num_nodes).map(|_| BinaryHeap::new()).collect(),
            reorder_parked: 0,
            merge_pending: 0,
            released: Vec::new(),
            next_seq: vec![0; num_nodes],
            events: EventQueue::new(),
            flights: Slab::new(),
            now: Time::ZERO,
            next_free: vec![Time::ZERO; fabric.links().len()],
            free_scheduled: vec![false; fabric.links().len()],
            link_src,
            link_dest,
            out_start,
            out_dest,
            ledger: TrafficLedger::new(&fabric),
            plane_stats: vec![
                DetailedNetStats {
                    ordering_delay: LatencyStat::new(),
                    ..DetailedNetStats::default()
                };
                planes
            ],
            copies_outstanding: 0,
            fabric,
            cfg,
        };
        // Initial kick: everything can fire once at t = 0.
        for v in 0..planes * nv {
            net.cascade(v as u32);
        }
        net
    }

    /// Advances the network to `now` ([`DetailedNet::run_until`]) and
    /// appends every copy released so far to `out`, in the total order
    /// within each endpoint. Each copy's [`Delivery::ordered_at`] is the
    /// instant its min-GT gate opened — the moment a coherence controller
    /// may process it, even if the caller drains later than that.
    pub fn drain_into(&mut self, now: Time, out: &mut Vec<Delivery<P>>) {
        self.run_until(now);
        out.append(&mut self.released);
    }

    /// The guarantee time `node` may trust: the minimum over its per-plane
    /// guarantee times (each the origin plus the tokens it processed).
    /// `Gt`'s wrapping order keeps the minimum meaningful across an era
    /// rollover (per-plane skew is bounded, far inside the ±2^63
    /// comparison window).
    pub fn endpoint_gt(&self, node: NodeId) -> Gt {
        (0..self.fabric.planes())
            .map(|p| self.core_ref(p * self.nv + node.index()).gt())
            .min()
            .expect("at least one plane")
    }

    /// Timestamp of the network's next internal event (token or
    /// transaction hop), if any. Token circulation never stops, so this is
    /// `Some` for every live network; callers use it to decide when to
    /// [`DetailedNet::run_until`] next.
    pub fn next_event_at(&self) -> Option<Time> {
        self.events.peek_time()
    }

    /// Calendar events this net has processed so far: the exact host-side
    /// work count of its event loop (one per vertex firing round, per
    /// transaction hop and per link-free check). Deliberately not part of
    /// [`DetailedNetStats`], which describes the simulated run only.
    pub fn calendar_pops(&self) -> u64 {
        self.events.events_processed()
    }

    /// Endpoint-copies injected but not yet released to
    /// [`DetailedNet::drain_into`]: in flight, buffered in a switch,
    /// parked in a plane's reorder queue, or held back by the min-GT gate.
    pub fn outstanding(&self) -> u64 {
        self.copies_outstanding
    }

    /// Address traffic recorded so far (Request class, all planes).
    pub fn ledger(&self) -> &TrafficLedger {
        &self.ledger
    }

    /// Aggregate run statistics, one entry per plane.
    pub fn stats(&self) -> Vec<DetailedNetStats> {
        self.plane_stats
            .iter()
            .enumerate()
            .map(|(p, counters)| {
                let gts = || (0..self.num_nodes).map(|n| self.core_ref(p * self.nv + n).gt());
                DetailedNetStats {
                    min_endpoint_gt: gts().min().unwrap_or(Gt::ZERO),
                    max_endpoint_gt: gts().max().unwrap_or(Gt::ZERO),
                    switch_buffer_high_water: self.cores[p * self.nv..(p + 1) * self.nv]
                        .iter()
                        .flatten()
                        .map(SwitchCore::buffer_high_water)
                        .max()
                        .unwrap_or(0),
                    ..counters.clone()
                }
            })
            .collect()
    }

    /// Broadcasts `payload` from `src` at time `now` on the source's next
    /// plane in round-robin order, returning the assigned ordering time.
    ///
    /// Internally advances the simulation to `now` first, so injections
    /// must be presented in non-decreasing time order.
    pub fn inject(&mut self, now: Time, src: NodeId, payload: P) -> Gt {
        self.run_until(now);
        let seq = self.next_seq[src.index()];
        self.next_seq[src.index()] += 1;
        let plane = (seq % self.fabric.planes() as u64) as usize;
        let tree = self.fabric.tree(plane, src);
        let max_depth = tree.max_depth_links as u64;
        self.ledger.record_tree(tree, MsgClass::Request);
        let root = plane * self.nv + src.index();
        let gt = self.core_ref(root).gt();
        let ot = gt.wrapping_add(max_depth + self.cfg.initial_slack);

        // The source snoops its own transaction through the network like
        // everyone else: the broadcast tree re-delivers to the root.
        let slot = self.flights.insert(FlightTxn {
            key: GtKey::with_src_seq(ot, src.0, seq),
            plane: plane as u32,
            slack: self.cfg.initial_slack,
            payload: Arc::new(payload),
        });
        self.forward_branches(root as u32, slot);
        self.plane_stats[plane].injected += 1;
        self.copies_outstanding += self.num_nodes as u64;
        ot
    }

    /// Advances the simulation through every event at or before `t`, one
    /// instant at a time: it pops every calendar event of the instant, then
    /// releases every merged copy below its node's min-GT frontier, stamped
    /// with that instant.
    pub fn run_until(&mut self, t: Time) {
        while let Some(at) = self.events.peek_time().filter(|&at| at <= t) {
            self.now = at;
            while self.events.peek_time() == Some(at) {
                let (_, ev) = self.events.pop().expect("peeked");
                match ev {
                    Ev::Tokens { from, count } => self.tokens_arrive(from, count),
                    Ev::Txn { link, slot } => self.txn_arrives(link, slot),
                    Ev::LinkFree { link } => {
                        self.free_scheduled[link.index()] = false;
                        self.link_freed(link);
                    }
                }
            }
            if self.merge_pending > 0 {
                self.release_frontier(at);
            }
        }
        if t > self.now {
            self.now = t;
        }
    }

    /// Releases every merged copy below its node's min-GT frontier, stamped
    /// `at`, in (node, key) order.
    fn release_frontier(&mut self, at: Time) {
        for node in 0..self.num_nodes {
            if self.merge[node].is_empty() {
                continue;
            }
            let gt_min = self.endpoint_gt(NodeId(node as u16));
            while let Some(Reverse(top)) = self.merge[node].peek() {
                if top.key.gt() >= gt_min {
                    break;
                }
                let Reverse(Keyed {
                    key,
                    value: (arrival, payload),
                }) = self.merge[node].pop().expect("peeked");
                self.released.push(Delivery {
                    dest: NodeId(node as u16),
                    src: NodeId(key.src()),
                    seq: key.seq(),
                    ot: key.gt(),
                    arrival,
                    ordered_at: at,
                    payload,
                });
                self.copies_outstanding -= 1;
                self.merge_pending -= 1;
            }
        }
    }

    fn core(&mut self, v: usize) -> &mut SwitchCore<u32> {
        self.cores[v]
            .as_mut()
            .expect("vertex participates in its plane")
    }

    fn core_ref(&self, v: usize) -> &SwitchCore<u32> {
        self.cores[v]
            .as_ref()
            .expect("vertex participates in its plane")
    }

    /// Schedules a follow-up event; never at the open instant (see the
    /// module docs).
    fn schedule(&mut self, at: Time, ev: Ev) {
        debug_assert!(at > self.now, "emission at the open instant");
        self.events.schedule(at, ev);
    }

    /// Delivers `count` rounds of tokens over `from`'s out-links, in port
    /// order. One core lookup per token serves both the arrival and the
    /// propagation-readiness test, and the cascade is entered only when
    /// the token completed a wave at its destination.
    fn tokens_arrive(&mut self, from: u32, count: u32) {
        let from = from as usize;
        let outs = self.out_start[from] as usize..self.out_start[from + 1] as usize;
        for _ in 0..count {
            for i in outs.clone() {
                let (to, port) = self.out_dest[i];
                let core = self.core(to as usize);
                core.token_arrives(port as usize);
                if core.can_propagate() {
                    self.cascade(to);
                }
            }
        }
    }

    fn txn_arrives(&mut self, link: LinkId, slot: u32) {
        let (to, port) = self.link_dest[link.index()];
        let slack = self.flights.get(slot).slack;
        self.flights.get_mut(slot).slack = self.core(to as usize).txn_enters(port as usize, slack); // rule 1
        let plane = self.flights.get(slot).plane as usize;
        let local = to as usize - plane * self.nv;
        if local < self.num_nodes {
            let ft = self.flights.remove(slot);
            self.endpoint_receives(plane, local, ft);
        } else {
            self.forward_branches(to, slot);
        }
    }

    fn endpoint_receives(&mut self, plane: usize, node: usize, ft: FlightTxn<P>) {
        let gt = self.core_ref(plane * self.nv + node).gt();
        let deadline = gt.wrapping_add(ft.slack);
        // The paper's central invariant: slack bookkeeping has preserved
        // the ordering time end to end.
        assert_eq!(
            deadline,
            ft.key.gt(),
            "slack bookkeeping lost the ordering time at {} \
             (gt {gt} + slack {} != OT {})",
            NodeId(node as u16),
            ft.slack,
            ft.key.gt()
        );
        self.reorder[plane * self.num_nodes + node].push(Reverse(Keyed {
            key: ft.key,
            value: (self.now, ft.payload),
        }));
        self.reorder_parked += 1;
    }

    /// Processes every copy in `node`'s reorder queue on `plane` whose
    /// ordering tick has *closed*, moving it to the node's merge queue.
    ///
    /// An endpoint processes the batch of `OT == X` transactions when the
    /// token advancing its GT past `X` arrives: that token's arrival proves
    /// no further `OT <= X` transaction can be in flight (tokens cannot
    /// overtake zero-slack transactions anywhere upstream), so the batch is
    /// complete and can be sorted by source id. Processing "just in time"
    /// arrivals immediately would break the same-OT source-order tie-break
    /// under contention.
    fn drain_reorder(&mut self, plane: usize, node: usize) {
        let gt = self.core_ref(plane * self.nv + node).gt();
        let queue = &mut self.reorder[plane * self.num_nodes + node];
        while queue.peek().is_some_and(|Reverse(top)| top.key.gt() < gt) {
            let Reverse(e) = queue.pop().expect("peeked entry exists");
            assert_eq!(
                e.key.gt().next(),
                gt,
                "transaction missed its batch at {}: OT {} but GT already {gt}",
                NodeId(node as u16),
                e.key.gt()
            );
            let counters = &mut self.plane_stats[plane];
            counters
                .ordering_delay
                .record(self.now.saturating_since(e.value.0));
            counters.processed += 1;
            self.reorder_parked -= 1;
            self.merge[node].push(Reverse(e));
            self.merge_pending += 1;
        }
    }

    /// Forwards the copy in `slot` along its broadcast-tree branches
    /// leaving vertex `v`, sending immediately where the link is free and
    /// buffering otherwise. Every branch but the last takes a fresh copy;
    /// the last one reuses `slot`.
    fn forward_branches(&mut self, v: u32, slot: u32) {
        // A second handle on the fabric lets the tree be walked while the
        // sends mutate `self` — no per-hop branch buffer needed.
        let fabric = Arc::clone(&self.fabric);
        let ft = self.flights.get(slot);
        let plane = ft.plane as usize;
        let tree = fabric.tree(plane, NodeId(ft.key.src()));
        let local = Vertex(v - (plane * self.nv) as u32);
        let Some((&last, rest)) = tree.branches_from(local).split_last() else {
            self.flights.remove(slot);
            return;
        };
        for &i in rest {
            let e = tree.edges[i as usize];
            let copy = self.flights.insert(self.flights.get(slot).clone());
            self.send_or_buffer(e.link, e.delta_d as u64, copy);
        }
        let e = tree.edges[last as usize];
        self.send_or_buffer(e.link, e.delta_d as u64, slot);
    }

    /// Sends the copy in `slot` over `link` if it is free, else buffers it
    /// in the link's source vertex — the only place a switch buffer grows,
    /// so the provisioning check ([`DetailedNetConfig::buffer_depth`])
    /// lives here.
    fn send_or_buffer(&mut self, link: LinkId, delta_d: u64, slot: u32) {
        let li = link.index();
        if self.next_free[li] <= self.now {
            self.flights.get_mut(slot).slack += delta_d; // rule 3
            let at = self.now + self.cfg.link_latency;
            self.next_free[li] = self.now + self.cfg.link_occupancy;
            self.schedule(at, Ev::Txn { link, slot });
        } else {
            let (from, out_port) = self.link_src[li];
            let slack = self.flights.get(slot).slack;
            let depth = self.cfg.buffer_depth;
            let core = self.core(from as usize);
            core.buffer(out_port as usize, slack, delta_d, slot);
            let high = core.buffer_high_water();
            assert!(
                high <= depth as usize,
                "detailed address network exceeded its provisioned switch \
                 buffering: high water {high} > buffer_depth {depth}"
            );
            self.arm_link_free(link);
        }
    }

    /// Schedules a `LinkFree` for `link` at its next free instant, unless
    /// one is already pending.
    fn arm_link_free(&mut self, link: LinkId) {
        let li = link.index();
        if !self.free_scheduled[li] {
            self.free_scheduled[li] = true;
            self.schedule(self.next_free[li], Ev::LinkFree { link });
        }
    }

    fn link_freed(&mut self, link: LinkId) {
        let li = link.index();
        if self.next_free[li] > self.now {
            // Another send claimed the link meanwhile; re-arm.
            self.arm_link_free(link);
            return;
        }
        let (from, out_port) = self.link_src[li];
        let out_port = out_port as usize;
        if let Some((slack, slot)) = self.core(from as usize).pop_sendable(out_port) {
            self.flights.get_mut(slot).slack = slack;
            let at = self.now + self.cfg.link_latency;
            self.next_free[li] = self.now + self.cfg.link_occupancy;
            self.schedule(at, Ev::Txn { link, slot });
            if self.core_ref(from as usize).queued(out_port) > 0 {
                self.arm_link_free(link);
            }
            // Draining a zero-slack transaction may unblock the token wave.
            self.cascade(from);
        }
    }

    /// Fires the propagation handshake at vertex `v` as many times as it
    /// can, scheduling one [`Ev::Tokens`] for all the rounds it fired, and
    /// advancing the endpoint reorder queue when `v` is a node.
    fn cascade(&mut self, v: u32) {
        let Some(core) = self.cores[v as usize].as_mut() else {
            return;
        };
        let mut count = 0;
        while core.propagate() {
            count += 1;
        }
        if count == 0 {
            return;
        }
        self.schedule(
            self.now + self.cfg.link_latency,
            Ev::Tokens { from: v, count },
        );
        if self.reorder_parked > 0 {
            let (plane, local) = (v as usize / self.nv, v as usize % self.nv);
            if local < self.num_nodes {
                self.drain_reorder(plane, local);
            }
        }
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;

    pub(in crate::token) fn drain(net: &mut DetailedNet<u32>, now: Time) -> Vec<Delivery<u32>> {
        let mut out = Vec::new();
        net.drain_into(now, &mut out);
        out
    }

    fn unloaded(fabric: Fabric, slack: u64) -> DetailedNet<u32> {
        DetailedNet::new(
            Arc::new(fabric),
            DetailedNetConfig {
                initial_slack: slack,
                ..DetailedNetConfig::default()
            },
        )
    }

    #[test]
    fn single_broadcast_reaches_everyone_in_order() {
        let mut net = unloaded(Fabric::torus4x4(), 2);
        net.inject(Time::from_ns(40), NodeId(0), 7);
        let d = drain(&mut net, Time::from_ns(500));
        assert_eq!(d.len(), 16);
        let dests: std::collections::BTreeSet<u16> = d.iter().map(|x| x.dest.0).collect();
        assert_eq!(dests.len(), 16);
        // All endpoints process at the same physical instant when unloaded.
        let t0 = d[0].ordered_at;
        assert!(d.iter().all(|x| x.ordered_at == t0));
    }

    #[test]
    fn endpoints_agree_on_total_order() {
        let mut net = unloaded(Fabric::butterfly(4, 2, 1), 2);
        let mut t = 10;
        for i in 0..20u32 {
            let src = NodeId((i * 7 % 16) as u16);
            net.inject(Time::from_ns(t), src, i);
            t += 13;
        }
        let d = drain(&mut net, Time::from_ns(5_000));
        assert_eq!(d.len(), 20 * 16);
        let mut orders: Vec<Vec<u32>> = vec![Vec::new(); 16];
        for x in &d {
            orders[x.dest.index()].push(*x.payload);
        }
        for o in &orders[1..] {
            assert_eq!(o, &orders[0], "endpoints disagree on total order");
        }
    }

    #[test]
    fn guarantee_times_advance_when_idle() {
        let mut net = unloaded(Fabric::torus4x4(), 2);
        net.run_until(Time::from_ns(150));
        // Initial fire at t=0, then one round per 15 ns: GT = 11 at t=150.
        assert_eq!(net.endpoint_gt(NodeId(0)), Gt::from_ticks(11));
        let s = &net.stats()[0];
        assert_eq!(s.min_endpoint_gt, s.max_endpoint_gt, "lock-step when idle");
    }

    #[test]
    fn zero_slack_delivers_unloaded_without_stalling() {
        // Unloaded, nothing buffers, so even slack-0 transactions never
        // block the token wave; they arrive just in time instead.
        let mut zero = unloaded(Fabric::torus4x4(), 0);
        let mut slacked = unloaded(Fabric::torus4x4(), 2);
        zero.inject(Time::from_ns(40), NodeId(0), 1);
        slacked.inject(Time::from_ns(40), NodeId(0), 1);
        assert_eq!(drain(&mut zero, Time::from_ns(1_000)).len(), 16);
        assert_eq!(drain(&mut slacked, Time::from_ns(1_000)).len(), 16);
        assert_eq!(
            zero.endpoint_gt(NodeId(5)),
            slacked.endpoint_gt(NodeId(5)),
            "no stall expected when unloaded"
        );
    }

    #[test]
    fn zero_slack_stalls_guarantee_time_under_contention() {
        let congested = |slack: u64| -> DetailedNet<u32> {
            DetailedNet::new(
                Arc::new(Fabric::torus4x4()),
                DetailedNetConfig {
                    link_occupancy: Duration::from_ns(40),
                    initial_slack: slack,
                    ..DetailedNetConfig::default()
                },
            )
        };
        let mut zero = congested(0);
        let mut slacked = congested(8);
        for i in 0..6u32 {
            zero.inject(Time::from_ns(40 + i as u64), NodeId(0), i);
            slacked.inject(Time::from_ns(40 + i as u64), NodeId(0), i);
        }
        zero.run_until(Time::from_ns(2_000));
        slacked.run_until(Time::from_ns(2_000));
        // Zero-slack transactions buffered behind busy links block the
        // token wave ("the invariant of having S_new >= 0 prohibits tokens
        // from moving past zero-slack transactions").
        assert!(
            zero.endpoint_gt(NodeId(5)) < slacked.endpoint_gt(NodeId(5)),
            "zero-slack transactions should stall GTs under contention: {} vs {}",
            zero.endpoint_gt(NodeId(5)),
            slacked.endpoint_gt(NodeId(5))
        );
        assert_eq!(
            drain(&mut zero, Time::from_ns(30_000)).len(),
            96,
            "all still delivered"
        );
    }

    #[test]
    fn contention_buffers_and_preserves_order() {
        // Serialize links hard: 20 ns occupancy vs 15 ns latency.
        let mut net: DetailedNet<u32> = DetailedNet::new(
            Arc::new(Fabric::torus4x4()),
            DetailedNetConfig {
                link_occupancy: Duration::from_ns(20),
                initial_slack: 2,
                ..DetailedNetConfig::default()
            },
        );
        for i in 0..10u32 {
            net.inject(Time::from_ns(40 + 2 * i as u64), NodeId((i % 4) as u16), i);
        }
        let d = drain(&mut net, Time::from_ns(20_000));
        assert_eq!(d.len(), 160, "all copies still delivered under contention");
        let mut orders: Vec<Vec<u32>> = vec![Vec::new(); 16];
        for x in &d {
            orders[x.dest.index()].push(*x.payload);
        }
        for o in &orders[1..] {
            assert_eq!(o, &orders[0], "contention broke the total order");
        }
        let stats = &net.stats()[0];
        assert!(stats.switch_buffer_high_water > 0, "expected buffering");
    }

    #[test]
    fn self_delivery_waits_for_logical_time() {
        let mut net = unloaded(Fabric::torus4x4(), 2);
        net.inject(Time::from_ns(40), NodeId(3), 9);
        // Not yet processed: the source must wait for its own OT.
        assert!(drain(&mut net, Time::from_ns(40)).is_empty());
        let d = drain(&mut net, Time::from_ns(2_000));
        let self_copy = d.iter().find(|x| x.dest == NodeId(3)).unwrap();
        assert!(self_copy.ordered_at > Time::from_ns(40));
        // The self copy physically travels node -> switch -> node.
        assert_eq!(self_copy.arrival, Time::from_ns(40 + 2 * 15));
    }

    #[test]
    fn traffic_counts_tree_links() {
        let mut net = unloaded(Fabric::butterfly(4, 2, 1), 2);
        net.inject(Time::from_ns(10), NodeId(0), 1);
        assert_eq!(net.ledger().class_total(MsgClass::Request), 21 * 8);
    }

    /// Regression for the old `injected * num_nodes - processed` derivation
    /// of [`DetailedNet::outstanding`]: with a lifetime `injected` count
    /// past `u64::MAX / num_nodes` the multiply overflowed even though the
    /// true in-flight count was tiny. The incrementally-maintained counter
    /// must be immune to how large the lifetime totals grow.
    #[test]
    fn outstanding_survives_huge_lifetime_counters() {
        let mut net = unloaded(Fabric::torus4x4(), 2);
        net.inject(Time::from_ns(40), NodeId(0), 1);
        // Simulate the counters of a (much) longer run; only the lifetime
        // totals move, the in-flight state is untouched.
        let counters = &mut net.plane_stats[0];
        counters.injected = u64::MAX / 8;
        counters.processed = counters.injected - 1;
        assert_eq!(net.outstanding(), 16, "one broadcast, 16 copies in flight");
        let counters = &mut net.plane_stats[0];
        counters.injected = 1;
        counters.processed = 0;
        let d = drain(&mut net, Time::from_ns(2_000));
        assert_eq!(net.outstanding(), 0);
        assert_eq!(d.len(), 16);
    }

    /// A network whose guarantee times start one wave short of the era
    /// rollover must behave exactly like the zero-origin network: same
    /// deliveries in the same order at the same instants, with every OT
    /// shifted by the origin.
    #[test]
    fn era_rollover_run_matches_zero_origin_run() {
        // (dest, src, seq, ot - origin, arrival ns, ordered ns)
        type DeliveryLog = Vec<(u16, u16, u64, u64, u64, u64)>;
        let drive = |origin: Gt| -> (Vec<Gt>, DeliveryLog) {
            let mut net: DetailedNet<u32> = DetailedNet::new(
                Arc::new(Fabric::torus4x4()),
                DetailedNetConfig {
                    link_occupancy: Duration::from_ns(20),
                    gt_origin: origin,
                    ..DetailedNetConfig::default()
                },
            );
            for i in 0..10u32 {
                net.inject(Time::from_ns(40 + 2 * i as u64), NodeId((i % 4) as u16), i);
            }
            let log = drain(&mut net, Time::from_ns(20_000))
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
                .collect();
            let gts = (0..16).map(|n| net.endpoint_gt(NodeId(n))).collect();
            (gts, log)
        };
        // Two waves before the tick field wraps into era 1.
        let origin = Gt::from_parts(0, Gt::TICK_MASK - 1);
        let (gt_wrap, log_wrap) = drive(origin);
        let (gt_zero, log_zero) = drive(Gt::ZERO);
        assert_eq!(log_wrap, log_zero, "era rollover changed the deliveries");
        assert!(gt_wrap.iter().all(|g| g.era() == 1), "rollover not crossed");
        let shifted: Vec<Gt> = gt_zero
            .iter()
            .map(|g| origin.wrapping_add(g.delta_since(Gt::ZERO)))
            .collect();
        assert_eq!(gt_wrap, shifted, "guarantee times not origin-shifted");
    }

    #[test]
    fn ordering_delay_is_positive_for_near_nodes_on_torus() {
        let mut net = unloaded(Fabric::torus4x4(), 2);
        net.inject(Time::from_ns(40), NodeId(0), 1);
        net.run_until(Time::from_ns(2_000));
        let stats = &net.stats()[0];
        // The nearest endpoints receive early and wait; the furthest waits
        // only for the residual slack.
        assert!(stats.ordering_delay.max().unwrap() > stats.ordering_delay.min().unwrap());
        assert_eq!(stats.processed, 16);
        assert_eq!(stats.injected, 1);
    }

    /// A contended mixed workload: bursty same-instant injections from
    /// rotating sources, as `(instant, source, payload)`. Run with
    /// [`contended_cfg`] (link occupancy > latency) so buffering, LinkFree
    /// re-arms and token stalls all occur.
    pub(in crate::token) fn contended_schedule() -> Vec<(Time, NodeId, u32)> {
        let mut t = 10u64;
        (0..48u32)
            .map(|i| {
                let at = Time::from_ns(t);
                t += if i % 3 == 0 { 0 } else { 17 };
                (at, NodeId((i * 5 % 16) as u16), i)
            })
            .collect()
    }

    /// Instant the contended schedule runs to; every copy is out by then.
    pub(in crate::token) const CONTENDED_END: Time = Time::from_ns(60_000);

    pub(in crate::token) fn contended_cfg(gt_origin: Gt) -> DetailedNetConfig {
        DetailedNetConfig {
            link_occupancy: Duration::from_ns(40),
            initial_slack: 3,
            gt_origin,
            ..DetailedNetConfig::default()
        }
    }

    /// Pins the path the System runs: the contended schedule's released
    /// log — each instant's copies in (node, key) order — plus every
    /// plane's final stats, on all three fabrics at GT origin zero and two
    /// ticks before an era rollover, as `(fabric, origin, digest)`. A moved
    /// digest means event order, §2.2 rule processing, the round-robin
    /// plane choice or the min-GT merge changed.
    pub(in crate::token) fn contended_digests() -> [(Fabric, Gt, &'static str); 6] {
        let era_edge = Gt::from_parts(0, Gt::TICK_MASK - 1);
        [
            (
                Fabric::torus4x4(),
                Gt::ZERO,
                "587aa6d25b82dee4aa2077ce29e858bf",
            ),
            (
                Fabric::torus4x4(),
                era_edge,
                "239b028e5603f1c6092a1698fd10b398",
            ),
            (
                Fabric::butterfly(4, 2, 1),
                Gt::ZERO,
                "979c28b3e71743a193d037425df428a1",
            ),
            (
                Fabric::butterfly(4, 2, 1),
                era_edge,
                "ba26d6349930556b3b5e53e51e93ae40",
            ),
            (
                Fabric::butterfly16(),
                Gt::ZERO,
                "1b765c527f55bf47cad69f2c4d42ab26",
            ),
            (
                Fabric::butterfly16(),
                era_edge,
                "a0f9fda240841a222ce1b25822d6a8cf",
            ),
        ]
    }

    /// Runs the contended schedule on `fabric` from `origin` and checks the
    /// digest of its released log and per-plane stats against `want`.
    pub(in crate::token) fn assert_contended_digest(fabric: Fabric, origin: Gt, want: &str) {
        use tss_sim::hash::fingerprint128;
        let mut n = DetailedNet::new(Arc::new(fabric), contended_cfg(origin));
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
        let stats: Vec<String> = n.stats().iter().map(|s| format!("{s:?}")).collect();
        let digest = fingerprint128(format!("{log:?} {stats:?}").as_bytes());
        assert_eq!(
            format!("{digest:032x}"),
            want,
            "released trace moved on {} planes at origin {origin:?}",
            stats.len()
        );
    }

    /// The single-plane rows of [`contended_digests`]: the torus and the
    /// one-plane butterfly.
    #[test]
    fn contended_trace_matches_pinned_digests() {
        for (fabric, origin, want) in contended_digests() {
            if fabric.planes() == 1 {
                assert_contended_digest(fabric, origin, want);
            }
        }
    }

    /// The contended torus schedule with its switch buffering capped at
    /// `depth`; the high water of the uncapped run when `depth` is `None`.
    fn contended_torus(depth: Option<u32>) -> DetailedNet<u32> {
        let cfg = DetailedNetConfig {
            buffer_depth: depth.unwrap_or(u32::MAX),
            ..contended_cfg(Gt::ZERO)
        };
        let mut net = DetailedNet::new(Arc::new(Fabric::torus4x4()), cfg);
        for (at, src, payload) in contended_schedule() {
            net.inject(at, src, payload);
        }
        assert_eq!(
            drain(&mut net, CONTENDED_END).len(),
            48 * 16,
            "every copy delivered"
        );
        net
    }

    /// Pins the event loop's exact work: one calendar pop per vertex
    /// firing (not per link token), per transaction hop and per link-free
    /// check. Idle to 150 ns is ten waves after the kick at t = 0.
    #[test]
    fn calendar_pops_are_pinned() {
        let idle = |fabric: Fabric| {
            let mut net = unloaded(fabric, 2);
            net.run_until(Time::from_ns(150));
            net.calendar_pops()
        };
        assert_eq!(idle(Fabric::torus4x4()), 10 * 32); // 32 vertices
        assert_eq!(idle(Fabric::butterfly(4, 2, 1)), 10 * 24); // 24 vertices
        assert_eq!(idle(Fabric::butterfly16()), 4 * 10 * 24); // 4 planes of 24 vertices
        assert_eq!(contended_torus(None).calendar_pops(), 127_402);
    }

    #[test]
    fn buffer_depth_at_the_high_water_completes() {
        let high = contended_torus(None).stats()[0].switch_buffer_high_water;
        assert!(high > 1, "the contended schedule must buffer, got {high}");
        let capped = contended_torus(Some(high as u32));
        assert_eq!(capped.stats()[0].switch_buffer_high_water, high);
    }

    #[test]
    #[should_panic(expected = "provisioned switch buffering")]
    fn buffer_depth_below_the_high_water_panics() {
        let high = contended_torus(None).stats()[0].switch_buffer_high_water;
        contended_torus(Some(high as u32 - 1));
    }
}
