//! Event-driven simulation of the full token-passing address network.
//!
//! One event loop drives it: [`DetailedNet::run_until`] pops one calendar
//! event at a time, and the §2.2 handlers mutate the net's state directly
//! and schedule their follow-up events straight into the calendar. No
//! handler ever schedules *at* the current instant — every emission lies
//! at least one link latency or occupancy period ahead — and the calendar
//! breaks same-instant ties FIFO, so a run is a pure function of its
//! configuration and injection schedule.
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

use crate::fast::Delivery;
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

/// Aggregate statistics of a detailed-network run.
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
    src: NodeId,
    seq: u64,
    ot: Gt,
    slack: u64,
    payload: Arc<P>,
}

// Manual impl: `P` itself need not be `Clone`, the payload is shared.
impl<P> Clone for FlightTxn<P> {
    fn clone(&self) -> Self {
        FlightTxn {
            src: self.src,
            seq: self.seq,
            ot: self.ot,
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
/// firing vertex, and a transaction hop names its copy's [`Slab`] slot.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// `from` fired `count` times one link latency ago: `count` rounds of
    /// tokens arrive over its out-links, in port order.
    Tokens { from: Vertex, count: u32 },
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

#[derive(Debug)]
struct ReorderEntry<P> {
    /// `(OT, src, seq)` packed into one wraparound-safe 16-byte key — the
    /// same lexicographic order the old `(u64, u16, u64)` tuple gave, but
    /// correct across an era rollover.
    key: GtKey,
    arrival: Time,
    payload: Arc<P>,
}

impl<P> PartialEq for ReorderEntry<P> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<P> Eq for ReorderEntry<P> {}
impl<P> PartialOrd for ReorderEntry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for ReorderEntry<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

#[derive(Debug)]
struct EndpointExtra<P> {
    reorder: BinaryHeap<Reverse<ReorderEntry<P>>>,
    next_seq: u64,
}

impl<P> Default for EndpointExtra<P> {
    fn default() -> Self {
        EndpointExtra {
            reorder: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

/// The detailed (switch-by-switch, token-by-token) timestamp network.
///
/// Every rule of §2.2 executes literally: rule-1 slack bumps at switch
/// entry, rule-2 decrements on token propagation (with zero-slack
/// transactions blocking tokens), rule-3 `ΔD` adjustments per branch, and
/// endpoint priority-queue reordering. An internal assertion checks the
/// paper's central invariant on every delivery: a transaction is processed
/// exactly when the endpoint's guarantee time equals the transaction's
/// ordering time.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use tss_net::{DetailedNet, DetailedNetConfig, Fabric, NodeId};
/// use tss_sim::Time;
///
/// let fabric = Arc::new(Fabric::torus4x4());
/// let mut net = DetailedNet::new(fabric, DetailedNetConfig::default());
/// net.inject(Time::from_ns(40), NodeId(2), "GETM B");
/// net.run_until(Time::from_ns(400));
/// let deliveries = net.take_deliveries();
/// assert_eq!(deliveries.len(), 16); // snooped everywhere, in logical order
/// ```
#[derive(Debug)]
pub struct DetailedNet<P> {
    fabric: Arc<Fabric>,
    cfg: DetailedNetConfig,
    /// The fabric plane this net simulates; each plane is an independent
    /// token domain.
    plane: usize,
    /// Per-vertex token core; a switch buffer entry is a [`Slab`] slot.
    cores: Vec<Option<SwitchCore<u32>>>,
    endpoints: Vec<EndpointExtra<P>>,
    events: EventQueue<Ev>,
    /// Every transaction copy in flight on a link or buffered in a switch.
    flights: Slab<FlightTxn<P>>,
    now: Time,
    next_free: Vec<Time>,
    free_scheduled: Vec<bool>,
    /// Per-link index of the link among its source vertex's out-ports.
    out_port_idx: Vec<u32>,
    /// Per-link `(destination vertex, destination in-port)` — the two
    /// facts every delivery needs, packed into one lookup.
    link_dest: Vec<(u32, u32)>,
    /// `link_dest` of every vertex's out-links on this plane, in port
    /// order: vertex `v`'s run is `out_dest[out_start[v]..out_start[v + 1]]`.
    out_start: Vec<u32>,
    out_dest: Vec<(u32, u32)>,
    num_nodes: usize,
    /// Transaction copies parked in endpoint reorder queues (skip the
    /// per-wave per-node reorder peeks when zero).
    reorder_parked: usize,
    deliveries: Vec<Delivery<P>>,
    ledger: TrafficLedger,
    ordering_delay: LatencyStat,
    injected: u64,
    processed: u64,
    /// Endpoint-copies injected but not yet processed, maintained per step
    /// (`+= num_nodes` at injection, `-= 1` per processed copy). Replaces
    /// the old `injected * num_nodes - processed` derivation, whose
    /// multiply overflows u64 long before the counters themselves do.
    copies_outstanding: u64,
}

impl<P> DetailedNet<P> {
    /// Builds the network over plane 0 of `fabric` and performs the
    /// initial token kick: every input port starts with one token (§2.2),
    /// so every switch and endpoint fires once at time zero and the token
    /// wave self-times from there.
    pub fn new(fabric: Arc<Fabric>, cfg: DetailedNetConfig) -> Self {
        Self::for_plane(fabric, cfg, 0)
    }

    /// [`DetailedNet::new`] over fabric plane `plane`.
    ///
    /// # Panics
    ///
    /// Panics if `plane` is out of range for `fabric`.
    pub(crate) fn for_plane(fabric: Arc<Fabric>, cfg: DetailedNetConfig, plane: usize) -> Self {
        assert!(plane < fabric.planes(), "plane out of range");
        assert!(
            cfg.link_latency.as_ns() > 0,
            "link latency must be positive"
        );
        let nv = fabric.num_nodes() + fabric.num_switches();
        let mut vertex_in_links: Vec<Vec<LinkId>> = vec![Vec::new(); nv];
        let mut vertex_out_links: Vec<Vec<LinkId>> = vec![Vec::new(); nv];
        let mut in_port_idx = vec![u32::MAX; fabric.links().len()];
        let mut out_port_idx = vec![u32::MAX; fabric.links().len()];
        for (i, l) in fabric.links().iter().enumerate() {
            if l.plane != plane as u32 {
                continue;
            }
            out_port_idx[i] = vertex_out_links[l.from.index()].len() as u32;
            vertex_out_links[l.from.index()].push(LinkId(i as u32));
            in_port_idx[i] = vertex_in_links[l.to.index()].len() as u32;
            vertex_in_links[l.to.index()].push(LinkId(i as u32));
        }

        let mut cores = Vec::with_capacity(nv);
        for v in 0..nv {
            let (ins, outs) = (vertex_in_links[v].len(), vertex_out_links[v].len());
            if ins == 0 && outs == 0 {
                cores.push(None); // switch belonging to another plane
            } else {
                assert!(ins > 0 && outs > 0, "vertex {v} has one-sided connectivity");
                let mut core = SwitchCore::starting_at(ins, outs, cfg.gt_origin);
                for p in 0..ins {
                    core.token_arrives(p); // initial marking
                }
                cores.push(Some(core));
            }
        }

        let link_dest: Vec<(u32, u32)> = fabric
            .links()
            .iter()
            .enumerate()
            .map(|(i, l)| (l.to.0, in_port_idx[i]))
            .collect();
        let mut out_start = Vec::with_capacity(nv + 1);
        let mut out_dest = Vec::new();
        for links in &vertex_out_links {
            out_start.push(out_dest.len() as u32);
            out_dest.extend(links.iter().map(|l| link_dest[l.index()]));
        }
        out_start.push(out_dest.len() as u32);
        let ledger = TrafficLedger::new(&fabric);
        let mut net = DetailedNet {
            endpoints: (0..fabric.num_nodes())
                .map(|_| EndpointExtra::default())
                .collect(),
            cores,
            events: EventQueue::new(),
            flights: Slab::new(),
            now: Time::ZERO,
            next_free: vec![Time::ZERO; fabric.links().len()],
            free_scheduled: vec![false; fabric.links().len()],
            out_port_idx,
            link_dest,
            out_start,
            out_dest,
            num_nodes: fabric.num_nodes(),
            reorder_parked: 0,
            deliveries: Vec::new(),
            ledger,
            ordering_delay: LatencyStat::new(),
            injected: 0,
            processed: 0,
            copies_outstanding: 0,
            fabric,
            cfg,
            plane,
        };
        // Initial kick: everything can fire once at t = 0.
        for v in 0..nv {
            net.cascade(Vertex(v as u32));
        }
        net
    }

    /// Takes all endpoint deliveries processed so far (in processing
    /// order, globally timestamped).
    pub fn take_deliveries(&mut self) -> Vec<Delivery<P>> {
        std::mem::take(&mut self.deliveries)
    }

    /// Drains the deliveries processed so far, in processing order, while
    /// keeping the buffer's capacity for the next instant.
    pub(crate) fn drain_deliveries(&mut self) -> std::vec::Drain<'_, Delivery<P>> {
        self.deliveries.drain(..)
    }

    /// The current guarantee time of endpoint `node` (origin plus tokens
    /// processed).
    pub fn endpoint_gt(&self, node: NodeId) -> Gt {
        self.core_ref(Vertex::node(node)).gt()
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

    /// Endpoint-copies injected but not yet handed out through
    /// [`DetailedNet::take_deliveries`]'s backing store: copies still in
    /// flight, buffered in switches, or parked in endpoint reorder queues.
    /// Maintained incrementally so it stays exact however large the
    /// lifetime `injected` count grows.
    pub fn outstanding(&self) -> u64 {
        self.copies_outstanding
    }

    /// Address traffic recorded so far (Request class).
    pub fn ledger(&self) -> &TrafficLedger {
        &self.ledger
    }

    /// Aggregate run statistics.
    pub fn stats(&self) -> DetailedNetStats {
        let gts: Vec<Gt> = (0..self.fabric.num_nodes())
            .map(|n| self.endpoint_gt(NodeId(n as u16)))
            .collect();
        let high_water = self
            .cores
            .iter()
            .flatten()
            .map(SwitchCore::buffer_high_water)
            .max()
            .unwrap_or(0);
        DetailedNetStats {
            min_endpoint_gt: gts.iter().copied().min().unwrap_or(Gt::ZERO),
            max_endpoint_gt: gts.iter().copied().max().unwrap_or(Gt::ZERO),
            switch_buffer_high_water: high_water,
            ordering_delay: self.ordering_delay,
            injected: self.injected,
            processed: self.processed,
        }
    }

    /// Broadcasts `payload` from `src` at time `now`, returning the
    /// assigned ordering time.
    ///
    /// Internally advances the simulation to `now` first, so injections
    /// must be presented in non-decreasing time order.
    pub fn inject(&mut self, now: Time, src: NodeId, payload: P) -> Gt {
        self.run_until(now);
        self.now = now;
        let max_depth = self.fabric.tree(self.plane, src).max_depth_links as u64;
        let gt = self.core_ref(Vertex::node(src)).gt();
        let ot = gt.wrapping_add(max_depth + self.cfg.initial_slack);
        let seq = self.endpoints[src.index()].next_seq;
        self.endpoints[src.index()].next_seq += 1;

        // The source snoops its own transaction through the network like
        // everyone else: the broadcast tree re-delivers to the root.
        let slot = self.flights.insert(FlightTxn {
            src,
            seq,
            ot,
            slack: self.cfg.initial_slack,
            payload: Arc::new(payload),
        });
        self.forward_branches(Vertex::node(src), slot);
        self.ledger
            .record_tree(self.fabric.tree(self.plane, src), MsgClass::Request);
        self.injected += 1;
        self.copies_outstanding += self.fabric.num_nodes() as u64;
        ot
    }

    /// Advances the simulation through every event at or before `t`, one
    /// calendar event at a time.
    pub fn run_until(&mut self, t: Time) {
        while self.events.peek_time().is_some_and(|at| at <= t) {
            let (at, ev) = self.events.pop().expect("peeked");
            self.now = at;
            match ev {
                Ev::Tokens { from, count } => self.tokens_arrive(from, count),
                Ev::Txn { link, slot } => self.txn_arrives(link, slot),
                Ev::LinkFree { link } => {
                    self.free_scheduled[link.index()] = false;
                    self.link_freed(link);
                }
            }
        }
        if t > self.now {
            self.now = t;
        }
    }

    fn core(&mut self, v: Vertex) -> &mut SwitchCore<u32> {
        self.cores[v.index()]
            .as_mut()
            .expect("vertex participates in this plane")
    }

    fn core_ref(&self, v: Vertex) -> &SwitchCore<u32> {
        self.cores[v.index()]
            .as_ref()
            .expect("vertex participates in this plane")
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
    fn tokens_arrive(&mut self, from: Vertex, count: u32) {
        let outs = self.out_start[from.index()] as usize..self.out_start[from.index() + 1] as usize;
        for _ in 0..count {
            for i in outs.clone() {
                let (to, port) = self.out_dest[i];
                let core = self.core(Vertex(to));
                core.token_arrives(port as usize);
                if core.can_propagate() {
                    self.cascade(Vertex(to));
                }
            }
        }
    }

    fn txn_arrives(&mut self, link: LinkId, slot: u32) {
        let (to, port) = self.link_dest[link.index()];
        let to = Vertex(to);
        let slack = self.flights.get(slot).slack;
        self.flights.get_mut(slot).slack = self.core(to).txn_enters(port as usize, slack); // rule 1
        match to.as_node(self.num_nodes) {
            Some(node) => {
                let ft = self.flights.remove(slot);
                self.endpoint_receives(node, ft);
            }
            None => self.forward_branches(to, slot),
        }
    }

    fn endpoint_receives(&mut self, node: NodeId, ft: FlightTxn<P>) {
        let gt = self.core_ref(Vertex::node(node)).gt();
        let deadline = gt.wrapping_add(ft.slack);
        // The paper's central invariant: slack bookkeeping has preserved
        // the ordering time end to end.
        assert_eq!(
            deadline, ft.ot,
            "slack bookkeeping lost the ordering time at {node} \
             (gt {gt} + slack {} != OT {})",
            ft.slack, ft.ot
        );
        self.endpoints[node.index()]
            .reorder
            .push(Reverse(ReorderEntry {
                key: GtKey::with_src_seq(ft.ot, ft.src.0, ft.seq),
                arrival: self.now,
                payload: ft.payload,
            }));
        self.reorder_parked += 1;
    }

    /// Processes every queued transaction whose ordering tick has *closed*.
    ///
    /// An endpoint processes the batch of `OT == X` transactions when the
    /// token advancing its GT past `X` arrives: that token's arrival proves
    /// no further `OT <= X` transaction can be in flight (tokens cannot
    /// overtake zero-slack transactions anywhere upstream), so the batch is
    /// complete and can be sorted by source id. Processing "just in time"
    /// arrivals immediately would break the same-OT source-order tie-break
    /// under contention.
    fn drain_reorder(&mut self, node: NodeId) {
        let gt = self.core_ref(Vertex::node(node)).gt();
        loop {
            let ready = matches!(
                self.endpoints[node.index()].reorder.peek(),
                Some(Reverse(top)) if top.key.gt() < gt
            );
            if !ready {
                break;
            }
            let Reverse(e) = self.endpoints[node.index()]
                .reorder
                .pop()
                .expect("peeked entry exists");
            assert_eq!(
                e.key.gt().next(),
                gt,
                "transaction missed its batch at {node}: OT {} but GT already {gt}",
                e.key.gt()
            );
            self.ordering_delay
                .record(self.now.saturating_since(e.arrival));
            self.processed += 1;
            self.copies_outstanding -= 1;
            self.reorder_parked -= 1;
            self.deliveries.push(Delivery {
                dest: node,
                src: NodeId(e.key.src()),
                seq: e.key.seq(),
                ot: e.key.gt(),
                arrival: e.arrival,
                ordered_at: self.now,
                payload: e.payload,
            });
        }
    }

    /// Forwards the copy in `slot` along its broadcast-tree branches
    /// leaving `v`, sending immediately where the link is free and
    /// buffering otherwise. Every branch but the last takes a fresh copy;
    /// the last one reuses `slot`.
    fn forward_branches(&mut self, v: Vertex, slot: u32) {
        // A second handle on the fabric lets the tree be walked while the
        // sends mutate `self` — no per-hop branch buffer needed.
        let fabric = Arc::clone(&self.fabric);
        let tree = fabric.tree(self.plane, self.flights.get(slot).src);
        let Some((&last, rest)) = tree.branches_from(v).split_last() else {
            self.flights.remove(slot);
            return;
        };
        for &i in rest {
            let e = tree.edges[i as usize];
            let copy = self.flights.insert(self.flights.get(slot).clone());
            self.send_or_buffer(v, e.link, e.delta_d as u64, copy);
        }
        let e = tree.edges[last as usize];
        self.send_or_buffer(v, e.link, e.delta_d as u64, slot);
    }

    /// Sends the copy in `slot` over `link` if it is free, else buffers it
    /// in `v` — the only place a switch buffer grows, so the provisioning
    /// check ([`DetailedNetConfig::buffer_depth`]) lives here.
    fn send_or_buffer(&mut self, v: Vertex, link: LinkId, delta_d: u64, slot: u32) {
        let li = link.index();
        if self.next_free[li] <= self.now {
            self.flights.get_mut(slot).slack += delta_d; // rule 3
            let at = self.now + self.cfg.link_latency;
            self.next_free[li] = self.now + self.cfg.link_occupancy;
            self.schedule(at, Ev::Txn { link, slot });
        } else {
            let out_port = self.out_port_idx[li] as usize;
            let slack = self.flights.get(slot).slack;
            let depth = self.cfg.buffer_depth;
            let core = self.core(v);
            core.buffer(out_port, slack, delta_d, slot);
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
        let from = self.fabric.links()[li].from;
        let out_port = self.out_port_idx[li] as usize;
        if let Some((slack, slot)) = self.core(from).pop_sendable(out_port) {
            self.flights.get_mut(slot).slack = slack;
            let at = self.now + self.cfg.link_latency;
            self.next_free[li] = self.now + self.cfg.link_occupancy;
            self.schedule(at, Ev::Txn { link, slot });
            if self.core_ref(from).queued(out_port) > 0 {
                self.arm_link_free(link);
            }
            // Draining a zero-slack transaction may unblock the token wave.
            self.cascade(from);
        }
    }

    /// Fires the propagation handshake at `v` as many times as it can,
    /// scheduling one [`Ev::Tokens`] for all the rounds it fired, and
    /// advancing the endpoint reorder queue when `v` is a node.
    fn cascade(&mut self, v: Vertex) {
        let Some(core) = self.cores[v.index()].as_mut() else {
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
            if let Some(node) = v.as_node(self.num_nodes) {
                self.drain_reorder(node);
            }
        }
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;

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
        net.run_until(Time::from_ns(500));
        let d = net.take_deliveries();
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
        net.run_until(Time::from_ns(5_000));
        let d = net.take_deliveries();
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
        let s = net.stats();
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
        zero.run_until(Time::from_ns(1_000));
        slacked.run_until(Time::from_ns(1_000));
        assert_eq!(zero.take_deliveries().len(), 16);
        assert_eq!(slacked.take_deliveries().len(), 16);
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
        zero.run_until(Time::from_ns(30_000));
        assert_eq!(zero.take_deliveries().len(), 96, "all still delivered");
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
        net.run_until(Time::from_ns(20_000));
        let d = net.take_deliveries();
        assert_eq!(d.len(), 160, "all copies still delivered under contention");
        let mut orders: Vec<Vec<u32>> = vec![Vec::new(); 16];
        for x in &d {
            orders[x.dest.index()].push(*x.payload);
        }
        for o in &orders[1..] {
            assert_eq!(o, &orders[0], "contention broke the total order");
        }
        let stats = net.stats();
        assert!(stats.switch_buffer_high_water > 0, "expected buffering");
    }

    #[test]
    fn self_delivery_waits_for_logical_time() {
        let mut net = unloaded(Fabric::torus4x4(), 2);
        net.inject(Time::from_ns(40), NodeId(3), 9);
        net.run_until(Time::from_ns(40));
        // Not yet processed: the source must wait for its own OT.
        assert!(net.take_deliveries().is_empty());
        net.run_until(Time::from_ns(2_000));
        let d = net.take_deliveries();
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
        net.injected = u64::MAX / 8;
        net.processed = net.injected - 1;
        assert_eq!(net.outstanding(), 16, "one broadcast, 16 copies in flight");
        net.injected = 1;
        net.processed = 0;
        net.run_until(Time::from_ns(2_000));
        assert_eq!(net.outstanding(), 0);
        assert_eq!(net.take_deliveries().len(), 16);
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
            net.run_until(Time::from_ns(20_000));
            let gts = (0..16).map(|n| net.endpoint_gt(NodeId(n))).collect();
            let log = net
                .take_deliveries()
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
        let stats = net.stats();
        // The nearest endpoints receive early and wait; the furthest waits
        // only for the residual slack.
        assert!(stats.ordering_delay.max().unwrap() > stats.ordering_delay.min().unwrap());
        assert_eq!(stats.processed, 16);
        assert_eq!(stats.injected, 1);
    }

    /// One delivery, flattened: (dest, src, seq, ot, arrival,
    /// ordered_at, payload).
    type TraceRow = (u16, u16, u64, Gt, Time, Time, u32);

    /// Every observable bit of a finished run, flattened for the trace
    /// digest.
    fn full_trace(net: &mut DetailedNet<u32>) -> (Vec<TraceRow>, String) {
        let log = net
            .take_deliveries()
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
        (log, format!("{:?}", net.stats()))
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

    fn drive_contended(net: &mut DetailedNet<u32>) -> (Vec<TraceRow>, String) {
        for (at, src, payload) in contended_schedule() {
            net.inject(at, src, payload);
        }
        net.run_until(CONTENDED_END);
        full_trace(net)
    }

    pub(in crate::token) fn contended_cfg(gt_origin: Gt) -> DetailedNetConfig {
        DetailedNetConfig {
            link_occupancy: Duration::from_ns(40),
            initial_slack: 3,
            gt_origin,
            ..DetailedNetConfig::default()
        }
    }

    /// Pins the full trace of the contended schedule — every delivery row
    /// plus the final stats — on both fabrics at both GT origins (zero
    /// and two ticks before an era rollover). Any change to event order,
    /// tie-breaking or §2.2 rule processing moves a digest.
    #[test]
    fn contended_trace_matches_pinned_digests() {
        use tss_sim::hash::fingerprint128;
        let era_edge = Gt::from_parts(0, Gt::TICK_MASK - 1);
        let cases = [
            (
                Fabric::torus4x4(),
                Gt::ZERO,
                "1187148cf0d7afb4c1cb85915b9f0bb0",
            ),
            (
                Fabric::torus4x4(),
                era_edge,
                "1f21c666ee8c3117e429f98a706d56be",
            ),
            (
                Fabric::butterfly(4, 2, 1),
                Gt::ZERO,
                "23e6f5f25cc223b3a137f22bbcb2c7a1",
            ),
            (
                Fabric::butterfly(4, 2, 1),
                era_edge,
                "9162fcb39cf62b6bce636a56f0676aa7",
            ),
        ];
        for (fabric, origin, want) in cases {
            let mut net = DetailedNet::new(Arc::new(fabric), contended_cfg(origin));
            let (log, stats) = drive_contended(&mut net);
            let digest = fingerprint128(format!("{log:?} {stats}").as_bytes());
            assert_eq!(
                format!("{digest:032x}"),
                want,
                "trace moved at origin {origin:?}"
            );
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
        let (log, _) = drive_contended(&mut net);
        assert_eq!(log.len(), 48 * 16, "every copy delivered");
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
        assert_eq!(contended_torus(None).calendar_pops(), 127_402);
    }

    #[test]
    fn buffer_depth_at_the_high_water_completes() {
        let high = contended_torus(None).stats().switch_buffer_high_water;
        assert!(high > 1, "the contended schedule must buffer, got {high}");
        let capped = contended_torus(Some(high as u32));
        assert_eq!(capped.stats().switch_buffer_high_water, high);
    }

    #[test]
    #[should_panic(expected = "provisioned switch buffering")]
    fn buffer_depth_below_the_high_water_panics() {
        let high = contended_torus(None).stats().switch_buffer_high_water;
        contended_torus(Some(high as u32 - 1));
    }
}
