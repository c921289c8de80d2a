//! Event-driven simulation of the full token-passing address network.
//!
//! One event loop drives it: [`DetailedNet::run_until`] pops one calendar
//! event at a time, and the §2.2 handlers mutate the net's state directly
//! and schedule their follow-up events straight into the calendar. No
//! handler ever schedules *at* the current instant — every emission lies
//! at least one link latency or occupancy period ahead — and the calendar
//! breaks same-instant ties FIFO, so a run is a pure function of its
//! configuration and injection schedule.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use tss_sim::stats::LatencyStat;
use tss_sim::{Duration, EventQueue, Gt, GtKey, Time};

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
    /// Which fabric plane to simulate (the fast model handles the
    /// round-robin across planes; each plane is an independent token
    /// domain).
    pub plane: usize,
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
            plane: 0,
            gt_origin: Gt::ZERO,
        }
    }
}

/// A transaction processed (in logical order) at one endpoint of the
/// detailed network.
#[derive(Debug, Clone)]
pub struct DetailedDelivery<P> {
    /// Endpoint that processed the transaction.
    pub dest: NodeId,
    /// Source of the broadcast.
    pub src: NodeId,
    /// Per-source sequence number.
    pub seq: u64,
    /// Ordering time (endpoint GT at processing), wraparound-safe.
    pub ot: Gt,
    /// Physical arrival time at this endpoint (self-deliveries arrive at
    /// injection time).
    pub arrival: Time,
    /// When the endpoint processed the transaction (its GT reached the OT).
    pub processed_at: Time,
    /// The broadcast payload.
    pub payload: Arc<P>,
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
    /// Idle lock-step token waves skipped analytically instead of being
    /// simulated (see `DetailedNet::fast_forward_idle`).
    pub waves_skipped: u64,
}

#[derive(Debug)]
struct FlightTxn<P> {
    src: NodeId,
    seq: u64,
    ot: Gt,
    slack: u64,
    injected_at: Time,
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
            injected_at: self.injected_at,
            payload: Arc::clone(&self.payload),
        }
    }
}

/// What travels over a link. Tokens outnumber transactions by orders of
/// magnitude (every link carries one token per wave), so the transaction
/// payload is boxed: an `Item` — and with it every calendar event — is
/// one word plus the link id, and the token hot path never memcpys the
/// fat `FlightTxn`.
#[derive(Debug)]
enum Item<P> {
    Token,
    Txn(Box<FlightTxn<P>>),
}

#[derive(Debug)]
enum Ev<P> {
    Deliver { link: LinkId, item: Item<P> },
    LinkFree { link: LinkId },
}

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
    cores: Vec<Option<SwitchCore<FlightTxn<P>>>>,
    endpoints: Vec<EndpointExtra<P>>,
    events: EventQueue<Ev<P>>,
    now: Time,
    next_free: Vec<Time>,
    free_scheduled: Vec<bool>,
    /// Per-link index of the link among its source vertex's out-ports.
    out_port_idx: Vec<u32>,
    /// Per-link `(destination vertex, destination in-port)` — the two
    /// facts every delivery needs, packed into one lookup.
    link_dest: Vec<(u32, u32)>,
    /// Per-vertex out-links on this plane, in port order.
    vertex_out_links: Vec<Vec<LinkId>>,
    num_nodes: usize,
    /// Transaction copies parked in endpoint reorder queues (skip the
    /// per-wave per-node reorder peeks when zero).
    reorder_parked: usize,
    deliveries: Vec<DetailedDelivery<P>>,
    ledger: TrafficLedger,
    ordering_delay: LatencyStat,
    injected: u64,
    processed: u64,
    /// Links participating in this plane (= token events per idle wave).
    plane_links: usize,
    /// `Ev::LinkFree` events currently scheduled (blocks fast-forward).
    link_free_pending: usize,
    /// Endpoint-copies injected but not yet processed, maintained per step
    /// (`+= num_nodes` at injection, `-= 1` per processed copy). Replaces
    /// the old `injected * num_nodes - processed` derivation, whose
    /// multiply overflows u64 long before the counters themselves do.
    copies_outstanding: u64,
    /// Idle waves skipped in closed form.
    waves_skipped: u64,
    /// Net-level mirror of the largest per-switch buffer occupancy ever
    /// observed, maintained on the (rare) buffering path so the per-poll
    /// provisioning check is O(1).
    buffer_high_water: usize,
    /// Per-link stamp (vs `ff_generation`) for the one-token-per-link
    /// check, so a fast-forward attempt needs no clearing pass.
    link_stamp: Vec<u64>,
    /// Generation counter for `link_stamp`.
    ff_generation: u64,
}

impl<P> DetailedNet<P> {
    /// Builds the network and performs the initial token kick: every input
    /// port starts with one token (§2.2), so every switch and endpoint
    /// fires once at time zero and the token wave self-times from there.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.plane` is out of range for `fabric`.
    pub fn new(fabric: Arc<Fabric>, cfg: DetailedNetConfig) -> Self {
        assert!(cfg.plane < fabric.planes(), "plane out of range");
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
            if l.plane != cfg.plane as u32 {
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

        let plane_links = fabric
            .links()
            .iter()
            .filter(|l| l.plane == cfg.plane as u32)
            .count();
        let link_dest: Vec<(u32, u32)> = fabric
            .links()
            .iter()
            .enumerate()
            .map(|(i, l)| (l.to.0, in_port_idx[i]))
            .collect();
        let ledger = TrafficLedger::new(&fabric);
        let mut net = DetailedNet {
            endpoints: (0..fabric.num_nodes())
                .map(|_| EndpointExtra::default())
                .collect(),
            cores,
            events: EventQueue::new(),
            now: Time::ZERO,
            next_free: vec![Time::ZERO; fabric.links().len()],
            free_scheduled: vec![false; fabric.links().len()],
            out_port_idx,
            link_dest,
            vertex_out_links,
            num_nodes: fabric.num_nodes(),
            reorder_parked: 0,
            deliveries: Vec::new(),
            ledger,
            ordering_delay: LatencyStat::new(),
            injected: 0,
            processed: 0,
            plane_links,
            link_free_pending: 0,
            copies_outstanding: 0,
            waves_skipped: 0,
            buffer_high_water: 0,
            link_stamp: vec![0; fabric.links().len()],
            ff_generation: 0,
            fabric,
            cfg,
        };
        // Initial kick: everything can fire once at t = 0.
        for v in 0..nv {
            net.cascade(Vertex(v as u32));
        }
        net
    }

    /// Skips idle lock-step token waves in closed form, advancing the
    /// simulation as close to `to` as whole waves allow. Returns the
    /// number of waves skipped (0 when the precondition does not hold).
    ///
    /// In the idle steady state the token wave is strictly periodic: at
    /// one instant `t` every link carries exactly one token, delivering
    /// them fires every switch exactly once, and the identical wave
    /// reappears at `t + link_latency` with every guarantee time advanced
    /// by one. Simulating `k` such waves is therefore equivalent to adding
    /// `k` to every GT and re-timing the pending wave by `k·link_latency`
    /// — which is what this does, after verifying the steady state
    /// *exactly*:
    ///
    /// * no transaction copy anywhere (in flight, buffered, or parked in a
    ///   reorder queue): [`DetailedNet::outstanding`] is 0;
    /// * no `LinkFree` event pending (a busy-link residue);
    /// * every pending event sits at one single instant, with exactly
    ///   **one token per link** — equal counts alone can hide bunching
    ///   (two tokens on one link, none on another) in post-contention
    ///   states, which advances guarantee times non-uniformly;
    /// * no switch holds an unconsumed token.
    ///
    /// When any check fails (e.g. a post-contention wave still re-syncing)
    /// the caller simply simulates wave by wave — slower, never wrong.
    /// The wave at `t_next + k·link_latency` itself is left to be
    /// simulated normally, so the observable state at any instant `<= to`
    /// is bit-for-bit what wave-by-wave simulation produces.
    pub fn fast_forward_idle(&mut self, to: Time) -> u64 {
        if self.outstanding() != 0 || self.link_free_pending != 0 {
            return 0;
        }
        let Some(t_next) = self.events.single_instant() else {
            return 0;
        };
        if self.events.len() != self.plane_links || to <= t_next {
            return 0;
        }
        let tau = self.cfg.link_latency.as_ns();
        let k = (to.as_ns() - t_next.as_ns()) / tau;
        if k == 0 {
            return 0;
        }
        if self
            .cores
            .iter()
            .flatten()
            .any(SwitchCore::has_pending_tokens)
        {
            return 0;
        }
        // One token per link, exactly: anything else is a skewed wave.
        self.ff_generation += 1;
        for ev in self.events.head_instant_events() {
            let Ev::Deliver {
                link,
                item: Item::Token,
            } = ev
            else {
                return 0;
            };
            if self.link_stamp[link.index()] == self.ff_generation {
                return 0; // two tokens bunched on one link
            }
            self.link_stamp[link.index()] = self.ff_generation;
        }
        // Re-time the wave to `t_next + k·τ` in one O(1) bucket move
        // (FIFO within the instant preserved), and advance every
        // guarantee time by the skipped wave count.
        let shifted = Time::from_ns(t_next.as_ns() + k * tau);
        if !self.events.reschedule_head_instant(shifted) {
            return 0;
        }
        for core in self.cores.iter_mut().flatten() {
            core.advance_gt(k);
        }
        self.waves_skipped += k;
        k
    }

    /// Takes all endpoint deliveries processed so far (in processing
    /// order, globally timestamped).
    pub fn take_deliveries(&mut self) -> Vec<DetailedDelivery<P>> {
        std::mem::take(&mut self.deliveries)
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

    /// Endpoint-copies injected but not yet handed out through
    /// [`DetailedNet::take_deliveries`]'s backing store: copies still in
    /// flight, buffered in switches, or parked in endpoint reorder queues.
    /// Maintained incrementally so it stays exact however large the
    /// lifetime `injected` count grows.
    pub fn outstanding(&self) -> u64 {
        self.copies_outstanding
    }

    /// Largest switch-buffer occupancy observed so far on this plane —
    /// the cheap accessor the per-poll buffer-provisioning check uses
    /// (unlike [`DetailedNet::stats`], which assembles the full report).
    pub fn switch_buffer_high_water(&self) -> usize {
        self.buffer_high_water
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
        let high_water = self.switch_buffer_high_water();
        DetailedNetStats {
            min_endpoint_gt: gts.iter().copied().min().unwrap_or(Gt::ZERO),
            max_endpoint_gt: gts.iter().copied().max().unwrap_or(Gt::ZERO),
            switch_buffer_high_water: high_water,
            ordering_delay: self.ordering_delay,
            injected: self.injected,
            processed: self.processed,
            waves_skipped: self.waves_skipped,
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
        let max_depth = self.fabric.tree(self.cfg.plane, src).max_depth_links as u64;
        let gt = self.core_ref(Vertex::node(src)).gt();
        let ot = gt.wrapping_add(max_depth + self.cfg.initial_slack);
        let seq = self.endpoints[src.index()].next_seq;
        self.endpoints[src.index()].next_seq += 1;
        let payload = Arc::new(payload);

        // The source snoops its own transaction through the network like
        // everyone else: the broadcast tree re-delivers to the root.
        let ft = FlightTxn {
            src,
            seq,
            ot,
            slack: self.cfg.initial_slack,
            injected_at: now,
            payload,
        };
        self.forward_branches(Vertex::node(src), ft);
        self.ledger
            .record_tree(self.fabric.tree(self.cfg.plane, src), MsgClass::Request);
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
                Ev::Deliver { link, item } => self.deliver(link, item),
                Ev::LinkFree { link } => {
                    self.free_scheduled[link.index()] = false;
                    self.link_free_pending -= 1;
                    self.link_freed(link);
                }
            }
        }
        if t > self.now {
            self.now = t;
        }
    }

    fn core(&mut self, v: Vertex) -> &mut SwitchCore<FlightTxn<P>> {
        self.cores[v.index()]
            .as_mut()
            .expect("vertex participates in this plane")
    }

    fn core_ref(&self, v: Vertex) -> &SwitchCore<FlightTxn<P>> {
        self.cores[v.index()]
            .as_ref()
            .expect("vertex participates in this plane")
    }

    /// Schedules a follow-up event; never at the open instant (see the
    /// module docs).
    fn schedule(&mut self, at: Time, ev: Ev<P>) {
        debug_assert!(at > self.now, "emission at the open instant");
        self.events.schedule(at, ev);
    }

    fn deliver(&mut self, link: LinkId, item: Item<P>) {
        let (to, port) = self.link_dest[link.index()];
        let (to, port) = (Vertex(to), port as usize);
        match item {
            Item::Token => {
                // Fused token path: one core lookup serves both the
                // arrival and the propagation-readiness test, and the
                // cascade is entered only when this token completed a
                // wave at `to` (the common miss is one compare).
                let core = self.core(to);
                core.token_arrives(port);
                if core.can_propagate() {
                    self.cascade(to);
                }
            }
            Item::Txn(boxed) => {
                let mut ft = *boxed;
                ft.slack = self.core(to).txn_enters(port, ft.slack); // rule 1
                match to.as_node(self.num_nodes) {
                    Some(node) => self.endpoint_receives(node, ft),
                    None => self.forward_branches(to, ft),
                }
            }
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
            self.deliveries.push(DetailedDelivery {
                dest: node,
                src: NodeId(e.key.src()),
                seq: e.key.seq(),
                ot: e.key.gt(),
                arrival: e.arrival,
                processed_at: self.now,
                payload: e.payload,
            });
        }
    }

    /// Forwards a transaction along its broadcast-tree branches leaving
    /// `v`, sending immediately where the link is free and buffering
    /// otherwise.
    fn forward_branches(&mut self, v: Vertex, ft: FlightTxn<P>) {
        // A second handle on the fabric lets the tree be walked while the
        // sends mutate `self` — no per-hop branch buffer needed.
        let fabric = Arc::clone(&self.fabric);
        let tree = fabric.tree(self.cfg.plane, ft.src);
        for &i in tree.branches_from(v) {
            let e = tree.edges[i as usize];
            self.send_or_buffer(v, e.link, e.delta_d as u64, ft.clone());
        }
    }

    fn send_or_buffer(&mut self, v: Vertex, link: LinkId, delta_d: u64, mut ft: FlightTxn<P>) {
        let li = link.index();
        if self.next_free[li] <= self.now {
            ft.slack += delta_d; // rule 3
            let at = self.now + self.cfg.link_latency;
            self.next_free[li] = self.now + self.cfg.link_occupancy;
            self.schedule(
                at,
                Ev::Deliver {
                    link,
                    item: Item::Txn(Box::new(ft)),
                },
            );
        } else {
            let out_port = self.out_port_idx[li] as usize;
            let slack = ft.slack;
            let core = self.core(v);
            core.buffer(out_port, slack, delta_d, ft);
            let high_water = core.buffer_high_water();
            self.buffer_high_water = self.buffer_high_water.max(high_water);
            self.arm_link_free(link);
        }
    }

    /// Schedules a `LinkFree` for `link` at its next free instant, unless
    /// one is already pending.
    fn arm_link_free(&mut self, link: LinkId) {
        let li = link.index();
        if !self.free_scheduled[li] {
            self.free_scheduled[li] = true;
            self.link_free_pending += 1;
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
        if let Some((slack, ft)) = self.core(from).pop_sendable(out_port) {
            let at = self.now + self.cfg.link_latency;
            self.next_free[li] = self.now + self.cfg.link_occupancy;
            self.schedule(
                at,
                Ev::Deliver {
                    link,
                    item: Item::Txn(Box::new(FlightTxn { slack, ..ft })),
                },
            );
            if self.core_ref(from).queued(out_port) > 0 {
                self.arm_link_free(link);
            }
            // Draining a zero-slack transaction may unblock the token wave.
            self.cascade(from);
        }
    }

    /// Fires the propagation handshake at `v` as many times as it can,
    /// emitting tokens on every output link each time, and advancing the
    /// endpoint reorder queue when `v` is a node.
    fn cascade(&mut self, v: Vertex) {
        let Some(core) = self.cores[v.index()].as_mut() else {
            return;
        };
        let mut fired = 0;
        while core.propagate() {
            fired += 1;
        }
        if fired == 0 {
            return;
        }
        // `fired` tokens per output link, all one link latency ahead.
        let at = self.now + self.cfg.link_latency;
        for _ in 0..fired {
            for &link in &self.vertex_out_links[v.index()] {
                self.events.schedule(
                    at,
                    Ev::Deliver {
                        link,
                        item: Item::Token,
                    },
                );
            }
        }
        if self.reorder_parked > 0 {
            if let Some(node) = v.as_node(self.num_nodes) {
                self.drain_reorder(node);
            }
        }
    }
}

#[cfg(test)]
mod tests {
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
        let t0 = d[0].processed_at;
        assert!(d.iter().all(|x| x.processed_at == t0));
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
        assert!(self_copy.processed_at > Time::from_ns(40));
        // The self copy physically travels node -> switch -> node.
        assert_eq!(self_copy.arrival, Time::from_ns(40 + 2 * 15));
    }

    /// The closed-form idle fast-forward must be observationally
    /// invisible: a net driven across a long idle gap in one jump (waves
    /// skipped analytically) must end in exactly the state of a net
    /// stepped wave by wave — same GTs, same wave phase, and identical
    /// behaviour for traffic injected after the gap.
    #[test]
    fn idle_fast_forward_matches_wave_by_wave_simulation() {
        type EndpointLog = Vec<Vec<(u32, Gt, u64)>>;
        let drive = |skip: bool| -> (Vec<Gt>, EndpointLog) {
            let mut net = unloaded(Fabric::torus4x4(), 2);
            net.inject(Time::from_ns(40), NodeId(1), 7);
            net.run_until(Time::from_ns(400));
            // A long idle gap: ~600 waves.
            let target = Time::from_ns(10_000);
            if skip {
                let skipped = net.fast_forward_idle(target);
                assert!(skipped > 400, "gap should fast-forward, got {skipped}");
            }
            net.run_until(target);
            // Traffic after the gap must behave identically.
            net.inject(Time::from_ns(10_007), NodeId(3), 9);
            net.run_until(Time::from_ns(12_000));
            let gts = (0..16).map(|n| net.endpoint_gt(NodeId(n))).collect();
            // Per-endpoint logs: the order *within* one endpoint and the
            // processing instants are the observable contract (cross-node
            // order inside one instant is not — the min-GT merge sorts).
            let mut log = vec![Vec::new(); 16];
            for d in net.take_deliveries() {
                log[d.dest.index()].push((*d.payload, d.ot, d.processed_at.as_ns()));
            }
            (gts, log)
        };
        let (gt_skip, log_skip) = drive(true);
        let (gt_step, log_step) = drive(false);
        assert_eq!(gt_skip, gt_step, "guarantee times diverged");
        assert_eq!(log_skip, log_step, "per-endpoint delivery logs diverged");
    }

    #[test]
    fn fast_forward_declines_non_idle_states() {
        let mut net = unloaded(Fabric::torus4x4(), 2);
        net.inject(Time::from_ns(40), NodeId(0), 1);
        // Copies in flight: outstanding() > 0, so no skip.
        assert_eq!(net.fast_forward_idle(Time::from_ns(5_000)), 0);
        net.run_until(Time::from_ns(2_000));
        net.take_deliveries();
        // Quiescent: a skip shorter than one wave period is also refused.
        assert_eq!(net.fast_forward_idle(Time::from_ns(2_001)), 0);
        assert!(net.fast_forward_idle(Time::from_ns(5_000)) > 0);
        assert!(net.stats().waves_skipped > 0);
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
        // (dest, src, seq, ot - origin, arrival ns, processed ns)
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
                        d.processed_at.as_ns(),
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
    /// processed_at, payload).
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
                    d.processed_at,
                    *d.payload,
                )
            })
            .collect();
        (log, format!("{:?}", net.stats()))
    }

    /// A contended mixed workload: bursty same-instant injections from
    /// rotating sources, with link occupancy > latency so buffering,
    /// LinkFree re-arms and token stalls all occur.
    fn drive_contended(net: &mut DetailedNet<u32>) -> (Vec<TraceRow>, String) {
        let mut t = 10u64;
        for i in 0..48u32 {
            let src = NodeId((i * 5 % 16) as u16);
            net.inject(Time::from_ns(t), src, i);
            t += if i % 3 == 0 { 0 } else { 17 };
        }
        net.run_until(Time::from_ns(60_000));
        full_trace(net)
    }

    fn contended_cfg(gt_origin: Gt) -> DetailedNetConfig {
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
                "426c577111bce89901a8182ad0f8e05d",
            ),
            (
                Fabric::torus4x4(),
                era_edge,
                "9be2ecfd6e379879dbe8eaba3190772e",
            ),
            (
                Fabric::butterfly(4, 2, 1),
                Gt::ZERO,
                "415d98b229247f8f981c9bcc550faebd",
            ),
            (
                Fabric::butterfly(4, 2, 1),
                era_edge,
                "fb953c08ded70bc5488dbcf4b735d915",
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
}
