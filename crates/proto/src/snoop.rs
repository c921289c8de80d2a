//! TS-Snoop: MSI write-invalidate broadcast snooping over the
//! timestamp-ordered address network (§3).
//!
//! Every cache and memory controller processes the same total order of
//! address transactions (established by the network); this module contains
//! the state machines that react to that order. Two paper-specific
//! mechanisms:
//!
//! * **Memory owner bit** (Synapse scheme): one bit per block says whether
//!   memory owns it. Since the owned/shared wired-OR signals of classical
//!   snooping cannot exist on a switched network, memory decides locally
//!   whether to respond. A small per-block transient (pending-writeback
//!   counter plus a deferred-request queue) covers the windows where
//!   ownership is in flight back to memory.
//! * **Prefetch (optimisation 1, §3)**: controllers start their DRAM/SRAM
//!   access when a transaction *arrives*, but only respond once it is
//!   *ordered* — hiding the worst-case broadcast delay.
//!
//! The protocol is MSI (paper §4.2: "All are MSI protocols"), with silent
//! S→I downgrades. Ownership transfers at **ordering time**: a cache whose
//! GETM has been ordered is the logical owner even before its data arrives,
//! so it queues intervening snoops and services the first of them after its
//! fill (subsequent ones are, by the same total order, someone else's
//! responsibility — see `drain_one_queued`).

use std::collections::VecDeque;

use tss_sim::hash::FastMap;

use tss_net::NodeId;
use tss_sim::{Duration, Time};

use crate::cache::{CacheConfig, CacheState, L2Cache};
use crate::engine::{self, data, Retire, WbLog, WbState};
use crate::types::{
    AddrTxn, Block, CpuOp, Msg, ProtoAction, ProtoEvent, Protocol, ProtocolStats, TxnKind, Vnet,
    WbKey,
};

/// Controller occupancy timing (Table 2).
#[derive(Debug, Clone, Copy)]
pub struct SnoopTiming {
    /// Memory (DRAM + directory-bit read-modify-write) access time
    /// (`D_mem`, 80 ns).
    pub d_mem: Duration,
    /// Cache (SRAM tag+data) access time when sourcing data to the network
    /// (`D_cache`, 25 ns).
    pub d_cache: Duration,
    /// §3 optimisation 1: start the memory/cache access at transaction
    /// *arrival* rather than at ordering (the paper's evaluation enables
    /// this).
    pub prefetch: bool,
}

impl SnoopTiming {
    /// Paper Table 2 values with prefetch enabled.
    pub fn paper_default() -> Self {
        SnoopTiming {
            d_mem: Duration::from_ns(80),
            d_cache: Duration::from_ns(25),
            prefetch: true,
        }
    }

    /// Occupancy `access` starting at `arrival` (prefetch) or `now`,
    /// expressed as a delay from `now` (the ordering instant).
    fn response_delay(&self, now: Time, arrival: Time, access: Duration) -> Duration {
        if self.prefetch {
            (arrival + access).saturating_since(now)
        } else {
            access
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MshrState {
    /// GETS issued, waiting for it to be ordered.
    IsAd,
    /// GETS ordered, waiting for data.
    IsD,
    /// GETM issued, waiting for it to be ordered.
    ImAd,
    /// GETM ordered (this node is the logical owner), waiting for data.
    ImD,
}

#[derive(Debug)]
struct Mshr {
    block: Block,
    state: MshrState,
    /// A GETM was ordered after our GETS: take the data for the one load,
    /// then drop to I.
    invalidated: bool,
    /// Snoops ordered while we were the logical owner without data (ImD).
    queued: VecDeque<(TxnKind, NodeId)>,
    /// A `(value, from_cache)` data response that physically arrived
    /// before our own request was ordered *here*. The data network is
    /// unordered, so under address-network contention an owner whose
    /// guarantee time runs ahead of ours can respond early; the response
    /// waits in the MSHR and is consumed at our local ordering instant.
    /// (Unloaded address models order every endpoint at one instant, so
    /// they never populate this.)
    early_data: Option<(u64, bool)>,
}

#[derive(Debug)]
struct SnoopNode {
    cache: L2Cache,
    mshr: Option<Mshr>,
    /// Outstanding writebacks, resolved when their PutM is ordered.
    wb: WbLog,
}

/// One entry of memory's deferred log (per block).
#[derive(Debug)]
enum MemEntry {
    /// An ordered request memory could not yet decide on.
    Req { kind: TxnKind, r: NodeId },
    /// A promised writeback: `resolved` is `None` until the matching
    /// `WbData`/`WbNoData` arrives (`Some(Some(v))` / `Some(None)`).
    AwaitWb {
        key: WbKey,
        resolved: Option<Option<u64>>,
    },
}

/// Per-block memory-controller state (home node).
///
/// Memory processes the ordered transaction stream with a *deferred log*:
/// whenever it cannot act on a transaction yet (ownership is in flight
/// back to it), the transaction — and the writeback slot it implies — is
/// appended to `queue` in order. Writebacks resolve their slot by
/// [`WbKey`]; the log then replays strictly in order, so every queued
/// request is served with the value that was current *at its position in
/// the total order*.
#[derive(Debug)]
struct MemBlock {
    /// The Synapse owner bit: memory responds iff set (and the log is
    /// empty).
    owned: bool,
    value: u64,
    queue: VecDeque<MemEntry>,
    /// Writebacks that arrived before their slot materialised (their
    /// triggering request is still queued as a `Req`).
    early_wbs: Vec<(WbKey, Option<u64>)>,
}

impl Default for MemBlock {
    fn default() -> Self {
        MemBlock {
            owned: true,
            value: 0,
            queue: VecDeque::new(),
            early_wbs: Vec::new(),
        }
    }
}

impl MemBlock {
    /// Opens a writeback slot, consuming a matching early-arrived
    /// writeback if one is already stashed. The data network is
    /// unordered, so when the address network runs contended the home's
    /// guarantee time can lag the writer's and the `WbData`/`WbNoData`
    /// physically beats the snoop of its own transaction; every site that
    /// opens a slot must check the stash or the log stalls forever.
    fn await_wb(&mut self, key: WbKey) -> MemEntry {
        let resolved = self
            .early_wbs
            .iter()
            .position(|(k, _)| *k == key)
            .map(|i| self.early_wbs.remove(i).1);
        MemEntry::AwaitWb { key, resolved }
    }
}

/// The TS-Snoop protocol engine (all nodes' cache + memory controllers).
///
/// # Example
///
/// ```
/// use tss_proto::{CacheConfig, CpuOp, Block, Protocol, ProtoAction, SnoopTiming, TsSnoop};
/// use tss_net::NodeId;
/// use tss_sim::Time;
///
/// let mut p = TsSnoop::new(4, CacheConfig::paper_default(), SnoopTiming::paper_default(), true);
/// let mut out = Vec::new();
/// p.cpu_op(Time::ZERO, NodeId(0), CpuOp::Load(Block(7)), &mut out);
/// // A cold load misses and broadcasts a GETS.
/// assert!(matches!(out[0], ProtoAction::Broadcast { .. }));
/// ```
#[derive(Debug)]
pub struct TsSnoop {
    n: usize,
    nodes: Vec<SnoopNode>,
    mem: FastMap<Block, MemBlock>,
    timing: SnoopTiming,
    retire: Retire,
}

impl TsSnoop {
    /// Creates the engine for `n` nodes. `verify` enables the lost-update /
    /// monotonicity checker (tests on, long benchmarks off).
    pub fn new(n: usize, cache: CacheConfig, timing: SnoopTiming, verify: bool) -> Self {
        TsSnoop {
            n,
            nodes: (0..n)
                .map(|_| SnoopNode {
                    cache: L2Cache::new(cache),
                    mshr: None,
                    wb: WbLog::default(),
                })
                .collect(),
            mem: FastMap::default(),
            timing,
            retire: Retire::new(verify),
        }
    }

    /// Direct read access to a node's cache (diagnostics/tests).
    pub fn cache(&self, node: NodeId) -> &L2Cache {
        &self.nodes[node.index()].cache
    }

    /// Every TS-Snoop message travels on the data network.
    fn send(out: &mut Vec<ProtoAction>, src: NodeId, dst: NodeId, msg: Msg, delay: Duration) {
        engine::send(out, src, dst, msg, Vnet::Data, delay);
    }

    /// Fill the requesting node's cache and broadcast the PutM of a dirty
    /// victim.
    fn fill(
        &mut self,
        node: NodeId,
        block: Block,
        state: CacheState,
        value: u64,
        out: &mut Vec<ProtoAction>,
    ) {
        let SnoopNode { cache, wb, .. } = &mut self.nodes[node.index()];
        if let Some(v) = self.retire.fill(cache, wb, block, state, value) {
            out.push(ProtoAction::Broadcast {
                src: node,
                txn: AddrTxn {
                    kind: TxnKind::PutM,
                    block: v.block,
                    requester: node,
                },
            });
        }
    }

    /// Memory-controller processing of an ordered transaction at the home
    /// node.
    fn memory_process(
        &mut self,
        now: Time,
        home: NodeId,
        txn: AddrTxn,
        arrival: Time,
        out: &mut Vec<ProtoAction>,
    ) {
        let delay = self.timing.response_delay(now, arrival, self.timing.d_mem);
        let mb = self.mem.entry(txn.block).or_default();
        if !mb.queue.is_empty() {
            // Memory is behind: append in order and replay later.
            let entry = match txn.kind {
                TxnKind::GetS | TxnKind::GetM => MemEntry::Req {
                    kind: txn.kind,
                    r: txn.requester,
                },
                TxnKind::PutM => mb.await_wb(WbKey::PutM(txn.requester)),
            };
            mb.queue.push_back(entry);
        } else {
            match txn.kind {
                TxnKind::GetS => {
                    if mb.owned {
                        let value = mb.value;
                        Self::send(
                            out,
                            home,
                            txn.requester,
                            data(txn.block, value, false),
                            delay,
                        );
                    } else {
                        // A cache owns the block; it will respond *and*
                        // write back (M→S forces the data home in MSI).
                        // Memory stalls its log on that promised writeback.
                        let entry = mb.await_wb(WbKey::GetS(txn.requester));
                        mb.queue.push_back(entry);
                    }
                }
                TxnKind::GetM => {
                    if mb.owned {
                        let value = mb.value;
                        mb.owned = false;
                        Self::send(
                            out,
                            home,
                            txn.requester,
                            data(txn.block, value, false),
                            delay,
                        );
                    }
                    // else: the owning cache chain responds; no writeback
                    // is promised (M moves cache-to-cache).
                }
                TxnKind::PutM => {
                    // The evictor will send WbData (still owner) or
                    // WbNoData (lost the race) when it sees its own PutM
                    // ordered.
                    let entry = mb.await_wb(WbKey::PutM(txn.requester));
                    mb.queue.push_back(entry);
                }
            }
        }
        // A slot opened above may already be resolved (its writeback
        // arrived early); replay so the log cannot stall on it.
        self.memory_replay(home, txn.block, out);
    }

    /// A writeback (data or no-data) landed at the home: resolve its slot
    /// in the deferred log and replay the log in order.
    fn memory_wb(
        &mut self,
        home: NodeId,
        block: Block,
        key: WbKey,
        payload: Option<u64>,
        out: &mut Vec<ProtoAction>,
    ) {
        let mb = self.mem.entry(block).or_default();
        let slot = mb.queue.iter_mut().find_map(|e| match e {
            MemEntry::AwaitWb { key: k, resolved } if *k == key && resolved.is_none() => {
                Some(resolved)
            }
            _ => None,
        });
        match slot {
            Some(resolved) => *resolved = Some(payload),
            None => {
                // The triggering request is itself still queued as a Req;
                // stash until the replay converts it into a slot.
                mb.early_wbs.push((key, payload));
            }
        }
        self.memory_replay(home, block, out);
    }

    /// Replays the deferred log strictly in order, stopping at the first
    /// still-unresolved writeback slot. Each replayed request sees the
    /// memory state that was current at its position in the total order.
    fn memory_replay(&mut self, home: NodeId, block: Block, out: &mut Vec<ProtoAction>) {
        let d_mem = self.timing.d_mem;
        let mb = self.mem.entry(block).or_default();
        loop {
            match mb.queue.front_mut() {
                None => break,
                Some(MemEntry::AwaitWb { resolved: None, .. }) => break,
                Some(MemEntry::AwaitWb {
                    resolved: Some(payload),
                    ..
                }) => {
                    if let Some(v) = payload {
                        mb.owned = true;
                        mb.value = *v;
                    }
                    mb.queue.pop_front();
                }
                Some(MemEntry::Req { kind, r }) => {
                    let (kind, r) = (*kind, *r);
                    mb.queue.pop_front();
                    match kind {
                        TxnKind::GetS => {
                            if mb.owned {
                                let value = mb.value;
                                Self::send(out, home, r, data(block, value, false), d_mem);
                            } else {
                                // The owner chain serves this GetS and owes
                                // memory a writeback: open the slot (it may
                                // already have arrived early).
                                let entry = mb.await_wb(WbKey::GetS(r));
                                let unresolved =
                                    matches!(entry, MemEntry::AwaitWb { resolved: None, .. });
                                mb.queue.push_front(entry);
                                if unresolved {
                                    break;
                                }
                            }
                        }
                        TxnKind::GetM => {
                            if mb.owned {
                                let value = mb.value;
                                mb.owned = false;
                                Self::send(out, home, r, data(block, value, false), d_mem);
                            }
                            // else: the owner chain serves it; nothing owed.
                        }
                        TxnKind::PutM => unreachable!("PutM queues as AwaitWb"),
                    }
                }
            }
        }
    }

    /// After an ImD fill, service the first queued snoop (if any); the
    /// rest are covered by memory or the next owner, per the total order.
    fn drain_one_queued(
        &mut self,
        node: NodeId,
        block: Block,
        queued: &mut VecDeque<(TxnKind, NodeId)>,
        out: &mut Vec<ProtoAction>,
    ) {
        let d_cache = self.timing.d_cache;
        if let Some((kind, r)) = queued.pop_front() {
            let value = self.nodes[node.index()]
                .cache
                .value(block)
                .expect("owner just filled this block");
            match kind {
                TxnKind::GetS => {
                    Self::send(out, node, r, data(block, value, true), d_cache);
                    Self::send(
                        out,
                        node,
                        block.home(self.n),
                        Msg::WbData {
                            block,
                            value,
                            key: WbKey::GetS(r),
                        },
                        d_cache,
                    );
                    self.nodes[node.index()]
                        .cache
                        .set_state(block, CacheState::Shared);
                }
                TxnKind::GetM => {
                    Self::send(out, node, r, data(block, value, true), d_cache);
                    self.nodes[node.index()].cache.invalidate(block);
                }
                TxnKind::PutM => unreachable!("PutM snoops are never queued"),
            }
        }
        queued.clear();
    }

    fn snooped(
        &mut self,
        now: Time,
        me: NodeId,
        txn: AddrTxn,
        arrival: Time,
        out: &mut Vec<ProtoAction>,
    ) {
        let is_mine = txn.requester == me;
        let cache_delay = self
            .timing
            .response_delay(now, arrival, self.timing.d_cache);

        match txn.kind {
            TxnKind::PutM => {
                if is_mine {
                    // Our own PutM reached its place in the order: resolve
                    // the oldest outstanding writeback for this block.
                    let home = txn.block.home(self.n);
                    let entry = self.nodes[me.index()].wb.resolve_oldest(txn.block);
                    match entry.state {
                        WbState::MiA => Self::send(
                            out,
                            me,
                            home,
                            Msg::WbData {
                                block: txn.block,
                                value: entry.value,
                                key: WbKey::PutM(me),
                            },
                            cache_delay,
                        ),
                        WbState::IiA => Self::send(
                            out,
                            me,
                            home,
                            Msg::WbNoData {
                                block: txn.block,
                                key: WbKey::PutM(me),
                            },
                            cache_delay,
                        ),
                    }
                }
                // Other caches ignore PutM broadcasts.
            }
            TxnKind::GetS | TxnKind::GetM => {
                // 1) Our own request reaching its ordering point. A data
                // response that physically arrived early (unordered data
                // network vs a contended address network) is consumed at
                // the end of this snoop, once the ordering point's other
                // effects have applied.
                let mut early_data = None;
                if is_mine {
                    if let Some(m) = self.nodes[me.index()].mshr.as_mut() {
                        if m.block == txn.block {
                            m.state = match m.state {
                                MshrState::IsAd => MshrState::IsD,
                                MshrState::ImAd => MshrState::ImD,
                                s => s,
                            };
                            early_data = m.early_data.take();
                        }
                    }
                }

                // 2) An outstanding writeback that still owns the data
                // responds — including to our own refetch of the block.
                let served = self.nodes[me.index()].wb.serve_owned(txn.block);
                if let Some(value) = served {
                    Self::send(
                        out,
                        me,
                        txn.requester,
                        data(txn.block, value, !is_mine),
                        cache_delay,
                    );
                    if txn.kind == TxnKind::GetS {
                        Self::send(
                            out,
                            me,
                            txn.block.home(self.n),
                            Msg::WbData {
                                block: txn.block,
                                value,
                                key: WbKey::GetS(txn.requester),
                            },
                            cache_delay,
                        );
                    }
                }

                // 3) Stable-state reactions.
                if served.is_none() {
                    match self.nodes[me.index()].cache.state(txn.block) {
                        Some(CacheState::Modified) => {
                            debug_assert!(!is_mine, "a hit would not have broadcast");
                            let value = self.nodes[me.index()]
                                .cache
                                .value(txn.block)
                                .expect("modified block has a value");
                            Self::send(
                                out,
                                me,
                                txn.requester,
                                data(txn.block, value, true),
                                cache_delay,
                            );
                            match txn.kind {
                                TxnKind::GetS => {
                                    Self::send(
                                        out,
                                        me,
                                        txn.block.home(self.n),
                                        Msg::WbData {
                                            block: txn.block,
                                            value,
                                            key: WbKey::GetS(txn.requester),
                                        },
                                        cache_delay,
                                    );
                                    self.nodes[me.index()]
                                        .cache
                                        .set_state(txn.block, CacheState::Shared);
                                }
                                TxnKind::GetM => {
                                    self.nodes[me.index()].cache.invalidate(txn.block);
                                }
                                TxnKind::PutM => unreachable!(),
                            }
                        }
                        Some(CacheState::Shared) if txn.kind == TxnKind::GetM && !is_mine => {
                            self.nodes[me.index()].cache.invalidate(txn.block);
                        }
                        Some(CacheState::Shared) => {}
                        None => {}
                    }

                    // 4) Transient interactions with someone else's request.
                    if !is_mine {
                        if let Some(m) = self.nodes[me.index()].mshr.as_mut() {
                            if m.block == txn.block {
                                match (m.state, txn.kind) {
                                    (MshrState::IsD, TxnKind::GetM) => m.invalidated = true,
                                    (MshrState::ImD, k) => {
                                        m.queued.push_back((k, txn.requester));
                                    }
                                    _ => {}
                                }
                            }
                        }
                    }
                }

                // Memory controller at the home node.
                if me == txn.block.home(self.n) {
                    self.memory_process(now, me, txn, arrival, out);
                }
                // Now that we are ordered, consume a parked early response.
                if let Some((value, from_cache)) = early_data {
                    self.data_arrived(me, txn.block, value, from_cache, out);
                }
                return;
            }
        }

        // PutM also reaches the memory controller.
        if me == txn.block.home(self.n) {
            self.memory_process(now, me, txn, arrival, out);
        }
    }

    fn data_arrived(
        &mut self,
        me: NodeId,
        block: Block,
        value: u64,
        from_cache: bool,
        out: &mut Vec<ProtoAction>,
    ) {
        // Early arrival: the data network is unordered, so a response can
        // physically land before our own request's ordering point when
        // address-network contention skews endpoint guarantee times. Park
        // it in the MSHR; the snoop of our own request consumes it.
        if let Some(m) = self.nodes[me.index()].mshr.as_mut() {
            if matches!(m.state, MshrState::IsAd | MshrState::ImAd) {
                assert_eq!(m.block, block, "data for the wrong block");
                assert!(m.early_data.is_none(), "duplicate data response");
                m.early_data = Some((value, from_cache));
                return;
            }
        }
        let m = self.nodes[me.index()]
            .mshr
            .take()
            .expect("data without an outstanding miss");
        assert_eq!(m.block, block, "data for the wrong block");
        if from_cache {
            self.retire.stats.cache_to_cache += 1;
        }
        match m.state {
            MshrState::IsD => {
                // An invalidated load uses the value once (it is ordered
                // before the invalidating GETM) without caching it.
                if !m.invalidated {
                    self.fill(me, block, CacheState::Shared, value, out);
                }
                self.retire.load(me, block, value, out);
            }
            MshrState::ImD => {
                // Stores increment (verification).
                self.fill(me, block, CacheState::Modified, value + 1, out);
                self.retire.store(me, block, value, out);
                let mut queued = m.queued;
                self.drain_one_queued(me, block, &mut queued, out);
            }
            s => panic!("data arrived in state {s:?} (before our request was ordered)"),
        }
    }
}

impl Protocol for TsSnoop {
    fn cpu_op(&mut self, _now: Time, node: NodeId, op: CpuOp, out: &mut Vec<ProtoAction>) {
        assert!(
            self.nodes[node.index()].mshr.is_none(),
            "blocking CPU issued a second outstanding op"
        );
        let SnoopNode { cache, mshr, .. } = &mut self.nodes[node.index()];
        if self.retire.hit(cache, node, op, out) {
            return;
        }
        // Miss: GETS for loads, GETM for stores (including upgrades from
        // S — MSI without a separate upgrade transaction, symmetric across
        // all three protocols).
        let block = op.block();
        let (kind, state) = if op.is_write() {
            (TxnKind::GetM, MshrState::ImAd)
        } else {
            (TxnKind::GetS, MshrState::IsAd)
        };
        debug_assert!(
            !(kind == TxnKind::GetS && cache.state(block).is_some()),
            "loads only miss when absent"
        );
        *mshr = Some(Mshr {
            block,
            state,
            invalidated: false,
            queued: VecDeque::new(),
            early_data: None,
        });
        out.push(ProtoAction::Broadcast {
            src: node,
            txn: AddrTxn {
                kind,
                block,
                requester: node,
            },
        });
    }

    fn handle(&mut self, now: Time, event: ProtoEvent, out: &mut Vec<ProtoAction>) {
        match event {
            ProtoEvent::Snooped { dest, txn, arrival } => {
                self.snooped(now, dest, txn, arrival, out)
            }
            ProtoEvent::Delivered { dest, msg } => match msg {
                Msg::Data {
                    block,
                    value,
                    from_cache,
                    ..
                } => self.data_arrived(dest, block, value, from_cache, out),
                Msg::WbData { block, value, key } => {
                    debug_assert_eq!(dest, block.home(self.n));
                    self.memory_wb(dest, block, key, Some(value), out)
                }
                Msg::WbNoData { block, key } => {
                    debug_assert_eq!(dest, block.home(self.n));
                    self.memory_wb(dest, block, key, None, out)
                }
                other => panic!("TS-Snoop received a directory message: {other:?}"),
            },
        }
    }

    fn uses_snooping(&self) -> bool {
        true
    }

    fn stats(&self) -> ProtocolStats {
        self.retire.stats
    }

    fn final_value(&self, block: Block) -> u64 {
        engine::modified_value(self.nodes.iter().map(|n| &n.cache), block)
            .unwrap_or_else(|| self.mem.get(&block).map_or(0, |m| m.value))
    }

    fn check_lost_updates(&self) -> Result<(), String> {
        for (block, mb) in &self.mem {
            if !mb.queue.is_empty() || !mb.early_wbs.is_empty() {
                return Err(format!(
                    "memory log for {block} not quiescent: {} queued, {} early writebacks",
                    mb.queue.len(),
                    mb.early_wbs.len()
                ));
            }
        }
        self.retire.check_lost_updates(|b| self.final_value(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testkit::sends;

    fn engine(n: usize) -> TsSnoop {
        TsSnoop::new(
            n,
            CacheConfig::tiny(16, 2),
            SnoopTiming {
                prefetch: false,
                ..SnoopTiming::paper_default()
            },
            true,
        )
    }

    /// Delivers an ordered transaction to every node (what the network
    /// does), collecting all actions.
    fn snoop_all(p: &mut TsSnoop, now: Time, txn: AddrTxn) -> Vec<ProtoAction> {
        let mut out = Vec::new();
        for i in 0..p.n {
            p.handle(
                now,
                ProtoEvent::Snooped {
                    dest: NodeId(i as u16),
                    txn,
                    arrival: now,
                },
                &mut out,
            );
        }
        out
    }

    fn deliver(p: &mut TsSnoop, now: Time, dst: NodeId, msg: Msg) -> Vec<ProtoAction> {
        let mut out = Vec::new();
        p.handle(now, ProtoEvent::Delivered { dest: dst, msg }, &mut out);
        out
    }

    fn first_broadcast(actions: &[ProtoAction]) -> AddrTxn {
        actions
            .iter()
            .find_map(|a| match a {
                ProtoAction::Broadcast { txn, .. } => Some(*txn),
                _ => None,
            })
            .expect("expected a broadcast")
    }

    #[test]
    fn cold_load_served_by_memory() {
        let mut p = engine(4);
        let mut out = Vec::new();
        let b = Block(8); // home = node 0
        p.cpu_op(Time::ZERO, NodeId(1), CpuOp::Load(b), &mut out);
        let txn = first_broadcast(&out);
        assert_eq!(txn.kind, TxnKind::GetS);

        let actions = snoop_all(&mut p, Time::from_ns(100), txn);
        let s = sends(&actions);
        assert_eq!(s.len(), 1, "only memory responds");
        let (src, dst, msg) = s[0];
        assert_eq!(src, b.home(4));
        assert_eq!(dst, NodeId(1));
        let done = deliver(&mut p, Time::from_ns(200), NodeId(1), msg);
        assert!(matches!(done[0], ProtoAction::Complete { value: 0, .. }));
        assert_eq!(p.cache(NodeId(1)).state(b), Some(CacheState::Shared));
        assert_eq!(p.stats().misses, 1);
        assert_eq!(p.stats().cache_to_cache, 0);
    }

    #[test]
    fn store_then_remote_load_is_cache_to_cache() {
        let mut p = engine(4);
        let b = Block(8);
        // Node 1 stores (cold GETM, memory data).
        let mut out = Vec::new();
        p.cpu_op(Time::ZERO, NodeId(1), CpuOp::Store(b), &mut out);
        let getm = first_broadcast(&out);
        let acts = snoop_all(&mut p, Time::from_ns(100), getm);
        let (_, _, data) = sends(&acts)[0];
        deliver(&mut p, Time::from_ns(200), NodeId(1), data);
        assert_eq!(p.cache(NodeId(1)).value(b), Some(1));

        // Node 2 loads: node 1 must source the data and write back.
        let mut out = Vec::new();
        p.cpu_op(Time::from_ns(300), NodeId(2), CpuOp::Load(b), &mut out);
        let gets = first_broadcast(&out);
        let acts = snoop_all(&mut p, Time::from_ns(400), gets);
        let s = sends(&acts);
        assert_eq!(s.len(), 2, "owner sends data to requester and home");
        let data_to_2 = s.iter().find(|(_, d, _)| *d == NodeId(2)).unwrap();
        assert!(matches!(
            data_to_2.2,
            Msg::Data {
                from_cache: true,
                value: 1,
                ..
            }
        ));
        let wb_home = s.iter().find(|(_, d, _)| *d == b.home(4)).unwrap();
        assert!(matches!(wb_home.2, Msg::WbData { value: 1, .. }));
        // Owner downgraded to S.
        assert_eq!(p.cache(NodeId(1)).state(b), Some(CacheState::Shared));

        let done = deliver(&mut p, Time::from_ns(500), NodeId(2), data_to_2.2);
        assert!(matches!(done[0], ProtoAction::Complete { value: 1, .. }));
        assert_eq!(p.stats().cache_to_cache, 1);

        // Memory re-owns after the writeback: a third load is 2-hop.
        deliver(&mut p, Time::from_ns(600), b.home(4), wb_home.2);
        let mut out = Vec::new();
        p.cpu_op(Time::from_ns(700), NodeId(3), CpuOp::Load(b), &mut out);
        let acts = snoop_all(&mut p, Time::from_ns(800), first_broadcast(&out));
        let s = sends(&acts);
        assert_eq!(s.len(), 1);
        assert!(matches!(
            s[0].2,
            Msg::Data {
                from_cache: false,
                value: 1,
                ..
            }
        ));
    }

    #[test]
    fn getm_invalidates_sharers() {
        let mut p = engine(4);
        let b = Block(4); // home = node 0
                          // Nodes 1 and 2 get S copies.
        for n in [1u16, 2] {
            let mut out = Vec::new();
            p.cpu_op(Time::ZERO, NodeId(n), CpuOp::Load(b), &mut out);
            let acts = snoop_all(&mut p, Time::from_ns(10), first_broadcast(&out));
            let (_, _, data) = sends(&acts)[0];
            deliver(&mut p, Time::from_ns(20), NodeId(n), data);
        }
        // Node 3 stores.
        let mut out = Vec::new();
        p.cpu_op(Time::from_ns(30), NodeId(3), CpuOp::Store(b), &mut out);
        let acts = snoop_all(&mut p, Time::from_ns(40), first_broadcast(&out));
        assert_eq!(p.cache(NodeId(1)).state(b), None, "sharer invalidated");
        assert_eq!(p.cache(NodeId(2)).state(b), None, "sharer invalidated");
        let (_, _, data) = sends(&acts)[0];
        deliver(&mut p, Time::from_ns(50), NodeId(3), data);
        assert_eq!(p.cache(NodeId(3)).state(b), Some(CacheState::Modified));
        assert_eq!(p.final_value(b), 1);
    }

    #[test]
    fn gets_ordered_between_getm_and_data_is_queued_and_served() {
        let mut p = engine(4);
        let b = Block(8);
        // Node 1's GETM is ordered; its data is still in flight.
        let mut out = Vec::new();
        p.cpu_op(Time::ZERO, NodeId(1), CpuOp::Store(b), &mut out);
        let getm = first_broadcast(&out);
        let acts = snoop_all(&mut p, Time::from_ns(10), getm);
        let (_, _, data_for_1) = sends(&acts)[0];

        // Node 2's GETS is ordered before node 1 receives data.
        let mut out = Vec::new();
        p.cpu_op(Time::from_ns(20), NodeId(2), CpuOp::Load(b), &mut out);
        let gets = first_broadcast(&out);
        let acts = snoop_all(&mut p, Time::from_ns(30), gets);
        assert!(sends(&acts).is_empty(), "nobody can respond yet");

        // Node 1's data arrives: it completes its store, then services the
        // queued GETS (data to node 2 + writeback home).
        let acts = deliver(&mut p, Time::from_ns(40), NodeId(1), data_for_1);
        let s = sends(&acts);
        assert_eq!(s.len(), 2);
        let to2 = s.iter().find(|(_, d, _)| *d == NodeId(2)).unwrap();
        assert!(matches!(
            to2.2,
            Msg::Data {
                value: 1,
                from_cache: true,
                ..
            }
        ));
        assert_eq!(p.cache(NodeId(1)).state(b), Some(CacheState::Shared));
        let done = deliver(&mut p, Time::from_ns(50), NodeId(2), to2.2);
        assert!(matches!(done[0], ProtoAction::Complete { value: 1, .. }));
    }

    #[test]
    fn writeback_race_getm_ordered_first() {
        let mut p = engine(2);
        let b = Block(2); // home = node 0
                          // Node 1 acquires M.
        let mut out = Vec::new();
        p.cpu_op(Time::ZERO, NodeId(1), CpuOp::Store(b), &mut out);
        let acts = snoop_all(&mut p, Time::from_ns(10), first_broadcast(&out));
        let (_, _, d) = sends(&acts)[0];
        deliver(&mut p, Time::from_ns(20), NodeId(1), d);

        // Node 1 evicts b (fills two conflicting blocks in its 2-way set).
        // Instead of relying on geometry, drive the writeback directly: a
        // second store to a conflicting block. Here we simulate the race by
        // hand: create the PutM broadcast via an eviction.
        let mut out = Vec::new();
        // Fill the same set with blocks 2+16*k until b is evicted.
        p.cpu_op(
            Time::from_ns(30),
            NodeId(1),
            CpuOp::Store(Block(2 + 16)),
            &mut out,
        );
        let acts = snoop_all(&mut p, Time::from_ns(40), first_broadcast(&out));
        let (_, _, d) = sends(&acts)[0];
        let acts = deliver(&mut p, Time::from_ns(50), NodeId(1), d);
        let mut out = acts;
        p.cpu_op(
            Time::from_ns(60),
            NodeId(1),
            CpuOp::Store(Block(2 + 32)),
            &mut out,
        );
        let getm3 = first_broadcast(&out[1..]); // skip earlier actions
        let acts = snoop_all(&mut p, Time::from_ns(70), getm3);
        let (_, _, d) = sends(&acts)[0];
        let acts = deliver(&mut p, Time::from_ns(80), NodeId(1), d);
        // The fill of 2+32 evicted one of the dirty blocks -> PutM.
        let putm = first_broadcast(&acts);
        assert_eq!(putm.kind, TxnKind::PutM);
        let victim = putm.block;

        // Node 0's GETM for the victim is ordered BEFORE the PutM.
        let mut out = Vec::new();
        p.cpu_op(Time::from_ns(90), NodeId(0), CpuOp::Store(victim), &mut out);
        let getm0 = first_broadcast(&out);
        let acts = snoop_all(&mut p, Time::from_ns(100), getm0);
        let s = sends(&acts);
        // Node 1 (in MI_A) still owns the data and serves it.
        let to0 = s
            .iter()
            .find(|(_, dd, m)| *dd == NodeId(0) && matches!(m, Msg::Data { .. }));
        let (_, _, data0) = to0.expect("writeback owner serves the racing GETM");
        deliver(&mut p, Time::from_ns(110), NodeId(0), *data0);

        // Now the stale PutM is ordered: node 1 must send WbNoData.
        let acts = snoop_all(&mut p, Time::from_ns(120), putm);
        let s = sends(&acts);
        assert_eq!(s.len(), 1);
        assert!(matches!(s[0].2, Msg::WbNoData { .. }));
        let home = victim.home(2);
        deliver(&mut p, Time::from_ns(130), home, s[0].2);
        // Node 0 has M with the incremented value; memory never took stale
        // ownership.
        assert_eq!(p.final_value(victim), 2);
    }

    #[test]
    fn clean_writeback_restores_memory_ownership() {
        let mut p = engine(2);
        let b = Block(2);
        let mut out = Vec::new();
        p.cpu_op(Time::ZERO, NodeId(1), CpuOp::Store(b), &mut out);
        let acts = snoop_all(&mut p, Time::from_ns(10), first_broadcast(&out));
        let (_, _, d) = sends(&acts)[0];
        deliver(&mut p, Time::from_ns(20), NodeId(1), d);

        // Evict b dirty via two conflicting fills.
        for (t, nb) in [(30u64, Block(2 + 16)), (60, Block(2 + 32))] {
            let mut out = Vec::new();
            p.cpu_op(Time::from_ns(t), NodeId(1), CpuOp::Store(nb), &mut out);
            let acts = snoop_all(&mut p, Time::from_ns(t + 1), first_broadcast(&out));
            let (_, _, d) = sends(&acts)[0];
            let acts = deliver(&mut p, Time::from_ns(t + 2), NodeId(1), d);
            for a in &acts {
                if let ProtoAction::Broadcast { txn, .. } = a {
                    assert_eq!(txn.kind, TxnKind::PutM);
                    // Order the PutM right away.
                    let wb_acts = snoop_all(&mut p, Time::from_ns(t + 3), *txn);
                    let s = sends(&wb_acts);
                    assert!(matches!(s[0].2, Msg::WbData { value: 1, .. }));
                    deliver(&mut p, Time::from_ns(t + 4), txn.block.home(2), s[0].2);
                }
            }
        }
        assert_eq!(
            p.final_value(b),
            1,
            "memory re-owned the written-back value"
        );
        assert_eq!(p.stats().writebacks, 1);

        // A later load is served by memory again.
        let mut out = Vec::new();
        p.cpu_op(Time::from_ns(100), NodeId(0), CpuOp::Load(b), &mut out);
        let acts = snoop_all(&mut p, Time::from_ns(110), first_broadcast(&out));
        let s = sends(&acts);
        assert!(matches!(
            s[0].2,
            Msg::Data {
                from_cache: false,
                value: 1,
                ..
            }
        ));
    }

    #[test]
    fn gets_while_memory_awaits_writeback_is_deferred() {
        let mut p = engine(4);
        let b = Block(8); // home node 0
                          // Node 1 owns M.
        let mut out = Vec::new();
        p.cpu_op(Time::ZERO, NodeId(1), CpuOp::Store(b), &mut out);
        let acts = snoop_all(&mut p, Time::from_ns(10), first_broadcast(&out));
        let (_, _, d) = sends(&acts)[0];
        deliver(&mut p, Time::from_ns(20), NodeId(1), d);

        // Node 2's GETS: node 1 serves + writes back (in flight).
        let mut out = Vec::new();
        p.cpu_op(Time::from_ns(30), NodeId(2), CpuOp::Load(b), &mut out);
        let acts = snoop_all(&mut p, Time::from_ns(40), first_broadcast(&out));
        let s = sends(&acts);
        let wb = s.iter().find(|(_, d, _)| *d == b.home(4)).unwrap().2;
        let d2 = s.iter().find(|(_, d, _)| *d == NodeId(2)).unwrap().2;
        deliver(&mut p, Time::from_ns(50), NodeId(2), d2);

        // Node 3's GETS ordered while the writeback is still in flight:
        // memory defers (no response yet).
        let mut out = Vec::new();
        p.cpu_op(Time::from_ns(60), NodeId(3), CpuOp::Load(b), &mut out);
        let acts = snoop_all(&mut p, Time::from_ns(70), first_broadcast(&out));
        assert!(sends(&acts).is_empty(), "deferred until WbData lands");

        // Writeback lands: memory serves node 3 from the fresh copy.
        let acts = deliver(&mut p, Time::from_ns(80), b.home(4), wb);
        let s = sends(&acts);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].1, NodeId(3));
        assert!(matches!(
            s[0].2,
            Msg::Data {
                value: 1,
                from_cache: false,
                ..
            }
        ));
    }

    #[test]
    fn load_completes_but_does_not_cache_when_invalidated_in_flight() {
        let mut p = engine(4);
        let b = Block(8);
        // Node 1 GETS ordered (IS_D), data in flight.
        let mut out = Vec::new();
        p.cpu_op(Time::ZERO, NodeId(1), CpuOp::Load(b), &mut out);
        let acts = snoop_all(&mut p, Time::from_ns(10), first_broadcast(&out));
        let (_, _, d1) = sends(&acts)[0];

        // Node 2 GETM ordered before node 1's data arrives.
        let mut out = Vec::new();
        p.cpu_op(Time::from_ns(20), NodeId(2), CpuOp::Store(b), &mut out);
        let acts = snoop_all(&mut p, Time::from_ns(30), first_broadcast(&out));
        let (_, _, d2) = sends(&acts)[0];

        // Node 1's data arrives: the load completes (it is ordered before
        // the GETM) but the block is not cached.
        let done = deliver(&mut p, Time::from_ns(40), NodeId(1), d1);
        assert!(matches!(done[0], ProtoAction::Complete { value: 0, .. }));
        assert_eq!(p.cache(NodeId(1)).state(b), None);

        deliver(&mut p, Time::from_ns(50), NodeId(2), d2);
        assert_eq!(p.final_value(b), 1);
    }

    #[test]
    fn store_hit_in_m_is_silent() {
        let mut p = engine(2);
        let b = Block(2);
        let mut out = Vec::new();
        p.cpu_op(Time::ZERO, NodeId(1), CpuOp::Store(b), &mut out);
        let acts = snoop_all(&mut p, Time::from_ns(10), first_broadcast(&out));
        let (_, _, d) = sends(&acts)[0];
        deliver(&mut p, Time::from_ns(20), NodeId(1), d);
        let mut out = Vec::new();
        p.cpu_op(Time::from_ns(30), NodeId(1), CpuOp::Store(b), &mut out);
        assert_eq!(out.len(), 1, "M hit completes immediately");
        assert!(matches!(out[0], ProtoAction::Complete { value: 1, .. }));
        assert_eq!(p.final_value(b), 2);
        assert_eq!(p.stats().hits, 1);
    }

    #[test]
    fn rmw_counts_as_store() {
        let mut p = engine(2);
        let b = Block(0);
        let mut out = Vec::new();
        p.cpu_op(Time::ZERO, NodeId(1), CpuOp::Rmw(b), &mut out);
        assert_eq!(first_broadcast(&out).kind, TxnKind::GetM);
    }

    #[test]
    #[should_panic(expected = "second outstanding")]
    fn blocking_cpu_enforced() {
        let mut p = engine(2);
        let mut out = Vec::new();
        p.cpu_op(Time::ZERO, NodeId(0), CpuOp::Load(Block(1)), &mut out);
        p.cpu_op(Time::ZERO, NodeId(0), CpuOp::Load(Block(2)), &mut out);
    }
}
