//! Tardis: timestamp-lease coherence over plain unicast (no broadcast).
//!
//! The asplos paper's bet is that *logical timestamps* can replace a
//! totally ordered interconnect; Tardis (Yu & Devadas, PACT'15 —
//! arXiv 1501.04504) is the modern descendant that drops the broadcast
//! entirely. Each block keeps two logical counters at its home node:
//!
//! * `wts` — the write timestamp: the logical instant of the last store;
//! * `rts` — the read timestamp: the last logical instant at which any
//!   granted copy may still be read (the *lease end*; invariant
//!   `rts >= wts`).
//!
//! Each processor keeps a program timestamp `pts`. A cached shared copy
//! is readable only while `pts <= lease end`; past that the copy is not
//! invalidated — it has simply *expired*, and the next load renews the
//! lease from home ([`ProtocolStats::lease_renewals`]). A store must own
//! the block (M state, tracked at home) and jumps the writer to
//! `wts' = max(pts, rts + 1)` — logically *after* every outstanding
//! lease, which is the whole consistency argument: reading newer data
//! advances `pts`, and an advanced `pts` is exactly what expires older
//! leases. Sequential consistency holds in logical time with no
//! invalidation fan-out, no ordered network, and O(log N) timestamp
//! storage per block (two counters and an owner id — no sharer bit
//! vector, so home state is independent of the node count).
//!
//! All timestamp arithmetic goes through the audited wraparound-safe
//! [`Gt`] type (wrapping order, era(16)|tick(48) packing), so lease
//! grant/expiry is origin-invariant and survives the era rollover the
//! same way the network's guarantee times do.
//!
//! Transport reuses the directory message vocabulary ([`Msg::DirReq`],
//! [`Msg::Data`], [`Msg::Fwd`], [`Msg::PutAck`]) over the unicast
//! request/data/forward networks only — a Tardis run never builds an
//! address network ([`Protocol::uses_snooping`] is `false`) and never
//! sends an invalidation. The engine models every node in one object, so
//! timestamps live engine-side and messages stay within the 3-word
//! [`Msg`] size pin.

use tss_sim::hash::FastMap;

use tss_net::NodeId;
use tss_sim::{Gt, Time};

use crate::cache::{CacheConfig, CacheState, L2Cache};
use crate::dir_cache::DirTiming;
use crate::engine::{self, data, send, Retire, WbLog};
use crate::types::{
    Block, CpuOp, Msg, ProtoAction, ProtoEvent, Protocol, ProtocolStats, TxnKind, Vnet,
};

/// Lease length in logical ticks. Logical time only advances on stores
/// (each store moves `wts` past the block's `rts`), so this is measured
/// in "stores the reader can tolerate elsewhere before its copy
/// expires". Short leases renew constantly (every reread pays a round
/// trip home); long leases on *written* blocks inflate logical time
/// (each store jumps past the whole lease), expiring every other lease
/// the writer holds. 16 balances the two for the paper's workload mix.
const LEASE_TICKS: u64 = 16;

/// Per-block home state: the whole directory entry. Note what is *not*
/// here — no sharer set. Readers are anonymous lease holders.
#[derive(Debug)]
struct HomeBlock {
    /// Logical instant of the last store.
    wts: Gt,
    /// Lease horizon: no granted copy is readable past this instant.
    rts: Gt,
    /// Current exclusive owner, if any (routing only; the engine keeps
    /// `value` authoritative at every instant).
    owner: Option<NodeId>,
    /// Committed block contents (the verification payload).
    value: u64,
}

impl HomeBlock {
    fn new(origin: Gt) -> Self {
        HomeBlock {
            wts: origin,
            rts: origin,
            owner: None,
            value: 0,
        }
    }
}

/// A cached shared copy's lease, held engine-side per node.
#[derive(Debug, Clone, Copy)]
struct Lease {
    /// Last logical instant the copy may be read.
    end: Gt,
    /// Version timestamp of the cached data (reads advance `pts` to it).
    wts: Gt,
}

#[derive(Debug)]
struct Mshr {
    block: Block,
    op: CpuOp,
    /// A `GetM` forward was served against this in-flight fill: another
    /// writer has been serialised after us, so a store must not install
    /// an M copy when its data lands (it would instantly be stale).
    invalidated: bool,
}

#[derive(Debug)]
struct TardisNode {
    cache: L2Cache,
    mshr: Option<Mshr>,
    /// Program timestamp: the logical instant this CPU has reached.
    pts: Gt,
    /// Leases for blocks held Shared (pruned on eviction/invalidation).
    leases: FastMap<Block, Lease>,
    /// Lease granted by the last GetS reply still in flight to this
    /// node: `(wts, end)` snapshotted where the data was sent.
    pending_lease: Option<(Gt, Gt)>,
    /// Dirty evictions awaiting their `PutAck`.
    wb: WbLog,
}

/// The Tardis timestamp-lease protocol engine.
///
/// # Example
///
/// ```
/// use tss_proto::{CacheConfig, CpuOp, Block, Tardis, DirTiming, Protocol, ProtoAction};
/// use tss_net::NodeId;
/// use tss_sim::{Gt, Time};
///
/// let mut p = Tardis::new(4, CacheConfig::paper_default(), DirTiming::paper_default(),
///                         true, Gt::ZERO);
/// let mut out = Vec::new();
/// p.cpu_op(Time::ZERO, NodeId(2), CpuOp::Store(Block(5)), &mut out);
/// assert!(matches!(out[0], ProtoAction::Send { .. }));
/// ```
#[derive(Debug)]
pub struct Tardis {
    n: usize,
    nodes: Vec<TardisNode>,
    home: FastMap<Block, HomeBlock>,
    timing: DirTiming,
    origin: Gt,
    retire: Retire,
}

impl Tardis {
    /// Creates the engine for `n` nodes. Unlike the bit-vector
    /// directories there is no 64-node cap: home state is two timestamps
    /// and an owner id regardless of `n`.
    pub fn new(n: usize, cache: CacheConfig, timing: DirTiming, verify: bool, origin: Gt) -> Self {
        Tardis {
            n,
            nodes: (0..n)
                .map(|_| TardisNode {
                    cache: L2Cache::new(cache),
                    mshr: None,
                    pts: origin,
                    leases: FastMap::default(),
                    pending_lease: None,
                    wb: WbLog::default(),
                })
                .collect(),
            home: FastMap::default(),
            timing,
            origin,
            retire: Retire::new(verify),
        }
    }

    /// Direct read access to a node's cache (diagnostics/tests).
    pub fn cache(&self, node: NodeId) -> &L2Cache {
        &self.nodes[node.index()].cache
    }

    /// A node's current program timestamp (diagnostics/tests).
    pub fn pts(&self, node: NodeId) -> Gt {
        self.nodes[node.index()].pts
    }

    fn home_mut(home: &mut FastMap<Block, HomeBlock>, origin: Gt, block: Block) -> &mut HomeBlock {
        home.entry(block).or_insert_with(|| HomeBlock::new(origin))
    }

    /// Grants (or renews) a read lease to `r`, advancing the block's
    /// `rts`. Called exactly where the data reply is sent, so the
    /// snapshot the requester will install matches the bytes in flight.
    /// The grant always covers the requester's current `pts` (`pts` is
    /// frozen while its one outstanding op is in flight), so a renewed
    /// copy can never arrive already expired.
    fn grant_lease(&mut self, block: Block, r: NodeId) {
        let pts = self.nodes[r.index()].pts;
        let hb = Self::home_mut(&mut self.home, self.origin, block);
        let mut end = hb.rts;
        for candidate in [
            hb.wts.wrapping_add(LEASE_TICKS),
            pts.wrapping_add(LEASE_TICKS),
        ] {
            if candidate > end {
                end = candidate;
            }
        }
        hb.rts = end;
        self.retire.stats.leases_granted += 1;
        self.nodes[r.index()].pending_lease = Some((hb.wts, end));
    }

    /// Commits a store at `node`: jump the writer's `pts` to
    /// `max(pts, rts + 1)` — logically past every granted lease — and
    /// stamp the block with it. The bumped `wts` is what expires stale
    /// copies: any reader that later learns a timestamp `>= wts` finds
    /// its old leases ended.
    fn commit_store(&mut self, node: NodeId, block: Block) -> u64 {
        let pts = self.nodes[node.index()].pts;
        let hb = Self::home_mut(&mut self.home, self.origin, block);
        let mut wts = hb.rts.wrapping_add(1);
        if pts > wts {
            wts = pts;
        }
        hb.wts = wts;
        hb.rts = wts;
        let old = hb.value;
        hb.value = old + 1;
        self.nodes[node.index()].pts = wts;
        self.retire.observe_store(node, block, old);
        old
    }

    fn home_request(
        &mut self,
        home: NodeId,
        kind: TxnKind,
        block: Block,
        r: NodeId,
        value: u64,
        out: &mut Vec<ProtoAction>,
    ) {
        let d_mem = self.timing.d_mem;
        match kind {
            TxnKind::GetS => {
                let hb = Self::home_mut(&mut self.home, self.origin, block);
                match hb.owner {
                    Some(o) if o != r => {
                        // Owned: three-hop. The owner downgrades and
                        // supplies the data; the lease is granted there.
                        send(
                            out,
                            home,
                            o,
                            Msg::Fwd {
                                kind: TxnKind::GetS,
                                block,
                                requester: r,
                            },
                            Vnet::Forward,
                            d_mem,
                        );
                    }
                    _ => {
                        // Unowned (or a stale self-ownership left by an
                        // in-flight writeback): memory serves directly.
                        hb.owner = None;
                        self.grant_lease(block, r);
                        let v = self.home[&block].value;
                        send(out, home, r, data(block, v, false), Vnet::Data, d_mem);
                    }
                }
            }
            TxnKind::GetM => {
                let hb = Self::home_mut(&mut self.home, self.origin, block);
                let old_owner = hb.owner;
                // Optimistic owner update (DirOpt-style): later requests
                // route to the new owner, whose MSHR queues them.
                hb.owner = Some(r);
                match old_owner {
                    Some(o) if o != r => {
                        send(
                            out,
                            home,
                            o,
                            Msg::Fwd {
                                kind: TxnKind::GetM,
                                block,
                                requester: r,
                            },
                            Vnet::Forward,
                            d_mem,
                        );
                    }
                    _ => {
                        let v = hb.value;
                        send(out, home, r, data(block, v, false), Vnet::Data, d_mem);
                    }
                }
            }
            TxnKind::PutM => {
                // Clear ownership unless the evictor has already
                // re-acquired the block (its GetM overtook this PutM on
                // the unordered request network).
                let evictor_owns_again = {
                    let node = &self.nodes[r.index()];
                    node.cache.state(block) == Some(CacheState::Modified)
                        || node
                            .mshr
                            .as_ref()
                            .is_some_and(|m| m.block == block && m.op.is_write())
                };
                let hb = Self::home_mut(&mut self.home, self.origin, block);
                let accepted = hb.owner == Some(r) && !evictor_owns_again;
                if accepted {
                    hb.owner = None;
                    // Home is authoritative, so the carried value is
                    // informational: a stale PutM (evict, re-acquire,
                    // evict again) may carry an older version.
                    debug_assert!(hb.value >= value, "writeback newer than home");
                }
                send(
                    out,
                    home,
                    r,
                    Msg::PutAck { block, accepted },
                    Vnet::Data,
                    d_mem,
                );
            }
        }
    }

    /// A forwarded request lands at `me`. Data is always serveable (the
    /// engine keeps `value` authoritative at home), so unlike a real
    /// distributed cache we never nack: adjust local state per the
    /// request kind and reply. Forwards racing an in-flight fill are
    /// queued on the MSHR and served right after it, in arrival order.
    fn fwd_at_cache(
        &mut self,
        me: NodeId,
        kind: TxnKind,
        block: Block,
        r: NodeId,
        out: &mut Vec<ProtoAction>,
    ) {
        let d_cache = self.timing.d_cache;
        match kind {
            TxnKind::GetS => {
                // Downgrade if we own a current copy: we keep it readable
                // under a lease of our own, and ownership returns to
                // memory. A forward that finds no M copy (a stale-owner
                // epoch, or our own refill in flight) touches nothing
                // local — home's value is authoritative either way.
                if self.nodes[me.index()].cache.state(block) == Some(CacheState::Modified) {
                    self.nodes[me.index()]
                        .cache
                        .set_state(block, CacheState::Shared);
                    let hb = Self::home_mut(&mut self.home, self.origin, block);
                    if hb.owner == Some(me) {
                        hb.owner = None;
                    }
                    let own_lease = Lease {
                        end: hb.rts,
                        wts: hb.wts,
                    };
                    self.nodes[me.index()].leases.insert(block, own_lease);
                }
                self.grant_lease(block, r);
                let v = self.home[&block].value;
                send(out, me, r, data(block, v, true), Vnet::Data, d_cache);
            }
            TxnKind::GetM => {
                // A newer writer has been serialised at home. Drop any
                // local copy; if our own fill is in flight, flag it so a
                // store skips its M install (home has already promised
                // ownership onward).
                if let Some(m) = self.nodes[me.index()].mshr.as_mut() {
                    if m.block == block {
                        m.invalidated = true;
                    }
                }
                self.nodes[me.index()].cache.invalidate(block);
                self.nodes[me.index()].leases.remove(&block);
                let v = Self::home_mut(&mut self.home, self.origin, block).value;
                send(out, me, r, data(block, v, true), Vnet::Data, d_cache);
            }
            TxnKind::PutM => unreachable!("PutM is never forwarded"),
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
        let m = self.nodes[me.index()].mshr.take().expect("stray data");
        assert_eq!(m.block, block);
        if from_cache {
            self.retire.stats.cache_to_cache += 1;
        }
        match m.op {
            CpuOp::Load(_) => {
                let (wts, end) = self.nodes[me.index()]
                    .pending_lease
                    .take()
                    .expect("load data without a granted lease");
                self.fill(me, block, CacheState::Shared, value, out);
                self.nodes[me.index()]
                    .leases
                    .insert(block, Lease { end, wts });
                if wts > self.nodes[me.index()].pts {
                    self.nodes[me.index()].pts = wts;
                }
                self.retire.load(me, block, value, out);
            }
            CpuOp::Store(_) | CpuOp::Rmw(_) => {
                // The slot comes from home's authoritative value at
                // commit time, not the bytes in flight: a forward served
                // between the data send and its arrival may have moved
                // the block past `value`.
                let old = self.commit_store(me, block);
                self.nodes[me.index()].leases.remove(&block);
                if !m.invalidated {
                    self.fill(me, block, CacheState::Modified, old + 1, out);
                }
                out.push(ProtoAction::Complete {
                    node: me,
                    value: old,
                });
            }
        }
    }

    /// The shared fill; a victim also drops its lease.
    fn fill(
        &mut self,
        me: NodeId,
        block: Block,
        state: CacheState,
        value: u64,
        out: &mut Vec<ProtoAction>,
    ) {
        let TardisNode {
            cache, wb, leases, ..
        } = &mut self.nodes[me.index()];
        let line = (block, state, value);
        if let Some(v) = self.retire.fill_and_put_m(cache, wb, me, self.n, line, out) {
            leases.remove(&v.block);
        }
    }

    fn miss(&mut self, node: NodeId, op: CpuOp, out: &mut Vec<ProtoAction>) {
        self.retire.stats.misses += 1;
        self.nodes[node.index()].mshr = Some(Mshr {
            block: op.block(),
            op,
            invalidated: false,
        });
        engine::miss(out, node, self.n, op);
    }
}

impl Protocol for Tardis {
    fn cpu_op(&mut self, _now: Time, node: NodeId, op: CpuOp, out: &mut Vec<ProtoAction>) {
        assert!(
            self.nodes[node.index()].mshr.is_none(),
            "blocking CPU issued a second outstanding op"
        );
        let block = op.block();
        let state = self.nodes[node.index()].cache.touch(block);
        match (op, state) {
            (CpuOp::Load(_), Some(CacheState::Modified)) => {
                // Owner read: always valid; reading our own version
                // extends the block's read horizon to our pts.
                self.retire.stats.hits += 1;
                let pts = self.nodes[node.index()].pts;
                let hb = Self::home_mut(&mut self.home, self.origin, block);
                if pts > hb.rts {
                    hb.rts = pts;
                }
                if hb.wts > self.nodes[node.index()].pts {
                    self.nodes[node.index()].pts = hb.wts;
                }
                let value = self.nodes[node.index()].cache.value(block).unwrap();
                self.retire.load(node, block, value, out);
            }
            (CpuOp::Load(_), Some(CacheState::Shared)) => {
                let lease = self.nodes[node.index()].leases[&block];
                if self.nodes[node.index()].pts <= lease.end {
                    // Live lease: hit, possibly on data newer than pts.
                    self.retire.stats.hits += 1;
                    if lease.wts > self.nodes[node.index()].pts {
                        self.nodes[node.index()].pts = lease.wts;
                    }
                    let value = self.nodes[node.index()].cache.value(block).unwrap();
                    self.retire.load(node, block, value, out);
                } else {
                    // Expired: the copy is not invalid, just too old to
                    // read at this pts — renew from home.
                    self.retire.stats.lease_renewals += 1;
                    self.miss(node, op, out);
                }
            }
            (CpuOp::Store(_) | CpuOp::Rmw(_), Some(CacheState::Modified)) => {
                // The Tardis headline: an owned write is message-free.
                self.retire.stats.hits += 1;
                let old = self.commit_store(node, block);
                self.nodes[node.index()].cache.write(block, old + 1);
                out.push(ProtoAction::Complete { node, value: old });
            }
            (op, _) => self.miss(node, op, out),
        }
    }

    fn handle(&mut self, _now: Time, event: ProtoEvent, out: &mut Vec<ProtoAction>) {
        let ProtoEvent::Delivered { dest: me, msg } = event else {
            panic!("Tardis does not snoop");
        };
        match msg {
            Msg::DirReq {
                kind,
                block,
                requester,
                value,
            } => {
                debug_assert_eq!(me, block.home(self.n));
                self.home_request(me, kind, block, requester, value, out);
            }
            Msg::Data {
                block,
                value,
                from_cache,
                ..
            } => {
                self.data_arrived(me, block, value, from_cache, out);
            }
            Msg::Fwd {
                kind,
                block,
                requester,
            } => {
                self.fwd_at_cache(me, kind, block, requester, out);
            }
            Msg::PutAck { block, .. } => {
                self.nodes[me.index()].wb.resolve_oldest(block);
            }
            other => panic!("Tardis received an unexpected message: {other:?}"),
        }
    }

    fn uses_snooping(&self) -> bool {
        false
    }

    fn stats(&self) -> ProtocolStats {
        self.retire.stats
    }

    fn final_value(&self, block: Block) -> u64 {
        // Home is authoritative at every instant (owned writes update it
        // in place), so quiescent memory needs no M-copy scan.
        self.home.get(&block).map(|h| h.value).unwrap_or(0)
    }

    fn check_lost_updates(&self) -> Result<(), String> {
        self.retire.check_lost_updates(|b| self.final_value(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testkit::{deliver, run_op, sends};

    fn engine(n: usize) -> Tardis {
        engine_from(n, Gt::ZERO)
    }

    fn engine_from(n: usize, origin: Gt) -> Tardis {
        Tardis::new(
            n,
            CacheConfig::tiny(16, 2),
            DirTiming::paper_default(),
            true,
            origin,
        )
    }

    #[test]
    fn basic_read_write_chain() {
        let mut p = engine(4);
        assert_eq!(run_op(&mut p, NodeId(1), CpuOp::Store(Block(8))), 0);
        assert_eq!(run_op(&mut p, NodeId(2), CpuOp::Load(Block(8))), 1);
        assert_eq!(run_op(&mut p, NodeId(3), CpuOp::Store(Block(8))), 1);
        // Node 1 still holds a live lease granted before node 3's store:
        // reading the stale value is *legal* under SC in logical time
        // (node 1's pts is still before the store's wts).
        assert_eq!(run_op(&mut p, NodeId(1), CpuOp::Load(Block(8))), 1);
        // An RMW serializes through ownership and must see the newest
        // version regardless of any lease.
        assert_eq!(run_op(&mut p, NodeId(1), CpuOp::Rmw(Block(8))), 2);
        assert_eq!(p.final_value(Block(8)), 3);
        // The GetS to owner 1 and the GetM to (downgraded-but-rearmed)
        // memory: one cache-to-cache transfer, zero nacks, zero invals.
        assert!(p.stats().cache_to_cache >= 1);
        assert_eq!(p.stats().nacks, 0, "Tardis never nacks");
    }

    #[test]
    fn owned_writes_are_message_free() {
        let mut p = engine(4);
        run_op(&mut p, NodeId(1), CpuOp::Store(Block(4)));
        let mut out = Vec::new();
        p.cpu_op(Time::ZERO, NodeId(1), CpuOp::Store(Block(4)), &mut out);
        assert!(
            sends(&out).is_empty(),
            "an owned write must not touch the network"
        );
        assert!(matches!(out[0], ProtoAction::Complete { value: 1, .. }));
    }

    #[test]
    fn stores_never_invalidate_readers() {
        let mut p = engine(4);
        run_op(&mut p, NodeId(1), CpuOp::Load(Block(8)));
        run_op(&mut p, NodeId(2), CpuOp::Load(Block(8)));
        // Node 3's store sends a GetM home and gets data back — and
        // nothing else: no invalidations, no acks. The readers' copies
        // stay cached; their leases simply end before the new wts.
        let mut out = Vec::new();
        p.cpu_op(Time::ZERO, NodeId(3), CpuOp::Store(Block(8)), &mut out);
        let (_, home, req) = sends(&out)[0];
        let acts = sends(&deliver(&mut p, home, req));
        assert_eq!(acts.len(), 1, "exactly one data reply, no fan-out");
        assert!(matches!(acts[0].2, Msg::Data { .. }));
        deliver(&mut p, NodeId(3), acts[0].2);
        assert_eq!(p.cache(NodeId(1)).state(Block(8)), Some(CacheState::Shared));
        assert_eq!(p.cache(NodeId(2)).state(Block(8)), Some(CacheState::Shared));
    }

    #[test]
    fn stale_lease_hits_then_expires_after_learning_newer_time() {
        let mut p = engine(4);
        let data = Block(0x10);
        let flag = Block(0x11);
        // Reader caches both blocks (cold misses).
        assert_eq!(run_op(&mut p, NodeId(2), CpuOp::Load(data)), 0);
        assert_eq!(run_op(&mut p, NodeId(2), CpuOp::Load(flag)), 0);
        // Writer: data then flag (the message-passing publish order).
        run_op(&mut p, NodeId(1), CpuOp::Store(data));
        run_op(&mut p, NodeId(1), CpuOp::Store(flag));
        // Reader rereads the flag. A *stale* hit (value 0) is legal under
        // SC in logical time — but once any read observes the new flag,
        // pts has passed the data lease and the reread must renew.
        let flag_seen = run_op(&mut p, NodeId(2), CpuOp::Load(flag));
        let data_seen = run_op(&mut p, NodeId(2), CpuOp::Load(data));
        assert!(
            !(flag_seen >= 1 && data_seen == 0),
            "saw flag={flag_seen} but data={data_seen}: SC violated"
        );
    }

    #[test]
    fn expired_lease_renews_and_counts() {
        let mut p = engine(4);
        let hot = Block(0x20);
        let other = Block(0x21);
        assert_eq!(run_op(&mut p, NodeId(2), CpuOp::Load(hot)), 0);
        // Another node hammers a different block until the reader's next
        // renewal-grant horizon is left far behind, then touches the
        // reader's own pts forward by making it read fresh data.
        for _ in 0..(2 * LEASE_TICKS) {
            run_op(&mut p, NodeId(1), CpuOp::Store(other));
        }
        assert_eq!(
            run_op(&mut p, NodeId(2), CpuOp::Load(other)),
            2 * LEASE_TICKS
        );
        // Now pts(2) is ~2*LEASE past the hot block's lease end.
        let before = p.stats().lease_renewals;
        assert_eq!(run_op(&mut p, NodeId(2), CpuOp::Load(hot)), 0);
        assert_eq!(p.stats().lease_renewals, before + 1, "reread must renew");
        // The renewed lease covers the new pts: the next reread hits.
        let hits = p.stats().hits;
        assert_eq!(run_op(&mut p, NodeId(2), CpuOp::Load(hot)), 0);
        assert_eq!(p.stats().hits, hits + 1);
    }

    #[test]
    fn rmw_chain_takes_distinct_slots() {
        let mut p = engine(4);
        let lock = Block(0x30);
        let mut seen = Vec::new();
        for i in 0..8u64 {
            let node = NodeId((i % 3) as u16);
            seen.push(run_op(&mut p, node, CpuOp::Rmw(lock)));
        }
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
        assert_eq!(p.final_value(lock), 8);
    }

    #[test]
    fn dirty_eviction_writes_back_and_acks() {
        let mut p = engine(2);
        let b = Block(2);
        run_op(&mut p, NodeId(1), CpuOp::Store(b));
        run_op(&mut p, NodeId(1), CpuOp::Store(Block(2 + 16)));
        run_op(&mut p, NodeId(1), CpuOp::Store(Block(2 + 32))); // evicts b
        assert_eq!(p.stats().writebacks, 1);
        assert_eq!(p.final_value(b), 1);
        // After the writeback, memory serves readers directly.
        assert_eq!(run_op(&mut p, NodeId(0), CpuOp::Load(b)), 1);
        assert_eq!(p.stats().cache_to_cache, 0);
    }

    /// Era(16)|tick(48) rollover: the identical op sequence run at origin
    /// zero and at an origin a few ticks below `TICK_MASK` (so every pts,
    /// wts, rts and lease end rolls into era 1 almost immediately) must
    /// produce identical observed values and identical counter deltas —
    /// the engine-level face of the `--gt-origin` battery.
    #[test]
    fn lease_arithmetic_is_origin_invariant_across_era_rollover() {
        let script: Vec<(u16, CpuOp)> = vec![
            (1, CpuOp::Store(Block(8))),
            (2, CpuOp::Load(Block(8))),
            (2, CpuOp::Load(Block(9))),
            (1, CpuOp::Store(Block(9))),
            (1, CpuOp::Store(Block(9))),
            (2, CpuOp::Load(Block(9))),
            (2, CpuOp::Load(Block(8))),
            (3, CpuOp::Rmw(Block(8))),
            (2, CpuOp::Load(Block(8))),
            (0, CpuOp::Store(Block(24))),
            (0, CpuOp::Store(Block(40))), // same set: eviction pressure
            (0, CpuOp::Store(Block(56))),
            (2, CpuOp::Load(Block(24))),
        ];
        let run = |origin: Gt| {
            let mut p = engine_from(4, origin);
            let values: Vec<u64> = script
                .iter()
                .map(|&(n, op)| run_op(&mut p, NodeId(n), op))
                .collect();
            (values, p.stats())
        };
        let (base_vals, base_stats) = run(Gt::ZERO);
        for below in [1u64, 3, LEASE_TICKS / 2, LEASE_TICKS + 1] {
            let origin = Gt::from_parts(0, Gt::TICK_MASK - below);
            let (vals, stats) = run(origin);
            assert_eq!(vals, base_vals, "observed values diverged at -{below}");
            assert_eq!(
                (
                    stats.hits,
                    stats.misses,
                    stats.lease_renewals,
                    stats.leases_granted
                ),
                (
                    base_stats.hits,
                    base_stats.misses,
                    base_stats.lease_renewals,
                    base_stats.leases_granted
                ),
                "lease bookkeeping diverged at -{below}"
            );
        }
    }

    #[test]
    fn home_state_has_no_sharer_vector_so_n_can_exceed_64() {
        // The bit-vector directories cap at 64 nodes; Tardis must not.
        let mut p = engine(256);
        for i in 0..100u16 {
            run_op(&mut p, NodeId(i), CpuOp::Load(Block(7)));
        }
        run_op(&mut p, NodeId(200), CpuOp::Store(Block(7)));
        assert_eq!(p.final_value(Block(7)), 1);
    }
}
