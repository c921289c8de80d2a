//! DirClassic: a full-bit-vector directory protocol modeled after the SGI
//! Origin 2000 (§4.2).
//!
//! Characteristics the paper calls out:
//!
//! * **unordered virtual networks** — requests, forwards and responses may
//!   arrive in any order;
//! * **negative acknowledgments** — a request hitting a *busy* directory
//!   entry (a three-hop transaction in flight) is nacked and retried by the
//!   requester, which is where the Figure 4 "Nack" traffic and the DSS
//!   pathology come from;
//! * **three-hop cache-to-cache transfers** — requester → home (directory
//!   lookup, `D_mem`) → owner (`D_cache`) → requester, giving the 252 ns /
//!   207 ns latencies of Table 2;
//! * **invalidation acks** — a store to a shared block completes only after
//!   the requester collects an ack from every sharer.

use std::collections::VecDeque;

use tss_sim::hash::FastMap;

use tss_net::NodeId;
use tss_sim::{Duration, Time};

use crate::cache::{CacheConfig, CacheState, L2Cache};
use crate::engine::{self, data, put_m, send, Retire, WbLog};
use crate::types::{
    Block, CpuOp, Msg, ProtoAction, ProtoEvent, Protocol, ProtocolStats, TxnKind, Vnet,
};

/// Controller timing for the directory protocols (Table 2).
#[derive(Debug, Clone, Copy)]
pub struct DirTiming {
    /// Directory + memory access (`D_mem`, 80 ns).
    pub d_mem: Duration,
    /// Cache access when sourcing data (`D_cache`, 25 ns).
    pub d_cache: Duration,
}

impl DirTiming {
    /// Paper Table 2 values.
    pub fn paper_default() -> Self {
        DirTiming {
            d_mem: Duration::from_ns(80),
            d_cache: Duration::from_ns(25),
        }
    }
}

/// Directory entry states (full bit vector for sharers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DirState {
    /// Memory owns the only copy.
    Unowned,
    /// Read-only copies at the set bits; memory is fresh.
    Shared(u64),
    /// One cache owns a modified copy; memory is stale.
    Exclusive(NodeId),
    /// A forwarded GetS to `owner` is in flight on behalf of `requester`.
    BusyShared { owner: NodeId, requester: NodeId },
    /// A forwarded GetM to `owner` is in flight on behalf of `requester`.
    BusyExclusive { owner: NodeId, requester: NodeId },
}

#[derive(Debug)]
struct DirBlock {
    state: DirState,
    value: u64,
    /// Writebacks that arrived during a busy window, replayed at closure.
    deferred_putm: Vec<(NodeId, u64)>,
}

impl Default for DirBlock {
    fn default() -> Self {
        DirBlock {
            state: DirState::Unowned,
            value: 0,
            deferred_putm: Vec::new(),
        }
    }
}

#[derive(Debug)]
struct Mshr {
    block: Block,
    op: CpuOp,
    /// Data received (pre-increment value) — stores also need acks.
    data: Option<(u64, bool)>, // (value, from_cache)
    acks_expected: Option<u16>,
    acks_got: u16,
    invalidated: bool,
    queued_fwds: VecDeque<(TxnKind, NodeId)>,
}

#[derive(Debug)]
struct DirNode {
    cache: L2Cache,
    mshr: Option<Mshr>,
    /// Outstanding writebacks, resolved by their PutAck.
    wb: WbLog,
}

/// The DirClassic protocol engine.
///
/// # Example
///
/// ```
/// use tss_proto::{CacheConfig, CpuOp, Block, DirClassic, DirTiming, Protocol, ProtoAction};
/// use tss_net::NodeId;
/// use tss_sim::Time;
///
/// let mut p = DirClassic::new(4, CacheConfig::paper_default(), DirTiming::paper_default(), true);
/// let mut out = Vec::new();
/// p.cpu_op(Time::ZERO, NodeId(1), CpuOp::Load(Block(8)), &mut out);
/// // A cold load sends a GetS request to the home node.
/// assert!(matches!(out[0], ProtoAction::Send { .. }));
/// ```
#[derive(Debug)]
pub struct DirClassic {
    n: usize,
    nodes: Vec<DirNode>,
    dir: FastMap<Block, DirBlock>,
    timing: DirTiming,
    retire: Retire,
}

fn bit(n: NodeId) -> u64 {
    1u64 << n.index()
}

impl DirClassic {
    /// Creates the engine for `n` nodes (at most 64: full bit vector).
    pub fn new(n: usize, cache: CacheConfig, timing: DirTiming, verify: bool) -> Self {
        assert!(
            n <= 64,
            "full-bit-vector directory supports at most 64 nodes"
        );
        DirClassic {
            n,
            nodes: (0..n)
                .map(|_| DirNode {
                    cache: L2Cache::new(cache),
                    mshr: None,
                    wb: WbLog::default(),
                })
                .collect(),
            dir: FastMap::default(),
            timing,
            retire: Retire::new(verify),
        }
    }

    /// Direct read access to a node's cache (diagnostics/tests).
    pub fn cache(&self, node: NodeId) -> &L2Cache {
        &self.nodes[node.index()].cache
    }

    /// Directory processing of a request at the home node.
    fn dir_request(
        &mut self,
        home: NodeId,
        kind: TxnKind,
        block: Block,
        r: NodeId,
        value: u64,
        out: &mut Vec<ProtoAction>,
    ) {
        let d_mem = self.timing.d_mem;
        let db = self.dir.entry(block).or_default();
        match kind {
            TxnKind::GetS => match db.state {
                DirState::Unowned => {
                    db.state = DirState::Shared(bit(r));
                    let v = db.value;
                    send(out, home, r, data(block, v, false), Vnet::Data, d_mem);
                }
                DirState::Shared(s) => {
                    db.state = DirState::Shared(s | bit(r));
                    let v = db.value;
                    send(out, home, r, data(block, v, false), Vnet::Data, d_mem);
                }
                DirState::Exclusive(o) => {
                    db.state = DirState::BusyShared {
                        owner: o,
                        requester: r,
                    };
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
                DirState::BusyShared { .. } | DirState::BusyExclusive { .. } => {
                    send(out, home, r, Msg::Nack { kind, block }, Vnet::Data, d_mem);
                }
            },
            TxnKind::GetM => match db.state {
                DirState::Unowned => {
                    db.state = DirState::Exclusive(r);
                    let v = db.value;
                    send(out, home, r, data(block, v, false), Vnet::Data, d_mem);
                }
                DirState::Shared(s) => {
                    let others = s & !bit(r);
                    db.state = DirState::Exclusive(r);
                    let v = db.value;
                    let acks = others.count_ones() as u16;
                    send(
                        out,
                        home,
                        r,
                        Msg::Data {
                            block,
                            value: v,
                            acks_expected: acks,
                            from_cache: false,
                        },
                        Vnet::Data,
                        d_mem,
                    );
                    for i in 0..self.n {
                        if others & (1 << i) != 0 {
                            send(
                                out,
                                home,
                                NodeId(i as u16),
                                Msg::Inval {
                                    block,
                                    requester: r,
                                },
                                Vnet::Forward,
                                d_mem,
                            );
                        }
                    }
                }
                DirState::Exclusive(o) => {
                    db.state = DirState::BusyExclusive {
                        owner: o,
                        requester: r,
                    };
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
                DirState::BusyShared { .. } | DirState::BusyExclusive { .. } => {
                    send(out, home, r, Msg::Nack { kind, block }, Vnet::Data, d_mem);
                }
            },
            TxnKind::PutM => match db.state {
                DirState::Exclusive(o) if o == r => {
                    db.state = DirState::Unowned;
                    db.value = value;
                    send(
                        out,
                        home,
                        r,
                        Msg::PutAck {
                            block,
                            accepted: true,
                        },
                        Vnet::Data,
                        d_mem,
                    );
                }
                DirState::BusyShared { owner, .. } | DirState::BusyExclusive { owner, .. }
                    if owner == r =>
                {
                    // The writeback crossed our forward; replay it once the
                    // busy window closes (the owner will have served the
                    // forward from its writeback buffer).
                    db.deferred_putm.push((r, value));
                }
                _ => {
                    // Ownership already moved on: stale writeback.
                    send(
                        out,
                        home,
                        r,
                        Msg::PutAck {
                            block,
                            accepted: false,
                        },
                        Vnet::Data,
                        d_mem,
                    );
                }
            },
        }
    }

    /// Replays writebacks deferred during a just-closed busy window.
    fn replay_deferred(&mut self, home: NodeId, block: Block, out: &mut Vec<ProtoAction>) {
        let deferred = {
            let db = self.dir.entry(block).or_default();
            std::mem::take(&mut db.deferred_putm)
        };
        for (src, value) in deferred {
            self.dir_request(home, TxnKind::PutM, block, src, value, out);
        }
    }

    /// A cache receives a forwarded request (it is, or very recently was,
    /// the exclusive owner).
    fn fwd_at_cache(
        &mut self,
        me: NodeId,
        kind: TxnKind,
        block: Block,
        r: NodeId,
        out: &mut Vec<ProtoAction>,
    ) {
        let d_cache = self.timing.d_cache;
        let home = block.home(self.n);

        // An outstanding writeback still holding the data serves first.
        if let Some(value) = self.nodes[me.index()].wb.serve_owned(block) {
            send(out, me, r, data(block, value, true), Vnet::Data, d_cache);
            match kind {
                TxnKind::GetS => send(
                    out,
                    me,
                    home,
                    Msg::Revision { block, value },
                    Vnet::Data,
                    d_cache,
                ),
                TxnKind::GetM => send(
                    out,
                    me,
                    home,
                    Msg::Transfer {
                        block,
                        new_owner: r,
                    },
                    Vnet::Data,
                    d_cache,
                ),
                TxnKind::PutM => unreachable!("PutM is never forwarded"),
            }
            return;
        }

        match self.nodes[me.index()].cache.state(block) {
            Some(CacheState::Modified) => {
                let value = self.nodes[me.index()].cache.value(block).unwrap();
                send(out, me, r, data(block, value, true), Vnet::Data, d_cache);
                match kind {
                    TxnKind::GetS => {
                        self.nodes[me.index()]
                            .cache
                            .set_state(block, CacheState::Shared);
                        send(
                            out,
                            me,
                            home,
                            Msg::Revision { block, value },
                            Vnet::Data,
                            d_cache,
                        );
                    }
                    TxnKind::GetM => {
                        self.nodes[me.index()].cache.invalidate(block);
                        send(
                            out,
                            me,
                            home,
                            Msg::Transfer {
                                block,
                                new_owner: r,
                            },
                            Vnet::Data,
                            d_cache,
                        );
                    }
                    TxnKind::PutM => unreachable!(),
                }
            }
            _ => {
                // Not yet the owner in practice: our own GetM data (and
                // acks) are still in flight. Queue and serve at completion.
                let m = self.nodes[me.index()]
                    .mshr
                    .as_mut()
                    .expect("forward to a node that neither owns nor awaits the block");
                assert_eq!(m.block, block, "forward for an unexpected block");
                m.queued_fwds.push_back((kind, r));
            }
        }
    }

    /// Completion check for a write miss: data plus all invalidation acks.
    fn try_complete(&mut self, me: NodeId, out: &mut Vec<ProtoAction>) {
        let node = &mut self.nodes[me.index()];
        let m = node.mshr.as_mut().expect("completion without mshr");
        let Some((value, from_cache)) = m.data else {
            return;
        };
        let need = m.acks_expected.unwrap_or(0);
        if m.acks_got < need {
            return;
        }
        let m = node.mshr.take().unwrap();
        if from_cache {
            self.retire.stats.cache_to_cache += 1;
        }
        let block = m.block;
        match m.op {
            CpuOp::Load(_) => {
                if !m.invalidated {
                    self.fill(me, block, CacheState::Shared, value, out);
                }
                self.retire.load(me, block, value, out);
            }
            CpuOp::Store(_) | CpuOp::Rmw(_) => {
                self.fill(me, block, CacheState::Modified, value + 1, out);
                self.retire.store(me, block, value, out);
                // Serve forwards queued while our data was in flight.
                let mut fwds = m.queued_fwds;
                assert!(fwds.len() <= 1, "home serializes forwards via busy states");
                if let Some((kind, r)) = fwds.pop_front() {
                    self.fwd_at_cache(me, kind, block, r, out);
                }
            }
        }
    }

    fn fill(
        &mut self,
        me: NodeId,
        block: Block,
        state: CacheState,
        value: u64,
        out: &mut Vec<ProtoAction>,
    ) {
        let DirNode { cache, wb, .. } = &mut self.nodes[me.index()];
        if let Some(v) = self.retire.fill(cache, wb, block, state, value) {
            put_m(out, me, self.n, v);
        }
    }
}

impl Protocol for DirClassic {
    fn cpu_op(&mut self, _now: Time, node: NodeId, op: CpuOp, out: &mut Vec<ProtoAction>) {
        assert!(
            self.nodes[node.index()].mshr.is_none(),
            "blocking CPU issued a second outstanding op"
        );
        let DirNode { cache, mshr, .. } = &mut self.nodes[node.index()];
        if self.retire.hit(cache, node, op, out) {
            return;
        }
        let block = op.block();
        let kind = if op.is_write() {
            TxnKind::GetM
        } else {
            TxnKind::GetS
        };
        *mshr = Some(Mshr {
            block,
            op,
            data: None,
            acks_expected: None,
            acks_got: 0,
            invalidated: false,
            queued_fwds: VecDeque::new(),
        });
        send(
            out,
            node,
            block.home(self.n),
            Msg::DirReq {
                kind,
                block,
                requester: node,
                value: 0,
            },
            Vnet::Request,
            Duration::ZERO,
        );
    }

    fn handle(&mut self, _now: Time, event: ProtoEvent, out: &mut Vec<ProtoAction>) {
        let ProtoEvent::Delivered { dest: me, msg } = event else {
            panic!("DirClassic does not snoop");
        };
        match msg {
            Msg::DirReq {
                kind,
                block,
                requester,
                value,
            } => {
                debug_assert_eq!(me, block.home(self.n));
                self.dir_request(me, kind, block, requester, value, out);
            }
            Msg::Data {
                block,
                value,
                acks_expected,
                from_cache,
            } => {
                let m = self.nodes[me.index()].mshr.as_mut().expect("stray data");
                assert_eq!(m.block, block);
                m.data = Some((value, from_cache));
                m.acks_expected = Some(acks_expected);
                self.try_complete(me, out);
            }
            Msg::InvAck { block } => {
                let m = self.nodes[me.index()].mshr.as_mut().expect("stray inv-ack");
                assert_eq!(m.block, block);
                m.acks_got += 1;
                self.try_complete(me, out);
            }
            Msg::Inval { block, requester } => {
                // Always ack; invalidate unless we already own the block
                // again (a stale inval that lost a long race).
                let node = &mut self.nodes[me.index()];
                let stale_owner = node.cache.state(block) == Some(CacheState::Modified)
                    || node
                        .mshr
                        .as_ref()
                        .is_some_and(|m| m.block == block && m.op.is_write());
                if !stale_owner {
                    node.cache.invalidate(block);
                    if let Some(m) = node.mshr.as_mut() {
                        if m.block == block {
                            m.invalidated = true;
                        }
                    }
                }
                send(
                    out,
                    me,
                    requester,
                    Msg::InvAck { block },
                    Vnet::Data,
                    Duration::ZERO,
                );
            }
            Msg::Fwd {
                kind,
                block,
                requester,
            } => {
                self.fwd_at_cache(me, kind, block, requester, out);
            }
            Msg::Nack { kind, block } => {
                self.retire.stats.nacks += 1;
                self.retire.stats.retries += 1;
                let m = self.nodes[me.index()]
                    .mshr
                    .as_ref()
                    .expect("nack without mshr");
                assert_eq!(m.block, block);
                send(
                    out,
                    me,
                    block.home(self.n),
                    Msg::DirReq {
                        kind,
                        block,
                        requester: me,
                        value: 0,
                    },
                    Vnet::Request,
                    Duration::ZERO,
                );
            }
            Msg::Revision { block, value } => {
                debug_assert_eq!(me, block.home(self.n));
                let db = self.dir.entry(block).or_default();
                let DirState::BusyShared { owner, requester } = db.state else {
                    panic!("revision outside a BusyShared window");
                };
                db.state = DirState::Shared(bit(owner) | bit(requester));
                db.value = value;
                self.replay_deferred(me, block, out);
            }
            Msg::Transfer { block, new_owner } => {
                debug_assert_eq!(me, block.home(self.n));
                let db = self.dir.entry(block).or_default();
                assert!(
                    matches!(db.state, DirState::BusyExclusive { .. }),
                    "transfer outside a BusyExclusive window"
                );
                db.state = DirState::Exclusive(new_owner);
                self.replay_deferred(me, block, out);
            }
            Msg::PutAck { block, .. } => {
                self.nodes[me.index()].wb.resolve_oldest(block);
            }
            other => panic!("DirClassic received a snooping message: {other:?}"),
        }
    }

    fn uses_snooping(&self) -> bool {
        false
    }

    fn stats(&self) -> ProtocolStats {
        self.retire.stats
    }

    fn final_value(&self, block: Block) -> u64 {
        engine::modified_value(self.nodes.iter().map(|n| &n.cache), block)
            .unwrap_or_else(|| self.dir.get(&block).map_or(0, |d| d.value))
    }

    fn check_lost_updates(&self) -> Result<(), String> {
        self.retire.check_lost_updates(|b| self.final_value(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::testkit::{deliver, run_op, sends, settle};

    fn engine(n: usize) -> DirClassic {
        DirClassic::new(
            n,
            CacheConfig::tiny(16, 2),
            DirTiming::paper_default(),
            true,
        )
    }

    #[test]
    fn cold_load_two_hops() {
        let mut p = engine(4);
        assert_eq!(run_op(&mut p, NodeId(1), CpuOp::Load(Block(8))), 0);
        assert_eq!(p.cache(NodeId(1)).state(Block(8)), Some(CacheState::Shared));
        assert_eq!(p.stats().misses, 1);
        assert_eq!(p.stats().cache_to_cache, 0);
    }

    #[test]
    fn three_hop_read_after_remote_store() {
        let mut p = engine(4);
        assert_eq!(run_op(&mut p, NodeId(1), CpuOp::Store(Block(8))), 0);
        assert_eq!(run_op(&mut p, NodeId(2), CpuOp::Load(Block(8))), 1);
        assert_eq!(p.stats().cache_to_cache, 1);
        // Owner downgraded; directory Shared; memory fresh after revision.
        assert_eq!(p.cache(NodeId(1)).state(Block(8)), Some(CacheState::Shared));
        assert_eq!(run_op(&mut p, NodeId(3), CpuOp::Load(Block(8))), 1);
        // Third read is two-hop (memory fresh).
        assert_eq!(p.stats().cache_to_cache, 1);
    }

    #[test]
    fn store_to_shared_collects_acks() {
        let mut p = engine(4);
        run_op(&mut p, NodeId(1), CpuOp::Load(Block(4)));
        run_op(&mut p, NodeId(2), CpuOp::Load(Block(4)));
        assert_eq!(run_op(&mut p, NodeId(3), CpuOp::Store(Block(4))), 0);
        assert_eq!(p.cache(NodeId(1)).state(Block(4)), None);
        assert_eq!(p.cache(NodeId(2)).state(Block(4)), None);
        assert_eq!(
            p.cache(NodeId(3)).state(Block(4)),
            Some(CacheState::Modified)
        );
        assert_eq!(p.final_value(Block(4)), 1);
    }

    #[test]
    fn three_hop_write_transfers_ownership() {
        let mut p = engine(4);
        run_op(&mut p, NodeId(1), CpuOp::Store(Block(8)));
        assert_eq!(run_op(&mut p, NodeId(2), CpuOp::Store(Block(8))), 1);
        assert_eq!(p.cache(NodeId(1)).state(Block(8)), None);
        assert_eq!(p.final_value(Block(8)), 2);
        assert_eq!(p.stats().cache_to_cache, 1);
    }

    #[test]
    fn busy_directory_nacks() {
        let mut p = engine(4);
        run_op(&mut p, NodeId(1), CpuOp::Store(Block(8)));
        // Node 2's GetS reaches the home: directory goes busy and forwards.
        let mut out = Vec::new();
        p.cpu_op(Time::ZERO, NodeId(2), CpuOp::Load(Block(8)), &mut out);
        let (_, home, req) = sends(&out)[0];
        let acts = deliver(&mut p, home, req);
        let fwd = sends(&acts);
        assert!(matches!(
            fwd[0].2,
            Msg::Fwd {
                kind: TxnKind::GetS,
                ..
            }
        ));

        // Node 3's GetM hits the busy window: nacked.
        let mut out3 = Vec::new();
        p.cpu_op(Time::ZERO, NodeId(3), CpuOp::Store(Block(8)), &mut out3);
        let (_, home3, req3) = sends(&out3)[0];
        let acts3 = deliver(&mut p, home3, req3);
        let nack = sends(&acts3);
        assert!(matches!(nack[0].2, Msg::Nack { .. }));

        // Delivering the nack triggers a retry request.
        let retry = deliver(&mut p, NodeId(3), nack[0].2);
        assert!(matches!(
            sends(&retry)[0].2,
            Msg::DirReq {
                kind: TxnKind::GetM,
                ..
            }
        ));
        assert_eq!(p.stats().nacks, 1);
        assert_eq!(p.stats().retries, 1);

        // Settle everything: first the forward chain, then the retry.
        let completions = settle(&mut p, acts);
        assert_eq!(completions.len(), 1); // node 2's load
        let completions = settle(&mut p, retry);
        assert_eq!(completions.len(), 1); // node 3's store
        assert_eq!(p.final_value(Block(8)), 2);
    }

    #[test]
    fn writeback_crossing_forward_is_deferred_and_staled() {
        let mut p = engine(2);
        let b = Block(2);
        run_op(&mut p, NodeId(1), CpuOp::Store(b));
        // Node 1 starts a writeback of b (in flight, not yet at home).
        // Simulate: evict by touching two conflicting blocks.
        run_op(&mut p, NodeId(1), CpuOp::Store(Block(2 + 16)));
        let mut out = Vec::new();
        p.cpu_op(Time::ZERO, NodeId(1), CpuOp::Store(Block(2 + 32)), &mut out);
        // Run the GetM for 2+32 to completion but HOLD any PutM for b.
        let mut held_putm = None;
        let mut queue: VecDeque<(NodeId, Msg)> =
            sends(&out).into_iter().map(|(_, d, m)| (d, m)).collect();
        while let Some((dst, msg)) = queue.pop_front() {
            if matches!(msg, Msg::DirReq { kind: TxnKind::PutM, block, .. } if block == b) {
                held_putm = Some((dst, msg));
                continue;
            }
            for (_, d, m) in sends(&deliver(&mut p, dst, msg)) {
                queue.push_back((d, m));
            }
        }
        let (home, putm) = held_putm.expect("eviction produced a writeback of b");

        // Node 0's GetM for b arrives first: home forwards to node 1,
        // which serves it from its writeback buffer.
        let mut out0 = Vec::new();
        p.cpu_op(Time::ZERO, NodeId(0), CpuOp::Store(b), &mut out0);
        let (_, h, req) = sends(&out0)[0];
        let fwd_acts = deliver(&mut p, h, req);
        let fwd = sends(&fwd_acts)[0].2;
        let serve = deliver(&mut p, NodeId(1), fwd);
        let s = sends(&serve);
        // Requester and home are both node 0 here: select by message kind.
        let data = s
            .iter()
            .find(|(_, _, m)| matches!(m, Msg::Data { .. }))
            .unwrap()
            .2;
        let transfer = s
            .iter()
            .find(|(_, _, m)| matches!(m, Msg::Transfer { .. }))
            .unwrap()
            .2;
        assert!(matches!(
            data,
            Msg::Data {
                from_cache: true,
                ..
            }
        ));

        // The crossing PutM arrives during the busy window: deferred.
        assert!(sends(&deliver(&mut p, home, putm)).is_empty());

        // The transfer closes the window and replays the PutM as stale.
        let replay = deliver(&mut p, home, transfer);
        let ack = sends(&replay)[0].2;
        assert!(matches!(
            ack,
            Msg::PutAck {
                accepted: false,
                ..
            }
        ));
        deliver(&mut p, NodeId(1), ack);

        let done = deliver(&mut p, NodeId(0), data);
        assert!(matches!(done[0], ProtoAction::Complete { value: 1, .. }));
        assert_eq!(p.final_value(b), 2);
    }

    #[test]
    fn clean_writeback_accepted() {
        let mut p = engine(2);
        let b = Block(2);
        run_op(&mut p, NodeId(1), CpuOp::Store(b));
        run_op(&mut p, NodeId(1), CpuOp::Store(Block(2 + 16)));
        run_op(&mut p, NodeId(1), CpuOp::Store(Block(2 + 32))); // evicts b
        assert_eq!(p.stats().writebacks, 1);
        assert_eq!(p.final_value(b), 1);
        // Memory owns it again: node 0 reads two-hop.
        assert_eq!(run_op(&mut p, NodeId(0), CpuOp::Load(b)), 1);
        assert_eq!(p.stats().cache_to_cache, 0);
    }

    #[test]
    fn silent_s_eviction_still_acks_invals() {
        let mut p = engine(4);
        run_op(&mut p, NodeId(1), CpuOp::Load(Block(4)));
        // Node 1 silently drops its S copy.
        p.nodes[1].cache.invalidate(Block(4));
        // Node 3 stores: the directory still believes node 1 shares, sends
        // an inval, and node 1 must ack it.
        assert_eq!(run_op(&mut p, NodeId(3), CpuOp::Store(Block(4))), 0);
        assert_eq!(p.final_value(Block(4)), 1);
    }

    #[test]
    fn load_hit_after_fill() {
        let mut p = engine(2);
        run_op(&mut p, NodeId(0), CpuOp::Load(Block(2)));
        assert_eq!(run_op(&mut p, NodeId(0), CpuOp::Load(Block(2))), 0);
        assert_eq!(p.stats().hits, 1);
    }
}
