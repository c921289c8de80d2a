//! DirOpt: a nack-free directory protocol (§4.2).
//!
//! "We developed DirOpt, which uses point-to-point ordering on one virtual
//! network to avoid nacks and avoid all blocking at cache and memory
//! controllers." This engine realises that description:
//!
//! * the directory processes **every** request immediately — there are no
//!   busy states and no nacks; state is updated optimistically and
//!   forwards/invalidations go out on the point-to-point-ordered forward
//!   network (so an owner sees them in directory order);
//! * invalidations carry **no acks** (GS320-style: the ordered network and
//!   the directory's serialisation make collection unnecessary);
//! * when memory's copy is momentarily stale (an ownership revision is in
//!   flight home), data replies are *deferred*, not nacked: each deferred
//!   request records a revision watermark and is served as soon as the
//!   revisions it logically follows have landed.

use std::collections::VecDeque;

use tss_sim::hash::FastMap;

use tss_net::NodeId;
use tss_sim::Time;

use crate::cache::{CacheConfig, CacheState, L2Cache};
use crate::dir_classic::DirTiming;
use crate::engine::{self, bit, data, send, Retire, WbLog};
use crate::types::{
    Block, CpuOp, Msg, ProtoAction, ProtoEvent, Protocol, ProtocolStats, TxnKind, Vnet,
};

#[derive(Debug, Default)]
struct DirBlock {
    /// Current exclusive owner, if any (memory stale while `Some`).
    owner: Option<NodeId>,
    /// Sharer bit vector (may over-approximate after silent drops).
    sharers: u64,
    /// Ownership revisions requested so far (forwarded GetS count).
    rev_expected: u64,
    /// Revisions that have landed.
    rev_received: u64,
    /// Requests awaiting fresh memory data: `(kind, requester, watermark)` —
    /// serviceable once `rev_received >= watermark`.
    deferred: VecDeque<(TxnKind, NodeId, u64)>,
    value: u64,
}

#[derive(Debug)]
struct Mshr {
    block: Block,
    op: CpuOp,
    invalidated: bool,
    /// A forward that arrived before our own data, served once it lands.
    /// The home lets at most one through per miss.
    queued_fwd: Option<(TxnKind, NodeId)>,
}

#[derive(Debug)]
struct DirNode {
    cache: L2Cache,
    mshr: Option<Mshr>,
    /// Outstanding writebacks, resolved by their PutAck.
    wb: WbLog,
}

/// The DirOpt protocol engine.
///
/// # Example
///
/// ```
/// use tss_proto::{CacheConfig, CpuOp, Block, DirOpt, DirTiming, Protocol, ProtoAction};
/// use tss_net::NodeId;
/// use tss_sim::Time;
///
/// let mut p = DirOpt::new(4, CacheConfig::paper_default(), DirTiming::paper_default(), true);
/// let mut out = Vec::new();
/// p.cpu_op(Time::ZERO, NodeId(2), CpuOp::Store(Block(5)), &mut out);
/// assert!(matches!(out[0], ProtoAction::Send { .. }));
/// ```
#[derive(Debug)]
pub struct DirOpt {
    n: usize,
    nodes: Vec<DirNode>,
    dir: FastMap<Block, DirBlock>,
    timing: DirTiming,
    retire: Retire,
}

impl DirOpt {
    /// Creates the engine for `n` nodes (at most 64: full bit vector).
    pub fn new(n: usize, cache: CacheConfig, timing: DirTiming, verify: bool) -> Self {
        assert!(
            n <= 64,
            "full-bit-vector directory supports at most 64 nodes"
        );
        DirOpt {
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
            TxnKind::GetS => {
                if let Some(o) = db.owner.take() {
                    // Three-hop: the owner supplies data and revises memory.
                    db.sharers |= bit(o) | bit(r);
                    db.rev_expected += 1;
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
                } else if db.rev_received < db.rev_expected {
                    // Memory is stale until the in-flight revision lands:
                    // defer the reply (never nack).
                    db.sharers |= bit(r);
                    let watermark = db.rev_expected;
                    db.deferred.push_back((TxnKind::GetS, r, watermark));
                } else {
                    db.sharers |= bit(r);
                    let v = db.value;
                    send(out, home, r, data(block, v, false), Vnet::Data, d_mem);
                }
            }
            TxnKind::GetM => {
                let old_owner = db.owner.take();
                let mut to_inval = db.sharers & !bit(r);
                if let Some(o) = old_owner {
                    to_inval &= !bit(o); // the forward itself invalidates o
                }
                db.sharers = 0;
                db.owner = Some(r);
                for i in 0..self.n {
                    if to_inval & (1 << i) != 0 {
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
                if let Some(o) = old_owner {
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
                } else if db.rev_received < db.rev_expected {
                    let watermark = db.rev_expected;
                    db.deferred.push_back((TxnKind::GetM, r, watermark));
                } else {
                    let v = db.value;
                    send(out, home, r, data(block, v, false), Vnet::Data, d_mem);
                }
            }
            TxnKind::PutM => {
                let accepted = db.owner == Some(r);
                if accepted {
                    assert_eq!(
                        db.rev_received, db.rev_expected,
                        "an accepted writeback implies quiesced revisions"
                    );
                    db.owner = None;
                    db.value = value;
                }
                let ack = Msg::PutAck { block, accepted };
                send(out, home, r, ack, Vnet::Data, d_mem);
            }
        }
    }

    /// A revision landed: serve every deferred request whose watermark is
    /// now satisfied.
    fn revision(&mut self, home: NodeId, block: Block, value: u64, out: &mut Vec<ProtoAction>) {
        let d_mem = self.timing.d_mem;
        let db = self.dir.entry(block).or_default();
        assert!(db.rev_received < db.rev_expected, "unexpected revision");
        db.rev_received += 1;
        db.value = value;
        while let Some(&(kind, r, watermark)) = db.deferred.front() {
            if db.rev_received < watermark {
                break;
            }
            db.deferred.pop_front();
            let v = db.value;
            match kind {
                TxnKind::GetS | TxnKind::GetM => {
                    send(out, home, r, data(block, v, false), Vnet::Data, d_mem);
                }
                TxnKind::PutM => unreachable!("PutM is never deferred"),
            }
        }
    }

    /// A forwarded request lands at the owner. An outstanding writeback
    /// still holding the data serves first; otherwise an M line serves and
    /// drops to S (GetS) or I (GetM). A GetS also revises memory.
    fn fwd_at_cache(
        &mut self,
        me: NodeId,
        kind: TxnKind,
        block: Block,
        r: NodeId,
        out: &mut Vec<ProtoAction>,
    ) {
        let node = &mut self.nodes[me.index()];
        let value = match node.wb.serve_owned(block) {
            Some(value) => value,
            None if node.cache.state(block) == Some(CacheState::Modified) => {
                let value = node.cache.value(block).expect("an M line holds a value");
                match kind {
                    TxnKind::GetS => node.cache.set_state(block, CacheState::Shared),
                    _ => node.cache.invalidate(block),
                }
                value
            }
            None => {
                let m = node
                    .mshr
                    .as_mut()
                    .expect("forward to a node that neither owns nor awaits the block");
                assert_eq!(m.block, block, "forward for an unexpected block");
                let earlier = m.queued_fwd.replace((kind, r));
                assert!(earlier.is_none(), "the directory serialises forwards");
                return;
            }
        };
        let (d_cache, home) = (self.timing.d_cache, block.home(self.n));
        send(out, me, r, data(block, value, true), Vnet::Data, d_cache);
        if kind == TxnKind::GetS {
            let revision = Msg::Revision { block, value };
            send(out, me, home, revision, Vnet::Data, d_cache);
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
        let DirNode { cache, mshr, wb } = &mut self.nodes[me.index()];
        let m = mshr.take().expect("stray data");
        assert_eq!(m.block, block);
        if from_cache {
            self.retire.stats.cache_to_cache += 1;
        }
        match m.op {
            CpuOp::Load(_) => {
                if !m.invalidated {
                    let line = (block, CacheState::Shared, value);
                    self.retire.fill_and_put_m(cache, wb, me, self.n, line, out);
                }
                self.retire.load(me, block, value, out);
                assert!(m.queued_fwd.is_none(), "reader cannot receive forwards");
            }
            CpuOp::Store(_) | CpuOp::Rmw(_) => {
                let line = (block, CacheState::Modified, value + 1);
                self.retire.fill_and_put_m(cache, wb, me, self.n, line, out);
                self.retire.store(me, block, value, out);
                if let Some((kind, r)) = m.queued_fwd {
                    self.fwd_at_cache(me, kind, block, r, out);
                }
            }
        }
    }
}

impl Protocol for DirOpt {
    fn cpu_op(&mut self, _now: Time, node: NodeId, op: CpuOp, out: &mut Vec<ProtoAction>) {
        assert!(
            self.nodes[node.index()].mshr.is_none(),
            "blocking CPU issued a second outstanding op"
        );
        let DirNode { cache, mshr, .. } = &mut self.nodes[node.index()];
        if self.retire.hit(cache, node, op, out) {
            return;
        }
        *mshr = Some(Mshr {
            block: op.block(),
            op,
            invalidated: false,
            queued_fwd: None,
        });
        engine::miss(out, node, self.n, op);
    }

    fn handle(&mut self, _now: Time, event: ProtoEvent, out: &mut Vec<ProtoAction>) {
        let ProtoEvent::Delivered { dest: me, msg } = event else {
            panic!("DirOpt does not snoop");
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
                from_cache,
                ..
            } => {
                self.data_arrived(me, block, value, from_cache, out);
            }
            Msg::Inval { block, .. } => {
                // No ack. Ignore if we own (a stale inval that lost a very
                // long race); otherwise drop the copy.
                let node = &mut self.nodes[me.index()];
                let owner_now = node.cache.state(block) == Some(CacheState::Modified)
                    || node
                        .mshr
                        .as_ref()
                        .is_some_and(|m| m.block == block && m.op.is_write());
                if !owner_now {
                    node.cache.invalidate(block);
                    if let Some(m) = node.mshr.as_mut() {
                        if m.block == block {
                            m.invalidated = true;
                        }
                    }
                }
            }
            Msg::Fwd {
                kind,
                block,
                requester,
            } => {
                self.fwd_at_cache(me, kind, block, requester, out);
            }
            Msg::Revision { block, value } => {
                debug_assert_eq!(me, block.home(self.n));
                self.revision(me, block, value, out);
            }
            Msg::PutAck { block, .. } => {
                self.nodes[me.index()].wb.resolve_oldest(block);
            }
            other => panic!("DirOpt received an unexpected message: {other:?}"),
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
    use crate::engine::testkit::{deliver, run_op, sends};

    fn engine(n: usize) -> DirOpt {
        DirOpt::new(
            n,
            CacheConfig::tiny(16, 2),
            DirTiming::paper_default(),
            true,
        )
    }

    #[test]
    fn basic_read_write_chain() {
        let mut p = engine(4);
        assert_eq!(run_op(&mut p, NodeId(1), CpuOp::Store(Block(8))), 0);
        assert_eq!(run_op(&mut p, NodeId(2), CpuOp::Load(Block(8))), 1);
        assert_eq!(run_op(&mut p, NodeId(3), CpuOp::Store(Block(8))), 1);
        assert_eq!(run_op(&mut p, NodeId(1), CpuOp::Load(Block(8))), 2);
        assert_eq!(p.final_value(Block(8)), 2);
        // Two of those misses were served by caches.
        assert_eq!(p.stats().cache_to_cache, 2);
        assert_eq!(p.stats().nacks, 0, "DirOpt never nacks");
    }

    #[test]
    fn no_acks_on_invalidation() {
        let mut p = engine(4);
        run_op(&mut p, NodeId(1), CpuOp::Load(Block(4)));
        run_op(&mut p, NodeId(2), CpuOp::Load(Block(4)));
        // The store completes on data alone; invals fly without acks.
        let mut out = Vec::new();
        p.cpu_op(Time::ZERO, NodeId(3), CpuOp::Store(Block(4)), &mut out);
        let (_, home, req) = sends(&out)[0];
        let acts = deliver(&mut p, home, req);
        let s = sends(&acts);
        let datas: Vec<_> = s
            .iter()
            .filter(|(_, _, m)| matches!(m, Msg::Data { .. }))
            .collect();
        let invals: Vec<_> = s
            .iter()
            .filter(|(_, _, m)| matches!(m, Msg::Inval { .. }))
            .collect();
        assert_eq!(datas.len(), 1);
        assert_eq!(invals.len(), 2);
        let done = deliver(&mut p, NodeId(3), datas[0].2);
        assert!(
            matches!(done[0], ProtoAction::Complete { .. }),
            "store completes without waiting for acks"
        );
        for (_, d, m) in invals {
            assert!(sends(&deliver(&mut p, *d, *m)).is_empty(), "no ack traffic");
        }
        assert_eq!(p.cache(NodeId(1)).state(Block(4)), None);
        assert_eq!(p.cache(NodeId(2)).state(Block(4)), None);
    }

    #[test]
    fn deferred_reply_instead_of_nack() {
        let mut p = engine(4);
        run_op(&mut p, NodeId(1), CpuOp::Store(Block(8)));
        // Node 2's GetS: forwarded to owner 1; revision is now in flight.
        let mut out = Vec::new();
        p.cpu_op(Time::ZERO, NodeId(2), CpuOp::Load(Block(8)), &mut out);
        let (_, home, req) = sends(&out)[0];
        let acts = deliver(&mut p, home, req);
        let fwd = sends(&acts)[0].2;
        let serve = sends(&deliver(&mut p, NodeId(1), fwd));
        let data2 = serve.iter().find(|(_, d, _)| *d == NodeId(2)).unwrap().2;
        let revision = serve.iter().find(|(_, d, _)| *d == home).unwrap().2;

        // Node 3's GetS arrives while memory is stale: deferred, NOT
        // nacked.
        let mut out3 = Vec::new();
        p.cpu_op(Time::ZERO, NodeId(3), CpuOp::Load(Block(8)), &mut out3);
        let (_, h3, req3) = sends(&out3)[0];
        assert!(sends(&deliver(&mut p, h3, req3)).is_empty(), "deferred");
        assert_eq!(p.stats().nacks, 0);

        // The revision lands; the deferred reply goes out with fresh data.
        let replay = sends(&deliver(&mut p, home, revision));
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].1, NodeId(3));
        assert!(matches!(replay[0].2, Msg::Data { value: 1, .. }));
        deliver(&mut p, NodeId(3), replay[0].2);
        deliver(&mut p, NodeId(2), data2);
        assert_eq!(p.final_value(Block(8)), 1);
    }

    #[test]
    fn deferred_getm_waits_only_for_prior_revisions() {
        // The watermark mechanism: a GetM deferred behind revision #1 must
        // not wait for revision #2 (which its own chain will produce).
        let mut p = engine(4);
        run_op(&mut p, NodeId(1), CpuOp::Store(Block(8)));
        // (1) GetS from 2 -> fwd to 1, revision #1 pending.
        let mut out = Vec::new();
        p.cpu_op(Time::ZERO, NodeId(2), CpuOp::Load(Block(8)), &mut out);
        let (_, home, req) = sends(&out)[0];
        let fwd = sends(&deliver(&mut p, home, req))[0].2;
        let serve = sends(&deliver(&mut p, NodeId(1), fwd));
        let data2 = serve.iter().find(|(_, d, _)| *d == NodeId(2)).unwrap().2;
        let rev1 = serve.iter().find(|(_, d, _)| *d == home).unwrap().2;
        deliver(&mut p, NodeId(2), data2);

        // (2) GetM from 3: deferred (watermark 1); invals to sharers.
        let mut out3 = Vec::new();
        p.cpu_op(Time::ZERO, NodeId(3), CpuOp::Store(Block(8)), &mut out3);
        let (_, h3, req3) = sends(&out3)[0];
        let acts = sends(&deliver(&mut p, h3, req3));
        assert!(acts.iter().all(|(_, _, m)| matches!(m, Msg::Inval { .. })));

        // (3) GetS from 0: owner is now 3 (optimistically) -> forwarded to
        // 3, which queues it (no data yet). Revision #2 pending.
        let mut out0 = Vec::new();
        p.cpu_op(Time::ZERO, NodeId(0), CpuOp::Load(Block(8)), &mut out0);
        let (_, h0, req0) = sends(&out0)[0];
        let fwd0 = sends(&deliver(&mut p, h0, req0));
        assert!(matches!(
            fwd0[0].2,
            Msg::Fwd {
                kind: TxnKind::GetS,
                ..
            }
        ));
        assert_eq!(fwd0[0].1, NodeId(3));
        assert!(
            sends(&deliver(&mut p, NodeId(3), fwd0[0].2)).is_empty(),
            "queued"
        );

        // (4) Revision #1 lands: node 3's deferred data goes out (it must
        // not deadlock waiting for revision #2).
        let replay = sends(&deliver(&mut p, home, rev1));
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].1, NodeId(3));

        // (5) Node 3 completes and serves the queued forward to node 0,
        // sending revision #2 home.
        let acts = deliver(&mut p, NodeId(3), replay[0].2);
        let s = sends(&acts);
        // Requester 0 and the home node coincide: select by message kind.
        let data0 = s
            .iter()
            .find(|(_, _, m)| matches!(m, Msg::Data { .. }))
            .unwrap()
            .2;
        let rev2 = s
            .iter()
            .find(|(_, _, m)| matches!(m, Msg::Revision { .. }))
            .unwrap()
            .2;
        deliver(&mut p, NodeId(0), data0);
        deliver(&mut p, home, rev2);
        assert_eq!(p.final_value(Block(8)), 2);
        // Invals were processed by 1 and 2 somewhere above; flush them.
        for (_, d, m) in acts.iter().filter_map(|a| match a {
            ProtoAction::Send { src, dst, msg, .. } => Some((*src, *dst, *msg)),
            _ => None,
        }) {
            let _ = (d, m);
        }
    }

    #[test]
    fn writeback_race_with_forward() {
        let mut p = engine(2);
        let b = Block(2);
        run_op(&mut p, NodeId(1), CpuOp::Store(b));
        run_op(&mut p, NodeId(1), CpuOp::Store(Block(2 + 16)));
        // Evict b but hold the PutM in flight.
        let mut out = Vec::new();
        p.cpu_op(Time::ZERO, NodeId(1), CpuOp::Store(Block(2 + 32)), &mut out);
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
        let (home, putm) = held_putm.expect("writeback of b");

        // Node 0's GetM forwarded to node 1, served from the wb buffer.
        let mut out0 = Vec::new();
        p.cpu_op(Time::ZERO, NodeId(0), CpuOp::Store(b), &mut out0);
        let (_, h, req) = sends(&out0)[0];
        let fwd = sends(&deliver(&mut p, h, req))[0].2;
        let serve = sends(&deliver(&mut p, NodeId(1), fwd));
        assert!(matches!(
            serve[0].2,
            Msg::Data {
                from_cache: true,
                ..
            }
        ));
        deliver(&mut p, NodeId(0), serve[0].2);

        // The stale PutM arrives: rejected without blocking.
        let ack = sends(&deliver(&mut p, home, putm));
        assert!(matches!(
            ack[0].2,
            Msg::PutAck {
                accepted: false,
                ..
            }
        ));
        deliver(&mut p, NodeId(1), ack[0].2);
        assert_eq!(p.final_value(b), 2);
    }

    #[test]
    fn clean_writeback_accepted() {
        let mut p = engine(2);
        let b = Block(2);
        run_op(&mut p, NodeId(1), CpuOp::Store(b));
        run_op(&mut p, NodeId(1), CpuOp::Store(Block(2 + 16)));
        run_op(&mut p, NodeId(1), CpuOp::Store(Block(2 + 32))); // evicts b
        assert_eq!(p.final_value(b), 1);
        assert_eq!(run_op(&mut p, NodeId(0), CpuOp::Load(b)), 1);
        assert_eq!(p.stats().cache_to_cache, 0, "memory serves after writeback");
    }
}
