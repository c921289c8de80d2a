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
//!
//! The cache side is the controller DirOpt uses too (`dir_cache`); this
//! file holds the home — busy states, nacks and deferred writebacks — and
//! the messages only DirClassic sends: every `Inval` is acked, and a
//! served GetM forward sends `Transfer` home.

use tss_sim::hash::FastMap;

use tss_net::NodeId;
use tss_sim::{Duration, Time};

use crate::cache::{CacheConfig, L2Cache};
use crate::dir_cache::{bit, fwd_to_owner, invalidate, DirCache, DirTiming, Served};
use crate::engine::{data, send};
use crate::types::{
    Block, CpuOp, Msg, ProtoAction, ProtoEvent, Protocol, ProtocolStats, TxnKind, Vnet,
};

/// Directory entry states (full bit vector for sharers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum DirState {
    /// Memory owns the only copy.
    #[default]
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

#[derive(Debug, Default)]
struct DirBlock {
    state: DirState,
    value: u64,
    /// Writebacks that arrived during a busy window, replayed at closure.
    deferred_putm: Vec<(NodeId, u64)>,
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
    caches: DirCache,
    dir: FastMap<Block, DirBlock>,
    timing: DirTiming,
}

impl DirClassic {
    /// Creates the engine for `n` nodes (at most 64: full bit vector).
    pub fn new(n: usize, cache: CacheConfig, timing: DirTiming, verify: bool) -> Self {
        DirClassic {
            n,
            caches: DirCache::new(n, cache, timing.d_cache, verify),
            dir: FastMap::default(),
            timing,
        }
    }

    /// Direct read access to a node's cache (diagnostics/tests).
    pub fn cache(&self, node: NodeId) -> &L2Cache {
        self.caches.cache(node)
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
                    fwd_to_owner(out, home, o, TxnKind::GetS, block, r, d_mem);
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
                    let reply = Msg::Data {
                        block,
                        value: db.value,
                        acks_expected: others.count_ones() as u16,
                        from_cache: false,
                    };
                    send(out, home, r, reply, Vnet::Data, d_mem);
                    invalidate(out, home, block, r, others, d_mem);
                }
                DirState::Exclusive(o) => {
                    db.state = DirState::BusyExclusive {
                        owner: o,
                        requester: r,
                    };
                    fwd_to_owner(out, home, o, TxnKind::GetM, block, r, d_mem);
                }
                DirState::BusyShared { .. } | DirState::BusyExclusive { .. } => {
                    send(out, home, r, Msg::Nack { kind, block }, Vnet::Data, d_mem);
                }
            },
            TxnKind::PutM => {
                let accepted = match db.state {
                    DirState::Exclusive(o) if o == r => {
                        db.state = DirState::Unowned;
                        db.value = value;
                        true
                    }
                    DirState::BusyShared { owner, .. } | DirState::BusyExclusive { owner, .. }
                        if owner == r =>
                    {
                        // The writeback crossed our forward; replay it once
                        // the busy window closes (the owner will have served
                        // the forward from its writeback buffer).
                        db.deferred_putm.push((r, value));
                        return;
                    }
                    // Ownership already moved on: stale writeback.
                    _ => false,
                };
                let ack = Msg::PutAck { block, accepted };
                send(out, home, r, ack, Vnet::Data, d_mem);
            }
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

    /// `me` served a forward: the home gets its Revision (GetS) or
    /// Transfer (GetM), which closes the busy window.
    fn tell_home(
        &self,
        me: NodeId,
        block: Block,
        served: Option<Served>,
        out: &mut Vec<ProtoAction>,
    ) {
        let Some(Served {
            kind,
            requester: new_owner,
            value,
        }) = served
        else {
            return;
        };
        let msg = match kind {
            TxnKind::GetS => Msg::Revision { block, value },
            TxnKind::GetM => Msg::Transfer { block, new_owner },
            TxnKind::PutM => unreachable!("PutM is never forwarded"),
        };
        let home = block.home(self.n);
        send(out, me, home, msg, Vnet::Data, self.timing.d_cache);
    }

    /// The home's copy of `block`.
    fn memory(&self, block: Block) -> u64 {
        self.dir.get(&block).map_or(0, |d| d.value)
    }
}

impl Protocol for DirClassic {
    fn cpu_op(&mut self, _now: Time, node: NodeId, op: CpuOp, out: &mut Vec<ProtoAction>) {
        self.caches.cpu_op(node, op, out);
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
                let served = self
                    .caches
                    .data(me, block, value, acks_expected, from_cache, out);
                self.tell_home(me, block, served, out);
            }
            Msg::InvAck { block } => {
                let served = self.caches.inv_ack(me, block, out);
                self.tell_home(me, block, served, out);
            }
            Msg::Inval { block, requester } => {
                // Acked even when stale, and the line kept.
                self.caches.inval(me, block);
                let ack = Msg::InvAck { block };
                send(out, me, requester, ack, Vnet::Data, Duration::ZERO);
            }
            Msg::Fwd {
                kind,
                block,
                requester,
            } => {
                let served = self.caches.fwd_at_cache(me, kind, block, requester, out);
                self.tell_home(me, block, served, out);
            }
            Msg::Nack { kind, block } => self.caches.retry(me, kind, block, out),
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
            Msg::PutAck { block, .. } => self.caches.put_ack(me, block),
            other => panic!("DirClassic received a snooping message: {other:?}"),
        }
    }

    fn uses_snooping(&self) -> bool {
        false
    }

    fn stats(&self) -> ProtocolStats {
        self.caches.stats()
    }

    fn final_value(&self, block: Block) -> u64 {
        self.caches.final_value(block, |b| self.memory(b))
    }

    fn check_lost_updates(&self) -> Result<(), String> {
        self.caches.check_lost_updates(|b| self.memory(b))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;
    use crate::cache::CacheState;
    use crate::engine::testkit::{deliver, request_at_home, run_op, sends, settle};

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
        p.caches.cache_mut(NodeId(1)).invalidate(Block(4));
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

    #[test]
    fn forward_beating_the_data_waits_for_data_and_every_ack() {
        let (b, home) = (Block(8), NodeId(0));
        let mut p = engine(8);
        run_op(&mut p, NodeId(1), CpuOp::Load(b));
        run_op(&mut p, NodeId(2), CpuOp::Load(b));
        // Node 3's GetM: data with two acks to collect, invals to 1 and 2.
        let getm3 = request_at_home(&mut p, NodeId(3), CpuOp::Store(b));
        assert!(matches!(
            getm3[0].2,
            Msg::Data {
                acks_expected: 2,
                ..
            }
        ));
        // Node 4's GetM is forwarded to node 3, which holds only an MSHR.
        let fwd = request_at_home(&mut p, NodeId(4), CpuOp::Store(b));
        assert_eq!(fwd[0].1, NodeId(3));
        assert!(deliver(&mut p, NodeId(3), fwd[0].2).is_empty(), "queued");
        assert!(
            deliver(&mut p, NodeId(3), getm3[0].2).is_empty(),
            "acks due"
        );
        let ack1 = sends(&deliver(&mut p, NodeId(1), getm3[1].2));
        assert!(
            deliver(&mut p, NodeId(3), ack1[0].2).is_empty(),
            "one ack due"
        );
        let ack2 = sends(&deliver(&mut p, NodeId(2), getm3[2].2));

        // The last ack completes the store, then serves the forward.
        let done = deliver(&mut p, NodeId(3), ack2[0].2);
        assert!(matches!(
            done[0],
            ProtoAction::Complete {
                node: NodeId(3),
                value: 0
            }
        ));
        let served = sends(&done);
        assert_eq!(served.len(), 2);
        assert_eq!(served[0].1, NodeId(4));
        assert!(matches!(
            served[0].2,
            Msg::Data {
                value: 1,
                from_cache: true,
                ..
            }
        ));
        assert_eq!(
            served[1],
            (
                NodeId(3),
                home,
                Msg::Transfer {
                    block: b,
                    new_owner: NodeId(4)
                }
            )
        );
        assert_eq!(p.cache(NodeId(3)).state(b), None);

        let done4 = deliver(&mut p, NodeId(4), served[0].2);
        assert!(matches!(
            done4[0],
            ProtoAction::Complete {
                node: NodeId(4),
                value: 1
            }
        ));
        assert!(deliver(&mut p, home, served[1].2).is_empty());
        assert_eq!(p.cache(NodeId(4)).state(b), Some(CacheState::Modified));
        assert_eq!(p.final_value(b), 2);
        assert_eq!(p.stats().cache_to_cache, 1);
    }

    #[test]
    fn inval_to_a_writer_keeps_the_line_and_still_acks() {
        let b = Block(8);
        let mut p = engine(4);
        run_op(&mut p, NodeId(1), CpuOp::Load(b));
        run_op(&mut p, NodeId(2), CpuOp::Load(b));
        let mut pending = request_at_home(&mut p, NodeId(3), CpuOp::Store(b));
        let inval1 = pending.remove(1);
        assert_eq!(inval1.1, NodeId(1));
        // Node 1 upgrades its S copy before the inval lands: a write MSHR.
        let mut upgrade = Vec::new();
        p.cpu_op(Time::ZERO, NodeId(1), CpuOp::Store(b), &mut upgrade);
        let acked = sends(&deliver(&mut p, NodeId(1), inval1.2));
        assert_eq!(
            acked,
            vec![(NodeId(1), NodeId(3), Msg::InvAck { block: b })]
        );
        assert_eq!(p.cache(NodeId(1)).state(b), Some(CacheState::Shared));

        let mut rest = upgrade;
        for (src, dst, msg) in pending.into_iter().chain(acked) {
            send(&mut rest, src, dst, msg, Vnet::Data, Duration::ZERO);
        }
        assert_eq!(settle(&mut p, rest).len(), 2, "both stores complete");
        assert_eq!(p.cache(NodeId(1)).state(b), Some(CacheState::Modified));
        assert_eq!(p.final_value(b), 2);

        // A stale inval reaching the owner of an M line: kept, still acked.
        let stale = Msg::Inval {
            block: b,
            requester: NodeId(2),
        };
        let acked = sends(&deliver(&mut p, NodeId(1), stale));
        assert_eq!(
            acked,
            vec![(NodeId(1), NodeId(2), Msg::InvAck { block: b })]
        );
        assert_eq!(p.cache(NodeId(1)).state(b), Some(CacheState::Modified));
        assert_eq!(p.final_value(b), 2);
    }

    #[test]
    fn inval_overtaking_a_load_retires_it_without_a_fill() {
        let b = Block(8);
        let mut p = engine(4);
        let load = request_at_home(&mut p, NodeId(1), CpuOp::Load(b));
        let getm = request_at_home(&mut p, NodeId(3), CpuOp::Store(b));
        let (_, to, inval) = getm[1];
        assert_eq!(to, NodeId(1));
        let ack = sends(&deliver(&mut p, NodeId(1), inval));
        assert!(matches!(ack[0].2, Msg::InvAck { .. }));
        let done = deliver(&mut p, NodeId(1), load[0].2);
        assert!(matches!(
            done[..],
            [ProtoAction::Complete {
                node: NodeId(1),
                value: 0
            }]
        ));
        assert_eq!(p.cache(NodeId(1)).state(b), None, "no fill");
        deliver(&mut p, NodeId(3), getm[0].2);
        let done3 = deliver(&mut p, NodeId(3), ack[0].2);
        assert!(matches!(done3[0], ProtoAction::Complete { value: 0, .. }));
        assert_eq!(p.final_value(b), 1);
    }
}
