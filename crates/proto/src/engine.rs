//! The requester side every engine shares.
//!
//! The §4.2 comparison holds the processor and cache model fixed — a
//! blocking CPU, the same L2, MSI, stores that increment the block — and
//! varies only the coherence mechanism. This module is that fixed half:
//! the MSI hit path, load/store retirement through the
//! [`ValueChecker`], dirty-victim filling, the outstanding-writeback log
//! and the lost-update check. Each engine keeps only what differs: how a
//! miss is requested, ordered and served.

use std::collections::VecDeque;

use tss_net::NodeId;
use tss_sim::hash::FastMap;
use tss_sim::Duration;

use crate::cache::{CacheState, L2Cache, Victim};
use crate::types::{Block, CpuOp, Msg, ProtoAction, ProtocolStats, TxnKind, Vnet};
use crate::verify::ValueChecker;

/// State of one outstanding writeback (PutM issued, not yet resolved).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WbState {
    /// Still the owner: will supply data (to a racing request, or to
    /// memory when the PutM resolves).
    MiA,
    /// Ownership lost (a racing request, or an earlier self-refetch,
    /// consumed the data): the PutM is stale.
    IiA,
}

/// One outstanding writeback.
#[derive(Debug)]
pub(crate) struct WbEntry {
    pub(crate) state: WbState,
    pub(crate) value: u64,
}

/// A node's outstanding writebacks, FIFO per block (a block can be
/// evicted, refetched and evicted again before the first PutM resolves).
#[derive(Debug, Default)]
pub(crate) struct WbLog(FastMap<Block, VecDeque<WbEntry>>);

impl WbLog {
    /// The MiA→IiA hand-off: if the newest writeback of `block` still
    /// owns the data, give it up and return the value to serve.
    pub(crate) fn serve_owned(&mut self, block: Block) -> Option<u64> {
        let back = self.0.get_mut(&block)?.back_mut()?;
        if back.state != WbState::MiA {
            return None;
        }
        back.state = WbState::IiA;
        Some(back.value)
    }

    /// Resolves (removes and returns) the oldest writeback of `block`:
    /// its PutAck arrived, or its own PutM was ordered.
    pub(crate) fn resolve_oldest(&mut self, block: Block) -> WbEntry {
        let entries = self
            .0
            .get_mut(&block)
            .expect("writeback resolved without an outstanding entry");
        let entry = entries.pop_front().expect("writeback entry present");
        if entries.is_empty() {
            self.0.remove(&block);
        }
        entry
    }
}

/// Retirement of CPU operations: the protocol counters plus the optional
/// lost-update / monotonicity checker every observed value passes through.
#[derive(Debug)]
pub(crate) struct Retire {
    pub(crate) stats: ProtocolStats,
    checker: Option<ValueChecker>,
}

impl Retire {
    /// `verify` enables the [`ValueChecker`].
    pub(crate) fn new(verify: bool) -> Self {
        Retire {
            stats: ProtocolStats::default(),
            checker: verify.then(ValueChecker::new),
        }
    }

    /// Retires a load at `node` that observed `value`.
    pub(crate) fn load(
        &mut self,
        node: NodeId,
        block: Block,
        value: u64,
        out: &mut Vec<ProtoAction>,
    ) {
        if let Some(c) = self.checker.as_mut() {
            c.observe(node, block, value);
        }
        out.push(ProtoAction::Complete { node, value });
    }

    /// Retires a store (or RMW) at `node` that found `old` and wrote
    /// `old + 1`.
    pub(crate) fn store(
        &mut self,
        node: NodeId,
        block: Block,
        old: u64,
        out: &mut Vec<ProtoAction>,
    ) {
        self.observe_store(node, block, old);
        out.push(ProtoAction::Complete { node, value: old });
    }

    /// Records a store without completing it, for an engine that commits
    /// a store before the CPU sees it finish.
    pub(crate) fn observe_store(&mut self, node: NodeId, block: Block, old: u64) {
        if let Some(c) = self.checker.as_mut() {
            c.observe_store(node, block, old);
        }
    }

    /// The MSI hit path: a load hits any valid copy, a store hits only
    /// an M copy. Retires a hit and returns `true`; counts a miss and
    /// returns `false` for the engine to request the block.
    pub(crate) fn hit(
        &mut self,
        cache: &mut L2Cache,
        node: NodeId,
        op: CpuOp,
        out: &mut Vec<ProtoAction>,
    ) -> bool {
        let block = op.block();
        match (op, cache.touch(block)) {
            (CpuOp::Load(_), Some(_)) => {
                self.stats.hits += 1;
                let value = cache.value(block).unwrap();
                self.load(node, block, value, out);
                true
            }
            (CpuOp::Store(_) | CpuOp::Rmw(_), Some(CacheState::Modified)) => {
                self.stats.hits += 1;
                let old = cache.value(block).unwrap();
                cache.write(block, old + 1);
                self.store(node, block, old, out);
                true
            }
            _ => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Fills `block` into `cache`. A dirty victim is logged in `wb` as
    /// an owned (MiA) writeback, counted, and returned for the engine to
    /// send its PutM.
    pub(crate) fn fill(
        &mut self,
        cache: &mut L2Cache,
        wb: &mut WbLog,
        block: Block,
        state: CacheState,
        value: u64,
    ) -> Option<Victim> {
        let victim = cache.fill(block, state, value, None).filter(|v| v.dirty)?;
        self.stats.writebacks += 1;
        wb.0.entry(victim.block).or_default().push_back(WbEntry {
            state: WbState::MiA,
            value: victim.value,
        });
        Some(victim)
    }

    /// At quiescence, checks that every written block's committed value
    /// (`final_value`) equals the number of stores issued to it. Vacuous
    /// without the checker.
    pub(crate) fn check_lost_updates(
        &self,
        final_value: impl Fn(Block) -> u64,
    ) -> Result<(), String> {
        let Some(c) = self.checker.as_ref() else {
            return Ok(());
        };
        for block in c.written_blocks() {
            let expect = c.stores_issued(block);
            let got = final_value(block);
            if got != expect {
                return Err(format!(
                    "lost update on {block}: {expect} stores issued but final value {got}"
                ));
            }
        }
        Ok(())
    }
}

/// Emits a point-to-point message.
pub(crate) fn send(
    out: &mut Vec<ProtoAction>,
    src: NodeId,
    dst: NodeId,
    msg: Msg,
    vnet: Vnet,
    delay: Duration,
) {
    out.push(ProtoAction::Send {
        src,
        dst,
        msg,
        vnet,
        delay,
    });
}

/// A data response that needs no invalidation acks.
pub(crate) fn data(block: Block, value: u64, from_cache: bool) -> Msg {
    Msg::Data {
        block,
        value,
        acks_expected: 0,
        from_cache,
    }
}

/// The directory writeback of a dirty victim: a PutM carrying the data
/// to the victim's home on the request network.
pub(crate) fn put_m(out: &mut Vec<ProtoAction>, node: NodeId, n: usize, victim: Victim) {
    send(
        out,
        node,
        victim.block.home(n),
        Msg::DirReq {
            kind: TxnKind::PutM,
            block: victim.block,
            requester: node,
            value: victim.value,
        },
        Vnet::Request,
        Duration::ZERO,
    );
}

/// The value of the one M copy of `block` among `caches`, if any.
pub(crate) fn modified_value<'a>(
    caches: impl IntoIterator<Item = &'a L2Cache>,
    block: Block,
) -> Option<u64> {
    caches
        .into_iter()
        .find(|c| c.state(block) == Some(CacheState::Modified))
        .map(|c| c.value(block).unwrap())
}

/// Drivers for the engines' unit tests: a zero-latency FIFO network.
#[cfg(test)]
pub(crate) mod testkit {
    use std::collections::VecDeque;

    use tss_net::NodeId;
    use tss_sim::Time;

    use crate::types::{CpuOp, Msg, ProtoAction, ProtoEvent, Protocol};

    /// Delivers one point-to-point message, returning the actions.
    pub(crate) fn deliver(p: &mut impl Protocol, dst: NodeId, msg: Msg) -> Vec<ProtoAction> {
        let mut out = Vec::new();
        p.handle(
            Time::ZERO,
            ProtoEvent::Delivered { dest: dst, msg },
            &mut out,
        );
        out
    }

    /// The `(src, dst, msg)` of every send among `actions`.
    pub(crate) fn sends(actions: &[ProtoAction]) -> Vec<(NodeId, NodeId, Msg)> {
        actions
            .iter()
            .filter_map(|a| match a {
                ProtoAction::Send { src, dst, msg, .. } => Some((*src, *dst, *msg)),
                _ => None,
            })
            .collect()
    }

    /// Runs a message and all recursively generated messages to
    /// quiescence, in FIFO order (a zero-latency network), returning the
    /// completions.
    pub(crate) fn settle(p: &mut impl Protocol, first: Vec<ProtoAction>) -> Vec<ProtoAction> {
        let mut completions = Vec::new();
        let mut queue: VecDeque<(NodeId, Msg)> =
            sends(&first).into_iter().map(|(_, d, m)| (d, m)).collect();
        for a in &first {
            if let ProtoAction::Complete { .. } = a {
                completions.push(a.clone());
            }
        }
        while let Some((dst, msg)) = queue.pop_front() {
            for a in deliver(p, dst, msg) {
                match a {
                    ProtoAction::Send { dst, msg, .. } => queue.push_back((dst, msg)),
                    ProtoAction::Complete { .. } => completions.push(a),
                    ProtoAction::Broadcast { .. } => panic!("unicast engines never broadcast"),
                }
            }
        }
        completions
    }

    /// Issues `op` at `node`, settles it, and returns the one completion's
    /// observed value.
    pub(crate) fn run_op(p: &mut impl Protocol, node: NodeId, op: CpuOp) -> u64 {
        let mut out = Vec::new();
        p.cpu_op(Time::ZERO, node, op, &mut out);
        let completions = settle(p, out);
        assert_eq!(completions.len(), 1, "expected exactly one completion");
        match completions[0] {
            ProtoAction::Complete { node: n, value } => {
                assert_eq!(n, node);
                value
            }
            _ => unreachable!(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_stores_with_final_value_one_is_a_lost_update() {
        let mut r = Retire::new(true);
        let mut out = Vec::new();
        r.store(NodeId(0), Block(3), 0, &mut out);
        r.store(NodeId(1), Block(3), 0, &mut out);
        assert_eq!(out.len(), 2, "each store completes");
        let err = r
            .check_lost_updates(|_| 1)
            .expect_err("one increment survived two stores");
        assert!(err.contains("lost update"), "{err}");
        assert!(r.check_lost_updates(|_| 2).is_ok());
        assert!(
            Retire::new(false).check_lost_updates(|_| 7).is_ok(),
            "vacuous without the checker"
        );
    }

    #[test]
    fn serve_owned_hands_the_data_off_once() {
        let mut cache = L2Cache::new(crate::cache::CacheConfig::tiny(1, 1));
        let mut wb = WbLog::default();
        let mut r = Retire::new(false);
        assert!(r
            .fill(&mut cache, &mut wb, Block(1), CacheState::Modified, 5)
            .is_none());
        let victim = r
            .fill(&mut cache, &mut wb, Block(2), CacheState::Shared, 0)
            .expect("the dirty line is evicted");
        assert_eq!((victim.block, victim.value), (Block(1), 5));
        assert_eq!(r.stats.writebacks, 1);
        assert_eq!(wb.serve_owned(Block(1)), Some(5));
        assert_eq!(wb.serve_owned(Block(1)), None, "the data moved on");
        assert_eq!(wb.resolve_oldest(Block(1)).state, WbState::IiA);
    }

    #[test]
    fn resolve_oldest_is_fifo_and_removes_the_block_when_empty() {
        let mut wb = WbLog::default();
        for value in [1, 2] {
            wb.0.entry(Block(4)).or_default().push_back(WbEntry {
                state: WbState::MiA,
                value,
            });
        }
        // The hand-off serves the newest writeback, not the oldest.
        assert_eq!(wb.serve_owned(Block(4)), Some(2));
        let first = wb.resolve_oldest(Block(4));
        assert_eq!((first.state, first.value), (WbState::MiA, 1));
        assert!(wb.0.contains_key(&Block(4)));
        let second = wb.resolve_oldest(Block(4));
        assert_eq!((second.state, second.value), (WbState::IiA, 2));
        assert!(!wb.0.contains_key(&Block(4)), "empty FIFO removed");
        assert_eq!(wb.serve_owned(Block(4)), None);
    }
}
