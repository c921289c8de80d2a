//! The cache controller both directory protocols share.
//!
//! §4.2 compares DirClassic and DirOpt with the processor and cache held
//! fixed: the two differ only at the home. This module is that fixed
//! cache side, written once: each node's L2, writeback log and MSHR; the
//! miss request; completing a miss once its data and every invalidation
//! ack are in (DirOpt's data never asks for acks); serving a forward from
//! an owning writeback or an M line, or queueing it on the MSHR until the
//! miss completes; and keeping a line that a stale `Inval` reaches after
//! the node became the owner again. The home messages stay with each
//! engine: a served forward is returned as [`Served`], and the engine
//! sends its own Revision or Transfer.
//!
//! It also holds what only the directories use: [`DirTiming`], the
//! sharer bit vector and the invalidation fan-out.

use tss_net::NodeId;
use tss_sim::Duration;

use crate::cache::{CacheConfig, CacheState, L2Cache};
use crate::engine::{self, data, send, Retire, WbLog};
use crate::types::{Block, CpuOp, Msg, ProtoAction, ProtocolStats, TxnKind, Vnet};

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

/// `node`'s bit in a full-bit-vector sharer set.
pub(crate) fn bit(node: NodeId) -> u64 {
    1u64 << node.index()
}

/// Sends an `Inval` of `block` from `home` to every node in `sharers`,
/// lowest id first, for `requester`'s store.
pub(crate) fn invalidate(
    out: &mut Vec<ProtoAction>,
    home: NodeId,
    block: Block,
    requester: NodeId,
    mut sharers: u64,
    delay: Duration,
) {
    while sharers != 0 {
        let node = NodeId(sharers.trailing_zeros() as u16);
        sharers &= sharers - 1;
        let inval = Msg::Inval { block, requester };
        send(out, home, node, inval, Vnet::Forward, delay);
    }
}

/// Sends the home's forward of `requester`'s `kind` request to `owner`.
pub(crate) fn fwd_to_owner(
    out: &mut Vec<ProtoAction>,
    home: NodeId,
    owner: NodeId,
    kind: TxnKind,
    block: Block,
    requester: NodeId,
    delay: Duration,
) {
    let fwd = Msg::Fwd {
        kind,
        block,
        requester,
    };
    send(out, home, owner, fwd, Vnet::Forward, delay);
}

/// A node's miss in flight.
#[derive(Debug)]
struct Mshr {
    op: CpuOp,
    /// The data once it lands: the pre-increment value, and whether a
    /// cache supplied it.
    data: Option<(u64, bool)>,
    /// Invalidation acks the data said to collect.
    acks_expected: u16,
    acks_got: u16,
    /// An `Inval` overtook this load's data: retire it without filling.
    invalidated: bool,
    /// A forward that arrived before our own data, served once the miss
    /// completes. The home lets at most one through per miss.
    queued_fwd: Option<(TxnKind, NodeId)>,
}

#[derive(Debug)]
struct Node {
    cache: L2Cache,
    mshr: Option<Mshr>,
    /// Outstanding writebacks, resolved by their PutAck.
    wb: WbLog,
}

/// A forward a node served: its data went to `requester`; the engine
/// tells the home.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Served {
    pub(crate) kind: TxnKind,
    pub(crate) requester: NodeId,
    pub(crate) value: u64,
}

/// The cache side of every node of a directory protocol.
#[derive(Debug)]
pub(crate) struct DirCache {
    n: usize,
    nodes: Vec<Node>,
    d_cache: Duration,
    retire: Retire,
}

impl DirCache {
    /// `n` nodes (at most 64: full bit vector) with `cache` L2s, sourcing
    /// data after `d_cache`; `verify` enables the value checker.
    pub(crate) fn new(n: usize, cache: CacheConfig, d_cache: Duration, verify: bool) -> Self {
        assert!(
            n <= 64,
            "full-bit-vector directory supports at most 64 nodes"
        );
        DirCache {
            n,
            nodes: (0..n)
                .map(|_| Node {
                    cache: L2Cache::new(cache),
                    mshr: None,
                    wb: WbLog::default(),
                })
                .collect(),
            d_cache,
            retire: Retire::new(verify),
        }
    }

    pub(crate) fn cache(&self, node: NodeId) -> &L2Cache {
        &self.nodes[node.index()].cache
    }

    /// Retires a hit, or installs the MSHR and sends the miss home.
    pub(crate) fn cpu_op(&mut self, node: NodeId, op: CpuOp, out: &mut Vec<ProtoAction>) {
        let Node { cache, mshr, .. } = &mut self.nodes[node.index()];
        assert!(
            mshr.is_none(),
            "blocking CPU issued a second outstanding op"
        );
        if self.retire.hit(cache, node, op, out) {
            return;
        }
        *mshr = Some(Mshr {
            op,
            data: None,
            acks_expected: 0,
            acks_got: 0,
            invalidated: false,
            queued_fwd: None,
        });
        engine::miss(out, node, self.n, op);
    }

    /// `node`'s MSHR, which must be waiting on `block`.
    fn mshr(&mut self, node: NodeId, block: Block, stray: &str) -> &mut Mshr {
        let m = self.nodes[node.index()].mshr.as_mut().expect(stray);
        assert_eq!(m.op.block(), block);
        m
    }

    /// The home nacked `node`'s `kind` request: counts it and sends the
    /// miss again.
    pub(crate) fn retry(
        &mut self,
        node: NodeId,
        kind: TxnKind,
        block: Block,
        out: &mut Vec<ProtoAction>,
    ) {
        self.retire.stats.nacks += 1;
        self.retire.stats.retries += 1;
        let op = self.mshr(node, block, "nack without mshr").op;
        assert_eq!(op.is_write(), kind == TxnKind::GetM);
        engine::miss(out, node, self.n, op);
    }

    /// `node`'s data landed, asking for `acks_expected` invalidation acks.
    /// Returns the queued forward if the miss completed and served it.
    pub(crate) fn data(
        &mut self,
        node: NodeId,
        block: Block,
        value: u64,
        acks_expected: u16,
        from_cache: bool,
        out: &mut Vec<ProtoAction>,
    ) -> Option<Served> {
        let m = self.mshr(node, block, "stray data");
        m.data = Some((value, from_cache));
        m.acks_expected = acks_expected;
        self.try_complete(node, out)
    }

    /// One invalidation ack reached `node`; as [`DirCache::data`].
    pub(crate) fn inv_ack(
        &mut self,
        node: NodeId,
        block: Block,
        out: &mut Vec<ProtoAction>,
    ) -> Option<Served> {
        self.mshr(node, block, "stray inv-ack").acks_got += 1;
        self.try_complete(node, out)
    }

    /// Completes `me`'s miss once its data and every ack are in. A load
    /// fills S, unless an `Inval` overtook the data, and retires the
    /// value; a store fills M with the value + 1, retires, and then
    /// serves the forward queued behind it.
    fn try_complete(&mut self, me: NodeId, out: &mut Vec<ProtoAction>) -> Option<Served> {
        let node = &mut self.nodes[me.index()];
        let m = node.mshr.as_ref().expect("completion without mshr");
        let (value, from_cache) = m.data?;
        if m.acks_got < m.acks_expected {
            return None;
        }
        let m = node.mshr.take().expect("the MSHR checked above");
        if from_cache {
            self.retire.stats.cache_to_cache += 1;
        }
        let block = m.op.block();
        let Node { cache, wb, .. } = node;
        match m.op {
            CpuOp::Load(_) => {
                if !m.invalidated {
                    let line = (block, CacheState::Shared, value);
                    self.retire.fill_and_put_m(cache, wb, me, self.n, line, out);
                }
                self.retire.load(me, block, value, out);
                assert!(m.queued_fwd.is_none(), "reader cannot receive forwards");
                None
            }
            CpuOp::Store(_) | CpuOp::Rmw(_) => {
                let line = (block, CacheState::Modified, value + 1);
                self.retire.fill_and_put_m(cache, wb, me, self.n, line, out);
                self.retire.store(me, block, value, out);
                let (kind, requester) = m.queued_fwd?;
                self.fwd_at_cache(me, kind, block, requester, out)
            }
        }
    }

    /// A forward reached `me`, the owner as the home sees it. An owning
    /// writeback serves first; otherwise an M line serves and drops to S
    /// (GetS) or I (GetM); otherwise our own data is still in flight and
    /// the forward waits on the MSHR. Returns the forward once its data
    /// is sent.
    pub(crate) fn fwd_at_cache(
        &mut self,
        me: NodeId,
        kind: TxnKind,
        block: Block,
        requester: NodeId,
        out: &mut Vec<ProtoAction>,
    ) -> Option<Served> {
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
                assert_eq!(m.op.block(), block, "forward for an unexpected block");
                let earlier = m.queued_fwd.replace((kind, requester));
                assert!(earlier.is_none(), "the home serialises forwards");
                return None;
            }
        };
        let reply = data(block, value, true);
        send(out, me, requester, reply, Vnet::Data, self.d_cache);
        Some(Served {
            kind,
            requester,
            value,
        })
    }

    /// An `Inval` reached `node`: drops the copy and marks a load in
    /// flight so it will not fill, unless the node is still or again the
    /// owner (an M line, or a write miss for the block) and the inval is
    /// stale.
    pub(crate) fn inval(&mut self, node: NodeId, block: Block) {
        let Node { cache, mshr, .. } = &mut self.nodes[node.index()];
        let pending = mshr.as_mut().filter(|m| m.op.block() == block);
        let owner = cache.state(block) == Some(CacheState::Modified)
            || pending.as_ref().is_some_and(|m| m.op.is_write());
        if !owner {
            cache.invalidate(block);
            if let Some(m) = pending {
                m.invalidated = true;
            }
        }
    }

    /// The home acknowledged `node`'s oldest writeback of `block`.
    pub(crate) fn put_ack(&mut self, node: NodeId, block: Block) {
        self.nodes[node.index()].wb.resolve_oldest(block);
    }

    pub(crate) fn stats(&self) -> ProtocolStats {
        self.retire.stats
    }

    /// The M copy of `block`, else the home's `memory` copy.
    pub(crate) fn final_value(&self, block: Block, memory: impl Fn(Block) -> u64) -> u64 {
        engine::modified_value(self.nodes.iter().map(|n| &n.cache), block)
            .unwrap_or_else(|| memory(block))
    }

    /// [`Retire::check_lost_updates`] against [`DirCache::final_value`].
    pub(crate) fn check_lost_updates(&self, memory: impl Fn(Block) -> u64) -> Result<(), String> {
        self.retire
            .check_lost_updates(|b| self.final_value(b, &memory))
    }
}

#[cfg(test)]
impl DirCache {
    /// Write access to a node's cache, for tests that drop a line
    /// silently.
    pub(crate) fn cache_mut(&mut self, node: NodeId) -> &mut L2Cache {
        &mut self.nodes[node.index()].cache
    }
}
