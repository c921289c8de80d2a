//! Shared protocol vocabulary: blocks, CPU operations, address
//! transactions, point-to-point messages and the [`Protocol`] interface.
//!
//! # Ordering and guarantee time
//!
//! Protocol engines never see a guarantee time or ordering time directly:
//! the address network tracks both as the wraparound-safe packed
//! [`tss_sim::Gt`] type and delivers snooped transactions to the engine
//! *already in the logical total order* (see [`ProtoEvent::Snooped`]).
//! Engines therefore only reason about physical [`Time`] — which is why
//! none of the types below carry a raw GT/OT word, and why the engine
//! layer is immune to era rollover by construction.

use tss_net::{MsgClass, NodeId, NodeSet};
use tss_sim::{Duration, Time};

/// A cache-block address (byte address divided by the block size).
///
/// The paper uses 64-byte blocks and a 44-bit physical address space; a
/// `u64` block number covers that with room for the block-size ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Block(pub u64);

impl Block {
    /// The home node of this block: physical memory is interleaved across
    /// all `n` processor/memory nodes at block granularity (§4.2: "a memory
    /// controller for part of the globally shared memory" per node).
    pub fn home(self, n: usize) -> NodeId {
        NodeId((self.0 % n as u64) as u16)
    }
}

impl std::fmt::Display for Block {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blk{:#x}", self.0)
    }
}

/// One memory operation issued by a processor to its L2 cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuOp {
    /// Read a block.
    Load(Block),
    /// Write a block (modeled as an increment of the block's value so the
    /// verification layer can count lost updates).
    Store(Block),
    /// Atomic read-modify-write (test-and-set style): coherence-wise a
    /// store, but the returned value is observed.
    Rmw(Block),
}

impl CpuOp {
    /// The block this operation touches.
    pub fn block(self) -> Block {
        match self {
            CpuOp::Load(b) | CpuOp::Store(b) | CpuOp::Rmw(b) => b,
        }
    }

    /// Whether the operation requires write (M) permission.
    pub fn is_write(self) -> bool {
        !matches!(self, CpuOp::Load(_))
    }
}

/// Snooping address-transaction kinds (the paper's §4.2: "get an S copy,
/// get an M copy, writeback an M copy").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnKind {
    /// Get a shared copy.
    GetS,
    /// Get an exclusive (modifiable) copy.
    GetM,
    /// Write back an M copy.
    PutM,
}

/// A broadcast address transaction (TS-Snoop) or directory request kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrTxn {
    /// What is being requested.
    pub kind: TxnKind,
    /// The block.
    pub block: Block,
    /// Who asked.
    pub requester: NodeId,
}

/// Identifies the ordered snooping transaction a writeback message
/// resolves: memory's deferred log matches writebacks to the position
/// where they were promised (see `TsSnoop`'s memory controller).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WbKey {
    /// The writeback promised when `NodeId`'s own PutM was ordered.
    PutM(NodeId),
    /// The writeback promised when a GetS from `NodeId` forced the owner
    /// to transfer the block home (MSI M→S).
    GetS(NodeId),
}

/// Point-to-point protocol messages (data network + directory virtual
/// networks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Msg {
    /// A data response carrying the block value. `acks_expected` is the
    /// invalidation-ack count a DirClassic requester must collect before
    /// completing a store (0 elsewhere). `from_cache` marks cache-to-cache
    /// transfers for the Table 3 statistic.
    Data {
        /// The block.
        block: Block,
        /// Block contents (the verification payload).
        value: u64,
        /// DirClassic: invalidation acks the requester must await. `u16`
        /// — the count is bounded by the node count, which [`NodeId`]
        /// already caps at `u16`; keeping it narrow keeps the whole
        /// [`Msg`] within three words (see the size pin below).
        acks_expected: u16,
        /// True when another cache (not memory) supplied the data.
        from_cache: bool,
    },
    /// Writeback data to the home memory (snooping M→S transfers and
    /// ordered PUTM completions). `key` identifies which ordered event this
    /// writeback resolves, so memory can apply it at the correct position
    /// of its deferred log.
    WbData {
        /// The block.
        block: Block,
        /// Block contents.
        value: u64,
        /// Which ordered transaction triggered this writeback.
        key: WbKey,
    },
    /// A writeback that lost the race: the source no longer owned the block
    /// when its PutM was ordered; memory must not take ownership.
    WbNoData {
        /// The block.
        block: Block,
        /// Which ordered transaction triggered this (non-)writeback.
        key: WbKey,
    },
    /// Directory request (GETS/GETM to the home node).
    DirReq {
        /// Request kind (PutM requests carry data; see `value`).
        kind: TxnKind,
        /// The block.
        block: Block,
        /// Originating cache.
        requester: NodeId,
        /// Writeback value for `TxnKind::PutM`, 0 otherwise.
        value: u64,
    },
    /// Home→owner forward of a request (the directory "three hop").
    Fwd {
        /// Forwarded request kind (GetS or GetM).
        kind: TxnKind,
        /// The block.
        block: Block,
        /// Cache that should receive the data.
        requester: NodeId,
    },
    /// Home→sharer invalidation; `requester` tells DirClassic sharers where
    /// to send the ack.
    Inval {
        /// The block.
        block: Block,
        /// The store's requester (DirClassic ack target).
        requester: NodeId,
    },
    /// Sharer→requester invalidation ack (DirClassic only).
    InvAck {
        /// The block.
        block: Block,
    },
    /// Owner→home ownership/sharing revision after serving a forwarded
    /// GetS: carries the up-to-date block contents so memory can re-own
    /// the block (a full data message — the MSI "two data messages" cost
    /// the paper's §5 bandwidth discussion notes).
    Revision {
        /// The block.
        block: Block,
        /// Block contents.
        value: u64,
    },
    /// Owner→home notice after serving a forwarded GetM: ownership moved to
    /// `new_owner`; memory stays stale (DirClassic busy-window closure).
    Transfer {
        /// The block.
        block: Block,
        /// The cache that now owns the block.
        new_owner: NodeId,
    },
    /// Home→requester negative acknowledgment (DirClassic): retry.
    Nack {
        /// The original request kind.
        kind: TxnKind,
        /// The block.
        block: Block,
    },
    /// Home→evictor acknowledgment of a PutM.
    PutAck {
        /// The block.
        block: Block,
        /// False when the writeback was stale (ownership had already moved).
        accepted: bool,
    },
}

impl Msg {
    /// The Figure 4 traffic class this message belongs to.
    pub fn class(self) -> MsgClass {
        match self {
            Msg::Data { .. } | Msg::WbData { .. } => MsgClass::Data,
            // Directory writebacks and sharing revisions carry the block.
            Msg::DirReq {
                kind: TxnKind::PutM,
                ..
            } => MsgClass::Data,
            Msg::Revision { .. } => MsgClass::Data,
            Msg::DirReq { .. } => MsgClass::Request,
            Msg::Nack { .. } => MsgClass::Nack,
            Msg::WbNoData { .. }
            | Msg::Fwd { .. }
            | Msg::Inval { .. }
            | Msg::InvAck { .. }
            | Msg::Transfer { .. }
            | Msg::PutAck { .. } => MsgClass::Misc,
        }
    }

    /// The block this message concerns.
    pub fn block(self) -> Block {
        match self {
            Msg::Data { block, .. }
            | Msg::WbData { block, .. }
            | Msg::WbNoData { block, .. }
            | Msg::DirReq { block, .. }
            | Msg::Fwd { block, .. }
            | Msg::Inval { block, .. }
            | Msg::InvAck { block }
            | Msg::Revision { block, .. }
            | Msg::Transfer { block, .. }
            | Msg::Nack { block, .. }
            | Msg::PutAck { block, .. } => block,
        }
    }
}

// Size pins for the hot-path payloads: every `Msg` travels inside a
// scheduled event and every `ProtoAction` through the per-dispatch
// scratch buffer, so growing them silently taxes the whole event loop.
// A new variant that trips one of these should be shrunk (narrow the
// field, split the variant) or consciously re-pinned in a perf PR.
const _: () = assert!(std::mem::size_of::<Msg>() <= 24, "Msg grew past 3 words");
const _: () = assert!(std::mem::size_of::<AddrTxn>() <= 16, "AddrTxn grew");
const _: () = assert!(
    std::mem::size_of::<ProtoAction>() <= 40,
    "ProtoAction grew past 5 words"
);
const _: () = assert!(
    std::mem::size_of::<ProtoEvent>() <= 40,
    "ProtoEvent grew past 5 words"
);

/// Which virtual network a message travels on (§4.2: TS-Snoop uses two,
/// the directory protocols three).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vnet {
    /// Unordered data-response network (all protocols).
    Data,
    /// Unordered request network (directory protocols).
    Request,
    /// Forwarded-request network: unordered for DirClassic, point-to-point
    /// ordered for DirOpt (how DirOpt "avoids nacks", §4.2).
    Forward,
}

/// Actions a protocol engine asks the system to perform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoAction {
    /// Broadcast an address transaction on the timestamp-ordered network
    /// (snooping only).
    Broadcast {
        /// Sourcing node.
        src: NodeId,
        /// The transaction.
        txn: AddrTxn,
    },
    /// Send a point-to-point message after `delay` (controller occupancy:
    /// `D_mem` for memory responses, `D_cache` for cache responses).
    Send {
        /// Sending node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// The message.
        msg: Msg,
        /// Virtual network to use.
        vnet: Vnet,
        /// Controller occupancy before the message enters the network.
        delay: Duration,
    },
    /// The node's outstanding CPU operation is complete; `value` is the
    /// loaded (or pre-increment RMW) value.
    Complete {
        /// The node whose CPU unblocks.
        node: NodeId,
        /// Observed value.
        value: u64,
    },
}

/// Events the system routes into a protocol engine.
#[derive(Debug, Clone)]
pub enum ProtoEvent {
    /// An address transaction reached its place in the logical total order
    /// at `dest` (snooping). `arrival` is the physical arrival time, used
    /// by the §3 prefetch optimisation. The position itself is determined
    /// by the network layer's [`tss_sim::Gt`] ordering time (wrapping
    /// comparison; see `tss_sim::Gt`) and is consumed there — engines
    /// receive transactions strictly in that order and never compare
    /// ordering times themselves.
    Snooped {
        /// The endpoint processing the transaction.
        dest: NodeId,
        /// The transaction.
        txn: AddrTxn,
        /// Physical arrival time at `dest` (<= the ordering time).
        arrival: Time,
    },
    /// A point-to-point message was delivered to `dest`.
    Delivered {
        /// The receiving node.
        dest: NodeId,
        /// The message.
        msg: Msg,
    },
}

/// Per-protocol counters for Table 3 and Figure 3/4 reporting.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProtocolStats {
    /// L2 misses (all kinds).
    pub misses: u64,
    /// Misses whose data came from another cache ("3-hop misses" /
    /// cache-to-cache transfers — Table 3).
    pub cache_to_cache: u64,
    /// L2 hits.
    pub hits: u64,
    /// Writebacks issued (dirty evictions).
    pub writebacks: u64,
    /// Negative acknowledgments received (DirClassic).
    pub nacks: u64,
    /// Requests re-issued after a nack.
    pub retries: u64,
    /// Expired shared copies re-leased from home (Tardis). The unicast
    /// counterpart of broadcast ordering traffic: this is the load the
    /// lease mechanism puts on the network as sharing grows.
    pub lease_renewals: u64,
    /// Read leases granted or extended by home (Tardis).
    pub leases_granted: u64,
}

// Manual impls instead of the derive so the Tardis-only counters are
// *omitted when zero*: the three broadcast/directory protocols never set
// them, keeping every committed 3-protocol artifact byte-identical.
// Legacy field order must track declaration order exactly — cell pins
// hash serialized stats.
impl serde::Serialize for ProtocolStats {
    fn to_value(&self) -> serde::Value {
        let mut fields: Vec<(String, serde::Value)> = vec![
            ("misses".into(), self.misses.to_value()),
            ("cache_to_cache".into(), self.cache_to_cache.to_value()),
            ("hits".into(), self.hits.to_value()),
            ("writebacks".into(), self.writebacks.to_value()),
            ("nacks".into(), self.nacks.to_value()),
            ("retries".into(), self.retries.to_value()),
        ];
        if self.lease_renewals != 0 {
            fields.push(("lease_renewals".into(), self.lease_renewals.to_value()));
        }
        if self.leases_granted != 0 {
            fields.push(("leases_granted".into(), self.leases_granted.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl serde::Deserialize for ProtocolStats {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let optional = |key: &str| -> Result<u64, serde::Error> {
            match v.get(key) {
                Some(field) => serde::Deserialize::from_value(field),
                None => Ok(0),
            }
        };
        Ok(ProtocolStats {
            misses: serde::de_field(v, "misses")?,
            cache_to_cache: serde::de_field(v, "cache_to_cache")?,
            hits: serde::de_field(v, "hits")?,
            writebacks: serde::de_field(v, "writebacks")?,
            nacks: serde::de_field(v, "nacks")?,
            retries: serde::de_field(v, "retries")?,
            lease_renewals: optional("lease_renewals")?,
            leases_granted: optional("leases_granted")?,
        })
    }
}

/// A cache-coherence protocol engine: one object models the cache,
/// directory and memory controllers of **all** nodes, reacting to events
/// with actions.
///
/// Engines are deterministic state machines; all timing (network latency,
/// controller occupancy, perturbation) is applied by the caller, which is
/// what lets the same engine run under the fast or detailed network.
pub trait Protocol {
    /// Issues a CPU operation at `node`. On a hit the engine immediately
    /// emits [`ProtoAction::Complete`]; on a miss it starts the coherence
    /// flow. At most one operation may be outstanding per node (the paper's
    /// blocking processor model).
    fn cpu_op(&mut self, now: Time, node: NodeId, op: CpuOp, out: &mut Vec<ProtoAction>);

    /// Delivers a network event.
    fn handle(&mut self, now: Time, event: ProtoEvent, out: &mut Vec<ProtoAction>);

    /// Whether this protocol uses the broadcast (snooping) address network.
    fn uses_snooping(&self) -> bool;

    /// Narrows `targets`, which arrives holding every node, to the nodes
    /// whose snoop of the ordered broadcast `txn` can act: a snoop is
    /// dispatched only to those. A node left out must be one whose
    /// [`ProtoEvent::Snooped`] would change nothing and emit nothing, at
    /// any moment until the copies of the drain that asked have all been
    /// dispatched. The default keeps every node.
    fn snoop_targets(&self, txn: &AddrTxn, targets: &mut NodeSet) {
        let _ = (txn, targets);
    }

    /// Aggregate statistics so far.
    fn stats(&self) -> ProtocolStats;

    /// The committed value of `block` at quiescence (M copy if one exists,
    /// else the memory copy): the verification hook for the lost-update
    /// invariant.
    fn final_value(&self, block: Block) -> u64;

    /// At quiescence, checks that no store was ever lost: every written
    /// block's committed value must equal the number of stores issued to
    /// it. Returns `Err` describing the first violation. Engines built
    /// with verification disabled return `Ok(())` vacuously.
    fn check_lost_updates(&self) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn home_interleaves_blocks() {
        assert_eq!(Block(0).home(16), NodeId(0));
        assert_eq!(Block(17).home(16), NodeId(1));
        assert_eq!(Block(31).home(16), NodeId(15));
    }

    #[test]
    fn op_accessors() {
        let b = Block(5);
        assert_eq!(CpuOp::Load(b).block(), b);
        assert!(!CpuOp::Load(b).is_write());
        assert!(CpuOp::Store(b).is_write());
        assert!(CpuOp::Rmw(b).is_write());
    }

    #[test]
    fn message_classes_follow_figure4() {
        let b = Block(1);
        assert_eq!(
            Msg::Data {
                block: b,
                value: 0,
                acks_expected: 0,
                from_cache: false
            }
            .class(),
            MsgClass::Data
        );
        assert_eq!(
            Msg::WbData {
                block: b,
                value: 0,
                key: WbKey::PutM(NodeId(0))
            }
            .class(),
            MsgClass::Data
        );
        assert_eq!(
            Msg::DirReq {
                kind: TxnKind::GetS,
                block: b,
                requester: NodeId(0),
                value: 0
            }
            .class(),
            MsgClass::Request
        );
        assert_eq!(
            Msg::DirReq {
                kind: TxnKind::PutM,
                block: b,
                requester: NodeId(0),
                value: 0
            }
            .class(),
            MsgClass::Data,
            "directory writebacks carry the block"
        );
        assert_eq!(
            Msg::Nack {
                kind: TxnKind::GetS,
                block: b
            }
            .class(),
            MsgClass::Nack
        );
        assert_eq!(
            Msg::Inval {
                block: b,
                requester: NodeId(0)
            }
            .class(),
            MsgClass::Misc
        );
        assert_eq!(Msg::InvAck { block: b }.class(), MsgClass::Misc);
    }

    #[test]
    fn message_block_accessor() {
        let b = Block(9);
        for m in [
            Msg::WbNoData {
                block: b,
                key: WbKey::PutM(NodeId(1)),
            },
            Msg::Revision { block: b, value: 3 },
            Msg::Transfer {
                block: b,
                new_owner: NodeId(2),
            },
            Msg::PutAck {
                block: b,
                accepted: true,
            },
            Msg::Fwd {
                kind: TxnKind::GetM,
                block: b,
                requester: NodeId(1),
            },
        ] {
            assert_eq!(m.block(), b);
        }
    }

    /// The Tardis lease counters must be invisible in any stats the
    /// three broadcast/directory protocols produce: their serialized
    /// form stays exactly the six legacy keys, in declaration order, so
    /// every committed artifact remains byte-identical. Same style as
    /// the `gt_origin`/`threads` exclusion guards in the core config.
    #[test]
    fn lease_counters_stay_out_of_zero_serialized_stats() {
        use serde::{Deserialize, Serialize};
        let keys_of = |s: &ProtocolStats| match s.to_value() {
            serde::Value::Object(fields) => fields
                .iter()
                .map(|(k, _)| k.clone())
                .collect::<Vec<String>>(),
            other => panic!("stats must serialize to an object, got {other:?}"),
        };
        let legacy = ProtocolStats {
            misses: 1,
            cache_to_cache: 2,
            hits: 3,
            writebacks: 4,
            nacks: 5,
            retries: 6,
            lease_renewals: 0,
            leases_granted: 0,
        };
        assert_eq!(
            keys_of(&legacy),
            [
                "misses",
                "cache_to_cache",
                "hits",
                "writebacks",
                "nacks",
                "retries"
            ]
        );
        // A legacy payload (no lease keys at all) still deserializes.
        let back = ProtocolStats::from_value(&legacy.to_value()).unwrap();
        assert_eq!(back.misses, 1);
        assert_eq!(back.lease_renewals, 0);

        // Tardis stats append their counters after the legacy keys and
        // round-trip exactly.
        let tardis = ProtocolStats {
            lease_renewals: 7,
            leases_granted: 8,
            ..legacy
        };
        assert_eq!(
            keys_of(&tardis),
            [
                "misses",
                "cache_to_cache",
                "hits",
                "writebacks",
                "nacks",
                "retries",
                "lease_renewals",
                "leases_granted"
            ]
        );
        let back = ProtocolStats::from_value(&tardis.to_value()).unwrap();
        assert_eq!(back.lease_renewals, 7);
        assert_eq!(back.leases_granted, 8);
    }
}
