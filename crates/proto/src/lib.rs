//! Cache-coherence protocol engines for the timestamp-snooping
//! reproduction (Martin et al., ASPLOS 2000, §3 and §4.2).
//!
//! The paper's three MSI protocols, plus a timestamp-lease descendant:
//!
//! * [`TsSnoop`] — broadcast snooping over the timestamp-ordered address
//!   network, with the Synapse one-bit memory owner state and the §3
//!   prefetch optimisation;
//! * [`DirClassic`] — an SGI-Origin-2000-flavoured full-bit-vector
//!   directory with busy states, nacks and invalidation-ack collection;
//! * [`DirOpt`] — a nack-free directory relying on a point-to-point
//!   ordered forward network;
//! * [`Tardis`] — timestamp-lease coherence (Yu & Devadas) over plain
//!   unicast: no broadcast, no invalidations, leases expire in logical
//!   time instead.
//!
//! All four engines are *pure state machines* implementing the
//! [`Protocol`] trait: the system layer (crate `tss`) owns time, networks
//! and perturbation, and routes [`ProtoEvent`]s in / [`ProtoAction`]s out.
//! Every store is an increment of the block's value, which lets the
//! [`verify`] module detect lost updates and non-monotone observations on
//! any workload.
//!
//! The paper's comparison holds the processor and cache model fixed and
//! varies only the coherence mechanism, and so does the code: the
//! requester side every engine shares — the MSI hit path, retirement of
//! loads and stores through the checker, dirty-victim filling (with the
//! PutM home, for the unicast engines), the outstanding-writeback log,
//! the miss request to the home and the lost-update check — lives once
//! in a crate-private module, and each engine file holds only its
//! mechanism, each transition written once: TS-Snoop's memory decides an
//! ordered request in one function whether it acts at once or replays
//! it from its deferred log, and its owner response (data, plus the
//! writeback home on a GetS) is one function whichever of a writeback,
//! an M line or a just-filled line supplies the data. [`DirClassic`] and
//! [`DirOpt`] differ only at the home, so they share one crate-private
//! cache controller (MSHRs, miss completion, forwards served or queued,
//! stale invalidations) and keep only their directories and the home
//! messages each sends. Both track sharers in a 64-bit vector and run on
//! at most 64 nodes.
//!
//! # Example
//!
//! ```
//! use tss_proto::{Block, CacheConfig, CpuOp, Protocol, SnoopTiming, TsSnoop};
//! use tss_net::NodeId;
//! use tss_sim::Time;
//!
//! let mut engine = TsSnoop::new(16, CacheConfig::paper_default(),
//!                               SnoopTiming::paper_default(), true);
//! let mut actions = Vec::new();
//! engine.cpu_op(Time::ZERO, NodeId(0), CpuOp::Load(Block(0x100)), &mut actions);
//! assert_eq!(engine.stats().misses, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod dir_cache;
mod dir_classic;
mod dir_opt;
mod engine;
mod snoop;
mod tardis;
mod types;
pub mod verify;

pub use cache::{CacheConfig, CacheState, L2Cache, Victim};
pub use dir_cache::DirTiming;
pub use dir_classic::DirClassic;
pub use dir_opt::DirOpt;
pub use snoop::{SnoopTiming, TsSnoop};
pub use tardis::Tardis;
pub use types::{
    AddrTxn, Block, CpuOp, Msg, ProtoAction, ProtoEvent, Protocol, ProtocolStats, TxnKind, Vnet,
    WbKey,
};
