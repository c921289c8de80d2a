//! Interconnection-network models for the timestamp-snooping reproduction
//! (Martin et al., ASPLOS 2000, §2 and §4.2).
//!
//! Timestamp snooping lets a broadcast (snooping) coherence protocol run
//! over an *unordered* switched network: the network assigns each address
//! transaction a logical **ordering time** (OT) and delivers it "as quickly
//! as possible without regard to order"; endpoints re-sort transactions by
//! OT and process one only after a **guarantee time** (GT) handshake proves
//! no earlier transaction can still arrive.
//!
//! This crate provides:
//!
//! * [`Fabric`] — the two evaluated topologies (four parallel radix-4
//!   [butterflies](Fabric::butterfly16) and a [4×4 torus](Fabric::torus4x4)),
//!   generalised for scaling studies, with precomputed minimum-distance
//!   broadcast trees and per-branch `ΔD` tables;
//! * [`FastOrderedNet`] — the closed-form unloaded model used for benchmark
//!   runs (the paper's own evaluation models no network contention);
//! * [`DetailedNet`] / [`SwitchCore`] — the literal token-passing
//!   implementation of §2.2, including Figure 1, slack bookkeeping and
//!   optional link-bandwidth contention. One net simulates every plane of
//!   its fabric on one calendar — the paper's "four parallel butterflies,
//!   selected round-robin" — and merges each node's copies at its
//!   min-guarantee-time frontier (this is what full-system
//!   `--net detailed` runs drive);
//! * [`Delivery`] — one endpoint copy of a broadcast in the total order,
//!   the single delivery type of both address-network models (the
//!   `tss::address_net::AddressNet` trait is implemented directly on
//!   [`FastOrderedNet`] and [`DetailedNet`]);
//! * [`UnicastNet`] — the point-to-point virtual networks used for data and
//!   directory traffic, with optional per-pair FIFO ordering (DirOpt);
//! * [`TrafficLedger`] — per-link, per-class byte accounting (Figure 4).
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use tss_net::{Fabric, FastOrderedNet, NodeId, OrderedNetTiming};
//! use tss_sim::Time;
//!
//! let fabric = Arc::new(Fabric::torus4x4());
//! let mut addr = FastOrderedNet::new(fabric, OrderedNetTiming::paper_default());
//! let ready = addr.inject(Time::from_ns(0), NodeId(6), "GETS 0x40");
//! let mut deliveries = Vec::new();
//! addr.drain_into(ready, &mut deliveries);
//! for delivery in deliveries {
//!     // every endpoint snoops the transaction in the same logical order
//!     assert_eq!(*delivery.payload, "GETS 0x40");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fast;
mod ids;
mod token;
mod topology;
mod traffic;
mod unicast;

pub use fast::{Delivery, FastOrderedNet, HopTiming, OrderedNetTiming};
pub use ids::{LinkId, NodeId, Vertex};
pub use token::{DetailedNet, DetailedNetConfig, DetailedNetStats, SwitchCore};
pub use topology::{BroadcastTree, Fabric, FabricKind, Link, TreeEdge};
pub use traffic::{MsgClass, TrafficLedger, MSG_CLASSES};
pub use unicast::{UnicastNet, VnetOrdering};
