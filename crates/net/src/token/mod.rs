//! Detailed, executable model of the timestamp-snooping address network
//! (§2.2): switches exchange tokens to maintain guarantee times, carry
//! transactions with an explicit slack field, and endpoints re-sort
//! transactions into the logical total order with a priority queue.
//!
//! Unlike the closed-form [`FastOrderedNet`](crate::FastOrderedNet), this
//! model simulates every token and every transaction hop, models finite
//! link bandwidth (optional), and exercises all three cases of the slack
//! recurrence `S_new = S_old + ΔGT + ΔD`:
//!
//! 1. a transaction entering a switch gains the input port's pending token
//!    count,
//! 2. a propagating token decrements the slack of all buffered
//!    transactions (and is *blocked* by zero-slack transactions),
//! 3. each outgoing branch of the broadcast adds its `ΔD`.
//!
//! The Figure 1 walkthrough is reproduced step by step in
//! [`SwitchCore`]'s tests and in the `token_passing` example.

mod multi_plane;
mod net;
mod switch_core;

pub use multi_plane::MultiPlaneNet;
pub use net::{DetailedNet, DetailedNetConfig, DetailedNetStats};
pub use switch_core::SwitchCore;
