//! Discrete-event simulation kernel for the timestamp-snooping reproduction.
//!
//! This crate provides the *host* machinery used by every simulated system in
//! the workspace:
//!
//! * [`Time`] — a nanosecond-resolution simulated clock value,
//! * [`Gt`] — the packed, wraparound-safe guarantee-time counter every
//!   GT/OT comparison in the workspace goes through (with [`GtKey`] as
//!   its tiebroken ordering key),
//! * [`EventQueue`] — a deterministic calendar queue (ties broken in FIFO
//!   insertion order, so simulations are exactly reproducible),
//! * [`rng`] — seeded random-number helpers shared by workload generators and
//!   the perturbation methodology of the paper (§4.3),
//! * [`stats`] — counters and histograms used for the paper's tables/figures.
//!
//! Host parallelism lives one level up: [`scheduler`] distributes whole,
//! independent simulations (grid cells) across worker threads, while each
//! simulation runs its event loop on one thread.
//!
//! # Example
//!
//! ```
//! use tss_sim::{EventQueue, Time};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.schedule(Time::from_ns(15), "token tick");
//! q.schedule(Time::from_ns(4), "message enters network");
//! let (t, ev) = q.pop().expect("queue is non-empty");
//! assert_eq!((t, ev), (Time::from_ns(4), "message enters network"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
mod queue;
pub mod rng;
pub mod scheduler;
pub mod stats;
mod time;

pub use queue::EventQueue;
pub use scheduler::{SchedulerStats, WorkStealScheduler};
pub use time::{Duration, Gt, GtKey, Time};
