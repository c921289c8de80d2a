//! # Timestamp Snooping
//!
//! A full reproduction of **"Timestamp Snooping: An Approach for Extending
//! SMPs"** (Martin, Sorin, Ailamaki, Alameldeen, Dickson, Mauer, Moore,
//! Plakal, Hill, Wood — ASPLOS IX, 2000).
//!
//! Timestamp snooping lets symmetric multiprocessors keep their
//! latency-optimal *snooping* coherence protocols while moving from
//! ordered buses to high-speed switched networks: the network assigns each
//! address transaction a logical **ordering time** via a token-passing
//! **guarantee time** handshake, delivers transactions as fast as the
//! topology allows, and endpoints re-sort them into a total order before
//! processing. Against two directory protocols on 16-node butterfly/torus
//! systems, the paper measures 6–29 % faster execution for 13–43 % more
//! link bandwidth.
//!
//! This crate is the top of the stack: it assembles CPUs
//! ([`System`]), the protocol engines (crate `tss-proto`), the networks
//! (crate `tss-net`) and the synthetic workloads (crate `tss-workloads`)
//! into runnable experiments, and provides the paper's closed-form models
//! ([`analytic`]) and measurement methodology ([`methodology`]). The
//! address network is pluggable ([`address_net`], selected by
//! [`NetworkModelSpec`]): the paper's fast unloaded closed form by
//! default, or the detailed token-passing network with a contention axis
//! the paper's evaluation deliberately left unmeasured.
//!
//! # Quick start
//!
//! One system, built and validated fluently:
//!
//! ```
//! use tss::{ProtocolKind, System, TopologyKind};
//! use tss_workloads::paper;
//!
//! // A 16-node torus running TS-Snoop on a small DSS-like workload.
//! let result = System::builder()
//!     .protocol(ProtocolKind::TsSnoop)
//!     .topology(TopologyKind::Torus4x4)
//!     .workload(paper::dss(0.001))
//!     .verify(true)
//!     .build()
//!     .expect("valid paper configuration")
//!     .run();
//! println!("runtime: {} for {} misses ({:.0}% cache-to-cache)",
//!          result.stats.runtime,
//!          result.stats.protocol.misses,
//!          100.0 * result.stats.c2c_fraction());
//! ```
//!
//! A whole evaluation grid, run in parallel with the §4.3 methodology and
//! serialized to a diffable JSON artifact:
//!
//! ```no_run
//! use tss::experiment::ExperimentGrid;
//! use tss_workloads::paper;
//!
//! let report = ExperimentGrid::new("figure3")
//!     .workloads(paper::all(1.0 / 64.0))
//!     .perturbation(4, 3)
//!     .run()
//!     .expect("valid grid");
//! report.write_json("results/figure3.json").expect("writable path");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address_net;
pub mod analytic;
mod builder;
pub mod cellstore;
mod config;
mod cpu;
pub mod experiment;
pub mod methodology;
mod system;

pub use builder::SystemBuilder;
pub use cellstore::{CellStore, GcReport};
pub use config::{ConfigError, NetworkModelSpec, ProtocolKind, SystemConfig, Timing, TopologyKind};
pub use cpu::Cpu;
pub use experiment::{
    CellKey, CellPlan, ExperimentGrid, GridPlan, GridReport, MergeError, RunReport, ShardSpec,
};
pub use system::{RunResult, System, SystemStats, TrafficSummary};
