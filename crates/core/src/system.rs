//! The full-system simulator: CPUs + protocol engine + networks, driven by
//! one event loop.
//!
//! This is the reproduction's counterpart of the paper's "memory hierarchy
//! simulator" (§4.3): it models network latencies and timestamp ordering
//! delays exactly, controller occupancies (`D_mem`/`D_cache`), and the
//! §4.3 perturbation methodology (small random delays on every response).
//!
//! The address network behind TS-Snoop is pluggable via
//! [`crate::address_net::AddressNet`], selected by
//! [`SystemConfig::net`]: the default fast closed form reproduces the
//! paper's own no-contention assumption; the detailed token network
//! (`NetworkModelSpec::Detailed`) simulates every token hop and, with
//! positive link occupancy, feeds queueing-induced guarantee-time stalls
//! back into the ordering instants the protocol observes — the
//! `--contention` measurement axis. The event loop drives either model
//! the same way: broadcasts return a poll hint, and a single-event poll
//! chain (`schedule_addr_poll`) drains ordered transactions as their
//! instants arrive.

use std::sync::Arc;

use tss_net::{MsgClass, NodeId, TrafficLedger, UnicastNet, VnetOrdering};
use tss_proto::{
    AddrTxn, Block, CpuOp, DirClassic, DirOpt, DirTiming, Msg, ProtoAction, ProtoEvent, Protocol,
    ProtocolStats, SnoopTiming, Tardis, TsSnoop, Vnet,
};
use tss_sim::hash::FastSet;
use tss_sim::rng::SimRng;
use tss_sim::stats::LatencyStat;
use tss_sim::{Duration, EventQueue, Time};
use tss_workloads::{TraceItem, WorkloadSpec};

use crate::address_net::{build_address_net, AddressNet};
use crate::builder::SystemBuilder;
use crate::config::{ProtocolKind, SystemConfig};
use crate::cpu::Cpu;

/// Per-class traffic totals (the Figure 4 quantities).
#[derive(Debug, Clone, Copy, Default, serde::Serialize, serde::Deserialize)]
pub struct TrafficSummary {
    /// Data-class bytes summed over all links.
    pub data_bytes: u64,
    /// Request-class bytes.
    pub request_bytes: u64,
    /// Nack-class bytes.
    pub nack_bytes: u64,
    /// Misc-class bytes (forwards, invals, acks, revisions).
    pub misc_bytes: u64,
    /// Mean bytes per weight-1 link.
    pub per_link_mean: f64,
    /// Bytes on the busiest link.
    pub per_link_max: u64,
}

impl TrafficSummary {
    fn from_ledger(l: &TrafficLedger) -> Self {
        TrafficSummary {
            data_bytes: l.class_total(MsgClass::Data),
            request_bytes: l.class_total(MsgClass::Request),
            nack_bytes: l.class_total(MsgClass::Nack),
            misc_bytes: l.class_total(MsgClass::Misc),
            per_link_mean: l.per_link_mean(),
            per_link_max: l.per_link_max(),
        }
    }

    /// Grand total bytes.
    pub fn total(&self) -> u64 {
        self.data_bytes + self.request_bytes + self.nack_bytes + self.misc_bytes
    }
}

/// Everything a run measures.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SystemStats {
    /// Wall-clock of the simulated execution: the instant the last CPU
    /// retired its final operation (Figure 3's quantity).
    pub runtime: Duration,
    /// Protocol counters (misses, cache-to-cache, nacks, …).
    pub protocol: ProtocolStats,
    /// Link-traffic totals by class (Figure 4's quantity).
    pub traffic: TrafficSummary,
    /// Distinct blocks touched × 64 B (Table 3 "total data touched").
    pub data_touched_mb: f64,
    /// Latency of every L2 miss (issue → completion).
    pub miss_latency: LatencyStat,
    /// Per-node miss latency (microbenchmark latency measurements).
    pub miss_latency_per_node: Vec<LatencyStat>,
    /// Host-side event count (simulator progress metric).
    pub events_processed: u64,
}

impl SystemStats {
    /// Fraction of misses served cache-to-cache (Table 3 "3-hop misses").
    pub fn c2c_fraction(&self) -> f64 {
        if self.protocol.misses == 0 {
            0.0
        } else {
            self.protocol.cache_to_cache as f64 / self.protocol.misses as f64
        }
    }
}

/// The result of a run: stats plus (optionally) per-CPU observed values.
#[derive(Debug)]
pub struct RunResult {
    /// Measurements.
    pub stats: SystemStats,
    /// Per-CPU `(op, observed value)` log, populated only when
    /// [`SystemConfig::record_observations`] is set (litmus tests).
    pub observations: Vec<Vec<(CpuOp, u64)>>,
}

#[derive(Debug)]
enum Ev {
    Issue { cpu: u16, op: CpuOp },
    AddrDrain,
    Deliver { dest: NodeId, msg: Msg },
}

/// The assembled target system.
///
/// # Example
///
/// ```
/// use tss::{ProtocolKind, System, SystemConfig, TopologyKind};
/// use tss_workloads::micro;
///
/// let cfg = SystemConfig::test_default(ProtocolKind::TsSnoop, TopologyKind::Torus4x4);
/// let result = System::run_traces(cfg, micro::ping_pong(50, 40));
/// // Ping-pong between two CPUs: nearly every RMW is a cache-to-cache miss.
/// assert!(result.stats.c2c_fraction() > 0.9);
/// ```
pub struct System {
    cfg: SystemConfig,
    n: usize,
    protocol: Box<dyn Protocol + Send>,
    addr: Option<Box<dyn AddressNet<AddrTxn>>>,
    /// Earliest scheduled address-net poll, so the poll chain re-arms one
    /// event at a time instead of fanning out duplicates.
    addr_poll_at: Option<Time>,
    data_net: UnicastNet,
    request_net: UnicastNet,
    forward_net: UnicastNet,
    cpus: Vec<Cpu>,
    events: EventQueue<Ev>,
    jitter_rng: SimRng,
    touched: FastSet<Block>,
    miss_latency: LatencyStat,
    miss_latency_per_node: Vec<LatencyStat>,
    observations: Vec<Vec<(CpuOp, u64)>>,
    finished: usize,
    runtime: Time,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cfg", &self.cfg)
            .field("finished", &self.finished)
            .field("now", &self.events.now())
            .finish()
    }
}

impl System {
    /// Starts a fluent, validated [`crate::SystemBuilder`] — the public
    /// construction path; see the builder docs for the full surface.
    ///
    /// ```
    /// use tss::{ProtocolKind, System, TopologyKind};
    /// use tss_workloads::micro;
    ///
    /// let result = System::builder()
    ///     .protocol(ProtocolKind::TsSnoop)
    ///     .topology(TopologyKind::Torus4x4)
    ///     .traces(micro::ping_pong(50, 40))
    ///     .build()
    ///     .expect("valid config")
    ///     .run();
    /// assert!(result.stats.c2c_fraction() > 0.9);
    /// ```
    pub fn builder() -> crate::builder::SystemBuilder {
        crate::builder::SystemBuilder::new()
    }

    /// Builds a system and runs the given per-CPU traces to completion.
    ///
    /// # Panics
    ///
    /// Panics if the [`SystemBuilder`] rejects the configuration (more
    /// traces than nodes, say), if the system deadlocks, or (with
    /// verification on) if a coherence invariant is violated.
    pub fn run_traces(cfg: SystemConfig, traces: Vec<Vec<TraceItem>>) -> RunResult {
        Self::build_and_run(SystemBuilder::from_config(cfg).traces(traces))
    }

    /// Builds a system and runs one of the synthetic workloads on every
    /// CPU. Panics as [`System::run_traces`] does.
    pub fn run_workload(cfg: SystemConfig, spec: &WorkloadSpec) -> RunResult {
        Self::build_and_run(SystemBuilder::from_config(cfg).workload(spec.clone()))
    }

    fn build_and_run(builder: SystemBuilder) -> RunResult {
        match builder.build() {
            Ok(system) => system.run(),
            Err(e) => panic!("invalid system configuration: {e}"),
        }
    }

    /// Assembles the system. Traces may be shorter than the node count;
    /// missing CPUs idle (useful for 2-CPU microbenchmarks on a 16-node
    /// fabric).
    pub fn new(
        cfg: SystemConfig,
        mut traces: Vec<Box<dyn Iterator<Item = TraceItem> + Send>>,
    ) -> System {
        let fabric = Arc::new(cfg.topology.build());
        let n = fabric.num_nodes();
        assert!(
            traces.len() <= n,
            "more traces ({}) than nodes ({n})",
            traces.len()
        );
        while traces.len() < n {
            traces.push(Box::new(std::iter::empty()));
        }

        let dir_timing = DirTiming {
            d_mem: cfg.timing.d_mem,
            d_cache: cfg.timing.d_cache,
        };
        let protocol: Box<dyn Protocol + Send> = match cfg.protocol {
            ProtocolKind::TsSnoop => Box::new(TsSnoop::new(
                n,
                cfg.cache,
                SnoopTiming {
                    d_mem: cfg.timing.d_mem,
                    d_cache: cfg.timing.d_cache,
                    prefetch: cfg.timing.prefetch,
                },
                cfg.verify,
            )),
            ProtocolKind::DirClassic => {
                Box::new(DirClassic::new(n, cfg.cache, dir_timing, cfg.verify))
            }
            ProtocolKind::DirOpt => Box::new(DirOpt::new(n, cfg.cache, dir_timing, cfg.verify)),
            // Lease timestamps start at the same origin as the network
            // guarantee times, so the --gt-origin rollover battery
            // stresses both counters at once.
            ProtocolKind::Tardis => Box::new(Tardis::new(
                n,
                cfg.cache,
                dir_timing,
                cfg.verify,
                tss_sim::Gt::from_raw(cfg.gt_origin),
            )),
        };

        let addr = protocol.uses_snooping().then(|| {
            build_address_net(
                cfg.net,
                &cfg.timing,
                Arc::clone(&fabric),
                tss_sim::Gt::from_raw(cfg.gt_origin),
                0,
            )
        });

        let unicast = |ordering| {
            UnicastNet::with_timing(
                Arc::clone(&fabric),
                ordering,
                cfg.timing.d_ovh,
                cfg.timing.d_switch,
                cfg.cache.block_bytes,
            )
        };
        let forward_ordering = if cfg.protocol == ProtocolKind::DirOpt {
            VnetOrdering::PointToPoint
        } else {
            VnetOrdering::Unordered
        };

        let cpus: Vec<Cpu> = traces
            .into_iter()
            .map(|t| Cpu::new(t, cfg.instructions_per_ns))
            .collect();

        // The jitter stream is independent of the workload streams (which
        // key off the seed alone), and selectable via perturbation_stream
        // so §4.3 replays can vary the noise without moving the workload.
        let jitter_rng =
            SimRng::from_seed_and_stream(cfg.seed, 0xFEED ^ (cfg.perturbation_stream << 16));
        let observations = (0..n).map(|_| Vec::new()).collect();

        System {
            n,
            protocol,
            addr,
            addr_poll_at: None,
            data_net: unicast(VnetOrdering::Unordered),
            request_net: unicast(VnetOrdering::Unordered),
            forward_net: unicast(forward_ordering),
            cpus,
            events: EventQueue::new(),
            jitter_rng,
            touched: FastSet::default(),
            miss_latency: LatencyStat::new(),
            miss_latency_per_node: vec![LatencyStat::new(); n],
            observations,
            finished: 0,
            runtime: Time::ZERO,
            cfg,
        }
    }

    /// Runs to quiescence and reports.
    pub fn run(mut self) -> RunResult {
        // Prime every CPU.
        for c in 0..self.n {
            match self.cpus[c].advance(Time::ZERO) {
                Some((at, op)) => self.events.schedule(at, Ev::Issue { cpu: c as u16, op }),
                None => self.finished += 1,
            }
        }

        // One action buffer and one delivery buffer for the whole run:
        // protocol dispatch and address-net drains append into retained
        // scratch space instead of allocating per event.
        let mut actions: Vec<ProtoAction> = Vec::new();
        let mut snoops: Vec<crate::address_net::AddrDelivery<AddrTxn>> = Vec::new();

        while let Some((now, ev)) = self.events.pop() {
            debug_assert!(actions.is_empty());
            match ev {
                Ev::Issue { cpu, op } => {
                    self.touched.insert(op.block());
                    self.cpus[cpu as usize].issue(now, op);
                    self.protocol.cpu_op(now, NodeId(cpu), op, &mut actions);
                }
                Ev::AddrDrain => {
                    if self.addr_poll_at == Some(now) {
                        self.addr_poll_at = None;
                    }
                    let addr = self.addr.as_mut().expect("drain without snooping");
                    addr.drain_into(now, &mut snoops);
                    for d in snoops.drain(..) {
                        self.protocol.handle(
                            now,
                            ProtoEvent::Snooped {
                                dest: d.dest,
                                txn: *d.payload,
                                arrival: d.arrival,
                            },
                            &mut actions,
                        );
                    }
                    // Re-arm the poll chain while copies are pending: the
                    // detailed model advances one event horizon per poll,
                    // the fast model jumps straight to the next deadline.
                    if let Some(at) = self.addr.as_ref().and_then(|a| a.next_ready()) {
                        self.schedule_addr_poll(at);
                    }
                }
                Ev::Deliver { dest, msg } => {
                    self.protocol
                        .handle(now, ProtoEvent::Delivered { dest, msg }, &mut actions);
                }
            }
            self.process_actions(now, &mut actions);
        }

        assert_eq!(
            self.finished,
            self.n,
            "system deadlocked: {} of {} CPUs finished, blocked: {:?}, \
             addr next_ready {:?}, poll_at {:?}",
            self.finished,
            self.n,
            (0..self.n)
                .filter(|&c| self.cpus[c].is_blocked())
                .collect::<Vec<_>>(),
            self.addr.as_ref().and_then(|a| a.next_ready()),
            self.addr_poll_at,
        );

        if self.cfg.verify {
            if let Err(e) = self.protocol.check_lost_updates() {
                panic!("coherence verification failed: {e}");
            }
        }

        let mut merged = match &self.addr {
            Some(a) => a.ledger().clone(),
            None => self.request_net.ledger().clone(),
        };
        if self.addr.is_some() {
            merged.merge(self.request_net.ledger());
        }
        merged.merge(self.data_net.ledger());
        merged.merge(self.forward_net.ledger());

        let stats = SystemStats {
            runtime: self.runtime.since(Time::ZERO),
            protocol: self.protocol.stats(),
            traffic: TrafficSummary::from_ledger(&merged),
            data_touched_mb: self.touched.len() as f64 * self.cfg.cache.block_bytes as f64
                / (1024.0 * 1024.0),
            miss_latency: self.miss_latency,
            miss_latency_per_node: self.miss_latency_per_node,
            events_processed: self.events.events_processed(),
        };
        RunResult {
            stats,
            observations: self.observations,
        }
    }

    /// Schedules an address-net drain at `at` unless an earlier poll is
    /// already pending (which will re-arm the chain itself). Keeps the
    /// poll chain at one live event, so detailed-model polling cannot fan
    /// out duplicate drains.
    fn schedule_addr_poll(&mut self, at: Time) {
        if self.addr_poll_at.is_none_or(|pending| at < pending) {
            self.events.schedule(at, Ev::AddrDrain);
            self.addr_poll_at = Some(at);
        }
    }

    /// Applies the actions one dispatch produced, draining (and thereby
    /// recycling) the caller's scratch buffer.
    fn process_actions(&mut self, now: Time, actions: &mut Vec<ProtoAction>) {
        for a in actions.drain(..) {
            match a {
                ProtoAction::Broadcast { src, txn } => {
                    let addr = self.addr.as_mut().expect("broadcast without snooping");
                    let ready = addr.inject(now, src, txn);
                    self.schedule_addr_poll(ready);
                }
                ProtoAction::Send {
                    src,
                    dst,
                    msg,
                    vnet,
                    delay,
                } => {
                    let jitter = if self.cfg.perturbation_ns > 0 {
                        Duration::from_ns(
                            self.jitter_rng.gen_range(0..self.cfg.perturbation_ns + 1),
                        )
                    } else {
                        Duration::ZERO
                    };
                    let net = match vnet {
                        Vnet::Data => &mut self.data_net,
                        Vnet::Request => &mut self.request_net,
                        Vnet::Forward => &mut self.forward_net,
                    };
                    let at = net.send(now + delay, src, dst, msg.class(), jitter);
                    self.events.schedule(at, Ev::Deliver { dest: dst, msg });
                }
                ProtoAction::Complete { node, value } => {
                    let (op, latency) = self.cpus[node.index()].complete(now);
                    if latency > Duration::ZERO {
                        self.miss_latency.record(latency);
                        self.miss_latency_per_node[node.index()].record(latency);
                    }
                    if self.cfg.record_observations {
                        self.observations[node.index()].push((op, value));
                    }
                    match self.cpus[node.index()].advance(now) {
                        Some((at, op)) => self.events.schedule(at, Ev::Issue { cpu: node.0, op }),
                        None => {
                            self.finished += 1;
                            if now > self.runtime {
                                self.runtime = now;
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TopologyKind;
    use tss_workloads::micro;

    fn cfg(p: ProtocolKind, t: TopologyKind) -> SystemConfig {
        SystemConfig::test_default(p, t)
    }

    #[test]
    fn ping_pong_is_all_cache_to_cache_on_every_protocol() {
        for p in ProtocolKind::ALL {
            // 500 ns between issues — longer than any handoff, so the two
            // CPUs strictly alternate ownership and every RMW misses.
            let r = System::run_traces(cfg(p, TopologyKind::Torus4x4), micro::ping_pong(100, 2000));
            assert_eq!(r.stats.protocol.misses + r.stats.protocol.hits, 200, "{p}");
            // At least one side loses its copy every round (phase races
            // can let the other side keep winning and hit).
            assert!(
                r.stats.protocol.misses >= 100,
                "{p}: {}",
                r.stats.protocol.misses
            );
            // Only the very first miss is served by memory: the second
            // CPU's cold miss already finds the first CPU owning the block.
            assert_eq!(
                r.stats.protocol.cache_to_cache,
                r.stats.protocol.misses - 1,
                "{p}: every miss but the first is cache-to-cache"
            );
            assert!(r.stats.runtime > Duration::ZERO);
        }
    }

    #[test]
    fn private_streams_hit_after_cold_pass() {
        for p in ProtocolKind::ALL {
            let r = System::run_traces(
                cfg(p, TopologyKind::Butterfly16),
                micro::private_streams(16, 32, 3, 40),
            );
            // One cold miss per block; two further passes hit.
            assert_eq!(r.stats.protocol.misses, 16 * 32, "{p}");
            assert_eq!(r.stats.protocol.hits, 16 * 32 * 2, "{p}");
            assert_eq!(r.stats.protocol.cache_to_cache, 0, "{p}");
        }
    }

    #[test]
    fn single_writer_many_readers_counts() {
        for p in ProtocolKind::ALL {
            let r = System::run_traces(
                cfg(p, TopologyKind::Torus4x4),
                micro::single_writer_many_readers(4, 16, 40),
            );
            // Writer: 16 cold misses. Readers: first pass misses (16 each),
            // second pass hits.
            assert_eq!(r.stats.protocol.misses as i64, 16 + 3 * 16, "{p}");
            // The first reader of each block hits the writer's M copy.
            assert!(r.stats.protocol.cache_to_cache >= 16, "{p}");
        }
    }

    #[test]
    fn snoop_runs_use_request_plus_data_traffic_only() {
        let r = System::run_traces(
            cfg(ProtocolKind::TsSnoop, TopologyKind::Butterfly16),
            micro::ping_pong(50, 40),
        );
        assert!(r.stats.traffic.request_bytes > 0);
        assert!(r.stats.traffic.data_bytes > 0);
        assert_eq!(r.stats.traffic.nack_bytes, 0);
        assert_eq!(r.stats.traffic.misc_bytes, 0);
    }

    #[test]
    fn dir_classic_produces_nacks_under_contention() {
        let r = System::run_traces(
            cfg(ProtocolKind::DirClassic, TopologyKind::Torus4x4),
            micro::lock_storm(8, 30, 2, 20),
        );
        assert!(r.stats.protocol.nacks > 0, "lock storm should nack");
        assert!(r.stats.traffic.nack_bytes > 0);
    }

    #[test]
    fn dir_opt_never_nacks() {
        let r = System::run_traces(
            cfg(ProtocolKind::DirOpt, TopologyKind::Torus4x4),
            micro::lock_storm(8, 30, 2, 20),
        );
        assert_eq!(r.stats.protocol.nacks, 0);
        assert_eq!(r.stats.traffic.nack_bytes, 0);
    }

    #[test]
    fn perturbation_changes_timing_but_not_results() {
        let mut c = cfg(ProtocolKind::TsSnoop, TopologyKind::Torus4x4);
        c.perturbation_ns = 5;
        c.seed = 1;
        let a = System::run_traces(c.clone(), micro::ping_pong(50, 40));
        c.seed = 2;
        let b = System::run_traces(c, micro::ping_pong(50, 40));
        assert_eq!(a.stats.protocol.misses, b.stats.protocol.misses);
        assert_ne!(
            a.stats.runtime, b.stats.runtime,
            "different perturbation seeds should shift timing"
        );
    }

    #[test]
    fn observations_are_recorded_when_requested() {
        let mut c = cfg(ProtocolKind::TsSnoop, TopologyKind::Torus4x4);
        c.record_observations = true;
        let r = System::run_traces(c, micro::ping_pong(10, 40));
        assert_eq!(r.observations[0].len(), 10);
        assert_eq!(r.observations[1].len(), 10);
        // RMW observations across both CPUs cover 0..20 exactly once.
        let mut seen: Vec<u64> = r.observations[0]
            .iter()
            .chain(r.observations[1].iter())
            .map(|(_, v)| *v)
            .collect();
        seen.sort_unstable();
        let expect: Vec<u64> = (0..20).collect();
        assert_eq!(seen, expect, "atomic increments must not be lost");
    }

    #[test]
    fn detailed_network_preserves_coherence_on_microbenchmarks() {
        use crate::config::NetworkModelSpec;
        // Coherence checker is on (test_default): the detailed path must
        // uphold every invariant the fast path does, on both fabrics
        // (single-plane torus, four-plane butterfly) and under contention.
        for t in [TopologyKind::Torus4x4, TopologyKind::Butterfly16] {
            for occ in [0, 20] {
                let mut c = cfg(ProtocolKind::TsSnoop, t);
                c.net = NetworkModelSpec::detailed(occ);
                let r = System::run_traces(c, micro::ping_pong(50, 40));
                assert_eq!(
                    r.stats.protocol.misses + r.stats.protocol.hits,
                    100,
                    "{t} occ={occ}"
                );
                assert!(r.stats.runtime > Duration::ZERO);
            }
        }
    }

    #[test]
    fn detailed_network_misses_never_beat_the_fast_model() {
        use crate::config::NetworkModelSpec;
        use tss_workloads::paper;
        // Per-miss service includes the address ordering delay, which the
        // detailed model's uniform-link metric and conservative batch
        // rule make strictly later than the fast closed form; occupancy
        // stalls push it later still. (Whole-run *runtime* comparisons on
        // racy microbenchmarks are not monotone — later ordering can flip
        // ownership races toward more hits — so the assertion is on the
        // measured miss latencies and on a real workload's runtime.)
        let run = |net: NetworkModelSpec| {
            let mut c = cfg(ProtocolKind::TsSnoop, TopologyKind::Torus4x4);
            c.net = net;
            System::run_workload(c, &paper::barnes(0.001))
        };
        let fast = run(NetworkModelSpec::Fast);
        let unloaded = run(NetworkModelSpec::detailed(0));
        let contended = run(NetworkModelSpec::detailed(20));
        for (name, detailed) in [("unloaded", &unloaded), ("contended", &contended)] {
            assert!(
                detailed.stats.miss_latency.mean_ns() >= fast.stats.miss_latency.mean_ns(),
                "{name} detailed mean miss latency {:?} < fast {:?}",
                detailed.stats.miss_latency.mean_ns(),
                fast.stats.miss_latency.mean_ns()
            );
            assert!(
                detailed.stats.runtime >= fast.stats.runtime,
                "{name} detailed runtime {} < fast {}",
                detailed.stats.runtime,
                fast.stats.runtime
            );
        }
        assert!(
            contended.stats.miss_latency.mean_ns() >= unloaded.stats.miss_latency.mean_ns(),
            "occupancy stalls must not speed up misses"
        );
    }

    #[test]
    fn runtime_is_last_completion() {
        let r = System::run_traces(
            cfg(ProtocolKind::TsSnoop, TopologyKind::Torus4x4),
            micro::private_streams(2, 8, 1, 40),
        );
        assert!(r.stats.runtime.as_ns() > 0);
        assert!(r.stats.miss_latency.count() > 0);
        assert!(r.stats.data_touched_mb > 0.0);
    }

    /// `GridReport` bytes are pinned across PRs, so [`SystemStats`] must
    /// keep exactly its historical field set — host-side counters must
    /// stay out of it.
    #[test]
    fn parallel_counters_stay_out_of_serialized_stats() {
        let r = System::run_traces(
            cfg(ProtocolKind::TsSnoop, TopologyKind::Torus4x4),
            micro::ping_pong(10, 20),
        );
        let serde::Value::Object(entries) = serde::Serialize::to_value(&r.stats) else {
            panic!("SystemStats must serialize as an object");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "runtime",
                "protocol",
                "traffic",
                "data_touched_mb",
                "miss_latency",
                "miss_latency_per_node",
                "events_processed",
            ],
            "SystemStats grew or lost a serialized field — GridReport bytes would change"
        );
    }
}
