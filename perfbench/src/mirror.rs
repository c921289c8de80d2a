//! A traced copy of `System::run`'s event loop (crates/core/src/system.rs),
//! built only from the simulator's public items, with a span around every
//! call into a layer. Nothing inside the simulator is instrumented: the
//! spans live here, and the guard in [`run_cell`]'s callers checks that
//! this loop computes exactly the stats `System::run` does, so the
//! per-layer numbers always describe the real program.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tss::address_net::{build_address_net, AddrDelivery, AddressNet};
use tss::{Cpu, ProtocolKind, SystemConfig, SystemStats, TrafficSummary};
use tss_net::{MsgClass, NodeId, TrafficLedger, UnicastNet, VnetOrdering};
use tss_proto::{
    AddrTxn, Block, CpuOp, DirClassic, DirOpt, DirTiming, Msg, ProtoAction, ProtoEvent, Protocol,
    SnoopTiming, Tardis, TsSnoop, Vnet,
};
use tss_sim::hash::FastSet;
use tss_sim::rng::SimRng;
use tss_sim::stats::LatencyStat;
use tss_sim::{Duration, EventQueue, Gt, Time};
use tss_workloads::{CpuStream, TraceItem, WorkloadSpec};

/// Busy time (ns) and work counts per layer, summed over traced runs.
/// Span times are inclusive; [`Tally::system_self_ns`] and
/// [`Tally::cpu_self_ns`] derive the self times.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub queue_ns: u64,
    pub queue_events: u64,
    pub workload_ns: u64,
    pub workload_items: u64,
    /// `Cpu` calls, including the workload iteration they trigger.
    pub cpu_ns: u64,
    pub cpu_calls: u64,
    pub build_ns: u64,
    /// The whole event loop, priming to stats assembly.
    pub loop_ns: u64,
    /// Indexed by [`proto_index`].
    pub proto_ns: [u64; 4],
    pub proto_calls: [u64; 4],
    pub fast_ns: u64,
    pub fast_broadcasts: u64,
    pub fast_drains: u64,
    pub token_ns: u64,
    pub token_broadcasts: u64,
    pub token_drains: u64,
    /// Drains that delivered at least one copy.
    pub token_yielding_drains: u64,
    pub token_deliveries: u64,
    pub token_waves_skipped: u64,
    /// Σ (ordered_at − arrival) over token-net deliveries.
    pub token_wait_ns: u64,
    pub unicast_ns: u64,
    /// Sends on the data, request and forward networks.
    pub unicast_sends: [u64; 3],
}

impl Tally {
    pub fn absorb(&mut self, o: &Tally) {
        let add = |a: &mut u64, b: u64| *a += b;
        add(&mut self.queue_ns, o.queue_ns);
        add(&mut self.queue_events, o.queue_events);
        add(&mut self.workload_ns, o.workload_ns);
        add(&mut self.workload_items, o.workload_items);
        add(&mut self.cpu_ns, o.cpu_ns);
        add(&mut self.cpu_calls, o.cpu_calls);
        add(&mut self.build_ns, o.build_ns);
        add(&mut self.loop_ns, o.loop_ns);
        for i in 0..4 {
            add(&mut self.proto_ns[i], o.proto_ns[i]);
            add(&mut self.proto_calls[i], o.proto_calls[i]);
        }
        add(&mut self.fast_ns, o.fast_ns);
        add(&mut self.fast_broadcasts, o.fast_broadcasts);
        add(&mut self.fast_drains, o.fast_drains);
        add(&mut self.token_ns, o.token_ns);
        add(&mut self.token_broadcasts, o.token_broadcasts);
        add(&mut self.token_drains, o.token_drains);
        add(&mut self.token_yielding_drains, o.token_yielding_drains);
        add(&mut self.token_deliveries, o.token_deliveries);
        add(&mut self.token_waves_skipped, o.token_waves_skipped);
        add(&mut self.token_wait_ns, o.token_wait_ns);
        add(&mut self.unicast_ns, o.unicast_ns);
        for i in 0..3 {
            add(&mut self.unicast_sends[i], o.unicast_sends[i]);
        }
    }

    /// The event loop's own time: the loop span minus every child span.
    pub fn system_self_ns(&self) -> u64 {
        let children = self.queue_ns
            + self.cpu_ns
            + self.proto_ns.iter().sum::<u64>()
            + self.fast_ns
            + self.token_ns
            + self.unicast_ns;
        self.loop_ns.saturating_sub(children)
    }

    /// `Cpu`'s own time: its spans minus the workload iteration inside.
    pub fn cpu_self_ns(&self) -> u64 {
        self.cpu_ns.saturating_sub(self.workload_ns)
    }
}

/// Slot of a protocol in [`Tally::proto_ns`] / [`Tally::proto_calls`].
pub fn proto_index(kind: ProtocolKind) -> usize {
    match kind {
        ProtocolKind::TsSnoop => 0,
        ProtocolKind::DirClassic => 1,
        ProtocolKind::DirOpt => 2,
        ProtocolKind::Tardis => 3,
    }
}

/// Runs `f`, adding its wall time to `acc`.
#[inline]
fn span<R>(acc: &mut u64, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    *acc += t0.elapsed().as_nanos() as u64;
    r
}

/// Time and item count of every workload stream of one run.
#[derive(Default)]
struct StreamTally {
    ns: AtomicU64,
    items: AtomicU64,
}

/// A workload stream that times each item it yields.
struct TimedStream {
    inner: CpuStream,
    tally: Arc<StreamTally>,
}

impl Iterator for TimedStream {
    type Item = TraceItem;

    fn next(&mut self) -> Option<TraceItem> {
        let t0 = Instant::now();
        let item = self.inner.next();
        // Statistics only: nothing else is published through these.
        self.tally
            .ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if item.is_some() {
            self.tally.items.fetch_add(1, Ordering::Relaxed);
        }
        item
    }
}

#[derive(Debug)]
enum Ev {
    Issue { cpu: u16, op: CpuOp },
    AddrDrain,
    Deliver { dest: NodeId, msg: Msg },
}

/// The §4.3 methodology of `min_over_perturbations`: one traced run per
/// perturbation stream, keeping the minimum-runtime run's stats.
pub fn run_cell(
    cfg: &SystemConfig,
    spec: &WorkloadSpec,
    runs: u64,
    tally: &mut Tally,
) -> SystemStats {
    let mut best: Option<SystemStats> = None;
    for s in 0..runs {
        if s > 0 && cfg.perturbation_ns == 0 {
            break;
        }
        let mut c = cfg.clone();
        c.perturbation_stream = s;
        let stats = run_once(c, spec, tally);
        if best.as_ref().is_none_or(|b| stats.runtime < b.runtime) {
            best = Some(stats);
        }
    }
    best.expect("a cell runs at least once")
}

fn build_protocol(cfg: &SystemConfig, n: usize) -> Box<dyn Protocol + Send> {
    let dir = DirTiming {
        d_mem: cfg.timing.d_mem,
        d_cache: cfg.timing.d_cache,
    };
    match cfg.protocol {
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
        ProtocolKind::DirClassic => Box::new(DirClassic::new(n, cfg.cache, dir, cfg.verify)),
        ProtocolKind::DirOpt => Box::new(DirOpt::new(n, cfg.cache, dir, cfg.verify)),
        ProtocolKind::Tardis => Box::new(Tardis::new(
            n,
            cfg.cache,
            dir,
            cfg.verify,
            Gt::from_raw(cfg.gt_origin),
        )),
    }
}

/// The traced system: `System`'s fields, plus the tally its spans feed.
struct Mirror<'t> {
    cfg: SystemConfig,
    n: usize,
    proto_slot: usize,
    protocol: Box<dyn Protocol + Send>,
    addr: Option<Box<dyn AddressNet<AddrTxn>>>,
    token: bool,
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
    finished: usize,
    runtime: Time,
    t: &'t mut Tally,
}

fn run_once(cfg: SystemConfig, spec: &WorkloadSpec, tally: &mut Tally) -> SystemStats {
    assert!(
        !cfg.record_observations,
        "the mirror does not record observations"
    );
    let build0 = Instant::now();
    let fabric = Arc::new(cfg.topology.build());
    let n = fabric.num_nodes();
    let streams = Arc::new(StreamTally::default());
    let protocol = build_protocol(&cfg, n);
    let addr = protocol.uses_snooping().then(|| {
        build_address_net(
            cfg.net,
            &cfg.timing,
            Arc::clone(&fabric),
            Gt::from_raw(cfg.gt_origin),
            cfg.threads,
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
    let cpus = (0..n)
        .map(|c| {
            let stream = TimedStream {
                inner: spec.stream(c, n, cfg.seed),
                tally: Arc::clone(&streams),
            };
            Cpu::new(Box::new(stream), cfg.instructions_per_ns)
        })
        .collect();
    let jitter_rng =
        SimRng::from_seed_and_stream(cfg.seed, 0xFEED ^ (cfg.perturbation_stream << 16));
    let mut m = Mirror {
        n,
        proto_slot: proto_index(cfg.protocol),
        protocol,
        addr,
        token: cfg.net.is_detailed(),
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
        finished: 0,
        runtime: Time::ZERO,
        cfg,
        t: tally,
    };
    m.t.build_ns += build0.elapsed().as_nanos() as u64;

    let loop0 = Instant::now();
    let stats = m.run();
    m.t.loop_ns += loop0.elapsed().as_nanos() as u64;
    m.t.workload_ns += streams.ns.load(Ordering::Relaxed);
    m.t.workload_items += streams.items.load(Ordering::Relaxed);
    m.t.queue_events += stats.events_processed;
    if let Some(addr) = &m.addr {
        if m.token {
            m.t.token_waves_skipped += addr.waves_skipped();
        }
    }
    stats
}

impl Mirror<'_> {
    fn run(&mut self) -> SystemStats {
        for c in 0..self.n {
            let t = &mut *self.t;
            t.cpu_calls += 1;
            let next = span(&mut t.cpu_ns, || self.cpus[c].advance(Time::ZERO));
            match next {
                Some((at, op)) => self.schedule(at, Ev::Issue { cpu: c as u16, op }),
                None => self.finished += 1,
            }
        }

        let mut actions: Vec<ProtoAction> = Vec::new();
        let mut snoops: Vec<AddrDelivery<AddrTxn>> = Vec::new();
        loop {
            let popped = span(&mut self.t.queue_ns, || self.events.pop());
            let Some((now, ev)) = popped else { break };
            let slot = self.proto_slot;
            match ev {
                Ev::Issue { cpu, op } => {
                    self.touched.insert(op.block());
                    self.t.cpu_calls += 1;
                    span(&mut self.t.cpu_ns, || {
                        self.cpus[cpu as usize].issue(now, op)
                    });
                    self.t.proto_calls[slot] += 1;
                    span(&mut self.t.proto_ns[slot], || {
                        self.protocol.cpu_op(now, NodeId(cpu), op, &mut actions)
                    });
                }
                Ev::AddrDrain => {
                    if self.addr_poll_at == Some(now) {
                        self.addr_poll_at = None;
                    }
                    let addr = self.addr.as_mut().expect("drain without snooping");
                    let t = &mut *self.t;
                    let (ns, drains) = if self.token {
                        (&mut t.token_ns, &mut t.token_drains)
                    } else {
                        (&mut t.fast_ns, &mut t.fast_drains)
                    };
                    *drains += 1;
                    span(ns, || addr.drain_into(now, &mut snoops));
                    if self.token {
                        t.token_deliveries += snoops.len() as u64;
                        t.token_yielding_drains += u64::from(!snoops.is_empty());
                        t.token_wait_ns += snoops
                            .iter()
                            .map(|d| d.ordered_at.as_ns().saturating_sub(d.arrival.as_ns()))
                            .sum::<u64>();
                    }
                    for d in snoops.drain(..) {
                        t.proto_calls[slot] += 1;
                        span(&mut t.proto_ns[slot], || {
                            self.protocol.handle(
                                now,
                                ProtoEvent::Snooped {
                                    dest: d.dest,
                                    txn: *d.payload,
                                    arrival: d.arrival,
                                },
                                &mut actions,
                            )
                        });
                    }
                    let ns = if self.token {
                        &mut t.token_ns
                    } else {
                        &mut t.fast_ns
                    };
                    let next = span(ns, || self.addr.as_ref().and_then(|a| a.next_ready()));
                    if let Some(at) = next {
                        self.schedule_addr_poll(at);
                    }
                }
                Ev::Deliver { dest, msg } => {
                    self.t.proto_calls[slot] += 1;
                    span(&mut self.t.proto_ns[slot], || {
                        self.protocol
                            .handle(now, ProtoEvent::Delivered { dest, msg }, &mut actions)
                    });
                }
            }
            self.process_actions(now, &mut actions);
        }

        assert_eq!(
            self.finished, self.n,
            "mirrored system deadlocked: {} of {} CPUs finished",
            self.finished, self.n
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

        SystemStats {
            runtime: self.runtime.since(Time::ZERO),
            protocol: self.protocol.stats(),
            traffic: traffic_summary(&merged),
            data_touched_mb: self.touched.len() as f64 * self.cfg.cache.block_bytes as f64
                / (1024.0 * 1024.0),
            miss_latency: self.miss_latency,
            miss_latency_per_node: std::mem::take(&mut self.miss_latency_per_node),
            events_processed: self.events.events_processed(),
        }
    }

    fn schedule(&mut self, at: Time, ev: Ev) {
        span(&mut self.t.queue_ns, || self.events.schedule(at, ev));
    }

    fn schedule_addr_poll(&mut self, at: Time) {
        if self.addr_poll_at.is_none_or(|pending| at < pending) {
            self.schedule(at, Ev::AddrDrain);
            self.addr_poll_at = Some(at);
        }
    }

    fn process_actions(&mut self, now: Time, actions: &mut Vec<ProtoAction>) {
        for a in actions.drain(..) {
            match a {
                ProtoAction::Broadcast { src, txn } => {
                    let addr = self.addr.as_mut().expect("broadcast without snooping");
                    let t = &mut *self.t;
                    let (ns, count) = if self.token {
                        (&mut t.token_ns, &mut t.token_broadcasts)
                    } else {
                        (&mut t.fast_ns, &mut t.fast_broadcasts)
                    };
                    *count += 1;
                    let ready = span(ns, || addr.inject(now, src, txn));
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
                    let (net, lane) = match vnet {
                        Vnet::Data => (&mut self.data_net, 0),
                        Vnet::Request => (&mut self.request_net, 1),
                        Vnet::Forward => (&mut self.forward_net, 2),
                    };
                    self.t.unicast_sends[lane] += 1;
                    let at = span(&mut self.t.unicast_ns, || {
                        net.send(now + delay, src, dst, msg.class(), jitter)
                    });
                    self.schedule(at, Ev::Deliver { dest: dst, msg });
                }
                ProtoAction::Complete { node, value: _ } => {
                    let i = node.index();
                    self.t.cpu_calls += 1;
                    let (_, latency) = span(&mut self.t.cpu_ns, || self.cpus[i].complete(now));
                    if latency > Duration::ZERO {
                        self.miss_latency.record(latency);
                        self.miss_latency_per_node[i].record(latency);
                    }
                    self.t.cpu_calls += 1;
                    let next = span(&mut self.t.cpu_ns, || self.cpus[i].advance(now));
                    match next {
                        Some((at, op)) => self.schedule(at, Ev::Issue { cpu: node.0, op }),
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

/// `TrafficSummary::from_ledger`, which is private to the core crate.
fn traffic_summary(l: &TrafficLedger) -> TrafficSummary {
    TrafficSummary {
        data_bytes: l.class_total(MsgClass::Data),
        request_bytes: l.class_total(MsgClass::Request),
        nack_bytes: l.class_total(MsgClass::Nack),
        misc_bytes: l.class_total(MsgClass::Misc),
        per_link_mean: l.per_link_mean(),
        per_link_max: l.per_link_max(),
    }
}

/// Serialized stats, the form the guard and the output checks compare.
pub fn stats_json(stats: &SystemStats) -> String {
    serde_json::to_string(&serde_json::to_value(stats)).expect("value rendering is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tss::{methodology, NetworkModelSpec, TopologyKind};
    use tss_workloads::paper;

    /// The guard's premise on a tiny cell of every protocol × net model:
    /// the mirrored loop reproduces `System::run` byte for byte.
    #[test]
    fn mirror_matches_system_run_on_every_protocol_and_net() {
        let spec = paper::barnes(0.001);
        for protocol in ProtocolKind::WITH_TARDIS {
            for net in [NetworkModelSpec::Fast, NetworkModelSpec::detailed(5)] {
                let mut cfg = SystemConfig::test_default(protocol, TopologyKind::Torus4x4);
                cfg.net = net;
                cfg.perturbation_ns = 4;
                let expected = methodology::min_over_perturbations(&cfg, &spec, 2);
                let mut tally = Tally::default();
                let got = run_cell(&cfg, &spec, 2, &mut tally);
                assert_eq!(
                    stats_json(&got),
                    stats_json(&expected),
                    "{protocol} {net:?}"
                );
                assert_eq!(
                    tally.workload_items,
                    2 * 16 * spec.ops_per_cpu,
                    "{protocol}"
                );
                assert!(
                    tally.queue_events >= expected.events_processed,
                    "{protocol}"
                );
                assert!(tally.proto_calls[proto_index(protocol)] > 0, "{protocol}");
                let snoops = protocol == ProtocolKind::TsSnoop;
                assert_eq!(
                    tally.token_broadcasts > 0,
                    snoops && net.is_detailed(),
                    "{protocol} {net:?}"
                );
                assert_eq!(
                    tally.fast_broadcasts > 0,
                    snoops && !net.is_detailed(),
                    "{protocol} {net:?}"
                );
            }
        }
    }
}
