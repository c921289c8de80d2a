//! The two grid workloads: `fast_grid` (Figure 3 on the closed-form
//! address net, all four protocols) and `detailed_grid` (the TS-Snoop
//! cells of `results/grid.json` on the detailed token net).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tss::experiment::GridPlan;
use tss::{ExperimentGrid, GridReport, NetworkModelSpec, ProtocolKind, SystemStats, TopologyKind};
use tss_workloads::paper;

use crate::metrics::{self, median, percentile, setting_up, Metrics, Ops};
use crate::mirror::{self, proto_index, stats_json, Tally};

/// Grid workers, server workers and clients: the host's cores, at most
/// two, so every workload loads the host the same way.
pub fn workers() -> usize {
    metrics::nproc().min(2)
}

/// The paper's default methodology, as `fig3` and `grid` run it.
const SCALE: f64 = 1.0 / 64.0;
const PERTURBATION_NS: u64 = 4;
const PERTURBATION_RUNS: u64 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridKind {
    Fast,
    Detailed,
}

impl GridKind {
    fn grid(self, seed: u64) -> ExperimentGrid {
        let base = |name: &str| {
            ExperimentGrid::new(name)
                .topologies(TopologyKind::PAPER)
                .workloads(paper::all(SCALE))
                .seeds([seed])
                .perturbation(PERTURBATION_NS, PERTURBATION_RUNS)
                .threads(workers())
        };
        match self {
            GridKind::Fast => base("fig3").protocols(ProtocolKind::WITH_TARDIS),
            GridKind::Detailed => base("grid")
                .protocols([ProtocolKind::TsSnoop])
                .nets([NetworkModelSpec::detailed(5)]),
        }
    }
}

/// Committed stats by cell key: every cell of `results/fig3.json` and
/// `results/grid.json`, serialized as the output checks compare them.
/// Loaded once, outside any timed span: only the checks need them.
fn load_references() -> HashMap<String, String> {
    [
        include_str!("../../results/fig3.json"),
        include_str!("../../results/grid.json"),
    ]
    .into_iter()
    .flat_map(|text| {
        let report = GridReport::from_json(text).expect("committed results parse");
        report.cells.into_iter().map(|cell| {
            let key = cell.cell_key.expect("committed cells carry keys").to_hex();
            (key, stats_json(&cell.stats))
        })
    })
    .collect()
}

/// Everything a grid run needs before its timed phase.
struct Setup {
    kind: GridKind,
    seed: u64,
    plan: GridPlan,
    refs: HashMap<String, String>,
}

/// The set-up `fig3` and `grid` do before executing: build the grid and
/// plan it, repeated while [`setting_up`]. Returns the set-up and the
/// time (s) of each planning.
fn set_up(kind: GridKind, seed: u64) -> Result<(Setup, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut plan = None;
    let start = Instant::now();
    while setting_up(start, times.len()) {
        let t0 = Instant::now();
        let planned = kind
            .grid(seed)
            .plan()
            .map_err(|e| format!("grid does not plan: {e}"))?;
        times.push(t0.elapsed().as_secs_f64());
        plan = Some(planned);
    }
    let setup = Setup {
        kind,
        seed,
        plan: plan.expect("set-up ran"),
        refs: load_references(),
    };
    Ok((setup, times))
}

/// Whether a cell must find its committed stats in `results/`: at seed 0,
/// every cell of `detailed_grid` and every three-protocol cell of
/// `fast_grid` (the committed Figure 3 has no Tardis cells).
fn reference_required(setup: &Setup, protocol: ProtocolKind) -> bool {
    setup.seed == 0 && (setup.kind == GridKind::Detailed || protocol != ProtocolKind::Tardis)
}

/// The output checks of one cell: it retired exactly `ops_per_cpu ×
/// nodes` operations, and matches the committed stats when its key is in
/// `results/`, which it must be where [`reference_required`]. Returns the
/// operations it simulated (× perturbation runs).
fn check_cell(setup: &Setup, index: usize, stats: &SystemStats, ops: &mut Ops) -> u64 {
    let cell = &setup.plan.cells[index];
    let key = cell.key.to_hex();
    let nodes = cell.cfg.topology.build().num_nodes() as u64;
    let retired = stats.protocol.hits + stats.protocol.misses;
    let expected = cell.spec.ops_per_cpu * nodes;
    ops.check(retired == expected, || {
        format!("cell {key} retired {retired} ops, expected {expected}")
    });
    match setup.refs.get(&key) {
        Some(reference) => ops.check(*reference == stats_json(stats), || {
            format!("cell {key} differs from its committed stats in results/")
        }),
        None if reference_required(setup, cell.cfg.protocol) => ops.check(false, || {
            format!("cell {key} has no committed stats in results/")
        }),
        None => {}
    }
    let runs = if cell.cfg.perturbation_ns > 0 {
        cell.runs
    } else {
        1
    };
    retired * runs
}

/// The untraced run: whole `GridPlan::execute` passes until `seconds`
/// have passed. A pass is one request, as a `fig3`/`grid` invocation or
/// a sweep-server grid is. Every pass does the same work, so rates come
/// from the median pass: the mean of two when a slow host fits only two
/// `detailed_grid` passes in a run, the pass itself when it fits one.
pub fn run(kind: GridKind, seed: u64, seconds: f64) -> Result<(Metrics, Ops), String> {
    let (setup, setup_times) = set_up(kind, seed)?;
    let mut ops = Ops::default();
    let mut pass_ms = Vec::new();
    let mut pass_ops = None;
    let start = Instant::now();
    while pass_ms.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let cells = setup.plan.execute(None, workers());
        pass_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let mut simulated = 0;
        for (i, cell) in cells.iter().enumerate() {
            ops.attempted += 1; // the simulated cell itself
            simulated += check_cell(&setup, i, &cell.stats, &mut ops);
        }
        let first = *pass_ops.get_or_insert(simulated);
        ops.check(simulated == first, || {
            format!("a pass simulated {simulated} operations, the first {first}")
        });
    }
    let name = match kind {
        GridKind::Fast => "fast_grid",
        GridKind::Detailed => "detailed_grid",
    };
    eprintln!("{name}: {} passes, ms: {pass_ms:.0?}", pass_ms.len());
    let pass_s = median(&pass_ms) / 1e3;

    let mut m = Metrics::default();
    m.set("setup_s", median(&setup_times));
    m.set(
        "sim_ops_per_s",
        pass_ops.unwrap_or_default() as f64 / pass_s,
    );
    m.set("peak_rss_mb", metrics::peak_rss_mb());
    m.set("request_p50_ms", median(&pass_ms));
    m.set(
        "request_p99_ms",
        percentile(&mut pass_ms.clone(), 99.0).unwrap_or(0.0),
    );
    m.set("requests_per_s", 1.0 / pass_s);
    m.set("success_rate", ops.success_rate());
    Ok((m, ops))
}

/// The traced run: one untraced `GridPlan::execute` pass, then the same
/// cells through the mirrored loop on the same number of workers. Every
/// mirrored cell must serialize exactly as `System::run`'s did.
pub fn run_traced(kind: GridKind, seed: u64) -> Result<(Metrics, Ops), String> {
    let (setup, plan_times) = set_up(kind, seed)?;
    let mut ops = Ops::default();

    let t0 = Instant::now();
    let reports = setup.plan.execute(None, workers());
    let untraced_s = t0.elapsed().as_secs_f64();

    let cells = &setup.plan.cells;
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<(SystemStats, f64)>>> = Mutex::new(vec![None; cells.len()]);
    let tally = Mutex::new(Tally::default());
    let t1 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers() {
            scope.spawn(|| {
                let mut local = Tally::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = cells.get(i) else { break };
                    let c0 = Instant::now();
                    let stats = mirror::run_cell(&cell.cfg, &cell.spec, cell.runs, &mut local);
                    let ms = c0.elapsed().as_secs_f64() * 1e3;
                    results.lock().expect("no worker panicked")[i] = Some((stats, ms));
                }
                tally.lock().expect("no worker panicked").absorb(&local);
            });
        }
    });
    let traced_s = t1.elapsed().as_secs_f64();
    let results: Vec<(SystemStats, f64)> = results
        .into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|r| r.expect("every cell ran"))
        .collect();
    let tally = tally.into_inner().expect("workers joined");

    // The guard: per-layer numbers must describe the program itself.
    for (i, ((stats, _), report)) in results.iter().zip(&reports).enumerate() {
        if stats_json(stats) != stats_json(&report.stats) {
            return Err(format!(
                "traced loop diverged from System::run on cell {} ({} {} {}): \
                 per-layer numbers would describe a different program",
                cells[i].key, report.workload, report.protocol, report.topology
            ));
        }
        ops.attempted += 1;
        check_cell(&setup, i, stats, &mut ops);
    }

    let r0 = Instant::now();
    std::hint::black_box(setup.plan.report(reports).to_json());
    let report_ms = r0.elapsed().as_secs_f64() * 1e3;

    let mut m = layer_metrics(
        &tally,
        results.iter().map(|(s, _)| s),
        cells.iter().map(|c| c.cfg.protocol),
    );
    let mut cell_ms: Vec<f64> = results.iter().map(|(_, ms)| *ms).collect();
    m.set("experiment.plan_ms", median(&plan_times) * 1e3);
    m.set("experiment.cell_ms_p50", median(&cell_ms));
    m.set(
        "experiment.cell_ms_max",
        percentile(&mut cell_ms, 100.0).unwrap_or(0.0),
    );
    m.set(
        "experiment.worker_busy_frac",
        cell_ms.iter().sum::<f64>() / 1e3 / (workers() as f64 * traced_s),
    );
    m.set("experiment.report_ms", report_ms);
    m.set(
        "host.tracing_overhead_frac",
        (traced_s - untraced_s) / untraced_s,
    );
    Ok((m, ops))
}

/// The simulator layers' metrics from a tally and the cells' stats.
fn layer_metrics<'a>(
    t: &Tally,
    stats: impl Iterator<Item = &'a SystemStats>,
    protocols: impl Iterator<Item = ProtocolKind>,
) -> Metrics {
    let ms = |ns: u64| ns as f64 / 1e6;
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    let mut m = Metrics::default();
    m.set("sim.queue.events", t.queue_events as f64);
    m.set("sim.queue.self_ms", ms(t.queue_ns));
    m.set("sim.queue.ns_per_event", per(t.queue_ns, t.queue_events));
    m.set("workloads.items", t.workload_items as f64);
    m.set("workloads.self_ms", ms(t.workload_ns));
    m.set("core.cpu.calls", t.cpu_calls as f64);
    m.set("core.cpu.self_ms", ms(t.cpu_self_ns()));
    m.set("core.system.build_ms", ms(t.build_ns));
    m.set("core.system.self_ms", ms(t.system_self_ns()));
    for (kind, calls, self_ms, ns_per_call) in [
        (
            ProtocolKind::TsSnoop,
            "proto.ts_snoop.calls",
            "proto.ts_snoop.self_ms",
            "proto.ts_snoop.ns_per_call",
        ),
        (
            ProtocolKind::DirClassic,
            "proto.dir_classic.calls",
            "proto.dir_classic.self_ms",
            "proto.dir_classic.ns_per_call",
        ),
        (
            ProtocolKind::DirOpt,
            "proto.dir_opt.calls",
            "proto.dir_opt.self_ms",
            "proto.dir_opt.ns_per_call",
        ),
        (
            ProtocolKind::Tardis,
            "proto.tardis.calls",
            "proto.tardis.self_ms",
            "proto.tardis.ns_per_call",
        ),
    ] {
        let i = proto_index(kind);
        m.set(calls, t.proto_calls[i] as f64);
        m.set(self_ms, ms(t.proto_ns[i]));
        m.set(ns_per_call, per(t.proto_ns[i], t.proto_calls[i]));
    }
    m.set("net.fast.broadcasts", t.fast_broadcasts as f64);
    m.set("net.fast.drains", t.fast_drains as f64);
    m.set("net.fast.self_ms", ms(t.fast_ns));
    m.set("net.token.broadcasts", t.token_broadcasts as f64);
    m.set("net.token.drains", t.token_drains as f64);
    m.set(
        "net.token.poll_yield",
        per(t.token_yielding_drains, t.token_drains),
    );
    m.set("net.token.deliveries", t.token_deliveries as f64);
    m.set("net.token.self_ms", ms(t.token_ns));
    m.set(
        "net.token.ns_per_delivery",
        per(t.token_ns, t.token_deliveries),
    );
    m.set("net.token.waves_skipped", t.token_waves_skipped as f64);
    m.set(
        "net.token.ordering_wait_mean_ns",
        per(t.token_wait_ns, t.token_deliveries),
    );
    m.set("net.unicast.sends.data", t.unicast_sends[0] as f64);
    m.set("net.unicast.sends.request", t.unicast_sends[1] as f64);
    m.set("net.unicast.sends.forward", t.unicast_sends[2] as f64);
    m.set("net.unicast.self_ms", ms(t.unicast_ns));

    // Modelled quantities of the reported (minimum-runtime) runs.
    let (mut misses, mut c2c, mut nacks, mut bytes, mut link_max) = (0, 0, 0, 0, 0);
    let (mut renewals, mut granted) = (0, 0);
    for (s, kind) in stats.zip(protocols) {
        misses += s.protocol.misses;
        c2c += s.protocol.cache_to_cache;
        nacks += s.protocol.nacks;
        bytes += s.traffic.total();
        link_max = link_max.max(s.traffic.per_link_max);
        if kind == ProtocolKind::Tardis {
            renewals += s.protocol.lease_renewals;
            granted += s.protocol.leases_granted;
        }
    }
    m.set("proto.misses", misses as f64);
    m.set("proto.c2c_fraction", per(c2c, misses));
    m.set("proto.nack_ratio", per(nacks, misses));
    m.set("proto.tardis.renewal_ratio", per(renewals, granted));
    m.set("net.traffic.total_bytes", bytes as f64);
    m.set("net.traffic.per_link_max", link_max as f64);
    m
}
