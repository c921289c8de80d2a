//! The `sweep_service` workload: an in-process `SweepServer` on loopback
//! with a fresh cell store, driven by two closed-loop clients.
//!
//! Each client repeats the flow of the repository's sweep-server smoke
//! job (`server-smoke` in `.github/workflows/ci.yml`), one request each:
//!
//! - a grid no one asked for before (cold): the cells simulate and the
//!   store is written;
//! - the same grid again (warm): the store is read;
//! - `GET /v1/cells/{key}` with `If-None-Match` for one of its cells: the
//!   304 path.
//!
//! In every [`JOINT_EVERY`]-th flow both clients submit the same unseen
//! grid at once, as `tests/tests/server.rs` does: single-flight dedupe
//! joins them. No caller in the repository fixes that share; one flow in
//! four is an assumption.

use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use tss::experiment::CELL_REV;
use tss::{GridReport, NetworkModelSpec, ProtocolKind, TopologyKind};
use tss_server::client::{self, GridRequest};
use tss_server::http::{self, ChunkedReader};
use tss_server::{ServerConfig, SweepServer};
use tss_sim::rng::SimRng;

use crate::grids::workers;
use crate::metrics::{self, beyond, median, percentile, setting_up, Metrics, Ops};

/// The seed lane of joint grids (clients use lanes below it).
const JOINT_LANE: usize = 15;
/// Every this-many flows per client is a joint one.
const JOINT_EVERY: usize = 4;
/// Requests per flow: the grid, its warm repeat, one revalidation.
const FLOW: usize = 3;
/// Enough requests that ten lie beyond the reported p99.
const MIN_REQUESTS: usize = 1000;
/// A run ends here even short of [`MIN_REQUESTS`].
const HARD_CAP_S: f64 = 100.0;
/// Servers started side by side while sampling set-up. An idle server's
/// shutdown waits out one accept poll, so a batch drains together.
const SETUP_BATCH: usize = 8;
/// Flows planned per client: 1200 requests, more than a run sends (a run
/// stops before it would run out). Planned untimed, before set-up.
const PLANNED_FLOWS: usize = 400;
/// Scratch space for the cell stores, inside the working directory.
const WORK_DIR: &str = ".perfbench_work";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Cold,
    Warm,
    Revalidate,
    Joint,
}

/// A grid seed no other request of this run uses: `lane` is the client,
/// or [`JOINT_LANE`] for joint grids.
fn unseen_seed(seed: u64, lane: usize, k: usize) -> u64 {
    (seed << 24) ^ ((lane as u64) << 20) ^ k as u64
}

/// The grid the smoke job and the server tests submit (`grid --workloads
/// barnes --scale 0.002 --seeds 1 --topologies torus`: three protocols,
/// one perturbation run, three cells), with another workload seed. Its
/// small cells also let a run hold the thousand requests its p99 needs.
fn request(seed: u64) -> GridRequest {
    GridRequest {
        name: "grid".into(),
        scale: 0.002,
        protocols: ProtocolKind::ALL.to_vec(),
        topologies: vec![TopologyKind::Torus4x4],
        nets: vec![NetworkModelSpec::Fast],
        workloads: vec!["barnes".into()],
        seeds: vec![seed],
        perturbation_ns: 4,
        perturbation_runs: 1,
    }
}

/// Client-side phases of one grid request (traced runs).
#[derive(Debug, Clone, Copy)]
struct Phases {
    submit_ms: f64,
    first_event_ms: f64,
    stream_ms: f64,
}

/// `client::run_remote` split at its phase boundaries: the submit
/// exchange, the first progress event, and the final report.
fn run_remote_phased(url: &str, request: &GridRequest) -> Result<(GridReport, Phases), String> {
    let authority = url.trim_start_matches("http://");
    let io = |e: std::io::Error| e.to_string();
    let t0 = Instant::now();
    let body = serde_json::to_string(request).map_err(|e| e.to_string())?;
    let mut stream = TcpStream::connect(authority).map_err(io)?;
    write!(
        stream,
        "POST /v1/grids HTTP/1.1\r\nHost: {authority}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(io)?;
    let mut reader = BufReader::new(stream);
    let head = http::read_response_head(&mut reader).map_err(|e| e.to_string())?;
    let reply = http::read_body(&mut reader, &head).map_err(|e| e.to_string())?;
    if head.status != 201 {
        return Err(format!("submit answered {}", head.status));
    }
    let reply: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&reply)).map_err(|e| e.to_string())?;
    let Some(serde_json::Value::U64(id)) = reply.get("id") else {
        return Err("submit reply carries no id".into());
    };
    let submit_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let mut stream = TcpStream::connect(authority).map_err(io)?;
    write!(
        stream,
        "GET /v1/grids/{id} HTTP/1.1\r\nHost: {authority}\r\nConnection: close\r\n\r\n"
    )
    .map_err(io)?;
    let mut reader = BufReader::new(stream);
    let head = http::read_response_head(&mut reader).map_err(|e| e.to_string())?;
    if head.status != 200 || !head.is_chunked() {
        return Err(format!("stream answered {}", head.status));
    }
    let mut lines = BufReader::new(ChunkedReader::new(&mut reader));
    let mut first_event_ms = None;
    let mut line = String::new();
    loop {
        line.clear();
        if lines.read_line(&mut line).map_err(io)? == 0 {
            return Err("stream ended before the final report".into());
        }
        if line.trim().is_empty() {
            continue;
        }
        let event: serde_json::Value = serde_json::from_str(&line).map_err(|e| e.to_string())?;
        match event.get("event") {
            Some(serde_json::Value::Str(kind)) if kind == "cell" => {
                first_event_ms.get_or_insert(t1.elapsed().as_secs_f64() * 1e3);
            }
            Some(serde_json::Value::Str(kind)) if kind == "report" => {
                let report = event.get("report").ok_or("report event without a report")?;
                let report: GridReport =
                    serde_json::from_value(report).map_err(|e| e.to_string())?;
                let stream_ms = t1.elapsed().as_secs_f64() * 1e3;
                let phases = Phases {
                    submit_ms,
                    first_event_ms: first_event_ms.unwrap_or(stream_ms),
                    stream_ms,
                };
                return Ok((report, phases));
            }
            Some(serde_json::Value::Str(kind)) if kind == "aborted" => {
                return Err("server aborted the grid".into());
            }
            _ => {}
        }
    }
}

/// One request of a client's planned sequence.
#[derive(Debug, Clone)]
pub enum Planned {
    /// A grid no earlier request asked for: cold, or the joint grid both
    /// clients submit at once. `keys` are its cells' planned keys.
    Fresh {
        op: Op,
        request: GridRequest,
        keys: Vec<String>,
    },
    /// A repeat of the flow's grid.
    Warm,
    /// Revalidation of one cell of the flow's grid.
    Revalidate(String),
}

impl Planned {
    fn op(&self) -> Op {
        match self {
            Planned::Fresh { op, .. } => *op,
            Planned::Warm => Op::Warm,
            Planned::Revalidate(_) => Op::Revalidate,
        }
    }
}

/// Compiles a client's first `flows` flows: grids, their planned cell
/// keys, and which cell each revalidation asks for. The seed draws the
/// grid seeds and the revalidated cells; the timed phase only sends.
pub fn plan_client(seed: u64, client: usize, flows: usize) -> Result<Vec<Planned>, String> {
    let mut rng = SimRng::from_seed_and_stream(seed, 0x5EED_C11E ^ client as u64);
    let mut planned = Vec::with_capacity(flows * FLOW);
    for f in 0..flows {
        let (op, lane, k) = if f % JOINT_EVERY == JOINT_EVERY - 1 {
            (Op::Joint, JOINT_LANE, f / JOINT_EVERY)
        } else {
            (Op::Cold, client, f)
        };
        let request = request(unseen_seed(seed, lane, k));
        let plan = request.to_grid()?.plan().map_err(|e| e.to_string())?;
        let keys: Vec<String> = plan.cells.iter().map(|c| c.key.to_hex()).collect();
        let revalidate = keys[rng.index(keys.len())].clone();
        planned.push(Planned::Fresh { op, request, keys });
        planned.push(Planned::Warm);
        planned.push(Planned::Revalidate(revalidate));
    }
    Ok(planned)
}

/// A fresh grid as the client received it.
struct Received {
    op: Op,
    request: GridRequest,
    json: String,
    report: GridReport,
}

#[derive(Default)]
struct ClientLog {
    /// Every request: its kind and latency.
    samples: Vec<(Op, f64)>,
    phases: Vec<Phases>,
    /// Served fresh grids, in request order.
    fresh: Vec<Received>,
    /// The current flow's grid with its served bytes (`None` if it
    /// failed), which its warm repeat must reproduce.
    flow: Option<(GridRequest, Option<String>)>,
    ops: Ops,
}

struct Session {
    url: String,
    traced: bool,
    seconds: f64,
    min_requests: usize,
    start: Instant,
    barrier: Barrier,
    stop: AtomicBool,
    requests: AtomicUsize,
}

impl Session {
    fn fetch(&self, request: &GridRequest, log: &mut ClientLog) -> Result<GridReport, String> {
        if self.traced {
            let (report, phases) = run_remote_phased(&self.url, request)?;
            log.phases.push(phases);
            Ok(report)
        } else {
            client::run_remote(&self.url, request, |_| {}).map_err(|e| e.to_string())
        }
    }

    /// Both clients meet here before each joint grid, at the same
    /// position `i` of their plans; the leader decides whether the run is
    /// over, and both see the same decision.
    fn keep_going(&self, i: usize, planned: usize) -> bool {
        if self.barrier.wait().is_leader() {
            let elapsed = self.start.elapsed().as_secs_f64();
            let done = self.requests.load(Ordering::SeqCst);
            let stop = (elapsed >= self.seconds && done >= self.min_requests)
                || elapsed >= HARD_CAP_S
                || i + JOINT_EVERY * FLOW >= planned;
            self.stop.store(stop, Ordering::SeqCst);
        }
        self.barrier.wait();
        !self.stop.load(Ordering::SeqCst)
    }

    fn client(&self, plan: &[Planned]) -> ClientLog {
        let mut log = ClientLog::default();
        for (i, planned) in plan.iter().enumerate() {
            let op = planned.op();
            if op == Op::Joint && !self.keep_going(i, plan.len()) {
                break;
            }
            let t0 = Instant::now();
            match planned {
                Planned::Fresh { op, request, keys } => {
                    let outcome = self.fetch(request, &mut log);
                    let served_keys: Option<Vec<String>> = outcome.as_ref().ok().map(|r| {
                        r.cells
                            .iter()
                            .map(|c| c.cell_key.map(|k| k.to_hex()).unwrap_or_default())
                            .collect()
                    });
                    log.ops.check(served_keys.as_ref() == Some(keys), || {
                        format!("{op:?} grid failed or served other cells: {outcome:?}")
                    });
                    let received = outcome.ok().map(|report| Received {
                        op: *op,
                        request: request.clone(),
                        json: report.to_json(),
                        report,
                    });
                    let json = received.as_ref().map(|r| r.json.clone());
                    log.flow = Some((request.clone(), json));
                    log.fresh.extend(received);
                }
                Planned::Warm => {
                    let (request, expected) = log.flow.clone().expect("a flow opens with its grid");
                    let outcome = match &expected {
                        Some(_) => self.fetch(&request, &mut log),
                        None => Err("its grid failed".into()),
                    };
                    let same = outcome
                        .as_ref()
                        .is_ok_and(|r| Some(r.to_json()) == expected);
                    log.ops.check(same, || {
                        format!(
                            "warm replay differs from its first response: {:?}",
                            outcome.err()
                        )
                    });
                }
                Planned::Revalidate(key) => {
                    let etag = format!("\"{CELL_REV}-{key}\"");
                    let outcome = client::get(
                        &self.url,
                        &format!("/v1/cells/{key}"),
                        &[("If-None-Match", &etag)],
                    );
                    let status = outcome.as_ref().map(|(head, _)| head.status).ok();
                    log.ops.check(status == Some(304), || {
                        format!("revalidating cell {key} answered {status:?}, expected 304")
                    });
                }
            }
            log.samples.push((op, t0.elapsed().as_secs_f64() * 1e3));
            self.requests.fetch_add(1, Ordering::SeqCst);
        }
        log
    }
}

/// The server's `/v1/stats` cell counters.
#[derive(Debug, Default, Clone, Copy)]
struct ServerCounters {
    requested: u64,
    executed: u64,
    deduped: u64,
    cache_hits: u64,
}

fn server_counters(url: &str) -> Result<ServerCounters, String> {
    let (head, body) = client::get(url, "/v1/stats", &[]).map_err(|e| e.to_string())?;
    if head.status != 200 {
        return Err(format!("/v1/stats answered {}", head.status));
    }
    let doc: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&body)).map_err(|e| e.to_string())?;
    let cells = doc.get("cells").ok_or("/v1/stats has no cells")?;
    let field = |name: &str| match cells.get(name) {
        Some(serde_json::Value::U64(n)) => Ok(*n),
        _ => Err(format!("/v1/stats cells.{name} missing")),
    };
    Ok(ServerCounters {
        requested: field("requested")?,
        executed: field("executed")?,
        deduped: field("deduped")?,
        cache_hits: field("cache_hits")?,
    })
}

fn fresh_store(name: &str) -> Result<PathBuf, String> {
    let dir = Path::new(WORK_DIR).join(format!("{name}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    Ok(dir)
}

fn start_server(store_dir: &Path) -> Result<SweepServer, String> {
    SweepServer::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: store_dir.to_path_buf(),
        workers: workers(),
    })
    .map_err(|e| format!("sweep server does not start: {e}"))
}

fn remove_store(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    // Leaves the work directory behind only when another run still uses it.
    let _ = std::fs::remove_dir(WORK_DIR);
}

/// What one session measured.
struct Outcome {
    setup_s: f64,
    wall_s: f64,
    /// Peak resident set at the end of the timed phase, before the
    /// benchmark's own checks allocate.
    peak_rss_mb: f64,
    logs: Vec<ClientLog>,
    counters: ServerCounters,
    ops: Ops,
}

/// Plans both clients' requests, starts a fresh server on a fresh store
/// (set-up, timed and repeated), runs both clients until the stop rule
/// holds, and reads the server's counters.
fn session(seed: u64, seconds: f64, min_requests: usize, traced: bool) -> Result<Outcome, String> {
    // Every set-up keeps its server until the last one has started, so
    // the idle servers drain together instead of one poll period each.
    let plans = (0..workers())
        .map(|c| plan_client(seed, c, PLANNED_FLOWS))
        .collect::<Result<Vec<_>, _>>()?;
    let mut setup_times = Vec::new();
    let start = Instant::now();
    while setting_up(start, setup_times.len()) {
        let mut batch = Vec::new();
        for _ in 0..SETUP_BATCH {
            let dir = fresh_store(&format!("store{}", setup_times.len()))?;
            let t0 = Instant::now();
            batch.push((start_server(&dir)?, dir));
            setup_times.push(t0.elapsed().as_secs_f64());
        }
        for (idle, _) in &batch {
            idle.begin_shutdown();
        }
        for (idle, dir) in batch {
            idle.join();
            remove_store(&dir);
        }
    }
    let dir = fresh_store("store")?;
    let server = start_server(&dir)?;
    let session = Session {
        url: server.url(),
        traced,
        seconds,
        min_requests,
        start: Instant::now(),
        barrier: Barrier::new(workers()),
        stop: AtomicBool::new(false),
        requests: AtomicUsize::new(0),
    };
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| {
                let session = &session;
                scope.spawn(move || session.client(plan))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = session.start.elapsed().as_secs_f64();
    let peak_rss_mb = metrics::peak_rss_mb();
    let counters = server_counters(&session.url);
    server.shutdown();
    remove_store(&dir);
    let mut ops = Ops::default();
    ops.check(counters.is_ok(), || {
        format!("{:?}", counters.as_ref().err())
    });
    Ok(Outcome {
        setup_s: median(&setup_times),
        wall_s,
        peak_rss_mb,
        logs,
        counters: counters.unwrap_or_default(),
        ops,
    })
}

/// A local run of a served grid request.
struct Local {
    json: String,
    /// `ops_per_cpu × nodes` per cell.
    expected_ops: Vec<u64>,
    plan_ms: f64,
    report_ms: f64,
}

fn run_local(request: &GridRequest) -> Result<Local, String> {
    let grid = request.to_grid()?;
    let p0 = Instant::now();
    let plan = grid.plan().map_err(|e| e.to_string())?;
    let plan_ms = p0.elapsed().as_secs_f64() * 1e3;
    let reports = plan.execute(None, 1);
    let r0 = Instant::now();
    let json = plan.report(reports).to_json();
    let report_ms = r0.elapsed().as_secs_f64() * 1e3;
    let expected_ops = plan
        .cells
        .iter()
        .map(|c| c.spec.ops_per_cpu * c.cfg.topology.build().num_nodes() as u64)
        .collect();
    Ok(Local {
        json,
        expected_ops,
        plan_ms,
        report_ms,
    })
}

/// The output checks, after the timed phase: every cold and joint grid
/// equals a local `ExperimentGrid` run of the same request, both
/// clients' joint grids agree, every cell retired `ops_per_cpu × nodes`
/// operations, and the server simulated each distinct cell exactly once.
/// Returns the operations simulated, plus the median plan and report
/// times of the local runs.
fn verify(out: &mut Outcome) -> (u64, f64, f64) {
    let mut ops = out.ops;
    let joints = |log: &ClientLog| -> Vec<String> {
        log.fresh
            .iter()
            .filter(|r| r.op == Op::Joint)
            .map(|r| r.json.clone())
            .collect()
    };
    let first = joints(&out.logs[0]);
    for log in &out.logs[1..] {
        for (k, (a, b)) in first.iter().zip(joints(log)).enumerate() {
            ops.check(*a == b, || {
                format!("clients received different joint grid {k}")
            });
        }
    }
    // Each distinct grid once: every cold grid, and client 0's joints.
    // The local runs share the workers a grid at a time.
    let distinct: Vec<&Received> = out
        .logs
        .iter()
        .enumerate()
        .flat_map(|(c, l)| l.fresh.iter().filter(move |r| c == 0 || r.op == Op::Cold))
        .collect();
    let next = AtomicUsize::new(0);
    let locals: Mutex<Vec<Option<Result<Local, String>>>> =
        Mutex::new((0..distinct.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers() {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(received) = distinct.get(i) else {
                    break;
                };
                let local = run_local(&received.request);
                locals.lock().expect("no local run panicked")[i] = Some(local);
            });
        }
    });
    let locals = locals.into_inner().expect("local runs joined");
    let (mut simulated_ops, mut cells) = (0u64, 0u64);
    let (mut plan_ms, mut report_ms) = (Vec::new(), Vec::new());
    for (received, local) in distinct.iter().zip(locals) {
        ops.attempted += received.report.cells.len() as u64; // simulated cells
        let Some(Ok(local)) = local else {
            ops.check(false, || {
                format!("local run of {:?} failed", received.request)
            });
            continue;
        };
        plan_ms.push(local.plan_ms);
        report_ms.push(local.report_ms);
        let (json, expected_ops) = (local.json, local.expected_ops);
        ops.check(json == received.json, || {
            format!(
                "served grid for seed {:?} differs from a local run",
                received.request.seeds
            )
        });
        for (cell, expected) in received.report.cells.iter().zip(expected_ops) {
            let retired = cell.stats.protocol.hits + cell.stats.protocol.misses;
            ops.check(retired == expected, || {
                format!(
                    "cell {:?} retired {retired} ops, expected {expected}",
                    cell.cell_key
                )
            });
            simulated_ops += retired * cell.perturbation_runs;
            cells += 1;
        }
    }
    let executed = out.counters.executed;
    ops.check(executed == cells, || {
        format!("server executed {executed} cells for {cells} distinct ones")
    });
    for log in &out.logs {
        ops.attempted += log.ops.attempted;
        ops.failed += log.ops.failed;
    }
    out.ops = ops;
    (simulated_ops, median(&plan_ms), median(&report_ms))
}

fn latencies(logs: &[ClientLog], keep: impl Fn(Op) -> bool) -> Vec<f64> {
    logs.iter()
        .flat_map(|l| &l.samples)
        .filter(|(op, _)| keep(*op))
        .map(|(_, ms)| *ms)
        .collect()
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64) -> Result<(Metrics, Ops), String> {
    let mut out = session(seed, seconds, MIN_REQUESTS, false)?;
    let (simulated_ops, _, _) = verify(&mut out);
    let mut all = latencies(&out.logs, |_| true);
    let n = all.len();
    out.ops.check(beyond(n, 99.0) >= 10, || {
        format!("only {n} requests: fewer than ten lie beyond p99")
    });
    let mut m = Metrics::default();
    m.set("setup_s", out.setup_s);
    m.set("sim_ops_per_s", simulated_ops as f64 / out.wall_s);
    m.set("peak_rss_mb", out.peak_rss_mb);
    m.set("request_p50_ms", median(&all));
    m.set("request_p99_ms", percentile(&mut all, 99.0).unwrap_or(0.0));
    m.set("requests_per_s", n as f64 / out.wall_s);
    m.set("success_rate", out.ops.success_rate());
    eprintln!(
        "sweep_service: {n} requests in {:.1} s ({} beyond p99)",
        out.wall_s,
        beyond(n, 99.0)
    );
    Ok((m, out.ops))
}

/// The traced run: half the time untraced, then half through the
/// phase-split client on a fresh server; the overhead compares their
/// mean request latency.
pub fn run_traced(seed: u64, seconds: f64) -> Result<(Metrics, Ops), String> {
    let mut plain = session(seed, seconds / 2.0, 0, false)?;
    verify(&mut plain);
    let mut traced = session(seed, seconds / 2.0, 0, true)?;
    let (_, plan_ms, report_ms) = verify(&mut traced);
    let mut ops = traced.ops;
    ops.attempted += plain.ops.attempted;
    ops.failed += plain.ops.failed;

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let plain_mean = mean(&latencies(&plain.logs, |_| true));
    let traced_mean = mean(&latencies(&traced.logs, |_| true));
    let phases: Vec<Phases> = traced
        .logs
        .iter()
        .flat_map(|l| l.phases.iter().copied())
        .collect();
    let phase = |f: fn(&Phases) -> f64| median(&phases.iter().map(f).collect::<Vec<_>>());
    let c = traced.counters;

    let mut m = Metrics::default();
    m.set("experiment.plan_ms", plan_ms);
    m.set("experiment.report_ms", report_ms);
    m.set("service.submit_ms_p50", phase(|p| p.submit_ms));
    m.set("service.first_event_ms_p50", phase(|p| p.first_event_ms));
    m.set("service.stream_ms_p50", phase(|p| p.stream_ms));
    m.set(
        "service.revalidate_ms_p50",
        median(&latencies(&traced.logs, |op| op == Op::Revalidate)),
    );
    m.set(
        "service.cold_ms_p50",
        median(&latencies(&traced.logs, |op| {
            matches!(op, Op::Cold | Op::Joint)
        })),
    );
    m.set(
        "service.warm_ms_p50",
        median(&latencies(&traced.logs, |op| op == Op::Warm)),
    );
    m.set("service.requested", c.requested as f64);
    m.set("service.executed", c.executed as f64);
    m.set("service.deduped", c.deduped as f64);
    m.set("service.cache_hits", c.cache_hits as f64);
    m.set(
        "service.hit_ratio",
        if c.requested == 0 {
            0.0
        } else {
            c.cache_hits as f64 / c.requested as f64
        },
    );
    m.set(
        "host.tracing_overhead_frac",
        (traced_mean - plain_mean) / plain_mean,
    );
    Ok((m, ops))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(plan: &[Planned]) -> Vec<Op> {
        plan.iter().map(Planned::op).collect()
    }

    #[test]
    fn request_mix_is_deterministic_per_seed_and_client() {
        let planned = |seed, client| format!("{:?}", plan_client(seed, client, 16).unwrap());
        assert_eq!(planned(7, 0), planned(7, 0));
        assert_eq!(planned(7, 1), planned(7, 1));
        assert_ne!(planned(7, 0), planned(7, 1));
        assert_ne!(planned(7, 0), planned(8, 0));
    }

    #[test]
    fn every_flow_is_grid_warm_revalidate_of_that_grid() {
        for client in 0..2 {
            let plan = plan_client(3, client, 16).unwrap();
            for (f, flow) in plan.chunks(FLOW).enumerate() {
                let Planned::Fresh { op, keys, .. } = &flow[0] else {
                    panic!("flow {f} does not open with a grid");
                };
                assert_eq!(keys.len(), 3);
                let joint = f % JOINT_EVERY == JOINT_EVERY - 1;
                assert_eq!(*op, if joint { Op::Joint } else { Op::Cold });
                assert!(matches!(flow[1], Planned::Warm));
                let Planned::Revalidate(key) = &flow[2] else {
                    panic!("flow {f} does not close with a revalidation");
                };
                assert!(keys.contains(key));
            }
        }
    }

    #[test]
    fn joint_grids_line_up_across_clients() {
        let plans: Vec<Vec<Planned>> = (0..2).map(|c| plan_client(5, c, 16).unwrap()).collect();
        // Joint grids sit at the same positions for every client, so the
        // clients meet at each one, and ask for the same cells.
        assert_eq!(ops(&plans[0]), ops(&plans[1]));
        let joint_keys = |plan: &[Planned]| -> Vec<Vec<String>> {
            plan.iter()
                .filter_map(|p| match p {
                    Planned::Fresh {
                        op: Op::Joint,
                        keys,
                        ..
                    } => Some(keys.clone()),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(joint_keys(&plans[0]), joint_keys(&plans[1]));
        assert_eq!(joint_keys(&plans[0]).len(), 16 / JOINT_EVERY);
    }

    #[test]
    fn unseen_seeds_never_collide_within_a_run() {
        let mut seen = std::collections::HashSet::new();
        for lane in [0, 1, JOINT_LANE] {
            for k in 0..5000 {
                assert!(seen.insert(unseen_seed(11, lane, k)));
            }
        }
    }
}
