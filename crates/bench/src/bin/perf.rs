//! `perf` — the simulator hot-path benchmark, seeding the `BENCH_*`
//! trajectory ROADMAP asks for.
//!
//! Each bench times a representative slice of the event loop and reports
//! **nanoseconds of host time per simulated event** — the scale-free
//! metric future PRs are held to. Results are merged into a
//! machine-readable JSON artifact (`BENCH_hotpath.json` by default; the
//! committed copy is the baseline):
//!
//! ```json
//! { "<bench name>": { "wall_ms": 812.4, "events": 5,000,000,
//!                     "ns_per_event": 162.5, "seed": 0, "nproc": 2 } }
//! ```
//!
//! The `nproc` field records the CPU count of the host the entry was
//! measured on, so numbers from different hosts are never compared
//! unknowingly.
//!
//! Entries the current run does not produce (e.g. the frozen
//! `*@pre_pr4` before-numbers) are preserved on merge, so the artifact
//! accumulates history. `--check <baseline>` compares the fresh
//! `ns_per_event` of every bench against the baseline's entry of the
//! same name and fails the process if any ratio exceeds `--max-ratio`
//! (default 5 — a catastrophe detector for CI, deliberately loose so
//! host noise never flakes).
//!
//! ```sh
//! cargo run --release -p tss-bench --bin perf              # full baseline
//! perf --scale 0.002 --seeds 1 --check BENCH_hotpath.json  # CI smoke
//! ```
//!
//! Alongside the JSON metrics the run prints the hot-path counters:
//! events popped and idle token waves skipped in closed form.

use std::path::PathBuf;

use tss::experiment::ExperimentGrid;
use tss::{NetworkModelSpec, ProtocolKind, System, TopologyKind};
use tss_server::client::{self, GridRequest};
use tss_server::service::{ServerConfig, SweepServer};
use tss_sim::rng::SimRng;
use tss_sim::{EventQueue, Time};
use tss_workloads::paper;

/// Every bench this binary can run, in run order (the `--only` filter's
/// vocabulary).
const BENCH_NAMES: [&str; 8] = [
    "event_queue_micro",
    "fast_cell_oltp_butterfly",
    "tardis_oltp",
    "detailed_cell_oltp_torus",
    "detailed_torus256_serial",
    "fig3_fast_grid",
    "detailed_contention_grid",
    "remote_fast_grid",
];

struct Args {
    scale: f64,
    seeds: u64,
    seed: u64,
    only: Option<Vec<String>>,
    json: PathBuf,
    check: Option<PathBuf>,
    max_ratio: f64,
}

const USAGE: &str = "\
options:
  --scale <f>       workload scale factor (default 1/64)
  --seeds <n>       perturbation runs per grid cell (default 3)
  --seed <n>        workload seed (default 0)
  --only <list>     run only these comma-separated benches (default all;
                    names: event_queue_micro, fast_cell_oltp_butterfly,
                    tardis_oltp,
                    detailed_cell_oltp_torus, detailed_torus256_serial,
                    fig3_fast_grid, detailed_contention_grid,
                    remote_fast_grid)
  --json <path>     where to merge the results (default BENCH_hotpath.json)
  --check <path>    compare ns_per_event against this baseline and fail on blow-up
  --max-ratio <f>   blow-up threshold for --check (default 5.0)
  --help            print this message";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: tss_bench::DEFAULT_SCALE,
        seeds: tss_bench::DEFAULT_SEEDS,
        seed: 0,
        only: None,
        json: PathBuf::from("BENCH_hotpath.json"),
        check: None,
        max_ratio: 5.0,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--help" || flag == "-h" {
            return Err("help".into());
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--scale" => {
                args.scale = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --scale {value:?}"))?;
            }
            "--seeds" => {
                args.seeds = value
                    .parse::<u64>()
                    .ok()
                    .filter(|s| *s > 0)
                    .ok_or_else(|| format!("bad --seeds {value:?}"))?;
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--only" => {
                let names: Vec<String> = value.split(',').map(|n| n.trim().to_string()).collect();
                for name in &names {
                    if !BENCH_NAMES.contains(&name.as_str()) {
                        return Err(format!(
                            "unknown bench {name:?} (names: {})",
                            BENCH_NAMES.join(", ")
                        ));
                    }
                }
                args.only = Some(names);
            }
            "--json" => args.json = PathBuf::from(value),
            "--check" => args.check = Some(PathBuf::from(value)),
            "--max-ratio" => {
                args.max_ratio = value
                    .parse::<f64>()
                    .ok()
                    .filter(|r| r.is_finite() && *r > 1.0)
                    .ok_or_else(|| format!("bad --max-ratio {value:?}"))?;
            }
            other => return Err(format!("unknown option {other}")),
        }
        i += 2;
    }
    Ok(args)
}

/// One measured bench: host wall clock over a known simulated-event count.
struct Measurement {
    name: &'static str,
    wall_ms: f64,
    events: u64,
    seed: u64,
}

impl Measurement {
    fn ns_per_event(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.wall_ms * 1e6 / self.events as f64
        }
    }
}

fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = std::time::Instant::now();
    let r = f();
    (start.elapsed().as_secs_f64() * 1e3, r)
}

/// Raw [`EventQueue`] churn: a self-similar schedule/pop loop holding a
/// live population of a few hundred events with sim-shaped deltas (dense
/// short hops, occasional long think-time gaps crossing the calendar
/// window).
fn event_queue_micro(seed: u64) -> Measurement {
    const POPS: u64 = 4_000_000;
    let mut rng = SimRng::from_seed_and_stream(seed, 0xBE);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..512u64 {
        q.schedule(Time::from_ns(i % 97), i);
    }
    let (wall_ms, _) = time(|| {
        for i in 0..POPS {
            let (t, _) = q.pop().expect("population stays positive");
            let delta = match rng.gen_range(0..16) {
                0 => 2_000 + rng.gen_range(0..8_000), // think-time gap
                1..=3 => 0,                           // same-instant follow-up
                _ => rng.gen_range(1..120),           // link/controller hop
            };
            q.schedule(t + tss_sim::Duration::from_ns(delta), i);
        }
        std::hint::black_box(q.len())
    });
    Measurement {
        name: "event_queue_micro",
        wall_ms,
        events: POPS,
        seed,
    }
}

/// One full-scale cell: the fig3 fast-model hot path (protocol dispatch +
/// closed-form address net + unicast nets), single run, no perturbation.
fn fast_cell(args: &Args) -> Measurement {
    let (wall_ms, result) = time(|| {
        System::builder()
            .protocol(ProtocolKind::TsSnoop)
            .topology(TopologyKind::Butterfly16)
            .workload(paper::oltp(args.scale))
            .seed(args.seed)
            .build()
            .expect("valid config")
            .run()
    });
    println!(
        "  [fast_cell_oltp_butterfly] events {}",
        result.stats.events_processed
    );
    Measurement {
        name: "fast_cell_oltp_butterfly",
        wall_ms,
        events: result.stats.events_processed,
        seed: args.seed,
    }
}

/// The same fast-model cell on the Tardis timestamp-lease protocol: the
/// lease grant/expiry hot path (Gt comparisons on every shared read)
/// instead of broadcast dispatch.
fn tardis_cell(args: &Args) -> Measurement {
    let (wall_ms, result) = time(|| {
        System::builder()
            .protocol(ProtocolKind::Tardis)
            .topology(TopologyKind::Butterfly16)
            .workload(paper::oltp(args.scale))
            .seed(args.seed)
            .build()
            .expect("valid config")
            .run()
    });
    println!(
        "  [tardis_oltp] events {}  lease renewals {}",
        result.stats.events_processed, result.stats.protocol.lease_renewals
    );
    Measurement {
        name: "tardis_oltp",
        wall_ms,
        events: result.stats.events_processed,
        seed: args.seed,
    }
}

/// One full-scale detailed cell: the token-wave hot path under moderate
/// contention, where the idle fast-forward earns its keep.
fn detailed_cell(args: &Args) -> Measurement {
    let (wall_ms, result) = time(|| {
        System::builder()
            .protocol(ProtocolKind::TsSnoop)
            .topology(TopologyKind::Torus4x4)
            .network(NetworkModelSpec::detailed(5))
            .workload(paper::oltp(args.scale))
            .seed(args.seed)
            .build()
            .expect("valid config")
            .run()
    });
    println!(
        "  [detailed_cell_oltp_torus] events {}  waves skipped {}",
        result.stats.events_processed, result.perf.waves_skipped
    );
    Measurement {
        name: "detailed_cell_oltp_torus",
        wall_ms,
        events: result.stats.events_processed,
        seed: args.seed,
    }
}

/// The big-cell bench: a 256-node torus under the detailed model, where
/// each token wave is a 512-event instant and one System event stands
/// for hundreds of token-net events.
fn torus256_cell(args: &Args) -> Measurement {
    let (wall_ms, result) = time(|| {
        System::builder()
            .protocol(ProtocolKind::TsSnoop)
            .topology(TopologyKind::Torus {
                width: 16,
                height: 16,
            })
            // 256 endpoints broadcast into each switch; the 16-node
            // default buffer provision is far too shallow here.
            .network(NetworkModelSpec::Detailed {
                link_occupancy: tss_sim::Duration::from_ns(5),
                initial_slack: NetworkModelSpec::DEFAULT_SLACK,
                buffer_depth: 4096,
            })
            .workload(paper::oltp(args.scale))
            .seed(args.seed)
            .build()
            .expect("valid config")
            .run()
    });
    println!(
        "  [detailed_torus256_serial] events {}  waves skipped {}",
        result.stats.events_processed, result.perf.waves_skipped
    );
    Measurement {
        name: "detailed_torus256_serial",
        wall_ms,
        events: result.stats.events_processed,
        seed: args.seed,
    }
}

/// A whole grid under the §4.3 methodology. `events` is the deterministic
/// proxy used for the trajectory: the per-cell minimum-run event count
/// summed over cells, times the perturbation runs.
fn grid_bench(name: &'static str, args: &Args, net: NetworkModelSpec) -> Measurement {
    let (wall_ms, report) = time(|| {
        ExperimentGrid::new(name)
            .nets([net])
            .workloads(paper::all(args.scale))
            .seeds([args.seed])
            .perturbation(tss_bench::DEFAULT_PERTURBATION_NS, args.seeds)
            .run()
            .expect("valid grid")
    });
    let events: u64 = report
        .cells
        .iter()
        .map(|c| c.stats.events_processed)
        .sum::<u64>()
        * args.seeds;
    Measurement {
        name,
        wall_ms,
        events,
        seed: args.seed,
    }
}

/// The fig3 fast grid again, but submitted over loopback HTTP to an
/// in-process sweep-server with a cold store: the per-event delta vs
/// `fig3_fast_grid` is the service's whole overhead — request parsing,
/// scheduling, progress streaming and store writes.
fn remote_fast_grid(args: &Args) -> Measurement {
    let store_dir = std::env::temp_dir().join(format!("tss-perf-remote-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let server = SweepServer::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: store_dir.clone(),
        workers: 0,
    })
    .expect("loopback sweep-server");
    let request = GridRequest {
        name: "remote_fast_grid".into(),
        scale: args.scale,
        protocols: ProtocolKind::ALL.to_vec(),
        topologies: TopologyKind::PAPER.to_vec(),
        nets: vec![NetworkModelSpec::Fast],
        workloads: Vec::new(), // all five
        seeds: vec![args.seed],
        perturbation_ns: tss_bench::DEFAULT_PERTURBATION_NS,
        perturbation_runs: args.seeds,
    };
    let (wall_ms, report) = time(|| {
        client::run_remote(&server.url(), &request, |_| {}).expect("remote grid over loopback")
    });
    server.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);
    // The same deterministic event proxy as the grid benches, so the
    // ns/event is directly comparable to fig3_fast_grid's.
    let events: u64 = report
        .cells
        .iter()
        .map(|c| c.stats.events_processed)
        .sum::<u64>()
        * args.seeds;
    Measurement {
        name: "remote_fast_grid",
        wall_ms,
        events,
        seed: args.seed,
    }
}

/// Merges `fresh` into the JSON artifact at `path`, preserving entries of
/// benches this run did not produce (historic `*@pre_pr4` records).
fn merge_json(path: &PathBuf, fresh: &[Measurement]) -> std::io::Result<()> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    // A present-but-unreadable artifact is an error, not a reset: silently
    // starting over would destroy the frozen `*@pre_pr4` history.
    let mut entries: Vec<(String, serde_json::Value)> = match std::fs::read_to_string(path) {
        Ok(text) => match serde_json::from_str::<serde_json::Value>(&text) {
            Ok(serde_json::Value::Object(entries)) => entries,
            Ok(_) | Err(_) => {
                return Err(std::io::Error::other(format!(
                    "{} exists but is not a bench-results object; refusing to \
                     overwrite it (fix or delete the file first)",
                    path.display()
                )))
            }
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    for m in fresh {
        let obj = serde_json::Value::Object(vec![
            ("wall_ms".into(), serde_json::Value::F64(round2(m.wall_ms))),
            ("events".into(), serde_json::Value::U64(m.events)),
            (
                "ns_per_event".into(),
                serde_json::Value::F64(round2(m.ns_per_event())),
            ),
            ("seed".into(), serde_json::Value::U64(m.seed)),
            ("nproc".into(), serde_json::Value::U64(nproc)),
        ]);
        match entries.iter_mut().find(|(k, _)| k == m.name) {
            Some((_, v)) => *v = obj,
            None => entries.push((m.name.to_string(), obj)),
        }
    }
    let text = serde_json::to_string_pretty(&serde_json::Value::Object(entries))
        .expect("bench serialization is infallible");
    std::fs::write(path, text + "\n")
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

/// Compares fresh measurements against a committed baseline; returns the
/// failures (bench name, fresh ns/event, baseline ns/event).
fn check_against(
    baseline_path: &PathBuf,
    fresh: &[Measurement],
    max_ratio: f64,
) -> Result<Vec<(String, f64, f64)>, String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {}: {e}", baseline_path.display()))?;
    let baseline: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("bad baseline JSON: {e}"))?;
    let mut failures = Vec::new();
    for m in fresh {
        let Some(base) = baseline.get(m.name).and_then(|b| b.get("ns_per_event")) else {
            continue; // new bench: nothing to regress against
        };
        let base = match base {
            serde_json::Value::F64(f) => *f,
            serde_json::Value::U64(u) => *u as f64,
            _ => continue,
        };
        if base > 0.0 && m.ns_per_event() > base * max_ratio {
            failures.push((m.name.to_string(), m.ns_per_event(), base));
        }
    }
    Ok(failures)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            if msg == "help" {
                println!("{USAGE}");
                std::process::exit(0);
            }
            eprintln!("error: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };

    println!(
        "hot-path benches (scale {:.5}, {} perturbation runs, seed {})",
        args.scale, args.seeds, args.seed
    );
    let wants = |name: &str| match &args.only {
        Some(only) => only.iter().any(|n| n == name),
        None => true,
    };
    let mut measurements = Vec::new();
    if wants("event_queue_micro") {
        measurements.push(event_queue_micro(args.seed));
    }
    if wants("fast_cell_oltp_butterfly") {
        measurements.push(fast_cell(&args));
    }
    if wants("tardis_oltp") {
        measurements.push(tardis_cell(&args));
    }
    if wants("detailed_cell_oltp_torus") {
        measurements.push(detailed_cell(&args));
    }
    if wants("detailed_torus256_serial") {
        measurements.push(torus256_cell(&args));
    }
    if wants("fig3_fast_grid") {
        measurements.push(grid_bench("fig3_fast_grid", &args, NetworkModelSpec::Fast));
    }
    if wants("detailed_contention_grid") {
        measurements.push(grid_bench(
            "detailed_contention_grid",
            &args,
            NetworkModelSpec::detailed(5),
        ));
    }
    if wants("remote_fast_grid") {
        measurements.push(remote_fast_grid(&args));
    }

    println!();
    println!(
        "{:<28} {:>12} {:>14} {:>12}",
        "bench", "wall (ms)", "events", "ns/event"
    );
    for m in &measurements {
        println!(
            "{:<28} {:>12.1} {:>14} {:>12.1}",
            m.name,
            m.wall_ms,
            m.events,
            m.ns_per_event()
        );
    }

    if let Err(e) = merge_json(&args.json, &measurements) {
        eprintln!("error: cannot write {}: {e}", args.json.display());
        std::process::exit(2);
    }
    println!("\nmerged into {}", args.json.display());

    if let Some(baseline) = &args.check {
        match check_against(baseline, &measurements, args.max_ratio) {
            Ok(failures) if failures.is_empty() => {
                println!(
                    "check vs {}: all benches within {}x of baseline ns/event",
                    baseline.display(),
                    args.max_ratio
                );
            }
            Ok(failures) => {
                for (name, fresh, base) in &failures {
                    eprintln!(
                        "PERF REGRESSION {name}: {fresh:.1} ns/event vs baseline {base:.1} \
                         (> {}x)",
                        args.max_ratio
                    );
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }
}
