//! The repository's benchmark: one named workload per run, end-to-end
//! metrics from an untraced run, per-layer metrics from a traced one.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fast_grid --seed 0 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- compare a.out b.out
//! ```
//!
//! The last line of standard output is the result; the line before it
//! records provenance. See `perfbench/README.md` for the workloads and
//! the layer → metric → workload map.

mod grids;
mod metrics;
mod mirror;
mod service;

use std::process::ExitCode;

use grids::GridKind;
use metrics::{Metrics, Ops, END_TO_END, PER_LAYER};

const USAGE: &str = "usage: perfbench --workload <fast_grid|detailed_grid|sweep_service> \
                     --seed <n> --seconds <n> --trace <0|1>\n       \
                     perfbench compare <result-a> <result-b>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} wants {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("a number of seconds in (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<(Metrics, Ops), String> {
    let kind = match args.workload.as_str() {
        "fast_grid" => Some(GridKind::Fast),
        "detailed_grid" => Some(GridKind::Detailed),
        "sweep_service" => None,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let (mut m, ops) = match (kind, args.trace) {
        (Some(kind), false) => grids::run(kind, args.seed, args.seconds)?,
        (Some(kind), true) => grids::run_traced(kind, args.seed)?,
        (None, false) => service::run(args.seed, args.seconds)?,
        (None, true) => service::run_traced(args.seed, args.seconds)?,
    };
    if args.trace {
        m.set("host.nproc", metrics::nproc() as f64);
    }
    Ok((m, ops))
}

/// The commit being measured: `HEAD` of a git checkout in the working
/// directory, read without leaving it; "none" elsewhere.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "none".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(String::from))
        })
        .unwrap_or_else(|| "none".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(args: &Args) -> String {
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"rustc\": \"{}\", \"git_rev\": \"{}\", \"cell_rev\": {}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        metrics::nproc(),
        rustc_version().replace('"', "'"),
        git_rev(),
        tss::experiment::CELL_REV,
    )
}

/// `compare a b`: each file holds a run's standard output. Prints every
/// metric of both with b/a, and refuses runs from hosts with different
/// core counts, which no comparison may mix.
fn compare(a: &str, b: &str) -> Result<(), String> {
    let load = |path: &str| -> Result<(serde_json::Value, serde_json::Value), String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let mut provenance = None;
        let mut result = None;
        for line in text.lines().filter(|l| l.starts_with('{')) {
            let doc: serde_json::Value =
                serde_json::from_str(line).map_err(|e| format!("{path}: {e}"))?;
            if let Some(p) = doc.get("provenance") {
                provenance = Some(p.clone());
            } else if doc.get("metrics").is_some() {
                result = Some(doc);
            }
        }
        match (provenance, result) {
            (Some(p), Some(r)) => Ok((p, r)),
            _ => Err(format!("{path}: no provenance and result lines")),
        }
    };
    let (pa, ra) = load(a)?;
    let (pb, rb) = load(b)?;
    if pa.get("nproc") != pb.get("nproc") {
        return Err(format!(
            "refusing to compare runs on hosts with different nproc ({:?} vs {:?})",
            pa.get("nproc"),
            pb.get("nproc")
        ));
    }
    if pa.get("workload") != pb.get("workload") {
        return Err("refusing to compare different workloads".into());
    }
    let number = |v: Option<&serde_json::Value>| match v.and_then(|m| m.get("value")) {
        Some(serde_json::Value::F64(x)) => Some(*x),
        Some(serde_json::Value::U64(x)) => Some(*x as f64),
        Some(serde_json::Value::I64(x)) => Some(*x as f64),
        _ => None,
    };
    let Some(metrics) = ra.get("metrics").and_then(|m| m.as_object()) else {
        return Err(format!("{a}: result has no metrics"));
    };
    for (name, entry) in metrics {
        let va = number(Some(entry));
        let vb = number(rb.get("metrics").and_then(|m| m.get(name)));
        match (va, vb) {
            (Some(x), Some(y)) if x != 0.0 => println!("{name}: {x} -> {y} ({:.3}x)", y / x),
            (Some(x), Some(y)) => println!("{name}: {x} -> {y}"),
            _ => println!("{name}: missing in {b}"),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, a, b] => match compare(a, b) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((metrics, ops)) => {
            let table = if args.trace { PER_LAYER } else { END_TO_END };
            println!("{}", provenance(&args));
            println!("{}", metrics.render(table, ops));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
