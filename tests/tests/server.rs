//! Integration tests for the sweep-server: the single-flight acceptance
//! proof (two concurrent identical grid requests, every cell executed
//! exactly once, both artifacts byte-identical to a local run), the
//! cell-entry ETag contract, error statuses, and graceful shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use tss::experiment::ExperimentGrid;
use tss::{NetworkModelSpec, ProtocolKind, TopologyKind};
use tss_server::client::{self, GridRequest};
use tss_server::service::{ServerConfig, SweepServer, MAX_LIVE_GRIDS};
use tss_workloads::paper;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tss-server-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn server(tag: &str, workers: usize) -> (SweepServer, PathBuf) {
    let dir = temp_dir(tag);
    let server = SweepServer::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: dir.clone(),
        workers,
    })
    .expect("loopback sweep-server");
    (server, dir)
}

/// The 3-cell acceptance grid (1 workload × 1 topology × 3 protocols)
/// as the wire request; `name` must match the local grid's.
fn request(name: &str) -> GridRequest {
    GridRequest {
        name: name.into(),
        scale: 0.002,
        protocols: ProtocolKind::ALL.to_vec(),
        topologies: vec![TopologyKind::Torus4x4],
        nets: vec![NetworkModelSpec::Fast],
        workloads: vec!["barnes".into()],
        seeds: vec![0],
        perturbation_ns: 4,
        perturbation_runs: 1,
    }
}

/// The same grid built the way a local run builds it.
fn local_grid(name: &str) -> ExperimentGrid {
    ExperimentGrid::new(name)
        .topologies([TopologyKind::Torus4x4])
        .workloads(vec![paper::barnes(0.002)])
        .seeds([0])
        .perturbation(4, 1)
}

fn stats(url: &str) -> serde_json::Value {
    let (head, body) = client::get(url, "/v1/stats", &[]).expect("stats reachable");
    assert_eq!(head.status, 200);
    serde_json::from_str(&String::from_utf8_lossy(&body)).expect("stats is JSON")
}

fn stat(stats: &serde_json::Value, group: &str, name: &str) -> u64 {
    match stats.get(group).and_then(|g| g.get(name)) {
        Some(serde_json::Value::U64(n)) => *n,
        other => panic!("stats.{group}.{name} missing or non-numeric: {other:?}"),
    }
}

/// Live grids: posted, stream not yet ended.
fn live_grids(stats: &serde_json::Value) -> u64 {
    match stats.get("grids") {
        Some(serde_json::Value::U64(n)) => *n,
        other => panic!("stats.grids missing or non-numeric: {other:?}"),
    }
}

/// Posts `request` without streaming it and returns the grid's id.
fn post(url: &str, request: &GridRequest) -> u64 {
    let body = serde_json::to_string(request).expect("request renders");
    let mut stream = TcpStream::connect(url.trim_start_matches("http://")).expect("connect");
    write!(
        stream,
        "POST /v1/grids HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("request write");
    let mut reader = std::io::BufReader::new(stream);
    let head = tss_server::http::read_response_head(&mut reader).expect("response head");
    assert_eq!(head.status, 201);
    let reply = tss_server::http::read_body(&mut reader, &head).expect("reply body");
    let reply: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&reply)).expect("reply is JSON");
    match reply.get("id") {
        Some(serde_json::Value::U64(id)) => *id,
        other => panic!("submit reply without an id: {other:?}"),
    }
}

/// Runs `f` on its own thread and fails the test if it has not returned
/// within `limit`: a hang becomes a failure instead of a stuck suite.
fn within<T: Send + 'static>(
    limit: Duration,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit)
        .unwrap_or_else(|_| panic!("{what} did not return within {limit:?}"))
}

// ---------------------------------------------------- the acceptance bar

#[test]
fn concurrent_identical_grids_execute_each_cell_exactly_once() {
    let (server, dir) = server("single-flight", 2);
    let url = server.url();
    let local = local_grid("server-accept").run().unwrap();
    let local_json = local.to_json();

    // Two identical requests in flight at once.
    let reports = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let url = url.clone();
                scope.spawn(move || {
                    client::run_remote(&url, &request("server-accept"), |_| {})
                        .expect("remote grid")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });

    for report in &reports {
        assert_eq!(
            report.to_json(),
            local_json,
            "a remote artifact must be byte-identical to the local run's"
        );
    }

    // The single-flight proof: 6 cells were requested but each of the 3
    // distinct cells simulated exactly once; every duplicate either
    // joined the in-flight slot (deduped) or arrived after the store
    // write and was served from disk (cache_hit).
    let s = stats(&url);
    assert_eq!(stat(&s, "cells", "requested"), 6);
    assert_eq!(stat(&s, "cells", "executed"), 3);
    assert_eq!(
        stat(&s, "cells", "deduped") + stat(&s, "cells", "cache_hits"),
        3
    );
    // Each stream released its grid as it ended, so a stream is
    // single-use and nothing accumulates across requests.
    assert_eq!(live_grids(&s), 0, "finished grids are released");
    let (head, _) = client::get(&url, "/v1/grids/1", &[]).expect("probe");
    assert_eq!(head.status, 404, "a finished stream is gone");
    let submitted = stat(&s, "scheduler", "submitted");

    // A later identical request is served entirely from the store.
    let cached_before = stat(&s, "cells", "cache_hits");
    let mut cached = 0;
    let warm = client::run_remote(&url, &request("server-accept"), |event| {
        assert!(event.cached, "cell {} re-simulated", event.index);
        cached += 1;
    })
    .expect("warm remote grid");
    assert_eq!(cached, 3);
    assert_eq!(warm.to_json(), local_json);
    let s = stats(&url);
    assert_eq!(
        stat(&s, "cells", "executed"),
        3,
        "warm run must not simulate"
    );
    assert_eq!(
        stat(&s, "scheduler", "submitted"),
        submitted,
        "store hits are answered at submit, never queued"
    );
    assert_eq!(stat(&s, "cells", "cache_hits") - cached_before, 3);
    assert_eq!(live_grids(&s), 0);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A grid that is posted but never streamed is not held forever: past
/// the bound, each POST evicts the oldest posted grid.
#[test]
fn grids_posted_but_never_streamed_are_bounded() {
    let (server, dir) = server("grid-bound", 1);
    let url = server.url();
    let ids: Vec<u64> = (0..=MAX_LIVE_GRIDS)
        .map(|_| post(&url, &request("server-bound")))
        .collect();
    assert_eq!(live_grids(&stats(&url)), MAX_LIVE_GRIDS as u64);

    let oldest = format!("/v1/grids/{}", ids[0]);
    let (head, _) = client::get(&url, &oldest, &[]).expect("probe");
    assert_eq!(head.status, 404, "the oldest posted grid was evicted");
    let newest = format!("/v1/grids/{}", ids[MAX_LIVE_GRIDS]);
    let (head, body) = client::get(&url, &newest, &[]).expect("stream");
    assert_eq!(head.status, 200);
    let body = String::from_utf8_lossy(&body);
    assert!(body.contains("\"event\":\"report\""), "{body}");
    assert_eq!(live_grids(&stats(&url)), MAX_LIVE_GRIDS as u64 - 1);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------------------------ cell ETags

#[test]
fn cell_entries_carry_rev_keyed_etags_and_answer_304() {
    let (server, dir) = server("etag", 1);
    let url = server.url();
    let report = client::run_remote(&url, &request("server-etag"), |_| {}).expect("remote grid");
    let key = report.cells[0].cell_key.expect("grid cells are keyed");

    let path = format!("/v1/cells/{}", key.to_hex());
    let (head, body) = client::get(&url, &path, &[]).expect("cell fetch");
    assert_eq!(head.status, 200);
    let etag = head.header("etag").expect("cell entries carry an ETag");
    assert!(
        etag.ends_with(&format!("-{}\"", key.to_hex())),
        "ETag {etag:?} must embed the cell key"
    );
    let cell: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&body)).expect("cell body is JSON");
    assert!(cell.get("stats").is_some(), "body is the RunReport");
    assert_eq!(
        cell.get("workload"),
        Some(&serde_json::Value::Str("Barnes".into()))
    );

    // The revalidation round-trip: matching entity → 304, no body.
    let etag = etag.to_string();
    let (head, body) = client::get(&url, &path, &[("If-None-Match", &etag)]).expect("probe");
    assert_eq!(head.status, 304);
    assert!(body.is_empty());
    let (head, _) = client::get(&url, &path, &[("If-None-Match", "\"other\"")]).expect("probe");
    assert_eq!(head.status, 200, "a stale validator gets the full entry");

    // Unknown-but-well-formed key → 404; junk → 400.
    let (head, _) = client::get(&url, &format!("/v1/cells/{:032x}", 7), &[]).expect("probe");
    assert_eq!(head.status, 404);
    let (head, _) = client::get(&url, "/v1/cells/not-a-key", &[]).expect("probe");
    assert_eq!(head.status, 400);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

// --------------------------------------------------------- error paths

#[test]
fn malformed_requests_get_4xx_not_hangs() {
    let (server, dir) = server("errors", 1);
    let url = server.url();

    let (head, _) = client::get(&url, "/v1/nope", &[]).expect("probe");
    assert_eq!(head.status, 404);
    let (head, _) = client::get(&url, "/v1/grids/999", &[]).expect("probe");
    assert_eq!(head.status, 404);
    let (head, _) = client::get(&url, "/v1/grids/xyz", &[]).expect("probe");
    assert_eq!(head.status, 400);
    // Wrong method on a known path.
    let (head, _) = client::get(&url, "/v1/grids", &[]).expect("probe");
    assert_eq!(head.status, 405);

    // A request the grid compiler rejects (unknown workload).
    let mut bad = request("server-bad");
    bad.workloads = vec!["specint".into()];
    match client::run_remote(&url, &bad, |_| {}) {
        Err(client::RemoteError::Http { status: 400, body }) => {
            assert!(body.contains("unknown workload"), "{body}");
        }
        other => panic!("expected HTTP 400, got {other:?}"),
    }

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A directory protocol on more nodes than its sharer vector holds is a
/// 400 at submit, and no worker dies: the next valid grid still runs.
#[test]
fn a_directory_past_64_nodes_is_a_400_and_the_server_keeps_serving() {
    let (server, dir) = server("dir81", 1);
    let url = server.url();

    let mut big = request("server-dir81");
    big.scale = 0.001;
    big.protocols = vec![ProtocolKind::DirClassic];
    big.topologies = vec![TopologyKind::Torus {
        width: 9,
        height: 9,
    }];
    let probe = url.clone();
    let refused = within(Duration::from_secs(20), "the 81-node grid", move || {
        client::run_remote(&probe, &big, |_| {})
    });
    match refused {
        Err(client::RemoteError::Http { status: 400, body }) => {
            assert!(body.contains("at most 64 nodes"), "{body}");
        }
        other => panic!("expected HTTP 400, got {other:?}"),
    }

    let probe = url.clone();
    let report = within(Duration::from_secs(60), "the valid grid", move || {
        client::run_remote(&probe, &request("server-after-dir81"), |_| {})
    })
    .expect("a valid grid after the refusal");
    let local = local_grid("server-after-dir81").run().unwrap();
    assert_eq!(report.to_json(), local.to_json());
    assert_eq!(stat(&stats(&url), "cells", "executed"), 3);

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------- graceful shutdown

#[test]
fn a_draining_server_rejects_new_grids_then_exits() {
    use std::io::Write;

    let (server, dir) = server("drain", 1);
    let url = server.url();
    let (head, _) = client::get(&url, "/v1/healthz", &[]).expect("server is up");
    assert_eq!(head.status, 200);

    // A connection accepted *before* the drain begins: its handler is
    // parked reading the request when the flag flips, so the grid POST
    // it then sends must get the explicit 503, not a hung stream.
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    std::thread::sleep(std::time::Duration::from_millis(300)); // let accept() happen
    server.begin_shutdown();
    write!(
        stream,
        "POST /v1/grids HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{{}}"
    )
    .expect("request write");
    let mut reader = std::io::BufReader::new(stream);
    let head = tss_server::http::read_response_head(&mut reader).expect("response head");
    assert_eq!(head.status, 503);

    // Connections after the drain began are simply refused or reset —
    // and join() returns instead of hanging.
    assert!(client::run_remote(&url, &request("server-drain"), |_| {}).is_err());
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_mid_grid_abandons_queued_cells_and_leaves_the_store_clean() {
    use tss::cellstore::CellStore;

    let (server, dir) = server("abandon", 1);
    let url = server.url();
    // Cells slow enough that the drain lands mid-grid.
    let mut slow = request("server-abandon");
    slow.scale = 0.02;
    slow.perturbation_runs = 2;

    let outcome = std::thread::scope(|scope| {
        let url = url.clone();
        let handle = scope.spawn(move || client::run_remote(&url, &slow, |_| {}));
        std::thread::sleep(std::time::Duration::from_millis(200));
        server.begin_shutdown();
        handle.join().expect("client thread")
    });
    server.join(); // must return: in-flight cell finished, queue abandoned
                   // Host-speed dependent: usually the stream reports the abort, but a
                   // fast host may have finished every cell first, and the drain can
                   // also cut the connection under the client. All are graceful ends;
                   // what must never happen is a hang (the scope returning proves it).
    match outcome {
        Err(client::RemoteError::Protocol(reason)) => {
            assert!(reason.contains("aborted"), "{reason}")
        }
        Err(client::RemoteError::Io(_)) | Ok(_) => {}
        Err(other) => panic!("unexpected failure kind: {other}"),
    }

    // Whatever was interrupted, every entry that made it to disk is a
    // complete, loadable cell.
    let store = CellStore::attach(&dir).expect("store dir exists");
    let gc = store.gc(false).expect("gc");
    assert_eq!(gc.stale + gc.corrupt, 0, "{gc}");
    std::fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------------------------ accept path

#[test]
fn sequential_round_trips_wait_on_no_poll() {
    let (server, dir) = server("accept-latency", 1);
    let url = server.url();
    let start = Instant::now();
    for _ in 0..20 {
        let (head, body) = client::get(&url, "/v1/healthz", &[]).expect("healthz");
        assert_eq!(head.status, 200);
        assert_eq!(body, b"ok\n");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(250),
        "20 healthz round trips took {elapsed:?}: the accept path waits"
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn idle_servers_shut_down_on_loopback_and_wildcard_binds() {
    for (tag, addr) in [
        ("idle-loopback", "127.0.0.1:0"),
        ("idle-wildcard", "0.0.0.0:0"),
    ] {
        let dir = temp_dir(tag);
        let server = SweepServer::start(ServerConfig {
            addr: addr.into(),
            store_dir: dir.clone(),
            workers: 1,
        })
        .expect("sweep-server");
        within(Duration::from_secs(10), "shutdown", move || {
            server.shutdown()
        });
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn a_connection_racing_shutdown_is_answered_or_refused() {
    for round in 0..20u64 {
        let (server, dir) = server("accept-race", 1);
        let addr = server.local_addr();
        // The probe connects while the drain begins, from just before it
        // to just after (the round staggers it across that window): it
        // must get a whole answer or a refusal (reset, EOF), never an
        // open connection nobody serves.
        let lined_up = Arc::new(Barrier::new(2));
        let go = Arc::clone(&lined_up);
        let probe = std::thread::spawn(move || -> Result<String, std::io::Error> {
            go.wait();
            std::thread::sleep(Duration::from_micros(round * 50));
            let mut stream = TcpStream::connect(addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(5)))?;
            stream
                .write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")?;
            let mut reply = String::new();
            stream.read_to_string(&mut reply)?;
            Ok(reply)
        });
        lined_up.wait();
        std::thread::sleep(Duration::from_micros(500));
        within(Duration::from_secs(10), "shutdown", move || {
            server.shutdown()
        });
        match probe.join().expect("probe thread") {
            Ok(reply) => assert!(
                reply.is_empty() || reply.starts_with("HTTP/1.1 200 OK") && reply.ends_with("ok\n"),
                "round {round}: partial answer {reply:?}"
            ),
            Err(e) => assert!(
                !matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
                "round {round}: connection left hanging ({e})"
            ),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
