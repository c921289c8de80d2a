//! The sweep service: a threaded HTTP server that turns grid requests
//! into scheduled cells and serves everything it has ever computed from
//! the shared [`CellStore`].
//!
//! Execution shape:
//!
//! * One **accept loop** blocks in `accept()` and spawns a short-lived
//!   handler thread per connection. Shutdown wakes it with one loopback
//!   connection of its own, so no request ever waits on a poll period.
//! * One pool of **cell workers** drains a single FIFO cell queue:
//!   cells from *all* in-flight grid requests feed it in arrival order,
//!   and each idle worker takes the next queued cell, so one long cell
//!   never holds up the cells behind it.
//! * **Single-flight dedupe**: an `inflight` map from [`CellKey`] to its
//!   result slot. A request whose cell is already in flight joins the
//!   existing slot instead of scheduling a duplicate; the cell executes
//!   exactly once and every waiter gets the result.
//! * **Store hits at submit**: a cell the [`CellStore`] already holds
//!   (this server computed it, or an earlier life of it did, so restarts
//!   resume warm) gets a pre-filled slot when its grid is posted and is
//!   never queued behind cold cells. Workers check the store once more
//!   before simulating, which covers a store write racing the submit.
//! * **Single-use streams**: a grid's job (its plan and every cell
//!   result) is released when its stream ends, so the server holds only
//!   the grids posted and not yet streamed — at most [`MAX_LIVE_GRIDS`]
//!   of them: past that, a POST evicts the oldest posted grid.
//! * **Graceful shutdown** ([`SweepServer::begin_shutdown`]): the
//!   queue is abandoned — workers finish the cells they hold,
//!   queued cells are dropped, streaming responses emit an `aborted`
//!   event — and the store stays consistent because every write was
//!   atomic anyway.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, BufReader};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use tss::experiment::{load_cell, run_or_load_cell, CellPlan, GridPlan, CELL_REV};
use tss::{CellKey, CellStore, RunReport};

use crate::client::GridRequest;
use crate::http::{self, Request, RequestError};

/// The most grids the server holds between their POST and the end of
/// their stream. A POST past the bound evicts the oldest posted grid (its
/// id then answers 404), so grids posted but never streamed cannot pile
/// up; a stream already running holds its own handle and finishes.
pub const MAX_LIVE_GRIDS: usize = 1024;

/// How the server binds and where it keeps its cells.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7070` (`:0` picks a free port).
    pub addr: String,
    /// The [`CellStore`] directory (created if missing).
    pub store_dir: PathBuf,
    /// Cell workers (0 = one per available core).
    pub workers: usize,
}

/// The result slot one scheduled cell fills and any number of waiting
/// grid streams read.
#[derive(Debug)]
struct CellSlot {
    result: Mutex<Option<RunReport>>,
    ready: Condvar,
}

impl CellSlot {
    /// A slot that fills later (`None`) or is already filled.
    fn new(result: Option<RunReport>) -> CellSlot {
        CellSlot {
            result: Mutex::new(result),
            ready: Condvar::new(),
        }
    }

    fn fill(&self, report: RunReport) {
        *self.result.lock().expect("slot lock") = Some(report);
        self.ready.notify_all();
    }

    /// Blocks until the slot fills, or returns `None` once `shutdown`
    /// rises (the slot's cell was abandoned and will never fill).
    fn wait(&self, shutdown: &AtomicBool) -> Option<RunReport> {
        let mut guard = self.result.lock().expect("slot lock");
        loop {
            if let Some(report) = guard.as_ref() {
                return Some(report.clone());
            }
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            // Timed wait: the shutdown flag has no condvar of its own,
            // so waiters must poll it.
            let (next, _) = self
                .ready
                .wait_timeout(guard, Duration::from_millis(50))
                .expect("slot lock");
            guard = next;
        }
    }
}

/// One scheduled unit of work: the cell to execute and the slot its
/// result lands in.
struct CellTask {
    plan: CellPlan,
    slot: Arc<CellSlot>,
}

/// The FIFO every in-flight grid request feeds and every cell worker
/// drains. Workers park on the condvar while it is empty; after
/// [`TaskQueue::abandon`] it is closed for good.
struct TaskQueue<T> {
    inner: Mutex<QueueState<T>>,
    available: Condvar,
}

struct QueueState<T> {
    tasks: VecDeque<T>,
    closed: bool,
    /// Tasks accepted by [`TaskQueue::push`].
    submitted: u64,
    /// Tasks dropped unexecuted by [`TaskQueue::abandon`].
    abandoned: u64,
}

impl<T> TaskQueue<T> {
    fn new() -> TaskQueue<T> {
        TaskQueue {
            inner: Mutex::new(QueueState {
                tasks: VecDeque::new(),
                closed: false,
                submitted: 0,
                abandoned: 0,
            }),
            available: Condvar::new(),
        }
    }

    /// Appends a task; a closed queue drops it uncounted.
    fn push(&self, task: T) {
        let mut q = self.inner.lock().expect("queue lock");
        if q.closed {
            return;
        }
        q.tasks.push_back(task);
        q.submitted += 1;
        drop(q);
        self.available.notify_one();
    }

    /// The oldest queued task, blocking while the queue is empty; `None`
    /// once the queue is closed.
    fn pop(&self) -> Option<T> {
        let mut q = self.inner.lock().expect("queue lock");
        loop {
            if let Some(task) = q.tasks.pop_front() {
                return Some(task);
            }
            if q.closed {
                return None;
            }
            q = self.available.wait(q).expect("queue lock");
        }
    }

    /// Closes the queue, drops (and counts) every task still queued, and
    /// wakes every parked worker so it can exit. Idempotent.
    fn abandon(&self) {
        let mut q = self.inner.lock().expect("queue lock");
        q.abandoned += q.tasks.len() as u64;
        q.tasks.clear();
        q.closed = true;
        drop(q);
        self.available.notify_all();
    }

    /// `(submitted, abandoned)` so far.
    fn counts(&self) -> (u64, u64) {
        let q = self.inner.lock().expect("queue lock");
        (q.submitted, q.abandoned)
    }
}

/// One accepted grid request: its compiled plan plus, per planned cell,
/// the slot that will (or already does) hold the result. Two positions
/// whose cells share a key and are not store hits share one slot. Lives
/// in `State::grids` from its POST until its stream ends or a newer POST
/// evicts it.
struct GridJob {
    plan: GridPlan,
    slots: Vec<Arc<CellSlot>>,
}

#[derive(Default)]
struct CellCounters {
    requested: AtomicU64,
    executed: AtomicU64,
    deduped: AtomicU64,
    cache_hits: AtomicU64,
}

struct State {
    store: CellStore,
    queue: TaskQueue<CellTask>,
    inflight: Mutex<HashMap<CellKey, Arc<CellSlot>>>,
    /// Grids posted whose stream has not ended yet, by id (ids rise with
    /// every POST, so the first entry is the oldest).
    grids: Mutex<BTreeMap<u64, Arc<GridJob>>>,
    next_grid: AtomicU64,
    stats: CellCounters,
    shutdown: AtomicBool,
    workers: usize,
}

/// A running sweep server. Dropping the handle does NOT stop the server;
/// call [`SweepServer::shutdown`] (or [`SweepServer::begin_shutdown`] +
/// [`SweepServer::join`]) for a graceful drain.
pub struct SweepServer {
    state: Arc<State>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl SweepServer {
    /// Opens the store, binds the listener, and starts the accept loop
    /// and the cell workers.
    pub fn start(config: ServerConfig) -> io::Result<SweepServer> {
        let store = CellStore::open(&config.store_dir)?;
        let worker_count = if config.workers > 0 {
            config.workers
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        };
        let state = Arc::new(State {
            store,
            queue: TaskQueue::new(),
            inflight: Mutex::new(HashMap::new()),
            grids: Mutex::new(BTreeMap::new()),
            next_grid: AtomicU64::new(0),
            stats: CellCounters::default(),
            shutdown: AtomicBool::new(false),
            workers: worker_count,
        });

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        let accept_state = Arc::clone(&state);
        let accept = std::thread::spawn(move || accept_loop(listener, accept_state));
        let workers = (0..worker_count)
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || worker_loop(state))
            })
            .collect();

        Ok(SweepServer {
            state,
            addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The address the listener actually bound (resolves `:0` ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The base URL clients should use.
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Starts a graceful drain: no new requests or cells are accepted,
    /// workers finish the cells they currently hold, queued cells are
    /// abandoned (their waiting streams emit an `aborted` event), and
    /// the store is left consistent. Returns immediately; use
    /// [`SweepServer::join`] to wait for the threads.
    pub fn begin_shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.state.queue.abandon();
        // Wake the accept loop, blocked in `accept()`: whatever
        // connection it takes next, it sees the flag and exits. A
        // wildcard bind is reached through loopback. Once the loop has
        // exited (a repeated call) the connect is refused, harmlessly.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
    }

    /// Waits for the accept loop and every cell worker to exit. Only
    /// returns promptly after [`SweepServer::begin_shutdown`].
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// [`SweepServer::begin_shutdown`] + [`SweepServer::join`].
    pub fn shutdown(self) {
        self.begin_shutdown();
        self.join();
    }

    /// Cells the queue abandoned unexecuted (meaningful after shutdown;
    /// the binary reports it on exit).
    pub fn abandoned_cells(&self) -> u64 {
        self.state.queue.counts().1
    }
}

/// Accepts connections until shutdown, one handler thread each.
/// [`SweepServer::begin_shutdown`] raises the flag and then connects, so
/// the blocked `accept()` returns and the loop exits. A connection that
/// lands after the flag rose is closed unanswered; the ones still in the
/// backlog are refused when the listener drops.
fn accept_loop(listener: TcpListener, state: Arc<State>) {
    loop {
        let accepted = listener.accept();
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let state = Arc::clone(&state);
                std::thread::spawn(move || {
                    // IO failures talking to one peer (dead client,
                    // mid-stream disconnect) are that connection's
                    // problem, never the server's.
                    let _ = serve_connection(stream, &state);
                });
            }
            // Out of descriptors or a similar host limit: back off
            // instead of spinning until a handler frees one.
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// One cell worker: drain the shared queue until it closes.
fn worker_loop(state: Arc<State>) {
    while let Some(task) = state.queue.pop() {
        let report = run_or_load_cell(Some(&state.store), &task.plan);
        if report.cached {
            state.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            state.stats.executed.fetch_add(1, Ordering::Relaxed);
        }
        task.slot.fill(report);
        // Leave single-flight only after the slot is filled (and the
        // store written, inside run_or_load_cell): a request landing in
        // any window either joins this slot or finds the store hit at
        // submit.
        state
            .inflight
            .lock()
            .expect("inflight lock")
            .remove(&task.plan.key);
    }
}

/// Registers a compiled plan: one slot per cell. Store hits get a
/// filled slot, the rest are deduplicated against everything already in
/// flight, and only new cells are pushed onto the queue.
fn submit_grid(state: &Arc<State>, plan: GridPlan) -> (u64, Arc<GridJob>) {
    // Store reads first, outside the lock: they touch the disk, and a
    // miss here that a worker's write turns into a hit a moment later is
    // caught by that worker's own store check.
    let stored: Vec<Option<RunReport>> = plan
        .cells
        .iter()
        .map(|cell| load_cell(&state.store, cell))
        .collect();
    let mut slots = Vec::with_capacity(plan.cells.len());
    {
        // One lock over the whole batch: the dedupe decision and the
        // inflight insertion must be atomic per key, and batching the
        // checks keeps two racing identical requests from interleaving
        // half-schedules.
        let mut inflight = state.inflight.lock().expect("inflight lock");
        for (cell, stored) in plan.cells.iter().zip(stored) {
            state.stats.requested.fetch_add(1, Ordering::Relaxed);
            if let Some(report) = stored {
                state.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                slots.push(Arc::new(CellSlot::new(Some(report))));
                continue;
            }
            let slot = match inflight.get(&cell.key) {
                Some(existing) => {
                    state.stats.deduped.fetch_add(1, Ordering::Relaxed);
                    Arc::clone(existing)
                }
                None => {
                    let slot = Arc::new(CellSlot::new(None));
                    inflight.insert(cell.key, Arc::clone(&slot));
                    // A closed queue (shutdown raced the request)
                    // drops the task; the waiter then aborts on the
                    // shutdown flag instead of hanging.
                    state.queue.push(CellTask {
                        plan: cell.clone(),
                        slot: Arc::clone(&slot),
                    });
                    slot
                }
            };
            slots.push(slot);
        }
    }
    let id = state.next_grid.fetch_add(1, Ordering::Relaxed) + 1;
    let job = Arc::new(GridJob { plan, slots });
    let mut grids = state.grids.lock().expect("grids lock");
    if grids.len() >= MAX_LIVE_GRIDS {
        grids.pop_first();
    }
    grids.insert(id, Arc::clone(&job));
    (id, job)
}

/// Reads one request off the connection and routes it.
fn serve_connection(stream: TcpStream, state: &Arc<State>) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    // Every response and chunk leaves in one write; Nagle's algorithm
    // could only delay it behind the peer's delayed ACK.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let request = match http::read_request(&mut reader) {
        Ok(request) => request,
        Err(RequestError::Eof) => return Ok(()),
        Err(RequestError::Io(e)) => return Err(e),
        Err(e @ RequestError::TooLarge(_)) => {
            return error_response(stream, 413, "Payload Too Large", &e.to_string());
        }
        Err(e @ RequestError::Malformed(_)) => {
            return error_response(stream, 400, "Bad Request", &e.to_string());
        }
    };
    route(stream, state, &request)
}

fn route(stream: TcpStream, state: &Arc<State>, request: &Request) -> io::Result<()> {
    let method = request.method.as_str();
    let path = request.path.as_str();
    match (method, path) {
        ("POST", "/v1/grids") => post_grid(stream, state, request),
        ("GET", "/v1/healthz") => {
            let mut stream = stream;
            http::write_response(
                &mut stream,
                200,
                "OK",
                &[("Content-Type", "text/plain")],
                b"ok\n",
            )
        }
        ("GET", "/v1/stats") => get_stats(stream, state),
        ("GET", _) if path.starts_with("/v1/grids/") => {
            get_grid_stream(stream, state, &path["/v1/grids/".len()..])
        }
        ("GET", _) if path.starts_with("/v1/cells/") => {
            get_cell(stream, state, request, &path["/v1/cells/".len()..])
        }
        (_, _)
            if path == "/v1/grids"
                || path == "/v1/healthz"
                || path == "/v1/stats"
                || path.starts_with("/v1/grids/")
                || path.starts_with("/v1/cells/") =>
        {
            error_response(stream, 405, "Method Not Allowed", "method not allowed here")
        }
        _ => error_response(stream, 404, "Not Found", "no such endpoint"),
    }
}

/// `POST /v1/grids`: parse, compile, dedupe-and-schedule, answer with
/// the job id.
fn post_grid(mut stream: TcpStream, state: &Arc<State>, request: &Request) -> io::Result<()> {
    if state.shutdown.load(Ordering::SeqCst) {
        return error_response(stream, 503, "Service Unavailable", "server is draining");
    }
    let body = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return error_response(stream, 400, "Bad Request", "body is not UTF-8"),
    };
    let grid_request: GridRequest = match serde_json::from_str(body) {
        Ok(r) => r,
        Err(e) => {
            return error_response(
                stream,
                400,
                "Bad Request",
                &format!("bad grid request: {e}"),
            );
        }
    };
    let grid = match grid_request.to_grid() {
        Ok(grid) => grid,
        Err(e) => return error_response(stream, 400, "Bad Request", &e),
    };
    let plan = match grid.plan() {
        Ok(plan) => plan,
        Err(e) => return error_response(stream, 400, "Bad Request", &e.to_string()),
    };
    let (id, job) = submit_grid(state, plan);
    let reply = serde_json::Value::Object(vec![
        ("id".into(), serde_json::Value::U64(id)),
        (
            "cells".into(),
            serde_json::Value::U64(job.plan.cells.len() as u64),
        ),
        (
            "url".into(),
            serde_json::Value::Str(format!("/v1/grids/{id}")),
        ),
    ]);
    let body = render_json_line(&reply);
    http::write_response(
        &mut stream,
        201,
        "Created",
        &[("Content-Type", "application/json")],
        body.as_bytes(),
    )
}

/// Drops a grid's job from `State::grids` when the stream serving it
/// ends, however it ends.
struct Release<'a> {
    state: &'a State,
    id: u64,
}

impl Drop for Release<'_> {
    fn drop(&mut self) {
        // No panic in drop: a poisoned map is still whole, since every
        // update to it is a single insert or remove.
        self.state
            .grids
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.id);
    }
}

/// `GET /v1/grids/{id}`: stream NDJSON progress in plan order, then the
/// final report. A stream is single-use: the job is released before the
/// final `report` or `aborted` event goes out (or when the stream breaks
/// off), so a client that saw the last event finds `/v1/stats` already
/// without it, and a repeat GET answers 404.
fn get_grid_stream(stream: TcpStream, state: &Arc<State>, id_text: &str) -> io::Result<()> {
    let Ok(id) = id_text.parse::<u64>() else {
        return error_response(stream, 400, "Bad Request", "grid id must be an integer");
    };
    let job = state.grids.lock().expect("grids lock").get(&id).cloned();
    let Some(job) = job else {
        return error_response(stream, 404, "Not Found", "no such grid");
    };
    let release = Release { state, id };

    let total = job.plan.cells.len();
    let mut chunks = http::start_chunked(
        stream,
        200,
        "OK",
        &[("Content-Type", "application/x-ndjson")],
    )?;
    let start = serde_json::Value::Object(vec![
        ("event".into(), serde_json::Value::Str("start".into())),
        ("id".into(), serde_json::Value::U64(id)),
        (
            "name".into(),
            serde_json::Value::Str(job.plan.header.name.clone()),
        ),
        ("cells".into(), serde_json::Value::U64(total as u64)),
    ]);
    chunks.chunk(render_json_line(&start).as_bytes())?;

    let mut cells = Vec::with_capacity(total);
    for (i, slot) in job.slots.iter().enumerate() {
        match slot.wait(&state.shutdown) {
            Some(report) => {
                let event = serde_json::Value::Object(vec![
                    ("event".into(), serde_json::Value::Str("cell".into())),
                    ("index".into(), serde_json::Value::U64(i as u64)),
                    (
                        "key".into(),
                        serde_json::Value::Str(job.plan.cells[i].key.to_hex()),
                    ),
                    ("cached".into(), serde_json::Value::Bool(report.cached)),
                    (
                        "runtime_ns".into(),
                        serde_json::Value::U64(report.runtime_ns()),
                    ),
                    ("done".into(), serde_json::Value::U64((i + 1) as u64)),
                    ("total".into(), serde_json::Value::U64(total as u64)),
                ]);
                chunks.chunk(render_json_line(&event).as_bytes())?;
                cells.push(report);
            }
            None => {
                drop(release);
                let aborted = serde_json::Value::Object(vec![
                    ("event".into(), serde_json::Value::Str("aborted".into())),
                    (
                        "reason".into(),
                        serde_json::Value::Str("server shutting down".into()),
                    ),
                    ("done".into(), serde_json::Value::U64(i as u64)),
                    ("total".into(), serde_json::Value::U64(total as u64)),
                ]);
                chunks.chunk(render_json_line(&aborted).as_bytes())?;
                return chunks.finish();
            }
        }
    }

    drop(release);
    let report = job.plan.report(cells);
    let final_event = serde_json::Value::Object(vec![
        ("event".into(), serde_json::Value::Str("report".into())),
        ("report".into(), serde_json::to_value(&report)),
    ]);
    chunks.chunk(render_json_line(&final_event).as_bytes())?;
    chunks.finish()
}

/// `GET /v1/cells/{key}`: one cached cell, with the `CELL_REV` lease
/// spelled out as a strong ETag so clients can revalidate for free.
fn get_cell(
    mut stream: TcpStream,
    state: &Arc<State>,
    request: &Request,
    key_text: &str,
) -> io::Result<()> {
    let Ok(key) = key_text.parse::<CellKey>() else {
        return error_response(stream, 400, "Bad Request", "cell key must be 32 hex digits");
    };
    let Some(cell) = state.store.load(key) else {
        return error_response(stream, 404, "Not Found", "cell not in store");
    };
    // The lease, client-visible: the entity changes iff the revision
    // does, since the key itself pins every other input.
    let etag = format!("\"{}-{}\"", CELL_REV, key.to_hex());
    let revalidated = request
        .header("if-none-match")
        .is_some_and(|v| v == "*" || v.split(',').any(|tag| tag.trim() == etag));
    if revalidated {
        return http::write_response(&mut stream, 304, "Not Modified", &[("ETag", &etag)], b"");
    }
    let body = serde_json::to_string_pretty(&serde_json::to_value(&cell))
        .expect("value rendering is infallible")
        + "\n";
    http::write_response(
        &mut stream,
        200,
        "OK",
        &[("Content-Type", "application/json"), ("ETag", &etag)],
        body.as_bytes(),
    )
}

/// `GET /v1/stats`: the cache counters, the queue's flow counts
/// (`submitted` counts cells queued: neither store hits nor dedupes), and
/// the number of live grids (posted, stream not yet ended, not evicted;
/// at most [`MAX_LIVE_GRIDS`]).
fn get_stats(mut stream: TcpStream, state: &Arc<State>) -> io::Result<()> {
    let (submitted, abandoned) = state.queue.counts();
    let cells = serde_json::Value::Object(vec![
        (
            "requested".into(),
            serde_json::Value::U64(state.stats.requested.load(Ordering::Relaxed)),
        ),
        (
            "executed".into(),
            serde_json::Value::U64(state.stats.executed.load(Ordering::Relaxed)),
        ),
        (
            "deduped".into(),
            serde_json::Value::U64(state.stats.deduped.load(Ordering::Relaxed)),
        ),
        (
            "cache_hits".into(),
            serde_json::Value::U64(state.stats.cache_hits.load(Ordering::Relaxed)),
        ),
    ]);
    let scheduler = serde_json::Value::Object(vec![
        ("submitted".into(), serde_json::Value::U64(submitted)),
        ("abandoned".into(), serde_json::Value::U64(abandoned)),
    ]);
    let stats = serde_json::Value::Object(vec![
        ("cells".into(), cells),
        ("scheduler".into(), scheduler),
        (
            "grids".into(),
            serde_json::Value::U64(state.grids.lock().expect("grids lock").len() as u64),
        ),
        (
            "workers".into(),
            serde_json::Value::U64(state.workers as u64),
        ),
    ]);
    let body = render_json_line(&stats);
    http::write_response(
        &mut stream,
        200,
        "OK",
        &[("Content-Type", "application/json")],
        body.as_bytes(),
    )
}

/// A JSON error body with the matching status.
fn error_response(
    mut stream: TcpStream,
    status: u16,
    reason: &str,
    detail: &str,
) -> io::Result<()> {
    let body = render_json_line(&serde_json::Value::Object(vec![(
        "error".into(),
        serde_json::Value::Str(detail.into()),
    )]));
    http::write_response(
        &mut stream,
        status,
        reason,
        &[("Content-Type", "application/json")],
        body.as_bytes(),
    )
}

/// Compact JSON + the newline NDJSON wants.
fn render_json_line(value: &serde_json::Value) -> String {
    serde_json::to_string(value).expect("value rendering is infallible") + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tasks_pop_in_fifo_order_across_grids() {
        let q = TaskQueue::new();
        // Two grid requests land one after the other: the first one's
        // cells all run before the second one's.
        for task in ["a0", "a1", "a2"] {
            q.push(task);
        }
        for task in ["b0", "b1"] {
            q.push(task);
        }
        let popped: Vec<_> = (0..5).map(|_| q.pop().expect("queued")).collect();
        assert_eq!(popped, ["a0", "a1", "a2", "b0", "b1"]);
        assert_eq!(q.counts(), (5, 0));
    }

    #[test]
    fn abandon_drops_and_counts_queued_tasks_and_wakes_parked_workers() {
        let q: Arc<TaskQueue<u32>> = Arc::new(TaskQueue::new());
        let parked: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        // Give the workers time to park on the empty queue; whether or
        // not they have, abandon must leave every one of them with `None`.
        std::thread::sleep(Duration::from_millis(20));
        q.abandon();
        for worker in parked {
            assert_eq!(worker.join().expect("worker thread"), None);
        }

        let q = TaskQueue::new();
        for task in 1..=4 {
            q.push(task);
        }
        assert_eq!(q.pop(), Some(1));
        q.abandon();
        assert_eq!(q.pop(), None, "queued tasks are dropped, not drained");
        assert_eq!(q.counts(), (4, 3));
        q.abandon();
        assert_eq!(q.counts(), (4, 3), "abandon is idempotent");
    }

    #[test]
    fn push_after_abandon_is_dropped() {
        let q = TaskQueue::new();
        q.abandon();
        q.push(7);
        assert_eq!(q.pop(), None);
        assert_eq!(q.counts(), (0, 0));
    }

    #[test]
    fn concurrent_workers_pop_every_task_exactly_once() {
        const TASKS: usize = 4_096;
        const WORKERS: usize = 4;
        let q: Arc<TaskQueue<Option<usize>>> = Arc::new(TaskQueue::new());
        let seen: Arc<Vec<AtomicU64>> = Arc::new((0..TASKS).map(|_| AtomicU64::new(0)).collect());
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let (q, seen) = (Arc::clone(&q), Arc::clone(&seen));
                // `None` is the stop marker, one per worker.
                std::thread::spawn(move || {
                    while let Some(Some(i)) = q.pop() {
                        seen[i].fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        // Workers are already popping (or parked) while tasks arrive.
        for i in 0..TASKS {
            q.push(Some(i));
        }
        for _ in 0..WORKERS {
            q.push(None);
        }
        for worker in workers {
            worker.join().expect("worker thread");
        }
        for (i, count) in seen.iter().enumerate() {
            assert_eq!(count.load(Ordering::Relaxed), 1, "task {i} popped once");
        }
        assert_eq!(q.counts(), ((TASKS + WORKERS) as u64, 0));
    }
}
