//! The blocking HTTP client behind `grid --remote`: submit a grid
//! request, follow the NDJSON progress stream, and hand back the final
//! [`GridReport`] — which, written with [`GridReport::to_json`], is
//! byte-identical to the artifact a local run of the same grid produces.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use tss::experiment::ExperimentGrid;
use tss::{GridReport, NetworkModelSpec, ProtocolKind, TopologyKind};
use tss_workloads::paper;

use crate::http::{self, ChunkedReader, ResponseHead};

/// A grid request on the wire: the same axes the shared bench CLI
/// exposes, as JSON. The bench CLI builds one value (`Cli::request`);
/// `grid --remote` posts it and the server compiles it with
/// [`GridRequest::to_grid`], while a local `Cli::grid` compiles the same
/// value itself — which is what makes remote and local artifacts
/// byte-identical.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct GridRequest {
    /// Report name (use the submitting binary's name, e.g. `"grid"`, so
    /// the remote artifact matches the local one).
    pub name: String,
    /// Workload scale factor.
    pub scale: f64,
    /// Protocol axis.
    pub protocols: Vec<ProtocolKind>,
    /// Topology axis.
    pub topologies: Vec<TopologyKind>,
    /// Network-model axis.
    pub nets: Vec<NetworkModelSpec>,
    /// Workload names ([`paper::select`] spelling; empty = all five).
    pub workloads: Vec<String>,
    /// Seed axis.
    pub seeds: Vec<u64>,
    /// §4.3 response-jitter bound (ns).
    pub perturbation_ns: u64,
    /// Perturbed runs per cell.
    pub perturbation_runs: u64,
}

impl GridRequest {
    /// Compiles the request into the [`ExperimentGrid`] a local run of
    /// the same axes would build.
    pub fn to_grid(&self) -> Result<ExperimentGrid, String> {
        let specs = paper::select(self.scale, &self.workloads)?;
        Ok(ExperimentGrid::new(self.name.clone())
            .protocols(self.protocols.iter().copied())
            .topologies(self.topologies.iter().copied())
            .nets(self.nets.iter().copied())
            .workloads(specs)
            .seeds(self.seeds.iter().copied())
            .perturbation(self.perturbation_ns, self.perturbation_runs))
    }
}

/// One `cell` progress event from the stream.
#[derive(Debug, Clone)]
pub struct ProgressEvent {
    /// Cell index in plan order.
    pub index: usize,
    /// The cell's content address (hex).
    pub key: String,
    /// Whether the server served it from its store.
    pub cached: bool,
    /// Cells finished so far.
    pub done: usize,
    /// Cells in the grid.
    pub total: usize,
}

/// Why a remote run failed.
#[derive(Debug)]
pub enum RemoteError {
    /// Could not reach or talk to the server.
    Io(std::io::Error),
    /// The server answered with an error status.
    Http {
        /// The status code.
        status: u16,
        /// The (JSON) error body.
        body: String,
    },
    /// The server's bytes were not the protocol this client speaks, or
    /// the stream ended early (including a server-side abort).
    Protocol(String),
}

impl From<std::io::Error> for RemoteError {
    fn from(e: std::io::Error) -> Self {
        RemoteError::Io(e)
    }
}

impl From<http::RequestError> for RemoteError {
    fn from(e: http::RequestError) -> Self {
        match e {
            http::RequestError::Io(e) => RemoteError::Io(e),
            other => RemoteError::Protocol(other.to_string()),
        }
    }
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Io(e) => write!(f, "cannot reach sweep-server: {e}"),
            RemoteError::Http { status, body } => {
                write!(f, "sweep-server answered {status}: {}", body.trim())
            }
            RemoteError::Protocol(what) => write!(f, "protocol error: {what}"),
        }
    }
}

impl std::error::Error for RemoteError {}

/// `http://host:port[/]` → `host:port`. Anything else is an error — the
/// client speaks exactly one scheme.
fn authority(base_url: &str) -> Result<String, RemoteError> {
    let rest = base_url.strip_prefix("http://").ok_or_else(|| {
        RemoteError::Protocol(format!("--remote wants http://host:port, got {base_url:?}"))
    })?;
    let rest = rest.trim_end_matches('/');
    if rest.is_empty() || rest.contains('/') {
        return Err(RemoteError::Protocol(format!(
            "--remote wants http://host:port, got {base_url:?}"
        )));
    }
    Ok(rest.to_string())
}

/// A fresh connection to the server, with Nagle's algorithm off: every
/// request leaves in one write, and nothing on this side should hold it
/// back waiting for an ACK.
fn connect(authority: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(authority)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// One non-streaming exchange on a fresh connection. The request goes
/// out in a single write.
fn exchange(
    authority: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> Result<(ResponseHead, Vec<u8>), RemoteError> {
    let mut stream = connect(authority)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut request = format!("{method} {path} HTTP/1.1\r\nHost: {authority}\r\n");
    for (name, value) in headers {
        request.push_str(&format!("{name}: {value}\r\n"));
    }
    request.push_str(&format!(
        "Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    ));
    let mut request = request.into_bytes();
    request.extend_from_slice(body);
    stream.write_all(&request)?;
    let mut reader = BufReader::new(stream);
    let head = http::read_response_head(&mut reader)?;
    let body = http::read_body(&mut reader, &head)?;
    Ok((head, body))
}

/// A plain GET against the server (used by tests, the stats probe, and
/// anything that wants a raw endpoint). Extra headers ride along —
/// `If-None-Match` is the interesting one.
pub fn get(
    base_url: &str,
    path: &str,
    headers: &[(&str, &str)],
) -> Result<(ResponseHead, Vec<u8>), RemoteError> {
    let authority = authority(base_url)?;
    exchange(&authority, "GET", path, headers, b"")
}

/// Submits `request`, follows the progress stream (invoking
/// `on_progress` per finished cell), and returns the final report.
pub fn run_remote(
    base_url: &str,
    request: &GridRequest,
    mut on_progress: impl FnMut(&ProgressEvent),
) -> Result<GridReport, RemoteError> {
    let authority = authority(base_url)?;

    // Submit.
    let body = serde_json::to_string(&serde_json::to_value(request))
        .expect("value rendering is infallible");
    let (head, reply) = exchange(
        &authority,
        "POST",
        "/v1/grids",
        &[("Content-Type", "application/json")],
        body.as_bytes(),
    )?;
    if head.status != 201 {
        return Err(RemoteError::Http {
            status: head.status,
            body: String::from_utf8_lossy(&reply).into_owned(),
        });
    }
    let reply: serde_json::Value = serde_json::from_str(&String::from_utf8_lossy(&reply))
        .map_err(|e| RemoteError::Protocol(format!("bad submit reply: {e}")))?;
    let Some(serde_json::Value::U64(id)) = reply.get("id") else {
        return Err(RemoteError::Protocol("submit reply carries no id".into()));
    };

    // Stream. No read timeout here: between events the server is
    // legitimately silent for as long as one cell simulates.
    let mut stream = connect(&authority)?;
    let request =
        format!("GET /v1/grids/{id} HTTP/1.1\r\nHost: {authority}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut reader = BufReader::new(stream);
    let head = http::read_response_head(&mut reader)?;
    if head.status != 200 {
        let body = http::read_body(&mut reader, &head)?;
        return Err(RemoteError::Http {
            status: head.status,
            body: String::from_utf8_lossy(&body).into_owned(),
        });
    }
    if !head.is_chunked() {
        return Err(RemoteError::Protocol(
            "progress stream is not chunked".into(),
        ));
    }

    let mut lines = BufReader::new(ChunkedReader::new(&mut reader));
    let mut line = String::new();
    loop {
        line.clear();
        if lines.read_line(&mut line)? == 0 {
            return Err(RemoteError::Protocol(
                "stream ended before the final report".into(),
            ));
        }
        if line.trim().is_empty() {
            continue;
        }
        let event: serde_json::Value = serde_json::from_str(&line)
            .map_err(|e| RemoteError::Protocol(format!("bad event line: {e}")))?;
        let kind = match event.get("event") {
            Some(serde_json::Value::Str(kind)) => kind.as_str(),
            _ => return Err(RemoteError::Protocol("event line without a kind".into())),
        };
        match kind {
            "cell" => {
                let get_u64 = |name: &str| match event.get(name) {
                    Some(serde_json::Value::U64(n)) => *n as usize,
                    _ => 0,
                };
                let progress = ProgressEvent {
                    index: get_u64("index"),
                    key: match event.get("key") {
                        Some(serde_json::Value::Str(k)) => k.clone(),
                        _ => String::new(),
                    },
                    cached: event.get("cached") == Some(&serde_json::Value::Bool(true)),
                    done: get_u64("done"),
                    total: get_u64("total"),
                };
                on_progress(&progress);
            }
            "report" => {
                let report_value = event
                    .get("report")
                    .ok_or_else(|| RemoteError::Protocol("report event without a report".into()))?;
                return serde_json::from_value::<GridReport>(report_value)
                    .map_err(|e| RemoteError::Protocol(format!("bad final report: {e}")));
            }
            "aborted" => {
                let reason = match event.get("reason") {
                    Some(serde_json::Value::Str(reason)) => reason.clone(),
                    _ => "unknown".into(),
                };
                return Err(RemoteError::Protocol(format!(
                    "server aborted the grid: {reason}"
                )));
            }
            // "start" and any future event kinds: informational.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn authority_accepts_exactly_http_host_port() {
        assert_eq!(
            authority("http://127.0.0.1:7070").unwrap(),
            "127.0.0.1:7070"
        );
        assert_eq!(authority("http://[::1]:7070/").unwrap(), "[::1]:7070");
        for bad in ["https://x:1", "127.0.0.1:7070", "http://", "http://h:1/v1"] {
            assert!(authority(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn grid_request_round_trips_through_json() {
        let request = GridRequest {
            name: "grid".into(),
            scale: 0.002,
            protocols: ProtocolKind::ALL.to_vec(),
            topologies: TopologyKind::PAPER.to_vec(),
            nets: vec![NetworkModelSpec::Fast, NetworkModelSpec::detailed(5)],
            workloads: vec!["barnes".into()],
            seeds: vec![7],
            perturbation_ns: 4,
            perturbation_runs: 3,
        };
        let text = serde_json::to_string(&serde_json::to_value(&request)).unwrap();
        let back: GridRequest = serde_json::from_str(&text).unwrap();
        assert_eq!(back.name, "grid");
        assert_eq!(back.protocols, request.protocols);
        assert_eq!(back.topologies, request.topologies);
        assert_eq!(back.nets, request.nets);
        assert_eq!(back.workloads, request.workloads);
        assert_eq!(back.seeds, vec![7]);
    }

    #[test]
    fn to_grid_validates_workload_names() {
        let mut request = GridRequest {
            name: "grid".into(),
            scale: 0.002,
            protocols: ProtocolKind::ALL.to_vec(),
            topologies: TopologyKind::PAPER.to_vec(),
            nets: vec![NetworkModelSpec::Fast],
            workloads: vec!["specint".into()],
            seeds: vec![0],
            perturbation_ns: 4,
            perturbation_runs: 3,
        };
        assert!(request.to_grid().unwrap_err().contains("unknown workload"));
        request.workloads = vec!["barnes".into()];
        let plan = request.to_grid().unwrap().plan().unwrap();
        assert_eq!(plan.cells.len(), 6); // 3 protocols x 2 topologies
        assert_eq!(plan.header.workloads, vec!["Barnes".to_string()]);
    }
}
