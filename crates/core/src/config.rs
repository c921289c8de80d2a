//! System configuration: what a run *is*, separated from how it executes.
//!
//! The knobs mirror the paper's §4.2 setup: a coherence protocol
//! ([`ProtocolKind`], §4.2 "Protocols"), an interconnect
//! ([`TopologyKind`], §4.2 "Networks" / Figure 2), the Table 2 timing
//! constants ([`Timing`]), an address-network model
//! ([`NetworkModelSpec`] — the fast unloaded closed form the paper
//! evaluates with, or the detailed token network with an optional
//! contention axis), and the §4.3 methodology fields (perturbation bound,
//! stream and seed). [`SystemConfig`] is the validated product of a
//! [`crate::SystemBuilder`]; every consistency rule lives in
//! [`SystemConfig::validate`] and reports a typed [`ConfigError`] instead
//! of panicking mid-run.
//!
//! Everything here is serde-serializable with a flat, human-editable JSON
//! shape: enums that carry data ([`TopologyKind`], [`NetworkModelSpec`])
//! serialize as their canonical `Display` strings, which `FromStr` parses
//! back — the same spellings the bench CLI accepts.

use std::fmt;
use std::str::FromStr;

use tss_net::Fabric;
use tss_proto::CacheConfig;
use tss_sim::Duration;

/// Which coherence protocol to run (§4.2 "Protocols").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ProtocolKind {
    /// Timestamp snooping (the paper's contribution).
    TsSnoop,
    /// SGI-Origin-style directory with nacks.
    DirClassic,
    /// Nack-free directory with an ordered forward network.
    DirOpt,
    /// Timestamp-lease coherence over plain unicast (Tardis): no
    /// broadcast, no invalidations — shared copies expire in logical
    /// time and renew their leases from home.
    Tardis,
}

impl ProtocolKind {
    /// The paper's three protocols, in Figure 3 legend order. This is
    /// the default grid axis behind every committed artifact, so it
    /// deliberately excludes [`ProtocolKind::Tardis`]; use
    /// [`ProtocolKind::WITH_TARDIS`] for the four-way comparison.
    pub const ALL: [ProtocolKind; 3] = [
        ProtocolKind::TsSnoop,
        ProtocolKind::DirClassic,
        ProtocolKind::DirOpt,
    ];

    /// All four protocols: the paper's three plus Tardis.
    pub const WITH_TARDIS: [ProtocolKind; 4] = [
        ProtocolKind::TsSnoop,
        ProtocolKind::DirClassic,
        ProtocolKind::DirOpt,
        ProtocolKind::Tardis,
    ];
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProtocolKind::TsSnoop => "TS-Snoop",
            ProtocolKind::DirClassic => "DirClassic",
            ProtocolKind::DirOpt => "DirOpt",
            ProtocolKind::Tardis => "Tardis",
        };
        f.write_str(s)
    }
}

impl FromStr for ProtocolKind {
    type Err = ConfigError;

    /// Parses the CLI spellings: `ts-snoop`, `dir-classic`, `dir-opt`,
    /// `tardis` (case-insensitive, hyphens optional).
    fn from_str(s: &str) -> Result<Self, ConfigError> {
        let folded: String = s
            .chars()
            .filter(|c| *c != '-' && *c != '_')
            .flat_map(char::to_lowercase)
            .collect();
        match folded.as_str() {
            "tssnoop" | "ts" | "snoop" => Ok(ProtocolKind::TsSnoop),
            "dirclassic" | "classic" => Ok(ProtocolKind::DirClassic),
            "diropt" | "opt" => Ok(ProtocolKind::DirOpt),
            "tardis" | "lease" => Ok(ProtocolKind::Tardis),
            _ => Err(ConfigError::UnknownName {
                what: "protocol",
                given: s.to_string(),
                expected: "ts-snoop, dir-classic, dir-opt, tardis",
            }),
        }
    }
}

/// Which interconnect to build (§4.2 "Networks", Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// Four parallel radix-4 butterflies over 16 nodes.
    Butterfly16,
    /// A 4×4 bidirectional torus.
    Torus4x4,
    /// A custom butterfly (scaling ablations).
    Butterfly {
        /// Switch radix.
        radix: u32,
        /// Stage count (`nodes = radix^stages`).
        stages: u32,
        /// Parallel plane count.
        planes: u32,
    },
    /// A custom torus (scaling ablations).
    Torus {
        /// Mesh width.
        width: u32,
        /// Mesh height.
        height: u32,
    },
}

impl TopologyKind {
    /// The two paper-evaluated fabrics, in Figure 2 order.
    pub const PAPER: [TopologyKind; 2] = [TopologyKind::Butterfly16, TopologyKind::Torus4x4];

    /// Builds the fabric.
    ///
    /// # Panics
    ///
    /// Panics on degenerate shapes; call [`TopologyKind::validate`] first
    /// (the [`crate::SystemBuilder`] does) for a typed error instead.
    pub fn build(self) -> Fabric {
        match self {
            TopologyKind::Butterfly16 => Fabric::butterfly16(),
            TopologyKind::Torus4x4 => Fabric::torus4x4(),
            TopologyKind::Butterfly {
                radix,
                stages,
                planes,
            } => Fabric::butterfly(radix, stages, planes),
            TopologyKind::Torus { width, height } => Fabric::torus(width, height),
        }
    }

    /// Checks the shape is buildable and returns its node count.
    ///
    /// Rejects degenerate dimensions (zero/one-wide tori, radix < 2
    /// butterflies, zero stages or planes) and node counts that overflow
    /// the `u16` node-id space.
    pub fn validate(self) -> Result<u64, ConfigError> {
        let nodes = match self {
            TopologyKind::Butterfly16 | TopologyKind::Torus4x4 => 16,
            TopologyKind::Butterfly {
                radix,
                stages,
                planes,
            } => {
                if radix < 2 || stages == 0 || planes == 0 {
                    return Err(ConfigError::DegenerateTopology {
                        topology: format!("{self:?}"),
                        reason: "butterflies need radix >= 2, stages >= 1, planes >= 1",
                    });
                }
                u64::from(radix)
                    .checked_pow(stages)
                    .ok_or(ConfigError::DegenerateTopology {
                        topology: format!("{self:?}"),
                        reason: "radix^stages overflows",
                    })?
            }
            TopologyKind::Torus { width, height } => {
                if width < 2 || height < 2 {
                    return Err(ConfigError::DegenerateTopology {
                        topology: format!("{self:?}"),
                        reason: "tori need width >= 2 and height >= 2",
                    });
                }
                u64::from(width) * u64::from(height)
            }
        };
        if nodes > u64::from(u16::MAX) {
            return Err(ConfigError::TooManyNodes {
                nodes,
                max: u64::from(u16::MAX),
            });
        }
        Ok(nodes)
    }

    /// Short label for tables ("butterfly" / "torus").
    pub fn label(self) -> &'static str {
        match self {
            TopologyKind::Butterfly16 | TopologyKind::Butterfly { .. } => "butterfly",
            TopologyKind::Torus4x4 | TopologyKind::Torus { .. } => "torus",
        }
    }
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyKind::Butterfly16 => f.write_str("butterfly16"),
            TopologyKind::Torus4x4 => f.write_str("torus4x4"),
            TopologyKind::Butterfly {
                radix,
                stages,
                planes,
            } => {
                write!(f, "butterfly:{radix}x{stages}x{planes}")
            }
            TopologyKind::Torus { width, height } => write!(f, "torus:{width}x{height}"),
        }
    }
}

impl FromStr for TopologyKind {
    type Err = ConfigError;

    /// Parses the CLI spellings: `butterfly` / `butterfly16`, `torus` /
    /// `torus4x4`, `torus:WxH`, and `butterfly:RADIXxSTAGESxPLANES`.
    fn from_str(s: &str) -> Result<Self, ConfigError> {
        let unknown = || ConfigError::UnknownName {
            what: "topology",
            given: s.to_string(),
            expected: "butterfly[16], torus[4x4], torus:WxH, butterfly:RxSxP",
        };
        let lower = s.to_ascii_lowercase();
        match lower.as_str() {
            "butterfly" | "butterfly16" => return Ok(TopologyKind::Butterfly16),
            "torus" | "torus4x4" => return Ok(TopologyKind::Torus4x4),
            _ => {}
        }
        if let Some(dims) = lower.strip_prefix("torus:") {
            let parts: Vec<u32> = dims
                .split('x')
                .map(|p| p.parse().map_err(|_| unknown()))
                .collect::<Result<_, _>>()?;
            if let [width, height] = parts[..] {
                return Ok(TopologyKind::Torus { width, height });
            }
        }
        if let Some(dims) = lower.strip_prefix("butterfly:") {
            let parts: Vec<u32> = dims
                .split('x')
                .map(|p| p.parse().map_err(|_| unknown()))
                .collect::<Result<_, _>>()?;
            if let [radix, stages, planes] = parts[..] {
                return Ok(TopologyKind::Butterfly {
                    radix,
                    stages,
                    planes,
                });
            }
        }
        Err(unknown())
    }
}

// TopologyKind carries data in two variants, so the derive (unit variants
// only) does not apply; serialize as the canonical display string, which
// `FromStr` parses back — keeping the JSON schema flat and human-editable.
impl serde::Serialize for TopologyKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.to_string())
    }
}

impl serde::Deserialize for TopologyKind {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Str(s) => s.parse().map_err(|e: ConfigError| serde::Error::msg(e)),
            _ => Err(serde::Error::msg("expected a topology string")),
        }
    }
}

/// Which model simulates the timestamp-ordered address network (§2.2).
///
/// The address network is the snooping broadcast fabric that assigns
/// ordering times; directory protocols never build one, so this spec only
/// affects TS-Snoop runs. Both models are implemented behind the
/// [`crate::address_net::AddressNet`] trait:
///
/// * [`Fast`](NetworkModelSpec::Fast) — the closed-form unloaded model
///   ([`tss_net::FastOrderedNet`]): the paper's own evaluation assumption
///   (§4.3 models "unloaded network latencies \[and\] timestamp snooping
///   ordering delays" but no contention). Every broadcast's ordering
///   instant is computed analytically; simulation cost is O(1) per
///   broadcast.
/// * [`Detailed`](NetworkModelSpec::Detailed) — the literal token-passing
///   network ([`tss_net::MultiPlaneNet`] over [`tss_net::DetailedNet`]):
///   every token and transaction hop is simulated, one plane per fabric
///   plane with round-robin injection, and positive `link_occupancy`
///   creates the queueing/GT-stall feedback the paper's evaluation leaves
///   out. Much slower, measured by the `contention` bench binary.
///
/// The canonical string form (used by serde, `Display`, `FromStr`, and
/// the CLI `--net` flag) is `fast` or
/// `detailed:occ=<ns>,slack=<ticks>,depth=<entries>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NetworkModelSpec {
    /// Closed-form unloaded ordering (the paper's evaluation model).
    #[default]
    Fast,
    /// Switch-by-switch token-passing simulation with optional contention.
    Detailed {
        /// Minimum spacing between two transactions entering one link;
        /// `0` reproduces the paper's unloaded assumption, positive values
        /// create contention (the `--contention` axis).
        link_occupancy: Duration,
        /// Initial slack `S` assigned at injection (§2.2: "setting S to a
        /// small positive value allows GTs to advance during moderate
        /// network contention"). Must be ≥ 1 whenever `link_occupancy`
        /// is positive.
        initial_slack: u64,
        /// Provisioned per-fabric switch buffering: the run panics if any
        /// switch ever holds more transaction copies than this (§2.2
        /// "Buffering" — the paper argues modest buffers suffice; this
        /// knob turns that argument into a checked invariant).
        buffer_depth: u32,
    },
}

impl NetworkModelSpec {
    /// Default slack for detailed runs (matches
    /// [`tss_net::DetailedNetConfig::default`]).
    pub const DEFAULT_SLACK: u64 = 2;
    /// Default provisioned switch buffering for detailed runs — generous
    /// enough that unloaded and moderately contended runs never trip it.
    pub const DEFAULT_BUFFER_DEPTH: u32 = 64;

    /// A detailed spec with the given link occupancy and default slack
    /// and buffering — what the CLI's `--contention <ns>` produces.
    pub fn detailed(occupancy_ns: u64) -> NetworkModelSpec {
        NetworkModelSpec::Detailed {
            link_occupancy: Duration::from_ns(occupancy_ns),
            initial_slack: Self::DEFAULT_SLACK,
            buffer_depth: Self::DEFAULT_BUFFER_DEPTH,
        }
    }

    /// Whether this is the detailed (token-simulating) model.
    pub fn is_detailed(&self) -> bool {
        matches!(self, NetworkModelSpec::Detailed { .. })
    }

    /// Short label for tables ("fast" / "detailed").
    pub fn label(&self) -> &'static str {
        match self {
            NetworkModelSpec::Fast => "fast",
            NetworkModelSpec::Detailed { .. } => "detailed",
        }
    }
}

impl fmt::Display for NetworkModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkModelSpec::Fast => f.write_str("fast"),
            NetworkModelSpec::Detailed {
                link_occupancy,
                initial_slack,
                buffer_depth,
            } => write!(
                f,
                "detailed:occ={},slack={initial_slack},depth={buffer_depth}",
                link_occupancy.as_ns()
            ),
        }
    }
}

impl FromStr for NetworkModelSpec {
    type Err = ConfigError;

    /// Parses the CLI spellings: `fast`, `detailed` (defaults), and
    /// `detailed:occ=<ns>,slack=<ticks>,depth=<entries>` with any subset
    /// of the three keys.
    fn from_str(s: &str) -> Result<Self, ConfigError> {
        let unknown = || ConfigError::UnknownName {
            what: "network model",
            given: s.to_string(),
            expected: "fast, detailed, detailed:occ=<ns>,slack=<ticks>,depth=<entries>",
        };
        let lower = s.to_ascii_lowercase();
        match lower.as_str() {
            "fast" => return Ok(NetworkModelSpec::Fast),
            "detailed" => return Ok(NetworkModelSpec::detailed(0)),
            _ => {}
        }
        let Some(fields) = lower.strip_prefix("detailed:") else {
            return Err(unknown());
        };
        let (mut occ, mut slack, mut depth) = (
            0u64,
            NetworkModelSpec::DEFAULT_SLACK,
            NetworkModelSpec::DEFAULT_BUFFER_DEPTH,
        );
        for field in fields.split(',') {
            let (key, value) = field.split_once('=').ok_or_else(unknown)?;
            match key {
                "occ" => occ = value.parse().map_err(|_| unknown())?,
                "slack" => slack = value.parse().map_err(|_| unknown())?,
                "depth" => depth = value.parse().map_err(|_| unknown())?,
                _ => return Err(unknown()),
            }
        }
        Ok(NetworkModelSpec::Detailed {
            link_occupancy: Duration::from_ns(occ),
            initial_slack: slack,
            buffer_depth: depth,
        })
    }
}

// Like TopologyKind, the enum carries data, so the unit-variant-only
// derive does not apply; serialize as the canonical display string, which
// `FromStr` parses back — keeping the JSON schema flat and human-editable.
impl serde::Serialize for NetworkModelSpec {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.to_string())
    }
}

impl serde::Deserialize for NetworkModelSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Str(s) => s.parse().map_err(|e: ConfigError| serde::Error::msg(e)),
            _ => Err(serde::Error::msg("expected a network model string")),
        }
    }
}

/// Why a configuration was rejected at build time.
///
/// Returned by [`crate::SystemBuilder::build`] and
/// [`crate::experiment::ExperimentGrid::run`] instead of panicking
/// mid-run the way raw `SystemConfig` field-poking used to.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A topology with impossible dimensions (zero-wide torus, radix-1
    /// butterfly, overflowing stage count).
    DegenerateTopology {
        /// The offending shape.
        topology: String,
        /// What is wrong with it.
        reason: &'static str,
    },
    /// Node count exceeds the `u16` node-id space.
    TooManyNodes {
        /// Requested node count.
        nodes: u64,
        /// The representable maximum.
        max: u64,
    },
    /// `instructions_per_ns` is zero: CPUs would never retire anything.
    ZeroProcessorRate,
    /// The timestamp network's logical tick must be a positive duration.
    ZeroTick,
    /// Cache geometry that cannot hold a single block.
    BadCacheGeometry {
        /// What is wrong with it.
        reason: &'static str,
    },
    /// A workload that issues no references, or has an all-zero/invalid
    /// class-weight mix (e.g. built with a zero or negative scale).
    EmptyWorkload {
        /// The workload's name.
        name: String,
        /// What is wrong with it.
        reason: &'static str,
    },
    /// More per-CPU traces than the topology has nodes.
    TooManyTraces {
        /// Supplied trace count.
        traces: usize,
        /// Topology node count.
        nodes: usize,
    },
    /// An experiment grid axis (protocols, topologies, workloads, seeds)
    /// is empty, so the grid has no cells.
    EmptyAxis {
        /// The axis missing entries.
        axis: &'static str,
    },
    /// The §4.3 methodology needs at least one perturbation run.
    ZeroPerturbationRuns,
    /// A grid shard request that cannot partition the cell list:
    /// `total == 0`, or `index >= total`.
    BadShard {
        /// Requested shard index.
        index: u32,
        /// Requested partition count.
        total: u32,
    },
    /// The cell-store directory behind `ExperimentGrid::resume` could not
    /// be opened or created.
    BadResumeDir {
        /// The directory that failed.
        path: String,
        /// The underlying IO error.
        reason: String,
    },
    /// A [`NetworkModelSpec`] the detailed token network cannot honour
    /// (zero link latency, contention without slack headroom, zero
    /// buffer provisioning).
    BadNetworkModel {
        /// What is wrong with it.
        reason: &'static str,
    },
    /// An unrecognised protocol/topology/workload name (CLI parsing).
    UnknownName {
        /// What kind of name was being parsed.
        what: &'static str,
        /// The string that failed to parse.
        given: String,
        /// The accepted spellings.
        expected: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::DegenerateTopology { topology, reason } => {
                write!(f, "degenerate topology {topology}: {reason}")
            }
            ConfigError::TooManyNodes { nodes, max } => {
                write!(f, "{nodes} nodes exceed the {max}-node id space")
            }
            ConfigError::ZeroProcessorRate => f.write_str("instructions_per_ns must be positive"),
            ConfigError::ZeroTick => {
                f.write_str("the timestamp network tick must be a positive duration")
            }
            ConfigError::BadCacheGeometry { reason } => {
                write!(f, "bad cache geometry: {reason}")
            }
            ConfigError::EmptyWorkload { name, reason } => {
                write!(f, "workload {name:?} is empty: {reason}")
            }
            ConfigError::TooManyTraces { traces, nodes } => {
                write!(f, "{traces} traces for a {nodes}-node topology")
            }
            ConfigError::EmptyAxis { axis } => {
                write!(f, "experiment grid axis {axis:?} has no entries")
            }
            ConfigError::ZeroPerturbationRuns => {
                f.write_str("the §4.3 methodology needs at least one perturbation run")
            }
            ConfigError::BadShard { index, total } => {
                write!(
                    f,
                    "shard {index}/{total} cannot partition the grid: need total >= 1 \
                     and index < total"
                )
            }
            ConfigError::BadResumeDir { path, reason } => {
                write!(f, "cannot open cell store {path:?}: {reason}")
            }
            ConfigError::BadNetworkModel { reason } => {
                write!(f, "bad network model: {reason}")
            }
            ConfigError::UnknownName {
                what,
                given,
                expected,
            } => {
                write!(f, "unknown {what} {given:?} (expected one of: {expected})")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// All timing knobs, defaulting to Table 2.
#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
pub struct Timing {
    /// Enter/exit the network (`D_ovh`).
    pub d_ovh: Duration,
    /// Per-link/switch traversal (`D_switch`).
    pub d_switch: Duration,
    /// Directory/memory access (`D_mem`).
    pub d_mem: Duration,
    /// Cache access from the network (`D_cache`).
    pub d_cache: Duration,
    /// Logical-tick period of the timestamp network.
    pub tick: Duration,
    /// Initial slack `S` at injection.
    pub initial_slack: u64,
    /// §3 optimisation 1 (prefetch on early arrival).
    pub prefetch: bool,
}

impl Default for Timing {
    fn default() -> Self {
        Timing {
            d_ovh: Duration::from_ns(4),
            d_switch: Duration::from_ns(15),
            d_mem: Duration::from_ns(80),
            d_cache: Duration::from_ns(25),
            tick: Duration::from_ns(1),
            initial_slack: 0,
            prefetch: true,
        }
    }
}

/// Full system configuration — the *validated product* of a
/// [`crate::SystemBuilder`].
///
/// Constructing one directly (or via the presets) and poking fields still
/// works for tests and internal callers, but the builder is the public
/// construction path: it funnels every consistency rule through
/// [`SystemConfig::validate`] and reports [`ConfigError`]s instead of
/// panicking mid-run.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Coherence protocol.
    pub protocol: ProtocolKind,
    /// Interconnect topology.
    pub topology: TopologyKind,
    /// L2 cache geometry (paper: 4 MB, 4-way, 64 B blocks).
    pub cache: CacheConfig,
    /// Network and controller timing (Table 2).
    pub timing: Timing,
    /// Which model simulates the timestamp-ordered address network
    /// (TS-Snoop only; directory protocols never build one).
    pub net: NetworkModelSpec,
    /// Processor speed: instructions completed per nanosecond with a
    /// perfect memory system (paper: 4).
    pub instructions_per_ns: u64,
    /// Maximum uniform random delay added to every protocol response
    /// (the §4.3 perturbation methodology); 0 disables.
    pub perturbation_ns: u64,
    /// Which independent jitter sequence to draw perturbation noise from.
    /// The §4.3 methodology re-runs a configuration varying ONLY this
    /// stream id, so the workload (keyed by `seed`) stays fixed while
    /// response timing moves.
    pub perturbation_stream: u64,
    /// Seed for workload generation and perturbation.
    pub seed: u64,
    /// Enable the coherence checker (tests on; long benchmark runs off).
    pub verify: bool,
    /// Record per-operation observed values (litmus tests only — memory
    /// heavy on long runs).
    pub record_observations: bool,
    /// Raw [`tss_sim::Gt`] value every guarantee-time counter starts at.
    /// `0` in normal runs; set near `Gt::TICK_MASK` to start a run just
    /// below the era rollover and stress the wraparound-safe ordering.
    ///
    /// This is a *harness* knob, not part of a configuration's identity:
    /// results are provably origin-invariant (the CI wraparound check
    /// compares a rollover-seeded run byte-for-byte against origin 0), so
    /// the manual [`serde::Serialize`] impl below excludes it and cell
    /// keys stay unchanged.
    pub gt_origin: u64,
    /// Ignored: every simulation runs its event loop on one thread. The
    /// benchmark package's mirror of `System::run` still reads it; remove
    /// the field together with that read. Excluded from the serialized
    /// identity like `gt_origin`.
    pub threads: usize,
}

// Manual impl instead of the derive so `gt_origin` and `threads` stay out
// of the serialized form (see their docs). Field order must track
// declaration order exactly — cell keys hash this serialization.
impl serde::Serialize for SystemConfig {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("protocol".into(), self.protocol.to_value()),
            ("topology".into(), self.topology.to_value()),
            ("cache".into(), self.cache.to_value()),
            ("timing".into(), self.timing.to_value()),
            ("net".into(), self.net.to_value()),
            (
                "instructions_per_ns".into(),
                self.instructions_per_ns.to_value(),
            ),
            ("perturbation_ns".into(), self.perturbation_ns.to_value()),
            (
                "perturbation_stream".into(),
                self.perturbation_stream.to_value(),
            ),
            ("seed".into(), self.seed.to_value()),
            ("verify".into(), self.verify.to_value()),
            (
                "record_observations".into(),
                self.record_observations.to_value(),
            ),
        ])
    }
}

impl SystemConfig {
    /// The paper's baseline: 16 nodes, Table 2 timing, 4 MB caches.
    pub fn paper_default(protocol: ProtocolKind, topology: TopologyKind) -> Self {
        SystemConfig {
            protocol,
            topology,
            cache: CacheConfig::paper_default(),
            timing: Timing::default(),
            net: NetworkModelSpec::Fast,
            instructions_per_ns: 4,
            perturbation_ns: 0,
            perturbation_stream: 0,
            seed: 0,
            verify: false,
            record_observations: false,
            gt_origin: 0,
            threads: 0,
        }
    }

    /// A small verified configuration for tests: tiny caches so evictions
    /// and writebacks are exercised, checker on.
    pub fn test_default(protocol: ProtocolKind, topology: TopologyKind) -> Self {
        SystemConfig {
            cache: CacheConfig::tiny(256, 4),
            verify: true,
            ..SystemConfig::paper_default(protocol, topology)
        }
    }

    /// Checks every consistency rule the builder enforces and returns the
    /// topology's node count.
    pub fn validate(&self) -> Result<u64, ConfigError> {
        let nodes = self.topology.validate()?;
        if self.instructions_per_ns == 0 {
            return Err(ConfigError::ZeroProcessorRate);
        }
        if self.timing.tick == Duration::ZERO {
            return Err(ConfigError::ZeroTick);
        }
        if self.cache.block_bytes == 0 {
            return Err(ConfigError::BadCacheGeometry {
                reason: "block size is zero",
            });
        }
        if self.cache.ways == 0 {
            return Err(ConfigError::BadCacheGeometry {
                reason: "associativity is zero",
            });
        }
        if self.cache.sets() == 0 {
            return Err(ConfigError::BadCacheGeometry {
                reason: "capacity below one block per way",
            });
        }
        if let NetworkModelSpec::Detailed {
            link_occupancy,
            initial_slack,
            buffer_depth,
        } = self.net
        {
            // The detailed network charges a uniform `d_switch` per link —
            // for transactions and the token wave alike — so a zero link
            // latency would collapse its cadence to nothing.
            if self.timing.d_switch == Duration::ZERO {
                return Err(ConfigError::BadNetworkModel {
                    reason: "zero link latency (timing.d_switch): the token wave \
                             needs a positive per-link cadence",
                });
            }
            if buffer_depth == 0 {
                return Err(ConfigError::BadNetworkModel {
                    reason: "zero buffer depth: switches need at least one \
                             provisioned transaction buffer entry",
                });
            }
            // §2.2: zero-slack transactions block the token wave behind
            // every busy link, so contention without slack headroom stalls
            // guarantee times system-wide.
            if link_occupancy > Duration::ZERO && initial_slack == 0 {
                return Err(ConfigError::BadNetworkModel {
                    reason: "link occupancy without slack headroom: positive \
                             contention needs initial_slack >= 1 so tokens can \
                             pass buffered transactions",
                });
            }
        }
        Ok(nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_builders() {
        assert_eq!(TopologyKind::Butterfly16.build().num_nodes(), 16);
        assert_eq!(TopologyKind::Torus4x4.build().num_nodes(), 16);
        assert_eq!(
            TopologyKind::Torus {
                width: 8,
                height: 8
            }
            .build()
            .num_nodes(),
            64
        );
        assert_eq!(TopologyKind::Butterfly16.label(), "butterfly");
        assert_eq!(TopologyKind::Torus4x4.label(), "torus");
        // label() answers from the variant, without building a fabric, so
        // it works even on shapes too degenerate to build.
        assert_eq!(
            TopologyKind::Torus {
                width: 0,
                height: 0
            }
            .label(),
            "torus"
        );
        assert_eq!(
            TopologyKind::Butterfly {
                radix: 1,
                stages: 0,
                planes: 0
            }
            .label(),
            "butterfly"
        );
    }

    #[test]
    fn topology_validation() {
        assert_eq!(TopologyKind::Butterfly16.validate(), Ok(16));
        assert_eq!(
            TopologyKind::Torus {
                width: 8,
                height: 4
            }
            .validate(),
            Ok(32)
        );
        assert!(matches!(
            TopologyKind::Torus {
                width: 0,
                height: 4
            }
            .validate(),
            Err(ConfigError::DegenerateTopology { .. })
        ));
        assert!(matches!(
            TopologyKind::Butterfly {
                radix: 1,
                stages: 2,
                planes: 1
            }
            .validate(),
            Err(ConfigError::DegenerateTopology { .. })
        ));
        // 2^17 = 131072 nodes overflow the u16 id space.
        assert!(matches!(
            TopologyKind::Butterfly {
                radix: 2,
                stages: 17,
                planes: 1
            }
            .validate(),
            Err(ConfigError::TooManyNodes { .. })
        ));
    }

    #[test]
    fn default_timing_is_table2() {
        let t = Timing::default();
        assert_eq!(t.d_ovh.as_ns(), 4);
        assert_eq!(t.d_switch.as_ns(), 15);
        assert_eq!(t.d_mem.as_ns(), 80);
        assert_eq!(t.d_cache.as_ns(), 25);
        assert!(t.prefetch);
    }

    #[test]
    fn protocol_display() {
        assert_eq!(ProtocolKind::TsSnoop.to_string(), "TS-Snoop");
        assert_eq!(ProtocolKind::Tardis.to_string(), "Tardis");
        // ALL must stay the paper's three: it feeds every committed
        // artifact's default grid axis.
        assert_eq!(ProtocolKind::ALL.len(), 3);
        assert_eq!(ProtocolKind::WITH_TARDIS.len(), 4);
        assert_eq!(&ProtocolKind::WITH_TARDIS[..3], &ProtocolKind::ALL[..]);
    }

    #[test]
    fn protocol_parsing() {
        assert_eq!(
            "ts-snoop".parse::<ProtocolKind>(),
            Ok(ProtocolKind::TsSnoop)
        );
        assert_eq!(
            "TS-Snoop".parse::<ProtocolKind>(),
            Ok(ProtocolKind::TsSnoop)
        );
        assert_eq!(
            "dir-classic".parse::<ProtocolKind>(),
            Ok(ProtocolKind::DirClassic)
        );
        assert_eq!("DirOpt".parse::<ProtocolKind>(), Ok(ProtocolKind::DirOpt));
        assert_eq!("tardis".parse::<ProtocolKind>(), Ok(ProtocolKind::Tardis));
        assert_eq!("Tardis".parse::<ProtocolKind>(), Ok(ProtocolKind::Tardis));
        assert!(matches!(
            "mesi".parse::<ProtocolKind>(),
            Err(ConfigError::UnknownName { .. })
        ));
    }

    #[test]
    fn topology_parsing_round_trips_display() {
        for t in [
            TopologyKind::Butterfly16,
            TopologyKind::Torus4x4,
            TopologyKind::Torus {
                width: 8,
                height: 8,
            },
            TopologyKind::Butterfly {
                radix: 4,
                stages: 3,
                planes: 2,
            },
        ] {
            assert_eq!(t.to_string().parse::<TopologyKind>(), Ok(t));
        }
        assert_eq!(
            "butterfly".parse::<TopologyKind>(),
            Ok(TopologyKind::Butterfly16)
        );
        assert_eq!("torus".parse::<TopologyKind>(), Ok(TopologyKind::Torus4x4));
        assert!("torus:8".parse::<TopologyKind>().is_err());
        assert!("ring".parse::<TopologyKind>().is_err());
    }

    #[test]
    fn config_validation_catches_bad_knobs() {
        let good = SystemConfig::paper_default(ProtocolKind::TsSnoop, TopologyKind::Torus4x4);
        assert_eq!(good.validate(), Ok(16));

        let mut zero_ips = good.clone();
        zero_ips.instructions_per_ns = 0;
        assert_eq!(zero_ips.validate(), Err(ConfigError::ZeroProcessorRate));

        let mut zero_tick = good.clone();
        zero_tick.timing.tick = Duration::ZERO;
        assert_eq!(zero_tick.validate(), Err(ConfigError::ZeroTick));

        let mut bad_cache = good;
        bad_cache.cache.ways = 0;
        assert!(matches!(
            bad_cache.validate(),
            Err(ConfigError::BadCacheGeometry { .. })
        ));
    }

    #[test]
    fn network_model_parsing_round_trips_display() {
        for spec in [
            NetworkModelSpec::Fast,
            NetworkModelSpec::detailed(0),
            NetworkModelSpec::detailed(5),
            NetworkModelSpec::Detailed {
                link_occupancy: Duration::from_ns(10),
                initial_slack: 7,
                buffer_depth: 32,
            },
        ] {
            assert_eq!(spec.to_string().parse::<NetworkModelSpec>(), Ok(spec));
        }
        assert_eq!(
            "fast".parse::<NetworkModelSpec>(),
            Ok(NetworkModelSpec::Fast)
        );
        assert_eq!(
            "detailed".parse::<NetworkModelSpec>(),
            Ok(NetworkModelSpec::detailed(0))
        );
        // Partial key=value lists keep the other defaults.
        assert_eq!(
            "detailed:slack=5".parse::<NetworkModelSpec>(),
            Ok(NetworkModelSpec::Detailed {
                link_occupancy: Duration::ZERO,
                initial_slack: 5,
                buffer_depth: NetworkModelSpec::DEFAULT_BUFFER_DEPTH,
            })
        );
        for bad in ["slow", "detailed:occ", "detailed:bw=3", "detailed:occ=x"] {
            assert!(
                matches!(
                    bad.parse::<NetworkModelSpec>(),
                    Err(ConfigError::UnknownName { .. })
                ),
                "{bad:?} should not parse"
            );
        }
    }

    #[test]
    fn network_model_serde_round_trips() {
        for spec in [
            NetworkModelSpec::Fast,
            NetworkModelSpec::detailed(5),
            NetworkModelSpec::Detailed {
                link_occupancy: Duration::from_ns(2),
                initial_slack: 1,
                buffer_depth: 8,
            },
        ] {
            let v = serde::Serialize::to_value(&spec);
            assert_eq!(v, serde::Value::Str(spec.to_string()));
            let back: NetworkModelSpec = serde::Deserialize::from_value(&v).unwrap();
            assert_eq!(back, spec);
        }
        assert!(
            <NetworkModelSpec as serde::Deserialize>::from_value(&serde::Value::U64(1)).is_err()
        );
    }

    #[test]
    fn detailed_network_validation_catches_bad_knobs() {
        let base = SystemConfig::paper_default(ProtocolKind::TsSnoop, TopologyKind::Torus4x4);

        let mut unloaded = base.clone();
        unloaded.net = NetworkModelSpec::detailed(0);
        assert_eq!(unloaded.validate(), Ok(16));

        // Zero link latency: the token wave has no cadence.
        let mut zero_link = unloaded.clone();
        zero_link.timing.d_switch = Duration::ZERO;
        assert!(matches!(
            zero_link.validate(),
            Err(ConfigError::BadNetworkModel { reason }) if reason.contains("link latency")
        ));
        // The same timing is fine under the fast model (closed form).
        zero_link.net = NetworkModelSpec::Fast;
        assert_eq!(zero_link.validate(), Ok(16));

        // Contention without slack headroom stalls GTs system-wide.
        let mut no_headroom = base.clone();
        no_headroom.net = NetworkModelSpec::Detailed {
            link_occupancy: Duration::from_ns(5),
            initial_slack: 0,
            buffer_depth: 64,
        };
        assert!(matches!(
            no_headroom.validate(),
            Err(ConfigError::BadNetworkModel { reason }) if reason.contains("slack headroom")
        ));
        // Unloaded zero slack is legal (transactions arrive just in time).
        no_headroom.net = NetworkModelSpec::Detailed {
            link_occupancy: Duration::ZERO,
            initial_slack: 0,
            buffer_depth: 64,
        };
        assert_eq!(no_headroom.validate(), Ok(16));

        let mut no_buffers = base;
        no_buffers.net = NetworkModelSpec::Detailed {
            link_occupancy: Duration::ZERO,
            initial_slack: 2,
            buffer_depth: 0,
        };
        assert!(matches!(
            no_buffers.validate(),
            Err(ConfigError::BadNetworkModel { reason }) if reason.contains("buffer")
        ));
    }

    /// `gt_origin` and `threads` are harness knobs: two configs differing
    /// only in them must serialize identically (cell keys hash this
    /// serialization), and the serialized field list must stay exactly the
    /// historical one.
    #[test]
    fn gt_origin_stays_out_of_the_serialized_identity() {
        let base = SystemConfig::paper_default(ProtocolKind::TsSnoop, TopologyKind::Torus4x4);
        let mut shifted = base.clone();
        shifted.gt_origin = u64::MAX - 17;
        shifted.threads = 8;
        let (a, b) = (
            serde::Serialize::to_value(&base),
            serde::Serialize::to_value(&shifted),
        );
        assert_eq!(a, b, "a harness knob leaked into the serialized form");
        let serde::Value::Object(entries) = a else {
            panic!("SystemConfig must serialize as an object");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "protocol",
                "topology",
                "cache",
                "timing",
                "net",
                "instructions_per_ns",
                "perturbation_ns",
                "perturbation_stream",
                "seed",
                "verify",
                "record_observations",
            ],
            "serialized field list changed — this re-keys every grid cell"
        );
    }

    #[test]
    fn errors_display_usefully() {
        let e = TopologyKind::Torus {
            width: 0,
            height: 4,
        }
        .validate()
        .unwrap_err();
        assert!(e.to_string().contains("width >= 2"), "{e}");
        let e = ConfigError::TooManyNodes {
            nodes: 70_000,
            max: 65_535,
        };
        assert!(e.to_string().contains("70000"), "{e}");
    }
}
