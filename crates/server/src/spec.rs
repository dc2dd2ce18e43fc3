//! Job-spec parsing: JSON body → typed [`JobSpec`], with a typed error
//! for every malformed field instead of a panic.
//!
//! The graph-spec half predates the server conceptually — the generators
//! in `stoneage_graph` assert on bad parameters (`gnp` panics on
//! `p ∉ [0, 1]`), which is correct for library misuse but not for an
//! HTTP API fed by clients. [`GraphSpec::parse`] therefore validates
//! every parameter up front and reports [`SpecError`]s that the server
//! maps to 400 responses (and that convert into
//! [`stoneage_sim::ExecError::Config`] for non-HTTP callers).

use std::time::Duration;
use stoneage_core::Letter;
use stoneage_graph::{generators, Graph, NodeId, TopologyEvent};
use stoneage_sim::{ChurnPlan, ExecError, FaultPlan};
use stoneage_wire::{parse, JsonError, Value};

/// Ceiling on `n` (or `rows * cols`) so a single request cannot ask the
/// server to materialize an absurd graph.
pub const MAX_NODES: usize = 1_000_000;
/// Ceiling on the seed matrix per job.
pub const MAX_SEEDS: usize = 64;
/// Ceiling on the per-round throttle, so a job cannot stall a core
/// indefinitely between cancellation points.
pub const MAX_THROTTLE_MS: u64 = 1_000;

/// A malformed job spec. Every variant names the offending field.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The request body is not valid JSON.
    Json(JsonError),
    /// The top level is not a JSON object.
    NotAnObject,
    /// A required field is absent.
    Missing(&'static str),
    /// A present field has the wrong type or an out-of-range value.
    Invalid {
        /// The offending field.
        field: &'static str,
        /// Human-readable constraint that was violated.
        reason: String,
    },
}

impl SpecError {
    fn invalid(field: &'static str, reason: impl Into<String>) -> SpecError {
        SpecError::Invalid {
            field,
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "body is not valid JSON: {e}"),
            SpecError::NotAnObject => write!(f, "job spec must be a JSON object"),
            SpecError::Missing(field) => write!(f, "missing required field {field:?}"),
            SpecError::Invalid { field, reason } => write!(f, "field {field:?}: {reason}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<JsonError> for SpecError {
    fn from(e: JsonError) -> Self {
        SpecError::Json(e)
    }
}

impl From<SpecError> for ExecError {
    fn from(e: SpecError) -> Self {
        ExecError::Config {
            reason: e.to_string(),
        }
    }
}

/// A validated graph family + parameters, buildable without panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphSpec {
    /// Erdős–Rényi `G(n, p)`.
    Gnp {
        /// Node count (`1..=MAX_NODES`).
        n: usize,
        /// Edge probability (finite, in `[0, 1]`).
        p: f64,
        /// Generator seed.
        seed: u64,
    },
    /// Uniform random tree on `n` nodes.
    Tree {
        /// Node count (`1..=MAX_NODES`).
        n: usize,
        /// Generator seed.
        seed: u64,
    },
    /// `rows × cols` grid.
    Grid {
        /// Row count (`>= 1`).
        rows: usize,
        /// Column count (`>= 1`).
        cols: usize,
    },
    /// Power-law (preferential-attachment via redirection) graph — a
    /// hub-heavy skewed family.
    PowerLaw {
        /// Node count (`m + 1 ..= MAX_NODES`).
        n: usize,
        /// Attachments per new node (`>= 1`, `< n`).
        m: usize,
        /// Redirection probability (finite, in `[0, 1]`); degree
        /// exponent `γ ≈ 1 + 1/redirect`.
        redirect: f64,
        /// Generator seed.
        seed: u64,
    },
    /// Hub clique with pendant leaves — the deterministic scheduling
    /// stress family.
    HubAndSpoke {
        /// Hub count (`>= 1`).
        hubs: usize,
        /// Pendant leaves per hub (`>= 0`).
        spokes: usize,
    },
}

impl GraphSpec {
    /// Parses the `"graph"` object of a job spec.
    pub fn parse(v: &Value) -> Result<GraphSpec, SpecError> {
        let family = v
            .get("family")
            .ok_or(SpecError::Missing("graph.family"))?
            .as_str()
            .ok_or_else(|| SpecError::invalid("graph.family", "must be a string"))?;
        match family {
            "gnp" => {
                let n = node_count(v, "graph.n")?;
                let p = v
                    .get("p")
                    .ok_or(SpecError::Missing("graph.p"))?
                    .as_f64()
                    .ok_or_else(|| SpecError::invalid("graph.p", "must be a number"))?;
                if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                    return Err(SpecError::invalid(
                        "graph.p",
                        format!("must be a probability in [0, 1], got {p}"),
                    ));
                }
                let seed = u64_field(v, "seed", "graph.seed")?.unwrap_or(0);
                Ok(GraphSpec::Gnp { n, p, seed })
            }
            "tree" => {
                let n = node_count(v, "graph.n")?;
                let seed = u64_field(v, "seed", "graph.seed")?.unwrap_or(0);
                Ok(GraphSpec::Tree { n, seed })
            }
            "grid" => {
                let rows = dim(v, "rows", "graph.rows")?;
                let cols = dim(v, "cols", "graph.cols")?;
                if rows.saturating_mul(cols) > MAX_NODES {
                    return Err(SpecError::invalid(
                        "graph.rows",
                        format!("rows * cols exceeds {MAX_NODES}"),
                    ));
                }
                Ok(GraphSpec::Grid { rows, cols })
            }
            "power_law" => {
                let n = node_count(v, "graph.n")?;
                let m = dim(v, "m", "graph.m")?;
                if m >= n {
                    return Err(SpecError::invalid(
                        "graph.m",
                        format!("must be smaller than n (= {n}), got {m}"),
                    ));
                }
                let redirect = match v.get("redirect") {
                    None => 0.9,
                    Some(r) => r
                        .as_f64()
                        .ok_or_else(|| SpecError::invalid("graph.redirect", "must be a number"))?,
                };
                if !redirect.is_finite() || !(0.0..=1.0).contains(&redirect) {
                    return Err(SpecError::invalid(
                        "graph.redirect",
                        format!("must be a probability in [0, 1], got {redirect}"),
                    ));
                }
                let seed = u64_field(v, "seed", "graph.seed")?.unwrap_or(0);
                Ok(GraphSpec::PowerLaw {
                    n,
                    m,
                    redirect,
                    seed,
                })
            }
            "hub_and_spoke" => {
                let hubs = dim(v, "hubs", "graph.hubs")?;
                let spokes = u64_field(v, "spokes", "graph.spokes")?.unwrap_or(0) as usize;
                if hubs.saturating_mul(spokes + 1) > MAX_NODES {
                    return Err(SpecError::invalid(
                        "graph.hubs",
                        format!("hubs * (spokes + 1) exceeds {MAX_NODES}"),
                    ));
                }
                Ok(GraphSpec::HubAndSpoke { hubs, spokes })
            }
            other => Err(SpecError::invalid(
                "graph.family",
                format!(
                    "unknown family {other:?} (expected gnp, tree, grid, power_law, or \
                     hub_and_spoke)"
                ),
            )),
        }
    }

    /// Materializes the graph. Infallible: every parameter the
    /// generators assert on was validated by [`GraphSpec::parse`].
    pub fn build(&self) -> Graph {
        match *self {
            GraphSpec::Gnp { n, p, seed } => generators::gnp(n, p, seed),
            GraphSpec::Tree { n, seed } => generators::random_tree(n, seed),
            GraphSpec::Grid { rows, cols } => generators::grid(rows, cols),
            GraphSpec::PowerLaw {
                n,
                m,
                redirect,
                seed,
            } => generators::power_law(n, m, redirect, seed),
            GraphSpec::HubAndSpoke { hubs, spokes } => generators::hub_and_spoke(hubs, spokes),
        }
    }

    /// Number of nodes the built graph will have.
    pub fn node_count(&self) -> usize {
        match *self {
            GraphSpec::Gnp { n, .. }
            | GraphSpec::Tree { n, .. }
            | GraphSpec::PowerLaw { n, .. } => n,
            GraphSpec::Grid { rows, cols } => rows * cols,
            GraphSpec::HubAndSpoke { hubs, spokes } => hubs * (spokes + 1),
        }
    }
}

/// The protocols a job can run, by wire id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolId {
    /// The paper's MIS tournament (Section 4).
    Mis,
    /// The paper's tree 3-coloring (Section 5).
    Coloring,
    /// Self-stabilizing MIS wrapper.
    SelfStabMis,
    /// Self-stabilizing coloring wrapper.
    SelfStabColoring,
    /// The non-terminating 2-state blinker (benchmark workload).
    Blinker,
}

impl ProtocolId {
    /// Parses a wire id (`"mis"`, `"coloring"`, `"selfstab_mis"`,
    /// `"selfstab_coloring"`, `"blinker"`).
    pub fn parse(s: &str) -> Option<ProtocolId> {
        match s {
            "mis" => Some(ProtocolId::Mis),
            "coloring" => Some(ProtocolId::Coloring),
            "selfstab_mis" => Some(ProtocolId::SelfStabMis),
            "selfstab_coloring" => Some(ProtocolId::SelfStabColoring),
            "blinker" => Some(ProtocolId::Blinker),
            _ => None,
        }
    }

    /// The wire id.
    pub fn as_str(self) -> &'static str {
        match self {
            ProtocolId::Mis => "mis",
            ProtocolId::Coloring => "coloring",
            ProtocolId::SelfStabMis => "selfstab_mis",
            ProtocolId::SelfStabColoring => "selfstab_coloring",
            ProtocolId::Blinker => "blinker",
        }
    }
}

/// A fully validated simulation job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The topology to run on.
    pub graph: GraphSpec,
    /// The protocol to run.
    pub protocol: ProtocolId,
    /// Seed matrix: one complete run per seed.
    pub seeds: Vec<u64>,
    /// Round budget per seed.
    pub budget: u64,
    /// Checkpoint cadence in rounds (`0` = no checkpoints; required for
    /// mid-run cancellation, snapshot download, and resume).
    pub checkpoint_every: u64,
    /// Emit a `round` stream event every this many rounds (`0` = none).
    pub events_every: u64,
    /// Worker cores this job asks for. The scheduler charges it
    /// `min(workers, cores)` of the server's cores, and a job charged
    /// more than one core runs its rounds on that many workers.
    pub workers: usize,
    /// Artificial per-round delay, for demos and deterministic
    /// mid-run cancellation in tests.
    pub throttle: Duration,
    /// Optional topology fault-injection plan.
    pub churn: Option<ChurnPlan>,
    /// Optional message fault-injection plan.
    pub faults: Option<FaultPlan>,
    /// Optional snapshot frame (decoded from hex) to resume from;
    /// restricted to single-seed jobs.
    pub resume_from: Option<Vec<u8>>,
}

/// Parses and validates a JSON job-spec body.
pub fn parse_spec(body: &[u8]) -> Result<JobSpec, SpecError> {
    let text =
        std::str::from_utf8(body).map_err(|_| SpecError::invalid("body", "must be UTF-8 JSON"))?;
    let v = parse(text)?;
    if !matches!(v, Value::Object(_)) {
        return Err(SpecError::NotAnObject);
    }

    let graph = GraphSpec::parse(v.get("graph").ok_or(SpecError::Missing("graph"))?)?;

    let protocol_str = v
        .get("protocol")
        .ok_or(SpecError::Missing("protocol"))?
        .as_str()
        .ok_or_else(|| SpecError::invalid("protocol", "must be a string"))?;
    let protocol = ProtocolId::parse(protocol_str).ok_or_else(|| {
        SpecError::invalid(
            "protocol",
            format!(
                "unknown protocol {protocol_str:?} (expected mis, coloring, selfstab_mis, \
                 selfstab_coloring, or blinker)"
            ),
        )
    })?;

    let seeds = match v.get("seeds") {
        None => vec![0],
        Some(Value::Array(items)) => {
            if items.is_empty() {
                return Err(SpecError::invalid("seeds", "must not be empty"));
            }
            if items.len() > MAX_SEEDS {
                return Err(SpecError::invalid(
                    "seeds",
                    format!("at most {MAX_SEEDS} seeds per job"),
                ));
            }
            items
                .iter()
                .map(|s| {
                    s.as_i64()
                        .filter(|&x| x >= 0)
                        .map(|x| x as u64)
                        .ok_or_else(|| {
                            SpecError::invalid("seeds", "every seed must be a non-negative integer")
                        })
                })
                .collect::<Result<Vec<u64>, SpecError>>()?
        }
        Some(_) => return Err(SpecError::invalid("seeds", "must be an array of integers")),
    };

    let budget = u64_field(&v, "budget", "budget")?.unwrap_or(100_000);
    if budget == 0 {
        return Err(SpecError::invalid("budget", "must be at least 1"));
    }
    let checkpoint_every = u64_field(&v, "checkpoint_every", "checkpoint_every")?.unwrap_or(0);
    let events_every = u64_field(&v, "events_every", "events_every")?.unwrap_or(0);

    let workers = u64_field(&v, "workers", "workers")?.unwrap_or(1);
    if !(1..=128).contains(&workers) {
        return Err(SpecError::invalid("workers", "must be in 1..=128"));
    }

    let throttle_ms = u64_field(&v, "throttle_ms", "throttle_ms")?.unwrap_or(0);
    if throttle_ms > MAX_THROTTLE_MS {
        return Err(SpecError::invalid(
            "throttle_ms",
            format!("at most {MAX_THROTTLE_MS}"),
        ));
    }

    let n = graph.node_count();
    let churn = match v.get("churn") {
        None => None,
        Some(c) => Some(parse_churn(c, n)?),
    };
    let faults = match v.get("faults") {
        None => None,
        Some(fa) => Some(parse_faults(fa)?),
    };

    let resume_from = match v.get("resume_from") {
        None => None,
        Some(r) => {
            let hex = r
                .as_str()
                .ok_or_else(|| SpecError::invalid("resume_from", "must be a hex string"))?;
            if seeds.len() != 1 {
                return Err(SpecError::invalid(
                    "resume_from",
                    "resume is restricted to single-seed jobs",
                ));
            }
            Some(decode_hex(hex).ok_or_else(|| {
                SpecError::invalid("resume_from", "must be an even-length hex string")
            })?)
        }
    };

    Ok(JobSpec {
        graph,
        protocol,
        seeds,
        budget,
        checkpoint_every,
        events_every,
        workers: workers as usize,
        throttle: Duration::from_millis(throttle_ms),
        churn,
        faults,
        resume_from,
    })
}

/// Parses the `"churn"` array: `[{"round": R, "event": E, ...}, ...]`
/// with events `crash`/`restart` (`"node"`) and
/// `edge_insert`/`edge_delete` (`"u"`, `"v"`), plus an optional sibling
/// shape `{"events": [...], "extra_edges": [[u, v], ...]}`.
fn parse_churn(v: &Value, n: usize) -> Result<ChurnPlan, SpecError> {
    let (events, extra_edges) = match v {
        Value::Array(items) => (items.as_slice(), None),
        Value::Object(_) => {
            let events = match v.get("events") {
                Some(Value::Array(items)) => items.as_slice(),
                Some(_) => {
                    return Err(SpecError::invalid("churn.events", "must be an array"));
                }
                None => &[],
            };
            (events, v.get("extra_edges"))
        }
        _ => {
            return Err(SpecError::invalid(
                "churn",
                "must be an array of events or an object",
            ));
        }
    };

    let mut plan = ChurnPlan::new();
    for ev in events {
        let round =
            u64_field(ev, "round", "churn[].round")?.ok_or(SpecError::Missing("churn[].round"))?;
        let kind = ev
            .get("event")
            .ok_or(SpecError::Missing("churn[].event"))?
            .as_str()
            .ok_or_else(|| SpecError::invalid("churn[].event", "must be a string"))?;
        let event = match kind {
            "crash" => TopologyEvent::Crash(node_id(ev, "node", n)?),
            "restart" => TopologyEvent::Restart(node_id(ev, "node", n)?),
            "edge_insert" => TopologyEvent::EdgeInsert(node_id(ev, "u", n)?, node_id(ev, "v", n)?),
            "edge_delete" => TopologyEvent::EdgeDelete(node_id(ev, "u", n)?, node_id(ev, "v", n)?),
            other => {
                return Err(SpecError::invalid(
                    "churn[].event",
                    format!(
                        "unknown event {other:?} (expected crash, restart, edge_insert, or \
                         edge_delete)"
                    ),
                ));
            }
        };
        plan = plan.at(round, event);
    }
    if let Some(extra) = extra_edges {
        let items = extra
            .as_array()
            .ok_or_else(|| SpecError::invalid("churn.extra_edges", "must be an array of pairs"))?;
        for pair in items {
            match pair.as_array() {
                Some([u, v]) => {
                    let u = pair_node(u, "churn.extra_edges", n)?;
                    let v = pair_node(v, "churn.extra_edges", n)?;
                    plan = plan.with_extra_edge(u, v);
                }
                _ => {
                    return Err(SpecError::invalid(
                        "churn.extra_edges",
                        "every entry must be a [u, v] pair",
                    ));
                }
            }
        }
    }
    Ok(plan)
}

/// Parses the `"faults"` object:
/// `{"seed": S, "drop": rate, "duplicate": [rate, copies], "corrupt": [rate, letter]}`.
fn parse_faults(v: &Value) -> Result<FaultPlan, SpecError> {
    if !matches!(v, Value::Object(_)) {
        return Err(SpecError::invalid("faults", "must be an object"));
    }
    let seed = u64_field(v, "seed", "faults.seed")?.unwrap_or(0);
    let mut plan = FaultPlan::new(seed);
    if let Some(d) = v.get("drop") {
        plan = plan.drop_rate(rate(d, "faults.drop")?);
    }
    if let Some(d) = v.get("duplicate") {
        match d.as_array() {
            Some([r, copies]) => {
                let copies = copies
                    .as_i64()
                    .filter(|&c| (1..=8).contains(&c))
                    .ok_or_else(|| {
                        SpecError::invalid("faults.duplicate", "copies must be in 1..=8")
                    })?;
                plan = plan.duplicate_rate(rate(r, "faults.duplicate")?, copies as u8);
            }
            _ => {
                return Err(SpecError::invalid(
                    "faults.duplicate",
                    "must be a [rate, copies] pair",
                ));
            }
        }
    }
    if let Some(c) = v.get("corrupt") {
        match c.as_array() {
            Some([r, letter]) => {
                let letter = letter
                    .as_i64()
                    .filter(|&l| (0..=u64::from(u16::MAX) as i64).contains(&l))
                    .ok_or_else(|| {
                        SpecError::invalid("faults.corrupt", "letter must be a u16 index")
                    })?;
                plan = plan.corrupt_rate(rate(r, "faults.corrupt")?, Letter(letter as u16));
            }
            _ => {
                return Err(SpecError::invalid(
                    "faults.corrupt",
                    "must be a [rate, letter] pair",
                ));
            }
        }
    }
    Ok(plan)
}

fn rate(v: &Value, field: &'static str) -> Result<f64, SpecError> {
    let r = v
        .as_f64()
        .ok_or_else(|| SpecError::invalid(field, "rate must be a number"))?;
    if !r.is_finite() || !(0.0..=1.0).contains(&r) {
        return Err(SpecError::invalid(
            field,
            format!("rate must be in [0, 1], got {r}"),
        ));
    }
    Ok(r)
}

fn node_id(v: &Value, key: &'static str, n: usize) -> Result<NodeId, SpecError> {
    let id = v
        .get(key)
        .and_then(|x| x.as_i64())
        .filter(|&x| x >= 0)
        .ok_or_else(|| SpecError::invalid("churn[]", "node ids must be non-negative integers"))?;
    if (id as u64) >= n as u64 {
        return Err(SpecError::invalid(
            "churn[]",
            format!("node id {id} out of range for a {n}-node graph"),
        ));
    }
    Ok(id as NodeId)
}

fn pair_node(v: &Value, field: &'static str, n: usize) -> Result<NodeId, SpecError> {
    let id = v
        .as_i64()
        .filter(|&x| x >= 0 && (x as u64) < n as u64)
        .ok_or_else(|| SpecError::invalid(field, "node ids must be in-range integers"))?;
    Ok(id as NodeId)
}

fn u64_field(v: &Value, key: &'static str, field: &'static str) -> Result<Option<u64>, SpecError> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => x
            .as_i64()
            .filter(|&x| x >= 0)
            .map(|x| Some(x as u64))
            .ok_or_else(|| SpecError::invalid(field, "must be a non-negative integer")),
    }
}

fn node_count(v: &Value, field: &'static str) -> Result<usize, SpecError> {
    let n = v
        .get("n")
        .ok_or(SpecError::Missing(field))?
        .as_i64()
        .filter(|&n| n >= 1 && n <= MAX_NODES as i64)
        .ok_or_else(|| SpecError::invalid(field, format!("must be in 1..={MAX_NODES}")))?;
    Ok(n as usize)
}

fn dim(v: &Value, key: &'static str, field: &'static str) -> Result<usize, SpecError> {
    let d = v
        .get(key)
        .ok_or(SpecError::Missing(field))?
        .as_i64()
        .filter(|&d| d >= 1 && d <= MAX_NODES as i64)
        .ok_or_else(|| SpecError::invalid(field, format!("must be in 1..={MAX_NODES}")))?;
    Ok(d as usize)
}

/// Encodes bytes as lowercase hex (the `resume_from`/snapshot-download
/// wire encoding).
pub fn encode_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// Decodes an even-length hex string (`None` on any malformed input).
pub fn decode_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let digit = |c: u8| -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            b'A'..=b'F' => Some(c - b'A' + 10),
            _ => None,
        }
    };
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        out.push((digit(pair[0])? << 4) | digit(pair[1])?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(json: &str) -> Result<JobSpec, SpecError> {
        parse_spec(json.as_bytes())
    }

    const MINIMAL: &str = r#"{"graph": {"family": "gnp", "n": 16, "p": 0.2, "seed": 1},
                              "protocol": "mis"}"#;

    #[test]
    fn minimal_spec_parses_with_defaults() {
        let s = spec(MINIMAL).unwrap();
        assert_eq!(
            s.graph,
            GraphSpec::Gnp {
                n: 16,
                p: 0.2,
                seed: 1
            }
        );
        assert_eq!(s.protocol, ProtocolId::Mis);
        assert_eq!(s.seeds, vec![0]);
        assert_eq!(s.budget, 100_000);
        assert_eq!(s.checkpoint_every, 0);
        assert_eq!(s.workers, 1);
        assert!(s.churn.is_none() && s.faults.is_none() && s.resume_from.is_none());
    }

    #[test]
    fn every_family_builds_the_graph_it_names() {
        let g = GraphSpec::Gnp {
            n: 10,
            p: 0.5,
            seed: 7,
        }
        .build();
        assert_eq!(g.node_count(), 10);
        let g = GraphSpec::Tree { n: 12, seed: 3 }.build();
        assert_eq!(g.node_count(), 12);
        let g = GraphSpec::Grid { rows: 3, cols: 4 }.build();
        assert_eq!(g.node_count(), 12);
        let spec = GraphSpec::PowerLaw {
            n: 40,
            m: 2,
            redirect: 0.9,
            seed: 5,
        };
        assert_eq!(spec.build().node_count(), spec.node_count());
        let spec = GraphSpec::HubAndSpoke { hubs: 3, spokes: 5 };
        assert_eq!(spec.build().node_count(), spec.node_count());
    }

    #[test]
    fn skewed_families_parse_and_reject() {
        let ok = r#"{"graph": {"family": "power_law", "n": 50, "m": 2,
                               "redirect": 0.8, "seed": 4},
                     "protocol": "mis"}"#;
        assert_eq!(
            spec(ok).unwrap().graph,
            GraphSpec::PowerLaw {
                n: 50,
                m: 2,
                redirect: 0.8,
                seed: 4
            }
        );
        // redirect defaults to the hub-heavy 0.9.
        let defaulted = r#"{"graph": {"family": "power_law", "n": 50, "m": 1},
                            "protocol": "mis"}"#;
        assert!(matches!(
            spec(defaulted).unwrap().graph,
            GraphSpec::PowerLaw { redirect, .. } if redirect == 0.9
        ));
        // m >= n would panic in the generator; rejected up front.
        let fat_m = r#"{"graph": {"family": "power_law", "n": 3, "m": 3},
                        "protocol": "mis"}"#;
        assert!(matches!(
            spec(fat_m),
            Err(SpecError::Invalid {
                field: "graph.m",
                ..
            })
        ));
        let bad_redirect = r#"{"graph": {"family": "power_law", "n": 9, "m": 1,
                                         "redirect": 1.5},
                               "protocol": "mis"}"#;
        assert!(matches!(
            spec(bad_redirect),
            Err(SpecError::Invalid {
                field: "graph.redirect",
                ..
            })
        ));

        let hub = r#"{"graph": {"family": "hub_and_spoke", "hubs": 2, "spokes": 9},
                      "protocol": "mis"}"#;
        assert_eq!(
            spec(hub).unwrap().graph,
            GraphSpec::HubAndSpoke { hubs: 2, spokes: 9 }
        );
        let huge = format!(
            r#"{{"graph": {{"family": "hub_and_spoke", "hubs": 2, "spokes": {MAX_NODES}}},
                 "protocol": "mis"}}"#
        );
        assert!(matches!(
            spec(&huge),
            Err(SpecError::Invalid {
                field: "graph.hubs",
                ..
            })
        ));
    }

    #[test]
    fn retired_scheduler_field_is_ignored_like_any_unknown_key() {
        // Outcomes never depended on the chunk schedule, so a spec that
        // still names one parses exactly like the spec without it.
        let without = r#"{"graph": {"family": "gnp", "n": 16, "p": 0.2},
                          "protocol": "mis", "workers": 4}"#;
        let want = format!("{:?}", spec(without).unwrap());
        for scheduler in [r#""stealing""#, r#""static""#, r#""chase-lev""#, "1"] {
            let with = without.replace("4}", &format!(r#"4, "scheduler": {scheduler}}}"#));
            assert_eq!(format!("{:?}", spec(&with).unwrap()), want, "{scheduler}");
        }
    }

    #[test]
    fn malformed_body_and_toplevel() {
        assert!(matches!(spec("{nope"), Err(SpecError::Json(_))));
        assert!(matches!(spec("[1, 2]"), Err(SpecError::NotAnObject)));
        assert!(matches!(spec("{}"), Err(SpecError::Missing("graph"))));
        assert!(matches!(
            parse_spec(&[0xFF, 0xFE]),
            Err(SpecError::Invalid { field: "body", .. })
        ));
    }

    #[test]
    fn malformed_graph_fields() {
        let missing_family = r#"{"graph": {"n": 4}, "protocol": "mis"}"#;
        assert!(matches!(
            spec(missing_family),
            Err(SpecError::Missing("graph.family"))
        ));
        let bad_family = r#"{"graph": {"family": "torus", "n": 4}, "protocol": "mis"}"#;
        assert!(matches!(
            spec(bad_family),
            Err(SpecError::Invalid {
                field: "graph.family",
                ..
            })
        ));
        let no_n = r#"{"graph": {"family": "gnp", "p": 0.5}, "protocol": "mis"}"#;
        assert!(matches!(spec(no_n), Err(SpecError::Missing("graph.n"))));
        let zero_n = r#"{"graph": {"family": "tree", "n": 0}, "protocol": "mis"}"#;
        assert!(matches!(
            spec(zero_n),
            Err(SpecError::Invalid {
                field: "graph.n",
                ..
            })
        ));
        let huge_n = r#"{"graph": {"family": "tree", "n": 2000000}, "protocol": "mis"}"#;
        assert!(matches!(
            spec(huge_n),
            Err(SpecError::Invalid {
                field: "graph.n",
                ..
            })
        ));
        // The gnp generator asserts on these; the parser must reject first.
        for bad_p in ["-0.1", "1.5", "1e400"] {
            let s = format!(
                r#"{{"graph": {{"family": "gnp", "n": 4, "p": {bad_p}}}, "protocol": "mis"}}"#
            );
            assert!(
                matches!(
                    spec(&s),
                    Err(SpecError::Invalid {
                        field: "graph.p",
                        ..
                    }) | Err(SpecError::Json(_))
                ),
                "p = {bad_p} must be rejected"
            );
        }
        let no_p = r#"{"graph": {"family": "gnp", "n": 4}, "protocol": "mis"}"#;
        assert!(matches!(spec(no_p), Err(SpecError::Missing("graph.p"))));
        let no_rows = r#"{"graph": {"family": "grid", "cols": 3}, "protocol": "mis"}"#;
        assert!(matches!(
            spec(no_rows),
            Err(SpecError::Missing("graph.rows"))
        ));
        let big_grid = r#"{"graph": {"family": "grid", "rows": 10000, "cols": 10000},
                           "protocol": "mis"}"#;
        assert!(matches!(
            spec(big_grid),
            Err(SpecError::Invalid {
                field: "graph.rows",
                ..
            })
        ));
    }

    #[test]
    fn malformed_protocol_seeds_budget_workers() {
        let bad_proto = r#"{"graph": {"family": "tree", "n": 4}, "protocol": "tsp"}"#;
        assert!(matches!(
            spec(bad_proto),
            Err(SpecError::Invalid {
                field: "protocol",
                ..
            })
        ));
        let no_proto = r#"{"graph": {"family": "tree", "n": 4}}"#;
        assert!(matches!(
            spec(no_proto),
            Err(SpecError::Missing("protocol"))
        ));
        let base = r#"{"graph": {"family": "tree", "n": 4}, "protocol": "mis""#;
        for (extra, field) in [
            (r#", "seeds": []"#, "seeds"),
            (r#", "seeds": [-1]"#, "seeds"),
            (r#", "seeds": "x""#, "seeds"),
            (r#", "budget": 0"#, "budget"),
            (r#", "budget": -5"#, "budget"),
            (r#", "workers": 0"#, "workers"),
            (r#", "workers": 500"#, "workers"),
            (r#", "throttle_ms": 99999"#, "throttle_ms"),
            (r#", "checkpoint_every": -1"#, "checkpoint_every"),
        ] {
            let s = format!("{base}{extra}}}");
            match spec(&s) {
                Err(SpecError::Invalid { field: f, .. }) => assert_eq!(f, field, "for {extra}"),
                other => panic!("{extra} must be Invalid({field}), got {other:?}"),
            }
        }
        let too_many = format!(
            r#"{{"graph": {{"family": "tree", "n": 4}}, "protocol": "mis", "seeds": [{}]}}"#,
            (0..=MAX_SEEDS)
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        assert!(matches!(
            spec(&too_many),
            Err(SpecError::Invalid { field: "seeds", .. })
        ));
    }

    #[test]
    fn churn_and_fault_plans_parse_and_reject() {
        let ok = r#"{"graph": {"family": "tree", "n": 8}, "protocol": "mis",
                     "churn": [{"round": 3, "event": "crash", "node": 2},
                               {"round": 5, "event": "edge_delete", "u": 0, "v": 1}],
                     "faults": {"seed": 9, "drop": 0.01, "duplicate": [0.02, 2],
                                "corrupt": [0.005, 0]}}"#;
        let s = spec(ok).unwrap();
        assert!(s.churn.is_some() && s.faults.is_some());

        let bad_event = r#"{"graph": {"family": "tree", "n": 8}, "protocol": "mis",
                            "churn": [{"round": 3, "event": "meteor", "node": 2}]}"#;
        assert!(matches!(
            spec(bad_event),
            Err(SpecError::Invalid {
                field: "churn[].event",
                ..
            })
        ));
        let oob_node = r#"{"graph": {"family": "tree", "n": 8}, "protocol": "mis",
                           "churn": [{"round": 3, "event": "crash", "node": 8}]}"#;
        assert!(matches!(
            spec(oob_node),
            Err(SpecError::Invalid {
                field: "churn[]",
                ..
            })
        ));
        let no_round = r#"{"graph": {"family": "tree", "n": 8}, "protocol": "mis",
                           "churn": [{"event": "crash", "node": 1}]}"#;
        assert!(matches!(
            spec(no_round),
            Err(SpecError::Missing("churn[].round"))
        ));
        let bad_rate = r#"{"graph": {"family": "tree", "n": 8}, "protocol": "mis",
                           "faults": {"drop": 1.5}}"#;
        assert!(matches!(
            spec(bad_rate),
            Err(SpecError::Invalid {
                field: "faults.drop",
                ..
            })
        ));
        let bad_dup = r#"{"graph": {"family": "tree", "n": 8}, "protocol": "mis",
                          "faults": {"duplicate": [0.5, 99]}}"#;
        assert!(matches!(
            spec(bad_dup),
            Err(SpecError::Invalid {
                field: "faults.duplicate",
                ..
            })
        ));
    }

    #[test]
    fn resume_hex_round_trips_and_rejects() {
        assert_eq!(
            decode_hex(&encode_hex(&[0x00, 0xAB, 0xFF])).unwrap(),
            vec![0x00, 0xAB, 0xFF]
        );
        assert!(decode_hex("abc").is_none()); // odd length
        assert!(decode_hex("zz").is_none());
        let multi_seed = r#"{"graph": {"family": "tree", "n": 4}, "protocol": "mis",
                             "seeds": [1, 2], "resume_from": "aabb"}"#;
        assert!(matches!(
            spec(multi_seed),
            Err(SpecError::Invalid {
                field: "resume_from",
                ..
            })
        ));
        let bad_hex = r#"{"graph": {"family": "tree", "n": 4}, "protocol": "mis",
                          "resume_from": "xyz1"}"#;
        assert!(matches!(
            spec(bad_hex),
            Err(SpecError::Invalid {
                field: "resume_from",
                ..
            })
        ));
        let ok = r#"{"graph": {"family": "tree", "n": 4}, "protocol": "mis",
                     "resume_from": "aabbcc"}"#;
        assert_eq!(
            spec(ok).unwrap().resume_from.unwrap(),
            vec![0xAA, 0xBB, 0xCC]
        );
    }

    #[test]
    fn spec_error_converts_to_exec_config_error() {
        let e: ExecError = SpecError::Missing("graph").into();
        assert!(matches!(e, ExecError::Config { .. }));
    }
}
