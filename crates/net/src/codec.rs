//! The canonical binary codec: length-prefixed little-endian encodings
//! of every domain type that crosses the wire.
//!
//! Design rules, in order:
//!
//! 1. **Bit-exact round trips.** `f64` travels as its IEEE-754 bit
//!    pattern ([`f64::to_bits`]), never through text — the engine's
//!    fingerprint and determinism contracts are defined over bit
//!    patterns, and `NaN` must survive. `Duration` travels as
//!    `(secs: u64, nanos: u32)`.
//! 2. **Decode never panics.** Every length is validated against the
//!    bytes actually present before allocating, every tag and invariant
//!    (self-loops, duplicate edges, out-of-range node ids, nanos ≥ 10⁹)
//!    is checked before touching a constructor that would panic. Feeding
//!    random byte soup to any `decode` returns a [`CodecError`].
//! 3. **No `std::hash`, no platform words on the wire.** `usize` is
//!    encoded as `u64`; decoding checks it fits the local word size.
//!    The engine fingerprint stays the splitmix64-based value the
//!    engine computes — stable across processes and toolchains, which
//!    is what makes it usable as a cross-process routing key.
//!
//! Frames (the transport envelope — magic, protocol version, payload
//! length) live in [`frame`](crate::frame); this module is pure
//! `bytes ↔ values`.

use std::fmt;
use std::time::Duration;

use lds_core::glauber::GlauberStats;
use lds_core::jvv::JvvStats;
use lds_engine::{
    Backend, ModelSpec, RunReport, SampleDecode, ServedBackend, SweepBudget, Task, TaskOutput,
    Topology,
};
use lds_gibbs::{Config, PartialConfig, Value};
use lds_graph::{Graph, Hypergraph, NodeId};
use lds_obs::{HistogramSnapshot, MetricsSnapshot};
use lds_runtime::Phase;
use lds_serve::ServerStats;

/// Why a byte sequence failed to decode. Every variant is a typed
/// error, never a panic — malformed input is an expected condition for
/// a network server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value did.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes that were left.
        available: usize,
    },
    /// A tag, length, or invariant check failed; the message says which.
    Malformed(String),
    /// Bytes remained after the value was fully decoded (only from
    /// [`Wire::from_bytes`], which demands an exact fit).
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, available } => {
                write!(f, "truncated: needed {needed} more bytes, had {available}")
            }
            CodecError::Malformed(msg) => write!(f, "malformed: {msg}"),
            CodecError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after a complete value")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// An append-only encode buffer. All integers are little-endian. Public
/// so a caller can hand-build a byte layout, such as an old protocol
/// version's, and feed it to [`Wire::from_bytes`].
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (the wire has no platform words).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its exact IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `bool` as one byte (`0`/`1`).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

pub(crate) use cursor::Reader;

/// The decode cursor. `Reader` is public inside this private module, so
/// [`Wire`]'s decode step can name it while no path outside lds-net
/// reaches it: decoding is crate-internal, and outside crates cannot
/// implement `Wire`. They decode through [`Wire::from_bytes`].
mod cursor {
    use super::CodecError;

    /// A cursor over an encode buffer. Every getter validates availability
    /// before reading; lengths are validated against the bytes remaining
    /// before any allocation (each element of a collection occupies at
    /// least one byte, so `len > remaining` is proof of malformation — a
    /// hostile length field can never trigger a large allocation).
    #[derive(Debug)]
    pub struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        /// A reader over `buf`, positioned at the start.
        pub(crate) fn new(buf: &'a [u8]) -> Self {
            Reader { buf, pos: 0 }
        }

        /// Bytes not yet consumed.
        pub(crate) fn remaining(&self) -> usize {
            self.buf.len() - self.pos
        }

        fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
            if self.remaining() < n {
                return Err(CodecError::Truncated {
                    needed: n,
                    available: self.remaining(),
                });
            }
            let s = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(s)
        }

        /// Reads one byte.
        pub(crate) fn get_u8(&mut self) -> Result<u8, CodecError> {
            Ok(self.take(1)?[0])
        }

        /// Reads a little-endian `u32`.
        pub(super) fn get_u32(&mut self) -> Result<u32, CodecError> {
            Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
        }

        /// Reads a little-endian `u64`.
        pub(crate) fn get_u64(&mut self) -> Result<u64, CodecError> {
            Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
        }

        /// Reads a `u64` and checks it fits the local `usize`.
        pub(crate) fn get_usize(&mut self) -> Result<usize, CodecError> {
            let v = self.get_u64()?;
            usize::try_from(v).map_err(|_| CodecError::Malformed(format!("{v} overflows usize")))
        }

        /// Reads an `f64` from its bit pattern.
        pub(crate) fn get_f64(&mut self) -> Result<f64, CodecError> {
            Ok(f64::from_bits(self.get_u64()?))
        }

        /// Reads a `bool`; any byte other than `0`/`1` is malformed.
        pub(crate) fn get_bool(&mut self) -> Result<bool, CodecError> {
            match self.get_u8()? {
                0 => Ok(false),
                1 => Ok(true),
                b => Err(CodecError::Malformed(format!("bool byte {b}"))),
            }
        }

        /// Reads a collection length and proves it plausible: `len`
        /// elements of at least `min_elem_bytes` each must fit in the bytes
        /// remaining. This is the allocation guard — call it before any
        /// `Vec::with_capacity`.
        pub(super) fn get_len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
            let len = self.get_usize()?;
            let need = len.checked_mul(min_elem_bytes.max(1)).ok_or_else(|| {
                CodecError::Malformed(format!("length {len} overflows byte accounting"))
            })?;
            if need > self.remaining() {
                return Err(CodecError::Truncated {
                    needed: need,
                    available: self.remaining(),
                });
            }
            Ok(len)
        }

        /// Reads a length-prefixed UTF-8 string.
        pub(crate) fn get_str(&mut self) -> Result<&'a str, CodecError> {
            let len = self.get_len(1)?;
            let bytes = self.take(len)?;
            std::str::from_utf8(bytes).map_err(|e| CodecError::Malformed(format!("utf-8: {e}")))
        }
    }
}

/// A type with a canonical wire encoding.
///
/// The encoding is *canonical*: equal values encode to equal bytes, so
/// round-trip tests may compare re-encoded bytes even for types without
/// `PartialEq` (e.g. [`RunReport`]).
pub trait Wire: Sized {
    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut Writer);

    /// Decodes one value from the cursor, advancing it. Hidden: its
    /// cursor is crate-internal, so only lds-net decodes this way.
    #[doc(hidden)]
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Encodes this value into a fresh byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Decodes a value that must occupy `bytes` exactly.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(CodecError::TrailingBytes(r.remaining()));
        }
        Ok(v)
    }
}

fn bad_tag(what: &str, tag: u8) -> CodecError {
    CodecError::Malformed(format!("unknown {what} tag {tag}"))
}

impl Wire for Duration {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.as_secs());
        w.put_u32(self.subsec_nanos());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let secs = r.get_u64()?;
        let nanos = r.get_u32()?;
        if nanos >= 1_000_000_000 {
            return Err(CodecError::Malformed(format!("subsec nanos {nanos}")));
        }
        Ok(Duration::new(secs, nanos))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(bad_tag("option", t)),
        }
    }
}

impl Wire for Task {
    fn encode(&self, w: &mut Writer) {
        match *self {
            Task::SampleExact => w.put_u8(0),
            Task::SampleApprox => w.put_u8(1),
            Task::Infer { vertex, value } => {
                w.put_u8(2);
                w.put_u32(vertex.0);
                w.put_u32(value.0);
            }
            Task::Count => w.put_u8(3),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(Task::SampleExact),
            1 => Ok(Task::SampleApprox),
            2 => Ok(Task::Infer {
                vertex: NodeId(r.get_u32()?),
                value: Value(r.get_u32()?),
            }),
            3 => Ok(Task::Count),
            t => Err(bad_tag("task", t)),
        }
    }
}

impl Wire for ModelSpec {
    fn encode(&self, w: &mut Writer) {
        match *self {
            ModelSpec::Hardcore { lambda } => {
                w.put_u8(0);
                w.put_f64(lambda);
            }
            ModelSpec::Matching { lambda } => {
                w.put_u8(1);
                w.put_f64(lambda);
            }
            ModelSpec::Ising { beta, field } => {
                w.put_u8(2);
                w.put_f64(beta);
                w.put_f64(field);
            }
            ModelSpec::TwoSpin {
                beta,
                gamma,
                lambda,
                rate,
            } => {
                w.put_u8(3);
                w.put_f64(beta);
                w.put_f64(gamma);
                w.put_f64(lambda);
                w.put_f64(rate);
            }
            ModelSpec::Coloring { q } => {
                w.put_u8(4);
                w.put_usize(q);
            }
            ModelSpec::HypergraphMatching { lambda } => {
                w.put_u8(5);
                w.put_f64(lambda);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(ModelSpec::Hardcore {
                lambda: r.get_f64()?,
            }),
            1 => Ok(ModelSpec::Matching {
                lambda: r.get_f64()?,
            }),
            2 => Ok(ModelSpec::Ising {
                beta: r.get_f64()?,
                field: r.get_f64()?,
            }),
            3 => Ok(ModelSpec::TwoSpin {
                beta: r.get_f64()?,
                gamma: r.get_f64()?,
                lambda: r.get_f64()?,
                rate: r.get_f64()?,
            }),
            4 => Ok(ModelSpec::Coloring { q: r.get_usize()? }),
            5 => Ok(ModelSpec::HypergraphMatching {
                lambda: r.get_f64()?,
            }),
            t => Err(bad_tag("model spec", t)),
        }
    }
}

impl Wire for Topology {
    fn encode(&self, w: &mut Writer) {
        match self {
            Topology::Graph(g) => {
                w.put_u8(0);
                w.put_usize(g.node_count());
                w.put_usize(g.edges().len());
                for e in g.edges() {
                    w.put_u32(e.u.0);
                    w.put_u32(e.v.0);
                }
            }
            Topology::Hypergraph(h) => {
                w.put_u8(1);
                w.put_usize(h.node_count());
                w.put_usize(h.edge_count());
                for (_, nodes) in h.edges() {
                    w.put_usize(nodes.len());
                    for v in nodes {
                        w.put_u32(v.0);
                    }
                }
            }
        }
    }

    /// Validates every invariant the in-memory constructors assert
    /// (self-loops, duplicate edges, empty hyperedges, out-of-range
    /// node ids) and returns [`CodecError::Malformed`] instead of
    /// panicking — the constructors are only reached with proven input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => {
                let n = r.get_usize()?;
                if n > u32::MAX as usize {
                    return Err(CodecError::Malformed(format!("{n} nodes overflow NodeId")));
                }
                let m = r.get_len(8)?;
                let mut edges = Vec::with_capacity(m);
                for _ in 0..m {
                    let u = r.get_u32()?;
                    let v = r.get_u32()?;
                    if u == v {
                        return Err(CodecError::Malformed(format!("self-loop {u}-{v}")));
                    }
                    if u as usize >= n || v as usize >= n {
                        return Err(CodecError::Malformed(format!(
                            "edge {u}-{v} out of range for {n} nodes"
                        )));
                    }
                    edges.push((u.min(v), u.max(v)));
                }
                let mut sorted = edges.clone();
                sorted.sort_unstable();
                if sorted.windows(2).any(|w| w[0] == w[1]) {
                    return Err(CodecError::Malformed("duplicate edge".into()));
                }
                Ok(Topology::Graph(Graph::from_edges(n, edges)))
            }
            1 => {
                let n = r.get_usize()?;
                if n > u32::MAX as usize {
                    return Err(CodecError::Malformed(format!("{n} nodes overflow NodeId")));
                }
                let m = r.get_len(8)?;
                let mut edges = Vec::with_capacity(m);
                for _ in 0..m {
                    let k = r.get_len(4)?;
                    if k == 0 {
                        return Err(CodecError::Malformed("empty hyperedge".into()));
                    }
                    let mut nodes = Vec::with_capacity(k);
                    for _ in 0..k {
                        let v = r.get_u32()?;
                        if v as usize >= n {
                            return Err(CodecError::Malformed(format!(
                                "hyperedge node {v} out of range for {n} nodes"
                            )));
                        }
                        nodes.push(NodeId(v));
                    }
                    edges.push(nodes);
                }
                Ok(Topology::Hypergraph(Hypergraph::new(n, edges)))
            }
            t => Err(bad_tag("topology", t)),
        }
    }
}

impl Wire for Config {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for v in self.values() {
            w.put_u32(v.0);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.get_len(4)?;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(Value(r.get_u32()?));
        }
        Ok(Config::from_values(values))
    }
}

impl Wire for PartialConfig {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.len());
        w.put_usize(self.pinned_count());
        for (v, val) in self.pins() {
            w.put_u32(v.0);
            w.put_u32(val.0);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.get_usize()?;
        if n > u32::MAX as usize {
            return Err(CodecError::Malformed(format!("{n} nodes overflow NodeId")));
        }
        let pins = r.get_len(8)?;
        let mut tau = PartialConfig::empty(n);
        for _ in 0..pins {
            let v = r.get_u32()?;
            let val = r.get_u32()?;
            if v as usize >= n {
                return Err(CodecError::Malformed(format!(
                    "pin at {v} out of range for {n} nodes"
                )));
            }
            tau.pin(NodeId(v), Value(val));
        }
        Ok(tau)
    }
}

impl Wire for SampleDecode {
    fn encode(&self, w: &mut Writer) {
        match self {
            SampleDecode::Spins => w.put_u8(0),
            SampleDecode::Matching(edges) => {
                w.put_u8(1);
                w.put_usize(edges.len());
                for e in edges {
                    w.put_u32(e.0);
                }
            }
            SampleDecode::HypergraphMatching(edges) => {
                w.put_u8(2);
                w.put_usize(edges.len());
                for e in edges {
                    w.put_u32(e.0);
                }
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(SampleDecode::Spins),
            1 => {
                let n = r.get_len(4)?;
                let mut edges = Vec::with_capacity(n);
                for _ in 0..n {
                    edges.push(lds_graph::EdgeId(r.get_u32()?));
                }
                Ok(SampleDecode::Matching(edges))
            }
            2 => {
                let n = r.get_len(4)?;
                let mut edges = Vec::with_capacity(n);
                for _ in 0..n {
                    edges.push(lds_graph::HyperEdgeId(r.get_u32()?));
                }
                Ok(SampleDecode::HypergraphMatching(edges))
            }
            t => Err(bad_tag("sample decode", t)),
        }
    }
}

impl Wire for TaskOutput {
    fn encode(&self, w: &mut Writer) {
        match self {
            TaskOutput::Sample { config, decoded } => {
                w.put_u8(0);
                config.encode(w);
                decoded.encode(w);
            }
            TaskOutput::Marginal {
                distribution,
                probability,
            } => {
                w.put_u8(1);
                w.put_usize(distribution.len());
                for p in distribution {
                    w.put_f64(*p);
                }
                w.put_f64(*probability);
            }
            TaskOutput::Count {
                log_z,
                log_error_bound,
            } => {
                w.put_u8(2);
                w.put_f64(*log_z);
                w.put_f64(*log_error_bound);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(TaskOutput::Sample {
                config: Config::decode(r)?,
                decoded: SampleDecode::decode(r)?,
            }),
            1 => {
                let n = r.get_len(8)?;
                let mut distribution = Vec::with_capacity(n);
                for _ in 0..n {
                    distribution.push(r.get_f64()?);
                }
                Ok(TaskOutput::Marginal {
                    distribution,
                    probability: r.get_f64()?,
                })
            }
            2 => Ok(TaskOutput::Count {
                log_z: r.get_f64()?,
                log_error_bound: r.get_f64()?,
            }),
            t => Err(bad_tag("task output", t)),
        }
    }
}

impl Wire for JvvStats {
    fn encode(&self, w: &mut Writer) {
        w.put_f64(self.acceptance_product);
        w.put_usize(self.clamped);
        w.put_usize(self.repair_failures);
        w.put_usize(self.locality);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(JvvStats {
            acceptance_product: r.get_f64()?,
            clamped: r.get_usize()?,
            repair_failures: r.get_usize()?,
            locality: r.get_usize()?,
        })
    }
}

impl Wire for GlauberStats {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.sweeps);
        w.put_u64(self.site_updates);
        w.put_usize(self.last_sweep_changes);
        w.put_usize(self.locality);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(GlauberStats {
            sweeps: r.get_usize()?,
            site_updates: r.get_u64()?,
            last_sweep_changes: r.get_usize()?,
            locality: r.get_usize()?,
        })
    }
}

impl Wire for SweepBudget {
    fn encode(&self, w: &mut Writer) {
        match *self {
            SweepBudget::Auto => w.put_u8(0),
            SweepBudget::Fixed(k) => {
                w.put_u8(1);
                w.put_u32(k);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(SweepBudget::Auto),
            1 => Ok(SweepBudget::Fixed(r.get_u32()?)),
            t => Err(bad_tag("sweep budget", t)),
        }
    }
}

impl Wire for Backend {
    fn encode(&self, w: &mut Writer) {
        match *self {
            Backend::Exact => w.put_u8(0),
            Backend::Glauber { sweeps } => {
                w.put_u8(1);
                sweeps.encode(w);
            }
            Backend::Auto => w.put_u8(2),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(Backend::Exact),
            1 => Ok(Backend::Glauber {
                sweeps: SweepBudget::decode(r)?,
            }),
            2 => Ok(Backend::Auto),
            t => Err(bad_tag("backend", t)),
        }
    }
}

impl Wire for ServedBackend {
    fn encode(&self, w: &mut Writer) {
        match *self {
            ServedBackend::Exact => w.put_u8(0),
            ServedBackend::Glauber { sweeps } => {
                w.put_u8(1);
                w.put_u32(sweeps);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(ServedBackend::Exact),
            1 => Ok(ServedBackend::Glauber {
                sweeps: r.get_u32()?,
            }),
            t => Err(bad_tag("served backend", t)),
        }
    }
}

/// The phase names the engine is known to emit. `Phase::name` is a
/// `&'static str`, so decoding *interns* the received name against this
/// table; a name outside it is a malformed frame (and a reminder to
/// extend the table when the engine grows a phase).
pub const PHASE_NAMES: &[&str] = &[
    "schedule",
    "ground",
    "sample",
    "reject",
    "scan",
    "oracle",
    "anchor",
    "marginals",
    "glauber",
    "sampling",
];

impl Wire for Phase {
    fn encode(&self, w: &mut Writer) {
        w.put_str(self.name);
        self.wall_time.encode(w);
        w.put_usize(self.rounds);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let name = r.get_str()?;
        let interned = PHASE_NAMES
            .iter()
            .find(|n| **n == name)
            .copied()
            .ok_or_else(|| CodecError::Malformed(format!("unknown phase name {name:?}")))?;
        Ok(Phase::new(interned, Duration::decode(r)?, r.get_usize()?))
    }
}

impl Wire for RunReport {
    fn encode(&self, w: &mut Writer) {
        self.task.encode(w);
        w.put_u64(self.seed);
        self.output.encode(w);
        w.put_bool(self.succeeded);
        w.put_usize(self.rounds);
        w.put_f64(self.bound_rounds);
        w.put_f64(self.rate);
        self.backend.encode(w);
        self.stats.encode(w);
        self.glauber.encode(w);
        self.wall_time.encode(w);
        w.put_usize(self.phases.len());
        for p in &self.phases {
            p.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let task = Task::decode(r)?;
        let seed = r.get_u64()?;
        let output = TaskOutput::decode(r)?;
        let succeeded = r.get_bool()?;
        let rounds = r.get_usize()?;
        let bound_rounds = r.get_f64()?;
        let rate = r.get_f64()?;
        let backend = ServedBackend::decode(r)?;
        let stats = Option::<JvvStats>::decode(r)?;
        let glauber = Option::<GlauberStats>::decode(r)?;
        let wall_time = Duration::decode(r)?;
        // a phase is at least 28 bytes: name length (8) + duration (12)
        // + rounds (8), before any name bytes
        let n_phases = r.get_len(28)?;
        let mut phases = Vec::with_capacity(n_phases);
        for _ in 0..n_phases {
            phases.push(Phase::decode(r)?);
        }
        Ok(RunReport {
            task,
            seed,
            output,
            succeeded,
            rounds,
            bound_rounds,
            rate,
            backend,
            stats,
            glauber,
            wall_time,
            phases,
        })
    }
}

impl Wire for ServerStats {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.submitted);
        w.put_u64(self.rejected);
        w.put_u64(self.completed);
        w.put_u64(self.failed);
        w.put_u64(self.cache_hits);
        w.put_u64(self.cache_misses);
        w.put_u64(self.engine_executions);
        w.put_usize(self.queue_depth);
        w.put_usize(self.peak_queue_depth);
        self.p50_latency.encode(w);
        self.p99_latency.encode(w);
        self.uptime.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ServerStats {
            submitted: r.get_u64()?,
            rejected: r.get_u64()?,
            completed: r.get_u64()?,
            failed: r.get_u64()?,
            cache_hits: r.get_u64()?,
            cache_misses: r.get_u64()?,
            engine_executions: r.get_u64()?,
            queue_depth: r.get_usize()?,
            peak_queue_depth: r.get_usize()?,
            p50_latency: Duration::decode(r)?,
            p99_latency: Duration::decode(r)?,
            uptime: Duration::decode(r)?,
        })
    }
}

impl Wire for HistogramSnapshot {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.count);
        w.put_u64(self.sum);
        w.put_u64(self.max);
        w.put_usize(self.buckets.len());
        for (value, count) in &self.buckets {
            w.put_u64(*value);
            w.put_u64(*count);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let count = r.get_u64()?;
        let sum = r.get_u64()?;
        let max = r.get_u64()?;
        let n = r.get_len(16)?;
        let mut buckets = Vec::with_capacity(n);
        for _ in 0..n {
            let value = r.get_u64()?;
            let c = r.get_u64()?;
            buckets.push((value, c));
        }
        Ok(HistogramSnapshot {
            count,
            sum,
            max,
            buckets,
        })
    }
}

impl Wire for MetricsSnapshot {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.counters.len());
        for (name, v) in &self.counters {
            w.put_str(name);
            w.put_u64(*v);
        }
        w.put_usize(self.gauges.len());
        for (name, v) in &self.gauges {
            w.put_str(name);
            // i64 travels as its two's-complement bit pattern
            w.put_u64(*v as u64);
        }
        w.put_usize(self.histograms.len());
        for (name, h) in &self.histograms {
            w.put_str(name);
            h.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        // a counter/gauge entry is at least 16 bytes (name length
        // prefix + value), a histogram entry at least 40 (name prefix
        // + count/sum/max + bucket count)
        let nc = r.get_len(16)?;
        let mut counters = Vec::with_capacity(nc);
        for _ in 0..nc {
            let name = r.get_str()?.to_owned();
            counters.push((name, r.get_u64()?));
        }
        let ng = r.get_len(16)?;
        let mut gauges = Vec::with_capacity(ng);
        for _ in 0..ng {
            let name = r.get_str()?.to_owned();
            gauges.push((name, r.get_u64()? as i64));
        }
        let nh = r.get_len(40)?;
        let mut histograms = Vec::with_capacity(nh);
        for _ in 0..nh {
            let name = r.get_str()?.to_owned();
            histograms.push((name, HistogramSnapshot::decode(r)?));
        }
        Ok(MetricsSnapshot {
            counters,
            gauges,
            histograms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(70_000);
        w.put_u64(u64::MAX);
        w.put_f64(f64::NAN);
        w.put_bool(true);
        w.put_str("hëllo");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        // NaN survives bit-exactly — the text path would lose it
        assert_eq!(r.get_f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "hëllo");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let mut r = Reader::new(&[1, 2]);
        assert!(matches!(
            r.get_u64(),
            Err(CodecError::Truncated {
                needed: 8,
                available: 2
            })
        ));
    }

    #[test]
    fn hostile_length_cannot_allocate() {
        // a length field claiming u64::MAX elements in a 9-byte buffer
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        w.put_u8(0);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.get_len(4).is_err());
    }

    #[test]
    fn topology_decode_rejects_invalid_graphs() {
        // a self-loop would panic Graph::from_edges; here it is typed
        let mut w = Writer::new();
        w.put_u8(0); // graph tag
        w.put_usize(4);
        w.put_usize(1);
        w.put_u32(2);
        w.put_u32(2);
        assert!(matches!(
            Topology::from_bytes(&w.into_bytes()),
            Err(CodecError::Malformed(_))
        ));

        // duplicate edge, reversed orientation
        let mut w = Writer::new();
        w.put_u8(0);
        w.put_usize(4);
        w.put_usize(2);
        w.put_u32(0);
        w.put_u32(1);
        w.put_u32(1);
        w.put_u32(0);
        assert!(matches!(
            Topology::from_bytes(&w.into_bytes()),
            Err(CodecError::Malformed(_))
        ));

        // empty hyperedge
        let mut w = Writer::new();
        w.put_u8(1);
        w.put_usize(3);
        w.put_usize(1);
        w.put_usize(0);
        assert!(matches!(
            Topology::from_bytes(&w.into_bytes()),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn from_bytes_rejects_trailing_garbage() {
        let mut bytes = Task::Count.to_bytes();
        bytes.push(0xFF);
        assert_eq!(Task::from_bytes(&bytes), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn phase_names_intern_to_static() {
        let p = Phase::new("sample", Duration::from_millis(3), 17);
        let back = Phase::from_bytes(&p.to_bytes()).unwrap();
        assert_eq!(back.name, "sample");
        assert_eq!(back.rounds, 17);
        // unknown names are malformed, not fabricated statics
        let mut w = Writer::new();
        w.put_str("warp");
        Duration::ZERO.encode(&mut w);
        w.put_usize(0);
        assert!(matches!(
            Phase::from_bytes(&w.into_bytes()),
            Err(CodecError::Malformed(_))
        ));
    }
}
