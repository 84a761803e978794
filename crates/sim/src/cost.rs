//! Virtual-time cost model for the simulator — and the text codec that
//! makes it a loadable artifact.
//!
//! Until PR 10 every cost below was a hand-invented constant. The
//! `calibrate` bin (macs-bench) now measures a real machine and emits a
//! model file; [`CostModel::load`] / [`CostModel::save`] and the
//! `FromStr`/`Display` pair
//! round-trip it. The codec is hand-rolled `key = value` text (this
//! workspace builds offline — no serde):
//!
//! ```text
//! macs-cost-model v1
//! # comments and blank lines are ignored
//! node = fixed:2000,20        # mean ns, ± jitter %
//! pool_op_ns = 60
//! ...
//! ```
//!
//! Every field is required (a model that silently falls back to a
//! default for a missing latency would defeat calibration); unknown
//! keys, duplicates, negative values and values above [`MAX_PRICE`] are
//! typed [`CostModelError`]s.

use std::fmt;
use std::path::Path;
use std::str::FromStr;

/// The ceiling on every value of a model file, and on every price derived
/// from one: 2⁴⁰ (about 18 virtual minutes, or a terabyte). A simulation
/// adds thousands of charges to its clock and scales a node's price by
/// its jitter; below this ceiling none of that can wrap a `u64`.
pub const MAX_PRICE: u64 = 1 << 40;

/// Floor on the delivery time of an on-node PaCCS request or reply, and
/// on the receiving agent's progress check: see
/// [`CostModel::local_msg_ns`]. A constant, not a model key: no
/// calibration measures it yet.
pub const LOCAL_MSG_FLOOR_NS: u64 = 200;

/// How the processing time of one node (propagate + split) is charged:
/// a fixed mean of `ns` with ±`jitter_pct`% deterministic jitter, so the
/// simulator reads no host clock and same-seed runs are bit-identical.
/// `fixed:NS,JITTER` in a model file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeCost {
    pub ns: u64,
    pub jitter_pct: u8,
}

impl NodeCost {
    pub fn fixed(ns: u64) -> Self {
        NodeCost { ns, jitter_pct: 20 }
    }
}

/// All virtual-time costs, in nanoseconds. Defaults are calibrated to the
/// paper's testbed class: dual-socket Woodcrest nodes (the ~6.4 µs/node
/// implied by 40 Mnodes/s on 256 cores for queens-17) on InfiniBand DDR
/// (~2 µs one-way small-message latency).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostModel {
    pub node: NodeCost,
    /// Pool push/pop (head pointer manipulation).
    pub pool_op_ns: u64,
    /// Release / reacquire (lock + split pointer).
    pub release_ns: u64,
    /// Local steal: victim lock + item copies.
    pub steal_local_ns: u64,
    /// Per-item copy cost (added per transferred item, local or remote).
    pub per_item_ns: u64,
    /// Mailbox check.
    pub poll_ns: u64,
    /// One-sided metadata read of one remote node's pools.
    pub find_remote_ns: u64,
    /// Mailbox CAS (remote atomic).
    pub post_request_ns: u64,
    /// Victim-side posting of the in-place response (queued write).
    pub write_response_ns: u64,
    /// One-way fabric latency to the *nearest* remote ring (one level
    /// above the node boundary).
    pub remote_latency_ns: u64,
    /// Latency growth per additional topology level a message crosses: a
    /// steal spanning `r` remote rings pays
    /// `remote_latency_ns × level_hop_factor^(r−1)` one way (switch tiers
    /// / inter-cluster links). 1 = distance-blind fabric.
    pub level_hop_factor: u64,
    /// Extra lock/coherence cost per intra-node level a local steal
    /// crosses beyond the first (cross-socket cache-line bouncing): a
    /// distance-`d` local steal costs
    /// `steal_local_ns + (d − 1) × cross_level_ns`.
    pub cross_level_ns: u64,
    /// Transfer cost per byte, in picoseconds (667 ≙ ~1.5 GB/s). The
    /// *single* per-byte rate: the contention fabric's link
    /// serialization derives from it too, unless a
    /// [`ContentionParams`](crate::ContentionParams) override is given
    /// explicitly — a loaded model can never disagree with itself across
    /// the latency and contention paths.
    pub byte_ps: u64,
    /// Wire size of a control message (steal request / refusal), bytes.
    pub ctrl_bytes: u64,
    /// Per-message header added to payload replies, bytes.
    pub header_bytes: u64,
    /// Idle backoff: a starving worker wakes this long after each steal
    /// scan. Flat — it does not grow per idle round as the threaded
    /// worker's spin does.
    pub idle_backoff_ns: u64,
}

impl CostModel {
    /// Paper-testbed-class defaults with a given mean node cost.
    pub fn woodcrest_ib(node_ns: u64) -> Self {
        CostModel {
            node: NodeCost::fixed(node_ns),
            pool_op_ns: 60,
            // Lock + split-pointer update + the associated coherence
            // traffic. Calibrated so that releasing on every node (the
            // MaCS default) costs ≈10% of a queens node — the "Releasing"
            // band visible in the paper's Fig. 3.
            release_ns: 650,
            steal_local_ns: 400,
            per_item_ns: 40,
            poll_ns: 50,
            find_remote_ns: 2_000,
            post_request_ns: 2_500,
            write_response_ns: 300,
            remote_latency_ns: 2_000,
            // IB switch tiers: each level further out roughly quadruples
            // the one-way latency (leaf switch → spine → inter-cluster).
            level_hop_factor: 4,
            // Cross-socket steal premium (QPI hop + coherence misses).
            cross_level_ns: 150,
            byte_ps: 667,
            ctrl_bytes: 64,
            header_bytes: 64,
            idle_backoff_ns: 500,
        }
    }

    /// The paper's implied queens-17 node cost (≈ 6.4 µs).
    pub fn paper_queens() -> Self {
        CostModel::woodcrest_ib(6_400)
    }

    /// A COP-like node cost (propagation-heavy: the paper reports 80% of
    /// time in propagation for the QAP).
    pub fn paper_qap() -> Self {
        CostModel::woodcrest_ib(25_000)
    }

    /// Per-byte transfer cost of `bytes`, at most [`MAX_PRICE`].
    #[inline]
    pub fn transfer_ns(&self, bytes: u64) -> u64 {
        (self.byte_ps.saturating_mul(bytes) / 1000).min(MAX_PRICE)
    }

    /// One-way latency to a victim `ring_rank` remote rings out
    /// (`1` = the nearest remote ring), at most [`MAX_PRICE`].
    #[inline]
    pub fn remote_latency_for(&self, ring_rank: usize) -> u64 {
        let mut lat = self.remote_latency_ns;
        for _ in 1..ring_rank.max(1) {
            lat = lat.saturating_mul(self.level_hop_factor.max(1));
        }
        lat.min(MAX_PRICE)
    }

    /// Delivery time of an on-node PaCCS request or reply: the poll
    /// latency, at least [`LOCAL_MSG_FLOOR_NS`].
    #[inline]
    pub fn local_msg_ns(&self) -> u64 {
        self.poll_ns.max(LOCAL_MSG_FLOOR_NS)
    }

    /// Lock + copy setup cost of a local steal spanning `d` intra-node
    /// levels (`d >= 1`), at most [`MAX_PRICE`] like the two above.
    #[inline]
    pub fn local_steal_ns(&self, d: usize) -> u64 {
        let extra = (d.saturating_sub(1) as u64).saturating_mul(self.cross_level_ns);
        self.steal_local_ns.saturating_add(extra).min(MAX_PRICE)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::woodcrest_ib(2_000)
    }
}

// ---------------------------------------------------------------------
// The codec.

/// First line of every model file; the version suffix lets the format
/// evolve without silently misreading old files.
const HEADER: &str = "macs-cost-model v1";

/// Why a cost-model file could not be read or parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CostModelError {
    /// The first non-blank line is not `macs-cost-model v1`.
    MissingHeader,
    /// A line is not `key = value` (nor a comment/blank).
    BadLine { line: usize, text: String },
    /// A key this version does not know.
    UnknownKey { line: usize, key: String },
    /// The same key given twice.
    DuplicateKey { line: usize, key: String },
    /// A value that does not parse for its key.
    BadValue {
        line: usize,
        key: String,
        value: String,
    },
    /// A latency/size that parses but is negative — never meaningful.
    NegativeValue {
        line: usize,
        key: String,
        value: String,
    },
    /// A value above its key's ceiling ([`MAX_PRICE`], or 100 for a
    /// jitter percentage).
    AboveCeiling {
        line: usize,
        key: String,
        value: String,
        max: u64,
    },
    /// A required key never appeared (a model must be total: silently
    /// defaulting a missing latency would defeat calibration).
    MissingField { key: &'static str },
    /// The file could not be read or written.
    Io { path: String, detail: String },
}

impl fmt::Display for CostModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostModelError::MissingHeader => {
                write!(f, "cost model file must start with {HEADER:?}")
            }
            CostModelError::BadLine { line, text } => {
                write!(f, "line {line}: expected `key = value`, got {text:?}")
            }
            CostModelError::UnknownKey { line, key } => {
                write!(f, "line {line}: unknown cost-model key {key:?}")
            }
            CostModelError::DuplicateKey { line, key } => {
                write!(f, "line {line}: duplicate key {key:?}")
            }
            CostModelError::BadValue { line, key, value } => {
                write!(f, "line {line}: bad value {value:?} for {key}")
            }
            CostModelError::NegativeValue { line, key, value } => {
                write!(f, "line {line}: negative value {value} for {key}")
            }
            CostModelError::AboveCeiling {
                line,
                key,
                value,
                max,
            } => write!(
                f,
                "line {line}: {value} for {key} is above its ceiling {max}"
            ),
            CostModelError::MissingField { key } => {
                write!(f, "cost model is missing required key {key:?}")
            }
            CostModelError::Io { path, detail } => write!(f, "cost model {path}: {detail}"),
        }
    }
}

impl std::error::Error for CostModelError {}

/// The numeric (plain `u64`) fields, in canonical emit order. `node` is
/// handled separately (it is a pair).
const NUMERIC_KEYS: [&str; 15] = [
    "pool_op_ns",
    "release_ns",
    "steal_local_ns",
    "per_item_ns",
    "poll_ns",
    "find_remote_ns",
    "post_request_ns",
    "write_response_ns",
    "remote_latency_ns",
    "level_hop_factor",
    "cross_level_ns",
    "byte_ps",
    "ctrl_bytes",
    "header_bytes",
    "idle_backoff_ns",
];

impl CostModel {
    fn numeric(&self, key: &str) -> u64 {
        match key {
            "pool_op_ns" => self.pool_op_ns,
            "release_ns" => self.release_ns,
            "steal_local_ns" => self.steal_local_ns,
            "per_item_ns" => self.per_item_ns,
            "poll_ns" => self.poll_ns,
            "find_remote_ns" => self.find_remote_ns,
            "post_request_ns" => self.post_request_ns,
            "write_response_ns" => self.write_response_ns,
            "remote_latency_ns" => self.remote_latency_ns,
            "level_hop_factor" => self.level_hop_factor,
            "cross_level_ns" => self.cross_level_ns,
            "byte_ps" => self.byte_ps,
            "ctrl_bytes" => self.ctrl_bytes,
            "header_bytes" => self.header_bytes,
            "idle_backoff_ns" => self.idle_backoff_ns,
            _ => unreachable!("numeric() called with unknown key {key}"),
        }
    }

    fn set_numeric(&mut self, key: &str, v: u64) {
        match key {
            "pool_op_ns" => self.pool_op_ns = v,
            "release_ns" => self.release_ns = v,
            "steal_local_ns" => self.steal_local_ns = v,
            "per_item_ns" => self.per_item_ns = v,
            "poll_ns" => self.poll_ns = v,
            "find_remote_ns" => self.find_remote_ns = v,
            "post_request_ns" => self.post_request_ns = v,
            "write_response_ns" => self.write_response_ns = v,
            "remote_latency_ns" => self.remote_latency_ns = v,
            "level_hop_factor" => self.level_hop_factor = v,
            "cross_level_ns" => self.cross_level_ns = v,
            "byte_ps" => self.byte_ps = v,
            "ctrl_bytes" => self.ctrl_bytes = v,
            "header_bytes" => self.header_bytes = v,
            "idle_backoff_ns" => self.idle_backoff_ns = v,
            _ => unreachable!("set_numeric() called with unknown key {key}"),
        }
    }

    /// Read a model file from disk (the `calibrate` output, or a
    /// hand-edited scenario).
    pub fn load(path: &Path) -> Result<CostModel, CostModelError> {
        let text = std::fs::read_to_string(path).map_err(|e| CostModelError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
        text.parse()
    }

    /// Write the canonical emit (the `Display` form) to disk.
    pub fn save(&self, path: &Path) -> Result<(), CostModelError> {
        std::fs::write(path, self.to_string()).map_err(|e| CostModelError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        })
    }
}

impl fmt::Display for CostModel {
    /// The canonical emit: header, `node`, then every numeric field in
    /// `NUMERIC_KEYS` order. `parse(emit(m)) == m` for every model.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{HEADER}")?;
        let NodeCost { ns, jitter_pct } = self.node;
        writeln!(f, "node = fixed:{ns},{jitter_pct}")?;
        for key in NUMERIC_KEYS {
            writeln!(f, "{key} = {}", self.numeric(key))?;
        }
        Ok(())
    }
}

/// Parse a non-negative integer no larger than `max`, distinguishing
/// "negative", "too large" and "unparseable" for the error taxonomy.
fn parse_value(line: usize, key: &str, value: &str, max: u64) -> Result<u64, CostModelError> {
    let bad = || CostModelError::BadValue {
        line,
        key: key.to_string(),
        value: value.to_string(),
    };
    let n: i128 = value.trim().parse().map_err(|_| bad())?;
    if n < 0 {
        return Err(CostModelError::NegativeValue {
            line,
            key: key.to_string(),
            value: value.trim().to_string(),
        });
    }
    if n > max as i128 {
        return Err(CostModelError::AboveCeiling {
            line,
            key: key.to_string(),
            value: value.trim().to_string(),
            max,
        });
    }
    Ok(n as u64)
}

impl FromStr for CostModel {
    type Err = CostModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut lines = s.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));
        match lines.find(|(_, l)| !l.is_empty() && !l.starts_with('#')) {
            Some((_, l)) if l == HEADER => {}
            _ => return Err(CostModelError::MissingHeader),
        }

        let mut model = CostModel::default();
        let mut seen: Vec<&'static str> = Vec::new();
        let mut node_seen = false;
        for (line, text) in lines {
            if text.is_empty() || text.starts_with('#') {
                continue;
            }
            let text = text.split('#').next().unwrap().trim();
            let Some((key, value)) = text.split_once('=') else {
                return Err(CostModelError::BadLine {
                    line,
                    text: text.to_string(),
                });
            };
            let (key, value) = (key.trim(), value.trim());
            if key == "node" {
                if node_seen {
                    return Err(CostModelError::DuplicateKey {
                        line,
                        key: key.to_string(),
                    });
                }
                node_seen = true;
                let bad = || CostModelError::BadValue {
                    line,
                    key: key.to_string(),
                    value: value.to_string(),
                };
                let (kind, args) = value.split_once(':').ok_or_else(bad)?;
                let (a, b) = args.split_once(',').ok_or_else(bad)?;
                if kind.trim() != "fixed" {
                    return Err(bad());
                }
                model.node = NodeCost {
                    ns: parse_value(line, "node.ns", a, MAX_PRICE)?,
                    jitter_pct: parse_value(line, "node.jitter_pct", b, 100)? as u8,
                };
                continue;
            }
            let Some(&canon) = NUMERIC_KEYS.iter().find(|&&k| k == key) else {
                return Err(CostModelError::UnknownKey {
                    line,
                    key: key.to_string(),
                });
            };
            if seen.contains(&canon) {
                return Err(CostModelError::DuplicateKey {
                    line,
                    key: key.to_string(),
                });
            }
            seen.push(canon);
            let v = parse_value(line, key, value, MAX_PRICE)?;
            model.set_numeric(canon, v);
        }

        if !node_seen {
            return Err(CostModelError::MissingField { key: "node" });
        }
        for key in NUMERIC_KEYS {
            if !seen.contains(&key) {
                return Err(CostModelError::MissingField { key });
            }
        }
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_sensibly() {
        let q = CostModel::paper_queens();
        let c = CostModel::paper_qap();
        assert!(q.node.ns < c.node.ns);
        assert!(
            q.find_remote_ns > q.steal_local_ns,
            "remote dearer than local"
        );
    }

    #[test]
    fn transfer_cost_scales() {
        let m = CostModel::woodcrest_ib(1000);
        assert_eq!(m.transfer_ns(1500), 1000); // 667 ps/B ≈ 1.5 GB/s
        assert_eq!(m.transfer_ns(0), 0);
    }

    #[test]
    fn per_level_costs_grow_with_distance() {
        let m = CostModel::woodcrest_ib(1000);
        assert_eq!(m.remote_latency_for(1), m.remote_latency_ns);
        assert_eq!(m.remote_latency_for(2), m.remote_latency_ns * 4);
        assert_eq!(m.remote_latency_for(3), m.remote_latency_ns * 16);
        assert_eq!(m.local_steal_ns(1), m.steal_local_ns);
        assert_eq!(m.local_steal_ns(2), m.steal_local_ns + m.cross_level_ns);
        let mut flatline = m;
        flatline.level_hop_factor = 1;
        assert_eq!(flatline.remote_latency_for(3), m.remote_latency_ns);
    }
}
