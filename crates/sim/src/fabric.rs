//! The steal-plane message fabric: flat per-ring latencies, or a
//! contention model with per-link capacity and FIFO queueing.
//!
//! The original cost model charges every remote message a *fixed* one-way
//! latency for its distance ring, however many messages share a link — so
//! 10k thieves hammering one victim node all pay the same 2 µs, which is
//! exactly the dishonesty Gent & McCreesh warn parallel-CP comparisons
//! about. Under [`FabricModel::Contention`] each shared-memory node gets
//! one *uplink* (egress) and one *downlink* (ingress) of finite capacity;
//! a message serialises at `link_byte_ps` per byte on both, queues FIFO
//! behind whatever the link is still transmitting, and only then pays the
//! per-ring propagation delay. A steal storm therefore pays queueing
//! delay that grows with the storm, not flat latency.
//!
//! The fabric also keeps conservation books — messages injected,
//! delivered, and (at drain) in flight — which `prop_fabric` pins:
//! `injected == delivered + in_flight` at every drain, and no link's
//! queue can ever be deeper than `horizon / serialization + 1`.

use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;

use crate::cost::CostModel;

/// Capacity *overrides* for [`FabricModel::Contention`]. Every `None`
/// field resolves from the run's [`CostModel`] — `byte_ps`,
/// `ctrl_bytes`, `header_bytes` — so the contention fabric and the flat
/// latency path price bytes from one source of truth and a loaded model
/// can never disagree with itself. (Before PR 10 this struct carried its
/// own copies of all three defaults; a calibrated `byte_ps` would have
/// silently left the contention links at the old constant.)
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContentionParams {
    /// Serialization cost per byte on a node's uplink/downlink, in
    /// picoseconds; `None` = the cost model's `byte_ps`.
    pub link_byte_ps: Option<u64>,
    /// Wire size of a control message, bytes; `None` = the cost model's
    /// `ctrl_bytes`.
    pub ctrl_bytes: Option<u64>,
    /// Per-message header added to payload replies, bytes; `None` = the
    /// cost model's `header_bytes`.
    pub header_bytes: Option<u64>,
}

/// The fully-resolved wire parameters a simulation actually runs with:
/// the cost model's values with any [`ContentionParams`] overrides
/// applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireParams {
    pub link_byte_ps: u64,
    pub ctrl_bytes: u64,
    pub header_bytes: u64,
}

impl ContentionParams {
    /// Apply the overrides to a cost model's wire constants.
    pub fn resolve(&self, costs: &CostModel) -> WireParams {
        WireParams {
            link_byte_ps: self.link_byte_ps.unwrap_or(costs.byte_ps),
            ctrl_bytes: self.ctrl_bytes.unwrap_or(costs.ctrl_bytes),
            header_bytes: self.header_bytes.unwrap_or(costs.header_bytes),
        }
    }
}

/// How remote steal-plane messages are priced. Threaded through
/// [`SimConfig`](crate::SimConfig); `paper ablation_fabric` compares
/// the two models head to head.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FabricModel {
    /// Fixed one-way latency per distance ring plus a flat per-byte
    /// transfer cost — infinite link capacity (the PR 2–7 behaviour).
    #[default]
    Latency,
    /// Finite per-node link capacity with FIFO queueing on each node's
    /// uplink and downlink; propagation stays per-ring.
    Contention(ContentionParams),
}

impl FabricModel {
    pub fn is_contention(&self) -> bool {
        matches!(self, FabricModel::Contention(_))
    }
}

impl fmt::Display for FabricModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricModel::Latency => write!(f, "latency"),
            FabricModel::Contention(p) => {
                if *p == ContentionParams::default() {
                    return write!(f, "contention");
                }
                // Positional emit, trailing unset fields trimmed; an
                // unset field between set ones prints empty
                // (`contention:,32`), which `FromStr` reads back as
                // `None` — round-trip by construction.
                let fields = [p.link_byte_ps, p.ctrl_bytes, p.header_bytes];
                let last = fields.iter().rposition(|f| f.is_some()).unwrap();
                write!(f, "contention:")?;
                for (i, field) in fields[..=last].iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    if let Some(v) = field {
                        write!(f, "{v}")?;
                    }
                }
                Ok(())
            }
        }
    }
}

impl FromStr for FabricModel {
    type Err = String;

    /// `latency`, `contention`, or `contention:BYTE_PS[,CTRL[,HDR]]` —
    /// an empty positional field (e.g. `contention:,32`) leaves that
    /// parameter to the cost model.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "latency" | "flat" => Ok(FabricModel::Latency),
            "contention" => Ok(FabricModel::Contention(ContentionParams::default())),
            _ => {
                let rest = s
                    .strip_prefix("contention:")
                    .ok_or_else(|| format!("unknown fabric model {s:?}"))?;
                let mut p = ContentionParams::default();
                let mut it = rest.split(',');
                let field = |v: Option<&str>| -> Result<Option<u64>, String> {
                    match v.map(str::trim) {
                        None | Some("") => Ok(None),
                        Some(x) => x
                            .parse()
                            .map(Some)
                            .map_err(|_| format!("bad fabric field {x:?}")),
                    }
                };
                p.link_byte_ps = field(it.next())?;
                p.ctrl_bytes = field(it.next())?;
                p.header_bytes = field(it.next())?;
                if it.next().is_some() {
                    return Err(format!("too many fabric fields in {s:?}"));
                }
                Ok(FabricModel::Contention(p))
            }
        }
    }
}

/// One direction of a node's network attachment: busy-until horizon plus
/// the departure times of in-queue messages (for depth accounting).
#[derive(Clone, Debug, Default)]
struct Link {
    busy_until: u64,
    departs: VecDeque<u64>,
    max_depth: u64,
}

impl Link {
    /// Enqueue a message of `ser_ns` serialization at `now`; returns
    /// (departure instant, queueing wait).
    fn enqueue(&mut self, now: u64, ser_ns: u64) -> (u64, u64) {
        while self.departs.front().is_some_and(|&d| d <= now) {
            self.departs.pop_front();
        }
        let start = self.busy_until.max(now);
        let wait = start - now;
        let dep = start + ser_ns;
        self.busy_until = dep;
        self.departs.push_back(dep);
        self.max_depth = self.max_depth.max(self.departs.len() as u64);
        (dep, wait)
    }
}

/// Conservation and congestion counters, copied into the
/// [`SimReport`](crate::SimReport) at drain.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricReport {
    /// Was the contention model active?
    pub contention: bool,
    /// Remote steal-plane messages handed to the fabric (requests,
    /// refusals, work replies; bound dissemination is billed analytically
    /// by the [`BoundFabric`](crate::BoundFabric) and counted in
    /// `bound_msgs` instead).
    pub injected: u64,
    /// Messages consumed by their destination worker.
    pub delivered: u64,
    /// Messages still travelling (or sitting unread in a mailbox) when
    /// the simulation drained: `injected == delivered + in_flight`.
    pub in_flight: u64,
    /// Deepest FIFO backlog any single link direction reached.
    pub max_link_depth: u64,
    /// Messages that had to wait behind an earlier transmission.
    pub queued_msgs: u64,
    /// Total virtual time spent queueing (the steal-storm bill).
    pub total_queue_ns: u64,
}

/// The message fabric: prices every remote steal-plane message and keeps
/// the conservation books. One instance per simulation.
#[derive(Clone, Debug)]
pub(crate) struct NetFabric {
    model: FabricModel,
    /// Wire constants resolved against the run's cost model (the single
    /// source of truth for per-byte pricing and message sizes).
    wire: WireParams,
    /// `links[2n]` = node `n`'s egress (uplink), `links[2n+1]` = ingress.
    links: Vec<Link>,
    injected: u64,
    delivered: u64,
    queued_msgs: u64,
    total_queue_ns: u64,
}

impl NetFabric {
    pub fn new(model: FabricModel, nodes: usize, costs: &CostModel) -> Self {
        let (links, wire) = match model {
            FabricModel::Latency => (Vec::new(), ContentionParams::default().resolve(costs)),
            FabricModel::Contention(p) => (vec![Link::default(); 2 * nodes], p.resolve(costs)),
        };
        NetFabric {
            model,
            wire,
            links,
            injected: 0,
            delivered: 0,
            queued_msgs: 0,
            total_queue_ns: 0,
        }
    }

    pub fn params(&self) -> WireParams {
        self.wire
    }

    /// Price one remote message sent at `now`: `bytes` on the wire,
    /// `prop_ns` of per-ring propagation, and `flat_extra_ns` the flat
    /// model's per-byte transfer surcharge (zero for control messages).
    /// Returns the arrival instant at the destination worker.
    pub fn send(
        &mut self,
        from_node: usize,
        to_node: usize,
        bytes: u64,
        prop_ns: u64,
        flat_extra_ns: u64,
        now: u64,
    ) -> u64 {
        self.injected += 1;
        match self.model {
            FabricModel::Latency => now + prop_ns + flat_extra_ns,
            FabricModel::Contention(_) => {
                let ser = self.wire.link_byte_ps.saturating_mul(bytes) / 1000;
                let (out, w1) = self.links[2 * from_node].enqueue(now, ser);
                let at_ingress = out + prop_ns;
                let (arrival, w2) = self.links[2 * to_node + 1].enqueue(at_ingress, ser);
                let wait = w1 + w2;
                if wait > 0 {
                    self.queued_msgs += 1;
                    self.total_queue_ns += wait;
                }
                arrival
            }
        }
    }

    /// Record a message consumed by its destination.
    pub fn deliver(&mut self) {
        self.delivered += 1;
    }

    /// Close the books: `undelivered` messages found still sitting in
    /// mailboxes/queues at drain time.
    pub fn report(&self, undelivered: u64) -> FabricReport {
        debug_assert_eq!(self.injected, self.delivered + undelivered);
        FabricReport {
            contention: self.model.is_contention(),
            injected: self.injected,
            delivered: self.delivered,
            in_flight: self.injected - self.delivered,
            max_link_depth: self.links.iter().map(|l| l.max_depth).max().unwrap_or(0),
            queued_msgs: self.queued_msgs,
            total_queue_ns: self.total_queue_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_model_is_flat() {
        let mut f = NetFabric::new(FabricModel::Latency, 4, &CostModel::default());
        // Arrival is now + propagation + flat transfer, independent of load.
        for _ in 0..100 {
            assert_eq!(f.send(0, 1, 64, 2_000, 0, 10), 2_010);
        }
        let r = f.report(100);
        assert_eq!(r.injected, 100);
        assert_eq!(r.max_link_depth, 0);
        assert_eq!(r.total_queue_ns, 0);
    }

    #[test]
    fn contention_queues_fifo_behind_busy_links() {
        let p = ContentionParams {
            link_byte_ps: Some(1_000_000), // 1 µs per byte: easy arithmetic
            ctrl_bytes: Some(64),
            header_bytes: Some(0),
        };
        let mut f = NetFabric::new(FabricModel::Contention(p), 2, &CostModel::default());
        // 10-byte message = 10 µs serialization per link direction.
        let a1 = f.send(0, 1, 10, 500, 0, 0);
        assert_eq!(a1, 10_000 + 500 + 10_000);
        // Sent at the same instant: queues behind the first on both links.
        let a2 = f.send(0, 1, 10, 500, 0, 0);
        assert_eq!(a2, 20_000 + 500 + 10_000);
        assert!(a2 > a1, "FIFO order preserved");
        let r = f.report(2);
        assert_eq!(r.queued_msgs, 1);
        assert!(r.total_queue_ns > 0);
        assert_eq!(r.max_link_depth, 2);
    }

    #[test]
    fn storm_backpressure_grows_with_thieves() {
        let p = ContentionParams::default();
        let costs = CostModel::default();
        let mut small = NetFabric::new(FabricModel::Contention(p), 8, &costs);
        let mut big = NetFabric::new(FabricModel::Contention(p), 8, &costs);
        // 10 vs 10_000 thieves all hitting node 0's ingress at t=0.
        let last_small = (0..10)
            .map(|s| small.send(1 + s % 7, 0, 64, 2_000, 0, 0))
            .max();
        let last_big = (0..10_000)
            .map(|s| big.send(1 + s % 7, 0, 64, 2_000, 0, 0))
            .max();
        assert!(last_big.unwrap() > 10 * last_small.unwrap());
        assert!(big.report(10_000).total_queue_ns > small.report(10).total_queue_ns);
    }

    #[test]
    fn model_parses_and_displays() {
        assert_eq!(
            "latency".parse::<FabricModel>().unwrap(),
            FabricModel::Latency
        );
        assert_eq!(
            "contention".parse::<FabricModel>().unwrap(),
            FabricModel::Contention(ContentionParams::default())
        );
        let m: FabricModel = "contention:1000,32,16".parse().unwrap();
        match m {
            FabricModel::Contention(p) => {
                assert_eq!(
                    (p.link_byte_ps, p.ctrl_bytes, p.header_bytes),
                    (Some(1000), Some(32), Some(16))
                );
            }
            _ => panic!(),
        }
        assert_eq!(m.to_string(), "contention:1000,32,16");
        assert_eq!(FabricModel::Latency.to_string(), "latency");
        assert!("warp".parse::<FabricModel>().is_err());
        assert!("contention:a".parse::<FabricModel>().is_err());

        // Partial overrides: unset fields stay on the cost model, and
        // Display/FromStr round-trip every combination.
        for s in ["contention:1000", "contention:,32", "contention:,,16"] {
            let m: FabricModel = s.parse().unwrap();
            assert_eq!(m.to_string(), s, "positional round-trip");
            assert_eq!(m.to_string().parse::<FabricModel>().unwrap(), m);
        }
        let costs = CostModel::default();
        let FabricModel::Contention(p) = "contention:,32".parse().unwrap() else {
            panic!()
        };
        let w = p.resolve(&costs);
        assert_eq!(w.link_byte_ps, costs.byte_ps, "unset → cost model");
        assert_eq!(w.ctrl_bytes, 32, "set → override");
        assert_eq!(w.header_bytes, costs.header_bytes);
    }
}
