//! Spans recorded from the benchmark's own files, around its calls into
//! each layer. Kept in memory, written at exit as Chrome trace-event
//! JSON (open `out/trace_<workload>.json` in `chrome://tracing` or
//! Perfetto). A span's *self* time is its duration minus the part its
//! child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span among the *retained* spans.
    pub parent: Option<u32>,
}

/// Per-name totals over every span closed, retained or not.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    children_ns: u64,
    /// Slot reserved among the retained spans (`None` past the cap).
    slot: Option<u32>,
}

/// The recorder. A disabled tracer does nothing, so the untraced run
/// pays one branch per call site.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    open: Vec<Open>,
    spans: Vec<Span>,
    /// Retain at most this many spans for the trace file; totals keep
    /// counting past it (a per-node DFS closes millions of spans).
    keep: usize,
    totals: BTreeMap<&'static str, SpanTotals>,
}

impl Tracer {
    pub fn new(enabled: bool, keep: usize) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
            keep,
            totals: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; the next `exit` closes it.
    #[inline]
    pub fn enter(&mut self, name: &'static str) {
        if self.enabled {
            let t = self.now_ns();
            self.enter_at(name, t);
        }
    }

    /// Close the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if self.enabled {
            let t = self.now_ns();
            self.exit_at(t);
        }
    }

    fn enter_at(&mut self, name: &'static str, t_ns: u64) {
        let slot = (self.spans.len() < self.keep).then(|| {
            let parent = self.open.iter().rev().find_map(|o| o.slot);
            self.spans.push(Span {
                name,
                start_ns: t_ns,
                end_ns: t_ns,
                parent,
            });
            (self.spans.len() - 1) as u32
        });
        self.open.push(Open {
            name,
            start_ns: t_ns,
            children_ns: 0,
            slot,
        });
    }

    fn exit_at(&mut self, t_ns: u64) {
        let Some(o) = self.open.pop() else { return };
        let dur = t_ns.saturating_sub(o.start_ns);
        if let Some(slot) = o.slot {
            self.spans[slot as usize].end_ns = t_ns;
        }
        if let Some(parent) = self.open.last_mut() {
            parent.children_ns += dur;
        }
        let t = self.totals.entry(o.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(o.children_ns);
    }

    pub fn totals(&self) -> &BTreeMap<&'static str, SpanTotals> {
        &self.totals
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans closed so far, retained or not.
    pub fn closed(&self) -> u64 {
        self.totals.values().map(|t| t.count).sum()
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per
    /// retained span on track `tid` = the workload id, with the parent
    /// span's index in `args`.
    pub fn chrome_trace(&self, workload: &str, workload_id: usize) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str(workload)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(workload_id as f64)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(i as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ns")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true, 100);
        // node [0, 100] ⊃ propagate [10, 40], split [50, 70] ⊃ copy [55, 60]
        t.enter_at("node", 0);
        t.enter_at("propagate", 10);
        t.exit_at(40);
        t.enter_at("split", 50);
        t.enter_at("copy", 55);
        t.exit_at(60);
        t.exit_at(70);
        t.exit_at(100);
        let tot = t.totals();
        assert_eq!(tot["node"].total_ns, 100);
        assert_eq!(
            tot["node"].self_ns,
            100 - 30 - 20,
            "grandchildren are not subtracted twice"
        );
        assert_eq!(tot["propagate"].self_ns, 30);
        assert_eq!(tot["split"].total_ns, 20);
        assert_eq!(tot["split"].self_ns, 15);
        assert_eq!(tot["copy"].self_ns, 5);
        // Self times partition the root's duration.
        let sum: u64 = tot.values().map(|s| s.self_ns).sum();
        assert_eq!(sum, 100);
        // Parents are recorded by index.
        let parents: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            vec![
                ("node", None),
                ("propagate", Some(0)),
                ("split", Some(0)),
                ("copy", Some(2))
            ]
        );
    }

    #[test]
    fn totals_keep_counting_past_the_retention_cap() {
        let mut t = Tracer::new(true, 2);
        for i in 0..5u64 {
            t.enter_at("node", i * 10);
            t.exit_at(i * 10 + 4);
        }
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.totals()["node"].count, 5);
        assert_eq!(t.totals()["node"].total_ns, 20);
        assert_eq!(t.closed(), 5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 10);
        t.enter("x");
        t.exit();
        t.exit(); // unbalanced exit is harmless
        assert!(t.spans().is_empty() && t.totals().is_empty());
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let mut t = Tracer::new(true, 10);
        t.enter_at("solve_seq", 1_000);
        t.exit_at(3_500);
        let j = t.chrome_trace("queens_enum", 0);
        let text = j.compact();
        let back = Json::parse(&text).unwrap();
        let Some(Json::Arr(events)) = back.get("traceEvents") else {
            panic!("traceEvents missing")
        };
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("ph"), Some(&Json::str("X")));
        assert_eq!(events[0].get("dur").and_then(Json::as_f64), Some(2.5));
    }
}
