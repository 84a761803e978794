//! The benchmark's definition: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics with the end-to-end metric each
//! should move. `BENCHMARK.json` at the repo root is generated from this
//! file (`run.sh --emit-spec`) and a test keeps the two identical.

use crate::json::Json;

/// Seconds one run measures (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` (≤ 200 characters).
    pub why: &'static str,
    /// What the three legs are on this workload.
    pub legs: [&'static str; 3],
}

// The figures in `why` and `moves` are from traced passes at these sizes
// on the 2-vCPU host this was written on (README, "What the traced pass
// showed"); measure again before relying on them elsewhere.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "queens_enum",
        why: "N-Queens 11, all 2 680 solutions, 43 420 nodes on any schedule (paper Fig. 3/4 in small): 1.1 us/node, nearly all engine propagation; the runtime adds 0.2 us/node. --seed feeds schedulers only.",
        legs: ["solve_seq", "threaded MaCS, 1 pinned worker", "threaded MaCS, W pinned workers"],
    },
    Workload {
        name: "qap_bnb",
        why: "QAPLIB esc16e[9] B&B to optimum 52, 85 822 seq nodes (Fig. 5/6 in small): 0.3 us/node, 0.89 propagation, so the runtime's 0.2 us/node makes one worker 1.7x seq and W=2 no faster than seq.",
        legs: ["solve_seq", "threaded MaCS, 1 pinned worker", "threaded MaCS, W pinned workers"],
    },
    Workload {
        name: "uts_unbalanced",
        why: "UTS binomial tree pinned at 201 685 nodes, depth 816: no constraint engine, a node is one SHA-1 (0.25 us); runtime + pool add 0.11 us/node, ~100 steals a solve. Bypass for engine/domain work.",
        legs: ["uts_sequential", "uts_parallel, 1 pinned worker", "uts_parallel, W pinned workers"],
    },
    Workload {
        name: "sim_scale",
        why: "Simulator host time: queens-10, esc16e[8] and a 57 881-node UTS tree solved plainly, on 1 virtual core, and as five 512-4096-core cells: 0.3 us/event, 0.78 of it protocol (heap, arena, phases).",
        legs: [
            "the three inputs solved sequentially, no simulator",
            "simulate_macs of each input on 1 virtual core",
            "the five scale cells at 512-4096 virtual cores",
        ],
    },
    Workload {
        name: "service_mix",
        why: "25 jobs of 0.8-45 ms through macs-service: solved plainly, drained by the threaded backend on one core (1.8x: the runtime's per-node cost), drained by the simulated backend on 32x4 cores (host time).",
        legs: [
            "every job solved back to back by solve_seq",
            "ThreadedBackend drain on 1 one-core node",
            "SimBackend drain on 32 x 4 virtual cores (host time)",
        ],
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

/// Every workload reports every one of these (untraced run); each timing
/// is the lower quartile of its leg's samples (`stats::lower_quartile`).
///
/// The issue's rule for a bound is max(5 %, 3 x the spread over ten
/// seeds). On the shared 2-vCPU host this was written on, the driver's own
/// procedure (ten runs a workload, each with another seed, twice; README,
/// "End-to-end metrics") gave 0.4-5 % on `seq_solve_s` and
/// `macs_w1_solve_s` in quiet stretches and up to 14 % in a noisy one,
/// 2-15 % on `macs_wN_solve_s` and 0.6-4 % on `peak_rss_mb`: three times
/// the worst is past the contract's cap of 0.25 for the timings, which sit
/// at it (tighten them on a quieter host), and 0.12 for the memory.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "one set-up, repeated as a leg of every round: model compile + sequential oracle solves (+ trace generation)",
    },
    EndToEnd {
        name: "seq_solve_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "the batch on the plain sequential path, one pinned thread: the sequential-grade baseline",
    },
    EndToEnd {
        name: "macs_w1_solve_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "the batch through the system at width one: isolates runtime / simulator / service overhead",
    },
    EndToEnd {
        name: "macs_wN_solve_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "the batch through the system at full width: W pinned workers, or the 512-4096-core cells",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
        what: "VmHWM of the workload's own process",
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Which end-to-end metric this should move, and where: written down
    /// before measuring, then corrected from the traced pass at the
    /// shipped sizes.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const ENGINE: &str = "seq/w1/wN on queens_enum (nearly all of a seq node, 0.84 of the workers' busy time) and qap_bnb (0.89 / 0.68); the jobs of service_mix; the kernel share (0.22 of an event) of sim_scale; 0 on uts_unbalanced";
const STEP: &str =
    "seq/w1/wN on queens_enum and qap_bnb: the whole sequential node but its pool push/pop";
const POOL: &str = "w1/wN on uts_unbalanced, qap_bnb, queens_enum: push + pop + release + reacquire are 20-40 ns of the 110-200 ns a node the runtime adds at width one";
const STEAL: &str = "wN on uts_unbalanced (~100 steals of ~15 items a solve); 11-13 steals a solve on queens_enum and qap_bnb, under 0.01 of the leg";
const GPI: &str = "wN on qap_bnb; 0.4-2.5 ns uncontended, recorded to show it is negligible: a contended bound cell shows in runtime.*_share";
const SHARES: &str = "w1/wN on uts_unbalanced (0.78 working at W=2) and qap_bnb (0.85): where the workers' non-working time goes";
const SIM_HOST: &str = "wN on sim_scale (host time)";
const SIM_MODEL: &str =
    "simulated time only: a protocol-rule change moves it, a simulator-speed change must not";
const INFO: &str = "context for the other rows, not a target";

/// Every workload reports every one of these in a traced run. The result
/// line carries a metric of a layer the workload does not exercise as 0;
/// the printed table says "not measured".
pub const PER_LAYER: [Layer; 95] = [
    // domain
    layer("domain.intersect_ns_per_word", "ns", Lower, ENGINE),
    layer("domain.store_copy_ns", "ns", Lower, "2.6 ns a copy, under 0.01 of a node on every workload; recorded to show it"),
    layer("domain.store_words", "count", Lower, "pool.* and domain.store_copy_ns scale with it"),
    // engine
    layer("engine.propagate_ns_per_node", "ns", Lower, ENGINE),
    layer("engine.prop_runs_per_node", "count", Lower, ENGINE),
    layer("engine.ns_per_prop_run", "ns", Lower, ENGINE),
    layer("engine.fail_share", "share", Lower, INFO),
    // search
    layer("search.step_ns_per_node", "ns", Lower, STEP),
    layer("search.split_ns_per_node", "ns", Lower, "seq/w1/wN on qap_bnb (25 ns, 0.08 of a node); reads 0 on queens_enum, where step - propagate is inside the noise"),
    layer("search.children_per_split", "count", Lower, INFO),
    layer("search.nodes", "count", Lower, "seq on the three solver workloads (exact where enumeration)"),
    layer("search.nodes_vs_seq", "ratio", Lower, "wN on qap_bnb: parallel / sequential nodes, the B&B wasted-work ratio"),
    // pool
    layer("pool.push_pop_ns", "ns", Lower, POOL),
    layer("pool.release_reacquire_ns", "ns", Lower, POOL),
    layer("pool.steal_ns_chunk1", "ns", Lower, STEAL),
    layer("pool.steal_ns_chunk16", "ns", Lower, STEAL),
    layer("pool.overflow_spills", "count", Lower, "wN on uts_unbalanced (the root pushes 399 children); 0 at the default pool capacity"),
    // gpi
    layer("gpi.cell_load_ns", "ns", Lower, GPI),
    layer("gpi.cell_fetch_min_ns", "ns", Lower, GPI),
    layer("gpi.incumbent_read_ns", "ns", Lower, GPI),
    // topo
    layer("topo.victim_pick_ns", "ns", Lower, "wN on uts_unbalanced; recorded mainly to show it is negligible"),
    // runtime (from the RunReport of the timed wN run)
    layer("runtime.overhead_w1_ns_per_node", "ns", Lower, "w1 on the three solver workloads, (w1 - seq) / nodes = 200 / 200 / 110 ns, and w1/wN on service_mix, whose jobs run the same worker loop; the ladder explains 20-40 ns of it"),
    layer("runtime.speedup_wN", "ratio", Higher, "wN: seq / wN"),
    layer("runtime.efficiency_wN", "ratio", Higher, "wN: speed-up / W"),
    layer("runtime.working_share", "share", Higher, SHARES),
    layer("runtime.searching_share", "share", Lower, SHARES),
    layer("runtime.stealing_share", "share", Lower, SHARES),
    layer("runtime.idle_share", "share", Lower, SHARES),
    layer("runtime.releasing_share", "share", Lower, SHARES),
    layer("runtime.poll_share", "share", Lower, SHARES),
    layer("runtime.barrier_share", "share", Lower, SHARES),
    layer("runtime.local_steals", "count", Lower, INFO),
    layer("runtime.local_steal_failures", "count", Lower, "wN on uts_unbalanced"),
    layer("runtime.steal_success_share", "share", Higher, "wN on uts_unbalanced"),
    layer("runtime.items_per_steal", "count", Higher, "wN on uts_unbalanced"),
    layer("runtime.releases", "count", Lower, "w1/wN on uts_unbalanced and qap_bnb: 0.6 releases a node"),
    layer("runtime.polls", "count", Lower, "w1/wN on uts_unbalanced and qap_bnb: one poll per 60 nodes"),
    layer("runtime.requests_served", "count", Lower, "0 on one shared-memory node; non-zero only on multi-node shapes"),
    layer("runtime.spawn_join_ms", "ms", Lower, "0.1-0.2 ms: under 0.01 of every solver leg, 0.02-0.03 of a service_mix drain (25 jobs)"),
    // core
    layer("core.phase_propagate_share", "share", Lower, "tells which of engine/search a w1/wN change came from"),
    layer("core.phase_split_share", "share", Lower, "tells which of engine/search a w1/wN change came from"),
    // paccs (the rival backend, traced run only)
    layer("paccs.wN_solve_s", "s", Lower, "the rival's own time on queens_enum and qap_bnb; moves with engine/search, not with runtime/pool"),
    layer("paccs.speedup_wN", "ratio", Higher, "paccs.wN_solve_s"),
    layer("paccs.steal_msgs", "count", Lower, "paccs.wN_solve_s"),
    layer("paccs.bound_msgs", "count", Lower, "paccs.wN_solve_s on qap_bnb"),
    // uts
    layer("uts.node_ns", "ns", Lower, "seq/w1/wN on uts_unbalanced"),
    // sim, per scale cell
    layer("sim.macs_q10_4096_lat.events_per_s", "1/s", Higher, SIM_HOST),
    layer("sim.macs_q10_4096_lat.events", "count", Lower, SIM_MODEL),
    layer("sim.macs_q10_4096_lat.makespan_ms", "ms", Lower, SIM_MODEL),
    layer("sim.macs_q10_4096_lat.trace_hash_stable", "bool", Higher, "correctness: same-seed double run"),
    layer("sim.macs_q10_4096_cont.events_per_s", "1/s", Higher, SIM_HOST),
    layer("sim.macs_q10_4096_cont.events", "count", Lower, SIM_MODEL),
    layer("sim.macs_q10_4096_cont.makespan_ms", "ms", Lower, SIM_MODEL),
    layer("sim.macs_q10_4096_cont.trace_hash_stable", "bool", Higher, "correctness: same-seed double run"),
    layer("sim.paccs_q10_512.events_per_s", "1/s", Higher, SIM_HOST),
    layer("sim.paccs_q10_512.events", "count", Lower, SIM_MODEL),
    layer("sim.paccs_q10_512.makespan_ms", "ms", Lower, SIM_MODEL),
    layer("sim.paccs_q10_512.trace_hash_stable", "bool", Higher, "correctness: same-seed double run"),
    layer("sim.macs_esc8_512_hier.events_per_s", "1/s", Higher, SIM_HOST),
    layer("sim.macs_esc8_512_hier.events", "count", Lower, SIM_MODEL),
    layer("sim.macs_esc8_512_hier.makespan_ms", "ms", Lower, SIM_MODEL),
    layer("sim.macs_esc8_512_hier.trace_hash_stable", "bool", Higher, "correctness: same-seed double run"),
    layer("sim.macs_uts_512.events_per_s", "1/s", Higher, "wN on sim_scale: cheap nodes, 5 events per node, so heap/arena/phase machine"),
    layer("sim.macs_uts_512.events", "count", Lower, SIM_MODEL),
    layer("sim.macs_uts_512.makespan_ms", "ms", Lower, SIM_MODEL),
    layer("sim.macs_uts_512.trace_hash_stable", "bool", Higher, "correctness: same-seed double run"),
    // sim, over the five cells
    layer("sim.events_per_s", "1/s", Higher, SIM_HOST),
    layer("sim.makespan_ms", "ms", Lower, SIM_MODEL),
    layer("sim.host_ns_per_event", "ns", Lower, SIM_HOST),
    layer("sim.kernel_ns_per_event", "ns", Lower, "computed: nodes x sequential ns/node / events; moves with engine/search"),
    layer("sim.protocol_ns_per_event", "ns", Lower, "wN on sim_scale through macs_uts_512: heap + arena + phase machine"),
    layer("sim.peak_live_items", "count", Lower, "peak_rss_mb on sim_scale"),
    layer("sim.remote_round_trips", "count", Lower, SIM_MODEL),
    layer("sim.items_per_remote_steal", "count", Higher, SIM_MODEL),
    layer("sim.fabric_queued_msgs", "count", Lower, SIM_MODEL),
    layer("sim.sim_speedup_4096", "ratio", Higher, SIM_MODEL),
    // service
    layer("service.drain_jobs_per_s", "1/s", Higher, "the threaded drain on W one-core nodes: not gated, bistable on this host (job workers are unpinned)"),
    layer("service.drain_wN_vs_w1", "ratio", Lower, "W-node drain time / one-node drain time: 1.0 when the kernel keeps co-running jobs on one CPU, 0.55 when it spreads them"),
    layer("service.sched_ns_per_action", "ns", Lower, "w1/wN on service_mix: 80 ns a decision, negligible as predicted, recorded to prove it"),
    layer("service.job_floor_ms", "ms", Lower, "service.drain_jobs_per_s: a 0.8 ms job alone on the idle W-node service takes 0.6 ms when its two unpinned workers are on two CPUs, 8 ms when they share one"),
    layer("service.max_queue_depth", "count", Lower, INFO),
    layer("service.resizes", "count", Lower, "service.drain_jobs_per_s: lease shrinks and grows in the W-node drain"),
    layer("service.open50_sojourn_p50_ms", "ms", Lower, "diagnostic: swings 30-60 % run to run on a shared host, never gated"),
    layer("service.open50_sojourn_p90_ms", "ms", Lower, "diagnostic: swings 30-60 % run to run on a shared host, never gated"),
    layer("service.open50_wait_p90_ms", "ms", Lower, "diagnostic: due-to-dispatch lag (generator lateness + queueing)"),
    layer("service.open100_sojourn_p50_ms", "ms", Lower, "diagnostic: swings 30-60 % run to run on a shared host, never gated"),
    layer("service.open100_sojourn_p90_ms", "ms", Lower, "diagnostic: swings 30-60 % run to run on a shared host, never gated"),
    layer("service.sim_sojourn_p90_ms", "ms", Lower, SIM_MODEL),
    layer("service.sim_rejected_share", "share", Lower, SIM_MODEL),
    layer("service.sim_digest_stable", "bool", Higher, "correctness: same-seed double run"),
    // problems
    layer("problems.compile_ms", "ms", Lower, "setup_s"),
    // ladder / trace
    layer("ladder.sum_ns_per_node", "ns", Lower, "seq on the three solver workloads: the explained part of a node"),
    layer("ladder.unexplained_ns_per_node", "ns", Lower, "seq / nodes minus the ladder sum, printed as its own row"),
    layer("trace.overhead_share", "share", Lower, "what the spans themselves cost; end-to-end numbers come from the untraced run"),
    layer("trace.spans", "count", Lower, INFO),
];

/// `BENCHMARK.json`, exactly the keys the driver's contract names.
pub fn benchmark_json() -> Json {
    let num = Json::Num;
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn spec_stays_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.chars().count() <= 200, "{}: why too long", w.name);
            assert!(!w.why.contains('\n'));
            assert!(seen.insert(w.name));
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!((0.0..=0.25).contains(&m.bound));
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().pretty().len() <= 64 * 1024);
        // 4 + 22 runs per workload, each set-up + window, inside the cap.
        let runs = 4 + 22 * WORKLOADS.len() as u64;
        assert!(runs * (RUN_SECONDS + 7) + 2 * 120 <= 3420);
    }

    #[test]
    fn committed_benchmark_json_round_trips_and_matches_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with run.sh --emit-spec"
        );
        assert_eq!(Json::parse(&on_disk.pretty()).unwrap(), on_disk);
        let keys: Vec<&str> = on_disk
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
