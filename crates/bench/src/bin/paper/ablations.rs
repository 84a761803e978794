//! The ablations: the paper's three (§V polling, §VI release interval,
//! §IV victim choice) and the six knobs this reproduction adds — topology,
//! bound dissemination, steal-chunk granularity, first-solution races,
//! fabric contention and service leases. Every simulated cell is built by
//! [`Run::cell`], and every gate fails through [`Run::gate`].

use std::time::Instant;

use macs_bench::{
    arg, bound_policy_arg, chunk_policy_arg, core_series, cost_model_arg, deep_topo_for,
    fabric_arg, full_scale, lease_policies, mode_arg, opt_arg, serve_cell, shape_arg, sim_cp_macs,
    sim_cp_macs_mode, sim_cp_paccs, topo_for, xl_scale, CommonFlag,
};
use macs_core::{CpOutput, SearchMode};
use macs_engine::CompiledProblem;
use macs_problems::{coloring_model, golomb_ruler, ColoringInstance};
use macs_runtime::{PollPolicy, ReleasePolicy, ScanOrder, VictimSelect, WorkerState};
use macs_search::{BoundPolicy, ChunkPolicy};
use macs_service::{LeasePolicy, Oracle, WorkloadConfig};
use macs_sim::{CostModel, FabricModel, SimConfig, SimReport};

use crate::figures::N_QUEENS;
use crate::{esc16e_workload, machines, queens_workload, secs, Run, Sub, Tally, Workload};

const CORES_64: (&str, &str) = ("--cores <N>", "simulated cores [default: 64]");
const CORES_ONE: (&str, &str) = ("--cores <N>", "one core count instead of the series");
const QN: (&str, &str) = ("--qn <N>", "esc16e sub-instance size, 2..=16 [default: 11]");
const SEEDS: (&str, &str) = ("--seeds <N>", "schedule seeds per cell [default: 3]");
const N_FULL: (&str, &str) = ("--n <N>", "queens size [default: 12; 14 with --full]");
const HOST: &[CommonFlag] = &[CommonFlag::CostModel, CommonFlag::DetectTopo];

// --- the paper's three -------------------------------------------------------

pub const POLLING: Sub = Sub {
    name: "ablation_polling",
    about: "§V — poll interval",
    flags: &[N_QUEENS, CORES_64],
    common: HOST,
    run: polling,
    shape: "\nExpected: eager fixed polling wastes time in Poll; lazy fixed polling\n\
            inflates WaitRemote (thieves starve); a dynamic interval with a sane\n\
            ceiling (the shipped default) gets both ends right — and an\n\
            over-generous ceiling shows why the ceiling matters.",
};

fn polling(run: &Run) {
    let (name, prob, costs) = queens_workload(arg("n", 12));
    let cores: usize = arg("cores", 64);
    println!("Polling-policy ablation, {name} @ {cores} simulated cores\n");
    println!(
        "{:<18} {:>9} {:>8} {:>12} {:>12}",
        "policy", "polls", "Poll%", "WaitRemote%", "makespan(s)"
    );
    for (label, policy) in [
        ("fixed(4)", PollPolicy::Fixed(4)),
        ("fixed(64)", PollPolicy::Fixed(64)),
        ("fixed(1024)", PollPolicy::Fixed(1024)),
        ("dynamic(2..64)", PollPolicy::Dynamic { min: 2, max: 64 }),
        (
            "dynamic(4..1024)",
            PollPolicy::Dynamic { min: 4, max: 1024 },
        ),
    ] {
        let mut cfg = run.cell(topo_for(cores), costs);
        cfg.steal.poll = policy;
        let r = sim_cp_macs(&prob, &cfg);
        let polls: u64 = r.workers.iter().map(|w| w.polls).sum();
        let fr = r.state_fractions();
        println!(
            "{label:<18} {polls:>9} {:>7.2}% {:>11.2}% {:>12.4}",
            fr[WorkerState::Poll as usize] * 100.0,
            fr[WorkerState::WaitRemote as usize] * 100.0,
            secs(&r)
        );
    }
}

pub const RELEASE_INTERVAL: Sub = Sub {
    name: "ablation_release_interval",
    about: "§VI — release interval: MaCS(default) → MaCS(best)",
    flags: &[N_QUEENS, CORES_64],
    common: HOST,
    run: release_interval,
    shape: "\nPaper shape: fewer releases → lower Releasing overhead → higher efficiency,\n\
            until the interval is so large that thieves find empty shared regions.",
};

fn release_interval(run: &Run) {
    let (name, prob, costs) = queens_workload(arg("n", 12));
    let cores: usize = arg("cores", 64);
    // The 1-core baseline keeps its one core under --detect-topo.
    let one = SimConfig {
        topology: topo_for(1),
        ..run.cell(topo_for(1), costs)
    };
    let base_s = secs(&sim_cp_macs(&prob, &one));
    println!("Release-interval ablation, {name} @ {cores} simulated cores\n");
    println!(
        "{:>9} {:>10} {:>12} {:>11} {:>11}",
        "interval", "releases", "Releasing%", "speed-up", "efficiency"
    );
    for interval in [1u32, 4, 16, 32, 128] {
        let mut cfg = run.cell(topo_for(cores), costs);
        cfg.steal.release = ReleasePolicy {
            interval,
            ..ReleasePolicy::default()
        };
        let r = sim_cp_macs(&prob, &cfg);
        let releases: u64 = r.workers.iter().map(|w| w.releases).sum();
        let s = base_s / secs(&r);
        println!(
            "{interval:>9} {releases:>10} {:>11.2}% {:>11.2} {:>10.1}%",
            r.state_fractions()[WorkerState::Releasing as usize] * 100.0,
            s,
            100.0 * s / cores as f64
        );
    }
}

pub const VICTIM: Sub = Sub {
    name: "ablation_victim",
    about: "§IV — victim choice",
    flags: &[N_QUEENS],
    common: HOST,
    run: victim,
    shape: "\nExpected: max-steal moves more items per steal (fewer, fatter steals);\n\
            greedy decides faster. End-to-end makespans stay close, as the paper\n\
            implies by shipping both options.",
};

fn victim(run: &Run) {
    let (name, prob, costs) = queens_workload(arg("n", 12));
    println!("Victim-selection ablation, {name}\n");
    println!(
        "{:>6} {:<10} {:>12} {:>10} {:>9} {:>12}",
        "cores", "heuristic", "local steals", "failed", "items", "makespan(s)"
    );
    for cores in [8usize, 32, 128] {
        for (label, sel) in [
            ("greedy", VictimSelect::Greedy),
            ("max-steal", VictimSelect::MaxSteal),
        ] {
            let mut cfg = run.cell(topo_for(cores), costs);
            cfg.steal.victim_select = sel;
            let r = sim_cp_macs(&prob, &cfg);
            let (lo, lf, _, _) = r.steal_totals();
            let items: u64 = r.workers.iter().map(|w| w.local_steal_items).sum();
            println!(
                "{cores:>6} {label:<10} {lo:>12} {lf:>10} {items:>9} {:>12.4}",
                secs(&r)
            );
        }
    }
}

// --- bound dissemination ------------------------------------------------------

pub const BOUND: Sub = Sub {
    name: "ablation_bound",
    about: "bound dissemination: immediate vs periodic vs hierarchical.\n\
            Gated: every seed and policy lands on one optimum; with --xl,\n\
            hierarchical sends fewer bound messages than immediate at 64k cores.",
    flags: &[QN, ("--gm <N>", "Golomb ruler marks [default: 7]"), SEEDS],
    common: &[
        CommonFlag::Shape,
        CommonFlag::BoundPolicy,
        CommonFlag::CostModel,
        CommonFlag::DetectTopo,
        CommonFlag::Full,
        CommonFlag::Xl,
    ],
    run: bound,
    shape: "All policies agree on every optimum. Expected shape: hierarchical\n\
            cuts bound-update fabric messages vs immediate by ~node-size x at\n\
            equal makespan; periodic is by far the stalest (its expansions run\n\
            on bounds up to a refresh cadence old, inflating the tree), and its\n\
            per-worker refresh pulls scale with nodes processed — cheap on\n\
            small trees, dominant on large ones.",
};

fn bound(run: &Run) {
    let seeds: u64 = arg("seeds", 3);
    let gm: usize = arg("gm", 7);
    let esc16e = esc16e_workload("qn", 11);
    let golomb = golomb_ruler(gm, (gm * gm) as u32);
    let golomb = (format!("golomb-{gm}"), golomb, CostModel::paper_queens());
    let policies = bound_policy_arg().map_or(BoundPolicy::ALL.to_vec(), |p| vec![p]);
    let set = |cfg: &mut SimConfig, policy| cfg.bound_policy = policy;

    println!("Bound-dissemination ablation (simulated MaCS, {seeds} seeds per cell)\n");
    for (name, prob, costs) in [&esc16e, &golomb] {
        println!("== {name} ==");
        println!(
            "  {:>5} {:>22} {:>11} {:>10} {:>8} {:>10} {:>10}  optimum",
            "cores", "policy", "ms/run", "bound-msgs", "updates", "stale-exp", "nodes"
        );
        for cores in core_series() {
            let cfg = run.cell(shape_arg().unwrap_or_else(|| deep_topo_for(cores)), *costs);
            let cell = format!("{name} @ {cores} cores");
            for (policy, t) in run.sweep(&cell, prob, &cfg, &policies, 1..=seeds, set) {
                println!(
                    "  {cores:>5} {:>22} {:>11.3} {:>10} {:>8} {:>10} {:>10}  {}",
                    policy.to_string(),
                    t.mean(t.ms),
                    t.bound_msgs / seeds,
                    t.bound_updates / seeds,
                    t.stale / seeds,
                    t.nodes / seeds,
                    t.optimum,
                );
            }
        }
        println!();
    }
    run.xl("== 64k-core depth-5/6 cells (gated) ==", |name, topo| {
        let cfg = run.cell(topo, esc16e.2);
        let tallies = run.sweep(name, &esc16e.1, &cfg, &policies, cfg.seed..=cfg.seed, set);
        for (policy, t) in &tallies {
            println!(
                "  {name} {:>22}: {:>11.3} ms  bound-msgs {:>10}  optimum {}",
                policy.to_string(),
                t.ms,
                t.bound_msgs,
                t.optimum
            );
        }
        // The message-economy claim, pinned at depth and scale: one
        // message per remote node *leader* must still beat one per
        // off-node worker when there are 16k nodes of 4 cores.
        let msgs = |want| {
            tallies
                .iter()
                .find(|(p, _)| *p == want)
                .map(|(_, t)| t.bound_msgs)
        };
        if let (Some(hier), Some(imm)) = (
            msgs(BoundPolicy::Hierarchical),
            msgs(BoundPolicy::Immediate),
        ) {
            run.gate(
                hier < imm || imm == 0,
                format_args!(
                    "{name}: hierarchical sent {hier} bound msgs, immediate {imm} — \
                     the hierarchy stopped paying at 64k cores"
                ),
            );
        }
    });
}

// --- steal-chunk granularity --------------------------------------------------

pub const CHUNK: Sub = Sub {
    name: "ablation_chunk",
    about: "steal-chunk granularity: static vs distance-scaled vs adaptive.\n\
            Gated: every seed and policy lands on one optimum, and adaptive\n\
            stays within 10% of static's makespan.",
    flags: &[N_FULL, QN, SEEDS, CORES_ONE],
    common: &[
        CommonFlag::Shape,
        CommonFlag::ChunkPolicy,
        CommonFlag::CostModel,
        CommonFlag::DetectTopo,
        CommonFlag::Full,
        CommonFlag::Xl,
    ],
    run: chunk,
    shape: "All chunk policies agree on every optimum and adaptive stayed within\n\
            10% of static's makespan. Expected shape: distance-scaled grants cut\n\
            remote round trips at equal makespan (each far round trip carries a\n\
            bigger reservation, while the thin-reply top-up gate stays anchored\n\
            to the static cap so serving nodes are never over-exported); on\n\
            queens enumeration the effect is within schedule noise.",
};

fn chunk(run: &Run) {
    let full = full_scale();
    let n: usize = arg("n", if full { 14 } else { 12 });
    let workloads = [esc16e_workload("qn", 11), queens_workload(n)];
    let seeds: u64 = arg("seeds", 3);
    let policies = chunk_policy_arg().map_or(ChunkPolicy::ALL.to_vec(), |p| vec![p]);
    let set = |cfg: &mut SimConfig, policy| cfg.steal.chunk_policy = policy;

    println!("Steal-chunk granularity ablation (simulated MaCS, {seeds} seeds per cell)\n");
    for (name, prob, costs) in &workloads {
        println!("== {name} ==");
        println!(
            "  {:>5} {:>8} {:>15} {:>11} {:>12} {:>12} {:>10}  steals by distance",
            "cores", "shape", "policy", "ms/run", "remote-rtts", "items/steal", "optimum"
        );
        for (cores, shape, topo) in machines(if full { vec![8, 64, 512] } else { vec![8, 64] }) {
            let cell = format!("{name} @ {cores} cores ({shape})");
            let cfg = run.cell(topo, *costs);
            let tallies = run.sweep(&cell, prob, &cfg, &policies, 1..=seeds, set);
            for (policy, t) in &tallies {
                let optimum = match t.optimum {
                    i64::MAX => "-".to_string(),
                    o => o.to_string(),
                };
                println!(
                    "  {cores:>5} {shape:>8} {:>15} {:>11.3} {:>12.1} {:>12.2} {optimum:>10}  {}",
                    policy.to_string(),
                    t.mean(t.ms),
                    t.mean(t.rtts as f64),
                    t.mean(t.items_per_steal),
                    t.hist.display(),
                );
            }
            if let Some((s, a)) = adaptive_vs_static(run, &cell, &tallies) {
                let (s_rtts, a_rtts) = (s.mean(s.rtts as f64), a.mean(a.rtts as f64));
                let (s_ms, a_ms) = (s.mean(s.ms), a.mean(a.ms));
                println!(
                    "        adaptive vs static: remote round-trips {:+.1}%, \
                     makespan {:+.1}%, items/steal {:.2} -> {:.2}",
                    100.0 * (a_rtts - s_rtts) / s_rtts.max(1.0),
                    100.0 * (a_ms - s_ms) / s_ms.max(1e-9),
                    s.mean(s.items_per_steal),
                    a.mean(a.items_per_steal)
                );
            }
        }
        println!();
    }
    let (name, prob, costs) = &workloads[0];
    run.xl(
        "== 64k-core depth-5/6 cells: esc16e (gated, 1 seed) ==",
        |cell, topo| {
            let cfg = run.cell(topo, *costs);
            let tallies = run.sweep(cell, prob, &cfg, &policies, cfg.seed..=cfg.seed, set);
            for (policy, t) in &tallies {
                println!(
                    "  {name} {cell} {:>15}: {:>11.3} ms  remote-rtts {:>9.0}  \
                 items/steal {:>5.2}  optimum {}",
                    policy.to_string(),
                    t.ms,
                    t.rtts as f64,
                    t.items_per_steal,
                    t.optimum
                );
            }
            adaptive_vs_static(run, cell, &tallies);
        },
    );
}

/// The tuner must never buy round trips with makespan: adaptive more than
/// 10% slower than static fails a gate. Returns both tallies when both
/// policies were swept.
fn adaptive_vs_static<'a>(
    run: &Run,
    cell: &str,
    tallies: &'a [(ChunkPolicy, Tally)],
) -> Option<(&'a Tally, &'a Tally)> {
    let find = |want| tallies.iter().find(|(p, _)| *p == want).map(|(_, t)| t);
    let (s, a) = (find(ChunkPolicy::Static)?, find(ChunkPolicy::Adaptive)?);
    let (s_ms, a_ms) = (s.mean(s.ms), a.mean(a.ms));
    run.gate(
        a_ms <= s_ms * 1.10,
        format_args!("{cell}: adaptive {a_ms:.3} ms vs static {s_ms:.3} ms (>10% worse)"),
    );
    Some((s, a))
}

// --- fabric contention ----------------------------------------------------------

pub const FABRIC: Sub = Sub {
    name: "ablation_fabric",
    about: "steal-plane fabric: flat per-ring latency vs finite-link contention.\n\
            Gated: the models agree on every answer, the latency model never\n\
            queues, the storm does, the fabric books balance, and the run\n\
            stays within --budget-s.",
    flags: &[
        ("--n <N>", "queens size for the storm/sweep [default: 12]"),
        ("--qn <N>", "esc16e size for --xl, 2..=16 [default: 11]"),
        (
            "--budget-s <S>",
            "wall-clock budget for the whole run, seconds\n\
             (exit non-zero when exceeded) [default: unlimited]",
        ),
    ],
    common: &[
        CommonFlag::Fabric,
        CommonFlag::ChunkPolicy,
        CommonFlag::CostModel,
        CommonFlag::DetectTopo,
        CommonFlag::Full,
        CommonFlag::Xl,
    ],
    run: fabric,
    shape: "\nAll gates passed. Expected shape: answers agree under both models\n\
            (node-for-node on enumeration, same optimum on branch-and-bound);\n\
            queueing zero under latency and growing with the storm\n\
            under contention (strongly for PaCCS' unbounded request queues,\n\
            weakly for MaCS' one-slot mailbox); the cont/lat makespan ratio\n\
            drifts above 1 exactly where steal traffic concentrates.",
};

type Simulate = fn(&CompiledProblem, &SimConfig) -> SimReport<CpOutput>;

fn fabric(run: &Run) {
    let t0 = Instant::now();
    let budget_s: u64 = arg("budget-s", 0);
    let contention = match fabric_arg() {
        None | Some(FabricModel::Latency) => "contention".parse::<FabricModel>().unwrap(),
        Some(m) => m,
    };
    // One cell under both models, gated on their agreement. Enumeration's
    // tree is schedule-independent, so there the models must agree node
    // for node; a branch-and-bound tree moves with re-timing (bounds
    // arrive at other times), so there only the optimum is gated.
    let models = |cell: &str, (_, prob, costs): &Workload, cores, simulate: Simulate| {
        let [flat, cont] = [FabricModel::Latency, contention].map(|fabric| {
            let mut cfg = run.cell(topo_for(cores), *costs);
            cfg.fabric = fabric;
            simulate(prob, &cfg)
        });
        let (a, b) = (flat.incumbent, cont.incumbent);
        run.gate(
            a == b,
            format_args!("{cell}: models disagree on the optimum ({a} vs {b})"),
        );
        let answer = |r: &SimReport<CpOutput>| (r.total_solutions(), r.total_items());
        let (a, b) = (answer(&flat), answer(&cont));
        run.gate(
            prob.objective.is_some() || a == b,
            format_args!("{cell}: models disagree on (solutions, nodes): {a:?} vs {b:?}"),
        );
        run.gate(
            flat.fabric.total_queue_ns == 0 && flat.fabric.max_link_depth == 0,
            format_args!("{cell}: the latency model queued — it must not"),
        );
        for (m, f) in [("latency", &flat.fabric), ("contention", &cont.fabric)] {
            let (i, d, f) = (f.injected, f.delivered, f.in_flight);
            run.gate(
                i == d + f,
                format_args!("{cell}/{m}: fabric books don't balance ({i} != {d} + {f})"),
            );
        }
        (flat, cont)
    };
    let rows = |flat: &SimReport<CpOutput>, cont: &SimReport<CpOutput>| {
        for (label, r) in [("latency".into(), flat), (contention.to_string(), cont)] {
            println!(
                "  {label:<22} {:>9.3} ms  msgs {:>8} (queued {:>7}, depth {:>4})  queue {:>10.3} ms",
                r.makespan_ns as f64 / 1e6,
                r.fabric.injected,
                r.fabric.queued_msgs,
                r.fabric.max_link_depth,
                r.fabric.total_queue_ns as f64 / 1e6,
            );
        }
    };

    let q = queens_workload(arg("n", 12));
    println!("Fabric ablation — latency vs {contention}\n");
    println!("== 1. steal storm: one root, every other core an idle thief ==");
    let storm_cores = if full_scale() { 4_096 } else { 1_024 };
    for (balancer, simulate) in [("paccs", sim_cp_paccs as Simulate), ("macs", sim_cp_macs)] {
        println!("{balancer} @ {storm_cores} cores:");
        let (flat, cont) = models(&format!("storm/{balancer}"), &q, storm_cores, simulate);
        rows(&flat, &cont);
        if balancer == "paccs" {
            run.gate(
                cont.fabric.queued_msgs > 0,
                format_args!("storm: contention saw no queueing in a {storm_cores}-thief storm"),
            );
        }
    }

    println!("\n== 2. scale sweep: where flat latency starts lying ==");
    println!(
        "  {:>6} {:>14} {:>14} {:>11} {:>13}",
        "cores", "latency(ms)", "contention(ms)", "cont/lat", "queue(ms)"
    );
    let sweep: &[usize] = if full_scale() {
        &[256, 1_024, 4_096, 16_384]
    } else {
        &[256, 1_024, 4_096]
    };
    for &cores in sweep {
        let (flat, cont) = models(&format!("sweep/{cores}"), &q, cores, sim_cp_macs);
        println!(
            "  {cores:>6} {:>14.3} {:>14.3} {:>10.3}x {:>13.3}",
            flat.makespan_ns as f64 / 1e6,
            cont.makespan_ns as f64 / 1e6,
            cont.makespan_ns as f64 / flat.makespan_ns.max(1) as f64,
            cont.fabric.total_queue_ns as f64 / 1e6,
        );
    }

    if xl_scale() {
        // Queens at 64k cores is `perf_record --sim`'s pinned scale point;
        // the branch-and-bound cell is this harness's own.
        println!("\n== 3. 64k-core smoke cells (both fabric models) ==");
        let esc16e = esc16e_workload("qn", 11);
        println!("{} @ 65536 cores:", esc16e.0);
        let (flat, cont) = models(&format!("xl/{}", esc16e.0), &esc16e, 65_536, sim_cp_macs);
        rows(&flat, &cont);
    }

    let wall = t0.elapsed().as_secs();
    if budget_s > 0 {
        println!("\nwall clock: {wall}s (budget {budget_s}s)");
        run.gate(
            wall <= budget_s,
            format_args!("budget: {wall}s > {budget_s}s"),
        );
    }
}

// --- first-solution races ------------------------------------------------------

pub const RACE: Sub = Sub {
    name: "ablation_race",
    about: "first-solution race vs exhaustive search.\n\
            Gated: the race agrees with the same seed's exhaustive run on\n\
            satisfiability, every winner verifies, no work unit is lost.",
    flags: &[N_FULL, SEEDS, CORES_ONE],
    common: &[
        CommonFlag::Mode,
        CommonFlag::Shape,
        CommonFlag::ChunkPolicy,
        CommonFlag::CostModel,
        CommonFlag::DetectTopo,
        CommonFlag::Full,
    ],
    run: race,
    shape: "All race invariants hold: every winner verified, satisfiability\n\
            agrees with the exhaustive run on every seed, and no work unit was\n\
            lost or double-counted. The `first ms` column is when the race's\n\
            winning solution completed (identical schedule prefix to the\n\
            exhaustive run); `speedup` = exhaustive makespan / first-solution\n\
            time; `after-win` counts expansions the winner flag's per-level\n\
            delivery delay failed to prevent.",
};

/// Because the simulated schedule is deterministic per seed and a race
/// diverges only *after* its win, the race's `first_solution_ns` is the
/// instant the same solution completes in the exhaustive run of that
/// seed: exhaustive makespan ÷ first-solution time measures the win.
fn race(run: &Run) {
    let full = full_scale();
    let seeds: u64 = arg("seeds", 3);
    let modes = mode_arg().map_or(SearchMode::ALL.to_vec(), |m| vec![m]);
    // Colouring is priced like queens: both are enumeration workloads.
    let colouring = |name: &str, g: ColoringInstance, k| {
        (
            name.to_string(),
            coloring_model(&g, k),
            CostModel::paper_queens(),
        )
    };
    let mut workloads = vec![
        queens_workload(arg("n", if full { 14 } else { 12 })),
        colouring("myciel3-k4", ColoringInstance::myciel3(), 4),
    ];
    if full {
        workloads.push(colouring("queen5_5-k5", ColoringInstance::queen5_5(), 5));
    }

    println!("First-solution race ablation (simulated MaCS, {seeds} seeds per cell)\n");
    for (name, prob, costs) in &workloads {
        println!("== {name} ==");
        println!(
            "  {:>5} {:>12} {:>22} {:>12} {:>12} {:>14} {:>9} {:>10}",
            "cores", "shape", "mode", "makespan ms", "first ms", "speedup", "nodes", "after-win"
        );
        for (cores, shape, topo) in machines(vec![8, 64, 512]) {
            let cfg = run.cell(topo, *costs);
            for &mode in &modes {
                let (mut first, mut twin_ms, mut wins) = (0.0f64, 0.0f64, 0u64);
                let cell = format!("{name} @{} {mode}", cfg.topology);
                let t = run.seeds(&cell, 1..=seeds, |seed| {
                    let mut cfg = cfg.clone();
                    cfg.seed = seed;
                    let r = sim_cp_macs_mode(prob, &cfg, mode);
                    // Work-unit conservation, raced or not.
                    let (pushed, done, dropped) =
                        (r.total_pushes(), r.completed_items, r.abandoned_items);
                    run.gate(
                        1 + pushed == done + dropped,
                        format_args!(
                            "{cell} seed {seed}: work lost: 1 + {pushed} != {done} + {dropped}"
                        ),
                    );
                    if mode.is_race() {
                        // The same seed run exhaustively must agree on
                        // satisfiability, and the winner must verify.
                        let ex = sim_cp_macs_mode(prob, &cfg, SearchMode::Exhaustive);
                        twin_ms += ex.makespan_ns as f64 / 1e6;
                        run.gate(
                            r.first_solution_ns.is_some() == (ex.total_solutions() > 0),
                            format_args!("{cell} seed {seed}: the exhaustive run refutes the race"),
                        );
                        if let Some(t) = r.first_solution_ns {
                            first += t as f64 / 1e6;
                            wins += u64::from(t < ex.makespan_ns);
                            let winner = r.outputs.iter().flat_map(|o| o.kept.iter()).next();
                            run.gate(
                                prob.check_assignment(winner.expect("race kept its winner")),
                                format_args!("{cell} seed {seed}: invalid winner"),
                            );
                        }
                    }
                    r
                });
                let (first_col, speed_col) = if mode.is_race() && first > 0.0 {
                    (
                        format!("{:.3}", first / seeds as f64),
                        format!("{:.1}x ({wins}/{seeds})", twin_ms / first),
                    )
                } else {
                    ("-".into(), "-".into())
                };
                println!(
                    "  {cores:>5} {shape:>12} {:>22} {:>12.3} {first_col:>12} {speed_col:>14} {:>9} {:>10}",
                    mode.to_string(),
                    t.mean(t.ms),
                    t.nodes / seeds,
                    t.after_win / seeds,
                );
            }
        }
        println!();
    }
}

// --- service leases ---------------------------------------------------------------

pub const SERVICE: Sub = Sub {
    name: "ablation_service",
    about: "service leases: static vs queue-depth-elastic, simulated.\n\
            One open-loop trace per scale cell (8 to 512 simulated cores, up to\n\
            64 tenants), both policies, reporting throughput, sojourn\n\
            percentiles, queue depth, rejection rate and cross-tenant fairness.\n\
            Gated: no scheduler-invariant violation, every job accounted for,\n\
            every answer equal to the sequential oracle, static leases never\n\
            resize and the elastic series does.",
    flags: &[
        (
            "--lease-policy <P>",
            "run only this policy: static[:NODES] or\n\
             queue-depth[:MIN,MAX] [default: both, machine-scaled]",
        ),
        ("--seed <S>", "workload seed [default: 0x5EEDC]"),
    ],
    common: &[CommonFlag::CostModel, CommonFlag::Full],
    run: service,
    shape: "\nAll gates passed. Expected shape: identical answers under both\n\
            policies (the lease only changes the schedule, never the result);\n\
            on the small machines the elastic policy trades per-job width for\n\
            lower p99 sojourn and queue depth under the arrival burst, and the\n\
            static policy shows the cost of over-provisioned idle leases; the\n\
            512-core x 64-tenant cell is the acceptance configuration.",
};

fn service(run: &Run) {
    let t0 = Instant::now();
    let seed: u64 = arg("seed", 0x5EEDC);
    let only: Option<LeasePolicy> = opt_arg("lease-policy");
    let cost_model = cost_model_arg().unwrap_or_default();
    // (nodes, tenants, jobs, mean gap ns), 4 cores a node. Tenants grow
    // with the machine up to the 64-tenant acceptance cell; arrivals come
    // slightly faster than the small machines drain, so admission control
    // and lease shrinking both engage while the big machines show the
    // headroom. --full adds a longer trace at the acceptance shape.
    let mut cells = vec![
        (2, 4, 24, 40_000u64),
        (8, 8, 32, 20_000),
        (32, 16, 48, 10_000),
        (128, 64, 64, 5_000),
    ];
    if full_scale() {
        cells.push((128, 64, 192, 5_000));
    }
    let mut oracle = Oracle::new();
    let (mut static_resizes, mut elastic_resizes) = (0u64, 0u64);

    println!("Service ablation — static vs queue-depth leases (simulator backend)\n");
    for (nodes, tenants, jobs, gap) in cells {
        let cores = nodes * 4;
        let workload = WorkloadConfig {
            jobs,
            tenants,
            mean_interarrival_ns: gap,
            seed: seed ^ (cores as u64) ^ (jobs as u64) << 32,
        };
        println!(
            "{cores} cores ({nodes}x4), {tenants} tenants, {jobs} jobs, mean gap {} us:",
            gap as f64 / 1e3,
        );
        for policy in only.map_or(lease_policies(nodes).to_vec(), |p| vec![p]) {
            let (r, failed) = serve_cell(nodes, &workload, policy, cost_model, &mut oracle);
            let resizes: u64 = r.records.iter().map(|x| x.resizes as u64).sum();
            println!(
                "  {:<18} {:>8.1} jobs/s  p50 {:>8.3} ms  p99 {:>8.3} ms  p999 {:>8.3} ms  \
                 queue {:>3}  rej {:>5.1}%  fair {:>6.2}  resizes {resizes:>3}",
                policy.to_string(),
                r.throughput_per_sec(),
                r.sojourn_percentile_ns(50.0) as f64 / 1e6,
                r.sojourn_percentile_ns(99.0) as f64 / 1e6,
                r.sojourn_percentile_ns(99.9) as f64 / 1e6,
                r.max_queue_depth,
                r.rejection_rate() * 100.0,
                r.fairness_ratio(),
            );
            for f in failed {
                run.gate(false, format_args!("{cores}c/{policy}: {f}"));
            }
            match policy {
                LeasePolicy::Static { .. } => static_resizes += resizes,
                LeasePolicy::QueueDepth { .. } => elastic_resizes += resizes,
            }
        }
        println!();
    }
    run.gate(
        static_resizes == 0,
        format_args!("policy split: static leases resized {static_resizes} times"),
    );
    run.gate(
        only.is_some() || elastic_resizes > 0,
        "policy split: the elastic policy never resized anywhere in the series",
    );
    println!("wall clock: {:.1}s", t0.elapsed().as_secs_f64());
}

// --- topology -----------------------------------------------------------------

pub const TOPO: Sub = Sub {
    name: "ablation_topo",
    about: "topology: victim order and batched remote steal responses.\n\
            Flat vs distance-aware scans, then 1, 2 or 4 pools a response, on\n\
            the deep nodes x 2 x 4 machine. With --xl, gated at 64k cores on\n\
            depth-5/6 shapes: same answers, steals nearer, and a locality tax\n\
            under 50% of the flat makespan.",
    flags: &[
        (
            "--n <N>",
            "queens size for the victim-order series [default: 12]",
        ),
        (
            "--n2 <N>",
            "queens size for the batching sweep [default: 14]",
        ),
        QN,
        ("--xn <N>", "queens size for the --xl cells [default: 13]"),
    ],
    common: &[
        CommonFlag::Shape,
        CommonFlag::BoundPolicy,
        CommonFlag::ChunkPolicy,
        CommonFlag::CostModel,
        CommonFlag::DetectTopo,
        CommonFlag::Full,
        CommonFlag::Xl,
    ],
    run: topo,
    shape: "Expected shape: distance-aware no worse than flat at paper scales\n\
            (at 64k cores it pays a pinned locality tax instead), with the steal mix\n\
            shifted to the near rings; moderate batching (2 pools, thin replies\n\
            only) cuts remote round-trips on the optimisation workload where\n\
            replies are thin, is schedule-noise-neutral on queens enumeration,\n\
            and aggressive batching over-exports and gives the savings back.",
};

/// One cell under the flat and then the distance-aware victim order, a
/// row each.
fn flat_vs_aware(prob: &CompiledProblem, mut cfg: SimConfig) -> [SimReport<CpOutput>; 2] {
    [
        ("flat", ScanOrder::Flat),
        ("distance-aware", ScanOrder::DistanceAware),
    ]
    .map(|(label, order)| {
        cfg.steal.scan_order = order;
        let r = sim_cp_macs(prob, &cfg);
        let (ls, lf, rs, rf) = r.steal_totals();
        println!(
            "  {label:<16} {:>9.3} ms  steals L {ls}/{lf}f R {rs}/{rf}f  dist {}",
            r.makespan_ns as f64 / 1e6,
            r.steal_distance_histogram().display()
        );
        r
    })
}

fn topo(run: &Run) {
    let (name, prob, costs) = queens_workload(arg("n", 12));
    let series = core_series();
    let top = *series.last().unwrap();

    println!("Topology ablation — {name} (simulated)\n");
    println!("== 1. victim order: flat vs distance-aware (nodes x 2 sockets x 4 cores) ==");
    let mut makespans: Vec<(usize, u64, u64)> = Vec::new();
    for &cores in &series {
        println!("{cores} cores:");
        let mut cfg = run.cell(deep_topo_for(cores), costs);
        cfg.steal.response_batch = 1;
        let [rf, ra] = flat_vs_aware(&prob, cfg);
        makespans.push((cores, rf.makespan_ns, ra.makespan_ns));
    }
    println!("\n  cores   flat(ms)  aware(ms)   aware/flat");
    for (cores, f, a) in makespans {
        let (f, a) = (f as f64 / 1e6, a as f64 / 1e6);
        println!("  {cores:>5} {f:>10.3} {a:>10.3} {:>11.3}x", a / f);
    }

    println!("\n== 2. remote responses: 1 chunk vs batched ({top} cores, 5 seeds) ==");
    if chunk_policy_arg().is_some_and(|c| c.is_adaptive()) {
        println!(
            "   NOTE: --chunk-policy adaptive tunes the response batch online,\n\
             so the batch=1/2/4 rows below all run the same adaptive ceiling."
        );
    }
    let topo = shape_arg().unwrap_or_else(|| deep_topo_for(top));
    println!("   machine: {topo}");
    // The fig4 and fig6 workloads at a size where 512 cores still have
    // real work per core (thin replies are exactly the batching target).
    let set = |cfg: &mut SimConfig, batch| cfg.steal.response_batch = batch;
    for (name, prob, costs) in [queens_workload(arg("n2", 14)), esc16e_workload("qn", 11)] {
        let cfg = run.cell(topo.clone(), costs);
        for (batch, t) in run.sweep(&name, &prob, &cfg, &[1u32, 2, 4], 1..=5, set) {
            let (served, chunks, multi) = t.batching;
            println!(
                "  {name:<12} batch={batch}: {:>9.3} ms/run  remote round-trips {:>6}  \
                 items/steal {:>5.2}  responses {served} (chunks {chunks}, multi {multi})",
                t.mean(t.ms),
                t.rtts,
                t.mean(t.items_per_steal),
            );
        }
    }
    println!();
    let xl_prob = queens_workload(arg("xn", 13)).1;
    run.xl("== 3. 64k-core depth-5/6 cells (gated) ==", |name, topo| {
        println!("{name} ({topo}):");
        let [rf, ra] = flat_vs_aware(&xl_prob, run.cell(topo, costs));
        let answer = |r: &SimReport<CpOutput>| (r.total_items(), r.total_solutions());
        run.gate(
            answer(&rf) == answer(&ra),
            format_args!("{name}: victim order changed the answer"),
        );
        // At ≤512 cores the two orders are makespan-neutral; at 64k
        // cores with thin per-worker work they *diverge* — measured:
        // distance-aware pays ~25% makespan for its locality (work
        // is far away, near rings scan empty first). The gates pin
        // that divergence from both sides rather than pretend
        // neutrality survives scale.
        let mean_distance = |r: &SimReport<CpOutput>| {
            let h = r.steal_distance_histogram();
            let sum: u64 = h.buckets().map(|(d, c)| c * d as u64).sum();
            sum as f64 / h.total().max(1) as f64
        };
        let (df, da) = (mean_distance(&rf), mean_distance(&ra));
        let (f_ms, a_ms) = (rf.makespan_ns as f64 / 1e6, ra.makespan_ns as f64 / 1e6);
        println!(
            "  aware/flat makespan {:.3}x, mean steal distance {df:.2} -> {da:.2}",
            ra.makespan_ns as f64 / rf.makespan_ns.max(1) as f64
        );
        run.gate(
            da < df,
            format_args!(
                "{name}: distance-aware did not shift steals nearer \
                 (mean distance {da:.2} !< {df:.2})"
            ),
        );
        run.gate(
            ra.makespan_ns as f64 <= rf.makespan_ns as f64 * 1.5,
            format_args!(
                "{name}: distance-aware {a_ms:.3} ms is >50% slower than flat {f_ms:.3} ms — \
                 the locality tax grew past its pinned envelope"
            ),
        );
        run.gate(
            ra.steal_totals().2 > 0,
            format_args!("{name}: no remote steals at 64k cores — the cell measured nothing"),
        );
    });
}
