//! `sim_scale`: the discrete-event simulator as the product. Host time
//! (seconds the simulator takes) and simulated time (the makespan it
//! predicts) are kept apart everywhere.
//!
//! The batch is three inputs — queens-10, esc16e[8] and a 57 881-node
//! UTS tree. The legs: solved sequentially with no
//! simulator (`seq_solve_s`, the kernel-only baseline), simulated on one
//! virtual core (`macs_w1_solve_s`: kernel + a bare event loop), and the
//! five scale cells at 512–4096 virtual cores (`macs_wN_solve_s`: kernel
//! and the full steal protocol, two fabrics, the PaCCS protocol). Every
//! solve and every cell is timed as a piece of its own (5–75 ms), and a
//! leg is the sum of its pieces' reported times.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use macs::engine::seq::{solve_seq, SeqOptions, SeqResult};
use macs::engine::CompiledProblem;
use macs::problems::{qap_model, queens, QapInstance, QueensModel};
use macs::search::SearchMode;
use macs::sim::{
    simulate_macs, simulate_paccs, BoundPolicy, ContentionParams, CostModel, FabricModel,
    SimConfig, SimReport,
};
use macs::solver::CpProcessor;
use macs::topo::MachineTopology;
use macs::uts::{uts_sequential, TreeShape, TreeStats, UtsProcessor, SLOT_WORDS};

use crate::workloads::{measure, setup_leg, span_cost_share, Ctx, Leg, Metrics};

/// The simulated UTS tree: 57 881 nodes, depth 289. A quarter the size of
/// `uts_unbalanced`'s, so that a round of all eleven pieces stays near
/// 0.3 s and a run holds some fifty of them.
const UTS_SEED: u32 = 42;
const UTS_SHAPE: TreeShape = TreeShape::Binomial {
    root_children: 400,
    m: 4,
    q: 0.2475,
};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Input {
    Queens,
    Esc,
    Uts,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Protocol {
    Macs,
    Paccs,
}

struct Cell {
    name: &'static str,
    input: Input,
    cores: usize,
    protocol: Protocol,
    contention: bool,
    hierarchical_bounds: bool,
}

const fn cell(name: &'static str, input: Input, cores: usize) -> Cell {
    Cell {
        name,
        input,
        cores,
        protocol: Protocol::Macs,
        contention: false,
        hierarchical_bounds: false,
    }
}

/// The five scale cells of the `wN` leg; `sim.<name>.*` per-layer rows.
const SCALE_CELLS: [Cell; 5] = [
    cell("macs_q10_4096_lat", Input::Queens, 4096),
    Cell {
        contention: true,
        ..cell("macs_q10_4096_cont", Input::Queens, 4096)
    },
    Cell {
        protocol: Protocol::Paccs,
        ..cell("paccs_q10_512", Input::Queens, 512)
    },
    Cell {
        hierarchical_bounds: true,
        ..cell("macs_esc8_512_hier", Input::Esc, 512)
    },
    cell("macs_uts_512", Input::Uts, 512),
];

/// The one-virtual-core cells of the `w1` leg.
const ONE_CORE_CELLS: [Cell; 3] = [
    cell("macs_q10_1", Input::Queens, 1),
    cell("macs_esc8_1", Input::Esc, 1),
    cell("macs_uts_1", Input::Uts, 1),
];

/// The pieces of the sequential leg, one per input.
const SEQ_PIECES: [(&str, Input); 3] = [
    ("seq.queens10", Input::Queens),
    ("seq.esc8", Input::Esc),
    ("seq.uts", Input::Uts),
];

struct Inputs {
    queens: CompiledProblem,
    queens_oracle: SeqResult,
    esc: CompiledProblem,
    esc_oracle: SeqResult,
    uts_oracle: TreeStats,
}

/// What one simulated cell produced, reduced to what the rows need.
struct CellRun {
    host_s: f64,
    events: u64,
    nodes: u64,
    makespan_ns: u64,
    digest: u64,
    peak_live_items: u64,
    remote_round_trips: u64,
    remote_steals: u64,
    remote_steal_items: u64,
    fabric_queued_msgs: u64,
}

impl CellRun {
    fn of<O>(host_s: f64, r: &SimReport<O>) -> CellRun {
        CellRun {
            host_s,
            events: r.events,
            nodes: r.total_items(),
            makespan_ns: r.makespan_ns,
            digest: r.digest(),
            peak_live_items: r.peak_live_items,
            remote_round_trips: r.remote_round_trips(),
            remote_steals: r.steal_totals().2,
            remote_steal_items: r.workers.iter().map(|w| w.remote_steal_items).sum(),
            fabric_queued_msgs: r.fabric.queued_msgs,
        }
    }
}

fn config(cell: &Cell, seed: u64) -> SimConfig {
    let mut cfg = if cell.cores == 1 {
        SimConfig::new(MachineTopology::flat(1))
    } else {
        SimConfig::paper_cluster(cell.cores)
    };
    cfg.seed = seed;
    if cell.contention {
        cfg.fabric = FabricModel::Contention(ContentionParams::default());
    }
    if cell.hierarchical_bounds {
        cfg.bound_policy = BoundPolicy::Hierarchical;
    }
    if cell.input == Input::Uts {
        cfg.costs = CostModel::woodcrest_ib(1_500);
    }
    cfg
}

/// Simulate one cell and check it: conservation of work items and fabric
/// messages, and the answer against the sequential oracle (an exhaustive
/// simulated search processes exactly the oracle's nodes).
fn simulate(ctx: &mut Ctx, inputs: &Inputs, cell: &Cell, seed: u64) -> CellRun {
    fn conserved<O>(r: &SimReport<O>) -> Result<(), String> {
        if 1 + r.total_pushes() != r.completed_items + r.abandoned_items {
            return Err("work items not conserved".into());
        }
        if r.fabric.injected != r.fabric.delivered + r.fabric.in_flight {
            return Err("fabric messages not conserved".into());
        }
        Ok(())
    }
    let cfg = config(cell, seed);
    let (run, verdict) = match cell.input {
        Input::Uts => {
            let t0 = Instant::now();
            let r = simulate_macs(
                &cfg,
                SLOT_WORDS,
                &[UtsProcessor::root_item(UTS_SEED)],
                |_| UtsProcessor::new(UTS_SHAPE),
            );
            let run = CellRun::of(t0.elapsed().as_secs_f64(), &r);
            let stats = r
                .outputs
                .iter()
                .fold(TreeStats::default(), |a, s| a.merge(s));
            let verdict = conserved(&r).and_then(|()| {
                (stats == inputs.uts_oracle)
                    .then_some(())
                    .ok_or_else(|| format!("{stats:?}, oracle {:?}", inputs.uts_oracle))
            });
            (run, verdict)
        }
        Input::Queens | Input::Esc => {
            let (prob, oracle) = if cell.input == Input::Queens {
                (&inputs.queens, &inputs.queens_oracle)
            } else {
                (&inputs.esc, &inputs.esc_oracle)
            };
            let roots = [prob.root.as_words().to_vec()];
            let factory = |_| CpProcessor::new(prob, 0, SearchMode::Exhaustive);
            let words = prob.layout.store_words();
            let t0 = Instant::now();
            let r = match cell.protocol {
                Protocol::Macs => simulate_macs(&cfg, words, &roots, factory),
                Protocol::Paccs => simulate_paccs(&cfg, words, &roots, factory),
            };
            let run = CellRun::of(t0.elapsed().as_secs_f64(), &r);
            let verdict = conserved(&r).and_then(|()| {
                if prob.objective.is_some() {
                    (Some(r.incumbent) == oracle.best_cost)
                        .then_some(())
                        .ok_or_else(|| {
                            format!("optimum {}, oracle {:?}", r.incumbent, oracle.best_cost)
                        })
                } else if (r.total_solutions(), r.total_items()) != (oracle.solutions, oracle.nodes)
                {
                    Err(format!(
                        "{} solutions / {} nodes, oracle {} / {}",
                        r.total_solutions(),
                        r.total_items(),
                        oracle.solutions,
                        oracle.nodes
                    ))
                } else {
                    Ok(())
                }
            });
            (run, verdict)
        }
    };
    ctx.ops
        .check(verdict.map_err(|why| format!("sim cell {}: {why}", cell.name)));
    run
}

pub fn run(ctx: &mut Ctx) -> Metrics {
    let host = ctx.host.clone();
    let build = || {
        host.on_first_core(|| {
            let queens = queens(10, QueensModel::Pairwise);
            let esc = qap_model(&QapInstance::esc16e().sub_instance(8));
            Inputs {
                queens_oracle: solve_seq(&queens, &SeqOptions::default()),
                esc_oracle: solve_seq(&esc, &SeqOptions::default()),
                uts_oracle: uts_sequential(UTS_SHAPE, UTS_SEED),
                queens,
                esc,
            }
        })
    };
    let inputs = build();
    let seed = ctx.seed;

    // The latest run of every cell, for the per-layer rows.
    let latest: RefCell<BTreeMap<&str, CellRun>> = RefCell::new(BTreeMap::new());
    let pieces = {
        let (inputs, latest) = (&inputs, &latest);
        let seq_legs = SEQ_PIECES.iter().map(|&(name, input)| Leg {
            name,
            run: Box::new(move |ctx: &mut Ctx, _| solve_plainly(ctx, inputs, input)),
        });
        let cell_legs = ONE_CORE_CELLS.iter().chain(&SCALE_CELLS).map(|cell| Leg {
            name: cell.name,
            run: Box::new(move |ctx: &mut Ctx, _| {
                let host = ctx.host.clone();
                let run = host.on_first_core(|| simulate(ctx, inputs, cell, seed));
                let host_s = run.host_s;
                latest.borrow_mut().insert(cell.name, run);
                host_s
            }),
        });
        let mut legs: Vec<Leg<'_>> = std::iter::once(setup_leg(build))
            .chain(seq_legs)
            .chain(cell_legs)
            .collect();
        measure(ctx, &mut legs)
    };
    let latest = latest.into_inner();
    let total = |names: Vec<&str>| names.into_iter().map(|n| pieces[n]).sum::<f64>();
    let wn_s = total(SCALE_CELLS.iter().map(|c| c.name).collect());
    let mut m = Metrics::from([
        ("setup_s".to_string(), pieces["setup_s"]),
        (
            "seq_solve_s".to_string(),
            total(SEQ_PIECES.iter().map(|p| p.0).collect()),
        ),
        (
            "macs_w1_solve_s".to_string(),
            total(ONE_CORE_CELLS.iter().map(|c| c.name).collect()),
        ),
        ("macs_wN_solve_s".to_string(), wn_s),
    ]);
    let scale_runs: Vec<&CellRun> = SCALE_CELLS.iter().map(|c| &latest[c.name]).collect();
    let events: u64 = scale_runs.iter().map(|r| r.events).sum();
    let makespan_ms = scale_runs.iter().map(|r| r.makespan_ns).sum::<u64>() as f64 / 1e6;
    ctx.note("sim.events", events as f64);
    ctx.note("sim.events_per_s_host", events as f64 / wn_s);
    ctx.note("sim.makespan_ms_simulated", makespan_ms);
    if !ctx.traced() {
        return m;
    }

    // --- per-layer rows --------------------------------------------------
    ctx.tracer.enter("determinism_rerun");
    let rerun: Vec<CellRun> = host.on_first_core(|| {
        SCALE_CELLS
            .iter()
            .map(|c| simulate(ctx, &inputs, c, seed))
            .collect()
    });
    ctx.tracer.exit();
    // Host ns of kernel work per input node, from the sequential pieces.
    let kernel_ns_per_node = |input: Input| {
        let &(name, _) = SEQ_PIECES
            .iter()
            .find(|p| p.1 == input)
            .expect("every input has a sequential piece");
        let nodes = match input {
            Input::Queens => inputs.queens_oracle.nodes,
            Input::Esc => inputs.esc_oracle.nodes,
            Input::Uts => inputs.uts_oracle.nodes,
        };
        pieces[name] * 1e9 / nodes as f64
    };
    let mut kernel_ns = 0.0;
    for ((cell, run), again) in SCALE_CELLS.iter().zip(&scale_runs).zip(&rerun) {
        let p = format!("sim.{}", cell.name);
        m.insert(
            format!("{p}.events_per_s"),
            run.events as f64 / pieces[cell.name],
        );
        m.insert(format!("{p}.events"), run.events as f64);
        m.insert(format!("{p}.makespan_ms"), run.makespan_ns as f64 / 1e6);
        m.insert(
            format!("{p}.trace_hash_stable"),
            f64::from(u8::from(run.digest == again.digest)),
        );
        ctx.ops
            .check_eq(&format!("{p}: same-seed digest"), again.digest, run.digest);
        kernel_ns += run.nodes as f64 * kernel_ns_per_node(cell.input);
    }
    let host_ns = wn_s * 1e9;
    m.insert("sim.events_per_s".into(), events as f64 / wn_s);
    m.insert("sim.makespan_ms".into(), makespan_ms);
    m.insert("sim.host_ns_per_event".into(), host_ns / events as f64);
    m.insert("sim.kernel_ns_per_event".into(), kernel_ns / events as f64);
    m.insert(
        "sim.protocol_ns_per_event".into(),
        (host_ns - kernel_ns) / events as f64,
    );
    m.insert(
        "sim.peak_live_items".into(),
        scale_runs
            .iter()
            .map(|r| r.peak_live_items)
            .max()
            .unwrap_or(0) as f64,
    );
    let round_trips: u64 = scale_runs.iter().map(|r| r.remote_round_trips).sum();
    m.insert("sim.remote_round_trips".into(), round_trips as f64);
    let steals: u64 = scale_runs.iter().map(|r| r.remote_steals).sum();
    let stolen: u64 = scale_runs.iter().map(|r| r.remote_steal_items).sum();
    m.insert(
        "sim.items_per_remote_steal".into(),
        stolen as f64 / steals.max(1) as f64,
    );
    m.insert(
        "sim.fabric_queued_msgs".into(),
        scale_runs.iter().map(|r| r.fabric_queued_msgs).sum::<u64>() as f64,
    );
    // Simulated speed-up of queens-10 from 1 to 4096 virtual cores.
    m.insert(
        "sim.sim_speedup_4096".into(),
        latest[ONE_CORE_CELLS[0].name].makespan_ns as f64 / scale_runs[0].makespan_ns as f64,
    );
    m.insert("trace.overhead_share".into(), span_cost_share(ctx));
    m
}

/// One input solved on the plain sequential path (no simulator), checked
/// against its oracle; returns the wall seconds.
fn solve_plainly(ctx: &mut Ctx, inputs: &Inputs, input: Input) -> f64 {
    let timed_seq = |prob: &CompiledProblem| {
        ctx.host.on_first_core(|| {
            let t0 = Instant::now();
            let r = solve_seq(prob, &SeqOptions::default());
            (t0.elapsed().as_secs_f64(), r)
        })
    };
    match input {
        Input::Queens => {
            let (secs, r) = timed_seq(&inputs.queens);
            let oracle = &inputs.queens_oracle;
            ctx.ops.check_eq(
                "queens-10 via solve_seq",
                (r.solutions, r.nodes),
                (oracle.solutions, oracle.nodes),
            );
            secs
        }
        Input::Esc => {
            let (secs, r) = timed_seq(&inputs.esc);
            ctx.ops.check_eq(
                "esc16e[8] via solve_seq",
                r.best_cost,
                inputs.esc_oracle.best_cost,
            );
            secs
        }
        Input::Uts => {
            let (secs, stats) = ctx.host.on_first_core(|| {
                let t0 = Instant::now();
                let stats = uts_sequential(UTS_SHAPE, UTS_SEED);
                (t0.elapsed().as_secs_f64(), stats)
            });
            ctx.ops
                .check_eq("UTS via uts_sequential", stats, inputs.uts_oracle);
            secs
        }
    }
}
