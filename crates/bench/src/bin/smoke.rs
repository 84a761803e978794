//! Smoke harness: drive every execution path on small instances in a few
//! seconds. CI runs this after the unit suites to catch kernel-API drift
//! and cross-path disagreements that only show up end-to-end.
//!
//! Besides the default flat/2-level drives, every instance is also run on
//! a hierarchical machine (default 2×2×2 nodes×sockets×cores, override
//! with `--shape AxBxC[:prefix]`) so 3-level topologies stay in the
//! cross-solver agreement net. `--bound-policy immediate|periodic[:k]|`
//! `hierarchical` applies one bound-dissemination policy and
//! `--chunk-policy static|distance[:base,factor]|adaptive` one steal-chunk
//! granularity to every backend, so the CI matrix keeps each policy in the
//! net too.
//!
//! Exit code is non-zero on any disagreement with the sequential oracle.

use macs_bench::{
    bound_policy_arg, chunk_policy_arg, maybe_help, mode_arg, shape_arg, sim_cell,
    sim_cp_macs_mode, sim_cp_paccs_mode, usage, CommonFlag,
};
use macs_core::{solve_seq, SearchMode, SeqOptions, Solver, SolverConfig};
use macs_engine::CompiledProblem;
use macs_paccs::{paccs_solve, PaccsConfig};
use macs_problems::{
    coloring_model, golomb_ruler, langford, queens, ColoringInstance, QueensModel,
};
use macs_runtime::{BoundPolicy, ChunkPolicy, MachineTopology};
use macs_sim::{CostModel, SimConfig};

const FLAGS: &[CommonFlag] = &[
    CommonFlag::Mode,
    CommonFlag::Shape,
    CommonFlag::BoundPolicy,
    CommonFlag::ChunkPolicy,
    CommonFlag::CostModel,
    CommonFlag::DetectTopo,
];

struct Row {
    name: String,
    seq: u64,
    macs: u64,
    paccs: u64,
    sim_macs: u64,
    sim_paccs: u64,
    /// Optimisation problems: (expected, threaded, sim-MaCS, sim-PaCCS)
    /// optima.
    optimum: Option<(i64, i64, i64, i64)>,
}

fn drive(
    name: &str,
    prob: &CompiledProblem,
    mut threaded_cfg: SolverConfig,
    topo: MachineTopology,
    policy: Option<BoundPolicy>,
    chunk: Option<ChunkPolicy>,
    mode: SearchMode,
) -> Row {
    let seq = solve_seq(
        prob,
        &SeqOptions {
            mode,
            ..SeqOptions::default()
        },
    );
    if let Some(p) = policy {
        threaded_cfg.runtime.bound_policy = p;
    }
    // One steal policy for the threaded and the simulated run alike.
    let mut steal = threaded_cfg.runtime.steal;
    if let Some(c) = chunk {
        steal.chunk_policy = c;
    }
    threaded_cfg.runtime.steal = steal;
    threaded_cfg.mode = mode;
    let threaded = Solver::new(threaded_cfg).solve(prob);
    let mut paccs_cfg = PaccsConfig::with_workers(1);
    paccs_cfg.topology = topo.clone();
    if let Some(p) = policy {
        paccs_cfg.bound_policy = p;
    }
    if let Some(c) = chunk {
        paccs_cfg.chunk_policy = c;
    }
    paccs_cfg.mode = mode;
    let paccs = paccs_solve(prob, &paccs_cfg);
    let cfg = SimConfig {
        steal,
        ..sim_cell(FLAGS, topo, CostModel::default())
    };
    let sim = sim_cp_macs_mode(prob, &cfg, mode);
    let psim = sim_cp_paccs_mode(prob, &cfg, mode);
    // Raced satisfaction runs must hand back a *verifiable* winner.
    if mode.is_race() && !prob.objective.is_some() && seq.solutions > 0 {
        for (path, a) in [
            ("threaded", threaded.best_assignment.clone()),
            ("paccs", paccs.best_assignment.clone()),
            (
                "sim-macs",
                sim.outputs
                    .iter()
                    .flat_map(|o| o.kept.iter())
                    .next()
                    .cloned(),
            ),
            (
                "sim-paccs",
                psim.outputs
                    .iter()
                    .flat_map(|o| o.kept.iter())
                    .next()
                    .cloned(),
            ),
        ] {
            let a = a.unwrap_or_else(|| panic!("{name}: {path} race kept no solution"));
            assert!(
                prob.check_assignment(&a),
                "{name}: {path} race winner is invalid"
            );
        }
    }
    Row {
        name: name.to_string(),
        seq: seq.solutions,
        macs: threaded.solutions,
        paccs: paccs.solutions,
        sim_macs: sim.total_solutions(),
        sim_paccs: psim.total_solutions(),
        optimum: seq.best_cost.map(|c| {
            (
                c,
                threaded.best_cost.unwrap_or(i64::MAX),
                sim.incumbent,
                psim.incumbent,
            )
        }),
    }
}

fn main() {
    maybe_help(&usage(
        "smoke",
        "drive every execution path on small instances and compare them\nto the sequential oracle (exit non-zero on any disagreement).",
        &[],
        FLAGS,
    ));
    // The hierarchical matrix entry: 3-level by default, CI also passes
    // explicit shapes, bound policies and modes.
    let deep_topo = shape_arg()
        .unwrap_or_else(|| MachineTopology::try_new(&[2, 2, 2], 1).expect("default 3-level shape"));
    let policy = bound_policy_arg();
    let chunk = chunk_policy_arg();
    let mode = mode_arg().unwrap_or_default();
    let deep_runtime = {
        let mut cfg = SolverConfig::with_workers(1);
        cfg.runtime.topology = deep_topo.clone();
        cfg
    };
    println!("hierarchical matrix shape: {deep_topo}");
    println!("search mode: {mode}");
    match policy {
        Some(p) => println!("bound policy: {p}"),
        None => println!("bound policy: backend defaults"),
    }
    match chunk {
        Some(c) => println!("chunk policy: {c}\n"),
        None => println!("chunk policy: static (backend default)\n"),
    }

    let instances: Vec<(&str, CompiledProblem)> = vec![
        ("queens-7", queens(7, QueensModel::Pairwise)),
        ("queens-8-alldiff", queens(8, QueensModel::AllDiff)),
        ("langford-7", langford(7)),
        (
            "myciel3-k4",
            coloring_model(&ColoringInstance::myciel3(), 4),
        ),
        ("golomb-5", golomb_ruler(5, 20)),
    ];

    let mut rows = Vec::new();
    for (name, prob) in &instances {
        // The original 2-level drive (4 workers in nodes of 2; sim at 8).
        rows.push(drive(
            name,
            prob,
            SolverConfig::clustered(4, 2),
            MachineTopology::try_clustered(8, 4).expect("2-level shape"),
            policy,
            chunk,
            mode,
        ));
        // The hierarchical drive: same instance, N-level machine.
        rows.push(drive(
            &format!("{name} @{deep_topo}"),
            prob,
            deep_runtime.clone(),
            deep_topo.clone(),
            policy,
            chunk,
            mode,
        ));
    }

    println!(
        "{:<40} {:>8} {:>8} {:>8} {:>9} {:>9}  optimum",
        "instance", "seq", "macs", "paccs", "sim-macs", "sim-paccs"
    );
    let mut ok = true;
    for r in &rows {
        let opt = match r.optimum {
            Some((want, threaded, sim, psim)) => {
                if threaded != want || sim != want || psim != want {
                    ok = false;
                }
                format!("{threaded}/{sim}/{psim} (expect {want})")
            }
            None => "-".into(),
        };
        println!(
            "{:<40} {:>8} {:>8} {:>8} {:>9} {:>9}  {opt}",
            r.name, r.seq, r.macs, r.paccs, r.sim_macs, r.sim_paccs
        );
        if r.optimum.is_none() {
            if mode.is_race() {
                // A race's count is schedule-dependent (several workers
                // may report before observing the flag); satisfiability
                // must agree with the oracle, and each path's winner was
                // verified in drive().
                if [r.macs, r.paccs, r.sim_macs, r.sim_paccs]
                    .iter()
                    .any(|&s| (s > 0) != (r.seq > 0))
                {
                    ok = false;
                }
            } else if [r.macs, r.paccs, r.sim_macs, r.sim_paccs]
                .iter()
                .any(|&s| s != r.seq)
            {
                // Optimisation paths count *improving* solutions, which
                // are schedule-dependent; satisfaction counts must agree
                // exactly.
                ok = false;
            }
        }
    }
    if !ok {
        eprintln!("SMOKE FAILED: paths disagree with the sequential oracle");
        std::process::exit(1);
    }
    println!("smoke ok: all paths agree with the sequential oracle ({mode})");
}
