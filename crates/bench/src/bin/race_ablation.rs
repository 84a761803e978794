//! First-solution race ablation — what [`SearchMode::FirstSolution`]
//! buys and what the winner flag's dissemination lag costs.
//!
//! For each workload (N-Queens and graph colouring — the two satisfaction
//! families), machine shape (deep nodes×2×4 vs the paper's flat 2-level
//! cluster) and core count, the simulator runs the same seed twice:
//! exhaustively, and as a first-solution race. Because the discrete-event
//! schedule is deterministic per seed and the race only diverges *after*
//! the win, the race's `first_solution_ns` is exactly the instant the
//! same solution completes in the exhaustive run — so `exhaustive
//! makespan ÷ first-solution time` is a clean measure of the race win,
//! and `nodes_after_win` / abandoned counts measure its overhead.
//!
//! The bin **exits non-zero** if any invariant breaks:
//! * the race reports a solution the exhaustive run refutes (or misses a
//!   solution the exhaustive run finds);
//! * a race winner fails verification against the model;
//! * work-unit conservation fails (`roots + pushes ≠ completed +
//!   abandoned` — lost or double-counted work).

use macs_bench::{
    arg, chunk_policy_arg, full_scale, maybe_help, mode_arg, shape_arg, sim_cp_macs_mode, usage,
};
use macs_core::SearchMode;
use macs_engine::CompiledProblem;
use macs_gpi::MachineTopology;
use macs_problems::{coloring_model, queens, ColoringInstance, QueensModel};
use macs_sim::{CostModel, SimConfig};

fn main() {
    maybe_help(&usage(
        "race_ablation",
        "first-solution race vs exhaustive search: mode × machine shape ×\n8–512 simulated cores on queens + graph colouring (exit non-zero\nif the race ever disagrees with exhaustive search or loses work).",
        &[
            ("--n <N>", "queens size [default: 12; 14 with --full]"),
            ("--seeds <N>", "schedule seeds per cell [default: 3]"),
            ("--cores <N>", "run a single core count instead of the series"),
        ],
        &[
            macs_bench::CommonFlag::Mode,
            macs_bench::CommonFlag::Shape,
            macs_bench::CommonFlag::ChunkPolicy,
            macs_bench::CommonFlag::CostModel,
            macs_bench::CommonFlag::DetectTopo,
            macs_bench::CommonFlag::Full,
        ],
    ));
    let full = full_scale();
    let n: usize = arg("n", if full { 14 } else { 12 });
    let seeds: u64 = arg("seeds", 3);
    let only_mode = mode_arg();

    let mut workloads: Vec<(String, CompiledProblem)> = vec![
        (format!("queens-{n}"), queens(n, QueensModel::Pairwise)),
        (
            "myciel3-k4".into(),
            coloring_model(&ColoringInstance::myciel3(), 4),
        ),
    ];
    if full {
        workloads.push((
            "queen5_5-k5".into(),
            coloring_model(&ColoringInstance::queen5_5(), 5),
        ));
    }

    let cores_list: Vec<usize> = match macs_bench::opt_arg("cores") {
        Some(cores) => vec![cores],
        None => vec![8, 64, 512],
    };

    let mut ok = true;
    println!("First-solution race ablation (simulated MaCS, {seeds} seeds per cell)\n");
    for (name, prob) in &workloads {
        println!("== {name} ==");
        println!(
            "  {:>5} {:>12} {:>22} {:>12} {:>12} {:>14} {:>9} {:>10}",
            "cores", "shape", "mode", "makespan ms", "first ms", "speedup", "nodes", "after-win"
        );
        for &cores in &cores_list {
            // Machine-shape axis: the deep nodes×2×4 machine vs the
            // paper's flat 4-core-node cluster (same total); --shape
            // pins one explicit shape instead.
            let shapes: Vec<(&str, MachineTopology)> = match shape_arg() {
                Some(t) => vec![("explicit", t)],
                None => vec![
                    ("deep", macs_bench::deep_topo_for(cores)),
                    ("2-level", macs_bench::topo_for(cores)),
                ],
            };
            for (shape_name, topo) in shapes {
                for &mode in &SearchMode::ALL {
                    if only_mode.is_some_and(|m| m != mode) {
                        continue;
                    }
                    let (mut ms, mut first, mut ex_twin_ms) = (0.0f64, 0.0f64, 0.0f64);
                    let (mut nodes, mut naw) = (0u64, 0u64);
                    let mut race_wins = 0u64;
                    for seed in 1..=seeds {
                        let mut cfg = SimConfig::new(topo.clone());
                        cfg.costs = CostModel::paper_queens();
                        macs_bench::apply_host_overrides(&mut cfg);
                        cfg.seed = seed;
                        if let Some(c) = chunk_policy_arg() {
                            cfg.steal.chunk_policy = c;
                        }
                        let r = sim_cp_macs_mode(prob, &cfg, mode);
                        // Work-unit conservation, raced or not.
                        if 1 + r.total_pushes() != r.completed_items + r.abandoned_items {
                            eprintln!(
                                "  CONSERVATION VIOLATION {name} @{} {mode} seed {seed}: 1 + {} != {} + {}",
                                topo, r.total_pushes(), r.completed_items, r.abandoned_items
                            );
                            ok = false;
                        }
                        ms += r.makespan_ns as f64 / 1e6;
                        nodes += r.total_items();
                        naw += r.nodes_after_win;
                        if mode.is_race() {
                            // The race must agree with the exhaustive run
                            // of the same seed on satisfiability, and its
                            // winner must verify.
                            let ex = sim_cp_macs_mode(prob, &cfg, SearchMode::Exhaustive);
                            ex_twin_ms += ex.makespan_ns as f64 / 1e6;
                            let race_sat = r.first_solution_ns.is_some();
                            let ex_sat = ex.total_solutions() > 0;
                            if race_sat != ex_sat {
                                eprintln!(
                                    "  REFUTED {name} @{topo} seed {seed}: race sat={race_sat}, exhaustive sat={ex_sat}"
                                );
                                ok = false;
                            }
                            if let Some(t) = r.first_solution_ns {
                                first += t as f64 / 1e6;
                                if t < ex.makespan_ns {
                                    race_wins += 1;
                                }
                                let winner = r
                                    .outputs
                                    .iter()
                                    .flat_map(|o| o.kept.iter())
                                    .next()
                                    .expect("race kept its winner");
                                if !prob.check_assignment(winner) {
                                    eprintln!("  INVALID WINNER {name} @{topo} seed {seed}");
                                    ok = false;
                                }
                            }
                        }
                    }
                    let (first_col, speed_col) = if mode.is_race() && first > 0.0 {
                        (
                            format!("{:.3}", first / seeds as f64),
                            format!("{:.1}x ({race_wins}/{seeds})", ex_twin_ms / first),
                        )
                    } else {
                        ("-".into(), "-".into())
                    };
                    println!(
                        "  {cores:>5} {shape_name:>12} {:>22} {:>12.3} {first_col:>12} {speed_col:>14} {:>9} {:>10}",
                        mode.to_string(),
                        ms / seeds as f64,
                        nodes / seeds,
                        naw / seeds,
                    );
                }
            }
        }
        println!();
    }
    if !ok {
        eprintln!("race_ablation FAILED: the race disagreed with exhaustive search or lost work");
        std::process::exit(1);
    }
    println!(
        "All race invariants hold: every winner verified, satisfiability\n\
         agrees with the exhaustive run on every seed, and no work unit was\n\
         lost or double-counted. The `first ms` column is when the race's\n\
         winning solution completed (identical schedule prefix to the\n\
         exhaustive run); `speedup` = exhaustive makespan / first-solution\n\
         time; `after-win` counts expansions the winner flag's per-level\n\
         delivery delay failed to prevent."
    );
}
