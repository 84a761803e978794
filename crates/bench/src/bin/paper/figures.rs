//! The paper's figures and tables (§VI) and its two non-ablation side
//! measurements: print-only, over a shared simulated-cluster sweep (4
//! cores per node, 8..128 cores; `--full` extends the x-axis to 512).

use macs_bench::{
    arg, core_series, full_scale, print_scaling, print_state_table, print_steal_table, scale_row,
    sim_cp_macs, sim_cp_paccs, topo_for, CommonFlag, ScaleRow,
};
use macs_core::{CpOutput, Solver, SolverConfig};
use macs_engine::CompiledProblem;
use macs_problems::{qap::QapInstance, qap_model, queens, QueensModel};
use macs_runtime::{ReleasePolicy, WorkerState};
use macs_search::SAMPLE_STRIDE;
use macs_sim::{simulate_macs, CostModel, SimConfig, SimReport};
use macs_uts::{uts_sequential, GeoLaw, TreeShape, UtsProcessor, SLOT_WORDS};

use crate::{esc16e_workload, queens_workload, secs, Run, Sub};

pub const N_QUEENS: (&str, &str) = ("--n <N>", "queens size [default: 12]");
const N_ESC16E: (&str, &str) = ("--n <N>", "esc16e size 2..=16 [default: 11; --full: 16]");

pub const FIG3: Sub = Sub {
    name: "fig3",
    about: "Fig. 3 — worker-state shares, N-Queens",
    flags: &[N_QUEENS],
    common: &[CommonFlag::Full],
    run: fig3,
    shape: "\nPaper shape: Working dominates; Releasing is the visible overhead at small\n\
            scale and Poll grows with core count; all waiting states stay negligible.",
};

pub const FIG4: Sub = Sub {
    name: "fig4",
    about: "Fig. 4 — N-Queens scaling, MaCS vs PaCCS",
    flags: &[N_QUEENS],
    common: &[CommonFlag::Full],
    run: fig4,
    shape: "\nPaper shape: all three scale near-linearly; MaCS default efficiency dips\n\
            (release overhead), MaCS(best) recovers to ~96%; PaCCS close behind.",
};

pub const FIG5: Sub = Sub {
    name: "fig5",
    about: "Fig. 5 — worker-state shares, QAP",
    flags: &[N_ESC16E],
    common: &[CommonFlag::Full],
    run: fig5,
    shape: "\nPaper shape: overhead stays low throughout, with polling the only state\n\
            that grows as core count (and hence remote traffic) increases.",
};

pub const FIG6: Sub = Sub {
    name: "fig6",
    about: "Fig. 6 — QAP scaling, MaCS vs PaCCS",
    flags: &[N_ESC16E],
    common: &[CommonFlag::Full],
    run: fig6,
    shape: "\nPaper shape: near-linear speed-ups, efficiency above ~90%, MaCS a whisker\n\
            ahead of PaCCS at the largest scale; node counts grow mildly with cores.",
};

pub const TABLE1: Sub = Sub {
    name: "table1",
    about: "Table I — steal counts, N-Queens",
    flags: &[N_QUEENS],
    common: &[CommonFlag::Full],
    run: table1,
    shape: "\nPaper shape: steals (local and remote) grow with cores, remote slightly\n\
            faster; total steals stay tiny relative to total nodes; remote failure\n\
            rates exceed local ones.",
};

pub const TABLE2: Sub = Sub {
    name: "table2",
    about: "Table II — steal counts, QAP",
    flags: &[("--n <N>", "hypercube-like QAP size [default: 11]")],
    common: &[CommonFlag::Full],
    run: table2,
    shape: "\nPaper shape: steal counts grow with cores but failure rates stay far\n\
            below the N-Queens ones (zero at small scale), and total node counts\n\
            drift slightly with core count (COP problem-size growth).",
};

pub const PHASE_SPLIT: Sub = Sub {
    name: "phase_split",
    about: "§VI — solve phases, threaded",
    flags: &[
        ("--n <N>", "queens size [default: 11]"),
        ("--workers <N>", "threads [default: 2]"),
    ],
    common: &[],
    run: phase_split,
    shape: "",
};

pub const UTS_SCALING: Sub = Sub {
    name: "uts_scaling",
    about: "ref. [1] — UTS scaling",
    flags: &[
        ("--seed <N>", "tree seed [default: 3]"),
        ("--geo", "geometric tree instead of the binomial default"),
        ("--law <L>", "geometric shape law: linear, fixed or cyclic"),
        ("--b0 <F>", "geometric root branching [default: 4.0]"),
        ("--depth <N>", "geometric depth bound gen_mx [default: 14]"),
    ],
    common: &[CommonFlag::Full],
    run: uts_scaling,
    shape: "",
};

// --- the shared sweep -------------------------------------------------------

/// Simulated MaCS on `prob` at every core count of the paper's x-axis.
fn sweep(run: &Run, prob: &CompiledProblem, costs: CostModel) -> Vec<(usize, SimReport<CpOutput>)> {
    core_series()
        .into_iter()
        .map(|cores| {
            let r = sim_cp_macs(prob, &run.cell(topo_for(cores), costs));
            eprintln!(
                "  [{cores} cores done: {} nodes, best {}]",
                r.total_items(),
                r.incumbent
            );
            (cores, r)
        })
        .collect()
}

type Series<'a> = &'a dyn Fn(&SimConfig) -> SimReport<CpOutput>;

/// The a/b/c panels of Fig. 4 and 6. `base` is the 1-core MaCS run (the
/// ideal line and the invariant optimum); each series is its name, the
/// 1-core seconds it is normalised by, and how to run it at a config.
fn scaling(
    run: &Run,
    costs: CostModel,
    base: &SimReport<CpOutput>,
    series: &[(&str, f64, Series)],
) {
    let mut rows: Vec<Vec<ScaleRow>> = vec![Vec::new(); series.len()];
    for cores in core_series() {
        let cfg = run.cell(topo_for(cores), costs);
        for (rows, (_, base_s, simulate)) in rows.iter_mut().zip(series) {
            let r = simulate(&cfg);
            assert_eq!(r.incumbent, base.incumbent, "optimum must be invariant");
            rows.push(scale_row(cores, *base_s, &r));
        }
        eprintln!("  [{cores} cores done]");
    }
    let named: Vec<(&str, Vec<ScaleRow>)> = series.iter().map(|s| s.0).zip(rows).collect();
    print_scaling(&named, base.total_items() as f64 / secs(base) / 1e6);
}

// --- figures and tables -----------------------------------------------------

fn fig3(run: &Run) {
    let (name, prob, costs) = queens_workload(arg("n", 12));
    println!(
        "Fig. 3 — worker state breakdown, {name} (simulated; paper: queens-17, 8..512 cores)\n"
    );
    print_state_table(&sweep(run, &prob, costs));
}

fn fig4(run: &Run) {
    let (name, prob, costs) = queens_workload(arg("n", 12));
    println!("Fig. 4 — {name} scalability (simulated; paper: queens-17)\n");
    let tuned = |cfg: &SimConfig| {
        let mut best = cfg.clone();
        best.steal.release = ReleasePolicy::tuned();
        sim_cp_macs(&prob, &best)
    };
    // Each system is normalised by its own sequential execution, as in the
    // paper — except that both MaCS variants share the release-free 1-core
    // run, so the default's extraneous-release cost shows up as an
    // efficiency dip (paper: 91% at 8 cores, recovered by "best").
    let one = run.cell(topo_for(1), costs);
    let (base_best_s, base_paccs_s) = (secs(&tuned(&one)), secs(&sim_cp_paccs(&prob, &one)));
    scaling(
        run,
        costs,
        &sim_cp_macs(&prob, &one),
        &[
            ("MaCS", base_best_s, &|cfg| sim_cp_macs(&prob, cfg)),
            ("MaCS(best)", base_best_s, &tuned),
            ("PaCCS", base_paccs_s, &|cfg| sim_cp_paccs(&prob, cfg)),
        ],
    );
}

fn fig5(run: &Run) {
    let (name, prob, costs) = esc16e_workload("n", if full_scale() { 16 } else { 11 });
    println!("Fig. 5 — worker state breakdown, {name} (simulated)\n");
    print_state_table(&sweep(run, &prob, costs));
}

fn fig6(run: &Run) {
    let (name, prob, costs) = esc16e_workload("n", if full_scale() { 16 } else { 11 });
    println!("Fig. 6 — {name} scalability (simulated)\n");
    let one = run.cell(topo_for(1), costs);
    let base = sim_cp_macs(&prob, &one);
    scaling(
        run,
        costs,
        &base,
        &[
            ("MaCS", secs(&base), &|cfg| sim_cp_macs(&prob, cfg)),
            ("PaCCS", secs(&sim_cp_paccs(&prob, &one)), &|cfg| {
                sim_cp_paccs(&prob, cfg)
            }),
        ],
    );
}

fn table1(run: &Run) {
    let (name, prob, costs) = queens_workload(arg("n", 12));
    print_steal_table(
        &format!("Table I — work stealing, {name} (simulated; paper: queens-17)"),
        &sweep(run, &prob, costs),
    );
}

fn table2(run: &Run) {
    let inst = QapInstance::hypercube_like(arg("n", 11), 5);
    let name = &inst.name;
    print_steal_table(
        &format!("Table II — work stealing, {name} (simulated; paper: esc16e)"),
        &sweep(run, &qap_model(&inst), CostModel::paper_qap()),
    );
}

/// "Propagation takes around 48%, splitting around 10% and restoring
/// around 42%" for N-Queens, "80% / 5% / 15%" for the QAP — measured on
/// the real threaded runtime (the one subcommand that is not simulated).
/// All three columns are sampled estimates: the kernel times one node in
/// `SAMPLE_STRIDE`, and the worker's state clock is exact only for the
/// block lengths (see ARCHITECTURE.md, "Worker-state accounting").
fn phase_split(_: &Run) {
    let n: usize = arg("n", 11);
    let workers: usize = arg("workers", 2);
    println!(
        "Solve-phase split (threaded, {workers} workers); paper: 48/10/42 queens, 80/5/15 QAP"
    );
    println!("(estimates: one node in {SAMPLE_STRIDE} is timed and scaled)\n");
    println!(
        "{:<16} {:>11} {:>9} {:>9}",
        "problem", "propagate", "split", "restore"
    );
    for (label, prob) in [
        (format!("queens-{n}"), queens(n, QueensModel::Pairwise)),
        (
            "qap-cube10".to_string(),
            qap_model(&QapInstance::hypercube_like(10, 5)),
        ),
    ] {
        let out = Solver::new(SolverConfig::with_workers(workers)).solve(&prob);
        // propagate + split are measured inside the processor; "restore" is
        // the worker time spent obtaining stores from other workers
        // (Searching/Stealing). Popping the worker's own pool is part of
        // the hot loop and is not timed apart.
        let (mut prop, mut split, mut restore) = (0.0, 0.0, 0.0);
        for w in &out.report.workers {
            prop += w.phase.propagate.as_secs_f64();
            split += w.phase.split.as_secs_f64();
            restore += w.clock.totals[WorkerState::Searching as usize].as_secs_f64()
                + w.clock.totals[WorkerState::Stealing as usize].as_secs_f64();
        }
        let total = prop + split + restore;
        println!(
            "{label:<16} {:>10.1}% {:>8.1}% {:>8.1}%   ({} nodes)",
            100.0 * prop / total,
            100.0 * split / total,
            100.0 * restore / total,
            out.nodes
        );
    }
}

fn uts_scaling(run: &Run) {
    // Default: the near-critical binomial tree (the classic UTS stress
    // shape); --geo with --law/--b0/--depth gives a geometric tree.
    let seed: u32 = arg("seed", 3);
    let shape = if macs_bench::flag("geo") {
        TreeShape::Geometric {
            b0: arg("b0", 4.0),
            gen_mx: arg("depth", 14),
            law: arg("law", GeoLaw::Linear),
        }
    } else {
        TreeShape::medium_bin(seed)
    };
    let reference = uts_sequential(shape, seed);
    println!(
        "UTS tree {shape:?}: {} nodes, {} leaves, depth {}\n",
        reference.nodes, reference.leaves, reference.max_depth
    );
    let simulate = |cores: usize| {
        // UTS nodes are cheap: 1.5 µs each.
        let cfg = run.cell(topo_for(cores), CostModel::woodcrest_ib(1_500));
        simulate_macs(&cfg, SLOT_WORDS, &[UtsProcessor::root_item(seed)], |_| {
            UtsProcessor::new(shape)
        })
    };
    let base_s = secs(&simulate(1));
    println!(
        "{:>6} {:>11} {:>11} {:>9} {:>9} {:>9}",
        "cores", "speed-up", "efficiency", "l.steals", "r.steals", "failed"
    );
    for cores in core_series() {
        let r = simulate(cores);
        assert_eq!(r.total_items(), reference.nodes, "tree conserved");
        let (lo, lf, ro, rf) = r.steal_totals();
        let s = base_s / secs(&r);
        println!(
            "{cores:>6} {s:>11.2} {:>10.1}% {lo:>9} {ro:>9} {:>9}",
            100.0 * s / cores as f64,
            lf + rf
        );
    }
}
