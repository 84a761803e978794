//! Steal-chunk granularity ablation — what [`ChunkPolicy`] trades.
//!
//! The paper's central finding is that steal cost grows with topological
//! distance; the chunk policy makes the amount of work moved per steal
//! grow with it too. For each policy (static / distance-scaled /
//! adaptive), machine shape (deep nodes×2×4 vs the paper's flat 2-level
//! cluster) and core count, simulate the two workload families —
//! the QAPLIB esc16e sub-instance (scarce work, thin replies: the
//! distance-scaled reservation's target) and N-Queens enumeration — and
//! report makespan, remote round trips, items per remote steal and the
//! steals-by-distance mix against the static (PR-2) baseline.
//!
//! The bin **exits non-zero** if either regression bound breaks:
//! * the optimum differs across policies on any cell (granularity moves
//!   work, never the answer);
//! * `adaptive` loses more than 10% makespan to `static` on any cell —
//!   the CI guard that keeps the tuner from ever buying round trips with
//!   wall-clock time.
//!
//! `--xl` re-runs the esc16e cell on the depth-5/6 shapes at 64k cores
//! (one seed per policy) and applies the same two gates there.

use macs_bench::{
    arg, chunk_policy_arg, full_scale, maybe_help, qap_size_arg, shape_arg, sim_cp_macs, usage,
    xl_cells, xl_scale,
};
use macs_engine::CompiledProblem;
use macs_gpi::MachineTopology;
use macs_problems::{qap::QapInstance, qap_model, queens, QueensModel};
use macs_search::ChunkPolicy;
use macs_sim::{CostModel, SimConfig};

/// One policy's averaged cell results.
struct Cell {
    policy: ChunkPolicy,
    ms: f64,
    rtts: f64,
    items_per_remote: f64,
    optimum: i64,
}

fn main() {
    maybe_help(&usage(
        "chunk_ablation",
        "sweep the steal-chunk granularity policies over machine shapes\nand core counts on esc16e + queens (exit non-zero on any optimum\nmismatch, or if adaptive loses >10% makespan to static).",
        &[
            ("--n <N>", "queens size [default: 12; 14 with --full]"),
            ("--qn <N>", "esc16e sub-instance size, 2..=16 [default: 11]"),
            ("--seeds <N>", "schedule seeds per cell [default: 3]"),
            ("--cores <N>", "run a single core count instead of the series"),
        ],
        &[
            macs_bench::CommonFlag::Shape,
            macs_bench::CommonFlag::ChunkPolicy,
            macs_bench::CommonFlag::CostModel,
            macs_bench::CommonFlag::DetectTopo,
            macs_bench::CommonFlag::Full,
            macs_bench::CommonFlag::Xl,
        ],
    ));
    let full = full_scale();
    let n: usize = arg("n", if full { 14 } else { 12 });
    let qn = qap_size_arg("qn", 11);
    let seeds: u64 = arg("seeds", 3);
    let only = chunk_policy_arg();

    let qap_inst = QapInstance::esc16e().sub_instance(qn);
    let workloads: Vec<(String, CompiledProblem, CostModel)> = vec![
        (
            qap_inst.name.clone(),
            qap_model(&qap_inst),
            CostModel::paper_qap(),
        ),
        (
            format!("queens-{n}"),
            queens(n, QueensModel::Pairwise),
            CostModel::paper_queens(),
        ),
    ];

    let cores_list: Vec<usize> = match macs_bench::opt_arg("cores") {
        Some(cores) => vec![cores],
        None if full => vec![8, 64, 512],
        None => vec![8, 64],
    };
    let policies: Vec<ChunkPolicy> = match only {
        Some(p) => vec![p],
        None => ChunkPolicy::ALL.to_vec(),
    };

    let mut ok = true;
    println!("Steal-chunk granularity ablation (simulated MaCS, {seeds} seeds per cell)\n");
    for (name, prob, costs) in &workloads {
        println!("== {name} ==");
        println!(
            "  {:>5} {:>8} {:>15} {:>11} {:>12} {:>12} {:>10}  steals by distance",
            "cores", "shape", "policy", "ms/run", "remote-rtts", "items/steal", "optimum"
        );
        for &cores in &cores_list {
            // Machine-shape axis: the deep nodes×2×4 machine vs the
            // paper's flat 4-core-node cluster (same total); --shape pins
            // one explicit shape instead.
            let shapes: Vec<(&str, MachineTopology)> = match shape_arg() {
                Some(t) => vec![("explicit", t)],
                None => vec![
                    ("deep", macs_bench::deep_topo_for(cores)),
                    ("2-level", macs_bench::topo_for(cores)),
                ],
            };
            for (shape_name, topo) in shapes {
                let mut cells: Vec<Cell> = Vec::new();
                for &policy in &policies {
                    let (mut ms, mut rtts, mut items) = (0.0f64, 0u64, 0.0f64);
                    let mut optimum = i64::MAX;
                    let mut hist = macs_gpi::StealHistogram::new();
                    for seed in 1..=seeds {
                        let mut cfg = SimConfig::new(topo.clone());
                        cfg.costs = *costs;
                        macs_bench::apply_host_overrides(&mut cfg);
                        cfg.steal.chunk_policy = policy;
                        cfg.seed = seed;
                        let r = sim_cp_macs(prob, &cfg);
                        ms += r.makespan_ns as f64 / 1e6;
                        rtts += r.remote_round_trips();
                        items += r.items_per_remote_steal();
                        hist.merge(&r.steal_distance_histogram());
                        if seed == 1 {
                            optimum = r.incumbent;
                        } else if r.incumbent != optimum {
                            eprintln!("  seed {seed} found {} != {optimum}", r.incumbent);
                            ok = false;
                        }
                    }
                    let cell = Cell {
                        policy,
                        ms: ms / seeds as f64,
                        rtts: rtts as f64 / seeds as f64,
                        items_per_remote: items / seeds as f64,
                        optimum,
                    };
                    println!(
                        "  {cores:>5} {shape_name:>8} {:>15} {:>11.3} {:>12.1} {:>12.2} {:>10}  {}",
                        cell.policy.to_string(),
                        cell.ms,
                        cell.rtts,
                        cell.items_per_remote,
                        if cell.optimum == i64::MAX {
                            "-".to_string()
                        } else {
                            cell.optimum.to_string()
                        },
                        hist.display(),
                    );
                    cells.push(cell);
                }
                // The two regression bounds, against the static baseline.
                if cells.iter().any(|c| c.optimum != cells[0].optimum) {
                    eprintln!(
                        "  OPTIMUM MISMATCH across chunk policies at {cores} cores ({shape_name})"
                    );
                    ok = false;
                }
                let stat = cells.iter().find(|c| c.policy == ChunkPolicy::Static);
                let adap = cells.iter().find(|c| c.policy == ChunkPolicy::Adaptive);
                if let (Some(s), Some(a)) = (stat, adap) {
                    if a.ms > s.ms * 1.10 {
                        eprintln!(
                            "  ADAPTIVE REGRESSION at {cores} cores ({shape_name}): \
                             {:.3} ms vs static {:.3} ms (>10% worse)",
                            a.ms, s.ms
                        );
                        ok = false;
                    }
                    let d_rtt = 100.0 * (a.rtts - s.rtts) / s.rtts.max(1.0);
                    let d_ms = 100.0 * (a.ms - s.ms) / s.ms.max(1e-9);
                    println!(
                        "        adaptive vs static: remote round-trips {d_rtt:+.1}%, \
                         makespan {d_ms:+.1}%, items/steal {:.2} -> {:.2}",
                        s.items_per_remote, a.items_per_remote
                    );
                }
            }
        }
        println!();
    }
    if xl_scale() {
        println!("== 64k-core depth-5/6 cells: esc16e (gated, 1 seed) ==");
        let (name, prob, costs) = &workloads[0];
        for (cell_name, topo) in xl_cells() {
            let mut cells: Vec<Cell> = Vec::new();
            for &policy in &policies {
                let mut cfg = SimConfig::new(topo.clone());
                cfg.costs = *costs;
                macs_bench::apply_host_overrides(&mut cfg);
                cfg.steal.chunk_policy = policy;
                let r = sim_cp_macs(prob, &cfg);
                let cell = Cell {
                    policy,
                    ms: r.makespan_ns as f64 / 1e6,
                    rtts: r.remote_round_trips() as f64,
                    items_per_remote: r.items_per_remote_steal(),
                    optimum: r.incumbent,
                };
                println!(
                    "  {name} {cell_name} {:>15}: {:>11.3} ms  remote-rtts {:>9.0}  \
                     items/steal {:>5.2}  optimum {}",
                    cell.policy.to_string(),
                    cell.ms,
                    cell.rtts,
                    cell.items_per_remote,
                    cell.optimum
                );
                cells.push(cell);
            }
            if cells.iter().any(|c| c.optimum != cells[0].optimum) {
                eprintln!("GATE {cell_name}: optimum mismatch across chunk policies");
                ok = false;
            }
            let stat = cells.iter().find(|c| c.policy == ChunkPolicy::Static);
            let adap = cells.iter().find(|c| c.policy == ChunkPolicy::Adaptive);
            if let (Some(s), Some(a)) = (stat, adap) {
                if a.ms > s.ms * 1.10 {
                    eprintln!(
                        "GATE {cell_name}: adaptive {:.3} ms vs static {:.3} ms (>10% worse)",
                        a.ms, s.ms
                    );
                    ok = false;
                }
            }
        }
        if ok {
            println!("  xl gates passed\n");
        }
    }

    if !ok {
        eprintln!(
            "chunk_ablation FAILED: optimum mismatch or adaptive lost >10% makespan to static"
        );
        std::process::exit(1);
    }
    println!(
        "All chunk policies agree on every optimum and adaptive stayed within\n\
         10% of static's makespan. Expected shape: distance-scaled grants cut\n\
         remote round trips at equal makespan (each far round trip carries a\n\
         bigger reservation, while the thin-reply top-up gate stays anchored\n\
         to the static cap so serving nodes are never over-exported); on\n\
         queens enumeration the effect is within schedule noise."
    );
}
