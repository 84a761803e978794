//! The paper's headline experiment in miniature: N-Queens scalability.
//!
//! Runs queens-N on the real threaded runtime for small worker counts,
//! then on the discrete-event simulator up to 64 virtual cores (the full
//! 512-core series lives in the `macs-bench` harness binaries).
//!
//! ```text
//! cargo run --release --example nqueens_scaling [N]
//! ```

use macs::prelude::*;
use macs_core::{CpProcessor, SearchMode};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let prob = queens(n, QueensModel::Pairwise);
    println!("== queens-{n}: {} bytes/store ==\n", prob.store_bytes());

    // ---- real threads -------------------------------------------------------
    println!("threaded runtime (real cores of this host):");
    let seq = solve_seq(&prob, &SeqOptions::default());
    println!(
        "  sequential: {} solutions, {} nodes",
        seq.solutions, seq.nodes
    );
    let mut t1 = None;
    for workers in [1usize, 2, 4] {
        let cfg = SolverConfig::with_workers(workers);
        let t0 = std::time::Instant::now();
        let out = Solver::new(cfg).solve(&prob);
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(out.solutions, seq.solutions);
        let t1v = *t1.get_or_insert(dt);
        println!(
            "  {workers:>2} workers: {:>8.3}s  speed-up {:>5.2}  ({:.2} Mnodes/s)",
            dt,
            t1v / dt,
            out.nodes as f64 / dt / 1e6
        );
    }

    // ---- virtual cores (discrete-event simulation) -------------------------
    println!("\nsimulated cluster (4 cores/node, InfiniBand-class fabric):");
    let root = prob.root.as_words().to_vec();
    let mut base = None;
    for cores in [1usize, 4, 8, 16, 32, 64] {
        let topo = if cores >= 4 {
            MachineTopology::clustered(cores, 4)
        } else {
            MachineTopology::flat(cores)
        };
        let mut cfg = SimConfig::new(topo);
        cfg.costs = CostModel::paper_queens();
        let report = simulate_macs(
            &cfg,
            prob.layout.store_words(),
            std::slice::from_ref(&root),
            |_| CpProcessor::new(&prob, 0, SearchMode::Exhaustive),
        );
        let secs = report.makespan_ns as f64 / 1e9;
        let b = *base.get_or_insert(secs);
        let (ls, lf, rs, rf) = report.steal_totals();
        println!(
            "  {cores:>3} vcores: {secs:>8.3}s  speed-up {:>6.2}  eff {:>5.1}%  steals {ls}/{rs} (failed {lf}/{rf})",
            b / secs,
            100.0 * b / secs / cores as f64,
        );
    }
}
