//! The load balancer without the constraint solver: UTS on the same
//! runtime — the paper's point that dynamic load balancing is orthogonal
//! to the problem being solved.
//!
//! ```text
//! cargo run --release --example uts_loadbalance
//! ```

use macs::prelude::*;

fn main() {
    // A deliberately unbalanced binomial tree: most nodes are leaves, a
    // few spawn deep subtrees — worst case for static partitioning.
    let shape = TreeShape::medium_bin(3);
    let seed = 3;

    let reference = uts_sequential(shape, seed);
    println!(
        "tree: {} nodes, {} leaves, depth {}",
        reference.nodes, reference.leaves, reference.max_depth
    );

    for (label, cfg) in [
        ("1 worker          ", RuntimeConfig::single_node(1)),
        ("4 workers, 1 node ", RuntimeConfig::single_node(4)),
        ("4 workers, 2 nodes", RuntimeConfig::clustered(4, 2)),
    ] {
        let t0 = std::time::Instant::now();
        let (stats, report) = uts_parallel(shape, seed, &cfg);
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(stats, reference, "every node visited exactly once");
        let (ls, lf, rs, rf) = report.steal_totals();
        println!("{label}: {dt:>7.3}s  steals local {ls} (failed {lf})  remote {rs} (failed {rf})");
    }

    // Victim-selection ablation on a shared-memory node.
    println!("\nvictim selection (4 workers, same tree):");
    for (label, sel) in [
        ("greedy   ", VictimSelect::Greedy),
        ("max-steal", VictimSelect::MaxSteal),
    ] {
        let mut cfg = RuntimeConfig::single_node(4);
        cfg.steal.victim_select = sel;
        let (stats, report) = uts_parallel(shape, seed, &cfg);
        assert_eq!(stats.checksum, reference.checksum);
        let (ls, lf, _, _) = report.steal_totals();
        println!("  {label}: {ls} local steals, {lf} failed");
    }
}
