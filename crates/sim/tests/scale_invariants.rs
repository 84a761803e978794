//! Scale regression tests at 64k virtual cores: the conservation and
//! accounting invariants that caught bugs at 8–512 cores must survive
//! three orders of magnitude more workers — lost work
//! (`roots + pushes == completed + abandoned`), the steal-distance
//! histogram's bucket sum, drain-steal exclusion, and the fabric's
//! message books. These run release-fast because the event core is
//! O(log n) per event and the rings are O(1) views; a materialised-ring
//! simulator would need ~32 GB just to build the victim lists at this
//! scale.

use macs_core::{CpProcessor, SearchMode};
use macs_engine::seq::{solve_seq, SeqOptions};
use macs_problems::{queens, QueensModel};
use macs_runtime::MachineTopology;
use macs_sim::{simulate_macs, simulate_paccs, CostModel, FabricModel, SimConfig, SimReport};

const CORES: usize = 65_536;

fn cfg_64k() -> SimConfig {
    let mut cfg = SimConfig::new(MachineTopology::clustered(CORES, 4));
    cfg.costs = CostModel::paper_queens();
    cfg
}

/// Every invariant that must hold for an exhaustive run, at any scale.
fn assert_invariants<O>(r: &SimReport<O>, roots: u64, what: &str) {
    // Lost-work conservation: every unit created is either completed or
    // (in a race) abandoned — nothing leaks, nothing is double-counted.
    assert_eq!(
        roots + r.total_pushes(),
        r.completed_items + r.abandoned_items,
        "{what}: lost work at {CORES} cores"
    );
    // Histogram bucket sum: every successful steal landed in exactly one
    // distance bucket.
    let (local_ok, _, remote_ok, _) = r.steal_totals();
    assert_eq!(
        r.steal_distance_histogram().total(),
        local_ok + remote_ok,
        "{what}: histogram bucket sum"
    );
    // Fabric conservation books.
    assert_eq!(
        r.fabric.injected,
        r.fabric.delivered + r.fabric.in_flight,
        "{what}: fabric message conservation"
    );
    assert!(r.events > 0, "{what}: no events dispatched?");
    // Every dispatched event left exactly one tier of the event queue.
    assert_eq!(r.heap_pops + r.lane_pops, r.events, "{what}: event tiers");
    assert!(r.peak_live_items > 0, "{what}: arena never held an item?");
}

#[test]
fn invariants_hold_at_64k_cores_macs() {
    let prob = queens(12, QueensModel::Pairwise);
    let seq = solve_seq(&prob, &SeqOptions::default());
    let r = simulate_macs(
        &cfg_64k(),
        prob.layout.store_words(),
        &[prob.root.as_words().to_vec()],
        |_| CpProcessor::new(&prob, 1, SearchMode::Exhaustive),
    );
    assert_invariants(&r, 1, "macs/latency");
    // Exhaustive: the full tree, the full count, nothing abandoned.
    assert_eq!(r.total_solutions(), seq.solutions);
    assert_eq!(r.total_items(), seq.nodes);
    assert_eq!(r.abandoned_items, 0);
    // 64k workers over one root: the work spread far beyond node 0.
    let (_, _, remote_ok, _) = r.steal_totals();
    assert!(remote_ok > 0, "no remote steals at 16384 nodes");
}

#[test]
fn invariants_hold_at_64k_cores_paccs_contention() {
    let prob = queens(12, QueensModel::Pairwise);
    let seq = solve_seq(&prob, &SeqOptions::default());
    let mut cfg = cfg_64k();
    cfg.fabric = "contention".parse::<FabricModel>().unwrap();
    let r = simulate_paccs(
        &cfg,
        prob.layout.store_words(),
        &[prob.root.as_words().to_vec()],
        |_| CpProcessor::new(&prob, 1, SearchMode::Exhaustive),
    );
    assert_invariants(&r, 1, "paccs/contention");
    assert_eq!(r.total_solutions(), seq.solutions);
    assert_eq!(r.total_items(), seq.nodes);
    assert!(r.fabric.contention);
}

#[test]
fn drain_steals_stay_out_of_steal_counts_at_64k() {
    // First-solution race at 64k cores: steals resolved after the winner
    // flag is a drain, not a delivery — they must appear in
    // `drain_steals` and NOWHERE else (not in the local/remote totals,
    // not in the distance histogram), or the steal tables double-count.
    let prob = queens(12, QueensModel::Pairwise);
    let r = simulate_macs(
        &cfg_64k(),
        prob.layout.store_words(),
        &[prob.root.as_words().to_vec()],
        |_| CpProcessor::new(&prob, 1, SearchMode::FirstSolution),
    );
    assert_invariants(&r, 1, "macs/race");
    assert!(r.first_solution_ns.is_some(), "race never won");
    assert!(r.total_solutions() >= 1);
    // The histogram equality inside assert_invariants is the exclusion
    // proof: if any drain were recorded as a steal (or vice versa) the
    // bucket sum and the steal totals would disagree.
}
