//! Fabric conservation properties, pinned across seeded steal-storm
//! scenarios: every remote steal-plane message handed to the fabric is
//! either delivered or still in flight when the simulation drains
//! (`injected == delivered + in_flight` — a message can't vanish or be
//! consumed twice), and no link's FIFO can ever be deeper than the run's
//! horizon divided by one message's serialization time (a queue only
//! grows by messages that still occupy link time inside the horizon).
//!
//! The storm scenario is the one `FabricModel::Contention` exists for:
//! one root on worker 0, thousands of idle thieves — under the flat
//! latency model they all pay the same per-ring delay; under contention
//! the victim node's links must absorb the storm as queueing.

use macs_core::{CpProcessor, SearchMode};
use macs_problems::{queens, QueensModel};
use macs_runtime::MachineTopology;
use macs_sim::{
    simulate_macs, simulate_paccs, ContentionParams, CostModel, FabricModel, SimConfig, SimMode,
    SimReport,
};

/// One root, `cores` workers: a steal storm onto node 0's links.
fn storm(
    mode: SimMode,
    cores: usize,
    fabric: FabricModel,
    seed: u64,
) -> SimReport<macs_core::CpOutput> {
    let prob = queens(10, QueensModel::Pairwise);
    let mut cfg = SimConfig::new(MachineTopology::clustered(cores, 4));
    cfg.costs = CostModel::paper_queens();
    cfg.fabric = fabric;
    cfg.seed = seed;
    let words = prob.layout.store_words();
    let roots = [prob.root.as_words().to_vec()];
    let factory = |_| CpProcessor::new(&prob, 1, SearchMode::Exhaustive);
    match mode {
        SimMode::Macs => simulate_macs(&cfg, words, &roots, factory),
        SimMode::Paccs => simulate_paccs(&cfg, words, &roots, factory),
    }
}

fn assert_conservation<O>(r: &SimReport<O>, what: &str) {
    // Every dispatched event left exactly one tier of the event queue.
    assert_eq!(r.heap_pops + r.lane_pops, r.events, "{what}: event tiers");
    assert_eq!(
        r.fabric.injected,
        r.fabric.delivered + r.fabric.in_flight,
        "{what}: fabric books don't balance"
    );
    if r.fabric.contention {
        // Depth bound: every queued message occupies at least one control
        // message's serialization on its link, and all of it inside the
        // run's horizon — so depth can never exceed horizon/ser + 1.
        // Wire constants resolve from the cost model the storms run with.
        let w = ContentionParams::default().resolve(&CostModel::paper_queens());
        let ser = (w.link_byte_ps * w.ctrl_bytes / 1000).max(1);
        let bound = r.makespan_ns / ser + 1;
        assert!(
            r.fabric.max_link_depth <= bound,
            "{what}: link depth {} exceeds horizon bound {bound}",
            r.fabric.max_link_depth
        );
    }
}

#[test]
fn conservation_holds_across_seeded_storms() {
    for seed in [0x51D, 1, 7, 99] {
        for mode in [SimMode::Macs, SimMode::Paccs] {
            for fabric in [
                FabricModel::Latency,
                "contention".parse::<FabricModel>().unwrap(),
            ] {
                let r = storm(mode, 2_048, fabric, seed);
                assert_conservation(&r, &format!("{mode:?}/{fabric}/seed {seed}"));
                assert!(r.fabric.injected > 0, "a 2048-core storm sends messages");
            }
        }
    }
}

#[test]
fn conservation_holds_when_a_race_abandons_in_flight_work() {
    // First-solution race: the winner flag drains pools while replies are
    // still in flight — the books must balance even when messages die
    // unread in mailboxes at teardown (that's what `in_flight` counts).
    for seed in [0x51D, 3] {
        let prob = queens(10, QueensModel::Pairwise);
        let mut cfg = SimConfig::new(MachineTopology::clustered(1_024, 4));
        cfg.costs = CostModel::paper_queens();
        cfg.fabric = "contention".parse().unwrap();
        cfg.seed = seed;
        let r = simulate_macs(
            &cfg,
            prob.layout.store_words(),
            &[prob.root.as_words().to_vec()],
            |_| CpProcessor::new(&prob, 1, SearchMode::FirstSolution),
        );
        assert_conservation(&r, &format!("race/seed {seed}"));
        assert!(r.first_solution_ns.is_some());
    }
}

#[test]
fn storm_pays_queueing_under_contention_not_under_latency() {
    // The model's point: the same storm that is free under flat latency
    // shows up as queueing time under contention — and a bigger storm
    // queues more. PaCCS is the storm protocol (its request queues are
    // unbounded, so every idle thief's request lands); MaCS throttles
    // storms structurally — one pending request per victim — which is
    // asserted below as a *property*, not assumed.
    let flat = storm(SimMode::Paccs, 4_096, FabricModel::Latency, 0x51D);
    let small = storm(SimMode::Paccs, 1_024, "contention".parse().unwrap(), 0x51D);
    let big = storm(SimMode::Paccs, 4_096, "contention".parse().unwrap(), 0x51D);
    assert_eq!(flat.fabric.total_queue_ns, 0, "latency model never queues");
    assert_eq!(flat.fabric.max_link_depth, 0);
    assert!(
        big.fabric.queued_msgs > 0,
        "a 4096-thief storm onto one victim node must queue"
    );
    assert!(
        big.fabric.total_queue_ns > small.fabric.total_queue_ns,
        "queueing must grow with the storm: {} !> {}",
        big.fabric.total_queue_ns,
        small.fabric.total_queue_ns
    );
    // Backpressure slows the storm down, it never changes the answer.
    assert_eq!(flat.total_solutions(), big.total_solutions());
    assert_eq!(flat.total_items(), big.total_items());

    // MaCS under the same storm: the one-slot mailbox caps each victim at
    // one in-flight request, so its queues stay shallow — the protocol's
    // structural backpressure, visible as bounded link depth.
    let macs = storm(SimMode::Macs, 4_096, "contention".parse().unwrap(), 0x51D);
    assert!(
        macs.fabric.max_link_depth < big.fabric.max_link_depth,
        "MaCS mailbox throttling must keep queues shallower: {} !< {}",
        macs.fabric.max_link_depth,
        big.fabric.max_link_depth
    );
}

#[test]
fn contention_parameters_scale_the_pressure() {
    // A 100× slower link must produce at least as much queueing delay as
    // the default — the knob actually reaches the model.
    let slow = FabricModel::Contention(ContentionParams {
        link_byte_ps: Some(66_700),
        ..ContentionParams::default()
    });
    let fast = storm(SimMode::Macs, 2_048, "contention".parse().unwrap(), 0x51D);
    let slowed = storm(SimMode::Macs, 2_048, slow, 0x51D);
    assert!(
        slowed.fabric.total_queue_ns > fast.fabric.total_queue_ns,
        "slower links must queue longer: {} !> {}",
        slowed.fabric.total_queue_ns,
        fast.fabric.total_queue_ns
    );
    assert_eq!(fast.total_solutions(), slowed.total_solutions());
}
