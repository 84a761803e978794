//! Same-seed determinism, pinned bit for bit at every scale.
//!
//! The event queue's key is `(due time, monotone sequence id)` — a strict
//! total order with no tie-break hole (the old heap keyed
//! `(t, seq, worker, epoch)`; the worker/epoch components were dead
//! weight once the sequence id is globally unique, and any key that fell
//! back on them would have made pop order depend on heap internals).
//! These tests run every (scale × balancer × fabric model) cell twice
//! with the same seed and demand *identical* `SimReport`s — every
//! counter, every state time, the event count and the event-trace hash —
//! via [`SimReport::digest`], which folds all of them. A single
//! reordered event anywhere diverges the trace hash. Two more tests pin
//! literal schedules of each protocol, so a change that reorders events
//! the same way on both runs is caught too.

use macs_core::{CpProcessor, SearchMode};
use macs_engine::seq::{solve_seq, SeqOptions};
use macs_engine::CompiledProblem;
use macs_problems::{qap::QapInstance, qap_model, queens, QueensModel};
use macs_runtime::{BoundPolicy, MachineTopology};
use macs_sim::{
    simulate_macs, simulate_paccs, CostModel, FabricModel, SimConfig, SimMode, SimReport,
};
use macs_uts::{uts_sequential, TreeShape, UtsProcessor, SLOT_WORDS};

const SCALES: [usize; 4] = [64, 512, 4_096, 32_768];

fn run(
    mode: SimMode,
    cores: usize,
    fabric: FabricModel,
    seed: u64,
) -> SimReport<macs_core::CpOutput> {
    let prob = queens(9, QueensModel::Pairwise);
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

#[test]
fn same_seed_runs_are_bit_identical_across_scales_and_models() {
    for &cores in &SCALES {
        for mode in [SimMode::Macs, SimMode::Paccs] {
            for fabric in [
                FabricModel::Latency,
                "contention".parse::<FabricModel>().unwrap(),
            ] {
                let a = run(mode, cores, fabric, 0x51D);
                let b = run(mode, cores, fabric, 0x51D);
                let cell = format!("{mode:?}/{fabric}/{cores} cores");
                assert_eq!(a.trace_hash, b.trace_hash, "{cell}: event trace diverged");
                assert_eq!(a.events, b.events, "{cell}: event count diverged");
                assert_eq!(a.digest(), b.digest(), "{cell}: report digest diverged");
                // Spot checks behind the digest, for readable failures.
                assert_eq!(a.makespan_ns, b.makespan_ns, "{cell}");
                assert_eq!(a.steal_totals(), b.steal_totals(), "{cell}");
                assert_eq!(a.fabric, b.fabric, "{cell}");
            }
        }
    }
}

#[test]
fn different_seeds_usually_diverge() {
    // The digest must actually be sensitive: two *different* seeds at the
    // same scale should produce different interleavings (if this ever
    // fails the seeds converged by astronomical luck — or the digest went
    // blind, which is what it guards against).
    let a = run(SimMode::Macs, 512, FabricModel::Latency, 1);
    let b = run(SimMode::Macs, 512, FabricModel::Latency, 2);
    assert_ne!(
        (a.trace_hash, a.digest()),
        (b.trace_hash, b.digest()),
        "digest is seed-blind"
    );
}

#[test]
fn fabric_model_changes_the_schedule_not_the_answer() {
    // Contention re-times messages (so traces differ) but never changes
    // what the search computes.
    let a = run(SimMode::Macs, 4_096, FabricModel::Latency, 0x51D);
    let b = run(SimMode::Macs, 4_096, "contention".parse().unwrap(), 0x51D);
    assert_eq!(a.total_solutions(), b.total_solutions());
    assert_eq!(a.total_items(), b.total_items());
    assert!(b.fabric.contention && !a.fabric.contention);
}

/// `(trace_hash, events, makespan_ns, total_items)` of a run.
fn schedule<O>(r: &SimReport<O>) -> (u64, u64, u64, u64) {
    (r.trace_hash, r.events, r.makespan_ns, r.total_items())
}

/// Simulated PaCCS on `topo`, one root, `mode`.
fn paccs_cell(
    prob: &CompiledProblem,
    topo: MachineTopology,
    mode: SearchMode,
) -> SimReport<macs_core::CpOutput> {
    let cfg = SimConfig::new(topo);
    let roots = [prob.root.as_words().to_vec()];
    simulate_paccs(&cfg, prob.layout.store_words(), &roots, |_| {
        CpProcessor::new(prob, 1, mode)
    })
}

#[test]
fn the_simulated_paccs_schedule_is_pinned() {
    // Literal values: a change to how the PaCCS agent is sequenced must
    // reproduce every event of the schedule, not only agree with itself.
    let latency = FabricModel::Latency;
    let contention = "contention".parse::<FabricModel>().unwrap();
    let got: Vec<_> = [
        (64, latency),
        (64, contention),
        (512, latency),
        (512, contention),
    ]
    .into_iter()
    .map(|(cores, fabric)| schedule(&run(SimMode::Paccs, cores, fabric, 0x51D)))
    .collect();
    let want = [
        (6_248_133_996_862_495_094, 7_168, 1_284_084, 2_574),
        (17_389_344_804_314_009_625, 6_731, 1_587_461, 2_574),
        (5_565_596_141_972_817_996, 20_752, 1_185_789, 2_574),
        (1_662_920_563_996_327_510, 18_981, 1_580_151, 2_574),
    ];
    assert_eq!(
        got, want,
        "queens-9 at 64 and 512 cores, latency then contention"
    );

    let three_level = || MachineTopology::try_new(&[4, 2, 2], 1).unwrap();
    let race = paccs_cell(
        &queens(10, QueensModel::Pairwise),
        three_level(),
        SearchMode::FirstSolution,
    );
    assert!(race.first_solution_ns.is_some());
    let race_pin = (15_876_604_984_520_429_679, 294, 39_344, 156);
    assert_eq!(schedule(&race), race_pin, "queens-10 first solution");
    let bnb = paccs_cell(
        &qap_model(&QapInstance::esc16e().sub_instance(8)),
        three_level(),
        SearchMode::Exhaustive,
    );
    let bnb_pin = (2_607_738_719_590_841_962, 24_081, 3_450_530, 23_048);
    assert_eq!(schedule(&bnb), bnb_pin, "esc16e[8] branch and bound");
}

/// Simulated MaCS on `topo` under `costs` and `bounds`, one root, `mode`.
fn macs_cell(
    prob: &CompiledProblem,
    topo: MachineTopology,
    costs: CostModel,
    bounds: BoundPolicy,
    mode: SearchMode,
) -> SimReport<macs_core::CpOutput> {
    let mut cfg = SimConfig::new(topo).with_cost_model(costs);
    cfg.bound_policy = bounds;
    let roots = [prob.root.as_words().to_vec()];
    simulate_macs(&cfg, prob.layout.store_words(), &roots, |_| {
        CpProcessor::new(prob, 1, mode)
    })
}

#[test]
fn the_simulated_macs_schedule_is_pinned() {
    // Literal values, recorded before the event queue gained its idle
    // lanes: a change to the queue, or to how the MaCS worker is
    // sequenced, must reproduce every event of the schedule.
    let latency = FabricModel::Latency;
    let contention = "contention".parse::<FabricModel>().unwrap();
    let runs: Vec<_> = [
        (64, latency),
        (64, contention),
        (512, latency),
        (512, contention),
    ]
    .into_iter()
    .map(|(cores, fabric)| run(SimMode::Macs, cores, fabric, 0x51D))
    .collect();
    let got: Vec<_> = runs.iter().map(schedule).collect();
    let want = [
        (2_693_452_087_300_189_162, 5_010, 501_283, 2_574),
        (9_628_621_980_420_127_726, 5_377, 521_434, 2_574),
        (15_552_930_079_927_610_978, 34_230, 324_080, 2_574),
        (10_720_458_294_028_675_654, 46_011, 431_114, 2_574),
    ];
    assert_eq!(
        got, want,
        "queens-9 at 64 and 512 cores, latency then contention"
    );
    // Which tier of the event queue each event left, the heap or the
    // lanes of idle wakes: attribution, not behaviour, so recorded with
    // the lanes.
    let tiers = (runs[2].heap_pops, runs[2].lane_pops);
    assert_eq!(tiers, (3_455, 30_775), "queens-9 at 512 cores, latency");
    // What the victim scans read and which nodes the census let them
    // pass unread: attribution too, so a change to either counts a
    // change in host work, never in the schedule.
    let scans = (runs[2].probe_reads, runs[2].dry_skips);
    assert_eq!(scans, (8_876, 91_925), "queens-9 at 512 cores, latency");

    let three_level = || MachineTopology::try_new(&[4, 4, 4], 1).unwrap();
    let esc = qap_model(&QapInstance::esc16e().sub_instance(8));
    let bnb = macs_cell(
        &esc,
        three_level(),
        CostModel::default(),
        BoundPolicy::Hierarchical,
        SearchMode::Exhaustive,
    );
    let oracle = solve_seq(&esc, &SeqOptions::default());
    assert_eq!(Some(bnb.incumbent), oracle.best_cost);
    let bnb_pin = (15_715_996_091_282_479_124, 25_053, 1_160_346, 23_036);
    assert_eq!(schedule(&bnb), bnb_pin, "esc16e[8], hierarchical bounds");

    let race = macs_cell(
        &queens(11, QueensModel::Pairwise),
        MachineTopology::clustered(512, 4),
        CostModel::paper_queens(),
        BoundPolicy::Immediate,
        SearchMode::FirstSolution,
    );
    assert!(race.first_solution_ns.is_some());
    let race_pin = (2_566_333_153_031_257_054, 11_149, 61_052, 44);
    assert_eq!(schedule(&race), race_pin, "queens-11 first solution");

    let mut cfg = SimConfig::new(MachineTopology::clustered(512, 4));
    cfg.costs = CostModel::woodcrest_ib(1_500);
    let shape = TreeShape::Binomial {
        root_children: 100,
        m: 4,
        q: 0.2375,
    };
    let uts = simulate_macs(&cfg, SLOT_WORDS, &[UtsProcessor::root_item(7)], |_| {
        UtsProcessor::new(shape)
    });
    let nodes: u64 = uts.outputs.iter().map(|s| s.nodes).sum();
    assert_eq!(nodes, uts_sequential(shape, 7).nodes);
    let uts_pin = (1_242_874_723_668_227_455, 22_664, 198_950, 1_093);
    assert_eq!(schedule(&uts), uts_pin, "UTS binomial tree at 512 cores");
}
