//! Behavioural tests of the discrete-event simulator: tree conservation,
//! scaling sanity, steal accounting, and the COP bound-dissemination
//! effect — all on real CP search trees.

use std::cell::Cell;

use macs_core::{CpOutput, CpProcessor, SearchMode};
use macs_engine::seq::{solve_seq, SeqOptions};
use macs_problems::{qap::QapInstance, qap_model, queens, QueensModel};
use macs_runtime::{MachineTopology, Processor};
use macs_sim::{simulate_macs, simulate_paccs, BoundPolicy, CostModel, SimConfig};

fn queens_cfg(workers: usize, cores_per_node: usize) -> SimConfig {
    let mut cfg = SimConfig::new(if workers.is_multiple_of(cores_per_node) {
        MachineTopology::clustered(workers, cores_per_node)
    } else {
        MachineTopology::flat(workers)
    });
    cfg.costs = CostModel::woodcrest_ib(3_000);
    cfg
}

#[test]
fn macs_sim_counts_match_sequential_queens() {
    let prob = queens(8, QueensModel::Pairwise);
    let seq = solve_seq(&prob, &SeqOptions::default());
    for (w, cpn) in [(1, 1), (4, 4), (8, 4), (16, 4)] {
        let cfg = queens_cfg(w, cpn);
        let report = simulate_macs(
            &cfg,
            prob.layout.store_words(),
            &[prob.root.as_words().to_vec()],
            |_| CpProcessor::new(&prob, 4, SearchMode::Exhaustive),
        );
        assert_eq!(report.total_solutions(), seq.solutions, "{w} vworkers");
        // Satisfaction trees are schedule-independent: node counts match
        // the sequential solver exactly.
        assert_eq!(report.total_items(), seq.nodes, "{w} vworkers");
    }
}

#[test]
fn macs_sim_speedup_is_monotone_and_sane() {
    let prob = queens(9, QueensModel::Pairwise);
    let root = prob.root.as_words().to_vec();
    let mut t = Vec::new();
    for w in [1usize, 4, 16] {
        let cfg = queens_cfg(w, if w >= 4 { 4 } else { 1 });
        let report = simulate_macs(
            &cfg,
            prob.layout.store_words(),
            std::slice::from_ref(&root),
            |_| CpProcessor::new(&prob, 0, SearchMode::Exhaustive),
        );
        t.push(report.makespan_ns as f64);
    }
    let s4 = t[0] / t[1];
    let s16 = t[0] / t[2];
    assert!(s4 > 2.0, "speed-up at 4 vcores too low: {s4:.2}");
    assert!(s4 < 4.4, "speed-up at 4 vcores super-linear: {s4:.2}");
    assert!(
        s16 > s4,
        "speed-up must grow with cores ({s4:.2} vs {s16:.2})"
    );
    assert!(s16 < 17.0, "speed-up at 16 vcores impossible: {s16:.2}");
}

#[test]
fn macs_sim_hierarchical_steals_and_states() {
    let prob = queens(9, QueensModel::Pairwise);
    let cfg = queens_cfg(16, 4);
    let report = simulate_macs(
        &cfg,
        prob.layout.store_words(),
        &[prob.root.as_words().to_vec()],
        |_| CpProcessor::new(&prob, 0, SearchMode::Exhaustive),
    );
    let (local_ok, _lf, remote_ok, _rf) = report.steal_totals();
    assert!(local_ok > 0, "local steals expected");
    assert!(remote_ok > 0, "remote steals expected across 4 nodes");
    let fr = report.state_fractions();
    let sum: f64 = fr.iter().sum();
    assert!((sum - 1.0).abs() < 1e-6);
    // Workers should be mostly busy on a tree this large.
    assert!(
        report.overhead_fraction() < 0.5,
        "overhead {:.1}% too high",
        report.overhead_fraction() * 100.0
    );
}

#[test]
fn paccs_sim_counts_match_sequential() {
    let prob = queens(8, QueensModel::Pairwise);
    let seq = solve_seq(&prob, &SeqOptions::default());
    for w in [4usize, 8] {
        let cfg = queens_cfg(w, 4);
        let report = simulate_paccs(
            &cfg,
            prob.layout.store_words(),
            &[prob.root.as_words().to_vec()],
            |_| CpProcessor::new(&prob, 0, SearchMode::Exhaustive),
        );
        assert_eq!(report.total_solutions(), seq.solutions);
        assert_eq!(report.total_items(), seq.nodes);
        assert!(report.makespan_ns > 0);
    }
}

#[test]
fn macs_beats_or_matches_paccs_at_scale() {
    // The paper's Fig. 4/6: both scale, MaCS a whisker ahead at high core
    // counts. We assert MaCS is not *slower* by more than 15% at 32 vcores.
    let prob = queens(9, QueensModel::Pairwise);
    let root = prob.root.as_words().to_vec();
    let cfg = queens_cfg(32, 4);
    let m = simulate_macs(
        &cfg,
        prob.layout.store_words(),
        std::slice::from_ref(&root),
        |_| CpProcessor::new(&prob, 0, SearchMode::Exhaustive),
    );
    let p = simulate_paccs(&cfg, prob.layout.store_words(), &[root], |_| {
        CpProcessor::new(&prob, 0, SearchMode::Exhaustive)
    });
    assert_eq!(m.total_items(), p.total_items());
    let ratio = m.makespan_ns as f64 / p.makespan_ns as f64;
    assert!(ratio < 1.15, "MaCS/PaCCS makespan ratio {ratio:.2}");
}

#[test]
fn qap_sim_finds_optimum_and_grows_with_delay() {
    let inst = QapInstance::cube8_like(3);
    let prob = qap_model(&inst);
    let seq = solve_seq(&prob, &SeqOptions::default());
    let root = prob.root.as_words().to_vec();

    let mut cfg = queens_cfg(8, 4);
    cfg.costs = CostModel::woodcrest_ib(8_000);
    cfg.bound_delay_ns = Some(0);
    let fast = simulate_macs(
        &cfg,
        prob.layout.store_words(),
        std::slice::from_ref(&root),
        |_| CpProcessor::new(&prob, 0, SearchMode::Exhaustive),
    );
    assert_eq!(fast.incumbent, seq.best_cost.unwrap(), "optimum reached");

    // A huge dissemination delay leaves workers pruning on stale bounds:
    // the tree must not shrink, and typically grows (the paper's COP
    // problem-size growth).
    cfg.bound_delay_ns = Some(50_000_000);
    let slow = simulate_macs(&cfg, prob.layout.store_words(), &[root], |_| {
        CpProcessor::new(&prob, 0, SearchMode::Exhaustive)
    });
    assert_eq!(slow.incumbent, seq.best_cost.unwrap());
    assert!(
        slow.total_items() >= fast.total_items(),
        "stale bounds cannot shrink the tree: {} < {}",
        slow.total_items(),
        fast.total_items()
    );
}

#[test]
fn bound_policies_agree_on_the_optimum_and_differ_in_volume() {
    let inst = QapInstance::cube8_like(5);
    let prob = qap_model(&inst);
    let seq = solve_seq(&prob, &SeqOptions::default());
    let expect = seq.best_cost.unwrap();
    let root = prob.root.as_words().to_vec();
    let topo = MachineTopology::try_new(&[4, 2, 2], 1).unwrap(); // 4 nodes of 4
    let run = |policy| {
        let mut cfg = SimConfig::new(topo.clone());
        cfg.costs = CostModel::woodcrest_ib(8_000);
        cfg.bound_policy = policy;
        simulate_macs(
            &cfg,
            prob.layout.store_words(),
            std::slice::from_ref(&root),
            |_| CpProcessor::new(&prob, 0, SearchMode::Exhaustive),
        )
    };
    let imm = run(BoundPolicy::Immediate);
    let per = run(BoundPolicy::Periodic { every: 32 });
    let hier = run(BoundPolicy::Hierarchical);
    // Delay moves *when* a bound arrives, never the answer.
    for (name, r) in [
        ("immediate", &imm),
        ("periodic", &per),
        ("hierarchical", &hier),
    ] {
        assert_eq!(r.incumbent, expect, "{name} optimum");
        assert!(r.bound_updates > 0, "{name} accepted improvements");
    }
    // The broadcast tree bills remote leaders, not remote workers.
    assert!(
        hier.bound_msgs < imm.bound_msgs,
        "hierarchical {} !< immediate {}",
        hier.bound_msgs,
        imm.bound_msgs
    );
}

#[test]
fn chunk_policies_agree_on_counts_and_optimum() {
    // Granularity moves work between workers, never the answer: every
    // policy must reproduce the sequential solution count (enumeration)
    // and the optimum (optimisation) — on a satisfaction and an
    // optimisation workload, both simulated balancers.
    use macs_sim::ChunkPolicy;
    let prob = queens(8, QueensModel::Pairwise);
    let seq = solve_seq(&prob, &SeqOptions::default());
    let inst = QapInstance::cube8_like(5);
    let qap = qap_model(&inst);
    let qseq = solve_seq(&qap, &SeqOptions::default());
    let root = prob.root.as_words().to_vec();
    let qroot = qap.root.as_words().to_vec();
    let topo = MachineTopology::try_new(&[2, 2, 4], 1).unwrap();
    for policy in ChunkPolicy::ALL {
        let mut cfg = SimConfig::new(topo.clone());
        cfg.steal.chunk_policy = policy;
        let r = simulate_macs(
            &cfg,
            prob.layout.store_words(),
            std::slice::from_ref(&root),
            |_| CpProcessor::new(&prob, 0, SearchMode::Exhaustive),
        );
        assert_eq!(r.total_solutions(), seq.solutions, "{policy} queens count");
        let p = simulate_paccs(
            &cfg,
            prob.layout.store_words(),
            std::slice::from_ref(&root),
            |_| CpProcessor::new(&prob, 0, SearchMode::Exhaustive),
        );
        assert_eq!(p.total_solutions(), seq.solutions, "{policy} paccs count");
        let mut qcfg = SimConfig::new(topo.clone());
        qcfg.steal.chunk_policy = policy;
        qcfg.costs = CostModel::woodcrest_ib(8_000);
        let q = simulate_macs(
            &qcfg,
            qap.layout.store_words(),
            std::slice::from_ref(&qroot),
            |_| CpProcessor::new(&qap, 0, SearchMode::Exhaustive),
        );
        assert_eq!(q.incumbent, qseq.best_cost.unwrap(), "{policy} optimum");
    }
}

#[test]
fn release_interval_reduces_releases() {
    let prob = queens(9, QueensModel::Pairwise);
    let root = prob.root.as_words().to_vec();
    let mut cfg = queens_cfg(8, 4);
    cfg.steal.release = macs_runtime::ReleasePolicy::default(); // interval 1
    let eager = simulate_macs(
        &cfg,
        prob.layout.store_words(),
        std::slice::from_ref(&root),
        |_| CpProcessor::new(&prob, 0, SearchMode::Exhaustive),
    );
    cfg.steal.release = macs_runtime::ReleasePolicy::tuned(); // interval 32
    let tuned = simulate_macs(&cfg, prob.layout.store_words(), &[root], |_| {
        CpProcessor::new(&prob, 0, SearchMode::Exhaustive)
    });
    let e_rel: u64 = eager.workers.iter().map(|w| w.releases).sum();
    let t_rel: u64 = tuned.workers.iter().map(|w| w.releases).sum();
    assert!(
        t_rel < e_rel,
        "tuned interval must release less: {t_rel} vs {e_rel}"
    );
    assert_eq!(eager.total_items(), tuned.total_items());
}

#[test]
fn deterministic_given_seed() {
    let prob = queens(8, QueensModel::Pairwise);
    let root = prob.root.as_words().to_vec();
    let cfg = queens_cfg(8, 4);
    let a = simulate_macs(
        &cfg,
        prob.layout.store_words(),
        std::slice::from_ref(&root),
        |_| CpProcessor::new(&prob, 0, SearchMode::Exhaustive),
    );
    let b = simulate_macs(&cfg, prob.layout.store_words(), &[root], |_| {
        CpProcessor::new(&prob, 0, SearchMode::Exhaustive)
    });
    assert_eq!(a.makespan_ns, b.makespan_ns);
    assert_eq!(a.steal_totals(), b.steal_totals());
}

#[test]
fn teardown_builds_no_processor_for_an_untouched_worker() {
    // A worker's processor is built on the first node it expands, and
    // only then: every other worker reports the default output, which is
    // what an untouched processor would have finished with.
    let prob = queens(9, QueensModel::Pairwise);
    let untouched = CpProcessor::new(&prob, 1, SearchMode::Exhaustive).finish();
    let default = format!("{:?}", CpOutput::default());
    assert_eq!(format!("{untouched:?}"), default);

    let mut cfg = SimConfig::new(MachineTopology::clustered(512, 4));
    cfg.costs = CostModel::paper_queens();
    let calls = Cell::new(0usize);
    let report = simulate_macs(
        &cfg,
        prob.layout.store_words(),
        &[prob.root.as_words().to_vec()],
        |_| {
            calls.set(calls.get() + 1);
            CpProcessor::new(&prob, 1, SearchMode::Exhaustive)
        },
    );
    let busy = report.workers.iter().filter(|w| w.items > 0).count();
    assert!(
        0 < busy && busy < 512,
        "{busy} of 512 workers expanded a node"
    );
    assert_eq!(calls.get(), busy, "one processor per busy worker");
    for (w, out) in report.workers.iter().zip(&report.outputs) {
        if w.items == 0 {
            assert_eq!(format!("{out:?}"), default);
        } else {
            assert_eq!(out.nodes, w.items);
        }
    }
}
