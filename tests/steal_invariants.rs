//! Regression net for [`StealHistogram`]: whatever the scan order and
//! machine depth, (a) the per-distance buckets sum to exactly the number
//! of successful steals, and (b) no recorded distance can exceed the
//! machine's level count (the topology's ultrametric diameter) — plus the
//! lease-boundary drain: a lease that shrinks *inside* a node must still
//! let the remaining worker steal a parked pool's last item.

use macs::prelude::*;
use macs::solver::CpProcessor;
use macs_sim::simulate_macs;

fn check_histogram(label: &str, hist: &StealHistogram, steals: u64, topo: &MachineTopology) {
    assert_eq!(
        hist.total(),
        steals,
        "{label}: per-distance counts must sum to total steals"
    );
    for (d, count) in hist.buckets() {
        assert!(count > 0);
        assert!(d >= 1, "{label}: nobody steals from themselves");
        assert!(
            d <= topo.levels(),
            "{label}: distance {d} exceeds the machine depth {}",
            topo.levels()
        );
    }
}

#[test]
fn histogram_sums_and_depth_bounds_hold_for_both_scan_orders() {
    let prob = queens(9, QueensModel::Pairwise);
    let root = prob.root.as_words().to_vec();
    for shape in [&[4usize, 2, 2][..], &[2, 2, 2, 2][..], &[8, 4][..]] {
        let prefix = if shape.len() == 4 { 2 } else { 1 };
        let topo = MachineTopology::try_new(shape, prefix).unwrap();
        for order in [ScanOrder::DistanceAware, ScanOrder::Flat] {
            let mut cfg = SimConfig::new(topo.clone());
            cfg.steal.scan_order = order;
            let r = simulate_macs(
                &cfg,
                prob.layout.store_words(),
                std::slice::from_ref(&root),
                |_| CpProcessor::new(&prob, 0, SearchMode::Exhaustive),
            );
            let (ls, _, rs, _) = r.steal_totals();
            let label = format!("sim {shape:?} {order:?}");
            check_histogram(&label, &r.steal_distance_histogram(), ls + rs, &topo);
        }
    }
}

#[test]
fn threaded_runtime_histograms_obey_the_same_invariants() {
    let prob = queens(9, QueensModel::Pairwise);
    for order in [ScanOrder::DistanceAware, ScanOrder::Flat] {
        let topo = MachineTopology::try_new(&[2, 2, 2], 1).unwrap();
        let mut cfg = SolverConfig::with_workers(1);
        cfg.runtime.topology = topo.clone();
        cfg.runtime.steal.scan_order = order;
        let out = Solver::new(cfg).solve(&prob);
        let mut hist = StealHistogram::new();
        for w in &out.report.workers {
            hist.merge(&w.steals_by_distance);
        }
        let (ls, _, rs, _) = out.report.steal_totals();
        check_histogram(&format!("threaded {order:?}"), &hist, ls + rs, &topo);
    }
}

#[test]
fn paccs_histograms_obey_the_same_invariants() {
    let prob = queens(9, QueensModel::Pairwise);
    let cfg = PaccsConfig::hierarchical(&[2, 2, 2], 1).unwrap();
    let out = paccs_solve(&prob, &cfg);
    check_histogram(
        "paccs 2x2x2",
        &out.steals_by_distance,
        out.local_steals + out.remote_steals,
        &cfg.topology,
    );
}

/// A first-solution race drains: steal replies landing after the winner
/// flag deliver work that is immediately discarded. Those must go into the
/// separate `drain_steals` bucket — never into the histogram or the
/// local/remote steal counts they used to inflate (items-per-remote-steal
/// in `paper ablation_race` was counting dead deliveries).
#[test]
fn race_drain_steals_stay_out_of_the_histogram() {
    let prob = queens(9, QueensModel::Pairwise);
    let root = prob.root.as_words().to_vec();
    let mut drains_seen = 0u64;
    for shape in [&[4usize, 2, 2][..], &[8, 4][..]] {
        let topo = MachineTopology::try_new(shape, 1).unwrap();
        for seed in 1..=4u64 {
            let mut cfg = SimConfig::new(topo.clone());
            cfg.seed = seed;
            let r = simulate_macs(
                &cfg,
                prob.layout.store_words(),
                std::slice::from_ref(&root),
                |_| CpProcessor::new(&prob, 1, SearchMode::FirstSolution),
            );
            let (ls, _, rs, _) = r.steal_totals();
            let label = format!("sim race {shape:?} seed {seed}");
            check_histogram(&label, &r.steal_distance_histogram(), ls + rs, &topo);
            drains_seen += r.drain_steals();
        }
    }
    // The deterministic sweep above is known to produce drains on every
    // seed; if it ever stops, the exclusion path is no longer exercised.
    assert!(
        drains_seen > 0,
        "expected at least one post-win drain steal across the sweep"
    );
}

#[test]
fn threaded_and_paccs_race_histograms_exclude_drains() {
    let prob = queens(9, QueensModel::Pairwise);
    // Threaded MaCS race: drains are timing-dependent, but the histogram
    // invariant (counts = successful live steals) must hold regardless.
    let topo = MachineTopology::try_new(&[2, 2, 2], 1).unwrap();
    let mut cfg = SolverConfig::with_workers(1);
    cfg.runtime.topology = topo.clone();
    cfg.mode = SearchMode::FirstSolution;
    let out = Solver::new(cfg).solve(&prob);
    let mut hist = StealHistogram::new();
    let mut drains = 0u64;
    for w in &out.report.workers {
        hist.merge(&w.steals_by_distance);
        drains += w.drain_steals;
    }
    let (ls, _, rs, _) = out.report.steal_totals();
    check_histogram("threaded race", &hist, ls + rs, &topo);
    let _ = drains; // may be zero on a fast host — the invariant is the pin

    // PaCCS race: same exclusion, same invariant.
    let mut pcfg = PaccsConfig::hierarchical(&[2, 2, 2], 1).unwrap();
    pcfg.mode = SearchMode::FirstSolution;
    let pout = paccs_solve(&prob, &pcfg);
    check_histogram(
        "paccs race",
        &pout.steals_by_distance,
        pout.local_steals + pout.remote_steals,
        &pcfg.topology,
    );
}

/// Multi-tenant cell: two jobs co-scheduled on one shared register file,
/// one of them under a shrunken lease. The histogram invariant must hold
/// *per job* — a steal can never cross a lease boundary, so each
/// tenant's per-distance counts must sum to exactly its own successful
/// steals, and a lease that shrinks must still account for every steal
/// that drained the parked victims' pools.
#[test]
fn cotenant_histograms_conserve_steals_when_a_lease_shrinks() {
    use macs::gpi::{CellBlock, GlobalCells, World};
    use macs::runtime::run_parallel_on;

    let prob = queens(9, QueensModel::Pairwise);
    let words = prob.layout.store_words();
    let root = prob.root.as_words().to_vec();
    let topo = MachineTopology::try_new(&[4, 2], 1).unwrap(); // 4 nodes x 2 cores
    let cells = std::sync::Arc::new(GlobalCells::with_job_blocks(2, 4));

    let run_job = |job: usize, lease_workers: u64| {
        let block = CellBlock::for_job(job, 4);
        let world = World::leased_on(topo.clone(), LatencyModel::zero(), cells.clone(), block);
        // Tenant 0's lease shrinks before its workers clear the start
        // barrier: workers 4..8 park immediately and their pools drain
        // through the retention waiver.
        if lease_workers < 8 {
            cells.store(block.lease(), lease_workers);
        }
        let rt = RuntimeConfig {
            topology: topo.clone(),
            seed: 0xA11 + job as u64,
            ..Default::default()
        };
        run_parallel_on(&world, &rt, words, std::slice::from_ref(&root), |_| {
            CpProcessor::new(&prob, 0, SearchMode::Exhaustive)
        })
    };

    let (shrunk, full) = std::thread::scope(|s| {
        let a = s.spawn(|| run_job(0, 4));
        let b = s.spawn(|| run_job(1, 8));
        (a.join().unwrap(), b.join().unwrap())
    });

    for (label, report) in [("shrunk tenant", &shrunk), ("full tenant", &full)] {
        // Per-worker conservation: every successful steal lands in the
        // distance histogram exactly once, parked victims included.
        let mut hist = StealHistogram::new();
        for w in &report.workers {
            assert_eq!(
                w.steals_by_distance.total(),
                w.local_steals + w.remote_steals,
                "{label}: worker {} histogram out of step",
                w.id
            );
            hist.merge(&w.steals_by_distance);
        }
        let (ls, _, rs, _) = report.steal_totals();
        check_histogram(label, &hist, ls + rs, &topo);
        // No cross-tenant leak: a stray cancel or bound write from the
        // co-tenant's block would truncate the enumeration.
        let solutions: u64 = report.outputs.iter().map(|o| o.solutions).sum();
        assert_eq!(solutions, 352, "{label}: queens-9 enumeration truncated");
    }
    // The shrink really happened: every shut-out worker parked at least
    // once and processed nothing.
    let parks: u64 = shrunk.workers.iter().map(|w| w.parks).sum();
    assert!(
        parks >= 4,
        "expected all 4 shut-out workers to park, got {parks}"
    );
    for w in &shrunk.workers[4..] {
        assert_eq!(w.items, 0, "parked worker {} processed items", w.id);
    }
}

/// A lease boundary inside a node: worker 1 of a flat two-worker world is
/// shut out mid-run, parks, and publishes whatever it held. Worker 0 must
/// drain that pool to the *last* item — a parked victim retains nothing,
/// and the local steal has to ask it for that item the same way a served
/// request would. (It used to ask for `share_ceil(1, cap) = 0` items,
/// every round, forever.) The shrink instant sweeps across the run's first
/// milliseconds so some trials park worker 1 with work in hand; each trial
/// must finish, with every solution, inside the watchdog.
#[test]
fn a_lease_shrinking_inside_a_node_drains_to_the_last_item() {
    use macs::gpi::{CellBlock, GlobalCells, World};
    use macs::runtime::run_parallel_on;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    let prob = Arc::new(queens(10, QueensModel::Pairwise));
    for trial in 0..20u64 {
        let (done, watchdog) = mpsc::channel();
        let job = Arc::clone(&prob);
        // Detached on purpose: a hung trial cannot be joined, only timed out.
        std::thread::spawn(move || {
            let topo = MachineTopology::flat(2);
            let cells = Arc::new(GlobalCells::with_job_blocks(1, 1));
            let block = CellBlock::for_job(0, 1);
            let world = World::leased_on(topo.clone(), LatencyModel::zero(), cells.clone(), block);
            let rt = RuntimeConfig {
                topology: topo,
                seed: 0x1EA5E + trial,
                ..Default::default()
            };
            let root = job.root.as_words().to_vec();
            let report = std::thread::scope(|s| {
                s.spawn(|| {
                    std::thread::sleep(Duration::from_micros(1_500 + 400 * trial));
                    cells.store(block.lease(), 1);
                });
                run_parallel_on(&world, &rt, job.layout.store_words(), &[root], |_| {
                    CpProcessor::new(&job, 0, SearchMode::Exhaustive)
                })
            });
            let solutions: u64 = report.outputs.iter().map(|o| o.solutions).sum();
            let _ = done.send(solutions);
        });
        match watchdog.recv_timeout(Duration::from_secs(15)) {
            Ok(solutions) => assert_eq!(solutions, 724, "trial {trial}: queens-10 truncated"),
            Err(_) => panic!("trial {trial}: no termination 15 s after the lease shrank to 1"),
        }
    }
}
