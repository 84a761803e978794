//! Topology ablation — what the `macs-topo` subsystem buys:
//!
//! 1. **Victim order** (fig4 queens series): flat scan vs. distance-aware
//!    level-by-level scan on a deep machine (nodes × 2 sockets × 4
//!    cores), with steals-by-distance histograms.
//! 2. **Batched remote responses** (fig6-style run at the largest core
//!    count): 1 chunk per response vs. `response_batch` chunks, measured
//!    in remote round trips and items delivered per steal.
//!
//! `--full` extends the series to 512 simulated cores; `--shape 2x2x4:1`
//! overrides the machine shape for part 2. `--xl` re-runs the
//! victim-order cell on the depth-5/6 shapes at 64k cores, where the
//! orders genuinely diverge (at ≤512 cores they are makespan-neutral;
//! at 64k with thin per-worker work, distance-aware pays a measured
//! ~25% makespan for its locality). The gates *pin* that divergence:
//! identical answers, steal mix shifted strictly nearer, and the
//! locality tax bounded at 50% (exit non-zero outside the envelope).

use macs_bench::{
    arg, bound_policy_arg, chunk_policy_arg, core_series, deep_topo_for, maybe_help, qap_size_arg,
    shape_arg, sim_cp_macs, xl_cells, xl_scale,
};
use macs_problems::{qap::QapInstance, qap_model, queens, QueensModel};
use macs_runtime::ScanOrder;
use macs_sim::{CostModel, SimConfig, SimReport};

fn usage_text() -> String {
    macs_bench::usage(
        "topo_ablation",
        "measure what the macs-topo subsystem buys: flat vs\ndistance-aware victim order, then single-chunk vs batched remote\nsteal responses.",
        &[
            ("--n <N>", "queens size for the victim-order series [default: 12]"),
            ("--n2 <N>", "queens size for the batching sweep [default: 14]"),
            ("--qn <N>", "esc16e sub-instance size, 2..=16 [default: 11]"),
        ],
        &[
            macs_bench::CommonFlag::Shape,
            macs_bench::CommonFlag::BoundPolicy,
            macs_bench::CommonFlag::ChunkPolicy,
            macs_bench::CommonFlag::CostModel,
            macs_bench::CommonFlag::DetectTopo,
            macs_bench::CommonFlag::Full,
            macs_bench::CommonFlag::Xl,
        ],
    )
}

fn deep_cfg(cores: usize) -> SimConfig {
    let mut cfg = SimConfig::new(deep_topo_for(cores));
    cfg.costs = CostModel::paper_queens();
    macs_bench::apply_host_overrides(&mut cfg);
    if let Some(p) = bound_policy_arg() {
        cfg.bound_policy = p;
    }
    if let Some(c) = chunk_policy_arg() {
        cfg.steal.chunk_policy = c;
    }
    cfg
}

fn row<O>(label: &str, r: &SimReport<O>) {
    let (ls, lf, rs, rf) = r.steal_totals();
    println!(
        "  {label:<16} {:>9.3} ms  steals L {ls}/{lf}f R {rs}/{rf}f  dist {}",
        r.makespan_ns as f64 / 1e6,
        r.steal_distance_histogram().display()
    );
}

fn main() {
    maybe_help(&usage_text());
    let n: usize = arg("n", 12);
    let prob = queens(n, QueensModel::Pairwise);
    let series = core_series();
    let top = *series.last().unwrap();

    println!("Topology ablation — queens-{n} (simulated)\n");
    println!("== 1. victim order: flat vs distance-aware (nodes x 2 sockets x 4 cores) ==");
    let mut speedups: Vec<(usize, f64, f64)> = Vec::new();
    for &cores in &series {
        println!("{cores} cores:");
        let mut flat = deep_cfg(cores);
        flat.steal.scan_order = ScanOrder::Flat;
        flat.steal.response_batch = 1;
        let rf = sim_cp_macs(&prob, &flat);
        row("flat", &rf);

        let mut aware = deep_cfg(cores);
        aware.steal.scan_order = ScanOrder::DistanceAware;
        aware.steal.response_batch = 1;
        let ra = sim_cp_macs(&prob, &aware);
        row("distance-aware", &ra);
        speedups.push((
            cores,
            rf.makespan_ns as f64 / 1e6,
            ra.makespan_ns as f64 / 1e6,
        ));
    }
    println!("\n  cores   flat(ms)  aware(ms)   aware/flat");
    for (cores, f, a) in &speedups {
        println!("  {cores:>5} {f:>10.3} {a:>10.3} {:>11.3}x", f / a);
    }

    println!("\n== 2. remote responses: 1 chunk vs batched ({top} cores, 5 seeds) ==");
    if chunk_policy_arg().is_some_and(|c| c.is_adaptive()) {
        println!(
            "   NOTE: --chunk-policy adaptive tunes the response batch online,\n\
             so the batch=1/2/4 rows below all run the same adaptive ceiling."
        );
    }
    let topo = shape_arg().unwrap_or_else(|| deep_topo_for(top));
    println!("   machine: {topo}");
    // The fig4 and fig6 workloads at a size where 512 cores still have
    // real work per core (thin replies are exactly the batching target).
    let big_queens = queens(arg("n2", 14), QueensModel::Pairwise);
    let qap_inst = QapInstance::esc16e().sub_instance(qap_size_arg("qn", 11));
    let qap = qap_model(&qap_inst);
    for (name, prob, costs) in [
        ("queens-14", &big_queens, CostModel::paper_queens()),
        (qap_inst.name.as_str(), &qap, CostModel::paper_qap()),
    ] {
        for batch in [1u32, 2, 4] {
            let (mut rtts, mut items, mut ms) = (0u64, 0.0, 0.0);
            let (mut served_t, mut chunks_t, mut multi_t) = (0u64, 0u64, 0u64);
            for seed in 1..=5u64 {
                let mut cfg = SimConfig::new(topo.clone());
                cfg.costs = costs;
                macs_bench::apply_host_overrides(&mut cfg);
                cfg.steal.response_batch = batch;
                cfg.seed = seed;
                if let Some(p) = bound_policy_arg() {
                    cfg.bound_policy = p;
                }
                if let Some(c) = chunk_policy_arg() {
                    cfg.steal.chunk_policy = c;
                }
                let r = sim_cp_macs(prob, &cfg);
                let (served, chunks, multi) = r.response_batching();
                rtts += r.remote_round_trips();
                items += r.items_per_remote_steal();
                ms += r.makespan_ns as f64 / 1e6;
                served_t += served;
                chunks_t += chunks;
                multi_t += multi;
            }
            println!(
                "  {name:<12} batch={batch}: {:>9.3} ms/run  remote round-trips {:>6}  \
                 items/steal {:>5.2}  responses {served_t} (chunks {chunks_t}, multi {multi_t})",
                ms / 5.0,
                rtts,
                items / 5.0,
            );
        }
    }
    if xl_scale() {
        println!("\n== 3. 64k-core depth-5/6 cells (gated) ==");
        let xl_prob = queens(arg("xn", 13), QueensModel::Pairwise);
        let mut ok = true;
        for (name, topo) in xl_cells() {
            println!("{name} ({topo}):");
            let mut flat = SimConfig::new(topo.clone());
            flat.costs = CostModel::paper_queens();
            flat.steal.scan_order = ScanOrder::Flat;
            let rf = sim_cp_macs(&xl_prob, &flat);
            row("flat", &rf);
            let mut aware = SimConfig::new(topo);
            aware.costs = CostModel::paper_queens();
            aware.steal.scan_order = ScanOrder::DistanceAware;
            let ra = sim_cp_macs(&xl_prob, &aware);
            row("distance-aware", &ra);
            if rf.total_items() != ra.total_items() || rf.total_solutions() != ra.total_solutions()
            {
                eprintln!("GATE {name}: victim order changed the answer");
                ok = false;
            }
            // At ≤512 cores the two orders are makespan-neutral; at 64k
            // cores with thin per-worker work they *diverge* — measured:
            // distance-aware pays ~25% makespan for its locality (work
            // is far away, near rings scan empty first). The gates pin
            // that divergence from both sides rather than pretend
            // neutrality survives scale.
            let mean_d = |h: &macs_gpi::StealHistogram| {
                let (mut n, mut sum) = (0u64, 0u64);
                for (d, c) in h.buckets() {
                    n += c;
                    sum += c * d as u64;
                }
                sum as f64 / n.max(1) as f64
            };
            let (df, da) = (
                mean_d(&rf.steal_distance_histogram()),
                mean_d(&ra.steal_distance_histogram()),
            );
            println!(
                "  aware/flat makespan {:.3}x, mean steal distance {df:.2} -> {da:.2}",
                ra.makespan_ns as f64 / rf.makespan_ns.max(1) as f64
            );
            if da >= df {
                eprintln!(
                    "GATE {name}: distance-aware did not shift steals nearer \
                     (mean distance {da:.2} !< {df:.2})"
                );
                ok = false;
            }
            if ra.makespan_ns as f64 > rf.makespan_ns as f64 * 1.5 {
                eprintln!(
                    "GATE {name}: distance-aware {:.3} ms is >50% slower than flat {:.3} ms — \
                     the locality tax grew past its pinned envelope",
                    ra.makespan_ns as f64 / 1e6,
                    rf.makespan_ns as f64 / 1e6
                );
                ok = false;
            }
            let (_, _, rs, _) = ra.steal_totals();
            if rs == 0 {
                eprintln!("GATE {name}: no remote steals at 64k cores — the cell measured nothing");
                ok = false;
            }
        }
        if !ok {
            eprintln!("topo_ablation --xl FAILED");
            std::process::exit(1);
        }
        println!("  xl gates passed");
    }

    println!(
        "\nExpected shape: distance-aware no worse than flat at paper scales\n\
         (at 64k cores it pays a pinned locality tax instead), with the steal mix\n\
         shifted to the near rings; moderate batching (2 pools, thin replies\n\
         only) cuts remote round-trips on the optimisation workload where\n\
         replies are thin, is schedule-noise-neutral on queens enumeration,\n\
         and aggressive batching over-exports and gives the savings back."
    );
}
