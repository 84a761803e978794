//! calibrate — measure this host's protocol latencies and emit a
//! [`CostModel`] file the simulator can load.
//!
//! The simulator's virtual-time constants were invented to match the
//! paper's testbed class; this bin replaces them with *measured* values
//! for the machine it runs on:
//!
//! * `node` — wall time per store of a sequential queens solve (the same
//!   propagate + split cycle the simulator charges per item), with the
//!   observed run-to-run spread as the jitter percentage;
//! * `pool_op_ns` / `release_ns` — `SplitPool` push/pop and
//!   release/reacquire micro-loops on a pinned core;
//! * `steal_local_ns` / `per_item_ns` / `cross_level_ns` — steal round
//!   trips between core pairs pinned at each topological distance of the
//!   detected machine: the chunk-1 latency at distance 1 is the local
//!   steal cost, the chunk-16 slope is the per-item copy cost, and the
//!   extra latency per additional level crossed is the cross-level
//!   premium;
//! * `poll_ns` — uncontended atomic mailbox check;
//! * `post_request_ns` / `write_response_ns` — one-way cache-line
//!   hand-off cost from an atomic ping-pong between the most / least
//!   distant core pair.
//!
//! The *fabric* costs (`find_remote_ns`, `remote_latency_ns`,
//! `level_hop_factor`, `byte_ps`, `ctrl_bytes`, `header_bytes`) and the
//! idle backoff keep their defaults: a single host is one node
//! (`node_prefix` 0), so no simulated steal ever crosses the fabric and
//! those keys are inert until the model is edited for a real cluster.
//!
//! Every measurement is the median of `--runs` repetitions. `--flat`
//! skips sysfs detection (the flat fallback path CI exercises);
//! `--quick` shrinks the loops for smoke use.

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use macs_bench::{arg, maybe_help};
use macs_core::{solve_seq, SeqOptions};
use macs_pool::SplitPool;
use macs_problems::{queens, QueensModel};
use macs_runtime::{pin_current_thread, DetectedMachine};
use macs_sim::{CostModel, NodeCost};

fn usage_text() -> String {
    macs_bench::usage(
        "calibrate",
        "measure this host's steal/propagation latencies on the detected\ntopology and emit a `macs-cost-model v1` file for the simulator.",
        &[
            (
                "--out <path>",
                "where to write the model [default: calibrated.cost]",
            ),
            (
                "--runs <R>",
                "repetitions per measurement, median taken [default: 5;\n3 with --quick]",
            ),
            (
                "--flat",
                "skip sysfs topology detection and calibrate on the flat\nfallback (all cores one level)",
            ),
            ("--quick", "shrink the measurement loops for CI smoke use"),
        ],
        &[],
    )
}

fn median(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Per-store wall time of a sequential queens solve, plus the
/// run-to-run spread as a jitter percentage (capped at the codec's 100).
fn measure_node(runs: usize, quick: bool) -> NodeCost {
    let prob = queens(if quick { 8 } else { 10 }, QueensModel::Pairwise);
    let opts = SeqOptions::default();
    solve_seq(&prob, &opts); // warm-up: faults the arena in
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t0 = Instant::now();
        let r = solve_seq(&prob, &opts);
        samples.push((t0.elapsed().as_nanos() as u64 / r.nodes.max(1)).max(1));
    }
    let ns = median(samples.clone());
    let spread = samples.iter().max().unwrap() - samples.iter().min().unwrap();
    let jitter_pct = ((100 * spread / (2 * ns)).min(100) as u8).max(1);
    NodeCost { ns, jitter_pct }
}

/// Median ns per pool push/pop pair (halved: one pointer operation).
fn measure_pool_op(runs: usize, iters: u64) -> u64 {
    let pool = SplitPool::new(1024, 2);
    let mut buf = [0u64; 2];
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t0 = Instant::now();
        for i in 0..iters {
            pool.push(&[i, i]);
            pool.pop_private(&mut buf);
            black_box(&buf);
        }
        samples.push((t0.elapsed().as_nanos() as u64 / (2 * iters)).max(1));
    }
    median(samples)
}

/// Median ns per release/reacquire pair (halved: one split-pointer move).
fn measure_release(runs: usize, iters: u64) -> u64 {
    let pool = SplitPool::new(1024, 2);
    for i in 0..64u64 {
        pool.push(&[i, i]);
    }
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(pool.release(1));
            black_box(pool.reacquire(1));
        }
        samples.push((t0.elapsed().as_nanos() as u64 / (2 * iters)).max(1));
    }
    median(samples)
}

/// Median ns per steal call of `chunk` items, thief pinned to `cpu_t`
/// stealing from a pool whose cache lines a victim pinned to `cpu_v`
/// keeps refilling. The victim fills and releases a batch, hands the
/// turn over, and the thief drains it with timed `steal` calls.
fn measure_steal(cpu_v: u32, cpu_t: u32, chunk: u64, rounds: u64, batch: u64) -> u64 {
    let pool = SplitPool::new(4096, 2);
    let turn = AtomicU64::new(0); // even = victim's turn, odd = thief's
    std::thread::scope(|s| {
        s.spawn(|| {
            pin_current_thread(cpu_v);
            for r in 0..rounds {
                while turn.load(Ordering::Acquire) != 2 * r {
                    std::hint::spin_loop();
                }
                for i in 0..batch {
                    pool.push(&[r, i]);
                }
                pool.release(batch);
                turn.store(2 * r + 1, Ordering::Release);
            }
        });
        let thief = s.spawn(|| {
            pin_current_thread(cpu_t);
            let mut total_ns = 0u64;
            let mut calls = 0u64;
            for r in 0..rounds {
                while turn.load(Ordering::Acquire) != 2 * r + 1 {
                    std::hint::spin_loop();
                }
                let mut got = 0;
                let t0 = Instant::now();
                while got < batch {
                    got += pool.steal(chunk, |item| {
                        black_box(item);
                    });
                    calls += 1;
                }
                total_ns += t0.elapsed().as_nanos() as u64;
                turn.store(2 * r + 2, Ordering::Release);
            }
            (total_ns / calls.max(1)).max(1)
        });
        thief.join().expect("thief thread")
    })
}

/// Median ns per uncontended atomic load (the mailbox poll).
fn measure_poll(runs: usize, iters: u64) -> u64 {
    let mailbox = AtomicU64::new(0);
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(mailbox.load(Ordering::Acquire));
        }
        samples.push((t0.elapsed().as_nanos() as u64 / iters).max(1));
    }
    median(samples)
}

/// One-way cache-line hand-off ns between two pinned cores: half the
/// round-trip time of an atomic ping-pong.
fn measure_pingpong(cpu_a: u32, cpu_b: u32, rounds: u64) -> u64 {
    let flag = AtomicU64::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            pin_current_thread(cpu_b);
            for r in 0..rounds {
                while flag.load(Ordering::Acquire) != 2 * r + 1 {
                    std::hint::spin_loop();
                }
                flag.store(2 * r + 2, Ordering::Release);
            }
        });
        let a = s.spawn(|| {
            pin_current_thread(cpu_a);
            let t0 = Instant::now();
            for r in 0..rounds {
                flag.store(2 * r + 1, Ordering::Release);
                while flag.load(Ordering::Acquire) != 2 * r + 2 {
                    std::hint::spin_loop();
                }
            }
            (t0.elapsed().as_nanos() as u64 / (2 * rounds)).max(1)
        });
        a.join().expect("ping thread")
    })
}

/// The first worker at topological distance `d` from worker 0, if any.
fn peer_at(machine: &DetectedMachine, d: usize) -> Option<usize> {
    (1..machine.topo.total_workers()).find(|&w| machine.topo.distance(0, w) == d)
}

fn main() {
    maybe_help(&usage_text());
    let quick = std::env::args().any(|a| a == "--quick");
    let flat = std::env::args().any(|a| a == "--flat");
    let out: PathBuf = PathBuf::from(arg("out", "calibrated.cost".to_string()));
    let runs: usize = arg("runs", if quick { 3 } else { 5 });
    let iters: u64 = if quick { 20_000 } else { 200_000 };
    let rounds: u64 = if quick { 200 } else { 1_000 };

    let machine = if flat {
        println!("topology: flat fallback (--flat)");
        DetectedMachine::flat_fallback()
    } else {
        match macs_runtime::detect_machine() {
            Ok(m) => m,
            Err(e) => {
                println!("topology: detection failed ({e}); using the flat fallback");
                DetectedMachine::flat_fallback()
            }
        }
    };
    let shape: Vec<String> = machine.topo.shape().iter().map(|e| e.to_string()).collect();
    println!(
        "topology: shape {} ({} cores), cpu map {:?}",
        shape.join("x"),
        machine.topo.total_workers(),
        machine.cpus,
    );

    let defaults = CostModel::default();
    let mut model = defaults;

    // Serial measurements, pinned so they describe one core.
    pin_current_thread(machine.cpus[0]);
    model.node = measure_node(runs, quick);
    model.pool_op_ns = measure_pool_op(runs, iters);
    model.release_ns = measure_release(runs, iters);
    model.poll_ns = measure_poll(runs, iters);

    // Steal latency per topological distance (needs a second core).
    let levels = machine.topo.levels();
    if let Some(near) = peer_at(&machine, 1) {
        let (cpu_v, cpu_near) = (machine.cpus[0], machine.cpus[near]);
        let t1: Vec<u64> = (0..runs)
            .map(|_| measure_steal(cpu_v, cpu_near, 1, rounds, 256))
            .collect();
        let t16: Vec<u64> = (0..runs)
            .map(|_| measure_steal(cpu_v, cpu_near, 16, rounds, 256))
            .collect();
        let t1 = median(t1);
        let t16 = median(t16);
        model.per_item_ns = (t16.saturating_sub(t1) / 15).max(1);
        model.steal_local_ns = t1.max(1);

        // Premium per extra level crossed: slope of the chunk-1 steal
        // latency over distance, median across the far rings.
        let mut slopes = Vec::new();
        for d in 2..=levels {
            if let Some(far) = peer_at(&machine, d) {
                let td: Vec<u64> = (0..runs)
                    .map(|_| measure_steal(cpu_v, machine.cpus[far], 1, rounds, 256))
                    .collect();
                slopes.push(median(td).saturating_sub(t1) / (d as u64 - 1));
            }
        }
        if !slopes.is_empty() {
            model.cross_level_ns = median(slopes).max(1);
        }

        // One-way hand-off: nearest pair prices the victim's response
        // write, the most distant pair the thief's request CAS.
        let resp: Vec<u64> = (0..runs)
            .map(|_| measure_pingpong(cpu_v, cpu_near, rounds))
            .collect();
        model.write_response_ns = median(resp);
        let far = (2..=levels).rev().find_map(|d| peer_at(&machine, d));
        let post: Vec<u64> = (0..runs)
            .map(|_| measure_pingpong(cpu_v, machine.cpus[far.unwrap_or(near)], rounds))
            .collect();
        model.post_request_ns = median(post);
    } else {
        println!("single core: keeping default steal/hand-off costs");
    }

    println!("\n{:<18} {:>10} {:>10}", "key", "default", "measured");
    let node_row = |n: NodeCost| format!("fixed:{},{}", n.ns, n.jitter_pct);
    println!(
        "{:<18} {:>10} {:>10}",
        "node",
        node_row(defaults.node),
        node_row(model.node)
    );
    for (key, old, new) in [
        ("pool_op_ns", defaults.pool_op_ns, model.pool_op_ns),
        ("release_ns", defaults.release_ns, model.release_ns),
        (
            "steal_local_ns",
            defaults.steal_local_ns,
            model.steal_local_ns,
        ),
        ("per_item_ns", defaults.per_item_ns, model.per_item_ns),
        ("poll_ns", defaults.poll_ns, model.poll_ns),
        (
            "post_request_ns",
            defaults.post_request_ns,
            model.post_request_ns,
        ),
        (
            "write_response_ns",
            defaults.write_response_ns,
            model.write_response_ns,
        ),
        (
            "cross_level_ns",
            defaults.cross_level_ns,
            model.cross_level_ns,
        ),
    ] {
        println!("{key:<18} {old:>10} {new:>10}");
    }
    println!(
        "fabric keys (find_remote/remote_latency/level_hop/byte_ps/\nctrl/header) and idle backoff keep defaults: one host is one\nnode, nothing crosses the fabric."
    );

    if let Err(e) = model.save(&out) {
        eprintln!("{e}");
        std::process::exit(1);
    }
    println!("\nwrote {}", out.display());
}
