//! `service_mix`: many small jobs through the multi-tenant solve service.
//! Per-job thread spawn/join, lease handshakes and scheduler decisions
//! matter here and nowhere else.
//!
//! The batch is a 25-job trace over the service's four-class zoo, all
//! released at t = 0. The legs: every job solved back to back by the
//! sequential oracle (`seq_solve_s`: what the jobs cost with no service),
//! the trace drained by the threaded service on one core
//! (`macs_w1_solve_s`), and drained by the simulated service on 32 × 4
//! virtual cores (`macs_wN_solve_s`, host time — as on `sim_scale`).
//!
//! The threaded drain on `W` one-core nodes is a per-layer row, not a
//! leg: `macs-service` leaves its job workers unpinned, and on the host
//! this was written on the kernel keeps two co-running jobs on one CPU for
//! an hour (the drain then takes as long as on one node) and on two for
//! the next (0.55 of it). A leg that flips by 85 % between two sets of
//! the same binary cannot be gated.

use std::cell::RefCell;
use std::time::Instant;

use macs::engine::seq::{solve_seq, SeqOptions};
use macs::service::workload::SplitMix64;
use macs::service::{
    generate, Action, JobAnswer, JobScheduler, JobSpec, LeasePolicy, Oracle, SchedCore,
    ServiceConfig, ServiceReport, SimBackend, ThreadedBackend, WorkloadConfig, NUM_CLASSES,
};

use crate::stats::{highest_supported_percentile, lower_quartile, percentile};
use crate::workloads::{
    measure, ns_per_op, setup_leg, span_cost_share, spawn_join_ms, Ctx, Leg, Metrics,
};

/// Jobs in the drained trace.
pub const JOBS: usize = 25;
/// Threaded drains on `W` nodes in a traced run.
const DRAIN_REPS: usize = 11;
/// Class mix in percent (queens-8, golomb-7, myciel3-k4, esc16e-9): the
/// shares the service's own log-normal generator draws in expectation,
/// made exact so two seeds carry the same total work.
const CLASS_PERCENT: [usize; NUM_CLASSES] = [36, 32, 24, 8];

/// A trace of `jobs` jobs with the exact class mix. The class *order* is
/// one fixed shuffle: which jobs overlap decides the process's peak
/// memory and the drain's tail, so a seeded order would move both by more
/// than any change under test. `seed` draws the exponential inter-arrival
/// gaps (mean `mean_gap_ns`; 0 releases everything at t = 0), the tenants
/// and the per-job solver seeds.
pub fn trace(seed: u64, jobs: usize, mean_gap_ns: u64) -> Vec<JobSpec> {
    let mut order = SplitMix64(0x5E2F_1CE0_B16B_00B5);
    let mut rng = SplitMix64(seed ^ 0x0DDB_A115_EED5_0001);
    let mut classes: Vec<usize> = (0..jobs)
        .map(|i| {
            let pct = i * 100 / jobs;
            let mut edge = 0;
            CLASS_PERCENT
                .iter()
                .position(|share| {
                    edge += share;
                    pct < edge
                })
                .expect("shares sum to 100")
        })
        .collect();
    for i in (1..classes.len()).rev() {
        classes.swap(i, (order.next_u64() % (i as u64 + 1)) as usize);
    }
    let mut t = 0u64;
    classes
        .into_iter()
        .enumerate()
        .map(|(id, class)| {
            t += (-rng.next_unit().ln() * mean_gap_ns as f64) as u64;
            JobSpec {
                id: id as u64,
                tenant: (rng.next_u64() % 8) as usize,
                class,
                arrival_ns: t,
                seed: rng.next_u64() | 1,
            }
        })
        .collect()
}

/// An elastic service of `nodes` × `cores_per_node` cores whose queue
/// holds `queue_cap` jobs.
fn service(nodes: usize, cores_per_node: usize, queue_cap: usize) -> ServiceConfig {
    ServiceConfig {
        queue_cap,
        policy: LeasePolicy::QueueDepth { min: 1, max: nodes },
        ..ServiceConfig::new(nodes, cores_per_node)
    }
}

/// The simulated machine of the `wN` leg: 32 nodes × 4 cores.
const SIM_NODES: usize = 32;
const SIM_CORES_PER_NODE: usize = 4;

/// Check every job of a served trace: oracle agreement, no
/// scheduler-invariant violation, and — unless the queue was sized to
/// refuse some (`rejections_expected`) — no rejection.
fn verify_report(
    ctx: &mut Ctx,
    oracle: &RefCell<Oracle>,
    report: &ServiceReport,
    rejections_expected: bool,
    what: &str,
) {
    for rec in &report.records {
        if rec.rejected && rejections_expected {
            continue;
        }
        ctx.ops.check(if rec.rejected {
            Err(format!("{what}: job {} unexpectedly rejected", rec.id))
        } else {
            oracle
                .borrow_mut()
                .verify(rec.class, &rec.answer)
                .map_err(|why| format!("{what}: job {}: {why}", rec.id))
        });
    }
    for v in &report.violations {
        ctx.ops
            .check(Err(format!("{what}: scheduler violation: {v}")));
    }
}

/// Serve `jobs` on the threaded backend with `nodes` one-core nodes and
/// a queue that holds them all; returns wall seconds and the report.
fn serve_threaded(
    ctx: &mut Ctx,
    oracle: &RefCell<Oracle>,
    nodes: usize,
    jobs: &[JobSpec],
    what: &str,
) -> (f64, ServiceReport) {
    let nodes = ctx
        .host
        .worker_budget(nodes)
        .expect("nodes ≤ W by construction");
    let cfg = service(nodes, 1, jobs.len());
    let t0 = Instant::now();
    let report = ThreadedBackend { time_scale: 1 }.serve(&cfg, jobs);
    let secs = t0.elapsed().as_secs_f64();
    verify_report(ctx, oracle, &report, false, what);
    (secs, report)
}

/// Serve `jobs` on the simulated backend, on one thread pinned to the
/// first core; returns host seconds and the report (virtual time).
fn serve_simulated(
    ctx: &mut Ctx,
    oracle: &RefCell<Oracle>,
    cfg: &ServiceConfig,
    jobs: &[JobSpec],
    what: &str,
) -> (f64, ServiceReport) {
    let seed = ctx.seed;
    let (secs, report) = ctx.host.on_first_core(|| {
        let t0 = Instant::now();
        let report = SimBackend { seed }.serve(cfg, jobs);
        (t0.elapsed().as_secs_f64(), report)
    });
    verify_report(ctx, oracle, &report, cfg.queue_cap < jobs.len(), what);
    (secs, report)
}

pub fn run(ctx: &mut Ctx) -> Metrics {
    let host = ctx.host.clone();
    let w = host.w();
    let seed = ctx.seed;
    let build = || {
        let mut oracle = Oracle::new();
        for class in 0..NUM_CLASSES {
            oracle.answer(class);
        }
        (oracle, trace(seed, JOBS, 0))
    };
    let (oracle, jobs) = build();
    // The legs take turns with the oracle (its lookups cache, so `&mut`).
    let oracle = RefCell::new(oracle);

    let sim_drain = service(SIM_NODES, SIM_CORES_PER_NODE, JOBS);
    let mut m = {
        let (oracle, jobs) = (&oracle, &jobs);
        let mut legs = [
            setup_leg(build),
            Leg {
                name: "seq_solve_s",
                run: Box::new(|ctx, _| {
                    let mut oracle = oracle.borrow_mut();
                    let oracle = &mut *oracle;
                    ctx.host.clone().on_first_core(|| {
                        let mut secs = 0.0;
                        for job in jobs {
                            let t0 = Instant::now();
                            let r = solve_seq(oracle.problem(job.class), &SeqOptions::default());
                            secs += t0.elapsed().as_secs_f64();
                            let answer = JobAnswer {
                                solutions: r.solutions,
                                nodes: r.nodes,
                                best_cost: r.best_cost,
                            };
                            ctx.ops.check(
                                oracle
                                    .verify(job.class, &answer)
                                    .map_err(|why| format!("solve_seq: job {}: {why}", job.id)),
                            );
                        }
                        secs
                    })
                }),
            },
            Leg {
                name: "macs_w1_solve_s",
                run: Box::new(|ctx, _| serve_threaded(ctx, oracle, 1, jobs, "drain w1").0),
            },
            Leg {
                name: "macs_wN_solve_s",
                run: Box::new(|ctx, _| {
                    serve_simulated(ctx, oracle, &sim_drain, jobs, "simulated drain").0
                }),
            },
        ];
        measure(ctx, &mut legs)
    };
    ctx.note("service.jobs", JOBS as f64);
    if !ctx.traced() {
        return m;
    }

    // --- per-layer rows --------------------------------------------------
    // The threaded drain on W one-core nodes (see the module header for
    // why it is here and not a leg), and how it compares with one node.
    let mut drain_s = Vec::new();
    let mut drain = None;
    for _ in 0..DRAIN_REPS {
        ctx.tracer.enter("threaded_drain_wN");
        let (secs, report) = serve_threaded(ctx, &oracle, w, &jobs, "drain wN");
        ctx.tracer.exit();
        drain_s.push(secs);
        drain = Some(report);
    }
    let drain = drain.expect("DRAIN_REPS > 0");
    let drain_s = lower_quartile(&drain_s).expect("DRAIN_REPS > 0");
    m.insert("service.drain_jobs_per_s".into(), JOBS as f64 / drain_s);
    if w >= 2 {
        m.insert(
            "service.drain_wN_vs_w1".into(),
            drain_s / m["macs_w1_solve_s"],
        );
    }
    m.insert(
        "service.max_queue_depth".into(),
        drain.max_queue_depth as f64,
    );
    m.insert(
        "service.resizes".into(),
        drain.records.iter().map(|r| f64::from(r.resizes)).sum(),
    );
    m.insert("runtime.spawn_join_ms".into(), spawn_join_ms(ctx));
    m.insert(
        "problems.compile_ms".into(),
        ns_per_op(5, || {
            for class in 0..NUM_CLASSES {
                std::hint::black_box(macs::service::workload::build_class(class));
            }
            1
        }) / 1e6,
    );
    m.insert(
        "service.sched_ns_per_action".into(),
        sched_ns_per_action(&jobs, w),
    );

    // The smallest class alone on an idle service: the per-job floor.
    let floor: Vec<f64> = (0..21)
        .map(|i| {
            let one = [JobSpec {
                id: 0,
                tenant: 0,
                class: 0,
                arrival_ns: 0,
                seed: seed + i,
            }];
            serve_threaded(ctx, &oracle, w, &one, "job floor").0 * 1e3
        })
        .collect();
    m.insert(
        "service.job_floor_ms".into(),
        lower_quartile(&floor).expect("21 samples"),
    );

    // Open loop at two fixed rates: jobs are due on a Poisson schedule
    // whatever the service does; sojourn runs from the due instant.
    for (rate, n) in [(50u64, 150usize), (100, 300)] {
        ctx.tracer.enter("open_loop");
        let jobs = trace(seed ^ rate, n, 1_000_000_000 / rate);
        let (_, report) = serve_threaded(ctx, &oracle, w, &jobs, "open loop");
        ctx.tracer.exit();
        assert!(
            highest_supported_percentile(n) >= Some(90.0),
            "a p90 needs ten samples beyond it"
        );
        for p in [50.0, 90.0] {
            m.insert(
                format!("service.open{rate}_sojourn_p{p}_ms"),
                report.sojourn_percentile_ns(p) as f64 / 1e6,
            );
        }
        if rate == 50 {
            // Due → dispatched: generator lateness plus queueing (the two
            // are not separable from outside `serve`).
            let waits: Vec<f64> = report
                .records
                .iter()
                .map(|r| r.wait_ns() as f64 / 1e6)
                .collect();
            m.insert(
                "service.open50_wait_p90_ms".into(),
                percentile(&waits, 90.0).expect("jobs ran"),
            );
        }
    }

    // The simulated service under load: 128 nodes × 4 cores, 64 tenants,
    // elastic leases, a queue that refuses. Virtual time, bit-exact for a
    // given seed.
    let sim_cfg = service(128, 4, 24);
    let sim_jobs = generate(&WorkloadConfig {
        jobs: 96,
        tenants: 64,
        mean_interarrival_ns: 5_000,
        seed,
    });
    let sim_run = |ctx: &mut Ctx| {
        ctx.tracer.enter("sim_backend");
        let (_, report) = serve_simulated(ctx, &oracle, &sim_cfg, &sim_jobs, "simulated service");
        ctx.tracer.exit();
        report
    };
    let (sim, again) = (sim_run(ctx), sim_run(ctx));
    ctx.ops.check_eq(
        "simulated service: same-seed digest",
        again.digest(),
        sim.digest(),
    );
    m.insert(
        "service.sim_digest_stable".into(),
        f64::from(u8::from(sim.digest() == again.digest())),
    );
    m.insert(
        "service.sim_sojourn_p90_ms".into(),
        sim.sojourn_percentile_ns(90.0) as f64 / 1e6,
    );
    m.insert("service.sim_rejected_share".into(), sim.rejection_rate());
    m.insert("trace.overhead_share".into(), span_cost_share(ctx));
    m
}

/// ns per scheduler decision: `SchedCore::arrive` for the whole trace,
/// then `complete` for every job in start order, driven directly with no
/// backend underneath.
fn sched_ns_per_action(jobs: &[JobSpec], nodes: usize) -> f64 {
    ns_per_op(21, || {
        let mut core = SchedCore::new(service(nodes, 1, jobs.len()));
        let mut running = std::collections::VecDeque::new();
        let mut calls = 0u64;
        let note = |actions: Vec<Action>, running: &mut std::collections::VecDeque<u64>| {
            for a in actions {
                if let Action::Start { job, .. } = a {
                    running.push_back(job.id);
                }
            }
        };
        for job in jobs {
            let actions = core.arrive(*job);
            note(actions, &mut running);
            calls += 1;
        }
        while let Some(id) = running.pop_front() {
            let actions = core.complete(id);
            note(actions, &mut running);
            calls += 1;
        }
        assert!(core.drained() && core.violations.is_empty());
        calls
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_a_pure_function_of_the_seed_with_an_exact_mix() {
        let a = trace(1, JOBS, 0);
        assert_eq!(a, trace(1, JOBS, 0));
        let b = trace(2, JOBS, 0);
        assert_ne!(a, b, "tenants and solver seeds follow the seed");
        assert!(
            a.iter().zip(&b).all(|(x, y)| x.class == y.class),
            "class order is fixed"
        );
        for seed in [1, 2, 3] {
            let mut counts = [0usize; NUM_CLASSES];
            for j in trace(seed, JOBS, 0) {
                counts[j.class] += 1;
                assert_eq!(j.arrival_ns, 0);
            }
            assert_eq!(counts, [9, 8, 6, 2], "seed {seed}");
        }
        let open = trace(1, 150, 20_000_000);
        assert!(open.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        let span_s = open.last().unwrap().arrival_ns as f64 / 1e9;
        assert!(
            (2.0..4.5).contains(&span_s),
            "150 jobs at 50/s span ≈ 3 s, got {span_s}"
        );
    }

    #[test]
    fn scheduler_micro_loop_drains() {
        assert!(sched_ns_per_action(&trace(1, 40, 0), 2) > 0.0);
    }
}
