//! The five workloads and what they share: the run context, operation
//! accounting, the set-up and measurement loops.
//!
//! Every workload is a fixed batch of work pushed through three *legs*:
//! the plain sequential path (`seq_solve_s`), the system under test at
//! width one (`macs_w1_solve_s`) and at full width (`macs_wN_solve_s`).
//! What "the system" and "width" are differs per workload; the binding
//! table is in `spec.rs` and the README.

pub mod cp;
pub mod service_mix;
pub mod sim_scale;
pub mod uts;

use std::collections::BTreeMap;
use std::time::Instant;

use macs::engine::Model;
use macs::runtime::{RunReport, RuntimeConfig, WorkerState, NUM_STATES};
use macs::solver::{solve_parallel, SolverConfig};

use crate::host::Host;
use crate::ladder;
use crate::stats::{highest_supported_percentile, lower_quartile, median, percentile, quartiles};
use crate::trace::Tracer;

/// Answers checked against the oracle: one op is one solve, one
/// simulated cell or one served job.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Count one operation; `verdict` is `Err(why)` when its answer is
    /// wrong (printed as it happens).
    pub fn check(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            eprintln!("FAILED OP: {why}");
        }
    }

    /// `check` for a plain equality.
    pub fn check_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        self.check(if got == want {
            Ok(())
        } else {
            Err(format!("{what}: got {got:?}, oracle says {want:?}"))
        });
    }
}

/// Everything one workload run needs.
pub struct Ctx {
    /// When the run began (set-up included).
    pub started: Instant,
    pub host: Host,
    pub seed: u64,
    /// Length of the measuring window in seconds.
    pub seconds: f64,
    /// Whether the first round is an untimed warm-up (`--quick` skips it).
    pub warm_up: bool,
    pub tracer: Tracer,
    pub ops: Ops,
    /// Extra facts for `out/` and the console (host time vs simulated
    /// time, sample counts, node counts).
    pub notes: BTreeMap<String, f64>,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    pub fn note(&mut self, key: &str, value: f64) {
        self.notes.insert(key.to_string(), value);
    }

    /// Runtime configuration for `workers` pinned workers in measurement
    /// round `round`: the run seed, varied per round.
    pub fn runtime(&self, workers: usize, round: u64) -> RuntimeConfig {
        self.host
            .runtime(workers, self.seed.wrapping_mul(1_000).wrapping_add(round))
            .expect("at most W workers are ever asked for")
    }
}

/// Run a benchmark-owned per-node loop twice on the first core — without
/// spans, then with (its spans land in `ctx.tracer` under `traced_dfs`).
/// Returns both results and the with/without difference as a share of
/// the plain wall time: `trace.overhead_share`.
pub fn with_and_without_spans<T: Send>(
    ctx: &mut Ctx,
    dfs: impl Fn(&mut Tracer) -> (f64, T) + Sync,
) -> ([T; 2], f64) {
    let mut off = Tracer::new(false, 0);
    let (plain_s, plain) = ctx.host.on_first_core(|| dfs(&mut off));
    ctx.tracer.enter("traced_dfs");
    let (traced_s, traced) = ctx.host.on_first_core(|| dfs(&mut ctx.tracer));
    ctx.tracer.exit();
    ([plain, traced], (traced_s - plain_s) / plain_s)
}

/// The `pool.*` and `topo.*` rows at item width `slot_words`; returns the
/// push/pop cost for the caller's ladder sum.
pub fn pool_rows(ctx: &Ctx, slot_words: usize, m: &mut Metrics) -> f64 {
    let host = &ctx.host;
    let w = host.w();
    let (pool, victim_pick_ns) =
        host.on_first_core(|| (ladder::pool_ladder(slot_words), ladder::victim_pick_ns(w)));
    m.insert("pool.push_pop_ns".into(), pool.push_pop_ns);
    m.insert(
        "pool.release_reacquire_ns".into(),
        pool.release_reacquire_ns,
    );
    // Steals and victim picks need a second core; not measured without.
    if let [victim, thief, ..] = host.cpus[..w] {
        for (name, chunk) in [("pool.steal_ns_chunk1", 1), ("pool.steal_ns_chunk16", 16)] {
            m.insert(
                name.into(),
                ladder::steal_ns(victim, thief, slot_words, chunk),
            );
        }
        m.insert("topo.victim_pick_ns".into(), victim_pick_ns);
    }
    pool.push_pop_ns
}

/// Tracing overhead for workloads with no per-node DFS to run twice:
/// spans closed × the measured cost of one span ÷ the run's wall time so
/// far. Computed, not a with/without difference.
pub fn span_cost_share(ctx: &Ctx) -> f64 {
    let mut probe = Tracer::new(true, 0);
    let span_ns = ns_per_op(5, || {
        for _ in 0..100_000 {
            probe.enter("probe");
            probe.exit();
        }
        100_000
    });
    ctx.tracer.closed() as f64 * span_ns / (ctx.started.elapsed().as_nanos() as f64)
}

/// Named metric values produced by a run.
pub type Metrics = BTreeMap<String, f64>;

/// One timed piece of the workload's round. `run` does the work, verifies
/// every answer through `ctx.ops`, and returns the wall seconds to report
/// (verification excluded).
pub struct Leg<'a> {
    /// The end-to-end metric this leg is, or a part of one (`sim_scale`
    /// times every simulated cell as a leg of its own and adds them up).
    pub name: &'static str,
    pub run: LegFn<'a>,
}

/// The workload's set-up as one more leg of every round (`setup_s`):
/// `build` is run again and timed. Sampled across the whole window like
/// the other legs — sampled only at the start of the run, it moved by a
/// sixth between two ten-run sets of the same binary.
pub fn setup_leg<'a, T>(build: impl Fn() -> T + 'a) -> Leg<'a> {
    Leg {
        name: "setup_s",
        run: Box::new(move |_, _| {
            let t0 = Instant::now();
            std::hint::black_box(build());
            t0.elapsed().as_secs_f64()
        }),
    }
}

/// `(ctx, round) → seconds`.
pub type LegFn<'a> = Box<dyn FnMut(&mut Ctx, u64) -> f64 + 'a>;

/// Share of the window a traced run measures for: enough rounds for the
/// per-layer rows, and time left for the ladder and the traced DFS.
const TRACED_WINDOW_SHARE: f64 = 0.25;

/// The closed measurement loop with one client: rounds of every leg in
/// turn, the next starting when the previous returned. The first round is
/// an untimed warm-up (answers still checked; `--quick` skips it); rounds
/// then repeat until the next would overrun the window (`ctx.seconds`,
/// counted from entry, warm-up included; a quarter of it when traced),
/// with at least one measured round. Each leg runs under a span.
///
/// Returns the time of every leg ([`lower_quartile`] of its samples) as
/// `name → seconds`; the sample count, the median, the upper quartile and
/// the highest supported tail percentile are noted under `samples.` /
/// `median.` / `q3.` / `p<N>.<name>`.
pub fn measure(ctx: &mut Ctx, legs: &mut [Leg<'_>]) -> Metrics {
    let window = Instant::now();
    let budget = if ctx.traced() {
        ctx.seconds * TRACED_WINDOW_SHARE
    } else {
        ctx.seconds
    };
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); legs.len()];
    let first_measured = u64::from(ctx.warm_up);
    let mut longest_round = 0.0f64;
    let mut round = 0u64;
    loop {
        let t0 = Instant::now();
        for (leg, out) in legs.iter_mut().zip(&mut samples) {
            ctx.tracer.enter(leg.name);
            let secs = (leg.run)(ctx, round);
            ctx.tracer.exit();
            if round >= first_measured {
                out.push(secs);
            }
        }
        longest_round = longest_round.max(t0.elapsed().as_secs_f64());
        round += 1;
        if round > first_measured && window.elapsed().as_secs_f64() + longest_round > budget {
            break;
        }
    }
    let mut out = Metrics::new();
    for (leg, secs) in legs.iter().zip(&samples) {
        let name = leg.name;
        out.insert(
            name.to_string(),
            lower_quartile(secs).expect("at least one measured round"),
        );
        ctx.note(&format!("samples.{name}"), secs.len() as f64);
        ctx.note(
            &format!("median.{name}"),
            median(secs).expect("at least one measured round"),
        );
        // How disturbed the run was: a quiet host keeps the upper quartile
        // within a few percent of the median.
        if let Some([_, _, q3]) = quartiles(secs) {
            ctx.note(&format!("q3.{name}"), q3);
        }
        if let Some(p) = highest_supported_percentile(secs.len()).filter(|p| *p > 50.0) {
            ctx.note(
                &format!("p{p}.{name}"),
                percentile(secs, p).expect("at least one measured round"),
            );
        }
    }
    out
}

/// Nanoseconds per operation ([`lower_quartile`] of `reps` batches);
/// `batch` runs one batch and returns how many operations it did.
pub fn ns_per_op(reps: usize, mut batch: impl FnMut() -> u64) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        let n = batch();
        samples.push(t0.elapsed().as_nanos() as f64 / n.max(1) as f64);
    }
    lower_quartile(&samples).unwrap_or(0.0)
}

/// What the `runtime.*` and `core.*` rows need from the full-width runs,
/// summed over every round of the run: one 7 ms solve makes a handful of
/// steals, so its own split and counts are noise.
#[derive(Default)]
pub struct RuntimeTotals {
    runs: u64,
    state_s: [f64; NUM_STATES],
    pub propagate_s: f64,
    pub split_s: f64,
    pub items: u64,
    local_steals: u64,
    local_steal_failures: u64,
    local_steal_items: u64,
    releases: u64,
    polls: u64,
    requests_served: u64,
    overflow_spills: u64,
}

impl RuntimeTotals {
    pub fn add<O>(&mut self, report: &RunReport<O>) {
        self.runs += 1;
        for w in &report.workers {
            for (sum, d) in self.state_s.iter_mut().zip(&w.clock.totals) {
                *sum += d.as_secs_f64();
            }
            self.propagate_s += w.phase.propagate.as_secs_f64();
            self.split_s += w.phase.split.as_secs_f64();
            self.items += w.items;
            self.local_steals += w.local_steals;
            self.local_steal_failures += w.local_steal_failures;
            self.local_steal_items += w.local_steal_items;
            self.releases += w.releases;
            self.polls += w.polls;
            self.requests_served += w.requests_served;
            self.overflow_spills += w.overflow_spills;
        }
    }

    /// Mean of a summed count over the runs added.
    pub fn per_run(&self, sum: u64) -> f64 {
        sum as f64 / self.runs.max(1) as f64
    }

    /// Seconds all workers spent in `state`, all runs together.
    pub fn seconds_in(&self, state: WorkerState) -> f64 {
        self.state_s[state as usize]
    }
}

/// The Fig. 3/5 rows: shares of the workers' time over all full-width
/// runs, counts as means per run. The one-worker run has no one to steal
/// from, so its whole excess over the oracle is runtime + pool
/// bookkeeping.
pub fn runtime_rows(
    m: &mut Metrics,
    wn: &RuntimeTotals,
    [seq_s, w1_s, wn_s]: [f64; 3],
    nodes: f64,
    w: usize,
) {
    m.insert(
        "runtime.overhead_w1_ns_per_node".into(),
        (w1_s - seq_s) * 1e9 / nodes,
    );
    // At W = 1 the wN leg repeats the w1 leg: no speed-up to report.
    if w >= 2 {
        m.insert("runtime.speedup_wN".into(), seq_s / wn_s);
        m.insert("runtime.efficiency_wN".into(), seq_s / wn_s / w as f64);
    }
    let all_states: f64 = wn.state_s.iter().sum();
    for (name, state) in [
        ("working", WorkerState::Working),
        ("searching", WorkerState::Searching),
        ("stealing", WorkerState::Stealing),
        ("idle", WorkerState::Idle),
        ("releasing", WorkerState::Releasing),
        ("poll", WorkerState::Poll),
        ("barrier", WorkerState::Barrier),
    ] {
        m.insert(
            format!("runtime.{name}_share"),
            wn.seconds_in(state) / all_states.max(1e-12),
        );
    }
    let (steals, fails) = (wn.local_steals as f64, wn.local_steal_failures as f64);
    m.insert("runtime.local_steals".into(), wn.per_run(wn.local_steals));
    m.insert(
        "runtime.local_steal_failures".into(),
        wn.per_run(wn.local_steal_failures),
    );
    m.insert(
        "runtime.steal_success_share".into(),
        if steals + fails > 0.0 {
            steals / (steals + fails)
        } else {
            0.0
        },
    );
    m.insert(
        "runtime.items_per_steal".into(),
        if steals > 0.0 {
            wn.local_steal_items as f64 / steals
        } else {
            0.0
        },
    );
    m.insert("runtime.releases".into(), wn.per_run(wn.releases));
    m.insert("runtime.polls".into(), wn.per_run(wn.polls));
    m.insert(
        "runtime.requests_served".into(),
        wn.per_run(wn.requests_served),
    );
    m.insert(
        "pool.overflow_spills".into(),
        wn.per_run(wn.overflow_spills),
    );
    m.insert("search.nodes_vs_seq".into(), wn.per_run(wn.items) / nodes);
}

/// Wall ms to spawn, run and join `W` workers on a one-node problem:
/// what every solve (and every served job) pays before its first node.
pub fn spawn_join_ms(ctx: &Ctx) -> f64 {
    let mut model = Model::new("one-node");
    model.new_var(0, 0);
    let prob = model.compile();
    let mut cfg = SolverConfig::with_workers(ctx.host.w());
    cfg.runtime = ctx.runtime(ctx.host.w(), 0);
    ns_per_op(31, || {
        let out = solve_parallel(&prob, &cfg);
        assert_eq!(out.solutions, 1);
        1
    }) / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(traced: bool, seconds: f64) -> Ctx {
        Ctx {
            started: Instant::now(),
            host: Host::detect(),
            seed: 1,
            seconds,
            warm_up: true,
            tracer: Tracer::new(traced, 64),
            ops: Ops::default(),
            notes: BTreeMap::new(),
        }
    }

    #[test]
    fn failed_ops_are_counted_against_attempted() {
        let mut ops = Ops::default();
        ops.check(Ok(()));
        ops.check_eq("solutions", 92u64, 92);
        ops.check_eq("solutions", 91u64, 92);
        assert_eq!((ops.attempted, ops.failed), (3, 1));
    }

    #[test]
    fn untraced_loop_drops_the_warm_up_and_fills_the_window() {
        let mut c = ctx(false, 0.05);
        let mut calls = 0u64;
        let m = {
            let mut legs = [Leg {
                name: "seq_solve_s",
                run: Box::new(|_, _| {
                    calls += 1;
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    // The warm-up reports a time no measured round does.
                    if calls == 1 {
                        9.0
                    } else {
                        0.005
                    }
                }),
            }];
            measure(&mut c, &mut legs)
        };
        assert!(calls >= 3, "a 50 ms window holds several 5 ms rounds");
        assert_eq!(c.notes["samples.seq_solve_s"], (calls - 1) as f64);
        assert_eq!(m["seq_solve_s"], 0.005, "warm-up not sampled");
        assert_eq!(c.notes["q3.seq_solve_s"], 0.005);
    }

    #[test]
    fn set_up_is_rebuilt_and_timed_in_every_round() {
        let mut c = ctx(false, 0.03);
        let builds = std::cell::Cell::new(0u64);
        let build = || {
            builds.set(builds.get() + 1);
            std::thread::sleep(std::time::Duration::from_millis(2));
        };
        let m = measure(&mut c, &mut [setup_leg(build)]);
        assert!(m["setup_s"] >= 0.002);
        // One warm-up build, then one per sample.
        assert_eq!(c.notes["samples.setup_s"], (builds.get() - 1) as f64);
    }

    #[test]
    fn traced_loop_measures_a_quarter_of_the_window_under_spans() {
        let mut c = ctx(true, 0.2);
        let began = Instant::now();
        let m = {
            let mut legs = [Leg {
                name: "seq_solve_s",
                run: Box::new(|_, round| {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    round as f64
                }),
            }];
            measure(&mut c, &mut legs)
        };
        assert!(began.elapsed().as_secs_f64() < 0.15, "0.05 s, not 0.2 s");
        let rounds = c.tracer.totals()["seq_solve_s"].count;
        assert_eq!(c.notes["samples.seq_solve_s"], (rounds - 1) as f64);
        // Samples are 1, 2, .. rounds-1.
        let samples: Vec<f64> = (1..rounds).map(|r| r as f64).collect();
        assert_eq!(Some(m["seq_solve_s"]), lower_quartile(&samples));
        assert_eq!(c.notes["median.seq_solve_s"], rounds as f64 / 2.0);
    }
}
