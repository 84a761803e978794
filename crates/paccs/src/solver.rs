//! Threaded PaCCS: [`run_paccs`] runs any runtime [`Processor`] — the
//! contract MaCS and both simulated executions run — as `macs-runtime`
//! workers under the PaCCS protocol ([`run_parallel_paccs`]): one agent per
//! worker of the topology, each sweeping requests over its peers nearest
//! first and granting part of its own queue per request.

use macs_gpi::{LatencyModel, MachineTopology, TopoError};
use macs_runtime::{run_parallel_paccs, Processor, RunReport, RuntimeConfig};
use macs_search::{BoundPolicy, SearchMode, StealPolicy};

/// Configuration of a PaCCS run.
#[derive(Clone, Debug)]
pub struct PaccsConfig {
    pub topology: MachineTopology,
    pub latency: LatencyModel,
    /// The steal rulebook MaCS runs too. A victim reads only its grant
    /// ([`StealPolicy::paccs_grant`]), as simulated PaCCS does: it never
    /// releases and serves no proxy, so `Adaptive` is distance scaling.
    pub steal: StealPolicy,
    pub keep_solutions: usize,
    /// When incumbent improvements reach other agents: agents read and
    /// publish the root incumbent register through the runtime's
    /// `GlobalIncumbent`, exactly as a MaCS worker does (`Immediate` reads
    /// it on every node, `Periodic` caches it per agent, `Hierarchical`
    /// goes through the node mirrors their leaders refresh).
    pub bound_policy: BoundPolicy,
    /// Exhaustive search, or a first-solution race: a processor's
    /// `cancel` raises the run's winner flag and every agent abandons its
    /// remaining queue on observing it.
    pub mode: SearchMode,
}

impl PaccsConfig {
    pub fn with_workers(n: usize) -> Self {
        PaccsConfig {
            topology: MachineTopology::flat(n),
            latency: LatencyModel::zero(),
            // One default policy for threaded and simulated PaCCS and MaCS.
            steal: StealPolicy::default(),
            keep_solutions: 16,
            bound_policy: BoundPolicy::Immediate,
            mode: SearchMode::Exhaustive,
        }
    }

    pub fn clustered(total: usize, cores_per_node: usize) -> Self {
        PaccsConfig {
            topology: MachineTopology::clustered(total, cores_per_node),
            ..PaccsConfig::with_workers(total)
        }
    }

    /// An N-level machine shape, e.g. `&[2, 2, 4]` with `node_prefix = 1`
    /// for 2 nodes × 2 sockets × 4 cores; agent neighbourhoods follow the
    /// levels.
    pub fn hierarchical(shape: &[usize], node_prefix: usize) -> Result<Self, TopoError> {
        let topology = MachineTopology::try_new(shape, node_prefix)?;
        Ok(PaccsConfig {
            topology,
            ..PaccsConfig::with_workers(1)
        })
    }

    /// The runtime configuration the agents run under; everything PaCCS
    /// does not set is the runtime's default.
    fn runtime(&self) -> RuntimeConfig {
        RuntimeConfig {
            topology: self.topology.clone(),
            latency: self.latency,
            steal: self.steal,
            bound_policy: self.bound_policy,
            mode: self.mode,
            ..RuntimeConfig::default()
        }
    }
}

/// Run `roots` through per-agent processors created by `factory` (called
/// once per agent, from that agent's thread) on the PaCCS protocol, agent 0
/// seeded with every root. Every root and work item is `slot_words` u64s.
///
/// A panicking agent ends the run: the others stop, all are joined, and
/// the first panic is re-raised.
pub fn run_paccs<P, F>(
    cfg: &PaccsConfig,
    slot_words: usize,
    roots: &[Vec<u64>],
    factory: F,
) -> RunReport<P::Output>
where
    P: Processor,
    F: Fn(usize) -> P + Sync,
    P::Output: Send,
{
    run_parallel_paccs(&cfg.runtime(), slot_words, roots, factory)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paccs_solve;
    use crate::solve::posts;
    use macs_engine::seq::{solve_seq, SeqOptions};
    use macs_problems::{qap::QapInstance, qap_model, queens, QueensModel};
    use macs_runtime::{ProcCtx, Step};
    use std::time::Duration;

    #[test]
    fn queens_counts_match_sequential() {
        for n in [6usize, 7, 8] {
            let prob = queens(n, QueensModel::Pairwise);
            let seq = solve_seq(&prob, &SeqOptions::default());
            for cfg in [
                PaccsConfig::with_workers(1),
                PaccsConfig::with_workers(4),
                PaccsConfig::clustered(4, 2),
            ] {
                let out = paccs_solve(&prob, &cfg);
                assert_eq!(out.solutions, seq.solutions, "queens-{n}");
                assert!(out.nodes >= seq.nodes / 2);
            }
        }
    }

    #[test]
    fn qap_optimum_matches_sequential() {
        let inst = QapInstance::cube8_like(5);
        let prob = qap_model(&inst);
        let seq = solve_seq(&prob, &SeqOptions::default());
        for workers in [1usize, 3] {
            let out = paccs_solve(&prob, &PaccsConfig::with_workers(workers));
            assert_eq!(out.best_cost, seq.best_cost);
            let a = out.best_assignment.as_ref().unwrap();
            assert_eq!(inst.cost(&a[..8]), seq.best_cost.unwrap());
        }
    }

    #[test]
    fn hierarchical_run_counts_steal_classes() {
        let prob = queens(10, QueensModel::Pairwise);
        let seq = solve_seq(&prob, &SeqOptions::default());
        let cfg = PaccsConfig::clustered(4, 2);
        // Work distribution is timing-dependent; on a loaded host the
        // seeded agent can occasionally race through a small tree alone, so
        // allow a few attempts to observe stealing.
        let mut stole = false;
        for _ in 0..3 {
            let out = paccs_solve(&prob, &cfg);
            assert_eq!(out.solutions, seq.solutions);
            assert!(out.messages > 0);
            let (ls, _, rs, _) = out.report.steal_totals();
            if ls + rs > 0 {
                stole = true;
                break;
            }
        }
        assert!(
            stole,
            "no stealing observed in 3 runs of queens-10 × 4 agents"
        );
    }

    #[test]
    fn three_level_neighbourhoods_agree_with_sequential() {
        let prob = queens(8, QueensModel::Pairwise);
        let seq = solve_seq(&prob, &SeqOptions::default());
        // 2 nodes × 2 sockets × 2 cores: the sweep expands socket → node
        // → remote.
        let mut cfg = PaccsConfig::hierarchical(&[2, 2, 2], 1).unwrap();
        cfg.steal.max_steal_chunk = 4;
        let out = paccs_solve(&prob, &cfg);
        assert_eq!(out.solutions, seq.solutions);
        for w in &out.report.workers {
            assert_eq!(
                w.steals_by_distance.total(),
                w.local_steals + w.remote_steals,
                "histogram counts every steal"
            );
        }
        assert!(PaccsConfig::hierarchical(&[2, 0], 1).is_err());
    }

    #[test]
    fn paccs_and_macs_share_one_default_cap() {
        // Threaded PaCCS, simulated PaCCS and both MaCS executions answer
        // `StealPolicy::chunk_cap` from one policy value (the simulator
        // and the runtime embed `StealPolicy` too).
        for cfg in [
            PaccsConfig::with_workers(4),
            PaccsConfig::clustered(8, 4),
            PaccsConfig::hierarchical(&[2, 2, 2], 1).unwrap(),
        ] {
            assert_eq!(cfg.steal, StealPolicy::default());
        }
    }

    /// An unbalanced tree drawn from `seed`: an item is `[depth, path]`,
    /// a node below depth 16 has 0–3 children.
    struct Tree {
        seed: u64,
    }

    impl Processor for Tree {
        type Output = ();

        fn process(&mut self, buf: &mut [u64], ctx: &mut ProcCtx<'_>) -> Step {
            let (depth, path) = (buf[0], buf[1]);
            let h = (path ^ self.seed)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(17)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let children = if depth < 16 { h % 4 } else { 0 };
            if children == 0 {
                ctx.solution();
                return Step::Leaf;
            }
            for i in 1..children {
                ctx.push(&[depth + 1, path.wrapping_mul(31).wrapping_add(i)]);
            }
            buf.copy_from_slice(&[depth + 1, path.wrapping_mul(31)]);
            Step::Continue
        }

        fn finish(self) {}
    }

    /// Run `run` on a detached thread and return what it returned, or its
    /// panic payload; a run still going after 10 s fails the test.
    fn within_10s<T: Send + 'static>(
        label: &str,
        run: impl FnOnce() -> T + Send + 'static,
    ) -> std::thread::Result<T> {
        let (done, watchdog) = std::sync::mpsc::channel();
        // Detached on purpose: a hung run cannot be joined, only timed out.
        std::thread::spawn(move || {
            let _ = done.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)));
        });
        watchdog
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("{label}: the run hung"))
    }

    #[test]
    fn every_paccs_request_gets_one_reply() {
        let cfg = PaccsConfig::hierarchical(&[2, 2, 2], 1).unwrap();
        for seed in 1..=20u64 {
            let solo = run_paccs(&PaccsConfig::with_workers(1), 2, &[vec![0, 1]], |_| Tree {
                seed,
            });
            let cfg = cfg.clone();
            let report = within_10s(&format!("seed {seed}"), move || {
                run_paccs(&cfg, 2, &[vec![0, 1]], |_| Tree { seed })
            })
            .unwrap_or_else(|p| std::panic::resume_unwind(p));
            assert_eq!(report.total_items(), solo.total_items(), "seed {seed}");
            assert_eq!(report.total_solutions(), solo.total_solutions());
            let posted: u64 = report.workers.iter().map(posts).sum();
            let replies: u64 = report
                .workers
                .iter()
                .map(|w| w.requests_served + w.requests_refused)
                .sum();
            assert_eq!(posted, replies, "seed {seed}: one reply per request");
            let (ls, _, rs, _) = report.steal_totals();
            let served: u64 = report.workers.iter().map(|w| w.requests_served).sum();
            let drains: u64 = report.workers.iter().map(|w| w.drain_steals).sum();
            assert_eq!(ls + rs + drains, served, "seed {seed}: a grant is a steal");
        }
    }

    #[test]
    fn a_one_node_paccs_run_moves_no_fabric_bytes() {
        let prob = queens(8, QueensModel::Pairwise);
        for bound_policy in BoundPolicy::ALL {
            let mut cfg = PaccsConfig::with_workers(4);
            cfg.bound_policy = bound_policy;
            let out = paccs_solve(&prob, &cfg);
            assert_eq!(out.solutions, 92);
            assert_eq!(out.report.traffic, Default::default(), "{bound_policy}");
            assert_eq!(out.bound_msgs, 0, "{bound_policy}");
            let (_, _, rs, rf) = out.report.steal_totals();
            assert_eq!((rs, rf), (0, 0), "every peer is on the node");
        }
        // Across nodes the requests and replies are charged.
        let mut cfg = PaccsConfig::clustered(2, 1);
        cfg.steal.max_steal_chunk = 1;
        let out = paccs_solve(&queens(9, QueensModel::Pairwise), &cfg);
        let (_, _, rs, rf) = out.report.steal_totals();
        assert!(rs + rf > 0, "agent 1 can only ask off node");
        assert!(out.report.traffic.remote_atomics >= rs + rf);
    }

    #[test]
    fn unsat_reports_zero() {
        let prob = queens(3, QueensModel::Pairwise);
        let out = paccs_solve(&prob, &PaccsConfig::with_workers(2));
        assert_eq!(out.solutions, 0);
        assert!(out.best_assignment.is_none());
    }

    #[test]
    fn first_solution_race_stops_early_with_a_valid_solution() {
        let prob = queens(9, QueensModel::Pairwise);
        let full = solve_seq(&prob, &SeqOptions::default());
        let mut cfg = PaccsConfig::clustered(4, 2);
        cfg.mode = SearchMode::FirstSolution;
        let out = paccs_solve(&prob, &cfg);
        assert!(out.solutions >= 1, "a winner must be reported");
        let a = out.best_assignment.as_ref().expect("winning assignment");
        assert!(prob.check_assignment(a));
        let abandoned = out.report.abandoned_items();
        assert!(
            out.nodes + abandoned < full.nodes,
            "the race must cut the enumeration short: {} + {abandoned} vs {}",
            out.nodes,
            full.nodes
        );
        let won = out.report.first_solution.expect("win time recorded");
        assert!(won <= out.report.wall);
    }

    #[test]
    fn race_on_unsat_instance_terminates_exhaustively() {
        let prob = queens(3, QueensModel::Pairwise);
        let mut cfg = PaccsConfig::with_workers(2);
        cfg.mode = SearchMode::FirstSolution;
        let out = paccs_solve(&prob, &cfg);
        assert_eq!(out.solutions, 0);
        assert!(out.report.first_solution.is_none(), "no winner on unsat");
        assert_eq!(out.report.nodes_after_win(), 0);
    }

    /// Complete binary tree of depth 12, an item `[depth, heap index]`;
    /// whichever agent processes node `panic_at` panics with a
    /// recognisable payload.
    struct Faulty {
        panic_at: u64,
    }

    impl Processor for Faulty {
        type Output = ();

        fn process(&mut self, buf: &mut [u64], ctx: &mut ProcCtx<'_>) -> Step {
            let (depth, index) = (buf[0], buf[1]);
            if index == self.panic_at {
                std::panic::panic_any(("injected", index));
            }
            if depth == 12 {
                return Step::Leaf;
            }
            ctx.push(&[depth + 1, 2 * index + 1]);
            buf.copy_from_slice(&[depth + 1, 2 * index]);
            Step::Continue
        }

        fn finish(self) {}
    }

    #[test]
    fn a_panicking_agent_unwinds_the_run_instead_of_hanging_it() {
        for seed in 1..=20u64 {
            // Spread the fault over the 8 191-node tree: near the root,
            // deep, early and late in the depth-first order.
            let at = 1 + (seed * 2_654_435_761) % 8191;
            let run = within_10s(&format!("seed {seed}: node {at} panicked"), move || {
                let cfg = PaccsConfig::clustered(4, 2);
                run_paccs(&cfg, 2, &[vec![0, 1]], |_| Faulty { panic_at: at }).total_items()
            });
            match run {
                Err(payload) => {
                    let got = payload.downcast_ref::<(&str, u64)>();
                    assert_eq!(got, Some(&("injected", at)), "seed {seed}");
                }
                Ok(items) => panic!("seed {seed}: node {at} never ran ({items} items)"),
            }
        }
    }
}
