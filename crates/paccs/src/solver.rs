//! The PaCCS controller/agent solver.
//!
//! Agents drive the same [`SearchKernel`] as MaCS; only the communication
//! substrate differs — two-sided messages over channels, a controller that
//! collects solutions, and a [`WorkBatch`] handed over per steal.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Duration;

use macs_domain::Val;
use macs_engine::CompiledProblem;
use macs_gpi::{LatencyModel, MachineTopology, StealHistogram, TopoError, World};
use macs_runtime::{GlobalIncumbent, Incumbent, WinnerGate};
use macs_search::{
    BoundPolicy, BroadcastTree, ChunkPolicy, IncumbentSource, RaceRing, RefreshGate, SearchKernel,
    SearchMode, StealPolicy, StepOutcome, WorkBatch, WorkItem,
};

/// Sleep between failed steal sweeps.
const STEAL_RETRY_BACKOFF: Duration = Duration::from_micros(50);

/// Configuration of a PaCCS run.
#[derive(Clone, Debug)]
pub struct PaccsConfig {
    pub topology: MachineTopology,
    pub latency: LatencyModel,
    /// Items handed over per successful steal (victim gives up to half its
    /// queue, capped here). The static reference cap; `chunk_policy` maps
    /// it and the thief's distance to the effective per-steal cap.
    pub max_steal_chunk: usize,
    /// Steal-chunk granularity (see [`ChunkPolicy`]). PaCCS agents each
    /// own a single stack — there are no co-located pools to batch into
    /// one reply — so `Adaptive` here means distance-scaled grants; the
    /// reply-thinness signal it would tune the batch with is still
    /// measured (`PaccsOutcome::thin_replies`), with the same degenerate
    /// small-cap guard as the other backends.
    pub chunk_policy: ChunkPolicy,
    pub keep_solutions: usize,
    /// When incumbent improvements reach other agents: the controller's
    /// value is the root incumbent register of the run's [`World`], read
    /// and published through the runtime's [`GlobalIncumbent`] exactly as
    /// a MaCS worker does (`Immediate` reads it on every node, `Periodic`
    /// caches it per agent, `Hierarchical` goes through the node mirrors
    /// their leaders refresh).
    pub bound_policy: BoundPolicy,
    /// Exhaustive search, or a first-solution race (satisfaction only):
    /// the winner raises the run's [`WinnerGate`] and every agent abandons
    /// its remaining stack on observing it.
    pub mode: SearchMode,
}

impl PaccsConfig {
    pub fn with_workers(n: usize) -> Self {
        PaccsConfig {
            topology: MachineTopology::flat(n),
            latency: LatencyModel::zero(),
            // One default cap for threaded and simulated PaCCS (and MaCS).
            max_steal_chunk: StealPolicy::default().max_steal_chunk as usize,
            chunk_policy: ChunkPolicy::default(),
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
}

/// Result of a PaCCS run.
#[derive(Debug)]
pub struct PaccsOutcome {
    /// Solutions delivered to the controller (for optimisation: improving
    /// solutions).
    pub solutions: u64,
    /// Total stores processed.
    pub nodes: u64,
    pub best_cost: Option<i64>,
    pub best_assignment: Option<Vec<Val>>,
    pub kept: Vec<Vec<Val>>,
    pub wall: Duration,
    /// Successful steals from a same-node / remote-node victim.
    pub local_steals: u64,
    pub remote_steals: u64,
    /// Steal requests answered with `NoWork`.
    pub failed_steals: u64,
    /// Successful steals by topological distance (thief side).
    pub steals_by_distance: StealHistogram,
    /// Total messages exchanged.
    pub messages: u64,
    /// Cross-node messages attributable to bound dissemination (relay
    /// fan-out on improvements, plus periodic refresh pulls).
    pub bound_msgs: u64,
    /// First-solution races: wall time from run start to the winning
    /// solution (`None` otherwise).
    pub first_solution: Option<Duration>,
    /// First-solution races: stores whose expansion started after the win
    /// — the dissemination lag's bill.
    pub nodes_after_win: u64,
    /// First-solution races: stores discarded unprocessed (stacks and
    /// late steal replies) once agents observed the winner flag.
    pub abandoned_items: u64,
    /// First-solution races: steal replies that delivered work to an agent
    /// that had already observed the winner flag — kept out of
    /// `local_steals`/`remote_steals` and the distance histogram so a
    /// race's drain cannot masquerade as successful stealing.
    pub drain_steals: u64,
    /// Served replies that were *thin* (below `WorkBatch::thin_threshold`
    /// of the effective cap) — the scarcity signal the adaptive policy
    /// reads; on a single-stack backend it is reported rather than acted
    /// on.
    pub thin_replies: u64,
}

enum Msg {
    /// Steal request from an idle agent.
    StealReq { thief: usize },
    /// Steal reply carrying work.
    Work(WorkBatch),
    /// Steal reply: nothing to give.
    NoWork,
    /// Agent → controller: a solution.
    Solution {
        cost: Option<i64>,
        assignment: Vec<Val>,
    },
    /// Controller → agents: stop.
    Terminate,
}

struct Shared<'a> {
    prob: &'a CompiledProblem,
    cfg: &'a PaccsConfig,
    /// The controller's registers — root incumbent, winner flag, win
    /// instant, their per-node mirrors — and the fabric that prices
    /// reaching them from off node 0.
    world: &'a World,
    senders: Vec<Sender<Msg>>,
    to_controller: Sender<Msg>,
    /// Agents currently holding work — the termination invariant is
    /// `active + in_flight ≥ 1` whenever any store exists anywhere.
    active: AtomicUsize,
    /// Work messages in flight.
    in_flight: AtomicUsize,
    /// The broadcast tree improvements are billed over.
    tree: BroadcastTree,
    messages: AtomicU64,
    bound_msgs: AtomicU64,
}

impl Shared<'_> {
    /// Send an agent-to-agent message, charging the fabric for cross-node
    /// traffic (MPI send, no one-sided shortcut).
    fn send(&self, from: usize, to: usize, msg: Msg) {
        if !self.cfg.topology.is_local(from, to) {
            let bytes = match &msg {
                Msg::Work(batch) => batch.payload_bytes() + 64,
                _ => 64,
            };
            self.world.interconnect.charge_write(bytes);
        }
        self.messages.fetch_add(1, Ordering::Relaxed);
        let _ = self.senders[to].send(msg);
    }

    /// Send to the controller (hosted on node 0).
    fn send_controller(&self, from: usize, msg: Msg) {
        if self.cfg.topology.node_of(from) != 0 {
            self.world.interconnect.charge_write(64);
        }
        self.messages.fetch_add(1, Ordering::Relaxed);
        let _ = self.to_controller.send(msg);
    }
}

/// One agent's bound source: the runtime's [`GlobalIncumbent`] over the
/// controller's registers, plus PaCCS's message bill — the broadcast
/// tree's fan-out per accepted improvement, and one controller pull per
/// `Periodic` refresh from off the controller's node.
struct AgentBound<'s, 'p> {
    shared: &'s Shared<'p>,
    id: usize,
    off_controller: bool,
    cells: GlobalIncumbent<'s>,
    /// Ticks with `cells`' own `Periodic` cadence (one `due` per read).
    pulls: RefreshGate,
}

impl<'s, 'p> AgentBound<'s, 'p> {
    fn new(id: usize, shared: &'s Shared<'p>) -> Self {
        let (world, node) = (shared.world, shared.cfg.topology.node_of(id));
        AgentBound {
            shared,
            id,
            off_controller: node != 0,
            cells: GlobalIncumbent::new(
                &world.cells,
                &world.interconnect,
                node != 0,
                shared.cfg.bound_policy,
                world.block,
                node,
                shared.tree.is_leader(id),
            ),
            pulls: RefreshGate::new(),
        }
    }

    fn bill(&self, msgs: u64) {
        if msgs > 0 {
            self.shared.bound_msgs.fetch_add(msgs, Ordering::Relaxed);
        }
    }
}

impl IncumbentSource for AgentBound<'_, '_> {
    fn bound(&self) -> i64 {
        if let BoundPolicy::Periodic { every } = self.shared.cfg.bound_policy {
            if self.pulls.due(every) {
                self.bill(self.off_controller as u64);
            }
        }
        self.cells.get()
    }

    fn offer(&self, cost: i64) -> bool {
        let improved = self.cells.submit(cost);
        if improved {
            let policy = self.shared.cfg.bound_policy;
            self.bill(self.shared.tree.improvement_msgs(policy, self.id));
        }
        improved
    }
}

#[derive(Default)]
struct AgentResult {
    nodes: u64,
    local_steals: u64,
    remote_steals: u64,
    failed_steals: u64,
    steals_by_distance: StealHistogram,
    nodes_after_win: u64,
    abandoned: u64,
    drain_steals: u64,
    thin_replies: u64,
}

/// Victim side of a steal: hand over the oldest half of the queue (the
/// largest sub-problems), capped by the chunk policy at the thief's
/// topological distance — a same-socket thief takes a small bite, a
/// cross-cluster thief's expensive round trip carries a bigger
/// reservation. The victim always keeps at least one store, so it stays
/// active. `WorkBatch::split_front` removes from the deque's front in
/// O(chunk) — the old `Vec::drain(..give)` memmoved the whole remaining
/// stack on every steal. Returns whether the (served) reply was thin
/// under the shared degenerate-cap-guarded threshold.
fn reply_steal(
    victim: usize,
    thief: usize,
    stack: &mut VecDeque<WorkItem>,
    shared: &Shared<'_>,
) -> Option<bool> {
    let topo = &shared.cfg.topology;
    let cap = shared.cfg.chunk_policy.cap_for(
        topo.distance(victim, thief),
        topo.levels(),
        shared.cfg.max_steal_chunk as u64,
    ) as usize;
    let batch = WorkBatch::split_front(stack, cap);
    if batch.is_empty() {
        shared.send(victim, thief, Msg::NoWork);
        return None;
    }
    // Thinness is judged against the static cap (never more than the
    // effective one) — the same degenerate-small-cap-guarded gate the
    // shared-memory backends use for their top-up decision.
    let gate_cap = (cap as u64).min(shared.cfg.max_steal_chunk as u64);
    let thin = (batch.len() as u64) < WorkBatch::thin_threshold(gate_cap);
    shared.in_flight.fetch_add(1, Ordering::AcqRel);
    shared.send(victim, thief, Msg::Work(batch));
    Some(thin)
}

/// Accept a `Work` reply: the order (activate, then release the in-flight
/// count) keeps the termination invariant.
fn accept_work(batch: WorkBatch, stack: &mut VecDeque<WorkItem>, shared: &Shared<'_>) {
    shared.active.fetch_add(1, Ordering::AcqRel);
    shared.in_flight.fetch_sub(1, Ordering::AcqRel);
    batch.adopt_into(stack);
}

/// The search-agent loop: drain messages, expand one store through the
/// shared kernel, steal when idle.
fn agent_main(id: usize, shared: &Shared<'_>, rx: &Receiver<Msg>, seeded: bool) -> AgentResult {
    let prob = shared.prob;
    let mut kernel = SearchKernel::new(prob);
    let mut stack: VecDeque<WorkItem> = VecDeque::new();
    let mut res = AgentResult::default();
    let incumbent = AgentBound::new(id, shared);
    // First-solution race state: optimisation runs must keep searching to
    // prove the optimum, so the race only arms on satisfaction problems.
    let race = shared.cfg.mode.is_race() && !prob.objective.is_some();
    let mut gate = WinnerGate::new(shared.world, id, race);
    let mut ring = RaceRing::new();

    if seeded {
        // `active` was pre-incremented by the launcher, before any thread
        // ran, so the controller can never observe a spuriously quiet start.
        let root = kernel.alloc_root();
        stack.push_back(root);
    }

    // Victim order: the topology's distance rings flattened nearest
    // first — socket peers, then node peers, then each remote ring — the
    // paper's expanding neighbourhood, derived from the machine's levels
    // instead of an ad-hoc local/remote split.
    let topo = &shared.cfg.topology;
    let victims: Vec<usize> = topo.rings(id).into_iter().flatten().collect();

    loop {
        // ---- winner flag (first-solution race) ---------------------------
        if race && gate.raised() {
            // Settle the race account and drain to termination.
            res.nodes_after_win = gate.settle(&ring).unwrap_or(0);
            if !stack.is_empty() {
                res.abandoned += stack.len() as u64;
                while let Some(it) = stack.pop_back() {
                    kernel.recycle(it);
                }
                // We held work, so we were counted active.
                shared.active.fetch_sub(1, Ordering::AcqRel);
            }
            loop {
                match rx.recv() {
                    Ok(Msg::StealReq { thief }) => shared.send(id, thief, Msg::NoWork),
                    Ok(Msg::Work(batch)) => {
                        // A reply that raced the flag and lost: the items
                        // die here, settling the in-flight count without
                        // ever becoming active.
                        res.abandoned += batch.len() as u64;
                        shared.in_flight.fetch_sub(1, Ordering::AcqRel);
                    }
                    Ok(Msg::NoWork) => {}
                    Ok(Msg::Terminate) | Err(_) => return res,
                    Ok(Msg::Solution { .. }) => unreachable!(),
                }
            }
        }

        // MPI-progress: drain pending messages.
        while let Ok(msg) = rx.try_recv() {
            match msg {
                Msg::StealReq { thief } => {
                    if reply_steal(id, thief, &mut stack, shared) == Some(true) {
                        res.thin_replies += 1;
                    }
                }
                Msg::Terminate => return res,
                Msg::Work(batch) => accept_work(batch, &mut stack, shared), // defensive
                Msg::NoWork => {}
                Msg::Solution { .. } => unreachable!("agents do not receive solutions"),
            }
        }

        if let Some(mut store) = stack.pop_back() {
            // ---- process one store (the same kernel MaCS runs) -----------
            res.nodes += 1;
            if race {
                ring.record(shared.world.elapsed_ns());
            }
            match kernel.step(&mut store, &incumbent) {
                StepOutcome::Failed => {}
                StepOutcome::Solution(sol) => match sol.cost {
                    Some(cost) => {
                        if sol.improved {
                            shared.send_controller(
                                id,
                                Msg::Solution {
                                    cost: Some(cost),
                                    assignment: sol.assignment,
                                },
                            );
                        }
                    }
                    None => {
                        shared.send_controller(
                            id,
                            Msg::Solution {
                                cost: None,
                                assignment: sol.assignment,
                            },
                        );
                        if race {
                            gate.raise();
                        }
                    }
                },
                StepOutcome::Children(_) => kernel.push_children(&mut stack),
            }
            kernel.recycle(store);
            if stack.is_empty() {
                // Out of work: stop being counted before the idle sweep.
                shared.active.fetch_sub(1, Ordering::AcqRel);
            }
        } else {
            // ---- idle: steal sweep over the expanding neighbourhood ------
            let mut got = false;
            'sweep: for &victim in &victims {
                shared.send(id, victim, Msg::StealReq { thief: id });
                // Block for this victim's reply, serving interleaved
                // messages (requests get refused — we are idle).
                loop {
                    match rx.recv() {
                        Ok(Msg::Work(batch)) => {
                            accept_work(batch, &mut stack, shared);
                            // A reply that arrives after this agent's node
                            // saw the winner flag delivers work the
                            // top-of-loop drain will immediately discard:
                            // count it in the drain bucket, not as a
                            // successful steal (it must not inflate the
                            // histogram or items-per-steal).
                            if race && gate.raised() {
                                res.drain_steals += 1;
                            } else {
                                res.steals_by_distance.record(topo.distance(id, victim));
                                if topo.is_local(victim, id) {
                                    res.local_steals += 1;
                                } else {
                                    res.remote_steals += 1;
                                }
                            }
                            got = true;
                            break 'sweep;
                        }
                        Ok(Msg::NoWork) => {
                            res.failed_steals += 1;
                            break;
                        }
                        Ok(Msg::StealReq { thief }) => {
                            shared.send(id, thief, Msg::NoWork);
                        }
                        Ok(Msg::Terminate) | Err(_) => return res,
                        Ok(Msg::Solution { .. }) => unreachable!(),
                    }
                }
            }
            if !got {
                std::thread::sleep(STEAL_RETRY_BACKOFF);
            }
        }
    }
}

/// Solve `prob` with the PaCCS architecture (controller + search agents).
pub fn paccs_solve(prob: &CompiledProblem, cfg: &PaccsConfig) -> PaccsOutcome {
    let n = cfg.topology.total_workers();
    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = channel::<Msg>();
        senders.push(tx);
        receivers.push(rx);
    }
    let (ctl_tx, ctl_rx) = channel::<Msg>();

    // The controller *is* the root register block of a `World` (created
    // last, so its epoch times both the wall clock and the win instant).
    let world = World::new(cfg.topology.clone(), cfg.latency, 16);
    let shared = Shared {
        prob,
        cfg,
        world: &world,
        senders,
        to_controller: ctl_tx,
        active: AtomicUsize::new(1), // the seeded agent, counted up front
        in_flight: AtomicUsize::new(0),
        tree: BroadcastTree::new(&cfg.topology),
        messages: AtomicU64::new(0),
        bound_msgs: AtomicU64::new(0),
    };

    let mut agent_results: Vec<AgentResult> = Vec::with_capacity(n);
    let mut solutions_seen: u64 = 0;
    let mut kept: Vec<Vec<Val>> = Vec::new();
    let mut best: Option<(i64, Vec<Val>)> = None;

    let absorb = |msg: Msg,
                  best: &mut Option<(i64, Vec<Val>)>,
                  kept: &mut Vec<Vec<Val>>,
                  solutions_seen: &mut u64| {
        if let Msg::Solution { cost, assignment } = msg {
            *solutions_seen += 1;
            match cost {
                Some(c) => {
                    if best.as_ref().map(|(b, _)| c < *b).unwrap_or(true) {
                        *best = Some((c, assignment));
                    }
                }
                None => {
                    if kept.len() < cfg.keep_solutions {
                        kept.push(assignment);
                    }
                }
            }
        }
    };

    std::thread::scope(|s| {
        let shared = &shared;
        // `std::sync::mpsc::Receiver` is `Send` but not `Sync`: each agent
        // takes its receiver by value.
        let handles: Vec<_> = receivers
            .drain(..)
            .enumerate()
            .map(|(id, rx)| s.spawn(move || agent_main(id, shared, &rx, id == 0)))
            .collect();

        // ---- controller: collect solutions, detect termination -----------
        loop {
            while let Ok(msg) = ctl_rx.try_recv() {
                absorb(msg, &mut best, &mut kept, &mut solutions_seen);
            }
            let quiet = shared.active.load(Ordering::Acquire) == 0
                && shared.in_flight.load(Ordering::Acquire) == 0;
            if quiet {
                // The invariant makes a single observation sufficient; a
                // confirming read is cheap insurance.
                std::thread::sleep(Duration::from_micros(100));
                if shared.active.load(Ordering::Acquire) == 0
                    && shared.in_flight.load(Ordering::Acquire) == 0
                {
                    break;
                }
            } else {
                std::thread::yield_now();
            }
        }
        for id in 0..n {
            shared.send(0, id, Msg::Terminate);
        }
        for h in handles {
            agent_results.push(h.join().expect("agent panicked"));
        }
        // Solutions sent in the final moments are still in the channel.
        while let Ok(msg) = ctl_rx.try_recv() {
            absorb(msg, &mut best, &mut kept, &mut solutions_seen);
        }
    });

    let wall = world.start.elapsed();
    let nodes = agent_results.iter().map(|r| r.nodes).sum();
    let (best_cost, best_assignment) = match best {
        Some((c, a)) => (Some(c), Some(a)),
        None => (None, kept.first().cloned()),
    };
    PaccsOutcome {
        solutions: solutions_seen,
        nodes,
        best_cost,
        best_assignment,
        kept,
        wall,
        local_steals: agent_results.iter().map(|r| r.local_steals).sum(),
        remote_steals: agent_results.iter().map(|r| r.remote_steals).sum(),
        failed_steals: agent_results.iter().map(|r| r.failed_steals).sum(),
        steals_by_distance: {
            let mut h = StealHistogram::new();
            for r in &agent_results {
                h.merge(&r.steals_by_distance);
            }
            h
        },
        messages: shared.messages.load(Ordering::Relaxed),
        bound_msgs: shared.bound_msgs.load(Ordering::Relaxed),
        first_solution: WinnerGate::win_time(&world),
        nodes_after_win: agent_results.iter().map(|r| r.nodes_after_win).sum(),
        abandoned_items: agent_results.iter().map(|r| r.abandoned).sum(),
        drain_steals: agent_results.iter().map(|r| r.drain_steals).sum(),
        thin_replies: agent_results.iter().map(|r| r.thin_replies).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macs_engine::seq::{solve_seq, SeqOptions};
    use macs_problems::{qap::QapInstance, qap_model, queens, QueensModel};

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
            if out.local_steals + out.remote_steals > 0 {
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
        cfg.max_steal_chunk = 4;
        let out = paccs_solve(&prob, &cfg);
        assert_eq!(out.solutions, seq.solutions);
        assert_eq!(
            out.steals_by_distance.total(),
            out.local_steals + out.remote_steals,
            "histogram counts every steal"
        );
        assert!(PaccsConfig::hierarchical(&[2, 0], 1).is_err());
    }

    #[test]
    fn paccs_and_macs_share_one_default_cap() {
        // Threaded PaCCS, simulated PaCCS and both MaCS executions answer
        // `ChunkPolicy::cap_for` from one number (the simulator and the
        // runtime embed `StealPolicy` itself).
        for cfg in [
            PaccsConfig::with_workers(4),
            PaccsConfig::clustered(8, 4),
            PaccsConfig::hierarchical(&[2, 2, 2], 1).unwrap(),
        ] {
            assert_eq!(
                cfg.max_steal_chunk as u64,
                StealPolicy::default().max_steal_chunk
            );
        }
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
        cfg.mode = macs_search::SearchMode::FirstSolution;
        let out = paccs_solve(&prob, &cfg);
        assert!(out.solutions >= 1, "a winner must be reported");
        let a = out.best_assignment.as_ref().expect("winning assignment");
        assert!(prob.check_assignment(a));
        assert!(
            out.nodes + out.abandoned_items < full.nodes,
            "the race must cut the enumeration short: {} + {} vs {}",
            out.nodes,
            out.abandoned_items,
            full.nodes
        );
        assert!(out.first_solution.is_some(), "win time recorded");
        assert!(out.first_solution.unwrap() <= out.wall);
    }

    #[test]
    fn race_on_unsat_instance_terminates_exhaustively() {
        let prob = queens(3, QueensModel::Pairwise);
        let mut cfg = PaccsConfig::with_workers(2);
        cfg.mode = macs_search::SearchMode::FirstSolution;
        let out = paccs_solve(&prob, &cfg);
        assert_eq!(out.solutions, 0);
        assert!(out.first_solution.is_none(), "no winner on unsat");
        assert_eq!(out.nodes_after_win, 0);
    }
}
