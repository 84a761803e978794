//! The PaCCS controller/agent executor.
//!
//! [`run_paccs`] drives any runtime [`Processor`] — the same contract the
//! MaCS runtime and both simulated executions run — over PaCCS's own
//! communication substrate: two-sided messages over channels, a controller
//! that detects termination, and a [`WorkBatch`] handed over per steal.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Duration;

use macs_gpi::{Interconnect, LatencyModel, MachineTopology, TopoError, World};
use macs_runtime::{
    GlobalIncumbent, Incumbent, ProcCtx, Processor, RaceRing, RunReport, Step, WinnerGate,
    WorkSink, WorkerState, WorkerStats,
};
use macs_search::{
    Action, BoundPolicy, BroadcastTree, Outcome, RefreshGate, ScanView, SearchMode, StealPolicy,
    WorkBatch, WorkItem, WorkerMachine, WorkerView,
};

/// Sleep between failed steal sweeps.
const STEAL_RETRY_BACKOFF: Duration = Duration::from_micros(50);

/// Configuration of a PaCCS run.
#[derive(Clone, Debug)]
pub struct PaccsConfig {
    pub topology: MachineTopology,
    pub latency: LatencyModel,
    /// The steal rulebook MaCS runs too. A victim reads only its per-steal
    /// cap ([`StealPolicy::chunk_cap`]), as simulated PaCCS does: one deque
    /// per agent, no pools to batch, so `Adaptive` is distance scaling.
    pub steal: StealPolicy,
    pub keep_solutions: usize,
    /// When incumbent improvements reach other agents: the controller's
    /// value is the root incumbent register of the run's [`World`], read
    /// and published through the runtime's [`GlobalIncumbent`] exactly as
    /// a MaCS worker does (`Immediate` reads it on every node, `Periodic`
    /// caches it per agent, `Hierarchical` goes through the node mirrors
    /// their leaders refresh).
    pub bound_policy: BoundPolicy,
    /// Exhaustive search, or a first-solution race: a processor's
    /// `cancel` raises the run's [`WinnerGate`] and every agent abandons
    /// its remaining deque on observing it.
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
}

enum Msg {
    /// Steal request from an idle agent.
    StealReq { thief: usize },
    /// Steal reply carrying work.
    Work(WorkBatch),
    /// Steal reply: nothing to give.
    NoWork,
    /// Controller → agents: stop.
    Terminate,
}

struct Shared<'a> {
    cfg: &'a PaccsConfig,
    /// The controller's registers — root incumbent, winner flag, win
    /// instant, their per-node mirrors — and the fabric that prices
    /// reaching them from off node 0.
    world: &'a World,
    senders: Vec<Sender<Msg>>,
    /// Agents currently holding work — the termination invariant is
    /// `active + in_flight ≥ 1` whenever any work item exists anywhere.
    active: AtomicUsize,
    /// Work messages in flight.
    in_flight: AtomicUsize,
    /// The broadcast tree improvements are billed over.
    tree: BroadcastTree,
}

impl Shared<'_> {
    /// Deliver a message, charging the fabric for cross-node traffic (MPI
    /// send, no one-sided shortcut).
    fn post(&self, from: usize, to: usize, msg: Msg) {
        if !self.cfg.topology.is_local(from, to) {
            let bytes = match &msg {
                Msg::Work(batch) => batch.payload_bytes() + 64,
                _ => 64,
            };
            self.world.interconnect.charge_write(bytes);
        }
        let _ = self.senders[to].send(msg);
    }

    /// Is the run over? The invariant makes a single observation
    /// sufficient; a confirming read is cheap insurance.
    fn quiet(&self) -> bool {
        let idle = || {
            self.active.load(Ordering::Acquire) == 0 && self.in_flight.load(Ordering::Acquire) == 0
        };
        idle() && {
            std::thread::sleep(Duration::from_micros(100));
            idle()
        }
    }
}

/// One agent's bound source: the runtime's [`GlobalIncumbent`] over the
/// controller's registers, plus PaCCS's message bill — the broadcast
/// tree's fan-out per accepted improvement, and one controller pull per
/// `Periodic` refresh from off the controller's node.
struct AgentBound<'s, 'p> {
    shared: &'s Shared<'p>,
    id: usize,
    cells: GlobalIncumbent<'s>,
    /// Ticks with `cells`' own `Periodic` cadence (one `due` per read).
    pulls: RefreshGate,
    billed: Cell<u64>,
}

impl<'s, 'p> AgentBound<'s, 'p> {
    fn new(id: usize, shared: &'s Shared<'p>) -> Self {
        let (world, node) = (shared.world, shared.cfg.topology.node_of(id));
        AgentBound {
            shared,
            id,
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
            billed: Cell::new(0),
        }
    }
}

impl Incumbent for AgentBound<'_, '_> {
    fn get(&self) -> i64 {
        if let BoundPolicy::Periodic { every } = self.shared.cfg.bound_policy {
            let off_controller = self.shared.cfg.topology.node_of(self.id) != 0;
            if self.pulls.due(every) && off_controller {
                self.billed.set(self.billed.get() + 1);
            }
        }
        self.cells.get()
    }

    fn submit(&self, cost: i64) -> bool {
        let improved = self.cells.submit(cost);
        if improved {
            let policy = self.shared.cfg.bound_policy;
            let msgs = self.shared.tree.improvement_msgs(policy, self.id);
            self.billed.set(self.billed.get() + msgs);
        }
        improved
    }
}

/// Sink under an agent's [`ProcCtx`]: children go onto the back of the
/// agent's own deque, in boxes recycled from finished items; each solution
/// notifies the controller (one billed message — the assignment stays in
/// the processor's output); `cancel` raises the winner flag.
struct AgentSink<'b, 'w> {
    stack: &'b mut VecDeque<WorkItem>,
    spare: &'b mut Vec<WorkItem>,
    solutions: &'b mut u64,
    messages: &'b mut u64,
    gate: &'b WinnerGate<'w>,
    /// The fabric a controller notification crosses (`None` on node 0).
    to_controller: Option<&'w Interconnect>,
}

impl WorkSink for AgentSink<'_, '_> {
    fn push(&mut self, item: &[u64]) {
        let mut slot = self.spare.pop().unwrap_or_else(|| item.into());
        slot.copy_from_slice(item);
        self.stack.push_back(slot);
    }

    fn solution(&mut self) {
        *self.solutions += 1;
        *self.messages += 1;
        if let Some(ic) = self.to_controller {
            ic.charge_write(64);
        }
    }

    fn cancel(&mut self) {
        self.gate.raise();
    }
}

/// One search agent: a private deque, the item in hand, a processor and
/// its [`WorkerStats`]. A [`WorkerMachine::paccs`] sequences it, steal
/// sweep included; the agent performs each action over its channels.
struct Agent<'s, 'p, P: Processor> {
    id: usize,
    shared: &'s Shared<'p>,
    rx: Receiver<Msg>,
    processor: P,
    stats: WorkerStats,
    stack: VecDeque<WorkItem>,
    /// The item being expanded, out of the deque: a request splits only
    /// what is queued.
    cur: Option<WorkItem>,
    /// Boxes of finished items, reused for the next pushes.
    spare: Vec<WorkItem>,
    bound: AgentBound<'s, 'p>,
    gate: WinnerGate<'s>,
    ring: RaceRing,
}

impl<'s, 'p, P: Processor> Agent<'s, 'p, P> {
    fn new(id: usize, shared: &'s Shared<'p>, rx: Receiver<Msg>, processor: P) -> Self {
        Agent {
            id,
            shared,
            rx,
            processor,
            stats: WorkerStats::new(id, shared.cfg.topology.node_of(id)),
            stack: VecDeque::new(),
            cur: None,
            spare: Vec::new(),
            bound: AgentBound::new(id, shared),
            gate: WinnerGate::new(shared.world, id, shared.cfg.mode.is_race()),
            ring: RaceRing::new(),
        }
    }

    /// Send to another agent, billed to this one.
    fn send(&mut self, to: usize, msg: Msg) {
        self.stats.messages += 1;
        self.shared.post(self.id, to, msg);
    }

    /// Perform each action the machine asks for and feed back what
    /// happened, until the controller terminates the run.
    fn run(mut self) -> (WorkerStats, P::Output) {
        let cfg = self.shared.cfg;
        let mut machine = WorkerMachine::paccs(self.id, &cfg.topology, &cfg.steal, 0);
        let mut outcome = Outcome::Ok;
        loop {
            outcome = match machine.step(outcome, &mut self) {
                Action::Expand => {
                    self.expand();
                    Outcome::Expanded {
                        more: self.cur.is_some() && !self.gate.raised(),
                    }
                }
                Action::Poll => self
                    .progress()
                    .map_or(Outcome::Terminated, |hit| Outcome::Polled { hit }),
                Action::AcquireOwn => {
                    self.cur = self.stack.pop_back();
                    Outcome::Acquired(self.cur.is_some())
                }
                Action::PostRequest(victim) => self.request(victim),
                Action::Drain => {
                    self.drain();
                    Outcome::Ok
                }
                Action::Backoff(_) => {
                    self.stats.clock.set(WorkerState::Idle);
                    std::thread::sleep(STEAL_RETRY_BACKOFF);
                    self.progress().map_or(Outcome::Terminated, |_| Outcome::Ok)
                }
                Action::Done => break,
                a => unreachable!("a PaCCS agent is never asked to {a:?}"),
            };
        }
        self.stats.bound_msgs = self.bound.billed.get();
        self.stats.clock.finish();
        (self.stats, self.processor.finish())
    }

    /// Expand the item in hand; a `Continue` keeps it in hand.
    fn expand(&mut self) {
        let mut item = self.cur.take().expect("an item in hand");
        self.stats.clock.tick(WorkerState::Working);
        self.stats.items += 1;
        if self.shared.cfg.mode.is_race() {
            self.ring.record(self.shared.world.elapsed_ns());
        }
        let node = self.stats.node;
        let mut sink = AgentSink {
            stack: &mut self.stack,
            spare: &mut self.spare,
            solutions: &mut self.stats.solutions,
            messages: &mut self.stats.messages,
            gate: &self.gate,
            to_controller: (node != 0).then_some(&self.shared.world.interconnect),
        };
        let mut ctx = ProcCtx::new(self.id, node, &mut self.stats.phase, &self.bound, &mut sink);
        match self.processor.process(&mut item, &mut ctx) {
            Step::Leaf => self.spare.push(item),
            Step::Continue => self.cur = Some(item),
        }
        if self.cur.is_none() && self.stack.is_empty() {
            // Out of work: stop being counted before the idle sweep.
            self.shared.active.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// MPI progress: serve every request that has arrived. `None` once the
    /// controller terminated the run.
    fn progress(&mut self) -> Option<bool> {
        let mut hit = false;
        while let Ok(msg) = self.rx.try_recv() {
            match msg {
                Msg::StealReq { thief } => {
                    self.reply_steal(thief);
                    hit = true;
                }
                Msg::Terminate => return None,
                Msg::Work(_) | Msg::NoWork => {
                    unreachable!("a reply reaches only an agent waiting on its request")
                }
            }
        }
        Some(hit)
    }

    /// Victim side of a steal: hand over the oldest half of the deque (the
    /// largest sub-problems) under the rulebook's cap for the thief's
    /// distance. The victim always keeps at least one queued item, so it
    /// stays active.
    fn reply_steal(&mut self, thief: usize) {
        self.stats.clock.set(WorkerState::Poll);
        let cfg = self.shared.cfg;
        let cap = cfg
            .steal
            .chunk_cap(&cfg.topology, cfg.topology.distance(self.id, thief));
        let batch = WorkBatch::split_front(&mut self.stack, cap as usize);
        if batch.is_empty() {
            self.stats.requests_refused += 1;
            self.send(thief, Msg::NoWork);
        } else {
            self.stats.requests_served += 1;
            self.shared.in_flight.fetch_add(1, Ordering::AcqRel);
            self.send(thief, Msg::Work(batch));
        }
    }

    /// Ask `victim` for work and block for its reply, serving the requests
    /// that reach this agent meanwhile.
    fn request(&mut self, victim: usize) -> Outcome {
        let local = self.shared.cfg.topology.is_local(victim, self.id);
        self.stats.clock.set(WorkerState::FindRemote);
        self.send(victim, Msg::StealReq { thief: self.id });
        self.stats.clock.set(WorkerState::WaitRemote);
        loop {
            match self.rx.recv() {
                Ok(Msg::Work(batch)) => return self.landed(victim, local, batch),
                Ok(Msg::NoWork) => {
                    let s = &mut self.stats;
                    *if local {
                        &mut s.local_steal_failures
                    } else {
                        &mut s.remote_steal_failures
                    } += 1;
                    return Outcome::MISSED;
                }
                Ok(Msg::StealReq { thief }) => {
                    self.reply_steal(thief);
                    self.stats.clock.set(WorkerState::WaitRemote);
                }
                Ok(Msg::Terminate) | Err(_) => return Outcome::Terminated,
            }
        }
    }

    /// Work from `victim`: the oldest item to hand, the rest onto the deque
    /// (activate, then release the in-flight count: the termination
    /// invariant). Work landing after the winner flag counts as a drain.
    fn landed(&mut self, victim: usize, local: bool, batch: WorkBatch) -> Outcome {
        let items = batch.len() as u64;
        self.shared.active.fetch_add(1, Ordering::AcqRel);
        self.shared.in_flight.fetch_sub(1, Ordering::AcqRel);
        batch.adopt_into(&mut self.stack);
        self.cur = self.stack.pop_front();
        let won = self.gate.raised();
        let s = &mut self.stats;
        if won {
            s.drain_steals += 1;
        } else {
            let topo = &self.shared.cfg.topology;
            s.steals_by_distance.record(topo.distance(self.id, victim));
            let (steals, stolen) = if local {
                (&mut s.local_steals, &mut s.local_steal_items)
            } else {
                (&mut s.remote_steals, &mut s.remote_steal_items)
            };
            *steals += 1;
            *stolen += items;
        }
        Outcome::Stole { items, won }
    }

    /// A won race: abandon the item in hand and the deque. Requests are
    /// still served (refused) until the controller terminates the run.
    fn drain(&mut self) {
        let held = self.stack.len() as u64 + u64::from(self.cur.is_some());
        if held > 0 {
            self.stats.abandoned_items += held;
            self.spare.extend(self.cur.take());
            self.spare.extend(self.stack.drain(..));
            // We held work, so we were counted active.
            self.shared.active.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// An agent scans no peer: it sweeps requests instead.
impl<P: Processor> ScanView for Agent<'_, '_, P> {
    fn shared_len(&mut self, _: usize) -> u64 {
        unreachable!("a PaCCS agent scans no peer")
    }

    fn probe_remote(&mut self, _: usize) -> Option<u64> {
        unreachable!("a PaCCS agent scans no peer")
    }
}

/// What the machine observes of an agent: the winner flag, whose first
/// observation settles the race account.
impl<P: Processor> WorkerView for Agent<'_, '_, P> {
    fn own_lens(&mut self) -> (u64, u64) {
        (0, self.stack.len() as u64)
    }

    fn won(&mut self) -> bool {
        if !self.gate.raised() {
            return false;
        }
        if let Some(n) = self.gate.settle(&self.ring) {
            self.stats.nodes_after_win = n;
        }
        true
    }
}

/// Run `roots` through per-agent processors created by `factory` (called
/// once per agent, from that agent's thread) on the PaCCS architecture: a
/// controller plus one search agent per worker of `cfg.topology`, agent 0
/// seeded with every root. Every root and work item is `slot_words` u64s.
///
/// A panicking agent ends the run: the controller terminates the others,
/// joins them all and re-raises the first panic.
pub fn run_paccs<P, F>(
    cfg: &PaccsConfig,
    slot_words: usize,
    roots: &[Vec<u64>],
    factory: F,
) -> RunReport<P::Output>
where
    P: Processor,
    F: Fn(usize) -> P + Sync,
{
    assert!(!roots.is_empty(), "need at least one root work item");
    for r in roots {
        assert_eq!(r.len(), slot_words, "root size must match slot_words");
    }
    let n = cfg.topology.total_workers();
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| channel::<Msg>()).unzip();

    // The controller *is* the root register block of a `World` (created
    // last, so its epoch times both the wall clock and the win instant).
    let world = World::new(cfg.topology.clone(), cfg.latency, 16);
    let shared = Shared {
        cfg,
        world: &world,
        senders,
        active: AtomicUsize::new(1), // the seeded agent, counted up front
        in_flight: AtomicUsize::new(0),
        tree: BroadcastTree::new(&cfg.topology),
    };

    let joined: Vec<_> = std::thread::scope(|s| {
        let (shared, factory) = (&shared, &factory);
        let handles: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(id, rx)| {
                s.spawn(move || {
                    let mut agent = Agent::new(id, shared, rx, factory(id));
                    if id == 0 {
                        agent
                            .stack
                            .extend(roots.iter().map(|r| r.as_slice().into()));
                    }
                    agent.run()
                })
            })
            .collect();

        // ---- controller: detect termination, or an agent's death --------
        // Agents return only when terminated, so one that finished early
        // panicked: its work never balances `active`, and a thief may be
        // blocked on its reply. Terminate everyone either way.
        while !shared.quiet() && !handles.iter().any(|h| h.is_finished()) {
            std::thread::yield_now();
        }
        for id in 0..n {
            shared.post(0, id, Msg::Terminate);
        }
        handles.into_iter().map(|h| h.join()).collect()
    });
    let wall = world.start.elapsed();

    let (workers, outputs) = joined
        .into_iter()
        .map(|r| r.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
        .unzip();
    RunReport {
        wall,
        workers,
        outputs,
        traffic: world.interconnect.counters.snapshot(),
        incumbent: world.cells.load_i64(world.block.incumbent()),
        first_solution: WinnerGate::win_time(&world),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paccs_solve;
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
        use std::sync::mpsc;

        for seed in 1..=20u64 {
            // Spread the fault over the 8 191-node tree: near the root,
            // deep, early and late in the depth-first order.
            let at = 1 + (seed * 2_654_435_761) % 8191;
            let (done, watchdog) = mpsc::channel();
            // Detached on purpose: a hung run cannot be joined, only timed
            // out.
            std::thread::spawn(move || {
                let cfg = PaccsConfig::clustered(4, 2);
                let run = std::panic::catch_unwind(|| {
                    run_paccs(&cfg, 2, &[vec![0, 1]], |_| Faulty { panic_at: at })
                });
                let _ = done.send(run.map(|r| r.total_items()));
            });
            match watchdog.recv_timeout(Duration::from_secs(10)) {
                Ok(Err(payload)) => {
                    let got = payload.downcast_ref::<(&str, u64)>();
                    assert_eq!(got, Some(&("injected", at)), "seed {seed}");
                }
                Ok(Ok(items)) => panic!("seed {seed}: node {at} never ran ({items} items)"),
                Err(_) => panic!("seed {seed}: run hung after node {at} panicked"),
            }
        }
    }
}
