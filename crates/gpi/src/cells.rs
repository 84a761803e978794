//! A small register file in global memory.

use crate::interconnect::Interconnect;
use crate::segment::{Segment, LINE_WORDS};

/// Well-known registers shared by every worker of a run: the outstanding-
/// work counter for termination detection, the branch-and-bound incumbent,
/// and whatever else a computation needs. Conceptually these live in the
/// global-memory partition of node 0; workers on other nodes reach them
/// with remote atomics.
///
/// Every register has a 64-byte cache line to itself (register `i` is
/// word `i * LINE_WORDS` of a line-aligned segment). The registers have
/// disjoint writers and readers at very different rates — the
/// termination counter takes a `fetch_add` per *push* from every worker,
/// the cancel flag and the lease width are loaded by every worker every
/// node and written almost never, the incumbent is read on a cadence —
/// so packed eight to a line, each push invalidated the line every other
/// worker's next cancel check needed. Register *indices* are unchanged:
/// the spacing is private to the accessors below.
#[derive(Debug)]
pub struct GlobalCells {
    seg: Segment,
}

/// Register index of the termination (outstanding work) counter.
pub const CELL_OUTSTANDING: usize = 0;
/// Register index of the branch-and-bound incumbent (i64, `i64::MAX` = none).
pub const CELL_INCUMBENT: usize = 1;
/// Register index of the global solution counter.
pub const CELL_SOLUTIONS: usize = 2;
/// Register index of the cooperative-cancellation flag (non-zero = every
/// worker should discard its remaining work and terminate). In a
/// first-solution race this is the root *winner flag*.
pub const CELL_CANCEL: usize = 3;
/// Register index of the winner timestamp (i64 nanoseconds since the run
/// start, `i64::MAX` = no winner yet; the first winner `fetch_min`s its
/// time in, so concurrent solutions resolve to the earliest).
pub const CELL_WIN_NS: usize = 4;
/// Register index of the worker-set *lease width* (multi-tenant service
/// runs): the number of workers — counted in the job's own dense worker
/// ids — currently leased to this computation. A worker whose id is `>=`
/// the width is **parked**: it stops expanding and stealing, publishes its
/// pool and serves thieves until the width grows back over it or the job
/// terminates. Single-tenant worlds never read this register.
pub const CELL_LEASE: usize = 5;
/// Register index of the parked-worker count (multi-tenant service runs):
/// a worker increments it when it parks (see [`CELL_LEASE`]) and
/// decrements it when the lease grows back over its id or the run ends.
/// The scheduler reads it as the shrink handshake — a lease shrink has
/// *taken effect* once this register reaches the number of out-of-lease
/// workers, i.e. once they have all published their pools and stopped
/// processing. Single-tenant worlds never touch this register.
pub const CELL_PARKED: usize = 6;
/// First register index free for application use.
pub const CELL_USER: usize = 8;
/// Base of the per-node bound-mirror block (hierarchical bound
/// dissemination): register `CELL_NODE_BOUND_BASE + n` caches the global
/// incumbent for shared-memory node `n`. Conceptually each mirror lives in
/// node `n`'s own global-memory partition, so workers on `n` read it
/// locally while only the node leader pays the fabric to refresh it from
/// [`CELL_INCUMBENT`]. Size the register file with
/// [`GlobalCells::with_node_mirrors`].
pub const CELL_NODE_BOUND_BASE: usize = CELL_USER;

/// Register holding node `n`'s mirror of the incumbent.
#[inline]
pub const fn node_bound_cell(node: usize) -> usize {
    CELL_NODE_BOUND_BASE + node
}

/// Register holding node `n`'s mirror of the cancellation/winner flag
/// (first-solution races). The mirror block sits directly after the bound
/// mirrors, so its base depends on the machine's node count: like the
/// bound mirrors, each flag conceptually lives in node `n`'s own
/// partition — workers poll it with a local load, and only the node
/// leader pays the fabric to refresh it from [`CELL_CANCEL`].
#[inline]
pub const fn node_cancel_cell(node: usize, nodes: usize) -> usize {
    CELL_NODE_BOUND_BASE + nodes + node
}

/// One job's window into a shared register file.
///
/// A multi-tenant service co-schedules several solve jobs over one
/// machine, and therefore over one global-memory register file. Every
/// register a job's workers touch — the termination counter, the
/// incumbent, the winner flag, the lease width, the per-node mirrors —
/// must be private to that job, or tenants read each other's state. A
/// `CellBlock` is that private window: a base offset plus a mirror
/// capacity, with the *same internal layout* as the classic single-job
/// register file (the root block at base 0 is bit-compatible with
/// [`GlobalCells::with_node_mirrors`]).
///
/// Crucially the node-mirror registers are **lease-relative**: a job
/// leased machine nodes `[7, 10)` addresses its mirrors as nodes `0..3`
/// *of its own block*. Indexing mirrors by *machine* node in a shared
/// file is exactly the cross-tenant leak the service layer must avoid:
/// when a lease shrinks and the freed node is re-leased to another job,
/// a machine-indexed mirror would hand the new tenant the old tenant's
/// bound/winner values (see the `lease_relative_mirrors_isolate_tenants`
/// test).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellBlock {
    base: usize,
    nodes: usize,
}

impl CellBlock {
    /// Registers reserved ahead of the mirror blocks (the well-known
    /// `CELL_*` indices).
    pub const HEADER: usize = CELL_USER;

    /// Total registers a block with `nodes` mirror pairs occupies.
    #[inline]
    pub const fn size(nodes: usize) -> usize {
        Self::HEADER + 2 * nodes
    }

    /// The classic single-job window at base 0 — the layout
    /// [`GlobalCells::with_node_mirrors`] builds and every pre-service
    /// world uses.
    #[inline]
    pub const fn root(nodes: usize) -> Self {
        CellBlock { base: 0, nodes }
    }

    /// The `job`-th of a run of equally-sized blocks starting at
    /// register 0 (how [`GlobalCells::with_job_blocks`] lays them out).
    #[inline]
    pub const fn for_job(job: usize, nodes: usize) -> Self {
        CellBlock {
            base: job * Self::size(nodes),
            nodes,
        }
    }

    /// Mirror capacity (in shared-memory nodes) of this block.
    #[inline]
    pub const fn mirror_nodes(&self) -> usize {
        self.nodes
    }

    /// First register past this block.
    #[inline]
    pub const fn end(&self) -> usize {
        self.base + Self::size(self.nodes)
    }

    #[inline]
    pub const fn outstanding(&self) -> usize {
        self.base + CELL_OUTSTANDING
    }

    #[inline]
    pub const fn incumbent(&self) -> usize {
        self.base + CELL_INCUMBENT
    }

    #[inline]
    pub const fn solutions(&self) -> usize {
        self.base + CELL_SOLUTIONS
    }

    #[inline]
    pub const fn cancel(&self) -> usize {
        self.base + CELL_CANCEL
    }

    #[inline]
    pub const fn win_ns(&self) -> usize {
        self.base + CELL_WIN_NS
    }

    #[inline]
    pub const fn lease(&self) -> usize {
        self.base + CELL_LEASE
    }

    #[inline]
    pub const fn parked(&self) -> usize {
        self.base + CELL_PARKED
    }

    /// The bound mirror of this job's node `node` — **lease-relative**:
    /// node 0 is the first node of the job's lease, wherever that lease
    /// sits on the machine.
    #[inline]
    pub fn node_bound(&self, node: usize) -> usize {
        debug_assert!(node < self.nodes, "mirror index beyond block capacity");
        self.base + CELL_NODE_BOUND_BASE + node
    }

    /// The cancel/winner mirror of this job's node `node`
    /// (lease-relative, directly after the bound mirrors).
    #[inline]
    pub fn node_cancel(&self, node: usize) -> usize {
        debug_assert!(node < self.nodes, "mirror index beyond block capacity");
        self.base + CELL_NODE_BOUND_BASE + self.nodes + node
    }

    /// Do two blocks overlap? (They never should — the allocator hands
    /// out disjoint windows.)
    pub fn overlaps(&self, other: &CellBlock) -> bool {
        self.base < other.end() && other.base < self.end()
    }
}

impl GlobalCells {
    pub fn new(count: usize) -> Self {
        GlobalCells {
            seg: Segment::new(count.max(CELL_USER) * LINE_WORDS),
        }
    }

    /// Segment word holding register `idx`.
    #[inline]
    fn word(idx: usize) -> usize {
        idx * LINE_WORDS
    }

    /// Address of register `idx` (layout tests).
    pub fn cell_addr(&self, idx: usize) -> usize {
        self.seg.word_addr(Self::word(idx))
    }

    /// A register file of at least `min_cells` registers with one bound
    /// mirror and one cancel/winner mirror per shared-memory node, the
    /// bound cells (root and mirrors) initialised to "no incumbent"
    /// (`i64::MAX`), the winner cells to "no winner". This is how
    /// [`World`](crate::World) sizes its cells.
    pub fn with_node_mirrors(nodes: usize, min_cells: usize) -> Self {
        let cells = GlobalCells::new(min_cells.max(CellBlock::size(nodes)));
        cells.reset_block(CellBlock::root(nodes), u64::MAX);
        cells
    }

    /// A register file holding `blocks` per-job windows of
    /// `nodes_per_block` mirror pairs each (see [`CellBlock`]), every
    /// block reset to its idle state. Multi-tenant services grab one
    /// block per co-scheduled job with [`CellBlock::for_job`].
    pub fn with_job_blocks(blocks: usize, nodes_per_block: usize) -> Self {
        let cells = GlobalCells::new(blocks.max(1) * CellBlock::size(nodes_per_block));
        for j in 0..blocks {
            cells.reset_block(CellBlock::for_job(j, nodes_per_block), u64::MAX);
        }
        cells
    }

    /// Re-initialise one job window for a fresh computation: termination
    /// counter and solution count to 0, incumbent and winner (root *and*
    /// every mirror) to their "none" sentinels, cancel flags cleared, and
    /// the lease register to `lease_workers`. Granting a recycled block
    /// without this reset is how one tenant's bound would leak into the
    /// next — the reset is part of the lease-grant protocol.
    pub fn reset_block(&self, block: CellBlock, lease_workers: u64) {
        assert!(
            block.end() <= self.len(),
            "cell block {block:?} beyond the register file ({} cells)",
            self.len()
        );
        self.store_i64(block.outstanding(), 0);
        self.store_i64(block.incumbent(), i64::MAX);
        self.store(block.solutions(), 0);
        self.store(block.cancel(), 0);
        self.store_i64(block.win_ns(), i64::MAX);
        self.store(block.lease(), lease_workers);
        self.store(block.parked(), 0);
        for n in 0..block.mirror_nodes() {
            self.store_i64(block.node_bound(n), i64::MAX);
            self.store(block.node_cancel(n), 0);
        }
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.seg.len() / LINE_WORDS
    }

    pub fn is_empty(&self) -> bool {
        self.seg.is_empty()
    }

    #[inline]
    pub fn load(&self, idx: usize) -> u64 {
        self.seg.load_notify(Self::word(idx))
    }

    #[inline]
    pub fn store(&self, idx: usize, v: u64) {
        self.seg.store_notify(Self::word(idx), v)
    }

    #[inline]
    pub fn load_i64(&self, idx: usize) -> i64 {
        self.seg.load_notify(Self::word(idx)) as i64
    }

    #[inline]
    pub fn store_i64(&self, idx: usize, v: i64) {
        self.seg.store_notify(Self::word(idx), v as u64)
    }

    #[inline]
    pub fn fetch_add_i64(&self, idx: usize, delta: i64) -> i64 {
        self.seg.fetch_add_i64(Self::word(idx), delta)
    }

    #[inline]
    pub fn fetch_add(&self, idx: usize, delta: u64) -> u64 {
        self.seg.fetch_add(Self::word(idx), delta)
    }

    #[inline]
    pub fn fetch_min_i64(&self, idx: usize, v: i64) -> i64 {
        self.seg.fetch_min_i64(Self::word(idx), v)
    }

    // Root-register flavours: the same operation from a worker that may
    // sit off node 0 — `via` is the interconnect to charge, `None` for a
    // worker on the register's own node.

    #[inline]
    pub fn load_i64_via(&self, via: Option<&Interconnect>, idx: usize) -> i64 {
        if let Some(ic) = via {
            ic.charge_read(8);
        }
        self.load_i64(idx)
    }

    #[inline]
    pub fn fetch_min_i64_via(&self, via: Option<&Interconnect>, idx: usize, v: i64) -> i64 {
        if let Some(ic) = via {
            ic.charge_atomic();
        }
        self.fetch_min_i64(idx, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interconnect::LatencyModel;

    #[test]
    fn minimum_size_covers_reserved_cells() {
        let c = GlobalCells::new(0);
        assert!(c.len() >= CELL_USER);
    }

    #[test]
    fn node_mirrors_start_empty() {
        let c = GlobalCells::with_node_mirrors(3, 0);
        assert!(c.len() > node_cancel_cell(2, 3));
        assert_eq!(c.load_i64(CELL_INCUMBENT), i64::MAX);
        assert_eq!(c.load_i64(CELL_WIN_NS), i64::MAX);
        for n in 0..3 {
            assert_eq!(c.load_i64(node_bound_cell(n)), i64::MAX);
            assert_eq!(c.load(node_cancel_cell(n, 3)), 0);
        }
        assert!(GlobalCells::with_node_mirrors(1, 32).len() >= 32);
    }

    #[test]
    fn cancel_mirror_block_follows_bound_block() {
        // The two mirror blocks must never overlap, whatever the node
        // count.
        for nodes in 1..=5 {
            assert_eq!(node_cancel_cell(0, nodes), node_bound_cell(nodes - 1) + 1);
        }
    }

    #[test]
    fn root_block_matches_legacy_layout() {
        // `CellBlock::root` must address exactly the registers the classic
        // constants name — the pre-service world layout is the job-0 block.
        for nodes in 1..=5 {
            let b = CellBlock::root(nodes);
            assert_eq!(b.outstanding(), CELL_OUTSTANDING);
            assert_eq!(b.incumbent(), CELL_INCUMBENT);
            assert_eq!(b.solutions(), CELL_SOLUTIONS);
            assert_eq!(b.cancel(), CELL_CANCEL);
            assert_eq!(b.win_ns(), CELL_WIN_NS);
            assert_eq!(b.lease(), CELL_LEASE);
            assert_eq!(b.parked(), CELL_PARKED);
            for n in 0..nodes {
                assert_eq!(b.node_bound(n), node_bound_cell(n));
                assert_eq!(b.node_cancel(n), node_cancel_cell(n, nodes));
            }
            assert_eq!(b.end(), CELL_NODE_BOUND_BASE + 2 * nodes);
        }
    }

    #[test]
    fn job_blocks_are_disjoint() {
        let blocks: Vec<CellBlock> = (0..4).map(|j| CellBlock::for_job(j, 3)).collect();
        for (i, a) in blocks.iter().enumerate() {
            assert!(a.overlaps(a));
            for b in &blocks[i + 1..] {
                assert!(!a.overlaps(b), "{a:?} overlaps {b:?}");
                assert!(!b.overlaps(a));
            }
        }
        // Adjacent blocks tile the file with no gap: the allocator can
        // size the segment as blocks * size.
        assert_eq!(blocks[0].end(), CellBlock::for_job(1, 3).outstanding());
    }

    #[test]
    fn lease_relative_mirrors_isolate_tenants() {
        // Two co-scheduled jobs whose leases both contain "their node 0"
        // — on a machine-indexed mirror scheme (the old `node_bound_cell`
        // global) the second tenant would read the first tenant's bound.
        // Lease-relative blocks keep the mirrors disjoint.
        let cells = GlobalCells::with_job_blocks(2, 2);
        let a = CellBlock::for_job(0, 2);
        let b = CellBlock::for_job(1, 2);

        // Tenant A publishes a tight bound into its node-0 mirror.
        cells.store_i64(a.node_bound(0), 42);
        cells.store(a.node_cancel(0), 1);

        // Tenant B's mirrors must still read idle.
        assert_eq!(cells.load_i64(b.node_bound(0)), i64::MAX);
        assert_eq!(cells.load(b.node_cancel(0)), 0);

        // Recycling A's block for a new job wipes the old tenant's state.
        cells.reset_block(a, 8);
        assert_eq!(cells.load_i64(a.node_bound(0)), i64::MAX);
        assert_eq!(cells.load(a.node_cancel(0)), 0);
        assert_eq!(cells.load(a.lease()), 8);
        // ... without touching B.
        assert_eq!(cells.load(b.lease()), u64::MAX);
    }

    #[test]
    fn every_register_of_every_job_has_its_own_cache_line() {
        let nodes = 3;
        let cells = GlobalCells::with_job_blocks(2, nodes);
        assert_eq!(cells.cell_addr(0) % 64, 0, "register file is line-aligned");
        let registers = |b: CellBlock| {
            let mut r = vec![
                b.outstanding(),
                b.incumbent(),
                b.solutions(),
                b.cancel(),
                b.win_ns(),
                b.lease(),
                b.parked(),
            ];
            for n in 0..nodes {
                r.push(b.node_bound(n));
                r.push(b.node_cancel(n));
            }
            r
        };
        // The hot pair the layout exists for, then everything else: no two
        // registers of one job, and no two registers of different jobs,
        // on one line.
        let a = CellBlock::for_job(0, nodes);
        let line = |idx: usize| cells.cell_addr(idx) / 64;
        assert_ne!(line(a.outstanding()), line(a.cancel()));
        let mut lines: Vec<usize> = registers(a)
            .into_iter()
            .chain(registers(CellBlock::for_job(1, nodes)))
            .map(line)
            .collect();
        let all = lines.len();
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(lines.len(), all);
    }

    #[test]
    fn signed_round_trip() {
        let c = GlobalCells::new(16);
        c.store_i64(CELL_INCUMBENT, i64::MAX);
        assert_eq!(c.load_i64(CELL_INCUMBENT), i64::MAX);
        c.fetch_min_i64(CELL_INCUMBENT, 123);
        assert_eq!(c.load_i64(CELL_INCUMBENT), 123);
        c.fetch_add_i64(CELL_OUTSTANDING, 5);
        c.fetch_add_i64(CELL_OUTSTANDING, -3);
        assert_eq!(c.load_i64(CELL_OUTSTANDING), 2);
    }

    #[test]
    fn remote_flavours_charge() {
        let c = GlobalCells::new(16);
        let ic = Interconnect::new(LatencyModel::zero());
        c.store_i64(CELL_INCUMBENT, 9);
        // From the register's own node: the plain operation, no charge.
        assert_eq!(c.load_i64_via(None, CELL_INCUMBENT), 9);
        assert_eq!(c.fetch_min_i64_via(None, CELL_INCUMBENT, 5), 9);
        assert_eq!(ic.counters.snapshot().remote_reads, 0);
        assert_eq!(ic.counters.snapshot().remote_atomics, 0);
        assert_eq!(c.load_i64_via(Some(&ic), CELL_INCUMBENT), 5);
        assert_eq!(c.fetch_min_i64_via(Some(&ic), CELL_INCUMBENT, 1), 5);
        let s = ic.counters.snapshot();
        assert_eq!(s.remote_atomics, 1);
        assert_eq!(s.remote_reads, 1);
    }
}
