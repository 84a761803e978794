//! Distributed, controller-free termination detection.
//!
//! MaCS has no controller process (its departure from PaCCS), so nobody
//! "collects idleness". Instead a single global counter tracks the number
//! of **outstanding work items** anywhere in the system — in a pool, in a
//! worker's hands, or in flight inside a steal response:
//!
//! * the counter starts at the number of root items;
//! * a worker **increments it before pushing** each child (so a child can
//!   never be observed — let alone finished — before it is counted);
//! * finishing an item (leaf) decrements it;
//! * *transfers never touch it* (a stolen item stays outstanding), so
//!   in-flight steals cannot be lost.
//!
//! Because increments happen before the work exists and decrements after it
//! is gone, the counter is always ≥ the true number of outstanding items,
//! and it reads 0 **exactly** when the computation is finished. Once 0 it
//! can never grow again (only live work creates work), so `outstanding == 0`
//! is a stable termination signal every worker can poll independently.
//!
//! Decrements are batched per worker (they only make the counter
//! over-approximate, which is safe) and flushed before any idle check.

use macs_gpi::cells::CELL_OUTSTANDING;
use macs_gpi::GlobalCells;

/// Per-worker handle on the global outstanding-work counter.
pub struct TermHandle<'a> {
    cells: &'a GlobalCells,
    /// Register holding this run's counter ([`CELL_OUTSTANDING`] for a
    /// classic single-job run; a job-block offset in multi-tenant runs, so
    /// co-scheduled jobs terminate independently).
    cell: usize,
    /// Locally batched (negative) delta not yet applied globally.
    pending: i64,
    batch: i64,
}

impl<'a> TermHandle<'a> {
    pub fn new(cells: &'a GlobalCells, batch: u32) -> Self {
        Self::new_at(cells, batch, CELL_OUTSTANDING)
    }

    /// A handle on the counter in register `cell` instead of the root
    /// [`CELL_OUTSTANDING`]. Counter updates are never charged to the
    /// fabric: real MaCS amortises termination bookkeeping asynchronously,
    /// so a synchronous round trip per push would overstate that cost by
    /// orders of magnitude.
    pub fn new_at(cells: &'a GlobalCells, batch: u32, cell: usize) -> Self {
        TermHandle {
            cells,
            cell,
            pending: 0,
            batch: -(batch.max(1) as i64),
        }
    }

    /// Count `n` new work items **before** they are published.
    #[inline]
    pub fn add(&mut self, n: u64) {
        if n != 0 {
            self.cells.fetch_add_i64(self.cell, n as i64);
        }
    }

    /// Record one finished item (batched).
    #[inline]
    pub fn finish_one(&mut self) {
        self.pending -= 1;
        if self.pending <= self.batch {
            self.flush();
        }
    }

    /// Apply any batched decrements globally.
    pub fn flush(&mut self) {
        if self.pending != 0 {
            self.cells.fetch_add_i64(self.cell, self.pending);
            self.pending = 0;
        }
    }

    /// Is the computation over? Only meaningful after [`Self::flush`].
    #[inline]
    pub fn finished(&self) -> bool {
        debug_assert_eq!(self.pending, 0, "flush before checking termination");
        self.cells.load_i64(self.cell) == 0
    }

    /// Current global value (diagnostics).
    pub fn outstanding(&self) -> i64 {
        self.cells.load_i64(self.cell)
    }
}

/// Initialise the counter for a run with `roots` initial items.
pub fn init_outstanding(cells: &GlobalCells, roots: u64) {
    init_outstanding_at(cells, CELL_OUTSTANDING, roots);
}

/// Initialise the counter in register `cell` (job-block runs).
pub fn init_outstanding_at(cells: &GlobalCells, cell: usize, roots: u64) {
    cells.store_i64(cell, roots as i64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn counter_life_cycle() {
        let cells = GlobalCells::new(8);
        init_outstanding(&cells, 1);
        let mut h = TermHandle::new(&cells, 4);
        h.add(3); // split into 3 pushed children (parent continues)
        h.finish_one(); // leaf
        h.flush();
        assert_eq!(h.outstanding(), 3);
        assert!(!h.finished());
        for _ in 0..3 {
            h.finish_one();
        }
        h.flush();
        assert!(h.finished());
    }

    #[test]
    fn batching_only_overapproximates() {
        let cells = GlobalCells::new(8);
        init_outstanding(&cells, 10);
        let mut h = TermHandle::new(&cells, 64);
        for _ in 0..9 {
            h.finish_one();
        }
        // Batch not yet flushed: the counter still shows 10 (≥ truth = 1).
        assert_eq!(h.outstanding(), 10);
        h.flush();
        assert_eq!(h.outstanding(), 1);
    }

    #[test]
    fn counter_never_dips_to_zero_while_work_exists() {
        // Phase 1: every worker churns (add 2, finish 2) while keeping its
        // own root outstanding, so the true count stays ≥ 4 and the watcher
        // must never observe 0. Phase 2 (after the watcher is stopped):
        // roots are drained and the counter must end at exactly 0.
        const WORKERS: usize = 4;
        let cells = Arc::new(GlobalCells::new(8));
        init_outstanding(&cells, WORKERS as u64);
        let sampling = Arc::new(AtomicBool::new(true));
        let phase = Arc::new(std::sync::Barrier::new(WORKERS + 1));

        let watcher = {
            let cells = Arc::clone(&cells);
            let sampling = Arc::clone(&sampling);
            std::thread::spawn(move || {
                let mut zero_early = false;
                while sampling.load(Ordering::Acquire) {
                    if cells.load_i64(CELL_OUTSTANDING) == 0 {
                        zero_early = true;
                    }
                }
                zero_early
            })
        };

        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let cells = Arc::clone(&cells);
                let phase = Arc::clone(&phase);
                std::thread::spawn(move || {
                    let mut h = TermHandle::new(&cells, 8);
                    for _ in 0..20_000 {
                        h.add(2); // split: children counted before publishing
                        h.finish_one();
                        h.finish_one();
                    }
                    h.flush();
                    phase.wait(); // end of churn
                    phase.wait(); // watcher stopped; drain the root
                    h.finish_one();
                    h.flush();
                })
            })
            .collect();

        phase.wait(); // all workers churned; their roots are still live
        sampling.store(false, Ordering::Release);
        let zero_early = watcher.join().unwrap();
        phase.wait(); // let workers drain
        for w in workers {
            w.join().unwrap();
        }
        assert!(!zero_early, "counter must not hit zero while work remains");
        assert_eq!(cells.load_i64(CELL_OUTSTANDING), 0);
    }
}
