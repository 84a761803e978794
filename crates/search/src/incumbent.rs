//! Where the branch-and-bound bound comes from.
//!
//! The kernel only ever asks two questions — "what is the bound in force?"
//! and "does this cost improve it?" — but every execution path answers
//! them differently: threaded MaCS and threaded PaCCS read a GPI global
//! cell (possibly over the interconnect), the simulator replays a
//! virtual-time dissemination delay, and the sequential oracle keeps a
//! plain local variable. [`IncumbentSource`] abstracts exactly that seam.

use std::cell::Cell;

/// Access to the global branch-and-bound incumbent (exclusive upper
/// bound; `i64::MAX` when none exists yet).
pub trait IncumbentSource {
    /// The bound in force for the node about to be processed. May be
    /// stale, which is sound (only prunes less).
    fn bound(&self) -> i64;

    /// Offer a solution cost; returns `true` iff it strictly improved the
    /// globally known incumbent at submission time.
    fn offer(&self, cost: i64) -> bool;
}

/// No bound at all — satisfaction problems and tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoBound;

impl IncumbentSource for NoBound {
    fn bound(&self) -> i64 {
        i64::MAX
    }
    fn offer(&self, _cost: i64) -> bool {
        false
    }
}

/// Single-threaded incumbent for the sequential oracle and kernel tests.
#[derive(Debug)]
pub struct LocalIncumbent(Cell<i64>);

impl LocalIncumbent {
    pub fn new() -> Self {
        LocalIncumbent(Cell::new(i64::MAX))
    }

    pub fn get(&self) -> i64 {
        self.0.get()
    }
}

impl Default for LocalIncumbent {
    fn default() -> Self {
        LocalIncumbent::new()
    }
}

impl IncumbentSource for LocalIncumbent {
    fn bound(&self) -> i64 {
        self.0.get()
    }

    fn offer(&self, cost: i64) -> bool {
        if cost < self.0.get() {
            self.0.set(cost);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_incumbent_tracks_minimum() {
        let inc = LocalIncumbent::new();
        assert_eq!(inc.bound(), i64::MAX);
        assert!(inc.offer(10));
        assert!(!inc.offer(10));
        assert!(!inc.offer(12));
        assert!(inc.offer(3));
        assert_eq!(inc.bound(), 3);
    }
}
