//! What other workers read of a virtual worker — its pool and its MaCS
//! mailbox, one cache line each — and the per-node census of pools with
//! viable surplus that lets a victim scan pass a dry node unread.
//!
//! The split index is private to this module: every move of it goes
//! through [`Probes::resplit`], which keeps the census exact, so no
//! caller can change what a thief may be granted without the census
//! seeing it.

use std::collections::vec_deque::Drain;
use std::collections::VecDeque;
use std::ops::{Index, IndexMut};

use macs_runtime::MachineTopology;
use macs_search::steal::{surplus, PoolView, UNLEASED};

/// One worker's pool in simulator form — a deque of arena slot ids (front
/// = tail = oldest), the first `split` of them shared and stealable — and
/// its MaCS mailbox, kept out of the (1 KB) per-worker state in one dense
/// array: a victim scan loads the probed worker's line and nothing else
/// of it, and a node's pools are adjacent lines.
#[derive(Default)]
#[repr(align(64))]
pub(crate) struct Probe {
    ids: VecDeque<u32>,
    split: usize,
    /// MaCS: at most one pending remote request (thief, arrival time).
    pub(crate) pending_req: Option<(usize, u64)>,
}

impl Probe {
    pub(crate) fn private(&self) -> usize {
        self.ids.len() - self.split
    }

    pub(crate) fn shared(&self) -> usize {
        self.split
    }

    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }
}

/// Does a pool of `split` shared items on worker `w` hold viable surplus
/// (R2)? A virtual worker is never leased.
#[inline]
fn viable(split: usize, w: usize) -> bool {
    surplus(split as u64, w, UNLEASED) > 0
}

/// Every worker's [`Probe`] line, and per node how many of them hold
/// viable surplus.
pub(crate) struct Probes {
    lines: Vec<Probe>,
    /// `viable[n]`: pools on node `n` a scan could be granted from.
    viable: Vec<u32>,
    node_size: usize,
}

impl Probes {
    pub(crate) fn new(topo: &MachineTopology) -> Self {
        Probes {
            lines: (0..topo.total_workers())
                .map(|_| Probe::default())
                .collect(),
            viable: vec![0; topo.nodes()],
            node_size: topo.node_size(),
        }
    }

    /// No pool on node `n` holds viable surplus.
    #[inline]
    pub(crate) fn dry(&self, n: usize) -> bool {
        self.viable[n] == 0
    }

    /// Move `w`'s split to `split`, and the census with it.
    #[inline]
    fn resplit(&mut self, w: usize, split: usize) {
        let line = &mut self.lines[w];
        let (was, now) = (viable(line.split, w), viable(split, w));
        line.split = split;
        if was != now {
            let n = &mut self.viable[w / self.node_size];
            if now {
                *n += 1;
            } else {
                *n -= 1;
            }
        }
    }

    /// New items enter `w`'s private region.
    pub(crate) fn extend(&mut self, w: usize, ids: impl IntoIterator<Item = u32>) {
        self.lines[w].ids.extend(ids);
    }

    /// The newest private item of `w`, if any.
    pub(crate) fn pop_private(&mut self, w: usize) -> Option<u32> {
        let line = &mut self.lines[w];
        if line.private() > 0 {
            line.ids.pop_back()
        } else {
            None
        }
    }

    /// Publish up to `k` of `w`'s private items (R1); returns how many.
    pub(crate) fn release(&mut self, w: usize, k: usize) -> usize {
        let (split, m) = (self.lines[w].split, k.min(self.lines[w].private()));
        self.resplit(w, split + m);
        m
    }

    /// Take up to `k` of `w`'s shared items back private (R8).
    pub(crate) fn reacquire(&mut self, w: usize, k: usize) -> usize {
        let split = self.lines[w].split;
        let m = k.min(split);
        self.resplit(w, split - m);
        m
    }

    /// Remove the `k` oldest of `w`'s items, shared ones first.
    pub(crate) fn take_oldest(&mut self, w: usize, k: usize) -> Drain<'_, u32> {
        let split = self.lines[w].split;
        self.resplit(w, split - k.min(split));
        self.lines[w].ids.drain(..k)
    }

    /// Steal up to `max` of `w`'s oldest shared items.
    pub(crate) fn steal(&mut self, w: usize, max: usize) -> Drain<'_, u32> {
        let m = max.min(self.lines[w].split);
        self.take_oldest(w, m)
    }

    /// Empty `w`'s pool (an observed win discards it).
    pub(crate) fn clear(&mut self, w: usize) -> Drain<'_, u32> {
        let len = self.lines[w].len();
        self.take_oldest(w, len)
    }

    pub(crate) fn iter(&self) -> std::slice::Iter<'_, Probe> {
        self.lines.iter()
    }

    /// Does node `n`'s census equal a recount of its lines?
    pub(crate) fn census_holds(&self, n: usize) -> bool {
        let on = n * self.node_size..(n + 1) * self.node_size;
        let recount = on.filter(|&w| viable(self.lines[w].split, w)).count();
        self.viable[n] as usize == recount
    }

    /// Panic unless every node's census equals a full recount: O(workers),
    /// once per run, in every build.
    pub(crate) fn assert_census(&self) {
        for n in 0..self.viable.len() {
            assert!(self.census_holds(n), "node {n}: viable-pool census");
        }
    }
}

impl Index<usize> for Probes {
    type Output = Probe;
    #[inline]
    fn index(&self, w: usize) -> &Probe {
        &self.lines[w]
    }
}

/// Mailbox access: the pool fields stay private to this module.
impl IndexMut<usize> for Probes {
    #[inline]
    fn index_mut(&mut self, w: usize) -> &mut Probe {
        &mut self.lines[w]
    }
}

/// The reply rule's view of the virtual pools: granted items leave as
/// arena slot ids collected into the reply.
pub(crate) struct ReplyPools<'a> {
    pub(crate) probes: &'a mut Probes,
    pub(crate) ids: Vec<u32>,
}

impl PoolView for ReplyPools<'_> {
    fn shared_len(&self, w: usize) -> u64 {
        self.probes[w].shared() as u64
    }

    fn take(&mut self, w: usize, k: u64) -> u64 {
        let before = self.ids.len();
        self.ids.extend(self.probes.steal(w, k as usize));
        (self.ids.len() - before) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_probe_is_one_cache_line() {
        // A victim scan reads `probes[v]` and nothing else of `v`: a field
        // added to `Probe` must not push that read over a line.
        assert!(std::mem::size_of::<Probe>() <= 64);
        assert_eq!(std::mem::align_of::<Probe>(), 64);
    }

    #[test]
    fn every_split_mutator_keeps_the_census_exact() {
        // Two nodes of three: worker 4 is on node 1.
        let topo = MachineTopology::try_two_level(2, 3).unwrap();
        let mut p = Probes::new(&topo);
        let check = |p: &Probes, want: [u32; 2], what: &str| {
            p.assert_census();
            assert_eq!([p.viable[0], p.viable[1]], want, "{what}");
        };
        p.extend(4, 0..6);
        check(&p, [0, 0], "private items are no surplus");
        assert_eq!(p.release(4, 1), 1);
        check(&p, [0, 0], "one shared item is retained, not viable");
        assert_eq!(p.release(4, 9), 5);
        check(&p, [0, 1], "release");
        assert!(p.dry(0) && !p.dry(1));
        assert_eq!(p.reacquire(4, 4), 4);
        check(&p, [0, 1], "a reacquire that keeps two");
        assert_eq!(p.steal(4, 1).collect::<Vec<_>>(), vec![0]);
        check(&p, [0, 0], "a steal down to the retained item");
        p.release(4, 9);
        check(&p, [0, 1], "released again");
        let mut reply = ReplyPools {
            probes: &mut p,
            ids: Vec::new(),
        };
        assert_eq!(reply.take(4, 4), 4);
        check(&p, [0, 0], "a reply chunk down to the retained item");
        p.extend(4, 10..14);
        p.release(4, 9);
        assert_eq!(p.take_oldest(4, 4).len(), 4);
        check(&p, [0, 0], "taking the oldest");
        p.extend(4, 20..24);
        p.release(4, 9);
        check(&p, [0, 1], "released once more");
        assert_eq!(p.clear(4).len(), 5);
        check(&p, [0, 0], "a cleared pool");
        assert_eq!(p[4].len(), 0);
        p.extend(0, 0..3);
        p.release(0, 3);
        p.extend(1, 0..3);
        p.release(1, 3);
        check(&p, [2, 0], "two viable pools on one node");
        assert_eq!(p.pop_private(1), None);
        assert_eq!(p.reacquire(1, 16), 3);
        check(&p, [1, 0], "a full reacquire");
    }
}
