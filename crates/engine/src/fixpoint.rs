//! The propagation queue and fixpoint loop.
//!
//! One [`Engine`] per worker; it owns all the scratch memory propagation
//! needs, so propagating a store allocates nothing. This is the
//! "propagation" step of the paper's three-step solving procedure
//! (propagation / splitting / restoring) whose cost split §VI reports.
//!
//! Two kinds of work reach a fixpoint together: the queued propagators of
//! [`CompiledProblem::props`], and the problem's [`AssignLists`] — binary
//! disequalities (alldifferents among them, as cliques) applied the moment
//! a variable becomes assigned, from a stack drained before every queue
//! pop.
//!
//! [`AssignLists`]: crate::model::AssignLists

use std::collections::VecDeque;

use macs_domain::{bits, VarId};

use crate::model::CompiledProblem;
use crate::propag::Scratch;
use crate::state::{ChangeLog, PropState};

/// Result of propagating a store to fixpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PropOutcome {
    /// A domain was wiped: the sub-problem is inconsistent.
    Failed,
    /// All propagators are at fixpoint; domains are consistent (so far).
    Fixpoint,
}

/// Which propagators to seed into the queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleSeed {
    /// Schedule every propagator and fire the assignment list of every
    /// assigned variable (used at the root, or for a store of unknown
    /// provenance, e.g. one stolen from another worker).
    All,
    /// Schedule only the watchers of one just-pruned variable, and fire its
    /// assignment list if it is assigned (used after a branching decision
    /// on that variable).
    Var(VarId),
}

/// No queued propagator is running: a list firing exempts no watcher.
const NO_PROP: u32 = u32::MAX;

/// Per-worker propagation engine: queue + scratch buffers.
#[derive(Debug)]
pub struct Engine {
    queue: VecDeque<u32>,
    queued: Vec<bool>,
    /// Variables that became assigned and whose assignment list has not
    /// fired yet (LIFO; each variable enters at most once a round, since
    /// any change after it became a singleton is a wipe-out).
    fire: Vec<VarId>,
    log: ChangeLog,
    scratch: Scratch,
    /// Number of individual propagator executions (for statistics): one
    /// per queued run, one per assignment-list entry applied (a run of
    /// entries counts each; one that wipes its target counts the entries
    /// up to and including the one that emptied it).
    pub runs: u64,
}

impl Engine {
    pub fn new(prob: &CompiledProblem) -> Self {
        // min/max scan hints only pay off on multi-word cells; a one-word
        // cell is read in a single load anyway.
        let log = if prob.layout.words_per_var() > 1 {
            ChangeLog::with_hints(prob.layout.num_vars())
        } else {
            ChangeLog::new(prob.layout.num_vars())
        };
        Engine {
            queue: VecDeque::with_capacity(prob.props.len()),
            queued: vec![false; prob.props.len()],
            fire: Vec::with_capacity(prob.layout.num_vars()),
            log,
            scratch: Scratch::for_words(prob.layout.words_per_var()),
            runs: 0,
        }
    }

    #[inline]
    fn enqueue(&mut self, p: u32) {
        if !self.queued[p as usize] {
            self.queued[p as usize] = true;
            self.queue.push_back(p);
        }
    }

    fn reset(&mut self) {
        for &p in &self.queue {
            self.queued[p as usize] = false;
        }
        self.queue.clear();
        self.fire.clear();
        // A new round also invalidates all min/max scan hints: `words` is a
        // different store than last time.
        self.log.begin_round();
    }

    /// Propagate `words` (a store of `prob`'s layout) to fixpoint.
    ///
    /// `incumbent` is the branch-and-bound exclusive upper bound in force
    /// (`i64::MAX` for satisfaction problems). When the objective incumbent
    /// may have improved since the store was created, callers should seed
    /// with [`ScheduleSeed::All`] (the objective pruner is always seeded
    /// when one exists).
    pub fn propagate(
        &mut self,
        prob: &CompiledProblem,
        words: &mut [u64],
        incumbent: i64,
        seed: ScheduleSeed,
    ) -> PropOutcome {
        self.reset();
        let lists = &prob.assign_lists;
        let layout = &prob.layout;
        let one_word = layout.words_per_var() == 1;
        let is_assigned = |words: &[u64], v: VarId| bits::is_singleton(&words[layout.var_range(v)]);
        match seed {
            ScheduleSeed::All => {
                for p in 0..prob.props.len() as u32 {
                    self.enqueue(p);
                }
                for v in 0..layout.num_vars() {
                    if !lists.runs(v).is_empty() && is_assigned(words, v) {
                        self.fire.push(v);
                    }
                }
            }
            ScheduleSeed::Var(v) => {
                // Seeding ignores wake filters: the branching decision that
                // pruned `v` happened outside any propagation round, so no
                // mask/assignment information is available for it.
                for i in 0..prob.watchers[v].len() {
                    self.enqueue(prob.watchers[v][i].prop);
                }
                // The incumbent may have moved since this store was created:
                // always re-run the objective pruner (it is the last
                // propagator when present).
                if prob.objective.is_some() {
                    self.enqueue(prob.props.len() as u32 - 1);
                }
                if !lists.runs(v).is_empty() && is_assigned(words, v) {
                    self.fire.push(v);
                }
            }
        }

        loop {
            let mut st = PropState::new(layout, words, &mut self.log, incumbent);
            let running = if let Some(v) = self.fire.pop() {
                // A variable that became assigned applies its whole list,
                // one target at a time. It is still assigned: any change
                // since would have been a wipe-out, and the round would
                // have ended there.
                let a = st
                    .value(v)
                    .expect("a variable on the fire stack stays assigned");
                for run in lists.runs(v) {
                    let other = run.other as VarId;
                    // One-word cells clear the whole run with one masked
                    // store. Multi-word cells, and a one-word wipe-out
                    // (which left the cell as it was), go value by value:
                    // that is how a wipe counts its entries exactly.
                    let applied = if one_word && st.clear_word(other, run.mask(a)).is_ok() {
                        Ok(true)
                    } else {
                        let vals = lists.offsets(run).iter().map(|&off| a as i64 + off as i64);
                        st.remove_each(other, vals)
                    };
                    match applied {
                        Ok(_) => self.runs += run.len(),
                        Err(emptied_by) => {
                            self.runs += emptied_by;
                            return PropOutcome::Failed;
                        }
                    }
                }
                NO_PROP
            } else if let Some(p) = self.queue.pop_front() {
                self.queued[p as usize] = false;
                self.runs += 1;
                let prop = &prob.props[p as usize];
                if prop
                    .run(&mut st, &mut self.scratch, &prob.objective)
                    .is_err()
                {
                    return PropOutcome::Failed;
                }
                p
            } else {
                return PropOutcome::Fixpoint;
            };
            // Schedule watchers of every variable the run pruned, filtered
            // by each watch's wake mask: the running propagator itself is
            // exempt (local-fixpoint contract), and the changed-words mask
            // must intersect the words the watcher cares about. A variable
            // that became assigned also fires its list.
            let queue = &mut self.queue;
            let queued = &mut self.queued;
            let fire = &mut self.fire;
            self.log.drain(|v, mask, assigned| {
                if assigned && !lists.runs(v).is_empty() {
                    fire.push(v);
                }
                for w in &prob.watchers[v] {
                    if w.prop != running && (w.mask & mask) != 0 && !queued[w.prop as usize] {
                        queued[w.prop as usize] = true;
                        queue.push_back(w.prop);
                    }
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;
    use crate::propag::Propag;
    use macs_domain::bits;

    #[test]
    fn chain_of_equalities_propagates_transitively() {
        // x0 = x1 + 1 = x2 + 2; assigning x2 fixes everything.
        let mut m = Model::new("chain");
        let x0 = m.new_var(0, 9);
        let x1 = m.new_var(0, 9);
        let x2 = m.new_var(0, 9);
        m.post(Propag::EqOffset { x: x0, y: x1, c: 1 });
        m.post(Propag::EqOffset { x: x1, y: x2, c: 1 });
        let p = m.compile();
        let mut s = p.root.clone();
        bits::keep_only(s.dom_mut(&p.layout, x2), 3);
        let mut e = Engine::new(&p);
        let out = e.propagate(&p, s.as_words_mut(), i64::MAX, ScheduleSeed::Var(x2));
        assert_eq!(out, PropOutcome::Fixpoint);
        assert_eq!(s.value(&p.layout, x1), Some(4));
        assert_eq!(s.value(&p.layout, x0), Some(5));
    }

    #[test]
    fn root_propagation_narrows_bounds() {
        let mut m = Model::new("le");
        let x = m.new_var(0, 9);
        let y = m.new_var(0, 9);
        m.post(Propag::LinearLe {
            terms: vec![(1, x), (1, y)],
            k: 3,
        });
        let p = m.compile();
        let mut s = p.root.clone();
        let mut e = Engine::new(&p);
        assert_eq!(
            e.propagate(&p, s.as_words_mut(), i64::MAX, ScheduleSeed::All),
            PropOutcome::Fixpoint
        );
        assert_eq!(bits::max(s.dom(&p.layout, x)), Some(3));
        assert_eq!(bits::max(s.dom(&p.layout, y)), Some(3));
    }

    #[test]
    fn failure_detected() {
        let mut m = Model::new("fail");
        let x = m.new_var(0, 4);
        let y = m.new_var(0, 4);
        m.post(Propag::EqOffset { x, y, c: 0 });
        m.post(Propag::NeqConst { x: y, v: 2 });
        let p = m.compile();
        let mut s = p.root.clone();
        bits::keep_only(s.dom_mut(&p.layout, x), 2);
        let mut e = Engine::new(&p);
        assert_eq!(
            e.propagate(&p, s.as_words_mut(), i64::MAX, ScheduleSeed::Var(x)),
            PropOutcome::Failed
        );
    }

    #[test]
    fn incumbent_prunes_objective_var() {
        let mut m = Model::new("opt");
        let x = m.new_var(0, 9);
        m.minimize_var(x);
        let p = m.compile();
        let mut s = p.root.clone();
        let mut e = Engine::new(&p);
        assert_eq!(
            e.propagate(&p, s.as_words_mut(), 5, ScheduleSeed::All),
            PropOutcome::Fixpoint
        );
        assert_eq!(bits::max(s.dom(&p.layout, x)), Some(4));
        // Incumbent 0 ⇒ nothing can be better ⇒ failure.
        let mut s2 = p.root.clone();
        assert_eq!(
            e.propagate(&p, s2.as_words_mut(), 0, ScheduleSeed::All),
            PropOutcome::Failed
        );
    }

    #[test]
    fn engine_is_reusable_after_failure() {
        let mut m = Model::new("reuse");
        let x = m.new_var(0, 4);
        let y = m.new_var(0, 4);
        m.post(Propag::EqOffset { x, y, c: 0 });
        m.post(Propag::NeqConst { x: y, v: 2 });
        let p = m.compile();
        let mut e = Engine::new(&p);
        let mut s = p.root.clone();
        bits::keep_only(s.dom_mut(&p.layout, x), 2);
        assert_eq!(
            e.propagate(&p, s.as_words_mut(), i64::MAX, ScheduleSeed::Var(x)),
            PropOutcome::Failed
        );
        // A fresh, unconstrained store must still propagate cleanly.
        let mut m2 = Model::new("ok");
        let a = m2.new_var(0, 4);
        let b = m2.new_var(0, 4);
        m2.post(Propag::EqOffset { x: a, y: b, c: 0 });
        let p2 = m2.compile();
        let mut e2 = Engine::new(&p2);
        let mut s2 = p2.root.clone();
        assert_eq!(
            e2.propagate(&p2, s2.as_words_mut(), i64::MAX, ScheduleSeed::All),
            PropOutcome::Fixpoint
        );
    }
}
