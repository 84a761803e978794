//! Declarative model construction and compilation.
//!
//! Following the paper's two-step methodology (§II: "first a model is
//! defined and then a solver is used to find solutions"), a [`Model`]
//! collects variables, constraints, an optional objective and a branching
//! specification, and [`Model::compile`] freezes it into an immutable
//! [`CompiledProblem`] that every worker shares by reference.

use std::sync::Arc;

use macs_domain::{bits, Store, StoreLayout, StoreView, Val, VarId};

use crate::branch::Brancher;
use crate::propag::Propag;
use crate::state::{Failed, PropState};

/// One entry of a variable's watcher list: which propagator to wake, and
/// when. `mask` is a changed-words filter over the variable's bitmap cell
/// ([`bits::word_bit`] indexing): the propagator is scheduled only when a
/// word it cares about changed (see
/// [`Propag::wake_filter`](crate::propag::Propag::wake_filter)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Watch {
    pub prop: u32,
    pub mask: u64,
}

/// Every `x ≠ y + c` of a model, compiled into per-variable *assignment
/// lists*: when `v` becomes assigned `a`, each `(other, off)` of `v`'s
/// list forbids `a + off` in `other`. A post gives `y`'s list `(x, c)` and
/// `x`'s list `(y, −c)`; one with `|c| > max_value` can never forbid a
/// value of `0..=max_value` and gives nothing, so every offset fits `i32`
/// and no sum of a value and an offset can overflow. An
/// `alldifferent(vars)` with value consistency is its disequality clique:
/// it contributes every pair `vars[k] ≠ vars[l]` (`k < l`, `c = 0`), so a
/// variable's list names the others in `vars` order.
///
/// A list is stored as runs: maximal stretches of consecutive
/// entries with the same target (the three disequalities a queens pair
/// posts together are one run), so
/// [`Engine::propagate`](crate::fixpoint::Engine::propagate) fires a list
/// one target at a time, outside the propagation queue. Runs never
/// reorder entries: a list fires in post order. The table is flat
/// (per-variable starts, one run array, one offset array — three
/// allocations, not one per variable).
#[derive(Debug)]
pub struct AssignLists {
    /// `starts[v]..starts[v + 1]` is `v`'s slice of `runs`.
    starts: Vec<u32>,
    runs: Vec<Run>,
    /// Every entry's offset, list after list in post order; a run owns
    /// `offs[first..end]`.
    offs: Vec<i32>,
}

/// Consecutive entries of one assignment list that share a target.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Run {
    /// One-word layouts only (zero otherwise): bit `64 + off` for each
    /// offset, so [`Run::mask`] is one shift. Every `|off| ≤ max_value ≤
    /// 63` there, so each bit lands in `1..128`.
    shifted: u128,
    pub(crate) other: u32,
    first: u32,
    end: u32,
}

impl Run {
    /// The entries the run holds: the unit of [`Engine::runs`](crate::Engine::runs).
    #[inline]
    pub(crate) fn len(&self) -> u64 {
        u64::from(self.end - self.first)
    }

    /// One-word layouts: the values the run forbids once its list's
    /// variable is assigned `a` — bit `a + off` for every offset with
    /// `0 ≤ a + off < 64` (the rest forbid nothing, and bits above
    /// `max_value` are clear in every cell anyway).
    #[inline]
    pub(crate) fn mask(&self, a: Val) -> u64 {
        debug_assert!(a < 64, "one-word cells hold values below 64");
        ((self.shifted << a) >> 64) as u64
    }
}

impl AssignLists {
    /// The table of `neqs` (`(x, y, c)`, each `|c| ≤ max_value`) over
    /// `layout`'s variables.
    fn new(layout: &StoreLayout, neqs: &[(VarId, VarId, i64)]) -> Self {
        // Entries per variable, in post order (a counting sort).
        let num_vars = layout.num_vars();
        let mut next = vec![0usize; num_vars + 1];
        for &(x, y, _) in neqs {
            next[x + 1] += 1;
            next[y + 1] += 1;
        }
        for v in 0..num_vars {
            next[v + 1] += next[v];
        }
        let mut entries = vec![(0u32, 0i32); 2 * neqs.len()];
        for &(x, y, c) in neqs {
            let c = i32::try_from(c).expect("|c| ≤ max_value, and cells hold < 2^31 values");
            for (v, e) in [(y, (x as u32, c)), (x, (y as u32, -c))] {
                entries[next[v]] = e;
                next[v] += 1;
            }
        }
        // `next[v]` is now where `v`'s entries end.
        let one_word = layout.words_per_var() == 1;
        let mut starts = Vec::with_capacity(num_vars + 1);
        let mut runs: Vec<Run> = Vec::new();
        let offs = entries.iter().map(|&(_, off)| off).collect();
        let mut at = 0;
        for &end in &next[..num_vars] {
            starts.push(runs.len() as u32);
            let first_run = runs.len();
            for &(other, off) in &entries[at..end] {
                if runs.len() == first_run || runs[runs.len() - 1].other != other {
                    runs.push(Run {
                        shifted: 0,
                        other,
                        first: at as u32,
                        end: at as u32,
                    });
                }
                let run = runs.last_mut().unwrap();
                run.end += 1;
                if one_word {
                    run.shifted |= 1 << (64 + off) as u32;
                }
                at += 1;
            }
        }
        starts.push(runs.len() as u32);
        AssignLists { starts, runs, offs }
    }

    /// `v`'s list as runs, in post order.
    #[inline]
    pub(crate) fn runs(&self, v: VarId) -> &[Run] {
        &self.runs[self.starts[v] as usize..self.starts[v + 1] as usize]
    }

    /// A run's offsets, in post order.
    #[inline]
    pub(crate) fn offsets(&self, run: &Run) -> &[i32] {
        &self.offs[run.first as usize..run.end as usize]
    }

    /// `v`'s list entry by entry: `(other, off)` pairs, in post order.
    pub fn entries(&self, v: VarId) -> impl Iterator<Item = (VarId, i64)> + '_ {
        self.runs(v).iter().flat_map(move |run| {
            let other = run.other as VarId;
            self.offsets(run)
                .iter()
                .map(move |&off| (other, i64::from(off)))
        })
    }
}

/// Problem-specific objective evaluation for branch & bound when the cost is
/// not a single decision variable (e.g. the QAP's quadratic objective).
pub trait CostEval: Send + Sync + std::fmt::Debug {
    /// A lower bound on the objective over every completion of the partial
    /// assignment in `view`. Must be monotone: shrinking domains may only
    /// raise the bound.
    fn lower_bound(&self, view: StoreView<'_>) -> i64;

    /// Exact objective value of a complete assignment.
    fn eval(&self, assignment: &[Val]) -> i64;

    /// Variables whose pruning should re-trigger bound checking.
    fn vars(&self) -> Vec<VarId>;

    /// Prune using `incumbent` (exclusive upper bound for minimisation).
    /// The default fails the store when `lower_bound ≥ incumbent`;
    /// problem-specific implementations may additionally prune values.
    /// An override must fail exactly the stores the default fails. A bound
    /// that is a sum of non-negative terms may stop summing once the partial
    /// sum reaches `incumbent`: the rest can only raise it.
    fn prune(&self, st: &mut PropState<'_>, incumbent: i64) -> Result<(), Failed> {
        let view = StoreView::new(st.layout(), st.store_words());
        if self.lower_bound(view) >= incumbent {
            Err(Failed)
        } else {
            Ok(())
        }
    }
}

/// What the solver optimises. MaCS handles satisfaction and minimisation;
/// maximisation is modelled by negating the cost.
#[derive(Clone, Debug, Default)]
pub enum Objective {
    /// Pure satisfaction: enumerate or count solutions.
    #[default]
    None,
    /// Minimise the value of one decision variable.
    MinimizeVar(VarId),
    /// Minimise a problem-defined cost function with a pruning lower bound.
    MinimizeEval(Arc<dyn CostEval>),
}

impl Objective {
    pub fn is_some(&self) -> bool {
        !matches!(self, Objective::None)
    }

    /// Variables watched by the objective pruner.
    pub fn watched(&self) -> Vec<VarId> {
        match self {
            Objective::None => vec![],
            Objective::MinimizeVar(v) => vec![*v],
            Objective::MinimizeEval(e) => e.vars(),
        }
    }

    /// Prune against the incumbent (exclusive upper bound).
    pub fn prune(&self, st: &mut PropState<'_>) -> Result<(), Failed> {
        let ub = st.incumbent;
        if ub == i64::MAX {
            return Ok(());
        }
        match self {
            Objective::None => Ok(()),
            Objective::MinimizeVar(v) => {
                st.remove_above(*v, ub - 1)?;
                Ok(())
            }
            Objective::MinimizeEval(e) => e.prune(st, ub),
        }
    }

    /// Cost of a complete assignment, if optimising.
    pub fn cost(&self, view: StoreView<'_>) -> Option<i64> {
        match self {
            Objective::None => None,
            Objective::MinimizeVar(v) => view.value(*v).map(|x| x as i64),
            Objective::MinimizeEval(e) => {
                let a = view.assignment()?;
                Some(e.eval(&a))
            }
        }
    }
}

/// A constraint-satisfaction (or optimisation) model under construction.
#[derive(Debug, Default)]
pub struct Model {
    name: String,
    domains: Vec<(Val, Val)>,
    holes: Vec<(VarId, Val)>,
    props: Vec<Propag>,
    objective: Objective,
    brancher: Brancher,
}

impl Model {
    pub fn new(name: impl Into<String>) -> Self {
        Model {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Add a variable with domain `lo..=hi`.
    pub fn new_var(&mut self, lo: Val, hi: Val) -> VarId {
        assert!(lo <= hi, "empty initial domain");
        self.domains.push((lo, hi));
        self.domains.len() - 1
    }

    /// Add `n` variables with domain `lo..=hi`.
    pub fn new_vars(&mut self, n: usize, lo: Val, hi: Val) -> Vec<VarId> {
        (0..n).map(|_| self.new_var(lo, hi)).collect()
    }

    /// Punch a hole: remove `val` from the initial domain of `v`.
    pub fn remove_value(&mut self, v: VarId, val: Val) {
        self.holes.push((v, val));
    }

    /// Post a constraint.
    pub fn post(&mut self, p: Propag) {
        self.props.push(p);
    }

    /// Minimise a decision variable.
    pub fn minimize_var(&mut self, v: VarId) {
        self.objective = Objective::MinimizeVar(v);
    }

    /// Minimise a problem-defined cost.
    pub fn minimize(&mut self, eval: Arc<dyn CostEval>) {
        self.objective = Objective::MinimizeEval(eval);
    }

    /// Set the branching strategy (defaults to first-fail / min value /
    /// eager splitting).
    pub fn branching(&mut self, b: Brancher) {
        self.brancher = b;
    }

    pub fn num_vars(&self) -> usize {
        self.domains.len()
    }

    /// Freeze into an immutable, shareable problem.
    pub fn compile(mut self) -> CompiledProblem {
        assert!(!self.domains.is_empty(), "model has no variables");
        let max_value = self.domains.iter().map(|&(_, hi)| hi).max().unwrap();
        let layout = StoreLayout::new(self.domains.len(), max_value);

        let mut root = Store::root(&layout);
        for (v, &(lo, hi)) in self.domains.iter().enumerate() {
            let d = root.dom_mut(&layout, v);
            bits::remove_below(d, lo);
            bits::remove_above(d, hi);
        }
        for &(v, val) in &self.holes {
            bits::remove(root.dom_mut(&layout, v), val);
        }

        // Disequalities leave the queue: they become assignment lists. One
        // with |c| > max_value forbids no value of 0..=max_value: dropped.
        // A value-consistent alldifferent leaves as its pairwise clique.
        let mut neqs = Vec::new();
        self.props.retain(|p| match p {
            &Propag::NeqOffset { x, y, c } => {
                if c.unsigned_abs() <= max_value as u64 {
                    neqs.push((x, y, c));
                }
                false
            }
            Propag::AllDiffVal { vars } => {
                for (k, &x) in vars.iter().enumerate() {
                    neqs.extend(vars[k + 1..].iter().map(|&y| (x, y, 0)));
                }
                false
            }
            _ => true,
        });
        let assign_lists = AssignLists::new(&layout, &neqs);

        if self.objective.is_some() {
            self.props.push(Propag::ObjectivePrune);
        }

        let mut watchers = vec![Vec::new(); layout.num_vars()];
        for (i, p) in self.props.iter().enumerate() {
            let mask = p.wake_filter(layout.words_per_var());
            let mut ws = p.watched(&self.objective);
            ws.sort_unstable();
            ws.dedup();
            for v in ws {
                watchers[v].push(Watch {
                    prop: i as u32,
                    mask,
                });
            }
        }

        CompiledProblem {
            name: self.name,
            layout,
            props: self.props,
            watchers,
            assign_lists,
            objective: self.objective,
            brancher: self.brancher,
            root,
        }
    }
}

/// An immutable, compiled problem: shared read-only by every worker.
#[derive(Debug)]
pub struct CompiledProblem {
    pub name: String,
    pub layout: StoreLayout,
    /// The queued propagators: every post except the disequalities and
    /// value-consistent alldifferents, which are in `assign_lists`.
    pub props: Vec<Propag>,
    /// `watchers[v]` = propagators to reschedule when `v` is pruned, each
    /// with its changed-words mask.
    pub watchers: Vec<Vec<Watch>>,
    /// Every `x ≠ y + c` (alldifferents as their cliques), fired when a
    /// variable becomes assigned.
    pub assign_lists: AssignLists,
    pub objective: Objective,
    pub brancher: Brancher,
    /// The root store (initial domains applied, not yet propagated).
    pub root: Store,
}

impl CompiledProblem {
    /// Verify a complete assignment against every constraint (test oracle;
    /// not used on the solving path).
    pub fn check_assignment(&self, assignment: &[Val]) -> bool {
        assert_eq!(assignment.len(), self.layout.num_vars());
        // Re-run propagation on a store with everything assigned: any
        // violated constraint wipes a domain.
        let mut s = self.root.clone();
        for (v, &val) in assignment.iter().enumerate() {
            if !bits::contains(s.dom(&self.layout, v), val) {
                return false;
            }
            bits::keep_only(s.dom_mut(&self.layout, v), val);
        }
        let mut engine = crate::fixpoint::Engine::new(self);
        engine.propagate(
            self,
            s.as_words_mut(),
            i64::MAX,
            crate::fixpoint::ScheduleSeed::All,
        ) == crate::fixpoint::PropOutcome::Fixpoint
    }

    /// The store size in bytes (the unit of work transferred between
    /// workers).
    pub fn store_bytes(&self) -> usize {
        self.layout.store_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_applies_initial_domains_and_holes() {
        let mut m = Model::new("t");
        let x = m.new_var(2, 5);
        let y = m.new_var(0, 9);
        m.remove_value(y, 4);
        m.post(Propag::NeqOffset { x, y, c: 0 });
        let p = m.compile();
        assert_eq!(p.layout.num_vars(), 2);
        assert_eq!(p.layout.max_value(), 9);
        let vals: Vec<Val> = bits::iter(p.root.dom(&p.layout, x)).collect();
        assert_eq!(vals, vec![2, 3, 4, 5]);
        assert!(!bits::contains(p.root.dom(&p.layout, y), 4));
    }

    #[test]
    fn watchers_are_deduplicated() {
        let mut m = Model::new("t");
        let x = m.new_var(0, 3);
        m.post(Propag::LinearEq {
            terms: vec![(1, x), (2, x)],
            k: 3,
        });
        let p = m.compile();
        assert_eq!(
            p.watchers[x],
            vec![Watch {
                prop: 0,
                mask: bits::all_words_mask(p.layout.words_per_var()),
            }]
        );
    }

    #[test]
    fn alldiff_val_compiles_to_its_disequality_clique() {
        let list = |v: &[VarId]| v.iter().map(|&o| (o, 0)).collect::<Vec<_>>();
        let entries = |p: &CompiledProblem, v| p.assign_lists.entries(v).collect::<Vec<_>>();
        let mut m = Model::new("t");
        let v = m.new_vars(4, 0, 5);
        m.post(Propag::AllDiffVal {
            vars: vec![v[2], v[0], v[1]],
        });
        m.post(Propag::AllDiffVal { vars: vec![v[3]] });
        let p = m.compile();
        assert!(p.props.is_empty(), "nothing is queued");
        assert!(p.watchers.iter().all(Vec::is_empty), "no watcher");
        // Each variable's list names the others in `vars` order.
        assert_eq!(entries(&p, v[2]), list(&[v[0], v[1]]));
        assert_eq!(entries(&p, v[0]), list(&[v[2], v[1]]));
        assert_eq!(entries(&p, v[1]), list(&[v[2], v[0]]));
        assert!(
            p.assign_lists.runs(v[3]).is_empty(),
            "one variable: no pair"
        );

        // A repeated id gives the self-disequality x ≠ x, twice over (once
        // from each side): x can take no value, exactly as `alldiff_val`
        // fails once x is assigned.
        let mut m = Model::new("repeat");
        let x = m.new_var(0, 5);
        let y = m.new_var(0, 5);
        m.post(Propag::AllDiffVal {
            vars: vec![x, y, x],
        });
        let p = m.compile();
        assert_eq!(entries(&p, x), list(&[y, x, x, y]));
        assert_eq!(entries(&p, y), list(&[x, x]));
    }

    #[test]
    fn disequalities_compile_to_assignment_lists() {
        let mut m = Model::new("t");
        let x = m.new_var(0, 9);
        let y = m.new_var(0, 9);
        let z = m.new_var(0, 9);
        m.post(Propag::NeqOffset { x, y, c: 3 });
        m.post(Propag::LeOffset { x, y: z, c: 0 });
        m.post(Propag::NeqOffset { x: z, y: z, c: -2 });
        // |c| > max_value: forbids nothing, compiles to nothing.
        m.post(Propag::NeqOffset { x, y, c: 10 });
        m.post(Propag::NeqOffset { x, y, c: i64::MIN });
        let p = m.compile();
        assert_eq!(p.props.len(), 1, "only the LeOffset is queued");
        assert!(matches!(p.props[0], Propag::LeOffset { .. }));
        assert!(p.watchers[y].is_empty(), "a disequality has no watcher");
        // Two entries per kept post, none for the last two.
        let entries = |v| p.assign_lists.entries(v).collect::<Vec<_>>();
        assert_eq!(entries(x), [(y, -3)]);
        assert_eq!(entries(y), [(x, 3)]);
        assert_eq!(entries(z), [(z, -2), (z, 2)]);
        // Offsets up to max_value are kept.
        let mut m = Model::new("edge");
        let x = m.new_var(0, 9);
        let y = m.new_var(0, 9);
        m.post(Propag::NeqOffset { x, y, c: -9 });
        let p = m.compile();
        assert_eq!(p.assign_lists.entries(x).collect::<Vec<_>>(), [(y, 9)]);
    }

    #[test]
    fn consecutive_entries_with_one_target_form_a_run() {
        let runs = |p: &CompiledProblem, v| {
            let lists = &p.assign_lists;
            let runs = lists.runs(v).iter();
            runs.map(|r| (r.other as VarId, lists.offsets(r).to_vec()))
                .collect::<Vec<_>>()
        };
        let mut m = Model::new("t");
        let x = m.new_var(0, 9);
        let y = m.new_var(0, 9);
        let z = m.new_var(0, 9);
        // A queens pair (three posts in a row), another target, then the
        // first target again: runs are consecutive entries only.
        for c in [0, 1, -1] {
            m.post(Propag::NeqOffset { x, y, c });
        }
        m.post(Propag::NeqOffset { x, y: z, c: 0 });
        m.post(Propag::NeqOffset { x, y, c: 2 });
        let p = m.compile();
        assert_eq!(
            runs(&p, x),
            [(y, vec![0, -1, 1]), (z, vec![0]), (y, vec![-2])]
        );
        assert_eq!(runs(&p, y), [(x, vec![0, 1, -1, 2])]);
        // x = 4 forbids 4, 3 and 5 in y; at x = 0 the offset −1 forbids
        // nothing.
        let pair = &p.assign_lists.runs(x)[0];
        assert_eq!(pair.len(), 3);
        assert_eq!(pair.mask(4), 1 << 4 | 1 << 3 | 1 << 5);
        assert_eq!(pair.mask(0), 1 | 1 << 1);
        // A full word: x ≠ y + 1 and x ≠ y + 63 give x the offsets −1 and
        // −63, y the offsets +1 and +63; a shifted value past either end
        // of the cell forbids nothing.
        let mut m = Model::new("top");
        let x = m.new_var(0, 63);
        let y = m.new_var(0, 63);
        m.post(Propag::NeqOffset { x, y, c: 1 });
        m.post(Propag::NeqOffset { x, y, c: 63 });
        let p = m.compile();
        let (to_y, to_x) = (&p.assign_lists.runs(x)[0], &p.assign_lists.runs(y)[0]);
        assert_eq!((to_y.mask(63), to_y.mask(0)), (1 << 62 | 1, 0));
        assert_eq!((to_x.mask(0), to_x.mask(63)), (1 << 1 | 1 << 63, 0));
    }

    #[test]
    fn objective_pruner_appended() {
        let mut m = Model::new("t");
        let x = m.new_var(0, 3);
        m.minimize_var(x);
        let p = m.compile();
        assert!(matches!(p.props.last(), Some(Propag::ObjectivePrune)));
        assert_eq!(p.watchers[x].len(), 1);
    }
}
