//! The propagator library.
//!
//! Propagators are represented as a closed enum ([`Propag`]) so the hot
//! fixpoint loop dispatches with a jump table instead of virtual calls; an
//! escape hatch ([`Propag::Custom`]) admits user-defined propagators behind
//! an `Arc<dyn CustomPropagator>` (the QAP lower-bound propagator in
//! `macs-problems` uses it).
//!
//! **Contract**: a propagator must be at a *local fixpoint with respect to
//! its own prunings* when it returns, because the engine does not reschedule
//! the propagator that is currently running for changes it made itself.

use std::sync::Arc;

use macs_domain::{bits, Val, VarId};

use crate::model::Objective;
use crate::state::{Failed, PropState};

/// Reusable per-worker scratch buffers for propagation (bitmap temporaries).
#[derive(Debug, Default)]
pub struct Scratch {
    pub a: Vec<u64>,
    pub b: Vec<u64>,
}

impl Scratch {
    pub fn for_words(words_per_var: usize) -> Self {
        Scratch {
            a: vec![0; words_per_var],
            b: vec![0; words_per_var],
        }
    }
}

/// A user-defined propagator (e.g. a problem-specific cost bound).
pub trait CustomPropagator: Send + Sync + std::fmt::Debug {
    /// The variables whose domain changes should re-trigger this propagator.
    fn vars(&self) -> Vec<VarId>;
    /// Prune; must reach a local fixpoint w.r.t. its own changes.
    fn propagate(&self, st: &mut PropState<'_>) -> Result<(), Failed>;
}

/// A constraint propagator over finite-domain variables.
#[derive(Clone, Debug)]
pub enum Propag {
    /// `x ≠ y + c`
    NeqOffset { x: VarId, y: VarId, c: i64 },
    /// `x ≠ v`
    NeqConst { x: VarId, v: Val },
    /// `x = y + c` (domain-consistent via bitmap shifts)
    EqOffset { x: VarId, y: VarId, c: i64 },
    /// `x ≤ y + c` (bounds-consistent)
    LeOffset { x: VarId, y: VarId, c: i64 },
    /// `alldifferent(vars)` — value consistency (assigned values are removed
    /// from the other domains, transitively)
    AllDiffVal { vars: Vec<VarId> },
    /// `alldifferent(vars)` — bounds consistency via Hall intervals, in
    /// addition to value consistency
    AllDiffBounds { vars: Vec<VarId> },
    /// `Σ aᵢ·xᵢ ≤ k` (bounds-consistent)
    LinearLe { terms: Vec<(i64, VarId)>, k: i64 },
    /// `Σ aᵢ·xᵢ = k` (bounds-consistent)
    LinearEq { terms: Vec<(i64, VarId)>, k: i64 },
    /// `array[index] = value` (domain-consistent)
    Element {
        array: Vec<Val>,
        index: VarId,
        value: VarId,
    },
    /// Objective pruning against the branch-and-bound incumbent; inserted by
    /// [`Model::compile`](crate::model::Model::compile), never posted
    /// directly.
    ObjectivePrune,
    /// A user-defined propagator.
    Custom(Arc<dyn CustomPropagator>),
}

impl Propag {
    /// The variables watched by this propagator (compile-time only).
    pub fn watched(&self, objective: &Objective) -> Vec<VarId> {
        match self {
            Propag::NeqOffset { x, y, .. }
            | Propag::EqOffset { x, y, .. }
            | Propag::LeOffset { x, y, .. } => vec![*x, *y],
            Propag::NeqConst { x, .. } => vec![*x],
            Propag::AllDiffVal { vars } | Propag::AllDiffBounds { vars } => vars.clone(),
            Propag::LinearLe { terms, .. } | Propag::LinearEq { terms, .. } => {
                terms.iter().map(|&(_, v)| v).collect()
            }
            Propag::Element { index, value, .. } => vec![*index, *value],
            Propag::ObjectivePrune => objective.watched(),
            Propag::Custom(c) => c.vars(),
        }
    }

    /// The wake filter of this propagator's watches: the mask of bitmap
    /// words whose change can make re-running it productive (w.r.t.
    /// [`bits::word_bit`] indexing). `NeqConst` cares only about the word
    /// holding its forbidden value; everything else is woken on any change.
    /// ([`Propag::NeqOffset`] and [`Propag::AllDiffVal`], which prune only
    /// from a variable that became assigned, are never queued:
    /// `Model::compile` turns them into
    /// [`AssignLists`](crate::model::AssignLists).)
    pub fn wake_filter(&self, words_per_var: usize) -> u64 {
        match self {
            Propag::NeqConst { v, .. } => bits::word_bit(*v as usize / 64),
            _ => bits::all_words_mask(words_per_var),
        }
    }

    /// Run the propagator to a local fixpoint.
    pub fn run(
        &self,
        st: &mut PropState<'_>,
        scratch: &mut Scratch,
        objective: &Objective,
    ) -> Result<(), Failed> {
        match self {
            Propag::NeqOffset { x, y, c } => neq_offset(st, *x, *y, *c),
            Propag::NeqConst { x, v } => {
                st.remove(*x, *v)?;
                Ok(())
            }
            Propag::EqOffset { x, y, c } => eq_offset(st, scratch, *x, *y, *c),
            Propag::LeOffset { x, y, c } => le_offset(st, *x, *y, *c),
            Propag::AllDiffVal { vars } => alldiff_val(st, scratch, vars).map(|_| ()),
            Propag::AllDiffBounds { vars } => {
                // Bounds pruning can create singletons that re-enable value
                // pruning and vice versa: iterate the pair to a joint
                // fixpoint (local-fixpoint contract).
                loop {
                    let a = alldiff_val(st, scratch, vars)?;
                    let b = alldiff_bounds(st, vars)?;
                    if !a && !b {
                        return Ok(());
                    }
                }
            }
            Propag::LinearLe { terms, k } => linear_le(st, terms, *k).map(|_| ()),
            Propag::LinearEq { terms, k } => {
                // The ≤ and ≥ halves feed each other (a bound tightened by
                // one changes the other's slack): iterate to a joint
                // fixpoint.
                loop {
                    let a = linear_le(st, terms, *k)?;
                    let b = linear_ge(st, terms, *k)?;
                    if !a && !b {
                        return Ok(());
                    }
                }
            }
            Propag::Element {
                array,
                index,
                value,
            } => element(st, scratch, array, *index, *value),
            Propag::ObjectivePrune => objective.prune(st),
            Propag::Custom(c) => c.propagate(st),
        }
    }
}

// ----- individual propagators ----------------------------------------------

fn neq_offset(st: &mut PropState<'_>, x: VarId, y: VarId, c: i64) -> Result<(), Failed> {
    // One directed pass reaches the local fixpoint. If y is assigned,
    // removing `vy + c` from x is all the pruning x ≠ y + c admits: should
    // x *become* a singleton {vx} by that removal, the reverse direction
    // would remove `vx − c` from the singleton {vy} — but `vx − c = vy`
    // would mean `vx = vy + c`, the very value just removed from x, so the
    // reverse pass is always a no-op (and a wipe-out of x already
    // surfaced as `Err`). Symmetrically when only x is assigned. The old
    // implementation looped until a verification pass saw no change,
    // costing two extra singleton reads per run on the solver's most
    // frequent propagator.
    if let Some(vy) = st.value(y) {
        return forbid_shifted(st, x, vy, c);
    }
    if let Some(vx) = st.value(x) {
        return forbid_shifted(st, y, vx, c.saturating_neg());
    }
    Ok(())
}

/// The `x ≠ y + c` pruning rule of a queued `NeqOffset`: a variable was
/// assigned `a`, so `other` loses `a + off` — if that is a value at all.
/// The sum saturates, so no offset overflows; one outside `0..=max_value`
/// forbids nothing. (Compiled disequalities fire from the engine's
/// assignment lists instead, a run of them at a time.)
#[inline]
fn forbid_shifted(st: &mut PropState<'_>, other: VarId, a: Val, off: i64) -> Result<(), Failed> {
    let forbidden = (a as i64).saturating_add(off);
    if (0..=st.layout().max_value() as i64).contains(&forbidden) {
        st.remove(other, forbidden as Val)?;
    }
    Ok(())
}

fn eq_offset(
    st: &mut PropState<'_>,
    scratch: &mut Scratch,
    x: VarId,
    y: VarId,
    c: i64,
) -> Result<(), Failed> {
    // dom(x) ∩= dom(y) + c, then dom(y) ∩= dom(x) − c; one round reaches the
    // mutual fixpoint for equality.
    let w = st.layout().words_per_var();
    // |c| as a shift, clamped to one past the largest value: a larger
    // shift moves every value out of 0..=max_value just the same (and
    // `c as u32` would truncate it).
    let shift = c.unsigned_abs().min(st.layout().max_value() as u64 + 1) as u32;
    scratch.a.resize(w, 0);
    if c >= 0 {
        bits::shifted_up(st.dom(y), &mut scratch.a, shift);
    } else {
        bits::shifted_down(st.dom(y), &mut scratch.a, shift);
    }
    let mask = std::mem::take(&mut scratch.a);
    st.intersect_with(x, &mask)?;
    scratch.a = mask;

    scratch.b.resize(w, 0);
    if c >= 0 {
        bits::shifted_down(st.dom(x), &mut scratch.b, shift);
    } else {
        bits::shifted_up(st.dom(x), &mut scratch.b, shift);
    }
    let mask = std::mem::take(&mut scratch.b);
    st.intersect_with(y, &mask)?;
    scratch.b = mask;
    Ok(())
}

fn le_offset(st: &mut PropState<'_>, x: VarId, y: VarId, c: i64) -> Result<(), Failed> {
    // x ≤ y + c: ub(x) ≤ ub(y)+c and lb(y) ≥ lb(x)−c. Saturating: a bound
    // past either end of the domain is already a full or empty cut.
    let hi = (st.max(y).ok_or(Failed)? as i64).saturating_add(c);
    st.remove_above(x, hi)?;
    let lo = (st.min(x).ok_or(Failed)? as i64).saturating_sub(c);
    st.remove_below(y, lo)?;
    Ok(())
}

fn alldiff_val(
    st: &mut PropState<'_>,
    scratch: &mut Scratch,
    vars: &[VarId],
) -> Result<bool, Failed> {
    let w = st.layout().words_per_var();
    let mut any_change = false;
    loop {
        // Build the bitmap of values taken by assigned variables, failing on
        // duplicates.
        scratch.a.resize(w, 0);
        scratch.a.fill(0);
        let mut n_assigned = 0u32;
        for &v in vars {
            if let Some(val) = st.value(v) {
                if bits::contains(&scratch.a, val) {
                    return Err(Failed);
                }
                bits::insert(&mut scratch.a, val);
                n_assigned += 1;
            }
        }
        if n_assigned == 0 {
            return Ok(any_change);
        }
        // Remove those values from every unassigned variable.
        let mask = std::mem::take(&mut scratch.a);
        let mut new_singleton = false;
        for &v in vars {
            if st.value(v).is_some() {
                continue;
            }
            match st.subtract(v, &mask) {
                Err(Failed) => {
                    scratch.a = mask;
                    return Err(Failed);
                }
                Ok(changed) => {
                    any_change |= changed;
                    if changed && st.value(v).is_some() {
                        new_singleton = true;
                    }
                }
            }
        }
        scratch.a = mask;
        if !new_singleton {
            return Ok(any_change);
        }
    }
}

/// Hall-interval bounds consistency: for every value interval `[a, b]`, if
/// the set `H` of variables whose bounds fit inside `[a, b]` has size
/// `b − a + 1`, then `[a, b]` is saturated by `H` and is removed from every
/// other variable; a size above the interval width is a failure.
///
/// The O(n²·w) pair scan is adequate for the arities used here (n ≤ 64) and
/// keeps the algorithm auditable; see Puget (1998) for the asymptotically
/// better version.
fn alldiff_bounds(st: &mut PropState<'_>, vars: &[VarId]) -> Result<bool, Failed> {
    let n = vars.len();
    let mut any_change = false;
    loop {
        let mut changed = false;
        let mut lows: Vec<(Val, Val, VarId)> = Vec::with_capacity(n);
        for &v in vars {
            let lo = st.min(v).ok_or(Failed)?;
            let hi = st.max(v).ok_or(Failed)?;
            lows.push((lo, hi, v));
        }
        // Candidate intervals are [lo_i, hi_j] for variable bound pairs.
        for i in 0..n {
            for j in 0..n {
                let a = lows[i].0;
                let b = lows[j].1;
                if a > b {
                    continue;
                }
                let width = (b - a + 1) as usize;
                if width > n {
                    continue;
                }
                let inside = lows
                    .iter()
                    .filter(|&&(lo, hi, _)| lo >= a && hi <= b)
                    .count();
                if inside > width {
                    return Err(Failed);
                }
                if inside == width {
                    // Hall interval: prune [a, b] from the outsiders' bounds.
                    for &(lo, hi, v) in &lows {
                        if lo >= a && hi <= b {
                            continue;
                        }
                        // Only bounds pruning: shift a bound that falls
                        // inside the Hall interval past it.
                        if (a..=b).contains(&lo) {
                            changed |= st.remove_below(v, b as i64 + 1)?;
                        }
                        if (a..=b).contains(&hi) {
                            changed |= st.remove_above(v, a as i64 - 1)?;
                        }
                    }
                }
            }
        }
        any_change |= changed;
        if !changed {
            return Ok(any_change);
        }
    }
}

fn term_min(st: &PropState<'_>, a: i64, v: VarId) -> Result<i64, Failed> {
    let lo = st.min(v).ok_or(Failed)? as i64;
    let hi = st.max(v).ok_or(Failed)? as i64;
    Ok(if a >= 0 { a * lo } else { a * hi })
}

fn linear_le(st: &mut PropState<'_>, terms: &[(i64, VarId)], k: i64) -> Result<bool, Failed> {
    // Σ aᵢxᵢ ≤ k. slack = k − Σ min(aᵢxᵢ); each term may exceed its own
    // minimum by at most the slack.
    let mut any_change = false;
    loop {
        let mut sum_min = 0i64;
        for &(a, v) in terms {
            sum_min += term_min(st, a, v)?;
        }
        let slack = k - sum_min;
        if slack < 0 {
            return Err(Failed);
        }
        let mut changed = false;
        for &(a, v) in terms {
            if a == 0 {
                continue;
            }
            if a > 0 {
                // a·x ≤ a·min + slack  ⇒  x ≤ min + slack/a
                let hi = st.min(v).ok_or(Failed)? as i64 + slack / a;
                changed |= st.remove_above(v, hi)?;
            } else {
                // a·x ≤ a·max + slack  ⇒  x ≥ max − slack/(−a)
                let lo = st.max(v).ok_or(Failed)? as i64 - slack / (-a);
                changed |= st.remove_below(v, lo)?;
            }
        }
        any_change |= changed;
        if !changed {
            return Ok(any_change);
        }
    }
}

fn linear_ge(st: &mut PropState<'_>, terms: &[(i64, VarId)], k: i64) -> Result<bool, Failed> {
    // Σ aᵢxᵢ ≥ k  ⇔  Σ (−aᵢ)xᵢ ≤ −k.
    let mut any_change = false;
    loop {
        let mut sum_min = 0i64;
        for &(a, v) in terms {
            sum_min += term_min(st, -a, v)?;
        }
        let slack = -k - sum_min;
        if slack < 0 {
            return Err(Failed);
        }
        let mut changed = false;
        for &(a, v) in terms {
            let na = -a;
            if na == 0 {
                continue;
            }
            if na > 0 {
                let hi = st.min(v).ok_or(Failed)? as i64 + slack / na;
                changed |= st.remove_above(v, hi)?;
            } else {
                let lo = st.max(v).ok_or(Failed)? as i64 - slack / (-na);
                changed |= st.remove_below(v, lo)?;
            }
        }
        any_change |= changed;
        if !changed {
            return Ok(any_change);
        }
    }
}

fn element(
    st: &mut PropState<'_>,
    scratch: &mut Scratch,
    array: &[Val],
    index: VarId,
    value: VarId,
) -> Result<(), Failed> {
    let w = st.layout().words_per_var();
    loop {
        // Supported values: { array[i] | i ∈ dom(index) }.
        scratch.a.resize(w, 0);
        scratch.a.fill(0);
        for i in bits::iter(st.dom(index)) {
            let i = i as usize;
            if i < array.len() {
                bits::insert(&mut scratch.a, array[i]);
            }
        }
        let mask = std::mem::take(&mut scratch.a);
        let r1 = st.intersect_with(value, &mask);
        scratch.a = mask;
        let mut changed = r1?;

        // Supported indices: i such that array[i] ∈ dom(value); also drop
        // indices outside the array.
        let mut to_remove: Option<Vec<Val>> = None;
        for i in bits::iter(st.dom(index)) {
            let iu = i as usize;
            if iu >= array.len() || !st.contains(value, array[iu]) {
                to_remove.get_or_insert_with(Vec::new).push(i);
            }
        }
        if let Some(rm) = to_remove {
            for i in rm {
                changed |= st.remove(index, i)?;
            }
        }
        if !changed {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ChangeLog;
    use macs_domain::{Store, StoreLayout};

    struct Fix {
        layout: StoreLayout,
        store: Store,
        log: ChangeLog,
        scratch: Scratch,
    }

    impl Fix {
        fn new(num_vars: usize, max: Val) -> Self {
            let layout = StoreLayout::new(num_vars, max);
            let store = Store::root(&layout);
            let log = ChangeLog::new(num_vars);
            let scratch = Scratch::for_words(layout.words_per_var());
            Fix {
                layout,
                store,
                log,
                scratch,
            }
        }

        fn run(&mut self, p: &Propag) -> Result<(), Failed> {
            let mut st = PropState::new(
                &self.layout,
                self.store.as_words_mut(),
                &mut self.log,
                i64::MAX,
            );
            p.run(&mut st, &mut self.scratch, &Objective::None)
        }

        fn dom_vals(&self, v: VarId) -> Vec<Val> {
            bits::iter(self.store.dom(&self.layout, v)).collect()
        }

        fn assign(&mut self, v: VarId, val: Val) {
            bits::keep_only(self.store.dom_mut(&self.layout, v), val);
        }

        fn restrict(&mut self, v: VarId, lo: Val, hi: Val) {
            bits::remove_below(self.store.dom_mut(&self.layout, v), lo);
            bits::remove_above(self.store.dom_mut(&self.layout, v), hi);
        }
    }

    #[test]
    fn neq_offset_prunes_both_directions() {
        let mut f = Fix::new(2, 9);
        f.assign(1, 4);
        f.run(&Propag::NeqOffset { x: 0, y: 1, c: 2 }).unwrap();
        assert!(!f.dom_vals(0).contains(&6));
        assert_eq!(f.dom_vals(0).len(), 9);

        let mut g = Fix::new(2, 9);
        g.assign(0, 3);
        g.run(&Propag::NeqOffset { x: 0, y: 1, c: -1 }).unwrap();
        assert!(!g.dom_vals(1).contains(&4));
    }

    #[test]
    fn neq_offset_cascades_to_local_fixpoint() {
        // dom(x) = {1,2}, y assigned 1, c = 1 ⇒ x ≠ 2 ⇒ x = 1 ⇒ y ≠ 0 (no-op).
        let mut f = Fix::new(2, 9);
        f.restrict(0, 1, 2);
        f.assign(1, 1);
        f.run(&Propag::NeqOffset { x: 0, y: 1, c: 1 }).unwrap();
        assert_eq!(f.dom_vals(0), vec![1]);
    }

    /// Solutions of one binary constraint over `x, y ∈ 0..=9`, by the
    /// sequential solver (propagation through the compiled model).
    fn count_pairs(p: impl Fn(VarId, VarId) -> Propag) -> u64 {
        let mut m = crate::model::Model::new("pair");
        let x = m.new_var(0, 9);
        let y = m.new_var(0, 9);
        m.post(p(x, y));
        let prob = m.compile();
        crate::seq::solve_seq(&prob, &Default::default()).solutions
    }

    #[test]
    fn eq_offset_shift_never_truncates() {
        // `c as u32` turned a 2^32 shift into 0, i.e. x = y: 10 solutions.
        for c in [1 << 32, -(1 << 32), 10, -10, i64::MAX, i64::MIN] {
            assert_eq!(
                count_pairs(|x, y| Propag::EqOffset { x, y, c }),
                0,
                "c = {c}"
            );
        }
        assert_eq!(count_pairs(|x, y| Propag::EqOffset { x, y, c: 9 }), 1);
        assert_eq!(count_pairs(|x, y| Propag::EqOffset { x, y, c: -9 }), 1);
    }

    #[test]
    fn le_offset_bounds_saturate() {
        // `max(y) + c` overflowed: a debug panic, 0 solutions in release.
        assert_eq!(
            count_pairs(|x, y| Propag::LeOffset { x, y, c: i64::MAX }),
            100
        );
        assert_eq!(
            count_pairs(|x, y| Propag::LeOffset { x, y, c: i64::MIN }),
            0
        );
        assert_eq!(count_pairs(|x, y| Propag::LeOffset { x, y, c: 9 }), 100);
        assert_eq!(count_pairs(|x, y| Propag::LeOffset { x, y, c: -9 }), 1);
    }

    #[test]
    fn neq_offset_extreme_offsets_forbid_nothing() {
        // `vy + c` overflowed in the directly-run propagator (a debug panic).
        for c in [i64::MAX, i64::MIN, 1 << 32, 10, -10] {
            let mut f = Fix::new(2, 9);
            f.assign(1, 4);
            f.run(&Propag::NeqOffset { x: 0, y: 1, c }).unwrap();
            assert_eq!(f.dom_vals(0).len(), 10, "y assigned, c = {c}");
            let mut g = Fix::new(2, 9);
            g.assign(0, 4);
            g.run(&Propag::NeqOffset { x: 0, y: 1, c }).unwrap();
            assert_eq!(g.dom_vals(1).len(), 10, "x assigned, c = {c}");
            // And through the compiled model's assignment lists.
            assert_eq!(count_pairs(|x, y| Propag::NeqOffset { x, y, c }), 100);
        }
        assert_eq!(count_pairs(|x, y| Propag::NeqOffset { x, y, c: 9 }), 99);
        assert_eq!(count_pairs(|x, y| Propag::NeqOffset { x, y, c: -9 }), 99);
    }

    #[test]
    fn eq_offset_is_domain_consistent() {
        let mut f = Fix::new(2, 20);
        f.restrict(0, 5, 9); // x ∈ [5,9]
        f.restrict(1, 1, 3); // y ∈ [1,3]
        f.run(&Propag::EqOffset { x: 0, y: 1, c: 5 }).unwrap();
        assert_eq!(f.dom_vals(0), vec![6, 7, 8]);
        assert_eq!(f.dom_vals(1), vec![1, 2, 3]);
    }

    #[test]
    fn eq_offset_with_holes() {
        let mut f = Fix::new(2, 20);
        // y ∈ {2, 4, 6}
        f.restrict(1, 2, 6);
        let d = f.store.dom_mut(&f.layout, 1);
        bits::remove(d, 3);
        bits::remove(d, 5);
        f.run(&Propag::EqOffset { x: 0, y: 1, c: 10 }).unwrap();
        assert_eq!(f.dom_vals(0), vec![12, 14, 16]);
    }

    #[test]
    fn eq_offset_negative_offset() {
        let mut f = Fix::new(2, 20);
        f.restrict(0, 0, 4);
        f.restrict(1, 3, 20);
        f.run(&Propag::EqOffset { x: 0, y: 1, c: -3 }).unwrap();
        assert_eq!(f.dom_vals(0), vec![0, 1, 2, 3, 4]);
        assert_eq!(f.dom_vals(1), vec![3, 4, 5, 6, 7]);
    }

    #[test]
    fn eq_offset_detects_failure() {
        let mut f = Fix::new(2, 20);
        f.restrict(0, 0, 2);
        f.restrict(1, 10, 20);
        assert_eq!(f.run(&Propag::EqOffset { x: 0, y: 1, c: 0 }), Err(Failed));
    }

    #[test]
    fn le_offset_tightens_bounds() {
        let mut f = Fix::new(2, 20);
        f.restrict(1, 0, 7);
        f.restrict(0, 5, 20);
        // x ≤ y − 2 ⇒ x ≤ 5, y ≥ 7
        f.run(&Propag::LeOffset { x: 0, y: 1, c: -2 }).unwrap();
        assert_eq!(f.dom_vals(0), vec![5]);
        assert_eq!(f.dom_vals(1), vec![7]);
    }

    #[test]
    fn alldiff_val_removes_assigned_and_cascades() {
        let mut f = Fix::new(3, 2);
        f.assign(0, 0);
        // dom(1) = {0,1}: removing 0 leaves {1}; then 1 cascades out of dom(2).
        f.restrict(1, 0, 1);
        f.run(&Propag::AllDiffVal {
            vars: vec![0, 1, 2],
        })
        .unwrap();
        assert_eq!(f.dom_vals(1), vec![1]);
        assert_eq!(f.dom_vals(2), vec![2]);
    }

    #[test]
    fn alldiff_val_duplicate_assignment_fails() {
        let mut f = Fix::new(2, 5);
        f.assign(0, 3);
        f.assign(1, 3);
        assert_eq!(f.run(&Propag::AllDiffVal { vars: vec![0, 1] }), Err(Failed));
    }

    #[test]
    fn alldiff_bounds_finds_hall_interval() {
        // x0, x1 ∈ {1,2} form a Hall interval [1,2]; x2 ∈ {1,2,3} must lose
        // 1 and 2 (value consistency alone cannot see this).
        let mut f = Fix::new(3, 5);
        f.restrict(0, 1, 2);
        f.restrict(1, 1, 2);
        f.restrict(2, 1, 3);
        f.run(&Propag::AllDiffBounds {
            vars: vec![0, 1, 2],
        })
        .unwrap();
        assert_eq!(f.dom_vals(2), vec![3]);
    }

    #[test]
    fn alldiff_bounds_overfull_interval_fails() {
        let mut f = Fix::new(3, 5);
        f.restrict(0, 1, 2);
        f.restrict(1, 1, 2);
        f.restrict(2, 1, 2);
        assert_eq!(
            f.run(&Propag::AllDiffBounds {
                vars: vec![0, 1, 2]
            }),
            Err(Failed)
        );
    }

    #[test]
    fn linear_le_prunes_uppers() {
        let mut f = Fix::new(2, 10);
        // x + y ≤ 4
        f.run(&Propag::LinearLe {
            terms: vec![(1, 0), (1, 1)],
            k: 4,
        })
        .unwrap();
        assert_eq!(f.dom_vals(0), vec![0, 1, 2, 3, 4]);
        assert_eq!(f.dom_vals(1), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn linear_le_negative_coefficient() {
        let mut f = Fix::new(2, 10);
        // x − y ≤ −3  ⇒  y ≥ x + 3 ⇒ y ≥ 3
        f.run(&Propag::LinearLe {
            terms: vec![(1, 0), (-1, 1)],
            k: -3,
        })
        .unwrap();
        assert_eq!(f.dom_vals(1).first(), Some(&3));
        assert_eq!(f.dom_vals(0).last(), Some(&7));
    }

    #[test]
    fn linear_eq_fixes_last_var() {
        let mut f = Fix::new(3, 10);
        f.assign(0, 2);
        f.assign(1, 3);
        // x0 + x1 + x2 = 9 ⇒ x2 = 4
        f.run(&Propag::LinearEq {
            terms: vec![(1, 0), (1, 1), (1, 2)],
            k: 9,
        })
        .unwrap();
        assert_eq!(f.dom_vals(2), vec![4]);
    }

    #[test]
    fn linear_eq_le_ge_interaction_reaches_joint_fixpoint() {
        // Regression: 4x0 + 4x1 + 4x2 = 6 is infeasible over integers, but
        // a single ≤-then-≥ pass used to miss it when the ≥ half tightened
        // lower bounds after the ≤ half had already run.
        let mut f = Fix::new(3, 9);
        f.assign(0, 0);
        assert_eq!(
            f.run(&Propag::LinearEq {
                terms: vec![(4, 0), (4, 1), (4, 2)],
                k: 6,
            }),
            Err(Failed)
        );
    }

    #[test]
    fn linear_eq_infeasible_fails() {
        let mut f = Fix::new(2, 3);
        assert_eq!(
            f.run(&Propag::LinearEq {
                terms: vec![(1, 0), (1, 1)],
                k: 100,
            }),
            Err(Failed)
        );
    }

    #[test]
    fn element_prunes_both_sides() {
        let mut f = Fix::new(2, 10);
        // array = [4, 7, 4, 9]; index = var0, value = var1.
        let arr = vec![4, 7, 4, 9];
        f.restrict(0, 0, 3);
        f.restrict(1, 5, 10); // value ∈ [5,10] ⇒ only 7 and 9 supported
        f.run(&Propag::Element {
            array: arr,
            index: 0,
            value: 1,
        })
        .unwrap();
        assert_eq!(f.dom_vals(0), vec![1, 3]);
        assert_eq!(f.dom_vals(1), vec![7, 9]);
    }

    #[test]
    fn element_index_out_of_array_pruned() {
        let mut f = Fix::new(2, 10);
        let arr = vec![1, 2];
        f.run(&Propag::Element {
            array: arr,
            index: 0,
            value: 1,
        })
        .unwrap();
        assert_eq!(f.dom_vals(0), vec![0, 1]);
        assert_eq!(f.dom_vals(1), vec![1, 2]);
    }
}
