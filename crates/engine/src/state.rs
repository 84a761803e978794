//! Mutable propagation view over a store, with change logging.

use std::cell::Cell;

use macs_domain::{bits, StoreLayout, Val, VarId};

/// Zero-sized "a domain became empty" error. Propagators return
/// `Result<_, Failed>` so `?` short-circuits the fixpoint loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Failed;

/// Records which variables were pruned during a propagator run — and *how*:
/// per variable, the mask of changed bitmap words ([`bits::word_bit`]) and
/// whether the domain collapsed to a singleton. The fixpoint engine uses
/// both to wake only the watchers whose words actually moved (and, for
/// assignment-triggered propagators, only on a fresh singleton).
///
/// The log also carries the per-variable first/last-set-word scan hints for
/// `min`/`max` (see [`ChangeLog::with_hints`]): within one propagation
/// round domains only shrink, so the first set word can only move up and
/// the last only down — a hint advanced past a cleared block never has to
/// be re-validated until the next round resets it. The hints are stored in
/// `Cell`s so read-only accessors (`PropState::min`) can advance them.
#[derive(Debug, Default)]
pub struct ChangeLog {
    touched: Vec<VarId>,
    dirty: Vec<bool>,
    /// Changed-words mask per variable (valid only while `dirty[v]`).
    masks: Vec<u64>,
    /// Did the variable become assigned during this drain window?
    assigned: Vec<bool>,
    /// Scan hints: `(round, word)` per variable; a hint is live only when
    /// its round matches `round` (O(1) invalidation at round start).
    lo_hint: Vec<Cell<(u64, u32)>>,
    hi_hint: Vec<Cell<(u64, u32)>>,
    round: u64,
}

impl ChangeLog {
    /// A log without scan hints (`min`/`max` always scan the full cell —
    /// the pre-hint behaviour, kept for single-word layouts where a hint
    /// cannot beat the one-word scan, and for baseline measurement).
    pub fn new(num_vars: usize) -> Self {
        ChangeLog {
            touched: Vec::with_capacity(num_vars),
            dirty: vec![false; num_vars],
            masks: vec![0; num_vars],
            assigned: vec![false; num_vars],
            lo_hint: Vec::new(),
            hi_hint: Vec::new(),
            round: 1,
        }
    }

    /// A log with first/last-set-word scan hints enabled for every
    /// variable (worth it only for multi-word cells).
    pub fn with_hints(num_vars: usize) -> Self {
        let mut log = Self::new(num_vars);
        log.lo_hint = vec![Cell::new((0, 0)); num_vars];
        log.hi_hint = vec![Cell::new((0, 0)); num_vars];
        log
    }

    /// Start a new propagation round: clears the touched set and
    /// invalidates every scan hint (domains now belong to a new store).
    pub fn begin_round(&mut self) {
        self.clear();
        self.round += 1;
    }

    /// Record that `v` changed: `mask` is the changed-words mask (an
    /// over-approximation is sound), `assigned` whether the domain is now a
    /// singleton.
    #[inline]
    pub fn mark(&mut self, v: VarId, mask: u64, assigned: bool) {
        if !self.dirty[v] {
            self.dirty[v] = true;
            self.masks[v] = mask;
            self.assigned[v] = assigned;
            self.touched.push(v);
        } else {
            self.masks[v] |= mask;
            self.assigned[v] |= assigned;
        }
    }

    /// Drain the touched set, resetting the log. The callback receives
    /// `(var, changed_words_mask, became_assigned)`.
    #[inline]
    pub fn drain(&mut self, mut f: impl FnMut(VarId, u64, bool)) {
        for &v in &self.touched {
            self.dirty[v] = false;
        }
        for v in self.touched.drain(..) {
            f(v, self.masks[v], self.assigned[v]);
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    pub fn clear(&mut self) {
        for &v in &self.touched {
            self.dirty[v] = false;
        }
        self.touched.clear();
    }

    // ----- scan hints -------------------------------------------------------

    /// Word index at which a `min` scan of `v` may start (0 without a live
    /// hint).
    #[inline]
    fn lo_start(&self, v: VarId) -> usize {
        match self.lo_hint.get(v) {
            Some(c) => {
                let (round, w) = c.get();
                if round == self.round {
                    w as usize
                } else {
                    0
                }
            }
            None => 0,
        }
    }

    #[inline]
    fn set_lo(&self, v: VarId, w: usize) {
        if let Some(c) = self.lo_hint.get(v) {
            c.set((self.round, w as u32));
        }
    }

    /// Word index + 1 at which a `max` scan of `v` may start (`len`
    /// without a live hint).
    #[inline]
    fn hi_start(&self, v: VarId, len: usize) -> usize {
        match self.hi_hint.get(v) {
            Some(c) => {
                let (round, w) = c.get();
                if round == self.round {
                    (w as usize + 1).min(len)
                } else {
                    len
                }
            }
            None => len,
        }
    }

    #[inline]
    fn set_hi(&self, v: VarId, w: usize) {
        if let Some(c) = self.hi_hint.get(v) {
            c.set((self.round, w as u32));
        }
    }
}

/// The state a propagator runs against: the store's words, the layout, the
/// change log, and the objective incumbent in force for this propagation
/// round (`i64::MAX` when there is none).
///
/// All mutating accessors detect wipe-out (`Err(Failed)`) and record the
/// pruned variable — with its changed-words mask and assignment event — in
/// the change log, so individual propagators stay free of bookkeeping.
pub struct PropState<'a> {
    layout: &'a StoreLayout,
    words: &'a mut [u64],
    log: &'a mut ChangeLog,
    /// Best objective value found so far (minimisation); `i64::MAX` if none.
    pub incumbent: i64,
}

impl<'a> PropState<'a> {
    pub fn new(
        layout: &'a StoreLayout,
        words: &'a mut [u64],
        log: &'a mut ChangeLog,
        incumbent: i64,
    ) -> Self {
        debug_assert_eq!(words.len(), layout.store_words());
        PropState {
            layout,
            words,
            log,
            incumbent,
        }
    }

    #[inline]
    pub fn layout(&self) -> &StoreLayout {
        self.layout
    }

    /// The whole store (header + cells), read-only — e.g. for cost
    /// lower-bound evaluation over the partial assignment.
    #[inline]
    pub fn store_words(&self) -> &[u64] {
        self.words
    }

    // ----- read access ----------------------------------------------------

    #[inline]
    pub fn dom(&self, v: VarId) -> &[u64] {
        &self.words[self.layout.var_range(v)]
    }

    /// Smallest value of `v`. Multi-word cells scan from the cached
    /// first-set-word hint and advance it past the zero words they skip.
    #[inline]
    pub fn min(&self, v: VarId) -> Option<Val> {
        let dom = self.dom(v);
        if dom.len() == 1 {
            return bits::min(dom);
        }
        let start = self.log.lo_start(v);
        for (i, &w) in dom.iter().enumerate().skip(start) {
            if w != 0 {
                self.log.set_lo(v, i);
                return Some((i * 64 + w.trailing_zeros() as usize) as Val);
            }
        }
        None
    }

    /// Largest value of `v` (last-set-word hint, symmetric to `min`).
    #[inline]
    pub fn max(&self, v: VarId) -> Option<Val> {
        let dom = self.dom(v);
        if dom.len() == 1 {
            return bits::max(dom);
        }
        let start = self.log.hi_start(v, dom.len());
        for i in (0..start).rev() {
            let w = dom[i];
            if w != 0 {
                self.log.set_hi(v, i);
                return Some((i * 64 + 63 - w.leading_zeros() as usize) as Val);
            }
        }
        None
    }

    #[inline]
    pub fn value(&self, v: VarId) -> Option<Val> {
        bits::singleton(self.dom(v))
    }

    #[inline]
    pub fn size(&self, v: VarId) -> u32 {
        bits::count(self.dom(v))
    }

    #[inline]
    pub fn contains(&self, v: VarId, val: Val) -> bool {
        bits::contains(self.dom(v), val)
    }

    #[inline]
    pub fn is_assigned(&self, v: VarId) -> bool {
        bits::is_singleton(self.dom(v))
    }

    // ----- pruning --------------------------------------------------------

    #[inline]
    fn dom_mut(&mut self, v: VarId) -> &mut [u64] {
        &mut self.words[self.layout.var_range(v)]
    }

    /// Wipe-out check + change logging after a mutation that touched the
    /// words in `mask`. One pass detects emptiness and singleton-ness
    /// together (the old code scanned once for emptiness and left watchers
    /// to rediscover singletons propagator by propagator).
    #[inline]
    fn after_change(&mut self, v: VarId, mask: u64) -> Result<(), Failed> {
        let dom = self.dom(v);
        let (empty, single) = if dom.len() == 1 {
            let w = dom[0];
            (w == 0, w.is_power_of_two())
        } else {
            let mut nonzero = 0u32;
            let mut last = 0u64;
            for &w in dom {
                if w != 0 {
                    nonzero += 1;
                    last = w;
                }
            }
            (nonzero == 0, nonzero == 1 && last.is_power_of_two())
        };
        if empty {
            return Err(Failed);
        }
        self.log.mark(v, mask, single);
        Ok(())
    }

    /// Remove one value. Ok(true) if the domain changed.
    #[inline]
    pub fn remove(&mut self, v: VarId, val: Val) -> Result<bool, Failed> {
        if val > self.layout.max_value() {
            return Ok(false);
        }
        if bits::remove(self.dom_mut(v), val) {
            self.after_change(v, bits::word_bit(val as usize / 64))?;
            return Ok(true);
        }
        Ok(false)
    }

    /// One-word cells only: remove every value whose bit is set in
    /// `mask` with one load, and-not and store, then one wipe-out and
    /// singleton check and at most one log entry (a [`remove`](Self::remove)
    /// per value checks and logs per value). Ok(true) if the domain
    /// changed; a wipe-out leaves the cell as it was.
    #[inline]
    pub(crate) fn clear_word(&mut self, v: VarId, mask: u64) -> Result<bool, Failed> {
        debug_assert_eq!(self.layout.words_per_var(), 1);
        let cell = &mut self.words[self.layout.var_offset(v)];
        let left = *cell & !mask;
        if left == *cell {
            return Ok(false);
        }
        if left == 0 {
            return Err(Failed);
        }
        *cell = left;
        self.log.mark(v, bits::word_bit(0), left.is_power_of_two());
        Ok(true)
    }

    /// Remove each of `vals` in turn (values outside `0..=max_value` are
    /// skipped), then check and log once. Ok(true) if the domain changed.
    /// On a wipe-out, `Err(k)`: the `k`-th value (counting from 1)
    /// emptied the domain — the last one that removed anything.
    pub(crate) fn remove_each(
        &mut self,
        v: VarId,
        vals: impl IntoIterator<Item = i64>,
    ) -> Result<bool, u64> {
        let max = self.layout.max_value() as i64;
        let dom = self.dom_mut(v);
        let (mut changed, mut emptied_by) = (0u64, 0u64);
        for (k, val) in (1..).zip(vals) {
            if (0..=max).contains(&val) && bits::remove(dom, val as Val) {
                changed |= bits::word_bit(val as usize / 64);
                emptied_by = k;
            }
        }
        if changed == 0 {
            return Ok(false);
        }
        self.after_change(v, changed).map_err(|Failed| emptied_by)?;
        Ok(true)
    }

    /// Reduce to the singleton `{val}`.
    #[inline]
    pub fn assign(&mut self, v: VarId, val: Val) -> Result<bool, Failed> {
        if val > self.layout.max_value() || !self.contains(v, val) {
            return Err(Failed);
        }
        if bits::keep_only(self.dom_mut(v), val) {
            let all = bits::all_words_mask(self.layout.words_per_var());
            self.after_change(v, all)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Remove all values `< lo` (signed: a negative bound is a no-op).
    #[inline]
    pub fn remove_below(&mut self, v: VarId, lo: i64) -> Result<bool, Failed> {
        if lo <= 0 {
            return Ok(false);
        }
        if lo > self.layout.max_value() as i64 {
            return Err(Failed);
        }
        if bits::remove_below(self.dom_mut(v), lo as Val) {
            // Words 0..=w of the cell may have been cleared.
            let w = lo as usize / 64;
            self.after_change(v, bits::all_words_mask(w + 1))?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Remove all values `> hi` (signed: a negative bound fails).
    #[inline]
    pub fn remove_above(&mut self, v: VarId, hi: i64) -> Result<bool, Failed> {
        if hi < 0 {
            return Err(Failed);
        }
        if hi >= self.layout.max_value() as i64 {
            return Ok(false);
        }
        if bits::remove_above(self.dom_mut(v), hi as Val) {
            // Words w.. of the cell may have been cleared.
            let w = hi as usize / 64;
            let n = self.layout.words_per_var();
            let mask = bits::all_words_mask(n) & !(bits::word_bit(w) - 1);
            self.after_change(v, mask)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Intersect `dom(v)` with an explicit bitmap.
    #[inline]
    pub fn intersect_with(&mut self, v: VarId, mask: &[u64]) -> Result<bool, Failed> {
        let changed = bits::intersect_masked(self.dom_mut(v), mask);
        if changed != 0 {
            self.after_change(v, changed)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Remove from `dom(v)` every value in an explicit bitmap.
    #[inline]
    pub fn subtract(&mut self, v: VarId, mask: &[u64]) -> Result<bool, Failed> {
        let changed = bits::subtract_masked(self.dom_mut(v), mask);
        if changed != 0 {
            self.after_change(v, changed)?;
            return Ok(true);
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macs_domain::Store;

    fn setup() -> (StoreLayout, Store, ChangeLog) {
        let l = StoreLayout::new(3, 9);
        let s = Store::root(&l);
        let log = ChangeLog::new(3);
        (l, s, log)
    }

    #[test]
    fn remove_logs_change_once() {
        let (l, mut s, mut log) = setup();
        let mut st = PropState::new(&l, s.as_words_mut(), &mut log, i64::MAX);
        assert!(st.remove(0, 3).unwrap());
        assert!(!st.remove(0, 3).unwrap());
        assert!(st.remove(0, 4).unwrap());
        let mut seen = vec![];
        log.drain(|v, mask, assigned| seen.push((v, mask, assigned)));
        assert_eq!(seen, vec![(0, bits::word_bit(0), false)]);
        assert!(log.is_empty());
    }

    #[test]
    fn assignment_event_is_reported() {
        let (l, mut s, mut log) = setup();
        let mut st = PropState::new(&l, s.as_words_mut(), &mut log, i64::MAX);
        for v in 0..9 {
            st.remove(1, v).unwrap();
        }
        let mut events = vec![];
        log.drain(|v, _, assigned| events.push((v, assigned)));
        assert_eq!(events, vec![(1, true)], "collapse to {{9}} is an assign");
    }

    #[test]
    fn wipe_out_fails() {
        let (l, mut s, mut log) = setup();
        let mut st = PropState::new(&l, s.as_words_mut(), &mut log, i64::MAX);
        for v in 0..9 {
            st.remove(1, v).unwrap();
        }
        assert_eq!(st.remove(1, 9), Err(Failed));
    }

    #[test]
    fn assign_requires_membership() {
        let (l, mut s, mut log) = setup();
        let mut st = PropState::new(&l, s.as_words_mut(), &mut log, i64::MAX);
        st.remove(2, 5).unwrap();
        assert_eq!(st.assign(2, 5), Err(Failed));
        assert!(st.assign(2, 4).unwrap());
        assert_eq!(st.value(2), Some(4));
        assert!(!st.assign(2, 4).unwrap());
    }

    #[test]
    fn signed_bounds_behave() {
        let (l, mut s, mut log) = setup();
        let mut st = PropState::new(&l, s.as_words_mut(), &mut log, i64::MAX);
        assert!(!st.remove_below(0, -5).unwrap());
        assert!(!st.remove_above(0, 100).unwrap());
        assert_eq!(st.remove_above(0, -1), Err(Failed));
        assert_eq!(st.remove_below(1, 10), Err(Failed));
        assert!(st.remove_below(2, 4).unwrap());
        assert!(st.remove_above(2, 7).unwrap());
        assert_eq!(st.min(2), Some(4));
        assert_eq!(st.max(2), Some(7));
    }

    #[test]
    fn scan_hints_survive_shrinking_and_reset_per_round() {
        // 3 vars over 0..=199 (4 words per cell) with hints on.
        let l = StoreLayout::new(3, 199);
        let mut s = Store::root(&l);
        let mut log = ChangeLog::with_hints(3);
        log.begin_round();
        {
            let mut st = PropState::new(&l, s.as_words_mut(), &mut log, i64::MAX);
            assert_eq!(st.min(0), Some(0));
            assert_eq!(st.max(0), Some(199));
            // Clear the low and high blocks; the hints must move inward.
            st.remove_below(0, 130).unwrap();
            st.remove_above(0, 140).unwrap();
            assert_eq!(st.min(0), Some(130));
            assert_eq!(st.max(0), Some(140));
        }
        // New round on a fresh (full) store: stale hints must not leak.
        let mut s2 = Store::root(&l);
        log.begin_round();
        {
            let st = PropState::new(&l, s2.as_words_mut(), &mut log, i64::MAX);
            assert_eq!(st.min(0), Some(0), "hint from the last round must die");
            assert_eq!(st.max(0), Some(199));
        }
    }

    #[test]
    fn masks_accumulate_across_marks() {
        let l = StoreLayout::new(1, 199);
        let mut s = Store::root(&l);
        let mut log = ChangeLog::new(1);
        let mut st = PropState::new(&l, s.as_words_mut(), &mut log, i64::MAX);
        st.remove(0, 3).unwrap(); // word 0
        st.remove(0, 130).unwrap(); // word 2
        let mut seen = vec![];
        log.drain(|v, mask, _| seen.push((v, mask)));
        assert_eq!(seen, vec![(0, bits::word_bit(0) | bits::word_bit(2))]);
    }
}
