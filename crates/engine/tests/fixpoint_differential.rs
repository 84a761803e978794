//! Differential check of [`Engine::propagate`] against a naive oracle.
//!
//! Random models mix `NeqOffset` and `AllDiffVal` (compiled into assignment
//! lists and fired outside the queue) with queued propagators — `EqOffset`,
//! `LeOffset`, `NeqConst`, `LinearLe` — including self-disequalities
//! `x ≠ x + c`, alldifferents that repeat a variable, duplicate posts,
//! offsets beyond the domain, and pairs posted with two to four offsets
//! (in a row, so their entries fire as one run, or scattered among the
//! other posts). Each is propagated from random partial stores under
//! `ScheduleSeed::All`, and from a branching decision on a store at
//! fixpoint under `ScheduleSeed::Var`. The oracle runs every `Propag::run`
//! in post order until a full pass changes nothing; all these propagators
//! are monotone, so both must reach the same greatest common fixpoint: the
//! same verdict and, on success, a bit-identical store. The engine's
//! `runs` count must also equal that of a reference engine that fires
//! every list entry on its own. Seeded, no external crate.

use std::collections::VecDeque;

use macs_engine::propag::Scratch;
use macs_engine::{
    bits, ChangeLog, CompiledProblem, Engine, Failed, Model, Objective, PropOutcome, PropState,
    Propag, ScheduleSeed, Store, Val, VarId,
};

/// SplitMix64: a seeded stream, enough for test-case generation.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// Two distinct variables of `0..n` (`n ≥ 2`).
    fn pair(&mut self, n: usize) -> (VarId, VarId) {
        let x = self.below(n as u64) as VarId;
        let y = (x + 1 + self.below(n as u64 - 1) as usize) % n;
        (x, y)
    }
}

/// An offset: usually inside `±(max + 1)`, sometimes far outside it.
fn offset(rng: &mut Rng, max: Val) -> i64 {
    let m = max as i64;
    match rng.below(10) {
        0 => [i64::MAX, i64::MIN, 1 << 32, -(1 << 32)][rng.below(4) as usize],
        1 => (m + 1 + rng.below(3) as i64) * if rng.chance(1, 2) { 1 } else { -1 },
        2 => 0,
        _ => rng.below(2 * max as u64 + 3) as i64 - m - 1,
    }
}

fn random_posts(rng: &mut Rng, n: usize, max: Val) -> Vec<Propag> {
    let count = 1 + rng.below(12) as usize;
    let mut posts: Vec<Propag> = Vec::with_capacity(count);
    for _ in 0..count {
        if !posts.is_empty() && rng.chance(1, 10) {
            // A duplicate post.
            let again = posts[rng.below(posts.len() as u64) as usize].clone();
            posts.push(again);
            continue;
        }
        let (x, y) = rng.pair(n);
        if rng.chance(1, 8) {
            // One pair, two to four offsets: in a row, or scattered.
            let y = if rng.chance(1, 8) { x } else { y };
            let scatter = rng.chance(1, 2);
            for _ in 0..2 + rng.below(3) {
                let p = Propag::NeqOffset {
                    x,
                    y,
                    c: offset(rng, max),
                };
                let at = if scatter {
                    rng.below(posts.len() as u64 + 1) as usize
                } else {
                    posts.len()
                };
                posts.insert(at, p);
            }
            continue;
        }
        let p = match rng.below(10) {
            // Disequalities dominate, as they do in the models that use them.
            0..=4 => {
                let y = if rng.chance(1, 8) { x } else { y };
                Propag::NeqOffset {
                    x,
                    y,
                    c: offset(rng, max),
                }
            }
            5 => Propag::EqOffset {
                x,
                y,
                c: offset(rng, max),
            },
            6 => Propag::LeOffset {
                x,
                y,
                c: offset(rng, max),
            },
            7 => Propag::NeqConst {
                x,
                v: rng.below(max as u64 + 2) as Val,
            },
            8 => {
                let mut vars: Vec<VarId> = (0..n).filter(|_| rng.chance(2, 3)).collect();
                if vars.len() < 2 {
                    vars = vec![x, y];
                }
                // Sometimes one id twice: that variable can take no value.
                if rng.chance(1, 5) {
                    let again = vars[rng.below(vars.len() as u64) as usize];
                    vars.insert(rng.below(vars.len() as u64 + 1) as usize, again);
                }
                Propag::AllDiffVal { vars }
            }
            _ => {
                let mut terms: Vec<(i64, VarId)> = Vec::new();
                for v in 0..n {
                    if rng.chance(1, 2) {
                        terms.push((rng.below(7) as i64 - 3, v));
                    }
                }
                let k = rng.below(2 * max as u64 + 4) as i64 - 2;
                Propag::LinearLe { terms, k }
            }
        };
        posts.push(p);
    }
    posts
}

fn compile(n: usize, max: Val, posts: &[Propag]) -> CompiledProblem {
    let mut m = Model::new("differential");
    m.new_vars(n, 0, max);
    for p in posts {
        m.post(p.clone());
    }
    m.compile()
}

/// The oracle: every propagator, in post order, until a full pass leaves
/// the store unchanged.
fn oracle(prob: &CompiledProblem, posts: &[Propag], words: &mut [u64]) -> Result<(), Failed> {
    let layout = &prob.layout;
    let mut log = ChangeLog::new(layout.num_vars());
    let mut scratch = Scratch::for_words(layout.words_per_var());
    loop {
        let before = words.to_vec();
        for p in posts {
            let mut st = PropState::new(layout, words, &mut log, i64::MAX);
            p.run(&mut st, &mut scratch, &Objective::None)?;
            log.clear();
        }
        if words == &before[..] {
            return Ok(());
        }
    }
}

/// The engine's schedule with its assignment lists fired entry by entry,
/// each with its own `PropState::remove`: the queue (FIFO, deduplicated),
/// the fire stack (LIFO, drained before every pop) and the wake filters
/// as `Engine::propagate` runs them. Returns the verdict and the number of
/// propagator executions — one per queued run, one per list entry applied
/// up to the one that wipes a domain.
fn reference_runs(
    prob: &CompiledProblem,
    words: &mut [u64],
    seed: ScheduleSeed,
) -> (PropOutcome, u64) {
    const NO_PROP: u32 = u32::MAX;
    let layout = &prob.layout;
    let lists = &prob.assign_lists;
    let mut log = ChangeLog::new(layout.num_vars());
    let mut scratch = Scratch::for_words(layout.words_per_var());
    let (mut queue, mut queued) = (VecDeque::new(), vec![false; prob.props.len()]);
    let mut fire: Vec<VarId> = Vec::new();
    let mut runs = 0;
    let has_list = |v: VarId| lists.entries(v).next().is_some();
    let assigned = |words: &[u64], v: VarId| bits::is_singleton(&words[layout.var_range(v)]);
    let mut enqueue = |p: u32, queue: &mut VecDeque<u32>| {
        if !queued[p as usize] {
            queued[p as usize] = true;
            queue.push_back(p);
        }
    };
    let seeded: Vec<VarId> = match seed {
        ScheduleSeed::All => {
            for p in 0..prob.props.len() as u32 {
                enqueue(p, &mut queue);
            }
            (0..layout.num_vars()).collect()
        }
        ScheduleSeed::Var(v) => {
            for w in &prob.watchers[v] {
                enqueue(w.prop, &mut queue);
            }
            if prob.objective.is_some() {
                enqueue(prob.props.len() as u32 - 1, &mut queue);
            }
            vec![v]
        }
    };
    fire.extend(
        seeded
            .into_iter()
            .filter(|&v| has_list(v) && assigned(words, v)),
    );
    loop {
        let mut st = PropState::new(layout, words, &mut log, i64::MAX);
        let running = if let Some(v) = fire.pop() {
            let a = st.value(v).unwrap() as i64;
            for (other, off) in lists.entries(v) {
                runs += 1;
                let forbidden = a + off;
                if (0..=layout.max_value() as i64).contains(&forbidden)
                    && st.remove(other, forbidden as Val).is_err()
                {
                    return (PropOutcome::Failed, runs);
                }
            }
            NO_PROP
        } else if let Some(p) = queue.pop_front() {
            queued[p as usize] = false;
            runs += 1;
            let prop = &prob.props[p as usize];
            if prop.run(&mut st, &mut scratch, &prob.objective).is_err() {
                return (PropOutcome::Failed, runs);
            }
            p
        } else {
            return (PropOutcome::Fixpoint, runs);
        };
        log.drain(|v, mask, became_assigned| {
            if became_assigned && has_list(v) {
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

/// A random sub-store of the root: some domains thinned, some assigned,
/// none empty.
fn random_store(rng: &mut Rng, prob: &CompiledProblem) -> Store {
    let layout = &prob.layout;
    let mut s = prob.root.clone();
    for v in 0..layout.num_vars() {
        let dom = s.dom_mut(layout, v);
        match rng.below(4) {
            0 => {
                let vals: Vec<Val> = bits::iter(dom).collect();
                bits::keep_only(dom, vals[rng.below(vals.len() as u64) as usize]);
            }
            1 => {
                for val in 0..=layout.max_value() {
                    if bits::count(dom) > 1 && rng.chance(1, 3) {
                        bits::remove(dom, val);
                    }
                }
            }
            _ => {}
        }
    }
    s
}

/// Propagate `start` both ways and require the same verdict and store.
fn agree(
    engine: &mut Engine,
    prob: &CompiledProblem,
    posts: &[Propag],
    start: &Store,
    seed: ScheduleSeed,
    case: u64,
) -> Option<Store> {
    let mut by_engine = start.clone();
    let before = engine.runs;
    let verdict = engine.propagate(prob, by_engine.as_words_mut(), i64::MAX, seed);
    let mut by_reference = start.clone();
    let (ref_verdict, ref_runs) = reference_runs(prob, by_reference.as_words_mut(), seed);
    assert_eq!(
        (verdict, engine.runs - before),
        (ref_verdict, ref_runs),
        "runs, case {case}, {seed:?}: {posts:?}"
    );
    let mut by_oracle = start.clone();
    let expect = match oracle(prob, posts, by_oracle.as_words_mut()) {
        Ok(()) => PropOutcome::Fixpoint,
        Err(Failed) => PropOutcome::Failed,
    };
    assert_eq!(verdict, expect, "case {case}, {seed:?}: {posts:?}");
    if verdict == PropOutcome::Failed {
        return None;
    }
    assert_eq!(by_engine, by_oracle, "case {case}, {seed:?}: {posts:?}");
    assert_eq!(by_reference, by_oracle, "reference, case {case}: {posts:?}");
    Some(by_engine)
}

/// A branching decision on `v` (which must not be assigned): assign one of
/// its values, or remove one.
fn decide(rng: &mut Rng, prob: &CompiledProblem, s: &mut Store, v: VarId) {
    let dom = s.dom_mut(&prob.layout, v);
    let vals: Vec<Val> = bits::iter(dom).collect();
    let pick = vals[rng.below(vals.len() as u64) as usize];
    if rng.chance(2, 3) {
        bits::keep_only(dom, pick);
    } else {
        bits::remove(dom, pick);
    }
}

#[test]
fn engine_matches_the_naive_oracle_on_random_models() {
    let mut rng = Rng(0x5EED_F1C5);
    let (mut failed, mut fixpoints, mut var_seeded) = (0u32, 0u32, 0u32);
    for case in 0..4000u64 {
        let n = 2 + rng.below(5) as usize;
        // Mostly one-word cells; one case in five spans several words.
        let max = if rng.chance(1, 5) {
            60 + rng.below(80) as Val
        } else {
            1 + rng.below(9) as Val
        };
        let posts = random_posts(&mut rng, n, max);
        let prob = compile(n, max, &posts);
        let mut engine = Engine::new(&prob);
        for _ in 0..3 {
            let start = random_store(&mut rng, &prob);
            let Some(fix) = agree(&mut engine, &prob, &posts, &start, ScheduleSeed::All, case)
            else {
                failed += 1;
                continue;
            };
            fixpoints += 1;
            // From a store at fixpoint, a decision on one variable is all
            // that changed: the engine's `Var` seed must suffice.
            let open: Vec<VarId> = (0..n)
                .filter(|&v| bits::count(fix.dom(&prob.layout, v)) > 1)
                .collect();
            if open.is_empty() {
                continue;
            }
            let v = open[rng.below(open.len() as u64) as usize];
            let mut child = fix.clone();
            decide(&mut rng, &prob, &mut child, v);
            agree(
                &mut engine,
                &prob,
                &posts,
                &child,
                ScheduleSeed::Var(v),
                case,
            );
            var_seeded += 1;
        }
    }
    // Both verdicts must actually occur, and often.
    assert!(failed > 1000, "{failed} failures");
    assert!(fixpoints > 1000, "{fixpoints} fixpoints");
    assert!(var_seeded > 1000, "{var_seeded} Var-seeded checks");
}

#[test]
fn a_failed_list_firing_leaves_the_engine_reusable() {
    // x, y, z ∈ 0..=2, pairwise different: x = y = 0 fails on firing y's
    // list while the fire stack still holds x.
    let posts: Vec<Propag> = [(0, 1), (1, 2), (0, 2)]
        .into_iter()
        .map(|(x, y)| Propag::NeqOffset { x, y, c: 0 })
        .collect();
    let prob = compile(3, 2, &posts);
    let mut engine = Engine::new(&prob);
    let mut s = prob.root.clone();
    bits::keep_only(s.dom_mut(&prob.layout, 0), 0);
    bits::keep_only(s.dom_mut(&prob.layout, 1), 0);
    let verdict = engine.propagate(&prob, s.as_words_mut(), i64::MAX, ScheduleSeed::All);
    assert_eq!(verdict, PropOutcome::Failed);
    // A fresh store where only z is assigned: a stale x on the stack would
    // fire an unassigned variable.
    let mut t = prob.root.clone();
    bits::keep_only(t.dom_mut(&prob.layout, 2), 2);
    let verdict = engine.propagate(&prob, t.as_words_mut(), i64::MAX, ScheduleSeed::Var(2));
    assert_eq!(verdict, PropOutcome::Fixpoint);
    for v in 0..2 {
        let vals: Vec<Val> = bits::iter(t.dom(&prob.layout, v)).collect();
        assert_eq!(vals, vec![0, 1], "var {v}");
    }
}
