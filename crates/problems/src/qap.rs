//! The Quadratic Assignment Problem (paper §VI: evaluated on QAPLIB's
//! `esc16e`).
//!
//! Variables `p[i]` give the location assigned to facility `i`; the
//! objective is `min Σᵢⱼ f[i][j] · d[p(i)][p(j)]`.
//!
//! ## Instance provenance
//!
//! The QAPLIB file format is parsed by [`QapInstance::parse`], so any real
//! QAPLIB instance can be solved from disk. The original `esc16e` data file
//! is not redistributed here; [`QapInstance::esc16_like`] builds an
//! instance of the same *family* (Eschermann–Wunderlich 16-facility
//! hypercube instances): the distance matrix is the Hamming distance
//! between the 4-bit location codes — exactly esc16's — and the flow matrix
//! is sparse, symmetric, small-integer, zero-diagonal, generated from a
//! fixed seed. This preserves what matters for solver behaviour (the
//! hypercube distance structure and sparse flows that shape the B&B tree);
//! see DESIGN.md for the substitution note.

use std::sync::Arc;

/// The embedded QAPLIB-format text of the repo's `esc16e` instance
/// (regenerate with `REGEN_QAP_DATA=1 cargo test -p macs-problems
/// regen_embedded_esc16e`).
pub const ESC16E_DAT: &str = include_str!("data/esc16e.dat");
use macs_engine::{
    CompiledProblem, CostEval, Failed, Model, PropState, Propag, StoreView, Val, VarId,
};

/// A QAP instance: `n` facilities/locations, flow and distance matrices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QapInstance {
    pub name: String,
    pub n: usize,
    /// Flow between facilities, row-major `n × n`.
    pub flow: Vec<i64>,
    /// Distance between locations, row-major `n × n`.
    pub dist: Vec<i64>,
}

impl QapInstance {
    /// The largest matrix entry [`Self::parse`] accepts: with `n ≤ 64`,
    /// `n² · MAX_ENTRY²` = 2⁶² bounds every objective and every bound.
    pub const MAX_ENTRY: i64 = 1 << 25;

    #[inline]
    pub fn f(&self, i: usize, j: usize) -> i64 {
        self.flow[i * self.n + j]
    }

    #[inline]
    pub fn d(&self, a: usize, b: usize) -> i64 {
        self.dist[a * self.n + b]
    }

    /// Cost of a complete assignment `p` (facility → location).
    pub fn cost(&self, p: &[Val]) -> i64 {
        let n = self.n;
        let mut c = 0i64;
        for i in 0..n {
            for j in 0..n {
                c += self.f(i, j) * self.d(p[i] as usize, p[j] as usize);
            }
        }
        c
    }

    /// Parse the QAPLIB text format: `n`, then the two `n × n` matrices
    /// (whitespace-separated integers; QAPLIB lists A then B with objective
    /// `Σ a[i][j]·b[p(i)][p(j)]`, i.e. A = flows, B = distances), and
    /// nothing after them. Every entry must be non-negative — the lower
    /// bound ([`QapBound`]) is unsound otherwise — and at most
    /// [`Self::MAX_ENTRY`], so no objective or bound overflows an `i64`.
    pub fn parse(name: &str, text: &str) -> Result<Self, String> {
        let mut it = text.split_whitespace().map(|t| {
            t.parse::<i64>()
                .map_err(|e| format!("bad integer {t:?}: {e}"))
        });
        let n = it.next().ok_or("empty file")?? as usize;
        if n == 0 || n > 64 {
            return Err(format!("unsupported size n={n}"));
        }
        let mut read_matrix = |what: &str| -> Result<Vec<i64>, String> {
            let mut m = Vec::with_capacity(n * n);
            for k in 0..n * n {
                let x = it.next().ok_or_else(|| {
                    format!("{what} matrix truncated at element {k} (need {})", n * n)
                })??;
                if x < 0 {
                    return Err(format!("{what} matrix has negative element {k}: {x}"));
                }
                if x > Self::MAX_ENTRY {
                    return Err(format!(
                        "{what} matrix element {k} is {x}, above the {} limit",
                        Self::MAX_ENTRY
                    ));
                }
                m.push(x);
            }
            Ok(m)
        };
        let flow = read_matrix("flow")?;
        let dist = read_matrix("distance")?;
        if let Some(extra) = text.split_whitespace().nth(1 + 2 * n * n) {
            return Err(format!(
                "trailing token {extra:?} after the two {n}x{n} matrices"
            ));
        }
        Ok(QapInstance {
            name: name.to_string(),
            n,
            flow,
            dist,
        })
    }

    /// Serialise in QAPLIB format.
    pub fn to_qaplib(&self) -> String {
        let mut s = format!("{}\n\n", self.n);
        for m in [&self.flow, &self.dist] {
            for r in 0..self.n {
                let row: Vec<String> = (0..self.n).map(|c| m[r * self.n + c].to_string()).collect();
                s.push_str(&row.join(" "));
                s.push('\n');
            }
            s.push('\n');
        }
        s
    }

    /// An `esc16`-family instance: 16 locations on a 4-cube (Hamming
    /// distances) and a sparse symmetric flow matrix from a fixed seed.
    pub fn esc16_like(seed: u64) -> Self {
        let n = 16;
        let mut dist = vec![0i64; n * n];
        for a in 0..n {
            for b in 0..n {
                dist[a * n + b] = ((a ^ b) as u32).count_ones() as i64;
            }
        }
        // SplitMix64 stream for the flows.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0BAD_5EED_CAFE_F00D;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut flow = vec![0i64; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                // ~25% of pairs carry a small flow, like the esc family.
                let r = next();
                let v = if r % 4 == 0 { (r >> 8) % 6 + 1 } else { 0 } as i64;
                flow[i * n + j] = v;
                flow[j * n + i] = v;
            }
        }
        QapInstance {
            name: format!("esc16-sim-{seed}"),
            n,
            flow,
            dist,
        }
    }

    /// A hypercube-flavoured instance of any size `n ≤ 16`: locations are
    /// the first `n` vertices of the 4-cube (Hamming distances), flows are
    /// the leading `n × n` block of the esc16-style sparse flow matrix.
    /// Useful for scaling the B&B tree between the 8- and 16-facility
    /// extremes.
    pub fn hypercube_like(n: usize, seed: u64) -> Self {
        assert!((2..=16).contains(&n));
        let big = QapInstance::esc16_like(seed);
        let mut dist = vec![0i64; n * n];
        let mut flow = vec![0i64; n * n];
        for a in 0..n {
            for b in 0..n {
                dist[a * n + b] = ((a ^ b) as u32).count_ones() as i64;
                flow[a * n + b] = big.flow[a * 16 + b];
            }
        }
        QapInstance {
            name: format!("cube{n}-sim-{seed}"),
            n,
            flow,
            dist,
        }
    }

    /// The embedded `esc16e` stand-in, loaded through the QAPLIB parser
    /// from the in-repo data file `data/esc16e.dat`.
    ///
    /// The file holds a fixed instance of the esc16 family (see
    /// [`QapInstance::esc16_like`] for the construction and the crate
    /// docs for the provenance note: the original QAPLIB file is not
    /// redistributed, but any genuine `esc16e.dat` drops into the same
    /// loader). Benchmarks route through this function so the whole
    /// parse-from-text path is exercised, exactly as a downloaded QAPLIB
    /// instance would be.
    pub fn esc16e() -> Self {
        QapInstance::parse("esc16e", ESC16E_DAT).expect("embedded esc16e data must parse")
    }

    /// The leading `n × n` sub-instance (facilities and locations
    /// `0..n`): hypercube distances and the matching flow block.
    /// `sub_instance(self.n)` is the identity; smaller `n` scales the B&B
    /// tree down for quick benchmark modes.
    pub fn sub_instance(&self, n: usize) -> Self {
        assert!(n >= 2 && n <= self.n, "sub-instance size {n} out of range");
        if n == self.n {
            return self.clone();
        }
        let mut flow = vec![0i64; n * n];
        let mut dist = vec![0i64; n * n];
        for a in 0..n {
            for b in 0..n {
                flow[a * n + b] = self.f(a, b);
                dist[a * n + b] = self.d(a, b);
            }
        }
        QapInstance {
            name: format!("{}[{n}]", self.name),
            n,
            flow,
            dist,
        }
    }

    /// A smaller hypercube-flavoured instance (8 locations on a 3-cube) for
    /// tests and quick experiments.
    pub fn cube8_like(seed: u64) -> Self {
        let mut big = QapInstance::esc16_like(seed);
        let n = 8;
        let mut dist = vec![0i64; n * n];
        for a in 0..n {
            for b in 0..n {
                dist[a * n + b] = ((a ^ b) as u32).count_ones() as i64;
            }
        }
        let mut flow = vec![0i64; n * n];
        for i in 0..n {
            for j in 0..n {
                flow[i * n + j] = big.flow[i * 16 + j];
            }
        }
        big.name = format!("cube8-sim-{seed}");
        big.n = n;
        big.flow = flow;
        big.dist = dist;
        big
    }
}

/// For each location `a`, the other locations grouped by their distance
/// from `a` into *rings*: the distinct distances in ascending order, each
/// with the bitmask of the locations at that distance. One flat table
/// (per-location starts plus one ring array), like the engine's
/// assignment lists.
#[derive(Debug)]
struct Rings {
    /// `starts[a]..starts[a + 1]` is `a`'s slice of `rings`.
    starts: Vec<u32>,
    rings: Vec<(i64, u64)>,
}

impl Rings {
    /// The rings of `dist(a, b)` around each `a`, over every `b ≠ a`.
    fn new(n: usize, dist: impl Fn(usize, usize) -> i64) -> Self {
        let mut starts = Vec::with_capacity(n + 1);
        let mut rings = Vec::new();
        for a in 0..n {
            starts.push(rings.len() as u32);
            let mut others: Vec<(i64, usize)> = (0..n)
                .filter(|&b| b != a)
                .map(|b| (dist(a, b), b))
                .collect();
            others.sort_unstable();
            for ring in others.chunk_by(|p, q| p.0 == q.0) {
                rings.push((ring[0].0, ring.iter().fold(0, |m, &(_, b)| m | 1 << b)));
            }
        }
        starts.push(rings.len() as u32);
        Rings { starts, rings }
    }

    /// The least distance from `a` to a location of `dom` other than `a`,
    /// or `None` if `dom` holds no other location.
    #[inline]
    fn nearest(&self, a: usize, dom: u64) -> Option<i64> {
        let ring = &self.rings[self.starts[a] as usize..self.starts[a + 1] as usize];
        ring.iter()
            .find(|&&(_, mask)| mask & dom != 0)
            .map(|&(d, _)| d)
    }
}

/// Branch-and-bound lower bound for the QAP (a Gilmore–Lawler-style
/// decomposition): exact terms for assigned pairs, domain-minimised terms
/// when one side is assigned, and the global minimum off-diagonal distance
/// for unassigned pairs. Monotone in domain shrinkage by construction.
///
/// The instance is compiled once: the flowing pairs into one flat list of
/// weighted terms, heaviest first, and each location's distances into rings
/// (`Rings`), one set along rows (`d(a, ·)`) and one along columns
/// (`d(·, b)`). A one-sided term is then the first ring that meets the open
/// side's domain word. When `dist` is symmetric the terms of `(i, j)` and
/// `(j, i)` are equal in every case, so one term `i < j` carries both flows.
///
/// Every term is a least *distance*, which bounds its pair's cost only if
/// flows and distances are non-negative; [`QapBound::new`] asserts that.
/// The sum therefore only grows, and [`CostEval::prune`] stops it at the
/// incumbent.
#[derive(Debug)]
pub struct QapBound {
    inst: QapInstance,
    vars: Vec<VarId>,
    min_offdiag: i64,
    /// `(vars[i], vars[j], weight)`, heaviest first: every `i ≠ j` with a
    /// non-zero flow, or under a symmetric `dist` every `i < j` with a
    /// non-zero `f[i][j] + f[j][i]`.
    terms: Vec<(u32, u32, i64)>,
    rows: Rings,
    cols: Rings,
}

impl QapBound {
    /// Compile `inst`'s bound over `vars` (`vars[i]` is facility `i`'s
    /// location, within `0..inst.n`).
    ///
    /// # Panics
    /// If a flow or distance is negative (the bound would be unsound) or
    /// above [`QapInstance::MAX_ENTRY`] (a weighted term, the bound's sum
    /// or the objective could wrap — silently, in a release build), if
    /// `inst.n > 64` (a domain must fit one word), or if `vars` does not
    /// name one variable per facility. The fields are public, so the
    /// parser's checks do not cover a directly built instance.
    pub fn new(inst: QapInstance, vars: Vec<VarId>) -> Self {
        let n = inst.n;
        assert!(n <= 64, "QapBound reads a domain as one word: n = {n} > 64");
        assert_eq!(vars.len(), n, "QapBound needs one variable per facility");
        assert!(
            inst.flow
                .iter()
                .chain(&inst.dist)
                .all(|x| (0..=QapInstance::MAX_ENTRY).contains(x)),
            "QapBound needs flows and distances in 0..=MAX_ENTRY: non-negative, as its terms \
             are least distances, and bounded, so no sum wraps"
        );
        let symmetric = (0..n).all(|a| (0..a).all(|b| inst.d(a, b) == inst.d(b, a)));
        let mut min_offdiag = i64::MAX;
        let mut terms = Vec::new();
        for i in 0..n {
            for j in (0..n).filter(|&j| j != i) {
                min_offdiag = min_offdiag.min(inst.d(i, j));
                if symmetric && i > j {
                    continue;
                }
                let w = inst.f(i, j) + if symmetric { inst.f(j, i) } else { 0 };
                if w != 0 {
                    terms.push((vars[i] as u32, vars[j] as u32, w));
                }
            }
        }
        // Heaviest first: the sum reaches an incumbent in fewer terms.
        terms.sort_by_key(|&(_, _, w)| std::cmp::Reverse(w));
        QapBound {
            rows: Rings::new(n, |a, b| inst.d(a, b)),
            cols: Rings::new(n, |b, a| inst.d(a, b)),
            inst,
            vars,
            min_offdiag,
            terms,
        }
    }

    /// The bound, summed term by term until it reaches `stop`: the full
    /// bound if it stays below `stop`, `i64::MAX` if a term is dead, and
    /// otherwise a partial sum `≥ stop`.
    #[inline]
    fn sum(&self, view: StoreView<'_>, stop: i64) -> i64 {
        // A domain fits one word, read in place; a side is assigned iff its
        // word has exactly one bit.
        let word = |v: u32| view.words[view.layout.var_offset(v as VarId)];
        let mut lb = 0i64;
        for &(x, y, w) in &self.terms {
            let (wx, wy) = (word(x), word(y));
            let (a, b) = (wx.trailing_zeros() as usize, wy.trailing_zeros() as usize);
            let term = match (wx.is_power_of_two(), wy.is_power_of_two()) {
                (true, true) => self.inst.d(a, b),
                // Cheapest location still open to the other facility; none
                // but the same location left: dead.
                (true, false) => match self.rows.nearest(a, wy) {
                    Some(d) => d,
                    None => return i64::MAX,
                },
                (false, true) => match self.cols.nearest(b, wx) {
                    Some(d) => d,
                    None => return i64::MAX,
                },
                (false, false) => self.min_offdiag,
            };
            lb += w * term;
            if lb >= stop {
                return lb;
            }
        }
        lb
    }
}

impl CostEval for QapBound {
    fn lower_bound(&self, view: StoreView<'_>) -> i64 {
        self.sum(view, i64::MAX)
    }

    /// Fails iff `lower_bound ≥ incumbent`, but stops summing once the
    /// partial sum reaches the incumbent: every term is non-negative.
    fn prune(&self, st: &mut PropState<'_>, incumbent: i64) -> Result<(), Failed> {
        let view = StoreView::new(st.layout(), st.store_words());
        let fails = self.sum(view, incumbent) >= incumbent;
        debug_assert!(fails == (self.lower_bound(view) >= incumbent));
        if fails {
            Err(Failed)
        } else {
            Ok(())
        }
    }

    fn eval(&self, assignment: &[Val]) -> i64 {
        // The model's variables are the first n; auxiliary variables (none
        // today) would follow them.
        let p: Vec<Val> = self.vars.iter().map(|&v| assignment[v]).collect();
        self.inst.cost(&p)
    }

    fn vars(&self) -> Vec<VarId> {
        self.vars.clone()
    }
}

/// Build the CP model for a QAP instance: a permutation of locations with
/// the quadratic objective under branch and bound.
pub fn qap_model(inst: &QapInstance) -> CompiledProblem {
    let n = inst.n;
    let mut m = Model::new(inst.name.clone());
    let p = m.new_vars(n, 0, (n - 1) as Val);
    m.post(Propag::AllDiffVal { vars: p.clone() });
    m.minimize(Arc::new(QapBound::new(inst.clone(), p)));
    m.compile()
}

#[cfg(test)]
mod tests {
    use super::*;
    use macs_engine::seq::{solve_seq, SeqOptions};
    use macs_engine::{bits, ChangeLog, Store, StoreLayout};

    /// Brute-force optimum by permutation enumeration (n ≤ 8).
    fn brute_force(inst: &QapInstance) -> i64 {
        fn perms(
            n: usize,
            cur: &mut Vec<Val>,
            used: &mut Vec<bool>,
            best: &mut i64,
            inst: &QapInstance,
        ) {
            if cur.len() == n {
                *best = (*best).min(inst.cost(cur));
                return;
            }
            for v in 0..n {
                if !used[v] {
                    used[v] = true;
                    cur.push(v as Val);
                    perms(n, cur, used, best, inst);
                    cur.pop();
                    used[v] = false;
                }
            }
        }
        let mut best = i64::MAX;
        perms(
            inst.n,
            &mut Vec::new(),
            &mut vec![false; inst.n],
            &mut best,
            inst,
        );
        best
    }

    fn tiny(n: usize) -> QapInstance {
        // Deterministic small dense instance.
        let mut flow = vec![0i64; n * n];
        let mut dist = vec![0i64; n * n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    flow[i * n + j] = ((i * 3 + j * 5) % 7) as i64;
                    dist[i * n + j] = ((i + j) % 5 + 1) as i64;
                }
            }
        }
        QapInstance {
            name: format!("tiny{n}"),
            n,
            flow,
            dist,
        }
    }

    /// Regenerates `src/data/esc16e.dat` from the generator — the
    /// provenance tool behind the embedded instance. Inert unless
    /// `REGEN_QAP_DATA=1`.
    #[test]
    fn regen_embedded_esc16e() {
        if std::env::var("REGEN_QAP_DATA").is_err() {
            return;
        }
        let inst = QapInstance::esc16_like(0xE5C16E);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/src/data/esc16e.dat");
        std::fs::write(path, inst.to_qaplib()).expect("write esc16e.dat");
    }

    #[test]
    fn embedded_esc16e_loads_through_the_parser() {
        let inst = QapInstance::esc16e();
        assert_eq!(inst.n, 16);
        assert_eq!(inst.name, "esc16e");
        // Provenance lock: the data file is exactly the generator output.
        let gen = QapInstance::esc16_like(0xE5C16E);
        assert_eq!(inst.flow, gen.flow);
        assert_eq!(inst.dist, gen.dist);
        // Hypercube distances, symmetric sparse flows — the esc16 shape.
        assert_eq!(inst.d(0, 15), 4);
        for i in 0..16 {
            assert_eq!(inst.f(i, i), 0);
        }
    }

    #[test]
    fn sub_instance_takes_the_leading_block() {
        let full = QapInstance::esc16e();
        let sub = full.sub_instance(8);
        assert_eq!(sub.n, 8);
        for a in 0..8 {
            for b in 0..8 {
                assert_eq!(sub.f(a, b), full.f(a, b));
                assert_eq!(sub.d(a, b), full.d(a, b));
            }
        }
        assert_eq!(full.sub_instance(16).flow, full.flow, "identity at n = 16");
        // Solvable end to end at a small size.
        let prob = qap_model(&full.sub_instance(5));
        let r = solve_seq(&prob, &SeqOptions::default());
        assert!(r.best_cost.is_some());
    }

    #[test]
    fn parser_round_trips() {
        let inst = QapInstance::esc16_like(7);
        let text = inst.to_qaplib();
        let back = QapInstance::parse(&inst.name, &text).unwrap();
        assert_eq!(back.n, 16);
        assert_eq!(back.flow, inst.flow);
        assert_eq!(back.dist, inst.dist);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(QapInstance::parse("x", "").is_err());
        assert!(QapInstance::parse("x", "3 1 2").is_err());
        assert!(QapInstance::parse("x", "2 1 2 3 oops 1 2 3 4").is_err());
    }

    #[test]
    fn parser_rejects_negative_entries_and_trailing_tokens() {
        // Negative entries made the bound unsound: a silent wrong optimum.
        let err = QapInstance::parse("x", "2  0 -1 1 0  0 1 1 0").unwrap_err();
        assert!(err.contains("flow") && err.contains("element 1"), "{err}");
        let err = QapInstance::parse("x", "2  0 1 1 0  0 1 -3 0").unwrap_err();
        assert!(
            err.contains("distance") && err.contains("element 2"),
            "{err}"
        );
        let err = QapInstance::parse("x", "2  0 1 1 0  0 1 1 0  7").unwrap_err();
        assert!(err.contains("trailing") && err.contains("\"7\""), "{err}");
        assert!(QapInstance::parse("x", "2  0 1 1 0  0 1 1 0 \n").is_ok());
        // An entry whose products could overflow the objective.
        let err = QapInstance::parse("x", "2  0 99999999999 1 0  0 1 1 0").unwrap_err();
        assert!(err.contains("flow") && err.contains("limit"), "{err}");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn bound_refuses_negative_entries() {
        let mut inst = tiny(3);
        inst.dist[1] = -1;
        QapBound::new(inst, (0..3).collect());
    }

    #[test]
    #[should_panic(expected = "MAX_ENTRY")]
    fn bound_refuses_entries_above_max_entry() {
        let mut inst = tiny(3);
        inst.flow[1] = QapInstance::MAX_ENTRY + 1;
        QapBound::new(inst, (0..3).collect());
    }

    #[test]
    fn entries_at_max_entry_solve_exactly() {
        let mut inst = tiny(4);
        inst.flow[1] = QapInstance::MAX_ENTRY;
        inst.dist[4 + 2] = QapInstance::MAX_ENTRY;
        inst.dist[2 * 4 + 1] = QapInstance::MAX_ENTRY;
        let r = solve_seq(&qap_model(&inst), &SeqOptions::default());
        assert_eq!(r.best_cost, Some(brute_force(&inst)));
    }

    /// The bound as it was first written: a double loop over facility
    /// pairs, iterating the open domain of every one-sided term.
    fn lower_bound_oracle(inst: &QapInstance, view: StoreView<'_>) -> i64 {
        let n = inst.n;
        let mut min_offdiag = i64::MAX;
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    min_offdiag = min_offdiag.min(inst.d(a, b));
                }
            }
        }
        let mut lb = 0i64;
        for i in 0..n {
            let di = view.dom(i);
            let vi = bits::singleton(di);
            for j in 0..n {
                let f = inst.f(i, j);
                if i == j || f == 0 {
                    continue;
                }
                let dj = view.dom(j);
                let vj = bits::singleton(dj);
                let term = match (vi, vj) {
                    (Some(a), Some(b)) => inst.d(a as usize, b as usize),
                    (Some(a), None) => {
                        let best = bits::iter(dj)
                            .filter(|&b| b != a)
                            .map(|b| inst.d(a as usize, b as usize))
                            .min();
                        match best {
                            Some(d) => d,
                            None => return i64::MAX,
                        }
                    }
                    (None, Some(b)) => {
                        let best = bits::iter(di)
                            .filter(|&a| a != b)
                            .map(|a| inst.d(a as usize, b as usize))
                            .min();
                        match best {
                            Some(d) => d,
                            None => return i64::MAX,
                        }
                    }
                    (None, None) => min_offdiag.max(0),
                };
                lb += f * term;
            }
        }
        lb
    }

    /// SplitMix64, enough for test-case generation.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    /// An asymmetric instance with small non-negative entries, about half
    /// of the flows zero, and repeated distances (so rings hold several
    /// locations).
    fn random_instance(rng: &mut Rng, n: usize) -> QapInstance {
        let mut m = |zero_in: u64, hi: u64| -> Vec<i64> {
            (0..n * n)
                .map(|_| {
                    if rng.below(zero_in) == 0 {
                        0
                    } else {
                        rng.below(hi) as i64
                    }
                })
                .collect()
        };
        let flow = m(2, 9);
        let dist = m(8, 6);
        QapInstance {
            name: format!("random{n}"),
            n,
            flow,
            dist,
        }
    }

    /// Visits 12 000 random stores: 400 instances, alternately an
    /// `esc16e` sub-instance (symmetric distances) and an asymmetric random
    /// one, each with 30 stores whose domains are emptied, assigned,
    /// thinned or left whole at random.
    fn for_random_stores(
        seed: u64,
        mut visit: impl FnMut(&QapInstance, &QapBound, &StoreLayout, &mut Store),
    ) {
        let mut rng = Rng(seed);
        let esc = QapInstance::esc16e();
        for case in 0..400 {
            let n = 2 + rng.below(15) as usize;
            let inst = if case % 2 == 0 {
                esc.sub_instance(n)
            } else {
                random_instance(&mut rng, n)
            };
            let prob = qap_model(&inst);
            let bound = QapBound::new(inst.clone(), (0..n).collect());
            for _ in 0..30 {
                let mut s = prob.root.clone();
                for v in 0..n {
                    let dom = s.dom_mut(&prob.layout, v);
                    match rng.below(8) {
                        0 => bits::clear(dom),
                        1..=3 => {
                            bits::keep_only(dom, rng.below(n as u64) as Val);
                        }
                        4..=6 => {
                            for val in 0..n as Val {
                                if rng.below(2) == 0 {
                                    bits::remove(dom, val);
                                }
                            }
                        }
                        _ => {}
                    }
                }
                visit(&inst, &bound, &prob.layout, &mut s);
            }
        }
    }

    #[test]
    fn compiled_bound_equals_the_double_loop() {
        let (mut stores, mut dead) = (0u32, 0u32);
        for_random_stores(0x0B0D_1FF5, |inst, bound, layout, s| {
            let view = StoreView::new(layout, s.as_words());
            let expect = lower_bound_oracle(inst, view);
            assert_eq!(bound.lower_bound(view), expect, "{} {s:?}", inst.name);
            stores += 1;
            dead += (expect == i64::MAX) as u32;
        });
        assert!(stores >= 10_000);
        // Both kinds of answer occur, and often.
        assert!(
            dead > 1000 && stores - dead > 1000,
            "{dead} dead of {stores}"
        );
    }

    #[test]
    fn pruning_at_the_incumbent_matches_the_full_bound() {
        let (mut kept, mut failed) = (0u32, 0u32);
        for_random_stores(0x1AC0_4B3E, |inst, bound, layout, s| {
            let oracle = lower_bound_oracle(inst, StoreView::new(layout, s.as_words()));
            let mut log = ChangeLog::new(layout.num_vars());
            for incumbent in [
                oracle.saturating_sub(1),
                oracle,
                oracle.saturating_add(1),
                0,
                i64::MAX,
            ] {
                let mut st = PropState::new(layout, s.as_words_mut(), &mut log, incumbent);
                let fails = bound.prune(&mut st, incumbent).is_err();
                assert_eq!(
                    fails,
                    oracle >= incumbent,
                    "{} bound {oracle} incumbent {incumbent}",
                    inst.name
                );
                kept += !fails as u32;
                failed += fails as u32;
            }
        });
        assert!(
            kept > 10_000 && failed > 10_000,
            "{kept} kept, {failed} failed"
        );
    }

    #[test]
    fn symmetric_distances_fold_twin_pairs() {
        let ordered = |inst: &QapInstance| -> Vec<(u32, u32, i64)> {
            let n = inst.n;
            let mut pairs: Vec<_> = (0..n)
                .flat_map(|i| (0..n).map(move |j| (i, j)))
                .filter(|&(i, j)| i != j && inst.f(i, j) != 0)
                .map(|(i, j)| (i as u32, j as u32, inst.f(i, j)))
                .collect();
            pairs.sort_unstable();
            pairs
        };
        let heaviest_first = |b: &QapBound| b.terms.windows(2).all(|t| t[0].2 >= t[1].2);
        // esc16e[9]: hypercube distances, 16 flowing ordered pairs in twins.
        let esc9 = QapInstance::esc16e().sub_instance(9);
        assert_eq!(ordered(&esc9).len(), 16);
        let bound = QapBound::new(esc9.clone(), (0..9).collect());
        assert_eq!(bound.terms.len(), 8);
        assert!(heaviest_first(&bound));
        for &(i, j, w) in &bound.terms {
            let (i, j) = (i as usize, j as usize);
            assert!(i < j);
            assert_eq!(w, esc9.f(i, j) + esc9.f(j, i));
        }
        // An asymmetric `dist` keeps every ordered pair at its own flow.
        let inst = random_instance(&mut Rng(0xA5F1), 7);
        assert!((0..7).any(|a| (0..7).any(|b| inst.d(a, b) != inst.d(b, a))));
        let bound = QapBound::new(inst.clone(), (0..7).collect());
        assert!(heaviest_first(&bound));
        let mut terms = bound.terms.clone();
        terms.sort_unstable();
        assert_eq!(terms, ordered(&inst));
    }

    #[test]
    fn esc16_distances_are_hypercube() {
        let inst = QapInstance::esc16_like(1);
        assert_eq!(inst.d(0, 15), 4);
        assert_eq!(inst.d(5, 5), 0);
        assert_eq!(inst.d(0b0011, 0b0101), 2);
        // Symmetric, zero diagonal flows.
        for i in 0..16 {
            assert_eq!(inst.f(i, i), 0);
            for j in 0..16 {
                assert_eq!(inst.f(i, j), inst.f(j, i));
            }
        }
    }

    #[test]
    fn solver_matches_brute_force_on_small_instances() {
        for n in [4usize, 5, 6] {
            let inst = tiny(n);
            let expect = brute_force(&inst);
            let prob = qap_model(&inst);
            let r = solve_seq(&prob, &SeqOptions::default());
            assert_eq!(r.best_cost, Some(expect), "qap tiny{n}");
            let p = r.best_assignment.unwrap();
            assert_eq!(inst.cost(&p), expect);
        }
    }

    #[test]
    fn cube8_matches_brute_force() {
        let inst = QapInstance::cube8_like(3);
        let expect = brute_force(&inst);
        let prob = qap_model(&inst);
        let r = solve_seq(&prob, &SeqOptions::default());
        assert_eq!(r.best_cost, Some(expect));
    }

    #[test]
    fn lower_bound_is_sound_at_the_root() {
        let inst = tiny(5);
        let prob = qap_model(&inst);
        let bound = QapBound::new(inst.clone(), (0..5).collect());
        let root_lb = bound.lower_bound(StoreView::new(&prob.layout, prob.root.as_words()));
        assert!(
            root_lb <= brute_force(&inst),
            "root LB must not exceed optimum"
        );
    }
}
