//! The N-Queens problem (paper §VI: "Although simple, the N-Queens is
//! compute intensive and a typical problem used for benchmarks").
//!
//! Variables `q[i]` give the row of the queen in column `i`; no two queens
//! share a row or a diagonal.

use macs_engine::{CompiledProblem, Model, Propag, Val};

/// Constraint formulation of the queens model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueensModel {
    /// Pairwise disequalities on rows and both diagonals (weak propagation,
    /// large trees — the behaviour matching the paper's node counts).
    #[default]
    Pairwise,
    /// Three alldifferent constraints over rows and shifted diagonals
    /// (value consistency; smaller trees).
    AllDiff,
}

/// Build the `n`-queens problem.
pub fn queens(n: usize, model: QueensModel) -> CompiledProblem {
    assert!(n >= 1, "queens needs at least one column");
    let mut m = Model::new(format!("queens-{n}"));
    let q = m.new_vars(n, 0, (n - 1) as Val);
    match model {
        QueensModel::Pairwise => {
            for i in 0..n {
                for j in (i + 1)..n {
                    let d = (j - i) as i64;
                    m.post(Propag::NeqOffset {
                        x: q[i],
                        y: q[j],
                        c: 0,
                    });
                    m.post(Propag::NeqOffset {
                        x: q[i],
                        y: q[j],
                        c: d,
                    });
                    m.post(Propag::NeqOffset {
                        x: q[i],
                        y: q[j],
                        c: -d,
                    });
                }
            }
        }
        QueensModel::AllDiff => {
            // Rows.
            m.post(Propag::AllDiffVal { vars: q.clone() });
            // Diagonals via auxiliary shifted variables d1[i] = q[i] + i and
            // d2[i] = q[i] − i + (n−1) (kept non-negative).
            let d1 = m.new_vars(n, 0, (2 * n - 2) as Val);
            let d2 = m.new_vars(n, 0, (2 * n - 2) as Val);
            for i in 0..n {
                m.post(Propag::EqOffset {
                    x: d1[i],
                    y: q[i],
                    c: i as i64,
                });
                m.post(Propag::EqOffset {
                    x: d2[i],
                    y: q[i],
                    c: (n - 1 - i) as i64,
                });
            }
            m.post(Propag::AllDiffVal { vars: d1 });
            m.post(Propag::AllDiffVal { vars: d2 });
        }
    }
    m.compile()
}

/// Known solution counts (OEIS A000170) for validation.
pub const QUEENS_SOLUTIONS: [(usize, u64); 10] = [
    (4, 2),
    (5, 10),
    (6, 4),
    (7, 40),
    (8, 92),
    (9, 352),
    (10, 724),
    (11, 2680),
    (12, 14200),
    (13, 73712),
];

#[cfg(test)]
mod tests {
    use super::*;
    use macs_engine::seq::{solve_seq, SeqOptions};

    #[test]
    fn pairwise_counts_match_oeis() {
        for &(n, expect) in QUEENS_SOLUTIONS.iter().take(6) {
            let p = queens(n, QueensModel::Pairwise);
            let r = solve_seq(&p, &SeqOptions::default());
            assert_eq!(r.solutions, expect, "queens-{n}");
        }
    }

    #[test]
    fn alldiff_model_agrees_with_pairwise() {
        for n in [5usize, 6, 7, 8] {
            let a = solve_seq(&queens(n, QueensModel::Pairwise), &SeqOptions::default());
            let b = solve_seq(&queens(n, QueensModel::AllDiff), &SeqOptions::default());
            assert_eq!(a.solutions, b.solutions, "queens-{n}");
            // Stronger propagation must not enlarge the tree.
            assert!(b.nodes <= a.nodes, "queens-{n}: {} > {}", b.nodes, a.nodes);
        }
    }

    #[test]
    fn seventeen_queens_store_size_matches_paper() {
        let p = queens(17, QueensModel::Pairwise);
        assert_eq!(p.layout.cells_bytes(), 136, "the paper's 136-byte store");
    }

    #[test]
    fn check_assignment_rejects_attacking_queens() {
        // `check_assignment` propagates a fully assigned store from
        // `ScheduleSeed::All`: if that seed forgot the assignment lists,
        // nothing would run and every placement would pass.
        let p = queens(8, QueensModel::Pairwise);
        let ok: [Val; 8] = [0, 4, 7, 5, 2, 6, 1, 3];
        assert!(p.check_assignment(&ok));
        // Each placement breaks one kind of disequality only: every queen
        // on one row (c = 0), on one diagonal, on the other (c = ±d).
        let row = [0; 8];
        let diagonal: [Val; 8] = std::array::from_fn(|i| i as Val);
        let anti: [Val; 8] = std::array::from_fn(|i| 7 - i as Val);
        for bad in [row, diagonal, anti] {
            assert!(!p.check_assignment(&bad), "{bad:?}");
        }
    }

    #[test]
    fn solutions_place_no_attacking_queens() {
        let p = queens(7, QueensModel::Pairwise);
        let r = solve_seq(&p, &SeqOptions::default());
        for sol in &r.kept {
            for i in 0..7 {
                for j in (i + 1)..7 {
                    assert_ne!(sol[i], sol[j]);
                    assert_ne!(
                        (sol[i] as i64 - sol[j] as i64).abs(),
                        (j - i) as i64,
                        "diagonal attack in {sol:?}"
                    );
                }
            }
        }
    }
}
