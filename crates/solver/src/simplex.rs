//! A two-phase primal simplex method over exact rationals.
//!
//! The solver works on problems in *standard form*: minimise `cᵀx` subject to linear
//! constraints over non-negative variables. [`crate::lp`] provides a friendlier,
//! named-variable interface (including free variables) on top of this module.
//!
//! Bland's anti-cycling rule is used throughout, so the method always terminates.
//!
//! # Sparse layout
//!
//! The Farkas LPs the analyzer builds are very sparse (the largest corpus
//! program's LP has 1 008 rows, 2 940 structural columns and under 0.3 %
//! nonzeros), so both the input rows and the tableau are stored sparse. A row
//! is a `Vec<(column, coefficient)>` sorted by column, and the tableau keeps
//! no zero entries; the right-hand sides live in a separate dense column. The tableau's
//! columns are the structural variables, then one slack per inequality, then
//! one artificial per row that starts without a basic variable.
//!
//! A pivot on `(row, col)` scales the pivot row's nonzeros and rhs, then, for
//! every other row with a nonzero in `col`, merges `-factor × pivot row` into
//! that row (dropping entries that cancel) and updates its rhs. Rows without
//! a nonzero in `col` are not touched. The only dense vector is the
//! reduced-cost row, one entry per column, updated from the pivot row's
//! nonzeros. Finding a row's entry in the entering column (ratio test,
//! pivot) is a binary search.
//!
//! A dense tableau would only add operations on zero entries, which it skips
//! or which leave values unchanged. So the pivot sequence, every answer and
//! the [`pivot_work`] / [`crate::rational::overflow_work`] counts equal those
//! of the dense reference solver in `simplex/reference.rs`, which the tests
//! compare against, saturated programs included.

use crate::rational::Rational;
use std::cell::Cell;

#[cfg(test)]
mod reference;

thread_local! {
    static PIVOT_WORK: Cell<u64> = const { Cell::new(0) };
    static WORK_DEADLINE: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// Monotone per-thread count of simplex pivots performed since thread start.
///
/// Callers that need a deterministic work budget (the analyzer's "timeout"
/// emulation — the paper's T/O column counts exhausted budgets, not wall-clock
/// races) snapshot this before a unit of work and compare deltas afterwards.
pub fn pivot_work() -> u64 {
    PIVOT_WORK.with(|w| w.get())
}

fn record_pivot() {
    PIVOT_WORK.with(|w| w.set(w.get().wrapping_add(1)));
}

/// Sets the per-thread work deadline (an absolute [`pivot_work`] value) and
/// returns the previous one. Long-running synthesis loops such as
/// [`crate::lexicographic`] stop *between* LP solves once the deadline has
/// passed; an individual solve always runs to completion, so LP answers are
/// never truncated.
pub fn set_work_deadline(deadline: u64) -> u64 {
    WORK_DEADLINE.with(|d| d.replace(deadline))
}

/// Returns `true` once [`pivot_work`] has passed the deadline set by
/// [`set_work_deadline`].
pub fn deadline_exceeded() -> bool {
    WORK_DEADLINE.with(|d| PIVOT_WORK.with(|w| w.get()) > d.get())
}

/// Comparison operator of a standard-form constraint row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowOp {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
    /// `Σ aᵢxᵢ = b`
    Eq,
}

/// A sparse row: its nonzero `(column, coefficient)` entries, sorted by column.
pub type SparseRow = Vec<(usize, Rational)>;

/// A linear program in standard form: minimise `cᵀx` s.t. rows, `x ≥ 0`.
#[derive(Clone, Debug, Default)]
pub struct StandardForm {
    /// Number of decision variables (all constrained to be non-negative).
    pub num_vars: usize,
    /// Constraint rows `(nonzeros, op, rhs)`. The nonzeros are sorted by
    /// strictly increasing column, every column is `< num_vars`, and absent
    /// columns are zero (explicit zeros are allowed and ignored).
    pub rows: Vec<(SparseRow, RowOp, Rational)>,
    /// Objective coefficients to minimise; `objective.len() == num_vars`.
    pub objective: Vec<Rational>,
}

/// Result of solving a standard-form program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimplexOutcome {
    /// An optimal solution was found.
    Optimal {
        /// The minimal objective value.
        objective: Rational,
        /// A value for every decision variable.
        solution: Vec<Rational>,
    },
    /// The constraint system has no solution with `x ≥ 0`.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded {
        /// A feasible point witnessing the region is non-empty.
        solution: Vec<Rational>,
    },
}

impl SimplexOutcome {
    /// Returns `true` for [`SimplexOutcome::Infeasible`].
    pub fn is_infeasible(&self) -> bool {
        matches!(self, SimplexOutcome::Infeasible)
    }

    /// Returns the solution vector if the region was feasible.
    pub fn solution(&self) -> Option<&[Rational]> {
        match self {
            SimplexOutcome::Optimal { solution, .. } => Some(solution),
            SimplexOutcome::Unbounded { solution } => Some(solution),
            SimplexOutcome::Infeasible => None,
        }
    }
}

/// The coefficient of `col` in a sparse row, if nonzero.
fn coefficient(row: &[(usize, Rational)], col: usize) -> Option<Rational> {
    row.binary_search_by_key(&col, |&(c, _)| c)
        .ok()
        .map(|i| row[i].1)
}

struct Tableau {
    /// Sparse constraint rows over the `num_cols` columns.
    rows: Vec<SparseRow>,
    /// Right-hand side of each row.
    rhs: Vec<Rational>,
    /// Index of the basic variable of each row.
    basis: Vec<usize>,
    /// Total number of structural + slack + artificial columns.
    num_cols: usize,
    /// Columns that are artificial variables (banned from entering in phase II).
    artificial: Vec<bool>,
    /// Reused output buffer of the row merge in [`Tableau::pivot`].
    scratch: SparseRow,
}

impl Tableau {
    fn pivot(&mut self, row: usize, col: usize) {
        record_pivot();
        let mut pivot_row = std::mem::take(&mut self.rows[row]);
        let pivot_value = coefficient(&pivot_row, col).expect("pivot on a zero entry");
        let inv = pivot_value.recip();
        for (_, value) in pivot_row.iter_mut() {
            *value = *value * inv;
        }
        let pivot_rhs = self.rhs[row] * inv;
        for r in 0..self.rows.len() {
            if r == row {
                continue;
            }
            let Some(factor) = coefficient(&self.rows[r], col) else {
                continue;
            };
            // Merge `rows[r] - factor · pivot_row` into the scratch buffer.
            let current = &self.rows[r];
            let out = &mut self.scratch;
            out.clear();
            let (mut i, mut j) = (0, 0);
            while i < current.len() || j < pivot_row.len() {
                let next_current = current.get(i).map_or(usize::MAX, |&(c, _)| c);
                let next_pivot = pivot_row.get(j).map_or(usize::MAX, |&(c, _)| c);
                if next_current < next_pivot {
                    out.push(current[i]);
                    i += 1;
                } else if next_pivot < next_current {
                    out.push((next_pivot, -(pivot_row[j].1 * factor)));
                    j += 1;
                } else {
                    let value = current[i].1 - pivot_row[j].1 * factor;
                    if !value.is_zero() {
                        out.push((next_current, value));
                    }
                    i += 1;
                    j += 1;
                }
            }
            std::mem::swap(&mut self.rows[r], &mut self.scratch);
            if !pivot_rhs.is_zero() {
                let delta = pivot_rhs * factor;
                self.rhs[r] -= delta;
            }
        }
        self.rows[row] = pivot_row;
        self.rhs[row] = pivot_rhs;
        self.basis[row] = col;
    }

    /// `z[c] -= scale · T[row][c]` for every nonzero of row `row`, with the rhs
    /// in slot `num_cols`.
    fn subtract_row(&self, z: &mut [Rational], row: usize, scale: Rational) {
        for &(c, value) in &self.rows[row] {
            z[c] -= value * scale;
        }
        if !self.rhs[row].is_zero() {
            z[self.num_cols] -= self.rhs[row] * scale;
        }
    }

    /// Runs simplex iterations minimising `objective` (one coefficient per column).
    /// Returns `None` if unbounded, otherwise the optimal objective value.
    ///
    /// The reduced-cost row `z` is maintained incrementally: it is initialised once as
    /// `z_j = c_j - Σ_i c_{B_i}·T[i][j]` and thereafter updated with a single
    /// row operation per pivot over the pivot row's nonzeros, instead of being
    /// recomputed from the basis on every entering-column scan. The last entry of
    /// `z` carries `-Σ_i c_{B_i}·rhs_i`, i.e. the negated objective value of the
    /// current basis.
    fn minimise(&mut self, objective: &[Rational], allow_artificial: bool) -> Option<Rational> {
        let mut in_basis = vec![false; self.num_cols];
        for &basic in &self.basis {
            in_basis[basic] = true;
        }
        // Initial reduced-cost row (rhs slot holds the negated objective value).
        let mut z: Vec<Rational> = Vec::with_capacity(self.num_cols + 1);
        z.extend_from_slice(objective);
        z.push(Rational::zero());
        for (row, &basic) in self.basis.iter().enumerate() {
            let cb = objective[basic];
            if !cb.is_zero() {
                self.subtract_row(&mut z, row, cb);
            }
        }
        loop {
            // Bland's entering rule: smallest column index with negative reduced cost.
            let mut entering = None;
            for col in 0..self.num_cols {
                if (!allow_artificial && self.artificial[col]) || in_basis[col] {
                    continue;
                }
                if z[col].is_negative() {
                    entering = Some(col);
                    break;
                }
            }
            let Some(col) = entering else {
                return Some(-z[self.num_cols]);
            };
            // Ratio test with Bland tie-breaking on the basic variable index.
            let mut leaving: Option<(usize, Rational)> = None;
            for row in 0..self.rows.len() {
                let Some(coeff) = coefficient(&self.rows[row], col) else {
                    continue;
                };
                if coeff.is_positive() {
                    let ratio = self.rhs[row] / coeff;
                    let better = match &leaving {
                        None => true,
                        Some((best_row, best_ratio)) => {
                            ratio < *best_ratio
                                || (ratio == *best_ratio && self.basis[row] < self.basis[*best_row])
                        }
                    };
                    if better {
                        leaving = Some((row, ratio));
                    }
                }
            }
            match leaving {
                Some((row, _)) => {
                    in_basis[self.basis[row]] = false;
                    in_basis[col] = true;
                    self.pivot(row, col);
                    // Eliminate the entering column from the reduced-cost row with the
                    // same row operation pivot() applied to every other row.
                    let factor = z[col];
                    if !factor.is_zero() {
                        self.subtract_row(&mut z, row, factor);
                    }
                }
                None => return None, // unbounded
            }
        }
    }

    fn basic_solution(&self, num_structural: usize) -> Vec<Rational> {
        let mut solution = vec![Rational::zero(); num_structural];
        for (row, &basic) in self.basis.iter().enumerate() {
            if basic < num_structural {
                solution[basic] = self.rhs[row];
            }
        }
        solution
    }
}

/// Solves a standard-form linear program with the two-phase simplex method.
///
/// All decision variables are implicitly constrained to be non-negative.
///
/// # Panics
///
/// Panics if a row's columns are not strictly increasing or not below
/// `num_vars`, or if `objective.len() != num_vars`.
///
/// # Examples
///
/// ```
/// use tnt_solver::simplex::{solve, RowOp, SimplexOutcome, StandardForm};
/// use tnt_solver::Rational;
///
/// // minimise -x subject to x <= 4 (so the optimum is x = 4, objective -4)
/// let program = StandardForm {
///     num_vars: 1,
///     rows: vec![(vec![(0, Rational::one())], RowOp::Le, Rational::from(4))],
///     objective: vec![-Rational::one()],
/// };
/// match solve(&program) {
///     SimplexOutcome::Optimal { objective, solution } => {
///         assert_eq!(objective, Rational::from(-4));
///         assert_eq!(solution[0], Rational::from(4));
///     }
///     other => panic!("unexpected outcome {other:?}"),
/// }
/// ```
pub fn solve(program: &StandardForm) -> SimplexOutcome {
    let num_structural = program.num_vars;
    let num_rows = program.rows.len();
    let num_slack = program
        .rows
        .iter()
        .filter(|(_, op, _)| *op != RowOp::Eq)
        .count();
    let mut columns = num_structural + num_slack;
    let mut rows = Vec::with_capacity(num_rows);
    let mut rhs_column = Vec::with_capacity(num_rows);
    let mut basis = vec![usize::MAX; num_rows];

    let mut slack_index = 0;
    let mut pending_artificial = Vec::new();
    for (row_idx, (coeffs, op, rhs)) in program.rows.iter().enumerate() {
        assert!(
            coeffs.windows(2).all(|w| w[0].0 < w[1].0)
                && coeffs.last().is_none_or(|&(c, _)| c < num_structural),
            "row columns must be strictly increasing and below num_vars"
        );
        // Normalise so the right-hand side is non-negative.
        let flip = rhs.is_negative();
        let mut row: SparseRow = coeffs
            .iter()
            .filter(|(_, c)| !c.is_zero())
            .map(|&(col, c)| (col, if flip { -c } else { c }))
            .collect();
        let effective_op = match (op, flip) {
            (RowOp::Le, false) | (RowOp::Ge, true) => RowOp::Le,
            (RowOp::Ge, false) | (RowOp::Le, true) => RowOp::Ge,
            (RowOp::Eq, _) => RowOp::Eq,
        };
        match effective_op {
            RowOp::Le => {
                row.push((num_structural + slack_index, Rational::one()));
                basis[row_idx] = num_structural + slack_index;
                slack_index += 1;
            }
            RowOp::Ge => {
                row.push((num_structural + slack_index, -Rational::one()));
                slack_index += 1;
                pending_artificial.push(row_idx);
            }
            RowOp::Eq => pending_artificial.push(row_idx),
        }
        rows.push(row);
        rhs_column.push(if flip { -*rhs } else { *rhs });
    }

    // Artificial columns, after every slack, for rows that still lack a basic
    // variable.
    let mut artificial = vec![false; columns + pending_artificial.len()];
    for &row_idx in &pending_artificial {
        rows[row_idx].push((columns, Rational::one()));
        basis[row_idx] = columns;
        artificial[columns] = true;
        columns += 1;
    }

    let mut tableau = Tableau {
        rows,
        rhs: rhs_column,
        basis,
        num_cols: columns,
        artificial: artificial.clone(),
        scratch: Vec::new(),
    };

    // Phase I: minimise the sum of artificial variables.
    if !pending_artificial.is_empty() {
        let phase1: Vec<Rational> = artificial
            .iter()
            .map(|&a| if a { Rational::one() } else { Rational::zero() })
            .collect();
        // Exact arithmetic guarantees the phase I objective is bounded below by
        // zero; an "unbounded" answer can only come from a saturated (overflowed)
        // rational corrupting the tableau. The overflow counter has already
        // poisoned the run, so answer conservatively instead of panicking.
        let Some(value) = tableau.minimise(&phase1, true) else {
            return SimplexOutcome::Infeasible;
        };
        if value.is_positive() {
            return SimplexOutcome::Infeasible;
        }
        // Drive any artificial variables remaining in the basis out of it.
        for row in 0..tableau.basis.len() {
            let basic = tableau.basis[row];
            if artificial[basic] {
                let pivot_col = tableau.rows[row]
                    .iter()
                    .map(|&(c, _)| c)
                    .find(|&c| !artificial[c]);
                if let Some(col) = pivot_col {
                    tableau.pivot(row, col);
                }
                // If no pivot column exists the row is redundant; the artificial stays
                // basic at value zero, which is harmless because it cannot re-enter.
            }
        }
    }

    // Phase II: minimise the real objective.
    let mut objective = vec![Rational::zero(); columns];
    objective[..num_structural].copy_from_slice(&program.objective);
    match tableau.minimise(&objective, false) {
        Some(value) => SimplexOutcome::Optimal {
            objective: value,
            solution: tableau.basic_solution(num_structural),
        },
        None => SimplexOutcome::Unbounded {
            solution: tableau.basic_solution(num_structural),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128) -> Rational {
        Rational::from(n)
    }

    /// A sparse row from `(column, integer coefficient)` pairs.
    fn row(entries: &[(usize, i128)]) -> SparseRow {
        entries.iter().map(|&(c, v)| (c, r(v))).collect()
    }

    #[test]
    fn feasibility_only() {
        // x + y = 3, x <= 2 has solutions with x, y >= 0.
        let program = StandardForm {
            num_vars: 2,
            rows: vec![
                (row(&[(0, 1), (1, 1)]), RowOp::Eq, r(3)),
                (row(&[(0, 1)]), RowOp::Le, r(2)),
            ],
            objective: vec![r(0), r(0)],
        };
        let outcome = solve(&program);
        let solution = outcome.solution().expect("feasible");
        assert_eq!(solution[0] + solution[1], r(3));
        assert!(solution[0] <= r(2));
    }

    #[test]
    fn infeasible_system() {
        // x <= 1 and x >= 2 is infeasible.
        let program = StandardForm {
            num_vars: 1,
            rows: vec![
                (row(&[(0, 1)]), RowOp::Le, r(1)),
                (row(&[(0, 1)]), RowOp::Ge, r(2)),
            ],
            objective: vec![r(0)],
        };
        assert!(solve(&program).is_infeasible());
    }

    #[test]
    fn optimisation() {
        // maximise x + 2y s.t. x + y <= 4, y <= 3  => minimise -(x + 2y), optimum at (1, 3).
        let program = StandardForm {
            num_vars: 2,
            rows: vec![
                (row(&[(0, 1), (1, 1)]), RowOp::Le, r(4)),
                (row(&[(1, 1)]), RowOp::Le, r(3)),
            ],
            objective: vec![r(-1), r(-2)],
        };
        match solve(&program) {
            SimplexOutcome::Optimal {
                objective,
                solution,
            } => {
                assert_eq!(objective, r(-7));
                assert_eq!(solution[0], r(1));
                assert_eq!(solution[1], r(3));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unbounded_objective() {
        // minimise -x with only x >= 1: unbounded below.
        let program = StandardForm {
            num_vars: 1,
            rows: vec![(row(&[(0, 1)]), RowOp::Ge, r(1))],
            objective: vec![r(-1)],
        };
        match solve(&program) {
            SimplexOutcome::Unbounded { solution } => assert!(solution[0] >= r(1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn negative_rhs_normalisation() {
        // -x <= -3  means x >= 3.
        let program = StandardForm {
            num_vars: 1,
            rows: vec![(row(&[(0, -1)]), RowOp::Le, r(-3))],
            objective: vec![r(1)],
        };
        match solve(&program) {
            SimplexOutcome::Optimal {
                objective,
                solution,
            } => {
                assert_eq!(objective, r(3));
                assert_eq!(solution[0], r(3));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn equality_only_system() {
        // x = 5 (with x >= 0): feasible; minimise x gives 5.
        let program = StandardForm {
            num_vars: 1,
            rows: vec![(row(&[(0, 1)]), RowOp::Eq, r(5))],
            objective: vec![r(1)],
        };
        match solve(&program) {
            SimplexOutcome::Optimal { objective, .. } => assert_eq!(objective, r(5)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn degenerate_does_not_cycle() {
        // Beale's classically degenerate (cycling) instance; Bland's rule must terminate
        // and reach the known optimum of -1/20.
        let program = StandardForm {
            num_vars: 4,
            rows: vec![
                (
                    vec![
                        (0, Rational::new(1, 4)),
                        (1, r(-60)),
                        (2, Rational::new(-1, 25)),
                        (3, r(9)),
                    ],
                    RowOp::Le,
                    r(0),
                ),
                (
                    vec![
                        (0, Rational::new(1, 2)),
                        (1, r(-90)),
                        (2, Rational::new(-1, 50)),
                        (3, r(3)),
                    ],
                    RowOp::Le,
                    r(0),
                ),
                (row(&[(2, 1)]), RowOp::Le, r(1)),
            ],
            objective: vec![Rational::new(-3, 4), r(150), Rational::new(-1, 50), r(6)],
        };
        match solve(&program) {
            SimplexOutcome::Optimal { objective, .. } => {
                assert_eq!(objective, Rational::new(-1, 20))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn redundant_equalities() {
        // x + y = 2 stated twice; still feasible.
        let program = StandardForm {
            num_vars: 2,
            rows: vec![
                (row(&[(0, 1), (1, 1)]), RowOp::Eq, r(2)),
                (row(&[(0, 1), (1, 1)]), RowOp::Eq, r(2)),
            ],
            objective: vec![r(0), r(0)],
        };
        assert!(solve(&program).solution().is_some());
    }

    #[test]
    fn contradictory_equalities() {
        let program = StandardForm {
            num_vars: 2,
            rows: vec![
                (row(&[(0, 1), (1, 1)]), RowOp::Eq, r(2)),
                (row(&[(0, 1), (1, 1)]), RowOp::Eq, r(3)),
            ],
            objective: vec![r(0), r(0)],
        };
        assert!(solve(&program).is_infeasible());
    }

    #[test]
    fn empty_rows_and_explicit_zeros() {
        // 0 = 0 and 0 <= 1 constrain nothing; 0·x ≥ 1 cannot hold.
        let program = StandardForm {
            num_vars: 2,
            rows: vec![
                (vec![], RowOp::Eq, r(0)),
                (row(&[(0, 0), (1, 0)]), RowOp::Le, r(1)),
            ],
            objective: vec![r(1), r(1)],
        };
        match solve(&program) {
            SimplexOutcome::Optimal { objective, .. } => assert_eq!(objective, r(0)),
            other => panic!("unexpected {other:?}"),
        }
        let program = StandardForm {
            num_vars: 1,
            rows: vec![(row(&[(0, 0)]), RowOp::Ge, r(1))],
            objective: vec![r(0)],
        };
        assert!(solve(&program).is_infeasible());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_row_is_rejected() {
        let program = StandardForm {
            num_vars: 2,
            rows: vec![(row(&[(1, 1), (0, 1)]), RowOp::Le, r(1))],
            objective: vec![r(0), r(0)],
        };
        let _ = solve(&program);
    }

    mod properties {
        use super::super::reference::{self, DenseForm};
        use super::super::*;
        use crate::rational::overflow_work;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        fn r(n: i128) -> Rational {
            Rational::from(n)
        }

        fn random_op(rng: &mut SmallRng) -> RowOp {
            match rng.gen_range(0u32..3) {
                0 => RowOp::Le,
                1 => RowOp::Ge,
                _ => RowOp::Eq,
            }
        }

        /// Small dense-ish programs: up to 3 variables, up to 4 rows.
        fn random_program(rng: &mut SmallRng) -> StandardForm {
            let num_vars = rng.gen_range(1usize..4);
            let num_rows = rng.gen_range(1usize..5);
            let rows = (0..num_rows)
                .map(|_| {
                    let coeffs = (0..num_vars)
                        .map(|c| (c, r(rng.gen_range(-5i128..6))))
                        .filter(|(_, v)| !v.is_zero())
                        .collect();
                    let op = random_op(rng);
                    (coeffs, op, r(rng.gen_range(-10i128..11)))
                })
                .collect();
            let objective = (0..num_vars).map(|_| r(rng.gen_range(-3i128..4))).collect();
            StandardForm {
                num_vars,
                rows,
                objective,
            }
        }

        /// Programs shaped like the analyzer's Farkas LPs: hundreds of columns at
        /// about 1 % density, mixed `Eq`/`Ge`/`Le` rows (mostly equalities),
        /// negative right-hand sides, and redundant (copied or scaled) and
        /// contradictory (copied with a shifted rhs) equalities. Most programs
        /// have a planted non-negative solution, so that optimal answers are as
        /// common as infeasible ones.
        fn farkas_program(rng: &mut SmallRng) -> StandardForm {
            let num_vars = rng.gen_range(100usize..300);
            let num_rows = rng.gen_range(10usize..60);
            let planted: Option<Vec<i128>> = rng.gen_bool(0.7).then(|| {
                (0..num_vars)
                    .map(|_| {
                        if rng.gen_bool(0.3) {
                            rng.gen_range(0i128..5)
                        } else {
                            0
                        }
                    })
                    .collect()
            });
            let contradictory = rng.gen_bool(0.2);
            let min_objective: i128 = if rng.gen_bool(0.3) { -1 } else { 0 };
            let mut rows: Vec<(SparseRow, RowOp, Rational)> = Vec::with_capacity(num_rows);
            while rows.len() < num_rows {
                let copyable: Vec<usize> = (0..rows.len())
                    .filter(|&i| rows[i].1 == RowOp::Eq)
                    .collect();
                if !copyable.is_empty() && rng.gen_bool(0.1) {
                    let (coeffs, _, rhs) = rows[copyable[rng.gen_range(0..copyable.len())]].clone();
                    let row = match rng.gen_range(0u32..3) {
                        // Redundant: the same equality again.
                        0 => (coeffs, RowOp::Eq, rhs),
                        // Redundant: a scaled copy.
                        2 => {
                            let k = r(rng.gen_range(-3i128..4).max(2));
                            let scaled = coeffs.iter().map(|&(c, v)| (c, v * k)).collect();
                            (scaled, RowOp::Eq, rhs * k)
                        }
                        // Contradictory: same left-hand side, another rhs.
                        _ if contradictory => (coeffs, RowOp::Eq, rhs + Rational::one()),
                        _ => (coeffs, RowOp::Eq, rhs),
                    };
                    rows.push(row);
                    continue;
                }
                let nonzeros = (num_vars / 100) + rng.gen_range(0usize..3);
                let mut columns: Vec<usize> = (0..nonzeros.max(1))
                    .map(|_| rng.gen_range(0..num_vars))
                    .collect();
                columns.sort_unstable();
                columns.dedup();
                let coeffs: SparseRow = columns
                    .into_iter()
                    .map(|c| {
                        let v = rng.gen_range(1i128..6);
                        (c, r(if rng.gen_bool(0.5) { v } else { -v }))
                    })
                    .collect();
                let op = if rng.gen_bool(0.6) {
                    RowOp::Eq
                } else {
                    random_op(rng)
                };
                let rhs = match &planted {
                    Some(x) => {
                        let at_x: i128 = coeffs.iter().map(|&(c, v)| v.numer() * x[c]).sum();
                        let slack = rng.gen_range(0i128..3);
                        r(match op {
                            RowOp::Eq => at_x,
                            RowOp::Le => at_x + slack,
                            RowOp::Ge => at_x - slack,
                        })
                    }
                    None if rng.gen_bool(0.5) => Rational::zero(),
                    None => r(rng.gen_range(-10i128..11)),
                };
                rows.push((coeffs, op, rhs));
            }
            let objective = (0..num_vars)
                .map(|_| {
                    if rng.gen_bool(0.05) {
                        r(rng.gen_range(min_objective..4))
                    } else {
                        Rational::zero()
                    }
                })
                .collect();
            StandardForm {
                num_vars,
                rows,
                objective,
            }
        }

        fn to_dense(program: &StandardForm) -> DenseForm {
            DenseForm {
                num_vars: program.num_vars,
                rows: program
                    .rows
                    .iter()
                    .map(|(coeffs, op, rhs)| {
                        let mut dense = vec![Rational::zero(); program.num_vars];
                        for &(c, v) in coeffs {
                            dense[c] = v;
                        }
                        (dense, *op, *rhs)
                    })
                    .collect(),
                objective: program.objective.clone(),
            }
        }

        /// Solves with the sparse solver and with the dense reference and
        /// checks they agree on the outcome (objective and full solution
        /// vector) and on the pivots and saturated operations they spent.
        /// Returns the outcome and the pivot count.
        fn assert_matches_reference(program: &StandardForm) -> (SimplexOutcome, u64) {
            let (pivots, overflows) = (pivot_work(), overflow_work());
            let sparse = solve(program);
            let sparse_cost = (pivot_work() - pivots, overflow_work() - overflows);
            let (pivots, overflows) = (pivot_work(), overflow_work());
            let dense = reference::solve(&to_dense(program));
            let dense_cost = (pivot_work() - pivots, overflow_work() - overflows);
            assert_eq!(sparse, dense, "outcome differs on {program:?}");
            assert_eq!(
                sparse_cost, dense_cost,
                "pivots/overflows differ on {program:?}"
            );
            (sparse, sparse_cost.0)
        }

        #[test]
        fn prop_sparse_matches_dense_reference_on_small_programs() {
            let mut rng = SmallRng::seed_from_u64(0x514D03);
            for _ in 0..600 {
                assert_matches_reference(&random_program(&mut rng));
            }
        }

        #[test]
        fn prop_sparse_matches_dense_reference_on_farkas_shaped_programs() {
            let mut rng = SmallRng::seed_from_u64(0x514D04);
            let (mut infeasible, mut optimal, mut unbounded, mut pivots) = (0, 0, 0, 0);
            for _ in 0..300 {
                let (outcome, spent) = assert_matches_reference(&farkas_program(&mut rng));
                pivots += spent;
                match outcome {
                    SimplexOutcome::Infeasible => infeasible += 1,
                    SimplexOutcome::Optimal { .. } => optimal += 1,
                    SimplexOutcome::Unbounded { .. } => unbounded += 1,
                }
            }
            // The generator must exercise every answer and real pivoting.
            assert!(
                infeasible >= 10 && optimal >= 10 && unbounded >= 10,
                "{infeasible} / {optimal} / {unbounded}"
            );
            assert!(pivots >= 5000, "only {pivots} pivots");
        }

        /// Coefficients near 2^100 make the pivots saturate: the sparse solver
        /// must still take the dense reference's pivots and record the same
        /// overflows.
        #[test]
        fn prop_sparse_matches_dense_reference_under_saturation() {
            let mut rng = SmallRng::seed_from_u64(0x514D05);
            let mut saturated = 0;
            for _ in 0..300 {
                let mut program = random_program(&mut rng);
                for (coeffs, _, rhs) in program.rows.iter_mut() {
                    for (_, v) in coeffs.iter_mut() {
                        *v = *v * r(rng.gen_range(1i128..1 << 100));
                    }
                    *rhs = *rhs * Rational::new(rng.gen_range(1i128..1 << 100), 7);
                }
                let before = overflow_work();
                assert_matches_reference(&program);
                if overflow_work() > before {
                    saturated += 1;
                }
            }
            assert!(saturated >= 30, "only {saturated} programs saturated");
        }

        fn satisfies(program: &StandardForm, solution: &[Rational]) -> bool {
            solution.iter().all(|x| *x >= Rational::zero())
                && program.rows.iter().all(|(coeffs, op, rhs)| {
                    let lhs = coeffs
                        .iter()
                        .fold(Rational::zero(), |acc, &(c, v)| acc + v * solution[c]);
                    match op {
                        RowOp::Le => lhs <= *rhs,
                        RowOp::Ge => lhs >= *rhs,
                        RowOp::Eq => lhs == *rhs,
                    }
                })
        }

        /// Any solution the simplex reports (optimal or the feasible witness of
        /// an unbounded program) must actually satisfy every constraint row and
        /// the non-negativity restriction, and an optimal objective value must
        /// match the returned point.
        #[test]
        fn prop_feasible_answers_satisfy_the_constraints() {
            let mut rng = SmallRng::seed_from_u64(0x514D01);
            let mut feasible = 0;
            for _ in 0..600 {
                let program = random_program(&mut rng);
                match solve(&program) {
                    SimplexOutcome::Infeasible => {}
                    SimplexOutcome::Unbounded { solution } => {
                        assert!(
                            satisfies(&program, &solution),
                            "unbounded witness violates constraints: {program:?} {solution:?}"
                        );
                        feasible += 1;
                    }
                    SimplexOutcome::Optimal {
                        objective,
                        solution,
                    } => {
                        assert!(
                            satisfies(&program, &solution),
                            "optimal point violates constraints: {program:?} {solution:?}"
                        );
                        let value = program
                            .objective
                            .iter()
                            .zip(&solution)
                            .fold(Rational::zero(), |acc, (c, x)| acc + *c * *x);
                        assert_eq!(value, objective, "objective mismatch: {program:?}");
                        feasible += 1;
                    }
                }
            }
            assert!(
                feasible > 100,
                "generator produced too few feasible programs"
            );
        }

        /// The all-zero point satisfying the constraints implies the program is
        /// never reported infeasible (no false `Infeasible` answers).
        #[test]
        fn prop_zero_witness_refutes_infeasibility() {
            let mut rng = SmallRng::seed_from_u64(0x514D02);
            for _ in 0..600 {
                let program = random_program(&mut rng);
                let zero = vec![Rational::zero(); program.num_vars];
                if satisfies(&program, &zero) {
                    assert!(
                        !solve(&program).is_infeasible(),
                        "zero point satisfies but reported infeasible: {program:?}"
                    );
                }
            }
        }
    }
}
