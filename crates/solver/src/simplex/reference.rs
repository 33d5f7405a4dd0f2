//! A dense two-phase simplex, the reference the differential tests compare
//! the sparse solver against: the same Bland rules, phase structure and
//! artificial drive-out, with one `Vec<Rational>` per tableau row (the rhs
//! last).

use super::{record_pivot, RowOp, SimplexOutcome};
use crate::rational::Rational;

/// A standard-form program with dense rows: `coefficients.len() == num_vars`.
#[derive(Clone, Debug, Default)]
pub struct DenseForm {
    /// Number of decision variables (all constrained to be non-negative).
    pub num_vars: usize,
    /// Constraint rows `(coefficients, op, rhs)`; `coefficients.len() == num_vars`.
    pub rows: Vec<(Vec<Rational>, RowOp, Rational)>,
    /// Objective coefficients to minimise; `objective.len() == num_vars`.
    pub objective: Vec<Rational>,
}

struct Tableau {
    /// `rows x cols` matrix; the last column is the right-hand side.
    data: Vec<Vec<Rational>>,
    /// Index of the basic variable of each row.
    basis: Vec<usize>,
    /// Total number of structural + slack + artificial columns (excludes rhs).
    num_cols: usize,
    /// Columns that are artificial variables (banned from entering in phase II).
    artificial: Vec<bool>,
}

impl Tableau {
    fn pivot(&mut self, row: usize, col: usize) {
        record_pivot();
        let pivot_value = self.data[row][col];
        debug_assert!(!pivot_value.is_zero());
        let inv = pivot_value.recip();
        for value in self.data[row].iter_mut() {
            *value = *value * inv;
        }
        for r in 0..self.data.len() {
            if r == row {
                continue;
            }
            let factor = self.data[r][col];
            if factor.is_zero() {
                continue;
            }
            for c in 0..=self.num_cols {
                if self.data[row][c].is_zero() {
                    continue;
                }
                let delta = self.data[row][c] * factor;
                self.data[r][c] -= delta;
            }
        }
        self.basis[row] = col;
    }

    /// Runs simplex iterations minimising `objective` (one coefficient per column).
    /// Returns `None` if unbounded, otherwise the optimal objective value.
    ///
    /// The reduced-cost row `z` is maintained incrementally: it is initialised once as
    /// `z_j = c_j - Σ_i c_{B_i}·T[i][j]` (O(rows·cols)) and thereafter updated with a
    /// single row operation per pivot (O(cols)), instead of being recomputed from the
    /// basis on every entering-column scan. The last entry of `z` carries
    /// `-Σ_i c_{B_i}·rhs_i`, i.e. the negated objective value of the current basis.
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
            if cb.is_zero() {
                continue;
            }
            for (slot, value) in z.iter_mut().zip(&self.data[row]) {
                if !value.is_zero() {
                    *slot -= cb * *value;
                }
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
            for row in 0..self.data.len() {
                let coeff = self.data[row][col];
                if coeff.is_positive() {
                    let ratio = self.data[row][self.num_cols] / coeff;
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
                        for (slot, value) in z.iter_mut().zip(&self.data[row]) {
                            if !value.is_zero() {
                                *slot -= *value * factor;
                            }
                        }
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
                solution[basic] = self.data[row][self.num_cols];
            }
        }
        solution
    }
}

pub fn solve(program: &DenseForm) -> SimplexOutcome {
    let num_structural = program.num_vars;
    let num_rows = program.rows.len();

    // Count slack and artificial columns.
    let mut num_slack = 0;
    for (_, op, _) in &program.rows {
        match op {
            RowOp::Le | RowOp::Ge => num_slack += 1,
            RowOp::Eq => {}
        }
    }
    // Upper bound: one artificial per row. We only materialise the ones we need.
    let mut columns = num_structural + num_slack;
    let mut data = Vec::with_capacity(num_rows);
    let mut basis = vec![usize::MAX; num_rows];
    let mut artificial_cols = Vec::new();

    let mut slack_index = 0;
    let mut pending_artificial = Vec::new();
    for (row_idx, (coeffs, op, rhs)) in program.rows.iter().enumerate() {
        assert_eq!(
            coeffs.len(),
            num_structural,
            "row has wrong number of coefficients"
        );
        // Normalise so the right-hand side is non-negative.
        let flip = rhs.is_negative();
        let sign = if flip {
            -Rational::one()
        } else {
            Rational::one()
        };
        let mut row: Vec<Rational> = coeffs.iter().map(|c| *c * sign).collect();
        row.resize(num_structural + num_slack, Rational::zero());
        let rhs = *rhs * sign;
        let effective_op = match (op, flip) {
            (RowOp::Le, false) | (RowOp::Ge, true) => RowOp::Le,
            (RowOp::Ge, false) | (RowOp::Le, true) => RowOp::Ge,
            (RowOp::Eq, _) => RowOp::Eq,
        };
        match effective_op {
            RowOp::Le => {
                row[num_structural + slack_index] = Rational::one();
                basis[row_idx] = num_structural + slack_index;
                slack_index += 1;
            }
            RowOp::Ge => {
                row[num_structural + slack_index] = -Rational::one();
                slack_index += 1;
                pending_artificial.push(row_idx);
            }
            RowOp::Eq => pending_artificial.push(row_idx),
        }
        row.push(rhs);
        data.push(row);
    }

    // Materialise artificial columns for rows that still lack a basic variable.
    for &row_idx in &pending_artificial {
        for row in data.iter_mut() {
            row.insert(columns, Rational::zero());
        }
        for row in data.iter_mut() {
            let rhs = row.pop().expect("rhs present");
            row.push(rhs);
        }
        // The two loops above kept the rhs as the last element; set the new column.
        data[row_idx][columns] = Rational::one();
        basis[row_idx] = columns;
        artificial_cols.push(columns);
        columns += 1;
    }

    let mut artificial = vec![false; columns];
    for &c in &artificial_cols {
        artificial[c] = true;
    }

    let mut tableau = Tableau {
        data,
        basis,
        num_cols: columns,
        artificial: artificial.clone(),
    };

    // Phase I: minimise the sum of artificial variables.
    if !artificial_cols.is_empty() {
        let mut phase1 = vec![Rational::zero(); columns];
        for &c in &artificial_cols {
            phase1[c] = Rational::one();
        }
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
                let pivot_col =
                    (0..columns).find(|&c| !artificial[c] && !tableau.data[row][c].is_zero());
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
