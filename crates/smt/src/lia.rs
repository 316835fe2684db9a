//! Linear integer arithmetic (LIA) consistency checking.
//!
//! Constraints are conjunctions of linear inequalities `Σ cᵢ·xᵢ ≤ d` with
//! integer coefficients (equalities are two opposite inequalities, strict
//! inequalities become non-strict by adding 1 — sound over the integers).
//! Consistency is decided by **Fourier–Motzkin elimination** over the
//! rationals, with a branch-and-bound style case split for integer
//! disequalities:
//!
//! * if the rational relaxation is infeasible, the integer constraints are
//!   certainly infeasible — `Inconsistent` answers are therefore sound;
//! * if the relaxation is feasible the checker answers `Consistent`, which is
//!   a (documented) source of incompleteness: some integer-infeasible but
//!   rational-feasible conjunctions are not refuted. This mirrors the
//!   incompleteness the paper accepts for its LIA\* pipeline (§VI).
//!
//! A variable is the [`TermId`] of the term it stands for — an integer
//! variable or an opaque sub-term such as an uninterpreted application — so
//! two variables are the same exactly when their terms are. A constraint
//! keeps its coefficients as a vector sorted by variable id.

use crate::euf::TheoryResult;
use crate::store::TermId;

/// A linear constraint `Σ coeff·var ≤ constant`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LinearConstraint {
    /// Non-zero coefficients, sorted by variable id (absent means 0).
    coefficients: Vec<(TermId, i64)>,
    /// The right-hand side constant.
    pub(crate) constant: i64,
}

impl LinearConstraint {
    /// Creates a constraint `Σ coeff·var ≤ constant`; repeated variables are
    /// summed.
    pub(crate) fn new(
        coefficients: impl IntoIterator<Item = (TermId, i64)>,
        constant: i64,
    ) -> Self {
        let mut coefficients: Vec<(TermId, i64)> = coefficients.into_iter().collect();
        coefficients.sort_unstable_by_key(|&(var, _)| var);
        coefficients.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        coefficients.retain(|&(_, c)| c != 0);
        LinearConstraint { coefficients, constant }
    }

    /// The coefficient of `var` (0 when absent).
    fn coefficient(&self, var: TermId) -> i64 {
        match self.coefficients.binary_search_by_key(&var, |&(v, _)| v) {
            Ok(position) => self.coefficients[position].1,
            Err(_) => 0,
        }
    }

    /// `-self`: every coefficient and the constant negated.
    fn negated(&self) -> Self {
        LinearConstraint {
            coefficients: self.coefficients.iter().map(|&(var, c)| (var, -c)).collect(),
            constant: -self.constant,
        }
    }

    fn is_trivial(&self) -> Option<bool> {
        if self.coefficients.is_empty() {
            Some(0 <= self.constant)
        } else {
            None
        }
    }
}

/// A conjunction of linear constraints plus integer disequalities.
#[derive(Debug, Clone, Default)]
pub(crate) struct LiaProblem {
    /// The `≤` constraints.
    constraints: Vec<LinearConstraint>,
    /// Disequalities `Σ coeff·var ≠ constant`.
    disequalities: Vec<LinearConstraint>,
}

impl LiaProblem {
    /// Adds `Σ coeff·var ≤ constant`.
    pub(crate) fn add_le(&mut self, constraint: LinearConstraint) {
        self.constraints.push(constraint);
    }

    /// Adds `Σ coeff·var = constant` (as two inequalities).
    pub(crate) fn add_eq(&mut self, constraint: LinearConstraint) {
        let negated = constraint.negated();
        self.constraints.push(constraint);
        self.constraints.push(negated);
    }

    /// Adds `Σ coeff·var ≠ constant`.
    pub(crate) fn add_neq(&mut self, constraint: LinearConstraint) {
        self.disequalities.push(constraint);
    }

    /// Checks consistency. Disequalities are handled by case splitting into
    /// `< `or `>` (over the integers: `≤ c-1` or `≥ c+1`), bounded to keep the
    /// search small.
    pub(crate) fn check(&self) -> TheoryResult {
        check_split(&self.disequalities, &self.constraints)
    }
}

fn check_split(
    disequalities: &[LinearConstraint],
    constraints: &[LinearConstraint],
) -> TheoryResult {
    match disequalities.split_first() {
        None => {
            if rational_feasible(constraints) {
                TheoryResult::Consistent
            } else {
                TheoryResult::Inconsistent
            }
        }
        Some((first, rest)) => {
            // Branch 1: Σ coeff·var ≤ constant - 1.
            let mut less = constraints.to_vec();
            less.push(LinearConstraint {
                coefficients: first.coefficients.clone(),
                constant: first.constant - 1,
            });
            if check_split(rest, &less) == TheoryResult::Consistent {
                return TheoryResult::Consistent;
            }
            // Branch 2: Σ coeff·var ≥ constant + 1.
            let mut greater = constraints.to_vec();
            let mut flipped = first.negated();
            flipped.constant -= 1;
            greater.push(flipped);
            check_split(rest, &greater)
        }
    }
}

/// Fourier–Motzkin elimination: returns `true` if the constraint system has a
/// rational solution.
fn rational_feasible(constraints: &[LinearConstraint]) -> bool {
    let mut system: Vec<LinearConstraint> = constraints.to_vec();
    loop {
        // Check trivial constraints and drop them.
        let mut infeasible = false;
        system.retain(|constraint| match constraint.is_trivial() {
            Some(holds) => {
                infeasible |= !holds;
                false
            }
            None => true,
        });
        if infeasible {
            return false;
        }
        // Pick the variable occurring in the fewest constraints to limit the
        // quadratic blowup of the elimination step.
        let Some(variable) = pick_variable(&system) else {
            return true;
        };
        let mut lower = Vec::new(); // coeff < 0 (gives lower bounds)
        let mut upper = Vec::new(); // coeff > 0 (gives upper bounds)
        let mut rest = Vec::new();
        for constraint in system {
            match constraint.coefficient(variable) {
                0 => rest.push(constraint),
                c if c > 0 => upper.push(constraint),
                _ => lower.push(constraint),
            }
        }
        // Combine every lower bound with every upper bound.
        for low in &lower {
            for up in &upper {
                rest.push(eliminate(variable, low, up));
            }
        }
        system = rest;
    }
}

/// `a·up + b·low` for the positive multipliers that cancel `variable`
/// (`a = -low[variable]`, `b = up[variable]`), saturated back to `i64`: the
/// values stay tiny in practice.
fn eliminate(variable: TermId, low: &LinearConstraint, up: &LinearConstraint) -> LinearConstraint {
    let a = -i128::from(low.coefficient(variable)); // > 0
    let b = i128::from(up.coefficient(variable)); // > 0
    let saturate = |v: i128| v.clamp(i64::MIN.into(), i64::MAX.into()) as i64;
    let mut coefficients = Vec::with_capacity(up.coefficients.len() + low.coefficients.len());
    let (mut i, mut j) = (0, 0);
    while i < up.coefficients.len() || j < low.coefficients.len() {
        let next_up = up.coefficients.get(i).map_or(TermId::MAX, |&(var, _)| var);
        let next_low = low.coefficients.get(j).map_or(TermId::MAX, |&(var, _)| var);
        let var = next_up.min(next_low);
        let mut sum = 0i128;
        if next_up == var && i < up.coefficients.len() {
            sum += a * i128::from(up.coefficients[i].1);
            i += 1;
        }
        if next_low == var && j < low.coefficients.len() {
            sum += b * i128::from(low.coefficients[j].1);
            j += 1;
        }
        if sum != 0 {
            coefficients.push((var, saturate(sum)));
        }
    }
    let constant = a * i128::from(up.constant) + b * i128::from(low.constant);
    LinearConstraint { coefficients, constant: saturate(constant) }
}

/// The variable occurring in the fewest constraints (the smallest id among
/// equally rare ones), or `None` when no constraint has a variable.
fn pick_variable(constraints: &[LinearConstraint]) -> Option<TermId> {
    let mut occurrences: Vec<TermId> =
        constraints.iter().flat_map(|c| c.coefficients.iter().map(|&(var, _)| var)).collect();
    occurrences.sort_unstable();
    let mut best: Option<(usize, TermId)> = None;
    for run in occurrences.chunk_by(|a, b| a == b) {
        if best.is_none_or(|(count, _)| run.len() < count) {
            best = Some((run.len(), run[0]));
        }
    }
    best.map(|(_, var)| var)
}

#[cfg(test)]
mod tests {
    use super::*;

    const X: TermId = 0;
    const Y: TermId = 1;
    const Z: TermId = 2;

    /// `lhs ≤ rhs` for single variables.
    fn var_le_var(lhs: TermId, rhs: TermId) -> LinearConstraint {
        LinearConstraint::new([(lhs, 1), (rhs, -1)], 0)
    }

    /// `var ≤ constant`.
    fn var_le_const(var: TermId, constant: i64) -> LinearConstraint {
        LinearConstraint::new([(var, 1)], constant)
    }

    /// `var ≥ constant`.
    fn var_ge_const(var: TermId, constant: i64) -> LinearConstraint {
        LinearConstraint::new([(var, -1)], -constant)
    }

    #[test]
    fn feasible_simple_bounds() {
        let mut problem = LiaProblem::default();
        problem.add_le(var_ge_const(X, 1));
        problem.add_le(var_le_const(X, 5));
        assert_eq!(problem.check(), TheoryResult::Consistent);
    }

    #[test]
    fn infeasible_contradictory_bounds() {
        let mut problem = LiaProblem::default();
        problem.add_le(var_ge_const(X, 6));
        problem.add_le(var_le_const(X, 5));
        assert_eq!(problem.check(), TheoryResult::Inconsistent);
    }

    #[test]
    fn chains_of_inequalities() {
        // x ≤ y, y ≤ z, z ≤ x - 1 is infeasible.
        let mut problem = LiaProblem::default();
        problem.add_le(var_le_var(X, Y));
        problem.add_le(var_le_var(Y, Z));
        problem.add_le(LinearConstraint::new([(Z, 1), (X, -1)], -1));
        assert_eq!(problem.check(), TheoryResult::Inconsistent);
        // Without the -1 it is feasible (all equal).
        let mut problem = LiaProblem::default();
        problem.add_le(var_le_var(X, Y));
        problem.add_le(var_le_var(Y, Z));
        problem.add_le(var_le_var(Z, X));
        assert_eq!(problem.check(), TheoryResult::Consistent);
    }

    #[test]
    fn equalities_and_disequalities() {
        // x = 3 ∧ x ≠ 3 is inconsistent.
        let mut problem = LiaProblem::default();
        problem.add_eq(var_le_const(X, 3));
        problem.add_neq(var_le_const(X, 3));
        assert_eq!(problem.check(), TheoryResult::Inconsistent);
        // x = 3 ∧ x ≠ 4 is consistent.
        let mut problem = LiaProblem::default();
        problem.add_eq(var_le_const(X, 3));
        problem.add_neq(var_le_const(X, 4));
        assert_eq!(problem.check(), TheoryResult::Consistent);
    }

    #[test]
    fn disequality_squeeze() {
        // 1 ≤ x ≤ 1 ∧ x ≠ 1 is inconsistent (needs the case split).
        let mut problem = LiaProblem::default();
        problem.add_le(var_ge_const(X, 1));
        problem.add_le(var_le_const(X, 1));
        problem.add_neq(var_le_const(X, 1));
        assert_eq!(problem.check(), TheoryResult::Inconsistent);
    }

    #[test]
    fn the_papers_lia_star_example() {
        // §IV-C: v1 ≠ v2 + v3 ∧ (v1, v2, v3) = λ1·(1,0,1) + λ2·(0,1,0)
        // with λ1, λ2 ≥ 0 is infeasible: v1 = λ1, v2 = λ2, v3 = λ1 ⇒ v1 = v3
        // and v2 free, so v1 ≠ v2 + v3 becomes λ1 ≠ λ2 + λ1 ⇒ λ2 ≠ 0... which
        // IS satisfiable for λ2 > 0 — but the paper's formula also requires
        // v1 = v2 + v3 to FAIL, i.e. the query difference to be non-zero.
        // Encode exactly the system and check it is inconsistent:
        //   v1 = l1, v2 = l2, v3 = l1, l1 ≥ 0, l2 ≥ 0, l2 = 0  (from g1 = g2
        //   on the second summand), v1 ≠ v2 + v3.
        let (v1, v2, v3, l1, l2) = (0, 1, 2, 3, 4);
        let mut problem = LiaProblem::default();
        problem.add_eq(LinearConstraint::new([(v1, 1), (l1, -1)], 0));
        problem.add_eq(LinearConstraint::new([(v2, 1), (l2, -1)], 0));
        problem.add_eq(LinearConstraint::new([(v3, 1), (l1, -1)], 0));
        problem.add_le(var_ge_const(l1, 0));
        problem.add_le(var_ge_const(l2, 0));
        problem.add_eq(var_le_const(l2, 0));
        problem.add_neq(LinearConstraint::new([(v1, 1), (v2, -1), (v3, -1)], 0));
        assert_eq!(problem.check(), TheoryResult::Inconsistent);
    }

    #[test]
    fn multi_variable_combination() {
        // x + y ≤ 2 ∧ x ≥ 2 ∧ y ≥ 2 is infeasible.
        let mut problem = LiaProblem::default();
        problem.add_le(LinearConstraint::new([(X, 1), (Y, 1)], 2));
        problem.add_le(var_ge_const(X, 2));
        problem.add_le(var_ge_const(Y, 2));
        assert_eq!(problem.check(), TheoryResult::Inconsistent);
        // x + y ≤ 4 with the same lower bounds is feasible.
        let mut problem = LiaProblem::default();
        problem.add_le(LinearConstraint::new([(X, 1), (Y, 1)], 4));
        problem.add_le(var_ge_const(X, 2));
        problem.add_le(var_ge_const(Y, 2));
        assert_eq!(problem.check(), TheoryResult::Consistent);
    }

    #[test]
    fn constraints_merge_repeated_variables_and_drop_zeros() {
        let constraint = LinearConstraint::new([(Y, 2), (X, 1), (Y, -2), (X, 3)], 7);
        assert_eq!(constraint.coefficients, vec![(X, 4)]);
        // 2x - y ≤ 0 and y - x ≤ -1 combine to x ≤ -1 when y is eliminated.
        let low = LinearConstraint::new([(X, 2), (Y, -1)], 0);
        let up = LinearConstraint::new([(Y, 1), (X, -1)], -1);
        assert_eq!(eliminate(Y, &low, &up), LinearConstraint::new([(X, 1)], -1));
    }
}
