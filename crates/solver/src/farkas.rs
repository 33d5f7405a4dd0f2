//! Farkas'-lemma encodings of universally quantified linear implications.
//!
//! The affine form of Farkas' lemma states: if the polyhedron
//! `P = { x | p₁(x) ≥ 0 ∧ … ∧ pₘ(x) ≥ 0 }` is non-empty, then a linear inequality
//! `ψ(x) ≥ 0` holds for every `x ∈ P` **iff** there exist multipliers
//! `λ₀, λ₁, …, λₘ ≥ 0` such that `ψ(x) ≡ λ₀ + Σⱼ λⱼ·pⱼ(x)` as affine functions.
//!
//! `prove_Term` (paper Sec. 5.4) uses this to turn the universally quantified
//! ranking-function conditions into an existentially quantified **linear** system over
//! the template coefficients and the multipliers, which the exact simplex of this
//! crate can solve. The same encoding with a *concrete* conclusion yields a sound
//! implication check between conjunctions of linear constraints ([`implies`]).

use crate::linear::{Ineq, Lin};
use crate::lp::{Cmp, LpProblem, VarKind};
use crate::rational::Rational;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::Arc;

/// An affine expression over *program* variables whose coefficients are themselves
/// affine expressions over *template parameters* (the unknowns of the synthesis).
///
/// For a ranking template `c₀ + c₁·x + c₂·y` the program variables are `x`, `y` and the
/// parameters are `c₀`, `c₁`, `c₂`.
///
/// # Examples
///
/// ```
/// use tnt_solver::farkas::TemplateLin;
/// let template = TemplateLin::template("r", &["x".to_string(), "y".to_string()]);
/// assert_eq!(template.program_vars().count(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TemplateLin {
    /// Coefficient (an affine expression over parameters) of each program variable,
    /// sorted by variable name like the terms of a [`Lin`]. A coefficient that
    /// cancels to zero keeps its entry: its variable still gets a matching
    /// constraint in [`encode_implication`].
    coeffs: Vec<(Arc<str>, Lin)>,
    /// Constant part (an affine expression over parameters).
    constant: Lin,
}

impl TemplateLin {
    /// The zero template expression.
    pub fn zero() -> Self {
        TemplateLin::default()
    }

    /// Lifts a concrete affine expression (no parameters) into a template expression.
    pub fn from_concrete(lin: &Lin) -> Self {
        TemplateLin {
            coeffs: lin
                .shared_terms()
                .map(|(v, c)| (v.clone(), Lin::constant(c)))
                .collect(),
            constant: Lin::constant(lin.constant_term()),
        }
    }

    /// Creates the canonical affine template `p_const + Σᵢ p_vᵢ · vᵢ` over the given
    /// program variables, with fresh parameter names derived from `prefix`.
    pub fn template(prefix: &str, program_vars: &[String]) -> Self {
        let mut out = TemplateLin::zero();
        out.constant = Lin::var(format!("{prefix}$const"));
        for v in program_vars {
            out.set_coeff(v.as_str(), Lin::var(format!("{prefix}${v}")));
        }
        out
    }

    fn position(&self, var: &str) -> Result<usize, usize> {
        self.coeffs.binary_search_by(|(v, _)| (**v).cmp(var))
    }

    /// The coefficient entry of `var`, created as zero (named by `name()`) if absent.
    fn entry(&mut self, var: &str, name: impl FnOnce() -> Arc<str>) -> &mut Lin {
        let i = match self.position(var) {
            Ok(i) => i,
            Err(i) => {
                self.coeffs.insert(i, (name(), Lin::zero()));
                i
            }
        };
        &mut self.coeffs[i].1
    }

    /// The program variables mentioned by this template expression.
    pub fn program_vars(&self) -> impl Iterator<Item = &str> + '_ {
        self.coeffs.iter().map(|(v, _)| &**v)
    }

    /// The (parameter-affine) coefficient of a program variable.
    pub fn coeff(&self, var: &str) -> Lin {
        match self.position(var) {
            Ok(i) => self.coeffs[i].1.clone(),
            Err(_) => Lin::zero(),
        }
    }

    /// The (parameter-affine) constant part.
    pub fn constant_part(&self) -> &Lin {
        &self.constant
    }

    /// Sets the coefficient of a program variable.
    pub fn set_coeff(&mut self, var: impl Into<String>, coeff: Lin) {
        let var = var.into();
        *self.entry(&var, || Arc::from(var.as_str())) = coeff;
    }

    /// Sets the constant part.
    pub fn set_constant(&mut self, constant: Lin) {
        self.constant = constant;
    }

    /// Pointwise sum `self + other`.
    pub fn add(&self, other: &TemplateLin) -> TemplateLin {
        let mut out = self.clone();
        for (v, c) in &other.coeffs {
            let existing = out.entry(v, || v.clone());
            *existing = existing.add(c);
        }
        out.constant = out.constant.add(&other.constant);
        out
    }

    /// Pointwise difference `self - other`.
    pub fn sub(&self, other: &TemplateLin) -> TemplateLin {
        let mut out = self.clone();
        for (v, c) in &other.coeffs {
            let existing = out.entry(v, || v.clone());
            *existing = existing.sub(c);
        }
        out.constant = out.constant.sub(&other.constant);
        out
    }

    /// Adds a concrete constant to the constant part.
    pub fn add_const(&self, value: Rational) -> TemplateLin {
        let mut out = self.clone();
        out.constant = out.constant.add_const(value);
        out
    }

    /// Instantiates the parameters with concrete values, producing a concrete
    /// affine expression over the program variables.
    pub fn instantiate(&self, params: &BTreeMap<String, Rational>) -> Lin {
        let mut out = Lin::constant(self.constant.eval(params));
        for (v, coeff) in &self.coeffs {
            out.add_shared_term(v, coeff.eval(params));
        }
        out
    }

    /// Renames every program variable through the given map (parameters untouched).
    pub fn rename_program_vars(&self, map: &BTreeMap<String, String>) -> TemplateLin {
        let mut out = TemplateLin::zero();
        out.constant = self.constant.clone();
        for (v, c) in &self.coeffs {
            let existing = match map.get(&**v) {
                Some(name) => out.entry(name, || Arc::from(name.as_str())),
                None => out.entry(v, || v.clone()),
            };
            *existing = existing.add(c);
        }
        out
    }
}

/// Counter used to generate distinct multiplier names within one [`LpProblem`].
#[derive(Debug, Default)]
pub struct MultiplierSource {
    next: usize,
}

impl MultiplierSource {
    /// Creates a fresh source.
    pub fn new() -> Self {
        MultiplierSource::default()
    }

    fn fresh(&mut self) -> String {
        let name = format!("lam${}", self.next);
        self.next += 1;
        name
    }
}

/// Encodes the universally quantified implication
/// `(∀ program vars) premises ⇒ conclusion ≥ 0`
/// as Farkas constraints over the template parameters, added to `lp`.
///
/// Every premise is interpreted as `premise.expr() ≥ 0`. The multipliers are fresh
/// non-negative LP variables drawn from `multipliers`; the template parameters are
/// declared as free variables.
///
/// The encoding is sound unconditionally and complete whenever the premises are
/// satisfiable over the rationals (the standard proviso of the affine Farkas lemma —
/// callers check premise satisfiability separately).
pub fn encode_implication(
    lp: &mut LpProblem,
    multipliers: &mut MultiplierSource,
    premises: &[Ineq],
    conclusion: &TemplateLin,
) {
    for (_, coeff) in &conclusion.coeffs {
        lp.declare_vars(coeff, VarKind::Free);
    }
    lp.declare_vars(&conclusion.constant, VarKind::Free);
    // One multiplier per premise plus the affine slack λ₀.
    let lambda0: Arc<str> = multipliers.fresh().into();
    lp.declare_shared(&lambda0, VarKind::NonNegative);
    let premise_lambdas: Vec<Arc<str>> = premises
        .iter()
        .map(|_| {
            let name: Arc<str> = multipliers.fresh().into();
            lp.declare_shared(&name, VarKind::NonNegative);
            name
        })
        .collect();

    // Collect every program variable mentioned on either side.
    let mut program_vars: BTreeSet<&str> = conclusion.program_vars().collect();
    for p in premises {
        program_vars.extend(p.expr().vars());
    }

    // Coefficient matching per program variable: conclusion.coeff(v) = Σⱼ λⱼ·premiseⱼ.coeff(v).
    for v in program_vars {
        let mut rhs = Lin::zero();
        for (premise, lambda) in premises.iter().zip(&premise_lambdas) {
            let a = premise.expr().coeff(v);
            if !a.is_zero() {
                rhs.add_shared_term(lambda, a);
            }
        }
        lp.constrain(conclusion.coeff(v), Cmp::Eq, rhs);
    }
    // Constant matching: conclusion.const = λ₀ + Σⱼ λⱼ·premiseⱼ.const.
    let mut rhs = Lin::zero();
    rhs.add_shared_term(&lambda0, Rational::one());
    for (premise, lambda) in premises.iter().zip(&premise_lambdas) {
        let b = premise.expr().constant_term();
        if !b.is_zero() {
            rhs.add_shared_term(lambda, b);
        }
    }
    lp.constrain(conclusion.constant_part().clone(), Cmp::Eq, rhs);
}

/// Checks whether the conjunction of `premises` entails `conclusion.expr() ≥ 0`
/// via a Farkas certificate.
///
/// This is sound unconditionally; it is complete when the premises are satisfiable
/// over the rationals. Callers that need the complete answer on possibly-unsatisfiable
/// premises should test premise satisfiability first (an unsatisfiable premise set
/// entails everything).
pub fn implies(premises: &[Ineq], conclusion: &Ineq) -> bool {
    let mut lp = LpProblem::new();
    let mut multipliers = MultiplierSource::new();
    let concrete = TemplateLin::from_concrete(conclusion.expr());
    encode_implication(&mut lp, &mut multipliers, premises, &concrete);
    lp.solve().is_feasible()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::LpStatus;

    fn r(n: i128) -> Rational {
        Rational::from(n)
    }

    #[test]
    fn implies_simple_transitivity() {
        // x >= 3  entails  x >= 1.
        let premises = vec![Ineq::ge(Lin::var("x"), Lin::constant(r(3)))];
        let conclusion = Ineq::ge(Lin::var("x"), Lin::constant(r(1)));
        assert!(implies(&premises, &conclusion));
    }

    #[test]
    fn implies_fails_when_not_entailed() {
        // x >= 1 does not entail x >= 3.
        let premises = vec![Ineq::ge(Lin::var("x"), Lin::constant(r(1)))];
        let conclusion = Ineq::ge(Lin::var("x"), Lin::constant(r(3)));
        assert!(!implies(&premises, &conclusion));
    }

    #[test]
    fn implies_uses_combinations() {
        // x >= y and y >= z entail x >= z.
        let premises = vec![
            Ineq::ge(Lin::var("x"), Lin::var("y")),
            Ineq::ge(Lin::var("y"), Lin::var("z")),
        ];
        let conclusion = Ineq::ge(Lin::var("x"), Lin::var("z"));
        assert!(implies(&premises, &conclusion));
    }

    #[test]
    fn implies_scales_premises() {
        // 2x >= 4 entails x >= 2 (multiplier 1/2).
        let premises = vec![Ineq::ge(Lin::var("x").scale(r(2)), Lin::constant(r(4)))];
        let conclusion = Ineq::ge(Lin::var("x"), Lin::constant(r(2)));
        assert!(implies(&premises, &conclusion));
    }

    #[test]
    fn template_synthesis_for_decreasing_counter() {
        // Find c0, c1 such that  x >= 0 ∧ x' = x - 1  ⇒  c0 + c1·x ≥ 0  ∧  c0 + c1·x ≥ c0 + c1·x' + 1.
        let mut premises = vec![Ineq::ge_zero(Lin::var("x"))];
        premises.extend(Ineq::eq_zero(
            Lin::var("x'").sub(&Lin::var("x")).add_const(r(1)),
        ));

        let template = TemplateLin::template("r", &["x".to_string()]);
        let renamed: BTreeMap<String, String> =
            [("x".to_string(), "x'".to_string())].into_iter().collect();
        let template_next = template.rename_program_vars(&renamed);

        let mut lp = LpProblem::new();
        let mut ms = MultiplierSource::new();
        // bounded: template >= 0
        encode_implication(&mut lp, &mut ms, &premises, &template);
        // decreasing: template - template' - 1 >= 0
        let decrease = template.sub(&template_next).add_const(r(-1));
        encode_implication(&mut lp, &mut ms, &premises, &decrease);

        let solution = lp.solve();
        assert_eq!(solution.status, LpStatus::Optimal);
        let params: BTreeMap<String, Rational> = solution.values.clone();
        let rank = template.instantiate(&params);
        // The synthesized coefficient of x must be positive for a decreasing counter.
        assert!(rank.coeff("x").is_positive());
    }

    #[test]
    fn template_synthesis_infeasible_for_incrementing_counter() {
        // x >= 0 ∧ x' = x + 1 admits no linear ranking function.
        let mut premises = vec![Ineq::ge_zero(Lin::var("x"))];
        premises.extend(Ineq::eq_zero(
            Lin::var("x'").sub(&Lin::var("x")).add_const(r(-1)),
        ));
        let template = TemplateLin::template("r", &["x".to_string()]);
        let renamed: BTreeMap<String, String> =
            [("x".to_string(), "x'".to_string())].into_iter().collect();
        let template_next = template.rename_program_vars(&renamed);

        let mut lp = LpProblem::new();
        let mut ms = MultiplierSource::new();
        encode_implication(&mut lp, &mut ms, &premises, &template);
        encode_implication(
            &mut lp,
            &mut ms,
            &premises,
            &template.sub(&template_next).add_const(r(-1)),
        );
        assert_eq!(lp.solve().status, LpStatus::Infeasible);
    }

    #[test]
    fn instantiate_template() {
        let template = TemplateLin::template("r", &["x".to_string(), "y".to_string()]);
        let mut params = BTreeMap::new();
        params.insert("r$x".to_string(), r(2));
        params.insert("r$y".to_string(), r(0));
        params.insert("r$const".to_string(), r(7));
        let lin = template.instantiate(&params);
        assert_eq!(lin.coeff("x"), r(2));
        assert_eq!(lin.coeff("y"), r(0));
        assert_eq!(lin.constant_term(), r(7));
    }

    #[test]
    fn rename_program_vars_merges() {
        let mut t = TemplateLin::zero();
        t.set_coeff("x", Lin::var("a"));
        t.set_coeff("y", Lin::var("b"));
        let map: BTreeMap<String, String> = [
            ("x".to_string(), "z".to_string()),
            ("y".to_string(), "z".to_string()),
        ]
        .into_iter()
        .collect();
        let renamed = t.rename_program_vars(&map);
        let coeff = renamed.coeff("z");
        assert_eq!(coeff.coeff("a"), Rational::one());
        assert_eq!(coeff.coeff("b"), Rational::one());
    }
}
