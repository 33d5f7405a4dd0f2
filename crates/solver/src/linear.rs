//! Affine expressions and inequalities over named variables.
//!
//! These are the interchange types of the solver crate: the logic front-end converts its
//! Presburger atoms into [`Ineq`]s (all in `≥ 0` normal form) before invoking ranking
//! synthesis or Farkas implication checks.
//!
//! # Representation
//!
//! A [`Lin`] keeps its terms in one vector of `(name, coefficient)` pairs, sorted
//! strictly ascending by the byte order of the names and holding no zero
//! coefficient. Names are shared `Arc<str>`s, so cloning an expression or merging
//! two of them copies reference counts, never name bytes. Sums, differences and
//! substitutions are sorted merges; lookups are binary searches.
//!
//! The name order is part of the contract, not an accident of the container:
//! [`crate::lp::LpProblem::solve`] lowers each expression by walking its terms and
//! relies on them coming out in column order, and the simplex checks that every
//! lowered row is sorted. Every iteration ([`Lin::terms`], [`Lin::vars`],
//! `Display`) therefore yields names in ascending byte order.

use crate::rational::Rational;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

#[cfg(test)]
mod reference;

/// A shared variable name and its (non-zero) coefficient.
type Term = (Arc<str>, Rational);

/// An affine expression `Σ cᵢ·xᵢ + k` over named variables with rational coefficients.
///
/// The terms are stored sorted by name with no zero coefficients (see the module
/// docs), so two equal expressions have equal representations and `==` is
/// structural.
///
/// # Examples
///
/// ```
/// use tnt_solver::{Lin, Rational};
/// let e = Lin::var("x").scale(Rational::from(2)).add(&Lin::constant(Rational::from(3)));
/// assert_eq!(e.coeff("x"), Rational::from(2));
/// assert_eq!(e.constant_term(), Rational::from(3));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Lin {
    terms: Vec<Term>,
    constant: Rational,
}

impl Lin {
    /// The zero expression.
    pub fn zero() -> Self {
        Lin::default()
    }

    /// A constant expression.
    pub fn constant(value: Rational) -> Self {
        Lin {
            terms: Vec::new(),
            constant: value,
        }
    }

    /// The expression consisting of a single variable with coefficient one.
    pub fn var(name: impl Into<String>) -> Self {
        Lin {
            terms: vec![(Arc::from(name.into()), Rational::one())],
            constant: Rational::zero(),
        }
    }

    /// Builds an expression from explicit terms and a constant. Repeated names are
    /// summed in the order given.
    pub fn from_terms(
        terms: impl IntoIterator<Item = (String, Rational)>,
        constant: Rational,
    ) -> Self {
        let mut lin = Lin::constant(constant);
        for (v, c) in terms {
            lin.add_term(&v, c);
        }
        lin
    }

    fn position(&self, var: &str) -> Result<usize, usize> {
        self.terms.binary_search_by(|(v, _)| (**v).cmp(var))
    }

    /// Adds `coeff * var` to the expression in place.
    pub fn add_term(&mut self, var: &str, coeff: Rational) {
        self.add_term_with(var, coeff, || Arc::from(var));
    }

    /// [`Lin::add_term`] with a shared name, which a new term keeps.
    pub(crate) fn add_shared_term(&mut self, var: &Arc<str>, coeff: Rational) {
        self.add_term_with(var, coeff, || var.clone());
    }

    fn add_term_with(&mut self, var: &str, coeff: Rational, name: impl FnOnce() -> Arc<str>) {
        if coeff.is_zero() {
            return;
        }
        match self.position(var) {
            Ok(i) => {
                self.terms[i].1 += coeff;
                if self.terms[i].1.is_zero() {
                    self.terms.remove(i);
                }
            }
            Err(i) => self.terms.insert(i, (name(), coeff)),
        }
    }

    /// The coefficient of `var` (zero if absent).
    pub fn coeff(&self, var: &str) -> Rational {
        match self.position(var) {
            Ok(i) => self.terms[i].1,
            Err(_) => Rational::zero(),
        }
    }

    /// The constant term.
    pub fn constant_term(&self) -> Rational {
        self.constant
    }

    /// Iterates over the non-zero `(variable, coefficient)` terms in variable order.
    pub fn terms(&self) -> impl Iterator<Item = (&str, Rational)> + '_ {
        self.terms.iter().map(|(v, c)| (&**v, *c))
    }

    /// The set of variables occurring with non-zero coefficient, in variable order.
    pub fn vars(&self) -> impl Iterator<Item = &str> + '_ {
        self.terms.iter().map(|(v, _)| &**v)
    }

    /// [`Lin::terms`] with the shared names, for containers that keep them
    /// without copying their bytes.
    pub(crate) fn shared_terms(&self) -> impl Iterator<Item = (&Arc<str>, Rational)> + '_ {
        self.terms.iter().map(|(v, c)| (v, *c))
    }

    /// Returns `true` if the expression is a constant (possibly zero).
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Pointwise sum of two expressions.
    pub fn add(&self, other: &Lin) -> Lin {
        Lin {
            terms: merge(&self.terms, &[], &other.terms, |c| c),
            constant: self.constant + other.constant,
        }
    }

    /// Pointwise difference of two expressions.
    pub fn sub(&self, other: &Lin) -> Lin {
        // `self + (-1)·other`, negating by multiplication as `scale` does, so that a
        // saturating coefficient saturates (and is counted) exactly as it would there.
        let minus_one = -Rational::one();
        Lin {
            terms: merge(&self.terms, &[], &other.terms, |c| c * minus_one),
            constant: self.constant + other.constant * minus_one,
        }
    }

    /// Adds a constant to the expression.
    pub fn add_const(&self, value: Rational) -> Lin {
        Lin {
            terms: self.terms.clone(),
            constant: self.constant + value,
        }
    }

    /// Multiplies every coefficient and the constant by `factor`.
    pub fn scale(&self, factor: Rational) -> Lin {
        if factor.is_zero() {
            return Lin::zero();
        }
        Lin {
            terms: self
                .terms
                .iter()
                .map(|(v, c)| (v.clone(), *c * factor))
                .collect(),
            constant: self.constant * factor,
        }
    }

    /// Substitutes `var` by the expression `by`.
    pub fn substitute(&self, var: &str, by: &Lin) -> Lin {
        let Ok(i) = self.position(var) else {
            return self.clone();
        };
        let c = self.terms[i].1;
        Lin {
            terms: merge(&self.terms[..i], &self.terms[i + 1..], &by.terms, |b| b * c),
            constant: self.constant + by.constant * c,
        }
    }

    /// Renames a variable (no-op if absent).
    pub fn rename(&self, from: &str, to: &str) -> Lin {
        // Substituting `1·to` for `from` adds the coefficient of `from` to that of `to`
        // (`1·c` and `0·c` are exact), which is all this does.
        let Ok(i) = self.position(from) else {
            return self.clone();
        };
        let mut out = self.clone();
        let (_, c) = out.terms.remove(i);
        out.add_term(to, c);
        out
    }

    /// Evaluates the expression under an assignment (missing variables default to zero).
    pub fn eval(&self, assignment: &BTreeMap<String, Rational>) -> Rational {
        let mut total = self.constant;
        for (v, c) in self.terms() {
            let value = assignment.get(v).copied().unwrap_or_else(Rational::zero);
            total += c * value;
        }
        total
    }
}

/// Merges the sorted term runs `left` ++ `right` (every name of `left` before every
/// name of `right`) with `map(c)` for each term of `other`, dropping zero results.
/// A name in both sides gets `own + map(other)`, the order `add_term` sums in.
fn merge(
    left: &[Term],
    right: &[Term],
    other: &[Term],
    map: impl Fn(Rational) -> Rational,
) -> Vec<Term> {
    let mut out = Vec::with_capacity(left.len() + right.len() + other.len());
    let mut own = left.iter().chain(right).peekable();
    let mut theirs = other.iter().peekable();
    loop {
        let order = match (own.peek(), theirs.peek()) {
            (None, None) => break,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some((a, _)), Some((b, _))) if Arc::ptr_eq(a, b) => Ordering::Equal,
            (Some((a, _)), Some((b, _))) => a.cmp(b),
        };
        match order {
            Ordering::Less => out.push(own.next().expect("peeked").clone()),
            Ordering::Greater => {
                let (name, c) = theirs.next().expect("peeked");
                let c = map(*c);
                if !c.is_zero() {
                    out.push((name.clone(), c));
                }
            }
            Ordering::Equal => {
                let (name, a) = own.next().expect("peeked");
                let (_, b) = theirs.next().expect("peeked");
                let b = map(*b);
                let sum = if b.is_zero() { *a } else { *a + b };
                if !sum.is_zero() {
                    out.push((name.clone(), sum));
                }
            }
        }
    }
    out
}

impl fmt::Display for Lin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in self.terms() {
            if first {
                if c == Rational::one() {
                    write!(f, "{}", v)?;
                } else if c == -Rational::one() {
                    write!(f, "-{}", v)?;
                } else {
                    write!(f, "{}*{}", c, v)?;
                }
                first = false;
            } else if c.is_negative() {
                if c == -Rational::one() {
                    write!(f, " - {}", v)?;
                } else {
                    write!(f, " - {}*{}", c.abs(), v)?;
                }
            } else if c == Rational::one() {
                write!(f, " + {}", v)?;
            } else {
                write!(f, " + {}*{}", c, v)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant.is_positive() {
            write!(f, " + {}", self.constant)?;
        } else if self.constant.is_negative() {
            write!(f, " - {}", self.constant.abs())?;
        }
        Ok(())
    }
}

/// A linear inequality in normal form: the wrapped expression is constrained to be `≥ 0`.
///
/// # Examples
///
/// ```
/// use tnt_solver::{Ineq, Lin, Rational};
/// // x - 3 >= 0, i.e. x >= 3
/// let ineq = Ineq::ge_zero(Lin::var("x").add_const(Rational::from(-3)));
/// assert_eq!(ineq.expr().coeff("x"), Rational::one());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ineq {
    expr: Lin,
}

impl Ineq {
    /// Constrains `expr ≥ 0`.
    pub fn ge_zero(expr: Lin) -> Self {
        Ineq { expr }
    }

    /// Constrains `lhs ≥ rhs`.
    pub fn ge(lhs: Lin, rhs: Lin) -> Self {
        Ineq::ge_zero(lhs.sub(&rhs))
    }

    /// Constrains `lhs ≤ rhs`.
    pub fn le(lhs: Lin, rhs: Lin) -> Self {
        Ineq::ge_zero(rhs.sub(&lhs))
    }

    /// Encodes `expr = 0` as the pair of inequalities `expr ≥ 0` and `-expr ≥ 0`.
    pub fn eq_zero(expr: Lin) -> [Ineq; 2] {
        [
            Ineq::ge_zero(expr.clone()),
            Ineq::ge_zero(expr.scale(-Rational::one())),
        ]
    }

    /// The underlying affine expression (constrained to be non-negative).
    pub fn expr(&self) -> &Lin {
        &self.expr
    }

    /// Consumes the inequality and returns the underlying expression.
    pub fn into_expr(self) -> Lin {
        self.expr
    }

    /// Substitutes a variable by an expression on the underlying expression.
    pub fn substitute(&self, var: &str, by: &Lin) -> Ineq {
        Ineq::ge_zero(self.expr.substitute(var, by))
    }

    /// Evaluates whether the inequality holds under an assignment.
    pub fn holds(&self, assignment: &BTreeMap<String, Rational>) -> bool {
        !self.expr.eval(assignment).is_negative()
    }
}

impl fmt::Display for Ineq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} >= 0", self.expr)
    }
}

#[cfg(test)]
mod tests {
    use super::reference::MapLin;
    use super::*;
    use crate::rational::overflow_work;
    use crate::testgen;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn build_and_query() {
        let e = Lin::from_terms(
            vec![
                ("x".to_string(), Rational::from(2)),
                ("y".to_string(), Rational::from(-1)),
            ],
            Rational::from(5),
        );
        assert_eq!(e.coeff("x"), Rational::from(2));
        assert_eq!(e.coeff("y"), Rational::from(-1));
        assert_eq!(e.coeff("z"), Rational::zero());
        assert_eq!(e.constant_term(), Rational::from(5));
        assert_eq!(e.vars().count(), 2);
    }

    #[test]
    fn cancellation_removes_terms() {
        let mut e = Lin::var("x");
        e.add_term("x", -Rational::one());
        assert!(e.is_constant());
        assert_eq!(e.coeff("x"), Rational::zero());
    }

    #[test]
    fn add_sub_scale() {
        let x = Lin::var("x");
        let y = Lin::var("y");
        let e = x.add(&y).scale(Rational::from(3)).sub(&x);
        assert_eq!(e.coeff("x"), Rational::from(2));
        assert_eq!(e.coeff("y"), Rational::from(3));
    }

    #[test]
    fn substitution() {
        // 2x + y with x := y + 1 gives 3y + 2
        let e = Lin::var("x").scale(Rational::from(2)).add(&Lin::var("y"));
        let by = Lin::var("y").add_const(Rational::one());
        let s = e.substitute("x", &by);
        assert_eq!(s.coeff("y"), Rational::from(3));
        assert_eq!(s.constant_term(), Rational::from(2));
        assert_eq!(s.coeff("x"), Rational::zero());
    }

    #[test]
    fn rename_variable() {
        let e = Lin::var("x").add(&Lin::var("y"));
        let r = e.rename("x", "z");
        assert_eq!(r.coeff("z"), Rational::one());
        assert_eq!(r.coeff("x"), Rational::zero());
    }

    #[test]
    fn evaluation() {
        let e = Lin::from_terms(
            vec![("x".to_string(), Rational::from(2))],
            Rational::from(-3),
        );
        let mut env = BTreeMap::new();
        env.insert("x".to_string(), Rational::from(5));
        assert_eq!(e.eval(&env), Rational::from(7));
    }

    #[test]
    fn ineq_constructors() {
        let ge = Ineq::ge(Lin::var("x"), Lin::constant(Rational::from(3)));
        assert_eq!(ge.expr().constant_term(), Rational::from(-3));
        let le = Ineq::le(Lin::var("x"), Lin::constant(Rational::from(3)));
        assert_eq!(le.expr().coeff("x"), -Rational::one());
        let [a, b] = Ineq::eq_zero(Lin::var("x"));
        assert_eq!(a.expr().coeff("x"), Rational::one());
        assert_eq!(b.expr().coeff("x"), -Rational::one());
    }

    #[test]
    fn ineq_holds() {
        let ineq = Ineq::ge(Lin::var("x"), Lin::constant(Rational::from(3)));
        let mut env = BTreeMap::new();
        env.insert("x".to_string(), Rational::from(3));
        assert!(ineq.holds(&env));
        env.insert("x".to_string(), Rational::from(2));
        assert!(!ineq.holds(&env));
    }

    #[test]
    fn display_formatting() {
        let e = Lin::from_terms(
            vec![
                ("x".to_string(), Rational::from(1)),
                ("y".to_string(), Rational::from(-2)),
            ],
            Rational::from(3),
        );
        assert_eq!(e.to_string(), "x - 2*y + 3");
        assert_eq!(Lin::zero().to_string(), "0");
    }

    const VARS: [&str; 4] = ["a", "b", "c", "d"];

    #[test]
    fn prop_add_is_pointwise() {
        let mut rng = SmallRng::seed_from_u64(0x11AE01);
        for _ in 0..256 {
            let a = testgen::lin(&mut rng, &VARS, -20..20);
            let b = testgen::lin(&mut rng, &VARS, -20..20);
            let env = testgen::env(&mut rng, &VARS, -20..20);
            assert_eq!(a.add(&b).eval(&env), a.eval(&env) + b.eval(&env));
        }
    }

    #[test]
    fn prop_scale_is_pointwise() {
        let mut rng = SmallRng::seed_from_u64(0x11AE02);
        for _ in 0..256 {
            let a = testgen::lin(&mut rng, &VARS, -20..20);
            let k = Rational::from(rng.gen_range(-10i128..10));
            let env = testgen::env(&mut rng, &VARS, -20..20);
            assert_eq!(a.scale(k).eval(&env), a.eval(&env) * k);
        }
    }

    #[test]
    fn prop_substitute_respects_eval() {
        let mut rng = SmallRng::seed_from_u64(0x11AE03);
        for _ in 0..256 {
            // a[x := b] evaluated under env equals a evaluated under env[x := eval(b)].
            let a = testgen::lin(&mut rng, &VARS, -20..20);
            let b = testgen::lin(&mut rng, &VARS, -20..20);
            let env = testgen::env(&mut rng, &VARS, -20..20);
            let substituted = a.substitute("a", &b).eval(&env);
            let mut env2 = env.clone();
            env2.insert("a".to_string(), b.eval(&env));
            assert_eq!(substituted, a.eval(&env2));
        }
    }

    /// Names chosen to exercise byte order: prefixes, a `$`-separated template name,
    /// a primed name and one with a non-ASCII byte.
    const NAMES: [&str; 8] = ["a", "aa", "ab", "b", "r$x", "x", "x'", "\u{3bb}"];

    fn coefficient(rng: &mut SmallRng) -> Rational {
        let big = 1i128 << 100;
        match rng.gen_range(0..10) {
            0 => Rational::new(rng.gen_range(-7i128..8), rng.gen_range(1i128..6)),
            1 => Rational::from(if rng.gen_bool(0.5) { big } else { -big }),
            2 => Rational::new(rng.gen_range(-3i128..4), big + 1),
            _ => Rational::from(rng.gen_range(-4i128..5)),
        }
    }

    fn terms(rng: &mut SmallRng) -> Vec<(String, Rational)> {
        (0..rng.gen_range(0..6))
            .map(|_| {
                let name = NAMES[rng.gen_range(0..NAMES.len())];
                (name.to_string(), coefficient(rng))
            })
            .collect()
    }

    /// Runs `op` on both representations and checks they moved the saturation
    /// counter by the same amount.
    fn same_overflow<A, B>(what: &str, new: impl FnOnce() -> A, old: impl FnOnce() -> B) -> (A, B) {
        let before = overflow_work();
        let a = new();
        let new_delta = overflow_work() - before;
        let before = overflow_work();
        let b = old();
        assert_eq!(
            new_delta,
            overflow_work() - before,
            "overflow count of {what}"
        );
        (a, b)
    }

    fn check_agrees(lin: &Lin, map: &MapLin, env: &BTreeMap<String, Rational>) {
        let names: Vec<&str> = lin.vars().collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]), "unsorted: {lin:?}");
        assert!(lin.terms().all(|(_, c)| !c.is_zero()), "zero term: {lin:?}");
        assert!(lin.terms().eq(map.terms()), "{lin:?} vs {map:?}");
        assert_eq!(lin.constant_term(), map.constant_term());
        for name in NAMES.iter().chain(&["", "zz"]) {
            assert_eq!(lin.coeff(name), map.coeff(name), "coeff {name}");
        }
        let (value, reference) = same_overflow("eval", || lin.eval(env), || map.eval(env));
        assert_eq!(value, reference);
        let (text, reference) = same_overflow("display", || lin.to_string(), || map.to_string());
        assert_eq!(text, reference);
    }

    /// The vector representation against the `BTreeMap` one it replaced: seeded
    /// sequences of every constructive operation, including coefficients near
    /// 2^100 that saturate, must give the same terms, values, rendering, equality
    /// and saturation counts.
    #[test]
    fn differential_against_map_reference() {
        let mut rng = SmallRng::seed_from_u64(0x11AE04);
        for _ in 0..64 {
            let mut pool: Vec<(Lin, MapLin)> = vec![(Lin::zero(), MapLin::default())];
            for _ in 0..40 {
                let i = rng.gen_range(0..pool.len());
                let j = rng.gen_range(0..pool.len());
                let name = NAMES[rng.gen_range(0..NAMES.len())];
                let other = NAMES[rng.gen_range(0..NAMES.len())];
                let ((a, am), (b, bm)) = (pool[i].clone(), pool[j].clone());
                let next = match rng.gen_range(0..8) {
                    0 => {
                        let c = coefficient(&mut rng);
                        let (mut lin, mut map) = (a, am);
                        same_overflow(
                            "add_term",
                            || lin.add_term(name, c),
                            || map.add_term(name, c),
                        );
                        (lin, map)
                    }
                    1 => same_overflow("add", || a.add(&b), || am.add(&bm)),
                    2 => same_overflow("sub", || a.sub(&b), || am.sub(&bm)),
                    3 => {
                        let k = coefficient(&mut rng);
                        let k = if rng.gen_bool(0.1) {
                            Rational::zero()
                        } else {
                            k
                        };
                        same_overflow("scale", || a.scale(k), || am.scale(k))
                    }
                    4 => same_overflow(
                        "substitute",
                        || a.substitute(name, &b),
                        || am.substitute(name, &bm),
                    ),
                    5 => same_overflow(
                        "rename",
                        || a.rename(name, other),
                        || am.rename(name, other),
                    ),
                    6 => {
                        let terms = terms(&mut rng);
                        let k = coefficient(&mut rng);
                        same_overflow(
                            "from_terms",
                            || Lin::from_terms(terms.clone(), k),
                            || MapLin::from_terms(terms.clone(), k),
                        )
                    }
                    _ => (Lin::var(name), MapLin::var(name)),
                };
                let env: BTreeMap<String, Rational> = NAMES
                    .iter()
                    .map(|v| (v.to_string(), coefficient(&mut rng)))
                    .collect();
                check_agrees(&next.0, &next.1, &env);
                for (lin, map) in &pool {
                    assert_eq!(*lin == next.0, *map == next.1, "{lin:?} == {:?}", next.0);
                }
                pool.push(next);
            }
        }
    }
}
