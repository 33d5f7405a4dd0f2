//! The `BTreeMap`-backed affine expression that [`Lin`](super::Lin) replaced,
//! kept as the reference its differential test compares against: the same
//! operations, performed with the same rational arithmetic in the same order,
//! so values, rendering and saturation counts must agree exactly.

use crate::rational::Rational;
use std::collections::BTreeMap;
use std::fmt;

/// `Σ cᵢ·xᵢ + k` as an ordered map from owned names to non-zero coefficients.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct MapLin {
    coeffs: BTreeMap<String, Rational>,
    constant: Rational,
}

impl MapLin {
    pub fn constant(value: Rational) -> Self {
        MapLin {
            coeffs: BTreeMap::new(),
            constant: value,
        }
    }

    pub fn var(name: &str) -> Self {
        let mut out = MapLin::default();
        out.coeffs.insert(name.to_string(), Rational::one());
        out
    }

    pub fn from_terms(
        terms: impl IntoIterator<Item = (String, Rational)>,
        constant: Rational,
    ) -> Self {
        let mut lin = MapLin::constant(constant);
        for (v, c) in terms {
            lin.add_term(&v, c);
        }
        lin
    }

    pub fn add_term(&mut self, var: &str, coeff: Rational) {
        if coeff.is_zero() {
            return;
        }
        let entry = self
            .coeffs
            .entry(var.to_string())
            .or_insert_with(Rational::zero);
        *entry += coeff;
        if entry.is_zero() {
            self.coeffs.remove(var);
        }
    }

    pub fn coeff(&self, var: &str) -> Rational {
        self.coeffs.get(var).copied().unwrap_or_else(Rational::zero)
    }

    pub fn constant_term(&self) -> Rational {
        self.constant
    }

    pub fn terms(&self) -> impl Iterator<Item = (&str, Rational)> + '_ {
        self.coeffs.iter().map(|(v, c)| (v.as_str(), *c))
    }

    pub fn add(&self, other: &MapLin) -> MapLin {
        let mut out = self.clone();
        out.constant += other.constant;
        for (v, c) in other.coeffs.iter() {
            out.add_term(v, *c);
        }
        out
    }

    pub fn sub(&self, other: &MapLin) -> MapLin {
        self.add(&other.scale(-Rational::one()))
    }

    pub fn scale(&self, factor: Rational) -> MapLin {
        if factor.is_zero() {
            return MapLin::default();
        }
        MapLin {
            coeffs: self
                .coeffs
                .iter()
                .map(|(v, c)| (v.clone(), *c * factor))
                .collect(),
            constant: self.constant * factor,
        }
    }

    pub fn substitute(&self, var: &str, by: &MapLin) -> MapLin {
        match self.coeffs.get(var).copied() {
            None => self.clone(),
            Some(c) => {
                let mut out = self.clone();
                out.coeffs.remove(var);
                out.add(&by.scale(c))
            }
        }
    }

    pub fn rename(&self, from: &str, to: &str) -> MapLin {
        self.substitute(from, &MapLin::var(to))
    }

    pub fn eval(&self, assignment: &BTreeMap<String, Rational>) -> Rational {
        let mut total = self.constant;
        for (v, c) in self.coeffs.iter() {
            let value = assignment.get(v).copied().unwrap_or_else(Rational::zero);
            total += *c * value;
        }
        total
    }
}

impl fmt::Display for MapLin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in self.coeffs.iter() {
            if first {
                if *c == Rational::one() {
                    write!(f, "{}", v)?;
                } else if *c == -Rational::one() {
                    write!(f, "-{}", v)?;
                } else {
                    write!(f, "{}*{}", c, v)?;
                }
                first = false;
            } else if c.is_negative() {
                if *c == -Rational::one() {
                    write!(f, " - {}", v)?;
                } else {
                    write!(f, " - {}*{}", c.abs(), v)?;
                }
            } else if *c == Rational::one() {
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
