//! Predicates: the atomic constraints of content-based subscriptions.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{AttrName, AttrType, Value};

/// A predicate operator.
///
/// Numerical attributes support `{=, <, >}` (the paper, §2); string attributes
/// support equality plus prefix, suffix and substring wildcards. Range filters such
/// as `c1 < a < c2` are expressed as the conjunction of two predicates
/// (`a > c1 ∧ a < c2`) inside a [`Filter`](crate::Filter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Op {
    /// Numeric equality `a = c`.
    Eq,
    /// Numeric strictly-less-than `a < c`.
    Lt,
    /// Numeric strictly-greater-than `a > c`.
    Gt,
    /// String equality `s = "abc"`.
    StrEq,
    /// String prefix wildcard `s = "ab*"`.
    Prefix,
    /// String suffix wildcard `s = "*bc"`.
    Suffix,
    /// String substring wildcard `s = "*b*"`.
    Contains,
}

impl Op {
    /// The attribute type this operator applies to.
    pub fn attr_type(self) -> AttrType {
        match self {
            Op::Eq | Op::Lt | Op::Gt => AttrType::Int,
            Op::StrEq | Op::Prefix | Op::Suffix | Op::Contains => AttrType::Str,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Op::Eq | Op::StrEq => "=",
            Op::Lt => "<",
            Op::Gt => ">",
            Op::Prefix => "=^",
            Op::Suffix => "=$",
            Op::Contains => "=~",
        };
        f.write_str(s)
    }
}

/// A single attribute constraint `AF = (name, op, constant)`.
///
/// ```
/// use dps_content::{Predicate, Value};
///
/// let p = Predicate::gt("a", 2);
/// assert!(p.matches_value(&Value::from(3)));
/// assert!(!p.matches_value(&Value::from(2)));
/// assert!(p.includes(&Predicate::gt("a", 5)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Predicate {
    name: AttrName,
    op: Op,
    constant: Value,
}

impl Predicate {
    /// Creates a predicate, validating that the operator matches the constant's type.
    ///
    /// # Errors
    ///
    /// Returns [`TypeMismatchError`] when e.g. a numeric operator is paired with a
    /// string constant.
    pub fn new(
        name: impl Into<AttrName>,
        op: Op,
        constant: impl Into<Value>,
    ) -> Result<Self, TypeMismatchError> {
        let constant = constant.into();
        if op.attr_type() != constant.attr_type() {
            return Err(TypeMismatchError {
                op,
                value_type: constant.attr_type(),
            });
        }
        Ok(Predicate {
            name: name.into(),
            op,
            constant,
        })
    }

    /// Shorthand for the numeric equality predicate `name = c`.
    pub fn eq(name: impl Into<AttrName>, c: i64) -> Self {
        Predicate {
            name: name.into(),
            op: Op::Eq,
            constant: Value::Int(c),
        }
    }

    /// Shorthand for the numeric predicate `name < c`.
    pub fn lt(name: impl Into<AttrName>, c: i64) -> Self {
        Predicate {
            name: name.into(),
            op: Op::Lt,
            constant: Value::Int(c),
        }
    }

    /// Shorthand for the numeric predicate `name > c`.
    pub fn gt(name: impl Into<AttrName>, c: i64) -> Self {
        Predicate {
            name: name.into(),
            op: Op::Gt,
            constant: Value::Int(c),
        }
    }

    /// Shorthand for the string equality predicate `name = "s"`.
    pub fn str_eq(name: impl Into<AttrName>, s: &str) -> Self {
        Predicate {
            name: name.into(),
            op: Op::StrEq,
            constant: Value::from(s),
        }
    }

    /// Shorthand for the prefix predicate `name = "s*"`.
    pub fn prefix(name: impl Into<AttrName>, s: &str) -> Self {
        Predicate {
            name: name.into(),
            op: Op::Prefix,
            constant: Value::from(s),
        }
    }

    /// Shorthand for the suffix predicate `name = "*s"`.
    pub fn suffix(name: impl Into<AttrName>, s: &str) -> Self {
        Predicate {
            name: name.into(),
            op: Op::Suffix,
            constant: Value::from(s),
        }
    }

    /// Shorthand for the substring predicate `name = "*s*"`.
    pub fn contains(name: impl Into<AttrName>, s: &str) -> Self {
        Predicate {
            name: name.into(),
            op: Op::Contains,
            constant: Value::from(s),
        }
    }

    /// The attribute name this predicate constrains.
    pub fn name(&self) -> &AttrName {
        &self.name
    }

    /// The operator.
    pub fn op(&self) -> Op {
        self.op
    }

    /// The constant the attribute is compared against.
    pub fn constant(&self) -> &Value {
        &self.constant
    }

    /// Tests whether a concrete attribute value satisfies this predicate
    /// (the paper's `AV ∈ AF`, restricted to the value since names were already
    /// matched by the caller).
    ///
    /// A value of the wrong type never matches.
    pub fn matches_value(&self, v: &Value) -> bool {
        match (self.op, v, &self.constant) {
            (Op::Eq, Value::Int(v), Value::Int(c)) => v == c,
            (Op::Lt, Value::Int(v), Value::Int(c)) => v < c,
            (Op::Gt, Value::Int(v), Value::Int(c)) => v > c,
            (Op::StrEq, Value::Str(v), Value::Str(c)) => v == c,
            (Op::Prefix, Value::Str(v), Value::Str(c)) => v.starts_with(c.as_ref()),
            (Op::Suffix, Value::Str(v), Value::Str(c)) => v.ends_with(c.as_ref()),
            (Op::Contains, Value::Str(v), Value::Str(c)) => v.contains(c.as_ref()),
            _ => false,
        }
    }

    /// Predicate inclusion (Definition 3 of the paper): `other ⊂ self`, i.e. **every**
    /// value satisfying `other` also satisfies `self`.
    ///
    /// `includes` is reflexive and transitive; together with [`Predicate::matches_value`]
    /// it satisfies the soundness law (property-tested in this crate):
    /// `self.includes(other) && other.matches_value(v) ⇒ self.matches_value(v)`.
    ///
    /// Predicates on different attributes are never related.
    pub fn includes(&self, other: &Predicate) -> bool {
        if self.name != other.name {
            return false;
        }
        match (self.op, &self.constant, other.op, &other.constant) {
            // Numeric.
            (Op::Lt, Value::Int(c1), Op::Lt, Value::Int(c2)) => c2 <= c1,
            (Op::Gt, Value::Int(c1), Op::Gt, Value::Int(c2)) => c2 >= c1,
            (Op::Lt, Value::Int(c), Op::Eq, Value::Int(v)) => v < c,
            (Op::Gt, Value::Int(c), Op::Eq, Value::Int(v)) => v > c,
            (Op::Eq, Value::Int(c1), Op::Eq, Value::Int(c2)) => c1 == c2,
            // `a < c` never includes `a > c'` or vice versa: both sides are unbounded.
            (Op::Lt, _, Op::Gt, _) | (Op::Gt, _, Op::Lt, _) => false,
            // Numeric equality includes nothing but itself.
            (Op::Eq, _, Op::Lt | Op::Gt, _) => false,

            // Strings. A longer prefix is included in any of its own prefixes.
            (Op::Prefix, Value::Str(p1), Op::Prefix, Value::Str(p2)) => p2.starts_with(p1.as_ref()),
            (Op::Suffix, Value::Str(s1), Op::Suffix, Value::Str(s2)) => s2.ends_with(s1.as_ref()),
            (Op::Contains, Value::Str(c1), Op::Contains, Value::Str(c2)) => {
                c2.contains(c1.as_ref())
            }
            (Op::Prefix, Value::Str(p), Op::StrEq, Value::Str(v)) => v.starts_with(p.as_ref()),
            (Op::Suffix, Value::Str(s), Op::StrEq, Value::Str(v)) => v.ends_with(s.as_ref()),
            (Op::Contains, Value::Str(c), Op::StrEq, Value::Str(v)) => v.contains(c.as_ref()),
            (Op::StrEq, Value::Str(v1), Op::StrEq, Value::Str(v2)) => v1 == v2,
            // A substring pattern includes a prefix/suffix pattern only when every
            // string with that prefix/suffix is guaranteed to contain the pattern,
            // which holds exactly when the prefix/suffix itself contains it.
            (Op::Contains, Value::Str(c), Op::Prefix | Op::Suffix, Value::Str(p)) => {
                p.contains(c.as_ref())
            }
            // A prefix pattern can include a substring pattern only for the empty
            // prefix; we treat the empty pattern like any other, so this is covered by
            // the generic rule below (no inclusion).
            (Op::Prefix | Op::Suffix, _, Op::Contains, _) => false,
            (Op::Prefix, _, Op::Suffix, _) | (Op::Suffix, _, Op::Prefix, _) => false,
            (Op::StrEq, _, Op::Prefix | Op::Suffix | Op::Contains, _) => false,

            // Mixed numeric/string or malformed pairs.
            _ => false,
        }
    }

    /// `self` and `other` denote exactly the same set of values.
    pub fn equivalent(&self, other: &Predicate) -> bool {
        self.includes(other) && other.includes(self)
    }

    /// Strict inclusion: `other ⊂ self` but not the converse.
    pub fn strictly_includes(&self, other: &Predicate) -> bool {
        self.includes(other) && !other.includes(self)
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op {
            Op::Prefix => write!(f, "{} = {}*", self.name, self.constant),
            Op::Suffix => write!(f, "{} = *{}", self.name, self.constant),
            Op::Contains => write!(f, "{} = *{}*", self.name, self.constant),
            Op::Eq | Op::StrEq => write!(f, "{} = {}", self.name, self.constant),
            Op::Lt => write!(f, "{} < {}", self.name, self.constant),
            Op::Gt => write!(f, "{} > {}", self.name, self.constant),
        }
    }
}

/// Error returned by [`Predicate::new`] when the operator and constant types disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeMismatchError {
    op: Op,
    value_type: AttrType,
}

impl fmt::Display for TypeMismatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "operator {:?} expects a {} constant, got {}",
            self.op,
            self.op.attr_type(),
            self.value_type
        )
    }
}

impl std::error::Error for TypeMismatchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_validates_types() {
        assert!(Predicate::new("a", Op::Lt, 3).is_ok());
        assert!(Predicate::new("a", Op::Lt, "x").is_err());
        assert!(Predicate::new("a", Op::Prefix, 3).is_err());
        let err = Predicate::new("a", Op::Prefix, 3).unwrap_err();
        assert!(err.to_string().contains("string"));
    }

    #[test]
    fn numeric_matching() {
        let lt = Predicate::lt("a", 10);
        assert!(lt.matches_value(&Value::from(9)));
        assert!(!lt.matches_value(&Value::from(10)));
        let gt = Predicate::gt("a", 10);
        assert!(gt.matches_value(&Value::from(11)));
        assert!(!gt.matches_value(&Value::from(10)));
        let eq = Predicate::eq("a", 10);
        assert!(eq.matches_value(&Value::from(10)));
        assert!(!eq.matches_value(&Value::from(11)));
        // Wrong type never matches.
        assert!(!lt.matches_value(&Value::from("9")));
    }

    #[test]
    fn string_matching() {
        assert!(Predicate::prefix("s", "ab").matches_value(&Value::from("abc")));
        assert!(!Predicate::prefix("s", "ab").matches_value(&Value::from("ba")));
        assert!(Predicate::suffix("s", "bc").matches_value(&Value::from("abc")));
        assert!(!Predicate::suffix("s", "bc").matches_value(&Value::from("bca")));
        assert!(Predicate::contains("s", "b").matches_value(&Value::from("abc")));
        assert!(!Predicate::contains("s", "z").matches_value(&Value::from("abc")));
        assert!(Predicate::str_eq("s", "abc").matches_value(&Value::from("abc")));
        assert!(!Predicate::str_eq("s", "abc").matches_value(&Value::from("ab")));
        assert!(!Predicate::str_eq("s", "abc").matches_value(&Value::from(1)));
    }

    #[test]
    fn numeric_inclusion() {
        // The paper's Figure 1 examples: a>5 ⊂ a>3 ⊂ a>2; a<11 ⊂ a<20.
        assert!(Predicate::gt("a", 2).includes(&Predicate::gt("a", 3)));
        assert!(Predicate::gt("a", 3).includes(&Predicate::gt("a", 5)));
        assert!(Predicate::gt("a", 2).includes(&Predicate::gt("a", 5)));
        assert!(!Predicate::gt("a", 5).includes(&Predicate::gt("a", 2)));
        assert!(Predicate::lt("a", 20).includes(&Predicate::lt("a", 11)));
        assert!(!Predicate::lt("a", 11).includes(&Predicate::lt("a", 20)));
        // a=4 ⊂ a>2, a>3, a<11, a<20 — the ambiguity C1 resolves.
        let eq4 = Predicate::eq("a", 4);
        assert!(Predicate::gt("a", 2).includes(&eq4));
        assert!(Predicate::gt("a", 3).includes(&eq4));
        assert!(Predicate::lt("a", 11).includes(&eq4));
        assert!(Predicate::lt("a", 20).includes(&eq4));
        assert!(!Predicate::gt("a", 4).includes(&eq4));
        assert!(!Predicate::lt("a", 4).includes(&eq4));
        // Opposite-direction predicates are never related.
        assert!(!Predicate::lt("a", 100).includes(&Predicate::gt("a", 99)));
        assert!(!Predicate::gt("a", 0).includes(&Predicate::lt("a", 1)));
        // Equality includes only itself.
        assert!(eq4.includes(&Predicate::eq("a", 4)));
        assert!(!eq4.includes(&Predicate::eq("a", 5)));
        assert!(!eq4.includes(&Predicate::gt("a", 4)));
    }

    #[test]
    fn inclusion_requires_same_attribute() {
        assert!(!Predicate::gt("a", 2).includes(&Predicate::gt("b", 5)));
    }

    #[test]
    fn string_inclusion() {
        // c=ab* includes c=abc (Figure 1: s5's c=abc sits below s7's c=ab*).
        assert!(Predicate::prefix("c", "ab").includes(&Predicate::str_eq("c", "abc")));
        assert!(Predicate::prefix("c", "ab").includes(&Predicate::prefix("c", "abc")));
        assert!(Predicate::prefix("c", "a").includes(&Predicate::prefix("c", "ab")));
        assert!(!Predicate::prefix("c", "ab").includes(&Predicate::prefix("c", "a")));
        assert!(Predicate::suffix("c", "c").includes(&Predicate::suffix("c", "bc")));
        assert!(Predicate::suffix("c", "bc").includes(&Predicate::str_eq("c", "abc")));
        assert!(Predicate::contains("c", "b").includes(&Predicate::contains("c", "abc")));
        assert!(Predicate::contains("c", "b").includes(&Predicate::str_eq("c", "abc")));
        // Contains includes a prefix pattern iff the prefix contains the pattern.
        assert!(Predicate::contains("c", "ab").includes(&Predicate::prefix("c", "xaby")));
        assert!(!Predicate::contains("c", "ab").includes(&Predicate::prefix("c", "b")));
        // Prefix never includes contains.
        assert!(!Predicate::prefix("c", "a").includes(&Predicate::contains("c", "a")));
        assert!(!Predicate::prefix("c", "a").includes(&Predicate::suffix("c", "a")));
    }

    #[test]
    fn strict_inclusion_and_equivalence() {
        let broad = Predicate::gt("a", 2);
        let narrow = Predicate::gt("a", 5);
        assert!(broad.strictly_includes(&narrow));
        assert!(!narrow.strictly_includes(&broad));
        assert!(!broad.strictly_includes(&broad));
        assert!(broad.equivalent(&Predicate::gt("a", 2)));
        assert!(!broad.equivalent(&narrow));
    }

    #[test]
    fn display_round_trips_visually() {
        assert_eq!(Predicate::gt("a", 2).to_string(), "a > 2");
        assert_eq!(Predicate::lt("a", 20).to_string(), "a < 20");
        assert_eq!(Predicate::eq("a", 4).to_string(), "a = 4");
        assert_eq!(Predicate::str_eq("c", "abc").to_string(), "c = abc");
        assert_eq!(Predicate::prefix("c", "ab").to_string(), "c = ab*");
        assert_eq!(Predicate::suffix("c", "bc").to_string(), "c = *bc");
        assert_eq!(Predicate::contains("c", "b").to_string(), "c = *b*");
    }
}
