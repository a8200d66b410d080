//! Condition algebra: literals, cubes (conjunctions of literals), guards
//! (disjunctions of cubes) and complete assignments.
//!
//! Conditions are the boolean values computed by *disjunction processes*.
//! Column headers of the schedule table, guards of processes and labels of
//! alternative paths are all conjunctions of condition values — **cubes** —
//! and the hot operations of the table generator are conjunction, implication
//! and mutual-exclusion tests between cubes. Cubes are therefore stored as a
//! pair of bitsets which makes all three operations O(1).

use std::fmt;

/// Maximum number of distinct conditions supported by a [`Cube`].
pub const MAX_CONDITIONS: usize = 64;

/// Identifier of a boolean condition computed by a disjunction process.
///
/// # Example
///
/// ```
/// use cpg::CondId;
/// let c = CondId::new(0);
/// assert_eq!(c.index(), 0);
/// assert_eq!(c.is_true().to_string(), "c0");
/// assert_eq!(c.is_false().to_string(), "!c0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CondId(u8);

impl CondId {
    /// Creates a condition identifier from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= MAX_CONDITIONS`.
    #[must_use]
    pub fn new(index: usize) -> Self {
        assert!(
            index < MAX_CONDITIONS,
            "condition index {index} exceeds the supported maximum of {MAX_CONDITIONS}"
        );
        CondId(index as u8)
    }

    /// The index of this condition.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this condition.
    #[must_use]
    pub const fn is_true(self) -> Literal {
        Literal {
            cond: self,
            value: true,
        }
    }

    /// The negative literal of this condition.
    #[must_use]
    pub const fn is_false(self) -> Literal {
        Literal {
            cond: self,
            value: false,
        }
    }

    /// The literal of this condition with the given polarity.
    #[must_use]
    pub const fn literal(self, value: bool) -> Literal {
        Literal { cond: self, value }
    }
}

impl fmt::Display for CondId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A condition with a polarity: `C` or `¬C`.
///
/// # Example
///
/// ```
/// use cpg::{CondId, Cube};
/// let c = CondId::new(2);
/// let lit = c.is_false();
/// assert_eq!(lit.cond(), c);
/// assert!(!lit.value());
/// assert_eq!(lit.negated(), c.is_true());
/// let cube = Cube::from(lit);
/// assert!(cube.contains(lit));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Literal {
    cond: CondId,
    value: bool,
}

impl Literal {
    /// The condition this literal refers to.
    #[must_use]
    pub const fn cond(self) -> CondId {
        self.cond
    }

    /// The polarity of this literal (`true` for the positive literal).
    #[must_use]
    pub const fn value(self) -> bool {
        self.value
    }

    /// The literal of the same condition with the opposite polarity.
    #[must_use]
    pub const fn negated(self) -> Literal {
        Literal {
            cond: self.cond,
            value: !self.value,
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.value {
            write!(f, "{}", self.cond)
        } else {
            write!(f, "!{}", self.cond)
        }
    }
}

/// A conjunction of condition literals ("cube"), e.g. `D ∧ C ∧ ¬K`.
///
/// The empty conjunction is the constant `true` and is produced by
/// [`Cube::top`] / [`Cube::default`]. A cube never contains both polarities of
/// the same condition — conjoining complementary literals yields `None`.
///
/// # Example
///
/// ```
/// use cpg::{CondId, Cube};
///
/// let c = CondId::new(0);
/// let d = CondId::new(1);
///
/// let dc = Cube::top().and(d.is_true()).unwrap().and(c.is_true()).unwrap();
/// let d_only = Cube::from(d.is_true());
///
/// assert!(dc.implies(&d_only));          // D∧C ⇒ D
/// assert!(!d_only.implies(&dc));
/// assert!(dc.and(c.is_false()).is_none()); // D∧C∧¬C = false
/// let d_notc = d_only.and(c.is_false()).unwrap();
/// assert!(dc.excludes(&d_notc));          // (D∧C) ∧ (D∧¬C) = false
/// ```
/// Cubes are [`Ord`]: an arbitrary but deterministic total order (by the
/// positive then the negative bitset) that lets hot loops keep cube
/// collections sorted and membership-test them by binary search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cube {
    positive: u64,
    negative: u64,
}

impl Cube {
    /// The constant `true`: the empty conjunction.
    #[must_use]
    pub const fn top() -> Self {
        Cube {
            positive: 0,
            negative: 0,
        }
    }

    /// `true` when this cube is the constant `true`.
    #[must_use]
    pub const fn is_top(&self) -> bool {
        self.positive == 0 && self.negative == 0
    }

    /// Number of literals in the conjunction.
    #[must_use]
    pub const fn len(&self) -> usize {
        (self.positive.count_ones() + self.negative.count_ones()) as usize
    }

    /// `true` when the conjunction is empty (the constant `true`).
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.is_top()
    }

    /// `true` when the cube constrains `cond` (with either polarity).
    #[must_use]
    pub fn mentions(&self, cond: CondId) -> bool {
        (self.positive | self.negative) & (1u64 << cond.index()) != 0
    }

    /// The bitset of conditions required to be true (bit `i` set ⇔ the cube
    /// contains the positive literal of condition `i`).
    ///
    /// The raw masks let callers test compatibility, implication and
    /// mention-disjointness over whole *sets* of cubes as bitwise tests on
    /// unions of these masks.
    #[must_use]
    pub const fn positive_mask(&self) -> u64 {
        self.positive
    }

    /// The bitset of conditions required to be false.
    #[must_use]
    pub const fn negative_mask(&self) -> u64 {
        self.negative
    }

    /// The bitset of conditions mentioned with either polarity — the cube's
    /// *mention mask*. Two cubes with disjoint mention masks are always
    /// compatible (they constrain disjoint conditions).
    #[must_use]
    pub const fn mention_mask(&self) -> u64 {
        self.positive | self.negative
    }

    /// `true` when the cube contains exactly this literal.
    #[must_use]
    pub fn contains(&self, literal: Literal) -> bool {
        let bit = 1u64 << literal.cond().index();
        if literal.value() {
            self.positive & bit != 0
        } else {
            self.negative & bit != 0
        }
    }

    /// The polarity this cube requires for `cond`, if any.
    #[must_use]
    pub fn polarity_of(&self, cond: CondId) -> Option<bool> {
        let bit = 1u64 << cond.index();
        if self.positive & bit != 0 {
            Some(true)
        } else if self.negative & bit != 0 {
            Some(false)
        } else {
            None
        }
    }

    /// Conjoins a literal, returning `None` when the result is unsatisfiable
    /// (the cube already contains the complementary literal).
    #[must_use]
    pub fn and(&self, literal: Literal) -> Option<Cube> {
        let bit = 1u64 << literal.cond().index();
        let mut next = *self;
        if literal.value() {
            if self.negative & bit != 0 {
                return None;
            }
            next.positive |= bit;
        } else {
            if self.positive & bit != 0 {
                return None;
            }
            next.negative |= bit;
        }
        Some(next)
    }

    /// Conjoins two cubes, returning `None` when they are contradictory.
    #[must_use]
    pub fn and_cube(&self, other: &Cube) -> Option<Cube> {
        if self.positive & other.negative != 0 || self.negative & other.positive != 0 {
            return None;
        }
        Some(Cube {
            positive: self.positive | other.positive,
            negative: self.negative | other.negative,
        })
    }

    /// Logical implication: `self ⇒ other` holds when every literal of `other`
    /// appears in `self`.
    #[must_use]
    pub const fn implies(&self, other: &Cube) -> bool {
        self.positive & other.positive == other.positive
            && self.negative & other.negative == other.negative
    }

    /// Mutual exclusion: `self ∧ other = false` (the cubes disagree on the
    /// polarity of at least one condition).
    #[must_use]
    pub const fn excludes(&self, other: &Cube) -> bool {
        self.positive & other.negative != 0 || self.negative & other.positive != 0
    }

    /// `true` when the cubes can be simultaneously satisfied.
    #[must_use]
    pub const fn compatible(&self, other: &Cube) -> bool {
        !self.excludes(other)
    }

    /// Removes any literal over `cond`, leaving the other literals intact.
    #[must_use]
    pub fn without(&self, cond: CondId) -> Cube {
        let bit = 1u64 << cond.index();
        Cube {
            positive: self.positive & !bit,
            negative: self.negative & !bit,
        }
    }

    /// Keeps only the literals over the conditions whose bit is set in
    /// `mask` (bit `i` for condition `i`).
    #[must_use]
    pub const fn restricted_to(&self, mask: u64) -> Cube {
        Cube {
            positive: self.positive & mask,
            negative: self.negative & mask,
        }
    }

    /// Keeps only the literals whose condition satisfies the predicate.
    #[must_use]
    pub fn retain(&self, mut keep: impl FnMut(CondId) -> bool) -> Cube {
        let mut out = Cube::top();
        for lit in self.literals() {
            if keep(lit.cond()) {
                out = out
                    .and(lit)
                    .expect("subset of a consistent cube is consistent");
            }
        }
        out
    }

    /// Iterates over the literals of the conjunction in condition order.
    ///
    /// Walks the set bits of the combined mask with `trailing_zeros`, so a
    /// sparse cube visits only its own literals rather than all
    /// [`MAX_CONDITIONS`] bit positions.
    pub fn literals(&self) -> impl Iterator<Item = Literal> + '_ {
        let positive = self.positive;
        let mut remaining = self.positive | self.negative;
        std::iter::from_fn(move || {
            if remaining == 0 {
                return None;
            }
            let i = remaining.trailing_zeros() as usize;
            remaining &= remaining - 1;
            let cond = CondId::new(i);
            Some(if positive & (1u64 << i) != 0 {
                cond.is_true()
            } else {
                cond.is_false()
            })
        })
    }

    /// Iterates over the conditions mentioned by the conjunction.
    pub fn conditions(&self) -> impl Iterator<Item = CondId> + '_ {
        self.literals().map(Literal::cond)
    }

    /// `true` when a complete assignment satisfies this conjunction: every
    /// positive literal sits in the assignment's true set and every negative
    /// literal in its false set. Two mask subtractions — no literal walk.
    #[must_use]
    pub const fn satisfied_by(&self, assignment: &Assignment) -> bool {
        self.positive & !assignment.true_mask() == 0
            && self.negative & !assignment.false_mask() == 0
    }

    /// `true` when a (possibly partial) assignment is consistent with this
    /// conjunction, i.e. assigns no condition the opposite polarity.
    #[must_use]
    pub const fn consistent_with(&self, assignment: &Assignment) -> bool {
        self.positive & assignment.false_mask() == 0 && self.negative & assignment.true_mask() == 0
    }

    /// Renders the cube with the given condition names, using `true` for the
    /// empty conjunction — the notation of the paper's schedule tables.
    #[must_use]
    pub fn display_with(&self, names: &dyn Fn(CondId) -> String) -> String {
        if self.is_top() {
            return "true".to_owned();
        }
        self.literals()
            .map(|lit| {
                if lit.value() {
                    names(lit.cond())
                } else {
                    format!("!{}", names(lit.cond()))
                }
            })
            .collect::<Vec<_>>()
            .join("&")
    }
}

impl From<Literal> for Cube {
    fn from(literal: Literal) -> Self {
        Cube::top()
            .and(literal)
            .expect("a single literal is always consistent")
    }
}

impl FromIterator<Literal> for Cube {
    /// Collects literals into a cube.
    ///
    /// # Panics
    ///
    /// Panics if the literals are contradictory; use [`Cube::and`] for a
    /// fallible construction.
    fn from_iter<T: IntoIterator<Item = Literal>>(iter: T) -> Self {
        let mut cube = Cube::top();
        for lit in iter {
            cube = cube
                .and(lit)
                .expect("collected literals must not be contradictory");
        }
        cube
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_top() {
            return f.write_str("true");
        }
        let mut first = true;
        for lit in self.literals() {
            if !first {
                f.write_str("&")?;
            }
            write!(f, "{lit}")?;
            first = false;
        }
        Ok(())
    }
}

/// A guard: the necessary condition for a process to be activated.
///
/// Guards are disjunctions of [`Cube`]s. For well-formed conditional process
/// graphs the guard of every process simplifies to a single cube (this is the
/// form the paper uses, e.g. `X_P14 = D ∧ K`); the disjunctive representation
/// is kept so that intermediate values during guard inference — in particular
/// at conjunction nodes, before complementary branches are merged — remain
/// representable.
///
/// # Example
///
/// ```
/// use cpg::{CondId, Cube, Guard};
///
/// let c = CondId::new(0);
/// let lhs = Cube::from(c.is_true());
/// let rhs = Cube::from(c.is_false());
/// // C ∨ ¬C simplifies to true.
/// let guard = Guard::from_cubes([lhs, rhs]);
/// assert!(guard.is_true());
/// assert_eq!(guard.as_cube(), Some(Cube::top()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Guard {
    cubes: Vec<Cube>,
}

impl Guard {
    /// The guard that is always satisfied.
    #[must_use]
    pub fn always() -> Self {
        Guard {
            cubes: vec![Cube::top()],
        }
    }

    /// The guard that can never be satisfied (empty disjunction).
    #[must_use]
    pub fn never() -> Self {
        Guard { cubes: Vec::new() }
    }

    /// Builds a guard from a single cube.
    #[must_use]
    pub fn from_cube(cube: Cube) -> Self {
        Guard { cubes: vec![cube] }
    }

    /// Builds a guard from a disjunction of cubes, normalizing the result.
    #[must_use]
    pub fn from_cubes(cubes: impl IntoIterator<Item = Cube>) -> Self {
        let mut guard = Guard {
            cubes: cubes.into_iter().collect(),
        };
        guard.normalize();
        guard
    }

    /// `true` when the guard is the constant `true`.
    #[must_use]
    pub fn is_true(&self) -> bool {
        self.cubes.iter().any(Cube::is_top)
    }

    /// `true` when the guard can never be satisfied.
    #[must_use]
    pub fn is_never(&self) -> bool {
        self.cubes.is_empty()
    }

    /// The single cube equivalent to this guard, when it exists.
    #[must_use]
    pub fn as_cube(&self) -> Option<Cube> {
        match self.cubes.as_slice() {
            [single] => Some(*single),
            _ => None,
        }
    }

    /// The cubes of the disjunction.
    #[must_use]
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// `true` when a complete assignment satisfies the guard.
    #[must_use]
    pub fn satisfied_by(&self, assignment: &Assignment) -> bool {
        self.cubes.iter().any(|cube| cube.satisfied_by(assignment))
    }

    /// `true` when `cube ⇒ self`, i.e. the guard is satisfied whenever the
    /// cube is.
    #[must_use]
    pub fn implied_by(&self, cube: &Cube) -> bool {
        self.cubes.iter().any(|own| cube.implies(own))
    }

    /// Logical implication between guards: `self ⇒ other`.
    ///
    /// The check is exact: when simple cube-wise subsumption is inconclusive
    /// (a cube of `self` can be covered by *several* cubes of `other`
    /// together), the conditions involved are enumerated. Guards of
    /// conditional process graphs mention only the handful of conditions on
    /// the paths to a process, so the enumeration stays tiny.
    #[must_use]
    pub fn implies(&self, other: &Guard) -> bool {
        self.cubes.iter().all(|cube| {
            if other.implied_by(cube) {
                return true;
            }
            // Exact check: `cube ∧ ¬other` must be unsatisfiable. Enumerate
            // the conditions mentioned by either side that are not already
            // fixed by `cube`.
            let mut free: Vec<CondId> = other
                .conditions()
                .into_iter()
                .filter(|&c| !cube.mentions(c))
                .collect();
            free.sort_unstable();
            free.dedup();
            if free.len() > 20 {
                // Guards this wide do not occur in practice; stay sound by
                // reporting "not implied" rather than enumerating 2^20+
                // assignments.
                return false;
            }
            all_assignments(&free).iter().all(|assignment| {
                let mut full = assignment.clone();
                for lit in cube.literals() {
                    full.assign(lit.cond(), lit.value());
                }
                other.satisfied_by(&full)
            })
        })
    }

    /// Conjoins the guard with a cube.
    #[must_use]
    pub fn and_cube(&self, cube: &Cube) -> Guard {
        Guard::from_cubes(self.cubes.iter().filter_map(|own| own.and_cube(cube)))
    }

    /// Disjoins two guards.
    #[must_use]
    pub fn or(&self, other: &Guard) -> Guard {
        Guard::from_cubes(self.cubes.iter().chain(other.cubes.iter()).copied())
    }

    /// The conditions mentioned anywhere in the guard.
    #[must_use]
    pub fn conditions(&self) -> Vec<CondId> {
        let mut conds: Vec<CondId> = self
            .cubes
            .iter()
            .flat_map(|cube| cube.conditions())
            .collect();
        conds.sort_unstable();
        conds.dedup();
        conds
    }

    /// Normalization: absorb subsumed cubes and merge cube pairs that differ
    /// only in the polarity of a single condition (`q∧C ∨ q∧¬C = q`).
    fn normalize(&mut self) {
        loop {
            // Absorption: drop any cube implied by (more specific than) another.
            let mut kept: Vec<Cube> = Vec::with_capacity(self.cubes.len());
            for cube in &self.cubes {
                if kept.iter().any(|k| cube.implies(k)) {
                    continue;
                }
                kept.retain(|k| !k.implies(cube));
                kept.push(*cube);
            }
            self.cubes = kept;

            // Merging: q∧C ∨ q∧¬C  →  q.
            let mut merged = false;
            'outer: for i in 0..self.cubes.len() {
                for j in (i + 1)..self.cubes.len() {
                    if let Some(joined) = merge_complementary(&self.cubes[i], &self.cubes[j]) {
                        self.cubes[i] = joined;
                        self.cubes.swap_remove(j);
                        merged = true;
                        break 'outer;
                    }
                }
            }
            if !merged {
                break;
            }
        }
        self.cubes
            .sort_by_key(|cube| (cube.len(), cube.positive, cube.negative));
    }
}

impl From<Cube> for Guard {
    fn from(cube: Cube) -> Self {
        Guard::from_cube(cube)
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_never() {
            return f.write_str("false");
        }
        if self.is_true() {
            return f.write_str("true");
        }
        let mut first = true;
        for cube in &self.cubes {
            if !first {
                f.write_str(" | ")?;
            }
            write!(f, "{cube}")?;
            first = false;
        }
        Ok(())
    }
}

/// Returns the merge of two cubes that differ only in the polarity of exactly
/// one condition, or `None` when they do not.
fn merge_complementary(a: &Cube, b: &Cube) -> Option<Cube> {
    // They must mention exactly the same conditions.
    if (a.positive | a.negative) != (b.positive | b.negative) {
        return None;
    }
    let diff = a.positive ^ b.positive;
    if diff.count_ones() != 1 {
        return None;
    }
    let idx = diff.trailing_zeros() as usize;
    Some(a.without(CondId::new(idx)))
}

/// A (possibly partial) assignment of truth values to conditions.
///
/// Complete assignments select one alternative path through a conditional
/// process graph; partial assignments describe intermediate states of the
/// decision tree explored during schedule merging.
///
/// # Example
///
/// ```
/// use cpg::{Assignment, CondId, Cube};
///
/// let c = CondId::new(0);
/// let d = CondId::new(1);
/// let mut asg = Assignment::new();
/// asg.assign(c, true);
/// assert_eq!(asg.value(c), Some(true));
/// assert_eq!(asg.value(d), None);
/// assert!(Cube::from(c.is_true()).consistent_with(&asg));
/// assert_eq!(asg.to_cube(), Cube::from(c.is_true()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Assignment {
    assigned: u64,
    values: u64,
}

impl Assignment {
    /// Creates an empty assignment.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the assignment containing exactly the literals of a cube.
    #[must_use]
    pub fn from_cube(cube: &Cube) -> Self {
        let mut asg = Assignment::new();
        for lit in cube.literals() {
            asg.assign(lit.cond(), lit.value());
        }
        asg
    }

    /// Assigns a value to a condition (overwriting any previous value).
    pub fn assign(&mut self, cond: CondId, value: bool) {
        let bit = 1u64 << cond.index();
        self.assigned |= bit;
        if value {
            self.values |= bit;
        } else {
            self.values &= !bit;
        }
    }

    /// Removes a condition from the assignment.
    pub fn unassign(&mut self, cond: CondId) {
        let bit = 1u64 << cond.index();
        self.assigned &= !bit;
        self.values &= !bit;
    }

    /// The value assigned to a condition, or `None` if it is unassigned.
    #[must_use]
    pub fn value(&self, cond: CondId) -> Option<bool> {
        let bit = 1u64 << cond.index();
        if self.assigned & bit == 0 {
            None
        } else {
            Some(self.values & bit != 0)
        }
    }

    /// Number of assigned conditions.
    #[must_use]
    pub const fn len(&self) -> usize {
        self.assigned.count_ones() as usize
    }

    /// `true` when no condition is assigned.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.assigned == 0
    }

    /// The assignment as a cube (conjunction of all assigned literals).
    #[must_use]
    pub fn to_cube(&self) -> Cube {
        Cube {
            positive: self.values,
            negative: self.assigned & !self.values,
        }
    }

    /// The bitset of assigned conditions (bit `i` set ⇔ condition `i` has a
    /// value). Counterpart of [`Cube::mention_mask`] for group-level
    /// satisfiability pruning: a cube can only be satisfied when its mention
    /// mask is a subset of this.
    #[must_use]
    pub const fn assigned_mask(&self) -> u64 {
        self.assigned
    }

    /// The bitset of conditions assigned `true`.
    #[must_use]
    pub const fn true_mask(&self) -> u64 {
        self.assigned & self.values
    }

    /// The bitset of conditions assigned `false`.
    #[must_use]
    pub const fn false_mask(&self) -> u64 {
        self.assigned & !self.values
    }

    /// Iterates over the assigned literals in condition order, walking only
    /// the set bits of the assigned mask.
    pub fn literals(&self) -> impl Iterator<Item = Literal> + '_ {
        let values = self.values;
        let mut remaining = self.assigned;
        std::iter::from_fn(move || {
            if remaining == 0 {
                return None;
            }
            let i = remaining.trailing_zeros() as usize;
            remaining &= remaining - 1;
            let cond = CondId::new(i);
            Some(cond.literal(values & (1u64 << i) != 0))
        })
    }
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_cube())
    }
}

/// Enumerates every complete assignment over the given conditions.
///
/// Used by the table-correctness checks (requirement 3 of the paper) to verify
/// that the columns holding activation times of a process cover exactly its
/// guard.
///
/// # Panics
///
/// Panics if more than 20 conditions are supplied (the enumeration would be
/// larger than 2^20).
#[must_use]
pub fn all_assignments(conditions: &[CondId]) -> Vec<Assignment> {
    assert!(
        conditions.len() <= 20,
        "refusing to enumerate more than 2^20 assignments"
    );
    let n = conditions.len();
    let mut out = Vec::with_capacity(1 << n);
    for bits in 0u32..(1u32 << n) {
        let mut asg = Assignment::new();
        for (i, cond) in conditions.iter().enumerate() {
            asg.assign(*cond, bits & (1 << i) != 0);
        }
        out.push(asg);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: usize) -> CondId {
        CondId::new(i)
    }

    #[test]
    fn literal_negation_and_accessors() {
        let lit = c(3).is_true();
        assert_eq!(lit.cond(), c(3));
        assert!(lit.value());
        assert_eq!(lit.negated(), c(3).is_false());
        assert_eq!(lit.negated().negated(), lit);
    }

    #[test]
    fn top_cube_is_true_and_empty() {
        let top = Cube::top();
        assert!(top.is_top());
        assert!(top.is_empty());
        assert_eq!(top.len(), 0);
        assert_eq!(top.to_string(), "true");
        assert_eq!(top, Cube::default());
    }

    #[test]
    fn and_rejects_contradictions() {
        let cube = Cube::from(c(0).is_true());
        assert!(cube.and(c(0).is_false()).is_none());
        assert!(cube.and(c(0).is_true()).is_some());
        assert_eq!(cube.and(c(1).is_false()).unwrap().len(), 2);
    }

    #[test]
    fn and_cube_merges_or_detects_conflict() {
        let dc: Cube = [c(1).is_true(), c(0).is_true()].into_iter().collect();
        let k_not: Cube = Cube::from(c(2).is_false());
        let merged = dc.and_cube(&k_not).unwrap();
        assert_eq!(merged.len(), 3);
        assert!(merged.contains(c(2).is_false()));
        let conflicting = Cube::from(c(0).is_false());
        assert!(dc.and_cube(&conflicting).is_none());
    }

    #[test]
    fn implication_is_literal_subset() {
        let dck: Cube = [c(1).is_true(), c(0).is_true(), c(2).is_false()]
            .into_iter()
            .collect();
        let dc: Cube = [c(1).is_true(), c(0).is_true()].into_iter().collect();
        assert!(dck.implies(&dc));
        assert!(!dc.implies(&dck));
        assert!(dck.implies(&Cube::top()));
        assert!(Cube::top().implies(&Cube::top()));
        assert!(!Cube::top().implies(&dc));
    }

    #[test]
    fn exclusion_requires_opposite_polarity() {
        let dc: Cube = [c(1).is_true(), c(0).is_true()].into_iter().collect();
        let d_notc: Cube = [c(1).is_true(), c(0).is_false()].into_iter().collect();
        let k: Cube = Cube::from(c(2).is_true());
        assert!(dc.excludes(&d_notc));
        assert!(!dc.excludes(&k));
        assert!(dc.compatible(&k));
        assert!(!Cube::top().excludes(&dc));
    }

    #[test]
    fn polarity_and_mentions_queries() {
        let cube: Cube = [c(1).is_true(), c(2).is_false()].into_iter().collect();
        assert_eq!(cube.polarity_of(c(1)), Some(true));
        assert_eq!(cube.polarity_of(c(2)), Some(false));
        assert_eq!(cube.polarity_of(c(0)), None);
        assert!(cube.mentions(c(1)));
        assert!(!cube.mentions(c(0)));
    }

    #[test]
    fn without_and_retain_drop_literals() {
        let cube: Cube = [c(0).is_true(), c(1).is_false(), c(2).is_true()]
            .into_iter()
            .collect();
        assert_eq!(cube.without(c(1)).len(), 2);
        assert!(!cube.without(c(1)).mentions(c(1)));
        let kept = cube.retain(|cond| cond.index() != 2);
        assert_eq!(kept.len(), 2);
        assert!(!kept.mentions(c(2)));
        assert_eq!(cube.restricted_to(0b011), kept);
        assert_eq!(cube.restricted_to(0), Cube::top());
    }

    #[test]
    fn literals_iterate_in_condition_order() {
        let cube: Cube = [c(5).is_false(), c(1).is_true()].into_iter().collect();
        let lits: Vec<_> = cube.literals().collect();
        assert_eq!(lits, vec![c(1).is_true(), c(5).is_false()]);
        assert_eq!(cube.conditions().collect::<Vec<_>>(), vec![c(1), c(5)]);
    }

    #[test]
    fn display_uses_paper_like_notation() {
        let cube: Cube = [c(0).is_true(), c(2).is_false()].into_iter().collect();
        assert_eq!(cube.to_string(), "c0&!c2");
        let named = cube.display_with(&|cond| ["C", "D", "K"][cond.index()].to_owned());
        assert_eq!(named, "C&!K");
        assert_eq!(Cube::top().display_with(&|_| unreachable!()), "true");
    }

    #[test]
    fn assignment_round_trip_with_cube() {
        let cube: Cube = [c(0).is_true(), c(3).is_false()].into_iter().collect();
        let asg = Assignment::from_cube(&cube);
        assert_eq!(asg.to_cube(), cube);
        assert!(cube.satisfied_by(&asg));
        assert_eq!(asg.len(), 2);
        assert!(!asg.is_empty());
    }

    #[test]
    fn assignment_assign_unassign() {
        let mut asg = Assignment::new();
        assert!(asg.is_empty());
        asg.assign(c(4), true);
        asg.assign(c(4), false);
        assert_eq!(asg.value(c(4)), Some(false));
        asg.unassign(c(4));
        assert_eq!(asg.value(c(4)), None);
        assert!(asg.is_empty());
    }

    #[test]
    fn consistency_with_partial_assignment() {
        let cube: Cube = [c(0).is_true(), c(1).is_false()].into_iter().collect();
        let mut partial = Assignment::new();
        partial.assign(c(0), true);
        assert!(cube.consistent_with(&partial));
        assert!(!cube.satisfied_by(&partial));
        partial.assign(c(1), true);
        assert!(!cube.consistent_with(&partial));
    }

    #[test]
    fn guard_normalization_absorbs_and_merges() {
        let dc: Cube = [c(1).is_true(), c(0).is_true()].into_iter().collect();
        let d_notc: Cube = [c(1).is_true(), c(0).is_false()].into_iter().collect();
        let guard = Guard::from_cubes([dc, d_notc]);
        assert_eq!(guard.as_cube(), Some(Cube::from(c(1).is_true())));

        let d = Cube::from(c(1).is_true());
        let absorbed = Guard::from_cubes([d, dc]);
        assert_eq!(absorbed.as_cube(), Some(d));
    }

    #[test]
    fn guard_full_split_simplifies_to_true() {
        let pos = Cube::from(c(0).is_true());
        let neg = Cube::from(c(0).is_false());
        let guard = Guard::from_cubes([pos, neg]);
        assert!(guard.is_true());
    }

    #[test]
    fn guard_implication_and_conjunction() {
        let d = Guard::from_cube(Cube::from(c(1).is_true()));
        let dc = d.and_cube(&Cube::from(c(0).is_true()));
        assert!(dc.implies(&d));
        assert!(!d.implies(&dc));
        assert!(Guard::never().implies(&d));
        assert!(d.implies(&Guard::always()));
        assert!(!Guard::always().implies(&Guard::never()));
    }

    #[test]
    fn guard_or_and_conditions() {
        let a = Guard::from_cube(Cube::from(c(0).is_true()));
        let b = Guard::from_cube(Cube::from(c(2).is_false()));
        let joined = a.or(&b);
        assert_eq!(joined.cubes().len(), 2);
        assert_eq!(joined.conditions(), vec![c(0), c(2)]);
        assert_eq!(a.or(&Guard::never()), a);
    }

    #[test]
    fn guard_display() {
        assert_eq!(Guard::always().to_string(), "true");
        assert_eq!(Guard::never().to_string(), "false");
        let g = Guard::from_cubes([
            Cube::from(c(0).is_true()),
            [c(1).is_true(), c(2).is_true()].into_iter().collect(),
        ]);
        assert_eq!(g.to_string(), "c0 | c1&c2");
    }

    #[test]
    fn all_assignments_enumerates_the_full_space() {
        let conds = [c(0), c(2)];
        let assignments = all_assignments(&conds);
        assert_eq!(assignments.len(), 4);
        let distinct: std::collections::HashSet<_> =
            assignments.iter().map(|a| a.to_cube()).collect();
        assert_eq!(distinct.len(), 4);
        for asg in &assignments {
            assert_eq!(asg.len(), 2);
            assert_eq!(asg.value(c(1)), None);
        }
    }

    #[test]
    #[should_panic(expected = "condition index")]
    fn cond_id_rejects_out_of_range_indices() {
        let _ = CondId::new(MAX_CONDITIONS);
    }

    #[test]
    fn guard_implied_by_cube() {
        let guard = Guard::from_cubes([
            [c(0).is_true(), c(1).is_true()]
                .into_iter()
                .collect::<Cube>(),
            [c(0).is_false(), c(2).is_true()]
                .into_iter()
                .collect::<Cube>(),
        ]);
        let track: Cube = [c(0).is_true(), c(1).is_true(), c(2).is_false()]
            .into_iter()
            .collect();
        assert!(guard.implied_by(&track));
        let other: Cube = [c(0).is_true(), c(1).is_false()].into_iter().collect();
        assert!(!guard.implied_by(&other));
    }
}
