//! Property-based tests of the condition algebra (cubes and guards): the
//! bitset implementation must agree with the semantic (truth-table)
//! definitions of conjunction, implication and exclusion. The truth table is
//! evaluated by [`holds`], a literal-by-literal reference that uses none of
//! the operations under test.

use proptest::prelude::*;

use cpg::{CondId, Cube, Guard, Literal, MAX_CONDITIONS};

const WIDTH: usize = 6;

fn literal_strategy() -> impl Strategy<Value = Literal> {
    (0..WIDTH, any::<bool>()).prop_map(|(index, value)| CondId::new(index).literal(value))
}

/// An arbitrary consistent cube over the first `WIDTH` conditions.
fn cube_strategy() -> impl Strategy<Value = Cube> {
    proptest::collection::vec((0..WIDTH, any::<Option<bool>>()), WIDTH).prop_map(|choices| {
        let mut cube = Cube::top();
        for (index, polarity) in choices {
            if let Some(value) = polarity {
                if let Some(next) = cube.and(CondId::new(index).literal(value)) {
                    cube = next;
                }
            }
        }
        cube
    })
}

/// All complete assignments over the conditions used by the strategies, as
/// truth vectors: bit `i` is the value of condition `i`.
fn universe() -> std::ops::Range<u64> {
    0..1 << WIDTH
}

/// `true` when the truth vector satisfies every literal of the cube.
fn holds(cube: &Cube, truth: u64) -> bool {
    (0..MAX_CONDITIONS).all(|i| {
        cube.polarity_of(CondId::new(i))
            .is_none_or(|value| value == (truth >> i & 1 == 1))
    })
}

/// `true` when the truth vector satisfies some cube of the guard.
fn guard_holds(guard: &Guard, truth: u64) -> bool {
    guard.cubes().iter().any(|cube| holds(cube, truth))
}

proptest! {
    // Pinned case count and shrink budget: CI runs must be deterministic and
    // fast regardless of PROPTEST_CASES / PROPTEST_MAX_SHRINK_ITERS in the
    // environment.
    #![proptest_config(ProptestConfig {
        cases: 128,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]
    #[test]
    fn conjunction_matches_truth_table_semantics(a in cube_strategy(), b in cube_strategy()) {
        match a.and_cube(&b) {
            Some(joined) => {
                for truth in universe() {
                    prop_assert_eq!(
                        holds(&joined, truth),
                        holds(&a, truth) && holds(&b, truth)
                    );
                }
            }
            None => {
                // Contradiction: no assignment satisfies both.
                for truth in universe() {
                    prop_assert!(!(holds(&a, truth) && holds(&b, truth)));
                }
            }
        }
    }

    #[test]
    fn implication_matches_semantic_entailment(a in cube_strategy(), b in cube_strategy()) {
        let syntactic = a.implies(&b);
        let semantic = universe()
            .all(|truth| !holds(&a, truth) || holds(&b, truth));
        prop_assert_eq!(syntactic, semantic);
    }

    #[test]
    fn exclusion_matches_unsatisfiable_conjunction(a in cube_strategy(), b in cube_strategy()) {
        let syntactic = a.excludes(&b);
        let semantic = universe()
            .all(|truth| !(holds(&a, truth) && holds(&b, truth)));
        prop_assert_eq!(syntactic, semantic);
        prop_assert_eq!(a.excludes(&b), b.excludes(&a));
        prop_assert_eq!(a.compatible(&b), !a.excludes(&b));
    }

    #[test]
    fn implication_is_reflexive_and_transitive(
        a in cube_strategy(),
        b in cube_strategy(),
        c in cube_strategy(),
    ) {
        prop_assert!(a.implies(&a));
        if a.implies(&b) && b.implies(&c) {
            prop_assert!(a.implies(&c));
        }
        // Everything implies true.
        prop_assert!(a.implies(&Cube::top()));
    }

    #[test]
    fn conjoining_a_literal_adds_exactly_that_literal(cube in cube_strategy(), lit in literal_strategy()) {
        match cube.and(lit) {
            Some(next) => {
                prop_assert!(next.contains(lit));
                prop_assert!(next.implies(&cube));
                prop_assert_eq!(next.polarity_of(lit.cond()), Some(lit.value()));
                prop_assert!(next.len() <= cube.len() + 1);
            }
            None => prop_assert!(cube.contains(lit.negated())),
        }
    }

    #[test]
    fn without_removes_only_the_requested_condition(cube in cube_strategy(), index in 0..WIDTH) {
        let cond = CondId::new(index);
        let removed = cube.without(cond);
        prop_assert!(!removed.mentions(cond));
        prop_assert!(cube.implies(&removed));
        for lit in cube.literals() {
            if lit.cond() != cond {
                prop_assert!(removed.contains(lit));
            }
        }
    }

    #[test]
    fn assignment_round_trips_through_cube(cube in cube_strategy(), lit in literal_strategy()) {
        let mut rebuilt = Cube::top();
        for each in cube.literals() {
            rebuilt.assign(each.cond(), each.value());
        }
        prop_assert_eq!(rebuilt, cube);
        // Assigning overwrites: the result is the cube without the
        // condition, conjoined with the assigned literal.
        let mut assigned = cube;
        assigned.assign(lit.cond(), lit.value());
        prop_assert_eq!(assigned.polarity_of(lit.cond()), Some(lit.value()));
        for truth in universe() {
            prop_assert_eq!(
                holds(&assigned, truth),
                holds(&cube.without(lit.cond()), truth)
                    && (truth >> lit.cond().index() & 1 == 1) == lit.value()
            );
        }
        prop_assert_eq!(assigned.without(lit.cond()), cube.without(lit.cond()));
    }

    #[test]
    fn guard_normalisation_preserves_semantics(cubes in proptest::collection::vec(cube_strategy(), 0..5)) {
        let guard = Guard::from_cubes(cubes.clone());
        for truth in universe() {
            let raw = cubes.iter().any(|cube| holds(cube, truth));
            prop_assert_eq!(guard_holds(&guard, truth), raw);
        }
    }

    #[test]
    fn guard_implication_matches_semantic_entailment(
        a in proptest::collection::vec(cube_strategy(), 0..4),
        b in proptest::collection::vec(cube_strategy(), 0..4),
    ) {
        let ga = Guard::from_cubes(a);
        let gb = Guard::from_cubes(b);
        let syntactic = ga.implies(&gb);
        let semantic = universe()
            .all(|truth| !guard_holds(&ga, truth) || guard_holds(&gb, truth));
        prop_assert_eq!(syntactic, semantic);
    }

    #[test]
    fn guard_conjunction_and_disjunction_are_semantic(
        a in proptest::collection::vec(cube_strategy(), 0..4),
        cube in cube_strategy(),
    ) {
        let guard = Guard::from_cubes(a);
        let anded = guard.and_cube(&cube);
        let ored = guard.or(&Guard::from_cube(cube));
        for truth in universe() {
            prop_assert_eq!(
                guard_holds(&anded, truth),
                guard_holds(&guard, truth) && holds(&cube, truth)
            );
            prop_assert_eq!(
                guard_holds(&ored, truth),
                guard_holds(&guard, truth) || holds(&cube, truth)
            );
        }
    }

    #[test]
    fn display_round_trips_the_number_of_literals(cube in cube_strategy()) {
        let text = cube.to_string();
        if cube.is_top() {
            prop_assert_eq!(text, "true");
        } else {
            prop_assert_eq!(text.split('&').count(), cube.len());
        }
    }
}
