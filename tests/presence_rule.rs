//! The presence rule of the conditional process graph model: a process
//! reads an input only where that input is present.
//!
//! For a process `p` that is not a conjunction process, every in-edge
//! `q → p` with literal `ℓ` (if any) must satisfy `guard(p) ∧ ℓ ⇒ guard(q)`.
//! A conjunction process runs where any of its inputs arrives:
//! `guard(p) ⇒ ∨ (guard(q) ∧ ℓ)` over its in-edges. The builder derives
//! every guard from the conditional edges, so every graph it builds keeps
//! the rule. The checks run on the paper's examples, on generator systems
//! and on materialized fuzzer workloads whose ops re-nest guards and add or
//! remove dependencies.
//!
//! The rule is checked on the processes a schedule runs. The dummy source
//! and sink take the guard `true` by definition, and an added dependency
//! can leave a path on which no running process feeds the sink.

use proptest::prelude::*;

use cps::gen::{paper_suite, Workload, WorkloadOp};
use cps::model::{examples, Edge};
use cps::prelude::*;

/// What `edge` delivers: the guard of its origin, conjoined with its literal.
fn delivered(cpg: &Cpg, edge: &Edge) -> Guard {
    let origin = cpg.guard(edge.from());
    match edge.condition() {
        Some(literal) => origin.and_cube(&Cube::from(literal)),
        None => origin.clone(),
    }
}

/// Every place `cpg` breaks the presence rule, described for a failure
/// message: the in-edges of non-conjunction processes, and the conjunction
/// processes as a whole.
fn presence_breaks(cpg: &Cpg) -> Vec<String> {
    let mut breaks = Vec::new();
    for id in cpg.schedulable_processes() {
        let process = cpg.process(id);
        let guard = cpg.guard(id);
        if process.is_conjunction() {
            let any = cpg
                .in_edges(id)
                .fold(Guard::never(), |acc, edge| acc.or(&delivered(cpg, edge)));
            if !guard.implies(&any) {
                breaks.push(format!("conjunction {} ({guard})", process.name()));
            }
            continue;
        }
        for edge in cpg.in_edges(id) {
            let reads = match edge.condition() {
                Some(literal) => guard.and_cube(&Cube::from(literal)),
                None => guard.clone(),
            };
            if !reads.implies(cpg.guard(edge.from())) {
                breaks.push(format!(
                    "{} ({}) -> {} ({guard})",
                    cpg.process(edge.from()).name(),
                    cpg.guard(edge.from()),
                    process.name()
                ));
            }
        }
    }
    breaks
}

#[test]
fn the_examples_keep_the_presence_rule() {
    for system in [
        examples::fig1(),
        examples::sensor_actuator(),
        examples::diamond(),
        examples::slipping(),
    ] {
        for cpg in [system.unexpanded(), system.cpg()] {
            assert_eq!(presence_breaks(cpg), Vec::<String>::new(), "{cpg}");
        }
    }
}

#[test]
fn generator_systems_keep_the_presence_rule() {
    let deep_nests = [32usize, 48, 64].into_iter().flat_map(|k| {
        (0..4u64).map(move |j| {
            GeneratorConfig::new(3 * k, k)
                .with_processors(2)
                .with_buses(1)
                .with_seed(((3 * k as u64) << 32) | j)
        })
    });
    for config in paper_suite(12).into_iter().chain(deep_nests) {
        let system = generate(&config);
        assert_eq!(
            presence_breaks(system.cpg()),
            Vec::<String>::new(),
            "{config:?}"
        );
    }
}

/// The graph mutations that touch guards or dependencies.
fn graph_op() -> impl Strategy<Value = WorkloadOp> {
    (0u32..3, 0u64..64, 0u64..64, 0u64..10, prop::bool::ANY).prop_map(|(kind, a, b, c, value)| {
        match kind {
            0 => WorkloadOp::RenestGuard {
                slot: a,
                cond_slot: b,
                value,
            },
            1 => WorkloadOp::AddDependency {
                from_slot: a,
                to_slot: b,
                comm: c,
            },
            _ => WorkloadOp::RemoveDependency { slot: a },
        }
    })
}

fn workload() -> impl Strategy<Value = Workload> {
    (
        16usize..40,
        2usize..10,
        1usize..4,
        any::<u64>(),
        proptest::collection::vec(graph_op(), 1..8),
    )
        .prop_map(|(nodes, paths, processors, seed, ops)| {
            let mut workload = Workload::new(
                GeneratorConfig::new(nodes.max(3 * paths), paths)
                    .with_processors(processors)
                    .with_seed(seed),
            );
            workload.ops = ops;
            workload
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn materialized_workloads_keep_the_presence_rule(workload in workload()) {
        // A mutation the builder rejects yields no system, and nothing to
        // check.
        let Ok(system) = workload.materialize() else {
            return Ok(());
        };
        let breaks = presence_breaks(system.cpg());
        prop_assert!(breaks.is_empty(), "{} breaks: {breaks:?}", workload.encode_ops());
    }
}
