//! Design-space exploration: how many processors and buses does a given
//! conditional application actually need?
//!
//! Scheduling is "a factor with a decisive influence on the performance of
//! the system" (Section 1 of the paper) and is used not only for synthesis
//! but also for performance estimation of candidate architectures. This
//! example takes one randomly generated application (fixed seed, 60 processes
//! and 18 alternative paths), re-maps it onto architectures with one to four
//! processors and one or two buses, and reports the guaranteed worst-case
//! delay of each candidate — the estimation loop a system designer would run.
//!
//! The second half shows the *inner* loop of that workflow: once an
//! architecture is chosen, the designer tunes individual worst-case
//! execution times and re-estimates after every tweak. A [`MergeSession`]
//! keeps the explored decision tree between merges and replays every subtree
//! the edit provably cannot affect, so each re-estimate costs a fraction of
//! a cold merge while producing the bit-identical table.
//!
//! Run with `cargo run --release --example design_space_exploration`.

use cps::prelude::*;

fn main() {
    let deadline = Time::new(300);
    println!("design-space exploration of a 60-process application (18 alternative paths)\n");
    println!(
        "{:>11} {:>7} {:>9} {:>9} {:>10} {:>12}",
        "processors", "buses", "delta_M", "delta_max", "increase", "vs deadline"
    );

    let mut best: Option<(usize, usize, Time)> = None;
    for processors in 1..=4 {
        for buses in 1..=2 {
            // The same application logic (same seed), mapped on the candidate
            // architecture: the generator keeps the graph structure and
            // execution times deterministic for a given seed and re-draws the
            // mapping for the available processors.
            let config = GeneratorConfig::new(60, 18)
                .with_processors(processors)
                .with_buses(buses)
                .with_seed(0xD5E7)
                .with_max_comm_time(4);
            let system = generate(&config);
            let result = generate_schedule_table(
                system.cpg(),
                system.arch(),
                &MergeConfig::new(system.broadcast_time()),
            );
            result
                .table()
                .verify(system.cpg(), result.tracks())
                .expect("generated tables are correct");

            let meets = result.delta_max() <= deadline;
            println!(
                "{:>11} {:>7} {:>9} {:>9} {:>9.2}% {:>12}",
                processors,
                buses,
                result.delta_m(),
                result.delta_max(),
                result.overhead_percent(),
                if meets { "meets" } else { "misses" }
            );
            if meets && best.is_none() {
                best = Some((processors, buses, result.delta_max()));
            }
        }
    }

    match best {
        Some((processors, buses, delay)) => println!(
            "\nsmallest architecture meeting the {deadline}-unit deadline: {processors} processor(s), {buses} bus(es) (worst case {delay})"
        ),
        None => println!("\nno candidate architecture meets the {deadline}-unit deadline"),
    }

    // The same loop also serves pure performance estimation: the worst case
    // of the largest candidate.
    let config = GeneratorConfig::new(60, 18)
        .with_processors(4)
        .with_buses(2)
        .with_seed(0xD5E7)
        .with_max_comm_time(4);
    let system = generate(&config);
    let merged = generate_schedule_table(
        system.cpg(),
        system.arch(),
        &MergeConfig::new(system.broadcast_time()),
    );
    println!(
        "\non the 4-processor architecture: worst case {} (the longest path alone takes {})",
        merged.delta_max(),
        merged.delta_m()
    );

    // Incremental tuning on the chosen architecture: tighten a few WCETs one
    // by one and re-estimate after each edit. The session replays every
    // cached decision subtree outside the edit's scope, so each warm merge
    // re-walks only the invalidated region of the tree — and still produces
    // the table a cold merge of the edited system would.
    println!("\nincremental WCET tuning on the 4-processor architecture:");
    println!(
        "{:>6} {:>24} {:>9} {:>9} {:>10} {:>10}",
        "step", "edit", "delta_M", "delta_max", "replayed", "re-walked"
    );
    let mut session = MergeSession::new(
        system.cpg(),
        system.arch(),
        &MergeConfig::new(system.broadcast_time()),
    );
    let cold = session.merge();
    println!(
        "{:>6} {:>24} {:>9} {:>9} {:>10} {:>10}",
        0,
        "(cold merge)",
        cold.delta_m(),
        cold.delta_max(),
        session.reuse_stats().chains_replayed,
        session.reuse_stats().chains_recorded
    );
    let tuned: Vec<ProcessId> = system.cpg().ordinary_processes().take(3).collect();
    for (step, &process) in tuned.iter().enumerate() {
        let time = system.cpg().exec_time(process) + Time::new(2);
        let edit = SystemEdit::ExecTime { process, time };
        let label = edit.to_string();
        session
            .apply_edit(&edit)
            .expect("generated processes are editable");
        let result = session.merge();
        result
            .table()
            .verify(session.cpg(), result.tracks())
            .expect("incrementally re-merged tables are correct");
        println!(
            "{:>6} {:>24} {:>9} {:>9} {:>10} {:>10}",
            step + 1,
            label,
            result.delta_m(),
            result.delta_max(),
            session.reuse_stats().chains_replayed,
            session.reuse_stats().chains_recorded
        );
    }
}
