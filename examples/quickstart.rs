//! Quick start: model a small conditional application, map it on a
//! two-processor platform, generate its schedule table and inspect the
//! guaranteed worst-case delay.
//!
//! Run with `cargo run --example quickstart`.

use cps::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The target architecture: two programmable processors sharing a bus.
    let arch = Architecture::builder()
        .processor("cpu0")
        .processor("cpu1")
        .bus("bus")
        .build()?;
    let cpu0 = arch.pe_by_name("cpu0").expect("cpu0 exists");
    let cpu1 = arch.pe_by_name("cpu1").expect("cpu1 exists");

    // 2. The application: a sensor process computes a condition at run time;
    //    depending on it either an expensive filter or a cheaper fallback
    //    runs on the second processor, and an actuator consumes the result.
    let mut builder = Cpg::builder();
    let anomaly = builder.condition("anomaly");
    let sense = builder.process("sense", Time::new(3), cpu0);
    let filter = builder.process("filter", Time::new(9), cpu1);
    let fallback = builder.process("fallback", Time::new(7), cpu1);
    let actuate = builder.process("actuate", Time::new(2), cpu0);
    builder.conditional_edge(sense, filter, anomaly.is_true(), Time::new(2));
    builder.conditional_edge(sense, fallback, anomaly.is_false(), Time::new(2));
    builder.simple_edge(filter, actuate, Time::new(2));
    builder.simple_edge(fallback, actuate, Time::new(2));
    builder.mark_conjunction(actuate);
    let cpg = builder.build(&arch)?;

    // 3. Insert the communication processes for every edge that crosses
    //    processors (they are scheduled on the bus like any other process).
    let cpg = expand_communications(&cpg, &arch, BusPolicy::FirstBus)?;
    println!("application: {cpg}");

    // 4. Generate the schedule table (condition broadcast time tau0 = 1).
    let result = generate_schedule_table(&cpg, &arch, &MergeConfig::new(Time::new(1)));
    println!("\nschedule table:\n{}", result.table().render(&cpg));
    println!(
        "longest individual path delta_M = {}, guaranteed worst case delta_max = {} (+{:.1}%)",
        result.delta_m(),
        result.delta_max(),
        result.overhead_percent()
    );

    // 5. Check the table statically (requirements 1-3 of the paper) and by
    //    executing it for every combination of condition values.
    result
        .table()
        .verify(&cpg, result.tracks())
        .expect("generated tables satisfy the paper's requirements");
    let simulator = Simulator::new(&cpg, &arch, result.table(), Time::new(1));
    for report in simulator.run_all(result.tracks()) {
        println!(
            "execution with {}: delay {} ({} violations)",
            cpg.display_cube(&report.label()),
            report.delay(),
            report.violations().len()
        );
    }

    // 6. Emit the per-processor dispatch pseudo-code a run-time kernel would
    //    execute (the synthesis output of the flow).
    println!();
    for dispatch in cps::table::per_processor_dispatch(result.table(), &cpg, &arch) {
        if !dispatch.is_empty() {
            print!("{}", dispatch.render_pseudocode(&cpg, &arch));
        }
    }
    Ok(())
}
