//! Adaptive cruise control on a two-ECU platform.
//!
//! This is the kind of application the paper's introduction motivates: a
//! distributed embedded controller whose behaviour depends on run-time
//! conditions (is there an obstacle? did the driver override?), implemented
//! on two electronic control units and a dedicated braking ASIC connected by
//! a CAN-like bus. The example builds the conditional process graph, derives
//! the schedule table, and shows how the guaranteed worst-case latency from
//! sensor reading to actuation compares across the possible scenarios.
//!
//! Run with `cargo run --example cruise_control`.

use cps::prelude::*;

/// Builds the cruise-control conditional process graph.
fn build_application(
    arch: &Architecture,
) -> Result<(Cpg, Vec<CondId>), Box<dyn std::error::Error>> {
    let ecu0 = arch.pe_by_name("ecu0").expect("ecu0 exists");
    let ecu1 = arch.pe_by_name("ecu1").expect("ecu1 exists");
    let brake_asic = arch.pe_by_name("brake-asic").expect("brake-asic exists");

    let mut b = Cpg::builder();
    let obstacle = b.condition("obstacle");
    let critical = b.condition("critical");
    let override_ = b.condition("driver_override");

    // Sensor fusion runs on ECU0 every control period.
    let radar = b.process("radar_read", Time::new(4), ecu0);
    let camera = b.process("camera_read", Time::new(6), ecu1);
    let fuse = b.process("fuse_tracks", Time::new(8), ecu0);
    b.simple_edge(radar, fuse, Time::ZERO);
    b.simple_edge(camera, fuse, Time::new(3));

    // `fuse_tracks` decides whether an obstacle is relevant.
    let classify = b.process("classify", Time::new(5), ecu0);
    b.simple_edge(fuse, classify, Time::ZERO);

    // Obstacle branch: assess severity, then either emergency braking on the
    // ASIC or comfortable deceleration on ECU1.
    let assess = b.process("assess_threat", Time::new(7), ecu1);
    b.conditional_edge(classify, assess, obstacle.is_true(), Time::new(3));
    let emergency = b.process("emergency_brake", Time::new(6), brake_asic);
    b.conditional_edge(assess, emergency, critical.is_true(), Time::new(2));
    let comfort = b.process("comfort_decel", Time::new(9), ecu1);
    b.conditional_edge(assess, comfort, critical.is_false(), Time::ZERO);
    let obstacle_plan = b.process("obstacle_plan", Time::new(4), ecu1);
    b.mark_conjunction(obstacle_plan);
    b.simple_edge(emergency, obstacle_plan, Time::new(2));
    b.simple_edge(comfort, obstacle_plan, Time::ZERO);

    // Free-road branch: keep the set speed, optionally handing control back
    // to the driver.
    let keep_speed = b.process("keep_speed", Time::new(5), ecu0);
    b.conditional_edge(classify, keep_speed, obstacle.is_false(), Time::ZERO);
    let hand_back = b.process("hand_back", Time::new(3), ecu1);
    b.conditional_edge(keep_speed, hand_back, override_.is_true(), Time::ZERO);
    let hold = b.process("hold_setpoint", Time::new(4), ecu1);
    b.conditional_edge(keep_speed, hold, override_.is_false(), Time::ZERO);
    let cruise_plan = b.process("cruise_plan", Time::new(3), ecu1);
    b.mark_conjunction(cruise_plan);
    b.simple_edge(hand_back, cruise_plan, Time::ZERO);
    b.simple_edge(hold, cruise_plan, Time::ZERO);

    // Both branches meet at the actuation command sent to the powertrain.
    let actuate = b.process("actuate", Time::new(4), ecu0);
    b.mark_conjunction(actuate);
    b.simple_edge(obstacle_plan, actuate, Time::new(3));
    b.simple_edge(cruise_plan, actuate, Time::ZERO);
    let log = b.process("log_frame", Time::new(2), ecu1);
    b.simple_edge(actuate, log, Time::new(2));

    let cpg = b.build(arch)?;
    let cpg = expand_communications(&cpg, arch, BusPolicy::FirstBus)?;
    Ok((cpg, vec![obstacle, critical, override_]))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two ECUs, one braking ASIC, one CAN-like bus.
    let arch = Architecture::builder()
        .processor("ecu0")
        .processor("ecu1")
        .hardware("brake-asic")
        .bus("can")
        .build()?;
    let (cpg, conditions) = build_application(&arch)?;

    println!("cruise control application: {cpg}");
    println!(
        "conditions: {}",
        conditions
            .iter()
            .map(|&c| cpg.condition_name(c).to_owned())
            .collect::<Vec<_>>()
            .join(", ")
    );

    // Generate the schedule table.
    let tau0 = Time::new(1);
    let result = generate_schedule_table(&cpg, &arch, &MergeConfig::new(tau0));
    result
        .table()
        .verify(&cpg, result.tracks())
        .expect("correct table");

    println!("\nper-scenario latency (sensor reading to actuation):");
    println!(
        "{:<28} {:>16} {:>16}",
        "scenario", "optimal schedule", "schedule table"
    );
    for (track, schedule) in result.tracks().iter().zip(result.path_schedules()) {
        println!(
            "{:<28} {:>16} {:>16}",
            cpg.display_cube(&track.label()),
            schedule.delay(),
            result.table().track_delay(&cpg, &track.label())
        );
    }
    println!(
        "\nguaranteed worst-case latency delta_max = {} (lower bound delta_M = {}, +{:.1}%)",
        result.delta_max(),
        result.delta_m(),
        result.overhead_percent()
    );

    // Execute the table for the most critical scenario and show when the
    // emergency brake command is issued.
    let simulator = Simulator::new(&cpg, &arch, result.table(), tau0);
    let critical_track = result
        .tracks()
        .iter()
        .find(|t| {
            t.label().contains(conditions[0].is_true())
                && t.label().contains(conditions[1].is_true())
        })
        .expect("the critical scenario exists");
    let report = simulator.run(&critical_track.label());
    let emergency = cpg
        .process_by_name("emergency_brake")
        .expect("process exists");
    println!(
        "\nin the critical scenario the emergency brake activates at t = {} and the frame completes at t = {}",
        report
            .activation_of(Job::Process(emergency))
            .expect("emergency brake runs in the critical scenario"),
        report.delay()
    );

    // Resource utilisation in the worst-case scenario: is the platform
    // over-provisioned?
    let worst_track = result
        .tracks()
        .iter()
        .max_by_key(|t| result.table().track_delay(&cpg, &t.label()))
        .expect("there is at least one scenario");
    println!(
        "\nresource utilisation in the worst-case scenario ({}):",
        cpg.display_cube(&worst_track.label())
    );
    for load in cps::table::utilization(result.table(), &cpg, &arch, &worst_track.label()) {
        println!(
            "  {:<12} {:>3} jobs, busy {:>3} of {} ({:.0}%)",
            arch.pe(load.pe).name(),
            load.jobs,
            load.busy,
            result.delta_max(),
            load.utilization_percent
        );
    }
    Ok(())
}
