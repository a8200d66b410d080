//! The output check must not pass vacuously, and a run must be a function
//! of its seed.

use cpg::examples;
use cpg_gen::paper_suite;
use cpg_perfbench::pipeline::{cold_item, Quality, System};
use cpg_perfbench::run::{run, Options};
use cpg_perfbench::trace::{Counters, Tracer};
use cpg_perfbench::workload::{
    deep_nest_config, Scale, Workload, DEEP_NEST_FAILURES, SUITE_FAILURES,
};

fn verdict(system: &System) -> Result<Quality, String> {
    cold_item(system, 0, &mut Tracer::new(false), &mut Counters::default()).verdict
}

#[test]
fn check_flags_suite_tables_that_verify_but_overlap_when_simulated() {
    // Seeds 0x7800000002 and 0x7800000019: both verify and report
    // `Realizable`; only the simulator sees the resource overlap.
    let suite = paper_suite(40);
    for index in [82, 105] {
        let reason =
            verdict(&System::generate(&suite[index])).expect_err("the check must flag this system");
        assert!(reason.contains("overlap"), "config {index}: {reason}");
        assert!(!reason.contains("verify"), "config {index}: {reason}");
    }
}

#[test]
fn check_passes_fig1() {
    let fig1 = examples::fig1();
    let system = System {
        seed: 0,
        arch: fig1.arch().clone(),
        graph: fig1.unexpanded().clone(),
        broadcast_time: fig1.broadcast_time(),
    };
    let quality = verdict(&system).expect("the paper's example passes every check");
    assert!(quality.table_entries > 0);
}

#[test]
fn every_system_the_draws_leave_out_fails_the_check() {
    let suite = paper_suite(360);
    for seed in SUITE_FAILURES {
        let config = suite
            .iter()
            .find(|c| c.seed() == seed)
            .expect("listed seeds belong to the suite");
        assert!(verdict(&System::generate(config)).is_err(), "{seed:#x}");
    }
    for seed in DEEP_NEST_FAILURES {
        let k = usize::try_from(seed >> 32).expect("node count fits") / 3;
        let config = deep_nest_config(k, seed & 0xFFFF_FFFF);
        assert_eq!(config.seed(), seed);
        assert!(verdict(&System::generate(&config)).is_err(), "{seed:#x}");
    }
}

const SMALL: Scale = Scale {
    suite_per_stratum: 1,
    nest_per_k: 2,
    sweep_probes: 6,
};

fn options(workload: Workload, seed: u64, trace: bool) -> Options {
    Options {
        workload,
        seed,
        seconds: 1e-3,
        trace,
        scale: SMALL,
    }
}

#[test]
fn same_seed_gives_identical_quality_and_failures() {
    for workload in Workload::ALL {
        let first = run(options(workload, 0x5EED, false)).expect("set-up succeeds");
        let second = run(options(workload, 0x5EED, false)).expect("set-up succeeds");
        assert!(!first.quality.is_empty());
        assert_eq!(first.quality, second.quality, "{}", workload.name());
        assert_eq!(first.failures, second.failures, "{}", workload.name());
    }
}

#[test]
fn traced_run_reports_every_layer_it_drives() {
    let report = run(options(Workload::PaperSuite, 3, true)).expect("set-up succeeds");
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    let metrics = report.per_layer();
    let value = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is reported"))
            .value
    };
    for layer in [
        "expand",
        "tracks",
        "pathsched",
        "merge",
        "verify",
        "delay",
        "dispatch",
        "sim",
    ] {
        assert!(value(&format!("{layer}.busy_ms")) > 0.0, "{layer}");
    }
    assert_eq!(value("session.merge_ms"), 0.0);
    assert!(value("sim.runs") >= 10.0);

    let sweep = run(options(Workload::WcetSweep, 3, true)).expect("set-up succeeds");
    assert!(sweep.failures.is_empty(), "{:?}", sweep.failures);
    let metrics = sweep.per_layer();
    let busy = |name: &str| metrics.iter().find(|m| m.name == name).map(|m| m.value);
    assert!(busy("session.merge_ms").is_some_and(|v| v > 0.0));
    assert_eq!(busy("sim.busy_ms"), Some(0.0));
    assert_eq!(busy("tracks.busy_ms"), Some(0.0));
}
