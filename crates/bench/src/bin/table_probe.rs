//! Prints one line per generated system with everything a merge decides, so
//! two builds can be compared with `diff`: the table's size, `δ_M`, `δ_max`,
//! the outcome, the merge counters, a hash of the step trace, the table's
//! worst-case delay and `verify` verdict, a hash of the activation time
//! and resource of every job on every track label, a hash of the
//! per-processor dispatch tables (their entries in dispatch order) and a
//! hash of every track's simulation report (activations in the
//! simulator's order, violations and delay).
//!
//! The systems are `paper_suite(n)` followed by the deep condition nests
//! (`3k` nodes, `k` paths for k ∈ {32, 48, 64}, two processors, one bus) of
//! seed index `j < min(n, 36)`.
//!
//! Usage: `table_probe [graphs_per_size]` (default 360: the 1188 systems of
//! the full suite and the 108 nests).

use std::fmt::Write as _;

use cpg_gen::{generate, paper_suite, system_fingerprint, GeneratorConfig};
use cpg_merge::{generate_schedule_table, MergeConfig};
use cpg_path_sched::JobSlots;
use cpg_sim::Simulator;
use cpg_table::per_processor_dispatch;

/// FNV-1a over the bytes of `text`, continuing from `hash`.
fn fnv(hash: u64, text: &str) -> u64 {
    text.bytes().fold(hash, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn probe(config: &GeneratorConfig) -> String {
    let system = generate(config);
    let (cpg, arch) = (system.cpg(), system.arch());
    let result = generate_schedule_table(cpg, arch, &MergeConfig::new(system.broadcast_time()));
    let (table, tracks) = (result.table(), result.tracks());

    let steps = result
        .steps()
        .iter()
        .fold(FNV_OFFSET, |h, step| fnv(h, &format!("{step:?};")));
    let verdict = match table.verify(cpg, tracks) {
        Ok(()) => "ok".to_owned(),
        Err(violations) => format!("{}-violations", violations.len()),
    };
    let slots = JobSlots::for_graph(cpg);
    let mut activations = FNV_OFFSET;
    let mut text = String::new();
    for track in tracks.iter() {
        let label = track.label();
        for job in (0..slots.len()).map(|slot| slots.job(slot)) {
            text.clear();
            let activation = table.activation(job, &label);
            let _ = write!(
                text,
                "{:?};",
                activation.map(|found| (found.time, found.resource))
            );
            activations = fnv(activations, &text);
        }
    }
    let dispatch = per_processor_dispatch(table, cpg, arch)
        .iter()
        .fold(FNV_OFFSET, |h, d| fnv(h, &format!("{d:?};")));
    let simulator = Simulator::new(cpg, arch, table, system.broadcast_time());
    let sim = simulator
        .run_all(tracks)
        .iter()
        .fold(FNV_OFFSET, |h, report| fnv(h, &format!("{report:?};")));
    format!(
        "{:#018x} entries={} columns={} delta_m={} delta_max={} outcome={:?} stats={:?} \
         steps={steps:#018x} delay={} verify={verdict} activations={activations:#018x} \
         dispatch={dispatch:#018x} sim={sim:#018x}",
        system_fingerprint(&system),
        table.num_entries(),
        table.num_columns(),
        result.delta_m(),
        result.delta_max(),
        result.outcome(),
        result.stats(),
        table.worst_case_delay(cpg, tracks),
    )
}

fn main() {
    let graphs_per_size = cpg_bench::count_arg("table_probe [graphs_per_size]", 360);
    let nests = graphs_per_size.min(36) as u64;
    let deep_nests = [32usize, 48, 64].into_iter().flat_map(|k| {
        (0..nests).map(move |j| {
            GeneratorConfig::new(3 * k, k)
                .with_processors(2)
                .with_buses(1)
                .with_seed(((3 * k as u64) << 32) | j)
        })
    });
    for config in paper_suite(graphs_per_size).into_iter().chain(deep_nests) {
        println!("{}", probe(&config));
    }
}
