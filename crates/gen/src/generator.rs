//! Random generation of conditional process graphs and target architectures.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cpg::{enumerate_tracks, expand_communications, BusPolicy, Cpg, CpgBuilder, Cube, ProcessId};
use cpg_arch::{Architecture, PeId, Time};

use crate::config::{ExecTimeDistribution, GeneratorConfig};

/// A randomly generated system: target architecture plus conditional process
/// graph (with communication processes already inserted).
///
/// # Example
///
/// ```
/// use cpg::enumerate_tracks;
/// use cpg_gen::{generate, GeneratorConfig};
///
/// let system = generate(&GeneratorConfig::new(40, 10).with_seed(7));
/// assert_eq!(system.cpg().ordinary_processes().count(), 40);
/// assert_eq!(enumerate_tracks(system.cpg()).len(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct GeneratedSystem {
    arch: Architecture,
    cpg: Cpg,
    config: GeneratorConfig,
}

impl GeneratedSystem {
    /// Assembles a system from already-generated (and possibly mutated)
    /// parts. Used by the mutation operators in [`crate::mutate`].
    pub(crate) fn from_parts(arch: Architecture, cpg: Cpg, config: GeneratorConfig) -> Self {
        GeneratedSystem { arch, cpg, config }
    }

    /// The target architecture (1–11 programmable processors, one ASIC and
    /// 1–8 buses, following the paper's experimental setup).
    #[must_use]
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }

    /// The generated conditional process graph, including communication
    /// processes.
    #[must_use]
    pub fn cpg(&self) -> &Cpg {
        &self.cpg
    }

    /// The configuration this system was generated from.
    #[must_use]
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// The condition broadcast time `τ0` to use when scheduling this system.
    #[must_use]
    pub fn broadcast_time(&self) -> Time {
        self.config.broadcast_time()
    }
}

/// Builds the target architecture used by the experiments: `processors`
/// programmable processors, one ASIC and `buses` shared buses.
#[must_use]
pub fn architecture(processors: usize, buses: usize) -> Architecture {
    let mut builder = Architecture::builder();
    for i in 0..processors.max(1) {
        builder = builder.processor(format!("cpu{i}"));
    }
    builder = builder.hardware("asic");
    for i in 0..buses.max(1) {
        builder = builder.bus(format!("bus{i}"));
    }
    builder
        .build()
        .expect("generated architectures are always valid")
}

/// Generates a random system according to `config`.
///
/// The generated graph has exactly `config.nodes()` ordinary processes and
/// exactly `config.target_paths()` alternative paths; processes are mapped
/// uniformly at random over the processors and the ASIC and execution times
/// follow the configured distribution.
///
/// # Panics
///
/// Panics if the target number of alternative paths cannot be realised within
/// the node budget (the conditional skeleton needs roughly `3·k` processes for
/// `k` paths when the path count is prime; every combination used by the
/// paper's experiments fits comfortably).
#[must_use]
pub fn generate(config: &GeneratorConfig) -> GeneratedSystem {
    let (arch, cpg) = generate_unexpanded(config);
    let cpg = expand_communications(&cpg, &arch, BusPolicy::RoundRobin)
        .expect("generated graphs expand cleanly");
    debug_assert_eq!(enumerate_tracks(&cpg).len(), config.target_paths());

    GeneratedSystem {
        arch,
        cpg,
        config: config.clone(),
    }
}

/// Generates the random system of [`generate`] but stops *before*
/// communication expansion, returning the architecture and the unexpanded
/// graph (ordinary processes and dummies only).
///
/// This is the substrate the mutation operators
/// ([`WorkloadOp`](crate::WorkloadOp)) replay through a fresh
/// [`CpgBuilder`]: user processes keep their creation-order ids and the
/// builder re-appends the dummy source/sink after them, so edits
/// expressed against the unexpanded graph are stable across
/// re-materializations of the same workload.
///
/// # Panics
///
/// Panics under the same node-budget condition as [`generate`].
#[must_use]
pub fn generate_unexpanded(config: &GeneratorConfig) -> (Architecture, Cpg) {
    let mut rng = StdRng::seed_from_u64(config.seed());
    let arch = architecture(config.processors(), config.buses());
    let computation: Vec<PeId> = arch.computation_elements().collect();

    let stages = factorize_into_stages(config.target_paths(), config.nodes(), &mut rng);
    let skeleton_cost: usize = stages.iter().map(|&k| stage_cost(k)).sum();
    assert!(
        skeleton_cost <= config.nodes(),
        "cannot realise {} alternative paths with only {} processes",
        config.target_paths(),
        config.nodes()
    );

    let mut gen = Generator {
        builder: CpgBuilder::new(),
        rng,
        config,
        computation,
        created: Vec::new(),
        conditions: 0,
    };

    // Conditional skeleton: a sequence of stages, each contributing a factor
    // of the total number of alternative paths.
    let mut previous_exit: Option<ProcessId> = None;
    for &paths in &stages {
        let (entry, exit) = gen.stage(paths, Cube::top());
        if let Some(prev) = previous_exit {
            gen.data_edge(prev, entry);
        }
        previous_exit = Some(exit);
    }

    // Filler processes: independent computation and communication load
    // attached below random existing processes.
    while gen.created.len() < config.nodes() {
        let parent = gen.created[gen.rng.random_range(0..gen.created.len())];
        let cube = parent.1;
        let filler = gen.new_process(cube);
        gen.data_edge(parent.0, filler.0);
    }

    let Generator { builder, .. } = gen;
    let cpg = builder
        .build(&arch)
        .expect("generated graphs are structurally valid");
    (arch, cpg)
}

/// Number of skeleton processes needed by a stage with `k` alternative paths:
/// one disjunction and one conjunction process per internal split plus one
/// leaf process per path (`3k − 2` in total).
fn stage_cost(k: usize) -> usize {
    if k <= 1 {
        1
    } else {
        3 * k - 2
    }
}

/// Splits the target path count into a sequence of stage factors whose
/// skeleton fits into the node budget. Prefers the prime factorisation (the
/// cheapest realisation) and then randomly re-merges factors while the budget
/// allows, so that different seeds produce differently shaped graphs.
fn factorize_into_stages(target: usize, budget: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut factors = prime_factors(target);
    // Randomly merge adjacent factors while the skeleton still fits.
    loop {
        if factors.len() < 2 {
            break;
        }
        let current: usize = factors.iter().map(|&k| stage_cost(k)).sum();
        let i = rng.random_range(0..factors.len() - 1);
        let merged = factors[i] * factors[i + 1];
        let new_cost =
            current - stage_cost(factors[i]) - stage_cost(factors[i + 1]) + stage_cost(merged);
        if new_cost <= budget && rng.random_bool(0.4) {
            factors[i] = merged;
            factors.remove(i + 1);
        } else {
            break;
        }
    }
    factors
}

fn prime_factors(mut n: usize) -> Vec<usize> {
    let mut factors = Vec::new();
    let mut d = 2;
    while n > 1 {
        while n % d == 0 {
            factors.push(d);
            n /= d;
        }
        d += 1;
        if d * d > n && n > 1 {
            factors.push(n);
            break;
        }
    }
    if factors.is_empty() {
        factors.push(1);
    }
    factors
}

struct Generator<'a> {
    builder: CpgBuilder,
    rng: StdRng,
    config: &'a GeneratorConfig,
    computation: Vec<PeId>,
    /// Every created process with the branch context (cube) it lives under.
    created: Vec<(ProcessId, Cube)>,
    conditions: usize,
}

impl Generator<'_> {
    /// Creates one ordinary process with a random execution time and mapping.
    fn new_process(&mut self, cube: Cube) -> (ProcessId, Cube) {
        let name = format!("N{}", self.created.len());
        let exec = self.exec_time();
        let pe = self.computation[self.rng.random_range(0..self.computation.len())];
        let id = self.builder.process(name, exec, pe);
        self.created.push((id, cube));
        (id, cube)
    }

    fn exec_time(&mut self) -> Time {
        let units = match self.config.distribution() {
            ExecTimeDistribution::Uniform { min, max } => self.rng.random_range(min..=max.max(min)),
            ExecTimeDistribution::Exponential { mean } => {
                let u: f64 = self.rng.random();
                let sample = -mean * (1.0 - u).ln();
                sample.ceil().max(1.0) as u64
            }
        };
        Time::new(units.max(1))
    }

    fn comm_time(&mut self) -> Time {
        Time::new(self.rng.random_range(1..=self.config.max_comm_time()))
    }

    /// Adds a simple data-flow edge with a random communication time.
    fn data_edge(&mut self, from: ProcessId, to: ProcessId) {
        let comm = self.comm_time();
        self.builder.simple_edge(from, to, comm);
    }

    /// Builds a stage with exactly `paths` alternative paths under the branch
    /// context `cube`, returning its entry and exit processes.
    fn stage(&mut self, paths: usize, cube: Cube) -> (ProcessId, ProcessId) {
        if paths <= 1 {
            let (id, _) = self.new_process(cube);
            return (id, id);
        }
        // Split the path count between a true branch and a false branch.
        let true_paths = self.rng.random_range(1..paths);
        let false_paths = paths - true_paths;

        let (disjunction, _) = self.new_process(cube);
        let cond = self.builder.condition(format!("c{}", self.conditions));
        self.conditions += 1;

        let true_cube = cube
            .and(cond.is_true())
            .expect("branch contexts never repeat a condition");
        let false_cube = cube
            .and(cond.is_false())
            .expect("branch contexts never repeat a condition");

        let (true_entry, true_exit) = self.stage(true_paths, true_cube);
        let (false_entry, false_exit) = self.stage(false_paths, false_cube);
        let comm_true = self.comm_time();
        let comm_false = self.comm_time();
        self.builder
            .conditional_edge(disjunction, true_entry, cond.is_true(), comm_true);
        self.builder
            .conditional_edge(disjunction, false_entry, cond.is_false(), comm_false);

        let (join, _) = self.new_process(cube);
        self.builder.mark_conjunction(join);
        self.data_edge(true_exit, join);
        self.data_edge(false_exit, join);
        (disjunction, join)
    }
}

/// Convenience: generates the full experiment suite of the paper (wrapper
/// around [`crate::paper_suite`] and [`generate`]).
#[must_use]
pub fn generate_paper_suite(graphs_per_size: usize) -> Vec<GeneratedSystem> {
    crate::paper_suite(graphs_per_size)
        .iter()
        .map(generate)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpg::ProcessKind;

    #[test]
    fn prime_factorisation_is_correct() {
        assert_eq!(prime_factors(10), vec![2, 5]);
        assert_eq!(prime_factors(12), vec![2, 2, 3]);
        assert_eq!(prime_factors(18), vec![2, 3, 3]);
        assert_eq!(prime_factors(24), vec![2, 2, 2, 3]);
        assert_eq!(prime_factors(32), vec![2, 2, 2, 2, 2]);
        assert_eq!(prime_factors(7), vec![7]);
        assert_eq!(prime_factors(1), vec![1]);
    }

    #[test]
    fn stage_cost_matches_the_split_tree_size() {
        assert_eq!(stage_cost(1), 1);
        assert_eq!(stage_cost(2), 4);
        assert_eq!(stage_cost(5), 13);
        assert_eq!(stage_cost(32), 94);
    }

    #[test]
    fn generated_graph_has_exact_node_and_path_counts() {
        for (nodes, paths) in [(40, 10), (60, 12), (60, 32), (80, 18), (120, 24)] {
            let config = GeneratorConfig::new(nodes, paths).with_seed(42);
            let system = generate(&config);
            assert_eq!(
                system.cpg().ordinary_processes().count(),
                nodes,
                "{nodes}/{paths}"
            );
            assert_eq!(
                enumerate_tracks(system.cpg()).len(),
                paths,
                "{nodes}/{paths}"
            );
        }
    }

    #[test]
    fn different_seeds_give_different_graphs() {
        let a = generate(&GeneratorConfig::new(60, 12).with_seed(1));
        let b = generate(&GeneratorConfig::new(60, 12).with_seed(2));
        let times_a: Vec<_> = a
            .cpg()
            .ordinary_processes()
            .map(|p| a.cpg().exec_time(p))
            .collect();
        let times_b: Vec<_> = b
            .cpg()
            .ordinary_processes()
            .map(|p| b.cpg().exec_time(p))
            .collect();
        assert_ne!(times_a, times_b);
    }

    #[test]
    fn same_seed_is_reproducible() {
        let a = generate(&GeneratorConfig::new(60, 12).with_seed(9));
        let b = generate(&GeneratorConfig::new(60, 12).with_seed(9));
        assert_eq!(a.cpg().len(), b.cpg().len());
        for (pa, pb) in a.cpg().process_ids().zip(b.cpg().process_ids()) {
            assert_eq!(a.cpg().exec_time(pa), b.cpg().exec_time(pb));
            assert_eq!(a.cpg().mapping(pa), b.cpg().mapping(pb));
        }
    }

    #[test]
    fn architecture_matches_the_requested_size() {
        let arch = architecture(7, 3);
        assert_eq!(arch.processors().count(), 7);
        assert_eq!(arch.hardware().count(), 1);
        assert_eq!(arch.buses().count(), 3);
    }

    #[test]
    fn exponential_times_are_positive() {
        let config = GeneratorConfig::new(50, 10)
            .with_distribution(ExecTimeDistribution::Exponential { mean: 8.0 })
            .with_seed(3);
        let system = generate(&config);
        for p in system.cpg().ordinary_processes() {
            assert!(system.cpg().exec_time(p) >= Time::new(1));
        }
    }

    #[test]
    fn expansion_inserts_communication_processes() {
        let system = generate(&GeneratorConfig::new(60, 10).with_processors(4).with_seed(5));
        assert!(system.cpg().communication_processes().count() > 0);
        for comm in system.cpg().communication_processes() {
            let pe = system.cpg().mapping(comm).unwrap();
            assert!(system.arch().kind_of(pe).is_bus());
            assert_eq!(
                system.cpg().process(comm).kind(),
                ProcessKind::Communication
            );
        }
    }

    #[test]
    fn paper_suite_systems_generate_and_have_requested_paths() {
        // One graph per size keeps the test fast; the benchmark harness runs
        // the full 360-per-size suite.
        for system in generate_paper_suite(2) {
            let paths = enumerate_tracks(system.cpg()).len();
            assert_eq!(paths, system.config().target_paths());
        }
    }

    #[test]
    #[should_panic(expected = "cannot realise")]
    fn impossible_budget_is_rejected() {
        let config = GeneratorConfig::new(5, 32).with_seed(1);
        let _ = generate(&config);
    }
}
