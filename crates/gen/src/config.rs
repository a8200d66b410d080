//! Configuration of the random conditional-process-graph generator.

use cpg_arch::Time;

/// Distribution used to draw process execution times.
///
/// The paper's experimental evaluation assigns execution times "randomly
/// using both uniform and exponential distribution".
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ExecTimeDistribution {
    /// Uniform over `[min, max]` (inclusive).
    Uniform {
        /// Smallest execution time.
        min: u64,
        /// Largest execution time.
        max: u64,
    },
    /// Exponential with the given mean, rounded up to at least one time unit.
    Exponential {
        /// Mean execution time.
        mean: f64,
    },
}

impl Default for ExecTimeDistribution {
    fn default() -> Self {
        ExecTimeDistribution::Uniform { min: 2, max: 20 }
    }
}

/// Parameters of one randomly generated system (graph + architecture).
///
/// The defaults correspond to a mid-sized instance of the paper's experiment:
/// 80 ordinary processes, 12 alternative paths, three programmable processors
/// plus one ASIC, two buses and uniformly distributed execution times.
///
/// # Example
///
/// ```
/// use cpg_gen::{ExecTimeDistribution, GeneratorConfig};
///
/// let config = GeneratorConfig::new(60, 10)
///     .with_processors(5)
///     .with_buses(2)
///     .with_distribution(ExecTimeDistribution::Exponential { mean: 12.0 });
/// assert_eq!(config.nodes(), 60);
/// assert_eq!(config.target_paths(), 10);
/// assert_eq!(config.processors(), 5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    nodes: usize,
    target_paths: usize,
    processors: usize,
    buses: usize,
    distribution: ExecTimeDistribution,
    max_comm_time: u64,
    seed: u64,
}

impl GeneratorConfig {
    /// Creates a configuration for `nodes` ordinary processes and a target of
    /// `target_paths` alternative paths.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0` or `target_paths == 0`.
    #[must_use]
    pub fn new(nodes: usize, target_paths: usize) -> Self {
        assert!(nodes > 0, "a generated graph needs at least one process");
        assert!(
            target_paths > 0,
            "a graph has at least one alternative path"
        );
        GeneratorConfig {
            nodes,
            target_paths,
            processors: 3,
            buses: 2,
            distribution: ExecTimeDistribution::default(),
            max_comm_time: 5,
            seed: 0,
        }
    }

    /// Number of ordinary processes (before communication expansion).
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Desired number of alternative paths through the graph.
    #[must_use]
    pub fn target_paths(&self) -> usize {
        self.target_paths
    }

    /// Number of programmable processors of the target architecture.
    #[must_use]
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// Number of shared buses of the target architecture.
    #[must_use]
    pub fn buses(&self) -> usize {
        self.buses
    }

    /// Distribution of process execution times.
    #[must_use]
    pub fn distribution(&self) -> ExecTimeDistribution {
        self.distribution
    }

    /// Largest communication time drawn for inter-processor edges.
    #[must_use]
    pub fn max_comm_time(&self) -> u64 {
        self.max_comm_time
    }

    /// Condition broadcast time `τ0`, one time unit for every generated
    /// system (at most the smallest communication time, as assumed by the
    /// paper).
    #[must_use]
    pub fn broadcast_time(&self) -> Time {
        Time::new(1)
    }

    /// Seed of the pseudo-random generator (same seed, same system).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sets the number of programmable processors (the architecture always
    /// additionally contains one ASIC).
    #[must_use]
    pub fn with_processors(mut self, processors: usize) -> Self {
        self.processors = processors.max(1);
        self
    }

    /// Sets the number of shared buses.
    #[must_use]
    pub fn with_buses(mut self, buses: usize) -> Self {
        self.buses = buses.max(1);
        self
    }

    /// Sets the execution-time distribution.
    #[must_use]
    pub fn with_distribution(mut self, distribution: ExecTimeDistribution) -> Self {
        self.distribution = distribution;
        self
    }

    /// Sets the largest communication time drawn for inter-processor edges.
    #[must_use]
    pub fn with_max_comm_time(mut self, max_comm_time: u64) -> Self {
        self.max_comm_time = max_comm_time.max(1);
        self
    }

    /// Sets the random seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig::new(80, 12)
    }
}

/// The experiment suite of the paper's Section 6: graphs of 60, 80 and 120
/// nodes with 10, 12, 18, 24 or 32 alternative paths, uniform and exponential
/// execution times, and architectures of one ASIC, one to eleven processors
/// and one to eight buses.
///
/// `graphs_per_size` controls how many graphs are generated per node count
/// (the paper uses 360, i.e. 1080 graphs in total); the graphs cycle through
/// the path counts, the two distributions and a spread of architectures.
#[must_use]
pub fn paper_suite(graphs_per_size: usize) -> Vec<GeneratorConfig> {
    let sizes = [60usize, 80, 120];
    let paths = [10usize, 12, 18, 24, 32];
    let mut configs = Vec::with_capacity(sizes.len() * graphs_per_size);
    for &size in &sizes {
        for i in 0..graphs_per_size {
            let target_paths = paths[i % paths.len()];
            let distribution = if (i / paths.len()) % 2 == 0 {
                ExecTimeDistribution::Uniform { min: 2, max: 20 }
            } else {
                ExecTimeDistribution::Exponential { mean: 10.0 }
            };
            let processors = 1 + (i % 11);
            let buses = 1 + (i % 8);
            configs.push(
                GeneratorConfig::new(size, target_paths)
                    .with_processors(processors)
                    .with_buses(buses)
                    .with_distribution(distribution)
                    .with_seed((size as u64) << 32 | i as u64),
            );
        }
    }
    configs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_reasonable() {
        let config = GeneratorConfig::default();
        assert_eq!(config.nodes(), 80);
        assert_eq!(config.target_paths(), 12);
        assert!(config.processors() >= 1);
        assert!(config.buses() >= 1);
        assert_eq!(config.broadcast_time(), Time::new(1));
    }

    #[test]
    fn builder_methods_clamp_to_valid_values() {
        let config = GeneratorConfig::new(10, 2)
            .with_processors(0)
            .with_buses(0)
            .with_max_comm_time(0);
        assert_eq!(config.processors(), 1);
        assert_eq!(config.buses(), 1);
        assert_eq!(config.max_comm_time(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_nodes_is_rejected() {
        let _ = GeneratorConfig::new(0, 1);
    }

    #[test]
    fn paper_suite_covers_sizes_paths_and_distributions() {
        let suite = paper_suite(20);
        assert_eq!(suite.len(), 60);
        for size in [60, 80, 120] {
            assert_eq!(suite.iter().filter(|c| c.nodes() == size).count(), 20);
        }
        for paths in [10, 12, 18, 24, 32] {
            assert!(suite.iter().any(|c| c.target_paths() == paths));
        }
        assert!(suite
            .iter()
            .any(|c| matches!(c.distribution(), ExecTimeDistribution::Exponential { .. })));
        assert!(suite
            .iter()
            .any(|c| matches!(c.distribution(), ExecTimeDistribution::Uniform { .. })));
        // Seeds are distinct, so graphs differ.
        let seeds: std::collections::HashSet<_> = suite.iter().map(|c| c.seed()).collect();
        assert_eq!(seeds.len(), suite.len());
    }
}
