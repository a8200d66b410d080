//! Deterministic mutation operators over generated workloads.
//!
//! The adversarial fuzzer (crate `cpg-fuzz`) explores the merger's behavior
//! space by perturbing *real* workloads instead of sampling fresh random
//! systems: a [`Workload`] is a [`GeneratorConfig`] plus an ordered list of
//! [`WorkloadOp`] mutations and [`EditOp`] session edits.
//! [`Workload::materialize`] replays the unexpanded base graph of
//! [`generate_unexpanded`] through a fresh
//! builder with the mutations applied, so the same workload value always
//! produces bit-identical systems — the offender corpus stores workloads,
//! never graphs.
//!
//! Every operator is total over its `u64` payloads: slots are resolved
//! modulo the relevant entity count, so any byte soup decodes into an
//! applicable operation. Mutations that produce structurally invalid graphs
//! (cycles, broken branch polarities, missing buses) surface as a benign
//! [`MaterializeError`] rather than a panic; the deliberately *unvalidated*
//! corner is [`WorkloadOp::DropProcessingElements`], which swaps in a
//! truncated architecture after expansion and thereby exercises the typed
//! [`validate_system`](../../cpg_merge/fn.validate_system.html) rejection
//! path of the merger.

use std::fmt;
use std::hash::Hasher;

use cpg::{
    expand_communications, BuildCpgError, BusPolicy, CondId, CpgBuilder, Cube, EditError,
    ExpandError, ProcessId, ProcessKind, SystemEdit,
};
use cpg_arch::{Architecture, BuildArchitectureError, PeId, PeKind, Time};

use crate::config::GeneratorConfig;
use crate::generator::{architecture, generate_unexpanded, GeneratedSystem};

/// One mutation applied while re-materializing a workload.
///
/// Slot payloads are resolved modulo the count of the entity they index
/// (ordinary processes in id order, computation elements in architecture
/// order, declared conditions in id order), so every operation applies to
/// every workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadOp {
    /// Set the execution time of the `slot`-th ordinary process to
    /// `units` time units (clamped to at least 1).
    ExecTime {
        /// Ordinary-process slot (modulo the process count).
        slot: u64,
        /// New worst-case execution time in units.
        units: u64,
    },
    /// Remap the `slot`-th ordinary process onto the `pe_slot`-th
    /// computation element of the (possibly squeezed) architecture.
    Remap {
        /// Ordinary-process slot (modulo the process count).
        slot: u64,
        /// Computation-element slot (modulo the element count).
        pe_slot: u64,
    },
    /// Shrink the architecture to at most `processors` programmable
    /// processors (never below 1); processes mapped to dropped processors
    /// fold back onto the survivors.
    SqueezeProcessors {
        /// New processor-count ceiling.
        processors: u64,
    },
    /// Shrink the architecture to at most `buses` shared buses (never below
    /// 1), squeezing communication bandwidth.
    SqueezeBuses {
        /// New bus-count ceiling.
        buses: u64,
    },
    /// After expansion, swap in an architecture truncated to the first
    /// `keep` processing elements *without* remapping anything — the
    /// invalid-input corner that must be rejected with a typed error, not a
    /// panic.
    DropProcessingElements {
        /// Number of leading elements to keep (modulo the element count,
        /// never below 1).
        keep: u64,
    },
    /// Add a simple data dependency between two distinct processes, oriented
    /// along the base graph's topological order so the edge alone never
    /// introduces a cycle.
    AddDependency {
        /// First endpoint slot (modulo the process count).
        from_slot: u64,
        /// Second endpoint slot (modulo the process count).
        to_slot: u64,
        /// Communication-time payload (mapped into `1..=max_comm_time`).
        comm: u64,
    },
    /// Remove the `slot`-th removable (simple, non-conditional) dependency
    /// edge.
    RemoveDependency {
        /// Removable-edge slot (modulo the removable-edge count).
        slot: u64,
    },
    /// Conjoin one more condition literal onto the guard of the `slot`-th
    /// ordinary process after expansion, re-nesting it one branch deeper
    /// (possibly to an unsatisfiable guard).
    RenestGuard {
        /// Ordinary-process slot (modulo the process count).
        slot: u64,
        /// Condition slot (modulo the declared-condition count).
        cond_slot: u64,
        /// Polarity of the conjoined literal.
        value: bool,
    },
}

/// One [`SystemEdit`] to feed a [`MergeSession`](../../cpg_merge/struct.MergeSession.html),
/// expressed in the same slot form as [`WorkloadOp`] so edit sequences shrink
/// and replay alongside the graph mutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditOp {
    /// Re-estimate the execution time of the `slot`-th ordinary process.
    ExecTime {
        /// Ordinary-process slot (modulo the process count).
        slot: u64,
        /// New worst-case execution time in units (clamped to at least 1).
        units: u64,
    },
    /// Move the `slot`-th ordinary process to another computation element.
    Remap {
        /// Ordinary-process slot (modulo the process count).
        slot: u64,
        /// Computation-element slot (modulo the element count).
        pe_slot: u64,
    },
    /// Tighten the guard of the `slot`-th ordinary process by one literal.
    TightenGuard {
        /// Ordinary-process slot (modulo the process count).
        slot: u64,
        /// Condition slot (modulo the declared-condition count).
        cond_slot: u64,
        /// Polarity of the conjoined literal.
        value: bool,
    },
}

/// Why a workload failed to materialize.
///
/// All variants are *benign* from the fuzzer's point of view: the mutation
/// produced a system the public constructors are documented to reject, so
/// the workload is discarded rather than reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaterializeError {
    /// The mutated graph violates a structural rule of the paper.
    Build(BuildCpgError),
    /// Communication expansion failed (e.g. no usable bus after a squeeze).
    Expand(ExpandError),
    /// The truncated architecture cannot be built.
    Arch(BuildArchitectureError),
    /// A post-expansion guard edit was rejected.
    Edit(EditError),
}

impl fmt::Display for MaterializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaterializeError::Build(err) => write!(f, "mutated graph is invalid: {err}"),
            MaterializeError::Expand(err) => write!(f, "mutated graph does not expand: {err}"),
            MaterializeError::Arch(err) => write!(f, "truncated architecture is invalid: {err}"),
            MaterializeError::Edit(err) => write!(f, "guard re-nesting rejected: {err}"),
        }
    }
}

impl std::error::Error for MaterializeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MaterializeError::Build(err) => Some(err),
            MaterializeError::Expand(err) => Some(err),
            MaterializeError::Arch(err) => Some(err),
            MaterializeError::Edit(err) => Some(err),
        }
    }
}

/// A reproducible adversarial workload: a generator configuration plus the
/// mutation and edit sequences to apply on top of it.
///
/// # Example
///
/// ```
/// use cpg_gen::{GeneratorConfig, Workload, WorkloadOp};
///
/// let mut workload = Workload::new(GeneratorConfig::new(20, 4).with_seed(7));
/// workload.ops.push(WorkloadOp::SqueezeProcessors { processors: 2 });
/// let a = workload.materialize().unwrap();
/// let b = workload.materialize().unwrap();
/// assert_eq!(
///     cpg_gen::system_fingerprint(&a),
///     cpg_gen::system_fingerprint(&b),
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// The base system configuration (seed included).
    pub config: GeneratorConfig,
    /// Graph/architecture mutations, applied in order during materialization.
    pub ops: Vec<WorkloadOp>,
    /// Session edits to apply through a `MergeSession` after the initial
    /// merge, resolved against the materialized system by
    /// [`session_edits`](Workload::session_edits).
    pub edits: Vec<EditOp>,
}

impl Workload {
    /// An unmutated workload over `config`.
    #[must_use]
    pub fn new(config: GeneratorConfig) -> Self {
        Workload {
            config,
            ops: Vec::new(),
            edits: Vec::new(),
        }
    }

    /// Materializes the workload into a concrete system.
    ///
    /// The base graph is regenerated unexpanded from the configuration seed
    /// and replayed through a fresh builder with all mutations applied; two
    /// calls on the same workload always return bit-identical systems.
    ///
    /// # Errors
    ///
    /// Returns a [`MaterializeError`] when a mutation produces a system that
    /// the graph/architecture constructors reject; see the error type.
    ///
    /// # Panics
    ///
    /// Panics under the same node-budget condition as [`crate::generate`].
    pub fn materialize(&self) -> Result<GeneratedSystem, MaterializeError> {
        let (base_arch, base) = generate_unexpanded(&self.config);

        // Resolve the architecture squeezes first: mappings are folded onto
        // the squeezed computation elements during replay.
        let mut processors = self.config.processors().max(1);
        let mut buses = self.config.buses().max(1);
        for op in &self.ops {
            match *op {
                WorkloadOp::SqueezeProcessors {
                    processors: ceiling,
                } => {
                    processors = (ceiling as usize).clamp(1, processors);
                }
                WorkloadOp::SqueezeBuses { buses: ceiling } => {
                    buses = (ceiling as usize).clamp(1, buses);
                }
                _ => {}
            }
        }
        let arch = architecture(processors, buses);
        let base_computation: Vec<PeId> = base_arch.computation_elements().collect();
        let computation: Vec<PeId> = arch.computation_elements().collect();

        // Per-process overrides (last op wins).
        let users: Vec<ProcessId> = base
            .processes()
            .filter(|(_, process)| !process.kind().is_dummy())
            .map(|(id, _)| id)
            .collect();
        let slots = users.len() as u64;
        let mut exec_override: Vec<Option<Time>> = vec![None; users.len()];
        let mut map_override: Vec<Option<PeId>> = vec![None; users.len()];
        for op in &self.ops {
            match *op {
                WorkloadOp::ExecTime { slot, units } => {
                    exec_override[(slot % slots) as usize] = Some(Time::new(units.max(1)));
                }
                WorkloadOp::Remap { slot, pe_slot } => {
                    map_override[(slot % slots) as usize] =
                        Some(computation[(pe_slot as usize) % computation.len()]);
                }
                _ => {}
            }
        }

        // Dependency edits over the user-to-user edges; edges to the dummy
        // source/sink are re-derived by the builder.
        let mut kept: Vec<(ProcessId, ProcessId, Option<cpg::Literal>, Time)> = base
            .edges()
            .iter()
            .filter(|edge| {
                !base.process(edge.from()).kind().is_dummy()
                    && !base.process(edge.to()).kind().is_dummy()
            })
            .map(|edge| (edge.from(), edge.to(), edge.condition(), edge.comm_time()))
            .collect();
        let mut position = vec![0usize; base.len()];
        for (pos, &id) in base.topological_order().iter().enumerate() {
            position[id.index()] = pos;
        }
        for op in &self.ops {
            match *op {
                WorkloadOp::RemoveDependency { slot } => {
                    let removable: Vec<usize> = kept
                        .iter()
                        .enumerate()
                        .filter(|(_, edge)| edge.2.is_none())
                        .map(|(i, _)| i)
                        .collect();
                    if let Some(&index) = removable.get((slot as usize) % removable.len().max(1)) {
                        kept.remove(index);
                    }
                }
                WorkloadOp::AddDependency {
                    from_slot,
                    to_slot,
                    comm,
                } => {
                    let a = users[(from_slot % slots) as usize];
                    let b = users[(to_slot % slots) as usize];
                    if a == b {
                        continue;
                    }
                    let (from, to) = if position[a.index()] < position[b.index()] {
                        (a, b)
                    } else {
                        (b, a)
                    };
                    let comm = Time::new(1 + comm % self.config.max_comm_time().max(1));
                    kept.push((from, to, None, comm));
                }
                _ => {}
            }
        }

        // Builder replay: user processes keep their creation-order ids, the
        // builder re-appends the dummy source/sink after them.
        let mut builder = CpgBuilder::new();
        for cond in base.conditions() {
            builder.condition(base.condition_name(cond).to_owned());
        }
        for (index, &id) in users.iter().enumerate() {
            let process = base.process(id);
            let exec = exec_override[index].unwrap_or_else(|| base.exec_time(id));
            let mapping = map_override[index].unwrap_or_else(|| {
                let pos = base_computation
                    .iter()
                    .position(|&pe| base.mapping(id) == Some(pe))
                    .expect("unexpanded processes are mapped onto computation elements");
                computation[pos % computation.len()]
            });
            let replayed = builder.process(process.name().to_owned(), exec, mapping);
            debug_assert_eq!(replayed, id);
            if process.is_conjunction() {
                builder.mark_conjunction(replayed);
            }
        }
        for (from, to, condition, comm) in kept {
            match condition {
                Some(literal) => builder.conditional_edge(from, to, literal, comm),
                None => builder.simple_edge(from, to, comm),
            }
        }
        let cpg = builder.build(&arch).map_err(MaterializeError::Build)?;
        let mut cpg = expand_communications(&cpg, &arch, BusPolicy::RoundRobin)
            .map_err(MaterializeError::Expand)?;

        // Post-expansion mutations.
        let ordinary: Vec<ProcessId> = cpg.ordinary_processes().collect();
        let mut arch = arch;
        for op in &self.ops {
            match *op {
                WorkloadOp::RenestGuard {
                    slot,
                    cond_slot,
                    value,
                } => {
                    if cpg.num_conditions() == 0 {
                        continue;
                    }
                    let process = ordinary[(slot as usize) % ordinary.len()];
                    let cond = CondId::new((cond_slot as usize) % cpg.num_conditions());
                    let guard = cpg
                        .guard(process)
                        .and_cube(&Cube::from(cond.literal(value)));
                    cpg.set_guard(process, guard)
                        .map_err(MaterializeError::Edit)?;
                }
                WorkloadOp::DropProcessingElements { keep } => {
                    let keep = ((keep as usize) % arch.len()).max(1);
                    if keep == arch.len() {
                        continue;
                    }
                    let mut truncated = Architecture::builder();
                    for id in arch.ids().take(keep) {
                        let name = arch.pe(id).name().to_owned();
                        truncated = match arch.kind_of(id) {
                            PeKind::Programmable => truncated.processor(name),
                            PeKind::Hardware => truncated.hardware(name),
                            PeKind::Bus => truncated.bus(name),
                        };
                    }
                    arch = truncated.build().map_err(MaterializeError::Arch)?;
                }
                _ => {}
            }
        }

        Ok(GeneratedSystem::from_parts(arch, cpg, self.config.clone()))
    }

    /// Resolves the edit sequence against a materialized system.
    ///
    /// Edits whose entity class is empty on this system (no conditions
    /// declared, say) resolve to nothing and are skipped.
    #[must_use]
    pub fn session_edits(&self, system: &GeneratedSystem) -> Vec<SystemEdit> {
        let cpg = system.cpg();
        let ordinary: Vec<ProcessId> = cpg.ordinary_processes().collect();
        let computation: Vec<PeId> = system.arch().computation_elements().collect();
        let mut edits = Vec::new();
        for edit in &self.edits {
            match *edit {
                EditOp::ExecTime { slot, units } => {
                    if ordinary.is_empty() {
                        continue;
                    }
                    edits.push(SystemEdit::ExecTime {
                        process: ordinary[(slot as usize) % ordinary.len()],
                        time: Time::new(units.max(1)),
                    });
                }
                EditOp::Remap { slot, pe_slot } => {
                    if ordinary.is_empty() || computation.is_empty() {
                        continue;
                    }
                    edits.push(SystemEdit::Mapping {
                        process: ordinary[(slot as usize) % ordinary.len()],
                        pe: computation[(pe_slot as usize) % computation.len()],
                    });
                }
                EditOp::TightenGuard {
                    slot,
                    cond_slot,
                    value,
                } => {
                    if ordinary.is_empty() || cpg.num_conditions() == 0 {
                        continue;
                    }
                    let process = ordinary[(slot as usize) % ordinary.len()];
                    let cond = CondId::new((cond_slot as usize) % cpg.num_conditions());
                    edits.push(SystemEdit::Guard {
                        process,
                        guard: cpg
                            .guard(process)
                            .and_cube(&Cube::from(cond.literal(value))),
                    });
                }
            }
        }
        edits
    }

    /// Encodes the mutation sequence as space-separated tokens.
    #[must_use]
    pub fn encode_ops(&self) -> String {
        join_tokens(self.ops.iter().map(ToString::to_string))
    }

    /// Encodes the edit sequence as space-separated tokens.
    #[must_use]
    pub fn encode_edits(&self) -> String {
        join_tokens(self.edits.iter().map(ToString::to_string))
    }

    /// Decodes a mutation sequence produced by
    /// [`encode_ops`](Workload::encode_ops). Returns `None` on the first
    /// malformed token.
    #[must_use]
    pub fn parse_ops(text: &str) -> Option<Vec<WorkloadOp>> {
        text.split_whitespace().map(WorkloadOp::parse).collect()
    }

    /// Decodes an edit sequence produced by
    /// [`encode_edits`](Workload::encode_edits). Returns `None` on the first
    /// malformed token.
    #[must_use]
    pub fn parse_edits(text: &str) -> Option<Vec<EditOp>> {
        text.split_whitespace().map(EditOp::parse).collect()
    }
}

fn join_tokens(tokens: impl Iterator<Item = String>) -> String {
    tokens.collect::<Vec<_>>().join(" ")
}

impl fmt::Display for WorkloadOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WorkloadOp::ExecTime { slot, units } => write!(f, "exec:{slot}:{units}"),
            WorkloadOp::Remap { slot, pe_slot } => write!(f, "remap:{slot}:{pe_slot}"),
            WorkloadOp::SqueezeProcessors { processors } => write!(f, "procs:{processors}"),
            WorkloadOp::SqueezeBuses { buses } => write!(f, "buses:{buses}"),
            WorkloadOp::DropProcessingElements { keep } => write!(f, "drop:{keep}"),
            WorkloadOp::AddDependency {
                from_slot,
                to_slot,
                comm,
            } => write!(f, "adddep:{from_slot}:{to_slot}:{comm}"),
            WorkloadOp::RemoveDependency { slot } => write!(f, "rmdep:{slot}"),
            WorkloadOp::RenestGuard {
                slot,
                cond_slot,
                value,
            } => write!(f, "guard:{slot}:{cond_slot}:{}", u8::from(value)),
        }
    }
}

impl WorkloadOp {
    /// Parses one token of the [`fmt::Display`] encoding.
    #[must_use]
    pub fn parse(token: &str) -> Option<Self> {
        let mut parts = token.split(':');
        let kind = parts.next()?;
        let mut next = || parts.next()?.parse::<u64>().ok();
        let op = match kind {
            "exec" => WorkloadOp::ExecTime {
                slot: next()?,
                units: next()?,
            },
            "remap" => WorkloadOp::Remap {
                slot: next()?,
                pe_slot: next()?,
            },
            "procs" => WorkloadOp::SqueezeProcessors {
                processors: next()?,
            },
            "buses" => WorkloadOp::SqueezeBuses { buses: next()? },
            "drop" => WorkloadOp::DropProcessingElements { keep: next()? },
            "adddep" => WorkloadOp::AddDependency {
                from_slot: next()?,
                to_slot: next()?,
                comm: next()?,
            },
            "rmdep" => WorkloadOp::RemoveDependency { slot: next()? },
            "guard" => WorkloadOp::RenestGuard {
                slot: next()?,
                cond_slot: next()?,
                value: next()? != 0,
            },
            _ => return None,
        };
        parts.next().is_none().then_some(op)
    }
}

impl fmt::Display for EditOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EditOp::ExecTime { slot, units } => write!(f, "exec:{slot}:{units}"),
            EditOp::Remap { slot, pe_slot } => write!(f, "remap:{slot}:{pe_slot}"),
            EditOp::TightenGuard {
                slot,
                cond_slot,
                value,
            } => write!(f, "guard:{slot}:{cond_slot}:{}", u8::from(value)),
        }
    }
}

impl EditOp {
    /// Parses one token of the [`fmt::Display`] encoding.
    #[must_use]
    pub fn parse(token: &str) -> Option<Self> {
        let mut parts = token.split(':');
        let kind = parts.next()?;
        let mut next = || parts.next()?.parse::<u64>().ok();
        let op = match kind {
            "exec" => EditOp::ExecTime {
                slot: next()?,
                units: next()?,
            },
            "remap" => EditOp::Remap {
                slot: next()?,
                pe_slot: next()?,
            },
            "guard" => EditOp::TightenGuard {
                slot: next()?,
                cond_slot: next()?,
                value: next()? != 0,
            },
            _ => return None,
        };
        parts.next().is_none().then_some(op)
    }
}

/// 64-bit FNV-1a: unlike `std`'s randomly seeded default hasher, it gives
/// the same fingerprint for the same bytes in every run and on every
/// platform.
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Fnv1a::PRIME);
        }
    }
}

/// A deterministic FNV-1a fingerprint of a materialized system: architecture
/// layout, processes (name, kind, time, mapping, guard), edges and declared
/// conditions. Two systems with equal fingerprints are bit-identical merge
/// inputs; the double-run determinism tests compare these.
#[must_use]
pub fn system_fingerprint(system: &GeneratedSystem) -> u64 {
    let mut hasher = Fnv1a(Fnv1a::OFFSET);
    let arch = system.arch();
    let cpg = system.cpg();
    hasher.write_u64(arch.len() as u64);
    for id in arch.ids() {
        hasher.write_u8(match arch.kind_of(id) {
            PeKind::Programmable => 0,
            PeKind::Hardware => 1,
            PeKind::Bus => 2,
        });
        hasher.write(arch.pe(id).name().as_bytes());
    }
    hasher.write_u64(cpg.num_conditions() as u64);
    hasher.write_u64(cpg.len() as u64);
    for (id, process) in cpg.processes() {
        hasher.write(process.name().as_bytes());
        hasher.write_u8(match process.kind() {
            ProcessKind::Source => 0,
            ProcessKind::Sink => 1,
            ProcessKind::Ordinary => 2,
            ProcessKind::Communication => 3,
        });
        hasher.write_u64(cpg.exec_time(id).as_u64());
        hasher.write_u64(cpg.mapping(id).map_or(u64::MAX, |pe| pe.index() as u64));
        hasher.write_u8(u8::from(process.is_conjunction()));
        for cube in process.guard().cubes() {
            for literal in cube.literals() {
                hasher.write_u64(literal.cond().index() as u64);
                hasher.write_u8(u8::from(literal.value()));
            }
            hasher.write_u8(0xfe);
        }
        hasher.write_u8(0xff);
    }
    for edge in cpg.edges() {
        hasher.write_u64(edge.from().index() as u64);
        hasher.write_u64(edge.to().index() as u64);
        match edge.condition() {
            Some(literal) => {
                hasher.write_u64(literal.cond().index() as u64);
                hasher.write_u8(u8::from(literal.value()));
            }
            None => hasher.write_u8(2),
        }
        hasher.write_u64(edge.comm_time().as_u64());
        hasher.write_u64(edge.via().map_or(u64::MAX, |pe| pe.index() as u64));
    }
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    fn base_config() -> GeneratorConfig {
        GeneratorConfig::new(24, 4).with_processors(3).with_seed(11)
    }

    #[test]
    fn fnv1a_is_deterministic_and_order_sensitive() {
        use std::hash::Hash;
        let fingerprint = |items: &[(u64, bool)]| {
            let mut h = Fnv1a(Fnv1a::OFFSET);
            items.hash(&mut h);
            h.finish()
        };
        let a = fingerprint(&[(1, true), (2, false)]);
        assert_eq!(a, fingerprint(&[(1, true), (2, false)]));
        assert_ne!(a, fingerprint(&[(2, false), (1, true)]));
        assert_ne!(a, fingerprint(&[(1, true)]));
        // The FNV-1a test vectors of the empty input and of "a".
        assert_eq!(Fnv1a(Fnv1a::OFFSET).finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a(Fnv1a::OFFSET);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn unmutated_workload_matches_generate() {
        let config = base_config();
        let workload = Workload::new(config.clone());
        let replayed = workload.materialize().unwrap();
        let direct = generate(&config);
        assert_eq!(
            system_fingerprint(&replayed),
            system_fingerprint(&direct),
            "replaying zero mutations must reproduce the generator output"
        );
    }

    #[test]
    fn materialization_is_deterministic() {
        let mut workload = Workload::new(base_config());
        workload.ops = vec![
            WorkloadOp::ExecTime { slot: 3, units: 99 },
            WorkloadOp::Remap {
                slot: 5,
                pe_slot: 1,
            },
            WorkloadOp::SqueezeProcessors { processors: 2 },
            WorkloadOp::AddDependency {
                from_slot: 2,
                to_slot: 9,
                comm: 7,
            },
            WorkloadOp::RemoveDependency { slot: 4 },
            WorkloadOp::RenestGuard {
                slot: 6,
                cond_slot: 0,
                value: true,
            },
        ];
        let a = workload.materialize().unwrap();
        let b = workload.materialize().unwrap();
        assert_eq!(system_fingerprint(&a), system_fingerprint(&b));
    }

    #[test]
    fn exec_time_override_lands_on_the_resolved_slot() {
        let mut workload = Workload::new(base_config());
        workload
            .ops
            .push(WorkloadOp::ExecTime { slot: 3, units: 77 });
        let system = workload.materialize().unwrap();
        let process = system.cpg().ordinary_processes().nth(3).unwrap();
        assert_eq!(system.cpg().exec_time(process), Time::new(77));
    }

    #[test]
    fn squeezes_fold_mappings_onto_surviving_elements() {
        let mut workload = Workload::new(base_config());
        workload
            .ops
            .push(WorkloadOp::SqueezeProcessors { processors: 1 });
        let system = workload.materialize().unwrap();
        assert_eq!(system.arch().processors().count(), 1);
        for process in system.cpg().ordinary_processes() {
            let pe = system.cpg().mapping(process).unwrap();
            assert!(system.arch().kind_of(pe).is_computation());
        }
    }

    #[test]
    fn dropping_elements_leaves_dangling_mappings() {
        let mut workload = Workload::new(base_config());
        workload
            .ops
            .push(WorkloadOp::DropProcessingElements { keep: 1 });
        let system = workload.materialize().unwrap();
        assert_eq!(system.arch().len(), 1);
        let dangling = system
            .cpg()
            .schedulable_processes()
            .filter_map(|p| system.cpg().mapping(p))
            .any(|pe| pe.index() >= system.arch().len());
        assert!(dangling, "dropping elements must orphan some mapping");
    }

    #[test]
    fn session_edits_resolve_against_the_system() {
        let mut workload = Workload::new(base_config());
        workload.edits = vec![
            EditOp::ExecTime { slot: 0, units: 5 },
            EditOp::Remap {
                slot: 1,
                pe_slot: 0,
            },
            EditOp::TightenGuard {
                slot: 2,
                cond_slot: 1,
                value: false,
            },
        ];
        let system = workload.materialize().unwrap();
        let edits = workload.session_edits(&system);
        assert_eq!(edits.len(), 3);
        for edit in &edits {
            assert!(!system.cpg().process(edit.process()).kind().is_dummy());
        }
    }

    #[test]
    fn op_tokens_round_trip() {
        let ops = vec![
            WorkloadOp::ExecTime { slot: 1, units: 2 },
            WorkloadOp::Remap {
                slot: 3,
                pe_slot: 4,
            },
            WorkloadOp::SqueezeProcessors { processors: 5 },
            WorkloadOp::SqueezeBuses { buses: 6 },
            WorkloadOp::DropProcessingElements { keep: 7 },
            WorkloadOp::AddDependency {
                from_slot: 8,
                to_slot: 9,
                comm: 10,
            },
            WorkloadOp::RemoveDependency { slot: 11 },
            WorkloadOp::RenestGuard {
                slot: 12,
                cond_slot: 13,
                value: true,
            },
        ];
        let mut workload = Workload::new(base_config());
        workload.ops = ops.clone();
        workload.edits = vec![
            EditOp::ExecTime { slot: 1, units: 2 },
            EditOp::Remap {
                slot: 3,
                pe_slot: 4,
            },
            EditOp::TightenGuard {
                slot: 5,
                cond_slot: 6,
                value: false,
            },
        ];
        assert_eq!(
            Workload::parse_ops(&workload.encode_ops()),
            Some(workload.ops.clone())
        );
        assert_eq!(
            Workload::parse_edits(&workload.encode_edits()),
            Some(workload.edits.clone())
        );
        assert_eq!(WorkloadOp::parse("nonsense"), None);
        assert_eq!(WorkloadOp::parse("exec:1"), None);
        assert_eq!(WorkloadOp::parse("exec:1:2:3"), None);
        assert_eq!(EditOp::parse("drop:1"), None);
    }
}
