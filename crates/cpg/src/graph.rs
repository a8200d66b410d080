//! The conditional process graph and its builder.

use std::collections::HashMap;
use std::fmt;

use cpg_arch::{Architecture, PeId, Time};

use crate::cond::{CondId, Cube, Guard, Literal, MAX_CONDITIONS};
use crate::error::BuildCpgError;
use crate::process::{Process, ProcessId, ProcessKind};

/// A directed edge of the conditional process graph.
///
/// Simple edges carry pure data-flow; conditional edges additionally carry a
/// [`Literal`] and transmit only when the associated condition value holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    pub(crate) from: ProcessId,
    pub(crate) to: ProcessId,
    pub(crate) condition: Option<Literal>,
    pub(crate) comm_time: Time,
    pub(crate) via: Option<PeId>,
}

impl Edge {
    /// The origin of the edge.
    #[must_use]
    pub const fn from(&self) -> ProcessId {
        self.from
    }

    /// The destination of the edge.
    #[must_use]
    pub const fn to(&self) -> ProcessId {
        self.to
    }

    /// The condition literal guarding the edge, if it is a conditional edge.
    #[must_use]
    pub const fn condition(&self) -> Option<Literal> {
        self.condition
    }

    /// `true` for conditional edges.
    #[must_use]
    pub const fn is_conditional(&self) -> bool {
        self.condition.is_some()
    }

    /// The communication time needed when the endpoints are mapped to
    /// different processing elements.
    #[must_use]
    pub const fn comm_time(&self) -> Time {
        self.comm_time
    }

    /// The preferred bus for the communication process inserted on this edge,
    /// if the designer specified one.
    #[must_use]
    pub const fn via(&self) -> Option<PeId> {
        self.via
    }
}

/// A conditional process graph (CPG): the abstract system representation
/// `Γ(V, E_S, E_C)` of the paper.
///
/// The graph is directed, acyclic and polar (a dummy source precedes and a
/// dummy sink follows every other process); nodes are processes mapped onto
/// an [`Architecture`]; edges are either simple (data-flow) or conditional
/// (control-flow, guarded by a condition computed by a disjunction process).
///
/// Build one with [`Cpg::builder`] / [`CpgBuilder`]; guards, disjunction and
/// conjunction classification and the topological order are computed during
/// [`CpgBuilder::build`].
///
/// # Example
///
/// ```
/// use cpg_arch::{Architecture, Time};
/// use cpg::{Cpg, CpgBuilder};
///
/// let arch = Architecture::builder()
///     .processor("pe1")
///     .processor("pe2")
///     .bus("bus")
///     .build()?;
/// let pe1 = arch.pe_by_name("pe1").unwrap();
/// let pe2 = arch.pe_by_name("pe2").unwrap();
///
/// let mut b = Cpg::builder();
/// let cond = b.condition("C");
/// let p1 = b.process("P1", Time::new(3), pe1);
/// let p2 = b.process("P2", Time::new(4), pe2);
/// let p3 = b.process("P3", Time::new(5), pe2);
/// b.conditional_edge(p1, p2, cond.is_true(), Time::new(2));
/// b.conditional_edge(p1, p3, cond.is_false(), Time::new(2));
/// let cpg = b.build(&arch)?;
///
/// assert_eq!(cpg.ordinary_processes().count(), 3);
/// assert!(cpg.process(p1).is_disjunction());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cpg {
    processes: Vec<Process>,
    edges: Vec<Edge>,
    succ: Vec<Vec<usize>>,
    pred: Vec<Vec<usize>>,
    source: ProcessId,
    sink: ProcessId,
    condition_names: Vec<String>,
    disjunction_of: Vec<Option<ProcessId>>,
    topo: Vec<ProcessId>,
}

impl Cpg {
    /// Starts building a new conditional process graph.
    #[must_use]
    pub fn builder() -> CpgBuilder {
        CpgBuilder::new()
    }

    /// Total number of processes, including the dummy source and sink and any
    /// communication processes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.processes.len()
    }

    /// `true` when the graph has no processes (never the case for a built
    /// graph; provided for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.processes.is_empty()
    }

    /// The process behind an identifier.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn process(&self, id: ProcessId) -> &Process {
        &self.processes[id.0]
    }

    /// The dummy source process.
    #[must_use]
    pub const fn source(&self) -> ProcessId {
        self.source
    }

    /// The dummy sink process.
    #[must_use]
    pub const fn sink(&self) -> ProcessId {
        self.sink
    }

    /// Iterates over all process identifiers in creation order.
    pub fn process_ids(&self) -> impl Iterator<Item = ProcessId> + '_ {
        (0..self.processes.len()).map(ProcessId)
    }

    /// Iterates over all processes with their identifiers.
    pub fn processes(&self) -> impl Iterator<Item = (ProcessId, &Process)> + '_ {
        self.processes
            .iter()
            .enumerate()
            .map(|(i, p)| (ProcessId(i), p))
    }

    /// Iterates over the ordinary (designer-specified) processes.
    pub fn ordinary_processes(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.processes()
            .filter(|(_, p)| p.kind() == ProcessKind::Ordinary)
            .map(|(id, _)| id)
    }

    /// Iterates over the communication processes.
    pub fn communication_processes(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.processes()
            .filter(|(_, p)| p.kind() == ProcessKind::Communication)
            .map(|(id, _)| id)
    }

    /// Iterates over the processes that need to be scheduled on a resource
    /// (everything except the dummy source and sink).
    pub fn schedulable_processes(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.processes()
            .filter(|(_, p)| !p.kind().is_dummy())
            .map(|(id, _)| id)
    }

    /// Looks up a process by name.
    #[must_use]
    pub fn process_by_name(&self, name: &str) -> Option<ProcessId> {
        self.processes
            .iter()
            .position(|p| p.name() == name)
            .map(ProcessId)
    }

    /// All edges of the graph.
    #[must_use]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The outgoing edges of a process.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn out_edges(&self, id: ProcessId) -> impl Iterator<Item = &Edge> + '_ {
        self.succ[id.0].iter().map(move |&e| &self.edges[e])
    }

    /// The incoming edges of a process.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn in_edges(&self, id: ProcessId) -> impl Iterator<Item = &Edge> + '_ {
        self.pred[id.0].iter().map(move |&e| &self.edges[e])
    }

    /// The successor processes of a process.
    pub fn successors(&self, id: ProcessId) -> impl Iterator<Item = ProcessId> + '_ {
        self.out_edges(id).map(Edge::to)
    }

    /// The predecessor processes of a process.
    pub fn predecessors(&self, id: ProcessId) -> impl Iterator<Item = ProcessId> + '_ {
        self.in_edges(id).map(Edge::from)
    }

    /// A topological order of all processes (source first, sink last).
    #[must_use]
    pub fn topological_order(&self) -> &[ProcessId] {
        &self.topo
    }

    /// Number of conditions of the graph.
    #[must_use]
    pub fn num_conditions(&self) -> usize {
        self.condition_names.len()
    }

    /// Iterates over all condition identifiers.
    pub fn conditions(&self) -> impl Iterator<Item = CondId> + '_ {
        (0..self.condition_names.len()).map(CondId::new)
    }

    /// The designer-given name of a condition.
    ///
    /// # Panics
    ///
    /// Panics if `cond` does not belong to this graph.
    #[must_use]
    pub fn condition_name(&self, cond: CondId) -> &str {
        &self.condition_names[cond.index()]
    }

    /// The disjunction process that computes a condition.
    ///
    /// # Panics
    ///
    /// Panics if `cond` does not belong to this graph.
    #[must_use]
    pub fn disjunction_of(&self, cond: CondId) -> ProcessId {
        self.disjunction_of[cond.index()]
            .expect("every condition of a built graph has a disjunction process")
    }

    /// Renders a cube using the designer-given condition names (for reports
    /// mirroring the paper's `D∧C∧K` notation).
    #[must_use]
    pub fn display_cube(&self, cube: &Cube) -> String {
        cube.display_with(&|cond| self.condition_name(cond).to_owned())
    }

    /// The guard `X_Pi` of a process.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn guard(&self, id: ProcessId) -> &Guard {
        self.processes[id.0].guard()
    }

    /// The execution (or communication) time of a process.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn exec_time(&self, id: ProcessId) -> Time {
        self.processes[id.0].exec_time()
    }

    /// The processing element a process is mapped to (`None` for the dummy
    /// source and sink).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn mapping(&self, id: ProcessId) -> Option<PeId> {
        self.processes[id.0].mapping()
    }

    /// `true` when the graph contains communication processes (i.e. it has
    /// been produced by [`expand_communications`](crate::expand_communications)
    /// or built with explicit communication processes).
    #[must_use]
    pub fn is_expanded(&self) -> bool {
        self.communication_processes().next().is_some()
    }

    /// The sum of the execution times of all schedulable processes — an upper
    /// bound for any schedule makespan, useful as a scheduling horizon.
    #[must_use]
    pub fn total_execution_time(&self) -> Time {
        self.schedulable_processes()
            .map(|id| self.exec_time(id))
            .sum()
    }

    fn editable(&self, id: ProcessId) -> Result<(), crate::edit::EditError> {
        let Some(process) = self.processes.get(id.0) else {
            return Err(crate::edit::EditError::UnknownProcess(id));
        };
        if process.kind().is_dummy() {
            return Err(crate::edit::EditError::DummyProcess(id));
        }
        Ok(())
    }

    /// Changes the worst-case execution time of a process in place (the
    /// communication time for communication processes).
    ///
    /// # Errors
    ///
    /// Rejects unknown identifiers and the dummy source/sink.
    pub fn set_exec_time(
        &mut self,
        id: ProcessId,
        time: Time,
    ) -> Result<(), crate::edit::EditError> {
        self.editable(id)?;
        self.processes[id.0].exec_time = time;
        Ok(())
    }

    /// Moves a process to a different processing element in place.
    ///
    /// On an expanded graph the communication structure is kept as-is: the
    /// move re-targets the process itself, which is the designer-level "what
    /// if" question an interactive exploration asks before committing to a
    /// re-expansion.
    ///
    /// # Errors
    ///
    /// Rejects unknown identifiers, the dummy source/sink, and processes that
    /// are not currently mapped.
    pub fn set_mapping(&mut self, id: ProcessId, pe: PeId) -> Result<(), crate::edit::EditError> {
        self.editable(id)?;
        if self.processes[id.0].mapping.is_none() {
            return Err(crate::edit::EditError::UnmappedProcess(id));
        }
        self.processes[id.0].mapping = Some(pe);
        Ok(())
    }

    /// Replaces the guard `X_Pi` of a process in place.
    ///
    /// Guard edits are structural: callers holding cached per-track state
    /// must re-enumerate the alternative paths afterwards (see
    /// [`EditScope::Structural`](crate::EditScope)).
    ///
    /// # Errors
    ///
    /// Rejects unknown identifiers and the dummy source/sink.
    pub fn set_guard(&mut self, id: ProcessId, guard: Guard) -> Result<(), crate::edit::EditError> {
        self.editable(id)?;
        self.processes[id.0].guard = guard;
        Ok(())
    }
}

impl fmt::Display for Cpg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "conditional process graph with {} processes, {} edges, {} conditions",
            self.len(),
            self.edges.len(),
            self.num_conditions()
        )
    }
}

/// Specification of a process as recorded by the builder.
#[derive(Debug, Clone)]
struct ProcessSpec {
    name: String,
    kind: ProcessKind,
    exec_time: Time,
    mapping: Option<PeId>,
    conjunction: bool,
}

/// Incremental builder for [`Cpg`].
///
/// The builder automatically adds the polar source and sink processes and
/// connects them to every process without predecessors / successors, computes
/// guards, and validates the structural rules of the paper (acyclicity, one
/// disjunction process per condition, both branch polarities present,
/// consistency of joins).
#[derive(Debug, Clone, Default)]
pub struct CpgBuilder {
    processes: Vec<ProcessSpec>,
    edges: Vec<Edge>,
    condition_names: Vec<String>,
}

impl CpgBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a new condition and returns its identifier.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_CONDITIONS`]
    /// conditions are declared; [`try_condition`](Self::try_condition)
    /// returns the error instead.
    pub fn condition(&mut self, name: impl Into<String>) -> CondId {
        match self.try_condition(name) {
            Ok(id) => id,
            Err(err) => panic!("{err}"),
        }
    }

    /// Declares a new condition and returns its identifier, or
    /// [`BuildCpgError::TooManyConditions`] when
    /// [`MAX_CONDITIONS`] conditions are already
    /// declared (the builder is then left unchanged).
    ///
    /// # Errors
    ///
    /// Returns [`BuildCpgError::TooManyConditions`] for the condition past
    /// the limit.
    pub fn try_condition(&mut self, name: impl Into<String>) -> Result<CondId, BuildCpgError> {
        let index = self.condition_names.len();
        if index >= MAX_CONDITIONS {
            return Err(BuildCpgError::TooManyConditions {
                limit: MAX_CONDITIONS,
            });
        }
        self.condition_names.push(name.into());
        Ok(CondId::new(index))
    }

    /// Adds an ordinary process mapped to processing element `pe`.
    pub fn process(&mut self, name: impl Into<String>, exec_time: Time, pe: PeId) -> ProcessId {
        self.push_process(ProcessSpec {
            name: name.into(),
            kind: ProcessKind::Ordinary,
            exec_time,
            mapping: Some(pe),
            conjunction: false,
        })
    }

    /// Adds an explicit communication process mapped to bus `bus`.
    ///
    /// [`expand_communications`](crate::expand_communications) inserts these
    /// automatically; the method is public so that fully explicit graphs (like
    /// the paper's Fig. 1 with processes P18–P31) can also be described
    /// directly.
    pub fn communication(
        &mut self,
        name: impl Into<String>,
        comm_time: Time,
        bus: PeId,
    ) -> ProcessId {
        self.push_process(ProcessSpec {
            name: name.into(),
            kind: ProcessKind::Communication,
            exec_time: comm_time,
            mapping: Some(bus),
            conjunction: false,
        })
    }

    /// Marks a process as a conjunction process: alternative paths meet at it
    /// and it is activated as soon as the messages of one active path have
    /// arrived.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not created by this builder.
    pub fn mark_conjunction(&mut self, id: ProcessId) {
        self.processes[id.0].conjunction = true;
    }

    /// Adds a simple (data-flow) edge.
    ///
    /// `comm_time` is the communication time charged when the endpoints are
    /// mapped to different processing elements; it is ignored for local edges.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint was not created by this builder.
    pub fn simple_edge(&mut self, from: ProcessId, to: ProcessId, comm_time: Time) {
        self.push_edge(from, to, None, comm_time, None);
    }

    /// Adds a simple edge whose communication (if any) must use bus `via`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint was not created by this builder.
    pub fn simple_edge_via(&mut self, from: ProcessId, to: ProcessId, comm_time: Time, via: PeId) {
        self.push_edge(from, to, None, comm_time, Some(via));
    }

    /// Adds a conditional (control-flow) edge guarded by `literal`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint was not created by this builder.
    pub fn conditional_edge(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        literal: Literal,
        comm_time: Time,
    ) {
        self.push_edge(from, to, Some(literal), comm_time, None);
    }

    /// Number of processes added so far (excluding the automatic source and
    /// sink).
    #[must_use]
    pub fn len(&self) -> usize {
        self.processes.len()
    }

    /// `true` when no process has been added yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.processes.is_empty()
    }

    fn push_process(&mut self, spec: ProcessSpec) -> ProcessId {
        let id = ProcessId(self.processes.len());
        self.processes.push(spec);
        id
    }

    fn push_edge(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        condition: Option<Literal>,
        comm_time: Time,
        via: Option<PeId>,
    ) {
        assert!(
            from.0 < self.processes.len() && to.0 < self.processes.len(),
            "edge endpoints must be created by this builder"
        );
        self.edges.push(Edge {
            from,
            to,
            condition,
            comm_time,
            via,
        });
    }

    /// Finishes construction, validating the graph against `arch`.
    ///
    /// The polar source and sink are added automatically, guards are inferred
    /// and the structural rules of the paper are checked.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildCpgError`] describing the first violated rule; see the
    /// error type for the full list of checks.
    pub fn build(self, arch: &Architecture) -> Result<Cpg, BuildCpgError> {
        if self.processes.is_empty() {
            return Err(BuildCpgError::EmptyGraph);
        }
        self.validate_mappings(arch)?;
        self.validate_edges()?;

        let CpgBuilder {
            mut processes,
            mut edges,
            condition_names,
        } = self;

        // Add the polar source and sink and connect them to orphan processes.
        let user_count = processes.len();
        let source = ProcessId(processes.len());
        processes.push(ProcessSpec {
            name: "source".to_owned(),
            kind: ProcessKind::Source,
            exec_time: Time::ZERO,
            mapping: None,
            conjunction: false,
        });
        let sink = ProcessId(processes.len());
        processes.push(ProcessSpec {
            name: "sink".to_owned(),
            kind: ProcessKind::Sink,
            exec_time: Time::ZERO,
            mapping: None,
            conjunction: true,
        });
        let mut has_pred = vec![false; user_count];
        let mut has_succ = vec![false; user_count];
        for edge in &edges {
            has_succ[edge.from.0] = true;
            has_pred[edge.to.0] = true;
        }
        for i in 0..user_count {
            if !has_pred[i] {
                edges.push(Edge {
                    from: source,
                    to: ProcessId(i),
                    condition: None,
                    comm_time: Time::ZERO,
                    via: None,
                });
            }
            if !has_succ[i] {
                edges.push(Edge {
                    from: ProcessId(i),
                    to: sink,
                    condition: None,
                    comm_time: Time::ZERO,
                    via: None,
                });
            }
        }

        // Adjacency.
        let n = processes.len();
        let mut succ = vec![Vec::new(); n];
        let mut pred = vec![Vec::new(); n];
        for (i, edge) in edges.iter().enumerate() {
            succ[edge.from.0].push(i);
            pred[edge.to.0].push(i);
        }

        // Topological order (Kahn), also detects cycles.
        let topo = topological_sort(n, &edges, &pred).ok_or(BuildCpgError::Cycle)?;

        // Determine disjunction processes.
        let mut disjunction_of: Vec<Option<ProcessId>> = vec![None; condition_names.len()];
        let mut computes: Vec<Option<CondId>> = vec![None; n];
        for pid in 0..n {
            let mut cond_seen: Option<CondId> = None;
            let mut pos = false;
            let mut neg = false;
            for &e in &succ[pid] {
                if let Some(lit) = edges[e].condition {
                    match cond_seen {
                        None => cond_seen = Some(lit.cond()),
                        Some(c) if c != lit.cond() => {
                            return Err(BuildCpgError::MixedConditions {
                                process: processes[pid].name.clone(),
                            })
                        }
                        _ => {}
                    }
                    if lit.value() {
                        pos = true;
                    } else {
                        neg = true;
                    }
                }
            }
            if let Some(cond) = cond_seen {
                if !(pos && neg) {
                    return Err(BuildCpgError::MissingPolarity {
                        process: processes[pid].name.clone(),
                        condition: condition_names[cond.index()].clone(),
                    });
                }
                if disjunction_of[cond.index()].is_some() {
                    return Err(BuildCpgError::ConditionComputedTwice {
                        condition: condition_names[cond.index()].clone(),
                    });
                }
                disjunction_of[cond.index()] = Some(ProcessId(pid));
                computes[pid] = Some(cond);
            }
        }
        for (c, owner) in disjunction_of.iter().enumerate() {
            if owner.is_none() {
                return Err(BuildCpgError::UnusedCondition {
                    condition: condition_names[c].clone(),
                });
            }
        }

        // Guard inference in topological order.
        let mut guards: Vec<Guard> = vec![Guard::never(); n];
        for &pid in &topo {
            let i = pid.0;
            if pid == source {
                guards[i] = Guard::always();
                continue;
            }
            let terms: Vec<Guard> = pred[i]
                .iter()
                .map(|&e| {
                    let edge = &edges[e];
                    let base = guards[edge.from.0].clone();
                    match edge.condition {
                        Some(lit) => base.and_cube(&Cube::from(lit)),
                        None => base,
                    }
                })
                .collect();
            let is_conjunction = processes[i].conjunction || pid == sink;
            let guard = if is_conjunction {
                if pid == sink {
                    Guard::always()
                } else {
                    terms.iter().fold(Guard::never(), |acc, term| acc.or(term))
                }
            } else {
                let mut acc = Guard::always();
                for term in &terms {
                    acc = guard_and(&acc, term);
                }
                if acc.is_never() {
                    return Err(BuildCpgError::InconsistentJoin {
                        process: processes[i].name.clone(),
                    });
                }
                acc
            };
            if guard.cubes().len() > 64 {
                return Err(BuildCpgError::UnsupportedGuard {
                    process: processes[i].name.clone(),
                });
            }
            guards[i] = guard;
        }

        let final_processes: Vec<Process> = processes
            .into_iter()
            .enumerate()
            .map(|(i, spec)| Process {
                name: spec.name,
                kind: spec.kind,
                exec_time: spec.exec_time,
                mapping: spec.mapping,
                computes: computes[i],
                guard: guards[i].clone(),
                is_conjunction: spec.conjunction || ProcessId(i) == sink,
            })
            .collect();

        Ok(Cpg {
            processes: final_processes,
            edges,
            succ,
            pred,
            source,
            sink,
            condition_names,
            disjunction_of,
            topo,
        })
    }

    fn validate_mappings(&self, arch: &Architecture) -> Result<(), BuildCpgError> {
        for spec in &self.processes {
            let pe = spec
                .mapping
                .expect("builder processes always carry a mapping");
            if pe.index() >= arch.len() {
                return Err(BuildCpgError::UnknownProcessingElement {
                    process: spec.name.clone(),
                });
            }
            match spec.kind {
                ProcessKind::Ordinary => {
                    if arch.kind_of(pe).is_bus() {
                        return Err(BuildCpgError::ProcessMappedToBus {
                            process: spec.name.clone(),
                        });
                    }
                }
                ProcessKind::Communication => {
                    if !arch.kind_of(pe).is_bus() {
                        return Err(BuildCpgError::CommunicationNotOnBus {
                            process: spec.name.clone(),
                        });
                    }
                }
                ProcessKind::Source | ProcessKind::Sink => {}
            }
        }
        Ok(())
    }

    fn validate_edges(&self) -> Result<(), BuildCpgError> {
        let mut seen: HashMap<(usize, usize), ()> = HashMap::new();
        for edge in &self.edges {
            if edge.from == edge.to {
                return Err(BuildCpgError::SelfLoop {
                    process: self.processes[edge.from.0].name.clone(),
                });
            }
            if seen.insert((edge.from.0, edge.to.0), ()).is_some() {
                return Err(BuildCpgError::DuplicateEdge {
                    from: self.processes[edge.from.0].name.clone(),
                    to: self.processes[edge.to.0].name.clone(),
                });
            }
        }
        Ok(())
    }
}

/// Conjunction of two guards (DNF × DNF, filtered for contradictions).
fn guard_and(a: &Guard, b: &Guard) -> Guard {
    let mut cubes = Vec::new();
    for ca in a.cubes() {
        for cb in b.cubes() {
            if let Some(cube) = ca.and_cube(cb) {
                cubes.push(cube);
            }
        }
    }
    Guard::from_cubes(cubes)
}

/// Kahn's algorithm; returns `None` when the graph has a cycle.
fn topological_sort(n: usize, edges: &[Edge], pred: &[Vec<usize>]) -> Option<Vec<ProcessId>> {
    let mut in_degree: Vec<usize> = pred.iter().map(Vec::len).collect();
    let mut ready: Vec<usize> = (0..n).filter(|&i| in_degree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    let mut succ_lists: Vec<Vec<usize>> = vec![Vec::new(); n];
    for edge in edges {
        succ_lists[edge.from.0].push(edge.to.0);
    }
    while let Some(node) = ready.pop() {
        order.push(ProcessId(node));
        for &next in &succ_lists[node] {
            in_degree[next] -= 1;
            if in_degree[next] == 0 {
                ready.push(next);
            }
        }
    }
    if order.len() == n {
        Some(order)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpg_arch::Architecture;

    fn arch() -> Architecture {
        Architecture::builder()
            .processor("pe1")
            .processor("pe2")
            .hardware("hw")
            .bus("bus")
            .build()
            .unwrap()
    }

    fn pe(arch: &Architecture, name: &str) -> PeId {
        arch.pe_by_name(name).unwrap()
    }

    #[test]
    fn the_condition_past_the_limit_is_a_typed_error() {
        let arch = arch();
        let pe1 = pe(&arch, "pe1");
        let mut b = Cpg::builder();
        // A chain of MAX_CONDITIONS diamonds, each resolving its own condition.
        let mut prev = b.process("start", Time::new(1), pe1);
        for i in 0..MAX_CONDITIONS {
            let c = b.try_condition(format!("c{i}")).unwrap();
            assert_eq!(c.index(), i);
            let hi = b.process(format!("hi{i}"), Time::new(1), pe1);
            let lo = b.process(format!("lo{i}"), Time::new(1), pe1);
            let join = b.process(format!("join{i}"), Time::new(1), pe1);
            b.conditional_edge(prev, hi, c.is_true(), Time::ZERO);
            b.conditional_edge(prev, lo, c.is_false(), Time::ZERO);
            b.simple_edge(hi, join, Time::ZERO);
            b.simple_edge(lo, join, Time::ZERO);
            b.mark_conjunction(join);
            prev = join;
        }
        assert_eq!(
            b.try_condition("one too many"),
            Err(BuildCpgError::TooManyConditions {
                limit: MAX_CONDITIONS
            })
        );
        // The refused condition left the builder unchanged.
        let cpg = b.build(&arch).unwrap();
        assert_eq!(cpg.num_conditions(), MAX_CONDITIONS);
    }

    #[test]
    #[should_panic(expected = "at most 64 conditions")]
    fn condition_panics_past_the_limit() {
        let mut b = Cpg::builder();
        for i in 0..=MAX_CONDITIONS {
            b.condition(format!("c{i}"));
        }
    }

    #[test]
    fn linear_graph_gets_source_sink_and_true_guards() {
        let arch = arch();
        let mut b = Cpg::builder();
        let a = b.process("A", Time::new(2), pe(&arch, "pe1"));
        let c = b.process("B", Time::new(3), pe(&arch, "pe2"));
        b.simple_edge(a, c, Time::new(1));
        let cpg = b.build(&arch).unwrap();

        assert_eq!(cpg.len(), 4);
        assert_eq!(cpg.ordinary_processes().count(), 2);
        assert_eq!(cpg.process(cpg.source()).kind(), ProcessKind::Source);
        assert_eq!(cpg.process(cpg.sink()).kind(), ProcessKind::Sink);
        assert!(cpg.guard(a).is_true());
        assert!(cpg.guard(c).is_true());
        assert!(cpg.guard(cpg.sink()).is_true());
        assert_eq!(cpg.predecessors(a).next(), Some(cpg.source()));
        assert_eq!(cpg.successors(c).next(), Some(cpg.sink()));
        assert_eq!(cpg.mapping(cpg.source()), None);
        assert_eq!(cpg.exec_time(a), Time::new(2));
        assert_eq!(cpg.total_execution_time(), Time::new(5));
    }

    #[test]
    fn conditional_branches_get_literal_guards() {
        let arch = arch();
        let mut b = Cpg::builder();
        let c = b.condition("C");
        let root = b.process("root", Time::new(1), pe(&arch, "pe1"));
        let then = b.process("then", Time::new(2), pe(&arch, "pe1"));
        let els = b.process("else", Time::new(2), pe(&arch, "pe1"));
        let join = b.process("join", Time::new(1), pe(&arch, "pe1"));
        b.conditional_edge(root, then, c.is_true(), Time::ZERO);
        b.conditional_edge(root, els, c.is_false(), Time::ZERO);
        b.simple_edge(then, join, Time::ZERO);
        b.simple_edge(els, join, Time::ZERO);
        b.mark_conjunction(join);
        let cpg = b.build(&arch).unwrap();

        assert!(cpg.process(root).is_disjunction());
        assert_eq!(cpg.process(root).computes(), Some(c));
        assert_eq!(cpg.disjunction_of(c), root);
        assert_eq!(cpg.guard(then).as_cube(), Some(Cube::from(c.is_true())));
        assert_eq!(cpg.guard(els).as_cube(), Some(Cube::from(c.is_false())));
        assert!(cpg.guard(join).is_true());
        assert!(cpg.process(join).is_conjunction());
        assert_eq!(cpg.num_conditions(), 1);
        assert_eq!(cpg.condition_name(c), "C");
    }

    #[test]
    fn nested_conditions_compose_guards() {
        let arch = arch();
        let mut b = Cpg::builder();
        let d = b.condition("D");
        let k = b.condition("K");
        let p11 = b.process("P11", Time::new(6), pe(&arch, "pe2"));
        let p12 = b.process("P12", Time::new(6), pe(&arch, "hw"));
        let p13 = b.process("P13", Time::new(8), pe(&arch, "pe1"));
        let p14 = b.process("P14", Time::new(2), pe(&arch, "pe2"));
        let p15 = b.process("P15", Time::new(6), pe(&arch, "pe2"));
        let p17 = b.process("P17", Time::new(2), pe(&arch, "pe2"));
        b.conditional_edge(p11, p12, d.is_true(), Time::new(1));
        b.conditional_edge(p11, p13, d.is_false(), Time::new(2));
        b.conditional_edge(p12, p14, k.is_true(), Time::new(1));
        b.conditional_edge(p12, p15, k.is_false(), Time::new(3));
        b.simple_edge(p13, p17, Time::new(2));
        b.simple_edge(p14, p17, Time::ZERO);
        b.simple_edge(p15, p17, Time::ZERO);
        b.mark_conjunction(p17);
        let cpg = b.build(&arch).unwrap();

        let dk: Cube = [d.is_true(), k.is_true()].into_iter().collect();
        assert_eq!(cpg.guard(p14).as_cube(), Some(dk));
        assert_eq!(cpg.guard(p12).as_cube(), Some(Cube::from(d.is_true())));
        assert!(cpg.guard(p17).is_true());
        assert!(cpg.process(p17).is_conjunction());
    }

    #[test]
    fn and_join_of_compatible_terms_takes_their_conjunction() {
        let arch = arch();
        let mut b = Cpg::builder();
        let c = b.condition("C");
        let root = b.process("root", Time::new(1), pe(&arch, "pe1"));
        let other = b.process("other", Time::new(1), pe(&arch, "pe2"));
        let then = b.process("then", Time::new(2), pe(&arch, "pe1"));
        let els = b.process("else", Time::new(2), pe(&arch, "pe1"));
        b.conditional_edge(root, then, c.is_true(), Time::ZERO);
        b.conditional_edge(root, els, c.is_false(), Time::ZERO);
        // `then` also receives unconditional data from `other`.
        b.simple_edge(other, then, Time::new(1));
        let cpg = b.build(&arch).unwrap();
        assert_eq!(cpg.guard(then).as_cube(), Some(Cube::from(c.is_true())));
    }

    #[test]
    fn inconsistent_and_join_is_rejected() {
        let arch = arch();
        let mut b = Cpg::builder();
        let c = b.condition("C");
        let root = b.process("root", Time::new(1), pe(&arch, "pe1"));
        let then = b.process("then", Time::new(2), pe(&arch, "pe1"));
        let els = b.process("else", Time::new(2), pe(&arch, "pe1"));
        let join = b.process("join", Time::new(1), pe(&arch, "pe1"));
        b.conditional_edge(root, then, c.is_true(), Time::ZERO);
        b.conditional_edge(root, els, c.is_false(), Time::ZERO);
        b.simple_edge(then, join, Time::ZERO);
        b.simple_edge(els, join, Time::ZERO);
        // join NOT marked as conjunction -> its AND-guard is unsatisfiable.
        assert_eq!(
            b.build(&arch),
            Err(BuildCpgError::InconsistentJoin {
                process: "join".into()
            })
        );
    }

    #[test]
    fn missing_polarity_is_rejected() {
        let arch = arch();
        let mut b = Cpg::builder();
        let c = b.condition("C");
        let root = b.process("root", Time::new(1), pe(&arch, "pe1"));
        let then = b.process("then", Time::new(2), pe(&arch, "pe1"));
        b.conditional_edge(root, then, c.is_true(), Time::ZERO);
        assert!(matches!(
            b.build(&arch),
            Err(BuildCpgError::MissingPolarity { .. })
        ));
    }

    #[test]
    fn unused_condition_is_rejected() {
        let arch = arch();
        let mut b = Cpg::builder();
        let _c = b.condition("C");
        let a = b.process("A", Time::new(1), pe(&arch, "pe1"));
        let z = b.process("Z", Time::new(1), pe(&arch, "pe1"));
        b.simple_edge(a, z, Time::ZERO);
        assert!(matches!(
            b.build(&arch),
            Err(BuildCpgError::UnusedCondition { .. })
        ));
    }

    #[test]
    fn mixed_conditions_on_one_node_are_rejected() {
        let arch = arch();
        let mut b = Cpg::builder();
        let c = b.condition("C");
        let d = b.condition("D");
        let root = b.process("root", Time::new(1), pe(&arch, "pe1"));
        let w = b.process("w", Time::new(1), pe(&arch, "pe1"));
        let x = b.process("x", Time::new(1), pe(&arch, "pe1"));
        let y = b.process("y", Time::new(1), pe(&arch, "pe1"));
        let z = b.process("z", Time::new(1), pe(&arch, "pe1"));
        b.conditional_edge(root, w, c.is_true(), Time::ZERO);
        b.conditional_edge(root, x, c.is_false(), Time::ZERO);
        b.conditional_edge(root, y, d.is_true(), Time::ZERO);
        b.conditional_edge(root, z, d.is_false(), Time::ZERO);
        assert!(matches!(
            b.build(&arch),
            Err(BuildCpgError::MixedConditions { .. })
        ));
    }

    #[test]
    fn condition_computed_twice_is_rejected() {
        let arch = arch();
        let mut b = Cpg::builder();
        let c = b.condition("C");
        let r1 = b.process("r1", Time::new(1), pe(&arch, "pe1"));
        let r2 = b.process("r2", Time::new(1), pe(&arch, "pe1"));
        let a = b.process("a", Time::new(1), pe(&arch, "pe1"));
        let bb = b.process("b", Time::new(1), pe(&arch, "pe1"));
        let x = b.process("x", Time::new(1), pe(&arch, "pe2"));
        let y = b.process("y", Time::new(1), pe(&arch, "pe2"));
        b.conditional_edge(r1, a, c.is_true(), Time::ZERO);
        b.conditional_edge(r1, bb, c.is_false(), Time::ZERO);
        b.conditional_edge(r2, x, c.is_true(), Time::ZERO);
        b.conditional_edge(r2, y, c.is_false(), Time::ZERO);
        assert!(matches!(
            b.build(&arch),
            Err(BuildCpgError::ConditionComputedTwice { .. })
        ));
    }

    #[test]
    fn cycles_self_loops_and_duplicates_are_rejected() {
        let arch = arch();

        let mut b = Cpg::builder();
        let a = b.process("A", Time::new(1), pe(&arch, "pe1"));
        let c = b.process("B", Time::new(1), pe(&arch, "pe1"));
        b.simple_edge(a, c, Time::ZERO);
        b.simple_edge(c, a, Time::ZERO);
        assert_eq!(b.build(&arch), Err(BuildCpgError::Cycle));

        let mut b = Cpg::builder();
        let a = b.process("A", Time::new(1), pe(&arch, "pe1"));
        b.simple_edge(a, a, Time::ZERO);
        assert!(matches!(
            b.build(&arch),
            Err(BuildCpgError::SelfLoop { .. })
        ));

        let mut b = Cpg::builder();
        let a = b.process("A", Time::new(1), pe(&arch, "pe1"));
        let c = b.process("B", Time::new(1), pe(&arch, "pe1"));
        b.simple_edge(a, c, Time::ZERO);
        b.simple_edge(a, c, Time::ZERO);
        assert!(matches!(
            b.build(&arch),
            Err(BuildCpgError::DuplicateEdge { .. })
        ));
    }

    #[test]
    fn mapping_errors_are_detected() {
        let arch = arch();
        let small = Architecture::builder().processor("only").build().unwrap();

        let mut b = Cpg::builder();
        b.process("A", Time::new(1), pe(&arch, "pe2"));
        assert!(matches!(
            b.build(&small),
            Err(BuildCpgError::UnknownProcessingElement { .. })
        ));

        let mut b = Cpg::builder();
        b.process("A", Time::new(1), pe(&arch, "bus"));
        assert!(matches!(
            b.build(&arch),
            Err(BuildCpgError::ProcessMappedToBus { .. })
        ));

        let mut b = Cpg::builder();
        b.communication("c", Time::new(1), pe(&arch, "pe1"));
        b.process("A", Time::new(1), pe(&arch, "pe1"));
        assert!(matches!(
            b.build(&arch),
            Err(BuildCpgError::CommunicationNotOnBus { .. })
        ));
    }

    #[test]
    fn empty_graph_is_rejected() {
        let arch = arch();
        assert_eq!(Cpg::builder().build(&arch), Err(BuildCpgError::EmptyGraph));
    }

    #[test]
    fn topological_order_respects_edges() {
        let arch = arch();
        let mut b = Cpg::builder();
        let a = b.process("A", Time::new(1), pe(&arch, "pe1"));
        let c = b.process("B", Time::new(1), pe(&arch, "pe1"));
        let d = b.process("C", Time::new(1), pe(&arch, "pe2"));
        b.simple_edge(a, c, Time::ZERO);
        b.simple_edge(c, d, Time::new(1));
        b.simple_edge(a, d, Time::new(1));
        let cpg = b.build(&arch).unwrap();
        let topo = cpg.topological_order();
        let pos = |p: ProcessId| topo.iter().position(|&x| x == p).unwrap();
        for edge in cpg.edges() {
            assert!(
                pos(edge.from()) < pos(edge.to()),
                "edge violates topo order"
            );
        }
        assert_eq!(topo.len(), cpg.len());
        assert_eq!(topo[0], cpg.source());
    }

    #[test]
    fn lookup_by_name_and_display() {
        let arch = arch();
        let mut b = Cpg::builder();
        let a = b.process("alpha", Time::new(1), pe(&arch, "pe1"));
        let z = b.process("omega", Time::new(1), pe(&arch, "pe1"));
        b.simple_edge(a, z, Time::ZERO);
        let cpg = b.build(&arch).unwrap();
        assert_eq!(cpg.process_by_name("alpha"), Some(a));
        assert_eq!(cpg.process_by_name("nope"), None);
        assert!(cpg.to_string().contains("4 processes"));
        assert!(!cpg.is_expanded());
    }
}
