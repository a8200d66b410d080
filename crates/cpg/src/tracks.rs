//! Enumeration of the alternative paths ("tracks") through a conditional
//! process graph.
//!
//! For a given execution of the system only a subset of the processes is
//! activated; that subset is determined by the values of the conditions
//! computed by the disjunction processes that actually run. Each such
//! combination is an *alternative path* `G_k ⊆ Γ` labelled by the conjunction
//! `L_k` of condition values that selects it (Section 4 of the paper). The
//! scheduling strategy first schedules every alternative path individually and
//! then merges the schedules into the global schedule table.

use std::fmt;
use std::ops::ControlFlow;

use crate::cond::{CondId, Cube};
use crate::graph::Cpg;
use crate::process::ProcessId;

/// One alternative path `G_k` through a conditional process graph together
/// with its label `L_k`.
///
/// # Example
///
/// ```
/// use cpg::examples;
/// use cpg::enumerate_tracks;
///
/// let system = examples::fig1();
/// let tracks = enumerate_tracks(system.cpg());
/// // The paper's Fig. 2 lists six alternative paths for the Fig. 1 graph.
/// assert_eq!(tracks.len(), 6);
/// for track in tracks.iter() {
///     assert!(track.contains(system.cpg().source()));
///     assert!(track.contains(system.cpg().sink()));
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Track {
    label: Cube,
    processes: Vec<ProcessId>,
    membership: Vec<bool>,
}

impl Track {
    /// The alternative path labelled `label`: every process whose guard the
    /// label implies.
    fn for_label(cpg: &Cpg, label: Cube) -> Self {
        let mut membership = vec![false; cpg.len()];
        let mut processes = Vec::new();
        for id in cpg.process_ids() {
            if cpg.guard(id).implied_by(&label) {
                membership[id.index()] = true;
                processes.push(id);
            }
        }
        Track {
            label,
            processes,
            membership,
        }
    }

    /// The label `L_k`: the conjunction of condition values selecting this
    /// path.
    #[must_use]
    pub const fn label(&self) -> Cube {
        self.label
    }

    /// The processes activated on this path, in ascending identifier order
    /// (includes the dummy source and sink).
    #[must_use]
    pub fn processes(&self) -> &[ProcessId] {
        &self.processes
    }

    /// Number of processes activated on this path.
    #[must_use]
    pub fn len(&self) -> usize {
        self.processes.len()
    }

    /// `true` when the path contains no process (never the case for tracks
    /// produced by [`enumerate_tracks`]).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.processes.is_empty()
    }

    /// `true` when the given process is activated on this path.
    #[must_use]
    pub fn contains(&self, id: ProcessId) -> bool {
        self.membership.get(id.index()).copied().unwrap_or(false)
    }

    /// The conditions whose value is determined on this path (i.e. whose
    /// disjunction process executes).
    pub fn determined_conditions(&self) -> impl Iterator<Item = CondId> + '_ {
        self.label.conditions()
    }
}

impl fmt::Display for Track {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "track {} ({} processes)", self.label, self.len())
    }
}

/// The complete set of alternative paths of a conditional process graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackSet {
    tracks: Vec<Track>,
}

impl TrackSet {
    /// Number of alternative paths (`N_alt` in the paper).
    #[must_use]
    pub fn len(&self) -> usize {
        self.tracks.len()
    }

    /// `true` when there are no tracks (never the case for a valid graph).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tracks.is_empty()
    }

    /// The tracks, in deterministic enumeration order (true branches first).
    #[must_use]
    pub fn tracks(&self) -> &[Track] {
        &self.tracks
    }

    /// Iterates over the tracks.
    pub fn iter(&self) -> impl Iterator<Item = &Track> + '_ {
        self.tracks.iter()
    }

    /// The track with exactly this label, if any.
    #[must_use]
    pub fn by_label(&self, label: &Cube) -> Option<&Track> {
        self.tracks.iter().find(|t| t.label() == *label)
    }
}

impl<'a> IntoIterator for &'a TrackSet {
    type Item = &'a Track;
    type IntoIter = std::slice::Iter<'a, Track>;

    fn into_iter(self) -> Self::IntoIter {
        self.tracks.iter()
    }
}

impl fmt::Display for TrackSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} alternative paths", self.len())
    }
}

/// Enumerates every alternative path of a conditional process graph.
///
/// The enumeration recursively assigns a value to every condition whose
/// disjunction process is activated under the current partial assignment;
/// conditions whose disjunction process lies on an inactive branch are never
/// assigned, exactly as at run time. True branches are explored before false
/// branches, so the order of the returned tracks is deterministic.
///
/// The number of tracks doubles with every independent condition; bound it
/// first with [`count_tracks`] when the graph is untrusted.
#[must_use]
pub fn enumerate_tracks(cpg: &Cpg) -> TrackSet {
    let mut tracks = Vec::new();
    let _ = explore(cpg, &mut Cube::top(), &mut |label| {
        tracks.push(Track::for_label(cpg, label));
        ControlFlow::Continue(())
    });
    TrackSet { tracks }
}

/// The number of alternative paths of `cpg`, or `None` as soon as the
/// enumeration finds more than `limit`. It walks the labels in
/// [`enumerate_tracks`] order and builds no track, so its cost is bounded
/// by `limit` whatever the graph.
#[must_use]
pub fn count_tracks(cpg: &Cpg, limit: usize) -> Option<usize> {
    let mut count = 0;
    let flow = explore(cpg, &mut Cube::top(), &mut |_| {
        count += 1;
        if count > limit {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    flow.is_continue().then_some(count)
}

/// Visits the label of every alternative path reachable from the partial
/// `assignment`, in enumeration order, until `visit` breaks. `assignment`
/// is restored unless the walk breaks.
fn explore<F>(cpg: &Cpg, assignment: &mut Cube, visit: &mut F) -> ControlFlow<()>
where
    F: FnMut(Cube) -> ControlFlow<()>,
{
    // A disjunction process is pending when it is active under the current
    // partial assignment but its condition has not been assigned yet.
    let pending = cpg.conditions().find(|&cond| {
        !assignment.mentions(cond) && cpg.guard(cpg.disjunction_of(cond)).implied_by(assignment)
    });

    match pending {
        Some(cond) => {
            assignment.assign(cond, true);
            explore(cpg, assignment, visit)?;
            assignment.assign(cond, false);
            explore(cpg, assignment, visit)?;
            *assignment = assignment.without(cond);
            ControlFlow::Continue(())
        }
        None => visit(*assignment),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CpgBuilder;
    use cpg_arch::{Architecture, Time};

    fn arch() -> Architecture {
        Architecture::builder()
            .processor("pe1")
            .processor("pe2")
            .bus("bus")
            .build()
            .unwrap()
    }

    /// root -(C)-> a ; root -(!C)-> b ; a,b -> join (conjunction).
    fn diamond() -> (Cpg, CondId, [ProcessId; 4]) {
        let arch = arch();
        let pe1 = arch.pe_by_name("pe1").unwrap();
        let mut b = CpgBuilder::new();
        let c = b.condition("C");
        let root = b.process("root", Time::new(1), pe1);
        let a = b.process("a", Time::new(2), pe1);
        let bb = b.process("b", Time::new(2), pe1);
        let join = b.process("join", Time::new(1), pe1);
        b.conditional_edge(root, a, c.is_true(), Time::ZERO);
        b.conditional_edge(root, bb, c.is_false(), Time::ZERO);
        b.simple_edge(a, join, Time::ZERO);
        b.simple_edge(bb, join, Time::ZERO);
        b.mark_conjunction(join);
        (b.build(&arch).unwrap(), c, [root, a, bb, join])
    }

    #[test]
    fn unconditional_graph_has_a_single_track() {
        let arch = arch();
        let pe1 = arch.pe_by_name("pe1").unwrap();
        let mut b = CpgBuilder::new();
        let a = b.process("A", Time::new(1), pe1);
        let z = b.process("Z", Time::new(1), pe1);
        b.simple_edge(a, z, Time::ZERO);
        let cpg = b.build(&arch).unwrap();
        let tracks = enumerate_tracks(&cpg);
        assert_eq!(tracks.len(), 1);
        let track = &tracks.tracks()[0];
        assert!(track.label().is_top());
        assert_eq!(track.len(), cpg.len());
    }

    #[test]
    fn diamond_has_two_mutually_exclusive_tracks() {
        let (cpg, c, [root, a, bb, join]) = diamond();
        let tracks = enumerate_tracks(&cpg);
        assert_eq!(tracks.len(), 2);
        let t_true = tracks.by_label(&Cube::from(c.is_true())).unwrap();
        let t_false = tracks.by_label(&Cube::from(c.is_false())).unwrap();
        assert!(t_true.contains(a) && !t_true.contains(bb));
        assert!(t_false.contains(bb) && !t_false.contains(a));
        for t in [t_true, t_false] {
            assert!(t.contains(root));
            assert!(t.contains(join));
            assert!(t.contains(cpg.source()));
            assert!(t.contains(cpg.sink()));
        }
        assert!(t_true.label().excludes(&t_false.label()));
    }

    #[test]
    fn determined_conditions_and_display() {
        let (cpg, c, _) = diamond();
        let tracks = enumerate_tracks(&cpg);
        for t in tracks.iter() {
            assert_eq!(t.determined_conditions().collect::<Vec<_>>(), vec![c]);
        }
        assert_eq!(tracks.to_string(), "2 alternative paths");
    }

    #[test]
    fn nested_conditions_yield_three_tracks() {
        // root -(C)-> mid; mid -(D)-> x, mid -(!D)-> y; root -(!C)-> z
        let arch = arch();
        let pe1 = arch.pe_by_name("pe1").unwrap();
        let mut b = CpgBuilder::new();
        let c = b.condition("C");
        let d = b.condition("D");
        let root = b.process("root", Time::new(1), pe1);
        let mid = b.process("mid", Time::new(1), pe1);
        let x = b.process("x", Time::new(1), pe1);
        let y = b.process("y", Time::new(1), pe1);
        let z = b.process("z", Time::new(1), pe1);
        b.conditional_edge(root, mid, c.is_true(), Time::ZERO);
        b.conditional_edge(root, z, c.is_false(), Time::ZERO);
        b.conditional_edge(mid, x, d.is_true(), Time::ZERO);
        b.conditional_edge(mid, y, d.is_false(), Time::ZERO);
        let cpg = b.build(&arch).unwrap();
        let tracks = enumerate_tracks(&cpg);
        assert_eq!(tracks.len(), 3);
        // D is only determined when C is true.
        let not_c = tracks.by_label(&Cube::from(c.is_false())).unwrap();
        assert_eq!(not_c.determined_conditions().count(), 1);
        let c_and_d: Cube = [c.is_true(), d.is_true()].into_iter().collect();
        assert!(tracks.by_label(&c_and_d).is_some());
        assert_eq!(count_tracks(&cpg, 3), Some(3));
        assert_eq!(count_tracks(&cpg, 2), None);
    }

    #[test]
    fn track_labels_are_pairwise_exclusive_and_processes_sorted() {
        let (cpg, _, _) = diamond();
        let tracks = enumerate_tracks(&cpg);
        for (i, a) in tracks.iter().enumerate() {
            for b in tracks.tracks().iter().skip(i + 1) {
                assert!(a.label().excludes(&b.label()));
            }
            let mut sorted = a.processes().to_vec();
            sorted.sort();
            assert_eq!(sorted, a.processes());
            assert!(!a.is_empty());
        }
        assert!(!tracks.is_empty());
        assert_eq!((&tracks).into_iter().count(), tracks.len());
    }
}
