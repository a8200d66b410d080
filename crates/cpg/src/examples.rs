//! Ready-made example systems, including a reconstruction of the paper's
//! Fig. 1 graph.

use cpg_arch::{Architecture, Time};

use crate::cond::CondId;
use crate::expand::{expand_communications, BusPolicy};
use crate::graph::{Cpg, CpgBuilder};

/// A complete example system: target architecture, the designer-level graph
/// and its expansion with communication processes.
///
/// # Example
///
/// ```
/// use cpg::examples;
///
/// let system = examples::fig1();
/// assert_eq!(system.cpg().ordinary_processes().count(), 17);
/// assert_eq!(system.cpg().communication_processes().count(), 14);
/// assert_eq!(system.cpg().num_conditions(), 3);
/// assert!(system.condition("C").is_some());
/// ```
#[derive(Debug, Clone)]
pub struct ExampleSystem {
    arch: Architecture,
    unexpanded: Cpg,
    cpg: Cpg,
    broadcast_time: Time,
}

impl ExampleSystem {
    fn new(arch: Architecture, unexpanded: Cpg, broadcast_time: Time) -> Self {
        let cpg = expand_communications(&unexpanded, &arch, BusPolicy::FirstBus)
            .expect("example graphs expand cleanly");
        ExampleSystem {
            arch,
            unexpanded,
            cpg,
            broadcast_time,
        }
    }

    /// The target architecture.
    #[must_use]
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }

    /// The full conditional process graph including communication processes.
    #[must_use]
    pub fn cpg(&self) -> &Cpg {
        &self.cpg
    }

    /// The designer-level graph before communication expansion.
    #[must_use]
    pub fn unexpanded(&self) -> &Cpg {
        &self.unexpanded
    }

    /// The time `τ0` needed to broadcast a condition value on a bus.
    #[must_use]
    pub fn broadcast_time(&self) -> Time {
        self.broadcast_time
    }

    /// Looks up a condition by its designer-given name.
    #[must_use]
    pub fn condition(&self, name: &str) -> Option<CondId> {
        self.cpg
            .conditions()
            .find(|&c| self.cpg.condition_name(c) == name)
    }
}

/// Reconstruction of the conditional process graph of the paper's Fig. 1.
///
/// Seventeen ordinary processes P1–P17 are mapped onto two programmable
/// processors, one hardware processor and a single shared bus; expansion adds
/// the fourteen communication processes of the figure. Execution times,
/// communication times, the process mapping, the three conditions (`C`
/// computed by P2, `D` by P11, `K` by P12 — active only when `D` holds) and
/// the guards quoted in the paper (`X_P3 = true`, `X_P5 = C`,
/// `X_P14 = D ∧ K`, `X_P17 = true`) are all reproduced. The exact placement of
/// the figure's unlabelled intra-processor edges is not machine-readable from
/// the paper, so this graph is a faithful reconstruction rather than a copy;
/// it has the same six alternative paths as the paper's Fig. 2.
///
/// The paper uses a condition-broadcast time `τ0 = 1` for this example.
#[must_use]
pub fn fig1() -> ExampleSystem {
    let arch = Architecture::builder()
        .processor("pe1")
        .processor("pe2")
        .hardware("pe3")
        .bus("pe4")
        .build()
        .expect("fig1 architecture is valid");
    let pe1 = arch.pe_by_name("pe1").expect("pe1 exists");
    let pe2 = arch.pe_by_name("pe2").expect("pe2 exists");
    let pe3 = arch.pe_by_name("pe3").expect("pe3 exists");

    let mut b = CpgBuilder::new();
    let c = b.condition("C");
    let d = b.condition("D");
    let k = b.condition("K");

    let t = Time::new;
    let p1 = b.process("P1", t(3), pe1);
    let p2 = b.process("P2", t(4), pe1);
    let p3 = b.process("P3", t(12), pe2);
    let p4 = b.process("P4", t(5), pe1);
    let p5 = b.process("P5", t(3), pe2);
    let p6 = b.process("P6", t(5), pe1);
    let p7 = b.process("P7", t(3), pe2);
    let p8 = b.process("P8", t(4), pe3);
    let p9 = b.process("P9", t(5), pe1);
    let p10 = b.process("P10", t(5), pe1);
    let p11 = b.process("P11", t(6), pe2);
    let p12 = b.process("P12", t(6), pe3);
    let p13 = b.process("P13", t(8), pe1);
    let p14 = b.process("P14", t(2), pe2);
    let p15 = b.process("P15", t(6), pe2);
    let p16 = b.process("P16", t(4), pe3);
    let p17 = b.process("P17", t(2), pe2);

    // Left half: condition C computed by P2.
    b.simple_edge(p1, p2, Time::ZERO);
    b.simple_edge(p1, p3, t(1)); // t1,3 = 1
    b.conditional_edge(p2, p5, c.is_true(), t(3)); // t2,5 = 3
    b.conditional_edge(p2, p4, c.is_false(), Time::ZERO);
    b.conditional_edge(p2, p6, c.is_true(), Time::ZERO);
    b.simple_edge(p2, p9, Time::ZERO);
    b.simple_edge(p3, p6, t(2)); // t3,6 = 2
    b.simple_edge(p3, p10, t(2)); // t3,10 = 2
    b.simple_edge(p4, p7, t(3)); // t4,7 = 3
    b.simple_edge(p6, p8, t(3)); // t6,8 = 3
    b.simple_edge(p7, p10, t(2)); // t7,10 = 2
    b.simple_edge(p8, p10, t(2)); // t8,10 = 2
    b.mark_conjunction(p10);

    // Right half: condition D computed by P11, K by P12 (only when D holds).
    b.conditional_edge(p11, p12, d.is_true(), t(1)); // t11,12 = 1
    b.conditional_edge(p11, p13, d.is_false(), t(2)); // t11,13 = 2
    b.conditional_edge(p12, p14, k.is_true(), t(1)); // t12,14 = 1
    b.conditional_edge(p12, p15, k.is_false(), t(3)); // t12,15 = 3
    b.simple_edge(p12, p16, Time::ZERO);
    b.simple_edge(p13, p17, t(2)); // t13,17 = 2
    b.simple_edge(p16, p17, t(2)); // t16,17 = 2
    b.simple_edge(p14, p17, Time::ZERO);
    b.simple_edge(p15, p17, Time::ZERO);
    b.mark_conjunction(p17);

    let cpg = b.build(&arch).expect("fig1 graph is valid");
    ExampleSystem::new(arch, cpg, Time::new(1))
}

/// A small two-condition system used throughout the documentation and tests:
/// a sensor process branches on condition `C`, the `C` branch itself branches
/// on condition `D`, and all branches meet again before an actuator process.
///
/// Four alternative paths; two programmable processors and one bus.
#[must_use]
pub fn sensor_actuator() -> ExampleSystem {
    let arch = Architecture::builder()
        .processor("cpu0")
        .processor("cpu1")
        .bus("bus")
        .build()
        .expect("architecture is valid");
    let cpu0 = arch.pe_by_name("cpu0").expect("cpu0 exists");
    let cpu1 = arch.pe_by_name("cpu1").expect("cpu1 exists");

    let mut b = CpgBuilder::new();
    let c = b.condition("C");
    let d = b.condition("D");
    let t = Time::new;

    let sense = b.process("sense", t(2), cpu0);
    let classify = b.process("classify", t(3), cpu0);
    let fast = b.process("fast_path", t(2), cpu1);
    let slow = b.process("slow_path", t(6), cpu1);
    let refine = b.process("refine", t(4), cpu0);
    let fallback = b.process("fallback", t(3), cpu1);
    let fuse = b.process("fuse", t(2), cpu0);
    let act = b.process("actuate", t(1), cpu0);

    b.simple_edge(sense, classify, Time::ZERO);
    b.conditional_edge(classify, fast, c.is_true(), t(1));
    b.conditional_edge(classify, slow, c.is_false(), t(1));
    b.conditional_edge(fast, refine, d.is_true(), t(1));
    b.conditional_edge(fast, fallback, d.is_false(), t(1));
    b.simple_edge(refine, fuse, Time::ZERO);
    b.simple_edge(fallback, fuse, t(1));
    b.simple_edge(slow, fuse, t(1));
    b.mark_conjunction(fuse);
    b.simple_edge(fuse, act, Time::ZERO);

    let cpg = b.build(&arch).expect("sensor/actuator graph is valid");
    ExampleSystem::new(arch, cpg, Time::new(1))
}

/// The smallest interesting conditional system: one disjunction, two
/// alternative branches on different processors, one conjunction.
///
/// Useful as a quick-start example and in unit tests of downstream crates.
#[must_use]
pub fn diamond() -> ExampleSystem {
    let arch = Architecture::builder()
        .processor("cpu0")
        .processor("cpu1")
        .bus("bus")
        .build()
        .expect("architecture is valid");
    let cpu0 = arch.pe_by_name("cpu0").expect("cpu0 exists");
    let cpu1 = arch.pe_by_name("cpu1").expect("cpu1 exists");

    let mut b = CpgBuilder::new();
    let c = b.condition("C");
    let t = Time::new;
    let root = b.process("decide", t(2), cpu0);
    let hot = b.process("hot", t(4), cpu1);
    let cold = b.process("cold", t(3), cpu0);
    let join = b.process("join", t(1), cpu0);
    b.conditional_edge(root, hot, c.is_true(), t(1));
    b.conditional_edge(root, cold, c.is_false(), Time::ZERO);
    b.simple_edge(hot, join, t(1));
    b.simple_edge(cold, join, Time::ZERO);
    b.mark_conjunction(join);

    let cpg = b.build(&arch).expect("diamond graph is valid");
    ExampleSystem::new(arch, cpg, Time::new(1))
}

/// A crafted system where a lock inherited by the merge *must* slip.
///
/// `victim` runs early on the longest path (tabled in the `C` column before
/// the condition resolves), but on the opposite branch it additionally
/// consumes the output of `slow`, which can only start once `¬C` is known,
/// long after the tabled time. `victim` joins the two alternatives: it
/// executes on every path and waits for `slow` only where `slow` runs. A
/// merge of [`unexpanded`](ExampleSystem::unexpanded) has to feed the
/// slipped entry back through its slip-repair loop.
///
/// Two programmable processors and one bus; the broadcast time is
/// `τ0 = 2`.
#[must_use]
pub fn slipping() -> ExampleSystem {
    let arch = Architecture::builder()
        .processor("cpu0")
        .processor("cpu1")
        .bus("bus")
        .build()
        .expect("architecture is valid");
    let cpu0 = arch.pe_by_name("cpu0").expect("cpu0 exists");
    let cpu1 = arch.pe_by_name("cpu1").expect("cpu1 exists");

    let mut b = CpgBuilder::new();
    let c = b.condition("C");
    let t = Time::new;
    let root = b.process("root", t(10), cpu0);
    let quick = b.process("quick", t(1), cpu1);
    let victim = b.process("victim", t(2), cpu1);
    let slow = b.process("slow", t(3), cpu1);
    let tail = b.process("tail", t(20), cpu0);
    b.simple_edge(quick, victim, Time::ZERO);
    b.conditional_edge(root, slow, c.is_false(), Time::ZERO);
    b.conditional_edge(root, tail, c.is_true(), Time::ZERO);
    b.simple_edge(slow, victim, Time::ZERO);
    b.mark_conjunction(victim);

    let cpg = b.build(&arch).expect("slipping graph is valid");
    ExampleSystem::new(arch, cpg, t(2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::Cube;
    use crate::tracks::enumerate_tracks;

    #[test]
    fn fig1_has_the_published_process_counts() {
        let system = fig1();
        assert_eq!(system.unexpanded().ordinary_processes().count(), 17);
        assert_eq!(system.cpg().ordinary_processes().count(), 17);
        // The paper inserts communication processes P18..P31: fourteen of them.
        assert_eq!(system.cpg().communication_processes().count(), 14);
        assert_eq!(system.cpg().num_conditions(), 3);
        assert_eq!(system.broadcast_time(), Time::new(1));
    }

    #[test]
    fn fig1_has_six_alternative_paths_like_fig2() {
        let system = fig1();
        let tracks = enumerate_tracks(system.cpg());
        assert_eq!(tracks.len(), 6);
        // K is determined only when D holds: 4 three-condition labels and 2
        // two-condition labels.
        let three = tracks.iter().filter(|t| t.label().len() == 3).count();
        let two = tracks.iter().filter(|t| t.label().len() == 2).count();
        assert_eq!(three, 4);
        assert_eq!(two, 2);
    }

    #[test]
    fn fig1_guards_match_the_paper() {
        let system = fig1();
        let cpg = system.cpg();
        let c = system.condition("C").unwrap();
        let d = system.condition("D").unwrap();
        let k = system.condition("K").unwrap();

        let by_name = |n: &str| cpg.process_by_name(n).unwrap();
        assert!(cpg.guard(by_name("P3")).is_true());
        assert!(cpg.guard(by_name("P17")).is_true());
        assert_eq!(
            cpg.guard(by_name("P5")).as_cube(),
            Some(Cube::from(c.is_true()))
        );
        let dk: Cube = [d.is_true(), k.is_true()].into_iter().collect();
        assert_eq!(cpg.guard(by_name("P14")).as_cube(), Some(dk));
        // Disjunction processes.
        assert_eq!(cpg.disjunction_of(c), by_name("P2"));
        assert_eq!(cpg.disjunction_of(d), by_name("P11"));
        assert_eq!(cpg.disjunction_of(k), by_name("P12"));
    }

    #[test]
    fn fig1_mapping_matches_the_paper() {
        let system = fig1();
        let cpg = system.cpg();
        let arch = system.arch();
        let pe_of = |n: &str| {
            let id = cpg.process_by_name(n).unwrap();
            arch.pe(cpg.mapping(id).unwrap()).name().to_owned()
        };
        for p in ["P1", "P2", "P4", "P6", "P9", "P10", "P13"] {
            assert_eq!(pe_of(p), "pe1", "{p} should be on pe1");
        }
        for p in ["P3", "P5", "P7", "P11", "P14", "P15", "P17"] {
            assert_eq!(pe_of(p), "pe2", "{p} should be on pe2");
        }
        for p in ["P8", "P12", "P16"] {
            assert_eq!(pe_of(p), "pe3", "{p} should be on pe3");
        }
        // All communications on the unique bus pe4.
        for comm in cpg.communication_processes() {
            assert_eq!(arch.pe(cpg.mapping(comm).unwrap()).name(), "pe4");
        }
    }

    #[test]
    fn fig1_execution_times_match_the_paper() {
        let system = fig1();
        let cpg = system.cpg();
        let expected = [
            ("P1", 3),
            ("P2", 4),
            ("P3", 12),
            ("P4", 5),
            ("P5", 3),
            ("P6", 5),
            ("P7", 3),
            ("P8", 4),
            ("P9", 5),
            ("P10", 5),
            ("P11", 6),
            ("P12", 6),
            ("P13", 8),
            ("P14", 2),
            ("P15", 6),
            ("P16", 4),
            ("P17", 2),
        ];
        for (name, time) in expected {
            let id = cpg.process_by_name(name).unwrap();
            assert_eq!(cpg.exec_time(id), Time::new(time), "{name}");
        }
        let comm_expected = [
            ("P1->P3", 1),
            ("P2->P5", 3),
            ("P3->P6", 2),
            ("P3->P10", 2),
            ("P4->P7", 3),
            ("P6->P8", 3),
            ("P7->P10", 2),
            ("P8->P10", 2),
            ("P11->P12", 1),
            ("P11->P13", 2),
            ("P12->P14", 1),
            ("P12->P15", 3),
            ("P13->P17", 2),
            ("P16->P17", 2),
        ];
        for (name, time) in comm_expected {
            let id = cpg.process_by_name(name).unwrap();
            assert_eq!(cpg.exec_time(id), Time::new(time), "{name}");
        }
    }

    #[test]
    fn sensor_actuator_has_three_tracks() {
        let system = sensor_actuator();
        let tracks = enumerate_tracks(system.cpg());
        // D is only determined on the C branch: C&D, C&!D, !C.
        assert_eq!(tracks.len(), 3);
        assert!(system.condition("C").is_some());
        assert!(system.condition("nope").is_none());
    }

    #[test]
    fn diamond_is_expanded_and_small() {
        let system = diamond();
        assert_eq!(system.cpg().ordinary_processes().count(), 4);
        assert!(system.cpg().communication_processes().count() >= 1);
        assert_eq!(enumerate_tracks(system.cpg()).len(), 2);
    }
}
