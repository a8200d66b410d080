//! The target architecture: a named collection of processing elements.

use std::fmt;

use crate::error::BuildArchitectureError;
use crate::pe::{PeId, PeKind, ProcessingElement};

/// A heterogeneous target architecture: programmable processors, hardware
/// processors (ASICs) and shared buses.
///
/// Construct one with [`Architecture::builder`]. The collection is immutable
/// after construction, which lets every other crate hand out [`PeId`]s that
/// are guaranteed to stay valid.
///
/// # Example
///
/// ```
/// use cpg_arch::{Architecture, PeKind};
///
/// let arch = Architecture::builder()
///     .processor("pe1")
///     .processor("pe2")
///     .hardware("pe3")
///     .bus("pe4")
///     .build()?;
///
/// assert_eq!(arch.len(), 4);
/// assert_eq!(arch.processors().count(), 2);
/// assert_eq!(arch.computation_elements().count(), 3);
/// let bus = arch.buses().next().unwrap();
/// assert_eq!(arch.kind_of(bus), PeKind::Bus);
/// assert!(arch.broadcast_buses().next().is_some());
/// # Ok::<(), cpg_arch::BuildArchitectureError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Architecture {
    pes: Vec<ProcessingElement>,
}

impl Architecture {
    /// Starts building a new architecture.
    #[must_use]
    pub fn builder() -> ArchitectureBuilder {
        ArchitectureBuilder::new()
    }

    /// Number of processing elements (processors + hardware + buses).
    #[must_use]
    pub fn len(&self) -> usize {
        self.pes.len()
    }

    /// `true` when the architecture has no processing element.
    ///
    /// A successfully built architecture is never empty; this exists for
    /// API completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pes.is_empty()
    }

    /// The processing element behind an identifier.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this architecture.
    #[must_use]
    pub fn pe(&self, id: PeId) -> &ProcessingElement {
        &self.pes[id.0]
    }

    /// The kind of the processing element behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this architecture.
    #[must_use]
    pub fn kind_of(&self, id: PeId) -> PeKind {
        self.pes[id.0].kind
    }

    /// Looks up a processing element by its name.
    #[must_use]
    pub fn pe_by_name(&self, name: &str) -> Option<PeId> {
        self.pes.iter().position(|pe| pe.name == name).map(PeId)
    }

    /// Iterates over all processing element identifiers.
    pub fn ids(&self) -> impl Iterator<Item = PeId> + '_ {
        (0..self.pes.len()).map(PeId)
    }

    /// Iterates over the programmable processors.
    pub fn processors(&self) -> impl Iterator<Item = PeId> + '_ {
        self.of_kind(PeKind::Programmable)
    }

    /// Iterates over the hardware processors (ASICs).
    pub fn hardware(&self) -> impl Iterator<Item = PeId> + '_ {
        self.of_kind(PeKind::Hardware)
    }

    /// Iterates over the buses.
    pub fn buses(&self) -> impl Iterator<Item = PeId> + '_ {
        self.of_kind(PeKind::Bus)
    }

    /// Iterates over every computation resource (processors and hardware).
    pub fn computation_elements(&self) -> impl Iterator<Item = PeId> + '_ {
        self.ids().filter(|id| self.kind_of(*id).is_computation())
    }

    /// Iterates over the buses on which condition values may be broadcast,
    /// i.e. buses connected to all processors.
    pub fn broadcast_buses(&self) -> impl Iterator<Item = PeId> + '_ {
        self.ids()
            .filter(|id| self.kind_of(*id).is_bus() && self.pe(*id).connects_all)
    }

    /// `true` when condition values must be broadcast: there is more than
    /// one computation element, so a value computed on one reaches the others
    /// only over a bus, and a broadcast bus exists to carry it.
    ///
    /// [`ArchitectureBuilder::build`] rejects several computation elements
    /// without a broadcast bus, so for a built architecture this is "more
    /// than one computation element".
    #[must_use]
    pub fn needs_broadcast(&self) -> bool {
        self.computation_elements().nth(1).is_some() && self.broadcast_buses().next().is_some()
    }

    /// `true` when only one process/transfer at a time may execute on `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this architecture.
    #[must_use]
    pub fn is_exclusive(&self, id: PeId) -> bool {
        self.kind_of(id).is_exclusive()
    }

    fn of_kind(&self, kind: PeKind) -> impl Iterator<Item = PeId> + '_ {
        self.pes
            .iter()
            .enumerate()
            .filter(move |(_, pe)| pe.kind == kind)
            .map(|(i, _)| PeId(i))
    }
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "architecture with {} processors, {} hardware, {} buses",
            self.processors().count(),
            self.hardware().count(),
            self.buses().count()
        )
    }
}

/// Incremental builder for [`Architecture`].
///
/// # Example
///
/// ```
/// use cpg_arch::Architecture;
///
/// let arch = Architecture::builder()
///     .processor("cpu0")
///     .bus("shared-bus")
///     .build()?;
/// assert_eq!(arch.len(), 2);
/// # Ok::<(), cpg_arch::BuildArchitectureError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ArchitectureBuilder {
    pes: Vec<ProcessingElement>,
}

impl ArchitectureBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a programmable processor.
    #[must_use]
    pub fn processor(mut self, name: impl Into<String>) -> Self {
        self.pes.push(ProcessingElement {
            name: name.into(),
            kind: PeKind::Programmable,
            connects_all: true,
        });
        self
    }

    /// Adds a hardware processor (ASIC) able to run processes in parallel.
    #[must_use]
    pub fn hardware(mut self, name: impl Into<String>) -> Self {
        self.pes.push(ProcessingElement {
            name: name.into(),
            kind: PeKind::Hardware,
            connects_all: true,
        });
        self
    }

    /// Adds a shared bus connected to all processors (the common case assumed
    /// by the paper for condition broadcasting).
    #[must_use]
    pub fn bus(mut self, name: impl Into<String>) -> Self {
        self.pes.push(ProcessingElement {
            name: name.into(),
            kind: PeKind::Bus,
            connects_all: true,
        });
        self
    }

    /// Adds a bus that is *not* connected to every processor; it can carry
    /// point-to-point communications but no condition broadcasts.
    #[must_use]
    pub fn local_bus(mut self, name: impl Into<String>) -> Self {
        self.pes.push(ProcessingElement {
            name: name.into(),
            kind: PeKind::Bus,
            connects_all: false,
        });
        self
    }

    /// Number of elements added so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pes.len()
    }

    /// `true` when nothing has been added yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pes.is_empty()
    }

    /// Finishes construction, validating the architecture.
    ///
    /// # Errors
    ///
    /// * [`BuildArchitectureError::NoComputationResource`] when no processor or
    ///   hardware element was added.
    /// * [`BuildArchitectureError::DuplicateName`] when two elements share a name.
    /// * [`BuildArchitectureError::NoBus`] when there are at least two
    ///   computation resources but no bus.
    /// * [`BuildArchitectureError::NoBroadcastBus`] when buses exist but none is
    ///   connected to all processors.
    pub fn build(self) -> Result<Architecture, BuildArchitectureError> {
        let computation = self
            .pes
            .iter()
            .filter(|pe| pe.kind.is_computation())
            .count();
        if computation == 0 {
            return Err(BuildArchitectureError::NoComputationResource);
        }
        for (i, pe) in self.pes.iter().enumerate() {
            if self.pes[..i].iter().any(|other| other.name == pe.name) {
                return Err(BuildArchitectureError::DuplicateName(pe.name.clone()));
            }
        }
        let buses = self.pes.iter().filter(|pe| pe.kind.is_bus()).count();
        if computation > 1 && buses == 0 {
            return Err(BuildArchitectureError::NoBus);
        }
        if buses > 0
            && !self
                .pes
                .iter()
                .any(|pe| pe.kind.is_bus() && pe.connects_all)
        {
            return Err(BuildArchitectureError::NoBroadcastBus);
        }
        Ok(Architecture { pes: self.pes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Architecture {
        Architecture::builder()
            .processor("pe1")
            .processor("pe2")
            .hardware("pe3")
            .bus("pe4")
            .build()
            .unwrap()
    }

    #[test]
    fn builder_assigns_ids_in_insertion_order() {
        let arch = sample();
        assert_eq!(arch.pe_by_name("pe1"), Some(PeId(0)));
        assert_eq!(arch.pe_by_name("pe4"), Some(PeId(3)));
        assert_eq!(arch.pe_by_name("missing"), None);
    }

    #[test]
    fn kind_queries_partition_the_elements() {
        let arch = sample();
        assert_eq!(arch.len(), 4);
        assert!(!arch.is_empty());
        assert_eq!(arch.processors().count(), 2);
        assert_eq!(arch.hardware().count(), 1);
        assert_eq!(arch.buses().count(), 1);
        assert_eq!(arch.computation_elements().count(), 3);
        assert_eq!(
            arch.processors().count() + arch.hardware().count() + arch.buses().count(),
            arch.len()
        );
    }

    #[test]
    fn exclusivity_follows_kind() {
        let arch = sample();
        let pe1 = arch.pe_by_name("pe1").unwrap();
        let pe3 = arch.pe_by_name("pe3").unwrap();
        let pe4 = arch.pe_by_name("pe4").unwrap();
        assert!(arch.is_exclusive(pe1));
        assert!(!arch.is_exclusive(pe3));
        assert!(arch.is_exclusive(pe4));
    }

    #[test]
    fn broadcasts_are_needed_with_two_computation_elements() {
        let solo = Architecture::builder().processor("a").build().unwrap();
        assert!(!solo.needs_broadcast());
        // A bus does not make a single element distributed.
        let solo_with_bus = Architecture::builder()
            .processor("a")
            .bus("b")
            .build()
            .unwrap();
        assert!(!solo_with_bus.needs_broadcast());
        // Hardware counts as a computation element.
        let with_hardware = Architecture::builder()
            .processor("a")
            .hardware("h")
            .bus("b")
            .build()
            .unwrap();
        assert!(with_hardware.needs_broadcast());
        assert!(sample().needs_broadcast());
    }

    #[test]
    fn broadcast_buses_exclude_local_buses() {
        let arch = Architecture::builder()
            .processor("a")
            .processor("b")
            .bus("global")
            .local_bus("local")
            .build()
            .unwrap();
        let broadcast: Vec<_> = arch.broadcast_buses().collect();
        assert_eq!(broadcast.len(), 1);
        assert_eq!(arch.pe(broadcast[0]).name(), "global");
        assert_eq!(arch.buses().count(), 2);
    }

    #[test]
    fn empty_architecture_is_rejected() {
        assert_eq!(
            Architecture::builder().build(),
            Err(BuildArchitectureError::NoComputationResource)
        );
        assert_eq!(
            Architecture::builder().bus("b").build(),
            Err(BuildArchitectureError::NoComputationResource)
        );
    }

    #[test]
    fn duplicate_names_are_rejected() {
        assert_eq!(
            Architecture::builder()
                .processor("x")
                .hardware("x")
                .bus("b")
                .build(),
            Err(BuildArchitectureError::DuplicateName("x".into()))
        );
    }

    #[test]
    fn multiprocessor_without_bus_is_rejected() {
        assert_eq!(
            Architecture::builder()
                .processor("a")
                .processor("b")
                .build(),
            Err(BuildArchitectureError::NoBus)
        );
    }

    #[test]
    fn only_local_buses_is_rejected() {
        assert_eq!(
            Architecture::builder()
                .processor("a")
                .processor("b")
                .local_bus("l")
                .build(),
            Err(BuildArchitectureError::NoBroadcastBus)
        );
    }

    #[test]
    fn single_processor_without_bus_is_fine() {
        let arch = Architecture::builder().processor("solo").build().unwrap();
        assert_eq!(arch.len(), 1);
        assert_eq!(arch.buses().count(), 0);
    }

    #[test]
    fn display_summarizes_composition() {
        assert_eq!(
            sample().to_string(),
            "architecture with 2 processors, 1 hardware, 1 buses"
        );
    }
}
