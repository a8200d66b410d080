//! Processing elements: programmable processors, hardware processors and buses.

use std::fmt;

/// Identifier of a processing element inside an [`Architecture`].
///
/// Processing elements cover all the resources of the paper's target
/// architecture: programmable processors, hardware processors (ASICs) *and*
/// shared buses — the latter because communication processes are mapped to
/// buses exactly like computation processes are mapped to processors.
///
/// [`Architecture`]: crate::Architecture
///
/// # Example
///
/// ```
/// use cpg_arch::Architecture;
///
/// let arch = Architecture::builder().processor("pe1").bus("bus0").build()?;
/// let pe1 = arch.pe_by_name("pe1").unwrap();
/// assert_eq!(arch.pe(pe1).name(), "pe1");
/// # Ok::<(), cpg_arch::BuildArchitectureError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeId(pub(crate) usize);

impl PeId {
    /// Returns the position of this processing element inside its architecture.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }

    /// Creates an identifier from a raw index.
    ///
    /// Prefer obtaining identifiers from [`Architecture`](crate::Architecture)
    /// queries; this constructor exists for deserialization-style use cases and
    /// tests.
    #[must_use]
    pub const fn from_index(index: usize) -> Self {
        PeId(index)
    }

    /// `pe` in 4 bytes (an `Option<PeId>` takes 16): its index, or
    /// `u32::MAX` for `None`. [`PeId::unpack`] inverts it. Tables that are
    /// kept for long, one entry per job, store resources this way.
    ///
    /// # Example
    ///
    /// ```
    /// use cpg_arch::PeId;
    ///
    /// let pe = Some(PeId::from_index(3));
    /// assert_eq!(PeId::unpack(PeId::pack(pe)), pe);
    /// assert_eq!(PeId::unpack(PeId::pack(None)), None);
    /// ```
    #[must_use]
    pub const fn pack(pe: Option<PeId>) -> u32 {
        match pe {
            Some(PeId(index)) => {
                assert!(
                    index < u32::MAX as usize,
                    "processing element index beyond 32 bits"
                );
                index as u32
            }
            None => u32::MAX,
        }
    }

    /// The optional processing element a [`PeId::pack`] code stands for.
    #[must_use]
    pub const fn unpack(code: u32) -> Option<PeId> {
        if code == u32::MAX {
            None
        } else {
            Some(PeId(code as usize))
        }
    }
}

impl fmt::Display for PeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pe#{}", self.0)
    }
}

/// The kind of a processing element, which determines its concurrency rules.
///
/// * [`PeKind::Programmable`] — a CPU core: executes one process at a time.
/// * [`PeKind::Hardware`] — an ASIC: executes any number of processes in
///   parallel.
/// * [`PeKind::Bus`] — a shared bus: carries one data transfer at a time and
///   hosts communication processes and condition broadcasts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PeKind {
    /// A programmable processor (sequential execution).
    Programmable,
    /// An application-specific hardware processor (parallel execution).
    Hardware,
    /// A shared communication bus (sequential transfers).
    Bus,
}

impl PeKind {
    /// `true` when only a single process/transfer may be active at a time.
    ///
    /// # Example
    ///
    /// ```
    /// use cpg_arch::PeKind;
    /// assert!(PeKind::Programmable.is_exclusive());
    /// assert!(PeKind::Bus.is_exclusive());
    /// assert!(!PeKind::Hardware.is_exclusive());
    /// ```
    #[must_use]
    pub const fn is_exclusive(self) -> bool {
        matches!(self, PeKind::Programmable | PeKind::Bus)
    }

    /// `true` for communication resources (buses).
    #[must_use]
    pub const fn is_bus(self) -> bool {
        matches!(self, PeKind::Bus)
    }

    /// `true` for computation resources (processors and hardware).
    #[must_use]
    pub const fn is_computation(self) -> bool {
        !self.is_bus()
    }
}

impl fmt::Display for PeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self {
            PeKind::Programmable => "programmable processor",
            PeKind::Hardware => "hardware processor",
            PeKind::Bus => "bus",
        };
        f.write_str(label)
    }
}

/// A single processing element of the target architecture.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProcessingElement {
    pub(crate) name: String,
    pub(crate) kind: PeKind,
    /// For buses only: whether every programmable/hardware processor is
    /// connected to this bus. Condition values are broadcast on such buses.
    pub(crate) connects_all: bool,
}

impl ProcessingElement {
    /// The human-readable name given at construction time.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The kind (processor / hardware / bus) of this element.
    #[must_use]
    pub const fn kind(&self) -> PeKind {
        self.kind
    }
}

impl fmt::Display for ProcessingElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusivity_rules_match_the_paper() {
        assert!(PeKind::Programmable.is_exclusive());
        assert!(PeKind::Bus.is_exclusive());
        assert!(!PeKind::Hardware.is_exclusive());
    }

    #[test]
    fn bus_and_computation_classification() {
        assert!(PeKind::Bus.is_bus());
        assert!(!PeKind::Bus.is_computation());
        assert!(PeKind::Programmable.is_computation());
        assert!(PeKind::Hardware.is_computation());
    }

    #[test]
    fn pe_id_display_and_index() {
        let id = PeId::from_index(3);
        assert_eq!(id.index(), 3);
        assert_eq!(id.to_string(), "pe#3");
    }

    #[test]
    fn kind_display_is_readable() {
        assert_eq!(PeKind::Hardware.to_string(), "hardware processor");
        assert_eq!(PeKind::Bus.to_string(), "bus");
    }
}
