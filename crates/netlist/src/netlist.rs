use crate::cell::FanoutList;
use crate::{Branch, Cell, EditDelta, Fanout, GateKind, NetlistError, SignalId};
use std::collections::HashMap;
use std::sync::Arc;

/// A primary output: a named binding to a driving signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrimaryOutput {
    pub(crate) name: Arc<str>,
    pub(crate) driver: SignalId,
}

impl PrimaryOutput {
    /// The output port name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The signal driving this output.
    #[must_use]
    pub fn driver(&self) -> SignalId {
        self.driver
    }
}

/// A mutable combinational netlist: the substrate of the whole GDO system.
///
/// See the [crate-level documentation](crate) for the signal model. All
/// editing operations keep the per-signal fanout tables consistent;
/// [`Netlist::validate`](crate::Netlist::validate) cross-checks every
/// invariant and is run liberally by the test suites.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    pub(crate) name: String,
    pub(crate) cells: Vec<Option<Cell>>,
    /// Every cell's fanins, back to back (see [`Cell::pins`]). A deleted
    /// cell's entries stay behind unused.
    pub(crate) pins: Vec<SignalId>,
    pub(crate) fanouts: Vec<FanoutList>,
    pub(crate) pis: Vec<SignalId>,
    pub(crate) pos: Vec<PrimaryOutput>,
    /// Shared between clones until one of them binds or drops a name.
    pub(crate) by_name: Arc<HashMap<Arc<str>, SignalId>>,
    pub(crate) free: Vec<u32>,
    pub(crate) journal: Option<EditDelta>,
}

impl std::fmt::Display for Netlist {
    /// Compact human-readable listing: header, then one line per gate in
    /// topological order. Intended for debugging and small examples; use
    /// the `formats` crate for interchange.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "netlist {} ({})", self.name, self.stats())?;
        let inputs: Vec<String> = self.pis.iter().map(|s| s.to_string()).collect();
        writeln!(f, "  inputs: {}", inputs.join(" "))?;
        match self.topo_order() {
            Ok(order) => {
                for s in order {
                    let cell = self.cell(s);
                    if cell.kind().is_source() && cell.kind() == GateKind::Input {
                        continue;
                    }
                    let fanins: Vec<String> =
                        self.fanins(s).iter().map(|x| x.to_string()).collect();
                    write!(f, "  {s} = {}({})", cell.kind(), fanins.join(", "))?;
                    if let Some(name) = cell.name() {
                        write!(f, "  # {name}")?;
                    }
                    writeln!(f)?;
                }
            }
            Err(_) => writeln!(f, "  <cyclic>")?,
        }
        for po in &self.pos {
            writeln!(f, "  output {} = {}", po.name, po.driver)?;
        }
        Ok(())
    }
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            ..Netlist::default()
        }
    }

    /// The design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the design.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Adds a cell of `kind` over `fanins` (appended to the pin table) in
    /// a free slot, or a new one.
    fn alloc(&mut self, kind: GateKind, fanins: &[SignalId]) -> SignalId {
        let arity = u16::try_from(fanins.len()).expect("arity checked by the caller");
        // Grow by an eighth rather than doubling: a netlist edited after
        // cloning keeps little unused capacity.
        if self.pins.capacity() - self.pins.len() < fanins.len() {
            self.pins
                .reserve_exact(fanins.len().max(self.pins.len() / 8 + 16));
        }
        let at = u32::try_from(self.pins.len()).expect("pin table overflows u32");
        self.pins.extend_from_slice(fanins);
        let cell = Some(Cell {
            kind,
            arity,
            at,
            lib: None,
            name: None,
        });
        let id = if let Some(slot) = self.free.pop() {
            self.cells[slot as usize] = cell;
            self.fanouts[slot as usize] = FanoutList::default();
            SignalId::from_index(slot as usize)
        } else {
            self.cells.push(cell);
            self.fanouts.push(FanoutList::default());
            SignalId::from_index(self.cells.len() - 1)
        };
        self.touch(id);
        id
    }

    /// Names the live cell `id` and binds the name in the name index.
    fn bind_name(&mut self, name: String, id: SignalId) {
        Arc::make_mut(&mut self.by_name).insert(name.as_str().into(), id);
        self.cells[id.index()].as_mut().expect("live cell").name = Some(Arc::new(name));
    }

    /// Starts (or restarts, clearing any pending delta) edit journaling:
    /// subsequent structural mutations mark the signals they affect, to be
    /// drained with [`take_delta`](Self::take_delta).
    ///
    /// Journaling is off by default; a netlist without an active journal
    /// pays one branch per edit.
    pub fn record_edits(&mut self) {
        match &mut self.journal {
            Some(delta) => delta.clear(),
            None => self.journal = Some(EditDelta::new()),
        }
    }

    /// Returns the delta recorded since [`record_edits`](Self::record_edits)
    /// (or the last `take_delta`) and keeps recording into a fresh one.
    ///
    /// Returns an empty delta when journaling is off.
    pub fn take_delta(&mut self) -> EditDelta {
        match &mut self.journal {
            Some(delta) => std::mem::take(delta),
            None => EditDelta::new(),
        }
    }

    /// Returns `true` while edit journaling is active.
    #[must_use]
    pub fn is_recording(&self) -> bool {
        self.journal.is_some()
    }

    /// Stops journaling and discards any pending delta.
    pub fn stop_recording(&mut self) {
        self.journal = None;
    }

    /// Marks `s` as touched in the active journal, if any. Every mutation
    /// primitive calls this so composite edits (`sweep`, rewrites) are
    /// journaled for free.
    pub(crate) fn touch(&mut self, s: SignalId) {
        if let Some(delta) = &mut self.journal {
            delta.record(s);
        }
    }

    /// Adds a primary input with the given name.
    ///
    /// # Panics
    ///
    /// Panics if the name is already bound; use
    /// [`try_add_input`](Self::try_add_input) for a fallible variant.
    pub fn add_input(&mut self, name: impl Into<String>) -> SignalId {
        self.try_add_input(name).expect("duplicate input name")
    }

    /// Adds a primary input with the given name.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if the name is already bound.
    pub fn try_add_input(&mut self, name: impl Into<String>) -> Result<SignalId, NetlistError> {
        let name = name.into();
        if self.by_name.contains_key(name.as_str()) {
            return Err(NetlistError::DuplicateName(name));
        }
        let id = self.alloc(GateKind::Input, &[]);
        self.bind_name(name, id);
        self.pis.push(id);
        Ok(id)
    }

    /// Adds a gate of the given kind over existing signals and returns its
    /// output signal.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::ArityMismatch`] if the fanin count is not accepted
    ///   by `kind`.
    /// * [`NetlistError::DeadSignal`] if a fanin does not exist.
    pub fn add_gate(
        &mut self,
        kind: GateKind,
        fanins: &[SignalId],
    ) -> Result<SignalId, NetlistError> {
        if !kind.arity().accepts(fanins.len()) || u16::try_from(fanins.len()).is_err() {
            return Err(NetlistError::ArityMismatch {
                kind: kind.mnemonic(),
                got: fanins.len(),
            });
        }
        for &f in fanins {
            if !self.is_live(f) {
                return Err(NetlistError::DeadSignal(f));
            }
        }
        let id = self.alloc(kind, fanins);
        for (pin, &f) in fanins.iter().enumerate() {
            self.fanouts[f.index()].push(Fanout::Gate {
                cell: id,
                pin: pin as u32,
            });
            self.touch(f);
        }
        Ok(id)
    }

    /// Adds a named gate; the name becomes findable via
    /// [`find`](Self::find).
    ///
    /// # Errors
    ///
    /// Same as [`add_gate`](Self::add_gate), plus
    /// [`NetlistError::DuplicateName`].
    pub fn add_named_gate(
        &mut self,
        name: impl Into<String>,
        kind: GateKind,
        fanins: &[SignalId],
    ) -> Result<SignalId, NetlistError> {
        let name = name.into();
        if self.by_name.contains_key(name.as_str()) {
            return Err(NetlistError::DuplicateName(name));
        }
        let id = self.add_gate(kind, fanins)?;
        self.bind_name(name, id);
        Ok(id)
    }

    /// Declares `driver` to be a primary output named `name`; returns the
    /// output's index.
    pub fn add_output(&mut self, name: impl Into<String>, driver: SignalId) -> usize {
        let index = self.pos.len();
        self.pos.push(PrimaryOutput {
            name: name.into().into(),
            driver,
        });
        self.fanouts[driver.index()].push(Fanout::Po(index as u32));
        self.touch(driver);
        index
    }

    /// Returns a constant-0 signal, creating the cell on first use.
    pub fn const0(&mut self) -> SignalId {
        self.find_const(GateKind::Const0)
    }

    /// Returns a constant-1 signal, creating the cell on first use.
    pub fn const1(&mut self) -> SignalId {
        self.find_const(GateKind::Const1)
    }

    fn find_const(&mut self, kind: GateKind) -> SignalId {
        for (i, c) in self.cells.iter().enumerate() {
            if let Some(c) = c {
                if c.kind == kind {
                    return SignalId::from_index(i);
                }
            }
        }
        self.alloc(kind, &[])
    }

    /// Returns `true` if the signal exists and has not been deleted.
    #[must_use]
    pub fn is_live(&self, s: SignalId) -> bool {
        self.cells.get(s.index()).is_some_and(Option::is_some)
    }

    /// Returns the cell driving `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is dead; use [`try_cell`](Self::try_cell) for a
    /// fallible variant.
    #[must_use]
    pub fn cell(&self, s: SignalId) -> &Cell {
        self.try_cell(s).expect("dead signal")
    }

    /// Returns the cell driving `s`, or an error if `s` is dead.
    ///
    /// # Errors
    ///
    /// [`NetlistError::DeadSignal`] if `s` does not exist.
    pub fn try_cell(&self, s: SignalId) -> Result<&Cell, NetlistError> {
        self.cells
            .get(s.index())
            .and_then(Option::as_ref)
            .ok_or(NetlistError::DeadSignal(s))
    }

    /// Shorthand for `self.cell(s).kind()`.
    #[must_use]
    pub fn kind(&self, s: SignalId) -> GateKind {
        self.cell(s).kind
    }

    /// The input signals of `s`, in pin order.
    ///
    /// # Panics
    ///
    /// Panics if `s` is dead.
    #[must_use]
    pub fn fanins(&self, s: SignalId) -> &[SignalId] {
        &self.pins[self.cell(s).pins()]
    }

    /// The fanout connections of stem `s` (gate pins and primary outputs).
    #[must_use]
    pub fn fanouts(&self, s: SignalId) -> &[Fanout] {
        &self.fanouts[s.index()]
    }

    /// Number of fanout connections (gate pins plus primary outputs).
    #[must_use]
    pub fn fanout_count(&self, s: SignalId) -> usize {
        self.fanouts[s.index()].len()
    }

    /// The signal currently feeding a branch.
    ///
    /// # Errors
    ///
    /// [`NetlistError::DeadSignal`] / [`NetlistError::PinOutOfRange`] when
    /// the branch does not identify a live connection.
    pub fn branch_source(&self, branch: Branch) -> Result<SignalId, NetlistError> {
        let cell = self.try_cell(branch.cell)?;
        self.pins[cell.pins()]
            .get(branch.pin as usize)
            .copied()
            .ok_or(NetlistError::PinOutOfRange {
                cell: branch.cell,
                pin: branch.pin,
            })
    }

    /// The primary inputs, in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[SignalId] {
        &self.pis
    }

    /// The primary outputs, in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[PrimaryOutput] {
        &self.pos
    }

    /// Looks up a signal by name.
    ///
    /// # Errors
    ///
    /// [`NetlistError::UnknownName`] if nothing is bound to `name`.
    pub fn find(&self, name: &str) -> Result<SignalId, NetlistError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| NetlistError::UnknownName(name.to_string()))
    }

    /// Sets or replaces the library binding tag of a gate.
    ///
    /// # Errors
    ///
    /// [`NetlistError::DeadSignal`] if `s` does not exist.
    pub fn set_lib(&mut self, s: SignalId, lib: Option<u32>) -> Result<(), NetlistError> {
        match self.cells.get_mut(s.index()).and_then(Option::as_mut) {
            Some(cell) => {
                cell.lib = lib;
                self.touch(s);
                Ok(())
            }
            None => Err(NetlistError::DeadSignal(s)),
        }
    }

    /// Iterates over all live signals (inputs, constants and gates) in id
    /// order.
    pub fn signals(&self) -> impl Iterator<Item = SignalId> + '_ {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_some())
            .map(|(i, _)| SignalId::from_index(i))
    }

    /// Iterates over all live *gate* signals (excluding inputs and
    /// constants) in id order.
    pub fn gates(&self) -> impl Iterator<Item = SignalId> + '_ {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.as_ref().is_some_and(|c| !c.kind.is_source()))
            .map(|(i, _)| SignalId::from_index(i))
    }

    /// Upper bound (exclusive) on live signal indices; sized for dense
    /// per-signal side tables.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// Builds a collision-free name per live signal, indexed by
    /// [`SignalId::index`]: the explicit name when one exists, otherwise
    /// `{prefix}{index}` (uniquified with trailing underscores if an
    /// explicit name already uses that string). Netlist writers use this
    /// so freshly inserted unnamed gates can never collide with named
    /// nets.
    ///
    /// ```
    /// use netlist::{Netlist, GateKind};
    /// # fn main() -> Result<(), netlist::NetlistError> {
    /// let mut nl = Netlist::new("t");
    /// let a = nl.add_input("n1"); // explicit name shadowing a slot name
    /// let g = nl.add_gate(GateKind::Not, &[a])?;
    /// let names = nl.unique_names("n");
    /// assert_eq!(names[a.index()], "n1");
    /// assert_ne!(names[g.index()], "n1");
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn unique_names(&self, prefix: &str) -> Vec<String> {
        let used: std::collections::HashSet<&str> =
            self.by_name.keys().map(AsRef::as_ref).collect();
        let mut out = vec![String::new(); self.capacity()];
        // Owned uniquified synthetics (kept separate so `used` can borrow
        // from by_name).
        let mut synth_used: std::collections::HashSet<String> = std::collections::HashSet::new();
        for s in self.signals() {
            if let Some(name) = self.cell(s).name() {
                out[s.index()] = name.to_string();
                continue;
            }
            let mut candidate = format!("{prefix}{}", s.index());
            while used.contains(candidate.as_str()) || synth_used.contains(&candidate) {
                candidate.push('_');
            }
            out[s.index()] = candidate.clone();
            synth_used.insert(candidate);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_fig1() {
        let mut nl = Netlist::new("fig1");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let e = nl.add_gate(GateKind::Not, &[c]).unwrap();
        let f = nl.add_gate(GateKind::Or, &[d, e]).unwrap();
        nl.add_output("f", f);

        assert_eq!(nl.inputs(), &[a, b, c]);
        assert_eq!(nl.outputs().len(), 1);
        assert_eq!(nl.outputs()[0].driver(), f);
        assert_eq!(nl.fanins(f), &[d, e]);
        assert_eq!(nl.fanout_count(a), 1);
        assert_eq!(nl.fanout_count(d), 1);
        assert_eq!(nl.fanouts(d), &[Fanout::Gate { cell: f, pin: 0 }]);
        assert_eq!(nl.find("a").unwrap(), a);
        assert!(nl.find("zzz").is_err());
    }

    #[test]
    fn arity_is_enforced() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let err = nl.add_gate(GateKind::And, &[a]).unwrap_err();
        assert!(matches!(err, NetlistError::ArityMismatch { .. }));
        let err = nl.add_gate(GateKind::Not, &[a, a]).unwrap_err();
        assert!(matches!(err, NetlistError::ArityMismatch { .. }));
    }

    #[test]
    fn dead_fanin_rejected() {
        let mut nl = Netlist::new("t");
        let bogus = SignalId::from_index(42);
        let err = nl.add_gate(GateKind::Not, &[bogus]).unwrap_err();
        assert_eq!(err, NetlistError::DeadSignal(bogus));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut nl = Netlist::new("t");
        nl.add_input("a");
        assert!(matches!(
            nl.try_add_input("a"),
            Err(NetlistError::DuplicateName(_))
        ));
    }

    #[test]
    fn constants_are_shared() {
        let mut nl = Netlist::new("t");
        let one = nl.const1();
        let again = nl.const1();
        assert_eq!(one, again);
        let zero = nl.const0();
        assert_ne!(one, zero);
        assert_eq!(nl.kind(one), GateKind::Const1);
    }

    #[test]
    fn branch_source_resolution() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(GateKind::Nand, &[a, b]).unwrap();
        assert_eq!(nl.branch_source(Branch { cell: g, pin: 1 }).unwrap(), b);
        assert!(matches!(
            nl.branch_source(Branch { cell: g, pin: 5 }),
            Err(NetlistError::PinOutOfRange { .. })
        ));
    }

    #[test]
    fn gates_iterator_skips_sources() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let _one = nl.const1();
        let g = nl.add_gate(GateKind::Not, &[a]).unwrap();
        let gates: Vec<_> = nl.gates().collect();
        assert_eq!(gates, vec![g]);
    }

    #[test]
    fn display_lists_gates_and_outputs() {
        let mut nl = Netlist::new("disp");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_named_gate("gate1", GateKind::Nand, &[a, b]).unwrap();
        nl.add_output("y", g);
        let text = nl.to_string();
        assert!(text.contains("netlist disp"));
        assert!(text.contains("NAND"));
        assert!(text.contains("# gate1"));
        assert!(text.contains("output y"));
    }

    #[test]
    fn types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Netlist>();
    }

    #[test]
    fn named_gates_are_findable() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let g = nl.add_named_gate("g1", GateKind::Not, &[a]).unwrap();
        assert_eq!(nl.find("g1").unwrap(), g);
        assert_eq!(nl.cell(g).name(), Some("g1"));
    }
}
