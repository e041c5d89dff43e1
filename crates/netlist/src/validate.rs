//! Whole-netlist integrity checking.

use crate::{Branch, Fanout, Netlist, SignalId};
use std::fmt;

/// An invariant violation discovered by [`Netlist::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ValidateError {
    /// A live cell references a dead fanin.
    DeadFanin {
        /// The cell with the bad reference.
        cell: SignalId,
        /// The dead signal it references.
        fanin: SignalId,
    },
    /// A cell's fanin count violates its kind's arity.
    BadArity(SignalId),
    /// A fanin connection is missing from the source's fanout table, or a
    /// fanout entry points at a pin fed by a different source.
    FanoutMismatch(SignalId),
    /// A primary output references a dead driver.
    DeadOutput(String),
    /// The netlist contains a combinational cycle.
    Cycle {
        /// Names (or ids, for unnamed cells) of signals on or downstream
        /// of a cycle, capped at [`CYCLE_MEMBER_CAP`] entries.
        members: Vec<String>,
    },
    /// The name table maps a name to a dead or differently-named cell.
    NameTable(String),
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::DeadFanin { cell, fanin } => {
                write!(f, "cell {cell} references dead fanin {fanin}")
            }
            ValidateError::BadArity(s) => write!(f, "cell {s} violates its kind's arity"),
            ValidateError::FanoutMismatch(s) => {
                write!(f, "fanout table of {s} is inconsistent with fanin lists")
            }
            ValidateError::DeadOutput(n) => write!(f, "primary output {n:?} has a dead driver"),
            ValidateError::Cycle { members } => {
                write!(
                    f,
                    "netlist contains a combinational cycle through [{}]",
                    members.join(", ")
                )
            }
            ValidateError::NameTable(n) => write!(f, "name table entry {n:?} is stale"),
        }
    }
}

impl std::error::Error for ValidateError {}

/// Most cycle member names reported in [`ValidateError::Cycle`].
pub const CYCLE_MEMBER_CAP: usize = 16;

impl Netlist {
    /// Verifies every structural invariant of the netlist.
    ///
    /// Checks performed:
    ///
    /// 1. every fanin of a live cell is live,
    /// 2. every cell satisfies its kind's arity,
    /// 3. the fanout tables exactly mirror fanin lists and output bindings,
    /// 4. the netlist is acyclic,
    /// 5. the name table points at live, correctly named cells.
    ///
    /// # Errors
    ///
    /// The first violation found, as a [`ValidateError`].
    pub fn validate(&self) -> Result<(), ValidateError> {
        for s in self.signals() {
            if !self.kind(s).arity().accepts(self.fanins(s).len()) {
                return Err(ValidateError::BadArity(s));
            }
            for &f in self.fanins(s) {
                if !self.is_live(f) {
                    return Err(ValidateError::DeadFanin { cell: s, fanin: f });
                }
            }
        }
        // Forward check: every fanout entry corresponds to a real use.
        for s in self.signals() {
            for fo in self.fanouts(s) {
                match *fo {
                    Fanout::Gate { cell, pin } => {
                        let ok = self.branch_source(Branch { cell, pin }) == Ok(s);
                        if !ok {
                            return Err(ValidateError::FanoutMismatch(s));
                        }
                    }
                    Fanout::Po(index) => {
                        let ok = self
                            .outputs()
                            .get(index as usize)
                            .is_some_and(|po| po.driver() == s);
                        if !ok {
                            return Err(ValidateError::FanoutMismatch(s));
                        }
                    }
                }
            }
        }
        // Backward check: every use appears exactly once in a fanout table.
        for s in self.signals() {
            for (pin, &f) in self.fanins(s).iter().enumerate() {
                let expected = Fanout::Gate {
                    cell: s,
                    pin: pin as u32,
                };
                let n = self.fanouts(f).iter().filter(|&&x| x == expected).count();
                if n != 1 {
                    return Err(ValidateError::FanoutMismatch(f));
                }
            }
        }
        for po in self.outputs() {
            if !self.is_live(po.driver()) {
                return Err(ValidateError::DeadOutput(po.name().to_string()));
            }
        }
        if self.topo_order().is_err() {
            return Err(ValidateError::Cycle {
                members: self.cycle_members(),
            });
        }
        for (name, &s) in self.by_name.iter() {
            let ok = self
                .try_cell(s)
                .ok()
                .is_some_and(|c| c.name() == Some(name.as_ref()));
            if !ok {
                return Err(ValidateError::NameTable(name.to_string()));
            }
        }
        Ok(())
    }

    /// Names the signals a topological sort could not place: everything
    /// on or downstream of a combinational cycle. Unnamed cells fall back
    /// to their id; the list stops at [`CYCLE_MEMBER_CAP`] entries.
    fn cycle_members(&self) -> Vec<String> {
        let cap = self.capacity();
        let mut pending: Vec<u32> = vec![0; cap];
        let mut ready: Vec<SignalId> = Vec::new();
        for s in self.signals() {
            let n = self.fanins(s).len() as u32;
            pending[s.index()] = n;
            if n == 0 {
                ready.push(s);
            }
        }
        while let Some(s) = ready.pop() {
            for fo in self.fanouts(s) {
                if let Fanout::Gate { cell, .. } = *fo {
                    pending[cell.index()] -= 1;
                    if pending[cell.index()] == 0 {
                        ready.push(cell);
                    }
                }
            }
        }
        self.signals()
            .filter(|s| pending[s.index()] != 0)
            .take(CYCLE_MEMBER_CAP)
            .map(|s| match self.cell(s).name() {
                Some(n) => n.to_string(),
                None => s.to_string(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::{GateKind, Netlist};

    #[test]
    fn valid_netlist_passes() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(GateKind::Xor, &[a, b]).unwrap();
        nl.add_output("o", g);
        nl.validate().unwrap();
    }

    #[test]
    fn validate_survives_editing_sequence() {
        use crate::Branch;
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let g1 = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = nl.add_gate(GateKind::Or, &[g1, c]).unwrap();
        let g3 = nl.add_gate(GateKind::Not, &[g2]).unwrap();
        nl.add_output("o", g3);
        nl.validate().unwrap();
        nl.rewire_branch(Branch { cell: g2, pin: 0 }, a).unwrap();
        nl.validate().unwrap();
        nl.prune_dangling();
        nl.validate().unwrap();
        nl.substitute_stem(g2, c).unwrap();
        nl.prune_dangling();
        nl.validate().unwrap();
    }

    #[test]
    fn cycle_error_names_its_members() {
        use crate::{Fanout, ValidateError};
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = nl.add_gate(GateKind::Not, &[g1]).unwrap();
        nl.add_output("o", g2);
        // The editing API refuses to create cycles (`WouldCycle`), so
        // forge one through the internals — the situation `validate`
        // exists to diagnose. Keep the fanout tables consistent so the
        // cycle check is what fires: g1 -> g2 -> g1.
        let at = nl.cell(g1).pins().start;
        nl.pins[at] = g2;
        let pos = nl.fanouts[a.index()]
            .iter()
            .position(|&fo| fo == Fanout::Gate { cell: g1, pin: 0 })
            .unwrap();
        nl.fanouts[a.index()].swap_remove(pos);
        nl.fanouts[g2.index()].push(Fanout::Gate { cell: g1, pin: 0 });
        match nl.validate() {
            Err(ValidateError::Cycle { members }) => {
                assert!(!members.is_empty(), "cycle must name its members");
                let msg = ValidateError::Cycle { members }.to_string();
                assert!(msg.contains("cycle"), "{msg}");
            }
            other => panic!("expected Cycle, got {other:?}"),
        }
    }
}
