//! Incremental editing operations: the netlist-level mechanics behind the
//! paper's OS2/IS2/OS3/IS3 substitutions and redundancy removal.
//!
//! The semantic legality of a substitution (the valid-clause conditions of
//! Theorems 1 and 2) is the business of the `gdo` crate; this module only
//! guarantees *structural* integrity: fanout tables stay consistent, cycles
//! are refused, and dead logic can be pruned.

use crate::{Branch, Fanout, Netlist, NetlistError, SignalId, SignalSet};

impl Netlist {
    /// Rewires one branch: input pin `branch.pin` of cell `branch.cell` is
    /// disconnected from its current source and connected to `new_source`.
    ///
    /// This is the structural half of the paper's `IS2`/`IS3` input
    /// substitution. Returns the previous source.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::DeadSignal`] if the cell or `new_source` is dead.
    /// * [`NetlistError::PinOutOfRange`] for a bad pin.
    /// * [`NetlistError::WouldCycle`] if `new_source` is in the transitive
    ///   fanout of `branch.cell` (connecting it would close a loop).
    pub fn rewire_branch(
        &mut self,
        branch: Branch,
        new_source: SignalId,
    ) -> Result<SignalId, NetlistError> {
        let old = self.branch_source(branch)?;
        if !self.is_live(new_source) {
            return Err(NetlistError::DeadSignal(new_source));
        }
        if new_source == branch.cell || self.transitive_fanout(branch.cell).contains(new_source) {
            return Err(NetlistError::WouldCycle {
                target: old,
                replacement: new_source,
            });
        }
        if old == new_source {
            return Ok(old);
        }
        self.detach_fanout(
            old,
            Fanout::Gate {
                cell: branch.cell,
                pin: branch.pin,
            },
        );
        let at = self.cell(branch.cell).pins().start;
        self.pins[at + branch.pin as usize] = new_source;
        self.fanouts[new_source.index()].push(Fanout::Gate {
            cell: branch.cell,
            pin: branch.pin,
        });
        self.touch(old);
        self.touch(new_source);
        self.touch(branch.cell);
        Ok(old)
    }

    /// Substitutes a stem: every fanout connection of `old` (gate pins and
    /// primary outputs) is redirected to `new`.
    ///
    /// This is the structural half of the paper's `OS2`/`OS3` output
    /// substitution. The now-unused cone of `old` is *not* removed; call
    /// [`prune_dangling`](Self::prune_dangling) afterwards.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::DeadSignal`] if either signal is dead.
    /// * [`NetlistError::WouldCycle`] if `new` lies in the transitive fanout
    ///   of `old` — the paper's side condition that the `b`-signal may not
    ///   be situated in the transitive fanout of the `a`-signal.
    pub fn substitute_stem(&mut self, old: SignalId, new: SignalId) -> Result<(), NetlistError> {
        if !self.is_live(old) {
            return Err(NetlistError::DeadSignal(old));
        }
        if !self.is_live(new) {
            return Err(NetlistError::DeadSignal(new));
        }
        if old == new {
            return Ok(());
        }
        if self.transitive_fanout(old).contains(new) {
            return Err(NetlistError::WouldCycle {
                target: old,
                replacement: new,
            });
        }
        let uses = std::mem::take(&mut self.fanouts[old.index()]);
        for &user in uses.iter() {
            match user {
                Fanout::Gate { cell, pin } => {
                    let at = self.cell(cell).pins().start;
                    self.pins[at + pin as usize] = new;
                    self.touch(cell);
                }
                Fanout::Po(index) => {
                    self.pos[index as usize].driver = new;
                }
            }
            self.fanouts[new.index()].push(user);
        }
        self.touch(old);
        self.touch(new);
        Ok(())
    }

    /// Deletes a gate cell outright. The cell must have no remaining
    /// fanout. Its fanin connections are detached.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::DeadSignal`] if the cell is already dead.
    /// * [`NetlistError::NotAGate`] for primary inputs (inputs are part of
    ///   the interface and never deleted).
    ///
    /// # Panics
    ///
    /// Panics if the cell still has fanout; delete consumers first or use
    /// [`prune_dangling`](Self::prune_dangling).
    pub fn delete_gate(&mut self, s: SignalId) -> Result<(), NetlistError> {
        let cell = self.try_cell(s)?;
        if cell.kind == crate::GateKind::Input {
            return Err(NetlistError::NotAGate(s));
        }
        assert!(
            self.fanouts[s.index()].is_empty(),
            "attempt to delete {s} which still has fanout"
        );
        let cell = self.cells[s.index()].take().expect("checked live");
        if let Some(name) = &cell.name {
            std::sync::Arc::make_mut(&mut self.by_name).remove(name.as_str());
        }
        for (pin, at) in cell.pins().enumerate() {
            let f = self.pins[at];
            self.detach_fanout(
                f,
                Fanout::Gate {
                    cell: s,
                    pin: pin as u32,
                },
            );
            self.touch(f);
        }
        self.free.push(s.index() as u32);
        self.touch(s);
        Ok(())
    }

    /// Removes every gate whose output drives nothing, transitively, and
    /// returns the number of cells removed.
    ///
    /// Primary inputs are never removed. This implements the paper's
    /// pruning of "all gates exclusively necessary to compute `a`" after an
    /// output substitution.
    pub fn prune_dangling(&mut self) -> usize {
        let mut removed = 0;
        let mut work: Vec<SignalId> = self
            .gates()
            .filter(|&s| self.fanouts[s.index()].is_empty())
            .collect();
        while let Some(s) = work.pop() {
            if !self.is_live(s) || !self.fanouts[s.index()].is_empty() {
                continue;
            }
            if self.kind(s).is_source() {
                continue;
            }
            let fanins = self.fanins(s).to_vec();
            self.delete_gate(s).expect("live dangling gate");
            removed += 1;
            for f in fanins {
                if self.is_live(f)
                    && self.fanouts[f.index()].is_empty()
                    && !self.kind(f).is_source()
                {
                    work.push(f);
                }
            }
        }
        removed
    }

    /// Computes the set of signals reachable from `s` through fanout edges
    /// (not including `s` itself).
    ///
    /// Substituting `s` by any member of this set would create a cycle.
    #[must_use]
    pub fn transitive_fanout(&self, s: SignalId) -> SignalSet {
        let mut seen = SignalSet::with_capacity(self.capacity());
        let mut stack: Vec<SignalId> = Vec::new();
        for f in self.fanouts(s) {
            if let Fanout::Gate { cell, .. } = *f {
                if seen.insert(cell) {
                    stack.push(cell);
                }
            }
        }
        while let Some(t) = stack.pop() {
            for f in self.fanouts(t) {
                if let Fanout::Gate { cell, .. } = *f {
                    if seen.insert(cell) {
                        stack.push(cell);
                    }
                }
            }
        }
        seen
    }

    /// Computes the set of signals in the transitive fanin cone of `s`,
    /// including `s` itself.
    #[must_use]
    pub fn transitive_fanin(&self, s: SignalId) -> SignalSet {
        let mut seen = SignalSet::with_capacity(self.capacity());
        let mut stack = vec![s];
        seen.insert(s);
        while let Some(t) = stack.pop() {
            for &f in self.fanins(t) {
                if seen.insert(f) {
                    stack.push(f);
                }
            }
        }
        seen
    }

    fn detach_fanout(&mut self, source: SignalId, connection: Fanout) {
        let list = &mut self.fanouts[source.index()];
        let pos = list
            .iter()
            .position(|&f| f == connection)
            .expect("fanout table out of sync");
        list.swap_remove(pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateKind;

    /// a, b, c inputs; d = AND(a,b); e = OR(d,c); PO = e.
    fn sample() -> (Netlist, [SignalId; 5]) {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let e = nl.add_gate(GateKind::Or, &[d, c]).unwrap();
        nl.add_output("out", e);
        (nl, [a, b, c, d, e])
    }

    #[test]
    fn rewire_branch_moves_fanout() {
        let (mut nl, [a, _b, c, d, e]) = sample();
        let old = nl.rewire_branch(Branch { cell: e, pin: 0 }, a).unwrap();
        assert_eq!(old, d);
        assert_eq!(nl.fanins(e), &[a, c]);
        assert_eq!(nl.fanout_count(d), 0);
        assert_eq!(nl.fanout_count(a), 2);
        nl.validate().unwrap();
    }

    #[test]
    fn rewire_refuses_cycles() {
        let (mut nl, [_a, _b, _c, d, e]) = sample();
        // Feeding e back into d would create d -> e -> d.
        let err = nl.rewire_branch(Branch { cell: d, pin: 0 }, e).unwrap_err();
        assert!(matches!(err, NetlistError::WouldCycle { .. }));
        // Self-loop is also refused.
        let err = nl.rewire_branch(Branch { cell: d, pin: 0 }, d).unwrap_err();
        assert!(matches!(err, NetlistError::WouldCycle { .. }));
        nl.validate().unwrap();
    }

    #[test]
    fn substitute_stem_redirects_everything() {
        let (mut nl, [a, _b, _c, d, e]) = sample();
        nl.substitute_stem(d, a).unwrap();
        assert_eq!(nl.fanins(e), &[a, nl.find("c").unwrap()]);
        assert_eq!(nl.fanout_count(d), 0);
        let removed = nl.prune_dangling();
        assert_eq!(removed, 1);
        assert!(!nl.is_live(d));
        nl.validate().unwrap();
    }

    #[test]
    fn substitute_stem_redirects_primary_outputs() {
        let (mut nl, [a, _b, _c, _d, e]) = sample();
        nl.substitute_stem(e, a).unwrap();
        assert_eq!(nl.outputs()[0].driver(), a);
        let removed = nl.prune_dangling();
        assert_eq!(removed, 2); // d and e both die
        nl.validate().unwrap();
    }

    #[test]
    fn substitute_stem_refuses_fanout_replacement() {
        let (mut nl, [_a, _b, _c, d, e]) = sample();
        let err = nl.substitute_stem(d, e).unwrap_err();
        assert!(matches!(err, NetlistError::WouldCycle { .. }));
    }

    #[test]
    fn prune_keeps_shared_logic() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let shared = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let g1 = nl.add_gate(GateKind::Not, &[shared]).unwrap();
        let g2 = nl.add_gate(GateKind::Buf, &[shared]).unwrap();
        nl.add_output("o1", g1);
        nl.add_output("o2", g2);
        // Redirect o1 to a; g1 dies but shared survives through g2.
        nl.substitute_stem(g1, a).unwrap();
        assert_eq!(nl.prune_dangling(), 1);
        assert!(nl.is_live(shared));
        assert!(nl.is_live(g2));
        nl.validate().unwrap();
    }

    #[test]
    fn delete_gate_rejects_inputs_and_live_fanout() {
        let (mut nl, [a, ..]) = sample();
        assert!(matches!(nl.delete_gate(a), Err(NetlistError::NotAGate(_))));
    }

    #[test]
    fn slots_are_reused_after_delete() {
        let (mut nl, [a, _b, _c, d, _e]) = sample();
        nl.substitute_stem(d, a).unwrap();
        nl.prune_dangling();
        let cap_before = nl.capacity();
        let n = nl.add_gate(GateKind::Not, &[a]).unwrap();
        assert_eq!(n, d, "freed slot should be recycled");
        assert_eq!(nl.capacity(), cap_before);
        nl.validate().unwrap();
    }

    #[test]
    fn tfo_and_tfi() {
        let (nl, [a, b, c, d, e]) = sample();
        let tfo_a = nl.transitive_fanout(a);
        assert!(tfo_a.contains(d) && tfo_a.contains(e) && !tfo_a.contains(b));
        let tfi_e = nl.transitive_fanin(e);
        for s in [a, b, c, d, e] {
            assert!(tfi_e.contains(s));
        }
        let tfi_d = nl.transitive_fanin(d);
        assert!(!tfi_d.contains(c));
    }
}
