//! Exact structural decomposition of a [`Netlist`] into plain data —
//! the foundation of crash-safe snapshots.
//!
//! A [`RawNetlist`] captures *everything* that determines the netlist's
//! future behavior under deterministic replay, including state that is
//! invisible to logic-level equality: dead cell slots, the order of each
//! signal's fanout list, and the free-slot stack that decides which
//! [`SignalId`]s future allocations receive. Round-tripping through
//! `to_raw` / `from_raw` therefore reproduces a netlist that behaves
//! *identically* under any further sequence of edits — which is exactly
//! what resume-from-snapshot requires for byte-identical results.
//!
//! The raw form deliberately excludes the edit journal: a snapshot is
//! taken at a journal-drained boundary, and the resumed run re-arms
//! recording itself.

use crate::cell::{Cell, Fanout, FanoutList};
use crate::id::SignalId;
use crate::kind::GateKind;
use crate::netlist::{Netlist, PrimaryOutput};
use crate::NetlistError;
use std::collections::HashMap;
use std::sync::Arc;

/// One cell slot in index order: `None` for a dead (freed) slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawCell {
    /// The gate kind.
    pub kind: GateKind,
    /// Fanin signals in pin order.
    pub fanins: Vec<u32>,
    /// Bound library cell tag, if mapped.
    pub lib: Option<u32>,
    /// Optional signal name.
    pub name: Option<String>,
}

/// One fanout record: either input pin `pin` of cell `cell`, or primary
/// output number `po`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RawFanout {
    /// Fans out into a gate input pin.
    Gate {
        /// Consumer cell.
        cell: u32,
        /// Consumer input pin.
        pin: u32,
    },
    /// Drives a primary output.
    Po(u32),
}

/// The complete raw state of a [`Netlist`], slot by slot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RawNetlist {
    /// Netlist name.
    pub name: String,
    /// Every cell slot in index order (`None` = freed slot).
    pub cells: Vec<Option<RawCell>>,
    /// Per-slot fanout lists, *verbatim order* (fanout order is not
    /// derivable from the cells: `swap_remove` during edits permutes it,
    /// and iteration order feeds deterministic algorithms downstream).
    pub fanouts: Vec<Vec<RawFanout>>,
    /// Primary inputs in declaration order.
    pub pis: Vec<u32>,
    /// Primary outputs: (name, driver) in declaration order.
    pub pos: Vec<(String, u32)>,
    /// The free-slot stack, verbatim (its pop order decides the
    /// [`SignalId`]s future `alloc` calls hand out).
    pub free: Vec<u32>,
}

impl Netlist {
    /// Decomposes the netlist into its raw state. The edit journal is
    /// not captured (see the module docs).
    #[must_use]
    pub fn to_raw(&self) -> RawNetlist {
        RawNetlist {
            name: self.name.clone(),
            cells: self
                .cells
                .iter()
                .map(|slot| {
                    slot.as_ref().map(|c| RawCell {
                        kind: c.kind,
                        fanins: self.pins[c.pins()]
                            .iter()
                            .map(|s| s.index() as u32)
                            .collect(),
                        lib: c.lib,
                        name: c.name().map(str::to_string),
                    })
                })
                .collect(),
            fanouts: self
                .fanouts
                .iter()
                .map(|list| {
                    list.iter()
                        .map(|f| match f {
                            Fanout::Gate { cell, pin } => RawFanout::Gate {
                                cell: cell.index() as u32,
                                pin: *pin,
                            },
                            Fanout::Po(i) => RawFanout::Po(*i),
                        })
                        .collect()
                })
                .collect(),
            pis: self.pis.iter().map(|s| s.index() as u32).collect(),
            pos: self
                .pos
                .iter()
                .map(|po| (po.name().to_string(), po.driver.index() as u32))
                .collect(),
            free: self.free.clone(),
        }
    }

    /// Rebuilds a netlist from its raw state. The name index is
    /// reconstructed from cell names; the edit journal starts disarmed.
    ///
    /// # Errors
    ///
    /// [`NetlistError::DeadSignal`] when any index points past the
    /// slot table — the raw data is inconsistent (e.g. a truncated or
    /// hand-edited snapshot).
    pub fn from_raw(raw: &RawNetlist) -> Result<Netlist, NetlistError> {
        let n = raw.cells.len();
        let sig = |idx: u32| -> Result<SignalId, NetlistError> {
            if (idx as usize) < n {
                Ok(SignalId::from_index(idx as usize))
            } else {
                Err(NetlistError::DeadSignal(SignalId::from_index(idx as usize)))
            }
        };
        if raw.fanouts.len() != n {
            return Err(NetlistError::DeadSignal(SignalId::from_index(
                raw.fanouts.len().max(n),
            )));
        }
        let mut cells: Vec<Option<Cell>> = Vec::with_capacity(n);
        let mut pins: Vec<SignalId> = Vec::new();
        let mut by_name: HashMap<Arc<str>, SignalId> = HashMap::new();
        for (i, slot) in raw.cells.iter().enumerate() {
            match slot {
                None => cells.push(None),
                Some(rc) => {
                    let at = u32::try_from(pins.len()).expect("pin table overflows u32");
                    let arity = u16::try_from(rc.fanins.len()).map_err(|_| {
                        NetlistError::ArityMismatch {
                            kind: rc.kind.mnemonic(),
                            got: rc.fanins.len(),
                        }
                    })?;
                    for &f in &rc.fanins {
                        pins.push(sig(f)?);
                    }
                    if let Some(name) = &rc.name {
                        by_name.insert(name.as_str().into(), SignalId::from_index(i));
                    }
                    cells.push(Some(Cell {
                        kind: rc.kind,
                        arity,
                        at,
                        lib: rc.lib,
                        name: rc.name.clone().map(Arc::new),
                    }));
                }
            }
        }
        let mut fanouts: Vec<FanoutList> = Vec::with_capacity(n);
        for list in &raw.fanouts {
            let mut out = Vec::with_capacity(list.len());
            for f in list {
                out.push(match f {
                    RawFanout::Gate { cell, pin } => Fanout::Gate {
                        cell: sig(*cell)?,
                        pin: *pin,
                    },
                    RawFanout::Po(i) => Fanout::Po(*i),
                });
            }
            fanouts.push(out.into());
        }
        let pis = raw
            .pis
            .iter()
            .map(|&s| sig(s))
            .collect::<Result<Vec<_>, _>>()?;
        let pos = raw
            .pos
            .iter()
            .map(|(name, driver)| {
                Ok(PrimaryOutput {
                    name: name.as_str().into(),
                    driver: sig(*driver)?,
                })
            })
            .collect::<Result<Vec<_>, NetlistError>>()?;
        for &f in &raw.free {
            let _ = sig(f)?;
        }
        Ok(Netlist {
            name: raw.name.clone(),
            cells,
            pins,
            fanouts,
            pis,
            pos,
            by_name: Arc::new(by_name),
            free: raw.free.clone(),
            journal: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_with_history() -> Netlist {
        let mut nl = Netlist::new("raw-rt");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let e = nl.add_gate(GateKind::Not, &[c]).unwrap();
        let f = nl.add_gate(GateKind::Or, &[d, e]).unwrap();
        let g = nl.add_gate(GateKind::Nand, &[d, f]).unwrap();
        nl.add_output("f", f);
        nl.add_output("g", g);
        // Create a dead slot + non-trivial free stack and fanout order.
        nl.substitute_stem(g, f).unwrap();
        nl.prune_dangling();
        nl
    }

    #[test]
    fn round_trip_preserves_dead_slots_and_free_stack() {
        let nl = build_with_history();
        let raw = nl.to_raw();
        assert!(
            raw.cells.iter().any(Option::is_none) || !raw.free.is_empty(),
            "history should leave at least one freed slot"
        );
        let back = Netlist::from_raw(&raw).unwrap();
        assert_eq!(back.to_raw(), raw, "raw form must be a fixpoint");
        back.validate().unwrap();
        assert!(nl.equiv_exhaustive(&back).unwrap());
    }

    #[test]
    fn round_trip_preserves_future_allocation_order() {
        let nl = build_with_history();
        let mut a = nl.clone();
        let mut b = Netlist::from_raw(&nl.to_raw()).unwrap();
        // The same edit on both must allocate the same SignalId.
        let pa = a.inputs()[0];
        let pb = b.inputs()[0];
        let ga = a.add_gate(GateKind::Not, &[pa]).unwrap();
        let gb = b.add_gate(GateKind::Not, &[pb]).unwrap();
        assert_eq!(ga, gb, "free-stack order must survive the round trip");
        assert_eq!(a.to_raw(), b.to_raw());
    }

    #[test]
    fn from_raw_rejects_dangling_indices() {
        let nl = build_with_history();
        let mut raw = nl.to_raw();
        raw.pis.push(10_000);
        assert!(Netlist::from_raw(&raw).is_err());

        let mut raw = nl.to_raw();
        raw.free.push(10_000);
        assert!(Netlist::from_raw(&raw).is_err());

        let mut raw = nl.to_raw();
        raw.fanouts.pop();
        assert!(Netlist::from_raw(&raw).is_err());
    }

    #[test]
    fn restored_netlist_is_not_recording() {
        let mut nl = build_with_history();
        nl.record_edits();
        let back = Netlist::from_raw(&nl.to_raw()).unwrap();
        assert!(!back.is_recording(), "journal must not survive the codec");
    }
}
