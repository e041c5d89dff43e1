use crate::{GateKind, SignalId};
use std::sync::Arc;

/// One cell of the netlist.
///
/// A cell's output *is* its signal: the paper's *stem* signal. Both
/// connection sides are stored in the netlist — the fanins back to back
/// in one shared table ([`Netlist::fanins`](crate::Netlist::fanins)), the
/// fanouts per signal — so that cells stay small and rewiring one branch
/// does not touch the cell itself.
#[derive(Debug, Clone)]
pub struct Cell {
    pub(crate) kind: GateKind,
    /// Fanin count; the fanins are `Netlist::pins[at..at + arity]`.
    pub(crate) arity: u16,
    pub(crate) at: u32,
    /// Index of the bound library cell, if this netlist is mapped.
    pub(crate) lib: Option<u32>,
    /// Shared with every clone; a thin pointer keeps the cell at 24
    /// bytes.
    pub(crate) name: Option<Arc<String>>,
}

impl Cell {
    /// The logic function of this cell.
    #[must_use]
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// Index of the technology-library cell this gate is mapped to, if any.
    ///
    /// The netlist crate treats this as an opaque tag; the `library` crate
    /// interprets it.
    #[must_use]
    pub fn lib(&self) -> Option<u32> {
        self.lib
    }

    /// The user-visible name of this signal, if one was assigned.
    #[must_use]
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref().map(String::as_str)
    }

    /// The range of this cell's fanins in the netlist's pin table.
    pub(crate) fn pins(&self) -> std::ops::Range<usize> {
        let at = self.at as usize;
        at..at + usize::from(self.arity)
    }
}

/// One fanout connection of a stem signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fanout {
    /// The stem drives input pin `pin` of cell `cell`.
    Gate {
        /// Consuming cell.
        cell: SignalId,
        /// Zero-based input-pin index within the consuming cell.
        pin: u32,
    },
    /// The stem drives primary output number `index`.
    Po(u32),
}

/// The fanout connections of one stem, in insertion order. A single
/// connection — the most common case — is stored inline, without a heap
/// allocation.
#[derive(Debug, Clone)]
pub(crate) enum FanoutList {
    One(Fanout),
    Many(Vec<Fanout>),
}

impl Default for FanoutList {
    fn default() -> Self {
        FanoutList::Many(Vec::new())
    }
}

impl std::ops::Deref for FanoutList {
    type Target = [Fanout];

    fn deref(&self) -> &[Fanout] {
        match self {
            FanoutList::One(f) => std::slice::from_ref(f),
            FanoutList::Many(v) => v,
        }
    }
}

impl From<Vec<Fanout>> for FanoutList {
    fn from(list: Vec<Fanout>) -> Self {
        match list[..] {
            [only] => FanoutList::One(only),
            _ => FanoutList::Many(list),
        }
    }
}

impl FanoutList {
    pub(crate) fn push(&mut self, f: Fanout) {
        match self {
            FanoutList::One(first) => *self = FanoutList::Many(vec![*first, f]),
            FanoutList::Many(v) if v.is_empty() => *self = FanoutList::One(f),
            FanoutList::Many(v) => v.push(f),
        }
    }

    /// Removes the connection at `pos`; the last one takes its place.
    pub(crate) fn swap_remove(&mut self, pos: usize) {
        match self {
            FanoutList::One(_) => {
                assert_eq!(pos, 0, "fanout index out of range");
                *self = FanoutList::default();
            }
            FanoutList::Many(v) => {
                v.swap_remove(pos);
                if let [only] = v[..] {
                    *self = FanoutList::One(only);
                }
            }
        }
    }
}

/// A *branch* signal: one particular gate-input connection.
///
/// The paper distinguishes the root of a multi-fanout signal (the *stem*)
/// from its individual fanout connections (the *branches*). An input
/// substitution `IS2`/`IS3` rewires a single branch; an output substitution
/// `OS2`/`OS3` rewires the stem, i.e. every branch at once.
///
/// # Example
///
/// ```
/// use netlist::{Netlist, GateKind, Branch};
///
/// # fn main() -> Result<(), netlist::NetlistError> {
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let g = nl.add_gate(GateKind::And, &[a, b])?;
/// let br = Branch { cell: g, pin: 0 };
/// assert_eq!(nl.branch_source(br)?, a);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Branch {
    /// The consuming cell.
    pub cell: SignalId,
    /// The input-pin index within `cell`.
    pub pin: u32,
}

impl std::fmt::Display for Branch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.cell, self.pin)
    }
}
