//! Exact validity proofs for the paper's observability clauses.
//!
//! A clause `(!O_a + l_1 + ... + l_k)` (Definition 1) is valid iff **no**
//! primary input vector makes `a` observable while every signal literal is
//! false. This module decides that question exactly, playing the role of
//! the ATPG check of \[10\]: alongside the good circuit we encode a
//! *faulty copy* of the fanout cone of `a` in which `a` is inverted, define
//! `O_a` as "some primary output differs", and ask the SAT solver for a
//! counterexample. UNSAT means the clause is valid.

use crate::{CircuitCnf, Lit, SatResult, Var};
use netlist::{Branch, GateKind, Netlist, NetlistError, SignalId};
use std::collections::HashMap;

/// Where the hypothetical value change happens: a stem (the paper's output
/// substitutions) or a single branch (input substitutions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// The stem signal `a`: all fanouts see the flipped value.
    Stem(SignalId),
    /// One branch: only this gate input sees the flipped value.
    Branch(Branch),
}

impl From<SignalId> for FaultSite {
    fn from(s: SignalId) -> Self {
        FaultSite::Stem(s)
    }
}

impl From<Branch> for FaultSite {
    fn from(b: Branch) -> Self {
        FaultSite::Branch(b)
    }
}

/// An incremental prover for observability clauses over one fault site.
///
/// Building the prover encodes the circuit and the faulty cone once; each
/// [`is_valid`](Self::is_valid) query is then a single incremental SAT
/// call under assumptions, so proving many clause combinations for the
/// same `a`-signal is cheap.
///
/// # Example
///
/// ```
/// use netlist::{Netlist, GateKind};
/// use sat::ClauseProver;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let g = nl.add_gate(GateKind::And, &[a, b])?;
/// nl.add_output("y", g);
/// let mut prover = ClauseProver::new(&nl, a.into())?;
/// // (!O_a + !a + b): when a is observable (b=1), trivially b holds.
/// assert!(prover.is_valid(&[(a, false), (b, true)]));
/// // (!O_a + !a) claims a is stuck-at-0 redundant: false here.
/// assert!(!prover.is_valid(&[(a, false)]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ClauseProver {
    enc: CircuitCnf,
    obs: Lit,
    /// Variables of the primary inputs, in `Netlist::inputs` order.
    inputs: Vec<Var>,
    conflict_budget: u64,
}

/// The answer to one clause query of a [`ClauseProver`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClauseOutcome {
    /// No input vector makes the site observable with every literal
    /// false: the clause holds.
    Valid,
    /// A counterexample: one value per primary input, in
    /// `Netlist::inputs` order, under which the site is observable and
    /// every literal is false.
    Refuted(Vec<bool>),
    /// The conflict budget ran out, or an interrupt or deadline stopped
    /// the search, before either answer.
    Unknown,
}

impl ClauseProver {
    /// Encodes the good circuit plus the faulty cone of `site`.
    ///
    /// # Errors
    ///
    /// [`NetlistError::CycleDetected`] if `nl` is not a DAG, or
    /// [`NetlistError::PinOutOfRange`]/[`NetlistError::DeadSignal`] for a
    /// bad branch site.
    pub fn new(nl: &Netlist, site: FaultSite) -> Result<ClauseProver, NetlistError> {
        Self::build(nl, site, None)
    }

    /// Like [`new`](Self::new) but restricts the good-circuit encoding to
    /// the transitive fanin of the fault cone and the given extra signals
    /// (the clause literals to be queried).
    ///
    /// This keeps proofs cone-local on large circuits. The restriction is
    /// conservative: a literal signal *not* listed here is unconstrained
    /// in the encoding, so a clause over it may fail to prove — but a
    /// clause proven valid is always truly valid.
    ///
    /// # Errors
    ///
    /// Same as [`new`](Self::new).
    pub fn with_support(
        nl: &Netlist,
        site: FaultSite,
        extra: &[SignalId],
    ) -> Result<ClauseProver, NetlistError> {
        Self::build(nl, site, Some(extra))
    }

    fn build(
        nl: &Netlist,
        site: FaultSite,
        support: Option<&[SignalId]>,
    ) -> Result<ClauseProver, NetlistError> {
        let mut enc = match support {
            None => CircuitCnf::build(nl)?,
            Some(extra) => {
                // Region: TFI of the fault cone's members and side inputs
                // plus the TFI of every queried literal.
                let root = match site {
                    FaultSite::Stem(a) => a,
                    FaultSite::Branch(br) => br.cell,
                };
                let mut region = netlist::SignalSet::with_capacity(nl.capacity());
                let mut stack: Vec<SignalId> = Vec::new();
                let push =
                    |s: SignalId, region: &mut netlist::SignalSet, stack: &mut Vec<SignalId>| {
                        if region.insert(s) {
                            stack.push(s);
                        }
                    };
                push(root, &mut region, &mut stack);
                for s in nl.transitive_fanout(root).iter() {
                    push(s, &mut region, &mut stack);
                }
                for &s in extra {
                    push(s, &mut region, &mut stack);
                }
                // Close under fanin (TFI).
                while let Some(s) = stack.pop() {
                    for &f in nl.fanins(s) {
                        if region.insert(f) {
                            stack.push(f);
                        }
                    }
                }
                CircuitCnf::build_restricted(nl, &region)?
            }
        };
        // Collect the cone: gates whose faulty value can differ.
        let mut faulty: HashMap<SignalId, Var> = HashMap::new();
        match site {
            FaultSite::Stem(a) => {
                if !nl.is_live(a) {
                    return Err(NetlistError::DeadSignal(a));
                }
                // The faulty value of `a` itself is !a.
                let fa = enc.new_aux();
                let av = enc.var(a);
                enc.solver_mut().add_clause(&[Lit::pos(fa), Lit::pos(av)]);
                enc.solver_mut().add_clause(&[Lit::neg(fa), Lit::neg(av)]);
                faulty.insert(a, fa);
            }
            FaultSite::Branch(branch) => {
                let src = nl.branch_source(branch)?;
                // Re-encode the consuming gate with the pin inverted.
                let c = branch.cell;
                let inv = enc.new_aux();
                let sv = enc.var(src);
                enc.solver_mut().add_clause(&[Lit::pos(inv), Lit::pos(sv)]);
                enc.solver_mut().add_clause(&[Lit::neg(inv), Lit::neg(sv)]);
                let fc = enc.new_aux();
                let ins: Vec<Var> = nl
                    .fanins(c)
                    .iter()
                    .enumerate()
                    .map(|(pin, &f)| {
                        if pin == branch.pin as usize {
                            inv
                        } else {
                            enc.var(f)
                        }
                    })
                    .collect();
                enc.encode_function(fc, nl.kind(c), &ins);
                faulty.insert(c, fc);
            }
        }

        // Propagate the fault through the cone in topological order.
        let order = nl.topo_order()?;
        for &s in &order {
            if faulty.contains_key(&s) {
                continue;
            }
            let touched = nl.fanins(s).iter().any(|f| faulty.contains_key(f));
            if !touched || nl.kind(s) == GateKind::Input {
                continue;
            }
            let fs = enc.new_aux();
            let ins: Vec<Var> = nl
                .fanins(s)
                .iter()
                .map(|f| faulty.get(f).copied().unwrap_or_else(|| enc.var(*f)))
                .collect();
            enc.encode_function(fs, nl.kind(s), &ins);
            faulty.insert(s, fs);
        }

        // O_a: some primary output differs between good and faulty copies.
        let mut diffs: Vec<Lit> = Vec::new();
        for po in nl.outputs() {
            // A PO driven by the stem itself also counts: `a` drives it
            // through its faulty var.
            let d = po.driver();
            if let Some(&fv) = faulty.get(&d) {
                let diff = enc.new_aux();
                let gv = enc.var(d);
                crate::encode::encode_xor2(enc.solver_mut(), diff, gv, fv);
                diffs.push(Lit::pos(diff));
            }
        }
        let obs_var = enc.new_aux();
        let obs = Lit::pos(obs_var);
        let mut wide = diffs.clone();
        wide.push(!obs);
        enc.solver_mut().add_clause(&wide);
        for &d in &diffs {
            enc.solver_mut().add_clause(&[!d, obs]);
        }
        let inputs = nl.inputs().iter().map(|&pi| enc.var(pi)).collect();
        Ok(ClauseProver {
            enc,
            obs,
            inputs,
            conflict_budget: 100_000,
        })
    }

    /// Caps the SAT effort per query. Queries exceeding the budget answer
    /// [`ClauseOutcome::Unknown`], which counts as *not proven valid* —
    /// losing an optimization opportunity but bounding time and memory
    /// on adversarial cones (e.g. multipliers). The default budget is
    /// 100 000 conflicts.
    pub fn set_conflict_budget(&mut self, conflicts: u64) {
        self.conflict_budget = conflicts;
    }

    /// Wires a run-level interrupt into the underlying solver: when
    /// `flag` is raised (or `deadline` passes mid-search), the active
    /// query gives up with [`ClauseOutcome::Unknown`] — the cooperative
    /// cancellation point inside a SAT search. See
    /// [`Solver::set_interrupt`](crate::Solver::set_interrupt).
    pub fn set_interrupt(
        &mut self,
        flag: std::sync::Arc<std::sync::atomic::AtomicBool>,
        deadline: Option<std::time::Instant>,
    ) {
        let solver = self.enc.solver_mut();
        solver.set_interrupt(flag);
        if let Some(d) = deadline {
            solver.set_deadline(d);
        }
    }

    /// Decides the clause `(!O_a + lits...)`, where each entry
    /// `(s, positive)` contributes the literal `s` or `!s`.
    ///
    /// Runs one conflict-limited search for an input vector that makes
    /// the site observable with all listed literals false.
    /// [`ClauseOutcome::Refuted`] carries that vector, one value per
    /// primary input in `Netlist::inputs` order. Under a
    /// [`with_support`](Self::with_support) encoding, inputs outside the
    /// encoded region take arbitrary values: nothing encoded depends on
    /// them, so the vector is a real counterexample whatever they are.
    pub fn check(&mut self, lits: &[(SignalId, bool)]) -> ClauseOutcome {
        let mut assumptions = vec![self.obs];
        for &(s, positive) in lits {
            // The literal must be FALSE in a counterexample.
            assumptions.push(self.enc.lit(s, !positive));
        }
        let budget = self.conflict_budget;
        match self.enc.solver_mut().solve_limited(&assumptions, budget) {
            Some(SatResult::Sat(model)) => {
                ClauseOutcome::Refuted(self.inputs.iter().map(|&v| model.var_value(v)).collect())
            }
            Some(SatResult::Unsat) => ClauseOutcome::Valid,
            None => ClauseOutcome::Unknown,
        }
    }

    /// Returns `true` iff [`check`](Self::check) proves the clause valid.
    pub fn is_valid(&mut self, lits: &[(SignalId, bool)]) -> bool {
        self.check(lits) == ClauseOutcome::Valid
    }

    /// Total solver conflicts so far (cost metric).
    #[must_use]
    pub fn conflicts(&self) -> u64 {
        // Accessing through the encoding keeps Solver private fields
        // encapsulated.
        self.enc_conflicts()
    }

    fn enc_conflicts(&self) -> u64 {
        // CircuitCnf exposes its solver mutably only; a read path:
        self.enc.solver_ref().conflicts()
    }

    /// Cumulative statistics of the underlying solver. Callers record
    /// per-query deltas with [`crate::SolverStats::since`].
    #[must_use]
    pub fn stats(&self) -> crate::SolverStats {
        self.enc.solver_ref().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 1 of the paper: d = AND(a,b); e = NOT(c); f = OR(d,e).
    fn fig1() -> (Netlist, [SignalId; 6]) {
        let mut nl = Netlist::new("fig1");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let e = nl.add_gate(GateKind::Not, &[c]).unwrap();
        let f = nl.add_gate(GateKind::Or, &[d, e]).unwrap();
        nl.add_output("f", f);
        (nl, [a, b, c, d, e, f])
    }

    #[test]
    fn paper_section2_clauses() {
        let (nl, [a, b, _c, _d, _e, _f]) = fig1();
        // (!O_a + b): a observable through the AND requires b = 1.
        let mut p = ClauseProver::new(&nl, a.into()).unwrap();
        assert!(p.is_valid(&[(b, true)]));
        // (!O_b + a) symmetric.
        let mut p = ClauseProver::new(&nl, b.into()).unwrap();
        assert!(p.is_valid(&[(a, true)]));
        // (!O_a + a) would claim a stuck-at-1 redundancy: not valid here.
        let mut p = ClauseProver::new(&nl, a.into()).unwrap();
        assert!(!p.is_valid(&[(a, true)]));
        // d observable requires e = 0 (OR side input), i.e. (!O_d + !e)...
        let (nl2, [_, _, _, d2, e2, _]) = fig1();
        let mut p = ClauseProver::new(&nl2, d2.into()).unwrap();
        assert!(p.is_valid(&[(e2, false)]));
    }

    #[test]
    fn counterexample_is_a_real_witness() {
        let (nl, [a, b, _c, _d, _e, _f]) = fig1();
        let mut p = ClauseProver::new(&nl, a.into()).unwrap();
        // (!O_a + !b) is invalid: a observable forces b=1, so !b never
        // rescues the clause.
        let ClauseOutcome::Refuted(cex) = p.check(&[(b, false)]) else {
            panic!("clause must be refuted");
        };
        // In the witness, b must be 1 (observability) — the literal !b is
        // false, and a must be observable.
        assert!(cex[1], "witness must set b so a is observable");
        assert_eq!(p.check(&[(b, true)]), ClauseOutcome::Valid);
    }

    #[test]
    fn exhausted_budget_is_unknown_not_refuted() {
        let (nl, [a, _b, _c, _d, _e, _f]) = fig1();
        let mut p = ClauseProver::new(&nl, a.into()).unwrap();
        p.set_interrupt(
            std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true)),
            None,
        );
        assert_eq!(p.check(&[(a, true)]), ClauseOutcome::Unknown);
        assert!(!p.is_valid(&[(a, true)]));
    }

    #[test]
    fn branch_site_differs_from_stem() {
        // a fans out to two XOR legs; the stem is unobservable (flips
        // cancel), but each single branch IS observable.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let g = nl.add_gate(GateKind::Xor, &[a, a]).unwrap();
        nl.add_output("y", g);
        let mut stem = ClauseProver::new(&nl, a.into()).unwrap();
        // Stem unobservable => every clause over it is valid, even the
        // empty-literal one (!O_a).
        assert!(stem.is_valid(&[]));
        let mut branch = ClauseProver::new(&nl, Branch { cell: g, pin: 0 }.into()).unwrap();
        assert!(!branch.is_valid(&[]));
    }

    #[test]
    fn redundancy_detection_c1_clause() {
        // y = OR(a, AND(a, b)): the AND gate is redundant (absorption);
        // its output is stuck-at-0 redundant w.r.t. the output.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let t = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let y = nl.add_gate(GateKind::Or, &[a, t]).unwrap();
        nl.add_output("y", y);
        // C1 clause (!O_t + !t): whenever t is observable, t = 0.
        let mut p = ClauseProver::new(&nl, t.into()).unwrap();
        assert!(p.is_valid(&[(t, false)]));
        // And NOT the dual (!O_t + t).
        assert!(!p.is_valid(&[(t, true)]));
    }

    #[test]
    fn unobservable_when_no_po_in_cone() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let _dangling = nl.add_gate(GateKind::Not, &[a]).unwrap();
        let keep = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        nl.add_output("y", keep);
        let mut p = ClauseProver::new(&nl, _dangling.into()).unwrap();
        assert!(p.is_valid(&[]));
    }

    #[test]
    fn os2_theorem1_pair() {
        // Two gates computing the same function: d1 = AND(a,b),
        // d2 = NOT(NAND(a,b)). OS2(d2, d1) needs
        // (!O_d2 + d2 + !d1)(!O_d2 + !d2 + d1).
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let d1 = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let n = nl.add_gate(GateKind::Nand, &[a, b]).unwrap();
        let d2 = nl.add_gate(GateKind::Not, &[n]).unwrap();
        nl.add_output("o1", d1);
        nl.add_output("o2", d2);
        let mut p = ClauseProver::new(&nl, d2.into()).unwrap();
        assert!(p.is_valid(&[(d2, true), (d1, false)]));
        assert!(p.is_valid(&[(d2, false), (d1, true)]));
        // And a wrong pairing fails: d2 vs NAND output n.
        assert!(!p.is_valid(&[(d2, true), (n, false)]) || !p.is_valid(&[(d2, false), (n, true)]));
    }
}
