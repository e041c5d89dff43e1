//! Exact proof of a candidate rewrite — the step that turns a
//! *potentially valid* clause combination into a permissible
//! transformation.
//!
//! The paper offers two provers and so do we:
//!
//! * **ATPG-style / SAT** ([`ProverKind::SatClause`], the default): each
//!   clause of the combination is checked by an incremental SAT query on
//!   a faulty-cone construction ([`sat::ClauseProver`]). Scales to large
//!   circuits.
//! * **BDD equivalence** ([`ProverKind::BddEquiv`]): the rewrite is
//!   applied to a scratch copy and the modified circuit is verified
//!   against the original with BDDs; on node-budget exhaustion the check
//!   falls back to a SAT miter, mirroring the paper's observation that
//!   "ATPG ... enables the optimization of circuits for which BDD
//!   representations become too large".

use crate::replay::WitnessPool;
use crate::{transform, Budget, GdoError, Rewrite};
use library::Library;
use netlist::Netlist;
use sat::{ClauseOutcome, ClauseProver};

/// Which engine proves PVCC validity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProverKind {
    /// Incremental SAT on the observability clauses (default).
    #[default]
    SatClause,
    /// BDD equivalence of original vs. modified circuit, with SAT
    /// fallback past the node budget.
    BddEquiv {
        /// Maximum BDD nodes before falling back to SAT.
        node_limit: usize,
    },
    /// SAT miter equivalence of original vs. modified circuit.
    SatEquiv,
}

/// The answer of one rewrite proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofOutcome {
    /// Every clause of the rewrite's combination holds: the rewrite is
    /// permissible.
    Valid,
    /// The rewrite is not permissible. Under [`ProverKind::SatClause`]
    /// this carries the witness: a primary-input vector (in
    /// `Netlist::inputs` order) under which the site is observable and
    /// every literal of one clause is false. The equivalence provers
    /// report no witness.
    Refuted(Option<Vec<bool>>),
    /// Neither: the SAT conflict budget ran out, or the run budget was
    /// exhausted before or during the proof. Not a refutation.
    Unknown,
}

impl ProofOutcome {
    /// `true` for [`ProofOutcome::Valid`].
    #[must_use]
    pub fn is_valid(&self) -> bool {
        *self == ProofOutcome::Valid
    }
}

/// Proves whether `rw` is permissible on the current netlist, with the
/// default SAT conflict budget (100 000 conflicts per clause query).
///
/// # Errors
///
/// [`GdoError`] if the scratch application of the rewrite fails
/// structurally (equivalence-based provers only).
pub fn prove_rewrite(
    nl: &Netlist,
    lib: &Library,
    rw: &Rewrite,
    prover: ProverKind,
) -> Result<bool, GdoError> {
    prove_rewrite_budgeted(nl, lib, rw, prover, 100_000)
}

/// Like [`prove_rewrite`] with an explicit SAT conflict budget for the
/// clause prover. Budget exhaustion counts as *not proven*: optimization
/// opportunities may be lost but never soundness.
///
/// # Errors
///
/// Same as [`prove_rewrite`].
pub fn prove_rewrite_budgeted(
    nl: &Netlist,
    lib: &Library,
    rw: &Rewrite,
    prover: ProverKind,
    conflict_budget: u64,
) -> Result<bool, GdoError> {
    Ok(prove_rewrite_with_budget(nl, lib, rw, prover, conflict_budget, None)?.is_valid())
}

/// Like [`prove_rewrite_budgeted`] under a run [`Budget`], reporting the
/// full [`ProofOutcome`]: the proof is skipped outright when the budget
/// is already exhausted, and the budget's interrupt flag and deadline
/// reach into the SAT search so an in-flight query gives up at its next
/// conflict. A proof abandoned for budget reasons is
/// [`ProofOutcome::Unknown`] (never cached as refuted by the optimizer)
/// and bumps the `prove.budget_refuted` counter.
///
/// The BDD path is bounded by its own node limit; the budget is checked
/// before the (bounded) BDD build, and its SAT fallback honours the
/// interrupt like every other SAT query.
///
/// # Errors
///
/// Same as [`prove_rewrite`].
pub fn prove_rewrite_with_budget(
    nl: &Netlist,
    lib: &Library,
    rw: &Rewrite,
    prover: ProverKind,
    conflict_budget: u64,
    budget: Option<&Budget>,
) -> Result<ProofOutcome, GdoError> {
    prove_rewrite_replayed(nl, lib, rw, prover, conflict_budget, budget, None)
}

/// [`prove_rewrite_with_budget`] with counterexample replay: under
/// [`ProverKind::SatClause`], the witnesses in `pool` are simulated
/// against the rewrite's clauses before any encoding is built, and every
/// new SAT witness joins the pool. A replay refutation is an exact
/// simulation of a real input vector, so it answers exactly when SAT
/// would also have answered "not valid". The other provers ignore the
/// pool.
pub(crate) fn prove_rewrite_replayed(
    nl: &Netlist,
    lib: &Library,
    rw: &Rewrite,
    prover: ProverKind,
    conflict_budget: u64,
    budget: Option<&Budget>,
    pool: Option<&mut WitnessPool>,
) -> Result<ProofOutcome, GdoError> {
    let _span = telemetry::span("gdo.prove");
    let outcome = prove_uncounted(nl, lib, rw, prover, conflict_budget, budget, pool)?;
    count_outcome(&outcome);
    Ok(outcome)
}

fn prove_uncounted(
    nl: &Netlist,
    lib: &Library,
    rw: &Rewrite,
    prover: ProverKind,
    conflict_budget: u64,
    budget: Option<&Budget>,
    pool: Option<&mut WitnessPool>,
) -> Result<ProofOutcome, GdoError> {
    if budget.is_some_and(Budget::is_exhausted) {
        telemetry::counter_add("prove.budget_refuted", 1);
        return Ok(ProofOutcome::Unknown);
    }
    match prover {
        ProverKind::SatClause => prove_clauses(nl, rw, conflict_budget, budget, pool),
        ProverKind::BddEquiv { node_limit } => {
            let mut modified = nl.clone();
            transform::apply_rewrite(&mut modified, lib, rw, true)?;
            match bdd::check_equiv_stats(nl, &modified, node_limit) {
                Ok((eq, bdd_stats)) => {
                    record_bdd_stats(bdd_stats);
                    Ok(equivalence_outcome(eq))
                }
                Err(bdd::CircuitBddError::Bdd(_)) => {
                    // Node budget exhausted: fall back to SAT, as the
                    // paper prescribes for large circuits.
                    telemetry::counter_add("bdd.fallbacks", 1);
                    let (eq, sat_stats) =
                        sat::check_equiv_stats(nl, &modified).map_err(equiv_to_gdo)?;
                    record_sat_stats(sat_stats);
                    Ok(equivalence_outcome(eq))
                }
                Err(bdd::CircuitBddError::Netlist(e)) => Err(GdoError::Netlist(e)),
                Err(_) => unreachable!("modified copy keeps the interface"),
            }
        }
        ProverKind::SatEquiv => {
            let mut modified = nl.clone();
            transform::apply_rewrite(&mut modified, lib, rw, true)?;
            let (eq, sat_stats) = sat::check_equiv_stats(nl, &modified).map_err(equiv_to_gdo)?;
            record_sat_stats(sat_stats);
            Ok(equivalence_outcome(eq))
        }
    }
}

/// The clause prover: replay the pool, then one SAT query per clause
/// until one is not valid.
fn prove_clauses(
    nl: &Netlist,
    rw: &Rewrite,
    conflict_budget: u64,
    budget: Option<&Budget>,
    mut pool: Option<&mut WitnessPool>,
) -> Result<ProofOutcome, GdoError> {
    let clauses = rw.clauses(nl);
    if let Some(pool) = pool.as_deref_mut() {
        if let Some(witness) = pool.refute(nl, rw.site, &clauses)? {
            telemetry::counter_add("prove.replay_refuted", 1);
            return Ok(ProofOutcome::Refuted(Some(witness)));
        }
    }
    // Restrict the encoding to the support of the fault cone and the
    // queried literals — cone-local proofs on large circuits.
    let support: Vec<netlist::SignalId> = clauses
        .iter()
        .flat_map(|c| c.iter().map(|&(s, _)| s))
        .collect();
    let mut p = ClauseProver::with_support(nl, rw.site.fault(), &support)?;
    p.set_conflict_budget(conflict_budget);
    if let Some(b) = budget {
        p.set_interrupt(b.interrupt_flag(), b.deadline());
    }
    let outcome = clauses
        .iter()
        .map(|clause| p.check(clause))
        .find(|o| *o != ClauseOutcome::Valid)
        .unwrap_or(ClauseOutcome::Valid);
    record_sat_stats(p.stats());
    if outcome != ClauseOutcome::Valid && budget.is_some_and(Budget::is_exhausted) {
        // The failure is (at least partly) the budget's doing: report it
        // as skipped work, not as a refutation.
        telemetry::counter_add("prove.budget_refuted", 1);
    }
    Ok(match outcome {
        ClauseOutcome::Valid => ProofOutcome::Valid,
        ClauseOutcome::Refuted(witness) => {
            if let Some(pool) = pool {
                pool.push(witness.clone());
            }
            ProofOutcome::Refuted(Some(witness))
        }
        ClauseOutcome::Unknown => ProofOutcome::Unknown,
    })
}

/// The outcome of an equivalence check of the original against the
/// rewritten circuit, which carries no witness.
pub(crate) fn equivalence_outcome(eq: bool) -> ProofOutcome {
    if eq {
        ProofOutcome::Valid
    } else {
        ProofOutcome::Refuted(None)
    }
}

/// Bumps the `prove.{valid,refuted,unknown}` counter of one proof; every
/// proof the optimizer counts in `GdoStats::proofs` lands in exactly one.
pub(crate) fn count_outcome(outcome: &ProofOutcome) {
    telemetry::counter_add(
        match outcome {
            ProofOutcome::Valid => "prove.valid",
            ProofOutcome::Refuted(_) => "prove.refuted",
            ProofOutcome::Unknown => "prove.unknown",
        },
        1,
    );
}

/// Accumulates one prove call's SAT search effort on the `sat.*`
/// counters. The solver keeps plain-integer tallies internally; this is
/// the only point where they cross into telemetry.
fn record_sat_stats(s: sat::SolverStats) {
    if !telemetry::enabled() {
        return;
    }
    telemetry::counter_add("sat.prove_calls", 1);
    telemetry::counter_add("sat.decisions", s.decisions);
    telemetry::counter_add("sat.conflicts", s.conflicts);
    telemetry::counter_add("sat.propagations", s.propagations);
    telemetry::counter_add("sat.learned", s.learned);
    telemetry::counter_add("sat.restarts", s.restarts);
}

/// Accumulates one BDD equivalence check's manager footprint on the
/// `bdd.*` counters.
fn record_bdd_stats(s: bdd::BddCheckStats) {
    if !telemetry::enabled() {
        return;
    }
    telemetry::counter_add("bdd.checks", 1);
    telemetry::counter_add("bdd.nodes", s.nodes as u64);
    telemetry::counter_add("bdd.ite_cache_entries", s.ite_cache_entries as u64);
}

fn equiv_to_gdo(e: sat::EquivError) -> GdoError {
    match e {
        sat::EquivError::Netlist(err) => GdoError::Netlist(err),
        _ => unreachable!("modified copy keeps the interface"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gate3, RewriteKind, SigLit, Site};
    use library::standard_library;
    use netlist::{GateKind, SignalId};

    /// y = OR(a, AND(a, b)) — absorption makes AND(a,b) substitutable in
    /// several ways.
    fn absorption() -> (Netlist, Library, [SignalId; 4]) {
        let lib = standard_library();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let t = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let y = nl.add_gate(GateKind::Or, &[a, t]).unwrap();
        nl.set_lib(t, Some(lib.find("and2").unwrap().tag()))
            .unwrap();
        nl.set_lib(y, Some(lib.find("or2").unwrap().tag())).unwrap();
        nl.add_output("y", y);
        (nl, lib, [a, b, t, y])
    }

    fn all_provers() -> [ProverKind; 3] {
        [
            ProverKind::SatClause,
            ProverKind::BddEquiv {
                node_limit: 1 << 16,
            },
            ProverKind::SatEquiv,
        ]
    }

    #[test]
    fn provers_agree_on_valid_const_sub() {
        let (nl, lib, [_a, _b, t, _y]) = absorption();
        // t is stuck-at-0 redundant: y = a + ab = a.
        let rw = Rewrite {
            site: Site::Stem(t),
            kind: RewriteKind::SubConst { value: false },
        };
        for p in all_provers() {
            assert!(prove_rewrite(&nl, &lib, &rw, p).unwrap(), "{p:?}");
        }
    }

    #[test]
    fn provers_agree_on_invalid_sub() {
        let (nl, lib, [a, b, t, _y]) = absorption();
        // Substituting t by b is NOT permissible (b=1, a=0 distinguishes).
        let rw = Rewrite {
            site: Site::Stem(t),
            kind: RewriteKind::Sub2 { b: SigLit::pos(b) },
        };
        for p in all_provers() {
            assert!(!prove_rewrite(&nl, &lib, &rw, p).unwrap(), "{p:?}");
        }
        let _ = a;
    }

    #[test]
    fn provers_agree_on_valid_sub2() {
        // d2 = NOT(NAND(a,b)) duplicates d1 = AND(a,b).
        let lib = standard_library();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let d1 = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let n = nl.add_gate(GateKind::Nand, &[a, b]).unwrap();
        let d2 = nl.add_gate(GateKind::Not, &[n]).unwrap();
        nl.add_output("o1", d1);
        nl.add_output("o2", d2);
        let rw = Rewrite {
            site: Site::Stem(d2),
            kind: RewriteKind::Sub2 { b: SigLit::pos(d1) },
        };
        for p in all_provers() {
            assert!(prove_rewrite(&nl, &lib, &rw, p).unwrap(), "{p:?}");
        }
        // And the inverted substitution by the NAND output.
        let rw = Rewrite {
            site: Site::Stem(d2),
            kind: RewriteKind::Sub2 { b: SigLit::neg(n) },
        };
        // Structural note: n is d2's own fanin, not fanout — legal.
        for p in all_provers() {
            assert!(prove_rewrite(&nl, &lib, &rw, p).unwrap(), "{p:?}");
        }
    }

    #[test]
    fn provers_agree_on_sub3() {
        // y drives PO; t = AND(a,b) computed via NAND+INV elsewhere:
        // replace the INV chain output by a *new* AND gate — always
        // permissible since it recomputes the same function.
        let lib = standard_library();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let n = nl.add_gate(GateKind::Nand, &[a, b]).unwrap();
        let t = nl.add_gate(GateKind::Not, &[n]).unwrap();
        let y = nl.add_gate(GateKind::Or, &[t, a]).unwrap();
        nl.add_output("y", y);
        let rw = Rewrite {
            site: Site::Stem(t),
            kind: RewriteKind::Sub3 {
                gate: Gate3::And(true, true),
                b: a,
                c: b,
            },
        };
        for p in all_provers() {
            assert!(prove_rewrite(&nl, &lib, &rw, p).unwrap(), "{p:?}");
        }
        // A wrong gate type is refuted.
        let rw = Rewrite {
            site: Site::Stem(t),
            kind: RewriteKind::Sub3 {
                gate: Gate3::Or(true, true),
                b: a,
                c: b,
            },
        };
        for p in all_provers() {
            assert!(!prove_rewrite(&nl, &lib, &rw, p).unwrap(), "{p:?}");
        }
    }

    #[test]
    fn bdd_fallback_on_tiny_budget_still_answers() {
        let (nl, lib, [a, _b, t, _y]) = absorption();
        let rw = Rewrite {
            site: Site::Stem(t),
            kind: RewriteKind::SubConst { value: false },
        };
        // A 3-node budget cannot even hold one variable: fallback to SAT.
        let ok = prove_rewrite(&nl, &lib, &rw, ProverKind::BddEquiv { node_limit: 3 }).unwrap();
        assert!(ok);
        let _ = a;
    }
}
