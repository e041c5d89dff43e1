//! Counterexample replay is sound: over random netlists and random
//! constant, `Sub2` and `Sub3` rewrites at stem and branch sites,
//!
//! * every witness the clause prover returns replays through
//!   `sim::simulate` as a real counterexample — the site is observable
//!   and every literal of the refuted clause is false;
//! * whenever the witness pool refutes a rewrite, the SAT clause prover
//!   rejects it too, so replay never changes a decision.

use gdo::{
    prove_rewrite, prove_rewrite_with_budget, Gate3, ProofOutcome, ProverKind, Rewrite,
    RewriteKind, SigLit, Site, WitnessPool,
};
use library::standard_library;
use netlist::{Branch, GateKind, Netlist, SignalId};
use proptest::prelude::*;
use sat::{ClauseOutcome, ClauseProver};
use sim::{simulate, ObservabilityEngine, VectorSet};

#[derive(Debug, Clone)]
struct Recipe {
    n_inputs: usize,
    gates: Vec<(u8, Vec<usize>)>,
    outputs: Vec<usize>,
    /// (kind selector, site signal, pin, b, c) picks, resolved modulo the
    /// netlist's sizes.
    rewrites: Vec<(u8, usize, usize, usize, usize)>,
    /// Random vectors seeded into the pool before any SAT witness.
    seed_vectors: Vec<Vec<bool>>,
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    (3usize..=7).prop_flat_map(|n_inputs| {
        let gate = (0u8..8, proptest::collection::vec(0usize..64, 1..4));
        let rewrite = (0u8..16, 0usize..64, 0usize..4, 0usize..64, 0usize..64);
        let vector = proptest::collection::vec(proptest::bool::ANY, n_inputs);
        (
            proptest::collection::vec(gate, 2..30),
            proptest::collection::vec(0usize..64, 1..4),
            proptest::collection::vec(rewrite, 8..24),
            proptest::collection::vec(vector, 0..4),
        )
            .prop_map(move |(gates, outputs, rewrites, seed_vectors)| Recipe {
                n_inputs,
                gates,
                outputs,
                rewrites,
                seed_vectors,
            })
    })
}

fn build(recipe: &Recipe) -> Netlist {
    let mut nl = Netlist::new("prop");
    let mut pool: Vec<SignalId> = (0..recipe.n_inputs)
        .map(|i| nl.add_input(format!("x{i}")))
        .collect();
    for (sel, fanin_refs) in &recipe.gates {
        let kind = match sel % 8 {
            0 => GateKind::And,
            1 => GateKind::Or,
            2 => GateKind::Nand,
            3 => GateKind::Nor,
            4 | 5 => GateKind::Xor,
            6 => GateKind::Xnor,
            _ => GateKind::Not,
        };
        let arity = match kind {
            GateKind::Not => 1,
            _ => fanin_refs.len().clamp(2, 3),
        };
        let fanins: Vec<SignalId> = (0..arity)
            .map(|i| pool[fanin_refs.get(i).copied().unwrap_or(i) % pool.len()])
            .collect();
        if let Ok(g) = nl.add_gate(kind, &fanins) {
            pool.push(g);
        }
    }
    for (k, &o) in recipe.outputs.iter().enumerate() {
        nl.add_output(format!("z{k}"), pool[o % pool.len()]);
    }
    nl
}

/// Resolves one pick into a rewrite: odd kind selectors act on a branch
/// of a gate, even ones on a stem; the rest chooses const, `Sub2` or one
/// of the `Sub3` gate functions.
fn resolve(nl: &Netlist, pick: (u8, usize, usize, usize, usize)) -> Rewrite {
    let (sel, at, pin, b, c) = pick;
    let signals: Vec<SignalId> = nl.signals().collect();
    let gates: Vec<SignalId> = nl.gates().collect();
    let site = if sel % 2 == 1 && !gates.is_empty() {
        let cell = gates[at % gates.len()];
        let pin = (pin % nl.fanins(cell).len()) as u32;
        Site::Branch(Branch { cell, pin })
    } else {
        Site::Stem(signals[at % signals.len()])
    };
    let (b, c) = (signals[b % signals.len()], signals[c % signals.len()]);
    let phase = sel & 4 != 0;
    let kind = match (sel / 2) % 8 {
        0 => RewriteKind::SubConst { value: phase },
        1 | 2 => RewriteKind::Sub2 {
            b: if phase {
                SigLit::pos(b)
            } else {
                SigLit::neg(b)
            },
        },
        3 => RewriteKind::Sub3 {
            gate: Gate3::And(phase, sel & 8 != 0),
            b,
            c,
        },
        4 => RewriteKind::Sub3 {
            gate: Gate3::Or(phase, sel & 8 != 0),
            b,
            c,
        },
        5 => RewriteKind::Sub3 {
            gate: Gate3::Xor,
            b,
            c,
        },
        6 => RewriteKind::Sub3 {
            gate: Gate3::Xnor,
            b,
            c,
        },
        _ => RewriteKind::SubConst { value: !phase },
    };
    Rewrite { site, kind }
}

/// True iff `vector` makes `site` observable with every literal of
/// `clause` false, by plain simulation.
fn is_counterexample(
    nl: &Netlist,
    site: Site,
    clause: &[(SignalId, bool)],
    vector: &[bool],
) -> bool {
    let sim = simulate(nl, &VectorSet::from_single(vector)).expect("acyclic");
    let mut engine = ObservabilityEngine::new(nl, &sim).expect("acyclic");
    let observable = match site {
        Site::Stem(s) => engine.observability(s)[0] & 1 == 1,
        Site::Branch(b) => engine.observability_branch(b)[0] & 1 == 1,
    };
    observable
        && clause
            .iter()
            .all(|&(s, positive)| sim.bit(s, 0) != positive)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sat_witnesses_are_real_counterexamples(recipe in recipe_strategy()) {
        let nl = build(&recipe);
        for &pick in &recipe.rewrites {
            let rw = resolve(&nl, pick);
            let clauses = rw.clauses(&nl);
            let support: Vec<SignalId> =
                clauses.iter().flat_map(|c| c.iter().map(|&(s, _)| s)).collect();
            let mut prover =
                ClauseProver::with_support(&nl, rw.site.fault(), &support).expect("live site");
            for clause in &clauses {
                match prover.check(clause) {
                    ClauseOutcome::Refuted(witness) => {
                        prop_assert_eq!(witness.len(), nl.inputs().len());
                        prop_assert!(
                            is_counterexample(&nl, rw.site, clause, &witness),
                            "{rw}: witness {witness:?} does not refute {clause:?}"
                        );
                    }
                    ClauseOutcome::Valid => {}
                    ClauseOutcome::Unknown => {
                        return Err(TestCaseError::fail(format!("{rw}: unknown on a tiny cone")));
                    }
                }
            }
        }
    }

    #[test]
    fn pool_refutations_agree_with_sat(recipe in recipe_strategy()) {
        let nl = build(&recipe);
        let lib = standard_library();
        let mut pool = WitnessPool::default();
        for vector in &recipe.seed_vectors {
            pool.push(vector.clone());
        }
        for &pick in &recipe.rewrites {
            let rw = resolve(&nl, pick);
            let clauses = rw.clauses(&nl);
            let replayed = pool.refute(&nl, rw.site, &clauses).expect("acyclic");
            let valid = prove_rewrite(&nl, &lib, &rw, ProverKind::SatClause).expect("proves");
            if let Some(witness) = replayed {
                prop_assert!(!valid, "{rw}: the pool refuted a valid rewrite");
                prop_assert!(
                    clauses.iter().any(|c| is_counterexample(&nl, rw.site, c, &witness)),
                    "{rw}: pooled witness {witness:?} refutes no clause"
                );
            }
            // Feed the prover's own witnesses back, as the optimizer does.
            let outcome =
                prove_rewrite_with_budget(&nl, &lib, &rw, ProverKind::SatClause, 100_000, None)
                    .expect("proves");
            prop_assert_eq!(outcome.is_valid(), valid);
            if let ProofOutcome::Refuted(Some(witness)) = outcome {
                pool.push(witness);
            }
        }
    }
}
