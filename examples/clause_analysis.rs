//! Clause analysis on the paper's Figure 1 circuit: derive and check the
//! local and global clauses of Section 2.
//!
//! ```text
//! cargo run -p gdo --example clause_analysis
//! ```

use netlist::{GateKind, Netlist};
use sat::{CircuitCnf, ClauseOutcome, ClauseProver, SatResult};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Figure 1: d = AND(a, b); e = NOT(c); f = OR(d, e).
    let mut nl = Netlist::new("fig1");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let c = nl.add_input("c");
    let d = nl.add_gate(GateKind::And, &[a, b])?;
    let e = nl.add_gate(GateKind::Not, &[c])?;
    let f = nl.add_gate(GateKind::Or, &[d, e])?;
    nl.add_output("f", f);

    // --- Local clauses: the characteristic formula of each gate. ---
    // The AND gate contributes (!d + a)(!d + b)(d + !a + !b); checking one:
    // no consistent assignment has d = 1 with a = 0.
    let mut enc = CircuitCnf::build(&nl)?;
    let assumptions = [enc.lit(d, true), enc.lit(a, false)];
    assert_eq!(enc.solver_mut().solve(&assumptions), SatResult::Unsat);
    println!("local clause (!d + a) of the AND gate holds");

    // --- Observability clauses. ---
    // Input a of the AND gate is observable only if b = 1, the paper's
    // valid clause (!O_a + b):
    let mut prover = ClauseProver::new(&nl, a.into())?;
    assert!(prover.is_valid(&[(b, true)]));
    println!("global clause (!O_a + b) is valid");

    // d is observable through the OR gate only if e = 0: (!O_d + !e).
    let mut prover = ClauseProver::new(&nl, d.into())?;
    assert!(prover.is_valid(&[(e, false)]));
    println!("global clause (!O_d + !e) is valid");

    // A clause that is NOT valid: (!O_a + a) would mean a is stuck-at-1
    // redundant, which it is not in this circuit.
    let mut prover = ClauseProver::new(&nl, a.into())?;
    let ClauseOutcome::Refuted(witness) = prover.check(&[(a, true)]) else {
        panic!("(!O_a + a) must be refuted");
    };
    println!(
        "clause (!O_a + a) is invalid; witness input vector (a,b,c) = {:?}",
        witness
    );
    Ok(())
}
