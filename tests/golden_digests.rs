//! Byte-identity pins for the Table-1 area flow: generate → script →
//! area map → GDO with the default configuration, then the FNV-1a digest
//! of the written BLIF. The digests, proof counts and valid-proof counts
//! were recorded before counterexample replay joined the proof step;
//! replay only ever answers "not valid" where the SAT prover would, so
//! every accept/reject decision — and with it every byte of output and
//! every proof count — must stay exactly where it was.

use bench::{bench_library, prepare, Flow};
use gdo::{snapshot::fnv1a64, Budget, GdoConfig, OptimizeRequest, Pipeline};

/// Optimizes `name` through the area flow and checks the output digest
/// and the proof accounting against the recorded values.
fn check(name: &str, digest: u64, proofs: usize, proofs_valid: usize) {
    let lib = bench_library();
    let entry = workloads::circuit_by_name(name).expect("suite circuit");
    let mut nl = prepare(&entry, &lib, Flow::Area);
    let stats = Pipeline::new(&lib)
        .run(
            &OptimizeRequest::new(GdoConfig::default()),
            &mut nl,
            &Budget::unlimited(),
        )
        .expect("optimizer succeeds");
    let blif = formats::write_blif(&nl).expect("writable");
    let got = (fnv1a64(blif.as_bytes()), stats.proofs, stats.proofs_valid);
    assert_eq!(
        got,
        (digest, proofs, proofs_valid),
        "{name}: (digest {:#018x}, proofs, valid) moved",
        got.0
    );
}

#[test]
fn x3_area_flow_is_byte_identical() {
    check("x3", 0x7e76_ae44_0ce5_8dcc, 7719, 93);
}

#[test]
fn z5xp1_area_flow_is_byte_identical() {
    check("Z5xp1", 0x2c96_45d3_982b_30e8, 90, 83);
}

#[test]
fn c432_area_flow_is_byte_identical() {
    check("C432", 0xa029_0cf2_624d_b227, 171, 161);
}
