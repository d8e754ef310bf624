//! The generator is a pure function of the seed: the same seed gives
//! byte-identical inputs, another seed gives different ones.

use perfbench::gen::{fleet_session, offline_bytes, offline_instance};

fn inputs(seed: u64) -> String {
    let mut out = String::new();
    for i in 0..16 {
        out.push_str(&offline_bytes(&offline_instance(seed, i)));
    }
    out.push_str(&fleet_session(seed, 0).bytes());
    out
}

#[test]
fn same_seed_same_bytes() {
    assert_eq!(inputs(7), inputs(7));
}

#[test]
fn other_seed_other_bytes() {
    let a = inputs(7);
    let b = inputs(8);
    assert_ne!(a, b);
    // Every part differs, not just one.
    assert_ne!(fleet_session(7, 0).bytes(), fleet_session(8, 0).bytes());
    assert_ne!(
        offline_bytes(&offline_instance(7, 0)),
        offline_bytes(&offline_instance(8, 0))
    );
}

#[test]
fn sessions_are_well_formed() {
    for session in [fleet_session(3, 1), fleet_session(4, 0)] {
        let coflows = session
            .lines
            .iter()
            .filter(|l| l.kind == perfbench::gen::Kind::Coflow)
            .count();
        assert_eq!(coflows, session.coflow_lines());
        assert_eq!(session.lines.last().map(|l| l.text.as_str()), Some("BYE"));
    }
}
