//! Property tests for the Mural composition rules (the paper's Table 1):
//!
//! | Oper | Commutes | Distributes over ∪ |
//! |------|----------|--------------------|
//! | ψ    | yes      | yes                |
//! | Ω    | no       | yes                |
//!
//! The laws are checked on the *definitional* set semantics of
//! `mlql::mural::algebra` over randomized multilingual inputs, plus a SQL
//! round-trip asserting the optimizer's use of commutativity (operand
//! swapping) is observable-equivalent.

use mlql::mural::algebra::{
    canon_omega, canon_psi, canon_psi_swapped, omega, psi, psi_select, union,
};
use mlql::mural::semequal::SemState;
use mlql::phonetics::ConverterRegistry;
use mlql::taxonomy::books_fragment;
use mlql::unitext::{LanguageRegistry, UniText};
use proptest::prelude::*;
use std::sync::Arc;

fn langs() -> Arc<LanguageRegistry> {
    Arc::new(LanguageRegistry::new())
}

/// Strategy: a small set of UniText names over a tight alphabet so that
/// near-collisions (edit distance ≤ 2) actually occur.
fn unitext_set(reg: Arc<LanguageRegistry>) -> impl Strategy<Value = Vec<UniText>> {
    let lang_names = ["English", "French", "Tamil", "Hindi"];
    proptest::collection::vec(("[nrtk][aeu]{1,3}[nrs]?", 0usize..4), 0..6).prop_map(move |items| {
        items
            .into_iter()
            .map(|(text, li)| UniText::compose(text, reg.id_of(lang_names[li % 4])))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn psi_commutes(a in unitext_set(langs()), b in unitext_set(langs())) {
        let reg = langs();
        let convs = ConverterRegistry::with_builtins(&reg);
        prop_assert_eq!(
            canon_psi(psi(&a, &b, &convs)),
            canon_psi_swapped(psi(&b, &a, &convs))
        );
    }

    #[test]
    fn psi_distributes_over_union(
        a in unitext_set(langs()),
        b in unitext_set(langs()),
        c in unitext_set(langs()),
    ) {
        let reg = langs();
        let convs = ConverterRegistry::with_builtins(&reg);
        let lhs = canon_psi(psi(&union(&a, &b), &c, &convs));
        let rhs = canon_psi([psi(&a, &c, &convs), psi(&b, &c, &convs)].concat());
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn psi_select_is_a_restriction(
        a in unitext_set(langs()),
        b in unitext_set(langs()),
        k in 0usize..3,
    ) {
        let reg = langs();
        let convs = ConverterRegistry::with_builtins(&reg);
        let full = psi(&a, &b, &convs);
        let selected = psi_select(&a, &b, k, &convs);
        // σ_{d ≤ k}(ψ) keeps exactly the qualifying tagged tuples.
        prop_assert!(selected.iter().all(|t| t.2 <= k));
        let expect: Vec<_> = full.into_iter().filter(|t| t.2 <= k).collect();
        prop_assert_eq!(canon_psi(selected), canon_psi(expect));
    }

    #[test]
    fn omega_distributes_over_union(
        a in unitext_set(langs()),
        b in unitext_set(langs()),
    ) {
        let reg = langs();
        let (taxonomy, _) = books_fragment(&reg);
        let state = SemState::new(Arc::new(taxonomy));
        let c = vec![UniText::compose("History", reg.id_of("English"))];
        let lhs = canon_omega(omega(&union(&a, &b), &c, &state));
        let rhs = canon_omega([omega(&a, &c, &state), omega(&b, &c, &state)].concat());
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn omega_tags_preserve_inputs(a in unitext_set(langs()), b in unitext_set(langs())) {
        // "This operation preserves both the input strings" (§3.2): the
        // output is exactly the tagged Cartesian product.
        let reg = langs();
        let (taxonomy, _) = books_fragment(&reg);
        let state = SemState::new(Arc::new(taxonomy));
        let out = omega(&a, &b, &state);
        prop_assert_eq!(out.len(), a.len() * b.len());
    }
}

#[test]
fn omega_is_not_commutative_witness() {
    // Table 1 marks Ω non-commutative; exhibit the witness.
    let reg = langs();
    let (taxonomy, _) = books_fragment(&reg);
    let state = SemState::new(Arc::new(taxonomy));
    let bio = vec![UniText::compose("Biography", reg.id_of("English"))];
    let hist = vec![UniText::compose("History", reg.id_of("English"))];
    let fwd = omega(&bio, &hist, &state);
    let bwd = omega(&hist, &bio, &state);
    assert!(
        fwd[0].2 && !bwd[0].2,
        "Biography ⊑ History but not conversely"
    );
}

#[test]
fn sql_respects_psi_commutativity() {
    // The optimizer may swap ψ operands (it normalizes const-vs-column
    // using Table 1); both spellings must return identical rows.
    use mlql::kernel::Session;
    use mlql::mural::install;
    let mut db = Session::new_in_memory();
    install(&mut db).unwrap();
    db.execute("CREATE TABLE t (v UNITEXT)").unwrap();
    for n in ["Nehru", "Neru", "Gandhi"] {
        db.execute(&format!("INSERT INTO t VALUES (unitext('{n}','English'))"))
            .unwrap();
    }
    db.execute("SET lexequal.threshold = 1").unwrap();
    let a = db
        .query("SELECT count(*) FROM t WHERE v LEXEQUAL unitext('Nehru','English')")
        .unwrap();
    let b = db
        .query("SELECT count(*) FROM t WHERE unitext('Nehru','English') LEXEQUAL v")
        .unwrap();
    assert!(a[0][0].eq_sql(&b[0][0]));
    assert_eq!(a[0][0].as_int(), Some(2));
}
