//! Property tests for the columnar pair kernel: `IdMappingSet::{join,
//! difference, left_outer_join}` must equal the term-level `MappingSet`
//! operations — the paper's Section 2.1 definitions transcribed — on the
//! decoded inputs.
//!
//! Ids are drawn from a tiny range so hash buckets hold many rows, and
//! each side takes one of five shapes that steer the kernel's key (the
//! columns bound in every row of both sides): per-row unbound columns,
//! every column bound (full key), an all-unbound row, a staircase where
//! no column is bound in every row (empty key), and no rows at all.

use owql_algebra::{IdMappingSet, Iri, MappingSet, VarFrame, Variable};
use owql_rdf::{TermDict, TermId};
use proptest::prelude::*;

/// Distinct term ids in play; `0` is unbound.
const IDS: TermId = 3;
const MAX_WIDTH: usize = 6;

/// One side: its shape (see the module docs) and raw cells, `MAX_WIDTH`
/// per row, in `0..=IDS`.
fn arb_side() -> impl Strategy<Value = (u8, Vec<Vec<TermId>>)> {
    (
        0..5u8,
        proptest::collection::vec(
            proptest::collection::vec(0..IDS + 1, MAX_WIDTH..MAX_WIDTH + 1),
            0..12,
        ),
    )
}

fn build(width: usize, (shape, cells): (u8, Vec<Vec<TermId>>)) -> IdMappingSet {
    let mut set = IdMappingSet::new(width);
    for (r, row) in cells.iter().enumerate() {
        let mut row = row[..width].to_vec();
        match shape {
            1 => row.iter_mut().for_each(|id| *id = *id % IDS + 1),
            2 if r == 0 => row.fill(0),
            3 => row[r % width] = 0,
            4 => continue,
            _ => {}
        }
        set.push_row(&row);
    }
    set.sort_dedup();
    set
}

/// `got` is sorted and distinct, and decodes to exactly `want`.
fn assert_matches(
    got: &IdMappingSet,
    want: &MappingSet,
    frame: &VarFrame,
    dict: &TermDict,
    op: &str,
) {
    let rows: Vec<&[TermId]> = got.rows().collect();
    assert!(
        rows.windows(2).all(|w| w[0] < w[1]),
        "{op}: rows not sorted and distinct"
    );
    assert_eq!(
        got.decode(frame, dict).iter_sorted(),
        want.iter_sorted(),
        "{op}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The kernel-backed operators agree with the term-level oracle, and
    /// the left outer join is exactly `join ∪ difference`.
    #[test]
    fn pair_kernel_matches_term_level_operations(
        width in 1..MAX_WIDTH + 1,
        left in arb_side(),
        right in arb_side(),
    ) {
        let dict = TermDict::new();
        for id in 1..=IDS {
            prop_assert_eq!(dict.intern(Iri::new(&format!("t{id}"))), id);
        }
        let frame = VarFrame::new((0..width).map(|c| Variable::new(&format!("v{c}")))).unwrap();
        let (a, b) = (build(width, left), build(width, right));
        let (ta, tb) = (a.decode(&frame, &dict), b.decode(&frame, &dict));

        let join = a.join(&b);
        let difference = a.difference(&b);
        let loj = a.left_outer_join(&b);
        assert_matches(&join, &ta.join(&tb), &frame, &dict, "join");
        assert_matches(&difference, &ta.difference(&tb), &frame, &dict, "difference");
        assert_matches(&loj, &ta.left_outer_join(&tb), &frame, &dict, "left_outer_join");
        prop_assert_eq!(loj, join.union(&difference));
    }
}
