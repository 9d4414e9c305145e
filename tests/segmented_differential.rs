//! The segmented read path against the monolithic one, on written-out
//! workloads for the stack-wide runner (`kb_testkit::stack`): op lists
//! drawn from the shared generator, installed as a chain of deltas,
//! compacted after any split, stacked 0, 2 and 8 deep. After every
//! step the runner holds the live builder and its freeze — the
//! monolithic path — and the chain, the store and the serving tier to
//! the reference: facts (confidence bits, span, source), `len`, and
//! the scans of every pattern mask (`matching_iter` in index order,
//! `count_matching`, `matching_batches` row for row).

use kb_testkit::gen::{self, Op, Step};
use kb_testkit::stack::{replay, Coverage};
use proptest::{test_seed, Strategy, TestRng};

/// `cases` op lists over four entities and three relations, drawn under
/// the seed of `name`.
fn drawn(name: &str, cases: u64) -> impl Iterator<Item = Vec<Op>> {
    let seed = test_seed(name);
    (0..cases).map(move |case| gen::ops(4, 3, 30..80).generate(&mut TestRng::for_case(seed, case)))
}

fn reached(coverage: &Coverage, path: &str) -> u64 {
    coverage.get(path).copied().unwrap_or(0)
}

/// Any op list, installed as one to four deltas, reads alike on the
/// chain and on the builder it was written into.
#[test]
fn segmented_matching_matches_monolithic() {
    for (case, ops) in drawn("segmented_matching_matches_monolithic", 4).enumerate() {
        let coverage = replay(&gen::installed(&ops, 1 + case));
        assert_eq!(reached(&coverage, "Install"), 1 + case as u64);
    }
}

/// Compaction is the identity on answers: deltas folded into a new base
/// at a split anywhere from the first write to the last, more deltas
/// stacked on it, and those folded in too, leave every read as the
/// reference has it.
#[test]
fn compaction_preserves_any_split() {
    for (case, ops) in drawn("compaction_preserves_any_split", 4).enumerate() {
        let cut = case * ops.len() / 3;
        let steps = [
            gen::installed(&ops[..cut], 1 + case),
            vec![Step::Compact],
            gen::installed(&ops[cut..], 2),
            vec![Step::Compact],
        ];
        assert_eq!(reached(&replay(&steps.concat()), "Compact"), 2);
    }
}

/// Stacks 0 (one install, compacted), 2 and 8 deltas deep, the last with
/// no compaction between: the batches of every mask's scan are its
/// tuple scan, chunked.
#[test]
fn batches_match_tuple_scans_across_delta_stacks() {
    let mut ops = drawn("batches_match_tuple_scans_across_delta_stacks", 3);
    for depth in [0, 2, 8] {
        let mut steps = gen::installed(&ops.next().unwrap(), depth);
        if depth == 0 {
            steps.push(Step::Compact);
        }
        let coverage = replay(&steps);
        assert_eq!(reached(&coverage, "stack 8 deep") > 0, depth == 8, "{depth} deltas");
    }
}
