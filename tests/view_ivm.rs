//! Standing views on one query service, on written-out workloads for
//! the stack-wide runner (`kb_testkit::stack`): views registered over a
//! KB, then a chain of deltas of assertions and retractions. After
//! every install the runner holds each view's answer to the reference
//! evaluation of its text, and each update's `removed` and `added` to
//! the multiset difference of the previous answer and the new one —
//! whether the view is patched incrementally or re-executed.

use kb_testkit::gen::{self, Step};
use kb_testkit::stack::replay;
use proptest::{test_seed, Strategy, TestRng};

/// A fallback over a descending answer: its diff must walk the answer
/// in its own order, or rows that stay count as both removed and added.
const DESCENDING: &str = "SELECT DISTINCT ?o WHERE { ?s r2 ?o } ORDER BY DESC(?o) LIMIT 3";

/// A random KB, a random view, a random monotone view and the
/// descending fallback, then a chain of two to four deltas: the service
/// patches some views and re-executes others, and every answer and
/// update holds.
#[test]
fn patched_views_match_reexecution_across_delta_chains() {
    let seed = test_seed("patched_views_match_reexecution_across_delta_chains");
    let (mut patched, mut reexecuted) = (0, 0);
    for case in 0..3u64 {
        let rng = &mut TestRng::for_case(seed, case);
        let ops = gen::ops(4, 3, 30..80).generate(rng);
        let (first, rest) = ops.split_at(ops.len() / 3);
        let texts = [gen::query_texts().generate(rng), gen::monotone_texts().generate(rng)];
        let views = texts.into_iter().chain([DESCENDING.to_string()]).map(Step::Register);
        let steps =
            [gen::installed(first, 1), views.collect(), gen::installed(rest, 2 + case as usize)];
        let coverage = replay(&steps.concat());
        patched += coverage["service view.delta_patched"];
        reexecuted += coverage["service view.reexecuted"];
    }
    assert!(patched > 0 && reexecuted > 0, "{patched} patched, {reexecuted} re-executed");
}
