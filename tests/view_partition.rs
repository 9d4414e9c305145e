//! Standing views on a router, on written-out workloads for the
//! stack-wide runner (`kb_testkit::stack`): the runner registers each
//! view on routers at 1 and at 4 partitions, where a delta fans out by
//! subject hash and the view is patched against the merged view, and
//! subscribes to it. After every install each router's answer conforms
//! to the reference, renders like the service's, and every update it
//! pushes is the diff of the answers.

use kb_testkit::gen::{self, Step};
use kb_testkit::stack::replay;
use proptest::{test_seed, Strategy, TestRng};

/// A plain scan, a grouped count and a descending distinct answer.
const VIEWS: [&str; 3] = [
    "SELECT ?s ?o WHERE { ?s r0 ?o }",
    "SELECT ?o COUNT(?s) AS ?n WHERE { ?s r1 ?o } GROUP BY ?o",
    "SELECT DISTINCT ?o WHERE { ?s r2 ?o } ORDER BY DESC(?o)",
];

/// A random KB, the three views, then a chain of one to three deltas:
/// the routers patch the views and every answer and update holds.
#[test]
fn partitioned_views_match_reexecution() {
    let seed = test_seed("partitioned_views_match_reexecution");
    let mut patched = 0;
    for case in 0..3u64 {
        let ops = gen::ops(4, 3, 30..80).generate(&mut TestRng::for_case(seed, case));
        let (first, rest) = ops.split_at(ops.len() / 3);
        let steps = [
            gen::installed(first, 1),
            VIEWS.map(|text| Step::Register(text.into())).to_vec(),
            gen::installed(rest, 1 + case as usize),
        ];
        patched += replay(&steps.concat())["router view.delta_patched"];
    }
    assert!(patched > 0, "the routers patched no view");
}
