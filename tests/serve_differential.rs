//! The partitioned serving tier against one query service, on
//! written-out workloads for the stack-wide runner
//! (`kb_testkit::stack`): op lists and query texts drawn from the shared
//! generator, installed as a chain of deltas and then asked. The runner
//! holds the service and the routers at 1 and 4 partitions to the
//! reference — facts, scans and every answer — and renders their
//! answers byte for byte alike: they stack the same deltas over one
//! base, so they share term ids and must pick alike among tied rows.

use kb_testkit::gen::{self, Step};
use kb_testkit::stack::replay;
use proptest::{test_seed, Strategy, TestRng};

/// Any KB installed as one to three deltas, and three random queries
/// plus a subject-bound probe, so that the router both scatters and
/// sends to one partition: every answer conforms and renders alike on
/// the service and at every partition count.
#[test]
fn partitioned_router_matches_monolithic_service() {
    let seed = test_seed("partitioned_router_matches_monolithic_service");
    let mut single = 0;
    for case in 0..3u64 {
        let rng = &mut TestRng::for_case(seed, case);
        let ops = gen::ops(4, 3, 30..80).generate(rng);
        let mut steps = gen::installed(&ops, 1 + case as usize);
        let (_, s, p, _) = ops[0];
        let texts = (0..3).map(|_| gen::query_texts().generate(rng));
        let probe = format!("SELECT ?x ?r ?y WHERE {{ e{s} r{p} ?x . e{s} ?r ?y }}");
        steps.extend(texts.chain([probe]).map(Step::Query));
        single += replay(&steps)["router serve.routed_single"];
    }
    assert!(single > 0, "no query went to one partition");
}
