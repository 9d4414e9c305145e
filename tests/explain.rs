//! `kbkit query --explain` prints one operator tree: the plan's labels,
//! drawn on demand, with estimated and actual rows beside each line.

use std::process::Command;

/// The operator tree `--explain` prints for `query` over a three-fact KB:
/// the lines under its `operators` heading.
fn operator_tree(query: &str) -> Vec<String> {
    let dir = std::env::temp_dir().join("kbkit-explain-test");
    std::fs::create_dir_all(&dir).unwrap();
    let kb = dir.join("kb.tsv");
    std::fs::write(
        &kb,
        "T\tAda\tbornIn\tLondon\t0.9\t-\tharvest\n\
         T\tAda\tworksAt\tCambridge\t0.9\t-\tharvest\n\
         T\tLondon\tlocatedIn\tEngland\t0.9\t-\tharvest\n",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_kbkit"))
        .args(["query", kb.to_str().unwrap(), query, "--explain"])
        .output()
        .expect("spawn kbkit");
    assert!(out.status.success(), "{query}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let tree = stderr.lines().skip_while(|l| *l != "operators (estimated vs actual rows):");
    tree.skip(1).take_while(|l| l.starts_with("  ")).map(str::to_string).collect()
}

#[test]
fn explain_prints_one_operator_tree() {
    let tree = operator_tree(
        "SELECT ?p WHERE { { ?p bornIn ?c } UNION { ?p worksAt ?c } FILTER(?c != Paris) }",
    );
    // Each line is `est <n>  actual <n>  <label>`; labels under a
    // `filter` or `union` line are indented one level below it.
    let actual_and_label = |l: &str| {
        let (actual, label) = l.split_once("  actual ")?.1.trim_start().split_once("  ")?;
        Some((actual.to_string(), label.to_string()))
    };
    let lines: Vec<_> = tree.iter().map(|l| actual_and_label(l).expect(l)).collect();
    let want = [
        ("2", "filter ?c != Paris"),
        ("2", "  union"),
        ("1", "    scan `?p bornIn ?c`"),
        ("1", "    scan `?p worksAt ?c`"),
    ];
    assert_eq!(lines, want.map(|(a, l)| (a.to_string(), l.to_string())), "{tree:?}");
    // A constant the dictionary lacks empties the plan before any
    // operator runs: the tree is one line that says so.
    assert_eq!(
        operator_tree("?p bornIn Atlantis"),
        ["  none: a constant of the query is not in the dictionary"]
    );
}
