//! Integration tests for the `kbkit` CLI binary.

use std::process::Command;

fn kbkit() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kbkit"))
}

fn harvest_to(path: &std::path::Path) {
    let status = kbkit()
        .args(["harvest", "--scale", "tiny", "--seed", "42", "--out", path.to_str().unwrap()])
        .status()
        .expect("spawn kbkit");
    assert!(status.success());
    assert!(path.exists());
}

/// The count `kbkit query` heads its answer with.
fn solutions(stdout: &str) -> u64 {
    let count = stdout.lines().find_map(|l| l.strip_suffix(" solutions"));
    count.and_then(|n| n.parse().ok()).unwrap_or_else(|| panic!("no solution count in {stdout}"))
}

#[test]
fn harvest_stats_query_rules_ned_round_trip() {
    let dir = std::env::temp_dir().join("kbkit-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let kb_path = dir.join("kb.tsv");
    harvest_to(&kb_path);

    // stats
    let out = kbkit().args(["stats", kb_path.to_str().unwrap()]).output().expect("stats");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("facts:"), "{stdout}");

    // query
    let out = kbkit()
        .args(["query", kb_path.to_str().unwrap(), "?p bornIn ?c . ?c locatedIn ?n"])
        .output()
        .expect("query");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("solutions"), "{stdout}");

    // query, full SELECT form with aggregation and --explain: the
    // report says what the aggregate made of the rows it was fed, and
    // without a LIMIT every group is a solution.
    for limit in [Some(5), None] {
        let window = limit.map_or(String::new(), |n| format!(" LIMIT {n}"));
        let out = kbkit()
            .args([
                "query",
                kb_path.to_str().unwrap(),
                &format!(
                    "SELECT ?n COUNT(?p) AS ?k WHERE {{ ?p bornIn ?c . ?c locatedIn ?n }} \
                     GROUP BY ?n ORDER BY DESC(?k) ?n{window}"
                ),
                "--explain",
            ])
            .output()
            .expect("select query");
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        let solutions = solutions(&stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("estimated cost"), "{stderr}");
        let (rows, groups): (u64, u64) = stderr
            .lines()
            .find_map(|l| {
                l.strip_prefix("aggregate: ")?.strip_suffix(" groups")?.split_once(" rows → ")
            })
            .and_then(|(rows, groups)| Some((rows.parse().ok()?, groups.parse().ok()?)))
            .unwrap_or_else(|| panic!("no aggregate line in {stderr}"));
        assert!(rows >= groups && groups > 0, "{stderr}");
        // Whether the aggregate built its group index, on a line of its own.
        assert_eq!(stderr.lines().filter(|l| l.starts_with("group index: ")).count(), 1);
        assert!(stderr.contains(&format!("execution: {rows} rows emitted")), "{stderr}");
        assert_eq!(solutions, limit.map_or(groups, |n| groups.min(n)), "{stderr}\n{stdout}");
    }

    // --explain on a star join names the probe table a scan step built
    // from its predicate's whole run; a point query builds none.
    let explain = |text: &str| {
        let out = kbkit()
            .args(["query", kb_path.to_str().unwrap(), text, "--explain"])
            .output()
            .expect("explained query");
        assert!(out.status.success(), "{text}");
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (stdout, stderr) = explain("?p bornIn ?c . ?p citizenOf ?n");
    let tables: Vec<(&str, u64, u64)> = stderr
        .lines()
        .filter_map(|l| {
            let (label, counts) = l.strip_prefix("probe table: ")?.split_once(" — ")?;
            let (rows, lookups) = counts.strip_suffix(" lookups")?.split_once(" rows after ")?;
            Some((label, rows.parse().ok()?, lookups.parse().ok()?))
        })
        .collect();
    let [(label, rows, lookups)] = tables[..] else { panic!("one table expected: {stderr}") };
    assert!(label.contains("?p citizenOf ?n"), "{stderr}");
    assert!(stderr.contains(&format!("actual {:>10}  {label}", solutions(&stdout))), "{stderr}");
    // The table holds the predicate's run, and the first batch of
    // `bornIn` rows was already reason enough to build it.
    assert_eq!(rows, solutions(&explain("?p citizenOf ?n").0), "{stderr}");
    assert_eq!(lookups, 0, "{stderr}");
    let person = stdout.lines().find_map(|l| l.split("?p=").nth(1)).expect("a ?p binding");
    let person = person.split_whitespace().next().unwrap();
    let (stdout, stderr) = explain(&format!("{person} bornIn ?c"));
    assert_eq!(solutions(&stdout), 1, "{stdout}");
    assert!(stderr.contains("operators (estimated vs actual rows):"), "{stderr}");
    assert!(!stderr.contains("probe table"), "{stderr}");

    // rules
    let out = kbkit()
        .args(["rules", kb_path.to_str().unwrap(), "--min-support", "3"])
        .output()
        .expect("rules");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("rules"), "{stdout}");

    // ned: pick an entity name straight from the KB dump.
    let dump = std::fs::read_to_string(&kb_path).unwrap();
    let label_line = dump.lines().find(|l| l.starts_with("L\t")).expect("dump has labels");
    let surface = label_line.split('\t').nth(3).unwrap();
    let text = format!("I read about {surface} yesterday.");
    let out = kbkit().args(["ned", kb_path.to_str().unwrap(), &text]).output().expect("ned");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains('→'), "{stdout}");
}

#[test]
fn a_reader_that_leaves_early_ends_the_cli_quietly() {
    let dir = std::env::temp_dir().join("kbkit-cli-pipe-test");
    std::fs::create_dir_all(&dir).unwrap();
    let kb_path = dir.join("kb.tsv");
    harvest_to(&kb_path);
    let kb = kb_path.to_str().unwrap();
    let query = ["query", kb, "?x instanceOf ?c"];
    for args in [&query[..], &["stats", kb], &["rules", kb], &["metrics", "--json"]] {
        // The reading end is closed before the first line is written
        // (`kbkit … | head -0`, without the race).
        let mut child = kbkit()
            .args(args)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn kbkit");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("kbkit exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(
            !stderr.contains("panicked") && !stderr.contains("Broken pipe"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn metrics_subcommand_emits_all_layers() {
    // Text-table + JSON form.
    let out = kbkit().arg("metrics").output().expect("metrics");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for family in ["harvest.facts.accepted", "store.snapshot.freeze_us", "query.cache.result_hits"]
    {
        assert!(stdout.contains(family), "missing {family} in:\n{stdout}");
    }

    // --json must print exactly one JSON object with all three layers.
    let out = kbkit().args(["metrics", "--json"]).output().expect("metrics --json");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json = stdout.trim();
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    assert_eq!(json.lines().count(), 1, "--json should emit a single line");
    for key in ["\"counters\"", "\"gauges\"", "\"histograms\""] {
        assert!(json.contains(key), "missing {key} in:\n{json}");
    }
    for prefix in ["\"harvest.", "\"store.", "\"query."] {
        assert!(json.contains(prefix), "missing layer {prefix} in:\n{json}");
    }
    // The durable-store round trip inside `kbkit metrics` must surface
    // the WAL and recovery families.
    for family in [
        "\"store.wal.appends\"",
        "\"store.wal.replayed\"",
        "\"store.fsync_micros\"",
        "\"store.recovery.quarantined_segments\"",
    ] {
        assert!(json.contains(family), "missing durable family {family} in:\n{json}");
    }
    // The budgeted reopen inside `kbkit metrics` must surface the
    // beyond-RAM paging families.
    for family in [
        "\"store.resident_bytes\"",
        "\"store.page_faults\"",
        "\"store.fault_bytes\"",
        "\"store.spills\"",
    ] {
        assert!(json.contains(family), "missing paging family {family} in:\n{json}");
    }
}

#[test]
fn metrics_flag_dumps_table_to_stderr() {
    let dir = std::env::temp_dir().join("kbkit-cli-metrics-flag");
    std::fs::create_dir_all(&dir).unwrap();
    let kb_path = dir.join("kb.tsv");
    harvest_to(&kb_path);

    let out = kbkit()
        .args(["query", kb_path.to_str().unwrap(), "?p bornIn ?c", "--metrics"])
        .output()
        .expect("query --metrics");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("query.cache.result_misses"), "{stderr}");
    assert!(stderr.contains("query.parse_us"), "{stderr}");
    // The boolean flag must not swallow the positional KB path.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("solutions"), "{stdout}");
}

#[test]
fn durable_harvest_then_cold_start_query_round_trip() {
    let dir = std::env::temp_dir().join("kbkit-cli-durable");
    std::fs::remove_dir_all(&dir).ok();
    let store_dir = dir.join("store");
    std::fs::create_dir_all(&dir).unwrap();
    let kb_path = dir.join("kb.tsv");

    // Durable incremental harvest: per-delta lines must report the
    // durability cost next to install latency.
    let out = kbkit()
        .args([
            "harvest",
            "--incremental",
            "--data-dir",
            store_dir.to_str().unwrap(),
            "--no-fsync",
            "--out",
            kb_path.to_str().unwrap(),
        ])
        .output()
        .expect("durable harvest");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("durable store at"), "{stderr}");
    assert!(stderr.contains("durable:"), "per-delta durability cost missing:\n{stderr}");
    assert!(stderr.contains("fsync"), "{stderr}");
    assert!(store_dir.join("MANIFEST").exists());

    // Cold start straight from the store directory.
    let out = kbkit()
        .args(["query", "--data-dir", store_dir.to_str().unwrap(), "?p bornIn ?c"])
        .output()
        .expect("cold-start query");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cold start"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("solutions"), "{stdout}");

    // The durable view and the TSV dump agree on the query answer.
    // (Row *order* follows internal term ids, which differ between the
    // store's original interning and a TSV re-load, so compare as sets.)
    let out_tsv = kbkit()
        .args(["query", kb_path.to_str().unwrap(), "?p bornIn ?c"])
        .output()
        .expect("tsv query");
    assert!(out_tsv.status.success());
    let sorted = |s: &str| {
        let mut rows: Vec<&str> = s.lines().collect();
        rows.sort_unstable();
        rows.join("\n")
    };
    assert_eq!(
        sorted(&String::from_utf8_lossy(&out_tsv.stdout)),
        sorted(&stdout),
        "durable vs TSV answers"
    );

    // Corrupt one byte of the base segment: the CLI must exit non-zero
    // with a clear, typed message — never serve a wrong KB.
    let base = std::fs::read_dir(&store_dir)
        .unwrap()
        .filter_map(Result::ok)
        .find(|e| e.file_name().to_string_lossy().starts_with("base-"))
        .expect("base segment exists")
        .path();
    let mut bytes = std::fs::read(&base).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xA5;
    std::fs::write(&base, &bytes).unwrap();
    let out = kbkit()
        .args(["query", "--data-dir", store_dir.to_str().unwrap(), "?p bornIn ?c"])
        .output()
        .expect("query against corrupt store");
    assert!(!out.status.success(), "corrupt store must fail the command");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("corrupt segment data"), "untyped error:\n{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_and_errors() {
    let out = kbkit().arg("--help").output().expect("help");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));

    let out = kbkit().arg("frobnicate").output().expect("bad cmd");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = kbkit().args(["stats", "/nonexistent/kb.tsv"]).output().expect("bad file");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}
