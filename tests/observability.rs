//! End-to-end checks of the observability surface: `--trace` writes
//! JSONL matching the documented event schema, `--metrics` prints
//! valid Prometheus text format with the documented metric names,
//! `--profile` renders the per-level table, `--solver auto` explains
//! its pick, and the work counters keep the qualitative orderings the
//! paper predicts.

use std::process::Command;

fn ttsolve(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ttsolve"))
        .args(args)
        .output()
        .expect("spawn ttsolve")
}

/// Splits a JSON object line into its top-level `"key": value` pairs —
/// enough structure checking for our own flat emitters, no serde.
fn has_key(line: &str, key: &str) -> bool {
    line.contains(&format!("\"{key}\":"))
}

#[test]
fn trace_file_is_jsonl_with_the_documented_event_schema() {
    let dir = std::env::temp_dir().join(format!("tt-obs-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.jsonl");
    let out = ttsolve(&[
        "--demo",
        "random",
        "6",
        "1",
        "--solver",
        "seq",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "ttsolve failed: {out:?}");
    let text = std::fs::read_to_string(&trace).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "trace file is empty");
    let mut begins = 0;
    let mut ends = 0;
    let mut dp_levels = 0;
    for l in &lines {
        assert!(
            l.starts_with("{\"ts\":") && l.ends_with('}'),
            "not a schema line: {l}"
        );
        assert!(
            has_key(l, "kind") && has_key(l, "name") && has_key(l, "fields"),
            "{l}"
        );
        if l.contains("\"kind\":\"span_begin\"") {
            begins += 1;
        }
        if l.contains("\"kind\":\"span_end\"") {
            ends += 1;
            assert!(has_key(l, "elapsed_nanos"), "span_end without elapsed: {l}");
        }
        if l.contains("\"name\":\"dp_level\"") {
            dp_levels += 1;
            for f in ["level", "cells", "candidates", "nanos"] {
                assert!(has_key(l, f), "dp_level missing {f}: {l}");
            }
        }
    }
    assert_eq!(begins, 1, "expected exactly one solve span_begin");
    assert_eq!(ends, 1, "expected exactly one solve span_end");
    assert_eq!(dp_levels, 6, "one dp_level instant per level at k = 6");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_snapshot_is_prometheus_text_with_the_documented_names() {
    let out = ttsolve(&["--demo", "random", "6", "1", "--solver", "seq", "--metrics"]);
    assert!(out.status.success(), "ttsolve failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    for name in [
        "tt_solves_total",
        "tt_dp_levels_total",
        "tt_dp_cells_total",
        "tt_dp_candidates_total",
        "tt_dp_level_nanos",
    ] {
        assert!(stdout.contains(name), "missing metric {name} in:\n{stdout}");
    }
    // Every line of the snapshot is a comment or `name[{labels}] value`.
    let snap_start = stdout.find("# TYPE").expect("no TYPE comments");
    for l in stdout[snap_start..].lines() {
        if l.starts_with('#') || l.is_empty() {
            continue;
        }
        let (name, value) = l
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("bad line: {l}"));
        assert!(!name.is_empty(), "bad line: {l}");
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "non-numeric sample value in: {l}"
        );
    }
    // The DP swept 2^6 - 1 nonempty cells exactly once.
    assert!(
        stdout.contains("tt_dp_cells_total 63"),
        "cells counter wrong:\n{stdout}"
    );
}

#[test]
fn machine_counters_reach_the_metrics_and_the_report() {
    let out = ttsolve(&[
        "--demo",
        "random",
        "6",
        "1",
        "--solver",
        "hyper",
        "--metrics",
        "--stats",
    ]);
    assert!(out.status.success(), "ttsolve failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let transits: u64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("tt_wire_transits_total "))
        .expect("no tt_wire_transits_total sample")
        .parse()
        .unwrap();
    assert!(transits > 0, "hypercube run moved no words across wires");
    assert!(
        stdout.contains("wire_transits="),
        "wire transits missing from WorkStats extras:\n{stdout}"
    );
}

#[test]
fn profile_renders_one_row_per_level() {
    let out = ttsolve(&["--demo", "random", "5", "1", "--solver", "seq", "--profile"]);
    assert!(out.status.success(), "ttsolve failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("profile: per-level wavefront"), "{stdout}");
    let rows = stdout
        .lines()
        .skip_while(|l| !l.starts_with("profile: per-level"))
        .take_while(|l| !l.contains("total level time"))
        .filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit()))
        .count();
    assert_eq!(rows, 5, "one profile row per level at k = 5:\n{stdout}");
}

#[test]
fn auto_selection_names_an_engine_and_a_reason() {
    let out = ttsolve(&["--demo", "random", "5", "1", "--solver", "auto"]);
    assert!(out.status.success(), "ttsolve failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line = stdout
        .lines()
        .find(|l| l.starts_with("auto-selected engine: "))
        .expect("no auto-selection line");
    assert!(line.contains("seq"), "small k must pick seq: {line}");
    assert!(line.contains("—"), "selection must carry a reason: {line}");
    assert!(stdout.contains("optimal expected cost:"), "{stdout}");
}

/// The orderings the paper's analysis predicts, on deterministic work
/// counters: the memoized DP visits fewer subsets than the full
/// sweep's `2^k − 1` on a sparse-closure instance, and Brent blocking
/// (§3) moves fewer operand pairs across wires as the physical
/// dimension drops, with the exact DP table at every blocking (the
/// `experiments blocked-brent` table).
#[test]
fn work_counters_keep_the_qualitative_orderings() {
    let inst = tt_workloads::catalog::Domain::Random.generate(12, 7);
    let seq = tt_repro::lookup("seq").unwrap().solve(&inst);
    let memo = tt_repro::lookup("memo").unwrap().solve(&inst);
    assert_eq!(seq.work.subsets, (1 << 12) - 1);
    assert!(
        memo.work.subsets < seq.work.subsets,
        "memo visited {} subsets, the full sweep {}",
        memo.work.subsets,
        seq.work.subsets
    );
    assert_eq!(memo.cost, seq.cost);

    let inst = tt_workloads::random_adequate(8, 5);
    let reference = tt_core::solver::sequential::solve_tables(&inst).cost;
    let dims = tt_parallel::Layout::new(inst.k(), inst.n_actions()).dims();
    let remote: Vec<u64> = (0..=dims)
        .rev()
        .map(|phys| {
            let sol = tt_parallel::hyper::solve_blocked(&inst, phys);
            assert!(sol.c_table == reference, "phys={phys}: table differs");
            sol.counts.remote_pair_ops
        })
        .collect();
    assert!(
        remote.windows(2).all(|w| w[1] < w[0]),
        "remote pair ops must fall with the physical dimension: {remote:?}"
    );
    assert_eq!(remote.last(), Some(&0), "one physical PE moves nothing");
}
