//! Keeps the README's exit-code table in sync with the `EXIT_*`
//! constants across every binary that owns part of the exit-code
//! space — `src/bin/ttsolve.rs` (codes 2–10), `src/bin/ttserve.rs`
//! (12–14, sharing 2), and `src/bin/ttcheck.rs` (1 and 15, sharing
//! 2–4 and 6) — all parsed from source, so adding a code to one place
//! without the others fails here. Codes shared across binaries must
//! carry the same `EXIT_*` name everywhere, so a reader can grep one
//! name and see the whole meaning. One instance the core refuses is
//! also run through `ttsolve` to pin the code it exits with.

use std::collections::BTreeMap;
use std::path::Path;

/// The binaries that define `EXIT_*` constants, in ownership order.
const BINARIES: &[&str] = &[
    "src/bin/ttsolve.rs",
    "src/bin/ttserve.rs",
    "src/bin/ttcheck.rs",
];

fn repo_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// `const EXIT_<NAME>: i32 = <code>;` lines from one binary's source.
fn codes_in(rel: &str) -> BTreeMap<i32, String> {
    let src = repo_file(rel);
    let mut codes = BTreeMap::new();
    for line in src.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix("const EXIT_") else {
            continue;
        };
        let Some((name, value)) = rest.split_once(": i32 = ") else {
            continue;
        };
        let value: i32 = value
            .trim_end_matches(';')
            .parse()
            .unwrap_or_else(|_| panic!("unparseable EXIT_ constant line: {line}"));
        let prev = codes.insert(value, format!("EXIT_{name}"));
        assert!(prev.is_none(), "duplicate exit code {value} in {rel}");
    }
    assert!(!codes.is_empty(), "no EXIT_ constants found in {rel}");
    codes
}

/// The union across binaries. A code may appear in several binaries
/// only under the same name with the same value (`EXIT_USAGE = 2`);
/// anything else is a collision in the shared space.
fn source_codes() -> BTreeMap<i32, String> {
    let mut merged: BTreeMap<i32, String> = BTreeMap::new();
    for rel in BINARIES {
        for (code, name) in codes_in(rel) {
            if let Some(prev) = merged.get(&code) {
                assert_eq!(
                    prev, &name,
                    "exit code {code} means {prev} in one binary and {name} in {rel}"
                );
            } else {
                merged.insert(code, name);
            }
        }
    }
    merged
}

/// `| <code> | <meaning> |` rows of the README's exit-code table.
fn readme_codes() -> BTreeMap<i32, String> {
    let readme = repo_file("README.md");
    let mut codes = BTreeMap::new();
    for line in readme.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix("| ") else {
            continue;
        };
        let Some((code, meaning)) = rest.split_once(" | ") else {
            continue;
        };
        let Ok(code) = code.parse::<i32>() else {
            continue;
        };
        let prev = codes.insert(code, meaning.trim_end_matches(" |").to_string());
        assert!(prev.is_none(), "duplicate exit code {code} in README table");
    }
    codes
}

#[test]
fn readme_exit_code_table_matches_the_binary_constants() {
    let source = source_codes();
    let readme = readme_codes();
    assert!(
        !source.is_empty() && !readme.is_empty(),
        "parsers found nothing — did the table or the constants move?"
    );
    // Every source constant must be documented.
    for (code, name) in &source {
        assert!(
            readme.contains_key(code),
            "{name} = {code} is not in the README exit-code table"
        );
    }
    // Every documented nonzero code must exist in some binary; 0
    // (success) has no constant.
    for code in readme.keys() {
        if *code == 0 {
            continue;
        }
        assert!(
            source.contains_key(code),
            "README documents exit code {code}, but no binary has an EXIT_ constant for it"
        );
    }
    assert!(readme.contains_key(&0), "the README table must document 0");
}

#[test]
fn usage_text_mentions_every_exit_code() {
    for rel in BINARIES {
        let src = repo_file(rel);
        let usage_start = src.find("fn usage()").expect("usage() exists");
        let usage = &src[usage_start..usage_start + 2000];
        for (code, name) in codes_in(rel) {
            assert!(
                usage.contains(&code.to_string()),
                "{name} = {code} is missing from the usage() exit-code listing in {rel}"
            );
        }
    }
}

/// An action cost of `u64::MAX` parses as a number but is the INF
/// sentinel: every solve path refuses the instance as invalid (exit 4,
/// `EXIT_PARSE`) instead of panicking inside an engine.
#[test]
fn an_infinite_action_cost_exits_invalid_instance_on_every_path() {
    let path = std::env::temp_dir().join(format!("ttsolve-inf-cost-{}.tt", std::process::id()));
    std::fs::write(
        &path,
        "tt 1\nobjects 2\ntest 0 | 18446744073709551615\ntreat 0 1 | 1\n",
    )
    .unwrap();
    let file = path.to_str().unwrap();
    for flags in [&["--solver", "seq"][..], &["--supervise"], &["--check"]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_ttsolve"))
            .arg(file)
            .args(flags)
            .output()
            .expect("ttsolve runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(4), "{flags:?}: {stderr}");
        assert!(stderr.contains("INF sentinel"), "{flags:?}: {stderr}");
    }
    std::fs::remove_file(&path).unwrap();
}
