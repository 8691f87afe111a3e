//! Keeps the README's exit-code table in sync with the `EXIT_*`
//! constants across every binary that owns part of the exit-code
//! space — `src/bin/ttsolve.rs` (codes 2–10), `src/bin/ttserve.rs`
//! (12–14, sharing 2), and `src/bin/ttcheck.rs` (1 and 15, sharing
//! 2–4 and 6) — all parsed from source, so adding a code to one place
//! without the others fails here. Codes shared across binaries must
//! carry the same `EXIT_*` name everywhere, so a reader can grep one
//! name and see the whole meaning. Instances the core refuses, and
//! one the BVM refuses by capacity, are also run through `ttsolve` to
//! pin the codes they exit with.

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

/// Runs `ttsolve` on `file` with `flags`; returns the exit code and
/// stdout plus stderr.
fn ttsolve(file: &str, flags: &[&str]) -> (Option<i32>, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ttsolve"))
        .arg(file)
        .args(flags)
        .output()
        .expect("ttsolve runs");
    let text =
        String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr);
    (out.status.code(), text)
}

/// An instance whose cost bound is not below `2^63` is refused as
/// invalid (exit 4) on every registered engine and on the supervised,
/// checked and cached paths — also when the cache already holds the
/// same instance at weights `1 1`, whose canonical key it shares. With
/// weights `2^62` the optimum `9·2^62` overflows `u64`; with `2^63`
/// `p(U)` itself does. No output may show the clamp `u64::MAX − 1`.
#[test]
fn an_instance_past_the_cost_bound_exits_invalid_instance_on_every_path() {
    tt_parallel::register_engines();
    let dir = std::env::temp_dir().join(format!("ttsolve-cost-bound-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, w: u64| {
        let path = dir.join(name);
        let text =
            format!("tt 1\nobjects 2\nweights {w} {w}\ntest 0 | 3\ntreat 0 | 3\ntreat 1 | 3\n");
        std::fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_string()
    };
    let seed = write("seed.tt", 1);
    let (fresh, seeded) = (dir.join("fresh-cache"), dir.join("seeded-cache"));
    let (fresh, seeded) = (fresh.to_str().unwrap(), seeded.to_str().unwrap());
    let (code, text) = ttsolve(&seed, &["--cache", seeded]);
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("cache: miss"), "{text}");
    let (code, text) = ttsolve(&seed, &["--cache", seeded]);
    assert_eq!(code, Some(0), "{text}");
    assert!(text.contains("cache: hit"), "{text}");

    let names: Vec<&str> = tt_core::solver::registry()
        .iter()
        .map(|e| e.name())
        .collect();
    let mut runs: Vec<Vec<&str>> = names.iter().map(|&n| vec!["--solver", n]).collect();
    runs.extend([
        vec![],
        vec!["--supervise"],
        vec!["--supervise", "--solver", "bvm"],
        vec!["--check"],
        vec!["--cache", fresh],
        vec!["--cache", seeded],
    ]);
    for (name, w) in [("w62.tt", 1u64 << 62), ("w63.tt", 1 << 63)] {
        let file = write(name, w);
        for flags in &runs {
            let (code, text) = ttsolve(&file, flags);
            assert_eq!(code, Some(4), "{name} {flags:?}: {text}");
            assert!(text.contains("not below 2^63"), "{name} {flags:?}: {text}");
            assert!(
                !text.contains("18446744073709551614"),
                "{name} {flags:?}: {text}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The BVM refuses an instance whose vertical numbers do not fit its
/// register file by capacity (exit 7), not by a panic (exit 101); one
/// bit narrower, it answers what `seq` answers.
#[test]
fn bvm_past_its_register_file_exits_degraded_by_capacity() {
    let path = std::env::temp_dir().join(format!("ttsolve-bvm-rows-{}.tt", std::process::id()));
    let file = path.to_str().unwrap();
    let cost_line = |text: &str| {
        text.lines()
            .find(|l| l.starts_with("optimal expected cost"))
            .map(str::to_string)
    };
    for (w, fits) in [(1_272_582_902u64, true), (2_545_165_805, false)] {
        let text =
            format!("tt 1\nobjects 2\nweights {w} {w}\ntest 0 | 3\ntreat 0 | 3\ntreat 1 | 3\n");
        std::fs::write(&path, text).unwrap();
        let (code, bvm) = ttsolve(file, &["--solver", "bvm"]);
        if fits {
            let (seq_code, seq) = ttsolve(file, &["--solver", "seq"]);
            assert_eq!((code, seq_code), (Some(0), Some(0)), "{bvm}\n{seq}");
            assert!(cost_line(&bvm).is_some(), "{bvm}");
            assert_eq!(cost_line(&bvm), cost_line(&seq));
        } else {
            assert_eq!(code, Some(7), "{bvm}");
            assert!(bvm.contains("exceeds backend capacity"), "{bvm}");
        }
    }
    std::fs::remove_file(&path).unwrap();
}
