//! End-to-end CLI acceptance for `ttsolve --cache`: every run below
//! shares one cache directory, so each relies on what earlier runs
//! stored. A miss runs the same engine as a plain solve and stores its
//! answer; a repeat, or a relabelled and rescaled copy, is a hit with
//! the same procedure; a heuristic answer is never stored.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use tt_core::instance::{ActionKind, TtInstance, TtInstanceBuilder};
use tt_core::io;
use tt_core::subset::Subset;

fn ttsolve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ttsolve"))
        .args(args)
        .output()
        .expect("ttsolve runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Runs `ttsolve <file> --cache <dir> <extra..>`, asserts exit 0 and
/// returns its stdout.
fn cached(file: &Path, dir: &Path, extra: &[&str]) -> String {
    let mut args = vec![file.to_str().unwrap(), "--cache", dir.to_str().unwrap()];
    args.extend_from_slice(extra);
    let out = ttsolve(&args);
    assert!(
        out.status.success(),
        "ttsolve {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout(&out)
}

/// The `cache: ...` line's status word.
fn status(text: &str) -> &str {
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix("cache: "))
        .unwrap_or_else(|| panic!("no cache line in:\n{text}"));
    line.split_whitespace().next().unwrap()
}

/// The printed optimum.
fn cost(text: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix("optimal expected cost: "))
        .unwrap_or_else(|| panic!("no optimal cost in:\n{text}"))
        .parse()
        .unwrap()
}

/// Everything from the cost line on: the cost and, with `--tree`, the
/// rendered procedure.
fn answer(text: &str) -> &str {
    &text[text.find("optimal expected cost: ").expect("a cost line")..]
}

fn emit(dir: &Path, name: &str, domain: &str, k: &str, seed: &str) -> PathBuf {
    let out = ttsolve(&["--emit", domain, k, seed]);
    assert!(out.status.success());
    let path = dir.join(name);
    std::fs::write(&path, &out.stdout).unwrap();
    path
}

/// `inst` with its objects permuted by a fixed shuffle, its actions
/// reversed and every weight multiplied by `scale`.
fn relabelled(inst: &TtInstance, scale: u64) -> TtInstance {
    let k = inst.k();
    let perm: Vec<usize> = (0..k).map(|j| (j * 5 + 3) % k).collect();
    let mut weights = vec![0u64; k];
    for (j, &p) in perm.iter().enumerate() {
        weights[p] = inst.weight(j) * scale;
    }
    let mut b = TtInstanceBuilder::new(k).weights(weights);
    for a in inst.actions().iter().rev() {
        let set = Subset::from_iter(a.set.iter().map(|j| perm[j]));
        b = match a.kind {
            ActionKind::Test => b.test(set, a.cost),
            ActionKind::Treatment => b.treatment(set, a.cost),
        };
    }
    b.build().expect("a relabelled valid instance stays valid")
}

#[test]
fn ttsolve_cache_looks_up_solves_with_the_normal_engine_and_stores_only_exact_answers() {
    let dir = std::env::temp_dir().join(format!("ttsolve-cache-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("cache");

    // A miss runs plain `seq` and stores its answer; the repeat hits
    // with the same cost and the same procedure.
    let base = emit(&dir, "base.tt", "faults", "12", "5");
    let miss = cached(&base, &cache, &["--tree", "--stats"]);
    assert_eq!(status(&miss), "miss", "{miss}");
    assert!(miss.contains("engine: seq\n"), "{miss}");
    let hit = cached(&base, &cache, &["--tree", "--stats"]);
    assert_eq!(status(&hit), "hit", "{hit}");
    assert!(hit.contains("engine: cache\n"), "{hit}");
    assert_eq!(answer(&hit), answer(&miss));
    let plain = stdout(&ttsolve(&[base.to_str().unwrap(), "--tree"]));
    assert_eq!(answer(&miss), answer(&plain), "a miss prints a plain solve");

    // A relabelled, x3-rescaled copy hits the base's entry.
    let inst = io::from_text(&std::fs::read_to_string(&base).unwrap()).unwrap();
    let copy = dir.join("copy.tt");
    std::fs::write(&copy, io::to_text(&relabelled(&inst, 3))).unwrap();
    let out = cached(&copy, &cache, &[]);
    assert_eq!(status(&out), "hit", "{out}");
    assert_eq!(cost(&out), 3 * cost(&miss));

    // `--solver` and `--supervise` are accepted: a miss runs the named
    // engine or the supervised chain, and stores its answer.
    for (seed, flags, engine) in [
        ("2", &["--solver", "rayon"][..], "engine: rayon\n"),
        ("4", &["--supervise"][..], "supervision: engine = "),
    ] {
        let file = emit(&dir, &format!("medical-{seed}.tt"), "medical", "9", seed);
        let mut args = flags.to_vec();
        args.push("--stats");
        let out = cached(&file, &cache, &args);
        assert_eq!(status(&out), "miss", "{out}");
        assert!(out.contains(engine), "{out}");
        let again = cached(&file, &cache, flags);
        assert_eq!(status(&again), "hit", "{again}");
        assert_eq!(cost(&again), cost(&out));
    }

    // The fault demo prints no report to cache: still a usage error.
    let out = ttsolve(&[
        base.to_str().unwrap(),
        "--cache",
        cache.to_str().unwrap(),
        "--faults",
        "ccc:dead:3",
    ]);
    assert_eq!(out.status.code(), Some(2));

    // A heuristic answer is printed as an upper bound and never stored.
    let other = emit(&dir, "greedy.tt", "random", "8", "3");
    let greedy = cached(&other, &cache, &["--solver", "greedy"]);
    assert_eq!(status(&greedy), "miss", "{greedy}");
    assert!(greedy.contains("expected cost (upper bound): "), "{greedy}");
    let exact = cached(&other, &cache, &[]);
    assert_eq!(
        status(&exact),
        "miss",
        "the greedy answer was stored: {exact}"
    );
    assert_eq!(status(&cached(&other, &cache, &[])), "hit");

    let _ = std::fs::remove_dir_all(&dir);
}
