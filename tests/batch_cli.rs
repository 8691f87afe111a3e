//! End-to-end CLI acceptance for supervised orchestration: the batch
//! driver over a 50-instance manifest with malformed and budget-starved
//! entries, and the checkpoint/resume exit-code contract, exercised by
//! running the real `ttsolve` binary.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Output};

fn ttsolve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ttsolve"))
        .args(args)
        .output()
        .expect("ttsolve runs")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ttsolve-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// 50 manifest lines — 45 solvable, 2 budget-starved, 3 malformed —
/// must come back as exactly 50 records (45 ok, 2 degraded, 3 error),
/// each ok record naming its engine, and the process must exit with
/// the batch-partial code 10.
#[test]
fn fifty_instance_batch_isolates_bad_lines_and_exits_partial() {
    let mut manifest = String::new();
    let domains = ["random", "medical", "faults", "biology", "lab"];
    // 45 solvable: most pinned to one engine, plus a few unpinned lines
    // that exercise the default chain.
    for n in 0..45u64 {
        let d = domains[(n % 5) as usize];
        match n % 9 {
            0 => {
                let _ = writeln!(manifest, "demo:{d}:4:{n}");
            }
            m if m % 2 == 0 => {
                let _ = writeln!(manifest, "demo:{d}:5:{n} solver=seq");
            }
            _ => {
                let _ = writeln!(manifest, "demo:{d}:6:{n} solver=rayon");
            }
        }
    }
    // 2 budget-starved: an already-expired deadline degrades honestly.
    manifest.push_str("demo:medical:6:99 timeout_ms=0\n");
    manifest.push_str("demo:lab:6:99 timeout_ms=0\n");
    // 3 malformed: unknown domain, missing file, unknown option key.
    manifest.push_str("demo:nosuch:4:1\n");
    manifest.push_str("/no/such/file.tt\n");
    manifest.push_str("demo:random:4:1 bogus=1\n");

    let dir = tmp_dir("batch");
    let path = dir.join("manifest.txt");
    std::fs::write(&path, &manifest).unwrap();

    let out = ttsolve(&["--batch", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(10), "batch-partial exit code");

    let text = stdout(&out);
    let records: Vec<&str> = text.lines().filter(|l| l.contains("\"source\"")).collect();
    assert_eq!(records.len(), 50, "one record per manifest line");
    let count = |needle: &str| records.iter().filter(|r| r.contains(needle)).count();
    assert_eq!(count("\"status\":\"ok\""), 45);
    assert_eq!(count("\"status\":\"degraded\""), 2);
    assert_eq!(count("\"status\":\"error\""), 3);
    for r in &records {
        if r.contains("\"status\":\"ok\"") {
            assert!(
                !r.contains("\"engine\":\"\""),
                "ok record without an engine: {r}"
            );
            assert!(r.contains("\"failovers\":"), "no failover count: {r}");
        }
    }
    assert!(
        text.contains("{\"total\":50,\"ok\":45,\"degraded\":2,\"errors\":3}"),
        "summary trailer missing or wrong:\n{text}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// An all-solvable manifest exits 0.
#[test]
fn clean_batch_exits_zero() {
    let dir = tmp_dir("batch-clean");
    let path = dir.join("manifest.txt");
    std::fs::write(
        &path,
        "demo:random:4:1 solver=seq\ndemo:lab:4:2 solver=seq\n",
    )
    .unwrap();
    let out = ttsolve(&["--batch", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).contains("{\"total\":2,\"ok\":2,\"degraded\":0,\"errors\":0}"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--records`/`--summary` mirror the stdout stream into files: the
/// records file carries one JSONL line per manifest line (identical to
/// stdout's), the summary file carries the totals trailer, and no temp
/// file survives the atomic rename.
#[test]
fn batch_file_sinks_mirror_the_stream() {
    let dir = tmp_dir("batch-sink");
    let path = dir.join("manifest.txt");
    std::fs::write(
        &path,
        "demo:random:4:1 solver=seq\ndemo:nosuch:4:1\ndemo:lab:4:2 solver=seq\n",
    )
    .unwrap();
    let records = dir.join("records.jsonl");
    let summary = dir.join("summary.json");
    let out = ttsolve(&[
        "--batch",
        path.to_str().unwrap(),
        "--records",
        records.to_str().unwrap(),
        "--summary",
        summary.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(10),
        "one error line → batch partial"
    );

    let text = stdout(&out);
    let stdout_records: Vec<&str> = text.lines().filter(|l| l.contains("\"source\"")).collect();
    let file_text = std::fs::read_to_string(&records).unwrap();
    let file_records: Vec<&str> = file_text.lines().collect();
    assert_eq!(file_records.len(), 3, "one record per manifest line");
    assert_eq!(stdout_records, file_records, "file diverged from stdout");

    let trailer = std::fs::read_to_string(&summary).unwrap();
    assert_eq!(
        trailer.trim_end(),
        "{\"total\":3,\"ok\":2,\"degraded\":0,\"errors\":1}"
    );
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .filter(|n| n.to_string_lossy().ends_with(".tmp"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp files left behind: {leftovers:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill-and-resume through the CLI: a candidate-starved solve leaves a
/// checkpoint on disk (exit 7), resuming it completes with the cold
/// run's cost (exit 0), and a corrupted checkpoint is refused (exit 9).
#[test]
fn cli_checkpoint_resume_and_corruption_exit_codes() {
    let dir = tmp_dir("resume");
    let ck = dir.join("run.ck");
    let ck_s = ck.to_str().unwrap();

    // Cold reference cost.
    let cold = ttsolve(&["--demo", "random", "10", "3", "--solver", "seq"]);
    assert_eq!(cold.status.code(), Some(0));
    let cold_out = stdout(&cold);
    let cost_line = cold_out
        .lines()
        .find(|l| l.starts_with("optimal expected cost:"))
        .expect("cold cost line")
        .to_string();

    // "Kill" a solve mid-lattice with a candidate ceiling; checkpoints
    // of completed levels land on disk first.
    let starved = ttsolve(&[
        "--demo",
        "random",
        "10",
        "3",
        "--solver",
        "seq",
        "--max-candidates",
        "2000",
        "--checkpoint",
        ck_s,
    ]);
    assert_eq!(starved.status.code(), Some(7), "starved run degrades");
    assert!(ck.exists(), "no checkpoint on disk");

    // Resume: identical cost, clean exit.
    let resumed = ttsolve(&[
        "--demo", "random", "10", "3", "--solver", "seq", "--resume", ck_s,
    ]);
    assert_eq!(resumed.status.code(), Some(0), "resume completes");
    let resumed_out = stdout(&resumed);
    assert!(resumed_out.contains("resuming from"), "{resumed_out}");
    assert!(
        resumed_out.contains(&cost_line),
        "resumed cost differs from cold:\n{resumed_out}"
    );

    // Supervised resume works too.
    let supervised = ttsolve(&[
        "--demo",
        "random",
        "10",
        "3",
        "--supervise",
        "--resume",
        ck_s,
    ]);
    assert_eq!(supervised.status.code(), Some(0));
    assert!(stdout(&supervised).contains(&cost_line));

    // One flipped byte: refused with the dedicated exit code.
    let mut bytes = std::fs::read(&ck).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    let bad = dir.join("bad.ck");
    std::fs::write(&bad, &bytes).unwrap();
    let corrupt = ttsolve(&[
        "--demo",
        "random",
        "10",
        "3",
        "--solver",
        "seq",
        "--resume",
        bad.to_str().unwrap(),
    ]);
    assert_eq!(corrupt.status.code(), Some(9), "corrupt resume exit code");

    // A checkpoint for a different instance is refused the same way.
    let mismatch = ttsolve(&[
        "--demo", "medical", "10", "3", "--solver", "seq", "--resume", ck_s,
    ]);
    assert_eq!(
        mismatch.status.code(),
        Some(9),
        "mismatched resume exit code"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
