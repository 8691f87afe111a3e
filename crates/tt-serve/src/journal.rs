//! The write-ahead solve journal: crash durability for keyed solves.
//!
//! A journal is a [`tt_core::durable::SegmentLog`] in [`Mode::Strict`]:
//! a directory of append-only segment files (`seg-NNNNNN.wal`), one
//! record per line in the durable line codec:
//!
//! ```text
//! <JSON payload> \t <16 lowercase hex digits of FNV-1a over the payload> \n
//! ```
//!
//! This module owns only the entries' JSON and the [`Replay`] fold;
//! segment naming, replay, torn-tail truncation, fsync and rotation live
//! in [`tt_core::durable`].
//!
//! The server appends an [`JournalEntry::Admitted`] record (carrying the
//! full encoded request) the moment a keyed solve enters the system,
//! [`JournalEntry::Started`] when a worker picks it up,
//! [`JournalEntry::Checkpoint`] at every level boundary the engine
//! reaches, and [`JournalEntry::Completed`] — result hash plus the full
//! encoded response — *before* the answer goes on the wire. Every append
//! is fsync'd, so an acknowledged result survives a SIGKILL.
//! A solve the `auto` engine hands to `memo` (a sparse reachable
//! closure) has no level boundaries, so it journals no `Checkpoint`
//! records: a crash mid-solve re-solves it cold on replay. Exactly-once
//! is unaffected — it rests on the `Admitted`/`Completed` pair, not on
//! checkpoints.
//!
//! **Replay** (at [`Journal::open`]) folds the segments, oldest first,
//! into the completed-key map (the dedup index) and the unfinished list
//! (work to re-enqueue, each with its newest checkpoint for a warm
//! resume). Torn tails are tolerated in exactly one place: an
//! *unterminated* trailing fragment of the *newest* segment is the
//! signature of a crash mid-append — the entry was never acknowledged,
//! so dropping it is correct — and the file is truncated back to the
//! last complete record. Every other deviation (a checksum mismatch, a
//! malformed complete line, a torn tail in a sealed segment) is a typed
//! [`JournalError`]: the journal refuses to guess.
//!
//! **Rotation** bounds the directory: when the active segment outgrows
//! the configured threshold the server writes a compacted snapshot of
//! the live state (completed entries for the dedup window, unfinished
//! entries with their checkpoints) to `seg-<n+1>.wal` through
//! [`tt_core::durable::atomic_write`], then removes the older segments.
//! A crash between the rename and the removes only leaves stale
//! segments behind, and replay is idempotent over them.

use crate::json::{self, Json};
use std::collections::HashMap;
use std::path::Path;
use tt_core::durable::{self, Mode, SegmentLog, Segments};
use tt_core::solver::checkpoint::fnv1a;

/// Why the journal could not be written or replayed: the segment log's
/// typed error, so tests can assert the exact failure class.
pub use tt_core::durable::LogError as JournalError;

/// File-name prefix of journal segments.
pub const SEGMENT_PREFIX: &str = "seg-";
/// File-name suffix of journal segments.
pub const SEGMENT_SUFFIX: &str = ".wal";

/// One durable event in the life of a keyed solve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalEntry {
    /// The request entered the system: key plus the full encoded
    /// request frame, so replay can re-enqueue it verbatim.
    Admitted {
        /// The client-supplied idempotency key.
        key: String,
        /// The encoded `solve` request payload.
        request: String,
    },
    /// A worker began executing the solve.
    Started {
        /// The idempotency key.
        key: String,
    },
    /// A level-boundary checkpoint (`tt_core::solver::checkpoint` text
    /// format) — replay resumes the solve warm from the newest one.
    Checkpoint {
        /// The idempotency key.
        key: String,
        /// The checkpoint's own checksummed text serialization.
        text: String,
    },
    /// The solve finished and its response is about to be sent: the
    /// semantic result hash plus the full encoded response payload,
    /// replayed verbatim to retries of the same key.
    Completed {
        /// The idempotency key.
        key: String,
        /// [`result_hash`] of the response's semantic fields.
        hash: u64,
        /// The encoded response payload.
        response: String,
    },
}

impl JournalEntry {
    /// The idempotency key this entry belongs to.
    pub fn key(&self) -> &str {
        match self {
            JournalEntry::Admitted { key, .. }
            | JournalEntry::Started { key }
            | JournalEntry::Checkpoint { key, .. }
            | JournalEntry::Completed { key, .. } => key,
        }
    }
}

// ---------------------------------------------------------------------
// Record encoding.
// ---------------------------------------------------------------------

/// Semantic hash of a solve result: the fields that are deterministic
/// for a deterministic engine (completeness, cost, bounds) — engine
/// name, retry counts, and wall time are excluded, so a replayed or
/// re-executed solve of the same instance hashes identically and the
/// chaos harness can compare against a cold reference solve.
pub fn result_hash(r: &crate::proto::SolveResult) -> u64 {
    let canon = format!(
        "complete={} cost={:?} upper={:?} lower={:?}",
        r.complete, r.cost, r.upper, r.lower
    );
    fnv1a(canon.as_bytes())
}

/// Encodes one entry as its full on-disk line (payload, tab, checksum,
/// newline).
pub fn encode_entry(e: &JournalEntry) -> String {
    durable::encode_line(&entry_payload(e))
}

/// One entry's JSON payload.
fn entry_payload(e: &JournalEntry) -> String {
    match e {
        JournalEntry::Admitted { key, request } => format!(
            "{{\"e\":\"admitted\",\"key\":{},\"req\":{}}}",
            tt_obs::json::string(key),
            tt_obs::json::string(request)
        ),
        JournalEntry::Started { key } => {
            format!(
                "{{\"e\":\"started\",\"key\":{}}}",
                tt_obs::json::string(key)
            )
        }
        JournalEntry::Checkpoint { key, text } => format!(
            "{{\"e\":\"ckpt\",\"key\":{},\"text\":{}}}",
            tt_obs::json::string(key),
            tt_obs::json::string(text)
        ),
        JournalEntry::Completed {
            key,
            hash,
            response,
        } => format!(
            "{{\"e\":\"completed\",\"key\":{},\"hash\":\"{hash:016x}\",\"resp\":{}}}",
            tt_obs::json::string(key),
            tt_obs::json::string(response)
        ),
    }
}

fn req_str(v: &Json, key: &'static str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string '{key}'"))
}

/// Decodes one complete line (without its trailing newline).
pub fn decode_line(line: &str) -> Result<JournalEntry, String> {
    durable::decode_line(line.as_bytes()).and_then(decode_payload)
}

/// Decodes one verified payload.
fn decode_payload(payload: &str) -> Result<JournalEntry, String> {
    let v = json::parse(payload).map_err(|e| format!("bad JSON: {e}"))?;
    match v.get("e").and_then(Json::as_str) {
        Some("admitted") => Ok(JournalEntry::Admitted {
            key: req_str(&v, "key")?,
            request: req_str(&v, "req")?,
        }),
        Some("started") => Ok(JournalEntry::Started {
            key: req_str(&v, "key")?,
        }),
        Some("ckpt") => Ok(JournalEntry::Checkpoint {
            key: req_str(&v, "key")?,
            text: req_str(&v, "text")?,
        }),
        Some("completed") => {
            let hash_hex = req_str(&v, "hash")?;
            let hash = u64::from_str_radix(&hash_hex, 16)
                .map_err(|_| format!("unparseable result hash '{hash_hex}'"))?;
            Ok(JournalEntry::Completed {
                key: req_str(&v, "key")?,
                hash,
                response: req_str(&v, "resp")?,
            })
        }
        Some(other) => Err(format!("unknown entry kind '{other}'")),
        None => Err("missing entry kind 'e'".to_string()),
    }
}

/// Scans one segment's bytes. A complete line that fails verification
/// is always [`JournalError::Corrupt`]. An unterminated trailing
/// fragment is returned as `Some(offset)` — the caller decides whether
/// that is tolerable (newest segment) or fatal (sealed segment).
pub fn scan_segment(
    segment: u64,
    bytes: &[u8],
) -> Result<(Vec<JournalEntry>, Option<usize>), JournalError> {
    let mut entries = Vec::new();
    let torn = durable::scan(segment, bytes, Mode::Strict, &mut |p| {
        entries.push(decode_payload(p)?);
        Ok(())
    })?;
    Ok((entries, torn))
}

/// Strict replay of one segment's bytes: every deviation — including a
/// torn tail — is a typed error. This is the integrity contract the
/// corruption property tests pin down.
pub fn replay_segment_strict(
    segment: u64,
    bytes: &[u8],
) -> Result<Vec<JournalEntry>, JournalError> {
    match scan_segment(segment, bytes)? {
        (entries, None) => Ok(entries),
        (_, Some(offset)) => Err(JournalError::TornTail { segment, offset }),
    }
}

// ---------------------------------------------------------------------
// Replay fold.
// ---------------------------------------------------------------------

/// A completed key's durable state: what a retry of the same key gets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompletedRecord {
    /// Semantic hash of the result ([`result_hash`]).
    pub hash: u64,
    /// The encoded response payload, replayed verbatim.
    pub response: String,
}

/// An admitted-but-never-completed key: work to re-enqueue at startup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnfinishedRecord {
    /// The idempotency key.
    pub key: String,
    /// The encoded request payload.
    pub request: String,
    /// Had execution begun before the crash?
    pub started: bool,
    /// Newest level-boundary checkpoint text, for a warm resume.
    pub checkpoint: Option<String>,
}

/// What replaying a journal directory recovered.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// Completed keys (the dedup index), newest entry wins.
    pub completed: HashMap<String, CompletedRecord>,
    /// Unfinished keys in first-admitted order: work to re-enqueue.
    pub unfinished: Vec<UnfinishedRecord>,
    /// Total entries replayed across all segments.
    pub entries: u64,
    /// Segments read.
    pub segments: u64,
    /// Was a torn tail truncated from the newest segment?
    pub torn_tail: bool,
    /// `started`/`ckpt` entries whose key was never admitted — a
    /// correct server writes none. (`completed` on an unadmitted key
    /// is *not* an orphan: rotation compacts done keys to bare
    /// `completed` entries.)
    pub orphans: u64,
    /// `completed` entries for an already-completed key — a correct
    /// server writes none (dedup prevents re-execution).
    pub duplicate_completions: u64,
}

impl Replay {
    /// Folds one entry into the recovered state.
    pub fn fold(&mut self, entry: JournalEntry) {
        self.entries += 1;
        match entry {
            JournalEntry::Admitted { key, request } => {
                if self.completed.contains_key(&key) || self.unfinished.iter().any(|u| u.key == key)
                {
                    return; // re-admission of a known key: first wins
                }
                self.unfinished.push(UnfinishedRecord {
                    key,
                    request,
                    started: false,
                    checkpoint: None,
                });
            }
            JournalEntry::Started { key } => {
                match self.unfinished.iter_mut().find(|u| u.key == key) {
                    Some(u) => u.started = true,
                    None => self.orphans += 1,
                }
            }
            JournalEntry::Checkpoint { key, text } => {
                match self.unfinished.iter_mut().find(|u| u.key == key) {
                    Some(u) => u.checkpoint = Some(text),
                    None => self.orphans += 1,
                }
            }
            JournalEntry::Completed {
                key,
                hash,
                response,
            } => {
                if let Some(pos) = self.unfinished.iter().position(|u| u.key == key) {
                    self.unfinished.remove(pos);
                } else if self.completed.contains_key(&key) {
                    self.duplicate_completions += 1;
                }
                // A completion with no admission on record is legal:
                // rotation compacts done keys to bare `completed`
                // entries (the record is self-contained — admission
                // only exists to make *unfinished* work recoverable).
                self.completed
                    .insert(key, CompletedRecord { hash, response });
            }
        }
    }
}

// ---------------------------------------------------------------------
// The journal itself.
// ---------------------------------------------------------------------

/// An open journal: a strict segment log.
#[derive(Debug)]
pub struct Journal {
    log: SegmentLog,
}

/// The journal's segment directory.
fn segments(dir: &Path) -> Segments {
    Segments {
        dir: dir.to_path_buf(),
        prefix: SEGMENT_PREFIX,
        suffix: SEGMENT_SUFFIX,
        mode: Mode::Strict,
    }
}

/// The segment-log visitor that decodes each payload into `replay`.
fn fold_into(replay: &mut Replay) -> impl FnMut(&str) -> Result<(), String> + '_ {
    move |payload| {
        replay.fold(decode_payload(payload)?);
        Ok(())
    }
}

impl Journal {
    /// Opens (creating if needed) the journal at `dir` and replays it.
    /// A torn tail in the newest segment is truncated away and counted;
    /// any other deviation is a typed error — the caller must not serve
    /// from a journal it cannot trust.
    pub fn open(dir: &Path) -> Result<(Journal, Replay), JournalError> {
        let mut replay = Replay::default();
        let (log, read) = segments(dir).open(&mut fold_into(&mut replay))?;
        replay.segments = read.segments;
        replay.torn_tail = read.torn_tail;
        if read.torn_tail {
            tt_obs::metrics::counter("ttserve_journal_torn_tails_total").inc();
        }
        tt_obs::metrics::counter("ttserve_journal_replayed_total").add(replay.entries);
        tt_obs::metrics::gauge("ttserve_journal_segments")
            .set(i64::try_from(replay.segments.max(1)).unwrap_or(i64::MAX));
        Ok((Journal { log }, replay))
    }

    /// Appends one entry durably: write and fsync. When this returns
    /// `Ok` the entry survives a SIGKILL.
    pub fn append(&mut self, e: &JournalEntry) -> Result<(), JournalError> {
        self.log.append(&entry_payload(e))?;
        tt_obs::metrics::counter("ttserve_journal_appends_total").inc();
        tt_obs::metrics::gauge("ttserve_journal_segment_bytes")
            .set(i64::try_from(self.log.segment_bytes()).unwrap_or(i64::MAX));
        Ok(())
    }

    /// Bytes in the active segment (the rotation trigger).
    pub fn segment_bytes(&self) -> u64 {
        self.log.segment_bytes()
    }

    /// Atomic segment rotation: writes `live` (the compacted state the
    /// server still needs — completed entries for dedup, unfinished
    /// entries with checkpoints) as the next segment, then removes every
    /// older segment ([`SegmentLog::rotate`]).
    pub fn rotate(&mut self, live: &[JournalEntry]) -> Result<(), JournalError> {
        let payloads: Vec<String> = live.iter().map(entry_payload).collect();
        self.log.rotate(&payloads)?;
        tt_obs::metrics::counter("ttserve_journal_rotations_total").inc();
        tt_obs::metrics::gauge("ttserve_journal_segments").set(1);
        tt_obs::metrics::gauge("ttserve_journal_segment_bytes")
            .set(i64::try_from(self.log.segment_bytes()).unwrap_or(i64::MAX));
        Ok(())
    }
}

/// Replays a journal directory without opening it for writing (the
/// chaos harness's post-run audit). Strictness matches [`Journal::open`]:
/// only the newest segment may carry a torn tail.
pub fn audit(dir: &Path) -> Result<Replay, JournalError> {
    let mut replay = Replay::default();
    let read = segments(dir).replay(&mut fold_into(&mut replay))?;
    replay.segments = read.segments;
    replay.torn_tail = read.torn_tail;
    Ok(replay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tt-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_entries() -> Vec<JournalEntry> {
        vec![
            JournalEntry::Admitted {
                key: "k1".to_string(),
                request: "{\"op\":\"solve\",\"demo\":\"random:6:1\",\"key\":\"k1\"}".to_string(),
            },
            JournalEntry::Started {
                key: "k1".to_string(),
            },
            JournalEntry::Checkpoint {
                key: "k1".to_string(),
                text: "ttck 2\nlevel 1\nchecksum 0123456789abcdef\n".to_string(),
            },
            JournalEntry::Completed {
                key: "k1".to_string(),
                hash: 0xdead_beef,
                response: "{\"ok\":true,\"engine\":\"seq\",\"complete\":true,\"cost\":7}"
                    .to_string(),
            },
        ]
    }

    #[test]
    fn entries_roundtrip_through_the_line_format() {
        // The on-disk format, byte for byte: JSON, tab, checksum, newline.
        assert_eq!(
            encode_entry(&JournalEntry::Started {
                key: "k1".to_string()
            }),
            "{\"e\":\"started\",\"key\":\"k1\"}\te47c1bd66cbea32e\n"
        );
        for e in sample_entries() {
            let line = encode_entry(&e);
            assert!(line.ends_with('\n'));
            assert_eq!(decode_line(line.trim_end_matches('\n')), Ok(e));
        }
    }

    #[test]
    fn append_replay_and_dedup_fold() {
        let dir = temp_dir("fold");
        {
            let (mut j, replay) = Journal::open(&dir).unwrap();
            assert_eq!(replay.entries, 0);
            for e in sample_entries() {
                j.append(&e).unwrap();
            }
            j.append(&JournalEntry::Admitted {
                key: "k2".to_string(),
                request: "{\"op\":\"solve\",\"demo\":\"random:6:2\",\"key\":\"k2\"}".to_string(),
            })
            .unwrap();
        }
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.entries, 5);
        assert!(!replay.torn_tail);
        assert_eq!(replay.orphans, 0);
        assert_eq!(replay.completed.len(), 1);
        assert_eq!(replay.completed["k1"].hash, 0xdead_beef);
        assert_eq!(replay.unfinished.len(), 1);
        assert_eq!(replay.unfinished[0].key, "k2");
        assert!(!replay.unfinished[0].started);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_in_newest_segment_is_truncated_and_survivors_kept() {
        let dir = temp_dir("torn");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            for e in sample_entries() {
                j.append(&e).unwrap();
            }
        }
        // Simulate a crash mid-append: a partial record with no newline.
        let seg = dir.join("seg-000001.wal");
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes.extend_from_slice(b"{\"e\":\"admitted\",\"key\":\"k9\"");
        std::fs::write(&seg, &bytes).unwrap();
        let (mut j, replay) = Journal::open(&dir).unwrap();
        assert!(replay.torn_tail);
        assert_eq!(replay.entries, 4);
        assert_eq!(replay.completed.len(), 1);
        // The tail was truncated: a fresh append lands on a record
        // boundary and the journal replays cleanly afterwards.
        j.append(&JournalEntry::Started {
            key: "k1".to_string(),
        })
        .unwrap();
        drop(j);
        let (_, replay) = Journal::open(&dir).unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.entries, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn complete_but_corrupt_line_is_a_typed_error_even_at_the_end() {
        let dir = temp_dir("corrupt");
        {
            let (mut j, _) = Journal::open(&dir).unwrap();
            for e in sample_entries() {
                j.append(&e).unwrap();
            }
        }
        let seg = dir.join("seg-000001.wal");
        let mut bytes = std::fs::read(&seg).unwrap();
        // Flip a payload byte of the *last complete* record.
        let n = bytes.len();
        bytes[n - 30] ^= 0x01;
        std::fs::write(&seg, &bytes).unwrap();
        match Journal::open(&dir) {
            Err(JournalError::Corrupt { segment: 1, .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_compacts_and_removes_old_segments() {
        let dir = temp_dir("rotate");
        let (mut j, _) = Journal::open(&dir).unwrap();
        for e in sample_entries() {
            j.append(&e).unwrap();
        }
        let live = [JournalEntry::Completed {
            key: "k1".to_string(),
            hash: 0xdead_beef,
            response: "{\"ok\":true,\"engine\":\"seq\",\"complete\":true,\"cost\":7}".to_string(),
        }];
        j.rotate(&live).unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["seg-000002.wal"]);
        drop(j);
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.entries, 1);
        assert_eq!(replay.completed.len(), 1);
        assert!(replay.unfinished.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn result_hash_ignores_timing_but_not_semantics() {
        use crate::proto::SolveResult;
        let base = SolveResult {
            id: Some("a".to_string()),
            engine: "seq".to_string(),
            complete: true,
            cost: Some(42),
            upper: None,
            lower: None,
            reason: None,
            recovered: false,
            cached: false,
            failovers: 0,
            retries: 0,
            wall_us: 10,
        };
        let mut same = base.clone();
        same.wall_us = 99_999;
        same.engine = "rayon".to_string();
        same.retries = 3;
        assert_eq!(result_hash(&base), result_hash(&same));
        let mut diff = base.clone();
        diff.cost = Some(43);
        assert_ne!(result_hash(&base), result_hash(&diff));
    }
}
