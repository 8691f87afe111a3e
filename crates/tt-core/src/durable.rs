//! Durable files: everything the workspace must keep whole across a
//! crash is written here.
//!
//! - [`atomic_write`] replaces a file whole: temp file `<name>.tmp`,
//!   fsync, rename over the target, fsync of the parent directory (`.`
//!   for a bare file name). A kill or a power loss leaves the old
//!   contents or the new, never a torn mix. Checkpoints, batch
//!   summaries, experiment results and segment rotations use it.
//! - The line codec frames one record per line:
//!   `<payload> \t <16 lowercase hex of checkpoint::fnv1a(payload)> \n`.
//!   Only the canonical lowercase checksum is accepted, so a one-byte
//!   flip of a digit (`a` ^ 0x20 = `A`) cannot parse back to the same
//!   value. A payload holds no newline; tabs are fine, since the
//!   checksum follows the last one.
//! - A [`SegmentLog`] is a directory of append-only segments named
//!   `<prefix><NNNNNN><suffix>` ([`Segments`]), replayed oldest first
//!   and compacted by [`SegmentLog::rotate`]. Its one parameter,
//!   [`Mode`], is where the solve journal (strict) and the solution
//!   cache (lenient) differ.

use crate::solver::checkpoint::fnv1a;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Replaces `path` with `bytes` atomically and durably. The temp file
/// is never the target itself and does not survive a successful write.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = temp_path(path);
    let written =
        File::create(&tmp).and_then(|mut f| f.write_all(bytes).and_then(|()| f.sync_all()));
    if let Err(e) = written.and_then(|()| fs::rename(&tmp, path)) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    // The rename is durable only once the directory entry is.
    File::open(parent_dir(path))?.sync_all()
}

/// `<file name>.tmp` in the target's directory.
fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// The directory whose entry a rename of `path` changes.
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

/// Frames `payload` as one checksummed line, newline included.
#[must_use]
pub fn encode_line(payload: &str) -> String {
    format!("{payload}\t{:016x}\n", fnv1a(payload.as_bytes()))
}

/// Verifies one line (without its newline) and returns its payload, or
/// what was wrong with it.
pub fn decode_line(line: &[u8]) -> Result<&str, String> {
    let tab = line.iter().rposition(|&b| b == b'\t');
    let (payload, sum) = tab
        .map(|t| (&line[..t], &line[t + 1..]))
        .ok_or("no checksum separator")?;
    // Canonical form only (see the module doc): 16 lowercase hex digits.
    let canonical = sum.len() == 16
        && sum
            .iter()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(b));
    let stored = std::str::from_utf8(sum).ok().filter(|_| canonical);
    let Some(stored) = stored.and_then(|s| u64::from_str_radix(s, 16).ok()) else {
        let sum = String::from_utf8_lossy(sum);
        return Err(format!("non-canonical checksum '{sum}'"));
    };
    let actual = fnv1a(payload);
    if stored != actual {
        return Err(format!(
            "checksum mismatch: stored {stored:016x}, computed {actual:016x}"
        ));
    }
    std::str::from_utf8(payload).map_err(|_| "not UTF-8".to_string())
}

/// How a segment log treats durability and damage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Every append is fsync'd; a complete line that fails verification
    /// or that its reader rejects, and an unterminated fragment at the
    /// end of a sealed segment, are typed errors.
    Strict,
    /// Appends are not fsync'd, and a bad line is skipped without
    /// stopping: for a log whose entries may always be dropped.
    Lenient,
}

/// Why a segment log could not be written or replayed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogError {
    /// A filesystem operation failed.
    Io {
        /// Which operation (`append`, `fsync`, `read segment`, ...).
        op: &'static str,
        /// The OS error kind.
        kind: io::ErrorKind,
    },
    /// A complete line failed verification or its reader rejected it.
    Corrupt {
        /// Segment number the line lives in.
        segment: u64,
        /// 1-based line number within the segment.
        line: usize,
        /// What exactly was wrong.
        reason: String,
    },
    /// An unterminated trailing fragment where none may be.
    TornTail {
        /// Segment number carrying the fragment.
        segment: u64,
        /// Byte offset where the fragment starts.
        offset: usize,
    },
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::Io { op, kind } => write!(f, "segment log {op} failed: {kind:?}"),
            LogError::Corrupt {
                segment,
                line,
                reason,
            } => {
                write!(f, "segment {segment} line {line} is corrupt: {reason}")
            }
            LogError::TornTail { segment, offset } => {
                write!(f, "segment {segment} has a torn tail at byte {offset}")
            }
        }
    }
}

impl std::error::Error for LogError {}

impl From<LogError> for io::Error {
    fn from(e: LogError) -> io::Error {
        io::Error::other(e)
    }
}

fn io_err(op: &'static str) -> impl Fn(io::Error) -> LogError {
    move |e| LogError::Io { op, kind: e.kind() }
}

/// A replay's reader: takes each verified payload, and rejects it with
/// an `Err` saying why.
pub type Visit<'a> = dyn FnMut(&str) -> Result<(), String> + 'a;

/// Reads one segment's bytes line by line through `visit`. A rejected
/// line is [`LogError::Corrupt`] in [`Mode::Strict`] and skipped in
/// [`Mode::Lenient`]. Returns where an unterminated trailing fragment
/// starts, if there is one; the caller decides what it means.
pub fn scan(
    segment: u64,
    bytes: &[u8],
    mode: Mode,
    visit: &mut Visit,
) -> Result<Option<usize>, LogError> {
    let (mut start, mut line) = (0, 0);
    while start < bytes.len() {
        let Some(nl) = bytes[start..].iter().position(|&b| b == b'\n') else {
            return Ok(Some(start));
        };
        line += 1;
        let verdict = decode_line(&bytes[start..start + nl]).and_then(&mut *visit);
        if let (Err(reason), Mode::Strict) = (verdict, mode) {
            return Err(LogError::Corrupt {
                segment,
                line,
                reason,
            });
        }
        start += nl + 1;
    }
    Ok(None)
}

/// What a replay read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Replayed {
    /// Segments read.
    pub segments: u64,
    /// Did the newest segment end in an unterminated fragment (the
    /// signature of a crash mid-append)?
    pub torn_tail: bool,
}

/// A segment directory: where the segments live, how they are named,
/// and the [`Mode`] they are read and written in.
#[derive(Clone, Debug)]
pub struct Segments {
    /// The directory.
    pub dir: PathBuf,
    /// Segment file-name prefix.
    pub prefix: &'static str,
    /// Segment file-name suffix.
    pub suffix: &'static str,
    /// Strict or lenient.
    pub mode: Mode,
}

impl Segments {
    /// Opens (creating if needed) the log and replays every segment,
    /// oldest first, through `visit`. The newest segment's torn tail
    /// was never acknowledged: it is truncated, so the next append
    /// starts on a line boundary. Appends go to the newest segment
    /// (`1` in an empty directory).
    pub fn open(self, visit: &mut Visit) -> Result<(SegmentLog, Replayed), LogError> {
        fs::create_dir_all(&self.dir).map_err(io_err("create dir"))?;
        let (replayed, newest) = self.read(true, visit)?;
        let seg = newest.unwrap_or(1);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(seg));
        let file = file.map_err(io_err("open segment"))?;
        if newest.is_none() {
            // A new segment's directory entry must be durable before the
            // first append to it is acknowledged.
            self.sync_dir()?;
        }
        let bytes = file.metadata().map_err(io_err("stat"))?.len();
        Ok((
            SegmentLog {
                segs: self,
                seg,
                file,
                bytes,
            },
            replayed,
        ))
    }

    /// Replays the log without opening it for writing: a torn newest
    /// segment is reported, not truncated.
    pub fn replay(&self, visit: &mut Visit) -> Result<Replayed, LogError> {
        Ok(self.read(false, visit)?.0)
    }

    fn sync_dir(&self) -> Result<(), LogError> {
        File::open(&self.dir)
            .and_then(|d| d.sync_all())
            .map_err(io_err("fsync dir"))
    }

    fn path(&self, seg: u64) -> PathBuf {
        self.dir
            .join(format!("{}{seg:06}{}", self.prefix, self.suffix))
    }

    /// Segment numbers in the directory, ascending.
    fn list(&self) -> Result<Vec<u64>, LogError> {
        let mut segs = Vec::new();
        for entry in fs::read_dir(&self.dir).map_err(io_err("read_dir"))? {
            let name = entry.map_err(io_err("read_dir"))?.file_name();
            let number = name.to_str().and_then(|n| n.strip_prefix(self.prefix));
            segs.extend(number.and_then(|n| n.strip_suffix(self.suffix)?.parse::<u64>().ok()));
        }
        segs.sort_unstable();
        Ok(segs)
    }

    /// Scans every segment; returns what was read and the newest
    /// segment's number.
    fn read(&self, truncate: bool, visit: &mut Visit) -> Result<(Replayed, Option<u64>), LogError> {
        let segs = self.list()?;
        let newest = segs.last().copied();
        let mut replayed = Replayed::default();
        for &seg in &segs {
            let path = self.path(seg);
            let bytes = fs::read(&path).map_err(io_err("read segment"))?;
            replayed.segments += 1;
            let Some(offset) = scan(seg, &bytes, self.mode, visit)? else {
                continue;
            };
            if Some(seg) != newest {
                // A sealed segment can only be torn by corruption.
                if self.mode == Mode::Strict {
                    return Err(LogError::TornTail {
                        segment: seg,
                        offset,
                    });
                }
                continue;
            }
            replayed.torn_tail = true;
            if truncate {
                let f = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(io_err("open segment"))?;
                f.set_len(offset as u64).map_err(io_err("truncate"))?;
                f.sync_data().map_err(io_err("fsync"))?;
            }
        }
        Ok((replayed, newest))
    }
}

/// An open segment log: its directory plus the active segment.
#[derive(Debug)]
pub struct SegmentLog {
    segs: Segments,
    seg: u64,
    file: File,
    bytes: u64,
}

impl SegmentLog {
    /// Appends one payload as a checksummed line. In [`Mode::Strict`] it
    /// is fsync'd: once this returns `Ok` it survives a SIGKILL or a
    /// power loss.
    pub fn append(&mut self, payload: &str) -> Result<(), LogError> {
        let line = encode_line(payload);
        self.file
            .write_all(line.as_bytes())
            .map_err(io_err("append"))?;
        if self.segs.mode == Mode::Strict {
            self.file.sync_data().map_err(io_err("fsync"))?;
        }
        self.bytes += line.len() as u64;
        Ok(())
    }

    /// Bytes in the active segment.
    #[must_use]
    pub fn segment_bytes(&self) -> u64 {
        self.bytes
    }

    /// Compacts the log to `live`: writes it as the next segment with
    /// [`atomic_write`], removes every older segment and appends to the
    /// new one from now on. A crash before the removes only leaves
    /// stale segments, which replay reads first and the snapshot
    /// supersedes.
    pub fn rotate<S: AsRef<str>>(&mut self, live: &[S]) -> Result<(), LogError> {
        let next = self.seg + 1;
        let bytes: String = live.iter().map(|p| encode_line(p.as_ref())).collect();
        atomic_write(&self.segs.path(next), bytes.as_bytes()).map_err(io_err("write rotation"))?;
        for seg in self.segs.list()?.into_iter().filter(|&s| s < next) {
            let _ = fs::remove_file(self.segs.path(seg));
        }
        self.segs.sync_dir()?;
        let file = OpenOptions::new().append(true).open(self.segs.path(next));
        self.file = file.map_err(io_err("open segment"))?;
        (self.seg, self.bytes) = (next, bytes.len() as u64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tt-durable-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn segments(dir: &Path, mode: Mode) -> Segments {
        Segments {
            dir: dir.to_path_buf(),
            prefix: "s-",
            suffix: ".log",
            mode,
        }
    }

    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_target_named_tmp_is_never_written_in_place() {
        let dir = temp_dir("tmp-target");
        let target = dir.join("x.tmp");
        fs::write(&target, b"old").unwrap();
        // A second name for the target's inode: writing the target in
        // place would change what this link reads.
        let link = dir.join("link");
        fs::hard_link(&target, &link).unwrap();
        atomic_write(&target, b"new").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"new");
        assert_eq!(
            fs::read(&link).unwrap(),
            b"old",
            "target rewritten in place"
        );
        assert_eq!(names(&dir), ["link", "x.tmp"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_temp_file_survives_a_successful_write() {
        let dir = temp_dir("no-temp");
        let target = dir.join("summary.json");
        atomic_write(&target, b"{}\n").unwrap();
        atomic_write(&target, b"{\"total\":1}\n").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"{\"total\":1}\n");
        assert_eq!(names(&dir), ["summary.json"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_bare_file_name_fsyncs_the_current_directory() {
        assert_eq!(parent_dir(Path::new("run.ck")), Path::new("."));
        assert_eq!(parent_dir(Path::new("out/run.ck")), Path::new("out"));
        assert_eq!(temp_path(Path::new("run.ck")), Path::new("run.ck.tmp"));
        assert_eq!(
            temp_path(Path::new("out/x.tmp")),
            Path::new("out/x.tmp.tmp")
        );
    }

    #[test]
    fn lines_roundtrip_and_only_the_canonical_checksum_is_accepted() {
        let line = encode_line("a\tb");
        assert_eq!(decode_line(line.trim_end().as_bytes()), Ok("a\tb"));
        let upper = line.trim_end().to_ascii_uppercase();
        assert!(decode_line(upper.as_bytes()).is_err());
        assert!(decode_line(b"no separator").is_err());
        assert!(decode_line(b"\xff\t0000000000000000").is_err());
    }

    #[test]
    fn strict_logs_refuse_what_lenient_logs_skip() {
        let dir = temp_dir("modes");
        {
            let (mut log, _) = segments(&dir, Mode::Strict).open(&mut |_| Ok(())).unwrap();
            for p in ["one", "two", "three"] {
                log.append(p).unwrap();
            }
        }
        let seg = dir.join("s-000001.log");
        let mut bytes = fs::read(&seg).unwrap();
        bytes[1] ^= 0x80; // line 1 is no longer UTF-8
        bytes.extend_from_slice(b"torn");
        fs::write(&seg, &bytes).unwrap();

        let mut seen = Vec::new();
        let read = segments(&dir, Mode::Lenient)
            .replay(&mut |p| {
                seen.push(p.to_string());
                Ok(())
            })
            .unwrap();
        assert_eq!(seen, ["two", "three"]);
        assert!(read.torn_tail);
        assert!(matches!(
            segments(&dir, Mode::Strict).replay(&mut |_| Ok(())),
            Err(LogError::Corrupt {
                segment: 1,
                line: 1,
                ..
            })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_keeps_only_the_live_set() {
        let dir = temp_dir("rotate");
        let (mut log, _) = segments(&dir, Mode::Lenient).open(&mut |_| Ok(())).unwrap();
        for p in ["a", "b", "c"] {
            log.append(p).unwrap();
        }
        log.rotate(&["c", "a"]).unwrap();
        log.append("d").unwrap();
        assert_eq!(names(&dir), ["s-000002.log"]);
        assert_eq!(
            log.segment_bytes(),
            fs::metadata(dir.join("s-000002.log")).unwrap().len()
        );
        drop(log);
        let mut seen = Vec::new();
        let (_, read) = segments(&dir, Mode::Strict)
            .open(&mut |p| {
                seen.push(p.to_string());
                Ok(())
            })
            .unwrap();
        assert_eq!(seen, ["c", "a", "d"]);
        assert_eq!(read.segments, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
