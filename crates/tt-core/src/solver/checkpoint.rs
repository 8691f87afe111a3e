//! Level-boundary checkpoints of the DP wavefront.
//!
//! The DP proceeds level-by-level over the subset lattice: after the
//! `#S = j` wavefront, every entry with `#S ≤ j` is exact. That makes
//! the completed wavefront a natural checkpoint unit — a [`Checkpoint`]
//! is the completed-level `C(S)` slab, the level index, the incumbent
//! bound sandwich at save time, an instance fingerprint, and an
//! integrity checksum over the serialized bytes.
//!
//! Checkpoints are what make failover *warm*: when an engine dies
//! mid-lattice (panic, fault escalation, a killed process), the
//! supervisor hands the last checkpoint to the next engine in the chain
//! — or `ttsolve --resume` reloads it from disk — and the DP restarts
//! at level `level + 1` instead of from scratch.
//!
//! The serialized form is line-oriented text in the spirit of
//! `tt_core::io`, ending in a `checksum` line (FNV-1a 64 over every
//! preceding byte). [`Checkpoint::from_text`] verifies the checksum
//! before looking at anything else, so a corrupted file — any byte —
//! is rejected as [`CheckpointError::Checksum`], never resumed from.
//!
//! Two wire versions exist. **v1** (`ttck 1`) is the original dense
//! form: one `entry <mask> <cost> <argmin>` line per `#S ≤ level` mask.
//! **v2** (`ttck 2`), the default, groups cells per wavefront level
//! under `lvl <j> <C(k,j)>` headers and addresses them by their
//! combinatorial rank (`c <rank> <cost> <argmin>`); rank order within a
//! level is ascending mask order. [`Checkpoint::to_text`] writes v2;
//! [`Checkpoint::from_text`] reads both, so older `--resume` files keep
//! loading.
//!
//! The wavefront is cost-only, as the paper's recurrence is: the
//! writers put `-` in every argmin field (8 B per cell in memory). The
//! reader still accepts a numeric argmin, which builds that carried an
//! argmin plane wrote, validates it as a number and discards it. Every
//! reader that needs an argmin recomputes it from the cost slab with
//! [`argmin_at`](crate::solver::sequential::argmin_at), which yields the
//! same first-minimizer those builds stored.
//!
//! A `Checkpoint` is also the live wavefront of a solve: the level
//! kernel advances one in place (see
//! [`Solver::solve_resumable`](crate::solver::engine::Solver::solve_resumable)),
//! so a supervised solve holds one `2^k` lattice, not an engine slab
//! plus a copy.

use crate::cost::Cost;
use crate::instance::TtInstance;
use crate::solver::anytime;
use crate::subset::frontier;
use crate::subset::Subset;
use std::fmt::Write as _;
use tt_obs::fnv1a;

/// The fingerprint binding a checkpoint to one instance: the hash of
/// its canonical text serialization.
pub fn instance_fingerprint(inst: &TtInstance) -> u64 {
    fnv1a(crate::io::to_text(inst).as_bytes())
}

/// Why a checkpoint could not be loaded or applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The stored checksum does not match the bytes — the file is
    /// corrupt or truncated.
    Checksum,
    /// A line could not be understood.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A required field is missing.
    Missing(&'static str),
    /// The slab contradicts itself (entry above the completed level,
    /// mask out of range, level above `k`).
    Inconsistent(String),
    /// The checkpoint was written for a different instance.
    WrongInstance {
        /// Fingerprint stored in the checkpoint.
        expected: u64,
        /// Fingerprint of the instance being resumed.
        actual: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Checksum => {
                write!(f, "checksum mismatch: the checkpoint is corrupt")
            }
            CheckpointError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            CheckpointError::Missing(what) => write!(f, "missing {what}"),
            CheckpointError::Inconsistent(msg) => write!(f, "inconsistent checkpoint: {msg}"),
            CheckpointError::WrongInstance { expected, actual } => write!(
                f,
                "checkpoint belongs to another instance \
                 (fingerprint {expected:016x}, instance {actual:016x})"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A completed-wavefront snapshot of the DP: every subset with
/// `#S ≤ level` carries its exact `C(S)`; everything above the
/// wavefront is unknown.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Number of objects (slab length is `2^k`).
    pub k: usize,
    /// Completed wavefront level: entries with `#S ≤ level` are exact.
    pub level: usize,
    /// `cost[S.index()] = C(S)` for `#S ≤ level`; `INF` placeholders
    /// above the wavefront.
    pub cost: Vec<Cost>,
    /// Incumbent upper bound at save time (`INF` when none was built).
    pub upper: Cost,
    /// Admissible lower bound at save time.
    pub lower: Cost,
    /// [`instance_fingerprint`] of the instance this slab belongs to.
    pub fingerprint: u64,
}

/// A borrowed view of the completed DP wavefront an engine holds at a
/// level boundary: what [`Solver::solve_resumable`] hands its per-level
/// observer. Making one copies nothing and computes nothing. Observers
/// that keep or persist the level call
/// [`to_checkpoint`](LevelView::to_checkpoint).
///
/// [`Solver::solve_resumable`]: crate::solver::engine::Solver::solve_resumable
#[derive(Clone, Copy)]
pub struct LevelView<'a> {
    inst: &'a TtInstance,
    level: usize,
    /// The mask-indexed `2^k` cost slab.
    cost: &'a [Cost],
    /// The instance fingerprint, computed once per solve.
    fingerprint: u64,
}

impl<'a> LevelView<'a> {
    /// The view of a wavefront an engine advances in place: its slab
    /// and the fingerprint it was made with.
    pub fn of(inst: &'a TtInstance, wave: &'a Checkpoint) -> LevelView<'a> {
        assert_eq!(wave.k, inst.k(), "wavefront and instance sizes");
        LevelView {
            inst,
            level: wave.level,
            cost: &wave.cost,
            fingerprint: wave.fingerprint,
        }
    }

    /// A view of a whole mask-indexed cost table, exact for
    /// `#S ≤ level` (a reference solver's table). Fingerprints `inst`.
    pub fn dense(inst: &'a TtInstance, level: usize, cost: &'a [Cost]) -> LevelView<'a> {
        assert_eq!(cost.len(), 1usize << inst.k(), "cost slab size");
        LevelView {
            inst,
            level,
            cost,
            fingerprint: instance_fingerprint(inst),
        }
    }

    /// The completed wavefront level: every `#S ≤ level` cell is exact.
    pub fn level(&self) -> usize {
        self.level
    }

    /// The owned checkpoint of this level: the `#S ≤ level` slab and the
    /// incumbent bound sandwich priced from it.
    pub fn to_checkpoint(&self) -> Checkpoint {
        let known = |mask: usize| Subset(mask as u32).len() <= self.level;
        let cost = (self.cost.iter().enumerate())
            .map(|(mask, &c)| if known(mask) { c } else { Cost::INF })
            .collect();
        let mut ck = Checkpoint::from_slab(self.fingerprint, self.level, cost);
        ck.price(self.inst);
        ck
    }
}

impl Checkpoint {
    /// A cost-only wavefront at `level` over a mask-indexed `2^k` slab
    /// that is exact for `#S ≤ level` and `INF` above it; bounds not yet
    /// priced (`INF`, `0`). The slab is taken over, not copied.
    pub fn from_slab(fingerprint: u64, level: usize, cost: Vec<Cost>) -> Checkpoint {
        assert!(cost.len().is_power_of_two(), "slab of 2^k cells");
        let k = cost.len().trailing_zeros() as usize;
        assert!(level <= k, "level {level} above k = {k}");
        Checkpoint {
            k,
            level,
            cost,
            upper: Cost::INF,
            lower: Cost::ZERO,
            fingerprint,
        }
    }

    /// The level-0 wavefront of a `k`-object instance with the given
    /// fingerprint: `C(∅) = 0`, nothing else known.
    pub fn cold(k: usize, fingerprint: u64) -> Checkpoint {
        let mut cost = vec![Cost::INF; 1usize << k];
        cost[0] = Cost::ZERO;
        Checkpoint::from_slab(fingerprint, 0, cost)
    }

    /// [`cold`](Checkpoint::cold) for `inst`, fingerprinting it.
    pub fn blank(inst: &TtInstance) -> Checkpoint {
        Checkpoint::cold(inst.k(), instance_fingerprint(inst))
    }

    /// Copies the `#S = level` cells of a producer's mask-indexed cost
    /// table into this wavefront and moves it to `level`; every level
    /// below must be here already. The bounds are left as they were:
    /// they are priced when the wavefront is handed out.
    pub fn absorb_level(&mut self, level: usize, cost: &[Cost]) {
        assert!(level <= self.level + 1, "levels are absorbed in order");
        for s in Subset::of_size(self.k, level) {
            self.cost[s.index()] = cost[s.index()];
        }
        self.level = level;
    }

    /// Forgets every cell above the wavefront: what a level cut short
    /// (an engine panicking mid-level) may have written there.
    pub fn forget_above(&mut self) {
        for mask in 0..self.cost.len() {
            if Subset(mask as u32).len() > self.level {
                self.cost[mask] = Cost::INF;
            }
        }
    }

    /// Prices the incumbent bound sandwich from the slab: the cost of
    /// the tree that follows the argmins recomputed below the wavefront
    /// and completes greedily above it, and the admissible lower bound
    /// at `U`.
    pub(crate) fn price(&mut self, inst: &TtInstance) {
        let tree = anytime::complete_tree(inst, &|s| self.exact(s));
        (self.upper, self.lower) = anytime::degraded_bounds(inst, tree.as_ref());
    }

    /// Does this checkpoint belong to `inst`?
    pub fn matches(&self, inst: &TtInstance) -> bool {
        self.k == inst.k() && self.fingerprint == instance_fingerprint(inst)
    }

    /// As [`matches`](Checkpoint::matches), but as a typed error.
    pub fn require_match(&self, inst: &TtInstance) -> Result<(), CheckpointError> {
        if self.matches(inst) {
            Ok(())
        } else {
            Err(CheckpointError::WrongInstance {
                expected: self.fingerprint,
                actual: instance_fingerprint(inst),
            })
        }
    }

    /// The partial-exact-table view of this checkpoint, in the shape
    /// `anytime::complete_tree` and `engine::degraded_result` consume:
    /// `C(S)` at or below the wavefront, `None` above it.
    pub fn exact(&self, s: Subset) -> Option<Cost> {
        (s.len() <= self.level).then(|| self.cost[s.index()])
    }

    /// Serializes the checkpoint in the frontier-compressed v2 format,
    /// ending with the checksum line: each completed wavefront level is
    /// one `lvl <j> <C(k,j)>` group of rank-addressed `c` cells, each
    /// with `-` in its argmin field.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "ttck 2");
        let _ = writeln!(s, "fingerprint {:016x}", self.fingerprint);
        let _ = writeln!(s, "k {}", self.k);
        let _ = writeln!(s, "level {}", self.level);
        let _ = writeln!(
            s,
            "bounds {} {}",
            fmt_cost(self.upper),
            fmt_cost(self.lower)
        );
        for j in 0..=self.level {
            let _ = writeln!(s, "lvl {j} {}", frontier::binomial(self.k, j));
            for (r, sub) in Subset::of_size(self.k, j).enumerate() {
                let _ = writeln!(s, "c {r} {} -", fmt_cost(self.cost[sub.index()]));
            }
        }
        let _ = writeln!(s, "checksum {:016x}", fnv1a(s.as_bytes()));
        s
    }

    /// Serializes the checkpoint in the legacy dense v1 format (one
    /// `entry <mask> …` line per `#S ≤ level` mask). Kept so the
    /// read-compat path stays honest under test and so external tooling
    /// that still expects v1 can be fed.
    pub fn to_text_v1(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "ttck 1");
        let _ = writeln!(s, "fingerprint {:016x}", self.fingerprint);
        let _ = writeln!(s, "k {}", self.k);
        let _ = writeln!(s, "level {}", self.level);
        let _ = writeln!(
            s,
            "bounds {} {}",
            fmt_cost(self.upper),
            fmt_cost(self.lower)
        );
        for mask in 0..self.cost.len() {
            if Subset(mask as u32).len() > self.level {
                continue;
            }
            let _ = writeln!(s, "entry {mask} {} -", fmt_cost(self.cost[mask]));
        }
        let _ = writeln!(s, "checksum {:016x}", fnv1a(s.as_bytes()));
        s
    }

    /// Parses a serialized checkpoint, verifying the checksum before
    /// anything else: any corrupted byte fails as
    /// [`CheckpointError::Checksum`].
    pub fn from_text(text: &str) -> Result<Checkpoint, CheckpointError> {
        // The checksum line covers every byte before it, including the
        // newline that ends the last data line.
        let body_end = text
            .rfind("checksum ")
            .ok_or(CheckpointError::Missing("checksum line"))?;
        // The tail must be exactly `checksum <16 hex digits>\n` — a
        // corrupted trailing byte is corruption like any other.
        let hex = text[body_end..]
            .strip_prefix("checksum ")
            .and_then(|t| t.strip_suffix('\n'))
            .ok_or(CheckpointError::Checksum)?;
        if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(CheckpointError::Checksum);
        }
        let stored = u64::from_str_radix(hex, 16).map_err(|_| CheckpointError::Checksum)?;
        if fnv1a(&text.as_bytes()[..body_end]) != stored {
            return Err(CheckpointError::Checksum);
        }

        let mut fingerprint = None;
        let mut k = None;
        let mut level = None;
        let mut bounds = None;
        let mut entries: Vec<(usize, Cost)> = Vec::new();
        // v2 state: (level index, declared cell count, cells seen so far).
        type LevelGroup = (usize, u64, Vec<(u64, Cost)>);
        let mut lvl_groups: Vec<LevelGroup> = Vec::new();
        let mut version: Option<u32> = None;
        for (idx, raw) in text[..body_end].lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            let syntax = |message: String| CheckpointError::Syntax {
                line: line_no,
                message,
            };
            let mut parts = line.split_whitespace();
            match parts.next().unwrap_or("") {
                "ttck" => match parts.next() {
                    Some("1") => version = Some(1),
                    Some("2") => version = Some(2),
                    _ => return Err(syntax("unsupported checkpoint version".into())),
                },
                "fingerprint" => {
                    let v = parts
                        .next()
                        .and_then(|t| u64::from_str_radix(t, 16).ok())
                        .ok_or_else(|| syntax("bad fingerprint".into()))?;
                    fingerprint = Some(v);
                }
                "k" => {
                    k = Some(
                        parts
                            .next()
                            .and_then(|t| t.parse().ok())
                            .ok_or_else(|| syntax("bad k".into()))?,
                    );
                }
                "level" => {
                    level = Some(
                        parts
                            .next()
                            .and_then(|t| t.parse().ok())
                            .ok_or_else(|| syntax("bad level".into()))?,
                    );
                }
                "bounds" => {
                    let upper =
                        parse_cost(parts.next()).ok_or_else(|| syntax("bad upper".into()))?;
                    let lower =
                        parse_cost(parts.next()).ok_or_else(|| syntax("bad lower".into()))?;
                    bounds = Some((upper, lower));
                }
                "entry" => {
                    if version != Some(1) {
                        return Err(syntax("'entry' lines belong to the v1 format".into()));
                    }
                    let mask: usize = parts
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| syntax("bad mask".into()))?;
                    let cost = parse_cost(parts.next()).ok_or_else(|| syntax("bad cost".into()))?;
                    check_argmin(parts.next()).map_err(syntax)?;
                    entries.push((mask, cost));
                }
                "lvl" => {
                    if version != Some(2) {
                        return Err(syntax("'lvl' lines belong to the v2 format".into()));
                    }
                    let j: usize = parts
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| syntax("bad level index".into()))?;
                    let cells: u64 = parts
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| syntax("bad cell count".into()))?;
                    lvl_groups.push((j, cells, Vec::new()));
                }
                "c" => {
                    if version != Some(2) {
                        return Err(syntax("'c' lines belong to the v2 format".into()));
                    }
                    let rank: u64 = parts
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| syntax("bad rank".into()))?;
                    let cost = parse_cost(parts.next()).ok_or_else(|| syntax("bad cost".into()))?;
                    check_argmin(parts.next()).map_err(syntax)?;
                    lvl_groups
                        .last_mut()
                        .ok_or_else(|| syntax("'c' cell before any 'lvl' header".into()))?
                        .2
                        .push((rank, cost));
                }
                other => return Err(syntax(format!("unknown keyword '{other}'"))),
            }
        }
        let version = version.ok_or(CheckpointError::Missing("'ttck' header"))?;
        let k: usize = k.ok_or(CheckpointError::Missing("'k' line"))?;
        let level = level.ok_or(CheckpointError::Missing("'level' line"))?;
        let fingerprint = fingerprint.ok_or(CheckpointError::Missing("'fingerprint' line"))?;
        let (upper, lower) = bounds.ok_or(CheckpointError::Missing("'bounds' line"))?;
        if k > crate::MAX_K {
            return Err(CheckpointError::Inconsistent(format!(
                "k = {k} out of range"
            )));
        }
        if level > k {
            return Err(CheckpointError::Inconsistent(format!(
                "level {level} above k = {k}"
            )));
        }
        if version == 2 {
            // The v2 body must be exactly the levels 0..=level, each a
            // complete frontier: declared size C(k,j), every rank
            // present once, in ascending order. Anything else is a
            // structural inconsistency even when the checksum holds.
            if lvl_groups.len() != level + 1 {
                return Err(CheckpointError::Inconsistent(format!(
                    "expected {} level groups, found {}",
                    level + 1,
                    lvl_groups.len()
                )));
            }
            let mut unranks: u64 = 0;
            for (want_j, (j, declared, cells)) in lvl_groups.iter().enumerate() {
                if *j != want_j {
                    return Err(CheckpointError::Inconsistent(format!(
                        "level group {j} out of order (expected {want_j})"
                    )));
                }
                let expect = frontier::binomial(k, *j);
                if *declared != expect {
                    return Err(CheckpointError::Inconsistent(format!(
                        "level {j} declares {declared} cells, C({k},{j}) = {expect}"
                    )));
                }
                if cells.len() as u64 != expect {
                    return Err(CheckpointError::Inconsistent(format!(
                        "level {j} has {} cells, expected {expect}",
                        cells.len()
                    )));
                }
                for (idx, (rank, cost)) in cells.iter().enumerate() {
                    if *rank != idx as u64 {
                        return Err(CheckpointError::Inconsistent(format!(
                            "level {j} cell rank {rank} out of order (expected {idx})"
                        )));
                    }
                    let mask = frontier::unrank(*j, *rank).index();
                    unranks += 1;
                    entries.push((mask, *cost));
                }
            }
            tt_obs::telemetry::add_counter("frontier_unrank_calls", unranks);
        }
        let size = 1usize << k;
        let mut cost = vec![Cost::INF; size];
        let mut seen = vec![false; size];
        for (mask, c) in entries {
            if mask >= size {
                return Err(CheckpointError::Inconsistent(format!(
                    "mask {mask} out of range for k = {k}"
                )));
            }
            if Subset(mask as u32).len() > level {
                return Err(CheckpointError::Inconsistent(format!(
                    "entry {mask} above the completed level {level}"
                )));
            }
            if seen[mask] {
                return Err(CheckpointError::Inconsistent(format!(
                    "duplicate entry {mask}"
                )));
            }
            seen[mask] = true;
            cost[mask] = c;
        }
        for (mask, present) in seen.iter().enumerate().take(size) {
            if Subset(mask as u32).len() <= level && !present {
                return Err(CheckpointError::Inconsistent(format!(
                    "missing entry {mask} at or below level {level}"
                )));
            }
        }
        if !cost[0].is_finite() || cost[0] != Cost::ZERO {
            return Err(CheckpointError::Inconsistent("C(∅) must be 0".into()));
        }
        Ok(Checkpoint {
            k,
            level,
            cost,
            upper,
            lower,
            fingerprint,
        })
    }

    /// Writes the checkpoint to a file through
    /// [`crate::durable::atomic_write`]: a kill or a power loss mid-write
    /// never leaves a torn checkpoint behind, because the previous
    /// complete one survives until the new one is durable. The temp file
    /// is `<name>.tmp`, so even a checkpoint named `x.tmp` is never
    /// rewritten in place.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        let _t = tt_obs::metrics::histogram("tt_checkpoint_save_nanos").time();
        tt_obs::metrics::counter("tt_checkpoint_saves_total").inc();
        tt_obs::telemetry::add_counter("checkpoint_saves", 1);
        crate::durable::atomic_write(path, self.to_text().as_bytes())
    }

    /// Loads and verifies a checkpoint from a file.
    pub fn load(path: &std::path::Path) -> Result<Checkpoint, CheckpointLoadError> {
        let _t = tt_obs::metrics::histogram("tt_checkpoint_load_nanos").time();
        tt_obs::metrics::counter("tt_checkpoint_loads_total").inc();
        tt_obs::telemetry::add_counter("checkpoint_loads", 1);
        let text = std::fs::read_to_string(path).map_err(CheckpointLoadError::Io)?;
        Checkpoint::from_text(&text).map_err(CheckpointLoadError::Invalid)
    }
}

/// Errors from [`Checkpoint::load`]: the file was unreadable, or its
/// contents failed verification.
#[derive(Debug)]
pub enum CheckpointLoadError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The contents failed checksum or structural verification.
    Invalid(CheckpointError),
}

impl std::fmt::Display for CheckpointLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointLoadError::Io(e) => write!(f, "cannot read checkpoint: {e}"),
            CheckpointLoadError::Invalid(e) => write!(f, "invalid checkpoint: {e}"),
        }
    }
}

impl std::error::Error for CheckpointLoadError {}

fn fmt_cost(c: Cost) -> String {
    match c.finite() {
        Some(v) => v.to_string(),
        None => "inf".to_string(),
    }
}

/// Checks a cell's argmin field: `-`, or an action index as older
/// builds that carried an argmin plane wrote it (read and dropped).
fn check_argmin(tok: Option<&str>) -> Result<(), String> {
    match tok {
        Some("-") => Ok(()),
        Some(t) => t.parse::<u16>().map(drop).map_err(|_| "bad argmin".into()),
        None => Err("missing argmin field".into()),
    }
}

fn parse_cost(tok: Option<&str>) -> Option<Cost> {
    match tok? {
        "inf" => Some(Cost::INF),
        t => t.parse().ok().map(Cost::new),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::TtInstanceBuilder;
    use crate::solver::sequential;

    fn inst() -> TtInstance {
        TtInstanceBuilder::new(4)
            .weights([4, 3, 2, 1])
            .test(Subset::from_iter([0, 1]), 1)
            .test(Subset::from_iter([0, 2]), 2)
            .treatment(Subset::from_iter([0]), 3)
            .treatment(Subset::from_iter([1, 2]), 4)
            .treatment(Subset::from_iter([3]), 2)
            .build()
            .unwrap()
    }

    fn checkpoint_at(level: usize) -> (TtInstance, Checkpoint) {
        let i = inst();
        let sol = sequential::solve(&i);
        let ck = LevelView::dense(&i, level, &sol.tables.cost).to_checkpoint();
        (i, ck)
    }

    #[test]
    fn roundtrips_exactly() {
        for level in 0..=4 {
            let (_, ck) = checkpoint_at(level);
            let text = ck.to_text();
            let back = Checkpoint::from_text(&text).unwrap();
            assert_eq!(back, ck, "level {level}");
        }
    }

    #[test]
    fn capture_masks_entries_above_the_level() {
        let (_, ck) = checkpoint_at(2);
        for mask in 0..ck.cost.len() {
            let s = Subset(mask as u32);
            if s.len() > 2 {
                assert!(ck.cost[mask].is_inf(), "mask {mask} leaked");
                assert_eq!(ck.exact(s), None);
            } else {
                assert!(ck.exact(s).is_some());
            }
        }
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let (_, ck) = checkpoint_at(2);
        let text = ck.to_text();
        let bytes = text.as_bytes();
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.to_vec();
            corrupt[pos] ^= 0x01;
            let corrupted = String::from_utf8_lossy(&corrupt).into_owned();
            assert!(
                Checkpoint::from_text(&corrupted).is_err(),
                "corruption at byte {pos} accepted"
            );
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let (_, ck) = checkpoint_at(3);
        let text = ck.to_text();
        assert!(matches!(
            Checkpoint::from_text(&text[..text.len() - 2]),
            Err(CheckpointError::Checksum)
        ));
        assert!(matches!(
            Checkpoint::from_text(""),
            Err(CheckpointError::Missing(_))
        ));
    }

    #[test]
    fn wrong_instance_is_rejected() {
        let (_, ck) = checkpoint_at(2);
        let other = TtInstanceBuilder::new(4)
            .weights([1, 1, 1, 1])
            .treatment(Subset::universe(4), 9)
            .build()
            .unwrap();
        assert!(matches!(
            ck.require_match(&other),
            Err(CheckpointError::WrongInstance { .. })
        ));
        assert!(ck.require_match(&inst()).is_ok());
    }

    /// `text` with every cell's argmin field set to the reference
    /// solver's argmin, re-checksummed: what a writer that carried an
    /// argmin plane produced.
    fn with_argmins(i: &TtInstance, text: &str) -> String {
        let best = sequential::solve(i).tables.best;
        let body = &text[..text.rfind("checksum ").unwrap()];
        let (mut out, mut j) = (String::new(), 0);
        for line in body.lines() {
            let f: Vec<&str> = line.split(' ').collect();
            let mask = match f[0] {
                "lvl" => {
                    j = f[1].parse().unwrap();
                    None
                }
                "entry" => Some(f[1].parse::<usize>().unwrap()),
                "c" => Some(frontier::unrank(j, f[1].parse().unwrap()).index()),
                _ => None,
            };
            let _ = match mask.and_then(|m| best[m]) {
                Some(b) => writeln!(out, "{} {} {} {b}", f[0], f[1], f[2]),
                None => writeln!(out, "{line}"),
            };
        }
        format!("{out}checksum {:016x}\n", fnv1a(out.as_bytes()))
    }

    #[test]
    fn numeric_argmins_from_older_writers_load_and_are_dropped() {
        for level in 1..=4 {
            let (i, ck) = checkpoint_at(level);
            for text in [ck.to_text(), ck.to_text_v1()] {
                let legacy = with_argmins(&i, &text);
                assert_ne!(legacy, text, "level {level}: no argmin written");
                let back = Checkpoint::from_text(&legacy).unwrap();
                assert_eq!(back, ck, "level {level}");
                assert_eq!(back.to_text(), ck.to_text(), "level {level}");
            }
        }
        // A non-numeric argmin is still a syntax error.
        let (_, ck) = checkpoint_at(1);
        let mut body = ck.to_text();
        body.truncate(body.rfind("checksum ").unwrap());
        let body = body.replace(" -\n", " x\n");
        let text = format!("{body}checksum {:016x}\n", fnv1a(body.as_bytes()));
        assert!(matches!(
            Checkpoint::from_text(&text),
            Err(CheckpointError::Syntax { .. })
        ));
    }

    #[test]
    fn inconsistent_slabs_are_rejected() {
        let (_, ck) = checkpoint_at(1);
        // Hand-build a v1 text with an entry above the level,
        // re-checksummed so only the structural check can catch it.
        let mut body = ck.to_text_v1();
        let checksum_at = body.rfind("checksum ").unwrap();
        body.truncate(checksum_at);
        body.push_str("entry 7 5 0\n");
        let text = format!("{body}checksum {:016x}\n", fnv1a(body.as_bytes()));
        assert!(matches!(
            Checkpoint::from_text(&text),
            Err(CheckpointError::Inconsistent(_))
        ));
    }

    #[test]
    fn legacy_v1_text_still_loads() {
        for level in 0..=4 {
            let (_, ck) = checkpoint_at(level);
            let v1 = ck.to_text_v1();
            assert!(v1.starts_with("ttck 1\n"));
            let back = Checkpoint::from_text(&v1).unwrap();
            assert_eq!(back, ck, "level {level}");
            // And the default writer produces v2 of the same state.
            let v2 = ck.to_text();
            assert!(v2.starts_with("ttck 2\n"));
            assert_eq!(Checkpoint::from_text(&v2).unwrap(), back);
        }
    }

    #[test]
    fn every_single_byte_corruption_is_rejected_in_v1_too() {
        let (_, ck) = checkpoint_at(2);
        let text = ck.to_text_v1();
        let bytes = text.as_bytes();
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.to_vec();
            corrupt[pos] ^= 0x01;
            let corrupted = String::from_utf8_lossy(&corrupt).into_owned();
            assert!(
                Checkpoint::from_text(&corrupted).is_err(),
                "corruption at byte {pos} accepted"
            );
        }
    }

    #[test]
    fn v2_with_missing_cell_is_rejected() {
        let (_, ck) = checkpoint_at(2);
        let mut body = ck.to_text();
        let checksum_at = body.rfind("checksum ").unwrap();
        body.truncate(checksum_at);
        // Drop the last cell line, then re-checksum: only the per-level
        // completeness check can catch it.
        let last_cell = body.rfind("\nc ").unwrap();
        body.truncate(last_cell + 1);
        let text = format!("{body}checksum {:016x}\n", fnv1a(body.as_bytes()));
        assert!(matches!(
            Checkpoint::from_text(&text),
            Err(CheckpointError::Inconsistent(_))
        ));
    }

    #[test]
    fn v2_cell_lines_are_rejected_inside_a_v1_body() {
        let (_, ck) = checkpoint_at(1);
        let mut body = ck.to_text_v1();
        let checksum_at = body.rfind("checksum ").unwrap();
        body.truncate(checksum_at);
        body.push_str("lvl 0 1\n");
        let text = format!("{body}checksum {:016x}\n", fnv1a(body.as_bytes()));
        assert!(matches!(
            Checkpoint::from_text(&text),
            Err(CheckpointError::Syntax { .. })
        ));
    }

    #[test]
    fn the_view_of_a_wavefront_equals_the_view_of_the_full_table() {
        let i = inst();
        let sol = sequential::solve(&i);
        for level in 1..=i.k() {
            let dense = LevelView::dense(&i, level, &sol.tables.cost).to_checkpoint();
            let wave = Checkpoint::from_slab(dense.fingerprint, level, dense.cost.clone());
            assert_eq!(
                LevelView::of(&i, &wave).to_checkpoint(),
                dense,
                "level {level}"
            );
        }
    }

    #[test]
    fn absorbing_level_by_level_equals_one_full_copy() {
        let i = inst();
        let sol = sequential::solve(&i);
        let mut wave = Checkpoint::blank(&i);
        for level in 1..=i.k() {
            wave.absorb_level(level, &sol.tables.cost);
            wave.price(&i);
            let want = LevelView::dense(&i, level, &sol.tables.cost).to_checkpoint();
            assert_eq!(wave, want, "level {level}");
        }
    }

    #[test]
    fn forget_above_clears_a_level_cut_short() {
        let i = inst();
        let sol = sequential::solve(&i);
        let mut wave = Checkpoint::blank(&i);
        wave.absorb_level(1, &sol.tables.cost);
        let clean = wave.clone();
        // Half of level 2 written, as a panic mid-level leaves it.
        for s in Subset::of_size(i.k(), 2).take(3) {
            wave.cost[s.index()] = sol.tables.cost[s.index()];
        }
        assert_ne!(wave, clean);
        wave.forget_above();
        assert_eq!(wave, clean);
        assert_eq!(wave.to_text(), clean.to_text());
    }
}
