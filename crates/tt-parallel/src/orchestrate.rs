//! Supervised orchestration over the machine simulations: fault-armed
//! engines for the supervision chain, and the isolated batch driver.
//!
//! `tt_core::solver::supervise` knows nothing about machine faults —
//! its chains are built from the plain registry engines. This module
//! closes the loop for the fault-injection story:
//!
//! * [`FaultyCccEngine`] / [`FaultyBvmEngine`] wrap the resilient
//!   drivers of [`crate::resilient`] as [`Solver`]s, so a machine with
//!   an armed fault plan can sit at the head of a supervision chain.
//!   An escalation surfaces as a
//!   [`DegradeReason::FaultEscalation`](tt_core::solver::DegradeReason)
//!   report, which the supervisor retries and then fails over — and the
//!   CCC wrapper emits a checkpoint after every *committed* level, so
//!   the software fallback resumes mid-lattice instead of starting
//!   cold.
//! * [`parse_fault_spec`] is the shared `--faults` grammar (`ttsolve`
//!   and batch manifests use the same one), and [`fault_chain`] builds
//!   the full failover chain for a parsed plan.
//! * [`run_batch`] streams a manifest of instances through one
//!   supervisor with per-instance isolation: a malformed line, an
//!   unreadable file, or even a panicking solve produces a per-instance
//!   error record and the batch continues. The summary is
//!   machine-readable (JSON lines), naming for every instance the
//!   engine that answered, the failover and retry counts, and the
//!   outcome. [`BatchSink`] mirrors the stream into crash-safe files:
//!   records fsync'd at every instance boundary, the summary trailer
//!   written with [`tt_core::durable::atomic_write`].

use crate::hyper::TtPe;
use crate::resilient::{
    solve_bvm_resilient, solve_ccc_resilient_resumable, ResilienceReport, DEFAULT_MAX_RETRIES,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;
use tt_core::cost::Cost;
use tt_core::instance::TtInstance;
use tt_core::io;
use tt_core::solver::checkpoint::{Checkpoint, LevelView};
use tt_core::solver::engine::{
    self, timed_report_with, EngineKind, SolveOutcome, SolveReport, Solver, WorkStats,
};
use tt_core::solver::supervise::{self, SuperviseOptions, SuperviseReport};
use tt_core::solver::Budget;

// ---------------------------------------------------------------------
// Fault-spec parsing (shared by ttsolve --faults and batch manifests).
// ---------------------------------------------------------------------

/// Which resilient driver a fault spec targets.
#[derive(Debug)]
pub enum FaultTarget {
    /// A CCC fault plan (dead PEs, dropped or corrupting links).
    Ccc(hypercube::CccFaultPlan<TtPe>),
    /// A BVM fault plan (dead columns, stuck links, bit flips).
    Bvm(bvm::BvmFaultPlan),
}

/// A rejected `--faults` spec. Every malformed input maps to a variant
/// — the parser never panics, and callers can match instead of
/// scraping message text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultSpecError {
    /// The spec had no faults in it.
    Empty,
    /// A fault named a machine/kind pair outside the grammar.
    UnknownFault {
        /// The offending comma-separated part, verbatim.
        part: String,
    },
    /// One spec mixed `ccc:` and `bvm:` targets.
    MixedTargets {
        /// The machine the spec started with.
        first: String,
        /// The conflicting machine that appeared later.
        second: String,
    },
    /// A field that should be `<a><sep><b>` did not split.
    MalformedPair {
        /// The field, verbatim.
        field: String,
        /// The separator that was expected.
        sep: char,
    },
    /// A numeric field failed to parse.
    BadNumber {
        /// The field, verbatim.
        field: String,
    },
    /// A `bvm:stuck` value other than 0 or 1.
    BadStuckValue {
        /// The parsed value.
        value: u64,
    },
}

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSpecError::Empty => write!(f, "empty fault spec"),
            FaultSpecError::UnknownFault { part } => write!(f, "unknown fault '{part}'"),
            FaultSpecError::MixedTargets { first, second } => {
                write!(f, "mixed fault targets '{first}' and '{second}'")
            }
            FaultSpecError::MalformedPair { field, sep } => {
                write!(f, "expected <a>{sep}<b> in '{field}'")
            }
            FaultSpecError::BadNumber { field } => write!(f, "bad number '{field}'"),
            FaultSpecError::BadStuckValue { value } => {
                write!(f, "stuck value must be 0 or 1, got {value}")
            }
        }
    }
}

impl std::error::Error for FaultSpecError {}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, FaultSpecError> {
    s.parse().map_err(|_| FaultSpecError::BadNumber {
        field: s.to_string(),
    })
}

fn parse_pair(s: &str, sep: char) -> Result<(usize, u64), FaultSpecError> {
    let (a, b) = s
        .split_once(sep)
        .ok_or_else(|| FaultSpecError::MalformedPair {
            field: s.to_string(),
            sep,
        })?;
    Ok((parse_num(a)?, parse_num(b)?))
}

/// Parses a comma-separated fault spec, all faults targeting one
/// machine:
///
/// ```text
///   ccc:dead:<addr>         dead PE (quarantined via a replica block)
///   ccc:drop:<dim>@<nth>    the nth exchange on dim is lost in flight
///   ccc:corrupt:<dim>@<nth> ... corrupts the receiving PE instead
///   bvm:dead:<pe>           dead column (escalates)
///   bvm:stuck:<pe>=<0|1>    neighbour fetch stuck at a constant bit
///   bvm:flip:<pe>@<nth>     the nth fetch glitches one bit once
/// ```
pub fn parse_fault_spec(spec: &str) -> Result<FaultTarget, FaultSpecError> {
    if spec.trim().is_empty() {
        return Err(FaultSpecError::Empty);
    }
    let mut ccc = hypercube::CccFaultPlan::<TtPe>::none();
    let mut bvm_plan = bvm::BvmFaultPlan::none();
    let mut machine: Option<&str> = None;
    for part in spec.split(',') {
        let mut fields = part.splitn(3, ':');
        let (m, kind, rest) = (
            fields.next().unwrap_or(""),
            fields.next().unwrap_or(""),
            fields.next().unwrap_or(""),
        );
        if let Some(prev) = machine {
            if prev != m {
                return Err(FaultSpecError::MixedTargets {
                    first: prev.to_string(),
                    second: m.to_string(),
                });
            }
        }
        machine = Some(m);
        match (m, kind) {
            ("ccc", "dead") => ccc.dead.push(parse_num(rest)?),
            ("ccc", "drop") => {
                let (dim, nth) = parse_pair(rest, '@')?;
                ccc.links.push(hypercube::PairFault {
                    dim,
                    nth,
                    kind: hypercube::PairFaultKind::Drop,
                });
            }
            ("ccc", "corrupt") => {
                let (dim, nth) = parse_pair(rest, '@')?;
                ccc.links.push(hypercube::PairFault {
                    dim,
                    nth,
                    kind: hypercube::PairFaultKind::Corrupt(Arc::new(|pe: &mut TtPe| {
                        pe.tp = Cost(pe.tp.0 ^ 1);
                    })),
                });
            }
            ("bvm", "dead") => bvm_plan.faults.push(bvm::BvmFault::DeadPe {
                pe: parse_num(rest)?,
            }),
            ("bvm", "stuck") => {
                let (pe, value) = parse_pair(rest, '=')?;
                if value > 1 {
                    return Err(FaultSpecError::BadStuckValue { value });
                }
                bvm_plan.faults.push(bvm::BvmFault::StuckLink {
                    pe,
                    value: value == 1,
                });
            }
            ("bvm", "flip") => {
                let (pe, nth) = parse_pair(rest, '@')?;
                bvm_plan.faults.push(bvm::BvmFault::FlipBit { nth, pe });
            }
            _ => {
                return Err(FaultSpecError::UnknownFault {
                    part: part.to_string(),
                })
            }
        }
    }
    match machine {
        Some("ccc") => Ok(FaultTarget::Ccc(ccc)),
        Some("bvm") => Ok(FaultTarget::Bvm(bvm_plan)),
        _ => Err(FaultSpecError::Empty),
    }
}

// ---------------------------------------------------------------------
// Fault-armed engines.
// ---------------------------------------------------------------------

/// The CCC machine with a fault plan armed, solving through the
/// resilient driver (detection, bounded retry, quarantine). Escalations
/// surface as degraded `FaultEscalation` reports; committed levels are
/// exported as checkpoints, so a supervision chain resumes the fallback
/// engine from the last level that passed the redundancy check.
pub struct FaultyCccEngine {
    /// The armed fault plan (cloned into each solve).
    pub plan: hypercube::CccFaultPlan<TtPe>,
    /// Redundant-execution retry budget per level.
    pub max_retries: usize,
}

impl FaultyCccEngine {
    /// Wraps a plan with the default retry budget.
    pub fn new(plan: hypercube::CccFaultPlan<TtPe>) -> Self {
        FaultyCccEngine {
            plan,
            max_retries: DEFAULT_MAX_RETRIES,
        }
    }
}

fn resilience_extras(work: &mut WorkStats, rep: &ResilienceReport) {
    work.push_extra("glitches_detected", rep.glitches_detected);
    work.push_extra("fault_retries", rep.retries);
    work.push_extra("dead_pes", rep.dead_pes.len() as u64);
    work.push_extra("replica_used", rep.replica_used as u64);
    tt_obs::telemetry::add_counter("glitches_detected", rep.glitches_detected);
    tt_obs::telemetry::add_counter("exchange_retries", rep.retries);
    tt_obs::metrics::counter("tt_exchange_retries_total").add(rep.retries);
}

impl Solver for FaultyCccEngine {
    fn name(&self) -> &'static str {
        "ccc"
    }
    fn kind(&self) -> EngineKind {
        EngineKind::Machine
    }
    fn description(&self) -> &'static str {
        "CCC simulation with an armed fault plan, via the resilient driver"
    }
    fn max_k(&self) -> usize {
        8
    }
    fn solve_with(&self, inst: &TtInstance, budget: &Budget) -> SolveReport {
        self.solve_resumable(inst, budget, &mut None, &mut |_| {})
    }
    fn resumable(&self) -> bool {
        true
    }
    fn solve_resumable(
        &self,
        inst: &TtInstance,
        budget: &Budget,
        wave: &mut Option<Checkpoint>,
        sink: &mut dyn FnMut(&LevelView<'_>),
    ) -> SolveReport {
        timed_report_with(|| {
            if !budget.is_unlimited() && inst.k() > self.max_k() {
                return engine::capacity_result(inst, WorkStats::default());
            }
            let (fingerprint, prepared) = crate::engines::machine_wave(inst, wave, true);
            let warm = prepared
                .as_ref()
                .map(|ck| (ck.level, ck.cost.as_slice(), ck.best.as_slice()));
            let result = solve_ccc_resilient_resumable(
                inst,
                self.plan.clone(),
                self.max_retries,
                warm,
                &mut |level, c, b| {
                    crate::engines::absorb_and_emit(
                        inst,
                        wave,
                        fingerprint,
                        level,
                        c,
                        Some(b),
                        sink,
                    );
                },
            );
            match result {
                Ok((sol, rep)) => {
                    let resumed = prepared.as_ref().map(|ck| ck.level);
                    let mut work = WorkStats {
                        subsets: crate::engines::recomputed_subsets(inst.k(), resumed, inst.k()),
                        machine_steps: sol.steps.total_comm() + sol.steps.local,
                        ..WorkStats::default()
                    };
                    resilience_extras(&mut work, &rep);
                    if let Some(ck) = &prepared {
                        work.push_extra("resumed_level", ck.level as u64);
                    }
                    let tree = sol.tree(inst);
                    (sol.cost, tree, work, SolveOutcome::Complete)
                }
                Err(esc) => {
                    let r = esc.report(inst);
                    let (cost, tree, mut work, outcome) = (r.cost, r.tree, r.work, r.outcome);
                    if let Some(ck) = &prepared {
                        work.push_extra("resumed_level", ck.level as u64);
                    }
                    (cost, tree, work, outcome)
                }
            }
        })
    }
}

/// The BVM with a fault plan armed, via its resilient driver. The BVM
/// is bit-serial — no level slab to checkpoint — so this engine is not
/// resumable; it is still a legal chain member (cold restarts only).
pub struct FaultyBvmEngine {
    /// The armed fault plan (cloned into each solve).
    pub plan: bvm::BvmFaultPlan,
    /// Whole-run redundancy retry budget.
    pub max_retries: usize,
}

impl FaultyBvmEngine {
    /// Wraps a plan with the default retry budget.
    pub fn new(plan: bvm::BvmFaultPlan) -> Self {
        FaultyBvmEngine {
            plan,
            max_retries: DEFAULT_MAX_RETRIES,
        }
    }
}

impl Solver for FaultyBvmEngine {
    fn name(&self) -> &'static str {
        "bvm"
    }
    fn kind(&self) -> EngineKind {
        EngineKind::Machine
    }
    fn description(&self) -> &'static str {
        "BVM simulation with an armed fault plan, via the resilient driver"
    }
    fn max_k(&self) -> usize {
        5
    }
    fn solve_with(&self, inst: &TtInstance, budget: &Budget) -> SolveReport {
        timed_report_with(|| {
            if !budget.is_unlimited() && inst.k() > self.max_k() {
                return engine::capacity_result(inst, WorkStats::default());
            }
            match solve_bvm_resilient(inst, self.plan.clone(), self.max_retries) {
                Ok((sol, rep)) => {
                    let mut work = WorkStats {
                        subsets: crate::engines::recomputed_subsets(inst.k(), None, inst.k()),
                        machine_steps: sol.instructions,
                        ..WorkStats::default()
                    };
                    resilience_extras(&mut work, &rep);
                    let tree = tt_core::solver::sequential::extract_tree_costs(
                        inst,
                        &sol.c_table,
                        inst.universe(),
                    );
                    (sol.cost, tree, work, SolveOutcome::Complete)
                }
                Err(esc) => {
                    let r = esc.report(inst);
                    (r.cost, r.tree, r.work, r.outcome)
                }
            }
        })
    }
}

/// Builds the failover chain for a fault-armed solve: the faulty
/// machine engine first, then the plain software tail of the
/// shape-selected chain (never another machine — the fault plan says
/// the machines are suspect).
pub fn fault_chain(inst: &TtInstance, target: FaultTarget) -> Vec<Box<dyn Solver>> {
    crate::register_engines();
    let mut chain: Vec<Box<dyn Solver>> = Vec::new();
    match target {
        FaultTarget::Ccc(plan) => chain.push(Box::new(FaultyCccEngine::new(plan))),
        FaultTarget::Bvm(plan) => chain.push(Box::new(FaultyBvmEngine::new(plan))),
    }
    for e in supervise::chain_for_shape(inst.k()) {
        if e.kind() != EngineKind::Machine {
            chain.push(e);
        }
    }
    chain
}

/// The default supervision chain with this crate's engines registered
/// (the plain [`tt_core::solver::fallback_chain`] only sees engines the
/// caller registered first).
pub fn default_chain(inst: &TtInstance) -> Vec<Box<dyn Solver>> {
    crate::register_engines();
    supervise::fallback_chain(inst)
}

/// A chain headed by the named engine, backed by the software tail of
/// the shape-selected chain (so pinning a machine engine still leaves a
/// failover path).
pub fn named_chain(inst: &TtInstance, name: &str) -> Result<Vec<Box<dyn Solver>>, String> {
    crate::register_engines();
    let mut chain = supervise::chain_from_names(&[name])
        .map_err(|unknown| format!("unknown solver '{unknown}'"))?;
    for e in supervise::chain_for_shape(inst.k()) {
        if e.kind() != EngineKind::Machine && e.name() != chain[0].name() {
            chain.push(e);
        }
    }
    Ok(chain)
}

// ---------------------------------------------------------------------
// Batch solving.
// ---------------------------------------------------------------------

/// A rejected manifest line. As with [`FaultSpecError`], every
/// malformed input maps to a variant — typed, matchable, never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ManifestError {
    /// The line had no source field.
    EmptyLine,
    /// A word after the source was not `key=value`.
    NotKeyValue {
        /// The word, verbatim.
        word: String,
    },
    /// A `key=` outside the manifest grammar.
    UnknownKey {
        /// The unrecognized key.
        key: String,
    },
    /// A value that failed to parse for its key.
    BadValue {
        /// The key whose value was rejected.
        key: &'static str,
        /// The value, verbatim.
        value: String,
    },
    /// An `id=` already used by an earlier line of the same batch
    /// (detected by [`run_batch`], not by line-level parsing).
    DuplicateId {
        /// The repeated id.
        id: String,
    },
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::EmptyLine => write!(f, "empty manifest line"),
            ManifestError::NotKeyValue { word } => write!(f, "expected key=value, got '{word}'"),
            ManifestError::UnknownKey { key } => write!(f, "unknown key '{key}'"),
            ManifestError::BadValue { key, value } => write!(f, "bad {key} '{value}'"),
            ManifestError::DuplicateId { id } => write!(f, "duplicate instance id '{id}'"),
        }
    }
}

impl std::error::Error for ManifestError {}

/// One parsed manifest line: where the instance comes from and the
/// per-instance solve options.
#[derive(Debug)]
pub struct BatchItem {
    /// The instance source: a `.tt` file path or `demo:<domain>:<k>:<seed>`.
    pub source: String,
    /// Caller-chosen instance id (`id=`): labels the record instead of
    /// the source, and must be unique within a batch.
    pub id: Option<String>,
    /// Pin the chain head to this engine (plus the software tail).
    pub solver: Option<String>,
    /// Per-instance wall-clock budget.
    pub timeout_ms: Option<u64>,
    /// Per-instance candidate-evaluation budget.
    pub max_candidates: Option<u64>,
    /// Fault spec to arm (see [`parse_fault_spec`]).
    pub faults: Option<String>,
}

impl BatchItem {
    /// Parses one manifest line: `<source> [key=value ...]` with keys
    /// `id=`, `solver=`, `timeout_ms=`, `max_candidates=`, `faults=`.
    pub fn parse(line: &str) -> Result<BatchItem, ManifestError> {
        let mut words = line.split_whitespace();
        let source = words.next().ok_or(ManifestError::EmptyLine)?;
        let mut item = BatchItem {
            source: source.to_string(),
            id: None,
            solver: None,
            timeout_ms: None,
            max_candidates: None,
            faults: None,
        };
        for w in words {
            let (key, value) = w
                .split_once('=')
                .ok_or_else(|| ManifestError::NotKeyValue {
                    word: w.to_string(),
                })?;
            let bad = |key: &'static str| ManifestError::BadValue {
                key,
                value: value.to_string(),
            };
            match key {
                "id" => item.id = Some(value.to_string()),
                "solver" => item.solver = Some(value.to_string()),
                "timeout_ms" => {
                    item.timeout_ms = Some(value.parse().map_err(|_| bad("timeout_ms"))?)
                }
                "max_candidates" => {
                    item.max_candidates = Some(value.parse().map_err(|_| bad("max_candidates"))?)
                }
                "faults" => item.faults = Some(value.to_string()),
                _ => {
                    return Err(ManifestError::UnknownKey {
                        key: key.to_string(),
                    })
                }
            }
        }
        Ok(item)
    }

    /// The record label: the caller-chosen `id=` when present, the
    /// source otherwise.
    pub fn label(&self) -> String {
        self.id.clone().unwrap_or_else(|| self.source.clone())
    }

    fn budget(&self) -> Budget {
        Budget {
            deadline: self.timeout_ms.map(Duration::from_millis),
            max_candidates: self.max_candidates,
            ..Budget::default()
        }
    }

    /// Loads the instance: `demo:<domain>:<k>:<seed>` generates from the
    /// workload catalog, anything else is read as a `.tt` file.
    pub fn load(&self) -> Result<TtInstance, String> {
        if let Some(rest) = self.source.strip_prefix("demo:") {
            let mut f = rest.split(':');
            let domain = f.next().unwrap_or("");
            let d = tt_workloads::catalog::Domain::parse(domain)
                .ok_or_else(|| format!("unknown domain '{domain}'"))?;
            let k: usize = f
                .next()
                .unwrap_or("8")
                .parse()
                .map_err(|_| format!("bad k in '{}'", self.source))?;
            let seed: u64 = f
                .next()
                .unwrap_or("0")
                .parse()
                .map_err(|_| format!("bad seed in '{}'", self.source))?;
            if f.next().is_some() {
                return Err(format!("trailing fields in '{}'", self.source));
            }
            if k > tt_core::MAX_K {
                return Err(format!("k = {k} exceeds MAX_K"));
            }
            Ok(d.generate(k, seed))
        } else {
            let text = std::fs::read_to_string(&self.source)
                .map_err(|e| format!("cannot read {}: {e}", self.source))?;
            io::from_text(&text).map_err(|e| format!("cannot parse {}: {e}", self.source))
        }
    }

    /// Builds this item's supervision chain.
    pub fn chain(&self, inst: &TtInstance) -> Result<Vec<Box<dyn Solver>>, String> {
        crate::register_engines();
        if let Some(spec) = &self.faults {
            let target = parse_fault_spec(spec).map_err(|e| e.to_string())?;
            let name = match &target {
                FaultTarget::Ccc(_) => "ccc",
                FaultTarget::Bvm(_) => "bvm",
            };
            if let Some(s) = &self.solver {
                if s != name {
                    return Err(format!("faults target {name} but solver={s}"));
                }
            }
            return Ok(fault_chain(inst, target));
        }
        match &self.solver {
            None => Ok(supervise::fallback_chain(inst)),
            Some(name) => named_chain(inst, name),
        }
    }
}

/// Terminal state of one batch instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchStatus {
    /// Exact optimum produced.
    Ok,
    /// Honest partial answer (budget, capacity, or faults): the record
    /// carries the bound sandwich.
    Degraded,
    /// The instance never produced an answer (malformed line, unreadable
    /// file, invalid instance, or a panic that escaped the supervisor).
    Error,
}

impl std::fmt::Display for BatchStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BatchStatus::Ok => "ok",
            BatchStatus::Degraded => "degraded",
            BatchStatus::Error => "error",
        })
    }
}

/// The per-instance line of the batch summary.
#[derive(Clone, Debug)]
pub struct BatchRecord {
    /// The manifest source field (or the raw line when unparseable).
    pub label: String,
    /// Terminal state.
    pub status: BatchStatus,
    /// The engine that produced the answer (empty on `Error`).
    pub engine: String,
    /// The answer's cost (`None` on `Error`).
    pub cost: Option<Cost>,
    /// Bound sandwich for degraded answers.
    pub bounds: Option<(Cost, Cost)>,
    /// Engines failed over past.
    pub failovers: u32,
    /// Same-engine retries performed.
    pub retries: u32,
    /// Wall-clock time of the whole item (load + chain construction +
    /// supervised solve), so JSONL consumers (e.g. latency accounting
    /// over a batch) need no external timing.
    pub wall: Duration,
    /// Human detail: degrade reason or error message.
    pub detail: String,
}

impl BatchRecord {
    /// One JSON object (a JSON-lines record) for machine consumption.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("{");
        push_json_str(&mut s, "source", &self.label);
        s.push(',');
        push_json_str(&mut s, "status", &self.status.to_string());
        s.push(',');
        push_json_str(&mut s, "engine", &self.engine);
        s.push(',');
        match self.cost {
            Some(c) if !c.is_inf() => {
                let _ = write!(s, "\"cost\":{}", c.0);
            }
            Some(_) => s.push_str("\"cost\":\"inf\""),
            None => s.push_str("\"cost\":null"),
        }
        s.push(',');
        match self.bounds {
            Some((lo, hi)) => {
                let _ = write!(s, "\"lower\":{},\"upper\":{}", json_cost(lo), json_cost(hi));
            }
            None => s.push_str("\"lower\":null,\"upper\":null"),
        }
        let _ = write!(
            s,
            ",\"failovers\":{},\"retries\":{},\"wall_us\":{},",
            self.failovers,
            self.retries,
            self.wall.as_micros()
        );
        push_json_str(&mut s, "detail", &self.detail);
        s.push('}');
        s
    }
}

fn json_cost(c: Cost) -> String {
    if c.is_inf() {
        "\"inf\"".to_string()
    } else {
        c.0.to_string()
    }
}

fn push_json_str(out: &mut String, key: &str, value: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":\"");
    for ch in value.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Whole-batch accounting.
#[derive(Clone, Debug, Default)]
pub struct BatchSummary {
    /// Per-instance records, in manifest order.
    pub records: Vec<BatchRecord>,
}

impl BatchSummary {
    /// Instances that produced the exact optimum.
    pub fn ok(&self) -> usize {
        self.count(BatchStatus::Ok)
    }
    /// Instances that produced an honest partial answer.
    pub fn degraded(&self) -> usize {
        self.count(BatchStatus::Degraded)
    }
    /// Instances that produced no answer.
    pub fn errors(&self) -> usize {
        self.count(BatchStatus::Error)
    }
    fn count(&self, st: BatchStatus) -> usize {
        self.records.iter().filter(|r| r.status == st).count()
    }
    /// `true` when every instance produced the exact optimum.
    pub fn all_ok(&self) -> bool {
        self.ok() == self.records.len()
    }
    /// The JSON summary trailer (totals only; records stream as JSON
    /// lines before it).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"total\":{},\"ok\":{},\"degraded\":{},\"errors\":{}}}",
            self.records.len(),
            self.ok(),
            self.degraded(),
            self.errors()
        )
    }
}

/// Solves one loaded instance under supervision, fully isolated: a
/// panic that somehow escapes the supervisor (e.g. in chain
/// construction or tree pricing) is caught here and becomes an `Error`
/// record rather than killing the batch.
pub fn run_item(item: &BatchItem) -> BatchRecord {
    let label = item.label();
    let start = std::time::Instant::now();
    let caught = catch_unwind(AssertUnwindSafe(|| -> Result<BatchRecord, String> {
        let inst = item.load()?;
        let chain = item.chain(&inst)?;
        let sup = supervise::supervise(&inst, &chain, &item.budget(), &SuperviseOptions::default());
        Ok(record_from(&label, &sup))
    }));
    let mut rec = match caught {
        Ok(Ok(rec)) => rec,
        Ok(Err(msg)) => error_record(label, msg),
        Err(payload) => error_record(label, format!("panic: {}", panic_message(&payload))),
    };
    rec.wall = start.elapsed();
    rec
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn error_record(label: String, detail: String) -> BatchRecord {
    BatchRecord {
        label,
        status: BatchStatus::Error,
        engine: String::new(),
        cost: None,
        bounds: None,
        failovers: 0,
        retries: 0,
        wall: Duration::ZERO,
        detail,
    }
}

fn record_from(label: &str, sup: &SuperviseReport) -> BatchRecord {
    let (status, bounds, detail) = match sup.report.outcome {
        SolveOutcome::Complete => (BatchStatus::Ok, None, String::new()),
        SolveOutcome::Degraded {
            upper_bound,
            lower_bound,
            reason,
        } => (
            BatchStatus::Degraded,
            Some((lower_bound, upper_bound)),
            reason.to_string(),
        ),
    };
    BatchRecord {
        label: label.to_string(),
        status,
        engine: sup.engine.clone(),
        cost: Some(sup.report.cost),
        bounds,
        failovers: sup.failovers,
        retries: sup.retries,
        wall: Duration::ZERO,
        detail,
    }
}

/// Streams a manifest through the supervisor. Lines are trimmed; empty
/// lines and `#` comments are skipped. Every remaining line yields
/// exactly one record — malformed lines become `Error` records, never
/// aborts. `emit` sees each record as it completes (the CLI prints JSON
/// lines from it).
pub fn run_batch(manifest: &str, emit: &mut dyn FnMut(&BatchRecord)) -> BatchSummary {
    let mut summary = BatchSummary::default();
    let mut seen_ids = std::collections::HashSet::new();
    for line in manifest.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let record = match BatchItem::parse(line) {
            Ok(item) => match &item.id {
                Some(id) if !seen_ids.insert(id.clone()) => error_record(
                    item.label(),
                    ManifestError::DuplicateId { id: id.clone() }.to_string(),
                ),
                _ => run_item(&item),
            },
            Err(e) => error_record(line.to_string(), e.to_string()),
        };
        emit(&record);
        summary.records.push(record);
    }
    summary
}

// ---------------------------------------------------------------------
// Crash-safe batch sinks.
// ---------------------------------------------------------------------

/// Crash-safe file sinks for a batch run.
///
/// Stdout is fine for a pipeline, but a batch that feeds downstream
/// tooling from files has to survive a kill mid-run: the records file
/// is fsync'd at every instance boundary, so a crash loses at most the
/// record being written — every earlier record is durable and untorn —
/// and the summary trailer is written with
/// [`tt_core::durable::atomic_write`], so readers either see a complete
/// summary or none, never a torn one.
pub struct BatchSink {
    records: Option<(std::fs::File, std::path::PathBuf)>,
    summary: Option<std::path::PathBuf>,
}

impl BatchSink {
    /// Opens the sinks. `None` for either path disables that sink; the
    /// records file is truncated (a sink names one run, not a log).
    pub fn open(
        records: Option<&std::path::Path>,
        summary: Option<&std::path::Path>,
    ) -> std::io::Result<BatchSink> {
        let records = match records {
            Some(p) => Some((std::fs::File::create(p)?, p.to_path_buf())),
            None => None,
        };
        Ok(BatchSink {
            records,
            summary: summary.map(|p| p.to_path_buf()),
        })
    }

    /// Appends one record line and fsyncs: once this returns, the
    /// record survives a crash of the batch process.
    pub fn record(&mut self, rec: &BatchRecord) -> std::io::Result<()> {
        if let Some((f, _)) = &mut self.records {
            use std::io::Write as _;
            let mut line = rec.to_json();
            line.push('\n');
            f.write_all(line.as_bytes())?;
            f.sync_data()?;
        }
        Ok(())
    }

    /// Seals the run: a final fsync on the records file, then the
    /// summary via [`tt_core::durable::atomic_write`].
    pub fn finish(self, summary: &BatchSummary) -> std::io::Result<()> {
        if let Some((f, _)) = &self.records {
            f.sync_all()?;
        }
        if let Some(path) = &self.summary {
            let trailer = format!("{}\n", summary.to_json());
            tt_core::durable::atomic_write(path, trailer.as_bytes())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_core::instance::TtInstanceBuilder;
    use tt_core::solver::sequential;
    use tt_core::subset::Subset;

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

    #[test]
    fn faulty_ccc_solves_clean_plans_exactly() {
        let i = inst();
        let e = FaultyCccEngine::new(hypercube::CccFaultPlan::none());
        let r = e.solve(&i);
        assert_eq!(r.cost, sequential::solve(&i).cost);
        assert!(r.outcome.is_complete());
    }

    #[test]
    fn persistent_ccc_faults_fail_over_to_an_exact_software_answer() {
        // Every solve attempt re-arms the fault plan's counters, so a
        // corrupting link at nth 0 glitches the first redundant run of
        // every attempt; with a zero retry budget the resilient driver
        // escalates each time — a persistent barrage from the
        // supervisor's point of view. It must fail over, and the
        // software tail must still return the exact optimum.
        let i = inst();
        let seq = sequential::solve(&i);
        let plan = match parse_fault_spec("ccc:corrupt:4@0") {
            Ok(FaultTarget::Ccc(p)) => p,
            _ => unreachable!(),
        };
        let mut chain = fault_chain(&i, FaultTarget::Ccc(plan.clone()));
        chain[0] = Box::new(FaultyCccEngine {
            plan,
            max_retries: 0,
        });
        assert_eq!(chain[0].name(), "ccc");
        assert!(chain.len() >= 2, "no software tail");
        let sup = supervise::supervise(
            &i,
            &chain,
            &Budget::unlimited(),
            &SuperviseOptions::default(),
        );
        assert!(sup.report.outcome.is_complete());
        assert_eq!(sup.report.cost, seq.cost);
        assert_ne!(sup.engine, "ccc");
        assert!(sup.failovers >= 1);
        assert!(
            sup.failures.iter().any(|f| f.engine == "ccc"),
            "no recorded ccc failure: {:?}",
            sup.failures
        );
    }

    #[test]
    fn escalation_at_every_level_hands_off_warm_and_stays_exact() {
        // The kill-and-failover matrix: for every level L, seed the
        // supervisor with a checkpoint of levels 1..L-1 and arm a
        // corrupting link on the very first dim-4 exchange with a zero
        // engine-level retry budget. Each solve attempt re-arms the
        // fault counters, so the first level the machine runs — exactly
        // L — glitches its first redundant run and escalates, every
        // attempt. The supervisor must fail over to software warm from
        // level L-1, and the final answer must equal the sequential DP.
        let i = inst();
        let seq = sequential::solve(&i);
        for level in 1..=i.k() {
            let mut plan = hypercube::CccFaultPlan::<TtPe>::none();
            plan.links.push(hypercube::PairFault {
                dim: 4,
                nth: 0,
                kind: hypercube::PairFaultKind::Corrupt(Arc::new(|pe: &mut TtPe| {
                    pe.tp = Cost(pe.tp.0 ^ 1);
                })),
            });
            let mut chain = fault_chain(&i, FaultTarget::Ccc(plan.clone()));
            chain[0] = Box::new(FaultyCccEngine {
                plan,
                max_retries: 0,
            });
            let resume = (level > 1).then(|| {
                LevelView::dense(&i, level - 1, &seq.tables.cost, &seq.tables.best).to_checkpoint()
            });
            let opts = SuperviseOptions {
                resume,
                ..SuperviseOptions::default()
            };
            let sup = supervise::supervise(&i, &chain, &Budget::unlimited(), &opts);
            assert!(sup.report.outcome.is_complete(), "level {level}");
            assert_eq!(sup.report.cost, seq.cost, "level {level}");
            assert_ne!(sup.engine, "ccc", "level {level}");
            assert!(sup.failovers >= 1, "level {level}");
            assert!(
                sup.failures.iter().all(|f| f.engine != sup.engine),
                "level {level}: the answering engine also failed"
            );
            // The fallback must pick up the wavefront, not recompute it.
            if level > 1 {
                assert_eq!(
                    sup.report.work.extra("resumed_level"),
                    Some(level as u64 - 1),
                    "level {level}"
                );
            }
        }
    }

    #[test]
    fn bvm_dead_pe_fails_over() {
        let i = TtInstanceBuilder::new(3)
            .weights([2, 1, 1])
            .test(Subset(0b011), 1)
            .test(Subset(0b101), 2)
            .treatment(Subset(0b011), 3)
            .treatment(Subset(0b110), 2)
            .build()
            .unwrap();
        let plan = bvm::BvmFaultPlan::single(bvm::BvmFault::DeadPe { pe: 3 });
        let chain = fault_chain(&i, FaultTarget::Bvm(plan));
        let sup = supervise::supervise(
            &i,
            &chain,
            &Budget::unlimited(),
            &SuperviseOptions::default(),
        );
        assert!(sup.report.outcome.is_complete());
        assert_eq!(sup.report.cost, sequential::solve(&i).cost);
        assert_ne!(sup.engine, "bvm");
    }

    #[test]
    fn manifest_lines_parse_with_options() {
        let item = BatchItem::parse("demo:medical:6:3 solver=rayon timeout_ms=500").unwrap();
        assert_eq!(item.source, "demo:medical:6:3");
        assert_eq!(item.solver.as_deref(), Some("rayon"));
        assert_eq!(item.timeout_ms, Some(500));
        assert!(BatchItem::parse("x.tt bogus").is_err());
        assert!(BatchItem::parse("x.tt depth=3").is_err());
    }

    #[test]
    fn batch_isolates_bad_instances_and_keeps_going() {
        let manifest = "\
            # mixed batch\n\
            demo:medical:5:1\n\
            demo:no-such-domain:5:1\n\
            /nonexistent/path.tt\n\
            demo:random:5:2 timeout_ms=0\n\
            demo:lab:5:3\n";
        let mut seen = 0;
        let summary = run_batch(manifest, &mut |_| seen += 1);
        assert_eq!(seen, 5);
        assert_eq!(summary.records.len(), 5);
        assert_eq!(summary.ok(), 2, "{:?}", summary.records);
        assert_eq!(summary.errors(), 2);
        assert_eq!(summary.degraded(), 1);
        assert!(!summary.all_ok());
        // The degraded record names a real engine and carries bounds.
        let degraded = &summary.records[3];
        assert_eq!(degraded.status, BatchStatus::Degraded);
        assert!(degraded.bounds.is_some());
        // Machine-readable lines round-trip the essentials.
        let json = degraded.to_json();
        assert!(json.contains("\"status\":\"degraded\""), "{json}");
        assert!(json.contains("\"source\":\"demo:random:5:2\""), "{json}");
        assert!(json.contains("\"wall_us\":"), "{json}");
        // Every record that actually ran carries its wall time.
        for rec in &summary.records {
            if rec.status != BatchStatus::Error {
                assert!(rec.wall > Duration::ZERO, "{} has no wall time", rec.label);
            }
        }
        let trailer = summary.to_json();
        assert_eq!(
            trailer,
            "{\"total\":5,\"ok\":2,\"degraded\":1,\"errors\":2}"
        );
    }

    #[test]
    fn batch_solver_pin_still_has_a_software_tail() {
        let item = BatchItem::parse("demo:random:4:7 solver=ccc").unwrap();
        let inst = item.load().unwrap();
        let chain = item.chain(&inst).unwrap();
        assert_eq!(chain[0].name(), "ccc");
        assert!(chain
            .iter()
            .skip(1)
            .all(|e| e.kind() != EngineKind::Machine));
        assert!(chain.len() >= 2);
    }

    #[test]
    fn manifest_grammar_errors_are_typed() {
        let err = |line: &str| BatchItem::parse(line).unwrap_err();
        assert_eq!(err("   "), ManifestError::EmptyLine);
        assert_eq!(
            err("x.tt bogus"),
            ManifestError::NotKeyValue {
                word: "bogus".into()
            }
        );
        assert_eq!(
            err("x.tt depth=3"),
            ManifestError::UnknownKey {
                key: "depth".into()
            }
        );
        assert_eq!(
            err("x.tt timeout_ms=soon"),
            ManifestError::BadValue {
                key: "timeout_ms",
                value: "soon".into()
            }
        );
        assert_eq!(
            err("x.tt max_candidates=-1"),
            ManifestError::BadValue {
                key: "max_candidates",
                value: "-1".into()
            }
        );
    }

    #[test]
    fn fault_spec_errors_are_typed() {
        assert_eq!(parse_fault_spec("").unwrap_err(), FaultSpecError::Empty);
        assert_eq!(
            parse_fault_spec("ccc:melt:1").unwrap_err(),
            FaultSpecError::UnknownFault {
                part: "ccc:melt:1".into()
            }
        );
        assert_eq!(
            parse_fault_spec("ccc:dead:x").unwrap_err(),
            FaultSpecError::BadNumber { field: "x".into() }
        );
        assert_eq!(
            parse_fault_spec("ccc:drop:4").unwrap_err(),
            FaultSpecError::MalformedPair {
                field: "4".into(),
                sep: '@'
            }
        );
        assert_eq!(
            parse_fault_spec("bvm:stuck:5=2").unwrap_err(),
            FaultSpecError::BadStuckValue { value: 2 }
        );
        assert_eq!(
            parse_fault_spec("ccc:dead:1,bvm:dead:2").unwrap_err(),
            FaultSpecError::MixedTargets {
                first: "ccc".into(),
                second: "bvm".into()
            }
        );
    }

    #[test]
    fn duplicate_manifest_ids_error_without_aborting_the_batch() {
        let manifest = "\
            demo:medical:4:1 id=a\n\
            demo:lab:4:2 id=a\n\
            demo:random:4:3 id=b\n";
        let summary = run_batch(manifest, &mut |_| {});
        assert_eq!(summary.records.len(), 3);
        assert_eq!(summary.errors(), 1);
        assert_eq!(summary.records[0].label, "a");
        assert_eq!(summary.records[1].status, BatchStatus::Error);
        assert!(
            summary.records[1].detail.contains("duplicate instance id"),
            "{}",
            summary.records[1].detail
        );
        assert_eq!(summary.records[2].label, "b");
        assert_eq!(summary.ok(), 2);
    }

    #[test]
    fn batch_sinks_write_every_record_and_an_atomic_summary() {
        let dir = std::env::temp_dir().join(format!("tt-batch-sink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let records_path = dir.join("records.jsonl");
        let summary_path = dir.join("summary.json");
        let mut sink = BatchSink::open(Some(&records_path), Some(&summary_path)).unwrap();
        let manifest = "\
            demo:random:4:1 solver=seq\n\
            demo:nosuch:4:1\n\
            demo:lab:4:2 solver=seq\n";
        let summary = run_batch(manifest, &mut |rec| sink.record(rec).unwrap());
        sink.finish(&summary).unwrap();

        // One durable line per record, byte-identical to the stream.
        let text = std::fs::read_to_string(&records_path).unwrap();
        assert_eq!(text.lines().count(), summary.records.len());
        for (line, rec) in text.lines().zip(&summary.records) {
            assert_eq!(line, rec.to_json());
        }
        // The summary landed whole, and no temp file survived the
        // rename.
        let trailer = std::fs::read_to_string(&summary_path).unwrap();
        assert_eq!(trailer.trim_end(), summary.to_json());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        // Disabled sinks are inert.
        let mut none = BatchSink::open(None, None).unwrap();
        none.record(&summary.records[0]).unwrap();
        none.finish(&summary).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_spec_grammar_round_trips() {
        assert!(matches!(
            parse_fault_spec("ccc:dead:3,ccc:drop:4@0"),
            Ok(FaultTarget::Ccc(_))
        ));
        assert!(matches!(
            parse_fault_spec("bvm:stuck:5=1"),
            Ok(FaultTarget::Bvm(_))
        ));
        assert!(parse_fault_spec("ccc:dead:3,bvm:dead:1").is_err());
        assert!(parse_fault_spec("").is_err());
        assert!(parse_fault_spec("ccc:melt:1").is_err());
    }
}
