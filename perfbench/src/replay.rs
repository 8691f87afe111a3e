//! The traced replay: the same generated requests, pushed through the
//! layers' public functions in the order `ttserve`'s request path calls
//! them, with a span around each call:
//!
//! `Request::decode` → `io::from_text` → `SolutionCache::lookup_report`
//! → `default_chain` + `supervise_with_sink` (with `Journal::append`
//! per checkpoint when keyed) → `insert_report` → `Response::encode`.
//!
//! How often the server itself calls each layer per request is internal
//! to the program; the replay calls each once per request, in order,
//! on one thread.

use crate::gen::{Kind, Req};
use crate::trace::Tracer;
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};
use tt_cache::SolutionCache;
use tt_core::io;
use tt_core::solver::{supervise, Budget, SuperviseOptions, SuperviseReport};
use tt_parallel::orchestrate;
use tt_serve::journal::{self, Journal, JournalEntry};
use tt_serve::proto::{Request, Response, SolveResult, Source};

/// The journal rotates past this many bytes, as `ttserve` does by default.
const ROTATE_BYTES: u64 = 1 << 20;

/// Request ids of replayed requests start here.
pub const REPLAY_IDS: u64 = 1 << 32;

/// What the replay saw beyond its spans.
#[derive(Default)]
pub struct Replayed {
    pub requests: usize,
    pub solves: usize,
    /// Total engine wall time per answering engine: (solves, ns).
    pub engine: HashMap<String, (u64, u64)>,
    /// Summed per-level DP time over all solves, ns, index = level.
    pub level_ns: Vec<u64>,
    pub checkpoint_bytes: (u64, u64),
    pub journal_bytes: u64,
    pub keyed_new: u64,
    pub hits: u64,
    /// Wall time of each replayed request, in order.
    pub request_ns: Vec<u64>,
    /// Requests answered without an exact cost (deadline cut).
    pub degraded: usize,
}

impl Replayed {
    pub fn add_solve(&mut self, sup: &SuperviseReport) {
        self.solves += 1;
        let e = self.engine.entry(sup.engine.clone()).or_default();
        e.0 += 1;
        e.1 += u64::try_from(sup.report.wall.as_nanos()).unwrap_or(u64::MAX);
        for l in &sup.report.telemetry.levels {
            let j = l.level as usize;
            if self.level_ns.len() <= j {
                self.level_ns.resize(j + 1, 0);
            }
            self.level_ns[j] += l.nanos;
        }
    }
}

/// Runs one supervised solve inside a `supervise` span and records the
/// answering engine's run as an `engine.<name>` child span; spans the
/// checkpoint sink records fall under the engine span.
pub fn traced_supervise(
    t: &mut Tracer,
    rid: u64,
    inst: &tt_core::instance::TtInstance,
    chain: &[Box<dyn tt_core::solver::Solver>],
    budget: &Budget,
    sink: &mut dyn FnMut(&mut Tracer, &tt_core::solver::Checkpoint),
) -> SuperviseReport {
    let mark = t.len();
    t.enter("supervise", rid);
    let sup = {
        let t = &mut *t;
        supervise::supervise_with_sink(
            inst,
            chain,
            budget,
            &SuperviseOptions::default(),
            &mut |ck| sink(t, ck),
        )
    };
    let end = Instant::now();
    t.exit();
    let wall = sup.report.wall;
    let wall_ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
    t.adopt(
        &format!("engine.{}", sup.engine),
        rid,
        end - wall,
        wall_ns,
        mark,
    );
    sup
}

/// The server-side state a workload runs with.
pub struct Layers {
    pub cache: Option<SolutionCache>,
    pub journal: Option<Journal>,
}

impl Layers {
    pub fn new(
        cache_capacity: Option<usize>,
        cache_dir: Option<&Path>,
        journal_dir: Option<&Path>,
    ) -> Result<Layers, String> {
        let cache = match (cache_capacity, cache_dir) {
            (Some(cap), Some(dir)) => {
                Some(SolutionCache::open(dir, cap).map_err(|e| e.to_string())?)
            }
            (Some(cap), None) => Some(SolutionCache::in_memory(cap)),
            _ => None,
        };
        let journal = match journal_dir {
            Some(dir) => Some(Journal::open(dir).map_err(|e| e.to_string())?.0),
            None => None,
        };
        Ok(Layers { cache, journal })
    }
}

fn append(
    t: &mut Tracer,
    rid: u64,
    j: &mut Journal,
    e: &JournalEntry,
    out: &mut Replayed,
) -> Result<(), String> {
    out.journal_bytes += journal::encode_entry(e).len() as u64;
    t.span("journal.append", rid, || j.append(e))
        .map_err(|e| e.to_string())
}

/// Replays `reqs` in order until `budget` has passed; checks every
/// answer against its reference.
pub fn replay(
    t: &mut Tracer,
    reqs: &[Req],
    layers: &mut Layers,
    budget: Duration,
    problems: &mut Vec<String>,
) -> Result<Replayed, String> {
    let mut out = Replayed::default();
    let mut done: HashMap<String, String> = HashMap::new();
    let started = Instant::now();
    for (i, req) in reqs.iter().enumerate() {
        if started.elapsed() > budget {
            break;
        }
        let begun = Instant::now();
        // Apart from the live client spans' request ids.
        let rid = REPLAY_IDS + i as u64;
        let payload = req.draft.request().encode();
        t.enter("request", rid);
        let Request::Solve(params) = t
            .span("proto.decode", rid, || Request::decode(&payload))
            .map_err(|e| e.to_string())?
        else {
            return Err("a generated request did not decode as a solve".to_string());
        };
        let Source::Instance(text) = &params.source else {
            return Err("a generated request carries no inline instance".to_string());
        };
        let inst = t
            .span("io.parse", rid, || io::from_text(text))
            .map_err(|e| e.to_string())?;
        let keyed = match (&mut layers.journal, &params.key) {
            (Some(j), Some(key)) => Some((j, key.clone())),
            _ => None,
        };
        let mut cost = None;
        let mut result_engine = String::new();
        if let Some((_, key)) = &keyed {
            if let Some(stored) = done.get(key) {
                let r = t.span("server.dedup", rid, || Response::decode(stored));
                if let Ok(Response::Solved(r)) = r {
                    cost = r.cost;
                    result_engine = r.engine;
                }
            }
        }
        if cost.is_none() && keyed.is_none() {
            if let Some(cache) = &mut layers.cache {
                let canonical = t.span("canon.canonicalize", rid, || tt_cache::canonicalize(&inst));
                if let Some(rep) = t.span("store.lookup", rid, || cache.lookup_report(&inst)) {
                    out.hits += 1;
                    let ctree = rep
                        .tree
                        .as_ref()
                        .and_then(|tr| canonical.map.canonicalize_tree(tr));
                    t.span("canon.decanonicalize", rid, || {
                        std::hint::black_box(
                            ctree
                                .as_ref()
                                .map(|tr| canonical.map.decanonicalize_tree(tr)),
                        );
                        std::hint::black_box(canonical.map.decanonicalize_cost(rep.cost));
                    });
                    cost = rep.cost.finite();
                    result_engine = "cache".to_string();
                }
            }
        }
        if result_engine.is_empty() {
            let chain = t.span("orchestrate.default_chain", rid, || {
                orchestrate::default_chain(&inst)
            });
            let budget = Budget {
                deadline: Some(Duration::from_millis(crate::gen::DEADLINE_MS)),
                ..Budget::default()
            };
            let sup = match keyed {
                Some((j, key)) => {
                    out.keyed_new += 1;
                    let admitted = JournalEntry::Admitted {
                        key: key.clone(),
                        request: payload.clone(),
                    };
                    append(t, rid, j, &admitted, &mut out)?;
                    append(
                        t,
                        rid,
                        j,
                        &JournalEntry::Started { key: key.clone() },
                        &mut out,
                    )?;
                    let mut failed = None;
                    let sup = {
                        let out = &mut out;
                        let j = &mut *j;
                        let key = &key;
                        traced_supervise(t, rid, &inst, &chain, &budget, &mut |t, ck| {
                            let text = t.span("checkpoint.to_text", rid, || ck.to_text());
                            out.checkpoint_bytes.0 += 1;
                            out.checkpoint_bytes.1 += text.len() as u64;
                            let e = JournalEntry::Checkpoint {
                                key: key.clone(),
                                text,
                            };
                            if let Err(e) = append(t, rid, j, &e, out) {
                                failed = Some(e);
                            }
                        })
                    };
                    if let Some(e) = failed {
                        return Err(e);
                    }
                    let response = Response::Solved(result_of(&params.id, &sup)).encode();
                    if let Response::Solved(r) =
                        Response::decode(&response).map_err(|e| e.to_string())?
                    {
                        let completed = JournalEntry::Completed {
                            key: key.clone(),
                            hash: journal::result_hash(&r),
                            response: response.clone(),
                        };
                        append(t, rid, j, &completed, &mut out)?;
                    }
                    done.insert(key.clone(), response);
                    if j.segment_bytes() > ROTATE_BYTES {
                        // As the server rotates: each done key's stored
                        // response is decoded and hashed into its record.
                        t.span("journal.rotate", rid, || {
                            let live: Vec<JournalEntry> = done
                                .iter()
                                .map(|(k, r)| JournalEntry::Completed {
                                    key: k.clone(),
                                    hash: match Response::decode(r) {
                                        Ok(Response::Solved(s)) => journal::result_hash(&s),
                                        _ => 0,
                                    },
                                    response: r.clone(),
                                })
                                .collect();
                            j.rotate(&live)
                        })
                        .map_err(|e| e.to_string())?;
                    }
                    sup
                }
                None => traced_supervise(t, rid, &inst, &chain, &budget, &mut |_, _| {}),
            };
            if let Some(cache) = &mut layers.cache {
                t.span("store.insert", rid, || {
                    cache.insert_report(&inst, &sup.report)
                });
            }
            out.add_solve(&sup);
            result_engine = sup.engine.clone();
            cost = sup
                .report
                .outcome
                .is_complete()
                .then_some(sup.report.cost.0);
        }
        let result = SolveResult {
            id: params.id.clone(),
            engine: result_engine,
            complete: cost.is_some(),
            cost,
            upper: None,
            lower: None,
            reason: None,
            recovered: false,
            cached: false,
            failovers: 0,
            retries: 0,
            wall_us: 0,
        };
        std::hint::black_box(t.span("proto.encode", rid, || Response::Solved(result).encode()));
        t.exit();
        out.requests += 1;
        out.request_ns
            .push(u64::try_from(begun.elapsed().as_nanos()).unwrap_or(u64::MAX));
        out.degraded += usize::from(cost.is_none());
        match cost {
            Some(c) if c != req.expect => problems.push(format!(
                "replay {}: cost {c}, reference {}",
                req.draft.id, req.expect
            )),
            // A deadline-cut solve is a degraded answer, not a wrong one.
            _ => {}
        }
        if req.draft.kind == Kind::Retry && keyed_missing(&done, &params.key) {
            problems.push(format!("replay {}: retry of an unknown key", req.draft.id));
        }
    }
    Ok(out)
}

fn keyed_missing(done: &HashMap<String, String>, key: &Option<String>) -> bool {
    key.as_ref().is_some_and(|k| !done.contains_key(k))
}

fn result_of(id: &Option<String>, sup: &SuperviseReport) -> SolveResult {
    SolveResult {
        id: id.clone(),
        engine: sup.engine.clone(),
        complete: sup.report.outcome.is_complete(),
        cost: sup.report.cost.finite(),
        upper: None,
        lower: None,
        reason: None,
        recovered: false,
        cached: false,
        failovers: u64::from(sup.failovers),
        retries: u64::from(sup.retries),
        wall_us: u64::try_from(sup.report.wall.as_micros()).unwrap_or(u64::MAX),
    }
}
