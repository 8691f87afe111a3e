//! Child processes, so each measured program gets a fresh VmHWM.
//!
//! * `child-engine <engine> <file>` solves one instance with one
//!   registry engine.
//! * `child-batch <manifest>` runs the manifest through
//!   `orchestrate::run_batch` and then through the engine
//!   `auto_select` picks for each instance.
//!
//! * `child-path <seed> <expect file> <dir>` replays serve-path's
//!   requests through the request-path layers with the cache on in
//!   `dir`, untraced, checking each answer against the reference costs
//!   the file lists one a line.
//!
//! Each timed answer of `child-batch` and `child-path` follows a run of
//! the calibration kernel ([`Calibrator`]) at its instance's size, and
//! its line carries the resulting `scale`; their peaks (`hwm_kb`) leave
//! the kernel's table out.
//!
//! Each prints `key=value` lines that [`parse_kv`] reads back.

use crate::calib::Calibrator;
use crate::cpu;
use crate::gen::{self, Req};
use crate::replay::{replay, Layers};
use crate::server::vm_hwm_kb;
use crate::trace::Tracer;
use std::path::Path;
use std::time::{Duration, Instant};
use tt_core::io;
use tt_core::solver::{auto_select, lookup};
use tt_parallel::orchestrate;

/// Reads `key=value` words from one line.
pub fn parse_kv(line: &str) -> std::collections::HashMap<&str, &str> {
    line.split_whitespace()
        .filter_map(|w| w.split_once('='))
        .collect()
}

fn self_hwm_kb() -> u64 {
    vm_hwm_kb("/proc/self/status").unwrap_or(0)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// `(path, id)` of every manifest line.
pub fn manifest_items(manifest: &str) -> Vec<(String, String)> {
    manifest
        .lines()
        .filter_map(|l| orchestrate::BatchItem::parse(l).ok())
        .map(|it| (it.source.clone(), it.label()))
        .collect()
}

pub fn main(args: &[String]) -> Result<(), String> {
    tt_parallel::register_engines();
    match args {
        [mode, engine, file] if mode == "child-engine" => {
            let inst = io::from_text(&read(file)?).map_err(|e| e.to_string())?;
            let e = lookup(engine).ok_or_else(|| format!("no engine {engine}"))?;
            let r = e.solve(&inst);
            println!(
                "cost={} complete={} wall_ns={} subsets={} hwm_kb={}",
                r.cost.0,
                r.outcome.is_complete(),
                r.wall.as_nanos(),
                r.work.subsets,
                self_hwm_kb()
            );
            Ok(())
        }
        [mode, manifest] if mode == "child-batch" => {
            let text = read(manifest)?;
            let items = manifest_items(&text);
            let mut ks = Vec::new();
            for (path, _) in &items {
                ks.push(io::from_text(&read(path)?).map_err(|e| e.to_string())?.k());
            }
            let mut calib = Calibrator::new(ks.iter().copied().max().unwrap_or(0));
            // Each record's CPU time runs from the end of the calibration
            // kernel before it to its emit: reading and parsing its
            // instance, building its chain and solving it. The kernel's
            // own wall time is kept out of `batch_ns`.
            let mut scales = vec![calib.scale(ks.first().copied().unwrap_or(0))];
            let mut cpu_ns = Vec::new();
            let mut kernel_wall = std::time::Duration::ZERO;
            let start = Instant::now();
            let mut last = cpu::process_ns();
            let summary = orchestrate::run_batch(&text, &mut |_| {
                cpu_ns.push(cpu::process_ns() - last);
                if let Some(&k) = ks.get(cpu_ns.len()) {
                    let t = Instant::now();
                    scales.push(calib.scale(k));
                    kernel_wall += t.elapsed();
                }
                last = cpu::process_ns();
            });
            let batch_ns = (start.elapsed() - kernel_wall).as_nanos();
            let hwm = self_hwm_kb().saturating_sub(calib.resident_kb);
            if summary.records.len() != ks.len() {
                return Err(format!(
                    "{} batch records for {} manifest items",
                    summary.records.len(),
                    ks.len()
                ));
            }
            for ((r, cpu_ns), scale) in summary.records.iter().zip(cpu_ns).zip(scales) {
                println!(
                    "rec label={} status={} engine={} cost={} wall_ns={} cpu_ns={cpu_ns} scale={scale} failovers={} retries={}",
                    r.label,
                    r.status,
                    r.engine,
                    r.cost.map_or(u64::MAX, |c| c.0),
                    r.wall.as_nanos(),
                    r.failovers,
                    r.retries
                );
            }
            let mut auto_ns = 0;
            for ((path, label), k) in items.into_iter().zip(ks) {
                let scale = calib.scale(k);
                let (t, c) = (Instant::now(), cpu::process_ns());
                let inst = io::from_text(&read(&path)?).map_err(|e| e.to_string())?;
                let pick = auto_select(&inst);
                let e = lookup(&pick.engine).ok_or("auto_select named an unknown engine")?;
                let r = e.solve(&inst);
                let (wall_ns, cpu_ns) = (t.elapsed().as_nanos(), cpu::process_ns() - c);
                auto_ns += wall_ns;
                println!(
                    "auto label={label} engine={} cost={} complete={} wall_ns={wall_ns} cpu_ns={cpu_ns} scale={scale}",
                    pick.engine,
                    r.cost.0,
                    r.outcome.is_complete(),
                );
            }
            println!("batch_ns={batch_ns} auto_ns={auto_ns} hwm_kb={hwm}");
            Ok(())
        }
        [mode, seed, expects, dir] if mode == "child-path" => {
            let seed: u64 = seed.parse().map_err(|_| format!("bad seed {seed}"))?;
            let drafts = gen::path_stream(seed);
            let expect = read(expects)?
                .lines()
                .map(|l| l.parse::<u64>().map_err(|_| format!("bad reference {l}")))
                .collect::<Result<Vec<u64>, String>>()?;
            if expect.len() != drafts.len() {
                return Err(format!(
                    "{} references for {} requests",
                    expect.len(),
                    drafts.len()
                ));
            }
            let reqs: Vec<Req> = drafts
                .into_iter()
                .zip(expect)
                .map(|(draft, expect)| Req { draft, expect })
                .collect();
            let mut calib = Calibrator::new(reqs.iter().map(|r| r.draft.k).max().unwrap_or(0));
            let mut layers = Layers::new(
                Some(gen::CACHED_CAPACITY),
                Some(&Path::new(dir).join("cache")),
                None,
            )?;
            let mut problems = Vec::new();
            let (mut requests, mut degraded, mut hits) = (0, 0, 0);
            // One request at a time, each after a run of the calibration
            // kernel at its size.
            for (i, req) in reqs.iter().enumerate() {
                let scale = calib.scale(req.draft.k);
                let (t, c) = (Instant::now(), cpu::process_ns());
                let seen = replay(
                    &mut Tracer::off(),
                    std::slice::from_ref(req),
                    &mut layers,
                    Duration::MAX,
                    &mut problems,
                )?;
                println!(
                    "req i={i} ns={} cpu_ns={} scale={scale}",
                    t.elapsed().as_nanos(),
                    cpu::process_ns() - c
                );
                requests += seen.requests;
                degraded += seen.degraded;
                hits += seen.hits;
            }
            drop(layers);
            for p in problems {
                println!("problem {p}");
            }
            println!(
                "pass hwm_kb={} requests={requests} degraded={degraded} hits={hits}",
                self_hwm_kb().saturating_sub(calib.resident_kb),
            );
            Ok(())
        }
        _ => Err(format!("bad child arguments {args:?}")),
    }
}
