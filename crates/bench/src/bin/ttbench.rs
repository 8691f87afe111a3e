//! `ttbench` — the pinned perf-regression harness.
//!
//! ```sh
//! cargo run --release -p tt-bench --bin ttbench -- [--quick] [--samples <n>]
//!     [--out <file>] [--baseline <file>] [--threshold <pct>] [--self-test]
//! ```
//!
//! Runs a pinned workload matrix (catalog domains × engines × k, fixed
//! seeds), each cell warmed up once and sampled N times, and writes the
//! timings to a stable JSON file (`target/ttbench.json` by default, so a
//! local run leaves the committed reports alone — see the README's
//! "Observability" section for the schema). With `--baseline`
//! it compares against a committed run and exits `11` (the
//! `EXIT_BENCH_REGRESSION` code from `ttsolve`'s table) on regression.
//!
//! Wall-clock nanoseconds are hardware-dependent, so the regression
//! check never compares them across runs directly. Two signals are
//! used instead:
//!
//! * **determinism** — `cost`, `subsets`, and `machine_steps` are exact
//!   simulator outputs; any drift from the baseline is a regression
//!   (or an intentional algorithm change, in which case the baseline
//!   is regenerated in the same PR);
//! * **relative minima** — each cell's fastest sample is normalized by
//!   a `seq` reference workload sampled *interleaved with that cell*
//!   (drift in machine speed over the run hits both sides equally),
//!   and the ratio must stay within `--threshold` (default 25%) of the
//!   baseline ratio. The minimum is the comparison statistic because
//!   scheduler noise is one-sided — interference only ever *adds*
//!   time — so the fastest of several multi-millisecond batched
//!   samples tracks the true cost far more tightly than the median on
//!   a busy machine. Medians and IQRs are still recorded for humans
//!   reading the report. Cells whose ratio depends on core count
//!   (`rayon`, `rayon-frontier`) are recorded but excluded;
//! * **memory shape** — `resident_cells` (the engines'
//!   `frontier_peak_resident_cells` counter: the `2^k` cost slab for
//!   the level-kernel engines, the closure for `memo`) is exact and
//!   compared like the determinism anchors. The `memo/random/k20`
//!   ceiling of `2·C(20, 10)` resident cells is a cargo test
//!   (`tests/frontier_scale.rs`).
//!
//! Besides the engine matrix, three cells pin the orchestration paths:
//! `batch/mixed/*` (a demo manifest through `orchestrate::run_batch`),
//! `supervised/random/*` (the default failover chain through
//! `supervise::supervise`), and `cache/random/*` (warm exact-hit
//! lookups through `tt_cache::SolutionCache`, pinned on every run to
//! answer bit-identically to the cold solve and at least 5× faster
//! than a cold `seq` solve of the same instance).
//!
//! `--self-test` measures the observability seam itself: the `seq`
//! engine (instrumented through `timed_report_with`) against the same
//! levelwise DP called directly on the same pinned instance. Overhead
//! above 5% of the raw median fails the run — the counters are
//! supposed to be invisible.

use std::time::Instant;
use tt_core::solver::budget::Budget;
use tt_core::solver::supervise::{self, SuperviseOptions};
use tt_core::solver::{kernel, sequential};
use tt_parallel::orchestrate;
use tt_workloads::catalog::Domain;

const EXIT_BENCH_REGRESSION: i32 = 11;

/// One cell of the pinned matrix.
struct Workload {
    engine: &'static str,
    domain: &'static str,
    /// k in full mode / k in `--quick` mode.
    k: (usize, usize),
    seed: u64,
    /// Include this cell in the relative-median regression check.
    /// `false` for engines whose wall time scales with core count.
    compare: bool,
    /// The workload every cell's `rel_seq` is normalized against
    /// (re-sampled interleaved with each cell).
    reference: bool,
}

/// The pinned matrix. Order is the report order; the `reference` cell
/// must be first — `run_matrix` reads it to build the interleaved
/// normalization workload.
#[rustfmt::skip]
const MATRIX: &[Workload] = &[
    Workload { engine: "seq", domain: "random", k: (12, 9), seed: 7, compare: true, reference: true },
    Workload { engine: "seq", domain: "medical", k: (12, 9), seed: 3, compare: true, reference: false },
    Workload { engine: "memo", domain: "random", k: (12, 9), seed: 7, compare: true, reference: false },
    Workload { engine: "rayon", domain: "random", k: (12, 9), seed: 7, compare: false, reference: false },
    // The level kernel at larger widths, through the aliases of seq
    // and rayon: k = 16 sequentially, k = 20 under rayon chunks (the
    // paper's machine-model target size).
    Workload { engine: "seq-frontier", domain: "random", k: (16, 11), seed: 7, compare: true, reference: false },
    Workload { engine: "rayon-frontier", domain: "random", k: (20, 12), seed: 7, compare: false, reference: false },
    // k = 20 through the sparse live-set engine: its resident cells are
    // the reachable closure, pinned by FRONTIER_RESIDENT_PINS below.
    Workload { engine: "memo", domain: "random", k: (20, 13), seed: 7, compare: true, reference: false },
    Workload { engine: "hyper", domain: "random", k: (10, 7), seed: 7, compare: true, reference: false },
    Workload { engine: "hyper-blocked", domain: "random", k: (10, 7), seed: 7, compare: true, reference: false },
    Workload { engine: "ccc", domain: "random", k: (8, 6), seed: 7, compare: true, reference: false },
    // The cycle-accurate BVM costs ~3 min/solve at k = 8; k = 7 keeps
    // the full matrix under a minute while still exercising the sim.
    Workload { engine: "bvm", domain: "random", k: (7, 6), seed: 7, compare: true, reference: false },
];

struct CellResult {
    id: String,
    engine: String,
    domain: String,
    k: usize,
    seed: u64,
    min_nanos: u64,
    median_nanos: u64,
    iqr_nanos: u64,
    rel_seq: f64,
    cost: String,
    subsets: u64,
    machine_steps: u64,
    /// `frontier_peak_resident_cells` from the warmup solve's counters
    /// (0 for engines without frontier accounting).
    resident_cells: u64,
    compare: bool,
}

/// What one measured solve produced — the determinism anchors a cell
/// records besides its timings.
struct CellOutcome {
    cost: String,
    subsets: u64,
    machine_steps: u64,
    resident_cells: u64,
}

fn median_iqr(samples: &mut [u64]) -> (u64, u64) {
    samples.sort_unstable();
    let n = samples.len();
    let med = samples[n / 2];
    let iqr = samples[(3 * n) / 4].saturating_sub(samples[n / 4]);
    (med, iqr)
}

fn time_nanos(f: &mut dyn FnMut()) -> u64 {
    let start = Instant::now();
    f();
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

struct Opts {
    quick: bool,
    samples: usize,
    out: String,
    baseline: Option<String>,
    threshold: f64,
    self_test: bool,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        quick: false,
        samples: 0, // 0 = default for the mode
        out: "target/ttbench.json".to_string(),
        baseline: None,
        threshold: 0.25,
        self_test: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let usage = || -> ! {
        eprintln!(
            "usage: ttbench [--quick] [--samples <n>] [--out <file>]\n\
             \x20              [--baseline <file>] [--threshold <pct>] [--self-test]"
        );
        std::process::exit(2)
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--samples" => {
                opts.samples = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => opts.out = it.next().cloned().unwrap_or_else(|| usage()),
            "--baseline" => opts.baseline = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--threshold" => {
                let pct: f64 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                opts.threshold = pct / 100.0;
            }
            "--self-test" => opts.self_test = true,
            _ => usage(),
        }
    }
    if opts.samples == 0 {
        opts.samples = 5;
    }
    opts
}

/// Identity fields of one cell, shared by the matrix and aux paths.
struct CellMeta {
    engine: String,
    domain: String,
    k: usize,
    seed: u64,
    compare: bool,
    reference: bool,
}

/// Samples one cell: a warmup call of `solve` (whose outcome supplies
/// the determinism anchors), then `opts.samples` batched timings, each
/// interleaved with `ref_iters` reference solves so machine-speed drift
/// hits both sides of the `rel_seq` ratio equally.
fn sample_cell(
    opts: &Opts,
    meta: CellMeta,
    ref_solve: &dyn Fn(),
    ref_iters: u64,
    solve: &mut dyn FnMut() -> CellOutcome,
) -> CellResult {
    let id = format!("{}/{}/k{}", meta.engine, meta.domain, meta.k);
    eprint!("bench {id} ... ");
    let warm = Instant::now();
    let outcome = solve(); // warmup; also the anchors' source
    let warm_nanos = u64::try_from(warm.elapsed().as_nanos()).unwrap_or(u64::MAX);
    // Batch sub-millisecond cells so one sample spans >= 20 ms of
    // work: a statistic over µs-scale single solves is scheduler
    // noise, not a measurement.
    let iters = (20_000_000 / warm_nanos.max(1)).clamp(1, 10_000);
    let mut samples: Vec<u64> = Vec::with_capacity(opts.samples);
    let mut ref_samples: Vec<u64> = Vec::with_capacity(opts.samples);
    for _ in 0..opts.samples {
        samples.push(
            time_nanos(&mut || {
                for _ in 0..iters {
                    std::hint::black_box(solve());
                }
            }) / iters,
        );
        ref_samples.push(
            time_nanos(&mut || {
                for _ in 0..ref_iters {
                    ref_solve();
                }
            }) / ref_iters,
        );
    }
    let (median, iqr) = median_iqr(&mut samples);
    let min = samples[0]; // median_iqr sorted them
    let ref_min = ref_samples.iter().copied().min().unwrap_or(1).max(1);
    let rel_seq = if meta.reference {
        1.0
    } else {
        min as f64 / ref_min as f64
    };
    eprintln!(
        "min {:.3} ms, median {:.3} ms (iqr {:.3} ms)",
        min as f64 / 1e6,
        median as f64 / 1e6,
        iqr as f64 / 1e6
    );
    CellResult {
        id,
        engine: meta.engine,
        domain: meta.domain,
        k: meta.k,
        seed: meta.seed,
        min_nanos: min,
        median_nanos: median,
        iqr_nanos: iqr,
        rel_seq,
        cost: outcome.cost,
        subsets: outcome.subsets,
        machine_steps: outcome.machine_steps,
        resident_cells: outcome.resident_cells,
        compare: meta.compare,
    }
}

fn run_matrix(opts: &Opts, failures: &mut Vec<String>) -> Vec<CellResult> {
    let mut results: Vec<CellResult> = Vec::new();
    // The reference workload, solved fresh *alongside every cell*: CPU
    // speed drifts over a multi-minute run (frequency scaling, noisy
    // neighbors), so a reference timed once at the start would skew
    // every later ratio. Interleaving reference samples with each
    // cell's samples makes the drift hit both sides equally.
    let ref_w = &MATRIX[0];
    assert!(ref_w.reference, "MATRIX[0] must be the reference cell");
    let ref_k = if opts.quick { ref_w.k.1 } else { ref_w.k.0 };
    let ref_inst = Domain::parse(ref_w.domain)
        .unwrap_or_else(|| panic!("unknown pinned domain '{}'", ref_w.domain))
        .generate(ref_k, ref_w.seed);
    let ref_engine = tt_core::solver::lookup(ref_w.engine)
        .unwrap_or_else(|| panic!("pinned engine '{}' not registered", ref_w.engine));
    let ref_warm = Instant::now();
    std::hint::black_box(ref_engine.solve(&ref_inst));
    let ref_warm_nanos = u64::try_from(ref_warm.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let ref_iters = (20_000_000 / ref_warm_nanos.max(1)).clamp(1, 10_000);
    let ref_solve = || {
        std::hint::black_box(ref_engine.solve(&ref_inst));
    };
    for w in MATRIX {
        let k = if opts.quick { w.k.1 } else { w.k.0 };
        let inst = Domain::parse(w.domain)
            .unwrap_or_else(|| panic!("unknown pinned domain '{}'", w.domain))
            .generate(k, w.seed);
        let engine = tt_core::solver::lookup(w.engine)
            .unwrap_or_else(|| panic!("pinned engine '{}' not registered", w.engine));
        let meta = CellMeta {
            engine: w.engine.to_string(),
            domain: w.domain.to_string(),
            k,
            seed: w.seed,
            compare: w.compare,
            reference: w.reference,
        };
        results.push(sample_cell(opts, meta, &ref_solve, ref_iters, &mut || {
            let report = engine.solve(&inst);
            CellOutcome {
                cost: report.cost.to_string(),
                subsets: report.work.subsets,
                machine_steps: report.work.machine_steps,
                resident_cells: report
                    .work
                    .extra("frontier_peak_resident_cells")
                    .unwrap_or(0),
            }
        }));
    }
    results.push(batch_cell(opts, &ref_solve, ref_iters));
    results.push(supervised_cell(opts, &ref_solve, ref_iters));
    results.push(cache_cell(opts, &ref_solve, ref_iters, failures));
    results
}

/// The solution-cache path as a pinned cell: one instance solved cold
/// through `tt_cache::SolutionCache` (the warmup miss), then sampled as
/// warm exact-hit lookups. Two invariants are enforced on *every* run,
/// baseline or not: the warm hit's de-canonicalized report is
/// identical to the miss's (same cost, same tree text), and the warm
/// hit is at least 5× faster than a cold `seq` solve of the same
/// instance — a cache that re-solves, or canonicalizes slower than the
/// DP, has regressed into decoration.
fn cache_cell(
    opts: &Opts,
    ref_solve: &dyn Fn(),
    ref_iters: u64,
    failures: &mut Vec<String>,
) -> CellResult {
    let k = if opts.quick { 12 } else { 16 };
    let inst = Domain::parse("random").unwrap().generate(k, 7);
    let seq = tt_core::solver::lookup("seq").expect("seq engine");
    // Cold reference: the fastest of three plain `seq` solves. Three is
    // enough — the comparison is against a 5× margin, not a percentage.
    let cold_min = (0..3)
        .map(|_| {
            time_nanos(&mut || {
                std::hint::black_box(seq.solve(&inst));
            })
        })
        .min()
        .unwrap_or(u64::MAX);

    let mut cache = tt_cache::SolutionCache::in_memory(8);
    let (miss_report, miss_status) = cache.solve(&inst, &Budget::unlimited());
    assert_eq!(
        miss_status,
        tt_cache::CacheStatus::Miss,
        "a fresh cache cannot hit"
    );
    let miss_tree = miss_report
        .tree
        .as_ref()
        .map(tt_core::tree_io::tree_to_text);

    let meta = CellMeta {
        engine: "cache".to_string(),
        domain: "random".to_string(),
        k,
        seed: 7,
        // The warm hit is microseconds against a millisecond reference;
        // that ratio is too small to regress meaningfully, so the cell
        // is pinned by the explicit 5× margin below instead.
        compare: false,
        reference: false,
    };
    let mut last_status = tt_cache::CacheStatus::Miss;
    let result = sample_cell(opts, meta, ref_solve, ref_iters, &mut || {
        let (report, status) = cache.solve(&inst, &Budget::unlimited());
        last_status = status;
        let identical = report.cost == miss_report.cost
            && report.tree.as_ref().map(tt_core::tree_io::tree_to_text) == miss_tree;
        CellOutcome {
            cost: report.cost.to_string(),
            // `subsets` anchors the bit-identity of warm answers: 1 iff
            // the hit reproduced the miss's report exactly.
            subsets: u64::from(identical),
            machine_steps: 0,
            resident_cells: 0,
        }
    });
    assert_eq!(
        last_status,
        tt_cache::CacheStatus::Hit,
        "repeat solves of one instance must hit"
    );
    if result.subsets != 1 {
        failures.push(format!(
            "{}: warm hit's de-canonicalized report differs from the cold solve's",
            result.id
        ));
    }
    if result.min_nanos.saturating_mul(5) > cold_min {
        failures.push(format!(
            "{}: warm hit {} ns is not 5x faster than the cold seq solve {} ns",
            result.id, result.min_nanos, cold_min
        ));
    }
    result
}

/// The `--batch` orchestration path as a pinned cell: a three-line demo
/// manifest (mixed domains, pinned software solvers) through
/// [`orchestrate::run_batch`]. The cost anchor is the per-record costs
/// joined with `/`; `subsets` counts records that came back `ok`.
fn batch_cell(opts: &Opts, ref_solve: &dyn Fn(), ref_iters: u64) -> CellResult {
    let k = if opts.quick { 8 } else { 10 };
    let manifest = format!(
        "demo:random:{k}:7 id=a solver=seq\n\
         demo:medical:{k}:3 id=b solver=memo\n\
         demo:random:{}:5 id=c solver=rayon\n",
        k - 1
    );
    let meta = CellMeta {
        engine: "batch".to_string(),
        domain: "mixed".to_string(),
        k,
        seed: 7,
        compare: true,
        reference: false,
    };
    sample_cell(opts, meta, ref_solve, ref_iters, &mut || {
        let summary = orchestrate::run_batch(&manifest, &mut |_| {});
        let costs: Vec<String> = summary
            .records
            .iter()
            .map(|r| r.cost.map_or_else(|| "err".to_string(), |c| c.to_string()))
            .collect();
        CellOutcome {
            cost: costs.join("/"),
            subsets: summary
                .records
                .iter()
                .filter(|r| matches!(r.status, orchestrate::BatchStatus::Ok))
                .count() as u64,
            machine_steps: 0,
            resident_cells: 0,
        }
    })
}

/// The supervised path as a pinned cell: the default failover chain
/// ([`orchestrate::default_chain`], `auto` first) driven by
/// [`supervise::supervise`] with an unlimited budget.
fn supervised_cell(opts: &Opts, ref_solve: &dyn Fn(), ref_iters: u64) -> CellResult {
    let k = if opts.quick { 7 } else { 10 };
    let inst = Domain::parse("random").unwrap().generate(k, 7);
    let chain = orchestrate::default_chain(&inst);
    let meta = CellMeta {
        engine: "supervised".to_string(),
        domain: "random".to_string(),
        k,
        seed: 7,
        compare: true,
        reference: false,
    };
    sample_cell(opts, meta, ref_solve, ref_iters, &mut || {
        let sup = supervise::supervise(
            &inst,
            &chain,
            &Budget::unlimited(),
            &SuperviseOptions::default(),
        );
        CellOutcome {
            cost: format!("{}@{}", sup.report.cost, sup.engine),
            subsets: sup.report.work.subsets,
            machine_steps: sup.report.work.machine_steps,
            resident_cells: sup
                .report
                .work
                .extra("frontier_peak_resident_cells")
                .unwrap_or(0),
        }
    })
}

fn render_json(opts: &Opts, results: &[CellResult]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"ttbench/v1\",\n");
    let _ = writeln!(out, "  \"quick\": {},", opts.quick);
    let _ = writeln!(out, "  \"samples\": {},", opts.samples);
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"id\": \"{}\", \"engine\": \"{}\", \"domain\": \"{}\", \"k\": {}, \
             \"seed\": {}, \"min_nanos\": {}, \"median_nanos\": {}, \"iqr_nanos\": {}, \
             \"rel_seq\": {:.4}, \"cost\": \"{}\", \"subsets\": {}, \"machine_steps\": {}, \
             \"resident_cells\": {}, \"compare\": {}}}{}",
            r.id,
            r.engine,
            r.domain,
            r.k,
            r.seed,
            r.min_nanos,
            r.median_nanos,
            r.iqr_nanos,
            r.rel_seq,
            r.cost,
            r.subsets,
            r.machine_steps,
            r.resident_cells,
            r.compare,
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// One parsed baseline cell. The file is our own `ttbench/v1` output —
/// one result object per line — so a line scanner is enough; no serde.
struct BaselineCell {
    id: String,
    rel_seq: f64,
    cost: String,
    subsets: u64,
    machine_steps: u64,
    /// `None` for baselines recorded before the frontier counters
    /// existed — absent fields never fail the comparison.
    resident_cells: Option<u64>,
    compare: bool,
}

fn scan_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim().trim_matches('"'))
}

fn parse_baseline(text: &str) -> Vec<BaselineCell> {
    text.lines()
        .filter(|l| l.trim_start().starts_with("{\"id\""))
        .filter_map(|l| {
            Some(BaselineCell {
                id: scan_field(l, "id")?.to_string(),
                rel_seq: scan_field(l, "rel_seq")?.parse().ok()?,
                cost: scan_field(l, "cost")?.to_string(),
                subsets: scan_field(l, "subsets")?.parse().ok()?,
                machine_steps: scan_field(l, "machine_steps")?.parse().ok()?,
                resident_cells: scan_field(l, "resident_cells").and_then(|v| v.parse().ok()),
                compare: scan_field(l, "compare")? == "true",
            })
        })
        .collect()
}

/// Compares the fresh run against the committed baseline. Returns the
/// list of regression messages (empty = clean).
fn check_regressions(
    results: &[CellResult],
    baseline: &[BaselineCell],
    threshold: f64,
) -> Vec<String> {
    let mut bad = Vec::new();
    for r in results {
        let Some(b) = baseline.iter().find(|b| b.id == r.id) else {
            eprintln!("note: {} has no baseline cell (new workload?)", r.id);
            continue;
        };
        if r.cost != b.cost {
            bad.push(format!(
                "{}: cost changed {} -> {} (determinism break)",
                r.id, b.cost, r.cost
            ));
        }
        if r.subsets != b.subsets || r.machine_steps != b.machine_steps {
            bad.push(format!(
                "{}: work counters changed (subsets {} -> {}, machine_steps {} -> {})",
                r.id, b.subsets, r.subsets, b.machine_steps, r.machine_steps
            ));
        }
        // Resident cells are deterministic per engine (closure size for
        // memo, Σ C(k,j) for the full frontier sweeps); drift means the
        // memory shape changed. Baselines without the field are skipped.
        if let Some(br) = b.resident_cells {
            if r.resident_cells != br {
                bad.push(format!(
                    "{}: peak resident cells changed {} -> {} (memory-shape break)",
                    r.id, br, r.resident_cells
                ));
            }
        }
        if r.compare && b.compare && b.rel_seq > 0.0 {
            let growth = r.rel_seq / b.rel_seq - 1.0;
            if growth > threshold {
                bad.push(format!(
                    "{}: relative minimum regressed {:.1}% (rel_seq {:.3} vs baseline {:.3}, \
                     threshold {:.0}%)",
                    r.id,
                    growth * 100.0,
                    r.rel_seq,
                    b.rel_seq,
                    threshold * 100.0
                ));
            }
        }
    }
    bad
}

/// Measures the observability seam's own cost on the `seq` engine:
/// the registered engine (telemetry collector scope, trace span,
/// global solve counter, report assembly) against the *same* levelwise
/// DP + tree extraction called directly. Both sides run the identical
/// sweep, so the delta is exactly what `timed_report_with` adds.
/// Fails above 5%.
fn self_test(opts: &Opts) -> i32 {
    let k = if opts.quick { 10 } else { 12 };
    let inst = tt_workloads::random_adequate(k, 7);
    let engine = tt_core::solver::lookup("seq").expect("seq engine");
    let n = opts.samples.max(7);
    let unlimited = Budget::unlimited();
    let raw_solve = || {
        let mut meter = unlimited.start();
        let mut wave = tt_core::solver::Checkpoint::blank(&inst);
        kernel::sweep(&inst, &mut meter, &kernel::Serial, &mut wave, &mut |_| {});
        let root = inst.universe();
        std::hint::black_box(sequential::extract_tree_costs(&inst, &wave.cost, root));
    };
    // Interleave the two measurements so frequency drift hits both,
    // and batch each sample past scheduler-noise scale.
    let mut raw: Vec<u64> = Vec::with_capacity(n);
    let mut instrumented: Vec<u64> = Vec::with_capacity(n);
    let warm = Instant::now();
    raw_solve();
    let warm_nanos = u64::try_from(warm.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let iters = (10_000_000 / warm_nanos.max(1)).clamp(1, 10_000);
    std::hint::black_box(engine.solve(&inst));
    for _ in 0..n {
        raw.push(
            time_nanos(&mut || {
                for _ in 0..iters {
                    raw_solve();
                }
            }) / iters,
        );
        instrumented.push(
            time_nanos(&mut || {
                for _ in 0..iters {
                    std::hint::black_box(engine.solve(&inst));
                }
            }) / iters,
        );
    }
    // Fastest sample on each side: one-sided scheduler noise cannot
    // make either look faster than it is, so the min-to-min ratio is
    // the instrumentation cost itself.
    let raw_min = raw.iter().copied().min().unwrap_or(1);
    let instr_min = instrumented.iter().copied().min().unwrap_or(1);
    let overhead = instr_min as f64 / raw_min.max(1) as f64 - 1.0;
    println!(
        "self-test: raw seq min {:.3} ms, instrumented {:.3} ms, overhead {:+.2}%",
        raw_min as f64 / 1e6,
        instr_min as f64 / 1e6,
        overhead * 100.0
    );
    if overhead > 0.05 {
        eprintln!("self-test FAILED: instrumentation overhead exceeds 5%");
        1
    } else {
        println!("self-test ok: instrumentation overhead within 5%");
        0
    }
}

fn main() {
    let opts = parse_args();
    tt_parallel::register_engines();

    if opts.self_test {
        std::process::exit(self_test(&opts));
    }

    let baseline = opts.baseline.as_ref().map(|p| {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {p}: {e}");
            std::process::exit(2);
        });
        parse_baseline(&text)
    });

    let mut cell_failures = Vec::new();
    let results = run_matrix(&opts, &mut cell_failures);
    let json = render_json(&opts, &results);
    let parent = std::path::Path::new(&opts.out).parent();
    if let Err(e) = parent
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&opts.out, &json))
    {
        eprintln!("cannot write {}: {e}", opts.out);
        std::process::exit(2);
    }
    println!("wrote {} ({} cells)", opts.out, results.len());

    if !cell_failures.is_empty() {
        for m in &cell_failures {
            eprintln!("REGRESSION {m}");
        }
        std::process::exit(EXIT_BENCH_REGRESSION);
    }

    if let Some(baseline) = baseline {
        let bad = check_regressions(&results, &baseline, opts.threshold);
        if bad.is_empty() {
            println!(
                "baseline comparison: clean ({} cells checked)",
                results.len()
            );
        } else {
            for m in &bad {
                eprintln!("REGRESSION {m}");
            }
            std::process::exit(EXIT_BENCH_REGRESSION);
        }
    }
}
