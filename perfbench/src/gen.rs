//! Seeded, replayable workload inputs.
//!
//! Every instance comes from the `tt-workloads` catalog; the program
//! under test only ever sees the generated text. A stream is a pure
//! function of `(workload, seed, phase, length)`, so the same seed
//! gives a byte-identical request stream ([`self_test`] checks this on
//! every run). Reference optima are computed separately with `seq`
//! ([`resolve`]) before any timing starts.

use std::collections::HashMap;
use tt_core::instance::{Action, TtInstance, TtInstanceBuilder};
use tt_core::io;
use tt_serve::proto::{Request, SolveParams, Source};
use tt_workloads::catalog::Domain;

/// Deadline every serve request carries.
pub const DEADLINE_MS: u64 = 1000;

/// Sizes in serve-cold's k band, 6..=16.
pub const COLD_BAND: usize = 11;
/// Slots, out of every 20 serve-cached requests, that carry a new instance (15 %).
const CACHED_NEW_SLOTS: [usize; 3] = [3, 10, 16];
/// The golden-ratio step of the serve-cached rank sequence.
const GOLDEN: f64 = 0.618_033_988_749_894_9;
/// Seed of the catalog draws that solve-large and serve-cached (and so
/// serve-path) are built from. A run's own seed only relabels, reorders
/// and rescales those instances ([`variant`]) and orders them. How much
/// work a catalog draw takes differs from one draw to the next by 10 %
/// and more: two solve-large seeds drawn from their own seeds took 640
/// and 730 ms of CPU per answer, each within 3 % when run again. Draws
/// made from each run's seed would spread a workload's figures by the
/// luck of the draw rather than by the program.
const DRAWS: u64 = 0x7e57_d4a3;
/// Archetypes in the serve-cached pool (above the server's cache capacity).
const CACHED_POOL: usize = 40;
/// The server's cache capacity on serve-cached (and serve-path), below
/// the pool, so the cache evicts.
pub const CACHED_CAPACITY: usize = 24;
/// Distinct instances the serve-keyed keys draw from.
const KEYED_POOL: usize = 20;
/// One in this many serve-keyed requests resends a completed key (20 %).
const KEYED_RETRY_EVERY: usize = 5;
/// A retry names a key at least this many requests older.
const RETRY_GAP: usize = 4;
/// serve-path's requests from serve-cached's fixed-count phase, which
/// fill the cache, and from its open phase. About 200 requests take
/// 7–10 s on one core, so a 30 s run makes three passes.
const PATH_FIXED: usize = 60;
const PATH_OPEN: usize = 140;

/// splitmix64: small, seed-stable, and fully specified here so the
/// streams cannot drift with a dependency.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// A seed for one sub-stream: the run seed mixed with tags.
pub fn mix(seed: u64, tags: &[u64]) -> u64 {
    let mut r = Rng::new(seed);
    let mut h = r.next_u64();
    for &t in tags {
        r = Rng::new(h ^ t.wrapping_mul(0x2545_f491_4f6c_dd1d));
        h = r.next_u64();
    }
    h
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SolveLarge,
    ServeCold,
    ServeCached,
    ServeKeyed,
    ServePath,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "solve-large" => Workload::SolveLarge,
            "serve-cold" => Workload::ServeCold,
            "serve-cached" => Workload::ServeCached,
            "serve-keyed" => Workload::ServeKeyed,
            "serve-path" => Workload::ServePath,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveLarge => "solve-large",
            Workload::ServeCold => "serve-cold",
            Workload::ServeCached => "serve-cached",
            Workload::ServeKeyed => "serve-keyed",
            Workload::ServePath => "serve-path",
        }
    }

    fn tag(self) -> u64 {
        self as u64 + 1
    }
}

/// Which part of a run a stream feeds; each phase draws its own stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// The fixed-count phase that writes the server's state.
    Fixed,
    /// The open loop at the workload's fixed rate.
    Open,
    /// The closed loop that measures capacity.
    Closed,
}

impl Phase {
    fn tag(self) -> u64 {
        self as u64 + 101
    }

    fn label(self) -> &'static str {
        match self {
            Phase::Fixed => "f",
            Phase::Open => "o",
            Phase::Closed => "c",
        }
    }
}

/// How a request relates to earlier ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// An instance not sent before.
    New,
    /// A relabeled, reordered, rescaled copy of a pool archetype.
    Repeat,
    /// A resend of an earlier key (the server answers `recovered`).
    Retry,
}

/// One generated request, before its reference optimum is known.
#[derive(Clone, Debug)]
pub struct Draft {
    pub id: String,
    pub text: String,
    pub key: Option<String>,
    pub kind: Kind,
    pub k: usize,
    /// The optimum is this multiple of the optimum of `base`.
    pub scale: u64,
    /// Instance text whose `seq` optimum (times `scale`) is the answer.
    pub base: String,
}

/// One request with its reference optimum.
#[derive(Clone, Debug)]
pub struct Req {
    pub draft: Draft,
    pub expect: u64,
}

impl Draft {
    /// The wire request: inline text, no pinned solver, the deadline.
    pub fn request(&self) -> Request {
        Request::Solve(SolveParams {
            id: Some(self.id.clone()),
            source: Source::Instance(self.text.clone()),
            solver: None,
            timeout_ms: Some(DEADLINE_MS),
            key: self.key.clone(),
        })
    }
}

fn draft(id: String, inst: &TtInstance, kind: Kind, key: Option<String>) -> Draft {
    let text = io::to_text(inst);
    Draft {
        id,
        base: text.clone(),
        text,
        key,
        kind,
        k: inst.k(),
        scale: 1,
    }
}

/// A draft of a fresh [`variant`] of `base`.
fn variant_draft(id: String, base: &TtInstance, kind: Kind, rng: &mut Rng) -> Draft {
    let (inst, scale) = variant(base, rng);
    Draft {
        id,
        text: io::to_text(&inst),
        key: None,
        kind,
        k: inst.k(),
        scale,
        base: io::to_text(base),
    }
}

/// The solve-large manifest: one instance per (domain, k ∈ {18, 20}),
/// labelled `<domain>-k<k>`, each a variant of a fixed catalog draw.
pub fn solve_large(seed: u64) -> Vec<Draft> {
    let mut rng = Rng::new(mix(seed, &[Workload::SolveLarge.tag()]));
    let mut out = Vec::new();
    for (di, d) in Domain::all().into_iter().enumerate() {
        for k in [18usize, 20] {
            let s = mix(DRAWS, &[Workload::SolveLarge.tag(), di as u64, k as u64]);
            let id = format!("{}-k{k}", d.name());
            out.push(variant_draft(id, &d.generate(k, s), Kind::New, &mut rng));
        }
    }
    out
}

/// `n` requests of `phase` for a serve workload. `prior` holds the
/// drafts of earlier phases (serve-keyed retries may name their keys).
pub fn serve_stream(w: Workload, seed: u64, phase: Phase, n: usize, prior: &[Draft]) -> Vec<Draft> {
    let mut rng = Rng::new(mix(seed, &[w.tag(), phase.tag()]));
    let id = |i: usize| format!("{}{i}", phase.label());
    match w {
        Workload::SolveLarge | Workload::ServePath => Vec::new(),
        Workload::ServeCold => {
            // k uniform over 6..=16: each block of 11 requests is a
            // shuffle of the band, and block `b` gives k the domain
            // `(b + k) mod 5`. Every run sees the same (k, domain) mix;
            // the instances and the order differ by seed.
            let mut block: Vec<usize> = Vec::new();
            (0..n)
                .map(|i| {
                    if block.is_empty() {
                        block = (6..=16).collect();
                        rng.shuffle(&mut block);
                    }
                    let k = block.pop().expect("refilled above");
                    let d = Domain::all()[(i / COLD_BAND + k) % 5];
                    draft(id(i), &d.generate(k, rng.next_u64()), Kind::New, None)
                })
                .collect()
        }
        Workload::ServeCached => {
            let pool = cached_pool();
            let zipf: Vec<f64> = (0..pool.len())
                .scan(0.0, |acc, r| {
                    *acc += 1.0 / (r as f64 + 1.0);
                    Some(*acc)
                })
                .collect();
            let total = *zipf.last().expect("non-empty pool");
            // Ranks follow a golden-ratio sequence through the Zipf CDF,
            // so every stretch of the stream holds the Zipf shares; new
            // instances take fixed slots, 3 in every 20. Which archetype
            // or new draw a request carries is fixed (`DRAWS`); the run's
            // seed makes each request a fresh variant of it.
            let mut draws = Rng::new(mix(DRAWS, &[w.tag(), phase.tag()]));
            let mut u = draws.unit();
            (0..n)
                .map(|i| {
                    if CACHED_NEW_SLOTS.contains(&(i % 20)) {
                        let d = Domain::all()[draws.below(5)];
                        let base = d.generate(15 + draws.below(2), draws.next_u64());
                        return variant_draft(id(i), &base, Kind::New, &mut rng);
                    }
                    u = (u + GOLDEN) % 1.0;
                    let r = zipf
                        .partition_point(|&c| c <= u * total)
                        .min(pool.len() - 1);
                    variant_draft(id(i), &pool[r], Kind::Repeat, &mut rng)
                })
                .collect()
        }
        Workload::ServeKeyed => {
            let pool: Vec<TtInstance> = (0..KEYED_POOL)
                .map(|j| {
                    let d = Domain::all()[j % 5];
                    d.generate(15 + (j / 5) % 2, mix(seed, &[w.tag(), 7, j as u64]))
                })
                .collect();
            // Every fifth request resends an older key; new keys walk
            // the pool in a fresh shuffle per pass, so the mix of sizes
            // and domains is the same in every run.
            let mut order: Vec<usize> = Vec::new();
            let mut out: Vec<Draft> = Vec::with_capacity(n);
            for i in 0..n {
                let earlier: Vec<&Draft> = prior
                    .iter()
                    .chain(out.iter().take(i.saturating_sub(RETRY_GAP - 1)))
                    .filter(|d| d.kind == Kind::New)
                    .collect();
                if !earlier.is_empty() && i % KEYED_RETRY_EVERY == KEYED_RETRY_EVERY - 1 {
                    let orig = earlier[rng.below(earlier.len())];
                    out.push(Draft {
                        id: id(i),
                        kind: Kind::Retry,
                        ..orig.clone()
                    });
                    continue;
                }
                if order.is_empty() {
                    order = (0..pool.len()).collect();
                    rng.shuffle(&mut order);
                }
                let inst = &pool[order.pop().expect("refilled above")];
                let key = format!("{seed}-{}{i}", phase.label());
                out.push(draft(id(i), inst, Kind::New, Some(key)));
            }
            out
        }
    }
}

/// serve-path's requests: the first [`PATH_FIXED`] of serve-cached's
/// fixed-count phase, then the first [`PATH_OPEN`] of its open phase.
pub fn path_stream(seed: u64) -> Vec<Draft> {
    let fixed = serve_stream(Workload::ServeCached, seed, Phase::Fixed, PATH_FIXED, &[]);
    let open = serve_stream(Workload::ServeCached, seed, Phase::Open, PATH_OPEN, &fixed);
    fixed.into_iter().chain(open).collect()
}

/// The serve-cached archetypes, hottest first under the Zipf draw.
pub fn cached_pool() -> Vec<TtInstance> {
    (0..CACHED_POOL)
        .map(|j| {
            let d = Domain::all()[j % 5];
            let s = mix(DRAWS, &[Workload::ServeCached.tag(), 7, j as u64]);
            d.generate(15 + (j / 5) % 2, s)
        })
        .collect()
}

/// A fresh relabel (object permutation), reorder (action shuffle) and
/// uniform weight rescale of `inst`; returns it with the scale factor,
/// which multiplies the optimum exactly.
pub fn variant(inst: &TtInstance, rng: &mut Rng) -> (TtInstance, u64) {
    let k = inst.k();
    let mut perm: Vec<usize> = (0..k).collect();
    rng.shuffle(&mut perm);
    let scale = 2 + rng.below(8) as u64;
    let mut weights = vec![0u64; k];
    for (o, &w) in inst.weights().iter().enumerate() {
        weights[perm[o]] = w * scale;
    }
    let mut actions: Vec<Action> = inst
        .actions()
        .iter()
        .map(|a| Action {
            set: tt_core::Subset::from_iter(a.set.iter().map(|o| perm[o])),
            ..*a
        })
        .collect();
    rng.shuffle(&mut actions);
    let mut b = TtInstanceBuilder::new(k).weights(weights);
    for a in actions {
        b = b.action(a);
    }
    (
        b.build().expect("a relabeled valid instance stays valid"),
        scale,
    )
}

/// Reference optima, memoized by instance text.
#[derive(Default)]
pub struct Oracle {
    seen: HashMap<String, u64>,
    /// Distinct `seq` solves performed.
    pub solves: usize,
}

impl Oracle {
    /// The `seq` optimum of an instance text.
    pub fn optimum(&mut self, text: &str) -> Result<u64, String> {
        if let Some(&c) = self.seen.get(text) {
            return Ok(c);
        }
        let inst =
            io::from_text(text).map_err(|e| format!("generated text does not parse: {e}"))?;
        let seq = tt_core::solver::lookup("seq").ok_or("seq engine missing")?;
        let r = seq.solve(&inst);
        let c = r
            .cost
            .finite()
            .filter(|_| r.outcome.is_complete())
            .ok_or("seq found no finite optimum")?;
        self.solves += 1;
        self.seen.insert(text.to_string(), c);
        Ok(c)
    }
}

/// Attaches reference optima. Rescaled repeats take `scale ×` their
/// archetype's optimum; every `spot`-th one is also solved with `seq`
/// directly, and the two must agree.
pub fn resolve(drafts: Vec<Draft>, oracle: &mut Oracle, spot: usize) -> Result<Vec<Req>, String> {
    drafts
        .into_iter()
        .enumerate()
        .map(|(i, d)| {
            let expect = oracle.optimum(&d.base)? * d.scale;
            if d.scale != 1 && i % spot == 0 {
                let direct = oracle.optimum(&d.text)?;
                if direct != expect {
                    return Err(format!(
                        "{}: seq gives {direct} on the variant but {expect} by rescale",
                        d.id
                    ));
                }
            }
            Ok(Req { draft: d, expect })
        })
        .collect()
}

/// FNV-1a over every encoded request of a draft list.
pub fn fingerprint(drafts: &[Draft]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in drafts {
        for b in d.request().encode().bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Generates `w`'s inputs for `seed` twice and checks the two request
/// streams are byte-identical.
pub fn self_test(w: Workload, seed: u64) -> Result<u64, String> {
    let once = || -> Vec<Draft> {
        match w {
            Workload::SolveLarge => return solve_large(seed),
            Workload::ServePath => return path_stream(seed),
            _ => {}
        }
        let fixed = serve_stream(w, seed, Phase::Fixed, 12, &[]);
        let open = serve_stream(w, seed, Phase::Open, 40, &fixed);
        fixed.into_iter().chain(open).collect()
    };
    let (a, b) = (fingerprint(&once()), fingerprint(&once()));
    if a == b {
        Ok(a)
    } else {
        Err(format!(
            "seed {seed} gave two different request streams ({a:016x} vs {b:016x})"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in [
            Workload::SolveLarge,
            Workload::ServeCold,
            Workload::ServeCached,
            Workload::ServeKeyed,
            Workload::ServePath,
        ] {
            let a = self_test(w, 7).unwrap();
            assert_eq!(a, self_test(w, 7).unwrap());
            assert_ne!(a, self_test(w, 8).unwrap(), "{w:?}");
        }
    }

    #[test]
    fn cold_covers_the_k_band_evenly() {
        let s = serve_stream(Workload::ServeCold, 3, Phase::Open, 22, &[]);
        for k in 6..=16 {
            assert_eq!(s.iter().filter(|d| d.k == k).count(), 2, "k={k}");
        }
    }

    #[test]
    fn variants_keep_the_optimum_times_the_scale() {
        let pool = cached_pool();
        let mut rng = Rng::new(5);
        let mut oracle = Oracle::default();
        let base = io::to_text(&pool[0]);
        for _ in 0..3 {
            let (v, scale) = variant(&pool[0], &mut rng);
            let direct = oracle.optimum(&io::to_text(&v)).unwrap();
            assert_eq!(direct, scale * oracle.optimum(&base).unwrap());
        }
    }

    #[test]
    fn keyed_retries_name_older_new_keys() {
        let fixed = serve_stream(Workload::ServeKeyed, 2, Phase::Fixed, 10, &[]);
        let open = serve_stream(Workload::ServeKeyed, 2, Phase::Open, 60, &fixed);
        let retries: Vec<_> = open.iter().filter(|d| d.kind == Kind::Retry).collect();
        assert!(!retries.is_empty());
        for r in retries {
            assert!(fixed
                .iter()
                .chain(open.iter())
                .any(|d| d.kind == Kind::New && d.key == r.key));
        }
    }
}
