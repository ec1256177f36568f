//! `repro conformance` — model-based protocol conformance across every
//! server variant (ROADMAP item 5, Artho & Rousset's shape).
//!
//! The `protomodel` state machine generates seeded client interaction
//! sequences; the virtual-time oracle predicts each sequence's
//! client-observable outcome; the executor replays the same sequence
//! against **handoff-nio**, **sharded-nio**, and **poolserver** live on
//! loopback. Conformance = zero outcome divergence between the oracle and
//! every live leg, over the persisted regression corpus
//! (`tests/corpus/*.seq`) plus ≥ [`FULL_SEQUENCES`] generated sequences,
//! with every [`Transition`] in the coverage alphabet exercised.
//!
//! Teeth check: for each [`Mutation`] (pipelined replies reordered, 431
//! threshold off by one) the harness must find a generated witness whose
//! mutated prediction diverges, confirm a live server is *also* flagged
//! against the mutated oracle, and shrink the witness to a minimal
//! corpus-format repro.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::checks::Check;
use desim::Rng;
use httpcore::{ContentStore, LifecyclePolicy};
use nioserver::{AcceptMode, BackendKind, NioConfig, NioServer};
use poolserver::{PoolConfig, PoolServer};
use protomodel::{
    diff, generate, parse_sequence, run_sequence, serialize_sequence, ModelCtx, Mutation, Oracle,
    Sequence, Transition,
};
use workload::{FileSet, SurgeConfig};

/// Generated sequences in the full sweep (the acceptance bar).
pub const FULL_SEQUENCES: u64 = 1000;
/// Generated sequences in `--smoke` (CI).
pub const SMOKE_SEQUENCES: u64 = 120;
/// Client threads driving sequences concurrently.
const EXEC_THREADS: usize = 8;

/// One observed disagreement, minimized where possible.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// "seed N" or the corpus file name.
    pub source: String,
    /// Which live leg disagreed with the oracle.
    pub leg: &'static str,
    /// First differing observable, rendered readably.
    pub detail: String,
    /// Corpus-format text of the shrunk repro (empty when shrinking could
    /// not reproduce, e.g. a flaky divergence — itself a red flag).
    pub shrunk: String,
    pub original_ops: usize,
    pub shrunk_ops: usize,
}

/// One mutation-teeth finding.
#[derive(Debug, Clone)]
pub struct MutationFinding {
    pub mutation: &'static str,
    /// Seed of the first generated witness.
    pub witness_seed: Option<u64>,
    /// The mutated oracle also disagrees with a live server on the
    /// shrunk witness — the divergence is detectable end-to-end.
    pub live_confirmed: bool,
    pub original_ops: usize,
    pub shrunk_ops: usize,
    /// Corpus-format text of the minimal repro.
    pub shrunk: String,
    /// The observable that gives the mutation away.
    pub detail: String,
}

/// Per-transition coverage over corpus + generated sequences.
#[derive(Debug, Clone)]
pub struct CoverageRow {
    pub transition: &'static str,
    pub hits: u64,
}

/// Everything `repro conformance` prints and asserts.
#[derive(Debug)]
pub struct ConformanceReport {
    pub scale: &'static str,
    pub sequences: u64,
    pub episodes: u64,
    pub corpus: Vec<String>,
    pub divergences: Vec<Divergence>,
    pub coverage: Vec<CoverageRow>,
    pub uncovered: Vec<&'static str>,
    pub mutations: Vec<MutationFinding>,
    pub wall: Duration,
}

/// The live rig: one content tree, one hardened-but-fast lifecycle
/// policy, and all three live variants serving it concurrently. Shared by
/// `repro conformance` and the corpus replay test.
pub struct ConformanceRig {
    pub ctx: ModelCtx,
    nio_handoff: NioServer,
    nio_sharded: NioServer,
    pool: PoolServer,
}

/// The conformance policy: every deadline armed (so expiry transitions
/// are observable) but short (so waiting them out is cheap), and socket
/// buffers pinned small enough that the stall payload overwhelms them.
pub fn conformance_policy() -> LifecyclePolicy {
    LifecyclePolicy::hardened(
        Duration::from_millis(250),
        Duration::from_millis(250),
        Duration::from_millis(350),
    )
    .with_buffers(32 * 1024, 32 * 1024)
}

fn conformance_content() -> Arc<ContentStore> {
    let mut rng = Rng::new(41);
    let fs = FileSet::build(
        &SurgeConfig {
            num_files: 16,
            tail_prob: 0.0,
            ..SurgeConfig::default()
        },
        &mut rng,
    );
    Arc::new(ContentStore::from_fileset(&fs))
}

impl ConformanceRig {
    pub fn start() -> ConformanceRig {
        let content = conformance_content();
        let policy = conformance_policy();
        let ctx = ModelCtx::new(Arc::clone(&content), policy);
        let nio = |accept: AcceptMode| {
            NioServer::start(NioConfig {
                workers: 2,
                backend: BackendKind::Epoll,
                accept,
                shed_watermark: None,
                lifecycle: policy,
                content: Arc::clone(&content),
            })
            .expect("start nioserver")
        };
        let pool = PoolServer::start(PoolConfig {
            pool_size: 2 * EXEC_THREADS,
            lifecycle: policy,
            shed_watermark: None,
            content: Arc::clone(&content),
        })
        .expect("start poolserver");
        ConformanceRig {
            ctx,
            nio_handoff: nio(AcceptMode::Handoff),
            nio_sharded: nio(AcceptMode::Sharded),
            pool,
        }
    }

    pub fn legs(&self) -> [(&'static str, SocketAddr); 3] {
        [
            ("nio-handoff", self.nio_handoff.addr()),
            ("nio-sharded", self.nio_sharded.addr()),
            ("poolserver", self.pool.addr()),
        ]
    }

    /// Oracle prediction plus the first divergence (if any) per live leg.
    pub fn diff_sequence(&self, seq: &Sequence) -> Vec<(&'static str, String)> {
        let expected = Oracle::new(&self.ctx).outcome(seq);
        let mut out = Vec::new();
        for (name, addr) in self.legs() {
            let got = run_sequence(addr, seq, &self.ctx);
            if let Some(d) = diff("oracle", &expected, name, &got) {
                out.push((name, d));
            }
        }
        out
    }

    pub fn shutdown(self) {
        self.nio_handoff.shutdown();
        self.nio_sharded.shutdown();
        self.pool.shutdown();
    }
}

/// `tests/corpus/` relative to the workspace root.
pub fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

/// Load every corpus entry, sorted by file name. Parse failures are hard
/// errors: a corrupt corpus must fail loudly, not skip silently.
pub fn corpus_entries() -> Vec<(String, Sequence)> {
    let dir = corpus_dir();
    let mut names: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "seq"))
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let text =
                std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read corpus {name}: {e}"));
            let seq = parse_sequence(&text).unwrap_or_else(|e| panic!("parse corpus {name}: {e}"));
            (name, seq)
        })
        .collect()
}

/// Run the full conformance sweep: corpus replay, generated exploration
/// across all live legs, coverage accounting, and the mutation teeth
/// checks.
pub fn run_conformance(smoke: bool) -> ConformanceReport {
    let t0 = Instant::now();
    let n = if smoke {
        SMOKE_SEQUENCES
    } else {
        FULL_SEQUENCES
    };
    let rig = ConformanceRig::start();
    let corpus = corpus_entries();

    let mut divergences: Vec<Divergence> = Vec::new();
    let mut hits: Vec<u64> = vec![0; Transition::ALL.len()];
    let mut episodes: u64 = 0;

    // --- Corpus replay (serial: a handful of entries, some slow by design).
    for (name, seq) in &corpus {
        episodes += seq.episodes.len() as u64;
        tally(&mut hits, seq);
        for (leg, detail) in rig.diff_sequence(seq) {
            divergences.push(Divergence {
                source: name.clone(),
                leg,
                detail,
                shrunk: String::new(),
                original_ops: seq.op_count(),
                shrunk_ops: seq.op_count(),
            });
        }
    }

    // --- Generated exploration, fanned across client threads.
    let next = AtomicUsize::new(0);
    let found: Mutex<Vec<(u64, Sequence, &'static str, String)>> = Mutex::new(Vec::new());
    let tallies: Mutex<(Vec<u64>, u64)> = Mutex::new((vec![0; Transition::ALL.len()], 0));
    std::thread::scope(|s| {
        for _ in 0..EXEC_THREADS {
            s.spawn(|| {
                let mut local_hits = vec![0u64; Transition::ALL.len()];
                let mut local_eps = 0u64;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed) as u64;
                    if i >= n {
                        break;
                    }
                    let seq = generate(i, &rig.ctx);
                    local_eps += seq.episodes.len() as u64;
                    tally(&mut local_hits, &seq);
                    for (leg, detail) in rig.diff_sequence(&seq) {
                        found.lock().unwrap().push((i, seq.clone(), leg, detail));
                    }
                }
                let mut t = tallies.lock().unwrap();
                for (a, b) in t.0.iter_mut().zip(&local_hits) {
                    *a += b;
                }
                t.1 += local_eps;
            });
        }
    });
    {
        let t = tallies.into_inner().unwrap();
        for (a, b) in hits.iter_mut().zip(&t.0) {
            *a += b;
        }
        episodes += t.1;
    }

    // --- Shrink live divergences (bounded: each shrink re-runs live legs).
    let mut live_divergences = found.into_inner().unwrap();
    live_divergences.sort_by_key(|(seed, ..)| *seed);
    for (seed, seq, leg, detail) in live_divergences.into_iter().take(5) {
        let addr = rig
            .legs()
            .iter()
            .find(|(name, _)| *name == leg)
            .map(|(_, a)| *a)
            .unwrap();
        let reproduces = |cand: &Sequence| {
            let expected = Oracle::new(&rig.ctx).outcome(cand);
            let got = run_sequence(addr, cand, &rig.ctx);
            diff("oracle", &expected, leg, &got).is_some()
        };
        // Divergences must reproduce to shrink; a one-shot flake shrinks
        // to nothing and is reported with its original shape.
        let (shrunk_text, shrunk_ops) = if reproduces(&seq) {
            let min = protomodel::shrink(&seq, reproduces);
            (serialize_sequence(&min), min.op_count())
        } else {
            (String::new(), seq.op_count())
        };
        divergences.push(Divergence {
            source: format!("seed {seed}"),
            leg,
            detail,
            shrunk: shrunk_text,
            original_ops: seq.op_count(),
            shrunk_ops,
        });
    }

    // --- Mutation teeth: the harness must catch a deliberately broken
    // spec, and shrink the witness to a minimal repro.
    let mutations = [Mutation::ReorderPipelined, Mutation::OversizeOffByOne]
        .into_iter()
        .map(|m| mutation_teeth(&rig, m))
        .collect();

    let coverage: Vec<CoverageRow> = Transition::ALL
        .iter()
        .zip(&hits)
        .map(|(t, h)| CoverageRow {
            transition: t.label(),
            hits: *h,
        })
        .collect();
    let uncovered: Vec<&'static str> = coverage
        .iter()
        .filter(|r| r.hits == 0)
        .map(|r| r.transition)
        .collect();

    rig.shutdown();
    ConformanceReport {
        scale: if smoke { "smoke" } else { "full" },
        sequences: n + corpus.len() as u64,
        episodes,
        corpus: corpus.into_iter().map(|(n, _)| n).collect(),
        divergences,
        coverage,
        uncovered,
        mutations,
        wall: t0.elapsed(),
    }
}

fn tally(hits: &mut [u64], seq: &Sequence) {
    for t in seq.transitions() {
        let idx = Transition::ALL.iter().position(|x| *x == t).unwrap();
        hits[idx] += 1;
    }
}

fn mutation_teeth(rig: &ConformanceRig, m: Mutation) -> MutationFinding {
    let clean = Oracle::new(&rig.ctx);
    let broken = Oracle::mutated(&rig.ctx, m);
    // Witness search is pure prediction (no sockets): scan generously.
    let witness = (0..4000u64)
        .map(|seed| (seed, generate(seed, &rig.ctx)))
        .find(|(_, s)| clean.outcome(s) != broken.outcome(s));
    let Some((seed, seq)) = witness else {
        return MutationFinding {
            mutation: m.label(),
            witness_seed: None,
            live_confirmed: false,
            original_ops: 0,
            shrunk_ops: 0,
            shrunk: String::new(),
            detail: "no witness found".into(),
        };
    };
    // Shrink against the in-process disagreement — fast and exact.
    let min = protomodel::shrink(&seq, |cand| clean.outcome(cand) != broken.outcome(cand));
    // End-to-end teeth: a live server must also be flagged against the
    // broken oracle on the minimal repro.
    let (leg, addr) = rig.legs()[0];
    let live = run_sequence(addr, &min, &rig.ctx);
    let detail = diff("mutated-oracle", &broken.outcome(&min), leg, &live);
    MutationFinding {
        mutation: m.label(),
        witness_seed: Some(seed),
        live_confirmed: detail.is_some(),
        original_ops: seq.op_count(),
        shrunk_ops: min.op_count(),
        shrunk: serialize_sequence(&min),
        detail: detail.unwrap_or_else(|| "live leg agreed with mutated oracle".into()),
    }
}

/// The pass/fail gates for `repro conformance` and CI.
pub fn conformance_checks(r: &ConformanceReport) -> Vec<Check> {
    let mut checks = vec![
        Check::new(
            "zero outcome divergence (oracle vs handoff-nio vs sharded-nio vs poolserver)",
            r.divergences.is_empty(),
            if r.divergences.is_empty() {
                format!("{} sequences, {} episodes agree", r.sequences, r.episodes)
            } else {
                format!("{} divergent sequence(s)", r.divergences.len())
            },
        ),
        Check::new(
            "state-machine coverage: every transition exercised",
            r.uncovered.is_empty(),
            if r.uncovered.is_empty() {
                format!("{} transitions hot", r.coverage.len())
            } else {
                format!("cold: {}", r.uncovered.join(", "))
            },
        ),
        Check::new(
            "regression corpus present and replayed",
            !r.corpus.is_empty(),
            format!("{} entries", r.corpus.len()),
        ),
    ];
    for mf in &r.mutations {
        let ok = mf.witness_seed.is_some() && mf.live_confirmed && mf.shrunk_ops <= 3;
        checks.push(Check::new(
            &format!("mutation caught and shrunk: {}", mf.mutation),
            ok,
            format!(
                "witness {:?}, {} → {} ops, live-confirmed: {}",
                mf.witness_seed, mf.original_ops, mf.shrunk_ops, mf.live_confirmed
            ),
        ));
    }
    checks
}

/// Render the report the way `repro` prints experiments.
pub fn render_conformance(r: &ConformanceReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "## Protocol conformance ({}) — {} sequences, {} episodes, {:.1}s\n\n",
        r.scale,
        r.sequences,
        r.episodes,
        r.wall.as_secs_f64()
    ));
    out.push_str(&format!(
        "legs: virtual-time oracle vs nio-handoff vs nio-sharded vs poolserver\n\
         corpus: {}\n\n",
        if r.corpus.is_empty() {
            "(none)".to_string()
        } else {
            r.corpus.join(", ")
        }
    ));
    out.push_str("### Transition coverage\n\n");
    out.push_str("| transition | sequences |\n|---|---|\n");
    for row in &r.coverage {
        out.push_str(&format!("| {} | {} |\n", row.transition, row.hits));
    }
    out.push_str("\n### Mutation teeth\n\n");
    for mf in &r.mutations {
        out.push_str(&format!(
            "* **{}** — witness seed {:?}, shrunk {} → {} ops, live-confirmed {}\n  first divergence: {}\n  minimal repro:\n",
            mf.mutation, mf.witness_seed, mf.original_ops, mf.shrunk_ops, mf.live_confirmed, mf.detail
        ));
        for line in mf.shrunk.lines() {
            out.push_str(&format!("      {line}\n"));
        }
    }
    if !r.divergences.is_empty() {
        out.push_str("\n### DIVERGENCES\n\n");
        for d in &r.divergences {
            out.push_str(&format!(
                "* {} vs {}: {}\n  shrunk ({} → {} ops):\n",
                d.source, d.leg, d.detail, d.original_ops, d.shrunk_ops
            ));
            for line in d.shrunk.lines() {
                out.push_str(&format!("      {line}\n"));
            }
        }
    }
    out
}
