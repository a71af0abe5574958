//! The `attack-chained` workload: the paper's Fig. 4 pass at paper scale.
//! RS+FD[GRR] at ε = 4 collects an Adult-like corpus; the adversary first
//! infers each user's sampled attribute with the NK (s = 1) GBDT classifier,
//! then re-identifies users against full background knowledge (FK-RI).

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ldp_core::attacks::{
    self, AdversaryView, Attack, AttackKind, AttackOutcome, BackgroundKnowledge, FittedAttack,
    ReidentConfig, ReidentOutcome,
};
use ldp_core::inference::AttackClassifier;
use ldp_core::solutions::{RsFdProtocol, SolutionKind};
use ldp_datasets::{corpora, Dataset};
use ldp_experiments::{ExpConfig, TOP_KS};
use ldp_protocols::hash::mix2;
use ldp_sim::{AttackPipeline, CollectionPipeline};

use crate::report::{self, median, Outcome};
use crate::RunConfig;

const KIND: SolutionKind = SolutionKind::RsFd(RsFdProtocol::Grr);
const EPSILON: f64 = 4.0;
/// Threads of both the collection and the sharded evaluation.
const THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
const CORPUS_SALT: u64 = 0xAD_0175;
const COLLECT_SALT: u64 = 0xC0_11EC7;

/// The chained FK-RI attack with the experiments' GBDT parameters.
fn attack_kind() -> AttackKind {
    let experiments = ExpConfig {
        runs: 1,
        scale: 1.0,
        threads: THREADS,
        seed: 0,
        out_dir: std::path::PathBuf::new(),
    };
    AttackKind::Reident(ReidentConfig {
        top_ks: TOP_KS.to_vec(),
        background: BackgroundKnowledge::Full,
        classifier: AttackClassifier::Gbdt(experiments.attack_gbdt()),
        synth_factor: 1.0,
    })
}

/// Everything a pass needs: built once per set-up.
struct World {
    dataset: Dataset,
    collection: CollectionPipeline,
    attack: AttackPipeline,
}

/// Corpus synthesis plus solution and attack construction; returns the
/// world, the set-up time and the synthesis time.
fn setup(cfg: &RunConfig) -> (World, f64, f64) {
    let t0 = Instant::now();
    let dataset = corpora::adult_like(cfg.users, mix2(cfg.seed, CORPUS_SALT));
    let synth_s = t0.elapsed().as_secs_f64();
    let collection =
        CollectionPipeline::from_kind(KIND, &dataset.schema().cardinalities(), EPSILON)
            .expect("RS+FD[GRR] builds over the Adult schema")
            .seed(mix2(cfg.seed, COLLECT_SALT))
            .threads(THREADS);
    let attack = AttackPipeline::from_kind(attack_kind())
        .expect("the chained FK-RI attack builds")
        .seed(cfg.seed)
        .threads(THREADS);
    let world = World {
        dataset,
        collection,
        attack,
    };
    (world, t0.elapsed().as_secs_f64(), synth_s)
}

/// Stage times of one traced pass, in seconds.
#[derive(Debug, Default, Clone, Copy)]
struct PassSpans {
    observe: f64,
    fit: f64,
    evaluate: f64,
    index_build: f64,
}

/// What one pass returned.
struct Pass {
    outcome: ReidentOutcome,
    /// Reports the collection absorbed.
    collected: u64,
    wall_s: f64,
    fitted: Box<dyn FittedAttack>,
    spans: Option<PassSpans>,
}

/// One pass: `AttackPipeline::run` untraced; traced, the same three steps
/// `run` performs (observe, fit, sharded evaluate) called one by one, plus a
/// separate index build outside the pass time.
fn pass(world: &World, seed: u64, traced: bool) -> Pass {
    let t0 = Instant::now();
    if !traced {
        let run = world.attack.run(&world.collection, &world.dataset);
        let wall = t0.elapsed().as_secs_f64();
        return Pass {
            outcome: reident(&run.outcome),
            collected: run.collection.n,
            wall_s: wall,
            fitted: run.fitted,
            spans: None,
        };
    }
    let t = Instant::now();
    let (collected, observed) = world.collection.run_with_observation(&world.dataset);
    let observe = t.elapsed().as_secs_f64();
    let view = AdversaryView {
        dataset: &world.dataset,
        solution: world.collection.solution(),
        observed: &observed,
        numeric_truth: None,
    };
    let t = Instant::now();
    let fitted = world
        .attack
        .attack()
        .fit(&view, &mut attacks::fit_rng(seed));
    let fit = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let outcome = world.attack.evaluate(fitted.as_ref());
    let evaluate = t.elapsed().as_secs_f64();
    let wall = t0.elapsed().as_secs_f64();
    let t = Instant::now();
    black_box(world.attack.reident_index(&world.dataset));
    let index_build = t.elapsed().as_secs_f64();
    Pass {
        outcome: reident(&outcome),
        collected: collected.n,
        wall_s: wall,
        fitted,
        spans: Some(PassSpans {
            observe,
            fit,
            evaluate,
            index_build,
        }),
    }
}

fn reident(outcome: &AttackOutcome) -> ReidentOutcome {
    outcome
        .reident()
        .expect("a re-identification outcome")
        .clone()
}

fn outcome_digest(o: &ReidentOutcome) -> u64 {
    report::digest(
        o.rid_acc
            .iter()
            .chain(&o.baseline)
            .map(|v| v.to_bits())
            .chain([o.n_targets as u64]),
    )
}

/// Runs the workload: `SETUPS` set-ups, then passes until `cfg.seconds`
/// have passed (alternating untraced and traced ones under `cfg.trace`),
/// each checked against the serial evaluation of the first pass's fitted
/// attack.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut synths = Vec::new();
    let mut world = None;
    for _ in 0..SETUPS {
        let (w, setup_s, synth_s) = setup(cfg);
        setups.push(setup_s);
        synths.push(synth_s);
        world = Some(w);
    }
    let world = world.expect("SETUPS >= 1");

    let users = world.dataset.n() as u64;
    let mut outcomes = Vec::new();
    let mut first_fitted = None;
    let mut untraced = Vec::new();
    let mut traced: Vec<(f64, PassSpans)> = Vec::new();
    let started = Instant::now();
    for index in 0usize.. {
        let want_traced = cfg.trace && index % 2 == 1;
        out.ops(1, 0);
        match catch_unwind(AssertUnwindSafe(|| pass(&world, cfg.seed, want_traced))) {
            Ok(p) => {
                out.check(
                    p.collected == users && p.outcome.n_targets as u64 == users,
                    || {
                        format!(
                            "pass {index}: {} reports collected and {} targets for {users} users",
                            p.collected, p.outcome.n_targets
                        )
                    },
                );
                match p.spans {
                    Some(spans) => traced.push((p.wall_s, spans)),
                    None => untraced.push(p.wall_s),
                }
                outcomes.push(p.outcome);
                first_fitted.get_or_insert(p.fitted);
            }
            Err(_) => {
                out.ops(0, 1);
                out.errors.push(format!("pass {index} panicked"));
            }
        }
        let enough = !untraced.is_empty() && (!cfg.trace || !traced.is_empty());
        if (enough && started.elapsed().as_secs_f64() >= cfg.seconds) || index >= 10_000 {
            break;
        }
    }

    // The reference, outside timing: the first pass's fitted attack scored
    // serially. Every pass must reproduce it exactly.
    if let Some(fitted) = first_fitted {
        let mut reference = reident(&attacks::evaluate_serial(fitted.as_ref(), cfg.seed));
        if cfg.flip_reference {
            reference.rid_acc[0] = f64::from_bits(reference.rid_acc[0].to_bits() ^ 1);
        }
        out.digest = outcome_digest(&reference);
        for (index, outcome) in outcomes.iter().enumerate() {
            out.check(*outcome == reference, || {
                format!(
                    "pass {index}: {outcome:?} differs from the serial evaluation {reference:?}"
                )
            });
        }
    }

    if !cfg.trace {
        out.set("setup_s", median(&setups));
        out.set("reports_per_s", users as f64 / median(&untraced));
        out.set("peak_rss_mb", report::peak_rss_mb());
        return out;
    }
    let span =
        |f: fn(&PassSpans) -> f64| median(&traced.iter().map(|(_, s)| f(s)).collect::<Vec<_>>());
    out.set("datasets.synth_s", median(&synths));
    out.set("pipeline.observe_s", span(|s| s.observe));
    out.set("attacks.fit_s", span(|s| s.fit));
    out.set("reident.index_build_s", span(|s| s.index_build));
    out.set("attack_pipeline.evaluate_s", span(|s| s.evaluate));
    let traced_s = median(&traced.iter().map(|(w, _)| *w).collect::<Vec<_>>());
    out.set(
        "trace.overhead_pct",
        (traced_s / median(&untraced) - 1.0) * 100.0,
    );
    out
}
