//! Cross-experiment scheduling: runs a selection of registry experiments in
//! parallel over [`ldp_sim::par::par_queue`], cost-sorted longest-first, with
//! per-run JSON manifests for caching and auditability.
//!
//! The thread budget is split two ways: up to [`RunOptions::jobs`]
//! experiments run concurrently (outer queue), and each experiment's
//! [`ExpConfig::threads`] is divided by the number of concurrent jobs so the
//! machine is never oversubscribed. A panicking experiment is caught,
//! reported as [`ExpStatus::Failed`] and does not take the other experiments
//! down — the runner's exit status (via [`RunSummary::any_failed`]) is how
//! failures propagate.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ldp_sim::par::par_queue;

use crate::manifest::{config_hash, git_rev, Manifest};
use crate::registry::Experiment;
use crate::ExpConfig;

/// Options of one `risks run` invocation.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Re-run even when a fresh manifest certifies a cache hit.
    pub force: bool,
    /// Maximum experiments in flight at once (`None`: min(4, threads)).
    pub jobs: Option<usize>,
    /// Suppress table output (manifests and CSVs are still written).
    pub quiet: bool,
}

/// How one scheduled experiment ended.
#[derive(Debug, Clone, PartialEq)]
pub enum ExpStatus {
    /// Ran to completion; manifest and CSVs written.
    Completed {
        /// Wall-clock seconds the experiment took.
        wall_secs: f64,
        /// Total data rows produced.
        rows: usize,
    },
    /// Skipped: a manifest with the same config hash and intact outputs
    /// already exists (pass `--force` to re-run).
    Cached,
    /// The experiment panicked (the payload is the panic message), or its
    /// report's files differ from the row's declared `outputs`.
    Failed(String),
}

/// The outcome of one scheduling pass over a selection of experiments.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Per-experiment status, in the order the experiments were requested.
    pub results: Vec<(&'static Experiment, ExpStatus)>,
    /// Wall-clock seconds for the whole pass.
    pub wall_secs: f64,
}

impl RunSummary {
    /// Whether any experiment failed (drives the CLI's exit code — the old
    /// `bin/all.rs` silently dropped results and always exited 0).
    pub fn any_failed(&self) -> bool {
        self.results
            .iter()
            .any(|(_, s)| matches!(s, ExpStatus::Failed(_)))
    }

    /// The statuses partitioned into (completed, cached, failed) ids.
    pub fn partition_ids(&self) -> (Vec<&'static str>, Vec<&'static str>, Vec<&'static str>) {
        let mut done = Vec::new();
        let mut cached = Vec::new();
        let mut failed = Vec::new();
        for (exp, status) in &self.results {
            match status {
                ExpStatus::Completed { .. } => done.push(exp.id),
                ExpStatus::Cached => cached.push(exp.id),
                ExpStatus::Failed(_) => failed.push(exp.id),
            }
        }
        (done, cached, failed)
    }
}

/// Runs the selected experiments under `cfg`, returning one status per
/// requested experiment (input order). See the module docs for the
/// scheduling model.
pub fn run_experiments(
    exps: &[&'static Experiment],
    cfg: &ExpConfig,
    opts: &RunOptions,
) -> RunSummary {
    let started = Instant::now();
    let rev = git_rev();

    // Cache pass: a fresh manifest (same config hash and code revision,
    // outputs intact) is a hit unless --force.
    let mut scheduled: Vec<&'static Experiment> = Vec::new();
    let mut statuses: Vec<(&'static Experiment, Option<ExpStatus>)> = Vec::new();
    for &exp in exps {
        let fresh = !opts.force
            && Manifest::load(&cfg.out_dir, exp.id)
                .is_some_and(|m| m.is_fresh(exp.id, cfg, rev.as_deref()));
        if fresh {
            eprintln!(
                "[risks] {} cached (manifest fresh; --force to re-run)",
                exp.id
            );
            statuses.push((exp, Some(ExpStatus::Cached)));
        } else {
            scheduled.push(exp);
            statuses.push((exp, None));
        }
    }

    // Longest-first: the queue hands jobs out in order, so sorting by
    // descending cost keeps the expensive figures from becoming the tail.
    scheduled.sort_by(|a, b| b.cost.total_cmp(&a.cost));

    let jobs = opts
        .jobs
        .unwrap_or_else(|| cfg.threads.min(4))
        .clamp(1, scheduled.len().max(1));
    // Split the thread budget across concurrent experiments; each experiment
    // still parallelizes internally over its share.
    let inner = ExpConfig {
        threads: (cfg.threads / jobs).max(1),
        ..cfg.clone()
    };

    let outcomes: Vec<(&'static Experiment, ExpStatus)> = par_queue(scheduled.len(), jobs, |i| {
        let exp = scheduled[i];
        (exp, run_one(exp, &inner, opts, rev.as_deref()))
    });

    for (exp, status) in outcomes {
        let slot = statuses
            .iter_mut()
            .find(|(e, s)| *e == exp && s.is_none())
            .expect("scheduled experiment came from the request list");
        slot.1 = Some(status);
    }
    RunSummary {
        results: statuses
            .into_iter()
            .map(|(e, s)| (e, s.expect("every experiment got a status")))
            .collect(),
        wall_secs: started.elapsed().as_secs_f64(),
    }
}

/// Runs one experiment, checks its files against the row's declared
/// `outputs`, prints its tables, persists CSVs + manifest.
fn run_one(
    exp: &Experiment,
    cfg: &ExpConfig,
    opts: &RunOptions,
    git_rev: Option<&str>,
) -> ExpStatus {
    eprintln!("[risks] running {} ({}) …", exp.id, exp.paper_ref);
    let started = Instant::now();
    let report = match catch_unwind(AssertUnwindSafe(|| (exp.run)(cfg))) {
        Ok(report) => report,
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            eprintln!("[risks] {} FAILED: {msg}", exp.id);
            return ExpStatus::Failed(msg);
        }
    };
    let wall_secs = started.elapsed().as_secs_f64();
    if report.files() != exp.outputs {
        let msg = format!(
            "report files [{}] differ from declared outputs [{}]",
            report.files().join(", "),
            exp.outputs.join(", ")
        );
        eprintln!("[risks] {} FAILED: {msg}", exp.id);
        return ExpStatus::Failed(msg);
    }
    if !opts.quiet {
        print!("{}", report.render());
    }
    report.write_csvs(&cfg.out_dir);
    let manifest = Manifest {
        id: exp.id.to_string(),
        config_hash: config_hash(exp.id, cfg),
        seed: cfg.seed,
        runs: cfg.runs,
        scale: cfg.scale,
        wall_secs,
        rows: report.total_rows(),
        git_rev: git_rev.map(str::to_string),
        outputs: report.files(),
    };
    let path = manifest.write(&cfg.out_dir);
    eprintln!(
        "[risks] {} done in {wall_secs:.1}s ({} rows) → {} + {}",
        exp.id,
        manifest.rows,
        manifest.outputs.join(", "),
        path.display()
    );
    ExpStatus::Completed {
        wall_secs,
        rows: manifest.rows,
    }
}

/// Human-readable text of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "experiment panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::find;

    #[test]
    fn summary_partitions_and_flags_failures() {
        let summary = RunSummary {
            results: vec![
                (
                    find("fig01").unwrap(),
                    ExpStatus::Completed {
                        wall_secs: 0.1,
                        rows: 5,
                    },
                ),
                (find("fig02").unwrap(), ExpStatus::Cached),
                (find("fig03").unwrap(), ExpStatus::Failed("boom".into())),
            ],
            wall_secs: 0.2,
        };
        assert!(summary.any_failed());
        let (done, cached, failed) = summary.partition_ids();
        assert_eq!(done, ["fig01"]);
        assert_eq!(cached, ["fig02"]);
        assert_eq!(failed, ["fig03"]);
    }

    /// A row whose `run` writes other files than it declares (here: fig01's
    /// body under a wrong `outputs`) fails before anything is written.
    static MISWIRED: Experiment = Experiment {
        id: "miswired",
        title: "fig01's body under the wrong outputs",
        paper_ref: "test",
        datasets: &[],
        outputs: &["miswired.csv"],
        cost: 0.1,
        run: crate::fig01::run,
    };

    #[test]
    fn mismatched_outputs_fail_and_write_nothing() {
        let out_dir =
            std::env::temp_dir().join(format!("risks_runner_miswired_{}", std::process::id()));
        std::fs::remove_dir_all(&out_dir).ok();
        let cfg = ExpConfig {
            runs: 1,
            scale: 0.01,
            threads: 1,
            seed: 42,
            out_dir: out_dir.clone(),
        };
        let opts = RunOptions {
            quiet: true,
            ..RunOptions::default()
        };
        let summary = run_experiments(&[&MISWIRED], &cfg, &opts);
        match &summary.results[0].1 {
            ExpStatus::Failed(msg) => {
                assert!(msg.contains("fig01.csv"), "{msg}");
                assert!(msg.contains("miswired.csv"), "{msg}");
            }
            other => panic!("expected a failure, got {other:?}"),
        }
        assert!(summary.any_failed());
        let written = std::fs::read_dir(&out_dir).map_or(0, |d| d.count());
        assert_eq!(written, 0, "nothing may be written for a miswired row");
        std::fs::remove_dir_all(&out_dir).ok();
    }
}
