//! The unified experiment registry: every figure, table and ablation of the
//! reproduction as one plain [`Experiment`] row of the static
//! [`EXPERIMENTS`] table (id, paper reference, datasets, outputs, cost and
//! the `run` function), looked up by id with [`find`].
//!
//! The `risks` CLI binary drives the whole table (`risks list` /
//! `risks describe` / `risks run`), and [`crate::runner`] schedules selected
//! experiments across threads, cost-sorted longest-first, writing one JSON
//! manifest per run.
//!
//! ```
//! use ldp_experiments::registry::find;
//! use ldp_experiments::ExpConfig;
//!
//! let exp = find("fig01").unwrap();
//! assert_eq!(exp.id, "fig01");
//! assert_eq!(exp.paper_ref, "§3.2.3, Fig. 1");
//!
//! // Fig. 1 is analytical (no simulation), so it is cheap enough to run in
//! // a doctest; heavier experiments go through `risks run`.
//! let cfg = ExpConfig {
//!     runs: 1,
//!     scale: 0.01,
//!     threads: 1,
//!     seed: 42,
//!     out_dir: std::env::temp_dir().join("risks_doctest"),
//! };
//! let report = (exp.run)(&cfg);
//! assert_eq!(report.files(), exp.outputs);
//! assert!(report.total_rows() > 0);
//! ```

use std::path::Path;

use crate::table::Table;
use crate::ExpConfig;

/// One produced table plus the CSV file name it is persisted under.
#[derive(Debug, Clone)]
pub struct TableOutput {
    /// CSV file name (relative to the configured output directory).
    pub file: String,
    /// The table itself.
    pub table: Table,
}

/// Structured result of one experiment run: every table the experiment
/// produced, tagged with its output file name. Replaces the ad-hoc
/// `Table` / `(Table, Table)` / `Vec<Table>` returns of the old per-figure
/// binaries; printing and CSV persistence are the runner's job, so the
/// experiment bodies stay pure.
#[derive(Debug, Clone, Default)]
pub struct ExperimentReport {
    /// The produced tables in presentation order.
    pub tables: Vec<TableOutput>,
}

impl ExperimentReport {
    /// An empty report.
    pub fn new() -> Self {
        ExperimentReport::default()
    }

    /// Adds a table under the given CSV file name (builder style).
    pub fn with(mut self, file: impl Into<String>, table: Table) -> Self {
        self.tables.push(TableOutput {
            file: file.into(),
            table,
        });
        self
    }

    /// The output file names, in order.
    pub fn files(&self) -> Vec<String> {
        self.tables.iter().map(|t| t.file.clone()).collect()
    }

    /// Total data rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.table.len()).sum()
    }

    /// Renders every table to one string (single `print!` keeps output from
    /// concurrently finishing experiments unscrambled).
    pub fn render(&self) -> String {
        self.tables
            .iter()
            .map(|t| t.table.render())
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Writes every table as CSV into `dir`.
    ///
    /// # Panics
    /// Panics on I/O failure — experiment runs should fail loudly.
    pub fn write_csvs(&self, dir: &Path) {
        for t in &self.tables {
            t.table.write_csv(dir, &t.file);
        }
    }
}

/// One experiment of the reproduction as a plain row of the [`EXPERIMENTS`]
/// table: its metadata plus the function that runs it. Adding an experiment
/// means adding one row.
#[derive(Debug)]
pub struct Experiment {
    /// Stable identifier (`"fig04"`, `"ablation_topk"`); the `risks` CLI and
    /// the manifests key on it.
    pub id: &'static str,
    /// One-line description of what the experiment measures.
    pub title: &'static str,
    /// Where in the paper the reproduced figure/table lives.
    pub paper_ref: &'static str,
    /// The datasets the experiment simulates (empty for analytical plots).
    pub datasets: &'static [&'static str],
    /// CSV files a successful run produces; the runner refuses a report
    /// whose files differ.
    pub outputs: &'static [&'static str],
    /// Rough single-core seconds at the default scale (runs = 3,
    /// scale = 0.15). Only the ordering matters: the scheduler runs the
    /// costliest first.
    pub cost: f64,
    /// Runs the experiment and returns its tables.
    pub run: fn(&ExpConfig) -> ExperimentReport,
}

/// Rows are identified by their (unique) id.
impl PartialEq for Experiment {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Experiment {
    /// How much longer a `RISKS_FULL=1` run takes than the default scale
    /// (runs 3→20 and n 0.15→1.0 compound; analytical figures are flat).
    fn full_scale_factor(&self) -> f64 {
        if self.datasets.is_empty() {
            1.0
        } else {
            60.0
        }
    }

    /// Stable multi-line description used by `risks describe` (and asserted
    /// stable by the registry tests).
    pub fn describe(&self) -> String {
        let datasets = if self.datasets.is_empty() {
            "none (analytical)".to_string()
        } else {
            self.datasets.join(", ")
        };
        format!(
            "{id}: {title}\n  paper:    {paper}\n  datasets: {datasets}\n  \
             outputs:  {outputs}\n  est. cost: {cost} (default scale) / {full} (RISKS_FULL=1)\n",
            id = self.id,
            title = self.title,
            paper = self.paper_ref,
            outputs = self.outputs.join(", "),
            cost = human_secs(self.cost),
            full = human_secs(self.cost * self.full_scale_factor()),
        )
    }
}

/// Looks an experiment up by its identifier.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// Every experiment of the reproduction, in presentation order: 15 paper
/// figures (the paper numbers its plots 1–17 with 7–8 being diagrams), the
/// two DESIGN.md ablation studies and four extensions.
pub static EXPERIMENTS: [Experiment; 21] = [
    Experiment {
        id: "fig01",
        title: "analytical expected attacker ACC over multiple collections",
        paper_ref: "§3.2.3, Fig. 1",
        datasets: &[],
        outputs: &["fig01.csv"],
        cost: 0.1,
        run: crate::fig01::run,
    },
    Experiment {
        id: "fig02",
        title: "RID-ACC on Adult (SMP, FK-RI, uniform eps-LDP)",
        paper_ref: "§4.2, Fig. 2",
        datasets: &["Adult"],
        outputs: &["fig02.csv"],
        cost: 150.0,
        run: crate::fig02::run,
    },
    Experiment {
        id: "fig03",
        title: "AIF-ACC on ACSEmployment vs RS+FD (NK/PK/HM)",
        paper_ref: "§4.2, Fig. 3",
        datasets: &["ACSEmployment"],
        outputs: &["fig03.csv"],
        cost: 120.0,
        run: crate::fig03::run,
    },
    Experiment {
        id: "fig04",
        title: "RID-ACC on Adult vs RS+FD[GRR] (chained attack)",
        paper_ref: "§4.2, Fig. 4",
        datasets: &["Adult"],
        outputs: &["fig04.csv"],
        cost: 200.0,
        run: crate::fig04::run,
    },
    Experiment {
        id: "fig05",
        title: "averaged MSE on ACSEmployment (RS+RFD vs RS+FD)",
        paper_ref: "§5.2.2, Fig. 5",
        datasets: &["ACSEmployment"],
        outputs: &["fig05_correct.csv", "fig05_incorrect.csv"],
        cost: 60.0,
        run: crate::fig05::run,
    },
    Experiment {
        id: "fig06",
        title: "AIF-ACC on ACSEmployment vs RS+RFD (correct priors)",
        paper_ref: "§5.2.3, Fig. 6",
        datasets: &["ACSEmployment"],
        outputs: &["fig06.csv"],
        cost: 100.0,
        run: crate::fig06::run,
    },
    Experiment {
        id: "fig09",
        title: "RID-ACC on ACSEmployment (SMP, FK-RI)",
        paper_ref: "Appendix C, Fig. 9",
        datasets: &["ACSEmployment"],
        outputs: &["fig09.csv"],
        cost: 130.0,
        run: crate::fig09::run,
    },
    Experiment {
        id: "fig10",
        title: "RID-ACC on Adult (SMP, PK-RI)",
        paper_ref: "Appendix C, Fig. 10",
        datasets: &["Adult"],
        outputs: &["fig10.csv"],
        cost: 140.0,
        run: crate::fig10::run,
    },
    Experiment {
        id: "fig11",
        title: "RID-ACC on Adult (non-uniform eps-LDP metric)",
        paper_ref: "Appendix C, Fig. 11",
        datasets: &["Adult"],
        outputs: &["fig11_fk.csv", "fig11_pk.csv"],
        cost: 280.0,
        run: crate::fig11::run,
    },
    Experiment {
        id: "fig12",
        title: "RID-ACC on Adult (alpha-PIE, uniform sampling)",
        paper_ref: "Appendix C, Fig. 12",
        datasets: &["Adult"],
        outputs: &["fig12_fk.csv", "fig12_pk.csv"],
        cost: 260.0,
        run: crate::fig12::run,
    },
    Experiment {
        id: "fig13",
        title: "RID-ACC on Adult (alpha-PIE, non-uniform sampling)",
        paper_ref: "Appendix C, Fig. 13",
        datasets: &["Adult"],
        outputs: &["fig13_fk.csv", "fig13_pk.csv"],
        cost: 260.0,
        run: crate::fig13::run,
    },
    Experiment {
        id: "fig14",
        title: "AIF-ACC on Adult vs RS+FD (NK/PK/HM)",
        paper_ref: "Appendix D, Fig. 14",
        datasets: &["Adult"],
        outputs: &["fig14.csv"],
        cost: 110.0,
        run: crate::fig14::run,
    },
    Experiment {
        id: "fig15",
        title: "AIF-ACC on Nursery (negative control)",
        paper_ref: "Appendix D, Fig. 15",
        datasets: &["Nursery"],
        outputs: &["fig15.csv"],
        cost: 90.0,
        run: crate::fig15::run,
    },
    Experiment {
        id: "fig16",
        title: "analytical + experimental utility on Adult (four priors)",
        paper_ref: "Appendix E, Fig. 16",
        datasets: &["Adult"],
        outputs: &[
            "fig16_correct.csv",
            "fig16_dir.csv",
            "fig16_zipf.csv",
            "fig16_exp.csv",
        ],
        cost: 120.0,
        run: crate::fig16::run,
    },
    Experiment {
        id: "fig17",
        title: "AIF-ACC on ACSEmployment vs RS+RFD (incorrect priors)",
        paper_ref: "Appendix E, Fig. 17",
        datasets: &["ACSEmployment"],
        outputs: &["fig17.csv"],
        cost: 100.0,
        run: crate::fig17::run,
    },
    Experiment {
        id: "ablation_classifier",
        title: "inference-attack classifier family ablation",
        paper_ref: "DESIGN.md ablation (Fig. 3 setting)",
        datasets: &["ACSEmployment"],
        outputs: &["ablation_classifier.csv"],
        cost: 70.0,
        run: crate::ablation::run_classifier,
    },
    Experiment {
        id: "ablation_topk",
        title: "re-identification top-k sensitivity ablation",
        paper_ref: "DESIGN.md ablation (Fig. 2 setting)",
        datasets: &["Adult"],
        outputs: &["ablation_topk.csv"],
        cost: 80.0,
        run: crate::ablation::run_topk,
    },
    Experiment {
        id: "numeric_mse",
        title: "mean-estimation MSE of Duchi/PM/HM in a mixed k-of-d collection",
        paper_ref: "extension (§7 outlook): numeric utility",
        datasets: &["MixedSurvey"],
        outputs: &["numeric_mse.csv"],
        cost: 40.0,
        run: crate::numeric::run_mse,
    },
    Experiment {
        id: "numeric_risk",
        title: "NUM-VRI value-range inference accuracy vs the numeric mechanisms",
        paper_ref: "extension (§7 outlook): numeric risk",
        datasets: &["MixedSurvey"],
        outputs: &["numeric_risk.csv"],
        cost: 85.0,
        run: crate::numeric::run_risk,
    },
    Experiment {
        id: "longitudinal_risk",
        title: "averaging-attack ASR vs rounds: eps-splitting vs memoization",
        paper_ref: "extension (§7 outlook): longitudinal risk",
        datasets: &["Adult"],
        outputs: &["longitudinal_risk.csv"],
        cost: 180.0,
        run: crate::longitudinal::run_risk,
    },
    Experiment {
        id: "longitudinal_mse",
        title: "averaged-estimator MSE vs rounds: eps-splitting vs memoization",
        paper_ref: "extension (§7 outlook): longitudinal utility",
        datasets: &["Adult"],
        outputs: &["longitudinal_mse.csv"],
        cost: 50.0,
        run: crate::longitudinal::run_mse,
    },
];

/// Formats a duration estimate for humans: `~8 s`, `~3 min`, `~2.5 h`.
pub fn human_secs(secs: f64) -> String {
    if secs < 1.0 {
        "<1 s".to_string()
    } else if secs < 90.0 {
        format!("~{} s", secs.round() as u64)
    } else if secs < 5400.0 {
        format!("~{} min", (secs / 60.0).round() as u64)
    } else {
        format!("~{:.1} h", secs / 3600.0)
    }
}

/// The README reproduction matrix, generated from the registry so the docs
/// cannot drift from the code (`risks list --markdown` prints exactly this;
/// the registry tests assert README.md embeds it verbatim).
pub fn markdown_matrix() -> String {
    let mut out = String::new();
    out.push_str("| id | reproduces | datasets | command | est. default | est. `RISKS_FULL=1` |\n");
    out.push_str("|---|---|---|---|---|---|\n");
    for exp in &EXPERIMENTS {
        let datasets = if exp.datasets.is_empty() {
            "—".to_string()
        } else {
            exp.datasets.join(", ")
        };
        out.push_str(&format!(
            "| `{id}` | {paper} | {datasets} | `risks run {id}` | {cost} | {full} |\n",
            id = exp.id,
            paper = exp.paper_ref,
            cost = human_secs(exp.cost),
            full = human_secs(exp.cost * exp.full_scale_factor()),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_is_found_by_its_id() {
        for exp in &EXPERIMENTS {
            assert_eq!(find(exp.id), Some(exp));
            assert!(!exp.title.is_empty());
            assert!(!exp.outputs.is_empty());
            assert!(exp.cost > 0.0);
        }
        assert_eq!(find("fig99"), None);
    }

    #[test]
    fn human_secs_ranges() {
        assert_eq!(human_secs(0.1), "<1 s");
        assert_eq!(human_secs(8.0), "~8 s");
        assert_eq!(human_secs(180.0), "~3 min");
        assert_eq!(human_secs(9000.0), "~2.5 h");
    }

    #[test]
    fn matrix_has_one_row_per_experiment() {
        let matrix = markdown_matrix();
        // Header + separator + one row per experiment.
        assert_eq!(matrix.lines().count(), 2 + EXPERIMENTS.len());
        for exp in &EXPERIMENTS {
            assert!(matrix.contains(&format!("`risks run {}`", exp.id)));
        }
    }
}
