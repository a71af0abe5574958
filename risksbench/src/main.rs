//! `risksbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! risksbench --workload <ingest-local|ingest-wire|attack-chained>
//!            [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! One run executes one workload for `--seconds`, checks every output
//! against a reference computed outside timing, and prints, as its last
//! stdout line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer ones
//! with `--trace 1`. It exits non-zero when any check fails. README.md
//! describes the workloads and what every metric should move.

mod attack;
mod ingest;
#[cfg(test)]
mod json;
mod report;
#[cfg(test)]
mod selftest;
mod stages;

use std::process::ExitCode;

use report::Outcome;

/// Seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;
/// Seed kept out of all tuning, for confirming a later claim on inputs it
/// was not developed against.
pub const HELD_OUT_SEED: u64 = 2_718_281;
/// Reports per ingest trial.
pub const POPULATION: u64 = 1_000_000;

/// Probe processes behind an ingest workload's `peak_rss_mb`.
const RSS_PROBES: usize = 9;

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["ingest-local", "ingest-wire", "attack-chained"];

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Reports per ingest trial.
    pub population: u64,
    /// Users of the attacked corpus.
    pub users: usize,
    /// Memory probes behind an ingest workload's `peak_rss_mb` (see
    /// [`rss_probe`]); 0 measures the current process instead.
    pub rss_probes: usize,
    /// Run as such a probe (`--rss-probe 1`): one untraced ingest trial,
    /// then print this process's peak RSS.
    pub rss_probe: bool,
    /// Corrupts the reference before checking (the self-test's proof that
    /// the checks can fail).
    pub flip_reference: bool,
}

const USAGE: &str = "usage: risksbench --workload <ingest-local|ingest-wire|attack-chained> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        population: POPULATION,
        users: ldp_datasets::corpora::ADULT_N,
        rss_probes: RSS_PROBES,
        rss_probe: false,
        flip_reference: false,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => cfg.workload = value,
            "--seed" => cfg.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            "--rss-probe" => cfg.rss_probe = value == "1",
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("unknown workload {:?}", cfg.workload));
    }
    Ok(cfg)
}

/// Runs the configured workload; the result carries every metric of its
/// mode.
pub fn run(cfg: &RunConfig) -> Outcome {
    match ingest::Tier::of(&cfg.workload) {
        Some(tier) => ingest::run(cfg, tier),
        None => attack::run(cfg),
    }
}

/// One memory probe for an ingest workload: the `VmHWM` of a fresh
/// process (`--rss-probe 1`) that runs one untraced trial over part of the
/// population (see `ingest::probe`). An ingest workload reports the lowest
/// of `cfg.rss_probes` probes as `peak_rss_mb`. The in-flight batches
/// behind a shard queue add to a process's peak only when a worker is
/// descheduled long enough for its queue to fill, which the host's
/// scheduling decides: a whole run's `VmHWM` varied 2× between runs. The
/// least-disturbed probe shows what the workload itself needs, as the
/// repository's ingest bench takes the best of its repetitions.
pub fn rss_probe(cfg: &RunConfig) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args(["--workload", &cfg.workload, "--seed", &cfg.seed.to_string()])
        .args(["--rss-probe", "1"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&output.stdout);
    match text.trim().parse::<f64>() {
        Ok(mb) if output.status.success() => Ok(mb),
        _ => Err(format!("{}: {}", output.status, text.trim())),
    }
}

/// The commit the benchmark runs on, read from `.git` in the working
/// directory; `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return head.trim().to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|rev| rev.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A human-readable line with the workload's headline figures under the
/// names the project's performance notes use.
fn summary(cfg: &RunConfig, out: &Outcome) -> String {
    let v = |name| out.values.get(name).copied().unwrap_or(0.0);
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    let headline = match ingest::Tier::of(&cfg.workload) {
        Some(tier) => format!(
            "ingest_rps={:.0} snapshot_p50_ms={:.4}",
            v("reports_per_s"),
            v(tier.snapshot_p50())
        ),
        None => format!("attack_pass_s={:.4}", cfg.users as f64 / v("reports_per_s")),
    };
    format!(
        "{} seed={}: setup_s={:.6} {headline} peak_rss_mb={:.1} failed_frac={failed_frac} ({}/{})",
        cfg.workload,
        cfg.seed,
        v("setup_s"),
        v("peak_rss_mb"),
        out.failed,
        out.attempted
    )
}

fn main() -> ExitCode {
    let cfg = match parse_args(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("risksbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg.rss_probe {
        let Some(tier) = ingest::Tier::of(&cfg.workload) else {
            eprintln!("risksbench: {} has no memory probe", cfg.workload);
            return ExitCode::from(2);
        };
        return match ingest::probe(&cfg, tier) {
            Ok(mb) => {
                println!("{mb}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("risksbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut out = run(&cfg);
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let population = match ingest::Tier::of(&cfg.workload) {
        Some(_) => cfg.population,
        None => cfg.users as u64,
    };
    println!(
        "env: {{\"workload\": \"{}\", \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \
         \"trace\": {}, \"seconds\": {}, \"nproc\": {nproc}, \"rustc\": \"{}\", \
         \"git_rev\": \"{}\", \"population_per_trial\": {population}, \
         \"reference_digest\": \"{:016x}\"}}",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace),
        cfg.seconds,
        env!("RISKSBENCH_RUSTC"),
        git_revision(),
        out.digest
    );
    if !cfg.trace {
        println!("{}", summary(&cfg, &out));
    }
    let line = out.result_line(cfg.trace);
    for error in &out.errors {
        eprintln!("risksbench: check failed: {error}");
    }
    println!("{line}");
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
