//! The `ingest-local` and `ingest-wire` workloads: one closed-loop producer
//! streams a fixed population of RS+FD[GRR] reports into a fresh server per
//! trial while one open-loop monitor asks for a snapshot every 10 ms.
//!
//! The two workloads share population, seed, server configuration and load;
//! they differ only in the tier between the threads and the server —
//! `LdpServer` calls in process, or `NetClient` connections to a
//! `WireServer` over loopback.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

use ldp_core::solutions::{DynSolution, RsFdProtocol, SolutionKind, SolutionReport};
use ldp_protocols::hash::{mix2, mix3};
use ldp_server::{Envelope, LdpServer, ServerConfig, ServerSnapshot, WireServer};
use ldp_sim::{user_rng, ClientConfig, NetClient};

use crate::report::{self, median, tail, Outcome};
use crate::{stages, RunConfig};

/// The collection both ingest workloads replay: RS+FD with GRR at ε = 1.
const KIND: SolutionKind = SolutionKind::RsFd(RsFdProtocol::Grr);
const EPSILON: f64 = 1.0;
/// The monitor's open-loop snapshot period.
const MONITOR_PERIOD: Duration = Duration::from_millis(10);
/// How long before each due time the monitor stops blocking and spins.
const MONITOR_SPIN: Duration = Duration::from_micros(300);
const TUPLE_SALT: u64 = 0x0070_91E5;
const REPORT_SALT: u64 = 0x002E_9027;

/// Which tier carries the reports from the two load threads to the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// `LdpServer::ingest_batch` / `LdpServer::snapshot` in process.
    Local,
    /// `NetClient` → loopback TCP → `WireServer`.
    Wire,
}

impl Tier {
    /// The tier of an ingest workload; `None` for any other workload.
    pub fn of(workload: &str) -> Option<Tier> {
        match workload {
            "ingest-local" => Some(Tier::Local),
            "ingest-wire" => Some(Tier::Wire),
            _ => None,
        }
    }

    /// The per-layer metric holding this tier's median snapshot latency.
    pub fn snapshot_p50(self) -> &'static str {
        match self {
            Tier::Local => "service.snapshot_p50_ms",
            Tier::Wire => "net_client.snapshot_p50_ms",
        }
    }
}

/// The synthetic population over the Adult schema: user `uid`'s tuple and
/// sanitized report are pure functions of `(seed, uid)`, so nothing is
/// materialized and every trial replays the same reports.
pub struct Population {
    /// Users (and reports) per trial.
    pub n: u64,
    ks: Vec<usize>,
    tuple_seed: u64,
    report_seed: u64,
}

impl Population {
    /// The population of `n` users for workload seed `seed`.
    pub fn new(seed: u64, n: u64) -> Self {
        Population {
            n,
            ks: ldp_datasets::corpora::adult_schema().cardinalities(),
            tuple_seed: mix2(seed, TUPLE_SALT),
            report_seed: mix2(seed, REPORT_SALT),
        }
    }

    /// Builds the collection solution (part of every trial's set-up).
    pub fn solution(&self) -> DynSolution {
        KIND.build(&self.ks, EPSILON)
            .expect("RS+FD[GRR] builds over the Adult schema")
    }

    /// User `uid`'s sanitized report.
    pub fn report(&self, solution: &DynSolution, uid: u64) -> SolutionReport {
        let mut tuple = [0u32; 16];
        for (j, &k) in self.ks.iter().enumerate() {
            tuple[j] = (mix3(self.tuple_seed, uid, j as u64) % k as u64) as u32;
        }
        solution.report(
            &tuple[..self.ks.len()],
            &mut user_rng(self.report_seed, uid),
        )
    }

    /// Single-threaded reference: every report absorbed in uid order into
    /// one `MultidimAggregator`, estimated once.
    pub fn reference_estimates(&self, solution: &DynSolution) -> Vec<Vec<f64>> {
        let mut aggregator = solution.aggregator();
        for uid in 0..self.n {
            aggregator.absorb(&self.report(solution, uid));
        }
        aggregator.estimate()
    }
}

/// What the monitor thread saw during one trial.
#[derive(Debug, Default)]
struct MonitorLog {
    /// Latency of each answered snapshot, from when it was due, in ms.
    latencies_ms: Vec<f64>,
    /// Latest a request was sent after it was due, in ms.
    max_late_ms: f64,
    attempted: u64,
    failed: u64,
    /// A snapshot's report count went backwards or past the population.
    inconsistent: bool,
}

/// Open-loop monitor: request `i` is due at `start + i · MONITOR_PERIOD`,
/// whether or not earlier ones have been answered, until `stop` fires (a
/// message or a dropped sender). Waiting on the channel rather than
/// sleeping lets the trial end the moment the producer is done.
fn run_monitor(
    stop: &Receiver<()>,
    population: u64,
    mut snapshot: impl FnMut() -> Option<u64>,
) -> MonitorLog {
    let mut log = MonitorLog::default();
    let start = Instant::now();
    let mut last_n = 0;
    for i in 0u32.. {
        let due = start + MONITOR_PERIOD * i;
        // Block until shortly before the due time, then spin: a sleeping
        // thread wakes up to a timer slack (50 µs) late, a third of a
        // typical snapshot, and that lateness belongs to this generator,
        // not to the server.
        let wait = due.saturating_duration_since(Instant::now() + MONITOR_SPIN);
        if !matches!(stop.recv_timeout(wait), Err(RecvTimeoutError::Timeout)) {
            break;
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        if !matches!(stop.try_recv(), Err(TryRecvError::Empty)) {
            break;
        }
        log.max_late_ms = log.max_late_ms.max(due.elapsed().as_secs_f64() * 1e3);
        log.attempted += 1;
        match snapshot() {
            Some(n) => {
                log.latencies_ms.push(due.elapsed().as_secs_f64() * 1e3);
                log.inconsistent |= n < last_n || n > population;
                last_n = n;
            }
            None => log.failed += 1,
        }
    }
    log
}

/// Span totals of one traced trial, in nanoseconds.
#[derive(Debug, Default)]
struct Spans {
    report: u64,
    ingest_batch: u64,
    push: u64,
    drain: u64,
    client_finish: u64,
    net_finish: u64,
    bind: u64,
    connect: u64,
    ingested: u64,
    rejected: u64,
    reaped: u64,
}

/// One trial: set-up, the whole population streamed and drained.
struct Trial {
    setup_s: f64,
    wall_s: f64,
    drained: ServerSnapshot,
    monitor: MonitorLog,
    spans: Spans,
    /// Connects and finishes attempted / failed (reports are tallied from
    /// the drained count, snapshots by the monitor).
    ops: (u64, u64),
}

fn nanos(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// One report in [`REPORT_SAMPLE`] is timed. Sanitize cost does not depend
/// on the uid, so `REPORT_SAMPLE` times the sampled total estimates the
/// whole span while keeping two clock reads off most reports (timing every
/// one slowed the in-process producer by about 40%).
const REPORT_SAMPLE: u64 = 16;

/// `pop.report`, adding `REPORT_SAMPLE` times its duration to `total_ns`
/// when `uid` is sampled.
fn sampled_report(
    pop: &Population,
    solution: &DynSolution,
    uid: u64,
    total_ns: &mut u64,
) -> SolutionReport {
    if !uid.is_multiple_of(REPORT_SAMPLE) {
        return pop.report(solution, uid);
    }
    let t = Instant::now();
    let report = pop.report(solution, uid);
    *total_ns += nanos(t) * REPORT_SAMPLE;
    report
}

/// The in-process trial. With `traced`, `DynSolution::report` calls are
/// timed inside the lazy iterator `ingest_batch` consumes, so the
/// `ingest_batch` span minus those child spans is the service's own cost.
fn local_trial(pop: &Population, traced: bool) -> Trial {
    let t0 = Instant::now();
    let solution = pop.solution();
    let server = LdpServer::spawn(solution.clone(), ServerConfig::default());
    let setup_s = t0.elapsed().as_secs_f64();

    let mut spans = Spans::default();
    let (stop, stopped) = channel();
    let start = Instant::now();
    let monitor = std::thread::scope(|s| {
        let (server, solution, spans) = (&server, &solution, &mut spans);
        let watcher = s.spawn(move || run_monitor(&stopped, pop.n, || Some(server.snapshot().n)));
        {
            if traced {
                let report_ns = &mut spans.report;
                let t = Instant::now();
                server.ingest_batch((0..pop.n).map(|uid| Envelope {
                    uid,
                    report: sampled_report(pop, solution, uid, report_ns),
                }));
                spans.ingest_batch = nanos(t);
            } else {
                server.ingest_batch((0..pop.n).map(|uid| Envelope {
                    uid,
                    report: pop.report(solution, uid),
                }));
            }
            drop(stop);
        }
        watcher.join().expect("monitor thread panicked")
    });
    let t = Instant::now();
    let drained = server.drain();
    spans.drain = nanos(t);
    Trial {
        setup_s,
        wall_s: start.elapsed().as_secs_f64(),
        drained,
        monitor,
        spans,
        ops: (1, 0),
    }
}

/// The loopback trial: the producer and the monitor each hold one
/// resilient `NetClient` connection to a fresh `WireServer`.
fn wire_trial(pop: &Population, traced: bool) -> Trial {
    let mut spans = Spans::default();
    let t0 = Instant::now();
    let solution = pop.solution();
    let t = Instant::now();
    let server = WireServer::bind("127.0.0.1:0", solution.clone(), ServerConfig::default())
        .expect("loopback listener binds");
    spans.bind = nanos(t);
    let addr = server.local_addr();
    let t = Instant::now();
    let producer = NetClient::connect_with(addr, &solution, ClientConfig::resilient());
    let watcher = NetClient::connect_with(addr, &solution, ClientConfig::resilient());
    spans.connect = nanos(t);
    let setup_s = t0.elapsed().as_secs_f64();
    let (mut attempted, mut failed) = (
        2u64,
        u64::from(producer.is_err()) + u64::from(watcher.is_err()),
    );

    let (stop, stopped) = channel();
    let start = Instant::now();
    let (monitor, finished) = std::thread::scope(|s| {
        let watcher = s.spawn(move || {
            let Ok(mut client) = watcher else {
                return (MonitorLog::default(), None);
            };
            let log = run_monitor(&stopped, pop.n, || client.snapshot(false).ok().map(|w| w.n));
            (log, Some(client.finish().is_ok()))
        });
        let (solution, spans) = (&solution, &mut spans);
        let producer = (move || {
            let Ok(mut client) = producer else {
                return None;
            };
            for uid in 0..pop.n {
                // A failed push loses its report; the drained count shows it.
                if traced {
                    let report = sampled_report(pop, solution, uid, &mut spans.report);
                    let t = Instant::now();
                    let _ = client.push(uid, &report);
                    spans.push += nanos(t);
                } else {
                    let _ = client.push(uid, &pop.report(solution, uid));
                }
            }
            let t = Instant::now();
            let finished = client.finish().is_ok();
            spans.client_finish = nanos(t);
            drop(stop);
            Some(finished)
        })();
        let producer_finished = producer;
        let (log, monitor_finished) = watcher.join().expect("monitor thread panicked");
        (log, [producer_finished, monitor_finished])
    });
    let drained_ok = finished.iter().filter(|f| **f == Some(true)).count();
    attempted += finished.iter().flatten().count() as u64;
    failed += finished.iter().filter(|f| **f == Some(false)).count() as u64;

    let t = Instant::now();
    server.wait_for_producers(drained_ok);
    spans.ingested = server.ingested_reports();
    spans.rejected = server.rejected_connections() as u64;
    spans.reaped = server.reaped_sessions() as u64;
    let drained = server.finish();
    spans.net_finish = nanos(t);
    Trial {
        setup_s,
        wall_s: start.elapsed().as_secs_f64(),
        drained,
        monitor,
        spans,
        ops: (attempted, failed),
    }
}

/// Runs one ingest workload: a warm-up trial, then trials until
/// `cfg.seconds` have passed (alternating untraced and traced ones under
/// `cfg.trace`), checking every drained result against the reference.
pub fn run(cfg: &RunConfig, tier: Tier) -> Outcome {
    let pop = Population::new(cfg.seed, cfg.population);
    let mut out = Outcome::default();

    let solution = pop.solution();
    let mut reference = pop.reference_estimates(&solution);
    if cfg.flip_reference {
        reference[0][0] = f64::from_bits(reference[0][0].to_bits() ^ 1);
    }
    out.digest = report::estimates_digest(&reference);

    if cfg.trace {
        let n = cfg.population.min(stages::REPLAY_REPORTS);
        if let Err(e) = stages::replay(&solution, &pop, n, &mut out) {
            out.errors.push(format!("stage replay: {e}"));
        }
    }

    let trial = |traced: bool| match tier {
        Tier::Local => local_trial(&pop, traced),
        Tier::Wire => wire_trial(&pop, traced),
    };
    let mut untraced: Vec<Trial> = Vec::new();
    let mut traced: Vec<Trial> = Vec::new();
    // Memory probes (end-to-end runs only) are spread over the run, so they
    // sample more than one phase of the host's load; their time does not
    // count as measuring.
    let probes = if cfg.trace { 0 } else { cfg.rss_probes };
    let mut peaks = Vec::new();
    let mut probing = Duration::ZERO;
    let mut measuring_since = Instant::now();
    for index in 0usize.. {
        // Trial 0 warms caches and lazy set-up; it is checked but not timed.
        let want_traced = cfg.trace && index % 2 == 0 && index > 0;
        match catch_unwind(AssertUnwindSafe(|| trial(want_traced))) {
            Ok(t) => {
                check_trial(&mut out, &t, &reference, pop.n, index);
                if index == 0 {
                    measuring_since = Instant::now();
                } else if want_traced {
                    traced.push(t);
                } else {
                    untraced.push(t);
                }
            }
            Err(_) => {
                out.ops(pop.n + 1, pop.n + 1);
                out.errors.push(format!("trial {index} panicked"));
            }
        }
        let measured = (measuring_since.elapsed() - probing).as_secs_f64();
        if peaks.len() < probes && measured >= cfg.seconds * peaks.len() as f64 / probes as f64 {
            let t = Instant::now();
            let peak = crate::rss_probe(cfg);
            out.ops(1, u64::from(peak.is_err()));
            match peak {
                Ok(mb) => peaks.push(mb),
                Err(e) => out.errors.push(format!("memory probe: {e}")),
            }
            probing += t.elapsed();
        }
        let enough = !untraced.is_empty() && (!cfg.trace || !traced.is_empty());
        if (enough && peaks.len() == probes && measured >= cfg.seconds) || index >= 10_000 {
            break;
        }
    }

    // Reports over the summed trial time, not a median of per-trial rates:
    // on a 2-vCPU host this workload alternates between a ~2.5M/s and a
    // ~3.3M/s phase lasting 5-25 s each, so a per-trial median jumps
    // between the two while the aggregate rate moves with the phase mix.
    let rps = |trials: &[Trial]| -> f64 {
        trials.len() as f64 * pop.n as f64 / trials.iter().map(|t| t.wall_s).sum::<f64>()
    };
    let snapshot_ms = |trials: &[Trial]| -> Vec<f64> {
        trials
            .iter()
            .flat_map(|t| t.monitor.latencies_ms.iter().copied())
            .collect()
    };
    if !cfg.trace {
        let setups: Vec<f64> = untraced.iter().map(|t| t.setup_s).collect();
        out.set("setup_s", median(&setups));
        out.set("reports_per_s", rps(&untraced));
        // Per-layer, but also on the end-to-end summary line.
        out.set(tier.snapshot_p50(), median(&snapshot_ms(&untraced)));
        // The least-disturbed probe: see `crate::rss_probe`.
        let peak = match probes {
            0 => report::peak_rss_mb(),
            _ => peaks.into_iter().fold(f64::INFINITY, f64::min),
        };
        out.set("peak_rss_mb", peak);
        return out;
    }

    let per_trial = |f: &dyn Fn(&Spans) -> u64| -> f64 {
        median(
            &traced
                .iter()
                .map(|t| f(&t.spans) as f64)
                .collect::<Vec<_>>(),
        )
    };
    let reports = pop.n as f64;
    out.set("solutions.report_ns", per_trial(&|s| s.report) / reports);
    let latencies = snapshot_ms(&traced);
    let (tail_pct, tail_ms) = tail(&latencies);
    out.set(tier.snapshot_p50(), median(&latencies));
    let samples = latencies.len() as f64;
    let max_late = traced
        .iter()
        .map(|t| t.monitor.max_late_ms)
        .fold(0.0, f64::max);
    out.set("monitor.max_late_ms", max_late);
    match tier {
        Tier::Local => {
            out.set(
                "service.ingest_batch_self_ns",
                per_trial(&|s| s.ingest_batch.saturating_sub(s.report)) / reports,
            );
            out.set("service.drain_ms", per_trial(&|s| s.drain) / 1e6);
            out.set("service.snapshot_tail_ms", tail_ms);
            out.set("service.snapshot_tail_pct", tail_pct);
            out.set("service.snapshot_samples", samples);
        }
        Tier::Wire => {
            out.set("net_client.push_ns", per_trial(&|s| s.push) / reports);
            out.set(
                "net_client.finish_ms",
                per_trial(&|s| s.client_finish) / 1e6,
            );
            out.set("net_client.connect_ms", per_trial(&|s| s.connect) / 2e6);
            out.set("net_client.snapshot_tail_ms", tail_ms);
            out.set("net_client.snapshot_tail_pct", tail_pct);
            out.set("net_client.snapshot_samples", samples);
            out.set("net.bind_ms", per_trial(&|s| s.bind) / 1e6);
            out.set("net.finish_ms", per_trial(&|s| s.net_finish) / 1e6);
            out.set("net.ingested_reports", per_trial(&|s| s.ingested));
            out.set("net.rejected_connections", per_trial(&|s| s.rejected));
            out.set("net.reaped_sessions", per_trial(&|s| s.reaped));
        }
    }
    let overhead = rps(&untraced) / rps(&traced) - 1.0;
    out.set("trace.overhead_pct", overhead * 100.0);
    out
}

/// A memory probe streams this fraction of the population. Server memory
/// does not grow with the reports ingested (bounded queues, O(Σk) shards),
/// and a shorter trial is less often caught by a host stall that fills a
/// shard queue.
const PROBE_SHARE: u64 = 10;

/// One untraced trial over `1 / PROBE_SHARE` of the population in this
/// process, for the memory probe: this process's peak RSS once the trial
/// has drained every report.
pub fn probe(cfg: &RunConfig, tier: Tier) -> Result<f64, String> {
    let pop = Population::new(cfg.seed, cfg.population / PROBE_SHARE);
    let t = match tier {
        Tier::Local => local_trial(&pop, false),
        Tier::Wire => wire_trial(&pop, false),
    };
    if t.drained.n != pop.n {
        return Err(format!(
            "probe drained {} of {} reports",
            t.drained.n, pop.n
        ));
    }
    Ok(report::peak_rss_mb())
}

/// Tallies a trial's operations and checks its drained result: every
/// attempted report absorbed once, estimates bit-identical to the
/// single-threaded reference, monitor snapshots consistent.
fn check_trial(out: &mut Outcome, t: &Trial, reference: &[Vec<f64>], n: u64, index: usize) {
    let lost = n.saturating_sub(t.drained.n);
    out.ops(n, lost);
    out.ops(t.ops.0, t.ops.1);
    out.ops(t.monitor.attempted, t.monitor.failed);
    out.check(t.drained.n == n, || {
        format!(
            "trial {index}: drained n = {} for {n} reports attempted",
            t.drained.n
        )
    });
    let same = t.drained.estimates.len() == reference.len()
        && t.drained
            .estimates
            .iter()
            .flatten()
            .zip(reference.iter().flatten())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    out.check(same, || {
        format!("trial {index}: drained estimates differ from the single-threaded reference")
    });
    out.check(!t.monitor.inconsistent, || {
        format!("trial {index}: a snapshot's report count went backwards or past {n}")
    });
}
