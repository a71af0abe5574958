//! The collection driver: population → solution → sharded aggregators →
//! merged estimates, in one configurable, deterministic, thread-parallel
//! pass.
//!
//! This is the paper's §3.1 server loop at production shape. One
//! [`CollectionPipeline`] drives every collection through four verbs, each
//! generic over the [`Population`] it collects (a categorical [`Dataset`]
//! or a [`MixedDataset`]) and repeated over the configured [`Rounds`]:
//!
//! * [`CollectionPipeline::run`] — the batch pass: each worker thread
//!   sanitizes its user range and absorbs the reports **directly** into its
//!   own [`MultidimAggregator`] shard (no report is buffered), and the
//!   shards merge exactly (integer counts), so results are bit-identical
//!   for every thread count and peak memory is `O(threads · Σ_j k_j)`.
//! * [`CollectionPipeline::run_with_observation`] — the same pass that also
//!   hands back the round-major wire the §3.1 adversary observes.
//! * [`CollectionPipeline::serve`] — the streamed pass through an
//!   [`LdpServer`] following a [`TrafficGenerator`] arrival schedule.
//! * [`CollectionPipeline::serve_remote`] — one producer of a fleet
//!   streaming to a remote [`WireServer`](ldp_server::WireServer).
//!
//! All four sanitize user `uid` in round `r` with the same call: the
//! population's report under the per-round solution, drawn from
//! [`user_rng_round`]. The per-user sanitize calls route through the
//! protocols' word-parallel paths (UE reports are built whole-word, never
//! bit-by-bit — see the sanitize budget in `docs/ARCHITECTURE.md`), and
//! each user draws from its own O(1)-seeded [`rand::rngs::SmallRng`]
//! stream, so a draw-count change inside one user's sanitization can never
//! shift another user's randomness — serial/sharded/streamed/wire
//! bit-identity survives protocol-internal sampling changes.
//!
//! ```
//! use ldp_core::solutions::{RsFdProtocol, SolutionKind};
//! use ldp_sim::{BudgetPolicy, CollectionPipeline, Rounds};
//! use ldp_datasets::corpora::adult_like;
//!
//! let dataset = adult_like(5_000, 7);
//! let pipeline = CollectionPipeline::from_kind(
//!     SolutionKind::RsFd(RsFdProtocol::Grr),
//!     &dataset.schema().cardinalities(),
//!     1.0,
//! )
//! .unwrap()
//! .seed(42)
//! .threads(4);
//! let run = pipeline.run(&dataset);
//! assert_eq!(run.n, 5_000);
//! assert_eq!(run.estimates.len(), dataset.d());
//!
//! // Three rounds at ε/3 each: one window per round plus the cumulative run.
//! let rounds = Rounds::new(3, BudgetPolicy::SplitEps).unwrap();
//! let longitudinal = pipeline.rounds(rounds).unwrap().run(&dataset);
//! assert_eq!(longitudinal.n, 15_000);
//! assert_eq!(longitudinal.epochs.len(), 3);
//! ```

use ldp_core::solutions::{DynSolution, MultidimAggregator, SolutionKind, SolutionReport};
use ldp_datasets::{Dataset, MixedDataset};
use ldp_protocols::hash::mix3;
use ldp_protocols::ProtocolError;
use ldp_server::{Envelope, EpochSnapshot, LdpServer, ServerConfig, ServerSnapshot};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::net_client::{ClientConfig, NetClient};
use crate::par;
use crate::traffic::TrafficGenerator;

/// Salt separating pipeline user streams from the campaign engines'.
pub(crate) const USER_SALT: u64 = 0x00C0_11EC_7A11;

/// Salt folding the collection round into the per-user rng streams of a
/// longitudinal campaign. Round 0 deliberately bypasses it (see
/// [`user_rng_round`]).
pub(crate) const ROUND_SALT: u64 = 0x0F1_0D5EED;

/// The pipeline's per-user report-sampling stream: a
/// [`SmallRng`] (SplitMix64, O(1) seeding) derived from
/// `mix3(seed, uid, USER_SALT)`. Seeding a full `StdRng` per user used to
/// cost a four-round seed expansion on the ingest hot path; the contract is
/// unchanged — each user's randomness is a pure function of
/// `(seed, uid, USER_SALT)`, so every pipeline mode is bit-identical for
/// every thread count. Exposed so tests and external drivers can regenerate
/// the exact wire (`tests/server_equivalence.rs` pins this scheme).
pub fn user_rng(seed: u64, uid: u64) -> SmallRng {
    SmallRng::seed_from_u64(mix3(seed, uid, USER_SALT))
}

/// The per-round twin of [`user_rng`] for longitudinal collection: user
/// `uid`'s sanitization stream in round `round`. Round 0 is **exactly**
/// [`user_rng`]`(seed, uid)` — the single-round pipeline, every
/// equivalence test pinning its scheme, and the memoization policy (which
/// replays round 0's report) all keep their bits — while later rounds fold
/// the round index into the seed so each fresh-randomness round draws an
/// independent stream.
pub fn user_rng_round(seed: u64, uid: u64, round: u64) -> SmallRng {
    if round == 0 {
        user_rng(seed, uid)
    } else {
        user_rng(mix3(seed, round, ROUND_SALT), uid)
    }
}

/// How the privacy budget is managed across the `R` rounds of a
/// longitudinal collection (the trade-off surveyed by Wang & Zhao et al.,
/// arXiv:1906.01777, and the lever behind the paper-style averaging risk).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetPolicy {
    /// Naive ε-splitting: every round sanitizes with **fresh** randomness
    /// at ε/R, so the campaign composes to ε-LDP overall — but each fresh
    /// report leaks a new independent view the averaging adversary pools.
    SplitEps,
    /// RAPPOR-style memoization: sanitize once at full ε in round 0 and
    /// replay that memoized report bit-identically every round. Repeated
    /// rounds reveal nothing new, at the cost of a stable per-user
    /// pseudonym on the wire.
    Memoize,
}

impl BudgetPolicy {
    /// Every policy, in documentation order.
    pub const ALL: [BudgetPolicy; 2] = [BudgetPolicy::SplitEps, BudgetPolicy::Memoize];

    /// Stable identifier used by the `risks serve` CLI.
    pub fn id(self) -> &'static str {
        match self {
            BudgetPolicy::SplitEps => "split",
            BudgetPolicy::Memoize => "memoize",
        }
    }

    /// Looks a policy up by its identifier.
    pub fn from_id(id: &str) -> Option<BudgetPolicy> {
        BudgetPolicy::ALL.into_iter().find(|p| p.id() == id)
    }
}

impl std::fmt::Display for BudgetPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// How many times every user reports, and how the total budget is spent
/// across those rounds. Set once with [`CollectionPipeline::rounds`];
/// the default is a single round, the paper's one-shot survey.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rounds {
    count: usize,
    policy: BudgetPolicy,
}

/// The error [`Rounds::new`] returns for a zero round count: a campaign
/// collects at least once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroRounds;

impl std::fmt::Display for ZeroRounds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("a collection campaign needs at least one round")
    }
}

impl std::error::Error for ZeroRounds {}

impl Default for Rounds {
    fn default() -> Self {
        Rounds {
            count: 1,
            policy: BudgetPolicy::SplitEps,
        }
    }
}

impl Rounds {
    /// `count` rounds under `policy`; [`ZeroRounds`] when `count == 0`.
    pub fn new(count: usize, policy: BudgetPolicy) -> Result<Rounds, ZeroRounds> {
        if count == 0 {
            return Err(ZeroRounds);
        }
        Ok(Rounds { count, policy })
    }

    /// The solution one round collects with, given the campaign's
    /// total-budget solution: the same solution at ε/R under
    /// [`BudgetPolicy::SplitEps`], the total one unchanged under
    /// [`BudgetPolicy::Memoize`] or at a single round. Producers and server
    /// must both build this one (equal fingerprints on the wire).
    pub fn solution(self, total: &DynSolution) -> Result<DynSolution, ProtocolError> {
        match self.policy {
            BudgetPolicy::SplitEps if self.count > 1 => total
                .kind()
                .build(total.ks(), total.epsilon() / self.count as f64),
            _ => Ok(total.clone()),
        }
    }

    /// The rng round that produces round `round`'s report: memoization
    /// replays round 0's stream, ε-splitting draws fresh randomness.
    fn rng_round(self, round: u64) -> u64 {
        match self.policy {
            BudgetPolicy::Memoize => 0,
            BudgetPolicy::SplitEps => round,
        }
    }
}

/// A population the pipeline can collect: `n` users, each of whom turns
/// their own record into one sanitized report.
pub trait Population: Sync {
    /// Number of users.
    fn n(&self) -> usize;

    /// Panics when the population's schema does not match `solution`.
    fn check(&self, solution: &DynSolution);

    /// User `uid`'s report under `solution`, drawn from `rng`, beside the
    /// attribute a fake-data solution really sanitized (see
    /// [`DynSolution::report_with_truth`]). Only the report is ever sent.
    fn report(
        &self,
        solution: &DynSolution,
        uid: usize,
        rng: &mut SmallRng,
    ) -> (SolutionReport, Option<usize>);

    /// The categorical records (the adversary's background knowledge).
    fn categorical(&self) -> &Dataset;

    /// The continuous ground truth of a mixed population, `None` for a
    /// purely categorical one.
    fn numeric_truth(&self) -> Option<&MixedDataset>;
}

impl Population for Dataset {
    fn n(&self) -> usize {
        Dataset::n(self)
    }

    fn check(&self, solution: &DynSolution) {
        assert_eq!(
            self.d(),
            solution.d(),
            "dataset does not match the solution schema"
        );
    }

    fn report(
        &self,
        solution: &DynSolution,
        uid: usize,
        rng: &mut SmallRng,
    ) -> (SolutionReport, Option<usize>) {
        solution.report_with_truth(self.row(uid), rng)
    }

    fn categorical(&self) -> &Dataset {
        self
    }

    fn numeric_truth(&self) -> Option<&MixedDataset> {
        None
    }
}

/// Each user's categorical row and normalized numeric row are sanitized
/// together through [`DynSolution::report_mixed`]; the solution must be a
/// mixed one.
impl Population for MixedDataset {
    fn n(&self) -> usize {
        MixedDataset::n(self)
    }

    fn check(&self, solution: &DynSolution) {
        assert_eq!(
            self.ks(),
            solution.ks().to_vec(),
            "mixed dataset does not match the solution's heterogeneous ks"
        );
    }

    /// The dataset validated every numeric value at construction, so a
    /// reporting error here is a bug, not bad input.
    fn report(
        &self,
        solution: &DynSolution,
        uid: usize,
        rng: &mut SmallRng,
    ) -> (SolutionReport, Option<usize>) {
        let report = solution
            .report_mixed(self.cat().row(uid), self.num_row(uid), rng)
            .expect("mixed dataset values are validated at construction");
        (report, None)
    }

    fn categorical(&self) -> &Dataset {
        self.cat()
    }

    fn numeric_truth(&self) -> Option<&MixedDataset> {
        Some(self)
    }
}

/// One producer's share of a [`CollectionPipeline::serve_remote`] fleet:
/// it streams the users with `uid % parts == part`, so `parts` producers
/// each running a distinct `part` cover the population exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Producer {
    /// This producer's index in `0..parts`.
    pub part: usize,
    /// Fleet size.
    pub parts: usize,
    /// With `snapshot_every > 0`, a non-quiescing SNAPSHOT round trip every
    /// that many waves of each round (the estimate-while-ingesting stream).
    pub snapshot_every: usize,
}

/// Configurable collection driver. Build with [`CollectionPipeline::new`] /
/// [`CollectionPipeline::from_kind`], chain the builder setters, then call
/// one of the four verbs.
#[derive(Debug, Clone)]
pub struct CollectionPipeline {
    /// The configured solution, carrying the campaign's total budget.
    total: DynSolution,
    /// The solution every round sanitizes with (derived from `total`).
    solution: DynSolution,
    rounds: Rounds,
    seed: u64,
    threads: usize,
    net: ClientConfig,
}

/// The outcome of one pipeline pass.
#[derive(Debug, Clone)]
pub struct CollectionRun {
    /// The merged server state over every round (reusable: keep absorbing
    /// or merge further shards, e.g. from other collection sites).
    pub aggregator: MultidimAggregator,
    /// Unbiased per-attribute frequency estimates.
    pub estimates: Vec<Vec<f64>>,
    /// Estimates projected onto the probability simplex.
    pub normalized: Vec<Vec<f64>>,
    /// Number of reports collected (users × rounds).
    pub n: u64,
    /// Number of parallel shards that were merged.
    pub shards: usize,
    /// One window per round of a multi-round run, oldest first, each
    /// holding exactly that round's reports; empty for a single round.
    pub epochs: Vec<EpochSnapshot>,
}

impl CollectionPipeline {
    /// Wraps an already-built solution with default seed and thread count,
    /// collecting one round.
    pub fn new(solution: DynSolution) -> Self {
        CollectionPipeline {
            total: solution.clone(),
            solution,
            rounds: Rounds::default(),
            seed: 0,
            threads: par::default_threads(),
            net: ClientConfig::default(),
        }
    }

    /// Builds the solution from its kind — the one-stop constructor for
    /// sweeps (`SolutionKind::build` under the hood).
    pub fn from_kind(
        kind: SolutionKind,
        ks: &[usize],
        epsilon: f64,
    ) -> Result<Self, ProtocolError> {
        Ok(CollectionPipeline::new(kind.build(ks, epsilon)?))
    }

    /// Sets the collection seed (per-user randomness derives from it).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker thread count (`1` runs inline; results are identical
    /// for every value).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the client-side wire behavior (auth, deadlines, reconnect
    /// policy, fault injection) [`CollectionPipeline::serve_remote`]
    /// connects with. In-process passes ignore it.
    pub fn client(mut self, cfg: ClientConfig) -> Self {
        self.net = cfg;
        self
    }

    /// Collects over `rounds`: the configured solution carries the
    /// **total** budget, and the per-round solution is derived from it
    /// ([`Rounds::solution`]), so setting rounds again replaces the split
    /// instead of splitting ε twice. Every round's report of user `uid`
    /// draws from [`user_rng_round`] — fresh per round under
    /// [`BudgetPolicy::SplitEps`], round 0's replayed under
    /// [`BudgetPolicy::Memoize`] (the functional definition of
    /// memoization, with no per-user cache).
    pub fn rounds(mut self, rounds: Rounds) -> Result<Self, ProtocolError> {
        self.solution = rounds.solution(&self.total)?;
        self.rounds = rounds;
        Ok(self)
    }

    /// The solution every report is sanitized with: the configured one for
    /// a single round, its per-round derivation otherwise (ε/R under
    /// [`BudgetPolicy::SplitEps`]). A server ingesting this pipeline's
    /// reports, and an attack matching them, must use this one.
    pub fn solution(&self) -> &DynSolution {
        &self.solution
    }

    /// The batch pass: every user's record is sanitized with its own
    /// deterministic rng and absorbed straight into a per-thread aggregator
    /// shard, once per round; shards merge exactly into the returned run,
    /// and each round's merge is kept as one of its
    /// [`CollectionRun::epochs`] when there are several.
    ///
    /// # Panics
    /// Panics when the population does not match the solution schema.
    pub fn run(&self, population: &impl Population) -> CollectionRun {
        self.collect(
            population,
            || self.solution.aggregator(),
            |agg, (report, _)| agg.absorb(&report),
            |agg| agg,
        )
    }

    /// [`CollectionPipeline::run`] that also hands back the wire: each
    /// report is produced **once**, absorbed into its thread's aggregator
    /// shard *and* kept as the §3.1 adversary's observation, round-major
    /// (round `r`'s reports occupy `r·n .. (r+1)·n`, each round in user
    /// order). Each report is paired with its ground truth, the attribute a
    /// fake-data solution really sanitized (`None` for the others), which
    /// the wire itself never carries. Buffers every report (the adversary
    /// must hold the wire anyway); use [`CollectionPipeline::run`] when
    /// nothing observes it.
    ///
    /// # Panics
    /// Panics when the population does not match the solution schema.
    pub fn run_with_observation(
        &self,
        population: &impl Population,
    ) -> (CollectionRun, Vec<(SolutionReport, Option<usize>)>) {
        let mut observed = Vec::with_capacity(self.rounds.count * population.n());
        let run = self.collect(
            population,
            || (self.solution.aggregator(), Vec::new()),
            |(agg, reports), observation| {
                agg.absorb(&observation.0);
                reports.push(observation);
            },
            |(agg, reports)| {
                observed.extend(reports);
                agg
            },
        );
        (run, observed)
    }

    /// The streamed pass: spins up an [`LdpServer`] with one shard per
    /// configured thread and, round by round, pushes every user's report
    /// through its bounded channels following the round's `traffic`
    /// schedule ([`TrafficGenerator::waves_for_round`]), then drains it.
    /// The thread count drives **both** sides of the channel: each wave is
    /// sanitized by up to `threads` concurrent producers feeding `threads`
    /// aggregator shards. With several rounds, each one is closed with
    /// [`LdpServer::advance_epoch`] and every window is returned.
    ///
    /// Every user arrives exactly once per round whatever the traffic
    /// shape, and the server's merge is exact integer addition, so the
    /// result — cumulative run and every epoch window — is
    /// **bit-identical** to [`CollectionPipeline::run`] at equal seed, for
    /// every thread count and [`TrafficShape`](crate::traffic::TrafficShape)
    /// (property-tested in `tests/server_equivalence.rs`).
    ///
    /// # Panics
    /// Panics when the population does not match the solution schema, or
    /// when `traffic` was built for a different population size.
    pub fn serve(&self, population: &impl Population, traffic: &TrafficGenerator) -> CollectionRun {
        // Scoped producer threads are spawned per wave, so don't fan a small
        // wave out across the full thread budget: below this many users per
        // producer the spawn/join churn outweighs the parallel sanitization
        // (a steady 10M-user schedule has ~10k waves).
        const MIN_USERS_PER_PRODUCER: usize = 4096;
        self.check_traffic(population, traffic);
        let server = LdpServer::spawn(
            self.solution.clone(),
            ServerConfig::default()
                .shards(self.threads)
                .retain(self.rounds.count),
        );
        for round in 0..self.rounds.count as u64 {
            for wave in traffic.waves_for_round(round) {
                // Parallel producers: sanitization dominates the cost, so the
                // wave is split into contiguous chunks ingested concurrently.
                let producers = self
                    .threads
                    .min(wave.len().div_ceil(MIN_USERS_PER_PRODUCER))
                    .max(1);
                par::par_chunks(wave.len(), producers, |range| {
                    server.ingest_batch(wave[range].iter().map(|&uid| Envelope {
                        uid,
                        report: self.sanitize(population, uid, round).0,
                    }));
                    Vec::<()>::new()
                });
            }
            if self.rounds.count > 1 {
                server.advance_epoch();
            }
        }
        let epochs = server.epochs();
        CollectionRun {
            epochs,
            ..server.drain().into()
        }
    }

    /// The multi-process pass: one `producer` of a fleet connects to a
    /// remote [`WireServer`](ldp_server::WireServer) at `addr` (handshaking
    /// with [`CollectionPipeline::solution`]) and streams its share of every
    /// round's traffic as checksummed BATCH_SEQ frames, handing each periodic
    /// snapshot to `on_snapshot`. With several rounds, an `EPOCH` barrier
    /// round trip closes each one so the whole fleet advances in lockstep
    /// (bind the server with `WireServer::producers(parts)`); a single
    /// round sends no `EPOCH`. Returns the reports the server acknowledged
    /// at DRAIN.
    ///
    /// Reports come from the same per-user streams as
    /// [`CollectionPipeline::run`], so the fleet's drain is
    /// **bit-identical** to the in-process run at equal seed
    /// (`tests/net_equivalence.rs` pins this across thread and connection
    /// counts).
    ///
    /// # Panics
    /// Panics when the population does not match the solution schema, the
    /// traffic schedule does not match the population, or
    /// `producer.part >= producer.parts`.
    pub fn serve_remote(
        &self,
        population: &impl Population,
        traffic: &TrafficGenerator,
        addr: &str,
        producer: Producer,
        on_snapshot: &mut dyn FnMut(&ldp_server::WireSnapshot),
    ) -> Result<u64, ldp_server::WireError> {
        let Producer {
            part,
            parts,
            snapshot_every,
        } = producer;
        self.check_traffic(population, traffic);
        assert!(
            part < parts,
            "producer part {part} outside fleet of {parts}"
        );
        let mut client = NetClient::connect_with(addr, &self.solution, self.net.clone())?;
        for round in 0..self.rounds.count as u64 {
            for (i, wave) in traffic.waves_for_round(round).enumerate() {
                for &uid in wave
                    .iter()
                    .filter(|&&uid| uid % parts as u64 == part as u64)
                {
                    client.push(uid, &self.sanitize(population, uid, round).0)?;
                }
                if snapshot_every > 0 && (i + 1) % snapshot_every == 0 {
                    on_snapshot(&client.snapshot(false)?);
                }
            }
            if self.rounds.count > 1 {
                client.advance_epoch(round)?;
            }
        }
        client.finish()
    }

    /// The one seeded per-user sanitize call behind every verb: user
    /// `uid`'s report in round `round` with its ground truth (see
    /// [`Population::report`]), drawn from
    /// [`user_rng_round`]`(seed, uid, rng_round)`. Keeping every verb on
    /// this call is what makes the batch, streamed, wire and observed
    /// reports bit-identical.
    fn sanitize<P: Population>(
        &self,
        population: &P,
        uid: u64,
        round: u64,
    ) -> (SolutionReport, Option<usize>) {
        let mut rng = user_rng_round(self.seed, uid, self.rounds.rng_round(round));
        population.report(&self.solution, uid as usize, &mut rng)
    }

    /// The per-round sanitize loop behind `run` and
    /// `run_with_observation`: each worker chunk folds its users' reports
    /// into one `A` via `absorb`; `shard` then turns every chunk (in user
    /// order) into its aggregator shard, and each round's shards merge into
    /// that round's window.
    fn collect<P: Population, A: Send>(
        &self,
        population: &P,
        init: impl Fn() -> A + Sync,
        absorb: impl Fn(&mut A, (SolutionReport, Option<usize>)) + Sync,
        mut shard: impl FnMut(A) -> MultidimAggregator,
    ) -> CollectionRun {
        population.check(&self.solution);
        let mut windows: Vec<ServerSnapshot> = (0..self.rounds.count as u64)
            .map(|round| {
                let chunks = par::par_chunks(population.n(), self.threads, |range| {
                    let mut acc = init();
                    for uid in range {
                        absorb(&mut acc, self.sanitize(population, uid as u64, round));
                    }
                    vec![acc]
                });
                let shards: Vec<MultidimAggregator> = chunks.into_iter().map(&mut shard).collect();
                ServerSnapshot::from_aggregator(self.merge(&shards), shards.len().max(1))
            })
            .collect();
        if windows.len() == 1 {
            return windows.swap_remove(0).into();
        }
        let cumulative = ServerSnapshot::from_aggregator(
            self.merge(windows.iter().map(|w| &w.aggregator)),
            windows[0].shards,
        );
        CollectionRun {
            epochs: (0u64..)
                .zip(windows)
                .map(|(epoch, snapshot)| EpochSnapshot { epoch, snapshot })
                .collect(),
            ..cumulative.into()
        }
    }

    /// Merges aggregator shards exactly (integer addition).
    fn merge<'a>(
        &self,
        shards: impl IntoIterator<Item = &'a MultidimAggregator>,
    ) -> MultidimAggregator {
        let mut aggregator = self.solution.aggregator();
        for shard in shards {
            aggregator.merge(shard);
        }
        aggregator
    }

    fn check_traffic(&self, population: &impl Population, traffic: &TrafficGenerator) {
        population.check(&self.solution);
        assert_eq!(
            traffic.n(),
            population.n(),
            "traffic schedule does not match the dataset population"
        );
    }
}

/// A run from a drained or merged server snapshot, with no epoch windows.
/// Shared by the batch and streamed paths, so both produce identical
/// estimates from identical counts — including the zero-users edge, where
/// the estimates are all-zero (not NaN, and not a fabricated uniform
/// distribution).
impl From<ServerSnapshot> for CollectionRun {
    fn from(snapshot: ServerSnapshot) -> CollectionRun {
        CollectionRun {
            estimates: snapshot.estimates,
            normalized: snapshot.normalized,
            n: snapshot.n,
            shards: snapshot.shards,
            aggregator: snapshot.aggregator,
            epochs: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::solutions::{RsFdProtocol, RsRfdProtocol};
    use ldp_datasets::corpora::adult_like;
    use ldp_datasets::{Dataset, Schema};
    use ldp_protocols::ProtocolKind;

    fn all_kinds() -> Vec<SolutionKind> {
        vec![
            SolutionKind::Spl(ProtocolKind::Grr),
            SolutionKind::Smp(ProtocolKind::Oue),
            SolutionKind::RsFd(RsFdProtocol::Grr),
            SolutionKind::RsRfd(RsRfdProtocol::Grr),
        ]
    }

    /// `pipeline` collecting `count` rounds under `policy`.
    fn over(
        pipeline: &CollectionPipeline,
        count: usize,
        policy: BudgetPolicy,
    ) -> CollectionPipeline {
        pipeline
            .clone()
            .rounds(Rounds::new(count, policy).unwrap())
            .unwrap()
    }

    #[test]
    fn deterministic_and_thread_count_independent() {
        let ds = adult_like(600, 3);
        let ks = ds.schema().cardinalities();
        for kind in all_kinds() {
            let single = CollectionPipeline::from_kind(kind, &ks, 2.0)
                .unwrap()
                .seed(11)
                .threads(1)
                .run(&ds);
            let parallel = CollectionPipeline::from_kind(kind, &ks, 2.0)
                .unwrap()
                .seed(11)
                .threads(4)
                .run(&ds);
            assert_eq!(single.n, 600);
            assert_eq!(single.aggregator.counts(), parallel.aggregator.counts());
            for (a, b) in single
                .estimates
                .iter()
                .flatten()
                .zip(parallel.estimates.iter().flatten())
            {
                assert_eq!(a.to_bits(), b.to_bits(), "{kind}: thread count leaked");
            }
        }
    }

    #[test]
    fn recovers_marginals_on_a_skewed_population() {
        // Everyone holds value 1 on attribute 0.
        let schema = Schema::from_cardinalities(&[4, 3]);
        let data: Vec<u32> = (0..20_000u32).flat_map(|i| [1, i % 3]).collect();
        let ds = Dataset::new(schema, data);
        let run = CollectionPipeline::from_kind(SolutionKind::Smp(ProtocolKind::Grr), &[4, 3], 3.0)
            .unwrap()
            .seed(5)
            .threads(3)
            .run(&ds);
        assert!(
            (run.estimates[0][1] - 1.0).abs() < 0.08,
            "{:?}",
            run.estimates[0]
        );
        let total: f64 = run.normalized[1].iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn observe_replays_the_collected_messages_exactly() {
        let ds = adult_like(300, 3);
        let ks = ds.schema().cardinalities();
        let pipeline =
            CollectionPipeline::from_kind(SolutionKind::RsFd(RsFdProtocol::Grr), &ks, 2.0)
                .unwrap()
                .seed(9)
                .threads(3);
        let run = pipeline.run(&ds);
        let (_, observed) = pipeline.run_with_observation(&ds);
        assert_eq!(observed.len(), 300);
        // Absorbing the observed wire messages reproduces the server state
        // bit for bit: the adversary saw exactly what was collected.
        let mut agg = pipeline.solution().aggregator();
        for (r, sampled) in &observed {
            agg.absorb(r);
            assert!(sampled.is_some_and(|j| j < ks.len()));
        }
        assert_eq!(agg.counts(), run.aggregator.counts());
    }

    #[test]
    fn run_with_observation_matches_separate_run_and_observe() {
        let ds = adult_like(250, 6);
        let ks = ds.schema().cardinalities();
        let pipeline =
            CollectionPipeline::from_kind(SolutionKind::Smp(ProtocolKind::Oue), &ks, 2.0)
                .unwrap()
                .seed(13)
                .threads(4);
        let (run, observed) = pipeline.run_with_observation(&ds);
        assert_eq!(
            run.aggregator.counts(),
            pipeline.run(&ds).aggregator.counts()
        );
        let (_, replayed) = pipeline.clone().threads(1).run_with_observation(&ds);
        assert_eq!(observed.len(), replayed.len());
        // Same rng streams → the single-pass wire equals the replayed wire.
        let mut a = pipeline.solution().aggregator();
        let mut b = pipeline.solution().aggregator();
        for ((x, _), (y, _)) in observed.iter().zip(&replayed) {
            a.absorb(x);
            b.absorb(y);
        }
        assert_eq!(a.counts(), b.counts());
    }

    #[test]
    fn serve_is_bit_identical_to_run() {
        use crate::traffic::{TrafficGenerator, TrafficShape};
        let ds = adult_like(700, 5);
        let ks = ds.schema().cardinalities();
        let pipeline =
            CollectionPipeline::from_kind(SolutionKind::RsFd(RsFdProtocol::Grr), &ks, 1.5)
                .unwrap()
                .seed(21)
                .threads(3);
        let batch = pipeline.run(&ds);
        for shape in TrafficShape::ALL {
            let traffic = TrafficGenerator::new(shape, ds.n()).seed(21).wave(97);
            let served = pipeline.serve(&ds, &traffic);
            assert_eq!(served.n, batch.n, "{shape}");
            assert_eq!(
                served.aggregator.counts(),
                batch.aggregator.counts(),
                "{shape}"
            );
            for (a, b) in served
                .estimates
                .iter()
                .flatten()
                .zip(batch.estimates.iter().flatten())
            {
                assert_eq!(a.to_bits(), b.to_bits(), "{shape}: serve leaked");
            }
        }
    }

    #[test]
    fn empty_dataset_yields_empty_but_valid_run() {
        use crate::traffic::{TrafficGenerator, TrafficShape};
        let schema = Schema::from_cardinalities(&[4, 3]);
        let ds = Dataset::new(schema, Vec::new());
        for kind in all_kinds() {
            let pipeline = CollectionPipeline::from_kind(kind, &[4, 3], 1.0)
                .unwrap()
                .seed(1)
                .threads(4);
            for run in [
                pipeline.run(&ds),
                pipeline.serve(&ds, &TrafficGenerator::new(TrafficShape::Burst, 0)),
            ] {
                assert_eq!(run.n, 0, "{kind}");
                assert_eq!(run.estimates.len(), 2, "{kind}");
                assert!(
                    run.estimates.iter().flatten().all(|f| *f == 0.0),
                    "{kind}: empty run must estimate zeros, got {:?}",
                    run.estimates
                );
                assert!(
                    run.normalized.iter().flatten().all(|f| *f == 0.0),
                    "{kind}: no data must not fabricate a uniform distribution"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not match the solution schema")]
    fn rejects_schema_mismatch() {
        let ds = adult_like(50, 1);
        CollectionPipeline::from_kind(SolutionKind::RsFd(RsFdProtocol::Grr), &[4, 3], 1.0)
            .unwrap()
            .run(&ds);
    }

    fn mixed_pipeline(seed: u64) -> (ldp_datasets::MixedDataset, CollectionPipeline) {
        use ldp_core::solutions::MixedKind;
        use ldp_core::NumericKind;
        let mixed = ldp_datasets::mixed::mixed_survey_like(900, seed);
        let pipeline = CollectionPipeline::from_kind(
            SolutionKind::Mixed(MixedKind {
                protocol: ProtocolKind::Grr,
                numeric: NumericKind::Hybrid,
                sample_k: 2,
            }),
            &mixed.ks(),
            2.0,
        )
        .unwrap()
        .seed(seed);
        (mixed, pipeline)
    }

    #[test]
    fn mixed_run_is_thread_count_independent() {
        let (mixed, pipeline) = mixed_pipeline(17);
        let serial = pipeline.clone().threads(1).run(&mixed);
        for threads in [2usize, 8] {
            let sharded = pipeline.clone().threads(threads).run(&mixed);
            assert_eq!(serial.n, sharded.n);
            assert_eq!(
                serial.aggregator.counts(),
                sharded.aggregator.counts(),
                "threads={threads}"
            );
            assert_eq!(
                serial.aggregator.num_sums(),
                sharded.aggregator.num_sums(),
                "threads={threads}: numeric fixed-point sums leaked thread count"
            );
            for (a, b) in serial
                .estimates
                .iter()
                .flatten()
                .zip(sharded.estimates.iter().flatten())
            {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn mixed_serve_is_bit_identical_to_run_mixed() {
        use crate::traffic::{TrafficGenerator, TrafficShape};
        let (mixed, pipeline) = mixed_pipeline(23);
        let pipeline = pipeline.threads(3);
        let batch = pipeline.run(&mixed);
        let traffic = TrafficGenerator::new(TrafficShape::Burst, mixed.n())
            .seed(23)
            .wave(101);
        let served = pipeline.serve(&mixed, &traffic);
        assert_eq!(served.n, batch.n);
        assert_eq!(served.aggregator.counts(), batch.aggregator.counts());
        assert_eq!(served.aggregator.num_sums(), batch.aggregator.num_sums());
        for (a, b) in served
            .estimates
            .iter()
            .flatten()
            .zip(batch.estimates.iter().flatten())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn mixed_observation_replays_the_absorbed_wire() {
        let (mixed, pipeline) = mixed_pipeline(31);
        let pipeline = pipeline.threads(4);
        let (run, observed) = pipeline.run_with_observation(&mixed);
        assert_eq!(observed.len(), mixed.n());
        let mut agg = pipeline.solution().aggregator();
        for (r, _) in &observed {
            agg.absorb(r);
        }
        assert_eq!(agg.counts(), run.aggregator.counts());
        assert_eq!(agg.num_sums(), run.aggregator.num_sums());
        assert_eq!(
            observed.len(),
            pipeline
                .clone()
                .threads(1)
                .run_with_observation(&mixed)
                .1
                .len(),
            "replayed wire must match the single-pass wire"
        );
    }

    #[test]
    fn budget_policy_ids_roundtrip() {
        for policy in BudgetPolicy::ALL {
            assert_eq!(BudgetPolicy::from_id(policy.id()), Some(policy));
            assert_eq!(policy.to_string(), policy.id());
        }
        assert_eq!(BudgetPolicy::from_id("nope"), None);
    }

    #[test]
    fn zero_rounds_is_a_typed_error() {
        for policy in BudgetPolicy::ALL {
            assert_eq!(Rounds::new(0, policy), Err(ZeroRounds));
            assert!(Rounds::new(1, policy).is_ok());
        }
        assert!(ZeroRounds.to_string().contains("at least one round"));
        assert_eq!(
            Rounds::default(),
            Rounds::new(1, BudgetPolicy::SplitEps).unwrap()
        );
    }

    #[test]
    fn setting_rounds_twice_splits_the_total_budget_once() {
        let pipeline =
            CollectionPipeline::from_kind(SolutionKind::Smp(ProtocolKind::Grr), &[4, 3], 4.0)
                .unwrap();
        let twice = over(
            &over(&pipeline, 2, BudgetPolicy::SplitEps),
            4,
            BudgetPolicy::SplitEps,
        );
        assert_eq!(
            twice.solution().epsilon(),
            1.0,
            "ε/4 of the total, not (ε/2)/4"
        );
        let back = over(&twice, 1, BudgetPolicy::SplitEps);
        assert_eq!(back.solution().epsilon(), 4.0, "one round spends the total");
        let memo = over(&twice, 4, BudgetPolicy::Memoize);
        assert_eq!(
            memo.solution().epsilon(),
            4.0,
            "memoization spends the total once"
        );
    }

    #[test]
    fn one_round_campaigns_match_the_single_round_run_bit_for_bit() {
        let ds = adult_like(400, 4);
        let ks = ds.schema().cardinalities();
        for kind in all_kinds() {
            let pipeline = CollectionPipeline::from_kind(kind, &ks, 2.0)
                .unwrap()
                .seed(33)
                .threads(3);
            let single = pipeline.run(&ds);
            for policy in BudgetPolicy::ALL {
                let round = over(&pipeline, 1, policy).run(&ds);
                assert!(round.epochs.is_empty(), "{kind}/{policy}");
                assert_eq!(
                    round.aggregator.counts(),
                    single.aggregator.counts(),
                    "{kind}/{policy}: R=1 must degenerate to the single-round pipeline"
                );
            }
        }
    }

    #[test]
    fn memoize_replays_round_zero_bit_identically() {
        let ds = adult_like(500, 3);
        let ks = ds.schema().cardinalities();
        let pipeline =
            CollectionPipeline::from_kind(SolutionKind::Smp(ProtocolKind::Grr), &ks, 4.0)
                .unwrap()
                .seed(7)
                .threads(2);
        let runs = over(&pipeline, 4, BudgetPolicy::Memoize).run(&ds).epochs;
        assert_eq!(runs.len(), 4);
        for (r, run) in runs.iter().enumerate() {
            assert_eq!(
                run.snapshot.aggregator.counts(),
                runs[0].snapshot.aggregator.counts(),
                "memoized round {r} must replay round 0's reports exactly"
            );
        }
        // Full-ε: round 0 equals the single-round run.
        assert_eq!(
            runs[0].snapshot.aggregator.counts(),
            pipeline.run(&ds).aggregator.counts()
        );
    }

    #[test]
    fn split_eps_draws_fresh_randomness_each_round() {
        let ds = adult_like(500, 3);
        let ks = ds.schema().cardinalities();
        let pipeline =
            CollectionPipeline::from_kind(SolutionKind::Smp(ProtocolKind::Grr), &ks, 4.0)
                .unwrap()
                .seed(7)
                .threads(2);
        let runs = over(&pipeline, 3, BudgetPolicy::SplitEps).run(&ds).epochs;
        assert_ne!(
            runs[0].snapshot.aggregator.counts(),
            runs[1].snapshot.aggregator.counts(),
            "ε-splitting rounds must be independently randomized"
        );
        assert_ne!(
            runs[1].snapshot.aggregator.counts(),
            runs[2].snapshot.aggregator.counts()
        );
    }

    #[test]
    fn observe_rounds_is_round_major_and_replays_run_rounds() {
        let ds = adult_like(300, 3);
        let ks = ds.schema().cardinalities();
        let pipeline =
            CollectionPipeline::from_kind(SolutionKind::RsFd(RsFdProtocol::Grr), &ks, 3.0)
                .unwrap()
                .seed(19)
                .threads(3);
        for policy in BudgetPolicy::ALL {
            let pipeline = over(&pipeline, 3, policy);
            let runs = pipeline.run(&ds).epochs;
            let (_, observed) = pipeline.run_with_observation(&ds);
            assert_eq!(observed.len(), 3 * ds.n(), "{policy}");
            for (r, run) in runs.iter().enumerate() {
                let mut agg = pipeline.solution().aggregator();
                for (report, _) in &observed[r * ds.n()..(r + 1) * ds.n()] {
                    agg.absorb(report);
                }
                assert_eq!(
                    agg.counts(),
                    run.snapshot.aggregator.counts(),
                    "{policy}: round {r}'s observed slice must replay its run"
                );
            }
        }
    }

    #[test]
    fn serve_rounds_epochs_match_batch_rounds_and_cumulative_drain() {
        use crate::traffic::{TrafficGenerator, TrafficShape};
        let ds = adult_like(600, 5);
        let ks = ds.schema().cardinalities();
        let pipeline =
            CollectionPipeline::from_kind(SolutionKind::RsFd(RsFdProtocol::Grr), &ks, 2.0)
                .unwrap()
                .seed(29)
                .threads(3);
        for policy in BudgetPolicy::ALL {
            let pipeline = over(&pipeline, 3, policy);
            let runs = pipeline.run(&ds).epochs;
            let traffic = TrafficGenerator::new(TrafficShape::Churn, ds.n())
                .seed(29)
                .wave(113);
            let served = pipeline.serve(&ds, &traffic);
            assert_eq!(served.epochs.len(), 3, "{policy}");
            let mut merged = pipeline.solution().aggregator();
            for (r, (epoch, run)) in served.epochs.iter().zip(&runs).enumerate() {
                assert_eq!(epoch.epoch, r as u64, "{policy}");
                assert_eq!(
                    epoch.snapshot.aggregator.counts(),
                    run.snapshot.aggregator.counts(),
                    "{policy}: epoch {r}'s window must be bit-identical to its batch round"
                );
                merged.merge(&run.snapshot.aggregator);
            }
            assert_eq!(
                served.aggregator.counts(),
                merged.counts(),
                "{policy}: cumulative drain must merge every round exactly"
            );
            assert_eq!(served.n, 3 * ds.n() as u64, "{policy}");
        }
    }

    #[test]
    #[should_panic(expected = "heterogeneous ks")]
    fn mixed_run_rejects_schema_mismatch() {
        let (mixed, _) = mixed_pipeline(1);
        let wrong = CollectionPipeline::from_kind(
            SolutionKind::Mixed(ldp_core::solutions::MixedKind {
                protocol: ProtocolKind::Grr,
                numeric: ldp_core::NumericKind::Duchi,
                sample_k: 1,
            }),
            &[8, 5, 0],
            1.0,
        )
        .unwrap();
        wrong.run(&mixed);
    }
}
