//! # ldp-sim
//!
//! Survey-campaign simulation engine for the paper's §3.1 system model: a
//! server repeatedly surveys the same population, each survey covering a
//! random subset of at least `d/2` attributes, while an adversary observes
//! every sanitized message and builds per-user profiles.
//!
//! * [`survey::SurveyPlan`] — the sequence of per-survey attribute subsets.
//! * [`campaign::SmpCampaign`] — the SMP data-collection + profiling pipeline
//!   under ε-LDP or α-PIE privacy, uniform or non-uniform privacy metrics
//!   (with memoization).
//! * [`rsfd_campaign`] — the Fig. 4 pipeline: RS+FD collection where the
//!   adversary must first *infer* the sampled attribute with the §3.3
//!   classifier before profiling.
//! * [`pipeline::CollectionPipeline`] — the collection driver: population →
//!   solution → sharded aggregators → merged estimates. Four verbs (`run`,
//!   `run_with_observation`, `serve`, `serve_remote`), each generic over a
//!   [`Population`] (categorical [`ldp_datasets::Dataset`] or
//!   [`ldp_datasets::MixedDataset`]) and repeated over the configured
//!   [`Rounds`] (count × [`BudgetPolicy`]).
//! * [`attack_pipeline::AttackPipeline`] — the adversary mirror: population →
//!   collection run → adversary fit (profiles / classifier / index) →
//!   sharded, per-target-seeded ASR evaluation, bit-identical for every
//!   thread count.
//! * [`traffic::TrafficGenerator`] — seeded arrival schedules (steady,
//!   burst, diurnal-ish ramp, churn) that drive the streamed
//!   [`CollectionPipeline::serve`] mode through the `ldp_server` ingestion
//!   service, bit-identical to the batch pass at equal seed.
//! * [`net_client::NetClient`] — the producer side of the ingestion wire:
//!   a blocking TCP client streaming checksummed, sequence-numbered
//!   `CompactBatch` frames to a remote `ldp_server::WireServer`, with a
//!   bounded unacked-replay ring, reconnect-and-resume, and configurable
//!   read deadlines; driven from the traffic schedule by
//!   [`CollectionPipeline::serve_remote`] for real multi-process ingestion.
//! * [`fault::FaultPlan`] — deterministic, seeded transport-fault schedules
//!   (drop / delay / reset / truncate / duplicate) the client injects on
//!   its own sends, so crash-recovery paths are exactly reproducible.
//! * [`par`] — deterministic scoped-thread parallel helpers used by the heavy
//!   sweeps.

#![deny(missing_docs)]

pub mod attack_pipeline;
pub mod campaign;
pub mod fault;
pub mod net_client;
pub mod par;
pub mod pipeline;
pub mod rsfd_campaign;
pub mod survey;
pub mod traffic;

pub use attack_pipeline::{AttackPipeline, AttackRun};
pub use campaign::{PrivacyModel, SamplingSetting, SmpCampaign};
pub use fault::{FaultKind, FaultPlan};
pub use net_client::{ClientConfig, NetClient};
pub use pipeline::{
    user_rng, user_rng_round, BudgetPolicy, CollectionPipeline, CollectionRun, Population,
    Producer, Rounds, ZeroRounds,
};
pub use rsfd_campaign::{run_rsfd_campaign, RsFdCampaignConfig};
pub use survey::SurveyPlan;
pub use traffic::{TrafficGenerator, TrafficShape};
