//! Stage replay: the ingest chain run single-threaded, stage by stage, over
//! an ingest workload's own reports, in batches of the client's and the
//! server's default size. Each stage is timed around whole batches, so the
//! clock's own cost stays below a nanosecond per report.
//!
//! Chain: sanitize → compact push → frame encode (with its CRC) → decode
//! (CRC verify, parse) → validate → absorb, then merge and estimate — what
//! a snapshot does with the shards.

use std::hint::black_box;
use std::time::Instant;

use ldp_core::solutions::{CompactBatch, DynSolution, SolutionReport};
use ldp_server::wire::{crc32, encode_batch_seq_frame, read_frame};
use ldp_server::Frame;

use crate::ingest::Population;
use crate::report::Outcome;

/// Reports replayed per run (fewer when the population is smaller).
pub const REPLAY_REPORTS: u64 = 1 << 18;
/// Reports per batch and frame: `ServerConfig::default().batch`, which is
/// also the `NetClient` default.
const BATCH: u64 = 1024;
/// Repetitions of the per-snapshot merge and estimate steps.
const SNAPSHOT_REPS: u32 = 2000;

/// Replays the chain over the first `n` reports of `pop` and records the
/// `stage.*` and `wire.*` metrics. Fails when a decoded frame differs from
/// the batch that was encoded, or when the absorbed counts differ from
/// absorbing the reports one by one.
pub fn replay(
    solution: &DynSolution,
    pop: &Population,
    n: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut ns = [0u64; 7];
    let mut lap = |stage: usize, since: Instant| ns[stage] += since.elapsed().as_nanos() as u64;
    let (mut bytes, mut crc_bytes, mut frames) = (0u64, 0u64, 0u64);
    let mut reports: Vec<SolutionReport> = Vec::with_capacity(BATCH as usize);
    let mut batch = CompactBatch::new();
    let mut frame = Vec::new();
    // Even batches go to one shard, odd ones to the other, as two workers
    // would hold them.
    let mut shards = [solution.aggregator(), solution.aggregator()];
    let mut expected = solution.aggregator();

    for (seq, lo) in (0..n).step_by(BATCH as usize).enumerate() {
        let uids = lo..(lo + BATCH).min(n);
        reports.clear();
        batch.clear();

        let t = Instant::now();
        reports.extend(uids.clone().map(|uid| pop.report(solution, uid)));
        lap(0, t);

        let t = Instant::now();
        for (uid, report) in uids.clone().zip(&reports) {
            batch.push(uid, report);
        }
        lap(1, t);

        let t = Instant::now();
        encode_batch_seq_frame(seq as u64 + 1, &batch, &mut frame);
        lap(2, t);
        bytes += frame.len() as u64;
        frames += 1;

        let t = Instant::now();
        black_box(crc32(black_box(&frame[16..])));
        lap(3, t);
        crc_bytes += frame.len() as u64 - 16;

        let t = Instant::now();
        let decoded = read_frame(&mut frame.as_slice()).map_err(|e| e.to_string())?;
        lap(4, t);
        let Frame::BatchSeq {
            seq: got,
            batch: decoded,
        } = decoded
        else {
            return Err("a BATCH_SEQ frame decoded as another frame type".to_string());
        };
        if got != seq as u64 + 1 || decoded != batch {
            return Err(format!("frame {got} did not round-trip its batch"));
        }

        let t = Instant::now();
        decoded
            .validate_for_solution(solution)
            .map_err(|e| format!("{e:?}"))?;
        lap(5, t);

        let t = Instant::now();
        shards[seq % 2].absorb_compact(&decoded);
        lap(6, t);

        for report in &reports {
            expected.absorb(report);
        }
    }

    let mut merged = solution.aggregator();
    let t = Instant::now();
    for _ in 0..SNAPSHOT_REPS {
        merged = black_box(solution.aggregator());
        for shard in &shards {
            merged.merge(black_box(shard));
        }
    }
    let merge_ns = t.elapsed().as_nanos() as f64;
    if merged.counts() != expected.counts() || merged.n() != expected.n() {
        return Err("absorbed counts differ from absorbing the reports one by one".to_string());
    }
    let t = Instant::now();
    for _ in 0..SNAPSHOT_REPS {
        black_box(black_box(&merged).estimate());
    }
    let estimate_ns = t.elapsed().as_nanos() as f64;

    let per_report = |stage: usize| ns[stage] as f64 / n as f64;
    out.set("stage.sanitize_ns", per_report(0));
    out.set("stage.compact_push_ns", per_report(1));
    out.set("stage.frame_encode_ns", per_report(2));
    out.set("stage.crc_ns", per_report(3));
    out.set(
        "stage.crc_mb_s",
        crc_bytes as f64 / 1e6 / (ns[3] as f64 / 1e9),
    );
    out.set("stage.frame_decode_ns", per_report(4));
    out.set("stage.validate_ns", per_report(5));
    out.set("stage.absorb_ns", per_report(6));
    let reps = f64::from(SNAPSHOT_REPS);
    out.set("stage.merge_us", merge_ns / 1e3 / reps);
    out.set("stage.estimate_us", estimate_ns / 1e3 / reps);
    out.set("wire.bytes_per_report", bytes as f64 / n as f64);
    out.set("wire.frames", frames as f64);
    Ok(())
}
