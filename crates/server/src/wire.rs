//! The versioned ingestion wire protocol: length-prefixed, checksummed
//! frames carrying [`CompactBatch`] envelopes and the session control
//! messages around them.
//!
//! ## Frame grammar
//!
//! Every frame is a fixed 16-byte header followed by `len` payload bytes,
//! all little-endian:
//!
//! ```text
//! offset  size  field
//!      0     4  magic     = 0x4C445057 ("LDPW")
//!      4     2  version   = 3
//!      6     1  frame type (see below)
//!      7     1  flags     (SNAPSHOT_REQUEST bit 0 = quiesce first)
//!      8     4  payload length in bytes (≤ 64 MiB)
//!     12     4  CRC-32 (IEEE) over the payload bytes
//! ```
//!
//! | type | frame            | payload                                     |
//! |------|------------------|---------------------------------------------|
//! | 0    | HELLO            | fingerprint (u64) + auth digest (u64)        |
//! | 1    | HELLO_ACK        | fingerprint (u64) + shards (u32) + session token (u64) + ack interval (u32) |
//! | 3    | SNAPSHOT_REQUEST | empty (flags bit 0 requests a quiesce)       |
//! | 4    | SNAPSHOT         | [`WireSnapshot`] (estimates + normalized)    |
//! | 5    | DRAIN            | empty — producer is done                     |
//! | 6    | DRAIN_ACK        | reports the server ingested for this session |
//! | 7    | ABORT            | error code (u16) + UTF-8 message             |
//! | 8    | EPOCH            | round index (u64) — epoch barrier / ack      |
//! | 9    | BATCH_SEQ        | sequence number (u64) + [`CompactBatch::encode_into`] bytes |
//! | 10   | BATCH_ACK        | cumulative acked seq (u64) + ingested (u64)  |
//! | 11   | RESUME           | session token (u64) + last acked seq (u64)   |
//! | 12   | RESUME_ACK       | server's cumulative acked seq (u64)          |
//!
//! A session is `HELLO → HELLO_ACK`, then any interleaving of `BATCH_SEQ`
//! and `SNAPSHOT_REQUEST → SNAPSHOT`, closed by
//! `DRAIN → DRAIN_ACK`. A longitudinal producer additionally sends
//! `EPOCH { round }` after its last batch of round `round`; the server holds
//! the frame at a fleet-wide barrier, rotates its epoch once every producer
//! has arrived, and acks with `EPOCH { round + 1 }` — the lockstep that
//! keeps a remote fleet's rounds aligned with the server's windowed
//! aggregation.
//!
//! ## Fault tolerance
//!
//! `BATCH_SEQ` carries a per-session sequence number starting at 1, strictly
//! monotone, gapless. The server acks cumulatively with
//! `BATCH_ACK { seq, n }` every [`crate::ServerConfig::ack_every`] batches
//! (the interval is announced in HELLO_ACK), which bounds the producer's
//! in-flight bytes: a client keeps at most its replay-ring budget of sealed,
//! unacked frames and blocks for an ack once the ring fills. A reconnecting
//! producer re-handshakes and sends `RESUME { session, last_acked }` with
//! the token its original HELLO_ACK issued; the server answers
//! `RESUME_ACK { acked_seq }` from its bounded session table and silently
//! discards any replayed `seq ≤ acked_seq`, so ingest stays exactly-once.
//! Because every report is a pure function of `(seed, uid)` (see
//! `ldp_sim::user_rng`), a replayed batch is bit-identical to the lost one,
//! and a faulted fleet drain equals the clean run bit-for-bit.
//!
//! Type 2 was the unsequenced BATCH frame of wire version 1. No later peer
//! sends it, and it decodes as [`WireError::UnknownFrameType`].
//!
//! Version 3 changed only the batch payload: an RS+FD / RS+RFD report no
//! longer names the attribute it really sanitized (see
//! [`CompactBatch`]'s wire format). A version 2 producer, which still sends
//! that index, is refused at its first frame.
//!
//! Version negotiation is deliberately blunt: the header pins version 3, and
//! a mismatch is rejected with a typed [`WireError::VersionMismatch`] before
//! any payload byte is interpreted — there is exactly one wire dialect per
//! build, ever, so "negotiation" is the client learning it speaks the wrong
//! one.
//!
//! Everything here is pure codec — no sockets. The blocking listener lives
//! in [`crate::net`]; the reader side works over any `std::io::Read`, which
//! is what the fuzz tests exploit to replay mutated byte streams without a
//! network.

use std::io::{Read, Write};

use ldp_core::solutions::{CompactBatch, CompactDecodeError, DynSolution};
use ldp_protocols::hash::mix2;

use crate::snapshot::ServerSnapshot;

/// Frame header magic: `b"LDPW"` read as a little-endian `u32`.
pub const WIRE_MAGIC: u32 = u32::from_le_bytes(*b"LDPW");

/// The (single) protocol version this build speaks.
pub const WIRE_VERSION: u16 = 3;

/// Hard cap on a frame payload — far above any sane batch (a default
/// 1024-report batch is a few hundred KiB), small enough that a forged
/// length cannot balloon server memory.
pub const MAX_PAYLOAD: u32 = 64 << 20;

const FT_HELLO: u8 = 0;
const FT_HELLO_ACK: u8 = 1;
const FT_SNAPSHOT_REQUEST: u8 = 3;
const FT_SNAPSHOT: u8 = 4;
const FT_DRAIN: u8 = 5;
const FT_DRAIN_ACK: u8 = 6;
const FT_ABORT: u8 = 7;
const FT_EPOCH: u8 = 8;
const FT_BATCH_SEQ: u8 = 9;
const FT_BATCH_ACK: u8 = 10;
const FT_RESUME: u8 = 11;
const FT_RESUME_ACK: u8 = 12;

const FLAG_QUIESCE: u8 = 1;

/// Why a frame could not be read or decoded. Every variant is a *handled*
/// failure: the connection that produced it is closed (with a best-effort
/// [`Frame::Abort`]) and the server keeps serving everyone else — malformed
/// input never panics and never reaches an aggregator shard.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The peer closed the stream cleanly *between* frames.
    Closed,
    /// The stream ended mid-frame.
    Truncated,
    /// A configured read deadline expired while waiting for the peer — the
    /// typed face of `WouldBlock`/`TimedOut`, so a hung peer surfaces as a
    /// handled, retryable condition instead of a generic transport error.
    Timeout,
    /// The header does not start with [`WIRE_MAGIC`].
    BadMagic(u32),
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// Version claimed by the peer's frame header.
        got: u16,
    },
    /// Unknown frame type byte.
    UnknownFrameType(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversize(u32),
    /// Payload bytes do not hash to the header's CRC-32.
    ChecksumMismatch {
        /// CRC the header promised.
        expected: u32,
        /// CRC of the bytes actually received.
        got: u32,
    },
    /// A control frame's payload is malformed.
    Payload(String),
    /// A BATCH_SEQ payload failed [`CompactBatch::decode_from`] or
    /// [`CompactBatch::validate_for`].
    Batch(CompactDecodeError),
    /// Handshake violation: missing HELLO, or a solution fingerprint that
    /// does not match the server's.
    Handshake(String),
    /// The peer reported an error of its own via [`Frame::Abort`].
    Remote {
        /// Peer-assigned error code.
        code: u16,
        /// Peer-supplied description.
        message: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::Closed => write!(f, "peer closed the connection"),
            WireError::Truncated => write!(f, "stream ended mid-frame"),
            WireError::Timeout => write!(f, "read deadline expired waiting for the peer"),
            WireError::BadMagic(got) => write!(f, "bad frame magic {got:#010x}"),
            WireError::VersionMismatch { got } => {
                write!(
                    f,
                    "peer speaks wire version {got}, this build speaks {WIRE_VERSION}"
                )
            }
            WireError::UnknownFrameType(t) => write!(f, "unknown frame type {t}"),
            WireError::Oversize(len) => {
                write!(f, "payload of {len} B exceeds the {MAX_PAYLOAD} B cap")
            }
            WireError::ChecksumMismatch { expected, got } => {
                write!(
                    f,
                    "payload CRC {got:#010x} does not match header {expected:#010x}"
                )
            }
            WireError::Payload(reason) => write!(f, "malformed frame payload: {reason}"),
            WireError::Batch(e) => write!(f, "malformed batch: {e}"),
            WireError::Handshake(reason) => write!(f, "handshake violation: {reason}"),
            WireError::Remote { code, message } => {
                write!(f, "peer aborted (code {code}): {message}")
            }
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            WireError::Batch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => WireError::Timeout,
            _ => WireError::Io(e),
        }
    }
}

impl From<CompactDecodeError> for WireError {
    fn from(e: CompactDecodeError) -> Self {
        WireError::Batch(e)
    }
}

/// One protocol message — see the [module docs](crate::wire) for the
/// session grammar.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server session opener carrying the client's solution
    /// fingerprint (see [`solution_fingerprint`]).
    Hello {
        /// Fingerprint of the solution the client sanitizes for.
        fingerprint: u64,
        /// Digest of the shared secret ([`auth_fingerprint`]); 0 means the
        /// client presented no token. A server configured with
        /// `ServerConfig::auth_token` rejects a mismatch with `ABORT_AUTH`.
        auth: u64,
    },
    /// Server → client handshake acceptance, echoing the fingerprint.
    HelloAck {
        /// The server's own solution fingerprint (equal on success).
        fingerprint: u64,
        /// The server's shard count, for producer diagnostics.
        shards: u32,
        /// Server-issued session token for [`Frame::Resume`]; 0 means the
        /// session table was full and this connection cannot resume.
        session: u64,
        /// The server acks every this-many `BATCH_SEQ` frames — clients
        /// size their replay ring at least this large so an ack is always
        /// owed before the ring fills.
        ack_every: u32,
    },
    /// Client → server request for the current merged estimates.
    SnapshotRequest {
        /// Barrier first, so the snapshot covers everything this producer
        /// sent before the request (see `LdpServer::quiesce`).
        quiesce: bool,
    },
    /// Server → client incremental snapshot of the merged estimates.
    Snapshot(WireSnapshot),
    /// Client → server end-of-stream: drain this session.
    Drain,
    /// Server → client drain acknowledgment.
    DrainAck {
        /// Reports the server ingested over this connection.
        n: u64,
    },
    /// Either side → peer fatal error notification; the sender closes after.
    Abort {
        /// Machine-readable error code.
        code: u16,
        /// Human-readable description.
        message: String,
    },
    /// Epoch lockstep. Client → server: "I finished streaming round
    /// `round`" (held at the fleet barrier). Server → client: "the fleet
    /// advanced; the current round is now `round`".
    Epoch {
        /// Collection round index (see direction above).
        round: u64,
    },
    /// A compact-encoded batch of `(uid, report)` envelopes carrying its
    /// per-session sequence number, so the server can ack cumulatively and
    /// dedup replays after a reconnect.
    BatchSeq {
        /// 1-based, strictly monotone, gapless per-session sequence number.
        seq: u64,
        /// The batch itself.
        batch: CompactBatch,
    },
    /// Server → client cumulative acknowledgment: every `BATCH_SEQ` with
    /// `seq ≤ acked` has been durably ingested and may leave the client's
    /// replay ring.
    BatchAck {
        /// Highest contiguously ingested sequence number for this session.
        seq: u64,
        /// Reports ingested for this session so far (across reconnects).
        n: u64,
    },
    /// Client → server, immediately after a re-handshake: reclaim the
    /// session `session` and learn how far the server actually got.
    Resume {
        /// The token the original HELLO_ACK issued.
        session: u64,
        /// Highest seq the client saw acked before the fault (a lower bound
        /// on the server's state; the server may have ingested further).
        last_acked: u64,
    },
    /// Server → client resume acceptance.
    ResumeAck {
        /// The server's cumulative acked seq — the client replays
        /// everything after this and discards the rest of its ring.
        acked_seq: u64,
    },
}

/// The over-the-wire projection of a [`ServerSnapshot`]: the merged counts'
/// estimates without the aggregator itself (which never leaves the server).
#[derive(Debug, Clone, PartialEq)]
pub struct WireSnapshot {
    /// Reports absorbed server-wide at snapshot time.
    pub n: u64,
    /// Server shard count.
    pub shards: u32,
    /// Unbiased per-attribute frequency estimates.
    pub estimates: Vec<Vec<f64>>,
    /// Estimates projected onto the probability simplex.
    pub normalized: Vec<Vec<f64>>,
}

impl From<&ServerSnapshot> for WireSnapshot {
    fn from(snapshot: &ServerSnapshot) -> Self {
        WireSnapshot {
            n: snapshot.n,
            shards: snapshot.shards as u32,
            estimates: snapshot.estimates.clone(),
            normalized: snapshot.normalized.clone(),
        }
    }
}

/// Fingerprint of a solution's wire-relevant configuration (family name,
/// domain sizes, ε — and for mixed solutions the numeric mechanism and
/// sample budget). HELLO/HELLO_ACK exchange it so a producer sanitizing
/// for a different solution — which would silently bias every estimate —
/// is rejected at handshake instead of poisoning the aggregate.
pub fn solution_fingerprint(solution: &DynSolution) -> u64 {
    let mut h = mix2(0x11D9_F00D, solution.epsilon().to_bits());
    for &k in solution.ks() {
        h = mix2(h, k as u64);
    }
    for b in solution.name().bytes() {
        h = mix2(h, u64::from(b));
    }
    // The heterogeneous schema (0-sentinel dimensions) is already folded via
    // `ks`; pin the numeric mechanism and per-user budget split explicitly so
    // the handshake rejects a producer randomizing the same schema with a
    // different mechanism even if display names ever collide.
    if let DynSolution::Mixed(m) = solution {
        let mk = m.mixed_kind();
        h = mix2(h, mk.numeric.tag());
        h = mix2(h, mk.sample_k as u64);
    }
    h
}

/// Digest of a shared-secret auth token, carried in [`Frame::Hello`]. Never
/// returns 0 — the zero digest unambiguously means "no token presented", so
/// an empty-string token still authenticates as *something*. This is an
/// integrity check against misconfigured producers, not a cryptographic MAC:
/// the threat model is the same trusted network the rest of the wire tier
/// assumes, and the digest only keeps the wrong fleet out of the wrong
/// aggregator.
pub fn auth_fingerprint(token: &str) -> u64 {
    let mut h = mix2(0xA117_5EC2, token.len() as u64);
    for b in token.bytes() {
        h = mix2(h, u64::from(b));
    }
    if h == 0 {
        1
    } else {
        h
    }
}

/// Slicing-by-16 CRC-32 (IEEE 802.3, reflected) lookup tables, built at
/// compile time — the workspace vendors no checksum crate. `CRC_TABLES[0]`
/// is the classic byte-at-a-time table; `CRC_TABLES[k][i]` is the CRC of
/// byte `i` followed by `k` zero bytes, so one lookup per byte of a 16-byte
/// block folds the whole block at once. A `static` (16 KiB, read-only), so
/// no call ever copies it.
static CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes` — the checksum carried in every frame header.
///
/// Slicing-by-16 (Kounavis & Berry's slicing-by-8, widened): each 16-byte
/// block is read as four little-endian words, the running CRC is XORed
/// into the first, and the block folds through 16 independent lookups
/// into 16 static 256-entry tables (16 KiB) instead of a 16-step dependent
/// chain. The last `len % 16` bytes take the byte-at-a-time step on table
/// 0. Same checksum as the bytewise loop, so wire bytes are unchanged.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let word = |i: usize| u32::from_le_bytes(block[i..i + 4].try_into().expect("4-byte slice"));
        // Byte j of the block (0-based) is followed by 15 - j more bytes,
        // so it looks up table 15 - j.
        let lane = |w: u32, hi: usize| {
            t[hi][(w & 0xFF) as usize]
                ^ t[hi - 1][((w >> 8) & 0xFF) as usize]
                ^ t[hi - 2][((w >> 16) & 0xFF) as usize]
                ^ t[hi - 3][(w >> 24) as usize]
        };
        c = lane(word(0) ^ c, 15) ^ lane(word(4), 11) ^ lane(word(8), 7) ^ lane(word(12), 3);
    }
    for &byte in blocks.remainder() {
        c = t[0][((c ^ u32::from(byte)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Serializes `frame` into `buf` (cleared first), returning the encoded
/// length. The buffer is reusable across calls — steady-state batch
/// streaming re-serializes into the same allocation.
pub fn encode_frame(frame: &Frame, buf: &mut Vec<u8>) -> usize {
    buf.clear();
    buf.extend_from_slice(&[0u8; 16]);
    let (ftype, flags) = match frame {
        Frame::Hello { fingerprint, auth } => {
            buf.extend_from_slice(&fingerprint.to_le_bytes());
            buf.extend_from_slice(&auth.to_le_bytes());
            (FT_HELLO, 0)
        }
        Frame::HelloAck {
            fingerprint,
            shards,
            session,
            ack_every,
        } => {
            buf.extend_from_slice(&fingerprint.to_le_bytes());
            buf.extend_from_slice(&shards.to_le_bytes());
            buf.extend_from_slice(&session.to_le_bytes());
            buf.extend_from_slice(&ack_every.to_le_bytes());
            (FT_HELLO_ACK, 0)
        }
        Frame::SnapshotRequest { quiesce } => {
            (FT_SNAPSHOT_REQUEST, if *quiesce { FLAG_QUIESCE } else { 0 })
        }
        Frame::Snapshot(snapshot) => {
            buf.extend_from_slice(&snapshot.n.to_le_bytes());
            buf.extend_from_slice(&snapshot.shards.to_le_bytes());
            buf.extend_from_slice(&(snapshot.estimates.len() as u32).to_le_bytes());
            for (est, norm) in snapshot.estimates.iter().zip(&snapshot.normalized) {
                buf.extend_from_slice(&(est.len() as u32).to_le_bytes());
                for &v in est {
                    buf.extend_from_slice(&v.to_bits().to_le_bytes());
                }
                for &v in norm {
                    buf.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            (FT_SNAPSHOT, 0)
        }
        Frame::Drain => (FT_DRAIN, 0),
        Frame::DrainAck { n } => {
            buf.extend_from_slice(&n.to_le_bytes());
            (FT_DRAIN_ACK, 0)
        }
        Frame::Abort { code, message } => {
            buf.extend_from_slice(&code.to_le_bytes());
            buf.extend_from_slice(message.as_bytes());
            (FT_ABORT, 0)
        }
        Frame::Epoch { round } => {
            buf.extend_from_slice(&round.to_le_bytes());
            (FT_EPOCH, 0)
        }
        Frame::BatchSeq { seq, batch } => return encode_batch_seq_frame(*seq, batch, buf),
        Frame::BatchAck { seq, n } => {
            buf.extend_from_slice(&seq.to_le_bytes());
            buf.extend_from_slice(&n.to_le_bytes());
            (FT_BATCH_ACK, 0)
        }
        Frame::Resume {
            session,
            last_acked,
        } => {
            buf.extend_from_slice(&session.to_le_bytes());
            buf.extend_from_slice(&last_acked.to_le_bytes());
            (FT_RESUME, 0)
        }
        Frame::ResumeAck { acked_seq } => {
            buf.extend_from_slice(&acked_seq.to_le_bytes());
            (FT_RESUME_ACK, 0)
        }
    };
    seal_frame(buf, ftype, flags)
}

/// [`encode_frame`] for a BATCH_SEQ frame without constructing the enum:
/// the producer hot path serializes its reused [`CompactBatch`] buffer
/// directly (no move, no clone). `encode_frame` delegates here, so the two
/// always produce the same bytes.
pub fn encode_batch_seq_frame(seq: u64, batch: &CompactBatch, buf: &mut Vec<u8>) -> usize {
    buf.clear();
    buf.extend_from_slice(&[0u8; 16]);
    buf.extend_from_slice(&seq.to_le_bytes());
    batch.encode_into(buf);
    seal_frame(buf, FT_BATCH_SEQ, 0)
}

/// Writes the 16-byte header over `buf[..16]` (magic, version, type, flags,
/// payload length, payload CRC) once the payload sits at `buf[16..]`.
pub(crate) fn seal_frame(buf: &mut [u8], ftype: u8, flags: u8) -> usize {
    let len = (buf.len() - 16) as u32;
    debug_assert!(len <= MAX_PAYLOAD, "encoder produced an oversize frame");
    let crc = crc32(&buf[16..]);
    buf[0..4].copy_from_slice(&WIRE_MAGIC.to_le_bytes());
    buf[4..6].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    buf[6] = ftype;
    buf[7] = flags;
    buf[8..12].copy_from_slice(&len.to_le_bytes());
    buf[12..16].copy_from_slice(&crc.to_le_bytes());
    buf.len()
}

/// Encodes and writes one frame. Does **not** flush — callers batch frames
/// behind a `BufWriter` and flush at turnaround points.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), WireError> {
    let mut buf = Vec::new();
    encode_frame(frame, &mut buf);
    w.write_all(&buf)?;
    Ok(())
}

/// Reads and decodes exactly one frame, distinguishing a clean close at a
/// frame boundary ([`WireError::Closed`]) from a mid-frame truncation
/// ([`WireError::Truncated`]). The CRC is verified before any payload byte
/// is interpreted, so a flipped bit surfaces as
/// [`WireError::ChecksumMismatch`], never as a bogus decoded value.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    let mut header = [0u8; 16];
    loop {
        match r.read(&mut header[..1]) {
            Ok(0) => return Err(WireError::Closed),
            Ok(_) => break,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::from(e)),
        }
    }
    read_exact_or_truncated(r, &mut header[1..])?;
    let magic = u32::from_le_bytes(header[0..4].try_into().expect("4-byte slice"));
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().expect("2-byte slice"));
    if version != WIRE_VERSION {
        return Err(WireError::VersionMismatch { got: version });
    }
    let (ftype, flags) = (header[6], header[7]);
    let len = u32::from_le_bytes(header[8..12].try_into().expect("4-byte slice"));
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversize(len));
    }
    let expected_crc = u32::from_le_bytes(header[12..16].try_into().expect("4-byte slice"));
    let mut payload = vec![0u8; len as usize];
    read_exact_or_truncated(r, &mut payload)?;
    let got_crc = crc32(&payload);
    if got_crc != expected_crc {
        return Err(WireError::ChecksumMismatch {
            expected: expected_crc,
            got: got_crc,
        });
    }
    decode_payload(ftype, flags, &payload)
}

fn read_exact_or_truncated(r: &mut impl Read, buf: &mut [u8]) -> Result<(), WireError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::from(e)
        }
    })
}

/// Decodes a CRC-verified payload into its frame. Every length is checked
/// before the corresponding bytes (or allocation) are touched, so even a
/// payload that *happens* to pass the CRC can only yield a typed error.
fn decode_payload(ftype: u8, flags: u8, payload: &[u8]) -> Result<Frame, WireError> {
    let exact = |n: usize| -> Result<(), WireError> {
        if payload.len() == n {
            Ok(())
        } else {
            Err(WireError::Payload(format!(
                "frame type {ftype}: payload of {} B, expected {n} B",
                payload.len()
            )))
        }
    };
    match ftype {
        FT_HELLO => {
            exact(16)?;
            Ok(Frame::Hello {
                fingerprint: u64::from_le_bytes(payload[0..8].try_into().expect("8-byte slice")),
                auth: u64::from_le_bytes(payload[8..16].try_into().expect("8-byte slice")),
            })
        }
        FT_HELLO_ACK => {
            exact(24)?;
            Ok(Frame::HelloAck {
                fingerprint: u64::from_le_bytes(payload[0..8].try_into().expect("8-byte slice")),
                shards: u32::from_le_bytes(payload[8..12].try_into().expect("4-byte slice")),
                session: u64::from_le_bytes(payload[12..20].try_into().expect("8-byte slice")),
                ack_every: u32::from_le_bytes(payload[20..24].try_into().expect("4-byte slice")),
            })
        }
        FT_SNAPSHOT_REQUEST => {
            exact(0)?;
            Ok(Frame::SnapshotRequest {
                quiesce: flags & FLAG_QUIESCE != 0,
            })
        }
        FT_SNAPSHOT => decode_snapshot(payload),
        FT_DRAIN => {
            exact(0)?;
            Ok(Frame::Drain)
        }
        FT_DRAIN_ACK => {
            exact(8)?;
            Ok(Frame::DrainAck {
                n: u64::from_le_bytes(payload[0..8].try_into().expect("8-byte slice")),
            })
        }
        FT_ABORT => {
            if payload.len() < 2 {
                return Err(WireError::Payload(
                    "ABORT payload shorter than its code".into(),
                ));
            }
            Ok(Frame::Abort {
                code: u16::from_le_bytes(payload[0..2].try_into().expect("2-byte slice")),
                message: String::from_utf8_lossy(&payload[2..]).into_owned(),
            })
        }
        FT_EPOCH => {
            exact(8)?;
            Ok(Frame::Epoch {
                round: u64::from_le_bytes(payload[0..8].try_into().expect("8-byte slice")),
            })
        }
        FT_BATCH_SEQ => {
            if payload.len() < 8 {
                return Err(WireError::Payload(
                    "BATCH_SEQ payload shorter than its sequence number".into(),
                ));
            }
            Ok(Frame::BatchSeq {
                seq: u64::from_le_bytes(payload[0..8].try_into().expect("8-byte slice")),
                batch: CompactBatch::decode_from(&payload[8..])?,
            })
        }
        FT_BATCH_ACK => {
            exact(16)?;
            Ok(Frame::BatchAck {
                seq: u64::from_le_bytes(payload[0..8].try_into().expect("8-byte slice")),
                n: u64::from_le_bytes(payload[8..16].try_into().expect("8-byte slice")),
            })
        }
        FT_RESUME => {
            exact(16)?;
            Ok(Frame::Resume {
                session: u64::from_le_bytes(payload[0..8].try_into().expect("8-byte slice")),
                last_acked: u64::from_le_bytes(payload[8..16].try_into().expect("8-byte slice")),
            })
        }
        FT_RESUME_ACK => {
            exact(8)?;
            Ok(Frame::ResumeAck {
                acked_seq: u64::from_le_bytes(payload[0..8].try_into().expect("8-byte slice")),
            })
        }
        other => Err(WireError::UnknownFrameType(other)),
    }
}

fn decode_snapshot(payload: &[u8]) -> Result<Frame, WireError> {
    let mut pos = 0usize;
    let mut take = |n: usize| -> Result<&[u8], WireError> {
        if payload.len() - pos < n {
            return Err(WireError::Payload("SNAPSHOT payload ends early".into()));
        }
        let s = &payload[pos..pos + n];
        pos += n;
        Ok(s)
    };
    let n = u64::from_le_bytes(take(8)?.try_into().expect("8-byte slice"));
    let shards = u32::from_le_bytes(take(4)?.try_into().expect("4-byte slice"));
    let d = u32::from_le_bytes(take(4)?.try_into().expect("4-byte slice")) as usize;
    let mut estimates = Vec::new();
    let mut normalized = Vec::new();
    for _ in 0..d {
        let k = u32::from_le_bytes(take(4)?.try_into().expect("4-byte slice")) as usize;
        // Capacity is clamped by the payload itself, so a forged k cannot
        // balloon the allocation — `take` then rejects it at the first
        // missing word.
        let mut est = Vec::with_capacity(k.min(payload.len() / 8));
        for _ in 0..k {
            est.push(f64::from_bits(u64::from_le_bytes(
                take(8)?.try_into().expect("8-byte slice"),
            )));
        }
        let mut norm = Vec::with_capacity(k.min(payload.len() / 8));
        for _ in 0..k {
            norm.push(f64::from_bits(u64::from_le_bytes(
                take(8)?.try_into().expect("8-byte slice"),
            )));
        }
        estimates.push(est);
        normalized.push(norm);
    }
    if pos != payload.len() {
        return Err(WireError::Payload("trailing bytes after SNAPSHOT".into()));
    }
    Ok(Frame::Snapshot(WireSnapshot {
        n,
        shards,
        estimates,
        normalized,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::solutions::{RsFdProtocol, SolutionKind};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn sample_frames() -> Vec<Frame> {
        let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
            .build(&[4, 3], 1.0)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut batch = CompactBatch::new();
        for uid in 0..50u64 {
            batch.push(uid, &solution.report(&[1, 2], &mut rng));
        }
        vec![
            Frame::Hello {
                fingerprint: 0xFEED,
                auth: 0,
            },
            Frame::Hello {
                fingerprint: 0xFEED,
                auth: auth_fingerprint("hunter2"),
            },
            Frame::HelloAck {
                fingerprint: 0xFEED,
                shards: 4,
                session: 0xD00D_F00D,
                ack_every: 32,
            },
            Frame::BatchSeq {
                seq: 1,
                batch: batch.clone(),
            },
            Frame::BatchSeq { seq: 7, batch },
            Frame::BatchAck { seq: 7, n: 350 },
            Frame::Resume {
                session: 0xD00D_F00D,
                last_acked: 6,
            },
            Frame::ResumeAck { acked_seq: 7 },
            Frame::SnapshotRequest { quiesce: true },
            Frame::SnapshotRequest { quiesce: false },
            Frame::Snapshot(WireSnapshot {
                n: 50,
                shards: 4,
                estimates: vec![vec![0.25, -0.5, 0.75, 0.5], vec![0.1, 0.2, 0.7]],
                normalized: vec![vec![0.25, 0.0, 0.5, 0.25], vec![0.1, 0.2, 0.7]],
            }),
            Frame::Drain,
            Frame::DrainAck { n: 50 },
            Frame::Abort {
                code: 3,
                message: "boom".into(),
            },
            Frame::Epoch { round: 2 },
        ]
    }

    #[test]
    fn every_frame_roundtrips() {
        let mut buf = Vec::new();
        for frame in sample_frames() {
            encode_frame(&frame, &mut buf);
            let decoded = read_frame(&mut &buf[..]).unwrap();
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn a_stream_of_frames_decodes_in_order() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        let mut buf = Vec::new();
        for frame in &frames {
            encode_frame(frame, &mut buf);
            stream.extend_from_slice(&buf);
        }
        let mut reader = &stream[..];
        for frame in &frames {
            assert_eq!(&read_frame(&mut reader).unwrap(), frame);
        }
        assert!(matches!(read_frame(&mut reader), Err(WireError::Closed)));
    }

    #[test]
    fn corruption_is_rejected_with_typed_errors() {
        let mut buf = Vec::new();
        encode_frame(&Frame::DrainAck { n: 7 }, &mut buf);
        // Flipped payload bit → checksum.
        let mut bad = buf.clone();
        *bad.last_mut().unwrap() ^= 0x10;
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(WireError::ChecksumMismatch { .. })
        ));
        // A multi-block BATCH_SEQ payload: one flipped bit in every byte
        // lane of the first 16-byte block (the sliced fold) and in the
        // final tail byte (the bytewise step) → checksum.
        let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
            .build(&[4, 3], 1.0)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let mut batch = CompactBatch::new();
        for uid in 0..5u64 {
            batch.push(uid, &solution.report(&[2, 0], &mut rng));
        }
        let mut sealed = Vec::new();
        encode_batch_seq_frame(3, &batch, &mut sealed);
        let payload_len = sealed.len() - 16;
        assert!(payload_len > 16 && payload_len % 16 != 0, "{payload_len}");
        for offset in (0..16).chain([payload_len - 1]) {
            let mut bad = sealed.clone();
            bad[16 + offset] ^= 1 << (offset % 8);
            assert!(
                matches!(
                    read_frame(&mut &bad[..]),
                    Err(WireError::ChecksumMismatch { .. })
                ),
                "flip at payload offset {offset}"
            );
        }
        // Flipped magic.
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(WireError::BadMagic(_))
        ));
        // Future version.
        let mut bad = buf.clone();
        bad[4] = 9;
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(WireError::VersionMismatch { got: 9 })
        ));
        // Unknown frame type (CRC intact, so the type byte is reached).
        let mut bad = buf.clone();
        bad[6] = 99;
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(WireError::UnknownFrameType(99))
        ));
        // The retired v1 BATCH type, correctly sealed: still a typed
        // rejection, never a decoded frame.
        let mut retired = vec![0u8; 16];
        CompactBatch::new().encode_into(&mut retired);
        seal_frame(&mut retired, 2, 0);
        assert!(matches!(
            read_frame(&mut &retired[..]),
            Err(WireError::UnknownFrameType(2))
        ));
        // Oversize length is rejected before any allocation.
        let mut bad = buf.clone();
        bad[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(WireError::Oversize(_))
        ));
        // Every strict prefix is Closed (empty) or Truncated — never a panic.
        for cut in 0..buf.len() {
            match read_frame(&mut &buf[..cut]) {
                Err(WireError::Closed) => assert_eq!(cut, 0),
                Err(WireError::Truncated) => assert!(cut > 0),
                other => panic!("prefix of {cut} B: unexpected {other:?}"),
            }
        }
    }

    /// A reader that fails with `Interrupted` a given number of times
    /// before serving its bytes.
    struct Interrupting<'a> {
        interrupts: u32,
        bytes: &'a [u8],
    }

    impl Read for Interrupting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.interrupts > 0 {
                self.interrupts -= 1;
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            self.bytes.read(buf)
        }
    }

    #[test]
    fn a_long_run_of_interrupts_before_a_frame_is_retried_in_place() {
        let mut buf = Vec::new();
        encode_frame(&Frame::DrainAck { n: 9 }, &mut buf);
        let mut reader = Interrupting {
            interrupts: 1_000_000,
            bytes: &buf,
        };
        assert_eq!(read_frame(&mut reader).unwrap(), Frame::DrainAck { n: 9 });
        assert_eq!(reader.interrupts, 0);
    }

    #[test]
    fn auth_fingerprint_is_stable_nonzero_and_separating() {
        assert_ne!(auth_fingerprint(""), 0);
        assert_eq!(auth_fingerprint("secret"), auth_fingerprint("secret"));
        assert_ne!(auth_fingerprint("secret"), auth_fingerprint("secret2"));
        assert_ne!(auth_fingerprint("secret"), auth_fingerprint(""));
    }

    #[test]
    fn batch_seq_encoder_matches_the_enum_encoder() {
        let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
            .build(&[4, 3], 1.0)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let mut batch = CompactBatch::new();
        for uid in 0..20u64 {
            batch.push(uid, &solution.report(&[0, 1], &mut rng));
        }
        let mut via_enum = Vec::new();
        encode_frame(
            &Frame::BatchSeq {
                seq: 42,
                batch: batch.clone(),
            },
            &mut via_enum,
        );
        let mut via_fast = Vec::new();
        encode_batch_seq_frame(42, &batch, &mut via_fast);
        assert_eq!(via_enum, via_fast);
    }

    #[test]
    fn a_short_batch_seq_payload_is_a_typed_payload_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&[0u8; 16]);
        buf.extend_from_slice(&[1, 2, 3]); // shorter than the u64 seq
        super::seal_frame(&mut buf, super::FT_BATCH_SEQ, 0);
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(WireError::Payload(_))
        ));
    }

    /// The byte-at-a-time CRC-32 loop: the reference the sliced
    /// [`crc32`] must agree with on every input.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn sliced_crc_matches_bytewise_reference() {
        let mut rng = StdRng::seed_from_u64(0xC3C3);
        // 96 KiB: the payload of a default 1024-report RS+FD frame.
        let mut buf = vec![0u8; 96 * 1024 + 7];
        rng.fill_bytes(&mut buf);
        // Every tail length, every block count up to 18, every alignment.
        for start in 0..16 {
            for len in 0..=300 {
                let slice = &buf[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start}, len {len}"
                );
            }
        }
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check values (RFC 3720 appendix / zlib docs).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn fingerprint_separates_solution_configurations() {
        let base = SolutionKind::RsFd(RsFdProtocol::Grr)
            .build(&[4, 3], 1.0)
            .unwrap();
        let fp = solution_fingerprint(&base);
        assert_eq!(fp, solution_fingerprint(&base.clone()));
        for other in [
            SolutionKind::RsFd(RsFdProtocol::Grr)
                .build(&[4, 3], 2.0)
                .unwrap(),
            SolutionKind::RsFd(RsFdProtocol::Grr)
                .build(&[4, 5], 1.0)
                .unwrap(),
            SolutionKind::RsRfd(ldp_core::solutions::RsRfdProtocol::Grr)
                .build(&[4, 3], 1.0)
                .unwrap(),
        ] {
            assert_ne!(fp, solution_fingerprint(&other), "{}", other.name());
        }
    }

    #[test]
    fn snapshot_with_forged_dimensions_is_rejected() {
        let mut buf = Vec::new();
        encode_frame(
            &Frame::Snapshot(WireSnapshot {
                n: 1,
                shards: 1,
                estimates: vec![vec![0.5; 3]],
                normalized: vec![vec![0.5; 3]],
            }),
            &mut buf,
        );
        // Forge the first row width (offset 16 header + 8 n + 4 shards + 4 d)
        // to a huge k and re-seal the CRC: the decoder must bail on the
        // missing words, not allocate for the claim.
        buf[32..36].copy_from_slice(&u32::MAX.to_le_bytes());
        let crc = crc32(&buf[16..]);
        buf[12..16].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(WireError::Payload(_))
        ));
    }

    /// RS+FD and RS+RFD are ε-LDP only while the server cannot tell which
    /// attribute a user really sanitized: two users whose fake-data tuples
    /// agree but whose sampled attributes differ must put the same bytes on
    /// the wire.
    #[test]
    fn fake_data_frames_do_not_reveal_the_sampled_attribute() {
        use ldp_core::solutions::{DynSolution, MultidimSolution, RsRfdProtocol};
        let ks = [2usize, 2, 2];
        let tuple = [1u32, 0, 1];
        for kind in [
            SolutionKind::RsFd(RsFdProtocol::Grr),
            SolutionKind::RsRfd(RsRfdProtocol::UeR(ldp_protocols::UeMode::Optimized)),
        ] {
            let solution = kind.build(&ks, 1.0).unwrap();
            // The simulator's view of each seed: the tuple and the attribute
            // it really sanitized, from the same draws as the wire report.
            let truths: Vec<_> = (0..64u64)
                .map(|seed| {
                    let rng = &mut StdRng::seed_from_u64(seed);
                    match &solution {
                        DynSolution::RsFd(s) => s.report_dyn(&tuple, rng),
                        DynSolution::RsRfd(s) => s.report_dyn(&tuple, rng),
                        _ => unreachable!("fake-data kinds only"),
                    }
                })
                .collect();
            let (a, b) = (0..truths.len())
                .flat_map(|a| (a + 1..truths.len()).map(move |b| (a, b)))
                .find(|&(a, b)| {
                    truths[a].values == truths[b].values && truths[a].sampled != truths[b].sampled
                })
                .expect("two seeds with equal tuples and different sampled attributes");
            let frame = |seed: usize| {
                let mut batch = CompactBatch::new();
                let rng = &mut StdRng::seed_from_u64(seed as u64);
                batch.push(7, &solution.report(&tuple, rng));
                let mut buf = Vec::new();
                encode_batch_seq_frame(1, &batch, &mut buf);
                buf
            };
            assert_eq!(
                frame(a),
                frame(b),
                "{kind}: the frame names the sampled attribute"
            );
        }
    }
}
