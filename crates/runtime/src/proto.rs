//! Length-delimited TCP protocol between the process-world coordinator and
//! its worker subprocesses.
//!
//! Every message travels as `[u32 length][u32 magic][u8 tag][payload]`,
//! little-endian, with the length covering magic + tag + payload. The
//! payload reuses the primitive writers and the bounds-checked [`Reader`]
//! from [`rna_tensor::wire`] (the same representation the checkpoint
//! format uses), so a tensor on a socket and a tensor on disk are the same
//! bytes.
//!
//! Unlike the in-process worlds, these bytes arrive from *another process
//! over a real socket* and are untrusted: every decode path returns a
//! typed [`ProtoError`] — never a panic, and never an allocation sized by
//! an unvalidated length field. A frame that declares more than
//! [`MAX_FRAME_BYTES`] is rejected before any buffer is reserved, and a
//! tensor length inside a frame is checked against the bytes actually
//! present (see [`Reader::tensor`]) before its vector is built.

use std::io::{Read, Write};

use rna_core::fault::{WorkerFate, WorkerFault};
use rna_core::membership::{ChurnEvent, Edge};
use rna_tensor::codec::Compression;
use rna_tensor::wire::{self, Reader};
use rna_tensor::Tensor;

/// Magic prefix of every frame body: `"RNAP"` little-endian. A connection
/// that speaks anything else (a port scanner, a stray HTTP client) fails
/// fast with [`ProtoError::BadMagic`] instead of being misparsed.
pub const MAGIC: u32 = u32::from_le_bytes(*b"RNAP");

/// Upper bound on a frame body (magic + tag + payload). Generous — the
/// largest legitimate frame is a parameter tensor plus a few words — but
/// finite, so a garbage length prefix cannot request a giant allocation.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying socket failed or closed (including mid-frame EOF).
    Io(std::io::Error),
    /// The length prefix declared a body larger than [`MAX_FRAME_BYTES`].
    Oversized {
        /// Declared body length in bytes.
        declared: u64,
        /// The [`MAX_FRAME_BYTES`] limit it exceeded.
        limit: usize,
    },
    /// The frame body ended before the field named here was complete.
    Truncated {
        /// The field being decoded when the bytes ran out.
        what: &'static str,
    },
    /// The frame did not start with [`MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        got: u32,
    },
    /// The message tag is not one this protocol version defines.
    BadTag {
        /// The unrecognized tag byte.
        got: u8,
    },
    /// The frame decoded structurally but carried an impossible value
    /// (unknown enum discriminant, trailing bytes, zero-length body).
    Garbage {
        /// What was wrong.
        what: &'static str,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "socket error: {e}"),
            ProtoError::Oversized { declared, limit } => {
                write!(f, "frame declares {declared} bytes, limit is {limit}")
            }
            ProtoError::Truncated { what } => write!(f, "frame truncated while reading {what}"),
            ProtoError::BadMagic { got } => write!(f, "bad frame magic {got:#010x}"),
            ProtoError::BadTag { got } => write!(f, "unknown message tag {got}"),
            ProtoError::Garbage { what } => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Why a handshake was rejected by the coordinator's challenge–response
/// gate. Typed so the accept loop can count and classify rejects without
/// trusting the peer's bytes any further.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthError {
    /// The Hello named a worker index outside the cluster.
    UnknownWorker {
        /// The out-of-range index offered.
        worker: u32,
    },
    /// The Hello's incarnation does not match the supervisor's expectation
    /// — a replayed Hello from a dead incarnation, or a stale worker that
    /// missed its own respawn.
    StaleIncarnation {
        /// The incarnation the peer offered.
        got: u32,
        /// The incarnation the coordinator expects next.
        expected: u64,
    },
    /// The MAC over `nonce ‖ term ‖ worker ‖ incarnation` did not verify:
    /// wrong key, a replayed response to an older challenge, or a response
    /// minted under a dead coordinator's term.
    BadMac,
}

impl std::fmt::Display for AuthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuthError::UnknownWorker { worker } => {
                write!(f, "hello names unknown worker {worker}")
            }
            AuthError::StaleIncarnation { got, expected } => {
                write!(f, "stale incarnation {got} (expected {expected})")
            }
            AuthError::BadMac => write!(f, "challenge response failed MAC verification"),
        }
    }
}

impl std::error::Error for AuthError {}

/// The 128-bit shared secret of one run, used to key the challenge–
/// response MAC. Derived deterministically from the run seed by the
/// coordinator and handed to workers out of band (command line or the
/// address book) — never sent over the socket, unlike the plaintext token
/// it replaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthKey {
    /// First key half (SipHash `k0`).
    pub k0: u64,
    /// Second key half (SipHash `k1`).
    pub k1: u64,
}

impl AuthKey {
    /// Renders the key as 32 lowercase hex digits (`k0` then `k1`), the
    /// form the address book and the worker command line carry.
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.k0, self.k1)
    }

    /// Parses the 32-hex-digit form produced by [`AuthKey::to_hex`].
    /// Returns `None` on any other shape.
    #[must_use]
    pub fn from_hex(s: &str) -> Option<AuthKey> {
        let s = s.trim();
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        Some(AuthKey {
            k0: u64::from_str_radix(&s[..16], 16).ok()?,
            k1: u64::from_str_radix(&s[16..], 16).ok()?,
        })
    }
}

/// Constant-time slice equality: the comparison touches every byte and
/// folds the differences with `|`, so the time taken does not depend on
/// *where* the first mismatch sits — the property the old `==` on the
/// plaintext token lacked. Length is compared up front (lengths are not
/// secret here; both sides of every comparison are fixed-width MACs).
#[must_use]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    // Deny the optimizer the early-exit transform it would otherwise be
    // entitled to once `diff` is provably nonzero.
    std::hint::black_box(diff) == 0
}

/// SipHash-2-4 over `data` under `key`: the std-only keyed hash backing
/// the challenge–response MAC. Implemented from the reference description
/// (2 compression rounds per block, 4 finalization rounds); the test
/// vectors below pin it to the published reference outputs.
#[must_use]
pub fn siphash24(key: &AuthKey, data: &[u8]) -> u64 {
    #[inline]
    fn round(v: &mut [u64; 4]) {
        v[0] = v[0].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(13);
        v[1] ^= v[0];
        v[0] = v[0].rotate_left(32);
        v[2] = v[2].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(16);
        v[3] ^= v[2];
        v[0] = v[0].wrapping_add(v[3]);
        v[3] = v[3].rotate_left(21);
        v[3] ^= v[0];
        v[2] = v[2].wrapping_add(v[1]);
        v[1] = v[1].rotate_left(17);
        v[1] ^= v[2];
        v[2] = v[2].rotate_left(32);
    }
    let mut v = [
        key.k0 ^ 0x736f_6d65_7073_6575,
        key.k1 ^ 0x646f_7261_6e64_6f6d,
        key.k0 ^ 0x6c79_6765_6e65_7261,
        key.k1 ^ 0x7465_6462_7974_6573,
    ];
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let m = u64::from_le_bytes(chunk.try_into().expect("exact 8-byte chunk"));
        v[3] ^= m;
        round(&mut v);
        round(&mut v);
        v[0] ^= m;
    }
    // Final block: remaining bytes plus the total length in the top byte.
    let rest = chunks.remainder();
    let mut last = [0u8; 8];
    last[..rest.len()].copy_from_slice(rest);
    last[7] = data.len() as u8;
    let m = u64::from_le_bytes(last);
    v[3] ^= m;
    round(&mut v);
    round(&mut v);
    v[0] ^= m;
    v[2] ^= 0xff;
    round(&mut v);
    round(&mut v);
    round(&mut v);
    round(&mut v);
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

/// The MAC a worker computes over a challenge: SipHash-2-4 of
/// `nonce ‖ term ‖ worker ‖ incarnation` (little-endian). Binding the
/// coordinator's term and the worker's incarnation means a response
/// recorded under an older coordinator — or minted by a dead incarnation —
/// verifies under neither the fresh nonce nor the bumped term.
#[must_use]
pub fn compute_mac(key: &AuthKey, nonce: u64, term: u64, worker: u32, incarnation: u32) -> u64 {
    let mut buf = [0u8; 24];
    buf[..8].copy_from_slice(&nonce.to_le_bytes());
    buf[8..16].copy_from_slice(&term.to_le_bytes());
    buf[16..20].copy_from_slice(&worker.to_le_bytes());
    buf[20..24].copy_from_slice(&incarnation.to_le_bytes());
    siphash24(key, &buf)
}

/// Verifies a challenge response in constant time.
///
/// # Errors
///
/// [`AuthError::BadMac`] when the offered MAC does not match the expected
/// one — wrong key, replayed nonce, stale term, or a forged identity.
pub fn verify_mac(
    key: &AuthKey,
    nonce: u64,
    term: u64,
    worker: u32,
    incarnation: u32,
    offered: u64,
) -> Result<(), AuthError> {
    let expect = compute_mac(key, nonce, term, worker, incarnation);
    if ct_eq(&expect.to_le_bytes(), &offered.to_le_bytes()) {
        Ok(())
    } else {
        Err(AuthError::BadMac)
    }
}

/// Everything a worker subprocess needs to start (or rejoin) the run. Sent
/// by the coordinator as the first frame after a valid [`Msg::Hello`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSetup {
    /// This worker's index.
    pub worker: u32,
    /// The run's master seed; the worker replays the shared RNG fork
    /// sequence so its sampler/compute streams match the threaded world's.
    pub seed: u64,
    /// Per-worker mini-batch size.
    pub batch_size: u64,
    /// Bounded-lead window (iterations ahead of the round counter).
    pub max_lead: u64,
    /// Compute interval lower bound, microseconds.
    pub compute_lo_us: u64,
    /// Compute interval upper bound, microseconds.
    pub compute_hi_us: u64,
    /// Heartbeat cadence ceiling: the worker beats at least every quarter
    /// of this window so the coordinator's liveness view stays fresh.
    pub liveness_timeout_us: u64,
    /// Local iteration to resume from (0 on first join; the pre-crash
    /// count on a checkpoint-based rejoin). The worker fast-forwards its
    /// sampler by this many batches so the data stream continues instead
    /// of repeating.
    pub start_iter: u64,
    /// The round counter at join time (seeds the bounded-lead gate).
    pub round: u64,
    /// The highest round the coordinator has published (above `round`
    /// after a failover rolled the counter back): no worker can have led
    /// it by more than `max_lead`, so `start_iter` is checked against it.
    pub high_water: u64,
    /// RNG-stream grant for a mid-run join: 0 for an original member
    /// (standard sampler/compute stream keys), otherwise the base key of a
    /// disjoint stream namespace the worker forks its sampler (`grant`)
    /// and compute (`grant + 1`) streams from. Because a fork advances the
    /// parent generator identically regardless of the key, original
    /// members replay the shared sequence without knowing who joined.
    pub rng_grant: u64,
    /// The churn plan's retirement or eviction of this worker, if it has
    /// one (`Tenure::leave`). The worker exits once the round counter
    /// reaches the event's [`ChurnEvent::edge`], reporting the fate it
    /// names; the coordinator must not respawn it. On the wire it travels
    /// as that fate, so a frame cannot name any other departure.
    pub leave: Option<ChurnEvent>,
    /// The remaining fault directives this incarnation must execute
    /// (already-fired triggers are filtered out by the coordinator on
    /// rejoin).
    pub faults: Vec<WorkerFault>,
    /// The run's wire codec. The worker owns the encode leg (and its
    /// error-feedback residual); gradients leave the process already
    /// compressed, so the coordinator decodes instead of re-encoding.
    pub compression: Compression,
    /// Parameters to start from — the coordinator's current master.
    pub params: Tensor,
}

/// One protocol message. Worker→coordinator: `Hello`, `Heartbeat`, `Fate`,
/// `Auth` (gradients travel as [`GradBatch`] frames, outside this enum).
/// Coordinator→worker: `Setup`, `Params`, `Round`, `Stop`, `Challenge`.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Connection opener: the worker names itself. Carries no secret —
    /// authentication happens in the [`Msg::Challenge`]/[`Msg::Auth`]
    /// exchange that follows. `incarnation` counts respawns (0 for the
    /// first).
    Hello {
        /// Worker index.
        worker: u32,
        /// Respawn generation.
        incarnation: u32,
    },
    /// Coordinator → worker, answering a plausible Hello: prove you hold
    /// the run key by MACing this fresh nonce under my current term.
    Challenge {
        /// Single-use challenge value; a response computed for any other
        /// nonce fails verification, which is what defeats replay.
        nonce: u64,
        /// The coordinator's term (bumped by every restart), bound into
        /// the MAC so responses minted under a dead coordinator die with
        /// it.
        term: u64,
    },
    /// Worker → coordinator: the challenge response (see [`compute_mac`]).
    Auth {
        /// `compute_mac(key, nonce, term, worker, incarnation)`.
        mac: u64,
    },
    /// Sign of life, sent at least every quarter liveness window.
    Heartbeat {
        /// Completed local iterations so far.
        iter: u64,
    },
    /// The worker's post-mortem, sent on graceful shutdown. A SIGKILLed
    /// worker never sends one — that is the point — so the coordinator
    /// composes fates for abrupt deaths itself.
    Fate(
        /// The fate being reported.
        WorkerFate,
    ),
    /// Join/rejoin state (coordinator → worker).
    Setup(
        /// The full setup payload.
        WorkerSetup,
    ),
    /// A fresh parameter snapshot (coordinator → worker).
    Params {
        /// The round whose update produced these parameters.
        round: u64,
        /// The parameters.
        params: Tensor,
    },
    /// The round counter advanced (coordinator → worker); drives the
    /// bounded-lead gate.
    Round {
        /// The new round counter.
        round: u64,
    },
    /// Graceful shutdown: finish up, report a [`Msg::Fate`], exit.
    Stop,
}

const TAG_HELLO: u8 = 1;
const TAG_HEARTBEAT: u8 = 2;
const TAG_FATE: u8 = 4;
const TAG_AUTH: u8 = 5;
/// Tag of the worker→coordinator batched encoded-gradient frame. Public,
/// unlike the scalar-message tags: its body is parsed zero-copy by
/// [`EncodedGradBatch::parse`] instead of through [`decode_body`], so a
/// receive loop needs the tag to route raw frame bodies (see [`body_tag`]).
pub const TAG_ENC_GRAD: u8 = 6;
const TAG_SETUP: u8 = 16;
const TAG_PARAMS: u8 = 17;
const TAG_ROUND: u8 = 18;
const TAG_STOP: u8 = 19;
const TAG_CHALLENGE: u8 = 20;

const FAULT_CRASH: u8 = 1;
const FAULT_HANG: u8 = 2;
const FAULT_RESTART: u8 = 4;
const FAULT_GRAY: u8 = 5;

/// Fixed wire size of one fault directive: kind byte plus three `u64`
/// arguments (unused arguments ship as zero).
const FAULT_WIRE_BYTES: usize = 25;

fn put_fault(out: &mut Vec<u8>, f: &WorkerFault) {
    let (kind, a, b, c) = match *f {
        WorkerFault::CrashAt { at_iter } => (FAULT_CRASH, at_iter, 0, 0),
        WorkerFault::HangAt { at_iter, for_us } => (FAULT_HANG, at_iter, for_us, 0),
        WorkerFault::RestartAt {
            at_iter,
            rejoin_after_us,
        } => (FAULT_RESTART, at_iter, rejoin_after_us, 0),
        WorkerFault::GrayFrom {
            from_iter,
            step_us,
            cap_us,
        } => (FAULT_GRAY, from_iter, step_us, cap_us),
    };
    out.push(kind);
    wire::put_u64(out, a);
    wire::put_u64(out, b);
    wire::put_u64(out, c);
}

fn read_fault(r: &mut Reader<'_>) -> Result<WorkerFault, ProtoError> {
    let kind = r
        .bytes_exact(1)
        .ok_or(ProtoError::Truncated { what: "fault kind" })?[0];
    let a = r.u64().ok_or(ProtoError::Truncated { what: "fault arg" })?;
    let b = r.u64().ok_or(ProtoError::Truncated { what: "fault arg" })?;
    let c = r.u64().ok_or(ProtoError::Truncated { what: "fault arg" })?;
    match kind {
        FAULT_CRASH => Ok(WorkerFault::CrashAt { at_iter: a }),
        FAULT_HANG => Ok(WorkerFault::HangAt {
            at_iter: a,
            for_us: b,
        }),
        FAULT_RESTART => Ok(WorkerFault::RestartAt {
            at_iter: a,
            rejoin_after_us: b,
        }),
        FAULT_GRAY => Ok(WorkerFault::GrayFrom {
            from_iter: a,
            step_us: b,
            cap_us: c,
        }),
        _ => Err(ProtoError::Garbage {
            what: "unknown fault kind",
        }),
    }
}

fn read_tensor(r: &mut Reader<'_>, what: &'static str) -> Result<Tensor, ProtoError> {
    r.tensor().ok_or(ProtoError::Truncated { what })
}

/// Serializes `msg` into a frame body (magic + tag + payload), appended to
/// `out`. [`write_msg`] adds the length prefix.
pub fn encode_body(msg: &Msg, out: &mut Vec<u8>) {
    wire::put_u32(out, MAGIC);
    match msg {
        Msg::Hello {
            worker,
            incarnation,
        } => {
            out.push(TAG_HELLO);
            wire::put_u32(out, *worker);
            wire::put_u32(out, *incarnation);
        }
        Msg::Challenge { nonce, term } => {
            out.push(TAG_CHALLENGE);
            wire::put_u64(out, *nonce);
            wire::put_u64(out, *term);
        }
        Msg::Auth { mac } => {
            out.push(TAG_AUTH);
            wire::put_u64(out, *mac);
        }
        Msg::Heartbeat { iter } => {
            out.push(TAG_HEARTBEAT);
            wire::put_u64(out, *iter);
        }
        Msg::Fate(fate) => {
            out.push(TAG_FATE);
            fate.encode_into(out);
        }
        Msg::Setup(s) => {
            out.push(TAG_SETUP);
            wire::put_u32(out, s.worker);
            wire::put_u64(out, s.seed);
            wire::put_u64(out, s.batch_size);
            wire::put_u64(out, s.max_lead);
            wire::put_u64(out, s.compute_lo_us);
            wire::put_u64(out, s.compute_hi_us);
            wire::put_u64(out, s.liveness_timeout_us);
            wire::put_u64(out, s.start_iter);
            wire::put_u64(out, s.round);
            wire::put_u64(out, s.high_water);
            wire::put_u64(out, s.rng_grant);
            wire::put_bool(out, s.leave.is_some());
            if let Some(event) = s.leave {
                let (_, Edge::Leave(fate)) = event.edge() else {
                    unreachable!("a join is not a departure");
                };
                fate.encode_into(out);
            }
            let (ctag, cparam) = s.compression.wire_id();
            wire::put_u32(out, ctag);
            wire::put_u32(out, cparam);
            wire::put_u32(out, u32::try_from(s.faults.len()).unwrap_or(u32::MAX));
            for f in &s.faults {
                put_fault(out, f);
            }
            wire::put_tensor(out, &s.params);
        }
        Msg::Params { round, params } => {
            out.push(TAG_PARAMS);
            wire::put_u64(out, *round);
            wire::put_tensor(out, params);
        }
        Msg::Round { round } => {
            out.push(TAG_ROUND);
            wire::put_u64(out, *round);
        }
        Msg::Stop => out.push(TAG_STOP),
    }
}

/// Decodes one frame body (the bytes after the length prefix) into a
/// [`Msg`]. Rejects bad magic, unknown tags, truncated fields, impossible
/// values, and trailing bytes — with a typed error, never a panic.
///
/// # Errors
///
/// Any [`ProtoError`] variant except `Io`/`Oversized` (those belong to the
/// framing layer, [`read_msg`]).
pub fn decode_body(body: &[u8]) -> Result<Msg, ProtoError> {
    let mut r = Reader::new(body);
    let magic = r.u32().ok_or(ProtoError::Truncated { what: "magic" })?;
    if magic != MAGIC {
        return Err(ProtoError::BadMagic { got: magic });
    }
    let tag = r
        .bytes_exact(1)
        .ok_or(ProtoError::Truncated { what: "tag" })?[0];
    let msg = match tag {
        TAG_HELLO => Msg::Hello {
            worker: r.u32().ok_or(ProtoError::Truncated { what: "worker" })?,
            incarnation: r.u32().ok_or(ProtoError::Truncated {
                what: "incarnation",
            })?,
        },
        TAG_CHALLENGE => Msg::Challenge {
            nonce: r.u64().ok_or(ProtoError::Truncated { what: "nonce" })?,
            term: r.u64().ok_or(ProtoError::Truncated { what: "term" })?,
        },
        TAG_AUTH => Msg::Auth {
            mac: r.u64().ok_or(ProtoError::Truncated { what: "mac" })?,
        },
        TAG_HEARTBEAT => Msg::Heartbeat {
            iter: r.u64().ok_or(ProtoError::Truncated { what: "iter" })?,
        },
        TAG_FATE => Msg::Fate(WorkerFate::decode(&mut r).ok_or(ProtoError::Garbage {
            what: "truncated or unknown worker fate",
        })?),
        TAG_SETUP => {
            let worker = r.u32().ok_or(ProtoError::Truncated { what: "worker" })?;
            let seed = r.u64().ok_or(ProtoError::Truncated { what: "seed" })?;
            let batch_size = r.u64().ok_or(ProtoError::Truncated { what: "batch" })?;
            let max_lead = r.u64().ok_or(ProtoError::Truncated { what: "max_lead" })?;
            let compute_lo_us = r.u64().ok_or(ProtoError::Truncated { what: "compute" })?;
            let compute_hi_us = r.u64().ok_or(ProtoError::Truncated { what: "compute" })?;
            let liveness_timeout_us = r.u64().ok_or(ProtoError::Truncated { what: "liveness" })?;
            let start_iter = r
                .u64()
                .ok_or(ProtoError::Truncated { what: "start_iter" })?;
            let round = r.u64().ok_or(ProtoError::Truncated { what: "round" })?;
            let high_water = r.u64().ok_or(ProtoError::Truncated { what: "max round" })?;
            let rng_grant = r.u64().ok_or(ProtoError::Truncated { what: "rng_grant" })?;
            let leave = if r.bool().ok_or(ProtoError::Truncated { what: "leave" })? {
                Some(match WorkerFate::decode(&mut r) {
                    Some(WorkerFate::Retired { at_round }) => ChurnEvent::Retire { at_round },
                    Some(WorkerFate::Evicted { at_round }) => ChurnEvent::Evict { at_round },
                    _ => {
                        return Err(ProtoError::Garbage {
                            what: "departure is neither a retirement nor an eviction",
                        })
                    }
                })
            } else {
                None
            };
            let ctag = r.u32().ok_or(ProtoError::Truncated { what: "codec tag" })?;
            let cparam = r.u32().ok_or(ProtoError::Truncated {
                what: "codec parameter",
            })?;
            let compression =
                Compression::from_wire_id(ctag, cparam).ok_or(ProtoError::Garbage {
                    what: "unknown wire codec in setup",
                })?;
            let n_faults = r.u32().ok_or(ProtoError::Truncated { what: "faults" })?;
            // Each fault has a fixed wire size; a count the remaining
            // bytes cannot hold is garbage, not a huge reservation.
            if (n_faults as usize).saturating_mul(FAULT_WIRE_BYTES) > r.remaining() {
                return Err(ProtoError::Garbage {
                    what: "fault count exceeds frame",
                });
            }
            let mut faults = Vec::with_capacity(n_faults as usize);
            for _ in 0..n_faults {
                faults.push(read_fault(&mut r)?);
            }
            Msg::Setup(WorkerSetup {
                worker,
                seed,
                batch_size,
                max_lead,
                compute_lo_us,
                compute_hi_us,
                liveness_timeout_us,
                start_iter,
                round,
                high_water,
                rng_grant,
                leave,
                faults,
                compression,
                params: read_tensor(&mut r, "setup params")?,
            })
        }
        TAG_PARAMS => Msg::Params {
            round: r.u64().ok_or(ProtoError::Truncated { what: "round" })?,
            params: read_tensor(&mut r, "params tensor")?,
        },
        TAG_ROUND => Msg::Round {
            round: r.u64().ok_or(ProtoError::Truncated { what: "round" })?,
        },
        TAG_STOP => Msg::Stop,
        got => return Err(ProtoError::BadTag { got }),
    };
    if r.remaining() != 0 {
        return Err(ProtoError::Garbage {
            what: "trailing bytes after message",
        });
    }
    Ok(msg)
}

/// Appends one complete length-delimited frame (prefix + body) for `msg`
/// at `out`'s current end: length placeholder, body, patched length.
/// Several frames assembled back-to-back in one buffer leave in a single
/// socket write.
pub fn append_msg(out: &mut Vec<u8>, msg: &Msg) {
    let prefix = out.len();
    out.extend_from_slice(&[0u8; 4]); // length placeholder
    encode_body(msg, out);
    let body_len = u32::try_from(out.len() - prefix - 4).expect("frame bodies are far below 4 GiB");
    out[prefix..prefix + 4].copy_from_slice(&body_len.to_le_bytes());
}

/// Writes one length-delimited frame. One `write_all` per frame: the frame
/// is assembled in `scratch` (reused across calls to avoid per-message
/// allocation) so a concurrent writer never interleaves a partial frame.
///
/// # Errors
///
/// Propagates the socket's I/O error.
pub fn write_msg(
    w: &mut impl Write,
    msg: &Msg,
    scratch: &mut Vec<u8>,
) -> Result<(), std::io::Error> {
    scratch.clear();
    append_msg(scratch, msg);
    w.write_all(scratch)
}

/// Reads one length-delimited frame body into `body` — the per-connection
/// reusable read buffer — without decoding it. `body` is resized to the
/// frame's exact length, which zeroes only growth past its old length
/// (`read_exact` overwrites the rest); once its capacity has warmed up to
/// the connection's largest frame, reads stop allocating entirely.
///
/// The length prefix is validated against [`MAX_FRAME_BYTES`] *before* the
/// buffer is grown, so a garbage or hostile prefix cannot trigger a giant
/// allocation. A zero-length body is rejected as garbage.
///
/// # Errors
///
/// [`ProtoError::Io`] when the socket fails or closes (including EOF
/// mid-frame), plus the `Oversized`/`Garbage` framing checks above.
pub fn read_frame_body(r: &mut impl Read, body: &mut Vec<u8>) -> Result<(), ProtoError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(ProtoError::Oversized {
            declared: len as u64,
            limit: MAX_FRAME_BYTES,
        });
    }
    if len == 0 {
        return Err(ProtoError::Garbage {
            what: "zero-length frame",
        });
    }
    body.resize(len, 0);
    r.read_exact(body)?;
    Ok(())
}

/// The message tag of a raw frame body (the bytes after the length
/// prefix), after validating the magic. Receive loops use this to route
/// [`TAG_ENC_GRAD`] bodies to the zero-copy [`EncodedGradBatch`] parser
/// and everything else to [`decode_body`].
///
/// # Errors
///
/// [`ProtoError::Truncated`] on a body too short to carry magic + tag,
/// [`ProtoError::BadMagic`] on a foreign prefix.
pub fn body_tag(body: &[u8]) -> Result<u8, ProtoError> {
    let mut r = Reader::new(body);
    let magic = r.u32().ok_or(ProtoError::Truncated { what: "magic" })?;
    if magic != MAGIC {
        return Err(ProtoError::BadMagic { got: magic });
    }
    r.bytes_exact(1)
        .map(|b| b[0])
        .ok_or(ProtoError::Truncated { what: "tag" })
}

/// Reads one length-delimited frame and decodes it.
///
/// This is the convenience entry point (fresh buffer per call); hot
/// receive loops use [`read_frame_body`] with a reusable buffer instead.
///
/// # Errors
///
/// The framing errors of [`read_frame_body`] plus the decode errors of
/// [`decode_body`].
pub fn read_msg(r: &mut impl Read) -> Result<Msg, ProtoError> {
    let mut body = Vec::new();
    read_frame_body(r, &mut body)?;
    decode_body(&body)
}

/// Builder for the worker's batched encoded-gradient frame — the zero-copy
/// write path of the compressed hop.
///
/// The frame is assembled in one owned buffer via reserve-header /
/// fill-payload / patch-length: [`GradBatch::begin_entry`] writes the
/// entry's iteration and reserves the error and length patch sites, then
/// hands the buffer to the codec so the compressed payload is laid down
/// *directly into the outgoing frame* (no intermediate frame buffer, no
/// copy); [`GradBatch::finish_entry`] patches the reserved fields, and
/// [`GradBatch::frame`] patches the outer length prefix and entry count.
/// One buffer, one `write_all`, zero steady-state allocations once the
/// capacity is warm. The process world's worker writes one entry per frame,
/// as soon as the gradient exists; a sender that holds several gradients at
/// once (perf's `hop-64k` sends four) may put them in one frame, and the
/// coordinator parses any count.
///
/// Wire layout (body, behind the standard `u32` length prefix):
///
/// ```text
/// [u32 magic][u8 TAG_ENC_GRAD][u32 count]
/// count × [u64 iter][f64 err_l2][u32 frame_len][frame_len codec bytes]
/// ```
#[derive(Debug)]
pub struct GradBatch {
    buf: Vec<u8>,
    entries: u32,
    /// Patch site of the open entry's `err_l2`/`frame_len` fields, or
    /// `usize::MAX` when no entry is open.
    entry_patch: usize,
}

impl Default for GradBatch {
    fn default() -> Self {
        GradBatch {
            buf: Vec::new(),
            entries: 0,
            entry_patch: usize::MAX,
        }
    }
}

/// Fixed per-entry header: iteration, error norm, codec frame length.
const ENTRY_HEADER: usize = 8 + 8 + 4;

impl GradBatch {
    /// An empty batch (no buffer yet; capacity warms up on first use).
    #[must_use]
    pub fn new() -> Self {
        GradBatch::default()
    }

    /// Begins one entry for local iteration `iter` and returns the frame
    /// buffer, positioned so an append-mode codec encode lays the payload
    /// exactly where the entry expects it. Must be paired with
    /// [`GradBatch::finish_entry`]; entries cannot nest.
    pub fn begin_entry(&mut self, iter: u64) -> &mut Vec<u8> {
        debug_assert_eq!(self.entry_patch, usize::MAX, "entry already open");
        if self.buf.is_empty() {
            self.buf.extend_from_slice(&[0u8; 4]); // length placeholder
            wire::put_u32(&mut self.buf, MAGIC);
            self.buf.push(TAG_ENC_GRAD);
            wire::put_u32(&mut self.buf, 0); // entry-count placeholder
        }
        wire::put_u64(&mut self.buf, iter);
        self.entry_patch = self.buf.len();
        self.buf.extend_from_slice(&[0u8; 12]); // err_l2 + frame_len patch sites
        &mut self.buf
    }

    /// Completes the entry begun by [`GradBatch::begin_entry`]: everything
    /// the codec appended becomes the entry's frame, and the reserved
    /// error/length fields are patched in place.
    ///
    /// # Panics
    ///
    /// Panics if no entry is open or the codec wrote more than 4 GiB.
    pub fn finish_entry(&mut self, err_l2: f64) {
        let patch = self.entry_patch;
        assert!(patch < self.buf.len(), "finish_entry without begin_entry");
        let frame_len =
            u32::try_from(self.buf.len() - patch - 12).expect("codec frames are far below 4 GiB");
        self.buf[patch..patch + 8].copy_from_slice(&err_l2.to_bits().to_le_bytes());
        self.buf[patch + 8..patch + 12].copy_from_slice(&frame_len.to_le_bytes());
        self.entry_patch = usize::MAX;
        self.entries += 1;
    }

    /// Finalizes the frame — patches the outer length prefix and the entry
    /// count — and returns the complete wire bytes (prefix included),
    /// ready for a single socket write.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or an entry is still open.
    pub fn frame(&mut self) -> &[u8] {
        assert!(self.entries > 0, "empty batch has no frame");
        assert_eq!(self.entry_patch, usize::MAX, "entry still open");
        let body_len = u32::try_from(self.buf.len() - 4).expect("frame bodies are far below 4 GiB");
        self.buf[..4].copy_from_slice(&body_len.to_le_bytes());
        self.buf[9..13].copy_from_slice(&self.entries.to_le_bytes());
        &self.buf
    }

    /// Clears the batch for reuse, keeping the buffer capacity.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.entries = 0;
        self.entry_patch = usize::MAX;
    }
}

/// One entry of a batched encoded-gradient frame, borrowed from the frame
/// body — the zero-copy read side of the compressed hop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncodedGrad<'a> {
    /// The local iteration that produced the gradient.
    pub iter: u64,
    /// The worker-reported post-encode residual L2 norm (zero for a
    /// lossless codec).
    pub err_l2: f64,
    /// The self-describing codec frame, exactly as it crossed the socket —
    /// its length is the socket-measured `bytes_on_wire` charge.
    pub frame: &'a [u8],
}

/// Streaming zero-copy parser over a batched encoded-gradient frame body.
///
/// Entries borrow from the body (the per-connection read buffer), so
/// parsing allocates nothing; the codec decodes each [`EncodedGrad::frame`]
/// straight into a pooled tensor. Every field is bounds-checked against
/// the bytes actually present — a hostile count or length yields a typed
/// [`ProtoError`], never a panic or a giant allocation.
#[derive(Debug)]
pub struct EncodedGradBatch<'a> {
    r: Reader<'a>,
    left: u32,
}

impl<'a> EncodedGradBatch<'a> {
    /// Validates magic, tag, and entry count, returning the entry iterator.
    ///
    /// # Errors
    ///
    /// [`ProtoError::BadMagic`]/[`ProtoError::BadTag`] on a foreign frame,
    /// [`ProtoError::Truncated`]/[`ProtoError::Garbage`] on a malformed
    /// one (including an entry count the body cannot possibly hold).
    pub fn parse(body: &'a [u8]) -> Result<Self, ProtoError> {
        let mut r = Reader::new(body);
        let magic = r.u32().ok_or(ProtoError::Truncated { what: "magic" })?;
        if magic != MAGIC {
            return Err(ProtoError::BadMagic { got: magic });
        }
        let tag = r
            .bytes_exact(1)
            .ok_or(ProtoError::Truncated { what: "tag" })?[0];
        if tag != TAG_ENC_GRAD {
            return Err(ProtoError::BadTag { got: tag });
        }
        let left = r.u32().ok_or(ProtoError::Truncated {
            what: "entry count",
        })?;
        if left == 0 {
            return Err(ProtoError::Garbage {
                what: "empty encoded-gradient batch",
            });
        }
        if (left as usize).saturating_mul(ENTRY_HEADER) > r.remaining() {
            return Err(ProtoError::Garbage {
                what: "entry count exceeds frame",
            });
        }
        Ok(EncodedGradBatch { r, left })
    }

    /// Entries not yet yielded.
    #[must_use]
    pub fn remaining(&self) -> u32 {
        self.left
    }
}

impl<'a> Iterator for EncodedGradBatch<'a> {
    type Item = Result<EncodedGrad<'a>, ProtoError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let Some(iter) = self.r.u64() else {
            self.left = 0;
            return Some(Err(ProtoError::Truncated { what: "entry iter" }));
        };
        let Some(err_l2) = self.r.f64() else {
            self.left = 0;
            return Some(Err(ProtoError::Truncated {
                what: "entry error norm",
            }));
        };
        let Some(frame_len) = self.r.u32() else {
            self.left = 0;
            return Some(Err(ProtoError::Truncated {
                what: "entry frame length",
            }));
        };
        let Some(frame) = self.r.bytes_exact(frame_len as usize) else {
            self.left = 0;
            return Some(Err(ProtoError::Truncated {
                what: "entry codec frame",
            }));
        };
        if self.left == 0 && self.r.remaining() != 0 {
            return Some(Err(ProtoError::Garbage {
                what: "trailing bytes after last entry",
            }));
        }
        Some(Ok(EncodedGrad {
            iter,
            err_l2,
            frame,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Msg) {
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        write_msg(&mut buf, &msg, &mut scratch).unwrap();
        let back = read_msg(&mut buf.as_slice()).unwrap();
        assert_eq!(back, msg);
    }

    fn sample_setup() -> WorkerSetup {
        WorkerSetup {
            worker: 3,
            seed: 77,
            batch_size: 16,
            max_lead: 8,
            compute_lo_us: 1_000,
            compute_hi_us: 2_000,
            liveness_timeout_us: 150_000,
            start_iter: 5,
            round: 9,
            high_water: 11,
            rng_grant: (5 << 32) + 6,
            leave: Some(ChurnEvent::Retire { at_round: 120 }),
            faults: vec![
                WorkerFault::CrashAt { at_iter: 12 },
                WorkerFault::HangAt {
                    at_iter: 3,
                    for_us: 40_000,
                },
                WorkerFault::GrayFrom {
                    from_iter: 1,
                    step_us: 500,
                    cap_us: 500,
                },
                WorkerFault::GrayFrom {
                    from_iter: 2,
                    step_us: 250,
                    cap_us: 4_000,
                },
                WorkerFault::RestartAt {
                    at_iter: 7,
                    rejoin_after_us: 30_000,
                },
            ],
            compression: Compression::TopK { permille: 250 },
            params: Tensor::from_vec(vec![0.25, -1.5, 3.0]),
        }
    }

    #[test]
    fn every_message_roundtrips() {
        roundtrip(Msg::Hello {
            worker: 2,
            incarnation: 4,
        });
        roundtrip(Msg::Challenge {
            nonce: u64::MAX - 1,
            term: 3,
        });
        roundtrip(Msg::Auth {
            mac: 0x0123_4567_89ab_cdef,
        });
        roundtrip(Msg::Heartbeat { iter: 19 });
        // Every fate variant is covered where the codec lives
        // (`rna_core::fault`); here it is the framing around it.
        roundtrip(Msg::Fate(WorkerFate::Healthy));
        roundtrip(Msg::Fate(WorkerFate::Restarted {
            at_iter: 5,
            rejoined: true,
        }));
        roundtrip(Msg::Setup(sample_setup()));
        roundtrip(Msg::Params {
            round: 11,
            params: Tensor::from_vec(vec![1.0, -0.0, f32::MIN_POSITIVE]),
        });
        roundtrip(Msg::Round { round: 30 });
        roundtrip(Msg::Stop);
    }

    #[test]
    fn every_truncation_of_every_message_is_a_typed_error() {
        let messages = vec![
            Msg::Hello {
                worker: 0,
                incarnation: 0,
            },
            Msg::Challenge { nonce: 1, term: 1 },
            Msg::Auth { mac: 1 },
            Msg::Heartbeat { iter: 1 },
            Msg::Fate(WorkerFate::Restarted {
                at_iter: 1,
                rejoined: true,
            }),
            Msg::Setup(sample_setup()),
            Msg::Params {
                round: 1,
                params: Tensor::from_vec(vec![1.0]),
            },
            Msg::Round { round: 1 },
        ];
        let mut scratch = Vec::new();
        for msg in messages {
            let mut buf = Vec::new();
            write_msg(&mut buf, &msg, &mut scratch).unwrap();
            // Truncating the *stream* at any byte must yield Io (EOF) or a
            // typed decode error — never a panic, never a giant allocation.
            for cut in 0..buf.len() {
                assert!(
                    read_msg(&mut &buf[..cut]).is_err(),
                    "cut={cut} of {msg:?} decoded"
                );
            }
            // Truncating the *body* (valid prefix, short payload) must be
            // a Truncated/Garbage decode error.
            for cut in 4..buf.len().saturating_sub(1) {
                let err = decode_body(&buf[4..cut]).unwrap_err();
                assert!(
                    matches!(
                        err,
                        ProtoError::Truncated { .. } | ProtoError::Garbage { .. }
                    ),
                    "cut={cut}: {err}"
                );
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        let mut buf = Vec::new();
        wire::put_u32(&mut buf, u32::MAX);
        // Followed by nothing — if the reader tried to allocate/read the
        // declared 4 GiB this test would OOM or hang instead of erroring.
        match read_msg(&mut buf.as_slice()) {
            Err(ProtoError::Oversized { declared, .. }) => {
                assert_eq!(declared, u64::from(u32::MAX))
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn a_reused_body_holds_exactly_the_latest_frame() {
        let frame = |bytes: &[u8]| {
            let mut f = Vec::new();
            wire::put_u32(&mut f, bytes.len() as u32);
            f.extend_from_slice(bytes);
            f
        };
        let mut stream = frame(&[7; 64]);
        stream.extend(frame(&[1, 2, 3]));
        let mut stream = stream.as_slice();
        let mut body = Vec::new();
        read_frame_body(&mut stream, &mut body).unwrap();
        assert_eq!(body, [7; 64]);
        read_frame_body(&mut stream, &mut body).unwrap();
        assert_eq!(body, [1, 2, 3]);

        let cut = frame(&[9; 64]);
        let err = read_frame_body(&mut &cut[..40], &mut body).unwrap_err();
        assert!(matches!(err, ProtoError::Io(_)), "got {err}");
    }

    #[test]
    fn absurd_tensor_length_inside_a_frame_is_rejected() {
        // A hand-built Params frame whose tensor claims 2^40 elements but
        // supplies none. The tensor reader checks the claim against the
        // bytes present before allocating.
        let mut body = Vec::new();
        wire::put_u32(&mut body, MAGIC);
        body.push(TAG_PARAMS);
        wire::put_u64(&mut body, 0); // round
        wire::put_u64(&mut body, 1 << 40); // declared tensor length
        let err = decode_body(&body).unwrap_err();
        assert!(matches!(err, ProtoError::Truncated { .. }), "got {err}");
    }

    #[test]
    fn absurd_fault_count_is_rejected_before_reserving() {
        let mut body = Vec::new();
        wire::put_u32(&mut body, MAGIC);
        body.push(16); // TAG_SETUP
        wire::put_u32(&mut body, 1); // worker
        for _ in 0..10 {
            wire::put_u64(&mut body, 0); // seed..rng_grant scalar fields
        }
        wire::put_bool(&mut body, false); // no departure
        wire::put_u32(&mut body, 0); // codec tag (lossless)
        wire::put_u32(&mut body, 0); // codec parameter
        wire::put_u32(&mut body, u32::MAX); // fault count with no faults behind it
        let err = decode_body(&body).unwrap_err();
        assert!(matches!(err, ProtoError::Garbage { .. }), "got {err}");
    }

    #[test]
    fn unknown_setup_codec_is_garbage() {
        let mut body = Vec::new();
        wire::put_u32(&mut body, MAGIC);
        body.push(16); // TAG_SETUP
        wire::put_u32(&mut body, 1); // worker
        for _ in 0..10 {
            wire::put_u64(&mut body, 0);
        }
        wire::put_bool(&mut body, false);
        wire::put_u32(&mut body, 9); // no such codec tag
        wire::put_u32(&mut body, 0);
        wire::put_u32(&mut body, 0); // fault count
        wire::put_u64(&mut body, 0); // empty params tensor
        let err = decode_body(&body).unwrap_err();
        assert!(matches!(err, ProtoError::Garbage { .. }), "got {err}");
    }

    #[test]
    fn a_setup_departure_must_be_a_retirement_or_an_eviction() {
        for fate in [WorkerFate::Healthy, WorkerFate::Crashed { at_iter: 3 }] {
            let mut body = Vec::new();
            wire::put_u32(&mut body, MAGIC);
            body.push(16); // TAG_SETUP
            wire::put_u32(&mut body, 1); // worker
            for _ in 0..10 {
                wire::put_u64(&mut body, 0);
            }
            wire::put_bool(&mut body, true);
            fate.encode_into(&mut body);
            let err = decode_body(&body).unwrap_err();
            assert!(
                matches!(err, ProtoError::Garbage { .. }),
                "{fate:?}: got {err}"
            );
        }
    }

    /// Builds a batch of `grads` via the zero-copy writer, exactly as the
    /// worker does: append-mode codec encode between begin/finish.
    fn build_batch(codec: Compression, grads: &[(u64, &[f32])]) -> GradBatch {
        let mut batch = GradBatch::new();
        for &(iter, xs) in grads {
            let buf = batch.begin_entry(iter);
            codec.encode_slice_append(xs, buf, &mut || 7);
            batch.finish_entry(0.5 + iter as f64);
        }
        batch
    }

    #[test]
    fn grad_batch_roundtrips_through_the_borrowed_parser() {
        let codec = Compression::Fp16;
        let a = [1.0f32, -2.0, 0.5];
        let b = [4.0f32, 0.0, -8.0];
        let mut batch = build_batch(codec, &[(3, &a), (4, &b)]);
        let frame = batch.frame().to_vec();

        // Outer framing: length prefix covers the body exactly.
        let body_len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(body_len, frame.len() - 4);
        let body = &frame[4..];
        assert_eq!(body_tag(body).unwrap(), TAG_ENC_GRAD);

        let entries: Vec<_> = EncodedGradBatch::parse(body)
            .expect("parse")
            .collect::<Result<_, _>>()
            .expect("entries");
        assert_eq!(entries.len(), 2);
        for (entry, (iter, xs)) in entries.iter().zip([(3u64, &a[..]), (4, &b[..])]) {
            assert_eq!(entry.iter, iter);
            assert_eq!(entry.err_l2, 0.5 + iter as f64);
            assert_eq!(entry.frame.len() as u64, codec.frame_bytes(xs.len()));
            let mut out = vec![0.0f32; xs.len()];
            codec.decode_slice(entry.frame, &mut out).expect("decode");
            for (got, want) in out.iter().zip(xs) {
                assert_eq!(got, want); // fp16-exact inputs
            }
        }
    }

    #[test]
    fn grad_batch_reset_reuses_the_buffer() {
        let codec = Compression::Int8;
        let xs = [1.0f32; 16];
        let mut batch = build_batch(codec, &[(0, &xs)]);
        let first = batch.frame().to_vec();
        let ptr = batch.frame().as_ptr();
        batch.reset();
        let buf = batch.begin_entry(0);
        codec.encode_slice_append(&xs, buf, &mut || 7);
        batch.finish_entry(0.5);
        assert_eq!(batch.frame(), &first[..], "same input, same bytes");
        assert_eq!(batch.frame().as_ptr(), ptr, "no realloc on reuse");
    }

    #[test]
    fn hostile_batch_bodies_are_typed_errors_never_panics() {
        let mut batch = build_batch(Compression::Fp16, &[(1, &[1.0f32, 2.0])]);
        let frame = batch.frame().to_vec();
        let body = &frame[4..];

        // Truncation at every cut inside the body.
        for cut in 0..body.len() {
            let r = EncodedGradBatch::parse(&body[..cut])
                .and_then(|batch| batch.collect::<Result<Vec<_>, _>>());
            assert!(r.is_err(), "cut={cut} parsed");
        }
        // Trailing garbage after the last entry.
        let mut long = body.to_vec();
        long.push(0xEE);
        let r =
            EncodedGradBatch::parse(&long).and_then(|batch| batch.collect::<Result<Vec<_>, _>>());
        assert!(matches!(r, Err(ProtoError::Garbage { .. })), "{r:?}");
        // An absurd entry count is rejected before any entry is read.
        let mut forged = body.to_vec();
        forged[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            EncodedGradBatch::parse(&forged),
            Err(ProtoError::Garbage { .. })
        ));
        // Zero entries is garbage, not an empty iterator.
        let mut empty = body[..9].to_vec();
        empty[5..9].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            EncodedGradBatch::parse(&empty),
            Err(ProtoError::Garbage { .. })
        ));
        // A foreign tag is rejected up front.
        let mut foreign = body.to_vec();
        foreign[4] = 19; // TAG_STOP
        assert!(matches!(
            EncodedGradBatch::parse(&foreign),
            Err(ProtoError::BadTag { got: 19 })
        ));
    }

    #[test]
    fn bad_magic_and_bad_tag_are_typed_errors() {
        let mut body = Vec::new();
        wire::put_u32(&mut body, 0x5454_5448); // "HTTP"-ish
        body.push(1);
        assert!(matches!(
            decode_body(&body),
            Err(ProtoError::BadMagic { .. })
        ));

        let mut body = Vec::new();
        wire::put_u32(&mut body, MAGIC);
        body.push(200);
        assert!(matches!(
            decode_body(&body),
            Err(ProtoError::BadTag { got: 200 })
        ));
    }

    #[test]
    fn trailing_bytes_are_garbage() {
        let mut buf = Vec::new();
        let mut scratch = Vec::new();
        write_msg(&mut buf, &Msg::Round { round: 1 }, &mut scratch).unwrap();
        let mut body = buf[4..].to_vec();
        body.push(0xEE);
        assert!(matches!(
            decode_body(&body),
            Err(ProtoError::Garbage { .. })
        ));
    }

    #[test]
    fn garbage_bytes_never_panic_the_decoder() {
        // Deterministic pseudo-random fuzz: whatever the bytes, the decoder
        // returns, with an error or a (harmless) message — it never panics
        // and never allocates beyond the frame it was handed.
        let mut state: u64 = 0x243F_6A88_85A3_08D3;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..2_000 {
            let len = (next() % 256) as usize;
            let mut body: Vec<u8> = (0..len).map(|_| (next() & 0xFF) as u8).collect();
            // Half the rounds get a valid magic so tag/payload paths fuzz
            // too (random magic almost never matches).
            if round % 2 == 0 && body.len() >= 4 {
                body[..4].copy_from_slice(&MAGIC.to_le_bytes());
            }
            let _ = decode_body(&body);
        }
    }

    #[test]
    fn zero_length_frames_are_garbage() {
        let mut buf = Vec::new();
        wire::put_u32(&mut buf, 0);
        assert!(matches!(
            read_msg(&mut buf.as_slice()),
            Err(ProtoError::Garbage { .. })
        ));
    }

    #[test]
    fn ct_eq_agrees_with_plain_equality() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(!ct_eq(b"\x00abc", b"abc\x00"));
        // First-byte and last-byte mismatches both reject (the point of
        // the constant-time fold is that they take the same path).
        assert!(!ct_eq(b"xbcdefgh", b"abcdefgh"));
        assert!(!ct_eq(b"abcdefgx", b"abcdefgh"));
    }

    #[test]
    fn siphash24_matches_the_reference_vectors() {
        // Key 00 01 02 .. 0f, inputs [] and [0x00], from the SipHash
        // reference implementation's vectors_sip64 table.
        let key = AuthKey {
            k0: 0x0706_0504_0302_0100,
            k1: 0x0f0e_0d0c_0b0a_0908,
        };
        assert_eq!(siphash24(&key, b""), 0x726f_db47_dd0e_0e31);
        assert_eq!(siphash24(&key, &[0x00]), 0x74f8_39c5_93dc_67fd);
        assert_eq!(
            siphash24(&key, &[0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07]),
            0x93f5_f579_9a93_2462
        );
    }

    #[test]
    fn mac_binds_every_field() {
        let key = AuthKey { k0: 11, k1: 22 };
        let base = compute_mac(&key, 1, 2, 3, 4);
        assert_eq!(base, compute_mac(&key, 1, 2, 3, 4));
        assert_ne!(base, compute_mac(&key, 9, 2, 3, 4), "nonce unbound");
        assert_ne!(base, compute_mac(&key, 1, 9, 3, 4), "term unbound");
        assert_ne!(base, compute_mac(&key, 1, 2, 9, 4), "worker unbound");
        assert_ne!(base, compute_mac(&key, 1, 2, 3, 9), "incarnation unbound");
        assert_ne!(
            base,
            compute_mac(&AuthKey { k0: 11, k1: 23 }, 1, 2, 3, 4),
            "key unbound"
        );
        assert_eq!(verify_mac(&key, 1, 2, 3, 4, base), Ok(()));
        assert_eq!(
            verify_mac(&key, 1, 3, 3, 4, base),
            Err(AuthError::BadMac),
            "a stale-term response must not verify under the bumped term"
        );
        assert_eq!(
            verify_mac(&key, 2, 2, 3, 4, base),
            Err(AuthError::BadMac),
            "a replayed response must not verify under a fresh nonce"
        );
    }

    #[test]
    fn auth_key_hex_roundtrips_and_rejects_garbage() {
        let key = AuthKey {
            k0: 0x0123_4567_89ab_cdef,
            k1: 0xfedc_ba98_7654_3210,
        };
        assert_eq!(AuthKey::from_hex(&key.to_hex()), Some(key));
        assert_eq!(
            AuthKey::from_hex(&format!("  {}\n", key.to_hex())),
            Some(key)
        );
        assert_eq!(AuthKey::from_hex(""), None);
        assert_eq!(AuthKey::from_hex("abc"), None);
        assert_eq!(AuthKey::from_hex(&"g".repeat(32)), None);
        assert_eq!(AuthKey::from_hex(&"0".repeat(33)), None);
    }
}
