//! The third execution world: worker *processes* over real TCP.
//!
//! [`run_process`] binds an ephemeral localhost port, spawns one
//! `rna-worker` subprocess per worker, and supervises them over the
//! length-delimited protocol of [`crate::proto`]. The controller, the
//! `Mirror` it reads and the worker loop are the same code the threaded
//! world runs — this module only drives them over sockets: per-connection
//! reader threads write the mirror on their subprocess's behalf, and the
//! `Transport`'s parameter/round pushes become framed TCP writes.
//!
//! What is *real* here that the other worlds simulate:
//!
//! - A planned crash or crash-restart is a genuine process death — the
//!   worker executes `abort()` mid-protocol, indistinguishable on the wire
//!   from `kill -9` (which [`ProcessConfig::with_kill9`] also delivers, as
//!   an unplanned SIGKILL the fault plan never announced).
//! - A partition is a severed socket ([`ProcessConfig::with_sever`] calls
//!   `shutdown` on a live connection), not a flag in a shim.
//! - A slow worker is a genuinely slow process; its frames arrive late
//!   because they were sent late.
//!
//! Rejoin is checkpoint-based: the coordinator remembers each worker's
//! completed-iteration count, respawns the process (planned restarts
//! always; unplanned deaths when [`ProcessConfig::respawn_unplanned`] is
//! set), and the fresh incarnation's `Setup` frame carries the current
//! master, the round counter, and the iteration to resume from — the
//! worker fast-forwards its sampler so the data stream continues instead
//! of repeating. Supervision waits for events, never on a timer: a child is
//! reaped as it exits (its supervisor blocks reading the child's stdout
//! pipe), and teardown reads the fates once every reader has drained.
//!
//! As in the threaded world the wire codec's encode leg belongs to the
//! worker ([`crate::worker`]); here the hop is a real one. The worker's
//! socket link encodes `grad + residual` straight into a one-entry frame
//! ([`crate::proto::GradBatch`]) and writes it before the deposit returns.
//! That frame is also the heartbeat: the coordinator's reader refreshes the
//! worker's liveness and iteration count from it, decodes chunk-parallel
//! into a recycled cache buffer and deposits the gradient with the frame
//! length that physically crossed the socket; the three-world crosscheck
//! pins every such frame to the DES formula byte-for-byte.
//!
//! ## Survivability
//!
//! Admission is authenticated: a `Hello` names the worker, the
//! coordinator answers with a fresh nonce and its term, and the worker
//! proves possession of the cluster key with a MAC over
//! nonce‖term‖worker‖incarnation ([`crate::proto::compute_mac`]).
//! Replayed or stale handshakes fail the constant-time verification and
//! are counted in [`ProcessResult::auth_rejects`]; the run never admits
//! them. The key travels only through the address book
//! ([`AddrBook`]) or the spawn arguments — never over the wire.
//!
//! The coordinator itself is killable mid-run
//! ([`ProcessConfig::with_coord_kill`]): the incarnation aborts at a
//! scheduled round, every socket dies, and a fresh incarnation restarts
//! from the newest *disk* checkpoint under a bumped term. Workers treat
//! the dead socket as a socket event, not a death: they re-handshake
//! under capped exponential backoff ([`crate::worker::run_worker`]) and the
//! redone rounds are honestly counted in `failover_rounds_lost`.
//!
//! With [`ProcessConfig::with_fault_proxy`], the physical half of the
//! network-fault plan (entries naming the controller link) is executed by
//! a per-link TCP proxy on the real byte stream — frames eaten, bytes
//! flipped, frames truncated mid-body, deliveries delayed — while
//! partitions and peer-link entries stay in the controller's network-fault
//! shim, which remains the only place they can exist in a flat
//! worker↔coordinator topology.

use std::collections::VecDeque;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rna_core::fault::{ConfigError, IterDirective, WorkerFate, WorkerFault};
use rna_core::recovery::{CheckpointStore, RecoveryError};
use rna_core::SyncMode;
use rna_simnet::SimRng;
use rna_tensor::{Tensor, TensorPool};

use rna_tensor::codec::{self, Compression};

use crate::faultproxy::FaultProxy;
use crate::proto::{
    body_tag, decode_body, read_frame_body, read_msg, verify_mac, write_msg, AuthError, AuthKey,
    EncodedGradBatch, Msg, WorkerSetup, TAG_ENC_GRAD,
};
use crate::threaded::{finish, validate_config, ThreadedConfig, ThreadedResult};
use crate::transport::{
    load_ctrl_checkpoint, lock, past_workers, supervise, task, CtrlCheckpoint, Lineage, Mirror,
    Transport,
};
use crate::worker::Gate;

/// Salt folded into the seed to derive the 128-bit cluster auth key, so
/// the key is deterministic for a given run but never equal to the seed.
const KEY_SALT: u64 = 0x524e_4150_u64; // "RNAP"

/// Salt for the challenge-nonce base; the per-connection nonce mixes the
/// coordinator's term and a never-reset connection sequence on top, so a
/// recorded handshake replayed later verifies against a *different* nonce
/// and fails the MAC.
const NONCE_SALT: u64 = 0x4e4f_4e43_u64; // "NONC"

/// How long the coordinator waits for the initial cluster to connect
/// before declaring the spawn wedged.
const JOIN_TIMEOUT: Duration = Duration::from_secs(20);

/// Grace period between the `Stop` frame and a hard kill at teardown.
const STOP_GRACE: Duration = Duration::from_secs(2);

/// How long a restarted coordinator holds its first round open for the
/// workers it severed to re-handshake. Comfortably above the workers'
/// reconnect backoff ceiling; a worker that stays away (it really died)
/// forfeits the wait and the run resumes without it.
const REJOIN_TIMEOUT: Duration = Duration::from_secs(10);

/// The coordinator's address book: everything an external worker needs to
/// find and join a run — the listener address and the cluster auth key.
///
/// On disk it is two lines: the `host:port` address, then the key as 32
/// lowercase hex digits. The coordinator writes it once the port is bound
/// ([`ProcessConfig::with_addr_file`]); `rna-worker @<path>` and tests
/// parse it back with [`AddrBook::load`]. Malformed books fail with a
/// typed [`ConfigError::AddrBookMalformed`] naming the offending line,
/// never a panic — the file crosses a process boundary and deserves the
/// same suspicion as a network frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrBook {
    /// The coordinator's listener address (`host:port`).
    pub addr: String,
    /// The 128-bit cluster key every handshake MAC derives from.
    pub key: AuthKey,
}

impl AddrBook {
    /// Parses the two-line book format.
    ///
    /// # Errors
    ///
    /// [`ConfigError::AddrBookMalformed`] with the 1-based offending line
    /// when a line is missing, the address has no port, the key is not 32
    /// hex digits, or trailing content follows the key.
    pub fn parse(text: &str) -> Result<AddrBook, ConfigError> {
        let mut lines = text.lines();
        let addr = lines
            .next()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .ok_or(ConfigError::AddrBookMalformed {
                line: 1,
                why: "missing the listener address",
            })?;
        if !addr.contains(':') {
            return Err(ConfigError::AddrBookMalformed {
                line: 1,
                why: "the listener address has no port",
            });
        }
        let key_line = lines
            .next()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .ok_or(ConfigError::AddrBookMalformed {
                line: 2,
                why: "missing the auth key",
            })?;
        let key = AuthKey::from_hex(key_line).ok_or(ConfigError::AddrBookMalformed {
            line: 2,
            why: "the auth key is not 32 hex digits",
        })?;
        if let Some((extra, _)) = lines.enumerate().find(|(_, l)| !l.trim().is_empty()) {
            return Err(ConfigError::AddrBookMalformed {
                line: 3 + extra,
                why: "trailing content after the auth key",
            });
        }
        Ok(AddrBook {
            addr: addr.to_string(),
            key,
        })
    }

    /// Reads and parses the book at `path`.
    ///
    /// # Errors
    ///
    /// [`ConfigError::AddrBookMalformed`] — line 0 when the file itself
    /// cannot be read, otherwise as [`AddrBook::parse`].
    pub fn load(path: &Path) -> Result<AddrBook, ConfigError> {
        let text = std::fs::read_to_string(path).map_err(|_| ConfigError::AddrBookMalformed {
            line: 0,
            why: "the address book cannot be read",
        })?;
        AddrBook::parse(&text)
    }

    /// The on-disk rendering [`AddrBook::parse`] round-trips.
    fn render(&self) -> String {
        format!("{}\n{}\n", self.addr, self.key.to_hex())
    }
}

/// Configuration of a process-world run: the shared [`ThreadedConfig`]
/// plus the knobs that only exist once workers are real processes.
#[derive(Debug, Clone)]
pub struct ProcessConfig {
    /// The world-independent configuration (workers, rounds, mode, fault
    /// plans, tolerance, codec). BSP is rejected: the barrier runtime has
    /// no socket incarnation.
    pub base: ThreadedConfig,
    /// Explicit path to the `rna-worker` binary. When unset, the
    /// `RNA_WORKER_EXE` environment variable is consulted, then siblings
    /// of the current executable (which covers `cargo test`, where the
    /// binary lands next to the test runner's `deps` directory).
    pub worker_exe: Option<PathBuf>,
    /// Respawn workers whose process exits without the fault plan
    /// announcing it (SIGKILL, severed socket, a genuine bug). Off, an
    /// unplanned death is recorded as a crash fate; on, the worker rejoins
    /// from its coordinator-side checkpoint and the respawn is counted in
    /// [`ProcessResult::worker_respawns`].
    pub respawn_unplanned: bool,
    /// `(worker, round)` pairs: deliver a real SIGKILL to the worker's
    /// process once the round counter reaches `round`. Unlike
    /// `FaultPlan::crash`, the worker is never told — the fault is only
    /// observable through the socket going quiet.
    pub kill9: Vec<(usize, u64)>,
    /// `(worker, round)` pairs: sever the worker's live socket (TCP
    /// `shutdown` on the coordinator side) once the round counter reaches
    /// `round`. The worker exits on the dead socket and rejoins per
    /// [`ProcessConfig::respawn_unplanned`].
    pub sever: Vec<(usize, u64)>,
    /// Worker slots the coordinator does *not* spawn a subprocess for:
    /// these workers arrive from outside via the address book (a
    /// pre-spawned `rna-worker`, or a test calling
    /// [`crate::worker::run_worker`] directly). They are excluded from the
    /// initial join barrier and are never respawned.
    pub external: Vec<usize>,
    /// When set, the coordinator writes its address book — the listener
    /// address on the first line, the cluster auth key on the second
    /// ([`AddrBook`]) — to this path once the port is bound, so external
    /// workers can find the run without any side channel.
    pub addr_file: Option<PathBuf>,
    /// Rounds at which the *whole coordinator* dies mid-run: the
    /// incarnation aborts before executing the round, every socket goes
    /// with it, and a fresh incarnation restarts from the newest disk
    /// checkpoint (the initial state when none was cut yet) under a
    /// bumped term. Requires nothing of the workers beyond their
    /// reconnect loops. Without [`ThreadedConfig::recovery_dir`] the
    /// restart honestly redoes everything since round 0.
    pub coord_kill: Vec<u64>,
    /// Route every worker↔coordinator socket through a per-link TCP fault
    /// proxy executing the physical half of `net_fault_plan` on the real
    /// byte stream. The virtual half (partitions, peer links) stays in the
    /// controller's shim.
    pub fault_proxy: bool,
}

impl ProcessConfig {
    /// Wraps a [`ThreadedConfig`] with process-world defaults (no kills,
    /// no severs, respawn unplanned deaths).
    pub fn new(base: ThreadedConfig) -> Self {
        ProcessConfig {
            base,
            worker_exe: None,
            respawn_unplanned: true,
            kill9: Vec::new(),
            sever: Vec::new(),
            external: Vec::new(),
            addr_file: None,
            coord_kill: Vec::new(),
            fault_proxy: false,
        }
    }

    /// A fast homogeneous configuration mirroring
    /// [`ThreadedConfig::quick`].
    pub fn quick(num_workers: usize, mode: SyncMode) -> Self {
        ProcessConfig::new(ThreadedConfig::quick(num_workers, mode))
    }

    /// Sets an explicit worker-binary path (tests use
    /// `env!("CARGO_BIN_EXE_rna-worker")`).
    pub fn with_worker_exe(mut self, exe: impl Into<PathBuf>) -> Self {
        self.worker_exe = Some(exe.into());
        self
    }

    /// Schedules a real SIGKILL for `worker` at `round`.
    pub fn with_kill9(mut self, worker: usize, round: u64) -> Self {
        self.kill9.push((worker, round));
        self
    }

    /// Schedules a real socket sever for `worker` at `round`.
    pub fn with_sever(mut self, worker: usize, round: u64) -> Self {
        self.sever.push((worker, round));
        self
    }

    /// Sets the unplanned-death policy (see
    /// [`ProcessConfig::respawn_unplanned`]).
    pub fn with_respawn_unplanned(mut self, respawn: bool) -> Self {
        self.respawn_unplanned = respawn;
        self
    }

    /// Marks `worker` as externally managed: no subprocess is spawned for
    /// it, and it is expected to dial in via the address book.
    pub fn with_external(mut self, worker: usize) -> Self {
        self.external.push(worker);
        self
    }

    /// Writes the address book ([`AddrBook`]) to `path` once the listener
    /// is bound, for external workers to discover the run.
    pub fn with_addr_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.addr_file = Some(path.into());
        self
    }

    /// Schedules a coordinator death-and-restart at `round` (see
    /// [`ProcessConfig::coord_kill`]).
    pub fn with_coord_kill(mut self, round: u64) -> Self {
        self.coord_kill.push(round);
        self
    }

    /// Routes worker sockets through the per-link fault proxy (see
    /// [`ProcessConfig::fault_proxy`]).
    pub fn with_fault_proxy(mut self) -> Self {
        self.fault_proxy = true;
        self
    }
}

/// The outcome of a process-world run: the shared counters, plus the
/// process-only observations.
#[derive(Debug, Clone)]
pub struct ProcessResult {
    /// The world-independent result — same fields, same meaning as the
    /// threaded world, so cross-world assertions compare directly.
    pub run: ThreadedResult,
    /// Worker processes respawned after *unplanned* deaths (SIGKILL,
    /// severed sockets). Planned crash-restarts are not counted here —
    /// they are visible as `Restarted` fates, like in the other worlds.
    pub worker_respawns: u64,
    /// Live sockets the run severed (scheduled severs plus write failures
    /// that forced a disconnect).
    pub sockets_severed: u64,
    /// Re-handshakes the coordinator accepted from an incarnation it had
    /// already admitted — a worker surviving a dead socket (sever or
    /// coordinator restart) without being respawned. Counted coordinator
    /// side, at the round-edge events that cause them, so a same-seed
    /// rerun reproduces the count exactly.
    pub reconnect_attempts: u64,
    /// Handshakes rejected with a typed [`AuthError`]: an unknown worker
    /// index, a stale incarnation, or a MAC that failed the constant-time
    /// verification (including replayed recordings, which face a fresh
    /// nonce). Garbage frames and mid-handshake socket failures are
    /// dropped silently and not counted.
    pub auth_rejects: u64,
    /// Fault events the per-link TCP proxy executed on real sockets
    /// (frames eaten, bytes flipped, truncation severs, delays). 0 unless
    /// [`ProcessConfig::fault_proxy`] is set.
    pub proxy_faults_injected: u64,
    /// Coordinator incarnations restarted from disk after a scheduled
    /// [`ProcessConfig::coord_kill`].
    pub coordinator_restarts: u64,
}

/// What the coordinator keeps per worker process beside its [`Mirror`]
/// slot: the socket, and the supervision state the spawner needs. The
/// mirror's `alive` means *reachable* here: cleared by the reader on
/// EOF/error and by the child supervisor on process exit, set again when a
/// (re)spawned incarnation completes its handshake.
#[derive(Default)]
struct ProcSlot {
    /// Coordinator→worker write half. `None` while down or severed.
    conn: Mutex<Option<TcpStream>>,
    /// The worker's post-mortem. Reader threads fill it from a graceful
    /// `Fate` frame only when empty; the child supervisor's verdicts
    /// (crashed, restarted) overwrite — a respawned worker's final
    /// incarnation honestly reports `Healthy`, which must not mask the
    /// restart.
    fate: Mutex<Option<WorkerFate>>,
    /// `start_iter` the next accepted incarnation resumes from.
    start_iter: AtomicU64,
    /// Expected incarnation of the next Hello; readers from older
    /// incarnations must not clobber `alive` after a respawn.
    incarnation: AtomicU64,
    /// Reader threads spawned / exited for this worker, so the child
    /// supervisor can wait for the final frames of a dead incarnation to
    /// drain before classifying the death.
    readers_started: AtomicU64,
    readers_exited: AtomicU64,
    /// The running incarnation's process while its supervisor awaits its
    /// exit; a scheduled SIGKILL and the stop grace's kill reach it here.
    child: Mutex<Option<Child>>,
    /// Connection generation, bumped per accepted handshake. A reader may
    /// only clear `alive`/`conn` while it still owns the latest
    /// generation — a *same-incarnation* reconnect must not be clobbered
    /// by the dead socket's reader draining its EOF late.
    conn_gen: AtomicU64,
    /// Incarnation of the most recently accepted handshake (`u64::MAX`
    /// before the first). A repeat is a reconnect, not a respawn.
    last_handshake: AtomicU64,
}

struct ProcShared {
    /// Fed by the per-connection reader threads.
    mirror: Mirror,
    slots: Vec<ProcSlot>,
    /// Every supervision wait parks here, and whatever it may be waiting
    /// for wakes it: a reader exits, a handshake is admitted, a child is
    /// reaped, the run stops, a round is published.
    events: Gate,
    /// Latest master published by the controller; what a late joiner's
    /// `Setup` frame carries.
    published: Mutex<Tensor>,
    /// The cluster auth key every handshake MAC is verified against.
    key: AuthKey,
    /// Base the per-connection challenge nonces mix from.
    nonce_base: u64,
    /// The current coordinator term, bound into every challenge.
    term: AtomicU64,
    /// The highest round any incarnation has published; like the slots'
    /// `start_iter` it outlives a coordinator kill.
    high_water: AtomicU64,
    /// Never-reset handshake sequence: makes every nonce unique across
    /// coordinator incarnations, so a recorded handshake cannot replay.
    conn_seq: AtomicU64,
    param_len: usize,
    /// The run's wire codec; the reader threads decode against it and a
    /// frame carrying any other codec is a protocol violation.
    compression: Compression,
    sockets_severed: AtomicU64,
    worker_respawns: AtomicU64,
    auth_rejects: AtomicU64,
    reconnect_attempts: AtomicU64,
}

impl ProcShared {
    /// Whether every frame worker `w`'s sockets carried, a `Fate` included, is in.
    fn readers_drained(&self, w: usize) -> bool {
        let slot = &self.slots[w];
        slot.readers_exited.load(Ordering::Acquire) >= slot.readers_started.load(Ordering::Acquire)
    }

    /// Sends SIGKILL to worker `w`'s process; `false` when it has none.
    fn kill_child(&self, w: usize) -> bool {
        lock(&self.slots[w].child)
            .as_mut()
            .map(Child::kill)
            .is_some()
    }

    /// Drops worker `w`'s write half and counts the sever. The worker
    /// exits on its dead socket; the child supervisor decides whether it
    /// comes back.
    fn sever_conn(&self, w: usize) {
        if let Some(s) = lock(&self.slots[w].conn).take() {
            let _ = s.shutdown(Shutdown::Both);
            self.sockets_severed.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Writes one frame to worker `w`'s socket, severing it on a write
    /// failure — the only case that returns `false`. No socket means the
    /// worker is down: the threaded world's push into a dead worker's slot
    /// also "succeeds" (nobody reads it), so that is not a drop — counting
    /// it would skew the cross-world message accounting.
    fn send(&self, w: usize, frame: &[u8]) -> bool {
        let mut guard = lock(&self.slots[w].conn);
        let Some(stream) = guard.as_mut() else {
            return true;
        };
        if std::io::Write::write_all(stream, frame).is_ok() {
            return true;
        }
        drop(guard);
        self.sever_conn(w);
        false
    }
}

/// [`Transport`] over TCP: pushes become frames on the per-worker sockets,
/// and scheduled severs and SIGKILLs fire on the round edge.
struct ProcessTransport {
    shared: Arc<ProcShared>,
    /// Scheduled severs and SIGKILLs not yet executed.
    sever: Vec<(usize, u64)>,
    kill9: Vec<(usize, u64)>,
    /// The parameter frame is encoded once per round and the same bytes go
    /// to every socket.
    frame: Vec<u8>,
    frame_round: Option<u64>,
    scratch: Vec<u8>,
}

impl Transport for ProcessTransport {
    fn push_params(
        &mut self,
        w: usize,
        round: u64,
        snap: &Arc<Tensor>,
        _pool: &mut TensorPool,
    ) -> bool {
        if self.frame_round != Some(round) {
            // One encode per round; every socket gets the same bytes. The
            // published copy is what a worker joining mid-run starts from.
            lock(&self.shared.published).copy_from(snap);
            self.frame.clear();
            let msg = Msg::Params {
                round,
                params: Tensor::clone(snap),
            };
            write_msg(&mut self.frame, &msg, &mut self.scratch)
                .expect("writing to a Vec cannot fail");
            self.frame_round = Some(round);
        }
        self.shared.send(w, &self.frame)
    }

    fn advance_round(&mut self, k: u64) {
        // Scheduled severs and SIGKILLs fire on the round edge: a real
        // partition or death at a known protocol point, so tests can assert
        // what it cost. A SIGKILL that finds no process (the worker is
        // between incarnations) stays due for the next one.
        let shared = &self.shared;
        shared.high_water.fetch_max(k, Ordering::AcqRel);
        self.sever.retain(|&(w, at)| {
            if k >= at {
                shared.sever_conn(w);
            }
            k < at
        });
        self.kill9
            .retain(|&(w, at)| k < at || !shared.kill_child(w));
        let mut frame = Vec::new();
        write_msg(&mut frame, &Msg::Round { round: k }, &mut self.scratch)
            .expect("writing to a Vec cannot fail");
        for w in 0..self.shared.slots.len() {
            self.shared.send(w, &frame);
        }
        shared.events.wake();
    }
}

/// Locates the worker binary: explicit config, then the `RNA_WORKER_EXE`
/// environment variable, then siblings of the current executable (test
/// runners live in `target/<profile>/deps`, the binary one level up).
fn resolve_worker_exe(explicit: Option<&PathBuf>) -> PathBuf {
    if let Some(p) = explicit {
        return p.clone();
    }
    if let Ok(p) = std::env::var("RNA_WORKER_EXE") {
        return PathBuf::from(p);
    }
    let name = format!("rna-worker{}", std::env::consts::EXE_SUFFIX);
    if let Ok(exe) = std::env::current_exe() {
        let mut dir = exe.parent().map(PathBuf::from);
        while let Some(d) = dir {
            let candidate = d.join(&name);
            if candidate.is_file() {
                return candidate;
            }
            dir = d.parent().map(PathBuf::from);
        }
    }
    panic!(
        "cannot locate the rna-worker binary; set ProcessConfig::worker_exe \
         or the RNA_WORKER_EXE environment variable"
    );
}

/// Whether a fault directive is still ahead of a rejoining incarnation.
/// A slowdown (`GrayFrom`) is a permanent condition, not an event — a slow
/// or gray-degrading worker stays that way across restarts, as it does
/// for a restarted thread's `FaultScript`.
pub(crate) fn still_pending(f: &WorkerFault, start_iter: u64, incarnation: u64) -> bool {
    if incarnation == 0 {
        return true;
    }
    match *f {
        WorkerFault::GrayFrom { .. } => true,
        WorkerFault::CrashAt { at_iter }
        | WorkerFault::HangAt { at_iter, .. }
        | WorkerFault::RestartAt { at_iter, .. } => at_iter > start_iter,
    }
}

/// Verdict of the coordinator-side handshake gate.
enum Admit {
    /// The peer proved key possession for a current incarnation.
    Granted,
    /// The socket failed or spoke garbage mid-handshake — an IO event,
    /// not an authentication verdict; dropped without counting.
    SilentDrop,
    /// A typed rejection, counted in [`ProcessResult::auth_rejects`].
    Rejected(AuthError),
}

/// Runs the challenge–response exchange for one `Hello`: validates the
/// claimed identity, issues a fresh nonce bound to the current term, and
/// verifies the returned MAC in constant time.
fn authenticate(
    stream: &mut TcpStream,
    shared: &ProcShared,
    worker: u32,
    incarnation: u32,
) -> Admit {
    let w = worker as usize;
    if w >= shared.slots.len() {
        return Admit::Rejected(AuthError::UnknownWorker { worker });
    }
    let expected = shared.slots[w].incarnation.load(Ordering::Acquire);
    if u64::from(incarnation) != expected {
        return Admit::Rejected(AuthError::StaleIncarnation {
            got: incarnation,
            expected,
        });
    }
    let term = shared.term.load(Ordering::Acquire);
    let seq = shared.conn_seq.fetch_add(1, Ordering::AcqRel);
    // Unique per handshake (the sequence never resets) and unpredictable
    // enough for this threat model: without the key, observing nonces
    // does not help forge a MAC for the next one.
    let nonce = shared.nonce_base
        ^ term.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ seq.wrapping_mul(0xD1B5_4A32_D192_ED03);
    let mut scratch = Vec::new();
    if write_msg(stream, &Msg::Challenge { nonce, term }, &mut scratch).is_err() {
        return Admit::SilentDrop;
    }
    let mac = match read_msg(stream) {
        Ok(Msg::Auth { mac }) => mac,
        // Garbage, a non-Auth frame, or a peer that hung up: an IO event.
        _ => return Admit::SilentDrop,
    };
    match verify_mac(&shared.key, nonce, term, worker, incarnation, mac) {
        Ok(()) => Admit::Granted,
        Err(e) => Admit::Rejected(e),
    }
}

/// Accepts connections until stop: authenticates the Hello through the
/// challenge–response gate, answers with the Setup frame, attaches the
/// write half to the slot, and spawns a reader thread for the read half.
fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<ProcShared>,
    config: &ThreadedConfig,
    accept_stop: &AtomicBool,
) {
    let mirror = &shared.mirror;
    for conn in listener.incoming() {
        if mirror.stop.is_raised() || accept_stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        // A wedged or hostile peer must not block the accept loop forever.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let (worker, incarnation) = match read_msg(&mut stream) {
            Ok(Msg::Hello {
                worker,
                incarnation,
            }) => (worker, incarnation),
            // Anything else — garbage, a port scanner, a truncated frame —
            // is dropped without disturbing the run.
            _ => continue,
        };
        match authenticate(&mut stream, shared, worker, incarnation) {
            Admit::Granted => {}
            Admit::SilentDrop => continue,
            Admit::Rejected(err) => {
                shared.auth_rejects.fetch_add(1, Ordering::AcqRel);
                // An operator debugging a mis-keyed or out-of-date worker
                // needs more than a counter bump.
                eprintln!("rna coordinator: rejected handshake from worker {worker}: {err:?}");
                continue;
            }
        }
        let w = worker as usize;
        let incarnation = u64::from(incarnation);
        // Admission gate: a scheduled joiner knocking before its join
        // round is dropped without a Setup. The worker's handshake loop
        // keeps re-offering the Hello until the window opens, so an
        // address-book worker can dial in whenever it likes.
        let join = config.churn_plan.tenure(w).join;
        if join.is_some_and(|j| mirror.round.load(Ordering::Acquire) < j) {
            continue;
        }
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(None);
        let slot = &shared.slots[w];
        let start_iter = slot.start_iter.load(Ordering::Acquire);
        let published = lock(&shared.published).clone();
        let round = mirror.round.load(Ordering::Acquire);
        let rounds = (round, shared.high_water.load(Ordering::Acquire).max(round));
        let setup =
            WorkerSetup::for_worker(config, w, (start_iter, incarnation), rounds, published);
        let mut scratch = Vec::new();
        if write_msg(&mut stream, &Msg::Setup(setup), &mut scratch).is_err() {
            continue;
        }
        let Ok(read_half) = stream.try_clone() else {
            continue;
        };
        // A handshake re-offering an incarnation already admitted is a
        // surviving process whose socket died — the reconnect the worker's
        // backoff loop earns. A new incarnation is a (re)spawn.
        let prev = slot.last_handshake.swap(incarnation, Ordering::AcqRel);
        if prev == incarnation {
            shared.reconnect_attempts.fetch_add(1, Ordering::AcqRel);
        }
        let gen = slot.conn_gen.fetch_add(1, Ordering::AcqRel) + 1;
        *lock(&slot.conn) = Some(stream);
        mirror.beat(w);
        mirror.slots[w].alive.store(true, Ordering::Release);
        slot.readers_started.fetch_add(1, Ordering::AcqRel);
        {
            let shared = Arc::clone(shared);
            std::thread::spawn(move || reader_loop(read_half, &shared, w, incarnation, gen));
        }
        mirror.notify();
        shared.events.wake();
    }
}

/// Decodes every entry of a batched encoded-gradient frame into the
/// worker's mirror slot, recycling buffers the cache's staleness bound
/// evicts, with the socket-measured frame length as the codec charge.
/// Returns `false` on any malformed entry or codec error — the caller
/// severs the socket.
fn absorb_grad_batch(body: &[u8], shared: &ProcShared, w: usize, scraps: &mut Vec<Tensor>) -> bool {
    let Ok(batch) = EncodedGradBatch::parse(body) else {
        return false;
    };
    for entry in batch {
        let Ok(e) = entry else { return false };
        // Chunk-parallel decode straight into a recycled cache buffer
        // (steady state: the staleness bound keeps handing buffers back).
        let mut t = match scraps.pop() {
            Some(t) if t.len() == shared.param_len => t,
            _ => Tensor::zeros(shared.param_len),
        };
        // A frame with the wrong codec, element count, or corrupted
        // payload is a typed `CodecError`: a protocol violation, not data.
        if shared
            .compression
            .decode_slice_mt(
                e.frame,
                t.as_mut_slice(),
                codec::wire_threads(shared.param_len),
            )
            .is_err()
        {
            return false;
        }
        // Measured, not formula-charged: these bytes physically arrived
        // on the socket.
        let frame = Some((e.frame.len() as u64, e.err_l2));
        scraps.extend(shared.mirror.deposit(w, e.iter, t, frame));
    }
    true
}

/// Consumes one incarnation's frames into its mirror slot. Exits
/// on EOF, socket error, or any protocol violation (which severs the
/// connection rather than trusting the peer further).
fn reader_loop(mut stream: TcpStream, shared: &ProcShared, w: usize, incarnation: u64, gen: u64) {
    let (slot, mirror) = (&shared.slots[w], &shared.mirror);
    // Per-connection reusable read buffer, plus the decode-scratch
    // freelist the cache's evictions feed.
    let mut body: Vec<u8> = Vec::new();
    let mut scraps: Vec<Tensor> = Vec::new();
    loop {
        if read_frame_body(&mut stream, &mut body).is_err() {
            break;
        }
        // Route on the raw tag: encoded-gradient batches take the
        // zero-copy parser; everything else goes through the ordinary
        // message decoder.
        if matches!(body_tag(&body), Ok(TAG_ENC_GRAD)) {
            if !absorb_grad_batch(&body, shared, w, &mut scraps) {
                break;
            }
        } else {
            match decode_body(&body) {
                Ok(Msg::Heartbeat { iter }) => {
                    mirror.slots[w].iterations.fetch_max(iter, Ordering::AcqRel);
                }
                Ok(Msg::Fate(f)) => {
                    lock(&slot.fate).get_or_insert(f);
                    continue;
                }
                // Coordinator-bound tags from a worker, or a broken frame:
                // stop trusting the socket.
                Ok(_) | Err(_) => break,
            }
        }
        mirror.beat(w);
        mirror.notify();
    }
    let _ = stream.shutdown(Shutdown::Both);
    // Only the latest connection's reader may declare the worker
    // unreachable: a respawn (new incarnation) or a reconnect (same
    // incarnation, new generation) may already have attached a fresh
    // socket by the time the old reader drains its EOF.
    if slot.incarnation.load(Ordering::Acquire) == incarnation
        && slot.conn_gen.load(Ordering::Acquire) == gen
    {
        mirror.slots[w].alive.store(false, Ordering::Release);
        *lock(&slot.conn) = None;
    }
    slot.readers_exited.fetch_add(1, Ordering::AcqRel);
    mirror.notify();
    shared.events.wake();
}

/// Spawns and re-spawns worker `w`'s process: reaps each incarnation when
/// it exits, classifies each death against the fault plan, executes planned
/// rejoin delays, and applies the unplanned-death policy. Returns when the
/// worker is permanently down or the run is stopping.
fn supervise_child(
    config: &ProcessConfig,
    shared: &Arc<ProcShared>,
    w: usize,
    exe: &PathBuf,
    addr: &str,
) {
    let (slot, mirror) = (&shared.slots[w], &shared.mirror);
    let iterations = &mirror.slots[w].iterations;
    // The coordinator's own reading of the worker's plan: a death is
    // planned exactly when the script says so at the iteration it died at.
    let mut script = config.base.fault_plan.script(w);
    let mut incarnation: u64 = 0;
    let mut start_iter: u64 = 0;
    while !mirror.stop.is_raised() {
        slot.start_iter.store(start_iter, Ordering::Release);
        slot.incarnation.store(incarnation, Ordering::Release);
        // Reachability is granted optimistically at spawn (the threaded
        // world's workers also start alive); the handshake refreshes the
        // heartbeat, and a process that never connects goes stale and
        // then exits.
        mirror.slots[w].alive.store(true, Ordering::Release);
        let spawned = Command::new(exe)
            .arg(addr)
            .arg(w.to_string())
            .arg(shared.key.to_hex())
            .arg(incarnation.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn();
        let mut child: Child = match spawned {
            Ok(c) => c,
            Err(e) => {
                eprintln!("failed to spawn worker {w}: {e}");
                *lock(&slot.fate) = Some(WorkerFate::Crashed {
                    at_iter: iterations.load(Ordering::Acquire),
                });
                mirror.set_alive(w, false);
                return;
            }
        };
        // Wait for the process to exit. Its stdout is a pipe only the
        // child holds, so reading it to the end returns exactly when the
        // process is gone: a blocking read, not a poll. Meanwhile the
        // SIGKILL schedule and the stop grace reach the child through the
        // slot; a child spawned as the run stops never got its Stop frame.
        let stdout = child.stdout.take();
        {
            let mut held = lock(&slot.child);
            if mirror.stop.is_raised() {
                let _ = child.kill();
            }
            *held = Some(child);
        }
        let _ = stdout.map(|mut out| std::io::copy(&mut out, &mut std::io::sink()));
        let exited = lock(&slot.child).take();
        let _ = exited.map(|mut child| child.wait());
        shared.events.wake();
        // On stop, teardown collects the fates once the readers drain.
        if mirror.stop.is_raised() {
            return;
        }
        // The process is gone. Let the reader drain the socket's final
        // frames (EOF arrives after buffered data) so the iteration mirror
        // is complete before the death is classified.
        let drained = || shared.readers_drained(w);
        shared
            .events
            .wait_while(Duration::from_millis(500), || !drained());
        *lock(&slot.conn) = None;
        mirror.set_alive(w, false);
        let iters = iterations.load(Ordering::Acquire);
        if mirror.stop.is_raised() {
            return;
        }
        // A scheduled departure is final: the worker reported Retired or
        // Evicted over the socket and exited by design. It is neither a
        // death to classify nor a candidate for respawn.
        if matches!(
            *lock(&slot.fate),
            Some(WorkerFate::Retired { .. } | WorkerFate::Evicted { .. })
        ) {
            return;
        }
        match script.on_iteration_start(iters) {
            IterDirective::Restart(down_us) => {
                // Planned crash-restart: the worker aborted on schedule.
                // Sit out the down window, then rejoin from the
                // coordinator-side checkpoint.
                *lock(&slot.fate) = Some(script.fate());
                if !mirror.stop.sleep(Duration::from_micros(down_us)) {
                    return;
                }
                script.mark_rejoined();
                *lock(&slot.fate) = Some(script.fate());
                start_iter = iters;
                incarnation += 1;
                continue;
            }
            IterDirective::Crash => {
                // Planned permanent crash: record it and leave the worker
                // down, like every other world.
                *lock(&slot.fate) = Some(script.fate());
                return;
            }
            IterDirective::HangFor(_) | IterDirective::Proceed => {}
        }
        // Unplanned death: SIGKILL, severed socket, or a real bug.
        if config.respawn_unplanned {
            shared.worker_respawns.fetch_add(1, Ordering::AcqRel);
            *lock(&slot.fate) = Some(WorkerFate::Restarted {
                at_iter: iters,
                rejoined: true,
            });
            start_iter = iters;
            incarnation += 1;
            continue;
        }
        *lock(&slot.fate) = Some(WorkerFate::Crashed { at_iter: iters });
        return;
    }
}

/// Runs a full training session with worker subprocesses over TCP and
/// returns the result.
///
/// The controller, the worker loop, fault plans, tolerance knobs, and
/// codec accounting are shared with [`crate::run_threaded`] — only the
/// transport and the worker's link change, so the counters are directly
/// comparable across worlds.
///
/// # Panics
///
/// Panics on an invalid configuration (see [`crate::run_threaded`]), under
/// [`SyncMode::Bsp`] (the barrier runtime has no process incarnation), if
/// a kill/sever schedule names an absent worker, if the worker binary
/// cannot be located, or if the initial cluster fails to connect within a
/// generous timeout.
pub fn run_process(config: &ProcessConfig) -> ProcessResult {
    let base = &config.base;
    validate_config(base);
    assert!(
        base.mode != SyncMode::Bsp,
        "the process world implements the partial-collective modes"
    );
    let n = base.num_workers;
    for &(w, _) in config.kill9.iter().chain(&config.sever) {
        assert!(w < n, "kill/sever schedule names worker {w}");
    }
    for &w in &config.external {
        assert!(w < n, "external worker list names worker {w}");
    }
    for &r in &config.coord_kill {
        assert!(
            r < base.rounds,
            "coordinator kill at round {r} is outside the run"
        );
    }
    let exe = resolve_worker_exe(config.worker_exe.as_ref());
    let start = Instant::now();

    let (rng, dataset, template) = task(base.seed);
    // The worker processes rebuild the same task and fork their streams at
    // their own positions; the controller's generator starts behind them
    // all, aligned with the threaded world's.
    let mut rng = past_workers(&rng, n as u64);
    let key = {
        let mut krng = SimRng::seed(base.seed ^ KEY_SALT);
        AuthKey {
            k0: krng.uniform_u64(0..u64::MAX),
            k1: krng.uniform_u64(0..u64::MAX),
        }
    };
    let nonce_base = SimRng::seed(base.seed ^ NONCE_SALT).uniform_u64(0..u64::MAX);
    let initial_state = CtrlCheckpoint::initial(template.params().clone());

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral localhost port");
    let addr = listener
        .local_addr()
        .expect("a bound listener has an address")
        .to_string();
    if let Some(path) = &config.addr_file {
        let book = AddrBook {
            addr: addr.clone(),
            key,
        };
        std::fs::write(path, book.render()).expect("the address-book path must be writable");
    }

    // When the proxy realizes the physical half of the network plan on
    // real sockets, the controller's shim keeps only the virtual half.
    let (ctrl_base, proxy) = if config.fault_proxy && !base.net_fault_plan.is_empty() {
        let (physical, virt) = base.net_fault_plan.split_physical(n);
        let mut cb = base.clone();
        cb.net_fault_plan = virt;
        let proxy =
            FaultProxy::start(&physical, n, &addr).expect("fault-proxy listeners must bind");
        (cb, Some(proxy))
    } else {
        (base.clone(), None)
    };

    let shared = Arc::new(ProcShared {
        // Nobody is reachable until its handshake completes.
        mirror: Mirror::new(base, start, 0, |_| false),
        slots: (0..n)
            .map(|_| ProcSlot {
                last_handshake: AtomicU64::new(u64::MAX),
                ..ProcSlot::default()
            })
            .collect(),
        events: Gate::default(),
        published: Mutex::new(initial_state.master.clone()),
        key,
        nonce_base,
        term: AtomicU64::new(0),
        high_water: AtomicU64::new(0),
        conn_seq: AtomicU64::new(1),
        param_len: initial_state.master.len(),
        compression: base.compression,
        sockets_severed: AtomicU64::new(0),
        worker_respawns: AtomicU64::new(0),
        auth_rejects: AtomicU64::new(0),
        reconnect_attempts: AtomicU64::new(0),
    });

    // One accept thread per coordinator incarnation: a kill closes the
    // listener (so the port can be rebound) and the restart spawns a
    // fresh loop on the same address.
    let spawn_accept = |listener: TcpListener, accept_stop: Arc<AtomicBool>| {
        let shared = Arc::clone(&shared);
        let cfg = ctrl_base.clone();
        std::thread::spawn(move || accept_loop(&listener, &shared, &cfg, &accept_stop))
    };
    let mut accept_stop = Arc::new(AtomicBool::new(false));
    let mut accept_handle = spawn_accept(listener, Arc::clone(&accept_stop));
    let sup_handles: Vec<_> = (0..n)
        .filter(|w| !config.external.contains(w))
        .map(|w| {
            let config = config.clone();
            let shared = Arc::clone(&shared);
            let exe = exe.clone();
            // With the proxy on, the worker dials its own adversarial
            // link instead of the coordinator directly.
            let addr = proxy
                .as_ref()
                .map_or_else(|| addr.clone(), |p| p.addr_for(w).to_string());
            std::thread::spawn(move || {
                // A scheduled joiner's process does not exist until its
                // join round: admission is part of the run, not the spawn.
                let mirror = &shared.mirror;
                if let Some(at_round) = config.base.churn_plan.tenure(w).join {
                    shared.events.wait_while(Duration::MAX, || {
                        !mirror.stop.is_raised() && mirror.round.load(Ordering::Acquire) < at_round
                    });
                }
                supervise_child(&config, &shared, w, &exe, &addr);
            })
        })
        .collect();

    // Initial barrier: the run starts once the initial cluster has
    // handshaken, so round 0 is not spent electing over an empty room.
    // Scheduled joins arrive mid-run and external workers are outside
    // our spawn control, so neither is waited for here.
    let initial: Vec<usize> = (0..n)
        .filter(|&w| base.churn_plan.tenure(w).join.is_none() && !config.external.contains(&w))
        .collect();
    let absent = |&w: &usize| shared.slots[w].last_handshake.load(Ordering::Acquire) == u64::MAX;
    let pending = || initial.iter().any(absent);
    let joined = shared.events.wait_while(JOIN_TIMEOUT, pending);
    assert!(
        joined,
        "the initial cluster did not join within {JOIN_TIMEOUT:?}"
    );

    let store = base
        .recovery_dir
        .as_ref()
        .map(|dir| CheckpointStore::new(dir).expect("recovery directory must be writable"));
    let mut transport = ProcessTransport {
        shared: Arc::clone(&shared),
        sever: config.sever.clone(),
        kill9: config.kill9.clone(),
        frame: Vec::new(),
        frame_round: None,
        scratch: Vec::new(),
    };

    // Coordinator incarnations: each runs until the round budget is spent
    // or its scheduled kill round arrives. A kill tears the incarnation
    // down wholesale — listener, sockets, cached gradients — and the next one
    // restarts from the newest disk checkpoint under a bumped term while
    // the workers reconnect through their backoff loops.
    let mut kills: VecDeque<u64> = {
        let mut v = config.coord_kill.clone();
        v.sort_unstable();
        v.dedup();
        v.into()
    };
    let mut lineage = Lineage::default();
    let mut coordinator_restarts: u64 = 0;
    let mut state = initial_state.clone();
    let final_state = loop {
        let abort_at = kills.front().copied();
        match supervise(
            &ctrl_base,
            &shared.mirror,
            &mut transport,
            &mut rng,
            state,
            store.as_ref(),
            abort_at,
            &mut lineage,
        ) {
            Some(done) => break done,
            None => {
                let died_at = kills.pop_front().expect("a kill round was scheduled");
                coordinator_restarts += 1;
                // The incarnation is gone: close the listener, sever every
                // socket (the workers' reconnect loops own the rest), and
                // drop the cached gradients a dead coordinator could not have kept.
                accept_stop.store(true, Ordering::Release);
                let _ = TcpStream::connect(&addr);
                let _ = accept_handle.join();
                let mut severed: Vec<usize> = Vec::new();
                for (w, slot) in shared.slots.iter().enumerate() {
                    if let Some(s) = lock(&slot.conn).take() {
                        let _ = s.shutdown(Shutdown::Both);
                        severed.push(w);
                    }
                    shared.mirror.slots[w].alive.store(false, Ordering::Release);
                    shared.mirror.purge(w);
                }
                // Restart from disk; a kill before the first cut falls
                // back to the initial state and honestly redoes round 0.
                let loaded = store
                    .as_ref()
                    .map(|st| load_ctrl_checkpoint(st, shared.param_len, base.rounds));
                state = match loaded {
                    Some(Ok(ck)) => ck,
                    None | Some(Err(RecoveryError::Missing)) => initial_state.clone(),
                    Some(Err(e)) => panic!("coordinator restart cannot load its checkpoint: {e}"),
                };
                lineage.failover_rounds_lost += died_at.saturating_sub(state.round);
                shared.mirror.round.store(state.round, Ordering::Release);
                lock(&shared.published).copy_from(&state.master);
                // The cached parameter frame belongs to the dead
                // incarnation's round numbering; rebuild on next push. The
                // undrained wire charges die with the incarnation too — the
                // restored checkpoint already carries the byte totals as of
                // its cut, and the redone rounds re-measure their frames.
                transport.frame_round = None;
                let _ = shared.mirror.take_wire_charges();
                shared.term.store(lineage.term, Ordering::Release);
                // Rebind the *same* address — the workers' reconnect loops
                // and the proxy's upstream dial both hold it. SO_REUSEADDR
                // (std sets it on listeners) admits the rebind as soon as
                // the old listener is gone.
                let deadline = Instant::now() + Duration::from_secs(5);
                let relisten = loop {
                    match TcpListener::bind(&addr) {
                        Ok(l) => break l,
                        Err(e) => {
                            assert!(
                                Instant::now() < deadline,
                                "cannot rebind the coordinator address {addr}: {e}"
                            );
                            std::thread::sleep(Duration::from_millis(5));
                        }
                    }
                };
                accept_stop = Arc::new(AtomicBool::new(false));
                accept_handle = spawn_accept(relisten, Arc::clone(&accept_stop));
                // Hold the new term's first round until the severed workers
                // re-handshake: a restarted coordinator that sprints ahead
                // would redo the lost rounds degraded, without the very
                // workers it is redoing them for. Bounded — a worker that
                // stays away genuinely died and forfeits the wait.
                shared.events.wait_while(REJOIN_TIMEOUT, || {
                    severed.iter().any(|&w| shared.mirror.is_dead(w))
                });
            }
        }
    };

    // Teardown: stop, and ask every live worker to finish gracefully (it
    // sends its Fate frame, closes its socket and exits); kill what still
    // runs when the grace window closes.
    shared.mirror.stop.raise();
    shared.events.wake();
    let mut scratch = Vec::new();
    for slot in &shared.slots {
        if let Some(stream) = lock(&slot.conn).as_mut() {
            let _ = write_msg(stream, &Msg::Stop, &mut scratch);
        }
    }
    let children_left = || shared.slots.iter().any(|s| lock(&s.child).is_some());
    if !shared.events.wait_while(STOP_GRACE, children_left) {
        for w in 0..n {
            shared.kill_child(w);
        }
    }
    for h in sup_handles {
        let _ = h.join();
    }
    // Unblock the accept loop (it is parked in accept()).
    let _ = TcpStream::connect(&addr);
    let _ = accept_handle.join();
    // The fates ride the readers, and a reaped child's reader may still be
    // draining its socket: read them only once every reader has exited.
    let undrained = || (0..n).any(|w| !shared.readers_drained(w));
    shared.events.wait_while(STOP_GRACE, undrained);
    let proxy_faults_injected = proxy.map_or(0, FaultProxy::shutdown);

    let workers = shared
        .slots
        .iter()
        .zip(&shared.mirror.slots)
        .map(|(s, m)| {
            let fate = lock(&s.fate).take().unwrap_or(WorkerFate::Healthy);
            (m.iterations.load(Ordering::Acquire), fate)
        })
        .collect();
    let run = finish(
        base,
        dataset,
        template,
        start,
        workers,
        final_state,
        &lineage,
    );
    ProcessResult {
        run,
        worker_respawns: shared.worker_respawns.load(Ordering::Acquire),
        sockets_severed: shared.sockets_severed.load(Ordering::Acquire),
        reconnect_attempts: shared.reconnect_attempts.load(Ordering::Acquire),
        auth_rejects: shared.auth_rejects.load(Ordering::Acquire),
        proxy_faults_injected,
        coordinator_restarts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn still_pending_filters_consumed_triggers_on_rejoin() {
        let crash = WorkerFault::CrashAt { at_iter: 5 };
        let slow = rna_core::fault::FaultPlan::none().slow(0, 0, 100).faults()[0].1;
        let restart = WorkerFault::RestartAt {
            at_iter: 5,
            rejoin_after_us: 1,
        };
        // First incarnation gets everything, including iteration-0
        // triggers.
        assert!(still_pending(&crash, 0, 0));
        assert!(still_pending(&restart, 0, 0));
        // A rejoin at iteration 5 must not re-fire the restart that caused
        // it, but keeps a later crash and any permanent slowdown.
        assert!(!still_pending(&restart, 5, 1));
        assert!(!still_pending(&crash, 5, 1));
        assert!(still_pending(&WorkerFault::CrashAt { at_iter: 9 }, 5, 1));
        assert!(still_pending(&slow, 5, 1));
        // Gray degradation is a condition of the hardware, not a one-shot
        // trigger: it survives any number of rejoins.
        let gray = WorkerFault::GrayFrom {
            from_iter: 0,
            step_us: 10,
            cap_us: 100,
        };
        assert!(still_pending(&gray, 5, 1));
    }

    #[test]
    fn worker_exe_resolution_prefers_explicit_path() {
        let explicit = PathBuf::from("/does/not/matter/rna-worker");
        assert_eq!(resolve_worker_exe(Some(&explicit)), explicit);
    }

    #[test]
    fn addr_book_round_trips_through_its_rendering() {
        let book = AddrBook {
            addr: "127.0.0.1:45678".to_string(),
            key: AuthKey {
                k0: 0x0123_4567_89ab_cdef,
                k1: 0xfedc_ba98_7654_3210,
            },
        };
        assert_eq!(AddrBook::parse(&book.render()), Ok(book));
    }

    #[test]
    fn addr_book_parse_errors_name_the_offending_line() {
        let line_of = |text: &str| match AddrBook::parse(text) {
            Err(ConfigError::AddrBookMalformed { line, .. }) => line,
            other => panic!("expected a malformed-book error, got {other:?}"),
        };
        assert_eq!(line_of(""), 1);
        assert_eq!(
            line_of("no-port-here\nffffffffffffffffffffffffffffffff\n"),
            1
        );
        assert_eq!(line_of("127.0.0.1:1\n"), 2);
        assert_eq!(line_of("127.0.0.1:1\nnot-hex\n"), 2);
        assert_eq!(line_of("127.0.0.1:1\nffff\n"), 2); // too short
        assert_eq!(
            line_of("127.0.0.1:1\nffffffffffffffffffffffffffffffff\ntrailing\n"),
            3
        );
    }
}
