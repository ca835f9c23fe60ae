//! Crash-consistent checkpointing and control-plane recovery primitives.
//!
//! The paper assumes the central scheduler and the parameter server never
//! fail (§4: the controller is "stateless" precisely so that losing it is
//! survivable). This module supplies the machinery that makes that
//! assumption safe to lift:
//!
//! * [`CheckpointStore`] — an atomic, checksummed, versioned on-disk store
//!   for checkpoint payloads. Writes go to a temp file and are `rename`d
//!   into place so a crash mid-write can never corrupt the latest good
//!   checkpoint; the previous generation is kept as a fallback and
//!   [`CheckpointStore::load_latest`] silently falls back to it when the
//!   newest file is truncated or fails its checksum.
//! * [`RoundJournal`] — the last completed probe round (round id,
//!   initiator, contributor count). A warm-standby controller reads it
//!   from the latest checkpoint to recover the round counter it must
//!   resume from.
//! * [`RecoveryConfig`] — the checkpoint cadence, validated at
//!   construction like [`ToleranceConfig`](crate::fault::ToleranceConfig).
//! * [`RecoveryError`] — a typed error distinguishing I/O failures from
//!   corruption from a store that has no checkpoint at all.
//!
//! The payload *format* is owned by the callers (the DES engine serializes
//! its full training state, the threaded runtime its controller state);
//! this module owns the framing: an 8-byte magic, a format version, the
//! payload length, and an FNV-1a checksum over the payload.

use std::error::Error;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use rna_simnet::SimRngState;
use rna_tensor::wire::{self, Reader};

use crate::fault::ConfigError;

/// Magic bytes opening every checkpoint file: "RNACKPT1".
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"RNACKPT1";

/// Current checkpoint format version, covering the framing and the payload
/// layouts the callers write under it. 2: payloads moved to the shared field
/// codec (one-byte booleans and `Option` tags, one `Counters` block). 3: the
/// simulator's group blob no longer carries per-member initiator counts.
/// 4: the round journal holds at most one record, its last. 5: the group
/// blob carries each member's crash flag and the round its gradient began.
/// 6: the `Counters` block drops the two parameter-server shard tallies.
pub const CHECKPOINT_VERSION: u32 = 6;

/// Why a checkpoint could not be loaded.
#[derive(Debug)]
pub enum RecoveryError {
    /// The store directory or a checkpoint file could not be read/written.
    Io(io::Error),
    /// No checkpoint has ever been written to this store.
    Missing,
    /// Every available checkpoint generation failed validation; the string
    /// names the first defect found (bad magic, short file, checksum
    /// mismatch, …).
    Corrupt(String),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            RecoveryError::Missing => write!(f, "no checkpoint found in store"),
            RecoveryError::Corrupt(why) => write!(f, "checkpoint corrupt: {why}"),
        }
    }
}

impl Error for RecoveryError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RecoveryError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for RecoveryError {
    fn from(e: io::Error) -> Self {
        RecoveryError::Io(e)
    }
}

/// Checkpoint cadence configuration, validated at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Write a checkpoint every this many completed global rounds.
    pub every: u64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig { every: 10 }
    }
}

impl RecoveryConfig {
    /// Creates a validated cadence.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroCheckpointCadence`] when `every == 0` — a zero
    /// cadence would quiesce the cluster after every round.
    pub fn new(every: u64) -> Result<Self, ConfigError> {
        let config = RecoveryConfig { every };
        config.validate()?;
        Ok(config)
    }

    /// Re-checks the invariants (useful after struct-literal construction).
    ///
    /// # Errors
    ///
    /// Same conditions as [`RecoveryConfig::new`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.every == 0 {
            return Err(ConfigError::ZeroCheckpointCadence);
        }
        Ok(())
    }
}

/// A successfully loaded checkpoint payload.
#[derive(Debug, Clone)]
pub struct LoadedCheckpoint {
    /// The raw payload bytes (caller-owned format).
    pub payload: Vec<u8>,
    /// `true` when the newest generation was damaged and the store fell
    /// back to the previous one.
    pub fell_back: bool,
}

/// An atomic two-generation checkpoint store rooted at one directory.
///
/// Layout: `checkpoint.latest` and `checkpoint.previous`, each a framed
/// payload (magic, version, length, FNV-1a checksum). [`CheckpointStore::save`]
/// writes `checkpoint.tmp` first and renames, demoting the old latest to
/// previous, so there is always at least one intact generation on disk once
/// the first save completes.
///
/// # Examples
///
/// ```no_run
/// use rna_core::recovery::CheckpointStore;
///
/// let store = CheckpointStore::new("/tmp/rna-ckpt").unwrap();
/// store.save(b"state bytes").unwrap();
/// let loaded = store.load_latest().unwrap();
/// assert_eq!(loaded.payload, b"state bytes");
/// ```
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Any error from creating the directory.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir })
    }

    /// Path of the newest checkpoint generation.
    pub fn latest_path(&self) -> PathBuf {
        self.dir.join("checkpoint.latest")
    }

    /// Path of the fallback generation.
    pub fn previous_path(&self) -> PathBuf {
        self.dir.join("checkpoint.previous")
    }

    /// Frames `payload` and writes it atomically, demoting the current
    /// latest generation to the fallback slot.
    ///
    /// # Errors
    ///
    /// Any I/O error from the temp-file write or the renames; on error the
    /// previously written generations are untouched (the temp file may be
    /// left behind, to be overwritten by the next save).
    pub fn save(&self, payload: &[u8]) -> io::Result<()> {
        let mut frame = Vec::with_capacity(payload.len() + 28);
        frame.extend_from_slice(CHECKPOINT_MAGIC);
        wire::put_u32(&mut frame, CHECKPOINT_VERSION);
        wire::put_u64(&mut frame, payload.len() as u64);
        wire::put_u64(&mut frame, wire::fnv1a(payload));
        frame.extend_from_slice(payload);
        let tmp = self.dir.join("checkpoint.tmp");
        fs::write(&tmp, &frame)?;
        let latest = self.latest_path();
        if latest.exists() {
            fs::rename(&latest, self.previous_path())?;
        }
        fs::rename(&tmp, &latest)
    }

    /// Loads the newest intact checkpoint, falling back to the previous
    /// generation when the latest is missing, truncated, or fails its
    /// checksum.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::Missing`] when no generation exists at all;
    /// [`RecoveryError::Corrupt`] when generations exist but none
    /// validates; [`RecoveryError::Io`] for filesystem failures other than
    /// "file not found".
    pub fn load_latest(&self) -> Result<LoadedCheckpoint, RecoveryError> {
        let mut first_defect: Option<String> = None;
        let mut any_present = false;
        for (fell_back, path) in [(false, self.latest_path()), (true, self.previous_path())] {
            match read_frame(&path) {
                Ok(Some(payload)) => {
                    return Ok(LoadedCheckpoint { payload, fell_back });
                }
                Ok(None) => {} // absent: try the next generation
                Err(FrameError::Io(e)) => return Err(RecoveryError::Io(e)),
                Err(FrameError::Corrupt(why)) => {
                    any_present = true;
                    first_defect.get_or_insert_with(|| format!("{}: {why}", path.display()));
                }
            }
        }
        if any_present {
            Err(RecoveryError::Corrupt(
                first_defect.unwrap_or_else(|| "unreadable checkpoint".into()),
            ))
        } else {
            Err(RecoveryError::Missing)
        }
    }
}

enum FrameError {
    Io(io::Error),
    Corrupt(&'static str),
}

/// Reads and validates one framed checkpoint file. `Ok(None)` means the
/// file does not exist (a legitimate state, not corruption).
fn read_frame(path: &Path) -> Result<Option<Vec<u8>>, FrameError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(FrameError::Io(e)),
    };
    if bytes.len() < 28 {
        return Err(FrameError::Corrupt("file shorter than header"));
    }
    if &bytes[..8] != CHECKPOINT_MAGIC {
        return Err(FrameError::Corrupt("bad magic"));
    }
    let mut r = Reader::new(&bytes[8..28]);
    let version = r.u32().expect("header sliced to exact size");
    let len = r.u64().expect("header sliced to exact size");
    let checksum = r.u64().expect("header sliced to exact size");
    if version != CHECKPOINT_VERSION {
        return Err(FrameError::Corrupt("unsupported version"));
    }
    let payload = &bytes[28..];
    if payload.len() as u64 != len {
        return Err(FrameError::Corrupt("payload length mismatch (truncated?)"));
    }
    if wire::fnv1a(payload) != checksum {
        return Err(FrameError::Corrupt("checksum mismatch"));
    }
    Ok(Some(payload.to_vec()))
}

/// One completed probe round, as the journal remembers it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RoundRecord {
    /// The global round id that completed.
    round: u64,
    /// The worker that initiated the partial collective.
    initiator: usize,
    /// How many workers contributed non-null gradients.
    contributors: u32,
}

/// The journal of completed probe rounds, which keeps only the last one.
///
/// The active controller records every round it completes; a standby
/// taking over reads the last one from the latest checkpoint to learn the
/// next round id. Rounds must be recorded in strictly increasing order —
/// the journal panics on a replayed or reordered round id, since that
/// would mean two controllers believed they were active at once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundJournal {
    last: Option<RoundRecord>,
}

impl RoundJournal {
    /// Creates an empty journal.
    pub fn new() -> Self {
        RoundJournal::default()
    }

    /// Records a completed round, replacing the previous record.
    ///
    /// # Panics
    ///
    /// Panics if `round` is not strictly greater than the last recorded
    /// round (a split-brain symptom).
    pub fn record(&mut self, round: u64, initiator: usize, contributors: u32) {
        if let Some(last) = self.last {
            assert!(
                round > last.round,
                "journal rounds must be strictly increasing ({} after {})",
                round,
                last.round
            );
        }
        self.last = Some(RoundRecord {
            round,
            initiator,
            contributors,
        });
    }

    /// The round a recovering controller must run next: one past the last
    /// completed round, or 0 for an empty journal.
    pub fn next_round(&self) -> u64 {
        self.last.map_or(0, |r| r.round + 1)
    }

    /// Serializes the journal into a checkpoint payload: a record count
    /// (0 or 1) and the record.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        wire::put_u64(out, u64::from(self.last.is_some()));
        if let Some(r) = self.last {
            wire::put_u64(out, r.round);
            wire::put_u64(out, r.initiator as u64);
            wire::put_u32(out, r.contributors);
        }
    }

    /// Deserializes a journal from a checkpoint payload.
    pub fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let last = match r.u64()? {
            0 => None,
            1 => Some(RoundRecord {
                round: r.u64()?,
                initiator: r.u64()? as usize,
                contributors: r.u32()?,
            }),
            _ => return None, // a journal holds at most one record
        };
        Some(RoundJournal { last })
    }
}

/// Serializes an exact RNG stream position into a checkpoint payload.
pub fn put_rng(out: &mut Vec<u8>, state: &SimRngState) {
    for word in state.key {
        wire::put_u32(out, word);
    }
    wire::put_u64(out, state.counter);
    wire::put_u32(out, state.next_word as u32);
    wire::put_opt_u64(out, state.gauss_spare.map(f64::to_bits));
}

/// Deserializes an RNG stream position written by [`put_rng`]; `None` for
/// a truncated one or a word position no generator reaches (above 16, or
/// odd), which [`rna_simnet::SimRng::from_state`] would refuse.
pub fn read_rng(r: &mut Reader<'_>) -> Option<SimRngState> {
    let mut key = [0u32; 8];
    for word in &mut key {
        *word = r.u32()?;
    }
    let counter = r.u64()?;
    let next_word = r.u32()?;
    // Words are taken in pairs, so a real position is even.
    if next_word > 16 || !next_word.is_multiple_of(2) {
        return None;
    }
    let gauss_spare = r.opt_u64()?.map(f64::from_bits);
    Some(SimRngState {
        key,
        counter,
        next_word: next_word as u8,
        gauss_spare,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rna_simnet::SimRng;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "rna-recovery-test-{}-{tag}-{n}",
            std::process::id()
        ))
    }

    #[test]
    fn save_load_roundtrip() {
        let store = CheckpointStore::new(scratch_dir("roundtrip")).unwrap();
        store.save(b"hello checkpoint").unwrap();
        let loaded = store.load_latest().unwrap();
        assert_eq!(loaded.payload, b"hello checkpoint");
        assert!(!loaded.fell_back);
    }

    #[test]
    fn empty_store_reports_missing() {
        let store = CheckpointStore::new(scratch_dir("missing")).unwrap();
        assert!(matches!(store.load_latest(), Err(RecoveryError::Missing)));
    }

    #[test]
    fn corrupted_latest_falls_back_to_previous() {
        let store = CheckpointStore::new(scratch_dir("fallback")).unwrap();
        store.save(b"generation one").unwrap();
        store.save(b"generation two").unwrap();
        // Flip a payload byte in the newest generation.
        let mut bytes = fs::read(store.latest_path()).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(store.latest_path(), &bytes).unwrap();
        let loaded = store.load_latest().unwrap();
        assert_eq!(loaded.payload, b"generation one");
        assert!(loaded.fell_back);
    }

    #[test]
    fn truncated_latest_falls_back_to_previous() {
        let store = CheckpointStore::new(scratch_dir("truncated")).unwrap();
        store.save(b"older but intact").unwrap();
        store.save(b"newer and doomed").unwrap();
        let bytes = fs::read(store.latest_path()).unwrap();
        fs::write(store.latest_path(), &bytes[..bytes.len() / 2]).unwrap();
        let loaded = store.load_latest().unwrap();
        assert_eq!(loaded.payload, b"older but intact");
        assert!(loaded.fell_back);
    }

    #[test]
    fn all_generations_corrupt_is_a_clean_error() {
        let store = CheckpointStore::new(scratch_dir("allbad")).unwrap();
        store.save(b"one").unwrap();
        store.save(b"two").unwrap();
        fs::write(store.latest_path(), b"garbage").unwrap();
        fs::write(store.previous_path(), b"more garbage").unwrap();
        match store.load_latest() {
            Err(RecoveryError::Corrupt(why)) => {
                assert!(why.contains("shorter") || why.contains("magic"), "{why}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_corrupt_not_panic() {
        let store = CheckpointStore::new(scratch_dir("magic")).unwrap();
        store.save(b"payload").unwrap();
        let mut bytes = fs::read(store.latest_path()).unwrap();
        bytes[0] = b'X';
        fs::write(store.latest_path(), &bytes).unwrap();
        assert!(matches!(
            store.load_latest(),
            Err(RecoveryError::Corrupt(_))
        ));
    }

    #[test]
    fn a_previous_version_is_refused() {
        let store = CheckpointStore::new(scratch_dir("version")).unwrap();
        store.save(b"payload").unwrap();
        let mut bytes = fs::read(store.latest_path()).unwrap();
        bytes[8..12].copy_from_slice(&(CHECKPOINT_VERSION - 1).to_le_bytes());
        fs::write(store.latest_path(), &bytes).unwrap();
        match store.load_latest() {
            Err(RecoveryError::Corrupt(why)) => {
                assert!(why.contains("unsupported version"), "{why}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn cadence_validation() {
        assert!(RecoveryConfig::new(5).is_ok());
        assert!(matches!(
            RecoveryConfig::new(0),
            Err(ConfigError::ZeroCheckpointCadence)
        ));
    }

    #[test]
    fn journal_tracks_next_round() {
        let mut j = RoundJournal::new();
        assert_eq!(j.next_round(), 0);
        j.record(0, 2, 3);
        j.record(1, 0, 4);
        assert_eq!(j.next_round(), 2);
    }

    #[test]
    fn journal_encoding_stays_one_record_long() {
        let encoded_len = |rounds: u64| {
            let mut j = RoundJournal::new();
            for round in 0..rounds {
                j.record(round, 1, 3);
            }
            let mut buf = Vec::new();
            j.encode_into(&mut buf);
            buf.len()
        };
        assert_eq!(encoded_len(1_000), encoded_len(1));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn journal_rejects_replayed_round() {
        let mut j = RoundJournal::new();
        j.record(3, 0, 1);
        j.record(3, 1, 2);
    }

    #[test]
    fn journal_wire_roundtrip() {
        let roundtrip = |j: &RoundJournal| {
            let mut buf = Vec::new();
            j.encode_into(&mut buf);
            let mut r = Reader::new(&buf);
            assert_eq!(RoundJournal::decode(&mut r).as_ref(), Some(j));
            assert_eq!(r.remaining(), 0);
        };
        let mut j = RoundJournal::new();
        roundtrip(&j);
        j.record(0, 1, 4);
        j.record(5, 0, 4);
        roundtrip(&j);
    }

    #[test]
    fn journal_decode_rejects_absurd_length() {
        let mut buf = Vec::new();
        wire::put_u64(&mut buf, u64::MAX);
        assert!(RoundJournal::decode(&mut Reader::new(&buf)).is_none());
    }

    #[test]
    fn rng_state_wire_roundtrip_resumes_stream() {
        let mut rng = SimRng::seed(42);
        for _ in 0..7 {
            rng.uniform_f64(0.0..1.0);
        }
        let _ = rng.normal_std(); // leave a Box-Muller spare cached
        let mut buf = Vec::new();
        put_rng(&mut buf, &rng.state());
        let state = read_rng(&mut Reader::new(&buf)).unwrap();
        let mut restored = SimRng::from_state(&state);
        for _ in 0..32 {
            assert_eq!(
                rng.uniform_u64(0..u64::MAX),
                restored.uniform_u64(0..u64::MAX)
            );
        }
    }

    #[test]
    fn rng_state_decode_rejects_unreachable_word_positions() {
        let mut state = SimRng::seed(3).state();
        for (next_word, ok) in [(0, true), (7, false), (15, false), (16, true), (17, false)] {
            state.next_word = next_word;
            let mut buf = Vec::new();
            put_rng(&mut buf, &state);
            let decoded = read_rng(&mut Reader::new(&buf));
            assert_eq!(decoded.is_some(), ok, "next_word = {next_word}");
        }
    }
}
