//! # owql-persist
//!
//! Durable persistence for the owql store — the layer that turns the
//! in-memory, epoch-versioned engine into a database that survives
//! `kill -9`. Three pieces, all dependency-free:
//!
//! - **Write-ahead commit log** ([`wal`]) — one length-prefixed,
//!   CRC-checksummed frame per committed transaction, appended (and
//!   fsync'd, when configured) *before* the commit's epoch is
//!   published. Replay stops at the first torn or corrupt frame and
//!   truncates back to the longest valid prefix, so recovery always
//!   lands on a fully-committed epoch.
//! - **Binary index segments** ([`segment`]) — an immutable snapshot
//!   file per checkpoint generation: a sorted term dictionary plus
//!   SPO/POS/OSP runs of fixed-width id rows, written via temp-file +
//!   rename with header and body CRCs. A loaded [`Segment`] is its
//!   term table and SPO run, which a reopening store turns into its
//!   dictionary and base id runs without re-interning a term.
//! - **Recovery** ([`recover`]) — load the newest segment that
//!   validates (walking back over corrupt generations), replay the WAL
//!   records past its epoch watermark, report what happened.
//!
//! The checkpoint protocol (who writes segments when, and how the WAL
//! is truncated behind them) lives in `owql-store`, which owns the
//! commit path; this crate supplies the mechanics and the formats.
//! See DESIGN.md §12 for the fsync-ordering argument.

pub mod crc;
pub mod segment;
pub mod wal;

pub use crc::crc32;
pub use segment::{
    load_newest_valid, prune_segments, segment_epoch, segment_generations, segment_path,
    write_segment, Segment, SegmentError,
};
pub use wal::{replay_bytes, CommitRecord, Wal, WalOp, WalPoisoned, WalReplay};

use std::io;
use std::path::{Path, PathBuf};

/// File name of the write-ahead log inside a data directory.
pub const WAL_FILE: &str = "wal.log";

/// Tuning knobs for a persistent store.
#[derive(Clone, Debug)]
pub struct PersistConfig {
    /// Fsync every WAL append before publishing the commit's epoch.
    /// `false` trades the durability of the most recent commits (the
    /// OS may still hold them in the page cache at crash time) for
    /// commit throughput; recovery correctness is unaffected.
    pub fsync: bool,
    /// Checkpoint automatically once this many records have been
    /// committed since the newest checkpoint (`0` disables
    /// auto-checkpointing; `Store::checkpoint` still works). The WAL
    /// itself may hold up to about `keep_segments` times as many, since
    /// it is truncated only behind the oldest retained generation.
    pub checkpoint_wal_records: u64,
    /// Run auto-checkpoints on a background indexer thread (fresh
    /// commits keep landing in the in-memory delta while the segment
    /// is written). With `false`, the commit that crosses the
    /// threshold checkpoints inline.
    pub background_indexer: bool,
    /// Segment generations to retain. The WAL is truncated behind the
    /// *oldest* retained generation, so with the default of 2 a fully
    /// corrupt newest segment still recovers losslessly from the
    /// previous generation plus the log.
    pub keep_segments: usize,
}

impl Default for PersistConfig {
    fn default() -> Self {
        PersistConfig {
            fsync: true,
            checkpoint_wal_records: 4096,
            background_indexer: true,
            keep_segments: 2,
        }
    }
}

impl PersistConfig {
    /// `fsync` off — for bulk loads and benchmarks.
    pub fn no_fsync(mut self) -> Self {
        self.fsync = false;
        self
    }

    /// Sets the auto-checkpoint threshold.
    pub fn checkpoint_every(mut self, wal_records: u64) -> Self {
        self.checkpoint_wal_records = wal_records;
        self
    }

    /// Checkpoints inline on the committing thread instead of the
    /// background indexer (deterministic, for tests and examples).
    pub fn inline_indexer(mut self) -> Self {
        self.background_indexer = false;
        self
    }
}

/// What [`recover`] reconstructed from a data directory.
#[derive(Debug)]
pub struct Recovered {
    /// The WAL, opened for append with any torn tail truncated.
    pub wal: Wal,
    /// The newest valid segment, if any generation survived.
    pub segment: Option<Segment>,
    /// WAL records past the segment's epoch watermark, in commit
    /// order — the tail the store must re-apply.
    pub replay: Vec<CommitRecord>,
    /// Counters describing the recovery.
    pub report: RecoveryReport,
}

/// Recovery counters (folded into store metrics and `GET /metrics`).
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Generation of the segment recovery started from (0 = none).
    pub segment_generation: u64,
    /// That segment's epoch watermark (0 = none).
    pub segment_epoch: u64,
    /// Triples loaded from the segment.
    pub segment_triples: usize,
    /// WAL records re-applied on top of the segment.
    pub replayed_records: u64,
    /// WAL records skipped because a segment already covers them.
    pub stale_records: u64,
    /// Torn/corrupt trailing WAL bytes truncated.
    pub skipped_wal_bytes: u64,
    /// Segment files that failed validation, newest first.
    pub rejected_segments: Vec<(PathBuf, String)>,
}

/// Reconstructs the durable state in `dir` (creating it if absent):
/// newest valid segment + WAL tail. The caller applies
/// [`Recovered::replay`] on top of the segment to reach the last
/// fully-committed epoch.
pub fn recover(dir: &Path) -> io::Result<Recovered> {
    std::fs::create_dir_all(dir)?;
    let (segment, rejected) = load_newest_valid(dir)?;
    let (wal, wal_replay) = Wal::open(dir.join(WAL_FILE))?;
    let watermark = segment.as_ref().map_or(0, |s| s.epoch());

    let mut replay = Vec::new();
    let mut stale_records = 0u64;
    for record in wal_replay.records {
        if record.epoch > watermark {
            replay.push(record);
        } else {
            stale_records += 1;
        }
    }
    let report = RecoveryReport {
        segment_generation: segment.as_ref().map_or(0, |s| s.generation()),
        segment_epoch: watermark,
        segment_triples: segment.as_ref().map_or(0, Segment::len),
        replayed_records: replay.len() as u64,
        stale_records,
        skipped_wal_bytes: wal_replay.skipped_bytes,
        rejected_segments: rejected,
    };
    Ok(Recovered {
        wal,
        segment,
        replay,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use owql_rdf::term::triple;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("owql-persist-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn recover_empty_directory() {
        let dir = tmp("fresh");
        let recovered = recover(&dir).expect("recover");
        assert!(recovered.segment.is_none());
        assert!(recovered.replay.is_empty());
        assert_eq!(recovered.report.segment_generation, 0);
        assert!(dir.is_dir(), "directory is created");
    }

    #[test]
    fn recover_segment_plus_wal_tail() {
        let dir = tmp("tail");
        std::fs::create_dir_all(&dir).expect("mkdir");
        // Segment covers epochs 1..=5; WAL holds 4..=7 (overlap is
        // normal after a crash between segment rename and truncation).
        write_segment(&dir, 2, 5, &[triple("a", "p", "b")]).expect("segment");
        let (mut wal, _) = Wal::open(dir.join(WAL_FILE)).expect("wal");
        for epoch in 4..=7u64 {
            let t = triple(format!("s{epoch}").as_str(), "p", "o");
            wal.append(
                &CommitRecord {
                    epoch,
                    ops: vec![WalOp::Insert(t)],
                },
                false,
            )
            .expect("append");
        }
        drop(wal);

        let recovered = recover(&dir).expect("recover");
        let segment = recovered.segment.expect("segment found");
        assert_eq!(segment.generation(), 2);
        assert_eq!(segment.len(), 1);
        assert_eq!(
            recovered.replay.iter().map(|r| r.epoch).collect::<Vec<_>>(),
            vec![6, 7],
            "only records past the watermark replay"
        );
        assert_eq!(recovered.report.stale_records, 2);
        assert_eq!(recovered.report.replayed_records, 2);
        assert_eq!(recovered.report.segment_epoch, 5);
    }
}
