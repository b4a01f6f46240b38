//! The write-ahead commit log.
//!
//! One frame per committed transaction, append-only:
//!
//! ```text
//! frame   := [payload_len: u32 LE] [crc32(payload): u32 LE] [payload]
//! payload := [epoch: u64 LE] [op_count: u32 LE] op*
//! op      := [tag: u8 (0 = insert, 1 = delete)] iri iri iri
//! iri     := [len: u32 LE] [utf-8 bytes]
//! ```
//!
//! The store appends (and, when configured, fsyncs) a frame **before**
//! publishing the commit's epoch, so every epoch a reader ever observed
//! is reconstructible from disk. Recovery reads frames front to back
//! and stops at the first frame that does not check out — a torn tail
//! (the process died mid-`write`) and a corrupt tail look the same and
//! are handled the same: the log is truncated back to its longest
//! valid prefix and the store recovers to the last fully-committed
//! epoch. IRIs travel as text because interner ids are process-local.
//! A failed append cuts the file back to its last whole frame, so the
//! next frame follows the last acknowledged one ([`Wal::append`]).

use crate::crc::crc32;
use owql_rdf::{Iri, Triple};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Upper bound on one frame's payload (64 MiB): a length prefix larger
/// than this is garbage, not a record that has not finished writing.
const MAX_PAYLOAD: u32 = 64 << 20;

/// One mutation inside a commit record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalOp {
    /// The triple became visible at the record's epoch.
    Insert(Triple),
    /// The triple stopped being visible at the record's epoch.
    Delete(Triple),
}

impl WalOp {
    /// `(true, t)` for an insert of `t`, `(false, t)` for a delete.
    pub fn parts(&self) -> (bool, Triple) {
        match *self {
            WalOp::Insert(t) => (true, t),
            WalOp::Delete(t) => (false, t),
        }
    }
}

/// One committed transaction: the epoch it published plus the ops that
/// actually changed the store (no-ops are not logged).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitRecord {
    /// The epoch the commit published.
    pub epoch: u64,
    /// The applied mutations, in application order.
    pub ops: Vec<WalOp>,
}

impl CommitRecord {
    /// The record's frame: header, then [`CommitRecord::encode`].
    fn frame(&self) -> Vec<u8> {
        let payload = self.encode();
        let header = [
            (payload.len() as u32).to_le_bytes(),
            crc32(&payload).to_le_bytes(),
        ];
        [header.as_flattened(), &payload].concat()
    }

    /// Serializes the record payload (everything after the frame
    /// header).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.ops.len() * 32);
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&(self.ops.len() as u32).to_le_bytes());
        for op in &self.ops {
            let (tag, t) = match op {
                WalOp::Insert(t) => (0u8, t),
                WalOp::Delete(t) => (1u8, t),
            };
            out.push(tag);
            for iri in t.components() {
                let text = iri.as_str().as_bytes();
                out.extend_from_slice(&(text.len() as u32).to_le_bytes());
                out.extend_from_slice(text);
            }
        }
        out
    }

    /// Decodes a payload produced by [`CommitRecord::encode`]; `None`
    /// on any structural violation (recovery treats that frame as the
    /// end of the valid prefix).
    pub fn decode(payload: &[u8]) -> Option<CommitRecord> {
        let mut ops = Vec::new();
        let epoch = walk_payload(payload, |op, [s, p, o]| {
            ops.push(op(Triple::new(Iri::new(s), Iri::new(p), Iri::new(o))));
        })?;
        Some(CommitRecord { epoch, ops })
    }
}

/// The record's epoch if `payload` follows the record grammar, handing
/// each op's constructor and IRI texts to `visit`; interns nothing.
fn walk_payload<'a>(
    payload: &'a [u8],
    mut visit: impl FnMut(fn(Triple) -> WalOp, [&'a str; 3]),
) -> Option<u64> {
    let mut cursor = Cursor {
        buf: payload,
        at: 0,
    };
    let epoch = cursor.u64()?;
    for _ in 0..cursor.u32()? {
        let op: fn(Triple) -> WalOp = match cursor.u8()? {
            0 => WalOp::Insert,
            1 => WalOp::Delete,
            _ => return None,
        };
        visit(op, [cursor.text()?, cursor.text()?, cursor.text()?]);
    }
    (cursor.at == payload.len()).then_some(epoch) // no trailing garbage
}

/// Byte-slice reader for [`walk_payload`].
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let slice = self.buf.get(self.at..end)?;
        self.at = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn text(&mut self) -> Option<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).ok()
    }
}

/// What replaying a log file found.
#[derive(Clone, Debug, Default)]
pub struct WalReplay {
    /// Every fully-valid record, front to back.
    pub records: Vec<CommitRecord>,
    /// Length of the valid prefix.
    pub valid_bytes: u64,
    /// Bytes past the valid prefix (torn or corrupt tail).
    pub skipped_bytes: u64,
}

impl WalReplay {
    /// `true` iff the file ended with bytes that did not form a valid
    /// frame.
    pub fn torn(&self) -> bool {
        self.skipped_bytes > 0
    }
}

/// The error of every append to a poisoned [`Wal`]: an earlier append
/// could not be cut back, or its fsync failed, so what the file holds
/// past the last whole frame is unknown.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalPoisoned;

impl fmt::Display for WalPoisoned {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("the write-ahead log is poisoned by a failed append; reopen the store")
    }
}

impl std::error::Error for WalPoisoned {}

/// An open write-ahead log: an append handle plus running counters.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    records: u64,
    bytes: u64,
    poisoned: bool,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, replays it, and
    /// truncates any torn/corrupt tail so new appends extend the valid
    /// prefix. Returns the handle and what the replay found.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<(Wal, WalReplay)> {
        let path = path.into();
        let replay = match std::fs::read(&path) {
            Ok(bytes) => replay_bytes(&bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => WalReplay::default(),
            Err(e) => return Err(e),
        };
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(&path)?;
        if replay.skipped_bytes > 0 {
            file.set_len(replay.valid_bytes)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(replay.valid_bytes))?;
        let wal = Wal {
            path,
            file,
            records: replay.records.len() as u64,
            bytes: replay.valid_bytes,
            poisoned: false,
        };
        Ok((wal, replay))
    }

    /// Appends one frame; with `fsync`, the frame is durable before
    /// this returns. Returns the frame's size in bytes.
    ///
    /// On a write or fsync error the file is cut back to its last whole
    /// frame. If that cut fails, or the fsync did (the kernel may have
    /// dropped the dirty pages, so a retry proves nothing), the log is
    /// poisoned: later appends and truncations fail with [`WalPoisoned`].
    pub fn append(&mut self, record: &CommitRecord, fsync: bool) -> io::Result<u64> {
        if self.poisoned {
            return Err(io::Error::other(WalPoisoned));
        }
        let frame = record.frame();
        let written = match self.file.write_all(&frame) {
            Err(err) => Err((err, false)),
            Ok(()) if fsync => self.file.sync_data().map_err(|err| (err, true)),
            Ok(()) => Ok(()),
        };
        if let Err((err, sync_failed)) = written {
            let cut = self.file.set_len(self.bytes);
            let cut = cut.and_then(|()| self.file.seek(SeekFrom::Start(self.bytes)));
            self.poisoned = sync_failed || cut.is_err();
            return Err(err);
        }
        self.records += 1;
        self.bytes += frame.len() as u64;
        Ok(frame.len() as u64)
    }

    /// Drops every record with `epoch <= watermark` — the checkpoint
    /// step that truncates the log behind a durable segment. The frames
    /// replay would read are walked (interning no IRI) and the kept ones
    /// copied byte for byte to a temp log, fsync'd and renamed over the
    /// log: a crash leaves the old or the new log, never a mix. The
    /// temp log is the append handle before the rename, and a failure
    /// after it poisons the log, so no append lands in the old inode.
    pub fn truncate_behind(&mut self, watermark: u64) -> io::Result<u64> {
        if self.poisoned {
            return Err(io::Error::other(WalPoisoned));
        }
        // Read by path: the append handle's offset must not move.
        let bytes = std::fs::read(&self.path)?;
        let (mut kept, mut records) = (Vec::new(), 0u64);
        walk_frames(&bytes, |frame, payload| {
            let epoch = walk_payload(payload, |_, _| ());
            if epoch.is_some_and(|epoch| epoch > watermark) {
                kept.extend_from_slice(frame);
                records += 1;
            }
            epoch.is_some()
        });

        let tmp = self.path.with_extension("tmp");
        let mut out = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        out.write_all(&kept)?;
        out.sync_data()?;
        let old = std::mem::replace(&mut self.file, out);
        if let Err(err) = std::fs::rename(&tmp, &self.path) {
            self.file = old; // the old log is still in place
            return Err(err);
        }
        let dropped = self.records - records;
        self.records = records;
        self.bytes = kept.len() as u64;
        if let Err(err) = sync_parent_dir(&self.path) {
            self.poisoned = true;
            return Err(err);
        }
        Ok(dropped)
    }

    /// Records appended or replayed into the current valid prefix.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes in the current valid prefix.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Parses the longest valid frame prefix of `bytes`.
pub fn replay_bytes(bytes: &[u8]) -> WalReplay {
    let mut records = Vec::new();
    let valid = walk_frames(bytes, |_, payload| {
        CommitRecord::decode(payload)
            .map(|r| records.push(r))
            .is_some()
    });
    WalReplay {
        records,
        valid_bytes: valid as u64,
        skipped_bytes: (bytes.len() - valid) as u64,
    }
}

/// The frame walker of replay and truncation: the length of the prefix
/// of whole frames (and their payloads) handed to `visit`, up to a
/// length past the bound, a torn payload, a CRC mismatch or a `false`.
fn walk_frames(bytes: &[u8], mut visit: impl FnMut(&[u8], &[u8]) -> bool) -> usize {
    let mut at = 0usize;
    while let Some(header) = bytes.get(at..at + 8) {
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        let end = at + 8 + len as usize;
        // No payload: torn mid-write. A CRC mismatch: corrupt.
        match bytes.get(at + 8..end).filter(|_| len <= MAX_PAYLOAD) {
            Some(payload) if crc32(payload) == crc && visit(&bytes[at..end], payload) => at = end,
            _ => break,
        }
    }
    at
}

/// Fsyncs the directory containing `path`, making a rename/create of
/// that name durable (no-op on platforms where directories cannot be
/// opened).
pub fn sync_parent_dir(path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            dir.sync_data()?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use owql_rdf::term::triple;

    fn record(epoch: u64, n: usize) -> CommitRecord {
        CommitRecord {
            epoch,
            ops: (0..n)
                .map(|i| {
                    let t = triple(format!("s{epoch}-{i}").as_str(), "p", "o");
                    if i % 3 == 2 {
                        WalOp::Delete(t)
                    } else {
                        WalOp::Insert(t)
                    }
                })
                .collect(),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("owql-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join("wal.log")
    }

    #[test]
    fn encode_decode_roundtrip() {
        for rec in [record(1, 0), record(7, 1), record(42, 13)] {
            let payload = rec.encode();
            assert_eq!(CommitRecord::decode(&payload).expect("decodes"), rec);
        }
    }

    #[test]
    fn append_then_replay() {
        let path = tmp("roundtrip");
        let (mut wal, replay) = Wal::open(&path).expect("open");
        assert!(replay.records.is_empty());
        let recs: Vec<CommitRecord> = (1..=5).map(|e| record(e, e as usize)).collect();
        for r in &recs {
            wal.append(r, true).expect("append");
        }
        assert_eq!(wal.records(), 5);
        drop(wal);

        let (reopened, replay) = Wal::open(&path).expect("reopen");
        assert_eq!(replay.records, recs);
        assert!(!replay.torn());
        assert_eq!(reopened.records(), 5);
        assert_eq!(reopened.bytes(), replay.valid_bytes);
    }

    /// Every possible truncation point recovers the longest prefix of
    /// whole records — a torn tail never resurrects a partial commit.
    #[test]
    fn torn_tail_recovers_record_prefix() {
        let path = tmp("torn");
        let (mut wal, _) = Wal::open(&path).expect("open");
        let recs: Vec<CommitRecord> = (1..=4).map(|e| record(e, 3)).collect();
        let mut boundaries = vec![0u64];
        for r in &recs {
            wal.append(r, false).expect("append");
            boundaries.push(wal.bytes());
        }
        drop(wal);
        let full = std::fs::read(&path).expect("read");

        for cut in 0..=full.len() {
            let replay = replay_bytes(&full[..cut]);
            let whole = boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1;
            assert_eq!(replay.records.len(), whole, "cut at {cut}");
            assert_eq!(replay.records, recs[..whole], "cut at {cut}");
            assert_eq!(replay.valid_bytes, boundaries[whole], "cut at {cut}");
        }
    }

    /// Opening over a torn tail truncates it, and appending afterwards
    /// produces a clean log.
    #[test]
    fn open_truncates_torn_tail_and_appends_cleanly() {
        let path = tmp("truncate");
        let (mut wal, _) = Wal::open(&path).expect("open");
        wal.append(&record(1, 2), false).expect("append");
        let valid = wal.bytes();
        wal.append(&record(2, 2), false).expect("append");
        drop(wal);
        // Tear the second record in half.
        let full = std::fs::read(&path).expect("read");
        std::fs::write(&path, &full[..(valid as usize + 5)]).expect("tear");

        let (mut wal, replay) = Wal::open(&path).expect("reopen");
        assert_eq!(replay.records.len(), 1);
        assert!(replay.torn());
        assert_eq!(replay.skipped_bytes, 5);
        wal.append(&record(2, 2), true)
            .expect("append after recovery");
        drop(wal);
        let replay = replay_bytes(&std::fs::read(&path).expect("read"));
        assert_eq!(replay.records.len(), 2);
        assert!(!replay.torn());
    }

    /// A flipped bit anywhere in a frame invalidates that frame and
    /// everything after it, never an earlier record.
    #[test]
    fn corruption_stops_replay_at_the_damaged_frame() {
        let path = tmp("corrupt");
        let (mut wal, _) = Wal::open(&path).expect("open");
        wal.append(&record(1, 2), false).expect("append");
        let first = wal.bytes() as usize;
        wal.append(&record(2, 2), false).expect("append");
        drop(wal);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[first + 12] ^= 0x40; // inside the second record's payload
        let replay = replay_bytes(&bytes);
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].epoch, 1);
        assert!(replay.torn());
    }

    /// An append whose write fails and whose cut-back fails too — here
    /// on a handle opened read-only — poisons the log: every later
    /// append and truncation is refused, and the file is unchanged.
    #[test]
    fn failed_append_that_cannot_be_undone_poisons_the_log() {
        let path = tmp("poison");
        let (mut wal, _) = Wal::open(&path).expect("open");
        wal.append(&record(1, 2), true).expect("append");
        let before = std::fs::read(&path).expect("read");
        wal.file = File::open(&path).expect("read-only handle");
        assert!(wal.append(&record(2, 2), true).is_err());
        for err in [
            wal.append(&record(2, 1), true).expect_err("poisoned"),
            wal.truncate_behind(1).expect_err("poisoned"),
        ] {
            assert_eq!(
                err.get_ref().and_then(|e| e.downcast_ref::<WalPoisoned>()),
                Some(&WalPoisoned)
            );
        }
        assert_eq!(wal.records(), 1);
        assert_eq!(std::fs::read(&path).expect("read"), before);
    }

    /// A frame whose CRC checks out but whose payload does not decode
    /// ends the valid prefix for truncation as it does for replay:
    /// `truncate_behind` keeps only the records `replay_bytes` reports,
    /// never the well-formed frame behind the bad one.
    #[test]
    fn truncate_behind_keeps_replays_prefix() {
        let path = tmp("undecodable");
        let bad_payloads: [&[u8]; 3] = [
            &[0u8; 3],                                         // shorter than an epoch
            &[[3u8; 8].as_slice(), &[1, 0, 0, 0, 7]].concat(), // op tag 7
            &[record(3, 0).encode(), vec![0xFF]].concat(),     // trailing garbage
        ];
        for bad in bad_payloads {
            let (mut wal, _) = Wal::open(&path).expect("open");
            wal.truncate_behind(u64::MAX).expect("empty the log");
            for e in 1..=2 {
                wal.append(&record(e, 2), false).expect("append");
            }
            let valid = std::fs::read(&path).expect("read");
            let header = [(bad.len() as u32).to_le_bytes(), crc32(bad).to_le_bytes()];
            let mut raw = OpenOptions::new().append(true).open(&path).expect("raw");
            raw.write_all(header.as_flattened()).expect("header");
            raw.write_all(bad).expect("payload");
            raw.write_all(&record(4, 2).frame()).expect("frame");
            drop(raw);
            let full = std::fs::read(&path).expect("read");
            let replay = replay_bytes(&full);
            assert_eq!(replay.valid_bytes, valid.len() as u64, "{bad:?}");
            assert_eq!(replay.records.len(), 2, "{bad:?}");

            assert_eq!(wal.truncate_behind(1).expect("truncate"), 1);
            assert_eq!(wal.records(), 1);
            let kept = std::fs::read(&path).expect("read");
            assert_eq!(wal.bytes(), kept.len() as u64);
            assert_eq!(replay_bytes(&kept).records, replay.records[1..], "{bad:?}");
            assert!(!replay_bytes(&kept).torn());
        }
    }

    #[test]
    fn truncate_behind_drops_checkpointed_records() {
        let path = tmp("behind");
        let (mut wal, _) = Wal::open(&path).expect("open");
        for e in 1..=6 {
            wal.append(&record(e, 2), false).expect("append");
        }
        let dropped = wal.truncate_behind(4).expect("truncate");
        assert_eq!(dropped, 4);
        assert_eq!(wal.records(), 2);
        // The surviving suffix replays, and the handle still appends.
        wal.append(&record(7, 1), true).expect("append");
        drop(wal);
        let replay = replay_bytes(&std::fs::read(&path).expect("read"));
        assert_eq!(
            replay.records.iter().map(|r| r.epoch).collect::<Vec<_>>(),
            vec![5, 6, 7]
        );
    }
}
