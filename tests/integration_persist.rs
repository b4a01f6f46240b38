//! Fault-injection tests for the persistence layer: mangle the on-disk
//! state the way real crashes and bit rot do, reopen, and check that
//! recovery lands on the last fully-committed epoch — differentially
//! against an in-memory reference store that saw the same mutations.
//!
//! The third injection — `kill -9` of a writer *process* mid-commit
//! loop — re-runs this test binary as the writer (the ignored
//! `crash_writer` test) and SIGKILLs it.

use owql_algebra::pattern::Pattern;
use owql_rdf::term::triple;
use owql_store::{segment_path, PersistConfig, Store, StoreOptions, WAL_FILE};
use std::fs::OpenOptions;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::os::unix::process::ExitStatusExt;
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("owql-persist-it-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic, fast persistence: no fsync, no auto-checkpoint.
fn config() -> PersistConfig {
    PersistConfig::default()
        .no_fsync()
        .checkpoint_every(0)
        .inline_indexer()
}

fn open(dir: &PathBuf) -> Store {
    Store::open(dir, StoreOptions::default(), config()).expect("open store")
}

/// An in-memory store that replays commits `1..=epochs` of the
/// deterministic workload: commit `i` inserts `(s{i}, p, o{i%3})`.
fn reference_up_to(epochs: u64) -> Store {
    let store = Store::new();
    for i in 1..=epochs {
        store.insert(workload_triple(i));
    }
    store
}

fn workload_triple(i: u64) -> owql_rdf::Triple {
    let s = format!("s{i}");
    let o = format!("o{}", i % 3);
    triple(s.as_str(), "p", o.as_str())
}

/// Recovered store answers every probe exactly like the reference.
fn assert_differential(recovered: &Store, reference: &Store) {
    assert_eq!(recovered.epoch(), reference.epoch(), "epochs agree");
    assert_eq!(recovered.to_graph(), reference.to_graph(), "graphs agree");
    for probe in [
        Pattern::t("?x", "p", "?y"),
        Pattern::t("?x", "p", "o1"),
        Pattern::t("?x", "p", "?y").and(Pattern::t("?z", "p", "?y")),
        Pattern::t("?x", "p", "?y")
            .opt(Pattern::t("?y", "p", "?z"))
            .ns(),
    ] {
        assert_eq!(
            recovered.query(&probe),
            reference.query(&probe),
            "answers diverge for {probe}"
        );
    }
}

#[test]
fn truncated_wal_mid_record_recovers_previous_epoch() {
    let dir = tmp_dir("torn-wal");
    {
        let store = open(&dir);
        for i in 1..=10 {
            store.insert(workload_triple(i));
        }
    }
    // Cut the log mid-way through its final record — the torn frame a
    // crash during `write` leaves behind.
    let wal = dir.join(WAL_FILE);
    let len = std::fs::metadata(&wal).expect("wal metadata").len();
    let file = OpenOptions::new().write(true).open(&wal).expect("open wal");
    file.set_len(len - 5).expect("truncate");
    drop(file);

    let recovered = open(&dir);
    let report = recovered.recovery_report().expect("durable").clone();
    assert!(report.skipped_wal_bytes > 0, "torn tail was measured");
    assert_eq!(recovered.epoch(), 9, "last fully-committed epoch");
    assert_differential(&recovered, &reference_up_to(9));
}

#[test]
fn corrupt_wal_record_stops_replay_at_valid_prefix() {
    let dir = tmp_dir("bitrot-wal");
    {
        let store = open(&dir);
        for i in 1..=8 {
            store.insert(workload_triple(i));
        }
    }
    // Flip one byte around the middle of the log: every record from
    // the damaged frame on is untrusted and must not replay.
    let wal = dir.join(WAL_FILE);
    let len = std::fs::metadata(&wal).expect("wal metadata").len();
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .open(&wal)
        .expect("open wal");
    let pos = len / 2;
    file.seek(SeekFrom::Start(pos)).expect("seek");
    let mut byte = [0u8; 1];
    file.read_exact(&mut byte).expect("read");
    byte[0] ^= 0x40;
    file.seek(SeekFrom::Start(pos)).expect("seek");
    file.write_all(&byte).expect("write");
    drop(file);

    let recovered = open(&dir);
    let epoch = recovered.epoch();
    assert!(epoch < 8, "replay stopped before the corrupt frame");
    assert_differential(&recovered, &reference_up_to(epoch));
}

#[test]
fn flipped_segment_byte_falls_back_to_previous_generation() {
    let dir = tmp_dir("bitrot-segment");
    {
        let store = open(&dir);
        for i in 1..=6 {
            store.insert(workload_triple(i));
        }
        store.checkpoint().expect("io").expect("gen 1");
        for i in 7..=12 {
            store.insert(workload_triple(i));
        }
        store.checkpoint().expect("io").expect("gen 2");
        for i in 13..=14 {
            store.insert(workload_triple(i));
        }
    }
    // Damage the newest segment's body.
    let seg = segment_path(&dir, 2);
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .open(&seg)
        .expect("open segment");
    file.seek(SeekFrom::Start(80)).expect("seek");
    let mut byte = [0u8; 1];
    file.read_exact(&mut byte).expect("read");
    byte[0] ^= 0x01;
    file.seek(SeekFrom::Start(80)).expect("seek");
    file.write_all(&byte).expect("write");
    drop(file);

    // keep_segments=2 retains gen 1, and the WAL was only truncated
    // behind *it* — so nothing is lost: gen 1 + records 7..=14.
    let recovered = open(&dir);
    let report = recovered.recovery_report().expect("durable").clone();
    assert_eq!(report.segment_generation, 1, "fell back one generation");
    assert_eq!(report.rejected_segments.len(), 1);
    assert_eq!(recovered.epoch(), 14, "no committed epoch was lost");
    assert_differential(&recovered, &reference_up_to(14));
}

#[test]
fn garbage_wal_tail_is_skipped() {
    let dir = tmp_dir("garbage-tail");
    {
        let store = open(&dir);
        for i in 1..=5 {
            store.insert(workload_triple(i));
        }
    }
    // A frame header promising more payload than the file holds — the
    // shape a crash between the length write and the payload leaves.
    let mut file = OpenOptions::new()
        .append(true)
        .open(dir.join(WAL_FILE))
        .expect("open wal");
    file.write_all(&[0xFF, 0x00, 0x00, 0x00, 0xAB, 0xCD])
        .expect("append garbage");
    drop(file);

    let recovered = open(&dir);
    assert_eq!(recovered.epoch(), 5);
    assert_differential(&recovered, &reference_up_to(5));
    // The reopened WAL was truncated back to the valid prefix, so a
    // third open sees a clean log.
    drop(recovered);
    let again = open(&dir);
    assert_eq!(
        again.recovery_report().expect("durable").skipped_wal_bytes,
        0
    );
    assert_eq!(again.epoch(), 5);
}

/// Commits made *after* a recovery append cleanly onto the truncated
/// log — a full damage → recover → write → recover cycle.
#[test]
fn post_recovery_commits_survive_the_next_reopen() {
    let dir = tmp_dir("write-after-recovery");
    {
        let store = open(&dir);
        for i in 1..=4 {
            store.insert(workload_triple(i));
        }
    }
    let wal = dir.join(WAL_FILE);
    let len = std::fs::metadata(&wal).expect("wal metadata").len();
    let file = OpenOptions::new().write(true).open(&wal).expect("open wal");
    file.set_len(len - 1).expect("truncate");
    drop(file);

    {
        let store = open(&dir);
        assert_eq!(store.epoch(), 3);
        // Epochs 4 and 5 are *new* commits (the original epoch 4 died
        // with the torn record).
        store.insert(workload_triple(4));
        store.insert(workload_triple(5));
    }
    let recovered = open(&dir);
    assert_eq!(recovered.epoch(), 5);
    assert_differential(&recovered, &reference_up_to(5));
}

/// Names the crash writer's data directory; without it the writer
/// returns at once.
const CRASH_WRITER_DIR: &str = "OWQL_CRASH_WRITER_DIR";

/// The child process of the `kill -9` tests, not a test of its own:
/// commits `workload_triple(i)` forever with fsync on, printing
/// `committed <epoch>` after each commit is durable. Epoch `i` ⇔
/// triples `s1..si` are committed.
#[test]
#[ignore = "spawned by the kill -9 tests"]
fn crash_writer() {
    let Some(dir) = std::env::var_os(CRASH_WRITER_DIR) else {
        return;
    };
    let store = Store::open(
        dir,
        StoreOptions::default(),
        PersistConfig::default()
            .checkpoint_every(0)
            .inline_indexer(),
    )
    .expect("open store");
    for i in store.epoch() + 1.. {
        store.insert(workload_triple(i));
        println!("committed {i}");
    }
}

/// Re-runs this test binary as the crash writer on `dir`, SIGKILLs it
/// once it has confirmed `min_commits` commits, and returns how many it
/// confirmed.
fn run_and_kill_writer(dir: &PathBuf, min_commits: u64) -> u64 {
    let mut child = Command::new(std::env::current_exe().expect("own test binary"))
        .args(["--exact", "crash_writer", "--ignored", "--nocapture"])
        .env(CRASH_WRITER_DIR, dir)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn crash writer");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut confirmed = 0u64;
    for line in BufReader::new(stdout).lines() {
        let line = line.expect("read writer stdout");
        if let Some(n) = line.strip_prefix("committed ") {
            confirmed = n.parse().expect("epoch number");
        }
        if confirmed >= min_commits {
            break;
        }
    }
    // SIGKILL: no destructors, no flushes — the real crash.
    child.kill().expect("kill -9 writer");
    let status = child.wait().expect("reap writer");
    assert_eq!(status.signal(), Some(9), "writer died of SIGKILL");
    confirmed
}

/// The headline durability test: recovery after `kill -9` lands on the
/// last fully-committed epoch, with answers identical to an in-memory
/// reference.
#[test]
fn killed_writer_recovers_to_last_committed_epoch() {
    let dir = tmp_dir("kill9");
    let confirmed = run_and_kill_writer(&dir, 50);
    assert!(confirmed >= 50, "writer confirmed {confirmed} commits");
    let store = open(&dir);
    let epoch = store.epoch();
    // Every confirmed commit was fsync'd before its epoch published;
    // the kill may have cut an in-flight commit whose record was
    // already durable, so epoch can exceed `confirmed` — never trail it.
    assert!(
        epoch >= confirmed,
        "recovered epoch {epoch} lost confirmed commit {confirmed}"
    );
    assert_differential(&store, &reference_up_to(epoch));
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash → recover → keep writing → crash again: epochs stay monotone
/// across generations of writers and nothing committed is ever lost.
#[test]
fn repeated_crashes_accumulate_monotonically() {
    let dir = tmp_dir("kill9-repeat");
    let mut last_epoch = 0u64;
    for round in 0..3 {
        let confirmed = run_and_kill_writer(&dir, last_epoch + 20);
        assert!(confirmed >= last_epoch + 20, "round {round}");
        let store = open(&dir);
        let epoch = store.epoch();
        assert!(
            epoch >= confirmed && epoch > last_epoch,
            "round {round}: epoch {epoch}, confirmed {confirmed}, last {last_epoch}"
        );
        assert_eq!(store.len() as u64, epoch, "one distinct triple per epoch");
        last_epoch = epoch;
    }
    assert_differential(&open(&dir), &reference_up_to(last_epoch));
    let _ = std::fs::remove_dir_all(&dir);
}
